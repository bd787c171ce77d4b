//! The four evaluated algorithm instantiations (paper Sec. 4.1):
//! `CBRR` (= HRJN), `CBPA` (= HRJN*), `TBRR` and `TBPA`.

use crate::bounds::{BoundingScheme, CornerBound, TightBound, TightBoundConfig};
use crate::error::PrjError;
use crate::operator::{execute, RankJoinResult, StreamingRun};
use crate::problem::Problem;
use crate::pull::{PotentialAdaptive, PullStrategy, RoundRobin};
use crate::scoring::ScoringFunction;
use std::fmt;

/// Which bounding scheme an algorithm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundingSchemeKind {
    /// The HRJN-style corner bound (Eq. 3 / 36).
    Corner,
    /// The paper's tight bound (Eq. 9 / 40).
    Tight,
}

/// Which pulling strategy an algorithm uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PullStrategyKind {
    /// Round-robin over the relations.
    RoundRobin,
    /// Potential-adaptive (Sec. 3.3).
    PotentialAdaptive,
}

/// One of the four algorithm instantiations compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Corner bound + round-robin pulling; equivalent to HRJN.
    Cbrr,
    /// Corner bound + potential-adaptive pulling; equivalent to HRJN*.
    Cbpa,
    /// Tight bound + round-robin pulling (instance-optimal, Theorem 3.3).
    Tbrr,
    /// Tight bound + potential-adaptive pulling (instance-optimal and never
    /// deeper than TBRR on any relation, Theorem 3.5 / Corollary 3.6).
    Tbpa,
}

impl Algorithm {
    /// All four algorithms, in the order used throughout the paper's figures.
    pub fn all() -> [Algorithm; 4] {
        [
            Algorithm::Cbrr,
            Algorithm::Cbpa,
            Algorithm::Tbrr,
            Algorithm::Tbpa,
        ]
    }

    /// The bounding scheme this algorithm uses.
    pub fn bounding(&self) -> BoundingSchemeKind {
        match self {
            Algorithm::Cbrr | Algorithm::Cbpa => BoundingSchemeKind::Corner,
            Algorithm::Tbrr | Algorithm::Tbpa => BoundingSchemeKind::Tight,
        }
    }

    /// The pulling strategy this algorithm uses.
    pub fn pulling(&self) -> PullStrategyKind {
        match self {
            Algorithm::Cbrr | Algorithm::Tbrr => PullStrategyKind::RoundRobin,
            Algorithm::Cbpa | Algorithm::Tbpa => PullStrategyKind::PotentialAdaptive,
        }
    }

    /// The label used in the paper's figures (HRJN / HRJN* aliases included).
    pub fn label(&self) -> &'static str {
        match self {
            Algorithm::Cbrr => "CBRR (HRJN)",
            Algorithm::Cbpa => "CBPA (HRJN*)",
            Algorithm::Tbrr => "TBRR",
            Algorithm::Tbpa => "TBPA",
        }
    }

    /// Short identifier (CBRR/CBPA/TBRR/TBPA).
    pub fn id(&self) -> &'static str {
        match self {
            Algorithm::Cbrr => "CBRR",
            Algorithm::Cbpa => "CBPA",
            Algorithm::Tbrr => "TBRR",
            Algorithm::Tbpa => "TBPA",
        }
    }

    /// Builds this algorithm's bounding scheme for `problem`.
    ///
    /// # Errors
    /// Returns [`PrjError::ScoringNotReducible`] when a tight-bound algorithm
    /// is requested but the scoring function exposes no Euclidean-reduction
    /// weights.
    pub fn make_bound<S: ScoringFunction>(
        &self,
        problem: &Problem<S>,
    ) -> Result<Box<dyn BoundingScheme<S>>, PrjError> {
        let n = problem.num_relations();
        let config = problem.config();
        Ok(match self.bounding() {
            BoundingSchemeKind::Corner => Box::new(CornerBound::new(n)),
            BoundingSchemeKind::Tight => {
                let weights = problem
                    .scoring()
                    .euclidean_weights()
                    .ok_or(PrjError::ScoringNotReducible)?;
                Box::new(TightBound::new(
                    n,
                    weights,
                    TightBoundConfig {
                        dominance_period: config.dominance_period,
                    },
                ))
            }
        })
    }

    /// Builds this algorithm's pulling strategy.
    pub fn make_pull(&self) -> Box<dyn PullStrategy> {
        match self.pulling() {
            PullStrategyKind::RoundRobin => Box::new(RoundRobin::new()),
            PullStrategyKind::PotentialAdaptive => Box::new(PotentialAdaptive::new()),
        }
    }

    /// Runs the algorithm on `problem`.
    ///
    /// The problem's relations are reset to the beginning of their sorted
    /// access first, so the same problem can be solved repeatedly by
    /// different algorithms.
    ///
    /// # Errors
    /// Returns [`PrjError::ScoringNotReducible`] when a tight-bound algorithm
    /// is requested but the scoring function exposes no Euclidean-reduction
    /// weights.
    pub fn run<S: ScoringFunction>(
        &self,
        problem: &mut Problem<S>,
    ) -> Result<RankJoinResult, PrjError> {
        problem.reset();
        let mut bound = self.make_bound(problem)?;
        let mut pull = self.make_pull();
        Ok(execute(problem, bound.as_mut(), pull.as_mut()))
    }

    /// Starts an owned, incremental run of the algorithm over `problem`
    /// (resetting its relations first). The returned [`StreamingRun`] is
    /// `Send`: the `prj-engine` executor moves it into a worker thread and
    /// pulls results out one at a time.
    ///
    /// # Errors
    /// Returns [`PrjError::ScoringNotReducible`] when a tight-bound algorithm
    /// is requested but the scoring function exposes no Euclidean-reduction
    /// weights.
    pub fn start_streaming<S: ScoringFunction>(
        &self,
        mut problem: Problem<S>,
    ) -> Result<StreamingRun<S>, PrjError> {
        problem.reset();
        let bound = self.make_bound(&problem)?;
        let pull = self.make_pull();
        Ok(StreamingRun::new(problem, bound, pull))
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_rank_join;
    use crate::problem::ProblemBuilder;
    use crate::scoring::{CosineSimilarityScore, EuclideanLogScore};
    use prj_access::{AccessKind, Tuple, TupleId};
    use prj_geometry::Vector;

    fn mk(rel: usize, rows: &[([f64; 2], f64)]) -> Vec<Tuple> {
        rows.iter()
            .enumerate()
            .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
            .collect()
    }

    fn small_problem(k: usize, kind: AccessKind) -> crate::problem::Problem<EuclideanLogScore> {
        ProblemBuilder::new(
            Vector::from([0.0, 0.0]),
            EuclideanLogScore::new(1.0, 1.0, 1.0),
        )
        .k(k)
        .access_kind(kind)
        .relation_from_tuples(mk(
            0,
            &[
                ([0.2, 0.1], 0.7),
                ([-0.5, 0.4], 0.9),
                ([1.5, -0.2], 0.95),
                ([-2.0, 1.0], 0.3),
            ],
        ))
        .relation_from_tuples(mk(
            1,
            &[
                ([0.1, -0.3], 0.8),
                ([0.9, 0.9], 0.5),
                ([-1.2, -0.4], 0.99),
                ([2.5, 2.0], 0.6),
            ],
        ))
        .relation_from_tuples(mk(
            2,
            &[
                ([-0.1, 0.2], 0.6),
                ([0.6, -0.8], 0.85),
                ([1.1, 1.3], 0.4),
                ([-1.8, 2.2], 0.75),
            ],
        ))
        .build()
        .unwrap()
    }

    #[test]
    fn metadata_accessors() {
        assert_eq!(Algorithm::Cbrr.bounding(), BoundingSchemeKind::Corner);
        assert_eq!(Algorithm::Tbpa.bounding(), BoundingSchemeKind::Tight);
        assert_eq!(
            Algorithm::Cbpa.pulling(),
            PullStrategyKind::PotentialAdaptive
        );
        assert_eq!(Algorithm::Tbrr.pulling(), PullStrategyKind::RoundRobin);
        assert_eq!(Algorithm::Cbrr.label(), "CBRR (HRJN)");
        assert_eq!(Algorithm::Tbpa.to_string(), "TBPA");
        assert_eq!(Algorithm::all().len(), 4);
        assert_eq!(Algorithm::Cbpa.id(), "CBPA");
    }

    #[test]
    fn all_algorithms_agree_with_naive_distance_access() {
        let mut problem = small_problem(3, AccessKind::Distance);
        let expected = naive_rank_join(&mut problem);
        for algo in Algorithm::all() {
            let result = algo.run(&mut problem).unwrap();
            assert_eq!(result.combinations.len(), expected.combinations.len());
            for (a, b) in result.combinations.iter().zip(expected.combinations.iter()) {
                assert!(
                    (a.score - b.score).abs() < 1e-9,
                    "{algo}: score mismatch {} vs naive {}",
                    a.score,
                    b.score
                );
            }
        }
    }

    #[test]
    fn all_algorithms_agree_with_naive_score_access() {
        let mut problem = small_problem(4, AccessKind::Score);
        let expected = naive_rank_join(&mut problem);
        problem.reset();
        for algo in Algorithm::all() {
            let result = algo.run(&mut problem).unwrap();
            for (a, b) in result.combinations.iter().zip(expected.combinations.iter()) {
                assert!((a.score - b.score).abs() < 1e-9, "{algo}: mismatch");
            }
        }
    }

    #[test]
    fn tight_bound_reads_no_more_than_corner_bound() {
        let mut problem = small_problem(2, AccessKind::Distance);
        let cbrr = Algorithm::Cbrr.run(&mut problem).unwrap();
        let tbrr = Algorithm::Tbrr.run(&mut problem).unwrap();
        assert!(tbrr.sum_depths() <= cbrr.sum_depths());
        let cbpa = Algorithm::Cbpa.run(&mut problem).unwrap();
        let tbpa = Algorithm::Tbpa.run(&mut problem).unwrap();
        assert!(tbpa.sum_depths() <= cbpa.sum_depths());
    }

    #[test]
    fn tbpa_never_deeper_than_tbrr_per_relation() {
        // Theorem 3.5.
        let mut problem = small_problem(2, AccessKind::Distance);
        let tbrr = Algorithm::Tbrr.run(&mut problem).unwrap();
        let tbpa = Algorithm::Tbpa.run(&mut problem).unwrap();
        for i in 0..3 {
            assert!(
                tbpa.stats.depth(i) <= tbrr.stats.depth(i),
                "relation {i}: TBPA depth {} > TBRR depth {}",
                tbpa.stats.depth(i),
                tbrr.stats.depth(i)
            );
        }
    }

    #[test]
    fn cosine_scoring_rejects_tight_bound_but_allows_corner() {
        let mut problem =
            ProblemBuilder::new(Vector::from([1.0, 0.0]), CosineSimilarityScore::default())
                .k(1)
                .relation_from_tuples(mk(0, &[([0.5, 0.1], 0.9), ([0.0, 1.0], 0.8)]))
                .relation_from_tuples(mk(1, &[([0.8, 0.2], 0.7), ([-1.0, 0.1], 0.6)]))
                .build()
                .unwrap();
        assert_eq!(
            Algorithm::Tbpa.run(&mut problem).unwrap_err(),
            PrjError::ScoringNotReducible
        );
        let result = Algorithm::Cbrr.run(&mut problem).unwrap();
        let expected = naive_rank_join(&mut problem);
        assert!((result.combinations[0].score - expected.combinations[0].score).abs() < 1e-9);
    }
}
