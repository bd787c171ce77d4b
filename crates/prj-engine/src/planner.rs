//! The query planner: pick an algorithm from the shape of the query.
//!
//! The paper evaluates four operator instantiations (CBRR/CBPA/TBRR/TBPA).
//! Measured in memory, where a sorted access costs about as much as a bound
//! update, the choice comes down to two inputs — the number of joined
//! relations and whether the scoring function admits the Euclidean
//! reduction:
//!
//! * **Pulling is always potential-adaptive.** Theorem 3.5: it never reads
//!   deeper than round-robin.
//! * **n ≤ 2, or scoring without the Euclidean reduction: the corner
//!   bound (CBPA).** At two relations the corner bound's O(1) update costs
//!   less than the deeper read it causes; without the reduction the tight
//!   bound is unavailable.
//! * **n ≥ 3 with the Euclidean reduction: the tight bound (TBPA).** The
//!   corner bound loosens as n grows (Figure 3(h)/(k)), and the extra depth
//!   outgrows the tight bound's update cost.
//! * **No LP dominance test.** Figure 3(m)/(n): it only amortises on deep
//!   runs, and served top-K runs are shallow.
//!
//! The plan is a pure function of those two inputs, so one query gets one
//! plan for all of its execution units. [`Planner::choose_driving`] still
//! reads the catalog's [`RelationStats`]: a cluster coordinator partitions
//! by the relation it picks, and EXPLAIN reports it.

use prj_access::RelationStats;
use prj_core::Algorithm;

/// The planner's decision for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen operator instantiation.
    pub algorithm: Algorithm,
    /// Dominance-test period to run with (`None` = disabled).
    pub dominance_period: Option<usize>,
    /// Human-readable justification, surfaced in engine results for
    /// observability.
    pub rationale: String,
}

/// Chooses among the four ProxRJ instantiations. Stateless: the rule has
/// no thresholds to configure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Planner {}

impl Planner {
    /// Picks the *driving* relation of a partitioned execution — the one
    /// whose shards the combination space is split by — by estimated
    /// `sumDepths` instead of blindly taking the first. Only a cluster
    /// coordinator partitions (one remote unit per driving shard); an
    /// in-process query runs one unit over every relation's merged view,
    /// where the choice is merely reported by EXPLAIN.
    ///
    /// The model: per execution unit, the driving relation contributes only
    /// its shard slice, while every *non-driving* relation is read through
    /// a whole-relation merged view, so the non-driving relations dominate
    /// the expected access cost. How deep a non-driving relation is read
    /// before the bound closes depends on its score distribution:
    /// top-heavy (right-skewed) scores let potential-adaptive pulling stop
    /// early (the paper's Figure 3(g)/(h) skew behaviour), roughly
    /// discounting its expected depth by `1 / (1 + skew)`. The driving
    /// relation forfeits its own discount — its slices are enumerated
    /// regardless — so the best driving choice is the relation whose
    /// *removal* from the non-driving set costs least:
    ///
    /// ```text
    /// drive = argmin_d Σ_{r ≠ d} cardinality(r) / (1 + max(skew(r), 0))
    /// ```
    ///
    /// Deterministic (ties resolve to the lowest index, so symmetric
    /// relations keep the historical "first relation drives" behaviour) and
    /// a pure function of the statistics, which makes it safe to fold into
    /// cache keys implicitly. Correctness never depends on the choice: the
    /// combination space partitions exactly over *any* relation's shards.
    pub fn choose_driving(&self, stats: &[RelationStats]) -> usize {
        if stats.len() <= 1 {
            return 0;
        }
        let discounted: Vec<f64> = stats
            .iter()
            .map(|s| s.cardinality as f64 / (1.0 + s.score_skewness.max(0.0)))
            .collect();
        let total: f64 = discounted.iter().sum();
        // Σ_{r≠d} discounted(r) = total − discounted(d): minimising the
        // non-driving cost means driving the largest discounted term.
        (0..stats.len())
            .min_by(|&a, &b| (total - discounted[a]).total_cmp(&(total - discounted[b])))
            .unwrap_or(0)
    }

    /// Plans one query.
    ///
    /// * `scoring_reducible` — whether the scoring function exposes
    ///   Euclidean-reduction weights (tight bound available).
    /// * `stats` — per-relation statistics, in join order. Only their
    ///   number is read: neither cardinality nor skew changes the pick.
    pub fn plan(&self, scoring_reducible: bool, stats: &[RelationStats]) -> Plan {
        let relations = stats.len();
        let (algorithm, bound) = if !scoring_reducible {
            (
                Algorithm::Cbpa,
                "corner bound: scoring not Euclidean-reducible".to_string(),
            )
        } else if relations <= 2 {
            (
                Algorithm::Cbpa,
                format!("corner bound at n = {relations}: its cheap update beats the tight bound's shallower read"),
            )
        } else {
            (
                Algorithm::Tbpa,
                format!("tight bound at n = {relations}: the corner bound loosens as n grows (Fig. 3(h)/(k))"),
            )
        };
        Plan {
            algorithm,
            dominance_period: None,
            rationale: format!(
                "{bound}; potential-adaptive pulling (never deeper than round-robin, Theorem 3.5); \
                 no dominance test (pays only on deep runs, Fig. 3(m)/(n))"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cardinality: usize, skewness: f64) -> RelationStats {
        RelationStats {
            cardinality,
            dimensions: 2,
            min_score: 0.05,
            max_score: 1.0,
            mean_score: 0.5,
            score_stddev: 0.2,
            score_skewness: skewness,
        }
    }

    #[test]
    fn reducible_scoring_at_one_or_two_relations_gets_cbpa() {
        for n in [1, 2] {
            let plan = Planner::default().plan(true, &vec![stats(100, 0.0); n]);
            assert_eq!(plan.algorithm, Algorithm::Cbpa, "n = {n}");
            assert!(
                plan.rationale.contains("corner bound"),
                "{}",
                plan.rationale
            );
        }
    }

    #[test]
    fn reducible_scoring_at_three_or_more_relations_gets_tbpa() {
        for n in [3, 4] {
            let plan = Planner::default().plan(true, &vec![stats(100, 0.0); n]);
            assert_eq!(plan.algorithm, Algorithm::Tbpa, "n = {n}");
            assert!(plan.rationale.contains("tight bound"), "{}", plan.rationale);
        }
    }

    #[test]
    fn non_reducible_scoring_gets_cbpa_at_every_n() {
        for n in 1..=4 {
            let plan = Planner::default().plan(false, &vec![stats(100, 0.0); n]);
            assert_eq!(plan.algorithm, Algorithm::Cbpa, "n = {n}");
            assert!(plan.rationale.contains("not Euclidean-reducible"));
        }
    }

    #[test]
    fn no_dominance_test_at_any_cardinality_or_skew() {
        for reducible in [true, false] {
            for relations in [
                vec![stats(100_000, 0.0), stats(100_000, 0.0)],
                vec![stats(100_000, 0.0); 3],
                vec![stats(100_000, 3.0), stats(50, 0.0)],
                vec![stats(100, 3.0), stats(100, -3.0), stats(100_000, 2.5)],
            ] {
                let plan = Planner::default().plan(reducible, &relations);
                assert_eq!(plan.dominance_period, None, "{relations:?}");
                assert!(plan.rationale.contains("no dominance test"));
            }
        }
    }

    #[test]
    fn symmetric_stats_keep_the_first_relation_driving() {
        let planner = Planner::default();
        assert_eq!(planner.choose_driving(&[]), 0);
        assert_eq!(planner.choose_driving(&[stats(100, 0.0)]), 0);
        assert_eq!(
            planner.choose_driving(&[stats(100, 0.0), stats(100, 0.0), stats(100, 0.0)]),
            0,
            "ties resolve to the lowest index"
        );
    }

    #[test]
    fn skewed_stats_flip_the_driving_choice() {
        let planner = Planner::default();
        // Equal cardinalities, but relation 0's scores are heavily skewed:
        // it benefits from staying non-driving (potential-adaptive reads it
        // shallowly), so the uniform relation 1 drives instead of "first".
        let flipped = planner.choose_driving(&[stats(100, 2.0), stats(100, 0.0)]);
        assert_eq!(flipped, 1, "skew on the first relation flips the choice");
        // The same stats with the skew moved keep relation 0 driving.
        assert_eq!(
            planner.choose_driving(&[stats(100, 0.0), stats(100, 2.0)]),
            0
        );
        // Cardinality dominates when skews agree: drive the big relation so
        // its cost leaves the non-driving sum.
        assert_eq!(
            planner.choose_driving(&[stats(50, 0.0), stats(1000, 0.0), stats(60, 0.0)]),
            1
        );
    }
}
