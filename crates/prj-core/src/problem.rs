//! Problem definition and builder (Definition 2.1).

use crate::error::PrjError;
use crate::scoring::ScoringFunction;
use prj_access::{AccessKind, RTreeRelation, RelationSet, SortedAccess, Tuple, VecRelation};
use prj_geometry::Vector;
use std::sync::Arc;

/// Runtime configuration of a ProxRJ execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProxRjConfig {
    /// Run the LP dominance test every `period` accesses (`None` = disabled,
    /// the paper's default for the main experiments; Figures 3(m)/(n) sweep
    /// this parameter).
    pub dominance_period: Option<usize>,
    /// Hard cap on the total number of sorted accesses (safety valve for
    /// experiments; `None` = unlimited). When the cap is hit the current
    /// top-K is returned even though it may not be certified.
    pub max_accesses: Option<usize>,
    /// Numerical margin used by the termination test `kth_score ≥ t + tol`:
    /// the K-th retained score must *strictly dominate* the bound before
    /// the run stops, so score ties at the boundary are read through and
    /// resolved by the deterministic id tie-break instead of depending on
    /// traversal order.
    pub termination_tolerance: f64,
    /// Sample the bound-convergence trajectory (current K-th retained score
    /// vs. the bound `t`) every this-many sorted accesses; `0` disables the
    /// capture entirely (the default — the operator loop pays a single
    /// predictable branch).
    pub convergence_every: usize,
}

impl Default for ProxRjConfig {
    fn default() -> Self {
        ProxRjConfig {
            dominance_period: None,
            max_accesses: None,
            termination_tolerance: 1e-9,
            convergence_every: 0,
        }
    }
}

/// A proximity rank join problem instance `(R_1, …, R_n, S, K)`.
///
/// The query vector is held behind an [`Arc`] so every execution layer that
/// needs it — the operator core, the join state, per-shard execution units —
/// shares one allocation instead of deep-cloning the coordinates per run.
pub struct Problem<S> {
    query: Arc<Vector>,
    scoring: S,
    k: usize,
    relations: RelationSet,
    config: ProxRjConfig,
}

impl<S: ScoringFunction> Problem<S> {
    /// The query vector `q`.
    pub fn query(&self) -> &Vector {
        &self.query
    }

    /// The shared handle to the query vector; cloning it is a refcount
    /// bump, not a copy of the coordinates.
    pub fn query_shared(&self) -> &Arc<Vector> {
        &self.query
    }

    /// The aggregation function.
    pub fn scoring(&self) -> &S {
        &self.scoring
    }

    /// The number of requested results `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of relations `n`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The shared access kind.
    pub fn access_kind(&self) -> AccessKind {
        self.relations.kind()
    }

    /// The runtime configuration.
    pub fn config(&self) -> ProxRjConfig {
        self.config
    }

    /// Mutable access to the relation set (used by executors).
    pub fn relations_mut(&mut self) -> &mut RelationSet {
        &mut self.relations
    }

    /// Shared access to the relation set.
    pub fn relations(&self) -> &RelationSet {
        &self.relations
    }

    /// Restarts every relation's sorted access from the beginning, so the
    /// same problem instance can be solved by several algorithms in turn.
    pub fn reset(&mut self) {
        self.relations.reset_all();
    }

    /// Replaces the runtime configuration.
    pub fn set_config(&mut self, config: ProxRjConfig) {
        self.config = config;
    }
}

impl<S: ScoringFunction> std::fmt::Debug for Problem<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Problem")
            .field("n", &self.relations.len())
            .field("k", &self.k)
            .field("kind", &self.relations.kind())
            .field("dim", &self.query.dim())
            .field("scoring", &self.scoring.name())
            .finish()
    }
}

/// How the builder materialises relations given raw tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RelationBackend {
    /// Pre-sorted in-memory vectors ([`VecRelation`]); cheapest to build.
    #[default]
    SortedVec,
    /// R-tree backed incremental nearest-neighbour access
    /// ([`RTreeRelation`]); only meaningful for distance-based access.
    RTree,
}

/// Builder for [`Problem`].
pub struct ProblemBuilder<S> {
    query: Arc<Vector>,
    scoring: S,
    k: usize,
    kind: AccessKind,
    backend: RelationBackend,
    config: ProxRjConfig,
    tuple_relations: Vec<Vec<Tuple>>,
    boxed_relations: Vec<Box<dyn SortedAccess>>,
}

impl<S: ScoringFunction> ProblemBuilder<S> {
    /// Starts a builder for the given query and aggregation function.
    ///
    /// Accepts either an owned [`Vector`] or an already-shared
    /// `Arc<Vector>`; callers building one problem per shard should pass
    /// the same `Arc` to every builder so no per-unit copy is made.
    pub fn new(query: impl Into<Arc<Vector>>, scoring: S) -> Self {
        ProblemBuilder {
            query: query.into(),
            scoring,
            k: 10,
            kind: AccessKind::Distance,
            backend: RelationBackend::SortedVec,
            config: ProxRjConfig::default(),
            tuple_relations: Vec::new(),
            boxed_relations: Vec::new(),
        }
    }

    /// Sets the number of requested results `K` (default 10).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the access kind (default distance-based).
    pub fn access_kind(mut self, kind: AccessKind) -> Self {
        self.kind = kind;
        self
    }

    /// Selects how tuple relations are materialised (default sorted vectors).
    pub fn backend(mut self, backend: RelationBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the full runtime configuration.
    pub fn config(mut self, config: ProxRjConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables the dominance test with the given period.
    pub fn dominance_period(mut self, period: Option<usize>) -> Self {
        self.config.dominance_period = period;
        self
    }

    /// Caps the total number of sorted accesses.
    pub fn max_accesses(mut self, cap: Option<usize>) -> Self {
        self.config.max_accesses = cap;
        self
    }

    /// Samples the bound-convergence trajectory every `every` sorted
    /// accesses (`0` = disabled, the default).
    pub fn convergence_every(mut self, every: usize) -> Self {
        self.config.convergence_every = every;
        self
    }

    /// Adds one relation given its raw tuples; the builder sorts them
    /// according to the access kind at [`build`](Self::build) time.
    pub fn relation_from_tuples(mut self, tuples: Vec<Tuple>) -> Self {
        self.tuple_relations.push(tuples);
        self
    }

    /// Adds several relations given their raw tuples.
    pub fn relations_from_tuples(mut self, relations: Vec<Vec<Tuple>>) -> Self {
        self.tuple_relations.extend(relations);
        self
    }

    /// Adds an already-constructed sorted-access relation (e.g. a
    /// [`MergedAccess`](prj_access::MergedAccess) over a relation's parts).
    pub fn relation(mut self, relation: Box<dyn SortedAccess>) -> Self {
        self.boxed_relations.push(relation);
        self
    }

    /// Validates the inputs and produces the problem.
    pub fn build(self) -> Result<Problem<S>, PrjError> {
        if self.k == 0 {
            return Err(PrjError::InvalidK);
        }
        let dim = self.query.dim();
        let mut relations: Vec<Box<dyn SortedAccess>> = Vec::new();
        for (idx, tuples) in self.tuple_relations.into_iter().enumerate() {
            for t in &tuples {
                if t.dim() != dim {
                    return Err(PrjError::DimensionMismatch {
                        expected: dim,
                        found: t.dim(),
                    });
                }
                if t.score <= 0.0 {
                    return Err(PrjError::NonPositiveScore { score: t.score });
                }
            }
            let name = format!("R{}", idx + 1);
            let boxed: Box<dyn SortedAccess> = match (self.kind, self.backend) {
                (AccessKind::Distance, RelationBackend::SortedVec) => {
                    // Sort with the aggregation function's own distance so
                    // that the access frontier and the proximity terms agree
                    // (relevant when a non-Euclidean scoring is used).
                    let query = self.query.clone();
                    Box::new(VecRelation::distance_sorted_by(name, tuples, |t| {
                        self.scoring.distance(&t.vector, &query)
                    }))
                }
                (AccessKind::Distance, RelationBackend::RTree) => Box::new(
                    RTreeRelation::from_tuples(name, Arc::clone(&self.query), tuples),
                ),
                (AccessKind::Score, _) => Box::new(VecRelation::score_sorted(name, tuples)),
            };
            relations.push(boxed);
        }
        relations.extend(self.boxed_relations);
        if relations.is_empty() {
            return Err(PrjError::NoRelations);
        }
        Ok(Problem {
            query: self.query,
            scoring: self.scoring,
            k: self.k,
            relations: RelationSet::new(relations),
            config: self.config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::EuclideanLogScore;
    use prj_access::TupleId;

    fn tuples(rel: usize, pts: &[(f64, f64, f64)]) -> Vec<Tuple> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y, s))| Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), s))
            .collect()
    }

    #[test]
    fn builder_defaults() {
        let problem = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5)]))
            .relation_from_tuples(tuples(1, &[(0.0, 1.0, 0.9)]))
            .build()
            .unwrap();
        assert_eq!(problem.k(), 10);
        assert_eq!(problem.num_relations(), 2);
        assert_eq!(problem.access_kind(), AccessKind::Distance);
        assert_eq!(problem.config(), ProxRjConfig::default());
        assert_eq!(problem.query().dim(), 2);
        assert_eq!(problem.scoring().name(), "euclidean-log");
    }

    #[test]
    fn builder_validation_errors() {
        let err = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .build()
            .unwrap_err();
        assert_eq!(err, PrjError::NoRelations);

        let err = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .k(0)
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5)]))
            .build()
            .unwrap_err();
        assert_eq!(err, PrjError::InvalidK);

        let bad_dim = vec![Tuple::new(TupleId::new(0, 0), Vector::from([1.0]), 0.5)];
        let err = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .relation_from_tuples(bad_dim)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            PrjError::DimensionMismatch {
                expected: 2,
                found: 1
            }
        );

        let err = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.0)]))
            .build()
            .unwrap_err();
        assert_eq!(err, PrjError::NonPositiveScore { score: 0.0 });
    }

    #[test]
    fn builder_supports_both_backends_and_kinds() {
        let p = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .backend(RelationBackend::RTree)
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5), (2.0, 0.0, 0.9)]))
            .relation_from_tuples(tuples(1, &[(0.0, 1.0, 0.9)]))
            .build()
            .unwrap();
        assert_eq!(p.num_relations(), 2);
        let p = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .access_kind(AccessKind::Score)
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5)]))
            .build()
            .unwrap();
        assert_eq!(p.access_kind(), AccessKind::Score);
    }

    #[test]
    fn reset_allows_rerunning() {
        let mut p = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5)]))
            .build()
            .unwrap();
        assert!(p.relations_mut().relation_mut(0).next_tuple().is_some());
        assert!(p.relations_mut().relation_mut(0).next_tuple().is_none());
        p.reset();
        assert!(p.relations_mut().relation_mut(0).next_tuple().is_some());
    }

    #[test]
    fn config_setters() {
        let p = ProblemBuilder::new(Vector::from([0.0, 0.0]), EuclideanLogScore::default())
            .dominance_period(Some(8))
            .max_accesses(Some(100))
            .k(3)
            .relation_from_tuples(tuples(0, &[(1.0, 0.0, 0.5)]))
            .build()
            .unwrap();
        assert_eq!(p.config().dominance_period, Some(8));
        assert_eq!(p.config().max_accesses, Some(100));
        assert_eq!(p.k(), 3);
    }
}
