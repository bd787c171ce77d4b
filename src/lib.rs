//! # proximity-rank-join
//!
//! A faithful, self-contained Rust reproduction of **“Proximity Rank Join”**
//! (D. Martinenghi & M. Tagliasacchi, PVLDB 3(1), VLDB 2010).
//!
//! The crate is a facade over the workspace crates; see the individual crates
//! for the full API:
//!
//! * [`geometry`] — vectors, metrics, centroids, bounding boxes.
//! * [`solver`] — the closed-form Eq. 14 solve the tight bound uses, LP
//!   feasibility (simplex), and the active-set convex QP kept as the
//!   closed form's test reference.
//! * [`index`] — R-tree substrate with incremental nearest-neighbour access.
//! * [`access`] — sorted-access abstraction (distance-based / score-based).
//! * [`core`] — the ProxRJ operator, bounding schemes, dominance and pulling
//!   strategies (CBRR = HRJN, CBPA = HRJN*, TBRR, TBPA).
//! * [`engine`] — the concurrent query-serving subsystem: a mutable
//!   relation catalog with `Arc`-shared indexes and epoch counters, a
//!   runtime-extensible scoring registry, a statistics-driven planner, a
//!   thread-pool executor with streaming results, an epoch-keyed LRU result
//!   cache, and the `Session` / `prj-serve` serving entry points.
//! * [`api`] — the versioned, transport-agnostic request/response protocol
//!   (`Request`/`Response`/`ApiError`), its `prj/2` line wire codec, and
//!   a TCP client with timeouts and connect retries.
//! * [`cluster`] — distributed execution: a coordinator sends each query
//!   whole to one of its fully replicated worker processes over the
//!   `prj/2` cluster-internal messages (and is home of the `prj-serve`
//!   binary).
//! * [`data`] — synthetic and city data set generators used by the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use proximity_rank_join::prelude::*;
//!
//! // Three tiny relations in 2-D (the paper's Table 1).
//! let r1 = vec![(0.5, [0.0, -0.5]), (1.0, [0.0, 1.0])];
//! let r2 = vec![(1.0, [1.0, 1.0]), (0.8, [-2.0, 2.0])];
//! let r3 = vec![(1.0, [-1.0, 1.0]), (0.4, [-2.0, -2.0])];
//! let build = |rows: Vec<(f64, [f64; 2])>, rel: usize| {
//!     rows.into_iter()
//!         .enumerate()
//!         .map(|(i, (score, x))| Tuple::new(TupleId::new(rel, i), Vector::from(x), score))
//!         .collect::<Vec<_>>()
//! };
//! let relations = vec![build(r1, 0), build(r2, 1), build(r3, 2)];
//! let query = Vector::from([0.0, 0.0]);
//! let scoring = EuclideanLogScore::new(1.0, 1.0, 1.0);
//!
//! let mut problem = ProblemBuilder::new(query, scoring)
//!     .k(1)
//!     .access_kind(AccessKind::Distance)
//!     .relations_from_tuples(relations)
//!     .build()
//!     .unwrap();
//!
//! let result = Algorithm::Tbpa.run(&mut problem).unwrap();
//! assert_eq!(result.combinations.len(), 1);
//! // The paper's Example 3.1: the top combination has aggregate score -7.
//! assert!((result.combinations[0].score - (-7.0)).abs() < 1e-9);
//! ```

pub use prj_access as access;
pub use prj_api as api;
pub use prj_cluster as cluster;
pub use prj_core as core;
pub use prj_data as data;
pub use prj_engine as engine;
pub use prj_geometry as geometry;
pub use prj_index as index;
pub use prj_solver as solver;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use prj_access::{AccessKind, AccessStats, SortedAccess};
    pub use prj_api::{ApiError, QueryRequest, RelationRef, Request, Response, TupleData};
    pub use prj_core::{
        Algorithm, BoundingSchemeKind, EuclideanLogScore, ProblemBuilder, ProxRjConfig,
        PullStrategyKind, RankJoinResult, ScoredCombination, ScoringSpec, Tuple, TupleId,
    };
    pub use prj_data::{CityDataSet, SyntheticConfig};
    pub use prj_engine::{Engine, EngineBuilder, QuerySpec, RelationId, Session};
    pub use prj_geometry::{Euclidean, Metric, Vector};
}
