//! The proximity rank join operator.
//!
//! This crate is the primary contribution of the reproduction of *Proximity
//! Rank Join* (Martinenghi & Tagliasacchi, VLDB 2010): given `n` relations
//! whose tuples carry a feature vector and a score, accessible only through
//! sorted access (by distance from a query point or by score), return the
//! top-`K` combinations under an aggregation function that rewards high
//! scores, proximity to the query and mutual proximity (Eq. 2).
//!
//! The central pieces are:
//!
//! * [`scoring`] — the aggregation function contract and the paper's
//!   Euclidean-log instantiation ([`EuclideanLogScore`]).
//! * [`bounds`] — the corner bound (HRJN's, not tight) and the paper's tight
//!   bound, whose tightness yields instance optimality.
//! * [`dominance`] — the half-space dominance test used to prune partial
//!   combinations.
//! * [`pull`] — round-robin and potential-adaptive pulling strategies.
//! * [`operator`] — the ProxRJ template (Algorithm 1) tying it all together.
//! * [`algorithms`] — the four canned instantiations evaluated in the paper:
//!   [`Algorithm::Cbrr`] (HRJN), [`Algorithm::Cbpa`] (HRJN*),
//!   [`Algorithm::Tbrr`] and [`Algorithm::Tbpa`].
//! * [`naive`] — an exhaustive baseline used as a correctness oracle.
//!
//! # Example
//!
//! ```
//! use prj_core::{Algorithm, EuclideanLogScore, ProblemBuilder};
//! use prj_access::{AccessKind, Tuple, TupleId};
//! use prj_geometry::Vector;
//!
//! let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
//!     rows.iter()
//!         .enumerate()
//!         .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
//!         .collect()
//! };
//! let mut problem = ProblemBuilder::new(
//!     Vector::from([0.0, 0.0]),
//!     EuclideanLogScore::new(1.0, 1.0, 1.0),
//! )
//! .k(1)
//! .access_kind(AccessKind::Distance)
//! .relation_from_tuples(mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]))
//! .relation_from_tuples(mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]))
//! .relation_from_tuples(mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]))
//! .build()
//! .unwrap();
//!
//! let result = Algorithm::Tbpa.run(&mut problem).unwrap();
//! assert!((result.combinations[0].score - (-7.0)).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod bounds;
pub mod combination;
pub mod dominance;
pub mod error;
pub mod naive;
pub mod operator;
pub mod problem;
pub mod pull;
pub mod scoring;
pub mod state;

pub use algorithms::{Algorithm, BoundingSchemeKind, PullStrategyKind};
pub use bounds::{BoundingScheme, CornerBound, TightBound, TightBoundConfig};
pub use combination::{ScoredCombination, TopKBuffer};
pub use error::PrjError;
pub use naive::naive_rank_join;
pub use operator::{execute, RankJoinResult, RunMetrics, StreamingRun, TrajectoryPoint};
pub use problem::{Problem, ProblemBuilder, ProxRjConfig, RelationBackend};
pub use pull::{PotentialAdaptive, PullStrategy, RoundRobin};
pub use scoring::{
    fingerprint, CosineSimilarityScore, EuclideanLogScore, ScoringFunction, ScoringSpec, Weights,
};
pub use state::JoinState;

// Re-exported so downstream users only need `prj-core` for the common case.
pub use prj_access::{AccessKind, AccessStats, Tuple, TupleId};
