//! Sorted-access abstraction for proximity rank join.
//!
//! Definition 2.1 of the paper fixes the *only* way input relations may be
//! consumed: sequential sorted access, either by increasing distance from the
//! query vector (kind A, distance-based) or by decreasing score (kind B,
//! score-based). This crate provides that abstraction and the bookkeeping the
//! ProxRJ operator needs on top of it:
//!
//! * [`Tuple`] / [`TupleId`] — the unit of data flowing out of a relation: a
//!   feature vector plus a score, tagged with its relation and rank.
//! * [`SortedAccess`] — the pull-based access trait; implementations include
//!   [`VecRelation`] (pre-sorted in-memory relation) and [`RTreeRelation`]
//!   (incremental nearest-neighbour access over the `prj-index` R-tree,
//!   mirroring a location-aware search service).
//! * [`RelationBuffer`] — the seen prefix `P_i` of a relation together with
//!   its depth, first/last distance and first/last score, i.e. exactly the
//!   state the corner and tight bounds read.
//! * [`DeltaBuffer`] — the score-sorted side structure of a shard's freshly
//!   appended tuples: the O(delta) ingest lane the engine's catalog merges
//!   with the immutable base until a background compaction folds it in.
//! * [`AccessStats`] — per-relation depths and the `sumDepths` metric used
//!   throughout the paper's evaluation.
//! * [`SimulatedService`] — a wrapper emulating a remote search service with
//!   per-access latency accounting, standing in for the Yahoo!-Local-style
//!   services of the paper's motivating scenario.
//! * [`shared`] — relation sources over `Arc`-shared immutable structures
//!   ([`SharedRTreeRelation`], [`SharedScoreRelation`]): O(1) to create per
//!   query, so the `prj-engine` catalog can serve many concurrent queries
//!   from one copy of each relation.
//! * [`RelationStats`] — per-relation data statistics (cardinality,
//!   dimensionality, score skew) consumed by the engine's planner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod delta;
pub mod kind;
pub mod merge;
pub mod service;
pub mod shared;
pub mod source;
pub mod stats;
pub mod tuple;

pub use buffer::RelationBuffer;
pub use delta::DeltaBuffer;
pub use kind::AccessKind;
pub use merge::{HeadMerge, MergeOrder, MergedAccess};
pub use service::{LatencyModel, ServiceMetrics, SimulatedService};
pub use shared::{SharedOrderedRelation, SharedRTreeRelation, SharedScoreRelation};
pub use source::{
    merge_score_chunks, merge_score_sorted, score_order, RTreeRelation, RelationSet, SortedAccess,
    VecRelation,
};
pub use stats::{AccessStats, RelationStats};
pub use tuple::{Tuple, TupleId};
