//! # prj-engine — a concurrent query-serving subsystem over ProxRJ
//!
//! The other `prj-*` crates reproduce the *Proximity Rank Join* operator
//! (Martinenghi & Tagliasacchi, PVLDB 2010) as a single-shot library call:
//! build a [`prj_core::Problem`], run an [`prj_core::Algorithm`], get a
//! top-K. This crate adds the execution layer that turns that operator into
//! a multi-query serving engine.
//!
//! **The entry point is [`Session`]**: it speaks the versioned `prj-api`
//! request/response protocol ([`prj_api::Request`] in,
//! [`prj_api::Response`] out), owns the client-facing defaults (scoring,
//! `k`, access kind), and routes to the layers below:
//!
//! * [`catalog`] — *mutable, sharded* relations behind per-shard epoch
//!   counters: registration partitions each relation under the catalog's
//!   [`sharding::ShardingPolicy`] (hash-by-grid-cell; 1 shard = unsharded)
//!   and builds every shard's R-tree and [`prj_access::RelationStats`]
//!   once, shared behind [`std::sync::Arc`]s (a shard's chunked score
//!   lane is built from its tree on the first score-sorted read); appends
//!   extend only the touched shards copy-on-write (a publish that copies
//!   only the tree chunks it writes and, with a built lane, the score-lane
//!   chunks it lands in) and bump their epochs; drops retire the id
//!   forever.
//! * [`registry`] — the open set of scoring functions: families are
//!   registered at runtime as factories producing
//!   [`prj_core::ScoringSpec`] trait objects, whose cache fingerprint is
//!   part of the trait — so anything servable is cache-safe by
//!   construction.
//! * [`planner`] — once per query, picks one of the paper's four
//!   instantiations from the number of joined relations and whether the
//!   scoring admits the Euclidean reduction: CBPA at n ≤ 2 or without the
//!   reduction, TBPA at n ≥ 3, never the LP dominance test. The query's
//!   execution unit runs that plan; a pinned algorithm overrides it.
//! * [`engine`] — the execution façade: a gate of run permits
//!   ([`executor`]), batched and streaming queries
//!   ([`Engine::stream`] exposes the paper's incremental pulling model
//!   with backpressure), one operator per query over the shards' merged
//!   views (shard count is unobservable through results and cost
//!   counters) — run in process or, on a cluster coordinator, sent whole to
//!   one worker — and epoch-consistent cache keying.
//! * [`cache`] — an LRU result cache keyed by (relations *with their
//!   per-shard epoch vectors*, query point bits, `k`, scoring fingerprint,
//!   algorithm): a mutation changes the key, so a stale memoised result
//!   can never be served, and
//!   [`cache::ResultCache::invalidate_relation`] reclaims the orphaned
//!   entries eagerly.
//! * [`server`] — a minimal line-delimited TCP front-end forwarding wire
//!   requests to any [`server::RequestHandler`] — a shared [`Session`], or
//!   `prj-cluster`'s coordinator/worker handlers (the `prj-serve` binary
//!   lives there and serves all three roles).
//! * [`stats`] — engine-wide aggregation of the operator's metrics.
//! * [`obs`] — observability: per-query span traces (recorded into a
//!   bounded ring indexed by trace, stitched across processes for
//!   distributed queries)
//!   and the metric series behind the `prj/2` `metrics` verb and the
//!   `--metrics-addr` Prometheus-style exposition.
//!
//! ## Example
//!
//! ```
//! use prj_engine::{EngineBuilder, Session};
//! use prj_api::{QueryRequest, Request, Response, TupleData};
//! use std::sync::Arc;
//!
//! // A session over a fresh engine; relations arrive through the API.
//! let engine = Arc::new(EngineBuilder::default().threads(2).build());
//! let session = Session::new(engine);
//! for (name, rows) in [
//!     ("R1", vec![([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
//!     ("R2", vec![([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
//!     ("R3", vec![([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
//! ] {
//!     session.handle(Request::RegisterRelation {
//!         name: name.to_string(),
//!         tuples: rows.into_iter().map(|(x, s)| TupleData::new(x.to_vec(), s)).collect(),
//!     });
//! }
//!
//! // The paper's Example 3.1, served by relation name.
//! let request = Request::TopK(
//!     QueryRequest::new(vec!["R1".into(), "R2".into(), "R3".into()], [0.0, 0.0]).k(1),
//! );
//! match session.handle(request) {
//!     Response::Results { rows, .. } => {
//!         assert!((rows[0].score - (-7.0)).abs() < 0.05);
//!     }
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! ```
//!
//! The lower-level [`Engine`] API ([`QuerySpec`], [`QueryTicket`],
//! [`ResultStream`]) remains available for embedders that want to skip the
//! protocol layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod compactor;
pub mod engine;
pub mod executor;
pub mod obs;
pub mod planner;
pub mod registry;
pub mod server;
pub mod session;
pub mod sharding;
pub mod stats;

pub use cache::{CacheKey, CacheMetrics, CachedExecution, ResultCache};
pub use catalog::{
    Catalog, CatalogError, CatalogRelation, MutationOutcome, RelationId, RelationShard,
};
pub use compactor::Compactor;
pub use engine::{
    AnalyzeData, Engine, EngineBuilder, EngineError, EngineResult, ExplainData, InProcessBackend,
    MutationEvent, MutationKind, MutationObserver, QuerySpec, QueryTicket, RelationPlanData,
    RemoteUnitBackend, RemoteUnitCall, ResultStream, UnitPlanData, UnitProfileData,
};
pub use executor::Executor;
pub use obs::{EngineObs, QueryTrace};
pub use planner::{Plan, Planner};
pub use registry::{ScoringFactory, ScoringRegistry};
pub use server::{RequestHandler, Server};
pub use session::{to_row, Dispatch, Session, SessionBuilder, SessionStream};
pub use sharding::ShardingPolicy;
pub use stats::{EngineStats, EngineStatsSnapshot, QueryRecord, ShardLane, UnitRecord};
