//! # prj-api — the versioned request/response protocol of the ProxRJ engine
//!
//! The serving layer (`prj-engine`) executes proximity rank joins; this
//! crate defines the *boundary* clients talk to it through. The boundary is
//! deliberately transport-agnostic: [`Request`] and [`Response`] are plain
//! data, usable in-process (hand a `Request` to a `prj-engine` `Session`)
//! or over any byte transport via the [`wire`] codec — a line-delimited,
//! versioned text format served by the `prj-serve` TCP front-end and
//! consumed by [`client::ApiClient`].
//!
//! ## The request model
//!
//! | Request | Effect |
//! |---|---|
//! | [`Request::RegisterRelation`] | create a relation, build its shared indexes |
//! | [`Request::AppendTuples`] | append tuples to a relation (bumps its epoch) |
//! | [`Request::DropRelation`] | drop a relation (bumps its epoch) |
//! | [`Request::TopK`] | run one top-k query to completion |
//! | [`Request::Stream`] | run one top-k query, results delivered incrementally |
//! | [`Request::Stats`] | engine statistics snapshot |
//! | [`Request::Hello`] | negotiate the protocol version |
//! | [`Request::ExecuteUnit`] | cluster-internal: run one driving-shard unit |
//! | [`Request::ShardAssignment`] | cluster-internal: install a worker's shard set |
//! | [`Request::WorkerStats`] | cluster-internal: worker work counters |
//! | [`Request::Metrics`] | metrics snapshot: counters/gauges/histograms |
//! | [`Request::Subscribe`] | register a standing top-k query, pushed change events |
//! | [`Request::Unsubscribe`] | cancel a standing query |
//!
//! Peers may also attach a [`TraceContext`] to queries and
//! execution units, so spans recorded on both sides of a distributed
//! query stitch into one trace; workers ship their finished spans back
//! inside [`UnitOutcome`].
//!
//! Standing queries are the one *push* path: after a
//! [`Response::Subscribed`] ack the server interleaves
//! [`Response::Notify`] lines — each a [`Notification`] of ordered
//! [`ChangeEvent`]s diffing the previous certified top-K against the new
//! one (see [`events`]) — with ordinary responses on the same connection.
//!
//! Queries reference relations by id or by name ([`RelationRef`]) and pick
//! their scoring function by registry name plus parameters
//! ([`ScoringSelector`]); the set of scoring names is extensible at runtime
//! on the engine side. Mutations return the relation's new *epoch* — the
//! counter the engine's result cache is keyed by, which is what makes a
//! stale cached top-k unservable after an append or drop.
//!
//! ## Versioning and negotiation
//!
//! Every wire line is prefixed with `prj/2` ([`PROTOCOL_VERSION`]), the
//! only dialect this build speaks. A line with any other `prj/N` prefix
//! gets a typed [`ErrorKind::Version`] answer, never a dropped connection,
//! so an incompatible peer fails loudly at its first exchange. A client
//! may confirm the dialect up front with one [`Request::Hello`] exchange
//! ([`client::ApiClient::negotiate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod events;
pub mod request;
pub mod response;
pub mod wire;

pub use client::{ApiClient, ClientConfig};
pub use error::{ApiError, ErrorKind};
pub use events::{apply_events, diff_top_k, ChangeEvent, Notification};
pub use request::{
    QueryRequest, RelationRef, Request, ScoringSelector, TraceContext, TupleData, UnitRequest,
};
pub use response::{
    AnalyzeReport, ExplainReport, HealthReport, MetricKind, MetricSample, MetricsReport,
    RelationPlanStat, Response, ResultRow, SpanRecord, StatsReport, TraceSummary, UnitMember,
    UnitOutcome, UnitPlanReport, UnitProfile, UnitRow, WorkerHealth,
};

/// The protocol version spoken by this build; the `2` of the `prj/2` wire
/// prefix. Bump on any incompatible change to the request or response
/// grammar.
pub const PROTOCOL_VERSION: u32 = 2;
