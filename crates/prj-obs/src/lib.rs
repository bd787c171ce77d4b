//! # prj-obs — observability substrate for the ProxRJ engine
//!
//! Dependency-free (std only, same offline discipline as `crates/shims/`)
//! building blocks the serving layers instrument themselves with:
//!
//! * [`trace`] — structured spans: a [`TraceId`] shared by every span of
//!   one query (across processes), [`Span`]s with monotonic timing and
//!   parent/child linkage, recorded into a bounded ring of recent spans
//!   indexed by trace ([`Recorder`]). Worker-side spans shipped over the
//!   wire are re-parented into the coordinator's recorder by
//!   [`Recorder::import`], producing one stitched trace per distributed
//!   query.
//! * [`metrics`] — a [`MetricsRegistry`] of atomic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket log-scale [`Histogram`]s (p50/p90/p99
//!   extraction), snapshotted into flat [`Sample`]s.
//! * [`expose`] — Prometheus-style text rendering of samples
//!   ([`render_prometheus`]) and a minimal HTTP listener serving it
//!   ([`MetricsServer`], the `--metrics-addr` endpoint of `prj-serve`).
//! * [`store`] — tail-sampled trace retention ([`TraceStore`]): the
//!   retention decision is made after a query finishes, so error, failover
//!   and slow traces are always kept while ordinary traffic is
//!   deterministically down-sampled; backs the `FetchTrace`/`ListTraces`
//!   verbs.
//!
//! Cost on a query path: metric updates are single atomic RMWs; span
//! begin is an atomic id allocation plus an `Instant` read; span finish
//! takes the recorder's one mutex for a constant-time push and eviction,
//! never a scan of the ring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod expose;
pub mod metrics;
pub mod store;
pub mod trace;

pub use expose::{render_prometheus, MetricsServer, RenderFn};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, Sample, SampleKind};
pub use store::{RetentionPolicy, StoredTrace, TraceClass, TraceStore};
pub use trace::{now_micros, Recorder, RemoteSpan, Span, SpanGuard, SpanId, TraceId};
