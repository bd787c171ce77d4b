//! The response model: everything the engine can answer.

use crate::error::ApiError;
use crate::events::Notification;

/// One result combination: its aggregate score and the member tuples as
/// `(relation index, tuple index)` pairs, in join order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// Aggregate score `S(τ)`.
    pub score: f64,
    /// Member tuple identities, in join order.
    pub tuples: Vec<(usize, usize)>,
}

/// Engine statistics as reported to clients.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Total queries served (cold + cached).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that ran the operator.
    pub executed: u64,
    /// Live (non-dropped) relations in the catalog.
    pub relations: usize,
    /// Entries resident in the result cache.
    pub cache_entries: usize,
    /// Cache entries purged by mutation-driven invalidation.
    pub cache_invalidations: u64,
    /// Fleet-wide `sumDepths` (the paper's I/O metric).
    pub total_sum_depths: u64,
    /// Number of spatial shards every relation is partitioned into (1 =
    /// unsharded).
    pub shards: usize,
    /// Total sorted accesses performed by execution units, indexed by the
    /// unit's lane (empty until a query executes; every unit reports on
    /// lane 0).
    pub shard_depths: Vec<u64>,
    /// Per-shard total execution-unit wall time in microseconds, indexed by
    /// shard (parallel to `shard_depths`).
    pub shard_micros: Vec<u64>,
    /// Per-worker sorted accesses, one entry per worker in topology order,
    /// from each worker's [`Response::WorkerReport`] (clusters only; empty
    /// on single-node engines). Unlike `shard_depths`, which a coordinator
    /// measures around the round trip, these are measured where the units
    /// actually ran.
    pub worker_depths: Vec<u64>,
    /// Per-worker execution time in microseconds (parallel to
    /// `worker_depths`).
    pub worker_micros: Vec<u64>,
}

/// The kind of a [`MetricSample`] series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// A monotonically increasing count.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// One series of an exploded histogram (`*_bucket`, `*_sum`,
    /// `*_count`).
    Histogram,
}

impl MetricKind {
    /// Single-character wire code.
    pub fn code(self) -> char {
        match self {
            MetricKind::Counter => 'c',
            MetricKind::Gauge => 'g',
            MetricKind::Histogram => 'h',
        }
    }

    /// Parses a wire code.
    pub fn from_code(code: char) -> Option<MetricKind> {
        match code {
            'c' => Some(MetricKind::Counter),
            'g' => Some(MetricKind::Gauge),
            'h' => Some(MetricKind::Histogram),
            _ => None,
        }
    }
}

/// One metric series of a [`MetricsReport`]: a name,
/// sorted labels, and the current value. Histograms arrive pre-exploded
/// into their `_bucket`/`_sum`/`_count` series so the report is a flat
/// list.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric (series) name, e.g. `prj_query_latency_seconds_bucket`.
    pub name: String,
    /// Label pairs, e.g. `[("le", "+Inf")]`.
    pub labels: Vec<(String, String)>,
    /// Series kind.
    pub kind: MetricKind,
    /// Current value.
    pub value: f64,
}

/// Answer to [`crate::Request::Metrics`]: the responder's full
/// metrics snapshot. A coordinator's report also folds in every worker's
/// samples, distinguished by an `instance` label.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// All registered series.
    pub samples: Vec<MetricSample>,
}

/// One finished tracing span of a worker-side unit execution, shipped
/// inside a [`UnitOutcome`] so the coordinator can stitch it into the
/// query's trace (ids are worker-local and remapped on import).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (wire-safe identifier).
    pub name: String,
    /// Worker-local span id (nonzero).
    pub id: u64,
    /// Worker-local parent span id (0 = parented under the coordinator's
    /// unit span).
    pub parent: u64,
    /// Start time in the worker's clock, microseconds.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub duration_micros: u64,
}

/// One member tuple of a [`UnitRow`], with its full contents so the
/// coordinator can rehydrate the combination without re-reading its own
/// catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitMember {
    /// The tuple's relation registration index ([`prj_access::TupleId`]'s
    /// `relation`).
    pub relation: usize,
    /// The tuple's arrival rank within the relation.
    pub index: usize,
    /// The tuple's score `σ`.
    pub score: f64,
    /// The tuple's feature-vector coordinates.
    pub coords: Vec<f64>,
}

/// One combination of a cluster-internal unit result.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRow {
    /// Aggregate score `S(τ)`.
    pub score: f64,
    /// Member tuples, in join order, with full contents.
    pub members: Vec<UnitMember>,
}

/// One sample of a bound-convergence profile: the K-th
/// retained score vs. the upper bound `t` at a given access depth. The
/// wire twin of `prj-core`'s `TrajectoryPoint`; floats round-trip
/// bit-exactly (including `-inf` while fewer than K results are held).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Total sorted accesses when the sample was taken.
    pub depth: u64,
    /// The K-th best retained score (`-inf` while under-filled).
    pub kth_score: f64,
    /// The upper bound `t` on anything still unseen.
    pub bound: f64,
}

/// The outcome of one [`crate::Request::ExecuteUnit`]: the unit's certified
/// top-K plus the run's accounting. Floats round-trip bit-exactly, so a
/// distributed answer is indistinguishable from a local one.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome {
    /// The unit's top-K combinations, best first.
    pub rows: Vec<UnitRow>,
    /// The unit's final upper bound `t` when it stopped (−∞ on
    /// exhaustion).
    pub final_bound: f64,
    /// Per-relation sorted-access depths, in join order.
    pub depths: Vec<u64>,
    /// Number of `updateBound` evaluations.
    pub bound_updates: u64,
    /// Number of combinations scored: cross-product members the solo
    /// bound could not rule out of the top K.
    pub combinations_formed: u64,
    /// Active execution time in microseconds.
    pub micros: u64,
    /// `true` when the unit stopped on an access cap instead of the
    /// termination condition (the result is then uncertified).
    pub capped: bool,
    /// The worker's finished spans for this unit, for coordinator-side
    /// trace stitching (empty when the worker traces nothing or the peer
    /// predates tracing).
    pub spans: Vec<SpanRecord>,
    /// The unit's sampled bound-convergence profile (empty unless the
    /// request asked for convergence capture); recombined by the
    /// coordinator exactly like `spans`.
    pub trajectory: Vec<TrajectorySample>,
}

/// One relation's planner cost inputs inside an [`ExplainReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct RelationPlanStat {
    /// The relation's catalog name.
    pub name: String,
    /// Cardinality the planner saw.
    pub cardinality: u64,
    /// Score-skew estimate the planner saw.
    pub skew: f64,
    /// The skew-discounted cardinality used to pick the driving relation
    /// (`cardinality / (1 + max(skew, 0))`).
    pub discount: f64,
}

/// The execution unit's plan inside an [`ExplainReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct UnitPlanReport {
    /// Always 0: the unit reads every relation whole.
    pub shard: usize,
    /// Short id of the planned operator instantiation, e.g. `TBPA`.
    pub algorithm: String,
    /// Planned LP dominance-test period (`None` = disabled).
    pub dominance_period: Option<usize>,
    /// The planner's human-readable justification for this unit.
    pub rationale: String,
}

/// One executed unit's measurements inside an [`AnalyzeReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct UnitProfile {
    /// Always 0: the unit reads every relation whole.
    pub shard: usize,
    /// What the unit read: `fresh` (executed over fully indexed shards)
    /// or `delta-merged` (executed over base+delta views).
    pub cache: String,
    /// `true` when the unit ran on a remote worker.
    pub remote: bool,
    /// The unit's total sorted accesses.
    pub depths: u64,
    /// The unit's wall time in microseconds.
    pub micros: u64,
    /// The unit's sampled bound-convergence profile.
    pub trajectory: Vec<TrajectorySample>,
}

/// The execution half of an [`ExplainReport`], present only under
/// `analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeReport {
    /// The query's rows — bit-identical to what a plain
    /// [`crate::Request::TopK`] would return.
    pub rows: Vec<ResultRow>,
    /// End-to-end latency in microseconds.
    pub latency_micros: u64,
    /// Total sorted accesses — equals the sum of the [`UnitProfile::depths`]
    /// and the amount the engine's `sum_depths` stat advanced by.
    pub total_sum_depths: u64,
    /// The execution unit's measurements (one entry).
    pub units: Vec<UnitProfile>,
}

/// Answer to [`crate::Request::Explain`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// Short id of the operator instantiation, e.g. `TBPA`.
    pub algorithm: String,
    /// Index of the relation the planner's skew-discounted cost model
    /// would drive.
    pub drive: usize,
    /// The effective `K`.
    pub k: usize,
    /// The planner's overall justification.
    pub rationale: String,
    /// Planner cost inputs, one per joined relation, in join order.
    pub relations: Vec<RelationPlanStat>,
    /// The execution unit's plan (one entry).
    pub units: Vec<UnitPlanReport>,
    /// Execution measurements; `None` in plan-only mode.
    pub analyzed: Option<AnalyzeReport>,
}

/// One entry of a [`crate::Response::Traces`] listing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// The trace id (fetchable while retained).
    pub trace: u64,
    /// Retention class: `error`, `failover`, `slow`, or `ok`.
    pub class: String,
    /// Root span name.
    pub root: String,
    /// Root span duration in microseconds.
    pub duration_micros: u64,
    /// Number of spans in the retained trace.
    pub spans: usize,
}

/// One worker's connection-pool state inside a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    /// The worker's address (`host:port`).
    pub addr: String,
    /// `true` when the worker answered its last probe.
    pub reachable: bool,
    /// Idle pooled connections to this worker.
    pub idle_connections: usize,
}

/// Answer to [`crate::Request::Health`]: the instance's
/// readiness/liveness verdict plus the lag and backlog signals behind it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// `true` when the instance can serve queries right now (all workers
    /// of a coordinator reachable, catalog consistent).
    pub ready: bool,
    /// `true` when the serving process is making progress (background
    /// threads alive); a liveness-probe failure warrants a restart.
    pub live: bool,
    /// The instance's role: `engine`, `coordinator`, or `worker`.
    pub role: String,
    /// Worst-case replication ack lag of the last mutation, microseconds
    /// (0 on single-node engines).
    pub replication_lag_micros: u64,
    /// Tuples sitting in un-compacted delta buffers across all shards.
    pub delta_tuples: u64,
    /// Age of the oldest un-compacted delta, milliseconds (0 when all
    /// deltas are folded).
    pub oldest_delta_age_ms: u64,
    /// Pending mutations in the subscription notifier queue.
    pub sub_queue_depth: u64,
    /// Live standing-query subscriptions.
    pub subscriptions: u64,
    /// Traces currently retained by the tail-sampled trace store.
    pub traces_retained: u64,
    /// Per-worker connection-pool health (empty on non-coordinators).
    pub workers: Vec<WorkerHealth>,
}

/// A protocol response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A relation was registered.
    Registered {
        /// Its catalog id (stable for the catalog's lifetime).
        id: usize,
        /// The name it was registered under.
        name: String,
        /// Its initial epoch (0).
        epoch: u64,
        /// Number of tuples ingested.
        cardinality: usize,
    },
    /// Tuples were appended.
    Appended {
        /// The mutated relation.
        id: usize,
        /// Its new epoch (strictly greater than before the append).
        epoch: u64,
        /// Its new cardinality.
        cardinality: usize,
    },
    /// A relation was dropped.
    Dropped {
        /// The dropped relation.
        id: usize,
        /// Its new epoch.
        epoch: u64,
    },
    /// A completed top-k query.
    Results {
        /// The top-K combinations, best first.
        rows: Vec<ResultRow>,
        /// Whether the result was served from the epoch-keyed cache.
        from_cache: bool,
        /// Short id of the operator instantiation that (originally)
        /// produced the result, e.g. `TBPA`.
        algorithm: String,
    },
    /// One incrementally certified result of a [`crate::Request::Stream`].
    StreamItem(ResultRow),
    /// End of a result stream.
    StreamEnd {
        /// Number of items delivered before the end marker.
        count: usize,
    },
    /// Statistics snapshot.
    Stats(StatsReport),
    /// Answer to [`crate::Request::Hello`]: the version both sides will
    /// speak from here on.
    HelloAck {
        /// The negotiated protocol version.
        version: u32,
    },
    /// Answer to [`crate::Request::ExecuteUnit`].
    Unit(UnitOutcome),
    /// Answer to [`crate::Request::WorkerStats`].
    WorkerReport {
        /// Execution units served since boot.
        units: u64,
        /// Total sorted accesses performed by those units.
        depths: u64,
        /// Total execution microseconds of those units.
        micros: u64,
        /// Live relations in the worker's replicated catalog.
        relations: usize,
    },
    /// Answer to [`crate::Request::Metrics`].
    Metrics(MetricsReport),
    /// Answer to [`crate::Request::Subscribe`]: the standing
    /// query is registered and its initial certified top-K follows.
    Subscribed {
        /// The subscription id, unique within the serving process;
        /// every subsequent [`Response::Notify`] for this standing query
        /// carries it.
        id: u64,
        /// Short id of the pinned operator instantiation re-evaluations
        /// will replay, e.g. `TBPA`.
        algorithm: String,
        /// The initial certified top-K, best first — the baseline the
        /// first notification's events apply to.
        rows: Vec<ResultRow>,
    },
    /// Answer to [`crate::Request::Unsubscribe`].
    Unsubscribed {
        /// The cancelled subscription id.
        id: u64,
    },
    /// A pushed change notification for a standing query. Not
    /// the answer to any request: servers interleave notifications with
    /// responses on a subscribed connection, and clients demultiplex by
    /// form ([`crate::client::ApiClient`] buffers them automatically).
    Notify(Notification),
    /// Answer to [`crate::Request::Explain`].
    Explain(ExplainReport),
    /// Answer to [`crate::Request::FetchTrace`]: one retained
    /// trace with its full (cluster-stitched) span tree.
    Trace {
        /// The trace id.
        trace: u64,
        /// Retention class: `error`, `failover`, `slow`, or `ok`.
        class: String,
        /// Every span of the trace, oldest first.
        spans: Vec<SpanRecord>,
    },
    /// Answer to [`crate::Request::ListTraces`].
    Traces {
        /// Retained traces, oldest first.
        traces: Vec<TraceSummary>,
    },
    /// Answer to [`crate::Request::Health`].
    Health(HealthReport),
    /// The request failed.
    Error(ApiError),
}

impl Response {
    /// Folds the error variant into a `Result`, which is how clients
    /// usually want to consume a response.
    pub fn into_result(self) -> Result<Response, ApiError> {
        match self {
            Response::Error(e) => Err(e),
            other => Ok(other),
        }
    }
}
