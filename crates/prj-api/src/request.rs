//! The request model: everything a client can ask the engine to do.

use prj_access::AccessKind;
use prj_core::Algorithm;

/// One tuple as supplied by a client: a location plus a score. The engine
/// assigns [`prj_access::TupleId`]s (relation index + arrival rank) on
/// ingestion, so clients never manufacture ids.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleData {
    /// Feature-vector coordinates.
    pub coords: Vec<f64>,
    /// Score `σ` (strictly positive for the paper's Eq. 2 scoring).
    pub score: f64,
}

impl TupleData {
    /// Creates a tuple payload.
    pub fn new(coords: impl Into<Vec<f64>>, score: f64) -> TupleData {
        TupleData {
            coords: coords.into(),
            score,
        }
    }
}

/// A reference to a catalog relation, by registration id or by name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelationRef {
    /// The id returned by [`crate::Response::Registered`].
    Id(usize),
    /// The name the relation was registered under.
    Name(String),
}

impl From<usize> for RelationRef {
    fn from(id: usize) -> Self {
        RelationRef::Id(id)
    }
}

impl From<&str> for RelationRef {
    fn from(name: &str) -> Self {
        RelationRef::Name(name.to_string())
    }
}

impl std::fmt::Display for RelationRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelationRef::Id(id) => write!(f, "#{id}"),
            RelationRef::Name(name) => f.write_str(name),
        }
    }
}

/// Picks a scoring function out of the engine's runtime registry: a family
/// name (e.g. `"euclidean-log"`) plus the family's parameters (for the
/// built-ins, the `(w_s, w_q, w_μ)` weights; empty = the family default).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringSelector {
    /// Registry name of the scoring family.
    pub name: String,
    /// Parameters handed to the family's factory.
    pub params: Vec<f64>,
}

impl ScoringSelector {
    /// Selects `name` with its default parameters.
    pub fn named(name: impl Into<String>) -> ScoringSelector {
        ScoringSelector {
            name: name.into(),
            params: Vec::new(),
        }
    }

    /// Selects `name` with explicit parameters.
    pub fn with_params(name: impl Into<String>, params: impl Into<Vec<f64>>) -> ScoringSelector {
        ScoringSelector {
            name: name.into(),
            params: params.into(),
        }
    }
}

/// Distributed-tracing context riding on a query or execution unit:
/// the trace every span of the request should join, plus
/// the sender-side span to parent under. Raw `u64`s on the wire — the
/// protocol does not depend on any particular tracing implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace id (nonzero).
    pub trace: u64,
    /// The sender-side parent span id (0 = no parent; spans become trace
    /// roots).
    pub parent: u64,
}

/// One top-k query. Optional fields fall back to the serving session's
/// defaults, so a minimal request is just relations + query point.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The relations to join, in join order.
    pub relations: Vec<RelationRef>,
    /// The query point `q`.
    pub query: Vec<f64>,
    /// Number of requested results `K` (session default when `None`).
    pub k: Option<usize>,
    /// Scoring function (session default when `None`).
    pub scoring: Option<ScoringSelector>,
    /// Sorted-access kind (session default when `None`).
    pub access: Option<AccessKind>,
    /// Pin an operator instantiation (planner's choice when `None`).
    pub algorithm: Option<Algorithm>,
    /// Join an existing trace instead of starting a fresh one.
    pub trace: Option<TraceContext>,
}

impl QueryRequest {
    /// A query over `relations` at point `query` with session defaults for
    /// everything else.
    pub fn new(relations: Vec<RelationRef>, query: impl Into<Vec<f64>>) -> QueryRequest {
        QueryRequest {
            relations,
            query: query.into(),
            k: None,
            scoring: None,
            access: None,
            algorithm: None,
            trace: None,
        }
    }

    /// Sets `K`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Sets the scoring selector.
    pub fn scoring(mut self, scoring: ScoringSelector) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// Sets the sorted-access kind.
    pub fn access(mut self, access: AccessKind) -> Self {
        self.access = Some(access);
        self
    }

    /// Pins the algorithm.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Joins an existing trace.
    pub fn traced(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// One cluster-internal execution unit: shard `shard` of the driving
/// relation joined against whole-relation views of the others, with the
/// coordinator's plan pinned.
///
/// The coordinator snapshots its catalog, plans each unit, and ships this
/// description to the worker owning the shard; the worker replays the unit
/// against its replicated catalog and returns a [`crate::UnitOutcome`].
/// The per-relation `epochs` are the coordinator snapshot's epoch vectors:
/// a worker whose replica disagrees answers
/// [`crate::ErrorKind::StaleEpoch`] instead of computing an answer over
/// different data, which is what keeps distributed results bit-identical
/// to local ones.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitRequest {
    /// The relations to join, in join order (ids: replicated catalogs
    /// assign the same registration indices as the coordinator).
    pub relations: Vec<RelationRef>,
    /// Per-relation epoch vectors of the coordinator snapshot, in join
    /// order.
    pub epochs: Vec<Vec<u64>>,
    /// Index (into `relations`) of the driving relation the combination
    /// space is partitioned by.
    pub drive: usize,
    /// The driving-relation shard this unit covers.
    pub shard: usize,
    /// The query point `q`.
    pub query: Vec<f64>,
    /// Number of requested results `K` (the *global* K; every unit runs
    /// with it).
    pub k: usize,
    /// Scoring function, resolved by the worker's registry.
    pub scoring: ScoringSelector,
    /// Sorted-access kind.
    pub access: AccessKind,
    /// The operator instantiation the coordinator planned for this unit.
    pub algorithm: Algorithm,
    /// LP dominance-test period the coordinator planned (`None` =
    /// disabled).
    pub dominance_period: Option<usize>,
    /// Sample the bound-convergence trajectory every this-many sorted
    /// accesses (0 = off, the default); set by the coordinator when the
    /// unit runs under an `EXPLAIN ANALYZE`.
    pub convergence: usize,
    /// The coordinator's trace context, so the worker's execution spans
    /// stitch into the query's trace.
    pub trace: Option<TraceContext>,
}

/// A protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Creates a relation and builds its shared access structures.
    RegisterRelation {
        /// Catalog name (wire-safe identifier: `[A-Za-z0-9_.-]+`).
        name: String,
        /// Initial contents (may be empty).
        tuples: Vec<TupleData>,
    },
    /// Appends tuples to an existing relation, bumping its epoch.
    AppendTuples {
        /// The relation to mutate.
        relation: RelationRef,
        /// Tuples to append.
        tuples: Vec<TupleData>,
    },
    /// Drops a relation, bumping its epoch; subsequent queries referencing
    /// it fail with [`crate::ErrorKind::RelationDropped`].
    DropRelation {
        /// The relation to drop.
        relation: RelationRef,
    },
    /// One top-k query, run to completion.
    TopK(QueryRequest),
    /// One top-k query with incremental result delivery (the paper's
    /// pulling model): the engine answers with a sequence of
    /// [`crate::Response::StreamItem`]s closed by a
    /// [`crate::Response::StreamEnd`].
    Stream(QueryRequest),
    /// Engine statistics snapshot.
    Stats,
    /// Protocol negotiation: the sender's highest supported version. The
    /// peer answers [`crate::Response::HelloAck`] with the version both
    /// sides will speak (`min` of the two ceilings), or with a typed
    /// version error when the sender's ceiling is below `prj/2`.
    Hello {
        /// Highest protocol version the sender supports.
        max_version: u32,
    },
    /// Cluster-internal: execute one driving-shard unit against
    /// the worker's replicated catalog.
    ExecuteUnit(UnitRequest),
    /// Cluster-internal: install the set of driving shards this
    /// worker owns under a topology generation, so its work counters and
    /// diagnostics can name them.
    ShardAssignment {
        /// Topology generation the assignment belongs to.
        generation: u64,
        /// The driving shards assigned to this worker.
        shards: Vec<usize>,
    },
    /// Cluster-internal: the worker's work counters.
    WorkerStats,
    /// Metrics snapshot: every registered counter, gauge, and
    /// histogram series — the same data the `--metrics-addr` exposition
    /// endpoint renders as Prometheus text.
    Metrics,
    /// Registers a standing query: the server runs the query once,
    /// answers [`crate::Response::Subscribed`] with a subscription id plus
    /// the initial certified top-K, and thereafter pushes
    /// [`crate::Response::Notify`] change events on the same connection
    /// whenever a catalog mutation changes the subscription's certified
    /// answer. The planned algorithm is pinned at subscribe time so
    /// re-evaluations hit the per-shard unit cache.
    Subscribe(QueryRequest),
    /// Cancels a standing query. Acknowledged with
    /// [`crate::Response::Unsubscribed`]; no notification bearing the id is
    /// emitted after the ack is sent.
    Unsubscribe {
        /// The subscription id returned by [`crate::Response::Subscribed`].
        id: u64,
    },
    /// Query diagnostics: answers
    /// [`crate::Response::Explain`] with the plan the engine would run —
    /// chosen algorithm, driving relation, per-shard unit plans and the
    /// planner's cost inputs. With `analyze` the query is additionally
    /// *executed* (bypassing the result cache, with bound-convergence
    /// capture enabled) and the report gains per-unit depth, latency,
    /// cache status and sampled convergence trajectories; the returned
    /// rows are bit-identical to a plain [`Request::TopK`].
    Explain {
        /// The query to diagnose.
        query: QueryRequest,
        /// `false` = plan only; `true` = plan + instrumented execution.
        analyze: bool,
    },
    /// Fetches one retained trace from the tail-sampled trace store.
    /// On a coordinator the spans are already cluster-stitched.
    FetchTrace {
        /// The trace id (as reported in listings, notify lines, or slow
        /// query logs).
        trace: u64,
    },
    /// Lists the retained traces, oldest first.
    ListTraces,
    /// Typed health snapshot: readiness/liveness plus the lag
    /// and backlog signals behind them — replication ack lag, compactor
    /// delta backlog and age, subscription notifier queue depth, worker
    /// connection-pool state. The same data `prj-serve --health-addr`
    /// serves over HTTP.
    Health,
}
