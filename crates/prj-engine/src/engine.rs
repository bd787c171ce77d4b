//! The engine façade: the piece that turns the ProxRJ library into a
//! multi-query serving system.
//!
//! A query's life: [`Engine::submit`] snapshots the catalog relations (Arc
//! clones stamped with their per-shard epoch vectors), derives the cache
//! key from that same snapshot and returns a memoised result immediately on
//! a hit; on a miss it plans the query once from whole-relation statistics
//! and builds **one** execution unit — a [`prj_core::Problem`] over the
//! catalog's shard-merged views, O(1) to build — which runs once it holds
//! one of the [`Executor`]'s run permits. Shards are the unit of storage,
//! publish cost and cluster placement, not of in-process execution: the
//! merged views are one globally sorted stream per relation, so a query
//! reads exactly what it would read unsharded and the shard count is
//! unobservable through results *and* cost counters. Only a cluster
//! coordinator (a [`RemoteUnitBackend`] that routes driving shards to
//! worker processes) splits a query into one unit per driving shard and
//! recombines their certified top-Ks through [`prj_core::merge_shared`].
//! The caller gets a [`QueryTicket`] to wait on; [`Engine::stream`]
//! instead returns a [`ResultStream`] whose
//! [`next_result`](ResultStream::next_result) pulls certified results one
//! at a time out of an incremental [`prj_core::StreamingRun`], mirroring
//! the paper's pulling model end to end.
//!
//! Scoring is an *open set*: a [`QuerySpec`] carries an
//! `Arc<dyn ScoringSpec>` and the engine exposes a
//! [`ScoringRegistry`] that resolves
//! wire-level `(name, params)` selectors — including families registered at
//! runtime by embedding code. Mutations ([`Engine::append_rows`],
//! [`Engine::drop_relation`]) bump the target relation's epoch, which the
//! cache key incorporates, so a stale memoised result can never be served.
//!
//! Most callers should not drive `Engine` directly but go through
//! [`crate::session::Session`], which speaks the versioned `prj-api`
//! request/response protocol.

use crate::cache::{CacheKey, CacheMetrics, CachedExecution, ResultCache, UnitCache, UnitKey};
use crate::catalog::{Catalog, CatalogError, CatalogRelation, MutationOutcome, RelationId};
use crate::compactor::Compactor;
use crate::executor::Executor;
use crate::obs::{EngineObs, QueryTrace};
use crate::planner::{Plan, Planner};
use crate::registry::ScoringRegistry;
use crate::sharding::ShardingPolicy;
use crate::stats::{EngineStats, EngineStatsSnapshot, QueryRecord, UnitRecord};
use prj_access::{AccessKind, RelationStats};
use prj_api::ScoringSelector;
use prj_core::{
    merge_shared, Algorithm, EuclideanLogScore, PrjError, Problem, ProblemBuilder, RankJoinResult,
    ScoredCombination, ScoringSpec, StreamingRun, TrajectoryPoint,
};
use prj_geometry::Vector;
use prj_obs::{Recorder, Sample, SpanGuard, SpanId, TraceClass, TraceId};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Capacity of a stream's in-flight buffer: the producer runs at most this
/// many certified results ahead of the consumer (backpressure mirroring the
/// incremental pulling model).
const STREAM_BUFFER: usize = 8;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The underlying operator rejected the query.
    Prj(PrjError),
    /// The worker executing the query disappeared (it panicked).
    WorkerLost,
    /// A referenced relation is unknown, dropped, or the mutation was
    /// rejected by the catalog.
    Catalog(CatalogError),
    /// The requested scoring name is not in the registry.
    UnknownScoring(String),
    /// The scoring factory rejected the parameters.
    InvalidScoringParams {
        /// The scoring family.
        name: String,
        /// The factory's rejection message.
        reason: String,
    },
    /// A remote worker needed for an execution unit is unreachable and no
    /// replica could take over.
    WorkerUnavailable {
        /// The driving shard whose unit could not be executed.
        shard: usize,
        /// What went wrong on the last attempt.
        detail: String,
    },
    /// The cluster is in a degraded state: the request could not be
    /// completed exactly, and a partial answer would be a lie.
    Degraded(String),
    /// A worker replica's catalog epochs disagree with the coordinator
    /// snapshot that planned the unit; re-snapshot and retry.
    StaleReplica(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Prj(e) => write!(f, "operator error: {e}"),
            EngineError::WorkerLost => write!(f, "engine worker disappeared"),
            EngineError::Catalog(e) => write!(f, "catalog error: {e}"),
            EngineError::UnknownScoring(name) => {
                write!(f, "no scoring family registered as {name:?}")
            }
            EngineError::InvalidScoringParams { name, reason } => {
                write!(f, "invalid parameters for scoring {name:?}: {reason}")
            }
            EngineError::WorkerUnavailable { shard, detail } => {
                write!(f, "no worker available for driving shard {shard}: {detail}")
            }
            EngineError::Degraded(detail) => write!(f, "cluster degraded: {detail}"),
            EngineError::StaleReplica(detail) => write!(f, "stale replica: {detail}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PrjError> for EngineError {
    fn from(e: PrjError) -> Self {
        EngineError::Prj(e)
    }
}

impl From<CatalogError> for EngineError {
    fn from(e: CatalogError) -> Self {
        EngineError::Catalog(e)
    }
}

/// One top-k request against registered relations.
///
/// The scoring function is a shared [`ScoringSpec`] trait object, so specs
/// are not generic over the scoring family and any runtime-registered
/// family can be queried through the same engine.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The relations to join, in join order.
    pub relations: Vec<RelationId>,
    /// The query point `q`.
    pub query: Vector,
    /// Number of requested results `K`.
    pub k: usize,
    /// The aggregation function.
    pub scoring: Arc<dyn ScoringSpec>,
    /// The wire-expressible `(name, params)` identity of `scoring`, when
    /// known — what a remote backend ships to workers so their registries
    /// resolve the *same* function. `None` for ad-hoc scorings injected via
    /// [`QuerySpec::with_scoring`]; such queries execute locally only.
    pub selector: Option<ScoringSelector>,
    /// Sorted-access kind (Definition 2.1).
    pub access_kind: AccessKind,
    /// Pin a specific algorithm, or let the planner choose (`None`).
    pub algorithm: Option<Algorithm>,
    /// Sample the operator's bound-convergence trajectory every this-many
    /// sorted accesses (0 = off, the zero-cost default). Set by
    /// `EXPLAIN ANALYZE`; never part of the cache key (analyze bypasses
    /// the caches entirely).
    pub convergence: usize,
    /// The trace this query joins, when an upstream caller already opened
    /// one; `None` lets the engine generate a fresh trace id (if its
    /// recorder is enabled). Never part of the cache key.
    pub trace: Option<QueryTrace>,
}

impl QuerySpec {
    /// A distance-access top-k query under the paper's default scoring
    /// (Eq. 2 with unit weights).
    pub fn top_k(relations: Vec<RelationId>, query: Vector, k: usize) -> Self {
        QuerySpec {
            relations,
            query,
            k,
            scoring: Arc::new(EuclideanLogScore::default()),
            // The default scoring is the registry's "euclidean-log" with
            // default weights, so it stays remotely executable.
            selector: Some(ScoringSelector::named("euclidean-log")),
            access_kind: AccessKind::Distance,
            algorithm: None,
            convergence: 0,
            trace: None,
        }
    }

    /// Joins an already-open trace: the query's root span becomes a child
    /// of `trace.parent` (a coordinator's dispatch span, say) instead of a
    /// trace root.
    pub fn with_trace(mut self, trace: QueryTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Pins the operator instantiation instead of consulting the planner.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Selects the sorted-access kind.
    pub fn with_access_kind(mut self, kind: AccessKind) -> Self {
        self.access_kind = kind;
        self
    }

    /// Replaces the scoring function with an ad-hoc instance. The spec
    /// loses its wire selector: the instance may not exist in any remote
    /// registry, so such queries are executed locally.
    pub fn with_scoring(mut self, scoring: impl ScoringSpec + 'static) -> Self {
        self.scoring = Arc::new(scoring);
        self.selector = None;
        self
    }

    /// Replaces the scoring function with an already-shared instance (e.g.
    /// one resolved from the [`ScoringRegistry`]). Clears the wire selector
    /// — use [`QuerySpec::with_selector`] to restore one.
    pub fn with_shared_scoring(mut self, scoring: Arc<dyn ScoringSpec>) -> Self {
        self.scoring = scoring;
        self.selector = None;
        self
    }

    /// Declares the wire-expressible registry identity of the current
    /// scoring, re-enabling remote execution for it. The caller must
    /// guarantee the selector resolves to an *identical* function on every
    /// worker's registry.
    pub fn with_selector(mut self, selector: ScoringSelector) -> Self {
        self.selector = Some(selector);
        self
    }
}

/// The outcome of one engine query.
#[derive(Debug, Clone)]
pub struct EngineResult {
    execution: Arc<CachedExecution>,
    /// Whether the result was served from the cache.
    pub from_cache: bool,
    /// End-to-end latency observed by the engine.
    pub latency: Duration,
    /// How many execution units actually ran for this query: 0 on a cache
    /// hit, 1 on an in-process miss. On a cluster coordinator's
    /// partitioned miss, unit-cache hits are excluded — this is what lets
    /// a standing query assert that a single-shard append re-executed
    /// exactly one remote unit.
    pub fresh_units: usize,
}

impl EngineResult {
    /// The top-K combinations, best first.
    pub fn combinations(&self) -> &[ScoredCombination] {
        &self.execution.result.combinations
    }

    /// The full operator result (depths, metrics).
    pub fn result(&self) -> &RankJoinResult {
        &self.execution.result
    }

    /// The plan the result was produced with.
    pub fn plan(&self) -> &Plan {
        &self.execution.plan
    }
}

/// A handle to an in-flight query.
#[derive(Debug)]
pub struct QueryTicket {
    receiver: Receiver<Result<EngineResult, EngineError>>,
}

impl QueryTicket {
    /// Blocks until the result is available.
    pub fn wait(self) -> Result<EngineResult, EngineError> {
        self.receiver.recv().unwrap_or(Err(EngineError::WorkerLost))
    }
}

enum StreamInner {
    /// Replaying a cached execution.
    Replay {
        execution: Arc<CachedExecution>,
        cursor: usize,
    },
    /// Receiving from a live incremental run on a worker thread. The
    /// producer sends `Err` if it panics, so a failed run is
    /// distinguishable from a completed one.
    Live(Receiver<Result<ScoredCombination, EngineError>>),
}

/// A streaming query: results are pulled one at a time, each produced with
/// only as many sorted accesses as its certification required.
pub struct ResultStream {
    inner: StreamInner,
    /// The plan the stream runs under.
    pub plan: Plan,
    /// Whether the stream replays a cached execution.
    pub from_cache: bool,
    error: Option<EngineError>,
}

impl ResultStream {
    /// The next certified result, best first; `None` once the top-K is
    /// exhausted. On a live stream this blocks while the worker performs the
    /// accesses the next result needs.
    ///
    /// `None` means either clean completion or a failed run — check
    /// [`ResultStream::error`] to tell them apart before treating the
    /// drained rows as the full top-K.
    pub fn next_result(&mut self) -> Option<ScoredCombination> {
        match &mut self.inner {
            StreamInner::Replay { execution, cursor } => {
                let combo = execution.result.combinations.get(*cursor).cloned();
                *cursor += combo.is_some() as usize;
                combo
            }
            StreamInner::Live(receiver) => match receiver.recv() {
                Ok(Ok(combo)) => Some(combo),
                Ok(Err(e)) => {
                    self.error = Some(e);
                    None
                }
                Err(_) => None,
            },
        }
    }

    /// The error that terminated the stream, if the producer failed instead
    /// of completing.
    pub fn error(&self) -> Option<&EngineError> {
        self.error.as_ref()
    }
}

/// Everything a [`RemoteUnitBackend`] needs to ship one execution unit to
/// a worker process: the coordinator snapshot's identity (relation ids +
/// epoch vectors), the query, and the *pinned* per-unit plan — the worker
/// replays exactly this plan, so distributed execution is bit-identical to
/// local execution by construction.
#[derive(Debug, Clone)]
pub struct RemoteUnitCall {
    /// The relations to join, in join order (registration ids; replicated
    /// catalogs assign the same ids as the coordinator).
    pub relations: Vec<RelationId>,
    /// Per-relation epoch vectors of the snapshot this unit was planned
    /// from; the worker must refuse to execute at any other epochs.
    pub epochs: Vec<Vec<u64>>,
    /// Index (into `relations`) of the driving relation.
    pub drive: usize,
    /// The driving-relation shard this unit covers.
    pub shard: usize,
    /// The query point.
    pub query: Vector,
    /// The global `K`.
    pub k: usize,
    /// The scoring's registry identity.
    pub selector: ScoringSelector,
    /// Sorted-access kind.
    pub access_kind: AccessKind,
    /// The planned operator instantiation.
    pub algorithm: Algorithm,
    /// The planned LP dominance-test period.
    pub dominance_period: Option<usize>,
    /// Bound-convergence sampling stride (0 = off); the worker replays it
    /// so `EXPLAIN ANALYZE` profiles cover remote units too.
    pub convergence: usize,
    /// The trace to execute under and the coordinator-side `unit` span the
    /// worker's spans should stitch beneath; `None` when tracing is off.
    pub trace: Option<(TraceId, SpanId)>,
}

/// What kind of catalog mutation a [`MutationObserver`] is told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Tuples were appended to the relation.
    Append,
    /// The relation was dropped.
    Drop,
}

/// One committed catalog mutation, as seen by a [`MutationObserver`].
#[derive(Debug, Clone)]
pub struct MutationEvent {
    /// Append or drop.
    pub kind: MutationKind,
    /// The catalog's report: relation id, new epoch, cardinality, and the
    /// shards the mutation touched — exactly what subscription
    /// invalidation keys on.
    pub outcome: MutationOutcome,
    /// The location and score of every appended tuple, in append order;
    /// empty for a drop. A standing query bounds what these tuples can
    /// score against its delivered top-K to skip re-runs they cannot
    /// change.
    pub rows: Arc<[(Vector, f64)]>,
    /// The trace and `mutation` span the mutation was recorded under, when
    /// the engine's recorder is live. Downstream work triggered by this
    /// mutation (a subscription's `notify` span) parents here, so a feed
    /// update is attributable to the ingest that caused it.
    pub trace: Option<(TraceId, SpanId)>,
}

/// A hook observing every committed catalog mutation, registered with
/// [`Engine::add_mutation_observer`].
///
/// Observers fire *after* the mutation is visible (catalog slot published,
/// result- and unit-cache entries invalidated), on the mutating thread —
/// a re-query issued from inside the callback sees the new data. Keep the
/// callback cheap (hand off to a channel); it runs under no engine lock
/// but it does extend every mutation's latency. Concurrent mutations may
/// reach an observer out of commit order, so an observer that reasons
/// about the data (a standing query bounding the appended
/// [`MutationEvent::rows`]) reads the catalog afresh when it acts on an
/// event.
pub trait MutationObserver: Send + Sync {
    /// Observes one committed mutation.
    fn mutation(&self, event: &MutationEvent);
}

/// A pluggable executor for shipping execution units to remote worker
/// processes. Installed with [`Engine::set_remote_backend`]; `prj-cluster`
/// provides the TCP implementation (pooled persistent connections over the
/// `prj/2` wire protocol, replica failover).
///
/// Contract: [`RemoteUnitBackend::execute`] either returns the *complete,
/// certified* unit result — bit-identical to what running the same plan
/// locally would produce — or a typed error
/// ([`EngineError::WorkerUnavailable`] / [`EngineError::StaleReplica`] /
/// [`EngineError::Degraded`]). Silently truncated results are forbidden;
/// the merge machinery has no way to detect them.
pub trait RemoteUnitBackend: Send + Sync {
    /// The topology generation, folded into every cache key so entries
    /// computed under an older worker layout become unreachable after a
    /// failover or rebalance.
    fn generation(&self) -> u64;

    /// `true` when units of this driving shard should be executed
    /// remotely; `false` falls back to local execution.
    fn routes(&self, shard: usize) -> bool;

    /// Executes one unit remotely, returning its rehydrated result.
    fn execute(&self, call: &RemoteUnitCall) -> Result<RankJoinResult, EngineError>;
}

/// A [`RemoteUnitBackend`] that routes every driving shard to a replica
/// [`Engine`] in the same process and answers through
/// [`Engine::execute_unit`]: the cluster's per-shard unit path (unit
/// cache, merge, epoch check) with no TCP and no worker processes. A test
/// double. The replica is held weakly, so it may be the coordinator engine
/// itself — the degenerate fully replicated cluster, always in step —
/// without the backend keeping its own engine alive.
pub struct InProcessBackend {
    replica: std::sync::Weak<Engine>,
}

impl InProcessBackend {
    /// A backend answering every unit on `replica`.
    pub fn new(replica: &Arc<Engine>) -> Arc<Self> {
        Arc::new(InProcessBackend {
            replica: Arc::downgrade(replica),
        })
    }
}

impl RemoteUnitBackend for InProcessBackend {
    fn generation(&self) -> u64 {
        // One fixed layout, distinct from "no backend" (0): results cached
        // before the backend was installed are not served through it.
        1
    }

    fn routes(&self, _shard: usize) -> bool {
        true
    }

    fn execute(&self, call: &RemoteUnitCall) -> Result<RankJoinResult, EngineError> {
        let replica = self
            .replica
            .upgrade()
            .ok_or_else(|| EngineError::WorkerUnavailable {
                shard: call.shard,
                detail: "the replica engine was dropped".to_string(),
            })?;
        let scoring = replica
            .scoring_registry()
            .resolve(&call.selector.name, &call.selector.params)?;
        let spec = QuerySpec {
            relations: call.relations.clone(),
            query: call.query.clone(),
            k: call.k,
            scoring,
            selector: Some(call.selector.clone()),
            access_kind: call.access_kind,
            algorithm: Some(call.algorithm),
            convergence: call.convergence,
            trace: None,
        };
        let (result, _) = replica.execute_unit(
            &spec,
            call.drive,
            call.shard,
            call.algorithm,
            call.dominance_period,
            Some(&call.epochs),
        )?;
        Ok(result)
    }
}

/// Configuration builder for [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    threads: usize,
    cache_capacity: usize,
    unit_cache_capacity: usize,
    sharding: ShardingPolicy,
    trace_capacity: usize,
    slow_query_threshold: Option<Duration>,
    delta_threshold: usize,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            cache_capacity: 1024,
            unit_cache_capacity: 4096,
            sharding: ShardingPolicy::default(),
            trace_capacity: 4096,
            slow_query_threshold: None,
            delta_threshold: 0,
        }
    }
}

impl EngineBuilder {
    /// Number of query runs that may execute at once (default: available
    /// parallelism); further misses wait for a run permit.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Result-cache capacity in entries (default 1024; 0 disables caching).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Per-shard unit-cache capacity in entries (default 4096; 0 disables
    /// it). Only consulted for partitioned executions on a cluster
    /// coordinator (one remote unit per driving shard); it is what lets a
    /// single-shard epoch bump re-execute one remote unit instead of the
    /// whole query. In-process queries run one unit and never touch it.
    pub fn unit_cache_capacity(mut self, capacity: usize) -> Self {
        self.unit_cache_capacity = capacity;
        self
    }

    /// Number of spatial shards every relation is partitioned into
    /// (default 1 = unsharded). Shards are the unit of storage, publish
    /// cost (an append clones only the shards it touches) and cluster
    /// placement. In-process queries read them through merged views, so
    /// results and cost counters are identical for every shard count.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn shards(mut self, shards: usize) -> Self {
        self.sharding = ShardingPolicy::new(shards);
        self
    }

    /// Full control over the sharding policy (shard count + grid cell).
    pub fn sharding_policy(mut self, policy: ShardingPolicy) -> Self {
        self.sharding = policy;
        self
    }

    /// How many finished spans the engine's trace ring retains (default
    /// 4096). 0 disables tracing entirely: every span guard becomes a
    /// no-op with no allocation — the configuration the
    /// instrumentation-overhead bench lane measures against.
    pub fn trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Queries slower than this dump their trace to stderr (default: off).
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Delta ingest-lane threshold (default 0 = off). With N > 0, appends
    /// stop rebuilding touched shards and instead publish into per-shard
    /// delta buffers in O(delta); a background compactor thread folds a
    /// delta into its shard's indexes once it reaches N tuples (and
    /// flushes smaller deltas periodically). Query results are identical
    /// at every threshold — only the cost model of `AppendTuples` changes.
    pub fn delta_threshold(mut self, threshold: usize) -> Self {
        self.delta_threshold = threshold;
        self
    }

    /// Builds the engine (scoring registry pre-loaded with the built-ins).
    pub fn build(self) -> Engine {
        let catalog = Arc::new(Catalog::with_policy_and_delta(
            self.sharding,
            self.delta_threshold,
        ));
        let obs = Arc::new(EngineObs::new(
            self.trace_capacity,
            self.slow_query_threshold,
        ));
        let compactor = (self.delta_threshold > 0).then(|| {
            Arc::new(Compactor::spawn(
                Arc::clone(&catalog),
                self.delta_threshold,
                &obs,
            ))
        });
        Engine {
            catalog,
            executor: Executor::new(self.threads),
            cache: Arc::new(ResultCache::new(self.cache_capacity)),
            unit_cache: Arc::new(UnitCache::new(self.unit_cache_capacity)),
            stats: Arc::new(EngineStats::new()),
            planner: Planner::default(),
            registry: Arc::new(ScoringRegistry::with_builtins()),
            remote: RwLock::new(None),
            observers: RwLock::new(Vec::new()),
            obs,
            compactor,
        }
    }
}

/// One execution unit: a planned [`Problem`] over the query's relations.
struct ExecutionUnit {
    /// The driving-relation shard the unit enumerates, joined against
    /// whole-relation merged views of the others — only on a cluster
    /// coordinator, where each unit is a remote call. `None` is the
    /// in-process unit, which reads every relation whole.
    shard: Option<usize>,
    plan: Plan,
    problem: Problem<Arc<dyn ScoringSpec>>,
}

impl ExecutionUnit {
    /// The shard number the unit reports on surfaces that carry one
    /// ([`UnitRecord`] lanes, EXPLAIN unit plans and profiles, the `unit`
    /// span): its driving shard, or 0 for the whole-relation unit — so the
    /// lanes still sum to the engine's total `sumDepths`.
    fn lane(&self) -> usize {
        self.shard.unwrap_or(0)
    }
}

/// The plan reported for the whole query. Every unit carries the query's
/// one plan; a partitioned query says so in the rationale.
fn merged_plan(units: &[ExecutionUnit]) -> Plan {
    let plan = units[0].plan.clone();
    if units.len() == 1 {
        return plan;
    }
    Plan {
        rationale: format!(
            "partitioned over {} driving shards; {}",
            units.len(),
            plan.rationale
        ),
        ..plan
    }
}

/// The owned, `Send` bundle one query's unit executions share: where to
/// ship remote units, where to memoise them, and the key ingredients both
/// need. Built from the same snapshot the units were prepared from, so its
/// epochs always describe exactly the data a unit reads. The unit cache
/// and the backend only ever see per-shard units; the in-process
/// whole-relation unit just runs (the whole-query cache covers it).
struct UnitExecContext {
    unit_cache: Arc<UnitCache>,
    /// Unit caching is only worthwhile for partitioned executions, and
    /// EXPLAIN ANALYZE turns it off to measure real work.
    use_unit_cache: bool,
    backend: Option<Arc<dyn RemoteUnitBackend>>,
    relations: Vec<RelationId>,
    epochs: Vec<Vec<u64>>,
    drive: usize,
    query: Arc<Vector>,
    k: usize,
    access_kind: AccessKind,
    selector: Option<ScoringSelector>,
    scoring_fingerprint: u64,
    generation: u64,
    /// Bound-convergence sampling stride, forwarded to remote units so
    /// their trajectories come back over the wire.
    convergence: usize,
    recorder: Arc<Recorder>,
    /// The query's trace plus the root span unit spans parent under.
    trace: Option<(TraceId, SpanId)>,
}

/// How one unit's result was obtained.
///
/// The result stays behind the `Arc` the unit cache hands out (or the one a
/// fresh run is wrapped in before insertion): a cache hit never deep-copies
/// the memoised combinations, and the merge reads the parts by reference
/// ([`prj_core::merge_shared`]).
struct UnitOutcome {
    /// The unit's [`ExecutionUnit::lane`].
    shard: usize,
    result: Arc<RankJoinResult>,
    elapsed: Duration,
    /// `false` when the result came out of the unit cache (no accesses
    /// were performed for it this query).
    fresh: bool,
    /// `true` when the unit was shipped to a remote worker.
    remote: bool,
}

impl UnitExecContext {
    fn unit_key(&self, shard: usize, plan: &Plan) -> UnitKey {
        let drive_epoch = self.epochs[self.drive]
            .get(shard)
            .copied()
            .unwrap_or_default();
        let others = self
            .relations
            .iter()
            .zip(self.epochs.iter())
            .enumerate()
            .filter(|(idx, _)| *idx != self.drive)
            .map(|(_, (id, epochs))| (id.index(), epochs.clone()))
            .collect();
        UnitKey::new(
            (self.relations[self.drive].index(), shard, drive_epoch),
            others,
            &self.query,
            self.k,
            self.access_kind,
            plan,
            self.scoring_fingerprint,
            self.generation,
        )
    }

    /// Begins this query's `unit` span for `lane`, parented under the
    /// query's root span (`None` when the query carries no trace).
    fn unit_span(&self, lane: usize) -> Option<SpanGuard> {
        let (trace, parent) = self.trace?;
        let mut span = self.recorder.child(trace, parent, "unit");
        span.attr("shard", lane);
        Some(span)
    }

    /// Executes one unit. A per-shard unit consults the unit cache, then
    /// goes to the remote backend when it routes the shard; everything
    /// else runs here, on the calling thread.
    fn execute(&self, unit: ExecutionUnit) -> Result<UnitOutcome, EngineError> {
        let mut unit = unit;
        let lane = unit.lane();
        let mut span = self.unit_span(lane);
        let key = unit
            .shard
            .filter(|_| self.use_unit_cache)
            .map(|shard| self.unit_key(shard, &unit.plan));
        if let Some(key) = &key {
            if let Some(hit) = self.unit_cache.get(key) {
                if let Some(mut span) = span {
                    span.attr("cache", "hit");
                    span.finish();
                }
                return Ok(UnitOutcome {
                    shard: lane,
                    result: hit,
                    elapsed: Duration::ZERO,
                    fresh: false,
                    remote: false,
                });
            }
        }
        let started = Instant::now();
        let remote = unit
            .shard
            .zip(self.backend.as_ref())
            .filter(|(shard, b)| b.routes(*shard));
        let was_remote = remote.is_some();
        if let Some(span) = span.as_mut() {
            span.attr("remote", was_remote);
        }
        let result = match remote {
            Some((shard, backend)) => {
                let selector = self.selector.clone().ok_or_else(|| {
                    EngineError::Degraded(
                        "the query's scoring has no wire selector; it cannot be \
                         executed on remote workers"
                            .to_string(),
                    )
                })?;
                backend.execute(&RemoteUnitCall {
                    relations: self.relations.clone(),
                    epochs: self.epochs.clone(),
                    drive: self.drive,
                    shard,
                    query: (*self.query).clone(),
                    k: self.k,
                    selector,
                    access_kind: self.access_kind,
                    algorithm: unit.plan.algorithm,
                    dominance_period: unit.plan.dominance_period,
                    convergence: self.convergence,
                    // The worker's spans stitch under this unit span; a
                    // non-recording guard (disabled ring) sends nothing.
                    trace: span
                        .as_ref()
                        .filter(|s| s.recording())
                        .and_then(|s| self.trace.map(|(trace, _)| (trace, s.id()))),
                })?
            }
            None => unit
                .plan
                .algorithm
                .run(&mut unit.problem)
                .map_err(EngineError::Prj)?,
        };
        let elapsed = started.elapsed();
        if let Some(mut span) = span {
            span.attr("sum_depths", result.sum_depths());
            span.finish();
        }
        let result = Arc::new(result);
        if let Some(key) = key {
            self.unit_cache.insert(key, Arc::clone(&result));
        }
        Ok(UnitOutcome {
            shard: lane,
            result,
            elapsed,
            fresh: true,
            remote: was_remote,
        })
    }
}

/// Executes every unit, returning the per-unit outcomes in
/// completion-independent unit order. An in-process query has one unit and
/// runs it on the calling thread; only a cluster coordinator's
/// per-shard units fan out.
fn fan_out_units(
    units: Vec<ExecutionUnit>,
    ctx: &UnitExecContext,
) -> Vec<Result<UnitOutcome, EngineError>> {
    if units.len() == 1 {
        let unit = units.into_iter().next().expect("one unit");
        vec![ctx.execute(unit)]
    } else {
        // Per-shard units are blocking network calls to distinct workers
        // (plus, on a partially routed cluster, local shard units); scoped
        // threads run them side by side under the query's one run permit,
        // so a partitioned query never waits on permits it holds itself.
        std::thread::scope(|scope| {
            let handles: Vec<_> = units
                .into_iter()
                .map(|unit| scope.spawn(move || ctx.execute(unit)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("unit thread panicked"))
                .collect()
        })
    }
}

/// Runs every unit — in parallel when there is more than one — and merges
/// the certified per-unit results into the exact global top-`k`. Returns
/// the merged result plus one [`UnitRecord`] per unit that *freshly* ran
/// (sparse: empty driving slices and unit-cache hits contribute none).
fn run_units(
    units: Vec<ExecutionUnit>,
    k: usize,
    ctx: &UnitExecContext,
) -> Result<(RankJoinResult, Vec<UnitRecord>), EngineError> {
    let outcomes = fan_out_units(units, ctx);
    let mut parts: Vec<Arc<RankJoinResult>> = Vec::with_capacity(outcomes.len());
    let mut unit_records = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        let outcome = outcome?;
        if outcome.fresh {
            unit_records.push(UnitRecord {
                shard: outcome.shard,
                sum_depths: outcome.result.sum_depths(),
                latency: outcome.elapsed,
            });
        }
        parts.push(outcome.result);
    }
    Ok((merge_unit_parts(k, parts, ctx), unit_records))
}

/// Merges certified per-unit results into the exact global top-`k`
/// (recording a `merge` span when several parts recombine).
fn merge_unit_parts(
    k: usize,
    mut parts: Vec<Arc<RankJoinResult>>,
    ctx: &UnitExecContext,
) -> RankJoinResult {
    if parts.len() == 1 {
        // A freshly run, uncached unit holds the only reference and is
        // moved out without copying; a unit-cache hit stays shared with
        // the cache and must be cloned.
        Arc::try_unwrap(parts.pop().expect("one part")).unwrap_or_else(|arc| (*arc).clone())
    } else {
        let n = parts.len();
        let span = ctx
            .trace
            .map(|(trace, parent)| ctx.recorder.child(trace, parent, "merge"));
        // Merge by reference: only the combinations that actually enter
        // the global top-k are cloned out of the (possibly cache-shared)
        // per-unit results.
        let merged = merge_shared(k, parts.iter().map(|p| p.as_ref()));
        if let Some(mut span) = span {
            span.attr("parts", n);
            span.finish();
        }
        merged
    }
}

/// How one query is accounted once it resolves: the engine's statistics
/// and metrics, and the query's trace and root `query` span (both `None`
/// while the span recorder is off).
struct QueryAccount {
    stats: Arc<EngineStats>,
    obs: Arc<EngineObs>,
    trace: Option<TraceId>,
    root: Option<SpanGuard>,
}

impl QueryAccount {
    /// The trace and root span the query's child spans hang under.
    fn parent(&self) -> Option<(TraceId, SpanId)> {
        self.trace.zip(self.root.as_ref().map(|r| r.id()))
    }

    /// Accounts a query the result cache served: a cached [`QueryRecord`]
    /// and a `cache=hit` root span.
    fn cache_hit(self, latency: Duration) {
        let record = QueryRecord {
            latency,
            from_cache: true,
            ..QueryRecord::default()
        };
        self.obs.record_query(&record);
        self.stats.record(record);
        if let Some(mut root) = self.root {
            root.attr("cache", "hit");
            root.finish();
        }
    }

    /// Accounts an executed query: a [`QueryRecord`] whose `sumDepths`
    /// counts only the accesses `units` freshly performed (unit-cache hits
    /// did none, and the per-shard lanes must keep adding up to the
    /// engine-wide total), the root span's `cache` status and the result's
    /// `sum_depths`, and the trace's finish at `latency`.
    fn executed(
        self,
        cache: &str,
        result: &RankJoinResult,
        units: Vec<UnitRecord>,
        relations: &[usize],
        latency: Duration,
    ) {
        let record = QueryRecord {
            latency,
            sum_depths: units.iter().map(|u| u.sum_depths).sum(),
            bound_updates: result.metrics.bound_updates,
            from_cache: false,
            units,
            relation_depths: relation_depths(relations, result),
        };
        self.obs.record_query(&record);
        self.stats.record(record);
        if let Some(mut root) = self.root {
            root.attr("cache", cache);
            root.attr("sum_depths", result.sum_depths());
            root.finish();
        }
        self.obs.query_finished(self.trace, latency);
    }
}

/// Everything a live streaming producer needs at completion: where to cache
/// the drained execution and how to account/trace it.
struct StreamFinish {
    cache: Arc<ResultCache>,
    account: QueryAccount,
    key: CacheKey,
    plan: Plan,
    relations: Vec<usize>,
}

impl StreamFinish {
    /// Records the fully drained run and caches its execution.
    fn complete(self, result: RankJoinResult, units: Vec<UnitRecord>) {
        // The operator tracks its active stepping time, so the recorded
        // latency measures engine work, not how slowly the consumer
        // drained the stream.
        let latency = result.metrics.total_time;
        self.account
            .executed("miss", &result, units, &self.relations, latency);
        self.cache.insert(
            self.key,
            Arc::new(CachedExecution {
                result,
                plan: self.plan,
            }),
        );
    }
}

/// The `(relation index, depth)` pairs of one executed result — what the
/// `prj_relation_depth_total` metric series is fed with.
fn relation_depths(relations: &[usize], result: &RankJoinResult) -> Vec<(usize, u64)> {
    relations
        .iter()
        .zip(result.stats.depths())
        .map(|(rel, depth)| (*rel, *depth as u64))
        .collect()
}

/// Bound-convergence sampling stride EXPLAIN ANALYZE applies when the
/// query didn't pin one of its own: fine enough to show the bound closing
/// on the kth score, coarse enough to stay far under the trajectory cap on
/// realistic depths.
const ANALYZE_CONVERGENCE_EVERY: usize = 16;

/// One relation's planner inputs, as EXPLAIN reports them: the statistics
/// the driving choice consumed and the discounted depth estimate derived
/// from them (`cardinality / (1 + max(skew, 0))`).
#[derive(Debug, Clone)]
pub struct RelationPlanData {
    /// Relation name.
    pub name: String,
    /// Tuple count at planning time.
    pub cardinality: u64,
    /// Score skewness the planner discounted the expected depth by.
    pub skew: f64,
    /// The discounted-depth estimate; the planner drives the relation
    /// maximising this.
    pub discount: f64,
}

/// One execution unit's plan, as EXPLAIN reports it.
#[derive(Debug, Clone)]
pub struct UnitPlanData {
    /// Driving-relation shard this unit enumerates; 0 for the in-process
    /// unit, which reads every relation whole.
    pub shard: usize,
    /// The per-unit plan (algorithm, dominance period, rationale).
    pub plan: Plan,
}

/// One executed unit's profile (EXPLAIN ANALYZE only).
#[derive(Debug, Clone)]
pub struct UnitProfileData {
    /// Driving-relation shard this unit enumerated; 0 for the in-process
    /// unit, which reads every relation whole.
    pub shard: usize,
    /// What the unit read: `"fresh"` (compacted bases only) or
    /// `"delta-merged"` (some shard it read still carried unfolded deltas).
    /// ANALYZE bypasses the unit cache, so `"hit"` never appears here —
    /// the profile always measures real work.
    pub cache: &'static str,
    /// `true` when the unit ran on a remote worker.
    pub remote: bool,
    /// Sorted accesses this unit performed (its `sumDepths` share).
    pub depths: u64,
    /// Wall-clock unit latency in µs.
    pub micros: u64,
    /// The sampled bound-convergence trajectory of the unit's run.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The executed half of an EXPLAIN ANALYZE report: the merged result (rows
/// bit-identical to what a plain query would return) plus per-unit
/// profiles whose depths sum exactly to `total_sum_depths`.
#[derive(Debug)]
pub struct AnalyzeData {
    /// The merged certified top-k result.
    pub result: RankJoinResult,
    /// End-to-end latency of the analyzed execution.
    pub latency: Duration,
    /// Total sorted accesses across all units (`Σ units[i].depths`).
    pub total_sum_depths: u64,
    /// Per-unit execution profiles, in unit order.
    pub units: Vec<UnitProfileData>,
}

/// An EXPLAIN / EXPLAIN ANALYZE report at the engine level (the session
/// layer converts it to the wire shape).
#[derive(Debug)]
pub struct ExplainData {
    /// The merged whole-query plan.
    pub plan: Plan,
    /// Index (into the query's relation list) of the driving relation.
    pub drive: usize,
    /// The k the query runs at.
    pub k: usize,
    /// Planner inputs per relation, in the query's relation order.
    pub relations: Vec<RelationPlanData>,
    /// Per-unit plans, in unit order.
    pub units: Vec<UnitPlanData>,
    /// Present under ANALYZE: the profiled execution.
    pub analyzed: Option<AnalyzeData>,
}

/// A concurrent query-serving engine over the ProxRJ operator.
pub struct Engine {
    catalog: Arc<Catalog>,
    executor: Executor,
    cache: Arc<ResultCache>,
    unit_cache: Arc<UnitCache>,
    stats: Arc<EngineStats>,
    planner: Planner,
    registry: Arc<ScoringRegistry>,
    /// The remote execution backend, when this engine coordinates a
    /// cluster; `None` executes everything locally.
    remote: RwLock<Option<Arc<dyn RemoteUnitBackend>>>,
    /// Mutation observers, fired after every committed catalog mutation
    /// (the push path standing queries hang off).
    observers: RwLock<Vec<Arc<dyn MutationObserver>>>,
    /// The observability bundle: span recorder + metric handles.
    obs: Arc<EngineObs>,
    /// The background delta compactor (None when the delta lane is off).
    compactor: Option<Arc<Compactor>>,
}

impl Drop for Engine {
    fn drop(&mut self) {
        if let Some(compactor) = &self.compactor {
            compactor.shutdown();
        }
    }
}

impl Engine {
    /// An engine with default settings.
    pub fn new() -> Self {
        EngineBuilder::default().build()
    }

    /// A configuration builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Registers a relation in the catalog (builds its shared indexes once).
    pub fn register(&self, name: impl AsRef<str>, tuples: Vec<prj_access::Tuple>) -> RelationId {
        self.catalog.register(name, tuples)
    }

    /// Appends pre-tagged tuples to a relation; bumps its epoch and purges
    /// the now-unreachable cache entries. Whole-query entries reading the
    /// relation all die; per-shard unit entries survive unless the append
    /// landed on their driving shard (or they read the relation whole).
    pub fn append(
        &self,
        id: RelationId,
        tuples: Vec<prj_access::Tuple>,
    ) -> Result<MutationOutcome, EngineError> {
        let rows = tuples.iter().map(|t| (t.vector.clone(), t.score)).collect();
        let outcome = self.catalog.append(id, tuples)?;
        self.cache.invalidate_relation(id.index());
        self.unit_cache
            .invalidate_shards(id.index(), &outcome.touched_shards);
        self.notify_compactor();
        Ok(self.committed(MutationKind::Append, outcome, rows))
    }

    /// Appends raw `(location, score)` rows (tuple ids assigned under the
    /// catalog lock); bumps the epoch and purges stale cache entries.
    pub fn append_rows(
        &self,
        id: RelationId,
        rows: Vec<(Vector, f64)>,
    ) -> Result<MutationOutcome, EngineError> {
        let appended = Arc::from(rows.as_slice());
        let outcome = self.catalog.append_rows(id, rows)?;
        self.cache.invalidate_relation(id.index());
        self.unit_cache
            .invalidate_shards(id.index(), &outcome.touched_shards);
        self.notify_compactor();
        Ok(self.committed(MutationKind::Append, outcome, appended))
    }

    /// Wakes the background compactor after a committed append (no-op when
    /// the delta lane is off).
    fn notify_compactor(&self) {
        if let Some(compactor) = &self.compactor {
            compactor.notify();
        }
    }

    /// The background delta compactor (`None` when the engine was built
    /// with a zero [`EngineBuilder::delta_threshold`]). Exposes the
    /// pause/step/resume hooks the mutation-torture tests interleave
    /// compactions with.
    pub fn compactor(&self) -> Option<&Arc<Compactor>> {
        self.compactor.as_ref()
    }

    /// Drops a relation; bumps its epoch and purges stale cache entries.
    pub fn drop_relation(&self, id: RelationId) -> Result<MutationOutcome, EngineError> {
        let outcome = self.catalog.drop_relation(id)?;
        self.cache.invalidate_relation(id.index());
        self.unit_cache.invalidate_relation(id.index());
        Ok(self.committed(MutationKind::Drop, outcome, Arc::new([])))
    }

    /// Registers a mutation observer; every later committed mutation is
    /// reported to it. Observers cannot be removed individually — they live
    /// as long as the engine (drop the subscription state behind an `Arc`
    /// and make the callback a no-op to retire one).
    pub fn add_mutation_observer(&self, observer: Arc<dyn MutationObserver>) {
        self.observers
            .write()
            .expect("observer lock")
            .push(observer);
    }

    /// Post-commit tail of every mutation: records the `mutation` span
    /// (when tracing) and fires the observers with the outcome, the
    /// appended rows, and the span identity their downstream spans should
    /// parent under.
    fn committed(
        &self,
        kind: MutationKind,
        outcome: MutationOutcome,
        rows: Arc<[(Vector, f64)]>,
    ) -> MutationOutcome {
        let recorder = self.obs.recorder();
        let trace = if recorder.enabled() {
            let trace = TraceId::generate();
            let mut span = recorder.span(trace, "mutation");
            span.attr(
                "kind",
                match kind {
                    MutationKind::Append => "append",
                    MutationKind::Drop => "drop",
                },
            );
            span.attr("relation", outcome.id.index());
            span.attr("epoch", outcome.epoch);
            span.attr("shards", outcome.touched_shards.len());
            let id = span.id();
            span.finish();
            Some((trace, id))
        } else {
            None
        };
        let observers = self.observers.read().expect("observer lock").clone();
        if !observers.is_empty() {
            let event = MutationEvent {
                kind,
                outcome: outcome.clone(),
                rows,
                trace,
            };
            for observer in &observers {
                observer.mutation(&event);
            }
        }
        outcome
    }

    /// Installs the remote execution backend: from now on, execution units
    /// whose driving shard the backend routes are shipped to workers
    /// instead of running locally, and every cache key carries the
    /// backend's topology generation.
    pub fn set_remote_backend(&self, backend: Arc<dyn RemoteUnitBackend>) {
        *self.remote.write().expect("remote backend lock") = Some(backend);
    }

    fn remote_backend(&self) -> Option<Arc<dyn RemoteUnitBackend>> {
        self.remote.read().expect("remote backend lock").clone()
    }

    /// The current cluster topology generation (0 without a backend).
    pub fn topology_generation(&self) -> u64 {
        self.remote_backend().map_or(0, |b| b.generation())
    }

    /// The shared catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The scoring registry; register new families here at any time.
    pub fn scoring_registry(&self) -> &Arc<ScoringRegistry> {
        &self.registry
    }

    /// Number of query runs that may execute at once.
    pub fn threads(&self) -> usize {
        self.executor.threads()
    }

    /// Number of spatial shards per relation (1 = unsharded).
    pub fn shards(&self) -> usize {
        self.catalog.policy().shards()
    }

    /// Engine-level statistics.
    pub fn stats(&self) -> EngineStatsSnapshot {
        self.stats.snapshot()
    }

    /// Result-cache counters.
    pub fn cache_metrics(&self) -> CacheMetrics {
        self.cache.metrics()
    }

    /// Per-shard unit-cache counters.
    pub fn unit_cache_metrics(&self) -> CacheMetrics {
        self.unit_cache.metrics()
    }

    /// The observability bundle (span recorder + metrics registry).
    pub fn obs(&self) -> &Arc<EngineObs> {
        &self.obs
    }

    /// The engine's span recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        self.obs.recorder()
    }

    /// A flat snapshot of every metric series this engine maintains.
    pub fn metrics_samples(&self) -> Vec<Sample> {
        self.obs.registry().snapshot()
    }

    /// The engine's metrics in Prometheus text exposition format.
    pub fn metrics_render(&self) -> String {
        prj_obs::render_prometheus(&self.metrics_samples())
    }

    /// Resolves the trace this query runs under and opens its root `query`
    /// span: the spec's own trace context when the caller provided one
    /// (cluster dispatch), a freshly generated trace otherwise — but only
    /// while the recorder is live, so a disabled ring costs nothing.
    fn begin_query(&self, spec: &QuerySpec) -> QueryAccount {
        let mut account = QueryAccount {
            stats: Arc::clone(&self.stats),
            obs: Arc::clone(&self.obs),
            trace: None,
            root: None,
        };
        let recorder = self.obs.recorder();
        if !recorder.enabled() {
            return account;
        }
        let qt = spec.trace.unwrap_or_else(|| QueryTrace {
            trace: TraceId::generate(),
            parent: None,
        });
        let mut span = match qt.parent {
            Some(parent) => recorder.child(qt.trace, parent, "query"),
            None => recorder.span(qt.trace, "query"),
        };
        span.attr("k", spec.k);
        span.attr("relations", spec.relations.len());
        account.trace = Some(qt.trace);
        account.root = Some(span);
        account
    }

    /// Snapshots the referenced relations and derives the cache key *from
    /// that snapshot*, so the epochs in the key always describe exactly the
    /// data the run would read (no key/snapshot race around mutations).
    fn snapshot_and_key(
        &self,
        spec: &QuerySpec,
    ) -> Result<(Vec<Arc<CatalogRelation>>, CacheKey), EngineError> {
        // Reject the zero-relation query before anything indexes into the
        // snapshot: the typed error `ProblemBuilder` used to produce, not a
        // panic.
        if spec.relations.is_empty() {
            return Err(EngineError::Prj(PrjError::NoRelations));
        }
        let snapshot = self.catalog.snapshot(&spec.relations)?;
        Self::validate_dimensions(spec, &snapshot)?;
        let relations = spec
            .relations
            .iter()
            .zip(snapshot.iter())
            .map(|(id, rel)| (id.index(), rel.epochs()))
            .collect();
        let key = CacheKey::new(
            relations,
            &spec.query,
            spec.k,
            spec.access_kind,
            spec.algorithm,
            spec.scoring.cache_fingerprint(),
            self.topology_generation(),
        );
        Ok((snapshot, key))
    }

    /// Validates the query's dimensionality up front: catalog views skip
    /// `ProblemBuilder`'s per-tuple checks (they would be O(n) per query),
    /// so without this a mismatched query would panic a worker instead of
    /// returning a typed error.
    fn validate_dimensions(
        spec: &QuerySpec,
        snapshot: &[Arc<CatalogRelation>],
    ) -> Result<(), EngineError> {
        for relation in snapshot {
            let stats = relation.stats();
            if stats.cardinality > 0 && stats.dimensions != spec.query.dim() {
                return Err(EngineError::Prj(PrjError::DimensionMismatch {
                    expected: stats.dimensions,
                    found: spec.query.dim(),
                }));
            }
        }
        Ok(())
    }

    /// Plans and builds the execution units for one query.
    ///
    /// The query is planned once ([`Self::plan_query`]) and every unit
    /// carries that plan.
    ///
    /// In process — no remote backend routing any of the driving
    /// relation's shards — this is **one** unit over every relation's
    /// shard-merged view ([`CatalogRelation::distance_view`] and friends).
    /// The merged views are globally sorted streams (ties by tuple id), so
    /// the unit reads exactly what an unsharded engine reads.
    ///
    /// On a cluster coordinator the combination space is instead split
    /// over the *driving* relation's shards — chosen by the planner's
    /// estimated-`sumDepths` cost model ([`Planner::choose_driving`]) — so
    /// unit `j` joins shard `j` of the driving relation with whole views of
    /// the others, every combination is produced by exactly one unit, and
    /// the per-unit certified top-Ks recombine exactly
    /// ([`prj_core::merge_shared`]). Each such unit is a remote call;
    /// units whose driving shard is empty cannot produce a combination and
    /// are skipped.
    ///
    /// Returns the driving relation index alongside the units (EXPLAIN
    /// reports it on both paths).
    fn prepare_units(
        &self,
        spec: &QuerySpec,
        snapshot: &[Arc<CatalogRelation>],
    ) -> Result<(usize, Vec<ExecutionUnit>), EngineError> {
        let reducible = spec.scoring.euclidean_weights().is_some();
        // The query vector is cloned ONCE per query and shared behind an
        // `Arc` by every unit's problem and every relation view — not
        // re-cloned per unit (see `Problem::query_shared`).
        let query = Arc::new(spec.query.clone());
        let stats: Vec<RelationStats> = snapshot.iter().map(|r| r.stats()).collect();
        let drive = self.planner.choose_driving(&stats);
        let plan = self.plan_query(spec, reducible, &stats);
        let shards = snapshot[drive].num_shards();
        let partitioned = self
            .remote_backend()
            .is_some_and(|b| (0..shards).any(|j| b.routes(j)));
        if !partitioned {
            let unit = Self::build_unit(spec, snapshot, &query, reducible, drive, None, plan)?;
            return Ok((drive, vec![unit]));
        }
        let nonempty: Vec<usize> = (0..shards)
            .filter(|&j| snapshot[drive].shard(j).stats().cardinality > 0)
            .collect();
        // An entirely empty driving relation still needs one unit so the
        // query produces a well-formed (empty) result with real metrics.
        let selected = if shards == 1 || nonempty.is_empty() {
            vec![0]
        } else {
            nonempty
        };
        let units = selected
            .into_iter()
            .map(|j| {
                Self::build_unit(
                    spec,
                    snapshot,
                    &query,
                    reducible,
                    drive,
                    Some(j),
                    plan.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((drive, units))
    }

    /// The query's one plan: its pinned algorithm, or the planner's pick
    /// for this many relations under this scoring.
    fn plan_query(&self, spec: &QuerySpec, reducible: bool, stats: &[RelationStats]) -> Plan {
        match spec.algorithm {
            Some(algorithm) => Plan {
                algorithm,
                dominance_period: None,
                rationale: "algorithm pinned by the query".to_string(),
            },
            None => self.planner.plan(reducible, stats),
        }
    }

    /// Builds one execution unit under an already-decided plan: every
    /// relation through its whole-relation merged view, except that a
    /// per-shard unit narrows the driving relation to its shard. Relations
    /// keep their client-given join order, so member tuples of results come
    /// out in the same order at every driving choice.
    fn build_unit(
        spec: &QuerySpec,
        snapshot: &[Arc<CatalogRelation>],
        query: &Arc<Vector>,
        reducible: bool,
        drive: usize,
        shard: Option<usize>,
        plan: Plan,
    ) -> Result<ExecutionUnit, EngineError> {
        let mut builder = ProblemBuilder::new(Arc::clone(query), Arc::clone(&spec.scoring))
            .k(spec.k)
            .access_kind(spec.access_kind)
            .dominance_period(plan.dominance_period)
            .convergence_every(spec.convergence);
        for (idx, relation) in snapshot.iter().enumerate() {
            let view = match shard.filter(|_| idx == drive) {
                Some(j) => match spec.access_kind {
                    AccessKind::Distance if reducible => {
                        relation.shard_distance_view(j, Arc::clone(query))
                    }
                    AccessKind::Distance => {
                        relation.shard_distance_view_by(j, &spec.scoring, &spec.query)
                    }
                    AccessKind::Score => relation.shard_score_view(j),
                },
                None => match spec.access_kind {
                    AccessKind::Distance if reducible => relation.distance_view(Arc::clone(query)),
                    // Non-Euclidean proximity: the shared R-trees'
                    // Euclidean frontiers would disagree with the scoring's
                    // own distance, so fall back to a per-query sort under δ.
                    AccessKind::Distance => relation.distance_view_by(&spec.scoring, &spec.query),
                    AccessKind::Score => relation.score_view(),
                },
            };
            builder = builder.relation(view);
        }
        let problem = builder.build().map_err(EngineError::Prj)?;
        Ok(ExecutionUnit {
            shard,
            plan,
            problem,
        })
    }

    /// Whether a unit reads any unfolded delta: its driving shard's for a
    /// per-shard unit, any shard's of every other relation it reads whole.
    fn reads_delta(snapshot: &[Arc<CatalogRelation>], drive: usize, shard: Option<usize>) -> bool {
        snapshot
            .iter()
            .enumerate()
            .any(|(idx, relation)| match shard.filter(|_| idx == drive) {
                Some(j) => relation.shard(j).delta_len() > 0,
                None => relation.delta_len() > 0,
            })
    }

    /// The shared execution context of one query's units, built from the
    /// same snapshot the units were prepared from.
    fn unit_context(
        &self,
        spec: &QuerySpec,
        snapshot: &[Arc<CatalogRelation>],
        drive: usize,
        trace: Option<(TraceId, SpanId)>,
    ) -> UnitExecContext {
        UnitExecContext {
            unit_cache: Arc::clone(&self.unit_cache),
            // Only per-shard units consult it, and only partitioned
            // executions have several.
            use_unit_cache: snapshot[drive].num_shards() > 1,
            backend: self.remote_backend(),
            relations: spec.relations.clone(),
            epochs: snapshot.iter().map(|r| r.epochs()).collect(),
            drive,
            query: Arc::new(spec.query.clone()),
            k: spec.k,
            access_kind: spec.access_kind,
            selector: spec.selector.clone(),
            scoring_fingerprint: spec.scoring.cache_fingerprint(),
            generation: self.topology_generation(),
            convergence: spec.convergence,
            recorder: Arc::clone(self.obs.recorder()),
            trace,
        }
    }

    /// Submits a query and returns a ticket to wait on.
    ///
    /// Cache hits and planning errors resolve the ticket immediately; a
    /// miss waits here for one of the executor's `threads` run permits and
    /// then runs on a thread of its own.
    pub fn submit(&self, spec: QuerySpec) -> QueryTicket {
        let (ticket, miss) = self.start(spec);
        if let Some(run) = miss {
            self.executor.spawn(run);
        }
        ticket
    }

    /// Runs one query to completion: the steps of [`Engine::submit`], but a
    /// miss runs on the calling thread once it holds a run permit. A
    /// panicking run is reported as [`EngineError::WorkerLost`].
    pub fn query(&self, spec: QuerySpec) -> Result<EngineResult, EngineError> {
        let (ticket, miss) = self.start(spec);
        if let Some(run) = miss {
            self.executor.run(run);
        }
        ticket.wait()
    }

    /// The shared first steps of a query: snapshot, cache lookup, planning.
    /// Returns the ticket and, on a miss, the run that resolves it.
    fn start(&self, spec: QuerySpec) -> (QueryTicket, Option<impl FnOnce() + Send + 'static>) {
        let started = Instant::now();
        let (sender, receiver) = sync_channel(1);
        let (snapshot, key) = match self.snapshot_and_key(&spec) {
            Ok(snapshot_and_key) => snapshot_and_key,
            Err(e) => {
                let _ = sender.send(Err(e));
                return (QueryTicket { receiver }, None);
            }
        };
        let account = self.begin_query(&spec);

        if let Some(execution) = self.cache.get(&key) {
            let latency = started.elapsed();
            account.cache_hit(latency);
            let _ = sender.send(Ok(EngineResult {
                execution,
                from_cache: true,
                latency,
                fresh_units: 0,
            }));
            return (QueryTicket { receiver }, None);
        }

        let prepared = {
            let plan_span = account
                .parent()
                .map(|(trace, root)| self.obs.recorder().child(trace, root, "plan"));
            let prepared = self.prepare_units(&spec, &snapshot);
            drop(plan_span);
            prepared
        };
        let miss = match prepared {
            Err(e) => {
                let _ = sender.send(Err(e));
                None
            }
            Ok((drive, units)) => {
                let plan = merged_plan(&units);
                let k = spec.k;
                let cache = Arc::clone(&self.cache);
                let relations: Vec<usize> = spec.relations.iter().map(|r| r.index()).collect();
                let ctx = self.unit_context(&spec, &snapshot, drive, account.parent());
                Some(move || {
                    // Re-check the cache at execution time: a duplicate query
                    // queued behind the first execution of this key should be
                    // served from its result, not re-run (thundering herd).
                    if let Some(execution) = cache.get(&key) {
                        let latency = started.elapsed();
                        account.cache_hit(latency);
                        let _ = sender.send(Ok(EngineResult {
                            execution,
                            from_cache: true,
                            latency,
                            fresh_units: 0,
                        }));
                        return;
                    }
                    let outcome = run_units(units, k, &ctx);
                    let response = match outcome {
                        Ok((result, unit_records)) => {
                            let latency = started.elapsed();
                            let fresh_units = unit_records.len();
                            account.executed("miss", &result, unit_records, &relations, latency);
                            let execution = Arc::new(CachedExecution { result, plan });
                            cache.insert(key, Arc::clone(&execution));
                            Ok(EngineResult {
                                execution,
                                from_cache: false,
                                latency,
                                fresh_units,
                            })
                        }
                        Err(e) => {
                            drop(account.root);
                            account.obs.trace_event(
                                account.trace,
                                TraceClass::Error,
                                started.elapsed(),
                            );
                            Err(e)
                        }
                    };
                    let _ = sender.send(response);
                })
            }
        };
        (QueryTicket { receiver }, miss)
    }

    /// EXPLAIN / EXPLAIN ANALYZE: reports how the engine would execute (or
    /// did execute) `spec`, without going through the result cache.
    ///
    /// Plan mode (`analyze == false`) runs exactly the planner — driving
    /// choice, the query's plan carried by every unit, the relation
    /// statistics the driving choice consumed — and executes nothing.
    ///
    /// ANALYZE executes the plan for real, but measures *real work*: both
    /// the result cache and the per-shard unit cache are bypassed (no hits
    /// served, nothing inserted), so every unit profile reports the
    /// accesses that execution actually performed and the per-unit depths
    /// sum exactly to the `sumDepths` the engine's statistics advance by.
    /// Bound-convergence capture is forced on (at
    /// `ANALYZE_CONVERGENCE_EVERY` unless the spec pinned a stride), and
    /// the run is accounted like any executed query: metrics, engine
    /// stats, spans, and the trace drain all see it.
    ///
    /// The merged rows under ANALYZE are bit-identical to what the same
    /// spec would return through [`Engine::query`]: the units, the plan,
    /// and the merge are shared code — only the caching policy differs.
    pub fn explain(&self, mut spec: QuerySpec, analyze: bool) -> Result<ExplainData, EngineError> {
        if analyze && spec.convergence == 0 {
            spec.convergence = ANALYZE_CONVERGENCE_EVERY;
        }
        let started = Instant::now();
        let (snapshot, _key) = self.snapshot_and_key(&spec)?;
        let mut account = self.begin_query(&spec);
        if let Some(root) = account.root.as_mut() {
            root.attr("explain", if analyze { "analyze" } else { "plan" });
        }
        let relations: Vec<RelationPlanData> = snapshot
            .iter()
            .map(|relation| {
                let stats = relation.stats();
                RelationPlanData {
                    name: relation.name().to_string(),
                    cardinality: stats.cardinality as u64,
                    skew: stats.score_skewness,
                    discount: stats.cardinality as f64 / (1.0 + stats.score_skewness.max(0.0)),
                }
            })
            .collect();
        let prepared = {
            let plan_span = account
                .parent()
                .map(|(trace, root)| self.obs.recorder().child(trace, root, "plan"));
            let prepared = self.prepare_units(&spec, &snapshot);
            drop(plan_span);
            prepared
        };
        let (drive, units) = prepared?;
        let plan = merged_plan(&units);
        let unit_plans: Vec<UnitPlanData> = units
            .iter()
            .map(|u| UnitPlanData {
                shard: u.lane(),
                plan: u.plan.clone(),
            })
            .collect();
        let analyzed = if analyze {
            // Units reading shards that still carry unfolded deltas read
            // through delta-merged views — the profile's cache status
            // records it, in unit order like the outcomes.
            let delta_merged: Vec<bool> = units
                .iter()
                .map(|u| Self::reads_delta(&snapshot, drive, u.shard))
                .collect();
            let mut ctx = self.unit_context(&spec, &snapshot, drive, account.parent());
            ctx.use_unit_cache = false;
            let outcomes = fan_out_units(units, &ctx);
            let mut parts: Vec<Arc<RankJoinResult>> = Vec::with_capacity(outcomes.len());
            let mut profiles = Vec::with_capacity(outcomes.len());
            let mut unit_records = Vec::with_capacity(outcomes.len());
            for (outcome, delta_merged) in outcomes.into_iter().zip(delta_merged) {
                let outcome = outcome?;
                profiles.push(UnitProfileData {
                    shard: outcome.shard,
                    cache: if delta_merged {
                        "delta-merged"
                    } else {
                        "fresh"
                    },
                    remote: outcome.remote,
                    depths: outcome.result.sum_depths() as u64,
                    micros: outcome.elapsed.as_micros() as u64,
                    trajectory: outcome.result.trajectory().to_vec(),
                });
                unit_records.push(UnitRecord {
                    shard: outcome.shard,
                    sum_depths: outcome.result.sum_depths(),
                    latency: outcome.elapsed,
                });
                parts.push(outcome.result);
            }
            let result = merge_unit_parts(spec.k, parts, &ctx);
            let latency = started.elapsed();
            let total_sum_depths: u64 = profiles.iter().map(|u| u.depths).sum();
            let relation_indices: Vec<usize> = spec.relations.iter().map(|r| r.index()).collect();
            // Every unit ran fresh, so the merged result's depths are the
            // profiles' total.
            account.executed("bypass", &result, unit_records, &relation_indices, latency);
            Some(AnalyzeData {
                result,
                latency,
                total_sum_depths,
                units: profiles,
            })
        } else {
            None
        };
        Ok(ExplainData {
            plan,
            drive,
            k: spec.k,
            relations,
            units: unit_plans,
            analyzed,
        })
    }

    /// Opens a streaming query: results are certified and delivered one at a
    /// time (the paper's incremental pulling model), with backpressure.
    ///
    /// A fully drained stream populates the result cache just like a batch
    /// query; a cache hit replays the memoised combinations. Live streams run
    /// on a dedicated thread and take no run permit: their producer is
    /// consumer-paced (it blocks once it runs a few results
    /// ahead), and a slow or idle consumer must not hold a permit that
    /// batch queries wait for.
    pub fn stream(&self, spec: QuerySpec) -> Result<ResultStream, EngineError> {
        let started = Instant::now();
        let (snapshot, key) = self.snapshot_and_key(&spec)?;
        let account = self.begin_query(&spec);
        if let Some(execution) = self.cache.get(&key) {
            account.cache_hit(started.elapsed());
            let plan = execution.plan.clone();
            return Ok(ResultStream {
                inner: StreamInner::Replay {
                    execution,
                    cursor: 0,
                },
                plan,
                from_cache: true,
                error: None,
            });
        }

        let (drive, units) = {
            let plan_span = account
                .parent()
                .map(|(trace, root)| self.obs.recorder().child(trace, root, "plan"));
            let prepared = self.prepare_units(&spec, &snapshot);
            drop(plan_span);
            prepared?
        };
        let plan = merged_plan(&units);
        let k = spec.k;
        let relations: Vec<usize> = spec.relations.iter().map(|r| r.index()).collect();

        // Distributed streaming: per-shard units only exist when the
        // backend routes driving shards to remote workers. They are
        // executed to completion (in parallel, with replica failover and
        // the unit cache) and the exact merged top-K is replayed
        // incrementally — the delivery stops being access-incremental
        // across the network, the emitted rows do not change.
        if units.iter().any(|u| u.shard.is_some()) {
            let ctx = self.unit_context(&spec, &snapshot, drive, account.parent());
            let (result, unit_records) = run_units(units, k, &ctx)?;
            let latency = started.elapsed();
            account.executed("miss", &result, unit_records, &relations, latency);
            let execution = Arc::new(CachedExecution {
                result,
                plan: plan.clone(),
            });
            self.cache.insert(key, Arc::clone(&execution));
            return Ok(ResultStream {
                inner: StreamInner::Replay {
                    execution,
                    cursor: 0,
                },
                plan,
                from_cache: false,
                error: None,
            });
        }

        // In process there is exactly one unit. Start its incremental run
        // up front, so planning and bound-setup failures surface as typed
        // errors before a thread spawns.
        let unit = units.into_iter().next().expect("one in-process unit");
        let lane = unit.lane();
        let run = unit
            .plan
            .algorithm
            .start_streaming(unit.problem)
            .map_err(EngineError::Prj)?;
        let (sender, receiver) = sync_channel(STREAM_BUFFER);
        let finish = StreamFinish {
            cache: Arc::clone(&self.cache),
            account,
            key,
            plan: plan.clone(),
            relations,
        };
        std::thread::Builder::new()
            .name("prj-engine-stream".to_string())
            .spawn(move || {
                let panic_sender = sender.clone();
                let worker = std::panic::AssertUnwindSafe(move || {
                    Self::stream_single(lane, run, sender, finish);
                    // Dropping the sender closes the stream.
                });
                // A panicking run must be reported, not mistaken for clean
                // completion: the consumer would otherwise serve a
                // truncated stream as the full top-K.
                if std::panic::catch_unwind(worker).is_err() {
                    let _ = panic_sender.send(Err(EngineError::WorkerLost));
                }
            })
            .expect("spawn stream thread");
        Ok(ResultStream {
            inner: StreamInner::Live(receiver),
            plan,
            from_cache: false,
            error: None,
        })
    }

    /// The live streaming producer: one incremental run, drained into the
    /// channel, cached on completion.
    fn stream_single(
        lane: usize,
        mut run: StreamingRun<Arc<dyn ScoringSpec>>,
        sender: std::sync::mpsc::SyncSender<Result<ScoredCombination, EngineError>>,
        finish: StreamFinish,
    ) {
        while let Some(combo) = run.next_certified() {
            if sender.send(Ok(combo)).is_err() {
                // Consumer dropped the stream: abandon the run without
                // caching the partial result.
                return;
            }
        }
        let result = run.into_result();
        let units = vec![UnitRecord {
            shard: lane,
            sum_depths: result.stats.sum_depths(),
            latency: result.metrics.total_time,
        }];
        finish.complete(result, units);
    }

    /// Executes exactly one partitioned unit — shard `shard` of the
    /// relation at join position `drive` joined against whole views of the
    /// others — under a *pinned* plan. This is the worker-side entry point
    /// of distributed execution: the cluster coordinator plans the unit
    /// against its snapshot and ships `(drive, shard, algorithm, period)`
    /// plus the snapshot's epoch vectors; the worker replays it here
    /// against its replicated catalog.
    ///
    /// When `expected_epochs` is given, the worker's snapshot must match it
    /// exactly — otherwise the replica has missed (or over-run) a mutation
    /// and the unit answers [`EngineError::StaleReplica`] instead of
    /// computing an answer over different data.
    pub fn execute_unit(
        &self,
        spec: &QuerySpec,
        drive: usize,
        shard: usize,
        algorithm: Algorithm,
        dominance_period: Option<usize>,
        expected_epochs: Option<&[Vec<u64>]>,
    ) -> Result<(RankJoinResult, Duration), EngineError> {
        if spec.relations.is_empty() {
            return Err(EngineError::Prj(PrjError::NoRelations));
        }
        let snapshot = self.catalog.snapshot(&spec.relations)?;
        if drive >= snapshot.len() {
            return Err(EngineError::Degraded(format!(
                "drive index {drive} out of range for {} relations",
                snapshot.len()
            )));
        }
        if shard >= snapshot[drive].num_shards() {
            return Err(EngineError::StaleReplica(format!(
                "shard {shard} out of range: this engine partitions into {} shards",
                snapshot[drive].num_shards()
            )));
        }
        if let Some(expected) = expected_epochs {
            for (idx, relation) in snapshot.iter().enumerate() {
                let have = relation.epochs();
                if expected.get(idx) != Some(&have) {
                    return Err(EngineError::StaleReplica(format!(
                        "relation {} is at epochs {:?} here, the coordinator snapshot \
                         expected {:?}",
                        spec.relations[idx].index(),
                        have,
                        expected.get(idx),
                    )));
                }
            }
        }
        Self::validate_dimensions(spec, &snapshot)?;
        let reducible = spec.scoring.euclidean_weights().is_some();
        let query = Arc::new(spec.query.clone());
        let plan = Plan {
            algorithm,
            dominance_period,
            rationale: "pinned by the cluster coordinator".to_string(),
        };
        let mut unit =
            Self::build_unit(spec, &snapshot, &query, reducible, drive, Some(shard), plan)?;
        let started = Instant::now();
        let result = unit
            .plan
            .algorithm
            .run(&mut unit.problem)
            .map_err(EngineError::Prj)?;
        Ok((result, started.elapsed()))
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_access::{Tuple, TupleId};
    use prj_core::CosineSimilarityScore;

    fn table1() -> Vec<Vec<Tuple>> {
        let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        };
        vec![
            mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
            mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
            mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
        ]
    }

    fn table1_engine() -> (Engine, Vec<RelationId>) {
        let engine = EngineBuilder::default().threads(2).build();
        let ids = table1()
            .into_iter()
            .enumerate()
            .map(|(i, tuples)| engine.register(format!("R{}", i + 1), tuples))
            .collect();
        (engine, ids)
    }

    #[test]
    fn serves_the_paper_example() {
        let (engine, ids) = table1_engine();
        let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 1)
            .with_scoring(EuclideanLogScore::new(1.0, 1.0, 1.0));
        let result = engine.query(spec).expect("query");
        assert_eq!(result.combinations().len(), 1);
        // Example 3.1: the top combination scores -7.
        assert!((result.combinations()[0].score - (-7.0)).abs() < 0.05);
        assert!(!result.from_cache);
    }

    #[test]
    fn second_identical_query_hits_the_cache() {
        let (engine, ids) = table1_engine();
        let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 2);
        let cold = engine.query(spec.clone()).expect("cold");
        let warm = engine.query(spec).expect("warm");
        assert!(!cold.from_cache);
        assert!(warm.from_cache);
        assert_eq!(cold.combinations(), warm.combinations());
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.executed, 1);
        assert_eq!(engine.cache_metrics().hits, 1);
    }

    #[test]
    fn different_parameters_do_not_share_cache_entries() {
        let (engine, ids) = table1_engine();
        let base = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 2);
        engine.query(base.clone()).expect("first");
        let different_k = QuerySpec {
            k: 3,
            ..base.clone()
        };
        assert!(!engine.query(different_k).expect("k=3").from_cache);
        let different_q = QuerySpec {
            query: Vector::from([0.1, 0.0]),
            ..base.clone()
        };
        assert!(!engine.query(different_q).expect("moved q").from_cache);
        let different_w = base
            .clone()
            .with_scoring(EuclideanLogScore::new(2.0, 1.0, 1.0));
        assert!(!engine.query(different_w).expect("weights").from_cache);
        let pinned = base.with_algorithm(Algorithm::Cbrr);
        assert!(!engine.query(pinned).expect("pinned").from_cache);
    }

    #[test]
    fn mutation_invalidates_cached_results() {
        let (engine, ids) = table1_engine();
        let spec = QuerySpec::top_k(ids.clone(), Vector::from([0.0, 0.0]), 1);
        let cold = engine.query(spec.clone()).expect("cold");
        assert!(engine.query(spec.clone()).expect("warm").from_cache);

        // Append a perfect tuple right on the query point to R1: the old
        // memoised top-1 is now wrong and must not be served.
        engine
            .append_rows(ids[0], vec![(Vector::from([0.0, 0.0]), 1.0)])
            .expect("append");
        let fresh = engine.query(spec.clone()).expect("post-mutation");
        assert!(!fresh.from_cache, "mutation must invalidate the cache");
        assert!(
            fresh.combinations()[0].score > cold.combinations()[0].score,
            "the appended tuple improves the best combination"
        );
        assert_eq!(fresh.combinations()[0].tuples[0].id, TupleId::new(0, 2));
        // And the fresh result is itself cacheable under the new epoch.
        assert!(engine.query(spec).expect("re-warm").from_cache);
    }

    #[test]
    fn dropped_relations_fail_with_a_typed_error() {
        let (engine, ids) = table1_engine();
        engine.drop_relation(ids[1]).expect("drop");
        let spec = QuerySpec::top_k(ids.clone(), Vector::from([0.0, 0.0]), 1);
        match engine.query(spec) {
            Err(EngineError::Catalog(CatalogError::Dropped(index))) => {
                assert_eq!(index, ids[1].index())
            }
            other => panic!("expected a dropped-relation error, got {other:?}"),
        }
        // Double drop is also typed.
        assert!(matches!(
            engine.drop_relation(ids[1]),
            Err(EngineError::Catalog(CatalogError::Dropped(_)))
        ));
    }

    #[test]
    fn streaming_matches_batch_and_populates_cache() {
        let (engine, ids) = table1_engine();
        let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 8);
        let batch = engine.query(spec.clone()).expect("batch");
        engine.cache.clear();
        let mut stream = engine.stream(spec.clone()).expect("stream");
        let mut streamed = Vec::new();
        while let Some(combo) = stream.next_result() {
            streamed.push(combo);
        }
        assert_eq!(streamed.as_slice(), batch.combinations());
        // The drained stream cached its execution; a replayed stream agrees.
        let mut replay = engine.stream(spec).expect("replay");
        assert!(replay.from_cache);
        let mut replayed = Vec::new();
        while let Some(combo) = replay.next_result() {
            replayed.push(combo);
        }
        assert_eq!(replayed, streamed);
    }

    #[test]
    fn pinned_algorithm_is_respected() {
        let (engine, ids) = table1_engine();
        let spec =
            QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 1).with_algorithm(Algorithm::Cbrr);
        let result = engine.query(spec).expect("query");
        assert_eq!(result.plan().algorithm, Algorithm::Cbrr);
        assert!(result.plan().rationale.contains("pinned"));
    }

    #[test]
    fn cosine_scoring_is_served_with_corner_bound() {
        let engine = EngineBuilder::default().threads(1).build();
        let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        };
        let a = engine.register("a", mk(0, &[([0.5, 0.1], 0.9), ([0.0, 1.0], 0.8)]));
        let b = engine.register("b", mk(1, &[([0.8, 0.2], 0.7), ([-1.0, 0.1], 0.6)]));
        let spec = QuerySpec::top_k(vec![a, b], Vector::from([1.0, 0.0]), 1)
            .with_scoring(CosineSimilarityScore::default());
        let result = engine.query(spec).expect("cosine query");
        assert!(matches!(
            result.plan().algorithm,
            Algorithm::Cbrr | Algorithm::Cbpa
        ));
        assert_eq!(result.combinations().len(), 1);
    }

    #[test]
    fn registry_resolved_scoring_is_queryable() {
        let (engine, ids) = table1_engine();
        let scoring = engine
            .scoring_registry()
            .resolve("euclidean-log", &[1.0, 1.0, 1.0])
            .expect("builtin");
        let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 1).with_shared_scoring(scoring);
        let result = engine.query(spec).expect("query");
        assert!((result.combinations()[0].score - (-7.0)).abs() < 0.05);
    }

    #[test]
    fn sharded_engine_is_indistinguishable_through_results() {
        let (engine, _) = table1_engine();
        let baseline = {
            let ids = engine.catalog().all_ids();
            engine
                .query(QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 8))
                .expect("baseline")
        };
        for shards in [2, 4] {
            let sharded = EngineBuilder::default().threads(2).shards(shards).build();
            assert_eq!(sharded.shards(), shards);
            let ids: Vec<RelationId> = table1()
                .into_iter()
                .enumerate()
                .map(|(i, tuples)| sharded.register(format!("R{}", i + 1), tuples))
                .collect();
            let result = sharded
                .query(QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 8))
                .expect("sharded");
            assert_eq!(
                result.combinations(),
                baseline.combinations(),
                "shards={shards}"
            );
            // The per-shard lanes account for exactly the accesses made.
            let stats = sharded.stats();
            assert_eq!(
                stats.per_shard.iter().map(|l| l.sum_depths).sum::<u64>(),
                stats.total_sum_depths
            );
        }
    }

    /// 24 tuples spread over a grid, so several shards are populated.
    fn spread_tuples() -> Vec<Tuple> {
        (0..24)
            .map(|i| {
                Tuple::new(
                    TupleId::new(0, i),
                    Vector::from([(i % 6) as f64 * 2.0 - 5.0, (i / 6) as f64 * 2.0 - 3.0]),
                    0.2 + (i % 7) as f64 / 10.0,
                )
            })
            .collect()
    }

    #[test]
    fn sharded_plan_reports_the_partitioning() {
        // In process, shards are storage only: the S=4 plan is the S=1
        // plan. Only a remote backend splits the query into per-shard
        // units, and only then does the plan say so.
        let spec = |id| QuerySpec::top_k(vec![id], Vector::from([0.0, 0.0]), 3);
        let single = EngineBuilder::default().threads(1).build();
        let single_id = single.register("r", spread_tuples());
        let expected = single.query(spec(single_id)).expect("S=1 query");

        let engine = Arc::new(EngineBuilder::default().threads(1).shards(4).build());
        let populated = {
            let policy = engine.catalog().policy();
            spread_tuples()
                .iter()
                .map(|t| policy.shard_of(&t.vector))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(populated > 1, "test needs several populated shards");
        let id = engine.register("r", spread_tuples());
        let local = engine.query(spec(id)).expect("local S=4 query");
        assert_eq!(local.plan(), expected.plan());
        assert_eq!(local.fresh_units, 1);
        assert!(!local.plan().rationale.contains("partitioned over"));

        engine.set_remote_backend(InProcessBackend::new(&engine));
        let remote = engine.query(spec(id)).expect("partitioned query");
        assert!(
            remote
                .plan()
                .rationale
                .contains(&format!("partitioned over {populated} driving shards")),
            "rationale: {}",
            remote.plan().rationale
        );
        assert_eq!(remote.combinations(), expected.combinations());
    }

    #[test]
    fn units_share_one_query_allocation() {
        // White-box: preparing a partitioned execution must clone the query
        // vector once per query, not once per unit — every unit's problem
        // hangs on to the same `Arc<Vector>`. Only a cluster coordinator
        // prepares several units, so route them through a backend.
        let engine = Arc::new(EngineBuilder::default().threads(1).shards(4).build());
        engine.set_remote_backend(InProcessBackend::new(&engine));
        let id = engine.register("r", spread_tuples());
        let spec = QuerySpec::top_k(vec![id], Vector::from([0.0, 0.0]), 3);
        let snapshot = engine.catalog.snapshot(&spec.relations).expect("snapshot");
        let (_, units) = engine.prepare_units(&spec, &snapshot).expect("prepare");
        assert!(
            units.len() > 1,
            "expected several populated driving shards, got {}",
            units.len()
        );
        let first = units[0].problem.query_shared();
        for unit in &units[1..] {
            assert!(
                Arc::ptr_eq(first, unit.problem.query_shared()),
                "each unit must share the query allocation, not re-clone it"
            );
        }
    }

    #[test]
    fn invalid_query_reports_an_operator_error() {
        let (engine, ids) = table1_engine();
        let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 0);
        match engine.query(spec) {
            Err(EngineError::Prj(PrjError::InvalidK)) => {}
            other => panic!("expected InvalidK, got {other:?}"),
        }
    }

    #[test]
    fn zero_relation_query_is_a_typed_error_not_a_panic() {
        let (engine, _) = table1_engine();
        let spec = QuerySpec::top_k(Vec::new(), Vector::from([0.0, 0.0]), 3);
        match engine.query(spec.clone()) {
            Err(EngineError::Prj(PrjError::NoRelations)) => {}
            other => panic!("expected NoRelations, got {other:?}"),
        }
        match engine.stream(spec) {
            Err(EngineError::Prj(PrjError::NoRelations)) => {}
            other => panic!(
                "expected NoRelations from stream, got {:?}",
                other.as_ref().map(|_| "a stream")
            ),
        }
    }

    #[test]
    fn idle_shards_gain_no_unit_records() {
        // All tuples in one grid cell: only one driving shard is populated,
        // so exactly one lane may accumulate units.
        let engine = EngineBuilder::default().threads(1).shards(4).build();
        let tuples: Vec<Tuple> = (0..6)
            .map(|i| {
                Tuple::new(
                    TupleId::new(0, i),
                    Vector::from([0.1 + i as f64 * 0.05, 0.2]),
                    0.3 + i as f64 / 10.0,
                )
            })
            .collect();
        let id = engine.register("r", tuples);
        for k in 1..4 {
            engine
                .query(QuerySpec::top_k(vec![id], Vector::from([0.0, 0.0]), k))
                .expect("query");
        }
        let stats = engine.stats();
        let active: Vec<_> = stats.per_shard.iter().filter(|l| l.units > 0).collect();
        assert_eq!(active.len(), 1, "one populated shard, one active lane");
        assert_eq!(active[0].units, 3);
        assert_eq!(
            stats.per_shard.iter().map(|l| l.sum_depths).sum::<u64>(),
            stats.total_sum_depths
        );
    }
}
