//! The coordinator: the process clients talk to, with shard execution
//! fanned out to worker processes.
//!
//! A [`Coordinator`] owns the authoritative catalog (a normal sharded
//! [`Engine`]) and installs a `ClusterBackend` into it, so the engine's
//! executor ships per-driving-shard units over the [`WorkerPool`]'s
//! persistent `prj/2` connections instead of running them locally. Partial
//! results recombine through the engine's existing bound-aware merge
//! machinery, which is what makes distributed answers **bit-identical** to
//! single-process ones — the paper's stopping condition survives the merge
//! verbatim, so the differential harness can assert equality down to the
//! score bits.
//!
//! ## Failure matrix
//!
//! | failure | behaviour |
//! |---|---|
//! | worker unreachable / dies mid-unit | the unit retries on the shard's replicas in preference order; when none is left, the query fails with a typed `worker-unavailable` error — never a silently truncated result |
//! | replica at the wrong epochs | the worker answers `stale-epoch`; other replicas are tried, and the coordinator re-snapshots and retries the whole query once before surfacing the error |
//! | worker fails during mutation replication | the mutation is acked only after *every* worker applied it; a failure yields a typed `degraded` response and the lagging worker keeps answering `stale-epoch` (exactness is preserved; capacity is degraded until the worker is replaced) |
//! | topology change | bumps the generation, which is folded into every cache key: entries computed under the old layout become unreachable |

use crate::pool::WorkerPool;
use crate::topology::{ClusterTopology, ShardRouter};
use prj_api::{
    ApiError, ClientConfig, ErrorKind, MetricsReport, Request, Response, TraceContext, UnitOutcome,
    UnitRequest,
};
use prj_core::{RankJoinResult, RunMetrics, ScoredCombination};
use prj_engine::{
    obs, Dispatch, Engine, EngineBuilder, EngineError, RemoteUnitBackend, RemoteUnitCall,
    RequestHandler, Session,
};
use prj_geometry::Vector;
use prj_obs::{now_micros, Counter, Recorder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Builder for a [`Coordinator`].
pub struct CoordinatorBuilder {
    topology: ClusterTopology,
    threads: Option<usize>,
    cache_capacity: usize,
    unit_cache_capacity: usize,
    client: ClientConfig,
    slow_query_threshold: Option<Duration>,
    delta_threshold: usize,
}

impl CoordinatorBuilder {
    /// Engine query runs that may execute at once (default: available
    /// parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Whole-query result-cache capacity (default 1024).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Per-shard unit-cache capacity (default 4096).
    pub fn unit_cache_capacity(mut self, capacity: usize) -> Self {
        self.unit_cache_capacity = capacity;
        self
    }

    /// Worker-connection config (timeouts, retries, backoff). The default
    /// bounds every read and write at 30 s so one hung worker cannot wedge
    /// a query forever.
    pub fn client_config(mut self, config: ClientConfig) -> Self {
        self.client = config;
        self
    }

    /// Queries slower than `threshold` dump their stitched trace to stderr
    /// (default: disabled).
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Delta-shard ingest threshold for the coordinator's *local* catalog
    /// (default 0 = immediate COW rebuilds). Replication is unaffected:
    /// workers fold their own deltas on their own schedule, and the epoch
    /// vectors stay equivalent either way because delta appends bump epochs
    /// exactly like rebuild appends.
    pub fn delta_threshold(mut self, threshold: usize) -> Self {
        self.delta_threshold = threshold;
        self
    }

    /// Builds the coordinator and verifies the fleet: every worker must be
    /// reachable, speak `prj/2`, partition into the same shard count, and
    /// start with an empty catalog (replication replays through this
    /// coordinator only). Each worker is then told its shard assignment.
    ///
    /// # Errors
    /// A typed [`ApiError`] naming the offending worker.
    pub fn build(self) -> Result<Coordinator, ApiError> {
        let mut engine = EngineBuilder::default()
            .cache_capacity(self.cache_capacity)
            .unit_cache_capacity(self.unit_cache_capacity)
            .slow_query_threshold(self.slow_query_threshold)
            .delta_threshold(self.delta_threshold)
            .shards(self.topology.shards());
        if let Some(threads) = self.threads {
            engine = engine.threads(threads);
        }
        let engine = Arc::new(engine.build());
        let session = Session::new(Arc::clone(&engine));
        let pool = Arc::new(WorkerPool::new(
            self.topology.workers().to_vec(),
            self.client,
        ));
        let router = Arc::new(self.topology.router());
        let coordinator = Coordinator {
            engine: Arc::clone(&engine),
            session,
            pool: Arc::clone(&pool),
            router: Arc::clone(&router),
            mutations: Mutex::new(()),
            replication_lag_micros: AtomicU64::new(0),
        };
        coordinator.verify_workers()?;
        let registry = engine.obs().registry();
        engine.set_remote_backend(Arc::new(ClusterBackend {
            pool,
            router,
            recorder: Arc::clone(engine.recorder()),
            remote_units: registry.counter("prj_remote_units_total", &[]),
            failovers: registry.counter("prj_failovers_total", &[]),
        }));
        Ok(coordinator)
    }
}

/// The coordinator process's request handler; see the module docs.
pub struct Coordinator {
    engine: Arc<Engine>,
    session: Session,
    pool: Arc<WorkerPool>,
    router: Arc<ShardRouter>,
    /// Serialises mutations so local-apply + fleet-replication is atomic
    /// with respect to other mutations (queries are never blocked here).
    mutations: Mutex<()>,
    /// Wall time the last mutation spent waiting for fleet acks — the
    /// health model's replication-lag signal (µs; 0 before any mutation).
    replication_lag_micros: AtomicU64,
}

impl Coordinator {
    /// A builder over `topology`.
    pub fn builder(topology: ClusterTopology) -> CoordinatorBuilder {
        CoordinatorBuilder {
            topology,
            threads: None,
            cache_capacity: 1024,
            unit_cache_capacity: 4096,
            client: ClientConfig::with_timeouts(Duration::from_secs(30)),
            slow_query_threshold: None,
            delta_threshold: 0,
        }
    }

    /// The engine owning the authoritative catalog.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The compiled shard routing table.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Routes one request to a single response, draining streams — the
    /// coordinator-side analogue of [`Session::handle`] for in-process
    /// embedders and self-checks.
    pub fn dispatch_one(&self, request: Request) -> Response {
        match self.dispatch_request(request) {
            Dispatch::One(response) => response,
            Dispatch::Stream(mut stream) => {
                let mut rows = Vec::new();
                while let Some(row) = stream.next_row() {
                    rows.push(row);
                }
                if let Some(error) = stream.error() {
                    return Response::Error(error);
                }
                let algorithm = stream.algorithm().to_string();
                Response::Results {
                    rows,
                    from_cache: stream.from_cache(),
                    algorithm,
                }
            }
            // A bare coordinator has no subscription front-end (prj-serve
            // wraps it in `Subscribing`); like `Session::handle`, return
            // the ack and let the dropped feed self-unsubscribe.
            Dispatch::Subscribed { ack, .. } => ack,
        }
    }

    fn verify_workers(&self) -> Result<(), ApiError> {
        for w in 0..self.pool.len() {
            let report = self
                .pool
                .with_conn(w, |c| c.stats())
                .map_err(|e| at_worker(self.pool.addr(w), e))?;
            if report.shards != self.router.shards() {
                return Err(ApiError::new(
                    ErrorKind::Degraded,
                    format!(
                        "worker {} partitions into {} shards, topology says {}; \
                         start it with --shards {}",
                        self.pool.addr(w),
                        report.shards,
                        self.router.shards(),
                        self.router.shards(),
                    ),
                ));
            }
            if report.relations != 0 {
                return Err(ApiError::new(
                    ErrorKind::Degraded,
                    format!(
                        "worker {} already holds {} relations; workers must start \
                         empty (their catalogs replicate through this coordinator)",
                        self.pool.addr(w),
                        report.relations,
                    ),
                ));
            }
            let assignment = Request::ShardAssignment {
                generation: self.router.generation(),
                shards: self.router.shards_of(w),
            };
            self.pool
                .with_conn(w, |c| c.call(&assignment))
                .map_err(|e| at_worker(self.pool.addr(w), e))?;
        }
        Ok(())
    }

    /// Applies a catalog mutation locally, then replicates it to **every**
    /// worker before acking — full replication is what lets any worker
    /// execute any unit (driving shards need their slice, non-driving
    /// relations are read whole). Replication failures come back as typed
    /// `degraded` errors; the lagging worker's epoch checks keep exactness
    /// intact until the fleet is repaired.
    fn mutate(&self, request: Request) -> Response {
        let _serialised = self.mutations.lock().expect("mutation lock");
        let local = self.session.handle(request.clone());
        if matches!(local, Response::Error(_)) {
            return local;
        }
        // Replicate to every worker *in parallel*: the mutation mutex is
        // held for the slowest worker's round-trip, not the sum of all of
        // them — one hung worker costs its timeout once, fleet-wide.
        let replication_started = Instant::now();
        let outcomes: Vec<(usize, Result<Response, ApiError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.pool.len())
                .map(|w| {
                    let request = &request;
                    scope.spawn(move || (w, self.pool.with_conn(w, |c| c.call(request))))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replication thread"))
                .collect()
        });
        // The slowest ack bounds the lag (the scope joins every worker).
        self.replication_lag_micros.store(
            replication_started.elapsed().as_micros() as u64,
            Ordering::Relaxed,
        );
        for (w, remote) in outcomes {
            let verified = match remote {
                Err(e) => Err(e),
                Ok(remote) => {
                    if mutation_matches(&local, &remote) {
                        Ok(())
                    } else {
                        Err(ApiError::new(
                            ErrorKind::Degraded,
                            format!(
                                "replica diverged: coordinator answered {local:?}, \
                                 worker answered {remote:?}"
                            ),
                        ))
                    }
                }
            };
            if let Err(e) = verified {
                return Response::Error(ApiError::new(
                    ErrorKind::Degraded,
                    format!(
                        "mutation applied locally but replication to worker {} failed \
                         ({}); the worker is stale until replaced — queries remain \
                         exact via its replicas",
                        self.pool.addr(w),
                        e,
                    ),
                ));
            }
        }
        local
    }

    /// The engine's own stats, with the fleet's worker-side lanes folded
    /// in: `worker_shard_depths[s]` / `worker_shard_micros[s]` sum every
    /// worker's per-shard unit accounting — measured where the units
    /// actually ran, unlike `shard_depths`, which the coordinator measures
    /// around the round trip. A dead worker degrades the lanes (its share
    /// is missing), never the verb.
    fn cluster_stats(&self) -> Response {
        let response = self.session.handle(Request::Stats);
        let Response::Stats(mut report) = response else {
            return response;
        };
        let shards = self.router.shards();
        let mut depths = vec![0u64; shards];
        let mut micros = vec![0u64; shards];
        let mut reachable = false;
        for w in 0..self.pool.len() {
            let Ok(Response::WorkerReport {
                lane_depths,
                lane_micros,
                ..
            }) = self.pool.with_conn(w, |c| c.call(&Request::WorkerStats))
            else {
                continue;
            };
            reachable = true;
            for (shard, d) in lane_depths.iter().enumerate().take(shards) {
                depths[shard] += d;
            }
            for (shard, m) in lane_micros.iter().enumerate().take(shards) {
                micros[shard] += m;
            }
        }
        if reachable {
            report.worker_shard_depths = depths;
            report.worker_shard_micros = micros;
        }
        Response::Stats(report)
    }

    /// The coordinator's metrics snapshot with every reachable worker's
    /// folded in, series distinguished by an `instance` label
    /// (`coordinator`, `worker0`, `worker1`, …).
    pub fn metrics_report(&self) -> MetricsReport {
        let mut samples = obs::to_api_samples(&self.engine.metrics_samples());
        for sample in &mut samples {
            sample
                .labels
                .insert(0, ("instance".to_string(), "coordinator".to_string()));
        }
        for w in 0..self.pool.len() {
            let Ok(report) = self.pool.with_conn(w, |c| c.metrics()) else {
                continue;
            };
            let instance = format!("worker{w}");
            for mut sample in report.samples {
                sample
                    .labels
                    .insert(0, ("instance".to_string(), instance.clone()));
                samples.push(sample);
            }
        }
        MetricsReport { samples }
    }

    /// Queries retry once on a stale-replica verdict: the coordinator
    /// re-snapshots (picking up whatever mutation the first attempt raced
    /// with) and re-dispatches. A second stale verdict surfaces to the
    /// client, which may retry at its own pace.
    fn query_with_retry(&self, request: Request) -> Dispatch {
        match self.session.dispatch(request.clone()) {
            Dispatch::One(Response::Error(e)) if e.kind == ErrorKind::StaleEpoch => {
                self.session.dispatch(request)
            }
            other => other,
        }
    }

    /// The cluster health report: the local engine's base signals enriched
    /// with the coordinator role, the last mutation's replication ack lag,
    /// and a live probe of every worker (readiness = all reachable).
    pub fn cluster_health(&self) -> prj_api::HealthReport {
        let mut health = self.session.base_health();
        health.role = "coordinator".to_string();
        health.replication_lag_micros = self.replication_lag_micros.load(Ordering::Relaxed);
        let mut all_reachable = true;
        health.workers = (0..self.pool.len())
            .map(|w| {
                let reachable = self.pool.with_conn(w, |c| c.stats()).is_ok();
                all_reachable &= reachable;
                prj_api::WorkerHealth {
                    addr: self.pool.addr(w).to_string(),
                    reachable,
                    idle_connections: self.pool.idle_len(w),
                }
            })
            .collect();
        health.ready = all_reachable;
        health
    }
}

impl RequestHandler for Coordinator {
    fn dispatch_request(&self, request: Request) -> Dispatch {
        match request {
            Request::RegisterRelation { .. }
            | Request::AppendTuples { .. }
            | Request::DropRelation { .. } => Dispatch::One(self.mutate(request)),
            Request::TopK(_) | Request::Stream(_) => self.query_with_retry(request),
            Request::Stats => Dispatch::One(self.cluster_stats()),
            Request::Metrics => Dispatch::One(Response::Metrics(self.metrics_report())),
            Request::Health => Dispatch::One(Response::Health(self.cluster_health())),
            // Explain and the trace verbs run through the plain session:
            // its engine *is* the cluster engine (remote units, stitched
            // spans), so EXPLAIN ANALYZE profiles remote execution and a
            // fetched trace is already whole-cluster.
            other => self.session.dispatch(other),
        }
    }
}

fn at_worker(addr: &str, e: ApiError) -> ApiError {
    ApiError::new(ErrorKind::WorkerUnavailable, format!("worker {addr}: {e}"))
}

/// `true` when a worker's answer to a replicated mutation matches the
/// coordinator's — same id, same epoch, same cardinality — i.e. the
/// replicas stayed in lockstep.
fn mutation_matches(local: &Response, remote: &Response) -> bool {
    local == remote
}

/// The [`RemoteUnitBackend`] implementation: ships units over the pool,
/// failing over across the shard's replicas.
struct ClusterBackend {
    pool: Arc<WorkerPool>,
    router: Arc<ShardRouter>,
    recorder: Arc<Recorder>,
    remote_units: Arc<Counter>,
    failovers: Arc<Counter>,
}

impl ClusterBackend {
    fn wire_request(call: &RemoteUnitCall) -> UnitRequest {
        UnitRequest {
            relations: call
                .relations
                .iter()
                .map(|id| prj_api::RelationRef::Id(id.index()))
                .collect(),
            epochs: call.epochs.clone(),
            drive: call.drive,
            shard: call.shard,
            query: call.query.as_slice().to_vec(),
            k: call.k,
            scoring: call.selector.clone(),
            access: call.access_kind,
            algorithm: call.algorithm,
            dominance_period: call.dominance_period,
            convergence: call.convergence,
            trace: call.trace.map(|(trace, parent)| TraceContext {
                trace: trace.as_u64(),
                parent: parent.as_u64(),
            }),
        }
    }

    /// Stitches the worker's shipped spans into the query's trace, beneath
    /// the coordinator-side `unit` span that dispatched the call. Worker
    /// clocks don't align with ours, so the batch is re-based to end at
    /// the import instant — relative durations survive exactly.
    fn import_spans(&self, call: &RemoteUnitCall, outcome: &UnitOutcome) {
        let Some((trace, unit_span)) = call.trace else {
            return;
        };
        let spans = obs::to_remote_spans(&outcome.spans);
        if spans.is_empty() {
            return;
        }
        let earliest = spans.iter().map(|s| s.start_micros).min().unwrap_or(0);
        let latest = spans
            .iter()
            .map(|s| s.start_micros + s.duration_micros)
            .max()
            .unwrap_or(0);
        let attach = now_micros().saturating_sub(latest.saturating_sub(earliest));
        self.recorder.import(trace, unit_span, attach, &spans);
    }
}

impl RemoteUnitBackend for ClusterBackend {
    fn generation(&self) -> u64 {
        self.router.generation()
    }

    fn routes(&self, _shard: usize) -> bool {
        // Full replication: every shard's unit can (and does) run remotely.
        !self.pool.is_empty()
    }

    fn execute(&self, call: &RemoteUnitCall) -> Result<RankJoinResult, EngineError> {
        let request = Self::wire_request(call);
        let owners = self.router.owners(call.shard);
        let mut failures: Vec<String> = Vec::new();
        let mut any_stale = false;
        for &w in owners {
            // Units are idempotent reads, so a transport failure earns one
            // same-worker retry: the first attempt may merely have burned a
            // connection that went stale in the pool (e.g. the worker
            // restarted); the retry dials fresh. Typed answers are real
            // verdicts and move straight to the next replica.
            let mut last_kind = None;
            for attempt in 0..2 {
                match self.pool.with_conn(w, |c| c.execute_unit(request.clone())) {
                    Ok(outcome) => {
                        self.remote_units.inc();
                        self.import_spans(call, &outcome);
                        return rehydrate(call.relations.len(), outcome).map_err(|e| {
                            EngineError::Degraded(format!(
                                "worker {} returned an unusable unit result: {e}",
                                self.pool.addr(w)
                            ))
                        });
                    }
                    Err(e) => {
                        let transport = matches!(e.kind, ErrorKind::Io | ErrorKind::Malformed);
                        any_stale |= e.kind == ErrorKind::StaleEpoch;
                        last_kind = Some(e.kind);
                        failures.push(format!(
                            "{} (attempt {}) => {e}",
                            self.pool.addr(w),
                            attempt + 1
                        ));
                        if !transport {
                            break;
                        }
                    }
                }
            }
            // This replica is out: the unit fails over to the next owner
            // (or surfaces the error). Count it, and pin the event into
            // the query's trace under the dispatching `unit` span.
            self.failovers.inc();
            if let Some((trace, unit_span)) = call.trace {
                self.recorder.event(
                    trace,
                    Some(unit_span),
                    "failover",
                    vec![
                        ("worker".to_string(), self.pool.addr(w).to_string()),
                        ("shard".to_string(), call.shard.to_string()),
                        (
                            "error".to_string(),
                            last_kind.map(|k| k.code().to_string()).unwrap_or_default(),
                        ),
                    ],
                );
            }
        }
        let detail = failures.join("; ");
        if any_stale {
            // At least one replica holds the data but at different epochs
            // (e.g. it is mid-replication): a fresh snapshot may succeed,
            // so classify for the coordinator's re-snapshot retry even if
            // *other* replicas failed on transport — a dead sibling must
            // not demote a retriable verdict into a terminal one.
            Err(EngineError::StaleReplica(detail))
        } else {
            Err(EngineError::WorkerUnavailable {
                shard: call.shard,
                detail,
            })
        }
    }
}

/// Rebuilds a worker's [`UnitOutcome`] into the exact [`RankJoinResult`] a
/// local run of the same unit would have produced: tuples rehydrated from
/// their wire contents (floats round-trip bit-exactly), per-relation access
/// depths, and the unit's final bound — everything the bound-aware merge
/// and the certification check consume.
fn rehydrate(arity: usize, outcome: UnitOutcome) -> Result<RankJoinResult, ApiError> {
    if outcome.depths.len() != arity {
        return Err(ApiError::new(
            ErrorKind::Malformed,
            format!(
                "unit result tracks {} relations, expected {arity}",
                outcome.depths.len()
            ),
        ));
    }
    let combinations = outcome
        .rows
        .into_iter()
        .map(|row| {
            if row.members.len() != arity {
                return Err(ApiError::new(
                    ErrorKind::Malformed,
                    format!(
                        "unit row has {} members, expected {arity}",
                        row.members.len()
                    ),
                ));
            }
            Ok(ScoredCombination::new(
                row.members
                    .into_iter()
                    .map(|m| {
                        prj_access::Tuple::new(
                            prj_access::TupleId::new(m.relation, m.index),
                            Vector::new(m.coords),
                            m.score,
                        )
                    })
                    .collect(),
                row.score,
            ))
        })
        .collect::<Result<Vec<_>, ApiError>>()?;
    Ok(RankJoinResult {
        combinations,
        stats: prj_access::AccessStats::from_depths(
            outcome.depths.iter().map(|&d| d as usize).collect(),
        ),
        metrics: RunMetrics {
            total_time: Duration::from_micros(outcome.micros),
            bound_updates: outcome.bound_updates as usize,
            combinations_formed: outcome.combinations_formed as usize,
            final_bound: outcome.final_bound,
            hit_access_cap: outcome.capped,
            // The worker's sampled bound-convergence trajectory survives
            // the wire, so EXPLAIN ANALYZE profiles remote units too.
            trajectory: outcome
                .trajectory
                .iter()
                .map(|p| prj_core::TrajectoryPoint {
                    depth: p.depth,
                    kth_score: p.kth_score,
                    bound: p.bound,
                })
                .collect(),
            ..RunMetrics::default()
        },
    })
}
