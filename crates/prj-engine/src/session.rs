//! The session: the engine's `prj-api` entry point.
//!
//! A [`Session`] owns the client-facing defaults — scoring function, `k`,
//! sorted-access kind, optionally a pinned algorithm — and routes
//! [`prj_api::Request`]s to an [`Engine`], translating between the
//! protocol's name-based world (relation names, scoring selectors, raw
//! tuple rows) and the engine's resolved one (relation ids, shared
//! [`ScoringSpec`] instances, tagged tuples). All engine failures are
//! mapped to typed [`prj_api::ApiError`]s at this boundary; a session never
//! panics on malformed input.
//!
//! Transports stay thin: the in-process caller and the `prj-serve` TCP
//! front-end both push requests through [`Session::dispatch`] and only
//! differ in where the [`Response`]s are written.

use crate::catalog::{CatalogError, RelationId};
use crate::engine::{Engine, EngineError, ExplainData, QuerySpec, ResultStream};
use crate::obs::QueryTrace;
use prj_access::AccessKind;
use prj_api::response::TrajectorySample;
use prj_api::{
    AnalyzeReport, ApiError, ErrorKind, ExplainReport, HealthReport, MetricsReport, QueryRequest,
    RelationPlanStat, RelationRef, Request, Response, ResultRow, StatsReport, TraceSummary,
    TupleData, UnitPlanReport, UnitProfile,
};
use prj_core::{Algorithm, EuclideanLogScore, PrjError, ScoredCombination, ScoringSpec};
use prj_geometry::Vector;
use prj_obs::{SpanId, TraceId};
use std::sync::Arc;

impl From<EngineError> for ApiError {
    fn from(e: EngineError) -> ApiError {
        let message = e.to_string();
        let kind = match &e {
            EngineError::Catalog(c) => match c {
                CatalogError::UnknownId(_) | CatalogError::UnknownName(_) => {
                    ErrorKind::UnknownRelation
                }
                CatalogError::Dropped(_) => ErrorKind::RelationDropped,
                CatalogError::DimensionMismatch { .. } => ErrorKind::InvalidQuery,
            },
            EngineError::UnknownScoring(_) => ErrorKind::UnknownScoring,
            EngineError::InvalidScoringParams { .. } => ErrorKind::InvalidParams,
            EngineError::Prj(p) => match p {
                PrjError::InvalidK | PrjError::NoRelations | PrjError::DimensionMismatch { .. } => {
                    ErrorKind::InvalidQuery
                }
                _ => ErrorKind::Operator,
            },
            EngineError::WorkerUnavailable { .. } => ErrorKind::WorkerUnavailable,
            EngineError::Degraded(_) => ErrorKind::Degraded,
            EngineError::StaleReplica(_) => ErrorKind::StaleEpoch,
            EngineError::WorkerLost => ErrorKind::Internal,
        };
        ApiError::new(kind, message)
    }
}

/// Builder for a [`Session`]'s defaults.
pub struct SessionBuilder {
    engine: Arc<Engine>,
    default_k: usize,
    default_scoring: Arc<dyn ScoringSpec>,
    default_selector: Option<prj_api::ScoringSelector>,
    default_access: AccessKind,
    default_algorithm: Option<Algorithm>,
}

impl SessionBuilder {
    /// Default `K` for queries that do not specify one (initially 10).
    pub fn default_k(mut self, k: usize) -> Self {
        self.default_k = k;
        self
    }

    /// Default scoring function (initially Eq. 2 with unit weights). An
    /// ad-hoc instance has no registry identity, so unpinned queries under
    /// it are not remotely executable — prefer
    /// [`SessionBuilder::default_scoring_named`] on cluster coordinators.
    pub fn default_scoring(mut self, scoring: impl ScoringSpec + 'static) -> Self {
        self.default_scoring = Arc::new(scoring);
        self.default_selector = None;
        self
    }

    /// Default scoring resolved from the engine's registry by name.
    ///
    /// # Errors
    /// Whatever the registry reports for the name/parameters.
    pub fn default_scoring_named(
        mut self,
        name: &str,
        params: &[f64],
    ) -> Result<Self, EngineError> {
        self.default_scoring = self.engine.scoring_registry().resolve(name, params)?;
        self.default_selector = Some(prj_api::ScoringSelector::with_params(name, params));
        Ok(self)
    }

    /// Default sorted-access kind (initially distance-based).
    pub fn default_access(mut self, access: AccessKind) -> Self {
        self.default_access = access;
        self
    }

    /// Pin every unpinned query to `algorithm` instead of consulting the
    /// planner.
    pub fn default_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.default_algorithm = Some(algorithm);
        self
    }

    /// Builds the session.
    pub fn build(self) -> Session {
        Session {
            engine: self.engine,
            default_k: self.default_k,
            default_scoring: self.default_scoring,
            default_selector: self.default_selector,
            default_access: self.default_access,
            default_algorithm: self.default_algorithm,
        }
    }
}

/// A streaming dispatch in progress: rows are pulled one at a time out of
/// the engine's incremental run (with backpressure), already translated to
/// protocol [`ResultRow`]s.
pub struct SessionStream {
    stream: ResultStream,
    delivered: usize,
}

impl SessionStream {
    /// The next certified row, or `None` once the stream is over — either
    /// exhausted or failed; check [`SessionStream::error`] before treating
    /// the drained rows as the full top-K.
    pub fn next_row(&mut self) -> Option<ResultRow> {
        let combo = self.stream.next_result()?;
        self.delivered += 1;
        Some(to_row(&combo))
    }

    /// The typed error that terminated the stream, if the engine-side run
    /// failed instead of completing.
    pub fn error(&self) -> Option<ApiError> {
        self.stream.error().cloned().map(ApiError::from)
    }

    /// Rows delivered so far.
    pub fn delivered(&self) -> usize {
        self.delivered
    }

    /// Whether the stream replays a cached execution.
    pub fn from_cache(&self) -> bool {
        self.stream.from_cache
    }

    /// Short id of the algorithm the stream runs under.
    pub fn algorithm(&self) -> &'static str {
        self.stream.plan.algorithm.id()
    }
}

/// The outcome of [`Session::dispatch`]: a single response, a stream the
/// transport drains at its own pace, or an accepted subscription.
pub enum Dispatch {
    /// One response line.
    One(Response),
    /// An open result stream ([`Request::Stream`] on a cache miss or hit).
    Stream(SessionStream),
    /// An accepted [`Request::Subscribe`]: the transport writes `ack`
    /// (a [`Response::Subscribed`]) immediately, then forwards every
    /// [`Response::Notify`] arriving on `feed` until the sender closes —
    /// interleaved with ordinary responses on the same connection. Only
    /// subscription-capable handlers (`prj-sub`'s `Subscribing` wrapper)
    /// produce this variant; a plain [`Session`] answers `subscribe` with
    /// a typed `Unsupported` error instead.
    Subscribed {
        /// The `Response::Subscribed` acknowledgement, carrying the
        /// subscription id and the initial certified top-K.
        ack: Response,
        /// The push feed: one `Response::Notify` per delivered change
        /// batch; closed (sender dropped) when the subscription ends.
        feed: std::sync::mpsc::Receiver<Response>,
    },
}

/// A serving session over an [`Engine`]; see the module docs.
pub struct Session {
    engine: Arc<Engine>,
    default_k: usize,
    default_scoring: Arc<dyn ScoringSpec>,
    default_selector: Option<prj_api::ScoringSelector>,
    default_access: AccessKind,
    default_algorithm: Option<Algorithm>,
}

impl Session {
    /// A session with the standard defaults (`k = 10`, Eq. 2 scoring with
    /// unit weights, distance-based access, planner-chosen algorithms).
    pub fn new(engine: Arc<Engine>) -> Session {
        Session::builder(engine).build()
    }

    /// A builder for custom defaults.
    pub fn builder(engine: Arc<Engine>) -> SessionBuilder {
        SessionBuilder {
            engine,
            default_k: 10,
            default_scoring: Arc::new(EuclideanLogScore::default()),
            // The default scoring *is* the registry's euclidean-log with
            // default weights, so default queries stay remotely executable.
            default_selector: Some(prj_api::ScoringSelector::named("euclidean-log")),
            default_access: AccessKind::Distance,
            default_algorithm: None,
        }
    }

    /// The engine this session serves.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Routes one request. Failures come back as
    /// [`Dispatch::One`]`(`[`Response::Error`]`)` — never as a panic — so
    /// transports can forward them verbatim.
    pub fn dispatch(&self, request: Request) -> Dispatch {
        match self.try_dispatch(request) {
            Ok(dispatch) => dispatch,
            Err(e) => Dispatch::One(Response::Error(e)),
        }
    }

    /// Routes one request to a single response; a [`Request::Stream`] is
    /// drained to completion first (use [`Session::dispatch`] from
    /// transports that want to forward rows incrementally).
    pub fn handle(&self, request: Request) -> Response {
        match self.dispatch(request) {
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
            // A one-shot caller can't drain a push feed; returning the ack
            // alone keeps `handle` total (the feed is dropped, which the
            // subscription manager observes as a send failure and treats
            // as an unsubscribe).
            Dispatch::Subscribed { ack, .. } => ack,
        }
    }

    fn try_dispatch(&self, request: Request) -> Result<Dispatch, ApiError> {
        Ok(Dispatch::One(match request {
            Request::RegisterRelation { name, tuples } => {
                if !prj_api::wire::is_wire_safe_name(&name) {
                    return Err(ApiError::new(
                        ErrorKind::InvalidQuery,
                        format!("relation name {name:?} is not wire-safe ([A-Za-z0-9_.-]+)"),
                    ));
                }
                let rows = to_rows(tuples)?;
                let (id, cardinality) = self
                    .engine
                    .catalog()
                    .register_rows(&name, rows)
                    .map_err(EngineError::Catalog)?;
                Response::Registered {
                    id: id.index(),
                    name,
                    epoch: 0,
                    cardinality,
                }
            }
            Request::AppendTuples { relation, tuples } => {
                let id = self.resolve_relation(&relation)?;
                let outcome = self.engine.append_rows(id, to_rows(tuples)?)?;
                Response::Appended {
                    id: outcome.id.index(),
                    epoch: outcome.epoch,
                    cardinality: outcome.cardinality,
                }
            }
            Request::DropRelation { relation } => {
                let id = self.resolve_relation(&relation)?;
                let outcome = self.engine.drop_relation(id)?;
                Response::Dropped {
                    id: outcome.id.index(),
                    epoch: outcome.epoch,
                }
            }
            Request::TopK(query) => {
                let spec = self.build_spec(query)?;
                let result = self.engine.query(spec)?;
                Response::Results {
                    rows: result.combinations().iter().map(to_row).collect(),
                    from_cache: result.from_cache,
                    algorithm: result.plan().algorithm.id().to_string(),
                }
            }
            Request::Stream(query) => {
                let spec = self.build_spec(query)?;
                let stream = self.engine.stream(spec)?;
                return Ok(Dispatch::Stream(SessionStream {
                    stream,
                    delivered: 0,
                }));
            }
            Request::Hello { max_version } if max_version < prj_api::PROTOCOL_VERSION => {
                return Err(ApiError::new(
                    ErrorKind::Version,
                    format!(
                        "peer speaks up to prj/{max_version}, this build speaks prj/{}",
                        prj_api::PROTOCOL_VERSION
                    ),
                ));
            }
            Request::Hello { .. } => Response::HelloAck {
                version: prj_api::PROTOCOL_VERSION,
            },
            // Cluster-internal requests are only served by a cluster
            // worker (`prj-cluster`'s WorkerSession); answering with a
            // typed error instead of dropping the connection lets a
            // misdirected coordinator diagnose itself.
            Request::ExecuteUnit(_) | Request::ShardAssignment { .. } | Request::WorkerStats => {
                return Err(ApiError::new(
                    ErrorKind::Unsupported,
                    "this endpoint is not a cluster worker; start it with prj-serve --worker",
                ));
            }
            Request::Stats => {
                let stats = self.engine.stats();
                let cache = self.engine.cache_metrics();
                Response::Stats(StatsReport {
                    queries: stats.queries,
                    cache_hits: stats.cache_hits,
                    executed: stats.executed,
                    relations: self.engine.catalog().live_len(),
                    cache_entries: cache.entries,
                    cache_invalidations: cache.invalidations,
                    total_sum_depths: stats.total_sum_depths,
                    shards: self.engine.shards(),
                    shard_depths: stats.per_shard.iter().map(|l| l.sum_depths).collect(),
                    shard_micros: stats
                        .per_shard
                        .iter()
                        .map(|l| l.total_latency.as_micros() as u64)
                        .collect(),
                    // A plain session serves no remote units; the cluster
                    // coordinator's handler fills these lanes in.
                    worker_shard_depths: Vec::new(),
                    worker_shard_micros: Vec::new(),
                })
            }
            Request::Metrics => Response::Metrics(MetricsReport {
                samples: crate::obs::to_api_samples(&self.engine.metrics_samples()),
            }),
            // Standing queries need a push-capable front-end that owns the
            // connection's write half; `prj-sub`'s `Subscribing` wrapper
            // intercepts these before they reach a plain session.
            Request::Subscribe(_) | Request::Unsubscribe { .. } => {
                return Err(ApiError::new(
                    ErrorKind::Unsupported,
                    "this endpoint does not serve standing queries; \
                     start it with a subscription-capable front-end",
                ));
            }
            Request::Explain { query, analyze } => {
                let spec = self.build_spec(query)?;
                let data = self.engine.explain(spec, analyze)?;
                Response::Explain(to_explain_report(data))
            }
            Request::FetchTrace { trace } => {
                let stored = TraceId::from_u64(trace)
                    .and_then(|id| self.engine.obs().trace_store().fetch(id))
                    .ok_or_else(|| {
                        ApiError::new(
                            ErrorKind::InvalidQuery,
                            format!("no retained trace {trace} (expired or never sampled)"),
                        )
                    })?;
                Response::Trace {
                    trace,
                    class: stored.class.as_str().to_string(),
                    spans: crate::obs::to_api_spans(&stored.spans),
                }
            }
            Request::ListTraces => Response::Traces {
                traces: self
                    .engine
                    .obs()
                    .trace_store()
                    .list()
                    .into_iter()
                    .map(|(t, spans)| TraceSummary {
                        trace: t.trace.as_u64(),
                        class: t.class.as_str().to_string(),
                        root: t.root,
                        duration_micros: t.duration_micros,
                        spans,
                    })
                    .collect(),
            },
            Request::Health => Response::Health(self.base_health()),
        }))
    }

    /// The single-node health report: the wrappers above a plain session
    /// (`prj-sub`'s `Subscribing`, the cluster coordinator/worker handlers)
    /// take this as the base and fill in their own fields.
    pub fn base_health(&self) -> HealthReport {
        let catalog = self.engine.catalog();
        HealthReport {
            ready: true,
            live: true,
            role: "engine".to_string(),
            delta_tuples: catalog.delta_tuples_total() as u64,
            oldest_delta_age_ms: self
                .engine
                .compactor()
                .map_or(0, |c| c.oldest_backlog_age_ms()),
            traces_retained: self.engine.obs().trace_store().len() as u64,
            ..HealthReport::default()
        }
    }

    /// Resolves a protocol [`QueryRequest`] into an engine [`QuerySpec`]
    /// under this session's defaults, exactly as [`Request::TopK`] dispatch
    /// would. Subscription managers use this to pin a standing query's
    /// spec once at subscribe time and re-run it verbatim on every
    /// invalidation.
    pub fn build_query_spec(&self, query: QueryRequest) -> Result<QuerySpec, ApiError> {
        self.build_spec(query)
    }

    fn resolve_relation(&self, relation: &RelationRef) -> Result<RelationId, ApiError> {
        match relation {
            RelationRef::Id(id) => Ok(RelationId(*id)),
            RelationRef::Name(name) => self.engine.catalog().lookup(name).ok_or_else(|| {
                ApiError::new(
                    ErrorKind::UnknownRelation,
                    format!("no relation named {name:?}"),
                )
            }),
        }
    }

    fn build_spec(&self, query: QueryRequest) -> Result<QuerySpec, ApiError> {
        let relations = query
            .relations
            .iter()
            .map(|r| self.resolve_relation(r))
            .collect::<Result<Vec<_>, _>>()?;
        let (scoring, selector) = match &query.scoring {
            Some(selector) => (
                self.engine
                    .scoring_registry()
                    .resolve(&selector.name, &selector.params)?,
                Some(selector.clone()),
            ),
            None => (
                Arc::clone(&self.default_scoring),
                self.default_selector.clone(),
            ),
        };
        Ok(QuerySpec {
            relations,
            query: Vector::new(query.query),
            k: query.k.unwrap_or(self.default_k),
            scoring,
            selector,
            access_kind: query.access.unwrap_or(self.default_access),
            algorithm: query.algorithm.or(self.default_algorithm),
            convergence: 0,
            // A wire trace context joins the engine's recorder under the
            // caller's trace id, stitching this session's spans into the
            // upstream trace (the wire layer guarantees `trace != 0`).
            trace: query.trace.and_then(|t| {
                TraceId::from_u64(t.trace).map(|trace| QueryTrace {
                    trace,
                    parent: SpanId::from_u64(t.parent),
                })
            }),
        })
    }
}

/// Ingestion validation, mirroring what `ProblemBuilder::build` enforces
/// for one-shot problems (catalog views skip those per-tuple checks): at
/// least one coordinate, finite coordinates, and a finite, strictly
/// positive score — Eq. 2 takes `ln σ`, so a non-positive score would turn
/// every result it touches into NaN and get cached as a "success".
fn to_rows(tuples: Vec<TupleData>) -> Result<Vec<(Vector, f64)>, ApiError> {
    tuples
        .into_iter()
        .map(|t| {
            if t.coords.is_empty() {
                return Err(ApiError::new(
                    ErrorKind::InvalidQuery,
                    "tuples must have at least one coordinate",
                ));
            }
            if t.coords.iter().any(|c| !c.is_finite()) {
                return Err(ApiError::new(
                    ErrorKind::InvalidQuery,
                    "tuple coordinates must be finite",
                ));
            }
            if !t.score.is_finite() || t.score <= 0.0 {
                return Err(ApiError::new(
                    ErrorKind::InvalidQuery,
                    format!("tuple scores must be finite and > 0, got {}", t.score),
                ));
            }
            Ok((Vector::new(t.coords), t.score))
        })
        .collect()
}

/// Translates an engine-level EXPLAIN report into its wire shape.
fn to_explain_report(data: ExplainData) -> ExplainReport {
    ExplainReport {
        algorithm: data.plan.algorithm.id().to_string(),
        drive: data.drive,
        k: data.k,
        rationale: data.plan.rationale,
        relations: data
            .relations
            .into_iter()
            .map(|r| RelationPlanStat {
                name: r.name,
                cardinality: r.cardinality,
                skew: r.skew,
                discount: r.discount,
            })
            .collect(),
        units: data
            .units
            .into_iter()
            .map(|u| UnitPlanReport {
                shard: u.shard,
                algorithm: u.plan.algorithm.id().to_string(),
                dominance_period: u.plan.dominance_period,
                rationale: u.plan.rationale,
            })
            .collect(),
        analyzed: data.analyzed.map(|a| AnalyzeReport {
            rows: a.result.combinations.iter().map(to_row).collect(),
            latency_micros: a.latency.as_micros() as u64,
            total_sum_depths: a.total_sum_depths,
            units: a
                .units
                .into_iter()
                .map(|u| UnitProfile {
                    shard: u.shard,
                    cache: u.cache.to_string(),
                    remote: u.remote,
                    depths: u.depths,
                    micros: u.micros,
                    trajectory: u
                        .trajectory
                        .iter()
                        .map(|p| TrajectorySample {
                            depth: p.depth,
                            kth_score: p.kth_score,
                            bound: p.bound,
                        })
                        .collect(),
                })
                .collect(),
        }),
    }
}

/// Translates one engine combination into its protocol row (the
/// `score@rel:idx+rel:idx` unit of the wire format). Public so the
/// subscription layer diffs and delivers exactly the rows a fresh
/// [`Request::TopK`] would produce.
pub fn to_row(combo: &ScoredCombination) -> ResultRow {
    ResultRow {
        score: combo.score,
        tuples: combo
            .tuples
            .iter()
            .map(|t| (t.id.relation, t.id.index))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineBuilder;
    use prj_api::ScoringSelector;

    fn table1_session() -> Session {
        let engine = Arc::new(EngineBuilder::default().threads(2).build());
        let session = Session::new(engine);
        for (name, rows) in [
            ("R1", vec![([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
            ("R2", vec![([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
            ("R3", vec![([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
        ] {
            let tuples = rows
                .into_iter()
                .map(|(x, s)| TupleData::new(x.to_vec(), s))
                .collect();
            match session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples,
            }) {
                Response::Registered { cardinality: 2, .. } => {}
                other => panic!("registration failed: {other:?}"),
            }
        }
        session
    }

    fn table1_query() -> QueryRequest {
        QueryRequest::new(vec!["R1".into(), "R2".into(), "R3".into()], [0.0, 0.0]).k(1)
    }

    #[test]
    fn serves_the_paper_example_by_relation_name() {
        let session = table1_session();
        match session.handle(Request::TopK(table1_query())) {
            Response::Results {
                rows, from_cache, ..
            } => {
                assert!(!from_cache);
                assert_eq!(rows.len(), 1);
                assert!((rows[0].score - (-7.0)).abs() < 0.05);
                assert_eq!(rows[0].tuples, vec![(0, 1), (1, 0), (2, 0)]);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        // Identical request again: the session reports the cache hit.
        match session.handle(Request::TopK(table1_query())) {
            Response::Results { from_cache, .. } => assert!(from_cache),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn stream_dispatch_delivers_rows_incrementally() {
        let session = table1_session();
        let request = Request::Stream(table1_query().k(8));
        let Dispatch::Stream(mut stream) = session.dispatch(request) else {
            panic!("expected a stream dispatch");
        };
        let mut previous = f64::INFINITY;
        let mut rows = 0;
        while let Some(row) = stream.next_row() {
            assert!(row.score <= previous + 1e-12);
            previous = row.score;
            rows += 1;
        }
        assert_eq!(rows, 8);
        assert_eq!(stream.delivered(), 8);
        // handle() drains the same request into one Results response.
        match session.handle(Request::Stream(table1_query().k(8))) {
            Response::Results { rows, .. } => assert_eq!(rows.len(), 8),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn mutations_bump_epochs_and_update_results() {
        let session = table1_session();
        session.handle(Request::TopK(table1_query()));
        let response = session.handle(Request::AppendTuples {
            relation: "R1".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        });
        match response {
            Response::Appended {
                id,
                epoch,
                cardinality,
            } => {
                assert_eq!(id, 0);
                assert_eq!(epoch, 1);
                assert_eq!(cardinality, 3);
            }
            other => panic!("unexpected response: {other:?}"),
        }
        match session.handle(Request::TopK(table1_query())) {
            Response::Results {
                rows, from_cache, ..
            } => {
                assert!(!from_cache, "mutation must invalidate the cached result");
                assert_eq!(rows[0].tuples[0], (0, 2), "the new tuple wins");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn typed_errors_cross_the_boundary() {
        let session = table1_session();
        match session.handle(Request::TopK(QueryRequest::new(
            vec!["bars".into()],
            [0.0, 0.0],
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownRelation),
            other => panic!("unexpected response: {other:?}"),
        }
        match session.handle(Request::TopK(
            table1_query().scoring(ScoringSelector::named("mystery")),
        )) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownScoring),
            other => panic!("unexpected response: {other:?}"),
        }
        match session.handle(Request::TopK(table1_query().scoring(
            ScoringSelector::with_params("euclidean-log", [1.0, 0.0, 1.0]),
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidParams),
            other => panic!("unexpected response: {other:?}"),
        }
        match session.handle(Request::TopK(table1_query().k(0))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidQuery),
            other => panic!("unexpected response: {other:?}"),
        }
        session.handle(Request::DropRelation {
            relation: "R2".into(),
        });
        match session.handle(Request::TopK(QueryRequest::new(
            vec![RelationRef::Id(1)],
            [0.0, 0.0],
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::RelationDropped),
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn hostile_input_yields_typed_errors_not_panics() {
        let session = table1_session();
        // Mixed-dimension registration batch (would previously panic inside
        // the catalog write lock and poison it).
        match session.handle(Request::RegisterRelation {
            name: "bad".to_string(),
            tuples: vec![TupleData::new([1.0], 0.5), TupleData::new([1.0, 2.0], 0.5)],
        }) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidQuery),
            other => panic!("unexpected response: {other:?}"),
        }
        // Non-positive and non-finite scores (Eq. 2 takes ln σ).
        for score in [0.0, -0.5, f64::NAN] {
            match session.handle(Request::AppendTuples {
                relation: "R1".into(),
                tuples: vec![TupleData::new([0.0, 0.0], score)],
            }) {
                Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidQuery),
                other => panic!("score {score} accepted: {other:?}"),
            }
        }
        // Query dimensionality mismatching the relations.
        match session.handle(Request::TopK(QueryRequest::new(
            vec!["R1".into(), "R2".into(), "R3".into()],
            [0.0],
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidQuery),
            other => panic!("unexpected response: {other:?}"),
        }
        // The same mismatch on a *stream* must be an error response too,
        // never an empty-but-"successful" stream.
        match session.handle(Request::Stream(QueryRequest::new(
            vec!["R1".into()],
            [0.0, 0.0, 0.0],
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidQuery),
            other => panic!("unexpected response: {other:?}"),
        }
        // NaN scoring parameters.
        match session.handle(Request::TopK(table1_query().scoring(
            ScoringSelector::with_params("euclidean-log", [f64::NAN, 1.0, 1.0]),
        ))) {
            Response::Error(e) => assert_eq!(e.kind, ErrorKind::InvalidParams),
            other => panic!("unexpected response: {other:?}"),
        }
        // The session is fully usable after all of the above.
        assert!(matches!(
            session.handle(Request::TopK(table1_query())),
            Response::Results { .. }
        ));
    }

    #[test]
    fn session_defaults_apply() {
        let engine = Arc::new(EngineBuilder::default().threads(1).build());
        let session = Session::builder(Arc::clone(&engine))
            .default_k(2)
            .default_algorithm(Algorithm::Cbrr)
            .default_scoring_named("euclidean-log", &[1.0, 1.0, 1.0])
            .unwrap()
            .build();
        for (name, rows) in [
            ("a", vec![([0.1, 0.0], 0.9), ([2.0, 0.0], 0.5)]),
            ("b", vec![([0.0, 0.1], 0.8), ([0.0, 2.0], 0.4)]),
        ] {
            session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples: rows
                    .into_iter()
                    .map(|(x, s)| TupleData::new(x.to_vec(), s))
                    .collect(),
            });
        }
        match session.handle(Request::TopK(QueryRequest::new(
            vec!["a".into(), "b".into()],
            [0.0, 0.0],
        ))) {
            Response::Results {
                rows, algorithm, ..
            } => {
                assert_eq!(rows.len(), 2, "default k applies");
                assert_eq!(algorithm, "CBRR", "default algorithm applies");
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }

    #[test]
    fn stats_reflect_catalog_and_cache() {
        let session = table1_session();
        session.handle(Request::TopK(table1_query()));
        session.handle(Request::TopK(table1_query()));
        match session.handle(Request::Stats) {
            Response::Stats(report) => {
                assert_eq!(report.queries, 2);
                assert_eq!(report.cache_hits, 1);
                assert_eq!(report.executed, 1);
                assert_eq!(report.relations, 3);
                assert_eq!(report.cache_entries, 1);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
}
