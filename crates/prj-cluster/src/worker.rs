//! The worker side of the cluster: a full engine replica that executes
//! whole queries on demand.
//!
//! A [`WorkerSession`] wraps a plain [`Session`] (so workers serve every
//! ordinary `prj/2` request — that is how the coordinator
//! replicates catalog mutations to them) and adds the cluster-internal
//! verbs:
//!
//! * [`Request::ExecuteUnit`] — replay one query's unit, planned and pinned
//!   by the coordinator, against the replicated catalog, every relation
//!   read whole. The request carries the coordinator snapshot's epoch
//!   vectors; a worker whose catalog disagrees answers
//!   [`prj_api::ErrorKind::StaleEpoch`] instead of silently computing over
//!   different data — the check that makes distributed answers
//!   bit-identical to local ones even while mutations race.
//! * [`Request::WorkerStats`] — work counters for the fleet dashboard.

use prj_api::response::TrajectorySample;
use prj_api::{
    ApiError, ErrorKind, Request, Response, SpanRecord, UnitMember, UnitOutcome, UnitRequest,
    UnitRow,
};
use prj_core::RankJoinResult;
use prj_engine::{Dispatch, Engine, QuerySpec, RelationId, RequestHandler, Session};
use prj_geometry::Vector;
use prj_obs::{now_micros, TraceId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cluster worker's request handler; see the module docs. Its work
/// totals are reported as the `WorkerReport` the coordinator folds into
/// its cluster-wide [`prj_api::StatsReport`].
pub struct WorkerSession {
    session: Session,
    engine: Arc<Engine>,
    units: AtomicU64,
    depths: AtomicU64,
    micros: AtomicU64,
}

impl WorkerSession {
    /// Wraps `engine` as a cluster worker. The engine's shard count must
    /// equal the coordinator's (the coordinator verifies this at connect
    /// time through [`Request::Stats`]).
    pub fn new(engine: Arc<Engine>) -> WorkerSession {
        WorkerSession {
            session: Session::new(Arc::clone(&engine)),
            engine,
            units: AtomicU64::new(0),
            depths: AtomicU64::new(0),
            micros: AtomicU64::new(0),
        }
    }

    /// The engine backing this worker.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Units executed since boot.
    pub fn units_served(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    fn resolve(&self, relation: &prj_api::RelationRef) -> Result<RelationId, ApiError> {
        match relation {
            prj_api::RelationRef::Id(id) => Ok(RelationId::from_index(*id)),
            prj_api::RelationRef::Name(name) => {
                self.engine.catalog().lookup(name).ok_or_else(|| {
                    ApiError::new(
                        ErrorKind::UnknownRelation,
                        format!("no relation named {name:?} in this worker's replica"),
                    )
                })
            }
        }
    }

    fn execute_unit(&self, unit: UnitRequest) -> Result<Response, ApiError> {
        let started = now_micros();
        // Mirror the unit into this worker's own trace ring under the
        // coordinator's trace id, so a worker-side `--metrics-addr` /
        // slow-query dump shows the same trace the coordinator stitches.
        let mut local_span = unit
            .trace
            .and_then(|t| TraceId::from_u64(t.trace))
            .filter(|_| self.engine.recorder().enabled())
            .map(|trace| self.engine.recorder().span(trace, "execute_unit"));
        let relations = unit
            .relations
            .iter()
            .map(|r| self.resolve(r))
            .collect::<Result<Vec<_>, _>>()?;
        let scoring = self
            .engine
            .scoring_registry()
            .resolve(&unit.scoring.name, &unit.scoring.params)
            .map_err(ApiError::from)?;
        let spec = QuerySpec {
            relations,
            query: Vector::new(unit.query),
            k: unit.k,
            scoring,
            selector: Some(unit.scoring),
            access_kind: unit.access,
            algorithm: Some(unit.algorithm),
            convergence: unit.convergence,
            trace: None,
        };
        let run_started = now_micros();
        let (result, elapsed) = self
            .engine
            .execute_unit(&spec, unit.algorithm, Some(&unit.epochs))
            .map_err(ApiError::from)?;
        let finished = now_micros();
        let depths = result.sum_depths() as u64;
        self.units.fetch_add(1, Ordering::Relaxed);
        self.depths.fetch_add(depths, Ordering::Relaxed);
        self.micros
            .fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        if let Some(span) = local_span.as_mut() {
            span.attr("sum_depths", depths);
        }
        // Ship the unit's spans only when the coordinator asked to trace
        // it. Ids are batch-local (1 = the unit, 2 = the operator run);
        // the coordinator's import re-identifies and re-bases them under
        // its own `unit` span.
        let spans = if unit.trace.is_some() {
            vec![
                SpanRecord {
                    name: "execute_unit".to_string(),
                    id: 1,
                    parent: 0,
                    start_micros: started,
                    duration_micros: finished.saturating_sub(started),
                },
                SpanRecord {
                    name: "run".to_string(),
                    id: 2,
                    parent: 1,
                    start_micros: run_started,
                    duration_micros: elapsed.as_micros() as u64,
                },
            ]
        } else {
            Vec::new()
        };
        Ok(Response::Unit(to_outcome(&result, elapsed, spans)))
    }

    fn handle_cluster(&self, request: Request) -> Response {
        let outcome = match request {
            Request::ExecuteUnit(unit) => self.execute_unit(unit),
            Request::WorkerStats => Ok(Response::WorkerReport {
                units: self.units.load(Ordering::Relaxed),
                depths: self.depths.load(Ordering::Relaxed),
                micros: self.micros.load(Ordering::Relaxed),
                relations: self.engine.catalog().live_len(),
            }),
            Request::Health => {
                let mut health = self.session.base_health();
                health.role = "worker".to_string();
                Ok(Response::Health(health))
            }
            other => return self.session.handle(other),
        };
        outcome.unwrap_or_else(Response::Error)
    }
}

impl RequestHandler for WorkerSession {
    fn dispatch_request(&self, request: Request) -> Dispatch {
        match request {
            Request::ExecuteUnit(_) | Request::WorkerStats | Request::Health => {
                Dispatch::One(self.handle_cluster(request))
            }
            other => self.session.dispatch(other),
        }
    }
}

/// Serialises one unit result for the wire, bit-exactly: combination
/// scores, member tuple identities *and contents* (so the coordinator
/// rehydrates without re-reading its catalog), the final bound, the run's
/// accounting, and the worker's finished
/// `spans` for coordinator-side trace stitching.
pub fn to_outcome(
    result: &RankJoinResult,
    elapsed: Duration,
    spans: Vec<SpanRecord>,
) -> UnitOutcome {
    UnitOutcome {
        rows: result
            .combinations
            .iter()
            .map(|combo| UnitRow {
                score: combo.score,
                members: combo
                    .tuples
                    .iter()
                    .map(|t| UnitMember {
                        relation: t.id.relation,
                        index: t.id.index,
                        score: t.score,
                        coords: t.vector.as_slice().to_vec(),
                    })
                    .collect(),
            })
            .collect(),
        final_bound: result.metrics.final_bound,
        depths: result.stats.depths().iter().map(|&d| d as u64).collect(),
        bound_updates: result.metrics.bound_updates as u64,
        combinations_formed: result.metrics.combinations_formed as u64,
        micros: elapsed.as_micros() as u64,
        capped: result.metrics.hit_access_cap,
        spans,
        trajectory: result
            .trajectory()
            .iter()
            .map(|p| TrajectorySample {
                depth: p.depth,
                kth_score: p.kth_score,
                bound: p.bound,
            })
            .collect(),
    }
}
