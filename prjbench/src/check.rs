//! Output checks, run after the timed phase.
//!
//! Served `TopK` answers are compared bit for bit against an in-process
//! reference engine that shares no plan with the served one: one shard,
//! both caches off, and the algorithm pinned to CBRR (corner bound,
//! round-robin pulls) where the planner picks a tight bound. Standing
//! query feeds are replayed with `apply_events` and compared against a
//! fresh `TopK`.

use crate::data::{Op, Ops, Workload, K};
use crate::measure::Sample;
use crate::serve::{query, Served};
use prj_api::{apply_events, Request, Response, ResultRow, TupleData};
use prj_core::Algorithm;
use prj_engine::{to_row, EngineBuilder, QuerySpec, RelationId, Session};
use prj_geometry::Vector;
use std::sync::Arc;

fn same_rows(served: &[ResultRow], reference: &[ResultRow]) -> bool {
    served.len() == reference.len()
        && served
            .iter()
            .zip(reference)
            .all(|(a, b)| a.score.to_bits() == b.score.to_bits() && a.tuples == b.tuples)
}

/// Replays the first `executed` ops into the reference engine and checks
/// every sampled answer. Appends between two samples are applied as one
/// batch per relation, which assigns the same tuple ids as the served
/// engine's one-by-one appends.
pub fn samples(
    workload: &Workload,
    seed: u64,
    relations: &[Vec<TupleData>; 2],
    samples: &[Sample],
    executed: usize,
) -> Result<(), String> {
    let Some(last) = samples.last().map(|s| s.0) else {
        return Ok(());
    };
    let engine = Arc::new(
        EngineBuilder::default()
            .threads(1)
            .cache_capacity(0)
            .unit_cache_capacity(0)
            .trace_capacity(0)
            .build(),
    );
    let session = Session::new(Arc::clone(&engine));
    for (i, tuples) in relations.iter().enumerate() {
        let request = Request::RegisterRelation {
            name: format!("R{}", i + 1),
            tuples: tuples.clone(),
        };
        if let Response::Error(e) = session.handle(request) {
            return Err(format!("reference register: {e}"));
        }
    }
    let ids = vec![RelationId::from_index(0), RelationId::from_index(1)];
    let mut pending: [Vec<TupleData>; 2] = Default::default();
    let mut next = samples.iter().peekable();
    for (index, op) in Ops::new(workload, seed)
        .enumerate()
        .take(executed.min(last + 1))
    {
        match op {
            Op::Append {
                relation, tuples, ..
            } => pending[relation].extend(tuples),
            Op::TopK(point) if next.peek().is_some_and(|s| s.0 == index) => {
                let (_, served_point, served_rows) = next.next().expect("peeked");
                if *served_point != point {
                    return Err(format!("op {index}: sample does not match the op sequence"));
                }
                for (i, batch) in pending.iter_mut().enumerate() {
                    if batch.is_empty() {
                        continue;
                    }
                    let rows = std::mem::take(batch)
                        .into_iter()
                        .map(|t| (Vector::new(t.coords), t.score))
                        .collect();
                    engine
                        .append_rows(ids[i], rows)
                        .map_err(|e| format!("reference append: {e}"))?;
                }
                let spec = QuerySpec::top_k(ids.clone(), Vector::new(point.to_vec()), K)
                    .with_algorithm(Algorithm::Cbrr);
                let result = engine
                    .query(spec)
                    .map_err(|e| format!("reference query: {e}"))?;
                if !result.result().certifies_top_k(K, 1e-9) {
                    return Err(format!("op {index}: reference result is not certified"));
                }
                let reference: Vec<ResultRow> = result.combinations().iter().map(to_row).collect();
                if !same_rows(served_rows, &reference) {
                    return Err(format!(
                        "op {index}: served rows {served_rows:?} differ from reference {reference:?}"
                    ));
                }
            }
            _ => {}
        }
    }
    match next.next() {
        Some(s) => Err(format!("sample of op {} was never replayed", s.0)),
        None => Ok(()),
    }
}

/// Replays every standing query's feed over its baseline and compares the
/// outcome with a fresh `TopK` at the same point. Sequence numbers must be
/// gapless.
pub fn feeds(served: &mut Served) -> Result<(), String> {
    served.drain_notifications()?;
    let subs = std::mem::take(&mut served.subs);
    let outcome = (|| {
        for sub in &subs {
            let mut rows = sub.baseline.clone();
            for (i, note) in sub.notes.iter().enumerate() {
                if note.seq != i as u64 + 1 {
                    return Err(format!("subscription {}: seq {} at {i}", sub.id, note.seq));
                }
                rows = apply_events(&rows, &note.events, note.total)
                    .map_err(|e| format!("subscription {}: replay: {e}", sub.id))?;
            }
            let (fresh, _) = served
                .client
                .top_k(query(sub.point))
                .map_err(|e| format!("fresh TopK: {e}"))?;
            if !same_rows(&rows, &fresh) {
                return Err(format!(
                    "subscription {}: replayed feed {rows:?} differs from fresh {fresh:?}",
                    sub.id
                ));
            }
        }
        Ok(())
    })();
    served.subs = subs;
    outcome
}
