//! One op over the loopback API: the request the workload sends and the
//! answer it must get back.

use crate::data::Op;
use crate::serve::{query, Served, OP_TIMEOUT};
use prj_api::{ChangeEvent, ErrorKind, RelationRef, Request, Response, ResultRow, TupleData};
use prj_engine::Engine;
use std::time::{Duration, Instant};

/// The request an op sends first (a targeted op then waits for a push).
pub fn request(op: &Op, sub_points: &[[f64; 2]]) -> Request {
    match op {
        Op::TopK(point) => Request::TopK(query(*point)),
        Op::Append {
            relation, tuples, ..
        } => Request::AppendTuples {
            relation: RelationRef::Id(*relation),
            tuples: tuples.clone(),
        },
        Op::Targeted { sub, score } => Request::AppendTuples {
            relation: RelationRef::Id(0),
            tuples: vec![TupleData::new(sub_points[*sub].to_vec(), *score)],
        },
    }
}

/// Whether the workload's primary latency is this op's (reads and
/// append→notification), as opposed to a plain write.
pub fn is_primary(op: &Op) -> bool {
    !matches!(op, Op::Append { .. })
}

/// What one op observed.
pub struct Outcome {
    /// The whole op: request to answer, to the targeted notification, or
    /// to the end of the fold that follows an append.
    pub latency: Duration,
    /// The append's acknowledgement round trip, for ops that append.
    pub write: Option<Duration>,
    /// The first answer (kept for the codec and byte counts).
    pub response: Option<Response>,
    /// Mutations the notifier still had to process when a targeted op's
    /// notification arrived (0 for other ops).
    pub pending: usize,
    /// `Err` when the op failed: an error answer, a timeout, or a missing
    /// notification.
    pub result: Result<(), String>,
}

impl Outcome {
    pub fn rows(&self) -> Option<&[ResultRow]> {
        match &self.response {
            Some(Response::Results { rows, .. }) => Some(rows),
            _ => None,
        }
    }
}

/// Runs one op through `served.client`, reconnecting after a transport
/// failure so a late answer is never read as the next op's.
pub fn run(served: &mut Served, op: &Op, request: &Request) -> Outcome {
    let started = Instant::now();
    let answer = served.client.call(request);
    let first = started.elapsed();
    let mut outcome = Outcome {
        latency: first,
        write: matches!(request, Request::AppendTuples { .. }).then_some(first),
        response: None,
        pending: 0,
        result: Ok(()),
    };
    match answer {
        Err(e) => {
            if e.kind == ErrorKind::Io {
                let _ = served.reconnect();
            }
            outcome.result = Err(format!("{e}"));
        }
        Ok(response) => {
            if let (
                Op::Targeted { sub, .. },
                Response::Appended {
                    id, cardinality, ..
                },
            ) = (op, &response)
            {
                let target = served.subs[*sub].id;
                outcome.result = await_targeted(served, target, (*id, cardinality - 1), started);
            }
            if let Op::Append { fold: true, .. } = op {
                outcome.result = fold(&served.engine);
            }
            outcome.response = Some(response);
            outcome.latency = started.elapsed();
            if matches!(op, Op::Targeted { .. }) {
                outcome.pending = served.manager.queue_depth();
                // Untimed: let the notifier finish re-running the other
                // standing queries, so every op starts from an idle system.
                served.manager.quiesce();
            }
        }
    }
    if outcome.result.is_err() {
        // A failed op counts as a miss of any latency limit.
        outcome.latency = outcome.latency.max(OP_TIMEOUT);
    }
    outcome
}

/// Folds every delta into its base: one synchronous pass of the engine's
/// (paused) compactor.
pub fn fold(engine: &Engine) -> Result<(), String> {
    let compactor = engine.compactor().ok_or("fold without a delta lane")?;
    compactor.step();
    Ok(())
}

/// Waits for the notification of subscription `target` in which the
/// appended tuple `tuple` enters the top-K, filing every other push.
fn await_targeted(
    served: &mut Served,
    target: u64,
    tuple: (usize, usize),
    started: Instant,
) -> Result<(), String> {
    loop {
        let left = OP_TIMEOUT
            .saturating_sub(started.elapsed())
            .max(Duration::from_millis(1));
        let note = match served.client.wait_notification(left) {
            Ok(Some(note)) => note,
            Ok(None) => return Err(format!("no notification for subscription {target}")),
            Err(e) => return Err(format!("{e}")),
        };
        let hit = note.id == target
            && note.events.iter().any(|event| {
                matches!(event, ChangeEvent::Enter { row, .. } if row.tuples.contains(&tuple))
            });
        served.file(note);
        if hit {
            return Ok(());
        }
    }
}
