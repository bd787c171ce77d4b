//! The traced run: per-layer metrics.
//!
//! The workload's op sequence is replayed once per layer entry point, each
//! time on a fresh engine over the same data, and every call is wrapped in
//! a span kept in memory:
//!
//! 1. `ApiClient::call` over loopback (plus the wire codec, timed on each
//!    op's own request and response after the op);
//! 2. `Session::handle` in process;
//! 3. `Engine::query` / `Engine::append_rows` in process;
//! 4. `Engine::explain` in plan and in analyze mode (not for standing
//!    queries, which it cannot express).
//!
//! These engines record no spans of their own (see [`ENGINE_TRACING`]).
//!
//! The entry points take turns op by op, so adjacent entry points see the
//! same host conditions. Op `i` sees the same engine state in every
//! replay, so a layer's self time on op `i` is the difference between
//! adjacent entry points; the reported figure is its median over the ops. The self times are chained so they add up to
//! the API op wall. Transport is the remainder of the API wall, so on
//! each op the self times add up exactly; `trace.residual_us` is what the
//! *medians* of the self times leave over. It therefore checks that the
//! replays agree with each other closely enough for their differences to
//! be read as self times, not that every microsecond is accounted for,
//! and the run fails when it exceeds the workload's stated bound. It also
//! fails when the replays disagree on the answers or on the operator's
//! counts, or when those counts differ from an earlier run of the same
//! build with the same seed. The spans are written to `.prjbench/`.

use crate::data::{self, Kind, Op, Ops, Workload, K};
use crate::exec;
use crate::report::{median, micros, tail, Report, TAIL};
use crate::serve::{self, Handler, OP_TIMEOUT};
use prj_api::{wire, ChangeEvent, Request, Response, ResultRow, TupleData};
use prj_engine::{to_row, Engine, RelationId, Session};
use prj_geometry::Vector;
use prj_sub::SubscriptionManager;
use std::fmt::Write as _;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Largest `|trace.residual_us|` accepted, as a share of the API op wall.
/// Each self time is a median of per-op differences between replays, and
/// medians do not add exactly; a wider gap means the replays diverged.
fn residual_bound(workload: &Workload) -> f64 {
    match workload.kind {
        Kind::TopK => 0.25,
        // Reads split into result-cache hits and misses, whose medians of
        // differences add up less exactly.
        Kind::Ingest => 0.4,
        // Each replay's notifier re-runs the standing queries in its own
        // hash order, so the targeted one finishes at a different point of
        // the fan-out in every replay.
        Kind::Notify => 0.5,
    }
}

/// Whether the traced run's engines record their own spans. They do not:
/// the engine hands every finished query to a background drain that
/// copies its whole span ring (about 1.3 ms of CPU per S=1 query, more
/// than the query), and that work lands on whichever replay runs next, so
/// per-op differences between replays stopped meaning anything (medians of
/// per-op differences that missed the op wall by half of it). The untraced
/// run keeps the shipped default, so the drain's cost shows in its
/// `cpu_us_per_op`.
const ENGINE_TRACING: bool = false;

/// Where the spans are written at the end of the run.
const TRACE_DIR: &str = ".prjbench";

/// One span: a timed call into a layer, for one op of one replay.
struct Span {
    op: usize,
    name: &'static str,
    parent: &'static str,
    start: Duration,
    end: Duration,
}

#[derive(Default)]
struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    /// Times `call` as span `name` of op `op` under `parent`.
    fn time<T>(
        &mut self,
        op: usize,
        name: &'static str,
        parent: &'static str,
        call: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let origin = *self.origin.get_or_insert_with(Instant::now);
        let start = origin.elapsed();
        let value = call();
        let end = origin.elapsed();
        self.spans.push(Span {
            op,
            name,
            parent,
            start,
            end,
        });
        (value, end - start)
    }

    fn write(&self, path: &str) -> std::io::Result<()> {
        let mut out = String::from("op\tname\tparent\tstart_us\tend_us\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:.3}\t{:.3}",
                s.op,
                s.name,
                s.parent,
                micros(s.start),
                micros(s.end)
            );
        }
        std::fs::create_dir_all(TRACE_DIR)?;
        std::fs::write(path, out)
    }
}

/// What one replay recorded for one op.
#[derive(Default, Clone)]
struct Record {
    /// The timed call (and, for targeted appends, the wait for the push).
    latency: f64,
    /// The append's own call, for ops that append.
    write: Option<f64>,
    rows: Option<Vec<ResultRow>>,
    from_cache: bool,
    /// Operator figures (`Engine::query` replay, executed reads only).
    run: Option<Run>,
}

#[derive(Default, Clone, PartialEq)]
struct Counts {
    sum_depths: u64,
    rows: u64,
    bound_updates: u64,
    combinations: u64,
}

#[derive(Default, Clone)]
struct Run {
    counts: Counts,
    dominated: u64,
    total: f64,
    bound: f64,
    dominance: f64,
    pull: f64,
    /// `explain` replay: plan-mode latency, units, slowest unit wall.
    plan: f64,
    units: f64,
    unit_wall_max: f64,
}

/// The in-process engine of one replay with its standing queries.
struct Local {
    engine: Arc<Engine>,
    handler: Arc<Handler>,
    manager: Arc<SubscriptionManager>,
    feeds: Vec<(u64, Receiver<Response>)>,
}

impl Local {
    fn start(
        workload: &Workload,
        register: &[Request; 2],
        subs: &[[f64; 2]],
    ) -> Result<Local, String> {
        let engine = serve::engine(workload, ENGINE_TRACING);
        let (handler, manager) = serve::handler(&engine);
        for request in register {
            if let Response::Error(e) = handler.handler().handle(request.clone()) {
                return Err(format!("register: {e}"));
            }
        }
        let mut feeds = Vec::with_capacity(subs.len());
        for &point in subs {
            match manager.subscribe(serve::query(point)) {
                Ok(prj_engine::Dispatch::Subscribed {
                    ack: Response::Subscribed { id, .. },
                    feed,
                }) => feeds.push((id, feed)),
                _ => return Err("in-process subscribe failed".to_string()),
            }
        }
        Ok(Local {
            engine,
            handler,
            manager,
            feeds,
        })
    }

    fn session(&self) -> &Session {
        self.handler.handler()
    }

    /// Waits for subscription `sub`'s push in which tuple `tuple` enters,
    /// returning when it arrived, then lets the notifier go idle.
    fn await_targeted(&self, sub: usize, tuple: (usize, usize)) -> Result<Instant, String> {
        let (id, feed) = &self.feeds[sub];
        loop {
            match feed.recv_timeout(OP_TIMEOUT) {
                Ok(Response::Notify(note))
                    if note.events.iter().any(|e| {
                        matches!(e, ChangeEvent::Enter { row, .. } if row.tuples.contains(&tuple))
                    }) =>
                {
                    let arrived = Instant::now();
                    self.manager.quiesce();
                    return Ok(arrived);
                }
                Ok(_) => {}
                Err(e) => return Err(format!("subscription {id}: {e}")),
            }
        }
    }
}

fn rows_of(response: &Response) -> Option<Vec<ResultRow>> {
    match response {
        Response::Results { rows, .. } => Some(rows.clone()),
        _ => None,
    }
}

fn appended_tuple(response: &Response) -> Result<(usize, usize), String> {
    match response {
        Response::Appended {
            id, cardinality, ..
        } => Ok((*id, cardinality - 1)),
        other => Err(format!("append answered {other:?}")),
    }
}

fn append_rows(tuples: &[TupleData]) -> Vec<(Vector, f64)> {
    tuples
        .iter()
        .map(|t| (Vector::new(t.coords.clone()), t.score))
        .collect()
}

/// Accumulates a run's op counts and failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, op: usize, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("{what} op {op} failed: {e}");
        }
    }
}

pub fn run(workload: &Workload, seed: u64) -> Result<Report, String> {
    let relations = data::relations();
    let register = serve::register_requests(&relations);
    let sub_points = match workload.kind {
        Kind::Notify => data::subscription_points(),
        _ => Vec::new(),
    };
    let ops: Vec<Op> = Ops::new(workload, seed)
        .take(workload.warmup + workload.traced)
        .collect();
    let (warm, traced) = ops.split_at(workload.warmup);
    let mut spans = Spans::default();
    let mut tally = Tally::default();
    let mut correct = true;
    let mut fail = |what: String| {
        eprintln!("traced run: {what}");
        correct = false;
    };

    // One fresh engine per entry point, all over the same data. The entry
    // points take turns op by op. Background work an op
    // leaves behind (notifier passes) is deliberately not waited for: on a
    // small VM, a call made while the other vCPUs sit idle pays their
    // wake-up and reads slower than the served loop ever does.
    let (mut served, _) = serve::start(workload, &register, &sub_points, ENGINE_TRACING)?;
    let session = Local::start(workload, &register, &sub_points)?;
    let direct = Local::start(workload, &register, &sub_points)?;
    let explained = match workload.kind {
        Kind::Notify => None,
        _ => Some(Local::start(workload, &register, &sub_points)?),
    };
    let mut warm_spans = Spans::default();
    for (i, op) in warm.iter().enumerate() {
        let request = exec::request(op, &sub_points);
        let warmed = exec::run(&mut served, op, &request)
            .result
            .and_then(|()| session_op(&session, op, i, &sub_points, &mut warm_spans).map(drop))
            .and_then(|()| engine_op(&direct, op, i, &sub_points, &mut warm_spans).map(drop))
            .and_then(|()| match &explained {
                Some(local) => explain_op(local, op, i, &mut warm_spans).map(drop),
                None => Ok(()),
            });
        warmed.map_err(|e| format!("warm-up failed: {e}"))?;
    }
    drop(warm_spans);

    let engine = Arc::clone(&served.engine);
    let before = Snapshot::take(&engine, &served.manager);
    let reexecuted_before = direct.manager.reexecuted_units_total();
    let mut api = Vec::with_capacity(traced.len());
    let mut handle = Vec::with_capacity(traced.len());
    let mut query = Vec::with_capacity(traced.len());
    let mut explain: Vec<Option<Run>> = Vec::with_capacity(traced.len());
    let (mut codec, mut bytes) = (Vec::new(), 0usize);
    let (mut backlog_max, mut age_max, mut queue_max) = (0usize, 0.0f64, 0usize);
    // When the oldest append the API engine has not folded yet was sent.
    let mut unfolded_since: Option<Instant> = None;
    let kept = |tally: &mut Tally, entry: &str, i: usize, record: Result<Record, String>| {
        let outcome = record.as_ref().map(drop).map_err(String::clone);
        tally.record(entry, i, outcome);
        record.unwrap_or_default()
    };
    for (i, op) in traced.iter().enumerate() {
        // 1. The API over loopback, then the codec on the op's messages.
        let request = exec::request(op, &sub_points);
        if let Op::Append { .. } = op {
            unfolded_since.get_or_insert_with(Instant::now);
        }
        let (outcome, _) = spans.time(i, "api.call", "", || exec::run(&mut served, op, &request));
        tally.record("api", i, outcome.result.clone());
        if let Some(response) = &outcome.response {
            let ((), took) = spans.time(i, "api.codec", "api.call", || {
                let line = wire::encode_request(&request).expect("encodable request");
                let decoded = wire::decode_request(&line).expect("decodable request");
                let answer = wire::encode_response(response);
                let reread = wire::decode_response(&answer).expect("decodable response");
                bytes += line.len() + answer.len() + 2;
                std::hint::black_box((decoded, reread));
            });
            codec.push(micros(took));
        } else {
            codec.push(0.0);
        }
        backlog_max = backlog_max.max(engine.catalog().delta_tuples_total());
        if let Op::Append { fold: true, .. } = op {
            if let Some(since) = unfolded_since.take() {
                age_max = age_max.max(since.elapsed().as_secs_f64() * 1e3);
            }
        }
        queue_max = queue_max.max(outcome.pending);
        api.push(Record {
            latency: micros(outcome.latency),
            write: outcome.write.map(micros),
            rows: outcome.rows().map(<[ResultRow]>::to_vec),
            ..Record::default()
        });
        // 2. `Session::handle`.
        let record = session_op(&session, op, i, &sub_points, &mut spans);
        handle.push(kept(&mut tally, "session", i, record));
        // 3. `Engine::query` / `Engine::append_rows`.
        let record = engine_op(&direct, op, i, &sub_points, &mut spans);
        query.push(kept(&mut tally, "engine", i, record));
        // 4. `Engine::explain`.
        explain.push(match &explained {
            Some(local) => {
                let run = explain_op(local, op, i, &mut spans);
                tally.record("explain", i, run.as_ref().map(drop).map_err(String::clone));
                run.ok().flatten()
            }
            None => None,
        });
    }
    let after = Snapshot::take(&engine, &served.manager);
    let d = after.minus(&before);
    let reexecuted_api = d.reexecuted;
    let reexecuted_engine = direct.manager.reexecuted_units_total() - reexecuted_before;
    drop((session, direct, explained));

    // Ops alternately with and without the benchmark's spans, continuing
    // the op sequence on the served system.
    let extra: Vec<Op> = Ops::new(workload, seed)
        .skip(ops.len())
        .take(workload.traced / 2)
        .collect();
    let (mut with_spans, mut without) = (Vec::new(), Vec::new());
    for (j, op) in extra.iter().enumerate() {
        let index = traced.len() + j;
        let request = exec::request(op, &sub_points);
        let outcome = if j % 2 == 0 {
            spans
                .time(index, "api.call", "", || {
                    exec::run(&mut served, op, &request)
                })
                .0
        } else {
            exec::run(&mut served, op, &request)
        };
        tally.record("overhead", index, outcome.result.clone());
        if exec::is_primary(op) {
            if j % 2 == 0 {
                &mut with_spans
            } else {
                &mut without
            }
            .push(micros(outcome.latency));
        }
    }
    served.stop();
    drop(engine);

    // Exact repeats: the same ops on fresh engines must do the same work.
    for (i, (q, a)) in query.iter().zip(&api).enumerate() {
        if q.rows != a.rows {
            fail(format!("op {i}: engine rows differ from the API's"));
        }
    }
    if workload.kind == Kind::TopK {
        for (i, (q, e)) in query.iter().zip(&explain).enumerate() {
            let (Some(q), Some(e)) = (&q.run, e) else {
                fail(format!("op {i}: missing operator figures"));
                continue;
            };
            if q.counts != e.counts {
                fail(format!("op {i}: query and explain-analyze counts differ"));
            }
        }
    }
    if workload.kind == Kind::Notify && reexecuted_api != reexecuted_engine as f64 {
        fail(format!(
            "re-executed units differ: {reexecuted_api} over the API, {reexecuted_engine} in process"
        ));
    }

    // The same counts must come back on every run of this build with this
    // seed: the first run records them, later runs compare. The file is
    // keyed by the executable, so a rebuilt program never compares against
    // another program's counts.
    let counts = match workload.kind {
        Kind::TopK => {
            let total = |f: &dyn Fn(&Counts) -> u64| -> u64 {
                query
                    .iter()
                    .filter_map(|r| r.run.as_ref())
                    .map(|r| f(&r.counts))
                    .sum()
            };
            Some(format!(
                "sum_depths {}\nrows {}\nbound_updates {}\ncombinations {}\n",
                total(&|c| c.sum_depths),
                total(&|c| c.rows),
                total(&|c| c.bound_updates),
                total(&|c| c.combinations)
            ))
        }
        Kind::Notify => Some(format!("reexecuted_units {reexecuted_engine}\n")),
        // Folds follow the op sequence, so the storage shape repeats too.
        Kind::Ingest => Some(format!(
            "compactions {}\npasses {}\ndelta_backlog_max {backlog_max}\n",
            d.compactions, d.passes
        )),
    };
    if let Some(counts) = counts {
        let path = format!(
            "{TRACE_DIR}/counts-{}-{seed}-{}.txt",
            workload.name,
            build_key()
        );
        match std::fs::read_to_string(&path) {
            Ok(recorded) if recorded != counts => fail(format!(
                "deterministic counts drifted from {path}:\n{recorded}now:\n{counts}"
            )),
            Ok(_) => {}
            Err(_) => {
                std::fs::create_dir_all(TRACE_DIR)
                    .and_then(|()| std::fs::write(&path, &counts))
                    .map_err(|e| format!("writing {path}: {e}"))?;
            }
        }
    }

    // Layer self times per primary op, chained so they sum to the op wall.
    let primary: Vec<usize> = (0..traced.len())
        .filter(|&i| exec::is_primary(&traced[i]))
        .collect();
    let sharded = workload.shards > 1;
    let operator_wall = |i: usize| -> f64 {
        match (&query[i].run, &explain[i]) {
            _ if query[i].from_cache => 0.0,
            (Some(run), _) if !sharded => run.total,
            (Some(_), Some(e)) => e.unit_wall_max,
            _ => 0.0,
        }
    };
    let per_op =
        |f: &dyn Fn(usize) -> f64| median(&primary.iter().map(|&i| f(i)).collect::<Vec<_>>());
    let codec_of = |i: usize| codec.get(i).copied().unwrap_or(0.0);
    let op_wall = per_op(&|i| api[i].latency);
    let self_codec = per_op(&codec_of);
    let self_transport = per_op(&|i| api[i].latency - handle[i].latency - codec_of(i));
    let self_dispatch = per_op(&|i| handle[i].latency - query[i].latency);
    let self_overhead = per_op(&|i| query[i].latency - operator_wall(i));
    let self_operator = per_op(&operator_wall);
    let residual =
        op_wall - (self_codec + self_transport + self_dispatch + self_overhead + self_operator);
    let bound = residual_bound(workload);
    if residual.abs() > bound * op_wall {
        fail(format!(
            "residual {residual:.1} us exceeds {bound} of the {op_wall:.1} us op wall"
        ));
    }

    // Operator figures over the reads that executed.
    let runs: Vec<&Run> = query.iter().filter_map(|r| r.run.as_ref()).collect();
    let explains: Vec<&Run> = explain.iter().flatten().collect();
    let reads = runs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Run) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let med = |runs: &[&Run], f: &dyn Fn(&Run) -> f64| {
        median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let n = traced.len() as f64;
    let writes: Vec<f64> = api.iter().filter_map(|r| r.write).collect();
    let appends: Vec<f64> = query.iter().filter_map(|r| r.write).collect();
    let notify_delay: Vec<f64> = api
        .iter()
        .zip(traced)
        .filter(|(_, op)| matches!(op, Op::Targeted { .. }))
        .map(|(r, _)| r.latency - r.write.unwrap_or(0.0))
        .collect();

    let mut report = Report {
        correct,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
    };
    let mut put = |name: &str, value: f64, unit: &'static str| report.push(name, value, unit);
    put("api.codec_us", self_codec, "us");
    put("api.transport_us", self_transport, "us");
    put("api.bytes_per_op", bytes as f64 / n, "B");
    put("api.write_p50_us", median(&writes), "us");
    put("api.write_tail_us", tail(&[writes.as_slice()], TAIL), "us");
    put("session.dispatch_us", self_dispatch, "us");
    put("planner.plan_us", med(&explains, &|r| r.plan), "us");
    put("engine.overhead_us", self_overhead, "us");
    put(
        "engine.units_per_op",
        explains.iter().map(|r| r.units).sum::<f64>() / explains.len().max(1) as f64,
        "count",
    );
    put(
        "engine.unit_wall_max_us",
        med(&explains, &|r| r.unit_wall_max),
        "us",
    );
    put("engine.unit_cpu_sum_us", med(&runs, &|r| r.total), "us");
    put(
        "cache.result_hit_ratio",
        d.result_hits / (d.result_hits + d.result_misses).max(1.0),
        "ratio",
    );
    put(
        "cache.unit_hit_ratio",
        d.unit_hits / (d.unit_hits + d.unit_misses).max(1.0),
        "ratio",
    );
    put("cache.invalidations_per_op", d.invalidations / n, "count");
    put("cache.evictions_per_op", d.evictions / n, "count");
    // At S=4 `RunMetrics` is merged over the units by summing, so the
    // other `core.*_us` times and `engine.unit_cpu_sum_us` are CPU summed
    // over units; the operator wall is the slowest unit's, as in the
    // self-time chain.
    let operator_us = if sharded {
        med(&explains, &|r| r.unit_wall_max)
    } else {
        med(&runs, &|r| r.total)
    };
    put("core.operator_us", operator_us, "us");
    put("core.bound_us", med(&runs, &|r| r.bound), "us");
    put("core.dominance_us", med(&runs, &|r| r.dominance), "us");
    put(
        "core.access_buffer_us",
        med(&runs, &|r| r.total - r.bound),
        "us",
    );
    put(
        "core.sum_depths_per_op",
        sum(&|r| r.counts.sum_depths) / reads,
        "count",
    );
    put("core.rows_per_op", sum(&|r| r.counts.rows) / reads, "count");
    put(
        "core.bound_updates_per_op",
        sum(&|r| r.counts.bound_updates) / reads,
        "count",
    );
    put(
        "core.combinations_per_op",
        sum(&|r| r.counts.combinations) / reads,
        "count",
    );
    put(
        "core.dominated_per_op",
        sum(&|r| r.dominated) / reads,
        "count",
    );
    put(
        "core.useful_ratio",
        sum(&|r| r.counts.rows) / sum(&|r| r.counts.combinations).max(1.0),
        "ratio",
    );
    put(
        "access.pull_us_per_op",
        runs.iter().map(|r| r.pull).sum::<f64>() / reads,
        "us",
    );
    put("catalog.append_us", median(&appends), "us");
    put("delta.backlog_tuples_max", backlog_max as f64, "count");
    put("compactor.compactions_per_op", d.compactions / n, "count");
    put("compactor.passes", d.passes, "count");
    put("compactor.backlog_age_ms_max", age_max, "ms");
    put("sub.reexecuted_units_per_op", d.reexecuted / n, "count");
    put("sub.suppressed_per_op", d.suppressed / n, "count");
    put("sub.notifications_per_op", d.notifications / n, "count");
    put(
        "sub.useful_ratio",
        notify_delay.len() as f64 / d.reexecuted.max(1.0),
        "ratio",
    );
    put("sub.queue_depth_max", queue_max as f64, "count");
    put("sub.notify_delay_us", median(&notify_delay), "us");
    put("trace.op_wall_us", op_wall, "us");
    put("trace.residual_us", residual, "us");
    put(
        "trace.overhead_ratio",
        median(&with_spans) / median(&without).max(1e-9),
        "ratio",
    );

    if sharded {
        println!(
            "# core.bound_us, core.dominance_us, core.access_buffer_us: CPU summed over {:.1} \
             units per op, not wall",
            explains.iter().map(|r| r.units).sum::<f64>() / explains.len().max(1) as f64
        );
    }
    println!(
        "# entry point medians (us): api {op_wall:.1}, session {:.1}, engine {:.1}",
        per_op(&|i| handle[i].latency),
        per_op(&|i| query[i].latency)
    );
    let path = format!("{TRACE_DIR}/trace-{}-{seed}.tsv", workload.name);
    spans
        .write(&path)
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!(
        "# {} seed {seed}: {} traced ops per entry point, {} spans in {path}",
        workload.name,
        traced.len(),
        spans.spans.len()
    );
    println!(
        "# self times (us): codec {self_codec:.1} transport {self_transport:.1} dispatch \
         {self_dispatch:.1} engine {self_overhead:.1} operator {self_operator:.1}; op wall \
         {op_wall:.1}, residual {residual:.1} (bound {:.1})",
        bound * op_wall
    );
    Ok(report)
}

/// Identifies the running executable by its size and modification time.
fn build_key() -> String {
    let meta = std::env::current_exe().and_then(std::fs::metadata);
    let modified = meta
        .as_ref()
        .ok()
        .and_then(|m| m.modified().ok())
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    format!("{:x}-{modified:x}", meta.map_or(0, |m| m.len()))
}

/// Engine and subscription counters at one instant of the API replay.
struct Snapshot {
    result_hits: f64,
    result_misses: f64,
    unit_hits: f64,
    unit_misses: f64,
    invalidations: f64,
    evictions: f64,
    compactions: f64,
    passes: f64,
    reexecuted: f64,
    suppressed: f64,
    notifications: f64,
}

impl Snapshot {
    fn take(engine: &Engine, manager: &SubscriptionManager) -> Snapshot {
        let (result, unit) = (engine.cache_metrics(), engine.unit_cache_metrics());
        // Per query: the engine looks a missed key up twice (on submit and
        // again when a worker picks the query up), so lookups overcount.
        let stats = engine.stats();
        Snapshot {
            result_hits: stats.cache_hits as f64,
            result_misses: (stats.queries - stats.cache_hits) as f64,
            unit_hits: unit.hits as f64,
            unit_misses: unit.misses as f64,
            invalidations: (result.invalidations + unit.invalidations) as f64,
            evictions: (result.evictions + unit.evictions) as f64,
            compactions: engine.obs().compactions_total().get() as f64,
            passes: engine.compactor().map_or(0, |c| c.passes()) as f64,
            reexecuted: manager.reexecuted_units_total() as f64,
            suppressed: manager.suppressed_total() as f64,
            notifications: manager.notifications_total() as f64,
        }
    }

    fn minus(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            result_hits: self.result_hits - earlier.result_hits,
            result_misses: self.result_misses - earlier.result_misses,
            unit_hits: self.unit_hits - earlier.unit_hits,
            unit_misses: self.unit_misses - earlier.unit_misses,
            invalidations: self.invalidations - earlier.invalidations,
            evictions: self.evictions - earlier.evictions,
            compactions: self.compactions - earlier.compactions,
            passes: self.passes - earlier.passes,
            reexecuted: self.reexecuted - earlier.reexecuted,
            suppressed: self.suppressed - earlier.suppressed,
            notifications: self.notifications - earlier.notifications,
        }
    }
}

/// Entry point 2: `Session::handle` in process.
fn session_op(
    local: &Local,
    op: &Op,
    index: usize,
    sub_points: &[[f64; 2]],
    spans: &mut Spans,
) -> Result<Record, String> {
    let request = exec::request(op, sub_points);
    let started = Instant::now();
    let (response, took) = spans.time(index, "session.handle", "", || {
        local.session().handle(request)
    });
    if let Response::Error(e) = &response {
        return Err(format!("{e}"));
    }
    let mut record = Record {
        latency: micros(took),
        rows: rows_of(&response),
        ..Record::default()
    };
    if let Op::Targeted { sub, .. } = op {
        record.write = Some(record.latency);
        let arrived = local.await_targeted(*sub, appended_tuple(&response)?)?;
        record.latency = micros(arrived - started);
    }
    if let Op::Append { fold: true, .. } = op {
        exec::fold(&local.engine)?;
    }
    Ok(record)
}

/// Entry point 3: `Engine::query` / `Engine::append_rows` in process. The
/// query spec is resolved before the timed call, as `Session` would.
fn engine_op(
    local: &Local,
    op: &Op,
    index: usize,
    sub_points: &[[f64; 2]],
    spans: &mut Spans,
) -> Result<Record, String> {
    let engine = &local.engine;
    match op {
        Op::TopK(point) => {
            let spec = local
                .session()
                .build_query_spec(serve::query(*point))
                .map_err(|e| format!("{e}"))?;
            let query_point = Arc::new(spec.query.clone());
            let ids = spec.relations.clone();
            let (result, took) = spans.time(index, "engine.query", "", || engine.query(spec));
            let result = result.map_err(|e| format!("{e}"))?;
            let rows: Vec<ResultRow> = result.combinations().iter().map(to_row).collect();
            let mut record = Record {
                latency: micros(took),
                rows: Some(rows),
                from_cache: result.from_cache,
                ..Record::default()
            };
            if !result.from_cache {
                let r = result.result();
                let m = &r.metrics;
                // The sorted-access layer alone: pull each relation's depth
                // through the catalog's public sorted-access view.
                let ((), pull) = spans.time(index, "access.pull", "engine.query", || {
                    for (slot, id) in ids.iter().enumerate() {
                        let relation = engine.catalog().relation(*id).expect("relation exists");
                        let mut view = relation.distance_view(Arc::clone(&query_point));
                        for _ in 0..r.stats.depth(slot) {
                            std::hint::black_box(view.next_tuple());
                        }
                    }
                });
                record.run = Some(Run {
                    counts: Counts {
                        sum_depths: r.sum_depths() as u64,
                        rows: r.combinations.len() as u64,
                        bound_updates: m.bound_updates as u64,
                        combinations: m.combinations_formed as u64,
                    },
                    dominated: m.dominated_partials as u64,
                    total: micros(m.total_time),
                    bound: micros(m.bound_time),
                    dominance: micros(m.dominance_time),
                    pull: micros(pull),
                    ..Run::default()
                });
            }
            Ok(record)
        }
        Op::Append {
            relation,
            tuples,
            fold,
        } => {
            let (outcome, took) = spans.time(index, "engine.append_rows", "", || {
                engine.append_rows(RelationId::from_index(*relation), append_rows(tuples))
            });
            outcome.map_err(|e| format!("{e}"))?;
            if *fold {
                exec::fold(engine)?;
            }
            Ok(Record {
                latency: micros(took),
                write: Some(micros(took)),
                ..Record::default()
            })
        }
        Op::Targeted { sub, score } => {
            let started = Instant::now();
            let row = (Vector::new(sub_points[*sub].to_vec()), *score);
            let (outcome, took) = spans.time(index, "engine.append_rows", "", || {
                engine.append_rows(RelationId::from_index(0), vec![row])
            });
            let outcome = outcome.map_err(|e| format!("{e}"))?;
            let arrived = local.await_targeted(*sub, (0, outcome.cardinality - 1))?;
            Ok(Record {
                latency: micros(arrived - started),
                write: Some(micros(took)),
                ..Record::default()
            })
        }
    }
}

/// Entry point 4: `Engine::explain` in plan mode (executes nothing) and in
/// analyze mode (executes every unit afresh, caches bypassed).
fn explain_op(
    local: &Local,
    op: &Op,
    index: usize,
    spans: &mut Spans,
) -> Result<Option<Run>, String> {
    let engine = &local.engine;
    match op {
        Op::TopK(point) => {
            let spec = local
                .session()
                .build_query_spec(serve::query(*point))
                .map_err(|e| format!("{e}"))?;
            let (plan, plan_took) = spans.time(index, "engine.explain.plan", "", || {
                engine.explain(spec.clone(), false)
            });
            let plan = plan.map_err(|e| format!("{e}"))?;
            let (analyzed, _) = spans.time(index, "engine.explain.analyze", "", || {
                engine.explain(spec, true)
            });
            let analyzed = analyzed
                .map_err(|e| format!("{e}"))?
                .analyzed
                .ok_or("analyze mode returned no profile")?;
            let r = &analyzed.result;
            if !r.certifies_top_k(K, 1e-9) {
                return Err("explain-analyze result is not certified".to_string());
            }
            Ok(Some(Run {
                counts: Counts {
                    sum_depths: analyzed.total_sum_depths,
                    rows: r.combinations.len() as u64,
                    bound_updates: r.metrics.bound_updates as u64,
                    combinations: r.metrics.combinations_formed as u64,
                },
                plan: micros(plan_took),
                units: plan.units.len() as f64,
                unit_wall_max: analyzed.units.iter().map(|u| u.micros).max().unwrap_or(0) as f64,
                ..Run::default()
            }))
        }
        Op::Append {
            relation,
            tuples,
            fold,
        } => {
            engine
                .append_rows(RelationId::from_index(*relation), append_rows(tuples))
                .map_err(|e| format!("{e}"))?;
            if *fold {
                exec::fold(engine)?;
            }
            Ok(None)
        }
        Op::Targeted { .. } => Ok(None),
    }
}
