//! The untraced run: repeated set-up, untimed warm-up, a timed closed loop
//! of one client on one connection, then the output check.

use crate::check;
use crate::data::{self, Kind, Ops, Workload};
use crate::exec;
use crate::report::{self, median, micros, tail, Report, TAIL};
use crate::serve;
use prj_api::ResultRow;
use prj_engine::Engine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Responses kept for the output check, drawn evenly from the whole timed
/// phase.
const MAX_SAMPLES: usize = 48;

/// The timed phase is cut into this many equal blocks, and each metric is
/// taken per block and reported as the median over the blocks. On a
/// shared 2-vCPU host other tenants change the speed of one-second blocks
/// by up to a third, in bursts of seconds and drifts of minutes. Over
/// 20-second windows of long runs of unchanged code, the median block
/// spread 0.08-0.11 of its median from window to window, the lower
/// quartile block 0.12-0.18 and the tenth percentile 0.15-0.24. A block
/// ends at the first fold after its time is up (see [`data::ends_cycle`]),
/// so every block holds whole write-fold cycles.
const BLOCKS: u32 = 10;

/// One block of the timed phase.
struct Block {
    completed: u64,
    elapsed: Duration,
    cpu: Duration,
    /// Latencies of the workload's primary op, in µs.
    primary: Vec<f64>,
}

/// A `TopK` answer kept for the output check: op index, point, rows.
pub type Sample = (usize, [f64; 2], Vec<ResultRow>);

pub fn run(workload: &Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let relations = data::relations();
    let register = serve::register_requests(&relations);
    let sub_points = match workload.kind {
        Kind::Notify => data::subscription_points(),
        _ => Vec::new(),
    };

    // The system timed below is the first set-up, so the peak RSS covers
    // one served instance; the other set-ups run after the check.
    let (mut served, first) = serve::start(workload, &register, &sub_points, true)?;

    let mut ops = Ops::new(workload, seed).enumerate();
    for (_, op) in ops.by_ref().take(workload.warmup) {
        let request = exec::request(&op, &sub_points);
        exec::run(&mut served, &op, &request)
            .result
            .map_err(|e| format!("warm-up failed: {e}"))?;
    }

    let mut writes = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let (mut picker, mut candidates) = (data::Rng::new(seed, data::RESERVOIR), 0usize);
    let mut host = Host::new(&served.engine);
    let mut blocks: Vec<Block> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    for b in 1..=BLOCKS {
        let end = budget * b / BLOCKS;
        let (began, cpu) = (started.elapsed(), report::process_cpu());
        let mut block = Block {
            completed: 0,
            elapsed: Duration::ZERO,
            cpu: Duration::ZERO,
            primary: Vec::new(),
        };
        // At least one op (one cycle) per block, even after an overrun.
        loop {
            let (index, op) = ops.next().expect("op sequences are endless");
            let request = exec::request(&op, &sub_points);
            let outcome = exec::run(&mut served, &op, &request);
            attempted += 1;
            match &outcome.result {
                Ok(()) => block.completed += 1,
                Err(e) => {
                    failed += 1;
                    eprintln!("op {index} failed: {e}");
                }
            }
            if exec::is_primary(&op) {
                block.primary.push(micros(outcome.latency));
            }
            if let Some(write) = outcome.write {
                writes.push(micros(write));
            }
            if let (data::Op::TopK(point), Some(rows)) = (&op, outcome.rows()) {
                // Reservoir sampling: every answer of the timed phase is
                // equally likely to be checked, the late ones included.
                candidates += 1;
                let sample = || (index, *point, rows.to_vec());
                if samples.len() < MAX_SAMPLES {
                    samples.push(sample());
                } else if let Some(kept) = samples.get_mut(picker.below(candidates)) {
                    *kept = sample();
                }
            }
            host.after_op();
            if data::ends_cycle(workload, &op) && started.elapsed() >= end {
                break;
            }
        }
        block.elapsed = started.elapsed() - began;
        block.cpu = report::process_cpu().saturating_sub(cpu);
        blocks.push(block);
    }
    let peak_rss = report::peak_rss_mb();
    let host = host.finish();
    samples.sort_by_key(|s| s.0);
    let executed = workload.warmup + attempted as usize;

    let mut correct = true;
    let mut checked = |what: &str, outcome: Result<(), String>| {
        if let Err(e) = outcome {
            eprintln!("output check ({what}) failed: {e}");
            correct = false;
        }
    };
    checked(
        "topk",
        check::samples(workload, seed, &relations, &samples, executed),
    );
    if workload.kind == Kind::Notify {
        checked("feeds", check::feeds(&mut served));
    }
    served.stop();
    let mut setups = vec![first.as_secs_f64()];
    for _ in 1..SETUPS {
        let (again, took) = serve::start(workload, &register, &sub_points, true)?;
        setups.push(took.as_secs_f64());
        again.stop();
    }

    let per_block = |f: &dyn Fn(&Block) -> f64| median(&blocks.iter().map(f).collect::<Vec<_>>());
    let op_p50 = per_block(&|b| median(&b.primary));
    let primary: Vec<&[f64]> = blocks.iter().map(|b| &b.primary[..]).collect();
    let op_tail = tail(&primary, TAIL);
    println!(
        "# {} seed {seed}: {attempted} ops, {failed} failed, {} responses checked",
        workload.name,
        samples.len()
    );
    println!(
        "# op latency n={}: p50 {op_p50:.1} us, p{TAIL} {op_tail:.1} us, p99 {:.1} us",
        primary.iter().map(|b| b.len()).sum::<usize>(),
        tail(&primary, 99.0)
    );
    if !writes.is_empty() {
        println!(
            "# append ack latency n={}: p50 {:.1} us, p{TAIL} {:.1} us",
            writes.len(),
            median(&writes),
            tail(&[writes.as_slice()], TAIL)
        );
    }
    println!("# set-ups (s): {setups:?}");
    println!("# {host}");

    let mut report = Report {
        correct,
        attempted,
        failed,
        metrics: Vec::new(),
    };
    report.push("setup_s", median(&setups), "s");
    report.push(
        "ops_per_s",
        per_block(&|b| b.completed as f64 / b.elapsed.as_secs_f64()),
        "1/s",
    );
    report.push("op_p50_us", op_p50, "us");
    report.push("op_tail_us", op_tail, "us");
    report.push(
        "cpu_us_per_op",
        per_block(&|b| micros(b.cpu) / b.completed.max(1) as f64),
        "us",
    );
    report.push("peak_rss_mb", peak_rss, "MiB");
    Ok(report)
}

/// Figures that explain a run's timings without being metrics of the
/// program: the CPU time the hypervisor took from this guest (steal), the
/// speed of a fixed integer loop before and after the timed phase, and
/// the engine's result-cache, compactor and delta activity over it.
struct Host {
    engine: Arc<Engine>,
    stat: [u64; 2],
    loop_ns: f64,
    hits: u64,
    queries: u64,
    compactions: u64,
    backlog_max: usize,
}

impl Host {
    fn new(engine: &Arc<Engine>) -> Host {
        let stats = engine.stats();
        Host {
            engine: Arc::clone(engine),
            stat: steal_and_total(),
            loop_ns: calibrate(),
            hits: stats.cache_hits,
            queries: stats.queries,
            compactions: engine.obs().compactions_total().get(),
            backlog_max: 0,
        }
    }

    fn after_op(&mut self) {
        let backlog = self.engine.catalog().delta_tuples_total();
        self.backlog_max = self.backlog_max.max(backlog);
    }

    /// Ends the timed phase and releases the engine.
    fn finish(self) -> String {
        let [steal, total] = steal_and_total();
        let stats = self.engine.stats();
        let queries = stats.queries - self.queries;
        format!(
            "host: steal {:.1}%, loop {:.3}/{:.3} ns per step; engine: result-cache hits \
             {:.3}, compactions {}, delta backlog max {}",
            100.0 * (steal - self.stat[0]) as f64 / (total - self.stat[1]).max(1) as f64,
            self.loop_ns,
            calibrate(),
            (stats.cache_hits - self.hits) as f64 / queries.max(1) as f64,
            self.engine.obs().compactions_total().get() - self.compactions,
            self.backlog_max
        )
    }
}

/// Steal and total ticks of all CPUs, from the first line of `/proc/stat`.
fn steal_and_total() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    [ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()]
}

/// Nanoseconds per step of a fixed integer loop, best of 20 tries.
fn calibrate() -> f64 {
    const STEPS: u32 = 1 << 16;
    (0..20)
        .map(|_| {
            let started = Instant::now();
            let mut rng = data::Rng::new(1, 0);
            std::hint::black_box((0..STEPS).fold(0, |acc, _| acc ^ rng.next_u64()));
            started.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .fold(f64::INFINITY, f64::min)
}
