//! CI gate over the committed benchmark trajectory:
//!
//! ```text
//! cargo run --release -p prj-bench --bin bench-diff -- \
//!     BENCH_7.json BENCH_8.json --max-p99-ratio 1.2
//! ```
//!
//! Compares the candidate trajectory's serving lanes (`shape` × `shards`)
//! against the baseline's, prints the p50/p99/qps drift, and exits
//! non-zero when any lane's p99 regressed beyond the gate (default 1.2x),
//! its deterministic counters (`sum_depths`, `rows`) changed at all, or it
//! disappeared. Also prints each file's sharded p99 gap (largest shard
//! count over `shards = 1`) — the figure the hot-path work tracks.

use prj_bench::bench_diff::{diff_lanes, parse_lanes, render_diff, sharded_p99_gaps};

fn read_lanes(path: &str) -> Vec<prj_bench::bench_diff::LaneSnapshot> {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(error) => {
            eprintln!("cannot read {path}: {error}");
            std::process::exit(2);
        }
    };
    match parse_lanes(&json) {
        Ok(lanes) => lanes,
        Err(error) => {
            eprintln!("cannot parse {path}: {error}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut max_p99_ratio = 1.2f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-p99-ratio" => match args.next().and_then(|v| v.parse().ok()) {
                Some(ratio) => max_p99_ratio = ratio,
                None => {
                    eprintln!("--max-p99-ratio requires a number");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: bench-diff BASELINE.json CANDIDATE.json [--max-p99-ratio R]");
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other:?}; try --help");
                std::process::exit(2);
            }
            path => paths.push(path.to_string()),
        }
    }
    if paths.len() != 2 {
        eprintln!("expected exactly two trajectory files; try --help");
        std::process::exit(2);
    }

    let baseline = read_lanes(&paths[0]);
    let candidate = read_lanes(&paths[1]);
    println!("baseline:  {}", paths[0]);
    println!("candidate: {}", paths[1]);
    let diff = diff_lanes(&baseline, &candidate, max_p99_ratio);
    print!("{}", render_diff(&diff));
    for (label, lanes) in [("baseline", &baseline), ("candidate", &candidate)] {
        for (shape, gap) in sharded_p99_gaps(lanes) {
            println!("{label} sharded p99 gap [{shape}]: {gap:.2}x");
        }
    }
    if !diff.passed() {
        std::process::exit(1);
    }
}
