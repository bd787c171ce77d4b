//! Serving benchmark for the proximity rank-join engine.
//!
//! ```text
//! prjbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload. `--trace 0` measures the end-to-end
//! metrics over loopback TCP and checks the answers; `--trace 1` replays
//! the workload's op sequence once per layer entry point and reports
//! per-layer metrics. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod data;
mod exec;
mod layers;
mod measure;
mod report;
mod serve;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|args| {
        let workload = data::workload(&args.workload).ok_or(format!(
            "unknown workload {:?}; expected one of {:?}",
            args.workload,
            data::WORKLOADS.map(|w| w.name)
        ))?;
        if args.trace {
            layers::run(&workload, args.seed)
        } else {
            measure::run(&workload, args.seed, args.seconds)
        }
    });
    match outcome {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("prjbench: {e}");
            ExitCode::FAILURE
        }
    }
}
