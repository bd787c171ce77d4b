//! Experiment harness for the Proximity Rank Join reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Sec. 4, Figure 3, Tables 1–3):
//!
//! * [`harness`] — runs the four algorithms (CBRR/CBPA/TBRR/TBPA) on a
//!   problem instance and aggregates `sumDepths`, CPU time, bound time and
//!   dominance time over repeated random data sets, exactly the quantities
//!   plotted in Figure 3.
//! * [`experiments`] — one driver per figure panel (3a–3n) plus the worked
//!   example of Tables 1 and 3 and an extra score-based-access comparison
//!   (Appendix C).
//! * [`report`] — plain-text / Markdown rendering of the result tables, used
//!   both by the `experiments` binary and by `EXPERIMENTS.md`.
//!
//! The Criterion benches under `benches/` measure wall-clock time of the same
//! workloads at reduced sizes; the `experiments` binary is the tool that
//! reproduces the paper's numbers:
//!
//! ```text
//! cargo run --release -p prj-bench --bin experiments -- --figure all --quick
//! ```
//!
//! This crate measures the paper's operator, not the serving system. The
//! served system's timing is the standalone `prjbench` package (workloads
//! and bounds in `BENCHMARK.json`); the operator's deterministic counters on
//! the served path are pinned exactly by `prj-engine`'s `tests/counters.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod report;

pub use experiments::{ExperimentTable, Figure};
pub use harness::{AggregatedOutcome, CaseConfig, RunAggregate};
pub use report::render_table;
