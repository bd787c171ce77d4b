//! Statistics over samples, process counters, and the result line.

use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `p` (0..100] of unsorted samples; 0 if empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail percentile reported as `op_tail_us`. On a shared 2-vCPU host
/// the p99 of ten seeded runs spread over 0.2-0.3 of its median (it lands
/// on whichever ops collided with the host or with background compaction),
/// the p90 under 0.1, and every run leaves far more than ten ops beyond
/// it. The p99 is printed alongside.
pub const TAIL: f64 = 90.0;

/// Percentile `p` of the samples of consecutive `blocks`, robust to
/// bursts of host interference: the median over the blocks of each
/// block's percentile when every block alone leaves at least ten samples
/// beyond `p`, otherwise the plain percentile of all samples.
pub fn tail(blocks: &[&[f64]], p: f64) -> f64 {
    let beyond = |n: usize| n as f64 - (p / 100.0 * n as f64).ceil();
    if blocks.iter().all(|b| beyond(b.len()) >= 10.0) {
        median(&blocks.iter().map(|b| percentile(b, p)).collect::<Vec<_>>())
    } else {
        percentile(&blocks.concat(), p)
    }
}

/// User plus system CPU time of the whole process (every thread, including
/// exited ones), from `/proc/self/stat`.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks (100 per second on Linux).
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    Duration::from_millis(ticks * 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
