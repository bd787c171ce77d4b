//! Diffing two committed benchmark trajectories (`BENCH_<pr>.json`).
//!
//! The macro-benchmark ([`crate::macrobench`]) pins one reproducible
//! workload and commits its lane measurements; this module compares two
//! such files lane by lane — matched on `(shape, shards)` — and reports
//! the p50/p99/qps drift. A lane whose p99 grew beyond the configured
//! ratio, whose deterministic counters (`sum_depths`, `rows`) differ at all,
//! or that disappeared outright is a **regression**, which the `bench-diff`
//! binary turns into a non-zero exit for CI. So is a candidate whose
//! sharded lanes read anything but what its unsharded lanes read
//! ([`shard_depth_mismatches`]).
//!
//! The parser is deliberately minimal: it reads exactly the JSON the
//! workspace's own emitter ([`crate::macrobench::to_json`]) produces (the
//! workspace is dependency-free by design, so there is no serde to lean
//! on). Lane objects are recognised as the innermost `{...}` groups that
//! carry both a `"shape"` and a `"p99_us"` field; everything else
//! (config, notify lanes, tracing overhead) is ignored.

/// One lane as read back from a committed trajectory file.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// Data-shape label (`uniform` / `clustered` / `skewed`).
    pub shape: String,
    /// Shard count of the lane.
    pub shards: usize,
    /// Median serial latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile serial latency, microseconds.
    pub p99_us: u64,
    /// Concurrent throughput, queries/second.
    pub qps: f64,
    /// Total sorted-access depth over the lane's queries (deterministic).
    pub sum_depths: u64,
    /// Total result rows over the lane's queries (deterministic).
    pub rows: u64,
}

/// The comparison of one matched lane pair.
#[derive(Debug, Clone)]
pub struct LaneDelta {
    /// Shape label of the matched pair.
    pub shape: String,
    /// Shard count of the matched pair.
    pub shards: usize,
    /// Candidate p50 over baseline p50 (1.0 = unchanged).
    pub p50_ratio: f64,
    /// Candidate p99 over baseline p99 (1.0 = unchanged).
    pub p99_ratio: f64,
    /// Candidate qps over baseline qps (1.0 = unchanged; higher is better).
    pub qps_ratio: f64,
    /// The two p99 values, for rendering.
    pub p99_base_us: u64,
    /// Candidate p99, microseconds.
    pub p99_cand_us: u64,
}

/// Outcome of diffing two trajectories.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Per-lane drift, in baseline lane order.
    pub deltas: Vec<LaneDelta>,
    /// Human-readable regression descriptions; empty means the gate passes.
    pub regressions: Vec<String>,
}

impl BenchDiff {
    /// `true` when no lane regressed beyond the gate.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Extracts the innermost `{...}` groups of `json` (objects containing no
/// nested object), in order of appearance.
fn leaf_objects(json: &str) -> Vec<&str> {
    let bytes = json.as_bytes();
    let mut leaves = Vec::new();
    let mut open: Option<usize> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'{' => open = Some(i),
            b'}' => {
                if let Some(start) = open.take() {
                    leaves.push(&json[start..=i]);
                }
            }
            _ => {}
        }
    }
    leaves
}

/// The raw text of `"key": <value>` inside a leaf object, up to the next
/// comma or closing brace.
fn raw_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = object.find(&needle)? + needle.len();
    let rest = &object[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn num_field(object: &str, key: &str) -> Option<f64> {
    raw_field(object, key)?.parse().ok()
}

fn str_field(object: &str, key: &str) -> Option<String> {
    let raw = raw_field(object, key)?;
    Some(raw.trim_matches('"').to_string())
}

/// Reads every serving lane (`shape` × `shards`) out of a trajectory file's
/// JSON text. Errors when no lane is found — a wrong file is a gate
/// failure, not a silent pass.
pub fn parse_lanes(json: &str) -> Result<Vec<LaneSnapshot>, String> {
    let lanes: Vec<LaneSnapshot> = leaf_objects(json)
        .into_iter()
        .filter(|obj| obj.contains("\"shape\"") && obj.contains("\"p99_us\""))
        .map(|obj| {
            Ok(LaneSnapshot {
                shape: str_field(obj, "shape").ok_or("lane without a shape")?,
                shards: num_field(obj, "shards").ok_or("lane without shards")? as usize,
                p50_us: num_field(obj, "p50_us").ok_or("lane without p50_us")? as u64,
                p99_us: num_field(obj, "p99_us").ok_or("lane without p99_us")? as u64,
                qps: num_field(obj, "qps").ok_or("lane without qps")?,
                sum_depths: num_field(obj, "sum_depths").ok_or("lane without sum_depths")? as u64,
                rows: num_field(obj, "rows").ok_or("lane without rows")? as u64,
            })
        })
        .collect::<Result<_, &str>>()
        .map_err(String::from)?;
    if lanes.is_empty() {
        return Err("no benchmark lanes found in the file".to_string());
    }
    Ok(lanes)
}

fn ratio(candidate: f64, baseline: f64) -> f64 {
    if baseline > 0.0 {
        candidate / baseline
    } else {
        1.0
    }
}

/// Compares `candidate` against `baseline`, lane by lane. Every baseline
/// lane must still exist; a lane whose p99 grew by more than
/// `max_p99_ratio` regresses the gate, and so does any difference in the
/// deterministic counters, which only a behaviour change can cause.
pub fn diff_lanes(
    baseline: &[LaneSnapshot],
    candidate: &[LaneSnapshot],
    max_p99_ratio: f64,
) -> BenchDiff {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    for base in baseline {
        let Some(cand) = candidate
            .iter()
            .find(|c| c.shape == base.shape && c.shards == base.shards)
        else {
            regressions.push(format!(
                "lane {}/S={} disappeared from the candidate trajectory",
                base.shape, base.shards
            ));
            continue;
        };
        let delta = LaneDelta {
            shape: base.shape.clone(),
            shards: base.shards,
            p50_ratio: ratio(cand.p50_us as f64, base.p50_us as f64),
            p99_ratio: ratio(cand.p99_us as f64, base.p99_us as f64),
            qps_ratio: ratio(cand.qps, base.qps),
            p99_base_us: base.p99_us,
            p99_cand_us: cand.p99_us,
        };
        for (counter, base_value, cand_value) in [
            ("sum_depths", base.sum_depths, cand.sum_depths),
            ("rows", base.rows, cand.rows),
        ] {
            if base_value != cand_value {
                regressions.push(format!(
                    "lane {}/S={}: {counter} {base_value} -> {cand_value} \
                     (deterministic counter changed: a behaviour change)",
                    base.shape, base.shards
                ));
            }
        }
        if delta.p99_ratio > max_p99_ratio {
            regressions.push(format!(
                "lane {}/S={}: p99 {}µs -> {}µs ({:.2}x > {:.2}x gate)",
                delta.shape,
                delta.shards,
                delta.p99_base_us,
                delta.p99_cand_us,
                delta.p99_ratio,
                max_p99_ratio
            ));
        }
        deltas.push(delta);
    }
    BenchDiff {
        deltas,
        regressions,
    }
}

/// The sharding-as-storage invariant of one trajectory: in-process
/// queries run one operator over the shards' merged views, so every
/// `shards > 1` lane must read exactly the `sum_depths` of its shape's
/// `shards = 1` lane. Returns one description per lane that does not (empty
/// means the invariant holds); shapes without a `shards = 1` lane are not
/// checked.
pub fn shard_depth_mismatches(lanes: &[LaneSnapshot]) -> Vec<String> {
    lanes
        .iter()
        .filter(|lane| lane.shards > 1)
        .filter_map(|lane| {
            let single = lanes
                .iter()
                .find(|l| l.shape == lane.shape && l.shards == 1)?;
            (lane.sum_depths != single.sum_depths).then(|| {
                format!(
                    "lane {}/S={}: sum_depths {} differs from S=1's {} \
                     (sharding must not change what a query reads)",
                    lane.shape, lane.shards, lane.sum_depths, single.sum_depths
                )
            })
        })
        .collect()
}

/// Renders the diff as an aligned table plus the regression verdict.
pub fn render_diff(diff: &BenchDiff) -> String {
    let mut out = String::from(
        "shape     | shards | p99 base µs | p99 cand µs |  p99 Δ |  p50 Δ |  qps Δ\n\
         ----------+--------+-------------+-------------+--------+--------+-------\n",
    );
    for d in &diff.deltas {
        out.push_str(&format!(
            "{:<9} | {:>6} | {:>11} | {:>11} | {:>5.2}x | {:>5.2}x | {:>5.2}x\n",
            d.shape, d.shards, d.p99_base_us, d.p99_cand_us, d.p99_ratio, d.p50_ratio, d.qps_ratio,
        ));
    }
    if diff.passed() {
        out.push_str("gate: PASS (no lane regressed)\n");
    } else {
        for r in &diff.regressions {
            out.push_str(&format!("REGRESSION: {r}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "config": {"seed": 42, "queries": 64, "k": 8, "relation_size": 400, "n_relations": 2, "threads": 4},
  "lanes": [
    {"shape": "uniform", "shards": 1, "queries": 64, "p50_us": 885, "p99_us": 2957, "qps": 1348.0, "sum_depths": 2763, "rows": 512},
    {"shape": "uniform", "shards": 4, "queries": 64, "p50_us": 2777, "p99_us": 4322, "qps": 343.7, "sum_depths": 12789, "rows": 512}
  ],
  "notify_lanes": [
    {"subscriptions": 1, "mutations": 24, "mutations_per_sec": 194.6, "notify_p50_us": 5120, "notify_p99_us": 9222, "notifications": 24}
  ],
  "tracing_overhead": {"traced_mean_us": 1151.0, "untraced_mean_us": 1268.2, "ratio": 0.908}
}
"#;

    #[test]
    fn parses_exactly_the_serving_lanes() {
        let lanes = parse_lanes(SAMPLE).expect("parse");
        assert_eq!(lanes.len(), 2, "notify/overhead objects must be ignored");
        assert_eq!(lanes[0].shape, "uniform");
        assert_eq!(lanes[0].shards, 1);
        assert_eq!(lanes[0].p50_us, 885);
        assert_eq!(lanes[0].p99_us, 2957);
        assert!((lanes[0].qps - 1348.0).abs() < 1e-9);
        assert_eq!(lanes[0].sum_depths, 2763);
        assert_eq!(lanes[0].rows, 512);
        assert_eq!(lanes[1].shards, 4);
        assert_eq!(lanes[1].sum_depths, 12789);
    }

    #[test]
    fn counter_mismatch_is_a_behaviour_change_regression() {
        let baseline = parse_lanes(SAMPLE).unwrap();
        let mut candidate = baseline.clone();
        // Fewer accesses is still a change of behaviour, not a pass.
        candidate[0].sum_depths -= 1;
        candidate[1].rows += 1;
        let diff = diff_lanes(&baseline, &candidate, 1.2);
        assert_eq!(diff.regressions.len(), 2, "{:?}", diff.regressions);
        assert!(diff.regressions[0].contains("uniform/S=1: sum_depths 2763 -> 2762"));
        assert!(diff.regressions[1].contains("uniform/S=4: rows 512 -> 513"));
        assert!(diff
            .regressions
            .iter()
            .all(|r| r.contains("behaviour change")));
    }

    #[test]
    fn identical_trajectories_pass_the_gate() {
        let lanes = parse_lanes(SAMPLE).unwrap();
        let diff = diff_lanes(&lanes, &lanes, 1.2);
        assert!(diff.passed());
        assert_eq!(diff.deltas.len(), 2);
        for d in &diff.deltas {
            assert!((d.p99_ratio - 1.0).abs() < 1e-9);
        }
        let table = render_diff(&diff);
        assert!(table.contains("gate: PASS"));
    }

    #[test]
    fn p99_inflation_beyond_the_gate_is_a_regression() {
        let baseline = parse_lanes(SAMPLE).unwrap();
        let mut candidate = baseline.clone();
        candidate[1].p99_us = (baseline[1].p99_us as f64 * 1.3) as u64;
        let diff = diff_lanes(&baseline, &candidate, 1.2);
        assert!(!diff.passed());
        assert_eq!(diff.regressions.len(), 1);
        assert!(
            diff.regressions[0].contains("uniform/S=4"),
            "{:?}",
            diff.regressions
        );
        // A 1.3x inflation under a generous 1.5x gate is fine.
        assert!(diff_lanes(&baseline, &candidate, 1.5).passed());
    }

    #[test]
    fn missing_lane_is_a_regression() {
        let baseline = parse_lanes(SAMPLE).unwrap();
        let candidate = vec![baseline[0].clone()];
        let diff = diff_lanes(&baseline, &candidate, 1.2);
        assert!(!diff.passed());
        assert!(diff.regressions[0].contains("disappeared"));
    }

    #[test]
    fn faster_candidate_always_passes() {
        let baseline = parse_lanes(SAMPLE).unwrap();
        let mut candidate = baseline.clone();
        for lane in &mut candidate {
            lane.p99_us /= 2;
            lane.p50_us /= 2;
            lane.qps *= 2.0;
        }
        assert!(diff_lanes(&baseline, &candidate, 1.2).passed());
    }

    #[test]
    fn sharded_lanes_must_read_the_single_shard_depths() {
        let mut lanes = parse_lanes(SAMPLE).unwrap();
        let mismatches = shard_depth_mismatches(&lanes);
        assert_eq!(mismatches.len(), 1, "{mismatches:?}");
        assert!(mismatches[0].contains("uniform/S=4: sum_depths 12789 differs from S=1's 2763"));
        lanes[1].sum_depths = lanes[0].sum_depths;
        assert!(shard_depth_mismatches(&lanes).is_empty());
        // The committed baseline the CI gate diffs against holds it too.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
        let json = std::fs::read_to_string(path).expect("BENCH_10.json");
        assert_eq!(
            shard_depth_mismatches(&parse_lanes(&json).unwrap()),
            Vec::<String>::new()
        );
    }

    #[test]
    fn garbage_input_is_an_error_not_a_pass() {
        assert!(parse_lanes("{}").is_err());
        assert!(parse_lanes("not json at all").is_err());
    }

    #[test]
    fn committed_trajectories_parse_and_diff() {
        // The repo-root trajectory files must stay readable by this gate.
        for name in [
            "BENCH_6.json",
            "BENCH_7.json",
            "BENCH_8.json",
            "BENCH_9.json",
            "BENCH_10.json",
        ] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string() + "/" + name;
            let json = std::fs::read_to_string(&path).unwrap_or_default();
            if json.is_empty() {
                continue; // tolerated: older files may be pruned some day
            }
            let lanes = parse_lanes(&json).expect(name);
            assert!(!lanes.is_empty());
            assert!(diff_lanes(&lanes, &lanes, 1.2).passed());
        }
    }
}
