//! Engine-level statistics: aggregation of per-query operator metrics.
//!
//! Every query — cold or cached — contributes one [`QueryRecord`] built from
//! the operator's [`prj_core::RunMetrics`] and [`prj_access::AccessStats`].
//! The aggregate keeps running totals (depths, bound evaluations, latency
//! extremes) plus a bounded ring of recent latencies for percentile
//! estimates, so observing a long-lived engine costs O(1) memory.

use std::sync::Mutex;
use std::time::Duration;

/// How many recent latencies the percentile ring retains.
const LATENCY_RING: usize = 4096;

/// One execution unit's contribution to a query, tagged with the lane it
/// is reported on.
#[derive(Debug, Clone, Copy)]
pub struct UnitRecord {
    /// The lane: always 0, since a query's one unit reads every relation
    /// whole.
    pub shard: usize,
    /// Sorted accesses the unit performed.
    pub sum_depths: usize,
    /// The unit's wall time.
    pub latency: Duration,
}

/// One served query, as recorded by the engine.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// End-to-end latency observed by the engine (queueing + execution).
    pub latency: Duration,
    /// `sumDepths` of the run (0 for cache hits — no access was performed).
    pub sum_depths: usize,
    /// Number of `updateBound` evaluations (0 for cache hits).
    pub bound_updates: usize,
    /// Whether the result came from the cache.
    pub from_cache: bool,
    /// The execution unit that actually ran (empty for cache hits).
    pub units: Vec<UnitRecord>,
    /// Per-relation sorted-access depths of the executed result, as
    /// `(relation index, depth)` pairs (empty for cache hits). Feeds the
    /// `prj_relation_depth_total` metric series; unlike `sum_depths` it
    /// counts per relation.
    pub relation_depths: Vec<(usize, u64)>,
}

#[derive(Debug, Default)]
struct Totals {
    queries: u64,
    cache_hits: u64,
    executed: u64,
    total_latency: Duration,
    min_latency: Option<Duration>,
    max_latency: Duration,
    total_sum_depths: u64,
    total_bound_updates: u64,
    recent_latencies: Vec<Duration>,
    ring_cursor: usize,
    /// Per-shard lanes, grown on demand to the widest record seen.
    shards: Vec<ShardLane>,
}

/// Aggregate work one shard's execution units have performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLane {
    /// Execution units that actually ran on this shard (a query whose
    /// driving slice of this shard was empty contributes none).
    pub units: u64,
    /// Total sorted accesses performed by this shard's units.
    pub sum_depths: u64,
    /// Total wall time spent in this shard's units.
    pub total_latency: Duration,
}

impl ShardLane {
    /// Mean unit latency on this shard.
    pub fn mean_latency(&self) -> Duration {
        if self.units == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.units as u32
        }
    }
}

/// Thread-safe aggregate of everything the engine has served.
#[derive(Debug, Default)]
pub struct EngineStats {
    totals: Mutex<Totals>,
}

impl EngineStats {
    /// Creates an empty aggregate.
    pub fn new() -> Self {
        EngineStats::default()
    }

    /// Records one served query.
    pub fn record(&self, record: QueryRecord) {
        let mut t = self.totals.lock().expect("stats lock");
        t.queries += 1;
        if record.from_cache {
            t.cache_hits += 1;
        } else {
            t.executed += 1;
        }
        t.total_latency += record.latency;
        t.min_latency = Some(
            t.min_latency
                .map_or(record.latency, |m| m.min(record.latency)),
        );
        t.max_latency = t.max_latency.max(record.latency);
        t.total_sum_depths += record.sum_depths as u64;
        t.total_bound_updates += record.bound_updates as u64;
        for unit in &record.units {
            if t.shards.len() <= unit.shard {
                t.shards.resize(unit.shard + 1, ShardLane::default());
            }
            let lane = &mut t.shards[unit.shard];
            lane.units += 1;
            lane.sum_depths += unit.sum_depths as u64;
            lane.total_latency += unit.latency;
        }
        if t.recent_latencies.len() < LATENCY_RING {
            t.recent_latencies.push(record.latency);
        } else {
            let cursor = t.ring_cursor;
            t.recent_latencies[cursor] = record.latency;
            t.ring_cursor = (cursor + 1) % LATENCY_RING;
        }
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        let t = self.totals.lock().expect("stats lock");
        let mut recent = t.recent_latencies.clone();
        recent.sort_unstable();
        let percentile = |p: f64| -> Duration {
            if recent.is_empty() {
                Duration::ZERO
            } else {
                let idx = ((recent.len() - 1) as f64 * p).floor() as usize;
                recent[idx]
            }
        };
        EngineStatsSnapshot {
            queries: t.queries,
            cache_hits: t.cache_hits,
            executed: t.executed,
            mean_latency: if t.queries == 0 {
                Duration::ZERO
            } else {
                t.total_latency / t.queries as u32
            },
            min_latency: t.min_latency.unwrap_or(Duration::ZERO),
            max_latency: t.max_latency,
            p50_latency: percentile(0.50),
            p95_latency: percentile(0.95),
            total_sum_depths: t.total_sum_depths,
            total_bound_updates: t.total_bound_updates,
            per_shard: t.shards.clone(),
        }
    }
}

/// Point-in-time engine statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStatsSnapshot {
    /// Total queries served (cold + cached).
    pub queries: u64,
    /// Queries answered from the result cache.
    pub cache_hits: u64,
    /// Queries that actually ran the operator.
    pub executed: u64,
    /// Mean end-to-end latency.
    pub mean_latency: Duration,
    /// Fastest query.
    pub min_latency: Duration,
    /// Slowest query.
    pub max_latency: Duration,
    /// Median latency over the recent ring.
    pub p50_latency: Duration,
    /// 95th-percentile latency over the recent ring.
    pub p95_latency: Duration,
    /// Sum of `sumDepths` over all executed runs — the paper's I/O metric,
    /// aggregated fleet-wide.
    pub total_sum_depths: u64,
    /// Total `updateBound` evaluations over all executed runs.
    pub total_bound_updates: u64,
    /// Per-lane depth/latency breakdown of executed units, indexed by lane
    /// (empty until a query executes; every unit reports on lane 0).
    pub per_shard: Vec<ShardLane>,
}

impl EngineStatsSnapshot {
    /// Cache hit rate in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean sorted accesses per *executed* (non-cached) query.
    pub fn mean_sum_depths(&self) -> f64 {
        if self.executed == 0 {
            0.0
        } else {
            self.total_sum_depths as f64 / self.executed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(us: u64, depths: usize, cached: bool) -> QueryRecord {
        QueryRecord {
            latency: Duration::from_micros(us),
            sum_depths: depths,
            bound_updates: depths + 1,
            from_cache: cached,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn aggregates_totals() {
        let stats = EngineStats::new();
        stats.record(record(100, 10, false));
        stats.record(record(300, 20, false));
        stats.record(record(20, 0, true));
        let snap = stats.snapshot();
        assert_eq!(snap.queries, 3);
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.executed, 2);
        assert_eq!(snap.total_sum_depths, 30);
        assert_eq!(snap.total_bound_updates, 10 + 1 + 20 + 1 + 1);
        assert_eq!(snap.min_latency, Duration::from_micros(20));
        assert_eq!(snap.max_latency, Duration::from_micros(300));
        assert_eq!(snap.mean_latency, Duration::from_micros(140));
        assert!((snap.cache_hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((snap.mean_sum_depths() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_over_recent_ring() {
        let stats = EngineStats::new();
        for us in 1..=100 {
            stats.record(record(us, 1, false));
        }
        let snap = stats.snapshot();
        assert_eq!(snap.p50_latency, Duration::from_micros(50));
        assert_eq!(snap.p95_latency, Duration::from_micros(95));
    }

    fn unit(shard: usize, depths: usize, us: u64) -> UnitRecord {
        UnitRecord {
            shard,
            sum_depths: depths,
            latency: Duration::from_micros(us),
        }
    }

    #[test]
    fn per_shard_lanes_accumulate_only_units_that_ran() {
        let stats = EngineStats::new();
        stats.record(QueryRecord {
            latency: Duration::from_micros(100),
            sum_depths: 30,
            units: vec![unit(0, 10, 40), unit(1, 20, 60)],
            ..QueryRecord::default()
        });
        stats.record(QueryRecord {
            latency: Duration::from_micros(50),
            sum_depths: 4,
            // Shard 1's driving slice was empty this time: no unit ran
            // there, so its lane must not be touched. Shard 2 grows the
            // lane vector.
            units: vec![unit(0, 1, 10), unit(2, 3, 30)],
            ..QueryRecord::default()
        });
        // A cache hit contributes nothing per shard.
        stats.record(record(5, 0, true));
        let snap = stats.snapshot();
        assert_eq!(snap.per_shard.len(), 3);
        assert_eq!(snap.per_shard[0].units, 2);
        assert_eq!(snap.per_shard[0].sum_depths, 11);
        assert_eq!(snap.per_shard[0].total_latency, Duration::from_micros(50));
        assert_eq!(snap.per_shard[1].units, 1, "idle shard gains no unit");
        assert_eq!(snap.per_shard[1].sum_depths, 20);
        assert_eq!(snap.per_shard[1].mean_latency(), Duration::from_micros(60));
        assert_eq!(snap.per_shard[2].units, 1);
        assert_eq!(snap.per_shard[2].sum_depths, 3);
        assert_eq!(snap.per_shard[2].mean_latency(), Duration::from_micros(30));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = EngineStats::new().snapshot();
        assert_eq!(snap.queries, 0);
        assert_eq!(snap.mean_latency, Duration::ZERO);
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert_eq!(snap.mean_sum_depths(), 0.0);
    }
}
