//! The epoch-keyed LRU result caches: whole-query and per-shard.
//!
//! Serving workloads repeat themselves — the same "hotels + restaurants
//! near the convention centre" top-k is asked again and again — and a ProxRJ
//! run is pure: given the same relation *contents*, query point, `k`,
//! scoring parameters and algorithm it returns the same combinations. The
//! engine therefore memoises completed runs behind an [`Arc`], keyed by
//! exactly those inputs, with least-recently-used eviction and
//! hit/miss/invalidation metrics.
//!
//! Relation contents are represented in the key by `(relation index,
//! per-shard epoch vector)` pairs: the catalog bumps a shard's epoch on
//! every append that lands on it (and the whole vector on a drop), so a
//! query that runs after a mutation carries a different key and *cannot*
//! match a pre-mutation entry. That makes staleness structurally impossible
//! rather than a matter of carefully ordered invalidation calls;
//! [`ResultCache::invalidate_relation`] additionally purges the unreachable
//! entries eagerly so they stop occupying capacity. Keys also carry the
//! cluster *topology generation*: after a topology change, distributed
//! results computed under the old worker layout are unreachable (layouts
//! never change *what* is computed, but a generation that survived a
//! failover is exactly when extra caution is cheapest).
//!
//! ## Per-shard entries
//!
//! The whole-query [`ResultCache`] dies wholesale on any epoch bump. The
//! [`UnitCache`] survives partial invalidation: it memoises one *execution
//! unit* — driving shard `j` joined against whole views of the other
//! relations — keyed by the driving shard's own epoch (not the whole
//! vector) plus the other relations' full epoch vectors. An append that
//! lands on driving shard 2 therefore leaves the cached units of shards 0,
//! 1, 3… valid: the next query re-executes one unit and re-merges, instead
//! of recomputing everything.
//!
//! Keys quantise nothing: two query points must be bit-identical to share an
//! entry ([`f64::to_bits`]), which keeps cached results byte-identical to
//! cold runs.

use crate::planner::Plan;
use prj_access::AccessKind;
use prj_core::{Algorithm, RankJoinResult};
use prj_geometry::Vector;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// Cache key: every input that determines a run's output.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The joined relations as `(index, per-shard epoch vector)` pairs, in
    /// join order.
    relations: Vec<(usize, Vec<u64>)>,
    query_bits: Vec<u64>,
    k: usize,
    access_kind: AccessKind,
    /// The explicitly requested algorithm; `None` delegates to the planner,
    /// which is deterministic for fixed relations, so `None` is itself a
    /// valid key component.
    algorithm: Option<Algorithm>,
    /// Fingerprint of the scoring family and parameters
    /// ([`prj_core::ScoringSpec::cache_fingerprint`]).
    scoring_fingerprint: u64,
    /// Cluster topology generation the result was computed under (0 when
    /// no remote backend is installed).
    generation: u64,
}

impl CacheKey {
    /// Builds a key from the run's determining inputs. `relations` pairs
    /// each relation index with the epoch vector of the snapshot the run
    /// reads, so the key must be built from the same snapshot that is
    /// executed.
    pub fn new(
        relations: Vec<(usize, Vec<u64>)>,
        query: &Vector,
        k: usize,
        access_kind: AccessKind,
        algorithm: Option<Algorithm>,
        scoring_fingerprint: u64,
        generation: u64,
    ) -> Self {
        CacheKey {
            relations,
            query_bits: query.as_slice().iter().map(|c| c.to_bits()).collect(),
            k,
            access_kind,
            algorithm,
            scoring_fingerprint,
            generation,
        }
    }

    /// `true` when the key reads relation `index` (at any epoch).
    pub fn uses_relation(&self, index: usize) -> bool {
        self.relations.iter().any(|(r, _)| *r == index)
    }
}

/// Key of one memoised *execution unit*: driving shard + everything else
/// that determines the unit's output. See the module docs for why the
/// driving relation contributes only its covered shard's epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnitKey {
    /// `(relation index, shard, that shard's epoch)` of the driving slice.
    drive: (usize, usize, u64),
    /// The non-driving relations with their full epoch vectors, in join
    /// order.
    others: Vec<(usize, Vec<u64>)>,
    query_bits: Vec<u64>,
    k: usize,
    access_kind: AccessKind,
    /// The *planned* algorithm and dominance period the unit runs under
    /// (a pinned algorithm changes them, so they are part of the key).
    algorithm: Algorithm,
    dominance_period: Option<usize>,
    scoring_fingerprint: u64,
    generation: u64,
}

impl UnitKey {
    /// Builds a unit key; `drive` is `(relation index, shard index, shard
    /// epoch)` of the driving slice, `others` the remaining relations with
    /// their full epoch vectors.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        drive: (usize, usize, u64),
        others: Vec<(usize, Vec<u64>)>,
        query: &Vector,
        k: usize,
        access_kind: AccessKind,
        plan: &Plan,
        scoring_fingerprint: u64,
        generation: u64,
    ) -> Self {
        UnitKey {
            drive,
            others,
            query_bits: query.as_slice().iter().map(|c| c.to_bits()).collect(),
            k,
            access_kind,
            algorithm: plan.algorithm,
            dominance_period: plan.dominance_period,
            scoring_fingerprint,
            generation,
        }
    }

    /// `true` when the key reads relation `index` at all.
    pub fn uses_relation(&self, index: usize) -> bool {
        self.drive.0 == index || self.others.iter().any(|(r, _)| *r == index)
    }

    /// `true` when a mutation touching `shards` of relation `index` makes
    /// this entry unreachable: the driving slice was hit, or the relation
    /// appears as a (whole) non-driving input.
    pub fn invalidated_by(&self, index: usize, shards: &[usize]) -> bool {
        (self.drive.0 == index && shards.contains(&self.drive.1))
            || self.others.iter().any(|(r, _)| *r == index)
    }
}

/// A memoised execution: the full operator result plus the plan that
/// produced it.
#[derive(Debug)]
pub struct CachedExecution {
    /// The operator's result.
    pub result: RankJoinResult,
    /// The plan the executor ran with.
    pub plan: Plan,
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries purged because a relation they read was mutated.
    pub invalidations: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheMetrics {
    /// Hit rate in `[0, 1]`; 0 when no lookup has happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct LruInner<K, V> {
    entries: HashMap<K, (V, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    invalidations: u64,
}

impl<K, V> Default for LruInner<K, V> {
    fn default() -> Self {
        LruInner {
            entries: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidations: 0,
        }
    }
}

/// The shared LRU mechanics behind [`ResultCache`] and [`UnitCache`].
///
/// Recency is tracked with a logical clock per entry; eviction scans for the
/// stalest entry, which is O(entries) but only runs on insert overflow —
/// fine for the few-thousand-entry capacities a result cache wants.
#[derive(Debug)]
struct Lru<K, V> {
    inner: Mutex<LruInner<K, V>>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            inner: Mutex::new(LruInner::default()),
            capacity,
        }
    }

    fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some((value, used)) => {
                *used = clock;
                let value = value.clone();
                inner.hits += 1;
                Some(value)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn insert(&self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        inner.clock += 1;
        let clock = inner.clock;
        if !inner.entries.contains_key(&key) && inner.entries.len() >= self.capacity {
            if let Some(stalest) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
            {
                inner.entries.remove(&stalest);
                inner.evictions += 1;
            }
        }
        inner.entries.insert(key, (value, clock));
    }

    /// Drops every entry `predicate` marks unreachable; counts them as
    /// invalidations and returns how many were purged.
    fn purge(&self, predicate: impl Fn(&K) -> bool) -> usize {
        let mut inner = self.inner.lock().expect("cache lock");
        let before = inner.entries.len();
        inner.entries.retain(|key, _| !predicate(key));
        let purged = before - inner.entries.len();
        inner.invalidations += purged as u64;
        purged
    }

    fn metrics(&self) -> CacheMetrics {
        let inner = self.inner.lock().expect("cache lock");
        CacheMetrics {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            invalidations: inner.invalidations,
            entries: inner.entries.len(),
        }
    }

    fn clear(&self) {
        self.inner.lock().expect("cache lock").entries.clear();
    }
}

/// A thread-safe LRU cache of completed whole-query executions.
#[derive(Debug)]
pub struct ResultCache {
    lru: Lru<CacheKey, Arc<CachedExecution>>,
}

impl ResultCache {
    /// Creates a cache retaining at most `capacity` executions; a capacity of
    /// 0 disables caching (every lookup misses, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            lru: Lru::new(capacity),
        }
    }

    /// Looks up `key`, marking the entry as recently used.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedExecution>> {
        self.lru.get(key)
    }

    /// Inserts an execution under `key`, evicting the least recently used
    /// entry if the cache is full.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedExecution>) {
        self.lru.insert(key, value);
    }

    /// Purges every entry whose key reads relation `index`.
    ///
    /// Correctness never depends on this — post-mutation keys carry the new
    /// epoch and cannot match old entries — but the old entries have become
    /// unreachable garbage, so a mutation reclaims their capacity eagerly
    /// instead of waiting for LRU pressure. Returns the number of purged
    /// entries.
    pub fn invalidate_relation(&self, index: usize) -> usize {
        self.lru.purge(|key| key.uses_relation(index))
    }

    /// Current counters.
    pub fn metrics(&self) -> CacheMetrics {
        self.lru.metrics()
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

/// A thread-safe LRU cache of completed per-shard execution units (see the
/// module docs): the piece that lets a single-shard epoch bump invalidate
/// one unit instead of every whole-query entry that read the relation.
#[derive(Debug)]
pub struct UnitCache {
    lru: Lru<UnitKey, Arc<RankJoinResult>>,
}

impl UnitCache {
    /// Creates a cache retaining at most `capacity` unit results; 0
    /// disables unit caching.
    pub fn new(capacity: usize) -> Self {
        UnitCache {
            lru: Lru::new(capacity),
        }
    }

    /// Looks up a unit, marking it as recently used.
    pub fn get(&self, key: &UnitKey) -> Option<Arc<RankJoinResult>> {
        self.lru.get(key)
    }

    /// Inserts a completed unit result.
    pub fn insert(&self, key: UnitKey, value: Arc<RankJoinResult>) {
        self.lru.insert(key, value);
    }

    /// Purges the units a mutation touching `shards` of relation `index`
    /// made unreachable: units *driving* one of those shards, and units
    /// reading the relation whole as a non-driving input. Units driving
    /// *untouched* shards of the relation survive — that is the point of
    /// this cache. Returns the number purged.
    pub fn invalidate_shards(&self, index: usize, shards: &[usize]) -> usize {
        self.lru.purge(|key| key.invalidated_by(index, shards))
    }

    /// Purges every unit reading relation `index` at all (drops).
    pub fn invalidate_relation(&self, index: usize) -> usize {
        self.lru.purge(|key| key.uses_relation(index))
    }

    /// Current counters.
    pub fn metrics(&self) -> CacheMetrics {
        self.lru.metrics()
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.lru.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_access::AccessStats;
    use prj_core::RunMetrics;

    fn key(q: f64, k: usize) -> CacheKey {
        key_at_epochs(q, k, vec![0, 0], vec![0])
    }

    fn key_at_epochs(q: f64, k: usize, e0: Vec<u64>, e1: Vec<u64>) -> CacheKey {
        CacheKey::new(
            vec![(0, e0), (1, e1)],
            &Vector::from([q, 0.0]),
            k,
            AccessKind::Distance,
            None,
            7,
            0,
        )
    }

    fn dummy_execution() -> Arc<CachedExecution> {
        Arc::new(CachedExecution {
            result: dummy_result(),
            plan: plan(),
        })
    }

    fn dummy_result() -> RankJoinResult {
        RankJoinResult {
            combinations: Vec::new(),
            stats: AccessStats::new(2),
            metrics: RunMetrics::default(),
        }
    }

    fn plan() -> Plan {
        Plan {
            algorithm: Algorithm::Tbpa,
            dominance_period: None,
            rationale: String::new(),
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = ResultCache::new(4);
        assert!(cache.get(&key(1.0, 5)).is_none());
        cache.insert(key(1.0, 5), dummy_execution());
        assert!(cache.get(&key(1.0, 5)).is_some());
        // Different k, query, algorithm or fingerprint miss.
        assert!(cache.get(&key(1.0, 6)).is_none());
        assert!(cache.get(&key(1.5, 5)).is_none());
        let m = cache.metrics();
        assert_eq!(m.hits, 1);
        assert_eq!(m.misses, 3);
        assert_eq!(m.entries, 1);
        assert!((m.hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn different_epoch_vectors_never_share_an_entry() {
        let cache = ResultCache::new(4);
        cache.insert(
            key_at_epochs(1.0, 5, vec![0, 0], vec![0]),
            dummy_execution(),
        );
        // Bumping any single shard of either relation changes the key.
        assert!(cache
            .get(&key_at_epochs(1.0, 5, vec![1, 0], vec![0]))
            .is_none());
        assert!(cache
            .get(&key_at_epochs(1.0, 5, vec![0, 1], vec![0]))
            .is_none());
        assert!(cache
            .get(&key_at_epochs(1.0, 5, vec![0, 0], vec![1]))
            .is_none());
        assert!(cache
            .get(&key_at_epochs(1.0, 5, vec![0, 0], vec![0]))
            .is_some());
    }

    #[test]
    fn different_topology_generations_never_share_an_entry() {
        let at_generation = |generation: u64| {
            CacheKey::new(
                vec![(0, vec![0])],
                &Vector::from([0.0]),
                1,
                AccessKind::Distance,
                None,
                7,
                generation,
            )
        };
        let cache = ResultCache::new(4);
        cache.insert(at_generation(0), dummy_execution());
        assert!(cache.get(&at_generation(1)).is_none());
        assert!(cache.get(&at_generation(0)).is_some());
    }

    #[test]
    fn invalidation_purges_entries_reading_the_relation() {
        let cache = ResultCache::new(8);
        cache.insert(key(1.0, 1), dummy_execution());
        cache.insert(key(2.0, 1), dummy_execution());
        let other = CacheKey::new(
            vec![(7, vec![0])],
            &Vector::from([0.0, 0.0]),
            1,
            AccessKind::Distance,
            None,
            7,
            0,
        );
        cache.insert(other.clone(), dummy_execution());
        // Relation 1 is read by the two `key(..)` entries, not by `other`.
        assert_eq!(cache.invalidate_relation(1), 2);
        assert!(cache.get(&key(1.0, 1)).is_none());
        assert!(cache.get(&key(2.0, 1)).is_none());
        assert!(cache.get(&other).is_some());
        let m = cache.metrics();
        assert_eq!(m.invalidations, 2);
        assert_eq!(m.entries, 1);
        // Invalidating a relation nothing reads is a no-op.
        assert_eq!(cache.invalidate_relation(42), 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry() {
        let cache = ResultCache::new(2);
        cache.insert(key(1.0, 1), dummy_execution());
        cache.insert(key(2.0, 1), dummy_execution());
        // Touch the first entry so the second becomes stalest.
        assert!(cache.get(&key(1.0, 1)).is_some());
        cache.insert(key(3.0, 1), dummy_execution());
        assert!(cache.get(&key(1.0, 1)).is_some(), "recently used survives");
        assert!(cache.get(&key(2.0, 1)).is_none(), "stalest evicted");
        assert!(cache.get(&key(3.0, 1)).is_some());
        assert_eq!(cache.metrics().evictions, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert(key(1.0, 1), dummy_execution());
        assert!(cache.get(&key(1.0, 1)).is_none());
        assert_eq!(cache.metrics().entries, 0);
    }

    #[test]
    fn clear_preserves_counters() {
        let cache = ResultCache::new(2);
        cache.insert(key(1.0, 1), dummy_execution());
        assert!(cache.get(&key(1.0, 1)).is_some());
        cache.clear();
        assert!(cache.get(&key(1.0, 1)).is_none());
        let m = cache.metrics();
        assert_eq!(m.hits, 1);
        assert_eq!(m.entries, 0);
    }

    fn unit_key(shard: usize, shard_epoch: u64, other_epochs: Vec<u64>) -> UnitKey {
        UnitKey::new(
            (0, shard, shard_epoch),
            vec![(1, other_epochs)],
            &Vector::from([0.0, 0.0]),
            3,
            AccessKind::Distance,
            &plan(),
            7,
            0,
        )
    }

    #[test]
    fn unit_entries_survive_sibling_shard_bumps() {
        let cache = UnitCache::new(8);
        for shard in 0..4 {
            cache.insert(unit_key(shard, 0, vec![0, 0]), Arc::new(dummy_result()));
        }
        // An append landing on driving shard 2 kills only that unit …
        assert_eq!(cache.invalidate_shards(0, &[2]), 1);
        assert!(cache.get(&unit_key(0, 0, vec![0, 0])).is_some());
        assert!(cache.get(&unit_key(1, 0, vec![0, 0])).is_some());
        assert!(cache.get(&unit_key(2, 0, vec![0, 0])).is_none());
        assert!(cache.get(&unit_key(3, 0, vec![0, 0])).is_some());
        // … and the re-executed unit is keyed by the bumped shard epoch.
        cache.insert(unit_key(2, 1, vec![0, 0]), Arc::new(dummy_result()));
        assert!(cache.get(&unit_key(2, 1, vec![0, 0])).is_some());
    }

    #[test]
    fn unit_entries_die_when_a_non_driving_relation_mutates() {
        let cache = UnitCache::new(8);
        for shard in 0..3 {
            cache.insert(unit_key(shard, 0, vec![0, 0]), Arc::new(dummy_result()));
        }
        // Relation 1 is read whole by every unit: any mutation to it
        // invalidates them all.
        assert_eq!(cache.invalidate_shards(1, &[0]), 3);
        assert_eq!(cache.metrics().entries, 0);
        // And structurally: a key at the bumped epoch vector differs.
        assert!(cache.get(&unit_key(0, 0, vec![1, 0])).is_none());
    }

    #[test]
    fn unit_drop_invalidation_purges_everything_reading_the_relation() {
        let cache = UnitCache::new(8);
        cache.insert(unit_key(0, 0, vec![0]), Arc::new(dummy_result()));
        cache.insert(unit_key(1, 0, vec![0]), Arc::new(dummy_result()));
        assert_eq!(cache.invalidate_relation(0), 2);
        assert_eq!(cache.invalidate_relation(0), 0);
    }
}
