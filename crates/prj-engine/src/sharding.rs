//! The sharding policy: how the catalog partitions a relation over space.
//!
//! A [`ShardingPolicy`] is a pure, deterministic function from a tuple's
//! location to a shard index in `0..shards`. The default assignment is
//! *hash-by-cell*: locations are snapped to a regular grid and the cell
//! coordinates are hashed (FNV-1a over the integer cell indices) onto the
//! shard range. Neighbouring tuples in the same cell therefore land on the
//! same shard — appends with spatial locality touch few shards — while the
//! hash spreads distinct cells evenly, so no shard degenerates into a
//! hotspot the way a naive coordinate-range split would under clustered
//! data.
//!
//! Sharding is engine-internal: the `prj-api` `Request` surface never
//! mentions shards. Queries read a relation's shards through one merged,
//! globally sorted view, so the shard count is unobservable through results
//! and cost counters; shards are the unit of storage and publish cost.

use prj_geometry::Vector;

/// Deterministic assignment of tuple locations to `0..shards`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardingPolicy {
    /// Number of shards `S ≥ 1`; 1 disables partitioning.
    shards: usize,
    /// Edge length of the grid cells locations are snapped to before
    /// hashing. Must be positive and finite.
    cell_size: f64,
}

impl Default for ShardingPolicy {
    /// A single shard (no partitioning) — the unsharded engine's behaviour.
    fn default() -> Self {
        ShardingPolicy::new(1)
    }
}

impl ShardingPolicy {
    /// A hash-by-cell policy with `shards` shards and unit grid cells.
    ///
    /// # Panics
    /// Panics when `shards` is 0.
    pub fn new(shards: usize) -> Self {
        ShardingPolicy::with_cell_size(shards, 1.0)
    }

    /// A hash-by-cell policy with an explicit grid cell edge length.
    ///
    /// # Panics
    /// Panics when `shards` is 0 or `cell_size` is not a positive finite
    /// number.
    pub fn with_cell_size(shards: usize, cell_size: f64) -> Self {
        assert!(shards >= 1, "a catalog needs at least one shard");
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite"
        );
        ShardingPolicy { shards, cell_size }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The grid cell edge length.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// The shard a location belongs to. Deterministic: the same location
    /// always maps to the same shard, so re-registering identical data
    /// reproduces the same partition.
    pub fn shard_of(&self, location: &Vector) -> usize {
        if self.shards == 1 {
            return 0;
        }
        // FNV-1a over the integer grid-cell indices. `floor` keeps the cell
        // boundaries half-open and deterministic; clamping the quotient
        // before the cast keeps hostile coordinates (huge magnitudes) from
        // hitting undefined float→int behaviour.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &c in location.as_slice() {
            let cell = (c / self.cell_size)
                .floor()
                .clamp(i64::MIN as f64, i64::MAX as f64) as i64;
            for byte in cell.to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x1000_0000_01b3);
            }
        }
        (hash % self.shards as u64) as usize
    }

    /// Splits `items` into `shards` buckets by the location `key` extracts,
    /// preserving the relative order within each bucket.
    pub fn partition<T>(&self, items: Vec<T>, key: impl Fn(&T) -> &Vector) -> Vec<Vec<T>> {
        let mut buckets: Vec<Vec<T>> = (0..self.shards).map(|_| Vec::new()).collect();
        for item in items {
            let shard = self.shard_of(key(&item));
            buckets[shard].push(item);
        }
        buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_maps_everything_to_zero() {
        let policy = ShardingPolicy::default();
        assert_eq!(policy.shards(), 1);
        assert_eq!(policy.shard_of(&Vector::from([123.4, -5.0])), 0);
    }

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let policy = ShardingPolicy::new(7);
        for i in 0..200 {
            let v = Vector::from([i as f64 * 0.37 - 30.0, (i * i) as f64 * 0.01]);
            let shard = policy.shard_of(&v);
            assert!(shard < 7);
            assert_eq!(shard, policy.shard_of(&v), "same point, same shard");
        }
    }

    #[test]
    fn same_cell_shares_a_shard_distinct_cells_spread() {
        let policy = ShardingPolicy::with_cell_size(4, 1.0);
        // Two points inside the same unit cell.
        assert_eq!(
            policy.shard_of(&Vector::from([2.1, 3.2])),
            policy.shard_of(&Vector::from([2.9, 3.8]))
        );
        // Many distinct cells should hit more than one shard.
        let mut seen = std::collections::HashSet::new();
        for x in 0..16 {
            for y in 0..16 {
                seen.insert(policy.shard_of(&Vector::from([x as f64 + 0.5, y as f64 + 0.5])));
            }
        }
        assert!(seen.len() > 1, "hashing must spread cells across shards");
    }

    #[test]
    fn partition_preserves_items_and_order() {
        let policy = ShardingPolicy::new(3);
        let items: Vec<(Vector, usize)> = (0..50)
            .map(|i| (Vector::from([i as f64 * 1.3, -(i as f64)]), i))
            .collect();
        let buckets = policy.partition(items.clone(), |(v, _)| v);
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 50);
        for bucket in &buckets {
            // Relative order (by payload) is preserved within a bucket.
            let payloads: Vec<usize> = bucket.iter().map(|(_, i)| *i).collect();
            let mut sorted = payloads.clone();
            sorted.sort_unstable();
            assert_eq!(payloads, sorted);
        }
        for (v, i) in &items {
            assert!(buckets[policy.shard_of(v)].iter().any(|(_, j)| j == i));
        }
    }

    #[test]
    fn extreme_coordinates_do_not_panic() {
        let policy = ShardingPolicy::new(5);
        for v in [
            Vector::from([f64::MAX, f64::MIN]),
            Vector::from([1e308, -1e308]),
            Vector::from([0.0, -0.0]),
        ] {
            assert!(policy.shard_of(&v) < 5);
        }
    }

    #[test]
    #[should_panic]
    fn zero_shards_panics() {
        let _ = ShardingPolicy::new(0);
    }

    #[test]
    #[should_panic]
    fn non_finite_cell_size_panics() {
        let _ = ShardingPolicy::with_cell_size(2, f64::NAN);
    }
}
