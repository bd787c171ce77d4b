//! The mutable delta side-structure of a relation shard.
//!
//! A copy-on-write shard extension copies only what it touches: the
//! batch is inserted in O(batch·log n) into a clone of the shard's R-tree
//! that shares every chunk the inserts do not write, only the score-lane
//! chunks the batch lands in are re-merged ([`crate::merge_score_chunks`];
//! only once a score read has built the lane), and the statistics are
//! carried forward. It still pays one reference count per shared chunk
//! and, with a built lane, a re-merge of ~1024 tuples per touched score
//! chunk. A [`DeltaBuffer`] turns the append path into O(delta):
//! freshly appended tuples land in a small score-sorted side structure next
//! to the immutable base, and reads see base + delta through the ordinary
//! merged sorted-access machinery ([`crate::MergedAccess`]) so bounds stay
//! admissible and stops stay certified. A background compactor folds the
//! delta into the base once it
//! crosses a size/age threshold.
//!
//! The tuple lane is kept in **non-increasing score order, ties broken by
//! tuple id ascending** — exactly the order
//! [`crate::VecRelation::score_sorted`] produces — so a
//! [`crate::VecRelation`] can read it directly as a one-chunk score lane and
//! a merged base+delta view is deterministic regardless of when tuples
//! arrived.

use crate::source::{merge_score_sorted, score_order};
use crate::stats::RelationStats;
use crate::tuple::{Tuple, TupleId};
use std::collections::HashSet;
use std::sync::Arc;

/// A small, immutable, score-sorted buffer of freshly appended tuples.
///
/// "Mutable delta" refers to the shard: the buffer itself is a persistent
/// value — [`DeltaBuffer::appended`] returns a new buffer sharing nothing
/// mutable with its predecessor, so concurrent readers keep consuming the
/// buffer they snapshotted while a new one is published.
#[derive(Debug, Clone)]
pub struct DeltaBuffer {
    /// Tuples in non-increasing score order, ties by id ascending (the
    /// [`crate::VecRelation::score_sorted`] order), shared so per-query
    /// score views are O(1) to create.
    tuples: Arc<Vec<Tuple>>,
    /// Statistics over exactly the buffered tuples.
    stats: RelationStats,
}

impl Default for DeltaBuffer {
    fn default() -> Self {
        DeltaBuffer::empty()
    }
}

impl DeltaBuffer {
    /// An empty buffer.
    pub fn empty() -> Self {
        Self::from_sorted(Vec::new())
    }

    /// A buffer holding `tuples` (any order; sorted internally).
    pub fn new(tuples: Vec<Tuple>) -> Self {
        DeltaBuffer::empty().appended(tuples)
    }

    /// A new buffer holding this buffer's tuples plus `extra`.
    ///
    /// O(delta + extra·log extra): `extra` is sorted, then merged with the
    /// already-sorted lane ([`merge_score_sorted`], the routine the engine
    /// catalog's base lane runs on each chunk a batch lands in). The
    /// receiver is untouched (readers holding it see exactly what they
    /// snapshotted).
    pub fn appended(&self, extra: Vec<Tuple>) -> Self {
        if extra.is_empty() {
            return self.clone();
        }
        Self::from_sorted(merge_score_sorted(&self.tuples, extra))
    }

    /// The tuples of `self` whose ids are **not** in `other`, preserving
    /// sorted order. This is the residual-delta computation of the
    /// compactor's publish step: appends only ever add to a shard's delta,
    /// so the live delta is a superset of the compaction snapshot and the
    /// residual is exactly the tuples that arrived while the fold ran.
    pub fn difference(&self, other: &DeltaBuffer) -> Self {
        if other.is_empty() {
            return self.clone();
        }
        let drop: HashSet<TupleId> = other.tuples.iter().map(|t| t.id).collect();
        let kept: Vec<Tuple> = self
            .tuples
            .iter()
            .filter(|t| !drop.contains(&t.id))
            .cloned()
            .collect();
        Self::from_sorted(kept)
    }

    fn from_sorted(tuples: Vec<Tuple>) -> Self {
        debug_assert!(
            tuples
                .windows(2)
                .all(|w| !score_order(&w[0], &w[1]).is_gt()),
            "DeltaBuffer lane must be score-desc, id-asc"
        );
        let stats = RelationStats::from_scores(
            tuples.first().map_or(0, |t| t.dim()),
            tuples.iter().map(|t| t.score),
        );
        DeltaBuffer {
            tuples: Arc::new(tuples),
            stats,
        }
    }

    /// Number of buffered tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the buffer holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The shared score-sorted tuple lane (score-desc, id-asc — directly
    /// readable by a [`crate::VecRelation`]).
    pub fn tuples(&self) -> &Arc<Vec<Tuple>> {
        &self.tuples
    }

    /// Statistics over exactly the buffered tuples.
    pub fn stats(&self) -> RelationStats {
        self.stats
    }

    /// The largest buffered score (the head of the lane), or 0.0 when
    /// empty — an admissible σ_max contribution for merged views.
    pub fn max_score(&self) -> f64 {
        self.tuples.first().map_or(0.0, |t| t.score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SortedAccess;
    use prj_geometry::Vector;

    fn tuple(rel: usize, i: usize, score: f64) -> Tuple {
        let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
        let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
        Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), score)
    }

    /// The buffered ids, in lane order.
    fn ids(buf: &DeltaBuffer) -> Vec<TupleId> {
        buf.tuples().iter().map(|t| t.id).collect()
    }

    fn is_sorted(buf: &DeltaBuffer) -> bool {
        buf.tuples()
            .windows(2)
            .all(|w| w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id))
    }

    #[test]
    fn empty_buffer() {
        let buf = DeltaBuffer::empty();
        assert!(buf.is_empty());
        assert_eq!(buf.len(), 0);
        assert_eq!(buf.max_score(), 0.0);
        assert_eq!(buf.stats().cardinality, 0);
    }

    #[test]
    fn appended_keeps_score_order_and_lanes_aligned() {
        let buf = DeltaBuffer::empty()
            .appended(vec![tuple(0, 0, 0.4), tuple(0, 1, 0.9)])
            .appended(vec![tuple(0, 2, 0.6), tuple(0, 3, 0.9), tuple(0, 4, 0.1)]);
        assert_eq!(buf.len(), 5);
        assert!(is_sorted(&buf));
        // Equal scores break ties by id ascending.
        assert_eq!(buf.tuples()[0].id, TupleId::new(0, 1));
        assert_eq!(buf.tuples()[1].id, TupleId::new(0, 3));
        assert_eq!(buf.max_score(), 0.9);
        assert_eq!(buf.stats().cardinality, 5);
    }

    #[test]
    fn appended_is_persistent() {
        let a = DeltaBuffer::new(vec![tuple(0, 0, 0.5)]);
        let b = a.appended(vec![tuple(0, 1, 0.7)]);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(ids(&a), [TupleId::new(0, 0)]);
        assert_eq!(ids(&b), [TupleId::new(0, 1), TupleId::new(0, 0)]);
    }

    #[test]
    fn difference_yields_the_residual() {
        let snapshot = DeltaBuffer::new(vec![tuple(0, 0, 0.5), tuple(0, 1, 0.7)]);
        let live = snapshot.appended(vec![tuple(0, 2, 0.9), tuple(0, 3, 0.2)]);
        let residual = live.difference(&snapshot);
        assert_eq!(residual.len(), 2);
        assert!(is_sorted(&residual));
        assert_eq!(ids(&residual), [TupleId::new(0, 2), TupleId::new(0, 3)]);
        // Difference against an empty snapshot is the identity.
        let same = live.difference(&DeltaBuffer::empty());
        assert_eq!(same.tuples().as_slice(), live.tuples().as_slice());
    }

    #[test]
    fn matches_score_sorted_reference_order() {
        use crate::source::VecRelation;
        let tuples: Vec<Tuple> = (0..40)
            .map(|i| tuple(0, i, ((i * 17) % 11) as f64 / 11.0 + 0.05))
            .collect();
        let reference = VecRelation::score_sorted("r", tuples.clone());
        let buf = DeltaBuffer::new(tuples);
        assert_eq!(buf.tuples().as_slice(), reference.sorted_tuples());
        assert_eq!(buf.max_score(), reference.max_score());
    }
}
