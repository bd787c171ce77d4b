//! Relation sources over *shared, immutable* data structures.
//!
//! The single-query sources in [`crate::source`] own their data: building a
//! [`crate::RTreeRelation`] bulk-loads a fresh R-tree, which is the right
//! trade-off for one-shot experiments but hopeless for a serving engine where
//! thousands of queries hit the same few relations. The sources here split a
//! relation into two parts:
//!
//! * the query-independent, immutable payload — the R-tree over the tuples or
//!   the score-sorted tuple chunks — shared behind an [`Arc`] and built
//!   **once** (by the `prj-engine` catalog);
//! * the per-query cursor state — a [`prj_index::NearestCursor`] frontier or
//!   a plain index — owned by each [`SortedAccess`] instance.
//!
//! Creating a source is therefore O(1) in the relation size, and any number
//! of concurrent queries can consume the same relation without copying it or
//! taking locks.

use crate::kind::AccessKind;
use crate::source::SortedAccess;
use crate::tuple::{Tuple, TupleId};
use prj_geometry::Vector;
use prj_index::{NearestCursor, RTree};
use std::sync::Arc;

/// A distance-sorted view of an R-tree shared behind an [`Arc`].
///
/// Mirrors [`crate::RTreeRelation`]'s access order exactly (both run a
/// [`NearestCursor`] over the same kind of tree), but many instances can be
/// created cheaply from one shared tree.
#[derive(Debug, Clone)]
pub struct SharedRTreeRelation {
    name: Arc<str>,
    /// Shared with every other view of the same query: one query vector is
    /// allocated per query, not per (unit × relation) view.
    query: Arc<Vector>,
    tree: Arc<RTree<(TupleId, f64)>>,
    cursor: NearestCursor,
    max_score: f64,
}

impl SharedRTreeRelation {
    /// Creates a per-query view of `tree`, positioned before the nearest
    /// tuple to `query`. Accepts an owned [`Vector`] or an already-shared
    /// `Arc<Vector>`; pass the latter to share one allocation across views.
    pub fn new(
        name: Arc<str>,
        tree: Arc<RTree<(TupleId, f64)>>,
        query: impl Into<Arc<Vector>>,
        max_score: f64,
    ) -> Self {
        let query = query.into();
        let cursor = NearestCursor::new(&tree, &query);
        SharedRTreeRelation {
            name,
            query,
            tree,
            cursor,
            max_score,
        }
    }

    /// The shared tree this view reads.
    pub fn tree(&self) -> &Arc<RTree<(TupleId, f64)>> {
        &self.tree
    }
}

impl SortedAccess for SharedRTreeRelation {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let neighbor = self.cursor.next(&self.tree, &self.query)?;
        let &(id, score) = neighbor.data;
        Some(Tuple::new(id, Vector::from(neighbor.point), score))
    }

    fn kind(&self) -> AccessKind {
        AccessKind::Distance
    }

    fn total_len(&self) -> Option<usize> {
        Some(self.tree.len())
    }

    fn max_score(&self) -> f64 {
        self.max_score
    }

    fn reset(&mut self) {
        self.cursor.reset(&self.tree, &self.query);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A score-sorted view of a shared, pre-sorted tuple lane.
///
/// The lane is a list of chunks read back to back; together they must be
/// sorted by non-increasing score (ties broken by tuple id, as
/// [`crate::VecRelation::score_sorted`] does). The view only advances a
/// (chunk, slot) position over them. Score order does not depend on the
/// query point, so one shared lane serves every query.
#[derive(Debug, Clone)]
pub struct SharedScoreRelation {
    name: Arc<str>,
    chunks: Arc<[Arc<Vec<Tuple>>]>,
    chunk: usize,
    slot: usize,
    len: usize,
    max_score: f64,
}

impl SharedScoreRelation {
    /// Creates a view over the one-chunk lane `sorted`, which must be in
    /// non-increasing score order.
    pub fn new(name: Arc<str>, sorted: Arc<Vec<Tuple>>, max_score: f64) -> Self {
        Self::chunked(name, Arc::from([sorted]), max_score)
    }

    /// Creates a view over `chunks` (a [`crate::merge_score_chunks`]
    /// lane), which read back to back must be in non-increasing score
    /// order. O(chunks) to create.
    pub fn chunked(name: Arc<str>, chunks: Arc<[Arc<Vec<Tuple>>]>, max_score: f64) -> Self {
        let tuples = chunks.iter().flat_map(|c| c.iter());
        debug_assert!(
            tuples
                .clone()
                .zip(tuples.skip(1))
                .all(|(a, b)| a.score >= b.score),
            "SharedScoreRelation input must be score-sorted"
        );
        let len = chunks.iter().map(|c| c.len()).sum();
        SharedScoreRelation {
            name,
            chunks,
            chunk: 0,
            slot: 0,
            len,
            max_score,
        }
    }
}

impl SortedAccess for SharedScoreRelation {
    fn next_tuple(&mut self) -> Option<Tuple> {
        while let Some(chunk) = self.chunks.get(self.chunk) {
            if let Some(t) = chunk.get(self.slot) {
                self.slot += 1;
                return Some(t.clone());
            }
            self.chunk += 1;
            self.slot = 0;
        }
        None
    }

    fn kind(&self) -> AccessKind {
        AccessKind::Score
    }

    fn total_len(&self) -> Option<usize> {
        Some(self.len)
    }

    fn max_score(&self) -> f64 {
        self.max_score
    }

    fn reset(&mut self) {
        self.chunk = 0;
        self.slot = 0;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// A sorted-access view over a *shared, already-sorted* tuple array of
/// either access kind.
///
/// This is the shared-payload counterpart of
/// [`crate::VecRelation::distance_sorted_by`]: when a non-Euclidean scoring
/// forces a per-query sort under its own distance `δ`, the engine sorts the
/// relation **once** per query, wraps the result in an `Arc`, and hands
/// every partitioned execution unit its own O(1) cursor over that one
/// array — instead of each unit re-cloning and re-sorting the relation.
/// The caller is responsible for the array actually being in the order the
/// `kind` promises.
#[derive(Debug, Clone)]
pub struct SharedOrderedRelation {
    name: Arc<str>,
    sorted: Arc<Vec<Tuple>>,
    cursor: usize,
    kind: AccessKind,
    max_score: f64,
}

impl SharedOrderedRelation {
    /// Creates a view over `sorted`, which must already be in the sorted
    /// order `kind` promises (non-decreasing `δ` for
    /// [`AccessKind::Distance`], non-increasing score for
    /// [`AccessKind::Score`]).
    pub fn new(name: Arc<str>, sorted: Arc<Vec<Tuple>>, kind: AccessKind, max_score: f64) -> Self {
        SharedOrderedRelation {
            name,
            sorted,
            cursor: 0,
            kind,
            max_score,
        }
    }
}

impl SortedAccess for SharedOrderedRelation {
    fn next_tuple(&mut self) -> Option<Tuple> {
        let t = self.sorted.get(self.cursor).cloned();
        if t.is_some() {
            self.cursor += 1;
        }
        t
    }

    fn kind(&self) -> AccessKind {
        self.kind
    }

    fn total_len(&self) -> Option<usize> {
        Some(self.sorted.len())
    }

    fn max_score(&self) -> f64 {
        self.max_score
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{RTreeRelation, VecRelation};

    fn mk_tuples(rel: usize, n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
                let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
                Tuple::new(
                    TupleId::new(rel, i),
                    Vector::from([x, y]),
                    (i % 10) as f64 / 10.0 + 0.05,
                )
            })
            .collect()
    }

    fn shared_tree(tuples: &[Tuple]) -> (Arc<RTree<(TupleId, f64)>>, f64) {
        let items: Vec<(Vector, (TupleId, f64))> = tuples
            .iter()
            .map(|t| (t.vector.clone(), (t.id, t.score)))
            .collect();
        let max_score = tuples
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        (Arc::new(RTree::bulk_load(2, items)), max_score)
    }

    #[test]
    fn shared_rtree_matches_owned_rtree_relation() {
        let tuples = mk_tuples(0, 60);
        let query = Vector::from([0.3, -0.2]);
        let (tree, max_score) = shared_tree(&tuples);
        let mut owned = RTreeRelation::new("owned", query.clone(), tuples);
        let mut shared = SharedRTreeRelation::new("shared".into(), tree, query.clone(), max_score);
        loop {
            match (owned.next_tuple(), shared.next_tuple()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert!((a.distance_to(&query) - b.distance_to(&query)).abs() < 1e-12);
                }
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(shared.kind(), AccessKind::Distance);
        assert_eq!(shared.total_len(), Some(60));
        assert_eq!(shared.max_score(), max_score);
        assert_eq!(shared.name(), "shared");
    }

    #[test]
    fn shared_rtree_views_are_independent() {
        let tuples = mk_tuples(0, 30);
        let (tree, max_score) = shared_tree(&tuples);
        let q1 = Vector::from([0.0, 0.0]);
        let q2 = Vector::from([4.0, -4.0]);
        let mut v1 = SharedRTreeRelation::new("a".into(), Arc::clone(&tree), q1.clone(), max_score);
        let mut v2 = SharedRTreeRelation::new("b".into(), tree, q2.clone(), max_score);
        // Interleave accesses: each view keeps its own frontier.
        let mut d1 = f64::NEG_INFINITY;
        let mut d2 = f64::NEG_INFINITY;
        for _ in 0..30 {
            let t1 = v1.next_tuple().expect("v1 tuple");
            let t2 = v2.next_tuple().expect("v2 tuple");
            assert!(t1.distance_to(&q1) >= d1 - 1e-12);
            assert!(t2.distance_to(&q2) >= d2 - 1e-12);
            d1 = t1.distance_to(&q1);
            d2 = t2.distance_to(&q2);
        }
        assert!(v1.next_tuple().is_none());
        // Reset rewinds only the view, not the shared tree.
        v1.reset();
        assert!(v1.next_tuple().is_some());
    }

    #[test]
    fn shared_score_relation_matches_vec_relation() {
        let tuples = mk_tuples(0, 25);
        let mut owned = VecRelation::score_sorted("owned", tuples.clone());
        let sorted = Arc::new(owned.sorted_tuples().to_vec());
        let max_score = owned.max_score();
        let mut shared = SharedScoreRelation::new("shared".into(), sorted, max_score);
        loop {
            match (owned.next_tuple(), shared.next_tuple()) {
                (None, None) => break,
                (Some(a), Some(b)) => assert_eq!(a, b),
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
        shared.reset();
        assert_eq!(shared.next_tuple().unwrap().score, max_score);
        assert_eq!(shared.kind(), AccessKind::Score);
        assert_eq!(shared.total_len(), Some(25));
    }

    #[test]
    fn shared_score_relation_reads_chunks_back_to_back() {
        let owned = VecRelation::score_sorted("owned", mk_tuples(0, 25));
        let lane = owned.sorted_tuples();
        let chunks: Vec<Arc<Vec<Tuple>>> = [0..0, 0..7, 7..7, 7..8, 8..25, 25..25]
            .map(|r| Arc::new(lane[r].to_vec()))
            .into();
        let mut shared = SharedScoreRelation::chunked("s".into(), chunks.into(), lane[0].score);
        assert_eq!(shared.total_len(), Some(25));
        assert_eq!(shared.kind(), AccessKind::Score);
        for _ in 0..2 {
            let read: Vec<Tuple> = std::iter::from_fn(|| shared.next_tuple()).collect();
            assert_eq!(read.as_slice(), lane);
            assert!(shared.next_tuple().is_none(), "stays exhausted");
            shared.reset();
        }
        // A reset in the middle of a chunk rewinds to the first chunk.
        for _ in 0..12 {
            shared.next_tuple();
        }
        shared.reset();
        assert_eq!(shared.next_tuple().as_ref(), lane.first());

        let empties: Vec<Arc<Vec<Tuple>>> = (0..3).map(|_| Arc::new(Vec::new())).collect();
        for chunks in [Vec::new(), empties] {
            let mut empty = SharedScoreRelation::chunked("e".into(), chunks.into(), 1.0);
            assert_eq!(empty.total_len(), Some(0));
            assert!(empty.next_tuple().is_none());
            empty.reset();
            assert!(empty.next_tuple().is_none());
        }
    }

    #[test]
    fn shared_ordered_relation_walks_the_given_order() {
        // One sorted array, two independent cursors.
        let tuples = mk_tuples(0, 12);
        let query = Vector::from([0.4, -0.6]);
        let sorted = {
            let mut t = tuples.clone();
            let q = query.clone();
            t.sort_by(|a, b| {
                a.distance_to(&q)
                    .total_cmp(&b.distance_to(&q))
                    .then(a.id.cmp(&b.id))
            });
            Arc::new(t)
        };
        let mut a =
            SharedOrderedRelation::new("r".into(), Arc::clone(&sorted), AccessKind::Distance, 0.95);
        let mut b =
            SharedOrderedRelation::new("r".into(), Arc::clone(&sorted), AccessKind::Distance, 0.95);
        assert_eq!(a.kind(), AccessKind::Distance);
        assert_eq!(a.total_len(), Some(12));
        assert_eq!(a.max_score(), 0.95);
        let _ = b.next_tuple();
        let walked: Vec<Tuple> = std::iter::from_fn(|| a.next_tuple()).collect();
        assert_eq!(
            walked.as_slice(),
            sorted.as_slice(),
            "cursor b is independent"
        );
        a.reset();
        assert_eq!(a.next_tuple().unwrap(), sorted[0]);
    }

    #[test]
    fn shared_sources_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SharedRTreeRelation>();
        assert_send::<SharedScoreRelation>();
        assert_send::<SharedOrderedRelation>();
        assert_send::<Box<dyn SortedAccess>>();
    }
}
