//! Sorted-access abstraction for proximity rank join.
//!
//! Definition 2.1 of the paper fixes the *only* way input relations may be
//! consumed: sequential sorted access, either by increasing distance from the
//! query vector (kind A, distance-based) or by decreasing score (kind B,
//! score-based). This crate provides that abstraction and the bookkeeping the
//! ProxRJ operator needs on top of it:
//!
//! * [`Tuple`] / [`TupleId`] — the unit of data flowing out of a relation: a
//!   feature vector plus a score, tagged with its relation and rank.
//! * [`SortedAccess`] — the pull-based access trait, with exactly one source
//!   per kind of storage: [`VecRelation`], a sorted lane of `Arc`-shared
//!   chunks read in either access kind, and [`RTreeRelation`], incremental
//!   nearest-neighbour access over an `Arc`-shared `prj-index` R-tree
//!   (mirroring a location-aware search service). A view over shared data
//!   costs O(1) for a tree and O(chunks) for a lane, so the `prj-engine`
//!   catalog serves many concurrent queries from one copy of each relation;
//!   [`MergedAccess`] recombines several views into one globally sorted
//!   stream.
//! * [`RelationBuffer`] — the seen prefix `P_i` of a relation together with
//!   its depth, first/last distance and first/last score, i.e. exactly the
//!   state the corner and tight bounds read.
//! * [`DeltaBuffer`] — the score-sorted side structure of a shard's freshly
//!   appended tuples: the O(delta) ingest lane the engine's catalog merges
//!   with the immutable base until a background compaction folds it in.
//! * [`AccessStats`] — per-relation depths and the `sumDepths` metric used
//!   throughout the paper's evaluation.
//! * [`RelationStats`] — per-relation data statistics (cardinality,
//!   dimensionality, score skew) consumed by the engine's planner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod delta;
pub mod kind;
pub mod merge;
pub mod source;
pub mod stats;
pub mod tuple;

pub use buffer::RelationBuffer;
pub use delta::DeltaBuffer;
pub use kind::AccessKind;
pub use merge::{MergeOrder, MergedAccess};
pub use source::{
    merge_score_chunks, merge_score_sorted, score_order, RTreeRelation, RelationSet, SortedAccess,
    VecRelation,
};
pub use stats::{AccessStats, RelationStats};
pub use tuple::{Tuple, TupleId};

/// Views over `Arc`-shared storage: many per-query cursors over one R-tree
/// or one sorted lane, each reading exactly what a source that owns its
/// data reads, and none disturbing another.
#[cfg(test)]
mod shared {
    mod tests {
        use crate::{AccessKind, RTreeRelation, SortedAccess, Tuple, TupleId, VecRelation};
        use prj_geometry::Vector;
        use prj_index::RTree;
        use std::sync::Arc;

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
            let mut owned = RTreeRelation::from_tuples("owned", query.clone(), tuples);
            let mut shared = RTreeRelation::new("shared", tree, query.clone(), max_score);
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
            assert_eq!(owned.max_score(), max_score);
            assert_eq!(shared.name(), "shared");
        }

        #[test]
        fn shared_rtree_views_are_independent() {
            let tuples = mk_tuples(0, 30);
            let (tree, max_score) = shared_tree(&tuples);
            let q1 = Vector::from([0.0, 0.0]);
            let q2 = Vector::from([4.0, -4.0]);
            let mut v1 = RTreeRelation::new("a", Arc::clone(&tree), q1.clone(), max_score);
            let mut v2 = RTreeRelation::new("b", tree, q2.clone(), max_score);
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
            assert!(v2.next_tuple().is_none());
        }

        #[test]
        fn shared_score_relation_matches_vec_relation() {
            let tuples = mk_tuples(0, 25);
            let mut owned = VecRelation::score_sorted("owned", tuples);
            let sorted = Arc::new(owned.sorted_tuples());
            let max_score = owned.max_score();
            let mut shared = VecRelation::chunked("shared", AccessKind::Score, [sorted], max_score);
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
            let mut shared = VecRelation::chunked("s", AccessKind::Score, chunks, lane[0].score);
            assert_eq!(shared.total_len(), Some(25));
            assert_eq!(shared.kind(), AccessKind::Score);
            for _ in 0..2 {
                let read: Vec<Tuple> = std::iter::from_fn(|| shared.next_tuple()).collect();
                assert_eq!(read, lane);
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
                let mut empty = VecRelation::chunked("e", AccessKind::Score, chunks, 1.0);
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
            let lane = || [Arc::clone(&sorted)];
            let mut a = VecRelation::chunked("r", AccessKind::Distance, lane(), 0.95);
            let mut b = VecRelation::chunked("r", AccessKind::Distance, lane(), 0.95);
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
            assert_send::<RTreeRelation>();
            assert_send::<VecRelation>();
            assert_send::<Box<dyn SortedAccess>>();
        }
    }
}
