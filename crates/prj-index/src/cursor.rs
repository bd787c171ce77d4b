//! A detached incremental nearest-neighbour cursor.
//!
//! [`super::rtree::NearestIter`] borrows the tree for its whole lifetime,
//! which is the right shape for one-shot local traversals but not for a
//! serving engine where *many* concurrent queries walk the *same* immutable
//! tree behind an [`std::sync::Arc`]. [`NearestCursor`] solves this by owning
//! only the traversal frontier (a best-first min-heap of node/entry ids) and
//! borrowing the tree afresh on every [`NearestCursor::next`] call: the
//! cursor itself is `Send`, can be stored in a struct next to an
//! `Arc<RTree<T>>`, and never blocks other readers.
//!
//! The caller must pass the same tree and query to every call; node ids are
//! only meaningful for the arena they were produced from. This is the same
//! contract as the arena-traversal API ([`super::rtree::RTree::node_entry`]
//! and friends) that the cursor is built on.

use crate::arena::NodeId;
use crate::rtree::{NearestNeighbor, RTree};
use prj_geometry::Vector;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One pending frontier element: an internal/leaf node or a concrete entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    dist: f64,
    is_entry: bool,
    node: NodeId,
    /// The entry's position in its leaf, and its payload-pool index.
    entry: u32,
    payload: u32,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the std max-heap acts as a min-heap; prefer entries
        // over nodes at equal distance so results are emitted as early as
        // possible (same tie-break as the relation sources in `prj-access`).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| self.is_entry.cmp(&other.is_entry))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A best-first incremental nearest-neighbour cursor that does not borrow the
/// tree between calls (Hjaltason–Samet traversal over the tree arena).
#[derive(Debug, Clone, Default)]
pub struct NearestCursor {
    heap: BinaryHeap<Pending>,
}

impl NearestCursor {
    /// Creates a cursor positioned before the nearest point of `tree`.
    pub fn new<T>(tree: &RTree<T>, query: &Vector) -> Self {
        let mut cursor = NearestCursor {
            heap: BinaryHeap::new(),
        };
        cursor.reset(tree, query);
        cursor
    }

    /// Rewinds the cursor to the beginning of the distance ordering.
    pub fn reset<T>(&mut self, tree: &RTree<T>, query: &Vector) {
        self.heap.clear();
        if let Some(root) = tree.root() {
            self.heap.push(Pending {
                dist: tree.node_min_distance(root, query),
                is_entry: false,
                node: root,
                entry: 0,
                payload: 0,
            });
        }
    }

    /// Yields the next point in non-decreasing distance from `query`, or
    /// `None` when the tree is exhausted.
    ///
    /// `tree` and `query` must be the ones this cursor was created (or last
    /// [`reset`](Self::reset)) with.
    pub fn next<'t, T>(
        &mut self,
        tree: &'t RTree<T>,
        query: &Vector,
    ) -> Option<NearestNeighbor<'t, T>> {
        while let Some(item) = self.heap.pop() {
            if item.is_entry {
                let (point, data) = tree.pooled_entry(item.node, item.entry as usize, item.payload);
                return Some(NearestNeighbor {
                    point,
                    data,
                    distance: item.dist,
                });
            }
            if tree.is_leaf(item.node) {
                for (idx, (dist, payload)) in tree.leaf_entries(item.node, query).enumerate() {
                    self.heap.push(Pending {
                        dist,
                        is_entry: true,
                        node: item.node,
                        entry: idx as u32,
                        payload,
                    });
                }
            } else {
                for &child in tree.node_children(item.node) {
                    self.heap.push(Pending {
                        dist: tree.node_min_distance(child, query),
                        is_entry: false,
                        node: child,
                        entry: 0,
                        payload: 0,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_tree() -> RTree<usize> {
        let items: Vec<(Vector, usize)> = (0..50)
            .map(|i| {
                let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
                let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
                (Vector::from([x, y]), i)
            })
            .collect();
        RTree::bulk_load(2, items)
    }

    #[test]
    fn cursor_matches_borrowing_iterator() {
        let tree = sample_tree();
        let query = Vector::from([0.4, -0.7]);
        let mut cursor = NearestCursor::new(&tree, &query);
        let expected: Vec<(usize, f64)> = tree
            .nearest_iter(&query)
            .map(|n| (*n.data, n.distance))
            .collect();
        let mut got = Vec::new();
        while let Some(n) = cursor.next(&tree, &query) {
            got.push((*n.data, n.distance));
        }
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g.1 - e.1).abs() < 1e-12, "distance order diverged");
        }
    }

    #[test]
    fn cursor_resets() {
        let tree = sample_tree();
        let query = Vector::from([0.0, 0.0]);
        let mut cursor = NearestCursor::new(&tree, &query);
        let first: Vec<usize> = std::iter::from_fn(|| cursor.next(&tree, &query).map(|n| *n.data))
            .take(5)
            .collect();
        cursor.reset(&tree, &query);
        let again: Vec<usize> = std::iter::from_fn(|| cursor.next(&tree, &query).map(|n| *n.data))
            .take(5)
            .collect();
        assert_eq!(first, again);
    }

    #[test]
    fn many_cursors_share_one_arc_tree_across_threads() {
        let tree = Arc::new(sample_tree());
        let queries: Vec<Vector> = (0..8)
            .map(|i| Vector::from([i as f64 / 4.0 - 1.0, 0.3]))
            .collect();
        let counts: Vec<usize> = std::thread::scope(|scope| {
            queries
                .iter()
                .map(|q| {
                    let tree = Arc::clone(&tree);
                    scope.spawn(move || {
                        let mut cursor = NearestCursor::new(&tree, q);
                        let mut previous = f64::NEG_INFINITY;
                        let mut count = 0;
                        while let Some(n) = cursor.next(&tree, q) {
                            assert!(n.distance >= previous - 1e-12);
                            previous = n.distance;
                            count += 1;
                        }
                        count
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("cursor thread"))
                .collect()
        });
        assert!(counts.iter().all(|&c| c == tree.len()));
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let tree: RTree<u8> = RTree::new(3);
        let query = Vector::from([0.0, 0.0, 0.0]);
        let mut cursor = NearestCursor::new(&tree, &query);
        assert!(cursor.next(&tree, &query).is_none());
    }

    #[test]
    fn rtree_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RTree<(usize, f64)>>();
        assert_send_sync::<NearestCursor>();
    }
}
