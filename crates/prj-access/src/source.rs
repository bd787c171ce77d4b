//! Relation sources: implementations of sorted access.

use crate::kind::AccessKind;
use crate::tuple::{Tuple, TupleId};
use prj_geometry::Vector;
use prj_index::{NearestCursor, RTree};
use std::cmp::Ordering;
use std::sync::Arc;

/// The score-based sorted-access order with a total tie-break: score
/// descending, ties by tuple id ascending. Every score-sorted lane —
/// [`VecRelation::score_sorted`], a [`crate::DeltaBuffer`], the engine
/// catalog's per-shard base — is kept in this order.
pub fn score_order(a: &Tuple, b: &Tuple) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// `sorted` (already in [`score_order`]) extended by `extra` (any order),
/// in [`score_order`]: `extra` is sorted alone and merged in with one pass
/// over `sorted` — O(n + m·log m) for n sorted and m extra tuples, no
/// re-sort. Ids are unique, so the order is total and the result is
/// exactly what sorting the union from scratch produces.
pub fn merge_score_sorted(sorted: &[Tuple], mut extra: Vec<Tuple>) -> Vec<Tuple> {
    extra.sort_by(score_order);
    let mut merged = Vec::with_capacity(sorted.len() + extra.len());
    let mut rest = sorted;
    for e in extra {
        let ahead = rest.partition_point(|t| score_order(t, &e).is_lt());
        merged.extend_from_slice(&rest[..ahead]);
        merged.push(e);
        rest = &rest[ahead..];
    }
    merged.extend_from_slice(rest);
    merged
}

/// The run length [`merge_score_chunks`] cuts an over-long chunk into.
const SCORE_CHUNK: usize = 1024;

/// A score lane stored as `chunks` — read back to back, they are in
/// [`score_order`] — extended by `extra` (any order), in the same chunked
/// form. Each batch tuple lands in the chunk it sorts into (it stays ahead
/// of the next non-empty chunk's first tuple), and only the chunks the
/// batch lands in are rebuilt, each by [`merge_score_sorted`]; a rebuilt
/// chunk longer than two runs is cut into runs of 1024. Every other chunk
/// is shared by [`Arc`], so extending an n-tuple lane by m tuples copies
/// O(m · 1024) tuples, not O(n). With no chunks, the batch alone (moved,
/// not cloned) becomes the lane.
pub fn merge_score_chunks(chunks: &[Arc<Vec<Tuple>>], extra: Vec<Tuple>) -> Vec<Arc<Vec<Tuple>>> {
    merge_score_chunks_in_runs(chunks, extra, SCORE_CHUNK)
}

fn merge_score_chunks_in_runs(
    chunks: &[Arc<Vec<Tuple>>],
    mut extra: Vec<Tuple>,
    run: usize,
) -> Vec<Arc<Vec<Tuple>>> {
    extra.sort_by(score_order);
    let mut extra = extra.into_iter().peekable();
    let mut merged = Vec::with_capacity(chunks.len() + 2);
    for (i, chunk) in chunks.iter().enumerate() {
        let next = chunks[i + 1..].iter().find_map(|c| c.first());
        let landing: Vec<Tuple> = std::iter::from_fn(|| {
            extra.next_if(|e| next.is_none_or(|n| score_order(e, n).is_lt()))
        })
        .collect();
        if landing.is_empty() {
            merged.push(Arc::clone(chunk));
        } else {
            push_runs(&mut merged, merge_score_sorted(chunk, landing), run);
        }
    }
    let rest: Vec<Tuple> = extra.collect();
    if !rest.is_empty() {
        push_runs(&mut merged, rest, run);
    }
    merged
}

/// Pushes the sorted `lane` onto `chunks` as one chunk, or — when it is
/// longer than `2 · run` — as consecutive runs of `run` tuples (moved).
fn push_runs(chunks: &mut Vec<Arc<Vec<Tuple>>>, lane: Vec<Tuple>, run: usize) {
    if lane.len() <= 2 * run {
        chunks.push(Arc::new(lane));
        return;
    }
    let mut lane = lane.into_iter();
    while lane.len() > 0 {
        chunks.push(Arc::new(lane.by_ref().take(run).collect()));
    }
}

/// Pull-based sorted access to one relation (Definition 2.1).
///
/// A `SortedAccess` yields tuples one at a time, in the order dictated by its
/// [`AccessKind`]: non-decreasing distance from the query for
/// [`AccessKind::Distance`], non-increasing score for [`AccessKind::Score`].
/// Once `next_tuple` returns `None` the relation is exhausted and stays so.
///
/// The trait requires `Send` so that whole problem instances — relations
/// included — can be moved into worker threads by the `prj-engine` executor.
pub trait SortedAccess: Send {
    /// Returns the next tuple under sorted access, or `None` when exhausted.
    fn next_tuple(&mut self) -> Option<Tuple>;

    /// The access kind this relation supports.
    fn kind(&self) -> AccessKind;

    /// Total number of tuples in the relation, when known.
    fn total_len(&self) -> Option<usize>;

    /// The maximum score `σ_max` any tuple of this relation can have.
    ///
    /// Distance-based bounds need this value for tuples that have not been
    /// seen yet (paper Eqs. 4–5); when the true domain maximum is unknown the
    /// implementations default to the maximum score present in the data.
    fn max_score(&self) -> f64;

    /// Restarts the access from the beginning.
    fn reset(&mut self);

    /// Human-readable name, used in reports.
    fn name(&self) -> &str {
        "relation"
    }
}

/// An in-memory relation that pre-sorts its tuples at construction time.
///
/// This is the reference implementation used by tests and synthetic
/// experiments: cheap to build and obviously correct.
#[derive(Debug, Clone)]
pub struct VecRelation {
    name: String,
    kind: AccessKind,
    sorted: Vec<Tuple>,
    cursor: usize,
    max_score: f64,
}

impl VecRelation {
    /// Builds a distance-sorted relation: tuples are returned in increasing
    /// Euclidean distance from `query`.
    pub fn distance_sorted(name: impl Into<String>, query: &Vector, tuples: Vec<Tuple>) -> Self {
        let q = query.clone();
        Self::distance_sorted_by(name, tuples, move |t| t.distance_to(&q))
    }

    /// Builds a distance-sorted relation using an arbitrary distance key
    /// (e.g. a cosine distance from the query). The key must be the same
    /// distance `δ(·, q)` used by the aggregation function, otherwise the
    /// bounds derived from the access frontier are meaningless.
    pub fn distance_sorted_by(
        name: impl Into<String>,
        tuples: Vec<Tuple>,
        distance_to_query: impl Fn(&Tuple) -> f64,
    ) -> Self {
        let mut sorted = tuples;
        sorted.sort_by(|a, b| {
            distance_to_query(a)
                .total_cmp(&distance_to_query(b))
                .then(a.id.cmp(&b.id))
        });
        let max_score = sorted
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        VecRelation {
            name: name.into(),
            kind: AccessKind::Distance,
            sorted,
            cursor: 0,
            max_score: if max_score.is_finite() {
                max_score
            } else {
                1.0
            },
        }
    }

    /// Builds a score-sorted relation: tuples are returned in decreasing score.
    pub fn score_sorted(name: impl Into<String>, tuples: Vec<Tuple>) -> Self {
        let mut sorted = tuples;
        sorted.sort_by(score_order);
        let max_score = sorted.first().map(|t| t.score).unwrap_or(1.0);
        VecRelation {
            name: name.into(),
            kind: AccessKind::Score,
            sorted,
            cursor: 0,
            max_score,
        }
    }

    /// Overrides the maximum-score domain knowledge (`σ_max`).
    pub fn with_max_score(mut self, max_score: f64) -> Self {
        self.max_score = max_score;
        self
    }

    /// The tuples in access order (seen or not); useful for tests.
    pub fn sorted_tuples(&self) -> &[Tuple] {
        &self.sorted
    }
}

impl SortedAccess for VecRelation {
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

/// A distance-sorted relation backed by the `prj-index` R-tree.
///
/// The relation owns the tree and runs a detached best-first incremental
/// nearest-neighbour cursor ([`NearestCursor`]) over the tree's arena, so it
/// can be stored, moved and reset freely — this mimics a stateful session
/// with a location-aware search service. (For relations *shared* by many
/// concurrent queries, see [`crate::shared::SharedRTreeRelation`], which runs
/// the same cursor over an `Arc`'d tree.)
#[derive(Debug, Clone)]
pub struct RTreeRelation {
    name: String,
    query: Vector,
    tree: RTree<(TupleId, f64)>,
    cursor: NearestCursor,
    max_score: f64,
}

impl RTreeRelation {
    /// Builds the relation from tuples; the R-tree is bulk-loaded.
    pub fn new(name: impl Into<String>, query: Vector, tuples: Vec<Tuple>) -> Self {
        let dim = query.dim();
        let max_score = tuples
            .iter()
            .map(|t| t.score)
            .fold(f64::NEG_INFINITY, f64::max);
        let items: Vec<(Vector, (TupleId, f64))> = tuples
            .into_iter()
            .map(|t| (t.vector, (t.id, t.score)))
            .collect();
        let tree = RTree::bulk_load(dim, items);
        let cursor = NearestCursor::new(&tree, &query);
        RTreeRelation {
            name: name.into(),
            query,
            tree,
            cursor,
            max_score: if max_score.is_finite() {
                max_score
            } else {
                1.0
            },
        }
    }

    /// Overrides the maximum-score domain knowledge (`σ_max`).
    pub fn with_max_score(mut self, max_score: f64) -> Self {
        self.max_score = max_score;
        self
    }

    /// Read access to the underlying R-tree.
    pub fn tree(&self) -> &RTree<(TupleId, f64)> {
        &self.tree
    }
}

impl SortedAccess for RTreeRelation {
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

/// A set of relations participating in one proximity rank join, all sharing
/// the same access kind.
pub struct RelationSet {
    relations: Vec<Box<dyn SortedAccess>>,
    kind: AccessKind,
}

impl RelationSet {
    /// Creates a relation set.
    ///
    /// # Panics
    /// Panics if `relations` is empty or the access kinds disagree.
    pub fn new(relations: Vec<Box<dyn SortedAccess>>) -> Self {
        assert!(
            !relations.is_empty(),
            "a rank join needs at least one relation"
        );
        let kind = relations[0].kind();
        assert!(
            relations.iter().all(|r| r.kind() == kind),
            "all relations must share the same access kind"
        );
        RelationSet { relations, kind }
    }

    /// Number of relations `n`.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// `true` when there are no relations (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The shared access kind.
    pub fn kind(&self) -> AccessKind {
        self.kind
    }

    /// Mutable access to relation `i`.
    pub fn relation_mut(&mut self, i: usize) -> &mut dyn SortedAccess {
        self.relations[i].as_mut()
    }

    /// Shared access to relation `i`.
    pub fn relation(&self, i: usize) -> &dyn SortedAccess {
        self.relations[i].as_ref()
    }

    /// Maximum scores `σ_max` of every relation.
    pub fn max_scores(&self) -> Vec<f64> {
        self.relations.iter().map(|r| r.max_score()).collect()
    }

    /// Resets every relation to the beginning of its access sequence.
    pub fn reset_all(&mut self) {
        for r in &mut self.relations {
            r.reset();
        }
    }
}

impl std::fmt::Debug for RelationSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RelationSet")
            .field("n", &self.relations.len())
            .field("kind", &self.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mk_tuples(rel: usize, pts: &[(f64, f64, f64)]) -> Vec<Tuple> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y, s))| Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), s))
            .collect()
    }

    #[test]
    fn vec_relation_distance_order() {
        let q = Vector::from([0.0, 0.0]);
        let tuples = mk_tuples(0, &[(3.0, 0.0, 0.5), (1.0, 0.0, 0.9), (2.0, 0.0, 0.1)]);
        let mut rel = VecRelation::distance_sorted("r", &q, tuples);
        let d: Vec<f64> = std::iter::from_fn(|| rel.next_tuple())
            .map(|t| t.distance_to(&q))
            .collect();
        assert_eq!(d, vec![1.0, 2.0, 3.0]);
        assert_eq!(rel.max_score(), 0.9);
        assert_eq!(rel.total_len(), Some(3));
        assert!(rel.next_tuple().is_none());
        rel.reset();
        assert!(rel.next_tuple().is_some());
    }

    #[test]
    fn vec_relation_score_order() {
        let tuples = mk_tuples(0, &[(0.0, 0.0, 0.5), (1.0, 0.0, 0.9), (2.0, 0.0, 0.1)]);
        let mut rel = VecRelation::score_sorted("r", tuples);
        let s: Vec<f64> = std::iter::from_fn(|| rel.next_tuple())
            .map(|t| t.score)
            .collect();
        assert_eq!(s, vec![0.9, 0.5, 0.1]);
        assert_eq!(rel.kind(), AccessKind::Score);
    }

    #[test]
    fn rtree_relation_matches_vec_relation() {
        let q = Vector::from([0.3, -0.2]);
        let mut pts = Vec::new();
        for i in 0..60 {
            let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
            let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
            pts.push((x, y, (i as f64 % 10.0) / 10.0 + 0.05));
        }
        let tuples = mk_tuples(0, &pts);
        let mut vec_rel = VecRelation::distance_sorted("vec", &q, tuples.clone());
        let mut rtree_rel = RTreeRelation::new("rtree", q.clone(), tuples);
        loop {
            let a = vec_rel.next_tuple();
            let b = rtree_rel.next_tuple();
            match (a, b) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    assert!((a.distance_to(&q) - b.distance_to(&q)).abs() < 1e-9);
                }
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(rtree_rel.kind(), AccessKind::Distance);
        assert_eq!(rtree_rel.total_len(), Some(60));
    }

    #[test]
    fn rtree_relation_reset() {
        let q = Vector::from([0.0, 0.0]);
        let tuples = mk_tuples(0, &[(1.0, 0.0, 0.5), (2.0, 0.0, 0.6)]);
        let mut rel = RTreeRelation::new("r", q, tuples);
        assert_eq!(std::iter::from_fn(|| rel.next_tuple()).count(), 2);
        rel.reset();
        assert_eq!(std::iter::from_fn(|| rel.next_tuple()).count(), 2);
    }

    #[test]
    fn relation_set_validation() {
        let q = Vector::from([0.0, 0.0]);
        let r1 = VecRelation::distance_sorted("a", &q, mk_tuples(0, &[(1.0, 0.0, 0.5)]));
        let r2 = VecRelation::distance_sorted("b", &q, mk_tuples(1, &[(2.0, 0.0, 0.7)]));
        let mut set = RelationSet::new(vec![Box::new(r1), Box::new(r2)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.kind(), AccessKind::Distance);
        assert_eq!(set.max_scores(), vec![0.5, 0.7]);
        assert!(set.relation_mut(0).next_tuple().is_some());
        set.reset_all();
        assert!(set.relation_mut(0).next_tuple().is_some());
    }

    #[test]
    #[should_panic]
    fn mixed_access_kinds_panic() {
        let q = Vector::from([0.0, 0.0]);
        let r1 = VecRelation::distance_sorted("a", &q, mk_tuples(0, &[(1.0, 0.0, 0.5)]));
        let r2 = VecRelation::score_sorted("b", mk_tuples(1, &[(2.0, 0.0, 0.7)]));
        let _ = RelationSet::new(vec![Box::new(r1), Box::new(r2)]);
    }

    /// `sorted` cut into consecutive chunks of the given lengths, cycled
    /// (which must hold a non-zero length). A zero length gives an empty
    /// chunk, leading, in the middle or trailing.
    fn cut(sorted: &[Tuple], lens: &[usize]) -> Vec<Arc<Vec<Tuple>>> {
        let mut lens = lens.iter().copied().cycle().peekable();
        let mut chunks = Vec::new();
        let mut rest = sorted;
        while !rest.is_empty() || lens.peek() == Some(&0) {
            let len = lens.next().unwrap_or(0);
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            chunks.push(Arc::new(chunk.to_vec()));
            rest = tail;
        }
        chunks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The chunk merge at C = 4 — scores from six levels, so ties are
        /// common — equals a from-scratch sort of the union, reads back
        /// through one [`crate::SharedScoreRelation`], keeps every chunk
        /// within 2·C, and shares exactly the chunks no batch tuple lands
        /// in (a batch tuple lands in the chunk of its predecessor among
        /// the base tuples, or the first chunk). Base chunks hold 0 to 2·C
        /// tuples.
        #[test]
        fn chunk_merge_equals_a_rebuild_and_shares_untouched_chunks(
            base in prop::collection::vec(0usize..6, 0..60),
            lens in prop::collection::vec(0usize..9, 0..8),
            batch in prop::collection::vec(0usize..6, 0..12),
        ) {
            let score = |level: usize| level as f64 / 5.0;
            let tuple = |i: usize, level: usize| {
                Tuple::new(TupleId::new(0, i), Vector::from([i as f64, 0.0]), score(level))
            };
            let base: Vec<Tuple> = base.into_iter().enumerate().map(|(i, l)| tuple(i, l)).collect();
            let first = base.len();
            let batch: Vec<Tuple> = batch
                .into_iter()
                .enumerate()
                .map(|(i, l)| tuple(first + i, l))
                .collect();
            let sorted_base = VecRelation::score_sorted("base", base.clone());
            let chunks = cut(sorted_base.sorted_tuples(), &[lens, vec![1]].concat());
            let chunk_of: Vec<usize> = chunks
                .iter()
                .enumerate()
                .flat_map(|(i, c)| std::iter::repeat_n(i, c.len()))
                .collect();
            let landed: Vec<usize> = batch
                .iter()
                .map(|b| {
                    let ahead = sorted_base
                        .sorted_tuples()
                        .partition_point(|t| score_order(t, b).is_lt());
                    ahead.checked_sub(1).map_or(0, |p| chunk_of[p])
                })
                .collect();

            let merged = merge_score_chunks_in_runs(&chunks, batch.clone(), 4);

            let union = VecRelation::score_sorted("union", [base, batch].concat());
            let lane: Vec<Tuple> = merged.iter().flat_map(|c| c.iter().cloned()).collect();
            prop_assert_eq!(lane.as_slice(), union.sorted_tuples());
            let mut reader =
                crate::SharedScoreRelation::chunked("r".into(), merged.clone().into(), 1.0);
            let read: Vec<Tuple> = std::iter::from_fn(|| reader.next_tuple()).collect();
            prop_assert_eq!(read.as_slice(), union.sorted_tuples());
            prop_assert!(merged.iter().all(|c| c.len() <= 8), "a chunk is over 2·C");
            for (i, chunk) in chunks.iter().enumerate() {
                let shared = merged.iter().any(|m| Arc::ptr_eq(m, chunk));
                prop_assert_eq!(shared, !landed.contains(&i), "chunk {}", i);
            }
        }
    }

    #[test]
    fn chunk_merge_cuts_a_long_lane_into_moved_runs() {
        let tuples: Vec<Tuple> = (0..11)
            .map(|i| Tuple::new(TupleId::new(0, i), Vector::from([0.0]), (i % 3) as f64))
            .collect();
        let merged = merge_score_chunks_in_runs(&[], tuples.clone(), 4);
        let lens: Vec<usize> = merged.iter().map(|c| c.len()).collect();
        assert_eq!(lens, vec![4, 4, 3]);
        let lane: Vec<Tuple> = merged.iter().flat_map(|c| c.iter().cloned()).collect();
        assert_eq!(lane, VecRelation::score_sorted("r", tuples).sorted_tuples());
        // An empty batch shares every chunk as it is.
        let again = merge_score_chunks_in_runs(&merged, Vec::new(), 4);
        assert!(merged.iter().zip(&again).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(again.len(), merged.len());
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let q = Vector::from([0.0, 0.0]);
        let mut rel = VecRelation::distance_sorted("empty", &q, vec![]);
        assert!(rel.next_tuple().is_none());
        assert_eq!(rel.total_len(), Some(0));
        assert_eq!(rel.max_score(), 1.0);
    }
}
