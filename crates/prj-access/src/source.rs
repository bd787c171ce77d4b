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
/// catalog's per-shard score lane (built from the shard's R-tree on its
/// first score-sorted read) — is kept in this order.
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

/// A sorted lane: tuples read back to back from a list of chunks shared by
/// [`Arc`], for either [`AccessKind`].
///
/// The source only advances a (chunk, slot) position, so any number of
/// concurrent queries can read one lane — the `prj-engine` catalog's
/// score-sorted shard chunks, or a shard delta — without copying it, each
/// view O(chunks) to create. The constructors that take raw tuples sort them
/// into a private one-chunk lane.
#[derive(Debug, Clone)]
pub struct VecRelation {
    name: Arc<str>,
    kind: AccessKind,
    chunks: Arc<[Arc<Vec<Tuple>>]>,
    chunk: usize,
    slot: usize,
    len: usize,
    max_score: f64,
}

impl VecRelation {
    /// A view over `chunks`, which read back to back must already be in the
    /// order `kind` promises: non-decreasing `δ(·, q)` for
    /// [`AccessKind::Distance`], [`score_order`] for [`AccessKind::Score`]
    /// (e.g. a [`merge_score_chunks`] lane).
    pub fn chunked(
        name: impl Into<Arc<str>>,
        kind: AccessKind,
        chunks: impl Into<Arc<[Arc<Vec<Tuple>>]>>,
        max_score: f64,
    ) -> Self {
        let chunks = chunks.into();
        let tuples = chunks.iter().flat_map(|c| c.iter());
        debug_assert!(
            kind == AccessKind::Distance
                || tuples
                    .clone()
                    .zip(tuples.skip(1))
                    .all(|(a, b)| a.score >= b.score),
            "a score lane must be score-sorted"
        );
        let len = chunks.iter().map(|c| c.len()).sum();
        VecRelation {
            name: name.into(),
            kind,
            chunks,
            chunk: 0,
            slot: 0,
            len,
            max_score,
        }
    }

    /// Builds a distance-sorted relation: tuples are returned in increasing
    /// Euclidean distance from `query`.
    pub fn distance_sorted(name: impl Into<Arc<str>>, query: &Vector, tuples: Vec<Tuple>) -> Self {
        let q = query.clone();
        Self::distance_sorted_by(name, tuples, move |t| t.distance_to(&q))
    }

    /// Builds a distance-sorted relation using an arbitrary distance key
    /// (e.g. a cosine distance from the query), ties by tuple id. The key
    /// must be the same distance `δ(·, q)` used by the aggregation
    /// function, otherwise the bounds derived from the access frontier are
    /// meaningless.
    pub fn distance_sorted_by(
        name: impl Into<Arc<str>>,
        mut tuples: Vec<Tuple>,
        distance_to_query: impl Fn(&Tuple) -> f64,
    ) -> Self {
        tuples.sort_by(|a, b| {
            distance_to_query(a)
                .total_cmp(&distance_to_query(b))
                .then(a.id.cmp(&b.id))
        });
        let max_score = max_score_or_one(&tuples);
        Self::chunked(name, AccessKind::Distance, [Arc::new(tuples)], max_score)
    }

    /// Builds a score-sorted relation: tuples are returned in
    /// [`score_order`].
    pub fn score_sorted(name: impl Into<Arc<str>>, mut tuples: Vec<Tuple>) -> Self {
        tuples.sort_by(score_order);
        let max_score = tuples.first().map_or(1.0, |t| t.score);
        Self::chunked(name, AccessKind::Score, [Arc::new(tuples)], max_score)
    }

    /// Overrides the maximum-score domain knowledge (`σ_max`).
    pub fn with_max_score(mut self, max_score: f64) -> Self {
        self.max_score = max_score;
        self
    }

    /// The whole lane in access order (seen or not), copied; for tests.
    pub fn sorted_tuples(&self) -> Vec<Tuple> {
        self.chunks.iter().flat_map(|c| c.iter().cloned()).collect()
    }
}

/// The largest score in `tuples`, or 1.0 when there is none (an empty
/// relation's σ_max).
fn max_score_or_one(tuples: &[Tuple]) -> f64 {
    let max_score = tuples
        .iter()
        .map(|t| t.score)
        .fold(f64::NEG_INFINITY, f64::max);
    if max_score.is_finite() {
        max_score
    } else {
        1.0
    }
}

impl SortedAccess for VecRelation {
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
        self.kind
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

/// A distance-sorted relation backed by a `prj-index` R-tree shared by
/// [`Arc`].
///
/// Each view runs its own best-first incremental nearest-neighbour cursor
/// ([`NearestCursor`]) over the shared tree, so it can be stored, moved and
/// reset freely — a stateful session with a location-aware search service —
/// and any number of concurrent queries can read one tree, each view O(1)
/// to create.
#[derive(Debug, Clone)]
pub struct RTreeRelation {
    name: Arc<str>,
    /// Shared with every other view of the same query: one query vector is
    /// allocated per query, not per view.
    query: Arc<Vector>,
    tree: Arc<RTree<(TupleId, f64)>>,
    cursor: NearestCursor,
    max_score: f64,
}

impl RTreeRelation {
    /// A view of `tree`, positioned before the nearest tuple to `query`.
    /// Accepts an owned [`Vector`] or an already-shared `Arc<Vector>`; pass
    /// the latter to share one allocation across views.
    pub fn new(
        name: impl Into<Arc<str>>,
        tree: Arc<RTree<(TupleId, f64)>>,
        query: impl Into<Arc<Vector>>,
        max_score: f64,
    ) -> Self {
        let query = query.into();
        let cursor = NearestCursor::new(&tree, &query);
        RTreeRelation {
            name: name.into(),
            query,
            tree,
            cursor,
            max_score,
        }
    }

    /// A view of a tree bulk-loaded from `tuples`, with their largest score
    /// (1.0 when there is none) as σ_max.
    pub fn from_tuples(
        name: impl Into<Arc<str>>,
        query: impl Into<Arc<Vector>>,
        tuples: Vec<Tuple>,
    ) -> Self {
        let query = query.into();
        let max_score = max_score_or_one(&tuples);
        let items: Vec<(Vector, (TupleId, f64))> = tuples
            .into_iter()
            .map(|t| (t.vector, (t.id, t.score)))
            .collect();
        let tree = Arc::new(RTree::bulk_load(query.dim(), items));
        Self::new(name, tree, query, max_score)
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
        let mut rtree_rel = RTreeRelation::from_tuples("rtree", q.clone(), tuples);
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
        let mut rel = RTreeRelation::from_tuples("r", q, tuples);
        assert_eq!(std::iter::from_fn(|| rel.next_tuple()).count(), 2);
        rel.reset();
        assert_eq!(std::iter::from_fn(|| rel.next_tuple()).count(), 2);
        assert_eq!((rel.name(), rel.max_score()), ("r", 0.6));
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
        /// through one chunked [`VecRelation`], keeps every chunk
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
            let sorted_base = VecRelation::score_sorted("base", base.clone()).sorted_tuples();
            let chunks = cut(&sorted_base, &[lens, vec![1]].concat());
            let chunk_of: Vec<usize> = chunks
                .iter()
                .enumerate()
                .flat_map(|(i, c)| std::iter::repeat_n(i, c.len()))
                .collect();
            let landed: Vec<usize> = batch
                .iter()
                .map(|b| {
                    let ahead = sorted_base.partition_point(|t| score_order(t, b).is_lt());
                    ahead.checked_sub(1).map_or(0, |p| chunk_of[p])
                })
                .collect();

            let merged = merge_score_chunks_in_runs(&chunks, batch.clone(), 4);

            let union = VecRelation::score_sorted("union", [base, batch].concat());
            let lane: Vec<Tuple> = merged.iter().flat_map(|c| c.iter().cloned()).collect();
            prop_assert_eq!(lane.as_slice(), union.sorted_tuples());
            let mut reader = VecRelation::chunked("r", AccessKind::Score, merged.clone(), 1.0);
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
        let no_chunks: Vec<Arc<Vec<Tuple>>> = Vec::new();
        let empty_chunks: Vec<Arc<Vec<Tuple>>> = (0..3).map(|_| Arc::default()).collect();
        let relations: [Box<dyn SortedAccess>; 5] = [
            Box::new(VecRelation::distance_sorted("d", &q, vec![])),
            Box::new(VecRelation::score_sorted("s", vec![])),
            Box::new(RTreeRelation::from_tuples("t", q.clone(), vec![])),
            Box::new(VecRelation::chunked("c", AccessKind::Score, no_chunks, 1.0)),
            Box::new(VecRelation::chunked(
                "e",
                AccessKind::Score,
                empty_chunks,
                1.0,
            )),
        ];
        for mut rel in relations {
            assert!(rel.next_tuple().is_none());
            rel.reset();
            assert!(rel.next_tuple().is_none());
            assert_eq!(rel.total_len(), Some(0));
            assert_eq!(rel.max_score(), 1.0, "σ_max falls back to 1.0");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both sources read exactly the from-scratch sort of their tuples.
        /// A [`VecRelation`] over any chunking of the lane, for both kinds
        /// (score in [`score_order`], distance with ties by id), reads the
        /// sort after a reset `stop` tuples in (often mid-chunk), stays
        /// exhausted, and leaves a second view over the same chunks at the
        /// head. An [`RTreeRelation`] yields the distance lane's distances,
        /// in order, over the same ids, again after a reset. Points sit on
        /// a 5 × 5 grid with six score levels, so ties are common, and the
        /// lane may be empty.
        #[test]
        fn sources_read_the_from_scratch_sort(
            cells in prop::collection::vec((0usize..5, 0usize..5, 0usize..6), 0..40),
            lens in prop::collection::vec(0usize..9, 0..8),
            stop in 0usize..40,
            qx in 0usize..9,
            qy in 0usize..9,
        ) {
            let query = Vector::from([qx as f64 / 2.0, qy as f64 / 2.0]);
            let tuples: Vec<Tuple> = cells
                .iter()
                .enumerate()
                .map(|(i, &(x, y, level))| {
                    let at = Vector::from([x as f64, y as f64]);
                    Tuple::new(TupleId::new(0, i), at, (level + 1) as f64 / 6.0)
                })
                .collect();
            let distance = |t: &Tuple| t.distance_to(&query);
            let mut by_score = tuples.clone();
            by_score.sort_by(score_order);
            let mut by_distance = tuples.clone();
            by_distance.sort_by(|a, b| distance(a).total_cmp(&distance(b)).then(a.id.cmp(&b.id)));
            let max_score = max_score_or_one(&tuples);
            let lens = [lens, vec![1]].concat();
            for (kind, lane, built) in [
                (AccessKind::Score, &by_score, VecRelation::score_sorted("s", tuples.clone())),
                (
                    AccessKind::Distance,
                    &by_distance,
                    VecRelation::distance_sorted("d", &query, tuples.clone()),
                ),
            ] {
                prop_assert_eq!((built.kind(), built.max_score()), (kind, max_score));
                prop_assert_eq!(&built.sorted_tuples(), lane);
                let chunks: Arc<[Arc<Vec<Tuple>>]> = cut(lane, &lens).into();
                let mut view = VecRelation::chunked("v", kind, Arc::clone(&chunks), 0.5);
                let mut other = VecRelation::chunked("v", kind, chunks, 0.5);
                let shape = (view.kind(), view.total_len(), view.max_score());
                prop_assert_eq!(shape, (kind, Some(lane.len()), 0.5));
                for _ in 0..stop {
                    view.next_tuple();
                }
                view.reset();
                let read: Vec<Tuple> = std::iter::from_fn(|| view.next_tuple()).collect();
                prop_assert_eq!(&read, lane);
                prop_assert!(view.next_tuple().is_none(), "stays exhausted");
                prop_assert_eq!(other.next_tuple().as_ref(), lane.first());
            }

            let mut tree = RTreeRelation::from_tuples("t", query.clone(), tuples);
            let shape = (tree.kind(), tree.total_len(), tree.max_score());
            prop_assert_eq!(shape, (AccessKind::Distance, Some(by_distance.len()), max_score));
            let ids = |lane: &[Tuple]| {
                let mut ids: Vec<TupleId> = lane.iter().map(|t| t.id).collect();
                ids.sort();
                ids
            };
            for _ in 0..2 {
                let read: Vec<Tuple> = std::iter::from_fn(|| tree.next_tuple()).collect();
                let read_d: Vec<f64> = read.iter().map(distance).collect();
                let lane_d: Vec<f64> = by_distance.iter().map(distance).collect();
                prop_assert_eq!(read_d, lane_d);
                prop_assert_eq!(ids(&read), ids(&by_distance));
                tree.reset();
            }
        }
    }
}
