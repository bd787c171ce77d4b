//! The relation catalog: register once, share everywhere, mutate behind
//! per-shard epochs.
//!
//! A serving engine cannot afford to bulk-load an R-tree per query the way
//! the one-shot [`prj_core::ProblemBuilder`] does. The [`Catalog`] therefore
//! builds each relation's access structures at registration time and hands
//! them out behind [`Arc`]s. Creating a per-query [`SortedAccess`] view is
//! O(1) in the relation size, so thousands of concurrent queries share one
//! copy of the data without locks on the read path.
//!
//! ## Sharding
//!
//! Each relation is partitioned into `S` spatial shards by the catalog's
//! [`ShardingPolicy`] (hash-by-grid-cell; `S = 1` disables partitioning).
//! Every shard is a self-contained [`RelationShard`]: its own R-tree (its
//! one eager copy of its slice of the tuples), [`RelationStats`] and
//! **epoch** counter, plus a chunked score-sorted tuple lane built from the
//! tree on the shard's first score-sorted read. Shards are the unit of
//! storage, publish cost and cluster placement. Merged views
//! ([`CatalogRelation::distance_view`], …) recombine the shards into one
//! globally sorted access stream via [`prj_access::MergedAccess`] (ties by
//! tuple id), so consumers observe exactly the Definition 2.1 contract —
//! in-process queries run one operator over them and read what an
//! unsharded relation would yield. Shard-local views
//! ([`CatalogRelation::shard_distance_view`], …) serve a cluster's per-shard
//! units and build the merged views.
//!
//! ## Mutation and epoch vectors
//!
//! Relations are *mutable*: [`Catalog::append`] adds tuples and
//! [`Catalog::drop_relation`] removes a relation. Mutations are
//! copy-on-write and **shard-local**: an append routes each new tuple to its
//! shard and extends only the touched shards, bumping only their epochs.
//! Extending a shard of n tuples by a batch of m copies O(m·log n) data,
//! plus one reference-count bump per shared chunk: a clone of its R-tree,
//! which shares every `Arc`'d chunk of the tree's arena, takes m
//! incremental inserts that copy only the chunks on their root-to-leaf
//! paths and the payload pool's tail; if the shard has served a
//! score-sorted read, a re-merge of only the ~1024-tuple score-lane chunks
//! the batch lands in (every other chunk is shared with the previous
//! snapshot); and statistics carried forward from the previous base by
//! [`RelationStats::combine`] with the batch's own.
//! In-flight queries keep reading their old `Arc`s untouched. The engine
//! keys its result cache by each relation's **epoch vector**
//! ([`CatalogRelation::epochs`]), which is what makes a memoised
//! pre-mutation result structurally unservable afterwards — ingest on one
//! shard invalidates exactly the results that could have read that shard's
//! relation, and nothing needs carefully ordered invalidation calls.
//!
//! Mutations are serialised by a dedicated mutex (readers never touch it);
//! nothing that can panic runs under the slot lock, so a bad batch can
//! never poison it.
//!
//! ## Delta shards (the O(delta) ingest lane)
//!
//! With a non-zero delta limit ([`Catalog::with_policy_and_delta`]), appends
//! stop rebuilding shard structures altogether: the new tuples land in the
//! shard's [`DeltaBuffer`] — a small score-sorted side structure — and the
//! publish costs O(delta), not O(|shard|). Every read path merges base +
//! delta through the ordinary [`MergedAccess`] machinery (σ_max is the
//! fold-max over both parts, so bounds stay admissible and stops stay
//! certified), and a delta append bumps the touched shard's epoch exactly
//! like a rebuild append does, so caching, subscriptions and cluster
//! replication observe the two publish modes identically.
//!
//! [`Catalog::compact_shard`] — driven by the engine's background compactor
//! — folds a shard's delta into its base: the fold replays the delta in
//! arrival (id) order through the same shard extension the rebuild append
//! uses, so the folded shard is physically identical to the one immediate
//! rebuilds would have produced. Compaction is a pure physical
//! reorganisation: it preserves the shard's **epoch** (same logical data,
//! so cached results and replicated epoch vectors stay valid) and only
//! bumps the shard's `compactions` counter. Appends that race the fold are
//! never lost: the publish step recomputes the residual delta (live minus
//! folded snapshot) under the mutation mutex.

use crate::sharding::ShardingPolicy;
use prj_access::{
    merge_score_chunks, AccessKind, DeltaBuffer, MergeOrder, MergedAccess, RTreeRelation,
    RelationStats, SortedAccess, Tuple, TupleId, VecRelation,
};
use prj_core::ScoringFunction;
use prj_geometry::Vector;
use prj_index::RTree;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Identifier of a registered relation, returned by [`Catalog::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationId(pub(crate) usize);

impl RelationId {
    /// Rebuilds an id from a raw registration index — for callers (like a
    /// cluster worker) that receive indices over the wire. The index is
    /// *not* checked here; the catalog answers
    /// [`CatalogError::UnknownId`] on first use if it never existed.
    pub fn from_index(index: usize) -> RelationId {
        RelationId(index)
    }

    /// The raw index of the relation in registration order.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Catalog lookup / mutation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The id does not come from this catalog.
    UnknownId(usize),
    /// No live relation is registered under the name.
    UnknownName(String),
    /// The relation existed but has been dropped.
    Dropped(usize),
    /// Appended tuples do not match the relation's dimensionality.
    DimensionMismatch {
        /// The relation's dimensionality.
        expected: usize,
        /// The offending tuple's dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for CatalogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogError::UnknownId(id) => write!(f, "no relation with id {id}"),
            CatalogError::UnknownName(name) => write!(f, "no relation named {name:?}"),
            CatalogError::Dropped(id) => write!(f, "relation {id} has been dropped"),
            CatalogError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "tuple dimension {got} does not match relation dimension {expected}"
                )
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// The result of a successful catalog mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MutationOutcome {
    /// The mutated relation.
    pub id: RelationId,
    /// The sum of the relation's per-shard epochs after the mutation
    /// (strictly greater than before; see [`CatalogRelation::epochs`] for
    /// the full vector).
    pub epoch: u64,
    /// Its cardinality after the mutation (0 for a drop).
    pub cardinality: usize,
    /// The shards the mutation landed on (every shard for a drop). This is
    /// what lets the engine's per-shard unit cache purge only the entries
    /// the mutation actually made unreachable.
    pub touched_shards: Vec<usize>,
}

/// A score lane: score-sorted chunks read back to back in
/// [`prj_access::score_order`] (see [`merge_score_chunks`]).
type ScoreChunks = Arc<[Arc<Vec<Tuple>>]>;

/// One immutable shard of a relation: a disjoint slice of the tuples plus
/// the access structures built from them, stamped with the epoch it was
/// published at. The slice splits into an indexed **base** and a small
/// **delta** of freshly appended tuples not yet folded into the base
/// (always empty when the catalog's delta limit is 0). The base's R-tree is
/// the shard's one eager copy of the base tuples: its leaves hold the
/// points and its payload pool the `(id, score)` pairs in ingestion order.
/// The score lane — `Arc`'d chunks of about 1024 tuples, read back to back
/// in [`prj_access::score_order`] — is built from the tree on the first
/// score-sorted read and kept up to date from then on; successive
/// snapshots share every chunk an append did not land in.
#[derive(Debug)]
pub struct RelationShard {
    /// R-tree over the base tuples (distance-based access path).
    rtree: Arc<RTree<(TupleId, f64)>>,
    /// The base tuples as score-lane chunks (score-based path), built on
    /// first use. Shared by every snapshot over the same base, so a base
    /// builds its lane at most once.
    score_chunks: Arc<OnceLock<ScoreChunks>>,
    /// Appended-but-not-yet-compacted tuples (the O(delta) ingest lane).
    delta: Arc<DeltaBuffer>,
    /// Statistics over the base tuples only.
    base_stats: RelationStats,
    /// Statistics over base + delta (what planning and σ_max read).
    stats: RelationStats,
    epoch: u64,
    /// Number of delta folds this shard has absorbed (observability only:
    /// compaction never changes the epoch or the visible data).
    compactions: u64,
}

impl RelationShard {
    /// A shard over `tuples` (in ingestion order): the statistics are read
    /// off the tuples in that order, and the tuples are moved into the
    /// R-tree's bulk load. The score lane is left to the first score read.
    fn build(tuples: Vec<Tuple>, epoch: u64) -> Self {
        // An empty shard gets a placeholder dimensionality; its first
        // extension builds for real.
        let dim = tuples.first().map_or(0, |t| t.dim()).max(1);
        let stats = RelationStats::from_tuples(&tuples);
        let items = tuples
            .into_iter()
            .map(|t| (t.vector, (t.id, t.score)))
            .collect();
        Self::with_base(RTree::bulk_load(dim, items), OnceLock::new(), stats, epoch)
    }

    /// A shard with an empty delta over the given base and its statistics.
    fn with_base(
        rtree: RTree<(TupleId, f64)>,
        score_chunks: OnceLock<ScoreChunks>,
        stats: RelationStats,
        epoch: u64,
    ) -> Self {
        RelationShard {
            rtree: Arc::new(rtree),
            score_chunks: Arc::new(score_chunks),
            delta: Arc::new(DeltaBuffer::empty()),
            base_stats: stats,
            stats,
            epoch,
            compactions: 0,
        }
    }

    /// This shard's base extended by `extra`, at `epoch`, with an empty
    /// delta — the one routine behind both the rebuild append and the
    /// compaction fold. What it copies, for m new tuples on an n-tuple
    /// base:
    ///
    /// - the R-tree: cloning it bumps one reference count per arena chunk,
    ///   and `extra` is inserted in the given (arrival) order through the
    ///   incremental insert, which copies only the node chunks (64 nodes
    ///   each) that an insert's root-to-leaf path and its splits write,
    ///   plus the payload pool's tail chunk;
    /// - the score lane, only if this base has built one: each chunk
    ///   (about 1024 tuples) the batch lands in is copied once, re-merged
    ///   by [`merge_score_chunks`], and the list of chunk pointers (one per
    ///   chunk) is rebuilt; every other chunk is shared. A tuple is copied
    ///   by value, and up to four dimensions without a heap allocation of
    ///   its own. A base without a lane hands none on.
    ///
    /// So an append copies O(m · (1024 + log n)) tuples and nodes and
    /// O(n / 1024) pointers, never the whole base, and O(m · log n) when no
    /// score read has built the lane. The statistics carry the base's
    /// forward: [`RelationStats::combine`] of them and the batch's own, so
    /// cardinality, min and max (`σ_max`) are exact and the moments are
    /// merged, not re-read. In-flight readers of `self` are unaffected.
    fn extended(&self, extra: Vec<Tuple>, epoch: u64) -> RelationShard {
        if self.rtree.is_empty() {
            // The empty shard's R-tree was built with a placeholder
            // dimensionality; build from scratch.
            return RelationShard::build(extra, epoch);
        }
        let stats = RelationStats::combine(&[self.base_stats, RelationStats::from_tuples(&extra)]);
        let mut rtree = RTree::clone(&self.rtree);
        let score_chunks = match self.score_chunks.get() {
            Some(chunks) => {
                rtree.extend(extra.iter().map(|t| (t.vector.clone(), (t.id, t.score))));
                OnceLock::from(ScoreChunks::from(merge_score_chunks(chunks, extra)))
            }
            None => {
                rtree.extend(extra.into_iter().map(|t| (t.vector, (t.id, t.score))));
                OnceLock::new()
            }
        };
        Self::with_base(rtree, score_chunks, stats, epoch)
    }

    /// The base's score lane, built from the R-tree on first use: every
    /// leaf entry read back as a tuple and sorted by
    /// [`merge_score_chunks`]. Concurrent first readers wait for one build.
    fn score_chunks(&self) -> &ScoreChunks {
        self.score_chunks
            .get_or_init(|| merge_score_chunks(&[], self.base_tuples().collect()).into())
    }

    /// The base tuples, read off the R-tree's leaves in no guaranteed order.
    fn base_tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.rtree
            .iter()
            .map(|(point, &(id, score))| Tuple::new(id, Vector::from(point), score))
    }

    /// The base tuples, then the delta's, in no guaranteed order.
    fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        self.base_tuples()
            .chain(self.delta.tuples().iter().cloned())
    }

    /// A new shard snapshot with `extra` appended at a bumped epoch: only
    /// this shard's structures are extended, copy-on-write.
    fn appended(&self, extra: Vec<Tuple>) -> RelationShard {
        debug_assert!(
            self.delta.is_empty(),
            "rebuild appends and delta appends must not mix on one shard"
        );
        self.extended(extra, self.epoch + 1)
    }

    /// A new shard snapshot with `extra` published into the delta at a
    /// bumped epoch — O(delta + extra), no index rebuild. The base
    /// structures, score lane included (built or not), are shared as-is;
    /// readers merge base + delta.
    fn delta_appended(&self, extra: Vec<Tuple>) -> RelationShard {
        let epoch = self.epoch + 1;
        let delta = self.delta.appended(extra);
        let stats = RelationStats::combine(&[self.base_stats, delta.stats()]);
        RelationShard {
            rtree: Arc::clone(&self.rtree),
            score_chunks: Arc::clone(&self.score_chunks),
            delta: Arc::new(delta),
            base_stats: self.base_stats,
            stats,
            epoch,
            compactions: self.compactions,
        }
    }

    /// The expensive half of a compaction, run **outside every lock**: a
    /// fresh base with this snapshot's delta folded in (and an empty
    /// delta). The delta is replayed in arrival (id) order through
    /// [`RelationShard::extended`], the routine the rebuild append uses, so
    /// the folded structures are physically identical to the ones the
    /// immediate-rebuild path would have built from the same appends.
    fn folded_base(&self) -> RelationShard {
        let mut delta: Vec<Tuple> = self.delta.tuples().as_ref().clone();
        delta.sort_by_key(|t| t.id);
        self.extended(delta, self.epoch)
    }

    /// The cheap publish half of a compaction: the folded base plus the
    /// residual delta (appends that raced the fold), at the **unchanged**
    /// live epoch — compaction is invisible to everything keyed by epochs.
    fn with_residual(
        base: &RelationShard,
        residual: DeltaBuffer,
        epoch: u64,
        compactions: u64,
    ) -> RelationShard {
        let stats = if residual.is_empty() {
            base.base_stats
        } else {
            RelationStats::combine(&[base.base_stats, residual.stats()])
        };
        RelationShard {
            rtree: Arc::clone(&base.rtree),
            score_chunks: Arc::clone(&base.score_chunks),
            delta: Arc::new(residual),
            base_stats: base.base_stats,
            stats,
            epoch,
            compactions,
        }
    }

    /// The epoch this shard snapshot was published at (0 at registration,
    /// +1 per append that touched this shard; unchanged by compaction).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shard's shared R-tree (over the base tuples; its payload pool
    /// holds their `(id, score)` pairs in ingestion order).
    pub fn rtree(&self) -> &Arc<RTree<(TupleId, f64)>> {
        &self.rtree
    }

    /// The shard's not-yet-compacted delta buffer (empty when the
    /// catalog's delta limit is 0).
    pub fn delta(&self) -> &DeltaBuffer {
        &self.delta
    }

    /// Number of tuples waiting in the delta.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// Number of delta folds this shard has absorbed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Statistics of this shard's slice of the relation (base + delta).
    pub fn stats(&self) -> RelationStats {
        self.stats
    }
}

/// One immutable snapshot of a relation: its shards plus combined
/// statistics, published atomically in the catalog slot.
#[derive(Debug)]
pub struct CatalogRelation {
    name: Arc<str>,
    shards: Vec<Arc<RelationShard>>,
    /// Whole-relation statistics, combined from the shard statistics.
    stats: RelationStats,
}

impl CatalogRelation {
    fn build(name: &str, tuples: Vec<Tuple>, policy: &ShardingPolicy) -> Self {
        let shards: Vec<Arc<RelationShard>> = policy
            .partition(tuples, |t| &t.vector)
            .into_iter()
            .map(|bucket| Arc::new(RelationShard::build(bucket, 0)))
            .collect();
        Self::from_shards(Arc::from(name), shards)
    }

    fn from_shards(name: Arc<str>, shards: Vec<Arc<RelationShard>>) -> Self {
        let per_shard: Vec<RelationStats> = shards.iter().map(|s| s.stats).collect();
        let stats = RelationStats::combine(&per_shard);
        CatalogRelation {
            name,
            shards,
            stats,
        }
    }

    /// A new snapshot with `extra` appended: the touched shards get bumped
    /// epochs, untouched shards are shared as-is. With `delta_mode` the
    /// tuples are published into the touched shards' deltas (O(delta));
    /// otherwise the shards are rebuilt copy-on-write. Also returns the
    /// indices of the shards that were touched.
    fn appended(
        &self,
        extra: Vec<Tuple>,
        policy: &ShardingPolicy,
        delta_mode: bool,
    ) -> (CatalogRelation, Vec<usize>) {
        let mut shards = self.shards.clone();
        let mut touched = Vec::new();
        for (j, bucket) in policy
            .partition(extra, |t| &t.vector)
            .into_iter()
            .enumerate()
        {
            if !bucket.is_empty() {
                shards[j] = Arc::new(if delta_mode {
                    shards[j].delta_appended(bucket)
                } else {
                    shards[j].appended(bucket)
                });
                touched.push(j);
            }
        }
        (Self::from_shards(Arc::clone(&self.name), shards), touched)
    }

    /// A new snapshot with shard `j` swapped for `shard` (the compaction
    /// publish step); everything else is shared as-is.
    fn with_shard(&self, j: usize, shard: RelationShard) -> CatalogRelation {
        let mut shards = self.shards.clone();
        shards[j] = Arc::new(shard);
        Self::from_shards(Arc::clone(&self.name), shards)
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of shards (the catalog policy's shard count).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `j` of this snapshot.
    pub fn shard(&self, j: usize) -> &RelationShard {
        &self.shards[j]
    }

    /// The per-shard epoch vector. A mutation bumps exactly the entries of
    /// the shards it touched; the engine folds this vector into its cache
    /// keys, so any ingest makes pre-mutation entries unreachable.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch).collect()
    }

    /// The sum of the per-shard epochs — the scalar "version" reported on
    /// the API surface (0 at registration, +1 per single-shard append).
    pub fn epoch(&self) -> u64 {
        self.shards.iter().map(|s| s.epoch).sum()
    }

    /// Total number of tuples across all shards.
    pub fn cardinality(&self) -> usize {
        self.stats.cardinality
    }

    /// Every tuple of the relation, in no guaranteed order (shard by shard,
    /// the base's R-tree leaves then the delta). O(n); used by the
    /// non-Euclidean fallback path, which re-sorts with an id tie-break,
    /// and by tests — hot paths go through the shared per-shard structures
    /// instead.
    pub fn all_tuples(&self) -> Vec<Tuple> {
        let mut all = Vec::with_capacity(self.cardinality());
        for shard in &self.shards {
            all.extend(shard.tuples());
        }
        all
    }

    /// Total number of tuples waiting in shard deltas (0 when the delta
    /// lane is off).
    pub fn delta_len(&self) -> usize {
        self.shards.iter().map(|s| s.delta.len()).sum()
    }

    /// Whole-relation statistics (combined over the shards).
    pub fn stats(&self) -> RelationStats {
        self.stats
    }

    /// An O(1) distance-based sorted-access view of **shard `j`**, walking
    /// that shard's R-tree (Euclidean frontier). Takes the query behind an
    /// `Arc` (or an owned [`Vector`], converted) so every view of one query
    /// shares a single allocation. A non-empty delta is merged in behind
    /// the same globally sorted contract: its tuples are distance-sorted
    /// per query (O(delta·log delta), delta is small by construction) and
    /// recombined with the tree frontier via [`MergedAccess`], whose σ_max
    /// is the fold-max over both parts — bounds stay admissible.
    pub fn shard_distance_view(
        &self,
        j: usize,
        query: impl Into<Arc<Vector>>,
    ) -> Box<dyn SortedAccess> {
        let shard = &self.shards[j];
        let query = query.into();
        let base = Box::new(RTreeRelation::new(
            Arc::clone(&self.name),
            Arc::clone(&shard.rtree),
            Arc::clone(&query),
            shard.base_stats.max_score,
        ));
        if shard.delta.is_empty() {
            return base;
        }
        let delta = Box::new(VecRelation::distance_sorted(
            Arc::clone(&self.name),
            query.as_ref(),
            shard.delta.tuples().as_ref().clone(),
        ));
        Box::new(self.merged(
            vec![base, delta],
            MergeOrder::AscendingBy(Box::new(move |t| t.distance_to(&query))),
        ))
    }

    /// A score-based sorted-access view of **shard `j`** (the delta's lane
    /// is already score-sorted, so merging it in costs nothing extra). O(1)
    /// once the shard's base has built its score lane; the first score view
    /// of a base builds it from the R-tree, O(n log n).
    pub fn shard_score_view(&self, j: usize) -> Box<dyn SortedAccess> {
        let shard = &self.shards[j];
        let base = Box::new(VecRelation::chunked(
            Arc::clone(&self.name),
            AccessKind::Score,
            Arc::clone(shard.score_chunks()),
            shard.base_stats.max_score,
        ));
        if shard.delta.is_empty() {
            return base;
        }
        let delta = Box::new(VecRelation::chunked(
            Arc::clone(&self.name),
            AccessKind::Score,
            [Arc::clone(shard.delta.tuples())],
            shard.delta.max_score(),
        ));
        Box::new(self.merged(vec![base, delta], MergeOrder::DescendingScore))
    }

    /// A distance view of shard `j` sorted under the scoring function's own
    /// distance `δ` — the non-Euclidean fallback ( O(|shard| log |shard|) ).
    /// Base and delta are sorted together; the id tie-break makes the order
    /// independent of where a tuple currently lives.
    pub fn shard_distance_view_by<S: ScoringFunction>(
        &self,
        j: usize,
        scoring: &S,
        query: &Vector,
    ) -> Box<dyn SortedAccess> {
        let shard = &self.shards[j];
        let q = query.clone();
        let mut tuples = Vec::with_capacity(shard.stats.cardinality);
        tuples.extend(shard.tuples());
        let rel = VecRelation::distance_sorted_by(Arc::clone(&self.name), tuples, move |t| {
            scoring.distance(&t.vector, &q)
        })
        .with_max_score(shard.stats.max_score);
        Box::new(rel)
    }

    /// A whole-relation distance-based view: the shards' Euclidean
    /// frontiers recombined into one globally sorted stream
    /// ([`MergedAccess`]; the wrapper is skipped for a single shard). O(S)
    /// to build.
    pub fn distance_view(&self, query: impl Into<Arc<Vector>>) -> Box<dyn SortedAccess> {
        let query = query.into();
        if self.shards.len() == 1 {
            return self.shard_distance_view(0, query);
        }
        let parts: Vec<Box<dyn SortedAccess>> = (0..self.shards.len())
            .map(|j| self.shard_distance_view(j, Arc::clone(&query)))
            .collect();
        Box::new(self.merged(
            parts,
            MergeOrder::AscendingBy(Box::new(move |t| t.distance_to(&query))),
        ))
    }

    /// A whole-relation score-based view (shards merged by score).
    pub fn score_view(&self) -> Box<dyn SortedAccess> {
        if self.shards.len() == 1 {
            return self.shard_score_view(0);
        }
        let parts: Vec<Box<dyn SortedAccess>> = (0..self.shards.len())
            .map(|j| self.shard_score_view(j))
            .collect();
        Box::new(self.merged(parts, MergeOrder::DescendingScore))
    }

    /// A whole-relation distance view under the scoring function's own `δ`
    /// — the fallback for non-Euclidean scorings, where the R-trees'
    /// Euclidean frontiers would disagree with the proximity terms. O(n log
    /// n) per query; the sort's id tie-break makes the order independent of
    /// the shard layout.
    pub fn distance_view_by<S: ScoringFunction>(
        &self,
        scoring: &S,
        query: &Vector,
    ) -> Box<dyn SortedAccess> {
        let q = query.clone();
        let rel = VecRelation::distance_sorted_by(Arc::clone(&self.name), self.all_tuples(), {
            move |t| scoring.distance(&t.vector, &q)
        })
        .with_max_score(self.stats.max_score);
        Box::new(rel)
    }

    fn merged(&self, parts: Vec<Box<dyn SortedAccess>>, order: MergeOrder) -> MergedAccess {
        MergedAccess::new(Arc::clone(&self.name), parts, order)
    }
}

/// One catalog slot. Ids are never reused: a dropped slot stays occupied so
/// later references fail with [`CatalogError::Dropped`] rather than
/// silently resolving to some other relation. A `Reserved` slot holds an id
/// whose relation is still being built outside the lock; it reads as
/// unknown until the registration publishes.
#[derive(Debug)]
enum Slot {
    Live(Arc<CatalogRelation>),
    Reserved,
    Dropped,
}

/// A concurrent registry of mutable, sharded relations.
///
/// Queries only ever take the read lock for the instant it takes to clone
/// the relevant [`Arc`]s — and the write lock is held just as briefly:
/// index building (bulk load on registration, copy-on-write shard extension
/// on append) happens outside the slot lock, and only the final slot swap
/// takes it. Mutations of a live relation (append, drop, a compaction's
/// publish) are serialised by a separate mutation mutex, so an append
/// builds its snapshot from the current one and publishes it in one pass,
/// and no append is ever lost. Nothing that can panic runs under the slot
/// lock, so a bad batch can never poison it.
#[derive(Debug, Default)]
pub struct Catalog {
    slots: RwLock<Vec<Slot>>,
    /// Held by every write of a live slot (append, drop, a compaction's
    /// publish), so an append's copy-on-write snapshot is still current
    /// when it publishes. Readers never touch this lock.
    mutations: Mutex<()>,
    policy: ShardingPolicy,
    /// Delta-lane size threshold: 0 turns the lane off (appends rebuild
    /// shards immediately); N > 0 routes appends into shard deltas, with
    /// N as the size at which the background compactor folds a delta in.
    delta_limit: usize,
}

impl Catalog {
    /// Creates an empty, unsharded catalog (one shard per relation).
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Creates an empty catalog partitioning every relation under `policy`.
    pub fn with_policy(policy: ShardingPolicy) -> Self {
        Self::with_policy_and_delta(policy, 0)
    }

    /// Creates an empty catalog partitioning under `policy` with the delta
    /// ingest lane configured: `delta_limit` 0 keeps today's immediate
    /// copy-on-write rebuilds; N > 0 makes appends O(delta) publishes that
    /// the compactor folds in once a shard's delta reaches N tuples.
    pub fn with_policy_and_delta(policy: ShardingPolicy, delta_limit: usize) -> Self {
        Catalog {
            slots: RwLock::new(Vec::new()),
            mutations: Mutex::new(()),
            policy,
            delta_limit,
        }
    }

    /// The sharding policy every relation of this catalog is partitioned
    /// under.
    pub fn policy(&self) -> ShardingPolicy {
        self.policy
    }

    /// The delta-lane threshold (0 = delta lane off).
    pub fn delta_limit(&self) -> usize {
        self.delta_limit
    }

    /// Registers a relation, building its shared access structures (outside
    /// any lock), and returns its id. Tuple ids should be tagged with the
    /// relation's registration index for readable results (the engine does
    /// not rewrite them); use [`Catalog::register_rows`] to have ids
    /// assigned — and the batch validated — for you.
    ///
    /// # Panics
    /// Panics (without touching the catalog lock) if the tuples do not
    /// share one dimensionality.
    pub fn register(&self, name: impl AsRef<str>, tuples: Vec<Tuple>) -> RelationId {
        let relation = Arc::new(CatalogRelation::build(name.as_ref(), tuples, &self.policy));
        let mut slots = self.slots.write().expect("catalog lock");
        slots.push(Slot::Live(relation));
        RelationId(slots.len() - 1)
    }

    /// Registers a relation from raw `(location, score)` rows, assigning
    /// [`TupleId`]s (relation index + arrival rank). The id is reserved
    /// under the lock, the indexes are built outside it, and the relation
    /// is then published — concurrent queries are never blocked behind an
    /// index build.
    ///
    /// # Errors
    /// [`CatalogError::DimensionMismatch`] when the rows do not share one
    /// dimensionality (checked before anything is built, so a bad batch has
    /// no effect beyond burning one id).
    pub fn register_rows(
        &self,
        name: impl AsRef<str>,
        rows: Vec<(Vector, f64)>,
    ) -> Result<(RelationId, usize), CatalogError> {
        if let Some(first) = rows.first() {
            let expected = first.0.dim();
            for (v, _) in &rows {
                if v.dim() != expected {
                    return Err(CatalogError::DimensionMismatch {
                        expected,
                        got: v.dim(),
                    });
                }
            }
        }
        let index = {
            let mut slots = self.slots.write().expect("catalog lock");
            slots.push(Slot::Reserved);
            slots.len() - 1
        };
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (v, s))| Tuple::new(TupleId::new(index, i), v, s))
            .collect();
        let cardinality = tuples.len();
        let relation = Arc::new(CatalogRelation::build(name.as_ref(), tuples, &self.policy));
        let mut slots = self.slots.write().expect("catalog lock");
        slots[index] = Slot::Live(relation);
        Ok((RelationId(index), cardinality))
    }

    /// Appends to a live relation by copy-on-write, in one pass under the
    /// mutation mutex: snapshot the current relation, build the extended
    /// snapshot from it (extending only the shards the new tuples land
    /// on), then publish it. Every write of a live slot holds the mutex, so
    /// the snapshot is still current when it is replaced; readers hold
    /// only the slot lock, and only for the swap, never across the build.
    fn append_with(
        &self,
        id: RelationId,
        make_tuples: impl FnOnce(&CatalogRelation) -> Vec<Tuple>,
    ) -> Result<MutationOutcome, CatalogError> {
        let _mutations = self.mutations.lock().expect("mutation lock");
        let current = self.relation(id)?;
        let tuples = make_tuples(&current);
        Self::check_dimensions(&current, &tuples)?;
        let (appended, touched_shards) =
            current.appended(tuples, &self.policy, self.delta_limit > 0);
        let next = Arc::new(appended);
        let outcome = MutationOutcome {
            id,
            epoch: next.epoch(),
            cardinality: next.cardinality(),
            touched_shards,
        };
        let mut slots = self.slots.write().expect("catalog lock");
        debug_assert!(
            matches!(&slots[id.0], Slot::Live(base) if Arc::ptr_eq(base, &current)),
            "a live slot changed without the mutation mutex"
        );
        slots[id.0] = Slot::Live(next);
        Ok(outcome)
    }

    /// Appends pre-tagged tuples to a live relation, publishing a new
    /// snapshot whose touched shards carry bumped epochs (copy-on-write;
    /// see the module docs).
    ///
    /// # Errors
    /// [`CatalogError::UnknownId`] / [`CatalogError::Dropped`] for bad
    /// targets, [`CatalogError::DimensionMismatch`] when a tuple's
    /// dimensionality disagrees with the relation's.
    pub fn append(
        &self,
        id: RelationId,
        tuples: Vec<Tuple>,
    ) -> Result<MutationOutcome, CatalogError> {
        self.append_with(id, |_| tuples)
    }

    /// Appends raw `(location, score)` rows, assigning [`TupleId`]s from
    /// the relation's cardinality at publication time (so concurrent
    /// appends can never produce colliding ids).
    pub fn append_rows(
        &self,
        id: RelationId,
        rows: Vec<(Vector, f64)>,
    ) -> Result<MutationOutcome, CatalogError> {
        self.append_with(id, |current| {
            let base = current.cardinality();
            rows.into_iter()
                .enumerate()
                .map(|(i, (v, s))| Tuple::new(TupleId::new(id.0, base + i), v, s))
                .collect()
        })
    }

    /// Drops a live relation. The id is never reused; later lookups fail
    /// with [`CatalogError::Dropped`].
    pub fn drop_relation(&self, id: RelationId) -> Result<MutationOutcome, CatalogError> {
        let _mutations = self.mutations.lock().expect("mutation lock");
        let mut slots = self.slots.write().expect("catalog lock");
        let current = Self::live(&slots, id)?;
        let epoch = current.epoch() + 1;
        let touched_shards = (0..current.num_shards()).collect();
        slots[id.0] = Slot::Dropped;
        Ok(MutationOutcome {
            id,
            epoch,
            cardinality: 0,
            touched_shards,
        })
    }

    /// Folds shard `j` of relation `id`'s delta into its base. The
    /// expensive fold runs outside every lock; the publish step recomputes
    /// the residual delta (appends that raced the fold are kept, never
    /// lost) under the mutation mutex and swaps the shard in at its
    /// **unchanged** epoch — compaction is invisible to everything keyed
    /// by epoch vectors. Returns whether a fold was published (`false`
    /// when the delta was empty or the base moved under the fold; the
    /// compactor simply retries on its next pass).
    pub fn compact_shard(&self, id: RelationId, j: usize) -> Result<bool, CatalogError> {
        let snapshot = self.relation(id)?;
        if j >= snapshot.num_shards() || snapshot.shard(j).delta.is_empty() {
            return Ok(false);
        }
        let folded = snapshot.shard(j).folded_base();
        let _mutations = self.mutations.lock().expect("mutation lock");
        let current = self.relation(id)?;
        let cur = current.shard(j);
        // Only fold onto the base we folded from: a different base means a
        // concurrent compaction published first.
        if !Arc::ptr_eq(&cur.rtree, &snapshot.shard(j).rtree) {
            return Ok(false);
        }
        // Appends only ever add to a shard's delta, so the live delta is a
        // superset of the folded snapshot; the difference is exactly the
        // tuples that arrived while the fold ran.
        let residual = cur.delta.difference(&snapshot.shard(j).delta);
        let shard = RelationShard::with_residual(&folded, residual, cur.epoch, cur.compactions + 1);
        let next = Arc::new(current.with_shard(j, shard));
        let mut slots = self.slots.write().expect("catalog lock");
        match &slots[id.0] {
            Slot::Live(base) if Arc::ptr_eq(base, &current) => {
                slots[id.0] = Slot::Live(next);
                Ok(true)
            }
            // Unreachable while the mutation mutex is held; bail safely
            // all the same.
            Slot::Live(_) => Ok(false),
            Slot::Reserved => Err(CatalogError::UnknownId(id.0)),
            Slot::Dropped => Err(CatalogError::Dropped(id.0)),
        }
    }

    /// The shards whose deltas hold at least `min_len` tuples, as
    /// `(relation, shard, delta_len)` triples — the compactor's work list.
    /// `min_len` 0 lists every non-empty delta (the age-flush pass).
    pub fn delta_backlog(&self, min_len: usize) -> Vec<(RelationId, usize, usize)> {
        let slots = self.slots.read().expect("catalog lock");
        let mut backlog = Vec::new();
        for (i, slot) in slots.iter().enumerate() {
            if let Slot::Live(rel) = slot {
                for j in 0..rel.num_shards() {
                    let len = rel.shard(j).delta_len();
                    if len > 0 && len >= min_len {
                        backlog.push((RelationId(i), j, len));
                    }
                }
            }
        }
        backlog
    }

    /// Total number of tuples currently waiting in deltas across every
    /// live relation (what the `prj_delta_tuples` gauge reports).
    pub fn delta_tuples_total(&self) -> usize {
        let slots = self.slots.read().expect("catalog lock");
        slots
            .iter()
            .map(|s| match s {
                Slot::Live(rel) => rel.delta_len(),
                _ => 0,
            })
            .sum()
    }

    fn live(slots: &[Slot], id: RelationId) -> Result<Arc<CatalogRelation>, CatalogError> {
        match slots.get(id.0) {
            // A reserved slot's registration has not published yet, so the
            // id is not yet known to any caller.
            None | Some(Slot::Reserved) => Err(CatalogError::UnknownId(id.0)),
            Some(Slot::Dropped) => Err(CatalogError::Dropped(id.0)),
            Some(Slot::Live(relation)) => Ok(Arc::clone(relation)),
        }
    }

    fn check_dimensions(current: &CatalogRelation, tuples: &[Tuple]) -> Result<(), CatalogError> {
        let expected = if current.cardinality() == 0 {
            tuples.first().map_or(0, |t| t.dim())
        } else {
            current.stats.dimensions
        };
        for t in tuples {
            if t.dim() != expected {
                return Err(CatalogError::DimensionMismatch {
                    expected,
                    got: t.dim(),
                });
            }
        }
        Ok(())
    }

    /// The live relation registered under `id`.
    pub fn relation(&self, id: RelationId) -> Result<Arc<CatalogRelation>, CatalogError> {
        Self::live(&self.slots.read().expect("catalog lock"), id)
    }

    /// Snapshots the live relations registered under `ids`, in order. Each
    /// snapshot carries the epoch vector it was published at, so the caller
    /// can build an epoch-consistent cache key from the same snapshot it
    /// queries.
    pub fn snapshot(&self, ids: &[RelationId]) -> Result<Vec<Arc<CatalogRelation>>, CatalogError> {
        let slots = self.slots.read().expect("catalog lock");
        ids.iter().map(|id| Self::live(&slots, *id)).collect()
    }

    /// Resolves a name to the id of the most recently registered *live*
    /// relation with that name.
    pub fn lookup(&self, name: &str) -> Option<RelationId> {
        let slots = self.slots.read().expect("catalog lock");
        slots
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, slot)| match slot {
                Slot::Live(relation) if relation.name() == name => Some(RelationId(i)),
                _ => None,
            })
    }

    /// Number of catalog slots ever allocated (live + dropped); ids range
    /// over `0..len()`.
    pub fn len(&self) -> usize {
        self.slots.read().expect("catalog lock").len()
    }

    /// Number of live (not dropped) relations.
    pub fn live_len(&self) -> usize {
        self.slots
            .read()
            .expect("catalog lock")
            .iter()
            .filter(|s| matches!(s, Slot::Live(_)))
            .count()
    }

    /// `true` when no relation has ever been registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all live relations, in registration order.
    pub fn all_ids(&self) -> Vec<RelationId> {
        let slots = self.slots.read().expect("catalog lock");
        slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Live(_) => Some(RelationId(i)),
                Slot::Reserved | Slot::Dropped => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_access::AccessKind;
    use proptest::prelude::*;

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

    /// A shard's score lane (built if it is not yet): its chunks read back
    /// to back.
    fn score_lane(shard: &RelationShard) -> Vec<Tuple> {
        shard
            .score_chunks()
            .iter()
            .flat_map(|c| c.iter().cloned())
            .collect()
    }

    /// Whether the shard's base has built its score lane.
    fn has_lane(shard: &RelationShard) -> bool {
        shard.score_chunks.get().is_some()
    }

    #[test]
    fn a_one_tuple_append_shares_every_untouched_score_chunk() {
        let catalog = Catalog::new();
        let id = catalog.register("r", mk_tuples(0, 10_000));
        let before = catalog.relation(id).unwrap();
        // A score read builds the lane; from then on appends re-merge it.
        before.score_view().next_tuple().unwrap();
        catalog
            .append_rows(id, vec![(Vector::from([0.25, -0.5]), 0.55)])
            .unwrap();
        let after = catalog.relation(id).unwrap();
        assert!(has_lane(after.shard(0)), "the append re-merged the lane");
        let (old, new) = (
            before.shard(0).score_chunks(),
            after.shard(0).score_chunks(),
        );
        assert!(old.len() > 2, "10k tuples should span several chunks");
        let copied = new
            .iter()
            .filter(|c| !old.iter().any(|o| Arc::ptr_eq(o, c)))
            .count();
        assert!(
            (1..=2).contains(&copied),
            "{copied} of {} chunks copied",
            new.len()
        );
        let mut lane = score_lane(before.shard(0));
        lane.push(Tuple::new(
            TupleId::new(id.0, 10_000),
            Vector::from([0.25, -0.5]),
            0.55,
        ));
        let rebuilt = VecRelation::score_sorted(String::new(), lane);
        assert_eq!(score_lane(after.shard(0)), rebuilt.sorted_tuples());
    }

    #[test]
    fn a_one_tuple_append_shares_every_untouched_node_chunk() {
        let catalog = Catalog::new();
        let id = catalog.register("r", mk_tuples(0, 10_000));
        let before = catalog.relation(id).unwrap();
        catalog
            .append_rows(id, vec![(Vector::from([0.25, -0.5]), 0.55)])
            .unwrap();
        let after = catalog.relation(id).unwrap();
        let (old, new) = (before.shard(0).rtree(), after.shard(0).rtree());
        let fresh = TupleId::new(id.0, 10_000);
        // Every node with its own state: its children or its entries.
        let nodes = |t: &RTree<(TupleId, f64)>| {
            let mut out = Vec::new();
            let mut stack: Vec<prj_index::NodeId> = t.root().into_iter().collect();
            while let Some(n) = stack.pop() {
                let entries: Vec<(TupleId, u64)> = (0..t.node_entry_count(n))
                    .map(|e| t.node_entry(n, e).1)
                    .map(|&(tid, score)| (tid, score.to_bits()))
                    .collect();
                out.push((n, t.node_children(n).to_vec(), entries));
                stack.extend_from_slice(t.node_children(n));
            }
            out
        };
        let (old_nodes, new_nodes) = (nodes(old), nodes(new));
        // Whether the new tuple lies under `n` (so `n` is on its path).
        let holds = |n: prj_index::NodeId| {
            let mut stack = vec![n];
            while let Some(n) = stack.pop() {
                if (0..new.node_entry_count(n)).any(|e| new.node_entry(n, e).1 .0 == fresh) {
                    return true;
                }
                stack.extend_from_slice(new.node_children(n));
            }
            false
        };
        // Touched: every node on the new tuple's path, every node whose
        // children or entries changed (a split halved it), every new node.
        let touched: Vec<(bool, usize)> = new_nodes
            .iter()
            .filter(|(n, children, entries)| {
                holds(*n)
                    || !old_nodes
                        .iter()
                        .any(|(o, c, e)| o == n && c == children && e == entries)
            })
            .map(|(n, _, _)| (n.is_leaf(), n.chunk()))
            .collect();
        let copied = new.copied_node_chunks(old);
        assert!(!copied.is_empty());
        assert!(copied.iter().all(|c| touched.contains(c)), "{copied:?}");
        let mut chunks: Vec<(bool, usize)> = old_nodes
            .iter()
            .map(|(n, _, _)| (n.is_leaf(), n.chunk()))
            .collect();
        chunks.sort_unstable();
        chunks.dedup();
        assert!(
            copied.len() * 4 <= chunks.len(),
            "{} of {} node chunks copied",
            copied.len(),
            chunks.len()
        );
        assert!(new.payloads().last() == Some(&(fresh, 0.55)));
    }

    #[test]
    fn register_and_snapshot() {
        let catalog = Catalog::new();
        let a = catalog.register("hotels", mk_tuples(0, 20));
        let b = catalog.register("restaurants", mk_tuples(1, 30));
        assert_eq!(catalog.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        let snap = catalog.snapshot(&[b, a]).unwrap();
        assert_eq!(snap[0].name(), "restaurants");
        assert_eq!(snap[1].name(), "hotels");
        assert_eq!(snap[0].stats().cardinality, 30);
        assert_eq!(snap[0].epoch(), 0);
        assert_eq!(snap[0].epochs(), vec![0]);
        assert_eq!(snap[0].num_shards(), 1);
        assert_eq!(catalog.all_ids(), vec![a, b]);
        assert_eq!(catalog.lookup("hotels"), Some(a));
        assert_eq!(catalog.lookup("bars"), None);
    }

    #[test]
    fn views_share_rather_than_copy() {
        let catalog = Catalog::new();
        let id = catalog.register("r", mk_tuples(0, 40));
        let rel = catalog.relation(id).unwrap();
        let v1 = rel.distance_view(Vector::from([0.0, 0.0]));
        let v2 = rel.distance_view(Vector::from([1.0, 1.0]));
        assert_eq!(v1.kind(), AccessKind::Distance);
        assert_eq!(v2.total_len(), Some(40));
        // Three users of the tree: the catalog shard and the two views.
        assert_eq!(Arc::strong_count(rel.shard(0).rtree()), 3);
    }

    #[test]
    fn sharded_registration_partitions_all_tuples() {
        let catalog = Catalog::with_policy(ShardingPolicy::new(4));
        let id = catalog.register("r", mk_tuples(0, 60));
        let rel = catalog.relation(id).unwrap();
        assert_eq!(rel.num_shards(), 4);
        assert_eq!(rel.cardinality(), 60);
        assert_eq!(rel.epochs(), vec![0, 0, 0, 0]);
        let per_shard: usize = (0..4).map(|j| score_lane(rel.shard(j)).len()).sum();
        assert_eq!(per_shard, 60);
        // Every tuple sits on the shard the policy assigns it to.
        let policy = catalog.policy();
        for j in 0..4 {
            for t in score_lane(rel.shard(j)) {
                assert_eq!(policy.shard_of(&t.vector), j);
            }
        }
        // Combined stats agree with a direct computation.
        let direct = RelationStats::from_tuples(&rel.all_tuples());
        assert_eq!(rel.stats().cardinality, direct.cardinality);
        assert_eq!(rel.stats().max_score, direct.max_score);
    }

    #[test]
    fn merged_views_traverse_all_shards_in_sorted_order() {
        let catalog = Catalog::with_policy(ShardingPolicy::new(3));
        let id = catalog.register("r", mk_tuples(0, 35));
        let rel = catalog.relation(id).unwrap();
        let query = Vector::from([0.5, -0.5]);
        let mut view = rel.distance_view(query.clone());
        let mut previous = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some(t) = view.next_tuple() {
            let d = t.distance_to(&query);
            assert!(d >= previous - 1e-12);
            previous = d;
            count += 1;
        }
        assert_eq!(count, 35);

        let mut view = rel.score_view();
        let mut previous = f64::INFINITY;
        let mut count = 0;
        while let Some(t) = view.next_tuple() {
            assert!(t.score <= previous);
            previous = t.score;
            count += 1;
        }
        assert_eq!(count, 35);
    }

    #[test]
    fn append_bumps_only_the_touched_shard_epoch() {
        let catalog = Catalog::with_policy(ShardingPolicy::new(4));
        let id = catalog.register("r", mk_tuples(0, 10));
        let before = catalog.relation(id).unwrap();
        assert_eq!(before.epoch(), 0);

        let point = Vector::from([9.0, 9.0]);
        let target = catalog.policy().shard_of(&point);
        let outcome = catalog.append_rows(id, vec![(point, 0.5)]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.cardinality, 11);

        // The pre-mutation snapshot is untouched (copy-on-write).
        assert_eq!(before.cardinality(), 10);

        let after = catalog.relation(id).unwrap();
        assert_eq!(after.cardinality(), 11);
        let epochs = after.epochs();
        for (j, epoch) in epochs.iter().enumerate() {
            assert_eq!(*epoch, u64::from(j == target), "shard {j}");
        }
        // Untouched shards still share the old snapshot's structures.
        for j in (0..4).filter(|&j| j != target) {
            assert!(Arc::ptr_eq(before.shard(j).rtree(), after.shard(j).rtree()));
        }
        // Ids keep counting from the previous cardinality.
        assert_eq!(
            after.shard(target).rtree().payloads().last().unwrap().0,
            TupleId::new(0, 10)
        );
        // The appended tuple is reachable through the merged distance view.
        let mut view = after.distance_view(Vector::from([9.0, 9.0]));
        let first = view.next_tuple().unwrap();
        assert_eq!(first.id, TupleId::new(0, 10));
    }

    #[test]
    fn appended_score_view_stays_sorted() {
        let catalog = Catalog::with_policy(ShardingPolicy::new(2));
        let id = catalog.register("r", mk_tuples(0, 12));
        catalog
            .append_rows(
                id,
                vec![
                    (Vector::from([0.5, 0.5]), 0.99),
                    (Vector::from([1.5, -0.5]), 0.01),
                ],
            )
            .unwrap();
        let mut view = catalog.relation(id).unwrap().score_view();
        let mut previous = f64::INFINITY;
        let mut count = 0;
        while let Some(t) = view.next_tuple() {
            assert!(t.score <= previous);
            previous = t.score;
            count += 1;
        }
        assert_eq!(count, 14);
    }

    #[test]
    fn append_to_empty_relation_establishes_dimensionality() {
        let catalog = Catalog::new();
        let (id, n) = catalog.register_rows("fresh", Vec::new()).unwrap();
        assert_eq!(n, 0);
        let outcome = catalog
            .append_rows(id, vec![(Vector::from([1.0, 2.0]), 0.7)])
            .unwrap();
        assert_eq!(outcome.cardinality, 1);
        let rel = catalog.relation(id).unwrap();
        assert_eq!(rel.stats().dimensions, 2);
        assert_eq!(rel.shard(0).rtree().len(), 1);
    }

    #[test]
    fn mixed_dimension_registration_is_a_typed_error_and_cannot_poison_the_lock() {
        let catalog = Catalog::new();
        let err = catalog
            .register_rows(
                "bad",
                vec![(Vector::from([1.0]), 0.5), (Vector::from([1.0, 2.0]), 0.5)],
            )
            .unwrap_err();
        assert!(matches!(err, CatalogError::DimensionMismatch { .. }));
        // The catalog stays fully usable afterwards (no poisoned lock, no
        // half-registered slot visible).
        assert_eq!(catalog.live_len(), 0);
        let ok = catalog.register_rows("good", vec![(Vector::from([1.0]), 0.5)]);
        assert!(ok.is_ok());
        assert_eq!(catalog.live_len(), 1);
    }

    #[test]
    fn concurrent_appends_are_all_retained() {
        // Optimistic copy-on-write must serialise racing appends without
        // losing any (a lost update would silently drop client data) —
        // including across shards.
        let catalog = Arc::new(Catalog::with_policy(ShardingPolicy::new(3)));
        let id = catalog.register("r", mk_tuples(0, 4));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let catalog = Arc::clone(&catalog);
                scope.spawn(move || {
                    for i in 0..8 {
                        let x = worker as f64 + i as f64 / 10.0;
                        catalog
                            .append_rows(id, vec![(Vector::from([x, -x]), 0.5)])
                            .unwrap();
                    }
                });
            }
        });
        let relation = catalog.relation(id).unwrap();
        assert_eq!(relation.cardinality(), 4 + 32);
        assert_eq!(relation.epoch(), 32);
        // Ids are dense and unique across shards.
        let mut indices: Vec<usize> = relation.all_tuples().iter().map(|t| t.id.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..36).collect::<Vec<_>>());
    }

    #[test]
    fn delta_appends_publish_without_rebuilding() {
        let catalog = Catalog::with_policy_and_delta(ShardingPolicy::new(2), 64);
        assert_eq!(catalog.delta_limit(), 64);
        let id = catalog.register("r", mk_tuples(0, 12));
        let before = catalog.relation(id).unwrap();
        let point = Vector::from([0.5, 0.5]);
        let target = catalog.policy().shard_of(&point);
        let outcome = catalog.append_rows(id, vec![(point, 0.99)]).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(outcome.cardinality, 13);
        assert_eq!(outcome.touched_shards, vec![target]);
        let after = catalog.relation(id).unwrap();
        // The base structures are shared as-is — no rebuild happened.
        assert!(Arc::ptr_eq(
            before.shard(target).rtree(),
            after.shard(target).rtree()
        ));
        assert_eq!(after.shard(target).delta_len(), 1);
        assert_eq!(after.delta_len(), 1);
        assert_eq!(catalog.delta_tuples_total(), 1);
        assert_eq!(after.cardinality(), 13);
        assert_eq!(after.stats().max_score, 0.99);
        // Merged views observe base + delta in globally sorted order.
        let mut view = after.score_view();
        let mut previous = f64::INFINITY;
        let mut count = 0;
        while let Some(t) = view.next_tuple() {
            assert!(t.score <= previous);
            previous = t.score;
            count += 1;
        }
        assert_eq!(count, 13);
        let query = Vector::from([0.5, 0.5]);
        let mut view = after.distance_view(query.clone());
        let first = view.next_tuple().unwrap();
        assert_eq!(first.id, TupleId::new(0, 12), "delta tuple is nearest");
        let mut count = 1;
        let mut previous = first.distance_to(&query);
        while let Some(t) = view.next_tuple() {
            let d = t.distance_to(&query);
            assert!(d >= previous - 1e-12);
            previous = d;
            count += 1;
        }
        assert_eq!(count, 13);
    }

    #[test]
    fn compaction_preserves_epochs_and_matches_the_rebuild_path() {
        let delta_catalog = Catalog::with_policy_and_delta(ShardingPolicy::new(2), 4);
        let rebuild_catalog = Catalog::with_policy(ShardingPolicy::new(2));
        let a = delta_catalog.register("r", mk_tuples(0, 10));
        let b = rebuild_catalog.register("r", mk_tuples(0, 10));
        for i in 0..6 {
            let row = (
                Vector::from([i as f64 - 3.0, 3.0 - i as f64]),
                0.1 * i as f64 + 0.2,
            );
            delta_catalog.append_rows(a, vec![row.clone()]).unwrap();
            rebuild_catalog.append_rows(b, vec![row]).unwrap();
        }
        let before = delta_catalog.relation(a).unwrap();
        assert!(before.delta_len() > 0);
        let epochs = before.epochs();
        for j in 0..2 {
            let had_delta = before.shard(j).delta_len() > 0;
            assert_eq!(delta_catalog.compact_shard(a, j).unwrap(), had_delta);
            // Compacting an already-empty delta is a no-op.
            assert!(!delta_catalog.compact_shard(a, j).unwrap());
        }
        let after = delta_catalog.relation(a).unwrap();
        let reference = rebuild_catalog.relation(b).unwrap();
        // Compaction changed no epoch and lost no data.
        assert_eq!(after.epochs(), epochs);
        assert_eq!(after.delta_len(), 0);
        assert_eq!(delta_catalog.delta_tuples_total(), 0);
        assert_eq!(delta_catalog.delta_backlog(0), vec![]);
        // The folded shards are physically identical to the rebuild path's:
        // same score lane, same ingestion order (the payload pool), same
        // tree size.
        for j in 0..2 {
            assert_eq!(score_lane(after.shard(j)), score_lane(reference.shard(j)));
            assert!(after
                .shard(j)
                .rtree()
                .payloads()
                .eq(reference.shard(j).rtree().payloads()));
            assert_eq!(
                after.shard(j).rtree().len(),
                reference.shard(j).rtree().len()
            );
            if before.shard(j).delta_len() > 0 {
                assert_eq!(after.shard(j).compactions(), 1);
            }
        }
    }

    #[test]
    fn delta_backlog_lists_shards_at_threshold() {
        let catalog = Catalog::with_policy_and_delta(ShardingPolicy::new(1), 3);
        let id = catalog.register("r", mk_tuples(0, 5));
        assert!(catalog.delta_backlog(0).is_empty());
        catalog
            .append_rows(id, vec![(Vector::from([1.0, 1.0]), 0.5)])
            .unwrap();
        assert_eq!(catalog.delta_backlog(0), vec![(id, 0, 1)]);
        assert!(catalog.delta_backlog(3).is_empty());
        catalog
            .append_rows(
                id,
                vec![
                    (Vector::from([2.0, 1.0]), 0.4),
                    (Vector::from([1.0, 2.0]), 0.6),
                ],
            )
            .unwrap();
        assert_eq!(catalog.delta_backlog(3), vec![(id, 0, 3)]);
    }

    #[test]
    fn concurrent_appends_survive_concurrent_compaction() {
        // Appends racing the compactor's fold land in the residual delta;
        // none may be lost and ids stay dense.
        let catalog = Arc::new(Catalog::with_policy_and_delta(ShardingPolicy::new(2), 2));
        let id = catalog.register("r", mk_tuples(0, 4));
        std::thread::scope(|scope| {
            for worker in 0..3 {
                let catalog = Arc::clone(&catalog);
                scope.spawn(move || {
                    for i in 0..10 {
                        let x = worker as f64 + i as f64 / 10.0;
                        catalog
                            .append_rows(id, vec![(Vector::from([x, -x]), 0.5)])
                            .unwrap();
                    }
                });
            }
            let catalog = Arc::clone(&catalog);
            scope.spawn(move || {
                for _ in 0..50 {
                    for (rel, shard, _) in catalog.delta_backlog(1) {
                        let _ = catalog.compact_shard(rel, shard);
                    }
                    std::thread::yield_now();
                }
            });
        });
        // Final flush so the assertion below sees everything folded.
        for (rel, shard, _) in catalog.delta_backlog(0) {
            assert!(catalog.compact_shard(rel, shard).unwrap());
        }
        let relation = catalog.relation(id).unwrap();
        assert_eq!(relation.cardinality(), 4 + 30);
        assert_eq!(relation.epoch(), 30);
        assert_eq!(relation.delta_len(), 0);
        let mut indices: Vec<usize> = relation.all_tuples().iter().map(|t| t.id.index).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..34).collect::<Vec<_>>());
    }

    #[test]
    fn delta_append_to_empty_relation_is_queryable_and_compactable() {
        let catalog = Catalog::with_policy_and_delta(ShardingPolicy::new(1), 8);
        let (id, _) = catalog.register_rows("fresh", Vec::new()).unwrap();
        catalog
            .append_rows(id, vec![(Vector::from([1.0, 2.0]), 0.7)])
            .unwrap();
        let rel = catalog.relation(id).unwrap();
        assert_eq!(rel.stats().dimensions, 2);
        assert_eq!(rel.shard(0).delta_len(), 1);
        let mut view = rel.distance_view(Vector::from([0.0, 0.0]));
        assert_eq!(view.next_tuple().unwrap().id, TupleId::new(id.0, 0));
        assert!(catalog.compact_shard(id, 0).unwrap());
        let rel = catalog.relation(id).unwrap();
        // The placeholder-dimension base was rebuilt for real.
        assert_eq!(rel.shard(0).rtree().len(), 1);
        assert_eq!(rel.shard(0).rtree().dim(), 2);
        assert_eq!(rel.epochs(), vec![1]);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let catalog = Catalog::new();
        let id = catalog.register("r", mk_tuples(0, 5));
        let err = catalog
            .append_rows(id, vec![(Vector::from([1.0, 2.0, 3.0]), 0.7)])
            .unwrap_err();
        assert_eq!(
            err,
            CatalogError::DimensionMismatch {
                expected: 2,
                got: 3
            }
        );
        // The failed append must not have bumped the epoch.
        assert_eq!(catalog.relation(id).unwrap().epoch(), 0);
    }

    #[test]
    fn drop_makes_later_access_fail_without_reusing_the_id() {
        let catalog = Catalog::new();
        let a = catalog.register("a", mk_tuples(0, 5));
        let b = catalog.register("b", mk_tuples(1, 5));
        let outcome = catalog.drop_relation(a).unwrap();
        assert_eq!(outcome.epoch, 1);
        assert_eq!(catalog.relation(a).unwrap_err(), CatalogError::Dropped(0));
        assert_eq!(
            catalog.snapshot(&[a, b]).unwrap_err(),
            CatalogError::Dropped(0)
        );
        assert_eq!(catalog.lookup("a"), None);
        assert_eq!(catalog.live_len(), 1);
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.all_ids(), vec![b]);
        // A new registration does not resurrect the dropped id.
        let c = catalog.register("c", mk_tuples(2, 5));
        assert_eq!(c.index(), 2);
        assert_eq!(
            catalog.drop_relation(a).unwrap_err(),
            CatalogError::Dropped(0)
        );
        assert_eq!(
            catalog.relation(RelationId(99)).unwrap_err(),
            CatalogError::UnknownId(99)
        );
    }

    #[test]
    fn lookup_resolves_the_most_recent_live_name() {
        let catalog = Catalog::new();
        let old = catalog.register("r", mk_tuples(0, 3));
        let new = catalog.register("r", mk_tuples(1, 4));
        assert_eq!(catalog.lookup("r"), Some(new));
        catalog.drop_relation(new).unwrap();
        assert_eq!(catalog.lookup("r"), Some(old));
    }

    /// Rows with scores drawn from eight levels, so ties are common.
    fn scored_rows(rows: Vec<([f64; 2], usize)>) -> Vec<(Vector, f64)> {
        rows.into_iter()
            .map(|(p, level)| (Vector::from(p), (level + 1) as f64 / 8.0))
            .collect()
    }

    /// Checks every shard of `rel` against a model of its base tuples in
    /// ingestion order: the score lane and the R-tree's payload pool must be
    /// exactly what a from-scratch rebuild gives, and so must the
    /// statistics' cardinality, dimensions, min and max (`σ_max`). The
    /// moments are carried forward by [`RelationStats::combine`] rather
    /// than re-read, so they match the rebuild's two-pass moments to within
    /// rounding, `1e-9·max(1, |x|)`.
    fn assert_matches_rebuild(rel: &CatalogRelation, model: &[Vec<Tuple>]) {
        for (j, base) in model.iter().enumerate() {
            let shard = rel.shard(j);
            let rebuilt = VecRelation::score_sorted(String::new(), base.clone());
            assert_eq!(score_lane(shard), rebuilt.sorted_tuples());
            let (got, want) = (shard.base_stats, RelationStats::from_tuples(base));
            assert_eq!(
                (got.cardinality, got.dimensions),
                (want.cardinality, want.dimensions)
            );
            assert_eq!(got.min_score.to_bits(), want.min_score.to_bits());
            assert_eq!(got.max_score.to_bits(), want.max_score.to_bits());
            for (g, w) in [
                (got.mean_score, want.mean_score),
                (got.score_stddev, want.score_stddev),
                (got.score_skewness, want.score_skewness),
            ] {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs().max(1.0),
                    "{got:?} vs {want:?}"
                );
            }
            let ingestion: Vec<(TupleId, f64)> = base.iter().map(|t| (t.id, t.score)).collect();
            assert!(shard.rtree().payloads().eq(&ingestion));
        }
    }

    /// A catalog over registered rows, and a model of its shards: each
    /// shard's base and delta tuples in ingestion order.
    struct Model {
        catalog: Catalog,
        id: RelationId,
        base: Vec<Vec<Tuple>>,
        delta: Vec<Vec<Tuple>>,
    }

    impl Model {
        /// `shards` is 1 or 4 and `delta_limit` 0 or 4, by `layout`.
        fn new(registered: Vec<([f64; 2], usize)>, layout: (usize, usize)) -> Model {
            let shards = [1, 4][layout.0];
            let catalog =
                Catalog::with_policy_and_delta(ShardingPolicy::new(shards), [0, 4][layout.1]);
            let rows = scored_rows(registered);
            let (id, _) = catalog.register_rows("r", rows.clone()).unwrap();
            let mut base: Vec<Vec<Tuple>> = vec![Vec::new(); shards];
            for (i, (v, score)) in rows.into_iter().enumerate() {
                let j = catalog.policy().shard_of(&v);
                base[j].push(Tuple::new(TupleId::new(id.0, i), v, score));
            }
            let delta = vec![Vec::new(); shards];
            Model {
                catalog,
                id,
                base,
                delta,
            }
        }

        /// Step `kind` 0 or 1 appends `rows`; 2 folds shard `shard` (modulo
        /// the shard count). Checks the fold's answer and every shard's
        /// delta length against the model.
        fn step(&mut self, (kind, rows, shard): (usize, Vec<([f64; 2], usize)>, usize)) {
            let (catalog, id) = (&self.catalog, self.id);
            if kind < 2 {
                let first = catalog.relation(id).unwrap().cardinality();
                let rows = scored_rows(rows);
                catalog.append_rows(id, rows.clone()).unwrap();
                let lanes = if catalog.delta_limit() == 0 {
                    &mut self.base
                } else {
                    &mut self.delta
                };
                for (i, (v, score)) in rows.into_iter().enumerate() {
                    let j = catalog.policy().shard_of(&v);
                    lanes[j].push(Tuple::new(TupleId::new(id.0, first + i), v, score));
                }
            } else {
                let j = shard % self.base.len();
                let folded = catalog.compact_shard(id, j).unwrap();
                assert_eq!(folded, !self.delta[j].is_empty());
                let arrived = std::mem::take(&mut self.delta[j]);
                self.base[j].extend(arrived);
            }
            let rel = self.relation();
            for (j, pending) in self.delta.iter().enumerate() {
                assert_eq!(rel.shard(j).delta_len(), pending.len());
            }
        }

        fn relation(&self) -> Arc<CatalogRelation> {
            self.catalog.relation(self.id).unwrap()
        }
    }

    /// Reads `rel`'s whole score view from two threads at once (released
    /// together by a barrier); both must read the same tuples and share
    /// every shard's one lane build.
    fn read_lanes_from_two_threads(rel: &CatalogRelation) {
        let start = std::sync::Barrier::new(2);
        let read = || {
            start.wait();
            let ids: Vec<TupleId> = std::iter::from_fn({
                let mut view = rel.score_view();
                move || view.next_tuple()
            })
            .map(|t| t.id)
            .collect();
            let lanes: Vec<ScoreChunks> = (0..rel.num_shards())
                .map(|j| Arc::clone(rel.shard(j).score_chunks()))
                .collect();
            (ids, lanes)
        };
        let ((ids_a, lanes_a), (ids_b, lanes_b)) = std::thread::scope(|scope| {
            let a = scope.spawn(read);
            let b = scope.spawn(read);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(ids_a, ids_b);
        assert_eq!(ids_a.len(), rel.cardinality());
        assert!(lanes_a.iter().zip(&lanes_b).all(|(a, b)| Arc::ptr_eq(a, b)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The incrementally extended base lanes (rebuild appends and
        /// compaction folds) equal a from-scratch rebuild, bit for bit.
        #[test]
        fn incremental_lanes_equal_a_rebuild(
            registered in prop::collection::vec(
                (prop::array::uniform2(-5.0..5.0f64), 0usize..8),
                0..201,
            ),
            layout in (0usize..2, 0usize..2),
            steps in prop::collection::vec(
                (
                    0usize..3,
                    prop::collection::vec((prop::array::uniform2(-5.0..5.0f64), 0usize..8), 1..9),
                    0usize..4,
                ),
                0..12,
            ),
        ) {
            let mut model = Model::new(registered, layout);
            assert_matches_rebuild(&model.relation(), &model.base);
            for step in steps {
                model.step(step);
                assert_matches_rebuild(&model.relation(), &model.base);
            }
        }

        /// The score lane is built on the first score read, at any step of
        /// a random append/fold sequence (`build_at`; past the end: never),
        /// by one thread or two at once. Until then no shard holds a lane,
        /// and distance reads and appends build none; from then on every
        /// step keeps each lane equal to a from-scratch rebuild of its
        /// shard's base. The only lane a step drops is an empty base's,
        /// which a first append or fold rebuilds from scratch.
        #[test]
        fn lazy_lanes_equal_a_rebuild(
            registered in prop::collection::vec(
                (prop::array::uniform2(-5.0..5.0f64), 0usize..8),
                0..201,
            ),
            layout in (0usize..2, 0usize..2),
            steps in prop::collection::vec(
                (
                    0usize..3,
                    prop::collection::vec((prop::array::uniform2(-5.0..5.0f64), 0usize..8), 1..9),
                    0usize..4,
                ),
                0..12,
            ),
            build in (0usize..14, 0usize..2),
        ) {
            let (build_at, racing) = build;
            let mut model = Model::new(registered, layout);
            let mut steps = steps.into_iter();
            for i in 0.. {
                let rel = model.relation();
                if i < build_at {
                    let query = Vector::from([0.5, -0.5]);
                    let mut view = rel.distance_view(query);
                    let read = std::iter::from_fn(|| view.next_tuple()).count();
                    prop_assert_eq!(read, rel.cardinality());
                    let mut all: Vec<TupleId> = rel.all_tuples().iter().map(|t| t.id).collect();
                    all.sort_unstable();
                    let mut want: Vec<TupleId> =
                        model.base.iter().chain(&model.delta).flatten().map(|t| t.id).collect();
                    want.sort_unstable();
                    prop_assert_eq!(all, want);
                    for j in 0..rel.num_shards() {
                        prop_assert!(!has_lane(rel.shard(j)), "shard {} built a lane", j);
                    }
                } else {
                    if i == build_at && racing == 1 {
                        read_lanes_from_two_threads(&rel);
                    }
                    assert_matches_rebuild(&rel, &model.base);
                }
                let Some(step) = steps.next() else { break };
                let was_empty: Vec<bool> = model.base.iter().map(Vec::is_empty).collect();
                model.step(step);
                if i >= build_at {
                    let rel = model.relation();
                    for (j, empty) in was_empty.into_iter().enumerate() {
                        prop_assert!(has_lane(rel.shard(j)) || empty, "shard {} lost its lane", j);
                    }
                }
            }
        }
    }
}
