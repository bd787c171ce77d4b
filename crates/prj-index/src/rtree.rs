//! An arena-based R-tree over `d`-dimensional points.
//!
//! Design notes:
//!
//! * Node state lives in struct-of-arrays lanes addressed by packed
//!   [`NodeId`]s (kind bit + slot index, see [`crate::arena`]). A leaf's
//!   points are one contiguous `f64` run and an internal node's children
//!   are one contiguous [`NodeId`] run, so the hot traversal loops (mindist
//!   against a box, distance against a leaf's points) stream over dense
//!   lanes instead of chasing one heap `Vec` per node. Payloads are stored
//!   once in an append-only pool and referenced by index, so splits move
//!   `dim` floats and a `u32` — never the payload.
//! * Every lane, and the payload pool, is a run of fixed-size `Arc`'d
//!   chunks, so a slot is addressed as (chunk, slot-in-chunk). Cloning a
//!   tree shares every chunk; a write copies only the chunk it lands in
//!   while a clone still shares it. An insert into a clone therefore copies
//!   the chunks on its root-to-leaf path, the chunks its splits touch and
//!   the pool's tail chunk — a copy-on-write publish in O(batch · log n),
//!   not O(n). No operation frees a node, so slots are never reused.
//! * Insertion uses the classic Guttman algorithm with quadratic split.
//! * Bulk loading uses a top-down tiling scheme in the spirit of
//!   Sort-Tile-Recursive / OMT: items are recursively sorted along the widest
//!   dimension and partitioned so that every node respects the fanout bound.
//! * The incremental nearest-neighbour traversal is the Hjaltason–Samet
//!   best-first algorithm driven by a min-heap keyed on `mindist`, which is
//!   exactly what the paper's *distance-based access* needs (the related-work
//!   section credits the same incremental-distance-join line of work).

pub use crate::arena::{ArenaError, NodeId};
use crate::arena::{Lane, NODE_CHUNK, POOL_CHUNK};
use prj_geometry::Vector;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Fanout configuration of the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum number of entries (or children) per node before a split.
    pub max_entries: usize,
    /// Minimum number of entries per node produced by a split.
    pub min_entries: usize,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_entries: 8,
            min_entries: 3,
        }
    }
}

impl RTreeConfig {
    /// Creates a configuration, validating the classic R-tree invariant
    /// `2 ≤ min ≤ max / 2`.
    ///
    /// # Panics
    /// Panics if the invariant is violated.
    pub fn new(max_entries: usize, min_entries: usize) -> Self {
        assert!(max_entries >= 4, "max_entries must be at least 4");
        assert!(
            min_entries >= 2 && min_entries <= max_entries / 2,
            "min_entries must satisfy 2 <= min <= max/2"
        );
        RTreeConfig {
            max_entries,
            min_entries,
        }
    }
}

/// Node lanes come in chunks of `NODE_CHUNK` slots.
type NodeLane<E> = Lane<E, NODE_CHUNK>;

/// An R-tree over points in `R^d` carrying payloads of type `T`.
///
/// Every node kind gets its own fixed-width lanes (one slot spans
/// `max_entries + 1` entries so an overflowing node fits before its split):
/// leaves own a point-coordinate lane and a payload-index lane, internal
/// nodes own a child-id lane, and both own a length lane and a bounding-box
/// lane (`2 * dim` floats, lower corner then upper corner). Every lane and
/// the payload pool is a run of `Arc`'d chunks (see [`crate::arena`]), so a
/// [`Clone`] shares all of them, and an insert into the clone copies only
/// the chunks it writes: those on its root-to-leaf path, those its splits
/// touch, and the payload pool's tail.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    config: RTreeConfig,
    dim: usize,
    /// Entries per slot: `max_entries + 1`.
    stride: usize,
    root: Option<NodeId>,
    len: usize,
    /// Entry count per leaf slot.
    leaf_len: NodeLane<u32>,
    /// Leaf bounding boxes, `2 * dim` per slot.
    leaf_bounds: NodeLane<f64>,
    /// Leaf point coordinates, `dim * stride` per slot.
    leaf_points: NodeLane<f64>,
    /// Leaf payload-pool indexes, `stride` per slot.
    leaf_payload: NodeLane<u32>,
    /// Child count per internal slot.
    int_len: NodeLane<u32>,
    /// Internal bounding boxes, `2 * dim` per slot.
    int_bounds: NodeLane<f64>,
    /// Child ids, `stride` per slot.
    int_children: NodeLane<NodeId>,
    /// Append-only payload pool; leaf entries reference it by index.
    data: Lane<T, POOL_CHUNK>,
}

/// A nearest-neighbour result: a borrowed point (a `dim`-length coordinate
/// slice into the leaf lane), its payload and its distance from the query.
#[derive(Debug)]
pub struct NearestNeighbor<'a, T> {
    /// The indexed point's coordinates.
    pub point: &'a [f64],
    /// The payload stored with the point.
    pub data: &'a T,
    /// Euclidean distance from the query.
    pub distance: f64,
}

/// The empty bounding box of dimension `dim`, as a lane's `2 * dim` floats.
fn empty_bounds(dim: usize) -> impl Iterator<Item = f64> {
    std::iter::repeat_n(f64::INFINITY, dim).chain(std::iter::repeat_n(f64::NEG_INFINITY, dim))
}

/// Resets a bounding-box lane to the empty box.
fn reset_bounds(bounds: &mut [f64], dim: usize) {
    for lo in &mut bounds[..dim] {
        *lo = f64::INFINITY;
    }
    for hi in &mut bounds[dim..2 * dim] {
        *hi = f64::NEG_INFINITY;
    }
}

/// Expands a bounding-box lane to cover a point.
fn expand_bounds_to_point(bounds: &mut [f64], dim: usize, point: &[f64]) {
    for d in 0..dim {
        if point[d] < bounds[d] {
            bounds[d] = point[d];
        }
        if point[d] > bounds[dim + d] {
            bounds[dim + d] = point[d];
        }
    }
}

/// Expands a bounding-box lane to cover another box.
fn expand_bounds_to_box(bounds: &mut [f64], dim: usize, other: &[f64]) {
    for d in 0..dim {
        if other[d] < bounds[d] {
            bounds[d] = other[d];
        }
        if other[dim + d] > bounds[dim + d] {
            bounds[dim + d] = other[dim + d];
        }
    }
}

/// Volume (product of extents) of a bounding-box lane.
fn bounds_volume(bounds: &[f64], dim: usize) -> f64 {
    let mut v = 1.0;
    for d in 0..dim {
        v *= (bounds[dim + d] - bounds[d]).max(0.0);
    }
    v
}

/// Volume of the union of two bounding-box lanes.
fn union_volume(a: &[f64], b: &[f64], dim: usize) -> f64 {
    let mut v = 1.0;
    for d in 0..dim {
        let lo = a[d].min(b[d]);
        let hi = a[dim + d].max(b[dim + d]);
        v *= (hi - lo).max(0.0);
    }
    v
}

/// Volume of a bounding-box lane after expanding it to cover `point`.
fn point_union_volume(bounds: &[f64], dim: usize, point: &[f64]) -> f64 {
    let mut v = 1.0;
    for d in 0..dim {
        let lo = bounds[d].min(point[d]);
        let hi = bounds[dim + d].max(point[d]);
        v *= (hi - lo).max(0.0);
    }
    v
}

/// Squared minimum distance from `query` to a bounding-box lane.
fn bounds_min_distance_squared(bounds: &[f64], dim: usize, query: &[f64]) -> f64 {
    let mut acc = 0.0;
    for d in 0..dim {
        let q = query[d];
        let diff = if q < bounds[d] {
            bounds[d] - q
        } else if q > bounds[dim + d] {
            q - bounds[dim + d]
        } else {
            0.0
        };
        acc += diff * diff;
    }
    acc
}

/// Squared Euclidean distance between two coordinate slices.
fn point_distance_squared(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

impl<T> RTree<T> {
    /// Creates an empty tree for points of dimension `dim` with the default
    /// fanout.
    pub fn new(dim: usize) -> Self {
        Self::with_config(dim, RTreeConfig::default())
    }

    /// Creates an empty tree with an explicit fanout configuration.
    pub fn with_config(dim: usize, config: RTreeConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let stride = config.max_entries + 1;
        RTree {
            config,
            dim,
            stride,
            root: None,
            len: 0,
            leaf_len: Lane::new(1),
            leaf_bounds: Lane::new(2 * dim),
            leaf_points: Lane::new(dim * stride),
            leaf_payload: Lane::new(stride),
            int_len: Lane::new(1),
            int_bounds: Lane::new(2 * dim),
            int_children: Lane::new(stride),
            data: Lane::new(1),
        }
    }

    /// Bulk-loads a tree from a set of `(point, payload)` pairs using
    /// top-down tiling. Much faster and better packed than repeated insertion.
    ///
    /// # Panics
    /// Panics if any point has a dimension different from `dim`.
    pub fn bulk_load(dim: usize, items: Vec<(Vector, T)>) -> Self
    where
        T: Clone,
    {
        Self::bulk_load_with_config(dim, RTreeConfig::default(), items)
    }

    /// [`RTree::bulk_load`] with an explicit configuration.
    pub fn bulk_load_with_config(dim: usize, config: RTreeConfig, items: Vec<(Vector, T)>) -> Self
    where
        T: Clone,
    {
        let mut tree = Self::with_config(dim, config);
        if items.is_empty() {
            return tree;
        }
        for (p, _) in &items {
            assert_eq!(p.dim(), dim, "point dimension mismatch in bulk load");
        }
        tree.len = items.len();
        // Collected in place, reusing `items`' allocation.
        let mut entries: Vec<(Vector, u32)> = items
            .into_iter()
            .map(|(point, data)| (point, tree.data.push([data]) as u32))
            .collect();
        let root = tree.bulk_build(&mut entries);
        tree.root = Some(root);
        tree
    }

    fn bulk_build(&mut self, entries: &mut [(Vector, u32)]) -> NodeId {
        let m = self.config.max_entries;
        if entries.len() <= m {
            return self.push_leaf(entries.iter().map(|(p, payload)| (p.as_slice(), *payload)));
        }
        // Height of the subtree and capacity of each child subtree.
        let n = entries.len();
        let height = (n as f64).log(m as f64).ceil() as u32;
        let child_capacity = m.pow(height - 1).max(1);
        // Sort along the widest dimension for a reasonable spatial partition.
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for (p, _) in entries.iter() {
            for d in 0..self.dim {
                lo[d] = lo[d].min(p[d]);
                hi[d] = hi[d].max(p[d]);
            }
        }
        let widest = (0..self.dim)
            .max_by(|&a, &b| {
                (hi[a] - lo[a])
                    .partial_cmp(&(hi[b] - lo[b]))
                    .unwrap_or(Ordering::Equal)
            })
            .unwrap_or(0);
        entries.sort_by(|a, b| {
            a.0[widest]
                .partial_cmp(&b.0[widest])
                .unwrap_or(Ordering::Equal)
        });
        let mut children = Vec::new();
        let mut rest = entries;
        while !rest.is_empty() {
            let take = rest.len().min(child_capacity);
            let (chunk, tail) = rest.split_at_mut(take);
            children.push(self.bulk_build(chunk));
            rest = tail;
        }
        self.push_internal(&children)
    }

    /// Appends a leaf slot holding `entries` (point, payload-pool index).
    fn push_leaf<'p>(&mut self, entries: impl Iterator<Item = (&'p [f64], u32)>) -> NodeId {
        let (dim, stride) = (self.dim, self.stride);
        let id = NodeId::pack(self.leaf_len.len(), true).expect("R-tree leaf arena exhausted");
        self.leaf_len.push([0]);
        self.leaf_bounds.push(empty_bounds(dim));
        self.leaf_points
            .push(std::iter::repeat_n(0.0, dim * stride));
        self.leaf_payload.push(std::iter::repeat_n(0, stride));
        self.set_leaf(id.index(), entries);
        id
    }

    /// Replaces leaf `slot`'s entries with `entries`.
    fn set_leaf<'p>(&mut self, slot: usize, entries: impl Iterator<Item = (&'p [f64], u32)>) {
        let dim = self.dim;
        let points = self.leaf_points.get_mut(slot);
        let payloads = self.leaf_payload.get_mut(slot);
        let bounds = self.leaf_bounds.get_mut(slot);
        reset_bounds(bounds, dim);
        let mut len = 0;
        for (point, payload) in entries {
            points[len * dim..(len + 1) * dim].copy_from_slice(point);
            payloads[len] = payload;
            expand_bounds_to_point(bounds, dim, point);
            len += 1;
        }
        self.leaf_len.get_mut(slot)[0] = len as u32;
    }

    /// Appends an internal slot over `children`.
    fn push_internal(&mut self, children: &[NodeId]) -> NodeId {
        let id = NodeId::pack(self.int_len.len(), false).expect("R-tree internal arena exhausted");
        self.int_len.push([0]);
        self.int_bounds.push(empty_bounds(self.dim));
        self.int_children
            .push(std::iter::repeat_n(NodeId::DANGLING, self.stride));
        self.set_internal(id.index(), children);
        id
    }

    /// Replaces internal `slot`'s children with `children`.
    fn set_internal(&mut self, slot: usize, children: &[NodeId]) {
        debug_assert!(children.len() <= self.stride);
        self.int_len.get_mut(slot)[0] = children.len() as u32;
        self.int_children.get_mut(slot)[..children.len()].copy_from_slice(children);
        self.recompute_bounds(slot);
    }

    /// Appends an entry to a leaf's lanes, expanding its bounds.
    fn push_leaf_entry(&mut self, leaf: NodeId, point: &[f64], payload: u32) {
        let (slot, dim) = (leaf.index(), self.dim);
        let len = self.node_entry_count(leaf);
        debug_assert!(len < self.stride, "leaf slot overflow before split");
        self.leaf_len.get_mut(slot)[0] = len as u32 + 1;
        self.leaf_points.get_mut(slot)[len * dim..(len + 1) * dim].copy_from_slice(point);
        self.leaf_payload.get_mut(slot)[len] = payload;
        expand_bounds_to_point(self.leaf_bounds.get_mut(slot), dim, point);
    }

    /// The bounding-box lane of a node (lower corner then upper corner).
    fn node_bounds(&self, node: NodeId) -> &[f64] {
        if node.is_leaf() {
            self.leaf_bounds.get(node.index())
        } else {
            self.int_bounds.get(node.index())
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The payload pool: one payload per indexed point, in insertion order
    /// (bulk-load order, then one per [`RTree::insert`]).
    pub fn payloads(&self) -> impl Iterator<Item = &T> + Clone + '_ {
        self.data.iter()
    }

    /// The node chunks of this tree that are not the very allocations
    /// `base` holds at the same position, as `(is_leaf, chunk)` pairs (see
    /// [`NodeId::chunk`]), leaves first, each kind in chunk order. A clone
    /// shares every chunk with its original, so on a clone of `base` this
    /// lists exactly the chunks its inserts copied or added.
    pub fn copied_node_chunks(&self, base: &RTree<T>) -> Vec<(bool, usize)> {
        fn copied<E, const S: usize>(lane: &Lane<E, S>, base: &Lane<E, S>) -> Vec<usize> {
            let old = base.chunks();
            (0..lane.chunks().len())
                .filter(|&c| {
                    old.get(c)
                        .is_none_or(|o| !Arc::ptr_eq(o, &lane.chunks()[c]))
                })
                .collect()
        }
        let leaves: BTreeSet<usize> = [
            copied(&self.leaf_len, &base.leaf_len),
            copied(&self.leaf_bounds, &base.leaf_bounds),
            copied(&self.leaf_points, &base.leaf_points),
            copied(&self.leaf_payload, &base.leaf_payload),
        ]
        .concat()
        .into_iter()
        .collect();
        let internals: BTreeSet<usize> = [
            copied(&self.int_len, &base.int_len),
            copied(&self.int_bounds, &base.int_bounds),
            copied(&self.int_children, &base.int_children),
        ]
        .concat()
        .into_iter()
        .collect();
        leaves
            .into_iter()
            .map(|c| (true, c))
            .chain(internals.into_iter().map(|c| (false, c)))
            .collect()
    }

    /// Inserts a point with its payload (Guttman insertion, quadratic split).
    ///
    /// # Panics
    /// Panics if the point's dimension differs from the tree's.
    pub fn insert(&mut self, point: Vector, data: T)
    where
        T: Clone,
    {
        assert_eq!(point.dim(), self.dim, "point dimension mismatch");
        self.len += 1;
        let payload = self.data.push([data]) as u32;
        match self.root {
            None => self.root = Some(self.push_leaf(std::iter::once((point.as_slice(), payload)))),
            Some(root) => {
                if let Some(sibling) = self.insert_rec(root, point.as_slice(), payload) {
                    // Root split: grow the tree by one level.
                    self.root = Some(self.push_internal(&[root, sibling]));
                }
            }
        }
    }

    /// Inserts every `(point, payload)` item in turn — the compaction fold
    /// primitive: cloning a shared base tree and extending it with a shard's
    /// delta costs O(delta · log n) and copies only the chunks the inserts
    /// write, instead of a full O(n) bulk re-load.
    ///
    /// # Panics
    /// Panics if any point's dimension differs from the tree's.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (Vector, T)>)
    where
        T: Clone,
    {
        for (point, data) in items {
            self.insert(point, data);
        }
    }

    /// Recursive insertion; returns the id of a new sibling when the node split.
    fn insert_rec(&mut self, node: NodeId, point: &[f64], payload: u32) -> Option<NodeId> {
        if node.is_leaf() {
            self.push_leaf_entry(node, point, payload);
            if self.node_entry_count(node) <= self.config.max_entries {
                return None;
            }
            return Some(self.split_leaf(node));
        }
        // Choose the child needing the least enlargement (ties: least volume).
        let children = self.node_children(node);
        let mut best = children[0];
        let mut best_enlargement = f64::INFINITY;
        let mut best_volume = f64::INFINITY;
        for &c in children {
            let cb = self.node_bounds(c);
            let volume = bounds_volume(cb, self.dim);
            let enlargement = point_union_volume(cb, self.dim, point) - volume;
            if enlargement < best_enlargement - 1e-15
                || ((enlargement - best_enlargement).abs() <= 1e-15 && volume < best_volume)
            {
                best = c;
                best_enlargement = enlargement;
                best_volume = volume;
            }
        }
        let split = self.insert_rec(best, point, payload);
        // Refresh this node's bbox and children list.
        let slot = node.index();
        if let Some(sibling) = split {
            let len = self.int_len.get(slot)[0] as usize;
            self.int_children.get_mut(slot)[len] = sibling;
            self.int_len.get_mut(slot)[0] = len as u32 + 1;
        }
        self.recompute_bounds(slot);
        if self.node_children(node).len() > self.config.max_entries {
            Some(self.split_internal(node))
        } else {
            None
        }
    }

    /// Recomputes internal `slot`'s bounds from its children's, writing
    /// them (and so copying a shared chunk) only if they changed. Each
    /// coordinate is folded on its own, so an insert needs no scratch lane.
    fn recompute_bounds(&mut self, slot: usize) {
        for c in 0..2 * self.dim {
            let bound = self.children_bound(slot, c);
            if bound.to_bits() != self.int_bounds.get(slot)[c].to_bits() {
                self.int_bounds.get_mut(slot)[c] = bound;
            }
        }
    }

    /// Coordinate `c` of the box covering internal `slot`'s children: the
    /// least lower corner for `c < dim`, the greatest upper corner after,
    /// folded in child order exactly as [`expand_bounds_to_box`] does.
    fn children_bound(&self, slot: usize, c: usize) -> f64 {
        let len = self.int_len.get(slot)[0] as usize;
        let corners = self.int_children.get(slot)[..len]
            .iter()
            .map(|&child| self.node_bounds(child)[c]);
        if c < self.dim {
            corners.fold(f64::INFINITY, |lo, x| if x < lo { x } else { lo })
        } else {
            corners.fold(f64::NEG_INFINITY, |hi, x| if x > hi { x } else { hi })
        }
    }

    /// Quadratic split of an overflowing leaf; returns the new sibling's id.
    fn split_leaf(&mut self, node: NodeId) -> NodeId {
        let dim = self.dim;
        let slot = node.index();
        let n = self.node_entry_count(node);
        let points = &self.leaf_points.get(slot)[..n * dim];
        // Degenerate per-entry boxes (a point is its own box).
        let mut boxes = Vec::with_capacity(n * 2 * dim);
        for point in points.chunks_exact(dim) {
            boxes.extend_from_slice(point);
            boxes.extend_from_slice(point);
        }
        let (group_a, group_b) = quadratic_partition(&boxes, dim, self.config.min_entries);
        // Gather both groups out of the lanes before rewriting them.
        let payload = self.leaf_payload.get(slot);
        let mut scratch_points = Vec::with_capacity(n * dim);
        let mut scratch_payload = Vec::with_capacity(n);
        for &e in group_a.iter().chain(group_b.iter()) {
            scratch_points.extend_from_slice(&points[e * dim..(e + 1) * dim]);
            scratch_payload.push(payload[e]);
        }
        let entries = scratch_points
            .chunks_exact(dim)
            .zip(scratch_payload.iter().copied());
        let sibling = self.push_leaf(entries.clone().skip(group_a.len()));
        self.set_leaf(slot, entries.take(group_a.len()));
        sibling
    }

    /// Quadratic split of an overflowing internal node; returns the sibling id.
    fn split_internal(&mut self, node: NodeId) -> NodeId {
        let dim = self.dim;
        let children: Vec<NodeId> = self.node_children(node).to_vec();
        let mut boxes = Vec::with_capacity(children.len() * 2 * dim);
        for &c in &children {
            boxes.extend_from_slice(self.node_bounds(c));
        }
        let (group_a, group_b) = quadratic_partition(&boxes, dim, self.config.min_entries);
        let pick =
            |group: &[usize]| -> Vec<NodeId> { group.iter().map(|&e| children[e]).collect() };
        let sibling = self.push_internal(&pick(&group_b));
        self.set_internal(node.index(), &pick(&group_a));
        sibling
    }

    // ----- low-level traversal API (used by external incremental cursors) ---

    /// The root node id, if the tree is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// `true` when `node` is a leaf (encoded in the packed id's kind bit).
    pub fn is_leaf(&self, node: NodeId) -> bool {
        node.is_leaf()
    }

    /// Minimum Euclidean distance from `query` to `node`'s bounding box.
    pub fn node_min_distance(&self, node: NodeId, query: &Vector) -> f64 {
        bounds_min_distance_squared(self.node_bounds(node), self.dim, query.as_slice()).sqrt()
    }

    /// Child node ids of an internal node (empty slice for leaves).
    pub fn node_children(&self, node: NodeId) -> &[NodeId] {
        if node.is_leaf() {
            return &[];
        }
        let slot = node.index();
        &self.int_children.get(slot)[..self.int_len.get(slot)[0] as usize]
    }

    /// Number of point entries stored in a leaf (0 for internal nodes).
    pub fn node_entry_count(&self, node: NodeId) -> usize {
        if node.is_leaf() {
            self.leaf_len.get(node.index())[0] as usize
        } else {
            0
        }
    }

    /// Point coordinates and payload of the `idx`-th entry of a leaf.
    ///
    /// # Panics
    /// Panics if `node` is internal or `idx` is out of range.
    pub fn node_entry(&self, node: NodeId, idx: usize) -> (&[f64], &T) {
        assert!(node.is_leaf(), "node_entry on internal node");
        let slot = node.index();
        assert!(
            idx < self.leaf_len.get(slot)[0] as usize,
            "entry out of range"
        );
        let point = &self.leaf_points.get(slot)[idx * self.dim..(idx + 1) * self.dim];
        let payload = self.leaf_payload.get(slot)[idx] as usize;
        (point, &self.data.get(payload)[0])
    }

    /// Euclidean distance from `query` to the `idx`-th entry of a leaf,
    /// streamed straight off the coordinate lane.
    pub fn entry_distance(&self, node: NodeId, idx: usize, query: &Vector) -> f64 {
        debug_assert!(node.is_leaf());
        let point = &self.leaf_points.get(node.index())[idx * self.dim..(idx + 1) * self.dim];
        point_distance_squared(point, query.as_slice()).sqrt()
    }

    /// Each entry of a leaf as its distance from `query` and its index in
    /// the payload pool, in entry order, off one lookup per lane.
    pub(crate) fn leaf_entries<'a>(
        &'a self,
        leaf: NodeId,
        query: &'a Vector,
    ) -> impl Iterator<Item = (f64, u32)> + 'a {
        let (slot, len) = (leaf.index(), self.node_entry_count(leaf));
        self.leaf_points.get(slot)[..len * self.dim]
            .chunks_exact(self.dim)
            .zip(self.leaf_payload.get(slot))
            .map(|(point, &payload)| {
                let distance = point_distance_squared(point, query.as_slice()).sqrt();
                (distance, payload)
            })
    }

    /// [`RTree::node_entry`] for an entry whose payload-pool index
    /// [`RTree::leaf_entries`] already read.
    pub(crate) fn pooled_entry(&self, leaf: NodeId, idx: usize, payload: u32) -> (&[f64], &T) {
        let point = &self.leaf_points.get(leaf.index())[idx * self.dim..(idx + 1) * self.dim];
        (point, &self.data.get(payload as usize)[0])
    }

    // ------------------------------ queries ---------------------------------

    /// Iterates over all `(point, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> + '_ {
        (0..self.leaf_len.len()).flat_map(move |slot| {
            let leaf = NodeId::pack(slot, true).expect("a live leaf slot packs");
            (0..self.node_entry_count(leaf)).map(move |e| self.node_entry(leaf, e))
        })
    }

    /// Returns all entries within Euclidean distance `radius` of `query`.
    pub fn within_radius(&self, query: &Vector, radius: f64) -> Vec<NearestNeighbor<'_, T>> {
        let mut out = Vec::new();
        let Some(root) = self.root else {
            return out;
        };
        let mut stack = vec![root];
        let r2 = radius * radius;
        let q = query.as_slice();
        while let Some(node) = stack.pop() {
            if bounds_min_distance_squared(self.node_bounds(node), self.dim, q) > r2 {
                continue;
            }
            if node.is_leaf() {
                for idx in 0..self.node_entry_count(node) {
                    let (point, data) = self.node_entry(node, idx);
                    let d2 = point_distance_squared(point, q);
                    if d2 <= r2 {
                        out.push(NearestNeighbor {
                            point,
                            data,
                            distance: d2.sqrt(),
                        });
                    }
                }
            } else {
                stack.extend_from_slice(self.node_children(node));
            }
        }
        out
    }

    /// Returns the `k` nearest neighbours of `query`, closest first.
    pub fn knn(&self, query: &Vector, k: usize) -> Vec<NearestNeighbor<'_, T>> {
        self.nearest_iter(query).take(k).collect()
    }

    /// Best-first incremental nearest-neighbour iterator: yields every indexed
    /// point in non-decreasing distance from `query`. This is the engine of
    /// the *distance-based access* used by proximity rank join.
    pub fn nearest_iter<'a>(&'a self, query: &Vector) -> NearestIter<'a, T> {
        NearestIter {
            cursor: crate::cursor::NearestCursor::new(self, query),
            tree: self,
            query: query.clone(),
        }
    }
}

/// Quadratic-split partition of a set of boxes (flattened, `2 * dim` floats
/// per box) into two groups, each of size at least `min_entries`. Returns the
/// index sets of the two groups.
fn quadratic_partition(boxes: &[f64], dim: usize, min_entries: usize) -> (Vec<usize>, Vec<usize>) {
    let stride = 2 * dim;
    let n = boxes.len() / stride;
    debug_assert!(n >= 2);
    let bx = |i: usize| &boxes[i * stride..(i + 1) * stride];
    // Pick seeds: the pair wasting the most area when joined.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = union_volume(bx(i), bx(j), dim)
                - bounds_volume(bx(i), dim)
                - bounds_volume(bx(j), dim);
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }
    let mut group_a = vec![seed_a];
    let mut group_b = vec![seed_b];
    let mut bbox_a = bx(seed_a).to_vec();
    let mut bbox_b = bx(seed_b).to_vec();
    let enlargement = |bbox: &[f64], i: usize| -> f64 {
        union_volume(bbox, bx(i), dim) - bounds_volume(bbox, dim)
    };
    let mut remaining: Vec<usize> = (0..n).filter(|&i| i != seed_a && i != seed_b).collect();
    while !remaining.is_empty() {
        // If one group must absorb the rest to reach the minimum fill, do so.
        if group_a.len() + remaining.len() == min_entries {
            group_a.append(&mut remaining);
            break;
        }
        if group_b.len() + remaining.len() == min_entries {
            group_b.append(&mut remaining);
            break;
        }
        // Pick the entry with the greatest preference for one group.
        let (pos, _) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| {
                let da = enlargement(&bbox_a, i);
                let db = enlargement(&bbox_b, i);
                (pos, (da - db).abs())
            })
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal))
            .expect("remaining is non-empty");
        let i = remaining.swap_remove(pos);
        let da = enlargement(&bbox_a, i);
        let db = enlargement(&bbox_b, i);
        let to_a = match da.partial_cmp(&db) {
            Some(Ordering::Less) => true,
            Some(Ordering::Greater) => false,
            _ => group_a.len() <= group_b.len(),
        };
        if to_a {
            group_a.push(i);
            expand_bounds_to_box(&mut bbox_a, dim, bx(i));
        } else {
            group_b.push(i);
            expand_bounds_to_box(&mut bbox_b, dim, bx(i));
        }
    }
    (group_a, group_b)
}

/// Best-first incremental nearest-neighbour iterator over an [`RTree`]: a
/// borrowing convenience wrapper around [`crate::cursor::NearestCursor`],
/// which holds the single implementation of the traversal.
pub struct NearestIter<'a, T> {
    cursor: crate::cursor::NearestCursor,
    tree: &'a RTree<T>,
    query: Vector,
}

impl<'a, T> Iterator for NearestIter<'a, T> {
    type Item = NearestNeighbor<'a, T>;

    fn next(&mut self) -> Option<Self::Item> {
        self.cursor.next(self.tree, &self.query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &[f64]) -> Vector {
        Vector::from(x)
    }

    fn grid_points(side: usize) -> Vec<(Vector, usize)> {
        let mut out = Vec::new();
        for i in 0..side {
            for j in 0..side {
                out.push((v(&[i as f64, j as f64]), i * side + j));
            }
        }
        out
    }

    #[test]
    fn empty_tree() {
        let tree: RTree<u32> = RTree::new(2);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.root().is_none());
        assert!(tree.knn(&v(&[0.0, 0.0]), 3).is_empty());
        assert_eq!(tree.nearest_iter(&v(&[0.0, 0.0])).count(), 0);
    }

    #[test]
    fn insert_and_count() {
        let mut tree = RTree::new(2);
        for (p, d) in grid_points(7) {
            tree.insert(p, d);
        }
        assert_eq!(tree.len(), 49);
        assert_eq!(tree.nearest_iter(&v(&[0.0, 0.0])).count(), 49);
    }

    /// Pseudo-random points in `[-50, 50)²` from a 64-bit LCG.
    fn scattered(seed: u64, n: usize, first_payload: usize) -> Vec<(Vector, usize)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
        };
        (0..n)
            .map(|i| (v(&[next(), next()]), first_payload + i))
            .collect()
    }

    /// A copy of `tree` that shares no chunk with it.
    fn deep_copy(tree: &RTree<usize>) -> RTree<usize> {
        RTree {
            leaf_len: tree.leaf_len.unshared(),
            leaf_bounds: tree.leaf_bounds.unshared(),
            leaf_points: tree.leaf_points.unshared(),
            leaf_payload: tree.leaf_payload.unshared(),
            int_len: tree.int_len.unshared(),
            int_bounds: tree.int_bounds.unshared(),
            int_children: tree.int_children.unshared(),
            data: tree.data.unshared(),
            ..tree.clone()
        }
    }

    /// Every node reachable from the root, depth first, in child order.
    fn nodes(tree: &RTree<usize>) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = tree.root().into_iter().collect();
        while let Some(node) = stack.pop() {
            out.push(node);
            stack.extend(tree.node_children(node).iter().rev());
        }
        out
    }

    /// `true` when the subtree under `node` holds `payload`.
    fn holds(tree: &RTree<usize>, node: NodeId, payload: usize) -> bool {
        (0..tree.node_entry_count(node)).any(|e| *tree.node_entry(node, e).1 == payload)
            || tree
                .node_children(node)
                .iter()
                .any(|&c| holds(tree, c, payload))
    }

    /// One node's own state, bit for bit: its box and its entries or
    /// children.
    fn node_state(tree: &RTree<usize>, node: NodeId) -> Vec<u64> {
        let mut out: Vec<u64> = tree.node_bounds(node).iter().map(|b| b.to_bits()).collect();
        out.extend(
            tree.node_children(node)
                .iter()
                .map(|c| u64::from(c.to_bits())),
        );
        for e in 0..tree.node_entry_count(node) {
            let (point, &payload) = tree.node_entry(node, e);
            out.extend(point.iter().map(|x| x.to_bits()));
            out.push(payload as u64);
        }
        out
    }

    /// Everything observable, bit for bit: the shape and slot ids, every
    /// box and entry, the payload pool, `iter()` and a nearest scan.
    fn observe(tree: &RTree<usize>) -> Vec<u64> {
        let mut out = Vec::new();
        for node in nodes(tree) {
            out.push(u64::from(node.to_bits()));
            out.extend(node_state(tree, node));
        }
        out.extend(tree.payloads().map(|&p| p as u64));
        for (point, &payload) in tree.iter() {
            out.extend(point.iter().map(|x| x.to_bits()));
            out.push(payload as u64);
        }
        for nn in tree.nearest_iter(&v(&[3.5, -7.25])) {
            out.push(*nn.data as u64);
            out.push(nn.distance.to_bits());
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Inserting into a clone leaves the original exactly as it was,
        /// and the clone ends up bit for bit where a deep copy given the
        /// same inserts does.
        #[test]
        fn inserts_into_a_clone_leave_the_original_and_match_a_deep_copy(
            seed in 0u64..u64::MAX,
            loaded in 0usize..3000,
            inserted in 1usize..200,
        ) {
            let base = RTree::bulk_load(2, scattered(seed, loaded, 0));
            let before = observe(&base);
            let extra = scattered(seed ^ 0x9e37_79b9, inserted, loaded);
            let mut shared = base.clone();
            let mut deep = deep_copy(&base);
            shared.extend(extra.clone());
            deep.extend(extra);
            proptest::prop_assert_eq!(observe(&base), before);
            proptest::prop_assert_eq!(observe(&shared), observe(&deep));
            proptest::prop_assert_eq!(shared.len(), loaded + inserted);
        }
    }

    /// `true` when every lane of one node kind holds the very same chunk
    /// `c` in both trees.
    fn chunk_shared(a: &RTree<usize>, b: &RTree<usize>, leaf: bool, c: usize) -> bool {
        fn same<E, const S: usize>(a: &Lane<E, S>, b: &Lane<E, S>, c: usize) -> bool {
            Arc::ptr_eq(&a.chunks()[c], &b.chunks()[c])
        }
        if leaf {
            same(&a.leaf_len, &b.leaf_len, c)
                && same(&a.leaf_bounds, &b.leaf_bounds, c)
                && same(&a.leaf_points, &b.leaf_points, c)
                && same(&a.leaf_payload, &b.leaf_payload, c)
        } else {
            same(&a.int_len, &b.int_len, c)
                && same(&a.int_bounds, &b.int_bounds, c)
                && same(&a.int_children, &b.int_children, c)
        }
    }

    /// Inserts `point` into a clone of `base` and checks that every node
    /// chunk off the insert's path is still `base`'s; returns whether the
    /// insert split a leaf.
    fn assert_insert_shares_off_path(base: &RTree<usize>, point: Vector) -> bool {
        let new = base.len();
        let mut after = base.clone();
        after.insert(point, new);
        // The insert may write the nodes on its root-to-leaf path (in the
        // new tree, the path to the new point), the node each split
        // halved, and the nodes the splits added.
        let mut path = vec![after.root().unwrap()];
        while let Some(&child) = after
            .node_children(*path.last().unwrap())
            .iter()
            .find(|&&c| holds(&after, c, new))
        {
            path.push(child);
        }
        assert!(holds(&after, *path.last().unwrap(), new));
        let old = nodes(base);
        let written: Vec<NodeId> = old
            .iter()
            .copied()
            .filter(|&n| node_state(base, n) != node_state(&after, n))
            .collect();
        // One old node per level: the one the descent went through, which
        // is on the path or was split off it; a split origin hangs under a
        // path node or under another split origin.
        assert!(written.len() <= path.len(), "{written:?} off {path:?}");
        let mut reach = path.clone();
        let mut i = 0;
        while i < reach.len() {
            for &c in after.node_children(reach[i]) {
                if written.contains(&c) && !reach.contains(&c) {
                    reach.push(c);
                }
            }
            i += 1;
        }
        assert!(
            written.iter().all(|w| reach.contains(w)),
            "{written:?} off {path:?}"
        );
        let added = nodes(&after).into_iter().filter(|n| !old.contains(n));
        let touched: BTreeSet<(bool, usize)> = path
            .iter()
            .chain(&written)
            .copied()
            .chain(added)
            .map(|n| (n.is_leaf(), n.chunk()))
            .collect();
        for leaf in [true, false] {
            let chunks = if leaf { &base.leaf_len } else { &base.int_len }
                .chunks()
                .len();
            for c in (0..chunks).filter(|&c| !touched.contains(&(leaf, c))) {
                assert!(
                    chunk_shared(base, &after, leaf, c),
                    "leaf {leaf}, chunk {c}"
                );
            }
        }
        let pool = base.data.chunks();
        assert!((0..pool.len() - 1).all(|c| Arc::ptr_eq(&pool[c], &after.data.chunks()[c])));
        let copied = after.copied_node_chunks(base);
        assert!(!copied.is_empty());
        assert!(copied.iter().all(|c| touched.contains(c)), "{copied:?}");
        after.leaf_len.len() > base.leaf_len.len()
    }

    #[test]
    fn a_one_point_insert_shares_every_chunk_off_its_path() {
        let bulk = RTree::bulk_load(2, scattered(7, 10_000, 0));
        assert!(bulk.leaf_len.chunks().len() > 10 && bulk.int_len.chunks().len() > 1);
        assert!(bulk.copied_node_chunks(&bulk.clone()).is_empty());
        // Bulk-loaded leaves are full, so every insert into `bulk` splits;
        // after a round of inserts, most leaves have room.
        let mut grown = bulk.clone();
        grown.extend(scattered(9, 2_000, 10_000));
        let mut splits = 0;
        for base in [&bulk, &grown] {
            for (point, _) in scattered(11, 16, 0) {
                splits += usize::from(assert_insert_shares_off_path(base, point));
            }
        }
        assert!(
            (16..32).contains(&splits),
            "{splits} of 32 inserts split a leaf"
        );
    }

    #[test]
    fn bulk_load_and_count() {
        let tree = RTree::bulk_load(2, grid_points(10));
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.nearest_iter(&v(&[5.0, 5.0])).count(), 100);
    }

    #[test]
    fn nearest_iter_is_sorted_by_distance() {
        let tree = RTree::bulk_load(2, grid_points(12));
        let q = v(&[3.3, 7.1]);
        let dists: Vec<f64> = tree.nearest_iter(&q).map(|nn| nn.distance).collect();
        assert_eq!(dists.len(), 144);
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12, "not sorted: {} > {}", w[0], w[1]);
        }
    }

    #[test]
    fn nearest_iter_matches_linear_scan() {
        let pts = grid_points(9);
        let tree = RTree::bulk_load(2, pts.clone());
        let q = v(&[2.7, 4.2]);
        let mut expected: Vec<f64> = pts.iter().map(|(p, _)| p.distance(&q)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = tree.nearest_iter(&q).map(|nn| nn.distance).collect();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn insertion_matches_linear_scan() {
        let pts = grid_points(8);
        let mut tree = RTree::new(2);
        for (p, d) in pts.clone() {
            tree.insert(p, d);
        }
        let q = v(&[1.9, 6.4]);
        let mut expected: Vec<f64> = pts.iter().map(|(p, _)| p.distance(&q)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = tree.nearest_iter(&q).map(|nn| nn.distance).collect();
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn extend_matches_bulk_load_order() {
        // A bulk-loaded base extended with a "delta" must answer nearest-
        // neighbour scans identically to one tree over the union.
        let pts = grid_points(8);
        let (base, delta) = pts.split_at(40);
        let mut tree = RTree::bulk_load(2, base.to_vec());
        tree.extend(delta.to_vec());
        assert_eq!(tree.len(), pts.len());
        let q = v(&[3.3, 0.8]);
        let mut expected: Vec<f64> = pts.iter().map(|(p, _)| p.distance(&q)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = tree.nearest_iter(&q).map(|nn| nn.distance).collect();
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_returns_closest_first() {
        let tree = RTree::bulk_load(2, grid_points(10));
        let nn = tree.knn(&v(&[0.0, 0.0]), 3);
        assert_eq!(nn.len(), 3);
        assert_eq!(nn[0].distance, 0.0);
        assert!((nn[1].distance - 1.0).abs() < 1e-12);
        assert!((nn[2].distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn within_radius_query() {
        let tree = RTree::bulk_load(2, grid_points(10));
        let hits = tree.within_radius(&v(&[0.0, 0.0]), 1.5);
        // (0,0), (1,0), (0,1), (1,1) are within 1.5
        assert_eq!(hits.len(), 4);
        let empty = tree.within_radius(&v(&[100.0, 100.0]), 1.0);
        assert!(empty.is_empty());
    }

    #[test]
    fn payloads_are_preserved() {
        let tree = RTree::bulk_load(2, vec![(v(&[1.0, 1.0]), "a"), (v(&[5.0, 5.0]), "b")]);
        let nn = tree.knn(&v(&[0.0, 0.0]), 1);
        assert_eq!(*nn[0].data, "a");
        let nn = tree.knn(&v(&[6.0, 6.0]), 1);
        assert_eq!(*nn[0].data, "b");
        // The pool keeps insertion order across bulk load and inserts.
        let mut tree = tree;
        tree.insert(v(&[0.0, 3.0]), "c");
        assert!(tree.payloads().eq(&["a", "b", "c"]));
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut tree = RTree::new(1);
        for i in 0..20 {
            tree.insert(v(&[1.0]), i);
        }
        assert_eq!(tree.len(), 20);
        assert_eq!(tree.nearest_iter(&v(&[0.0])).count(), 20);
    }

    #[test]
    fn high_dimensional_points() {
        let mut items = Vec::new();
        for i in 0..200 {
            let p: Vec<f64> = (0..16)
                .map(|j| ((i * 31 + j * 17) % 97) as f64 / 97.0)
                .collect();
            items.push((Vector::from(p), i));
        }
        let tree = RTree::bulk_load(16, items.clone());
        let q = Vector::filled(16, 0.5);
        let mut expected: Vec<f64> = items.iter().map(|(p, _)| p.distance(&q)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<f64> = tree
            .nearest_iter(&q)
            .take(50)
            .map(|nn| nn.distance)
            .collect();
        for (g, e) in got.iter().zip(expected.iter().take(50)) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn config_validation() {
        let cfg = RTreeConfig::new(8, 3);
        assert_eq!(cfg.max_entries, 8);
        let tree = RTree::<u8>::with_config(3, cfg);
        assert_eq!(tree.dim(), 3);
    }

    #[test]
    #[should_panic]
    fn invalid_config_panics() {
        let _ = RTreeConfig::new(4, 3);
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        let mut tree = RTree::new(2);
        tree.insert(v(&[1.0]), 0);
    }

    #[test]
    fn iter_visits_everything() {
        let tree = RTree::bulk_load(2, grid_points(6));
        let mut payloads: Vec<usize> = tree.iter().map(|(_, &d)| d).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..36).collect::<Vec<_>>());
    }

    #[test]
    fn node_ids_expose_kind_and_slabs_stay_contiguous() {
        let tree = RTree::bulk_load(2, grid_points(12));
        let root = tree.root().unwrap();
        assert!(!tree.is_leaf(root), "144 points cannot fit one leaf");
        // Walk the whole tree through the packed-id API and count entries.
        let mut stack = vec![root];
        let mut seen = 0;
        while let Some(node) = stack.pop() {
            if tree.is_leaf(node) {
                let count = tree.node_entry_count(node);
                assert!(count > 0);
                for idx in 0..count {
                    let (point, _) = tree.node_entry(node, idx);
                    assert_eq!(point.len(), 2);
                    let q = v(&[0.0, 0.0]);
                    let direct = tree.entry_distance(node, idx, &q);
                    let manual = (point[0] * point[0] + point[1] * point[1]).sqrt();
                    assert!((direct - manual).abs() < 1e-12);
                }
                seen += count;
            } else {
                assert_eq!(tree.node_entry_count(node), 0);
                assert!(!tree.node_children(node).is_empty());
                stack.extend_from_slice(tree.node_children(node));
            }
        }
        assert_eq!(seen, tree.len());
    }

    #[test]
    fn mindist_through_packed_ids_lower_bounds_entry_distances() {
        let tree = RTree::bulk_load(2, grid_points(9));
        let q = v(&[4.2, -1.3]);
        let mut stack = vec![tree.root().unwrap()];
        while let Some(node) = stack.pop() {
            let mindist = tree.node_min_distance(node, &q);
            if tree.is_leaf(node) {
                for idx in 0..tree.node_entry_count(node) {
                    assert!(tree.entry_distance(node, idx, &q) >= mindist - 1e-12);
                }
            } else {
                for &child in tree.node_children(node) {
                    assert!(tree.node_min_distance(child, &q) >= mindist - 1e-12);
                    stack.push(child);
                }
            }
        }
    }
}
