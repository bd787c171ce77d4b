//! An arena-based R-tree over `d`-dimensional points.
//!
//! Design notes:
//!
//! * Node state lives in flat struct-of-arrays slabs addressed by packed
//!   [`NodeId`]s (kind bit + recycling generation + slot index, see
//!   [`crate::arena`]). A leaf's points are one contiguous `f64` run and an
//!   internal node's children are one contiguous [`NodeId`] run, so the hot
//!   traversal loops (mindist against a box, distance against a leaf's
//!   points) stream over dense lanes instead of chasing one heap `Vec` per
//!   node. Payloads are stored once in an append-only pool and referenced by
//!   index, so splits move `dim` floats and a `u32` — never the payload.
//! * Insertion uses the classic Guttman algorithm with quadratic split.
//! * Bulk loading uses a top-down tiling scheme in the spirit of
//!   Sort-Tile-Recursive / OMT: items are recursively sorted along the widest
//!   dimension and partitioned so that every node respects the fanout bound.
//! * The incremental nearest-neighbour traversal is the Hjaltason–Samet
//!   best-first algorithm driven by a min-heap keyed on `mindist`, which is
//!   exactly what the paper's *distance-based access* needs (the related-work
//!   section credits the same incremental-distance-join line of work).

use crate::arena::{with_room, SlotArena};
pub use crate::arena::{ArenaError, NodeId};
use prj_geometry::Vector;
use std::cmp::Ordering;

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

/// An R-tree over points in `R^d` carrying payloads of type `T`.
///
/// Every node kind gets its own slot arena plus fixed-stride slabs (one slot
/// spans `max_entries + 1` entries so an overflowing node never reallocates
/// before its split): leaves own a point-coordinate lane and a payload-index
/// lane, internal nodes own a child-id lane, and both own a bounding-box lane
/// (`2 * dim` floats, lower corner then upper corner).
#[derive(Debug, Clone)]
pub struct RTree<T> {
    config: RTreeConfig,
    dim: usize,
    /// Entries per slab slot: `max_entries + 1`.
    stride: usize,
    root: Option<NodeId>,
    len: usize,
    leaves: SlotArena,
    /// Entry count per leaf slot.
    leaf_len: Vec<u32>,
    /// Leaf bounding boxes, `2 * dim` per slot.
    leaf_bounds: Vec<f64>,
    /// Leaf point coordinates, `dim * stride` per slot.
    leaf_points: Vec<f64>,
    /// Leaf payload-pool indexes, `stride` per slot.
    leaf_payload: Vec<u32>,
    internals: SlotArena,
    /// Child count per internal slot.
    int_len: Vec<u32>,
    /// Internal bounding boxes, `2 * dim` per slot.
    int_bounds: Vec<f64>,
    /// Child ids, `stride` per slot.
    int_children: Vec<NodeId>,
    /// Append-only payload pool; leaf entries reference it by index.
    data: Vec<T>,
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
        RTree {
            config,
            dim,
            stride: config.max_entries + 1,
            root: None,
            len: 0,
            leaves: SlotArena::new(true),
            leaf_len: Vec::new(),
            leaf_bounds: Vec::new(),
            leaf_points: Vec::new(),
            leaf_payload: Vec::new(),
            internals: SlotArena::new(false),
            int_len: Vec::new(),
            int_bounds: Vec::new(),
            int_children: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Bulk-loads a tree from a set of `(point, payload)` pairs using
    /// top-down tiling. Much faster and better packed than repeated insertion.
    ///
    /// # Panics
    /// Panics if any point has a dimension different from `dim`.
    pub fn bulk_load(dim: usize, items: Vec<(Vector, T)>) -> Self {
        Self::bulk_load_with_config(dim, RTreeConfig::default(), items)
    }

    /// [`RTree::bulk_load`] with an explicit configuration.
    pub fn bulk_load_with_config(dim: usize, config: RTreeConfig, items: Vec<(Vector, T)>) -> Self {
        let mut tree = Self::with_config(dim, config);
        if items.is_empty() {
            return tree;
        }
        for (p, _) in &items {
            assert_eq!(p.dim(), dim, "point dimension mismatch in bulk load");
        }
        tree.len = items.len();
        tree.data.reserve(items.len());
        let mut entries: Vec<(Vector, u32)> = items
            .into_iter()
            .map(|(point, data)| {
                let payload = tree.data.len() as u32;
                tree.data.push(data);
                (point, payload)
            })
            .collect();
        let root = tree.bulk_build(&mut entries);
        tree.root = Some(root);
        tree
    }

    fn bulk_build(&mut self, entries: &mut [(Vector, u32)]) -> NodeId {
        let m = self.config.max_entries;
        if entries.len() <= m {
            let leaf = self.alloc_leaf();
            for (point, payload) in entries.iter() {
                self.push_leaf_entry(leaf, point.as_slice(), *payload);
            }
            return leaf;
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
        let node = self.alloc_internal();
        for child in children {
            self.push_child(node, child);
        }
        node
    }

    /// Allocates (or recycles) a leaf slot with reset length and bounds.
    fn alloc_leaf(&mut self) -> NodeId {
        let (id, fresh) = self.leaves.alloc().expect("R-tree leaf arena exhausted");
        if fresh {
            self.leaf_len.push(0);
            self.leaf_bounds.extend(
                std::iter::repeat_n(f64::INFINITY, self.dim)
                    .chain(std::iter::repeat_n(f64::NEG_INFINITY, self.dim)),
            );
            self.leaf_points
                .extend(std::iter::repeat_n(0.0, self.dim * self.stride));
            self.leaf_payload
                .extend(std::iter::repeat_n(0, self.stride));
        } else {
            let slot = id.index();
            self.leaf_len[slot] = 0;
            reset_bounds(
                &mut self.leaf_bounds[slot * 2 * self.dim..(slot + 1) * 2 * self.dim],
                self.dim,
            );
        }
        id
    }

    /// Allocates (or recycles) an internal slot with reset length and bounds.
    fn alloc_internal(&mut self) -> NodeId {
        let (id, fresh) = self
            .internals
            .alloc()
            .expect("R-tree internal arena exhausted");
        if fresh {
            self.int_len.push(0);
            self.int_bounds.extend(
                std::iter::repeat_n(f64::INFINITY, self.dim)
                    .chain(std::iter::repeat_n(f64::NEG_INFINITY, self.dim)),
            );
            self.int_children
                .extend(std::iter::repeat_n(NodeId::DANGLING, self.stride));
        } else {
            let slot = id.index();
            self.int_len[slot] = 0;
            reset_bounds(
                &mut self.int_bounds[slot * 2 * self.dim..(slot + 1) * 2 * self.dim],
                self.dim,
            );
        }
        id
    }

    /// Appends an entry to a leaf's lanes, expanding its bounds.
    fn push_leaf_entry(&mut self, leaf: NodeId, point: &[f64], payload: u32) {
        debug_assert!(self.leaves.is_live(leaf));
        let slot = leaf.index();
        let len = self.leaf_len[slot] as usize;
        debug_assert!(len < self.stride, "leaf slab overflow before split");
        let base = (slot * self.stride + len) * self.dim;
        self.leaf_points[base..base + self.dim].copy_from_slice(point);
        self.leaf_payload[slot * self.stride + len] = payload;
        self.leaf_len[slot] = (len + 1) as u32;
        let b = slot * 2 * self.dim;
        expand_bounds_to_point(&mut self.leaf_bounds[b..b + 2 * self.dim], self.dim, point);
    }

    /// Appends a child to an internal node's lane, expanding its bounds.
    fn push_child(&mut self, node: NodeId, child: NodeId) {
        debug_assert!(self.internals.is_live(node));
        let slot = node.index();
        let len = self.int_len[slot] as usize;
        debug_assert!(len < self.stride, "internal slab overflow before split");
        self.int_children[slot * self.stride + len] = child;
        self.int_len[slot] = (len + 1) as u32;
        let child_bounds = self.node_bounds(child).to_vec();
        let b = slot * 2 * self.dim;
        expand_bounds_to_box(
            &mut self.int_bounds[b..b + 2 * self.dim],
            self.dim,
            &child_bounds,
        );
    }

    /// The bounding-box lane of a node (lower corner then upper corner).
    fn node_bounds(&self, node: NodeId) -> &[f64] {
        let b = node.index() * 2 * self.dim;
        if node.is_leaf() {
            &self.leaf_bounds[b..b + 2 * self.dim]
        } else {
            &self.int_bounds[b..b + 2 * self.dim]
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
    pub fn payloads(&self) -> &[T] {
        &self.data
    }

    /// A copy of this tree with room for `extra` more [`RTree::insert`]s,
    /// so inserting them does not reallocate — and so re-copy — the lanes
    /// just copied. Each insert adds one payload and allocates at most one
    /// leaf; internal nodes get the same room, which covers every insert
    /// but a rare cascade of splits.
    pub fn clone_with_room(&self, extra: usize) -> Self
    where
        T: Clone,
    {
        let (dim, stride) = (self.dim, self.stride);
        RTree {
            config: self.config,
            dim,
            stride,
            root: self.root,
            len: self.len,
            leaves: self.leaves.clone_with_room(extra),
            leaf_len: with_room(&self.leaf_len, extra),
            leaf_bounds: with_room(&self.leaf_bounds, extra * 2 * dim),
            leaf_points: with_room(&self.leaf_points, extra * dim * stride),
            leaf_payload: with_room(&self.leaf_payload, extra * stride),
            internals: self.internals.clone_with_room(extra),
            int_len: with_room(&self.int_len, extra),
            int_bounds: with_room(&self.int_bounds, extra * 2 * dim),
            int_children: with_room(&self.int_children, extra * stride),
            data: with_room(&self.data, extra),
        }
    }

    /// Inserts a point with its payload (Guttman insertion, quadratic split).
    ///
    /// # Panics
    /// Panics if the point's dimension differs from the tree's.
    pub fn insert(&mut self, point: Vector, data: T) {
        assert_eq!(point.dim(), self.dim, "point dimension mismatch");
        self.len += 1;
        let payload = self.data.len() as u32;
        self.data.push(data);
        match self.root {
            None => {
                let leaf = self.alloc_leaf();
                self.push_leaf_entry(leaf, point.as_slice(), payload);
                self.root = Some(leaf);
            }
            Some(root) => {
                if let Some(sibling) = self.insert_rec(root, point.as_slice(), payload) {
                    // Root split: grow the tree by one level.
                    let new_root = self.alloc_internal();
                    self.push_child(new_root, root);
                    self.push_child(new_root, sibling);
                    self.root = Some(new_root);
                }
            }
        }
    }

    /// Inserts every `(point, payload)` item in turn — the compaction fold
    /// primitive: cloning a shared base tree and extending it with a shard's
    /// delta costs O(delta · log n) instead of a full O(n) bulk re-load.
    ///
    /// # Panics
    /// Panics if any point's dimension differs from the tree's.
    pub fn extend(&mut self, items: impl IntoIterator<Item = (Vector, T)>) {
        for (point, data) in items {
            self.insert(point, data);
        }
    }

    /// Recursive insertion; returns the id of a new sibling when the node split.
    fn insert_rec(&mut self, node: NodeId, point: &[f64], payload: u32) -> Option<NodeId> {
        if node.is_leaf() {
            self.push_leaf_entry(node, point, payload);
            if (self.leaf_len[node.index()] as usize) <= self.config.max_entries {
                return None;
            }
            return Some(self.split_leaf(node));
        }
        // Choose the child needing the least enlargement (ties: least volume).
        let slot = node.index();
        let children = &self.int_children[slot * self.stride..][..self.int_len[slot] as usize];
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
        if let Some(sibling) = split {
            let slot = node.index();
            let len = self.int_len[slot] as usize;
            self.int_children[slot * self.stride + len] = sibling;
            self.int_len[slot] = (len + 1) as u32;
        }
        self.recompute_bounds(node);
        if self.int_len[node.index()] as usize > self.config.max_entries {
            Some(self.split_internal(node))
        } else {
            None
        }
    }

    /// Recomputes a node's bounds from its entries or children.
    fn recompute_bounds(&mut self, node: NodeId) {
        let slot = node.index();
        let dim = self.dim;
        if node.is_leaf() {
            let len = self.leaf_len[slot] as usize;
            let (bounds_slab, points) = (&mut self.leaf_bounds, &self.leaf_points);
            let bounds = &mut bounds_slab[slot * 2 * dim..(slot + 1) * 2 * dim];
            reset_bounds(bounds, dim);
            for e in 0..len {
                let base = (slot * self.stride + e) * dim;
                expand_bounds_to_point(bounds, dim, &points[base..base + dim]);
            }
        } else {
            let len = self.int_len[slot] as usize;
            let mut acc = vec![f64::INFINITY; dim];
            acc.extend(std::iter::repeat_n(f64::NEG_INFINITY, dim));
            for e in 0..len {
                let child = self.int_children[slot * self.stride + e];
                expand_bounds_to_box(&mut acc, dim, self.node_bounds(child));
            }
            self.int_bounds[slot * 2 * dim..(slot + 1) * 2 * dim].copy_from_slice(&acc);
        }
    }

    /// Quadratic split of an overflowing leaf; returns the new sibling's id.
    fn split_leaf(&mut self, node: NodeId) -> NodeId {
        let dim = self.dim;
        let slot = node.index();
        let n = self.leaf_len[slot] as usize;
        // Degenerate per-entry boxes (a point is its own box).
        let mut boxes = Vec::with_capacity(n * 2 * dim);
        for e in 0..n {
            let base = (slot * self.stride + e) * dim;
            boxes.extend_from_slice(&self.leaf_points[base..base + dim]);
            boxes.extend_from_slice(&self.leaf_points[base..base + dim]);
        }
        let (group_a, group_b) = quadratic_partition(&boxes, dim, self.config.min_entries);
        // Gather both groups out of the slab before rewriting it in place.
        let mut scratch_points = Vec::with_capacity(n * dim);
        let mut scratch_payload = Vec::with_capacity(n);
        for &e in group_a.iter().chain(group_b.iter()) {
            let base = (slot * self.stride + e) * dim;
            scratch_points.extend_from_slice(&self.leaf_points[base..base + dim]);
            scratch_payload.push(self.leaf_payload[slot * self.stride + e]);
        }
        let sibling = self.alloc_leaf();
        self.leaf_len[slot] = 0;
        reset_bounds(
            &mut self.leaf_bounds[slot * 2 * dim..(slot + 1) * 2 * dim],
            dim,
        );
        for (i, _) in group_a.iter().enumerate() {
            let point = scratch_points[i * dim..(i + 1) * dim].to_vec();
            self.push_leaf_entry(node, &point, scratch_payload[i]);
        }
        for i in group_a.len()..n {
            let point = scratch_points[i * dim..(i + 1) * dim].to_vec();
            self.push_leaf_entry(sibling, &point, scratch_payload[i]);
        }
        sibling
    }

    /// Quadratic split of an overflowing internal node; returns the sibling id.
    fn split_internal(&mut self, node: NodeId) -> NodeId {
        let dim = self.dim;
        let slot = node.index();
        let n = self.int_len[slot] as usize;
        let mut boxes = Vec::with_capacity(n * 2 * dim);
        let children: Vec<NodeId> = self.int_children[slot * self.stride..][..n].to_vec();
        for &c in &children {
            boxes.extend_from_slice(self.node_bounds(c));
        }
        let (group_a, group_b) = quadratic_partition(&boxes, dim, self.config.min_entries);
        let sibling = self.alloc_internal();
        self.int_len[slot] = 0;
        reset_bounds(
            &mut self.int_bounds[slot * 2 * dim..(slot + 1) * 2 * dim],
            dim,
        );
        for &e in &group_a {
            self.push_child(node, children[e]);
        }
        for &e in &group_b {
            self.push_child(sibling, children[e]);
        }
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
        debug_assert!(self.internals.is_live(node));
        let slot = node.index();
        &self.int_children[slot * self.stride..][..self.int_len[slot] as usize]
    }

    /// Number of point entries stored in a leaf (0 for internal nodes).
    pub fn node_entry_count(&self, node: NodeId) -> usize {
        if node.is_leaf() {
            self.leaf_len[node.index()] as usize
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
        debug_assert!(self.leaves.is_live(node));
        let slot = node.index();
        assert!(idx < self.leaf_len[slot] as usize, "entry out of range");
        let base = (slot * self.stride + idx) * self.dim;
        let point = &self.leaf_points[base..base + self.dim];
        let payload = self.leaf_payload[slot * self.stride + idx] as usize;
        (point, &self.data[payload])
    }

    /// Euclidean distance from `query` to the `idx`-th entry of a leaf,
    /// streamed straight off the coordinate lane.
    pub fn entry_distance(&self, node: NodeId, idx: usize, query: &Vector) -> f64 {
        debug_assert!(node.is_leaf() && self.leaves.is_live(node));
        let base = (node.index() * self.stride + idx) * self.dim;
        point_distance_squared(&self.leaf_points[base..base + self.dim], query.as_slice()).sqrt()
    }

    // ------------------------------ queries ---------------------------------

    /// Iterates over all `(point, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], &T)> + '_ {
        self.leaves.live_slots().flat_map(move |slot| {
            (0..self.leaf_len[slot] as usize).map(move |e| {
                let base = (slot * self.stride + e) * self.dim;
                let payload = self.leaf_payload[slot * self.stride + e] as usize;
                (
                    &self.leaf_points[base..base + self.dim],
                    &self.data[payload],
                )
            })
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

    #[test]
    fn clone_with_room_takes_its_inserts_in_place_and_matches_a_clone() {
        let base = RTree::bulk_load(2, grid_points(20));
        let extra: Vec<(Vector, usize)> = (0..6)
            .map(|i| (v(&[i as f64 * 3.7, 19.0 - i as f64 * 2.9]), 1000 + i))
            .collect();
        let mut plain = base.clone();
        let mut roomy = base.clone_with_room(extra.len());
        let lanes = |t: &RTree<usize>| {
            (
                t.data.as_ptr(),
                t.leaf_points.as_ptr(),
                t.leaf_payload.as_ptr(),
                t.leaf_bounds.as_ptr(),
            )
        };
        let before = lanes(&roomy);
        plain.extend(extra.clone());
        roomy.extend(extra);
        assert_eq!(lanes(&roomy), before, "an insert re-grew a copied lane");
        assert_eq!(roomy.payloads(), plain.payloads());
        let q = v(&[4.5, 11.0]);
        let order =
            |t: &RTree<usize>| -> Vec<usize> { t.nearest_iter(&q).map(|nn| *nn.data).collect() };
        assert_eq!(order(&roomy), order(&plain));
        assert_eq!(roomy.len(), 406);
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
        assert_eq!(tree.payloads(), &["a", "b", "c"]);
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
