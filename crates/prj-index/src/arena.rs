//! Packed node identifiers and the chunked copy-on-write lanes of the
//! R-tree arena.
//!
//! The tree keeps two kinds of nodes (leaves and internals) in
//! struct-of-arrays lanes. A [`NodeId`] addresses one slot of one kind and
//! packs two things into 32 bits:
//!
//! ```text
//!   bit 31      bits 0..31
//!   [leaf?]     [slot index]
//! ```
//!
//! * the **kind bit** selects the leaf or internal lanes, so traversal never
//!   branches on a tag stored in the node itself;
//! * the **index** addresses the slot. Nodes are never freed, so an index
//!   is never reused. 2³¹ slots per kind bounds a single tree far beyond a
//!   per-shard index; overflow is a typed [`ArenaError`], not a wrap-around.
//!
//! Every lane is a `Lane`: fixed-size `Arc`'d chunks of slots, so a slot
//! index addresses a (chunk, slot-in-chunk) pair ([`NodeId::chunk`]).
//! Cloning a lane bumps one reference count per chunk,
//! and a write goes through [`Arc::make_mut`], which copies only the chunk
//! it lands in when a clone still shares it. This is what makes a
//! copy-on-write publish of a tree cost the chunks an update touches rather
//! than the whole tree.

use std::fmt;
use std::sync::Arc;

/// Node slots per chunk of a node lane. A power of two, so a slot index
/// splits into (chunk, slot-in-chunk) with a shift and a mask.
pub(crate) const NODE_CHUNK: usize = 64;

/// Payloads per chunk of the payload pool.
pub(crate) const POOL_CHUNK: usize = 1024;

/// Typed errors from the packed node-id arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaError {
    /// The requested slot index does not fit in the packed id.
    CapacityExceeded {
        /// The slot index that was requested.
        requested: usize,
        /// The largest representable slot index.
        max: usize,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::CapacityExceeded { requested, max } => {
                write!(
                    f,
                    "node arena capacity exceeded: slot {requested} > max {max}"
                )
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// Identifier of a node in the tree arena: kind bit + slot index packed
/// into 32 bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Number of bits used for the slot index.
    pub const INDEX_BITS: u32 = 31;
    /// Largest representable slot index.
    pub const MAX_INDEX: usize = (1 << Self::INDEX_BITS) - 1;

    /// Packs `(index, is_leaf)` into an id; an index beyond
    /// [`NodeId::MAX_INDEX`] answers a typed [`ArenaError`].
    pub fn pack(index: usize, is_leaf: bool) -> Result<NodeId, ArenaError> {
        if index > Self::MAX_INDEX {
            return Err(ArenaError::CapacityExceeded {
                requested: index,
                max: Self::MAX_INDEX,
            });
        }
        Ok(NodeId(
            index as u32 | (u32::from(is_leaf) << Self::INDEX_BITS),
        ))
    }

    /// The slot index within the leaf or internal lanes.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & Self::MAX_INDEX as u32) as usize
    }

    /// The chunk of the node's lanes that holds this slot.
    #[inline]
    pub fn chunk(self) -> usize {
        self.index() / NODE_CHUNK
    }

    /// `true` when the id addresses the leaf lanes.
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 >> Self::INDEX_BITS == 1
    }

    /// The raw packed representation (stable within one process run).
    #[inline]
    pub fn to_bits(self) -> u32 {
        self.0
    }

    /// Placeholder id used to fill unused child slots; never read as a
    /// node.
    pub(crate) const DANGLING: NodeId = NodeId(u32::MAX);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}",
            if self.is_leaf() { "leaf" } else { "int" },
            self.index()
        )
    }
}

/// One lane of the arena: `width` elements per slot, stored in `Arc`'d
/// chunks of exactly `SLOTS` slots each (the tail chunk's unused slots hold
/// filler), so a read is one index into the chunk list and one into the
/// chunk. Slots are only ever appended, never removed.
#[derive(Debug, Clone)]
pub(crate) struct Lane<E, const SLOTS: usize> {
    width: usize,
    len: usize,
    chunks: Vec<Arc<[E]>>,
}

impl<E, const SLOTS: usize> Lane<E, SLOTS> {
    pub(crate) fn new(width: usize) -> Self {
        Lane {
            width,
            len: 0,
            chunks: Vec::new(),
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The `width` elements of `slot`.
    #[inline]
    pub(crate) fn get(&self, slot: usize) -> &[E] {
        let start = slot % SLOTS * self.width;
        &self.chunks[slot / SLOTS][start..start + self.width]
    }

    /// The chunks, in slot order.
    pub(crate) fn chunks(&self) -> &[Arc<[E]>] {
        &self.chunks
    }

    /// A copy that shares no chunk with `self`.
    #[cfg(test)]
    pub(crate) fn unshared(&self) -> Self
    where
        E: Clone,
    {
        Lane {
            width: self.width,
            len: self.len,
            chunks: self.chunks.iter().map(|c| Arc::from(c.to_vec())).collect(),
        }
    }

    /// Every element of every slot, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &E> + Clone + '_ {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .take(self.len * self.width)
    }
}

impl<E: Clone, const SLOTS: usize> Lane<E, SLOTS> {
    /// The `width` elements of `slot`, writable; copies the slot's chunk
    /// first if a clone of the lane still shares it.
    #[inline]
    pub(crate) fn get_mut(&mut self, slot: usize) -> &mut [E] {
        let start = slot % SLOTS * self.width;
        &mut Arc::make_mut(&mut self.chunks[slot / SLOTS])[start..start + self.width]
    }

    /// Appends one slot holding exactly `width` `values`; returns its index.
    pub(crate) fn push(&mut self, values: impl IntoIterator<Item = E>) -> usize {
        let mut values = values.into_iter();
        let slot = self.len;
        let first = values.next().expect("a slot holds at least one element");
        if slot.is_multiple_of(SLOTS) {
            // A fresh chunk, filled with copies of the first value.
            self.chunks
                .push(Arc::from(vec![first.clone(); SLOTS * self.width]));
        }
        self.len += 1;
        let cells = self.get_mut(slot);
        cells[0] = first;
        let written = 1 + cells[1..]
            .iter_mut()
            .zip(values)
            .map(|(c, v)| *c = v)
            .count();
        debug_assert_eq!(written, self.width, "a slot holds exactly `width` values");
        slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_rejects_index_overflow_with_typed_error() {
        let err = NodeId::pack(NodeId::MAX_INDEX + 1, true).unwrap_err();
        assert_eq!(
            err,
            ArenaError::CapacityExceeded {
                requested: NodeId::MAX_INDEX + 1,
                max: NodeId::MAX_INDEX,
            }
        );
        assert!(err.to_string().contains("capacity exceeded"));
        assert!(NodeId::pack(NodeId::MAX_INDEX, true).is_ok());
    }

    #[test]
    fn a_write_to_a_clone_copies_only_its_chunk() {
        let mut lane: Lane<u32, 4> = Lane::new(2);
        for i in 0..10 {
            lane.push([i, i + 100]);
        }
        assert_eq!(lane.chunks().len(), 3);
        let mut copy = lane.clone();
        copy.get_mut(5)[1] = 7;
        assert_eq!(lane.get(5), &[5, 105]);
        assert_eq!(copy.get(5), &[5, 7]);
        let shared: Vec<bool> = (0..3)
            .map(|c| Arc::ptr_eq(&lane.chunks()[c], &copy.chunks()[c]))
            .collect();
        assert_eq!(shared, [true, false, true]);
        copy.push([10, 110]);
        assert_eq!(lane.len(), 10);
        assert_eq!(copy.len(), 11);
        assert!(!Arc::ptr_eq(&lane.chunks()[2], &copy.chunks()[2]));
        assert_eq!(lane.iter().count(), 20);
        assert_eq!(copy.iter().nth(20), Some(&10));
        assert_eq!(copy.iter().count(), 22);
    }

    proptest! {
        /// pack ∘ unpack is the identity on every field.
        #[test]
        fn node_id_round_trips(index in 0usize..(NodeId::MAX_INDEX + 1), leaf_bit in 0u8..2) {
            let is_leaf = leaf_bit == 1;
            let id = NodeId::pack(index, is_leaf).unwrap();
            prop_assert_eq!(id.index(), index);
            prop_assert_eq!(id.chunk(), index / NODE_CHUNK);
            prop_assert_eq!(id.is_leaf(), is_leaf);
            // The packed form is canonical: re-packing yields identical bits.
            prop_assert_eq!(NodeId::pack(index, is_leaf).unwrap().to_bits(), id.to_bits());
        }
    }
}
