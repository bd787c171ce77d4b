//! Packed node identifiers and slot allocation for the R-tree arenas.
//!
//! The tree keeps two kinds of nodes (leaves and internals) in flat,
//! struct-of-arrays slabs. A [`NodeId`] addresses one slot of one of those
//! slabs and packs three things into 32 bits:
//!
//! ```text
//!   bit 31      bits 24..31        bits 0..24
//!   [leaf?]     [generation]       [slot index]
//! ```
//!
//! * the **kind bit** selects the leaf or internal arena, so traversal never
//!   branches on a tag stored in the node itself;
//! * the **generation** is bumped every time a slot is recycled, so a stale
//!   id kept across a free/realloc can never alias the new occupant;
//! * the **index** addresses the slot. 2²⁴ slots per kind bounds a single
//!   tree at ~16.7M nodes — with the default fanout that is >100M points,
//!   far beyond a per-shard index; overflow is a typed [`ArenaError`], not
//!   a wrap-around.

use std::fmt;

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

/// Identifier of a node in the tree arena: kind bit + generation + slot index
/// packed into 32 bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Number of bits used for the slot index.
    pub const INDEX_BITS: u32 = 24;
    /// Largest representable slot index.
    pub const MAX_INDEX: usize = (1 << Self::INDEX_BITS) - 1;
    /// Number of distinct generations before the counter wraps.
    pub const GENERATIONS: u16 = 1 << 7;

    /// Packs `(index, generation, is_leaf)` into an id.
    ///
    /// The generation is taken modulo [`NodeId::GENERATIONS`]; the index is
    /// checked and overflow answers a typed [`ArenaError`].
    pub fn pack(index: usize, generation: u8, is_leaf: bool) -> Result<NodeId, ArenaError> {
        if index > Self::MAX_INDEX {
            return Err(ArenaError::CapacityExceeded {
                requested: index,
                max: Self::MAX_INDEX,
            });
        }
        let generation = (generation as u16 % Self::GENERATIONS) as u32;
        let mut bits = index as u32 | (generation << Self::INDEX_BITS);
        if is_leaf {
            bits |= 1 << 31;
        }
        Ok(NodeId(bits))
    }

    /// The slot index within the leaf or internal arena.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & Self::MAX_INDEX as u32) as usize
    }

    /// The recycling generation of the slot this id was minted for.
    #[inline]
    pub fn generation(self) -> u8 {
        ((self.0 >> Self::INDEX_BITS) & (Self::GENERATIONS as u32 - 1)) as u8
    }

    /// `true` when the id addresses the leaf arena.
    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 >> 31 == 1
    }

    /// The raw packed representation (stable within one process run).
    #[inline]
    pub fn to_bits(self) -> u32 {
        self.0
    }

    /// Placeholder id used to fill unused slab slots; never live.
    pub(crate) const DANGLING: NodeId = NodeId(u32::MAX);
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}@g{}",
            if self.is_leaf() { "leaf" } else { "int" },
            self.index(),
            self.generation()
        )
    }
}

/// `lane` copied into an allocation with room for `room` more elements, so
/// growing the copy by that much does not reallocate (and re-copy) it.
pub(crate) fn with_room<E: Clone>(lane: &[E], room: usize) -> Vec<E> {
    let mut copy = Vec::with_capacity(lane.len() + room);
    copy.extend_from_slice(lane);
    copy
}

/// Slot allocator for one node kind: a free list plus per-slot generations
/// and liveness flags. The actual node payload lives in the tree's flat
/// slabs, indexed by slot.
#[derive(Debug, Clone)]
pub(crate) struct SlotArena {
    is_leaf: bool,
    generations: Vec<u8>,
    live: Vec<bool>,
    free: Vec<u32>,
}

impl SlotArena {
    pub(crate) fn new(is_leaf: bool) -> Self {
        SlotArena {
            is_leaf,
            generations: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A copy of this arena with room for `slots` more fresh slots.
    pub(crate) fn clone_with_room(&self, slots: usize) -> Self {
        SlotArena {
            is_leaf: self.is_leaf,
            generations: with_room(&self.generations, slots),
            live: with_room(&self.live, slots),
            free: self.free.clone(),
        }
    }

    /// Allocates a slot. `Ok((id, fresh))` where `fresh` tells the caller to
    /// extend its slabs by one slot-stride; recycled slots reuse existing
    /// slab space under a bumped generation.
    pub(crate) fn alloc(&mut self) -> Result<(NodeId, bool), ArenaError> {
        if let Some(slot) = self.free.pop() {
            let slot = slot as usize;
            let id = NodeId::pack(slot, self.generations[slot], self.is_leaf)?;
            self.live[slot] = true;
            Ok((id, false))
        } else {
            let slot = self.generations.len();
            let id = NodeId::pack(slot, 0, self.is_leaf)?;
            self.generations.push(0);
            self.live.push(true);
            Ok((id, true))
        }
    }

    /// Returns a live slot to the free list. Stale ids for the slot stop
    /// validating immediately (the generation is bumped on free, and the
    /// next occupant is minted under the new generation). Tree operations
    /// never free nodes today (splits reuse slots in place); this is the
    /// hook for node-dropping structural updates such as delta compaction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn free(&mut self, id: NodeId) {
        debug_assert!(self.is_live(id), "freeing a dead or foreign id: {id:?}");
        let slot = id.index();
        self.generations[slot] = self.generations[slot].wrapping_add(1) % NodeId::GENERATIONS as u8;
        self.live[slot] = false;
        self.free.push(slot as u32);
    }

    /// `true` when `id` addresses this arena's kind and its generation
    /// matches the slot's current one (i.e. the id has not been recycled).
    pub(crate) fn is_live(&self, id: NodeId) -> bool {
        id.is_leaf() == self.is_leaf
            && id.index() < self.generations.len()
            && self.live[id.index()]
            && self.generations[id.index()] == id.generation()
    }

    /// Iterates the currently live slot indexes in increasing order.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.live
            .iter()
            .enumerate()
            .filter_map(|(slot, &live)| live.then_some(slot))
    }

    /// Builds a `SlotArena` that already has `slots` slots handed out, so
    /// capacity-overflow paths can be exercised without allocating slab
    /// memory for 2²⁴ real nodes.
    #[cfg(test)]
    pub(crate) fn with_preallocated_slots(is_leaf: bool, slots: usize) -> Self {
        SlotArena {
            is_leaf,
            generations: vec![0; slots],
            live: vec![true; slots],
            free: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_rejects_index_overflow_with_typed_error() {
        let err = NodeId::pack(NodeId::MAX_INDEX + 1, 0, true).unwrap_err();
        assert_eq!(
            err,
            ArenaError::CapacityExceeded {
                requested: NodeId::MAX_INDEX + 1,
                max: NodeId::MAX_INDEX,
            }
        );
        assert!(err.to_string().contains("capacity exceeded"));
        assert!(NodeId::pack(NodeId::MAX_INDEX, 0, true).is_ok());
    }

    #[test]
    fn arena_alloc_propagates_capacity_error() {
        let mut full = SlotArena::with_preallocated_slots(false, NodeId::MAX_INDEX + 1);
        let err = full.alloc().unwrap_err();
        assert!(matches!(err, ArenaError::CapacityExceeded { .. }));
        // A recycled slot still allocates fine even when the arena is at
        // capacity: recycling reuses indexes instead of growing.
        let last = NodeId::pack(NodeId::MAX_INDEX, 0, false).unwrap();
        full.free(last);
        let (re, fresh) = full.alloc().unwrap();
        assert!(!fresh);
        assert_eq!(re.index(), NodeId::MAX_INDEX);
        assert_ne!(re, last, "recycled id must not alias the freed one");
    }

    #[test]
    fn dangling_is_never_live() {
        let mut arena = SlotArena::new(true);
        let (id, _) = arena.alloc().unwrap();
        assert!(arena.is_live(id));
        assert!(!arena.is_live(NodeId::DANGLING));
    }

    proptest! {
        /// pack ∘ unpack is the identity on every field.
        #[test]
        fn node_id_round_trips(index in 0usize..(NodeId::MAX_INDEX + 1), generation in 0u8..128, leaf_bit in 0u8..2) {
            let is_leaf = leaf_bit == 1;
            let id = NodeId::pack(index, generation, is_leaf).unwrap();
            prop_assert_eq!(id.index(), index);
            prop_assert_eq!(id.generation(), generation);
            prop_assert_eq!(id.is_leaf(), is_leaf);
            // The packed form is canonical: re-packing yields identical bits.
            prop_assert_eq!(NodeId::pack(index, generation, is_leaf).unwrap().to_bits(), id.to_bits());
        }

        /// Random alloc/free interleavings: live ids are unique, freed ids
        /// stop validating, and a recycled slot's new id never equals any id
        /// previously minted for it (no aliasing through recycling).
        #[test]
        fn no_aliasing_after_recycling(seed in 0u64..u64::MAX) {
            let mut rng = seed;
            let mut step = move || {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                rng >> 33
            };
            let mut arena = SlotArena::new(true);
            let mut live: Vec<NodeId> = Vec::new();
            let mut retired: Vec<NodeId> = Vec::new();
            for _ in 0..200 {
                if live.is_empty() || step() % 2 == 0 {
                    let (id, _) = arena.alloc().unwrap();
                    prop_assert!(arena.is_live(id));
                    prop_assert!(!live.contains(&id), "duplicate live id {:?}", id);
                    prop_assert!(!retired.contains(&id), "recycled id {:?} aliases a retired one", id);
                    live.push(id);
                } else {
                    let victim = live.swap_remove((step() % live.len() as u64) as usize);
                    arena.free(victim);
                    prop_assert!(!arena.is_live(victim), "freed id {:?} still live", victim);
                    retired.push(victim);
                }
                for id in &live {
                    prop_assert!(arena.is_live(*id));
                }
                for id in &retired {
                    prop_assert!(!arena.is_live(*id), "retired id {:?} came back to life", id);
                }
            }
            prop_assert_eq!(arena.live_slots().count(), live.len());
        }
    }
}
