//! Heap allocations on the per-tuple paths, counted by this test binary's
//! own global allocator.
//!
//! A tuple's point of up to four dimensions is stored inline, so reading a
//! tuple, cloning it or re-merging a score-lane chunk around it allocates
//! nothing per tuple. The counts are per thread, so the harness's other
//! tests, running in parallel, do not leak into them.
//!
//! Run with `cargo test --release -p prj-engine --test allocations`.

use prj_access::{
    merge_score_chunks, AccessKind, RTreeRelation, SortedAccess, Tuple, TupleId, VecRelation,
};
use prj_engine::Catalog;
use prj_geometry::Vector;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations (fresh or resized) each
/// thread makes.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialised
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the number of allocations it made on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

/// `n` two-dimensional tuples of relation 0, scattered by a fixed hash,
/// with scores in (0, 1).
fn tuples(n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let x = (h >> 40) as f64 / (1u64 << 24) as f64;
            let y = ((h >> 16) & 0xFF_FFFF) as f64 / (1u64 << 24) as f64;
            let score = 0.05 + 0.9 * ((h & 0xFFFF) as f64 / 65536.0);
            Tuple::new(TupleId::new(0, i), Vector::from([x, y]), score)
        })
        .collect()
}

/// Reads `relation` to its end; returns how many tuples it yielded.
fn drain(relation: &mut dyn SortedAccess) -> usize {
    std::iter::from_fn(|| relation.next_tuple()).count()
}

#[test]
fn reading_a_two_dimensional_tuple_allocates_nothing() {
    let n = 10_000;
    let query = Vector::from([0.5, 0.5]);

    let mut score_lane = VecRelation::score_sorted("s", tuples(n));
    let mut distance_lane = VecRelation::distance_sorted("d", &query, tuples(n));
    let chunks = merge_score_chunks(&[], tuples(n));
    let mut chunked = VecRelation::chunked("c", AccessKind::Score, chunks, 1.0);
    for lane in [&mut score_lane, &mut distance_lane, &mut chunked] {
        let (read, allocated) = allocations(|| drain(lane));
        assert_eq!((read, allocated), (n, 0), "{}", lane.name());
    }

    // The cursor's frontier heap grows a few times on the first walk and
    // keeps its capacity across a reset; no tuple allocates.
    let mut tree = RTreeRelation::from_tuples("t", query, tuples(n));
    let (read, first_walk) = allocations(|| drain(&mut tree));
    assert_eq!(read, n);
    assert!(first_walk <= 32, "{first_walk} allocations for {n} reads");
    tree.reset();
    assert_eq!(allocations(|| drain(&mut tree)), (n, 0));
}

#[test]
fn a_one_tuple_re_merge_allocates_the_same_whatever_the_chunk_length() {
    // One chunk of 16, 256 or 2047 tuples (a lane of up to 2048 stays one
    // chunk), and a 100k-tuple lane of 1024-tuple chunks. Measured at 5:
    // the one-tuple batch, its landing run, the re-merged chunk and its
    // `Arc`, and the new chunk list.
    let counts: Vec<u64> = [16, 256, 2047, 100_000]
        .into_iter()
        .map(|n| {
            let lane = merge_score_chunks(&[], tuples(n));
            let top = Tuple::new(TupleId::new(0, n), Vector::from([0.5, 0.5]), 2.0);
            let (merged, allocated) = allocations(|| merge_score_chunks(&lane, vec![top]));
            assert_eq!(merged[0].first().map(|t| t.id), Some(TupleId::new(0, n)));
            assert_eq!(merged.len(), lane.len());
            allocated
        })
        .collect();
    assert!(
        counts.iter().all(|&c| c == counts[0]) && counts[0] <= 8,
        "allocations per one-tuple re-merge, by chunk length: {counts:?}"
    );
}

/// Allocations one rebuild append of one tuple may make on a 100k-tuple
/// relation that has served no score-sorted read, so has no score lane to
/// re-merge. Measured at 61 to 109 over these 32 appends, the most when an
/// insert splits nodes: the R-tree's cloned chunk lists and the chunks its
/// insert writes, and the new shard and relation snapshots. Re-merging a
/// built lane adds about 4; a heap-allocated point per tuple made it over
/// 1000.
const ONE_TUPLE_APPEND_ALLOCATIONS: u64 = 128;

#[test]
fn a_one_tuple_append_on_a_large_relation_allocates_a_bounded_few() {
    let catalog = Catalog::new();
    let rows: Vec<(Vector, f64)> = tuples(100_000)
        .into_iter()
        .map(|t| (t.vector, t.score))
        .collect();
    let (id, _) = catalog.register_rows("r", rows).expect("register");
    let mut worst = 0;
    for i in 0..32 {
        let x = i as f64 / 32.0;
        let row = vec![(Vector::from([x, 1.0 - x]), 0.1 + 0.8 * x)];
        let (outcome, allocated) = allocations(|| catalog.append_rows(id, row));
        assert_eq!(outcome.expect("append").cardinality, 100_001 + i);
        worst = worst.max(allocated);
    }
    assert!(
        worst <= ONE_TUPLE_APPEND_ALLOCATIONS,
        "a one-tuple append allocated {worst} times"
    );
}
