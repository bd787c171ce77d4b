//! The per-shard unit cache of the remote (cluster) path: a single-shard
//! epoch bump must re-execute only the touched unit — the whole-query entry
//! dies (its epoch-vector key changed), but the sibling shards' memoised
//! units are reused and only the mutated slice recomputes.
//!
//! In-process queries run one unit over merged views and never touch the
//! unit cache, so every engine here routes its per-shard units through an
//! [`InProcessBackend`]: the coordinator's partitioned path, answered by
//! `Engine::execute_unit` with no TCP.

use prj_access::{Tuple, TupleId};
use prj_core::{naive_rank_join, EuclideanLogScore, ProblemBuilder, ScoredCombination};
use prj_engine::{Engine, EngineBuilder, InProcessBackend, QuerySpec};
use prj_geometry::Vector;
use std::sync::Arc;

const SHARDS: usize = 4;

/// An engine over `shards` shards whose per-shard units go through the
/// remote backend path (the one that still has a unit cache).
fn partitioned_engine(threads: usize, shards: usize) -> Arc<Engine> {
    let engine = Arc::new(
        EngineBuilder::default()
            .threads(threads)
            .shards(shards)
            .build(),
    );
    engine.set_remote_backend(InProcessBackend::new(&engine));
    engine
}

/// A wide spread of tuples so several driving shards are populated.
fn spread(rel: usize, n: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
            let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
            Tuple::new(
                TupleId::new(rel, i),
                Vector::from([x, y]),
                (i % 9) as f64 / 10.0 + 0.1,
            )
        })
        .collect()
}

fn fingerprint(combos: &[ScoredCombination]) -> Vec<(Vec<TupleId>, u64)> {
    combos
        .iter()
        .map(|c| (c.ids(), c.score.to_bits()))
        .collect()
}

fn naive(relations: &[Vec<Tuple>], query: &Vector, k: usize) -> Vec<(Vec<TupleId>, u64)> {
    let mut builder = ProblemBuilder::new(query.clone(), EuclideanLogScore::default()).k(k);
    for tuples in relations {
        builder = builder.relation_from_tuples(tuples.clone());
    }
    fingerprint(&naive_rank_join(&mut builder.build().expect("naive")).combinations)
}

#[test]
fn single_shard_append_reexecutes_only_the_touched_unit() {
    let engine = partitioned_engine(2, SHARDS);
    // r0 is much larger than r1, so the cost model keeps r0 driving before
    // and after the append.
    let r0 = spread(0, 48);
    let r1 = spread(1, 4);
    let id0 = engine.register("r0", r0.clone());
    let id1 = engine.register("r1", r1.clone());
    let query = Vector::from([0.4, -0.3]);
    let k = 6;
    let spec = || QuerySpec::top_k(vec![id0, id1], query.clone(), k);

    let populated: usize = {
        let policy = engine.catalog().policy();
        r0.iter()
            .map(|t| policy.shard_of(&t.vector))
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    assert!(populated > 1, "test needs several populated driving shards");

    // Cold query: every populated driving unit misses the unit cache and
    // is inserted.
    let cold = engine.query(spec()).expect("cold query");
    assert_eq!(
        fingerprint(cold.combinations()),
        naive(&[r0.clone(), r1.clone()], &query, k)
    );
    let after_cold = engine.unit_cache_metrics();
    assert_eq!(after_cold.entries, populated);
    assert_eq!(after_cold.misses, populated as u64);
    assert_eq!(after_cold.hits, 0);

    // An identical query is a whole-query cache hit: the unit cache is not
    // even consulted.
    assert!(engine.query(spec()).expect("warm").from_cache);
    assert_eq!(engine.unit_cache_metrics().hits, 0);

    // Append one tuple to a single driving shard (a location already
    // populated, so the shard set is unchanged).
    let outcome = engine
        .append_rows(id0, vec![(r0[0].vector.clone(), 0.85)])
        .expect("append");
    assert_eq!(outcome.touched_shards.len(), 1, "one shard touched");
    let touched = outcome.touched_shards[0];
    // The eager purge removed exactly the touched unit.
    assert_eq!(engine.unit_cache_metrics().entries, populated - 1);

    // Re-query: the whole-query entry is unreachable (epoch vector moved),
    // but every *untouched* unit replays from the unit cache — only the
    // mutated shard's unit re-executes.
    let lanes_before: Vec<u64> = engine.stats().per_shard.iter().map(|l| l.units).collect();
    let fresh = engine.query(spec()).expect("post-append query");
    assert!(
        !fresh.from_cache,
        "the append invalidated the whole-query entry"
    );
    let updated_r0 = {
        let mut updated = r0.clone();
        updated.push(Tuple::new(
            TupleId::new(0, updated.len()),
            r0[0].vector.clone(),
            0.85,
        ));
        updated
    };
    assert_eq!(
        fingerprint(fresh.combinations()),
        naive(&[updated_r0, r1.clone()], &query, k),
        "partially-cached recombination must still equal the oracle"
    );
    let metrics = engine.unit_cache_metrics();
    assert_eq!(metrics.hits, populated as u64 - 1, "sibling units replayed");
    assert_eq!(
        metrics.misses,
        populated as u64 + 1,
        "only the touched unit missed"
    );
    // And the stats lanes confirm: exactly one unit actually ran.
    let lanes_after: Vec<u64> = engine.stats().per_shard.iter().map(|l| l.units).collect();
    let mut reran = Vec::new();
    for (shard, (before, after)) in lanes_before.iter().zip(lanes_after.iter()).enumerate() {
        if after > before {
            reran.push(shard);
        }
    }
    assert_eq!(reran, vec![touched], "only the touched shard re-executed");
    // Per-shard lanes still account exactly for the engine-wide total.
    let stats = engine.stats();
    assert_eq!(
        stats.per_shard.iter().map(|l| l.sum_depths).sum::<u64>(),
        stats.total_sum_depths
    );
}

#[test]
fn non_driving_mutation_invalidates_every_unit() {
    let engine = partitioned_engine(2, SHARDS);
    let r0 = spread(0, 48);
    let r1 = spread(1, 4);
    let id0 = engine.register("r0", r0);
    let id1 = engine.register("r1", r1);
    let spec = QuerySpec::top_k(vec![id0, id1], Vector::from([0.0, 0.0]), 4);
    engine.query(spec.clone()).expect("cold");
    let entries = engine.unit_cache_metrics().entries;
    assert!(entries > 1);
    // r1 is read *whole* by every unit: any append to it, wherever it
    // lands, makes all memoised units unreachable.
    engine
        .append_rows(id1, vec![(Vector::from([4.9, 4.9]), 0.5)])
        .expect("append");
    assert_eq!(engine.unit_cache_metrics().entries, 0);
    let fresh = engine.query(spec).expect("post-append");
    assert!(!fresh.from_cache);
    assert_eq!(
        engine.unit_cache_metrics().hits,
        0,
        "nothing stale was reused"
    );
}

#[test]
fn dropping_a_relation_purges_its_units() {
    let engine = partitioned_engine(1, SHARDS);
    let id0 = engine.register("r0", spread(0, 32));
    engine
        .query(QuerySpec::top_k(vec![id0], Vector::from([0.0, 0.0]), 3))
        .expect("query");
    assert!(engine.unit_cache_metrics().entries > 0);
    engine.drop_relation(id0).expect("drop");
    assert_eq!(engine.unit_cache_metrics().entries, 0);
}

/// Unit-cache hits are handed out as shared `Arc`s and recombined by
/// reference (`prj_core::merge_shared`): after a single-shard append, a
/// partitioned re-query blends memoised sibling units with the freshly
/// recomputed one, runs fewer units than the cold query did, and still
/// equals the naive oracle over the *new* data, at every shard count.
#[test]
fn cached_and_fresh_remote_units_blend_to_the_oracle() {
    for shards in [2, 4, 7] {
        let engine = partitioned_engine(2, shards);
        let mut r0 = spread(0, 28);
        let id0 = engine.register("r0", r0.clone());
        let query = Vector::from([0.2, -0.3]);
        let k = 5;
        let spec = || QuerySpec::top_k(vec![id0], query.clone(), k);

        let cold = engine.query(spec()).expect("cold query");
        let populated = cold.fresh_units;
        assert!(populated > 1, "S={shards}: needs several populated shards");
        assert_eq!(
            fingerprint(cold.combinations()),
            naive(std::slice::from_ref(&r0), &query, k)
        );

        let extra = Tuple::new(TupleId::new(0, r0.len()), Vector::from([0.25, -0.2]), 0.95);
        engine.append(id0, vec![extra.clone()]).expect("append");
        r0.push(extra);
        let warm = engine.query(spec()).expect("warm query");
        assert!(!warm.from_cache, "append must invalidate the result cache");
        assert!(
            warm.fresh_units < populated,
            "S={shards}: expected unit-cache hits, but all {populated} units re-ran"
        );
        assert_eq!(
            fingerprint(warm.combinations()),
            naive(std::slice::from_ref(&r0), &query, k),
            "S={shards}: cached+fresh blend diverged from the oracle"
        );
    }
}

/// A drop's outcome must report *every* shard as touched: unit-cache
/// invalidation and standing-query wakeups both key off that set, so an
/// under-report would leave stale memoised units (or un-notified
/// subscribers) behind. Asserted on the returned outcome and on the
/// observer-visible event, which must agree.
#[test]
fn drop_outcome_reports_every_shard_touched() {
    use prj_engine::{MutationEvent, MutationKind, MutationObserver};
    use std::sync::{Arc, Mutex};

    struct Capture(Mutex<Vec<MutationEvent>>);
    impl MutationObserver for Capture {
        fn mutation(&self, event: &MutationEvent) {
            self.0.lock().expect("capture lock").push(event.clone());
        }
    }

    let engine = EngineBuilder::default().threads(1).shards(SHARDS).build();
    let id0 = engine.register("r0", spread(0, 32));
    let capture = Arc::new(Capture(Mutex::new(Vec::new())));
    engine.add_mutation_observer(Arc::clone(&capture) as Arc<dyn MutationObserver>);

    let outcome = engine.drop_relation(id0).expect("drop");
    let sorted = |mut shards: Vec<usize>| {
        shards.sort_unstable();
        shards
    };
    let all: Vec<usize> = (0..SHARDS).collect();
    assert_eq!(
        sorted(outcome.touched_shards.clone()),
        all,
        "drop must touch all {SHARDS} shards"
    );

    let events = capture.0.lock().expect("capture lock");
    assert_eq!(events.len(), 1, "exactly one committed mutation observed");
    assert!(matches!(events[0].kind, MutationKind::Drop));
    assert_eq!(events[0].outcome.id, id0);
    assert_eq!(sorted(events[0].outcome.touched_shards.clone()), all);
}
