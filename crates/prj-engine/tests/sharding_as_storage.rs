//! Sharding is storage, not execution: an in-process engine at any shard
//! count runs one operator over the shards' merged views, so it *is* the
//! unsharded engine — bit for bit in its rows, counter for counter in the
//! paper's cost metrics.
//!
//! For seeded relations in general position (continuous coordinates, so no
//! two tuples tie on distance or score), every shard count `S ∈ {2, 4, 7}`
//! is checked against an `S = 1` engine over the same tuples: every
//! algorithm pinned plus the planner's pick, under Euclidean distance
//! access, score access and a non-Euclidean scoring (the per-query `δ`
//! sort), with and without un-folded delta lanes. Per query the rows must
//! equal `S = 1` and `naive_rank_join` bit for bit, and `sumDepths`, the
//! per-relation depths, the bound updates, the combinations formed and the
//! plan must equal `S = 1` exactly, from exactly one execution unit.
//!
//! A tie-heavy leg (grid coordinates, few distinct scores) asserts only row
//! identity: the R-tree cursor does not order equal-distance entries by
//! id, so on ties the access order — and with it the counters — may
//! legitimately differ.

use prj_access::{AccessKind, Tuple, TupleId};
use prj_core::{
    naive_rank_join, Algorithm, CosineSimilarityScore, EuclideanLogScore, ProblemBuilder,
    ScoredCombination, ScoringSpec,
};
use prj_engine::{Engine, EngineBuilder, EngineResult, QuerySpec, RelationId};
use prj_geometry::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 3] = [2, 4, 7];

/// `n_relations` relations of `size` tuples. `grid` snaps coordinates to a
/// coarse lattice and scores to four values, so distances and scores tie.
fn generate(seed: u64, n_relations: usize, size: usize, grid: bool) -> Vec<Vec<Tuple>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_relations)
        .map(|rel| {
            (0..size)
                .map(|i| {
                    let (x, y, score) = if grid {
                        (
                            rng.random_range(-4i32..5) as f64 * 0.5,
                            rng.random_range(-4i32..5) as f64 * 0.5,
                            rng.random_range(1u32..5) as f64 / 4.0,
                        )
                    } else {
                        (
                            rng.random_range(-3.0..3.0),
                            rng.random_range(-3.0..3.0),
                            rng.random_range(0.0..1.0) + 1e-3,
                        )
                    };
                    Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), score)
                })
                .collect()
        })
        .collect()
}

/// An engine over `relations`. With `delta`, the delta lane is on, its
/// compactor is paused, and the last quarter of every relation arrives as
/// small appends that stay un-folded.
fn engine_over(shards: usize, delta: bool, relations: &[Vec<Tuple>]) -> (Engine, Vec<RelationId>) {
    let mut builder = EngineBuilder::default()
        .threads(1)
        .shards(shards)
        .cache_capacity(0);
    if delta {
        builder = builder.delta_threshold(1 << 20);
    }
    let engine = builder.build();
    let split = |tuples: &[Tuple]| {
        if delta {
            tuples.len() * 3 / 4
        } else {
            tuples.len()
        }
    };
    if let Some(compactor) = engine.compactor() {
        compactor.pause();
    }
    let ids: Vec<RelationId> = relations
        .iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{i}"), tuples[..split(tuples)].to_vec()))
        .collect();
    for (id, tuples) in ids.iter().zip(relations) {
        for batch in tuples[split(tuples)..].chunks(4) {
            engine.append(*id, batch.to_vec()).expect("append");
        }
    }
    if delta {
        assert!(
            engine.catalog().delta_tuples_total() > 0,
            "deltas stay un-folded"
        );
    }
    (engine, ids)
}

fn fingerprint(combos: &[ScoredCombination]) -> Vec<(Vec<TupleId>, u64)> {
    combos
        .iter()
        .map(|c| (c.ids(), c.score.to_bits()))
        .collect()
}

fn naive(
    relations: &[Vec<Tuple>],
    query: &Vector,
    k: usize,
    scoring: &Arc<dyn ScoringSpec>,
) -> Vec<(Vec<TupleId>, u64)> {
    let mut builder = ProblemBuilder::new(query.clone(), Arc::clone(scoring)).k(k);
    for tuples in relations {
        builder = builder.relation_from_tuples(tuples.clone());
    }
    fingerprint(&naive_rank_join(&mut builder.build().expect("naive")).combinations)
}

/// One access/scoring combination and the plans it is checked under.
struct Case {
    label: &'static str,
    scoring: Arc<dyn ScoringSpec>,
    access: AccessKind,
    algorithms: Vec<Option<Algorithm>>,
}

fn cases() -> Vec<Case> {
    let every: Vec<Option<Algorithm>> = std::iter::once(None)
        .chain(Algorithm::all().into_iter().map(Some))
        .collect();
    vec![
        Case {
            label: "euclidean/distance",
            scoring: Arc::new(EuclideanLogScore::new(1.0, 1.0, 1.0)),
            access: AccessKind::Distance,
            algorithms: every.clone(),
        },
        Case {
            label: "weighted/score",
            scoring: Arc::new(EuclideanLogScore::new(2.0, 0.5, 1.0)),
            access: AccessKind::Score,
            algorithms: every,
        },
        Case {
            // No Euclidean reduction: only the corner bound applies, and
            // distance access sorts under the scoring's own δ.
            label: "cosine/distance",
            scoring: Arc::new(CosineSimilarityScore::default()),
            access: AccessKind::Distance,
            algorithms: vec![None, Some(Algorithm::Cbrr), Some(Algorithm::Cbpa)],
        },
    ]
}

fn spec(
    ids: &[RelationId],
    case: &Case,
    query: &Vector,
    k: usize,
    algorithm: Option<Algorithm>,
) -> QuerySpec {
    let spec = QuerySpec::top_k(ids.to_vec(), query.clone(), k)
        .with_shared_scoring(Arc::clone(&case.scoring))
        .with_access_kind(case.access);
    match algorithm {
        Some(algorithm) => spec.with_algorithm(algorithm),
        None => spec,
    }
}

/// Runs every case × algorithm × query × k on an `S = 1` engine and on one
/// engine per shard count, handing each `(S=1, S>1)` result pair plus the
/// oracle rows to `check`.
fn for_each_pair(
    relations: &[Vec<Tuple>],
    delta: bool,
    check: impl Fn(&str, &EngineResult, &EngineResult, &[(Vec<TupleId>, u64)]),
) {
    let queries = [Vector::from([0.0, 0.0]), Vector::from([1.3, -0.7])];
    let (single, single_ids) = engine_over(1, delta, relations);
    let sharded: Vec<(usize, Engine, Vec<RelationId>)> = SHARD_COUNTS
        .iter()
        .map(|&shards| {
            let (engine, ids) = engine_over(shards, delta, relations);
            (shards, engine, ids)
        })
        .collect();
    for case in cases() {
        for query in &queries {
            for k in [1, 6, 15] {
                let oracle = naive(relations, query, k, &case.scoring);
                for &algorithm in &case.algorithms {
                    let baseline = single
                        .query(spec(&single_ids, &case, query, k, algorithm))
                        .expect("S=1 query");
                    for (shards, engine, ids) in &sharded {
                        let result = engine
                            .query(spec(ids, &case, query, k, algorithm))
                            .expect("sharded query");
                        let label = format!(
                            "{} S={shards} delta={delta} q={query:?} k={k} algorithm={algorithm:?}",
                            case.label
                        );
                        check(&label, &baseline, &result, &oracle);
                    }
                }
            }
        }
    }
}

fn assert_identical_to_unsharded(
    label: &str,
    baseline: &EngineResult,
    result: &EngineResult,
    oracle: &[(Vec<TupleId>, u64)],
) {
    assert_eq!(
        fingerprint(baseline.combinations()),
        oracle,
        "{label}: S=1 vs naive"
    );
    assert_eq!(fingerprint(result.combinations()), oracle, "{label}: rows");
    let (base, run) = (baseline.result(), result.result());
    assert_eq!(run.stats.depths(), base.stats.depths(), "{label}: depths");
    assert_eq!(run.sum_depths(), base.sum_depths(), "{label}: sumDepths");
    assert_eq!(
        run.metrics.bound_updates, base.metrics.bound_updates,
        "{label}: bound updates"
    );
    assert_eq!(
        run.metrics.combinations_formed, base.metrics.combinations_formed,
        "{label}: combinations formed"
    );
    assert_eq!(result.plan(), baseline.plan(), "{label}: plan");
    assert_eq!(result.fresh_units, 1, "{label}: one execution unit");
    assert_eq!(
        baseline.fresh_units, 1,
        "{label}: one execution unit at S=1"
    );
}

#[test]
fn sharded_engine_is_the_unsharded_engine_counter_for_counter() {
    for (seed, n_relations, size) in [(7, 2, 60), (8, 3, 22)] {
        let relations = generate(seed, n_relations, size, false);
        for_each_pair(&relations, false, assert_identical_to_unsharded);
    }
}

#[test]
fn unfolded_deltas_keep_sharded_counters_equal_to_unsharded() {
    let relations = generate(9, 2, 64, false);
    for_each_pair(&relations, true, assert_identical_to_unsharded);
}

#[test]
fn tie_heavy_grid_keeps_rows_bit_identical() {
    let relations = generate(10, 2, 48, true);
    for delta in [false, true] {
        for_each_pair(&relations, delta, |label, baseline, result, oracle| {
            assert_eq!(
                fingerprint(baseline.combinations()),
                oracle,
                "{label}: S=1 vs naive"
            );
            assert_eq!(fingerprint(result.combinations()), oracle, "{label}: rows");
        });
    }
}
