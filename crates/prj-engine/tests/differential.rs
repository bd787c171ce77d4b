//! Differential test harness for partitioned (sharded) execution.
//!
//! The sharded engine's one and only correctness contract: **the shard
//! count is unobservable through results**. For every tested configuration
//! — dataset shape (uniform / clustered / score-skewed), scoring weights,
//! `K`, access kind, shard count `S ∈ {1, 2, 4, 7}` — the sharded engine
//! must return *bit-identical* result sets (same member tuple ids, same
//! score bits, same order) to
//!
//! * the unsharded engine (`S = 1`), and
//! * `prj_core::naive_rank_join`, the exhaustive cross-product oracle,
//!
//! and every reported result must satisfy the paper's stopping-condition
//! invariant ([`RankJoinResult::certifies_top_k`]): the `sumDepths` the
//! engine reports was enough to *prove* the answer, not merely to guess it.

use prj_access::{AccessKind, Tuple, TupleId};
use prj_core::{naive_rank_join, EuclideanLogScore, ProblemBuilder, ScoredCombination};
use prj_engine::{EngineBuilder, QuerySpec, RelationId};
use prj_geometry::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Shard counts every configuration is checked under (1 = the baseline).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// The shape of a generated dataset.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Coordinates uniform over a box, scores uniform.
    Uniform,
    /// Points huddle around a few cluster centres (stressing the
    /// hash-by-cell partitioner with hot cells).
    Clustered,
    /// Uniform coordinates with heavily skewed scores (stressing the
    /// per-shard planner's potential-adaptive choice).
    ScoreSkewed,
}

fn generate(seed: u64, shape: Shape, n_relations: usize, size: usize) -> Vec<Vec<Tuple>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<[f64; 2]> = (0..3)
        .map(|_| [rng.random_range(-2.5..2.5), rng.random_range(-2.5..2.5)])
        .collect();
    (0..n_relations)
        .map(|rel| {
            (0..size)
                .map(|i| {
                    let (x, y) = match shape {
                        Shape::Uniform | Shape::ScoreSkewed => {
                            (rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0))
                        }
                        Shape::Clustered => {
                            let c = centres[(i + rel) % centres.len()];
                            (
                                c[0] + rng.random_range(-0.3..0.3),
                                c[1] + rng.random_range(-0.3..0.3),
                            )
                        }
                    };
                    let u: f64 = rng.random_range(0.0..1.0);
                    let score = match shape {
                        Shape::ScoreSkewed => u * u * u * u + 1e-3,
                        _ => u + 1e-3,
                    };
                    Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), score)
                })
                .collect()
        })
        .collect()
}

/// The exhaustive oracle: full cross product, deterministic (score, ids)
/// order, via `prj_core`.
fn naive_baseline(
    relations: &[Vec<Tuple>],
    query: &Vector,
    k: usize,
    scoring: EuclideanLogScore,
) -> Vec<ScoredCombination> {
    let mut builder = ProblemBuilder::new(query.clone(), scoring).k(k);
    for tuples in relations {
        builder = builder.relation_from_tuples(tuples.clone());
    }
    naive_rank_join(&mut builder.build().expect("naive problem")).combinations
}

/// Identity + exact score bits of a result list — the comparison the whole
/// harness reduces to.
fn fingerprint(combos: &[ScoredCombination]) -> Vec<(Vec<TupleId>, u64)> {
    combos
        .iter()
        .map(|c| (c.ids(), c.score.to_bits()))
        .collect()
}

fn sharded_engine(
    shards: usize,
    relations: &[Vec<Tuple>],
) -> (prj_engine::Engine, Vec<RelationId>) {
    let engine = EngineBuilder::default().threads(2).shards(shards).build();
    let ids = relations
        .iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{i}"), tuples.clone()))
        .collect();
    (engine, ids)
}

/// Runs one full differential check: naive oracle vs every shard count,
/// batch and (for a subset of shard counts) streaming.
fn check_configuration(
    relations: &[Vec<Tuple>],
    query: Vector,
    k: usize,
    weights: (f64, f64, f64),
    access: AccessKind,
) {
    let scoring = EuclideanLogScore::new(weights.0, weights.1, weights.2);
    let expected = fingerprint(&naive_baseline(relations, &query, k, scoring));

    for shards in SHARD_COUNTS {
        let (engine, ids) = sharded_engine(shards, relations);
        let spec = QuerySpec::top_k(ids.clone(), query.clone(), k)
            .with_scoring(scoring)
            .with_access_kind(access);
        let result = engine.query(spec).expect("engine query");
        assert_eq!(
            fingerprint(result.combinations()),
            expected,
            "S={shards} access={access:?} k={k} w={weights:?} diverged from the naive oracle"
        );
        // The reported sumDepths must have been enough to certify the
        // answer under the merged bound.
        assert!(
            result.result().certifies_top_k(k, 1e-9),
            "S={shards}: kth={:?} final_bound={} sumDepths={} is not a certified stop",
            result.combinations().last().map(|c| c.score),
            result.result().metrics.final_bound,
            result.result().sum_depths(),
        );
        // Per-shard depth lanes must account for every access performed.
        let stats = engine.stats();
        assert_eq!(
            stats.per_shard.iter().map(|l| l.sum_depths).sum::<u64>(),
            stats.total_sum_depths,
            "S={shards}: shard lanes must add up to the total"
        );

        // Streaming must produce the same bits through the live producer
        // (a fresh engine, so the batch result above cannot be replayed
        // from cache; S=1 is the legacy path, S=4 the merged path).
        if shards == 1 || shards == 4 {
            let (engine, ids) = sharded_engine(shards, relations);
            let spec = QuerySpec::top_k(ids, query.clone(), k)
                .with_scoring(scoring)
                .with_access_kind(access);
            let engine = Arc::new(engine);
            let mut stream = engine.stream(spec).expect("stream");
            assert!(!stream.from_cache, "cold stream");
            let mut streamed = Vec::new();
            while let Some(combo) = stream.next_result() {
                streamed.push(combo);
            }
            assert!(stream.error().is_none(), "stream must not fail");
            assert_eq!(
                fingerprint(&streamed),
                expected,
                "S={shards}: streamed results diverged from the oracle"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random uniform datasets, weights and K: sharded == unsharded ==
    /// naive, bit for bit, and every stop is certified.
    #[test]
    fn uniform_datasets_are_shard_invariant(
        seed in 0u64..1_000_000,
        n_relations in 1usize..4,
        size in 8usize..28,
        k in 1usize..9,
        ws in 0.25..2.5f64,
        wq in 0.25..2.5f64,
        wm in 0.25..2.5f64,
        q in prop::array::uniform2(-1.5..1.5f64),
    ) {
        let relations = generate(seed, Shape::Uniform, n_relations, size);
        check_configuration(&relations, Vector::from(q), k, (ws, wq, wm), AccessKind::Distance);
    }

    /// Clustered data concentrates whole clusters onto single grid cells —
    /// the worst case for hash-by-cell balance — without ever being
    /// observable in results.
    #[test]
    fn clustered_datasets_are_shard_invariant(
        seed in 0u64..1_000_000,
        n_relations in 2usize..4,
        size in 8usize..24,
        k in 1usize..7,
        wq in 0.25..2.0f64,
        q in prop::array::uniform2(-1.0..1.0f64),
    ) {
        let relations = generate(seed, Shape::Clustered, n_relations, size);
        check_configuration(&relations, Vector::from(q), k, (1.0, wq, 1.0), AccessKind::Distance);
    }

    /// Skewed scores push the per-shard planner towards potential-adaptive
    /// pulling on some shards and round-robin on others; the mixed plans
    /// must still merge to the oracle's answer. Also exercises score-based
    /// sorted access.
    #[test]
    fn skewed_datasets_are_shard_invariant_under_both_access_kinds(
        seed in 0u64..1_000_000,
        size in 10usize..26,
        k in 1usize..6,
        q in prop::array::uniform2(-1.0..1.0f64),
    ) {
        let relations = generate(seed, Shape::ScoreSkewed, 2, size);
        check_configuration(&relations, Vector::from(q), k, (1.0, 1.0, 1.0), AccessKind::Distance);
        check_configuration(&relations, Vector::from(q), k, (1.0, 1.0, 1.0), AccessKind::Score);
    }
}

/// Non-Euclidean scoring exercises the δ-fallback path (a per-query sort
/// under the scoring's own distance, shared across execution units): the
/// shard count must stay unobservable there too.
#[test]
fn non_euclidean_scoring_is_shard_invariant() {
    use prj_core::CosineSimilarityScore;
    let relations = generate(23, Shape::Uniform, 3, 14);
    let query = Vector::from([1.0, 0.25]);
    for k in [1, 3, 6] {
        let expected = {
            let mut builder =
                ProblemBuilder::new(query.clone(), CosineSimilarityScore::default()).k(k);
            for tuples in &relations {
                builder = builder.relation_from_tuples(tuples.clone());
            }
            fingerprint(&naive_rank_join(&mut builder.build().unwrap()).combinations)
        };
        for shards in SHARD_COUNTS {
            let (engine, ids) = sharded_engine(shards, &relations);
            let result = engine
                .query(
                    QuerySpec::top_k(ids, query.clone(), k)
                        .with_scoring(CosineSimilarityScore::default()),
                )
                .expect("cosine query");
            assert_eq!(
                fingerprint(result.combinations()),
                expected,
                "S={shards} k={k} (δ-fallback path)"
            );
            assert!(result.result().certifies_top_k(k, 1e-9), "S={shards} k={k}");
        }
    }
}

/// K exceeding the cross product: every engine must return the entire
/// (deterministically ordered) cross product and report an exhausted bound.
#[test]
fn oversized_k_returns_the_full_cross_product_at_every_shard_count() {
    let relations = generate(7, Shape::Uniform, 3, 4); // 64 combinations
    let query = Vector::from([0.0, 0.0]);
    let expected = fingerprint(&naive_baseline(
        &relations,
        &query,
        100,
        EuclideanLogScore::default(),
    ));
    assert_eq!(expected.len(), 64);
    for shards in SHARD_COUNTS {
        let (engine, ids) = sharded_engine(shards, &relations);
        let result = engine
            .query(QuerySpec::top_k(ids, query.clone(), 100))
            .expect("query");
        assert_eq!(fingerprint(result.combinations()), expected, "S={shards}");
        assert_eq!(
            result.result().metrics.final_bound,
            f64::NEG_INFINITY,
            "S={shards}: exhausted run must report the collapsed bound"
        );
        assert!(result.result().certifies_top_k(100, 1e-9));
    }
}

/// Regression test for deterministic tie-breaking (the satellite fix):
/// exact score ties *at the K boundary* — historically dependent on
/// traversal order, because a run could stop while an unseen combination
/// still tied the K-th score — must now resolve identically (by member
/// tuple ids) for every algorithm, access kind and shard count.
#[test]
fn boundary_score_ties_resolve_identically_everywhere() {
    // Two relations of duplicated points: every tuple of a relation has the
    // same location and score, so *all* cross-product combinations tie at
    // exactly the same aggregate score and only the id tie-break orders
    // them. K = 3 cuts the 4-combination tie mid-way.
    let mk = |rel: usize, n: usize, loc: [f64; 2], score: f64| -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(TupleId::new(rel, i), Vector::from(loc), score))
            .collect()
    };
    let relations = vec![mk(0, 2, [0.5, 0.0], 0.7), mk(1, 2, [-0.5, 0.5], 0.9)];
    let query = Vector::from([0.1, 0.1]);
    let k = 3;
    let expected = fingerprint(&naive_baseline(
        &relations,
        &query,
        k,
        EuclideanLogScore::default(),
    ));
    // The oracle's tie-break: combinations ordered by member ids.
    let expected_ids: Vec<Vec<usize>> = expected
        .iter()
        .map(|(ids, _)| ids.iter().map(|id| id.index).collect())
        .collect();
    assert_eq!(expected_ids, vec![vec![0, 0], vec![0, 1], vec![1, 0]]);

    for shards in SHARD_COUNTS {
        for access in [AccessKind::Distance, AccessKind::Score] {
            for algorithm in prj_core::Algorithm::all() {
                let (engine, ids) = sharded_engine(shards, &relations);
                let result = engine
                    .query(
                        QuerySpec::top_k(ids, query.clone(), k)
                            .with_access_kind(access)
                            .with_algorithm(algorithm),
                    )
                    .expect("query");
                assert_eq!(
                    fingerprint(result.combinations()),
                    expected,
                    "S={shards} access={access:?} algorithm={algorithm:?}"
                );
            }
        }
    }
}

/// After a single-shard append, a re-query must be bit-identical to the
/// naive oracle over the *new* data, at every shard count. The blend of
/// unit-cache hits with fresh units is checked on the path that has a unit
/// cache, in `unit_cache.rs`.
#[test]
fn mixed_cached_and_fresh_units_merge_to_the_oracle() {
    for shards in [2, 4, 7] {
        // One relation, so it is necessarily the driving (partitioned) one
        // and sibling shards' units survive a single-shard append.
        let mut relations = generate(41, Shape::Uniform, 1, 28);
        let query = Vector::from([0.2, -0.3]);
        let k = 5;
        let (engine, ids) = sharded_engine(shards, &relations);
        let spec = || QuerySpec::top_k(ids.clone(), query.clone(), k);

        let cold = engine.query(spec()).expect("cold query");
        assert_eq!(
            fingerprint(cold.combinations()),
            fingerprint(&naive_baseline(
                &relations,
                &query,
                k,
                EuclideanLogScore::default()
            )),
            "S={shards}: cold run diverged"
        );

        // Append one tuple to one shard.
        let extra = Tuple::new(TupleId::new(0, 1000), Vector::from([0.25, -0.2]), 0.95);
        engine.append(ids[0], vec![extra.clone()]).expect("append");
        relations[0].push(extra);
        let warm = engine.query(spec()).expect("warm query");
        assert!(!warm.from_cache, "append must invalidate the result cache");
        assert_eq!(
            fingerprint(warm.combinations()),
            fingerprint(&naive_baseline(
                &relations,
                &query,
                k,
                EuclideanLogScore::default()
            )),
            "S={shards}: cached+fresh blend diverged from the oracle"
        );
        assert!(warm.result().certifies_top_k(k, 1e-9), "S={shards}");
    }
}

/// Ties spread *across* shards: duplicated locations land on the same
/// shard, so also pin ties between distinct locations with equal scores
/// (which hash to different shards).
#[test]
fn cross_shard_score_ties_resolve_by_id() {
    // Four driving tuples at symmetric locations, identical distance to the
    // query and identical scores — and a single-tuple second relation at
    // the query point, so all four combinations tie exactly.
    let r1: Vec<Tuple> = [[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]]
        .into_iter()
        .enumerate()
        .map(|(i, loc)| Tuple::new(TupleId::new(0, i), Vector::from(loc), 0.5))
        .collect();
    let r2 = vec![Tuple::new(
        TupleId::new(1, 0),
        Vector::from([0.0, 0.0]),
        1.0,
    )];
    let relations = vec![r1, r2];
    let query = Vector::from([0.0, 0.0]);
    let expected = fingerprint(&naive_baseline(
        &relations,
        &query,
        2,
        EuclideanLogScore::default(),
    ));
    for shards in SHARD_COUNTS {
        let (engine, ids) = sharded_engine(shards, &relations);
        let result = engine
            .query(QuerySpec::top_k(ids, query.clone(), 2))
            .expect("query");
        assert_eq!(fingerprint(result.combinations()), expected, "S={shards}");
        let winners: Vec<usize> = result
            .combinations()
            .iter()
            .map(|c| c.tuples[0].id.index)
            .collect();
        assert_eq!(winners, vec![0, 1], "ids 0 and 1 win the 4-way tie");
    }
}
