//! Cross-crate correctness tests: every ProxRJ instantiation must return the
//! exact top-K of the full cross product (as computed by the exhaustive
//! baseline) on randomized workloads, for both access kinds, all backends and
//! with or without dominance pruning — while respecting the depth
//! relationships the paper proves (tight ≤ corner, TBPA ≤ TBRR per relation).

use proximity_rank_join::core::{naive_rank_join, Problem, RelationBackend};
use proximity_rank_join::data::{generate_synthetic, SyntheticConfig};
use proximity_rank_join::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_relations(
    rng: &mut StdRng,
    n: usize,
    dim: usize,
    sizes: std::ops::Range<usize>,
) -> Vec<Vec<Tuple>> {
    (0..n)
        .map(|rel| {
            let size = rng.random_range(sizes.clone());
            (0..size)
                .map(|idx| {
                    let coords: Vec<f64> = (0..dim).map(|_| rng.random_range(-2.0..2.0)).collect();
                    let score = rng.random_range(0.05..1.0);
                    Tuple::new(TupleId::new(rel, idx), Vector::from(coords), score)
                })
                .collect()
        })
        .collect()
}

fn build_problem(
    relations: Vec<Vec<Tuple>>,
    dim: usize,
    k: usize,
    kind: AccessKind,
    backend: RelationBackend,
    dominance: Option<usize>,
) -> Problem<EuclideanLogScore> {
    ProblemBuilder::new(Vector::zeros(dim), EuclideanLogScore::new(1.0, 1.0, 1.0))
        .k(k)
        .access_kind(kind)
        .backend(backend)
        .dominance_period(dominance)
        .relations_from_tuples(relations)
        .build()
        .unwrap()
}

fn assert_matches_naive(problem: &mut Problem<EuclideanLogScore>, context: &str) {
    let expected = naive_rank_join(problem);
    for algo in Algorithm::all() {
        let result = algo.run(problem).unwrap();
        assert_eq!(
            result.combinations.len(),
            expected.combinations.len(),
            "{context} / {algo}: result size mismatch"
        );
        for (i, (got, exp)) in result
            .combinations
            .iter()
            .zip(expected.combinations.iter())
            .enumerate()
        {
            assert!(
                (got.score - exp.score).abs() < 1e-9,
                "{context} / {algo}: rank {i} score {} differs from naive {}",
                got.score,
                exp.score
            );
        }
    }
}

#[test]
fn algorithms_match_naive_on_random_two_relation_instances() {
    let mut rng = StdRng::seed_from_u64(101);
    for case in 0..8 {
        let dim = rng.random_range(1..4);
        let k = rng.random_range(1..6);
        let relations = random_relations(&mut rng, 2, dim, 5..25);
        let mut problem = build_problem(
            relations,
            dim,
            k,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            None,
        );
        assert_matches_naive(&mut problem, &format!("distance case {case}"));
    }
}

#[test]
fn algorithms_match_naive_on_random_three_relation_instances() {
    let mut rng = StdRng::seed_from_u64(202);
    for case in 0..4 {
        let dim = rng.random_range(1..4);
        let k = rng.random_range(1..10);
        let relations = random_relations(&mut rng, 3, dim, 4..15);
        let mut problem = build_problem(
            relations,
            dim,
            k,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            None,
        );
        assert_matches_naive(&mut problem, &format!("three-relation case {case}"));
    }
}

#[test]
fn algorithms_match_naive_under_score_based_access() {
    let mut rng = StdRng::seed_from_u64(303);
    for case in 0..6 {
        let dim = rng.random_range(1..5);
        let k = rng.random_range(1..6);
        let relations = random_relations(&mut rng, 2, dim, 5..20);
        let mut problem = build_problem(
            relations,
            dim,
            k,
            AccessKind::Score,
            RelationBackend::SortedVec,
            None,
        );
        assert_matches_naive(&mut problem, &format!("score case {case}"));
    }
}

#[test]
fn rtree_backend_gives_identical_results() {
    let mut rng = StdRng::seed_from_u64(404);
    for case in 0..4 {
        let dim = 2;
        let relations = random_relations(&mut rng, 2, dim, 10..40);
        let mut vec_problem = build_problem(
            relations.clone(),
            dim,
            5,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            None,
        );
        let mut rtree_problem = build_problem(
            relations,
            dim,
            5,
            AccessKind::Distance,
            RelationBackend::RTree,
            None,
        );
        for algo in [Algorithm::Cbrr, Algorithm::Tbpa] {
            let a = algo.run(&mut vec_problem).unwrap();
            let b = algo.run(&mut rtree_problem).unwrap();
            assert_eq!(a.combinations.len(), b.combinations.len(), "case {case}");
            for (x, y) in a.combinations.iter().zip(b.combinations.iter()) {
                assert!((x.score - y.score).abs() < 1e-9, "case {case} / {algo}");
            }
            assert_eq!(a.sum_depths(), b.sum_depths(), "case {case} / {algo}");
        }
    }
}

#[test]
fn dominance_pruning_never_changes_results_or_depths() {
    let mut rng = StdRng::seed_from_u64(505);
    for case in 0..5 {
        let relations = random_relations(&mut rng, 2, 2, 10..35);
        let mut plain = build_problem(
            relations.clone(),
            2,
            5,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            None,
        );
        let mut pruned = build_problem(
            relations,
            2,
            5,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            Some(4),
        );
        for algo in [Algorithm::Tbrr, Algorithm::Tbpa] {
            let a = algo.run(&mut plain).unwrap();
            let b = algo.run(&mut pruned).unwrap();
            assert_eq!(a.sum_depths(), b.sum_depths(), "case {case} / {algo}");
            for (x, y) in a.combinations.iter().zip(b.combinations.iter()) {
                assert!((x.score - y.score).abs() < 1e-9, "case {case} / {algo}");
            }
        }
    }
}

#[test]
fn paper_depth_relationships_hold_on_synthetic_workloads() {
    for seed in 0..5 {
        let config = SyntheticConfig {
            density: 40.0,
            seed: 7000 + seed,
            ..Default::default()
        };
        let relations = generate_synthetic(&config);
        let mut problem = build_problem(
            relations,
            config.dimensions,
            10,
            AccessKind::Distance,
            RelationBackend::SortedVec,
            None,
        );
        let cbrr = Algorithm::Cbrr.run(&mut problem).unwrap();
        let cbpa = Algorithm::Cbpa.run(&mut problem).unwrap();
        let tbrr = Algorithm::Tbrr.run(&mut problem).unwrap();
        let tbpa = Algorithm::Tbpa.run(&mut problem).unwrap();
        // Tight bound never reads more than the corner bound (same strategy).
        assert!(tbrr.sum_depths() <= cbrr.sum_depths(), "seed {seed}");
        assert!(tbpa.sum_depths() <= cbpa.sum_depths(), "seed {seed}");
        // Theorem 3.5: TBPA never reads deeper than TBRR on any relation.
        for i in 0..2 {
            assert!(
                tbpa.stats.depth(i) <= tbrr.stats.depth(i),
                "seed {seed}, relation {i}"
            );
        }
    }
}

#[test]
fn exhaustion_is_handled_when_k_exceeds_the_cross_product() {
    let mut rng = StdRng::seed_from_u64(606);
    let relations = random_relations(&mut rng, 2, 2, 2..5);
    let total: usize = relations.iter().map(|r| r.len()).product();
    let mut problem = build_problem(
        relations,
        2,
        total + 10,
        AccessKind::Distance,
        RelationBackend::SortedVec,
        None,
    );
    for algo in Algorithm::all() {
        let result = algo.run(&mut problem).unwrap();
        assert_eq!(result.combinations.len(), total, "{algo}");
    }
}
