//! The operator's deterministic work, pinned exactly.
//!
//! The paper's cost metric `sumDepths` (Sec. 4, Fig. 3) — like the number of
//! bound updates and of combinations scored — is a pure function of the
//! data, the query point and the plan. Timing moves with the host; these
//! counters do not. So this file fixes seeded relations (seed 42) and a
//! spiral of 64 query points, serves every point through the planner's
//! pick, and asserts the summed counters of each lane against constants:
//!
//! * n = 2, 2 × 400 tuples, k = 8, over three shapes (uniform, clustered,
//!   score-skewed). The planner runs CBPA, the corner bound.
//! * n = 3, 3 × 200 uniform tuples, k = 8. The planner runs TBPA, so the
//!   tight bound and its closed-form ray solve are pinned too.
//!
//! Each lane runs at S = 1 and at S = 4. Sharding is storage, not
//! execution, so the S = 4 counters must equal the S = 1 counters.
//!
//! `combinations_formed` counts the combinations the operator scores. The
//! solo bound skips every combination that cannot reach the K-th score, so
//! it is far below the cross product of the depths read.
//!
//! A constant changes only when what the operator reads or scores changes.
//! Re-derive it from this test's failure message, and say in the change
//! why the operator now reads differently.

use prj_access::{Tuple, TupleId};
use prj_core::Algorithm;
use prj_engine::{EngineBuilder, QuerySpec, RelationId};
use prj_geometry::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 42;
const K: usize = 8;
const QUERIES: usize = 64;
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// The data shapes of the lanes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Points uniform in `[-3, 3]^2`, scores uniform in `(0, 1]`.
    Uniform,
    /// Points around three cluster centres, uniform scores.
    Clustered,
    /// Uniform points, scores skewed towards 0 (`u^4`).
    ScoreSkewed,
}

/// The operator's work summed over a lane's queries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counters {
    sum_depths: usize,
    rows: usize,
    bound_updates: usize,
    combinations_formed: usize,
}

/// `n_relations` seeded relations of `relation_size` tuples each.
fn generate(shape: Shape, n_relations: usize, relation_size: usize) -> Vec<Vec<Tuple>> {
    let shape_salt = match shape {
        Shape::Uniform => 0,
        Shape::Clustered => 1,
        Shape::ScoreSkewed => 2,
    };
    let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(shape_salt));
    let centres: Vec<[f64; 2]> = (0..3)
        .map(|_| [rng.random_range(-2.5..2.5), rng.random_range(-2.5..2.5)])
        .collect();
    (0..n_relations)
        .map(|rel| {
            (0..relation_size)
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

/// `QUERIES` distinct top-K query points on a spiral.
fn query_specs(ids: &[RelationId]) -> Vec<QuerySpec> {
    (0..QUERIES)
        .map(|i| {
            let angle = i as f64 * 0.37;
            let radius = 0.05 + 1.8 * (i as f64 / QUERIES as f64);
            QuerySpec::top_k(
                ids.to_vec(),
                Vector::from([radius * angle.cos(), radius * angle.sin()]),
                K,
            )
        })
        .collect()
}

/// Serves every query point through the planner's pick on an engine of
/// `shards` shards, checks the pick, and sums the counters.
fn run_lane(data: &[Vec<Tuple>], shards: usize, pick: Algorithm) -> Counters {
    let engine = EngineBuilder::default().threads(1).shards(shards).build();
    let ids: Vec<RelationId> = data
        .iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{}", i + 1), tuples.clone()))
        .collect();
    let mut counters = Counters::default();
    for spec in query_specs(&ids) {
        let result = engine.query(spec).expect("counters query");
        assert_eq!(result.plan().algorithm, pick, "planner pick at S={shards}");
        let run = result.result();
        counters.sum_depths += run.sum_depths();
        counters.rows += result.combinations().len();
        counters.bound_updates += run.metrics.bound_updates;
        counters.combinations_formed += run.metrics.combinations_formed;
    }
    counters
}

/// Runs one lane at every shard count: S = 1 must read `golden`, and
/// every other shard count must read what S = 1 read.
fn check_lane(label: &str, data: &[Vec<Tuple>], pick: Algorithm, golden: Counters) {
    let single = run_lane(data, SHARD_COUNTS[0], pick);
    assert_eq!(single, golden, "{label}: S=1 counters");
    for &shards in &SHARD_COUNTS[1..] {
        let sharded = run_lane(data, shards, pick);
        assert_eq!(sharded, single, "{label}: S={shards} vs S=1 counters");
    }
}

fn check_two_relation_lane(label: &str, shape: Shape, golden: Counters) {
    check_lane(label, &generate(shape, 2, 400), Algorithm::Cbpa, golden);
}

#[test]
fn uniform_two_relation_lane_reads_its_golden_counters() {
    check_two_relation_lane(
        "uniform n=2",
        Shape::Uniform,
        Counters {
            sum_depths: 3629,
            rows: 512,
            bound_updates: 3693,
            combinations_formed: 2487,
        },
    );
}

#[test]
fn clustered_two_relation_lane_reads_its_golden_counters() {
    check_two_relation_lane(
        "clustered n=2",
        Shape::Clustered,
        Counters {
            sum_depths: 5223,
            rows: 512,
            bound_updates: 5287,
            combinations_formed: 1986,
        },
    );
}

#[test]
fn skewed_two_relation_lane_reads_its_golden_counters() {
    check_two_relation_lane(
        "skewed n=2",
        Shape::ScoreSkewed,
        Counters {
            sum_depths: 6699,
            rows: 512,
            bound_updates: 6763,
            combinations_formed: 3018,
        },
    );
}

#[test]
fn three_relation_lane_reads_its_golden_counters_through_the_tight_bound() {
    check_lane(
        "uniform n=3",
        &generate(Shape::Uniform, 3, 200),
        Algorithm::Tbpa,
        Counters {
            sum_depths: 2491,
            rows: 512,
            bound_updates: 2555,
            combinations_formed: 5364,
        },
    );
}
