//! Pruning by the K-th score inside the operator is exact.
//!
//! Two mechanisms prune by the running K-th score once the output buffer is
//! full: the solo bound skips combinations that cannot reach it, and the
//! tight bound retires partial combinations whose completion bound never
//! can again. Neither may change what the operator reads or returns. This
//! suite runs random relations at n ∈ {2, 3}, k ∈ 1..=12, both access kinds
//! and all four algorithms, with weights including w_μ = 0 and with
//! duplicated points and scores that force ties, and checks every run
//! against
//!
//! * `naive_rank_join`: the same rows, ids and score bits;
//! * an unpruned reference run of the same algorithm: the same rows, the
//!   same per-relation depths, bound updates and pull sequence, and no
//!   fewer scored combinations;
//! * the same pruned run driven through `StreamingRun::next_certified`: the
//!   same rows, certified one at a time.
//!
//! The reference needs no knob. [`Unpruned`] hides the scoring's
//! `euclidean_weights`, which is the solo bound's opt-in, and [`NoFloor`]
//! forwards a bounding scheme without its floor hook.

use prj_access::{AccessKind, Tuple, TupleId};
use prj_core::bounds::{BoundingScheme, CornerBound, TightBound, TightBoundConfig};
use prj_core::pull::PullStrategy;
use prj_core::scoring::Member;
use prj_core::{
    execute, naive_rank_join, Algorithm, BoundingSchemeKind, EuclideanLogScore, JoinState,
    ProblemBuilder, ScoredCombination, ScoringFunction, Weights,
};
use prj_geometry::Vector;
use std::time::Duration;

/// `EuclideanLogScore` with the same scores but no `euclidean_weights`, so
/// the operator does not prune combinations for it.
struct Unpruned(EuclideanLogScore);

impl ScoringFunction for Unpruned {
    fn proximity_weighted_score(&self, sigma: f64, dq: f64, dmu: f64) -> f64 {
        self.0.proximity_weighted_score(sigma, dq, dmu)
    }

    fn score_members(&self, members: &[Member<'_>], query: &Vector) -> f64 {
        self.0.score_members(members, query)
    }
}

/// A bounding scheme with its floor hook dropped: every other method
/// forwards, so the scheme never learns the K-th score.
struct NoFloor<S>(Box<dyn BoundingScheme<S>>);

impl<S: ScoringFunction> BoundingScheme<S> for NoFloor<S> {
    fn update(&mut self, state: &JoinState, scoring: &S, accessed: Option<usize>) -> f64 {
        self.0.update(state, scoring, accessed)
    }

    fn bound(&self) -> f64 {
        self.0.bound()
    }

    fn potential(&self, i: usize) -> f64 {
        self.0.potential(i)
    }

    fn dominance_time(&self) -> Duration {
        self.0.dominance_time()
    }

    fn dominated_count(&self) -> usize {
        self.0.dominated_count()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A pulling strategy that records every relation it picks.
struct Recording {
    inner: Box<dyn PullStrategy>,
    picks: Vec<usize>,
}

impl Recording {
    fn new(algorithm: Algorithm) -> Self {
        Recording {
            inner: algorithm.make_pull(),
            picks: Vec::new(),
        }
    }
}

impl PullStrategy for Recording {
    fn choose_input(&mut self, state: &JoinState, potentials: &[f64]) -> Option<usize> {
        let pick = self.inner.choose_input(state, potentials);
        self.picks.extend(pick);
        pick
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// SplitMix64: a small seeded generator, so every case is reproducible
/// from its seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The weight triples the cases draw from: `w_μ = 0` included, and
/// `w_s = 0`, which makes scores irrelevant and ties frequent.
const WEIGHTS: [(f64, f64, f64); 6] = [
    (1.0, 1.0, 1.0),
    (1.0, 1.0, 0.0),
    (0.5, 2.0, 3.0),
    (2.0, 0.5, 0.25),
    (0.0, 1.0, 1.0),
    (1.0, 0.25, 0.0),
];

/// One random case: relations (with points on a coarse grid, repeated
/// scores, and tuples copied across relations to force tied combinations),
/// a query point, K and the weights.
struct Case {
    relations: Vec<Vec<Tuple>>,
    query: Vector,
    k: usize,
    weights: Weights,
}

fn random_case(seed: u64) -> Case {
    let mut rng = Rng(seed);
    let n = 2 + rng.below(2);
    let max_len = if n == 2 { 28 } else { 12 };
    let grid = |rng: &mut Rng| (rng.below(9) as f64 - 4.0) * 0.5;
    let mut relations: Vec<Vec<Tuple>> = Vec::with_capacity(n);
    for rel in 0..n {
        let len = 2 + rng.below(max_len - 1);
        let mut tuples: Vec<Tuple> = Vec::with_capacity(len);
        for i in 0..len {
            let (point, score) = match rng.below(4) {
                // A copy of an earlier tuple of this relation or of another.
                0 if rel > 0 || i > 0 => {
                    let from = rng.below(rel + 1);
                    let pool = if from == rel {
                        &tuples
                    } else {
                        &relations[from]
                    };
                    if pool.is_empty() {
                        (Vector::from([grid(&mut rng), grid(&mut rng)]), 0.5)
                    } else {
                        let t = &pool[rng.below(pool.len())];
                        (t.vector.clone(), t.score)
                    }
                }
                // A grid point with one of a few scores.
                1 | 2 => (
                    Vector::from([grid(&mut rng), grid(&mut rng)]),
                    [0.25, 0.5, 1.0][rng.below(3)],
                ),
                // A point and a score in general position.
                _ => (
                    Vector::from([rng.unit() * 4.0 - 2.0, rng.unit() * 4.0 - 2.0]),
                    0.05 + 0.95 * rng.unit(),
                ),
            };
            tuples.push(Tuple::new(TupleId::new(rel, i), point, score));
        }
        relations.push(tuples);
    }
    let query = if rng.below(2) == 0 {
        Vector::from([grid(&mut rng), grid(&mut rng)])
    } else {
        Vector::from([rng.unit() * 3.0 - 1.5, rng.unit() * 3.0 - 1.5])
    };
    let (w_s, w_q, w_mu) = WEIGHTS[rng.below(WEIGHTS.len())];
    Case {
        relations,
        query,
        k: 1 + rng.below(12),
        weights: Weights::new(w_s, w_q, w_mu),
    }
}

fn rows(combos: &[ScoredCombination]) -> Vec<(Vec<TupleId>, u64)> {
    combos
        .iter()
        .map(|c| (c.ids(), c.score.to_bits()))
        .collect()
}

fn problem<S: ScoringFunction>(case: &Case, scoring: S, kind: AccessKind) -> prj_core::Problem<S> {
    let mut builder = ProblemBuilder::new(case.query.clone(), scoring)
        .k(case.k)
        .access_kind(kind);
    for tuples in &case.relations {
        builder = builder.relation_from_tuples(tuples.clone());
    }
    builder.build().expect("problem")
}

/// The algorithm's bounding scheme, built directly so that the unpruned
/// scoring (which exposes no weights) can still run the tight bound.
fn scheme<S: ScoringFunction>(
    algorithm: Algorithm,
    n: usize,
    weights: Weights,
) -> Box<dyn BoundingScheme<S>> {
    match algorithm.bounding() {
        BoundingSchemeKind::Corner => Box::new(CornerBound::new(n)),
        BoundingSchemeKind::Tight => {
            Box::new(TightBound::new(n, weights, TightBoundConfig::default()))
        }
    }
}

/// Totals over every run, so the suite can show that both mechanisms
/// actually pruned.
#[derive(Default)]
struct Totals {
    pruned_scored: usize,
    reference_scored: usize,
    retired: usize,
}

fn check_case(seed: u64, totals: &mut Totals) {
    let case = random_case(seed);
    let n = case.relations.len();
    let scoring = EuclideanLogScore::from_weights(case.weights);
    let expected =
        rows(&naive_rank_join(&mut problem(&case, scoring, AccessKind::Distance)).combinations);
    for kind in [AccessKind::Distance, AccessKind::Score] {
        for algorithm in Algorithm::all() {
            let tag = format!("seed {seed} n={n} k={} {kind:?} {algorithm:?}", case.k);

            let mut pruned_problem = problem(&case, scoring, kind);
            let mut pull = Recording::new(algorithm);
            let pruned = if algorithm.bounding() == BoundingSchemeKind::Tight {
                let mut bound = TightBound::new(n, case.weights, TightBoundConfig::default());
                let result = execute(&mut pruned_problem, &mut bound, &mut pull);
                totals.retired += bound.retired_partials();
                result
            } else {
                execute(&mut pruned_problem, &mut CornerBound::new(n), &mut pull)
            };
            let pruned_picks = pull.picks;

            let mut pull = Recording::new(algorithm);
            let reference = execute(
                &mut problem(&case, Unpruned(scoring), kind),
                &mut NoFloor(scheme(algorithm, n, case.weights)),
                &mut pull,
            );
            let reference_picks = pull.picks;

            assert_eq!(rows(&pruned.combinations), expected, "{tag}: rows vs naive");
            assert_eq!(
                rows(&reference.combinations),
                expected,
                "{tag}: reference rows vs naive"
            );
            assert_eq!(pruned.stats, reference.stats, "{tag}: depths");
            assert_eq!(
                pruned.metrics.bound_updates, reference.metrics.bound_updates,
                "{tag}: bound updates"
            );
            assert_eq!(pruned_picks, reference_picks, "{tag}: pull sequence");
            assert!(
                pruned.metrics.combinations_formed <= reference.metrics.combinations_formed,
                "{tag}: pruning scored more combinations"
            );
            totals.pruned_scored += pruned.metrics.combinations_formed;
            totals.reference_scored += reference.metrics.combinations_formed;

            // The incremental driver certifies the same rows one at a time.
            let mut run = algorithm
                .start_streaming(problem(&case, scoring, kind))
                .expect("streaming run");
            let mut streamed = Vec::new();
            while let Some(combo) = run.next_certified() {
                streamed.push(combo);
            }
            assert_eq!(rows(&streamed), expected, "{tag}: streamed rows");
            assert_eq!(run.stats(), &reference.stats, "{tag}: streamed depths");
        }
    }
}

#[test]
fn pruned_runs_read_and_return_what_unpruned_runs_do() {
    let mut totals = Totals::default();
    for seed in 0..400 {
        check_case(seed, &mut totals);
    }
    // Both mechanisms must have fired, or the suite proves nothing.
    assert!(
        totals.pruned_scored * 2 < totals.reference_scored,
        "the solo bound pruned too little: {} of {} scored",
        totals.pruned_scored,
        totals.reference_scored
    );
    assert!(
        totals.retired > 0,
        "the floor retired no partial combination"
    );
}

/// Coordinates beyond the solo bound's limit, where distances overflow and
/// scores turn `−∞` or, with `w_μ = 0`, NaN: the pruned rows and depths
/// still equal the unpruned ones bit for bit.
#[test]
fn huge_coordinates_are_never_pruned() {
    let scoring = EuclideanLogScore::new(1.0, 1.0, 0.0);
    let relations = [
        vec![
            ([0.0, 0.0], 1.0),
            ([1e200, 1e200], 1.0),
            ([0.5, 0.0], 0.5),
            ([f64::MAX, 0.0], 0.9),
        ],
        vec![([0.0, 0.1], 1.0), ([1e200, 1e200], 1.0), ([0.3, 0.3], 0.8)],
    ];
    let relations: Vec<Vec<Tuple>> = relations
        .iter()
        .enumerate()
        .map(|(rel, rows)| {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        })
        .collect();
    for kind in [AccessKind::Distance, AccessKind::Score] {
        for k in 1..=6 {
            let case = Case {
                relations: relations.clone(),
                query: Vector::from([0.0, 0.0]),
                k,
                weights: scoring.weights(),
            };
            for algorithm in [Algorithm::Cbrr, Algorithm::Cbpa] {
                let pruned = algorithm
                    .run(&mut problem(&case, scoring, kind))
                    .expect("pruned run");
                let reference = algorithm
                    .run(&mut problem(&case, Unpruned(scoring), kind))
                    .expect("reference run");
                assert_eq!(
                    rows(&pruned.combinations),
                    rows(&reference.combinations),
                    "{kind:?} k={k} {algorithm:?}"
                );
                assert_eq!(
                    pruned.stats, reference.stats,
                    "{kind:?} k={k} {algorithm:?}"
                );
            }
        }
    }
}
