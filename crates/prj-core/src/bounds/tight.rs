//! The tight bounding scheme (paper Sec. 3.2, Appendix B/C).
//!
//! For every proper subset `M` of the relations and every partial combination
//! `τ ∈ PC(M)` of seen tuples, the scheme computes the maximum aggregate
//! score `t(τ)` achievable by completing `τ` with *unseen* tuples, subject to
//! what sorted access has revealed about the unseen tuples:
//!
//! * **distance-based access** — every unseen tuple of `R_i` lies at distance
//!   at least `δ_i` from the query and has score at most `σ_max`; the optimal
//!   completion locations are collinear with the query and the centroid of
//!   the seen part (Theorem 3.4), which reduces the problem to the
//!   one-dimensional convex QP of Eq. 14, solved exactly here by its KKT
//!   closed form `prj_solver::ray_optimum` (of which Eq. 11/29 is the
//!   equal-radius case);
//! * **score-based access** — every unseen tuple of `R_i` has score at most
//!   `σ(R_i[p_i])` and an unconstrained location; the optimum has the closed
//!   form of Eq. 41.
//!
//! In both cases the bound value is obtained by *evaluating the exact
//! aggregation function* at the reconstructed optimal completion, so that the
//! returned value is attained by an explicit continuation — which is
//! precisely the definition of tightness (Definition 2.2, Theorem 3.2) and is
//! exercised as such by the property tests.
//!
//! The subset bounds `t_M` (Eq. 8) are cached per partial combination and
//! only recomputed when they can have changed (Algorithm 2): when the partial
//! combination uses the newly retrieved tuple, or when the access frontier of
//! one of its *unseen* relations moved. Dominated partial combinations
//! (Sec. 3.2.2) are skipped permanently, and so are those the run's floor
//! retires: once the output buffer is full, a partial whose completion
//! bound can never again reach the termination test is never re-evaluated
//! (see [`TightBound`]'s `set_floor`).

use super::partial::{proper_subsets, SubsetState};
use super::BoundingScheme;
use crate::dominance::{dominance_coefficients, is_dominated, DominanceCoefficients};
use crate::scoring::{Member, ScoringFunction, Weights};
use crate::state::JoinState;
use prj_access::AccessKind;
use prj_geometry::Vector;
use prj_solver::{ray_optimum, score_based_optimum};
use std::time::{Duration, Instant};

/// Upper bound on the number of relations: subsets are `u32` bitmasks (see
/// [`proper_subsets`]), so a combination has fewer than 32 members.
const MAX_RELATIONS: usize = 32;

/// Relative margin a completion bound must clear below the floor before its
/// partial combination is retired (see [`TightBound`]'s `set_floor`).
const RETIRE_MARGIN: f64 = 1e-9;

/// `true` when `floor = (kth, tolerance)` shows that completion bound `b`
/// can never again reach the termination test `kth >= t + tolerance`: the
/// test itself, with `b` lifted by [`RETIRE_MARGIN`] relative to its size.
fn below_floor(floor: Option<(f64, f64)>, b: f64) -> bool {
    floor.is_some_and(|(kth, tolerance)| {
        let lifted = if b.is_finite() {
            b + RETIRE_MARGIN * b.abs().max(1.0)
        } else {
            b
        };
        kth >= lifted + tolerance
    })
}

/// Configuration of the tight bounding scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TightBoundConfig {
    /// Run the LP dominance test every `period` accesses (`None` disables it).
    /// Only meaningful under distance-based access; score-based access uses
    /// the incremental best-only bookkeeping of Algorithm 3 instead.
    pub dominance_period: Option<usize>,
}

/// The tight bounding scheme (used by TBRR and TBPA).
#[derive(Debug, Clone)]
pub struct TightBound {
    weights: Weights,
    config: TightBoundConfig,
    subsets: Vec<SubsetState>,
    bound: f64,
    potentials: Vec<f64>,
    access_count: usize,
    solves: usize,
    dominance_tests: usize,
    dominated: usize,
    dominance_time: Duration,
    /// The run's floor, `(kth, tolerance)`, once its output buffer is full;
    /// and the number of partial combinations retired under it.
    floor: Option<(f64, f64)>,
    retired: usize,
    /// Scratch lanes reused across `update` calls: the per-relation depths,
    /// and the queue of partial indices gathered by the streaming pass over
    /// a subset's flat ranks lane before (re)evaluation.
    depths: Vec<usize>,
    eval_queue: Vec<usize>,
    /// Scratch lanes reused across partial evaluations: `ray` holds the seen
    /// centroid and then, under distance access, the unit ray direction;
    /// `projections` the seen members' Eq. 13 lengths; `lower` and `lengths`
    /// the unseen relations' distance bounds and optimal lengths;
    /// `unseen_points` the reconstructed unseen locations.
    ray: Vector,
    projections: Vec<f64>,
    lower: Vec<f64>,
    lengths: Vec<f64>,
    unseen_points: Vec<Vector>,
}

impl TightBound {
    /// Creates the scheme for `n` relations with the Eq. 2 weights `weights`.
    pub fn new(n: usize, weights: Weights, config: TightBoundConfig) -> Self {
        TightBound {
            weights,
            config,
            subsets: proper_subsets(n),
            bound: f64::INFINITY,
            potentials: vec![f64::INFINITY; n],
            access_count: 0,
            solves: 0,
            dominance_tests: 0,
            dominated: 0,
            dominance_time: Duration::ZERO,
            floor: None,
            retired: 0,
            depths: Vec::with_capacity(n),
            eval_queue: Vec::new(),
            ray: Vector::zeros(0),
            projections: Vec::with_capacity(n),
            lower: Vec::with_capacity(n),
            lengths: Vec::with_capacity(n),
            unseen_points: Vec::new(),
        }
    }

    /// Number of completion-bound optimisations solved so far: one closed
    /// form per evaluated partial combination (Eq. 14 under distance-based
    /// access, Eq. 41 under score-based access).
    pub fn optimizations_solved(&self) -> usize {
        self.solves
    }

    /// Number of LP dominance tests performed so far.
    pub fn dominance_tests(&self) -> usize {
        self.dominance_tests
    }

    /// Number of partial combinations retired under the run's floor.
    pub fn retired_partials(&self) -> usize {
        self.retired
    }

    /// Cached subset bound `t_M` for the subset with the given bitmask.
    pub fn subset_bound(&self, mask: u32) -> Option<f64> {
        self.subsets.iter().find(|s| s.mask == mask).map(|s| s.best)
    }

    /// Total number of partial combinations currently tracked.
    pub fn tracked_partials(&self) -> usize {
        self.subsets.iter().map(|s| s.partials.len()).sum()
    }

    /// Evaluates the completion bound `t(τ)` of one partial combination.
    ///
    /// The bound is the exact aggregate score of the optimal completion:
    /// the seen members in member order, then the unseen relations in
    /// ascending order. Under distance-based access, once the scratch lanes
    /// have grown, every intermediate lives in them or on the stack, so the
    /// only allocations left are those of `scoring.score_members` (none for
    /// [`EuclideanLogScore`](crate::scoring::EuclideanLogScore)).
    fn evaluate_partial<S: ScoringFunction>(
        &mut self,
        state: &JoinState,
        scoring: &S,
        subset_index: usize,
        partial_index: usize,
    ) -> f64 {
        self.solves += 1;
        let n = state.n();
        let query = state.query();
        let dim = query.dim();
        let Weights { w_q, w_mu, .. } = self.weights;
        let subset = &self.subsets[subset_index];
        let ranks = subset.ranks_of(partial_index);
        let m = subset.arity();
        debug_assert!(m < n, "proper subsets always have unseen relations");
        let unseen = || (0..n).filter(|&j| !subset.contains(j));

        let mut full: [Member<'_>; MAX_RELATIONS] = [(query, 0.0); MAX_RELATIONS];
        for (pos, &rel) in subset.members.iter().enumerate() {
            let tuple = state
                .buffer(rel)
                .get(ranks[pos])
                .expect("partial combination references an unseen rank");
            full[pos] = (&tuple.vector, tuple.score);
        }

        if self.ray.dim() != dim {
            self.ray = Vector::zeros(dim);
            self.unseen_points.clear();
        }
        // The centroid ν of the seen part, with `mean_centroid`'s arithmetic.
        let ray = &mut self.ray;
        if m > 0 {
            ray.as_mut_slice().fill(0.0);
            for (x, _) in &full[..m] {
                *ray += *x;
            }
            ray.scale_in_place(1.0 / m as f64);
        }

        match state.kind() {
            AccessKind::Score => {
                // Appendix C.2 closed form: all unseen tuples at y*, each with
                // the score of the last tuple seen from its relation.
                let nu = (m > 0).then_some(&*ray);
                let y = score_based_optimum(query, nu, m, n, w_q, w_mu);
                for (idx, j) in unseen().enumerate() {
                    full[m + idx] = (&y, state.buffer(j).unseen_score_bound());
                }
                scoring.score_members(&full[..n], query)
            }
            AccessKind::Distance => {
                // Theorem 3.4 reduction: optimal unseen locations lie on the
                // ray from the query through ν. Its unit direction
                // (ν − q)/‖ν − q‖ replaces ν in place; the canonical axis
                // stands in exactly where that ray has no direction.
                let mut directed = false;
                if m > 0 {
                    *ray -= query;
                    let norm = ray.norm();
                    if norm > f64::EPSILON {
                        ray.scale_in_place(1.0 / norm);
                        directed = true;
                    }
                }
                if !directed {
                    ray.as_mut_slice().fill(0.0);
                    ray[0] = 1.0;
                }
                let u = ray.as_slice();
                let q = query.as_slice();
                // Eq. 13 projections (x − q)·u of the seen members.
                self.projections.clear();
                self.projections.extend(full[..m].iter().map(|(x, _)| {
                    x.iter()
                        .zip(q)
                        .zip(u)
                        .map(|((x, q), u)| (x - q) * u)
                        .sum::<f64>()
                }));
                self.lower.clear();
                self.lower
                    .extend(unseen().map(|j| state.buffer(j).unseen_distance_bound()));
                self.lengths.clear();
                self.lengths.resize(n - m, 0.0);
                ray_optimum(&self.projections, &self.lower, w_q, w_mu, &mut self.lengths);
                // Eq. 15: the unseen tuples at q + u·θ.
                if self.unseen_points.len() < n {
                    self.unseen_points.resize_with(n, || Vector::zeros(dim));
                }
                for (point, &theta) in self.unseen_points.iter_mut().zip(&self.lengths) {
                    for ((p, q), u) in point.as_mut_slice().iter_mut().zip(q).zip(u) {
                        *p = q + u * theta;
                    }
                }
                for (idx, j) in unseen().enumerate() {
                    full[m + idx] = (
                        &self.unseen_points[idx],
                        state.buffer(j).unseen_score_bound(),
                    );
                }
                scoring.score_members(&full[..n], query)
            }
        }
    }

    /// Runs the LP dominance test over the non-dominated partial combinations
    /// of one subset (distance-based access only).
    fn run_dominance_tests(&mut self, state: &JoinState, subset_index: usize) {
        let started = Instant::now();
        let n = state.n();
        let subset = &self.subsets[subset_index];
        if subset.arity() == 0 || subset.partials.len() < 2 {
            return;
        }
        let unseen_sigma: Vec<f64> = (0..n)
            .filter(|j| !subset.contains(*j))
            .map(|j| state.buffer(j).unseen_score_bound())
            .collect();
        // Coefficients for every non-dominated partial combination.
        let coeffs: Vec<Option<DominanceCoefficients>> = subset
            .partials
            .iter()
            .enumerate()
            .map(|(idx, p)| {
                if p.dominated {
                    None
                } else {
                    let seen: Vec<(&Vector, f64)> = subset
                        .members
                        .iter()
                        .zip(subset.ranks_of(idx).iter())
                        .map(|(&rel, &rank)| {
                            let t = state.buffer(rel).get(rank).expect("seen rank");
                            (&t.vector, t.score)
                        })
                        .collect();
                    Some(dominance_coefficients(
                        state.query(),
                        &seen,
                        &unseen_sigma,
                        n,
                        self.weights,
                    ))
                }
            })
            .collect();
        let mut newly_dominated = Vec::new();
        for (idx, maybe) in coeffs.iter().enumerate() {
            let Some(alpha) = maybe else { continue };
            let others: Vec<&DominanceCoefficients> = coeffs
                .iter()
                .enumerate()
                .filter(|(j, c)| *j != idx && c.is_some() && !newly_dominated.contains(j))
                .map(|(_, c)| c.as_ref().unwrap())
                .collect();
            self.dominance_tests += 1;
            if is_dominated(alpha, &others) {
                newly_dominated.push(idx);
            }
        }
        let subset = &mut self.subsets[subset_index];
        for idx in newly_dominated {
            subset.partials[idx].dominated = true;
            self.dominated += 1;
        }
        self.dominance_time += started.elapsed();
    }
}

impl<S: ScoringFunction> BoundingScheme<S> for TightBound {
    fn update(&mut self, state: &JoinState, scoring: &S, accessed: Option<usize>) -> f64 {
        let n = state.n();
        debug_assert_eq!(self.potentials.len(), n);
        self.depths.clear();
        self.depths.extend((0..n).map(|i| state.depth(i)));

        // Grow the registries with combinations using the new tuple.
        if let Some(i) = accessed {
            self.access_count += 1;
            let new_rank = self.depths[i] - 1;
            for subset in &mut self.subsets {
                if subset.contains(i) {
                    subset.extend_with_new_tuple(i, new_rank, &self.depths);
                }
            }
        }

        let run_dominance = state.kind() == AccessKind::Distance
            && accessed.is_some()
            && self
                .config
                .dominance_period
                .is_some_and(|p| self.access_count.is_multiple_of(p.max(1)));

        for subset_index in 0..self.subsets.len() {
            // Feasibility: the subset only describes potential results if every
            // relation outside M can still produce unseen tuples.
            let feasible = (0..n)
                .filter(|j| !self.subsets[subset_index].contains(*j))
                .all(|j| !state.buffer(j).is_exhausted());
            if !feasible {
                self.subsets[subset_index].best = f64::NEG_INFINITY;
                continue;
            }
            // Batched pass 1: stream over the subset's contiguous ranks
            // lane and gather the partials that must be (re)evaluated —
            // no per-partial allocation or branching on scattered state.
            let subset = &self.subsets[subset_index];
            let accessed_pos = accessed.map(|i| (i, subset.member_position(i)));
            self.eval_queue.clear();
            for (partial_index, partial) in subset.partials.iter().enumerate() {
                if partial.dominated || partial.retired {
                    continue;
                }
                let uses_new = match accessed_pos {
                    // Partial uses the newly retrieved tuple of R_i.
                    Some((i, Some(pos))) => {
                        subset.ranks_of(partial_index)[pos] == self.depths[i] - 1
                    }
                    // R_i is unseen for this subset: its access
                    // frontier moved, so the bound must be refreshed.
                    Some((_, None)) => true,
                    None => false,
                };
                if partial.needs_evaluation() || uses_new {
                    self.eval_queue.push(partial_index);
                }
            }
            // Pass 2: evaluate the gathered batch.
            let queue = std::mem::take(&mut self.eval_queue);
            for &partial_index in &queue {
                let value = self.evaluate_partial(state, scoring, subset_index, partial_index);
                self.subsets[subset_index].partials[partial_index].bound = value;
            }
            self.eval_queue = queue;
            if run_dominance && accessed.is_some_and(|i| self.subsets[subset_index].contains(i)) {
                self.run_dominance_tests(state, subset_index);
            }
            // Score-based access: Algorithm 3 keeps only the best partial
            // combination per subset; the relative order of completion bounds
            // is invariant under further accesses, so the rest can be flagged
            // as dominated permanently.
            if state.kind() == AccessKind::Score {
                let subset = &mut self.subsets[subset_index];
                let best = subset
                    .partials
                    .iter()
                    .filter(|p| !p.dominated && !p.bound.is_nan())
                    .map(|p| p.bound)
                    .fold(f64::NEG_INFINITY, f64::max);
                if best.is_finite() {
                    for p in &mut subset.partials {
                        if !p.dominated && !p.bound.is_nan() && p.bound < best {
                            p.dominated = true;
                            self.dominated += 1;
                        }
                    }
                }
            }
            // t_M = max over the non-dominated partial combinations, retiring
            // those the floor shows can never matter again. A retired partial
            // keeps counting with its last value, which lies below the floor.
            let floor = self.floor;
            let subset = &mut self.subsets[subset_index];
            let mut best = f64::NEG_INFINITY;
            for p in &mut subset.partials {
                if p.dominated || p.bound.is_nan() {
                    continue;
                }
                if !p.retired && below_floor(floor, p.bound) {
                    p.retired = true;
                    self.retired += 1;
                }
                best = best.max(p.bound);
            }
            if best == f64::NEG_INFINITY {
                // Either nothing has been evaluated yet (no combinations can be
                // formed for this subset) or — defensively — everything was
                // flagged dominated; fall back to every cached value.
                best = subset
                    .partials
                    .iter()
                    .filter(|p| !p.bound.is_nan())
                    .map(|p| p.bound)
                    .fold(f64::NEG_INFINITY, f64::max);
            }
            subset.best = best;
        }

        // Overall bound (Eq. 9) and per-relation potentials (Sec. 3.3).
        let mut bound = f64::NEG_INFINITY;
        for subset in &self.subsets {
            bound = bound.max(subset.best);
        }
        for i in 0..n {
            self.potentials[i] = if state.buffer(i).is_exhausted() {
                f64::NEG_INFINITY
            } else {
                self.subsets
                    .iter()
                    .filter(|s| !s.contains(i))
                    .map(|s| s.best)
                    .fold(f64::NEG_INFINITY, f64::max)
            };
        }
        self.bound = bound;
        bound
    }

    /// Records the floor under which `update` retires partial combinations.
    ///
    /// A partial with completion bound `b` is retired once
    /// `kth >= lift(b) + tolerance`, `lift(b) = b + 1e-9·max(1, |b|)`: the
    /// operator's own termination test, with `b` lifted by a margin. A
    /// margin only costs pruning. Why retiring never changes the run:
    ///
    /// * Completion bounds do not increase as depths grow (the unseen
    ///   frontiers only tighten), and `kth` never decreases, so the value
    ///   the partial would take in any later update stays below the test.
    ///   The relative part of the margin absorbs the closed form's rounding,
    ///   which need not be monotone bit for bit.
    /// * A retired partial keeps counting in `t_M` with its last value,
    ///   which lies below the test, so a subset whose partials all retire
    ///   never falls back to the stale values of dominated ones. While the
    ///   run goes on, `kth < t + tolerance`, so `t` is attained by a partial
    ///   that is not retired and keeps its bits, as does every potential
    ///   that could pass the test. Where the unpruned run stops, this one
    ///   stops at the same test; only the bound it then reports may differ,
    ///   and that bound still certifies the stop.
    /// * A potential that retirement changes stays more than the margin,
    ///   at least 1e-9, below `t`. Potential-adaptive pulling ties within
    ///   1e-12, and a chain of ties over fewer than 32 relations drifts its
    ///   pick at most 31·1e-12 below `t`. So such a potential is never
    ///   picked and never decides which relation is: the pull sequence, the
    ///   depths and the rows are those of the unpruned run.
    fn set_floor(&mut self, kth: f64, tolerance: f64) {
        self.floor = Some((kth, tolerance));
    }

    fn bound(&self) -> f64 {
        self.bound
    }

    fn potential(&self, i: usize) -> f64 {
        self.potentials[i]
    }

    fn dominance_time(&self) -> Duration {
        self.dominance_time
    }

    fn dominated_count(&self) -> usize {
        self.dominated
    }

    fn name(&self) -> &'static str {
        "TB"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::CornerBound;
    use crate::scoring::EuclideanLogScore;
    use prj_access::{Tuple, TupleId};

    fn push(state: &mut JoinState, rel: usize, idx: usize, x: [f64; 2], score: f64) {
        state.push_tuple(
            rel,
            Tuple::new(TupleId::new(rel, idx), Vector::from(x), score),
        );
    }

    /// Builds the Table 1 state (two tuples seen from each of the three
    /// relations, distance-based access) and a tight bound updated in access
    /// order.
    fn table1_state() -> (JoinState, TightBound, EuclideanLogScore) {
        let scoring = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let mut state = JoinState::new(
            Vector::from([0.0, 0.0]),
            AccessKind::Distance,
            &[1.0, 1.0, 1.0],
        );
        let mut tb = TightBound::new(3, scoring.weights(), TightBoundConfig::default());
        // Distance order per relation: R1: 0.5, 1; R2: √2, 2√2; R3: √2, 2√2.
        let accesses: [(usize, usize, [f64; 2], f64); 6] = [
            (0, 0, [0.0, -0.5], 0.5),
            (1, 0, [1.0, 1.0], 1.0),
            (2, 0, [-1.0, 1.0], 1.0),
            (0, 1, [0.0, 1.0], 1.0),
            (1, 1, [-2.0, 2.0], 0.8),
            (2, 1, [-2.0, -2.0], 0.4),
        ];
        for (rel, idx, x, score) in accesses {
            push(&mut state, rel, idx, x, score);
            tb.update(&state, &scoring, Some(rel));
        }
        (state, tb, scoring)
    }

    /// Example 3.1 / Table 3: the tight bound for the Table 1 state is −7,
    /// achieved by completing τ2^(1) × τ3^(1).
    #[test]
    fn table3_overall_bound_is_minus_seven() {
        let (_, tb, _) = table1_state();
        let bound = BoundingScheme::<EuclideanLogScore>::bound(&tb);
        assert!((bound - (-7.0)).abs() < 0.05, "t = {bound}");
    }

    /// Table 3 subset bounds t_M (relations are 0-indexed; the paper's
    /// {1},{2},{3} are masks 0b001, 0b010, 0b100).
    #[test]
    fn table3_subset_bounds() {
        let (_, tb, _) = table1_state();
        let cases = [
            (0b000u32, -19.2),
            (0b001, -19.2),
            (0b010, -12.8),
            (0b100, -12.8),
            (0b011, -13.5),
            (0b101, -13.5),
            (0b110, -7.0),
        ];
        for (mask, expected) in cases {
            let got = tb.subset_bound(mask).unwrap();
            assert!(
                (got - expected).abs() < 0.1,
                "t_M for mask {mask:#05b}: expected {expected}, got {got}"
            );
        }
    }

    /// Example 3.2: the completion bound of the partial combination τ2^(1)
    /// alone is −12.8 and of τ1^(1) × τ3^(1) is −16.
    #[test]
    fn example_3_2_partial_bounds() {
        let (state, mut tb, scoring) = table1_state();
        // mask 0b010 = {R2}; the partial with rank 0 is τ2^(1).
        let s_idx = tb.subsets.iter().position(|s| s.mask == 0b010).unwrap();
        let p_idx = (0..tb.subsets[s_idx].partials.len())
            .find(|&i| tb.subsets[s_idx].ranks_of(i) == [0])
            .unwrap();
        let v = tb.evaluate_partial(&state, &scoring, s_idx, p_idx);
        assert!((v - (-12.8)).abs() < 0.1, "t(τ2^(1)) = {v}");
        // mask 0b101 = {R1, R3}; the partial with ranks [0, 0] is τ1^(1) × τ3^(1).
        let s_idx = tb.subsets.iter().position(|s| s.mask == 0b101).unwrap();
        let p_idx = (0..tb.subsets[s_idx].partials.len())
            .find(|&i| tb.subsets[s_idx].ranks_of(i) == [0, 0])
            .unwrap();
        let v = tb.evaluate_partial(&state, &scoring, s_idx, p_idx);
        assert!((v - (-16.0)).abs() < 0.1, "t(τ1^(1) × τ3^(1)) = {v}");
    }

    /// The cached completion bounds maintained incrementally over the flat
    /// SoA ranks lane must be *bit-identical* to evaluating every partial
    /// combination from scratch against the same state — the in-place
    /// bound-update rewrite must not perturb a single float operation.
    #[test]
    fn cached_bounds_are_bit_identical_to_fresh_evaluation() {
        let (state, mut tb, scoring) = table1_state();
        for s_idx in 0..tb.subsets.len() {
            for p_idx in 0..tb.subsets[s_idx].partials.len() {
                let partial = &tb.subsets[s_idx].partials[p_idx];
                if partial.dominated || partial.bound.is_nan() {
                    continue;
                }
                let cached = partial.bound;
                let fresh = tb.evaluate_partial(&state, &scoring, s_idx, p_idx);
                assert_eq!(
                    cached.to_bits(),
                    fresh.to_bits(),
                    "subset {:#b} partial {p_idx}: cached {cached} != fresh {fresh}",
                    tb.subsets[s_idx].mask
                );
            }
        }
    }

    /// The tight bound never exceeds the corner bound (it uses strictly more
    /// information), here verified on the Table 1 state after every access.
    #[test]
    fn tight_bound_never_exceeds_corner_bound() {
        let scoring = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let mut state = JoinState::new(
            Vector::from([0.0, 0.0]),
            AccessKind::Distance,
            &[1.0, 1.0, 1.0],
        );
        let mut tb = TightBound::new(3, scoring.weights(), TightBoundConfig::default());
        let mut cb = CornerBound::new(3);
        let accesses: [(usize, usize, [f64; 2], f64); 6] = [
            (0, 0, [0.0, -0.5], 0.5),
            (1, 0, [1.0, 1.0], 1.0),
            (2, 0, [-1.0, 1.0], 1.0),
            (0, 1, [0.0, 1.0], 1.0),
            (1, 1, [-2.0, 2.0], 0.8),
            (2, 1, [-2.0, -2.0], 0.4),
        ];
        for (rel, idx, x, score) in accesses {
            push(&mut state, rel, idx, x, score);
            let t = tb.update(&state, &scoring, Some(rel));
            let c = cb.update(&state, &scoring, Some(rel));
            assert!(
                t <= c + 1e-9,
                "tight bound {t} exceeds corner bound {c} after accessing R{rel}[{idx}]"
            );
        }
    }

    /// Example 3.1's punchline: after seeing Table 1 the tight bound certifies
    /// the seen combination of score −7 as top-1 while the corner bound (−5)
    /// cannot.
    #[test]
    fn tight_bound_certifies_top1_where_corner_cannot() {
        let (state, tb, scoring) = table1_state();
        let mut cb = CornerBound::new(3);
        let corner = cb.update(&state, &scoring, None);
        let tight = BoundingScheme::<EuclideanLogScore>::bound(&tb);
        let best_seen = -7.0;
        assert!(tight <= best_seen + 0.05);
        assert!(corner > best_seen);
    }

    #[test]
    fn potentials_exclude_subsets_containing_the_relation() {
        let (_, tb, _) = table1_state();
        // pot_1 (relation index 0) = max over subsets not containing 0
        // = max(t_∅, t_{R2}, t_{R3}, t_{R2,R3}) = −7.
        let p0 = BoundingScheme::<EuclideanLogScore>::potential(&tb, 0);
        assert!((p0 - (-7.0)).abs() < 0.05, "pot_1 = {p0}");
        // pot_2 = max(t_∅, t_{R1}, t_{R3}, t_{R1,R3}) = −12.8.
        let p1 = BoundingScheme::<EuclideanLogScore>::potential(&tb, 1);
        assert!((p1 - (-12.8)).abs() < 0.1, "pot_2 = {p1}");
        let p2 = BoundingScheme::<EuclideanLogScore>::potential(&tb, 2);
        assert!((p2 - (-12.8)).abs() < 0.1, "pot_3 = {p2}");
    }

    #[test]
    fn exhaustion_removes_subsets() {
        let (mut state, mut tb, scoring) = table1_state();
        // Exhaust R2 (index 1): subsets that need unseen tuples from R2 become
        // infeasible, including {R2, R3}'s complement... i.e. all M with 1 ∉ M.
        state.mark_exhausted(1);
        let bound = tb.update(&state, &scoring, None);
        // Remaining feasible subsets are those containing relation 1:
        // {R2}, {R1,R2}, {R2,R3} -> best was t_{R2,R3} = -7.
        assert!((bound - (-7.0)).abs() < 0.1, "bound = {bound}");
        assert_eq!(
            BoundingScheme::<EuclideanLogScore>::potential(&tb, 1),
            f64::NEG_INFINITY
        );
        // Exhausting everything drives the bound to −∞.
        state.mark_exhausted(0);
        state.mark_exhausted(2);
        let bound = tb.update(&state, &scoring, None);
        assert_eq!(bound, f64::NEG_INFINITY);
    }

    #[test]
    fn dominance_pruning_does_not_change_the_bound() {
        let scoring = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let mk = |dominance: Option<usize>| {
            let mut state =
                JoinState::new(Vector::from([0.0, 0.0]), AccessKind::Distance, &[1.0, 1.0]);
            let mut tb = TightBound::new(
                2,
                scoring.weights(),
                TightBoundConfig {
                    dominance_period: dominance,
                },
            );
            let pts: [(usize, [f64; 2], f64); 8] = [
                (0, [0.1, 0.0], 0.9),
                (1, [0.0, 0.2], 0.8),
                (0, [0.5, 0.4], 0.7),
                (1, [-0.6, 0.1], 0.95),
                (0, [0.9, -0.8], 0.4),
                (1, [1.0, 1.1], 0.6),
                (0, [-1.5, 0.3], 0.85),
                (1, [1.4, -1.2], 0.5),
            ];
            let mut counters = [0usize; 2];
            let mut bounds = Vec::new();
            for (rel, x, score) in pts {
                push(&mut state, rel, counters[rel], x, score);
                counters[rel] += 1;
                bounds.push(tb.update(&state, &scoring, Some(rel)));
            }
            (bounds, tb)
        };
        let (without, _) = mk(None);
        let (with, tb_with) = mk(Some(1));
        for (a, b) in without.iter().zip(with.iter()) {
            assert!(
                (a - b).abs() < 1e-6,
                "dominance changed the bound: {a} vs {b}"
            );
        }
        // With period 1 on this workload at least one partial should get pruned
        // eventually; if not, the test still validated bound equality.
        let _ = BoundingScheme::<EuclideanLogScore>::dominated_count(&tb_with);
    }

    #[test]
    fn score_based_bound_decreases_and_tracks_best() {
        let scoring = EuclideanLogScore::new(1.0, 1.0, 1.0);
        let mut state = JoinState::new(Vector::from([0.0, 0.0]), AccessKind::Score, &[1.0, 1.0]);
        let mut tb = TightBound::new(2, scoring.weights(), TightBoundConfig::default());
        let initial = tb.update(&state, &scoring, None);
        // Nothing seen: both unseen tuples may sit on the query with score 1.
        assert!((initial - 0.0).abs() < 1e-9);
        push(&mut state, 0, 0, [1.0, 0.0], 0.9);
        let b1 = tb.update(&state, &scoring, Some(0));
        assert!(b1 <= initial + 1e-9);
        push(&mut state, 1, 0, [0.0, 2.0], 0.8);
        let b2 = tb.update(&state, &scoring, Some(1));
        assert!(b2 <= b1 + 1e-9);
        push(&mut state, 0, 1, [3.0, 0.0], 0.5);
        let b3 = tb.update(&state, &scoring, Some(0));
        assert!(b3 <= b2 + 1e-9);
        assert!(tb.optimizations_solved() > 0);
    }
}
