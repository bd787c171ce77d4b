//! The ProxRJ operator (paper Algorithm 1).
//!
//! `ProxRJ` is a pull/bound template: at every step a *pulling strategy*
//! chooses the relation to access, the newly retrieved tuple is joined (cross
//! product) with the seen prefixes of the other relations, the resulting
//! combinations are pushed into a top-K output buffer, and a *bounding
//! scheme* recomputes an upper bound `t` on the score of any combination
//! still using an unseen tuple. The operator stops as soon as the K-th best
//! retained score reaches `t` (or every relation is exhausted).
//!
//! Two drivers share the same stepping core:
//!
//! * [`execute`] — run to completion and return the full top-K
//!   ([`RankJoinResult`]), the original one-shot entry point;
//! * [`StreamingRun`] — an owned, `Send` run that can be stepped
//!   incrementally: [`StreamingRun::next_certified`] performs only as many
//!   sorted accesses as needed to certify the *next* result, mirroring the
//!   paper's incremental pulling model. This is the entry point the
//!   `prj-engine` serving layer uses.
//!
//! Both inner loops are pruned by the running K-th score, exactly:
//!
//! * **Solo bound.** Under a scoring whose [`euclidean_weights`] is `Some`,
//!   each member's term `g(σ, δ(x, q), δ(x, μ))` does not increase with
//!   `δ(x, μ)` (Eq. 1–2), so a tuple's *solo* score `g(σ, δ(x, q), 0)` bounds
//!   its term in every combination. Once the output buffer is full, a
//!   combination whose solo sum is strictly below the K-th score is never
//!   scored, and a new tuple whose solo score cannot lift any combination
//!   to the K-th score is joined with nothing (see `form_combinations`).
//! * **Floor.** Before each bound update the operator hands the bounding
//!   scheme the K-th score ([`BoundingScheme::set_floor`]); the tight bound
//!   retires the partial combinations that can never again reach the
//!   termination test.
//!
//! Neither changes what the operator reads or returns: depths, bound
//! updates, the pull sequence and the rows are those of the unpruned run;
//! only `combinations_formed` counts fewer scored combinations.
//!
//! [`euclidean_weights`]: crate::scoring::ScoringFunction::euclidean_weights

use crate::bounds::BoundingScheme;
use crate::combination::{ScoredCombination, TopKBuffer};
use crate::problem::Problem;
use crate::pull::PullStrategy;
use crate::scoring::{solo_score, solo_weights, ScoringFunction};
use crate::state::JoinState;
use prj_access::{AccessStats, Tuple, TupleId};
use prj_geometry::Vector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One sample of the bound-convergence profile: the state of the
/// certification race between the K-th retained score and the upper bound
/// `t` at a given access depth. A run terminates exactly when `kth_score`
/// strictly dominates `bound`, so plotting these points shows *why* an
/// execution stopped where it did (or why it had to read deep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Total sorted accesses performed when the sample was taken
    /// (`sumDepths` at this instant).
    pub depth: u64,
    /// The K-th best retained score, or `-inf` while fewer than K
    /// combinations have been formed.
    pub kth_score: f64,
    /// The upper bound `t` on any combination still using an unseen tuple.
    pub bound: f64,
}

/// Hard cap on captured trajectory points per run, so a pathological deep
/// run cannot balloon the profile (the sampling stride already spaces the
/// points; this is a backstop).
const MAX_TRAJECTORY_POINTS: usize = 4096;

/// Instrumentation collected during one ProxRJ execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunMetrics {
    /// Wall-clock time spent actively executing the operator, dominated by
    /// bound computation and combination formation. For an incremental
    /// [`StreamingRun`] this excludes time spent idle between
    /// [`StreamingRun::next_certified`] calls, so it measures engine work,
    /// not consumer pacing; for [`execute`] the two coincide.
    pub total_time: Duration,
    /// Wall-clock time spent inside `updateBound`.
    pub bound_time: Duration,
    /// Wall-clock time spent in dominance tests (subset of `bound_time`).
    pub dominance_time: Duration,
    /// Number of `updateBound` invocations.
    pub bound_updates: usize,
    /// Number of combinations formed (cross-product members scored). A
    /// combination the solo bound rules out is never scored and not counted.
    pub combinations_formed: usize,
    /// Number of partial combinations flagged as dominated.
    pub dominated_partials: usize,
    /// The final value of the upper bound when the operator stopped.
    pub final_bound: f64,
    /// `true` when the run stopped because of the configured access cap
    /// rather than the termination condition.
    pub hit_access_cap: bool,
    /// Sampled bound-convergence profile; empty unless
    /// [`ProxRjConfig::convergence_every`](crate::problem::ProxRjConfig::convergence_every)
    /// is non-zero.
    pub trajectory: Vec<TrajectoryPoint>,
}

/// The outcome of a proximity rank join execution.
#[derive(Debug, Clone)]
pub struct RankJoinResult {
    /// The top-K combinations, best first.
    pub combinations: Vec<ScoredCombination>,
    /// Per-relation depths (the `sumDepths` metric).
    pub stats: AccessStats,
    /// Instrumentation.
    pub metrics: RunMetrics,
}

impl RankJoinResult {
    /// The `sumDepths` I/O cost of the run.
    pub fn sum_depths(&self) -> usize {
        self.stats.sum_depths()
    }

    /// The best (highest) score returned, if any.
    pub fn best_score(&self) -> Option<f64> {
        self.combinations.first().map(|c| c.score)
    }

    /// The sampled bound-convergence profile (empty unless capture was
    /// enabled via [`ProxRjConfig::convergence_every`](crate::problem::ProxRjConfig::convergence_every)).
    pub fn trajectory(&self) -> &[TrajectoryPoint] {
        &self.metrics.trajectory
    }

    /// `true` when the result is certified exact for `top_k(k)`: either the
    /// `k`-th retained score reaches the final bound (within `tolerance`),
    /// or fewer than `k` combinations exist at all and the bound collapsed
    /// to `−∞` (exhaustion). This is the validity condition the `sumDepths`
    /// metric is reported under — the run stopped *because* nothing unseen
    /// could improve the answer, not because it gave up.
    pub fn certifies_top_k(&self, k: usize, tolerance: f64) -> bool {
        if self.metrics.hit_access_cap {
            return false;
        }
        if self.combinations.len() < k {
            return self.metrics.final_bound == f64::NEG_INFINITY;
        }
        match self.combinations.get(k.saturating_sub(1)) {
            Some(kth) => kth.score >= self.metrics.final_bound - tolerance,
            None => true, // k == 0: nothing to certify
        }
    }
}

/// The stepping core shared by [`execute`] and [`StreamingRun`]: the mutable
/// state of one in-flight Algorithm 1 run, minus the problem / bound / pull,
/// which the caller owns (so the core can be driven through either borrowed
/// or owned handles).
struct RunCore {
    k: usize,
    config: crate::problem::ProxRjConfig,
    n: usize,
    /// Shared handle to the query vector — refcounted with the problem and
    /// the join state instead of deep-copied per run.
    query: Arc<Vector>,
    state: JoinState,
    output: TopKBuffer,
    stats: AccessStats,
    metrics: RunMetrics,
    t: f64,
    /// Identities of the results already handed out by `next_certified`,
    /// in emission order, flattened with stride `n`. Tracked by identity
    /// rather than by buffer index: a late near-tie can insert ahead of an
    /// already-emitted entry and shift buffer positions.
    emitted: Vec<TupleId>,
    done: bool,
    /// Scratch lane for the per-relation bound potentials, refilled in
    /// place on every step instead of reallocated.
    potentials: Vec<f64>,
    /// Scratch for combination formation: the indices of the relations
    /// other than the newly accessed one, and the mixed-radix counters
    /// enumerating their seen prefixes.
    combo_others: Vec<usize>,
    combo_counters: Vec<usize>,
    /// Per-relation solo-score lanes, aligned with the join state's
    /// buffers by access rank, and each relation's best solo score so far
    /// (NaN once any of its solo scores is NaN). Both stay empty when the
    /// scoring does not opt in to solo-bound pruning.
    solo: Vec<Vec<f64>>,
    best_solo: Vec<f64>,
    /// Time spent actively stepping the operator (excludes any time an
    /// incremental run sits idle between `next_certified` calls).
    work_time: Duration,
    /// The last clock read of the current driving call (`execute`,
    /// `next_certified`, `into_result`): each bound update charges the work
    /// since it, so a sorted access costs two clock reads.
    clock: Instant,
}

impl RunCore {
    /// Sets up the run and computes the initial bound (nothing read yet, so
    /// this is the best conceivable score).
    fn new<S: ScoringFunction>(problem: &Problem<S>, bound: &mut dyn BoundingScheme<S>) -> RunCore {
        let setup_started = Instant::now();
        let n = problem.num_relations();
        let k = problem.k();
        let config = problem.config();
        // Refcount bumps, not coordinate copies: the problem, the run core
        // and the join state all share one query allocation.
        let query = Arc::clone(problem.query_shared());
        let kind = problem.access_kind();
        let max_scores = problem.relations().max_scores();

        let state = JoinState::new(Arc::clone(&query), kind, &max_scores);
        // Solo-bound pruning needs the Eq. 2 form `euclidean_weights`
        // promises (see `solo_score`).
        let lanes = if solo_weights(problem.scoring()).is_some() {
            n
        } else {
            0
        };
        let mut core = RunCore {
            k,
            config,
            n,
            query,
            state,
            output: TopKBuffer::new(k),
            stats: AccessStats::new(n),
            metrics: RunMetrics::default(),
            t: f64::INFINITY,
            emitted: Vec::new(),
            done: false,
            potentials: Vec::with_capacity(n),
            combo_others: Vec::with_capacity(n),
            combo_counters: Vec::with_capacity(n),
            solo: vec![Vec::new(); lanes],
            best_solo: vec![f64::NEG_INFINITY; lanes],
            work_time: Duration::ZERO,
            clock: setup_started,
        };
        core.update_bound(problem, bound, None);
        core
    }

    /// Starts the clock: the first read of a driving call.
    fn start_clock(&mut self) {
        self.clock = Instant::now();
    }

    /// Charges the work since the last clock read to the work time, and
    /// restarts the clock there.
    fn charge_work(&mut self) {
        let now = Instant::now();
        self.work_time += now.duration_since(self.clock);
        self.clock = now;
    }

    /// Recomputes the bound `t` (Algorithm 1, line 9) after relation
    /// `updated` was read (`None`: nothing read, or a relation ran dry).
    /// Two clock reads, one on each side of `updateBound`; the second
    /// charges the work since the previous read, the update included.
    fn update_bound<S: ScoringFunction>(
        &mut self,
        problem: &Problem<S>,
        bound: &mut dyn BoundingScheme<S>,
        updated: Option<usize>,
    ) {
        let started = Instant::now();
        self.t = bound.update(&self.state, problem.scoring(), updated);
        self.charge_work();
        self.metrics.bound_time += self.clock.duration_since(started);
        self.metrics.bound_updates += 1;
    }

    /// One iteration of Algorithm 1's main loop. Returns `false` once the
    /// run has terminated (certified top-K, access cap, or exhaustion). Its
    /// work time is charged by the next clock read of the driving call.
    fn step<S: ScoringFunction>(
        &mut self,
        problem: &mut Problem<S>,
        bound: &mut dyn BoundingScheme<S>,
        pull: &mut dyn PullStrategy,
    ) -> bool {
        if self.done {
            return false;
        }
        // Termination (Algorithm 1, line 3): K results whose worst score
        // *strictly dominates* the bound on anything still unseen (beyond
        // the numerical tolerance). Requiring strict dominance instead of
        // the paper's `≥` makes the returned set deterministic under score
        // ties: an unseen combination tying the K-th score keeps the bound
        // at that score, so the run reads on until every tying combination
        // has been formed and the by-id tie-break (the paper leaves the
        // criterion open) resolves them — independent of traversal order,
        // pulling strategy, or shard layout. With distinct scores the bound
        // drops strictly below the K-th score anyway, so this reads no
        // deeper on generic inputs.
        if self.output.len() >= self.k
            && self.output.kth_score() >= self.t + self.config.termination_tolerance
        {
            self.done = true;
            return false;
        }
        if let Some(cap) = self.config.max_accesses {
            if self.stats.sum_depths() >= cap {
                self.metrics.hit_access_cap = true;
                self.done = true;
                return false;
            }
        }
        // Pulling strategy (line 4). The potentials lane is refilled in
        // place — this runs once per sorted access.
        self.potentials.clear();
        self.potentials
            .extend((0..self.n).map(|i| bound.potential(i)));
        let Some(i) = pull.choose_input(&self.state, &self.potentials) else {
            // Every relation is exhausted: the retained top-K is exact.
            self.done = true;
            return false;
        };
        // Sorted access (line 5).
        match problem.relations_mut().relation_mut(i).next_tuple() {
            None => {
                self.state.mark_exhausted(i);
                self.hand_floor(bound);
                self.update_bound(problem, bound, None);
            }
            Some(tuple) => {
                self.stats.record_access(i);
                // The tuple's distance from the query under the aggregation
                // function's own metric δ, which its solo score reuses.
                let dist = problem.scoring().distance(&tuple.vector, &self.query);
                let solo = solo_score(problem.scoring(), tuple.score, &tuple.vector, dist);
                // Join with the seen prefixes of the other relations (line 6–7),
                // *before* adding the new tuple to its own buffer.
                let formed = self.form_combinations(problem.scoring(), i, &tuple, solo);
                self.metrics.combinations_formed += formed;
                // Line 8: add the tuple to P_i.
                self.state.push_tuple_with_distance(i, tuple, dist);
                if let Some(lane) = self.solo.get_mut(i) {
                    lane.push(solo);
                    let best = &mut self.best_solo[i];
                    *best = if solo.is_nan() || best.is_nan() {
                        f64::NAN
                    } else {
                        best.max(solo)
                    };
                }
                // Line 9: update the bound.
                self.hand_floor(bound);
                self.update_bound(problem, bound, Some(i));
                // Convergence capture: one predictable branch when disabled
                // (the common case), a stride-gated push when on.
                if self.config.convergence_every != 0 {
                    let depth = self.stats.sum_depths();
                    if depth.is_multiple_of(self.config.convergence_every) {
                        self.sample_trajectory(depth);
                    }
                }
            }
        }
        true
    }

    /// Records one bound-convergence sample at the given access depth.
    /// Consecutive duplicates at the same depth are collapsed and the
    /// profile is capped at [`MAX_TRAJECTORY_POINTS`].
    fn sample_trajectory(&mut self, depth: usize) {
        if self.metrics.trajectory.len() >= MAX_TRAJECTORY_POINTS {
            return;
        }
        if let Some(last) = self.metrics.trajectory.last() {
            if last.depth == depth as u64 {
                return;
            }
        }
        let kth_score = if self.output.len() >= self.k {
            self.output.kth_score()
        } else {
            f64::NEG_INFINITY
        };
        self.metrics.trajectory.push(TrajectoryPoint {
            depth: depth as u64,
            kth_score,
            bound: self.t,
        });
    }

    /// Steps until the next result is *certified* — its retained score
    /// reaches the bound on anything still unseen — and returns it. Returns
    /// the remaining buffered results once the run has terminated, then
    /// `None`.
    fn next_certified<S: ScoringFunction>(
        &mut self,
        problem: &mut Problem<S>,
        bound: &mut dyn BoundingScheme<S>,
        pull: &mut dyn PullStrategy,
    ) -> Option<ScoredCombination> {
        self.start_clock();
        let next = loop {
            // The best buffered entry not yet emitted, located by identity:
            // a near-tie formed later can insert *ahead* of emitted entries
            // (ids break exact ties), so buffer indexes are not stable.
            let next = self
                .output
                .as_slice()
                .iter()
                .find(|c| !self.is_emitted(c))
                .cloned();
            if let Some(combo) = next {
                // The entry is final once nothing unseen can beat *or tie*
                // it: every future combination uses at least one unseen
                // tuple and therefore scores at most `t`, so strict
                // dominance over `t` certifies both the score rank and the
                // by-id tie-break (an unseen tie could win on ids; see
                // `step`).
                if self.done || combo.score >= self.t + self.config.termination_tolerance {
                    self.emitted.extend(combo.tuples.iter().map(|t| t.id));
                    break Some(combo);
                }
            } else if self.done {
                break None;
            }
            self.step(problem, bound, pull);
        };
        self.charge_work();
        next
    }

    /// `true` when `combo` has already been handed out by `next_certified`.
    /// The emitted list is a flat `TupleId` lane with stride `n`, scanned
    /// without materialising per-candidate id vectors.
    fn is_emitted(&self, combo: &ScoredCombination) -> bool {
        self.emitted.chunks_exact(self.n).any(|ids| {
            ids.iter()
                .zip(combo.tuples.iter())
                .all(|(id, t)| *id == t.id)
        })
    }

    /// Number of results already handed out by `next_certified`.
    fn emitted_count(&self) -> usize {
        self.emitted.len() / self.n
    }

    /// Hands the bounding scheme the K-th score as its floor, once the
    /// output buffer is full (see [`BoundingScheme::set_floor`]).
    fn hand_floor<S: ScoringFunction>(&self, bound: &mut dyn BoundingScheme<S>) {
        if self.output.is_full() {
            bound.set_floor(self.output.kth_score(), self.config.termination_tolerance);
        }
    }

    /// Forms the combinations `P_1 × … × {new} × … × P_n` that can enter the
    /// top-K buffer, scores them and pushes them into it (Algorithm 1 lines
    /// 6–7). Returns the number of combinations scored.
    ///
    /// Once the buffer is full, its K-th score `kth` prunes, exactly: the
    /// solo scores summed from zero in member order bound a combination's
    /// score bit for bit (see [`solo_score`]), and substituting each other
    /// relation's best solo score bounds every combination with the new
    /// tuple at once. A combination whose bound is strictly below `kth`
    /// scores strictly below it too, and the buffer would reject it
    /// (`!(score < kth)` below); ties and NaN are still scored.
    ///
    /// The hot path scores each combination straight from the buffer-resident
    /// tuples; member tuples are cloned only when the score can actually
    /// enter the top-K buffer. The enumeration scratch (`combo_others`,
    /// `combo_counters`) is reused across calls.
    fn form_combinations<S: ScoringFunction>(
        &mut self,
        scoring: &S,
        new_relation: usize,
        new_tuple: &Tuple,
        new_solo: f64,
    ) -> usize {
        let n = self.n;
        // Every other relation must have at least one seen tuple.
        if (0..n).any(|j| j != new_relation && self.state.depth(j) == 0) {
            return 0;
        }
        let prune = !self.solo.is_empty();
        if prune && self.output.is_full() {
            let best = (0..n).fold(0.0, |acc, j| {
                acc + if j == new_relation {
                    new_solo
                } else {
                    self.best_solo[j]
                }
            });
            if best < self.output.kth_score() {
                return 0;
            }
        }
        self.combo_others.clear();
        self.combo_others
            .extend((0..n).filter(|&j| j != new_relation));
        self.combo_counters.clear();
        self.combo_counters.resize(self.combo_others.len(), 0);
        let mut members: Vec<(&Vector, f64)> = Vec::with_capacity(n);
        let mut formed = 0;
        loop {
            // The K-th score is read afresh: insertions only raise it.
            let pruned = prune && self.output.is_full() && {
                let mut oi = 0;
                let bound = (0..n).fold(0.0, |acc, j| {
                    acc + if j == new_relation {
                        new_solo
                    } else {
                        oi += 1;
                        self.solo[j][self.combo_counters[oi - 1]]
                    }
                });
                bound < self.output.kth_score()
            };
            if !pruned {
                // Assemble the member views in relation order and score them.
                members.clear();
                let mut oi = 0;
                for j in 0..n {
                    if j == new_relation {
                        members.push((&new_tuple.vector, new_tuple.score));
                    } else {
                        let t = self
                            .state
                            .buffer(j)
                            .get(self.combo_counters[oi])
                            .expect("seen rank");
                        members.push((&t.vector, t.score));
                        oi += 1;
                    }
                }
                let score = scoring.score_members(&members, &self.query);
                formed += 1;
                // Materialise the owned combination only when it can be
                // retained. NaN-safe: `!(score < kth)` keeps NaN scores on the
                // materialise path (`total_cmp` orders them deterministically),
                // and an IEEE-strict `score < kth` guarantees the buffer would
                // reject, so nothing insertable is ever skipped.
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !self.output.is_full() || !(score < self.output.kth_score()) {
                    let mut tuples: Vec<Tuple> = Vec::with_capacity(n);
                    let mut oi = 0;
                    for j in 0..n {
                        if j == new_relation {
                            tuples.push(new_tuple.clone());
                        } else {
                            tuples.push(
                                self.state
                                    .buffer(j)
                                    .get(self.combo_counters[oi])
                                    .expect("seen rank")
                                    .clone(),
                            );
                            oi += 1;
                        }
                    }
                    self.output.insert(ScoredCombination::new(tuples, score));
                }
            }
            // Mixed-radix increment over the other relations' seen depths.
            let mut carry = true;
            for (ci, &j) in self.combo_others.iter().enumerate() {
                if !carry {
                    break;
                }
                self.combo_counters[ci] += 1;
                if self.combo_counters[ci] >= self.state.depth(j) {
                    self.combo_counters[ci] = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                break;
            }
        }
        formed
    }

    /// Consumes the core into the final result (the run must be done).
    fn finalize<S: ScoringFunction>(mut self, bound: &dyn BoundingScheme<S>) -> RankJoinResult {
        // Close the convergence profile with the terminal state, so an
        // enabled capture is never empty and always ends at the depth /
        // bound pair that actually certified (or exhausted) the run.
        if self.config.convergence_every != 0 {
            let depth = self.stats.sum_depths();
            if self.state.all_exhausted() {
                self.t = f64::NEG_INFINITY;
            }
            // An in-loop sample at the same depth predates any exhaustion
            // bound drop — replace it with the terminal state.
            if let Some(last) = self.metrics.trajectory.last() {
                if last.depth == depth as u64 {
                    self.metrics.trajectory.pop();
                }
            }
            self.sample_trajectory(depth);
        }
        // On an early-exhaustion run — every relation drained before the
        // bound certified the top-K — no unseen combination exists at all,
        // so the final bound is −∞ by definition. Set it structurally
        // rather than trusting the bounding scheme's last exhaustion
        // update, so the metric can never surface a stale (or default)
        // value for a run that ended this way.
        self.metrics.final_bound = if self.state.all_exhausted() {
            f64::NEG_INFINITY
        } else {
            self.t
        };
        self.metrics.dominance_time = bound.dominance_time();
        self.metrics.dominated_partials = bound.dominated_count();
        self.metrics.total_time = self.work_time;
        RankJoinResult {
            combinations: self.output.into_sorted_vec(),
            stats: self.stats,
            metrics: self.metrics,
        }
    }
}

/// Executes Algorithm 1 with the given bounding scheme and pulling strategy.
///
/// The relations of `problem` are consumed from their current position;
/// call [`Problem::reset`] first to rerun a problem from scratch.
pub fn execute<S: ScoringFunction>(
    problem: &mut Problem<S>,
    bound: &mut dyn BoundingScheme<S>,
    pull: &mut dyn PullStrategy,
) -> RankJoinResult {
    let mut core = RunCore::new(problem, bound);
    while core.step(problem, bound, pull) {}
    core.charge_work();
    core.finalize(bound)
}

/// An owned, incremental Algorithm 1 run: the paper's pulling model as a
/// pull-based API.
///
/// Unlike [`execute`], which drives the run to completion, a `StreamingRun`
/// owns its problem, bounding scheme and pulling strategy, and performs
/// sorted accesses lazily: each [`next_certified`](Self::next_certified) call
/// does only the work needed to certify one more result. Because it owns
/// everything and all the operator state is `Send`, a run can be moved into a
/// worker thread and its results streamed out through a channel — exactly
/// how the `prj-engine` executor serves queries.
pub struct StreamingRun<S: ScoringFunction> {
    problem: Problem<S>,
    bound: Box<dyn BoundingScheme<S>>,
    pull: Box<dyn PullStrategy>,
    core: RunCore,
}

impl<S: ScoringFunction> StreamingRun<S> {
    /// Starts a run over `problem` (from the relations' current positions).
    pub fn new(
        problem: Problem<S>,
        mut bound: Box<dyn BoundingScheme<S>>,
        pull: Box<dyn PullStrategy>,
    ) -> Self {
        let core = RunCore::new(&problem, bound.as_mut());
        StreamingRun {
            problem,
            bound,
            pull,
            core,
        }
    }

    /// Returns the next certified result, performing only as many sorted
    /// accesses as needed; `None` once the top-K has been fully emitted.
    pub fn next_certified(&mut self) -> Option<ScoredCombination> {
        self.core
            .next_certified(&mut self.problem, self.bound.as_mut(), self.pull.as_mut())
    }

    /// Number of results already emitted by
    /// [`next_certified`](Self::next_certified).
    pub fn emitted(&self) -> usize {
        self.core.emitted_count()
    }

    /// Per-relation depths read so far.
    pub fn stats(&self) -> &AccessStats {
        &self.core.stats
    }

    /// The current upper bound `t` on any combination that still uses an
    /// unseen tuple, or `−∞` once every relation is exhausted. Sharded
    /// executions use this to aggregate a valid merged bound out of
    /// partially drained runs.
    pub fn current_bound(&self) -> f64 {
        if self.core.state.all_exhausted() {
            f64::NEG_INFINITY
        } else {
            self.core.t
        }
    }

    /// Instrumentation collected so far (work time, bound evaluations).
    pub fn metrics(&self) -> &RunMetrics {
        &self.core.metrics
    }

    /// Drives the run to completion and returns the full result; equivalent
    /// to having called [`execute`] on the same problem.
    pub fn into_result(mut self) -> RankJoinResult {
        self.core.start_clock();
        while self
            .core
            .step(&mut self.problem, self.bound.as_mut(), self.pull.as_mut())
        {}
        self.core.charge_work();
        self.core.finalize(self.bound.as_ref())
    }

    /// Gives back the problem (e.g. to rerun it), discarding run state.
    pub fn into_problem(self) -> Problem<S> {
        self.problem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::bounds::{CornerBound, TightBound, TightBoundConfig};
    use crate::problem::ProblemBuilder;
    use crate::pull::{PotentialAdaptive, RoundRobin};
    use crate::scoring::EuclideanLogScore;
    use prj_access::{AccessKind, TupleId};
    use prj_geometry::Vector;

    fn table1_problem(k: usize) -> Problem<EuclideanLogScore> {
        let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        };
        ProblemBuilder::new(
            Vector::from([0.0, 0.0]),
            EuclideanLogScore::new(1.0, 1.0, 1.0),
        )
        .k(k)
        .access_kind(AccessKind::Distance)
        .relation_from_tuples(mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]))
        .relation_from_tuples(mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]))
        .relation_from_tuples(mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]))
        .build()
        .unwrap()
    }

    #[test]
    fn tight_bound_round_robin_finds_table1_top1() {
        let mut problem = table1_problem(1);
        let mut bound =
            TightBound::new(3, problem.scoring().weights(), TightBoundConfig::default());
        let mut pull = RoundRobin::new();
        let result = execute(&mut problem, &mut bound, &mut pull);
        assert_eq!(result.combinations.len(), 1);
        assert!((result.combinations[0].score - (-7.0)).abs() < 0.05);
        let ids: Vec<usize> = result.combinations[0]
            .tuples
            .iter()
            .map(|t| t.id.index)
            .collect();
        assert_eq!(ids, vec![1, 0, 0]); // τ1^(2) × τ2^(1) × τ3^(1)
                                        // All three relations only have two tuples; the tight bound should not
                                        // need to exhaust them all (Example 3.1 certifies after 6 accesses).
        assert!(result.sum_depths() <= 6);
    }

    #[test]
    fn corner_bound_also_correct_but_reads_at_least_as_much() {
        let mut p1 = table1_problem(1);
        let mut tb = TightBound::new(3, p1.scoring().weights(), TightBoundConfig::default());
        let mut rr = RoundRobin::new();
        let tight = execute(&mut p1, &mut tb, &mut rr);

        let mut p2 = table1_problem(1);
        let mut cb = CornerBound::new(3);
        let mut rr = RoundRobin::new();
        let corner = execute(&mut p2, &mut cb, &mut rr);

        assert!((tight.combinations[0].score - corner.combinations[0].score).abs() < 1e-9);
        assert!(corner.sum_depths() >= tight.sum_depths());
    }

    #[test]
    fn top_k_larger_than_cross_product_returns_everything() {
        let mut problem = table1_problem(20);
        let mut bound =
            TightBound::new(3, problem.scoring().weights(), TightBoundConfig::default());
        let mut pull = PotentialAdaptive::new();
        let result = execute(&mut problem, &mut bound, &mut pull);
        // Only 8 combinations exist.
        assert_eq!(result.combinations.len(), 8);
        // Scores must be sorted non-increasing.
        for w in result.combinations.windows(2) {
            assert!(w[0].score >= w[1].score - 1e-12);
        }
        // Everything had to be read.
        assert_eq!(result.sum_depths(), 6);
    }

    #[test]
    fn access_cap_is_honoured() {
        let mut problem = table1_problem(5);
        problem.set_config(crate::problem::ProxRjConfig {
            max_accesses: Some(3),
            ..Default::default()
        });
        let mut bound = CornerBound::new(3);
        let mut pull = RoundRobin::new();
        let result = execute(&mut problem, &mut bound, &mut pull);
        assert!(result.metrics.hit_access_cap);
        assert_eq!(result.sum_depths(), 3);
    }

    #[test]
    fn metrics_are_populated() {
        let mut problem = table1_problem(2);
        let mut bound =
            TightBound::new(3, problem.scoring().weights(), TightBoundConfig::default());
        let mut pull = RoundRobin::new();
        let result = execute(&mut problem, &mut bound, &mut pull);
        assert!(result.metrics.bound_updates >= result.sum_depths());
        assert!(result.metrics.combinations_formed >= result.combinations.len());
        assert!(
            result.metrics.final_bound.is_finite()
                || result.metrics.final_bound == f64::NEG_INFINITY
        );
        assert!(result.metrics.total_time >= result.metrics.bound_time);
        assert!(result.best_score().is_some());
    }

    #[test]
    fn convergence_trajectory_is_captured_when_enabled() {
        // Off by default: no points, whatever the run shape.
        let mut problem = table1_problem(2);
        let plain = Algorithm::Tbrr.run(&mut problem).unwrap();
        assert!(plain.trajectory().is_empty());

        // On: non-empty, depths strictly increasing, last point at the
        // terminal depth with the certified bound, and the result rows are
        // bit-identical to the uninstrumented run.
        let mut problem = table1_problem(2);
        problem.set_config(crate::problem::ProxRjConfig {
            convergence_every: 1,
            ..Default::default()
        });
        let traced = Algorithm::Tbrr.run(&mut problem).unwrap();
        assert_eq!(traced.combinations, plain.combinations);
        assert_eq!(traced.stats, plain.stats);
        let traj = traced.trajectory();
        assert!(!traj.is_empty());
        for w in traj.windows(2) {
            assert!(w[0].depth < w[1].depth, "depths must strictly increase");
        }
        let last = traj.last().unwrap();
        assert_eq!(last.depth, traced.sum_depths() as u64);
        assert_eq!(last.bound, traced.metrics.final_bound);
        // A certified run ends with the kth score dominating the bound.
        assert!(last.kth_score >= last.bound);

        // A sparse stride still closes with the terminal point.
        let mut problem = table1_problem(2);
        problem.set_config(crate::problem::ProxRjConfig {
            convergence_every: 1000,
            ..Default::default()
        });
        let sparse = Algorithm::Tbrr.run(&mut problem).unwrap();
        assert_eq!(sparse.combinations, plain.combinations);
        assert_eq!(sparse.trajectory().len(), 1);
        assert_eq!(sparse.trajectory()[0].depth, sparse.sum_depths() as u64);
    }

    #[test]
    fn final_bound_is_populated_on_early_exhaustion() {
        // k far larger than the cross product: every relation drains before
        // the bound can certify, and the run terminates by exhaustion. The
        // final bound must reflect that (−∞: nothing unseen remains), not
        // sit at the RunMetrics default of 0.0.
        for algo in Algorithm::all() {
            let mut problem = table1_problem(50);
            let result = algo.run(&mut problem).unwrap();
            assert_eq!(result.combinations.len(), 8, "{algo}: full cross product");
            assert_eq!(
                result.metrics.final_bound,
                f64::NEG_INFINITY,
                "{algo}: exhausted run must report the certified -inf bound"
            );
        }
        // The streaming driver shares the same finalisation.
        let problem = table1_problem(50);
        let bound = Box::new(TightBound::new(
            3,
            problem.scoring().weights(),
            TightBoundConfig::default(),
        ));
        let mut run = StreamingRun::new(problem, bound, Box::new(RoundRobin::new()));
        while run.next_certified().is_some() {}
        let result = run.into_result();
        assert_eq!(result.metrics.final_bound, f64::NEG_INFINITY);
    }

    #[test]
    fn final_bound_is_finite_on_certified_runs() {
        // A certified top-1 stops with unseen tuples left; the recorded
        // bound is the finite value that certified the result.
        let mut problem = table1_problem(1);
        let result = Algorithm::Tbrr.run(&mut problem).unwrap();
        assert!(result.metrics.final_bound.is_finite());
        assert!(result.combinations[0].score >= result.metrics.final_bound - 1e-9);
    }

    #[test]
    fn streaming_run_matches_execute() {
        let mut problem = table1_problem(8);
        let mut bound =
            TightBound::new(3, problem.scoring().weights(), TightBoundConfig::default());
        let mut pull = RoundRobin::new();
        let batch = execute(&mut problem, &mut bound, &mut pull);

        let problem = table1_problem(8);
        let bound = Box::new(TightBound::new(
            3,
            problem.scoring().weights(),
            TightBoundConfig::default(),
        ));
        let mut run = StreamingRun::new(problem, bound, Box::new(RoundRobin::new()));
        let mut streamed = Vec::new();
        while let Some(combo) = run.next_certified() {
            streamed.push(combo);
        }
        assert_eq!(streamed.len(), batch.combinations.len());
        for (s, b) in streamed.iter().zip(batch.combinations.iter()) {
            assert_eq!(s, b, "streamed results must match batch results exactly");
        }
        assert_eq!(run.emitted(), streamed.len());
    }

    #[test]
    fn streaming_results_arrive_in_score_order_and_incrementally() {
        let problem = table1_problem(8);
        let bound = Box::new(TightBound::new(
            3,
            problem.scoring().weights(),
            TightBoundConfig::default(),
        ));
        let mut run = StreamingRun::new(problem, bound, Box::new(RoundRobin::new()));
        let first = run.next_certified().expect("at least one result");
        let depth_after_first = run.stats().sum_depths();
        let mut previous = first.score;
        let mut count = 1;
        while let Some(combo) = run.next_certified() {
            assert!(combo.score <= previous + 1e-12, "scores must not increase");
            previous = combo.score;
            count += 1;
        }
        // Emitting the full cross product requires exhausting the relations,
        // so the first certified result must have been cheaper than the rest.
        assert!(depth_after_first <= run.stats().sum_depths());
        assert_eq!(count, 8);
    }

    #[test]
    fn streaming_into_result_equals_execute() {
        let mut problem = table1_problem(2);
        let mut bound = CornerBound::new(3);
        let mut pull = RoundRobin::new();
        let batch = execute(&mut problem, &mut bound, &mut pull);

        let problem = table1_problem(2);
        let run = StreamingRun::new(
            problem,
            Box::new(CornerBound::new(3)),
            Box::new(RoundRobin::new()),
        );
        let streamed = run.into_result();
        assert_eq!(streamed.combinations, batch.combinations);
        assert_eq!(streamed.stats, batch.stats);
    }

    #[test]
    fn query_is_shared_not_copied_across_operator_state() {
        // White-box allocation check for the per-unit query-clone fix: the
        // problem, the run core and the join state must all hold refcount
        // bumps on ONE query allocation, not per-layer deep copies.
        let q = Arc::new(Vector::from([0.0, 0.0]));
        let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        };
        let problem = ProblemBuilder::new(Arc::clone(&q), EuclideanLogScore::new(1.0, 1.0, 1.0))
            .k(2)
            .access_kind(AccessKind::Distance)
            .relation_from_tuples(mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]))
            .relation_from_tuples(mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]))
            .build()
            .unwrap();
        assert!(
            Arc::ptr_eq(&q, problem.query_shared()),
            "builder must keep the caller's query allocation"
        );
        assert_eq!(Arc::strong_count(&q), 2); // test handle + problem
        let run = StreamingRun::new(
            problem,
            Box::new(CornerBound::new(2)),
            Box::new(RoundRobin::new()),
        );
        // Exactly two more holders appear (run core + join state); a deep
        // copy anywhere would leave the count short.
        assert_eq!(Arc::strong_count(&q), 4);
        drop(run);
        assert_eq!(Arc::strong_count(&q), 1);
    }

    #[test]
    fn streaming_run_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<StreamingRun<EuclideanLogScore>>();
    }

    #[test]
    fn score_based_access_execution() {
        let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<Tuple> {
            rows.iter()
                .enumerate()
                .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
                .collect()
        };
        let mut problem = ProblemBuilder::new(
            Vector::from([0.0, 0.0]),
            EuclideanLogScore::new(1.0, 1.0, 1.0),
        )
        .k(2)
        .access_kind(AccessKind::Score)
        .relation_from_tuples(mk(
            0,
            &[([0.1, 0.0], 0.9), ([2.0, 0.0], 0.8), ([0.2, 0.1], 0.3)],
        ))
        .relation_from_tuples(mk(
            1,
            &[([0.0, 0.1], 1.0), ([0.0, 3.0], 0.7), ([-0.2, 0.0], 0.2)],
        ))
        .build()
        .unwrap();
        let mut bound =
            TightBound::new(2, problem.scoring().weights(), TightBoundConfig::default());
        let mut pull = RoundRobin::new();
        let result = execute(&mut problem, &mut bound, &mut pull);
        assert_eq!(result.combinations.len(), 2);
        // The best pair is the two high-score tuples sitting next to the query.
        let ids: Vec<usize> = result.combinations[0]
            .tuples
            .iter()
            .map(|t| t.id.index)
            .collect();
        assert_eq!(ids, vec![0, 0]);
    }

    #[test]
    fn certifies_top_k_edge_cases() {
        let empty = RankJoinResult {
            combinations: Vec::new(),
            stats: AccessStats::new(1),
            metrics: RunMetrics {
                final_bound: f64::NEG_INFINITY,
                ..RunMetrics::default()
            },
        };
        assert!(empty.certifies_top_k(5, 1e-9), "exhausted empty result");
        let capped = RankJoinResult {
            metrics: RunMetrics {
                final_bound: f64::NEG_INFINITY,
                hit_access_cap: true,
                ..RunMetrics::default()
            },
            ..empty
        };
        assert!(
            !capped.certifies_top_k(5, 1e-9),
            "capped run is uncertified"
        );
    }
}
