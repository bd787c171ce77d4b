//! Property-based tests for the substrate crates (solver and index), driven
//! through the facade: the closed form, QP and LP solvers behind the tight
//! bound, the allocation-free Eq. 2 scoring, and the R-tree that powers
//! distance-based access.

use proptest::prelude::*;
use proximity_rank_join::core::{EuclideanLogScore, ScoringFunction};
use proximity_rank_join::index::RTree;
use proximity_rank_join::prelude::Vector;
use proximity_rank_join::solver::{halfspaces_feasible, ray_optimum, BoundedQp, Matrix};

/// Eq. 2 scored through the trait's default `score_members`, the formula
/// `EuclideanLogScore`'s own implementation must reproduce bit for bit.
struct DefaultFormula(EuclideanLogScore);

impl ScoringFunction for DefaultFormula {
    fn proximity_weighted_score(&self, sigma: f64, to_query: f64, to_centroid: f64) -> f64 {
        self.0
            .proximity_weighted_score(sigma, to_query, to_centroid)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The active-set QP solution is feasible and no random feasible point
    /// achieves a lower objective.
    #[test]
    fn qp_solution_is_feasible_and_optimal(
        factors in prop::collection::vec(-1.5..1.5f64, 9),
        linear in prop::collection::vec(-2.0..2.0f64, 3),
        bounds in prop::collection::vec(-1.0..2.0f64, 3),
        samples in prop::collection::vec(prop::collection::vec(-4.0..4.0f64, 3), 50),
    ) {
        // Build a symmetric positive-definite Hessian H = MᵀM + I.
        let m = Matrix::from_rows(3, 3, factors.clone());
        let mut h = m.transpose().mul(&m);
        for i in 0..3 {
            h[(i, i)] += 1.0;
        }
        let mut qp = BoundedQp::new(h, linear.clone());
        for (i, &b) in bounds.iter().enumerate() {
            qp = qp.lower_bound(i, b);
        }
        let sol = qp.solve().expect("PD Hessian must solve");
        // Feasibility.
        for (i, &b) in bounds.iter().enumerate() {
            prop_assert!(sol.theta[i] >= b - 1e-7, "variable {i} violates its bound");
        }
        // No random feasible point does better.
        for sample in &samples {
            let clamped: Vec<f64> = sample
                .iter()
                .zip(bounds.iter())
                .map(|(&x, &b)| x.max(b))
                .collect();
            prop_assert!(
                qp.objective(&clamped) + 1e-7 >= sol.objective,
                "random feasible point beats the active-set optimum"
            );
        }
    }

    /// The Eq. 14 closed form agrees with the active-set QP on the same ray
    /// problem, for n = 2..=5 and every proper subset of seen relations.
    /// Bounds are drawn as 0, a value shared by several relations, or a free
    /// value, so zero and tied bounds are exercised; `w_μ` is 0 in a third
    /// of the cases.
    #[test]
    fn ray_closed_form_matches_the_qp(
        n in 2usize..6,
        seen_lengths in prop::collection::vec(-1.0..3.0f64, 5),
        bound_kinds in prop::collection::vec(0usize..3, 5),
        free_bounds in prop::collection::vec(0.0..3.0f64, 5),
        tied_bound in 0.0..3.0f64,
        w_q in 0.1..3.0f64,
        w_mu in 0.0..3.0f64,
        zero_w_mu in 0usize..3,
    ) {
        let w_mu = if zero_w_mu == 0 { 0.0 } else { w_mu };
        let bounds: Vec<f64> = (0..n)
            .map(|j| match bound_kinds[j] {
                0 => 0.0,
                1 => tied_bound,
                _ => free_bounds[j],
            })
            .collect();
        for mask in 0u32..(1 << n) - 1 {
            let is_seen = |i: usize| mask & (1 << i) != 0;
            let mut qp = BoundedQp::ray_problem(n, w_q, w_mu);
            let mut seen = Vec::new();
            let mut lower = Vec::new();
            for i in 0..n {
                if is_seen(i) {
                    qp = qp.fix(i, seen_lengths[i]);
                    seen.push(seen_lengths[i]);
                } else {
                    qp = qp.lower_bound(i, bounds[i]);
                    lower.push(bounds[i]);
                }
            }
            let reference = qp.solve().expect("the ray problem is strictly convex");
            let mut unseen = vec![f64::NAN; lower.len()];
            ray_optimum(&seen, &lower, w_q, w_mu, &mut unseen);
            let (mut seen_iter, mut unseen_iter) = (seen.iter(), unseen.iter());
            let theta: Vec<f64> = (0..n)
                .map(|i| {
                    let next = if is_seen(i) { seen_iter.next() } else { unseen_iter.next() };
                    *next.unwrap()
                })
                .collect();
            for (i, (got, want)) in theta.iter().zip(&reference.theta).enumerate() {
                prop_assert!(
                    (got - want).abs() <= 1e-9,
                    "mask {mask:#b}, θ_{i}: closed form {got} vs QP {want}"
                );
            }
            // Relative agreement, measured against at least 1 so that a zero
            // optimum is compared absolutely.
            let objective = qp.objective(&theta);
            prop_assert!(
                (objective - reference.objective).abs()
                    <= 1e-9 * reference.objective.abs().max(1.0),
                "mask {mask:#b}: objective {objective} vs QP {}",
                reference.objective
            );
        }
    }

    /// `EuclideanLogScore::score_members` returns exactly the bits of the
    /// trait's default formula.
    #[test]
    fn euclidean_log_score_members_match_the_default_bits(
        members in 1usize..5,
        dim in 1usize..13,
        coords in prop::collection::vec(-5.0..5.0f64, 48),
        scores in prop::collection::vec(0.01..1.0f64, 4),
        query in prop::collection::vec(-5.0..5.0f64, 12),
        weights in (0.0..2.0f64, 0.1..2.0f64, 0.0..2.0f64),
    ) {
        let scoring = EuclideanLogScore::new(weights.0, weights.1, weights.2);
        let points: Vec<Vector> = coords
            .chunks(dim)
            .take(members)
            .map(Vector::from)
            .collect();
        let combination: Vec<(&Vector, f64)> =
            points.iter().zip(scores.iter().copied()).collect();
        let query = Vector::from(&query[..dim]);
        let own = scoring.score_members(&combination, &query);
        let default = DefaultFormula(scoring).score_members(&combination, &query);
        prop_assert_eq!(own.to_bits(), default.to_bits());
    }

    /// Any half-space system constructed around a witness point is feasible,
    /// and adding a constraint violated by every point of a bounded box that
    /// contains the witness plus contradictory slabs becomes infeasible.
    #[test]
    fn halfspace_feasibility_with_witness(
        witness in prop::collection::vec(-3.0..3.0f64, 3),
        normals in prop::collection::vec(prop::collection::vec(-1.0..1.0f64, 3), 1..12),
        slack in 0.0..2.0f64,
    ) {
        // a·y <= a·witness + slack is satisfied by the witness.
        let constraints: Vec<(Vec<f64>, f64)> = normals
            .iter()
            .map(|a| {
                let rhs: f64 =
                    a.iter().zip(witness.iter()).map(|(x, y)| x * y).sum::<f64>() + slack;
                (a.clone(), rhs)
            })
            .collect();
        prop_assert!(halfspaces_feasible(&constraints));
        // Append a contradictory pair on the first coordinate: y0 <= -1, -y0 <= -2.
        let mut infeasible = constraints;
        infeasible.push((vec![1.0, 0.0, 0.0], -1.0));
        infeasible.push((vec![-1.0, 0.0, 0.0], -2.0));
        prop_assert!(!halfspaces_feasible(&infeasible));
    }

    /// The R-tree's incremental nearest-neighbour stream equals a sorted
    /// linear scan, for both bulk-loaded and incrementally built trees.
    #[test]
    fn rtree_incremental_nn_matches_linear_scan(
        points in prop::collection::vec(prop::array::uniform3(-10.0..10.0f64), 1..80),
        query in prop::array::uniform3(-10.0..10.0f64),
    ) {
        let q = Vector::from(query);
        let items: Vec<(Vector, usize)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (Vector::from(*p), i))
            .collect();
        let mut expected: Vec<f64> = items.iter().map(|(p, _)| p.distance(&q)).collect();
        expected.sort_by(|a, b| a.total_cmp(b));

        let bulk = RTree::bulk_load(3, items.clone());
        let got: Vec<f64> = bulk.nearest_iter(&q).map(|nn| nn.distance).collect();
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert!((g - e).abs() < 1e-9);
        }

        let mut incremental = RTree::new(3);
        for (p, d) in items {
            incremental.insert(p, d);
        }
        let got: Vec<f64> = incremental.nearest_iter(&q).map(|nn| nn.distance).collect();
        for (g, e) in got.iter().zip(expected.iter()) {
            prop_assert!((g - e).abs() < 1e-9);
        }
    }
}
