//! Closed-form solutions of the tight-bound optimisations.
//!
//! * [`ray_optimum`] — paper Eq. 14: the distance-based bound after the
//!   collinearity reduction of Theorem 3.4, a one-dimensional convex problem
//!   on the ray from the query through the centroid of the seen partial
//!   combination. Its KKT conditions have a closed form; when all unseen
//!   relations share one minimum distance `δ` it is Eq. 11 / Eq. 29.
//! * [`score_based_optimum`] — paper Eq. 41: the *unconstrained* optimum used
//!   by the score-based tight bound (Appendix C.2).
//!
//! Both functions return the optimal location (a signed length along the
//! ray, or a point); the caller evaluates the exact aggregate score at the
//! reconstructed completion (which is how the bound value is obtained
//! throughout `prj-core`, keeping a single source of truth for the scoring
//! function).

use prj_geometry::Vector;

/// Solves paper Eq. 14 exactly:
///
/// ```text
/// minimise    w_q·Σ θ_i² + w_μ·Σ (θ_i − θ̄)²
/// subject to  θ_i = seen[i]        for the m seen relations
///             θ_j ≥ lower[j]       for the n − m unseen relations
/// ```
///
/// and writes the optimal unseen lengths into `unseen` (aligned with
/// `lower`). By the KKT conditions every unseen variable off its bound
/// takes one common value `c = w_μ·A / (n·w_q + w_μ·(n − k))`, where `k` is
/// the number of such free variables and `A` is the sum of the seen lengths
/// and of the bounds still active. Starting from every bound active, the
/// smallest active bound is released while it lies below `c`; each release
/// only raises `c`, so the set where this stops satisfies the KKT conditions
/// and, the objective being strictly convex for `w_q > 0`, is the unique
/// optimum. With one unseen relation this is O(1); with equal bounds it is
/// the closed form of Eq. 11 / Eq. 29.
///
/// `seen` is summed in slice order. Allocates nothing.
///
/// # Panics
/// Panics if `lower` is empty (at least one relation must be unseen), has
/// more than 64 entries, or `unseen.len() != lower.len()`.
pub fn ray_optimum(seen: &[f64], lower: &[f64], w_q: f64, w_mu: f64, unseen: &mut [f64]) {
    assert!(!lower.is_empty(), "at least one relation must be unseen");
    assert!(lower.len() <= 64, "at most 64 unseen relations");
    assert_eq!(unseen.len(), lower.len(), "one output per unseen relation");
    let n = (seen.len() + lower.len()) as f64;
    let seen_sum: f64 = seen.iter().sum();
    // Bit j set ⇔ unseen variable j is off its bound.
    let mut free = 0u64;
    let mut k = 0.0;
    let c = loop {
        let mut active_sum = seen_sum;
        let mut next: Option<usize> = None;
        for (j, &d) in lower.iter().enumerate() {
            if free & (1 << j) == 0 {
                active_sum += d;
                if next.is_none_or(|i| d < lower[i]) {
                    next = Some(j);
                }
            }
        }
        let c = w_mu * active_sum / (n * w_q + w_mu * (n - k));
        match next {
            Some(j) if lower[j] < c => {
                free |= 1 << j;
                k += 1.0;
            }
            _ => break c,
        }
    };
    for (j, (theta, &d)) in unseen.iter_mut().zip(lower).enumerate() {
        *theta = if free & (1 << j) != 0 { c } else { d };
    }
}

/// Solves paper Eq. 41: the unconstrained optimal common location of the
/// unseen tuples under score-based access,
/// `y* = q + (ν − q)·m·w_μ / (m·w_μ + n·w_q)`.
///
/// When `m = 0` (no seen tuples, `nu = None`) the optimum is the query itself.
///
/// # Panics
/// Panics if `m >= n`.
pub fn score_based_optimum(
    q: &Vector,
    nu: Option<&Vector>,
    m: usize,
    n: usize,
    w_q: f64,
    w_mu: f64,
) -> Vector {
    assert!(m < n, "at least one relation must be unseen (m < n)");
    match nu {
        None => q.clone(),
        Some(nu) => {
            let shrink = if m == 0 {
                0.0
            } else {
                (m as f64 * w_mu) / (m as f64 * w_mu + n as f64 * w_q)
            };
            q + &(nu - q).scaled(shrink)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: &[f64]) -> Vector {
        Vector::from(x)
    }

    /// Solves Eq. 14 for `w_q = w_μ = 1` and returns the unseen lengths.
    fn solve(seen: &[f64], lower: &[f64]) -> Vec<f64> {
        solve_weighted(seen, lower, 1.0, 1.0)
    }

    fn solve_weighted(seen: &[f64], lower: &[f64], w_q: f64, w_mu: f64) -> Vec<f64> {
        let mut unseen = vec![f64::NAN; lower.len()];
        ray_optimum(seen, lower, w_q, w_mu, &mut unseen);
        unseen
    }

    fn assert_close(got: &[f64], expected: &[f64]) {
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected) {
            assert!((g - e).abs() < 1e-12, "got {got:?}, expected {expected:?}");
        }
    }

    #[test]
    fn unconstrained_optimum_shrinks_toward_query() {
        // With wq = wmu = 1, m = 1, n = 2 the free length is θ_seen/(1+2):
        // the seen tuple at distance 3 pulls the unseen one to distance 1.
        assert_close(&solve(&[3.0], &[0.0]), &[1.0]);
    }

    #[test]
    fn constrained_optimum_clamps_to_sphere() {
        // The unconstrained optimum is at distance 1; with δ = 2 it clamps.
        assert_close(&solve(&[3.0], &[2.0]), &[2.0]);
    }

    #[test]
    fn paper_example_3_2_partial_tau2() {
        // Example 3.2, partial combination τ2^(1): x = [1,1], so the seen
        // length is √2; m = 1, n = 3, ws = wq = wμ = 1. The unconstrained
        // common length √2/4 ≈ 0.354 lies inside both spheres, so each unseen
        // tuple clamps: y1* at radius δ1 = 1, y3* at radius δ3 = 2√2.
        let root2 = 2.0_f64.sqrt();
        assert_close(&solve(&[root2], &[1.0, 2.0 * root2]), &[1.0, 2.0 * root2]);
        // The equal-radius cases of Eq. 11 / Eq. 29: both clamp.
        assert_close(&solve(&[root2], &[1.0, 1.0]), &[1.0, 1.0]);
        assert_close(
            &solve(&[root2], &[2.0 * root2, 2.0 * root2]),
            &[2.0 * root2, 2.0 * root2],
        );
    }

    #[test]
    fn released_bounds_share_one_length_and_raise_it() {
        // n = 3, seen length 6: the bound 0 is released first (c = 8/6),
        // then c = 8/5 = 1.6 stays below the bound 2, which stays active.
        assert_close(&solve(&[6.0], &[2.0, 0.0]), &[2.0, 1.6]);
        // Tied bounds are both released: c = 7/6, 6.5/5, then 6/4 = 1.5.
        assert_close(&solve(&[6.0], &[0.5, 0.5]), &[1.5, 1.5]);
    }

    #[test]
    fn empty_partial_combination() {
        // m = 0: the optimum is the query itself, or the spheres' radii.
        assert_close(&solve(&[], &[0.0, 0.0, 0.0]), &[0.0, 0.0, 0.0]);
        assert_close(&solve(&[], &[1.5, 1.5, 1.5]), &[1.5, 1.5, 1.5]);
    }

    #[test]
    fn degenerate_centroid_at_query() {
        // The seen tuple projects to 0 (its centroid is the query).
        assert_close(&solve(&[0.0], &[2.0]), &[2.0]);
    }

    #[test]
    fn zero_centroid_weight_puts_optimum_at_query() {
        // With w_mu = 0 the mutual-proximity pull vanishes: every unseen
        // tuple sits as close to the query as its bound allows.
        assert_close(
            &solve_weighted(&[5.0 * 2.0_f64.sqrt(), 4.0], &[0.0, 0.7], 1.0, 0.0),
            &[0.0, 0.7],
        );
    }

    #[test]
    fn score_based_optimum_matches_eq_41() {
        let q = v(&[0.0, 0.0]);
        let nu = v(&[2.0, 2.0]);
        // m = 2, n = 3, wq = wmu = 1 -> shrink = 2/(2+3) = 0.4
        let y = score_based_optimum(&q, Some(&nu), 2, 3, 1.0, 1.0);
        assert!(y.approx_eq(&v(&[0.8, 0.8]), 1e-12));
        let y0 = score_based_optimum(&q, None, 0, 3, 1.0, 1.0);
        assert!(y0.approx_eq(&q, 1e-12));
    }

    #[test]
    #[should_panic]
    fn all_seen_panics() {
        let _ = solve(&[1.0, 2.0], &[]);
    }
}
