//! Box-constrained convex quadratic programming via a primal active-set
//! method.
//!
//! The tight bound for Euclidean aggregation reduces each partial combination
//! to the one-dimensional problem of paper Eq. 14:
//!
//! ```text
//! minimise    θᵀ H θ
//! subject to  θ_i = P(x(τ_i))   for seen relations  (equality / fixed)
//!             θ_i ≥ δ_i         for unseen relations (lower bounds)
//! ```
//!
//! with `H = w_q·I + w_μ·(I − 11ᵀ/n)ᵀ(I − 11ᵀ/n)` (paper Eq. 31), which is
//! symmetric positive definite whenever `w_q > 0`. The tight bound solves
//! that problem with its closed form,
//! [`ray_optimum`](crate::closed_form::ray_optimum). [`BoundedQp`] solves the
//! more general problem `min ½θᵀHθ + cᵀθ` with per-variable optional fixings
//! and lower bounds, and is the reference the closed form is tested against.

use crate::linalg::Matrix;
use crate::SOLVER_EPS;

/// Errors reported by the QP solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QpError {
    /// The Hessian is not positive definite on the free subspace, so the
    /// active-set iteration cannot make progress.
    NotPositiveDefinite,
    /// A variable is both fixed and has an incompatible lower bound
    /// (fixed value below the bound).
    InfeasibleFixing {
        /// Index of the offending variable.
        index: usize,
    },
    /// The iteration limit was exceeded (should not happen for well-posed
    /// problems; reported rather than looping forever).
    IterationLimit,
    /// Dimension mismatch between the Hessian, the linear term and the bounds.
    DimensionMismatch,
}

impl std::fmt::Display for QpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QpError::NotPositiveDefinite => write!(f, "Hessian is not positive definite"),
            QpError::InfeasibleFixing { index } => {
                write!(f, "variable {index} is fixed below its lower bound")
            }
            QpError::IterationLimit => write!(f, "active-set iteration limit exceeded"),
            QpError::DimensionMismatch => write!(f, "dimension mismatch in QP data"),
        }
    }
}

impl std::error::Error for QpError {}

/// Solution of a [`BoundedQp`].
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The minimiser θ*.
    pub theta: Vec<f64>,
    /// The optimal objective value `½θ*ᵀHθ* + cᵀθ*`.
    pub objective: f64,
    /// Number of active-set iterations performed.
    pub iterations: usize,
}

/// A convex quadratic program
/// `min ½ θᵀ H θ + cᵀ θ` subject to optional per-variable fixings
/// (`θ_i = v_i`) and optional lower bounds (`θ_i ≥ l_i`).
#[derive(Debug, Clone)]
pub struct BoundedQp {
    h: Matrix,
    c: Vec<f64>,
    fixed: Vec<Option<f64>>,
    lower: Vec<Option<f64>>,
}

impl BoundedQp {
    /// Creates a QP with Hessian `h` (symmetric positive definite) and linear
    /// term `c`; all variables start unconstrained.
    ///
    /// # Panics
    /// Panics if `h` is not square or `c` has the wrong length.
    pub fn new(h: Matrix, c: Vec<f64>) -> BoundedQp {
        assert_eq!(h.rows(), h.cols(), "Hessian must be square");
        assert_eq!(h.rows(), c.len(), "linear term dimension mismatch");
        let n = c.len();
        BoundedQp {
            h,
            c,
            fixed: vec![None; n],
            lower: vec![None; n],
        }
    }

    /// Builds the ray-reduction Hessian of paper Eq. 31:
    /// `H = w_q·I + w_μ·(I − 11ᵀ/n)ᵀ(I − 11ᵀ/n)` for `n` variables.
    ///
    /// Note the projection matrix `P = I − 11ᵀ/n` is symmetric idempotent, so
    /// `PᵀP = P`; the explicit product is kept for clarity and exercised by a
    /// unit test that checks the identity.
    pub fn ray_hessian(n: usize, w_q: f64, w_mu: f64) -> Matrix {
        let mut p = Matrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                p[(i, j)] -= 1.0 / n as f64;
            }
        }
        let ptp = p.transpose().mul(&p);
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] = w_mu * ptp[(i, j)];
            }
            h[(i, i)] += w_q;
        }
        h
    }

    /// Creates the paper's Eq. 14 problem directly: `n` variables, Hessian
    /// `2·(w_q·I + w_μ·P)` (the factor 2 turns `θᵀHθ` into `½θᵀ(2H)θ`),
    /// no linear term.
    pub fn ray_problem(n: usize, w_q: f64, w_mu: f64) -> BoundedQp {
        let mut h = Self::ray_hessian(n, w_q, w_mu);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] *= 2.0;
            }
        }
        BoundedQp::new(h, vec![0.0; n])
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.c.len()
    }

    /// Fixes variable `i` to `value` (equality constraint).
    pub fn fix(mut self, i: usize, value: f64) -> BoundedQp {
        self.fixed[i] = Some(value);
        self
    }

    /// Imposes the lower bound `θ_i ≥ bound`.
    pub fn lower_bound(mut self, i: usize, bound: f64) -> BoundedQp {
        self.lower[i] = Some(bound);
        self
    }

    /// Evaluates the objective `½θᵀHθ + cᵀθ` at an arbitrary point.
    pub fn objective(&self, theta: &[f64]) -> f64 {
        0.5 * self.h.quadratic_form(theta)
            + self
                .c
                .iter()
                .zip(theta.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
    }

    /// Solves the program with a primal active-set method.
    ///
    /// The method maintains a feasible iterate and a working set of lower
    /// bounds treated as equalities. At each iteration the equality-constrained
    /// subproblem is solved exactly (Gaussian elimination on the free block);
    /// blocking constraints are added on partial steps and constraints with
    /// negative multipliers are released. Convergence is finite because the
    /// objective strictly decreases whenever the working set changes after a
    /// full step.
    pub fn solve(&self) -> Result<QpSolution, QpError> {
        let n = self.dim();
        // Validate fixings vs bounds.
        for i in 0..n {
            if let (Some(v), Some(l)) = (self.fixed[i], self.lower[i]) {
                if v < l - SOLVER_EPS {
                    return Err(QpError::InfeasibleFixing { index: i });
                }
            }
        }
        if n == 0 {
            return Ok(QpSolution {
                theta: Vec::new(),
                objective: 0.0,
                iterations: 0,
            });
        }

        // Variables subject to optimisation (not fixed).
        let free_vars: Vec<usize> = (0..n).filter(|&i| self.fixed[i].is_none()).collect();

        // Initial feasible point: fixed values, lower bounds, or 0.
        let mut theta: Vec<f64> = (0..n)
            .map(|i| {
                if let Some(v) = self.fixed[i] {
                    v
                } else if let Some(l) = self.lower[i] {
                    l.max(0.0)
                } else {
                    0.0
                }
            })
            .collect();

        if free_vars.is_empty() {
            let obj = self.objective(&theta);
            return Ok(QpSolution {
                theta,
                objective: obj,
                iterations: 0,
            });
        }

        // Working set: indices (into 0..n) of lower bounds treated as active.
        let mut working: Vec<bool> = (0..n)
            .map(|i| {
                self.fixed[i].is_none() && self.lower[i].is_some_and(|l| theta[i] <= l + SOLVER_EPS)
            })
            .collect();

        let max_iters = 20 * (n + 1) * (n + 1);
        for iteration in 1..=max_iters {
            // Free set F = unfixed variables whose bound is not in the working set.
            let f_set: Vec<usize> = free_vars.iter().copied().filter(|&i| !working[i]).collect();

            // Solve the equality-constrained subproblem on F:
            //   H_FF θ_F = −(c_F + Σ_{j∉F} H_Fj θ_j)
            let mut target = theta.clone();
            if !f_set.is_empty() {
                let h_ff = self.h.submatrix(&f_set, &f_set);
                let mut rhs = vec![0.0; f_set.len()];
                for (row, &i) in f_set.iter().enumerate() {
                    let mut acc = -self.c[i];
                    for j in 0..n {
                        if !f_set.contains(&j) {
                            acc -= self.h[(i, j)] * theta[j];
                        }
                    }
                    rhs[row] = acc;
                }
                let sol = match h_ff.cholesky() {
                    Some(l) => l.cholesky_solve(&rhs),
                    None => h_ff.solve(&rhs).ok_or(QpError::NotPositiveDefinite)?,
                };
                for (row, &i) in f_set.iter().enumerate() {
                    target[i] = sol[row];
                }
            }

            // Step from theta toward target, stopping at the first violated bound.
            let mut alpha: f64 = 1.0;
            let mut blocking: Option<usize> = None;
            for &i in &f_set {
                if let Some(l) = self.lower[i] {
                    let delta = target[i] - theta[i];
                    if delta < -SOLVER_EPS && target[i] < l - SOLVER_EPS {
                        let a = (l - theta[i]) / delta;
                        if a < alpha {
                            alpha = a;
                            blocking = Some(i);
                        }
                    }
                }
            }

            for &i in &f_set {
                theta[i] += alpha * (target[i] - theta[i]);
            }
            if let Some(b) = blocking {
                // Snap exactly onto the bound and add it to the working set.
                theta[b] = self.lower[b].expect("blocking constraint has a bound");
                working[b] = true;
                continue;
            }

            // Full step taken: check multipliers of active bounds.
            // Gradient g = Hθ + c; at optimality g_i ≥ 0 for active lower bounds
            // (their multiplier equals the gradient component).
            let grad = {
                let mut g = self.h.mul_vec(&theta);
                for i in 0..n {
                    g[i] += self.c[i];
                }
                g
            };
            let mut worst: Option<(usize, f64)> = None;
            for &i in &free_vars {
                if working[i] {
                    let lambda = grad[i];
                    if lambda < -1e-8 && worst.map(|(_, w)| lambda < w).unwrap_or(true) {
                        worst = Some((i, lambda));
                    }
                }
            }
            match worst {
                Some((i, _)) => {
                    working[i] = false;
                }
                None => {
                    let obj = self.objective(&theta);
                    return Ok(QpSolution {
                        theta,
                        objective: obj,
                        iterations: iteration,
                    });
                }
            }
        }
        Err(QpError::IterationLimit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_minimum() {
        // min 1/2 (x² + y²) + (-2x - 4y)  ->  x = 2, y = 4
        let qp = BoundedQp::new(Matrix::identity(2), vec![-2.0, -4.0]);
        let sol = qp.solve().unwrap();
        assert!((sol.theta[0] - 2.0).abs() < 1e-9);
        assert!((sol.theta[1] - 4.0).abs() < 1e-9);
        assert!((sol.objective - (-10.0)).abs() < 1e-9);
    }

    #[test]
    fn active_lower_bound() {
        // min 1/2 x² - 2x  subject to x >= 5  ->  x = 5
        let qp = BoundedQp::new(Matrix::identity(1), vec![-2.0]).lower_bound(0, 5.0);
        let sol = qp.solve().unwrap();
        assert!((sol.theta[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn inactive_lower_bound() {
        // min 1/2 x² - 2x  subject to x >= 1  ->  x = 2 (bound inactive)
        let qp = BoundedQp::new(Matrix::identity(1), vec![-2.0]).lower_bound(0, 1.0);
        let sol = qp.solve().unwrap();
        assert!((sol.theta[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_variables_are_respected() {
        // min 1/2(x² + y²) with x fixed to 3: optimum y = 0.
        let qp = BoundedQp::new(Matrix::identity(2), vec![0.0, 0.0]).fix(0, 3.0);
        let sol = qp.solve().unwrap();
        assert_eq!(sol.theta[0], 3.0);
        assert!(sol.theta[1].abs() < 1e-9);
        assert!((sol.objective - 4.5).abs() < 1e-9);
    }

    #[test]
    fn coupled_hessian_with_bounds() {
        // H = [[2,1],[1,2]] (PD), c = [-3, -3]; unconstrained optimum x=y=1.
        // With x >= 2, optimum is x=2, y = (3-2)/2 = 0.5.
        let h = Matrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let qp = BoundedQp::new(h, vec![-3.0, -3.0]).lower_bound(0, 2.0);
        let sol = qp.solve().unwrap();
        assert!((sol.theta[0] - 2.0).abs() < 1e-9);
        assert!((sol.theta[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn infeasible_fixing_detected() {
        let qp = BoundedQp::new(Matrix::identity(1), vec![0.0])
            .fix(0, 1.0)
            .lower_bound(0, 2.0);
        assert_eq!(
            qp.solve().unwrap_err(),
            QpError::InfeasibleFixing { index: 0 }
        );
    }

    #[test]
    fn ray_hessian_matches_projection_identity() {
        // P = I - 11ᵀ/n is idempotent, so PᵀP = P and H = wq·I + wμ·P.
        let n = 4;
        let (wq, wmu) = (0.7, 1.3);
        let h = BoundedQp::ray_hessian(n, wq, wmu);
        for i in 0..n {
            for j in 0..n {
                let p = if i == j {
                    1.0 - 1.0 / n as f64
                } else {
                    -1.0 / n as f64
                };
                let expected = wmu * p + if i == j { wq } else { 0.0 };
                assert!((h[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ray_problem_is_positive_definite() {
        for n in 1..=5 {
            let qp = BoundedQp::ray_problem(n, 1.0, 1.0);
            assert!(qp.h.cholesky().is_some(), "n = {n} should be PD");
        }
    }

    #[test]
    fn ray_problem_matches_paper_objective() {
        // Objective of Eq. 14 (quadratic part): wq Σθ² + wμ Σ(θ_i − mean θ)².
        let n = 3;
        let qp = BoundedQp::ray_problem(n, 2.0, 0.5);
        let theta = [1.0, -2.0, 4.0];
        let mean = (1.0 - 2.0 + 4.0) / 3.0;
        let manual: f64 = theta.iter().map(|t| 2.0 * t * t).sum::<f64>()
            + theta
                .iter()
                .map(|t| 0.5 * (t - mean) * (t - mean))
                .sum::<f64>();
        assert!((qp.objective(&theta) - manual).abs() < 1e-9);
    }

    /// Brute-force check: on a grid of candidate points satisfying the bounds,
    /// no feasible point beats the active-set solution.
    #[test]
    fn active_set_beats_grid_search() {
        let qp = BoundedQp::ray_problem(3, 1.0, 1.0)
            .fix(0, 1.5)
            .lower_bound(1, 1.0)
            .lower_bound(2, 2.5);
        let sol = qp.solve().unwrap();
        let mut best = f64::INFINITY;
        let steps = 80;
        for a in 0..=steps {
            for b in 0..=steps {
                let t1 = 1.0 + 4.0 * a as f64 / steps as f64;
                let t2 = 2.5 + 4.0 * b as f64 / steps as f64;
                best = best.min(qp.objective(&[1.5, t1, t2]));
            }
        }
        assert!(
            sol.objective <= best + 1e-6,
            "{} vs grid {}",
            sol.objective,
            best
        );
        // Feasibility of the returned point.
        assert_eq!(sol.theta[0], 1.5);
        assert!(sol.theta[1] >= 1.0 - 1e-9);
        assert!(sol.theta[2] >= 2.5 - 1e-9);
    }

    #[test]
    fn empty_problem() {
        let qp = BoundedQp::new(Matrix::zeros(0, 0), vec![]);
        let sol = qp.solve().unwrap();
        assert!(sol.theta.is_empty());
        assert_eq!(sol.objective, 0.0);
    }
}
