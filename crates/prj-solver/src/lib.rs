//! Small dense numerical optimisation for proximity rank join.
//!
//! The tight bounding scheme of *Proximity Rank Join* (Sec. 3.2) requires
//! solving, after every sorted access, a family of small optimisation
//! problems:
//!
//! * a **convex quadratic program** per partial combination (paper Eq. 14,
//!   after the collinearity reduction of Theorem 3.4) — solved exactly by
//!   the KKT closed form [`closed_form::ray_optimum`], of which the
//!   equal-radius bound of Eq. 11/29 is a special case;
//! * the **unconstrained score-based bound** (Eq. 41) — the closed form
//!   [`closed_form::score_based_optimum`];
//! * a **linear feasibility problem** per dominance test (paper Eq. 35) —
//!   handled by [`lp`].
//!
//! The paper relies on off-the-shelf solvers (MATLAB `quadprog`/`linprog`).
//! Since this reproduction must be self-contained, the solvers are implemented
//! from scratch: a dense two-phase simplex for LP feasibility, and a general
//! primal active-set method for box-constrained convex QPs ([`qp`]), which
//! the tight bound no longer calls but which remains the reference the
//! closed form is tested against. Problem sizes are tiny (the QP has
//! `n ≤ 5` variables, the LP has `d + 1 ≤ 17` variables), so the focus is on
//! robustness rather than asymptotics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Dense linear-algebra kernels index rows/columns explicitly; iterator
// rewrites obscure the correspondence with the textbook formulations.
#![allow(clippy::needless_range_loop)]

pub mod closed_form;
pub mod linalg;
pub mod lp;
pub mod qp;

pub use closed_form::{ray_optimum, score_based_optimum};
pub use linalg::Matrix;
pub use lp::{halfspaces_feasible, LpOutcome, LpSolver};
pub use qp::{BoundedQp, QpError, QpSolution};

/// Numerical tolerance shared by the solvers.
pub const SOLVER_EPS: f64 = 1e-9;

#[cfg(test)]
mod tests {
    #[test]
    fn eps_is_small() {
        const { assert!(super::SOLVER_EPS < 1e-6) };
    }
}
