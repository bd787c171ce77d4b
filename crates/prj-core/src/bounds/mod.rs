//! Bounding schemes: upper bounds on the aggregate score of unseen
//! combinations (paper Sec. 3 and Appendix C).
//!
//! A ProxRJ algorithm terminates as soon as the K-th best score found so far
//! is at least the bound returned by its bounding scheme. Two schemes are
//! provided:
//!
//! * [`CornerBound`] — the HRJN-style bound (Eq. 3 for distance-based access,
//!   Eq. 36 for score-based access). Cheap but not *tight*: Theorems 3.1 and
//!   C.1 show it precludes instance optimality.
//! * [`TightBound`] — the paper's contribution (Eqs. 6–9 and 39–40): for every
//!   proper subset `M` of the relations and every partial combination of seen
//!   tuples from `M`, the best possible completion with unseen tuples is
//!   computed by solving a small optimisation problem; the bound is the
//!   maximum over all of them. Tightness makes ProxRJ instance-optimal
//!   (Theorems 3.2/3.3).

pub mod corner;
pub mod partial;
pub mod tight;

pub use corner::CornerBound;
pub use partial::{PartialCombination, SubsetState};
pub use tight::{TightBound, TightBoundConfig};

use crate::scoring::ScoringFunction;
use crate::state::JoinState;
use std::time::Duration;

/// A bounding scheme: maintains an upper bound on the aggregate score of any
/// combination that uses at least one unseen tuple.
///
/// The trait requires `Send` so that in-flight runs (which own their bounding
/// scheme) can be moved into worker threads by the `prj-engine` executor.
pub trait BoundingScheme<S: ScoringFunction>: Send {
    /// Recomputes the bound after a sorted access.
    ///
    /// `accessed` is the index of the relation that produced a new tuple
    /// (already pushed into the state's buffer), or `None` when the update is
    /// triggered by a relation being exhausted (no new tuple, but the set of
    /// potential results shrank). Returns the new bound.
    fn update(&mut self, state: &JoinState, scoring: &S, accessed: Option<usize>) -> f64;

    /// Hands the scheme the run's floor before an [`update`](Self::update):
    /// the K-th retained score `kth` of a full output buffer and the
    /// termination tolerance `tolerance`. The operator stops once
    /// `kth >= t + tolerance`, and `kth` never decreases, so a scheme may
    /// stop maintaining any part of its bound that provably can never again
    /// reach that test. The default ignores the floor.
    fn set_floor(&mut self, _kth: f64, _tolerance: f64) {}

    /// The current bound (value returned by the last [`update`](Self::update)).
    fn bound(&self) -> f64;

    /// The *potential* of relation `i`: an upper bound on the aggregate score
    /// of combinations that use at least one unseen tuple **from `R_i`**
    /// (paper Sec. 3.3). Used by the potential-adaptive pulling strategy.
    /// Returns `−∞` when `R_i` is exhausted.
    fn potential(&self, i: usize) -> f64;

    /// Cumulative wall-clock time spent in dominance tests, if the scheme
    /// performs any.
    fn dominance_time(&self) -> Duration {
        Duration::ZERO
    }

    /// Number of partial combinations currently flagged as dominated, if the
    /// scheme tracks dominance.
    fn dominated_count(&self) -> usize {
        0
    }

    /// A short name used in reports ("CB" or "TB").
    fn name(&self) -> &'static str;
}
