//! Vector geometry primitives for proximity rank join.
//!
//! This crate provides the low-level geometric machinery used throughout the
//! reproduction of *Proximity Rank Join* (Martinenghi & Tagliasacchi,
//! VLDB 2010):
//!
//! * [`Vector`] — a dense `d`-dimensional real vector with the arithmetic
//!   needed by the bounding schemes (addition, scaling, dot products,
//!   norms). Up to four components are stored inline, so a tuple of the
//!   paper's low dimensionalities is read, cloned and buffered without a
//!   heap allocation.
//! * [`Metric`] and the concrete metrics ([`Euclidean`], [`SquaredEuclidean`],
//!   [`Manhattan`], [`Chebyshev`], [`CosineDistance`]) — the notion of distance
//!   `δ(·,·)` used both for sorted access and inside the proximity weighting
//!   functions.
//! * [`centroid`] — combination centroids: the arithmetic mean (the minimiser
//!   of the sum of *squared* Euclidean distances, used by the paper's Eq. 2)
//!   and the geometric median (Weiszfeld iteration) for the general
//!   `argmin Σ δ(x_i, ω)` definition.
//! * [`Aabb`] — axis-aligned bounding boxes with minimum/maximum distance to a
//!   point, the building block of the R-tree substrate in `prj-index`.
//!
//! All computations are `f64`. The crate has no unsafe code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod centroid;
pub mod metric;
pub mod vector;

pub use aabb::Aabb;
pub use centroid::{geometric_median, mean_centroid, weighted_mean_centroid};
pub use metric::{
    Chebyshev, CosineDistance, Euclidean, Manhattan, Metric, MetricKind, SquaredEuclidean,
};
pub use vector::Vector;

/// Numerical tolerance used by equality-ish comparisons across the workspace.
pub const EPSILON: f64 = 1e-9;

/// Returns `true` if two floating point numbers are equal up to `tol`.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}

/// Returns `true` if two floating point numbers are equal up to [`EPSILON`]
/// scaled by their magnitude.
#[inline]
pub fn approx_eq_rel(a: f64, b: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= EPSILON * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12, 1e-9));
        assert!(!approx_eq(1.0, 1.1, 1e-9));
    }

    #[test]
    fn approx_eq_rel_scales() {
        assert!(approx_eq_rel(1e12, 1e12 + 1.0e2));
        assert!(!approx_eq_rel(1.0, 1.001));
    }
}
