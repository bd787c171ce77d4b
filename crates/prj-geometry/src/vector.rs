//! Dense `d`-dimensional real vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// Components a [`Vector`] keeps inline; a longer vector spills to the
/// heap.
const INLINE: usize = 4;

/// A dense real-valued feature vector `x ∈ R^d`.
///
/// Every tuple of a proximity rank join relation carries one of these; the
/// query point `q` is also a `Vector`. The type intentionally stays simple —
/// the components plus the handful of linear-algebra operations the
/// bounding schemes need. Up to four components are stored inline, so
/// creating, cloning or dropping a vector of the paper's low
/// dimensionalities touches no heap; a longer vector keeps its components
/// in one heap allocation.
///
/// Equality compares the components, exactly as `[f64]` does (`NaN` is
/// unequal to itself, `-0.0 == 0.0`).
///
/// # Examples
///
/// ```
/// use prj_geometry::Vector;
///
/// let a = Vector::from(vec![1.0, 2.0]);
/// let b = Vector::from(vec![3.0, -1.0]);
/// assert_eq!((&a + &b).as_slice(), &[4.0, 1.0]);
/// assert_eq!(a.dot(&b), 1.0);
/// ```
#[derive(Clone)]
pub struct Vector(Repr);

/// Where a [`Vector`]'s components live.
#[derive(Clone)]
enum Repr {
    /// At most [`INLINE`] components, in `buf[..len]`.
    Inline { len: u8, buf: [f64; INLINE] },
    /// More than [`INLINE`] components.
    Spilled(Vec<f64>),
}

impl Vector {
    /// Creates a vector from its components.
    pub fn new(components: Vec<f64>) -> Self {
        if components.len() <= INLINE {
            Vector::from(components.as_slice())
        } else {
            Vector(Repr::Spilled(components))
        }
    }

    /// A vector of `dim` components taken from `components` (which yields
    /// at least `dim`), written straight into its storage.
    fn from_components(dim: usize, components: impl Iterator<Item = f64>) -> Self {
        if dim > INLINE {
            return Vector(Repr::Spilled(components.take(dim).collect()));
        }
        let mut buf = [0.0; INLINE];
        for (slot, c) in buf[..dim].iter_mut().zip(components) {
            *slot = c;
        }
        Vector(Repr::Inline {
            len: dim as u8,
            buf,
        })
    }

    /// Creates the all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Vector::filled(dim, 0.0)
    }

    /// Creates a vector with every component equal to `value`.
    pub fn filled(dim: usize, value: f64) -> Self {
        Vector::from_components(dim, std::iter::repeat(value))
    }

    /// Creates the `i`-th canonical basis vector of dimension `dim`.
    ///
    /// # Panics
    /// Panics if `i >= dim`.
    pub fn basis(dim: usize, i: usize) -> Self {
        assert!(i < dim, "basis index {i} out of range for dimension {dim}");
        Vector::from_components(dim, (0..dim).map(|j| if j == i { 1.0 } else { 0.0 }))
    }

    /// The dimensionality `d` of the vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` when the vector has zero components.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dim() == 0
    }

    /// Read-only view of the components.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Mutable view of the components.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        match &mut self.0 {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// Consumes the vector and returns its components.
    pub fn into_inner(self) -> Vec<f64> {
        match self.0 {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Spilled(v) => v,
        }
    }

    /// Iterator over components.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.as_slice().iter()
    }

    /// `f(a, b)` of each pair of components, as a new vector.
    fn zip_with(&self, other: &Vector, f: impl Fn(f64, f64) -> f64) -> Vector {
        let pairs = self.iter().zip(other.iter()).map(|(&a, &b)| f(a, b));
        Vector::from_components(self.dim(), pairs)
    }

    /// Dot product `xᵀy`.
    ///
    /// # Panics
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Vector) -> f64 {
        assert_eq!(
            self.dim(),
            other.dim(),
            "dot product of vectors with mismatched dimensions"
        );
        self.iter().zip(other.iter()).map(|(a, b)| a * b).sum()
    }

    /// Squared Euclidean norm `‖x‖²`.
    #[inline]
    pub fn norm_squared(&self) -> f64 {
        self.iter().map(|a| a * a).sum()
    }

    /// Euclidean norm `‖x‖`.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// L1 (Manhattan) norm.
    #[inline]
    pub fn norm_l1(&self) -> f64 {
        self.iter().map(|a| a.abs()).sum()
    }

    /// L∞ (Chebyshev) norm.
    #[inline]
    pub fn norm_linf(&self) -> f64 {
        self.iter().fold(0.0, |acc, a| acc.max(a.abs()))
    }

    /// Squared Euclidean distance to `other`.
    pub fn distance_squared(&self, other: &Vector) -> f64 {
        assert_eq!(self.dim(), other.dim(), "distance of mismatched dimensions");
        self.iter()
            .zip(other.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Vector) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Component-wise scaling by `s`.
    pub fn scaled(&self, s: f64) -> Vector {
        Vector::from_components(self.dim(), self.iter().map(|a| a * s))
    }

    /// Scales the vector in place.
    pub fn scale_in_place(&mut self, s: f64) {
        for a in self.as_mut_slice() {
            *a *= s;
        }
    }

    /// Returns a unit-length vector in the same direction, or `None` when the
    /// norm is (numerically) zero.
    pub fn normalized(&self) -> Option<Vector> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self.scaled(1.0 / n))
        }
    }

    /// Linear interpolation `(1 - t)·self + t·other`.
    pub fn lerp(&self, other: &Vector, t: f64) -> Vector {
        assert_eq!(self.dim(), other.dim(), "lerp of mismatched dimensions");
        self.zip_with(other, |a, b| (1.0 - t) * a + t * b)
    }

    /// Returns `true` when all components are finite.
    pub fn is_finite(&self) -> bool {
        self.iter().all(|a| a.is_finite())
    }

    /// Component-wise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Vector, tol: f64) -> bool {
        self.dim() == other.dim()
            && self
                .iter()
                .zip(other.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl fmt::Debug for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Vector(")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, ")")
    }
}

impl Default for Vector {
    /// The vector of dimension 0.
    fn default() -> Self {
        Vector::zeros(0)
    }
}

impl PartialEq for Vector {
    fn eq(&self, other: &Vector) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<f64>> for Vector {
    fn from(v: Vec<f64>) -> Self {
        Vector::new(v)
    }
}

impl From<&[f64]> for Vector {
    fn from(v: &[f64]) -> Self {
        Vector::from_components(v.len(), v.iter().copied())
    }
}

impl<const N: usize> From<[f64; N]> for Vector {
    fn from(v: [f64; N]) -> Self {
        Vector::from_components(N, v.into_iter())
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.as_slice()[i]
    }
}

impl IndexMut<usize> for Vector {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.as_mut_slice()[i]
    }
}

impl Add for &Vector {
    type Output = Vector;
    fn add(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "adding vectors of mismatched dimensions"
        );
        self.zip_with(rhs, |a, b| a + b)
    }
}

impl Add for Vector {
    type Output = Vector;
    fn add(self, rhs: Vector) -> Vector {
        &self + &rhs
    }
}

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "adding vectors of mismatched dimensions"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a += b;
        }
    }
}

impl Sub for &Vector {
    type Output = Vector;
    fn sub(self, rhs: &Vector) -> Vector {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "subtracting vectors of mismatched dimensions"
        );
        self.zip_with(rhs, |a, b| a - b)
    }
}

impl Sub for Vector {
    type Output = Vector;
    fn sub(self, rhs: Vector) -> Vector {
        &self - &rhs
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(
            self.dim(),
            rhs.dim(),
            "subtracting vectors of mismatched dimensions"
        );
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, rhs: f64) -> Vector {
        self.scaled(rhs)
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.scaled(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::from([1.0, 2.0, 3.0]);
        assert_eq!(v.dim(), 3);
        assert_eq!(v[1], 2.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);
        let z = Vector::zeros(4);
        assert_eq!(z.norm(), 0.0);
        let b = Vector::basis(3, 2);
        assert_eq!(b.as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from([1.0, 2.0]);
        let b = Vector::from([3.0, -1.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 1.0]);
        assert_eq!((&a - &b).as_slice(), &[-2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 1.0]);
        c -= &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn norms_and_distances() {
        let a = Vector::from([3.0, 4.0]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.norm_squared(), 25.0);
        assert_eq!(a.norm_l1(), 7.0);
        assert_eq!(a.norm_linf(), 4.0);
        let b = Vector::from([0.0, 0.0]);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_squared(&b), 25.0);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from([1.0, 2.0, 3.0]);
        let b = Vector::from([4.0, -5.0, 6.0]);
        assert_eq!(a.dot(&b), 4.0 - 10.0 + 18.0);
    }

    #[test]
    fn normalization() {
        let a = Vector::from([3.0, 4.0]);
        let u = a.normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(Vector::zeros(2).normalized().is_none());
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vector::from([0.0, 0.0]);
        let b = Vector::from([2.0, 4.0]);
        assert!(a.lerp(&b, 0.0).approx_eq(&a, 1e-12));
        assert!(a.lerp(&b, 1.0).approx_eq(&b, 1e-12));
        assert!(a.lerp(&b, 0.5).approx_eq(&Vector::from([1.0, 2.0]), 1e-12));
    }

    #[test]
    #[should_panic]
    fn mismatched_dimensions_panic() {
        let a = Vector::from([1.0]);
        let b = Vector::from([1.0, 2.0]);
        let _ = a.dot(&b);
    }

    #[test]
    fn finite_check() {
        assert!(Vector::from([1.0, 2.0]).is_finite());
        assert!(!Vector::from([f64::NAN, 2.0]).is_finite());
        assert!(!Vector::from([f64::INFINITY]).is_finite());
    }

    /// The bit patterns of `components`, so that `-0.0` and infinities
    /// compare exactly. Every `NaN` maps to one pattern: Rust leaves the
    /// sign and payload of a `NaN` that arithmetic produces unspecified,
    /// and they do differ between debug and release builds.
    fn bits(components: &[f64]) -> Vec<u64> {
        let canonical = |c: &f64| if c.is_nan() { f64::NAN } else { *c };
        components.iter().map(|c| canonical(c).to_bits()).collect()
    }

    /// The exact bit patterns of `components`, `NaN` payloads included.
    fn exact_bits(components: &[f64]) -> Vec<u64> {
        components.iter().map(|c| c.to_bits()).collect()
    }

    /// What `Debug` printed when a vector was a bare `Vec<f64>`.
    fn reference_debug(components: &[f64]) -> String {
        let parts: Vec<String> = components.iter().map(|c| format!("{c:.4}")).collect();
        format!("Vector({})", parts.join(", "))
    }

    /// `v` holds exactly `reference`: dimension, components bit for bit,
    /// `Debug`, equality with a vector built from the same components, and
    /// the `into_inner` round trip.
    fn assert_holds(v: &Vector, reference: &[f64]) {
        assert_eq!(v.dim(), reference.len());
        assert_eq!(v.is_empty(), reference.is_empty());
        assert_eq!(bits(v.as_slice()), bits(reference));
        assert_eq!(
            bits(&v.iter().copied().collect::<Vec<_>>()),
            bits(reference)
        );
        assert_eq!(format!("{v:?}"), reference_debug(reference));
        let same = Vector::from(reference);
        assert_eq!(*v == same, v.as_slice() == reference);
        assert_eq!(bits(&v.clone().into_inner()), bits(reference));
    }

    /// A vector that keeps `components` on the heap whatever their number,
    /// which the public constructors never do for four or fewer.
    fn spilled(components: &[f64]) -> Vector {
        Vector(Repr::Spilled(components.to_vec()))
    }

    #[test]
    fn inline_and_spilled_vectors_compare_by_their_components() {
        for dim in 0..=INLINE {
            let components: Vec<f64> = (0..dim).map(|i| i as f64 - 1.5).collect();
            let inline = Vector::from(components.as_slice());
            assert!(matches!(inline.0, Repr::Inline { .. }));
            assert_eq!(inline, spilled(&components));
            assert_eq!(spilled(&components), inline);
            assert_holds(&spilled(&components), &components);
        }
        assert_eq!(Vector::from([0.0, 1.0]), spilled(&[-0.0, 1.0]));
        assert_ne!(Vector::from([f64::NAN]), spilled(&[f64::NAN]));
        assert_ne!(Vector::from([f64::NAN]), Vector::from([f64::NAN]));
        assert_ne!(Vector::from([1.0, 2.0]), spilled(&[1.0, 2.0, 0.0]));
        assert!(matches!(Vector::from([0.0; 5]).0, Repr::Spilled(_)));
    }

    #[test]
    fn default_is_the_empty_vector() {
        assert_holds(&Vector::default(), &[]);
        assert_eq!(Vector::default(), Vector::zeros(0));
    }

    #[test]
    fn arrays_of_every_length_convert() {
        assert_holds(&Vector::from([0.0; 0]), &[]);
        assert_holds(&Vector::from([1.0]), &[1.0]);
        assert_holds(&Vector::from([1.0, -0.0, 3.0, 4.0]), &[1.0, -0.0, 3.0, 4.0]);
        assert_holds(
            &Vector::from([1.0, 2.0, 3.0, 4.0, f64::NAN]),
            &[1.0, 2.0, 3.0, 4.0, f64::NAN],
        );
        let nine = [0.5, -1.0, 2.0, f64::INFINITY, -0.0, 6.0, 7.0, 8.0, 9.0];
        assert_holds(&Vector::from(nine), &nine);
    }

    /// Pinned so that no change silently grows every tuple of every lane.
    #[test]
    fn a_vector_fits_in_forty_bytes() {
        assert!(std::mem::size_of::<Vector>() <= 40);
    }

    /// A component: an ordinary value, or `-0.0`, `NaN` or an infinity.
    fn component((kind, value): (usize, f64)) -> f64 {
        match kind {
            0 => -0.0,
            1 => f64::NAN,
            2 => f64::NEG_INFINITY,
            _ => value,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Over dimensions 0 to 9, across the inline/spilled boundary,
        /// every constructor, operator and in-place write matches the same
        /// computation on a `Vec<f64>` bit for bit.
        #[test]
        fn every_dimension_matches_a_vec_reference(
            pairs in prop::collection::vec(((0usize..24, -1e3..1e3), (0usize..24, -1e3..1e3)), 0..10),
            s in -4.0..4.0,
            t in 0.0..1.0,
            pick in 0usize..10,
        ) {
            let a: Vec<f64> = pairs.iter().map(|&(x, _)| component(x)).collect();
            let b: Vec<f64> = pairs.iter().map(|&(_, y)| component(y)).collect();
            let dim = a.len();
            let zip = |f: &dyn Fn(f64, f64) -> f64| -> Vec<f64> {
                a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
            };
            let (va, vb) = (Vector::from(a.clone()), Vector::from(b.as_slice()));

            assert_holds(&va, &a);
            assert_holds(&vb, &b);
            assert_holds(&Vector::new(a.clone()), &a);
            // Constructors only copy, so they keep even a `NaN`'s bits.
            for copy in [Vector::new(a.clone()), va.clone(), Vector::from(a.as_slice()), spilled(&a)] {
                prop_assert_eq!(exact_bits(copy.as_slice()), exact_bits(&a));
                prop_assert_eq!(exact_bits(&copy.into_inner()), exact_bits(&a));
            }
            assert_holds(&Vector::zeros(dim), &vec![0.0; dim]);
            assert_holds(&Vector::filled(dim, s), &vec![s; dim]);
            if dim > 0 {
                let i = pick % dim;
                let mut basis = vec![0.0; dim];
                basis[i] = 1.0;
                assert_holds(&Vector::basis(dim, i), &basis);
                prop_assert_eq!(va[i].to_bits(), a[i].to_bits());
            }
            assert_holds(&spilled(&a), &a);

            let sum = zip(&|x, y| x + y);
            assert_holds(&(&va + &vb), &sum);
            assert_holds(&(va.clone() + vb.clone()), &sum);
            let difference = zip(&|x, y| x - y);
            assert_holds(&(&va - &vb), &difference);
            assert_holds(&(va.clone() - vb.clone()), &difference);
            let scaled: Vec<f64> = a.iter().map(|x| x * s).collect();
            assert_holds(&va.scaled(s), &scaled);
            assert_holds(&(&va * s), &scaled);
            assert_holds(&(va.clone() * s), &scaled);
            let negated: Vec<f64> = a.iter().map(|x| x * -1.0).collect();
            assert_holds(&-&va, &negated);
            assert_holds(&-va.clone(), &negated);
            assert_holds(&va.lerp(&vb, t), &zip(&|x, y| (1.0 - t) * x + t * y));

            let mut written = va.clone();
            let mut reference = a.clone();
            written.scale_in_place(s);
            reference.iter_mut().for_each(|x| *x *= s);
            assert_holds(&written, &reference);
            written += &vb;
            reference.iter_mut().zip(&b).for_each(|(x, y)| *x += y);
            assert_holds(&written, &reference);
            written -= &va;
            reference.iter_mut().zip(&a).for_each(|(x, y)| *x -= y);
            assert_holds(&written, &reference);
            for (i, c) in written.as_mut_slice().iter_mut().enumerate() {
                *c = i as f64 * s;
            }
            for (i, c) in reference.iter_mut().enumerate() {
                *c = i as f64 * s;
            }
            assert_holds(&written, &reference);
            if dim > 0 {
                let i = pick % dim;
                written[i] = t;
                reference[i] = t;
                assert_holds(&written, &reference);
            }
        }
    }
}
