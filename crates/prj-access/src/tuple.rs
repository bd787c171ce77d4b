//! Tuples: the unit of data produced by sorted access.

use prj_geometry::Vector;
use std::fmt;

/// Identifies a tuple by its relation index and its position within that
/// relation's *original* storage order (not the access order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId {
    /// Index of the relation the tuple belongs to (0-based).
    pub relation: usize,
    /// Index of the tuple within the relation (0-based).
    pub index: usize,
}

impl TupleId {
    /// Creates a tuple identifier.
    pub fn new(relation: usize, index: usize) -> TupleId {
        TupleId { relation, index }
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}[{}]", self.relation + 1, self.index + 1)
    }
}

/// A tuple of a proximity rank join relation: a feature vector `x(τ)` plus a
/// score `σ(τ)`, tagged with its identity.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// The tuple identity.
    pub id: TupleId,
    /// The feature vector `x(τ) ∈ R^d`.
    pub vector: Vector,
    /// The score `σ(τ)`; the paper's reference aggregation assumes
    /// `σ ∈ (0, 1]` but any positive value is accepted.
    pub score: f64,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(id: TupleId, vector: Vector, score: f64) -> Tuple {
        Tuple { id, vector, score }
    }

    /// Dimensionality of the feature vector.
    pub fn dim(&self) -> usize {
        self.vector.dim()
    }

    /// Euclidean distance of the tuple's feature vector from `q`.
    pub fn distance_to(&self, q: &Vector) -> f64 {
        self.vector.distance(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_id_display_is_one_based() {
        let id = TupleId::new(0, 1);
        assert_eq!(format!("{id}"), "τ1[2]");
    }

    #[test]
    fn tuple_distance() {
        let t = Tuple::new(TupleId::new(0, 0), Vector::from([3.0, 4.0]), 0.5);
        assert_eq!(t.distance_to(&Vector::from([0.0, 0.0])), 5.0);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.score, 0.5);
    }

    #[test]
    fn tuple_id_ordering() {
        let a = TupleId::new(0, 5);
        let b = TupleId::new(1, 0);
        let c = TupleId::new(0, 7);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    /// Pinned so that no change silently grows every tuple of every score
    /// lane, delta and access buffer.
    #[test]
    fn a_tuple_fits_in_sixty_four_bytes() {
        assert!(std::mem::size_of::<Tuple>() <= 64);
    }
}
