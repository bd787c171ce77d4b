//! Combinations (elements of the cross product) and the top-K output buffer.

use prj_access::{Tuple, TupleId};
use std::cmp::Ordering;

/// A combination `τ = τ_1 × … × τ_n` together with its aggregate score.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCombination {
    /// The member tuples, one per relation, in relation order.
    pub tuples: Vec<Tuple>,
    /// The aggregate score `S(τ)`.
    pub score: f64,
}

impl ScoredCombination {
    /// Creates a scored combination.
    pub fn new(tuples: Vec<Tuple>, score: f64) -> Self {
        ScoredCombination { tuples, score }
    }

    /// The identities of the member tuples, in relation order.
    pub fn ids(&self) -> Vec<TupleId> {
        self.tuples.iter().map(|t| t.id).collect()
    }

    /// Number of member tuples (the join arity `n`).
    pub fn arity(&self) -> usize {
        self.tuples.len()
    }

    /// Deterministic ordering: by score descending, ties broken by the member
    /// identities (lexicographically ascending) — the paper requires *some*
    /// tie-breaking criterion; this one makes runs reproducible.
    pub fn compare(&self, other: &Self) -> Ordering {
        other.score.total_cmp(&self.score).then_with(|| {
            // Compare the id sequences without materialising them: this
            // runs on every buffer insertion, so it must not allocate.
            self.tuples
                .iter()
                .map(|t| t.id)
                .cmp(other.tuples.iter().map(|t| t.id))
        })
    }
}

/// A bounded buffer retaining only the top-`K` combinations seen so far,
/// ordered best-first (the output buffer `O` of Algorithm 1).
#[derive(Debug, Clone)]
pub struct TopKBuffer {
    k: usize,
    entries: Vec<ScoredCombination>,
}

impl TopKBuffer {
    /// Creates an empty buffer retaining at most `k` combinations.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "K must be at least 1");
        TopKBuffer {
            k,
            entries: Vec::with_capacity(k + 1),
        }
    }

    /// The capacity `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of combinations currently retained (≤ K).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no combination has been inserted yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when the buffer holds `K` combinations.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.k
    }

    /// Inserts a combination, keeping only the top `K`. Returns `true` when
    /// the combination was retained.
    pub fn insert(&mut self, combo: ScoredCombination) -> bool {
        let pos = self
            .entries
            .partition_point(|e| e.compare(&combo) != Ordering::Greater);
        if pos >= self.k {
            return false;
        }
        self.entries.insert(pos, combo);
        if self.entries.len() > self.k {
            self.entries.pop();
        }
        true
    }

    /// The score of the `K`-th best combination retained so far
    /// (`min_{ω ∈ O} S(ω)` in Algorithm 1), or `−∞` when fewer than `K`
    /// combinations have been seen.
    pub fn kth_score(&self) -> f64 {
        if self.entries.len() >= self.k {
            self.entries[self.k - 1].score
        } else {
            f64::NEG_INFINITY
        }
    }

    /// The best score seen so far, or `−∞` if none.
    pub fn best_score(&self) -> f64 {
        self.entries
            .first()
            .map(|e| e.score)
            .unwrap_or(f64::NEG_INFINITY)
    }

    /// The retained combinations, best first.
    pub fn as_slice(&self) -> &[ScoredCombination] {
        &self.entries
    }

    /// Consumes the buffer, returning the retained combinations best-first.
    pub fn into_sorted_vec(self) -> Vec<ScoredCombination> {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_geometry::Vector;

    fn combo(rel_indices: &[usize], score: f64) -> ScoredCombination {
        let tuples = rel_indices
            .iter()
            .enumerate()
            .map(|(r, &i)| Tuple::new(TupleId::new(r, i), Vector::from([i as f64]), 0.5))
            .collect();
        ScoredCombination::new(tuples, score)
    }

    #[test]
    fn ids_and_arity() {
        let c = combo(&[0, 1, 2], -1.0);
        assert_eq!(c.arity(), 3);
        assert_eq!(
            c.ids(),
            vec![TupleId::new(0, 0), TupleId::new(1, 1), TupleId::new(2, 2)]
        );
    }

    #[test]
    fn compare_orders_by_score_then_ids() {
        let a = combo(&[0, 0], -1.0);
        let b = combo(&[0, 1], -2.0);
        assert_eq!(a.compare(&b), Ordering::Less); // a is better (ranks earlier)
        let c = combo(&[0, 0], -1.0);
        let d = combo(&[0, 1], -1.0);
        assert_eq!(c.compare(&d), Ordering::Less); // tie broken by ids
        assert_eq!(d.compare(&c), Ordering::Greater);
    }

    #[test]
    fn top_k_keeps_best() {
        let mut buf = TopKBuffer::new(2);
        assert_eq!(buf.kth_score(), f64::NEG_INFINITY);
        assert!(buf.insert(combo(&[0], -5.0)));
        assert!(buf.insert(combo(&[1], -1.0)));
        assert!(buf.is_full());
        assert_eq!(buf.kth_score(), -5.0);
        // better than the worst retained -> replaces it
        assert!(buf.insert(combo(&[2], -3.0)));
        assert_eq!(buf.kth_score(), -3.0);
        assert_eq!(buf.best_score(), -1.0);
        // worse than everything retained -> rejected
        assert!(!buf.insert(combo(&[3], -10.0)));
        assert_eq!(buf.len(), 2);
        let sorted = buf.into_sorted_vec();
        assert_eq!(sorted[0].score, -1.0);
        assert_eq!(sorted[1].score, -3.0);
    }

    #[test]
    fn insert_keeps_descending_order() {
        let mut buf = TopKBuffer::new(5);
        for (i, s) in [-3.0, -1.0, -7.0, -2.0, -5.0].iter().enumerate() {
            buf.insert(combo(&[i], *s));
        }
        let scores: Vec<f64> = buf.as_slice().iter().map(|c| c.score).collect();
        assert_eq!(scores, vec![-1.0, -2.0, -3.0, -5.0, -7.0]);
        assert_eq!(buf.kth_score(), -7.0);
        assert_eq!(buf.k(), 5);
    }

    #[test]
    fn ties_are_deterministic() {
        let mut buf = TopKBuffer::new(2);
        buf.insert(combo(&[5], -1.0));
        buf.insert(combo(&[1], -1.0));
        buf.insert(combo(&[3], -1.0));
        let ids: Vec<usize> = buf
            .as_slice()
            .iter()
            .map(|c| c.tuples[0].id.index)
            .collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    #[should_panic]
    fn zero_k_panics() {
        let _ = TopKBuffer::new(0);
    }
}
