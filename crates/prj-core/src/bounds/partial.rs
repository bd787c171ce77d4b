//! Partial-combination bookkeeping for the tight bound.
//!
//! The tight bound (Eq. 8–9) maximises over every proper subset `M` of the
//! relations and every partial combination `τ ∈ PC(M) = Π_{i∈M} P_i`. This
//! module provides the registry that stores, for each subset, the partial
//! combinations formed so far together with their cached completion bounds
//! and dominance flags, and grows it incrementally as new tuples arrive
//! (Algorithm 2, line 7: only combinations using the newly retrieved tuple
//! are added).

/// One partial combination `τ ∈ PC(M)`: cached bound, dominance and
/// retirement flags.
/// Its access ranks live in the owning [`SubsetState`]'s flat `ranks` lane
/// (struct-of-arrays), addressed by the partial's index.
#[derive(Debug, Clone)]
pub struct PartialCombination {
    /// Cached completion bound `t(τ)`; `NaN` when it has never been computed.
    pub bound: f64,
    /// `true` once the dominance test (Sec. 3.2.2) has flagged the partial
    /// combination as dominated; dominated combinations are never
    /// re-evaluated (dominance is permanent).
    pub dominated: bool,
    /// `true` once the run's floor has shown that the completion bound can
    /// never again reach the termination test; retired combinations are
    /// never re-evaluated either. Kept apart from `dominated`, which counts
    /// the dominance test's work alone.
    pub retired: bool,
}

impl PartialCombination {
    /// Creates an unevaluated partial combination.
    pub fn new() -> Self {
        PartialCombination {
            bound: f64::NAN,
            dominated: false,
            retired: false,
        }
    }

    /// `true` when the cached bound has never been computed.
    pub fn needs_evaluation(&self) -> bool {
        self.bound.is_nan()
    }
}

impl Default for PartialCombination {
    fn default() -> Self {
        Self::new()
    }
}

/// The registry entry for one proper subset `M ⊂ {1, …, n}`.
#[derive(Debug, Clone)]
pub struct SubsetState {
    /// Bitmask of `M` (bit `i` set ⇔ relation `i ∈ M`).
    pub mask: u32,
    /// The member relation indices, ascending.
    pub members: Vec<usize>,
    /// All partial combinations formed so far from seen tuples of `M`.
    pub partials: Vec<PartialCombination>,
    /// Access ranks (0-based) of every partial's chosen tuples, flattened
    /// with stride `arity()` and aligned with [`Self::members`]. Keeping one
    /// contiguous lane instead of a `Vec` per partial lets the bound-update
    /// loop stream over ranks without per-partial allocations or clones.
    ranks: Vec<usize>,
    /// The cached subset bound `t_M` (Eq. 8); `−∞` until evaluated or when
    /// the subset is infeasible (some relation outside `M` is exhausted).
    pub best: f64,
}

impl SubsetState {
    /// Creates the state for the subset described by `mask` over `n` relations.
    pub fn new(mask: u32, n: usize) -> Self {
        let members: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let partials = if members.is_empty() {
            // PC(∅) conventionally contains exactly the empty combination
            // (whose rank slice is empty).
            vec![PartialCombination::new()]
        } else {
            Vec::new()
        };
        SubsetState {
            mask,
            members,
            partials,
            ranks: Vec::new(),
            best: f64::NEG_INFINITY,
        }
    }

    /// The access ranks of partial combination `idx`, aligned with
    /// [`Self::members`] (empty for the empty subset).
    #[inline]
    pub fn ranks_of(&self, idx: usize) -> &[usize] {
        let m = self.members.len();
        &self.ranks[idx * m..(idx + 1) * m]
    }

    /// `true` when relation `i` belongs to `M`.
    pub fn contains(&self, i: usize) -> bool {
        self.mask & (1 << i) != 0
    }

    /// Number of member relations `m = |M|`.
    pub fn arity(&self) -> usize {
        self.members.len()
    }

    /// Position of relation `i` within [`Self::members`], if present.
    pub fn member_position(&self, i: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == i)
    }

    /// Extends `PC(M)` with every partial combination that uses the tuple of
    /// access rank `new_rank` just retrieved from relation `rel ∈ M`,
    /// combined with all previously seen tuples of the other members (whose
    /// current depths are given by `depths`). Returns the index of the first
    /// newly added partial combination.
    ///
    /// # Panics
    /// Panics if `rel` is not a member of `M`.
    pub fn extend_with_new_tuple(
        &mut self,
        rel: usize,
        new_rank: usize,
        depths: &[usize],
    ) -> usize {
        let pos = self
            .member_position(rel)
            .expect("extend_with_new_tuple: relation not in subset");
        let first_new = self.partials.len();
        // Iterate over the cartesian product of the other members' seen ranks.
        let other_members: Vec<usize> =
            self.members.iter().copied().filter(|&m| m != rel).collect();
        if other_members.iter().any(|&m| depths[m] == 0) {
            // Some member has no seen tuple yet: no combination can be formed.
            return first_new;
        }
        let mut counters = vec![0usize; other_members.len()];
        loop {
            // Append the rank tuple in member order onto the flat lane.
            let mut oi = 0;
            for idx in 0..self.members.len() {
                if idx == pos {
                    self.ranks.push(new_rank);
                } else {
                    self.ranks.push(counters[oi]);
                    oi += 1;
                }
            }
            self.partials.push(PartialCombination::new());
            // Advance the mixed-radix counter.
            let mut carry = true;
            for (ci, &m) in other_members.iter().enumerate() {
                if !carry {
                    break;
                }
                counters[ci] += 1;
                if counters[ci] >= depths[m] {
                    counters[ci] = 0;
                } else {
                    carry = false;
                }
            }
            if carry {
                break;
            }
        }
        first_new
    }

    /// Number of partial combinations currently flagged as dominated.
    pub fn dominated_count(&self) -> usize {
        self.partials.iter().filter(|p| p.dominated).count()
    }
}

/// Builds the registry for all proper subsets of `{0, …, n−1}` (including the
/// empty set, excluding the full set), ordered by mask value.
pub fn proper_subsets(n: usize) -> Vec<SubsetState> {
    assert!((1..32).contains(&n), "unsupported number of relations: {n}");
    let full = (1u32 << n) - 1;
    (0..full).map(|mask| SubsetState::new(mask, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proper_subsets_counts() {
        assert_eq!(proper_subsets(1).len(), 1); // only ∅
        assert_eq!(proper_subsets(2).len(), 3); // ∅, {0}, {1}
        assert_eq!(proper_subsets(3).len(), 7);
        assert_eq!(proper_subsets(4).len(), 15);
    }

    #[test]
    fn empty_subset_has_the_empty_partial() {
        let subsets = proper_subsets(3);
        assert_eq!(subsets[0].arity(), 0);
        assert_eq!(subsets[0].partials.len(), 1);
        assert!(subsets[0].ranks_of(0).is_empty());
        assert!(subsets[0].partials[0].needs_evaluation());
    }

    #[test]
    fn membership_queries() {
        let subsets = proper_subsets(3);
        // mask 0b101 = {0, 2}
        let s = &subsets[0b101];
        assert_eq!(s.members, vec![0, 2]);
        assert!(s.contains(0));
        assert!(!s.contains(1));
        assert!(s.contains(2));
        assert_eq!(s.member_position(2), Some(1));
        assert_eq!(s.member_position(1), None);
    }

    #[test]
    fn extension_with_singleton_subset() {
        let mut s = SubsetState::new(0b001, 3);
        let depths = [1, 0, 0];
        let first = s.extend_with_new_tuple(0, 0, &depths);
        assert_eq!(first, 0);
        assert_eq!(s.partials.len(), 1);
        assert_eq!(s.ranks_of(0), [0]);
        // Second tuple of relation 0.
        let depths = [2, 0, 0];
        let first = s.extend_with_new_tuple(0, 1, &depths);
        assert_eq!(first, 1);
        assert_eq!(s.partials.len(), 2);
        assert_eq!(s.ranks_of(1), [1]);
    }

    #[test]
    fn extension_with_pair_subset_forms_cross_product() {
        let mut s = SubsetState::new(0b011, 3);
        // Relation 1 has no tuples yet -> nothing can be formed.
        s.extend_with_new_tuple(0, 0, &[1, 0, 5]);
        assert!(s.partials.is_empty());
        // Relation 1 gets its first tuple while relation 0 has depth 2.
        s.extend_with_new_tuple(1, 0, &[2, 1, 5]);
        assert_eq!(s.partials.len(), 2);
        let ranks: Vec<Vec<usize>> = (0..s.partials.len())
            .map(|i| s.ranks_of(i).to_vec())
            .collect();
        assert!(ranks.contains(&vec![0, 0]));
        assert!(ranks.contains(&vec![1, 0]));
        // Another tuple from relation 0 combines with the single seen tuple of 1.
        let first = s.extend_with_new_tuple(0, 2, &[3, 1, 5]);
        assert_eq!(first, 2);
        assert_eq!(s.partials.len(), 3);
        assert_eq!(s.ranks_of(2), [2, 0]);
    }

    #[test]
    fn extension_matches_cross_product_size() {
        // Simulate interleaved growth of a 3-member subset and check
        // |PC(M)| = Π depths at the end.
        let mut s = SubsetState::new(0b111, 4);
        let mut depths = [0usize; 4];
        let schedule = [0, 1, 2, 0, 1, 2, 2, 0, 1];
        for &rel in &schedule {
            depths[rel] += 1;
            s.extend_with_new_tuple(rel, depths[rel] - 1, &depths);
        }
        assert_eq!(s.partials.len(), depths[0] * depths[1] * depths[2]);
        // All rank vectors are distinct.
        let mut seen: Vec<Vec<usize>> = (0..s.partials.len())
            .map(|i| s.ranks_of(i).to_vec())
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), s.partials.len());
    }

    #[test]
    fn dominated_count() {
        let mut s = SubsetState::new(0b1, 2);
        s.extend_with_new_tuple(0, 0, &[1, 0]);
        s.extend_with_new_tuple(0, 1, &[2, 0]);
        assert_eq!(s.dominated_count(), 0);
        s.partials[0].dominated = true;
        assert_eq!(s.dominated_count(), 1);
    }

    #[test]
    #[should_panic]
    fn extension_with_non_member_panics() {
        let mut s = SubsetState::new(0b001, 2);
        s.extend_with_new_tuple(1, 0, &[1, 1]);
    }
}
