//! K-way merge of sorted-access sources.
//!
//! A sharded catalog stores one relation as several disjoint partitions,
//! each with its own access structures. The ProxRJ operator, however, is
//! specified over *whole* relations: its bounds are only valid when every
//! relation is consumed in globally sorted order (Definition 2.1). A
//! [`MergedAccess`] re-creates that contract on top of shard-local sources:
//! it holds one lookahead tuple per shard and always yields the globally
//! best head, so the merged stream is exactly the sorted order of the union
//! — and the paper's instance-optimal stopping condition carries over
//! unchanged to sharded execution.
//!
//! Ties are broken by [`TupleId`](crate::TupleId), making the merged order
//! deterministic and independent of how tuples were assigned to shards.

use crate::kind::AccessKind;
use crate::source::SortedAccess;
use crate::tuple::Tuple;
use std::cmp::Ordering;
use std::sync::Arc;

/// The sort key a merged access orders its heads by.
///
/// Mirrors the two sorted-access variants of Definition 2.1: a
/// distance-based source yields non-decreasing `δ(t, q)`, a score-based one
/// non-increasing `σ(t)`.
pub enum MergeOrder {
    /// Non-decreasing value of the key function (distance-based access).
    /// The key must be the same distance the shard sources are sorted by.
    AscendingBy(Box<dyn Fn(&Tuple) -> f64 + Send>),
    /// Non-increasing score (score-based access).
    DescendingScore,
}

impl MergeOrder {
    fn compare(&self, a: &Tuple, b: &Tuple) -> Ordering {
        let by_key = match self {
            MergeOrder::AscendingBy(key) => key(a).total_cmp(&key(b)),
            MergeOrder::DescendingScore => b.score.total_cmp(&a.score),
        };
        by_key.then_with(|| a.id.cmp(&b.id))
    }
}

impl std::fmt::Debug for MergeOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeOrder::AscendingBy(_) => f.write_str("AscendingBy(..)"),
            MergeOrder::DescendingScore => f.write_str("DescendingScore"),
        }
    }
}

/// One sorted-access view over several shard-local sorted-access sources.
///
/// Each `next_tuple` call compares the shards' buffered heads under the
/// [`MergeOrder`] and yields the best one, refilling that shard's head from
/// its source. The first call primes every head, so constructing the merge
/// does no work. Work is proportional to the number of shards per access, and
/// each underlying source is only read as deep as the merged consumer asks —
/// plus the one-tuple lookahead — so the operator's access depths are
/// preserved up to that lookahead.
pub struct MergedAccess {
    name: Arc<str>,
    kind: AccessKind,
    order: MergeOrder,
    parts: Vec<Box<dyn SortedAccess>>,
    /// One lookahead tuple per part, aligned with `parts`.
    heads: Vec<Option<Tuple>>,
    primed: bool,
    max_score: f64,
    total_len: Option<usize>,
}

impl MergedAccess {
    /// Merges `parts` (shard views of one relation, all sharing the same
    /// access kind) under `order`.
    ///
    /// # Panics
    /// Panics when `parts` is empty or the access kinds disagree.
    pub fn new(
        name: impl Into<Arc<str>>,
        parts: Vec<Box<dyn SortedAccess>>,
        order: MergeOrder,
    ) -> Self {
        assert!(!parts.is_empty(), "a merged access needs at least one part");
        let kind = parts[0].kind();
        assert!(
            parts.iter().all(|p| p.kind() == kind),
            "merged parts must share one access kind"
        );
        let max_score = parts
            .iter()
            .map(|p| p.max_score())
            .fold(f64::NEG_INFINITY, f64::max);
        let total_len = parts
            .iter()
            .map(|p| p.total_len())
            .try_fold(0usize, |acc, len| len.map(|l| acc + l));
        MergedAccess {
            name: name.into(),
            kind,
            order,
            heads: vec![None; parts.len()],
            parts,
            primed: false,
            max_score,
            total_len,
        }
    }
}

impl SortedAccess for MergedAccess {
    fn next_tuple(&mut self) -> Option<Tuple> {
        if !self.primed {
            for (head, part) in self.heads.iter_mut().zip(&mut self.parts) {
                *head = part.next_tuple();
            }
            self.primed = true;
        }
        let best = self
            .heads
            .iter()
            .enumerate()
            .filter_map(|(j, h)| h.as_ref().map(|t| (j, t)))
            .min_by(|(_, a), (_, b)| self.order.compare(a, b))
            .map(|(j, _)| j)?;
        let tuple = self.heads[best].take();
        self.heads[best] = self.parts[best].next_tuple();
        tuple
    }

    fn kind(&self) -> AccessKind {
        self.kind
    }

    fn total_len(&self) -> Option<usize> {
        self.total_len
    }

    fn max_score(&self) -> f64 {
        self.max_score
    }

    fn reset(&mut self) {
        for part in &mut self.parts {
            part.reset();
        }
        self.heads.fill(None);
        self.primed = false;
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for MergedAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedAccess")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("parts", &self.parts.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecRelation;
    use crate::tuple::TupleId;
    use prj_geometry::Vector;

    fn mk_tuples(rel: usize, pts: &[(f64, f64, f64)]) -> Vec<Tuple> {
        pts.iter()
            .enumerate()
            .map(|(i, &(x, y, s))| Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), s))
            .collect()
    }

    fn split_round_robin(tuples: &[Tuple], shards: usize) -> Vec<Vec<Tuple>> {
        let mut parts = vec![Vec::new(); shards];
        for (i, t) in tuples.iter().enumerate() {
            parts[i % shards].push(t.clone());
        }
        parts
    }

    #[test]
    fn merged_distance_order_equals_unsharded() {
        let q = Vector::from([0.1, -0.2]);
        let mut pts = Vec::new();
        for i in 0..40 {
            let x = ((i * 37) % 100) as f64 / 10.0 - 5.0;
            let y = ((i * 53) % 100) as f64 / 10.0 - 5.0;
            pts.push((x, y, (i % 10) as f64 / 10.0 + 0.05));
        }
        let tuples = mk_tuples(0, &pts);
        let mut whole = VecRelation::distance_sorted("whole", &q, tuples.clone());
        for shards in [1, 2, 3, 5] {
            let parts: Vec<Box<dyn SortedAccess>> = split_round_robin(&tuples, shards)
                .into_iter()
                .map(|part| {
                    Box::new(VecRelation::distance_sorted("part", &q, part))
                        as Box<dyn SortedAccess>
                })
                .collect();
            let query = q.clone();
            let mut merged = MergedAccess::new(
                "merged",
                parts,
                MergeOrder::AscendingBy(Box::new(move |t| t.distance_to(&query))),
            );
            assert_eq!(merged.total_len(), Some(40));
            assert_eq!(merged.kind(), AccessKind::Distance);
            whole.reset();
            loop {
                match (whole.next_tuple(), merged.next_tuple()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => assert_eq!(a.id, b.id, "shards={shards}"),
                    (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn merged_score_order_equals_unsharded() {
        let pts: Vec<(f64, f64, f64)> = (0..30)
            .map(|i| (i as f64, -(i as f64), ((i * 7) % 13) as f64 / 13.0 + 0.01))
            .collect();
        let tuples = mk_tuples(0, &pts);
        let mut whole = VecRelation::score_sorted("whole", tuples.clone());
        let parts: Vec<Box<dyn SortedAccess>> = split_round_robin(&tuples, 4)
            .into_iter()
            .map(|part| Box::new(VecRelation::score_sorted("part", part)) as Box<dyn SortedAccess>)
            .collect();
        let mut merged = MergedAccess::new("merged", parts, MergeOrder::DescendingScore);
        loop {
            match (whole.next_tuple(), merged.next_tuple()) {
                (None, None) => break,
                (Some(a), Some(b)) => assert_eq!(a.id, b.id),
                (a, b) => panic!("length mismatch: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn ties_resolve_by_tuple_id_regardless_of_shard_assignment() {
        // Four tuples at the same distance with the same score: the merged
        // order must be id order however they land on shards.
        let pts = [
            (1.0, 0.0, 0.5),
            (0.0, 1.0, 0.5),
            (-1.0, 0.0, 0.5),
            (0.0, -1.0, 0.5),
        ];
        let tuples = mk_tuples(0, &pts);
        let q = Vector::from([0.0, 0.0]);
        for shards in [1, 2, 4] {
            let parts: Vec<Box<dyn SortedAccess>> = split_round_robin(&tuples, shards)
                .into_iter()
                .map(|part| {
                    Box::new(VecRelation::distance_sorted("part", &q, part))
                        as Box<dyn SortedAccess>
                })
                .collect();
            let query = q.clone();
            let mut merged = MergedAccess::new(
                "merged",
                parts,
                MergeOrder::AscendingBy(Box::new(move |t| t.distance_to(&query))),
            );
            let ids: Vec<usize> = std::iter::from_fn(|| merged.next_tuple())
                .map(|t| t.id.index)
                .collect();
            assert_eq!(ids, vec![0, 1, 2, 3], "shards={shards}");
        }
    }

    #[test]
    fn reset_restarts_the_merge() {
        let tuples = mk_tuples(0, &[(1.0, 0.0, 0.9), (2.0, 0.0, 0.4), (3.0, 0.0, 0.7)]);
        let parts: Vec<Box<dyn SortedAccess>> = split_round_robin(&tuples, 2)
            .into_iter()
            .map(|part| Box::new(VecRelation::score_sorted("part", part)) as Box<dyn SortedAccess>)
            .collect();
        let mut merged = MergedAccess::new("merged", parts, MergeOrder::DescendingScore);
        assert_eq!(std::iter::from_fn(|| merged.next_tuple()).count(), 3);
        merged.reset();
        let scores: Vec<f64> = std::iter::from_fn(|| merged.next_tuple())
            .map(|t| t.score)
            .collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.4]);
        assert_eq!(merged.max_score(), 0.9);
    }

    #[test]
    #[should_panic]
    fn empty_parts_panic() {
        let _ = MergedAccess::new("m", Vec::new(), MergeOrder::DescendingScore);
    }
}
