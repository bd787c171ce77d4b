//! Bound evaluation over base+delta lanes.
//!
//! The engine's delta shards split one logical relation into an immutable
//! base plus a small [`DeltaBuffer`] of fresh appends, and feed the operator
//! a [`MergedAccess`] over the two. The operator's correctness contract
//! (Definition 2.1: globally sorted access; Theorem: certified stops) must
//! be *unobservable* under that split: for any partition of a relation into
//! base and delta, every algorithm must return bit-identical results to the
//! whole-relation run and still certify its stop.

use prj_access::{
    AccessKind, DeltaBuffer, MergeOrder, MergedAccess, SortedAccess, Tuple, TupleId, VecRelation,
};
use prj_core::{naive_rank_join, Algorithm, EuclideanLogScore, ProblemBuilder, ScoredCombination};
use prj_geometry::Vector;
use proptest::prelude::*;
use std::sync::Arc;

fn tuples_for(rel: usize, n: usize, seed: usize) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let x = ((i * 37 + seed * 13) % 100) as f64 / 10.0 - 5.0;
            let y = ((i * 53 + seed * 29) % 100) as f64 / 10.0 - 5.0;
            let score = ((i * 17 + seed * 7) % 11) as f64 / 11.0 + 0.05;
            Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), score)
        })
        .collect()
}

fn fingerprint(combos: &[ScoredCombination]) -> Vec<(Vec<TupleId>, u64)> {
    combos
        .iter()
        .map(|c| (c.ids(), c.score.to_bits()))
        .collect()
}

/// A merged base+delta sorted access in the given kind, mirroring exactly
/// the views `prj-engine`'s catalog serves: the base as an ordinary sorted
/// source, the delta's shared score lane as a one-chunk [`VecRelation`]
/// (score kind) or a per-query distance sort (distance kind).
fn base_delta_access(
    rel: usize,
    base: Vec<Tuple>,
    delta: &DeltaBuffer,
    kind: AccessKind,
    query: &Vector,
) -> Box<dyn SortedAccess> {
    let name = format!("R{rel}");
    let parts: Vec<Box<dyn SortedAccess>> = match kind {
        AccessKind::Score => vec![
            Box::new(VecRelation::score_sorted(name.clone(), base)),
            Box::new(VecRelation::chunked(
                format!("{name}+d"),
                AccessKind::Score,
                [Arc::clone(delta.tuples())],
                delta.max_score(),
            )),
        ],
        AccessKind::Distance => vec![
            Box::new(VecRelation::distance_sorted(name.clone(), query, base)),
            Box::new(VecRelation::distance_sorted(
                format!("{name}+d"),
                query,
                delta.tuples().as_ref().clone(),
            )),
        ],
    };
    let order = match kind {
        AccessKind::Score => MergeOrder::DescendingScore,
        AccessKind::Distance => {
            let q = query.clone();
            MergeOrder::AscendingBy(Box::new(move |t: &Tuple| t.vector.distance(&q)))
        }
    };
    Box::new(MergedAccess::new(name, parts, order))
}

fn check_split(relations: &[Vec<Tuple>], cut: &[usize], query: Vector, k: usize) {
    let scoring = EuclideanLogScore::default();
    let expected = {
        let mut builder = ProblemBuilder::new(query.clone(), scoring).k(k);
        for tuples in relations {
            builder = builder.relation_from_tuples(tuples.clone());
        }
        fingerprint(&naive_rank_join(&mut builder.build().expect("naive")).combinations)
    };
    for kind in [AccessKind::Distance, AccessKind::Score] {
        for algorithm in Algorithm::all() {
            let mut builder = ProblemBuilder::new(query.clone(), scoring)
                .k(k)
                .access_kind(kind);
            for (rel, tuples) in relations.iter().enumerate() {
                let cut = cut[rel].min(tuples.len());
                let base = tuples[..cut].to_vec();
                let delta = DeltaBuffer::new(tuples[cut..].to_vec());
                builder = builder.relation(base_delta_access(rel, base, &delta, kind, &query));
            }
            let mut problem = builder.build().expect("base+delta problem");
            let result = algorithm.run(&mut problem).expect("run");
            assert_eq!(
                fingerprint(&result.combinations),
                expected,
                "{algorithm:?} {kind:?} cut={cut:?}: base+delta lanes diverged"
            );
            assert!(
                result.certifies_top_k(k, 1e-9),
                "{algorithm:?} {kind:?} cut={cut:?}: stop not certified \
                 (bound {}, sumDepths {})",
                result.metrics.final_bound,
                result.sum_depths(),
            );
        }
    }
}

/// The base/delta cut point is unobservable: all-base, all-delta, and every
/// split in between give the whole-relation answer, certified, for all four
/// algorithms and both access kinds.
#[test]
fn base_delta_cut_is_unobservable() {
    let relations = vec![tuples_for(0, 12, 1), tuples_for(1, 12, 2)];
    let query = Vector::from([0.4, -0.7]);
    for cut in [[0, 0], [12, 12], [6, 6], [12, 3], [1, 11]] {
        check_split(&relations, &cut, query.clone(), 4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sizes, cut points, query points and K: the merged base+delta
    /// bound evaluation always reproduces the naive oracle bit-for-bit.
    #[test]
    fn random_cuts_match_the_oracle(
        seed in 0usize..1000,
        n in 4usize..18,
        cut0 in 0usize..18,
        cut1 in 0usize..18,
        k in 1usize..7,
        q in prop::array::uniform2(-2.0..2.0f64),
    ) {
        let relations = vec![tuples_for(0, n, seed), tuples_for(1, n, seed + 1)];
        check_split(&relations, &[cut0, cut1], Vector::from(q), k);
    }
}
