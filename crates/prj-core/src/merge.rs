//! Bound-aware merging of partitioned ProxRJ runs.
//!
//! The ProxRJ combination space factorises over any partition of the first
//! relation: a combination `τ_1 × … × τ_n` belongs to exactly one part —
//! the one holding `τ_1`. A partitioned execution (a cluster's per-shard
//! remote units) therefore runs one complete ProxRJ instance per part
//! (each with the *global* `K`, each certified by its own bound `t_j`) and
//! recombines them here. [`merge_results`] k-way merges completed per-part
//! results into the exact global top-K; [`merge_shared`] does the same
//! over borrowed parts. Because any part-`j` combination missing from part
//! `j`'s output scores at most `t_j`, the merged bound `t = max_j t_j`
//! upper-bounds every unreturned combination, so the paper's stopping
//! condition — `K`-th retained score ≥ `t` — carries over to the merged
//! result verbatim. [`RankJoinResult::certifies_top_k`] checks exactly
//! this invariant and is what the differential test harness asserts.
//!
//! Ties are resolved by [`crate::ScoredCombination::compare`] (score, then
//! member tuple ids), which makes merged output independent of shard
//! assignment — the property the differential suite pins down bit-for-bit.

use crate::combination::TopKBuffer;
use crate::operator::{RankJoinResult, RunMetrics};
use prj_access::AccessStats;

impl RankJoinResult {
    /// `true` when the result is certified exact for `top_k(k)`: either the
    /// `k`-th retained score reaches the final bound (within `tolerance`),
    /// or fewer than `k` combinations exist at all and the bound collapsed
    /// to `−∞` (exhaustion). This is the validity condition the `sumDepths`
    /// metric is reported under — the run stopped *because* nothing unseen
    /// could improve the answer, not because it gave up.
    pub fn certifies_top_k(&self, k: usize, tolerance: f64) -> bool {
        if self.metrics.hit_access_cap {
            return false;
        }
        if self.combinations.len() < k {
            return self.metrics.final_bound == f64::NEG_INFINITY;
        }
        match self.combinations.get(k.saturating_sub(1)) {
            Some(kth) => kth.score >= self.metrics.final_bound - tolerance,
            None => true, // k == 0: nothing to certify
        }
    }
}

/// Merges completed per-part results into the exact global top-`k`.
///
/// Every part must cover a disjoint slice of the combination space and have
/// been run with the same `k`, relation arity and scoring function. The
/// merged metrics aggregate the parts' *work* (times, bound updates, depths
/// sum elementwise), and the merged `final_bound` is the maximum of the
/// parts' bounds — the tightest value that still upper-bounds every
/// combination no part returned.
///
/// # Panics
/// Panics when `parts` is empty or the parts disagree on relation arity.
pub fn merge_results(k: usize, parts: Vec<RankJoinResult>) -> RankJoinResult {
    assert!(!parts.is_empty(), "cannot merge zero partial results");
    let mut acc = MergeAccumulator::new(k, parts[0].stats.num_relations());
    for part in parts {
        acc.absorb_bookkeeping(&part);
        for combo in part.combinations {
            acc.output.insert(combo);
        }
    }
    acc.finish()
}

/// [`merge_results`] over *borrowed* parts: merges shared (e.g. cached,
/// `Arc`-held) per-part results without first deep-cloning each part's full
/// combination vector. Only the combinations that actually enter the merged
/// top-`k` are cloned — checked with [`TopKBuffer::would_insert`] before any
/// tuple data is copied.
///
/// # Panics
/// Panics when `parts` yields nothing.
pub fn merge_shared<'a>(
    k: usize,
    parts: impl IntoIterator<Item = &'a RankJoinResult>,
) -> RankJoinResult {
    let mut acc: Option<MergeAccumulator> = None;
    for part in parts {
        let acc = acc.get_or_insert_with(|| MergeAccumulator::new(k, part.stats.num_relations()));
        acc.absorb_bookkeeping(part);
        for combo in &part.combinations {
            if acc.output.would_insert(combo) {
                acc.output.insert(combo.clone());
            }
        }
    }
    acc.expect("cannot merge zero partial results").finish()
}

/// Shared stats/metrics aggregation of the two merge entry points.
struct MergeAccumulator {
    output: TopKBuffer,
    stats: AccessStats,
    metrics: RunMetrics,
}

impl MergeAccumulator {
    fn new(k: usize, n: usize) -> Self {
        MergeAccumulator {
            output: TopKBuffer::new(k),
            stats: AccessStats::new(n),
            metrics: RunMetrics {
                final_bound: f64::NEG_INFINITY,
                ..RunMetrics::default()
            },
        }
    }

    fn absorb_bookkeeping(&mut self, part: &RankJoinResult) {
        self.stats.absorb(&part.stats);
        self.metrics.total_time += part.metrics.total_time;
        self.metrics.bound_time += part.metrics.bound_time;
        self.metrics.dominance_time += part.metrics.dominance_time;
        self.metrics.bound_updates += part.metrics.bound_updates;
        self.metrics.combinations_formed += part.metrics.combinations_formed;
        self.metrics.dominated_partials += part.metrics.dominated_partials;
        self.metrics.hit_access_cap |= part.metrics.hit_access_cap;
        self.metrics.final_bound = self.metrics.final_bound.max(part.metrics.final_bound);
    }

    fn finish(self) -> RankJoinResult {
        RankJoinResult {
            combinations: self.output.into_sorted_vec(),
            stats: self.stats,
            metrics: self.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::combination::ScoredCombination;
    use crate::problem::ProblemBuilder;
    use crate::scoring::EuclideanLogScore;
    use prj_access::{Tuple, TupleId};
    use prj_geometry::Vector;

    fn mk(rel: usize, rows: &[([f64; 2], f64)]) -> Vec<Tuple> {
        rows.iter()
            .enumerate()
            .map(|(i, (x, s))| Tuple::new(TupleId::new(rel, i), Vector::from(*x), *s))
            .collect()
    }

    fn table1() -> Vec<Vec<Tuple>> {
        vec![
            mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
            mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
            mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
        ]
    }

    /// Runs Table 1 with the first relation restricted to one tuple each —
    /// a two-way partition of the combination space — and checks the merge
    /// against the unpartitioned run.
    #[test]
    fn merged_partition_runs_equal_the_whole_run() {
        let k = 8;
        let whole = {
            let mut problem = ProblemBuilder::new(
                Vector::from([0.0, 0.0]),
                EuclideanLogScore::new(1.0, 1.0, 1.0),
            )
            .k(k)
            .relations_from_tuples(table1())
            .build()
            .unwrap();
            Algorithm::Tbrr.run(&mut problem).unwrap()
        };

        let parts: Vec<RankJoinResult> = (0..2)
            .map(|part| {
                let mut rels = table1();
                rels[0] = vec![rels[0][part].clone()];
                let mut problem = ProblemBuilder::new(
                    Vector::from([0.0, 0.0]),
                    EuclideanLogScore::new(1.0, 1.0, 1.0),
                )
                .k(k)
                .relations_from_tuples(rels)
                .build()
                .unwrap();
                Algorithm::Tbrr.run(&mut problem).unwrap()
            })
            .collect();
        let merged = merge_results(k, parts);
        assert_eq!(merged.combinations, whole.combinations);
        assert!(merged.certifies_top_k(k, 1e-9));
        assert_eq!(merged.stats.num_relations(), 3);
        // Both partitions exhausted, so the merged bound collapsed.
        assert_eq!(merged.metrics.final_bound, f64::NEG_INFINITY);
    }

    #[test]
    fn merged_bound_is_the_max_of_part_bounds() {
        let mk_result = |scores: &[f64], bound: f64| RankJoinResult {
            combinations: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    ScoredCombination::new(
                        vec![Tuple::new(TupleId::new(0, i), Vector::from([s, 0.0]), 0.5)],
                        s,
                    )
                })
                .collect(),
            stats: AccessStats::new(1),
            metrics: RunMetrics {
                final_bound: bound,
                ..RunMetrics::default()
            },
        };
        let merged = merge_results(
            2,
            vec![mk_result(&[-1.0, -3.0], -4.0), mk_result(&[-2.0], -2.5)],
        );
        assert_eq!(merged.metrics.final_bound, -2.5);
        let scores: Vec<f64> = merged.combinations.iter().map(|c| c.score).collect();
        assert_eq!(scores, vec![-1.0, -2.0]);
        assert!(merged.certifies_top_k(2, 1e-9));
        // A part that only certified down to −2.5 cannot certify a top-3
        // whose 3rd entry would sit below that bound.
        let merged = merge_results(
            3,
            vec![mk_result(&[-1.0, -3.0], -4.0), mk_result(&[-2.0], -2.5)],
        );
        assert!(!merged.certifies_top_k(3, 1e-9));
    }

    #[test]
    fn certifies_top_k_edge_cases() {
        let empty = RankJoinResult {
            combinations: Vec::new(),
            stats: AccessStats::new(1),
            metrics: RunMetrics {
                final_bound: f64::NEG_INFINITY,
                ..RunMetrics::default()
            },
        };
        assert!(empty.certifies_top_k(5, 1e-9), "exhausted empty result");
        let capped = RankJoinResult {
            metrics: RunMetrics {
                final_bound: f64::NEG_INFINITY,
                hit_access_cap: true,
                ..RunMetrics::default()
            },
            ..empty
        };
        assert!(
            !capped.certifies_top_k(5, 1e-9),
            "capped run is uncertified"
        );
    }

    #[test]
    #[should_panic]
    fn merging_nothing_panics() {
        let _ = merge_results(1, Vec::new());
    }

    #[test]
    fn merge_shared_matches_owned_merge_on_table1_partitions() {
        let k = 8;
        let parts: Vec<RankJoinResult> = (0..2)
            .map(|part| {
                let mut rels = table1();
                rels[0] = vec![rels[0][part].clone()];
                let mut problem = ProblemBuilder::new(
                    Vector::from([0.0, 0.0]),
                    EuclideanLogScore::new(1.0, 1.0, 1.0),
                )
                .k(k)
                .relations_from_tuples(rels)
                .build()
                .unwrap();
                Algorithm::Tbrr.run(&mut problem).unwrap()
            })
            .collect();
        let shared = merge_shared(k, parts.iter());
        let owned = merge_results(k, parts);
        assert_eq!(shared.combinations, owned.combinations);
        assert_eq!(shared.stats, owned.stats);
        assert_eq!(shared.metrics, owned.metrics);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic per-seed random part results: disjoint id spaces
        /// (one relation-0 id range per part, mirroring first-relation
        /// sharding), scores with deliberate ties.
        fn random_parts(seed: u64) -> Vec<RankJoinResult> {
            let mut rng = seed | 1;
            let mut step = move || {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                rng >> 33
            };
            let num_parts = 1 + (step() % 4) as usize;
            (0..num_parts)
                .map(|part| {
                    let rows = (step() % 7) as usize;
                    let mut combos: Vec<ScoredCombination> = (0..rows)
                        .map(|i| {
                            // Coarse score grid to force cross-part ties.
                            let score = -((step() % 5) as f64);
                            ScoredCombination::new(
                                vec![
                                    Tuple::new(
                                        TupleId::new(0, part * 1000 + i),
                                        Vector::from([score, 0.0]),
                                        0.5,
                                    ),
                                    Tuple::new(
                                        TupleId::new(1, (step() % 10) as usize),
                                        Vector::from([0.0, 1.0]),
                                        0.5,
                                    ),
                                ],
                                score,
                            )
                        })
                        .collect();
                    combos.sort_by(|a, b| a.compare(b));
                    let mut stats = AccessStats::new(2);
                    for _ in 0..step() % 5 {
                        stats.record_access((step() % 2) as usize);
                    }
                    RankJoinResult {
                        combinations: combos,
                        stats,
                        metrics: RunMetrics {
                            final_bound: -((step() % 6) as f64),
                            bound_updates: (step() % 9) as usize,
                            combinations_formed: (step() % 9) as usize,
                            ..RunMetrics::default()
                        },
                    }
                })
                .collect()
        }

        proptest! {
            /// The clone-avoiding shared merge is indistinguishable from the
            /// owned merge AND from a brute-force oracle (sort everything,
            /// take k) on random disjoint part results.
            #[test]
            fn merge_shared_equals_owned_and_oracle(seed in 0u64..u64::MAX, k in 1usize..12) {
                let parts = random_parts(seed);
                let shared = merge_shared(k, parts.iter());
                // Brute-force oracle over the union of all part outputs.
                let mut all: Vec<ScoredCombination> = parts
                    .iter()
                    .flat_map(|p| p.combinations.iter().cloned())
                    .collect();
                all.sort_by(|a, b| a.compare(b));
                all.truncate(k);
                prop_assert_eq!(&shared.combinations, &all);
                let owned = merge_results(k, parts);
                prop_assert_eq!(&shared.combinations, &owned.combinations);
                prop_assert_eq!(&shared.stats, &owned.stats);
                prop_assert_eq!(&shared.metrics, &owned.metrics);
            }
        }
    }
}
