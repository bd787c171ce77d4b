//! Access accounting: per-relation depths and the `sumDepths` metric, plus
//! per-relation data statistics used by the `prj-engine` planner.

use crate::tuple::Tuple;

/// Records how deep an algorithm has read into each relation.
///
/// `sumDepths` — the sum of per-relation depths when the algorithm terminates
/// — is the paper's primary I/O cost metric (Sec. 2) and the quantity
/// reported on the y-axis of most panels of Figure 3.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    depths: Vec<usize>,
}

impl AccessStats {
    /// Creates statistics for `n` relations, all at depth 0.
    pub fn new(n: usize) -> Self {
        AccessStats { depths: vec![0; n] }
    }

    /// Reconstructs statistics from explicit per-relation depths — used
    /// when a remote worker's accounting is rehydrated from the wire.
    pub fn from_depths(depths: Vec<usize>) -> Self {
        AccessStats { depths }
    }

    /// Number of relations tracked.
    pub fn num_relations(&self) -> usize {
        self.depths.len()
    }

    /// Records one sorted access on relation `i` and returns the new depth.
    pub fn record_access(&mut self, i: usize) -> usize {
        self.depths[i] += 1;
        self.depths[i]
    }

    /// Depth reached on relation `i`.
    pub fn depth(&self, i: usize) -> usize {
        self.depths[i]
    }

    /// All per-relation depths.
    pub fn depths(&self) -> &[usize] {
        &self.depths
    }

    /// The `sumDepths` metric: total number of sorted accesses performed.
    pub fn sum_depths(&self) -> usize {
        self.depths.iter().sum()
    }

    /// The maximum depth over all relations.
    pub fn max_depth(&self) -> usize {
        self.depths.iter().copied().max().unwrap_or(0)
    }

    /// Adds `other`'s per-relation depths into `self` elementwise, used to
    /// aggregate the depths of per-shard runs into one whole-query figure.
    ///
    /// # Panics
    /// Panics when the two track a different number of relations.
    pub fn absorb(&mut self, other: &AccessStats) {
        assert_eq!(
            self.depths.len(),
            other.depths.len(),
            "cannot absorb stats over a different relation count"
        );
        for (d, o) in self.depths.iter_mut().zip(other.depths.iter()) {
            *d += o;
        }
    }
}

/// Summary statistics of one relation's data: computed from the tuples at
/// registration, then carried forward through every append by
/// [`RelationStats::combine`] with the batch's own statistics, so a publish
/// never re-reads the relation. Consumed by the `prj-engine` planner to
/// choose the driving relation of a partitioned query, and by the bounds as
/// `σ_max`.
///
/// The quantities mirror the operating parameters of the paper's evaluation
/// (Table 2): cardinality stands in for density `ρ`, `dimensions` for `d`,
/// and the score-distribution moments capture the skew that makes
/// potential-adaptive pulling read a relation shallowly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: usize,
    /// Dimensionality of the feature vectors (0 for an empty relation).
    pub dimensions: usize,
    /// Smallest score present.
    pub min_score: f64,
    /// Largest score present (the `σ_max` the bounds use by default).
    pub max_score: f64,
    /// Mean score.
    pub mean_score: f64,
    /// Standard deviation of the scores.
    pub score_stddev: f64,
    /// Fisher moment skewness of the scores (0 for symmetric distributions,
    /// positive when a few high scores dominate a low-score mass).
    pub score_skewness: f64,
}

impl RelationStats {
    /// Computes the statistics of `tuples`
    /// ([`RelationStats::from_scores`] over their scores, in slice order).
    pub fn from_tuples(tuples: &[Tuple]) -> Self {
        Self::from_scores(
            tuples.first().map_or(0, |t| t.dim()),
            tuples.iter().map(|t| t.score),
        )
    }

    /// Computes the statistics of a relation of `dimensions`-dimensional
    /// tuples with the given scores, in two passes over the (cloned)
    /// iterator — no scratch buffer. The moments are summed in iteration
    /// order, so the same scores in the same order give the same bits.
    pub fn from_scores<I>(dimensions: usize, scores: I) -> Self
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let scores = scores.into_iter();
        let mut cardinality = 0;
        let mut min_score = f64::INFINITY;
        let mut max_score = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for score in scores.clone() {
            cardinality += 1;
            min_score = min_score.min(score);
            max_score = max_score.max(score);
            sum += score;
        }
        if cardinality == 0 {
            return RelationStats {
                cardinality,
                dimensions,
                min_score: 0.0,
                max_score: 0.0,
                mean_score: 0.0,
                score_stddev: 0.0,
                score_skewness: 0.0,
            };
        }
        let n = cardinality as f64;
        let mean_score = sum / n;
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        for score in scores {
            let d = score - mean_score;
            m2 += d * d;
            m3 += d * d * d;
        }
        let variance = m2 / n;
        let score_stddev = variance.sqrt();
        let score_skewness = if score_stddev > 1e-12 {
            (m3 / n) / (score_stddev * score_stddev * score_stddev)
        } else {
            0.0
        };
        RelationStats {
            cardinality,
            dimensions,
            min_score,
            max_score,
            mean_score,
            score_stddev,
            score_skewness,
        }
    }

    /// Combines the statistics of disjoint parts (shards, or a base and the
    /// batch appended to it) into the statistics of their union, without
    /// revisiting the tuples. Cardinality, dimensions, min and max compose
    /// exactly. The moments merge pairwise in part order by the central
    /// moment update of Chan et al. and Pébay: with `δ` the difference of
    /// the two means, the mean moves by `δ·n_b/n`, `M2` gains
    /// `δ²·n_a·n_b/n`, and `M3` gains `δ³·n_a·n_b·(n_a − n_b)/n² +
    /// 3δ·(n_a·M2_b − n_b·M2_a)/n`. This never subtracts raw moments, so
    /// scores far from zero with a small spread keep their precision. A
    /// single non-empty part comes back bit for bit.
    pub fn combine(parts: &[RelationStats]) -> RelationStats {
        let mut live = parts.iter().filter(|p| p.cardinality > 0);
        let Some(&first) = live.next() else {
            return RelationStats::from_scores(0, std::iter::empty());
        };
        let rest: Vec<&RelationStats> = live.collect();
        if rest.is_empty() {
            return first;
        }
        // (n, mean, M2, M3) with M2 = n·σ² and M3 = n·skew·σ³.
        let moments = |p: &RelationStats| {
            let n = p.cardinality as f64;
            let sd = p.score_stddev;
            (
                n,
                p.mean_score,
                n * sd * sd,
                n * p.score_skewness * sd * sd * sd,
            )
        };
        let (mut n, mut mean, mut m2, mut m3) = moments(&first);
        let mut merged = first;
        for p in rest {
            let (nb, mean_b, m2b, m3b) = moments(p);
            let na = n;
            n = na + nb;
            let delta = mean_b - mean;
            mean += delta * nb / n;
            m3 += m3b
                + delta * delta * delta * na * nb * (na - nb) / (n * n)
                + 3.0 * delta * (na * m2b - nb * m2) / n;
            m2 += m2b + delta * delta * na * nb / n;
            merged.cardinality += p.cardinality;
            merged.dimensions = merged.dimensions.max(p.dimensions);
            merged.min_score = merged.min_score.min(p.min_score);
            merged.max_score = merged.max_score.max(p.max_score);
        }
        let score_stddev = (m2 / n).sqrt();
        RelationStats {
            mean_score: mean,
            score_stddev,
            score_skewness: if score_stddev > 1e-12 {
                (m3 / n) / (score_stddev * score_stddev * score_stddev)
            } else {
                0.0
            },
            ..merged
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use prj_geometry::Vector;

    #[test]
    fn accounting() {
        let mut s = AccessStats::new(3);
        assert_eq!(s.sum_depths(), 0);
        assert_eq!(s.num_relations(), 3);
        s.record_access(0);
        s.record_access(0);
        s.record_access(2);
        assert_eq!(s.depth(0), 2);
        assert_eq!(s.depth(1), 0);
        assert_eq!(s.depth(2), 1);
        assert_eq!(s.sum_depths(), 3);
        assert_eq!(s.max_depth(), 2);
        assert_eq!(s.depths(), &[2, 0, 1]);
    }

    #[test]
    fn record_returns_new_depth() {
        let mut s = AccessStats::new(1);
        assert_eq!(s.record_access(0), 1);
        assert_eq!(s.record_access(0), 2);
    }

    fn tuples_with_scores(scores: &[f64]) -> Vec<Tuple> {
        scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Tuple::new(TupleId::new(0, i), Vector::from([i as f64, 0.0]), s))
            .collect()
    }

    #[test]
    fn relation_stats_moments() {
        let stats = RelationStats::from_tuples(&tuples_with_scores(&[0.2, 0.4, 0.6, 0.8]));
        assert_eq!(stats.cardinality, 4);
        assert_eq!(stats.dimensions, 2);
        assert_eq!(stats.min_score, 0.2);
        assert_eq!(stats.max_score, 0.8);
        assert!((stats.mean_score - 0.5).abs() < 1e-12);
        assert!(
            stats.score_skewness.abs() < 1e-9,
            "symmetric data has no skew"
        );
    }

    #[test]
    fn relation_stats_detect_skew() {
        // A mass of low scores with a few high outliers: positive skew.
        let mut scores = vec![0.1; 50];
        scores.extend([0.9, 0.95, 1.0]);
        let stats = RelationStats::from_tuples(&tuples_with_scores(&scores));
        assert!(
            stats.score_skewness > 0.5,
            "skewness was {}",
            stats.score_skewness
        );
    }

    #[test]
    fn absorb_sums_depths_elementwise() {
        let mut a = AccessStats::new(2);
        a.record_access(0);
        a.record_access(1);
        let mut b = AccessStats::new(2);
        b.record_access(1);
        b.record_access(1);
        a.absorb(&b);
        assert_eq!(a.depths(), &[1, 3]);
        assert_eq!(a.sum_depths(), 4);
    }

    #[test]
    #[should_panic]
    fn absorb_rejects_mismatched_arity() {
        AccessStats::new(2).absorb(&AccessStats::new(3));
    }

    #[test]
    fn combine_matches_from_tuples() {
        // Deterministic, deliberately skewed scores split across 3 parts.
        let scores: Vec<f64> = (0..60)
            .map(|i| {
                let u = ((i * 37) % 100) as f64 / 100.0 + 0.005;
                u * u * u // cubing skews the distribution
            })
            .collect();
        let all = tuples_with_scores(&scores);
        let whole = RelationStats::from_tuples(&all);
        let parts: Vec<RelationStats> = (0..3)
            .map(|s| {
                let chunk: Vec<Tuple> = all
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 3 == s)
                    .map(|(_, t)| t.clone())
                    .collect();
                RelationStats::from_tuples(&chunk)
            })
            .collect();
        let combined = RelationStats::combine(&parts);
        assert_eq!(combined.cardinality, whole.cardinality);
        assert_eq!(combined.dimensions, whole.dimensions);
        assert_eq!(combined.min_score, whole.min_score);
        assert_eq!(combined.max_score, whole.max_score);
        assert!((combined.mean_score - whole.mean_score).abs() < 1e-9);
        assert!((combined.score_stddev - whole.score_stddev).abs() < 1e-9);
        assert!((combined.score_skewness - whole.score_skewness).abs() < 1e-6);
    }

    #[test]
    fn combine_keeps_its_precision_far_from_zero() {
        // 10k skewed scores (u³, true skew ≈ 1.05) with spread 0.01, at
        // offsets where raw moments E[x²] and E[x³] cancel catastrophically.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let u: Vec<f64> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        for offset in [0.0, 1e3, 1e5] {
            let scores: Vec<f64> = u.iter().map(|u| offset + 0.01 * u * u * u).collect();
            let stats = |s: &[f64]| RelationStats::from_scores(1, s.iter().copied());
            let whole = stats(&scores);
            assert!((whole.score_skewness - 1.05).abs() < 0.03, "{whole:?}");
            let bits = |s: RelationStats| {
                [
                    s.min_score,
                    s.max_score,
                    s.mean_score,
                    s.score_stddev,
                    s.score_skewness,
                ]
                .map(f64::to_bits)
            };
            let single = RelationStats::combine(&[whole]);
            assert_eq!(bits(single), bits(whole), "offset {offset}: one part");
            // Half the scores at once, then one combine per appended score.
            let mut chained = stats(&scores[..5_000]);
            for s in scores[5_000..].chunks(1) {
                chained = RelationStats::combine(&[chained, stats(s)]);
            }
            let parts: Vec<RelationStats> = scores.chunks(7).map(stats).collect();
            let at_once = RelationStats::combine(&parts);
            for (how, got) in [("chained", chained), ("at once", at_once)] {
                assert_eq!(got.cardinality, whole.cardinality);
                assert_eq!(got.min_score, whole.min_score);
                assert_eq!(got.max_score, whole.max_score);
                // The two-pass reference itself carries rounding of about
                // 1e-11 (relative) in the stddev at offset 1e5.
                let mean = (got.mean_score - whole.mean_score).abs() / whole.mean_score.max(1.0);
                let sd = (got.score_stddev - whole.score_stddev).abs() / whole.score_stddev;
                let skew = (got.score_skewness - whole.score_skewness).abs();
                assert!(
                    mean < 1e-14 && sd < 1e-9 && skew < 1e-6,
                    "offset {offset}, {how}: {got:?} vs {whole:?}"
                );
            }
        }
    }

    #[test]
    fn combine_handles_empty_parts() {
        let empty = RelationStats::from_tuples(&[]);
        let some = RelationStats::from_tuples(&tuples_with_scores(&[0.3, 0.7]));
        let combined = RelationStats::combine(&[empty, some, empty]);
        assert_eq!(combined.cardinality, 2);
        assert_eq!(combined.dimensions, 2);
        assert_eq!(combined.min_score, 0.3);
        assert_eq!(combined.max_score, 0.7);
        assert!((combined.mean_score - 0.5).abs() < 1e-12);
        let all_empty = RelationStats::combine(&[empty, empty]);
        assert_eq!(all_empty.cardinality, 0);
        assert_eq!(all_empty.max_score, 0.0);
    }

    #[test]
    fn relation_stats_empty_and_constant() {
        let empty = RelationStats::from_tuples(&[]);
        assert_eq!(empty.cardinality, 0);
        assert_eq!(empty.dimensions, 0);
        let constant = RelationStats::from_tuples(&tuples_with_scores(&[0.5, 0.5, 0.5]));
        assert_eq!(constant.score_stddev, 0.0);
        assert_eq!(constant.score_skewness, 0.0);
    }

    #[test]
    fn from_scores_matches_from_tuples_bit_for_bit() {
        let bits = |s: RelationStats| {
            (
                s.cardinality,
                s.dimensions,
                [
                    s.min_score,
                    s.max_score,
                    s.mean_score,
                    s.score_stddev,
                    s.score_skewness,
                ]
                .map(f64::to_bits),
            )
        };
        let skewed: Vec<f64> = (0..97)
            .map(|i| {
                let u = ((i * 61) % 97) as f64 / 97.0 + 0.003;
                u * u * u
            })
            .collect();
        for scores in [
            vec![],
            vec![0.42],
            vec![0.5, 0.5, 0.5],
            vec![0.1, 0.7, 0.1, 0.3, 0.7],
            skewed,
        ] {
            let tuples = tuples_with_scores(&scores);
            let dim = if scores.is_empty() { 0 } else { 2 };
            assert_eq!(
                bits(RelationStats::from_scores(dim, scores.iter().copied())),
                bits(RelationStats::from_tuples(&tuples)),
                "scores {scores:?}"
            );
        }
    }
}
