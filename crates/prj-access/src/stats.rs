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

/// Summary statistics of one relation's data, computed once at registration
/// time and consumed by the `prj-engine` planner to choose the driving
/// relation of a partitioned query.
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

    /// Combines per-shard statistics into whole-relation statistics without
    /// revisiting the tuples: min/max/cardinality compose directly, and the
    /// mean/stddev/skewness are recovered from each part's first three raw
    /// moments. Exact up to floating-point rounding, which is all the
    /// planner's driving-relation estimate needs.
    pub fn combine(parts: &[RelationStats]) -> RelationStats {
        let cardinality: usize = parts.iter().map(|p| p.cardinality).sum();
        let dimensions = parts
            .iter()
            .filter(|p| p.cardinality > 0)
            .map(|p| p.dimensions)
            .max()
            .unwrap_or(0);
        if cardinality == 0 {
            return RelationStats {
                cardinality: 0,
                dimensions,
                min_score: 0.0,
                max_score: 0.0,
                mean_score: 0.0,
                score_stddev: 0.0,
                score_skewness: 0.0,
            };
        }
        let n = cardinality as f64;
        let mut min_score = f64::INFINITY;
        let mut max_score = f64::NEG_INFINITY;
        // Raw moment sums Σx, Σx², Σx³ reconstructed from each part's
        // (mean, stddev, skewness).
        let (mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0);
        for p in parts.iter().filter(|p| p.cardinality > 0) {
            min_score = min_score.min(p.min_score);
            max_score = max_score.max(p.max_score);
            let m = p.cardinality as f64;
            let mu = p.mean_score;
            let var = p.score_stddev * p.score_stddev;
            let e2 = var + mu * mu;
            // skew = E[(x-μ)³]/σ³  ⇒  E[x³] = skew·σ³ + 3μE[x²] − 2μ³.
            let central3 = p.score_skewness * p.score_stddev.powi(3);
            let e3 = central3 + 3.0 * mu * e2 - 2.0 * mu * mu * mu;
            s1 += m * mu;
            s2 += m * e2;
            s3 += m * e3;
        }
        let mean_score = s1 / n;
        let variance = (s2 / n - mean_score * mean_score).max(0.0);
        let score_stddev = variance.sqrt();
        let score_skewness = if score_stddev > 1e-12 {
            let central3 =
                s3 / n - 3.0 * mean_score * (s2 / n) + 2.0 * mean_score * mean_score * mean_score;
            central3 / score_stddev.powi(3)
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
