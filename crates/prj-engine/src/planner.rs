//! The query planner: pick an algorithm from relation statistics.
//!
//! The paper evaluates four operator instantiations (CBRR/CBPA/TBRR/TBPA)
//! and characterises when each wins: the tight bound dominates the corner
//! bound whenever the scoring function admits the Euclidean reduction
//! (Theorems 3.2/3.3), potential-adaptive pulling never reads deeper than
//! round-robin (Theorem 3.5) and pays off most under skew (Figure 3(g)/(h)),
//! and the LP dominance test only amortises on deep runs (Figure 3(m)/(n)).
//! The [`Planner`] encodes those findings as deterministic rules over the
//! [`RelationStats`] the catalog computed at registration time, so every
//! query gets a defensible algorithm choice without the user having to know
//! the paper.

use prj_access::RelationStats;
use prj_core::Algorithm;

/// Tunable thresholds of the planning heuristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Cardinality imbalance (max/min) beyond which relations count as
    /// asymmetric, favouring potential-adaptive pulling.
    pub imbalance_threshold: f64,
    /// Per-relation depth (cardinality × k heuristic) beyond which the LP
    /// dominance test is enabled for tight-bound runs.
    pub dominance_cardinality: usize,
    /// Dominance-test period used when the test is enabled.
    pub dominance_period: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            imbalance_threshold: 4.0,
            dominance_cardinality: 4000,
            dominance_period: 50,
        }
    }
}

/// The planner's decision for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The chosen operator instantiation.
    pub algorithm: Algorithm,
    /// Dominance-test period to run with (`None` = disabled).
    pub dominance_period: Option<usize>,
    /// Human-readable justification, surfaced in engine results for
    /// observability.
    pub rationale: String,
}

/// Chooses among the four ProxRJ instantiations using relation statistics.
#[derive(Debug, Clone, Default)]
pub struct Planner {
    config: PlannerConfig,
}

impl Planner {
    /// Creates a planner with custom thresholds.
    pub fn with_config(config: PlannerConfig) -> Self {
        Planner { config }
    }

    /// Picks the *driving* relation of a partitioned execution — the one
    /// whose shards the combination space is split by — by estimated
    /// `sumDepths` instead of blindly taking the first. Only a cluster
    /// coordinator partitions (one remote unit per driving shard); an
    /// in-process query runs one unit over every relation's merged view,
    /// where the choice is merely reported by EXPLAIN.
    ///
    /// The model: per execution unit, the driving relation contributes only
    /// its shard slice, while every *non-driving* relation is read through
    /// a whole-relation merged view, so the non-driving relations dominate
    /// the expected access cost. How deep a non-driving relation is read
    /// before the bound closes depends on its score distribution:
    /// top-heavy (right-skewed) scores let potential-adaptive pulling stop
    /// early (the paper's Figure 3(g)/(h) skew behaviour), roughly
    /// discounting its expected depth by `1 / (1 + skew)`. The driving
    /// relation forfeits its own discount — its slices are enumerated
    /// regardless — so the best driving choice is the relation whose
    /// *removal* from the non-driving set costs least:
    ///
    /// ```text
    /// drive = argmin_d Σ_{r ≠ d} cardinality(r) / (1 + max(skew(r), 0))
    /// ```
    ///
    /// Deterministic (ties resolve to the lowest index, so symmetric
    /// relations keep the historical "first relation drives" behaviour) and
    /// a pure function of the statistics, which makes it safe to fold into
    /// cache keys implicitly. Correctness never depends on the choice: the
    /// combination space partitions exactly over *any* relation's shards.
    pub fn choose_driving(&self, stats: &[RelationStats]) -> usize {
        if stats.len() <= 1 {
            return 0;
        }
        let discounted: Vec<f64> = stats
            .iter()
            .map(|s| s.cardinality as f64 / (1.0 + s.score_skewness.max(0.0)))
            .collect();
        let total: f64 = discounted.iter().sum();
        // Σ_{r≠d} discounted(r) = total − discounted(d): minimising the
        // non-driving cost means driving the largest discounted term.
        (0..stats.len())
            .min_by(|&a, &b| (total - discounted[a]).total_cmp(&(total - discounted[b])))
            .unwrap_or(0)
    }

    /// Plans one query.
    ///
    /// * `scoring_reducible` — whether the scoring function exposes
    ///   Euclidean-reduction weights (tight bound available).
    /// * `stats` — per-relation statistics, in join order.
    pub fn plan(&self, scoring_reducible: bool, stats: &[RelationStats]) -> Plan {
        // Pulling strategy: potential-adaptive never loses (Theorem 3.5), but
        // its potentials only differ from round-robin's choices when the
        // relations are asymmetric — unbalanced cardinalities or skewed
        // score distributions. Keeping round-robin on symmetric inputs makes
        // runs byte-reproducible with the paper's TBRR/CBRR columns.
        let max_card = stats.iter().map(|s| s.cardinality).max().unwrap_or(0);
        let min_card = stats.iter().map(|s| s.cardinality).min().unwrap_or(0);
        let imbalanced =
            min_card == 0 || (max_card as f64 / min_card as f64) > self.config.imbalance_threshold;
        let skewed = stats.iter().any(|s| s.is_score_skewed());
        let adaptive = imbalanced || skewed;

        if !scoring_reducible {
            // No Euclidean reduction: the tight bound is unavailable, fall
            // back to the HRJN-family corner bound.
            let algorithm = if adaptive {
                Algorithm::Cbpa
            } else {
                Algorithm::Cbrr
            };
            return Plan {
                algorithm,
                dominance_period: None,
                rationale: format!(
                    "scoring not Euclidean-reducible -> corner bound; {} pulling ({})",
                    if adaptive {
                        "potential-adaptive"
                    } else {
                        "round-robin"
                    },
                    pulling_reason(imbalanced, skewed),
                ),
            };
        }

        let algorithm = if adaptive {
            Algorithm::Tbpa
        } else {
            Algorithm::Tbrr
        };
        // The LP dominance test costs one simplex solve per retained partial
        // combination; Figure 3(m)/(n) shows it only pays off when runs go
        // deep, which large relations make likely.
        let dominance_period = if max_card >= self.config.dominance_cardinality {
            Some(self.config.dominance_period)
        } else {
            None
        };
        Plan {
            algorithm,
            dominance_period,
            rationale: format!(
                "tight bound (instance-optimal); {} pulling ({}); dominance test {}",
                if adaptive {
                    "potential-adaptive"
                } else {
                    "round-robin"
                },
                pulling_reason(imbalanced, skewed),
                match dominance_period {
                    Some(p) => format!("every {p} accesses (large relations)"),
                    None => "disabled (shallow runs expected)".to_string(),
                },
            ),
        }
    }
}

fn pulling_reason(imbalanced: bool, skewed: bool) -> &'static str {
    match (imbalanced, skewed) {
        (true, true) => "cardinality imbalance + score skew",
        (true, false) => "cardinality imbalance",
        (false, true) => "score skew",
        (false, false) => "symmetric relations",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(cardinality: usize, skewness: f64) -> RelationStats {
        RelationStats {
            cardinality,
            dimensions: 2,
            min_score: 0.05,
            max_score: 1.0,
            mean_score: 0.5,
            score_stddev: 0.2,
            score_skewness: skewness,
        }
    }

    #[test]
    fn symmetric_reducible_gets_tbrr() {
        let plan = Planner::default().plan(true, &[stats(100, 0.0), stats(110, 0.1)]);
        assert_eq!(plan.algorithm, Algorithm::Tbrr);
        assert_eq!(plan.dominance_period, None);
        assert!(plan.rationale.contains("round-robin"));
    }

    #[test]
    fn skew_triggers_potential_adaptive() {
        let plan = Planner::default().plan(true, &[stats(100, 1.2), stats(100, 0.0)]);
        assert_eq!(plan.algorithm, Algorithm::Tbpa);
        assert!(plan.rationale.contains("score skew"));
    }

    #[test]
    fn imbalance_triggers_potential_adaptive() {
        let plan = Planner::default().plan(true, &[stats(1000, 0.0), stats(50, 0.0)]);
        assert_eq!(plan.algorithm, Algorithm::Tbpa);
        assert!(plan.rationale.contains("imbalance"));
    }

    #[test]
    fn non_reducible_scoring_falls_back_to_corner_bound() {
        let symmetric = Planner::default().plan(false, &[stats(100, 0.0), stats(100, 0.0)]);
        assert_eq!(symmetric.algorithm, Algorithm::Cbrr);
        let skewed = Planner::default().plan(false, &[stats(100, 2.0), stats(100, 0.0)]);
        assert_eq!(skewed.algorithm, Algorithm::Cbpa);
    }

    #[test]
    fn symmetric_stats_keep_the_first_relation_driving() {
        let planner = Planner::default();
        assert_eq!(planner.choose_driving(&[]), 0);
        assert_eq!(planner.choose_driving(&[stats(100, 0.0)]), 0);
        assert_eq!(
            planner.choose_driving(&[stats(100, 0.0), stats(100, 0.0), stats(100, 0.0)]),
            0,
            "ties resolve to the lowest index"
        );
    }

    #[test]
    fn skewed_stats_flip_the_driving_choice() {
        let planner = Planner::default();
        // Equal cardinalities, but relation 0's scores are heavily skewed:
        // it benefits from staying non-driving (potential-adaptive reads it
        // shallowly), so the uniform relation 1 drives instead of "first".
        let flipped = planner.choose_driving(&[stats(100, 2.0), stats(100, 0.0)]);
        assert_eq!(flipped, 1, "skew on the first relation flips the choice");
        // The same stats with the skew moved keep relation 0 driving.
        assert_eq!(
            planner.choose_driving(&[stats(100, 0.0), stats(100, 2.0)]),
            0
        );
        // Cardinality dominates when skews agree: drive the big relation so
        // its cost leaves the non-driving sum.
        assert_eq!(
            planner.choose_driving(&[stats(50, 0.0), stats(1000, 0.0), stats(60, 0.0)]),
            1
        );
    }

    #[test]
    fn large_relations_enable_dominance_test() {
        let plan = Planner::default().plan(true, &[stats(10_000, 0.0), stats(9_000, 0.0)]);
        assert_eq!(plan.algorithm, Algorithm::Tbrr);
        assert_eq!(plan.dominance_period, Some(50));
        assert!(plan.rationale.contains("every 50 accesses"));
    }
}
