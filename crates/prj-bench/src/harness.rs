//! Running algorithms over repeated data sets and aggregating the paper's
//! metrics.

use prj_core::{Algorithm, EuclideanLogScore, ProblemBuilder, ProxRjConfig, Tuple};
use prj_data::{CityDataSet, SyntheticConfig};
use prj_geometry::Vector;
use std::time::Duration;

/// Configuration of one experiment case (one point on a Figure 3 x-axis).
#[derive(Debug, Clone)]
pub struct CaseConfig {
    /// Number of requested results `K`.
    pub k: usize,
    /// Synthetic data parameters (`n`, `d`, `ρ`, skew).
    pub data: SyntheticConfig,
    /// Number of repetitions to average (the paper uses ten).
    pub repetitions: usize,
    /// Dominance period (`None` = disabled / ∞).
    pub dominance_period: Option<usize>,
    /// Optional cap on sorted accesses per run (safety valve; the paper's
    /// 5-minute timeout for CBPA at n = 4 plays the same role).
    pub max_accesses: Option<usize>,
    /// Scoring weights `(w_s, w_q, w_μ)`.
    pub weights: (f64, f64, f64),
}

impl Default for CaseConfig {
    fn default() -> Self {
        CaseConfig {
            k: 10,
            data: SyntheticConfig::default(),
            repetitions: 10,
            dominance_period: None,
            max_accesses: None,
            weights: (1.0, 1.0, 1.0),
        }
    }
}

/// Metrics of one algorithm on one repetition.
#[derive(Debug, Clone, Copy)]
pub struct RunAggregate {
    /// The `sumDepths` I/O metric.
    pub sum_depths: usize,
    /// Total CPU time of the run.
    pub total_cpu: Duration,
    /// Time spent computing bounds.
    pub bound_cpu: Duration,
    /// Time spent in dominance tests.
    pub dominance_cpu: Duration,
    /// Combinations formed (cross-product members scored).
    pub combinations: usize,
    /// Whether the run stopped because of the access cap.
    pub capped: bool,
}

/// Metrics of one algorithm averaged over the repetitions of a case.
#[derive(Debug, Clone)]
pub struct AggregatedOutcome {
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Mean `sumDepths`.
    pub sum_depths: f64,
    /// Mean total CPU time (seconds).
    pub total_cpu_s: f64,
    /// Mean bound-computation time (seconds).
    pub bound_cpu_s: f64,
    /// Mean dominance-test time (seconds).
    pub dominance_cpu_s: f64,
    /// Mean number of combinations scored (those the solo bound could not
    /// rule out of the top K).
    pub combinations: f64,
    /// Number of repetitions that hit the access cap.
    pub capped_runs: usize,
    /// Number of repetitions executed.
    pub repetitions: usize,
}

impl AggregatedOutcome {
    fn from_runs(algorithm: Algorithm, runs: &[RunAggregate]) -> Self {
        let n = runs.len().max(1) as f64;
        AggregatedOutcome {
            algorithm,
            sum_depths: runs.iter().map(|r| r.sum_depths as f64).sum::<f64>() / n,
            total_cpu_s: runs.iter().map(|r| r.total_cpu.as_secs_f64()).sum::<f64>() / n,
            bound_cpu_s: runs.iter().map(|r| r.bound_cpu.as_secs_f64()).sum::<f64>() / n,
            dominance_cpu_s: runs
                .iter()
                .map(|r| r.dominance_cpu.as_secs_f64())
                .sum::<f64>()
                / n,
            combinations: runs.iter().map(|r| r.combinations as f64).sum::<f64>() / n,
            capped_runs: runs.iter().filter(|r| r.capped).count(),
            repetitions: runs.len(),
        }
    }
}

/// Runs one algorithm on one concrete set of relations and returns its
/// metrics.
pub fn run_once(
    algorithm: Algorithm,
    query: &Vector,
    relations: Vec<Vec<Tuple>>,
    case: &CaseConfig,
) -> RunAggregate {
    let (w_s, w_q, w_mu) = case.weights;
    let mut problem = ProblemBuilder::new(query.clone(), EuclideanLogScore::new(w_s, w_q, w_mu))
        .k(case.k)
        .relations_from_tuples(relations)
        .config(ProxRjConfig {
            dominance_period: case.dominance_period,
            max_accesses: case.max_accesses,
            ..ProxRjConfig::default()
        })
        .build()
        .expect("valid experiment problem");
    let result = algorithm
        .run(&mut problem)
        .expect("Euclidean scoring is reducible");
    RunAggregate {
        sum_depths: result.sum_depths(),
        total_cpu: result.metrics.total_time,
        bound_cpu: result.metrics.bound_time,
        dominance_cpu: result.metrics.dominance_time,
        combinations: result.metrics.combinations_formed,
        capped: result.metrics.hit_access_cap,
    }
}

/// Runs all requested algorithms on `repetitions` freshly generated synthetic
/// data sets (one distinct seed per repetition, shared across algorithms so
/// the comparison is paired) and averages the metrics.
///
/// Repetitions are executed in parallel worker threads (std scoped threads);
/// each individual run is single-threaded so its CPU timing stays
/// meaningful.
pub fn run_synthetic_case(case: &CaseConfig, algorithms: &[Algorithm]) -> Vec<AggregatedOutcome> {
    let reps: Vec<u64> = (0..case.repetitions as u64).collect();
    let mut per_algo: Vec<Vec<RunAggregate>> = vec![Vec::new(); algorithms.len()];

    let results: Vec<Vec<RunAggregate>> = std::thread::scope(|scope| {
        let handles: Vec<_> = reps
            .iter()
            .map(|&rep| {
                let case = case.clone();
                let algorithms = algorithms.to_vec();
                scope.spawn(move || {
                    let data_cfg = case.data.with_seed(case.data.seed.wrapping_add(rep * 9973));
                    let relations = prj_data::generate_synthetic(&data_cfg);
                    let query = prj_data::synthetic::synthetic_query(data_cfg.dimensions);
                    algorithms
                        .iter()
                        .map(|&algo| run_once(algo, &query, relations.clone(), &case))
                        .collect::<Vec<RunAggregate>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });

    for rep_result in results {
        for (ai, run) in rep_result.into_iter().enumerate() {
            per_algo[ai].push(run);
        }
    }
    algorithms
        .iter()
        .zip(per_algo.iter())
        .map(|(&algo, runs)| AggregatedOutcome::from_runs(algo, runs))
        .collect()
}

/// Runs all requested algorithms on one city data set (Figure 3(i)/(l)).
pub fn run_city_case(
    city: &CityDataSet,
    case: &CaseConfig,
    algorithms: &[Algorithm],
) -> Vec<AggregatedOutcome> {
    algorithms
        .iter()
        .map(|&algo| {
            let run = run_once(algo, &city.query, city.relations.clone(), case);
            AggregatedOutcome::from_runs(algo, &[run])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_case() -> CaseConfig {
        CaseConfig {
            k: 3,
            data: SyntheticConfig {
                density: 15.0,
                ..Default::default()
            },
            repetitions: 3,
            ..Default::default()
        }
    }

    #[test]
    fn synthetic_case_produces_one_outcome_per_algorithm() {
        let outcomes = run_synthetic_case(&quick_case(), &Algorithm::all());
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert_eq!(o.repetitions, 3);
            assert!(o.sum_depths > 0.0);
            assert!(o.total_cpu_s >= 0.0);
            assert_eq!(o.capped_runs, 0);
        }
    }

    #[test]
    fn tight_bound_beats_corner_bound_on_average() {
        let mut case = quick_case();
        case.repetitions = 5;
        case.data.density = 30.0;
        let outcomes = run_synthetic_case(&case, &[Algorithm::Cbpa, Algorithm::Tbpa]);
        let cbpa = &outcomes[0];
        let tbpa = &outcomes[1];
        assert!(
            tbpa.sum_depths <= cbpa.sum_depths,
            "TBPA ({}) should not read more than CBPA ({})",
            tbpa.sum_depths,
            cbpa.sum_depths
        );
    }

    #[test]
    fn city_case_runs_all_algorithms() {
        let city = &prj_data::all_cities(11)[2]; // Boston, the smallest
        let case = CaseConfig {
            k: 5,
            ..quick_case()
        };
        let outcomes = run_city_case(city, &case, &[Algorithm::Cbrr, Algorithm::Tbpa]);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.sum_depths > 0.0));
    }

    #[test]
    fn access_cap_is_reported() {
        let case = CaseConfig {
            max_accesses: Some(5),
            ..quick_case()
        };
        let outcomes = run_synthetic_case(&case, &[Algorithm::Cbrr]);
        assert_eq!(outcomes[0].capped_runs, outcomes[0].repetitions);
        assert!(outcomes[0].sum_depths <= 5.0);
    }
}
