//! Integration tests for the serving engine: concurrent execution must be
//! indistinguishable from direct `Algorithm::run` calls, and the cache must
//! short-circuit re-execution.

use prj_api::{wire, QueryRequest, Response};
use prj_core::{Algorithm, EuclideanLogScore, ProblemBuilder, RelationBackend};
use prj_data::{generate_synthetic, SyntheticConfig};
use prj_engine::{Dispatch, Engine, EngineBuilder, QuerySpec, RelationId, Session};
use prj_geometry::Vector;
use prj_sub::SubscriptionManager;
use std::sync::Arc;

fn synthetic_engine(threads: usize) -> (Engine, Vec<RelationId>, Vec<Vec<prj_core::Tuple>>) {
    let relations = generate_synthetic(&SyntheticConfig {
        n_relations: 3,
        density: 40.0,
        ..Default::default()
    });
    let engine: Engine = EngineBuilder::default().threads(threads).build();
    let ids = relations
        .iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{}", i + 1), tuples.clone()))
        .collect();
    (engine, ids, relations)
}

/// Runs the same query directly through the library, using the R-tree
/// backend so the sorted-access order matches the engine's shared R-tree
/// views tuple for tuple.
fn direct_run(
    relations: &[Vec<prj_core::Tuple>],
    query: &Vector,
    k: usize,
    algorithm: Algorithm,
) -> prj_core::RankJoinResult {
    let mut problem = ProblemBuilder::new(query.clone(), EuclideanLogScore::default())
        .k(k)
        .backend(RelationBackend::RTree)
        .relations_from_tuples(relations.to_vec())
        .build()
        .expect("valid problem");
    algorithm.run(&mut problem).expect("reducible scoring")
}

fn query_grid(n: usize) -> Vec<(Vector, usize)> {
    (0..n)
        .map(|i| {
            let x = (i % 8) as f64 / 16.0 - 0.25;
            let y = (i / 8) as f64 / 16.0 - 0.25;
            (Vector::from([x, y]), 1 + i % 5)
        })
        .collect()
}

#[test]
fn concurrent_queries_match_direct_runs_exactly() {
    let (engine, ids, relations) = synthetic_engine(4);
    let queries = query_grid(32);

    // Submit everything up front so the queries genuinely overlap on the
    // pool, then compare each to a fresh single-threaded library run.
    let tickets: Vec<_> = queries
        .iter()
        .map(|(q, k)| {
            engine.submit(
                QuerySpec::top_k(ids.clone(), q.clone(), *k).with_algorithm(Algorithm::Tbpa),
            )
        })
        .collect();
    for (ticket, (q, k)) in tickets.into_iter().zip(queries.iter()) {
        let served = ticket.wait().expect("engine result");
        let direct = direct_run(&relations, q, *k, Algorithm::Tbpa);
        assert_eq!(
            served.combinations(),
            direct.combinations.as_slice(),
            "engine result must be byte-identical to Algorithm::run"
        );
        assert_eq!(served.result().stats, direct.stats, "same sorted accesses");
    }
}

#[test]
fn planned_queries_match_direct_runs_under_the_planned_algorithm() {
    let (engine, ids, relations) = synthetic_engine(4);
    for (q, k) in query_grid(12) {
        let served = engine
            .query(QuerySpec::top_k(ids.clone(), q.clone(), k))
            .expect("engine result");
        let planned = served.plan().algorithm;
        let direct = direct_run(&relations, &q, k, planned);
        assert_eq!(served.combinations(), direct.combinations.as_slice());
    }
}

#[test]
fn cache_hits_skip_re_execution() {
    let (engine, ids, _) = synthetic_engine(4);
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 5);

    let cold = engine.query(spec.clone()).expect("cold query");
    assert!(!cold.from_cache);

    // 16 concurrent identical queries: every one must be served from the
    // cache without running the operator again.
    let tickets: Vec<_> = (0..16).map(|_| engine.submit(spec.clone())).collect();
    for ticket in tickets {
        let warm = ticket.wait().expect("warm query");
        assert!(warm.from_cache);
        assert_eq!(warm.combinations(), cold.combinations());
        // A cached result performs no sorted accesses of its own: the depths
        // reported are the memoised cold run's.
        assert_eq!(warm.result().stats, cold.result().stats);
    }

    let stats = engine.stats();
    assert_eq!(stats.queries, 17);
    assert_eq!(stats.executed, 1, "only the cold query may execute");
    assert_eq!(stats.cache_hits, 16);
    let cache = engine.cache_metrics();
    assert_eq!(cache.hits, 16);
    assert_eq!(cache.entries, 1);
}

#[test]
fn streaming_and_batch_agree_under_concurrency() {
    let (engine, ids, relations) = synthetic_engine(4);
    let query = Vector::from([0.1, -0.1]);
    let k = 6;
    let spec = QuerySpec::top_k(ids, query.clone(), k).with_algorithm(Algorithm::Tbrr);

    let mut streams: Vec<_> = (0..4)
        .map(|_| engine.stream(spec.clone()).expect("stream"))
        .collect();
    let direct = direct_run(&relations, &query, k, Algorithm::Tbrr);
    for stream in &mut streams {
        let mut got = Vec::new();
        while let Some(combo) = stream.next_result() {
            got.push(combo);
        }
        assert_eq!(got.as_slice(), direct.combinations.as_slice());
    }
}

#[test]
fn mixed_workload_is_consistent() {
    // A cold round followed by two concurrent warm rounds: once the cold
    // round has completed, repeats must be pure cache hits.
    let (engine, ids, _) = synthetic_engine(8);
    let queries = query_grid(24);
    let cold: Vec<_> = queries
        .iter()
        .map(|(q, k)| engine.submit(QuerySpec::top_k(ids.clone(), q.clone(), *k)))
        .collect();
    for ticket in cold {
        assert!(!ticket
            .wait()
            .expect("cold result")
            .combinations()
            .is_empty());
    }
    let warm: Vec<_> = (0..2)
        .flat_map(|_| {
            queries
                .iter()
                .map(|(q, k)| engine.submit(QuerySpec::top_k(ids.clone(), q.clone(), *k)))
                .collect::<Vec<_>>()
        })
        .collect();
    for ticket in warm {
        let result = ticket.wait().expect("warm result");
        assert!(result.from_cache);
    }
    let stats = engine.stats();
    assert_eq!(stats.queries, 72);
    assert_eq!(
        stats.executed, 24,
        "each distinct spec executes exactly once"
    );
    assert_eq!(stats.cache_hits, 48);
}

/// An engine over `n` synthetic relations of about `tuples` tuples each,
/// partitioned into `shards` shards.
fn planned_engine(n: usize, tuples: usize, shards: usize) -> (Engine, Vec<RelationId>) {
    let relations = generate_synthetic(&SyntheticConfig {
        n_relations: n,
        density: tuples as f64,
        ..Default::default()
    });
    let engine = EngineBuilder::default()
        .threads(1)
        .cache_capacity(0)
        .shards(shards)
        .build();
    let ids = relations
        .into_iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{}", i + 1), tuples))
        .collect();
    (engine, ids)
}

/// The planner's rule, observed through the engine: CBPA at n = 2, TBPA at
/// n = 3, no LP dominance test at any cardinality, one plan for every
/// unit at every shard count, and a pinned algorithm kept as given.
#[test]
fn planner_picks_corner_bound_at_two_relations_and_tight_bound_at_three() {
    let query = Vector::from([0.05, -0.05]);

    let (engine, ids) = planned_engine(2, 400, 1);
    let plan = engine
        .query(QuerySpec::top_k(ids, query.clone(), 8))
        .expect("2-relation query")
        .plan()
        .clone();
    assert_eq!(plan.algorithm, Algorithm::Cbpa, "{}", plan.rationale);
    assert_eq!(plan.dominance_period, None);

    for shards in [1, 4] {
        let (engine, ids) = planned_engine(3, 5000, shards);
        let spec = QuerySpec::top_k(ids, query.clone(), 8);
        // Plan-mode EXPLAIN runs exactly the query path's planning and
        // unit building, and executes nothing.
        let explain = engine.explain(spec, false).expect("explain");
        assert!(
            explain.relations.iter().all(|r| r.cardinality >= 4500),
            "5000-tuple relations: {:?}",
            explain.relations
        );
        assert_eq!(explain.plan.algorithm, Algorithm::Tbpa, "S={shards}");
        assert_eq!(explain.plan.dominance_period, None, "S={shards}");
        assert!(!explain.units.is_empty());
        for unit in &explain.units {
            assert_eq!(
                unit.plan, explain.plan,
                "S={shards}: every unit runs the query's plan"
            );
        }
    }

    for (n, pinned) in [(2, Algorithm::Tbrr), (3, Algorithm::Cbrr)] {
        let (engine, ids) = planned_engine(n, 100, 1);
        let served = engine
            .query(QuerySpec::top_k(ids, query.clone(), 8).with_algorithm(pinned))
            .expect("pinned query");
        assert_eq!(served.plan().algorithm, pinned, "n = {n}");
        assert_eq!(served.plan().dominance_period, None);
        assert!(served.plan().rationale.contains("pinned"));
    }
}

#[test]
fn a_two_relation_subscription_acks_cbpa() {
    let (engine, _) = planned_engine(2, 400, 1);
    let manager = SubscriptionManager::new(Session::new(Arc::new(engine)), 0);
    let request = QueryRequest::new(vec!["R1".into(), "R2".into()], [0.0, 0.0]).k(4);
    let Ok(Dispatch::Subscribed { ack, .. }) = manager.subscribe(request) else {
        panic!("subscribe failed");
    };
    let Response::Subscribed { ref algorithm, .. } = ack else {
        panic!("unexpected ack: {ack:?}");
    };
    assert_eq!(algorithm, "CBPA");
    let line = wire::encode_response(&ack);
    assert!(line.contains(" algo=CBPA "), "{line}");
}

/// A scoring whose every evaluation panics, standing in for any bug that
/// panics inside a run.
#[derive(Debug)]
struct PanickingScore;

impl prj_core::ScoringFunction for PanickingScore {
    fn proximity_weighted_score(&self, _sigma: f64, _dq: f64, _dmu: f64) -> f64 {
        panic!("scoring panicked on purpose")
    }
}

impl prj_core::ScoringSpec for PanickingScore {
    fn cache_fingerprint(&self) -> u64 {
        prj_core::fingerprint("panicking", &[])
    }
}

#[test]
fn a_panicking_run_reports_worker_lost_and_the_engine_serves_on() {
    let (engine, ids, _) = synthetic_engine(1);
    let point = Vector::from([0.0, 0.0]);
    let panicking = || QuerySpec::top_k(ids.clone(), point.clone(), 3).with_scoring(PanickingScore);
    // `query` runs a miss on the calling thread, `submit` on a pool worker;
    // either way the panic stays inside the engine.
    assert!(matches!(
        engine.query(panicking()),
        Err(prj_engine::EngineError::WorkerLost)
    ));
    assert!(matches!(
        engine.submit(panicking()).wait(),
        Err(prj_engine::EngineError::WorkerLost)
    ));
    let spec = QuerySpec::top_k(ids.clone(), point.clone(), 3);
    assert_eq!(
        engine
            .query(spec.clone())
            .expect("query")
            .combinations()
            .len(),
        3
    );
    assert_eq!(
        engine
            .submit(spec)
            .wait()
            .expect("submit")
            .combinations()
            .len(),
        3
    );
}

#[test]
fn concurrent_identical_cold_queries_run_the_operator_once() {
    // One run permit: the first caller to take it runs the query; every
    // other caller waits at the gate and finds the result in the cache.
    let (engine, ids, _) = synthetic_engine(1);
    let spec = QuerySpec::top_k(ids, Vector::from([0.1, -0.1]), 5);
    let barrier = std::sync::Barrier::new(8);
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    engine.query(spec.clone()).expect("query")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results.iter().filter(|r| !r.from_cache).count(), 1);
    assert!(results
        .iter()
        .all(|r| r.combinations() == results[0].combinations()));
    let stats = engine.stats();
    assert_eq!(stats.executed, 1, "only one caller may execute");
    assert_eq!(stats.cache_hits, 7);
}
