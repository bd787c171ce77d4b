//! EXPLAIN / EXPLAIN ANALYZE against a real 2-worker fleet: the profile's
//! books must balance (the one unit's depths equal the engine's
//! `sumDepths` accounting, and a local unsharded engine's), the analyzed
//! unit must carry a sampled bound-convergence trajectory, and — the
//! diagnostics contract — the rows ANALYZE returns must be bit-identical
//! to a plain `TopK` of the same query. A diagnostic that changes the
//! answer it diagnoses is worthless.

use prj_api::{QueryRequest, Request, Response, TupleData};
use prj_cluster::{ClusterTopology, Coordinator};
use prj_engine::{EngineBuilder, Session};
use std::sync::Arc;

type Worker = prj_cluster::SpawnedWorker;

fn spawn_fleet(n: usize, shards: usize) -> Vec<Worker> {
    (0..n)
        .map(|_| {
            prj_cluster::spawn_worker_process(
                std::path::Path::new(env!("CARGO_BIN_EXE_prj-serve")),
                shards,
                2,
            )
            .expect("spawn prj-serve --worker")
        })
        .collect()
}

fn coordinator_over(fleet: &[Worker], shards: usize) -> Coordinator {
    let topology =
        ClusterTopology::new(fleet.iter().map(|w| w.addr().to_string()).collect(), shards)
            .expect("topology");
    Coordinator::builder(topology)
        .threads(2)
        .build()
        .expect("coordinator bootstrap")
}

fn dataset(rel: usize) -> Vec<TupleData> {
    (0..48)
        .map(|i| {
            let x = ((i * 37 + rel * 11) % 96) as f64 / 8.0 - 6.0;
            let y = ((i * 53 + rel * 7) % 96) as f64 / 8.0 - 6.0;
            TupleData::new([x, y], ((i % 12) as f64 + 1.0) / 12.0)
        })
        .collect()
}

fn query() -> QueryRequest {
    QueryRequest::new(vec!["rel0".into(), "rel1".into()], [0.4, -0.9]).k(6)
}

#[test]
fn analyze_profile_balances_and_rows_match_topk_bit_for_bit() {
    let shards = 2;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    for rel in 0..2 {
        match coordinator.dispatch_one(Request::RegisterRelation {
            name: format!("rel{rel}"),
            tuples: dataset(rel),
        }) {
            Response::Registered { .. } => {}
            other => panic!("register failed: {other:?}"),
        }
    }

    let depths_before = coordinator.engine().stats().total_sum_depths;
    let report = match coordinator.dispatch_one(Request::Explain {
        query: query(),
        analyze: true,
    }) {
        Response::Explain(report) => report,
        other => panic!("explain analyze failed: {other:?}"),
    };
    let depths_after = coordinator.engine().stats().total_sum_depths;

    // Plan side: a chosen algorithm, exactly one unit, planner inputs for
    // every relation.
    assert!(!report.algorithm.is_empty());
    assert_eq!(report.units.len(), 1, "exactly one unit");
    assert_eq!(report.relations.len(), 2);
    assert!(report.relations.iter().all(|r| r.cardinality > 0));

    // Profile side: the books balance exactly — per-unit depths sum to the
    // profile's total, and the engine's fleet-wide sumDepths stat advanced
    // by precisely that amount (ANALYZE is a real, fully-accounted run).
    let analyzed = report.analyzed.expect("analyze produces a profile");
    let unit_sum: u64 = analyzed.units.iter().map(|u| u.depths).sum();
    assert_eq!(unit_sum, analyzed.total_sum_depths, "unit depths balance");
    assert_eq!(
        depths_after - depths_before,
        analyzed.total_sum_depths,
        "the engine's sumDepths stat advanced by the profiled amount"
    );
    assert_eq!(analyzed.units.len(), 1, "exactly one analyzed unit");
    assert!(analyzed.units.iter().all(|u| u.remote), "fleet execution");
    for unit in &analyzed.units {
        assert!(
            !unit.trajectory.is_empty(),
            "unit {} has no bound-convergence trajectory",
            unit.shard
        );
        assert!(
            unit.trajectory.windows(2).all(|w| w[0].depth <= w[1].depth),
            "trajectory depths must be non-decreasing"
        );
        assert!(matches!(unit.cache.as_str(), "fresh" | "delta-merged"));
    }

    // Answer side: bit-identical to the plain query.
    let plain = match coordinator.dispatch_one(Request::TopK(query())) {
        Response::Results { rows, .. } => rows,
        other => panic!("plain top-K failed: {other:?}"),
    };
    assert_eq!(analyzed.rows.len(), plain.len());
    for (a, b) in analyzed.rows.iter().zip(plain.iter()) {
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-exact scores");
    }

    // A cluster query reads what one unsharded operator reads: the remote
    // unit's depths are a local S = 1 engine's ANALYZE depths on the same
    // data, and the rows are bit-identical.
    let local = Session::new(Arc::new(EngineBuilder::default().threads(2).build()));
    for rel in 0..2 {
        local.handle(Request::RegisterRelation {
            name: format!("rel{rel}"),
            tuples: dataset(rel),
        });
    }
    let local_analyzed = match local.handle(Request::Explain {
        query: query(),
        analyze: true,
    }) {
        Response::Explain(report) => report.analyzed.expect("local profile"),
        other => panic!("local explain analyze failed: {other:?}"),
    };
    assert_eq!(
        analyzed.units[0].depths, local_analyzed.total_sum_depths,
        "the remote unit must read the S = 1 depths"
    );
    assert_eq!(analyzed.rows.len(), local_analyzed.rows.len());
    for (a, b) in analyzed.rows.iter().zip(local_analyzed.rows.iter()) {
        assert_eq!(a.tuples, b.tuples);
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-exact scores");
    }
}

#[test]
fn analyze_bypasses_caches_and_plain_mode_skips_execution() {
    let shards = 2;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    for rel in 0..2 {
        match coordinator.dispatch_one(Request::RegisterRelation {
            name: format!("rel{rel}"),
            tuples: dataset(rel),
        }) {
            Response::Registered { .. } => {}
            other => panic!("register failed: {other:?}"),
        }
    }

    // Warm the result cache.
    match coordinator.dispatch_one(Request::TopK(query())) {
        Response::Results { .. } => {}
        other => panic!("warmup failed: {other:?}"),
    }

    // Plain EXPLAIN: a plan, no profile, no execution recorded.
    let executed_before = coordinator.engine().stats().executed;
    let plan_only = match coordinator.dispatch_one(Request::Explain {
        query: query(),
        analyze: false,
    }) {
        Response::Explain(report) => report,
        other => panic!("explain failed: {other:?}"),
    };
    assert!(plan_only.analyzed.is_none(), "plan mode must not execute");
    assert_eq!(plan_only.units.len(), 1);
    assert_eq!(
        coordinator.engine().stats().executed,
        executed_before,
        "plan mode leaves the execution counters untouched"
    );

    // ANALYZE after the warmup must still run its unit for real: a
    // cached profile would report the cache's cost (zero), not the
    // query's.
    let report = match coordinator.dispatch_one(Request::Explain {
        query: query(),
        analyze: true,
    }) {
        Response::Explain(report) => report,
        other => panic!("explain analyze failed: {other:?}"),
    };
    let analyzed = report.analyzed.expect("profile");
    assert!(
        analyzed.total_sum_depths > 0,
        "a real execution was profiled"
    );
    assert!(analyzed.units.iter().all(|u| u.depths > 0));

    // And the warmed result cache is still intact afterwards: ANALYZE
    // reads around the caches, it does not clobber them.
    match coordinator.dispatch_one(Request::TopK(query())) {
        Response::Results { from_cache, .. } => {
            assert!(from_cache, "result cache survived ANALYZE")
        }
        other => panic!("post-analyze top-K failed: {other:?}"),
    }
}
