//! Distributed tracing: a coordinator query over real worker processes
//! produces ONE stitched trace — the coordinator's `query`/`plan`/`unit`
//! spans plus the worker's imported `execute_unit`/`run` spans, all
//! correctly parented — and worker failover is pinned into the trace as
//! a `failover` event. Every worker holds a full replica, so any live
//! worker answers any query, and the coordinator spreads queries over
//! the fleet round-robin.

use prj_api::{ApiClient, QueryRequest, Request, Response, TupleData};
use prj_cluster::{ClusterTopology, Coordinator};
use prj_engine::{EngineBuilder, Session};
use prj_obs::Span;
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

fn grid(n: usize, salt: u64) -> Vec<TupleData> {
    (0..n)
        .map(|i| {
            let x = ((i as u64 * 37 + salt * 11) % 100) as f64 / 10.0 - 5.0;
            let y = ((i as u64 * 53 + salt * 7) % 100) as f64 / 10.0 - 5.0;
            TupleData::new([x, y], ((i % 10) as f64 + 1.0) / 10.0)
        })
        .collect()
}

fn register_grid(coordinator: &Coordinator, name: &str, n: usize, salt: u64) {
    let response = coordinator.dispatch_one(Request::RegisterRelation {
        name: name.to_string(),
        tuples: grid(n, salt),
    });
    assert!(
        !matches!(response, Response::Error(_)),
        "register {name}: {response:?}"
    );
}

fn topk(q: [f64; 2]) -> Request {
    Request::TopK(QueryRequest::new(vec!["t0".into(), "t1".into()], q.to_vec()).k(5))
}

fn run_query(coordinator: &Coordinator, q: [f64; 2]) -> Vec<prj_api::ResultRow> {
    match coordinator.dispatch_one(topk(q)) {
        Response::Results { rows, .. } => rows,
        other => panic!("query failed: {other:?}"),
    }
}

/// Asks a worker process for its work totals directly.
fn worker_units(worker: &Worker) -> u64 {
    let mut client = ApiClient::connect(worker.addr()).expect("connect to worker");
    match client.call(&Request::WorkerStats).expect("wstats") {
        Response::WorkerReport { units, .. } => units,
        other => panic!("unexpected worker stats: {other:?}"),
    }
}

/// All finished spans of the trace the (single) root `query` span belongs
/// to, after waiting out the asynchronous tail of the query.
fn query_trace(coordinator: &Coordinator) -> Vec<Span> {
    let recorder = coordinator.engine().recorder();
    let root = recorder
        .finished()
        .into_iter()
        .find(|s| s.name == "query")
        .expect("a finished root query span");
    recorder.trace(root.trace)
}

#[test]
fn a_distributed_query_yields_one_stitched_trace() {
    let shards = 4;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    register_grid(&coordinator, "t0", 40, 0);
    register_grid(&coordinator, "t1", 40, 1);
    let rows = run_query(&coordinator, [0.3, -0.8]);
    assert!(!rows.is_empty());

    let spans = query_trace(&coordinator);
    let root = spans.iter().find(|s| s.name == "query").expect("root");
    assert_eq!(root.parent, None);
    let trace = root.trace;
    assert!(
        spans.iter().all(|s| s.trace == trace),
        "every span shares the query's trace"
    );

    // Coordinator-side skeleton: plan + exactly one unit, both under the
    // root, and nothing to merge.
    let plan = spans.iter().find(|s| s.name == "plan").expect("plan span");
    assert_eq!(plan.parent, Some(root.id));
    let units: Vec<&Span> = spans.iter().filter(|s| s.name == "unit").collect();
    assert_eq!(units.len(), 1, "exactly one unit span");
    assert!(units.iter().all(|u| u.parent == Some(root.id)));
    assert!(units.iter().all(|u| u
        .attrs
        .contains(&("remote".to_string(), "true".to_string()))));
    assert!(spans.iter().all(|s| s.name != "merge"), "no merge span");

    // Worker-side spans were shipped over the wire and stitched under the
    // coordinator `unit` span that dispatched them: the remote unit
    // carries an imported `execute_unit` child, which in turn carries the
    // operator `run`.
    let remote: Vec<&Span> = spans.iter().filter(|s| s.name == "execute_unit").collect();
    assert_eq!(remote.len(), 1, "exactly one imported worker span");
    let unit_ids: Vec<_> = units.iter().map(|u| u.id).collect();
    for worker_span in &remote {
        let parent = worker_span.parent.expect("imported spans are parented");
        assert!(
            unit_ids.contains(&parent),
            "execute_unit must hang under a coordinator unit span"
        );
        let run = spans
            .iter()
            .find(|s| s.name == "run" && s.parent == Some(worker_span.id))
            .expect("operator run span under the imported unit");
        assert!(run.duration_micros <= worker_span.duration_micros + 1);
        // Imported starts are re-based into the coordinator clock: never
        // before the dispatching unit span started.
        let unit = units.iter().find(|u| u.id == parent).unwrap();
        assert!(worker_span.start_micros >= unit.start_micros);
    }
}

#[test]
fn replica_failover_is_recorded_in_the_trace_and_metrics() {
    let shards = 2;
    let mut fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    register_grid(&coordinator, "t0", 30, 0);
    register_grid(&coordinator, "t1", 30, 1);
    // Kill worker 0, the round-robin's first choice for the first query:
    // the query must still answer on worker 1, and the abandoned worker
    // must be visible as a failover event in the query's trace and in the
    // failover counter.
    drop(fleet.remove(0));
    let rows = run_query(&coordinator, [-1.1, 2.4]);
    assert!(!rows.is_empty(), "replicated fleet must still answer");

    let spans = query_trace(&coordinator);
    let failover = spans
        .iter()
        .find(|s| s.name == "failover")
        .expect("a failover event span");
    assert_eq!(failover.duration_micros, 0, "events are points");
    let parent = failover.parent.expect("failover hangs under its unit");
    assert!(
        spans.iter().any(|s| s.name == "unit" && s.id == parent),
        "failover event parented under the dispatching unit span"
    );
    assert!(failover.attrs.iter().any(|(k, _)| k == "worker"));

    let failovers = coordinator
        .engine()
        .metrics_samples()
        .into_iter()
        .find(|s| s.name == "prj_failovers_total")
        .expect("failover counter registered");
    assert!(failovers.value >= 1.0, "got {}", failovers.value);
}

/// Worker-side totals flow back to the coordinator: after distributed
/// queries, the cluster-wide stats report carries each worker's depths and
/// latencies, measured on the workers, one entry per worker, and their sum
/// matches the fleet's total depth accounting.
#[test]
fn worker_lanes_aggregate_into_cluster_stats() {
    let shards = 4;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    register_grid(&coordinator, "t0", 40, 0);
    register_grid(&coordinator, "t1", 40, 1);
    run_query(&coordinator, [0.3, -0.8]);
    run_query(&coordinator, [-2.0, 1.5]);

    let Response::Stats(report) = coordinator.dispatch_one(Request::Stats) else {
        panic!("stats verb failed");
    };
    assert_eq!(report.worker_depths.len(), fleet.len());
    assert_eq!(report.worker_micros.len(), fleet.len());
    let worker_total: u64 = report.worker_depths.iter().sum();
    assert!(worker_total > 0, "workers must report the executed units");
    assert_eq!(
        worker_total, report.total_sum_depths,
        "worker-side depths must add up to the fleet's sumDepths"
    );
}

/// Round-robin: on a healthy fleet, two queries reach both workers.
#[test]
fn queries_rotate_over_the_workers() {
    let shards = 2;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    register_grid(&coordinator, "t0", 30, 0);
    register_grid(&coordinator, "t1", 30, 1);
    run_query(&coordinator, [0.3, -0.8]);
    run_query(&coordinator, [-2.0, 1.5]);
    for (w, worker) in fleet.iter().enumerate() {
        assert!(worker_units(worker) >= 1, "worker {w} served no unit");
    }
}

/// Any live worker serves any query: with worker 0 dead, consecutive
/// queries at fresh points — whichever worker the rotation picks first —
/// all equal a local engine's rows bit for bit.
#[test]
fn any_live_worker_serves_any_query() {
    let shards = 2;
    let mut fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards);
    let local = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));
    for (name, salt) in [("t0", 0), ("t1", 1)] {
        register_grid(&coordinator, name, 30, salt);
        let request = Request::RegisterRelation {
            name: name.to_string(),
            tuples: grid(30, salt),
        };
        assert!(!matches!(local.handle(request), Response::Error(_)));
    }
    drop(fleet.remove(0));
    for i in 0..4 {
        let q = [0.6 * i as f64 - 1.5, 1.1 - 0.4 * i as f64];
        let Response::Results { rows: expected, .. } = local.handle(topk(q)) else {
            panic!("local query {i} failed");
        };
        let rows = run_query(&coordinator, q);
        let bits = |rows: &[prj_api::ResultRow]| -> Vec<(Vec<(usize, usize)>, u64)> {
            rows.iter()
                .map(|r| (r.tuples.clone(), r.score.to_bits()))
                .collect()
        };
        assert_eq!(bits(&rows), bits(&expected), "query {i} diverged");
    }
}
