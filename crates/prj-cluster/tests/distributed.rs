//! Distributed differential harness: **real worker processes** on loopback.
//!
//! The cluster's one and only correctness contract extends PR 3's: the
//! *process topology* is unobservable through results. For every tested
//! configuration — dataset shape (uniform / clustered / score-skewed),
//! shard count `S ∈ {2, 4}`, fleet size `workers ∈ {1, 2, 3}`, `K`, access
//! kind, batch and streaming — the coordinator (fanning units out to
//! spawned `prj-serve --worker` processes over real sockets) must return
//! results *bit-identical* (member ids, score bits, ordering) to
//!
//! * the single-process sharded engine over the same data, and
//! * `prj_core::naive_rank_join`, the exhaustive cross-product oracle,
//!
//! and distributed answers must still satisfy the paper's certified-stop
//! invariant. The fault-injection tests then kill workers mid-stream of
//! queries and assert the failure matrix: every answer is either exactly
//! right (served via a replica) or a *typed* error — never a silently
//! truncated result set.

use prj_access::{AccessKind, Tuple, TupleId};
use prj_api::{QueryRequest, Request, Response, ResultRow};
use prj_cluster::{ClusterTopology, Coordinator};
use prj_core::{naive_rank_join, EuclideanLogScore, ProblemBuilder};
use prj_engine::{EngineBuilder, QuerySpec, Session};
use prj_geometry::Vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A spawned `prj-serve --worker` process, killed on drop.
type Worker = prj_cluster::SpawnedWorker;

fn spawn_worker(shards: usize) -> Worker {
    prj_cluster::spawn_worker_process(
        std::path::Path::new(env!("CARGO_BIN_EXE_prj-serve")),
        shards,
        2,
    )
    .expect("spawn prj-serve --worker")
}

fn spawn_fleet(n: usize, shards: usize) -> Vec<Worker> {
    (0..n).map(|_| spawn_worker(shards)).collect()
}

fn coordinator_over(fleet: &[Worker], shards: usize, replicas: usize) -> Coordinator {
    let topology = ClusterTopology::new(
        fleet.iter().map(|w| w.addr().to_string()).collect(),
        shards,
        replicas,
    )
    .expect("topology");
    Coordinator::builder(topology)
        .threads(2)
        .build()
        .expect("coordinator bootstrap")
}

#[derive(Clone, Copy)]
enum Shape {
    Uniform,
    Clustered,
    ScoreSkewed,
}

impl Shape {
    fn tag(self) -> &'static str {
        match self {
            Shape::Uniform => "uni",
            Shape::Clustered => "clu",
            Shape::ScoreSkewed => "skw",
        }
    }
}

/// Mirrors the single-process differential harness's generator.
fn generate(seed: u64, shape: Shape, n_relations: usize, size: usize) -> Vec<Vec<Tuple>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<[f64; 2]> = (0..3)
        .map(|_| [rng.random_range(-2.5..2.5), rng.random_range(-2.5..2.5)])
        .collect();
    (0..n_relations)
        .map(|rel| {
            (0..size)
                .map(|i| {
                    let (x, y) = match shape {
                        Shape::Uniform | Shape::ScoreSkewed => {
                            (rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0))
                        }
                        Shape::Clustered => {
                            let c = centres[(i + rel) % centres.len()];
                            (
                                c[0] + rng.random_range(-0.3..0.3),
                                c[1] + rng.random_range(-0.3..0.3),
                            )
                        }
                    };
                    let u: f64 = rng.random_range(0.0..1.0);
                    let score = match shape {
                        Shape::ScoreSkewed => u * u * u * u + 1e-3,
                        _ => u + 1e-3,
                    };
                    Tuple::new(TupleId::new(rel, i), Vector::from([x, y]), score)
                })
                .collect()
        })
        .collect()
}

fn register_request(name: &str, tuples: &[Tuple]) -> Request {
    Request::RegisterRelation {
        name: name.to_string(),
        tuples: tuples
            .iter()
            .map(|t| prj_api::TupleData::new(t.vector.as_slice().to_vec(), t.score))
            .collect(),
    }
}

/// Identity + exact score bits — the comparison everything reduces to.
fn rows_fingerprint(rows: &[ResultRow]) -> Vec<(Vec<(usize, usize)>, u64)> {
    rows.iter()
        .map(|r| (r.tuples.clone(), r.score.to_bits()))
        .collect()
}

fn naive_fingerprint(
    relations: &[Vec<Tuple>],
    query: &Vector,
    k: usize,
) -> Vec<(Vec<(usize, usize)>, u64)> {
    let mut builder = ProblemBuilder::new(query.clone(), EuclideanLogScore::default()).k(k);
    for tuples in relations {
        builder = builder.relation_from_tuples(tuples.clone());
    }
    naive_rank_join(&mut builder.build().expect("naive problem"))
        .combinations
        .iter()
        .map(|c| {
            (
                c.ids().iter().map(|id| (id.relation, id.index)).collect(),
                c.score.to_bits(),
            )
        })
        .collect()
}

fn results_of(response: Response, context: &str) -> Vec<ResultRow> {
    match response {
        Response::Results { rows, .. } => rows,
        other => panic!("{context}: unexpected response {other:?}"),
    }
}

/// The core matrix: for S ∈ {2, 4} and fleets of 1–3 worker processes,
/// every shape × K × access kind answers bit-identically to the local
/// sharded engine and the naive oracle, batch and streaming.
#[test]
fn cluster_results_are_bit_identical_to_local_and_naive() {
    for (shards, n_workers) in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)] {
        let fleet = spawn_fleet(n_workers, shards);
        let replicas = n_workers.min(2);
        let coordinator = coordinator_over(&fleet, shards, replicas);
        let local = Session::new(Arc::new(
            EngineBuilder::default().threads(2).shards(shards).build(),
        ));

        for (si, shape) in [Shape::Uniform, Shape::Clustered, Shape::ScoreSkewed]
            .into_iter()
            .enumerate()
        {
            // Distinct names per dataset: the fleet is reused across
            // shapes, mutations replicate cumulatively.
            let seed = 1000 + 31 * si as u64 + 7 * shards as u64 + n_workers as u64;
            let relations = generate(seed, shape, 2, 16);
            let names: Vec<String> = (0..relations.len())
                .map(|i| format!("{}{}_{}", shape.tag(), shards, i))
                .collect();
            for (name, tuples) in names.iter().zip(&relations) {
                let request = register_request(name, tuples);
                assert!(
                    !matches!(
                        coordinator.dispatch_one(request.clone()),
                        Response::Error(_)
                    ),
                    "cluster registration failed"
                );
                assert!(
                    !matches!(local.handle(request), Response::Error(_)),
                    "local registration failed"
                );
            }
            let rels: Vec<prj_api::RelationRef> = names.iter().map(|n| n.as_str().into()).collect();
            let query_point = [0.4, -0.7];
            for k in [1, 5] {
                for access in [AccessKind::Distance, AccessKind::Score] {
                    let expected = {
                        // Re-tag ids to this dataset's registration indices
                        // is unnecessary: both engines registered in the
                        // same order, and the oracle's ids are relation-
                        // local (0, 1) while the catalogs use global
                        // registration indices — compare via the local
                        // engine instead, and pin the local engine to the
                        // oracle by score bits and within-relation indices.
                        naive_fingerprint(&relations, &Vector::from(query_point), k)
                    };
                    let request = |kind: fn(QueryRequest) -> Request| {
                        kind(
                            QueryRequest::new(rels.clone(), query_point.to_vec())
                                .k(k)
                                .access(access),
                        )
                    };
                    let cluster_rows = results_of(
                        coordinator.dispatch_one(request(Request::TopK)),
                        "cluster topk",
                    );
                    let local_rows = results_of(local.handle(request(Request::TopK)), "local topk");
                    let tag = format!(
                        "S={shards} workers={n_workers} shape={} k={k} access={access:?}",
                        shape.tag()
                    );
                    assert_eq!(
                        rows_fingerprint(&cluster_rows),
                        rows_fingerprint(&local_rows),
                        "{tag}: cluster diverged from the local sharded engine"
                    );
                    // Against the oracle: same score bits, same
                    // within-relation member indices, same order.
                    let oracle_view: Vec<(Vec<usize>, u64)> = expected
                        .iter()
                        .map(|(ids, bits)| (ids.iter().map(|(_, idx)| *idx).collect(), *bits))
                        .collect();
                    let cluster_view: Vec<(Vec<usize>, u64)> = cluster_rows
                        .iter()
                        .map(|r| {
                            (
                                r.tuples.iter().map(|(_, idx)| *idx).collect(),
                                r.score.to_bits(),
                            )
                        })
                        .collect();
                    assert_eq!(
                        cluster_view, oracle_view,
                        "{tag}: cluster diverged from naive"
                    );

                    // Streaming delivers the same bits.
                    let streamed = results_of(
                        coordinator.dispatch_one(request(Request::Stream)),
                        "cluster stream",
                    );
                    assert_eq!(
                        rows_fingerprint(&streamed),
                        rows_fingerprint(&cluster_rows),
                        "{tag}: streamed rows diverged from batch"
                    );
                }
            }

            // Engine-level: the distributed merged result still satisfies
            // the paper's certified-stop invariant.
            let engine = coordinator.engine();
            let ids: Vec<_> = names
                .iter()
                .map(|n| engine.catalog().lookup(n).expect("registered"))
                .collect();
            let result = engine
                .query(QuerySpec::top_k(ids, Vector::from(query_point), 5))
                .expect("engine-level cluster query");
            assert!(
                result.result().certifies_top_k(5, 1e-9),
                "S={shards} workers={n_workers} shape={}: distributed stop uncertified",
                shape.tag()
            );
        }
    }
}

/// Replicated mutations: appends through the coordinator are observed by
/// subsequent distributed queries, bit-identically to the local engine.
#[test]
fn replicated_mutations_keep_cluster_and_local_in_lockstep() {
    let shards = 4;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards, 2);
    let local = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));
    let relations = generate(77, Shape::Uniform, 2, 14);
    for (i, tuples) in relations.iter().enumerate() {
        let request = register_request(&format!("m{i}"), tuples);
        coordinator.dispatch_one(request.clone());
        local.handle(request);
    }
    let query = |q: [f64; 2]| {
        Request::TopK(QueryRequest::new(vec!["m0".into(), "m1".into()], q.to_vec()).k(4))
    };
    for round in 0..3 {
        let append = Request::AppendTuples {
            relation: "m0".into(),
            tuples: vec![prj_api::TupleData::new(
                [round as f64 - 1.0, 0.5 * round as f64],
                0.9,
            )],
        };
        let cluster_ack = coordinator.dispatch_one(append.clone());
        let local_ack = local.handle(append);
        assert_eq!(
            cluster_ack, local_ack,
            "round {round}: mutation acks diverged"
        );
        let q = [0.1 * round as f64, -0.2];
        assert_eq!(
            rows_fingerprint(&results_of(coordinator.dispatch_one(query(q)), "cluster")),
            rows_fingerprint(&results_of(local.handle(query(q)), "local")),
            "round {round}: post-append results diverged"
        );
    }
    // Drop replicates too: afterwards both sides answer the same typed
    // error.
    let drop_request = Request::DropRelation {
        relation: "m1".into(),
    };
    assert_eq!(
        coordinator.dispatch_one(drop_request.clone()),
        local.handle(drop_request)
    );
    let (cluster_err, local_err) = (
        coordinator.dispatch_one(query([9.0, 9.0])),
        local.handle(query([9.0, 9.0])),
    );
    assert_eq!(cluster_err, local_err, "post-drop errors must agree");
    assert!(matches!(cluster_err, Response::Error(_)));
}

/// Warm unit caches across replicated appends: after a single-shard append,
/// the coordinator re-runs only the invalidated unit on the fleet and
/// replays its memoised siblings by reference (shared `Arc`s recombined via
/// `prj_core::merge_shared`). The blend of cached and freshly recomputed
/// remote units must stay bit-identical to the local sharded engine *and*
/// the naive oracle over the grown relation.
#[test]
fn warm_unit_caches_blend_with_fresh_remote_units_exactly() {
    let shards = 4;
    let size = 24;
    let fleet = spawn_fleet(2, shards);
    let coordinator = coordinator_over(&fleet, shards, 2);
    let local = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));
    // One relation: it is necessarily the driving one, so sibling shards'
    // units survive a single-shard append.
    let mut relations = generate(55, Shape::Uniform, 1, size);
    let request = register_request("wb0", &relations[0]);
    coordinator.dispatch_one(request.clone());
    local.handle(request);
    let q = [0.15, -0.4];
    let query = || Request::TopK(QueryRequest::new(vec!["wb0".into()], q.to_vec()).k(4));

    // Cold round warms the coordinator's unit cache.
    let cold = results_of(coordinator.dispatch_one(query()), "cluster cold");
    assert_eq!(
        rows_fingerprint(&cold),
        rows_fingerprint(&results_of(local.handle(query()), "local cold")),
        "cold round diverged"
    );

    for round in 0..3usize {
        let location = [0.3 * round as f64 - 0.3, 0.2];
        let append = Request::AppendTuples {
            relation: "wb0".into(),
            tuples: vec![prj_api::TupleData::new(location, 0.85)],
        };
        assert_eq!(
            coordinator.dispatch_one(append.clone()),
            local.handle(append),
            "round {round}: append acks diverged"
        );
        // Mirror the catalog's id assignment so the oracle sees the same
        // tuple identities.
        relations[0].push(Tuple::new(
            TupleId::new(0, size + round),
            Vector::from(location),
            0.85,
        ));
        let warm = results_of(coordinator.dispatch_one(query()), "cluster warm");
        assert_eq!(
            rows_fingerprint(&warm),
            rows_fingerprint(&results_of(local.handle(query()), "local warm")),
            "round {round}: cached+fresh blend diverged from local"
        );
        let oracle = naive_fingerprint(&relations, &Vector::from(q), 4);
        let cluster_view: Vec<(Vec<(usize, usize)>, u64)> = warm
            .iter()
            .map(|r| (r.tuples.clone(), r.score.to_bits()))
            .collect();
        assert_eq!(
            cluster_view, oracle,
            "round {round}: cached+fresh blend diverged from the oracle"
        );
    }
}

/// Fault injection: kill a worker while a stream of fresh queries runs.
/// Every answer must be either bit-identical to the local engine or a
/// typed error — and with replicas, the fleet must keep answering exactly
/// after the kill.
#[test]
fn killing_a_worker_mid_query_stream_never_truncates_results() {
    let shards = 4;
    let mut fleet = spawn_fleet(2, shards);
    let coordinator = Arc::new(coordinator_over(&fleet, shards, 2));
    let local = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));
    let relations = generate(42, Shape::Uniform, 2, 40);
    for (i, tuples) in relations.iter().enumerate() {
        let request = register_request(&format!("f{i}"), tuples);
        coordinator.dispatch_one(request.clone());
        local.handle(request);
    }
    let query = |i: usize| {
        // Distinct query points so no answer can come from a cache.
        let q = [0.07 * i as f64 - 1.0, 0.05 * i as f64];
        Request::TopK(QueryRequest::new(vec!["f0".into(), "f1".into()], q.to_vec()).k(5))
    };

    let querier = {
        let coordinator = Arc::clone(&coordinator);
        std::thread::spawn(move || {
            (0..30)
                .map(|i| {
                    let response = coordinator.dispatch_one(query(i));
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    (i, response)
                })
                .collect::<Vec<_>>()
        })
    };
    // Kill the primary-heavy worker mid-stream.
    std::thread::sleep(std::time::Duration::from_millis(40));
    drop(fleet.remove(0));
    let outcomes = querier.join().expect("querier thread");

    let mut exact = 0;
    let mut typed = 0;
    for (i, response) in outcomes {
        match response {
            Response::Results { rows, .. } => {
                let expected = results_of(local.handle(query(i)), "local");
                assert_eq!(
                    rows_fingerprint(&rows),
                    rows_fingerprint(&expected),
                    "query {i}: distributed answer diverged (truncation?)"
                );
                exact += 1;
            }
            Response::Error(e) => {
                assert!(
                    matches!(
                        e.kind,
                        prj_api::ErrorKind::WorkerUnavailable
                            | prj_api::ErrorKind::Degraded
                            | prj_api::ErrorKind::StaleEpoch
                            | prj_api::ErrorKind::Io
                    ),
                    "query {i}: untyped failure {e:?}"
                );
                typed += 1;
            }
            other => panic!("query {i}: unexpected response {other:?}"),
        }
    }
    assert_eq!(exact + typed, 30);
    // With replicas=2 every shard keeps an owner, so the tail of the
    // stream — well after the kill — must be answered exactly.
    let last = results_of(coordinator.dispatch_one(query(999)), "post-kill query");
    let expected = results_of(local.handle(query(999)), "local post-kill");
    assert_eq!(rows_fingerprint(&last), rows_fingerprint(&expected));
    assert!(
        exact > 0,
        "the replica fleet must have answered queries exactly"
    );
}

/// Without replicas, losing the only worker must produce typed
/// worker-unavailable errors — never an empty or partial result.
#[test]
fn losing_the_only_worker_is_a_typed_error() {
    let shards = 2;
    let mut fleet = spawn_fleet(1, shards);
    let coordinator = coordinator_over(&fleet, shards, 1);
    let relations = generate(7, Shape::Uniform, 2, 12);
    for (i, tuples) in relations.iter().enumerate() {
        coordinator.dispatch_one(register_request(&format!("s{i}"), tuples));
    }
    drop(fleet.remove(0));
    let response = coordinator.dispatch_one(Request::TopK(
        QueryRequest::new(vec!["s0".into(), "s1".into()], [0.0, 0.0]).k(3),
    ));
    match response {
        Response::Error(e) => assert!(
            matches!(
                e.kind,
                prj_api::ErrorKind::WorkerUnavailable | prj_api::ErrorKind::Io
            ),
            "unexpected error kind: {e:?}"
        ),
        other => panic!("expected a typed error, got {other:?}"),
    }
}

/// A replica that silently diverged from the coordinator (here: mutated
/// behind its back) is refused through the epoch check — the query fails
/// typed instead of returning answers computed over different data.
#[test]
fn out_of_band_worker_mutations_surface_as_stale_epoch() {
    let shards = 2;
    let fleet = spawn_fleet(1, shards);
    let coordinator = coordinator_over(&fleet, shards, 1);
    let relations = generate(11, Shape::Uniform, 2, 10);
    for (i, tuples) in relations.iter().enumerate() {
        coordinator.dispatch_one(register_request(&format!("e{i}"), tuples));
    }
    // Mutate the worker's replica directly, bypassing the coordinator.
    let mut direct = prj_api::ApiClient::connect(fleet[0].addr()).expect("direct connect");
    direct
        .call(&Request::AppendTuples {
            relation: "e0".into(),
            tuples: vec![prj_api::TupleData::new([0.0, 0.0], 0.99)],
        })
        .expect("out-of-band append");
    let response = coordinator.dispatch_one(Request::TopK(
        QueryRequest::new(vec!["e0".into(), "e1".into()], [0.3, 0.3]).k(2),
    ));
    match response {
        Response::Error(e) => assert_eq!(e.kind, prj_api::ErrorKind::StaleEpoch, "got {e:?}"),
        other => panic!("expected stale-epoch, got {other:?}"),
    }
}

/// Sustained ingest over the delta lane, with compaction schedules skewed
/// *across* workers: one worker folds eagerly (`--delta-threshold 2`), the
/// other lazily (`--delta-threshold 64`, so its deltas mostly drain through
/// age flushes). High-rate appends stream into a single relation through
/// the coordinator, and after every batch a fresh-point query must be
/// bit-identical to the local rebuild-mode engine *and* the naive oracle —
/// per-worker compaction timing must be completely unobservable. The leg
/// ends with a worker kill mid-ingest: with replicas=2 the surviving
/// worker must keep answering exactly, whatever its delta backlog was.
#[test]
fn sustained_ingest_with_skewed_compaction_stays_exact() {
    let shards = 4;
    let size = 12;
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_prj-serve"));
    let mut fleet: Vec<Worker> = [2usize, 64]
        .iter()
        .map(|&threshold| {
            prj_cluster::spawn_worker_process_with_delta(exe, shards, 2, threshold)
                .expect("spawn delta worker")
        })
        .collect();
    let coordinator = Arc::new(coordinator_over(&fleet, shards, 2));
    let local = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));
    let mut relations = generate(88, Shape::Uniform, 2, size);
    for (i, tuples) in relations.iter().enumerate() {
        let request = register_request(&format!("g{i}"), tuples);
        assert!(!matches!(
            coordinator.dispatch_one(request.clone()),
            Response::Error(_)
        ));
        assert!(!matches!(local.handle(request), Response::Error(_)));
    }

    for batch in 0..20usize {
        // Three appends per batch into the single hot relation g0.
        let points: Vec<([f64; 2], f64)> = (0..3)
            .map(|j| {
                let t = (batch * 3 + j) as f64;
                (
                    [(t * 0.37).sin() * 2.5, (t * 0.53).cos() * 2.5],
                    0.05 + (t * 0.29).sin().abs() * 0.9,
                )
            })
            .collect();
        let append = Request::AppendTuples {
            relation: "g0".into(),
            tuples: points
                .iter()
                .map(|(loc, score)| prj_api::TupleData::new(*loc, *score))
                .collect(),
        };
        // The mutation ack (id, epoch, cardinality) must be identical under
        // delta-mode workers and the rebuild-mode local engine — that is
        // what lets replication ship delta appends as-is.
        let cluster_ack = coordinator.dispatch_one(append.clone());
        let local_ack = local.handle(append);
        assert_eq!(
            cluster_ack, local_ack,
            "batch {batch}: mutation acks diverged under delta ingest"
        );
        for (j, (loc, score)) in points.iter().enumerate() {
            relations[0].push(Tuple::new(
                TupleId::new(0, size + batch * 3 + j),
                Vector::from(*loc),
                *score,
            ));
        }

        // Fresh query point every batch, so nothing can be served from a
        // cache — the cluster must read through every worker's current
        // base+delta state.
        let q = [0.11 * batch as f64 - 1.0, 0.6 - 0.07 * batch as f64];
        let request =
            Request::TopK(QueryRequest::new(vec!["g0".into(), "g1".into()], q.to_vec()).k(4));
        let cluster_rows = results_of(
            coordinator.dispatch_one(request.clone()),
            "cluster ingest query",
        );
        assert_eq!(
            rows_fingerprint(&cluster_rows),
            rows_fingerprint(&results_of(local.handle(request), "local ingest query")),
            "batch {batch}: cluster diverged from local mid-ingest"
        );
        let oracle = naive_fingerprint(&relations, &Vector::from(q), 4);
        let cluster_view: Vec<(Vec<(usize, usize)>, u64)> = cluster_rows
            .iter()
            .map(|r| (r.tuples.clone(), r.score.to_bits()))
            .collect();
        assert_eq!(
            cluster_view, oracle,
            "batch {batch}: cluster diverged from the oracle mid-ingest"
        );
    }

    // Kill the lazy worker (the one most likely to be holding a delta
    // backlog) mid-ingest: replicas=2 means the eager worker owns every
    // shard too, so the fleet must keep answering exactly.
    drop(fleet.remove(1));
    let q = [0.33, -0.45];
    let request = Request::TopK(QueryRequest::new(vec!["g0".into(), "g1".into()], q.to_vec()).k(5));
    let rows = results_of(
        coordinator.dispatch_one(request.clone()),
        "post-kill ingest query",
    );
    assert_eq!(
        rows_fingerprint(&rows),
        rows_fingerprint(&results_of(local.handle(request), "local post-kill")),
        "post-kill query diverged from local"
    );
    let oracle = naive_fingerprint(&relations, &Vector::from(q), 5);
    let cluster_view: Vec<(Vec<(usize, usize)>, u64)> = rows
        .iter()
        .map(|r| (r.tuples.clone(), r.score.to_bits()))
        .collect();
    assert_eq!(cluster_view, oracle, "post-kill query diverged from oracle");
}

/// The spawned worker process serves `prj/2` lines, ordinary and cluster
/// verbs alike, and answers a `prj/1` line with a typed version error on
/// the same connection.
#[test]
fn worker_process_serves_both_protocol_versions() {
    use std::io::{BufRead, Write};
    let fleet = spawn_fleet(1, 2);
    let stream = std::net::TcpStream::connect(fleet[0].addr()).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut exchange = |line: &str| -> String {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("newline");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read");
        response.trim_end().to_string()
    };
    let response = exchange("prj/2 register name=w tuples=0.5,0.5:0.5");
    assert!(
        response.starts_with("prj/2 ok registered"),
        "got: {response}"
    );
    let response = exchange("prj/2 hello max=2");
    assert_eq!(response, "prj/2 ok hello ver=2");
    let response = exchange("prj/1 wstats");
    assert!(
        response.starts_with("prj/2 err kind=version"),
        "got: {response}"
    );
    let response = exchange("prj/2 wstats");
    assert!(response.starts_with("prj/2 ok worker"), "got: {response}");
}
