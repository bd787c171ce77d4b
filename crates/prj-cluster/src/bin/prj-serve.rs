//! `prj-serve` — the line-delimited TCP front-end for the ProxRJ engine,
//! in three roles: standalone server, cluster worker, cluster coordinator.
//!
//! ```text
//! cargo run --release -p prj-cluster --bin prj-serve -- [OPTIONS]
//!
//! OPTIONS:
//!     --addr HOST:PORT   listen address (default 127.0.0.1:7878; port 0 = ephemeral)
//!     --threads N        engine query runs at once (default: available parallelism)
//!     --cache N          result-cache capacity in entries (default 1024)
//!     --shards N         spatial shards per relation (default 1 = unsharded)
//!     --table1           preload the paper's Table 1 relations as R1, R2, R3
//!     --self-check       bind an ephemeral port, run one client round-trip, exit
//!     --max-subscriptions N  cap on concurrent standing queries per process
//!                        (default 1024; 0 = unlimited; the cap answers with a
//!                        typed `degraded` error)
//!     --metrics-addr A   also serve a Prometheus-style /metrics endpoint on A
//!                        (coordinators fold every worker's series in, with
//!                        an `instance` label)
//!     --health-addr A    also serve the readiness/liveness report on A over
//!                        HTTP (the same report the typed `health` verb
//!                        returns: role, replication ack lag, delta backlog,
//!                        subscription queue, per-worker reachability)
//!     --slow-query-ms N  dump the trace of any query slower than N ms to
//!                        stderr
//!     --delta-threshold N  buffer appends in per-shard deltas and fold them
//!                        into the base indexes in the background once a
//!                        delta holds N tuples (default 0 = rebuild the
//!                        touched shard on every append)
//!
//!   cluster roles:
//!     --worker                serve as a cluster worker (adds the prj/2
//!                             cluster-internal verbs; catalogs replicate in
//!                             from a coordinator)
//!     --coordinator           serve as a cluster coordinator
//!     --workers A,B,C         comma-separated worker addresses
//!     --topology FILE         topology file (worker/shards lines)
//!     --cluster-self-check N  spawn N local worker processes, run the
//!                             distributed round-trip + worker-kill check, exit
//! ```
//!
//! The protocol is `prj-api`'s `prj/2` line format; try it by hand:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! prj/2 register name=hotels tuples=0.0,-0.5:0.5;0.0,1.0:1.0
//! prj/2 ok registered id=0 name=hotels epoch=0 n=2
//! prj/2 topk rels=hotels q=0.0,0.0 k=1
//! prj/2 ok results cached=false algo=CBPA rows=-0.9431471805599453@0:0
//! ```

use prj_api::{
    apply_events, ApiClient, ErrorKind, HealthReport, QueryRequest, Request, Response, TupleData,
};
use prj_cluster::{ClusterTopology, Coordinator, WorkerSession};
use prj_engine::{Dispatch, EngineBuilder, RequestHandler, Server, Session};
use prj_obs::{MetricsServer, RenderFn};
use prj_sub::{Subscribing, SubscriptionManager};
use std::sync::Arc;
use std::time::Duration;

#[derive(Clone)]
struct Options {
    addr: String,
    threads: Option<usize>,
    cache: usize,
    shards: usize,
    table1: bool,
    self_check: bool,
    worker: bool,
    coordinator: bool,
    workers: Vec<String>,
    topology: Option<String>,
    cluster_self_check: Option<usize>,
    metrics_addr: Option<String>,
    health_addr: Option<String>,
    slow_query_ms: Option<u64>,
    max_subscriptions: usize,
    delta_threshold: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:7878".to_string(),
        threads: None,
        cache: 1024,
        shards: 1,
        table1: false,
        self_check: false,
        worker: false,
        coordinator: false,
        workers: Vec::new(),
        topology: None,
        cluster_self_check: None,
        metrics_addr: None,
        health_addr: None,
        slow_query_ms: None,
        max_subscriptions: 1024,
        delta_threshold: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "--addr" => options.addr = value("--addr")?,
            "--threads" => {
                options.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|_| "--threads expects an integer".to_string())?,
                )
            }
            "--cache" => {
                options.cache = value("--cache")?
                    .parse()
                    .map_err(|_| "--cache expects an integer".to_string())?
            }
            "--shards" => {
                options.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards expects an integer".to_string())?;
                if options.shards == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
            }
            "--workers" => {
                options.workers = value("--workers")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            }
            "--topology" => options.topology = Some(value("--topology")?),
            "--worker" => options.worker = true,
            "--coordinator" => options.coordinator = true,
            "--cluster-self-check" => {
                options.cluster_self_check = Some(
                    value("--cluster-self-check")?
                        .parse()
                        .map_err(|_| "--cluster-self-check expects a worker count".to_string())?,
                )
            }
            "--max-subscriptions" => {
                options.max_subscriptions = value("--max-subscriptions")?
                    .parse()
                    .map_err(|_| "--max-subscriptions expects an integer".to_string())?
            }
            "--delta-threshold" => {
                options.delta_threshold = value("--delta-threshold")?
                    .parse()
                    .map_err(|_| "--delta-threshold expects an integer".to_string())?
            }
            "--metrics-addr" => options.metrics_addr = Some(value("--metrics-addr")?),
            "--health-addr" => options.health_addr = Some(value("--health-addr")?),
            "--slow-query-ms" => {
                options.slow_query_ms = Some(
                    value("--slow-query-ms")?
                        .parse()
                        .map_err(|_| "--slow-query-ms expects milliseconds".to_string())?,
                )
            }
            "--table1" => options.table1 = true,
            "--self-check" => options.self_check = true,
            "--help" | "-h" => {
                println!(
                    "prj-serve: TCP front-end for the ProxRJ engine\n\
                     usage: prj-serve [--addr HOST:PORT] [--threads N] [--cache N] \
                     [--shards N] [--table1] [--self-check] [--metrics-addr HOST:PORT] \
                     [--health-addr HOST:PORT] [--slow-query-ms N] [--max-subscriptions N] \
                     [--delta-threshold N]\n\
                     cluster: [--worker] [--coordinator --workers A,B,C | --topology FILE] \
                     [--cluster-self-check N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if options.worker && options.coordinator {
        return Err("--worker and --coordinator are mutually exclusive".to_string());
    }
    Ok(options)
}

fn build_engine(options: &Options) -> Arc<prj_engine::Engine> {
    let mut builder = EngineBuilder::default()
        .cache_capacity(options.cache)
        .slow_query_threshold(options.slow_query_ms.map(Duration::from_millis))
        .delta_threshold(options.delta_threshold)
        .shards(options.shards);
    if let Some(threads) = options.threads {
        builder = builder.threads(threads);
    }
    Arc::new(builder.build())
}

/// Binds the `--metrics-addr` exposition listener, if asked for. The
/// returned server keeps scraping until dropped.
fn bind_metrics(addr: Option<&str>, render: RenderFn) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let server = MetricsServer::bind(addr, render)
        .map_err(|e| format!("cannot bind metrics endpoint {addr}: {e}"))?;
    println!(
        "metrics exposition on http://{}/metrics",
        server.local_addr()
    );
    Ok(Some(server))
}

/// Renders a [`HealthReport`] as the `--health-addr` endpoint's plain-text
/// body: one `field value` line each, workers one line per worker. The
/// first line is `ready true|false` so a probe needs nothing but a prefix
/// check.
fn render_health(health: &HealthReport) -> String {
    let mut out = format!(
        "ready {}\nlive {}\nrole {}\nreplication_lag_micros {}\ndelta_tuples {}\n\
         oldest_delta_age_ms {}\nsub_queue_depth {}\nsubscriptions {}\ntraces_retained {}\n",
        health.ready,
        health.live,
        health.role,
        health.replication_lag_micros,
        health.delta_tuples,
        health.oldest_delta_age_ms,
        health.sub_queue_depth,
        health.subscriptions,
        health.traces_retained,
    );
    for worker in &health.workers {
        out.push_str(&format!(
            "worker {} reachable={} idle_connections={}\n",
            worker.addr, worker.reachable, worker.idle_connections
        ));
    }
    out
}

/// A render callback answering every probe with the handler's current
/// health report — the typed `health` verb and the HTTP endpoint stay one
/// code path.
fn health_render_from<H: RequestHandler + Send + Sync + 'static>(handler: Arc<H>) -> RenderFn {
    Arc::new(move || match handler.dispatch_request(Request::Health) {
        Dispatch::One(Response::Health(health)) => render_health(&health),
        _ => "ready false\nlive false\n".to_string(),
    })
}

/// Binds the `--health-addr` probe listener, if asked for.
fn bind_health(addr: Option<&str>, render: RenderFn) -> Result<Option<MetricsServer>, String> {
    let Some(addr) = addr else { return Ok(None) };
    let server = MetricsServer::bind(addr, render)
        .map_err(|e| format!("cannot bind health endpoint {addr}: {e}"))?;
    println!("health probes on http://{}/health", server.local_addr());
    Ok(Some(server))
}

/// One Table 1 relation: its name plus two `(coords, score)` rows.
type Table1Relation = (&'static str, [([f64; 2], f64); 2]);

/// The paper's Table 1 relations — the single source for every `--table1`
/// preload path (standalone and coordinator).
const TABLE1: [Table1Relation; 3] = [
    ("R1", [([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
    ("R2", [([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
    ("R3", [([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
];

/// Preloads Table 1 through whatever dispatch path the role uses (the
/// coordinator must register through its replication path, not directly).
fn preload_table1(dispatch: impl Fn(Request) -> Response) -> Result<(), String> {
    for (name, rows) in TABLE1 {
        let response = dispatch(Request::RegisterRelation {
            name: name.to_string(),
            tuples: rows
                .iter()
                .map(|(x, s)| TupleData::new(x.to_vec(), *s))
                .collect(),
        });
        if let Response::Error(e) = response {
            return Err(format!("table1 preload of {name} failed: {e}"));
        }
    }
    println!("preloaded Table 1 relations: R1, R2, R3");
    Ok(())
}

fn build_session(options: &Options) -> Result<Arc<Session>, String> {
    let engine = build_engine(options);
    let session = Arc::new(Session::new(engine));
    if options.table1 {
        preload_table1(|request| session.handle(request))?;
    }
    Ok(session)
}

/// Wraps `handler` with the standing-query front-end: a
/// [`SubscriptionManager`] re-evaluating over `engine`, which must be the
/// same engine the handler commits mutations through — that is what makes
/// committed mutations wake the manager's observer. On a coordinator the
/// engine carries the cluster backend, so re-evaluations execute
/// distributed (with replica failover) exactly like client queries.
fn with_subscriptions<H: prj_engine::RequestHandler>(
    handler: Arc<H>,
    engine: &Arc<prj_engine::Engine>,
    max_subscriptions: usize,
) -> (Arc<Subscribing<H>>, Arc<SubscriptionManager>) {
    let manager = Arc::new(SubscriptionManager::new(
        Session::new(Arc::clone(engine)),
        max_subscriptions,
    ));
    (
        Arc::new(Subscribing::new(handler, Arc::clone(&manager))),
        manager,
    )
}

fn topology_from(options: &Options) -> Result<ClusterTopology, String> {
    match &options.topology {
        Some(path) => {
            let topology = ClusterTopology::from_file(std::path::Path::new(path))
                .map_err(|e| e.to_string())?;
            if !options.workers.is_empty() {
                return Err("--topology and --workers are mutually exclusive".to_string());
            }
            Ok(topology)
        }
        None => {
            ClusterTopology::new(options.workers.clone(), options.shards).map_err(|e| e.to_string())
        }
    }
}

/// Boots the server on an ephemeral port and runs one full client
/// round-trip against it: register → topk → append → topk (invalidated) →
/// stats. Exits non-zero on any mismatch, which makes it a cheap CI smoke
/// test of the whole binary.
fn self_check(options: &Options) -> Result<(), String> {
    let session = build_session(options)?;
    let engine = Arc::clone(session.engine());
    let (handler, _manager) = with_subscriptions(session, &engine, options.max_subscriptions);
    let server = Server::bind("127.0.0.1:0", handler).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let mut client = ApiClient::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    client
        .negotiate()
        .map_err(|e| format!("negotiate failed: {e}"))?;

    let hotels_id = match client
        .call(&Request::RegisterRelation {
            name: "hotels".to_string(),
            tuples: vec![
                TupleData::new([0.0, -0.5], 0.5),
                TupleData::new([0.0, 1.0], 1.0),
            ],
        })
        .map_err(|e| format!("register failed: {e}"))?
    {
        Response::Registered { id, .. } => id,
        other => return Err(format!("unexpected register response: {other:?}")),
    };
    let (rows, from_cache) = client
        .top_k(QueryRequest::new(vec!["hotels".into()], [0.0, 0.0]).k(1))
        .map_err(|e| format!("topk failed: {e}"))?;
    if rows.len() != 1 || from_cache {
        return Err(format!(
            "unexpected cold topk: {rows:?} cached={from_cache}"
        ));
    }
    client
        .call(&Request::AppendTuples {
            relation: "hotels".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        })
        .map_err(|e| format!("append failed: {e}"))?;
    let (rows, from_cache) = client
        .top_k(QueryRequest::new(vec!["hotels".into()], [0.0, 0.0]).k(1))
        .map_err(|e| format!("post-append topk failed: {e}"))?;
    if from_cache || rows[0].tuples != vec![(hotels_id, 2)] {
        return Err(format!(
            "append was not observed: {rows:?} cached={from_cache}"
        ));
    }
    let stats = client.stats().map_err(|e| format!("stats failed: {e}"))?;
    let expected_relations = if options.table1 { 4 } else { 1 };
    if stats.queries != 2 || stats.relations != expected_relations {
        return Err(format!("unexpected stats: {stats:?}"));
    }
    if stats.shards != options.shards {
        return Err(format!(
            "engine reports {} shards, expected {}",
            stats.shards, options.shards
        ));
    }
    if stats.shard_depths.iter().sum::<u64>() != stats.total_sum_depths {
        return Err(format!(
            "per-shard depths {:?} do not add up to sumDepths {}",
            stats.shard_depths, stats.total_sum_depths
        ));
    }
    // Standing-query leg: subscribe, mutate, receive the push on the same
    // connection, and replay the delivered events over the acked baseline —
    // the replayed view must be bit-identical to a fresh top-K.
    let sub_query = || QueryRequest::new(vec!["hotels".into()], [0.0, 0.0]).k(2);
    let (sub_id, baseline, _algo) = client
        .subscribe(sub_query())
        .map_err(|e| format!("subscribe failed: {e}"))?;
    client
        .call(&Request::AppendTuples {
            relation: "hotels".into(),
            tuples: vec![TupleData::new([0.05, 0.0], 1.0)],
        })
        .map_err(|e| format!("subscribed append failed: {e}"))?;
    let notification = client
        .wait_notification(Duration::from_secs(10))
        .map_err(|e| format!("notification read failed: {e}"))?
        .ok_or("no notification arrived within 10s of the append")?;
    if notification.id != sub_id || notification.fin.is_some() {
        return Err(format!("unexpected notification: {notification:?}"));
    }
    let view = apply_events(&baseline, &notification.events, notification.total)
        .map_err(|e| format!("event replay failed: {e}"))?;
    let (fresh, _) = client
        .top_k(sub_query())
        .map_err(|e| format!("fresh topk failed: {e}"))?;
    if view != fresh {
        return Err(format!("replayed view {view:?} != fresh top-K {fresh:?}"));
    }
    client
        .unsubscribe(sub_id)
        .map_err(|e| format!("unsubscribe failed: {e}"))?;
    // Delta-lane leg (`--delta-threshold N --self-check`): the appends above
    // landed in shard deltas; force the fold and prove the query crossed a
    // real compaction without changing its bits.
    if options.delta_threshold > 0 {
        let (pre, _) = client
            .top_k(sub_query())
            .map_err(|e| format!("pre-compaction topk failed: {e}"))?;
        let compactor = engine
            .compactor()
            .ok_or("delta threshold set but the engine spawned no compactor")?;
        compactor.step();
        if engine.catalog().delta_tuples_total() != 0 {
            return Err("compactor step left tuples in shard deltas".to_string());
        }
        let folded = engine.obs().compactions_total().get();
        if folded == 0 {
            return Err("self-check never crossed a compaction".to_string());
        }
        let (post, _) = client
            .top_k(sub_query())
            .map_err(|e| format!("post-compaction topk failed: {e}"))?;
        if post != pre {
            return Err(format!(
                "compaction changed query results: {pre:?} -> {post:?}"
            ));
        }
        println!("self-check: delta lane folded {folded} shard deltas, results unchanged");
    }
    server.shutdown();
    println!(
        "self-check ok: served {} queries on {addr} (standing-query leg replayed exactly)",
        stats.queries
    );
    Ok(())
}

/// One blocking HTTP GET against a probe/exposition endpoint; returns the
/// body of a 200.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("{path} connect: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: prj\r\n\r\n").as_bytes())
        .map_err(|e| format!("{path} request: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("{path} read: {e}"))?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path} response has no body"))?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("{path} fetch was not a 200: {head:?}"));
    }
    Ok(body.to_string())
}

/// Scrapes `addr` once and validates the exposition shape: an HTTP 200, a
/// non-empty body, and every non-comment line parsing as
/// `name[{labels}] value` with a float value. Returns the body for
/// series-level checks.
fn scrape_metrics(addr: std::net::SocketAddr) -> Result<String, String> {
    let body = http_get(addr, "/metrics")?;
    if body.trim().is_empty() {
        return Err("metrics exposition is empty".to_string());
    }
    for line in body.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed exposition line {line:?}"))?;
        if series.is_empty() {
            return Err(format!("malformed exposition line {line:?}"));
        }
        value
            .parse::<f64>()
            .map_err(|_| format!("non-numeric value in exposition line {line:?}"))?;
    }
    Ok(body)
}

/// Sum of every series value whose `name{labels}` part starts with
/// `prefix` (summing collapses the per-instance splits).
fn metric_total(body: &str, prefix: &str) -> f64 {
    body.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit_once(' '))
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .sum()
}

fn spawn_worker(shards: usize) -> Result<prj_cluster::SpawnedWorker, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    prj_cluster::spawn_worker_process(&exe, shards, 2)
}

/// Spawns `n` worker processes on loopback, drives a coordinator through a
/// register → query → append → query round-trip verified against a local
/// single-process engine, then kills a worker and checks the failure
/// semantics: exact completion on a surviving worker, or (with one worker)
/// a typed error — never a truncated result.
fn cluster_self_check(options: &Options, n: usize) -> Result<(), String> {
    if n == 0 {
        return Err("--cluster-self-check needs at least one worker".to_string());
    }
    let shards = options.shards.max(2);
    println!("cluster-self-check: spawning {n} workers (shards={shards})");
    let workers: Vec<prj_cluster::SpawnedWorker> = (0..n)
        .map(|_| spawn_worker(shards))
        .collect::<Result<_, _>>()?;
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    println!("cluster-self-check: workers on {addrs:?}");

    let topology = ClusterTopology::new(addrs, shards).map_err(|e| e.to_string())?;
    let coordinator = Arc::new(
        Coordinator::builder(topology)
            .threads(2)
            .build()
            .map_err(|e| format!("coordinator bootstrap failed: {e}"))?,
    );

    // A single-process reference engine over the same data.
    let reference = Session::new(Arc::new(
        EngineBuilder::default().threads(2).shards(shards).build(),
    ));

    let dataset: Vec<(String, Vec<TupleData>)> = (0..2)
        .map(|rel| {
            let tuples = (0..40)
                .map(|i| {
                    let x = ((i * 37 + rel * 11) % 100) as f64 / 10.0 - 5.0;
                    let y = ((i * 53 + rel * 7) % 100) as f64 / 10.0 - 5.0;
                    TupleData::new([x, y], ((i % 10) as f64 + 1.0) / 10.0)
                })
                .collect();
            (format!("rel{rel}"), tuples)
        })
        .collect();
    for (name, tuples) in &dataset {
        for handler in [
            coordinator.dispatch_one(Request::RegisterRelation {
                name: name.clone(),
                tuples: tuples.clone(),
            }),
            reference.handle(Request::RegisterRelation {
                name: name.clone(),
                tuples: tuples.clone(),
            }),
        ] {
            if let Response::Error(e) = handler {
                return Err(format!("register {name} failed: {e}"));
            }
        }
    }

    let query =
        || Request::TopK(QueryRequest::new(vec!["rel0".into(), "rel1".into()], [0.3, -0.8]).k(5));
    let expect_same = |tag: &str, a: Response, b: Response| -> Result<(), String> {
        match (a, b) {
            (Response::Results { rows: lhs, .. }, Response::Results { rows: rhs, .. }) => {
                if lhs != rhs {
                    return Err(format!("{tag}: cluster {lhs:?} != local {rhs:?}"));
                }
                Ok(())
            }
            (a, b) => Err(format!("{tag}: unexpected responses {a:?} / {b:?}")),
        }
    };
    expect_same(
        "cold query",
        coordinator.dispatch_one(query()),
        reference.handle(query()),
    )?;

    let append = Request::AppendTuples {
        relation: "rel0".into(),
        tuples: vec![TupleData::new([0.3, -0.8], 0.95)],
    };
    if let Response::Error(e) = coordinator.dispatch_one(append.clone()) {
        return Err(format!("replicated append failed: {e}"));
    }
    if let Response::Error(e) = reference.handle(append) {
        return Err(format!("local append failed: {e}"));
    }
    expect_same(
        "post-append query",
        coordinator.dispatch_one(query()),
        reference.handle(query()),
    )?;

    // Standing-query leg: serve the coordinator over TCP through the
    // subscription front-end, subscribe a client, replicate a mutation
    // through the same coordinator, and check the pushed change events
    // replay the old top-K into exactly the fresh answer.
    let (front, manager) = with_subscriptions(
        Arc::clone(&coordinator),
        coordinator.engine(),
        options.max_subscriptions,
    );
    let sub_server =
        Server::bind("127.0.0.1:0", front).map_err(|e| format!("subscription bind: {e}"))?;
    let mut sub_client = ApiClient::connect(sub_server.local_addr())
        .map_err(|e| format!("subscription connect: {e}"))?;
    sub_client
        .negotiate()
        .map_err(|e| format!("subscription negotiate: {e}"))?;
    let (sub_id, baseline, _algo) = sub_client
        .subscribe(QueryRequest::new(vec!["rel0".into(), "rel1".into()], [0.3, -0.8]).k(5))
        .map_err(|e| format!("subscribe failed: {e}"))?;
    let sub_append = Request::AppendTuples {
        relation: "rel1".into(),
        tuples: vec![TupleData::new([0.3, -0.8], 0.9)],
    };
    if let Response::Error(e) = coordinator.dispatch_one(sub_append.clone()) {
        return Err(format!("subscribed append failed: {e}"));
    }
    if let Response::Error(e) = reference.handle(sub_append) {
        return Err(format!("local subscribed append failed: {e}"));
    }
    let notification = sub_client
        .wait_notification(Duration::from_secs(10))
        .map_err(|e| format!("notification read failed: {e}"))?
        .ok_or("no notification within 10s of the replicated append")?;
    if notification.id != sub_id || notification.fin.is_some() {
        return Err(format!("unexpected notification {notification:?}"));
    }
    let view = apply_events(&baseline, &notification.events, notification.total)
        .map_err(|e| format!("event replay failed: {e}"))?;
    let Response::Results { rows: fresh, .. } = reference.handle(query()) else {
        return Err("reference engine failed after subscribed append".to_string());
    };
    if view != fresh {
        return Err(format!(
            "replayed subscription view diverged: {view:?} != {fresh:?}"
        ));
    }
    sub_client
        .unsubscribe(sub_id)
        .map_err(|e| format!("unsubscribe failed: {e}"))?;
    manager.quiesce();
    println!("cluster-self-check: standing query notified over TCP and replayed exactly");

    // Observability leg: serve the coordinator's merged metrics on an
    // ephemeral endpoint and scrape it the way a Prometheus (or the CI
    // job) would, then assert the exposition is well-formed and the query
    // work above actually shows up in the series.
    let metrics_coordinator = Arc::clone(&coordinator);
    let render: RenderFn = Arc::new(move || {
        prj_obs::render_prometheus(&prj_engine::obs::from_api_samples(
            &metrics_coordinator.metrics_report().samples,
        ))
    });
    let metrics =
        MetricsServer::bind("127.0.0.1:0", render).map_err(|e| format!("metrics bind: {e}"))?;
    let body = scrape_metrics(metrics.local_addr())?;
    for (series, minimum) in [
        (
            "prj_query_latency_seconds_count{instance=\"coordinator\"}",
            1.0,
        ),
        ("prj_queries_total", 2.0),
        ("prj_cache_misses_total", 1.0),
        ("prj_remote_units_total", 1.0),
        ("prj_relation_depth_total", 1.0),
        ("prj_subscription_notifications_total", 1.0),
        ("prj_subscription_reexecuted_units_total", 1.0),
    ] {
        if metric_total(&body, series) < minimum {
            return Err(format!(
                "metrics exposition: {series} never reached {minimum}:\n{body}"
            ));
        }
    }
    if !body.contains("instance=\"worker0\"") {
        return Err("metrics exposition lacks worker instance series".to_string());
    }
    // The active-subscription gauge must be exposed even when it reads 0
    // (the leg above unsubscribed) — absence would mean the scrape misses
    // the standing-query series entirely.
    if !body.contains("prj_subscriptions_active") {
        return Err("metrics exposition lacks prj_subscriptions_active".to_string());
    }
    println!(
        "cluster-self-check: metrics endpoint exposes {} series lines",
        body.lines().filter(|l| !l.starts_with('#')).count()
    );
    metrics.shutdown();

    // EXPLAIN/ANALYZE leg: profile the distributed query at a point the
    // result cache has never seen, and check the profile — one remote unit
    // whose depths are the reported sumDepths, with a bound-convergence
    // trajectory — and that the analyzed rows are bit-identical to the
    // plain top-K of the same query.
    let analyze_query = QueryRequest::new(vec!["rel0".into(), "rel1".into()], [1.7, 0.6]).k(5);
    let report = match coordinator.dispatch_one(Request::Explain {
        query: analyze_query.clone(),
        analyze: true,
    }) {
        Response::Explain(report) => report,
        other => return Err(format!("explain analyze failed: {other:?}")),
    };
    let analyzed = report
        .analyzed
        .ok_or("explain analyze returned no execution profile")?;
    let [unit] = analyzed.units.as_slice() else {
        return Err(format!(
            "cluster analyze profiled {} units, expected one",
            analyzed.units.len()
        ));
    };
    if unit.depths != analyzed.total_sum_depths {
        return Err(format!(
            "analyze unit depths {} != profile total {}",
            unit.depths, analyzed.total_sum_depths
        ));
    }
    if unit.trajectory.is_empty() {
        return Err("the analyzed unit has no bound-convergence trajectory".to_string());
    }
    if !unit.remote {
        return Err("cluster analyze ran its unit locally".to_string());
    }
    let plain = match coordinator.dispatch_one(Request::TopK(analyze_query)) {
        Response::Results { rows, .. } => rows,
        other => return Err(format!("plain top-K after analyze failed: {other:?}")),
    };
    if analyzed.rows.len() != plain.len()
        || analyzed
            .rows
            .iter()
            .zip(plain.iter())
            .any(|(a, b)| a.tuples != b.tuples || a.score.to_bits() != b.score.to_bits())
    {
        return Err(format!(
            "analyzed rows diverged from the plain top-K: {:?} != {plain:?}",
            analyzed.rows
        ));
    }
    println!(
        "cluster-self-check: explain analyze profiled one remote unit ({} depths), \
         rows bit-identical",
        analyzed.total_sum_depths
    );

    // Health leg: the typed verb from the coordinator's vantage, and the
    // same report over the HTTP probe endpoint.
    let health = match coordinator.dispatch_one(Request::Health) {
        Response::Health(health) => health,
        other => return Err(format!("health verb failed: {other:?}")),
    };
    if health.role != "coordinator" || !health.ready || !health.live {
        return Err(format!("unhealthy coordinator report: {health:?}"));
    }
    if health.workers.len() != n || health.workers.iter().any(|w| !w.reachable) {
        return Err(format!("health misreports the worker fleet: {health:?}"));
    }
    if health.replication_lag_micros == 0 {
        return Err("replicated mutations left no replication lag reading".to_string());
    }
    let probe = MetricsServer::bind("127.0.0.1:0", health_render_from(Arc::clone(&coordinator)))
        .map_err(|e| format!("health bind: {e}"))?;
    let health_body = http_get(probe.local_addr(), "/health")?;
    if !health_body.starts_with("ready true") || !health_body.contains("role coordinator") {
        return Err(format!("unexpected health probe body:\n{health_body}"));
    }
    probe.shutdown();
    println!("cluster-self-check: health verb and HTTP probe agree (fleet ready)");

    // Kill the first worker and re-query — at a *fresh* query point, so
    // the answer cannot come out of the result cache and must execute.
    // A surviving worker must answer exactly; with no survivor, the only
    // acceptable outcome is a typed error.
    let mut workers = workers;
    drop(workers.remove(0));
    println!("cluster-self-check: killed worker 0");
    let fresh_query =
        || Request::TopK(QueryRequest::new(vec!["rel0".into(), "rel1".into()], [-1.1, 2.4]).k(5));
    match coordinator.dispatch_one(fresh_query()) {
        Response::Results { rows, .. } => {
            let Response::Results { rows: expected, .. } = reference.handle(fresh_query()) else {
                return Err("reference engine failed".to_string());
            };
            if rows != expected {
                return Err("post-kill results diverged from the local engine".to_string());
            }
            if n == 1 {
                return Err("single-worker cluster answered after its worker died".to_string());
            }
            println!("cluster-self-check: post-kill query served exactly by a surviving worker");
        }
        Response::Error(e) if n > 1 => {
            return Err(format!(
                "post-kill query failed ({e}) although a worker survived"
            ));
        }
        Response::Error(e)
            if matches!(
                e.kind,
                ErrorKind::WorkerUnavailable | ErrorKind::Degraded | ErrorKind::Io
            ) =>
        {
            println!(
                "cluster-self-check: post-kill query failed typed ({})",
                e.kind.code()
            );
        }
        other => return Err(format!("post-kill query: unexpected response {other:?}")),
    }
    println!("cluster-self-check ok");
    Ok(())
}

fn serve(options: &Options) -> Result<(), String> {
    let role = if options.worker {
        "worker"
    } else if options.coordinator {
        "coordinator"
    } else {
        "server"
    };
    let (server, threads, render, health_render) = if options.worker {
        let engine = build_engine(options);
        let threads = engine.threads();
        let render_engine = Arc::clone(&engine);
        let render: RenderFn = Arc::new(move || render_engine.metrics_render());
        let worker = Arc::new(WorkerSession::new(engine));
        let health_render = health_render_from(Arc::clone(&worker));
        (
            Server::bind(&options.addr, worker)
                .map_err(|e| format!("cannot bind {}: {e}", options.addr))?,
            threads,
            render,
            health_render,
        )
    } else if options.coordinator {
        let topology = topology_from(options)?;
        let mut builder = Coordinator::builder(topology)
            .cache_capacity(options.cache)
            .slow_query_threshold(options.slow_query_ms.map(Duration::from_millis))
            .delta_threshold(options.delta_threshold);
        if let Some(threads) = options.threads {
            builder = builder.threads(threads);
        }
        let coordinator = Arc::new(
            builder
                .build()
                .map_err(|e| format!("coordinator bootstrap failed: {e}"))?,
        );
        let threads = coordinator.engine().threads();
        if options.table1 {
            // Preload through the coordinator so the fleet replicates it.
            preload_table1(|request| coordinator.dispatch_one(request))?;
        }
        let render_coordinator = Arc::clone(&coordinator);
        let render: RenderFn = Arc::new(move || {
            prj_obs::render_prometheus(&prj_engine::obs::from_api_samples(
                &render_coordinator.metrics_report().samples,
            ))
        });
        // Standing queries re-evaluate through the coordinator's own engine
        // (cluster backend attached), so they execute distributed.
        let engine = Arc::clone(coordinator.engine());
        let (handler, _manager) =
            with_subscriptions(coordinator, &engine, options.max_subscriptions);
        let health_render = health_render_from(Arc::clone(&handler));
        (
            Server::bind(&options.addr, handler)
                .map_err(|e| format!("cannot bind {}: {e}", options.addr))?,
            threads,
            render,
            health_render,
        )
    } else {
        let session = build_session(options)?;
        let threads = session.engine().threads();
        let engine = Arc::clone(session.engine());
        let render_engine = Arc::clone(&engine);
        let render: RenderFn = Arc::new(move || render_engine.metrics_render());
        let (handler, _manager) = with_subscriptions(session, &engine, options.max_subscriptions);
        let health_render = health_render_from(Arc::clone(&handler));
        (
            Server::bind(&options.addr, handler)
                .map_err(|e| format!("cannot bind {}: {e}", options.addr))?,
            threads,
            render,
            health_render,
        )
    };
    let _metrics = bind_metrics(options.metrics_addr.as_deref(), render)?;
    let _health = bind_health(options.health_addr.as_deref(), health_render)?;
    let addr = server.local_addr();
    println!(
        "prj-serve {role} listening on {addr} (prj/{} line protocol, {} run permits)",
        prj_api::PROTOCOL_VERSION,
        threads,
    );
    println!(
        "try: printf 'prj/{} stats\\n' | nc {} {}",
        prj_api::PROTOCOL_VERSION,
        addr.ip(),
        addr.port()
    );
    loop {
        std::thread::park();
    }
}

fn main() {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("prj-serve: {e}");
            std::process::exit(2);
        }
    };
    if options.self_check {
        if let Err(e) = self_check(&options) {
            eprintln!("prj-serve self-check FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Some(n) = options.cluster_self_check {
        if let Err(e) = cluster_self_check(&options, n) {
            eprintln!("prj-serve cluster-self-check FAILED: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = serve(&options) {
        eprintln!("prj-serve: {e}");
        std::process::exit(1);
    }
}
