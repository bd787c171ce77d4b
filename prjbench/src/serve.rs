//! The system under test: an engine with the shipped defaults (threads =
//! available parallelism, caches and span tracing on) behind the standalone
//! front-end `prj-serve` runs — a `Session` wrapped by `prj-sub`'s
//! `Subscribing` — on a loopback `prj_engine::Server`, loaded through one
//! `prj_api::ApiClient` connection.

use crate::data::{Workload, K};
use prj_api::{
    ApiClient, ClientConfig, ErrorKind, Notification, QueryRequest, RelationRef, Request, Response,
    ResultRow, TupleData,
};
use prj_engine::{Engine, EngineBuilder, Server, Session};
use prj_sub::{Subscribing, SubscriptionManager};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long one request may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// The workload's engine. `engine_tracing: false` turns the engine's own
/// span recording off (trace capacity 0); only the traced run does that.
/// A delta lane's background compactor is paused: the op sequence folds
/// the deltas itself (`data::WRITES_PER_FOLD`).
pub fn engine(workload: &Workload, engine_tracing: bool) -> Arc<Engine> {
    let builder = EngineBuilder::default()
        .shards(workload.shards)
        .delta_threshold(workload.delta_threshold);
    let builder = if engine_tracing {
        builder
    } else {
        builder.trace_capacity(0)
    };
    let engine = builder.build();
    if let Some(compactor) = engine.compactor() {
        compactor.pause();
    }
    Arc::new(engine)
}

/// The in-process request handler the server and the traced run share.
pub type Handler = Subscribing<Session>;

pub fn handler(engine: &Arc<Engine>) -> (Arc<Handler>, Arc<SubscriptionManager>) {
    let manager = Arc::new(SubscriptionManager::new(
        Session::new(Arc::clone(engine)),
        0,
    ));
    let session = Arc::new(Session::new(Arc::clone(engine)));
    (
        Arc::new(Subscribing::new(session, Arc::clone(&manager))),
        manager,
    )
}

pub fn register_requests(relations: &[Vec<TupleData>; 2]) -> [Request; 2] {
    [0, 1].map(|i| Request::RegisterRelation {
        name: format!("R{}", i + 1),
        tuples: relations[i].clone(),
    })
}

pub fn query(point: [f64; 2]) -> QueryRequest {
    QueryRequest::new(vec![RelationRef::Id(0), RelationRef::Id(1)], point.to_vec()).k(K)
}

/// A standing query and everything its feed delivered.
pub struct Subscription {
    pub id: u64,
    pub point: [f64; 2],
    pub baseline: Vec<ResultRow>,
    pub notes: Vec<Notification>,
}

/// One served engine with its client connection.
pub struct Served {
    pub engine: Arc<Engine>,
    pub manager: Arc<SubscriptionManager>,
    pub client: ApiClient,
    pub subs: Vec<Subscription>,
    server: Option<Server>,
}

pub fn connect(addr: std::net::SocketAddr) -> Result<ApiClient, String> {
    let mut client = ApiClient::connect_with(addr, &ClientConfig::with_timeouts(OP_TIMEOUT))
        .map_err(|e| format!("connect: {e}"))?;
    client.negotiate().map_err(|e| format!("negotiate: {e}"))?;
    Ok(client)
}

/// Binds the server, loads both relations through the API, and registers
/// one standing query per point. Returns the served system and its set-up
/// time, which excludes generating the inputs.
pub fn start(
    workload: &Workload,
    register: &[Request; 2],
    sub_points: &[[f64; 2]],
    engine_tracing: bool,
) -> Result<(Served, Duration), String> {
    let started = Instant::now();
    let engine = engine(workload, engine_tracing);
    let (handler, manager) = handler(&engine);
    let server = Server::bind("127.0.0.1:0", handler).map_err(|e| format!("bind: {e}"))?;
    let mut client = connect(server.local_addr())?;
    for (i, request) in register.iter().enumerate() {
        match client.call(request) {
            Ok(Response::Registered { id, .. }) if id == i => {}
            other => return Err(format!("register R{}: {other:?}", i + 1)),
        }
    }
    let mut subs = Vec::with_capacity(sub_points.len());
    for &point in sub_points {
        let (id, baseline, _) = client
            .subscribe(query(point))
            .map_err(|e| format!("subscribe: {e}"))?;
        subs.push(Subscription {
            id,
            point,
            baseline,
            notes: Vec::new(),
        });
    }
    let setup = started.elapsed();
    let served = Served {
        engine,
        manager,
        client,
        subs,
        server: Some(server),
    };
    Ok((served, setup))
}

impl Served {
    /// Replaces a connection that failed at the transport level: a timed
    /// out answer would otherwise be read as the next request's.
    pub fn reconnect(&mut self) -> Result<(), String> {
        let addr = self.server.as_ref().expect("server runs").local_addr();
        self.client = connect(addr)?;
        Ok(())
    }

    /// Files a pushed notification under its subscription.
    pub fn file(&mut self, note: Notification) {
        if let Some(sub) = self.subs.iter_mut().find(|s| s.id == note.id) {
            sub.notes.push(note);
        }
    }

    /// Waits until the notifier has processed every committed mutation and
    /// the feeds are drained onto the client.
    pub fn drain_notifications(&mut self) -> Result<(), String> {
        self.manager.quiesce();
        while let Some(note) = self
            .client
            .wait_notification(Duration::from_millis(200))
            .map_err(|e| format!("drain: {e}"))?
        {
            self.file(note);
        }
        Ok(())
    }

    /// Shuts the system down and waits until its engine is freed, so the
    /// next set-up starts from the same memory state.
    pub fn stop(self) {
        let engine = Arc::downgrade(&self.engine);
        drop(self);
        let started = Instant::now();
        while engine.strong_count() > 0 && started.elapsed() < OP_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // A subscribed connection's server thread joins its feed forwarders,
        // which only end once their subscriptions are gone.
        for sub in &self.subs {
            match self.client.unsubscribe(sub.id) {
                Err(e) if e.kind == ErrorKind::Io => break,
                _ => {}
            }
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
