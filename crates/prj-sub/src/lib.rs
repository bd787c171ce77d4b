//! # prj-sub — standing queries over the ProxRJ engine
//!
//! A *standing query* is a top-K query a client registers once
//! ([`prj_api::Request::Subscribe`]) and then stops polling: the server
//! re-evaluates it whenever a catalog mutation could have changed its
//! answer and pushes a [`prj_api::Notification`] of precise
//! [`prj_api::ChangeEvent`]s — who entered at which rank, who left, who
//! moved — instead of the full list. Replaying the events over the
//! previously delivered top-K reproduces a fresh [`prj_api::Request::TopK`]
//! answer **bit-identically** (scores compared by bits, not epsilon), which
//! is what the differential harness in this crate's tests asserts after
//! every mutation of randomized workloads.
//!
//! ## How re-evaluation stays incremental
//!
//! An append only adds tuples, so it can change a full top-K only through a
//! combination that holds one of the new tuples. Before re-running a
//! subscription the manager bounds every such combination in O(n·d) per
//! new tuple: the tuple's solo score `g(σ, δ(x, q), 0)` plus, for every
//! other member, the best term its relation allows anywhere,
//! `g(σ_max, 0, 0)` (the corner bound's). When that bound, lifted by a
//! relative 1e-9, is strictly below the delivered K-th score for every new
//! tuple and every position the relation takes in the join, the re-run
//! would return the delivered top-K unchanged, and it is skipped
//! (`prj_subscription_skipped_total`). The skip is exact; the argument is
//! on [`prj_core::scoring::solo_score`]. It needs a scoring that opts in
//! (Eq. 2 with `w_q, w_μ > 0`), new coordinates within
//! [`prj_core::scoring::SOLO_COORDINATE_LIMIT`], and a full delivered
//! top-K; anything else re-runs.
//!
//! The [`SubscriptionManager`] pins each subscription's plan at subscribe
//! time (the planner's choice is frozen into the stored [`QuerySpec`]), so
//! every re-execution replays the *same* plan. In process that is one unit
//! over the shards' merged views — a re-run costs what an unsharded re-run
//! costs. On a cluster coordinator the plan fans out into per-shard remote
//! units, and units over untouched shards hit the engine's unit cache: a
//! single-shard append to the driving relation of a 4-shard catalog
//! re-executes exactly one unit. Both are observable through the
//! `prj_subscription_reexecuted_units_total` counter. There is no
//! polling anywhere: the engine's [`MutationObserver`] hook wakes the
//! manager's notifier thread only when a mutation actually commits.
//!
//! ## Delivery guarantees
//!
//! * Per subscription, notifications carry a gapless 1-based `seq`; events
//!   within one notification are ordered (exits by old rank, then
//!   placements by new rank, then rescores) so replay is deterministic.
//! * A notification is only emitted from a *certified* merge: if a
//!   re-execution reports `hit_access_cap` (an uncertified, truncated
//!   answer), the wakeup is suppressed rather than risking a wrong diff.
//!   The subscription is then *dirty* (its delivered top-K may lag the
//!   data) and is re-run on every later append, never skipped, until a
//!   certified re-run clears it.
//! * A mutation that does not change the subscribed top-K is either
//!   skipped (the bound above rules it out, nothing re-runs) or suppressed
//!   (re-run, unchanged) — counted, never delivered: no no-op wakeups
//!   reach the client.
//! * Dropping a subscribed relation closes the feed with an all-`Exit`
//!   notification finalized `fin=drop`; a terminal re-execution failure
//!   (e.g. the worker fleet became unavailable) closes it `fin=error`.
//! * On a distributed coordinator, a re-execution racing replication sees
//!   `stale-epoch` from lagging replicas; the manager retries briefly
//!   (bounded) so the notification reflects the post-mutation epochs, and
//!   replica failover inside the engine's remote backend is preserved —
//!   a worker death mid-sequence degrades capacity, never exactness.
//!
//! Transport-wise, the [`Subscribing`] wrapper intercepts the
//! subscribe/unsubscribe verbs in front of any
//! [`prj_engine::RequestHandler`] (a plain [`Session`] or `prj-cluster`'s
//! coordinator) and returns [`Dispatch::Subscribed`], which the TCP
//! front-end turns into an ack line plus pushed `notify` lines multiplexed
//! onto the same connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use prj_api::{
    diff_top_k, ApiError, ChangeEvent, ErrorKind, Notification, QueryRequest, Request, Response,
    ResultRow,
};
use prj_core::bounds::lift;
use prj_core::scoring::{best_solo_score, solo_score};
use prj_engine::{
    to_row, Catalog, Dispatch, EngineError, MutationEvent, MutationKind, MutationObserver,
    QuerySpec, RequestHandler, Session,
};
use prj_obs::{Counter, Gauge, Histogram, SpanGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many times a re-execution retries a `stale-epoch` verdict before
/// closing the subscription with `fin=error`. Stale verdicts are transient
/// by construction — a replica answering mid-replication — so a short
/// bounded wait rides out the coordinator's replication round-trip.
const STALE_RETRIES: usize = 20;
const STALE_BACKOFF: Duration = Duration::from_millis(10);

enum Wake {
    /// A committed mutation plus its enqueue instant, so the notifier can
    /// report the full mutation→notify delay (queueing included).
    Mutation(MutationEvent, Instant),
    Shutdown,
}

/// The engine-side observer: forwards committed mutations into the
/// notifier thread's queue. Deliberately owns no manager state (only the
/// channel sender and the in-flight counter), so the engine holding it
/// forever cannot keep the manager alive.
struct Forwarder {
    tx: Sender<Wake>,
    pending: Arc<(Mutex<usize>, Condvar)>,
    queue_depth: Arc<Gauge>,
}

impl MutationObserver for Forwarder {
    fn mutation(&self, event: &MutationEvent) {
        let (lock, signal) = &*self.pending;
        {
            let mut pending = lock.lock().expect("pending lock");
            *pending += 1;
            self.queue_depth.set(*pending as f64);
        }
        if self
            .tx
            .send(Wake::Mutation(event.clone(), Instant::now()))
            .is_err()
        {
            // The manager is gone; undo the in-flight count so a stray
            // late quiesce cannot wedge.
            let mut pending = lock.lock().expect("pending lock");
            *pending -= 1;
            self.queue_depth.set(*pending as f64);
            if *pending == 0 {
                signal.notify_all();
            }
        }
    }
}

/// One registered standing query.
struct SubState {
    /// The pinned spec: the subscribe-time plan's algorithm is frozen in,
    /// so every re-execution replays identical per-shard units and the
    /// unit cache absorbs the untouched shards.
    spec: QuerySpec,
    /// The last *delivered* certified top-K — the baseline the next diff
    /// (and the client's replay) runs against.
    last_rows: Vec<ResultRow>,
    /// Last delivered sequence number (notifications are 1-based,
    /// gapless).
    seq: u64,
    /// Set when the baseline or a re-run came back uncertified, so
    /// `last_rows` may lag the data: the subscription is never skipped
    /// until a certified re-run clears the flag.
    dirty: bool,
    /// The push feed; the transport forwards each `Response::Notify` to
    /// the client. A failed send means the connection is gone and the
    /// subscription self-unsubscribes.
    feed: Sender<Response>,
}

struct Inner {
    session: Session,
    subs: Mutex<HashMap<u64, SubState>>,
    next_id: AtomicU64,
    pending: Arc<(Mutex<usize>, Condvar)>,
    max_subscriptions: usize,
    active: Arc<Gauge>,
    notifications: Arc<Counter>,
    reexecuted: Arc<Counter>,
    suppressed: Arc<Counter>,
    skipped: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    notify_delay: Arc<Histogram>,
}

/// Owns every standing query registered against one engine; see the crate
/// docs. Construct with [`SubscriptionManager::new`], share behind an
/// [`Arc`], and put a [`Subscribing`] wrapper in front of the request
/// handler to serve the wire verbs.
pub struct SubscriptionManager {
    inner: Arc<Inner>,
    tx: Sender<Wake>,
    notifier: Mutex<Option<JoinHandle<()>>>,
}

impl SubscriptionManager {
    /// Creates a manager over `session`'s engine and registers its
    /// mutation hook. `session` supplies the defaults (`k`, scoring,
    /// access kind) a subscription's query is resolved under — hand in one
    /// configured like the serving session. `max_subscriptions` bounds the
    /// standing-query population (`0` = unlimited); the limit answers with
    /// a typed `degraded` error, never a dropped connection.
    pub fn new(session: Session, max_subscriptions: usize) -> SubscriptionManager {
        let registry = session.engine().obs().registry();
        let inner = Arc::new(Inner {
            active: registry.gauge("prj_subscriptions_active", &[]),
            notifications: registry.counter("prj_subscription_notifications_total", &[]),
            reexecuted: registry.counter("prj_subscription_reexecuted_units_total", &[]),
            suppressed: registry.counter("prj_subscription_suppressed_total", &[]),
            skipped: registry.counter("prj_subscription_skipped_total", &[]),
            queue_depth: registry.gauge("prj_sub_queue_depth", &[]),
            notify_delay: registry.histogram("prj_sub_notify_delay_us", &[]),
            session,
            subs: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            pending: Arc::new((Mutex::new(0), Condvar::new())),
            max_subscriptions,
        });
        let (tx, rx) = channel();
        inner
            .session
            .engine()
            .add_mutation_observer(Arc::new(Forwarder {
                tx: tx.clone(),
                pending: Arc::clone(&inner.pending),
                queue_depth: Arc::clone(&inner.queue_depth),
            }));
        let notifier_inner = Arc::clone(&inner);
        let notifier = std::thread::Builder::new()
            .name("prj-sub-notify".to_string())
            .spawn(move || notifier_loop(&notifier_inner, rx))
            .expect("spawn notifier thread");
        SubscriptionManager {
            inner,
            tx,
            notifier: Mutex::new(Some(notifier)),
        }
    }

    /// The session subscriptions resolve their queries through.
    pub fn session(&self) -> &Session {
        &self.inner.session
    }

    /// Registers a standing query: runs it once (through the engine's
    /// normal path — distributed on a coordinator), pins the chosen plan,
    /// and returns [`Dispatch::Subscribed`] carrying the ack (id +
    /// baseline top-K) and the push feed.
    ///
    /// # Errors
    /// Whatever the initial execution reports, or `degraded` at the
    /// subscription limit.
    pub fn subscribe(&self, query: QueryRequest) -> Result<Dispatch, ApiError> {
        // The subscriptions lock is held across the baseline query *and*
        // the map insertion: a mutation committing during the baseline run
        // queues its wakeup behind this lock, so it re-evaluates after the
        // subscription exists — the client can never be left holding a
        // baseline that silently predates a mutation.
        let mut subs = self.inner.subs.lock().expect("subscriptions lock");
        if self.inner.max_subscriptions != 0 && subs.len() >= self.inner.max_subscriptions {
            return Err(ApiError::new(
                ErrorKind::Degraded,
                format!(
                    "subscription limit reached ({}); unsubscribe or raise \
                     --max-subscriptions",
                    self.inner.max_subscriptions
                ),
            ));
        }
        let mut spec = self.inner.session.build_query_spec(query)?;
        let result = self
            .inner
            .session
            .engine()
            .query(spec.clone())
            .map_err(ApiError::from)?;
        let algorithm = result.plan().algorithm;
        let dirty = result.result().metrics.hit_access_cap;
        // Pin the plan and detach the subscribe-time trace: re-executions
        // belong to the *mutation's* trace, not the registration's.
        spec.algorithm = Some(algorithm);
        spec.trace = None;
        let rows: Vec<ResultRow> = result.combinations().iter().map(to_row).collect();
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let (feed_tx, feed_rx) = channel();
        subs.insert(
            id,
            SubState {
                spec,
                last_rows: rows.clone(),
                seq: 0,
                dirty,
                feed: feed_tx,
            },
        );
        self.inner.active.set(subs.len() as f64);
        Ok(Dispatch::Subscribed {
            ack: Response::Subscribed {
                id,
                algorithm: algorithm.id().to_string(),
                rows,
            },
            feed: feed_rx,
        })
    }

    /// Cancels a standing query. Dropping the feed sender is what closes
    /// the transport's forwarder; no final notification is sent (the
    /// `Unsubscribed` ack is the close).
    pub fn unsubscribe(&self, id: u64) -> Response {
        let mut subs = self.inner.subs.lock().expect("subscriptions lock");
        match subs.remove(&id) {
            Some(_) => {
                self.inner.active.set(subs.len() as f64);
                Response::Unsubscribed { id }
            }
            None => Response::Error(ApiError::new(
                ErrorKind::InvalidQuery,
                format!("no subscription with id {id}"),
            )),
        }
    }

    /// Blocks until every mutation committed so far has been fully
    /// processed (re-executions run, notifications handed to the feeds).
    /// This is the synchronization point tests and benchmarks measure
    /// mutation→notify latency against; it gives up after ~60 s rather
    /// than wedging a suite on a bug.
    pub fn quiesce(&self) {
        let (lock, signal) = &*self.inner.pending;
        let mut pending = lock.lock().expect("pending lock");
        for _ in 0..60 {
            if *pending == 0 {
                return;
            }
            let (next, _) = signal
                .wait_timeout(pending, Duration::from_secs(1))
                .expect("pending lock");
            pending = next;
        }
    }

    /// Live subscription count.
    pub fn active(&self) -> usize {
        self.inner.subs.lock().expect("subscriptions lock").len()
    }

    /// Mutations accepted but not yet fully processed by the notifier —
    /// the health model's backpressure signal for the push pipeline.
    pub fn queue_depth(&self) -> usize {
        *self.inner.pending.0.lock().expect("pending lock")
    }

    /// Notifications delivered (including `fin` closers).
    pub fn notifications_total(&self) -> u64 {
        self.inner.notifications.get()
    }

    /// Execution units actually re-run by re-evaluations — the white-box
    /// incrementality measure (unit-cache hits on untouched shards are
    /// excluded).
    pub fn reexecuted_units_total(&self) -> u64 {
        self.inner.reexecuted.get()
    }

    /// Wakeups that produced no notification: the re-evaluated top-K was
    /// unchanged, or the merge came back uncertified.
    pub fn suppressed_total(&self) -> u64 {
        self.inner.suppressed.get()
    }

    /// Wakeups answered without a re-run: the appended tuples provably
    /// cannot enter the delivered top-K (see the crate docs).
    pub fn skipped_total(&self) -> u64 {
        self.inner.skipped.get()
    }
}

impl Drop for SubscriptionManager {
    fn drop(&mut self) {
        let _ = self.tx.send(Wake::Shutdown);
        if let Some(handle) = self.notifier.lock().expect("notifier lock").take() {
            let _ = handle.join();
        }
    }
}

fn notifier_loop(inner: &Arc<Inner>, rx: Receiver<Wake>) {
    while let Ok(wake) = rx.recv() {
        match wake {
            Wake::Shutdown => break,
            Wake::Mutation(event, enqueued) => {
                process_mutation(inner, &event);
                // Delay covers queueing + every affected re-execution: the
                // end-to-end push-pipeline latency for this mutation.
                inner
                    .notify_delay
                    .record_micros(enqueued.elapsed().as_micros() as u64);
                let (lock, signal) = &*inner.pending;
                let mut pending = lock.lock().expect("pending lock");
                *pending -= 1;
                inner.queue_depth.set(*pending as f64);
                if *pending == 0 {
                    signal.notify_all();
                }
            }
        }
    }
}

/// Re-evaluates every subscription the mutation could affect, skipping
/// those an append provably cannot change. Runs on the single notifier
/// thread under the subscriptions lock, so per-subscription sequence
/// numbers are gapless and notifications are totally ordered.
fn process_mutation(inner: &Arc<Inner>, event: &MutationEvent) {
    let engine = inner.session.engine();
    let recorder = Arc::clone(engine.recorder());
    let mut subs = inner.subs.lock().expect("subscriptions lock");
    let affected: Vec<u64> = subs
        .iter()
        .filter(|(_, s)| s.spec.relations.contains(&event.outcome.id))
        .map(|(&id, _)| id)
        .collect();
    for id in affected {
        let state = subs.get_mut(&id).expect("affected subscription");
        // The notify span parents under the *mutation's* span: the feed
        // update shows up in the trace of the ingest that caused it.
        let mut span = event
            .trace
            .map(|(trace, parent)| recorder.child(trace, parent, "notify"));
        if let Some(span) = span.as_mut() {
            span.attr("subscription", id);
        }
        let closed = match event.kind {
            MutationKind::Drop => close_on_drop(inner, id, state, span),
            MutationKind::Append if append_cannot_change(state, event, engine.catalog()) => {
                inner.skipped.inc();
                if let Some(span) = span.as_mut() {
                    span.attr("skipped", true);
                }
                false
            }
            MutationKind::Append => refresh(inner, id, state, span),
        };
        if closed {
            subs.remove(&id);
            inner.active.set(subs.len() as f64);
        }
    }
}

/// `true` when no combination holding one of the tuples `event` appended
/// can reach the subscription's delivered K-th score, so a re-run would
/// return the delivered top-K unchanged. For every new tuple and every
/// position the relation takes in the join (self-joins included), the
/// tuple's solo score and every other position's best solo score, over the
/// relation's current σ_max, are summed in member order, lifted, and
/// compared; see [`prj_core::scoring::solo_score`] for why that is exact.
fn append_cannot_change(state: &SubState, event: &MutationEvent, catalog: &Catalog) -> bool {
    let spec = &state.spec;
    if state.dirty || state.last_rows.len() != spec.k {
        return false;
    }
    let Some(kth) = state.last_rows.last().map(|row| row.score) else {
        return false;
    };
    let scoring = &*spec.scoring;
    let best: Option<Vec<f64>> = spec
        .relations
        .iter()
        .map(|&r| {
            let sigma_max = catalog.relation(r).ok()?.stats().max_score;
            Some(best_solo_score(scoring, sigma_max))
        })
        .collect();
    let Some(best) = best else {
        return false;
    };
    let positions = spec.relations.iter().enumerate();
    positions
        .filter(|(_, &r)| r == event.outcome.id)
        .all(|(j, _)| {
            event.rows.iter().all(|(location, sigma)| {
                let dist = scoring.distance(location, &spec.query);
                let solo = solo_score(scoring, *sigma, location, dist);
                let bound = best.iter().enumerate().fold(0.0, |acc, (i, &term)| {
                    acc + if i == j { solo } else { term }
                });
                lift(bound) < kth
            })
        })
}

/// A subscribed relation was dropped: the standing query can never produce
/// results again. Everything exits, the feed closes with `fin=drop`.
fn close_on_drop(
    inner: &Arc<Inner>,
    id: u64,
    state: &mut SubState,
    span: Option<SpanGuard>,
) -> bool {
    let events: Vec<ChangeEvent> = (0..state.last_rows.len())
        .map(|rank| ChangeEvent::Exit { rank })
        .collect();
    state.seq += 1;
    let note = Notification {
        id,
        seq: state.seq,
        total: 0,
        events,
        fin: Some("drop".to_string()),
    };
    if state.feed.send(Response::Notify(note)).is_ok() {
        inner.notifications.inc();
    }
    if let Some(mut span) = span {
        span.attr("fin", "drop");
    }
    true
}

/// Re-executes the pinned spec and diffs against the last delivered top-K.
/// Returns `true` when the subscription must be closed.
fn refresh(inner: &Arc<Inner>, id: u64, state: &mut SubState, span: Option<SpanGuard>) -> bool {
    let engine = inner.session.engine();
    let mut attempt = 0;
    let result = loop {
        match engine.query(state.spec.clone()) {
            // A stale replica is mid-replication of the very mutation that
            // woke us: wait it out briefly instead of failing the feed.
            Err(EngineError::StaleReplica(_)) if attempt < STALE_RETRIES => {
                attempt += 1;
                std::thread::sleep(STALE_BACKOFF);
            }
            other => break other,
        }
    };
    match result {
        Ok(result) => {
            inner.reexecuted.add(result.fresh_units as u64);
            let mut span = span;
            if let Some(span) = span.as_mut() {
                span.attr("fresh_units", result.fresh_units);
            }
            // An uncertified merge (access cap hit) is a truncated answer:
            // diffing against it could tell the client a combination left
            // the top-K when it merely went unproven. Never notify from it.
            state.dirty = result.result().metrics.hit_access_cap;
            if state.dirty {
                inner.suppressed.inc();
                if let Some(span) = span.as_mut() {
                    span.attr("suppressed", "uncertified");
                }
                return false;
            }
            let new_rows: Vec<ResultRow> = result.combinations().iter().map(to_row).collect();
            let events = diff_top_k(&state.last_rows, &new_rows);
            if events.is_empty() {
                inner.suppressed.inc();
                if let Some(span) = span.as_mut() {
                    span.attr("suppressed", "no-change");
                }
                return false;
            }
            state.seq += 1;
            let note = Notification {
                id,
                seq: state.seq,
                total: new_rows.len(),
                events,
                fin: None,
            };
            if let Some(span) = span.as_mut() {
                span.attr("events", note.events.len());
                span.attr("seq", note.seq);
            }
            if state.feed.send(Response::Notify(note)).is_err() {
                // The transport is gone; self-unsubscribe.
                return true;
            }
            inner.notifications.inc();
            state.last_rows = new_rows;
            false
        }
        Err(e) => {
            // Terminal (not a bounded-stale wait): close the feed loudly
            // with `fin=error` rather than going silently stale.
            state.seq += 1;
            let note = Notification {
                id,
                seq: state.seq,
                total: 0,
                events: Vec::new(),
                fin: Some("error".to_string()),
            };
            if state.feed.send(Response::Notify(note)).is_ok() {
                inner.notifications.inc();
            }
            let mut span = span;
            if let Some(span) = span.as_mut() {
                span.attr("fin", "error");
                span.attr("error", e.to_string());
            }
            true
        }
    }
}

/// Serves `subscribe`/`unsubscribe` in front of any request handler — a
/// plain [`Session`] or `prj-cluster`'s coordinator — and delegates every
/// other verb untouched. This is what `prj-serve` hands to the TCP server
/// when subscriptions are enabled.
pub struct Subscribing<H> {
    handler: Arc<H>,
    manager: Arc<SubscriptionManager>,
}

impl<H> Subscribing<H> {
    /// Wraps `handler`, routing subscription verbs to `manager`.
    pub fn new(handler: Arc<H>, manager: Arc<SubscriptionManager>) -> Subscribing<H> {
        Subscribing { handler, manager }
    }

    /// The wrapped manager.
    pub fn manager(&self) -> &Arc<SubscriptionManager> {
        &self.manager
    }

    /// The wrapped handler.
    pub fn handler(&self) -> &Arc<H> {
        &self.handler
    }
}

impl<H: RequestHandler> RequestHandler for Subscribing<H> {
    fn dispatch_request(&self, request: Request) -> Dispatch {
        match request {
            Request::Subscribe(query) => match self.manager.subscribe(query) {
                Ok(dispatch) => dispatch,
                Err(e) => Dispatch::One(Response::Error(e)),
            },
            Request::Unsubscribe { id } => Dispatch::One(self.manager.unsubscribe(id)),
            // The wrapped handler answers from its own vantage (engine,
            // worker, or coordinator); the subscription layer stacks its
            // pipeline signals on top.
            Request::Health => {
                let mut dispatch = self.handler.dispatch_request(Request::Health);
                if let Dispatch::One(Response::Health(health)) = &mut dispatch {
                    health.subscriptions = self.manager.active() as u64;
                    health.sub_queue_depth = self.manager.queue_depth() as u64;
                }
                dispatch
            }
            other => self.handler.dispatch_request(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prj_api::{apply_events, TupleData};
    use prj_engine::{Engine, EngineBuilder, InProcessBackend};
    use std::sync::Arc;

    fn rows(n: usize, shift: f64) -> Vec<TupleData> {
        (0..n)
            .map(|i| {
                let x = shift + i as f64 * 0.37 - (n as f64) / 5.0;
                let y = shift - i as f64 * 0.21 + 0.3;
                TupleData::new(vec![x, y], 0.2 + ((i * 7) % 10) as f64 / 10.0)
            })
            .collect()
    }

    fn manager_over(shards: usize) -> (Arc<SubscriptionManager>, Session) {
        manager_over_engine(Arc::new(
            EngineBuilder::default().threads(2).shards(shards).build(),
        ))
    }

    fn manager_over_engine(engine: Arc<Engine>) -> (Arc<SubscriptionManager>, Session) {
        let session = Session::new(Arc::clone(&engine));
        let manager = Arc::new(SubscriptionManager::new(Session::new(engine), 0));
        for (name, shift) in [("L", 0.0), ("R", 0.5)] {
            match session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples: rows(24, shift),
            }) {
                Response::Registered { .. } => {}
                other => panic!("registration failed: {other:?}"),
            }
        }
        (manager, session)
    }

    fn subscribe(
        manager: &SubscriptionManager,
        query: QueryRequest,
    ) -> (u64, Vec<ResultRow>, Receiver<Response>) {
        match manager.subscribe(query) {
            Ok(Dispatch::Subscribed { ack, feed }) => match ack {
                Response::Subscribed { id, rows, .. } => (id, rows, feed),
                other => panic!("unexpected ack: {other:?}"),
            },
            Ok(_) => panic!("expected a subscribed dispatch"),
            Err(e) => panic!("subscribe failed: {e}"),
        }
    }

    fn next_notification(feed: &Receiver<Response>) -> Notification {
        match feed.recv_timeout(Duration::from_secs(10)) {
            Ok(Response::Notify(note)) => note,
            other => panic!("expected a notification, got {other:?}"),
        }
    }

    #[test]
    fn append_notifies_and_replay_matches_fresh_query() {
        let (manager, session) = manager_over(1);
        let query = QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(5);
        let (id, baseline, feed) = subscribe(&manager, query.clone());
        assert_eq!(manager.active(), 1);
        // A tuple right at the query point must displace the top-1.
        session.handle(Request::AppendTuples {
            relation: "L".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        });
        manager.quiesce();
        let note = next_notification(&feed);
        assert_eq!(note.id, id);
        assert_eq!(note.seq, 1);
        assert!(note.fin.is_none());
        let replayed = apply_events(&baseline, &note.events, note.total).expect("replay");
        let fresh = match session.handle(Request::TopK(query)) {
            Response::Results { rows, .. } => rows,
            other => panic!("fresh query failed: {other:?}"),
        };
        assert_eq!(replayed.len(), fresh.len());
        for (a, b) in replayed.iter().zip(fresh.iter()) {
            assert_eq!(a.tuples, b.tuples);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-exact replay");
        }
    }

    #[test]
    fn irrelevant_mutations_do_not_wake_the_feed() {
        let (manager, session) = manager_over(1);
        session.handle(Request::RegisterRelation {
            name: "other".to_string(),
            tuples: rows(4, 3.0),
        });
        let (_, baseline, feed) = subscribe(
            &manager,
            QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(3),
        );
        // Mutating an unsubscribed relation must not even re-execute.
        session.handle(Request::AppendTuples {
            relation: "other".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        });
        manager.quiesce();
        assert_eq!(manager.reexecuted_units_total(), 0);
        assert!(feed.try_recv().is_err(), "no notification expected");
        // A far-away append to a subscribed relation is skipped: its bound
        // is far below the delivered K-th score, so nothing re-runs.
        session.handle(Request::AppendTuples {
            relation: "L".into(),
            tuples: vec![TupleData::new([500.0, 500.0], 0.01)],
        });
        manager.quiesce();
        assert_eq!(manager.skipped_total(), 1);
        assert_eq!(manager.reexecuted_units_total(), 0);
        assert_eq!(manager.suppressed_total(), 0);
        assert!(feed.try_recv().is_err(), "skipped wakeup");
        // A tuple at the query point whose bound reaches the K-th score by
        // 0.5 (every other member stands in at the query with R's best
        // score, 1.1) cannot be ruled out. Its real combinations sit at
        // least about 1.4 away from the query, so the re-run finds the top
        // K unchanged and the wakeup is suppressed.
        let kth = baseline[2].score;
        let score = (kth + 0.5 - 1.1f64.ln()).exp();
        session.handle(Request::AppendTuples {
            relation: "L".into(),
            tuples: vec![TupleData::new([0.0, 0.0], score)],
        });
        manager.quiesce();
        assert_eq!(manager.skipped_total(), 1, "the near append is not skipped");
        assert!(manager.reexecuted_units_total() > 0);
        assert_eq!(manager.suppressed_total(), 1);
        assert!(feed.try_recv().is_err(), "suppressed no-op wakeup");
        assert_eq!(manager.notifications_total(), 0);
    }

    #[test]
    fn a_dirty_subscription_is_never_skipped() {
        let (manager, session) = manager_over(1);
        let (id, _, feed) = subscribe(
            &manager,
            QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(3),
        );
        let far = || Request::AppendTuples {
            relation: "L".into(),
            tuples: vec![TupleData::new([500.0, 500.0], 0.01)],
        };
        // The in-process engine never truncates a run, so mark the
        // subscription as an uncertified re-run would.
        let dirty = |manager: &SubscriptionManager| {
            let subs = manager.inner.subs.lock().expect("subscriptions lock");
            subs[&id].dirty
        };
        manager
            .inner
            .subs
            .lock()
            .expect("subscriptions lock")
            .get_mut(&id)
            .expect("subscription")
            .dirty = true;
        session.handle(far());
        manager.quiesce();
        assert_eq!(manager.skipped_total(), 0, "a dirty subscription re-runs");
        assert!(manager.reexecuted_units_total() > 0);
        assert_eq!(manager.suppressed_total(), 1);
        assert!(!dirty(&manager), "a certified re-run clears the flag");
        // Clean again, the same append is skipped.
        let reexecuted = manager.reexecuted_units_total();
        session.handle(far());
        manager.quiesce();
        assert_eq!(manager.skipped_total(), 1);
        assert_eq!(manager.reexecuted_units_total(), reexecuted);
        assert!(feed.try_recv().is_err(), "no notification expected");
    }

    #[test]
    fn single_shard_append_reexecutes_exactly_one_unit() {
        // The cluster's incrementality property: 4 shards whose units are
        // remote calls (an in-process backend routes them), a
        // subscription over the sharded relation, one appended tuple
        // touching one shard — exactly one execution unit runs fresh; the
        // other three are unit-cache hits under the pinned plan.
        let engine = Arc::new(EngineBuilder::default().threads(2).shards(4).build());
        engine.set_remote_backend(InProcessBackend::new(&engine));
        let (manager, session) = manager_over_engine(engine);
        let (_, baseline, feed) = subscribe(
            &manager,
            QueryRequest::new(vec!["L".into()], [0.0, 0.0]).k(6),
        );
        let before = manager.reexecuted_units_total();
        match session.handle(Request::AppendTuples {
            relation: "L".into(),
            tuples: vec![TupleData::new([0.0, 0.0], 1.0)],
        }) {
            Response::Appended { .. } => {}
            other => panic!("append failed: {other:?}"),
        }
        manager.quiesce();
        assert_eq!(
            manager.reexecuted_units_total() - before,
            1,
            "single-shard append must re-execute exactly one of 4 units"
        );
        let note = next_notification(&feed);
        let replayed = apply_events(&baseline, &note.events, note.total).expect("replay");
        let fresh = match session.handle(Request::TopK(
            QueryRequest::new(vec!["L".into()], [0.0, 0.0]).k(6),
        )) {
            Response::Results { rows, .. } => rows,
            other => panic!("fresh query failed: {other:?}"),
        };
        assert_eq!(replayed, fresh);
    }

    #[test]
    fn dropping_a_subscribed_relation_closes_with_fin_drop() {
        let (manager, session) = manager_over(1);
        let (id, baseline, feed) = subscribe(
            &manager,
            QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(4),
        );
        session.handle(Request::DropRelation {
            relation: "R".into(),
        });
        manager.quiesce();
        let note = next_notification(&feed);
        assert_eq!(note.fin.as_deref(), Some("drop"));
        assert_eq!(note.total, 0);
        assert_eq!(note.events.len(), baseline.len(), "everything exits");
        let replayed = apply_events(&baseline, &note.events, note.total).expect("replay");
        assert!(replayed.is_empty());
        assert_eq!(manager.active(), 0, "the subscription is gone");
        // The feed sender is dropped with the subscription.
        assert!(matches!(
            feed.recv_timeout(Duration::from_secs(5)),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
        ));
        let _ = id;
    }

    #[test]
    fn unsubscribe_and_limits() {
        let (manager, _session) = manager_over(1);
        let limited = {
            let engine = Arc::new(EngineBuilder::default().threads(1).build());
            let session = Session::new(Arc::clone(&engine));
            session.handle(Request::RegisterRelation {
                name: "L".to_string(),
                tuples: rows(4, 0.0),
            });
            Arc::new(SubscriptionManager::new(session, 1))
        };
        let q = QueryRequest::new(vec!["L".into()], [0.0, 0.0]).k(2);
        let (id, _, _feed) = subscribe(&limited, q.clone());
        match limited.subscribe(q.clone()) {
            Err(e) => assert_eq!(e.kind, ErrorKind::Degraded, "limit is a typed error"),
            Ok(_) => panic!("limit not enforced"),
        }
        assert!(matches!(
            limited.unsubscribe(id),
            Response::Unsubscribed { id: acked } if acked == id
        ));
        assert!(matches!(
            limited.unsubscribe(id),
            Response::Error(e) if e.kind == ErrorKind::InvalidQuery
        ));
        // Slot freed: subscribing again succeeds.
        let (_, _, _feed2) = subscribe(&limited, q);
        let _ = manager;
    }

    #[test]
    fn sequences_are_gapless_across_many_mutations() {
        let (manager, session) = manager_over(2);
        let (_, mut view, feed) = subscribe(
            &manager,
            QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(4),
        );
        for i in 0..6 {
            session.handle(Request::AppendTuples {
                relation: if i % 2 == 0 { "L" } else { "R" }.into(),
                tuples: vec![TupleData::new(
                    [0.01 * i as f64, -0.01 * i as f64],
                    0.9 + 0.01 * i as f64,
                )],
            });
        }
        manager.quiesce();
        let mut expected_seq = 0;
        while let Ok(Response::Notify(note)) = feed.try_recv() {
            expected_seq += 1;
            assert_eq!(note.seq, expected_seq, "gapless sequence");
            view = apply_events(&view, &note.events, note.total).expect("replay");
        }
        assert!(expected_seq > 0, "the appends must have notified");
        let fresh = match session.handle(Request::TopK(
            QueryRequest::new(vec!["L".into(), "R".into()], [0.0, 0.0]).k(4),
        )) {
            Response::Results { rows, .. } => rows,
            other => panic!("fresh query failed: {other:?}"),
        };
        assert_eq!(view, fresh, "accumulated replay equals the fresh answer");
    }

    #[test]
    fn subscribing_wrapper_routes_verbs() {
        let engine = Arc::new(EngineBuilder::default().threads(1).build());
        let session = Arc::new(Session::new(Arc::clone(&engine)));
        session.handle(Request::RegisterRelation {
            name: "L".to_string(),
            tuples: rows(6, 0.0),
        });
        let manager = Arc::new(SubscriptionManager::new(
            Session::new(Arc::clone(&engine)),
            0,
        ));
        let wrapped = Subscribing::new(Arc::clone(&session), Arc::clone(&manager));
        let q = QueryRequest::new(vec!["L".into()], [0.0, 0.0]).k(2);
        let Dispatch::Subscribed { ack, feed: _feed } =
            wrapped.dispatch_request(Request::Subscribe(q.clone()))
        else {
            panic!("subscribe must produce a Subscribed dispatch");
        };
        let Response::Subscribed { id, .. } = ack else {
            panic!("unexpected ack");
        };
        // Non-subscription verbs fall through to the wrapped handler.
        assert!(matches!(
            wrapped.dispatch_request(Request::TopK(q)),
            Dispatch::One(Response::Results { .. })
        ));
        assert!(matches!(
            wrapped.dispatch_request(Request::Unsubscribe { id }),
            Dispatch::One(Response::Unsubscribed { id: acked }) if acked == id
        ));
    }
}
