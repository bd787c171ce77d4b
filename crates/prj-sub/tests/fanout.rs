//! Subscription fan-out probe: 1000 standing queries (k = 8) over two
//! 4096-tuple relations, then 200 appends, each one tuple at one
//! subscription's query point. Every targeted subscription must be
//! notified, and the skip must leave about one re-run per append. Prints
//! mutations per second; run it in release for a meaningful figure:
//!
//! ```text
//! cargo test --release -p prj-sub --test fanout -- --nocapture
//! ```
//!
//! The probe starts no threads of its own: the engine runs on one worker
//! and the manager on its one notifier.

use prj_api::{QueryRequest, Request, Response, TupleData};
use prj_engine::{Dispatch, EngineBuilder, Session};
use prj_sub::SubscriptionManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

const SUBSCRIPTIONS: usize = 1000;
const TUPLES: usize = 4096;
const APPENDS: usize = 200;
/// Query points sit on a 40 × 25 grid with this spacing, over tuples
/// spread uniformly across the grid's extent.
const SPACING: f64 = 3.0;

#[test]
fn targeted_appends_rerun_about_one_subscription_each() {
    let mut rng = StdRng::seed_from_u64(0xFA_0017);
    let (width, height) = (40.0 * SPACING, 25.0 * SPACING);
    let engine = Arc::new(EngineBuilder::default().threads(1).build());
    let session = Session::new(Arc::clone(&engine));
    let manager = SubscriptionManager::new(Session::new(Arc::clone(&engine)), 0);
    for name in ["a", "b"] {
        let tuples = (0..TUPLES)
            .map(|_| {
                TupleData::new(
                    vec![rng.random_range(0.0..width), rng.random_range(0.0..height)],
                    rng.random_range(0.05..1.0),
                )
            })
            .collect();
        let registered = session.handle(Request::RegisterRelation {
            name: name.to_string(),
            tuples,
        });
        assert!(matches!(registered, Response::Registered { .. }));
    }
    let points: Vec<[f64; 2]> = (0..SUBSCRIPTIONS)
        .map(|i| {
            let (x, y) = ((i % 40) as f64, (i / 40) as f64);
            [(x + 0.5) * SPACING, (y + 0.5) * SPACING]
        })
        .collect();
    let feeds: Vec<_> = points
        .iter()
        .map(|p| {
            let query = QueryRequest::new(vec!["a".into(), "b".into()], *p).k(8);
            match manager.subscribe(query) {
                Ok(Dispatch::Subscribed { feed, .. }) => feed,
                _ => panic!("subscribe failed"),
            }
        })
        .collect();

    let started = Instant::now();
    for step in 0..APPENDS {
        // Distinct targets spread over the grid (37 is prime to 1000).
        let target = step * 37 % SUBSCRIPTIONS;
        let appended = session.handle(Request::AppendTuples {
            relation: "a".into(),
            tuples: vec![TupleData::new(points[target].to_vec(), 1.0)],
        });
        assert!(matches!(appended, Response::Appended { .. }));
        manager.quiesce();
        assert!(
            matches!(feeds[target].try_recv(), Ok(Response::Notify(_))),
            "append {step}: subscription {target} was not notified"
        );
    }
    let elapsed = started.elapsed().as_secs_f64();

    let reexecuted = manager.reexecuted_units_total();
    let notified = manager.notifications_total();
    println!(
        "fanout: {SUBSCRIPTIONS} subscriptions, {APPENDS} appends in {elapsed:.2} s = \
         {:.0} mutations/s; {reexecuted} re-runs, {} skipped, {} suppressed, \
         {notified} notifications",
        APPENDS as f64 / elapsed,
        manager.skipped_total(),
        manager.suppressed_total(),
    );
    assert!(
        reexecuted <= 2 * APPENDS as u64,
        "{reexecuted} re-runs for {APPENDS} appends"
    );
    assert_eq!(
        manager.skipped_total() + reexecuted,
        (SUBSCRIPTIONS * APPENDS) as u64,
        "every wake either skips or re-runs one unit"
    );
    assert_eq!(notified, APPENDS as u64, "only the targets are notified");
}
