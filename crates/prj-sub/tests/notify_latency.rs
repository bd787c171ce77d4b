//! Push latency of a standing query over TCP: the notification an append
//! triggers must reach the client without waiting on Nagle's algorithm.
//!
//! The server answers the append with an `Appended` line and then pushes
//! the `notify` line on the same socket. Without `TCP_NODELAY` the second,
//! small write is held until the client ACKs the first, and a client that
//! is only reading delays that ACK (40 ms on Linux) — so every
//! notification arrives at least that late. Without the stall a
//! notification over a 64-tuple relation takes well under a millisecond.

use prj_api::{ApiClient, ChangeEvent, QueryRequest, Request, Response, TupleData};
use prj_engine::{EngineBuilder, Server, Session};
use prj_sub::{Subscribing, SubscriptionManager};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARM_UP: usize = 4;
const TIMED: usize = 16;

#[test]
fn pushed_notifications_do_not_wait_for_delayed_acks() {
    let engine = Arc::new(EngineBuilder::default().threads(2).build());
    let manager = Arc::new(SubscriptionManager::new(
        Session::new(Arc::clone(&engine)),
        0,
    ));
    let handler = Subscribing::new(Arc::new(Session::new(engine)), Arc::clone(&manager));
    let server = Server::bind("127.0.0.1:0", Arc::new(handler)).expect("bind");
    let mut client = ApiClient::connect(server.local_addr()).expect("connect");
    client.negotiate().expect("negotiate");

    let tuples: Vec<TupleData> = (0..64)
        .map(|i| {
            let (x, y) = ((i % 8) as f64 - 3.5, (i / 8) as f64 - 3.5);
            TupleData::new(vec![x, y], 0.1 + (i % 5) as f64 / 10.0)
        })
        .collect();
    for name in ["a", "b"] {
        let registered = client.call(&Request::RegisterRelation {
            name: name.to_string(),
            tuples: tuples.clone(),
        });
        assert!(matches!(registered, Ok(Response::Registered { .. })));
    }
    let point = [0.25, -0.25];
    let query = QueryRequest::new(vec!["a".into(), "b".into()], point).k(4);
    let (sub, _, _) = client.subscribe(query).expect("subscribe");

    let mut latencies = Vec::with_capacity(TIMED);
    for i in 0..WARM_UP + TIMED {
        // A tuple exactly at the query point, scoring above every earlier
        // one: it enters the top-K, so the append must notify.
        let append = Request::AppendTuples {
            relation: "a".into(),
            tuples: vec![TupleData::new(point.to_vec(), 1.0 + i as f64)],
        };
        let started = Instant::now();
        let Ok(Response::Appended {
            id, cardinality, ..
        }) = client.call(&append)
        else {
            panic!("append {i} failed");
        };
        let note = client
            .wait_notification(Duration::from_secs(5))
            .expect("read notification")
            .expect("the append must notify");
        let elapsed = started.elapsed();
        assert_eq!(note.id, sub);
        assert!(
            note.events.iter().any(|event| matches!(
                event,
                ChangeEvent::Enter { row, .. } if row.tuples.contains(&(id, cardinality - 1))
            )),
            "append {i}: the new tuple must enter the top-K"
        );
        if i >= WARM_UP {
            latencies.push(elapsed);
        }
    }
    latencies.sort_unstable();
    let median = latencies[TIMED / 2];
    assert!(
        median < Duration::from_millis(20),
        "median append-to-notification latency {median:?} (all: {latencies:?})"
    );
    client.unsubscribe(sub).expect("unsubscribe");
}
