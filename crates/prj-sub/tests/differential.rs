//! Differential harness for standing queries: after **every** mutation of
//! randomized append/drop sequences, the client-side materialized view
//! (the last delivered top-K with all pushed change events applied) must
//! be **bit-identical** — member ids, score bits, ordering — to a fresh
//! `TopK` re-query of the same engine. Covered matrix: shard counts
//! `S ∈ {1, 4}`, both sorted-access kinds, and the distributed coordinator
//! path with a worker process killed mid-sequence (replica failover must
//! keep the feed exact, never silently stale).

use prj_access::AccessKind;
use prj_api::{apply_events, QueryRequest, Request, Response, ResultRow, TupleData};
use prj_engine::{Dispatch, EngineBuilder, Session};
use prj_sub::SubscriptionManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Identity + exact score bits — the comparison everything reduces to.
fn fingerprint(rows: &[ResultRow]) -> Vec<(Vec<(usize, usize)>, u64)> {
    rows.iter()
        .map(|r| (r.tuples.clone(), r.score.to_bits()))
        .collect()
}

fn seed_rows(rng: &mut StdRng, n: usize) -> Vec<TupleData> {
    (0..n)
        .map(|_| {
            TupleData::new(
                vec![rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)],
                rng.random_range(0.05..1.0),
            )
        })
        .collect()
}

fn subscribe(
    manager: &SubscriptionManager,
    query: QueryRequest,
) -> (Vec<ResultRow>, Receiver<Response>) {
    match manager.subscribe(query) {
        Ok(Dispatch::Subscribed { ack, feed }) => match ack {
            Response::Subscribed { rows, .. } => (rows, feed),
            other => panic!("unexpected ack: {other:?}"),
        },
        Ok(_) => panic!("expected a subscribed dispatch"),
        Err(e) => panic!("subscribe failed: {e}"),
    }
}

/// Applies every queued notification to `view`, asserting the gapless
/// sequence; returns the `fin` token if the feed was closed.
fn drain_into(
    feed: &Receiver<Response>,
    view: &mut Vec<ResultRow>,
    seq: &mut u64,
) -> Option<String> {
    while let Ok(response) = feed.try_recv() {
        let Response::Notify(note) = response else {
            panic!("non-notify response on the feed: {response:?}");
        };
        *seq += 1;
        assert_eq!(note.seq, *seq, "sequence numbers must be gapless");
        *view = apply_events(view, &note.events, note.total)
            .unwrap_or_else(|e| panic!("event replay rejected at seq {}: {e}", note.seq));
        if note.fin.is_some() {
            return note.fin;
        }
    }
    None
}

fn fresh_rows(session: &Session, query: &QueryRequest) -> Vec<ResultRow> {
    match session.handle(Request::TopK(query.clone())) {
        Response::Results { rows, .. } => rows,
        other => panic!("fresh re-query failed: {other:?}"),
    }
}

/// The local matrix: randomized appends (hot, cold, and to unrelated
/// relations) interleaved with drops of unrelated relations, across
/// `S ∈ {1, 4}` × both access kinds. After every single mutation the
/// replayed view equals the fresh answer bit-for-bit.
#[test]
fn randomized_mutations_keep_the_view_bit_identical_to_fresh_queries() {
    for shards in [1usize, 4] {
        for access in [AccessKind::Distance, AccessKind::Score] {
            run_local_sequence(shards, access, 0x5EED_0000 + shards as u64);
        }
    }
}

fn run_local_sequence(shards: usize, access: AccessKind, seed: u64) {
    let tag = format!("S={shards} access={access:?}");
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = Arc::new(EngineBuilder::default().threads(2).shards(shards).build());
    let session = Session::new(Arc::clone(&engine));
    let manager = SubscriptionManager::new(Session::new(engine), 0);
    for name in ["a", "b"] {
        let tuples = seed_rows(&mut rng, 36);
        assert!(!matches!(
            session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples,
            }),
            Response::Error(_)
        ));
    }
    // Unrelated relations that get dropped mid-sequence: their mutations
    // must never wake (let alone corrupt) the subscribed feed.
    let mut droppable: Vec<String> = (0..3).map(|i| format!("noise{i}")).collect();
    for name in &droppable {
        session.handle(Request::RegisterRelation {
            name: name.clone(),
            tuples: seed_rows(&mut rng, 6),
        });
    }
    let query = QueryRequest::new(vec!["a".into(), "b".into()], [0.2, -0.1])
        .k(5)
        .access(access);
    let (mut view, feed) = subscribe(&manager, query.clone());
    assert_eq!(
        fingerprint(&view),
        fingerprint(&fresh_rows(&session, &query)),
        "{tag}: baseline diverged"
    );
    let mut seq = 0u64;
    for step in 0..30 {
        let roll = rng.random_range(0..10);
        let mutation = match roll {
            // Hot appends near the query point: likely to change the
            // top-K.
            0..=5 => Request::AppendTuples {
                relation: if roll % 2 == 0 { "a" } else { "b" }.into(),
                tuples: (0..rng.random_range(1..3))
                    .map(|_| {
                        TupleData::new(
                            vec![rng.random_range(-0.5..0.5), rng.random_range(-0.5..0.5)],
                            rng.random_range(0.5..1.0),
                        )
                    })
                    .collect(),
            },
            // Cold appends far away with tiny scores: usually suppressed.
            6 | 7 => Request::AppendTuples {
                relation: "a".into(),
                tuples: vec![TupleData::new(
                    vec![rng.random_range(40.0..60.0), rng.random_range(40.0..60.0)],
                    0.02,
                )],
            },
            // Mutations of unrelated relations.
            8 => Request::AppendTuples {
                relation: "noise0".into(),
                tuples: vec![TupleData::new([0.0, 0.0], 0.9)],
            },
            _ => match droppable.pop() {
                Some(name) if name != "noise0" => Request::DropRelation {
                    relation: name.as_str().into(),
                },
                _ => Request::AppendTuples {
                    relation: "b".into(),
                    tuples: vec![TupleData::new([0.1, 0.1], 0.8)],
                },
            },
        };
        assert!(
            !matches!(session.handle(mutation), Response::Error(_)),
            "{tag} step {step}: mutation rejected"
        );
        manager.quiesce();
        let fin = drain_into(&feed, &mut view, &mut seq);
        assert!(fin.is_none(), "{tag} step {step}: feed closed ({fin:?})");
        assert_eq!(
            fingerprint(&view),
            fingerprint(&fresh_rows(&session, &query)),
            "{tag} step {step}: replayed view diverged from the fresh answer"
        );
    }
    assert!(
        manager.notifications_total() > 0,
        "{tag}: the hot appends must have produced notifications"
    );
    assert!(
        manager.suppressed_total() > 0,
        "{tag}: the cold appends must have been suppressed"
    );
}

/// The delta-ingest leg: the engine buffers appends in per-shard deltas
/// (`delta_threshold`) and a paused compactor is stepped explicitly at
/// random points, so notifications are produced while tuples sit in deltas
/// *and* across background folds. After every mutation the replayed view
/// must equal a fresh query bit-for-bit with a gapless sequence — and a
/// pure compaction (no mutation) must produce **no** notification at all:
/// folding is physical reorganization, invisible to standing queries.
#[test]
fn delta_ingest_and_compaction_keep_feeds_exact_and_gapless() {
    for shards in [1usize, 4] {
        for access in [AccessKind::Distance, AccessKind::Score] {
            run_delta_sequence(shards, access, 0xDE17A + shards as u64);
        }
    }
}

fn run_delta_sequence(shards: usize, access: AccessKind, seed: u64) {
    let tag = format!("delta S={shards} access={access:?}");
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = Arc::new(
        EngineBuilder::default()
            .threads(2)
            .shards(shards)
            .delta_threshold(3)
            .build(),
    );
    let compactor = Arc::clone(engine.compactor().expect("delta engine has a compactor"));
    compactor.pause();
    let session = Session::new(Arc::clone(&engine));
    let manager = SubscriptionManager::new(Session::new(Arc::clone(&engine)), 0);
    for name in ["a", "b"] {
        let tuples = seed_rows(&mut rng, 30);
        assert!(!matches!(
            session.handle(Request::RegisterRelation {
                name: name.to_string(),
                tuples,
            }),
            Response::Error(_)
        ));
    }
    let query = QueryRequest::new(vec!["a".into(), "b".into()], [0.1, -0.2])
        .k(5)
        .access(access);
    let (mut view, feed) = subscribe(&manager, query.clone());
    assert_eq!(
        fingerprint(&view),
        fingerprint(&fresh_rows(&session, &query)),
        "{tag}: baseline diverged"
    );
    let mut seq = 0u64;
    for step in 0..24 {
        let hot = rng.random_range(0..10) < 7;
        let mutation = Request::AppendTuples {
            relation: if step % 2 == 0 { "a" } else { "b" }.into(),
            tuples: if hot {
                (0..rng.random_range(1..3))
                    .map(|_| {
                        TupleData::new(
                            vec![rng.random_range(-0.5..0.5), rng.random_range(-0.5..0.5)],
                            rng.random_range(0.5..1.0),
                        )
                    })
                    .collect()
            } else {
                vec![TupleData::new(
                    vec![rng.random_range(40.0..60.0), rng.random_range(40.0..60.0)],
                    0.02,
                )]
            },
        };
        assert!(
            !matches!(session.handle(mutation), Response::Error(_)),
            "{tag} step {step}: mutation rejected"
        );
        manager.quiesce();
        let fin = drain_into(&feed, &mut view, &mut seq);
        assert!(fin.is_none(), "{tag} step {step}: feed closed ({fin:?})");
        assert_eq!(
            fingerprint(&view),
            fingerprint(&fresh_rows(&session, &query)),
            "{tag} step {step}: view diverged (delta backlog {})",
            engine.catalog().delta_tuples_total(),
        );

        if rng.random_range(0.0..1.0f64) < 0.35 {
            // Fold everything mid-sequence: no mutation happened, so the
            // feed must stay silent and the view must stay fresh.
            let seq_before = seq;
            compactor.step();
            manager.quiesce();
            let fin = drain_into(&feed, &mut view, &mut seq);
            assert!(
                fin.is_none(),
                "{tag} step {step}: compaction closed the feed"
            );
            assert_eq!(
                seq, seq_before,
                "{tag} step {step}: a pure compaction produced a notification"
            );
            assert_eq!(
                fingerprint(&view),
                fingerprint(&fresh_rows(&session, &query)),
                "{tag} step {step}: view diverged across a compaction"
            );
        }
    }
    // Final fold + one more mutation, so at least one notification crossed
    // a fully compacted catalog too.
    compactor.step();
    assert_eq!(engine.catalog().delta_tuples_total(), 0, "{tag}: undrained");
    session.handle(Request::AppendTuples {
        relation: "a".into(),
        tuples: vec![TupleData::new([0.05, 0.05], 0.97)],
    });
    manager.quiesce();
    assert!(drain_into(&feed, &mut view, &mut seq).is_none());
    assert_eq!(
        fingerprint(&view),
        fingerprint(&fresh_rows(&session, &query)),
        "{tag}: post-compaction mutation diverged"
    );
    assert!(
        manager.notifications_total() > 0,
        "{tag}: hot appends must have notified"
    );
    compactor.resume();
}

/// Dropping a subscribed relation terminates the feed: everything exits,
/// `fin=drop`, and the replayed (now empty) view agrees with the fresh
/// query's typed error — there is no answer anymore.
#[test]
fn dropping_a_subscribed_relation_mid_sequence_closes_the_feed() {
    let mut rng = StdRng::seed_from_u64(99);
    let engine = Arc::new(EngineBuilder::default().threads(2).shards(4).build());
    let session = Session::new(Arc::clone(&engine));
    let manager = SubscriptionManager::new(Session::new(engine), 0);
    for name in ["a", "b"] {
        session.handle(Request::RegisterRelation {
            name: name.to_string(),
            tuples: seed_rows(&mut rng, 20),
        });
    }
    let query = QueryRequest::new(vec!["a".into(), "b".into()], [0.0, 0.0]).k(4);
    let (mut view, feed) = subscribe(&manager, query.clone());
    let mut seq = 0u64;
    // A few live mutations first, then the drop.
    for _ in 0..3 {
        session.handle(Request::AppendTuples {
            relation: "a".into(),
            tuples: vec![TupleData::new(
                vec![rng.random_range(-0.3..0.3), rng.random_range(-0.3..0.3)],
                0.95,
            )],
        });
        manager.quiesce();
        assert!(drain_into(&feed, &mut view, &mut seq).is_none());
        assert_eq!(
            fingerprint(&view),
            fingerprint(&fresh_rows(&session, &query))
        );
    }
    session.handle(Request::DropRelation {
        relation: "b".into(),
    });
    manager.quiesce();
    let fin = drain_into(&feed, &mut view, &mut seq);
    assert_eq!(fin.as_deref(), Some("drop"));
    assert!(view.is_empty(), "everything must have exited");
    assert!(
        matches!(session.handle(Request::TopK(query)), Response::Error(_)),
        "the fresh query agrees: no answer exists"
    );
    assert_eq!(manager.active(), 0);
}

/// The distributed leg: a coordinator over two real `prj-serve --worker`
/// processes (4 shards, replication factor 2), a standing query re-executed
/// through the remote-unit path on every append — with one worker process
/// killed mid-sequence. Failover must keep every delivered notification
/// exact; the feed must never close and never go silently stale.
#[test]
fn distributed_subscriptions_stay_exact_through_a_worker_kill() {
    let Some(binary) = prj_serve_binary() else {
        // `cargo test -p prj-sub` does not build prj-cluster's binary;
        // the workspace-level `cargo test` (what CI runs) does.
        eprintln!("skipping: prj-serve binary not built yet");
        return;
    };
    let shards = 4;
    let mut fleet: Vec<prj_cluster::SpawnedWorker> = (0..2)
        .map(|_| prj_cluster::spawn_worker_process(&binary, shards, 2).expect("spawn worker"))
        .collect();
    let topology = prj_cluster::ClusterTopology::new(
        fleet.iter().map(|w| w.addr().to_string()).collect(),
        shards,
    )
    .expect("topology");
    let coordinator = prj_cluster::Coordinator::builder(topology)
        .threads(2)
        .build()
        .expect("coordinator bootstrap");
    let manager = SubscriptionManager::new(Session::new(Arc::clone(coordinator.engine())), 0);
    let mut rng = StdRng::seed_from_u64(4242);
    for name in ["a", "b"] {
        let response = coordinator.dispatch_one(Request::RegisterRelation {
            name: name.to_string(),
            tuples: seed_rows(&mut rng, 24),
        });
        assert!(
            !matches!(response, Response::Error(_)),
            "registration failed"
        );
    }
    let query = QueryRequest::new(vec!["a".into(), "b".into()], [0.3, -0.2]).k(5);
    let (mut view, feed) = subscribe(&manager, query.clone());
    let mut seq = 0u64;
    let mut killed = false;
    for step in 0..12 {
        if step == 5 {
            // Kill a worker process mid-sequence: its shards fail over to
            // the surviving replica.
            drop(fleet.remove(0));
            killed = true;
        }
        let ack = coordinator.dispatch_one(Request::AppendTuples {
            relation: if step % 2 == 0 { "a" } else { "b" }.into(),
            tuples: vec![TupleData::new(
                vec![rng.random_range(-0.6..0.6), rng.random_range(-0.6..0.6)],
                rng.random_range(0.6..1.0),
            )],
        });
        match ack {
            Response::Appended { .. } => {}
            // After the kill, replication to the dead worker fails: the
            // mutation is applied locally and on the survivor, acked as a
            // typed degraded error. The feed must still be exact.
            Response::Error(e) if killed => {
                assert_eq!(e.kind, prj_api::ErrorKind::Degraded, "step {step}: {e:?}")
            }
            other => panic!("step {step}: unexpected mutation ack {other:?}"),
        }
        manager.quiesce();
        let fin = drain_into(&feed, &mut view, &mut seq);
        assert!(fin.is_none(), "step {step}: feed closed ({fin:?})");
        let fresh = match coordinator.dispatch_one(Request::TopK(query.clone())) {
            Response::Results { rows, .. } => rows,
            other => panic!("step {step}: fresh distributed query failed: {other:?}"),
        };
        assert_eq!(
            fingerprint(&view),
            fingerprint(&fresh),
            "step {step}: distributed view diverged (killed={killed})"
        );
    }
    assert!(
        manager.notifications_total() > 0,
        "the appends must have produced notifications"
    );
    assert!(
        manager.reexecuted_units_total() > 0,
        "re-executions must have run remote units"
    );
}

/// `target/<profile>/prj-serve`, two levels up from this test executable
/// (`target/<profile>/deps/differential-<hash>`).
fn prj_serve_binary() -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let profile_dir = exe.parent()?.parent()?;
    let candidate = profile_dir.join(format!("prj-serve{}", std::env::consts::EXE_SUFFIX));
    candidate.exists().then_some(candidate)
}
