//! Exactness of the standing-query skip: a subscription the bound lets the
//! manager skip must end up exactly where a re-run would have left it.
//!
//! Every query is subscribed twice: under `euclidean-log`, which opts in to
//! the skip, and under `opaque-log`, a test-only registry scoring with the
//! same scores whose `euclidean_weights` is `None`, so it re-runs on every
//! append. After every append both feeds' replayed views must be
//! bit-identical to each other and to a fresh `TopK`. Covered: `S ∈ {1, 4}`,
//! both access kinds, the delta lane with folds, a self-join subscription,
//! `k` larger than the result set, and coordinates beyond and within the
//! solo-score coordinate limit. Edge appends put a tuple exactly where the
//! skip's bound is attained, with a score straddling the delivered K-th
//! score, so a bound loosened by even 0.02 fails. The run must actually
//! skip.

use prj_access::AccessKind;
use prj_api::{
    apply_events, QueryRequest, Request, Response, ResultRow, ScoringSelector, TupleData,
};
use prj_core::scoring::{fingerprint as scoring_fingerprint, Member};
use prj_core::{EuclideanLogScore, ScoringFunction, ScoringSpec};
use prj_engine::{Dispatch, EngineBuilder, Session};
use prj_geometry::Vector;
use prj_sub::SubscriptionManager;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Eq. 2 with unit weights, minus the opt-in: same scores, never skipped.
#[derive(Debug)]
struct Opaque(EuclideanLogScore);

impl ScoringFunction for Opaque {
    fn proximity_weighted_score(&self, sigma: f64, dq: f64, dmu: f64) -> f64 {
        self.0.proximity_weighted_score(sigma, dq, dmu)
    }

    fn score_members(&self, members: &[Member<'_>], query: &Vector) -> f64 {
        self.0.score_members(members, query)
    }

    fn name(&self) -> &'static str {
        "opaque-log"
    }
}

impl ScoringSpec for Opaque {
    fn cache_fingerprint(&self) -> u64 {
        scoring_fingerprint("opaque-log", &[])
    }
}

/// The query points of the `a ⋈ b` subscriptions.
const POINTS: [[f64; 2]; 3] = [[0.2, -0.1], [-1.5, 1.0], [2.0, 2.0]];

/// Identity + exact score bits.
fn fingerprint(rows: &[ResultRow]) -> Vec<(Vec<(usize, usize)>, u64)> {
    rows.iter()
        .map(|r| (r.tuples.clone(), r.score.to_bits()))
        .collect()
}

fn tuples(rng: &mut StdRng, n: usize) -> Vec<TupleData> {
    (0..n)
        .map(|_| {
            TupleData::new(
                vec![rng.random_range(-3.0..3.0), rng.random_range(-3.0..3.0)],
                rng.random_range(0.05..1.0),
            )
        })
        .collect()
}

/// One subscribed view: the query, its feed, and the replayed rows.
struct View {
    query: QueryRequest,
    feed: Receiver<Response>,
    rows: Vec<ResultRow>,
    seq: u64,
}

impl View {
    fn subscribe(manager: &SubscriptionManager, query: QueryRequest) -> View {
        let Ok(Dispatch::Subscribed { ack, feed }) = manager.subscribe(query.clone()) else {
            panic!("subscribe failed");
        };
        let Response::Subscribed { rows, .. } = ack else {
            panic!("unexpected ack: {ack:?}");
        };
        View {
            query,
            feed,
            rows,
            seq: 0,
        }
    }

    fn drain(&mut self) {
        while let Ok(response) = self.feed.try_recv() {
            let Response::Notify(note) = response else {
                panic!("non-notify response on the feed: {response:?}");
            };
            self.seq += 1;
            assert_eq!(note.seq, self.seq, "gapless sequence");
            assert!(note.fin.is_none(), "unexpected fin {:?}", note.fin);
            self.rows = apply_events(&self.rows, &note.events, note.total).expect("replay");
        }
    }
}

fn fresh(session: &Session, query: &QueryRequest) -> Vec<ResultRow> {
    match session.handle(Request::TopK(query.clone())) {
        Response::Results { rows, .. } => rows,
        other => panic!("fresh query failed: {other:?}"),
    }
}

/// An appended tuple: hot (near a query point), cold (far and weak), mid,
/// beyond the coordinate limit (never skipped), or large but within it.
fn append_tuple(rng: &mut StdRng) -> TupleData {
    let p = POINTS[rng.random_range(0..POINTS.len())];
    match rng.random_range(0..10) {
        0..=2 => TupleData::new(
            vec![
                p[0] + rng.random_range(-0.3..0.3),
                p[1] + rng.random_range(-0.3..0.3),
            ],
            rng.random_range(0.5..1.0),
        ),
        3..=6 => TupleData::new(
            vec![rng.random_range(5.0..8.0), rng.random_range(-8.0..-5.0)],
            rng.random_range(0.05..0.3),
        ),
        7 => tuples(rng, 1).remove(0),
        8 => TupleData::new(vec![1e200, -1e130], rng.random_range(0.5..1.0)),
        _ => TupleData::new(vec![-1e100, 1e60], rng.random_range(0.5..1.0)),
    }
}

fn run_case(shards: usize, access: AccessKind, delta: bool, seed: u64) -> u64 {
    let tag = format!("S={shards} access={access:?} delta={delta}");
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = Arc::new(
        EngineBuilder::default()
            .threads(2)
            .shards(shards)
            .delta_threshold(if delta { 4 } else { 0 })
            .cache_capacity(0)
            .unit_cache_capacity(0)
            .build(),
    );
    engine.scoring_registry().register("opaque-log", |_| {
        Ok(Arc::new(Opaque(EuclideanLogScore::default())) as _)
    });
    let compactor = engine.compactor().cloned();
    if let Some(compactor) = &compactor {
        compactor.pause();
    }
    let session = Session::new(Arc::clone(&engine));
    let manager = SubscriptionManager::new(Session::new(Arc::clone(&engine)), 0);
    for (name, n) in [("a", 30), ("b", 30), ("c", 5)] {
        let mut rows = tuples(&mut rng, n);
        if name == "b" {
            // A member far beyond the coordinate limit, from the start.
            rows.push(TupleData::new(vec![1e200, 1e200], 0.9));
            // `b`'s best score sits on each query point, so a tuple
            // appended to `a` at a query point attains the skip's bound.
            rows.extend(POINTS.iter().map(|p| TupleData::new(p.to_vec(), 1.0)));
        }
        let registered = session.handle(Request::RegisterRelation {
            name: name.to_string(),
            tuples: rows,
        });
        assert!(matches!(registered, Response::Registered { .. }), "{tag}");
    }
    let mut queries: Vec<QueryRequest> = POINTS
        .iter()
        .map(|p| QueryRequest::new(vec!["a".into(), "b".into()], *p).k(5))
        .collect();
    // A self-join, and a k larger than the result set.
    queries.push(QueryRequest::new(vec!["a".into(), "a".into()], [0.0, 0.5]).k(4));
    queries.push(QueryRequest::new(vec!["c".into()], [0.0, 0.0]).k(64));
    let mut pairs: Vec<(View, View)> = queries
        .into_iter()
        .map(|q| {
            let q = q.access(access);
            let opaque = q.clone().scoring(ScoringSelector::named("opaque-log"));
            (
                View::subscribe(&manager, q),
                View::subscribe(&manager, opaque),
            )
        })
        .collect();
    for step in 0..40 {
        let (relation, batch) = if rng.random_range(0..4) == 0 {
            // An edge append: at a query point, scoring within 0.05 of that
            // subscription's K-th score with `b`'s best member (ln 1 = 0).
            let i = rng.random_range(0..POINTS.len());
            let kth = pairs[i].0.rows[4].score;
            let score = (kth + rng.random_range(-0.05..0.05)).exp();
            ("a", vec![TupleData::new(POINTS[i].to_vec(), score)])
        } else {
            let relation = ["a", "b", "c"][rng.random_range(0..3usize)];
            let batch = (0..rng.random_range(1..3))
                .map(|_| append_tuple(&mut rng))
                .collect();
            (relation, batch)
        };
        let appended = session.handle(Request::AppendTuples {
            relation: relation.into(),
            tuples: batch,
        });
        assert!(matches!(appended, Response::Appended { .. }), "{tag}");
        if step % 5 == 4 {
            if let Some(compactor) = &compactor {
                compactor.step();
            }
        }
        manager.quiesce();
        for (euclid, opaque) in &mut pairs {
            euclid.drain();
            opaque.drain();
            let expected = fingerprint(&fresh(&session, &euclid.query));
            assert_eq!(fingerprint(&euclid.rows), expected, "{tag} step {step}");
            assert_eq!(fingerprint(&opaque.rows), expected, "{tag} step {step}");
            assert_eq!(
                fingerprint(&fresh(&session, &opaque.query)),
                expected,
                "{tag} step {step}: the two scorings disagree"
            );
        }
    }
    manager.skipped_total()
}

#[test]
fn skipped_subscriptions_replay_exactly_like_rerun_ones() {
    let mut seed = 0x5C1F_0000;
    for shards in [1usize, 4] {
        for access in [AccessKind::Distance, AccessKind::Score] {
            for delta in [false, true] {
                seed += 1;
                let skipped = run_case(shards, access, delta, seed);
                assert!(
                    skipped > 0,
                    "S={shards} access={access:?} delta={delta}: nothing skipped"
                );
            }
        }
    }
}
