//! Engine-level observability: per-query span traces, the retained traces
//! served through a session, and the metric series behind the Prometheus
//! exposition.

use prj_api::{QueryRequest, Request, Response, TraceContext, TupleData};
use prj_engine::{EngineBuilder, QuerySpec, RelationId, Session};
use prj_geometry::Vector;
use std::sync::Arc;
use std::time::Duration;

fn table1_engine(shards: usize) -> (prj_engine::Engine, Vec<RelationId>) {
    let engine = EngineBuilder::default().threads(2).shards(shards).build();
    let mk = |rel: usize, rows: &[([f64; 2], f64)]| -> Vec<prj_access::Tuple> {
        rows.iter()
            .enumerate()
            .map(|(i, (x, s))| {
                prj_access::Tuple::new(prj_access::TupleId::new(rel, i), Vector::from(*x), *s)
            })
            .collect()
    };
    let tables = vec![
        mk(0, &[([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
        mk(1, &[([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
        mk(2, &[([-1.0, 1.0], 1.0), ([-2.0, -2.0], 0.4)]),
    ];
    let ids = tables
        .into_iter()
        .enumerate()
        .map(|(i, tuples)| engine.register(format!("R{}", i + 1), tuples))
        .collect();
    (engine, ids)
}

#[test]
fn a_query_produces_a_rooted_span_tree() {
    let (engine, ids) = table1_engine(1);
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 2);
    engine.query(spec).expect("query");
    let spans = engine.recorder().finished();
    let root = spans
        .iter()
        .find(|s| s.name == "query")
        .expect("root query span");
    assert_eq!(root.parent, None);
    assert!(root
        .attrs
        .contains(&("cache".to_string(), "miss".to_string())));
    assert!(root.attrs.iter().any(|(k, _)| k == "sum_depths"));
    let plan = spans.iter().find(|s| s.name == "plan").expect("plan span");
    assert_eq!(plan.parent, Some(root.id), "plan nests under the query");
    let unit = spans.iter().find(|s| s.name == "unit").expect("unit span");
    assert_eq!(unit.parent, Some(root.id), "unit nests under the query");
    assert!(unit
        .attrs
        .contains(&("remote".to_string(), "false".to_string())));
    // All spans of the query share its trace.
    assert!(spans.iter().all(|s| s.trace == root.trace));
}

#[test]
fn cache_hits_are_traced_as_hits() {
    let (engine, ids) = table1_engine(1);
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 2);
    engine.query(spec.clone()).expect("cold");
    engine.query(spec).expect("warm");
    let hits: Vec<_> = engine
        .recorder()
        .finished()
        .into_iter()
        .filter(|s| {
            s.name == "query" && s.attrs.contains(&("cache".to_string(), "hit".to_string()))
        })
        .collect();
    assert_eq!(hits.len(), 1, "the warm query is traced as a cache hit");
}

#[test]
fn sharded_queries_trace_units_and_a_merge() {
    let (engine, ids) = table1_engine(4);
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 8);
    engine.query(spec).expect("query");
    let spans = engine.recorder().finished();
    let root = spans.iter().find(|s| s.name == "query").expect("root");
    let units: Vec<_> = spans.iter().filter(|s| s.name == "unit").collect();
    assert!(!units.is_empty());
    assert!(units.iter().all(|u| u.parent == Some(root.id)));
    if units.len() > 1 {
        let merge = spans.iter().find(|s| s.name == "merge").expect("merge");
        assert_eq!(merge.parent, Some(root.id));
    }
}

#[test]
fn trace_capacity_zero_disables_tracing_but_not_metrics() {
    let (engine, ids) = {
        let engine = EngineBuilder::default()
            .threads(1)
            .trace_capacity(0)
            .build();
        let tuples: Vec<prj_access::Tuple> = (0..4)
            .map(|i| {
                prj_access::Tuple::new(
                    prj_access::TupleId::new(0, i),
                    Vector::from([i as f64, 0.0]),
                    0.5,
                )
            })
            .collect();
        let id = engine.register("r", tuples);
        (engine, vec![id])
    };
    engine
        .query(QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 1))
        .expect("query");
    assert!(engine.recorder().finished().is_empty(), "no spans recorded");
    let samples = engine.metrics_samples();
    let queries = samples
        .iter()
        .find(|s| s.name == "prj_queries_total")
        .expect("series");
    assert_eq!(queries.value, 1.0, "metrics still flow with tracing off");
}

#[test]
fn metrics_cover_latency_cache_and_relation_depths() {
    let (engine, ids) = table1_engine(1);
    let spec = QuerySpec::top_k(ids.clone(), Vector::from([0.0, 0.0]), 2);
    engine.query(spec.clone()).expect("cold");
    engine.query(spec).expect("warm");
    let samples = engine.metrics_samples();
    let value = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && !s.labels.iter().any(|(k, _)| k == "le"))
            .map(|s| s.value)
            .unwrap_or_else(|| panic!("missing series {name}"))
    };
    assert_eq!(value("prj_queries_total"), 2.0);
    assert_eq!(value("prj_cache_hits_total"), 1.0);
    assert_eq!(value("prj_cache_misses_total"), 1.0);
    assert_eq!(value("prj_query_latency_seconds_count"), 2.0);
    assert!(value("prj_sum_depths_total") > 0.0);
    // One depth series per joined relation, each with accesses.
    for id in &ids {
        let label = format!("r{}", id.index());
        let series = samples
            .iter()
            .find(|s| {
                s.name == "prj_relation_depth_total"
                    && s.labels == vec![("relation".to_string(), label.clone())]
            })
            .unwrap_or_else(|| panic!("missing relation series {label}"));
        assert!(series.value > 0.0);
    }
    // And the whole snapshot renders as valid exposition text.
    let text = engine.metrics_render();
    assert!(text.contains("# TYPE prj_query_latency_seconds histogram"));
    assert!(text.contains("prj_relation_depth_total{relation=\"r0\"}"));
}

#[test]
fn streamed_queries_record_spans_and_metrics_too() {
    let (engine, ids) = table1_engine(1);
    let spec = QuerySpec::top_k(ids, Vector::from([0.0, 0.0]), 4);
    let mut stream = engine.stream(spec).expect("stream");
    while stream.next_result().is_some() {}
    // The producer finishes the root span asynchronously after the last
    // result; wait for it briefly.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let spans = engine.recorder().finished();
        if let Some(root) = spans.iter().find(|s| s.name == "query") {
            assert!(root
                .attrs
                .contains(&("cache".to_string(), "miss".to_string())));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stream root span never finished"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let samples = engine.metrics_samples();
    let queries = samples
        .iter()
        .find(|s| s.name == "prj_queries_total")
        .expect("series");
    assert_eq!(queries.value, 1.0);
}

#[test]
fn a_slow_query_trace_is_served_as_soon_as_the_query_returns() {
    // A 1 ns threshold makes every executed query slow, a class the trace
    // store always retains.
    let engine = EngineBuilder::default()
        .threads(1)
        .slow_query_threshold(Some(Duration::from_nanos(1)))
        .build();
    let session = Session::new(Arc::new(engine));
    for (name, rows) in [
        ("R1", [([0.0, -0.5], 0.5), ([0.0, 1.0], 1.0)]),
        ("R2", [([1.0, 1.0], 1.0), ([-2.0, 2.0], 0.8)]),
    ] {
        let tuples = rows
            .iter()
            .map(|(x, s)| TupleData::new(x.to_vec(), *s))
            .collect();
        let response = session.handle(Request::RegisterRelation {
            name: name.to_string(),
            tuples,
        });
        assert!(matches!(response, Response::Registered { .. }));
    }
    let trace = 0x5eed_0024;
    let query = QueryRequest::new(vec!["R1".into(), "R2".into()], [0.0, 0.0])
        .k(2)
        .traced(TraceContext { trace, parent: 0 });
    let response = session.handle(Request::TopK(query));
    assert!(matches!(response, Response::Results { .. }), "{response:?}");

    // Fetched right after the query returns: no wait, no retry.
    let Response::Trace {
        trace: fetched,
        class,
        spans,
    } = session.handle(Request::FetchTrace { trace })
    else {
        panic!("the slow query's trace is retained");
    };
    assert_eq!(fetched, trace);
    assert_eq!(class, "slow");
    let root = spans
        .iter()
        .find(|s| s.name == "query")
        .expect("root query span");
    assert_eq!(
        root.parent, 0,
        "a wire parent of 0 makes the query the root"
    );
    for child in ["plan", "unit"] {
        let span = spans
            .iter()
            .find(|s| s.name == child)
            .unwrap_or_else(|| panic!("{child} span"));
        assert_eq!(span.parent, root.id, "{child} nests under the query");
    }

    let Response::Traces { traces } = session.handle(Request::ListTraces) else {
        panic!("trace listing");
    };
    let listed = traces
        .iter()
        .find(|t| t.trace == trace)
        .expect("the trace is listed");
    assert_eq!(listed.class, "slow");
    assert_eq!(listed.root, "query");
    assert_eq!(listed.spans, spans.len());

    let Response::Health(health) = session.handle(Request::Health) else {
        panic!("health report");
    };
    assert_eq!(health.traces_retained, traces.len() as u64);
    assert_eq!(health.traces_retained, 1, "only the query left a trace");
}
