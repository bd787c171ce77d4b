//! Engine observability: the pre-registered metric handles and the span
//! recorder every query path reports into.
//!
//! The engine instruments itself against `prj-obs` primitives: one
//! [`Recorder`] ring per engine (capacity set by
//! [`EngineBuilder::trace_capacity`](crate::EngineBuilder::trace_capacity),
//! 0 disables tracing entirely) and one [`MetricsRegistry`] whose hot-path
//! handles are resolved **once** at engine build time — recording a query
//! is a handful of atomic RMWs, never a registry lookup.
//!
//! ## Metric names
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `prj_queries_total` | counter | queries served (cold + cached) |
//! | `prj_cache_hits_total` | counter | queries answered from the result cache |
//! | `prj_cache_misses_total` | counter | queries that executed the operator |
//! | `prj_query_latency_seconds` | histogram | end-to-end query latency |
//! | `prj_unit_latency_seconds` | histogram | per-execution-unit latency |
//! | `prj_sum_depths_total` | counter | sorted accesses (the paper's `sumDepths`) |
//! | `prj_bound_updates_total` | counter | `updateBound` evaluations |
//! | `prj_relation_depth_total{relation="rN"}` | counter | accesses into relation `N` |
//! | `prj_compactions_total` | counter | shard deltas folded into their base |
//! | `prj_delta_tuples` | gauge | tuples currently waiting in shard deltas |
//!
//! The cluster layer adds `prj_failovers_total` and
//! `prj_remote_units_total` through the same registry. The subscription
//! layer (`prj-sub`) adds `prj_subscriptions_active` (gauge),
//! `prj_subscription_notifications_total`,
//! `prj_subscription_reexecuted_units_total`, and
//! `prj_subscription_suppressed_total` (counters).
//!
//! ## Trace anatomy
//!
//! One query = one [`TraceId`]. The engine emits a root `query` span (a
//! *child* span when the request carried a [`QueryTrace`] from an upstream
//! coordinator), a `plan` span covering unit preparation, one `unit` span
//! per driving-shard execution unit (annotated `shard`, `remote`, `cache`),
//! and a `merge` span when several units recombine. Workers executing
//! remote units ship their `execute_unit`/`run` spans back over the wire;
//! the coordinator stitches them under the dispatching `unit` span via
//! [`Recorder::import`].
//!
//! ## Trace retention
//!
//! An executed query files its trace on the thread that ran it, right after
//! its root span finishes ([`EngineObs::trace_event`]): the recorder hands
//! back that trace's spans alone, the outcome is classified, and the
//! [`TraceStore`] keeps or drops the trace. There is no background thread
//! or queue, and a trace is fetchable as soon as its query returns.

use crate::stats::QueryRecord;
use prj_api::{MetricKind, MetricSample, SpanRecord};
use prj_obs::metrics::SampleKind;
use prj_obs::trace::RemoteSpan;
use prj_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Recorder, RetentionPolicy, Sample, SpanId,
    TraceClass, TraceId, TraceStore,
};
use std::sync::Arc;
use std::time::Duration;

/// The trace identity a query executes under: the cluster-wide trace id
/// plus the span the query's root span should attach to (None for a root
/// query, `Some` when an upstream coordinator dispatched it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTrace {
    /// The trace every span of this query joins.
    pub trace: TraceId,
    /// The upstream span to parent the query's root span under.
    pub parent: Option<SpanId>,
}

/// The engine's observability bundle: recorder, registry, and the metric
/// handles the query paths update.
#[derive(Debug)]
pub struct EngineObs {
    recorder: Arc<Recorder>,
    registry: Arc<MetricsRegistry>,
    queries_total: Arc<Counter>,
    cache_hits_total: Arc<Counter>,
    cache_misses_total: Arc<Counter>,
    sum_depths_total: Arc<Counter>,
    bound_updates_total: Arc<Counter>,
    query_latency: Arc<Histogram>,
    unit_latency: Arc<Histogram>,
    compactions_total: Arc<Counter>,
    delta_tuples: Arc<Gauge>,
    slow_threshold: Option<Duration>,
    trace_store: TraceStore,
}

impl EngineObs {
    /// An observability bundle whose recorder retains `trace_capacity`
    /// spans (0 = tracing disabled) and whose slow-query log fires for
    /// queries slower than `slow_threshold`.
    pub fn new(trace_capacity: usize, slow_threshold: Option<Duration>) -> EngineObs {
        let registry = Arc::new(MetricsRegistry::new());
        let recorder = Arc::new(Recorder::new(trace_capacity));
        // Tail-sampled retention rides on tracing: with the recorder off
        // there are no spans to retain, so the store is disabled too.
        let trace_store = TraceStore::new(if trace_capacity > 0 {
            RetentionPolicy::default()
        } else {
            RetentionPolicy {
                capacity: 0,
                ok_sample_per_mille: 0,
            }
        });
        EngineObs {
            queries_total: registry.counter("prj_queries_total", &[]),
            cache_hits_total: registry.counter("prj_cache_hits_total", &[]),
            cache_misses_total: registry.counter("prj_cache_misses_total", &[]),
            sum_depths_total: registry.counter("prj_sum_depths_total", &[]),
            bound_updates_total: registry.counter("prj_bound_updates_total", &[]),
            query_latency: registry.histogram("prj_query_latency_seconds", &[]),
            unit_latency: registry.histogram("prj_unit_latency_seconds", &[]),
            compactions_total: registry.counter("prj_compactions_total", &[]),
            delta_tuples: registry.gauge("prj_delta_tuples", &[]),
            registry,
            recorder,
            slow_threshold,
            trace_store,
        }
    }

    /// The `prj_compactions_total` counter (folded shard deltas), updated
    /// by the engine's background compactor.
    pub fn compactions_total(&self) -> Arc<Counter> {
        Arc::clone(&self.compactions_total)
    }

    /// The `prj_delta_tuples` gauge (tuples waiting in shard deltas).
    pub fn delta_tuples(&self) -> Arc<Gauge> {
        Arc::clone(&self.delta_tuples)
    }

    /// The span recorder (shared with every query's guards).
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The metrics registry; layers above the engine (cluster, serve)
    /// register their own series here so one snapshot covers the process.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Folds one served query into the metric series. Pre-registered
    /// handles make the common path pure atomics; only the per-relation
    /// depth series (executed queries only) resolve through the registry.
    pub fn record_query(&self, record: &QueryRecord) {
        self.queries_total.inc();
        if record.from_cache {
            self.cache_hits_total.inc();
        } else {
            self.cache_misses_total.inc();
        }
        self.query_latency.record(record.latency);
        self.sum_depths_total.add(record.sum_depths as u64);
        self.bound_updates_total.add(record.bound_updates as u64);
        for unit in &record.units {
            self.unit_latency.record(unit.latency);
        }
        for (relation, depth) in &record.relation_depths {
            let label = format!("r{relation}");
            self.registry
                .counter("prj_relation_depth_total", &[("relation", &label)])
                .add(*depth);
        }
    }

    /// Observes one execution-unit latency (the worker-side entry point,
    /// where units arrive outside a whole-query record).
    pub fn observe_unit(&self, latency: Duration) {
        self.unit_latency.record(latency);
    }

    /// The tail-sampled trace store (the `FetchTrace`/`ListTraces`
    /// backing). Disabled (capacity 0) when tracing is off.
    pub fn trace_store(&self) -> &TraceStore {
        &self.trace_store
    }

    /// Files a successfully finished query's trace, classed slow or ok by
    /// the configured threshold (see [`EngineObs::trace_event`]).
    pub fn query_finished(&self, trace: Option<TraceId>, latency: Duration) {
        let class = match self.slow_threshold {
            Some(threshold) if latency >= threshold => TraceClass::Slow,
            _ => TraceClass::Ok,
        };
        self.trace_event(trace, class, latency);
    }

    /// Files one finished trace with an explicit outcome class (e.g.
    /// [`TraceClass::Error`]), on the caller's thread: collects the
    /// trace's spans (call it after the root span has finished), upgrades
    /// an ok or slow class to `failover` when a `failover` event span is
    /// present (a replica failover is recorded only as that span), writes
    /// the slow-query stderr dump, and offers the trace to the
    /// tail-sampled store, so it is fetchable as soon as the query returns.
    pub fn trace_event(&self, trace: Option<TraceId>, class: TraceClass, latency: Duration) {
        let Some(trace) = trace.filter(|_| self.recorder.enabled()) else {
            return;
        };
        let spans = self.recorder.trace(trace);
        let class = if matches!(class, TraceClass::Ok | TraceClass::Slow)
            && spans.iter().any(|s| s.name == "failover")
        {
            TraceClass::Failover
        } else {
            class
        };
        if let Some(threshold) = self.slow_threshold.filter(|t| latency >= *t) {
            let mut out = format!(
                "slow-query trace={trace} latency_us={} threshold_us={} spans={}\n",
                latency.as_micros(),
                threshold.as_micros(),
                spans.len(),
            );
            for span in &spans {
                out.push_str("  ");
                out.push_str(&span.to_line());
                out.push('\n');
            }
            eprint!("{out}");
        }
        self.trace_store.offer(class, trace, spans);
    }
}

impl Default for EngineObs {
    /// The engine default: a 4096-span ring, no slow-query log.
    fn default() -> Self {
        EngineObs::new(4096, None)
    }
}

/// Converts registry samples into their `prj-api` wire shape.
pub fn to_api_samples(samples: &[Sample]) -> Vec<MetricSample> {
    samples
        .iter()
        .map(|s| MetricSample {
            name: s.name.clone(),
            labels: s.labels.clone(),
            kind: match s.kind {
                SampleKind::Counter => MetricKind::Counter,
                SampleKind::Gauge => MetricKind::Gauge,
                SampleKind::Histogram => MetricKind::Histogram,
            },
            value: s.value,
        })
        .collect()
}

/// Converts wire samples back into registry samples (what a coordinator
/// does with a worker's report before rendering a cluster-wide exposition).
pub fn from_api_samples(samples: &[MetricSample]) -> Vec<Sample> {
    samples
        .iter()
        .map(|s| Sample {
            name: s.name.clone(),
            labels: s.labels.clone(),
            kind: match s.kind {
                MetricKind::Counter => SampleKind::Counter,
                MetricKind::Gauge => SampleKind::Gauge,
                MetricKind::Histogram => SampleKind::Histogram,
            },
            value: s.value,
        })
        .collect()
}

/// Converts recorder spans into their wire records. `parent` 0 encodes
/// "no parent"; attributes don't travel — the wire span shape is identity
/// plus timing.
pub fn to_api_spans(spans: &[prj_obs::Span]) -> Vec<SpanRecord> {
    spans
        .iter()
        .map(|s| SpanRecord {
            name: s.name.clone(),
            id: s.id.as_u64(),
            parent: s.parent.map_or(0, |p| p.as_u64()),
            start_micros: s.start_micros,
            duration_micros: s.duration_micros,
        })
        .collect()
}

/// Converts wire span records into the recorder's import shape (`parent` 0
/// on the wire means "batch root").
pub fn to_remote_spans(spans: &[SpanRecord]) -> Vec<RemoteSpan> {
    spans
        .iter()
        .map(|s| RemoteSpan {
            name: s.name.clone(),
            id: s.id,
            parent: (s.parent != 0).then_some(s.parent),
            start_micros: s.start_micros,
            duration_micros: s.duration_micros,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::UnitRecord;

    #[test]
    fn record_query_updates_every_series() {
        let obs = EngineObs::new(16, None);
        obs.record_query(&QueryRecord {
            latency: Duration::from_micros(500),
            sum_depths: 12,
            bound_updates: 13,
            from_cache: false,
            units: vec![UnitRecord {
                shard: 0,
                sum_depths: 12,
                latency: Duration::from_micros(400),
            }],
            relation_depths: vec![(0, 7), (3, 5)],
        });
        obs.record_query(&QueryRecord {
            latency: Duration::from_micros(20),
            from_cache: true,
            ..QueryRecord::default()
        });
        let samples = obs.registry().snapshot();
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
        assert_eq!(value("prj_sum_depths_total"), 12.0);
        assert_eq!(value("prj_bound_updates_total"), 13.0);
        assert_eq!(value("prj_query_latency_seconds_count"), 2.0);
        assert_eq!(value("prj_unit_latency_seconds_count"), 1.0);
        let r3 = samples
            .iter()
            .find(|s| {
                s.name == "prj_relation_depth_total"
                    && s.labels == vec![("relation".to_string(), "r3".to_string())]
            })
            .expect("relation series");
        assert_eq!(r3.value, 5.0);
    }

    #[test]
    fn sample_conversions_round_trip() {
        let obs = EngineObs::new(0, None);
        obs.record_query(&QueryRecord::default());
        let native = obs.registry().snapshot();
        let api = to_api_samples(&native);
        assert_eq!(from_api_samples(&api), native);
    }

    #[test]
    fn wire_spans_convert_to_import_shape() {
        let spans = vec![
            SpanRecord {
                name: "execute_unit".to_string(),
                id: 4,
                parent: 0,
                start_micros: 100,
                duration_micros: 50,
            },
            SpanRecord {
                name: "run".to_string(),
                id: 5,
                parent: 4,
                start_micros: 110,
                duration_micros: 30,
            },
        ];
        let remote = to_remote_spans(&spans);
        assert_eq!(remote[0].parent, None, "wire parent 0 is the batch root");
        assert_eq!(remote[1].parent, Some(4));
        assert_eq!(remote[1].name, "run");
    }
}
