//! Tail-sampled trace retention: a bounded, queryable store of finished
//! traces.
//!
//! The span [`Recorder`](crate::Recorder) ring answers "what ran recently?",
//! but it overwrites in arrival order, so the one trace an operator actually
//! wants — the query that errored, failed over, or blew the latency budget —
//! is exactly the one most likely to be gone by the time anyone looks. The
//! [`TraceStore`] fixes that with *tail sampling*: the retention decision is
//! made **after** the query finishes, when its outcome is known. Error,
//! failover and slow traces are always offered into the store; ordinary
//! successful traces are kept with a configurable per-mille probability
//! derived deterministically from the trace id (no RNG state, so a given
//! trace id makes the same decision in every process).
//!
//! Capacity is bounded. When full, the oldest `Ok`-class trace is evicted
//! first; interesting traces (error/failover/slow) are only displaced by
//! other interesting traces once no sampled-`Ok` entry remains.

use crate::trace::{splitmix64, Span, TraceId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The outcome class a finished trace was filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceClass {
    /// The query failed.
    Error,
    /// The query succeeded but needed a replica failover.
    Failover,
    /// The query exceeded the slow-query threshold.
    Slow,
    /// An ordinary successful query (subject to probabilistic sampling).
    Ok,
}

impl TraceClass {
    /// Stable lower-case name (used on the wire and in trace listings).
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceClass::Error => "error",
            TraceClass::Failover => "failover",
            TraceClass::Slow => "slow",
            TraceClass::Ok => "ok",
        }
    }

    /// Parses the wire name back into a class.
    pub fn parse(name: &str) -> Option<TraceClass> {
        match name {
            "error" => Some(TraceClass::Error),
            "failover" => Some(TraceClass::Failover),
            "slow" => Some(TraceClass::Slow),
            "ok" => Some(TraceClass::Ok),
            _ => None,
        }
    }

    /// `true` for the classes retained unconditionally.
    pub fn always_kept(&self) -> bool {
        !matches!(self, TraceClass::Ok)
    }
}

impl std::fmt::Display for TraceClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Retention policy of a [`TraceStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Maximum number of retained traces; `0` disables the store.
    pub capacity: usize,
    /// Per-mille probability (0..=1000) of keeping an [`TraceClass::Ok`]
    /// trace. Error/failover/slow traces bypass this gate.
    pub ok_sample_per_mille: u32,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            capacity: 128,
            ok_sample_per_mille: 100,
        }
    }
}

/// One retained trace: its classified outcome plus the full (already
/// cluster-stitched) span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredTrace {
    /// The trace identity.
    pub trace: TraceId,
    /// Why it was retained.
    pub class: TraceClass,
    /// Name of the root span (first span without a parent; falls back to
    /// the earliest span's name).
    pub root: String,
    /// Root span duration in µs (0 when the trace had no spans).
    pub duration_micros: u64,
    /// Every span of the trace, oldest first.
    pub spans: Vec<Span>,
}

impl StoredTrace {
    fn build(trace: TraceId, class: TraceClass, spans: Vec<Span>) -> StoredTrace {
        let root = spans
            .iter()
            .find(|s| s.parent.is_none())
            .or_else(|| spans.first());
        let (root_name, duration) = root
            .map(|s| (s.name.clone(), s.duration_micros))
            .unwrap_or_else(|| (String::new(), 0));
        StoredTrace {
            trace,
            class,
            root: root_name,
            duration_micros: duration,
            spans,
        }
    }
}

/// A bounded store of finished traces with tail-sampled retention.
pub struct TraceStore {
    policy: RetentionPolicy,
    inner: Mutex<VecDeque<StoredTrace>>,
    offered: AtomicU64,
    retained: AtomicU64,
    evicted: AtomicU64,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("policy", &self.policy)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

impl TraceStore {
    /// A store with the given retention policy.
    pub fn new(policy: RetentionPolicy) -> TraceStore {
        TraceStore {
            policy,
            inner: Mutex::new(VecDeque::new()),
            offered: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The retention decision for a finished trace, made *without* looking
    /// at its spans: interesting classes are always kept, `Ok` traces pass
    /// a deterministic per-mille gate keyed on the trace id. Callers can
    /// use this to skip span collection entirely for dropped traces.
    pub fn wants(&self, class: TraceClass, trace: TraceId) -> bool {
        if self.policy.capacity == 0 {
            return false;
        }
        class.always_kept()
            || splitmix64(trace.as_u64()) % 1000 < self.policy.ok_sample_per_mille as u64
    }

    /// Offers a finished trace. Returns `true` when it was retained.
    /// Re-offering a trace id replaces the previous entry (a re-executed
    /// query supersedes its earlier spans).
    pub fn offer(&self, class: TraceClass, trace: TraceId, spans: Vec<Span>) -> bool {
        self.offered.fetch_add(1, Ordering::Relaxed);
        if !self.wants(class, trace) {
            return false;
        }
        let entry = StoredTrace::build(trace, class, spans);
        let mut inner = self.inner.lock().expect("trace store lock");
        if let Some(pos) = inner.iter().position(|t| t.trace == trace) {
            inner.remove(pos);
        }
        while inner.len() >= self.policy.capacity {
            // Evict the oldest Ok trace first, so sampled background
            // traffic never displaces an error/failover/slow trace.
            let victim = inner
                .iter()
                .position(|t| t.class == TraceClass::Ok)
                .unwrap_or(0);
            inner.remove(victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        inner.push_back(entry);
        self.retained.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// The retained trace with this id, if still present.
    pub fn fetch(&self, trace: TraceId) -> Option<StoredTrace> {
        self.inner
            .lock()
            .expect("trace store lock")
            .iter()
            .find(|t| t.trace == trace)
            .cloned()
    }

    /// Every retained trace, oldest first, *without* span bodies (the
    /// listing shape: identity, class, root name, duration, span count).
    pub fn list(&self) -> Vec<(StoredTrace, usize)> {
        self.inner
            .lock()
            .expect("trace store lock")
            .iter()
            .map(|t| {
                let spans = t.spans.len();
                (
                    StoredTrace {
                        trace: t.trace,
                        class: t.class,
                        root: t.root.clone(),
                        duration_micros: t.duration_micros,
                        spans: Vec::new(),
                    },
                    spans,
                )
            })
            .collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace store lock").len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traces offered so far (kept or not).
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Traces retained so far.
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// Traces evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SpanId;

    fn spans_for(trace: TraceId, root: &str) -> Vec<Span> {
        vec![Span {
            name: root.to_string(),
            trace,
            id: SpanId::from_u64(7).unwrap(),
            parent: None,
            start_micros: 10,
            duration_micros: 1234,
            attrs: Vec::new(),
        }]
    }

    #[test]
    fn interesting_classes_are_always_retained() {
        let store = TraceStore::new(RetentionPolicy {
            capacity: 8,
            ok_sample_per_mille: 0,
        });
        for (i, class) in [TraceClass::Error, TraceClass::Failover, TraceClass::Slow]
            .into_iter()
            .enumerate()
        {
            let trace = TraceId::from_u64(i as u64 + 1).unwrap();
            assert!(store.offer(class, trace, spans_for(trace, "query")));
            let stored = store.fetch(trace).unwrap();
            assert_eq!(stored.class, class);
            assert_eq!(stored.root, "query");
            assert_eq!(stored.duration_micros, 1234);
        }
        assert_eq!(store.len(), 3);
    }

    #[test]
    fn ok_traces_are_sampled_deterministically() {
        let keep_all = TraceStore::new(RetentionPolicy {
            capacity: 2048,
            ok_sample_per_mille: 1000,
        });
        let keep_none = TraceStore::new(RetentionPolicy {
            capacity: 2048,
            ok_sample_per_mille: 0,
        });
        let half = TraceStore::new(RetentionPolicy {
            capacity: 2048,
            ok_sample_per_mille: 500,
        });
        let mut kept = 0;
        for i in 1..=1000u64 {
            let trace = TraceId::from_u64(i).unwrap();
            assert!(keep_all.wants(TraceClass::Ok, trace));
            assert!(!keep_none.wants(TraceClass::Ok, trace));
            // Decisions are a pure function of the id.
            assert_eq!(
                half.wants(TraceClass::Ok, trace),
                half.wants(TraceClass::Ok, trace)
            );
            if half.offer(TraceClass::Ok, trace, Vec::new()) {
                kept += 1;
            }
        }
        // The splitmix64 gate should land in the right ballpark.
        assert!((350..=650).contains(&kept), "kept {kept} of 1000 at 50%");
        assert_eq!(half.retained(), kept as u64);
        assert_eq!(half.offered(), 1000);
    }

    #[test]
    fn capacity_evicts_ok_traces_before_interesting_ones() {
        let store = TraceStore::new(RetentionPolicy {
            capacity: 3,
            ok_sample_per_mille: 1000,
        });
        let slow = TraceId::from_u64(100).unwrap();
        store.offer(TraceClass::Slow, slow, spans_for(slow, "slow-query"));
        for i in 1..=5u64 {
            let trace = TraceId::from_u64(i).unwrap();
            store.offer(TraceClass::Ok, trace, spans_for(trace, "query"));
        }
        assert_eq!(store.len(), 3);
        assert!(
            store.fetch(slow).is_some(),
            "slow trace must survive Ok-trace churn"
        );
        assert!(store.evicted() >= 2);
    }

    #[test]
    fn reoffering_a_trace_replaces_it() {
        let store = TraceStore::new(RetentionPolicy::default());
        let trace = TraceId::from_u64(9).unwrap();
        store.offer(TraceClass::Slow, trace, spans_for(trace, "first"));
        store.offer(TraceClass::Error, trace, spans_for(trace, "second"));
        assert_eq!(store.len(), 1);
        let stored = store.fetch(trace).unwrap();
        assert_eq!(stored.class, TraceClass::Error);
        assert_eq!(stored.root, "second");
    }

    #[test]
    fn zero_capacity_disables_the_store() {
        let store = TraceStore::new(RetentionPolicy {
            capacity: 0,
            ok_sample_per_mille: 1000,
        });
        let trace = TraceId::from_u64(3).unwrap();
        assert!(!store.wants(TraceClass::Error, trace));
        assert!(!store.offer(TraceClass::Error, trace, Vec::new()));
        assert!(store.is_empty());
    }

    #[test]
    fn listing_reports_summaries_without_span_bodies() {
        let store = TraceStore::new(RetentionPolicy::default());
        let trace = TraceId::from_u64(11).unwrap();
        store.offer(TraceClass::Failover, trace, spans_for(trace, "query"));
        let listed = store.list();
        assert_eq!(listed.len(), 1);
        let (summary, span_count) = &listed[0];
        assert_eq!(summary.trace, trace);
        assert_eq!(summary.class, TraceClass::Failover);
        assert_eq!(summary.root, "query");
        assert!(summary.spans.is_empty());
        assert_eq!(*span_count, 1);
    }
}
