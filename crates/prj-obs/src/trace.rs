//! Structured tracing: spans, trace identity, and the ring-buffer recorder.
//!
//! One query = one [`TraceId`], shared by every span the query produces —
//! including spans produced in *other processes* (a cluster worker executing
//! a unit) that are stitched back into the coordinator's recorder via
//! [`Recorder::import`]. Spans form a tree through parent links; timing is
//! monotonic (`Instant`-based), expressed as microseconds since the
//! process-local trace epoch.
//!
//! The [`Recorder`] keeps the last `capacity` finished spans behind one
//! mutex, indexed by trace. Beginning a span is one atomic id allocation
//! plus an `Instant` read; finishing it takes the mutex for a constant-time
//! push (at capacity, plus the eviction of the oldest span); and
//! [`Recorder::trace`] clones only the asked trace's spans, however full
//! the ring is. A recorder built with capacity 0 is fully disabled: spans
//! become no-ops with no allocation at all.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The process-local monotonic epoch all span timestamps are offsets from.
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

/// Process-wide span-id allocator (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Mixed into generated trace ids so two engines in one process diverge.
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Microseconds since the process trace epoch (monotonic).
pub fn now_micros() -> u64 {
    TRACE_EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The identity shared by every span of one query, across processes.
/// Nonzero by construction; carried on the wire as a plain `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Generates a fresh, effectively-unique trace id (wall clock ⊕ pid ⊕
    /// process counter, avalanche-mixed).
    pub fn generate() -> TraceId {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seed = nanos
            ^ ((std::process::id() as u64) << 32)
            ^ TRACE_COUNTER
                .fetch_add(1, Ordering::Relaxed)
                .wrapping_mul(0x2545_f491_4f6c_dd1d);
        let mixed = splitmix64(seed);
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// Reconstructs a trace id received over the wire. Returns `None` for
    /// the reserved zero value.
    pub fn from_u64(raw: u64) -> Option<TraceId> {
        (raw != 0).then_some(TraceId(raw))
    }

    /// The raw wire representation.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A span's process-local identity (0 is reserved for "no parent").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Allocates the next process-local span id.
    fn next() -> SpanId {
        SpanId(NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// Reconstructs a span id from its wire representation. Returns `None`
    /// for the reserved zero value.
    pub fn from_u64(raw: u64) -> Option<SpanId> {
        (raw != 0).then_some(SpanId(raw))
    }

    /// The raw wire representation.
    pub fn as_u64(&self) -> u64 {
        self.0
    }
}

/// One finished operation: a named interval inside a trace, linked to its
/// parent span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation name (`query`, `plan`, `unit`, `merge`, `execute_unit`,
    /// `failover`, …).
    pub name: String,
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's identity.
    pub id: SpanId,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start time, µs since the process trace epoch.
    pub start_micros: u64,
    /// Duration in µs (0 for point events).
    pub duration_micros: u64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(String, String)>,
}

impl Span {
    /// Renders the span as a single log line (the slow-query dump format).
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "span trace={} id={} parent={} name={} start_us={} dur_us={}",
            self.trace,
            self.id.as_u64(),
            self.parent.map(|p| p.as_u64()).unwrap_or(0),
            self.name,
            self.start_micros,
            self.duration_micros,
        );
        for (k, v) in &self.attrs {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}

/// A span received from another process (the wire shape of a worker's
/// spans), before [`Recorder::import`] re-parents it locally.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteSpan {
    /// Operation name.
    pub name: String,
    /// The remote process's span id (only meaningful relative to `parent`
    /// links within the same batch).
    pub id: u64,
    /// Parent id within the batch; `None`/unknown ids become children of
    /// the import attachment point.
    pub parent: Option<u64>,
    /// Start in the remote process's µs clock.
    pub start_micros: u64,
    /// Duration in µs.
    pub duration_micros: u64,
}

/// The in-memory ring of the last `capacity` finished spans, indexed by
/// trace so one trace's spans come out without touching any other's.
///
/// Capacity 0 disables recording entirely; every guard becomes a no-op.
pub struct Recorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

/// The retained spans: the trace of each, in arrival order (one entry per
/// span, so its length is the ring's fill), and each trace's spans, also
/// in arrival order. The oldest span overall is therefore the front of the
/// trace named by the front of `arrivals`.
#[derive(Default)]
struct Ring {
    arrivals: VecDeque<TraceId>,
    traces: HashMap<TraceId, VecDeque<Span>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Recorder {
    /// A recorder retaining the last `capacity` finished spans (0 =
    /// disabled).
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            capacity,
            ring: Mutex::new(Ring::default()),
        }
    }

    /// A recorder that records nothing (the zero-overhead configuration).
    pub fn disabled() -> Recorder {
        Recorder::new(0)
    }

    /// `false` when the recorder was built with capacity 0.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Begins a root span of `trace`.
    pub fn span(self: &Arc<Self>, trace: TraceId, name: &str) -> SpanGuard {
        self.begin(trace, None, name)
    }

    /// Begins a span under `parent`.
    pub fn child(self: &Arc<Self>, trace: TraceId, parent: SpanId, name: &str) -> SpanGuard {
        self.begin(trace, Some(parent), name)
    }

    fn begin(self: &Arc<Self>, trace: TraceId, parent: Option<SpanId>, name: &str) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                recorder: Arc::clone(self),
                span: None,
                started: Instant::now(),
            };
        }
        SpanGuard {
            recorder: Arc::clone(self),
            span: Some(Span {
                name: name.to_string(),
                trace,
                id: SpanId::next(),
                parent,
                start_micros: now_micros(),
                duration_micros: 0,
                attrs: Vec::new(),
            }),
            started: Instant::now(),
        }
    }

    /// Records a zero-duration point event (e.g. a replica failover).
    pub fn event(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        attrs: Vec<(String, String)>,
    ) {
        if !self.enabled() {
            return;
        }
        self.record(Span {
            name: name.to_string(),
            trace,
            id: SpanId::next(),
            parent,
            start_micros: now_micros(),
            duration_micros: 0,
            attrs,
        });
    }

    /// Stores one finished span in the ring, evicting the oldest span once
    /// the ring holds `capacity`.
    pub fn record(&self, span: Span) {
        if !self.enabled() {
            return;
        }
        let mut guard = self.ring.lock().expect("span ring lock");
        let ring = &mut *guard;
        if ring.arrivals.len() == self.capacity {
            let oldest = ring.arrivals.pop_front().expect("a full ring");
            if let Entry::Occupied(mut spans) = ring.traces.entry(oldest) {
                spans.get_mut().pop_front();
                if spans.get().is_empty() {
                    spans.remove();
                }
            }
        }
        ring.arrivals.push_back(span.trace);
        ring.traces.entry(span.trace).or_default().push_back(span);
    }

    /// Stitches spans from another process into `trace`, re-identified with
    /// fresh local ids. Parent links *within* the batch are preserved;
    /// spans whose parent is absent from the batch attach to `attach_to`.
    /// Remote clocks are not comparable to ours, so starts are rebased:
    /// the batch's earliest start maps to `attach_start_micros`.
    pub fn import(
        &self,
        trace: TraceId,
        attach_to: SpanId,
        attach_start_micros: u64,
        spans: &[RemoteSpan],
    ) {
        if !self.enabled() || spans.is_empty() {
            return;
        }
        let base = spans.iter().map(|s| s.start_micros).min().unwrap_or(0);
        let fresh: Vec<SpanId> = spans.iter().map(|_| SpanId::next()).collect();
        let local_id = |remote: u64| -> Option<SpanId> {
            spans
                .iter()
                .position(|s| s.id == remote)
                .map(|pos| fresh[pos])
        };
        for (remote, id) in spans.iter().zip(&fresh) {
            self.record(Span {
                name: remote.name.clone(),
                trace,
                id: *id,
                parent: Some(remote.parent.and_then(local_id).unwrap_or(attach_to)),
                start_micros: attach_start_micros + (remote.start_micros - base),
                duration_micros: remote.duration_micros,
                attrs: Vec::new(),
            });
        }
    }

    /// Every finished span still in the ring, oldest first (by start time,
    /// ties by id).
    pub fn finished(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = {
            let ring = self.ring.lock().expect("span ring lock");
            ring.traces.values().flatten().cloned().collect()
        };
        spans.sort_by_key(|s| (s.start_micros, s.id.as_u64()));
        spans
    }

    /// Every finished span of one trace still in the ring, oldest first:
    /// [`Recorder::finished`] filtered to `trace`, at the cost of that
    /// trace's spans alone.
    pub fn trace(&self, trace: TraceId) -> Vec<Span> {
        let mut spans: Vec<Span> = {
            let ring = self.ring.lock().expect("span ring lock");
            ring.traces
                .get(&trace)
                .map_or_else(Vec::new, |spans| spans.iter().cloned().collect())
        };
        spans.sort_by_key(|s| (s.start_micros, s.id.as_u64()));
        spans
    }
}

/// A live span: finishes (and records itself) on [`SpanGuard::finish`] or
/// drop. Obtained from [`Recorder::span`]/[`Recorder::child`].
pub struct SpanGuard {
    recorder: Arc<Recorder>,
    span: Option<Span>,
    started: Instant,
}

impl SpanGuard {
    /// This span's id — [`SpanId::from_u64`]`(0)`-style "no span" (raw 0)
    /// when the recorder is disabled.
    pub fn id(&self) -> SpanId {
        self.span.as_ref().map(|s| s.id).unwrap_or(SpanId(0))
    }

    /// The trace this span belongs to, when recording.
    pub fn trace(&self) -> Option<TraceId> {
        self.span.as_ref().map(|s| s.trace)
    }

    /// The span's start, µs since the process trace epoch.
    pub fn start_micros(&self) -> u64 {
        self.span.as_ref().map(|s| s.start_micros).unwrap_or(0)
    }

    /// `true` when this guard will actually record a span.
    pub fn recording(&self) -> bool {
        self.span.is_some()
    }

    /// Annotates the span.
    pub fn attr(&mut self, key: &str, value: impl ToString) {
        if let Some(span) = self.span.as_mut() {
            span.attrs.push((key.to_string(), value.to_string()));
        }
    }

    /// Finishes the span with its measured wall time.
    pub fn finish(mut self) {
        self.close(None);
    }

    /// Finishes the span with an externally measured duration (e.g. a
    /// cache-served result whose compute time was zero).
    pub fn finish_with(mut self, elapsed: Duration) {
        self.close(Some(elapsed));
    }

    fn close(&mut self, elapsed: Option<Duration>) {
        if let Some(mut span) = self.span.take() {
            let elapsed = elapsed.unwrap_or_else(|| self.started.elapsed());
            span.duration_micros = elapsed.as_micros() as u64;
            self.recorder.record(span);
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_link_into_a_tree_under_one_trace() {
        let recorder = Arc::new(Recorder::new(16));
        let trace = TraceId::generate();
        let mut root = recorder.span(trace, "query");
        root.attr("k", 5);
        let child = recorder.child(trace, root.id(), "unit");
        let root_id = root.id();
        let child_id = child.id();
        child.finish();
        root.finish();
        let spans = recorder.trace(trace);
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "query").unwrap();
        let unit = spans.iter().find(|s| s.name == "unit").unwrap();
        assert_eq!(root.id, root_id);
        assert_eq!(root.parent, None);
        assert_eq!(root.attrs, vec![("k".to_string(), "5".to_string())]);
        assert_eq!(unit.id, child_id);
        assert_eq!(unit.parent, Some(root_id));
        assert!(root.start_micros <= unit.start_micros);
    }

    #[test]
    fn ring_retains_only_the_most_recent_spans() {
        let recorder = Arc::new(Recorder::new(4));
        let trace = TraceId::generate();
        for i in 0..10 {
            let mut span = recorder.span(trace, "op");
            span.attr("i", i);
            span.finish();
        }
        let spans = recorder.finished();
        assert_eq!(spans.len(), 4);
        let kept: Vec<&str> = spans.iter().map(|s| s.attrs[0].1.as_str()).collect();
        assert_eq!(kept, vec!["6", "7", "8", "9"]);
    }

    #[test]
    fn per_trace_lookup_equals_the_filtered_ring_across_wrap_around() {
        let capacity = 7;
        let recorder = Arc::new(Recorder::new(capacity));
        let traces: Vec<TraceId> = (0..5).map(|_| TraceId::generate()).collect();
        // A seeded walk over the traces (some runs of one trace, so whole
        // traces get evicted too) with starts out of arrival order.
        let mut state = 7u64;
        let mut recorded = Vec::new();
        for i in 0..60u64 {
            state = splitmix64(state);
            let trace = traces[(state % traces.len() as u64) as usize];
            let span = Span {
                name: format!("op{i}"),
                trace,
                id: SpanId::next(),
                parent: None,
                start_micros: 1_000 + (state >> 40) % 50,
                duration_micros: i,
                attrs: Vec::new(),
            };
            recorded.push(span.clone());
            recorder.record(span);
            let finished = recorder.finished();
            assert_eq!(finished.len(), recorded.len().min(capacity));
            for trace in &traces {
                let filtered: Vec<Span> = finished
                    .iter()
                    .filter(|s| s.trace == *trace)
                    .cloned()
                    .collect();
                assert_eq!(recorder.trace(*trace), filtered, "after span {i}");
            }
            let ring = recorder.ring.lock().unwrap();
            assert!(
                ring.traces.values().all(|spans| !spans.is_empty()),
                "a fully evicted trace leaves no entry behind"
            );
        }
        // What is left is exactly the last `capacity` spans recorded.
        let mut last = recorded[recorded.len() - capacity..].to_vec();
        last.sort_by_key(|s| (s.start_micros, s.id.as_u64()));
        assert_eq!(recorder.finished(), last);
        assert!(recorder.trace(TraceId::generate()).is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let recorder = Arc::new(Recorder::disabled());
        assert!(!recorder.enabled());
        let trace = TraceId::generate();
        let mut span = recorder.span(trace, "query");
        assert!(!span.recording());
        assert_eq!(span.id().as_u64(), 0);
        span.attr("ignored", 1);
        span.finish();
        recorder.event(trace, None, "failover", vec![]);
        assert!(recorder.finished().is_empty());
    }

    #[test]
    fn import_re_parents_remote_spans_with_fresh_ids() {
        let recorder = Arc::new(Recorder::new(16));
        let trace = TraceId::generate();
        let root = recorder.span(trace, "unit");
        let attach = root.id();
        let attach_start = root.start_micros();
        // A remote batch using its own id space (colliding with local ids
        // on purpose) and its own clock.
        recorder.import(
            trace,
            attach,
            attach_start,
            &[
                RemoteSpan {
                    name: "execute_unit".to_string(),
                    id: 1,
                    parent: None,
                    start_micros: 9_000_000,
                    duration_micros: 50,
                },
                RemoteSpan {
                    name: "scan".to_string(),
                    id: 2,
                    parent: Some(1),
                    start_micros: 9_000_010,
                    duration_micros: 20,
                },
            ],
        );
        root.finish();
        let spans = recorder.trace(trace);
        assert_eq!(spans.len(), 3);
        let exec = spans.iter().find(|s| s.name == "execute_unit").unwrap();
        let scan = spans.iter().find(|s| s.name == "scan").unwrap();
        assert_eq!(
            exec.parent,
            Some(attach),
            "batch root attaches to the unit span"
        );
        assert_eq!(
            scan.parent,
            Some(exec.id),
            "intra-batch parentage preserved"
        );
        assert_ne!(exec.id.as_u64(), 1, "remote ids are re-identified");
        assert_eq!(
            exec.start_micros, attach_start,
            "starts rebased to the attach point"
        );
        assert_eq!(scan.start_micros, attach_start + 10);
    }

    #[test]
    fn events_are_zero_duration_spans() {
        let recorder = Arc::new(Recorder::new(4));
        let trace = TraceId::generate();
        let parent = SpanId::next();
        recorder.event(
            trace,
            Some(parent),
            "failover",
            vec![("worker".to_string(), "w0".to_string())],
        );
        let spans = recorder.trace(trace);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration_micros, 0);
        assert_eq!(spans[0].parent, Some(parent));
        assert_eq!(spans[0].attrs[0].0, "worker");
    }
}
