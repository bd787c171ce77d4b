//! The line wire codec: `prj/2 …`, one message per line.
//!
//! The format is a versioned, human-readable text protocol chosen so that a
//! round-trip needs nothing beyond a TCP stream and `BufRead::read_line` —
//! no serialisation dependency, debuggable with `nc`. Grammar (one message
//! per `\n`-terminated line):
//!
//! ```text
//! request  := "prj/2" SP verb (SP key "=" value)*
//! verb     := "register" | "append" | "drop" | "topk" | "stream" | "stats"
//!           | "hello" | "unit" | "assign" | "wstats" | "metrics"
//!           | "subscribe" | "unsubscribe"
//!           | "explain" | "ftrace" | "traces" | "health"
//! tuples   := tuple (";" tuple)*          tuple  := f64 ("," f64)* ":" f64
//! rels     := ref ("," ref)*              ref    := "#" usize | ident
//! scoring  := ident [":" f64 ("," f64)*]
//! epochs   := u64-list ("|" u64-list)*
//! trace    := u64 ":" u64                 (trace id ":" parent span id)
//!
//! response := "prj/2" SP "ok" SP form (SP key "=" value)*
//!           | "prj/2" SP "err" SP "kind=" code SP "msg=" rest-of-line
//! row      := f64 "@" usize ":" usize ("+" usize ":" usize)*
//! urow     := f64 "@" umember ("+" umember)*
//! umember  := usize ":" usize ":" f64 ":" f64 ("," f64)*
//! spans    := span (";" span)*
//! span     := ident ":" u64 ":" u64 ":" u64 ":" u64
//!             (name : id : parent-or-0 : start_us : dur_us)
//! samples  := sample (";" sample)*
//! sample   := ident ["{" ident "=" lval ("," ident "=" lval)* "}"]
//!             ":" ("c"|"g"|"h") ":" f64
//! events   := event (";" event)*
//! event    := "e:" usize ":" row          (enter at rank, full row)
//!           | "x:" usize                  (exit, old rank)
//!           | "m:" usize ":" usize        (rank change, from:to)
//!           | "s:" usize ":" f64          (score change at rank)
//! ```
//!
//! A `trace=` field may ride on `topk`, `stream`, and
//! `unit` requests; `spans=` on `unit` responses and `samples=` on
//! `metrics` responses carry the observability payloads. Label values
//! (`lval`) exclude whitespace and the grammar's separators.
//!
//! Floats are emitted with Rust's shortest-round-trip formatting, so decode
//! ∘ encode is the identity on every finite and non-finite value. Relation
//! names are restricted to `[A-Za-z0-9_.-]+` (and must not start with `#`,
//! which introduces id references) so they never collide with the grammar's
//! separators.
//!
//! ## Version handling
//!
//! Every line carries the [`PROTOCOL_VERSION`] prefix, `prj/2`. A line
//! with any other `prj/N` prefix decodes to a typed [`ErrorKind::Version`]
//! error, so a server answers it with an `err` line and keeps the
//! connection open.

use crate::error::{ApiError, ErrorKind};
use crate::events::{ChangeEvent, Notification};
use crate::request::{
    QueryRequest, RelationRef, Request, ScoringSelector, TraceContext, TupleData, UnitRequest,
};
use crate::response::{
    AnalyzeReport, ExplainReport, HealthReport, MetricKind, MetricSample, MetricsReport,
    RelationPlanStat, Response, ResultRow, SpanRecord, StatsReport, TraceSummary, TrajectorySample,
    UnitMember, UnitOutcome, UnitPlanReport, UnitProfile, UnitRow, WorkerHealth,
};
use crate::PROTOCOL_VERSION;
use prj_access::AccessKind;
use prj_core::Algorithm;
use std::fmt::Write as _;

/// `true` when `name` is usable on the wire without escaping.
pub fn is_wire_safe_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with('#')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `prj/2` prefix every encoded line starts with.
fn prefix() -> String {
    format!("prj/{PROTOCOL_VERSION}")
}

/// Splits off and checks the `prj/N` prefix, returning the rest of the
/// line. Any version other than [`PROTOCOL_VERSION`] is a typed
/// [`ErrorKind::Version`] error.
fn strip_prefix(line: &str) -> Result<&str, ApiError> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (head, rest) = line
        .split_once(' ')
        .map(|(h, r)| (h, r.trim_start()))
        .unwrap_or((line, ""));
    let Some(version) = head.strip_prefix("prj/") else {
        return Err(ApiError::malformed(format!(
            "expected a prj/{PROTOCOL_VERSION} message, got {head:?}"
        )));
    };
    let parsed: u32 = version.parse().map_err(|_| {
        ApiError::malformed(format!("{version:?} is not a protocol version number"))
    })?;
    if parsed != PROTOCOL_VERSION {
        return Err(ApiError::new(
            ErrorKind::Version,
            format!("peer speaks prj/{parsed}, this build speaks prj/{PROTOCOL_VERSION}"),
        ));
    }
    Ok(rest)
}

/// Key=value fields after the verb. `msg` is handled separately because its
/// value runs to the end of the line.
fn parse_fields(rest: &str) -> Result<Vec<(&str, &str)>, ApiError> {
    let mut fields = Vec::new();
    for token in rest.split_whitespace() {
        let (key, value) = token
            .split_once('=')
            .ok_or_else(|| ApiError::malformed(format!("field {token:?} is not key=value")))?;
        fields.push((key, value));
    }
    Ok(fields)
}

fn field<'a>(fields: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

fn require<'a>(fields: &[(&str, &'a str)], key: &str, verb: &str) -> Result<&'a str, ApiError> {
    field(fields, key)
        .ok_or_else(|| ApiError::malformed(format!("{verb} request is missing {key}=")))
}

fn parse_f64(s: &str) -> Result<f64, ApiError> {
    s.parse::<f64>()
        .map_err(|_| ApiError::malformed(format!("{s:?} is not a number")))
}

fn parse_usize(s: &str) -> Result<usize, ApiError> {
    s.parse::<usize>()
        .map_err(|_| ApiError::malformed(format!("{s:?} is not a non-negative integer")))
}

fn parse_u64(s: &str) -> Result<u64, ApiError> {
    s.parse::<u64>()
        .map_err(|_| ApiError::malformed(format!("{s:?} is not a non-negative integer")))
}

fn parse_f64_list(s: &str) -> Result<Vec<f64>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(parse_f64).collect()
}

fn parse_u64_list(s: &str) -> Result<Vec<u64>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(parse_u64).collect()
}

fn encode_u64_list(out: &mut String, values: &[u64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
}

fn encode_f64_list(out: &mut String, values: &[f64]) {
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v:?}");
    }
}

/// `epochs`: per-relation epoch vectors, `|`-separated, each a comma list.
fn parse_epochs(s: &str) -> Result<Vec<Vec<u64>>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split('|').map(parse_u64_list).collect()
}

fn encode_epochs(out: &mut String, epochs: &[Vec<u64>]) {
    for (i, vector) in epochs.iter().enumerate() {
        if i > 0 {
            out.push('|');
        }
        encode_u64_list(out, vector);
    }
}

fn parse_relation_ref(s: &str) -> Result<RelationRef, ApiError> {
    if let Some(id) = s.strip_prefix('#') {
        return Ok(RelationRef::Id(parse_usize(id)?));
    }
    if !is_wire_safe_name(s) {
        return Err(ApiError::malformed(format!(
            "{s:?} is not a valid relation reference (want #<id> or [A-Za-z0-9_.-]+)"
        )));
    }
    Ok(RelationRef::Name(s.to_string()))
}

fn encode_relation_ref(r: &RelationRef) -> Result<String, ApiError> {
    match r {
        RelationRef::Id(id) => Ok(format!("#{id}")),
        RelationRef::Name(name) => {
            if !is_wire_safe_name(name) {
                return Err(ApiError::malformed(format!(
                    "relation name {name:?} is not wire-safe ([A-Za-z0-9_.-]+)"
                )));
            }
            Ok(name.clone())
        }
    }
}

fn parse_tuples(s: &str) -> Result<Vec<TupleData>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|t| {
            let (coords, score) = t.rsplit_once(':').ok_or_else(|| {
                ApiError::malformed(format!("tuple {t:?} is missing its :score suffix"))
            })?;
            if coords.is_empty() {
                // The grammar requires at least one coordinate per tuple.
                return Err(ApiError::malformed(format!(
                    "tuple {t:?} has no coordinates"
                )));
            }
            Ok(TupleData {
                coords: parse_f64_list(coords)?,
                score: parse_f64(score)?,
            })
        })
        .collect()
}

fn encode_tuples(tuples: &[TupleData]) -> String {
    let mut out = String::new();
    for (i, t) in tuples.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        encode_f64_list(&mut out, &t.coords);
        let _ = write!(out, ":{:?}", t.score);
    }
    out
}

fn parse_access(s: &str) -> Result<AccessKind, ApiError> {
    match s {
        "distance" => Ok(AccessKind::Distance),
        "score" => Ok(AccessKind::Score),
        _ => Err(ApiError::malformed(format!(
            "{s:?} is not an access kind (distance|score)"
        ))),
    }
}

fn encode_access(kind: AccessKind) -> &'static str {
    match kind {
        AccessKind::Distance => "distance",
        AccessKind::Score => "score",
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, ApiError> {
    match s.to_ascii_uppercase().as_str() {
        "CBRR" => Ok(Algorithm::Cbrr),
        "CBPA" => Ok(Algorithm::Cbpa),
        "TBRR" => Ok(Algorithm::Tbrr),
        "TBPA" => Ok(Algorithm::Tbpa),
        _ => Err(ApiError::malformed(format!(
            "{s:?} is not an algorithm (cbrr|cbpa|tbrr|tbpa)"
        ))),
    }
}

fn parse_scoring(s: &str) -> Result<ScoringSelector, ApiError> {
    let (name, params) = match s.split_once(':') {
        Some((name, params)) => (name, parse_f64_list(params)?),
        None => (s, Vec::new()),
    };
    if !is_wire_safe_name(name) {
        return Err(ApiError::malformed(format!(
            "scoring name {name:?} is not wire-safe"
        )));
    }
    Ok(ScoringSelector {
        name: name.to_string(),
        params,
    })
}

fn encode_scoring(s: &ScoringSelector) -> Result<String, ApiError> {
    if !is_wire_safe_name(&s.name) {
        return Err(ApiError::malformed(format!(
            "scoring name {:?} is not wire-safe",
            s.name
        )));
    }
    let mut out = s.name.clone();
    if !s.params.is_empty() {
        out.push(':');
        encode_f64_list(&mut out, &s.params);
    }
    Ok(out)
}

/// `trace`: `<trace_id>:<parent_span_id>` (parent 0 = no parent).
fn parse_trace(s: &str) -> Result<TraceContext, ApiError> {
    let (trace, parent) = s.split_once(':').ok_or_else(|| {
        ApiError::malformed(format!("trace context {s:?} is not trace_id:parent_id"))
    })?;
    let trace = parse_u64(trace)?;
    if trace == 0 {
        return Err(ApiError::malformed("trace id must be nonzero"));
    }
    Ok(TraceContext {
        trace,
        parent: parse_u64(parent)?,
    })
}

fn encode_trace(out: &mut String, trace: TraceContext) {
    let _ = write!(out, " trace={}:{}", trace.trace, trace.parent);
}

/// `span`: `name:id:parent:start_us:dur_us`; spans are `;`-joined.
fn parse_span_record(s: &str) -> Result<SpanRecord, ApiError> {
    let mut parts = s.split(':');
    let (Some(name), Some(id), Some(parent), Some(start), Some(dur), None) = (
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
        parts.next(),
    ) else {
        return Err(ApiError::malformed(format!(
            "span {s:?} is not name:id:parent:start_us:dur_us"
        )));
    };
    if !is_wire_safe_name(name) {
        return Err(ApiError::malformed(format!(
            "span name {name:?} is not wire-safe"
        )));
    }
    let id = parse_u64(id)?;
    if id == 0 {
        return Err(ApiError::malformed(format!("span {s:?} has id 0")));
    }
    Ok(SpanRecord {
        name: name.to_string(),
        id,
        parent: parse_u64(parent)?,
        start_micros: parse_u64(start)?,
        duration_micros: parse_u64(dur)?,
    })
}

fn parse_span_records(s: &str) -> Result<Vec<SpanRecord>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(parse_span_record).collect()
}

fn encode_span_records(out: &mut String, spans: &[SpanRecord]) -> Result<(), ApiError> {
    for (i, span) in spans.iter().enumerate() {
        if !is_wire_safe_name(&span.name) {
            return Err(ApiError::malformed(format!(
                "span name {:?} is not wire-safe",
                span.name
            )));
        }
        if span.id == 0 {
            return Err(ApiError::malformed(format!(
                "span {:?} has id 0",
                span.name
            )));
        }
        if i > 0 {
            out.push(';');
        }
        let _ = write!(
            out,
            "{}:{}:{}:{}:{}",
            span.name, span.id, span.parent, span.start_micros, span.duration_micros
        );
    }
    Ok(())
}

/// `true` when a metric label value fits on the wire unescaped: printable
/// ASCII minus whitespace and the sample grammar's separators.
fn is_metric_value_safe(value: &str) -> bool {
    !value.is_empty()
        && value
            .chars()
            .all(|c| c.is_ascii_graphic() && !matches!(c, ';' | ':' | ',' | '{' | '}' | '='))
}

/// `sample`: `name[{k=v,...}]:kind:value`; samples are `;`-joined.
fn parse_metric_sample(s: &str) -> Result<MetricSample, ApiError> {
    let err = || {
        ApiError::malformed(format!(
            "metric sample {s:?} is not name[{{labels}}]:kind:value"
        ))
    };
    let (head, value) = s.rsplit_once(':').ok_or_else(err)?;
    let (series, kind) = head.rsplit_once(':').ok_or_else(err)?;
    let mut kind_chars = kind.chars();
    let kind = match (
        kind_chars.next().and_then(MetricKind::from_code),
        kind_chars.next(),
    ) {
        (Some(kind), None) => kind,
        _ => {
            return Err(ApiError::malformed(format!(
                "metric sample {s:?} has unknown kind {kind:?} (want c|g|h)"
            )))
        }
    };
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => {
            let inner = rest.strip_suffix('}').ok_or_else(err)?;
            let mut labels = Vec::new();
            if !inner.is_empty() {
                for pair in inner.split(',') {
                    let (k, v) = pair.split_once('=').ok_or_else(err)?;
                    if !is_wire_safe_name(k) || !is_metric_value_safe(v) {
                        return Err(err());
                    }
                    labels.push((k.to_string(), v.to_string()));
                }
            }
            (name, labels)
        }
        None => (series, Vec::new()),
    };
    if !is_wire_safe_name(name) {
        return Err(ApiError::malformed(format!(
            "metric name {name:?} is not wire-safe"
        )));
    }
    Ok(MetricSample {
        name: name.to_string(),
        labels,
        kind,
        value: parse_f64(value)?,
    })
}

fn parse_metric_samples(s: &str) -> Result<Vec<MetricSample>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(parse_metric_sample).collect()
}

fn encode_metric_samples(out: &mut String, samples: &[MetricSample]) -> Result<(), ApiError> {
    for (i, sample) in samples.iter().enumerate() {
        if !is_wire_safe_name(&sample.name) {
            return Err(ApiError::malformed(format!(
                "metric name {:?} is not wire-safe",
                sample.name
            )));
        }
        if i > 0 {
            out.push(';');
        }
        out.push_str(&sample.name);
        if !sample.labels.is_empty() {
            out.push('{');
            for (j, (k, v)) in sample.labels.iter().enumerate() {
                if !is_wire_safe_name(k) {
                    return Err(ApiError::malformed(format!(
                        "metric label key {k:?} is not wire-safe"
                    )));
                }
                if !is_metric_value_safe(v) {
                    return Err(ApiError::malformed(format!(
                        "metric label value {v:?} is not wire-safe"
                    )));
                }
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}={v}");
            }
            out.push('}');
        }
        let _ = write!(out, ":{}:{:?}", sample.kind.code(), sample.value);
    }
    Ok(())
}

/// Percent-encodes free text (planner rationales, trace root names, worker
/// addresses) into a wire-safe token: every byte outside `[A-Za-z0-9_.-]`
/// becomes `%XX`, so decode ∘ encode is the identity on arbitrary UTF-8.
fn encode_text(out: &mut String, text: &str) {
    for b in text.bytes() {
        let c = b as char;
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
            out.push(c);
        } else {
            let _ = write!(out, "%{b:02X}");
        }
    }
}

fn parse_text(s: &str) -> Result<String, ApiError> {
    let mut bytes = Vec::with_capacity(s.len());
    let mut iter = s.bytes();
    while let Some(b) = iter.next() {
        if b == b'%' {
            let (Some(hi), Some(lo)) = (iter.next(), iter.next()) else {
                return Err(ApiError::malformed(format!(
                    "text {s:?} has a truncated %XX escape"
                )));
            };
            let hex = [hi, lo];
            let value = std::str::from_utf8(&hex)
                .ok()
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| ApiError::malformed(format!("text {s:?} has a bad %XX escape")))?;
            bytes.push(value);
        } else {
            bytes.push(b);
        }
    }
    String::from_utf8(bytes)
        .map_err(|_| ApiError::malformed(format!("text {s:?} decodes to invalid UTF-8")))
}

/// `trajectory`: `depth~kth~bound` points, `,`-joined (floats via the
/// shortest-round-trip `{:?}` form, so `-inf` survives).
fn parse_trajectory(s: &str) -> Result<Vec<TrajectorySample>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| {
            let mut parts = p.split('~');
            let (Some(depth), Some(kth), Some(bound), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return Err(ApiError::malformed(format!(
                    "trajectory point {p:?} is not depth~kth~bound"
                )));
            };
            Ok(TrajectorySample {
                depth: parse_u64(depth)?,
                kth_score: parse_f64(kth)?,
                bound: parse_f64(bound)?,
            })
        })
        .collect()
}

fn encode_trajectory(out: &mut String, trajectory: &[TrajectorySample]) {
    for (i, p) in trajectory.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}~{:?}~{:?}", p.depth, p.kth_score, p.bound);
    }
}

fn parse_query(fields: &[(&str, &str)], verb: &str) -> Result<QueryRequest, ApiError> {
    let rels = require(fields, "rels", verb)?;
    if rels.is_empty() {
        return Err(ApiError::malformed(format!(
            "{verb}: rels= must be non-empty"
        )));
    }
    let relations = rels
        .split(',')
        .map(parse_relation_ref)
        .collect::<Result<Vec<_>, _>>()?;
    let query = parse_f64_list(require(fields, "q", verb)?)?;
    let k = field(fields, "k").map(parse_usize).transpose()?;
    let scoring = field(fields, "scoring").map(parse_scoring).transpose()?;
    let access = field(fields, "access").map(parse_access).transpose()?;
    let algorithm = field(fields, "algo").map(parse_algorithm).transpose()?;
    let trace = field(fields, "trace").map(parse_trace).transpose()?;
    Ok(QueryRequest {
        relations,
        query,
        k,
        scoring,
        access,
        algorithm,
        trace,
    })
}

fn encode_query(out: &mut String, q: &QueryRequest) -> Result<(), ApiError> {
    out.push_str(" rels=");
    for (i, r) in q.relations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&encode_relation_ref(r)?);
    }
    out.push_str(" q=");
    encode_f64_list(out, &q.query);
    if let Some(k) = q.k {
        let _ = write!(out, " k={k}");
    }
    if let Some(scoring) = &q.scoring {
        let _ = write!(out, " scoring={}", encode_scoring(scoring)?);
    }
    if let Some(access) = q.access {
        let _ = write!(out, " access={}", encode_access(access));
    }
    if let Some(algo) = q.algorithm {
        let _ = write!(out, " algo={}", algo.id().to_ascii_lowercase());
    }
    if let Some(trace) = q.trace {
        encode_trace(out, trace);
    }
    Ok(())
}

/// `umember`: `rel:idx:score:coords` (coords comma-separated; exactly
/// three `:`-separated heads, so `splitn(4, ':')`).
fn parse_unit_member(s: &str) -> Result<UnitMember, ApiError> {
    let mut parts = s.splitn(4, ':');
    let (Some(rel), Some(idx), Some(score), Some(coords)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ApiError::malformed(format!(
            "unit member {s:?} is not rel:idx:score:coords"
        )));
    };
    let coords = parse_f64_list(coords)?;
    if coords.is_empty() {
        return Err(ApiError::malformed(format!(
            "unit member {s:?} has no coordinates"
        )));
    }
    Ok(UnitMember {
        relation: parse_usize(rel)?,
        index: parse_usize(idx)?,
        score: parse_f64(score)?,
        coords,
    })
}

fn encode_unit_member(out: &mut String, m: &UnitMember) {
    let _ = write!(out, "{}:{}:{:?}:", m.relation, m.index, m.score);
    encode_f64_list(out, &m.coords);
}

fn parse_unit_row(s: &str) -> Result<UnitRow, ApiError> {
    let (score, members) = s
        .split_once('@')
        .ok_or_else(|| ApiError::malformed(format!("unit row {s:?} is missing its score@")))?;
    if members.is_empty() {
        return Err(ApiError::malformed(format!(
            "unit row {s:?} has no members"
        )));
    }
    Ok(UnitRow {
        score: parse_f64(score)?,
        members: members
            .split('+')
            .map(parse_unit_member)
            .collect::<Result<_, _>>()?,
    })
}

fn parse_unit_rows(s: &str) -> Result<Vec<UnitRow>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(parse_unit_row).collect()
}

fn encode_unit_rows(out: &mut String, rows: &[UnitRow]) {
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let _ = write!(out, "{:?}@", row.score);
        for (j, member) in row.members.iter().enumerate() {
            if j > 0 {
                out.push('+');
            }
            encode_unit_member(out, member);
        }
    }
}

/// Encodes a request as one wire line (no trailing newline).
///
/// # Errors
/// Fails with [`ErrorKind::Malformed`] when a name is not wire-safe.
pub fn encode_request(request: &Request) -> Result<String, ApiError> {
    let mut out = prefix();
    match request {
        Request::RegisterRelation { name, tuples } => {
            if !is_wire_safe_name(name) {
                return Err(ApiError::malformed(format!(
                    "relation name {name:?} is not wire-safe ([A-Za-z0-9_.-]+)"
                )));
            }
            let _ = write!(
                out,
                " register name={name} tuples={}",
                encode_tuples(tuples)
            );
        }
        Request::AppendTuples { relation, tuples } => {
            let _ = write!(
                out,
                " append rel={} tuples={}",
                encode_relation_ref(relation)?,
                encode_tuples(tuples)
            );
        }
        Request::DropRelation { relation } => {
            let _ = write!(out, " drop rel={}", encode_relation_ref(relation)?);
        }
        Request::TopK(q) => {
            out.push_str(" topk");
            encode_query(&mut out, q)?;
        }
        Request::Stream(q) => {
            out.push_str(" stream");
            encode_query(&mut out, q)?;
        }
        Request::Stats => out.push_str(" stats"),
        Request::Hello { max_version } => {
            let _ = write!(out, " hello max={max_version}");
        }
        Request::ExecuteUnit(unit) => {
            out.push_str(" unit rels=");
            for (i, r) in unit.relations.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&encode_relation_ref(r)?);
            }
            out.push_str(" epochs=");
            encode_epochs(&mut out, &unit.epochs);
            out.push_str(" q=");
            encode_f64_list(&mut out, &unit.query);
            let _ = write!(
                out,
                " k={} scoring={} access={} algo={}",
                unit.k,
                encode_scoring(&unit.scoring)?,
                encode_access(unit.access),
                unit.algorithm.id().to_ascii_lowercase(),
            );
            if unit.convergence != 0 {
                let _ = write!(out, " conv={}", unit.convergence);
            }
            if let Some(trace) = unit.trace {
                encode_trace(&mut out, trace);
            }
        }
        Request::WorkerStats => out.push_str(" wstats"),
        Request::Metrics => out.push_str(" metrics"),
        Request::Subscribe(q) => {
            out.push_str(" subscribe");
            encode_query(&mut out, q)?;
        }
        Request::Unsubscribe { id } => {
            let _ = write!(out, " unsubscribe id={id}");
        }
        Request::Explain { query, analyze } => {
            let _ = write!(out, " explain analyze={}", u8::from(*analyze));
            encode_query(&mut out, query)?;
        }
        Request::FetchTrace { trace } => {
            let _ = write!(out, " ftrace id={trace}");
        }
        Request::ListTraces => out.push_str(" traces"),
        Request::Health => out.push_str(" health"),
    }
    Ok(out)
}

/// Decodes one request line.
///
/// # Errors
/// [`ErrorKind::Version`] on any prefix other than `prj/2`,
/// [`ErrorKind::Malformed`] on anything unparseable.
pub fn decode_request(line: &str) -> Result<Request, ApiError> {
    let rest = strip_prefix(line)?;
    let (verb, rest) = rest
        .split_once(' ')
        .map(|(v, r)| (v, r.trim_start()))
        .unwrap_or((rest, ""));
    decode_request_body(verb, &parse_fields(rest)?)
}

fn decode_request_body(verb: &str, fields: &[(&str, &str)]) -> Result<Request, ApiError> {
    match verb {
        "register" => {
            let name = require(fields, "name", verb)?;
            if !is_wire_safe_name(name) {
                return Err(ApiError::malformed(format!(
                    "relation name {name:?} is not wire-safe"
                )));
            }
            Ok(Request::RegisterRelation {
                name: name.to_string(),
                tuples: parse_tuples(field(fields, "tuples").unwrap_or(""))?,
            })
        }
        "append" => Ok(Request::AppendTuples {
            relation: parse_relation_ref(require(fields, "rel", verb)?)?,
            tuples: parse_tuples(field(fields, "tuples").unwrap_or(""))?,
        }),
        "drop" => Ok(Request::DropRelation {
            relation: parse_relation_ref(require(fields, "rel", verb)?)?,
        }),
        "topk" => Ok(Request::TopK(parse_query(fields, verb)?)),
        "stream" => Ok(Request::Stream(parse_query(fields, verb)?)),
        "stats" => Ok(Request::Stats),
        "hello" => Ok(Request::Hello {
            max_version: require(fields, "max", verb)?
                .parse()
                .map_err(|_| ApiError::malformed("hello max= is not a version number"))?,
        }),
        "unit" => {
            let rels = require(fields, "rels", verb)?;
            if rels.is_empty() {
                return Err(ApiError::malformed("unit: rels= must be non-empty"));
            }
            let relations = rels
                .split(',')
                .map(parse_relation_ref)
                .collect::<Result<Vec<_>, _>>()?;
            let epochs = parse_epochs(require(fields, "epochs", verb)?)?;
            if epochs.len() != relations.len() {
                return Err(ApiError::malformed(format!(
                    "unit: {} relations but {} epoch vectors",
                    relations.len(),
                    epochs.len()
                )));
            }
            Ok(Request::ExecuteUnit(UnitRequest {
                relations,
                epochs,
                query: parse_f64_list(require(fields, "q", verb)?)?,
                k: parse_usize(require(fields, "k", verb)?)?,
                scoring: parse_scoring(require(fields, "scoring", verb)?)?,
                access: parse_access(require(fields, "access", verb)?)?,
                algorithm: parse_algorithm(require(fields, "algo", verb)?)?,
                convergence: field(fields, "conv")
                    .map(parse_usize)
                    .transpose()?
                    .unwrap_or(0),
                trace: field(fields, "trace").map(parse_trace).transpose()?,
            }))
        }
        "wstats" => Ok(Request::WorkerStats),
        "metrics" => Ok(Request::Metrics),
        "subscribe" => Ok(Request::Subscribe(parse_query(fields, verb)?)),
        "unsubscribe" => Ok(Request::Unsubscribe {
            id: parse_u64(require(fields, "id", verb)?)?,
        }),
        "explain" => Ok(Request::Explain {
            query: parse_query(fields, verb)?,
            analyze: require(fields, "analyze", verb)? == "1",
        }),
        "ftrace" => {
            let trace = parse_u64(require(fields, "id", verb)?)?;
            if trace == 0 {
                return Err(ApiError::malformed("ftrace id must be nonzero"));
            }
            Ok(Request::FetchTrace { trace })
        }
        "traces" => Ok(Request::ListTraces),
        "health" => Ok(Request::Health),
        "" => Err(ApiError::malformed("empty request line")),
        other => Err(ApiError::malformed(format!("unknown verb {other:?}"))),
    }
}

fn encode_row(out: &mut String, row: &ResultRow) {
    let _ = write!(out, "{:?}@", row.score);
    for (i, (rel, idx)) in row.tuples.iter().enumerate() {
        if i > 0 {
            out.push('+');
        }
        let _ = write!(out, "{rel}:{idx}");
    }
}

fn parse_row(s: &str) -> Result<ResultRow, ApiError> {
    let (score, members) = s
        .split_once('@')
        .ok_or_else(|| ApiError::malformed(format!("row {s:?} is missing its score@ prefix")))?;
    let tuples = if members.is_empty() {
        Vec::new()
    } else {
        members
            .split('+')
            .map(|m| {
                let (rel, idx) = m.split_once(':').ok_or_else(|| {
                    ApiError::malformed(format!("row member {m:?} is not rel:idx"))
                })?;
                Ok((parse_usize(rel)?, parse_usize(idx)?))
            })
            .collect::<Result<Vec<_>, ApiError>>()?
    };
    Ok(ResultRow {
        score: parse_f64(score)?,
        tuples,
    })
}

fn parse_rows(s: &str) -> Result<Vec<ResultRow>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(parse_row).collect()
}

fn encode_events(out: &mut String, events: &[ChangeEvent]) {
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        match event {
            ChangeEvent::Enter { rank, row } => {
                let _ = write!(out, "e:{rank}:");
                encode_row(out, row);
            }
            ChangeEvent::Exit { rank } => {
                let _ = write!(out, "x:{rank}");
            }
            ChangeEvent::RankChange { from, to } => {
                let _ = write!(out, "m:{from}:{to}");
            }
            ChangeEvent::ScoreChange { rank, score } => {
                let _ = write!(out, "s:{rank}:{score:?}");
            }
        }
    }
}

fn parse_event(s: &str) -> Result<ChangeEvent, ApiError> {
    let mut parts = s.splitn(3, ':');
    let tag = parts.next().unwrap_or("");
    fn arg<'a>(p: Option<&'a str>, s: &str) -> Result<&'a str, ApiError> {
        p.ok_or_else(|| ApiError::malformed(format!("event {s:?} is missing a field")))
    }
    let event = match tag {
        "e" => ChangeEvent::Enter {
            rank: parse_usize(arg(parts.next(), s)?)?,
            row: parse_row(arg(parts.next(), s)?)?,
        },
        "x" => ChangeEvent::Exit {
            rank: parse_usize(arg(parts.next(), s)?)?,
        },
        "m" => ChangeEvent::RankChange {
            from: parse_usize(arg(parts.next(), s)?)?,
            to: parse_usize(arg(parts.next(), s)?)?,
        },
        "s" => ChangeEvent::ScoreChange {
            rank: parse_usize(arg(parts.next(), s)?)?,
            score: parse_f64(arg(parts.next(), s)?)?,
        },
        other => {
            return Err(ApiError::malformed(format!(
                "unknown event tag {other:?} in {s:?}"
            )))
        }
    };
    // The x/m tags consume fewer than 3 segments; reject trailing garbage
    // (`x` splits at most once more, so a leftover means a malformed line).
    if !matches!(event, ChangeEvent::Enter { .. }) && parts.next().is_some() {
        return Err(ApiError::malformed(format!(
            "event {s:?} has trailing fields"
        )));
    }
    Ok(event)
}

fn parse_events(s: &str) -> Result<Vec<ChangeEvent>, ApiError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';').map(parse_event).collect()
}

/// Encodes a response as one wire line (no trailing newline). A payload
/// that cannot be written on the wire (an unsafe name or label) is
/// encoded as a typed error instead.
pub fn encode_response(response: &Response) -> String {
    let mut out = prefix();
    match response {
        Response::Registered {
            id,
            name,
            epoch,
            cardinality,
        } => {
            let _ = write!(
                out,
                " ok registered id={id} name={name} epoch={epoch} n={cardinality}"
            );
        }
        Response::Appended {
            id,
            epoch,
            cardinality,
        } => {
            let _ = write!(out, " ok appended id={id} epoch={epoch} n={cardinality}");
        }
        Response::Dropped { id, epoch } => {
            let _ = write!(out, " ok dropped id={id} epoch={epoch}");
        }
        Response::Results {
            rows,
            from_cache,
            algorithm,
        } => {
            let _ = write!(
                out,
                " ok results cached={from_cache} algo={algorithm} rows="
            );
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                encode_row(&mut out, row);
            }
        }
        Response::StreamItem(row) => {
            out.push_str(" ok item row=");
            encode_row(&mut out, row);
        }
        Response::StreamEnd { count } => {
            let _ = write!(out, " ok end n={count}");
        }
        Response::Stats(s) => {
            let _ = write!(
                out,
                " ok stats queries={} cache_hits={} executed={} relations={} \
                 cache_entries={} invalidations={} sum_depths={} shards={}",
                s.queries,
                s.cache_hits,
                s.executed,
                s.relations,
                s.cache_entries,
                s.cache_invalidations,
                s.total_sum_depths,
                s.shards.max(1),
            );
            // Per-shard breakdowns are omitted while empty (nothing has
            // executed yet) so the common line stays short.
            if !s.shard_depths.is_empty() {
                out.push_str(" shard_depths=");
                encode_u64_list(&mut out, &s.shard_depths);
            }
            if !s.shard_micros.is_empty() {
                out.push_str(" shard_micros=");
                encode_u64_list(&mut out, &s.shard_micros);
            }
            if !s.worker_depths.is_empty() {
                out.push_str(" worker_depths=");
                encode_u64_list(&mut out, &s.worker_depths);
            }
            if !s.worker_micros.is_empty() {
                out.push_str(" worker_micros=");
                encode_u64_list(&mut out, &s.worker_micros);
            }
        }
        Response::HelloAck { version } => {
            let _ = write!(out, " ok hello ver={version}");
        }
        Response::Unit(unit) => {
            let _ = write!(
                out,
                " ok unit bound={:?} updates={} formed={} micros={} capped={} depths=",
                unit.final_bound,
                unit.bound_updates,
                unit.combinations_formed,
                unit.micros,
                unit.capped,
            );
            encode_u64_list(&mut out, &unit.depths);
            if !unit.spans.is_empty() {
                out.push_str(" spans=");
                if let Err(e) = encode_span_records(&mut out, &unit.spans) {
                    return encode_response(&Response::Error(e));
                }
            }
            if !unit.trajectory.is_empty() {
                out.push_str(" traj=");
                encode_trajectory(&mut out, &unit.trajectory);
            }
            out.push_str(" rows=");
            encode_unit_rows(&mut out, &unit.rows);
        }
        Response::WorkerReport {
            units,
            depths,
            micros,
            relations,
        } => {
            let _ = write!(
                out,
                " ok worker units={units} depths={depths} micros={micros} relations={relations}"
            );
        }
        Response::Metrics(report) => {
            out.push_str(" ok metrics samples=");
            if let Err(e) = encode_metric_samples(&mut out, &report.samples) {
                return encode_response(&Response::Error(e));
            }
        }
        Response::Subscribed {
            id,
            algorithm,
            rows,
        } => {
            let _ = write!(out, " ok subscribed id={id} algo={algorithm} rows=");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                encode_row(&mut out, row);
            }
        }
        Response::Unsubscribed { id } => {
            let _ = write!(out, " ok unsubscribed id={id}");
        }
        Response::Notify(n) => {
            let _ = write!(out, " ok notify id={} seq={} n={}", n.id, n.seq, n.total);
            // Empty event lists omit the field (terminal error notify).
            if !n.events.is_empty() {
                out.push_str(" events=");
                encode_events(&mut out, &n.events);
            }
            if let Some(fin) = &n.fin {
                if !is_wire_safe_name(fin) {
                    return encode_response(&Response::Error(ApiError::malformed(format!(
                        "notify fin token {fin:?} is not wire-safe"
                    ))));
                }
                let _ = write!(out, " fin={fin}");
            }
        }
        Response::Explain(report) => {
            let _ = write!(
                out,
                " ok explain analyzed={} algo={} drive={} k={} rationale=",
                u8::from(report.analyzed.is_some()),
                report.algorithm,
                report.drive,
                report.k,
            );
            encode_text(&mut out, &report.rationale);
            out.push_str(" stats=");
            for (i, r) in report.relations.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                encode_text(&mut out, &r.name);
                let _ = write!(out, ":{}:{:?}:{:?}", r.cardinality, r.skew, r.discount);
            }
            out.push_str(" uplans=");
            for (i, u) in report.units.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                let _ = write!(out, "{}:{}:", u.shard, u.algorithm);
                match u.dominance_period {
                    Some(period) => {
                        let _ = write!(out, "{period}");
                    }
                    None => out.push('-'),
                }
                out.push(':');
                encode_text(&mut out, &u.rationale);
            }
            if let Some(analyzed) = &report.analyzed {
                let _ = write!(
                    out,
                    " micros={} depths={} prof=",
                    analyzed.latency_micros, analyzed.total_sum_depths
                );
                for (i, p) in analyzed.units.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    let _ = write!(out, "{}:", p.shard);
                    encode_text(&mut out, &p.cache);
                    let _ = write!(out, ":{}:{}:{}:", u8::from(p.remote), p.depths, p.micros);
                    encode_trajectory(&mut out, &p.trajectory);
                }
                out.push_str(" rows=");
                for (i, row) in analyzed.rows.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    encode_row(&mut out, row);
                }
            }
        }
        Response::Trace {
            trace,
            class,
            spans,
        } => {
            let _ = write!(out, " ok trace id={trace} class={class} spans=");
            if let Err(e) = encode_span_records(&mut out, spans) {
                return encode_response(&Response::Error(e));
            }
        }
        Response::Traces { traces } => {
            out.push_str(" ok traces list=");
            for (i, t) in traces.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                let _ = write!(out, "{}:{}:", t.trace, t.class);
                encode_text(&mut out, &t.root);
                let _ = write!(out, ":{}:{}", t.duration_micros, t.spans);
            }
        }
        Response::Health(h) => {
            let _ = write!(
                out,
                " ok health ready={} live={} role={} repl_us={} delta={} delta_age_ms={} \
                 sub_depth={} subs={} traces={}",
                h.ready,
                h.live,
                h.role,
                h.replication_lag_micros,
                h.delta_tuples,
                h.oldest_delta_age_ms,
                h.sub_queue_depth,
                h.subscriptions,
                h.traces_retained,
            );
            if !h.workers.is_empty() {
                out.push_str(" workers=");
                for (i, w) in h.workers.iter().enumerate() {
                    if i > 0 {
                        out.push(';');
                    }
                    encode_text(&mut out, &w.addr);
                    let _ = write!(out, "@{}@{}", u8::from(w.reachable), w.idle_connections);
                }
            }
        }
        Response::Error(e) => {
            // The message runs to the end of the line, so strip newlines.
            let msg = e.message.replace(['\r', '\n'], " ");
            let _ = write!(out, " err kind={} msg={}", e.kind.code(), msg);
        }
    }
    out
}

/// Decodes one response line. A well-formed `err` line decodes to
/// `Ok(Response::Error(..))`; the `Err` side is for lines this codec cannot
/// understand at all.
pub fn decode_response(line: &str) -> Result<Response, ApiError> {
    let rest = strip_prefix(line)?;
    if let Some(err) = rest.strip_prefix("err ") {
        let fields = parse_fields(err.split_once(" msg=").map(|(f, _)| f).unwrap_or(err))?;
        let kind = require(&fields, "kind", "err")?;
        let kind = ErrorKind::from_code(kind)
            .ok_or_else(|| ApiError::malformed(format!("unknown error kind {kind:?}")))?;
        let message = err
            .split_once("msg=")
            .map(|(_, m)| m.to_string())
            .unwrap_or_default();
        return Ok(Response::Error(ApiError { kind, message }));
    }
    let Some(ok) = rest.strip_prefix("ok ") else {
        return Err(ApiError::malformed(format!(
            "expected an ok/err response, got {rest:?}"
        )));
    };
    let (form, rest) = ok
        .split_once(' ')
        .map(|(f, r)| (f, r.trim_start()))
        .unwrap_or((ok, ""));
    let fields = parse_fields(rest)?;
    match form {
        "registered" => Ok(Response::Registered {
            id: parse_usize(require(&fields, "id", form)?)?,
            name: require(&fields, "name", form)?.to_string(),
            epoch: parse_u64(require(&fields, "epoch", form)?)?,
            cardinality: parse_usize(require(&fields, "n", form)?)?,
        }),
        "appended" => Ok(Response::Appended {
            id: parse_usize(require(&fields, "id", form)?)?,
            epoch: parse_u64(require(&fields, "epoch", form)?)?,
            cardinality: parse_usize(require(&fields, "n", form)?)?,
        }),
        "dropped" => Ok(Response::Dropped {
            id: parse_usize(require(&fields, "id", form)?)?,
            epoch: parse_u64(require(&fields, "epoch", form)?)?,
        }),
        "results" => Ok(Response::Results {
            rows: parse_rows(field(&fields, "rows").unwrap_or(""))?,
            from_cache: require(&fields, "cached", form)? == "true",
            algorithm: require(&fields, "algo", form)?.to_string(),
        }),
        "item" => Ok(Response::StreamItem(parse_row(require(
            &fields, "row", form,
        )?)?)),
        "end" => Ok(Response::StreamEnd {
            count: parse_usize(require(&fields, "n", form)?)?,
        }),
        "stats" => Ok(Response::Stats(StatsReport {
            queries: parse_u64(require(&fields, "queries", form)?)?,
            cache_hits: parse_u64(require(&fields, "cache_hits", form)?)?,
            executed: parse_u64(require(&fields, "executed", form)?)?,
            relations: parse_usize(require(&fields, "relations", form)?)?,
            cache_entries: parse_usize(require(&fields, "cache_entries", form)?)?,
            cache_invalidations: parse_u64(require(&fields, "invalidations", form)?)?,
            total_sum_depths: parse_u64(require(&fields, "sum_depths", form)?)?,
            // Absent on lines from pre-sharding peers: default to one shard
            // and no breakdown.
            shards: field(&fields, "shards")
                .map(parse_usize)
                .transpose()?
                .unwrap_or(1),
            shard_depths: parse_u64_list(field(&fields, "shard_depths").unwrap_or(""))?,
            shard_micros: parse_u64_list(field(&fields, "shard_micros").unwrap_or(""))?,
            worker_depths: parse_u64_list(field(&fields, "worker_depths").unwrap_or(""))?,
            worker_micros: parse_u64_list(field(&fields, "worker_micros").unwrap_or(""))?,
        })),
        "hello" => Ok(Response::HelloAck {
            version: require(&fields, "ver", form)?
                .parse()
                .map_err(|_| ApiError::malformed("hello ver= is not a version number"))?,
        }),
        "unit" => Ok(Response::Unit(UnitOutcome {
            rows: parse_unit_rows(field(&fields, "rows").unwrap_or(""))?,
            final_bound: parse_f64(require(&fields, "bound", form)?)?,
            depths: parse_u64_list(field(&fields, "depths").unwrap_or(""))?,
            bound_updates: parse_u64(require(&fields, "updates", form)?)?,
            combinations_formed: parse_u64(require(&fields, "formed", form)?)?,
            micros: parse_u64(require(&fields, "micros", form)?)?,
            capped: require(&fields, "capped", form)? == "true",
            spans: parse_span_records(field(&fields, "spans").unwrap_or(""))?,
            trajectory: parse_trajectory(field(&fields, "traj").unwrap_or(""))?,
        })),
        "worker" => Ok(Response::WorkerReport {
            units: parse_u64(require(&fields, "units", form)?)?,
            depths: parse_u64(require(&fields, "depths", form)?)?,
            micros: parse_u64(require(&fields, "micros", form)?)?,
            relations: parse_usize(require(&fields, "relations", form)?)?,
        }),
        "metrics" => Ok(Response::Metrics(MetricsReport {
            samples: parse_metric_samples(field(&fields, "samples").unwrap_or(""))?,
        })),
        "subscribed" => Ok(Response::Subscribed {
            id: parse_u64(require(&fields, "id", form)?)?,
            algorithm: require(&fields, "algo", form)?.to_string(),
            rows: parse_rows(field(&fields, "rows").unwrap_or(""))?,
        }),
        "unsubscribed" => Ok(Response::Unsubscribed {
            id: parse_u64(require(&fields, "id", form)?)?,
        }),
        "notify" => Ok(Response::Notify(Notification {
            id: parse_u64(require(&fields, "id", form)?)?,
            seq: parse_u64(require(&fields, "seq", form)?)?,
            total: parse_usize(require(&fields, "n", form)?)?,
            events: parse_events(field(&fields, "events").unwrap_or(""))?,
            fin: field(&fields, "fin").map(|f| f.to_string()),
        })),
        "explain" => {
            let mut relations = Vec::new();
            let stats = field(&fields, "stats").unwrap_or("");
            if !stats.is_empty() {
                for part in stats.split(';') {
                    let mut it = part.splitn(4, ':');
                    let (name, card, skew, discount) =
                        match (it.next(), it.next(), it.next(), it.next()) {
                            (Some(n), Some(c), Some(s), Some(d)) => (n, c, s, d),
                            _ => {
                                return Err(ApiError::malformed(format!(
                                    "explain stats entry {part:?} is not name:card:skew:discount"
                                )))
                            }
                        };
                    relations.push(RelationPlanStat {
                        name: parse_text(name)?,
                        cardinality: parse_u64(card)?,
                        skew: parse_f64(skew)?,
                        discount: parse_f64(discount)?,
                    });
                }
            }
            let mut units = Vec::new();
            let uplans = field(&fields, "uplans").unwrap_or("");
            if !uplans.is_empty() {
                for part in uplans.split(';') {
                    let mut it = part.splitn(4, ':');
                    let (shard, algo, period, rationale) =
                        match (it.next(), it.next(), it.next(), it.next()) {
                            (Some(s), Some(a), Some(p), Some(r)) => (s, a, p, r),
                            _ => {
                                return Err(ApiError::malformed(format!(
                                    "explain uplans entry {part:?} is not \
                                     shard:algo:period:rationale"
                                )))
                            }
                        };
                    units.push(UnitPlanReport {
                        shard: parse_usize(shard)?,
                        algorithm: algo.to_string(),
                        dominance_period: if period == "-" {
                            None
                        } else {
                            Some(parse_usize(period)?)
                        },
                        rationale: parse_text(rationale)?,
                    });
                }
            }
            let analyzed = if require(&fields, "analyzed", form)? == "1" {
                let mut profiles = Vec::new();
                let prof = field(&fields, "prof").unwrap_or("");
                if !prof.is_empty() {
                    for part in prof.split(';') {
                        let mut it = part.splitn(6, ':');
                        let (shard, cache, remote, depths, micros, traj) = match (
                            it.next(),
                            it.next(),
                            it.next(),
                            it.next(),
                            it.next(),
                            it.next(),
                        ) {
                            (Some(s), Some(c), Some(r), Some(d), Some(m), Some(t)) => {
                                (s, c, r, d, m, t)
                            }
                            _ => {
                                return Err(ApiError::malformed(format!(
                                    "explain prof entry {part:?} is not \
                                     shard:cache:remote:depths:micros:trajectory"
                                )))
                            }
                        };
                        profiles.push(UnitProfile {
                            shard: parse_usize(shard)?,
                            cache: parse_text(cache)?,
                            remote: remote == "1",
                            depths: parse_u64(depths)?,
                            micros: parse_u64(micros)?,
                            trajectory: parse_trajectory(traj)?,
                        });
                    }
                }
                Some(AnalyzeReport {
                    rows: parse_rows(field(&fields, "rows").unwrap_or(""))?,
                    latency_micros: parse_u64(require(&fields, "micros", form)?)?,
                    total_sum_depths: parse_u64(require(&fields, "depths", form)?)?,
                    units: profiles,
                })
            } else {
                None
            };
            Ok(Response::Explain(ExplainReport {
                algorithm: require(&fields, "algo", form)?.to_string(),
                drive: parse_usize(require(&fields, "drive", form)?)?,
                k: parse_usize(require(&fields, "k", form)?)?,
                rationale: parse_text(require(&fields, "rationale", form)?)?,
                relations,
                units,
                analyzed,
            }))
        }
        "trace" => Ok(Response::Trace {
            trace: parse_u64(require(&fields, "id", form)?)?,
            class: require(&fields, "class", form)?.to_string(),
            spans: parse_span_records(field(&fields, "spans").unwrap_or(""))?,
        }),
        "traces" => {
            let mut traces = Vec::new();
            let list = field(&fields, "list").unwrap_or("");
            if !list.is_empty() {
                for part in list.split(';') {
                    let mut it = part.splitn(5, ':');
                    let (trace, class, root, dur, spans) =
                        match (it.next(), it.next(), it.next(), it.next(), it.next()) {
                            (Some(t), Some(c), Some(r), Some(d), Some(s)) => (t, c, r, d, s),
                            _ => {
                                return Err(ApiError::malformed(format!(
                                    "trace listing entry {part:?} is not \
                                     id:class:root:duration:spans"
                                )))
                            }
                        };
                    traces.push(TraceSummary {
                        trace: parse_u64(trace)?,
                        class: class.to_string(),
                        root: parse_text(root)?,
                        duration_micros: parse_u64(dur)?,
                        spans: parse_usize(spans)?,
                    });
                }
            }
            Ok(Response::Traces { traces })
        }
        "health" => {
            let mut workers = Vec::new();
            let field_workers = field(&fields, "workers").unwrap_or("");
            if !field_workers.is_empty() {
                for part in field_workers.split(';') {
                    let mut it = part.splitn(3, '@');
                    let (addr, reachable, idle) = match (it.next(), it.next(), it.next()) {
                        (Some(a), Some(r), Some(i)) => (a, r, i),
                        _ => {
                            return Err(ApiError::malformed(format!(
                                "health worker entry {part:?} is not addr@reachable@idle"
                            )))
                        }
                    };
                    workers.push(WorkerHealth {
                        addr: parse_text(addr)?,
                        reachable: reachable == "1",
                        idle_connections: parse_usize(idle)?,
                    });
                }
            }
            Ok(Response::Health(HealthReport {
                ready: require(&fields, "ready", form)? == "true",
                live: require(&fields, "live", form)? == "true",
                role: require(&fields, "role", form)?.to_string(),
                replication_lag_micros: parse_u64(require(&fields, "repl_us", form)?)?,
                delta_tuples: parse_u64(require(&fields, "delta", form)?)?,
                oldest_delta_age_ms: parse_u64(require(&fields, "delta_age_ms", form)?)?,
                sub_queue_depth: parse_u64(require(&fields, "sub_depth", form)?)?,
                subscriptions: parse_u64(require(&fields, "subs", form)?)?,
                traces_retained: parse_u64(require(&fields, "traces", form)?)?,
                workers,
            }))
        }
        other => Err(ApiError::malformed(format!(
            "unknown response form {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_round_trip(request: Request) {
        let line = encode_request(&request).expect("encode");
        assert!(line.starts_with("prj/2 "), "versioned: {line}");
        let decoded = decode_request(&line).expect("decode");
        assert_eq!(decoded, request, "wire line was: {line}");
    }

    fn response_round_trip(response: Response) {
        let line = encode_response(&response);
        assert!(line.starts_with("prj/2 "), "versioned: {line}");
        let decoded = decode_response(&line).expect("decode");
        assert_eq!(decoded, response, "wire line was: {line}");
    }

    #[test]
    fn requests_round_trip() {
        request_round_trip(Request::RegisterRelation {
            name: "hotels-2.a_b".to_string(),
            tuples: vec![
                TupleData::new([0.0, -0.5], 0.5),
                TupleData::new([1e-7, 2.25], 1.0),
            ],
        });
        request_round_trip(Request::RegisterRelation {
            name: "empty".to_string(),
            tuples: Vec::new(),
        });
        request_round_trip(Request::AppendTuples {
            relation: RelationRef::Id(3),
            tuples: vec![TupleData::new([0.125], 0.25)],
        });
        request_round_trip(Request::DropRelation {
            relation: RelationRef::Name("hotels".to_string()),
        });
        request_round_trip(Request::TopK(QueryRequest::new(
            vec![RelationRef::Id(0), RelationRef::Name("r2".to_string())],
            [0.0, 0.0],
        )));
        request_round_trip(Request::Stream(
            QueryRequest::new(vec![RelationRef::Id(1)], [0.5, -0.5])
                .k(7)
                .scoring(ScoringSelector::with_params(
                    "euclidean-log",
                    [1.0, 2.0, 0.5],
                ))
                .access(AccessKind::Score)
                .algorithm(Algorithm::Tbpa),
        ));
        request_round_trip(Request::Stats);
    }

    #[test]
    fn responses_round_trip() {
        response_round_trip(Response::Registered {
            id: 0,
            name: "hotels".to_string(),
            epoch: 0,
            cardinality: 2,
        });
        response_round_trip(Response::Appended {
            id: 4,
            epoch: 7,
            cardinality: 19,
        });
        response_round_trip(Response::Dropped { id: 1, epoch: 2 });
        response_round_trip(Response::Results {
            rows: vec![
                ResultRow {
                    score: -7.0,
                    tuples: vec![(0, 1), (1, 0), (2, 0)],
                },
                ResultRow {
                    score: -8.4,
                    tuples: vec![(0, 0), (1, 0), (2, 0)],
                },
            ],
            from_cache: true,
            algorithm: "TBRR".to_string(),
        });
        response_round_trip(Response::Results {
            rows: Vec::new(),
            from_cache: false,
            algorithm: "CBPA".to_string(),
        });
        response_round_trip(Response::StreamItem(ResultRow {
            score: -1.5e-9,
            tuples: vec![(0, 3)],
        }));
        response_round_trip(Response::StreamEnd { count: 8 });
        response_round_trip(Response::Stats(StatsReport {
            queries: 10,
            cache_hits: 4,
            executed: 6,
            relations: 3,
            cache_entries: 5,
            cache_invalidations: 2,
            total_sum_depths: 123,
            shards: 1,
            shard_depths: Vec::new(),
            shard_micros: Vec::new(),
            worker_depths: Vec::new(),
            worker_micros: Vec::new(),
        }));
        response_round_trip(Response::Stats(StatsReport {
            queries: 7,
            cache_hits: 0,
            executed: 7,
            relations: 2,
            cache_entries: 7,
            cache_invalidations: 0,
            total_sum_depths: 456,
            shards: 4,
            shard_depths: vec![100, 0, 300, 56],
            shard_micros: vec![90, 0, 250, 40],
            worker_depths: vec![250, 206],
            worker_micros: vec![180, 200],
        }));
        response_round_trip(Response::Error(ApiError::new(
            ErrorKind::UnknownRelation,
            "no relation named bars; try register first",
        )));
        response_round_trip(Response::Error(ApiError::new(
            ErrorKind::WorkerUnavailable,
            "worker 2 is gone",
        )));
    }

    #[test]
    fn stats_without_shard_fields_decode_with_defaults() {
        // A pre-sharding peer's stats line still decodes (one shard, no
        // breakdown).
        let line = "prj/2 ok stats queries=1 cache_hits=0 executed=1 relations=1 \
                    cache_entries=1 invalidations=0 sum_depths=9";
        match decode_response(line).unwrap() {
            Response::Stats(s) => {
                assert_eq!(s.shards, 1);
                assert!(s.shard_depths.is_empty());
                assert!(s.shard_micros.is_empty());
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for value in [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            -1.0 / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e308,
        ] {
            let request = Request::TopK(QueryRequest::new(vec![RelationRef::Id(0)], [value]));
            let line = encode_request(&request).unwrap();
            match decode_request(&line).unwrap() {
                Request::TopK(q) => assert_eq!(q.query[0].to_bits(), value.to_bits()),
                other => panic!("unexpected decode: {other:?}"),
            }
        }
    }

    #[test]
    fn version_mismatch_is_detected() {
        for line in ["prj/1 stats", "prj/3 stats"] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Version, "line: {line}");
        }
        for line in ["prj/1 ok end n=3", "prj/0 ok end n=1"] {
            let err = decode_response(line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Version, "line: {line}");
        }
        let err = decode_request("http/1.1 GET /").unwrap_err();
        assert_eq!(err.kind, ErrorKind::Malformed);
    }

    fn sample_unit_request() -> Request {
        Request::ExecuteUnit(UnitRequest {
            relations: vec![RelationRef::Id(0), RelationRef::Name("r2".to_string())],
            epochs: vec![vec![0, 3, 0], vec![1]],
            query: vec![0.5, -0.25],
            k: 7,
            scoring: ScoringSelector::with_params("euclidean-log", [1.0, 2.0, 0.5]),
            access: AccessKind::Distance,
            algorithm: Algorithm::Tbpa,
            convergence: 0,
            trace: None,
        })
    }

    #[test]
    fn cluster_requests_round_trip_at_v2() {
        for request in [
            Request::Hello { max_version: 2 },
            sample_unit_request(),
            Request::WorkerStats,
            Request::Metrics,
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn subscription_messages_round_trip_at_v2() {
        let row_a = ResultRow {
            score: -3.25,
            tuples: vec![(0, 4), (1, 7)],
        };
        let row_b = ResultRow {
            score: f64::NEG_INFINITY,
            tuples: vec![(0, 0), (1, 1)],
        };
        for request in [
            Request::Subscribe(
                QueryRequest::new(vec![RelationRef::Id(0), "pois".into()], [0.5]).k(3),
            ),
            Request::Unsubscribe { id: 17 },
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
        for response in [
            Response::Subscribed {
                id: 9,
                algorithm: "TBPA".to_string(),
                rows: vec![row_a.clone(), row_b.clone()],
            },
            Response::Subscribed {
                id: 0,
                algorithm: "HRJN-star".to_string(),
                rows: Vec::new(),
            },
            Response::Unsubscribed { id: 9 },
            Response::Notify(Notification {
                id: 9,
                seq: 1,
                total: 2,
                events: vec![
                    ChangeEvent::Exit { rank: 0 },
                    ChangeEvent::Enter {
                        rank: 1,
                        row: row_a.clone(),
                    },
                    ChangeEvent::RankChange { from: 1, to: 0 },
                    ChangeEvent::ScoreChange {
                        rank: 0,
                        score: -0.125,
                    },
                ],
                fin: None,
            }),
            Response::Notify(Notification {
                id: 3,
                seq: 12,
                total: 0,
                events: vec![ChangeEvent::Exit { rank: 0 }],
                fin: Some("drop".to_string()),
            }),
            Response::Notify(Notification {
                id: 3,
                seq: 2,
                total: 1,
                events: Vec::new(),
                fin: Some("error".to_string()),
            }),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response);
        }
    }

    #[test]
    fn malformed_events_are_rejected() {
        for events in ["z:1", "x:", "x:1:junk", "m:1", "e:0", "s:0:abc", "m:1:2:3"] {
            let line = format!("prj/2 ok notify id=0 seq=1 n=0 events={events}");
            assert!(decode_response(&line).is_err(), "events: {events}");
        }
    }

    #[test]
    fn cluster_responses_round_trip_at_v2() {
        for response in [
            Response::HelloAck { version: 2 },
            Response::Unit(UnitOutcome {
                rows: vec![
                    UnitRow {
                        score: -7.25,
                        members: vec![
                            UnitMember {
                                relation: 0,
                                index: 3,
                                score: 0.5,
                                coords: vec![0.0, -0.5],
                            },
                            UnitMember {
                                relation: 1,
                                index: 0,
                                score: 1.0,
                                coords: vec![1e-7, 2.25],
                            },
                        ],
                    },
                    UnitRow {
                        score: f64::NEG_INFINITY,
                        members: vec![UnitMember {
                            relation: 0,
                            index: 0,
                            score: 0.125,
                            coords: vec![3.0],
                        }],
                    },
                ],
                final_bound: f64::NEG_INFINITY,
                depths: vec![4, 9],
                bound_updates: 13,
                combinations_formed: 20,
                micros: 843,
                capped: false,
                spans: vec![
                    SpanRecord {
                        name: "execute_unit".to_string(),
                        id: 11,
                        parent: 0,
                        start_micros: 1000,
                        duration_micros: 840,
                    },
                    SpanRecord {
                        name: "drain".to_string(),
                        id: 12,
                        parent: 11,
                        start_micros: 1010,
                        duration_micros: 600,
                    },
                ],
                trajectory: vec![TrajectorySample {
                    depth: 13,
                    kth_score: -7.25,
                    bound: -2.0,
                }],
            }),
            Response::Unit(UnitOutcome {
                rows: Vec::new(),
                final_bound: -2.5,
                depths: vec![0, 0],
                bound_updates: 0,
                combinations_formed: 0,
                micros: 1,
                capped: true,
                spans: Vec::new(),
                trajectory: Vec::new(),
            }),
            Response::WorkerReport {
                units: 17,
                depths: 1234,
                micros: 2400,
                relations: 3,
            },
            Response::Metrics(MetricsReport {
                samples: vec![
                    MetricSample {
                        name: "prj_queries_total".to_string(),
                        labels: Vec::new(),
                        kind: MetricKind::Counter,
                        value: 12.0,
                    },
                    MetricSample {
                        name: "prj_query_latency_seconds_bucket".to_string(),
                        labels: vec![
                            ("instance".to_string(), "worker0".to_string()),
                            ("le".to_string(), "+Inf".to_string()),
                        ],
                        kind: MetricKind::Histogram,
                        value: 12.0,
                    },
                    MetricSample {
                        name: "prj_cache_entries".to_string(),
                        labels: Vec::new(),
                        kind: MetricKind::Gauge,
                        value: 0.5,
                    },
                ],
            }),
            Response::Metrics(MetricsReport::default()),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response);
        }
    }

    #[test]
    fn traced_queries_round_trip_at_v2() {
        let trace = TraceContext {
            trace: 0xdead_beef_cafe_f00d,
            parent: 42,
        };
        for request in [
            Request::TopK(QueryRequest::new(vec![RelationRef::Id(0)], [0.5]).traced(trace)),
            Request::Stream(QueryRequest::new(vec![RelationRef::Id(1)], [0.0, 1.0]).traced(trace)),
            Request::ExecuteUnit(UnitRequest {
                trace: Some(TraceContext {
                    trace: 7,
                    parent: 0,
                }),
                ..match sample_unit_request() {
                    Request::ExecuteUnit(unit) => unit,
                    _ => unreachable!(),
                }
            }),
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn malformed_observability_fields_are_rejected() {
        for line in [
            "prj/2 topk rels=#0 q=0.0 trace=7",   // missing parent
            "prj/2 topk rels=#0 q=0.0 trace=0:0", // zero trace id
            "prj/2 topk rels=#0 q=0.0 trace=x:1", // non-numeric
            "prj/2 ok unit bound=0.0 updates=0 formed=0 micros=0 capped=false \
             depths= spans=a:0:0:0:0 rows=", // span id 0
            "prj/2 ok unit bound=0.0 updates=0 formed=0 micros=0 capped=false \
             depths= spans=a:1:0:0 rows=", // span missing a field
            "prj/2 ok metrics samples=name:x:1.0", // unknown kind
            "prj/2 ok metrics samples=name{k=v:1.0", // unclosed labels
            "prj/2 ok metrics samples=name:c",    // missing value
        ] {
            let rejected = if line.contains(" ok ") {
                decode_response(line).is_err()
            } else {
                decode_request(line).is_err()
            };
            assert!(rejected, "line should be rejected: {line}");
        }
    }

    #[test]
    fn unit_outcomes_without_spans_decode_empty() {
        // Lines from pre-tracing workers decode with no spans attached.
        let line = "prj/2 ok unit bound=-1.5 updates=3 formed=4 micros=99 \
                    capped=false depths=5,6 rows=";
        match decode_response(line).unwrap() {
            Response::Unit(unit) => assert!(unit.spans.is_empty()),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "prj/2",
            "prj/2 frobnicate x=1",
            "prj/2 register tuples=1:1",                // missing name
            "prj/2 register name=a;b tuples=",          // unsafe name
            "prj/2 topk q=0.0",                         // missing rels
            "prj/2 topk rels= q=0.0",                   // empty rels
            "prj/2 topk rels=#x q=0.0",                 // bad id
            "prj/2 topk rels=a q=zero",                 // bad float
            "prj/2 topk rels=a q=0.0 algo=newton",      // bad algorithm
            "prj/2 topk rels=a q=0.0 access=telepathy", // bad access kind
            "prj/2 append rel=a tuples=1,2",            // tuple missing score
            "prj/2 stats k",                            // token without =
        ] {
            assert!(
                decode_request(line).is_err(),
                "line should be rejected: {line}"
            );
        }
    }

    #[test]
    fn error_messages_survive_spaces_and_equals_signs() {
        let original = Response::Error(ApiError::new(
            ErrorKind::InvalidParams,
            "weights must satisfy w_q > 0, got w_q = 0 (and w_s = 2)",
        ));
        let line = encode_response(&original);
        assert_eq!(decode_response(&line).unwrap(), original);
    }

    #[test]
    fn newlines_in_error_messages_cannot_break_framing() {
        let line = encode_response(&Response::Error(ApiError::new(
            ErrorKind::Internal,
            "first\nsecond",
        )));
        assert!(!line.contains('\n'));
        match decode_response(&line).unwrap() {
            Response::Error(e) => assert_eq!(e.message, "first second"),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn diagnostics_requests_round_trip_at_v2() {
        let query = QueryRequest::new(vec![RelationRef::Id(0), "spots".into()], [0.5, -1.0]).k(3);
        for request in [
            Request::Explain {
                query: query.clone(),
                analyze: false,
            },
            Request::Explain {
                query,
                analyze: true,
            },
            Request::FetchTrace {
                trace: 0xdead_beef_cafe_f00d,
            },
            Request::ListTraces,
            Request::Health,
        ] {
            let line = encode_request(&request).expect("encode");
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_request(&line).expect("decode"), request);
        }
    }

    #[test]
    fn explain_responses_round_trip_at_v2() {
        let plan = ExplainReport {
            algorithm: "CBPA".to_string(),
            drive: 1,
            k: 10,
            rationale: "skewed drive: discount 3.5 > threshold".to_string(),
            relations: vec![
                RelationPlanStat {
                    name: "hotels".to_string(),
                    cardinality: 4000,
                    skew: 2.5,
                    discount: 0.4,
                },
                RelationPlanStat {
                    name: "spots 2".to_string(),
                    cardinality: 120,
                    skew: -0.25,
                    discount: 1.0,
                },
            ],
            units: vec![
                UnitPlanReport {
                    shard: 0,
                    algorithm: "CBPA".to_string(),
                    dominance_period: Some(50),
                    rationale: "large shard, LP dominance on".to_string(),
                },
                UnitPlanReport {
                    shard: 1,
                    algorithm: "CBRR".to_string(),
                    dominance_period: None,
                    rationale: String::new(),
                },
            ],
            analyzed: None,
        };
        let analyzed = ExplainReport {
            analyzed: Some(AnalyzeReport {
                rows: vec![
                    ResultRow {
                        score: -3.25,
                        tuples: vec![(0, 4), (1, 7)],
                    },
                    ResultRow {
                        score: -7.5,
                        tuples: vec![(0, 1), (1, 0)],
                    },
                ],
                latency_micros: 1234,
                total_sum_depths: 88,
                units: vec![
                    UnitProfile {
                        shard: 0,
                        cache: "fresh".to_string(),
                        remote: true,
                        depths: 60,
                        micros: 900,
                        trajectory: vec![
                            TrajectorySample {
                                depth: 16,
                                kth_score: f64::NEG_INFINITY,
                                bound: -1.5,
                            },
                            TrajectorySample {
                                depth: 60,
                                kth_score: -3.25,
                                bound: -3.25,
                            },
                        ],
                    },
                    UnitProfile {
                        shard: 1,
                        cache: "delta-merged".to_string(),
                        remote: false,
                        depths: 28,
                        micros: 300,
                        trajectory: Vec::new(),
                    },
                ],
            }),
            ..plan.clone()
        };
        for response in [Response::Explain(plan), Response::Explain(analyzed)] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response, "{line}");
        }
    }

    #[test]
    fn trace_and_health_responses_round_trip_at_v2() {
        for response in [
            Response::Trace {
                trace: 99,
                class: "slow".to_string(),
                spans: vec![SpanRecord {
                    name: "query".to_string(),
                    id: 1,
                    parent: 0,
                    start_micros: 10,
                    duration_micros: 2000,
                }],
            },
            Response::Traces {
                traces: vec![
                    TraceSummary {
                        trace: 7,
                        class: "error".to_string(),
                        root: "query".to_string(),
                        duration_micros: 55,
                        spans: 3,
                    },
                    TraceSummary {
                        trace: 8,
                        class: "ok".to_string(),
                        root: "unit shard 0".to_string(),
                        duration_micros: 9,
                        spans: 1,
                    },
                ],
            },
            Response::Traces { traces: Vec::new() },
            Response::Health(HealthReport {
                ready: true,
                live: true,
                role: "coordinator".to_string(),
                replication_lag_micros: 120,
                delta_tuples: 4,
                oldest_delta_age_ms: 250,
                sub_queue_depth: 1,
                subscriptions: 2,
                traces_retained: 17,
                workers: vec![
                    WorkerHealth {
                        addr: "127.0.0.1:9001".to_string(),
                        reachable: true,
                        idle_connections: 2,
                    },
                    WorkerHealth {
                        addr: "127.0.0.1:9002".to_string(),
                        reachable: false,
                        idle_connections: 0,
                    },
                ],
            }),
            Response::Health(HealthReport::default()),
        ] {
            let line = encode_response(&response);
            assert!(line.starts_with("prj/2 "), "versioned: {line}");
            assert_eq!(decode_response(&line).expect("decode"), response, "{line}");
        }
    }

    #[test]
    fn unit_trajectories_ride_the_outcome() {
        let outcome = Response::Unit(UnitOutcome {
            rows: Vec::new(),
            final_bound: -2.0,
            depths: vec![5, 6],
            bound_updates: 3,
            combinations_formed: 4,
            micros: 99,
            capped: false,
            spans: Vec::new(),
            trajectory: vec![TrajectorySample {
                depth: 8,
                kth_score: -1.0,
                bound: -0.5,
            }],
        });
        let line = encode_response(&outcome);
        assert_eq!(decode_response(&line).expect("decode"), outcome, "{line}");
        // Lines from pre-diagnostics workers decode with an empty trajectory.
        let line = "prj/2 ok unit bound=-1.5 updates=3 formed=4 micros=99 \
                    capped=false depths=5,6 rows=";
        match decode_response(line).unwrap() {
            Response::Unit(unit) => assert!(unit.trajectory.is_empty()),
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn percent_encoded_text_round_trips() {
        for text in [
            "",
            "plain",
            "two words, one comma; a colon: done = yes (100%)",
            "newline\nand tab\t",
            "ünïcode ✓",
        ] {
            let mut out = String::new();
            encode_text(&mut out, text);
            assert!(
                out.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '%')),
                "encoded: {out}"
            );
            assert_eq!(parse_text(&out).expect("decode"), text);
        }
        // Truncated and non-hex escapes are rejected, not panics.
        assert!(parse_text("abc%").is_err());
        assert!(parse_text("abc%2").is_err());
        assert!(parse_text("abc%zz").is_err());
        // An escape sequence that breaks UTF-8 is rejected.
        assert!(parse_text("%ff%fe").is_err());
    }

    #[test]
    fn wire_safe_names() {
        assert!(is_wire_safe_name("hotels"));
        assert!(is_wire_safe_name("r2-d2_v1.5"));
        assert!(!is_wire_safe_name(""));
        assert!(!is_wire_safe_name("#3"));
        assert!(!is_wire_safe_name("two words"));
        assert!(!is_wire_safe_name("a=b"));
        assert!(!is_wire_safe_name("a;b"));
        assert!(!is_wire_safe_name("a,b"));
    }
}
