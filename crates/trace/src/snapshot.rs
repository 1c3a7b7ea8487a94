//! Point-in-time trace snapshots and the two exporters.
//!
//! [`TraceSnapshot`] is the machine-readable view of everything a tracer
//! recorded: every counter/gauge/histogram plus the surviving events of
//! every ring buffer. It exports to JSON ([`TraceSnapshot::to_json`]) and
//! imports back ([`TraceSnapshot::from_json`]) with a self-contained
//! parser (the workspace has no serialisation dependency), and dumps
//! Prometheus-style text ([`TraceSnapshot::to_prometheus`]) for scrape
//! endpoints.

use crate::event::{EventKind, TraceEvent};
use crate::metrics::bucket_upper_bound;

/// One gauge's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Stable metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
    /// High-water mark since the tracer was created.
    pub high_water: u64,
}

/// One histogram's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Stable metric name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Non-empty `(bucket index, count)` pairs; bucket `b ≥ 1` spans
    /// `[2^(b-1), 2^b)`, bucket 0 holds exact zeros.
    pub buckets: Vec<(usize, u64)>,
}

/// One ring buffer's exported events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerEvents {
    /// Ring buffer (worker) id.
    pub worker: u16,
    /// Events overwritten before this snapshot could read them.
    pub dropped: u64,
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A machine-readable point-in-time view of a tracer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Whether the tracer was enabled (a disabled tracer snapshots to
    /// the empty default).
    pub enabled: bool,
    /// Total recording operations performed (counter adds, gauge sets,
    /// histogram observations and events) — the basis of the disabled-
    /// overhead bound in `benches/e14_observability.rs`.
    pub record_ops: u64,
    /// Every counter as `(name, value)`, in fixed export order.
    pub counters: Vec<(String, u64)>,
    /// Every gauge, in fixed export order.
    pub gauges: Vec<GaugeSnapshot>,
    /// Every histogram, in fixed export order.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-worker surviving events.
    pub workers: Vec<WorkerEvents>,
}

impl TraceSnapshot {
    /// A named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Total events overwritten across every ring buffer.
    pub fn dropped_events(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Every surviving event of every worker, flattened.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.workers.iter().flat_map(|w| w.events.iter())
    }

    /// Serialises the snapshot to JSON. The output is deterministic
    /// (fixed key order) and round-trips through
    /// [`TraceSnapshot::from_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"enabled\":");
        out.push_str(if self.enabled { "true" } else { "false" });
        out.push_str(",\"record_ops\":");
        push_u64(&mut out, self.record_ops);
        out.push_str(",\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            push_u64(&mut out, *value);
        }
        out.push_str("},\"gauges\":{");
        for (i, gauge) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, &gauge.name);
            out.push_str("{\"value\":");
            push_u64(&mut out, gauge.value);
            out.push_str(",\"high_water\":");
            push_u64(&mut out, gauge.high_water);
            out.push('}');
        }
        out.push_str("},\"histograms\":{");
        for (i, histogram) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, &histogram.name);
            out.push_str("{\"count\":");
            push_u64(&mut out, histogram.count);
            out.push_str(",\"sum\":");
            push_u64(&mut out, histogram.sum);
            out.push_str(",\"buckets\":{");
            for (j, (bucket, count)) in histogram.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_key(&mut out, &bucket.to_string());
                push_u64(&mut out, *count);
            }
            out.push_str("}}");
        }
        out.push_str("},\"workers\":[");
        for (i, worker) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"worker\":");
            push_u64(&mut out, u64::from(worker.worker));
            out.push_str(",\"dropped\":");
            push_u64(&mut out, worker.dropped);
            out.push_str(",\"events\":[");
            for (j, event) in worker.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str("{\"kind\":\"");
                out.push_str(event.kind.name());
                out.push_str("\",\"at_ns\":");
                push_u64(&mut out, event.at_ns);
                out.push_str(",\"dur_ns\":");
                push_u64(&mut out, event.dur_ns);
                out.push_str(",\"request\":");
                push_u64(&mut out, event.request);
                out.push_str(",\"obligation\":");
                push_u64(&mut out, event.obligation);
                out.push_str(",\"detail\":");
                push_u64(&mut out, event.detail);
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Parses a snapshot previously produced by
    /// [`TraceSnapshot::to_json`].
    ///
    /// # Errors
    /// A human-readable message when `input` is not valid snapshot JSON.
    pub fn from_json(input: &str) -> Result<TraceSnapshot, String> {
        let value = json::parse(input)?;
        let root = value.as_object("snapshot root")?;

        let mut snapshot = TraceSnapshot {
            enabled: json::get(root, "enabled")?.as_bool("enabled")?,
            record_ops: json::get(root, "record_ops")?.as_u64("record_ops")?,
            ..TraceSnapshot::default()
        };
        for (name, value) in json::get(root, "counters")?.as_object("counters")? {
            snapshot
                .counters
                .push((name.clone(), value.as_u64("counter value")?));
        }
        for (name, value) in json::get(root, "gauges")?.as_object("gauges")? {
            let body = value.as_object("gauge body")?;
            snapshot.gauges.push(GaugeSnapshot {
                name: name.clone(),
                value: json::get(body, "value")?.as_u64("gauge value")?,
                high_water: json::get(body, "high_water")?.as_u64("gauge high_water")?,
            });
        }
        for (name, value) in json::get(root, "histograms")?.as_object("histograms")? {
            let body = value.as_object("histogram body")?;
            let mut buckets = Vec::new();
            for (bucket, count) in json::get(body, "buckets")?.as_object("buckets")? {
                let index = bucket
                    .parse::<usize>()
                    .map_err(|e| format!("bucket index {bucket:?}: {e}"))?;
                buckets.push((index, count.as_u64("bucket count")?));
            }
            snapshot.histograms.push(HistogramSnapshot {
                name: name.clone(),
                count: json::get(body, "count")?.as_u64("histogram count")?,
                sum: json::get(body, "sum")?.as_u64("histogram sum")?,
                buckets,
            });
        }
        for worker in json::get(root, "workers")?.as_array("workers")? {
            let body = worker.as_object("worker body")?;
            let mut events = Vec::new();
            for event in json::get(body, "events")?.as_array("events")? {
                let fields = event.as_object("event body")?;
                let kind_name = json::get(fields, "kind")?.as_str("event kind")?;
                let kind = EventKind::from_name(kind_name)
                    .ok_or_else(|| format!("unknown event kind {kind_name:?}"))?;
                events.push(TraceEvent {
                    kind,
                    worker: u16::try_from(json::get(body, "worker")?.as_u64("worker id")?)
                        .map_err(|e| format!("worker id: {e}"))?,
                    at_ns: json::get(fields, "at_ns")?.as_u64("at_ns")?,
                    dur_ns: json::get(fields, "dur_ns")?.as_u64("dur_ns")?,
                    request: json::get(fields, "request")?.as_u64("request")?,
                    obligation: json::get(fields, "obligation")?.as_u64("obligation")?,
                    detail: json::get(fields, "detail")?.as_u64("detail")?,
                });
            }
            snapshot.workers.push(WorkerEvents {
                worker: u16::try_from(json::get(body, "worker")?.as_u64("worker id")?)
                    .map_err(|e| format!("worker id: {e}"))?,
                dropped: json::get(body, "dropped")?.as_u64("dropped")?,
                events,
            });
        }
        Ok(snapshot)
    }

    /// Renders the metric half of the snapshot as Prometheus exposition
    /// text (`dpv_trace_*` families; events are JSON-only).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, value) in &self.counters {
            let metric = prom_name(name);
            out.push_str(&format!(
                "# TYPE dpv_trace_{metric} counter\ndpv_trace_{metric} {value}\n"
            ));
        }
        for gauge in &self.gauges {
            let metric = prom_name(&gauge.name);
            out.push_str(&format!(
                "# TYPE dpv_trace_{metric} gauge\ndpv_trace_{metric} {}\n\
                 # TYPE dpv_trace_{metric}_high_water gauge\ndpv_trace_{metric}_high_water {}\n",
                gauge.value, gauge.high_water
            ));
        }
        for histogram in &self.histograms {
            let metric = prom_name(&histogram.name);
            out.push_str(&format!("# TYPE dpv_trace_{metric} histogram\n"));
            let mut cumulative = 0u64;
            for &(bucket, count) in &histogram.buckets {
                cumulative += count;
                out.push_str(&format!(
                    "dpv_trace_{metric}_bucket{{le=\"{}\"}} {cumulative}\n",
                    bucket_upper_bound(bucket)
                ));
            }
            out.push_str(&format!(
                "dpv_trace_{metric}_bucket{{le=\"+Inf\"}} {}\n\
                 dpv_trace_{metric}_sum {}\ndpv_trace_{metric}_count {}\n",
                histogram.count, histogram.sum, histogram.count
            ));
        }
        let dropped = self.dropped_events();
        out.push_str(&format!(
            "# TYPE dpv_trace_dropped_events counter\ndpv_trace_dropped_events {dropped}\n\
             # TYPE dpv_trace_record_ops counter\ndpv_trace_record_ops {}\n",
            self.record_ops
        ));
        out
    }
}

fn push_u64(out: &mut String, value: u64) {
    out.push_str(&value.to_string());
}

/// Writes `"name":` — metric/bucket keys are plain kebab-case or digits,
/// never needing escapes.
fn push_key(out: &mut String, name: &str) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":");
}

fn prom_name(name: &str) -> String {
    name.replace('-', "_")
}

/// A minimal JSON reader covering exactly the subset
/// [`TraceSnapshot::to_json`] emits: objects, arrays, strings without
/// exotic escapes, booleans and unsigned integers.
mod json {
    pub(super) enum Value {
        Bool(bool),
        Num(u64),
        Str(String),
        Arr(Vec<Value>),
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub(super) fn as_bool(&self, what: &str) -> Result<bool, String> {
            match self {
                Value::Bool(b) => Ok(*b),
                _ => Err(format!("{what}: expected a boolean")),
            }
        }

        pub(super) fn as_u64(&self, what: &str) -> Result<u64, String> {
            match self {
                Value::Num(n) => Ok(*n),
                _ => Err(format!("{what}: expected an unsigned integer")),
            }
        }

        pub(super) fn as_str(&self, what: &str) -> Result<&str, String> {
            match self {
                Value::Str(s) => Ok(s),
                _ => Err(format!("{what}: expected a string")),
            }
        }

        pub(super) fn as_array(&self, what: &str) -> Result<&[Value], String> {
            match self {
                Value::Arr(items) => Ok(items),
                _ => Err(format!("{what}: expected an array")),
            }
        }

        pub(super) fn as_object(&self, what: &str) -> Result<&[(String, Value)], String> {
            match self {
                Value::Obj(fields) => Ok(fields),
                _ => Err(format!("{what}: expected an object")),
            }
        }
    }

    pub(super) fn get<'v>(fields: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing key {key:?}"))
    }

    pub(super) fn parse(input: &str) -> Result<Value, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while bytes
            .get(*pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
        if bytes.get(*pos) == Some(&byte) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(byte), *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') if bytes[*pos..].starts_with(b"true") => {
                *pos += 4;
                Ok(Value::Bool(true))
            }
            Some(b'f') if bytes[*pos..].starts_with(b"false") => {
                *pos += 5;
                Ok(Value::Bool(false))
            }
            Some(b'0'..=b'9') => parse_number(bytes, pos),
            _ => Err(format!("unexpected input at byte {}", *pos)),
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            fields.push((key, parse_value(bytes, pos)?));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let start = *pos;
        while let Some(&b) = bytes.get(*pos) {
            if b == b'"' {
                let text = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|e| format!("invalid utf-8 in string: {e}"))?;
                *pos += 1;
                return Ok(text.to_string());
            }
            if b == b'\\' {
                return Err(format!("escape sequences unsupported at byte {}", *pos));
            }
            *pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid integer at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            enabled: true,
            record_ops: 42,
            counters: vec![("requests".to_string(), 3), ("retries".to_string(), 0)],
            gauges: vec![GaugeSnapshot {
                name: "queue-depth".to_string(),
                value: 1,
                high_water: 8,
            }],
            histograms: vec![HistogramSnapshot {
                name: "solve-ns".to_string(),
                count: 3,
                sum: 700,
                buckets: vec![(0, 1), (9, 2)],
            }],
            workers: vec![WorkerEvents {
                worker: 2,
                dropped: 5,
                events: vec![TraceEvent {
                    kind: EventKind::Verdict,
                    worker: 2,
                    at_ns: 10,
                    dur_ns: 0,
                    request: 1,
                    obligation: 4,
                    detail: 1,
                }],
            }],
        }
    }

    #[test]
    fn json_round_trips_bit_identically() {
        let snapshot = sample();
        let json = snapshot.to_json();
        let parsed = TraceSnapshot::from_json(&json).expect("parses");
        assert_eq!(parsed, snapshot);
        // And the re-serialisation is byte-identical (deterministic order).
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snapshot = TraceSnapshot::default();
        let parsed = TraceSnapshot::from_json(&snapshot.to_json()).expect("parses");
        assert_eq!(parsed, snapshot);
    }

    #[test]
    fn malformed_json_is_rejected_with_context() {
        assert!(TraceSnapshot::from_json("").is_err());
        assert!(TraceSnapshot::from_json("{}").is_err());
        assert!(TraceSnapshot::from_json("{\"enabled\":true").is_err());
        let json = sample().to_json();
        assert!(TraceSnapshot::from_json(&json[..json.len() - 1]).is_err());
        assert!(TraceSnapshot::from_json(&format!("{json}x")).is_err());
    }

    #[test]
    fn prometheus_dump_has_families_and_cumulative_buckets() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE dpv_trace_requests counter"));
        assert!(text.contains("dpv_trace_requests 3"));
        assert!(text.contains("dpv_trace_queue_depth_high_water 8"));
        assert!(text.contains("dpv_trace_solve_ns_bucket{le=\"0\"} 1"));
        // Bucket 9 (le=511) is cumulative: 1 zero + 2 in-bucket = 3.
        assert!(text.contains("dpv_trace_solve_ns_bucket{le=\"511\"} 3"));
        assert!(text.contains("dpv_trace_solve_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dpv_trace_solve_ns_sum 700"));
        assert!(text.contains("dpv_trace_dropped_events 5"));
    }

    #[test]
    fn counter_lookup_and_dropped_totals() {
        let snapshot = sample();
        assert_eq!(snapshot.counter("requests"), 3);
        assert_eq!(snapshot.counter("absent"), 0);
        assert_eq!(snapshot.dropped_events(), 5);
        assert_eq!(snapshot.events().count(), 1);
    }
}
