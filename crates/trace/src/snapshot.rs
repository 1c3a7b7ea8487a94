//! Point-in-time trace snapshots and the two exporters.
//!
//! [`TraceSnapshot`] is the machine-readable view of everything a tracer
//! recorded: every counter/gauge/histogram plus the surviving events of
//! every ring buffer. It exports to JSON ([`TraceSnapshot::to_json`],
//! written by hand: the workspace has no serialisation dependency) and
//! dumps Prometheus-style text ([`TraceSnapshot::to_prometheus`]) for
//! scrape endpoints. Nothing reads a snapshot back.

use crate::event::TraceEvent;
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
    /// (fixed key order, no whitespace), and a golden-string test pins it
    /// byte for byte.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

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
    fn json_export_matches_the_golden_string() {
        assert_eq!(
            sample().to_json(),
            concat!(
                r#"{"enabled":true,"record_ops":42,"#,
                r#""counters":{"requests":3,"retries":0},"#,
                r#""gauges":{"queue-depth":{"value":1,"high_water":8}},"#,
                r#""histograms":{"solve-ns":{"count":3,"sum":700,"buckets":{"0":1,"9":2}}},"#,
                r#""workers":[{"worker":2,"dropped":5,"events":["#,
                r#"{"kind":"verdict","at_ns":10,"dur_ns":0,"request":1,"obligation":4,"detail":1}"#,
                r#"]}]}"#,
            )
        );
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
