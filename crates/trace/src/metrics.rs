//! Typed counters, gauges and log-bucketed histograms.
//!
//! Every metric is a fixed-shape array of `AtomicU64`s: the counters sit
//! in a [`Counters`] store that the recorder owns, the gauges and
//! histograms in the tracer's [`MetricsStore`]. Recording is therefore a
//! relaxed atomic add with no allocation, no locking and no possibility
//! of panic — the properties the recording-path contract demands.
//! Identifiers are closed enums: the exporters can enumerate every metric
//! without a registry lock, and the per-failure degradation counters key
//! off the serve layer's *stable code strings* (`"deadline-exceeded"`, …)
//! so this crate stays dependency-free.

use std::sync::atomic::{AtomicU64, Ordering};

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `b ≥ 1`
/// holds values `v` with `2^(b-1) <= v < 2^b`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Requests served to completion.
    Requests,
    /// Obligations decomposed across all requests.
    Obligations,
    /// Obligations answered from the verdict cache without solving.
    DedupHits,
    /// Obligations handed to the solver pool and completed.
    Solved,
    /// Wall-clock nanoseconds spent solving obligations, summed over the
    /// pool's workers.
    SolveNanos,
    /// Template-cache lookups answered from the cache.
    TemplateHits,
    /// Template-cache lookups that had to build.
    TemplateMisses,
    /// Template-cache LRU evictions.
    TemplateEvictions,
    /// Snapshot-pool check-outs that returned a pooled basis.
    SnapshotHits,
    /// Snapshot-pool check-outs that found the pool empty.
    SnapshotMisses,
    /// Snapshot-pool check-ins dropped because the pool was full.
    SnapshotDiscards,
    /// LP node relaxations solved from a snapshot basis (warm).
    WarmLpSolves,
    /// LP node relaxations solved from the slack basis (cold).
    ColdLpSolves,
    /// Total simplex pivots across every LP solve.
    SimplexIterations,
    /// Branch-and-bound nodes explored.
    BnbNodes,
    /// Budget-exhausted solves retried once with escalated budgets (a
    /// failed result check is not retried).
    Retries,
    /// Escalated retries that produced a definitive verdict.
    RetrySuccesses,
    /// Worker panics caught and contained.
    WorkerPanics,
    /// Obligations quarantined after panicking on both attempts.
    Quarantined,
    /// Obligations skipped because their request deadline had expired.
    DeadlineSkipped,
    /// Obligations degraded with code `deadline-exceeded`.
    DegradedDeadlineExceeded,
    /// Obligations degraded with code `worker-panic`.
    DegradedWorkerPanic,
    /// Obligations degraded with code `iteration-limit`.
    DegradedIterationLimit,
    /// Obligations degraded with code `node-limit`.
    DegradedNodeLimit,
    /// Obligations degraded with code `slot-lost`.
    DegradedSlotLost,
    /// Obligations degraded with a code outside the known taxonomy.
    DegradedOther,
}

impl CounterId {
    /// Every counter, in export order.
    pub const ALL: [CounterId; 26] = [
        CounterId::Requests,
        CounterId::Obligations,
        CounterId::DedupHits,
        CounterId::Solved,
        CounterId::SolveNanos,
        CounterId::TemplateHits,
        CounterId::TemplateMisses,
        CounterId::TemplateEvictions,
        CounterId::SnapshotHits,
        CounterId::SnapshotMisses,
        CounterId::SnapshotDiscards,
        CounterId::WarmLpSolves,
        CounterId::ColdLpSolves,
        CounterId::SimplexIterations,
        CounterId::BnbNodes,
        CounterId::Retries,
        CounterId::RetrySuccesses,
        CounterId::WorkerPanics,
        CounterId::Quarantined,
        CounterId::DeadlineSkipped,
        CounterId::DegradedDeadlineExceeded,
        CounterId::DegradedWorkerPanic,
        CounterId::DegradedIterationLimit,
        CounterId::DegradedNodeLimit,
        CounterId::DegradedSlotLost,
        CounterId::DegradedOther,
    ];

    /// Stable kebab-case name, used by both exporters.
    pub fn name(self) -> &'static str {
        match self {
            CounterId::Requests => "requests",
            CounterId::Obligations => "obligations",
            CounterId::DedupHits => "dedup-hits",
            CounterId::Solved => "solved",
            CounterId::SolveNanos => "solve-nanos",
            CounterId::TemplateHits => "template-hits",
            CounterId::TemplateMisses => "template-misses",
            CounterId::TemplateEvictions => "template-evictions",
            CounterId::SnapshotHits => "snapshot-hits",
            CounterId::SnapshotMisses => "snapshot-misses",
            CounterId::SnapshotDiscards => "snapshot-discards",
            CounterId::WarmLpSolves => "warm-lp-solves",
            CounterId::ColdLpSolves => "cold-lp-solves",
            CounterId::SimplexIterations => "simplex-iterations",
            CounterId::BnbNodes => "bnb-nodes",
            CounterId::Retries => "retries",
            CounterId::RetrySuccesses => "retry-successes",
            CounterId::WorkerPanics => "worker-panics",
            CounterId::Quarantined => "quarantined",
            CounterId::DeadlineSkipped => "deadline-skipped",
            CounterId::DegradedDeadlineExceeded => "degraded-deadline-exceeded",
            CounterId::DegradedWorkerPanic => "degraded-worker-panic",
            CounterId::DegradedIterationLimit => "degraded-iteration-limit",
            CounterId::DegradedNodeLimit => "degraded-node-limit",
            CounterId::DegradedSlotLost => "degraded-slot-lost",
            CounterId::DegradedOther => "degraded-other",
        }
    }

    /// The per-failure degradation counter for a serve-layer
    /// `FailureReason::code()` string; unknown codes fold into
    /// [`CounterId::DegradedOther`].
    pub fn for_failure_code(code: &str) -> CounterId {
        match code {
            "deadline-exceeded" => CounterId::DegradedDeadlineExceeded,
            "worker-panic" => CounterId::DegradedWorkerPanic,
            "iteration-limit" => CounterId::DegradedIterationLimit,
            "node-limit" => CounterId::DegradedNodeLimit,
            "slot-lost" => CounterId::DegradedSlotLost,
            _ => CounterId::DegradedOther,
        }
    }
}

/// Point-in-time gauges with a high-water mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GaugeId {
    /// Obligations in flight in the server's queue.
    QueueDepth,
}

impl GaugeId {
    /// Every gauge, in export order.
    pub const ALL: [GaugeId; 1] = [GaugeId::QueueDepth];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            GaugeId::QueueDepth => "queue-depth",
        }
    }
}

/// Log-bucketed (power-of-two) histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramId {
    /// Wall-clock nanoseconds per solved obligation.
    SolveNs,
    /// Nanoseconds between enqueue and dequeue per obligation.
    QueueWaitNs,
    /// Nanoseconds of deadline budget left when an obligation completed.
    DeadlineMarginNs,
}

impl HistogramId {
    /// Every histogram, in export order.
    pub const ALL: [HistogramId; 3] = [
        HistogramId::SolveNs,
        HistogramId::QueueWaitNs,
        HistogramId::DeadlineMarginNs,
    ];

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            HistogramId::SolveNs => "solve-ns",
            HistogramId::QueueWaitNs => "queue-wait-ns",
            HistogramId::DeadlineMarginNs => "deadline-margin-ns",
        }
    }
}

/// The bucket index a value falls into: 0 for 0, else the value's bit
/// length (so bucket `b` spans `[2^(b-1), 2^b)`).
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket, as displayed by the Prometheus
/// exporter (`le` label). Bucket 0 is `0`; the last bucket saturates.
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        (1u128 << bucket)
            .saturating_sub(1)
            .try_into()
            .unwrap_or(u64::MAX)
    }
}

#[derive(Debug)]
struct AtomicHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct AtomicGauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

/// One relaxed `AtomicU64` per [`CounterId`]: the one counter store, which
/// needs no tracer. A [`crate::Tracer`] keeps no counters of its own; the
/// obligation server keeps one store for the serve-level counters and the
/// solver work its solves report, so they count whether tracing is on or
/// off, and [`crate::Tracer::snapshot_with`] exports it.
#[derive(Debug)]
pub struct Counters {
    values: [AtomicU64; CounterId::ALL.len()],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            values: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Counters {
    /// Adds `n` to counter `id` and returns its new value.
    pub fn add(&self, id: CounterId, n: u64) -> u64 {
        match self.values.get(id as usize) {
            Some(counter) => counter.fetch_add(n, Ordering::Relaxed) + n,
            None => 0,
        }
    }

    /// The current value of counter `id`.
    pub fn get(&self, id: CounterId) -> u64 {
        self.values
            .get(id as usize)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// The fixed gauge and histogram store shared by every handle of one
/// tracer.
#[derive(Debug)]
pub(crate) struct MetricsStore {
    gauges: [AtomicGauge; GaugeId::ALL.len()],
    histograms: [AtomicHistogram; HistogramId::ALL.len()],
}

impl MetricsStore {
    pub(crate) fn new() -> MetricsStore {
        MetricsStore {
            gauges: std::array::from_fn(|_| AtomicGauge {
                value: AtomicU64::new(0),
                high_water: AtomicU64::new(0),
            }),
            histograms: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    pub(crate) fn set_gauge(&self, id: GaugeId, value: u64) {
        if let Some(gauge) = self.gauges.get(id as usize) {
            gauge.value.store(value, Ordering::Relaxed);
            gauge.high_water.fetch_max(value, Ordering::Relaxed);
        }
    }

    pub(crate) fn gauge(&self, id: GaugeId) -> (u64, u64) {
        self.gauges.get(id as usize).map_or((0, 0), |g| {
            (
                g.value.load(Ordering::Relaxed),
                g.high_water.load(Ordering::Relaxed),
            )
        })
    }

    pub(crate) fn observe(&self, id: HistogramId, value: u64) {
        if let Some(histogram) = self.histograms.get(id as usize) {
            histogram.observe(value);
        }
    }

    /// `(count, sum, non-empty (bucket, count) pairs in bucket order)`.
    pub(crate) fn histogram(&self, id: HistogramId) -> (u64, u64, Vec<(usize, u64)>) {
        let Some(histogram) = self.histograms.get(id as usize) else {
            return (0, 0, Vec::new());
        };
        let buckets = histogram
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(b, c)| {
                let count = c.load(Ordering::Relaxed);
                (count > 0).then_some((b, count))
            })
            .collect();
        (
            histogram.count.load(Ordering::Relaxed),
            histogram.sum.load(Ordering::Relaxed),
            buckets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_power_of_two_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counters_accumulate_and_report() {
        let store = Counters::default();
        assert_eq!(store.add(CounterId::Retries, 2), 2);
        assert_eq!(store.add(CounterId::Retries, 3), 5);
        assert_eq!(store.get(CounterId::Retries), 5);
        assert_eq!(store.get(CounterId::Requests), 0);
    }

    #[test]
    fn gauges_track_high_water() {
        let store = MetricsStore::new();
        store.set_gauge(GaugeId::QueueDepth, 4);
        store.set_gauge(GaugeId::QueueDepth, 9);
        store.set_gauge(GaugeId::QueueDepth, 1);
        assert_eq!(store.gauge(GaugeId::QueueDepth), (1, 9));
    }

    #[test]
    fn histograms_log_bucket_and_sum() {
        let store = MetricsStore::new();
        for v in [0, 1, 3, 3, 100] {
            store.observe(HistogramId::SolveNs, v);
        }
        let (count, sum, buckets) = store.histogram(HistogramId::SolveNs);
        assert_eq!(count, 5);
        assert_eq!(sum, 107);
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (7, 1)]);
        assert_eq!(store.histogram(HistogramId::QueueWaitNs).0, 0);
    }

    #[test]
    fn failure_codes_map_to_degradation_counters() {
        assert_eq!(
            CounterId::for_failure_code("deadline-exceeded"),
            CounterId::DegradedDeadlineExceeded
        );
        assert_eq!(
            CounterId::for_failure_code("worker-panic"),
            CounterId::DegradedWorkerPanic
        );
        assert_eq!(
            CounterId::for_failure_code("iteration-limit"),
            CounterId::DegradedIterationLimit
        );
        assert_eq!(
            CounterId::for_failure_code("node-limit"),
            CounterId::DegradedNodeLimit
        );
        assert_eq!(
            CounterId::for_failure_code("slot-lost"),
            CounterId::DegradedSlotLost
        );
        assert_eq!(
            CounterId::for_failure_code("anything"),
            CounterId::DegradedOther
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistogramId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
