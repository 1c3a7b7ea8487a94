//! `dpv-trace` — zero-overhead-when-off tracing, metrics and
//! per-obligation timelines for the solver/serve stack.
//!
//! # Event model
//!
//! A [`Tracer`] owns one shared [`MetricsStore`-shaped] set of typed
//! counters/gauges/histograms ([`CounterId`], [`GaugeId`],
//! [`HistogramId`]) plus one event ring buffer per registered handle.
//! The counter array is also usable on its own, without a tracer
//! ([`Counters`]): the obligation server keeps its always-on counters in
//! one and exports them through [`Tracer::snapshot_with`].
//! Events ([`TraceEvent`]) are fixed-width six-word records forming an
//! implicit span hierarchy through their tags: request → obligation →
//! solve attempt → {instantiate, warm LP, cold LP, branch-and-bound
//! progress, escalated retry}. Timestamps are
//! nanoseconds on the monotonic clock since the tracer's creation.
//!
//! # Ring-buffer semantics
//!
//! Each [`TraceHandle`] returned by [`Tracer::register`] records into
//! its own bounded ring (default 4096 events, [`TraceConfig`]), so the
//! hot path takes **no locks**: recording is one `fetch_add` to claim a
//! slot plus seven relaxed/release stores. Memory is bounded; once a
//! ring is full the oldest event is overwritten and a dropped-events
//! counter ticks (surfaced as [`WorkerEvents::dropped`]). Snapshots are
//! optimistic seqlock-style readers: a slot caught mid-write is
//! discarded, never torn. Recording never panics and never allocates.
//!
//! # Sampling
//!
//! Per-LP-node instrumentation would dominate the ring, so
//! [`TraceHandle::lp_node`] always bumps the counters (`bnb-nodes`,
//! `warm-lp-solves`/`cold-lp-solves`, `simplex-iterations`) but emits
//! [`EventKind::WarmLp`]/[`EventKind::ColdLp`] events only every
//! [`TraceConfig::lp_sample_every`]-th solve and
//! [`EventKind::BnbProgress`] every
//! [`TraceConfig::bnb_sample_every`]-th node (the first of each is
//! always sampled). Counters are exact; events are a sampled timeline.
//!
//! # Determinism contract: traced ≡ untraced
//!
//! Tracing is **observational only**. A disabled tracer
//! ([`Tracer::disabled`], the default everywhere) reduces every
//! recording call to a single branch on an `Option` — no clock read, no
//! atomic, no allocation — and enabling tracing must not change any
//! verdict, fold order or cached byte anywhere in the stack: the solver
//! and serve layers only ever *report* through these APIs, never ask
//! them for decisions. `crates/serve/tests/trace_parity.rs` pins the
//! contract by running identical requests traced and untraced and
//! asserting bit-identical reports, and `benches/e14_observability.rs`
//! bounds the disabled-recorder overhead at ≤ 20‰ of request time.
//!
//! # Exporters
//!
//! [`Tracer::snapshot`] produces a [`TraceSnapshot`]: a machine-readable
//! value that serialises to JSON ([`TraceSnapshot::to_json`]) and to
//! Prometheus-style exposition text ([`TraceSnapshot::to_prometheus`]).
//!
//! [`MetricsStore`-shaped]: CounterId

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod event;
mod metrics;
mod ring;
mod snapshot;

pub use event::{EventKind, TraceEvent, VerdictClass, NO_OBLIGATION, NO_REQUEST};
pub use metrics::{
    bucket_index, bucket_upper_bound, CounterId, Counters, GaugeId, HistogramId, HISTOGRAM_BUCKETS,
};
pub use snapshot::{GaugeSnapshot, HistogramSnapshot, TraceSnapshot, WorkerEvents};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use metrics::MetricsStore;
use ring::RingBuffer;

/// Tuning knobs for an enabled tracer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring-buffer capacity (events) of each registered handle; values
    /// below 1 are clamped to 1.
    pub events_per_buffer: usize,
    /// Emit a [`EventKind::BnbProgress`] event every this-many
    /// branch-and-bound nodes (counters stay exact); clamped to ≥ 1.
    pub bnb_sample_every: u64,
    /// Emit a [`EventKind::WarmLp`]/[`EventKind::ColdLp`] event every
    /// this-many LP node solves of that temperature; clamped to ≥ 1.
    pub lp_sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events_per_buffer: 4096,
            bnb_sample_every: 64,
            lp_sample_every: 32,
        }
    }
}

#[derive(Debug)]
struct Shared {
    config: TraceConfig,
    epoch: Instant,
    metrics: MetricsStore,
    buffers: Mutex<Vec<Arc<RingBuffer>>>,
    /// Recording *calls* performed (not atomics touched) — the unit of
    /// the disabled-overhead model in `benches/e14_observability.rs`.
    record_ops: AtomicU64,
}

impl Shared {
    fn tick(&self) {
        self.record_ops.fetch_add(1, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The tracer owning all recorded state. Cheap to clone (an `Arc`);
/// the default is disabled and recording through a disabled tracer is a
/// single branch.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl Tracer {
    /// A tracer that records nothing at (provably near-zero) cost.
    pub fn disabled() -> Tracer {
        Tracer { shared: None }
    }

    /// An enabled tracer with default [`TraceConfig`].
    pub fn enabled() -> Tracer {
        Tracer::with_config(TraceConfig::default())
    }

    /// An enabled tracer with explicit tuning.
    pub fn with_config(config: TraceConfig) -> Tracer {
        Tracer {
            shared: Some(Arc::new(Shared {
                config,
                epoch: Instant::now(),
                metrics: MetricsStore::new(),
                buffers: Mutex::new(Vec::new()),
                record_ops: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Recording calls performed so far (0 when disabled).
    pub fn record_ops(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.record_ops.load(Ordering::Relaxed))
    }

    /// Registers a recording handle with its own event ring buffer
    /// (worker id = registration order). On a disabled tracer this is
    /// free and returns a disabled handle.
    pub fn register(&self) -> TraceHandle {
        let Some(shared) = &self.shared else {
            return TraceHandle::disabled();
        };
        let buffer = {
            let mut buffers = match shared.buffers.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let worker = u16::try_from(buffers.len()).unwrap_or(u16::MAX);
            let buffer = Arc::new(RingBuffer::new(worker, shared.config.events_per_buffer));
            buffers.push(Arc::clone(&buffer));
            buffer
        };
        TraceHandle {
            sink: Some((Arc::clone(shared), buffer)),
            request: NO_REQUEST,
            obligation: NO_OBLIGATION,
        }
    }

    /// A point-in-time snapshot of every metric and every surviving
    /// event. A disabled tracer snapshots to the empty default.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.snapshot_with(&Counters::default())
    }

    /// [`Tracer::snapshot`] with `counters` added into the exported
    /// counters: the export of a recorder that keeps some counters in a
    /// store of its own (the obligation server's always-on store). A
    /// disabled tracer still snapshots to the empty default.
    pub fn snapshot_with(&self, counters: &Counters) -> TraceSnapshot {
        let Some(shared) = &self.shared else {
            return TraceSnapshot::default();
        };
        let buffers: Vec<Arc<RingBuffer>> = {
            match shared.buffers.lock() {
                Ok(guard) => guard.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            }
        };
        TraceSnapshot {
            enabled: true,
            record_ops: shared.record_ops.load(Ordering::Relaxed),
            counters: CounterId::ALL
                .iter()
                .map(|&id| {
                    let value = shared.metrics.counters.get(id) + counters.get(id);
                    (id.name().to_string(), value)
                })
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&id| {
                    let (value, high_water) = shared.metrics.gauge(id);
                    GaugeSnapshot {
                        name: id.name().to_string(),
                        value,
                        high_water,
                    }
                })
                .collect(),
            histograms: HistogramId::ALL
                .iter()
                .map(|&id| {
                    let (count, sum, buckets) = shared.metrics.histogram(id);
                    HistogramSnapshot {
                        name: id.name().to_string(),
                        count,
                        sum,
                        buckets,
                    }
                })
                .collect(),
            workers: buffers
                .iter()
                .map(|buffer| {
                    let (dropped, events) = buffer.snapshot();
                    WorkerEvents {
                        worker: buffer.worker(),
                        dropped,
                        events,
                    }
                })
                .collect(),
        }
    }
}

/// A recording handle: the thing threaded through the solver and serve
/// hot paths. Disabled handles ([`TraceHandle::disabled`]) make every
/// method a single `Option` branch — no clock read, no atomic.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    /// The tracer's shared state and this handle's ring buffer.
    sink: Option<(Arc<Shared>, Arc<RingBuffer>)>,
    request: u64,
    obligation: u64,
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

impl TraceHandle {
    /// A handle that records nothing.
    pub fn disabled() -> TraceHandle {
        TraceHandle {
            sink: None,
            request: NO_REQUEST,
            obligation: NO_OBLIGATION,
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// A clone of this handle whose untagged events inherit the given
    /// request/obligation tags (pass [`NO_REQUEST`]/[`NO_OBLIGATION`]
    /// to leave a tag unset).
    pub fn tagged(&self, request: u64, obligation: u64) -> TraceHandle {
        TraceHandle {
            sink: self.sink.clone(),
            request,
            obligation,
        }
    }

    /// Nanoseconds since the tracer's epoch; **0 when disabled** (no
    /// clock read, so span timing code must be gated on
    /// [`TraceHandle::is_enabled`]).
    pub fn now_ns(&self) -> u64 {
        self.sink.as_ref().map_or(0, |(shared, _)| shared.now_ns())
    }

    /// Adds to a counter.
    pub fn add(&self, id: CounterId, n: u64) {
        let Some((shared, _)) = &self.sink else {
            return;
        };
        shared.tick();
        shared.metrics.counters.add(id, n);
    }

    /// Sets a gauge (and raises its high-water mark).
    pub fn gauge(&self, id: GaugeId, value: u64) {
        let Some((shared, _)) = &self.sink else {
            return;
        };
        shared.tick();
        shared.metrics.set_gauge(id, value);
    }

    /// Records a histogram observation.
    pub fn observe(&self, id: HistogramId, value: u64) {
        let Some((shared, _)) = &self.sink else {
            return;
        };
        shared.tick();
        shared.metrics.observe(id, value);
    }

    /// Records an event into this handle's ring buffer, filling in the
    /// worker tag and any unset request/obligation tags.
    pub fn event(&self, mut event: TraceEvent) {
        let Some((shared, buffer)) = &self.sink else {
            return;
        };
        shared.tick();
        event.worker = buffer.worker();
        if event.request == NO_REQUEST {
            event.request = self.request;
        }
        if event.obligation == NO_OBLIGATION {
            event.obligation = self.obligation;
        }
        buffer.record(event.encode());
    }

    /// The per-LP-node fast path: **one call, one disabled branch** per
    /// branch-and-bound node. Bumps `bnb-nodes`, the warm/cold solve
    /// counter and `simplex-iterations` exactly, and emits sampled
    /// [`EventKind::WarmLp`]/[`EventKind::ColdLp`] and
    /// [`EventKind::BnbProgress`] events per [`TraceConfig`].
    pub fn lp_node(&self, warm: bool, iterations: u64) {
        let Some((shared, buffer)) = &self.sink else {
            return;
        };
        shared.tick();
        let counters = &shared.metrics.counters;
        let nodes = counters.add(CounterId::BnbNodes, 1);
        let temperature = if warm {
            CounterId::WarmLpSolves
        } else {
            CounterId::ColdLpSolves
        };
        let solves = counters.add(temperature, 1);
        counters.add(CounterId::SimplexIterations, iterations);
        let lp_every = shared.config.lp_sample_every.max(1);
        if (solves.wrapping_sub(1)) % lp_every == 0 {
            let kind = if warm {
                EventKind::WarmLp
            } else {
                EventKind::ColdLp
            };
            let mut event = TraceEvent::instant(kind, shared.now_ns(), iterations);
            event.worker = buffer.worker();
            event.request = self.request;
            event.obligation = self.obligation;
            buffer.record(event.encode());
        }
        let bnb_every = shared.config.bnb_sample_every.max(1);
        if (nodes.wrapping_sub(1)) % bnb_every == 0 {
            let mut event = TraceEvent::instant(EventKind::BnbProgress, shared.now_ns(), nodes);
            event.worker = buffer.worker();
            event.request = self.request;
            event.obligation = self.obligation;
            buffer.record(event.encode());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn tracer_and_handle_are_send_sync() {
        assert_send_sync::<Tracer>();
        assert_send_sync::<TraceHandle>();
        assert_send_sync::<TraceSnapshot>();
    }

    #[test]
    fn disabled_everything_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let handle = tracer.register();
        assert!(!handle.is_enabled());
        assert_eq!(handle.now_ns(), 0);
        handle.add(CounterId::Requests, 1);
        handle.gauge(GaugeId::QueueDepth, 9);
        handle.observe(HistogramId::SolveNs, 100);
        handle.event(TraceEvent::instant(EventKind::Enqueue, 1, 0));
        handle.lp_node(true, 10);
        assert_eq!(tracer.record_ops(), 0);
        assert_eq!(tracer.snapshot(), TraceSnapshot::default());
        assert_eq!(Tracer::default().snapshot(), TraceSnapshot::default());
    }

    #[test]
    fn register_snapshot_flow_and_tag_inheritance() {
        let tracer = Tracer::enabled();
        let w0 = tracer.register();
        let w1 = tracer.register().tagged(7, 3);
        w0.add(CounterId::Requests, 2);
        w1.event(TraceEvent::instant(EventKind::Dequeue, 5, 0));
        let mut explicit = TraceEvent::instant(EventKind::Verdict, 6, 1);
        explicit.request = 8;
        explicit.obligation = 4;
        w1.event(explicit);

        let snapshot = tracer.snapshot();
        assert!(snapshot.enabled);
        assert_eq!(snapshot.counter("requests"), 2);
        assert_eq!(snapshot.workers.len(), 2);
        assert_eq!(snapshot.workers[1].worker, 1);
        let events = &snapshot.workers[1].events;
        assert_eq!(events.len(), 2);
        // Untagged event inherited the handle's tags…
        assert_eq!((events[0].request, events[0].obligation), (7, 3));
        assert_eq!(events[0].worker, 1);
        // …explicit tags win.
        assert_eq!((events[1].request, events[1].obligation), (8, 4));
    }

    #[test]
    fn record_ops_counts_calls_not_atomics() {
        let tracer = Tracer::enabled();
        let handle = tracer.register();
        handle.add(CounterId::Retries, 1);
        handle.gauge(GaugeId::QueueDepth, 1);
        handle.observe(HistogramId::SolveNs, 1);
        handle.event(TraceEvent::instant(EventKind::Enqueue, 1, 0));
        handle.lp_node(false, 25); // one call = one op despite 3 counters
        assert_eq!(tracer.record_ops(), 5);
        assert_eq!(tracer.snapshot().record_ops, 5);
    }

    #[test]
    fn lp_node_counts_exactly_and_samples_events() {
        let tracer = Tracer::with_config(TraceConfig {
            events_per_buffer: 128,
            bnb_sample_every: 4,
            lp_sample_every: 3,
        });
        let handle = tracer.register();
        for i in 0..10 {
            handle.lp_node(i % 2 == 0, 5);
        }
        let snapshot = tracer.snapshot();
        assert_eq!(snapshot.counter("bnb-nodes"), 10);
        assert_eq!(snapshot.counter("warm-lp-solves"), 5);
        assert_eq!(snapshot.counter("cold-lp-solves"), 5);
        assert_eq!(snapshot.counter("simplex-iterations"), 50);
        // Warm solves 1 and 4 sampled, cold solves 1 and 4 sampled,
        // nodes 1, 5 and 9 sampled.
        let count = |kind: EventKind| snapshot.events().filter(|e| e.kind == kind).count();
        assert_eq!(count(EventKind::WarmLp), 2);
        assert_eq!(count(EventKind::ColdLp), 2);
        assert_eq!(count(EventKind::BnbProgress), 3);
    }

    #[test]
    fn snapshot_exports_recorded_metrics_to_prometheus() {
        let tracer = Tracer::enabled();
        let handle = tracer.register();
        handle.add(CounterId::Requests, 1);
        handle.observe(HistogramId::QueueWaitNs, 900);
        handle.gauge(GaugeId::QueueDepth, 4);
        handle.event(TraceEvent::span(EventKind::SolveAttempt, 10, 20, 1));
        let snapshot = tracer.snapshot();
        assert!(snapshot.to_prometheus().contains("dpv_trace_requests 1"));
    }

    #[test]
    fn now_ns_is_monotone_when_enabled() {
        let tracer = Tracer::enabled();
        let handle = tracer.register();
        let a = handle.now_ns();
        let b = handle.now_ns();
        assert!(b >= a);
    }
}
