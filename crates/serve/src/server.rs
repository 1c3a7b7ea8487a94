//! The resident obligation server: a persistent worker pool draining one
//! FIFO queue of proof obligations through shared template and verdict
//! caches.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dpv_absint::BoxDomain;
use dpv_core::{
    CoreError, Fingerprint, ProblemTemplate, RegionBounds, SolveOptions, StartRegion,
    TemplateCache, Verdict, VerificationProblem,
};
use dpv_lp::{BranchAndBoundBackend, CancelToken, MilpSolution, MilpStatus, SolveStats};
use dpv_trace::{
    CounterId, Counters, EventKind, GaugeId, HistogramId, TraceEvent, TraceHandle, TraceSnapshot,
    Tracer, NO_OBLIGATION,
};

use crate::fault::{FailureReason, FaultKind, FaultPlan};
use crate::request::{Decomposition, Shard, VerificationRequest};
use crate::stats::ServeStats;
use crate::timeline::RequestTimeline;

/// Budget multiplier applied to the single escalated retry of a
/// node-limit / iteration-limit solve (unseeded, on a problem built for
/// that solve alone — see [`dpv_core::SolveOptions::escalation`]).
const ESCALATION_SCALE: usize = 4;

/// Sizing of a resident [`ObligationServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Persistent worker threads (clamped to at least 1). Each worker
    /// solves one obligation at a time on its own thread, so the server's
    /// parallelism is exactly this count.
    pub workers: usize,
    /// Bound on obligations in flight; [`ObligationServer::serve`] blocks
    /// once this many are admitted and unfinished (clamped to at least 1).
    pub queue_capacity: usize,
    /// LRU capacity of the shared template cache.
    pub template_capacity: usize,
    /// No longer read: the server keeps no basis pool and solves every
    /// obligation from the slack basis. The field stays until perfbench's
    /// replay, which sizes its own [`dpv_core::SnapshotPool`] from it,
    /// moves off the pool.
    pub snapshot_per_key: usize,
    /// FIFO capacity of the verdict (dedup) cache (0 disables dedup).
    pub verdict_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            queue_capacity: 64,
            template_capacity: 32,
            snapshot_per_key: 2,
            verdict_capacity: 4096,
        }
    }
}

impl ServeConfig {
    /// Default sizing with `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }
}

/// Errors surfaced by [`ObligationServer::serve`].
#[derive(Debug)]
pub enum ServeError {
    /// Request decomposition or encoding failed.
    Core(CoreError),
    /// The request is malformed (non-finite parameters, an unbounded or
    /// inverted region, no obligations or more than 2^16) and was
    /// rejected before admission; the message names the offending field.
    /// Also returned, naming the panic, when admission of a request that
    /// passed validation panics (finite bounds that overflow to NaN).
    InvalidRequest(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "core error: {e}"),
            ServeError::InvalidRequest(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Per-family aggregate verdict of a request, folded in obligation-index
/// order: `Safe` iff every obligation of the family is safe, otherwise
/// the lowest-index counterexample, otherwise the lowest-index give-up.
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyVerdict {
    /// Index into [`VerificationRequest::risks`].
    pub family: usize,
    /// The risk condition's name.
    pub risk: String,
    /// The folded verdict.
    pub verdict: Verdict,
}

/// The outcome of one proof obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct ObligationOutcome {
    /// Global obligation index (the fold order).
    pub index: usize,
    /// Family (risk) index.
    pub family: usize,
    /// Shard index.
    pub shard: usize,
    /// Sub-box index within the shard.
    pub sub_box: usize,
    /// The verdict (canonical: independent of cache state and scheduling).
    /// An `Unsafe` witness is the first node LP point, in depth-first
    /// order, that passes the counterexample guard; it is a pure function
    /// of the obligation.
    pub verdict: Verdict,
    /// Whether the verdict came from the dedup cache without solving.
    pub deduped: bool,
    /// Wall-clock nanoseconds spent solving (0 when deduped). Cost
    /// telemetry only — scheduling-dependent.
    pub solve_ns: u128,
    /// Solver statistics (zeroed when deduped). Every obligation is
    /// solved from the slack basis, so the counts are a pure function of
    /// the obligation and equal a direct
    /// [`VerificationProblem::solve_with_template`] of it; only
    /// `solve_ns` depends on scheduling.
    pub stats: SolveStats,
}

/// The result of one served request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestReport {
    /// One folded verdict per risk condition, in family order. This (and
    /// the per-obligation verdicts) is the deterministic surface: equal
    /// run-to-run regardless of worker scheduling or cache state.
    pub verdicts: Vec<FamilyVerdict>,
    /// Per-obligation outcomes, in obligation-index order.
    pub obligations: Vec<ObligationOutcome>,
    /// End-to-end wall-clock seconds for the request.
    pub seconds: f64,
    /// The trace-derived per-obligation timeline. Present only when the
    /// server was built with [`ServerBuilder::tracer`] over an enabled
    /// tracer; like `seconds`, cost telemetry — not part of the
    /// deterministic report surface. Server-wide counters are not
    /// attached to a report: read them with [`ObligationServer::stats`].
    pub timeline: Option<RequestTimeline>,
}

impl RequestReport {
    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let safe = self.verdicts.iter().filter(|v| v.verdict.is_safe()).count();
        let deduped = self.obligations.iter().filter(|o| o.deduped).count();
        format!(
            "{}/{} families safe | {} obligations ({} deduped) | {:.3}s",
            safe,
            self.verdicts.len(),
            self.obligations.len(),
            deduped,
            self.seconds
        )
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// FIFO-bounded verdict cache: `(template, sub-region)` fingerprints →
/// canonical verdict.
#[derive(Debug, Default)]
struct VerdictCache {
    map: HashMap<(Fingerprint, Fingerprint), Verdict>,
    order: VecDeque<(Fingerprint, Fingerprint)>,
}

impl VerdictCache {
    fn get(&self, key: &(Fingerprint, Fingerprint)) -> Option<Verdict> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, capacity: usize, key: (Fingerprint, Fingerprint), verdict: Verdict) {
        if capacity == 0 {
            return;
        }
        if self.map.insert(key, verdict).is_none() {
            self.order.push_back(key);
        }
        while self.map.len() > capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
    }
}

/// Obligation-pool state guarded by one mutex: the job queue, the
/// in-flight count (the backpressure bound) and the shutdown flag. A
/// worker that finds the queue empty sleeps on `work` without releasing
/// the lock in between, so it cannot miss a push.
#[derive(Default)]
struct PoolState {
    /// Admitted jobs no worker has picked up yet, oldest first. FIFO, so a
    /// later request cannot starve an earlier one.
    queue: VecDeque<Job>,
    in_flight: usize,
    max_in_flight: usize,
    shutdown: bool,
}

/// What a worker hands back for one obligation.
#[derive(Debug)]
struct WorkerOutcome {
    verdict: Verdict,
    solve_ns: u128,
    stats: SolveStats,
}

impl WorkerOutcome {
    /// An outcome that cost no solve.
    fn unsolved(verdict: Verdict) -> Self {
        Self {
            verdict,
            solve_ns: 0,
            stats: SolveStats::default(),
        }
    }
}

/// How one obligation of a request was answered: one slot of the request's
/// outcome table.
#[derive(Debug)]
enum Answer {
    /// By a worker: solved, or skipped at the request's deadline.
    Solved(WorkerOutcome),
    /// From the verdict cache, at admission.
    Cached(Verdict),
    /// By the caller's plan (a delta's reused or absorbed verdict), before
    /// admission.
    Planned(Verdict),
    /// By a deadline that had expired before admission.
    Expired,
}

/// Per-request state shared between the submitting thread and the workers.
#[derive(Debug)]
struct RequestState {
    /// The outcome table: one slot per obligation, in index order, empty
    /// until the obligation is answered.
    answers: Mutex<Vec<Option<Answer>>>,
    remaining: Mutex<usize>,
    done: Condvar,
    /// The request's deadline token (`None` for unbounded requests):
    /// checked before solving and polled inside the solver.
    cancel: Option<CancelToken>,
    /// The request's trace tag (serves as the timeline key).
    seq: u64,
}

/// One unit of pool work.
struct Job {
    index: usize,
    template: Arc<ProblemTemplate>,
    problem: Arc<VerificationProblem>,
    region: StartRegion,
    bounds: Option<RegionBounds>,
    dedup_key: (Fingerprint, Fingerprint),
    request: Arc<RequestState>,
    /// When the job entered the queue, on the tracer's clock (0 when
    /// tracing is disabled).
    enqueued_at_ns: u64,
}

struct Inner {
    config: ServeConfig,
    templates: TemplateCache,
    verdicts: Mutex<VerdictCache>,
    state: Mutex<PoolState>,
    work: Condvar,
    space: Condvar,
    /// The server's one counter store, always on: every serve-level event
    /// (requests, dedup hits, retries, panics, cache hits, …) is counted
    /// here exactly once, and so is the solver work that each solve
    /// attempt reports in its [`SolveStats`]. [`ObligationServer::stats`]
    /// and [`ObligationServer::trace_snapshot`] both read it; the caches
    /// count into it too.
    counters: Arc<Counters>,
    /// The deterministic fault-injection seam (test/bench only; empty in
    /// production). Consulted once per obligation solve by index.
    fault_plan: Mutex<FaultPlan>,
    /// The trace sink shared by admission, workers and both caches.
    /// Disabled unless the server was built with
    /// [`ServerBuilder::tracer`]; recording through a disabled tracer is
    /// a branch on an absent `Option`.
    tracer: Tracer,
    /// The admission thread's recording handle (workers register their
    /// own per-thread handles in [`worker_loop`]).
    admission: TraceHandle,
    /// Request tags start at 1; 0 is [`dpv_trace::NO_REQUEST`].
    request_seq: AtomicU64,
}

/// A resident verification server: persistent workers, cross-request
/// caches, bounded admission. See the crate docs for the cache-key
/// scheme, eviction policy and backpressure contract.
///
/// Dropping the server shuts the pool down and joins every worker.
pub struct ObligationServer {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl fmt::Debug for ObligationServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObligationServer")
            .field("config", &self.inner.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Builder for an [`ObligationServer`] — the single construction path.
///
/// Two axes, each with a default: stock [`ServeConfig`] and tracing
/// disabled (the zero-overhead production default). A server starts with
/// an empty fault plan; tests and benches install one with
/// [`ObligationServer::set_fault_plan`].
///
/// ```
/// use dpv_serve::{ObligationServer, ServeConfig};
///
/// let server = ObligationServer::builder()
///     .config(ServeConfig::with_workers(2))
///     .build();
/// assert_eq!(server.config().workers, 2);
/// ```
#[derive(Default)]
pub struct ServerBuilder {
    config: ServeConfig,
    tracer: Option<Tracer>,
}

impl ServerBuilder {
    /// A builder with every axis at its default.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes the server (workers, queue bound, cache capacities).
    pub fn config(mut self, config: ServeConfig) -> Self {
        self.config = config;
        self
    }

    /// Records into `tracer`: admission and worker events land in
    /// per-thread ring buffers, queue depth and latencies in its gauges
    /// and histograms, and every report carries a [`RequestTimeline`].
    /// The counters, solver work included, do not need a tracer: they are
    /// always on (see [`ObligationServer::stats`]), and
    /// [`ObligationServer::trace_snapshot`] exports them. Tracing is
    /// strictly observational: verdicts, fold order and cached bytes are
    /// bit-identical to an untraced server (pinned by the `trace_parity`
    /// proptest).
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Starts the server: spawns `config.workers` persistent worker
    /// threads against the shared caches.
    pub fn build(self) -> ObligationServer {
        ObligationServer::start(self.config, self.tracer.unwrap_or_else(Tracer::disabled))
    }
}

impl ObligationServer {
    /// A [`ServerBuilder`] with every axis at its default.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::new()
    }

    /// The construction path behind [`ServerBuilder::build`].
    fn start(config: ServeConfig, tracer: Tracer) -> Self {
        let config = ServeConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            ..config
        };
        let admission = tracer.register();
        let counters = Arc::new(Counters::default());
        let inner = Arc::new(Inner {
            config,
            templates: TemplateCache::with_counters(
                config.template_capacity,
                Arc::clone(&counters),
            ),
            verdicts: Mutex::new(VerdictCache::default()),
            state: Mutex::new(PoolState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
            counters,
            fault_plan: Mutex::new(FaultPlan::new()),
            tracer,
            admission,
            request_seq: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self { inner, workers }
    }

    /// Serves one request to completion: validates it, decomposes it once
    /// into obligations, answers duplicates from the verdict cache, batches
    /// the remaining admissions per template, drains them through the pool
    /// (blocking on the queue bound), and folds the verdicts in
    /// obligation-index order. The request's deadline, if any, runs from
    /// entry.
    ///
    /// # Errors
    /// What [`VerificationRequest::validate`] rejects (checked first, before
    /// anything is admitted); [`ServeError::Core`] when decomposition or
    /// encoding fails; [`ServeError::InvalidRequest`] when admission
    /// panics.
    pub fn serve(&self, request: &VerificationRequest) -> Result<RequestReport, ServeError> {
        let started = Instant::now();
        let cancel = request.deadline.map(CancelToken::with_deadline);
        request.validate()?;
        let decomposition = request.decompose()?;
        let plan = vec![None; decomposition.len()];
        self.serve_decomposed(request, &decomposition, plan, started, cancel)
    }

    /// The one admission path, behind [`ObligationServer::serve`] and
    /// [`ObligationServer::serve_delta`]: `plan` holds one entry per
    /// obligation of `decomposition`, and a `Some` verdict answers its
    /// obligation before admission, so it is neither dedup-checked nor
    /// solved (a delta's reused and absorbed verdicts). A deadline that
    /// expired before admission answers every obligation instead, the
    /// plan's included. Whatever is left is answered from the verdict cache
    /// or solved by the pool, and every request ends in the same report
    /// assembly.
    pub(crate) fn serve_decomposed(
        &self,
        request: &VerificationRequest,
        decomposition: &Decomposition,
        plan: Vec<Option<Verdict>>,
        started: Instant,
        cancel: Option<CancelToken>,
    ) -> Result<RequestReport, ServeError> {
        let total = plan.len();
        debug_assert_eq!(total, decomposition.len(), "one plan entry per obligation");
        if total == 0 {
            return Err(ServeError::InvalidRequest(
                "request decomposed into zero obligations".into(),
            ));
        }
        let seq = self.inner.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let rtrace = self.inner.admission.tagged(seq, NO_OBLIGATION);
        let trace_began = rtrace.now_ns();
        rtrace.event(TraceEvent::instant(
            EventKind::RequestBegin,
            trace_began,
            total as u64,
        ));

        let counters = &self.inner.counters;
        // Already expired: the deadline answers every obligation, so no
        // group fetches a template and nothing is solved, yet the report is
        // complete.
        let answers = if cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            counters.add(CounterId::DeadlineSkipped, total as u64);
            counters.add(CounterId::DegradedDeadlineExceeded, total as u64);
            (0..total).map(|_| Some(Answer::Expired)).collect()
        } else {
            plan.into_iter()
                .map(|verdict| verdict.map(Answer::Planned))
                .collect()
        };
        let state = Arc::new(RequestState {
            answers: Mutex::new(answers),
            remaining: Mutex::new(0),
            done: Condvar::new(),
            cancel,
            seq,
        });

        // Admission, one `(family, shard)` group at a time in obligation
        // order. A finite request can still overflow to NaN bounds on the
        // way, and the interval layer panics on those; admission runs under
        // `catch_unwind` so that panic becomes an error for this request
        // alone. That is safe: templates are built outside the cache lock,
        // and no job is enqueued until every group is admitted.
        let admitted = catch_unwind(AssertUnwindSafe(|| {
            let mut jobs = Vec::new();
            let mut first = 0;
            for problem in &decomposition.problems {
                for shard in &decomposition.shards {
                    jobs.extend(self.admit_group(problem, shard, first, &state, &rtrace)?);
                    first += shard.sub_regions.len();
                }
            }
            Ok::<_, ServeError>(jobs)
        }));
        let jobs = admitted.map_err(|payload| {
            let why = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string panic payload");
            ServeError::InvalidRequest(format!("admission failed: {why}"))
        })??;
        *lock(&state.remaining) = jobs.len();

        self.enqueue_with_backpressure(jobs, &rtrace);

        // Wait for the pool to drain this request.
        {
            let mut remaining = lock(&state.remaining);
            while *remaining > 0 {
                remaining = wait(&state.done, remaining);
            }
        }

        let outcomes: Vec<ObligationOutcome> = lock(&state.answers)
            .iter_mut()
            .zip(decomposition.obligations())
            .enumerate()
            .map(|(index, (answer, ((family, shard, sub_box), _)))| {
                let (outcome, deduped) = match answer.take() {
                    Some(Answer::Solved(outcome)) => (outcome, false),
                    Some(Answer::Cached(verdict)) => (WorkerOutcome::unsolved(verdict), true),
                    Some(Answer::Planned(verdict)) => (WorkerOutcome::unsolved(verdict), false),
                    Some(Answer::Expired) => (
                        WorkerOutcome::unsolved(unknown(FailureReason::DeadlineExceeded)),
                        false,
                    ),
                    // A lost slot is an accounting bug, not a reason to
                    // crash the submitter: report it as a degraded outcome
                    // with a stable code and let the siblings' verdicts
                    // stand.
                    None => (
                        WorkerOutcome::unsolved(unknown(FailureReason::SlotLost)),
                        false,
                    ),
                };
                ObligationOutcome {
                    index,
                    family,
                    shard,
                    sub_box,
                    verdict: outcome.verdict,
                    deduped,
                    solve_ns: outcome.solve_ns,
                    stats: outcome.stats,
                }
            })
            .collect();

        let verdicts = fold_families(request, &outcomes);
        counters.add(CounterId::Requests, 1);
        counters.add(CounterId::Obligations, total as u64);
        if rtrace.is_enabled() {
            rtrace.event(TraceEvent::span(
                EventKind::RequestEnd,
                trace_began,
                rtrace.now_ns().saturating_sub(trace_began),
                total as u64,
            ));
        }
        Ok(RequestReport {
            verdicts,
            obligations: outcomes,
            seconds: started.elapsed().as_secs_f64(),
            timeline: self.request_timeline(seq),
        })
    }

    /// The per-request timeline attached to a report: reconstructed from
    /// a fresh trace snapshot when tracing is enabled, `None` otherwise.
    fn request_timeline(&self, request_seq: u64) -> Option<RequestTimeline> {
        if !self.inner.tracer.is_enabled() {
            return None;
        }
        Some(RequestTimeline::from_snapshot(
            &self.inner.tracer.snapshot(),
            request_seq,
        ))
    }

    /// Installs the deterministic fault-injection plan consulted (by
    /// global obligation index) on every subsequent solve. A test/bench
    /// seam: the default plan is empty and production callers never need
    /// this. Pass [`FaultPlan::new`] to clear. See [`crate::FaultKind`]
    /// for what each fault does.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *lock(&self.inner.fault_plan) = plan;
    }

    /// Admission of one `(family, shard)` group, the obligations
    /// `first..first + shard.sub_regions.len()`. A group whose every slot
    /// is already answered (by the plan or the deadline) stops here and
    /// fetches no template. Otherwise it fetches its template, whose
    /// fingerprint keys the verdict cache, writes cached verdicts straight
    /// into the outcome table, and returns the rest as enqueueable jobs,
    /// box sub-regions carrying bounds from one
    /// [`dpv_core::EncodingTemplate::region_bounds_batch`] sweep.
    fn admit_group(
        &self,
        problem: &Arc<VerificationProblem>,
        shard: &Shard,
        first: usize,
        state: &Arc<RequestState>,
        rtrace: &TraceHandle,
    ) -> Result<Vec<Job>, ServeError> {
        let slots = first..first + shard.sub_regions.len();
        if lock(&state.answers)[slots.clone()]
            .iter()
            .all(Option::is_some)
        {
            return Ok(Vec::new());
        }
        let template = self.inner.templates.get_or_build(problem, &shard.root)?;
        let template_fp = template.fingerprint();

        let mut pending = Vec::new();
        {
            let verdicts = lock(&self.inner.verdicts);
            let mut answers = lock(&state.answers);
            for (index, region) in slots.zip(&shard.sub_regions) {
                if answers[index].is_some() {
                    continue;
                }
                let key = (template_fp, Fingerprint::of_region(region));
                match verdicts.get(&key) {
                    Some(verdict) => {
                        self.inner.counters.add(CounterId::DedupHits, 1);
                        if rtrace.is_enabled() {
                            let mut event =
                                TraceEvent::instant(EventKind::DedupHit, rtrace.now_ns(), 0);
                            event.obligation = index as u64;
                            rtrace.event(event);
                        }
                        answers[index] = Some(Answer::Cached(verdict));
                    }
                    None => pending.push((index, region, key)),
                }
            }
        }

        // One SoA sweep over the pending sub-boxes, zipped in order. They
        // were bisected from the template's root, and each lane is
        // bit-identical to propagating its box alone, so every MILP is the
        // one a scalar propagation builds. An octagon root is its group's
        // one region and propagates in the worker.
        let boxes: Vec<&BoxDomain> = pending
            .iter()
            .filter_map(|(_, region, _)| match region {
                StartRegion::Box(b) => Some(b),
                StartRegion::Octagon(_) => None,
            })
            .collect();
        let mut lanes = template.encoding().region_bounds_batch(&boxes)?.into_iter();
        Ok(pending
            .into_iter()
            .map(|(index, region, dedup_key)| Job {
                index,
                template: Arc::clone(&template),
                problem: Arc::clone(problem),
                region: region.clone(),
                bounds: lanes.next(),
                dedup_key,
                request: Arc::clone(state),
                enqueued_at_ns: 0,
            })
            .collect())
    }

    /// Pushes jobs into the pool, blocking whenever `queue_capacity`
    /// obligations are already in flight — the backpressure contract.
    fn enqueue_with_backpressure(&self, jobs: Vec<Job>, rtrace: &TraceHandle) {
        for mut job in jobs {
            if rtrace.is_enabled() {
                job.enqueued_at_ns = rtrace.now_ns();
                let mut event = TraceEvent::instant(EventKind::Enqueue, job.enqueued_at_ns, 0);
                event.obligation = job.index as u64;
                rtrace.event(event);
            }
            let depth;
            {
                let mut state = lock(&self.inner.state);
                while state.in_flight >= self.inner.config.queue_capacity {
                    state = wait(&self.inner.space, state);
                }
                state.in_flight += 1;
                state.max_in_flight = state.max_in_flight.max(state.in_flight);
                depth = state.in_flight;
                state.queue.push_back(job);
            }
            self.inner.work.notify_one();
            rtrace.gauge(GaugeId::QueueDepth, depth as u64);
        }
    }

    /// A point-in-time statistics snapshot, read from the server's
    /// always-on counter store plus the live queue-depth and cache
    /// readings. Tracing on or off makes no difference to it.
    pub fn stats(&self) -> ServeStats {
        let count = |id| self.inner.counters.get(id);
        let (queue_depth, max_queue_depth) = {
            let state = lock(&self.inner.state);
            (state.in_flight, state.max_in_flight)
        };
        ServeStats {
            requests: count(CounterId::Requests),
            obligations: count(CounterId::Obligations),
            solved: count(CounterId::Solved),
            dedup_hits: count(CounterId::DedupHits),
            retries: count(CounterId::Retries),
            retry_successes: count(CounterId::RetrySuccesses),
            worker_panics: count(CounterId::WorkerPanics),
            quarantined: count(CounterId::Quarantined),
            deadline_skipped: count(CounterId::DeadlineSkipped),
            queue_depth,
            max_queue_depth,
            total_solve_ns: u128::from(count(CounterId::SolveNanos)),
            templates: self.inner.templates.stats(),
            // The server keeps no basis pool and never re-solves, so
            // `snapshots` and `canonical_resolves` stay at their defaults.
            ..ServeStats::default()
        }
    }

    /// A full export of the server's tracer: the counters of the server's
    /// always-on store (solver work included), gauges, histograms and
    /// every buffered event. Empty (with `enabled: false`) for servers
    /// built without a tracer.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.inner.tracer.snapshot_with(&self.inner.counters)
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> ServeConfig {
        self.inner.config
    }
}

impl Drop for ObligationServer {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.inner.state);
            state.shutdown = true;
        }
        self.inner.work.notify_all();
        self.inner.space.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Folds per-obligation verdicts into per-family verdicts in
/// obligation-index order (see [`Verdict::fold`]).
fn fold_families(
    request: &VerificationRequest,
    outcomes: &[ObligationOutcome],
) -> Vec<FamilyVerdict> {
    request
        .risks
        .iter()
        .enumerate()
        .map(|(family, risk)| FamilyVerdict {
            family,
            risk: risk.name().to_string(),
            verdict: Verdict::fold(
                outcomes
                    .iter()
                    .filter(|o| o.family == family)
                    .map(|o| &o.verdict),
            ),
        })
        .collect()
}

fn worker_loop(inner: &Arc<Inner>) {
    let backend = BranchAndBoundBackend;
    // Each worker thread owns one trace ring buffer for its lifetime.
    let handle = inner.tracer.register();
    while let Some(job) = next_job(inner) {
        let outcome = run_job_isolated(inner, &job, &backend, &handle);
        complete_job(inner, job, outcome, &handle);
    }
}

/// Runs one obligation with panic isolation: a panic anywhere in the
/// solve is caught, the obligation is retried once in place (every solve
/// builds its problem afresh), and a second panic quarantines it — the
/// obligation reports `Unknown("worker-panic")`, is never written to the
/// verdict cache, and the worker (and every sibling obligation) carries
/// on.
fn run_job_isolated(
    inner: &Arc<Inner>,
    job: &Job,
    backend: &BranchAndBoundBackend,
    handle: &TraceHandle,
) -> WorkerOutcome {
    let trace = handle.tagged(job.request.seq, job.index as u64);
    for attempt in 0..2 {
        match catch_unwind(AssertUnwindSafe(|| run_job(inner, job, backend, &trace))) {
            Ok(outcome) => return outcome,
            Err(_) => {
                inner.counters.add(CounterId::WorkerPanics, 1);
                if attempt == 1 {
                    inner.counters.add(CounterId::Quarantined, 1);
                    inner.counters.add(CounterId::DegradedWorkerPanic, 1);
                }
            }
        }
    }
    WorkerOutcome::unsolved(unknown(FailureReason::WorkerPanic))
}

/// Pops the oldest queued job, sleeping on the work condvar until a push;
/// `None` once the queue is drained and the server is shutting down.
fn next_job(inner: &Inner) -> Option<Job> {
    let mut state = lock(&inner.state);
    loop {
        if let Some(job) = state.queue.pop_front() {
            return Some(job);
        }
        if state.shutdown {
            return None;
        }
        state = wait(&inner.work, state);
    }
}

/// The deterministic [`MilpSolution`] an injected iteration-budget
/// exhaustion reports, independent of the real solver's state.
fn exhausted_solution() -> MilpSolution {
    MilpSolution {
        status: MilpStatus::IterationLimit,
        values: Vec::new(),
        objective: 0.0,
        stats: SolveStats::default(),
    }
}

/// Counts the solver work one solve attempt reports in its [`SolveStats`]
/// into the server's counter store.
fn count_solver_work(counters: &Counters, stats: &SolveStats) {
    for (id, n) in [
        (CounterId::BnbNodes, stats.nodes_explored),
        (CounterId::WarmLpSolves, stats.warm_solves),
        (CounterId::ColdLpSolves, stats.cold_solves),
        (CounterId::SimplexIterations, stats.simplex_iterations),
    ] {
        counters.add(id, n as u64);
    }
}

/// Solves one obligation with the resilience policy, in this order:
///
/// 1. **deadline gate** — an expired request deadline skips the solve
///    outright (`Unknown("deadline-exceeded")`, no solver invocation);
/// 2. **fault injection** — the obligation's planned fault (if any)
///    fires: panic, delay or injected exhaustion;
/// 3. **solve** — from the slack basis, with warm starts only inside the
///    obligation's own branch-and-bound tree, so the verdict, its witness
///    and the solver statistics are pure functions of the obligation; the
///    request's cancel token is polled between simplex pivots and
///    branch-and-bound nodes. Each solve attempt's statistics, the
///    escalated retry's included, are counted into the server's store;
/// 4. **escalated retry** — a node-/iteration-limit outcome is retried
///    once with `ESCALATION_SCALE`× budgets before degrading, unless an LP
///    result failed its check: the retry would repeat the same pivots and
///    fail the same check;
/// 5. **degraded rewrite** — leftover Cancelled/NodeLimit/IterationLimit
///    statuses become stable [`FailureReason`] codes, and degraded
///    outcomes are *never* written to the verdict cache.
fn run_job(
    inner: &Arc<Inner>,
    job: &Job,
    backend: &BranchAndBoundBackend,
    trace: &TraceHandle,
) -> WorkerOutcome {
    let started = Instant::now();
    if trace.is_enabled() {
        let now = trace.now_ns();
        let queue_wait = now.saturating_sub(job.enqueued_at_ns);
        trace.event(TraceEvent::instant(EventKind::Dequeue, now, queue_wait));
        trace.observe(HistogramId::QueueWaitNs, queue_wait);
    }
    let cancel = job.request.cancel.as_ref();
    if cancel.is_some_and(CancelToken::is_cancelled) {
        return deadline_skip(inner, 0);
    }
    let fault = lock(&inner.fault_plan).fault_at(job.index);
    match fault {
        Some(FaultKind::Panic) => panic!("injected fault: panic at obligation {}", job.index),
        Some(FaultKind::Delay { millis }) => {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return deadline_skip(inner, started.elapsed().as_nanos());
            }
        }
        _ => {}
    }

    // Injected exhaustion replaces the real solve by a deterministic
    // IterationLimit outcome.
    let injected_exhaust = matches!(
        fault,
        Some(FaultKind::ExhaustIterations | FaultKind::TransientExhaust)
    );
    let (mut verdict, mut solution) = if injected_exhaust {
        (unknown(FailureReason::IterationLimit), exhausted_solution())
    } else {
        let attempt_started = trace.now_ns();
        let solved = job.problem.solve_with_template(
            &job.template,
            &job.region,
            &mut SolveOptions::new()
                .bounds(job.bounds.as_ref())
                .cancel(cancel)
                .backend(backend)
                .tracer(trace),
        );
        if trace.is_enabled() {
            trace.event(TraceEvent::span(
                EventKind::SolveAttempt,
                attempt_started,
                trace.now_ns().saturating_sub(attempt_started),
                0,
            ));
        }
        match solved {
            Ok(pair) => {
                count_solver_work(&inner.counters, &pair.1.stats);
                pair
            }
            Err(e) => {
                return WorkerOutcome {
                    verdict: Verdict::Unknown(format!("obligation failed: {e}")),
                    solve_ns: started.elapsed().as_nanos(),
                    stats: SolveStats::default(),
                }
            }
        }
    };

    // One escalated retry for budget-exhausted solves: unseeded, with
    // raised budgets on a problem built for the retry alone, so a
    // successful retry is bit-identical to the fault-free verdict. A persistent injected
    // exhaustion (`ExhaustIterations`) exhausts the retry too. A result
    // that failed its check is not retried: the check is deterministic.
    if matches!(
        solution.status,
        MilpStatus::NodeLimit | MilpStatus::IterationLimit
    ) && solution.stats.failed_checks == 0
    {
        inner.counters.add(CounterId::Retries, 1);
        if !matches!(fault, Some(FaultKind::ExhaustIterations)) {
            let retry_started = trace.now_ns();
            let retried = job.problem.solve_with_template(
                &job.template,
                &job.region,
                &mut SolveOptions::new()
                    .bounds(job.bounds.as_ref())
                    .escalation(ESCALATION_SCALE)
                    .cancel(cancel)
                    .backend(backend)
                    .tracer(trace),
            );
            if trace.is_enabled() {
                trace.event(TraceEvent::span(
                    EventKind::EscalatedRetry,
                    retry_started,
                    trace.now_ns().saturating_sub(retry_started),
                    ESCALATION_SCALE as u64,
                ));
            }
            if let Ok((retry_verdict, retry_solution)) = retried {
                count_solver_work(&inner.counters, &retry_solution.stats);
                if matches!(
                    retry_solution.status,
                    MilpStatus::Optimal | MilpStatus::Infeasible
                ) {
                    inner.counters.add(CounterId::RetrySuccesses, 1);
                    verdict = retry_verdict;
                    solution = retry_solution;
                }
            }
        }
    }

    // Rewrite leftover degraded statuses to stable machine-readable
    // codes (in this server, cancellation only ever means a request
    // deadline), and keep degraded outcomes out of the dedup cache so
    // they can never shadow a future clean solve.
    let degraded = match solution.status {
        MilpStatus::Cancelled => Some(FailureReason::DeadlineExceeded),
        MilpStatus::NodeLimit => Some(FailureReason::NodeLimit),
        MilpStatus::IterationLimit => Some(FailureReason::IterationLimit),
        _ => None,
    };
    if let Some(reason) = degraded {
        verdict = unknown(reason);
        inner
            .counters
            .add(CounterId::for_failure_code(reason.code()), 1);
    } else {
        lock(&inner.verdicts).insert(
            inner.config.verdict_capacity,
            job.dedup_key,
            verdict.clone(),
        );
    }
    WorkerOutcome {
        verdict,
        solve_ns: started.elapsed().as_nanos(),
        stats: solution.stats,
    }
}

/// The degraded outcome of an obligation whose request deadline expired
/// before (or while) the worker picked it up.
fn deadline_skip(inner: &Arc<Inner>, solve_ns: u128) -> WorkerOutcome {
    inner.counters.add(CounterId::DeadlineSkipped, 1);
    inner.counters.add(CounterId::DegradedDeadlineExceeded, 1);
    WorkerOutcome {
        solve_ns,
        ..WorkerOutcome::unsolved(unknown(FailureReason::DeadlineExceeded))
    }
}

/// The `Unknown` verdict of an obligation degraded for `reason`.
fn unknown(reason: FailureReason) -> Verdict {
    Verdict::Unknown(reason.code().to_string())
}

/// The trace detail payload of a [`EventKind::Verdict`] event.
fn verdict_class(verdict: &Verdict) -> dpv_trace::VerdictClass {
    match verdict {
        Verdict::Safe => dpv_trace::VerdictClass::Safe,
        Verdict::Unsafe(_) => dpv_trace::VerdictClass::Unsafe,
        Verdict::Unknown(_) => dpv_trace::VerdictClass::Unknown,
    }
}

/// Completion bookkeeping: writes the outcome, releases one unit of
/// queue capacity, and wakes the submitter when its request drained.
fn complete_job(inner: &Arc<Inner>, job: Job, outcome: WorkerOutcome, handle: &TraceHandle) {
    inner.counters.add(CounterId::Solved, 1);
    inner.counters.add(
        CounterId::SolveNanos,
        u64::try_from(outcome.solve_ns).unwrap_or(u64::MAX),
    );
    if handle.is_enabled() {
        let trace = handle.tagged(job.request.seq, job.index as u64);
        trace.event(TraceEvent::instant(
            EventKind::Verdict,
            trace.now_ns(),
            verdict_class(&outcome.verdict) as u64,
        ));
        trace.observe(
            HistogramId::SolveNs,
            u64::try_from(outcome.solve_ns).unwrap_or(u64::MAX),
        );
        if let Some(margin) = job.request.cancel.as_ref().and_then(CancelToken::remaining) {
            trace.observe(
                HistogramId::DeadlineMarginNs,
                u64::try_from(margin.as_nanos()).unwrap_or(u64::MAX),
            );
        }
    }
    lock(&job.request.answers)[job.index] = Some(Answer::Solved(outcome));
    // Release the queue slot before marking the request drained, so a
    // submitter woken by `done` observes the freed capacity.
    let depth;
    {
        let mut state = lock(&inner.state);
        state.in_flight -= 1;
        depth = state.in_flight;
    }
    handle.gauge(GaugeId::QueueDepth, depth as u64);
    inner.space.notify_one();
    {
        let mut remaining = lock(&job.request.remaining);
        *remaining -= 1;
        if *remaining == 0 {
            job.request.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_plumbing_is_send_and_sync() {
        assert_send_sync::<ProblemTemplate>();
        assert_send_sync::<TemplateCache>();
        assert_send_sync::<Fingerprint>();
        assert_send_sync::<Job>();
        assert_send_sync::<Inner>();
        assert_send_sync::<ObligationServer>();
    }

    #[test]
    fn verdict_cache_is_fifo_bounded() {
        let mut cache = VerdictCache::default();
        let keys: Vec<_> = (0..4u64)
            .map(|i| {
                let fp = Fingerprint::of_region(&StartRegion::Box(BoxDomain::uniform(
                    2,
                    -(i as f64) - 1.0,
                    i as f64 + 1.0,
                )));
                (fp, fp)
            })
            .collect();
        for key in &keys {
            cache.insert(2, *key, Verdict::Safe);
        }
        assert!(cache.get(&keys[0]).is_none(), "oldest entries evicted");
        assert!(cache.get(&keys[1]).is_none());
        assert!(cache.get(&keys[2]).is_some());
        assert!(cache.get(&keys[3]).is_some());
        cache.insert(0, keys[0], Verdict::Safe);
        assert!(cache.get(&keys[0]).is_none(), "capacity 0 disables dedup");
    }
}
