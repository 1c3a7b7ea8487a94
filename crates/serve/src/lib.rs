//! # dpv-serve
//!
//! A **resident obligation server** for tail-network verification: a
//! long-lived process component that accepts verification requests (tail
//! network × risk-property family × characterizer × region, optionally
//! sharded), decomposes each request once into proof obligations
//! (property-family member × shard × sub-box), and drains the obligations
//! through a persistent worker pool, fed by one FIFO queue, that survives
//! across requests.
//!
//! ## Decomposition and admission
//!
//! A request is decomposed once: one verification problem per risk
//! family, plus each shard's root (checked against the cut layer) and
//! bisected sub-boxes, which every family shares.
//! [`ObligationServer::serve`] and [`ObligationServer::serve_delta`] pass
//! it, with one optional pre-decided verdict per obligation, to one
//! admission path. Each `(family, shard)` group with an unanswered
//! obligation fetches its template, answers what it can from the verdict
//! cache and propagates the rest in one batched bound sweep; a group
//! answered whole fetches nothing.
//!
//! What makes residency pay is the shared state *between* requests:
//!
//! * a [`dpv_core::TemplateCache`] of [`dpv_core::ProblemTemplate`]s keyed
//!   by canonical structural [`dpv_core::Fingerprint`]s, so a repeat
//!   request reuses the split network and the cached layers, and builds each
//!   obligation's MILP from its own bounds;
//! * a verdict cache for **deduplication**: an obligation whose
//!   `(template, sub-region)` fingerprint pair was already solved returns
//!   the recorded verdict without touching the solver.
//!
//! ## Cache-key scheme
//!
//! Every key is built from [`dpv_core::Fingerprint`], the 128-bit
//! content hash of the encoding inputs (tail layers, characterizer
//! network, risk inequalities, root region geometry — cosmetic names
//! excluded):
//!
//! | cache             | key                                               |
//! |-------------------|---------------------------------------------------|
//! | template cache    | `Fingerprint::of_template(tail, char, risk, root)` |
//! | verdict (dedup)   | `(template fingerprint, Fingerprint::of_region)`   |
//!
//! ## Eviction policy
//!
//! The template cache evicts least-recently-used whole templates once
//! `template_capacity` is exceeded. The verdict cache evicts in FIFO
//! (insertion) order past `verdict_capacity` entries. Both are bounded so
//! a resident server cannot grow without limit across requests.
//!
//! ## Backpressure contract
//!
//! At most `queue_capacity` obligations are in flight (admitted to the
//! pool and not yet completed) at any moment.
//! [`ObligationServer::serve`] **blocks** while the queue is full and
//! admits the next obligation only when a worker completes one — a
//! bounded queue, not load shedding: no obligation is ever dropped, and a
//! burst of requests slows the submitters down instead of exhausting
//! memory.
//!
//! ## Determinism
//!
//! Workers race and caches warm up — yet the *verdicts* of a request are
//! a pure function of the request. Every obligation is solved from the
//! slack basis, with warm starts only inside its own branch-and-bound
//! tree, so its verdict, witness and solver statistics do not depend on
//! which worker took it or what was solved before. Results are folded in
//! obligation-index order (lowest-index counterexample beats lowest-index
//! give-up, as in [`dpv_core::VerificationProblem::verify_sharded_with`]).
//! Timings are explicitly *not* part of the deterministic surface.
//!
//! ## Failure-reason taxonomy
//!
//! An obligation the server could not answer definitively reports
//! [`dpv_core::Verdict::Unknown`] whose payload is one of the stable
//! machine-readable codes of [`FailureReason`]:
//!
//! | code                 | meaning                                            |
//! |----------------------|----------------------------------------------------|
//! | `deadline-exceeded`  | the request deadline expired before/during a solve |
//! | `worker-panic`       | the obligation panicked twice and was quarantined  |
//! | `iteration-limit`    | simplex budget exhausted after escalation, or an LP result failed its check (not retried) |
//! | `node-limit`         | branch-and-bound budget exhausted after escalation |
//! | `slot-lost`          | internal accounting bug (reported, never a crash)  |
//!
//! Match on the code, not on prose: codes are exact `Unknown` payloads
//! and parseable back via [`FailureReason::of`]. Degraded outcomes are
//! **never** written to the verdict cache, so a later identical
//! obligation gets a fresh chance at a definitive verdict.
//!
//! ## Retry and quarantine policy
//!
//! * A solve that exhausts its node or iteration budget is retried
//!   **once**, unseeded with budgets raised 4×, before degrading — so a
//!   transient exhaustion cannot produce a spurious give-up, and a
//!   successful retry is bit-identical to the canonical fault-free verdict
//!   ([`ServeStats::retries`], [`ServeStats::retry_successes`]). The retry
//!   builds its own problem, so the raised budgets apply to that one solve
//!   and to no other obligation. A solve whose LP result failed its
//!   check ([`dpv_lp::SolveStats::failed_checks`]) is not retried: the
//!   check is deterministic, so the retry would fail it again.
//! * A worker panic while solving is caught; the obligation is retried
//!   **once** in place, and a second panic
//!   quarantines it: verdict `Unknown("worker-panic")`, never cached,
//!   never retried again. The worker thread and every sibling obligation
//!   survive ([`ServeStats::worker_panics`], [`ServeStats::quarantined`]).
//!
//! ## Cancellation guarantees
//!
//! A request's optional [`VerificationRequest::deadline`] becomes a
//! [`dpv_lp::CancelToken`] polled cooperatively between simplex pivots
//! and branch-and-bound nodes. On expiry: an un-started obligation is
//! skipped without touching the solver; an in-flight solve returns
//! promptly with its incumbent discarded into `deadline-exceeded`;
//! **already-computed verdicts are never lost** — the report is always
//! complete, with every obligation either definitively answered or
//! carrying a degraded code. The deadline runs from entry to `serve` or
//! `serve_delta`. A request already expired when admission begins is
//! answered whole by the deadline, with no template fetched and no solver
//! invoked, and assembled like any other report (on a traced server, its
//! timeline has a begin and an end but no obligation entries).
//!
//! ## Fault injection
//!
//! A server starts with an empty [`FaultPlan`].
//! [`ObligationServer::set_fault_plan`], the one way to install a plan,
//! swaps in a deterministic one (obligation index → [`FaultKind`]) for
//! the resilience tests and benches; reports are pure functions of
//! `(request, plan)`, and obligations a plan does not touch are
//! bit-identical to the fault-free run.
//!
//! ## Delta verification
//!
//! [`ObligationServer::serve_delta`] serves a request as a **delta** over
//! a prior run of the same specification on a different perception
//! checkpoint: the two checkpoints are diffed per layer
//! ([`dpv_delta::CheckpointDiff`]), obligations whose tail is untouched
//! reuse the prior verdict verbatim and tail perturbations provably inside
//! the bound slack reuse prior `Safe` verdicts by absorption
//! ([`dpv_delta::DeltaPlanner`]); only the remainder is re-solved, on the
//! resident template cache. The new request is decomposed once and
//! admitted like a `serve` request with the plan's verdicts pre-decided;
//! the prior request contributes only its regions.
//! The [`ProofDeltaReport`] carries a
//! [`dpv_delta::Disposition`] per obligation (reused / absorbed /
//! re-proved / newly-degraded) and is **bit-for-bit equal** to a
//! from-scratch serve of the same request (the `delta` parity proptest
//! pins this; the soundness argument lives on the `dpv_delta` crate
//! root).
//!
//! ## Accounting
//!
//! Every serve-level event — a request, a dedup hit, a retry, a panic, a
//! cache hit or miss — is counted exactly once, in one always-on store of
//! relaxed atomics keyed by [`dpv_trace::CounterId`], whether tracing is
//! on or off. [`ObligationServer::stats`] builds [`ServeStats`] from that
//! store and [`ObligationServer::trace_snapshot`] exports the same
//! values, so the two views cannot disagree. Solver work has one source
//! too: each solve attempt, the escalated retry included, returns its
//! [`dpv_lp::SolveStats`], and the worker adds its nodes, warm and cold
//! LP solves and pivots to the same store (`bnb-nodes`,
//! `warm-lp-solves`, `cold-lp-solves`, `simplex-iterations`). These have
//! no [`ServeStats`] twin: a report carries each obligation's own in
//! [`ObligationOutcome::stats`], and the trace export carries the totals.
//!
//! ## Request validation
//!
//! [`ObligationServer::serve`] and [`ObligationServer::serve_delta`] first
//! run [`VerificationRequest::validate`] (`serve_delta` on both requests):
//! a region that does not fit the cut layer is [`ServeError::Core`];
//! non-finite tail or characterizer parameters, non-finite risk
//! coefficients or thresholds, unbounded or inverted regions, and requests
//! that would decompose into more than 2^16 obligations are rejected with
//! [`ServeError::InvalidRequest`] before anything is admitted.
//!
//! ## Observability
//!
//! A server built with [`ServerBuilder::tracer`] over an enabled
//! [`dpv_trace::Tracer`] records per-obligation timelines
//! (enqueue → dequeue → solve attempts → verdict) into lock-free
//! per-thread ring buffers, plus the queue-depth gauge and latency
//! histograms;
//! [`ObligationServer::trace_snapshot`] exports everything and each
//! [`RequestReport`] carries a [`RequestTimeline`]. A default build
//! (`ObligationServer::builder().build()`) serves with tracing disabled,
//! where every recording call is a single branch on an absent `Option`.
//! Tracing is strictly observational — enabling it changes no verdict,
//! fold order or cached byte (the `trace_parity` proptest pins this).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

mod delta;
mod fault;
mod request;
mod server;
mod stats;
mod timeline;

pub use delta::{DeltaCounts, ProofDeltaReport};
pub use fault::{FailureReason, FaultKind, FaultPlan};
pub use request::{RegionSpec, VerificationRequest};
pub use server::{
    FamilyVerdict, ObligationOutcome, ObligationServer, RequestReport, ServeConfig, ServeError,
    ServerBuilder,
};
pub use stats::ServeStats;
pub use timeline::{AttemptSpan, ObligationTimeline, RequestTimeline};
