//! # dpv-delta
//!
//! **Continuous delta-verification across retrains**: when a perception
//! network is retrained, most checkpoints differ from the previous one by
//! small parameter perturbations — yet a from-scratch verification run
//! re-solves every proof obligation as if nothing were known. This crate
//! computes *what is still known*: a per-layer content diff between two
//! checkpoints ([`CheckpointDiff`]) and a re-verification plan
//! ([`DeltaPlanner`]) that maps a prior run's verdicts onto the new
//! checkpoint, obligation by obligation.
//!
//! ## Disposition taxonomy
//!
//! Every obligation of a delta-verified request ends in exactly one
//! [`Disposition`]:
//!
//! | disposition       | meaning                                                        |
//! |-------------------|----------------------------------------------------------------|
//! | `Reused`          | the obligation is **bit-identical** to the prior checkpoint's (tail layers, characterizer, risk and region all unchanged — head-only retrains land here), so the prior verdict *is* the canonical verdict; carries the prior checkpoint's [`ModelFingerprint`] as provenance |
//! | `Absorbed`        | the tail changed, but the perturbation is provably inside the existing bound slack: interval propagation of the region through the weight-*hull* tail refutes the risk (see soundness argument below), so the prior `Safe` verdict stands without solving |
//! | `ReProved`        | the obligation was re-solved from scratch (warm-started where the resident server's caches allow) and produced a definitive verdict |
//! | `NewlyDegraded`   | the obligation was re-solved and came back `Unknown` — the delta run could *not* re-establish a definitive verdict, whatever the prior one was |
//!
//! The corresponding *planned* actions — before any solving happens — are
//! [`PlannedAction::Reuse`], [`PlannedAction::ReuseAbsorbed`] and
//! [`PlannedAction::Resolve`] (a resolve becomes `ReProved` or
//! `NewlyDegraded` once its verdict is in).
//!
//! ## Bound-absorption soundness argument
//!
//! Let `T_old` and `T_new` be the tail networks of the two checkpoints,
//! structurally identical (same layer kinds and dimensions), and let `R` be
//! an obligation's start region at the cut layer. Build the **weight-hull
//! tail** `T_□`: every scalar parameter `p` is replaced by the interval
//! `[min(p_old, p_new), max(p_old, p_new)]`, and layers are evaluated with
//! outward-directed interval arithmetic ([`dpv_absint::Interval::mul`] for
//! interval-weight times interval-activation, the usual interval
//! transformers for activations). Then for every `x ∈ R`:
//!
//! 1. `T_new(x) ∈ T_□(box(R))` — interval evaluation is a sound
//!    over-approximation, and `T_new`'s parameters lie inside the hull by
//!    construction (so do `T_old`'s — the hull encloses the whole
//!    perturbation segment, which is what "the delta is inside the slack"
//!    means operationally).
//! 2. If the risk condition ψ (a conjunction of linear inequalities over
//!    the tail output) is **refuted** on the output box — some inequality
//!    cannot hold anywhere in it, with strict slack — then no `x ∈ R`
//!    satisfies ψ under `T_new`.
//! 3. The obligation's verdict asks whether some `x ∈ R` *that also
//!    satisfies the characterizer constraint* triggers ψ. Dropping the
//!    characterizer constraint only enlarges the candidate set, so the
//!    interval refutation is sound a fortiori: the obligation is `Safe`
//!    for the new checkpoint.
//!
//! Only prior-`Safe` verdicts are ever absorbed: a counterexample
//! (`Unsafe`) is a point property that a perturbed tail need not preserve,
//! and `Unknown` carries no information to reuse. Because the MILP solver
//! is complete on these piecewise-linear obligations, a from-scratch run
//! would also answer `Safe` wherever the (strictly coarser) interval check
//! succeeds — which is why delta verdicts are bit-for-bit equal to
//! from-scratch verdicts (the `delta` parity proptest in `dpv-serve` pins
//! this).
//!
//! ## What lives where
//!
//! * [`LayerDigest`] / [`ModelFingerprint`] ([`digest`]) — content hashes
//!   over layer parameters (weights, biases, activation kind), the
//!   identity test behind "untouched".
//! * [`CheckpointDiff`] ([`diff`]) — digests a checkpoint pair once into
//!   both fingerprints and one identity flag per layer, and answers the
//!   planner's two questions: is the tail after the cut bit-identical
//!   ([`CheckpointDiff::tail_identical`]), and does the weight-hull
//!   interval propagation absorb its change for one region and risk
//!   ([`CheckpointDiff::tail_absorbs`])?
//! * [`DeltaPlanner`] / [`DeltaPlan`] ([`plan`]) — maps prior obligations
//!   (region + verdict) to one planned action each. The tallies of what
//!   was actually carried out live on `dpv-serve`'s `ProofDeltaReport`.
//!
//! The serving integration — `ObligationServer::serve_delta`, which
//! executes a plan against the resident solver pool and emits a
//! machine-checkable `ProofDeltaReport` — lives in `dpv-serve`; the
//! centroid-seeded envelope re-clustering that keeps *sharded* obligations
//! aligned across checkpoints lives in `dpv-shard`
//! (`ShardedEnvelope::refit`).
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod diff;
pub mod digest;
pub mod plan;

pub use diff::CheckpointDiff;
pub use digest::{layer_digests, LayerDigest, ModelFingerprint};
pub use plan::{DeltaError, DeltaPlan, DeltaPlanner, Disposition, PlannedAction, PriorObligation};
