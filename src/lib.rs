//! # direct-perception-verify
//!
//! Facade crate for the reproduction of *"Towards Safety Verification of
//! Direct Perception Neural Networks"* (Cheng et al., DATE 2020).
//!
//! A *direct perception* network maps camera images to low-dimensional
//! affordances (next waypoint offset and orientation). This workspace
//! provides everything needed to reproduce the paper's verification
//! workflow end to end:
//!
//! * [`tensor`] — dense linear algebra substrate.
//! * [`nn`] — from-scratch neural network library (layers, training,
//!   activation recording).
//! * [`scenegen`] — synthetic road-scene generator standing in for the
//!   paper's proprietary camera data (the operational design domain, ODD):
//!   highway scenes across curvature, lighting, traffic, occlusion, rain
//!   and lane-marking-style dimensions, plus the named out-of-ODD
//!   violation taxonomy (`OddViolation`) for per-class monitor
//!   experiments.
//! * [`lp`] — simplex LP solver and branch-and-bound MILP solver with
//!   big-M ReLU encodings.
//! * [`absint`] — abstract interpretation domains (box, zonotope,
//!   octagon-lite with adjacent-neuron differences).
//! * [`monitor`] — runtime activation-envelope monitor used by the
//!   assume-guarantee argument.
//! * [`shard`] — cluster-partitioned (sharded) envelopes: k-means over
//!   cut-layer activations, one envelope per cluster, and the sharded
//!   runtime monitor (containment = membership in any shard).
//! * [`core`] — the paper's contribution: input property characterizers,
//!   risk conditions, the layer-abstraction / assume-guarantee verification
//!   strategies, and the statistical (Table I) reasoning.
//! * [`serve`] — resident obligation server: a long-lived verification
//!   service with a persistent FIFO worker pool, cross-request template
//!   and verdict (deduplication) caches, and batched admission.
//! * [`delta`] — continuous delta-verification across retrains: per-layer
//!   checkpoint fingerprinting and diffing, weight-hull bound-absorption
//!   checks, and re-verification planning (executed by
//!   `serve::ObligationServer::serve_delta`, which emits a
//!   machine-checkable `ProofDeltaReport`).
//! * [`trace`] — zero-overhead-when-off tracing and metrics: hierarchical
//!   spans in lock-free ring buffers, typed counters and log-bucketed
//!   histograms, JSON and Prometheus exporters, threaded through the
//!   solver and serving stack.
//!
//! ## Quickstart
//!
//! ```no_run
//! use direct_perception_verify::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small ODD dataset, train a perception network and a
//! // characterizer, build an activation envelope and verify a property.
//! let config = WorkflowConfig::small();
//! let outcome = Workflow::new(config).run()?;
//! println!("{}", outcome.report());
//! # Ok(())
//! # }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dpv_absint as absint;
pub use dpv_core as core;
pub use dpv_delta as delta;
pub use dpv_lp as lp;
pub use dpv_monitor as monitor;
pub use dpv_nn as nn;
pub use dpv_scenegen as scenegen;
pub use dpv_serve as serve;
pub use dpv_shard as shard;
pub use dpv_tensor as tensor;
pub use dpv_trace as trace;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use dpv_absint::{AbstractDomain, BoxDomain, OctagonLite, Zonotope};
    pub use dpv_core::{
        AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty, RiskCondition,
        StatisticalAnalysis, Verdict, VerificationOutcome, VerificationProblem,
        VerificationStrategy, Workflow, WorkflowConfig,
    };
    pub use dpv_delta::{CheckpointDiff, DeltaPlanner, ModelFingerprint};
    pub use dpv_lp::{LinearProgram, MilpProblem, MilpStatus};
    pub use dpv_monitor::{ActivationEnvelope, MonitorVerdict, MonitoredRegion, RuntimeMonitor};
    pub use dpv_nn::{Activation, Dataset, Layer, Network, NetworkBuilder, TrainConfig};
    pub use dpv_scenegen::{OddSampler, OddViolation, PropertyKind, SceneConfig, SceneParams};
    pub use dpv_serve::{
        ObligationServer, ProofDeltaReport, RegionSpec, ServeConfig, VerificationRequest,
    };
    pub use dpv_shard::{ShardConfig, ShardedEnvelope, ShardedMonitor};
    pub use dpv_tensor::{Matrix, Vector};
}
