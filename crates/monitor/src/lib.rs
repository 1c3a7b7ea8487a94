//! # dpv-monitor
//!
//! The runtime-monitoring half of the paper's assume-guarantee argument.
//!
//! The verification result obtained with the training-data envelope `S̃` is
//! *conditional*: it only applies to inputs whose layer-`l` activation stays
//! inside `S̃`. The paper therefore requires a runtime monitor that, for
//! every frame processed in operation, checks whether the computed neuron
//! values fall outside the envelope and raises a warning if they do
//! (Section II-B and footnote 2).
//!
//! This crate provides:
//!
//! * [`ActivationEnvelope`] — the envelope itself: per-neuron min/max plus
//!   min/max of adjacent-neuron differences (the paper's `diff(n)` refinement
//!   from Section V), built from recorded activations of the training data,
//!   optionally widened by a safety margin.
//! * [`RuntimeMonitor`] — wraps the perception network's head (layers up to
//!   the cut) together with a [`MonitoredRegion`] (by default one
//!   envelope), classifies incoming images as in/out of the monitored
//!   region, reports which constraint was violated, and keeps thread-safe
//!   counters of everything it has seen.
//!
//! ## Sharded monitoring
//!
//! The `dpv-shard` crate partitions the training activations into k-means
//! clusters and builds one [`ActivationEnvelope`] per cluster (a
//! `ShardedEnvelope`, which implements [`MonitoredRegion`]). Its
//! `ShardedMonitor` is the alias `RuntimeMonitor<ShardedEnvelope>`: this
//! crate's monitor with **any-shard semantics**, in ODD iff the activation
//! lies in at least one shard. Because every shard is a subset of the
//! single envelope over the same data while the shard *union* still
//! contains every training activation, the sharded monitor accepts every
//! training frame, flags everything the one-envelope monitor flags, and
//! additionally flags activations that fall *between* the data's modes —
//! strictly tighter out-of-ODD detection at the price of up to `k`
//! containment checks per frame. Out-of-union frames report the violations
//! of the shard whose centroid is nearest.
//!
//! ## Example
//!
//! ```
//! use dpv_monitor::{ActivationEnvelope, RuntimeMonitor};
//! use dpv_nn::{Activation, NetworkBuilder};
//! use dpv_tensor::Vector;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = NetworkBuilder::new(4)
//!     .dense(6, &mut rng)
//!     .activation(Activation::ReLU)
//!     .dense(2, &mut rng)
//!     .build();
//! let cut = 1; // monitor the activation after the first ReLU
//! let samples: Vec<Vector> = (0..50)
//!     .map(|i| Vector::filled(4, i as f64 / 50.0))
//!     .collect();
//! let envelope = ActivationEnvelope::from_inputs(&net, cut, &samples, 0.0).unwrap();
//! let monitor = RuntimeMonitor::new(net.clone(), cut, envelope).unwrap();
//! assert!(monitor.check(&samples[0]).is_in_odd());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
mod error;
mod monitor;
mod soa;

pub use envelope::ActivationEnvelope;
pub use error::MonitorError;
pub use monitor::{
    MonitorReport, MonitorVerdict, MonitoredRegion, RuntimeMonitor, Violation, ViolationKind,
};
pub use soa::{union_contained_mask, ContainmentMask, EnvelopeSoa};
