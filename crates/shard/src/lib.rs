//! # dpv-shard
//!
//! Cluster-partitioned ("sharded") activation envelopes.
//!
//! The paper's assume-guarantee argument verifies the network tail against
//! a *single* envelope `S̃` over all training-data activations. When the
//! operational domain is multi-modal — straight-road and tight-curve scenes
//! produce activations in different regions of the cut layer — one octagon
//! must cover both modes plus the empty space between them, which makes the
//! verified premise loose and the runtime monitor permissive.
//!
//! This crate partitions the activations instead:
//!
//! * [`kmeans`] / [`select_k`] — a dependency-free, deterministic k-means
//!   (k-means++ seeding, empty-cluster reseeding, inertia-based cluster
//!   count sweep) over cut-layer activation vectors; [`kmeans_seeded`]
//!   restarts the same Lloyd loop from caller-provided centroids, which is
//!   how a retrained checkpoint's envelope is refit without re-rolling
//!   shard identity ([`ShardedEnvelope::refit`]).
//! * [`ShardedEnvelope`] — one [`dpv_monitor::ActivationEnvelope`] per
//!   cluster, with the invariant that the shard **union contains every
//!   sample** the monolithic envelope was built from while each shard is a
//!   *subset* of the monolithic envelope.
//! * [`ShardedMonitor`] — `dpv_monitor::RuntimeMonitor<ShardedEnvelope>`:
//!   the one runtime monitor, enforcing the shard union through
//!   [`ShardedEnvelope`]'s [`dpv_monitor::MonitoredRegion`] impl.
//!   Containment means membership in *any* shard: strictly tighter
//!   out-of-ODD detection than the single octagon, at up to `k`
//!   containment checks per frame.
//!
//! Verification per shard — one MILP per cluster, each over a tighter start
//! region — lives in `dpv-core` (`VerificationProblem::verify_sharded`),
//! which dispatches the per-shard proof obligations across its parallel
//! work-list and aggregates verdicts deterministically.
//!
//! ## Example
//!
//! ```
//! use dpv_shard::{ShardConfig, ShardedEnvelope, ShardedMonitor};
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
//! let cut = 1;
//! // Deliberately bimodal inputs: two blobs.
//! let samples: Vec<Vector> = (0..60)
//!     .map(|i| Vector::filled(4, if i % 2 == 0 { 0.1 } else { 2.0 }))
//!     .collect();
//! let envelope =
//!     ShardedEnvelope::from_inputs(&net, cut, &samples, 0.0, &ShardConfig::auto(4)).unwrap();
//! let monitor = ShardedMonitor::new(net.clone(), cut, envelope).unwrap();
//! assert!(monitor.check(&samples[0]).is_in_odd());
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod envelope;
mod kmeans;
mod monitor;

pub use envelope::{ClusterSelection, ShardConfig, ShardedEnvelope};
pub use kmeans::{kmeans, kmeans_auto, kmeans_seeded, select_k, Clustering, KMeansConfig};
pub use monitor::ShardedMonitor;
