//! The sharded activation envelope: one [`ActivationEnvelope`] per
//! activation cluster.

use dpv_monitor::{ActivationEnvelope, MonitorError};
use dpv_nn::Network;
use dpv_tensor::Vector;

use crate::kmeans::nearest_centroid;
use crate::{kmeans, kmeans_auto, KMeansConfig};

/// How many shards (clusters) to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterSelection {
    /// Exactly this many clusters (clamped to the sample count; clusters
    /// that would end up empty are dropped).
    Fixed(usize),
    /// Sweep `1..=max` clusters and keep adding clusters while the k-means
    /// inertia improves by at least `min_gain` (relative) — the elbow rule.
    Auto {
        /// Largest cluster count the sweep may choose.
        max: usize,
        /// Minimum relative inertia improvement required to accept one more
        /// cluster.
        min_gain: f64,
    },
}

/// Configuration of a sharded-envelope build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardConfig {
    /// Cluster-count policy.
    pub clusters: ClusterSelection,
    /// The k-means hyper-parameters (seeded, deterministic).
    pub kmeans: KMeansConfig,
}

impl ShardConfig {
    /// Exactly `k` clusters.
    pub fn fixed(k: usize) -> Self {
        Self {
            clusters: ClusterSelection::Fixed(k),
            kmeans: KMeansConfig::default(),
        }
    }

    /// Inertia-swept cluster count up to `max` clusters with the default
    /// 20% minimum relative gain.
    pub fn auto(max: usize) -> Self {
        Self {
            clusters: ClusterSelection::Auto { max, min_gain: 0.2 },
            kmeans: KMeansConfig::default(),
        }
    }

    /// Returns a copy using `seed` for the k-means initialisation.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.kmeans.seed = seed;
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self::auto(8)
    }
}

/// A partition of the training-data activations into clusters, with one
/// [`ActivationEnvelope`] (octagon-lite hull, optionally widened) per
/// cluster.
///
/// # Invariant
///
/// The union of the shards contains **every** activation sample the
/// monolithic envelope was built from: each sample belongs to exactly one
/// k-means cluster, and that cluster's envelope is the hull of its members.
/// Because every shard hulls a *subset* of the samples, each shard is also
/// contained in the monolithic envelope — so the sharded union is a subset
/// of the single envelope that still covers all the data. Verification per
/// shard therefore keeps the assume-guarantee contract intact (monitor the
/// union at run time), while each per-shard MILP sees a strictly tighter
/// start region.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEnvelope {
    layer: usize,
    margin: f64,
    samples: usize,
    centroids: Vec<Vector>,
    shards: Vec<ActivationEnvelope>,
}

impl ShardedEnvelope {
    /// Clusters already-computed cut-layer activations and builds one
    /// envelope per cluster.
    ///
    /// # Errors
    /// Returns [`MonitorError::EmptyActivations`] when `activations` is
    /// empty.
    pub fn from_activations(
        layer: usize,
        activations: &[Vector],
        margin: f64,
        config: &ShardConfig,
    ) -> Result<Self, MonitorError> {
        if activations.is_empty() {
            return Err(MonitorError::EmptyActivations);
        }
        let clustering = match config.clusters {
            ClusterSelection::Fixed(k) => kmeans(activations, k.max(1), &config.kmeans),
            ClusterSelection::Auto { max, min_gain } => {
                kmeans_auto(activations, max.max(1), min_gain, &config.kmeans)
            }
        };
        let mut members: Vec<Vec<Vector>> = vec![Vec::new(); clustering.k()];
        for (sample, &cluster) in activations.iter().zip(&clustering.assignments) {
            members[cluster].push(sample.clone());
        }
        let shards = members
            .iter()
            .map(|m| ActivationEnvelope::from_activations(layer, m, margin))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            layer,
            margin,
            samples: activations.len(),
            centroids: clustering.centroids,
            shards,
        })
    }

    /// Clusters activations with [`crate::kmeans_seeded`], starting the
    /// Lloyd loop from `centroids` instead of a k-means++ draw, and builds
    /// one envelope per resulting cluster. This is the construction behind
    /// [`ShardedEnvelope::refit`]: seeding at a previous envelope's
    /// converged centroids keeps shard identity stable across checkpoints.
    ///
    /// # Errors
    /// Returns [`MonitorError::EmptyActivations`] when `activations` is
    /// empty.
    ///
    /// # Panics
    /// Panics when `centroids` is empty or dimensionally inconsistent with
    /// the activations (see [`crate::kmeans_seeded`]).
    pub fn from_activations_seeded(
        layer: usize,
        activations: &[Vector],
        margin: f64,
        centroids: &[Vector],
        kmeans: &KMeansConfig,
    ) -> Result<Self, MonitorError> {
        if activations.is_empty() {
            return Err(MonitorError::EmptyActivations);
        }
        let clustering = crate::kmeans_seeded(activations, centroids, kmeans);
        let mut members: Vec<Vec<Vector>> = vec![Vec::new(); clustering.k()];
        for (sample, &cluster) in activations.iter().zip(&clustering.assignments) {
            members[cluster].push(sample.clone());
        }
        let shards = members
            .iter()
            .map(|m| ActivationEnvelope::from_activations(layer, m, margin))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            layer,
            margin,
            samples: activations.len(),
            centroids: clustering.centroids,
            shards,
        })
    }

    /// Rebuilds the envelope for a **retrained** network: runs `inputs`
    /// through `network` up to this envelope's cut layer and re-clusters
    /// the fresh activations seeded at this envelope's converged centroids
    /// (same margin, same layer). Shard `i` of the result tracks the
    /// activation mode shard `i` described before the retrain, so
    /// per-shard proof obligations line up across checkpoints — the
    /// re-clustering half of continuous delta-verification.
    ///
    /// # Errors
    /// Returns [`MonitorError::EmptyActivations`] when `inputs` is empty.
    ///
    /// # Panics
    /// Panics when the envelope's layer is out of range for `network` or
    /// the network's cut-layer width differs from the envelope dimension.
    pub fn refit(
        &self,
        network: &Network,
        inputs: &[Vector],
        kmeans: &KMeansConfig,
    ) -> Result<Self, MonitorError> {
        let activations: Vec<Vector> = inputs
            .iter()
            .map(|x| network.activation_at(self.layer, x))
            .collect();
        Self::from_activations_seeded(
            self.layer,
            &activations,
            self.margin,
            &self.centroids,
            kmeans,
        )
    }

    /// Runs every input through `network` up to `layer` and shards the
    /// resulting activations.
    ///
    /// # Errors
    /// Returns [`MonitorError::EmptyActivations`] when `inputs` is empty.
    ///
    /// # Panics
    /// Panics when `layer` is out of range for the network.
    pub fn from_inputs(
        network: &Network,
        layer: usize,
        inputs: &[Vector],
        margin: f64,
        config: &ShardConfig,
    ) -> Result<Self, MonitorError> {
        let activations: Vec<Vector> = inputs
            .iter()
            .map(|x| network.activation_at(layer, x))
            .collect();
        Self::from_activations(layer, &activations, margin, config)
    }

    /// The cut layer the shards describe.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The widening margin applied to every shard.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Total number of activation samples across all shards.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// Dimension of the monitored activation vector.
    pub fn dim(&self) -> usize {
        self.shards[0].dim()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-cluster envelopes, indexed by shard id.
    pub fn shards(&self) -> &[ActivationEnvelope] {
        &self.shards
    }

    /// One shard's envelope.
    pub fn shard(&self, index: usize) -> &ActivationEnvelope {
        &self.shards[index]
    }

    /// The k-means centroids, aligned with [`ShardedEnvelope::shards`].
    pub fn centroids(&self) -> &[Vector] {
        &self.centroids
    }

    /// Returns `true` when the activation lies inside **any** shard — the
    /// sharded notion of "in ODD".
    pub fn contains(&self, activation: &Vector, tol: f64) -> bool {
        self.shards.iter().any(|s| s.contains(activation, tol))
    }

    /// Index of the first shard containing the activation, when one does.
    pub fn containing_shard(&self, activation: &Vector, tol: f64) -> Option<usize> {
        self.shards.iter().position(|s| s.contains(activation, tol))
    }

    /// Index of the shard whose centroid is nearest to the activation (ties
    /// break to the lowest index). Defined for every activation, inside the
    /// union or not — the [`crate::ShardedMonitor`] reports violations
    /// against this shard.
    pub fn nearest_shard(&self, activation: &Vector) -> usize {
        nearest_centroid(&self.centroids, activation).0
    }

    /// Folds every shard back into a single monolithic envelope (the join of
    /// the shard hulls). For a single shard this is exactly the envelope the
    /// monolithic path would have built from the same samples.
    pub fn merged(&self) -> ActivationEnvelope {
        let mut merged = self.shards[0].clone();
        for shard in &self.shards[1..] {
            merged = merged.merge(shard);
        }
        merged
    }

    /// Total box volume of the shard union relative to a reference envelope,
    /// computed as `Σ_shards Π_dims (shard width / reference width)` — each
    /// shard's volume is expressed in units of the reference box's volume,
    /// so the products stay in `[0, 1]` and never overflow. Dimensions where
    /// the reference has zero width contribute a neutral factor. A value
    /// below `1.0` means the shards jointly cover strictly less volume than
    /// the reference (the sharding win); `k = 1` yields exactly `1.0`
    /// against the monolithic envelope of the same samples.
    pub fn box_volume_ratio(&self, reference: &ActivationEnvelope) -> f64 {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .neuron_bounds()
                    .iter()
                    .zip(reference.neuron_bounds())
                    .map(|(s, r)| {
                        if r.width() > 0.0 {
                            s.width() / r.width()
                        } else {
                            1.0
                        }
                    })
                    .product::<f64>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_monitor::MonitoredRegion;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered activations: two blobs far apart in a 4-d space.
    fn bimodal_activations(n: usize, seed: u64) -> Vec<Vector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 5.0 };
                Vector::from_vec((0..4).map(|_| base + rng.gen_range(-0.4..0.4)).collect())
            })
            .collect()
    }

    #[test]
    fn union_contains_every_training_activation() {
        let acts = bimodal_activations(80, 1);
        let sharded =
            ShardedEnvelope::from_activations(3, &acts, 0.0, &ShardConfig::fixed(4)).unwrap();
        assert_eq!(sharded.layer(), 3);
        assert_eq!(sharded.sample_count(), 80);
        for a in &acts {
            assert!(sharded.contains(a, 1e-12), "sample escaped the union");
            assert!(sharded.containing_shard(a, 1e-12).is_some());
        }
        assert_eq!(sharded.coverage(&acts, 1e-12), 1.0);
    }

    #[test]
    fn every_shard_is_inside_the_monolithic_envelope() {
        let acts = bimodal_activations(60, 2);
        let monolithic = ActivationEnvelope::from_activations(0, &acts, 0.0).unwrap();
        let sharded =
            ShardedEnvelope::from_activations(0, &acts, 0.0, &ShardConfig::fixed(3)).unwrap();
        for shard in sharded.shards() {
            for (s, m) in shard.neuron_bounds().iter().zip(monolithic.neuron_bounds()) {
                assert!(s.lo >= m.lo - 1e-12 && s.hi <= m.hi + 1e-12);
            }
        }
        // The union is tighter: the ratio of covered volume is below one for
        // genuinely multi-modal data.
        assert!(sharded.box_volume_ratio(&monolithic) < 1.0);
    }

    #[test]
    fn single_shard_reproduces_the_monolithic_envelope() {
        let acts = bimodal_activations(50, 3);
        let monolithic = ActivationEnvelope::from_activations(2, &acts, 0.1).unwrap();
        let sharded =
            ShardedEnvelope::from_activations(2, &acts, 0.1, &ShardConfig::fixed(1)).unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.shard(0), &monolithic);
        assert_eq!(sharded.merged(), monolithic);
        let ratio = sharded.box_volume_ratio(&monolithic);
        assert!((ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_selection_finds_the_two_modes() {
        let acts = bimodal_activations(80, 4);
        let sharded =
            ShardedEnvelope::from_activations(0, &acts, 0.0, &ShardConfig::auto(6)).unwrap();
        assert_eq!(sharded.shard_count(), 2);
        // The two shards separate the modes: a point between the blobs is in
        // neither shard even though the monolithic envelope contains it.
        let gap_point = Vector::filled(4, 2.5);
        assert!(!sharded.contains(&gap_point, 1e-9));
        assert!(sharded.merged().contains(&gap_point, 1e-9));
    }

    #[test]
    fn nearest_shard_follows_the_centroids() {
        let acts = bimodal_activations(40, 5);
        let sharded =
            ShardedEnvelope::from_activations(0, &acts, 0.0, &ShardConfig::fixed(2)).unwrap();
        let low = Vector::filled(4, 0.0);
        let high = Vector::filled(4, 5.0);
        assert_ne!(sharded.nearest_shard(&low), sharded.nearest_shard(&high));
        assert_eq!(
            sharded.nearest_shard(&low),
            sharded.containing_shard(&low, 1e-6).unwrap()
        );
    }

    #[test]
    fn refit_tracks_a_retrained_network_with_stable_shard_identity() {
        use dpv_nn::{Activation, NetworkBuilder};
        let mut rng = StdRng::seed_from_u64(11);
        let net = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let cut = 1;
        // Bimodal inputs so two shards have distinct modes to track.
        let inputs: Vec<Vector> = (0..60)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 3.0 };
                Vector::from_vec((0..3).map(|_| base + rng.gen_range(-0.2..0.2)).collect())
            })
            .collect();
        let config = ShardConfig::fixed(2);
        let envelope = ShardedEnvelope::from_inputs(&net, cut, &inputs, 0.05, &config).unwrap();

        // "Retrain": nudge the first dense layer's weights slightly.
        let mut retrained = net.clone();
        if let dpv_nn::Layer::Dense(d) = &mut retrained.layers_mut()[0] {
            for r in 0..d.weights().rows() {
                for c in 0..d.weights().cols() {
                    d.weights_mut()[(r, c)] += 0.01 * ((r + c) as f64);
                }
            }
        }
        let refit = envelope.refit(&retrained, &inputs, &config.kmeans).unwrap();
        assert_eq!(refit.shard_count(), envelope.shard_count());
        assert_eq!(refit.layer(), envelope.layer());
        assert_eq!(refit.margin(), envelope.margin());
        // Shard identity is stable: refit centroid i stays closest to the
        // old centroid i, not to any other old centroid.
        for (i, new_c) in refit.centroids().iter().enumerate() {
            let (nearest, _) = super::nearest_centroid(envelope.centroids(), new_c);
            assert_eq!(nearest, i, "shard {i} re-rolled its identity");
        }
        // And the refit union covers the retrained network's activations.
        for x in &inputs {
            assert!(refit.contains(&retrained.activation_at(cut, x), 1e-9));
        }
    }

    #[test]
    fn empty_activations_are_an_error() {
        assert_eq!(
            ShardedEnvelope::from_activations(0, &[], 0.0, &ShardConfig::default()),
            Err(MonitorError::EmptyActivations)
        );
    }

    #[test]
    fn margin_widens_every_shard() {
        let acts = bimodal_activations(40, 6);
        let tight =
            ShardedEnvelope::from_activations(0, &acts, 0.0, &ShardConfig::fixed(2)).unwrap();
        let wide =
            ShardedEnvelope::from_activations(0, &acts, 0.3, &ShardConfig::fixed(2)).unwrap();
        assert_eq!(wide.margin(), 0.3);
        for (t, w) in tight.shards().iter().zip(wide.shards()) {
            assert!(w.neuron_bounds()[0].width() > t.neuron_bounds()[0].width());
        }
    }
}
