//! Property-based tests of the sharded-envelope invariants: whatever the
//! data distribution, the cluster count or the margin, the shard union must
//! contain every training activation (the soundness the assume-guarantee
//! argument rests on), and every shard must stay inside the monolithic
//! envelope (so sharded monitoring only tightens detection).

use dpv_monitor::{ActivationEnvelope, MonitoredRegion, RuntimeMonitor};
use dpv_nn::{Activation, NetworkBuilder};
use dpv_shard::{kmeans, KMeansConfig, ShardConfig, ShardedEnvelope, ShardedMonitor};
use dpv_tensor::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random activation sets with `modes` Gaussian-ish blobs in `dim`
/// dimensions — the multi-modal shape envelope sharding targets.
fn random_activations(seed: u64, n: usize, dim: usize, modes: usize) -> Vec<Vector> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centres: Vec<Vec<f64>> = (0..modes)
        .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect();
    (0..n)
        .map(|i| {
            let centre = &centres[i % modes];
            Vector::from_vec(
                centre
                    .iter()
                    .map(|c| c + rng.gen_range(-0.5..0.5))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness vs. the monolithic envelope: every activation the single
    /// envelope was built from lies in the shard union, for any k.
    #[test]
    fn sharded_union_contains_every_training_activation(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let n = rng.gen_range(5usize..80);
        let dim = rng.gen_range(1usize..6);
        let modes = rng.gen_range(1usize..4);
        let k = rng.gen_range(1usize..8);
        let margin = if rng.gen_bool(0.5) { 0.0 } else { 0.1 };
        let activations = random_activations(seed, n, dim, modes);

        let config = ShardConfig::fixed(k).with_seed(seed ^ 0xc105_7e28);
        let sharded =
            ShardedEnvelope::from_activations(2, &activations, margin, &config).unwrap();
        prop_assert!(sharded.shard_count() >= 1 && sharded.shard_count() <= k.min(n));
        for a in &activations {
            prop_assert!(
                sharded.contains(a, 1e-9),
                "activation escaped the shard union (n={n}, dim={dim}, k={k})"
            );
        }
        prop_assert_eq!(
            sharded.shards().iter().map(|s| s.sample_count()).sum::<usize>(),
            n
        );

        // Each shard is a subset of the monolithic envelope (so anything the
        // monolithic monitor flags, the sharded union flags too).
        let monolithic =
            ActivationEnvelope::from_activations(2, &activations, margin).unwrap();
        for shard in sharded.shards() {
            for (s, m) in shard.neuron_bounds().iter().zip(monolithic.neuron_bounds()) {
                prop_assert!(s.lo >= m.lo - 1e-9 && s.hi <= m.hi + 1e-9);
            }
        }
        // Volume sanity: each shard's box fits in the monolithic box, so
        // the summed ratio is bounded by the shard count — and a single
        // shard reproduces the monolithic envelope exactly (ratio 1). The
        // headline "strictly below 1 on multi-modal data" claim is a
        // workload property, measured by `benches/e9_sharding.rs`.
        let ratio = sharded.box_volume_ratio(&monolithic);
        prop_assert!(ratio <= sharded.shard_count() as f64 + 1e-9);
        if sharded.shard_count() == 1 {
            prop_assert!((ratio - 1.0).abs() < 1e-9);
        }
    }

    /// k-means partitions exactly: every sample is assigned, assignments
    /// index real clusters, and no cluster is empty.
    #[test]
    fn kmeans_partitions_the_samples(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x006b_ea95);
        let n = rng.gen_range(3usize..60);
        let dim = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..10);
        let samples = random_activations(seed, n, dim, 2);
        let clustering = kmeans(&samples, k, &KMeansConfig { seed, ..Default::default() });
        prop_assert_eq!(clustering.assignments.len(), n);
        prop_assert!(clustering.k() <= k.min(n));
        prop_assert!(clustering.assignments.iter().all(|&a| a < clustering.k()));
        prop_assert!(clustering.cluster_sizes().iter().all(|&s| s > 0));
        prop_assert!(clustering.inertia >= 0.0);
    }

    /// Batched sharded monitoring parity: `check_frames` returns the same
    /// verdicts — including the nearest-shard violation lists — as per-frame
    /// `check`, and accumulates the same report.
    #[test]
    fn sharded_check_frames_matches_per_frame_check(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba7c);
        let input_dim = rng.gen_range(2usize..5);
        let net = NetworkBuilder::new(input_dim)
            .dense(rng.gen_range(2usize..6), &mut rng)
            .activation(Activation::ReLU)
            .dense(rng.gen_range(2usize..4), &mut rng)
            .build();
        let training: Vec<Vector> = (0..rng.gen_range(5usize..40))
            .map(|_| {
                Vector::from_vec(
                    (0..input_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        let k = rng.gen_range(1usize..5);
        let config = ShardConfig::fixed(k).with_seed(seed ^ 0x51ab);
        let sharded = ShardedEnvelope::from_inputs(&net, 1, &training, 0.02, &config).unwrap();
        let batched_monitor =
            ShardedMonitor::new(net.clone(), 1, sharded.clone()).unwrap();
        let scalar_monitor = ShardedMonitor::new(net, 1, sharded).unwrap();

        // Mix in-distribution frames with far-out ones so both verdicts and
        // the escaped-frame violation path are exercised.
        let frames: Vec<Vector> = (0..rng.gen_range(0usize..80))
            .map(|_| {
                let scale = if rng.gen_bool(0.6) { 1.0 } else { 40.0 };
                Vector::from_vec(
                    (0..input_dim)
                        .map(|_| scale * rng.gen_range(-1.0..1.0))
                        .collect(),
                )
            })
            .collect();
        let batched = batched_monitor.check_frames(&frames);
        let scalar: Vec<_> = frames.iter().map(|f| scalar_monitor.check(f)).collect();
        prop_assert_eq!(&batched, &scalar);
        prop_assert_eq!(batched_monitor.report(), scalar_monitor.report());
    }

    /// A one-shard monitor is the monolithic monitor: a
    /// `ShardConfig::fixed(1)` `ShardedMonitor` and a `RuntimeMonitor` over
    /// `merged()` return equal verdicts, violation lists included, through
    /// both `check` and `check_frames`.
    #[test]
    fn one_shard_monitor_is_the_monolithic_monitor(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e5d);
        let input_dim = rng.gen_range(2usize..5);
        let net = NetworkBuilder::new(input_dim)
            .dense(rng.gen_range(2usize..6), &mut rng)
            .activation(Activation::ReLU)
            .dense(rng.gen_range(2usize..4), &mut rng)
            .build();
        let training: Vec<Vector> = (0..rng.gen_range(1usize..40))
            .map(|_| {
                Vector::from_vec(
                    (0..input_dim).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        let margin = if rng.gen_bool(0.5) { 0.0 } else { 0.02 };
        let config = ShardConfig::fixed(1).with_seed(seed);
        let sharded = ShardedEnvelope::from_inputs(&net, 1, &training, margin, &config).unwrap();
        let monolithic = RuntimeMonitor::new(net.clone(), 1, sharded.merged()).unwrap();
        let one_shard = ShardedMonitor::new(net, 1, sharded).unwrap();

        let probes: Vec<Vector> = (0..rng.gen_range(0usize..80))
            .map(|_| {
                let scale = if rng.gen_bool(0.6) { 1.0 } else { 40.0 };
                Vector::from_vec(
                    (0..input_dim)
                        .map(|_| scale * rng.gen_range(-1.0..1.0))
                        .collect(),
                )
            })
            .collect();
        for probe in &probes {
            prop_assert_eq!(one_shard.check(probe), monolithic.check(probe));
        }
        prop_assert_eq!(one_shard.check_frames(&probes), monolithic.check_frames(&probes));
        prop_assert_eq!(one_shard.report(), monolithic.report());
    }

    /// `MonitoredRegion::coverage` on a sharded envelope routes through the
    /// batched SoA union sweep; it must equal the per-activation `contains`
    /// fraction.
    #[test]
    fn sharded_coverage_equals_per_frame_containment_fraction(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0fe);
        let n = rng.gen_range(5usize..60);
        let dim = rng.gen_range(1usize..5);
        let k = rng.gen_range(1usize..6);
        let activations = random_activations(seed, n, dim, 2);
        let config = ShardConfig::fixed(k).with_seed(seed ^ 0x7a11);
        let sharded =
            ShardedEnvelope::from_activations(2, &activations, 0.0, &config).unwrap();

        // Probe with a mix of training points and perturbed/far-out points.
        let probes: Vec<Vector> = activations
            .iter()
            .enumerate()
            .map(|(i, a)| {
                if i % 3 == 0 {
                    a.clone()
                } else {
                    let scale = if i % 3 == 1 { 1.0 } else { 20.0 };
                    Vector::from_vec(
                        a.as_slice()
                            .iter()
                            .map(|v| v + scale * rng.gen_range(-0.3..0.3))
                            .collect(),
                    )
                }
            })
            .collect();
        let expected = probes
            .iter()
            .filter(|p| sharded.contains(p, 1e-9))
            .count() as f64
            / probes.len() as f64;
        prop_assert_eq!(sharded.coverage(&probes, 1e-9), expected);
        prop_assert_eq!(sharded.coverage(&[], 1e-9), 1.0);
    }
}
