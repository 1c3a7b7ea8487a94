//! The sharded runtime monitor: [`RuntimeMonitor`] over a
//! [`ShardedEnvelope`], where containment in **any** shard counts as
//! in-ODD.

use dpv_monitor::{EnvelopeSoa, MonitoredRegion, RuntimeMonitor, Violation};
use dpv_tensor::Vector;

use crate::ShardedEnvelope;

/// The runtime monitor enforcing a [`ShardedEnvelope`]: it evaluates the
/// perception network up to the cut layer and checks the activation
/// against the shard union.
///
/// Semantics: a frame is **in ODD** iff its activation lies inside *at
/// least one* shard (shards tested in index order). Because the shard
/// union is a subset of the monolithic envelope over the same data, the
/// sharded monitor can only *raise* out-of-ODD detection relative to the
/// single-octagon monitor, never lower it, while still accepting every
/// training-set activation (each one lies in its own cluster's shard by
/// construction).
///
/// When a frame is out of every shard, the reported violations are those of
/// the shard whose centroid is nearest to the activation — the cluster the
/// frame "should" have belonged to — so the diagnostics stay as actionable
/// as the monolithic monitor's.
pub type ShardedMonitor = RuntimeMonitor<ShardedEnvelope>;

/// The shard union: one member per shard, in shard order.
impl MonitoredRegion for ShardedEnvelope {
    fn dim(&self) -> usize {
        self.shard(0).dim()
    }

    fn soa(&self) -> Vec<EnvelopeSoa> {
        self.shards()
            .iter()
            .map(EnvelopeSoa::from_envelope)
            .collect()
    }

    /// The violations of the nearest shard by centroid (ties break to the
    /// lowest index, see [`ShardedEnvelope::nearest_shard`]).
    fn violations(&self, activation: &Vector, tol: f64) -> Vec<Violation> {
        self.shard(self.nearest_shard(activation))
            .violations(activation, tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardConfig;
    use dpv_monitor::MonitorVerdict;
    use dpv_nn::{Activation, Network, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A network plus deliberately bimodal inputs (two input blobs).
    fn setup(seed: u64) -> (Network, Vec<Vector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(4)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(3, &mut rng)
            .build();
        let inputs: Vec<Vector> = (0..80)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 2.0 };
                Vector::from_vec((0..4).map(|_| base + rng.gen_range(0.0..0.3)).collect())
            })
            .collect();
        (net, inputs)
    }

    #[test]
    fn training_inputs_are_never_rejected() {
        let (net, inputs) = setup(1);
        let envelope =
            ShardedEnvelope::from_inputs(&net, 1, &inputs, 0.0, &ShardConfig::fixed(4)).unwrap();
        let monitor = ShardedMonitor::new(net, 1, envelope).unwrap();
        for x in &inputs {
            assert!(monitor.check(x).is_in_odd());
        }
        let report = monitor.report();
        assert_eq!(report.frames, inputs.len());
        assert_eq!(report.out_of_odd, 0);
    }

    #[test]
    fn sharded_detection_dominates_the_monolithic_monitor() {
        let (net, inputs) = setup(2);
        let sharded_env =
            ShardedEnvelope::from_inputs(&net, 0, &inputs, 0.0, &ShardConfig::fixed(4)).unwrap();
        let mono_env = sharded_env.merged();
        let sharded = ShardedMonitor::new(net.clone(), 0, sharded_env).unwrap();
        let monolithic = RuntimeMonitor::new(net, 0, mono_env).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut sharded_flags = 0usize;
        let mut mono_flags = 0usize;
        for _ in 0..200 {
            // Probes across and beyond the two input modes.
            let x = Vector::from_vec((0..4).map(|_| rng.gen_range(-1.0..3.5)).collect());
            let sharded_out = !sharded.check(&x).is_in_odd();
            let mono_out = !monolithic.check(&x).is_in_odd();
            sharded_flags += usize::from(sharded_out);
            mono_flags += usize::from(mono_out);
            // Union ⊆ monolithic envelope: anything the single octagon
            // flags, the shards flag too.
            if mono_out {
                assert!(sharded_out, "sharded monitor missed a monolithic flag");
            }
        }
        assert!(
            sharded_flags > mono_flags,
            "sharding should tighten detection: {sharded_flags} vs {mono_flags}"
        );
    }

    #[test]
    fn out_of_odd_verdicts_carry_nearest_shard_violations() {
        let (net, inputs) = setup(3);
        let envelope =
            ShardedEnvelope::from_inputs(&net, 1, &inputs, 0.0, &ShardConfig::fixed(2)).unwrap();
        let monitor = ShardedMonitor::new(net, 1, envelope).unwrap();
        let far = Vector::filled(monitor.envelope().dim(), 1e3);
        match monitor.classify(&far) {
            MonitorVerdict::OutOfOdd { violations } => {
                assert!(!violations.is_empty());
                assert!(violations.iter().all(|v| v.lower <= v.upper));
            }
            MonitorVerdict::InOdd => panic!("extreme activation accepted"),
        }
    }

    #[test]
    fn constructor_validates_dimensions() {
        let (net, inputs) = setup(4);
        let envelope =
            ShardedEnvelope::from_inputs(&net, 1, &inputs, 0.0, &ShardConfig::fixed(2)).unwrap();
        assert!(ShardedMonitor::new(net.clone(), 99, envelope.clone()).is_err());
        assert!(ShardedMonitor::new(net, 2, envelope).is_err());
    }

    #[test]
    fn reset_clears_statistics_and_monitor_is_shareable() {
        let (net, inputs) = setup(5);
        let envelope =
            ShardedEnvelope::from_inputs(&net, 1, &inputs, 0.1, &ShardConfig::fixed(3)).unwrap();
        let monitor = std::sync::Arc::new(ShardedMonitor::new(net, 1, envelope).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = monitor.clone();
                let xs = inputs.clone();
                std::thread::spawn(move || {
                    for x in &xs {
                        let _ = m.check(x);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(monitor.report().frames, 4 * inputs.len());
        monitor.reset();
        assert_eq!(monitor.report().frames, 0);
    }
}
