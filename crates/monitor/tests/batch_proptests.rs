//! Property-based parity of the batched monitor path: for any envelope and
//! any frame mix, `check_frames` must produce verdicts — including the full
//! violation lists — identical to calling `check` frame by frame, with the
//! same cumulative statistics; and `coverage`, which routes through the same
//! SoA sweep, must equal the per-frame containment fraction.

use dpv_monitor::{ActivationEnvelope, MonitoredRegion, RuntimeMonitor};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_tensor::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fixture(seed: u64) -> (Network, ActivationEnvelope, Vec<Vector>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let input_dim = rng.gen_range(2usize..5);
    let net = NetworkBuilder::new(input_dim)
        .dense(rng.gen_range(2usize..7), &mut rng)
        .activation(Activation::ReLU)
        .dense(rng.gen_range(2usize..5), &mut rng)
        .build();
    let cut_layer = 1;
    let training: Vec<Vector> = (0..rng.gen_range(5usize..40))
        .map(|_| Vector::from_vec((0..input_dim).map(|_| rng.gen_range(-1.0..1.0)).collect()))
        .collect();
    let margin = if rng.gen_bool(0.5) { 0.0 } else { 0.05 };
    let envelope = ActivationEnvelope::from_inputs(&net, cut_layer, &training, margin).unwrap();
    // Frames mixing in-distribution inputs with far-out ones, so both
    // verdict variants (and non-empty violation lists) are exercised.
    let frames: Vec<Vector> = (0..rng.gen_range(0usize..90))
        .map(|_| {
            let scale = if rng.gen_bool(0.6) { 1.0 } else { 50.0 };
            Vector::from_vec(
                (0..input_dim)
                    .map(|_| scale * rng.gen_range(-1.0..1.0))
                    .collect(),
            )
        })
        .collect();
    (net, envelope, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `check_frames` verdicts and statistics are identical to per-frame
    /// `check` in order.
    #[test]
    fn check_frames_matches_per_frame_check(seed in 0u64..500) {
        let (net, envelope, frames) = fixture(seed);
        let batched_monitor =
            RuntimeMonitor::new(net.clone(), 1, envelope.clone()).unwrap();
        let scalar_monitor = RuntimeMonitor::new(net, 1, envelope).unwrap();
        let batched = batched_monitor.check_frames(&frames);
        let scalar: Vec<_> = frames.iter().map(|f| scalar_monitor.check(f)).collect();
        prop_assert_eq!(&batched, &scalar);
        prop_assert_eq!(batched_monitor.report(), scalar_monitor.report());
    }

    /// `coverage` (routed through the batched SoA sweep) equals the
    /// per-frame containment fraction — the regression guard that keeps the
    /// statistic on the batch code path without drifting from `contains`.
    #[test]
    fn coverage_equals_per_frame_containment_fraction(seed in 0u64..500) {
        let (net, envelope, frames) = fixture(seed);
        if frames.is_empty() {
            prop_assert_eq!(envelope.coverage(&[], 1e-9), 1.0);
            return;
        }
        let activations: Vec<Vector> =
            frames.iter().map(|f| net.activation_at(1, f)).collect();
        let expected = activations
            .iter()
            .filter(|a| envelope.contains(a, 1e-9))
            .count() as f64
            / activations.len() as f64;
        prop_assert_eq!(envelope.coverage(&activations, 1e-9), expected);
    }
}
