//! The runtime monitor guarding the assume-guarantee proof.

use std::sync::atomic::{AtomicUsize, Ordering};

use dpv_nn::Network;
use dpv_tensor::{Matrix, Vector};

use crate::soa::{union_contained_mask, EnvelopeSoa};
use crate::{ActivationEnvelope, MonitorError};

/// Numerical slack of every containment check the monitor makes.
const CONTAINMENT_TOLERANCE: f64 = 1e-9;

/// Which envelope constraint an activation violated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ViolationKind {
    /// A per-neuron bound was violated.
    NeuronBound,
    /// An adjacent-difference bound was violated.
    AdjacentDifference,
}

/// One violated constraint of the envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which kind of constraint was violated.
    pub kind: ViolationKind,
    /// Index of the neuron (for bounds) or of the pair `(index, index + 1)`
    /// (for differences).
    pub index: usize,
    /// The offending value.
    pub value: f64,
    /// Lower bound of the violated interval.
    pub lower: f64,
    /// Upper bound of the violated interval.
    pub upper: f64,
}

/// The verdict for one monitored frame.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorVerdict {
    /// The activation lies inside the envelope: the assume-guarantee proof
    /// applies to this frame.
    InOdd,
    /// The activation escapes the envelope: the proof's assumption is
    /// violated and a warning must be raised (the paper additionally reads
    /// this as a hint of incomplete data collection or ODD exit).
    OutOfOdd {
        /// Every violated constraint.
        violations: Vec<Violation>,
    },
}

impl MonitorVerdict {
    /// Returns `true` for [`MonitorVerdict::InOdd`].
    pub fn is_in_odd(&self) -> bool {
        matches!(self, MonitorVerdict::InOdd)
    }
}

/// Cumulative statistics of a monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorReport {
    /// Number of frames checked.
    pub frames: usize,
    /// Number of frames found inside the envelope.
    pub in_odd: usize,
    /// Number of frames that violated the envelope.
    pub out_of_odd: usize,
}

impl MonitorReport {
    /// Fraction of frames inside the envelope (1.0 when nothing was checked).
    pub fn in_odd_fraction(&self) -> f64 {
        if self.frames == 0 {
            1.0
        } else {
            self.in_odd as f64 / self.frames as f64
        }
    }
}

/// A region the runtime monitor enforces: the union of one or more member
/// envelopes.
///
/// An activation is in the region iff *some* member contains it. The
/// monitor caches [`MonitoredRegion::soa`] once and tests containment on
/// it; the region is asked for [`MonitoredRegion::violations`] only for
/// activations outside every member. [`ActivationEnvelope`] is the
/// one-member region; `dpv-shard`'s `ShardedEnvelope` has one member per
/// activation cluster.
pub trait MonitoredRegion {
    /// Dimension of the monitored activation vector.
    fn dim(&self) -> usize;

    /// One SoA flattening per member, in member order.
    fn soa(&self) -> Vec<EnvelopeSoa>;

    /// The violations reported for an activation outside every member.
    fn violations(&self, activation: &Vector, tol: f64) -> Vec<Violation>;

    /// Fraction of `activations` inside some member (1.0 when empty) — the
    /// coverage statistic reported in the experiments.
    ///
    /// Routed through the batched SoA union sweep
    /// ([`union_contained_mask`]), the containment code path of
    /// [`RuntimeMonitor::check_frames`], so coverage statistics cannot
    /// drift from monitor verdicts.
    fn coverage(&self, activations: &[Vector], tol: f64) -> f64 {
        if activations.is_empty() {
            return 1.0;
        }
        let frames = Matrix::from_columns(activations)
            .expect("coverage activations must share one dimension");
        let mask = union_contained_mask(&self.soa(), &frames, tol);
        mask.count_contained() as f64 / activations.len() as f64
    }
}

/// The runtime monitor: evaluates the perception network up to the cut
/// layer and checks the resulting activation against a
/// [`MonitoredRegion`] — by default one [`ActivationEnvelope`].
///
/// The monitor is `Sync`: the per-frame counters are plain atomics
/// (monotonically increasing, relaxed ordering) so one monitor instance
/// can serve several camera pipelines without any lock contention on the
/// hot path. A [`RuntimeMonitor::report`] taken while checks are in
/// flight may observe a frame whose in/out counter increment has not
/// landed yet; quiescent reports (after joining the checking threads) are
/// exact.
///
/// Containment itself runs on a cached [`EnvelopeSoa`] flattening of every
/// member of the region — the same code path the batched
/// [`RuntimeMonitor::check_frames`] sweeps — so scalar and batched
/// verdicts cannot drift.
#[derive(Debug)]
pub struct RuntimeMonitor<E: MonitoredRegion = ActivationEnvelope> {
    network: Network,
    cut_layer: usize,
    envelope: E,
    soa: Vec<EnvelopeSoa>,
    frames: AtomicUsize,
    in_odd: AtomicUsize,
    out_of_odd: AtomicUsize,
}

impl<E: MonitoredRegion> RuntimeMonitor<E> {
    /// Creates a monitor for `network`, monitoring the activation after
    /// `cut_layer` (zero-based) against `envelope`.
    ///
    /// # Errors
    /// Returns [`MonitorError::Mismatch`] when the cut layer is out of range
    /// or the envelope dimension does not match the network's activation
    /// dimension at that layer.
    pub fn new(network: Network, cut_layer: usize, envelope: E) -> Result<Self, MonitorError> {
        if cut_layer >= network.len() {
            return Err(MonitorError::Mismatch(format!(
                "cut layer {cut_layer} out of range for a network with {} layers",
                network.len()
            )));
        }
        let dim = network.layer_output_dim(cut_layer);
        if dim != envelope.dim() {
            return Err(MonitorError::Mismatch(format!(
                "envelope dimension {} does not match layer dimension {dim}",
                envelope.dim()
            )));
        }
        let soa = envelope.soa();
        Ok(Self {
            network,
            cut_layer,
            envelope,
            soa,
            frames: AtomicUsize::new(0),
            in_odd: AtomicUsize::new(0),
            out_of_odd: AtomicUsize::new(0),
        })
    }

    /// The monitored cut layer.
    pub fn cut_layer(&self) -> usize {
        self.cut_layer
    }

    /// The region being enforced.
    pub fn envelope(&self) -> &E {
        &self.envelope
    }

    /// Computes the monitored activation for an input image.
    pub fn activation(&self, input: &Vector) -> Vector {
        self.network.activation_at(self.cut_layer, input)
    }

    /// Checks one input frame end to end (forward pass to the cut layer plus
    /// envelope containment) and updates the statistics.
    pub fn check(&self, input: &Vector) -> MonitorVerdict {
        let activation = self.activation(input);
        self.check_activation(&activation)
    }

    /// Checks an already-computed activation vector against the envelope and
    /// updates the statistics.
    pub fn check_activation(&self, activation: &Vector) -> MonitorVerdict {
        let verdict = self.classify(activation);
        self.frames.fetch_add(1, Ordering::Relaxed);
        match &verdict {
            MonitorVerdict::InOdd => self.in_odd.fetch_add(1, Ordering::Relaxed),
            MonitorVerdict::OutOfOdd { .. } => self.out_of_odd.fetch_add(1, Ordering::Relaxed),
        };
        verdict
    }

    /// Checks a batch of input frames in one pass: a single batched forward
    /// pass to the cut layer ([`Network::activation_at_batch`]) followed by
    /// one SoA union sweep over all frames and members, with the violation
    /// lists materialised only for the frames that escape the region.
    ///
    /// Verdicts (including violation lists) are identical to calling
    /// [`RuntimeMonitor::check`] frame by frame in order — the batch path
    /// only amortises per-frame allocation, dispatch and statistics
    /// updates. Statistics are updated once for the whole batch.
    pub fn check_frames(&self, inputs: &[Vector]) -> Vec<MonitorVerdict> {
        let activations = self.network.activation_matrix_at(self.cut_layer, inputs);
        let mask = union_contained_mask(&self.soa, &activations, CONTAINMENT_TOLERANCE);
        let verdicts: Vec<MonitorVerdict> = (0..inputs.len())
            .map(|f| {
                if mask.is_contained(f) {
                    MonitorVerdict::InOdd
                } else {
                    let activation = activations.col_vector(f);
                    MonitorVerdict::OutOfOdd {
                        violations: self.envelope.violations(&activation, CONTAINMENT_TOLERANCE),
                    }
                }
            })
            .collect();
        let in_odd = mask.count_contained();
        self.frames.fetch_add(inputs.len(), Ordering::Relaxed);
        self.in_odd.fetch_add(in_odd, Ordering::Relaxed);
        self.out_of_odd
            .fetch_add(inputs.len() - in_odd, Ordering::Relaxed);
        verdicts
    }

    /// Pure classification without statistics side effects.
    ///
    /// In ODD iff some member's cached SoA flattening (the batch code path)
    /// contains the activation, members tested in order; the region's
    /// violation list is only materialised for frames outside every member.
    pub fn classify(&self, activation: &Vector) -> MonitorVerdict {
        let point = activation.as_slice();
        if self
            .soa
            .iter()
            .any(|soa| soa.contains(point, CONTAINMENT_TOLERANCE))
        {
            MonitorVerdict::InOdd
        } else {
            MonitorVerdict::OutOfOdd {
                violations: self.envelope.violations(activation, CONTAINMENT_TOLERANCE),
            }
        }
    }

    /// Snapshot of the cumulative statistics.
    pub fn report(&self) -> MonitorReport {
        MonitorReport {
            frames: self.frames.load(Ordering::Relaxed),
            in_odd: self.in_odd.load(Ordering::Relaxed),
            out_of_odd: self.out_of_odd.load(Ordering::Relaxed),
        }
    }

    /// Resets the cumulative statistics.
    pub fn reset(&self) {
        self.frames.store(0, Ordering::Relaxed);
        self.in_odd.store(0, Ordering::Relaxed);
        self.out_of_odd.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(seed: u64) -> (Network, Vec<Vector>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = NetworkBuilder::new(4)
            .dense(6, &mut rng)
            .activation(Activation::ReLU)
            .dense(3, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let inputs: Vec<Vector> = (0..60)
            .map(|_| Vector::from_vec((0..4).map(|_| rng.gen_range(0.0..1.0)).collect()))
            .collect();
        (net, inputs)
    }

    #[test]
    fn training_inputs_stay_in_odd() {
        let (net, inputs) = setup(1);
        let env = ActivationEnvelope::from_inputs(&net, 3, &inputs, 0.0).unwrap();
        let monitor = RuntimeMonitor::new(net, 3, env).unwrap();
        for x in &inputs {
            assert!(monitor.check(x).is_in_odd());
        }
        let report = monitor.report();
        assert_eq!(report.frames, 60);
        assert_eq!(report.out_of_odd, 0);
        assert_eq!(report.in_odd_fraction(), 1.0);
    }

    #[test]
    fn far_out_inputs_are_flagged() {
        let (net, inputs) = setup(2);
        // Monitor the (pre-ReLU) dense output, which scales linearly with the
        // input, so far-out inputs must escape the envelope.
        let env = ActivationEnvelope::from_inputs(&net, 0, &inputs, 0.0).unwrap();
        let monitor = RuntimeMonitor::new(net, 0, env).unwrap();
        // Inputs far outside the [0,1] pixel range the envelope was built from.
        let mut flagged = 0;
        for i in 0..20 {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let x = Vector::filled(4, sign * (50.0 + i as f64));
            if !monitor.check(&x).is_in_odd() {
                flagged += 1;
            }
        }
        assert!(
            flagged > 15,
            "only {flagged} of 20 extreme inputs were flagged"
        );
        assert!(monitor.report().out_of_odd >= flagged);
    }

    #[test]
    fn violations_carry_details() {
        let acts = vec![
            Vector::from_slice(&[0.0, 0.0]),
            Vector::from_slice(&[1.0, 1.0]),
        ];
        let env = ActivationEnvelope::from_activations(0, &acts, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let net = NetworkBuilder::new(2).dense(2, &mut rng).build();
        let monitor = RuntimeMonitor::new(net, 0, env).unwrap();
        let verdict = monitor.classify(&Vector::from_slice(&[2.0, -1.0]));
        match verdict {
            MonitorVerdict::OutOfOdd { violations } => {
                assert!(violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::NeuronBound));
                assert!(violations
                    .iter()
                    .any(|v| v.kind == ViolationKind::AdjacentDifference));
                assert!(violations.iter().all(|v| v.lower <= v.upper));
            }
            MonitorVerdict::InOdd => panic!("expected a violation"),
        }
    }

    #[test]
    fn constructor_validates_dimensions() {
        let (net, inputs) = setup(4);
        let env = ActivationEnvelope::from_inputs(&net, 1, &inputs, 0.0).unwrap();
        assert!(RuntimeMonitor::new(net.clone(), 99, env.clone()).is_err());
        assert!(RuntimeMonitor::new(net, 3, env).is_err());
    }

    #[test]
    fn reset_clears_statistics() {
        let (net, inputs) = setup(5);
        let env = ActivationEnvelope::from_inputs(&net, 2, &inputs, 0.1).unwrap();
        let monitor = RuntimeMonitor::new(net, 2, env).unwrap();
        let _ = monitor.check(&inputs[0]);
        assert_eq!(monitor.report().frames, 1);
        monitor.reset();
        assert_eq!(monitor.report().frames, 0);
    }

    #[test]
    fn monitor_is_shareable_across_threads() {
        let (net, inputs) = setup(6);
        let env = ActivationEnvelope::from_inputs(&net, 3, &inputs, 0.0).unwrap();
        let monitor = std::sync::Arc::new(RuntimeMonitor::new(net, 3, env).unwrap());
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
    }
}
