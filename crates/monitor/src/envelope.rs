//! The activation envelope `S̃` built from training-data activations.

use dpv_absint::{BoxDomain, Interval, OctagonLite};
use dpv_nn::Network;
use dpv_tensor::Vector;

use crate::{EnvelopeSoa, MonitorError, MonitoredRegion, Violation, ViolationKind};

/// An over-approximation of the layer-`l` activations observed on a data
/// set: per-neuron `[min, max]` plus `[min, max]` of every adjacent-neuron
/// difference, optionally widened by a margin.
///
/// This is the set `S̃` of the paper's assume-guarantee verification: it
/// over-approximates the activations of the *training data* (not of every
/// possible input), so any proof relative to it must be accompanied by a
/// runtime monitor checking containment (see [`crate::RuntimeMonitor`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivationEnvelope {
    layer: usize,
    octagon: OctagonLite,
    samples: usize,
    margin: f64,
}

impl ActivationEnvelope {
    /// Builds an envelope from already-computed activation vectors at the
    /// cut layer.
    ///
    /// # Errors
    /// Returns [`MonitorError::EmptyActivations`] when `activations` is
    /// empty — an envelope is the hull of observed data, so zero samples
    /// leave nothing to build.
    pub fn from_activations(
        layer: usize,
        activations: &[Vector],
        margin: f64,
    ) -> Result<Self, MonitorError> {
        if activations.is_empty() {
            return Err(MonitorError::EmptyActivations);
        }
        let mut octagon = OctagonLite::from_samples(activations);
        if margin > 0.0 {
            octagon.widen(margin);
        }
        Ok(Self {
            layer,
            octagon,
            samples: activations.len(),
            margin,
        })
    }

    /// Runs every input through `network` up to layer `layer` (zero-based)
    /// and builds the envelope of the resulting activations.
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
    ) -> Result<Self, MonitorError> {
        let activations: Vec<Vector> = inputs
            .iter()
            .map(|x| network.activation_at(layer, x))
            .collect();
        Self::from_activations(layer, &activations, margin)
    }

    /// The cut layer this envelope describes (zero-based layer index).
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of activation samples aggregated into the envelope.
    pub fn sample_count(&self) -> usize {
        self.samples
    }

    /// The widening margin that was applied.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Dimension of the monitored activation vector.
    pub fn dim(&self) -> usize {
        self.octagon.dim()
    }

    /// Per-neuron interval bounds.
    pub fn neuron_bounds(&self) -> &[Interval] {
        self.octagon.bounds()
    }

    /// Adjacent-difference interval bounds.
    pub fn diff_bounds(&self) -> &[Interval] {
        self.octagon.diffs()
    }

    /// The underlying octagon-lite abstraction.
    pub fn octagon(&self) -> &OctagonLite {
        &self.octagon
    }

    /// The box part only (dropping the difference constraints) — the
    /// ablation of experiment E4.
    pub fn box_only(&self) -> BoxDomain {
        self.octagon.to_box_domain()
    }

    /// Returns `true` when the activation vector satisfies every neuron
    /// bound and every adjacent-difference bound.
    pub fn contains(&self, activation: &Vector, tol: f64) -> bool {
        self.octagon.contains(activation.as_slice(), tol)
    }

    /// Returns `true` when the activation satisfies the per-neuron bounds
    /// (ignoring the difference constraints).
    pub fn box_contains(&self, activation: &Vector, tol: f64) -> bool {
        use dpv_absint::AbstractDomain;
        self.box_only().box_contains(activation.as_slice(), tol)
    }

    /// Merges another envelope over the same layer and dimension (e.g. built
    /// from a second data collection campaign).
    ///
    /// # Panics
    /// Panics when layers or dimensions differ.
    pub fn merge(&self, other: &ActivationEnvelope) -> ActivationEnvelope {
        assert_eq!(
            self.layer, other.layer,
            "cannot merge envelopes of different layers"
        );
        assert_eq!(
            self.dim(),
            other.dim(),
            "cannot merge envelopes of different dimensions"
        );
        let bounds: Vec<Interval> = self
            .neuron_bounds()
            .iter()
            .zip(other.neuron_bounds().iter())
            .map(|(a, b)| a.join(b))
            .collect();
        let diffs: Vec<Interval> = self
            .diff_bounds()
            .iter()
            .zip(other.diff_bounds().iter())
            .map(|(a, b)| a.join(b))
            .collect();
        ActivationEnvelope {
            layer: self.layer,
            octagon: OctagonLite::from_parts(bounds, diffs),
            samples: self.samples + other.samples,
            margin: self.margin.max(other.margin),
        }
    }
}

/// The one-member region: in ODD iff the envelope contains the activation.
impl MonitoredRegion for ActivationEnvelope {
    fn dim(&self) -> usize {
        self.octagon.dim()
    }

    fn soa(&self) -> Vec<EnvelopeSoa> {
        vec![EnvelopeSoa::from_envelope(self)]
    }

    /// Every constraint of the envelope the activation violates (empty iff
    /// [`ActivationEnvelope::contains`] holds at the same tolerance). This
    /// is the single source of the violation diagnostics reported by
    /// [`crate::RuntimeMonitor`], whichever region it enforces.
    fn violations(&self, activation: &Vector, tol: f64) -> Vec<Violation> {
        let mut violations = Vec::new();
        for (i, interval) in self.neuron_bounds().iter().enumerate() {
            let v = activation[i];
            if !interval.contains(v, tol) {
                violations.push(Violation {
                    kind: ViolationKind::NeuronBound,
                    index: i,
                    value: v,
                    lower: interval.lo,
                    upper: interval.hi,
                });
            }
        }
        for (i, interval) in self.diff_bounds().iter().enumerate() {
            let d = activation[i + 1] - activation[i];
            if !interval.contains(d, tol) {
                violations.push(Violation {
                    kind: ViolationKind::AdjacentDifference,
                    index: i,
                    value: d,
                    lower: interval.lo,
                    upper: interval.hi,
                });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn samples(n: usize, dim: usize, seed: u64) -> Vec<Vector> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vector::from_vec((0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    #[test]
    fn envelope_contains_every_training_activation() {
        let acts = samples(100, 5, 1);
        let env = ActivationEnvelope::from_activations(3, &acts, 0.0).unwrap();
        assert_eq!(env.layer(), 3);
        assert_eq!(env.sample_count(), 100);
        assert_eq!(env.dim(), 5);
        for a in &acts {
            assert!(env.contains(a, 1e-12));
        }
    }

    #[test]
    fn from_inputs_matches_manual_activations() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build();
        let inputs = samples(30, 3, 3);
        let env = ActivationEnvelope::from_inputs(&net, 1, &inputs, 0.0).unwrap();
        let manual: Vec<Vector> = inputs.iter().map(|x| net.activation_at(1, x)).collect();
        let manual_env = ActivationEnvelope::from_activations(1, &manual, 0.0).unwrap();
        assert_eq!(env.neuron_bounds(), manual_env.neuron_bounds());
        assert_eq!(env.diff_bounds(), manual_env.diff_bounds());
    }

    #[test]
    fn margin_widens_the_envelope() {
        let acts = vec![
            Vector::from_slice(&[0.0, 1.0]),
            Vector::from_slice(&[0.5, 0.5]),
        ];
        let tight = ActivationEnvelope::from_activations(0, &acts, 0.0).unwrap();
        let wide = ActivationEnvelope::from_activations(0, &acts, 0.2).unwrap();
        assert!(!tight.contains(&Vector::from_slice(&[0.6, 0.6]), 0.0));
        assert!(wide.contains(&Vector::from_slice(&[0.6, 0.6]), 0.0));
        assert_eq!(wide.margin(), 0.2);
    }

    #[test]
    fn difference_constraints_restrict_beyond_the_box() {
        // Activations always have a[1] = a[0] + 1.
        let acts: Vec<Vector> = (0..20)
            .map(|i| {
                let base = i as f64 / 10.0;
                Vector::from_slice(&[base, base + 1.0])
            })
            .collect();
        let env = ActivationEnvelope::from_activations(0, &acts, 0.0).unwrap();
        let corner = Vector::from_slice(&[0.0, 2.9]);
        assert!(env.box_contains(&corner, 1e-9));
        assert!(!env.contains(&corner, 1e-9));
    }

    #[test]
    fn merge_unions_the_ranges() {
        let a = ActivationEnvelope::from_activations(2, &samples(20, 3, 5), 0.0).unwrap();
        let b = ActivationEnvelope::from_activations(2, &samples(20, 3, 6), 0.0).unwrap();
        let merged = a.merge(&b);
        assert_eq!(merged.sample_count(), 40);
        for s in samples(20, 3, 5).iter().chain(samples(20, 3, 6).iter()) {
            assert!(merged.contains(s, 1e-12));
        }
    }

    #[test]
    fn coverage_statistics() {
        let acts = samples(50, 4, 7);
        let env = ActivationEnvelope::from_activations(0, &acts, 0.0).unwrap();
        assert_eq!(env.coverage(&acts, 1e-12), 1.0);
        let far: Vec<Vector> = (0..10).map(|_| Vector::filled(4, 100.0)).collect();
        assert_eq!(env.coverage(&far, 1e-12), 0.0);
        assert_eq!(env.coverage(&[], 0.0), 1.0);
    }

    #[test]
    fn empty_activation_list_is_an_error_not_a_panic() {
        assert_eq!(
            ActivationEnvelope::from_activations(0, &[], 0.0),
            Err(MonitorError::EmptyActivations)
        );
        let mut rng = StdRng::seed_from_u64(8);
        let net = NetworkBuilder::new(2).dense(2, &mut rng).build();
        assert_eq!(
            ActivationEnvelope::from_inputs(&net, 0, &[], 0.0),
            Err(MonitorError::EmptyActivations)
        );
    }
}
