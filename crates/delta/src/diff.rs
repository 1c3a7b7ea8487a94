//! The identity test and the weight-hull interval propagation behind
//! delta planning.
//!
//! [`CheckpointDiff::between`] digests both networks layer by layer once,
//! keeps one identity flag per layer and folds the same digests into both
//! checkpoints' fingerprints. The diff then answers the two questions
//! delta-verification planning needs:
//!
//! * [`CheckpointDiff::tail_identical`] — is everything after the cut layer
//!   untouched, so prior verdicts transfer verbatim?
//! * [`CheckpointDiff::tail_absorbs`] — if not, is the perturbation provably
//!   inside the existing bound slack for a *given* start region and risk
//!   condition? This is the weight-hull interval check whose soundness
//!   argument lives on the [crate root](crate).

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{OutputOp, RiskCondition};
use dpv_nn::{Layer, Network};

use crate::digest::{layer_digests, ModelFingerprint};

/// A per-layer content diff between two checkpoints of the same
/// architecture lineage.
///
/// Owns clones of both networks so the weight-hull absorption check can
/// re-propagate regions on demand without the caller keeping the
/// checkpoints alive.
#[derive(Debug, Clone)]
pub struct CheckpointDiff {
    old: Network,
    new: Network,
    old_fingerprint: ModelFingerprint,
    new_fingerprint: ModelFingerprint,
    /// Whether the two layers at each index have equal digests
    /// (bit-identical parameters), over the common layer prefix.
    identical: Vec<bool>,
    structure_compatible: bool,
}

impl CheckpointDiff {
    /// Diffs two checkpoints layer by layer.
    ///
    /// The networks need not have the same layer count or dimensions —
    /// an architecture change simply makes every reuse test fail — but
    /// delta-verification is only profitable when they do.
    pub fn between(old: &Network, new: &Network) -> Self {
        let old_digests = layer_digests(old);
        let new_digests = layer_digests(new);
        let structure_compatible = old.input_dim() == new.input_dim()
            && old.len() == new.len()
            && old
                .layers()
                .iter()
                .zip(new.layers())
                .all(|(a, b)| comparable(a, b));
        Self {
            old: old.clone(),
            new: new.clone(),
            old_fingerprint: ModelFingerprint::from_digests(old.input_dim(), &old_digests),
            new_fingerprint: ModelFingerprint::from_digests(new.input_dim(), &new_digests),
            identical: old_digests
                .iter()
                .zip(&new_digests)
                .map(|(a, b)| a == b)
                .collect(),
            structure_compatible,
        }
    }

    /// Fingerprint of the old checkpoint.
    pub fn old_fingerprint(&self) -> ModelFingerprint {
        self.old_fingerprint
    }

    /// Fingerprint of the new checkpoint.
    pub fn new_fingerprint(&self) -> ModelFingerprint {
        self.new_fingerprint
    }

    /// Whether every layer **after** `cut_layer` is bit-identical (and the
    /// architectures are comparable) — the precondition for verbatim verdict
    /// reuse.
    pub fn tail_identical(&self, cut_layer: usize) -> bool {
        self.structure_compatible
            && self
                .identical
                .iter()
                .skip(cut_layer.saturating_add(1))
                .all(|&same| same)
    }

    /// The weight-hull absorption check: propagates `region` through the
    /// *interval-weighted* tail (every parameter replaced by the hull of its
    /// old and new values) and reports whether the resulting output box
    /// refutes `risk` with strict slack `slack`.
    ///
    /// Returns `true` only when **no** point of the region can satisfy the
    /// risk condition under *any* tail whose parameters lie in the hull —
    /// in particular under the new checkpoint's tail — so a prior `Safe`
    /// verdict carries over. Conservative `false` whenever a changed tail
    /// layer is not hull-representable (kind or dimension mismatch, changed
    /// convolution / pooling / activation layers).
    pub fn tail_absorbs(
        &self,
        cut_layer: usize,
        region: &BoxDomain,
        risk: &RiskCondition,
        slack: f64,
    ) -> bool {
        let Some(out) = self.hull_tail_output(cut_layer, region) else {
            return false;
        };
        refutes(&out, risk, slack)
    }

    /// Interval output of the weight-hull tail over `region`, or `None`
    /// when some changed tail layer is not hull-representable.
    fn hull_tail_output(&self, cut_layer: usize, region: &BoxDomain) -> Option<Vec<Interval>> {
        if !self.structure_compatible {
            return None;
        }
        let mut bounds: Vec<Interval> = region.bounds().to_vec();
        let tail = self
            .identical
            .iter()
            .enumerate()
            .skip(cut_layer.saturating_add(1));
        for (index, &same) in tail {
            let new_layer = &self.new.layers()[index];
            if same {
                // Exact (still sound) transformer for untouched layers —
                // supports every layer kind, including conv and pooling.
                bounds = BoxDomain::from_intervals(bounds)
                    .apply_layer(new_layer)
                    .to_box();
                continue;
            }
            bounds = hull_apply(&self.old.layers()[index], new_layer, &bounds)?;
        }
        Some(bounds)
    }
}

/// Whether two layers are structurally comparable: same kind and the same
/// dimensions, differing at most in parameter values.
fn comparable(a: &Layer, b: &Layer) -> bool {
    match (a, b) {
        (Layer::Dense(x), Layer::Dense(y)) => {
            x.input_dim() == y.input_dim() && x.output_dim() == y.output_dim()
        }
        (Layer::Activation(x), Layer::Activation(y)) => {
            std::mem::discriminant(x) == std::mem::discriminant(y)
        }
        (Layer::BatchNorm(x), Layer::BatchNorm(y)) => x.dim() == y.dim(),
        (Layer::Conv2d(x), Layer::Conv2d(y)) => {
            x.input_shape() == y.input_shape()
                && x.kernel() == y.kernel()
                && x.stride() == y.stride()
        }
        (Layer::MaxPool2d(x), Layer::MaxPool2d(y)) => {
            x.input_shape() == y.input_shape() && x.pool() == y.pool()
        }
        (Layer::Flatten(x), Layer::Flatten(y)) => x.shape() == y.shape(),
        _ => false,
    }
}

/// Applies the hull of a changed layer pair to an interval vector, or
/// `None` when the pair is not hull-representable. Only affine layer kinds
/// (dense, batch-norm) admit the interval-weight form; everything else
/// changed must fail absorption conservatively.
fn hull_apply(old: &Layer, new: &Layer, bounds: &[Interval]) -> Option<Vec<Interval>> {
    match (old, new) {
        (Layer::Dense(x), Layer::Dense(y)) => {
            if x.input_dim() != bounds.len() {
                return None;
            }
            let mut out = Vec::with_capacity(x.output_dim());
            for r in 0..x.output_dim() {
                let mut acc = hull(x.bias()[r], y.bias()[r]);
                for (c, bound) in bounds.iter().enumerate() {
                    let w = hull(x.weights()[(r, c)], y.weights()[(r, c)]);
                    acc = acc.add(&bound.mul(&w));
                }
                out.push(acc);
            }
            Some(out)
        }
        (Layer::BatchNorm(x), Layer::BatchNorm(y)) => {
            if x.dim() != bounds.len() {
                return None;
            }
            let (ax, bx) = x.affine_form();
            let (ay, by) = y.affine_form();
            let out = bounds
                .iter()
                .enumerate()
                .map(|(i, b)| b.mul(&hull(ax[i], ay[i])).add(&hull(bx[i], by[i])))
                .collect();
            Some(out)
        }
        _ => None,
    }
}

fn hull(a: f64, b: f64) -> Interval {
    Interval::new(a.min(b), a.max(b))
}

/// Whether the output box refutes the risk condition with strict slack:
/// some inequality of the conjunction cannot hold anywhere in the box.
/// An empty conjunction is vacuously satisfiable — never refuted.
fn refutes(bounds: &[Interval], risk: &RiskCondition, slack: f64) -> bool {
    let inequalities = risk.inequalities();
    if inequalities.is_empty() {
        return false;
    }
    inequalities.iter().any(|ineq| {
        if ineq.coeffs.len() > bounds.len() {
            return false;
        }
        let mut acc = Interval::point(0.0);
        for (i, &coeff) in ineq.coeffs.iter().enumerate() {
            acc = acc.add(&bounds[i].scale(coeff));
        }
        match ineq.op {
            OutputOp::Ge => acc.hi < ineq.rhs - slack,
            OutputOp::Le => acc.lo > ineq.rhs + slack,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_nn::{Activation, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CUT: usize = 1;

    /// 3 → 4 → ReLU → 2: cut after the ReLU, tail = one dense layer.
    fn checkpoint(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build()
    }

    /// Diffs `old` against `new`, checking that the fingerprints folded
    /// from the diff's own layer digests equal the standalone ones.
    fn diff(old: &Network, new: &Network) -> CheckpointDiff {
        let diff = CheckpointDiff::between(old, new);
        assert_eq!(diff.old_fingerprint(), ModelFingerprint::of(old));
        assert_eq!(diff.new_fingerprint(), ModelFingerprint::of(new));
        diff
    }

    fn perturb_tail(net: &Network, eps: f64) -> Network {
        let mut out = net.clone();
        if let Layer::Dense(d) = &mut out.layers_mut()[2] {
            for r in 0..d.output_dim() {
                for c in 0..d.input_dim() {
                    d.weights_mut()[(r, c)] += eps;
                }
            }
        } else {
            panic!("layer 2 is dense by construction");
        }
        out
    }

    fn perturb_head(net: &Network, eps: f64) -> Network {
        let mut out = net.clone();
        if let Layer::Dense(d) = &mut out.layers_mut()[0] {
            d.weights_mut()[(0, 0)] += eps;
        } else {
            panic!("layer 0 is dense by construction");
        }
        out
    }

    /// `out[0] ≥ rhs` — unreachable for large rhs on a bounded region.
    fn risk(rhs: f64) -> RiskCondition {
        RiskCondition::new("test-risk").output_ge(0, rhs)
    }

    fn region() -> BoxDomain {
        BoxDomain::uniform(4, -1.0, 1.0)
    }

    #[test]
    fn identical_checkpoints_diff_as_identical() {
        let a = checkpoint(3);
        let diff = diff(&a, &a.clone());
        assert_eq!(diff.old_fingerprint(), diff.new_fingerprint());
        assert!(diff.tail_identical(CUT));
        assert!(diff.tail_identical(0), "the head is untouched too");
    }

    #[test]
    fn head_perturbation_keeps_tail_identical() {
        let a = checkpoint(3);
        let b = perturb_head(&a, 0.5);
        let diff = diff(&a, &b);
        assert_ne!(diff.old_fingerprint(), diff.new_fingerprint());
        assert!(diff.tail_identical(CUT));
        assert!(diff.tail_identical(0), "only layer 0 changed");
    }

    #[test]
    fn tiny_tail_perturbation_is_absorbed_for_unreachable_risk() {
        let a = checkpoint(3);
        let b = perturb_tail(&a, 1e-6);
        let diff = diff(&a, &b);
        assert_ne!(diff.old_fingerprint(), diff.new_fingerprint());
        assert!(!diff.tail_identical(CUT));
        assert!(diff.tail_identical(2), "only layer 2 changed");
        // |out[0]| is bounded by roughly Σ|w| + |bias| ≈ a few units on this
        // region; rhs = 500 leaves orders of magnitude of slack.
        assert!(diff.tail_absorbs(CUT, &region(), &risk(500.0), 1e-9));
    }

    #[test]
    fn huge_tail_perturbation_is_not_absorbed() {
        let a = checkpoint(3);
        // eps = 1000 pushes the hull output interval across rhs = 500.
        let b = perturb_tail(&a, 1000.0);
        let diff = diff(&a, &b);
        assert!(!diff.tail_identical(CUT));
        assert!(!diff.tail_absorbs(CUT, &region(), &risk(500.0), 1e-9));
    }

    #[test]
    fn absorption_boundary_tracks_the_slack_margin() {
        let a = checkpoint(3);
        let b = perturb_tail(&a, 1e-6);
        let diff = diff(&a, &b);
        // The hull output's upper bound is some finite u << 500. A slack
        // just below (500 - u) still refutes; a slack above it must not.
        assert!(diff.tail_absorbs(CUT, &region(), &risk(500.0), 1.0));
        assert!(!diff.tail_absorbs(CUT, &region(), &risk(500.0), 1e9));
    }

    #[test]
    fn reachable_risk_is_never_absorbed() {
        let a = checkpoint(3);
        let b = perturb_tail(&a, 1e-6);
        let diff = diff(&a, &b);
        // rhs = -500: every point of the region satisfies out[0] ≥ -500, so
        // no interval argument can refute it.
        assert!(!diff.tail_absorbs(CUT, &region(), &risk(-500.0), 1e-9));
    }

    #[test]
    fn architecture_mismatch_is_conservative() {
        let a = checkpoint(3);
        let mut rng = StdRng::seed_from_u64(3);
        let b = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::Tanh) // kind change at the cut boundary
            .dense(2, &mut rng)
            .build();
        let diff = diff(&a, &b);
        assert_ne!(diff.old_fingerprint(), diff.new_fingerprint());
        assert!(!diff.tail_identical(CUT));
        // Incomparable architectures share no tail, not even an empty one.
        assert!(!diff.tail_identical(2));
        assert!(!diff.tail_absorbs(CUT, &region(), &risk(500.0), 1e-9));
    }

    #[test]
    fn changed_activation_in_tail_blocks_absorption() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .activation(Activation::LeakyReLU(0.1))
            .build();
        let mut b = a.clone();
        b.layers_mut()[3] = Layer::Activation(Activation::LeakyReLU(0.2));
        let diff = diff(&a, &b);
        assert!(!diff.tail_identical(CUT));
        // The activation pair is comparable (same discriminant) but not
        // hull-representable — absorption must fail conservatively even
        // though the risk is wildly unreachable.
        assert!(!diff.tail_absorbs(CUT, &region(), &risk(500.0), 1e-9));
    }
}
