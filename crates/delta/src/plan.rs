//! Mapping a prior run's verdicts onto a new checkpoint: the
//! [`DeltaPlanner`] and its outputs.
//!
//! A plan is computed *before* any solving happens: for each obligation of
//! the prior run (its family, start region and verdict) the planner decides
//! whether the verdict can be reused verbatim ([`PlannedAction::Reuse`]),
//! reused because the tail perturbation is provably absorbed by the bound
//! slack ([`PlannedAction::ReuseAbsorbed`]), or must be re-solved
//! ([`PlannedAction::Resolve`]). The executed outcome of each action is a
//! [`Disposition`], stamped by `dpv-serve` once the re-solves return.

use std::error::Error;
use std::fmt;

use dpv_core::{RiskCondition, StartRegion, Verdict};

use crate::diff::CheckpointDiff;
use crate::digest::ModelFingerprint;

/// Final outcome of one obligation in a delta-verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// The obligation is bit-identical to the prior checkpoint's, so the
    /// prior verdict is the canonical verdict; carries the prior
    /// checkpoint's fingerprint as provenance.
    Reused {
        /// Fingerprint of the checkpoint the verdict was originally proved
        /// against.
        prior_fingerprint: ModelFingerprint,
    },
    /// The tail changed but the perturbation was provably inside the bound
    /// slack; the prior `Safe` verdict stands without solving.
    Absorbed,
    /// Re-solved from scratch and produced a definitive verdict.
    ReProved,
    /// Re-solved and came back `Unknown` — the delta run could not
    /// re-establish a definitive verdict.
    NewlyDegraded,
}

/// Planned handling of one obligation, before solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedAction {
    /// Carry the prior verdict over verbatim.
    Reuse,
    /// Carry the prior `Safe` verdict over on the strength of the
    /// weight-hull absorption check.
    ReuseAbsorbed,
    /// Re-solve the obligation against the new checkpoint.
    Resolve,
}

/// One obligation of the prior run, as the planner sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorObligation {
    /// Index into the request's risk-condition families.
    pub family: usize,
    /// The obligation's start region in the prior run.
    pub region: StartRegion,
    /// The verdict the prior run assigned.
    pub verdict: Verdict,
}

/// A complete re-verification plan: one [`PlannedAction`] per obligation,
/// in obligation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPlan {
    actions: Vec<PlannedAction>,
}

impl DeltaPlan {
    /// Per-obligation actions, aligned with the planner's input order.
    pub fn actions(&self) -> &[PlannedAction] {
        &self.actions
    }
}

/// Error from [`DeltaPlanner::plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Input lists disagree on obligation count, or a prior obligation
    /// names a family outside the risk list.
    ShapeMismatch(String),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::ShapeMismatch(msg) => write!(f, "delta plan shape mismatch: {msg}"),
        }
    }
}

impl Error for DeltaError {}

/// The absorption slack: the strict margin by which the weight-hull
/// interval refutation must clear a risk threshold. It dominates the MILP
/// solver's numerical tolerance.
const ABSORPTION_SLACK: f64 = 1e-9;

/// Decides, per obligation, whether a prior verdict survives a checkpoint
/// change.
///
/// The planner is pure: it reads a [`CheckpointDiff`] plus the prior run's
/// obligations and emits a [`DeltaPlan`]; executing the plan (prefilled
/// verdicts, warm-started re-solves) is `dpv-serve`'s job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaPlanner;

impl DeltaPlanner {
    /// A planner. Absorption requires the interval refutation to clear
    /// each risk threshold by a strict `1e-9`.
    pub fn new() -> Self {
        Self
    }

    /// Plans the re-verification of one request across a checkpoint change.
    ///
    /// `prior[i]` and `regions[i]` describe the same obligation: its prior
    /// run and its start region in the *new* request (these differ when an
    /// envelope was refit). Per obligation, in order of preference:
    ///
    /// 1. region changed → [`PlannedAction::Resolve`] (a moved region is a
    ///    different obligation; nothing transfers);
    /// 2. tail bit-identical and the prior verdict definitive (`Safe` or
    ///    `Unsafe`, not `Unknown`) → [`PlannedAction::Reuse`];
    /// 3. prior verdict `Safe` and the weight-hull check absorbs the tail
    ///    perturbation for this region and family →
    ///    [`PlannedAction::ReuseAbsorbed`];
    /// 4. otherwise → [`PlannedAction::Resolve`].
    pub fn plan(
        &self,
        diff: &CheckpointDiff,
        cut_layer: usize,
        risks: &[RiskCondition],
        prior: &[PriorObligation],
        regions: &[StartRegion],
    ) -> Result<DeltaPlan, DeltaError> {
        if prior.len() != regions.len() {
            return Err(DeltaError::ShapeMismatch(format!(
                "{} prior obligations vs {} regions",
                prior.len(),
                regions.len()
            )));
        }
        let tail_identical = diff.tail_identical(cut_layer);
        let mut actions = Vec::with_capacity(prior.len());
        for (p, region) in prior.iter().zip(regions) {
            let risk = risks.get(p.family).ok_or_else(|| {
                DeltaError::ShapeMismatch(format!(
                    "prior obligation names family {} but only {} risk conditions exist",
                    p.family,
                    risks.len()
                ))
            })?;
            let action = if p.region != *region {
                PlannedAction::Resolve
            } else if tail_identical && !matches!(p.verdict, Verdict::Unknown(_)) {
                PlannedAction::Reuse
            } else if p.verdict.is_safe()
                && diff.tail_absorbs(cut_layer, &region.box_domain(), risk, ABSORPTION_SLACK)
            {
                PlannedAction::ReuseAbsorbed
            } else {
                PlannedAction::Resolve
            };
            actions.push(action);
        }
        Ok(DeltaPlan { actions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_absint::BoxDomain;
    use dpv_nn::{Activation, Layer, Network, NetworkBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CUT: usize = 1;

    fn checkpoint(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        NetworkBuilder::new(3)
            .dense(4, &mut rng)
            .activation(Activation::ReLU)
            .dense(2, &mut rng)
            .build()
    }

    fn perturb(net: &Network, layer: usize, eps: f64) -> Network {
        let mut out = net.clone();
        if let Layer::Dense(d) = &mut out.layers_mut()[layer] {
            for r in 0..d.output_dim() {
                for c in 0..d.input_dim() {
                    d.weights_mut()[(r, c)] += eps;
                }
            }
        } else {
            panic!("layer {layer} is dense by construction");
        }
        out
    }

    fn risks() -> Vec<RiskCondition> {
        vec![
            RiskCondition::new("unreachable").output_ge(0, 500.0),
            RiskCondition::new("reachable").output_ge(0, -500.0),
        ]
    }

    fn region() -> StartRegion {
        StartRegion::Box(BoxDomain::uniform(4, -1.0, 1.0))
    }

    fn prior(family: usize, verdict: Verdict) -> PriorObligation {
        PriorObligation {
            family,
            region: region(),
            verdict,
        }
    }

    #[test]
    fn head_only_change_reuses_every_definitive_verdict() {
        let old = checkpoint(5);
        let new = perturb(&old, 0, 0.3);
        let diff = CheckpointDiff::between(&old, &new);
        let prior = vec![
            prior(0, Verdict::Safe),
            prior(1, Verdict::Unknown("node limit".into())),
        ];
        let regions = vec![region(), region()];
        let plan = DeltaPlanner::new()
            .plan(&diff, CUT, &risks(), &prior, &regions)
            .expect("well-shaped inputs");
        assert_eq!(
            plan.actions(),
            &[PlannedAction::Reuse, PlannedAction::Resolve],
            "definitive verdicts reuse; Unknown always re-solves"
        );
    }

    #[test]
    fn small_tail_change_absorbs_safe_but_resolves_the_rest() {
        let old = checkpoint(5);
        let new = perturb(&old, 2, 1e-6);
        let diff = CheckpointDiff::between(&old, &new);
        let prior = vec![prior(0, Verdict::Safe), prior(1, Verdict::Safe)];
        let regions = vec![region(), region()];
        let plan = DeltaPlanner::new()
            .plan(&diff, CUT, &risks(), &prior, &regions)
            .expect("well-shaped inputs");
        // Family 0's risk is interval-refutable → absorbed; family 1's risk
        // is reachable, so no interval argument exists → re-solve.
        assert_eq!(
            plan.actions(),
            &[PlannedAction::ReuseAbsorbed, PlannedAction::Resolve]
        );
    }

    #[test]
    fn large_tail_change_resolves_everything() {
        let old = checkpoint(5);
        let new = perturb(&old, 2, 1000.0);
        let diff = CheckpointDiff::between(&old, &new);
        let prior = vec![prior(0, Verdict::Safe), prior(1, Verdict::Safe)];
        let regions = vec![region(), region()];
        let plan = DeltaPlanner::new()
            .plan(&diff, CUT, &risks(), &prior, &regions)
            .expect("well-shaped inputs");
        assert!(plan.actions().iter().all(|a| *a == PlannedAction::Resolve));
    }

    #[test]
    fn a_moved_region_always_resolves() {
        let old = checkpoint(5);
        let diff = CheckpointDiff::between(&old, &old.clone());
        let prior = vec![prior(0, Verdict::Safe)];
        let moved = vec![StartRegion::Box(BoxDomain::uniform(4, -2.0, 2.0))];
        let plan = DeltaPlanner::new()
            .plan(&diff, CUT, &risks(), &prior, &moved)
            .expect("well-shaped inputs");
        assert_eq!(plan.actions(), &[PlannedAction::Resolve]);
    }

    #[test]
    fn shape_mismatches_are_reported() {
        let old = checkpoint(5);
        let diff = CheckpointDiff::between(&old, &old.clone());
        let err = DeltaPlanner::new()
            .plan(&diff, CUT, &risks(), &[prior(0, Verdict::Safe)], &[])
            .expect_err("length mismatch");
        assert!(matches!(err, DeltaError::ShapeMismatch(_)));
        let err = DeltaPlanner::new()
            .plan(
                &diff,
                CUT,
                &risks(),
                &[prior(7, Verdict::Safe)],
                &[region()],
            )
            .expect_err("family out of range");
        assert!(err.to_string().contains("family 7"));
    }
}
