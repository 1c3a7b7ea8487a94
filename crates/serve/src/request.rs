//! Request description and its decomposition into proof obligations.

use std::sync::Arc;
use std::time::Duration;

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{
    split_box, Characterizer, CoreError, RiskCondition, StartRegion, VerificationProblem,
};
use dpv_nn::{Layer, Network};
use dpv_shard::ShardedEnvelope;

use crate::server::ServeError;

/// Where a request's proof obligations live at the cut layer.
#[derive(Debug, Clone)]
pub enum RegionSpec {
    /// One start region — the monolithic assume-guarantee shape (or a
    /// Lemma-2 abstraction box). Box regions may be subdivided; an
    /// octagon is solved as a single root obligation.
    Single(StartRegion),
    /// A cluster-partitioned envelope: one obligation root per shard.
    Sharded {
        /// The sharded activation envelope (built at the request's cut
        /// layer, with the cut layer's dimension).
        envelope: ShardedEnvelope,
        /// Encode each shard's adjacent-difference constraints (`true`,
        /// octagon regions) or only its box part (`false`).
        use_difference_constraints: bool,
    },
}

/// A verification request: the things a client would ship to a resident
/// verifier — perception network, cut layer, characterizer, a *family* of
/// risk conditions to check under the same region, and the region itself.
///
/// The server decomposes a request into
/// `families × shards × sub-boxes` proof obligations. `subdivision`
/// bisects every **box** obligation root `subdivision` times along its
/// widest dimension (via [`dpv_core::split_box`], the same deterministic
/// rule the refinement work-list uses), yielding `2^subdivision` sub-box
/// obligations per root; octagon roots are never subdivided.
#[derive(Debug, Clone)]
pub struct VerificationRequest {
    /// The full perception network (split at `cut_layer` server-side).
    pub perception: Network,
    /// The cut layer (zero-based) the characterizer and regions live at.
    pub cut_layer: usize,
    /// The input-property characterizer `h_φ`.
    pub characterizer: Characterizer,
    /// The risk-property family: every condition is verified over the
    /// same region set. Must be non-empty.
    pub risks: Vec<RiskCondition>,
    /// The start region(s) at the cut layer.
    pub region: RegionSpec,
    /// Bisection levels applied to each box obligation root.
    pub subdivision: u32,
    /// Optional wall-clock budget for the whole request, measured on the
    /// monotonic clock from the moment [`crate::ObligationServer::serve`]
    /// is entered. When it expires, in-flight solves are cancelled
    /// cooperatively and unsolved obligations are skipped; every affected
    /// obligation reports `Unknown("deadline-exceeded")` (see
    /// [`crate::FailureReason`]) and already-computed verdicts are never
    /// lost. `None` means no deadline.
    pub deadline: Option<Duration>,
}

/// One proof obligation: a `(problem, template root, sub-region)` triple
/// plus its deterministic coordinates in the request.
#[derive(Debug, Clone)]
pub(crate) struct Obligation {
    /// Position in the request's global obligation order (family-major,
    /// then shard, then sub-box) — the fold order.
    pub index: usize,
    /// Index into [`VerificationRequest::risks`].
    pub family: usize,
    /// Shard index (0 for [`RegionSpec::Single`]).
    pub shard: usize,
    /// Sub-box index within the shard (0 for unsubdivided roots).
    pub sub_box: usize,
    /// The verification problem for this family member.
    pub problem: Arc<VerificationProblem>,
    /// The region to solve.
    pub region: StartRegion,
}

/// All obligations of one `(family, shard)` pair — they share one
/// encoding template rooted at `root`, which is what makes admission
/// batchable.
#[derive(Debug, Clone)]
pub(crate) struct ObligationGroup {
    pub problem: Arc<VerificationProblem>,
    pub root: StartRegion,
    pub obligations: Vec<Obligation>,
}

/// Deterministically enumerates the sub-boxes of `root` after `levels`
/// widest-dimension bisections, left child before right child.
fn bisect(root: &BoxDomain, levels: u32, out: &mut Vec<BoxDomain>) {
    if levels == 0 {
        out.push(root.clone());
        return;
    }
    let (left, right) = split_box(root);
    bisect(&left, levels - 1, out);
    bisect(&right, levels - 1, out);
}

/// `Ok` when every interval is finite and not inverted.
fn check_intervals(what: &str, intervals: &[Interval]) -> Result<(), ServeError> {
    match intervals
        .iter()
        .position(|iv| !(iv.lo.is_finite() && iv.hi.is_finite() && iv.lo <= iv.hi))
    {
        None => Ok(()),
        Some(i) => Err(ServeError::InvalidRequest(format!(
            "{what} bound {i} is [{}, {}]: bounds must be finite with lo <= hi",
            intervals[i].lo, intervals[i].hi
        ))),
    }
}

/// `Ok` when every layer's parameters are finite.
fn check_layers(what: &str, layers: &[Layer]) -> Result<(), ServeError> {
    match layers.iter().position(|layer| !layer.is_finite()) {
        None => Ok(()),
        Some(i) => Err(ServeError::InvalidRequest(format!(
            "{what} layer {i} has a non-finite parameter"
        ))),
    }
}

impl VerificationRequest {
    /// Rejects a malformed request before anything is admitted, so no
    /// input can panic the server or reach the solver as NaN or ±∞:
    ///
    /// * at least one risk condition;
    /// * finite parameters in the tail after the cut (the head is never
    ///   encoded) and in the characterizer network;
    /// * finite coefficients and right-hand sides in every risk
    ///   inequality;
    /// * finite, non-inverted (`lo <= hi`) bounds in the region — every
    ///   shard of a sharded envelope, difference bounds included when
    ///   they are encoded.
    ///
    /// [`crate::ObligationServer::serve`] and
    /// [`crate::ObligationServer::serve_delta`] call this first.
    ///
    /// # Errors
    /// [`ServeError::InvalidRequest`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.risks.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a verification request needs at least one risk condition".into(),
            ));
        }
        let layers = self.perception.layers();
        check_layers(
            "tail",
            &layers[layers.len().min(self.cut_layer.saturating_add(1))..],
        )?;
        check_layers("characterizer", self.characterizer.network().layers())?;
        for risk in &self.risks {
            for ineq in risk.inequalities() {
                if !(ineq.rhs.is_finite() && ineq.coeffs.iter().all(|c| c.is_finite())) {
                    return Err(ServeError::InvalidRequest(format!(
                        "risk condition `{}` has a non-finite coefficient or threshold",
                        risk.name()
                    )));
                }
            }
        }
        match &self.region {
            RegionSpec::Single(StartRegion::Box(b)) => check_intervals("region", b.bounds()),
            RegionSpec::Single(StartRegion::Octagon(o)) => {
                check_intervals("region", o.bounds())?;
                check_intervals("region difference", o.diffs())
            }
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => envelope.shards().iter().try_for_each(|shard| {
                let octagon = shard.octagon();
                check_intervals("shard", octagon.bounds())?;
                if *use_difference_constraints {
                    check_intervals("shard difference", octagon.diffs())?;
                }
                Ok(())
            }),
        }
    }

    /// The shard roots of the request, in shard-index order.
    fn shard_roots(&self, problem: &VerificationProblem) -> Result<Vec<StartRegion>, CoreError> {
        match &self.region {
            RegionSpec::Single(region) => {
                if region.box_domain().dim()
                    != problem.perception().layer_output_dim(problem.cut_layer())
                {
                    return Err(CoreError::Inconsistent(
                        "request region dimension does not match the cut-layer width".into(),
                    ));
                }
                Ok(vec![region.clone()])
            }
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => problem.shard_regions(envelope, *use_difference_constraints),
        }
    }

    /// Decomposes the request into obligation groups in deterministic
    /// order: family-major, then shard, then sub-box. Obligation indices
    /// are assigned in exactly this order, which is also the fold order.
    pub(crate) fn decompose(&self) -> Result<Vec<ObligationGroup>, CoreError> {
        let mut groups = Vec::new();
        let mut index = 0usize;
        for (family, risk) in self.risks.iter().enumerate() {
            let problem = Arc::new(VerificationProblem::new(
                self.perception.clone(),
                self.cut_layer,
                self.characterizer.clone(),
                risk.clone(),
            )?);
            let roots = self.shard_roots(&problem)?;
            for (shard, root) in roots.into_iter().enumerate() {
                let sub_regions: Vec<StartRegion> = match &root {
                    StartRegion::Box(b) => {
                        let mut leaves = Vec::new();
                        bisect(b, self.subdivision, &mut leaves);
                        leaves.into_iter().map(StartRegion::Box).collect()
                    }
                    octagon => vec![octagon.clone()],
                };
                let obligations = sub_regions
                    .into_iter()
                    .enumerate()
                    .map(|(sub_box, region)| {
                        let obligation = Obligation {
                            index,
                            family,
                            shard,
                            sub_box,
                            problem: Arc::clone(&problem),
                            region,
                        };
                        index += 1;
                        obligation
                    })
                    .collect();
                groups.push(ObligationGroup {
                    problem: Arc::clone(&problem),
                    root,
                    obligations,
                });
            }
        }
        Ok(groups)
    }
}
