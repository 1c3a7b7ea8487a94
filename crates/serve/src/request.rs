//! Request description and its decomposition into proof obligations.

use std::sync::Arc;
use std::time::Duration;

use dpv_absint::{AbstractDomain, BoxDomain};
use dpv_core::{
    check_finite, split_box, Characterizer, CoreError, RiskCondition, StartRegion,
    VerificationProblem,
};
use dpv_nn::Network;
use dpv_shard::ShardedEnvelope;

use crate::server::ServeError;

/// The most proof obligations one request may decompose into (2^16).
/// [`VerificationRequest::validate`] rejects larger requests before
/// decomposition allocates their sub-boxes.
const MAX_OBLIGATIONS: u64 = 1 << 16;

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
    /// Bisection levels applied to each box obligation root. The request
    /// may decompose into at most 2^16 = 65,536 obligations (risks × the
    /// sum over roots of 2^`subdivision` per box root and 1 per octagon
    /// root), so a single box root with one risk takes at most 16 levels;
    /// [`VerificationRequest::validate`] rejects more.
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

impl VerificationRequest {
    /// Rejects a malformed request before anything is admitted, so no
    /// input can panic the server or reach the solver as NaN or ±∞:
    ///
    /// * at least one risk condition;
    /// * everything [`dpv_core::check_finite`] checks: finite parameters in
    ///   the tail after the cut (the head is never encoded) and in the
    ///   characterizer network, finite coefficients and right-hand sides in
    ///   every risk inequality, and finite, non-inverted (`lo <= hi`)
    ///   bounds in the region — every shard of a sharded envelope,
    ///   difference bounds included when they are encoded;
    /// * at most 2^16 obligations after decomposition (see
    ///   [`VerificationRequest::subdivision`]).
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
        let tail = &layers[layers.len().min(self.cut_layer.saturating_add(1))..];
        let regions: Vec<StartRegion> = match &self.region {
            RegionSpec::Single(region) => vec![region.clone()],
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => envelope
                .shards()
                .iter()
                .map(|shard| {
                    let octagon = shard.octagon();
                    if *use_difference_constraints {
                        StartRegion::Octagon(octagon.clone())
                    } else {
                        StartRegion::Box(octagon.to_box_domain())
                    }
                })
                .collect(),
        };
        check_finite(tail, self.characterizer.network(), &self.risks, &regions)
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        // Risks × (2^subdivision per box root + 1 per octagon root), in
        // checked arithmetic: `None` means it overflowed `u64`.
        let obligations = regions
            .iter()
            .try_fold(0u64, |sum, region| match region {
                StartRegion::Box(_) => 1u64
                    .checked_shl(self.subdivision)
                    .and_then(|leaves| sum.checked_add(leaves)),
                StartRegion::Octagon(_) => sum.checked_add(1),
            })
            .and_then(|per_risk| {
                u64::try_from(self.risks.len())
                    .ok()
                    .and_then(|risks| per_risk.checked_mul(risks))
            });
        if obligations.is_none_or(|count| count > MAX_OBLIGATIONS) {
            return Err(ServeError::InvalidRequest(format!(
                "subdivision {} would decompose {} risk condition(s) over {} region root(s) \
                 into more than {MAX_OBLIGATIONS} proof obligations",
                self.subdivision,
                self.risks.len(),
                regions.len()
            )));
        }
        Ok(())
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
