//! Request description and its decomposition into proof obligations.

use std::sync::Arc;
use std::time::Duration;

use dpv_absint::BoxDomain;
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

/// One shard of a request's region: its root, which keys the shard's
/// encoding template, and the sub-regions bisected from it. Every risk
/// family of the request shares it.
#[derive(Debug)]
pub(crate) struct Shard {
    /// The shard's root region.
    pub root: StartRegion,
    /// The obligation regions in sub-box order: the `2^subdivision`
    /// bisections of a box root, or an octagon root alone.
    pub sub_regions: Vec<StartRegion>,
}

/// A request decomposed into proof obligations: one verification problem
/// per risk family and one set of shards that every family shares. An
/// obligation is a `(family, shard, sub-box)` triple; obligations are
/// indexed family-major, then by shard, then by sub-box, which is also the
/// fold order.
#[derive(Debug)]
pub(crate) struct Decomposition {
    /// One problem per risk family, in family order.
    pub problems: Vec<Arc<VerificationProblem>>,
    /// The shards, in shard-index order.
    pub shards: Vec<Shard>,
}

impl Decomposition {
    /// The number of obligations.
    pub fn len(&self) -> usize {
        self.obligations().count()
    }

    /// Every obligation in index order: its `(family, shard, sub_box)`
    /// coordinates and its region.
    pub fn obligations(&self) -> impl Iterator<Item = (Coordinates, &StartRegion)> {
        obligations(self.problems.len(), &self.shards)
    }
}

/// An obligation's `(family, shard, sub_box)` position in its request.
pub(crate) type Coordinates = (usize, usize, usize);

/// The obligations of `families` risk families over `shards`, in
/// obligation-index order: coordinates and region.
pub(crate) fn obligations(
    families: usize,
    shards: &[Shard],
) -> impl Iterator<Item = (Coordinates, &StartRegion)> {
    (0..families).flat_map(move |family| {
        shards.iter().enumerate().flat_map(move |(shard, s)| {
            s.sub_regions
                .iter()
                .enumerate()
                .map(move |(sub_box, region)| ((family, shard, sub_box), region))
        })
    })
}

/// Deterministically enumerates the sub-boxes of `root` after `levels`
/// widest-dimension bisections, left child before right child.
fn bisect(root: &BoxDomain, levels: u32, out: &mut Vec<StartRegion>) {
    if levels == 0 {
        out.push(StartRegion::Box(root.clone()));
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
    /// * shard roots, from the enumeration that decomposes the request,
    ///   that fit the cut layer ([`ServeError::Core`], as decomposition
    ///   reports it);
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
    /// [`ServeError::Core`] for roots that do not fit the cut layer,
    /// otherwise [`ServeError::InvalidRequest`] naming the first offending
    /// field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.risks.is_empty() {
            return Err(ServeError::InvalidRequest(
                "a verification request needs at least one risk condition".into(),
            ));
        }
        let roots = self.shard_roots()?;
        let tail = &self.perception.layers()[self.cut_layer + 1..];
        check_finite(tail, self.characterizer.network(), &self.risks, &roots)
            .map_err(|e| ServeError::InvalidRequest(e.to_string()))?;
        // Risks × (2^subdivision per box root + 1 per octagon root), in
        // checked arithmetic: `None` means it overflowed `u64`.
        let obligations = roots
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
                roots.len()
            )));
        }
        Ok(())
    }

    /// The shard roots of the request, in shard-index order, checked
    /// against the cut layer; an envelope maps to them through
    /// [`VerificationProblem::shard_regions`].
    fn shard_roots(&self) -> Result<Vec<StartRegion>, CoreError> {
        let layers = self.perception.len();
        if self.cut_layer >= layers {
            return Err(CoreError::Inconsistent(format!(
                "cut layer {} out of range for a {layers}-layer network",
                self.cut_layer
            )));
        }
        let width = self.perception.layer_output_dim(self.cut_layer);
        match &self.region {
            RegionSpec::Single(region) => {
                if region.dim() != width {
                    return Err(CoreError::Inconsistent(
                        "request region dimension does not match the cut-layer width".into(),
                    ));
                }
                Ok(vec![region.clone()])
            }
            RegionSpec::Sharded {
                envelope,
                use_difference_constraints,
            } => VerificationProblem::shard_regions(
                envelope,
                *use_difference_constraints,
                self.cut_layer,
                width,
            ),
        }
    }

    /// The request's one region enumeration: each shard's checked root and
    /// the sub-regions bisected from it. It builds no
    /// [`VerificationProblem`], so reading a prior request's regions costs
    /// no network copy.
    pub(crate) fn shards(&self) -> Result<Vec<Shard>, CoreError> {
        Ok(self
            .shard_roots()?
            .into_iter()
            .map(|root| {
                let sub_regions = match &root {
                    StartRegion::Box(b) => {
                        let mut leaves = Vec::new();
                        bisect(b, self.subdivision, &mut leaves);
                        leaves
                    }
                    octagon => vec![octagon.clone()],
                };
                Shard { root, sub_regions }
            })
            .collect())
    }

    /// Decomposes the request once: one [`VerificationProblem`] per risk
    /// family, then the shards every family shares (see
    /// [`Decomposition`] for the obligation order).
    pub(crate) fn decompose(&self) -> Result<Decomposition, CoreError> {
        let problems = self
            .risks
            .iter()
            .map(|risk| {
                VerificationProblem::new(
                    self.perception.clone(),
                    self.cut_layer,
                    self.characterizer.clone(),
                    risk.clone(),
                )
                .map(Arc::new)
            })
            .collect::<Result<_, _>>()?;
        Ok(Decomposition {
            problems,
            shards: self.shards()?,
        })
    }
}
