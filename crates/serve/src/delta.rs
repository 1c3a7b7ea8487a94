//! Delta-verification serving: executing a [`dpv_delta::DeltaPlan`]
//! against the resident server.
//!
//! [`ObligationServer::serve_delta`] takes the *prior* request/report pair
//! and the *new* request (same cut layer, characterizer and risk family —
//! only the perception checkpoint may differ), diffs the two checkpoints
//! ([`dpv_delta::CheckpointDiff`]), plans per-obligation reuse
//! ([`dpv_delta::DeltaPlanner`]) and serves the remainder through the
//! ordinary admission path with the reused verdicts prefilled. The result
//! is a [`ProofDeltaReport`]: a complete [`RequestReport`] plus a
//! machine-checkable [`Disposition`] per obligation stating *why* each
//! verdict holds for the new checkpoint.
//!
//! Soundness and the bit-for-bit parity guarantee (delta verdicts equal a
//! from-scratch run's verdicts) are argued on the
//! [`dpv_delta` crate root](dpv_delta); the `delta` parity proptest in
//! this crate pins them.

use dpv_core::{CoreError, StartRegion, Verdict};
use dpv_delta::{
    CheckpointDiff, DeltaPlanner, Disposition, ModelFingerprint, PlannedAction, PriorObligation,
};

use crate::request::VerificationRequest;
use crate::server::{ObligationServer, RequestReport, ServeError};

/// Summary counts of a [`ProofDeltaReport`], one per [`Disposition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaCounts {
    /// Obligations whose prior verdict carried over verbatim.
    pub reused: usize,
    /// Obligations whose prior `Safe` verdict carried over by absorption.
    pub absorbed: usize,
    /// Obligations re-solved to a definitive verdict.
    pub re_proved: usize,
    /// Obligations that ended `Unknown` in the delta run.
    pub newly_degraded: usize,
}

/// The result of a delta-verification run: the full request report plus a
/// per-obligation provenance trail.
///
/// The `report` is deterministic in the same sense as
/// [`ObligationServer::serve`]'s — and, by the delta soundness argument,
/// bit-for-bit equal to what a from-scratch serve of the same request
/// would produce. The dispositions are the machine-checkable part: an
/// auditor can re-derive every `Reused` stamp from the two checkpoints'
/// fingerprints and every `Absorbed` stamp from the weight-hull interval
/// check, without re-running any solver.
#[derive(Debug, Clone)]
pub struct ProofDeltaReport {
    /// The complete report for the new checkpoint, indistinguishable from
    /// a from-scratch serve.
    pub report: RequestReport,
    /// Why each obligation's verdict holds, in obligation-index order.
    pub dispositions: Vec<Disposition>,
    /// Fingerprint of the prior checkpoint (what `Reused` verdicts were
    /// originally proved against).
    pub prior_fingerprint: ModelFingerprint,
    /// Fingerprint of the new checkpoint this report certifies.
    pub fingerprint: ModelFingerprint,
}

impl ProofDeltaReport {
    /// Disposition tallies.
    pub fn counts(&self) -> DeltaCounts {
        let mut counts = DeltaCounts::default();
        for d in &self.dispositions {
            match d {
                Disposition::Reused { .. } => counts.reused += 1,
                Disposition::Absorbed => counts.absorbed += 1,
                Disposition::ReProved => counts.re_proved += 1,
                Disposition::NewlyDegraded => counts.newly_degraded += 1,
            }
        }
        counts
    }

    /// Fraction of obligations answered without solving (reused or
    /// absorbed), in permille. Zero for an empty report.
    pub fn reuse_rate_permille(&self) -> u64 {
        let total = self.dispositions.len();
        if total == 0 {
            return 0;
        }
        let counts = self.counts();
        (((counts.reused + counts.absorbed) * 1000) / total) as u64
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let c = self.counts();
        format!(
            "delta {} -> {}: {} reused, {} absorbed, {} re-proved, {} degraded | {:.3}s",
            self.prior_fingerprint,
            self.fingerprint,
            c.reused,
            c.absorbed,
            c.re_proved,
            c.newly_degraded,
            self.report.seconds
        )
    }
}

/// Per-obligation coordinates and regions of a request, flattened in
/// obligation-index order.
fn flatten(
    request: &VerificationRequest,
) -> Result<Vec<(usize, usize, usize, StartRegion)>, ServeError> {
    let groups = request.decompose()?;
    let mut out = Vec::new();
    for group in &groups {
        for o in &group.obligations {
            debug_assert_eq!(o.index, out.len(), "decompose assigns indices in order");
            out.push((o.family, o.shard, o.sub_box, o.region.clone()));
        }
    }
    Ok(out)
}

fn inconsistent(msg: impl Into<String>) -> ServeError {
    ServeError::Core(CoreError::Inconsistent(msg.into()))
}

impl ObligationServer {
    /// Serves `request` as a **delta** over a prior run: obligations whose
    /// tail is untouched or whose perturbation is provably absorbed by the
    /// bound slack reuse the prior verdict without solving; the rest go
    /// through the ordinary admission path (dedup cache, batched bounds,
    /// worker pool).
    ///
    /// `prior_request` must be the request that produced `prior`, and
    /// `request` must agree with it on cut layer, characterizer and risk
    /// family — delta-verification is about a *checkpoint* change, not a
    /// specification change. The region spec may differ (a refit envelope
    /// moves shard regions); moved obligations are simply re-solved.
    ///
    /// # Errors
    /// [`ServeError::Core`] when the requests disagree on anything other
    /// than the perception network and regions, when `prior` does not
    /// match `prior_request`'s decomposition, when the two requests
    /// decompose into different obligation shapes, or when decomposition
    /// itself fails; [`ServeError::InvalidRequest`] when
    /// [`VerificationRequest::validate`] rejects `request` or
    /// `prior_request` (checked first, in that order).
    pub fn serve_delta(
        &self,
        prior_request: &VerificationRequest,
        prior: &RequestReport,
        request: &VerificationRequest,
    ) -> Result<ProofDeltaReport, ServeError> {
        request.validate()?;
        prior_request.validate()?;
        if prior_request.cut_layer != request.cut_layer {
            return Err(inconsistent("delta request changes the cut layer"));
        }
        if prior_request.characterizer != request.characterizer {
            return Err(inconsistent("delta request changes the characterizer"));
        }
        if prior_request.risks != request.risks {
            return Err(inconsistent("delta request changes the risk family"));
        }

        let prior_shape = flatten(prior_request)?;
        let new_shape = flatten(request)?;
        if prior_shape.len() != prior.obligations.len() {
            return Err(inconsistent(format!(
                "prior report has {} obligations but its request decomposes into {}",
                prior.obligations.len(),
                prior_shape.len()
            )));
        }
        for (o, (family, shard, sub_box, _)) in prior.obligations.iter().zip(&prior_shape) {
            if (o.family, o.shard, o.sub_box) != (*family, *shard, *sub_box) {
                return Err(inconsistent(format!(
                    "prior report obligation {} does not match its request's decomposition",
                    o.index
                )));
            }
        }
        if new_shape.len() != prior_shape.len() {
            return Err(inconsistent(format!(
                "delta request decomposes into {} obligations, prior into {}",
                new_shape.len(),
                prior_shape.len()
            )));
        }
        for (index, (a, b)) in prior_shape.iter().zip(&new_shape).enumerate() {
            if (a.0, a.1, a.2) != (b.0, b.1, b.2) {
                return Err(inconsistent(format!(
                    "obligation {index} changes coordinates across the delta"
                )));
            }
        }

        let diff = CheckpointDiff::between(&prior_request.perception, &request.perception);
        let prior_obligations: Vec<PriorObligation> = prior
            .obligations
            .iter()
            .zip(&prior_shape)
            .map(|(o, (family, _, _, region))| PriorObligation {
                family: *family,
                region: region.clone(),
                verdict: o.verdict.clone(),
            })
            .collect();
        let regions: Vec<StartRegion> = new_shape.into_iter().map(|(_, _, _, r)| r).collect();
        let plan = DeltaPlanner::new()
            .plan(
                &diff,
                request.cut_layer,
                &request.risks,
                &prior_obligations,
                &regions,
            )
            .map_err(|e| inconsistent(e.to_string()))?;

        let prefill: Vec<(usize, Verdict)> = plan
            .actions()
            .iter()
            .enumerate()
            .filter_map(|(index, action)| match action {
                PlannedAction::Reuse => Some((index, prior_obligations[index].verdict.clone())),
                PlannedAction::ReuseAbsorbed => Some((index, Verdict::Safe)),
                PlannedAction::Resolve => None,
            })
            .collect();

        let report = self.serve_with_prefill(request, &prefill)?;

        let prior_fingerprint = diff.old_fingerprint();
        let dispositions = plan
            .actions()
            .iter()
            .zip(&report.obligations)
            .map(|(action, outcome)| match action {
                // An expired deadline degrades prefilled slots too; a
                // reuse stamp is only honest when the prefilled verdict
                // actually survived into the report.
                PlannedAction::Reuse
                    if outcome.verdict == prior.obligations[outcome.index].verdict =>
                {
                    Disposition::Reused { prior_fingerprint }
                }
                PlannedAction::ReuseAbsorbed if outcome.verdict.is_safe() => Disposition::Absorbed,
                _ => {
                    if matches!(outcome.verdict, Verdict::Unknown(_)) {
                        Disposition::NewlyDegraded
                    } else {
                        Disposition::ReProved
                    }
                }
            })
            .collect();

        Ok(ProofDeltaReport {
            report,
            dispositions,
            prior_fingerprint,
            fingerprint: diff.new_fingerprint(),
        })
    }
}
