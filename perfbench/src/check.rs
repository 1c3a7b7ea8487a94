//! The per-request correctness check.
//!
//! Every obligation's verdict class must equal the reference class of its
//! family (see [`crate::gen`]), and every `Unsafe` counterexample is
//! re-executed concretely: it must lie in its sub-box, its tail output
//! must satisfy the risk, and the characterizer must fire on it.

use dpv_absint::AbstractDomain;
use dpv_core::Verdict;
use dpv_serve::{RequestReport, VerificationRequest};

use crate::gen::{self, Spec, OBLIGATIONS, SUB_BOXES};

/// Tolerance of the concrete re-execution (containment, risk, logit).
pub const CEX_TOL: f64 = 1e-6;

/// Checks one report against the reference for the request it answers.
///
/// # Errors
/// A description of the first obligation that fails.
pub fn check_report(
    spec: &Spec,
    request: &VerificationRequest,
    report: &RequestReport,
) -> Result<(), String> {
    if report.obligations.len() != OBLIGATIONS {
        return Err(format!(
            "{} obligations, expected {OBLIGATIONS}",
            report.obligations.len()
        ));
    }
    let tail = gen::tail(&request.perception);
    for (index, o) in report.obligations.iter().enumerate() {
        if o.index != index || o.family * SUB_BOXES + o.sub_box != index {
            return Err(format!("obligation {index} reports coordinates {o:?}"));
        }
        if !spec.expected(o.family, &o.verdict) {
            let class = match &o.verdict {
                Verdict::Safe => "Safe".to_string(),
                Verdict::Unsafe(_) => "Unsafe".to_string(),
                Verdict::Unknown(why) => format!("Unknown({why})"),
            };
            return Err(format!(
                "obligation {index} (family {}, sub-box {}): {class} does not match the reference",
                o.family, o.sub_box
            ));
        }
        if let Verdict::Unsafe(cex) = &o.verdict {
            let activation = cex.activation.as_slice();
            if !spec.sub_boxes[o.sub_box].box_contains(activation, CEX_TOL) {
                return Err(format!(
                    "obligation {index}: counterexample {activation:?} lies outside sub-box {}",
                    o.sub_box
                ));
            }
            let output = tail.forward(&cex.activation);
            if !request.risks[o.family].is_satisfied(&output, CEX_TOL) {
                return Err(format!(
                    "obligation {index}: counterexample output {:?} misses the risk",
                    output.as_slice()
                ));
            }
            if spec.characterizer.logit(&cex.activation) < -CEX_TOL {
                return Err(format!(
                    "obligation {index}: the characterizer does not fire on the counterexample"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpv_serve::{ObligationServer, ServeConfig};

    #[test]
    fn check_rejects_a_flipped_class_and_a_moved_counterexample() {
        let spec = Spec::generate(1, 1).unwrap();
        let request = spec.cold_stream(1).remove(0);
        let server = ObligationServer::builder()
            .config(ServeConfig::with_workers(1))
            .build();
        let report = server.serve(&request).unwrap();
        check_report(&spec, &request, &report).unwrap();

        let safe = report
            .obligations
            .iter()
            .position(|o| o.verdict.is_safe())
            .unwrap();
        let unsafe_ = report
            .obligations
            .iter()
            .position(|o| o.verdict.is_unsafe())
            .unwrap();

        let mut flipped = report.clone();
        flipped.obligations[unsafe_].verdict = Verdict::Safe;
        assert!(check_report(&spec, &request, &flipped).is_err());

        let mut flipped = report.clone();
        flipped.obligations[safe].verdict = report.obligations[unsafe_].verdict.clone();
        assert!(check_report(&spec, &request, &flipped).is_err());

        let mut unknown = report.clone();
        unknown.obligations[safe].verdict = Verdict::Unknown("node-limit".into());
        assert!(check_report(&spec, &request, &unknown).is_err());

        let mut moved = report.clone();
        let hi = spec.sub_boxes[report.obligations[unsafe_].sub_box].bounds()[0].hi;
        let Verdict::Unsafe(cex) = &mut moved.obligations[unsafe_].verdict else {
            unreachable!()
        };
        cex.activation[0] = hi + 10.0 * CEX_TOL;
        let err = check_report(&spec, &request, &moved).unwrap_err();
        assert!(err.contains("outside sub-box"), "{err}");
    }
}
