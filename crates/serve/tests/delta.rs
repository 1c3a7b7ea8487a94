//! The delta-verification soundness contract: `serve_delta`'s verdicts
//! are **bit-for-bit equal** to a from-scratch serve of the same request
//! on a cold server, across perturbation kinds, seeds and worker counts —
//! reuse and absorption never change an answer, only skip work.

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_delta::{Disposition, ModelFingerprint};
use dpv_nn::{network_from_text, network_to_text, Activation, Layer, Network, NetworkBuilder};
use dpv_serve::{
    ObligationServer, ProofDeltaReport, RegionSpec, RequestReport, ServeConfig, ServeError,
    VerificationRequest,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;
/// 2 families × 1 shard × 2^2 sub-boxes.
const OBLIGATIONS: usize = 8;

fn perception(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    NetworkBuilder::new(3)
        .dense(6, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(23 ^ 0xc4a2);
    let head = NetworkBuilder::new(CUT_WIDTH)
        .dense(3, &mut rng)
        .activation(Activation::ReLU)
        .dense(1, &mut rng)
        .build();
    Characterizer::from_network(
        InputProperty::new("p", "synthetic property"),
        CUT,
        head,
        0.9,
    )
    .unwrap()
}

fn request_for(perception: Network) -> VerificationRequest {
    VerificationRequest {
        perception,
        cut_layer: CUT,
        characterizer: characterizer(),
        risks: vec![
            RiskCondition::new("unreachable").output_ge(0, 500.0),
            RiskCondition::new("reachable").output_ge(0, -500.0),
        ],
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0))),
        subdivision: 2,
        deadline: None,
    }
}

/// How a retrain perturbs the prior checkpoint.
#[derive(Debug, Clone, Copy)]
enum Retrain {
    /// Head-only update: every tail digest is unchanged.
    Head,
    /// Tiny tail update, absorbable for the unreachable family.
    TailSmall,
    /// Huge tail update, nothing absorbs.
    TailLarge,
}

fn retrain(prior: &Network, kind: Retrain) -> Network {
    let mut next = prior.clone();
    let (layer, eps) = match kind {
        Retrain::Head => (0, 0.05),
        Retrain::TailSmall => (4, 1e-7),
        Retrain::TailLarge => (4, 1000.0),
    };
    let Layer::Dense(d) = &mut next.layers_mut()[layer] else {
        panic!("layer {layer} is dense by construction");
    };
    for r in 0..d.output_dim() {
        for c in 0..d.input_dim() {
            d.weights_mut()[(r, c)] += eps * (1.0 + (r + c) as f64 * 0.1);
        }
    }
    next
}

/// The deterministic surface of a report: per-obligation coordinates and
/// verdicts plus the folded family verdicts. `deduped`, timings and stats
/// are cost telemetry and legitimately differ between a warm delta serve
/// and a cold scratch serve.
#[allow(clippy::type_complexity)]
fn view(
    report: &RequestReport,
) -> (
    Vec<(usize, usize, usize, usize, Verdict)>,
    Vec<(usize, String, Verdict)>,
) {
    (
        report
            .obligations
            .iter()
            .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
            .collect(),
        report
            .verdicts
            .iter()
            .map(|f| (f.family, f.risk.clone(), f.verdict.clone()))
            .collect(),
    )
}

fn delta_run(workers: usize, seed: u64, kind: Retrain) -> (ProofDeltaReport, RequestReport) {
    let old_net = perception(seed);
    let new_net = retrain(&old_net, kind);
    let prior_request = request_for(old_net);
    let new_request = request_for(new_net.clone());

    let resident = ObligationServer::builder()
        .config(ServeConfig::with_workers(workers))
        .build();
    let prior = resident.serve(&prior_request).expect("prior serve");
    let delta = resident
        .serve_delta(&prior_request, &prior, &new_request)
        .expect("delta serve");

    let cold = ObligationServer::builder()
        .config(ServeConfig::with_workers(workers))
        .build();
    let scratch = cold.serve(&new_request).expect("scratch serve");
    (delta, scratch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole soundness property: for every perturbation kind, seed
    /// and worker count, the delta report's deterministic surface equals a
    /// cold from-scratch serve's bit-for-bit.
    #[test]
    fn delta_verdicts_equal_scratch_verdicts_bit_for_bit(
        workers in 1usize..3,
        seed in 0u64..200,
        kind_draw in 0u8..3,
    ) {
        let kind = match kind_draw {
            0 => Retrain::Head,
            1 => Retrain::TailSmall,
            _ => Retrain::TailLarge,
        };
        let (delta, scratch) = delta_run(workers, seed, kind);
        prop_assert_eq!(view(&delta.report), view(&scratch));
        prop_assert_eq!(delta.dispositions.len(), OBLIGATIONS);
    }
}

#[test]
fn head_only_retrain_reuses_every_obligation() {
    let (delta, scratch) = delta_run(2, 23, Retrain::Head);
    assert_eq!(view(&delta.report), view(&scratch));
    let old_fp = ModelFingerprint::of(&perception(23));
    assert_eq!(delta.prior_fingerprint, old_fp);
    assert_ne!(delta.fingerprint, old_fp);
    let counts = delta.counts();
    assert_eq!(counts.reused, OBLIGATIONS, "tail untouched: all reuse");
    assert_eq!(delta.reuse_rate_permille(), 1000);
    for d in &delta.dispositions {
        assert_eq!(
            *d,
            Disposition::Reused {
                prior_fingerprint: old_fp
            }
        );
    }
    // Reused verdicts never touched the solver: no obligation of the
    // delta run was re-solved.
    assert!(delta.report.obligations.iter().all(|o| o.solve_ns == 0));
}

#[test]
fn small_tail_retrain_absorbs_the_safe_family_and_reproves_the_rest() {
    let (delta, scratch) = delta_run(2, 23, Retrain::TailSmall);
    assert_eq!(view(&delta.report), view(&scratch));
    let counts = delta.counts();
    // Family 0 ("unreachable", prior Safe) absorbs under the weight hull;
    // family 1 ("reachable") re-proves its counterexamples.
    assert_eq!(counts.absorbed, OBLIGATIONS / 2);
    assert_eq!(counts.re_proved, OBLIGATIONS / 2);
    assert_eq!(counts.newly_degraded, 0);
    assert_eq!(delta.reuse_rate_permille(), 500);
    for (o, d) in delta.report.obligations.iter().zip(&delta.dispositions) {
        match o.family {
            0 => assert_eq!(*d, Disposition::Absorbed),
            _ => assert_eq!(*d, Disposition::ReProved),
        }
    }
}

#[test]
fn large_tail_retrain_reproves_everything() {
    let (delta, scratch) = delta_run(1, 23, Retrain::TailLarge);
    assert_eq!(view(&delta.report), view(&scratch));
    let counts = delta.counts();
    assert_eq!(counts.reused, 0);
    assert_eq!(counts.absorbed, 0);
    assert_eq!(counts.re_proved, OBLIGATIONS);
    assert_eq!(delta.reuse_rate_permille(), 0);
}

#[test]
fn specification_changes_are_rejected() {
    let server = ObligationServer::builder().build();
    let prior_request = request_for(perception(23));
    let prior = server.serve(&prior_request).expect("prior serve");

    let mut cut_changed = request_for(perception(23));
    cut_changed.cut_layer = 0;
    assert!(server
        .serve_delta(&prior_request, &prior, &cut_changed)
        .is_err());

    let mut risks_changed = request_for(perception(23));
    risks_changed.risks.pop();
    assert!(server
        .serve_delta(&prior_request, &prior, &risks_changed)
        .is_err());

    let mut shape_changed = request_for(perception(23));
    shape_changed.subdivision = 1;
    assert!(server
        .serve_delta(&prior_request, &prior, &shape_changed)
        .is_err());
}

#[test]
fn a_malformed_prior_request_is_rejected() {
    let server = ObligationServer::builder().build();
    let prior_request = request_for(perception(23));
    let prior = server.serve(&prior_request).expect("prior serve");
    let mut bounds = vec![Interval { lo: -1.0, hi: 1.0 }; CUT_WIDTH];
    bounds[0].hi = f64::NAN;
    let malformed_prior = VerificationRequest {
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::from_intervals(bounds))),
        subdivision: 1,
        ..request_for(perception(23))
    };
    assert!(matches!(
        server.serve_delta(&malformed_prior, &prior, &prior_request),
        Err(ServeError::InvalidRequest(_))
    ));
}

/// Satellite: fingerprints are a function of the network's *content*, so
/// a serde round trip through the plain-text model format — the way a
/// checkpoint actually travels between trainer and verifier — preserves
/// them exactly, layer by layer.
#[test]
fn fingerprints_survive_text_serde_round_trips() {
    for kind in [Retrain::Head, Retrain::TailSmall, Retrain::TailLarge] {
        let net = retrain(&perception(23), kind);
        let restored = network_from_text(&network_to_text(&net)).expect("round trip");
        assert_eq!(
            ModelFingerprint::of(&net),
            ModelFingerprint::of(&restored),
            "fingerprint drifted across text serde ({kind:?})"
        );
        assert_eq!(
            dpv_delta::layer_digests(&net),
            dpv_delta::layer_digests(&restored)
        );
    }
}
