//! End-to-end behaviour of the resident obligation server: decomposition
//! order, verdict parity with the direct dpv-core paths, deduplication,
//! backpressure, and determinism across worker counts and cache states.

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{
    Characterizer, InputProperty, RiskCondition, SolveOptions, StartRegion, Verdict,
    VerificationProblem,
};
use dpv_lp::BranchAndBoundBackend;
use dpv_nn::{Activation, Layer, Network, NetworkBuilder};
use dpv_serve::{
    ObligationServer, RegionSpec, RequestReport, ServeConfig, ServeError, VerificationRequest,
};
use dpv_shard::{ShardConfig, ShardedEnvelope};
use dpv_tensor::Vector;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;

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

fn characterizer_network(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2);
    NetworkBuilder::new(CUT_WIDTH)
        .dense(3, &mut rng)
        .activation(Activation::ReLU)
        .dense(1, &mut rng)
        .build()
}

fn characterizer_from(network: Network) -> Characterizer {
    Characterizer::from_network(
        InputProperty::new("p", "synthetic property"),
        CUT,
        network,
        0.9,
    )
    .unwrap()
}

fn characterizer(seed: u64) -> Characterizer {
    characterizer_from(characterizer_network(seed))
}

/// One provably-safe and one trivially-reachable risk condition: the
/// family exercises both the Infeasible→Safe and Optimal→Unsafe paths.
fn risk_family() -> Vec<RiskCondition> {
    vec![
        RiskCondition::new("unreachable").output_ge(0, 500.0),
        RiskCondition::new("reachable").output_ge(0, -500.0),
    ]
}

fn box_request(seed: u64, subdivision: u32) -> VerificationRequest {
    VerificationRequest {
        perception: perception(seed),
        cut_layer: CUT,
        characterizer: characterizer(seed),
        risks: risk_family(),
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0))),
        subdivision,
        deadline: None,
    }
}

/// The deterministic surface of a report: everything except timings and
/// solver statistics.
fn deterministic_view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, Verdict)> {
    report
        .obligations
        .iter()
        .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
        .collect()
}

#[test]
fn decomposition_order_is_family_major_and_indices_are_dense() {
    let server = ObligationServer::builder()
        .config(ServeConfig::default())
        .build();
    let report = server.serve(&box_request(1, 2)).unwrap();
    // 2 families × 1 shard × 2^2 sub-boxes.
    assert_eq!(report.obligations.len(), 8);
    for (position, outcome) in report.obligations.iter().enumerate() {
        assert_eq!(outcome.index, position);
        assert_eq!(outcome.family, position / 4);
        assert_eq!(outcome.shard, 0);
        assert_eq!(outcome.sub_box, position % 4);
    }
    assert_eq!(report.verdicts.len(), 2);
    assert_eq!(report.verdicts[0].risk, "unreachable");
    assert!(report.verdicts[0].verdict.is_safe());
    assert!(report.verdicts[1].verdict.is_unsafe());
}

#[test]
fn served_verdicts_match_the_direct_core_path() {
    // Near thresholds give `Safe` and `Unsafe` siblings in one family.
    let near = VerificationRequest {
        risks: vec![
            RiskCondition::new("near-0.25").output_ge(0, 0.25),
            RiskCondition::new("near-1.0").output_ge(0, 1.0),
        ],
        ..box_request(1, 2)
    };
    let root = BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0);
    let server = ObligationServer::builder()
        .config(ServeConfig::default())
        .build();
    let backend = BranchAndBoundBackend;
    for (request, boxes) in [
        (box_request(2, 1), sub_boxes(&root, 1)),
        (near, sub_boxes(&root, 2)),
    ] {
        let report = server.serve(&request).unwrap();
        // Reference: solve each obligation directly through dpv-core with
        // a fresh template and no reuse state. Its verdict is the canonical
        // one, and its solver statistics are what the obligation costs.
        for outcome in &report.obligations {
            let problem = VerificationProblem::new(
                request.perception.clone(),
                request.cut_layer,
                request.characterizer.clone(),
                request.risks[outcome.family].clone(),
            )
            .unwrap();
            let template = problem
                .encoding_template(&StartRegion::Box(root.clone()))
                .unwrap();
            let sub = StartRegion::Box(boxes[outcome.sub_box].clone());
            let (reference, reference_solution) = problem
                .solve_with_template(&template, &sub, &mut SolveOptions::new().backend(&backend))
                .unwrap();
            assert_eq!(
                outcome.verdict, reference,
                "obligation {} diverged from the direct path",
                outcome.index
            );
            assert_eq!(
                outcome.stats, reference_solution.stats,
                "obligation {} cost differs from the direct path",
                outcome.index
            );
        }
    }
}

#[test]
fn identical_request_is_fully_deduplicated_with_identical_verdicts() {
    let request = box_request(3, 2);
    let server = ObligationServer::builder()
        .config(ServeConfig::default())
        .build();
    let cold = server.serve(&request).unwrap();
    let warm = server.serve(&request).unwrap();

    assert!(cold.obligations.iter().all(|o| !o.deduped));
    assert!(warm.obligations.iter().all(|o| o.deduped));
    assert_eq!(deterministic_view(&cold), deterministic_view(&warm));
    assert_eq!(cold.verdicts, warm.verdicts);

    let stats = server.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.obligations, 16);
    assert_eq!(stats.solved, 8);
    assert_eq!(stats.dedup_hits, 8);
    assert_eq!(stats.dedup_rate_permille(), 500);
    // The second request also hit the template cache once per group.
    assert!(stats.templates.hits >= 2);
}

#[test]
fn sharded_requests_agree_with_verify_sharded() {
    let perception = perception(4);
    let mut rng = StdRng::seed_from_u64(40);
    let inputs: Vec<Vector> = (0..60)
        .map(|_| Vector::from_vec((0..3).map(|_| rng.gen_range(0.0..1.0)).collect()))
        .collect();
    let envelope =
        ShardedEnvelope::from_inputs(&perception, CUT, &inputs, 0.05, &ShardConfig::fixed(3))
            .unwrap();

    let request = VerificationRequest {
        perception: perception.clone(),
        cut_layer: CUT,
        characterizer: characterizer(4),
        risks: risk_family(),
        region: RegionSpec::Sharded {
            envelope: envelope.clone(),
            use_difference_constraints: true,
        },
        subdivision: 0,
        deadline: None,
    };
    let server = ObligationServer::builder()
        .config(ServeConfig::default())
        .build();
    let report = server.serve(&request).unwrap();
    assert_eq!(report.obligations.len(), 2 * envelope.shard_count());

    for (family, risk) in request.risks.iter().enumerate() {
        let problem = VerificationProblem::new(
            perception.clone(),
            CUT,
            request.characterizer.clone(),
            risk.clone(),
        )
        .unwrap();
        let direct = problem
            .verify_sharded_with(&envelope, true, &BranchAndBoundBackend)
            .unwrap();
        assert_eq!(
            report.verdicts[family].verdict, direct.verdict,
            "family {family} diverged from verify_sharded"
        );
        for (shard, obligation) in report
            .obligations
            .iter()
            .filter(|o| o.family == family)
            .enumerate()
        {
            assert_eq!(obligation.verdict, direct.shards[shard].verdict);
        }
    }
}

#[test]
fn backpressure_bounds_the_obligations_in_flight() {
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = ObligationServer::builder().config(config).build();
    let report = server.serve(&box_request(5, 3)).unwrap();
    assert_eq!(report.obligations.len(), 16);
    let stats = server.stats();
    assert_eq!(stats.max_queue_depth, 1, "admission exceeded the bound");
    assert_eq!(stats.queue_depth, 0, "the pool drained");
}

#[test]
fn reports_are_deterministic_across_workers_and_cache_state() {
    let request = box_request(6, 2);

    // A deliberately cache-hostile server: no dedup, one worker.
    let bare = ObligationServer::builder()
        .config(ServeConfig {
            workers: 1,
            verdict_capacity: 0,
            ..ServeConfig::default()
        })
        .build();
    // A cache-rich server with racing workers.
    let rich = ObligationServer::builder()
        .config(ServeConfig::with_workers(3))
        .build();

    let reference = bare.serve(&request).unwrap();
    for round in 0..3 {
        let report = rich.serve(&request).unwrap();
        assert_eq!(
            deterministic_view(&reference),
            deterministic_view(&report),
            "round {round} diverged"
        );
        assert_eq!(reference.verdicts, report.verdicts);
    }
    // The bare server saw no dedup; the rich one answered rounds 1-2 from
    // the verdict cache — with verdicts still identical.
    assert_eq!(bare.stats().dedup_hits, 0);
    assert_eq!(rich.stats().dedup_hits, 16);
}

#[test]
fn empty_risk_family_is_rejected() {
    let mut request = box_request(7, 0);
    request.risks.clear();
    let server = ObligationServer::builder()
        .config(ServeConfig::default())
        .build();
    assert!(matches!(
        server.serve(&request),
        Err(ServeError::InvalidRequest(_))
    ));
}

#[test]
fn validate_caps_the_obligation_count() {
    let one_risk = |subdivision| {
        let mut request = box_request(7, subdivision);
        request.risks.truncate(1);
        request
    };
    for subdivision in [17, u32::MAX] {
        match one_risk(subdivision).validate() {
            Err(ServeError::InvalidRequest(why)) => assert!(why.contains("subdivision"), "{why}"),
            other => panic!("subdivision {subdivision} passed validation: {other:?}"),
        }
    }
    assert!(one_risk(16).validate().is_ok());
    // Two risks over one box at 16 levels: 2 · 2^16 obligations.
    assert!(matches!(
        box_request(7, 16).validate(),
        Err(ServeError::InvalidRequest(_))
    ));
}

/// Sets the weight at `entry` of dense `layer` in `network`.
fn set_weight(network: &mut Network, layer: usize, entry: (usize, usize), value: f64) {
    match &mut network.layers_mut()[layer] {
        Layer::Dense(d) => d.weights_mut()[entry] = value,
        other => panic!("layer {layer} is {} by construction", other.describe()),
    }
}

/// Sets bias `entry` of dense `layer` in `network`.
fn set_bias(network: &mut Network, layer: usize, entry: usize, value: f64) {
    match &mut network.layers_mut()[layer] {
        Layer::Dense(d) => d.bias_mut()[entry] = value,
        other => panic!("layer {layer} is {} by construction", other.describe()),
    }
}

#[test]
fn malformed_requests_are_rejected_and_the_server_keeps_serving() {
    let valid = box_request(7, 1);
    let reference = ObligationServer::builder().build().serve(&valid).unwrap();
    let tail_weight = |value| {
        let mut request = box_request(7, 1);
        set_weight(&mut request.perception, CUT + 2, (0, 0), value);
        request
    };
    let mut nan_characterizer = characterizer_network(7);
    set_weight(&mut nan_characterizer, 0, (0, 0), f64::NAN);
    let mut nan_threshold = box_request(7, 1);
    nan_threshold.risks[0] = RiskCondition::new("nan").output_ge(0, f64::NAN);
    let region = |lo, hi| VerificationRequest {
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::from_intervals(vec![
            Interval {
                lo,
                hi
            };
            CUT_WIDTH
        ]))),
        ..box_request(7, 1)
    };
    // Finite everywhere, but 1e10 · 1e300 overflows to ±inf during bound
    // propagation and inf − inf is NaN.
    let mut overflowing = region(1e300, 1e300);
    set_weight(&mut overflowing.perception, CUT + 2, (0, 0), 1e10);
    set_weight(&mut overflowing.perception, CUT + 2, (0, 1), -1e10);
    let malformed = [
        ("a NaN tail weight", tail_weight(f64::NAN)),
        ("a +inf tail weight", tail_weight(f64::INFINITY)),
        (
            "a NaN characterizer weight",
            VerificationRequest {
                characterizer: characterizer_from(nan_characterizer),
                ..box_request(7, 1)
            },
        ),
        ("a NaN risk threshold", nan_threshold),
        (
            "an unbounded region",
            region(f64::NEG_INFINITY, f64::INFINITY),
        ),
        ("an inverted region", region(1.0, -1.0)),
        ("an overflowing finite request", overflowing),
    ];

    let server = ObligationServer::builder().build();
    for (case, request) in &malformed {
        assert!(
            matches!(server.serve(request), Err(ServeError::InvalidRequest(_))),
            "serve accepted {case}"
        );
        assert!(
            matches!(
                server.serve_delta(&valid, &reference, request),
                Err(ServeError::InvalidRequest(_))
            ),
            "serve_delta accepted {case}"
        );
    }
    assert_eq!(server.stats().requests, 0, "nothing was admitted");

    // The head is never encoded, so it cannot make a request malformed.
    let mut head_nan = box_request(7, 1);
    set_weight(&mut head_nan.perception, 0, (0, 0), f64::NAN);
    for request in [head_nan, valid] {
        let report = server.serve(&request).unwrap();
        assert_eq!(deterministic_view(&report), deterministic_view(&reference));
    }
}

/// The sub-boxes of `root` in obligation order: `levels` widest-dimension
/// bisections, left child before right child.
fn sub_boxes(root: &BoxDomain, levels: u32) -> Vec<BoxDomain> {
    if levels == 0 {
        return vec![root.clone()];
    }
    let (left, right) = dpv_core::split_box(root);
    let mut boxes = sub_boxes(&left, levels - 1);
    boxes.extend(sub_boxes(&right, levels - 1));
    boxes
}

#[test]
fn unsafe_witnesses_reproduce_under_a_huge_finite_tail_weight() {
    // Finite, so it passes validation, but big enough to swamp the
    // solver's tolerances: the raw witnesses of both families miss the
    // risk once the tail is re-executed.
    let mut request = box_request(7, 1);
    set_weight(&mut request.perception, CUT + 2, (0, 0), 1e12);
    let report = ObligationServer::builder().build().serve(&request).unwrap();
    let (_, tail) = request.perception.split_at(CUT).unwrap();
    for o in &report.obligations {
        if let Verdict::Unsafe(cex) = &o.verdict {
            let output = tail.forward(&cex.activation);
            assert!(
                request.risks[o.family].is_satisfied(&output, 1e-6),
                "obligation {}: witness output {:?} misses the risk",
                o.index,
                output.as_slice()
            );
            assert!(
                request.characterizer.logit(&cex.activation) >= -1e-6,
                "obligation {}: the characterizer does not fire on the witness",
                o.index
            );
        }
    }
}

#[test]
fn unsafe_witnesses_lie_inside_their_obligation_box() {
    let server = ObligationServer::builder().build();
    let root = BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0);
    for seed in 1..=8 {
        for subdivision in 0..=2 {
            let report = server.serve(&box_request(seed, subdivision)).unwrap();
            let boxes = sub_boxes(&root, subdivision);
            for o in &report.obligations {
                if let Verdict::Unsafe(cex) = &o.verdict {
                    assert!(
                        boxes[o.sub_box].box_contains(cex.activation.as_slice(), 0.0),
                        "seed {seed}, subdivision {subdivision}, obligation {}: \
                         witness {:?} leaves its box",
                        o.index,
                        cex.activation.as_slice()
                    );
                }
            }
        }
    }
}

#[test]
fn wide_regions_never_report_safe() {
    // Both families return guard-checked `Unsafe` over [-1e7, 1e7]^4, so a
    // `Safe` verdict over any region containing it is wrong. Wider regions
    // make the LPs badly scaled; they may end `Unsafe` or `Unknown`.
    let server = ObligationServer::builder().build();
    let wide = |w: f64, subdivision| VerificationRequest {
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -w, w))),
        ..box_request(7, subdivision)
    };
    let anchor = server.serve(&wide(1e7, 0)).unwrap();
    assert!(anchor
        .verdicts
        .iter()
        .all(|family| family.verdict.is_unsafe()));
    for w in [1e8, 1e9, 1e12, 1e15] {
        for subdivision in [0, 1] {
            let report = server.serve(&wide(w, subdivision)).unwrap();
            for family in &report.verdicts {
                assert!(
                    !family.verdict.is_safe(),
                    "w = {w:e}, subdivision {subdivision}: `{}` reported Safe",
                    family.risk
                );
            }
        }
    }
    // At w = 1e12 and 1e15 the obligations end `Unknown("iteration-limit")`
    // on a failed result check. The check is deterministic, so none of
    // them is retried.
    assert_eq!(server.stats().retries, 0);
}

/// The values an adversarial edit writes: subnormal, large and huge finite
/// magnitudes. NaN and ±∞ never reach a solver: admission rejects them
/// (`malformed_requests_are_rejected_and_the_server_keeps_serving`).
const EXTREMES: [f64; 10] = [
    1e-310, -1e-310, 1e8, -1e8, 1e12, 1e15, -1e15, 1e100, 1e300, -1e300,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `box_request` at subdivision 2 with 1–3 edits, each writing an
    /// `EXTREMES` value into a tail weight, a tail bias or one bound of the
    /// region. `serve` returns an error or a report. Every `Unsafe` witness
    /// lies in its sub-box and re-executes into its risk and the
    /// characterizer. A family with a witness is never `Safe` over the
    /// whole region (subdivision 0), which contains the witness.
    #[test]
    fn extreme_magnitudes_give_errors_or_guard_checked_witnesses(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut request = box_request(rng.gen_range(1..9), 2);
        let mut bounds = vec![Interval::new(-1.0, 1.0); CUT_WIDTH];
        for _ in 0..rng.gen_range(1..4) {
            let value = EXTREMES[rng.gen_range(0..EXTREMES.len())];
            let output = rng.gen_range(0..2);
            match rng.gen_range(0..3) {
                0 => {
                    let entry = (output, rng.gen_range(0..CUT_WIDTH));
                    set_weight(&mut request.perception, CUT + 2, entry, value);
                }
                1 => set_bias(&mut request.perception, CUT + 2, output, value),
                _ => {
                    let bound = &mut bounds[rng.gen_range(0..CUT_WIDTH)];
                    if rng.gen_range(0..2) == 0 {
                        bound.lo = value;
                    } else {
                        bound.hi = value;
                    }
                }
            }
        }
        let root = BoxDomain::from_intervals(bounds);
        request.region = RegionSpec::Single(StartRegion::Box(root.clone()));

        let server = ObligationServer::builder().build();
        let served = server.serve(&request);
        prop_assume!(served.is_ok(), "rejected at admission");
        let report = served.unwrap();
        let (_, tail) = request.perception.split_at(CUT).unwrap();
        let boxes = sub_boxes(&root, 2);
        let mut witnessed = [false; 2];
        for o in &report.obligations {
            if let Verdict::Unsafe(cex) = &o.verdict {
                let activation = cex.activation.as_slice();
                prop_assert!(
                    boxes[o.sub_box].box_contains(activation, 1e-6),
                    "seed {seed}, obligation {}: witness {activation:?} leaves its box",
                    o.index
                );
                let output = tail.forward(&cex.activation);
                prop_assert!(
                    request.risks[o.family].is_satisfied(&output, 1e-6),
                    "seed {seed}, obligation {}: witness output {:?} misses the risk",
                    o.index,
                    output.as_slice()
                );
                prop_assert!(
                    request.characterizer.logit(&cex.activation) >= -1e-6,
                    "seed {seed}, obligation {}: the characterizer does not fire",
                    o.index
                );
                witnessed[o.family] = true;
            }
        }

        let whole = VerificationRequest {
            subdivision: 0,
            ..request.clone()
        };
        let whole = server.serve(&whole).expect("admitted at subdivision 2");
        for (family, served) in whole.verdicts.iter().enumerate() {
            prop_assert!(
                !(witnessed[family] && served.verdict.is_safe()),
                "seed {seed}: `{}` has a witness at subdivision 2 but is Safe at 0",
                served.risk
            );
        }
    }
}
