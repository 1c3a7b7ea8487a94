//! Fault-tolerance behaviour of the resident obligation server: deadline
//! semantics, panic isolation and quarantine, escalated retries, and the
//! deterministic fault-injection contract — reports are pure functions of
//! `(request, plan)`, and obligations a plan does not touch are
//! bit-identical to the fault-free run.

use std::sync::OnceLock;
use std::time::Duration;

use dpv_absint::BoxDomain;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{
    FailureReason, FaultKind, FaultPlan, ObligationServer, RegionSpec, RequestReport, ServeConfig,
    VerificationRequest,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;
/// 2 families × 1 shard × 2^2 sub-boxes.
const OBLIGATIONS: usize = 8;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(11);
    NetworkBuilder::new(3)
        .dense(6, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(11 ^ 0xc4a2);
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

/// One provably-safe and one trivially-reachable risk condition, so the
/// fixture exercises both the Safe and Unsafe (counterexample) paths.
fn base_request() -> VerificationRequest {
    VerificationRequest {
        perception: perception(),
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

/// The canonical fault-free verdicts, solved once on a pristine server.
fn reference_verdicts() -> &'static [Verdict] {
    static REFERENCE: OnceLock<Vec<Verdict>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let server = ObligationServer::builder()
            .config(ServeConfig::with_workers(2))
            .build();
        let report = server.serve(&base_request()).unwrap();
        assert_eq!(report.obligations.len(), OBLIGATIONS);
        report
            .obligations
            .iter()
            .map(|o| o.verdict.clone())
            .collect()
    })
}

/// Serves the base request on a fresh server carrying `plan`.
fn serve_with_plan(plan: &FaultPlan) -> RequestReport {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();
    server.set_fault_plan(plan.clone());
    server.serve(&base_request()).unwrap()
}

/// The deterministic surface of a report.
fn view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, Verdict)> {
    report
        .obligations
        .iter()
        .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
        .collect()
}

fn kind_of(draw: u8) -> FaultKind {
    match draw {
        0 => FaultKind::ExhaustIterations,
        1 => FaultKind::TransientExhaust,
        2 => FaultKind::Panic,
        _ => FaultKind::Delay { millis: 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The fault-isolation contract: a report is a pure function of
    /// `(request, plan)`; healthy obligations are bit-identical to the
    /// fault-free run; each faulted obligation carries exactly its
    /// fault's expected outcome (recovered faults reproduce the
    /// reference verdict, persistent exhaustion and a panic their stable
    /// codes).
    #[test]
    fn faults_are_isolated_and_reports_are_deterministic(
        a in 0usize..OBLIGATIONS,
        b in 0usize..OBLIGATIONS,
        ka in 0u8..4,
        kb in 0u8..4,
    ) {
        let mut plan = FaultPlan::new();
        plan.inject(a, kind_of(ka));
        plan.inject(b, kind_of(kb));

        let first = serve_with_plan(&plan);
        let second = serve_with_plan(&plan);
        prop_assert_eq!(view(&first), view(&second));

        let reference = reference_verdicts();
        for outcome in &first.obligations {
            match plan.fault_at(outcome.index) {
                None | Some(FaultKind::TransientExhaust | FaultKind::Delay { .. }) => {
                    prop_assert_eq!(&outcome.verdict, &reference[outcome.index]);
                }
                Some(FaultKind::ExhaustIterations) => {
                    prop_assert_eq!(
                        FailureReason::of(&outcome.verdict),
                        Some(FailureReason::IterationLimit)
                    );
                }
                Some(FaultKind::Panic) => {
                    prop_assert_eq!(
                        FailureReason::of(&outcome.verdict),
                        Some(FailureReason::WorkerPanic)
                    );
                }
            }
        }
    }
}

#[test]
fn expired_deadline_degrades_the_whole_request_without_solving() {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();
    let mut request = base_request();
    request.deadline = Some(Duration::ZERO);
    let report = server.serve(&request).unwrap();

    assert_eq!(report.obligations.len(), OBLIGATIONS);
    for (position, outcome) in report.obligations.iter().enumerate() {
        assert_eq!(outcome.index, position, "report is complete and dense");
        assert_eq!(
            FailureReason::of(&outcome.verdict),
            Some(FailureReason::DeadlineExceeded)
        );
        assert!(!outcome.deduped);
        assert_eq!(outcome.solve_ns, 0);
    }
    assert!(report
        .verdicts
        .iter()
        .all(|family| matches!(family.verdict, Verdict::Unknown(_))));

    let stats = server.stats();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.obligations, OBLIGATIONS as u64);
    assert_eq!(stats.solved, 0, "zero solver invocations");
    assert_eq!(stats.deadline_skipped, OBLIGATIONS as u64);
}

#[test]
fn mid_flight_expiry_completes_the_report_without_losing_verdicts() {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(1))
        .build();
    let mut plan = FaultPlan::new();
    plan.inject(0, FaultKind::Delay { millis: 40 });
    server.set_fault_plan(plan);
    let mut request = base_request();
    request.deadline = Some(Duration::from_millis(10));
    let report = server.serve(&request).unwrap();

    let reference = reference_verdicts();
    assert_eq!(report.obligations.len(), OBLIGATIONS);
    let mut expired = 0usize;
    for outcome in &report.obligations {
        if FailureReason::of(&outcome.verdict) == Some(FailureReason::DeadlineExceeded) {
            expired += 1;
        } else {
            // Anything the pool managed to solve before expiry keeps its
            // canonical verdict — computed results are never discarded.
            assert_eq!(outcome.verdict, reference[outcome.index]);
        }
    }
    assert!(
        expired >= 1,
        "the delayed obligation must blow the deadline"
    );
    assert!(server.stats().deadline_skipped >= 1);
}

#[test]
fn panicking_obligation_is_quarantined_and_siblings_complete() {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();
    let mut plan = FaultPlan::new();
    plan.inject(3, FaultKind::Panic);
    server.set_fault_plan(plan);
    let request = base_request();
    let report = server.serve(&request).unwrap();

    let reference = reference_verdicts();
    for outcome in &report.obligations {
        if outcome.index == 3 {
            assert_eq!(
                FailureReason::of(&outcome.verdict),
                Some(FailureReason::WorkerPanic)
            );
        } else {
            assert_eq!(outcome.verdict, reference[outcome.index]);
        }
    }
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 2, "original attempt plus one retry");
    assert_eq!(stats.quarantined, 1);

    // The worker thread survived: the same server answers a follow-up
    // request, and the quarantined obligation — never cached — now
    // solves cleanly.
    server.set_fault_plan(FaultPlan::new());
    let healthy = server.serve(&request).unwrap();
    for outcome in &healthy.obligations {
        assert_eq!(outcome.verdict, reference[outcome.index]);
    }
    assert!(
        !healthy.obligations[3].deduped,
        "degraded outcomes must never enter the dedup cache"
    );
    assert!(
        healthy.obligations[0].deduped,
        "healthy siblings were cached"
    );
}

#[test]
fn transient_exhaustion_is_rescued_by_the_escalated_retry() {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();
    let mut plan = FaultPlan::new();
    plan.inject(5, FaultKind::TransientExhaust);
    server.set_fault_plan(plan);
    let report = server.serve(&base_request()).unwrap();

    let reference = reference_verdicts();
    for outcome in &report.obligations {
        assert_eq!(
            outcome.verdict, reference[outcome.index],
            "a rescued retry is bit-identical to the fault-free verdict"
        );
    }
    let stats = server.stats();
    assert!(stats.retries >= 1);
    assert!(stats.retry_successes >= 1);
}

#[test]
fn persistent_exhaustion_degrades_and_is_never_cached() {
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();
    let mut plan = FaultPlan::new();
    plan.inject(2, FaultKind::ExhaustIterations);
    server.set_fault_plan(plan);
    let request = base_request();
    let report = server.serve(&request).unwrap();

    let reference = reference_verdicts();
    for outcome in &report.obligations {
        if outcome.index == 2 {
            assert_eq!(
                FailureReason::of(&outcome.verdict),
                Some(FailureReason::IterationLimit)
            );
        } else {
            assert_eq!(outcome.verdict, reference[outcome.index]);
        }
    }
    let stats = server.stats();
    assert!(
        stats.retries >= 1,
        "exhaustion triggers the escalated retry"
    );
    assert_eq!(
        stats.retry_successes, 0,
        "a persistent fault is not rescued"
    );

    server.set_fault_plan(FaultPlan::new());
    let healthy = server.serve(&request).unwrap();
    assert_eq!(healthy.obligations[2].verdict, reference[2]);
    assert!(
        !healthy.obligations[2].deduped,
        "the degraded verdict must not have been cached"
    );
}

#[test]
fn seeded_fault_plans_give_reproducible_reports() {
    let plan = FaultPlan::from_seed(0xfa01, OBLIGATIONS, 2);
    // from_seed may draw Panic faults; both runs see the identical plan,
    // so the reports must still agree verbatim.
    let first = serve_with_plan(&plan);
    let second = serve_with_plan(&plan);
    assert_eq!(view(&first), view(&second));

    let reference = reference_verdicts();
    for outcome in &first.obligations {
        if plan.fault_at(outcome.index).is_none() {
            assert_eq!(outcome.verdict, reference[outcome.index]);
        }
    }
}
