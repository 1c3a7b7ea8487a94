//! Exact accounting under injected faults: for each [`FaultKind`], the
//! server's [`ServeStats`] counters and the exported trace counters must
//! match the injected fault count exactly — no double counting, no
//! missed events — and the exported solver counters must equal the sum
//! of the reported per-obligation [`SolveStats`].

use std::sync::OnceLock;

use dpv_absint::BoxDomain;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_lp::SolveStats;
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{
    FailureReason, FaultKind, FaultPlan, ObligationServer, RegionSpec, RequestReport, ServeConfig,
    ServeStats, VerificationRequest,
};
use dpv_trace::{TraceConfig, TraceSnapshot, Tracer};
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

/// Serves `request` once on a fresh traced single-worker server
/// (single worker keeps the accounting deterministic: no sibling can
/// race ahead and, say, turn a would-be solve into a dedup hit).
fn serve_traced(
    request: &VerificationRequest,
    plan: FaultPlan,
) -> (RequestReport, ServeStats, TraceSnapshot) {
    let tracer = Tracer::with_config(TraceConfig::default());
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(1))
        .tracer(tracer)
        .build();
    server.set_fault_plan(plan);
    let report = server.serve(request).unwrap();
    let stats = server.stats();
    let snapshot = server.trace_snapshot();
    (report, stats, snapshot)
}

#[test]
fn clean_run_counts_every_obligation_once() {
    let (report, stats, snapshot) = serve_traced(&base_request(), FaultPlan::new());
    assert_eq!(report.obligations.len(), OBLIGATIONS);
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.obligations, OBLIGATIONS as u64);
    assert_eq!(stats.solved, OBLIGATIONS as u64);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.quarantined, 0);
    assert_eq!(stats.deadline_skipped, 0);
    assert_eq!(snapshot.counter("requests"), 1);
    assert_eq!(snapshot.counter("obligations"), OBLIGATIONS as u64);
    assert_eq!(snapshot.counter("worker-panics"), 0);
    assert_eq!(snapshot.counter("quarantined"), 0);
    assert_eq!(snapshot.counter("deadline-skipped"), 0);
    // One Verdict event per solved obligation reached the ring buffers.
    let verdicts = snapshot
        .events()
        .filter(|e| e.kind == dpv_trace::EventKind::Verdict)
        .count();
    assert_eq!(verdicts, OBLIGATIONS);
}

#[test]
fn one_panic_counts_two_attempts_and_one_quarantine() {
    let mut plan = FaultPlan::new();
    plan.inject(3, FaultKind::Panic);
    let (report, stats, snapshot) = serve_traced(&base_request(), plan);

    assert_eq!(
        FailureReason::of(&report.obligations[3].verdict),
        Some(FailureReason::WorkerPanic)
    );
    assert_eq!(stats.worker_panics, 2, "original attempt plus one retry");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.retries, 0, "a panic is not a budget exhaustion");
    assert_eq!(snapshot.counter("worker-panics"), 2);
    assert_eq!(snapshot.counter("quarantined"), 1);
    assert_eq!(snapshot.counter("degraded-worker-panic"), 1);
    assert_eq!(snapshot.counter("retries"), 0);
}

#[test]
fn persistent_exhaustion_counts_one_unrescued_retry() {
    let mut plan = FaultPlan::new();
    plan.inject(2, FaultKind::ExhaustIterations);
    let (report, stats, snapshot) = serve_traced(&base_request(), plan);

    assert_eq!(
        FailureReason::of(&report.obligations[2].verdict),
        Some(FailureReason::IterationLimit)
    );
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.retry_successes, 0);
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(snapshot.counter("retries"), 1);
    assert_eq!(snapshot.counter("retry-successes"), 0);
    assert_eq!(snapshot.counter("degraded-iteration-limit"), 1);
    assert_eq!(snapshot.counter("degraded-worker-panic"), 0);
}

#[test]
fn transient_exhaustion_counts_one_rescued_retry() {
    let mut plan = FaultPlan::new();
    plan.inject(5, FaultKind::TransientExhaust);
    let (report, stats, snapshot) = serve_traced(&base_request(), plan);

    assert_eq!(
        report.obligations[5].verdict,
        reference_verdicts()[5],
        "a rescued retry reproduces the canonical verdict"
    );
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.retry_successes, 1);
    assert_eq!(snapshot.counter("retries"), 1);
    assert_eq!(snapshot.counter("retry-successes"), 1);
    assert_eq!(snapshot.counter("degraded-iteration-limit"), 0);
    // Exactly one escalated-retry span was recorded.
    let retries = snapshot
        .events()
        .filter(|e| e.kind == dpv_trace::EventKind::EscalatedRetry)
        .count();
    assert_eq!(retries, 1);
}

/// Solver work reaches the counters through one path: the `SolveStats`
/// of each solve attempt. The exported `bnb-nodes`, `warm-lp-solves`,
/// `cold-lp-solves` and `simplex-iterations` are therefore the sums of
/// the report's per-obligation statistics, on a clean run and under a
/// transient exhaustion, whose injected first attempt runs no solver and
/// whose escalated retry reports the obligation's statistics.
#[test]
fn solver_counters_sum_the_reported_solve_stats() {
    // Thresholds inside the outputs' range make some searches branch, so
    // every counter, warm LP solves included, counts something.
    let mut request = base_request();
    request.risks = vec![
        RiskCondition::new("near-0").output_ge(0, 0.25),
        RiskCondition::new("near-1").output_ge(1, 0.25),
    ];
    let mut transient = FaultPlan::new();
    transient.inject(5, FaultKind::TransientExhaust);
    for (plan, retries) in [(FaultPlan::new(), 0), (transient, 1)] {
        let (report, stats, snapshot) = serve_traced(&request, plan);
        assert_eq!(stats.retries, retries);
        let total = report
            .obligations
            .iter()
            .fold(SolveStats::default(), |total, o| total + o.stats);
        for (counter, reported) in [
            ("bnb-nodes", total.nodes_explored),
            ("warm-lp-solves", total.warm_solves),
            ("cold-lp-solves", total.cold_solves),
            ("simplex-iterations", total.simplex_iterations),
        ] {
            assert!(reported > 0, "{counter}: {total:?}");
            assert_eq!(snapshot.counter(counter), reported as u64, "{counter}");
        }
    }
}

#[test]
fn expired_deadline_counts_every_obligation_as_skipped() {
    let tracer = Tracer::with_config(TraceConfig::default());
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(1))
        .tracer(tracer)
        .build();
    let mut request = base_request();
    request.deadline = Some(std::time::Duration::ZERO);
    let report = server.serve(&request).unwrap();
    assert_eq!(report.obligations.len(), OBLIGATIONS);
    assert!(
        report.timeline.is_none(),
        "the fast path records no timeline"
    );

    let stats = server.stats();
    assert_eq!(stats.deadline_skipped, OBLIGATIONS as u64);
    assert_eq!(stats.solved, 0);
    let snapshot = server.trace_snapshot();
    assert_eq!(snapshot.counter("deadline-skipped"), OBLIGATIONS as u64);
    assert_eq!(
        snapshot.counter("degraded-deadline-exceeded"),
        OBLIGATIONS as u64
    );
    assert_eq!(snapshot.counter("requests"), 1);
}
