//! The determinism contract of the trace layer: enabling tracing must
//! not change a single verdict, fold order or cached byte. A traced
//! server and an untraced server given identical `(request, plan)`
//! inputs produce bit-identical deterministic report surfaces.

use dpv_absint::BoxDomain;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{
    FaultKind, FaultPlan, ObligationServer, RegionSpec, RequestReport, ServeConfig,
    VerificationRequest,
};
use dpv_trace::{TraceConfig, Tracer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;
/// 2 families × 1 shard × 2^2 sub-boxes.
const OBLIGATIONS: usize = 8;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(23);
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

/// The deterministic surface of a report: per-obligation coordinates
/// and verdicts plus the folded family verdicts. Everything else
/// (timings, stats, timeline) is cost telemetry by contract.
#[allow(clippy::type_complexity)]
fn view(
    report: &RequestReport,
) -> (
    Vec<(usize, usize, usize, usize, Verdict, bool)>,
    Vec<(usize, String, Verdict)>,
) {
    (
        report
            .obligations
            .iter()
            .map(|o| {
                (
                    o.index,
                    o.family,
                    o.shard,
                    o.sub_box,
                    o.verdict.clone(),
                    o.deduped,
                )
            })
            .collect(),
        report
            .verdicts
            .iter()
            .map(|f| (f.family, f.risk.clone(), f.verdict.clone()))
            .collect(),
    )
}

fn serve_on(server: &ObligationServer, plan: &FaultPlan) -> RequestReport {
    server.set_fault_plan(plan.clone());
    server.serve(&base_request()).unwrap()
}

fn kind_of(draw: u8) -> FaultKind {
    match draw {
        0 => FaultKind::ExhaustIterations,
        1 => FaultKind::TransientExhaust,
        2 => FaultKind::PoisonSnapshot,
        _ => FaultKind::Delay { millis: 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Bit-identical deterministic surfaces, traced vs untraced, across
    /// worker counts and fault plans — including the second (warm,
    /// deduped) serve of the same request.
    #[test]
    fn traced_and_untraced_reports_are_bit_identical(
        workers in 1usize..3,
        a in 0usize..OBLIGATIONS,
        ka in 0u8..4,
    ) {
        let mut plan = FaultPlan::new();
        plan.inject(a, kind_of(ka));

        let untraced = ObligationServer::builder().config(ServeConfig::with_workers(workers)).build();
        let traced = ObligationServer::builder()
            .config(ServeConfig::with_workers(workers))
            .tracer(Tracer::with_config(TraceConfig::default()))
            .build();

        let cold_untraced = serve_on(&untraced, &plan);
        let cold_traced = serve_on(&traced, &plan);
        prop_assert_eq!(view(&cold_untraced), view(&cold_traced));
        prop_assert!(cold_untraced.timeline.is_none());
        prop_assert!(cold_traced.timeline.is_some());

        // Second serve: dedup and warm caches now in play on both sides.
        let warm_untraced = serve_on(&untraced, &plan);
        let warm_traced = serve_on(&traced, &plan);
        prop_assert_eq!(view(&warm_untraced), view(&warm_traced));
    }
}

/// A snapshot taken after a served request is enabled and has counted
/// recording operations.
#[test]
fn trace_snapshot_records_a_served_request() {
    let tracer = Tracer::with_config(TraceConfig::default());
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .tracer(tracer)
        .build();
    server.serve(&base_request()).unwrap();

    let snapshot = server.trace_snapshot();
    assert!(snapshot.enabled);
    assert!(snapshot.record_ops > 0);
}

/// The report timeline covers every obligation with a verdict, and the
/// second serve of the same request marks every obligation deduped.
#[test]
fn timelines_cover_the_request() {
    let tracer = Tracer::with_config(TraceConfig::default());
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .tracer(tracer)
        .build();

    let first = server.serve(&base_request()).unwrap();
    let timeline = first.timeline.expect("traced server attaches a timeline");
    assert_eq!(timeline.request, 1, "request tags start at 1");
    assert_eq!(timeline.obligations.len(), OBLIGATIONS);
    assert!(timeline.began_at_ns.is_some());
    assert!(timeline.duration_ns.is_some());
    for obligation in &timeline.obligations {
        assert!(obligation.verdict.is_some(), "every obligation concluded");
        assert!(!obligation.deduped, "cold serve has no dedup hits");
        assert!(obligation.enqueued_at_ns.is_some());
        assert!(obligation.dequeued_at_ns.is_some());
        assert!(
            !obligation.attempts.is_empty(),
            "a solved obligation records at least one attempt span"
        );
    }

    let second = server.serve(&base_request()).unwrap();
    let warm = second.timeline.expect("traced server attaches a timeline");
    assert_eq!(warm.request, 2);
    assert_eq!(warm.obligations.len(), OBLIGATIONS);
    for obligation in &warm.obligations {
        assert!(obligation.deduped, "identical request fully deduped");
        assert!(obligation.attempts.is_empty(), "no solver touched");
    }
}

/// Tracing still holds the determinism contract when the ring buffers
/// are tiny enough to drop events: counters stay exact, timelines stay
/// tolerant, verdicts stay identical.
#[test]
fn overflowing_ring_buffers_degrade_gracefully() {
    let tracer = Tracer::with_config(TraceConfig {
        events_per_buffer: 4,
        ..TraceConfig::default()
    });
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .tracer(tracer)
        .build();
    let untraced = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .build();

    let traced_report = server.serve(&base_request()).unwrap();
    let untraced_report = untraced.serve(&base_request()).unwrap();
    assert_eq!(view(&traced_report), view(&untraced_report));

    let snapshot = server.trace_snapshot();
    assert!(
        snapshot.dropped_events() > 0,
        "4-slot buffers must overflow on {OBLIGATIONS} obligations"
    );
    assert_eq!(
        snapshot.counter("obligations"),
        OBLIGATIONS as u64,
        "counters never drop, only events do"
    );
}
