//! E13: fault-tolerant obligation serving — isolation, degradation and
//! deadline economics.
//!
//! One request (2 families × 2^3 sub-boxes = 16 obligations) is served
//! three ways on fresh servers:
//!
//! 1. **fault-free** — the canonical reference report,
//! 2. **faulted, twice** — under a fixed deterministic `FaultPlan`
//!    (panic, persistent and transient exhaustion, delay), to measure
//!    isolation and run-to-run determinism,
//! 3. **already expired** — with a zero deadline, to measure what an
//!    expired request still costs relative to a full solve.
//!
//! Gated records (tools/benchgate):
//! - `serve/fault-isolation-parity-permille` — 1000 iff the two faulted
//!   runs agree verbatim AND every obligation the plan does not touch is
//!   bit-identical to the fault-free reference (zero-width band at the
//!   gate: isolation is a correctness contract).
//! - `serve/degraded-completion-permille` — fraction of obligations in
//!   the faulted report that are accounted for: either equal to the
//!   reference or carrying a machine-readable `FailureReason` code. A
//!   complete degraded report scores 1000.
//! - `serve/deadline-overrun-permille` — expired-request serve time as a
//!   permille of the full fault-free solve time (lower is better; the
//!   expired fast path must never pay for real solving).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dpv_absint::BoxDomain;
use dpv_bench::permille;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{
    FailureReason, FaultKind, FaultPlan, ObligationServer, RegionSpec, RequestReport, ServeConfig,
    VerificationRequest,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 3;
const CUT_WIDTH: usize = 8;
const WORKERS: usize = 2;
/// 2 families × 1 shard × 2^3 sub-boxes.
const OBLIGATIONS: usize = 16;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(0xe13);
    NetworkBuilder::new(4)
        .dense(10, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(0xe13 ^ 0xbeef);
    let head = NetworkBuilder::new(CUT_WIDTH)
        .dense(4, &mut rng)
        .activation(Activation::ReLU)
        .dense(1, &mut rng)
        .build();
    Characterizer::from_network(
        InputProperty::new(
            "lead-vehicle-visible",
            "synthetic direct-perception property",
        ),
        CUT,
        head,
        0.9,
    )
    .unwrap()
}

fn request() -> VerificationRequest {
    VerificationRequest {
        perception: perception(),
        cut_layer: CUT,
        characterizer: characterizer(),
        risks: vec![
            RiskCondition::new("unreachable").output_ge(0, 400.0),
            RiskCondition::new("reachable").output_ge(0, -400.0),
        ],
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0))),
        subdivision: 3,
        deadline: None,
    }
}

/// The fixed deterministic fault plan: one of each fault kind, spread
/// across both families.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    plan.inject(1, FaultKind::ExhaustIterations);
    plan.inject(3, FaultKind::Panic);
    plan.inject(6, FaultKind::TransientExhaust);
    plan.inject(13, FaultKind::Delay { millis: 1 });
    plan
}

fn serve_config() -> ServeConfig {
    ServeConfig::with_workers(WORKERS)
}

fn serve_with_plan(req: &VerificationRequest, plan: &FaultPlan) -> RequestReport {
    let server = ObligationServer::builder().config(serve_config()).build();
    server.set_fault_plan(plan.clone());
    server.serve(req).unwrap()
}

/// The deterministic surface of a report.
fn view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, Verdict)> {
    report
        .obligations
        .iter()
        .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
        .collect()
}

fn bench_resilience(c: &mut Criterion) {
    // Injected worker panics are caught by the server; silence the
    // default hook so the bench log stays readable.
    std::panic::set_hook(Box::new(|_| {}));

    let req = request();
    let plan = fault_plan();

    // --- Reference: fault-free canonical report, timed for the overrun
    // denominator. ---
    let t0 = Instant::now();
    let reference = {
        let server = ObligationServer::builder().config(serve_config()).build();
        server.serve(&req).unwrap()
    };
    let full_solve_s = t0.elapsed().as_secs_f64();
    assert_eq!(reference.obligations.len(), OBLIGATIONS);
    assert!(reference.verdicts[0].verdict.is_safe());
    assert!(reference.verdicts[1].verdict.is_unsafe());

    // --- Faulted twice on fresh servers: isolation + determinism. ---
    let faulted = serve_with_plan(&req, &plan);
    let repeat = serve_with_plan(&req, &plan);

    let deterministic = view(&faulted) == view(&repeat);
    let healthy_identical = faulted
        .obligations
        .iter()
        .filter(|o| plan.fault_at(o.index).is_none())
        .all(|o| o.verdict == reference.obligations[o.index].verdict);
    let parity = u128::from(deterministic && healthy_identical);
    criterion::report_metric("serve/fault-isolation-parity-permille", parity * 1000);

    // Degraded completion: every obligation of the faulted report must be
    // accounted for — reference-identical or a machine-readable code.
    let accounted = faulted
        .obligations
        .iter()
        .filter(|o| {
            o.verdict == reference.obligations[o.index].verdict
                || FailureReason::of(&o.verdict).is_some()
        })
        .count();
    criterion::report_metric(
        "serve/degraded-completion-permille",
        (accounted * 1000 / OBLIGATIONS) as u128,
    );

    // --- Expired request: what does a zero-deadline serve still cost? ---
    let mut expired_req = request();
    expired_req.deadline = Some(std::time::Duration::ZERO);
    let expired_server = ObligationServer::builder().config(serve_config()).build();
    let t1 = Instant::now();
    let expired = expired_server.serve(&expired_req).unwrap();
    let expired_s = t1.elapsed().as_secs_f64();
    assert_eq!(expired.obligations.len(), OBLIGATIONS);
    assert!(expired
        .obligations
        .iter()
        .all(|o| { FailureReason::of(&o.verdict) == Some(FailureReason::DeadlineExceeded) }));
    assert_eq!(expired_server.stats().solved, 0);
    let overrun = permille(expired_s, full_solve_s);
    criterion::report_metric("serve/deadline-overrun-permille", overrun);

    println!(
        "e13: full {:.3}ms expired {:.3}ms overrun {}/1000 | parity {} | {}/{} accounted",
        full_solve_s * 1e3,
        expired_s * 1e3,
        overrun,
        parity * 1000,
        accounted,
        OBLIGATIONS
    );

    // --- Informational latency curves for the artifact. ---
    let mut group = c.benchmark_group("e13");
    group.sample_size(3);
    group.bench_function("request/fault-free", |b| {
        b.iter(|| {
            let server = ObligationServer::builder().config(serve_config()).build();
            server.serve(&req).unwrap().obligations.len()
        })
    });
    group.bench_function("request/faulted", |b| {
        b.iter(|| serve_with_plan(&req, &plan).obligations.len())
    });
    group.bench_function("request/expired-deadline", |b| {
        b.iter(|| {
            let server = ObligationServer::builder().config(serve_config()).build();
            server.serve(&expired_req).unwrap().obligations.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_resilience);
criterion_main!(benches);
