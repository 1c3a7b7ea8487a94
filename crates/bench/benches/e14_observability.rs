//! E14: observability economics — tracing must be provably free when
//! off and strictly observational when on.
//!
//! One request (2 families × 2^3 sub-boxes = 16 obligations) is served
//! untraced and traced, cold and warm, on fresh servers:
//!
//! 1. **disabled overhead** — the cost of a recording call through a
//!    *disabled* handle (one branch on an absent `Option`) is measured
//!    directly, multiplied by the number of recording calls a traced
//!    request actually performs (`record_ops`), and expressed as a
//!    permille of the untraced request's wall time. This is the price a
//!    production server pays for carrying the instrumentation unused.
//! 2. **traced parity** — the deterministic report surfaces (verdicts,
//!    fold order, dedup flags) of traced and untraced servers must be
//!    bit-identical, cold and warm.
//!
//! Gated records (tools/benchgate):
//! - `trace/overhead-permille` — disabled-tracing overhead per request,
//!   in permille of the request's wall time (lower is better; the issue
//!   budget is ≤ 20‰, asserted in-bench).
//! - `trace/traced-parity-permille` — 1000 iff every deterministic
//!   surface agrees verbatim (zero-width band at the gate: parity is a
//!   correctness contract, not a performance target).

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dpv_absint::BoxDomain;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion, Verdict};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{ObligationServer, RegionSpec, RequestReport, ServeConfig, VerificationRequest};
use dpv_trace::{EventKind, GaugeId, HistogramId, TraceConfig, TraceEvent, TraceHandle, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 3;
const CUT_WIDTH: usize = 8;
const WORKERS: usize = 2;
/// 2 families × 1 shard × 2^3 sub-boxes.
const OBLIGATIONS: usize = 16;
/// The in-bench ceiling on disabled-tracing overhead (the issue budget).
const OVERHEAD_BUDGET_PERMILLE: u128 = 20;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(0xe14);
    NetworkBuilder::new(4)
        .dense(10, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(0xe14 ^ 0xbeef);
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

/// The deterministic surface of a report.
fn view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, Verdict, bool)> {
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
        .collect()
}

/// Nanoseconds per recording call through a *disabled* handle, measured
/// over a mix of the call kinds the serving stack makes (gauge set,
/// event, histogram observe).
fn disabled_ns_per_op() -> f64 {
    let handle = TraceHandle::disabled();
    const ITERS: u64 = 3_000_000;
    // Warm the branch predictor.
    for i in 0..1000u64 {
        handle.gauge(GaugeId::QueueDepth, black_box(i));
    }
    let t0 = Instant::now();
    for i in 0..ITERS {
        handle.gauge(GaugeId::QueueDepth, black_box(i));
        handle.event(TraceEvent::instant(EventKind::Dequeue, black_box(i), 0));
        handle.observe(HistogramId::SolveNs, black_box(i));
    }
    t0.elapsed().as_nanos() as f64 / (ITERS as f64 * 3.0)
}

fn serve_timed(server: &ObligationServer, req: &VerificationRequest) -> (RequestReport, f64) {
    let t0 = Instant::now();
    let report = server.serve(req).unwrap();
    (report, t0.elapsed().as_secs_f64())
}

fn bench_observability(c: &mut Criterion) {
    let req = request();

    // --- Untraced requests: the production configuration, timed. ---
    let untraced = ObligationServer::builder()
        .config(ServeConfig::with_workers(WORKERS))
        .build();
    let (untraced_cold, cold_s) = serve_timed(&untraced, &req);
    let (untraced_warm, warm_s) = serve_timed(&untraced, &req);
    assert_eq!(untraced_cold.obligations.len(), OBLIGATIONS);
    assert!(untraced_cold.timeline.is_none());

    // --- Traced requests on an identical fresh server. ---
    let traced = ObligationServer::builder()
        .config(ServeConfig::with_workers(WORKERS))
        .tracer(Tracer::with_config(TraceConfig::default()))
        .build();
    let (traced_cold, _) = serve_timed(&traced, &req);
    let ops_cold = traced.trace_snapshot().record_ops;
    let (traced_warm, _) = serve_timed(&traced, &req);
    let ops_warm = traced.trace_snapshot().record_ops - ops_cold;
    assert!(traced_cold.timeline.is_some());

    // --- Parity: bit-identical deterministic surfaces, cold and warm. ---
    let parity = u128::from(
        view(&untraced_cold) == view(&traced_cold) && view(&untraced_warm) == view(&traced_warm),
    );
    criterion::report_metric("trace/traced-parity-permille", parity * 1000);

    // --- Disabled overhead: per-call cost × calls per request, as a
    // permille of the untraced request's wall time. The cold request
    // performs more recording calls (instantiation and solve spans); the
    // warm one is faster, so its denominator is smaller — gate on the
    // worse of the two. ---
    let per_op_ns = disabled_ns_per_op();
    let overhead_cold = (per_op_ns * ops_cold as f64) / (cold_s * 1e9) * 1000.0;
    let overhead_warm = (per_op_ns * ops_warm as f64) / (warm_s * 1e9) * 1000.0;
    let overhead = overhead_cold.max(overhead_warm).ceil() as u128;
    assert!(
        overhead <= OVERHEAD_BUDGET_PERMILLE,
        "disabled tracing must stay under {OVERHEAD_BUDGET_PERMILLE}‰ of request time \
         (measured {overhead}‰: {per_op_ns:.3}ns/op × {ops_cold}/{ops_warm} ops)"
    );
    criterion::report_metric("trace/overhead-permille", overhead);

    println!(
        "e14: {per_op_ns:.3}ns/disabled-op | {ops_cold} cold / {ops_warm} warm record ops | \
         cold {:.3}ms warm {:.3}ms | overhead {overhead}‰ (≤{OVERHEAD_BUDGET_PERMILLE}‰) | \
         parity {}",
        cold_s * 1e3,
        warm_s * 1e3,
        parity * 1000
    );

    // --- Informational latency curves for the artifact. ---
    let mut group = c.benchmark_group("e14");
    group.sample_size(3);
    group.bench_function("request/untraced", |b| {
        b.iter(|| {
            let server = ObligationServer::builder()
                .config(ServeConfig::with_workers(WORKERS))
                .build();
            server.serve(&req).unwrap().obligations.len()
        })
    });
    group.bench_function("request/traced", |b| {
        b.iter(|| {
            let server = ObligationServer::builder()
                .config(ServeConfig::with_workers(WORKERS))
                .tracer(Tracer::with_config(TraceConfig::default()))
                .build();
            server.serve(&req).unwrap().obligations.len()
        })
    });
    group.bench_function("snapshot/export", |b| {
        b.iter(|| traced.trace_snapshot().to_json().len())
    });
    group.finish();
}

criterion_group!(benches, bench_observability);
criterion_main!(benches);
