//! E12: resident obligation server — cross-request cache amortization.
//!
//! A long-lived `ObligationServer` is asked to verify the same tail/risk
//! family three times:
//!
//! 1. a **cold** request (subdivision 4 → 2 families × 16 sub-boxes = 32
//!    obligations) that builds the encoding templates and solves every MILP,
//! 2. an **identical warm repeat** answered entirely from the verdict
//!    deduplication cache, and
//! 3. a **narrower refit** (subdivision 3) that reuses the cached templates
//!    but solves fresh sub-boxes.
//!
//! Gated records (tools/benchgate):
//! - `serve/warm-request-speedup-permille` — cold mean / warm mean, capped at
//!   10000; the gate's absolute floor of 5000 is the "warm is ≥5× cheaper"
//!   contract from the PR.
//! - `serve/dedup-parity-permille` — 1000 iff the warm report's verdicts are
//!   bit-identical to the cold report's (zero-width band at the gate).
//! - `serve/template-hit-rate-permille` and `serve/dedup-rate-permille` —
//!   deterministic cache-economics of the three-request script, gated with
//!   the small absolute slack of the deterministic-rate tolerance class.
//! - `serve/warm-obligations-per-sec-permille` — absolute solver
//!   throughput: obligations × 1000 per second of the wide request on a
//!   2-worker server whose template cache is warm and whose verdict cache
//!   is off, so every obligation is solved. The server is built and warmed
//!   outside the timed loop. The same 10 serves are timed in
//!   [`THROUGHPUT_ROUNDS`] rounds on that server and the record is the
//!   median round's rate: one round is a few milliseconds, so a burst of
//!   host load can slow a round or two but not the median. Gated by the
//!   50% floor of the `-per-sec-` rule.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dpv_absint::BoxDomain;
use dpv_bench::permille;
use dpv_core::{Characterizer, InputProperty, RiskCondition, StartRegion};
use dpv_nn::{Activation, Network, NetworkBuilder};
use dpv_serve::{ObligationServer, RegionSpec, RequestReport, ServeConfig, VerificationRequest};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 3;
const CUT_WIDTH: usize = 8;
const WORKERS: usize = 2;
/// Mean over this many serve() calls for the timed speedup record.
const REPS: usize = 3;
/// Timed serves of the warm request per round of the throughput record.
const THROUGHPUT_SERVES: usize = 10;
/// Rounds of [`THROUGHPUT_SERVES`] serves; the record is the median
/// round's rate.
const THROUGHPUT_ROUNDS: usize = 9;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(0xe12);
    NetworkBuilder::new(4)
        .dense(10, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(0xe12 ^ 0xbeef);
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

fn request(subdivision: u32) -> VerificationRequest {
    VerificationRequest {
        perception: perception(),
        cut_layer: CUT,
        characterizer: characterizer(),
        risks: vec![
            RiskCondition::new("unreachable").output_ge(0, 400.0),
            RiskCondition::new("reachable").output_ge(0, -400.0),
        ],
        region: RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -1.0, 1.0))),
        subdivision,
        deadline: None,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig::with_workers(WORKERS)
}

/// The deterministic surface of a report: verdict content only, no timings.
fn verdict_view(report: &RequestReport) -> Vec<(usize, usize, usize, usize, dpv_core::Verdict)> {
    report
        .obligations
        .iter()
        .map(|o| (o.index, o.family, o.shard, o.sub_box, o.verdict.clone()))
        .collect()
}

fn mean_seconds(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn bench_serve(c: &mut Criterion) {
    let wide = request(4);
    let narrow = request(3);

    // --- Acceptance script on one resident server: cold → warm → refit. ---
    let server = ObligationServer::builder().config(serve_config()).build();

    let t0 = Instant::now();
    let cold = server.serve(&wide).unwrap();
    let cold_first = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let warm_first = server.serve(&wide).unwrap();
    let warm_first_s = t1.elapsed().as_secs_f64();

    let refit = server.serve(&narrow).unwrap();

    assert_eq!(cold.obligations.len(), 32);
    assert_eq!(refit.obligations.len(), 16);
    assert!(cold.obligations.iter().all(|o| !o.deduped));
    assert!(warm_first.obligations.iter().all(|o| o.deduped));
    assert!(cold.verdicts[0].verdict.is_safe());
    assert!(cold.verdicts[1].verdict.is_unsafe());

    // Dedup parity: the warm repeat must reproduce the cold report verbatim
    // (verdict content, not timings).
    let parity = u128::from(
        verdict_view(&cold) == verdict_view(&warm_first) && cold.verdicts == warm_first.verdicts,
    );
    criterion::report_metric("serve/dedup-parity-permille", parity * 1000);

    // Cache economics after the fixed three-request script: 2 template
    // misses (cold) vs 4 hits (warm + refit), and 32 of 80 obligations
    // answered from the verdict cache. Both are deterministic.
    let stats = server.stats();
    criterion::report_metric(
        "serve/template-hit-rate-permille",
        u128::from(stats.template_hit_rate_permille()),
    );
    criterion::report_metric(
        "serve/dedup-rate-permille",
        u128::from(stats.dedup_rate_permille()),
    );

    // --- Timed speedup: mean cold request (fresh server each time) vs mean
    // warm repeat on the resident server. ---
    let mut cold_samples = vec![cold_first];
    for _ in 1..REPS {
        let fresh = ObligationServer::builder().config(serve_config()).build();
        let t = Instant::now();
        let report = fresh.serve(&wide).unwrap();
        cold_samples.push(t.elapsed().as_secs_f64());
        assert_eq!(verdict_view(&report), verdict_view(&cold));
    }
    let mut warm_samples = vec![warm_first_s];
    for _ in 1..REPS {
        let t = Instant::now();
        let report = server.serve(&wide).unwrap();
        warm_samples.push(t.elapsed().as_secs_f64());
        assert_eq!(verdict_view(&report), verdict_view(&cold));
    }
    let cold_mean = mean_seconds(&cold_samples);
    let warm_mean = mean_seconds(&warm_samples);
    let speedup = permille(cold_mean, warm_mean).min(10_000);
    assert!(
        speedup >= 5000,
        "warm request must be at least 5x cheaper (got {speedup} permille)"
    );
    criterion::report_metric("serve/warm-request-speedup-permille", speedup);

    // --- Absolute throughput: every obligation solved on a warm template
    // cache, with the server built and warmed outside the timed loop. ---
    let solver = ObligationServer::builder()
        .config(ServeConfig {
            verdict_capacity: 0,
            ..serve_config()
        })
        .build();
    assert_eq!(
        verdict_view(&solver.serve(&wide).unwrap()),
        verdict_view(&cold)
    );
    let mut round_seconds: Vec<f64> = (0..THROUGHPUT_ROUNDS)
        .map(|_| {
            let mut solving_seconds = 0.0;
            for _ in 0..THROUGHPUT_SERVES {
                let t = Instant::now();
                let report = solver.serve(&wide).unwrap();
                solving_seconds += t.elapsed().as_secs_f64();
                assert_eq!(verdict_view(&report), verdict_view(&cold));
            }
            solving_seconds
        })
        .collect();
    round_seconds.sort_by(f64::total_cmp);
    let median_seconds = round_seconds[THROUGHPUT_ROUNDS / 2];
    let obligations = (THROUGHPUT_SERVES * cold.obligations.len()) as f64;
    println!(
        "e12: warm solver {:.0} obligations/s (median of {THROUGHPUT_ROUNDS} rounds; \
         rounds {:.0}-{:.0})",
        obligations / median_seconds,
        obligations / round_seconds[THROUGHPUT_ROUNDS - 1],
        obligations / round_seconds[0]
    );
    criterion::report_metric(
        "serve/warm-obligations-per-sec-permille",
        permille(obligations, median_seconds),
    );

    println!(
        "e12: cold {:.3}ms warm {:.3}ms speedup {}x/1000 (capped) | {}",
        cold_mean * 1e3,
        warm_mean * 1e3,
        speedup,
        server.stats().summary()
    );

    // --- Informational latency curves for the artifact. ---
    let mut group = c.benchmark_group("e12");
    group.sample_size(3);
    group.bench_function("request/cold-fresh-server", |b| {
        b.iter(|| {
            let fresh = ObligationServer::builder().config(serve_config()).build();
            let report = fresh.serve(&wide).unwrap();
            report.obligations.len()
        })
    });
    let resident = ObligationServer::builder().config(serve_config()).build();
    resident.serve(&wide).unwrap();
    group.bench_function("request/warm-resident-server", |b| {
        b.iter(|| {
            let report = resident.serve(&wide).unwrap();
            report.obligations.len()
        })
    });
    group.bench_function("request/template-refit", |b| {
        b.iter(|| {
            let report = resident.serve(&narrow).unwrap();
            report.obligations.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
