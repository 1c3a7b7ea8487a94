//! Observability tour of the resident obligation server: serve a few
//! requests through an **enabled tracer**, inject a transient fault and
//! a panic, then print a human-readable report of everything the trace
//! layer recorded — warm-start effectiveness, retry and quarantine
//! counters, per-obligation timelines, and a Prometheus excerpt.
//!
//! ```bash
//! cargo run --release --example serve_observability
//! ```

use direct_perception_verify::absint::BoxDomain;
use direct_perception_verify::core::{Characterizer, InputProperty, RiskCondition, StartRegion};
use direct_perception_verify::lp::SolveStats;
use direct_perception_verify::nn::{Activation, Network, NetworkBuilder};
use direct_perception_verify::serve::{
    FaultKind, FaultPlan, ObligationServer, RegionSpec, RequestReport, ServeConfig,
    VerificationRequest,
};
use direct_perception_verify::trace::{TraceConfig, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CUT: usize = 2;
const CUT_WIDTH: usize = 4;

fn perception() -> Network {
    let mut rng = StdRng::seed_from_u64(17);
    NetworkBuilder::new(3)
        .dense(6, &mut rng)
        .activation(Activation::ReLU)
        .dense(CUT_WIDTH, &mut rng)
        .activation(Activation::ReLU)
        .dense(2, &mut rng)
        .build()
}

fn characterizer() -> Characterizer {
    let mut rng = StdRng::seed_from_u64(17 ^ 0xc4a2);
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
    .expect("characterizer fixture")
}

fn request() -> VerificationRequest {
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

/// Sums the per-obligation solver statistics of one report.
fn aggregate_solver_stats(report: &RequestReport) -> SolveStats {
    let mut total = SolveStats::default();
    for outcome in &report.obligations {
        total.warm_solves += outcome.stats.warm_solves;
        total.cold_solves += outcome.stats.cold_solves;
        total.simplex_iterations += outcome.stats.simplex_iterations;
        total.nodes_explored += outcome.stats.nodes_explored;
        total.nodes_pruned += outcome.stats.nodes_pruned;
    }
    total
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An enabled tracer: per-thread ring buffers plus typed metrics.
    // A builder without a tracer serves identically with
    // every recording call disabled.
    let tracer = Tracer::with_config(TraceConfig::default());
    let server = ObligationServer::builder()
        .config(ServeConfig::with_workers(2))
        .tracer(tracer)
        .build();

    println!("== request 1: cold caches ==");
    let cold = server.serve(&request())?;
    println!("{}", cold.summary());
    let cold_solver = aggregate_solver_stats(&cold);
    // Warm starts happen inside each obligation's own branch-and-bound
    // tree, whatever the caches hold, so a cold request has warm LP
    // solves too.
    println!(
        "solver: {} LP solves, warm hit rate {:.0}% (node LPs warm-start inside each tree)",
        cold_solver.warm_solves + cold_solver.cold_solves,
        100.0 * cold_solver.warm_hit_rate()
    );

    println!("\n== request 2: warm caches, transient fault + panic injected ==");
    let mut plan = FaultPlan::new();
    plan.inject(2, FaultKind::TransientExhaust);
    plan.inject(5, FaultKind::Panic);
    server.set_fault_plan(plan);
    // A fresh region misses the dedup cache, so every obligation is
    // solved.
    let mut warm_request = request();
    warm_request.region =
        RegionSpec::Single(StartRegion::Box(BoxDomain::uniform(CUT_WIDTH, -0.9, 1.1)));
    // The injected panic is caught by the server's isolation layer;
    // silence the default hook so it doesn't splatter the demo output.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let warm = server.serve(&warm_request)?;
    std::panic::set_hook(default_hook);
    println!("{}", warm.summary());
    let warm_solver = aggregate_solver_stats(&warm);
    println!(
        "solver: {} LP solves, warm hit rate {:.0}%",
        warm_solver.warm_solves + warm_solver.cold_solves,
        100.0 * warm_solver.warm_hit_rate()
    );

    println!("\n== server statistics ==");
    let stats = server.stats();
    println!("{}", stats.summary());
    println!(
        "resilience: {} retries ({} rescued), {} panics caught, {} quarantined",
        stats.retries, stats.retry_successes, stats.worker_panics, stats.quarantined
    );
    println!(
        "caches: templates {}‰ hit, dedup {}‰",
        stats.template_hit_rate_permille(),
        stats.dedup_rate_permille()
    );

    println!("\n== per-obligation timeline (request 2) ==");
    match &warm.timeline {
        Some(timeline) => print!("{}", timeline.summary()),
        None => println!("(tracing disabled — no timeline)"),
    }

    println!("== trace snapshot ==");
    let snapshot = server.trace_snapshot();
    println!(
        "{} recording calls, {} dropped events",
        snapshot.record_ops,
        snapshot.dropped_events()
    );
    for name in [
        "warm-lp-solves",
        "cold-lp-solves",
        "simplex-iterations",
        "bnb-nodes",
        "retries",
        "worker-panics",
        "quarantined",
        "template-hits",
    ] {
        println!("  {name:<20} {}", snapshot.counter(name));
    }

    println!("\n== Prometheus excerpt ==");
    let prometheus = server.trace_snapshot().to_prometheus();
    for line in prometheus.lines().filter(|l| {
        l.contains("queue_depth") || l.contains("retries") || l.contains("solve_ns_count")
    }) {
        println!("{line}");
    }

    Ok(())
}
