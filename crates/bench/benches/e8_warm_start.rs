//! E8: incremental solving — the warm-started dual simplex inside the one
//! branch-and-bound search, and the MILP encoding template.
//!
//! Two workloads on the E6 cut-4 harness (the widened envelope at the
//! earlier cut, whose MILPs have 20+ unstable ReLUs and genuinely deep
//! branch-and-bound trees):
//!
//! * **e6-cut4-refute** — the gap-calibrated refutation MILP from E7. The
//!   search solves its root LP from the slack basis and every later node LP
//!   from the rolling basis of the last node solved. Reports the time, node
//!   count, warm/cold split and pivots of the search, and the pivots its
//!   root LP takes from the slack basis.
//! * **refine-sweep** — a full refinement sweep over the widened cut-4
//!   envelope with a reachable risk threshold: spurious corner
//!   counterexamples force region splits, so one sweep re-solves the same
//!   (tail, risk, characterizer) triple over dozens of sub-boxes. Every
//!   sub-box's problem is built through the one `EncodingTemplate`, from a
//!   batched bound sweep per generation, and solved warm.
//!
//! Run with `CRITERION_JSON=BENCH_e8.json` for machine-readable results;
//! besides the timing records the file carries these metric records, so CI
//! artifacts carry them without parsing stdout:
//!
//! * `e8/e6-cut4-refute/warm-pivot-gain-permille` — root pivots × node
//!   LPs ÷ the search's pivots, × 1000: how many times fewer pivots the
//!   search takes than if every node LP took the root LP's slack-basis
//!   pivot count. Deterministic: it needs no second engine and no timing.
//! * `e8/…/warm-hit-permille` — the share of non-root node LPs that
//!   started warm. Each MILP's root LP has no earlier basis to start from,
//!   so it is left out of both sides.
//! * `e8/refine-sweep/node-lps-per-sec-permille` — node LPs × 1000 per
//!   second of the sweep, the absolute LP-throughput floor.
//!
//! Every solve runs on the calling thread.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_bench::{bench_config, permille, quick_outcome};
use dpv_core::{
    encode_verification, Characterizer, CharacterizerConfig, InputProperty, RefinementVerifier,
    RiskCondition, StartRegion, VerificationProblem,
};
use dpv_lp::{BranchAndBoundBackend, MilpStatus, SolveStats, SolverBackend};
use dpv_monitor::ActivationEnvelope;
use dpv_scenegen::{DatasetBundle, GeneratorConfig, PropertyKind};
use dpv_tensor::Vector;

fn bench_e8(c: &mut Criterion) {
    let outcome = quick_outcome();
    let scene = bench_config().scene;
    let generator = GeneratorConfig {
        scene,
        samples: 150,
        seed: 11,
        threads: 1,
    };
    let bundle = DatasetBundle::generate(&generator);
    let mut rng = StdRng::seed_from_u64(17);
    let examples = dpv_scenegen::property_examples(&scene, PropertyKind::BendsRight, 160, &mut rng);

    // E6 cut-4 setup, as in E7: widened envelope at the earlier cut → 20+
    // unstable ReLUs and a genuine integrality gap.
    let cut = 4usize;
    let margin = 0.25;
    let characterizer = Characterizer::train(
        InputProperty::new("bends_right", "scene oracle"),
        &outcome.perception,
        cut,
        &examples,
        &CharacterizerConfig::small(),
        &mut rng,
    )
    .expect("characterizer training");
    let envelope =
        ActivationEnvelope::from_inputs(&outcome.perception, cut, &bundle.images, margin)
            .expect("envelope from training activations");
    let (_, tail) = outcome.perception.split_at(cut).expect("split");
    let encoded = encode_verification(
        tail.layers(),
        Some(characterizer.network()),
        &RiskCondition::new("vacuous").output_ge(0, -1e9),
        &StartRegion::Box(envelope.box_only()),
    )
    .expect("encoding");
    let mut bound_milp = encoded.milp.clone();
    bound_milp
        .lp_mut()
        .set_objective(&[(encoded.output_vars[0], 1.0)], false);
    let relaxation = bound_milp.lp().solve();
    let exact = BranchAndBoundBackend.solve(&bound_milp);
    let gap = exact.objective - relaxation.objective;
    println!(
        "e8 setup: {} binaries, relaxation bound {:.4}, exact minimum {:.4}, gap {:.4}",
        encoded.num_binaries, relaxation.objective, exact.objective, gap
    );

    // --- Workload 1: the refutation MILP ---------------------------------
    // Mid-gap threshold: the root relaxation stays feasible, the MILP is
    // not — proving safety refutes the whole tree.
    let refute_threshold = if gap > 1e-6 {
        relaxation.objective + 0.5 * gap
    } else {
        exact.objective - 0.05
    };
    let refute_risk = RiskCondition::new("steer far left").output_le(0, refute_threshold);
    let refute_milp = {
        let refute_encoded = encode_verification(
            tail.layers(),
            Some(characterizer.network()),
            &refute_risk,
            &StartRegion::Box(envelope.box_only()),
        )
        .expect("encoding");
        refute_encoded.milp
    };
    let root_pivots = refute_milp.lp().solve().iterations;
    let start = Instant::now();
    let solution = BranchAndBoundBackend.solve(&refute_milp);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(solution.status, MilpStatus::Infeasible);
    let stats = solution.stats;
    let node_lps = stats.warm_solves + stats.cold_solves;
    println!(
        "{:<28} {:>10} {:>8} {:>8} {:>8} {:>10} {:>9} {:>11}",
        "e6-cut4-refute", "seconds", "nodes", "warm", "cold", "pivots", "hit-rate", "root-pivots"
    );
    println!(
        "{:<28} {:>10.3} {:>8} {:>8} {:>8} {:>10} {:>8.1}% {:>11}",
        "warm",
        seconds,
        stats.nodes_explored,
        stats.warm_solves,
        stats.cold_solves,
        stats.simplex_iterations,
        100.0 * stats.warm_hit_rate(),
        root_pivots
    );
    criterion::report_metric(
        "e8/e6-cut4-refute/warm-hit-permille",
        non_root_warm_permille(&stats, 1),
    );
    criterion::report_metric(
        "e8/e6-cut4-refute/warm-pivot-gain-permille",
        permille(
            (root_pivots * node_lps) as f64,
            stats.simplex_iterations as f64,
        ),
    );

    // --- Workload 2: the refinement sweep, template + warm search --------
    // Risk threshold just above the exact reachable minimum of the widened
    // box: counterexamples exist, and a **zero** realizability tolerance
    // classifies every one of them as spurious — so each forces a split and
    // the sweep fans out over sub-boxes until the split budget is exhausted.
    let references: Vec<Vector> = bundle
        .images
        .iter()
        .map(|image| outcome.perception.activation_at(cut, image))
        .collect();
    let region = envelope.box_only();
    let sweep_risk = RiskCondition::new("steer far left").output_le(0, exact.objective + 0.02);
    let sweep_problem = VerificationProblem::new(
        outcome.perception.clone(),
        cut,
        characterizer.clone(),
        sweep_risk,
    )
    .expect("problem assembly");
    let verifier = RefinementVerifier::new(16, 0.0);
    let run_sweep = || {
        let start = Instant::now();
        let (_, report) = verifier
            .verify_with(&sweep_problem, &region, &references, &BranchAndBoundBackend)
            .expect("refinement sweep");
        (start.elapsed().as_secs_f64(), report)
    };

    let (sweep_seconds, sweep_report) = run_sweep();
    let sweep_stats: SolveStats = sweep_report.solver_stats;
    println!(
        "refine-sweep: {} calls, {} splits | {:.3}s | warm {}/{} node solves ({:.1}%), {} pivots",
        sweep_report.verification_calls,
        sweep_report.splits,
        sweep_seconds,
        sweep_stats.warm_solves,
        sweep_stats.warm_solves + sweep_stats.cold_solves,
        100.0 * sweep_stats.warm_hit_rate(),
        sweep_stats.simplex_iterations
    );
    criterion::report_metric(
        "e8/refine-sweep/warm-hit-permille",
        non_root_warm_permille(&sweep_stats, sweep_report.verification_calls),
    );

    // --- Timed benchmark entries ----------------------------------------
    let mut group = c.benchmark_group("e8");
    group.sample_size(3);
    group.bench_function(BenchmarkId::new("e6-cut4-refute", "warm"), |b| {
        b.iter(|| {
            let solution = BranchAndBoundBackend.solve(&refute_milp);
            assert_eq!(solution.status, MilpStatus::Infeasible);
            solution.stats.nodes_explored
        })
    });
    let mut samples = Vec::new();
    group.bench_function(BenchmarkId::new("refine-sweep", "warm-template"), |b| {
        b.iter(|| {
            let (seconds, report) = run_sweep();
            samples.push(seconds);
            report.verification_calls
        })
    });
    group.finish();
    let sweep_mean = if samples.is_empty() {
        sweep_seconds
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    };

    // Absolute LP throughput of the sweep: node LPs per second (x1000). The
    // LP count is deterministic, but the sweep's time also holds each
    // node's bound propagation and the nodes it closes without an LP, so
    // this moves with the per-LP cost and with the per-node work around it.
    let sweep_lps = (sweep_stats.warm_solves + sweep_stats.cold_solves) as f64;
    println!(
        "refine-sweep LP throughput: {:.0} node LPs/s",
        sweep_lps / sweep_mean.max(1e-9)
    );
    criterion::report_metric(
        "e8/refine-sweep/node-lps-per-sec-permille",
        permille(sweep_lps, sweep_mean),
    );
}

/// The share of non-root node LPs of `milps` MILP solves, summed in
/// `stats`, that started warm, in permille: `warm ÷ (warm + cold − milps)`.
/// Each MILP's root LP starts from the slack basis, so it is left out;
/// what stays cold are declined warm starts and refactorisations. Panics
/// unless every MILP solved its root LP and the workload still branches,
/// so that the share has LPs to count.
fn non_root_warm_permille(stats: &SolveStats, milps: usize) -> u128 {
    assert!(
        stats.cold_solves >= milps && stats.warm_solves + stats.cold_solves > milps,
        "every one of the {milps} MILPs must solve its root LP and the workload must \
         still branch: {stats:?}"
    );
    permille(
        stats.warm_solves as f64,
        (stats.warm_solves + stats.cold_solves - milps) as f64,
    )
}

criterion_group!(benches, bench_e8);
criterion_main!(benches);
