//! E8: incremental solving — warm-started dual simplex + the MILP encoding
//! template, versus re-encoding and cold solves.
//!
//! Two workloads on the E6 cut-4 harness (the widened envelope at the
//! earlier cut, whose MILPs have 20+ unstable ReLUs and genuinely deep
//! branch-and-bound trees):
//!
//! * **e6-cut4-refute** — the gap-calibrated refutation MILP from E7, solved
//!   by the cold engine (`branch-and-bound(cold)`, every node starts the
//!   dual simplex from the slack basis) and by the warm engine (every node
//!   after the root starts it from the rolling basis). Reports the time,
//!   warm-hit rate and pivot count of each.
//! * **refine-sweep** — a full refinement sweep over the widened cut-4
//!   envelope with a reachable risk threshold: spurious corner
//!   counterexamples force region splits, so one sweep re-solves the same
//!   (tail, risk, characterizer) triple over dozens of sub-boxes. The cold
//!   variant re-encodes every sub-box and solves cold; the template variant
//!   builds every sub-box's problem through the one `EncodingTemplate`, from
//!   a batched bound sweep per generation, and solves warm. Both build the
//!   same MILP for a sub-box and produce identical verdicts (asserted).
//!
//! Run with `CRITERION_JSON=BENCH_e8.json` for machine-readable results;
//! besides the timing records the file carries `e8/refine-sweep/speedup-permille`
//! (cold mean ÷ warm mean × 1000), `e8/…/warm-hit-permille` (the share of
//! non-root node LPs that started warm: each MILP's root LP has no earlier
//! basis to start from, so it is left out of both sides) and
//! `e8/refine-sweep/node-lps-per-sec-permille` (node LPs × 1000 per second
//! of the warm-template sweep) metric records, so CI artifacts carry them
//! without parsing stdout. The speedup record reports the ratio: both
//! sides solve the same compact MILP per sub-box, so it measures the warm
//! engine and the cached template against the cold engine and one-shot
//! encoding. The node-LP record is the absolute LP-throughput floor. Every
//! solve runs on the calling thread, so the comparison isolates the
//! incremental-solving effect.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_bench::{bench_config, permille, quick_outcome};
use dpv_core::{
    encode_verification, Characterizer, CharacterizerConfig, InputProperty, RefinementVerifier,
    RiskCondition, StartRegion, VerificationProblem,
};
use dpv_lp::{
    BranchAndBoundBackend, ColdBranchAndBoundBackend, MilpStatus, SolveStats, SolverBackend,
};
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

    // --- Workload 1: the refutation MILP, cold vs warm -------------------
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
    let engines: [(&str, Box<dyn SolverBackend>); 2] = [
        ("pr2-cold", Box::new(ColdBranchAndBoundBackend)),
        ("warm", Box::new(BranchAndBoundBackend)),
    ];
    println!(
        "{:<28} {:>10} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "e6-cut4-refute", "seconds", "nodes", "warm", "cold", "pivots", "hit-rate"
    );
    for (label, engine) in &engines {
        let start = Instant::now();
        let solution = engine.solve(&refute_milp);
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(solution.status, MilpStatus::Infeasible, "{label}");
        let stats = solution.stats;
        println!(
            "{:<28} {:>10.3} {:>8} {:>8} {:>8} {:>10} {:>8.1}%",
            label,
            seconds,
            stats.nodes_explored,
            stats.warm_solves,
            stats.cold_solves,
            stats.simplex_iterations,
            100.0 * stats.warm_hit_rate()
        );
        if *label == "warm" {
            criterion::report_metric(
                "e8/e6-cut4-refute/warm-hit-permille",
                non_root_warm_permille(&stats, 1),
            );
        }
    }

    // --- Workload 2: the refinement sweep, PR-2 path vs template+warm ----
    // Risk threshold just above the exact reachable minimum of the widened
    // box: counterexamples exist, and a **zero** realizability tolerance
    // classifies every one of them as spurious — so each forces a split and
    // the sweep fans out over sub-boxes until the split budget is exhausted.
    // With the classification independent of the particular witness, both
    // variants provably traverse the *same* work-list (box verdicts are
    // encoding-equivalent; splits depend only on the boxes), which keeps the
    // comparison apples-to-apples even though the engines may surface
    // different feasible points.
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
    let max_splits = 16usize;

    let run_sweep = |verifier: &RefinementVerifier, backend: &dyn SolverBackend| {
        let start = Instant::now();
        let (verdict, report) = verifier
            .verify_with(&sweep_problem, &region, &references, backend)
            .expect("refinement sweep");
        (start.elapsed().as_secs_f64(), verdict, report)
    };
    let pr2 = RefinementVerifier::new(max_splits, 0.0).without_template();
    let pr3 = RefinementVerifier::new(max_splits, 0.0);

    let (cold_seconds, cold_verdict, cold_report) = run_sweep(&pr2, &ColdBranchAndBoundBackend);
    let (warm_seconds, warm_verdict, warm_report) = run_sweep(&pr3, &BranchAndBoundBackend);
    // The template + warm start must be invisible in the verdict structure
    // and the traversed work-list (the counterexample *witness* inside an
    // inconclusive verdict may legitimately differ between engines).
    assert_eq!(
        std::mem::discriminant(&cold_verdict),
        std::mem::discriminant(&warm_verdict),
        "sweep verdict kinds diverged: {cold_verdict:?} vs {warm_verdict:?}"
    );
    assert_eq!(
        cold_report.verification_calls, warm_report.verification_calls,
        "sweep work-lists diverged"
    );
    assert_eq!(cold_report.splits, warm_report.splits);
    assert_eq!(cold_report.pruned_subregions, warm_report.pruned_subregions);
    let warm_stats: SolveStats = warm_report.solver_stats;
    println!(
        "refine-sweep: {} calls, {} splits | pr2-cold {:.3}s, warm+template {:.3}s ({:.2}x) | \
         warm {}/{} node solves ({:.1}%), {} pivots vs {} cold pivots",
        warm_report.verification_calls,
        warm_report.splits,
        cold_seconds,
        warm_seconds,
        cold_seconds / warm_seconds.max(1e-9),
        warm_stats.warm_solves,
        warm_stats.warm_solves + warm_stats.cold_solves,
        100.0 * warm_stats.warm_hit_rate(),
        warm_stats.simplex_iterations,
        cold_report.solver_stats.simplex_iterations
    );
    criterion::report_metric(
        "e8/refine-sweep/warm-hit-permille",
        non_root_warm_permille(&warm_stats, warm_report.verification_calls),
    );

    // --- Timed benchmark entries ----------------------------------------
    let mut group = c.benchmark_group("e8");
    group.sample_size(3);
    for (label, engine) in &engines {
        group.bench_function(BenchmarkId::new("e6-cut4-refute", *label), |b| {
            b.iter(|| {
                let solution = engine.solve(&refute_milp);
                assert_eq!(solution.status, MilpStatus::Infeasible);
                solution.stats.nodes_explored
            })
        });
    }
    let mut sweep_means: Vec<(String, f64)> = Vec::new();
    for (label, verifier, backend) in [
        (
            "pr2-cold",
            &pr2,
            &ColdBranchAndBoundBackend as &dyn SolverBackend,
        ),
        ("warm-template", &pr3, &BranchAndBoundBackend),
    ] {
        let mut samples = Vec::new();
        group.bench_function(BenchmarkId::new("refine-sweep", label), |b| {
            b.iter(|| {
                let (seconds, _, report) = run_sweep(verifier, backend);
                samples.push(seconds);
                report.verification_calls
            })
        });
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        sweep_means.push((label.to_string(), mean));
    }
    group.finish();

    let cold_mean = sweep_means
        .iter()
        .find(|(l, _)| l == "pr2-cold")
        .map(|(_, m)| *m)
        .unwrap_or(cold_seconds);
    let warm_mean = sweep_means
        .iter()
        .find(|(l, _)| l == "warm-template")
        .map(|(_, m)| *m)
        .unwrap_or(warm_seconds);
    let speedup = cold_mean / warm_mean.max(1e-9);
    println!("refine-sweep speedup (cold mean / warm+template mean): {speedup:.2}x");
    criterion::report_metric(
        "e8/refine-sweep/speedup-permille",
        permille(cold_mean, warm_mean),
    );
    // Absolute LP throughput of the warm-template sweep: node LPs per second
    // (x1000). The LP count is deterministic, but the sweep's time also
    // holds each node's bound propagation and the nodes it closes without
    // an LP, so this moves with the per-LP cost and with the per-node
    // work around it.
    let node_lps = (warm_stats.warm_solves + warm_stats.cold_solves) as f64;
    println!(
        "refine-sweep LP throughput: {:.0} node LPs/s",
        node_lps / warm_mean.max(1e-9)
    );
    criterion::report_metric(
        "e8/refine-sweep/node-lps-per-sec-permille",
        permille(node_lps, warm_mean),
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
