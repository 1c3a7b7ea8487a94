//! E7: scaling of the parallel branch-and-bound backend and the concurrent
//! refinement work-list.
//!
//! Three workloads, spanning the tree sizes verification actually produces:
//!
//! * **e6-cut4-refute** — the E6 harness cut at layer 4 (24 ReLU binaries
//!   once the envelope is widened), with the risk threshold placed in the
//!   middle of the integrality gap between the LP-relaxation bound and the
//!   exact reachable minimum. The MILP is infeasible but the root relaxation
//!   is not, so proving safety requires refuting the whole branch-and-bound
//!   tree (hundreds of nodes) — the embarrassingly parallel workload.
//! * **e6-cut6-bound** — exact reachable-output bound computation at the
//!   default close-to-output cut: an optimisation MILP with incumbent
//!   pruning over a small tree.
//! * **e1-provable** — the paper's E1 assume-guarantee query, whose root
//!   relaxation is already infeasible: a single-node solve that measures the
//!   per-query overhead floor (encoding + one LP) of every engine.
//!
//! Each workload compares the serial engine and the parallel backend at
//! 1/2/4/8 workers; a final section dispatches the refinement work-list
//! serially and in parallel.
//!
//! Run with `CRITERION_JSON=BENCH_e7.json` to capture machine-readable
//! results. The emitted file includes `host_cpus`: on a single-core host the
//! worker sweep can only measure coordination overhead (the refutation tree
//! must be explored either way), while multi-core hosts see the subtree
//! fan-out as wall-clock speedup. CI's bench-smoke step records the numbers
//! either way, with reduced samples via `CRITERION_SAMPLE_SIZE`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_absint::{AbstractDomain, BoxDomain};
use dpv_bench::{bench_config, permille, quick_outcome};
use dpv_core::{
    encode_verification, AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty,
    ParallelRefinementConfig, RefinementVerifier, RiskCondition, StartRegion, VerificationProblem,
    VerificationStrategy,
};
use dpv_lp::{BranchAndBoundBackend, MilpProblem, ParallelBranchAndBoundBackend, SolverBackend};
use dpv_monitor::ActivationEnvelope;
use dpv_scenegen::{DatasetBundle, GeneratorConfig, PropertyKind};
use dpv_tensor::Vector;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The engines every workload compares: the serial default and the
/// parallel worker sweep.
fn engines() -> Vec<(String, Box<dyn SolverBackend>)> {
    let mut engines: Vec<(String, Box<dyn SolverBackend>)> =
        vec![("serial/1".into(), Box::new(BranchAndBoundBackend))];
    for workers in WORKER_SWEEP {
        engines.push((
            format!("parallel/{workers}"),
            Box::new(ParallelBranchAndBoundBackend::new(workers)),
        ));
    }
    engines
}

/// One benchmarked verification query.
enum Workload {
    /// Full verification through the seam (`verify_with`).
    Verify(VerificationProblem, VerificationStrategy),
    /// A raw MILP handed straight to the backend (bound computation).
    Milp(MilpProblem),
}

impl Workload {
    fn run(&self, backend: &dyn SolverBackend) -> (f64, usize) {
        match self {
            Workload::Verify(problem, strategy) => {
                let outcome = problem
                    .verify_with(strategy, backend)
                    .expect("verification");
                assert!(
                    outcome.verdict.is_safe(),
                    "refutation workload must prove safety"
                );
                (outcome.solve_seconds, outcome.nodes_explored)
            }
            Workload::Milp(milp) => {
                let start = Instant::now();
                let solution = backend.solve(milp);
                assert_eq!(solution.status, dpv_lp::MilpStatus::Optimal);
                (start.elapsed().as_secs_f64(), solution.stats.nodes_explored)
            }
        }
    }
}

fn bench_e7(c: &mut Criterion) {
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

    let mut workloads: Vec<(String, Workload)> = Vec::new();

    // e6-cut4-refute: widened envelope at the earlier cut → 20+ unstable
    // ReLUs and a genuine integrality gap to place the threshold in.
    {
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
        // Structural encoding (vacuous risk) to measure the integrality gap
        // of the reachable-minimum objective.
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
            "e6-cut4 setup: {} binaries, relaxation bound {:.4}, exact minimum {:.4}, gap {:.4}",
            encoded.num_binaries, relaxation.objective, exact.objective, gap
        );
        // Mid-gap threshold: the root relaxation stays feasible, the MILP is
        // not — proving safety costs a full refutation tree. (Degenerates to
        // a root-infeasible query if the gap ever closes.)
        let threshold = if gap > 1e-6 {
            relaxation.objective + 0.5 * gap
        } else {
            exact.objective - 0.05
        };
        let risk = RiskCondition::new("steer far left").output_le(0, threshold);
        let problem =
            VerificationProblem::new(outcome.perception.clone(), cut, characterizer, risk)
                .expect("problem assembly");
        let strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope,
            use_difference_constraints: false,
        });
        workloads.push(("e6-cut4-refute".into(), Workload::Verify(problem, strategy)));
    }

    // e6-cut6-bound: exact output bound at the default cut (small tree with
    // incumbent pruning).
    {
        let cut = outcome.cut_layer;
        let envelope =
            ActivationEnvelope::from_inputs(&outcome.perception, cut, &bundle.images, 0.0)
                .expect("envelope from training activations");
        let (_, tail) = outcome.perception.split_at(cut).expect("split");
        let encoded = encode_verification(
            tail.layers(),
            Some(outcome.bend_characterizer.network()),
            &RiskCondition::new("vacuous").output_ge(0, -1e9),
            &StartRegion::Box(envelope.box_only()),
        )
        .expect("encoding");
        let mut bound_milp = encoded.milp;
        bound_milp
            .lp_mut()
            .set_objective(&[(encoded.output_vars[0], 1.0)], false);
        workloads.push(("e6-cut6-bound".into(), Workload::Milp(bound_milp)));
    }

    // e1-provable: the paper's far-left query; the relaxation refutes it at
    // the root, so this measures each engine's per-query overhead floor.
    {
        let (_, tail) = outcome
            .perception
            .split_at(outcome.cut_layer)
            .expect("split");
        let lower = outcome
            .envelope
            .box_only()
            .propagate(tail.layers())
            .to_box()[0]
            .lo;
        let risk = RiskCondition::new("steer far left").output_le(0, lower - 0.05);
        let problem = VerificationProblem::new(
            outcome.perception.clone(),
            outcome.cut_layer,
            outcome.bend_characterizer.clone(),
            risk,
        )
        .expect("problem assembly");
        let strategy = VerificationStrategy::AssumeGuarantee(AssumeGuarantee {
            envelope: outcome.envelope.clone(),
            use_difference_constraints: true,
        });
        workloads.push(("e1-provable".into(), Workload::Verify(problem, strategy)));
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("=== E7: parallel scaling (host has {host_cpus} CPUs) ===");
    println!(
        "{:<16} {:<28} {:>10} {:>10} {:>12}",
        "workload", "backend", "seconds", "nodes", "nodes/sec"
    );
    for (label, workload) in &workloads {
        for (_, engine) in &engines() {
            let (seconds, nodes) = workload.run(engine.as_ref());
            println!(
                "{:<16} {:<28} {:>10.3} {:>10} {:>12.0}",
                label,
                engine.name(),
                seconds,
                nodes,
                nodes as f64 / seconds.max(1e-9)
            );
        }
    }

    // On a multi-core host, turn the worker sweep on the embarrassingly
    // parallel refutation workload into wall-clock speedup records: serial
    // mean ÷ parallel mean, per worker count that fits the host. These rows
    // are deliberately absent from the committed single-core baseline
    // (`host_cpus: 1` in `BENCH_e7.json`), where the sweep can only measure
    // coordination overhead; a multi-core CI profile records them so the
    // subtree fan-out shows up as a gated metric the first time a multi-core
    // baseline is committed.
    if host_cpus > 1 {
        let (label, refute) = &workloads[0];
        let reps = 3usize;
        let measure = |backend: &dyn SolverBackend| {
            let mut total = 0.0;
            for _ in 0..reps {
                let start = Instant::now();
                refute.run(backend);
                total += start.elapsed().as_secs_f64();
            }
            total / reps as f64
        };
        let serial_mean = measure(&BranchAndBoundBackend);
        for workers in WORKER_SWEEP.iter().copied().filter(|&n| n > 1) {
            let parallel_mean = measure(&ParallelBranchAndBoundBackend::new(workers));
            let speedup = permille(serial_mean, parallel_mean);
            println!(
                "{label} multicore: serial {serial_mean:.3}s vs {workers} workers \
                 {parallel_mean:.3}s ({:.2}x)",
                serial_mean / parallel_mean.max(1e-9)
            );
            criterion::report_metric(format!("e7/parallel-speedup-{workers}-permille"), speedup);
            // Lenient self-check: with real cores available, the parallel
            // backend must not be pathologically slower than the serial one
            // (CI runners jitter, so the floor is loose).
            assert!(
                speedup >= 500,
                "parallel/{workers} was more than 2x slower than serial on a \
                 {host_cpus}-core host ({speedup} permille)"
            );
        }
    }

    let mut group = c.benchmark_group("e7");
    group.sample_size(5);
    for (label, workload) in &workloads {
        for (engine_id, engine) in engines() {
            group.bench_function(BenchmarkId::new(label.clone(), engine_id), |b| {
                b.iter(|| workload.run(engine.as_ref()))
            });
        }
    }

    // Refinement work-list dispatch, serial vs parallel, on the trained
    // harness: a box region around the recorded activations with a reachable
    // risk threshold produces a genuine multi-box work-list (spurious corner
    // counterexamples force splits).
    let references: Vec<Vector> = bundle
        .images
        .iter()
        .map(|image| outcome.perception.activation_at(outcome.cut_layer, image))
        .collect();
    let region = BoxDomain::from_samples(&references);
    let (_, tail) = outcome
        .perception
        .split_at(outcome.cut_layer)
        .expect("split");
    let reachable_lower = region.propagate(tail.layers()).to_box()[0].lo;
    let refine_risk = RiskCondition::new("steer left").output_le(0, reachable_lower + 0.01);
    let refine_problem = VerificationProblem::new(
        outcome.perception.clone(),
        outcome.cut_layer,
        outcome.bend_characterizer.clone(),
        refine_risk,
    )
    .expect("problem assembly");
    for workers in [1usize, 4] {
        let verifier = if workers == 1 {
            RefinementVerifier::new(64, 0.05)
        } else {
            RefinementVerifier::new(64, 0.05)
                .with_parallelism(ParallelRefinementConfig::new(workers))
        };
        let start = Instant::now();
        let (verdict, report) = verifier
            .verify(&refine_problem, &region, &references)
            .expect("refinement");
        let seconds = start.elapsed().as_secs_f64();
        println!(
            "refinement workers={workers}: safe={} in {seconds:.3}s, {} calls, {} nodes ({:.0} nodes/sec)",
            verdict.is_safe(),
            report.verification_calls,
            report.solver_stats.nodes_explored,
            report.solver_stats.nodes_explored as f64 / seconds.max(1e-9)
        );
        group.bench_with_input(
            BenchmarkId::new("refinement/workers", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    verifier
                        .verify(&refine_problem, &region, &references)
                        .expect("refinement")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
