//! E7: parallelism across proof obligations — the serial
//! branch-and-bound engine on three verification workloads, the concurrent
//! refinement work-list, and the obligation server's worker scaling.
//!
//! Three workloads, spanning the tree sizes verification actually produces:
//!
//! * **e6-cut4-refute** — the E6 harness cut at layer 4 (24 ReLU binaries
//!   once the envelope is widened), with the risk threshold placed in the
//!   middle of the integrality gap between the LP-relaxation bound and the
//!   exact reachable minimum. The MILP is infeasible but the root relaxation
//!   is not, so proving safety requires refuting a whole branch-and-bound
//!   tree (dozens of nodes).
//! * **e6-cut6-bound** — exact reachable-output bound computation at the
//!   default close-to-output cut: an optimisation MILP with incumbent
//!   pruning over a small tree.
//! * **e1-provable** — the paper's E1 assume-guarantee query, whose root
//!   relaxation is already infeasible: a single-node solve that measures the
//!   per-query overhead floor (encoding + one LP).
//!
//! Every solve runs on the calling thread. Parallelism lives one level up,
//! across proof obligations: a refinement section dispatches the work-list
//! serially and with 4 workers, and on a multi-core host a serve section
//! records the gated metric
//!
//! * `e7/serve-parallel-speedup-2-permille` — the e6-cut4-refute tail,
//!   with its threshold at [`SERVE_GAP_FRACTION`] of the integrality gap,
//!   served as [`SERVE_SUBDIVISION`]-fold bisected sub-box obligations (32)
//!   by a 1-worker and a 2-worker `ObligationServer`, both with the verdict
//!   cache off and a warm template cache. Each of [`SPEEDUP_ROUNDS`] rounds
//!   times [`SPEEDUP_SERVES`] serves per server, alternating which server
//!   goes first; the record is the median over rounds of 1-worker mean ÷
//!   2-worker mean. `BENCH_e7_multicore.json` holds the baseline measured
//!   on a 2-core host; benchgate's `parallel-speedup` rule gates it with
//!   50% relative slack.
//!
//! Run with `CRITERION_JSON=BENCH_e7.json` to capture machine-readable
//! results. The emitted file includes `host_cpus`; a single-core host emits
//! no speed-up record. CI's bench-smoke step records the numbers either
//! way, with reduced samples via `CRITERION_SAMPLE_SIZE`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use dpv_absint::{AbstractDomain, BoxDomain};
use dpv_bench::{bench_config, permille, quick_outcome};
use dpv_core::{
    encode_verification, AssumeGuarantee, Characterizer, CharacterizerConfig, InputProperty,
    RefinementVerifier, RiskCondition, StartRegion, Verdict, VerificationProblem,
    VerificationStrategy,
};
use dpv_lp::{BranchAndBoundBackend, MilpProblem, SolverBackend};
use dpv_monitor::ActivationEnvelope;
use dpv_scenegen::{DatasetBundle, GeneratorConfig, PropertyKind};
use dpv_serve::{ObligationServer, RegionSpec, RequestReport, ServeConfig, VerificationRequest};
use dpv_tensor::Vector;

/// Bisection levels of the served cut-4 request: 2^5 = 32 obligations.
const SERVE_SUBDIVISION: u32 = 5;
/// Where the served request's threshold sits in the integrality gap, from
/// the relaxation bound (0) to the exact minimum (1). The mid-gap threshold
/// of the serial refutation leaves each sub-box's tree a node or two, so
/// the served request sits closer to the exact minimum: about a thousand
/// nodes over its 32 obligations, enough work for the worker-scaling
/// record to measure solving rather than overhead.
const SERVE_GAP_FRACTION: f64 = 0.9;
/// Alternating rounds behind the serve speed-up record (the median is
/// taken over rounds).
const SPEEDUP_ROUNDS: usize = 7;
/// Timed serves per server per round.
const SPEEDUP_SERVES: usize = 10;

/// The deterministic surface of a served report: the per-obligation
/// verdicts, witnesses included, in obligation-index order.
fn verdicts(report: &RequestReport) -> Vec<Verdict> {
    report
        .obligations
        .iter()
        .map(|o| o.verdict.clone())
        .collect()
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
    let serve_request;

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
        let threshold = |fraction: f64| {
            if gap > 1e-6 {
                relaxation.objective + fraction * gap
            } else {
                exact.objective - 0.05
            }
        };
        let risk = RiskCondition::new("steer far left").output_le(0, threshold(0.5));
        serve_request = VerificationRequest {
            perception: outcome.perception.clone(),
            cut_layer: cut,
            characterizer: characterizer.clone(),
            risks: vec![
                RiskCondition::new("steer far left").output_le(0, threshold(SERVE_GAP_FRACTION))
            ],
            region: RegionSpec::Single(StartRegion::Box(envelope.box_only())),
            subdivision: SERVE_SUBDIVISION,
            deadline: None,
        };
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
    println!("=== E7: obligation-level parallelism (host has {host_cpus} CPUs) ===");
    println!(
        "{:<16} {:<28} {:>10} {:>10} {:>12}",
        "workload", "backend", "seconds", "nodes", "nodes/sec"
    );
    for (label, workload) in &workloads {
        let (seconds, nodes) = workload.run(&BranchAndBoundBackend);
        println!(
            "{:<16} {:<28} {:>10.3} {:>10} {:>12.0}",
            label,
            BranchAndBoundBackend.name(),
            seconds,
            nodes,
            nodes as f64 / seconds.max(1e-9)
        );
    }

    // On a multi-core host, record how the obligation server scales from
    // one worker to two on the cut-4 tail. Both servers are built and
    // served once outside the timed loop, so the rounds time solver work
    // on a warm template cache, never server start-up.
    if host_cpus > 1 {
        let servers = [1, 2].map(|workers| {
            ObligationServer::builder()
                .config(ServeConfig {
                    verdict_capacity: 0,
                    ..ServeConfig::with_workers(workers)
                })
                .build()
        });
        let warm_up = servers[0].serve(&serve_request).expect("serve");
        let reference = verdicts(&warm_up);
        assert_eq!(
            verdicts(&servers[1].serve(&serve_request).expect("serve")),
            reference
        );
        let mean_serve = |server: &ObligationServer| {
            let mut seconds = 0.0;
            for _ in 0..SPEEDUP_SERVES {
                let start = Instant::now();
                let report = server.serve(&serve_request).expect("serve");
                seconds += start.elapsed().as_secs_f64();
                assert_eq!(verdicts(&report), reference);
            }
            seconds / SPEEDUP_SERVES as f64
        };
        let mut ratios: Vec<f64> = (0..SPEEDUP_ROUNDS)
            .map(|round| {
                let (one, two) = if round % 2 == 0 {
                    let one = mean_serve(&servers[0]);
                    (one, mean_serve(&servers[1]))
                } else {
                    let two = mean_serve(&servers[1]);
                    (mean_serve(&servers[0]), two)
                };
                one / two
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        let speedup = permille(ratios[SPEEDUP_ROUNDS / 2], 1.0);
        println!(
            "serve multicore: {} obligations, {} nodes, {:?}; median 1-worker/2-worker \
             ratio {:.3} over {SPEEDUP_ROUNDS} rounds (range {:.3}-{:.3})",
            warm_up.obligations.len(),
            warm_up
                .obligations
                .iter()
                .map(|o| o.stats.nodes_explored)
                .sum::<usize>(),
            warm_up.verdicts[0].verdict,
            ratios[SPEEDUP_ROUNDS / 2],
            ratios[0],
            ratios[SPEEDUP_ROUNDS - 1]
        );
        criterion::report_metric("e7/serve-parallel-speedup-2-permille", speedup);
        // Lenient self-check: with real cores available, two workers must
        // not be pathologically slower than one (CI runners jitter, so the
        // floor is loose).
        assert!(
            speedup >= 500,
            "2 serve workers were more than 2x slower than 1 on a \
             {host_cpus}-core host ({speedup} permille)"
        );
    }

    let mut group = c.benchmark_group("e7");
    group.sample_size(5);
    for (label, workload) in &workloads {
        group.bench_function(BenchmarkId::new(label.clone(), "serial/1"), |b| {
            b.iter(|| workload.run(&BranchAndBoundBackend))
        });
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
        let verifier = RefinementVerifier::new(64, 0.05).with_workers(workers);
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
