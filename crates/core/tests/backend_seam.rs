//! Tests of the `SolverBackend` seam: every verification path in `dpv-core`
//! must route its MILP solves through the backend it was given, and
//! independent backends must agree on verdicts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{
    Characterizer, CharacterizerConfig, CoreError, InputProperty, RefinedVerdict,
    RefinementVerifier, RiskCondition, SolveOptions, StartRegion, VerificationProblem,
    VerificationStrategy, Workflow, WorkflowConfig,
};
use dpv_lp::{
    BranchAndBoundBackend, ExhaustiveBackend, MilpProblem, MilpSolution, SolveContext,
    SolverBackend,
};
use dpv_nn::{Activation, Dense, Layer, Network, NetworkBuilder};
use dpv_tensor::{Matrix, Vector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trivial mock backend: delegates to branch-and-bound but counts how many
/// solves were routed through it, proving the seam is actually used.
#[derive(Debug, Default)]
struct CountingMockBackend {
    calls: AtomicUsize,
}

impl CountingMockBackend {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl SolverBackend for CountingMockBackend {
    fn name(&self) -> &str {
        "counting-mock"
    }

    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution {
        self.calls.fetch_add(1, Ordering::SeqCst);
        BranchAndBoundBackend.solve_with(problem, ctx)
    }
}

/// A fixture whose verified tail is exactly two layers (dense 2→2, then
/// ReLU) behind an identity head, with an always-firing characterizer:
/// output0 = relu(x0 + x1), output1 = relu(x0 - x1).
fn two_layer_problem(risk: RiskCondition) -> VerificationProblem {
    let perception = Network::new(
        2,
        vec![
            // Head (unverified): identity, so the cut-layer activation is the input.
            Layer::Dense(Dense::from_parts(Matrix::identity(2), Vector::zeros(2))),
            // Verified two-layer tail.
            Layer::Dense(Dense::from_parts(
                Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, -1.0]]).unwrap(),
                Vector::zeros(2),
            )),
            Layer::Activation(Activation::ReLU),
        ],
    )
    .unwrap();
    // Characterizer with constant logit 1: fires everywhere.
    let ch_net = Network::new(
        2,
        vec![Layer::Dense(Dense::from_parts(
            Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        ))],
    )
    .unwrap();
    let characterizer =
        Characterizer::from_network(InputProperty::new("always", "always true"), 0, ch_net, 1.0)
            .unwrap();
    VerificationProblem::new(perception, 0, characterizer, risk).unwrap()
}

fn strategy() -> VerificationStrategy {
    VerificationStrategy::LayerAbstraction { bound: 1.0 }
}

#[test]
fn default_and_mock_backend_agree_on_the_two_layer_fixture() {
    // Inside the cut-layer box [-1, 1]^2 the tail's first output
    // relu(x0 + x1) ranges over [0, 2]: 1.5 is reachable, 5.0 is not.
    for (risk, expect_safe) in [
        (RiskCondition::new("reachable").output_ge(0, 1.5), false),
        (RiskCondition::new("unreachable").output_ge(0, 5.0), true),
    ] {
        let problem = two_layer_problem(risk);
        let mock = CountingMockBackend::default();

        let via_default = problem.verify(&strategy()).unwrap();
        let via_mock = problem.verify_with(&strategy(), &mock).unwrap();

        assert_eq!(mock.calls(), 1, "the mock backend must be the one solving");
        assert_eq!(via_default.verdict.is_safe(), expect_safe);
        assert_eq!(via_default.verdict, via_mock.verdict);
        assert_eq!(via_default.num_binaries, via_mock.num_binaries);
        assert_eq!(via_default.backend, "branch-and-bound");
        assert_eq!(via_mock.backend, "counting-mock");
    }
}

#[test]
fn branch_and_bound_and_exhaustive_enumeration_agree() {
    for risk in [
        RiskCondition::new("reachable").output_ge(0, 1.5),
        RiskCondition::new("unreachable").output_ge(0, 5.0),
        RiskCondition::new("banded")
            .output_ge(0, 0.25)
            .output_le(0, 0.75),
    ] {
        let problem = two_layer_problem(risk);
        let bnb = problem
            .verify_with(&strategy(), &BranchAndBoundBackend)
            .unwrap();
        let exhaustive = problem
            .verify_with(&strategy(), &ExhaustiveBackend::default())
            .unwrap();
        assert_eq!(
            bnb.verdict.is_safe(),
            exhaustive.verdict.is_safe(),
            "backends disagree: bnb={} exhaustive={}",
            bnb.summary(),
            exhaustive.summary()
        );
        // Both backends' counterexamples must be confirmed concretely.
        for outcome in [&bnb, &exhaustive] {
            if let dpv_core::Verdict::Unsafe(ce) = &outcome.verdict {
                assert!(problem
                    .confirm_counterexample(&strategy(), ce, 1e-4)
                    .unwrap());
            }
        }
    }
}

#[test]
fn refinement_routes_every_solve_through_the_backend() {
    let problem = two_layer_problem(RiskCondition::new("unreachable").output_ge(0, 5.0));
    let region =
        BoxDomain::from_intervals(vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)]);
    let references: Vec<Vector> = (0..5)
        .map(|i| Vector::from_slice(&[i as f64 / 5.0, 0.0]))
        .collect();
    let mock = CountingMockBackend::default();
    let verifier = RefinementVerifier::new(16, 0.05);
    let (verdict, report) = verifier
        .verify_with(&problem, &region, &references, &mock)
        .unwrap();
    assert!(verdict.is_safe());
    assert!(report.verification_calls >= 1);
    assert_eq!(mock.calls(), report.verification_calls);
}

#[test]
fn a_region_outside_the_template_root_is_refused_before_any_solve() {
    // A template serves the sub-regions of its root; a region that leaves
    // the root, or has another dimension, is an error and never reaches
    // the backend.
    let problem = two_layer_problem(RiskCondition::new("reachable").output_ge(0, 1.5));
    let root = StartRegion::Box(BoxDomain::uniform(2, -1.0, 1.0));
    let template = problem.encoding_template(&root).unwrap();
    let mock = CountingMockBackend::default();
    for outside in [
        BoxDomain::uniform(2, -2.0, 2.0),
        BoxDomain::uniform(2, 0.5, 1.5),
        BoxDomain::uniform(3, -0.5, 0.5),
    ] {
        let result = problem.solve_with_template(
            &template,
            &StartRegion::Box(outside),
            &mut SolveOptions::new().backend(&mock),
        );
        assert!(
            matches!(result, Err(CoreError::Inconsistent(_))),
            "{result:?}"
        );
    }
    assert_eq!(mock.calls(), 0);
    // The root itself is a sub-region of the root.
    let (verdict, _) = problem
        .solve_with_template(&template, &root, &mut SolveOptions::new().backend(&mock))
        .unwrap();
    assert!(verdict.is_unsafe());
    assert_eq!(mock.calls(), 1);
}

/// The hand-crafted pruning fixture from the refinement module: the
/// single-box envelope admits spurious counterexamples in a data-free corner
/// (tail output x0 + x1 can reach 1.7 inside `[0,1] × [0,0.7]`, while the
/// recorded activations live on the diagonal x0 = x1 ≤ 0.7), so refinement
/// must split, prune the empty corner, and prove "sum ≥ 1.5" safe.
fn pruning_fixture() -> (VerificationProblem, BoxDomain, Vec<Vector>) {
    let perception = Network::new(
        2,
        vec![
            Layer::Dense(Dense::from_parts(Matrix::identity(2), Vector::zeros(2))),
            Layer::Activation(Activation::ReLU),
            Layer::Dense(Dense::from_parts(
                Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap(),
                Vector::zeros(1),
            )),
        ],
    )
    .unwrap();
    let ch_net = Network::new(
        2,
        vec![Layer::Dense(Dense::from_parts(
            Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        ))],
    )
    .unwrap();
    let characterizer =
        Characterizer::from_network(InputProperty::new("always", "always true"), 1, ch_net, 1.0)
            .unwrap();
    let risk = RiskCondition::new("large sum").output_ge(0, 1.5);
    let problem = VerificationProblem::new(perception, 1, characterizer, risk).unwrap();
    let region = BoxDomain::from_intervals(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 0.7)]);
    let references: Vec<Vector> = (0..30)
        .map(|i| {
            let v = 0.7 * i as f64 / 29.0;
            Vector::from_slice(&[v, v])
        })
        .collect();
    (problem, region, references)
}

/// A backend that always gives up with [`dpv_lp::MilpStatus::IterationLimit`],
/// as a numerically degenerate model would make the simplex do.
#[derive(Debug, Default)]
struct IterationLimitedBackend;

impl SolverBackend for IterationLimitedBackend {
    fn name(&self) -> &str {
        "iteration-limited"
    }

    fn solve_with(&self, _problem: &MilpProblem, _ctx: &mut SolveContext<'_>) -> MilpSolution {
        MilpSolution {
            status: dpv_lp::MilpStatus::IterationLimit,
            values: Vec::new(),
            objective: 0.0,
            stats: dpv_lp::SolveStats::default(),
        }
    }
}

#[test]
fn simplex_iteration_limits_degrade_to_unknown_not_abort() {
    // Regression for the old `panic!("simplex exceeded the iteration
    // limit…")`: a model the solver cannot finish must surface as an
    // Unknown verdict (and a SolverLimit error in refinement), never tear
    // down the process.
    let problem = two_layer_problem(RiskCondition::new("reachable").output_ge(0, 1.5));
    let outcome = problem
        .verify_with(&strategy(), &IterationLimitedBackend)
        .unwrap();
    match &outcome.verdict {
        dpv_core::Verdict::Unknown(reason) => {
            assert!(reason.contains("iteration limit"), "reason: {reason}")
        }
        other => panic!("expected Unknown, got {other:?}"),
    }
    // The refinement loop converts the Unknown into a SolverLimit error.
    let region =
        BoxDomain::from_intervals(vec![Interval::new(-1.0, 1.0), Interval::new(-1.0, 1.0)]);
    let references = vec![Vector::from_slice(&[0.5, 0.0])];
    let verifier = RefinementVerifier::new(4, 0.05);
    let result = verifier.verify_with(&problem, &region, &references, &IterationLimitedBackend);
    assert!(matches!(result, Err(dpv_core::CoreError::SolverLimit(_))));
}

#[test]
fn refinement_reports_surface_warm_start_counters() {
    let (problem, region, references) = pruning_fixture();
    let verifier = RefinementVerifier::new(2000, 0.05);
    let (_, report) = verifier.verify(&problem, &region, &references).unwrap();
    let stats = report.solver_stats;
    assert!(stats.warm_solves + stats.cold_solves >= 1);
    assert!(
        stats.warm_solves + stats.cold_solves <= stats.nodes_explored,
        "LP solves cannot exceed explored nodes: {stats:?}"
    );
    assert!(stats.simplex_iterations > 0);
    // The hit rate feeds the e8 benchmark's JSON summary.
    assert!(stats.warm_hit_rate() >= 0.0 && stats.warm_hit_rate() <= 1.0);
}

#[test]
fn refinement_verdicts_match_for_serial_and_parallel_dispatch() {
    let (problem, region, references) = pruning_fixture();
    let serial = RefinementVerifier::new(2000, 0.05);
    let parallel = RefinementVerifier::new(2000, 0.05).with_workers(4);
    let backend = BranchAndBoundBackend;
    let (serial_verdict, serial_report) = serial
        .verify_with(&problem, &region, &references, &backend)
        .unwrap();
    let (parallel_verdict, parallel_report) = parallel
        .verify_with(&problem, &region, &references, &backend)
        .unwrap();
    assert_eq!(serial_verdict, RefinedVerdict::Safe);
    assert_eq!(parallel_verdict, serial_verdict);
    // One work-list: the same report, refined envelope and aggregated
    // solver statistics included.
    assert_eq!(parallel_report, serial_report);
    assert!(serial_report.pruned_subregions > 0);
    assert!(serial_report.covers(&references, 1e-9));
    assert!(serial_report.solver_stats.nodes_explored >= serial_report.verification_calls);
}

#[test]
fn refinement_results_do_not_depend_on_the_worker_count() {
    // Budget-limited runs (1 and 2 splits end `Inconclusive` mid-sweep) and
    // a run to completion must fold the same boxes in the same order,
    // whether one thread solves each generation or several do.
    let (problem, region, references) = pruning_fixture();
    for max_splits in [1, 2, 2000] {
        let runs: Vec<_> = [1, 2, 4]
            .into_iter()
            .map(|workers| {
                RefinementVerifier::new(max_splits, 0.05)
                    .with_workers(workers)
                    .verify(&problem, &region, &references)
                    .unwrap()
            })
            .collect();
        for (workers, run) in [2, 4].into_iter().zip(&runs[1..]) {
            assert_eq!(
                run, &runs[0],
                "max_splits {max_splits}: {workers} workers diverge from one"
            );
        }
    }
}

#[test]
fn workflow_threads_a_custom_backend_through_every_experiment() {
    let config = WorkflowConfig {
        training_samples: 60,
        characterizer_samples: 60,
        validation_samples: 40,
        perception_epochs: 4,
        characterizer: CharacterizerConfig {
            hidden: vec![6],
            epochs: 30,
            ..CharacterizerConfig::small()
        },
        ..WorkflowConfig::small()
    };
    let backend = Arc::new(CountingMockBackend::default());
    let workflow = Workflow::with_backend(config, backend.clone());
    assert_eq!(workflow.backend().name(), "counting-mock");
    let outcome = workflow.run().unwrap();
    // E1 compares four strategies, E2 runs one more: five solves minimum.
    assert!(
        backend.calls() >= 5,
        "only {} solves were routed",
        backend.calls()
    );
    for experiment in &outcome.experiments {
        for outcome in &experiment.outcomes {
            assert_eq!(outcome.backend, "counting-mock");
            assert!(outcome.summary().contains("counting-mock"));
        }
    }
}

#[test]
fn trained_fixture_backends_agree_end_to_end() {
    // A randomly initialised 2-layer tail (ReLU, dense): backends must
    // still agree.
    let mut rng = StdRng::seed_from_u64(11);
    let perception = NetworkBuilder::new(3)
        .dense(4, &mut rng)
        .activation(Activation::ReLU)
        .dense(1, &mut rng)
        .build();
    let ch_net = Network::new(
        4,
        vec![Layer::Dense(Dense::from_parts(
            Matrix::from_rows(&[vec![0.0, 0.0, 0.0, 0.0]]).unwrap(),
            Vector::from_slice(&[1.0]),
        ))],
    )
    .unwrap();
    let characterizer =
        Characterizer::from_network(InputProperty::new("always", "always true"), 0, ch_net, 1.0)
            .unwrap();
    let risk = RiskCondition::new("large output").output_ge(0, 100.0);
    let problem = VerificationProblem::new(perception, 0, characterizer, risk).unwrap();
    let strategy = VerificationStrategy::LayerAbstraction { bound: 2.0 };
    let bnb = problem
        .verify_with(&strategy, &BranchAndBoundBackend)
        .unwrap();
    let exhaustive = problem
        .verify_with(&strategy, &ExhaustiveBackend::default())
        .unwrap();
    assert_eq!(bnb.verdict.is_safe(), exhaustive.verdict.is_safe());
}

/// Clustered cut-layer activations for the two-layer fixture: two blobs in
/// opposite corners of the `[-1, 1]^2` cut-layer box.
fn bimodal_references() -> Vec<Vector> {
    (0..20)
        .map(|i| {
            let jitter = (i / 2) as f64 * 0.02;
            if i % 2 == 0 {
                Vector::from_slice(&[-0.9 + jitter, -0.9 + jitter])
            } else {
                Vector::from_slice(&[0.7 + jitter, 0.7 + jitter])
            }
        })
        .collect()
}

#[test]
fn sharded_k1_is_verdict_identical_to_the_monolithic_path() {
    let references = bimodal_references();
    // Reachable and unreachable risks over the envelope of the references
    // (both outputs stay within relu(x0 + x1) <= ~1.48 on the data).
    for risk in [
        RiskCondition::new("reachable").output_ge(0, 1.0),
        RiskCondition::new("unreachable").output_ge(0, 5.0),
    ] {
        let problem = two_layer_problem(risk);
        let sharded_envelope = dpv_shard::ShardedEnvelope::from_activations(
            0,
            &references,
            0.0,
            &dpv_shard::ShardConfig::fixed(1),
        )
        .unwrap();
        assert_eq!(sharded_envelope.shard_count(), 1);
        for use_diff in [true, false] {
            let monolithic = problem
                .verify(&VerificationStrategy::AssumeGuarantee(
                    dpv_core::AssumeGuarantee {
                        envelope: sharded_envelope.merged(),
                        use_difference_constraints: use_diff,
                    },
                ))
                .unwrap();
            let sharded = problem.verify_sharded(&sharded_envelope, use_diff).unwrap();
            // Identical verdicts — including the witness point, since the
            // k = 1 shard encodes the exact same MILP for a deterministic
            // backend — and identical problem shape.
            assert_eq!(sharded.verdict, monolithic.verdict);
            assert_eq!(sharded.shards[0].num_binaries, monolithic.num_binaries);
            assert_eq!(sharded.shards[0].stable_relus, monolithic.stable_relus);
            assert_eq!(
                sharded.solver_stats().nodes_explored,
                monolithic.nodes_explored
            );
        }
    }
}

#[test]
fn sharded_verification_routes_every_shard_through_the_backend() {
    let problem = two_layer_problem(RiskCondition::new("unreachable").output_ge(0, 5.0));
    let sharded_envelope = dpv_shard::ShardedEnvelope::from_activations(
        0,
        &bimodal_references(),
        0.0,
        &dpv_shard::ShardConfig::fixed(3),
    )
    .unwrap();
    let mock = CountingMockBackend::default();
    let report = problem
        .verify_sharded_with(&sharded_envelope, true, &mock)
        .unwrap();
    assert!(report.verdict.is_safe());
    assert_eq!(
        mock.calls(),
        sharded_envelope.shard_count(),
        "one MILP per shard must be routed through the seam"
    );
    assert_eq!(report.backend, "counting-mock");
}
