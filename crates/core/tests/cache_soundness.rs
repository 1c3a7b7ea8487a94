//! Property-based soundness of the cross-run cache layer: a cache-hit
//! solve must reach the MILP status of the exhaustive oracle's cold solve
//! of the same obligation, and a stale
//! `BasisSnapshot` deposited by a *different* template must be rejected by
//! the structural-fingerprint guard (pool keying) rather than warm-started —
//! with the LP layer's validation as the backstop even when a foreign basis
//! is forced in. A solve that stops at the first guard-checked witness only
//! shortens the plain search, and an obligation interval reasoning decides
//! is closed without an LP.

use dpv_absint::{AbstractDomain, BoxDomain, Interval};
use dpv_core::{
    Characterizer, InputProperty, RiskCondition, SnapshotPool, SolveOptions, StartRegion,
    TemplateCache, Verdict, VerificationProblem,
};
use dpv_lp::{BranchAndBoundBackend, ExhaustiveBackend, SolverBackend};
use dpv_nn::{Activation, Network, NetworkBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random perception network with a ReLU cut point, plus a characterizer
/// head adopted verbatim (no training — parity tests only need *a* problem,
/// not a good one).
fn random_problem(rng: &mut StdRng, threshold: f64) -> (VerificationProblem, usize) {
    let input_dim = rng.gen_range(2usize..4);
    let cut_width = rng.gen_range(2usize..5);
    let out_dim = rng.gen_range(1usize..3);
    let perception = NetworkBuilder::new(input_dim)
        .dense(cut_width, rng)
        .activation(Activation::ReLU)
        .dense(out_dim, rng)
        .build();
    let cut = 1; // output of the ReLU stage
    let head: Network = NetworkBuilder::new(cut_width)
        .dense(rng.gen_range(2usize..4), rng)
        .activation(Activation::ReLU)
        .dense(1, rng)
        .build();
    let characterizer = Characterizer::from_network(
        InputProperty::new("p", "synthetic property"),
        cut,
        head,
        0.9,
    )
    .expect("characterizer head adopts");
    let problem = VerificationProblem::new(
        perception,
        cut,
        characterizer,
        RiskCondition::new("r").output_ge(0, threshold),
    )
    .expect("problem assembles");
    (problem, cut_width)
}

fn random_sub_box(rng: &mut StdRng, dim: usize) -> BoxDomain {
    let bounds: Vec<Interval> = (0..dim)
        .map(|_| {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            Interval::new(a.min(b), a.max(b))
        })
        .collect();
    BoxDomain::from_intervals(bounds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A verdict produced through every cache lever at once — shared
    /// template from a `TemplateCache`, warm basis from a `SnapshotPool`,
    /// repeated solve of the identical obligation (the dedup scenario) —
    /// must agree with a cold solve of the same obligation by the
    /// exhaustive oracle: equal MILP statuses always, and any
    /// counterexample must lie in the obligation's sub-box.
    #[test]
    fn cache_hit_verdict_equals_cold_solve(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        let threshold = rng.gen_range(-2.0..2.0);
        let (problem, cut_width) = random_problem(&mut rng, threshold);
        let root = StartRegion::Box(BoxDomain::uniform(cut_width, -1.0, 1.0));
        let sub = StartRegion::Box(random_sub_box(&mut rng, cut_width));

        let cache = TemplateCache::new(4);
        let pool = SnapshotPool::new(2);
        let warm_backend = BranchAndBoundBackend;

        let fp = problem.template_fingerprint(&root).unwrap();
        let template = cache.get_or_build(&problem, &root).unwrap();
        prop_assert_eq!(template.fingerprint(), fp);

        // First (cache-warming) solve: no pooled basis yet.
        let mut scratch = None;
        let mut seed_basis = pool.check_out(fp);
        let (first, first_solution) = problem
            .solve_with_template(
                &template,
                &sub,
                &mut SolveOptions::new()
                    .scratch(&mut scratch)
                    .seed(&mut seed_basis)
                    .backend(&warm_backend),
            )
            .unwrap();
        if let Some(basis) = seed_basis.take() {
            pool.check_in(fp, basis);
        }

        // Second solve of the *identical* obligation through the caches —
        // the verdict a dedup layer would have served from its map.
        let template2 = cache.get_or_build(&problem, &root).unwrap();
        let mut seed_basis = pool.check_out(fp);
        let (cached, cached_solution) = problem
            .solve_with_template(
                &template2,
                &sub,
                &mut SolveOptions::new()
                    .scratch(&mut scratch)
                    .seed(&mut seed_basis)
                    .backend(&warm_backend),
            )
            .unwrap();

        // Cold reference: fresh template, no scratch, no seed, and the
        // exhaustive oracle, which solves every LP from the slack basis.
        let reference_template = problem.encoding_template(&root).unwrap();
        let (_, cold) = problem
            .solve_with_template(
                &reference_template,
                &sub,
                &mut SolveOptions::new().backend(&ExhaustiveBackend::default()),
            )
            .unwrap();

        prop_assert_eq!(
            std::mem::discriminant(&first),
            std::mem::discriminant(&cached)
        );
        prop_assert_eq!(first_solution.status, cold.status);
        prop_assert_eq!(cached_solution.status, cold.status);
        if let Verdict::Unsafe(ce) = &cached {
            // Counterexample *points* may differ between the search and the
            // oracle's enumeration; what must hold is that the cached one is
            // genuine for the obligation itself.
            prop_assert!(sub.contains(ce.activation.as_slice(), 1e-6));
        }
        prop_assert!(cache.stats().hits >= 1);
    }

    /// The counterexample guard only shortens a search. A
    /// `solve_with_template` hands the guard to the search as its witness
    /// check; a plain branch-and-bound solve of the same instantiated MILP
    /// runs without one. The checked search explores no more nodes; unless
    /// it stopped at a witness (`Unsafe`), it is the plain search, status
    /// and statistics alike; and its witness lies in the sub-box, meets
    /// the risk and fires the characterizer.
    #[test]
    fn a_guard_checked_solve_only_shortens_the_plain_search(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5709);
        let threshold = rng.gen_range(-2.0..2.0);
        let (problem, cut_width) = random_problem(&mut rng, threshold);
        let root = StartRegion::Box(BoxDomain::uniform(cut_width, -1.0, 1.0));
        let sub = StartRegion::Box(random_sub_box(&mut rng, cut_width));
        let template = problem.encoding_template(&root).unwrap();
        let backend = BranchAndBoundBackend;

        let (checked, checked_solution) = problem
            .solve_with_template(&template, &sub, &mut SolveOptions::new().backend(&backend))
            .unwrap();
        let plain = backend.solve(&template.encoding().instantiate(&sub).unwrap().milp);

        prop_assert!(
            checked_solution.stats.nodes_explored <= plain.stats.nodes_explored,
            "checked {:?}, plain {:?}",
            checked_solution.stats,
            plain.stats
        );
        if let Verdict::Unsafe(ce) = &checked {
            prop_assert!(sub.contains(ce.activation.as_slice(), 1e-6));
            let (_, tail) = problem.perception().split_at(problem.cut_layer()).unwrap();
            prop_assert!(problem.risk().is_satisfied(&tail.forward(&ce.activation), 1e-6));
            prop_assert!(problem.characterizer().logit(&ce.activation) >= -1e-6);
        } else {
            prop_assert_eq!(checked_solution.status, plain.status);
            prop_assert_eq!(checked_solution.stats, plain.stats);
        }
    }

    /// A far obligation, whose risk threshold lies above the interval
    /// upper bound of the output over the sub-box, is `Safe` through
    /// `solve_with_template` with no LP solved: the risk row's activity
    /// over the output's bounds misses the threshold, so propagation
    /// closes the root (Lemma 2 inside the search).
    #[test]
    fn a_far_obligation_is_safe_without_an_lp(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfa5);
        let (drawn, cut_width) = random_problem(&mut rng, 0.0);
        let sub = random_sub_box(&mut rng, cut_width);
        let (_, tail) = drawn.perception().split_at(drawn.cut_layer()).unwrap();
        let reach = sub.propagate(tail.layers()).to_box()[0].hi;
        let problem = VerificationProblem::new(
            drawn.perception().clone(),
            drawn.cut_layer(),
            drawn.characterizer().clone(),
            RiskCondition::new("far").output_ge(0, reach + 1.0),
        )
        .unwrap();
        let root = StartRegion::Box(BoxDomain::uniform(cut_width, -1.0, 1.0));
        let template = problem.encoding_template(&root).unwrap();
        let (verdict, solution) = problem
            .solve_with_template(
                &template,
                &StartRegion::Box(sub),
                &mut SolveOptions::new().backend(&BranchAndBoundBackend),
            )
            .unwrap();
        prop_assert_eq!(verdict, Verdict::Safe);
        let stats = solution.stats;
        prop_assert_eq!(stats.nodes_explored, 1, "{:?}", stats);
        prop_assert_eq!(stats.warm_solves + stats.cold_solves, 0, "{:?}", stats);
    }

    /// A basis deposited under template A must never warm-start template B
    /// when the two differ only in a risk threshold — the pair the LP
    /// layer's structure fingerprint cannot distinguish on feasibility
    /// problems (all-zero objective, rhs excluded). The pool's
    /// fingerprint keying is the guard; and even force-feeding A's basis
    /// into B's solve must leave the verdict unchanged (LP validation
    /// backstop).
    #[test]
    fn stale_snapshot_from_another_template_is_rejected(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x57a1e);
        let threshold = rng.gen_range(-1.0..1.0);
        let (problem_a, cut_width) = random_problem(&mut rng, threshold);
        // Same networks, different risk threshold: rebuild from the same
        // parts so only the risk row differs.
        let problem_b = VerificationProblem::new(
            problem_a.perception().clone(),
            problem_a.cut_layer(),
            problem_a.characterizer().clone(),
            RiskCondition::new("r").output_ge(0, threshold + 0.75),
        )
        .unwrap();
        let root = StartRegion::Box(BoxDomain::uniform(cut_width, -1.0, 1.0));
        let fp_a = problem_a.template_fingerprint(&root).unwrap();
        let fp_b = problem_b.template_fingerprint(&root).unwrap();
        prop_assert_ne!(fp_a, fp_b, "distinct thresholds must split fingerprints");

        let template_a = problem_a.encoding_template(&root).unwrap();
        let template_b = problem_b.encoding_template(&root).unwrap();

        // Harvest a basis from template A's obligation.
        let pool = SnapshotPool::new(2);
        let backend = BranchAndBoundBackend;
        let sub = StartRegion::Box(random_sub_box(&mut rng, cut_width));
        let mut seed_basis = None;
        let _ = problem_a
            .solve_with_template(
                &template_a,
                &sub,
                &mut SolveOptions::new().seed(&mut seed_basis).backend(&backend),
            )
            .unwrap();
        let Some(basis) = seed_basis else {
            // Infeasible runs can end without a reusable basis; nothing to
            // pool, nothing to guard.
            return;
        };
        pool.check_in(fp_a, basis);

        // The guard: template B's check-out must miss.
        prop_assert!(pool.check_out(fp_b).is_none());
        prop_assert_eq!(pool.stats().misses, 1);

        // Backstop: even a forced foreign seed cannot change B's verdict.
        let mut foreign = pool.check_out(fp_a);
        prop_assert!(foreign.is_some());
        let (seeded, _) = problem_b
            .solve_with_template(
                &template_b,
                &sub,
                &mut SolveOptions::new().seed(&mut foreign).backend(&backend),
            )
            .unwrap();
        let (unseeded, _) = problem_b
            .solve_with_template(&template_b, &sub, &mut SolveOptions::new().backend(&backend))
            .unwrap();
        prop_assert_eq!(
            std::mem::discriminant(&seeded),
            std::mem::discriminant(&unseeded)
        );
    }
}
