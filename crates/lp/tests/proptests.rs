//! Property-based tests for the LP/MILP solver: random small instances are
//! compared against brute-force enumeration / sampled feasibility checks.

use dpv_lp::{
    encode_relu_big_m, BranchAndBoundBackend, ConstraintOp, ExhaustiveBackend, LinearProgram,
    LpStatus, MilpProblem, MilpStatus, SolverBackend,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random bounded LP with `n` variables in [0, 10] and `m` ≤-constraints.
fn random_lp(seed: u64, n: usize, m: usize) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..n).map(|_| lp.add_variable(0.0, 10.0)).collect();
    let obj: Vec<_> = vars
        .iter()
        .map(|&v| (v, rng.gen_range(-2.0..2.0)))
        .collect();
    lp.set_objective(&obj, true);
    for _ in 0..m {
        let coeffs: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.gen_range(-1.0..2.0)))
            .collect();
        lp.add_constraint(&coeffs, ConstraintOp::Le, rng.gen_range(1.0..15.0));
    }
    lp
}

/// A small random LP: 1–3 variables boxed inside [-3, 3], 0–3 random
/// ≤/≥/= rows, and a random objective (or a zero one, one case in three).
fn random_small_lp(rng: &mut StdRng) -> LinearProgram {
    let mut lp = LinearProgram::new();
    let n = rng.gen_range(1..4usize);
    let vars: Vec<_> = (0..n)
        .map(|_| {
            let a = rng.gen_range(-3.0..3.0);
            let b = rng.gen_range(-3.0..3.0);
            lp.add_variable(f64::min(a, b), f64::max(a, b))
        })
        .collect();
    if rng.gen_range(0..3u32) > 0 {
        let obj: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.gen_range(-2.0..2.0)))
            .collect();
        lp.set_objective(&obj, rng.gen_range(0..2u32) == 0);
    }
    for _ in 0..rng.gen_range(0..4usize) {
        let coeffs: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.gen_range(-2.0..2.0)))
            .collect();
        let op = match rng.gen_range(0..3u32) {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Ge,
            _ => ConstraintOp::Eq,
        };
        lp.add_constraint(&coeffs, op, rng.gen_range(-2.0..2.0));
    }
    lp
}

/// Solves the dense `n × n` system `rows · x = rhs` by Gaussian elimination
/// with partial pivoting; `None` when it is (numerically) singular.
fn solve_square(mut rows: Vec<Vec<f64>>, mut rhs: Vec<f64>) -> Option<Vec<f64>> {
    let n = rhs.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&a, &b| rows[a][col].abs().total_cmp(&rows[b][col].abs()))?;
        if rows[pivot][col].abs() < 1e-9 {
            return None;
        }
        rows.swap(col, pivot);
        rhs.swap(col, pivot);
        let (pivot_row, pivot_rhs) = (rows[col].clone(), rhs[col]);
        for (r, (row, b)) in rows.iter_mut().zip(rhs.iter_mut()).enumerate() {
            if r != col {
                let factor = row[col] / pivot_row[col];
                for (x, p) in row.iter_mut().zip(&pivot_row) {
                    *x -= factor * p;
                }
                *b -= factor * pivot_rhs;
            }
        }
    }
    Some((0..n).map(|i| rhs[i] / rows[i][i]).collect())
}

/// The vertex oracle, independent of the simplex: every choice of `n`
/// active constraints among the rows (as equalities) and the `2n` bounds
/// is solved as a square system, and the best feasible solution wins. A
/// boxed LP that has any feasible point has a feasible vertex, so no
/// feasible vertex means infeasible. Returns `None` for infeasible, else
/// the optimal objective.
fn vertex_oracle(lp: &LinearProgram) -> Option<f64> {
    let n = lp.num_variables();
    let mut candidates: Vec<(Vec<f64>, f64)> = lp
        .constraints()
        .iter()
        .map(|c| {
            let mut row = vec![0.0; n];
            for &(v, a) in &c.coeffs {
                row[v] += a;
            }
            (row, c.rhs)
        })
        .collect();
    for v in 0..n {
        let (lo, hi) = lp.bounds(v);
        let mut unit = vec![0.0; n];
        unit[v] = 1.0;
        candidates.push((unit.clone(), lo));
        candidates.push((unit, hi));
    }
    let better = |a: f64, b: f64| if lp.is_maximization() { a > b } else { a < b };
    let mut best: Option<f64> = None;
    let mut pick = vec![0usize; n];
    // Enumerate the n-subsets of the candidates in lexicographic order.
    for (i, slot) in pick.iter_mut().enumerate() {
        *slot = i;
    }
    loop {
        let rows = pick.iter().map(|&k| candidates[k].0.clone()).collect();
        let rhs = pick.iter().map(|&k| candidates[k].1).collect();
        if let Some(point) = solve_square(rows, rhs) {
            if lp.is_feasible(&point, 1e-7) {
                let value = lp.objective_value(&point);
                if best.is_none_or(|b| better(value, b)) {
                    best = Some(value);
                }
            }
        }
        let Some(i) = (0..n).rev().find(|&i| pick[i] < candidates.len() - n + i) else {
            return best;
        };
        pick[i] += 1;
        for j in i + 1..n {
            pick[j] = pick[j - 1] + 1;
        }
    }
}

/// Asserts that `solution` reports what the oracle computed for `lp`.
fn matches_oracle(lp: &LinearProgram, solution: &dpv_lp::LpSolution) -> Result<(), String> {
    match vertex_oracle(lp) {
        None if solution.status == LpStatus::Infeasible => Ok(()),
        Some(best)
            if solution.status == LpStatus::Optimal
                && (solution.objective - best).abs() < 1e-6
                && lp.is_feasible(&solution.values, 1e-6) =>
        {
            Ok(())
        }
        oracle => Err(format!(
            "oracle {oracle:?} vs {:?} with objective {}",
            solution.status, solution.objective
        )),
    }
}

/// A verification query's shape: 2–4 inputs in [−1, 1], one layer of 3–7
/// big-M ReLUs over them with interval pre-activation bounds, a zero
/// objective, and a random threshold row on a weighted sum of the ReLU
/// outputs (`≥` or `≤`, from below the output's smallest to above its
/// largest interval value), so infeasible and feasible instances both
/// occur.
fn relu_milp(rng: &mut StdRng) -> MilpProblem {
    let mut milp = MilpProblem::new();
    let inputs: Vec<_> = (0..rng.gen_range(2..=4usize))
        .map(|_| milp.add_variable(-1.0, 1.0))
        .collect();
    let mut output = Vec::new();
    let (mut low, mut high) = (0.0, 0.0);
    for _ in 0..rng.gen_range(3..=7usize) {
        let weights: Vec<f64> = inputs.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: f64 = rng.gen_range(-0.5..0.5);
        let radius: f64 = weights.iter().map(|w| w.abs()).sum();
        let (lower, upper) = (bias - radius, bias + radius);
        let pre = milp.add_variable(lower, upper);
        let mut row: Vec<_> = inputs.iter().copied().zip(weights).collect();
        row.push((pre, -1.0));
        milp.lp_mut().add_constraint(&row, ConstraintOp::Eq, -bias);
        let post = milp.add_variable(0.0, upper.max(0.0));
        encode_relu_big_m(&mut milp, pre, post, lower, upper);
        let weight: f64 = rng.gen_range(-1.0..1.0);
        let reach = weight * upper.max(0.0);
        low += reach.min(0.0);
        high += reach.max(0.0);
        output.push((post, weight));
    }
    let threshold = low + (high - low) * rng.gen_range(-0.1..1.1);
    let op = if rng.gen_bool(0.5) {
        ConstraintOp::Ge
    } else {
        ConstraintOp::Le
    };
    milp.lp_mut().add_constraint(&output, op, threshold);
    milp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The engine against the vertex oracle: a slack-basis solve, and a
    /// re-solve from its basis after a random bound edit, report the
    /// oracle's status and (when optimal) its objective within 1e-6.
    #[test]
    fn simplex_agrees_with_the_vertex_oracle(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lp = random_small_lp(&mut rng);
        let (cold, snapshot) = lp.solve_with_snapshot();
        let verdict = matches_oracle(&lp, &cold);
        prop_assert!(verdict.is_ok(), "seed {}: slack start: {:?}", seed, verdict);
        prop_assume!(snapshot.is_some());
        let mut snapshot = snapshot.expect("checked above");
        let var = rng.gen_range(0..lp.num_variables());
        let a = rng.gen_range(-3.0..3.0);
        let b = rng.gen_range(-3.0..3.0);
        lp.set_bounds(var, f64::min(a, b), f64::max(a, b));
        // A decline is allowed; its slack-basis restart must agree too.
        let warm = lp.solve_from_basis(&mut snapshot).unwrap_or_else(|| lp.solve());
        let verdict = matches_oracle(&lp, &warm);
        prop_assert!(verdict.is_ok(), "seed {}: snapshot start: {:?}", seed, verdict);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any optimum the simplex reports must be primal feasible, and no
    /// sampled feasible point may beat it.
    #[test]
    fn simplex_optimum_is_feasible_and_not_beaten_by_samples(seed in 0u64..2000) {
        let lp = random_lp(seed, 4, 3);
        let solution = lp.solve();
        if solution.status == LpStatus::Optimal {
            prop_assert!(lp.is_feasible(&solution.values, 1e-6));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcdef);
            for _ in 0..200 {
                let candidate: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..10.0)).collect();
                if lp.is_feasible(&candidate, 1e-9) {
                    prop_assert!(lp.objective_value(&candidate) <= solution.objective + 1e-6);
                }
            }
        }
    }

    /// The box [0,10]^n with no constraints is always feasible, so a random
    /// ≤-constraint LP with non-negative rhs must be feasible too (the origin
    /// satisfies every constraint with rhs >= 0).
    #[test]
    fn lps_with_nonnegative_rhs_are_feasible(seed in 0u64..2000) {
        let lp = random_lp(seed, 3, 4);
        prop_assert_eq!(lp.solve().status, LpStatus::Optimal);
    }

    /// Binary knapsack MILPs are compared against exhaustive enumeration.
    #[test]
    fn milp_matches_brute_force_on_knapsacks(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 5usize;
        let profits: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..10.0)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..5.0)).collect();
        let capacity: f64 = rng.gen_range(3.0..10.0);

        let mut milp = MilpProblem::new();
        let vars: Vec<_> = (0..n).map(|_| milp.add_binary()).collect();
        let obj: Vec<_> = vars.iter().zip(&profits).map(|(&v, &p)| (v, p)).collect();
        milp.lp_mut().set_objective(&obj, true);
        let cons: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
        milp.lp_mut().add_constraint(&cons, ConstraintOp::Le, capacity);
        let solution = milp.solve();
        prop_assert_eq!(solution.status, MilpStatus::Optimal);

        // Brute force over the 2^5 assignments.
        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << n) {
            let weight: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if weight <= capacity + 1e-9 {
                let profit: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| profits[i]).sum();
                best = best.max(profit);
            }
        }
        prop_assert!((solution.objective - best).abs() < 1e-5,
            "milp {} vs brute force {}", solution.objective, best);
    }

    /// The big-M ReLU encoding is exact: for random fixed inputs the encoded
    /// output must equal max(0, x).
    #[test]
    fn relu_encoding_is_exact(x in -5.0f64..5.0) {
        let (lower, upper) = (-5.0, 5.0);
        let mut milp = MilpProblem::new();
        let xin = milp.add_variable(lower, upper);
        let y = milp.add_variable(0.0, 10.0);
        encode_relu_big_m(&mut milp, xin, y, lower, upper);
        milp.lp_mut().tighten_bounds(xin, x, x);
        milp.lp_mut().set_objective(&[(y, 1.0)], true);
        let hi = milp.solve();
        milp.lp_mut().set_objective(&[(y, 1.0)], false);
        let lo = milp.solve();
        prop_assert_eq!(hi.status, MilpStatus::Optimal);
        prop_assert_eq!(lo.status, MilpStatus::Optimal);
        prop_assert!((hi.objective - x.max(0.0)).abs() < 1e-6);
        prop_assert!((lo.objective - x.max(0.0)).abs() < 1e-6);
    }

    /// The branch-and-bound engine, warm-started at every node after the
    /// root, must agree with the exhaustive enumeration oracle, which
    /// solves every LP cold, on random small MILPs: same status,
    /// and (when an optimum exists) objectives within 1e-6. Random
    /// objective directions, mixed ≤/≥ constraints and a continuous
    /// variable make both infeasible and feasible instances likely. A
    /// zero-objective big-M ReLU MILP of the same seed, the structure node
    /// propagation acts on, must agree with the oracle too.
    #[test]
    fn branch_and_bound_engines_agree_with_exhaustive_oracle(seed in 0u64..400) {
        let relu = relu_milp(&mut StdRng::seed_from_u64(seed ^ 0x0005_e1a0));
        let oracle = ExhaustiveBackend::default().solve(&relu);
        let solution = BranchAndBoundBackend.solve(&relu);
        prop_assert_eq!(solution.status, oracle.status,
            "ReLU MILP: {:?} vs oracle {:?}", solution.status, oracle.status);
        if oracle.status == MilpStatus::Optimal {
            prop_assert!(relu.is_feasible(&solution.values, 1e-6));
        }

        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);
        let n_bin = 4usize;
        let mut milp = MilpProblem::new();
        let bins: Vec<_> = (0..n_bin).map(|_| milp.add_binary()).collect();
        let w = milp.add_variable(0.0, 3.0);
        let maximize = seed % 2 == 0;
        let mut obj: Vec<_> = bins
            .iter()
            .map(|&v| (v, rng.gen_range(-3.0..3.0)))
            .collect();
        obj.push((w, rng.gen_range(-1.0..1.0)));
        milp.lp_mut().set_objective(&obj, maximize);
        for _ in 0..3 {
            let mut coeffs: Vec<_> = bins
                .iter()
                .map(|&v| (v, rng.gen_range(-2.0..2.0)))
                .collect();
            coeffs.push((w, rng.gen_range(-1.0..1.0)));
            let op = if rng.gen_range(0.0..1.0) < 0.5 { ConstraintOp::Le } else { ConstraintOp::Ge };
            milp.lp_mut().add_constraint(&coeffs, op, rng.gen_range(-2.0..4.0));
        }

        let oracle = ExhaustiveBackend::default().solve(&milp);
        let solution = BranchAndBoundBackend.solve(&milp);
        prop_assert_eq!(solution.status, oracle.status,
            "{:?} vs oracle {:?}", solution.status, oracle.status);
        if oracle.status == MilpStatus::Optimal {
            prop_assert!((solution.objective - oracle.objective).abs() < 1e-6,
                "{} vs oracle {}", solution.objective, oracle.objective);
            prop_assert!(milp.is_feasible(&solution.values, 1e-6));
        }
    }

    /// Warm re-solving from a parent basis after random bound tightenings
    /// must agree with a fresh cold solve — same status and (when optimal)
    /// the same objective. Covers ~400 random LPs × 4 successive
    /// tightenings, including tightenings that drive the program infeasible,
    /// with mixed ≤/≥/= constraints so every standard-form row shape is
    /// exercised.
    #[test]
    fn warm_restart_agrees_with_cold_solve(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1ab1e);
        let n = 4usize;
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n).map(|_| lp.add_variable(-5.0, 5.0)).collect();
        let obj: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.gen_range(-2.0..2.0)))
            .collect();
        lp.set_objective(&obj, seed % 2 == 0);
        for _ in 0..3 {
            let coeffs: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.gen_range(-1.5..1.5)))
                .collect();
            let pick: f64 = rng.gen_range(0.0..1.0);
            let op = if pick < 0.4 {
                ConstraintOp::Le
            } else if pick < 0.8 {
                ConstraintOp::Ge
            } else {
                ConstraintOp::Eq
            };
            lp.add_constraint(&coeffs, op, rng.gen_range(-2.0..2.0));
        }

        let (root, snapshot) = lp.solve_with_snapshot();
        prop_assume!(root.status == LpStatus::Optimal);
        let mut snapshot = snapshot.expect("optimal cold solves yield a snapshot");

        for round in 0..4 {
            // Tighten a random variable to a random sub-range (possibly a
            // point), keeping lo <= hi.
            let var = vars[rng.gen_range(0..n)];
            let a = rng.gen_range(-5.0..5.0);
            let b = rng.gen_range(-5.0..5.0);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            lp.set_bounds(var, lo, hi);

            let cold = lp.solve();
            match lp.solve_from_basis(&mut snapshot) {
                Some(warm) => {
                    prop_assert!(warm.warm_started);
                    prop_assert_eq!(warm.status, cold.status,
                        "round {}: warm {:?} vs cold {:?}", round, warm.status, cold.status);
                    if cold.status == LpStatus::Optimal {
                        prop_assert!((warm.objective - cold.objective).abs() < 1e-5,
                            "round {}: warm {} vs cold {}", round, warm.objective, cold.objective);
                        prop_assert!(lp.is_feasible(&warm.values, 1e-6));
                    }
                }
                None => {
                    // A numerical bail-out is allowed; re-seed from cold.
                    let (_, fresh) = lp.solve_with_snapshot();
                    match fresh {
                        Some(fresh) => snapshot = fresh,
                        None => break,
                    }
                }
            }
        }
    }

    /// Equality-constrained LPs: solving Ax = b with a known feasible point
    /// must report a feasible optimum.
    #[test]
    fn equality_systems_with_known_solutions_are_feasible(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 3usize;
        let point: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
        let mut lp = LinearProgram::new();
        let vars: Vec<_> = (0..n).map(|_| lp.add_variable(0.0, 5.0)).collect();
        for _ in 0..2 {
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(-1.0..1.0))).collect();
            let rhs: f64 = coeffs.iter().map(|(v, c)| c * point[*v]).sum();
            lp.add_constraint(&coeffs, ConstraintOp::Eq, rhs);
        }
        let obj: Vec<_> = vars.iter().map(|&v| (v, rng.gen_range(-1.0..1.0))).collect();
        lp.set_objective(&obj, false);
        let solution = lp.solve();
        prop_assert_eq!(solution.status, LpStatus::Optimal);
        prop_assert!(lp.is_feasible(&solution.values, 1e-5));
        prop_assert!(solution.objective <= lp.objective_value(&point) + 1e-6);
    }
}
