//! Pins the simplex engine's pivot sequence and the branch-and-bound
//! search built on it.
//!
//! Every status, pivot count, `SolveStats` field and solution value over a
//! seeded corpus is folded into three `u64`s, and the test asserts the
//! committed values: [`LP_PIN`] folds the LP programs, [`RANDOM_MILP_PIN`]
//! the random MILPs and [`RELU_MILP_PIN`] the big-M ReLU MILPs. Any change
//! of pricing, tie-breaking or arithmetic order moves at least one pivot,
//! count or last bit of a value, so it fails the LP pin; a change to the
//! search alone (branching, node bounds, propagation) leaves the LP pin and
//! moves a MILP pin. The random MILPs record no ReLU links, so a change to
//! the branching among violated ReLUs moves only the ReLU pin. A change
//! that means to alter a pin updates its constant on purpose: run
//! `cargo test -p dpv-lp --test pivot_pin` and commit the computed value
//! from the failure message together with the change.
//!
//! The corpus, in the order it is drawn from one seeded stream:
//! * random LPs with `≤`, `≥` and `=` rows, half with an objective, each
//!   solved from the slack basis and, when optimal, re-solved from its
//!   snapshot after four bound or right-hand-side edits, twice in a row;
//!   small ones, larger ones (20–60 variables and rows), and ill-scaled
//!   ones whose Farkas certificate can fail its check;
//! * programs with rows but no variables (a zero-width tableau);
//! * binary MILPs, random and big-M ReLU encodings, through
//!   `MilpProblem::solve`, the one branch-and-bound search.

use dpv_lp::{
    encode_relu_big_m, ConstraintOp, LinearProgram, LpSolution, MilpProblem, MilpSolution,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fold of the 472 LP programs, computed against the simplex whose
/// pivot sequence it pins.
const LP_PIN: u64 = 0x55fd_32f2_d32e_d721;

/// The fold of the 24 random MILPs through `MilpProblem::solve`, computed
/// against the search it pins. They record no ReLU links, so the search
/// branches on the most fractional binary of each node.
const RANDOM_MILP_PIN: u64 = 0x7862_4ff7_1967_2f93;

/// The fold of the 24 big-M ReLU MILPs through `MilpProblem::solve`,
/// computed against the search it pins, which branches among the binaries
/// whose ReLU the node's LP point violates.
const RELU_MILP_PIN: u64 = 0xd8a2_e5b6_2830_fefb;

/// FNV-1a over the little-endian bytes of the words folded in.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn count(&mut self, count: usize) {
        self.word(count as u64);
    }

    /// `v + 0.0` maps −0 to +0, so the sign of a zero does not count.
    fn value(&mut self, v: f64) {
        self.word((v + 0.0).to_bits());
    }

    fn values(&mut self, values: &[f64]) {
        self.count(values.len());
        values.iter().for_each(|&v| self.value(v));
    }

    fn lp(&mut self, solution: &LpSolution) {
        self.word(solution.status as u64);
        self.count(solution.iterations);
        self.word(u64::from(solution.warm_started));
        self.value(solution.objective);
        self.values(&solution.values);
    }

    fn milp(&mut self, solution: &MilpSolution) {
        self.word(solution.status as u64);
        self.value(solution.objective);
        self.values(&solution.values);
        let stats = solution.stats;
        for count in [
            stats.nodes_explored,
            stats.nodes_pruned,
            stats.warm_solves,
            stats.cold_solves,
            stats.warm_declined,
            stats.simplex_iterations,
            stats.failed_checks,
        ] {
            self.count(count);
        }
    }
}

/// A coefficient: a small integer half the time (degenerate vertices and
/// ratio-test ties), a real otherwise.
fn coefficient(rng: &mut StdRng, integral: bool) -> f64 {
    if integral {
        f64::from(rng.gen_range(-3..=3i32))
    } else {
        rng.gen_range(-3.0..3.0)
    }
}

/// Each of `n` variables with probability `density`, with a coefficient.
fn sparse_row(rng: &mut StdRng, n: usize, density: f64, integral: bool) -> Vec<(usize, f64)> {
    let mut row = Vec::new();
    for v in 0..n {
        if rng.gen_bool(density) {
            row.push((v, coefficient(rng, integral)));
        }
    }
    row
}

fn random_op(rng: &mut StdRng) -> ConstraintOp {
    match rng.gen_range(0..3u32) {
        0 => ConstraintOp::Le,
        1 => ConstraintOp::Ge,
        _ => ConstraintOp::Eq,
    }
}

/// A random LP of `n` variables and `m` rows; some variables fixed, some
/// rows sparse, integral or real data. Three rows in four hold at a hidden
/// point of the box, so most programs are feasible and most edits then
/// leave them so; one LP in eight gets a pivot budget of at most five.
fn random_lp(rng: &mut StdRng, n: usize, m: usize) -> LinearProgram {
    let integral = rng.gen_bool(0.5);
    let mut lp = LinearProgram::new();
    let mut point = Vec::with_capacity(n);
    for _ in 0..n {
        let lower = f64::from(rng.gen_range(-4..=2i32));
        let width = if rng.gen_bool(0.1) {
            0.0
        } else {
            rng.gen_range(0.5..6.0)
        };
        lp.add_variable(lower, lower + width);
        point.push(lower + width * rng.gen_range(0.0..1.0));
    }
    if rng.gen_bool(0.5) {
        let objective = sparse_row(rng, n, 0.8, integral);
        lp.set_objective(&objective, rng.gen_bool(0.5));
    }
    for _ in 0..m {
        let density = rng.gen_range(0.3..1.0);
        let coeffs = sparse_row(rng, n, density, integral);
        let op = random_op(rng);
        let rhs = if rng.gen_bool(0.75) {
            let at: f64 = coeffs.iter().map(|&(v, a)| a * point[v]).sum();
            let slack = rng.gen_range(0.0..2.0);
            match op {
                ConstraintOp::Le => at + slack,
                ConstraintOp::Ge => at - slack,
                ConstraintOp::Eq => at,
            }
        } else {
            coefficient(rng, integral) * 2.0
        };
        lp.add_constraint(&coeffs, op, rhs);
    }
    if rng.gen_bool(0.125) {
        lp.set_iteration_limit(Some(rng.gen_range(0..=5usize)));
    }
    lp
}

/// A small random LP plus `x ∈ [0, 1]`, `w` fixed at a scale of up to
/// 1e13 and the row `x + w ≥ scale + gap`: a gap above 1 is infeasible,
/// and its certificate holds only while the gap stands out of the rounding
/// of the data.
fn ill_scaled_lp(rng: &mut StdRng) -> LinearProgram {
    let mut lp = random_lp(rng, 3, 3);
    lp.set_iteration_limit(None);
    let scale = 10f64.powi(rng.gen_range(1..=13i32));
    let x = lp.add_variable(0.0, 1.0);
    let w = lp.add_variable(scale, scale);
    let gap = rng.gen_range(-1.0..3.0);
    lp.add_constraint(&[(x, 1.0), (w, 1.0)], ConstraintOp::Ge, scale + gap);
    lp
}

/// One bound-shaped edit: a variable's box moved or fixed (three in four),
/// or a row's right-hand side moved (always, when there are no variables).
fn edit(rng: &mut StdRng, lp: &mut LinearProgram) {
    if lp.num_variables() == 0 || rng.gen_bool(0.25) {
        let row = rng.gen_range(0..lp.num_constraints());
        let rhs = lp.constraints()[row].rhs + rng.gen_range(-1.5..1.5);
        lp.set_constraint_rhs(row, rhs);
        return;
    }
    let var = rng.gen_range(0..lp.num_variables());
    let (lower, upper) = lp.bounds(var);
    let (lower, upper) = match rng.gen_range(0..3u32) {
        0 => (lower, lower),
        1 => (upper, upper),
        _ => {
            let a = rng.gen_range(lower - 1.0..upper + 1.0);
            let b = rng.gen_range(lower - 1.0..upper + 1.0);
            (a.min(b), a.max(b))
        }
    };
    lp.set_bounds(var, lower, upper);
}

/// Solves `lp` cold and, while the solves stay optimal and warm, twice
/// re-solves it from its snapshot after four edits.
fn fold_lp(fold: &mut Fold, rng: &mut StdRng, mut lp: LinearProgram) {
    let (cold, snapshot) = lp.solve_with_snapshot();
    fold.lp(&cold);
    let Some(mut snapshot) = snapshot else {
        return;
    };
    for _ in 0..2 {
        for _ in 0..4 {
            edit(rng, &mut lp);
        }
        match lp.solve_from_basis(&mut snapshot) {
            Some(warm) => fold.lp(&warm),
            None => {
                fold.word(u64::MAX);
                fold.lp(&lp.solve());
                return;
            }
        }
    }
    fold.count(snapshot.warm_uses());
}

/// Rows over no variables: each reads `0 (op) rhs`.
fn zero_width_lp(rng: &mut StdRng) -> LinearProgram {
    let mut lp = LinearProgram::new();
    for _ in 0..rng.gen_range(1..=4usize) {
        let rhs = f64::from(rng.gen_range(-2..=2i32)) * 0.5;
        lp.add_constraint(&[], random_op(rng), rhs);
    }
    lp
}

/// A random MILP: 2–8 binaries and 0–3 continuous variables under random
/// rows, half with an objective.
fn random_milp(rng: &mut StdRng) -> MilpProblem {
    let integral = rng.gen_bool(0.5);
    let mut milp = MilpProblem::new();
    for _ in 0..rng.gen_range(2..=8usize) {
        milp.add_binary();
    }
    for _ in 0..rng.gen_range(0..=3usize) {
        let lower = f64::from(rng.gen_range(-2..=0i32));
        milp.add_variable(lower, lower + rng.gen_range(1.0..4.0));
    }
    let n = milp.lp().num_variables();
    if rng.gen_bool(0.5) {
        let objective = sparse_row(rng, n, 1.0, integral);
        milp.lp_mut().set_objective(&objective, rng.gen_bool(0.5));
    }
    for _ in 0..rng.gen_range(1..=6usize) {
        let coeffs = sparse_row(rng, n, 0.6, integral);
        let rhs = coefficient(rng, integral) + 0.5;
        let op = if rng.gen_bool(0.15) {
            ConstraintOp::Eq
        } else if rng.gen_bool(0.5) {
            ConstraintOp::Le
        } else {
            ConstraintOp::Ge
        };
        milp.lp_mut().add_constraint(&coeffs, op, rhs);
    }
    milp
}

/// The shape of a verification query: a box input, one hidden layer of
/// big-M ReLUs with interval pre-activation bounds, and a feasibility
/// question on a linear output (`output ≥ threshold`), which is what
/// `dpv-core` hands to the solver.
fn relu_milp(rng: &mut StdRng) -> MilpProblem {
    let mut milp = MilpProblem::new();
    let inputs: Vec<_> = (0..rng.gen_range(2..=4usize))
        .map(|_| milp.add_variable(-1.0, 1.0))
        .collect();
    let mut output = Vec::new();
    let mut reach = 0.0;
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
        let weight = rng.gen_range(-1.0..1.0);
        reach += weight * if weight > 0.0 { upper.max(0.0) } else { 0.0 };
        output.push((post, weight));
    }
    let threshold = reach * rng.gen_range(0.2..1.1);
    milp.lp_mut()
        .add_constraint(&output, ConstraintOp::Ge, threshold);
    milp
}

#[test]
fn the_pivot_sequence_matches_the_pinned_engine() {
    let mut lps = Fold::new();
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..400 {
        let (n, m) = (rng.gen_range(1..=10usize), rng.gen_range(1..=12usize));
        let lp = random_lp(&mut rng, n, m);
        fold_lp(&mut lps, &mut rng, lp);
    }
    for _ in 0..24 {
        let (n, m) = (rng.gen_range(20..=60usize), rng.gen_range(20..=60usize));
        let lp = random_lp(&mut rng, n, m);
        fold_lp(&mut lps, &mut rng, lp);
    }
    for _ in 0..24 {
        let lp = ill_scaled_lp(&mut rng);
        fold_lp(&mut lps, &mut rng, lp);
    }
    for _ in 0..24 {
        let lp = zero_width_lp(&mut rng);
        fold_lp(&mut lps, &mut rng, lp);
    }
    let mut random = Fold::new();
    for _ in 0..24 {
        random.milp(&random_milp(&mut rng).solve());
    }
    let mut relu = Fold::new();
    for _ in 0..24 {
        relu.milp(&relu_milp(&mut rng).solve());
    }
    assert!(
        (lps.0, random.0, relu.0) == (LP_PIN, RANDOM_MILP_PIN, RELU_MILP_PIN),
        "the corpus folds to LP_PIN {:#018x} (pinned {LP_PIN:#018x}), RANDOM_MILP_PIN {:#018x} \
         (pinned {RANDOM_MILP_PIN:#018x}) and RELU_MILP_PIN {:#018x} (pinned \
         {RELU_MILP_PIN:#018x}); a moved LP_PIN means the simplex pivot sequence changed",
        lps.0,
        random.0,
        relu.0
    );
}
