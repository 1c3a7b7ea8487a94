//! Big-M encoding of ReLU constraints.

use crate::{ConstraintOp, MilpProblem, VarId};

/// The variables participating in one encoded ReLU `y = max(0, x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReluEncoding {
    /// Pre-activation variable `x`.
    pub input: VarId,
    /// Post-activation variable `y`.
    pub output: VarId,
    /// Phase indicator `δ` (`None` when the phase is fixed by the bounds, so
    /// no binary variable was needed).
    pub indicator: Option<VarId>,
}

/// Encodes `output = max(0, input)` into `problem`, given known bounds
/// `[lower, upper]` on the pre-activation `input`.
///
/// Three cases, exactly as in MILP encodings of piecewise-linear networks
/// (Cheng et al. 2017, Lomuscio & Maganti 2017 — the approaches the paper
/// cites as its verification back-ends):
///
/// * `lower >= 0`: the ReLU is always active → `output = input` (no binary).
/// * `upper <= 0`: the ReLU is always inactive → `output = 0` (no binary).
/// * otherwise, introduce a binary `δ` and the big-M constraints
///   `output ≥ input`, `output ≥ 0`, `output ≤ input − lower·(1 − δ)`,
///   `output ≤ upper·δ`, and record `δ`, `output` and the row
///   `output − input ≥ 0` as the problem's [`crate::ReluLink`] of `δ`
///   ([`MilpProblem::link_relu`]).
///
/// Tight pre-activation bounds (from abstract interpretation or from the
/// assume-guarantee envelope) therefore directly shrink both the number of
/// binaries and the big-M constants — the mechanism behind experiment E4.
/// `dpv-core`'s network encoder writes these rows with `x` an affine
/// expression, from each region's own bounds.
///
/// The `output` variable must already exist in `problem`; its bounds are
/// tightened to `[max(0, lower), max(0, upper)]`.
///
/// # Panics
/// Panics when `lower > upper` or either bound is non-finite.
pub fn encode_relu_big_m(
    problem: &mut MilpProblem,
    input: VarId,
    output: VarId,
    lower: f64,
    upper: f64,
) -> ReluEncoding {
    assert!(
        lower.is_finite() && upper.is_finite(),
        "ReLU encoding requires finite pre-activation bounds"
    );
    assert!(
        lower <= upper,
        "ReLU bounds are inverted: [{lower}, {upper}]"
    );

    problem
        .lp_mut()
        .tighten_bounds(output, lower.max(0.0), upper.max(0.0));

    if lower >= 0.0 {
        // Always active: y = x.
        problem
            .lp_mut()
            .add_constraint(&[(output, 1.0), (input, -1.0)], ConstraintOp::Eq, 0.0);
        return ReluEncoding {
            input,
            output,
            indicator: None,
        };
    }
    if upper <= 0.0 {
        // Always inactive: y = 0.
        problem
            .lp_mut()
            .add_constraint(&[(output, 1.0)], ConstraintOp::Eq, 0.0);
        return ReluEncoding {
            input,
            output,
            indicator: None,
        };
    }

    let delta = problem.add_binary();
    // y >= x, the row the search reads the pre-activation back from.
    problem
        .lp_mut()
        .add_constraint(&[(output, 1.0), (input, -1.0)], ConstraintOp::Ge, 0.0);
    let row = problem.lp().num_constraints() - 1;
    problem.link_relu(delta, output, row);
    // y >= 0 is implied by the tightened lower bound on `output`.
    // y <= x - lower * (1 - delta)  ⇔  y - x - lower*delta <= -lower
    problem.lp_mut().add_constraint(
        &[(output, 1.0), (input, -1.0), (delta, -lower)],
        ConstraintOp::Le,
        -lower,
    );
    // y <= upper * delta
    problem
        .lp_mut()
        .add_constraint(&[(output, 1.0), (delta, -upper)], ConstraintOp::Le, 0.0);

    ReluEncoding {
        input,
        output,
        indicator: Some(delta),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MilpStatus, SOLVER_EPS};

    /// Builds a MILP with one encoded ReLU, fixes the input to `x_value` and
    /// maximises / minimises the output to confirm `y = max(0, x)`.
    fn relu_output_at(x_value: f64, lower: f64, upper: f64) -> f64 {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(lower, upper);
        let y = milp.add_variable(0.0, 10.0);
        encode_relu_big_m(&mut milp, x, y, lower, upper);
        milp.lp_mut().tighten_bounds(x, x_value, x_value);
        milp.lp_mut().set_objective(&[(y, 1.0)], true);
        let max_sol = milp.solve();
        assert_eq!(max_sol.status, MilpStatus::Optimal);
        milp.lp_mut().set_objective(&[(y, 1.0)], false);
        let min_sol = milp.solve();
        assert_eq!(min_sol.status, MilpStatus::Optimal);
        assert!(
            (max_sol.objective - min_sol.objective).abs() < 1e-6,
            "ReLU output is not uniquely determined: [{}, {}]",
            min_sol.objective,
            max_sol.objective
        );
        max_sol.objective
    }

    #[test]
    fn relu_matches_reference_on_grid() {
        for x in [-2.0, -0.7, 0.0, 0.3, 1.9] {
            let encoded = relu_output_at(x, -2.0, 2.0);
            assert!((encoded - x.max(0.0)).abs() < 1e-6, "x = {x}: {encoded}");
        }
    }

    #[test]
    fn always_active_case_has_no_binary() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(0.5, 2.0);
        let y = milp.add_variable(0.0, 10.0);
        let enc = encode_relu_big_m(&mut milp, x, y, 0.5, 2.0);
        assert!(enc.indicator.is_none());
        assert_eq!(milp.binaries().len(), 0);
    }

    #[test]
    fn always_inactive_case_forces_zero() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(-3.0, -1.0);
        let y = milp.add_variable(0.0, 10.0);
        let enc = encode_relu_big_m(&mut milp, x, y, -3.0, -1.0);
        assert!(enc.indicator.is_none());
        milp.lp_mut().set_objective(&[(y, 1.0)], true);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.objective.abs() < SOLVER_EPS);
    }

    #[test]
    fn unstable_case_uses_binary_and_bounds_output() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(-1.0, 2.0);
        let y = milp.add_variable(0.0, 10.0);
        let enc = encode_relu_big_m(&mut milp, x, y, -1.0, 2.0);
        assert!(enc.indicator.is_some());
        // The maximal output over all inputs is the upper bound.
        milp.lp_mut().set_objective(&[(y, 1.0)], true);
        let sol = milp.solve();
        assert!((sol.objective - 2.0).abs() < 1e-6);
        // And the minimal output is zero.
        milp.lp_mut().set_objective(&[(y, 1.0)], false);
        let sol = milp.solve();
        assert!(sol.objective.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn requires_finite_bounds() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(-1.0, 1.0);
        let y = milp.add_variable(0.0, 1.0);
        let _ = encode_relu_big_m(&mut milp, x, y, f64::NEG_INFINITY, 1.0);
    }
}
