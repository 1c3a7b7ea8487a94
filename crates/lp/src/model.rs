//! LP model builder and solution types.

use std::fmt;

use crate::simplex;

/// Index of a decision variable within a [`LinearProgram`].
pub type VarId = usize;

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ConstraintOp::Le => "<=",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Eq => "=",
        })
    }
}

/// One linear constraint `Σ coeff_i · x_i  op  rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Sparse coefficient list `(variable, coefficient)`.
    pub coeffs: Vec<(VarId, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint system is infeasible.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The simplex iteration budget was exhausted before the solve finished —
    /// numerical trouble or an adversarially degenerate model. Neither
    /// optimality nor infeasibility was established; callers must treat the
    /// outcome as "unknown" rather than aborting.
    IterationLimit,
    /// A [`crate::CancelToken`] tripped (explicit cancellation or an expired
    /// deadline) before the solve finished. Like
    /// [`LpStatus::IterationLimit`] this establishes neither optimality nor
    /// infeasibility — the solve simply stopped cooperating early.
    Cancelled,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Optimal variable assignment (empty unless `status == Optimal`).
    pub values: Vec<f64>,
    /// Optimal objective value (meaningful only when `status == Optimal`).
    pub objective: f64,
    /// Simplex pivots performed by this solve (all phases).
    pub iterations: usize,
    /// `true` when the solve was taken warm from a [`BasisSnapshot`]
    /// (dual-simplex repair) instead of running the two cold phases.
    ///
    /// [`BasisSnapshot`]: crate::BasisSnapshot
    pub warm_started: bool,
}

impl LpSolution {
    /// Convenience constructor for non-optimal outcomes.
    pub(crate) fn non_optimal(status: LpStatus) -> Self {
        Self {
            status,
            values: Vec::new(),
            objective: 0.0,
            iterations: 0,
            warm_started: false,
        }
    }

    /// Returns `true` when an optimum was found.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// A linear program with per-variable bounds.
///
/// Variables are created with [`LinearProgram::add_variable`], which returns
/// a [`VarId`] used in constraint and objective coefficient lists. The
/// objective defaults to the constant zero (pure feasibility problem).
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) objective: Vec<f64>,
    pub(crate) maximize: bool,
    pub(crate) constraints: Vec<Constraint>,
    /// Optional simplex pivot budget; `None` selects a size-derived default.
    pub(crate) max_iterations: Option<usize>,
}

impl Default for LinearProgram {
    fn default() -> Self {
        Self::new()
    }
}

impl LinearProgram {
    /// Creates an empty program (no variables, zero objective).
    pub fn new() -> Self {
        Self {
            lower: Vec::new(),
            upper: Vec::new(),
            objective: Vec::new(),
            maximize: false,
            constraints: Vec::new(),
            max_iterations: None,
        }
    }

    /// Pre-allocates storage for `vars` additional variables and `rows`
    /// additional constraints. Encoders that know their output size up front
    /// (e.g. the layer-skeleton template in `dpv-core`) use this to avoid
    /// repeated re-allocation while the model grows.
    pub fn reserve(&mut self, vars: usize, rows: usize) {
        self.lower.reserve(vars);
        self.upper.reserve(vars);
        self.objective.reserve(vars);
        self.constraints.reserve(rows);
    }

    /// Adds a variable with bounds `[lower, upper]` (either may be infinite)
    /// and returns its id.
    ///
    /// # Panics
    /// Panics when `lower > upper` or either bound is NaN.
    pub fn add_variable(&mut self, lower: f64, upper: f64) -> VarId {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(
            lower <= upper,
            "lower bound {lower} exceeds upper bound {upper}"
        );
        self.lower.push(lower);
        self.upper.push(upper);
        self.objective.push(0.0);
        self.lower.len() - 1
    }

    /// Number of variables.
    pub fn num_variables(&self) -> usize {
        self.lower.len()
    }

    /// Number of row constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Bounds of a variable.
    ///
    /// # Panics
    /// Panics when `var` is out of range.
    pub fn bounds(&self, var: VarId) -> (f64, f64) {
        (self.lower[var], self.upper[var])
    }

    /// Tightens the bounds of an existing variable (intersection with the
    /// current bounds).
    ///
    /// # Panics
    /// Panics when `var` is out of range.
    pub fn tighten_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.lower[var] = self.lower[var].max(lower);
        self.upper[var] = self.upper[var].min(upper);
    }

    /// Overwrites the bounds of an existing variable. Unlike
    /// [`LinearProgram::tighten_bounds`] this does not intersect with the
    /// current bounds, which lets branch-and-bound solvers fix a variable on
    /// descent and *restore* its saved bounds on backtrack against a single
    /// scratch program instead of cloning the whole model per node.
    ///
    /// # Panics
    /// Panics when `var` is out of range, `lower > upper`, or either bound
    /// is NaN.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        assert!(
            !lower.is_nan() && !upper.is_nan(),
            "variable bounds must not be NaN"
        );
        assert!(
            lower <= upper,
            "lower bound {lower} exceeds upper bound {upper}"
        );
        self.lower[var] = lower;
        self.upper[var] = upper;
    }

    /// Sets the objective `Σ coeff_i · x_i`, maximised when `maximize` is
    /// `true` and minimised otherwise. Variables not mentioned keep
    /// coefficient zero.
    pub fn set_objective(&mut self, coeffs: &[(VarId, f64)], maximize: bool) {
        for c in &mut self.objective {
            *c = 0.0;
        }
        for (var, coeff) in coeffs {
            self.objective[*var] += coeff;
        }
        self.maximize = maximize;
    }

    /// Adds a row constraint.
    ///
    /// # Panics
    /// Panics when a referenced variable does not exist or the right-hand
    /// side is NaN.
    pub fn add_constraint(&mut self, coeffs: &[(VarId, f64)], op: ConstraintOp, rhs: f64) {
        assert!(!rhs.is_nan(), "constraint rhs must not be NaN");
        for (var, _) in coeffs {
            assert!(
                *var < self.num_variables(),
                "constraint references unknown variable {var}"
            );
        }
        self.constraints.push(Constraint {
            coeffs: coeffs.to_vec(),
            op,
            rhs,
        });
    }

    /// Overwrites the right-hand side of an existing constraint, leaving its
    /// coefficients and operator untouched. This is a *bound-shaped* edit:
    /// like [`LinearProgram::set_bounds`] it only moves the standard-form
    /// right-hand side, so warm restarts from a [`crate::BasisSnapshot`]
    /// remain valid across it (the refinement template uses this for the
    /// octagon difference rows).
    ///
    /// # Panics
    /// Panics when `index` is out of range or `rhs` is NaN.
    pub fn set_constraint_rhs(&mut self, index: usize, rhs: f64) {
        assert!(!rhs.is_nan(), "constraint rhs must not be NaN");
        self.constraints[index].rhs = rhs;
    }

    /// Overrides the simplex pivot budget (`None` restores the size-derived
    /// default). When the budget runs out a solve reports
    /// [`LpStatus::IterationLimit`] instead of panicking.
    pub fn set_iteration_limit(&mut self, limit: Option<usize>) {
        self.max_iterations = limit;
    }

    /// The explicit simplex pivot budget, when one was set.
    pub fn iteration_limit(&self) -> Option<usize> {
        self.max_iterations
    }

    /// Objective coefficients (dense, aligned with variable ids).
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Whether the objective is maximised.
    pub fn is_maximization(&self) -> bool {
        self.maximize
    }

    /// The row constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Evaluates `Σ coeff_i · x_i` for an assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(values.iter())
            .map(|(c, v)| c * v)
            .sum()
    }

    /// Checks whether `values` satisfies all bounds and constraints up to
    /// tolerance `eps`.
    pub fn is_feasible(&self, values: &[f64], eps: f64) -> bool {
        if values.len() != self.num_variables() {
            return false;
        }
        for (i, v) in values.iter().enumerate() {
            if *v < self.lower[i] - eps || *v > self.upper[i] + eps {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c
                .coeffs
                .iter()
                .map(|(var, coeff)| coeff * values[*var])
                .sum();
            match c.op {
                ConstraintOp::Le => lhs <= c.rhs + eps,
                ConstraintOp::Ge => lhs >= c.rhs - eps,
                ConstraintOp::Eq => (lhs - c.rhs).abs() <= eps,
            }
        })
    }

    /// A conservative overestimate of the size-derived default simplex pivot
    /// budget this program receives when no explicit limit is set (the
    /// internal default depends on the standard-form dimensions, which are
    /// bounded by this expression). Escalated retries use it to raise the
    /// budget by a known factor without reverse-engineering the
    /// standardisation.
    pub fn estimated_iteration_budget(&self) -> usize {
        50_000 + 200 * (5 * self.num_variables() + 3 * self.num_constraints())
    }

    /// Solves the LP with the two-phase primal simplex method.
    pub fn solve(&self) -> LpSolution {
        simplex::solve(self, None)
    }

    /// Solves cold and, when the final basis supports it, additionally
    /// returns a [`crate::BasisSnapshot`] that [`LinearProgram::solve_from_basis`]
    /// can re-solve from after bound-only changes.
    pub fn solve_with_snapshot(&self) -> (LpSolution, Option<crate::BasisSnapshot>) {
        simplex::solve_with_snapshot(self, None)
    }

    /// Warm re-solve from a previous solve's basis.
    ///
    /// Valid after **bound-shaped** edits only: [`LinearProgram::set_bounds`] /
    /// [`LinearProgram::tighten_bounds`] changes that preserve each bound's
    /// finiteness pattern, and [`LinearProgram::set_constraint_rhs`]. Those
    /// edits move only the standard-form right-hand side, so the stored basis
    /// stays dual feasible and a dual-simplex phase repairs primal
    /// feasibility instead of re-running both cold phases. The structural
    /// fingerprint is re-checked on every call; coefficient or objective
    /// changes, or numerical trouble, make the call return `None` — the
    /// snapshot must then be discarded and replaced via
    /// [`LinearProgram::solve_with_snapshot`]. On success the snapshot is
    /// updated in place to the new final basis, ready for the next re-solve.
    pub fn solve_from_basis(&self, snapshot: &mut crate::BasisSnapshot) -> Option<LpSolution> {
        simplex::solve_from_basis(self, snapshot, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variables_and_bounds() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(-1.0, 1.0);
        assert_eq!(lp.num_variables(), 2);
        assert_eq!(lp.bounds(x), (0.0, 5.0));
        lp.tighten_bounds(y, -0.5, 2.0);
        assert_eq!(lp.bounds(y), (-0.5, 1.0));
    }

    #[test]
    fn set_bounds_overwrites_instead_of_intersecting() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        // Fix on descent…
        lp.set_bounds(x, 1.0, 1.0);
        assert_eq!(lp.bounds(x), (1.0, 1.0));
        // …and restore on backtrack: tighten_bounds could not widen again.
        lp.set_bounds(x, 0.0, 1.0);
        assert_eq!(lp.bounds(x), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn set_bounds_validates_ordering() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.set_bounds(x, 2.0, 1.0);
    }

    #[test]
    fn feasibility_check() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 10.0);
        let y = lp.add_variable(0.0, 10.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 5.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 1.0);
        assert!(lp.is_feasible(&[1.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[0.0, 2.0], 1e-9));
        assert!(!lp.is_feasible(&[4.0, 4.0], 1e-9));
        assert!(!lp.is_feasible(&[1.0], 1e-9));
    }

    #[test]
    fn objective_bookkeeping() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        let y = lp.add_variable(0.0, 1.0);
        lp.set_objective(&[(x, 2.0), (y, -1.0)], true);
        assert!(lp.is_maximization());
        assert_eq!(lp.objective_value(&[1.0, 1.0]), 1.0);
        lp.set_objective(&[(y, 3.0)], false);
        assert_eq!(lp.objective(), &[0.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_validates_variable_ids() {
        let mut lp = LinearProgram::new();
        let _ = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(3, 1.0)], ConstraintOp::Le, 1.0);
    }

    #[test]
    #[should_panic(expected = "lower bound")]
    fn add_variable_validates_bounds() {
        let mut lp = LinearProgram::new();
        let _ = lp.add_variable(2.0, 1.0);
    }

    #[test]
    fn constraint_op_display() {
        assert_eq!(ConstraintOp::Le.to_string(), "<=");
        assert_eq!(ConstraintOp::Ge.to_string(), ">=");
        assert_eq!(ConstraintOp::Eq.to_string(), "=");
    }
}
