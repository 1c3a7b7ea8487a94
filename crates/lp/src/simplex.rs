//! Dense two-phase primal simplex with warm-start support.
//!
//! The implementation favours clarity and robustness over speed: the
//! verification instances produced by `dpv-core` stay small (hundreds of
//! variables), and Bland's rule guarantees termination without cycling.
//!
//! # Warm starts
//!
//! Branch-and-bound and the refinement loop re-solve the *same* constraint
//! matrix under different variable bounds thousands of times. A cold solve
//! pays for two full simplex phases every time; the warm path
//! ([`LinearProgram::solve_from_basis`]) instead reuses the final tableau of
//! a previous solve (a [`BasisSnapshot`]):
//!
//! * every tableau carries a full identity block (one column per row, doubling
//!   as the phase-1 artificial variables), so the accumulated row operations
//!   `G = B⁻¹·S` are always available explicitly;
//! * a bound-only change alters *only* the standard-form right-hand side `b`
//!   (variable shifts move constraint offsets; bound rows get a new width),
//!   never the coefficient matrix or the standard-form cost vector — so the
//!   old basis stays **dual feasible** and the new tableau rhs is just
//!   `G·S·b'`, an O(m²) refresh instead of a rebuild-and-re-factor;
//! * a **dual simplex** phase then repairs primal feasibility (negative rhs
//!   entries), after which a short primal clean-up polishes any residual
//!   reduced-cost noise.
//!
//! The snapshot encodes a structural fingerprint (variable-bound finiteness
//! pattern, constraint counts, objective); whenever it does not match the
//! program being solved — or the numerics look off — the warm path declines
//! and the caller falls back to a cold solve, so warm starting is purely an
//! optimisation and never changes results.

use crate::{CancelToken, ConstraintOp, LinearProgram, LpSolution, LpStatus, SOLVER_EPS};

/// A sparse constraint row `coeffs (op) rhs` over standard-form variables.
type SparseRow = (Vec<(usize, f64)>, ConstraintOp, f64);

/// How each user-facing variable maps onto the non-negative standard-form
/// variables.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lower + z[idx]`
    Shifted { idx: usize, lower: f64 },
    /// `x = upper - z[idx]` (used when only the upper bound is finite)
    Mirrored { idx: usize, upper: f64 },
    /// `x = z[pos] - z[neg]` (free variable)
    Split { pos: usize, neg: usize },
}

/// The structural shape of a variable's mapping — the part of [`VarMap`] that
/// must be *identical* between two programs for a basis to be transferable.
/// Bound **values** may differ (that is the point of warm starting); bound
/// **finiteness** may not, because it decides the standard-form layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarKind {
    /// Finite lower and upper bound (shifted variable plus a bound row).
    Boxed,
    /// Finite lower bound only (shifted variable, no bound row).
    LowerOnly,
    /// Finite upper bound only (mirrored variable).
    UpperOnly,
    /// No finite bounds (split into a positive/negative pair).
    Free,
}

fn var_kind(lo: f64, hi: f64) -> VarKind {
    match (lo.is_finite(), hi.is_finite()) {
        (true, true) => VarKind::Boxed,
        (true, false) => VarKind::LowerOnly,
        (false, true) => VarKind::UpperOnly,
        (false, false) => VarKind::Free,
    }
}

struct StandardForm {
    /// Objective for the standard variables (minimisation).
    cost: Vec<f64>,
    /// Constraint rows `a·z (op) rhs` over the standard variables.
    rows: Vec<(Vec<f64>, ConstraintOp, f64)>,
    /// Mapping from user variables to standard variables.
    mapping: Vec<VarMap>,
    /// Number of standard variables.
    num_vars: usize,
    /// Constant offset added to the objective by the variable shifts.
    offset: f64,
}

/// Builds the variable mapping alone (shared by the cold standardisation and
/// the warm-path compatibility check / rhs refresh).
fn build_mapping(lp: &LinearProgram) -> (Vec<VarMap>, usize) {
    let n = lp.num_variables();
    let mut mapping = Vec::with_capacity(n);
    let mut num_vars = 0usize;
    for i in 0..n {
        let (lo, hi) = (lp.lower[i], lp.upper[i]);
        if lo.is_finite() {
            mapping.push(VarMap::Shifted {
                idx: num_vars,
                lower: lo,
            });
            num_vars += 1;
        } else if hi.is_finite() {
            mapping.push(VarMap::Mirrored {
                idx: num_vars,
                upper: hi,
            });
            num_vars += 1;
        } else {
            mapping.push(VarMap::Split {
                pos: num_vars,
                neg: num_vars + 1,
            });
            num_vars += 2;
        }
    }
    (mapping, num_vars)
}

/// Standard-form cost vector (minimisation) and the constant objective offset
/// introduced by the variable shifts.
fn standard_cost(lp: &LinearProgram, mapping: &[VarMap], num_vars: usize) -> (Vec<f64>, f64) {
    let sign = if lp.maximize { -1.0 } else { 1.0 };
    let mut cost = vec![0.0; num_vars];
    let mut offset = 0.0;
    for (i, map) in mapping.iter().enumerate() {
        let c = sign * lp.objective[i];
        if c == 0.0 {
            continue;
        }
        match *map {
            VarMap::Shifted { idx, lower } => {
                cost[idx] += c;
                offset += c * lower;
            }
            VarMap::Mirrored { idx, upper } => {
                cost[idx] -= c;
                offset += c * upper;
            }
            VarMap::Split { pos, neg } => {
                cost[pos] += c;
                cost[neg] -= c;
            }
        }
    }
    (cost, offset)
}

/// Standard-form right-hand sides in tableau row order (constraint rows
/// first, then the bound rows of doubly-bounded variables in variable order),
/// computed sparsely without materialising any coefficient rows. This is the
/// only part of the standard form a bound-only change can alter.
fn standard_rhs(lp: &LinearProgram, mapping: &[VarMap]) -> Vec<f64> {
    let mut rhs = Vec::with_capacity(lp.constraints.len());
    for constraint in &lp.constraints {
        let mut b = constraint.rhs;
        for (var, coeff) in &constraint.coeffs {
            match mapping[*var] {
                VarMap::Shifted { lower, .. } => b -= coeff * lower,
                VarMap::Mirrored { upper, .. } => b -= coeff * upper,
                VarMap::Split { .. } => {}
            }
        }
        rhs.push(b);
    }
    for (i, map) in mapping.iter().enumerate() {
        if let VarMap::Shifted { .. } = map {
            if lp.upper[i].is_finite() {
                rhs.push(lp.upper[i] - lp.lower[i]);
            }
        }
    }
    rhs
}

/// Builds the standard form: all variables non-negative, objective minimised.
fn standardize(lp: &LinearProgram) -> StandardForm {
    let (mapping, num_vars) = build_mapping(lp);
    let mut extra_rows: Vec<SparseRow> = Vec::new();
    for (i, map) in mapping.iter().enumerate() {
        if let VarMap::Shifted { idx, lower } = map {
            if lp.upper[i].is_finite() {
                extra_rows.push((vec![(*idx, 1.0)], ConstraintOp::Le, lp.upper[i] - lower));
            }
        }
    }

    let (cost, offset) = standard_cost(lp, &mapping, num_vars);

    // Constraint rows.
    let mut rows = Vec::with_capacity(lp.constraints.len() + extra_rows.len());
    for constraint in &lp.constraints {
        let mut row = vec![0.0; num_vars];
        let mut rhs = constraint.rhs;
        for (var, coeff) in &constraint.coeffs {
            match mapping[*var] {
                VarMap::Shifted { idx, lower } => {
                    row[idx] += coeff;
                    rhs -= coeff * lower;
                }
                VarMap::Mirrored { idx, upper } => {
                    row[idx] -= coeff;
                    rhs -= coeff * upper;
                }
                VarMap::Split { pos, neg } => {
                    row[pos] += coeff;
                    row[neg] -= coeff;
                }
            }
        }
        rows.push((row, constraint.op, rhs));
    }
    for (sparse, op, rhs) in extra_rows {
        let mut row = vec![0.0; num_vars];
        for (idx, coeff) in sparse {
            row[idx] += coeff;
        }
        rows.push((row, op, rhs));
    }

    StandardForm {
        cost,
        rows,
        mapping,
        num_vars,
        offset,
    }
}

/// Fingerprint of a program's standard-form *structure*: everything the warm
/// path must see unchanged for a stored basis to remain meaningful. Bound
/// values and constraint right-hand sides are deliberately excluded — those
/// are exactly the edits warm starting exists for.
#[derive(Debug, Clone, PartialEq)]
struct StructureFingerprint {
    var_kinds: Vec<VarKind>,
    num_constraints: usize,
    /// Total number of constraint coefficients, a cheap proxy for "the
    /// coefficient matrix is unchanged" (full equality is the caller's
    /// documented precondition).
    nnz: usize,
    /// Standard-form cost vector — dual feasibility of the stored basis is
    /// only guaranteed while the objective is untouched.
    cost: Vec<f64>,
}

fn fingerprint(lp: &LinearProgram, cost: &[f64]) -> StructureFingerprint {
    StructureFingerprint {
        var_kinds: (0..lp.num_variables())
            .map(|i| var_kind(lp.lower[i], lp.upper[i]))
            .collect(),
        num_constraints: lp.constraints.len(),
        nnz: lp.constraints.iter().map(|c| c.coeffs.len()).sum(),
        cost: cost.to_vec(),
    }
}

/// The final tableau of a solved [`LinearProgram`], reusable as a warm start
/// for re-solves after bound-only changes (see
/// [`LinearProgram::solve_from_basis`]).
///
/// A snapshot is only handed out when the solve ended in a state whose basis
/// is dual feasible and artificial-free at nonzero levels — i.e. a state the
/// dual simplex can safely continue from.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    /// `m x (n_total + 1)` tableau rows; the identity block at columns
    /// `artificial_base..artificial_base + m` holds the accumulated row
    /// operations, the last column the rhs.
    rows: Vec<Vec<f64>>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Sign applied to each row when the tableau was first built (rows with
    /// negative rhs are negated so the initial basis is non-negative).
    signs: Vec<f64>,
    /// Number of structural standard-form variables.
    n: usize,
    /// First column of the identity/artificial block.
    artificial_base: usize,
    /// Total number of columns excluding the rhs.
    n_total: usize,
    /// Structural fingerprint the target program must match.
    structure: StructureFingerprint,
    /// Number of warm re-solves taken from this snapshot (statistics only).
    warm_uses: usize,
}

impl BasisSnapshot {
    /// How many warm re-solves this snapshot has served so far.
    pub fn warm_uses(&self) -> usize {
        self.warm_uses
    }
}

/// Outcome of one simplex phase.
enum PhaseOutcome {
    /// Optimal for the phase cost; carries the objective value.
    Optimal(f64),
    /// The phase cost is unbounded below.
    Unbounded,
    /// The iteration budget ran out (numerical trouble / adversarial model).
    IterationLimit,
    /// The caller's [`CancelToken`] tripped mid-phase.
    Cancelled,
}

/// Outcome of a dual-simplex run.
enum DualOutcome {
    /// Primal feasibility restored (the subsequent primal clean-up pass
    /// recomputes the objective, so none is carried here).
    Feasible,
    /// The dual is unbounded along `row`'s direction — the primal is
    /// infeasible *if* the row still certifies it against the un-drifted
    /// problem data (see `certify_infeasible_row`).
    Infeasible { row: usize },
    /// The iteration budget ran out.
    IterationLimit,
    /// The caller's [`CancelToken`] tripped mid-phase.
    Cancelled,
}

/// Dense simplex tableau with an explicit basis.
struct Tableau {
    /// `m x (n_total + 1)` rows; the last column is the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total number of columns excluding the rhs.
    n_total: usize,
    /// First column of the identity/artificial block; columns at or beyond
    /// this index may never (re-)enter the basis outside phase 1.
    artificial_base: usize,
    /// Pivots performed so far (reported as `LpSolution::iterations`).
    iterations: usize,
    /// Remaining pivot budget.
    budget: usize,
    /// Cooperative cancellation handle, polled every [`CANCEL_POLL_MASK`]+1
    /// pivots.
    cancel: Option<CancelToken>,
}

/// Poll the cancel token when `iterations & CANCEL_POLL_MASK == 0` — every
/// 64 pivots, cheap enough to disappear in the pivot cost while keeping the
/// reaction latency to an expired deadline well below a millisecond.
const CANCEL_POLL_MASK: usize = 63;

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.rows[row][self.n_total]
    }

    /// True when the caller's token tripped; only polled at the
    /// [`CANCEL_POLL_MASK`] stride so the atomic/clock reads stay off the
    /// per-pivot hot path.
    fn cancelled(&self) -> bool {
        self.iterations & CANCEL_POLL_MASK == 0
            && self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Performs one pivot on (`row`, `col`).
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_value = self.rows[row][col];
        debug_assert!(
            pivot_value.abs() > SOLVER_EPS,
            "pivot on a (near-)zero element"
        );
        let inv = 1.0 / pivot_value;
        for value in &mut self.rows[row] {
            *value *= inv;
        }
        let pivot_row = self.rows[row].clone();
        for (r, other) in self.rows.iter_mut().enumerate() {
            if r == row {
                continue;
            }
            let factor = other[col];
            if factor == 0.0 {
                continue;
            }
            for (o, p) in other.iter_mut().zip(pivot_row.iter()) {
                *o -= factor * p;
            }
        }
        self.basis[row] = col;
        self.iterations += 1;
    }

    /// Reduced-cost row `c - c_B B⁻¹ A` for the given phase cost, with the
    /// priced-out constant in the rhs slot.
    fn reduced_costs(&self, cost: &[f64]) -> Vec<f64> {
        let mut reduced = vec![0.0; self.n_total + 1];
        reduced[..cost.len()].copy_from_slice(cost);
        for (row_idx, &basic) in self.basis.iter().enumerate() {
            let cb = if basic < cost.len() { cost[basic] } else { 0.0 };
            if cb == 0.0 {
                continue;
            }
            for (r, value) in reduced.iter_mut().zip(self.rows[row_idx].iter()) {
                *r -= cb * value;
            }
        }
        reduced
    }

    /// Runs the primal simplex on the given cost vector (minimisation).
    /// Entering columns are restricted to indices below `artificial_base`.
    fn optimize(&mut self, cost: &[f64]) -> PhaseOutcome {
        let mut reduced = self.reduced_costs(cost);
        loop {
            if self.cancelled() {
                return PhaseOutcome::Cancelled;
            }
            // Bland's rule: entering column is the smallest index with a
            // negative reduced cost.
            let entering = (0..self.artificial_base).find(|&j| reduced[j] < -SOLVER_EPS);
            let Some(col) = entering else {
                // Optimal: the objective equals the negated constant slot.
                return PhaseOutcome::Optimal(-reduced[self.n_total]);
            };
            // Ratio test, ties broken by the smallest basic variable index.
            let mut leaving: Option<(usize, f64)> = None;
            for row in 0..self.rows.len() {
                let a = self.rows[row][col];
                if a > SOLVER_EPS {
                    let ratio = self.rhs(row) / a;
                    let better = match leaving {
                        None => true,
                        Some((best_row, best_ratio)) => {
                            ratio < best_ratio - SOLVER_EPS
                                || (ratio < best_ratio + SOLVER_EPS
                                    && self.basis[row] < self.basis[best_row])
                        }
                    };
                    if better {
                        leaving = Some((row, ratio));
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return PhaseOutcome::Unbounded;
            };
            if self.budget == 0 {
                return PhaseOutcome::IterationLimit;
            }
            self.budget -= 1;
            self.pivot(row, col);
            // Update the reduced cost row by the same elimination step.
            let factor = reduced[col];
            if factor != 0.0 {
                let pivot_row = self.rows[row].clone();
                for (r, p) in reduced.iter_mut().zip(pivot_row.iter()) {
                    *r -= factor * p;
                }
            }
        }
    }

    /// Runs the **dual** simplex: starting from a dual-feasible basis with
    /// (possibly) negative rhs entries, pivots until the basis is primal
    /// feasible. Returns `Optimal` when primal feasibility is restored,
    /// `Unbounded` when a row proves the program **infeasible** (the dual is
    /// unbounded), `IterationLimit` when the budget runs out.
    ///
    /// Pivot rules: the verification LPs are heavily degenerate (zero
    /// objectives make every dual ratio tie at zero), where pure Bland
    /// index rules stall for hundreds of pivots. The fast phase therefore
    /// picks the **most-violated row** and breaks ratio ties by the
    /// **largest pivot magnitude** (numerically stable, empirically a few
    /// pivots per bound change); if that phase ever stalls past `2·m + 32`
    /// pivots, the loop switches to Bland's dual rule, whose termination
    /// guarantee then applies. The overall budget still backstops
    /// everything — running out means the caller re-solves cold.
    fn dual_optimize(&mut self, cost: &[f64]) -> DualOutcome {
        let mut reduced = self.reduced_costs(cost);
        let heuristic_budget = 2 * self.rows.len() + 32;
        let mut pivots = 0usize;
        loop {
            if self.cancelled() {
                return DualOutcome::Cancelled;
            }
            let blands = pivots >= heuristic_budget;
            // Leaving row: most-negative rhs (fast phase), or the smallest
            // basic index among violated rows (Bland phase).
            let mut leaving: Option<(usize, f64)> = None;
            for row in 0..self.rows.len() {
                let rhs = self.rhs(row);
                if rhs < -1e-9 {
                    let better = match leaving {
                        None => true,
                        Some((best_row, best_rhs)) => {
                            if blands {
                                self.basis[row] < self.basis[best_row]
                            } else {
                                rhs < best_rhs
                            }
                        }
                    };
                    if better {
                        leaving = Some((row, rhs));
                    }
                }
            }
            let Some((row, _)) = leaving else {
                return DualOutcome::Feasible;
            };
            // Entering column: minimise reduced[j] / -a[row][j] over eligible
            // columns with a negative pivot element; ties by the largest
            // |pivot| (fast phase) or the smallest index (Bland phase).
            let mut entering: Option<(usize, f64, f64)> = None;
            for (j, (&a, &red)) in self.rows[row]
                .iter()
                .zip(reduced.iter())
                .take(self.artificial_base)
                .enumerate()
            {
                if a < -SOLVER_EPS {
                    let ratio = red.max(0.0) / -a;
                    let better = match entering {
                        None => true,
                        Some((_, best_ratio, best_mag)) => {
                            if ratio < best_ratio - 1e-9 {
                                true
                            } else if ratio > best_ratio + 1e-9 {
                                false
                            } else {
                                // Tie on the ratio.
                                !blands && a.abs() > best_mag
                            }
                        }
                    };
                    if better {
                        entering = Some((j, ratio, a.abs()));
                    }
                }
            }
            let Some((col, _, _)) = entering else {
                // A row demands a negative value from non-negative variables
                // with non-negative coefficients: primal infeasible (subject
                // to the caller's drift-free certificate check).
                return DualOutcome::Infeasible { row };
            };
            if self.budget == 0 {
                return DualOutcome::IterationLimit;
            }
            self.budget -= 1;
            pivots += 1;
            self.pivot(row, col);
            let factor = reduced[col];
            if factor != 0.0 {
                let pivot_row = self.rows[row].clone();
                for (r, p) in reduced.iter_mut().zip(pivot_row.iter()) {
                    *r -= factor * p;
                }
            }
        }
    }
}

/// Verifies a dual-simplex infeasibility declaration against the
/// **un-drifted** problem data. The triggering tableau row is a linear
/// combination `w` of the original standard-form equations (recovered from
/// the identity block and the build-time row signs); for any feasible
/// `z ≥ 0` it implies `(w·A)·z = w·b` exactly, because `A` and `b` are
/// recomputed from the live constraints rather than read from the (possibly
/// drifted) tableau. If every recomputed column coefficient is non-negative
/// while `w·b` is negative, no non-negative `z` can satisfy the system —
/// a Farkas certificate that holds no matter how degraded the tableau's
/// numerics are. A failed check means the declaration was an artefact of
/// drift and the caller must fall back to a cold solve.
fn certify_infeasible_row(
    lp: &LinearProgram,
    mapping: &[VarMap],
    tableau_row: &[f64],
    signs: &[f64],
    n: usize,
    artificial_base: usize,
    b: &[f64],
) -> bool {
    let m = signs.len();
    // w = (identity-block entries of the row) · (build-time signs).
    let mut w = Vec::with_capacity(m);
    for (k, sign) in signs.iter().enumerate() {
        w.push(tableau_row[artificial_base + k] * sign);
    }

    // v = w · A, recomputed sparsely from the live constraints.
    let mut v = vec![0.0; artificial_base];
    let mut slack_cursor = n;
    for (row, constraint) in lp.constraints.iter().enumerate() {
        let weight = w[row];
        if weight != 0.0 {
            for (var, coeff) in &constraint.coeffs {
                match mapping[*var] {
                    VarMap::Shifted { idx, .. } => v[idx] += weight * coeff,
                    VarMap::Mirrored { idx, .. } => v[idx] -= weight * coeff,
                    VarMap::Split { pos, neg } => {
                        v[pos] += weight * coeff;
                        v[neg] -= weight * coeff;
                    }
                }
            }
        }
        match constraint.op {
            ConstraintOp::Le => {
                v[slack_cursor] += weight;
                slack_cursor += 1;
            }
            ConstraintOp::Ge => {
                v[slack_cursor] -= weight;
                slack_cursor += 1;
            }
            ConstraintOp::Eq => {}
        }
    }
    // Bound rows (`z_idx ≤ hi − lo`, slack +1), in variable order after the
    // constraint rows.
    let mut bound_row = lp.constraints.len();
    for (i, map) in mapping.iter().enumerate() {
        if let VarMap::Shifted { idx, .. } = map {
            if lp.upper[i].is_finite() {
                let weight = w[bound_row];
                if weight != 0.0 {
                    v[*idx] += weight;
                    v[slack_cursor] += weight;
                }
                slack_cursor += 1;
                bound_row += 1;
            }
        }
    }

    let scale = 1.0 + w.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
    let tol = 1e-8 * scale;
    let rhs_dot: f64 = w.iter().zip(b.iter()).map(|(wk, bk)| wk * bk).sum();
    rhs_dot < -tol && v.iter().all(|&coeff| coeff >= -tol)
}

/// Maps standard-variable values back to the user variables.
fn extract_values(lp: &LinearProgram, mapping: &[VarMap], tableau: &Tableau) -> Vec<f64> {
    let mut z = vec![0.0; tableau.n_total];
    for (row, &basic) in tableau.basis.iter().enumerate() {
        if basic < tableau.n_total {
            z[basic] = tableau.rhs(row);
        }
    }
    let mut values = vec![0.0; lp.num_variables()];
    for (i, map) in mapping.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { idx, lower } => lower + z[idx],
            VarMap::Mirrored { idx, upper } => upper - z[idx],
            VarMap::Split { pos, neg } => z[pos] - z[neg],
        };
    }
    values
}

/// Translates the standard-form optimum back into the user objective.
fn user_objective(lp: &LinearProgram, optimum: f64, offset: f64) -> f64 {
    let std_objective = optimum + offset;
    if lp.maximize {
        -std_objective
    } else {
        std_objective
    }
}

fn iteration_budget(lp: &LinearProgram, n_total: usize, rows: usize) -> usize {
    lp.max_iterations.unwrap_or(50_000 + 200 * (n_total + rows))
}

/// Solves a [`LinearProgram`] with the two-phase primal simplex method and,
/// when the final basis supports it, returns a [`BasisSnapshot`] for warm
/// re-solves.
pub(crate) fn solve_with_snapshot(
    lp: &LinearProgram,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    two_phase(lp, true, cancel)
}

/// Two-phase cold solve. With `want_snapshot` false the snapshot (and its
/// fingerprint allocations) is skipped entirely — the cheap path for
/// callers that immediately discard it, like the exhaustive oracle and the
/// warm-start-free reference engine.
fn two_phase(
    lp: &LinearProgram,
    want_snapshot: bool,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    if lp.num_variables() == 0 {
        // Vacuous program: feasible iff every constraint holds for the empty
        // assignment (only constant constraints are possible).
        let feasible = lp.constraints.iter().all(|c| match c.op {
            ConstraintOp::Le => 0.0 <= c.rhs + SOLVER_EPS,
            ConstraintOp::Ge => 0.0 >= c.rhs - SOLVER_EPS,
            ConstraintOp::Eq => c.rhs.abs() <= SOLVER_EPS,
        });
        let solution = if feasible {
            LpSolution {
                status: LpStatus::Optimal,
                values: Vec::new(),
                objective: 0.0,
                iterations: 0,
                warm_started: false,
            }
        } else {
            LpSolution::non_optimal(LpStatus::Infeasible)
        };
        return (solution, None);
    }

    let std_form = standardize(lp);
    let m = std_form.rows.len();
    let n = std_form.num_vars;

    // Count slack/surplus columns; every row additionally gets one identity
    // column (usable as a phase-1 artificial), so the accumulated row
    // operations stay explicitly available for warm rhs refreshes.
    let mut n_slack = 0usize;
    for (_, op, _) in &std_form.rows {
        if *op != ConstraintOp::Eq {
            n_slack += 1;
        }
    }
    let artificial_base = n + n_slack;
    let n_total = artificial_base + m;
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut basis = vec![usize::MAX; m];
    let mut signs = vec![1.0; m];

    let mut slack_cursor = n;

    for (row_idx, (coeffs, op, rhs)) in std_form.rows.iter().enumerate() {
        let mut row = vec![0.0; n_total + 1];
        row[..n].copy_from_slice(coeffs);
        let mut rhs = *rhs;
        let mut slack_col = None;
        match op {
            ConstraintOp::Le => {
                row[slack_cursor] = 1.0;
                slack_col = Some(slack_cursor);
                slack_cursor += 1;
            }
            ConstraintOp::Ge => {
                row[slack_cursor] = -1.0;
                slack_col = Some(slack_cursor);
                slack_cursor += 1;
            }
            ConstraintOp::Eq => {}
        }
        // Make the rhs non-negative, remembering the sign for warm rhs
        // refreshes.
        if rhs < 0.0 {
            for value in row.iter_mut() {
                *value = -*value;
            }
            rhs = -rhs;
            signs[row_idx] = -1.0;
        }
        row[n_total] = rhs;

        // The identity column of this row (also the phase-1 artificial).
        let identity_col = artificial_base + row_idx;
        row[identity_col] = 1.0;

        // Choose the initial basic variable: a slack with +1 coefficient, or
        // the row's identity column.
        let basic = match slack_col {
            Some(col) if row[col] > 0.5 => col,
            _ => identity_col,
        };
        basis[row_idx] = basic;
        rows.push(row);
    }

    let mut tableau = Tableau {
        rows,
        basis,
        n_total,
        artificial_base,
        iterations: 0,
        budget: iteration_budget(lp, n_total, m),
        cancel: cancel.cloned(),
    };

    // Phase 1: minimise the sum of basic artificial variables.
    let needs_phase1 = tableau.basis.iter().any(|&b| b >= artificial_base);
    if needs_phase1 {
        let mut phase1_cost = vec![0.0; n_total];
        for slot in phase1_cost.iter_mut().skip(artificial_base) {
            *slot = 1.0;
        }
        match tableau.optimize(&phase1_cost) {
            PhaseOutcome::Optimal(optimum) => {
                if optimum > 1e-6 {
                    let mut solution = LpSolution::non_optimal(LpStatus::Infeasible);
                    solution.iterations = tableau.iterations;
                    return (solution, None);
                }
            }
            // Phase 1 is never unbounded (cost bounded below by zero), so
            // this arm is reachable only through numerical trouble.
            PhaseOutcome::Unbounded => {
                let mut solution = LpSolution::non_optimal(LpStatus::Infeasible);
                solution.iterations = tableau.iterations;
                return (solution, None);
            }
            PhaseOutcome::IterationLimit => {
                let mut solution = LpSolution::non_optimal(LpStatus::IterationLimit);
                solution.iterations = tableau.iterations;
                return (solution, None);
            }
            PhaseOutcome::Cancelled => {
                let mut solution = LpSolution::non_optimal(LpStatus::Cancelled);
                solution.iterations = tableau.iterations;
                return (solution, None);
            }
        }
        // Drive any artificial variable that is still basic (at level ~0)
        // out of the basis where possible; a row where no structural pivot
        // exists is redundant and keeps its artificial at level zero.
        for row in 0..tableau.rows.len() {
            let basic = tableau.basis[row];
            if basic >= artificial_base {
                let pivot_col = (0..artificial_base).find(|&j| tableau.rows[row][j].abs() > 1e-7);
                if let Some(col) = pivot_col {
                    tableau.pivot(row, col);
                }
            }
        }
        // Entering-column selection is capped at `artificial_base`, so the
        // identity block can never re-enter the basis in phase 2; unlike the
        // classic "zero the artificial columns" trick this keeps B⁻¹ intact
        // for warm restarts.
    }

    // Phase 2: minimise the real objective.
    let mut phase2_cost = vec![0.0; n_total];
    phase2_cost[..n].copy_from_slice(&std_form.cost);
    let optimum = match tableau.optimize(&phase2_cost) {
        PhaseOutcome::Optimal(optimum) => optimum,
        PhaseOutcome::Unbounded => {
            let mut solution = LpSolution::non_optimal(LpStatus::Unbounded);
            solution.iterations = tableau.iterations;
            return (solution, None);
        }
        PhaseOutcome::IterationLimit => {
            let mut solution = LpSolution::non_optimal(LpStatus::IterationLimit);
            solution.iterations = tableau.iterations;
            return (solution, None);
        }
        PhaseOutcome::Cancelled => {
            let mut solution = LpSolution::non_optimal(LpStatus::Cancelled);
            solution.iterations = tableau.iterations;
            return (solution, None);
        }
    };

    let values = extract_values(lp, &std_form.mapping, &tableau);
    let objective = user_objective(lp, optimum, std_form.offset);
    let iterations = tableau.iterations;

    // A snapshot is only useful when no artificial sits in the basis at a
    // meaningful level; redundant rows keep theirs at ~0, which the warm
    // path re-checks against the refreshed rhs.
    let snapshot = want_snapshot.then(|| BasisSnapshot {
        rows: tableau.rows,
        basis: tableau.basis,
        signs,
        n,
        artificial_base,
        n_total,
        structure: fingerprint(lp, &std_form.cost),
        warm_uses: 0,
    });

    (
        LpSolution {
            status: LpStatus::Optimal,
            values,
            objective,
            iterations,
            warm_started: false,
        },
        snapshot,
    )
}

/// Backwards-compatible cold solve.
pub(crate) fn solve(lp: &LinearProgram, cancel: Option<&CancelToken>) -> LpSolution {
    two_phase(lp, false, cancel).0
}

/// Warm re-solve from a previous basis after bound-only (and constraint-rhs)
/// changes. Returns `None` when the snapshot does not structurally match the
/// program or the numerics force a cold fallback; in that case the snapshot
/// must be considered stale and replaced by the caller.
pub(crate) fn solve_from_basis(
    lp: &LinearProgram,
    snapshot: &mut BasisSnapshot,
    cancel: Option<&CancelToken>,
) -> Option<LpSolution> {
    if lp.num_variables() == 0 {
        return None;
    }
    let (mapping, num_vars) = build_mapping(lp);
    if num_vars != snapshot.n {
        return None;
    }
    let (cost, offset) = standard_cost(lp, &mapping, num_vars);
    if fingerprint(lp, &cost) != snapshot.structure {
        return None;
    }

    // Refresh the rhs column: new standard-form b, pushed through the
    // accumulated row operations held in the identity block.
    let b = standard_rhs(lp, &mapping);
    let m = snapshot.rows.len();
    if b.len() != m {
        return None;
    }
    for r in 0..m {
        let mut value = 0.0;
        for (k, (b_k, sign)) in b.iter().zip(snapshot.signs.iter()).enumerate() {
            let g = snapshot.rows[r][snapshot.artificial_base + k];
            if g != 0.0 {
                value += g * sign * b_k;
            }
        }
        let slot = snapshot.n_total;
        snapshot.rows[r][slot] = value;
    }

    // A basic artificial (redundant row in the parent) must stay at level
    // zero under the new rhs; otherwise the rows have become inconsistent in
    // a way only a cold phase 1 can sort out.
    for (row, &basic) in snapshot.basis.iter().enumerate() {
        if basic >= snapshot.artificial_base && snapshot.rows[row][snapshot.n_total].abs() > 1e-7 {
            return None;
        }
    }

    let mut tableau = Tableau {
        rows: std::mem::take(&mut snapshot.rows),
        basis: std::mem::take(&mut snapshot.basis),
        n_total: snapshot.n_total,
        artificial_base: snapshot.artificial_base,
        iterations: 0,
        budget: iteration_budget(lp, snapshot.n_total, m),
        cancel: cancel.cloned(),
    };
    let mut phase_cost = vec![0.0; snapshot.n_total];
    phase_cost[..num_vars].copy_from_slice(&cost);

    // Dual simplex repairs primal feasibility from the (still dual-feasible)
    // parent basis, then a primal clean-up pass polishes any reduced-cost
    // noise left by the refresh.
    let restore = |snapshot: &mut BasisSnapshot, tableau: Tableau| {
        snapshot.rows = tableau.rows;
        snapshot.basis = tableau.basis;
    };
    match tableau.dual_optimize(&phase_cost) {
        DualOutcome::Feasible => {}
        DualOutcome::Infeasible { row } => {
            // Dual unbounded ⇔ primal infeasible — but only accept the
            // verdict when the triggering row still certifies it against
            // the un-drifted constraint data. Branch-and-bound *prunes* on
            // Infeasible, so a drift artefact here would silently cut off
            // feasible subtrees; a failed certificate bails to a cold solve
            // instead.
            if !certify_infeasible_row(
                lp,
                &mapping,
                &tableau.rows[row],
                &snapshot.signs,
                num_vars,
                snapshot.artificial_base,
                &b,
            ) {
                return None;
            }
            // The tableau basis is still dual feasible, so the snapshot
            // remains valid for further warm solves.
            let iterations = tableau.iterations;
            snapshot.warm_uses += 1;
            restore(snapshot, tableau);
            let mut solution = LpSolution::non_optimal(LpStatus::Infeasible);
            solution.iterations = iterations;
            solution.warm_started = true;
            return Some(solution);
        }
        // A tripped cancel token also declines the warm solve: the cold
        // fallback polls the same token on entry and reports `Cancelled`
        // immediately, which keeps the decline/fallback contract uniform.
        DualOutcome::IterationLimit | DualOutcome::Cancelled => return None,
    }
    let optimum = match tableau.optimize(&phase_cost) {
        PhaseOutcome::Optimal(optimum) => optimum,
        // A dual-feasible start precludes an unbounded primal; reaching
        // either arm means numerical trouble — fall back to a cold solve.
        // Cancellation likewise declines to the cold path.
        PhaseOutcome::Unbounded | PhaseOutcome::IterationLimit | PhaseOutcome::Cancelled => {
            return None
        }
    };

    let values = extract_values(lp, &mapping, &tableau);
    // Cheap end-to-end validation: the warm optimum must be primal feasible
    // for the *actual* program. Guards against drift accumulated across many
    // rhs refreshes.
    if !lp.is_feasible(&values, 1e-6) {
        return None;
    }
    let objective = user_objective(lp, optimum, offset);
    let iterations = tableau.iterations;
    snapshot.warm_uses += 1;
    restore(snapshot, tableau);
    Some(LpSolution {
        status: LpStatus::Optimal,
        values,
        objective,
        iterations,
        warm_started: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinearProgram;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximization_with_two_constraints() {
        // max x + y, x + 2y <= 4, 3x + y <= 6, x,y >= 0 → optimum 2.8 at (1.6, 1.2).
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.8);
        assert_close(sol.values[0], 1.6);
        assert_close(sol.values[1], 1.2);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y, x + y >= 4, x >= 1, y >= 0 → optimum at (4, 0) = 8.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 2.0), (y, 3.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 4.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 8.0);
        assert_close(sol.values[0], 4.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(lp.solve().status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0)], true);
        assert_eq!(lp.solve().status, LpStatus::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 3, x - y = 1 → x = 2, y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 1.0);
    }

    #[test]
    fn free_variables_are_supported() {
        // min x, with x free and x >= -5 as a row constraint → optimum -5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(f64::NEG_INFINITY, f64::INFINITY);
        lp.set_objective(&[(x, 1.0)], false);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, -5.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -5.0);
        assert_close(sol.values[0], -5.0);
    }

    #[test]
    fn negative_bounds_are_handled_by_shifting() {
        // max x + y with x in [-3, -1], y in [-2, 2], x + y <= -2.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-3.0, -1.0);
        let y = lp.add_variable(-2.0, 2.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, -2.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, -2.0);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn mirrored_variables_only_upper_bound() {
        // min x with x <= 4 (no lower bound) and x >= 1 via a row.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(f64::NEG_INFINITY, 4.0);
        lp.set_objective(&[(x, 1.0)], true);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 4.0);
    }

    #[test]
    fn upper_bounds_limit_the_optimum() {
        // max x + 2y with x, y in [0, 1] and x + y <= 1.5.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        let y = lp.add_variable(0.0, 1.0);
        lp.set_objective(&[(x, 1.0), (y, 2.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.5);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.objective, 2.5);
        assert_close(sol.values[1], 1.0);
        assert_close(sol.values[0], 0.5);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP; Bland's rule must terminate.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        let z = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 0.75), (y, -150.0), (z, 0.02)], true);
        lp.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(z, 1.0)], ConstraintOp::Le, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn feasibility_only_problem_returns_a_point() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1.0, 1.0);
        let y = lp.add_variable(-1.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 0.5);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Le, 0.2);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn empty_program_is_trivially_feasible() {
        let lp = LinearProgram::new();
        assert_eq!(lp.solve().status, LpStatus::Optimal);
    }

    #[test]
    fn iteration_limit_is_reported_not_panicked() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, f64::INFINITY);
        let y = lp.add_variable(0.0, f64::INFINITY);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        lp.set_iteration_limit(Some(0));
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::IterationLimit);
        lp.set_iteration_limit(None);
        assert_eq!(lp.solve().status, LpStatus::Optimal);
    }

    #[test]
    fn warm_restart_after_bound_tightening_matches_cold() {
        // max x + y, x + 2y <= 4, 3x + y <= 6, x,y in [0, 5].
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
        lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_eq!(cold.status, LpStatus::Optimal);
        let mut snapshot = snapshot.expect("optimal solve yields a snapshot");

        // Tighten x to [0, 1]: the warm solve must agree with a cold solve.
        lp.set_bounds(x, 0.0, 1.0);
        let warm = lp
            .solve_from_basis(&mut snapshot)
            .expect("bound-only change stays warm-startable");
        assert!(warm.warm_started);
        let cold2 = lp.solve();
        assert_eq!(warm.status, cold2.status);
        assert_close(warm.objective, cold2.objective);
        assert!(lp.is_feasible(&warm.values, 1e-6));
        assert_eq!(snapshot.warm_uses(), 1);

        // Restore the original bounds: warm again, back to the first optimum.
        lp.set_bounds(x, 0.0, 5.0);
        let warm2 = lp
            .solve_from_basis(&mut snapshot)
            .expect("restored bounds stay warm-startable");
        assert_close(warm2.objective, cold.objective);
    }

    #[test]
    fn warm_restart_detects_infeasibility() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_eq!(cold.status, LpStatus::Optimal);
        let mut snapshot = snapshot.expect("snapshot");
        lp.set_bounds(x, 0.0, 1.0);
        lp.set_bounds(y, 0.0, 1.0);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm.status, LpStatus::Infeasible);
        // The snapshot survives an infeasible node; loosening warm-solves again.
        lp.set_bounds(y, 0.0, 5.0);
        let warm2 = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm2.status, LpStatus::Optimal);
        assert!(lp.is_feasible(&warm2.values, 1e-6));
    }

    #[test]
    fn warm_restart_declines_structural_changes() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0)], true);
        let (_, snapshot) = lp.solve_with_snapshot();
        let mut snapshot = snapshot.expect("snapshot");
        // Objective change breaks dual feasibility → decline.
        lp.set_objective(&[(x, -1.0)], true);
        assert!(lp.solve_from_basis(&mut snapshot).is_none());
    }

    #[test]
    fn warm_restart_declines_finiteness_pattern_changes() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        let y = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        let (_, snapshot) = lp.solve_with_snapshot();
        let mut snapshot = snapshot.expect("snapshot");
        // Dropping the upper bound changes the standard-form layout.
        lp.set_bounds(x, 0.0, f64::INFINITY);
        assert!(lp.solve_from_basis(&mut snapshot).is_none());
    }

    #[test]
    fn infeasible_solves_produce_no_snapshot() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Ge, 2.0);
        let (solution, snapshot) = lp.solve_with_snapshot();
        assert_eq!(solution.status, LpStatus::Infeasible);
        assert!(snapshot.is_none());
    }

    #[test]
    fn warm_restart_tracks_constraint_rhs_changes() {
        // The refinement template edits octagon-difference row rhs values;
        // those are part of the refreshed b vector, so warm solves see them.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 5.0);
        lp.set_objective(&[(x, 1.0)], true);
        lp.add_constraint(&[(x, 1.0)], ConstraintOp::Le, 4.0);
        let (cold, snapshot) = lp.solve_with_snapshot();
        assert_close(cold.objective, 4.0);
        let mut snapshot = snapshot.expect("snapshot");
        lp.set_constraint_rhs(0, 2.5);
        let warm = lp.solve_from_basis(&mut snapshot).expect("warm");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert_close(warm.objective, 2.5);
    }
}
