//! The LP engine: one bounded-variable dual simplex on a dense tableau.
//!
//! Every variable of a [`LinearProgram`] is boxed: `add_variable` and
//! `set_bounds` reject infinite bounds. Each row `a·x (op) b` gets one slack
//! `s` with `a·x + s = b`, where `s ∈ [0, ∞)` for `≤`, `s ∈ (−∞, 0]` for `≥`
//! and `s = 0` for `=`. Of the n structural and m slack columns, m are basic
//! and n nonbasic. The engine keeps the row-major m × n tableau `B⁻¹·N` of the
//! nonbasic columns only and pivots it in place: the basic columns of
//! `B⁻¹·[A | I]` are unit vectors that no pivot changes, so they are not
//! stored. Tableau column `k` holds nonbasic column `nonbasic[k]`, and a
//! pivot hands position `k` from the entering column to the leaving one.
//! Bounds stay implicit: each nonbasic column sits at one of its bounds.
//!
//! `B⁻¹` is the slack block of `B⁻¹·[A | I]`: row r of it holds the tableau
//! entries of the nonbasic slacks, a 1 at the slack that is basic in row r
//! (if one is) and zeros at the other basic slacks. It serves twice: every
//! solve starts by refreshing the basic values `x_B = B⁻¹·(b − N·x_N)` from
//! the live rows and bounds, and an infeasible row reads its Farkas
//! multipliers from it.
//!
//! # One routine, two start bases
//!
//! The slack basis (`B = I`) is dual feasible for any objective: every
//! structural column is nonbasic and boxed, so it sits at the bound its
//! reduced cost picks. A [`BasisSnapshot`] of an earlier solve of the same
//! rows and objective is dual feasible too, because bound and right-hand-side
//! edits leave reduced costs unchanged. [`LinearProgram::solve`],
//! [`LinearProgram::solve_with_snapshot`] and
//! [`LinearProgram::solve_from_basis`] therefore run the same dual simplex
//! and differ only in the basis they start from.
//!
//! Pricing: the leaving row is the most violated one, ratio-test ties go to
//! the largest |pivot|, and after `2m + 32` pivots both choices switch to
//! Bland's smallest-index rule, whose termination guarantee then applies.
//! See Chvátal, *Linear Programming* (1983), ch. 8, and Koberstein, *The
//! Dual Simplex Method* (2005).
//!
//! # Summation order
//!
//! The pivot sequence is a function of the program and the start basis, and
//! it does not depend on which columns the tableau stores. Every sum runs in
//! column order, whatever the tableau position of a column: the ratio test
//! walks the nonbasic columns by ascending index (its tie-breaks depend on
//! the order), and `x_B` and the Farkas sums add their terms in slack order.
//! The unit columns a full `B⁻¹·[A | I]` tableau would add contribute only
//! products with an exact zero, and adding ±0 leaves any nonzero partial sum
//! unchanged, so the full tableau pivots identically, up to the sign of a
//! zero, as long as the arithmetic stays finite. The `pivot_pin` test of
//! this crate pins the sequence.
//!
//! # Checked results
//!
//! A result counts only after a check against the live program. An optimum
//! must be primal feasible within 1e-6. An infeasibility must carry a Farkas
//! certificate: the multipliers `y` of the row that stopped the ratio test
//! are read from `B⁻¹`, `y·A` and `y·b` are recomputed from the live
//! constraints, and `y·b` must lie outside the range of `y·A·x + y·s` over
//! the bounds by more than a tolerance relative to the magnitudes summed.
//! When a check fails after a snapshot start, the warm solve declines and
//! the caller restarts from the slack basis; after a slack start, the solve
//! ends [`LpStatus::IterationLimit`], never `Infeasible`.

use std::hint::select_unpredictable;

use crate::{CancelToken, ConstraintOp, LinearProgram, LpSolution, LpStatus, SOLVER_EPS};

/// Smallest |pivot| the ratio test accepts.
const PIVOT_TOL: f64 = SOLVER_EPS;
/// Primal feasibility tolerance of the pricing, relative to `1 + |bound|`.
const PRIMAL_TOL: f64 = 1e-9;
/// Ratio-test ties, and reduced costs too small to pick a bound.
const DUAL_TOL: f64 = 1e-9;
/// Largest wrong-signed reduced cost a snapshot start tolerates on a column
/// that cannot move to its other (infinite) bound.
const DUAL_FEAS_TOL: f64 = SOLVER_EPS;
/// Certificate tolerance, relative to the magnitudes the check sums. Bound
/// propagation closes a node under the same rule.
pub(crate) const CERT_TOL: f64 = 1e-9;
/// Bound and row slack an optimum may show when re-checked.
const OPTIMUM_TOL: f64 = 1e-6;
/// Poll the cancel token when `iterations & CANCEL_POLL_MASK == 0` — every
/// 64 pivots, cheap enough to disappear in the pivot cost while keeping the
/// reaction latency to an expired deadline well below a millisecond.
const CANCEL_POLL_MASK: usize = 63;

/// Where a column sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    Basic,
    Lower,
    Upper,
}

/// The bounds of the slack of a row with operator `op`.
fn slack_bounds(op: ConstraintOp) -> (f64, f64) {
    match op {
        ConstraintOp::Le => (0.0, f64::INFINITY),
        ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
        ConstraintOp::Eq => (0.0, 0.0),
    }
}

/// The default pivot budget of a program with `n` variables and `m` rows:
/// the column count `n + m` plus the row count, times 200, plus 50 000.
pub(crate) fn default_iteration_budget(n: usize, m: usize) -> usize {
    50_000 + 200 * (n + 2 * m)
}

/// The state a solve pivots in place.
#[derive(Debug, Clone)]
struct Basis {
    /// Row-major `m × n` tableau `B⁻¹·N`; column `k` is `nonbasic[k]`.
    tableau: Vec<f64>,
    /// Basic column of each row.
    head: Vec<usize>,
    /// Nonbasic column of each tableau column.
    nonbasic: Vec<usize>,
    /// Where each column sits.
    place: Vec<Place>,
    /// The row of each basic column, the tableau column of each nonbasic one.
    slot: Vec<usize>,
}

impl Basis {
    /// The slack basis of `lp`: tableau `A`, every slack basic, every
    /// structural nonbasic (its bound is picked when the solve starts).
    fn slack(lp: &LinearProgram) -> Self {
        let (n, m) = (lp.num_variables(), lp.constraints.len());
        let mut tableau = vec![0.0; m * n];
        for (i, constraint) in lp.constraints.iter().enumerate() {
            let row = &mut tableau[i * n..(i + 1) * n];
            for &(j, a) in &constraint.coeffs {
                row[j] += a;
            }
        }
        let mut place = vec![Place::Lower; n];
        place.resize(n + m, Place::Basic);
        Self {
            tableau,
            head: (n..n + m).collect(),
            nonbasic: (0..n).collect(),
            place,
            slot: (0..n).chain(0..m).collect(),
        }
    }
}

/// The final basis of a solved [`LinearProgram`], reusable as the start of a
/// re-solve after bound-only edits (see [`LinearProgram::solve_from_basis`]).
///
/// It holds the m × n tableau `B⁻¹·N` of the nonbasic columns, the basic
/// column of each row, the nonbasic column of each tableau column and the
/// bound each nonbasic column sits at; the basic columns of `B⁻¹·[A | I]`
/// are unit vectors and are not stored. Any such basis is dual feasible for
/// every program with the same rows and objective, whatever its bounds and
/// right-hand sides, so a re-solve starts the dual simplex from it instead of
/// from the slack basis. A snapshot records the variable count, the row
/// count, a hash of the rows' operators and coefficients, and the objective
/// it was built for; a program that differs in any of them is refused, even
/// one of the same shape (two encodings of one network over different boxes,
/// say).
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    basis: Basis,
    /// The row hash of the program the basis was built for
    /// (`LinearProgram::row_hash`).
    rows: u64,
    /// The objective the reduced costs belong to.
    objective: Vec<f64>,
    maximize: bool,
    /// Number of warm re-solves taken from this snapshot (statistics only).
    warm_uses: usize,
}

impl BasisSnapshot {
    fn new(lp: &LinearProgram, basis: Basis) -> Self {
        Self {
            basis,
            rows: lp.row_hash,
            objective: lp.objective.clone(),
            maximize: lp.maximize,
            warm_uses: 0,
        }
    }

    /// How many warm re-solves this snapshot has served so far.
    pub fn warm_uses(&self) -> usize {
        self.warm_uses
    }

    /// Whether `lp` has the rows and objective this basis was built for.
    fn fits(&self, lp: &LinearProgram) -> bool {
        self.basis.head.len() == lp.constraints.len()
            && self.basis.nonbasic.len() == lp.num_variables()
            && self.rows == lp.row_hash
            && self.maximize == lp.maximize
            && self.objective == lp.objective
    }
}

/// How the pivot loop stopped.
enum End {
    /// Every basic value is within its bounds.
    Optimal,
    /// The ratio test found no entering column for this row, whose basic
    /// variable must rise (`true`) or fall to get back within its bounds.
    Infeasible(usize, bool),
    IterationLimit,
    Cancelled,
}

/// The bounds of a column: a variable's box, or the slack bounds of its row.
fn column_bounds(lp: &LinearProgram, j: usize) -> (f64, f64) {
    match j.checked_sub(lp.num_variables()) {
        None => (lp.lower[j], lp.upper[j]),
        Some(row) => slack_bounds(lp.constraints[row].op),
    }
}

/// The bounds of a row's basic variable, and the values below and above
/// which the pricing counts it as violated.
#[derive(Debug, Clone, Copy)]
struct Window {
    lower: f64,
    upper: f64,
    floor: f64,
    ceiling: f64,
}

impl Window {
    fn new((lower, upper): (f64, f64)) -> Self {
        Self {
            lower,
            upper,
            floor: lower - PRIMAL_TOL * (1.0 + lower.abs()),
            ceiling: upper + PRIMAL_TOL * (1.0 + upper.abs()),
        }
    }

    /// How far `x` lies outside the bounds, zero when it is within
    /// tolerance, and whether it must rise (`true`) or fall to get back.
    /// Outside the tolerance the amount is positive.
    fn violation(&self, x: f64) -> (f64, bool) {
        let rise = x < self.floor;
        let fall = select_unpredictable(x > self.ceiling, x - self.upper, 0.0);
        (select_unpredictable(rise, self.lower - x, fall), rise)
    }
}

/// One dual simplex run over a borrowed [`Basis`].
struct Simplex<'a> {
    lp: &'a LinearProgram,
    n: usize,
    basis: &'a mut Basis,
    /// Reduced costs of the minimised objective, one per tableau column.
    reduced: Vec<f64>,
    /// Whether the objective has a nonzero coefficient. Without one every
    /// reduced cost is and stays zero.
    priced: bool,
    /// Value of the basic variable of each row.
    values: Vec<f64>,
    /// Bounds of the basic variable of each row.
    windows: Vec<Window>,
    /// The columns the ratio test may pick, the nonbasic ones that are not
    /// fixed, as `(column, tableau column)` in ascending column order.
    candidates: Vec<(usize, usize)>,
    iterations: usize,
    budget: usize,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Simplex<'a> {
    /// Prices `basis` for `lp`: reduced costs from the tableau, each
    /// nonbasic column at the bound its reduced cost picks (in column
    /// order), the candidate list and row windows, and basic values
    /// refreshed from the live rows. `None` when a nonbasic column's reduced
    /// cost asks for an infinite bound, i.e. the basis is not dual feasible.
    fn start(
        lp: &'a LinearProgram,
        basis: &'a mut Basis,
        cancel: Option<&'a CancelToken>,
    ) -> Option<Self> {
        let (n, m) = (lp.num_variables(), lp.constraints.len());
        let sign = if lp.maximize { -1.0 } else { 1.0 };
        let cost = |j: usize| if j < n { sign * lp.objective[j] } else { 0.0 };
        let mut reduced: Vec<f64> = basis.nonbasic.iter().map(|&j| cost(j)).collect();
        let priced = lp.objective.iter().any(|&c| c != 0.0);
        // A nonzero objective coefficient means n ≥ 1.
        if priced {
            for (row, &basic) in basis.tableau.chunks_exact(n).zip(&basis.head) {
                let cb = cost(basic);
                if cb != 0.0 {
                    for (d, t) in reduced.iter_mut().zip(row) {
                        *d -= cb * t;
                    }
                }
            }
        }
        let mut candidates = Vec::with_capacity(n);
        for (j, place) in basis.place.iter_mut().enumerate() {
            if *place == Place::Basic {
                continue;
            }
            let (lower, upper) = column_bounds(lp, j);
            let d = reduced[basis.slot[j]];
            let want_upper = if d > DUAL_TOL {
                false
            } else if d < -DUAL_TOL {
                true
            } else {
                *place == Place::Upper
            };
            *place = match (want_upper, lower.is_finite(), upper.is_finite()) {
                (true, _, true) | (false, false, _) => Place::Upper,
                _ => Place::Lower,
            };
            if d.abs() > DUAL_FEAS_TOL && want_upper != (*place == Place::Upper) {
                return None;
            }
            if lower != upper {
                candidates.push((j, basis.slot[j]));
            }
        }
        let windows = basis
            .head
            .iter()
            .map(|&j| Window::new(column_bounds(lp, j)))
            .collect();
        let mut simplex = Self {
            lp,
            n,
            basis,
            reduced,
            priced,
            values: vec![0.0; m],
            windows,
            candidates,
            iterations: 0,
            budget: lp
                .max_iterations
                .unwrap_or_else(|| default_iteration_budget(n, m)),
            cancel,
        };
        simplex.refresh();
        Some(simplex)
    }

    /// The value of nonbasic column `j`.
    fn bound_value(&self, j: usize) -> f64 {
        let (lower, upper) = column_bounds(self.lp, j);
        match self.basis.place[j] {
            Place::Upper => upper,
            _ => lower,
        }
    }

    /// Recomputes `x_B = B⁻¹·(b − N·x_N)` from the live constraints. Nonbasic
    /// slacks sit at their finite bound, which is always zero, so only the
    /// nonbasic structurals enter `N·x_N`; a basic structural enters it with
    /// the value zero, whose term changes no nonzero partial sum. Each row
    /// adds its terms in slack order: a nonbasic slack's tableau column, or
    /// the 1 of the row's own basic slack; the other basic slacks' zeros
    /// are skipped.
    fn refresh(&mut self) {
        let x_n: Vec<f64> = (0..self.n)
            .map(|j| match self.basis.place[j] {
                Place::Basic => 0.0,
                _ => self.bound_value(j),
            })
            .collect();
        let (basis, n) = (&*self.basis, self.n);
        self.values.fill(0.0);
        for (slack, constraint) in (n..).zip(&self.lp.constraints) {
            let residual = constraint
                .coeffs
                .iter()
                .fold(constraint.rhs, |acc, &(j, a)| acc - a * x_n[j]);
            let at = basis.slot[slack];
            if basis.place[slack] == Place::Basic {
                self.values[at] += residual;
            } else {
                let rows = basis.tableau.chunks_exact(n);
                for (value, row) in self.values.iter_mut().zip(rows) {
                    *value += row[at] * residual;
                }
            }
        }
    }

    /// Pivots until the basis is primal feasible, a row proves the program
    /// infeasible, the budget runs out or the token trips.
    fn iterate(&mut self) -> End {
        let bland_after = 2 * self.basis.head.len() + 32;
        let mut pivots = 0usize;
        loop {
            if self.iterations & CANCEL_POLL_MASK == 0
                && self.cancel.is_some_and(CancelToken::is_cancelled)
            {
                return End::Cancelled;
            }
            let bland = pivots >= bland_after;
            let Some((row, rise)) = self.leaving(bland) else {
                return End::Optimal;
            };
            let Some(candidate) = self.entering(row, rise, bland) else {
                return End::Infeasible(row, rise);
            };
            if self.budget == 0 {
                return End::IterationLimit;
            }
            self.budget -= 1;
            pivots += 1;
            self.pivot(row, candidate, rise);
        }
    }

    /// The leaving row and whether its basic variable must rise: the most
    /// violated row (fast phase), or the one with the smallest basic index
    /// among the violated rows (Bland phase); `None` when no row is
    /// violated. A violation amount is positive, so the fast phase can
    /// score an unviolated row zero and keep the first of the largest.
    fn leaving(&self, bland: bool) -> Option<(usize, bool)> {
        let rows = self.windows.iter().zip(&self.values);
        let violations = rows.map(|(window, &x)| window.violation(x)).enumerate();
        if bland {
            let head = &self.basis.head;
            return violations
                .filter(|&(_, (amount, _))| amount > 0.0)
                .min_by_key(|&(row, _)| head[row])
                .map(|(row, (_, rise))| (row, rise));
        }
        let mut leaving = None;
        let mut most = 0.0;
        for (row, (amount, rise)) in violations {
            if amount > most {
                most = amount;
                leaving = Some((row, rise));
            }
        }
        leaving
    }

    /// The dual ratio test on `row`, returning the index of the entering
    /// column in the candidate list. The row reads `x_p = β − Σ α_j·x_j`, so
    /// raising `x_p` needs a column that can rise where `α_j < 0` (at its
    /// lower bound) or fall where `α_j > 0` (at its upper bound), and
    /// lowering `x_p` the reverse. Among those, the smallest `|d_j / α_j|`
    /// keeps every reduced cost on its bound's side; ties go to the largest
    /// |α_j| (fast phase) or the smallest index (Bland phase). Fixed columns
    /// never enter. Without an objective every ratio is zero, so the largest
    /// |α_j| wins (the first of equals), or in the Bland phase the first
    /// eligible column.
    fn entering(&self, row: usize, rise: bool, bland: bool) -> Option<usize> {
        let alphas = &self.basis.tableau[row * self.n..(row + 1) * self.n];
        // A candidate's α, whether it sits at its lower bound, and whether
        // it is eligible.
        let candidate = |j: usize, k: usize| {
            let alpha = alphas[k];
            let at_lower = self.basis.place[j] == Place::Lower;
            let signed = select_unpredictable(rise == at_lower, -alpha, alpha);
            (alpha, at_lower, signed > PIVOT_TOL)
        };
        if !self.priced {
            let mut entering = None;
            let mut largest = 0.0;
            for (index, &(j, k)) in self.candidates.iter().enumerate() {
                let (alpha, _, eligible) = candidate(j, k);
                let magnitude = select_unpredictable(eligible, alpha.abs(), 0.0);
                if magnitude > largest {
                    if bland {
                        return Some(index);
                    }
                    largest = magnitude;
                    entering = Some(index);
                }
            }
            return entering;
        }
        let mut entering: Option<(usize, f64, f64)> = None;
        for (index, &(j, k)) in self.candidates.iter().enumerate() {
            let (alpha, at_lower, eligible) = candidate(j, k);
            if !eligible {
                continue;
            }
            let d = if at_lower {
                self.reduced[k]
            } else {
                -self.reduced[k]
            };
            let ratio = d.max(0.0) / alpha.abs();
            let better = entering.is_none_or(|(_, best, magnitude)| {
                ratio < best - DUAL_TOL
                    || (ratio <= best + DUAL_TOL && !bland && alpha.abs() > magnitude)
            });
            if better {
                entering = Some((index, ratio, alpha.abs()));
            }
        }
        entering.map(|(index, _, _)| index)
    }

    /// Pivots candidate `index` into the basis at `row`; the leaving
    /// variable goes to the bound it violated (its lower one when `rise`)
    /// and takes over the entering column's tableau column.
    fn pivot(&mut self, row: usize, index: usize, rise: bool) {
        let n = self.n;
        let (col, k) = self.candidates[index];
        let leaving = self.basis.head[row];
        let alpha = self.basis.tableau[row * n + k];
        let window = self.windows[row];
        let target = if rise { window.lower } else { window.upper };
        // Primal step: move the entering column so the leaving variable
        // lands on its bound, carrying every basic value along.
        let step = (self.values[row] - target) / alpha;
        let entering_value = self.bound_value(col) + step;

        // Tableau step, in place: scale the pivot row, whose column k now
        // holds the leaving column's unit entry over α; then, in every
        // other row that has an entry at k, carry the basic value along,
        // clear the entry (the leaving column's zero) and eliminate.
        let (above, rest) = self.basis.tableau.split_at_mut(row * n);
        let (pivot_row, below) = rest.split_at_mut(n);
        let inverse = 1.0 / alpha;
        for value in pivot_row.iter_mut() {
            *value *= inverse;
        }
        pivot_row[k] = inverse;
        let (values_above, values_rest) = self.values.split_at_mut(row);
        let (pivot_value, values_below) = values_rest.split_at_mut(1);
        let others = above.chunks_exact_mut(n).chain(below.chunks_exact_mut(n));
        for (other, value) in others.zip(values_above.iter_mut().chain(values_below)) {
            let factor = other[k];
            if factor != 0.0 {
                *value -= factor * step;
                other[k] = 0.0;
                for (o, p) in other.iter_mut().zip(pivot_row.iter()) {
                    *o -= factor * p;
                }
            }
        }
        pivot_value[0] = entering_value;

        // Dual step: the same elimination on the reduced-cost row.
        let factor = self.reduced[k];
        self.reduced[k] = 0.0;
        if factor != 0.0 {
            for (d, p) in self.reduced.iter_mut().zip(pivot_row.iter()) {
                *d -= factor * p;
            }
        }

        let basis = &mut *self.basis;
        basis.head[row] = col;
        basis.nonbasic[k] = leaving;
        basis.slot[col] = row;
        basis.slot[leaving] = k;
        basis.place[col] = Place::Basic;
        basis.place[leaving] = if rise { Place::Lower } else { Place::Upper };
        self.windows[row] = Window::new(column_bounds(self.lp, col));
        // The leaving column, whose bounds `window` holds, takes the
        // entering one's place in the candidate list, moved to keep the list
        // in column order, unless it is fixed.
        if window.lower == window.upper {
            self.candidates.remove(index);
        } else {
            let to = self.candidates.partition_point(|&(j, _)| j < leaving);
            if to <= index {
                self.candidates[to..=index].rotate_right(1);
                self.candidates[to] = (leaving, k);
            } else {
                self.candidates[index..to].rotate_left(1);
                self.candidates[to - 1] = (leaving, k);
            }
        }
        self.iterations += 1;
    }

    /// The structural values of the current basis.
    fn solution_values(&self) -> Vec<f64> {
        let mut values: Vec<f64> = (0..self.n).map(|j| self.bound_value(j)).collect();
        for (&basic, &value) in self.basis.head.iter().zip(&self.values) {
            if basic < self.n {
                values[basic] = value;
            }
        }
        values
    }

    /// Checks the Farkas certificate of `row` against the live program;
    /// `rise` says the row's basic variable sits below its lower bound.
    ///
    /// The row's multipliers `y` are its row of `B⁻¹`. Every feasible point
    /// satisfies `y·A·x + y·s = y·b`, and the row claims that the left side
    /// cannot reach `y·b`: it stays above it when `rise`, below it
    /// otherwise. The left side is recomputed from the live constraints and
    /// bounded over the variable and slack bounds. A multiplier whose slack
    /// would make that bound infinite is dropped first (it is rounding noise
    /// on a column the ratio test skipped); any `y` gives a valid implied
    /// equation, so dropping it keeps the check exact. The claim holds when
    /// the bound clears `y·b` by more than [`CERT_TOL`] times the magnitudes
    /// summed, which covers the rounding error of the check itself.
    fn certify(&self, row: usize, rise: bool) -> bool {
        let (lp, basis, n) = (self.lp, &*self.basis, self.n);
        let entries = &basis.tableau[row * n..(row + 1) * n];
        let multiplier = |j: usize| match basis.place[j] {
            Place::Basic if basis.slot[j] == row => 1.0,
            Place::Basic => 0.0,
            _ => entries[basis.slot[j]],
        };
        let mut combined = vec![0.0; n];
        let mut magnitude = vec![0.0; n];
        let (mut rhs, mut scale) = (0.0f64, 0.0f64);
        for (slack, constraint) in (n..).zip(&lp.constraints) {
            let y = multiplier(slack);
            let (s_lo, s_hi) = slack_bounds(constraint.op);
            let slack_term = if rise {
                (y * s_lo).min(y * s_hi)
            } else {
                (y * s_lo).max(y * s_hi)
            };
            if y == 0.0 || !slack_term.is_finite() {
                continue;
            }
            for &(j, a) in &constraint.coeffs {
                combined[j] += y * a;
                magnitude[j] += (y * a).abs();
            }
            rhs += y * constraint.rhs;
            scale += (y * constraint.rhs).abs();
        }
        let mut bound = 0.0f64;
        for (j, (&v, &m)) in combined.iter().zip(&magnitude).enumerate() {
            let (l, u) = (lp.lower[j], lp.upper[j]);
            bound += if rise {
                (v * l).min(v * u)
            } else {
                (v * l).max(v * u)
            };
            scale += m * l.abs().max(u.abs());
        }
        let tol = CERT_TOL * scale;
        if rise {
            bound > rhs + tol
        } else {
            bound < rhs - tol
        }
    }
}

/// Runs the dual simplex on `lp` from `basis` and checks the result. `Err`
/// carries the pivots spent when the start was not dual feasible or the
/// result failed its check; `Ok` holds an optimum, a certified
/// infeasibility, or a run stopped by its budget or token.
fn run(
    lp: &LinearProgram,
    basis: &mut Basis,
    cancel: Option<&CancelToken>,
) -> Result<LpSolution, usize> {
    let mut simplex = Simplex::start(lp, basis, cancel).ok_or(0usize)?;
    let end = simplex.iterate();
    let iterations = simplex.iterations;
    let stopped = |status| LpSolution {
        iterations,
        ..LpSolution::non_optimal(status)
    };
    match end {
        End::Optimal => {
            let values = simplex.solution_values();
            if !lp.is_feasible(&values, OPTIMUM_TOL) {
                return Err(iterations);
            }
            Ok(LpSolution {
                status: LpStatus::Optimal,
                objective: lp.objective_value(&values),
                values,
                iterations,
                warm_started: false,
            })
        }
        End::Infeasible(row, rise) if simplex.certify(row, rise) => {
            Ok(stopped(LpStatus::Infeasible))
        }
        End::Infeasible(..) => Err(iterations),
        End::IterationLimit => Ok(stopped(LpStatus::IterationLimit)),
        End::Cancelled => Ok(stopped(LpStatus::Cancelled)),
    }
}

/// Solves `lp` from the slack basis, returning the final basis as a snapshot
/// when the solve ends optimal. `Err` carries the pivots spent when the
/// result failed its check: there is no other start to fall back to.
pub(crate) fn solve_checked(
    lp: &LinearProgram,
    cancel: Option<&CancelToken>,
) -> Result<(LpSolution, Option<BasisSnapshot>), usize> {
    let mut basis = Basis::slack(lp);
    let solution = run(lp, &mut basis, cancel)?;
    let snapshot = solution.is_optimal().then(|| BasisSnapshot::new(lp, basis));
    Ok((solution, snapshot))
}

/// The result of a slack-basis solve that failed its check after
/// `iterations` pivots: [`LpStatus::IterationLimit`], never `Infeasible`.
pub(crate) fn failed_check(iterations: usize) -> LpSolution {
    LpSolution {
        iterations,
        ..LpSolution::non_optimal(LpStatus::IterationLimit)
    }
}

/// [`solve_checked`], reporting a failed check as [`failed_check`] does.
pub(crate) fn solve_with_snapshot(
    lp: &LinearProgram,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    solve_checked(lp, cancel).unwrap_or_else(|iterations| (failed_check(iterations), None))
}

/// Solves `lp` from the slack basis.
pub(crate) fn solve(lp: &LinearProgram, cancel: Option<&CancelToken>) -> LpSolution {
    solve_with_snapshot(lp, cancel).0
}

/// Re-solves `lp` from `snapshot`, updating it in place to the final basis.
/// Declines (`None`) when the snapshot does not fit `lp`, the run stops on
/// its budget or token, or the result fails its check; the caller then
/// restarts from the slack basis.
pub(crate) fn solve_from_basis(
    lp: &LinearProgram,
    snapshot: &mut BasisSnapshot,
    cancel: Option<&CancelToken>,
) -> Option<LpSolution> {
    if !snapshot.fits(lp) {
        return None;
    }
    let solution = run(lp, &mut snapshot.basis, cancel).ok()?;
    if !matches!(solution.status, LpStatus::Optimal | LpStatus::Infeasible) {
        return None;
    }
    snapshot.warm_uses += 1;
    Some(LpSolution {
        warm_started: true,
        ..solution
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
        // max x + y, x + 2y <= 4, 3x + y <= 6, x,y in [0, 10] → optimum 2.8 at (1.6, 1.2).
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 10.0);
        let y = lp.add_variable(0.0, 10.0);
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
        // min 2x + 3y, x + y >= 4, x in [1, 10], y in [0, 10] → optimum at (4, 0) = 8.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(1.0, 10.0);
        let y = lp.add_variable(0.0, 10.0);
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
    fn equality_constraints() {
        // min x + y s.t. x + y = 3, x - y = 1, x,y in [0, 10] → x = 2, y = 1.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 10.0);
        let y = lp.add_variable(0.0, 10.0);
        lp.set_objective(&[(x, 1.0), (y, 1.0)], false);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Eq, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], ConstraintOp::Eq, 1.0);
        let sol = lp.solve();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_close(sol.values[0], 2.0);
        assert_close(sol.values[1], 1.0);
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
        // A classic degenerate LP; the Bland phase must terminate.
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 100.0);
        let y = lp.add_variable(0.0, 100.0);
        let z = lp.add_variable(0.0, 100.0);
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
        let x = lp.add_variable(0.0, 10.0);
        let y = lp.add_variable(0.0, 10.0);
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
    fn warm_restart_declines_a_basis_of_other_rows() {
        // Two maximisations of one shape, nonzero count and objective whose
        // rows differ in their coefficients: the first one's basis is not a
        // basis of the second, so it must not be started from.
        let build = |rows: [[f64; 3]; 3]| {
            let mut lp = LinearProgram::new();
            let vars: Vec<_> = (0..3).map(|_| lp.add_variable(0.0, 10.0)).collect();
            lp.set_objective(&[(vars[0], 1.0), (vars[1], 1.0), (vars[2], 1.0)], true);
            for row in rows {
                let coeffs: Vec<_> = vars.iter().copied().zip(row).collect();
                lp.add_constraint(&coeffs, ConstraintOp::Le, 6.0);
            }
            lp
        };
        let mut donor = build([[4.0, 4.0, 4.0], [1.0, 2.0, 2.0], [4.0, 3.0, 3.0]]);
        let other = build([[2.0, 2.0, 2.0], [2.0, 4.0, 2.0], [2.0, 1.0, 3.0]]);
        let (_, snapshot) = donor.solve_with_snapshot();
        let mut snapshot = snapshot.expect("optimal solves yield a snapshot");
        // Started from the donor's basis, the dual simplex would report a
        // checked but wrong optimum, 1.5 instead of 3.
        assert_close(other.solve().objective, 3.0);
        let warm = other.solve_from_basis(&mut snapshot);
        assert!(warm.is_none(), "{warm:?}");
        // The donor's own rows still fit after a right-hand-side edit.
        donor.set_constraint_rhs(0, 5.0);
        let warm = donor.solve_from_basis(&mut snapshot).expect("same rows");
        assert_close(warm.objective, donor.solve().objective);
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
    fn infeasibility_needs_a_certificate_from_either_start() {
        // x in [0, 1], w fixed at `scale`, and x + w >= scale + 2: infeasible
        // by 1. The certificate's tolerance grows with the magnitudes it
        // sums, so that gap is certified next to w = 10 but not next to
        // w = 1e12, where it is within the rounding of the data.
        for (scale, certified) in [(10.0, true), (1e12, false)] {
            let mut lp = LinearProgram::new();
            let x = lp.add_variable(0.0, 1.0);
            let w = lp.add_variable(scale, scale);
            lp.add_constraint(&[(x, 1.0), (w, 1.0)], ConstraintOp::Ge, scale + 0.5);
            let (feasible, snapshot) = lp.solve_with_snapshot();
            assert_eq!(feasible.status, LpStatus::Optimal);
            let mut snapshot = snapshot.expect("optimal solves yield a snapshot");
            lp.set_constraint_rhs(0, scale + 2.0);
            let warm = lp.solve_from_basis(&mut snapshot);
            let cold = lp.solve();
            if certified {
                assert_eq!(warm.map(|s| s.status), Some(LpStatus::Infeasible));
                assert_eq!(cold.status, LpStatus::Infeasible);
            } else {
                // A snapshot start declines, and a slack start gives up.
                assert!(warm.is_none(), "scale {scale}: {warm:?}");
                assert_eq!(cold.status, LpStatus::IterationLimit);
            }
        }
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
