//! Bound propagation over the rows of a MILP, run at every branch-and-bound
//! node before its LP (feasibility-based bound tightening; see Achterberg,
//! *Constraint Integer Programming*, PhD thesis, TU Berlin 2007, ch. 7).
//!
//! A row `Σ a_j·x_j (op) b` bounds its activity over the node's variable
//! bounds: the smallest activity takes each term at the bound that makes it
//! smallest, the largest at the other. When that range cannot reach `b` the
//! node holds no point and closes without an LP. Otherwise the range minus
//! one term bounds that term, which may tighten its variable. A tightened
//! binary is fixed, and a tightened variable's rows are visited again.
//!
//! Every conclusion carries the tolerance of the simplex's Farkas check:
//! a row closes a node only when its activity misses `b` by more than
//! [`CERT_TOL`] times `Σ |a_j|·max(|l_j|, |u_j|) + |b|`, and every tightened
//! bound is loosened by that amount. A binary's upper bound drops to 0 only
//! when propagation puts it more than [`BINARY_TOL`] below 1, and its lower
//! bound rises to 1 only when propagation puts it more than [`BINARY_TOL`]
//! above 0. A bound never crosses the other one: a conflict that large
//! shows in a row's activity, and only a row's activity closes a node.

use std::collections::VecDeque;

use crate::simplex::CERT_TOL;
use crate::{Constraint, ConstraintOp, LinearProgram, VarId};

/// Row visits per node, as a multiple of the row count.
const VISITS_PER_ROW: usize = 2;
/// A bound move re-queues its variable's rows only when it is larger than
/// this share of the variable's range before the move.
const REQUEUE_SHARE: f64 = 1e-3;
/// How far past 0 or 1 propagation must put a binary's bound to fix it.
const BINARY_TOL: f64 = 1e-6;

/// The bounds `(lower, upper)` of every variable at one node.
pub(crate) type Bounds = Vec<(f64, f64)>;

/// The row incidence of a program's variables and the work queue of one
/// propagation, built once per search.
#[derive(Debug)]
pub(crate) struct Propagator {
    /// The rows of variable `j` are `col_rows[col_start[j]..col_start[j + 1]]`.
    col_start: Vec<usize>,
    col_rows: Vec<usize>,
    binary: Vec<bool>,
    queue: VecDeque<usize>,
    queued: Vec<bool>,
}

impl Propagator {
    /// The incidence of `lp`'s rows, with `binaries` the integral variables.
    pub(crate) fn new(lp: &LinearProgram, binaries: &[VarId]) -> Self {
        let n = lp.num_variables();
        let mut col_start = vec![0usize; n + 1];
        for constraint in lp.constraints() {
            for &(j, _) in &constraint.coeffs {
                col_start[j + 1] += 1;
            }
        }
        for j in 0..n {
            col_start[j + 1] += col_start[j];
        }
        // Fill with `col_start[j]` as variable j's cursor; it ends at the
        // slice's end, and one shift right restores the starts.
        let mut col_rows = vec![0usize; col_start[n]];
        for (row, constraint) in lp.constraints().iter().enumerate() {
            for &(j, _) in &constraint.coeffs {
                col_rows[col_start[j]] = row;
                col_start[j] += 1;
            }
        }
        col_start.rotate_right(1);
        col_start[0] = 0;
        let mut binary = vec![false; n];
        for &b in binaries {
            binary[b] = true;
        }
        let m = lp.num_constraints();
        Self {
            col_start,
            col_rows,
            binary,
            queue: VecDeque::with_capacity(m),
            queued: vec![false; m],
        }
    }

    /// The root's bounds: `lp`'s own, each binary's clamped to `[0, 1]` and
    /// rounded inward to the integers it holds. `None` when a binary's
    /// bounds hold neither 0 nor 1.
    pub(crate) fn root_bounds(&self, lp: &LinearProgram) -> Option<Bounds> {
        (0..lp.num_variables())
            .map(|j| {
                let (lower, upper) = lp.bounds(j);
                if !self.binary[j] {
                    return Some((lower, upper));
                }
                let lower = if lower.max(0.0) > BINARY_TOL {
                    1.0
                } else {
                    0.0
                };
                let upper = if upper.min(1.0) < 1.0 - BINARY_TOL {
                    0.0
                } else {
                    1.0
                };
                (lower <= upper).then_some((lower, upper))
            })
            .collect()
    }

    /// Propagates `bounds` over `lp`'s rows, starting from the rows of
    /// `from` (every row when `None`), for at most [`VISITS_PER_ROW`] times
    /// the row count row visits. Returns `false` when a row's activity over
    /// the bounds misses its right-hand side: the node holds no point.
    pub(crate) fn propagate(
        &mut self,
        lp: &LinearProgram,
        bounds: &mut [(f64, f64)],
        from: Option<VarId>,
    ) -> bool {
        let rows = lp.constraints();
        match from {
            Some(var) => self.requeue(var, usize::MAX),
            None => (0..rows.len()).for_each(|row| self.push(row)),
        }
        let mut visits = VISITS_PER_ROW * rows.len();
        while let Some(row) = self.queue.pop_front() {
            self.queued[row] = false;
            if visits == 0 {
                continue;
            }
            visits -= 1;
            if !self.visit(row, &rows[row], bounds) {
                while let Some(row) = self.queue.pop_front() {
                    self.queued[row] = false;
                }
                return false;
            }
        }
        true
    }

    fn push(&mut self, row: usize) {
        if !self.queued[row] {
            self.queued[row] = true;
            self.queue.push_back(row);
        }
    }

    /// Queues the rows of `var` other than `except`.
    fn requeue(&mut self, var: VarId, except: usize) {
        for k in self.col_start[var]..self.col_start[var + 1] {
            let row = self.col_rows[k];
            if row != except {
                self.push(row);
            }
        }
    }

    /// Checks row `index` against `bounds` and tightens them from it;
    /// `false` when its activity misses the right-hand side.
    fn visit(&mut self, index: usize, row: &Constraint, bounds: &mut [(f64, f64)]) -> bool {
        let (mut least, mut most, mut scale) = (0.0f64, 0.0f64, row.rhs.abs());
        // The widest range of one term.
        let mut widest = 0.0f64;
        for &(j, a) in &row.coeffs {
            let (lower, upper) = bounds[j];
            let (low, high) = term_range(a, lower, upper);
            least += low;
            most += high;
            widest = widest.max(high - low);
            scale += a.abs() * lower.abs().max(upper.abs());
        }
        // An overflowing sum proves nothing.
        if !(least.is_finite() && most.is_finite() && scale.is_finite()) {
            return true;
        }
        let tol = CERT_TOL * scale;
        let le = matches!(row.op, ConstraintOp::Le | ConstraintOp::Eq);
        let ge = matches!(row.op, ConstraintOp::Ge | ConstraintOp::Eq);
        if (le && least > row.rhs + tol) || (ge && most < row.rhs - tol) {
            return false;
        }
        // A side tightens a term only when its slack is below the term's
        // range.
        let caps = le && row.rhs + tol - least < widest;
        let floors = ge && most - (row.rhs - tol) < widest;
        if !(caps || floors) {
            return true;
        }
        for &(j, a) in &row.coeffs {
            let (lower, upper) = bounds[j];
            if a == 0.0 || lower == upper {
                continue;
            }
            let (low, high) = term_range(a, lower, upper);
            let (mut new_lower, mut new_upper) = (lower, upper);
            if caps {
                // a·x_j ≤ b − (least − low), loosened by tol.
                let cap = (row.rhs - (least - low) + tol) / a;
                if a > 0.0 {
                    new_upper = new_upper.min(cap);
                } else {
                    new_lower = new_lower.max(cap);
                }
            }
            if floors {
                // a·x_j ≥ b − (most − high), loosened by tol.
                let floor = (row.rhs - (most - high) - tol) / a;
                if a > 0.0 {
                    new_lower = new_lower.max(floor);
                } else {
                    new_upper = new_upper.min(floor);
                }
            }
            if self.binary[j] {
                new_lower = if new_lower > BINARY_TOL { 1.0 } else { lower };
                new_upper = if new_upper < 1.0 - BINARY_TOL {
                    0.0
                } else {
                    upper
                };
            }
            if new_lower > new_upper || (new_lower == lower && new_upper == upper) {
                continue;
            }
            bounds[j] = (new_lower, new_upper);
            let moved = (new_lower - lower).max(upper - new_upper);
            if moved > REQUEUE_SHARE * (upper - lower) {
                self.requeue(j, index);
            }
        }
        true
    }
}

/// The smallest and largest value of `a·x` over `x ∈ [lower, upper]`.
fn term_range(a: f64, lower: f64, upper: f64) -> (f64, f64) {
    if a >= 0.0 {
        (a * lower, a * upper)
    } else {
        (a * upper, a * lower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x + y (op) rhs` over `x, y ∈ [0, 1]`, with `y` binary when asked.
    fn pair(op: ConstraintOp, rhs: f64, y_binary: bool) -> (LinearProgram, Propagator) {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(0.0, 1.0);
        let y = lp.add_variable(0.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], op, rhs);
        let binaries: &[VarId] = if y_binary { &[1] } else { &[] };
        let propagator = Propagator::new(&lp, binaries);
        (lp, propagator)
    }

    #[test]
    fn a_row_out_of_reach_closes_the_node() {
        let (lp, mut propagator) = pair(ConstraintOp::Ge, 2.5, false);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(!propagator.propagate(&lp, &mut bounds, None));
        // The queue is left empty for the next node.
        assert!(propagator.queue.is_empty() && propagator.queued.iter().all(|q| !q));
    }

    #[test]
    fn a_miss_within_the_tolerance_keeps_the_node() {
        // The largest activity is 2; the tolerance is 1e-9·(1 + 1 + 2).
        let (lp, mut propagator) = pair(ConstraintOp::Ge, 2.0 + 3e-9, false);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(propagator.propagate(&lp, &mut bounds, None));
        let (lp, mut propagator) = pair(ConstraintOp::Ge, 2.0 + 5e-9, false);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(!propagator.propagate(&lp, &mut bounds, None));
    }

    #[test]
    fn tightened_bounds_are_loosened_by_the_tolerance() {
        // x + y ≥ 1.5 over [0, 1]² gives x, y ≥ 0.5, loosened.
        let (lp, mut propagator) = pair(ConstraintOp::Ge, 1.5, false);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(propagator.propagate(&lp, &mut bounds, None));
        let (lower, upper) = bounds[0];
        assert!(lower < 0.5 && lower > 0.5 - 1e-8, "{lower}");
        assert_eq!(upper, 1.0);
    }

    #[test]
    fn a_binary_is_fixed_only_past_its_tolerance() {
        // x + y ≥ 1 + δ with y binary: y ≥ δ, which fixes y = 1 only when
        // δ clears the binary tolerance.
        for (delta, fixed) in [(5e-7, false), (2e-6, true)] {
            let (lp, mut propagator) = pair(ConstraintOp::Ge, 1.0 + delta, true);
            let mut bounds = propagator.root_bounds(&lp).unwrap();
            assert!(propagator.propagate(&lp, &mut bounds, None));
            assert_eq!(bounds[1] == (1.0, 1.0), fixed, "δ = {delta}: {bounds:?}");
            assert!(bounds[1] == (0.0, 1.0) || fixed);
        }
        // x + y ≤ 0.5 with y binary: y ≤ 0.5 fixes y = 0, and x is capped
        // at 0.5, loosened.
        let (lp, mut propagator) = pair(ConstraintOp::Le, 0.5, true);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(propagator.propagate(&lp, &mut bounds, None));
        assert_eq!(bounds[1], (0.0, 0.0));
        assert!(bounds[0].1 > 0.5 && bounds[0].1 < 0.5 + 1e-8);
    }

    #[test]
    fn a_fixing_propagates_along_the_rows_it_touches() {
        // y ≤ 2·d and z ≥ y with d binary: fixing d = 0 pins y to 0 and
        // leaves z free; a row that does not hold d is not visited first.
        let mut lp = LinearProgram::new();
        let y = lp.add_variable(0.0, 2.0);
        let d = lp.add_variable(0.0, 1.0);
        let z = lp.add_variable(-1.0, 3.0);
        lp.add_constraint(&[(y, 1.0), (d, -2.0)], ConstraintOp::Le, 0.0);
        lp.add_constraint(&[(z, 1.0), (y, -1.0)], ConstraintOp::Ge, 0.0);
        let mut propagator = Propagator::new(&lp, &[d]);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(propagator.propagate(&lp, &mut bounds, None));
        // At the root, z ≥ y ≥ 0 lifts z's lower bound to 0.
        assert!(bounds[z].0.abs() < 1e-8, "{bounds:?}");
        bounds[d] = (0.0, 0.0);
        assert!(propagator.propagate(&lp, &mut bounds, Some(d)));
        assert!(bounds[y].1.abs() < 1e-8, "{bounds:?}");
        bounds[z] = (-1.0, -0.5);
        assert!(!propagator.propagate(&lp, &mut bounds, Some(z)));
    }

    #[test]
    fn root_bounds_round_binaries_inward() {
        let mut lp = LinearProgram::new();
        let a = lp.add_variable(0.3, 1.0);
        let b = lp.add_variable(0.0, 0.7);
        let c = lp.add_variable(-1.0, 2.0);
        let w = lp.add_variable(0.3, 0.7);
        let rounding = Propagator::new(&lp, &[a, b, c]);
        let bounds = rounding.root_bounds(&lp).unwrap();
        assert_eq!(bounds, vec![(1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (0.3, 0.7)]);
        // A binary in [0.3, 0.7] holds no integer.
        let none = Propagator::new(&lp, &[w]);
        assert!(none.root_bounds(&lp).is_none());
    }

    #[test]
    fn overflowing_activity_proves_nothing() {
        let mut lp = LinearProgram::new();
        let x = lp.add_variable(-1e300, 1e300);
        let y = lp.add_variable(-1e300, 1e300);
        lp.add_constraint(&[(x, 1e10), (y, 1e10)], ConstraintOp::Ge, 1.0);
        let mut propagator = Propagator::new(&lp, &[]);
        let mut bounds = propagator.root_bounds(&lp).unwrap();
        assert!(propagator.propagate(&lp, &mut bounds, None));
        assert_eq!(bounds, vec![(-1e300, 1e300); 2]);
    }
}
