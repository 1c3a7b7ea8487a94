//! Branch-and-bound mixed-integer linear programming over binary variables.

use dpv_trace::{CounterId, TraceHandle};

use crate::{
    simplex, BasisSnapshot, CancelToken, LinearProgram, LpSolution, LpStatus, VarId, SOLVER_EPS,
};

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// An optimal (or, for feasibility problems, some) integer-feasible
    /// solution was found.
    Optimal,
    /// No integer-feasible solution exists: every node was pruned by a
    /// certified LP infeasibility, a conflicting fixing or the incumbent
    /// bound.
    Infeasible,
    /// The node limit was exhausted before the search completed. The
    /// incumbent (if any) is returned, but optimality/infeasibility is not
    /// proven. Verification callers must treat this as "unknown".
    NodeLimit,
    /// An LP relaxation ended [`LpStatus::IterationLimit`]: it ran out of its
    /// simplex pivot budget, or its result failed the check against the live
    /// program (an optimum that is not primal feasible, or an infeasibility
    /// whose Farkas certificate does not hold) — numerical trouble in the
    /// model. [`SolveStats::failed_checks`] tells the two apart. The search
    /// stops conservatively; like [`MilpStatus::NodeLimit`] this is
    /// "unknown", never a verdict, so a degenerate or badly scaled model
    /// cannot abort the verification process or prune a feasible subtree.
    IterationLimit,
    /// A [`CancelToken`] tripped (explicit cancellation or an expired
    /// deadline) before the search completed. The incumbent (if any) is
    /// returned; like [`MilpStatus::NodeLimit`] this is "unknown", never a
    /// verdict.
    Cancelled,
}

/// Search statistics of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveStats {
    /// Number of LP relaxations solved.
    pub nodes_explored: usize,
    /// Number of nodes pruned (by incumbent bound, or — for enumeration
    /// backends — by infeasibility of the assignment's LP).
    pub nodes_pruned: usize,
    /// LP relaxations solved from a [`BasisSnapshot`] of an earlier solve.
    pub warm_solves: usize,
    /// LP relaxations solved from the slack basis. Both kinds run the same
    /// dual simplex; only the start basis differs.
    pub cold_solves: usize,
    /// Solves that were *offered* a snapshot but declined it: the snapshot
    /// did not fit the program, or the run stopped on its pivot budget or
    /// cancellation, or its result failed the check (an optimum that is not
    /// primal feasible, an infeasibility without a valid Farkas
    /// certificate). A decline restarts from the slack basis and is also
    /// counted in [`SolveStats::cold_solves`]; the split makes warm-hit
    /// accounting exact: `warm_solves + warm_declined` is the number of
    /// solves that actually had a snapshot in hand.
    pub warm_declined: usize,
    /// Total simplex pivots across every LP solve of the run.
    pub simplex_iterations: usize,
    /// Slack-basis LP solves whose result failed its check (an optimum
    /// that is not primal feasible, an infeasibility without a valid
    /// Farkas certificate). Each ends the search
    /// [`MilpStatus::IterationLimit`]; unlike an exhausted budget, a retry
    /// with raised budgets repeats the same pivots and fails the same
    /// check.
    pub failed_checks: usize,
}

impl SolveStats {
    /// Fraction of LP solves taken warm (zero when nothing was solved).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_solves + self.cold_solves;
        if total == 0 {
            0.0
        } else {
            self.warm_solves as f64 / total as f64
        }
    }
}

impl std::ops::AddAssign for SolveStats {
    fn add_assign(&mut self, rhs: Self) {
        self.nodes_explored += rhs.nodes_explored;
        self.nodes_pruned += rhs.nodes_pruned;
        self.warm_solves += rhs.warm_solves;
        self.cold_solves += rhs.cold_solves;
        self.warm_declined += rhs.warm_declined;
        self.simplex_iterations += rhs.simplex_iterations;
        self.failed_checks += rhs.failed_checks;
    }
}

impl std::ops::Add for SolveStats {
    type Output = SolveStats;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Outcome status.
    pub status: MilpStatus,
    /// Best integer-feasible assignment found (empty if none).
    pub values: Vec<f64>,
    /// Objective of `values` (meaningful only when a solution exists).
    pub objective: f64,
    /// Search statistics.
    pub stats: SolveStats,
}

impl MilpSolution {
    /// Returns `true` when an integer-feasible assignment was found.
    pub fn has_solution(&self) -> bool {
        !self.values.is_empty()
    }

    /// A solution reporting `status` with the incumbent found so far (none:
    /// empty values, zero objective).
    pub(crate) fn with_incumbent(
        status: MilpStatus,
        incumbent: Option<(Vec<f64>, f64)>,
        stats: SolveStats,
    ) -> Self {
        let (values, objective) = incumbent.unwrap_or_default();
        Self {
            status,
            values,
            objective,
            stats,
        }
    }
}

/// The per-call context of [`MilpProblem::solve_with`] and
/// [`crate::SolverBackend::solve_with`]: an optional warm-start basis,
/// cancellation token and trace handle. The default turns all three off,
/// which is what the plain `solve` methods pass.
#[derive(Debug, Default)]
pub struct SolveContext<'a> {
    /// A warm-start basis priming the search. Engines with warm-start
    /// state hand their final basis back here, so a caller pooling
    /// [`BasisSnapshot`]s can chain warm starts across problems; engines
    /// without it (cold, exhaustive, external) leave it untouched.
    /// Seeding is a pure performance hint: a stale or foreign basis
    /// degrades the solve to cold, never to a wrong verdict.
    pub seed: Option<BasisSnapshot>,
    /// Polled between simplex pivots and branch-and-bound nodes by every
    /// branch-and-bound engine in this crate, serial, cold and parallel
    /// alike; a tripped token ends the solve with
    /// [`MilpStatus::Cancelled`] and the incumbent found so far. Engines
    /// that cannot poll (the exhaustive oracle) ignore it and merely
    /// respond slower.
    pub cancel: Option<&'a CancelToken>,
    /// Records per-node solver telemetry. Observational only: a disabled
    /// or absent handle gives the identical search.
    pub trace: Option<&'a TraceHandle>,
}

/// Solves one node's LP relaxation against `scratch`, warm-starting from the
/// rolling basis in `warm` when enabled, and falls back to (and refreshes the
/// basis from) a cold solve otherwise. Shared by the serial and parallel
/// branch-and-bound engines so their statistics mean the same thing.
///
/// Any dual-feasible basis of the *same* matrix and objective warm-starts any
/// node — dual feasibility does not depend on the right-hand side — so the
/// rolling "most recent basis" works across backtracks and even across
/// work-stealing, not just parent→child edges.
pub(crate) fn solve_node_lp(
    scratch: &LinearProgram,
    warm: &mut Option<BasisSnapshot>,
    warm_enabled: bool,
    stats: &mut SolveStats,
    cancel: Option<&CancelToken>,
    trace: &TraceHandle,
) -> LpSolution {
    /// Warm re-solves per snapshot before a forced restart from the slack
    /// basis. The tableau accumulates floating-point drift with every pivot;
    /// the result checks already guard against *wrong* answers, but a
    /// periodic fresh tableau keeps their decline rate — and hence the warm
    /// hit rate — high on deep search trees.
    const REFACTOR_INTERVAL: usize = 256;
    // A cold search never reads the seed, so it hands the caller's seed
    // back untouched.
    if warm_enabled
        && warm
            .as_ref()
            .is_some_and(|snapshot| snapshot.warm_uses() >= REFACTOR_INTERVAL)
    {
        *warm = None;
        trace.add(CounterId::Refactorisations, 1);
    }
    let mut warm_used = false;
    let solution = if warm_enabled {
        let snapshot_offered = warm.is_some();
        match warm
            .as_mut()
            .and_then(|snap| simplex::solve_from_basis(scratch, snap, cancel))
        {
            Some(solution) => {
                stats.warm_solves += 1;
                warm_used = true;
                solution
            }
            None => {
                if snapshot_offered {
                    stats.warm_declined += 1;
                }
                let (solution, snapshot) = cold_node_lp(scratch, stats, cancel);
                *warm = snapshot;
                solution
            }
        }
    } else {
        cold_node_lp(scratch, stats, cancel).0
    };
    stats.simplex_iterations += solution.iterations;
    trace.lp_node(warm_used, solution.iterations as u64);
    solution
}

/// Solves one node's LP relaxation from the slack basis, counting the solve
/// and, when its result fails the check, the failed check.
fn cold_node_lp(
    scratch: &LinearProgram,
    stats: &mut SolveStats,
    cancel: Option<&CancelToken>,
) -> (LpSolution, Option<BasisSnapshot>) {
    stats.cold_solves += 1;
    simplex::solve_checked(scratch, cancel).unwrap_or_else(|iterations| {
        stats.failed_checks += 1;
        (simplex::failed_check(iterations), None)
    })
}

/// Picks the binary variable to branch on at a node whose relaxation is
/// optimal, or `None` when the relaxation is integral over the unfixed
/// binaries.
///
/// For **feasibility-only** problems (all-zero objective — the query safety
/// verification issues) the *most* fractional unfixed binary is chosen: its
/// relaxation value is closest to 1/2, so fixing it perturbs the relaxation
/// the most and drives infeasible subtrees to contradiction soonest, which
/// measurably shrinks refutation trees compared to a first-fractional
/// rule. For **optimisation** problems the first fractional binary is kept:
/// diving along the relaxation's suggestion finds strong incumbents early,
/// and the incumbent bound — not contradiction depth — prunes the tree.
pub(crate) fn select_branching_variable(
    binaries: &[VarId],
    fixings: &[(VarId, f64)],
    values: &[f64],
    feasibility_only: bool,
) -> Option<VarId> {
    let mut unfixed = binaries
        .iter()
        .copied()
        .filter(|&b| fixings.iter().all(|(v, _)| *v != b));
    if feasibility_only {
        unfixed
            .map(|b| {
                let v = values[b];
                (b, (v - v.round()).abs())
            })
            .filter(|&(_, frac)| frac > 1e-6)
            // Fractionalities are differences of finite relaxation values, so
            // a NaN here would indicate solver trouble; an arbitrary-but-total
            // tie-break keeps branching deterministic instead of panicking.
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(b, _)| b)
    } else {
        unfixed.find(|&b| (values[b] - values[b].round()).abs() > 1e-6)
    }
}

/// A mixed-integer linear program: a [`LinearProgram`] in which a subset of
/// variables is required to take values in `{0, 1}`.
///
/// ```
/// use dpv_lp::{ConstraintOp, MilpProblem, MilpStatus};
///
/// // max x + y with x + y <= 1.5 and both binary → optimum 1.
/// let mut milp = MilpProblem::new();
/// let x = milp.add_binary();
/// let y = milp.add_binary();
/// milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
/// milp.lp_mut().add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Le, 1.5);
/// let solution = milp.solve();
/// assert_eq!(solution.status, MilpStatus::Optimal);
/// assert!((solution.objective - 1.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MilpProblem {
    lp: LinearProgram,
    binaries: Vec<VarId>,
    node_limit: usize,
}

impl Default for MilpProblem {
    fn default() -> Self {
        Self::new()
    }
}

impl MilpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self {
            lp: LinearProgram::new(),
            binaries: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Wraps an existing LP; binary restrictions can then be added with
    /// [`MilpProblem::mark_binary`].
    pub fn from_lp(lp: LinearProgram) -> Self {
        Self {
            lp,
            binaries: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Adds a continuous variable with the given bounds.
    pub fn add_variable(&mut self, lower: f64, upper: f64) -> VarId {
        self.lp.add_variable(lower, upper)
    }

    /// Adds a binary variable (bounds `[0, 1]`, integrality enforced by the
    /// branch-and-bound).
    pub fn add_binary(&mut self) -> VarId {
        let var = self.lp.add_variable(0.0, 1.0);
        self.binaries.push(var);
        var
    }

    /// Marks an existing variable as binary and clamps its bounds to `[0, 1]`.
    pub fn mark_binary(&mut self, var: VarId) {
        self.lp.tighten_bounds(var, 0.0, 1.0);
        if !self.binaries.contains(&var) {
            self.binaries.push(var);
        }
    }

    /// The binary variables.
    pub fn binaries(&self) -> &[VarId] {
        &self.binaries
    }

    /// Read access to the underlying LP.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// Mutable access to the underlying LP (objective, constraints, bounds).
    pub fn lp_mut(&mut self) -> &mut LinearProgram {
        &mut self.lp
    }

    /// Limits the number of LP relaxations the branch-and-bound may solve.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// The current node limit. Alternative backends (parallel
    /// branch-and-bound, external engines) honour the same budget.
    pub fn node_limit(&self) -> usize {
        self.node_limit
    }

    /// Checks integer feasibility of an assignment.
    pub fn is_feasible(&self, values: &[f64], eps: f64) -> bool {
        self.lp.is_feasible(values, eps)
            && self
                .binaries
                .iter()
                .all(|&b| (values[b] - values[b].round()).abs() <= eps)
    }

    /// Solves the MILP by best-effort depth-first branch-and-bound.
    ///
    /// For pure feasibility problems (zero objective) the search stops at the
    /// first integer-feasible node.
    ///
    /// Node evaluation is allocation-free with respect to the model: instead
    /// of cloning the whole [`LinearProgram`] per node, a single scratch
    /// program is reused — binary bounds are tightened to the node's fixings
    /// on descent and restored from a saved snapshot on backtrack. Each
    /// node's relaxation is additionally **warm-started** from the most
    /// recent solved basis ([`LinearProgram::solve_from_basis`]): consecutive
    /// nodes differ only in binary bounds, so the dual simplex starts a few
    /// pivots from the answer instead of at the slack basis; [`SolveStats`]
    /// records the warm/cold split.
    pub fn solve(&self) -> MilpSolution {
        self.solve_with(&mut SolveContext::default())
    }

    /// [`MilpProblem::solve`] under a [`SolveContext`]:
    ///
    /// * the context's `seed` primes the first node's warm start and on
    ///   return holds the last solved basis, so consecutive MILPs that share
    ///   a structure — instantiations of one `EncodingTemplate` across
    ///   obligations or requests — chain their warm starts across *problem*
    ///   boundaries. A stale or foreign basis fails
    ///   [`LinearProgram::solve_from_basis`]'s structure check or its
    ///   primal/Farkas check and the node restarts from the slack basis
    ///   (counted in [`SolveStats::warm_declined`]);
    /// * the `cancel` token is polled in the node loop and inside every LP
    ///   relaxation; once tripped the search returns
    ///   [`MilpStatus::Cancelled`] with the incumbent found so far;
    /// * the `trace` handle records per-node telemetry (nodes, warm/cold LP
    ///   split, pivots, refactorisations, sampled progress events). Tracing
    ///   is observational and never alters the search.
    pub fn solve_with(&self, ctx: &mut SolveContext<'_>) -> MilpSolution {
        self.search(true, ctx)
    }

    /// The branch-and-bound search behind [`MilpProblem::solve_with`];
    /// `warm_enabled: false` starts every node from the slack basis and
    /// leaves the seed untouched ([`crate::ColdBranchAndBoundBackend`]).
    pub(crate) fn search(&self, warm_enabled: bool, ctx: &mut SolveContext<'_>) -> MilpSolution {
        let disabled = TraceHandle::disabled();
        let trace = ctx.trace.unwrap_or(&disabled);
        let cancel = ctx.cancel;
        let warm = &mut ctx.seed;
        let feasibility_only = self.lp.objective().iter().all(|&c| c == 0.0);
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        // Each stack entry is a list of (binary var, fixed value) decisions.
        let mut stack: Vec<Vec<(VarId, f64)>> = vec![Vec::new()];
        let mut hit_limit = false;
        // The single scratch LP all nodes are evaluated against; the rolling
        // warm-start basis is refreshed after every solved relaxation.
        let mut scratch = self.lp.clone();

        while let Some(fixings) = stack.pop() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return MilpSolution::with_incumbent(MilpStatus::Cancelled, incumbent, stats);
            }
            if stats.nodes_explored >= self.node_limit {
                hit_limit = true;
                break;
            }
            stats.nodes_explored += 1;
            if !self.fix_node(&mut scratch, &fixings) {
                continue;
            }
            let solution = solve_node_lp(&scratch, warm, warm_enabled, &mut stats, cancel, trace);
            match solution.status {
                LpStatus::Infeasible => continue,
                LpStatus::IterationLimit | LpStatus::Cancelled => {
                    // The relaxation could not be solved (budget exhausted,
                    // failed check or cancellation); neither pruning nor
                    // branching is justified. Stop conservatively.
                    let status = if solution.status == LpStatus::Cancelled {
                        MilpStatus::Cancelled
                    } else {
                        MilpStatus::IterationLimit
                    };
                    return MilpSolution::with_incumbent(status, incumbent, stats);
                }
                LpStatus::Optimal => {
                    // Bound pruning (only valid for optimisation problems).
                    if let Some((_, best)) = &incumbent {
                        if self.prunes(solution.objective, *best) {
                            stats.nodes_pruned += 1;
                            continue;
                        }
                    }
                }
            }

            match select_branching_variable(
                &self.binaries,
                &fixings,
                &solution.values,
                feasibility_only,
            ) {
                None => {
                    // Integer feasible.
                    let best = incumbent.as_ref().map(|(_, best)| *best);
                    if self.improves(solution.objective, best) {
                        incumbent = Some((solution.values.clone(), solution.objective));
                    }
                    if feasibility_only {
                        break;
                    }
                }
                Some(branch_var) => stack.extend(children(fixings, branch_var, &solution.values)),
            }
        }

        let status = match (&incumbent, hit_limit) {
            (_, true) => MilpStatus::NodeLimit,
            (Some(_), false) => MilpStatus::Optimal,
            (None, false) => MilpStatus::Infeasible,
        };
        MilpSolution::with_incumbent(status, incumbent, stats)
    }

    /// Points `scratch` (a clone of this problem's LP) at the node
    /// `fixings`: every binary is reset to its original bounds, then the
    /// node's binaries are fixed. Returns `false` when a fixing falls
    /// outside its binary's original bounds (possible when a binary was
    /// pre-fixed, e.g. a stable ReLU phase): the node is infeasible without
    /// solving anything.
    pub(crate) fn fix_node(&self, scratch: &mut LinearProgram, fixings: &[(VarId, f64)]) -> bool {
        for &b in &self.binaries {
            let (lo, hi) = self.lp.bounds(b);
            scratch.set_bounds(b, lo, hi);
        }
        fixings.iter().all(|&(var, value)| {
            let (lo, hi) = self.lp.bounds(var);
            let inside = value >= lo - SOLVER_EPS && value <= hi + SOLVER_EPS;
            if inside {
                scratch.set_bounds(var, value, value);
            }
            inside
        })
    }

    /// Whether `objective` strictly improves on the incumbent's `best`.
    pub(crate) fn improves(&self, objective: f64, best: Option<f64>) -> bool {
        best.is_none_or(|best| {
            if self.lp.is_maximization() {
                objective > best
            } else {
                objective < best
            }
        })
    }

    /// Bound pruning: whether a relaxation objective `bound` cannot beat the
    /// incumbent's `best` by more than [`SOLVER_EPS`].
    pub(crate) fn prunes(&self, bound: f64, best: f64) -> bool {
        if self.lp.is_maximization() {
            bound <= best + SOLVER_EPS
        } else {
            bound >= best - SOLVER_EPS
        }
    }
}

/// The two children of a node branching on `var`, in push order: the
/// branch the relaxation `values` suggest comes last, so a depth-first
/// (LIFO) search explores it first.
pub(crate) fn children(
    fixings: Vec<(VarId, f64)>,
    var: VarId,
    values: &[f64],
) -> [Vec<(VarId, f64)>; 2] {
    let suggested = values[var].round().clamp(0.0, 1.0);
    let mut other = fixings.clone();
    other.push((var, 1.0 - suggested));
    let mut preferred = fixings;
    preferred.push((var, suggested));
    [other, preferred]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConstraintOp, SolverBackend};

    #[test]
    fn knapsack_is_solved_exactly() {
        // max 10a + 6b + 4c  s.t.  a + b + c <= 2 (binaries) → 16.
        let mut milp = MilpProblem::new();
        let a = milp.add_binary();
        let b = milp.add_binary();
        let c = milp.add_binary();
        milp.lp_mut()
            .set_objective(&[(a, 10.0), (b, 6.0), (c, 4.0)], true);
        milp.lp_mut()
            .add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 16.0).abs() < 1e-6);
        assert!(milp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn integrality_changes_the_optimum() {
        // LP relaxation optimum is fractional; MILP must find the integer one.
        // max x + y  s.t.  2x + 2y <= 3, binaries → integer optimum 1.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let relaxed = milp.lp().solve();
        assert!((relaxed.objective - 1.5).abs() < 1e-6);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_milp_detected() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        assert_eq!(milp.solve().status, MilpStatus::Infeasible);
    }

    #[test]
    fn feasibility_problem_stops_at_first_solution() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let z = milp.add_variable(-1.0, 1.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], ConstraintOp::Ge, 1.5);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(sol.has_solution());
        assert!(milp.is_feasible(&sol.values, 1e-6));
    }

    #[test]
    fn mixed_integer_with_continuous_variables() {
        // max 3x + 2y + w: x,y binary, w in [0, 10], w <= 4x + 2y.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let w = milp.add_variable(0.0, 10.0);
        milp.lp_mut()
            .set_objective(&[(x, 3.0), (y, 2.0), (w, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(w, 1.0), (x, -4.0), (y, -2.0)], ConstraintOp::Le, 0.0);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(
            (sol.objective - 11.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
    }

    #[test]
    fn node_limit_reports_unknown() {
        let mut milp = MilpProblem::new();
        for _ in 0..6 {
            let _ = milp.add_binary();
        }
        // Encourage branching with a constraint that keeps the relaxation fractional.
        let vars: Vec<_> = milp.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Eq, 2.5);
        milp.set_node_limit(1);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::NodeLimit);
    }

    #[test]
    fn mark_binary_restricts_existing_variable() {
        let mut milp = MilpProblem::new();
        let x = milp.add_variable(0.0, 5.0);
        milp.mark_binary(x);
        assert_eq!(milp.lp().bounds(x), (0.0, 1.0));
        assert_eq!(milp.binaries(), &[x]);
        milp.mark_binary(x);
        assert_eq!(milp.binaries().len(), 1);
    }

    #[test]
    fn solve_stats_aggregate_with_add_assign() {
        let mut total = SolveStats::default();
        total += SolveStats {
            nodes_explored: 3,
            nodes_pruned: 1,
            warm_solves: 2,
            cold_solves: 1,
            warm_declined: 1,
            simplex_iterations: 9,
            failed_checks: 1,
        };
        total += SolveStats {
            nodes_explored: 5,
            nodes_pruned: 2,
            warm_solves: 4,
            cold_solves: 1,
            warm_declined: 0,
            simplex_iterations: 11,
            failed_checks: 2,
        };
        assert_eq!(total.nodes_explored, 8);
        assert_eq!(total.nodes_pruned, 3);
        assert_eq!(total.warm_solves, 6);
        assert_eq!(total.cold_solves, 2);
        assert_eq!(total.warm_declined, 1);
        assert_eq!(total.simplex_iterations, 20);
        assert_eq!(total.failed_checks, 3);
        assert!((total.warm_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SolveStats::default().warm_hit_rate(), 0.0);
        let sum = total
            + SolveStats {
                nodes_explored: 2,
                ..SolveStats::default()
            };
        assert_eq!(sum.nodes_explored, 10);
    }

    #[test]
    fn warm_starts_carry_the_majority_of_node_solves() {
        // A fractional equality over six binaries forces a real tree; after
        // the cold root every node re-solve differs only in binary bounds,
        // so the rolling basis keeps almost every solve warm.
        let mut milp = MilpProblem::new();
        for _ in 0..6 {
            let _ = milp.add_binary();
        }
        let vars: Vec<_> = milp.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Eq, 2.5);
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::Infeasible);
        assert!(sol.stats.warm_solves + sol.stats.cold_solves >= 3);
        assert!(
            sol.stats.warm_solves > sol.stats.cold_solves,
            "expected a warm majority: {:?}",
            sol.stats
        );
        assert!(sol.stats.simplex_iterations > 0);
    }

    #[test]
    fn seeded_solve_reuses_the_callers_basis_across_problems() {
        // Two problems sharing a structure (same binaries, same rows, only a
        // rhs apart): the basis handed out by the first solve must prime the
        // second one, replacing its cold root solve with a warm start.
        let build = |rhs: f64| {
            let mut milp = MilpProblem::new();
            for _ in 0..4 {
                let _ = milp.add_binary();
            }
            let vars: Vec<_> = milp.binaries().to_vec();
            let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
            milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Ge, rhs);
            milp
        };
        let mut ctx = SolveContext::default();
        let first = build(2.0).solve_with(&mut ctx);
        assert_eq!(first.status, MilpStatus::Optimal);
        assert!(ctx.seed.is_some(), "seeded solve must hand the basis back");
        let second = build(3.0).solve_with(&mut ctx);
        assert_eq!(second.status, MilpStatus::Optimal);
        assert_eq!(
            second.stats.cold_solves, 0,
            "structurally identical follow-up should be fully warm: {:?}",
            second.stats
        );
        // And the seeded result must agree with an unseeded solve.
        let reference = build(3.0).solve();
        assert_eq!(second.status, reference.status);
    }

    #[test]
    fn foreign_seed_degrades_to_cold_without_changing_the_verdict() {
        // A basis from a structurally different problem (different variable
        // count) must be rejected by the structure guard: the solve falls
        // back to cold and still returns the reference verdict.
        let mut donor = MilpProblem::new();
        for _ in 0..6 {
            let _ = donor.add_binary();
        }
        let vars: Vec<_> = donor.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        donor
            .lp_mut()
            .add_constraint(&coeffs, ConstraintOp::Ge, 1.0);
        let mut ctx = SolveContext::default();
        let _ = donor.solve_with(&mut ctx);
        assert!(ctx.seed.is_some());

        let mut other = MilpProblem::new();
        let x = other.add_binary();
        let y = other.add_binary();
        other
            .lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let seeded = other.solve_with(&mut ctx);
        let reference = other.solve();
        assert_eq!(seeded.status, reference.status);
        assert_eq!(seeded.status, MilpStatus::Infeasible);
        // The rejection is not silent: the offered-but-declined basis shows
        // up in `warm_declined`, and a fully owned solve declines nothing.
        assert!(
            seeded.stats.warm_declined >= 1,
            "foreign basis rejection must be recorded: {:?}",
            seeded.stats
        );
        assert_eq!(reference.stats.warm_declined, 0);
    }

    #[test]
    fn warm_and_cold_solves_agree_on_status_and_objective() {
        let mut milp = MilpProblem::new();
        let a = milp.add_binary();
        let b = milp.add_binary();
        let c = milp.add_binary();
        let w = milp.add_variable(0.0, 2.0);
        milp.lp_mut()
            .set_objective(&[(a, 3.0), (b, 5.0), (c, 4.0), (w, 1.0)], true);
        milp.lp_mut().add_constraint(
            &[(a, 2.0), (b, 3.0), (c, 1.0), (w, 1.0)],
            ConstraintOp::Le,
            4.0,
        );
        let warm = milp.solve();
        let cold = crate::ColdBranchAndBoundBackend.solve(&milp);
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert_eq!(cold.stats.warm_solves, 0);
        assert!(cold.stats.cold_solves >= 1);
    }

    #[test]
    fn iteration_limit_surfaces_as_milp_status() {
        // A starved pivot budget must degrade to IterationLimit ("unknown"),
        // not abort the process — the regression the old panic caused.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        milp.lp_mut().set_iteration_limit(Some(0));
        let sol = milp.solve();
        assert_eq!(sol.status, MilpStatus::IterationLimit);
    }

    #[test]
    fn node_limit_is_exposed() {
        let mut milp = MilpProblem::new();
        assert_eq!(milp.node_limit(), 200_000);
        milp.set_node_limit(7);
        assert_eq!(milp.node_limit(), 7);
    }

    #[test]
    fn solve_leaves_the_problem_bounds_untouched() {
        // The scratch-LP rework must not mutate the caller's model: bounds
        // observed after a solve are the bounds that went in.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let before: Vec<_> = (0..2).map(|v| milp.lp().bounds(v)).collect();
        let _ = milp.solve();
        let after: Vec<_> = (0..2).map(|v| milp.lp().bounds(v)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn solve_stats_are_recorded() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let sol = milp.solve();
        assert!(sol.stats.nodes_explored >= 1);
    }
}
