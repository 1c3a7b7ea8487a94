//! Branch-and-bound mixed-integer linear programming over binary variables.

use crate::propagate::{Bounds, Propagator};
use crate::{
    simplex, BasisSnapshot, CancelToken, LinearProgram, LpSolution, LpStatus, VarId, SOLVER_EPS,
};

/// Status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// An optimal (or, for feasibility problems, some) integer-feasible
    /// solution was found, or a feasibility search stopped at a relaxation
    /// point that [`SolveContext::witness`] accepted; that point need not
    /// be integral.
    Optimal,
    /// No integer-feasible solution exists: every node was closed by a
    /// certified LP infeasibility, by one row whose activity over the
    /// node's propagated bounds cannot reach its right-hand side, by a
    /// binary whose bounds hold neither 0 nor 1, or by the incumbent bound.
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
    /// Number of branch-and-bound nodes explored. A node that bound
    /// propagation closes counts here and solves no LP, so the LP
    /// relaxations solved are `warm_solves + cold_solves`. A search its root
    /// decides explores one node.
    pub nodes_explored: usize,
    /// Number of nodes pruned (by incumbent bound, or — for enumeration
    /// backends — by infeasibility of the assignment's LP).
    pub nodes_pruned: usize,
    /// LP relaxations solved from a [`BasisSnapshot`] of an earlier solve.
    pub warm_solves: usize,
    /// LP relaxations solved from the slack basis. Both kinds run the same
    /// dual simplex; only the start basis differs. The branch-and-bound
    /// search solves its root this way unless a seed fits, and every node
    /// whose warm start was declined or dropped for a fresh tableau; the
    /// exhaustive oracle solves every LP this way.
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
    /// Best integer-feasible assignment found (empty if none), or the
    /// relaxation point [`SolveContext::witness`] accepted, which need not
    /// be integral.
    pub values: Vec<f64>,
    /// Objective of `values` (meaningful only when a solution exists).
    pub objective: f64,
    /// Search statistics.
    pub stats: SolveStats,
}

impl MilpSolution {
    /// Returns `true` when an assignment was found: an integer-feasible
    /// one, or a point the witness check accepted.
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
/// cancellation token and witness check. The default turns all three off,
/// which is what the plain `solve` methods pass. The search reports its
/// work only through the [`SolveStats`] of the solution it returns.
#[derive(Default)]
pub struct SolveContext<'a> {
    /// A warm-start basis priming the search. The branch-and-bound search
    /// hands its final basis back here, so a caller pooling
    /// [`BasisSnapshot`]s can chain warm starts across problems with the
    /// same rows and objective; engines without warm-start state (the
    /// exhaustive oracle, external engines) leave it untouched. A basis of
    /// other rows, such as that of another region's encoding of the same
    /// network in `dpv-core`, does not fit and is declined. Seeding is a
    /// pure performance hint: a stale or foreign basis degrades the solve
    /// to cold, never to a wrong verdict.
    pub seed: Option<BasisSnapshot>,
    /// Polled between simplex pivots and branch-and-bound nodes by the
    /// branch-and-bound search; a tripped token ends the solve with
    /// [`MilpStatus::Cancelled`] and the incumbent found so far. Engines
    /// that cannot poll (the exhaustive oracle) ignore it and merely
    /// respond slower.
    pub cancel: Option<&'a CancelToken>,
    /// A caller's check of a relaxation point, for feasibility problems
    /// (all-zero objective) only. The branch-and-bound search calls it on
    /// the LP point of every node whose relaxation is optimal, before
    /// branching; the first point it accepts ends the search
    /// [`MilpStatus::Optimal`] with that point as the solution, integral or
    /// not. A rejected integral point ends the search as it would without a
    /// check. A nonzero objective never consults it, and the exhaustive
    /// oracle ignores it. The caller vouches for an accepted point:
    /// `dpv-core` passes its counterexample guard, which re-executes the
    /// network concretely.
    pub witness: Option<WitnessCheck<'a>>,
}

/// The type of [`SolveContext::witness`].
type WitnessCheck<'a> = &'a dyn Fn(&[f64]) -> bool;

impl std::fmt::Debug for SolveContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveContext")
            .field("seed", &self.seed)
            .field("cancel", &self.cancel)
            .field("witness", &self.witness.map(|_| "Fn(&[f64]) -> bool"))
            .finish()
    }
}

/// Warm re-solves per snapshot before a forced restart from the slack basis.
/// The tableau accumulates floating-point drift with every pivot; the result
/// checks already guard against *wrong* answers, but a periodic fresh tableau
/// keeps their decline rate — and hence the warm hit rate — high on deep
/// search trees.
const REFACTOR_INTERVAL: usize = 256;

/// Solves one node's LP relaxation against `scratch`, warm-starting from the
/// rolling basis in `warm`, and falls back to (and refreshes the basis from)
/// a cold solve when there is none or it is declined.
///
/// Any dual-feasible basis of the *same* matrix and objective warm-starts any
/// node — dual feasibility does not depend on the right-hand side — so the
/// rolling "most recent basis" works across backtracks, not just
/// parent→child edges.
fn solve_node_lp(
    scratch: &LinearProgram,
    warm: &mut Option<BasisSnapshot>,
    stats: &mut SolveStats,
    cancel: Option<&CancelToken>,
) -> LpSolution {
    if warm
        .as_ref()
        .is_some_and(|snapshot| snapshot.warm_uses() >= REFACTOR_INTERVAL)
    {
        *warm = None;
    }
    let snapshot_offered = warm.is_some();
    let solution = match warm
        .as_mut()
        .and_then(|snap| simplex::solve_from_basis(scratch, snap, cancel))
    {
        Some(solution) => {
            stats.warm_solves += 1;
            solution
        }
        None => {
            if snapshot_offered {
                stats.warm_declined += 1;
            }
            stats.cold_solves += 1;
            let (solution, snapshot) =
                simplex::solve_checked(scratch, cancel).unwrap_or_else(|iterations| {
                    stats.failed_checks += 1;
                    (simplex::failed_check(iterations), None)
                });
            *warm = snapshot;
            solution
        }
    };
    stats.simplex_iterations += solution.iterations;
    solution
}

/// One big-M ReLU `y = max(0, x)` of a [`MilpProblem`], as the search reads
/// it back: its phase binary `δ`, its output `y` and its row `y − x ≥ c`,
/// in which `y` has coefficient 1 and `δ` does not appear. The row holds
/// the pre-activation's expression `x = p + c` as `y − p ≥ c`, so at a point
/// the pre-activation is `y − activity + rhs` and `y − x` is the row's
/// `activity − rhs`. Recorded by [`MilpProblem::link_relu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReluLink {
    /// The phase binary `δ`.
    pub binary: VarId,
    /// The output variable `y`.
    pub output: VarId,
    /// The index of the row `y − x ≥ c`.
    pub row: usize,
}

impl ReluLink {
    /// Whether `values` puts `y` above `max(0, x)` by more than
    /// [`SOLVER_EPS`]: the rows `y ≥ x` and `y ≥ 0` hold, but the point is
    /// no execution of this ReLU. `y − max(0, x)` is the smaller of `y` and
    /// `y − x`.
    fn violated(&self, lp: &LinearProgram, values: &[f64]) -> bool {
        let row = &lp.constraints()[self.row];
        let activity: f64 = row.coeffs.iter().map(|&(v, a)| a * values[v]).sum();
        values[self.output].min(activity - row.rhs) > SOLVER_EPS
    }
}

/// Picks the binary variable to branch on at a node whose relaxation is
/// optimal, or `None` when the relaxation is integral over the binaries the
/// node's `bounds` leave unfixed; a binary that a branching or propagation
/// fixed is never picked.
///
/// For **feasibility-only** problems (all-zero objective — the query safety
/// verification issues) the branching looks at the ReLUs first. When every
/// binary is the phase of a [`ReluLink`], it picks the most fractional of
/// the unfixed fractional binaries whose ReLU the LP point violates (its
/// output lies above `max(0, x)`): either phase of such a ReLU cuts the
/// point off, while a ReLU the point already executes has a phase that
/// keeps it, so one child would re-solve to the same point. When no such
/// binary is fractional, or some binary carries no link, the *most*
/// fractional unfixed binary is chosen: its relaxation value is closest to
/// 1/2, so fixing it perturbs the relaxation the most and drives infeasible
/// subtrees to contradiction soonest. For
/// **optimisation** problems the first fractional binary is kept: diving
/// along the relaxation's suggestion finds strong incumbents early, and the
/// incumbent bound — not contradiction depth — prunes the tree.
fn select_branching_variable(
    milp: &MilpProblem,
    bounds: &[(f64, f64)],
    values: &[f64],
    feasibility_only: bool,
) -> Option<VarId> {
    let branchable = |b: VarId| bounds[b].0 < bounds[b].1 && fractionality(values[b]) > 1e-6;
    let mut binaries = milp.binaries.iter().copied().filter(|&b| branchable(b));
    if !feasibility_only {
        return binaries.next();
    }
    if milp.relu_links.len() == milp.binaries.len() {
        let violated = milp
            .relu_links
            .iter()
            .filter(|link| branchable(link.binary) && link.violated(&milp.lp, values))
            .map(|link| link.binary);
        if let Some(b) = most_fractional(violated, values) {
            return Some(b);
        }
    }
    most_fractional(binaries, values)
}

/// The distance of a relaxation value to the nearest integer.
fn fractionality(value: f64) -> f64 {
    (value - value.round()).abs()
}

/// The most fractional of `candidates`, the last on a tie.
fn most_fractional(candidates: impl Iterator<Item = VarId>, values: &[f64]) -> Option<VarId> {
    candidates
        .map(|b| (b, fractionality(values[b])))
        // Fractionalities are differences of finite relaxation values, so a
        // NaN here would indicate solver trouble; an arbitrary-but-total
        // tie-break keeps branching deterministic instead of panicking.
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(b, _)| b)
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
    relu_links: Vec<ReluLink>,
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
            relu_links: Vec::new(),
            node_limit: 200_000,
        }
    }

    /// Wraps an existing LP; binary restrictions can then be added with
    /// [`MilpProblem::mark_binary`].
    pub fn from_lp(lp: LinearProgram) -> Self {
        Self {
            lp,
            binaries: Vec::new(),
            relu_links: Vec::new(),
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

    /// Records that `binary` is the phase of a big-M ReLU `y = max(0, x)`
    /// with output `output`, whose row `y − x ≥ c` is row `row`: `output`
    /// at coefficient 1, `binary` absent (see [`ReluLink`]). A feasibility
    /// search whose binaries all carry a link branches among the ReLUs its
    /// node's LP point violates ([`MilpProblem::solve`]). A link only steers
    /// the branching; it adds no constraint. [`crate::encode_relu_big_m`]
    /// and `dpv-core`'s network encoder record one link per binary.
    ///
    /// # Panics
    /// Panics when `binary` is not a binary of the problem or already has a
    /// link, or when `output` or `row` does not exist.
    pub fn link_relu(&mut self, binary: VarId, output: VarId, row: usize) {
        // Encoders link the binary they just added: search from the back.
        assert!(
            self.binaries.iter().rev().any(|&b| b == binary),
            "variable {binary} is not a binary of the problem"
        );
        assert!(
            self.relu_links.iter().all(|link| link.binary != binary),
            "binary {binary} already has a ReLU link"
        );
        assert!(
            output < self.lp.num_variables() && row < self.lp.num_constraints(),
            "the ReLU link names output {output} and row {row}, which do not exist"
        );
        self.relu_links.push(ReluLink {
            binary,
            output,
            row,
        });
    }

    /// The big-M ReLUs recorded by [`MilpProblem::link_relu`], in the order
    /// they were linked.
    pub fn relu_links(&self) -> &[ReluLink] {
        &self.relu_links
    }

    /// Read access to the underlying LP.
    pub fn lp(&self) -> &LinearProgram {
        &self.lp
    }

    /// Mutable access to the underlying LP (objective, constraints, bounds).
    pub fn lp_mut(&mut self) -> &mut LinearProgram {
        &mut self.lp
    }

    /// Limits the number of nodes the branch-and-bound may explore
    /// ([`SolveStats::nodes_explored`]); a node closed by bound propagation
    /// counts against the limit although it solves no LP.
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit.max(1);
    }

    /// The current node limit. Alternative backends (external engines, for
    /// instance) honour the same budget.
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
    /// first integer-feasible node, or at the first point the context's
    /// witness check accepts ([`MilpProblem::solve_with`]).
    ///
    /// A node whose LP point is fractional branches on one binary. On a
    /// feasibility problem whose binaries all carry a [`ReluLink`], that is
    /// the most fractional unfixed binary whose ReLU the point violates: its
    /// output lies above `max(0, x)` by more than [`SOLVER_EPS`], with the
    /// pre-activation `x` read back from the link's row. With no violated
    /// ReLU, or with a binary that carries no link, it is the most fractional
    /// unfixed binary; an optimisation problem takes the first fractional
    /// one. The child the point's rounded value suggests is searched first.
    ///
    /// Each node carries its own variable bounds. The root starts from the
    /// problem's bounds, each binary's rounded inward to the integers it
    /// holds; a child inherits its parent's bounds plus the one binary the
    /// branching fixed. Before a node's LP, its bounds are **propagated**
    /// over the rows, from the rows of the binary just fixed (at the root,
    /// from every row): a row whose activity over the bounds cannot reach its
    /// right-hand side closes the node without an LP, and a binary whose
    /// bounds collapse to one value is fixed and never branched on. Every
    /// conclusion carries the tolerance of the LP's Farkas check, relative
    /// to the magnitudes of the row. Only binary bounds reach the node's LP;
    /// tightened continuous bounds stay in the node's propagation state, so
    /// the LP is the relaxation of the problem's rows under the node's
    /// fixings.
    ///
    /// A node whose binary bounds are the problem's own (the root, unless
    /// propagation fixed a binary there) is solved on the problem's LP;
    /// every other node on one scratch copy, made on first use, whose binary
    /// bounds are overwritten per node. Each node's relaxation is
    /// additionally **warm-started** from the most recent solved basis
    /// ([`LinearProgram::solve_from_basis`]): consecutive nodes differ only
    /// in binary bounds, so the dual simplex starts a few pivots from the
    /// answer instead of at the slack basis; [`SolveStats`] records the
    /// warm/cold split.
    pub fn solve(&self) -> MilpSolution {
        self.solve_with(&mut SolveContext::default())
    }

    /// [`MilpProblem::solve`] under a [`SolveContext`]:
    ///
    /// * the context's `seed` primes the first node's warm start and on
    ///   return holds the last solved basis, so consecutive MILPs with the
    ///   same rows and objective (only bounds and right-hand sides apart)
    ///   chain their warm starts across *problem* boundaries. Obligations
    ///   of one `EncodingTemplate` in `dpv-core` are built from their own
    ///   bounds and do not share rows, so their bases do not chain. A stale
    ///   or foreign basis fails [`LinearProgram::solve_from_basis`]'s
    ///   structure check or its primal/Farkas check and the node restarts
    ///   from the slack basis (counted in [`SolveStats::warm_declined`]);
    /// * the `cancel` token is polled in the node loop and inside every LP
    ///   relaxation; once tripped the search returns
    ///   [`MilpStatus::Cancelled`] with the incumbent found so far;
    /// * the `witness` check, on a feasibility problem, sees the LP point of
    ///   every node whose relaxation is optimal, in depth-first order: the
    ///   search stops at the first integer-feasible node or at the first
    ///   point the check accepts, whichever comes first. A node closed by
    ///   bound propagation has no LP point and is not shown. A rejected
    ///   point is branched on as in [`MilpProblem::solve`], among the ReLUs
    ///   it violates first.
    ///
    /// The search reports its work only in the returned
    /// [`MilpSolution::stats`]: nodes, the warm/cold LP split, declined warm
    /// starts and pivots.
    pub fn solve_with(&self, ctx: &mut SolveContext<'_>) -> MilpSolution {
        let cancel = ctx.cancel;
        let feasibility_only = self.lp.objective().iter().all(|&c| c == 0.0);
        let witness = ctx.witness.filter(|_| feasibility_only);
        let warm = &mut ctx.seed;
        let mut stats = SolveStats::default();
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let mut propagator = Propagator::new(&self.lp, &self.binaries);
        let Some(root) = propagator.root_bounds(&self.lp) else {
            // A binary whose bounds hold neither 0 nor 1: a conflicting
            // fixing closes the root.
            stats.nodes_explored = 1;
            return MilpSolution::with_incumbent(MilpStatus::Infeasible, None, stats);
        };
        // Each node carries its variable bounds and the binary its parent
        // fixed; the root has none and propagates from every row.
        let mut stack: Vec<(Bounds, Option<VarId>)> = vec![(root, None)];
        let mut hit_limit = false;
        // The single scratch LP a node whose binary bounds differ from the
        // problem's own is evaluated against, cloned on first use; the
        // rolling warm-start basis is refreshed after every solved
        // relaxation.
        let mut scratch: Option<LinearProgram> = None;

        while let Some((mut bounds, fixed)) = stack.pop() {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return MilpSolution::with_incumbent(MilpStatus::Cancelled, incumbent, stats);
            }
            if stats.nodes_explored >= self.node_limit {
                hit_limit = true;
                break;
            }
            stats.nodes_explored += 1;
            if !propagator.propagate(&self.lp, &mut bounds, fixed) {
                continue;
            }
            // Only binary bounds reach the LP; tightened continuous bounds
            // stay in the node's propagation state.
            let lp = if self
                .binaries
                .iter()
                .all(|&b| bounds[b] == self.lp.bounds(b))
            {
                &self.lp
            } else {
                let scratch = scratch.get_or_insert_with(|| self.lp.clone());
                for &b in &self.binaries {
                    scratch.set_bounds(b, bounds[b].0, bounds[b].1);
                }
                scratch
            };
            let solution = solve_node_lp(lp, warm, &mut stats, cancel);
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
                    if witness.is_some_and(|accepts| accepts(&solution.values)) {
                        let point = (solution.values, solution.objective);
                        return MilpSolution::with_incumbent(
                            MilpStatus::Optimal,
                            Some(point),
                            stats,
                        );
                    }
                }
            }

            match select_branching_variable(self, &bounds, &solution.values, feasibility_only) {
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
                Some(var) => {
                    // The branch the relaxation suggests is pushed last, so
                    // the depth-first (LIFO) search explores it first.
                    let suggested = solution.values[var].round().clamp(0.0, 1.0);
                    let mut other = bounds.clone();
                    other[var] = (1.0 - suggested, 1.0 - suggested);
                    bounds[var] = (suggested, suggested);
                    stack.push((other, Some(var)));
                    stack.push((bounds, Some(var)));
                }
            }
        }

        let status = match (&incumbent, hit_limit) {
            (_, true) => MilpStatus::NodeLimit,
            (Some(_), false) => MilpStatus::Optimal,
            (None, false) => MilpStatus::Infeasible,
        };
        MilpSolution::with_incumbent(status, incumbent, stats)
    }

    /// Whether `objective` strictly improves on the incumbent's `best`.
    fn improves(&self, objective: f64, best: Option<f64>) -> bool {
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
    fn prunes(&self, bound: f64, best: f64) -> bool {
        if self.lp.is_maximization() {
            bound <= best + SOLVER_EPS
        } else {
            bound >= best - SOLVER_EPS
        }
    }
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

        // Σx = 2.5 over five binaries: infeasible, but the root's rows
        // reach their right-hand side, so its LP runs and is offered the seed.
        let mut other = MilpProblem::new();
        let row: Vec<_> = (0..5).map(|_| (other.add_binary(), 1.0)).collect();
        other.lp_mut().add_constraint(&row, ConstraintOp::Eq, 2.5);
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
        // The exhaustive oracle solves every LP from the slack basis.
        let warm = milp.solve();
        let cold = crate::ExhaustiveBackend::default().solve(&milp);
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
    fn a_tripped_token_cancels_the_warm_and_cold_searches() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let token = CancelToken::new();
        token.cancel();
        // A seeded search would start warm at the root, an unseeded one cold.
        let (_, seed) = milp.lp().solve_with_snapshot();
        assert!(seed.is_some());
        let warm = milp.solve_with(&mut SolveContext {
            seed,
            cancel: Some(&token),
            ..SolveContext::default()
        });
        let cold = milp.solve_with(&mut SolveContext {
            cancel: Some(&token),
            ..SolveContext::default()
        });
        for solution in [warm, cold] {
            assert_eq!(solution.status, MilpStatus::Cancelled);
            assert!(!solution.has_solution());
        }
    }

    #[test]
    fn a_seed_worn_to_the_refactor_interval_is_dropped_before_the_root() {
        // The dropped seed leaves the root to the slack basis: the search is
        // the unseeded one, statistics included, and it hands back a basis
        // of its own.
        let milp = fractional_feasibility_milp();
        let (_, seed) = milp.lp().solve_with_snapshot();
        let mut seed = seed.expect("the fixture's root relaxation yields a basis");
        for _ in 0..REFACTOR_INTERVAL {
            assert!(milp.lp().solve_from_basis(&mut seed).is_some());
        }
        assert_eq!(seed.warm_uses(), REFACTOR_INTERVAL);
        let mut ctx = SolveContext {
            seed: Some(seed),
            ..SolveContext::default()
        };
        let seeded = milp.solve_with(&mut ctx);
        let unseeded = milp.solve();
        assert!(seeded.stats.nodes_explored > 1, "{:?}", seeded.stats);
        assert_eq!(seeded, unseeded);
        let handed_back = ctx.seed.expect("the search hands its last basis back");
        assert!(handed_back.warm_uses() < REFACTOR_INTERVAL);
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

    /// A feasible MILP with a zero objective whose root relaxation is
    /// fractional: five binaries and a continuous `z ∈ [0, 0.5]` with
    /// `Σx + z = 2.5`. Its integral points have `z = 0.5` and two binaries
    /// at 1.
    fn fractional_feasibility_milp() -> MilpProblem {
        let mut milp = MilpProblem::new();
        let mut row: Vec<_> = (0..5).map(|_| (milp.add_binary(), 1.0)).collect();
        row.push((milp.add_variable(0.0, 0.5), 1.0));
        milp.lp_mut().add_constraint(&row, ConstraintOp::Eq, 2.5);
        milp
    }

    /// Solves `milp` under a context that carries `witness`.
    fn solve_checked(milp: &MilpProblem, witness: &dyn Fn(&[f64]) -> bool) -> MilpSolution {
        milp.solve_with(&mut SolveContext {
            witness: Some(witness),
            ..SolveContext::default()
        })
    }

    #[test]
    fn an_accepting_witness_check_stops_at_the_root_lp_point() {
        let milp = fractional_feasibility_milp();
        let root = milp.lp().solve();
        assert_eq!(root.status, LpStatus::Optimal);
        assert!(
            !milp.is_feasible(&root.values, 1e-6),
            "the fixture's root must be fractional: {:?}",
            root.values
        );
        let solution = solve_checked(&milp, &|_| true);
        assert_eq!(solution.status, MilpStatus::Optimal);
        assert_eq!(solution.values, root.values);
        assert_eq!(solution.stats.nodes_explored, 1);
        assert_eq!(solution.stats.simplex_iterations, root.iterations);
    }

    #[test]
    fn a_rejecting_witness_check_leaves_the_search_unchanged() {
        let milp = fractional_feasibility_milp();
        let calls = std::cell::Cell::new(0);
        let reject = |_: &[f64]| {
            calls.set(calls.get() + 1);
            false
        };
        let plain = milp.solve();
        assert_eq!(plain.status, MilpStatus::Optimal);
        assert!(plain.stats.nodes_explored > 1, "{:?}", plain.stats);
        assert_eq!(solve_checked(&milp, &reject), plain);
        assert!(calls.get() > 2, "the check saw {} points", calls.get());
    }

    #[test]
    fn a_nonzero_objective_never_consults_the_witness_check() {
        // max x + y  s.t.  2x + 2y <= 3: the root relaxation is fractional.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut().set_objective(&[(x, 1.0), (y, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(x, 2.0), (y, 2.0)], ConstraintOp::Le, 3.0);
        let calls = std::cell::Cell::new(0);
        let count = |_: &[f64]| {
            calls.set(calls.get() + 1);
            true
        };
        let checked = solve_checked(&milp, &count);
        assert_eq!(checked, milp.solve());
        assert!((checked.objective - 1.0).abs() < 1e-6);
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn the_exhaustive_oracle_never_consults_the_witness_check() {
        let milp = fractional_feasibility_milp();
        let calls = std::cell::Cell::new(0);
        let count = |_: &[f64]| {
            calls.set(calls.get() + 1);
            true
        };
        let oracle = crate::ExhaustiveBackend::default();
        let checked = oracle.solve_with(
            &milp,
            &mut SolveContext {
                witness: Some(&count),
                ..SolveContext::default()
            },
        );
        assert_eq!(checked, oracle.solve(&milp));
        assert_eq!(checked.status, MilpStatus::Optimal);
        assert!(milp.is_feasible(&checked.values, 1e-6));
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn a_row_the_bounds_cannot_meet_closes_the_root_without_an_lp() {
        // x + y + w ≥ 3.5 with x, y binary and w ∈ [0, 1]: the activity
        // reaches at most 3.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let w = milp.add_variable(0.0, 1.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (w, 1.0)], ConstraintOp::Ge, 3.5);
        let solution = milp.solve();
        assert_eq!(solution.status, MilpStatus::Infeasible);
        let stats = solution.stats;
        assert_eq!(stats.nodes_explored, 1, "{stats:?}");
        assert_eq!(stats.warm_solves + stats.cold_solves, 0, "{stats:?}");
        assert_eq!(stats.simplex_iterations, 0);
    }

    #[test]
    fn a_miss_within_the_certificate_tolerance_leaves_the_node_to_its_lp() {
        // x binary, w fixed at `scale`, x + w ≥ scale + 2: the activity
        // misses by 1. Next to w = 10 that clears the tolerance and closes
        // the root; next to w = 1e12 it is within the rounding of the data,
        // so the root's LP runs, and its certificate fails the same check.
        for (scale, closed) in [(10.0, true), (1e12, false)] {
            let mut milp = MilpProblem::new();
            let x = milp.add_binary();
            let w = milp.add_variable(scale, scale);
            milp.lp_mut()
                .add_constraint(&[(x, 1.0), (w, 1.0)], ConstraintOp::Ge, scale + 2.0);
            let solution = milp.solve();
            let stats = solution.stats;
            assert_eq!(stats.nodes_explored, 1, "{stats:?}");
            if closed {
                assert_eq!(solution.status, MilpStatus::Infeasible);
                assert_eq!(stats.warm_solves + stats.cold_solves, 0, "{stats:?}");
            } else {
                assert_eq!(solution.status, MilpStatus::IterationLimit);
                assert_eq!(stats.cold_solves, 1, "{stats:?}");
                assert_eq!(stats.failed_checks, 1, "{stats:?}");
            }
        }
    }

    #[test]
    fn a_binary_fixed_by_propagation_is_never_branched_on() {
        // `fixed − v ≥ 0.2` with v ∈ [0, 0.5] puts `fixed` at 1 before any
        // LP; the rest is the fractional feasibility MILP. The search is
        // the one of the same model with `fixed` at 1 in its bounds, and
        // every node LP sees `fixed` at 1.
        let build = |prefixed: bool| {
            let mut milp = fractional_feasibility_milp();
            let fixed = milp.add_binary();
            let v = milp.add_variable(0.0, 0.5);
            milp.lp_mut()
                .add_constraint(&[(fixed, 1.0), (v, -1.0)], ConstraintOp::Ge, 0.2);
            if prefixed {
                milp.lp_mut().set_bounds(fixed, 1.0, 1.0);
            }
            (milp, fixed)
        };
        let (propagated, fixed) = build(false);
        let (prefixed, _) = build(true);
        let relaxation = propagated.lp().solve();
        assert!(
            (relaxation.values[fixed] - relaxation.values[fixed].round()).abs() > 1e-6,
            "the fixture's relaxation must leave `fixed` fractional: {:?}",
            relaxation.values
        );
        let at_one = std::cell::Cell::new(0);
        let record = |values: &[f64]| {
            assert_eq!(values[fixed], 1.0, "{values:?}");
            at_one.set(at_one.get() + 1);
            false
        };
        let searched = solve_checked(&propagated, &record);
        assert!(at_one.get() > 2, "the check saw {} points", at_one.get());
        assert_eq!(searched.status, MilpStatus::Optimal);
        assert!(searched.stats.nodes_explored > 1, "{:?}", searched.stats);
        assert_eq!(searched, solve_checked(&prefixed, &record));
        // Branching skips a binary whose node bounds are one value, however
        // fractional its LP value reads.
        let bounds = [(1.0, 1.0), (0.0, 1.0), (0.0, 0.0)];
        let values = [0.5, 0.25, 0.5];
        let with_binaries = |binaries: &[VarId]| {
            let mut milp = MilpProblem::new();
            for _ in 0..3 {
                milp.add_variable(0.0, 1.0);
            }
            binaries.iter().for_each(|&b| milp.mark_binary(b));
            milp
        };
        for feasibility_only in [true, false] {
            let milp = with_binaries(&[0, 1, 2]);
            let pick = select_branching_variable(&milp, &bounds, &values, feasibility_only);
            assert_eq!(pick, Some(1));
        }
        let milp = with_binaries(&[0, 2]);
        assert_eq!(
            select_branching_variable(&milp, &bounds, &values, true),
            None
        );
    }

    /// Encodes `y = max(0, w·(x₀ + x₁) + bias)` over `x` ∈ [−1, 1]², with
    /// the pre-activation a variable pinned by an equality row; returns the
    /// pre-activation, the output and the phase binary.
    fn relu_of_sum(milp: &mut MilpProblem, x: [VarId; 2], w: f64, bias: f64) -> [VarId; 3] {
        let (lower, upper) = (bias - 2.0 * w.abs(), bias + 2.0 * w.abs());
        let pre = milp.add_variable(lower, upper);
        milp.lp_mut().add_constraint(
            &[(x[0], w), (x[1], w), (pre, -1.0)],
            ConstraintOp::Eq,
            -bias,
        );
        let post = milp.add_variable(0.0, upper);
        let encoding = crate::encode_relu_big_m(milp, pre, post, lower, upper);
        [pre, post, encoding.indicator.expect("the ReLU is unstable")]
    }

    #[test]
    fn the_search_branches_on_a_violated_relu_before_a_more_fractional_exact_one() {
        // a = relu(x₀ + x₁ + 0.25) and b = relu(0.5 − 0.5·(x₀ + x₁)) with
        // a − b ≥ −0.5: the root's LP point executes b exactly and leaves a
        // above max(0, pre_a), with b's phase the more fractional one.
        let mut milp = MilpProblem::new();
        let x = [milp.add_variable(-1.0, 1.0), milp.add_variable(-1.0, 1.0)];
        let [pre_a, a, phase_a] = relu_of_sum(&mut milp, x, 1.0, 0.25);
        let [pre_b, b, phase_b] = relu_of_sum(&mut milp, x, -0.5, 0.5);
        milp.lp_mut()
            .add_constraint(&[(a, 1.0), (b, -1.0)], ConstraintOp::Ge, -0.5);
        let points = std::cell::RefCell::new(Vec::new());
        let record = |values: &[f64]| {
            points.borrow_mut().push(values.to_vec());
            false
        };
        let solution = solve_checked(&milp, &record);
        assert_eq!(solution.status, MilpStatus::Optimal);
        let points = points.into_inner();
        assert!(points.len() >= 2, "{points:?}");
        let (root, child) = (&points[0], &points[1]);
        let fractional = |v: f64| (v - v.round()).abs();
        assert!(
            fractional(root[phase_b]) > fractional(root[phase_a]) + 0.05
                && fractional(root[phase_a]) > 0.05,
            "both phases fractional, b's the more: {root:?}"
        );
        assert!((root[b] - root[pre_b].max(0.0)).abs() <= 1e-9, "{root:?}");
        assert!(root[a] - root[pre_a].max(0.0) > 0.1, "{root:?}");
        // The first child fixes a's phase and leaves b's fractional.
        assert_eq!(fractional(child[phase_a]), 0.0, "{child:?}");
        assert!(fractional(child[phase_b]) > 0.05, "{child:?}");
    }

    #[test]
    fn a_binary_whose_bounds_hold_no_integer_closes_the_root() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        milp.lp_mut().set_bounds(x, 0.25, 0.75);
        let solution = milp.solve();
        assert_eq!(solution.status, MilpStatus::Infeasible);
        assert_eq!(solution.stats.nodes_explored, 1);
        assert_eq!(solution.stats.cold_solves, 0);
        assert_eq!(
            crate::ExhaustiveBackend::default().solve(&milp).status,
            MilpStatus::Infeasible
        );
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
