//! Parallel branch-and-bound over binary variables.
//!
//! The verification MILPs this workspace produces are feasibility-dominated
//! tree searches whose nodes (LP relaxations) are independent except for the
//! incumbent bound — exactly the shape that parallelises well. The engine
//! here follows the classic work-stealing design:
//!
//! * every worker owns a LIFO deque of open subtrees (so each worker dives
//!   depth-first, keeping its scratch LP warm near the leaves) and steals
//!   the **oldest** node of a victim when idle (so stolen work is a subtree
//!   close to the root — a large chunk, amortising the steal);
//! * the root node starts in a shared [`Injector`] queue; termination is a
//!   single atomic counter of in-flight nodes;
//! * the incumbent (best integer-feasible solution so far) is published
//!   through a [`parking_lot::Mutex`] so every worker prunes against the
//!   globally best bound, not just its own;
//! * feasibility-only problems (all-zero objective — the query safety
//!   verification actually issues) stop the whole fleet at the first
//!   integer-feasible point via an atomic stop flag.
//!
//! Like the serial engine, node evaluation is allocation-free with respect
//! to the model: each worker keeps one scratch [`LinearProgram`], tightening
//! binary bounds on descent and restoring them from a saved snapshot for the
//! next node, instead of cloning the model per node.
//!
//! Determinism: verdict-level results (`Optimal` / `Infeasible` /
//! `Unbounded`) are scheduling-independent, but *which* feasible point or
//! counterexample is returned may vary between runs — branch-and-bound
//! callers that need reproducible artefacts deduplicate at a higher level
//! (see `RefinementVerifier`'s lowest-index selection rule in `dpv-core`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::Mutex;

use crate::{
    BasisSnapshot, LinearProgram, LpStatus, MilpProblem, MilpSolution, MilpStatus, SolveContext,
    SolveStats, SolverBackend, VarId,
};

/// A branching decision list: the `(binary, fixed value)` pairs on the path
/// from the root to an open node.
type Node = Vec<(VarId, f64)>;

/// A [`SolverBackend`] that explores branch-and-bound subtrees on worker
/// threads.
///
/// With `workers == 1` (or a problem with fewer than two binaries) it
/// delegates to the serial [`MilpProblem::solve`], so a worker count of one
/// is always a safe default.
#[derive(Debug, Clone)]
pub struct ParallelBranchAndBoundBackend {
    workers: usize,
    name: String,
}

impl ParallelBranchAndBoundBackend {
    /// Creates an engine with the given number of worker threads (clamped to
    /// at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Self {
            workers,
            name: format!("parallel-bnb({workers})"),
        }
    }

    /// Creates an engine sized to the host's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(workers)
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for ParallelBranchAndBoundBackend {
    fn default() -> Self {
        Self::with_available_parallelism()
    }
}

/// State shared by every worker of one solve.
struct SearchState<'a> {
    problem: &'a MilpProblem,
    feasibility_only: bool,
    node_limit: usize,
    injector: Injector<Node>,
    stealers: Vec<Stealer<Node>>,
    /// Best integer-feasible `(values, objective)` found so far.
    incumbent: Mutex<Option<(Vec<f64>, f64)>>,
    /// Set when the whole search should halt (first feasible point of a
    /// feasibility-only problem, proven unboundedness, or the node limit).
    stop: AtomicBool,
    unbounded: AtomicBool,
    hit_limit: AtomicBool,
    /// Set when some relaxation ran out of its simplex pivot budget; the
    /// whole search then reports [`MilpStatus::IterationLimit`].
    iter_limited: AtomicBool,
    /// Nodes queued but not yet fully processed; zero means the tree is
    /// exhausted.
    pending: AtomicUsize,
    /// Global explored-node count charged against the node limit.
    nodes_charged: AtomicUsize,
}

impl SearchState<'_> {
    /// True when the worker loop should keep running.
    fn active(&self) -> bool {
        !self.stop.load(Ordering::Acquire) && self.pending.load(Ordering::Acquire) > 0
    }

    /// Takes the next open node: local deque first (depth-first), then the
    /// injector, then the cold end of a victim's deque.
    fn find_node(&self, local: &Worker<Node>) -> Option<Node> {
        if let Some(node) = local.pop() {
            return Some(node);
        }
        loop {
            match self.injector.steal() {
                Steal::Success(node) => return Some(node),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        for stealer in &self.stealers {
            loop {
                match stealer.steal() {
                    Steal::Success(node) => return Some(node),
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Reads the incumbent objective, if any.
    fn incumbent_objective(&self) -> Option<f64> {
        self.incumbent.lock().as_ref().map(|(_, obj)| *obj)
    }

    /// Publishes an integer-feasible point, keeping the better of the old
    /// and new incumbents.
    fn offer_incumbent(&self, values: Vec<f64>, objective: f64) {
        let mut incumbent = self.incumbent.lock();
        let best = incumbent.as_ref().map(|(_, best)| *best);
        if self.problem.improves(objective, best) {
            *incumbent = Some((values, objective));
        }
    }
}

impl SolverBackend for ParallelBranchAndBoundBackend {
    fn name(&self) -> &str {
        &self.name
    }

    /// Only the serial fallback (one worker, or fewer than two binaries)
    /// honours the context; the worker pool ignores it.
    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution {
        let binaries = problem.binaries();
        if self.workers == 1 || binaries.len() < 2 {
            return problem.solve_with(ctx);
        }

        let state = SearchState {
            problem,
            feasibility_only: problem.lp().objective().iter().all(|&c| c == 0.0),
            node_limit: problem.node_limit(),
            injector: Injector::new(),
            stealers: Vec::new(),
            incumbent: Mutex::new(None),
            stop: AtomicBool::new(false),
            unbounded: AtomicBool::new(false),
            hit_limit: AtomicBool::new(false),
            iter_limited: AtomicBool::new(false),
            pending: AtomicUsize::new(1),
            nodes_charged: AtomicUsize::new(0),
        };
        state.injector.push(Node::new());

        let locals: Vec<Worker<Node>> = (0..self.workers).map(|_| Worker::new_lifo()).collect();
        let mut state = state;
        state.stealers = locals.iter().map(Worker::stealer).collect();
        let state = &state;

        let stats = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = locals
                .into_iter()
                .map(|local| {
                    scope.spawn(move |_| {
                        let mut scratch = state.problem.lp().clone();
                        // Per-worker rolling warm-start basis. Any basis of
                        // the shared matrix is dual feasible for any node, so
                        // a stolen subtree keeps warm-starting from whatever
                        // this worker solved last — a steal never forces a
                        // cold solve; only each worker's very first node (or
                        // a numerical bail-out) pays the two cold phases.
                        let mut warm: Option<BasisSnapshot> = None;
                        let mut stats = SolveStats::default();
                        // Idle backoff: yield first (cheap when a node is
                        // about to appear), then sleep so starved workers on
                        // an oversubscribed host stop stealing cycles from
                        // the worker running a long LP solve.
                        let mut idle_rounds = 0u32;
                        while state.active() {
                            match state.find_node(&local) {
                                Some(node) => {
                                    idle_rounds = 0;
                                    process_node(
                                        state,
                                        &local,
                                        &mut scratch,
                                        &mut warm,
                                        &mut stats,
                                        node,
                                    );
                                    state.pending.fetch_sub(1, Ordering::AcqRel);
                                }
                                None => {
                                    idle_rounds += 1;
                                    if idle_rounds > 16 {
                                        std::thread::sleep(std::time::Duration::from_micros(50));
                                    } else {
                                        std::thread::yield_now();
                                    }
                                }
                            }
                        }
                        stats
                    })
                })
                .collect();
            let mut total = SolveStats::default();
            let mut panicked = false;
            for handle in handles {
                // A panicking worker loses its per-worker statistics but must
                // not take down the solve: siblings keep draining the tree,
                // and the search is marked incomplete below so the result
                // degrades to "unknown" rather than claiming a proof the dead
                // worker never finished.
                match handle.join() {
                    Ok(stats) => total += stats,
                    Err(_) => panicked = true,
                }
            }
            (total, panicked)
        });
        // `scope` itself only errs when a spawned thread panicked; all joins
        // above already swallow that, but stay defensive rather than unwrap.
        let (stats, worker_panicked) = stats.unwrap_or((SolveStats::default(), true));

        let incumbent = state.incumbent.lock().take();
        // A dead worker may have dropped queued subtrees on the floor; treat
        // the search as truncated (NodeLimit-class "unknown") unless it is a
        // feasibility problem that already found its witness.
        let hit_limit = state.hit_limit.load(Ordering::Acquire) || worker_panicked;
        let iter_limited = state.iter_limited.load(Ordering::Acquire);
        if state.unbounded.load(Ordering::Acquire) {
            return MilpSolution::with_incumbent(MilpStatus::Unbounded, None, stats);
        }
        let status = match &incumbent {
            // A feasibility-only search is complete at the first feasible
            // point even when another worker tripped a limit in the same
            // instant; an optimisation search interrupted by a limit has
            // not proven its incumbent optimal.
            Some(_) if state.feasibility_only || !(hit_limit || iter_limited) => {
                MilpStatus::Optimal
            }
            _ if iter_limited => MilpStatus::IterationLimit,
            _ if hit_limit => MilpStatus::NodeLimit,
            _ => MilpStatus::Infeasible,
        };
        MilpSolution::with_incumbent(status, incumbent, stats)
    }
}

/// Evaluates one node against the worker's scratch LP and pushes any
/// children onto the worker's own deque (LIFO, so the relaxation-suggested
/// branch is explored first).
fn process_node(
    state: &SearchState<'_>,
    local: &Worker<Node>,
    scratch: &mut LinearProgram,
    warm: &mut Option<BasisSnapshot>,
    stats: &mut SolveStats,
    fixings: Node,
) {
    let charged = state.nodes_charged.fetch_add(1, Ordering::AcqRel);
    if charged >= state.node_limit {
        state.hit_limit.store(true, Ordering::Release);
        state.stop.store(true, Ordering::Release);
        return;
    }
    stats.nodes_explored += 1;
    if !state.problem.fix_node(scratch, &fixings) {
        return;
    }
    let solution = crate::milp::solve_node_lp(
        scratch,
        warm,
        true,
        stats,
        None,
        &dpv_trace::TraceHandle::disabled(),
    );
    let binaries = state.problem.binaries();
    match solution.status {
        LpStatus::Infeasible => return,
        // `Cancelled` is unreachable (no token is threaded into the parallel
        // engine yet) but degrades identically if it ever appears.
        LpStatus::IterationLimit | LpStatus::Cancelled => {
            state.iter_limited.store(true, Ordering::Release);
            state.stop.store(true, Ordering::Release);
            return;
        }
        LpStatus::Unbounded => {
            if fixings.len() == binaries.len() {
                // Every binary fixed: the unbounded ray is integer feasible,
                // so the MILP itself is unbounded.
                state.unbounded.store(true, Ordering::Release);
                state.stop.store(true, Ordering::Release);
                return;
            }
        }
        LpStatus::Optimal => {
            if let Some(best) = state.incumbent_objective() {
                if state.problem.prunes(solution.objective, best) {
                    stats.nodes_pruned += 1;
                    return;
                }
            }
        }
    }

    // Same branching rule as the serial engine (most-fractional for
    // feasibility-only problems), so serial and parallel explore the same
    // tree modulo scheduling.
    match state
        .problem
        .branching_variable(&fixings, &solution, state.feasibility_only)
    {
        None if solution.status == LpStatus::Optimal => {
            state.offer_incumbent(solution.values, solution.objective);
            if state.feasibility_only {
                state.stop.store(true, Ordering::Release);
            }
        }
        None => {
            // Unreachable: an unbounded relaxation with every binary fixed
            // already flagged the MILP unbounded above.
        }
        Some(branch_var) => {
            // Count the children as in flight *before* they become visible
            // to stealers, so `pending` can never under-count.
            state.pending.fetch_add(2, Ordering::AcqRel);
            for child in crate::milp::children(fixings, branch_var, &solution) {
                local.push(child);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BranchAndBoundBackend, ConstraintOp, ExhaustiveBackend};

    fn knapsack() -> MilpProblem {
        // max 10a + 6b + 4c  s.t.  a + b + c <= 2 (binaries) → 16.
        let mut milp = MilpProblem::new();
        let a = milp.add_binary();
        let b = milp.add_binary();
        let c = milp.add_binary();
        milp.lp_mut()
            .set_objective(&[(a, 10.0), (b, 6.0), (c, 4.0)], true);
        milp.lp_mut()
            .add_constraint(&[(a, 1.0), (b, 1.0), (c, 1.0)], ConstraintOp::Le, 2.0);
        milp
    }

    #[test]
    fn matches_serial_optimum_on_the_knapsack() {
        for workers in [1, 2, 4, 8] {
            let backend = ParallelBranchAndBoundBackend::new(workers);
            let solution = backend.solve(&knapsack());
            assert_eq!(solution.status, MilpStatus::Optimal, "{workers} workers");
            assert!(
                (solution.objective - 16.0).abs() < 1e-6,
                "{workers} workers: objective {}",
                solution.objective
            );
            assert!(knapsack().is_feasible(&solution.values, 1e-6));
            assert!(solution.stats.nodes_explored >= 1);
        }
    }

    #[test]
    fn detects_infeasibility() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        let solution = ParallelBranchAndBoundBackend::new(4).solve(&milp);
        assert_eq!(solution.status, MilpStatus::Infeasible);
        assert!(!solution.has_solution());
    }

    #[test]
    fn feasibility_search_stops_at_the_first_point() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let z = milp.add_variable(-1.0, 1.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (z, 1.0)], ConstraintOp::Ge, 1.5);
        let solution = ParallelBranchAndBoundBackend::new(4).solve(&milp);
        assert_eq!(solution.status, MilpStatus::Optimal);
        assert!(milp.is_feasible(&solution.values, 1e-6));
    }

    #[test]
    fn reports_unbounded_milps() {
        let mut milp = MilpProblem::new();
        let b = milp.add_binary();
        let _b2 = milp.add_binary();
        let w = milp.add_variable(0.0, f64::INFINITY);
        milp.lp_mut().set_objective(&[(w, 1.0)], true);
        milp.lp_mut()
            .add_constraint(&[(w, 1.0), (b, -1.0)], ConstraintOp::Ge, 0.0);
        let solution = ParallelBranchAndBoundBackend::new(4).solve(&milp);
        assert_eq!(solution.status, MilpStatus::Unbounded);
    }

    #[test]
    fn respects_the_node_limit() {
        let mut milp = MilpProblem::new();
        for _ in 0..6 {
            let _ = milp.add_binary();
        }
        let vars: Vec<_> = milp.binaries().to_vec();
        let coeffs: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        milp.lp_mut().add_constraint(&coeffs, ConstraintOp::Eq, 2.5);
        milp.set_node_limit(1);
        let solution = ParallelBranchAndBoundBackend::new(4).solve(&milp);
        assert_eq!(solution.status, MilpStatus::NodeLimit);
    }

    #[test]
    fn agrees_with_the_exhaustive_oracle_on_a_banded_problem() {
        // min x + y + 0.5 w  s.t.  x + y + w >= 1.2, w in [0, 1].
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let w = milp.add_variable(0.0, 1.0);
        milp.lp_mut()
            .set_objective(&[(x, 1.0), (y, 1.0), (w, 0.5)], false);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (w, 1.0)], ConstraintOp::Ge, 1.2);
        let parallel = ParallelBranchAndBoundBackend::new(4).solve(&milp);
        let oracle = ExhaustiveBackend::default().solve(&milp);
        assert_eq!(parallel.status, oracle.status);
        assert!((parallel.objective - oracle.objective).abs() < 1e-6);
    }

    #[test]
    fn single_worker_delegates_to_the_serial_engine() {
        let milp = knapsack();
        let serial = BranchAndBoundBackend.solve(&milp);
        let one = ParallelBranchAndBoundBackend::new(1).solve(&milp);
        assert_eq!(serial, one);
    }

    #[test]
    fn names_include_the_worker_count() {
        assert_eq!(
            ParallelBranchAndBoundBackend::new(4).name(),
            "parallel-bnb(4)"
        );
        assert_eq!(ParallelBranchAndBoundBackend::new(0).workers(), 1);
        assert!(ParallelBranchAndBoundBackend::default().workers() >= 1);
    }
}
