//! Parallel branch-and-bound over binary variables.
//!
//! The verification MILPs this workspace produces are feasibility-dominated
//! tree searches whose nodes (LP relaxations) are independent except for the
//! incumbent bound — exactly the shape that parallelises well. The engine
//! here follows the classic work-stealing design on `std` primitives:
//!
//! * every worker owns a mutex-guarded deque of open subtrees: it pushes and
//!   pops at the back (LIFO, so each worker dives depth-first, keeping its
//!   scratch LP warm near the leaves) and, when idle, steals the **oldest**
//!   node at the front of a victim's deque (a subtree close to the root — a
//!   large chunk, amortising the steal);
//! * the root node starts in worker 0's deque; termination is a single
//!   atomic counter of in-flight nodes;
//! * the incumbent (best integer-feasible solution so far) is published
//!   through a [`Mutex`] so every worker prunes against the globally best
//!   bound, not just its own;
//! * feasibility-only problems (all-zero objective — the query safety
//!   verification actually issues) stop the whole fleet at the first
//!   integer-feasible point via an atomic stop flag;
//! * the context's cancellation token is polled before every node and
//!   inside every node LP; once it trips the fleet stops and the solve
//!   reports [`MilpStatus::Cancelled`], like the serial engine.
//!
//! Like the serial engine, node evaluation is allocation-free with respect
//! to the model: each worker keeps one scratch [`LinearProgram`], tightening
//! binary bounds on descent and restoring them from a saved snapshot for the
//! next node, instead of cloning the model per node.
//!
//! Determinism: verdict-level results (`Optimal` / `Infeasible`) are
//! scheduling-independent, but *which* feasible point or counterexample is
//! returned may vary between runs — branch-and-bound callers that need
//! reproducible artefacts deduplicate at a higher level (see
//! `RefinementVerifier`'s lowest-index selection rule in `dpv-core`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::{
    BasisSnapshot, CancelToken, LinearProgram, LpStatus, MilpProblem, MilpSolution, MilpStatus,
    SolveContext, SolveStats, SolverBackend, VarId,
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

/// Locks a search mutex. A worker that panics mid-node holds no lock (the
/// locked sections only push, pop or replace whole values), so a poisoned
/// guard still holds consistent data and the surviving workers carry on.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared by every worker of one solve.
struct SearchState<'a> {
    problem: &'a MilpProblem,
    feasibility_only: bool,
    node_limit: usize,
    cancel: Option<&'a CancelToken>,
    /// One deque of open subtrees per worker: the owner pushes and pops at
    /// the back, thieves take from the front.
    deques: Vec<Mutex<VecDeque<Node>>>,
    /// Best integer-feasible `(values, objective)` found so far.
    incumbent: Mutex<Option<(Vec<f64>, f64)>>,
    /// Set when the whole search should halt (first feasible point of a
    /// feasibility-only problem, the node limit, a give-up, or
    /// cancellation).
    stop: AtomicBool,
    hit_limit: AtomicBool,
    /// Set when the cancellation token tripped; the whole search then
    /// reports [`MilpStatus::Cancelled`].
    cancelled: AtomicBool,
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

    /// Takes the next open node for worker `me`: the back of its own deque
    /// first (depth-first), then the front of a victim's deque.
    fn find_node(&self, me: usize) -> Option<Node> {
        if let Some(node) = lock(&self.deques[me]).pop_back() {
            return Some(node);
        }
        self.deques.iter().find_map(|deque| lock(deque).pop_front())
    }

    /// Reads the incumbent objective, if any.
    fn incumbent_objective(&self) -> Option<f64> {
        lock(&self.incumbent).as_ref().map(|(_, obj)| *obj)
    }

    /// Publishes an integer-feasible point, keeping the better of the old
    /// and new incumbents.
    fn offer_incumbent(&self, values: Vec<f64>, objective: f64) {
        let mut incumbent = lock(&self.incumbent);
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

    /// The worker pool honours the context's cancellation token (polled
    /// before every node and inside every node LP); the seed and trace
    /// handle are honoured only by the serial fallback (one worker, or
    /// fewer than two binaries).
    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution {
        let binaries = problem.binaries();
        if self.workers == 1 || binaries.len() < 2 {
            return problem.solve_with(ctx);
        }

        let deques: Vec<Mutex<VecDeque<Node>>> =
            (0..self.workers).map(|_| Mutex::default()).collect();
        lock(&deques[0]).push_back(Node::new());
        let state = SearchState {
            problem,
            feasibility_only: problem.lp().objective().iter().all(|&c| c == 0.0),
            node_limit: problem.node_limit(),
            cancel: ctx.cancel,
            deques,
            incumbent: Mutex::new(None),
            stop: AtomicBool::new(false),
            hit_limit: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            iter_limited: AtomicBool::new(false),
            pending: AtomicUsize::new(1),
            nodes_charged: AtomicUsize::new(0),
        };
        let state = &state;

        let (stats, worker_panicked) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|me| {
                    scope.spawn(move || {
                        let mut scratch = state.problem.lp().clone();
                        // Per-worker rolling warm-start basis. Any basis of
                        // the shared matrix is dual feasible for any node, so
                        // a stolen subtree keeps warm-starting from whatever
                        // this worker solved last — a steal never forces a
                        // cold solve; only each worker's very first node (or
                        // a declined warm start) starts from the slack basis.
                        let mut warm: Option<BasisSnapshot> = None;
                        let mut stats = SolveStats::default();
                        // Idle backoff: yield first (cheap when a node is
                        // about to appear), then sleep so starved workers on
                        // an oversubscribed host stop stealing cycles from
                        // the worker running a long LP solve.
                        let mut idle_rounds = 0u32;
                        while state.active() {
                            match state.find_node(me) {
                                Some(node) => {
                                    idle_rounds = 0;
                                    process_node(
                                        state,
                                        me,
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

        let incumbent = lock(&state.incumbent).take();
        // A dead worker may have dropped queued subtrees on the floor; treat
        // the search as truncated (NodeLimit-class "unknown") unless it is a
        // feasibility problem that already found its witness.
        let hit_limit = state.hit_limit.load(Ordering::Acquire) || worker_panicked;
        let iter_limited = state.iter_limited.load(Ordering::Acquire);
        let cancelled = state.cancelled.load(Ordering::Acquire);
        let status = match &incumbent {
            // A feasibility-only search is complete at the first feasible
            // point even when another worker tripped a limit or the token in
            // the same instant; an interrupted optimisation search has not
            // proven its incumbent optimal.
            Some(_) if state.feasibility_only || !(hit_limit || iter_limited || cancelled) => {
                MilpStatus::Optimal
            }
            _ if cancelled => MilpStatus::Cancelled,
            _ if iter_limited => MilpStatus::IterationLimit,
            _ if hit_limit => MilpStatus::NodeLimit,
            _ => MilpStatus::Infeasible,
        };
        MilpSolution::with_incumbent(status, incumbent, stats)
    }
}

/// Evaluates one node against the worker's scratch LP and pushes any
/// children onto the back of worker `me`'s deque (LIFO, so the
/// relaxation-suggested branch is explored first).
fn process_node(
    state: &SearchState<'_>,
    me: usize,
    scratch: &mut LinearProgram,
    warm: &mut Option<BasisSnapshot>,
    stats: &mut SolveStats,
    fixings: Node,
) {
    if state.cancel.is_some_and(CancelToken::is_cancelled) {
        state.cancelled.store(true, Ordering::Release);
        state.stop.store(true, Ordering::Release);
        return;
    }
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
        state.cancel,
        &dpv_trace::TraceHandle::disabled(),
    );
    match solution.status {
        LpStatus::Infeasible => return,
        LpStatus::Cancelled => {
            state.cancelled.store(true, Ordering::Release);
            state.stop.store(true, Ordering::Release);
            return;
        }
        LpStatus::IterationLimit => {
            state.iter_limited.store(true, Ordering::Release);
            state.stop.store(true, Ordering::Release);
            return;
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
    match crate::milp::select_branching_variable(
        state.problem.binaries(),
        &fixings,
        &solution.values,
        state.feasibility_only,
    ) {
        None => {
            state.offer_incumbent(solution.values, solution.objective);
            if state.feasibility_only {
                state.stop.store(true, Ordering::Release);
            }
        }
        Some(branch_var) => {
            // Count the children as in flight *before* they become visible
            // to stealers, so `pending` can never under-count.
            state.pending.fetch_add(2, Ordering::AcqRel);
            lock(&state.deques[me]).extend(crate::milp::children(
                fixings,
                branch_var,
                &solution.values,
            ));
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
    fn a_tripped_token_cancels_the_worker_pool() {
        let token = CancelToken::new();
        token.cancel();
        let solution = ParallelBranchAndBoundBackend::new(4).solve_with(
            &knapsack(),
            &mut SolveContext {
                cancel: Some(&token),
                ..SolveContext::default()
            },
        );
        assert_eq!(solution.status, MilpStatus::Cancelled);
        assert!(!solution.has_solution());
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
