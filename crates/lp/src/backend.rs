//! The `SolverBackend` seam: a single solve entry point the verification
//! layers program against, so alternative MILP engines (external solvers,
//! for instance) can be plugged in without touching `dpv-core`.

use std::fmt;

use crate::{
    LpStatus, MilpProblem, MilpSolution, MilpStatus, SolveContext, SolveStats, SOLVER_EPS,
};

/// A MILP solving engine.
///
/// `dpv-core` encodes every verification question as a [`MilpProblem`] and
/// hands it to a backend; the backend returns a [`MilpSolution`] whose
/// status drives the safety verdict (`Infeasible` → safe, `Optimal` →
/// counterexample, `NodeLimit`/`IterationLimit`/`Cancelled` → unknown).
/// Implementations must be `Send + Sync` so one backend instance can serve
/// concurrent verification jobs.
///
/// An engine implements one solve entry point, [`SolverBackend::solve_with`],
/// which receives the caller's [`SolveContext`] (warm-start seed,
/// cancellation token, trace handle, witness check). Honouring the context
/// is an engine capability, never a correctness requirement: an engine may
/// ignore any part of it and stay correct.
pub trait SolverBackend: fmt::Debug + Send + Sync {
    /// Short human-readable engine name, used in reports and benchmark ids.
    fn name(&self) -> &str;

    /// Solves `problem` under `ctx`. For feasibility problems (all-zero
    /// objective) the backend may stop at the first integer-feasible point,
    /// or at the first point the context's witness check
    /// ([`SolveContext::witness`]) accepts.
    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution;

    /// Solves `problem` with an empty context: no seed, no cancellation,
    /// no tracing.
    fn solve(&self, problem: &MilpProblem) -> MilpSolution {
        self.solve_with(problem, &mut SolveContext::default())
    }
}

/// The crate's default engine: the depth-first branch-and-bound solver of
/// [`MilpProblem::solve_with`], with warm-started node relaxations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchAndBoundBackend;

impl SolverBackend for BranchAndBoundBackend {
    fn name(&self) -> &str {
        "branch-and-bound"
    }

    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution {
        problem.solve_with(ctx)
    }
}

/// The warm-start-free variant of [`BranchAndBoundBackend`]: every node
/// starts the dual simplex from the slack basis and the context's seed is
/// left untouched.
/// The two engines must return identical statuses; their trees can differ
/// where a relaxation has several optimal vertices. Kept because the
/// cold/warm equivalence tests (`crates/core/tests/cache_soundness.rs`,
/// the lp proptests), `PIVOT_PIN` (`crates/lp/tests/pivot_pin.rs`) and
/// e8's gated `speedup-permille` reference need a cold search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColdBranchAndBoundBackend;

impl SolverBackend for ColdBranchAndBoundBackend {
    fn name(&self) -> &str {
        "branch-and-bound(cold)"
    }

    fn solve_with(&self, problem: &MilpProblem, ctx: &mut SolveContext<'_>) -> MilpSolution {
        problem.search(false, ctx)
    }
}

/// Returns the engine used when callers do not pick one explicitly.
pub fn default_backend() -> BranchAndBoundBackend {
    BranchAndBoundBackend
}

/// A reference engine that enumerates all `2^k` assignments of the binary
/// variables and solves one LP per assignment.
///
/// Exponential and only usable for small `k`, but its verdicts are trivially
/// trustworthy, which makes it the cross-check oracle for testing smarter
/// backends (the `SolverBackend`-seam tests assert it agrees with
/// [`BranchAndBoundBackend`] on verification fixtures). Every LP here is
/// deliberately solved **cold**: the oracle must not share the warm-start
/// machinery it is used to validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveBackend {
    /// Refuses problems with more binaries than this (returns
    /// [`MilpStatus::NodeLimit`]) so a mis-routed large instance degrades
    /// into "unknown" instead of hanging.
    pub max_binaries: usize,
}

impl Default for ExhaustiveBackend {
    fn default() -> Self {
        Self { max_binaries: 16 }
    }
}

impl SolverBackend for ExhaustiveBackend {
    fn name(&self) -> &str {
        "exhaustive-enumeration"
    }

    /// Ignores the context: the oracle neither seeds, cancels, traces nor
    /// consults the witness check, so a feasibility solve still runs to the
    /// first integer-feasible assignment.
    fn solve_with(&self, problem: &MilpProblem, _ctx: &mut SolveContext<'_>) -> MilpSolution {
        let binaries = problem.binaries();
        let k = binaries.len();
        let mut stats = SolveStats::default();
        // The budget must stay below the mask width: `1u64 << 64` would wrap
        // and silently enumerate nothing, turning the oracle unsound.
        if k > self.max_binaries.min(63) {
            return MilpSolution::with_incumbent(MilpStatus::NodeLimit, None, stats);
        }
        let feasibility_only = problem.lp().objective().iter().all(|&c| c == 0.0);
        let maximize = problem.lp().is_maximization();
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        // One scratch LP for all 2^k assignments: bounds are overwritten per
        // mask instead of cloning the whole model per assignment. Original
        // binary bounds are kept so assignments that conflict with an
        // already-fixed binary (e.g. a stable ReLU phase) stay infeasible.
        let mut scratch = problem.lp().clone();
        let saved_bounds: Vec<(f64, f64)> =
            binaries.iter().map(|&b| problem.lp().bounds(b)).collect();
        for mask in 0u64..(1u64 << k) {
            let mut conflict = false;
            for (bit, (&var, &(lo, hi))) in binaries.iter().zip(&saved_bounds).enumerate() {
                let value = if mask & (1 << bit) != 0 { 1.0 } else { 0.0 };
                if value < lo - SOLVER_EPS || value > hi + SOLVER_EPS {
                    conflict = true;
                    break;
                }
                scratch.set_bounds(var, value, value);
            }
            stats.nodes_explored += 1;
            if conflict {
                stats.nodes_pruned += 1;
                continue;
            }
            let solution = scratch.solve();
            stats.cold_solves += 1;
            stats.simplex_iterations += solution.iterations;
            match solution.status {
                LpStatus::Infeasible => {
                    stats.nodes_pruned += 1;
                    continue;
                }
                // `Cancelled` is unreachable here (the oracle solves without
                // a token) but folds into the same conservative stop.
                LpStatus::IterationLimit | LpStatus::Cancelled => {
                    return MilpSolution::with_incumbent(MilpStatus::IterationLimit, None, stats);
                }
                LpStatus::Optimal => {
                    let better = match &incumbent {
                        None => true,
                        Some((_, best)) => {
                            if maximize {
                                solution.objective > *best
                            } else {
                                solution.objective < *best
                            }
                        }
                    };
                    if better {
                        incumbent = Some((solution.values, solution.objective));
                        if feasibility_only {
                            break;
                        }
                    }
                }
            }
        }
        let status = match incumbent {
            Some(_) => MilpStatus::Optimal,
            None => MilpStatus::Infeasible,
        };
        MilpSolution::with_incumbent(status, incumbent, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp;

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
    fn backends_agree_on_optimisation() {
        let milp = knapsack();
        let bnb = BranchAndBoundBackend.solve(&milp);
        let exhaustive = ExhaustiveBackend::default().solve(&milp);
        assert_eq!(bnb.status, MilpStatus::Optimal);
        assert_eq!(exhaustive.status, MilpStatus::Optimal);
        assert!((bnb.objective - exhaustive.objective).abs() < 1e-6);
    }

    #[test]
    fn backends_agree_on_infeasibility() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 3.0);
        assert_eq!(
            BranchAndBoundBackend.solve(&milp).status,
            MilpStatus::Infeasible
        );
        assert_eq!(
            ExhaustiveBackend::default().solve(&milp).status,
            MilpStatus::Infeasible
        );
    }

    #[test]
    fn exhaustive_respects_its_binary_budget() {
        let mut milp = MilpProblem::new();
        for _ in 0..5 {
            milp.add_binary();
        }
        let tiny = ExhaustiveBackend { max_binaries: 3 };
        assert_eq!(tiny.solve(&milp).status, MilpStatus::NodeLimit);
    }

    #[test]
    fn exhaustive_feasibility_stops_early() {
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
        let solution = ExhaustiveBackend::default().solve(&milp);
        assert_eq!(solution.status, MilpStatus::Optimal);
        assert!(solution.stats.nodes_explored < 4);
    }

    #[test]
    fn exhaustive_counts_infeasible_assignments_as_pruned() {
        // x + y >= 3 over two binaries and one continuous z in [0, 1]:
        // no assignment is feasible, so all four enumerated LPs are pruned.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        let y = milp.add_binary();
        let z = milp.add_variable(0.0, 1.0);
        milp.lp_mut()
            .add_constraint(&[(x, 1.0), (y, 1.0), (z, 0.5)], ConstraintOp::Ge, 3.0);
        let solution = ExhaustiveBackend::default().solve(&milp);
        assert_eq!(solution.status, MilpStatus::Infeasible);
        assert_eq!(solution.stats.nodes_explored, 4);
        assert_eq!(solution.stats.nodes_pruned, 4);
    }

    #[test]
    fn exhaustive_respects_prefixed_binaries() {
        // The binary is pre-fixed to 1 (as a stable ReLU phase would be);
        // enumerating the 0 assignment must stay infeasible, so the optimum
        // reflects only the fixed phase.
        let mut milp = MilpProblem::new();
        let x = milp.add_binary();
        milp.lp_mut().tighten_bounds(x, 1.0, 1.0);
        milp.lp_mut().set_objective(&[(x, -1.0)], true);
        let solution = ExhaustiveBackend::default().solve(&milp);
        assert_eq!(solution.status, MilpStatus::Optimal);
        assert!((solution.objective - (-1.0)).abs() < 1e-6);
        assert_eq!(solution.stats.nodes_pruned, 1);
    }

    #[test]
    fn backend_names_are_distinct() {
        assert_ne!(
            BranchAndBoundBackend.name(),
            ExhaustiveBackend::default().name()
        );
        assert_eq!(default_backend().name(), "branch-and-bound");
    }

    #[test]
    fn cold_engine_hands_a_worn_seed_back() {
        let milp = knapsack();
        let (_, seed) = milp.lp().solve_with_snapshot();
        let mut seed = seed.expect("the knapsack relaxation yields a basis");
        // Wear the basis down to the warm engine's refactorisation interval.
        for _ in 0..256 {
            assert!(milp.lp().solve_from_basis(&mut seed).is_some());
        }
        let mut ctx = SolveContext {
            seed: Some(seed),
            ..SolveContext::default()
        };
        let solution = ColdBranchAndBoundBackend.solve_with(&milp, &mut ctx);
        assert_eq!(solution.status, MilpStatus::Optimal);
        assert!(ctx.seed.is_some(), "the cold engine dropped the seed");
    }

    #[test]
    fn backends_are_object_safe() {
        let engines: Vec<Box<dyn SolverBackend>> = vec![
            Box::new(BranchAndBoundBackend),
            Box::new(ExhaustiveBackend::default()),
        ];
        for engine in &engines {
            assert_eq!(engine.solve(&knapsack()).status, MilpStatus::Optimal);
        }
    }
}
