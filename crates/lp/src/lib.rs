//! # dpv-lp
//!
//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver. It replaces the commercial MILP back-end used by the paper's
//! original toolchain (nn-dependability-kit reduces the network verification
//! problem to MILP and hands it to an off-the-shelf solver).
//!
//! The crate provides:
//!
//! * [`LinearProgram`] — a model builder for LPs with per-variable bounds
//!   and `≤ / ≥ / =` row constraints, solved by a dense two-phase primal
//!   simplex ([`LinearProgram::solve`]). A solved program can hand out a
//!   [`BasisSnapshot`] ([`LinearProgram::solve_with_snapshot`]); after
//!   **bound-only** edits ([`LinearProgram::set_bounds`],
//!   [`LinearProgram::set_constraint_rhs`]) the snapshot re-solves warm via
//!   a dual-simplex repair ([`LinearProgram::solve_from_basis`]) instead of
//!   two cold phases — the hot-path primitive behind incremental
//!   branch-and-bound and the refinement sweep.
//! * [`MilpProblem`] — an LP plus a set of binary variables, solved by
//!   branch-and-bound over the binaries ([`MilpProblem::solve`]), with every
//!   node relaxation warm-started from the most recent basis
//!   ([`SolveStats`] reports the warm/cold split). A feasibility-only mode is
//!   what safety verification uses: *is there an assignment inside the
//!   envelope that triggers the risk condition?*
//! * [`SolveContext`] — the one per-call context of every solve entry point
//!   ([`MilpProblem::solve_with`], [`SolverBackend::solve_with`]): a
//!   warm-start seed that chains dual-simplex repairs across problems, a
//!   cancellation token and a trace handle, each optional.
//! * [`encode_relu_big_m`] — the standard big-M encoding of a ReLU
//!   constraint `y = max(0, x)` with known pre-activation bounds, the
//!   building block of the network encoding in `dpv-core`.
//! * [`SolverBackend`] — the seam between problem encoding and solving:
//!   `dpv-core` routes every verification solve through this trait, so
//!   alternative engines (parallel branch-and-bound, external solvers) can
//!   be swapped in without touching the verification logic.
//!   [`BranchAndBoundBackend`] is the default engine;
//!   [`ColdBranchAndBoundBackend`] runs the same search without warm
//!   starts; [`ExhaustiveBackend`] is a brute-force cross-check oracle for
//!   tests; and [`ParallelBranchAndBoundBackend`] explores branch-and-bound
//!   subtrees on work-stealing worker threads with a shared incumbent bound.
//! * [`CancelToken`] — a cooperative cancellation handle polled inside the
//!   simplex pivot loop and the branch-and-bound node loop. A tripped token
//!   (explicit or deadline-based) makes the solve return promptly with
//!   [`LpStatus::Cancelled`] / [`MilpStatus::Cancelled`] instead of hanging,
//!   which is what request-level deadline budgets in `dpv-serve` build on.
//!
//! Scale expectations: the paper's approach verifies only the close-to-output
//! tail of the perception network, so instances stay in the hundreds of
//! variables / constraints — well inside what a dense textbook simplex
//! handles comfortably and predictably.
//!
//! ## Example
//!
//! ```
//! use dpv_lp::{ConstraintOp, LinearProgram, LpStatus};
//!
//! // maximise x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0
//! let mut lp = LinearProgram::new();
//! let x = lp.add_variable(0.0, f64::INFINITY);
//! let y = lp.add_variable(0.0, f64::INFINITY);
//! lp.set_objective(&[(x, 1.0), (y, 1.0)], true);
//! lp.add_constraint(&[(x, 1.0), (y, 2.0)], ConstraintOp::Le, 4.0);
//! lp.add_constraint(&[(x, 3.0), (y, 1.0)], ConstraintOp::Le, 6.0);
//! let solution = lp.solve();
//! match solution.status {
//!     LpStatus::Optimal => {
//!         assert!((solution.objective - 2.8).abs() < 1e-6);
//!     }
//!     _ => panic!("expected an optimum"),
//! }
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod cancel;
mod milp;
mod model;
mod parallel;
mod relu;
mod simplex;

pub use backend::{
    default_backend, BranchAndBoundBackend, ColdBranchAndBoundBackend, ExhaustiveBackend,
    SolverBackend,
};
pub use cancel::CancelToken;
pub use milp::{MilpProblem, MilpSolution, MilpStatus, SolveContext, SolveStats};
pub use model::{Constraint, ConstraintOp, LinearProgram, LpSolution, LpStatus, VarId};
pub use parallel::ParallelBranchAndBoundBackend;
pub use relu::{encode_relu_big_m, ReluEncoding};
pub use simplex::BasisSnapshot;

/// Numerical tolerance used throughout the solver for feasibility and
/// integrality decisions.
pub const SOLVER_EPS: f64 = 1e-7;
