//! # dpv-lp
//!
//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver that depends on no other crate. It replaces the commercial MILP
//! back-end used by the paper's original toolchain (nn-dependability-kit
//! reduces the network verification problem to MILP and hands it to an
//! off-the-shelf solver).
//!
//! The crate provides:
//!
//! * [`LinearProgram`] — a model builder for LPs with finite per-variable
//!   bounds and `≤ / ≥ / =` row constraints (every bound, coefficient and
//!   right-hand side must be finite), solved by one engine: a
//!   bounded-variable dual simplex on a dense row-major tableau. Every
//!   variable is boxed, so the slack basis is dual feasible and a solve
//!   needs no phase 1 ([`LinearProgram::solve`]). A solved program hands
//!   out its final basis as a [`BasisSnapshot`]
//!   ([`LinearProgram::solve_with_snapshot`]); after **bound-only** edits
//!   ([`LinearProgram::set_bounds`], [`LinearProgram::set_constraint_rhs`])
//!   the same dual simplex restarts from it
//!   ([`LinearProgram::solve_from_basis`]), which is the hot-path primitive
//!   behind incremental branch-and-bound. A snapshot refuses a program with
//!   other rows. Cold and
//!   warm solves differ only in their start basis, and every result is
//!   checked against the live program: an optimum must be primal feasible,
//!   and an infeasibility must carry a Farkas certificate whose tolerance
//!   scales with the magnitudes it sums. A result that fails its check is
//!   never reported as `Infeasible`.
//! * [`MilpProblem`] — an LP plus a set of binary variables, solved by
//!   branch-and-bound over the binaries ([`MilpProblem::solve`]). Each node
//!   carries its own variable bounds and propagates them over the rows
//!   before its LP: a row whose activity over the bounds cannot reach its
//!   right-hand side closes the node with no LP, under the Farkas check's
//!   relative tolerance, and a binary the bounds pin to one value is fixed
//!   without branching. Only binary fixings reach the node LP, and every
//!   node relaxation is warm-started from the most recent basis
//!   ([`SolveStats`] reports the warm/cold split). A feasibility-only mode is
//!   what safety verification uses: *is there an assignment inside the
//!   envelope that triggers the risk condition?* It stops at the first
//!   integer-feasible node, or earlier, at the first node whose relaxation
//!   point passes the caller's witness check ([`SolveContext::witness`]):
//!   one point that the caller has confirmed answers the question, integral
//!   or not. When every binary is the phase of a big-M ReLU recorded as a
//!   [`ReluLink`], a feasibility search branches only on ReLUs the node's
//!   LP point violates (output above `max(0, input)`), the most fractional
//!   first, and on the most fractional binary when none is violated.
//! * [`SolveContext`] — the one per-call context of every solve entry point
//!   ([`MilpProblem::solve_with`], [`SolverBackend::solve_with`]): a
//!   warm-start seed that chains dual-simplex solves across problems with
//!   the same rows, a cancellation token and a witness check, each
//!   optional. A solve reports its work only in the [`SolveStats`] of its
//!   [`MilpSolution`]; callers that keep counters add those up.
//! * [`encode_relu_big_m`] — the standard big-M encoding of a ReLU
//!   constraint `y = max(0, x)` with known pre-activation bounds. The
//!   network encoder in `dpv-core` writes the same three rows over affine
//!   expressions of the variables before the ReLU. Both record each
//!   binary's [`ReluLink`] through [`MilpProblem::link_relu`], from which
//!   the search reads the pre-activation back at an LP point.
//! * [`SolverBackend`] — the seam between problem encoding and solving:
//!   `dpv-core` routes every verification solve through this trait, so
//!   alternative engines (external solvers, for instance) can be swapped
//!   in without touching the verification logic.
//!   [`BranchAndBoundBackend`], the one branch-and-bound search, is the
//!   default engine, and [`ExhaustiveBackend`] is a brute-force
//!   cross-check oracle for tests that solves every LP from the slack
//!   basis. Every engine solves on the calling thread: callers parallelise
//!   across problems, not inside one.
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
//! // maximise x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y in [0, 10]
//! let mut lp = LinearProgram::new();
//! let x = lp.add_variable(0.0, 10.0);
//! let y = lp.add_variable(0.0, 10.0);
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
mod propagate;
mod relu;
mod simplex;

pub use backend::{default_backend, BranchAndBoundBackend, ExhaustiveBackend, SolverBackend};
pub use cancel::CancelToken;
pub use milp::{MilpProblem, MilpSolution, MilpStatus, ReluLink, SolveContext, SolveStats};
pub use model::{Constraint, ConstraintOp, LinearProgram, LpSolution, LpStatus, VarId};
pub use relu::{encode_relu_big_m, ReluEncoding};
pub use simplex::BasisSnapshot;

/// Numerical tolerance used throughout the solver for feasibility and
/// integrality decisions.
pub const SOLVER_EPS: f64 = 1e-7;
