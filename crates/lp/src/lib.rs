//! # ced-lp — linear programming and randomized rounding, from scratch
//!
//! A two-phase primal simplex solver with bounded variables, plus
//! Raghavan–Thompson randomized rounding helpers. Built for the LP
//! relaxation (Statement 5) of *"On Concurrent Error Detection with
//! Bounded Latency in FSMs"* (DATE 2004); no external LP dependency is
//! available offline (DESIGN.md substitution note (c)).
//!
//! Two bit-compatible implementations share one algorithm:
//! [`sparse`] is the product solver the parity search runs, and the
//! dense tableau in [`simplex`] is the reference oracle — the solver
//! the sparse one is differentially tested against, and the
//! independent float solver behind the certifier's LP check.
//!
//! # Examples
//!
//! ```
//! use ced_lp::{LinearProgram, Sense, ConstraintOp, solve};
//!
//! // minimize x + 2y  s.t.  x + y ≥ 1,  x, y ∈ [0, 1]
//! let mut lp = LinearProgram::new(Sense::Minimize);
//! let x = lp.add_variable(0.0, 1.0, 1.0);
//! let y = lp.add_variable(0.0, 1.0, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 1.0);
//! let sol = solve(&lp)?;
//! assert!((sol.objective - 1.0).abs() < 1e-7);
//! assert!((sol.x[0] - 1.0).abs() < 1e-7);
//! # Ok::<(), ced_lp::SolveError>(())
//! ```

#![warn(missing_docs)]
// Indexed loops over bit positions are the clearest form for this
// bit-twiddling code; the iterator rewrites clippy suggests obscure it.
#![allow(clippy::needless_range_loop)]

pub mod problem;
pub mod rational;
pub mod rounding;
pub mod simplex;
pub mod sparse;

/// The workspace-wide float tolerance for LP numerics.
///
/// Every "is this zero?" decision in the solver chain — simplex
/// optimality and feasibility tests, ratio-test tie breaking (via
/// [`simplex`]'s internal constants, all defined as multiples of this
/// value) and the certification layer's refusal band — derives from
/// this single constant, so a point judged feasible by one stage cannot
/// be judged infeasible by another merely because the two stages
/// disagreed on epsilon. Exact re-checks ([`rational`]) use no
/// tolerance at all; `EPS` is the width of the float band inside which
/// they refuse to certify rather than trust float arithmetic.
pub const EPS: f64 = 1e-9;

pub use problem::{Constraint, ConstraintOp, LinearProgram, Sense, VarId};
pub use rational::{check_feasibility_exact, Rat64, RatError, RationalVerdict, SlackReport};
pub use rounding::{round_binary, round_to_mask, round_until, round_until_budgeted};
pub use simplex::{solve, solve_budgeted, LpSolution, SolveError};
pub use sparse::{solve_budgeted_sparse, solve_sparse};
