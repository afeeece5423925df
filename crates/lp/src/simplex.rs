//! A dense two-phase primal simplex solver with bounded variables.
//!
//! Implements the textbook full-tableau simplex extended with the
//! upper-bounding technique (nonbasic variables rest at either bound;
//! bound flips avoid pivots), plus a phase-1 artificial-variable start.
//! Dantzig pricing with an automatic switch to Bland's rule guards
//! against cycling.
//!
//! This is deliberately a from-scratch implementation: no mature LP
//! crate is available offline, and the paper only requires "e.g. the
//! Simplex algorithm" (see DESIGN.md substitution note (c)).
//!
//! The parity search runs the bit-compatible sparse twin in
//! [`crate::sparse`]. This dense tableau is the reference oracle: the
//! sparse solver is differentially tested against it, and the
//! certifier's LP check uses it as a solver independent of the product
//! path.
//!
//! # Examples
//!
//! ```
//! use ced_lp::problem::{LinearProgram, Sense, ConstraintOp};
//! use ced_lp::simplex::solve;
//!
//! let mut lp = LinearProgram::new(Sense::Minimize);
//! let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
//! let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], ConstraintOp::Ge, 2.0);
//! let sol = solve(&lp)?;
//! assert!((sol.objective - 2.0).abs() < 1e-7);
//! # Ok::<(), ced_lp::simplex::SolveError>(())
//! ```

use crate::problem::{ConstraintOp, LinearProgram, Sense};
use ced_runtime::{Budget, Interrupted};
use std::fmt;

/// Numerical tolerance for optimality/feasibility decisions — the
/// workspace-wide [`crate::EPS`], so every comparison in the solver and
/// its callers agrees on what "zero" means.
const TOL: f64 = crate::EPS;
/// Pivot elements smaller than this are rejected (one decade above
/// [`crate::EPS`]: a pivot this close to the noise floor would amplify
/// rounding error through the whole tableau).
const PIVOT_TOL: f64 = 10.0 * crate::EPS;
/// Phase-1 residual above which the program is declared infeasible
/// (two decades above [`crate::EPS`]: phase-1 objectives accumulate
/// error across every row, so the cutoff is deliberately looser).
const PHASE1_TOL: f64 = 100.0 * crate::EPS;

/// Why the solver could not return an optimum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint system has no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was reached (numerical trouble).
    IterationLimit,
    /// The caller's [`Budget`] interrupted the solve mid-pivot-sequence
    /// (cancellation, deadline, or work-unit cap).
    Interrupted(Interrupted),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "linear program is infeasible"),
            SolveError::Unbounded => write!(f, "linear program is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            SolveError::Interrupted(i) => write!(f, "simplex {i}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal variable values, indexed by [`crate::problem::VarId`].
    pub x: Vec<f64>,
    /// Optimal objective value (in the program's own sense).
    pub objective: f64,
    /// Dual values (shadow prices), one per constraint, in the
    /// *minimization* convention of the internal solver: for a
    /// `Maximize` program they are reported negated back into the
    /// program's own sense, so that relaxing a binding `≤` row by one
    /// unit improves the objective by about the dual value.
    pub duals: Vec<f64>,
    /// Simplex iterations used (both phases).
    pub iterations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
}

struct Tableau {
    /// Rows × columns, `B⁻¹A`.
    t: Vec<Vec<f64>>,
    /// Reduced-cost row (kept in sync by pivots).
    z: Vec<f64>,
    /// Current basic-variable values.
    beta: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Variable statuses.
    status: Vec<VarStatus>,
    /// Upper bounds in the shifted space (lower bounds are all 0).
    upper: Vec<f64>,
    /// Costs in the shifted space (current phase).
    cost: Vec<f64>,
    iterations: usize,
}

impl Tableau {
    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(r) => self.beta[r],
            VarStatus::AtLower => 0.0,
            VarStatus::AtUpper => self.upper[j],
        }
    }

    fn objective(&self) -> f64 {
        (0..self.cost.len())
            .map(|j| self.cost[j] * self.value_of(j))
            .sum()
    }

    /// Recomputes the reduced-cost row from scratch for the current costs.
    fn reprice(&mut self) {
        let n = self.cost.len();
        let m = self.basis.len();
        let cb: Vec<f64> = self.basis.iter().map(|&b| self.cost[b]).collect();
        for j in 0..n {
            let mut d = self.cost[j];
            for i in 0..m {
                if cb[i] != 0.0 {
                    d -= cb[i] * self.t[i][j];
                }
            }
            self.z[j] = d;
        }
    }

    /// One simplex phase: optimize the current cost vector.
    ///
    /// One work unit is charged per pivot; the budget is checked every
    /// 128 pivots so a degenerate stall or huge tableau cannot outlive
    /// its deadline.
    fn optimize(&mut self, max_iterations: usize, budget: &Budget) -> Result<(), SolveError> {
        let n = self.cost.len();
        let m = self.basis.len();
        self.reprice();
        let bland_after = max_iterations / 2;
        let mut local_iter = 0usize;
        loop {
            local_iter += 1;
            self.iterations += 1;
            if local_iter > max_iterations {
                return Err(SolveError::IterationLimit);
            }
            budget.charge(1);
            // Check on the first pivot (catches pre-cancelled tokens even
            // on tiny problems) and every 128 pivots thereafter.
            if local_iter % 128 == 1 {
                budget
                    .check("simplex:pivot")
                    .map_err(SolveError::Interrupted)?;
            }
            let use_bland = local_iter > bland_after;

            // Entering variable.
            let mut entering: Option<(usize, f64)> = None; // (col, dir)
            let mut best_score = TOL;
            for j in 0..n {
                let dir = match self.status[j] {
                    VarStatus::Basic(_) => continue,
                    VarStatus::AtLower => {
                        if self.z[j] >= -TOL {
                            continue;
                        }
                        1.0
                    }
                    VarStatus::AtUpper => {
                        if self.z[j] <= TOL {
                            continue;
                        }
                        -1.0
                    }
                };
                if self.upper[j] <= 0.0 {
                    // Pinned variables (upper == lower == 0) cannot move.
                    continue;
                }
                if use_bland {
                    entering = Some((j, dir));
                    break;
                }
                let score = self.z[j].abs();
                if score > best_score {
                    best_score = score;
                    entering = Some((j, dir));
                }
            }
            let Some((e, dir)) = entering else {
                return Ok(()); // optimal
            };

            // Ratio test: largest step t ≥ 0 keeping all basics in range,
            // capped by the entering variable's own bound span. Ties break
            // toward the largest pivot magnitude for stability. The tie
            // window is the same TOL the entering test used: judging
            // near-degenerate pivots by two different epsilons lets a
            // column pass one test and fail the other.
            let tie = TOL;
            let mut t_limit = self.upper[e]; // bound-flip limit (may be inf)
            let mut leave: Option<(usize, bool)> = None; // (row, hits_upper)
            let mut best_pivot = 0.0f64;
            for i in 0..m {
                let w = self.t[i][e];
                let delta = -dir * w; // d beta_i / d t
                let candidate = if delta < -PIVOT_TOL {
                    // beta_i decreases toward 0.
                    Some((self.beta[i].max(0.0) / (-delta), false))
                } else if delta > PIVOT_TOL {
                    let ub = self.upper[self.basis[i]];
                    if ub.is_finite() {
                        // beta_i increases toward its upper bound.
                        Some(((ub - self.beta[i]).max(0.0) / delta, true))
                    } else {
                        None
                    }
                } else {
                    None
                };
                if let Some((t, hits_upper)) = candidate {
                    let better = t < t_limit - tie || (t < t_limit + tie && w.abs() > best_pivot);
                    if better {
                        t_limit = t.min(t_limit);
                        best_pivot = w.abs();
                        leave = Some((i, hits_upper));
                    }
                }
            }

            if t_limit.is_infinite() {
                return Err(SolveError::Unbounded);
            }
            let t_step = t_limit.max(0.0);

            match leave {
                None => {
                    // Bound flip: entering moves across its full range.
                    for i in 0..m {
                        let delta = -dir * self.t[i][e];
                        self.beta[i] += delta * t_step;
                    }
                    self.status[e] = match self.status[e] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        VarStatus::Basic(_) => unreachable!("entering is nonbasic"),
                    };
                }
                Some((r, hits_upper)) => {
                    // Update basic values.
                    for i in 0..m {
                        if i != r {
                            let delta = -dir * self.t[i][e];
                            self.beta[i] += delta * t_step;
                        }
                    }
                    let entering_value = if dir > 0.0 {
                        t_step
                    } else {
                        self.upper[e] - t_step
                    };
                    let leaving = self.basis[r];
                    self.status[leaving] = if hits_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    // Pivot.
                    let pivot = self.t[r][e];
                    debug_assert!(pivot.abs() > PIVOT_TOL * 0.01, "tiny pivot {pivot}");
                    let inv = 1.0 / pivot;
                    for v in self.t[r].iter_mut() {
                        *v *= inv;
                    }
                    for i in 0..m {
                        if i == r {
                            continue;
                        }
                        let factor = self.t[i][e];
                        if factor != 0.0 {
                            // Row operation: row_i -= factor * row_r.
                            let (head, tail) = if i < r {
                                let (a, b) = self.t.split_at_mut(r);
                                (&mut a[i], &b[0])
                            } else {
                                let (a, b) = self.t.split_at_mut(i);
                                (&mut b[0], &a[r])
                            };
                            for (x, y) in head.iter_mut().zip(tail.iter()) {
                                *x -= factor * y;
                            }
                        }
                    }
                    let zfactor = self.z[e];
                    if zfactor != 0.0 {
                        let row = self.t[r].clone();
                        for (x, y) in self.z.iter_mut().zip(row.iter()) {
                            *x -= zfactor * y;
                        }
                    }
                    self.basis[r] = e;
                    self.status[e] = VarStatus::Basic(r);
                    self.beta[r] = entering_value;
                }
            }
        }
    }
}

/// Solves a linear program to optimality.
///
/// # Errors
///
/// * [`SolveError::Infeasible`] if no point satisfies all constraints;
/// * [`SolveError::Unbounded`] if the objective can improve forever;
/// * [`SolveError::IterationLimit`] on pathological numerical behaviour.
pub fn solve(lp: &LinearProgram) -> Result<LpSolution, SolveError> {
    solve_budgeted(lp, &Budget::unlimited())
}

/// [`solve`] under a [`Budget`]: one work unit is charged per simplex
/// pivot (both phases) with a budget check every 128 pivots.
///
/// # Errors
///
/// As [`solve`], plus [`SolveError::Interrupted`] when the budget is
/// exhausted or cancelled. An interrupted solve is restartable from
/// scratch — the tableau is not worth checkpointing, a re-solve from a
/// warm problem is cheap relative to the rest of the pipeline.
pub fn solve_budgeted(lp: &LinearProgram, budget: &Budget) -> Result<LpSolution, SolveError> {
    let n_struct = lp.num_variables();
    let m = lp.num_constraints();
    let lower = lp.lower_bounds();
    let upper = lp.upper_bounds();

    // Shifted space: y_j = x_j − l_j ∈ [0, u_j − l_j].
    let mut shifted_upper: Vec<f64> = (0..n_struct).map(|j| upper[j] - lower[j]).collect();
    // Minimization costs.
    let sign = match lp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost: Vec<f64> = lp.objective().iter().map(|c| sign * c).collect();

    // Dense rows over structural + slack columns; shifted RHS.
    let mut n_total = n_struct;
    let mut slack_col: Vec<Option<usize>> = vec![None; m];
    for (i, c) in lp.constraints().iter().enumerate() {
        if !matches!(c.op, ConstraintOp::Eq) {
            slack_col[i] = Some(n_total);
            n_total += 1;
        }
    }
    let n_with_slack = n_total;
    // One artificial per row.
    let art_base = n_with_slack;
    n_total += m;

    let mut rows = vec![vec![0.0f64; n_total]; m];
    let mut rhs = vec![0.0f64; m];
    for (i, c) in lp.constraints().iter().enumerate() {
        let mut b = c.rhs;
        for (v, a) in &c.terms {
            rows[i][v.0] += *a;
            b -= *a * lower[v.0];
        }
        if let Some(sc) = slack_col[i] {
            rows[i][sc] = match c.op {
                ConstraintOp::Le => 1.0,
                ConstraintOp::Ge => -1.0,
                ConstraintOp::Eq => unreachable!(),
            };
        }
        rhs[i] = b;
    }
    shifted_upper.resize(n_with_slack, f64::INFINITY);
    cost.resize(n_with_slack, 0.0);

    // Artificial columns: ±identity so that initial beta = |rhs| ≥ 0.
    let mut row_sign = vec![1.0f64; m];
    for i in 0..m {
        let s = if rhs[i] < 0.0 { -1.0 } else { 1.0 };
        if s < 0.0 {
            for v in rows[i].iter_mut() {
                *v = -*v;
            }
            rhs[i] = -rhs[i];
            row_sign[i] = -1.0;
        }
        rows[i][art_base + i] = 1.0;
    }
    shifted_upper.resize(n_total, f64::INFINITY);
    // Phase-1 costs: artificials 1, everything else 0.
    let mut phase1_cost = vec![0.0f64; n_total];
    for j in art_base..n_total {
        phase1_cost[j] = 1.0;
    }

    let mut status = vec![VarStatus::AtLower; n_total];
    let mut basis = Vec::with_capacity(m);
    for (i, st) in status[art_base..].iter_mut().enumerate() {
        *st = VarStatus::Basic(i);
        basis.push(art_base + i);
    }

    let mut tab = Tableau {
        t: rows,
        z: vec![0.0; n_total],
        beta: rhs,
        basis,
        status,
        upper: shifted_upper,
        cost: phase1_cost,
        iterations: 0,
    };

    let max_iterations = 200 * (m + n_total) + 20_000;

    // Phase 1: drive the artificial infeasibility to zero.
    tab.optimize(max_iterations, budget)?;
    if tab.objective() > PHASE1_TOL {
        return Err(SolveError::Infeasible);
    }
    // Pin artificials so they can never re-enter with nonzero value.
    for j in art_base..n_total {
        tab.upper[j] = 0.0;
    }

    // Phase 2: real objective.
    cost.resize(n_total, 0.0);
    tab.cost = cost;
    tab.optimize(max_iterations, budget)?;

    // Recover x in the original space.
    let mut x = vec![0.0f64; n_struct];
    for (j, xv) in x.iter_mut().enumerate() {
        *xv = tab.value_of(j) + lower[j];
    }
    let objective = lp.objective_value(&x);
    // Duals from the artificial columns' reduced costs: artificial i has
    // zero phase-2 cost, so its reduced cost is −(c_B B⁻¹)ᵢ in the
    // (possibly sign-flipped) row basis; undo the flip and the sense.
    tab.reprice();
    let duals = (0..m)
        .map(|i| sign * row_sign[i] * -tab.z[art_base + i])
        .collect();
    Ok(LpSolution {
        x,
        objective,
        duals,
        iterations: tab.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{ConstraintOp::*, LinearProgram, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn basic_maximize() {
        // max x + y  s.t. x + 2y ≤ 4, 3x + y ≤ 6; optimum at (1.6, 1.2).
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Le, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Le, 6.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 2.8);
        assert_close(sol.x[0], 1.6);
        assert_close(sol.x[1], 1.2);
    }

    #[test]
    fn basic_minimize_with_ge() {
        // min 2x + 3y  s.t. x + y ≥ 4, x ≥ 1; optimum (4, 0) → 8.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, f64::INFINITY, 2.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 3.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 8.0);
    }

    #[test]
    fn equality_constraints() {
        // max x − y  s.t. x + y = 3, x ∈ [0,2], y ∈ [0,3] → x=2, y=1.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, 2.0, 1.0);
        let y = lp.add_variable(0.0, 3.0, -1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Eq, 3.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.x[0], 2.0);
        assert_close(sol.x[1], 1.0);
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn upper_bounds_respected_via_bound_flip() {
        // max x + y with x,y ≤ 1 and x + y ≤ 1.5 → 1.5.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, 1.0, 1.0);
        let y = lp.add_variable(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Le, 1.5);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 1.5);
        assert!(sol.x[0] <= 1.0 + 1e-9 && sol.x[1] <= 1.0 + 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, 1.0, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn contradictory_equalities_infeasible() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Eq, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Eq, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 0.0);
        lp.add_constraint(vec![(x, 1.0), (y, -1.0)], Le, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn bounded_by_variable_bounds_only() {
        // No constraints at all: optimum at the bound.
        let mut lp = LinearProgram::new(Sense::Maximize);
        lp.add_variable(0.0, 5.0, 2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 10.0);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y, x ∈ [2, 10], y ∈ [3, 10], x + y ≥ 6 → 6 at (3,3)
        // or (2,4) etc.; objective is 6.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(2.0, 10.0, 1.0);
        let y = lp.add_variable(3.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 6.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 6.0);
        assert!(sol.x[0] >= 2.0 - 1e-9 && sol.x[1] >= 3.0 - 1e-9);
    }

    #[test]
    fn negative_rhs_rows() {
        // −x ≤ −2  ⇔  x ≥ 2.
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, -1.0)], Le, -2.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the same vertex.
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
        for k in 1..=6 {
            lp.add_constraint(vec![(x, k as f64), (y, k as f64)], Le, k as f64);
        }
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn solution_is_feasible() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let v: Vec<_> = (0..5)
            .map(|i| lp.add_variable(0.0, 1.0, (i + 1) as f64))
            .collect();
        lp.add_constraint(v.iter().map(|&x| (x, 1.0)).collect(), Le, 2.5);
        lp.add_constraint(vec![(v[0], 1.0), (v[4], 1.0)], Ge, 0.5);
        let sol = solve(&lp).unwrap();
        assert!(lp.is_feasible(&sol.x, 1e-6));
        // Greedy optimum: x4 = 1, x3 = 1, x2 = 0.5 → 5 + 4 + 1.5 = 10.5.
        assert_close(sol.objective, 10.5);
    }

    #[test]
    fn zero_variable_lp() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        lp.add_constraint(vec![], Le, 1.0);
        let sol = solve(&lp).unwrap();
        assert_close(sol.objective, 0.0);
        // An empty Ge row with positive rhs is infeasible.
        let mut bad = LinearProgram::new(Sense::Minimize);
        bad.add_constraint(vec![], Ge, 1.0);
        assert_eq!(solve(&bad).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn duals_match_finite_differences() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6 (both binding at the
        // optimum). The dual of each row ≈ objective gain per unit of
        // extra RHS.
        let build = |b1: f64, b2: f64| {
            let mut lp = LinearProgram::new(Sense::Maximize);
            let x = lp.add_variable(0.0, f64::INFINITY, 1.0);
            let y = lp.add_variable(0.0, f64::INFINITY, 1.0);
            lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Le, b1);
            lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Le, b2);
            lp
        };
        let base = solve(&build(4.0, 6.0)).unwrap();
        let eps = 1e-4;
        let up1 = solve(&build(4.0 + eps, 6.0)).unwrap();
        let up2 = solve(&build(4.0, 6.0 + eps)).unwrap();
        let fd1 = (up1.objective - base.objective) / eps;
        let fd2 = (up2.objective - base.objective) / eps;
        assert!(
            (base.duals[0] - fd1).abs() < 1e-3,
            "dual0 {} vs fd {}",
            base.duals[0],
            fd1
        );
        assert!(
            (base.duals[1] - fd2).abs() < 1e-3,
            "dual1 {} vs fd {}",
            base.duals[1],
            fd2
        );
    }

    #[test]
    fn nonbinding_rows_have_zero_duals() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_variable(0.0, 10.0, 1.0);
        lp.add_constraint(vec![(x, 1.0)], Ge, 2.0); // binding
        lp.add_constraint(vec![(x, 1.0)], Le, 100.0); // slack
        let sol = solve(&lp).unwrap();
        assert!(sol.duals[1].abs() < 1e-9, "slack row dual {}", sol.duals[1]);
        assert!(sol.duals[0].abs() > 1e-9, "binding row dual is zero");
    }

    fn pivot_heavy_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let vars: Vec<_> = (0..12)
            .map(|i| lp.add_variable(0.0, 1.0, 1.0 + (i % 7) as f64))
            .collect();
        for k in 0..12 {
            let terms = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 5) as f64))
                .collect();
            lp.add_constraint(terms, Le, 3.0 + k as f64);
        }
        lp
    }

    #[test]
    fn exhausted_budget_is_a_typed_interrupt() {
        use ced_runtime::{Budget, InterruptKind};
        let lp = pivot_heavy_lp();
        // Cap of 1: the first in-loop check already sees ticks >= cap,
        // independent of how many pivots the problem actually needs.
        let budget = Budget::new().with_tick_cap(1);
        match solve_budgeted(&lp, &budget) {
            Err(SolveError::Interrupted(i)) => {
                assert_eq!(i.kind, InterruptKind::TickCapExceeded);
                assert_eq!(i.progress.stage, "simplex:pivot");
                assert!(!i.resumable);
            }
            other => panic!("expected interrupt, got {other:?}"),
        }
        // The same problem solves fine without a cap.
        assert!(solve(&lp).is_ok());
    }

    #[test]
    fn cancelled_budget_interrupts_solve() {
        use ced_runtime::{Budget, CancelToken, InterruptKind};
        let lp = pivot_heavy_lp();
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::new().with_cancel(token);
        match solve_budgeted(&lp, &budget) {
            Err(SolveError::Interrupted(i)) => {
                assert_eq!(i.kind, InterruptKind::Cancelled);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn random_lps_agree_with_enumeration() {
        // 2-variable LPs solved by brute-force vertex enumeration.
        let mut seed = 42u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 2000) as f64 / 100.0 - 10.0
        };
        for trial in 0..50 {
            let mut lp = LinearProgram::new(Sense::Maximize);
            let c = [next(), next()];
            let x = lp.add_variable(0.0, 10.0, c[0]);
            let y = lp.add_variable(0.0, 10.0, c[1]);
            let mut rows = Vec::new();
            for _ in 0..4 {
                let a = [next(), next()];
                let b = next().abs() + 1.0;
                rows.push((a, b));
                lp.add_constraint(vec![(x, a[0]), (y, a[1])], Le, b);
            }
            // Brute force over a fine grid (bounded box, so an optimum
            // close to the grid optimum must exist).
            let mut best = f64::NEG_INFINITY;
            let steps = 200;
            for i in 0..=steps {
                for j in 0..=steps {
                    let px = 10.0 * i as f64 / steps as f64;
                    let py = 10.0 * j as f64 / steps as f64;
                    if rows.iter().all(|(a, b)| a[0] * px + a[1] * py <= *b + 1e-9) {
                        best = best.max(c[0] * px + c[1] * py);
                    }
                }
            }
            match solve(&lp) {
                Ok(sol) => {
                    assert!(
                        lp.is_feasible(&sol.x, 1e-6),
                        "trial {trial}: infeasible answer"
                    );
                    assert!(
                        sol.objective >= best - 0.5,
                        "trial {trial}: {} < grid {best}",
                        sol.objective
                    );
                }
                Err(SolveError::Infeasible) => {
                    assert!(
                        best == f64::NEG_INFINITY,
                        "trial {trial}: solver infeasible, grid found {best}"
                    );
                }
                Err(e) => panic!("trial {trial}: unexpected {e}"),
            }
        }
    }
}
