//! Seeded property tests for the simplex solver.
//!
//! Four robustness contracts beyond the feasibility/optimality
//! properties in `props.rs`:
//!
//! 1. determinism — the solver is a pure function of the program, so
//!    rebuilding the same seeded instance must reproduce the solution
//!    bit for bit (x, duals, objective, and iteration count);
//! 2. anti-cycling — Beale's classic cycling instance (which loops
//!    forever under naive Dantzig pricing) must terminate at its known
//!    optimum, exercising the Bland's-rule switch;
//! 3. typed failures — every public entry point returns `Result`, and
//!    pathological inputs surface as `SolveError` variants, never
//!    panics;
//! 4. sparse ≡ dense over every row kind — `≤` and `≥` rows, rows the
//!    solver negates for a negative RHS, `=` rows and infeasible or
//!    unbounded programs. The sparse solver reads an inequality row's
//!    artificial column through its slack twin with a sign that
//!    depends on exactly these cases, so each must reach it.

use ced_lp::problem::{ConstraintOp, LinearProgram, Sense};
use ced_lp::simplex::{solve, LpSolution, SolveError};
use ced_lp::sparse::solve_sparse;
use proptest::prelude::*;

/// Splitmix64: a tiny deterministic generator so instances are a pure
/// function of the seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish coefficient in [-5, 5].
    fn coef(&mut self) -> f64 {
        (self.next() % 10_001) as f64 / 1000.0 - 5.0
    }
}

/// Builds a bounded-box LP entirely determined by `seed`. RHS values
/// are positive so the origin is always feasible.
fn lp_from_seed(seed: u64, vars: usize, rows: usize) -> LinearProgram {
    let mut rng = Mix(seed);
    let mut lp = LinearProgram::new(Sense::Maximize);
    let ids: Vec<_> = (0..vars)
        .map(|_| {
            let c = rng.coef();
            lp.add_variable(0.0, 3.0, c)
        })
        .collect();
    for _ in 0..rows {
        let terms: Vec<_> = ids.iter().map(|&v| (v, rng.coef())).collect();
        let rhs = rng.coef().abs() + 0.5;
        lp.add_constraint(terms, ConstraintOp::Le, rhs);
    }
    lp
}

/// Which of the cases the sparse solver's twin columns distinguish a
/// row falls in: its operator and whether the solver negates it.
#[derive(Debug, Default)]
struct RowKinds {
    le: usize,
    ge: usize,
    eq: usize,
    negated: usize,
}

/// An LP over every row kind, entirely determined by `seed`: `≤`, `≥`
/// and `=` rows, either sign of RHS (after the lower-bound shift a
/// negative RHS makes the solver negate the row, which flips its
/// slack's orientation), nonzero lower bounds, some infinite upper
/// bounds, duplicate terms and both senses. Small integer data around
/// an integer point `x0` keeps most instances feasible and makes exact
/// cancellations under elimination common; one seed in six appends two
/// contradictory equality rows.
fn mixed_lp_from_seed(seed: u64, vars: usize, rows: usize) -> (LinearProgram, RowKinds) {
    let mut rng = Mix(seed);
    let mut small = |span: u64| (rng.next() % span) as i64;
    let sense = if small(2) == 0 {
        Sense::Minimize
    } else {
        Sense::Maximize
    };
    let mut lp = LinearProgram::new(sense);
    let mut x0 = Vec::with_capacity(vars);
    let ids: Vec<_> = (0..vars)
        .map(|_| {
            let lower = -small(3) as f64;
            let upper = if small(5) == 0 {
                f64::INFINITY
            } else {
                lower + 1.0 + small(4) as f64
            };
            x0.push(lower + (small(3) as f64 % (upper - lower + 1.0)));
            lp.add_variable(lower, upper, small(7) as f64 - 3.0)
        })
        .collect();
    let mut kinds = RowKinds::default();
    for _ in 0..rows {
        let mut terms = Vec::new();
        for &v in &ids {
            if small(5) < 3 {
                terms.push((v, small(7) as f64 - 3.0));
            }
        }
        if !terms.is_empty() && small(4) == 0 {
            // A repeated variable: the solver adds its coefficients.
            let (v, a) = terms[small(terms.len() as u64) as usize];
            terms.push((v, -a + small(3) as f64 - 1.0));
        }
        let activity: f64 = terms.iter().map(|&(v, a)| a * x0[v.0]).sum();
        let slack = small(3) as f64;
        let (op, rhs) = match small(3) {
            0 => (ConstraintOp::Le, activity + slack),
            1 => (ConstraintOp::Ge, activity - slack),
            _ => (ConstraintOp::Eq, activity),
        };
        let shifted: f64 = rhs
            - terms
                .iter()
                .map(|&(v, a)| a * lp.lower_bounds()[v.0])
                .sum::<f64>();
        match op {
            ConstraintOp::Le => kinds.le += 1,
            ConstraintOp::Ge => kinds.ge += 1,
            ConstraintOp::Eq => kinds.eq += 1,
        }
        if shifted < 0.0 {
            kinds.negated += 1;
        }
        lp.add_constraint(terms, op, rhs);
    }
    if vars > 0 && small(6) == 0 {
        let terms: Vec<_> = ids.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(terms.clone(), ConstraintOp::Eq, 1.0);
        lp.add_constraint(terms, ConstraintOp::Eq, 2.0);
        kinds.eq += 2;
    }
    (lp, kinds)
}

/// Sparse ≡ dense over 600 mixed instances, and the generator really
/// reaches every case: each row kind, negated rows, optima, infeasible
/// and unbounded programs.
#[test]
fn sparse_solver_reproduces_dense_over_every_row_kind() {
    let mut kinds = RowKinds::default();
    let (mut optimal, mut infeasible, mut unbounded) = (0, 0, 0);
    for seed in 0..600u64 {
        let vars = 1 + (seed % 7) as usize;
        let rows = (seed / 7 % 9) as usize;
        let (lp, k) = mixed_lp_from_seed(seed, vars, rows);
        let dense = solve(&lp);
        let sparse = solve_sparse(&lp);
        assert_eq!(dense, sparse, "seed {seed}");
        match dense {
            Ok(_) => optimal += 1,
            Err(SolveError::Infeasible) => infeasible += 1,
            Err(SolveError::Unbounded) => unbounded += 1,
            Err(e) => panic!("seed {seed}: unexpected {e}"),
        }
        kinds.le += k.le;
        kinds.ge += k.ge;
        kinds.eq += k.eq;
        kinds.negated += k.negated;
    }
    assert!(
        kinds.le > 0 && kinds.ge > 0 && kinds.eq > 0 && kinds.negated > 0,
        "{kinds:?}"
    );
    assert!(
        optimal > 100 && infeasible > 20 && unbounded > 20,
        "{optimal} optimal, {infeasible} infeasible, {unbounded} unbounded"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed ⇒ identical solution, including iteration counts:
    /// nothing in the solver may depend on ambient state.
    #[test]
    fn same_seed_reproduces_the_solution_exactly(
        seed in any::<u64>(),
        vars in 1usize..6,
        rows in 0usize..6,
    ) {
        let a = solve(&lp_from_seed(seed, vars, rows)).expect("origin-feasible");
        let b = solve(&lp_from_seed(seed, vars, rows)).expect("origin-feasible");
        // LpSolution derives PartialEq over f64 fields, so this is
        // bitwise-identical-or-fail, not approximately-equal.
        prop_assert_eq!(a, b);
    }

    /// The sparse-row solver replays the dense solver's arithmetic:
    /// identical x, duals, objective and iteration counts on every
    /// seeded instance. `LpSolution` derives `PartialEq` over f64
    /// fields, so this is bitwise-identical-or-fail (up to IEEE-754
    /// ordering `−0.0 == +0.0`, which nothing downstream observes).
    #[test]
    fn sparse_solver_reproduces_dense_solution_exactly(
        seed in any::<u64>(),
        vars in 1usize..6,
        rows in 0usize..6,
    ) {
        let dense = solve(&lp_from_seed(seed, vars, rows)).expect("origin-feasible");
        let sparse = solve_sparse(&lp_from_seed(seed, vars, rows)).expect("origin-feasible");
        prop_assert_eq!(dense, sparse);
    }

    /// The same over mixed row kinds at random sizes: equal solutions,
    /// or the same typed failure.
    #[test]
    fn sparse_solver_reproduces_dense_on_mixed_rows(
        seed in any::<u64>(),
        vars in 1usize..9,
        rows in 0usize..12,
    ) {
        let (lp, _) = mixed_lp_from_seed(seed, vars, rows);
        prop_assert_eq!(solve(&lp), solve_sparse(&lp));
    }

    /// Seeded instances never panic or hit the iteration limit; the
    /// only allowed outcomes are an optimum or a typed failure.
    #[test]
    fn seeded_instances_terminate_without_iteration_limit(
        seed in any::<u64>(),
        vars in 1usize..7,
        rows in 0usize..8,
    ) {
        match solve(&lp_from_seed(seed, vars, rows)) {
            Ok(sol) => prop_assert!(sol.x.len() == vars),
            Err(SolveError::IterationLimit) => {
                prop_assert!(false, "iteration limit on a tiny box LP");
            }
            // The box is bounded and the origin feasible, but keep the
            // match exhaustive for the error type.
            Err(e) => prop_assert!(false, "unexpected {e}"),
        }
    }
}

/// Beale's cycling example: the textbook instance on which Dantzig
/// pricing with lowest-index tie-breaking cycles forever. Terminating
/// here at the known optimum −1/20 shows the Bland's-rule switch does
/// its job.
#[test]
fn beales_cycling_instance_terminates_at_its_optimum() {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let x1 = lp.add_variable(0.0, f64::INFINITY, -0.75);
    let x2 = lp.add_variable(0.0, f64::INFINITY, 150.0);
    let x3 = lp.add_variable(0.0, f64::INFINITY, -0.02);
    let x4 = lp.add_variable(0.0, f64::INFINITY, 6.0);
    lp.add_constraint(
        vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        ConstraintOp::Le,
        0.0,
    );
    lp.add_constraint(vec![(x3, 1.0)], ConstraintOp::Le, 1.0);
    let sol = solve(&lp).expect("Beale's instance is feasible and bounded");
    assert!(
        (sol.objective - (-0.05)).abs() < 1e-7,
        "objective {} != -1/20",
        sol.objective
    );
    assert!(lp.is_feasible(&sol.x, 1e-9));
}

/// Beale's cycling instance through the sparse revised-simplex path:
/// same anti-cycling behaviour, same optimum, and the whole solution
/// identical to the dense path — the degenerate-pivot tie-breaks (the
/// place a revised simplex classically diverges from a tableau one)
/// must resolve the same way.
#[test]
fn beales_instance_is_identical_under_the_sparse_path() {
    let build = || {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x1 = lp.add_variable(0.0, f64::INFINITY, -0.75);
        let x2 = lp.add_variable(0.0, f64::INFINITY, 150.0);
        let x3 = lp.add_variable(0.0, f64::INFINITY, -0.02);
        let x4 = lp.add_variable(0.0, f64::INFINITY, 6.0);
        lp.add_constraint(
            vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(
            vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            ConstraintOp::Le,
            0.0,
        );
        lp.add_constraint(vec![(x3, 1.0)], ConstraintOp::Le, 1.0);
        lp
    };
    let dense = solve(&build()).expect("feasible and bounded");
    let sparse = solve_sparse(&build()).expect("feasible and bounded");
    assert_eq!(dense, sparse);
    assert!(
        (sparse.objective - (-0.05)).abs() < 1e-7,
        "objective {} != -1/20",
        sparse.objective
    );
}

/// A fully degenerate vertex — every row passes through the optimum —
/// must still terminate and solve twice to the identical answer.
#[test]
fn degenerate_ties_are_deterministic() {
    let build = || {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_variable(0.0, f64::INFINITY, 3.0);
        let y = lp.add_variable(0.0, f64::INFINITY, 2.0);
        let z = lp.add_variable(0.0, f64::INFINITY, 1.0);
        // Eight redundant facets all active at the same point.
        for k in 1..=8 {
            let k = k as f64;
            lp.add_constraint(vec![(x, k), (y, k), (z, k)], ConstraintOp::Le, 2.0 * k);
        }
        lp
    };
    let a = solve(&build()).expect("bounded and feasible");
    let b = solve(&build()).expect("bounded and feasible");
    assert_eq!(a, b);
    assert!((a.objective - 6.0).abs() < 1e-7, "optimum is x=2 → 6");
}

/// Every public solver entry point is `Result`-typed: this function
/// only compiles if `solve` has the expected fallible signature, and
/// the match below proves each failure is a value, not a panic.
#[test]
fn public_entry_points_are_result_typed() {
    fn assert_fallible(f: fn(&LinearProgram) -> Result<LpSolution, SolveError>) -> bool {
        let mut infeasible = LinearProgram::new(Sense::Minimize);
        let x = infeasible.add_variable(0.0, 1.0, 1.0);
        infeasible.add_constraint(vec![(x, 1.0)], ConstraintOp::Ge, 2.0);

        let mut unbounded = LinearProgram::new(Sense::Maximize);
        unbounded.add_variable(0.0, f64::INFINITY, 1.0);

        matches!(f(&infeasible), Err(SolveError::Infeasible))
            && matches!(f(&unbounded), Err(SolveError::Unbounded))
    }
    assert!(assert_fallible(solve));
}
