//! Property-based tests for the optimization core: every solver output
//! must satisfy Statement 4 exactly; the LP relaxation must never call
//! a feasible instance infeasible; the binary search must respect the
//! singleton upper bound and exact lower bound.

use ced_core::exact::exact_minimum_cover;
use ced_core::greedy::{greedy_cover, GreedyOptions};
use ced_core::ip::{verify_cover, ParityCover};
use ced_core::relax::{build_relaxation, build_relaxation_with_objective, LpForm, LpObjective};
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_lp::{solve, solve_sparse};
use ced_sim::detect::{DetectabilityTable, EcRow};
use proptest::prelude::*;

/// Strategy: a random detectability table over `n ≤ 8` bits, latency
/// ≤ 3, with nonzero first steps (the structural invariant of built
/// tables).
fn table_strategy() -> impl Strategy<Value = DetectabilityTable> {
    (2usize..=8, 1usize..=3).prop_flat_map(|(n, p)| {
        let mask = (1u64 << n) - 1;
        proptest::collection::vec(proptest::collection::vec(0..=mask, p), 1..20).prop_map(
            move |mut rows| {
                for row in rows.iter_mut() {
                    if row[0] == 0 {
                        row[0] = 1;
                    }
                }
                DetectabilityTable::from_rows(
                    n,
                    p,
                    rows.into_iter().map(|steps| EcRow { steps }).collect(),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn search_output_always_verifies(table in table_strategy()) {
        let out = minimize_parity_functions(&table, &CedOptions {
            iterations: 300,
            ..CedOptions::default()
        });
        prop_assert!(verify_cover(&table, &out.cover).is_ok());
        prop_assert!(out.q <= table.num_bits());
        prop_assert_eq!(out.q, out.cover.len());
    }

    #[test]
    fn greedy_output_always_verifies(table in table_strategy()) {
        let cover = greedy_cover(&table, &GreedyOptions::default());
        prop_assert!(verify_cover(&table, &cover).is_ok());
    }

    #[test]
    fn exact_is_a_true_lower_bound(table in table_strategy()) {
        let exact = exact_minimum_cover(&table).expect("n ≤ 8");
        prop_assert!(verify_cover(&table, &exact).is_ok());
        let heur = minimize_parity_functions(&table, &CedOptions::default());
        prop_assert!(exact.len() <= heur.q,
            "exact {} beats heuristic {}", exact.len(), heur.q);
        let greedy = greedy_cover(&table, &GreedyOptions::default());
        prop_assert!(exact.len() <= greedy.len());
    }

    #[test]
    fn lp_feasible_whenever_integral_cover_exists(table in table_strategy()) {
        // The singleton cover always exists with q = n; the LP relaxation
        // at q = n must therefore be feasible (it contains that point).
        let n = table.num_bits();
        let rows: Vec<usize> = (0..table.len()).collect();
        let relax = build_relaxation(&table, n, LpForm::Symmetric, &rows);
        prop_assert!(solve(&relax.lp).is_ok(), "LP infeasible at q = n");
    }

    #[test]
    fn lp_relaxation_lower_bounds_integral_q(table in table_strategy()) {
        // If the LP is infeasible at some q, no integral cover of size q
        // exists; cross-check against the exact solver.
        let exact = exact_minimum_cover(&table).expect("n ≤ 8").len();
        for q in 1..exact {
            let rows: Vec<usize> = (0..table.len()).collect();
            let relax = build_relaxation(&table, q, LpForm::Symmetric, &rows);
            // The LP may be feasible (fractional) below the integral
            // optimum — but if it is INfeasible, q must be < exact.
            if solve(&relax.lp).is_err() {
                prop_assert!(q < exact);
            }
        }
        // And at q = exact it must be feasible.
        let rows: Vec<usize> = (0..table.len()).collect();
        let relax = build_relaxation(&table, exact.max(1), LpForm::Symmetric, &rows);
        prop_assert!(solve(&relax.lp).is_ok());
    }

    /// The search's sparse solver replays the dense oracle on the
    /// relaxations the search actually poses: both forms, both
    /// objectives, every `q` and lazy row subsets in the order row
    /// generation appends them. Whole `Result`s compare, so x, duals,
    /// objective, iteration count and typed failures all match.
    #[test]
    fn sparse_solver_reproduces_dense_on_relaxations(
        table in table_strategy(),
        q_pick in any::<usize>(),
        subset in any::<u64>(),
        rotate in any::<usize>(),
    ) {
        let q = 1 + q_pick % table.num_bits();
        let mut rows: Vec<usize> = (0..table.len()).filter(|&i| subset >> (i % 64) & 1 == 1).collect();
        if rows.is_empty() {
            rows.push(subset as usize % table.len());
        }
        let shift = rotate % rows.len();
        rows.rotate_left(shift);
        for form in [LpForm::Symmetric, LpForm::Full] {
            for objective in [LpObjective::SparseBeta, LpObjective::MaxCoverage] {
                let relax = build_relaxation_with_objective(&table, q, form, &rows, objective);
                prop_assert_eq!(
                    solve(&relax.lp),
                    solve_sparse(&relax.lp),
                    "q = {}, {:?}, {:?}, rows {:?}", q, form, objective, rows
                );
            }
        }
    }

    #[test]
    fn detection_latency_profile_is_consistent(table in table_strategy()) {
        let out = minimize_parity_functions(&table, &CedOptions::default());
        let profile = ced_core::ip::detection_latencies(&table, &out.cover);
        prop_assert_eq!(profile.len(), table.len());
        for (i, lat) in profile.iter().enumerate() {
            match lat {
                Some(k) => prop_assert!(*k >= 1 && *k <= table.latency(),
                    "row {i} latency {k} out of range"),
                None => prop_assert!(false, "row {i} uncovered by verified cover"),
            }
        }
    }

    #[test]
    fn parity_cover_dedup_invariants(masks in proptest::collection::vec(0u64..256, 0..10)) {
        let cover = ParityCover::new(masks.clone());
        // No zeros, no duplicates, order of first occurrence preserved.
        prop_assert!(!cover.masks.contains(&0));
        let mut seen = std::collections::HashSet::new();
        for m in &cover.masks {
            prop_assert!(seen.insert(*m), "duplicate {m}");
            prop_assert!(masks.contains(m));
        }
    }
}
