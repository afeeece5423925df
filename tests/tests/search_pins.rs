//! Literal pins of Algorithm 1 on a fixed machine. The search is a pure
//! function of table, options and seed, so its whole outcome — cover,
//! `q`, LP solve count, rounding attempts and the feasibility trace —
//! is pinned byte for byte. Any change to the LP solver or the search
//! loop that moves a float shows up here first.
//!
//! The fixture is `ced gen --scale 3 --seed 3` at latency 2, the
//! machine of perfbench's `edit-loop`. Its `q = 4` query fails rounding
//! in rounds 0 and 1 with every uncovered row already in the LP subset,
//! so rounds 1 and 2 pose the same relaxation as round 0.

use ced_core::pipeline::{detect_options, fault_list, prepare_machine, PipelineOptions};
use ced_core::search::{minimize_interruptible, LadderRung, SearchOutcome};
use ced_fsm::generator::{generate, scaled_workload};
use ced_runtime::Budget;
use ced_sim::detect::DetectabilityTable;

const LATENCY: usize = 2;

fn gen3x_outcome(budget: &Budget) -> (DetectabilityTable, SearchOutcome) {
    let fsm = generate(&scaled_workload(3, 3));
    let options = PipelineOptions::paper_defaults();
    let (encoded, circuit) = prepare_machine(&fsm, &options).expect("gen3x synthesizes");
    let faults = fault_list(&circuit, &options);
    let (table, _) = DetectabilityTable::build(
        &circuit,
        &faults,
        &detect_options(&encoded, &options, LATENCY),
    )
    .expect("gen3x table fits");
    let outcome =
        minimize_interruptible(&table, &options.ced, None, budget).expect("never cancelled");
    (table, outcome)
}

#[test]
fn gen3x_search_outcome_is_pinned() {
    let budget = Budget::new();
    let (table, out) = gen3x_outcome(&budget);
    assert!(table.all_covered(&out.cover.masks));
    assert_eq!(out.cover.masks, [137, 150, 73, 111, 10]);
    assert_eq!(out.q, 5);
    assert_eq!(out.lp_solves, 9);
    assert_eq!(out.rounding_attempts, 8248);
    assert_eq!(out.feasibility_trace, [(5, true), (3, false), (4, false)]);
    assert_eq!(out.method, LadderRung::LpRounding);
    assert!(out.degradation.is_empty());
}

/// The budget is charged one tick per feasibility query plus one per
/// simplex pivot actually done. Rounds 1 and 2 of the `q = 4` query
/// reuse round 0's solution (1,198 pivots each), so the search charges
/// 2 × 1,198 ticks fewer than it did when it solved every round
/// afresh: 10,836 then, 8,440 now. `lp_solves` still counts all nine
/// relaxations posed.
#[test]
fn gen3x_search_ticks_skip_the_repeated_solves() {
    let budget = Budget::new();
    let (_, out) = gen3x_outcome(&budget);
    assert_eq!(out.lp_solves, 9);
    assert_eq!(budget.ticks(), 10_836 - 2 * 1_198);
}
