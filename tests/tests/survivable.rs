//! Survivability acceptance tests: a suite campaign killed mid-run
//! via the cooperative cancel token and resumed from its checkpoint
//! must produce a final JSON report bit-identical to an uninterrupted
//! run with the same seed, and a pathological machine under a tight
//! budget must surface as a typed interrupt/quarantine with partial
//! results — never a hang, panic or abort.

use ced_core::pipeline::{PipelineControl, PipelineError, PipelineOptions};
use ced_core::{
    run_circuit_controlled, run_suite, MachineStatus, SuiteCheckpoint, SuiteControl, SuiteError,
    SuiteOptions, SUITE_CHECKPOINT_KIND,
};
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{decode_checkpoint, encode_checkpoint, Budget, InterruptKind};
use ced_serve::ops::{check_text_with_baseline, OpKind, OpRequest};

fn scaled_machines(names: &[&str]) -> Vec<(String, Fsm)> {
    names
        .iter()
        .map(|name| {
            let spec = bench::paper_table1_scaled()
                .into_iter()
                .find(|s| s.name == *name)
                .unwrap_or_else(|| panic!("no scaled analogue named {name}"));
            (spec.name.to_string(), spec.build())
        })
        .collect()
}

#[test]
fn suite_killed_mid_run_resumes_bit_identical() {
    let machines = scaled_machines(&["s27", "tav"]);
    let options = SuiteOptions {
        latencies: vec![1],
        ..SuiteOptions::default()
    };
    let lib = CellLibrary::new();

    let uninterrupted = run_suite(&machines, &options, &lib, SuiteControl::new())
        .expect("clean suite run completes");

    // Kill the campaign via the cancel token as soon as the first
    // machine's checkpoint lands.
    let control = SuiteControl::new();
    let cancel = control.cancel.clone();
    let mut control = control;
    let mut saved: Option<Vec<u8>> = None;
    let mut sink = |c: &SuiteCheckpoint| {
        saved = Some(encode_checkpoint(SUITE_CHECKPOINT_KIND, &c.to_bytes()));
        cancel.cancel();
    };
    control.on_checkpoint = Some(&mut sink);
    let err = run_suite(&machines, &options, &lib, control).unwrap_err();
    let SuiteError::Interrupted(i) = err else {
        panic!("cancelled suite must interrupt, got a different error");
    };
    assert_eq!(i.interrupted.kind, InterruptKind::Cancelled);
    assert_eq!(i.checkpoint.machines_done(), 1);
    assert_eq!(i.partial.records.len(), 1);

    // Resume through the on-disk container (magic/version/checksum),
    // exactly as `ced suite --resume` would.
    let container = saved.expect("checkpoint sink fired");
    let payload =
        decode_checkpoint(&container, SUITE_CHECKPOINT_KIND).expect("container validates");
    let checkpoint = SuiteCheckpoint::from_bytes(&payload).expect("payload decodes");
    let mut control = SuiteControl::new();
    control.resume = Some(checkpoint);
    let resumed = run_suite(&machines, &options, &lib, control).expect("resumed run completes");

    assert_eq!(
        resumed.to_json(),
        uninterrupted.to_json(),
        "resumed report must be bit-identical to the uninterrupted run"
    );
}

#[test]
fn pathological_budget_quarantines_with_partial_results() {
    // Exhaustive input enumeration plus the full (uncollapsed) fault
    // list is the heaviest configuration the pipeline supports; one
    // work tick cannot even clear the first fault boundary.
    let machines = scaled_machines(&["s27"]);
    let mut options = SuiteOptions {
        latencies: vec![1],
        machine_ticks: Some(1),
        ..SuiteOptions::default()
    };
    options.pipeline.input_granularity = ced_core::pipeline::InputGranularity::Exhaustive;
    options.pipeline.full_fault_list = true;

    let report = run_suite(
        &machines,
        &options,
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .expect("budget exhaustion must not abort the suite");
    let rec = &report.records[0];
    assert_eq!(rec.status, MachineStatus::Quarantined);
    assert_eq!(rec.attempts, 2, "degraded retry must have been attempted");
    assert!(
        rec.notes
            .iter()
            .any(|n| n.contains("interrupted by budget")),
        "notes must carry the typed interrupt: {:?}",
        rec.notes
    );
    let json = report.to_json();
    assert!(json.contains("\"quarantined\":1"));
    assert!(json.contains("\"report\":null"));
}

#[test]
fn pipeline_tick_cap_is_a_typed_resumable_interrupt() {
    let machines = scaled_machines(&["dk512"]);
    let (_, fsm) = &machines[0];
    let options = PipelineOptions::paper_defaults();
    let budget = Budget::new().with_tick_cap(10);
    let err = run_circuit_controlled(
        fsm,
        &[1],
        &options,
        &CellLibrary::new(),
        PipelineControl::new(&budget),
    )
    .expect_err("a 10-tick budget cannot finish the build");
    let PipelineError::Interrupted(i) = err else {
        panic!("tick exhaustion must surface as a typed interrupt");
    };
    assert_eq!(i.interrupted.kind, InterruptKind::TickCapExceeded);
    let ckpt = i
        .checkpoint
        .as_ref()
        .expect("build-phase interrupts leave a resumable checkpoint");

    // The checkpoint is genuinely usable: an unlimited resume finishes.
    let unlimited = Budget::unlimited();
    let mut control = PipelineControl::new(&unlimited);
    control.resume = Some(ckpt.clone());
    let report = run_circuit_controlled(fsm, &[1], &options, &CellLibrary::new(), control)
        .expect("resume with an unlimited budget completes");
    assert_eq!(report.latencies.len(), 1);
}

#[test]
fn check_degrades_under_a_search_budget_exactly_like_table() {
    // gen10x at p = 2: 235000 ticks cover the tensor build but not the
    // search, so both commands step down the solver ladder. `check` is
    // a one-bound `table`, so it must print the cover, trail and
    // checker `table` reports under the same cap.
    const CAP: u64 = 235_000;
    let fsm = generate(&scaled_workload(10, 0));
    let mut request = OpRequest::new(OpKind::Check, "");
    request.latency = 2;
    // The two runs are independent; side by side they take half the
    // wall time of this (unoptimized) test build.
    let (text, report) = std::thread::scope(|s| {
        let check = s.spawn(|| {
            check_text_with_baseline(
                &fsm,
                None,
                &request,
                &Budget::new().with_tick_cap(CAP),
                &ParExec::serial(),
                None,
            )
            .expect("a search budget degrades check, it does not stop it")
            .0
        });
        let budget = Budget::new().with_tick_cap(CAP);
        let report = run_circuit_controlled(
            &fsm,
            &[request.latency],
            &request.options,
            &CellLibrary::new(),
            PipelineControl::new(&budget),
        )
        .expect("a search budget degrades table, it does not stop it");
        (check.join().expect("check thread"), report)
    });
    let l = &report.latencies[0];
    assert!(
        !l.degradation.is_empty(),
        "the cap must trip inside the search"
    );
    let mut expected = format!(
        "Algorithm 1 (p = {}): q = {} parity trees ({} LP solves, {} rounding attempts)\n\
         solved by {} after degradation:\n",
        l.latency,
        l.cover.len(),
        l.lp_solves,
        l.rounding_attempts,
        l.method
    );
    for event in &l.degradation {
        expected += &format!("  {event}\n");
    }
    for (i, &mask) in l.cover.masks.iter().enumerate() {
        let taps: Vec<String> = (0..report.state_bits + report.outputs)
            .filter(|j| (mask >> j) & 1 == 1)
            .map(|j| format!("b{}", j + 1))
            .collect();
        expected += &format!("  tree {}: {}\n", i + 1, taps.join(" ⊕ "));
    }
    expected += &format!(
        "checker: {} gates, {} hold FFs, area {:.1}\n",
        l.cost.gates, l.cost.flip_flops, l.cost.area
    );
    let (_, body) = text.split_once('\n').expect("a fault-model line");
    assert_eq!(body, expected);
}
