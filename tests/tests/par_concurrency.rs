//! Concurrency semantics of the runtime layer under the worker pool:
//! cooperative cancellation stops every worker and surfaces the hard
//! typed error (never a partial `Ok`), budget exhaustion drains the
//! pool into the same resumable checkpoints as the serial path, and a
//! worker panic quarantines exactly its own machine — no poisoning of
//! siblings, no disturbance of the merged record order.

use ced_core::{run_suite, MachineStatus, SuiteControl, SuiteError, SuiteOptions};
use ced_fsm::encoding::EncodingStrategy;
use ced_fsm::generator::{generate, GeneratorConfig};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{Budget, CancelToken, InterruptKind};

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
}

fn normalize_jobs(json: &str) -> String {
    let Some(start) = json.find("\"jobs\":") else {
        return json.to_string();
    };
    let digits = start + "\"jobs\":".len();
    let end = json[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(json.len(), |i| digits + i);
    format!("{}\"jobs\":0{}", &json[..start], &json[end..])
}

/// Cancelling mid-campaign under a four-worker pool returns the hard
/// `Interrupted` error — never a partial `Ok` — and the outcomes it
/// carries are a clean index-prefix of the uninterrupted campaign.
#[test]
fn cancel_mid_campaign_stops_all_workers_with_the_hard_error() {
    use ced_core::ip::ParityCover;
    use ced_core::synthesize_ced;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_inject::{run_campaign_stored, CampaignError, CampaignOptions};
    use ced_sim::fault::collapsed_faults;

    let fsm = bench::sequence_detector();
    let enc = assign(&fsm, EncodingStrategy::Natural);
    let circuit = EncodedFsm::new(fsm, enc)
        .expect("well-formed")
        .synthesize(&ced_logic::MinimizeOptions::default());
    let cover = ParityCover::singletons(circuit.total_bits());
    let ced = synthesize_ced(&circuit, &cover, 1, &ced_logic::MinimizeOptions::default());
    let faults = collapsed_faults(circuit.netlist());
    assert!(faults.len() > 4, "campaign too small to interrupt");

    let clean = run_campaign_stored(
        &circuit,
        &ced,
        &faults,
        &CampaignOptions::default(),
        &Budget::unlimited(),
        &ParExec::new(4),
        None,
    )
    .expect("uninterrupted campaign completes");

    // Fire the token from the budget observer a few faults in: every
    // worker sees it at its next fault boundary and the pool drains.
    let token = CancelToken::new();
    let trigger = token.clone();
    let budget = Budget::new()
        .with_cancel(token)
        .with_observer(1, move |done, _| {
            if done >= 3 {
                trigger.cancel();
            }
        });
    let err = run_campaign_stored(
        &circuit,
        &ced,
        &faults,
        &CampaignOptions::default(),
        &budget,
        &ParExec::new(4),
        None,
    )
    .expect_err("a cancelled campaign must not return Ok");
    match err {
        CampaignError::Interrupted {
            interrupted,
            partial,
        } => {
            assert_eq!(interrupted.kind, InterruptKind::Cancelled);
            assert!(
                partial.injected < faults.len(),
                "cancellation must cut the campaign short"
            );
            assert_eq!(partial.injected, partial.outcomes.len());
            // The partial is the serial campaign's prefix: ordered
            // merge + lowest-index interrupt, regardless of which
            // worker saw the token first.
            assert_eq!(
                partial.outcomes[..],
                clean.machine.outcomes[..partial.outcomes.len()]
            );
        }
        other => panic!("expected Interrupted, got {other}"),
    }
}

/// Cancelling a pooled suite mid-campaign leaves a resumable
/// checkpoint; the resumed (pooled) report is byte-identical to an
/// uninterrupted pooled run, which is itself identical to the serial
/// path modulo the `jobs` header token.
#[test]
fn cancelled_pooled_suite_resumes_byte_identical() {
    let machines: Vec<(String, Fsm)> = ["s27", "tav", "dk512"]
        .iter()
        .map(|&n| (n.to_string(), scaled(n)))
        .collect();
    let options = SuiteOptions {
        latencies: vec![1],
        ..SuiteOptions::default()
    };
    let lib = CellLibrary::new();
    let pool = ParExec::new(1);

    let mut control = SuiteControl::new();
    control.pool = Some(&pool);
    let uninterrupted =
        run_suite(&machines, &options, &lib, control).expect("clean pooled run completes");

    // Cancel as soon as the first machine's checkpoint lands.
    let control = SuiteControl::new();
    let cancel = control.cancel.clone();
    let mut control = control;
    control.pool = Some(&pool);
    let mut saved = None;
    let mut sink = |c: &ced_core::SuiteCheckpoint| {
        if saved.is_none() {
            saved = Some(c.clone());
        }
        cancel.cancel();
    };
    control.on_checkpoint = Some(&mut sink);
    let err = run_suite(&machines, &options, &lib, control).unwrap_err();
    let SuiteError::Interrupted(i) = err else {
        panic!("cancelled pooled suite must interrupt");
    };
    assert_eq!(i.interrupted.kind, InterruptKind::Cancelled);
    assert!(
        i.checkpoint.machines_done() >= 1 && i.checkpoint.machines_done() < machines.len(),
        "cancellation must stop the campaign partway ({} done)",
        i.checkpoint.machines_done()
    );
    assert_eq!(i.partial.records.len(), i.checkpoint.machines_done());

    let mut control = SuiteControl::new();
    control.pool = Some(&pool);
    control.resume = Some(saved.expect("checkpoint sink fired"));
    let resumed = run_suite(&machines, &options, &lib, control).expect("resumed run completes");
    assert_eq!(
        resumed.to_json(),
        uninterrupted.to_json(),
        "resumed pooled report must be byte-identical"
    );

    // And the pooled campaign as a whole matches the serial path.
    let serial = run_suite(&machines, &options, &lib, SuiteControl::new()).expect("serial run");
    assert_eq!(
        normalize_jobs(&serial.to_json()),
        normalize_jobs(&resumed.to_json())
    );
}

/// Budget exhaustion mid-suite under the pool degrades and
/// quarantines exactly as the serial path: the pool drains, nothing
/// hangs, and the report matches serial byte-for-byte (modulo the
/// `jobs` token).
#[test]
fn budget_exhaustion_under_the_pool_matches_the_serial_path() {
    let machines: Vec<(String, Fsm)> = vec![
        ("s27".to_string(), scaled("s27")),
        ("tav".to_string(), scaled("tav")),
    ];
    let mut options = SuiteOptions {
        latencies: vec![1],
        machine_ticks: Some(1),
        ..SuiteOptions::default()
    };
    options.pipeline.input_granularity = ced_core::pipeline::InputGranularity::Exhaustive;
    options.pipeline.full_fault_list = true;
    let lib = CellLibrary::new();

    let serial = run_suite(&machines, &options, &lib, SuiteControl::new())
        .expect("budget exhaustion must not abort the serial suite");
    assert_eq!(serial.quarantined(), machines.len());

    let pool = ParExec::new(4);
    let mut control = SuiteControl::new();
    control.pool = Some(&pool);
    let pooled = run_suite(&machines, &options, &lib, control)
        .expect("budget exhaustion must not abort the pooled suite");
    assert_eq!(
        normalize_jobs(&serial.to_json()),
        normalize_jobs(&pooled.to_json())
    );
}

/// A tick-cap interrupt during a pooled tensor build yields a
/// resumable checkpoint whose resumed output is byte-identical to an
/// uninterrupted build.
#[test]
fn pooled_build_interrupt_resumes_byte_identical() {
    use ced_core::pipeline::{fault_list, synthesize_circuit, PipelineOptions};
    use ced_sim::detect::{BuildControl, DetectError, DetectOptions, DetectabilityTable};

    let options = PipelineOptions::paper_defaults();
    let circuit = synthesize_circuit(&scaled("dk512"), &options).expect("synthesizable");
    let faults = fault_list(&circuit, &options);
    let detect = DetectOptions::default();
    let pool = ParExec::new(4);

    let clean = DetectabilityTable::build_many(&circuit, &faults, &detect, &[1]).expect("fits");

    let tight = Budget::new().with_tick_cap(10);
    let err = DetectabilityTable::build_many_controlled(
        &circuit,
        &faults,
        &detect,
        &[1],
        BuildControl {
            pool: Some(&pool),
            ..BuildControl::new(&tight)
        },
    )
    .expect_err("a 10-tick budget cannot finish the build");
    let DetectError::Interrupted {
        interrupted,
        checkpoint,
    } = err
    else {
        panic!("tick exhaustion must surface as a typed interrupt");
    };
    assert_eq!(interrupted.kind, InterruptKind::TickCapExceeded);
    assert!(interrupted.resumable);
    let checkpoint = *checkpoint.expect("pooled build interrupts leave a resumable checkpoint");

    let unlimited = Budget::unlimited();
    let resumed = DetectabilityTable::build_many_controlled(
        &circuit,
        &faults,
        &detect,
        &[1],
        BuildControl {
            pool: Some(&pool),
            resume: Some(checkpoint),
            ..BuildControl::new(&unlimited)
        },
    )
    .expect("resume with an unlimited budget completes");
    assert_eq!(resumed, clean);
}

/// A machine whose worker panics inside the pool is quarantined in
/// place: siblings finish untouched, the merged record order matches
/// the input order, and the report equals the serial path's.
#[test]
fn worker_panic_quarantines_in_place_without_poisoning_siblings() {
    // One-hot state assignment asserts "one-hot limited to 63 states",
    // so a 64-state machine panics inside the worker while the small
    // machines around it encode fine.
    let panicker = generate(&GeneratorConfig {
        name: "too-wide".into(),
        num_inputs: 1,
        num_states: 64,
        num_outputs: 1,
        cubes_per_state: 2,
        self_loop_bias: 0.3,
        output_dc_prob: 0.0,
        output_pool: 2,
        seed: 7,
    });
    let machines: Vec<(String, Fsm)> = vec![
        ("s27".to_string(), scaled("s27")),
        ("too-wide".to_string(), panicker),
        ("tav".to_string(), scaled("tav")),
    ];
    let mut options = SuiteOptions {
        latencies: vec![1],
        ..SuiteOptions::default()
    };
    options.pipeline.encoding = EncodingStrategy::OneHot;
    let lib = CellLibrary::new();

    let serial = run_suite(&machines, &options, &lib, SuiteControl::new())
        .expect("a panicking machine must not abort the serial suite");

    for jobs in [1, 4] {
        let pool = ParExec::new(jobs);
        let mut control = SuiteControl::new();
        control.pool = Some(&pool);
        let report = run_suite(&machines, &options, &lib, control)
            .expect("a panicking worker must not abort the pooled suite");

        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["s27", "too-wide", "tav"], "jobs={jobs}");
        assert_eq!(report.records[0].status, MachineStatus::Completed);
        assert_eq!(report.records[1].status, MachineStatus::Quarantined);
        assert_eq!(report.records[2].status, MachineStatus::Completed);
        assert!(
            report.records[1]
                .notes
                .iter()
                .any(|n| n.contains("panick") || n.contains("one-hot limited to 63 states")),
            "jobs={jobs}: quarantine notes must carry the panic: {:?}",
            report.records[1].notes
        );
        assert_eq!(
            normalize_jobs(&report.to_json()),
            normalize_jobs(&serial.to_json()),
            "jobs={jobs}: pooled report must equal the serial path"
        );
    }
}
