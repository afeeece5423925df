//! The campaign acceptance check: on suite machines, a cover
//! verified under hardware semantics must yield a campaign in which
//! every injected detectable stuck-at fault is caught by the
//! *synthesized checker netlist* within the latency bound, with zero
//! disagreements against the detectability tensor `V(i,j,k)`.

use ced_core::pipeline::{
    detect_options, fault_list, prepare_machine, synthesize_circuit, InputGranularity,
    PipelineOptions,
};
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_core::synthesize_ced;
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::suite;
use ced_inject::{run_campaign, CampaignOptions, CheckerFaultClass};
use ced_par::ParExec;
use ced_runtime::{Budget, CancelToken, InterruptKind};
use ced_serve::ops::{self, OpError, OpKind, OpRequest};
use ced_sim::detect::{BuildControl, DetectOptions, DetectabilityTable, InputModel, Semantics};

fn campaign_on(fsm: &ced_fsm::Fsm, latencies: &[usize]) {
    let options = PipelineOptions::paper_defaults();
    let circuit = synthesize_circuit(fsm, &options).expect("synthesizes");
    let faults = fault_list(&circuit, &options);
    for &p in latencies {
        let (table, _) = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency: p,
                semantics: Semantics::FaultyTrajectory,
                input_model: InputModel::Exhaustive,
                ..DetectOptions::default()
            },
        )
        .expect("table fits");
        let outcome = minimize_parity_functions(&table, &CedOptions::default());
        assert!(table.all_covered(&outcome.cover.masks));
        let ced = synthesize_ced(&circuit, &outcome.cover, p, &options.minimize);
        let report =
            run_campaign(&circuit, &ced, &faults, &CampaignOptions::default()).expect("runs");

        // Zero disagreements vs V(i,j,k)…
        assert!(
            report.is_clean(),
            "{} p={p}: {}",
            fsm.name(),
            report.render()
        );
        // …and 100% of the detectable (covered, activated) faults
        // caught within the bound.
        assert_eq!(
            report.machine.detected_within_bound,
            report.machine.detectable,
            "{} p={p}: {}",
            fsm.name(),
            report.render()
        );
        assert!(report.machine.detectable > 0, "campaign saw no activity");
        assert_eq!(report.detection_rate(), 1.0);
        // A cover verified against the full table leaves nothing
        // uncovered, so no escapes are "expected".
        assert_eq!(report.machine.expected_escapes, 0);
        // Every observed latency respects the bound.
        for (l, &count) in report.machine.latency_histogram.iter().enumerate() {
            if count > 0 {
                assert!((1..=p).contains(&l));
            }
        }

        // The checker self-audit ran and classified every fault.
        let checker = report.checker.as_ref().expect("audit requested");
        assert_eq!(
            checker.injected,
            checker.false_alarms + checker.self_masking + checker.benign
        );
        // The ERROR output stuck-at-0 is the canonical dormant fault;
        // the audit must catch it.
        let error_net = ced.netlist().outputs()[0];
        assert!(
            checker.classes.iter().any(|(f, cl)| f.net == error_net
                && !f.stuck_at
                && *cl == CheckerFaultClass::SelfMasking),
            "{} p={p}: ERROR/sa0 not classified as self-masking",
            fsm.name()
        );
    }
}

#[test]
fn campaign_clean_on_sequence_detector() {
    campaign_on(&suite::sequence_detector(), &[1, 2]);
}

#[test]
fn campaign_clean_on_serial_adder() {
    campaign_on(&suite::serial_adder(), &[1, 2]);
}

#[test]
fn campaign_clean_on_traffic_light() {
    campaign_on(&suite::traffic_light(), &[1, 2]);
}

#[test]
fn degraded_greedy_cover_still_passes_the_campaign() {
    // The two tentpole halves meet: force the solver ladder down to the
    // greedy rung (rounding disabled), then demand the resulting
    // checker still survives the full cross-validating campaign.
    let fsm = suite::sequence_detector();
    let options = PipelineOptions::paper_defaults();
    let circuit = synthesize_circuit(&fsm, &options).expect("synthesizes");
    let faults = fault_list(&circuit, &options);
    let (table, _) = DetectabilityTable::build(
        &circuit,
        &faults,
        &DetectOptions {
            latency: 1,
            semantics: Semantics::FaultyTrajectory,
            input_model: InputModel::Exhaustive,
            ..DetectOptions::default()
        },
    )
    .expect("table fits");
    let outcome = minimize_parity_functions(
        &table,
        &CedOptions {
            iterations: 0,
            ..CedOptions::default()
        },
    );
    assert!(
        !outcome.degradation.is_empty(),
        "rounding was disabled; the ladder must have degraded"
    );
    let ced = synthesize_ced(&circuit, &outcome.cover, 1, &options.minimize);
    let report = run_campaign(&circuit, &ced, &faults, &CampaignOptions::default()).expect("runs");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(
        report.machine.detected_within_bound,
        report.machine.detectable
    );
}

#[test]
fn inject_search_stops_on_a_cancel_after_the_tensor() {
    // `ops::inject` searches under the request budget: a cancel fired
    // by the first work unit past the tensor build stops the search
    // itself, before the campaign injects a single fault.
    let fsm = suite::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == "dk512")
        .expect("dk512 analogue")
        .build();
    let mut request = OpRequest::new(OpKind::Inject, "");
    request.latency = 2;
    let judge = PipelineOptions {
        semantics: Semantics::FaultyTrajectory,
        input_granularity: InputGranularity::Exhaustive,
        ..request.options.clone()
    };
    let (encoded, circuit) = prepare_machine(&fsm, &judge).expect("prepares");
    let tensor = Budget::new();
    DetectabilityTable::build_many_controlled(
        &circuit,
        &fault_list(&circuit, &judge),
        &detect_options(&encoded, &judge, request.latency),
        &[request.latency],
        BuildControl::new(&tensor),
    )
    .expect("table fits");
    let tensor_ticks = tensor.ticks();

    let token = CancelToken::new();
    let trip = token.clone();
    let budget = Budget::new()
        .with_cancel(token)
        .with_observer(1, move |ticks, _| {
            if ticks > tensor_ticks {
                trip.cancel();
            }
        });
    let err = ops::inject(&fsm, &request, &budget, &ParExec::serial(), None)
        .expect_err("a cancel before the campaign must stop inject");
    let OpError::Interrupted(i) = err else {
        panic!("a cancel must surface as a typed interrupt, got {err}");
    };
    assert_eq!(i.kind, InterruptKind::Cancelled);
    let stage = &i.progress.stage;
    assert!(
        ["search:", "simplex:", "rounding:"]
            .iter()
            .any(|prefix| stage.starts_with(prefix)),
        "the search must observe the cancel, not stage `{stage}`"
    );
    assert!(!i.resumable, "nothing resumes an ops-level interrupt");
}

#[test]
fn gen3x_inject_op_ticks_and_counts_are_pinned() {
    // One `ced inject --latency 2` op on `ced gen --scale 3 --seed 3`
    // at pool width 2: the budget's tick accounting and every outcome
    // and checker-class count are pinned, so a faster campaign must
    // charge the same ticks and judge every fault the same way.
    let fsm = generate(&scaled_workload(3, 3));
    let mut request = OpRequest::new(OpKind::Inject, "");
    request.latency = 2;
    let budget = Budget::new();
    let injection =
        ops::inject(&fsm, &request, &budget, &ParExec::new(2), None).expect("campaign runs");
    let m = &injection.report.machine;
    let outcomes = [
        m.injected,
        m.detectable,
        m.detected_within_bound,
        m.windfall_detections,
        m.expected_escapes,
        m.quiet,
        m.disagreements.len(),
    ];
    let checker = injection.report.checker.as_ref().expect("audit requested");
    let classes = [
        checker.injected,
        checker.false_alarms,
        checker.self_masking,
        checker.benign,
    ];
    assert_eq!(budget.ticks(), 22_001);
    assert_eq!(outcomes, [700, 696, 696, 0, 0, 4, 0]);
    assert_eq!(m.latency_histogram, [0, 696, 0]);
    assert_eq!(classes, [638, 627, 5, 6]);
}

#[test]
fn a_64_bit_response_injects_and_certifies() {
    // 63 outputs and one state bit fill the 64-bit response word
    // exactly (`MAX_RESPONSE_BITS`), the widest machine the analyses
    // accept: inject and certify must run without a shift overflow,
    // and the checker co-simulation must corrupt more than the zero
    // pattern.
    let rows = [
        ("0", "a", "a", "10".repeat(31) + "1"),
        ("1", "a", "b", "01".repeat(31) + "0"),
        ("0", "b", "b", "1".repeat(63)),
        ("1", "b", "a", "0".repeat(62) + "1"),
    ];
    let mut kiss2 = String::from(".i 1\n.o 63\n.s 2\n.r a\n");
    for (input, from, to, out) in rows {
        kiss2.push_str(&format!("{input} {from} {to} {out}\n"));
    }
    kiss2.push_str(".e\n");
    let fsm = ced_fsm::kiss::parse(&kiss2).expect("parses");

    let mut request = OpRequest::new(OpKind::Inject, &kiss2);
    request.latency = 1;
    let injection = ops::inject(&fsm, &request, &Budget::new(), &ParExec::new(2), None)
        .expect("a 64-bit response injects");
    assert!(injection.report.is_clean(), "{}", injection.report.render());
    assert!(injection.report.machine.injected > 0);

    let mut request = OpRequest::new(OpKind::Certify, &kiss2);
    request.latencies = vec![1];
    let cert = ops::certify(&fsm, &request, &Budget::new(), &ParExec::new(2), None)
        .expect("a 64-bit response certifies");
    assert_eq!(cert.verdict(), ced_cert::Verdict::Certified);
    let cosim = cert
        .latencies
        .iter()
        .flat_map(|l| l.stages.iter())
        .find_map(|s| match s {
            ced_cert::StageOutcome::Certified(c) if c.stage == ced_cert::Stage::Checker => Some(c),
            _ => None,
        })
        .expect("the checker co-simulation certifies");
    // 4 transitions × 2⁶⁴ corruptions do not fit the pattern budget,
    // so the co-simulation samples, past the 4 zero-corruption probes.
    assert!(
        cosim.detail.starts_with("sampled co-simulation"),
        "{}",
        cosim.detail
    );
    assert!(cosim.checked > 4, "{}", cosim.detail);
}
