//! The campaign acceptance check: on suite machines, a cover
//! verified under hardware semantics must yield a campaign in which
//! every injected detectable stuck-at fault is caught by the
//! *synthesized checker netlist* within the latency bound, with zero
//! disagreements against the detectability tensor `V(i,j,k)`.

use ced_core::pipeline::{fault_list, synthesize_circuit, PipelineOptions};
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_core::synthesize_ced;
use ced_fsm::suite;
use ced_inject::{run_campaign, CampaignOptions, CheckerFaultClass};
use ced_sim::detect::{DetectOptions, DetectabilityTable, InputModel, Semantics};

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
