//! End-to-end certification tests: clean pipelines certify, planted
//! defects are refuted with replayable witnesses.

use ced_cert::{certify_report, CertifyOptions, Stage, StageOutcome, Verdict, Witness};
use ced_core::pipeline::{run_circuit, PipelineOptions};
use ced_fsm::suite;
use ced_logic::gate::CellLibrary;
use ced_runtime::Budget;
use ced_sim::tables::TransitionTables;

fn certify_clean(fsm: ced_fsm::machine::Fsm) {
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let report = run_circuit(&fsm, &[1, 2], &options, &lib).expect("pipeline");
    let cert = certify_report(
        &fsm,
        &report,
        &options,
        &CertifyOptions::default(),
        &Budget::unlimited(),
    )
    .expect("certification ran");
    assert_eq!(
        cert.verdict(),
        Verdict::Certified,
        "{}: {}",
        fsm.name(),
        ced_cert::report::render_text(&cert)
    );
    assert_eq!(cert.latencies.len(), 2);
    for l in &cert.latencies {
        assert_eq!(l.stages.len(), 4);
        assert!(l.stages.iter().all(StageOutcome::is_certified));
    }
}

#[test]
fn clean_pipeline_results_certify_end_to_end() {
    certify_clean(suite::sequence_detector());
}

/// The worked example at p = 2 is a live catch, not a clean pass: the
/// LP + rounding path ships 3 masks where plain greedy needs only 2, so
/// the differential stage must refute with a `CoverRegression` witness
/// naming both counts. (The cover itself is sound — every other stage
/// certifies.)
#[test]
fn worked_example_differential_catches_cover_regression() {
    let fsm = suite::worked_example();
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let report = run_circuit(&fsm, &[1, 2], &options, &lib).expect("pipeline");
    let cert = certify_report(
        &fsm,
        &report,
        &options,
        &CertifyOptions::default(),
        &Budget::unlimited(),
    )
    .expect("certification ran");

    let p2 = cert
        .latencies
        .iter()
        .find(|l| l.latency == 2)
        .expect("p=2 result");
    let differential = p2
        .stages
        .iter()
        .find(|s| s.stage() == Stage::Differential)
        .expect("differential stage present");
    let StageOutcome::Refuted(refutation) = differential else {
        panic!("expected a cover regression at p=2, got {differential:?}");
    };
    let Witness::CoverRegression {
        claimed_q,
        independent_q,
    } = refutation.witness
    else {
        panic!("wrong witness kind: {:?}", refutation.witness);
    };
    assert!(
        independent_q < claimed_q,
        "witness must show a strictly smaller independent cover \
         (claimed {claimed_q}, independent {independent_q})"
    );
    // Every stage that checks *validity* (rather than optimality) of the
    // shipped cover still certifies: the cover works, it is just not
    // minimal.
    for stage in &p2.stages {
        if stage.stage() != Stage::Differential {
            assert!(stage.is_certified(), "{stage:?}");
        }
    }
}

#[test]
fn clean_suite_machine_certifies() {
    let spec = suite::by_name("tav").expect("suite machine");
    certify_clean(spec.build());
}

/// Corrupt one bit of a known-good solution and demand a refutation
/// whose witness replays: the soundness verifier must name a fault and
/// an input path along which every (corrupted) mask stays silent.
#[test]
fn planted_defect_is_refuted_with_replayable_witness() {
    let fsm = suite::sequence_detector();
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let mut report = run_circuit(&fsm, &[1], &options, &lib).expect("pipeline");

    // Plant the defect: flip the lowest tap bit of the first mask.
    let mask = report.latencies[0].cover.masks[0];
    let corrupted = mask ^ (1 << mask.trailing_zeros());
    report.latencies[0].cover.masks[0] = corrupted;

    let cert = certify_report(
        &fsm,
        &report,
        &options,
        &CertifyOptions::default(),
        &Budget::unlimited(),
    )
    .expect("certification ran");
    assert_eq!(cert.verdict(), Verdict::Refuted);

    // The independent soundness verifier specifically must catch it…
    let soundness = cert.latencies[0]
        .stages
        .iter()
        .find(|s| s.stage() == Stage::Soundness)
        .expect("soundness stage present");
    let StageOutcome::Refuted(refutation) = soundness else {
        panic!("soundness should refute the planted defect: {soundness:?}");
    };

    // …and its witness must replay on the transition tables: the claimed
    // step differences must match a re-simulation, the first one must be
    // a real activation, and every step must be silent for the corrupted
    // cover.
    let Witness::UndetectedPath { fault, steps } = &refutation.witness else {
        panic!("wrong witness kind: {:?}", refutation.witness);
    };
    assert!(!steps.is_empty());
    let (_, circuit) = ced_core::pipeline::prepare_machine(&fsm, &options).expect("prepare");
    let good = TransitionTables::good(&circuit);
    let bad = TransitionTables::faulty(&circuit, &[*fault]);
    let masks = &report.latencies[0].cover.masks;
    for (i, step) in steps.iter().enumerate() {
        let d = good.response(step.good_state, step.input)
            ^ bad.response(step.faulty_state, step.input);
        assert_eq!(d, step.difference, "step {i} difference does not replay");
        assert!(
            masks.iter().all(|&m| (d & m).count_ones() & 1 == 0),
            "step {i} is not silent for the corrupted cover"
        );
    }
    assert_ne!(steps[0].difference, 0, "activation step must be nonzero");
    assert_eq!(
        steps[0].good_state, steps[0].faulty_state,
        "activation starts from a synchronized state"
    );
}

/// Dropping a whole mask (q → q−1) must also refute, and the
/// differential stage must notice the rebuilt table is uncovered.
#[test]
fn dropped_mask_is_refuted() {
    let fsm = suite::worked_example();
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let mut report = run_circuit(&fsm, &[2], &options, &lib).expect("pipeline");
    let cover = &mut report.latencies[0].cover;
    if cover.masks.len() == 1 {
        // A 1-mask cover cannot drop a mask; corrupt it instead.
        cover.masks[0] ^= 1 << cover.masks[0].trailing_zeros();
    } else {
        cover.masks.pop();
    }

    let cert = certify_report(
        &fsm,
        &report,
        &options,
        &CertifyOptions::default(),
        &Budget::unlimited(),
    )
    .expect("certification ran");
    assert_eq!(cert.verdict(), Verdict::Refuted);
    assert!(!cert.refutations().is_empty());
}

/// A deadline of zero interrupts certification instead of hanging or
/// fabricating an answer.
#[test]
fn exhausted_budget_interrupts_cleanly() {
    let fsm = suite::sequence_detector();
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let report = run_circuit(&fsm, &[1], &options, &lib).expect("pipeline");
    let budget = Budget::new().with_tick_cap(1);
    let err = certify_report(&fsm, &report, &options, &CertifyOptions::default(), &budget);
    assert!(
        matches!(err, Err(ced_cert::CertError::Interrupted(_))),
        "{err:?}"
    );
}

/// The cert report JSON is schema-prefixed and deterministic.
#[test]
fn cert_report_json_is_deterministic() {
    let fsm = suite::sequence_detector();
    let lib = CellLibrary::new();
    let options = PipelineOptions::paper_defaults();
    let report = run_circuit(&fsm, &[1], &options, &lib).expect("pipeline");
    let run = || {
        let cert = certify_report(
            &fsm,
            &report,
            &options,
            &CertifyOptions::default(),
            &Budget::unlimited(),
        )
        .expect("certification ran");
        ced_cert::report::cert_report_json(&[cert]).render()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    assert!(a.starts_with("{\"schema\":\"ced-cert-report/1\""), "{a}");
    assert!(a.contains("\"verdict\":\"certified\""));
}
