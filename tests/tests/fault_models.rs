//! Fault-model differential suite. The tentpole claim: the explicit
//! `permanent` model is byte-identical to omitting the flag in every
//! rendered artifact — `ced-suite-report/1` documents, the appended
//! `ced-cert-report/1` documents, checkpoints and store keys — at
//! every job count, cold or warm. Non-permanent models must run the
//! same campaigns end-to-end, stamp their label into the report
//! header, and never collide with permanent artifacts in a shared
//! store.

use ced_core::pipeline::{run_circuit_controlled, PipelineControl, PipelineOptions};
use ced_core::{run_suite, suite_fingerprint, SuiteControl, SuiteOptions};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_sim::fault::FaultModel;
use ced_store::Store;
use std::sync::Arc;

const MACHINES: [&str; 3] = ["s27", "tav", "dk512"];
const LATENCIES: [usize; 2] = [1, 2];

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
}

fn corpus() -> Vec<(String, Fsm)> {
    MACHINES
        .iter()
        .map(|&name| (name.to_string(), scaled(name)))
        .collect()
}

fn suite_options(model: Option<FaultModel>) -> SuiteOptions {
    let mut options = SuiteOptions {
        latencies: LATENCIES.to_vec(),
        ..SuiteOptions::default()
    };
    if let Some(model) = model {
        options.pipeline.fault_model = model;
    }
    options
}

/// Replaces the `"jobs":N` header token with a fixed value, as the
/// CI smoke diff does.
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

fn run_suite_json(
    options: &SuiteOptions,
    pool: Option<&ParExec>,
    store: Option<Arc<Store>>,
) -> String {
    let mut control = SuiteControl::new();
    control.pool = pool;
    control.store = store;
    normalize_jobs(
        &run_suite(&corpus(), options, &CellLibrary::new(), control)
            .expect("suite completes")
            .to_json(),
    )
}

/// The tentpole differential: `--fault-model permanent` and the
/// omitted flag render byte-identical `ced-suite-report/1` documents
/// on s27/tav/dk512 — serially, under `--jobs 4`, and from a warm
/// store populated by the flag-omitted run.
#[test]
fn explicit_permanent_suite_report_is_byte_identical_to_omitted() {
    let omitted = suite_options(None);
    let explicit = suite_options(Some(FaultModel::PermanentStuckAt));

    let baseline = run_suite_json(&omitted, None, None);
    assert_eq!(
        baseline,
        run_suite_json(&explicit, None, None),
        "serial: explicit permanent vs omitted"
    );

    let pool = ParExec::new(4);
    assert_eq!(
        baseline,
        run_suite_json(&explicit, Some(&pool), None),
        "--jobs 4: explicit permanent vs omitted serial"
    );

    // Warm store handoff in both directions: artifacts stored by the
    // flag-omitted run must be served to the explicit-permanent run
    // (same keys), and the report must not change.
    let store = Arc::new(Store::in_memory());
    let cold = run_suite_json(&omitted, None, Some(Arc::clone(&store)));
    assert_eq!(baseline, cold, "cold store run changed the report");
    let hits_before: u64 = store.stats().stages.iter().map(|(_, c)| c.hits).sum();
    let warm = run_suite_json(&explicit, Some(&pool), Some(Arc::clone(&store)));
    let hits_after: u64 = store.stats().stages.iter().map(|(_, c)| c.hits).sum();
    assert_eq!(baseline, warm, "warm store run changed the report");
    assert!(
        hits_after > hits_before,
        "explicit permanent must hit the artifacts the omitted run stored"
    );
}

/// Same differential for the certification layer: the
/// `ced-cert-report/1` bytes must not depend on whether the permanent
/// model was spelled out.
#[test]
fn explicit_permanent_cert_report_is_byte_identical_to_omitted() {
    let lib = CellLibrary::new();
    for name in MACHINES {
        let fsm = scaled(name);
        let mut renders = Vec::new();
        for explicit in [false, true] {
            let mut options = PipelineOptions::paper_defaults();
            if explicit {
                options.fault_model = FaultModel::PermanentStuckAt;
            }
            let budget = Budget::unlimited();
            let report = run_circuit_controlled(
                &fsm,
                &LATENCIES,
                &options,
                &lib,
                PipelineControl::new(&budget),
            )
            .expect("pipeline completes");
            let cert = ced_cert::certify_report(
                &fsm,
                &report,
                &options,
                &ced_cert::CertifyOptions::default(),
                &budget,
            )
            .expect("certification ran");
            assert_eq!(cert.verdict(), ced_cert::Verdict::Certified, "{name}");
            renders.push(ced_cert::report::cert_report_json(&[cert]).render());
        }
        assert_eq!(renders[0], renders[1], "{name}: cert bytes differ");
    }
}

/// A transient-SEU campaign runs end-to-end on the same corpus: every
/// machine completes (no quarantines), the report header carries the
/// model label, and certification re-proves every claim under the
/// same fault automaton.
#[test]
fn transient_suite_runs_end_to_end_and_certifies() {
    let options = suite_options(Some(FaultModel::TransientSeu { duration: 4 }));
    let report = run_suite(
        &corpus(),
        &options,
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .expect("suite completes");
    assert_eq!(report.quarantined(), 0, "transient suite quarantined");
    assert_eq!(report.completed(), MACHINES.len());
    let json = report.to_json();
    assert!(
        json.contains("\"fault_model\":\"transient:4\""),
        "report must stamp the model label: {json}"
    );

    // The permanent report must NOT carry the field at all.
    let permanent = run_suite(
        &corpus(),
        &suite_options(None),
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .expect("suite completes")
    .to_json();
    assert!(
        !permanent.contains("fault_model"),
        "permanent reports must stay schema-identical to the seed"
    );

    // Certification under the same model agrees with the pipeline.
    for name in ["s27", "tav"] {
        let fsm = scaled(name);
        let budget = Budget::unlimited();
        let cert = ced_cert::certify_report(
            &fsm,
            &run_circuit_controlled(
                &fsm,
                &LATENCIES,
                &options.pipeline,
                &CellLibrary::new(),
                PipelineControl::new(&budget),
            )
            .expect("pipeline completes"),
            &options.pipeline,
            &ced_cert::CertifyOptions::default(),
            &budget,
        )
        .expect("certification ran");
        assert_eq!(
            cert.verdict(),
            ced_cert::Verdict::Certified,
            "{name} under transient:4"
        );
    }
}

/// Intermittent and multi-bit campaigns run end-to-end too: no
/// quarantines, the model label in the report header, and the same
/// report bytes from the serial machine loop and from four workers.
#[test]
fn intermittent_and_multibit_suites_are_identical_across_job_counts() {
    let pool = ParExec::new(4);
    for model in [
        FaultModel::Intermittent { period: 3 },
        FaultModel::MultiBitCluster { radius: 1 },
    ] {
        let options = suite_options(Some(model));
        let serial = run_suite_json(&options, None, None);
        assert!(
            serial.contains(&format!("\"fault_model\":\"{model}\"")),
            "report must stamp the model label: {serial}"
        );
        assert!(serial.contains("\"quarantined\":0"), "{model}: {serial}");
        assert_eq!(
            serial,
            run_suite_json(&options, Some(&pool), None),
            "{model}: serial vs --jobs 4"
        );
    }
}

/// Store-key hygiene: permanent and non-permanent campaigns sharing
/// one store must never serve each other's artifacts. The proof is
/// differential — each model's stored rerun must equal its own
/// storeless run even after the store was seeded by the other model.
#[test]
fn shared_store_keeps_fault_models_apart() {
    let permanent = suite_options(None);
    let transient = suite_options(Some(FaultModel::TransientSeu { duration: 2 }));

    let permanent_plain = run_suite_json(&permanent, None, None);
    let transient_plain = run_suite_json(&transient, None, None);
    assert_ne!(
        permanent_plain, transient_plain,
        "a 2-step SEU must change some answer on this corpus"
    );

    let store = Arc::new(Store::in_memory());
    let permanent_cold = run_suite_json(&permanent, None, Some(Arc::clone(&store)));
    let transient_warmish = run_suite_json(&transient, None, Some(Arc::clone(&store)));
    let permanent_warm = run_suite_json(&permanent, None, Some(Arc::clone(&store)));
    let transient_warm = run_suite_json(&transient, None, Some(Arc::clone(&store)));

    assert_eq!(permanent_plain, permanent_cold, "permanent cold via store");
    assert_eq!(
        transient_plain, transient_warmish,
        "transient run poisoned by permanent artifacts"
    );
    assert_eq!(
        permanent_plain, permanent_warm,
        "permanent rerun poisoned by transient artifacts"
    );
    assert_eq!(transient_plain, transient_warm, "transient warm rerun");
}

/// The campaign fingerprint that checkpoints and fleet manifests bind
/// to must separate fault models — and must NOT move when the default
/// model is merely spelled out.
#[test]
fn suite_fingerprint_separates_models_but_not_the_spelled_out_default() {
    let machines = corpus();
    let omitted = suite_fingerprint(&machines, &suite_options(None));
    let explicit = suite_fingerprint(
        &machines,
        &suite_options(Some(FaultModel::PermanentStuckAt)),
    );
    assert_eq!(
        omitted, explicit,
        "spelling out the default must not invalidate old checkpoints"
    );
    let mut seen = vec![omitted];
    for model in [
        FaultModel::TransientSeu { duration: 2 },
        FaultModel::TransientSeu { duration: 3 },
        FaultModel::Intermittent { period: 2 },
        FaultModel::MultiBitCluster { radius: 1 },
    ] {
        let fp = suite_fingerprint(&machines, &suite_options(Some(model)));
        assert!(
            !seen.contains(&fp),
            "{model} collides with an earlier model's fingerprint"
        );
        seen.push(fp);
    }
}
