//! Store ≡ no-store differential suite: a content-addressed cache hit
//! must be indistinguishable from a recompute. Every artifact the
//! pipeline renders — `CircuitReport` fields, `ced-suite-report/1`
//! documents, `ced-cert-report/1` documents — is compared across
//! (no store) / (cold store) / (warm store), across `--jobs 1` and
//! `--jobs 4` workers sharing one store, and across a store whose
//! on-disk artifacts were deliberately corrupted. The only acceptable
//! difference is wall-clock; corrupted artifacts must degrade to
//! misses (rebuilt and re-stored), never to wrong answers.

use ced_core::pipeline::{
    run_circuit, run_circuit_controlled, CircuitReport, PipelineControl, PipelineOptions,
};
use ced_core::{run_suite, SuiteControl, SuiteOptions};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_serve::ops::{check_text_with_baseline, OpKind, OpRequest};
use ced_store::{StageCounters, Store};
use std::path::PathBuf;
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

fn counters(store: &Store, stage: &str) -> StageCounters {
    store
        .stats()
        .stages
        .into_iter()
        .find(|(s, _)| s == stage)
        .map(|(_, c)| c)
        .unwrap_or_default()
}

/// Field-by-field equality over everything a `CircuitReport` records —
/// including exact parity masks, f64 costs and solver telemetry, all
/// of which are deterministic and must survive a cache round trip
/// bit-exactly.
fn assert_reports_equal(a: &CircuitReport, b: &CircuitReport, what: &str) {
    assert_eq!(a.name, b.name, "{what}: name");
    assert_eq!(a.inputs, b.inputs, "{what}: inputs");
    assert_eq!(a.state_bits, b.state_bits, "{what}: state bits");
    assert_eq!(a.outputs, b.outputs, "{what}: outputs");
    assert_eq!(a.original_gates, b.original_gates, "{what}: gates");
    assert_eq!(a.original_cost, b.original_cost, "{what}: cost");
    assert_eq!(a.detect_stats, b.detect_stats, "{what}: detect stats");
    assert_eq!(a.duplication.area, b.duplication.area, "{what}: dup area");
    assert_eq!(a.latencies.len(), b.latencies.len(), "{what}: bounds");
    for (x, y) in a.latencies.iter().zip(&b.latencies) {
        let p = x.latency;
        assert_eq!(x.latency, y.latency, "{what}: latency");
        assert_eq!(x.erroneous_cases, y.erroneous_cases, "{what} p={p}: cases");
        assert_eq!(x.cover.masks, y.cover.masks, "{what} p={p}: masks");
        assert_eq!(x.cost, y.cost, "{what} p={p}: cost");
        assert_eq!(x.lp_solves, y.lp_solves, "{what} p={p}: lp solves");
        assert_eq!(
            x.rounding_attempts, y.rounding_attempts,
            "{what} p={p}: rounding"
        );
        assert_eq!(x.method, y.method, "{what} p={p}: method");
        assert_eq!(
            x.degradation.len(),
            y.degradation.len(),
            "{what} p={p}: degradation"
        );
    }
}

fn run_with_store(fsm: &Fsm, store: Option<&Store>) -> CircuitReport {
    let options = PipelineOptions::paper_defaults();
    let budget = Budget::unlimited();
    let mut control = PipelineControl::new(&budget);
    control.store = store;
    run_circuit_controlled(fsm, &LATENCIES, &options, &CellLibrary::new(), control)
        .expect("pipeline completes")
}

/// A scratch directory under the target-adjacent temp root; removed on
/// drop so reruns start clean.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        let dir = std::env::temp_dir().join(format!("ced-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The tentpole claim, per machine: (no store), (cold store) and
/// (warm store) pipelines produce identical reports, and the warm run
/// serves every stage from the store.
#[test]
fn pipeline_reports_identical_plain_cold_warm() {
    let options = PipelineOptions::paper_defaults();
    for name in MACHINES {
        let fsm = scaled(name);
        let plain = run_circuit(&fsm, &LATENCIES, &options, &CellLibrary::new())
            .expect("pipeline completes");

        let store = Store::in_memory();
        let cold = run_with_store(&fsm, Some(&store));
        assert!(
            counters(&store, "synth").puts >= 1,
            "{name}: cold run must store the synthesized circuit"
        );
        assert!(
            counters(&store, "search").puts >= LATENCIES.len() as u64,
            "{name}: cold run must store one search artifact per bound"
        );

        let before = counters(&store, "search");
        let warm = run_with_store(&fsm, Some(&store));
        let after = counters(&store, "search");
        assert_eq!(
            after.hits - before.hits,
            LATENCIES.len() as u64,
            "{name}: warm run must hit every search artifact"
        );
        assert_eq!(
            after.misses, before.misses,
            "{name}: warm run must not miss"
        );

        assert_reports_equal(&plain, &cold, &format!("{name}: plain vs cold"));
        assert_reports_equal(&plain, &warm, &format!("{name}: plain vs warm"));
    }
}

fn total_misses(store: &Store) -> u64 {
    store.stats().stages.iter().map(|(_, c)| c.misses).sum()
}

/// `check` is a one-bound `table`: both memoize Algorithm 1 in the
/// `search` stage under one key, so either serves the other warm.
#[test]
fn check_and_table_share_search_artifacts() {
    let fsm = scaled("dk512");
    let store = Store::in_memory();
    let budget = Budget::unlimited();
    let pool = ParExec::serial();
    let mut request = OpRequest::new(OpKind::Check, "");
    request.latency = 2;
    let check = || {
        check_text_with_baseline(&fsm, None, &request, &budget, &pool, Some(&store))
            .expect("check completes")
            .0
    };
    let cold = check();

    let before = counters(&store, "search");
    let mut control = PipelineControl::new(&budget);
    control.store = Some(&store);
    run_circuit_controlled(
        &fsm,
        &[request.latency],
        &request.options,
        &CellLibrary::new(),
        control,
    )
    .expect("pipeline completes");
    let after = counters(&store, "search");
    assert_eq!(
        (after.hits - before.hits, after.misses - before.misses),
        (1, 0),
        "table after check must hit check's search artifact"
    );

    let misses = total_misses(&store);
    assert_eq!(check(), cold, "warm check must print the cold bytes");
    assert_eq!(
        total_misses(&store),
        misses,
        "check after table must not miss"
    );
}

/// Replaces the `"jobs":N` header token (the only part of a suite
/// report that records the worker count) with a fixed value.
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

/// One store shared by `--jobs 1` and `--jobs 4` suite campaigns:
/// first-writer-wins puts keep the report byte-identical to the
/// storeless serial run at every job count, cold or warm.
#[test]
fn suite_json_identical_across_job_counts_sharing_one_store() {
    let machines: Vec<(String, Fsm)> = MACHINES
        .iter()
        .map(|&name| (name.to_string(), scaled(name)))
        .collect();
    let options = SuiteOptions {
        latencies: LATENCIES.to_vec(),
        ..SuiteOptions::default()
    };
    let lib = CellLibrary::new();

    let run = |pool: Option<&ParExec>, store: Option<Arc<Store>>| {
        let mut control = SuiteControl::new();
        control.pool = pool;
        control.store = store;
        normalize_jobs(
            &run_suite(&machines, &options, &lib, control)
                .expect("suite completes")
                .to_json(),
        )
    };

    let plain = run(None, None);
    let store = Arc::new(Store::in_memory());
    let cold_four = run(Some(&ParExec::new(4)), Some(Arc::clone(&store)));
    assert!(
        counters(&store, "search").puts > 0,
        "cold pooled suite must populate the store"
    );
    let warm_one = run(Some(&ParExec::new(1)), Some(Arc::clone(&store)));
    let warm_four = run(Some(&ParExec::new(4)), Some(Arc::clone(&store)));
    assert!(
        counters(&store, "search").hits > 0,
        "warm suite runs must hit the store"
    );

    assert_eq!(plain, cold_four, "plain vs cold --jobs 4");
    assert_eq!(plain, warm_one, "plain vs warm --jobs 1");
    assert_eq!(plain, warm_four, "plain vs warm --jobs 4");
}

/// Re-certification after a stored pipeline run: the verifier chain
/// re-proves every claim, the store only feeds it the `synth` and
/// `tensor` artifacts — and the `ced-cert-report/1` bytes match the
/// storeless certification exactly.
#[test]
fn cert_report_identical_with_and_without_store() {
    let options = PipelineOptions::paper_defaults();
    let lib = CellLibrary::new();
    for name in MACHINES {
        let fsm = scaled(name);
        let store = Store::in_memory();
        let report = run_with_store(&fsm, Some(&store));

        let plain = ced_cert::certify_report(
            &fsm,
            &report,
            &options,
            &ced_cert::CertifyOptions::default(),
            &Budget::unlimited(),
        )
        .expect("certification ran");
        let plain = ced_cert::report::cert_report_json(&[plain]).render();

        let tensor_before = counters(&store, "tensor");
        let stored = ced_cert::certify_report_stored(
            &fsm,
            &report,
            &options,
            &ced_cert::CertifyOptions::default(),
            &Budget::unlimited(),
            &ParExec::new(2),
            Some(&store),
        )
        .expect("certification ran");
        let stored = ced_cert::report::cert_report_json(&[stored]).render();
        let tensor_after = counters(&store, "tensor");

        assert_eq!(plain, stored, "{name}: cert bytes with vs without store");
        assert!(
            tensor_after.hits > tensor_before.hits,
            "{name}: stored certification must reuse the run's tensors"
        );
        let report_check = run_circuit(&fsm, &LATENCIES, &options, &lib).expect("pipeline");
        assert_reports_equal(&report, &report_check, &format!("{name}: stored pipeline"));
    }
}

/// Corruption on disk is a miss, never a wrong answer: bit-flip and
/// truncate every artifact of a persisted store, rerun warm, and the
/// report must still match the storeless run exactly while the store
/// records the corruption and rebuilds every artifact.
#[test]
fn corrupted_on_disk_artifacts_are_rebuilt_not_believed() {
    let scratch = ScratchDir::new("corrupt");
    let fsm = scaled("tav");
    let options = PipelineOptions::paper_defaults();
    let plain =
        run_circuit(&fsm, &LATENCIES, &options, &CellLibrary::new()).expect("pipeline completes");

    {
        let store = Store::open(&scratch.0).expect("store opens");
        let cold = run_with_store(&fsm, Some(&store));
        assert_reports_equal(&plain, &cold, "tav: plain vs cold on-disk");
        store.persist().expect("index persists");
    }

    let mut mangled = 0usize;
    for entry in std::fs::read_dir(&scratch.0).expect("store dir readable") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("art") {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("artifact readable");
        if mangled.is_multiple_of(2) {
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x41;
        } else {
            bytes.truncate(bytes.len() / 2);
        }
        std::fs::write(&path, bytes).expect("artifact writable");
        mangled += 1;
    }
    assert!(mangled >= 3, "expected synth+tensor+search artifacts");

    let store = Store::open(&scratch.0).expect("store reopens");
    let warm = run_with_store(&fsm, Some(&store));
    assert_reports_equal(&plain, &warm, "tav: plain vs corrupted-store rerun");

    let stats = store.stats();
    let corrupt: u64 = stats.stages.iter().map(|(_, c)| c.corrupt).sum();
    let puts: u64 = stats.stages.iter().map(|(_, c)| c.puts).sum();
    assert!(corrupt > 0, "corrupted artifacts must be detected");
    assert!(
        puts > 0,
        "corrupted artifacts must be rebuilt and re-stored"
    );

    // The rebuilt store now serves clean hits again.
    let again = run_with_store(&fsm, Some(&store));
    assert_reports_equal(&plain, &again, "tav: plain vs rebuilt-store rerun");
}
