//! Parallel ≡ serial differential suite: every artifact the pipeline
//! emits — detectability tensors, `ced-suite-report/1` documents,
//! `ced-cert-report/1` documents — must be byte-identical whether it
//! was produced by the strictly serial code path (`pool: None`), a
//! one-worker pool (`--jobs 1`) or a four-worker pool (`--jobs 4`).
//! The `jobs` header field of the suite report is the one token that
//! legitimately varies; comparisons normalize exactly that token and
//! nothing else.

use ced_core::pipeline::{fault_list, run_circuit, synthesize_circuit, PipelineOptions};
use ced_core::{run_suite, SuiteControl, SuiteOptions};
use ced_fsm::machine::Fsm;
use ced_fsm::suite as bench;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_sim::detect::{BuildControl, DetectOptions, DetectabilityTable};

const MACHINES: [&str; 3] = ["s27", "tav", "dk512"];
const LATENCIES: [usize; 2] = [1, 2];

fn scaled(name: &str) -> Fsm {
    bench::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no scaled analogue named {name}"))
        .build()
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

#[test]
fn jobs_token_is_the_only_thing_normalized() {
    assert_eq!(
        normalize_jobs("{\"schema\":\"x\",\"jobs\":42,\"certified\":false}"),
        "{\"schema\":\"x\",\"jobs\":0,\"certified\":false}"
    );
    assert_eq!(normalize_jobs("{\"no\":1}"), "{\"no\":1}");
}

/// Tensor construction: serial path, one worker and four workers all
/// produce bit-identical tables and stats for every machine at every
/// latency bound.
#[test]
fn tensor_bytes_identical_across_job_counts() {
    let options = PipelineOptions::paper_defaults();
    for name in MACHINES {
        let fsm = scaled(name);
        let circuit = synthesize_circuit(&fsm, &options).expect("synthesizable");
        let faults = fault_list(&circuit, &options);
        for p in LATENCIES {
            let build = |pool: Option<&ParExec>| {
                let budget = Budget::unlimited();
                let results = DetectabilityTable::build_many_controlled(
                    &circuit,
                    &faults,
                    &DetectOptions {
                        latency: p,
                        ..DetectOptions::default()
                    },
                    &[p],
                    BuildControl {
                        pool,
                        ..BuildControl::new(&budget)
                    },
                )
                .expect("within row cap");
                results
                    .iter()
                    .flat_map(|(t, s)| {
                        let mut b = t.to_bytes();
                        b.extend_from_slice(format!("{s:?}").as_bytes());
                        b
                    })
                    .collect::<Vec<u8>>()
            };
            let serial = build(None);
            let one = build(Some(&ParExec::new(1)));
            let four = build(Some(&ParExec::new(4)));
            assert_eq!(serial, one, "{name} p={p}: serial vs --jobs 1");
            assert_eq!(serial, four, "{name} p={p}: serial vs --jobs 4");
        }
    }
}

/// The full suite campaign renders the same `ced-suite-report/1`
/// document from the serial machine loop and from pools of one and
/// four workers (modulo the `jobs` header token).
#[test]
fn suite_report_identical_across_job_counts() {
    let machines: Vec<(String, Fsm)> = MACHINES
        .iter()
        .map(|&name| (name.to_string(), scaled(name)))
        .collect();
    let options = SuiteOptions {
        latencies: LATENCIES.to_vec(),
        ..SuiteOptions::default()
    };
    let lib = CellLibrary::new();

    let run = |pool: Option<&ParExec>| {
        let mut control = SuiteControl::new();
        control.pool = pool;
        normalize_jobs(
            &run_suite(&machines, &options, &lib, control)
                .expect("suite completes")
                .to_json(),
        )
    };
    let serial = run(None);
    let one = run(Some(&ParExec::new(1)));
    let four = run(Some(&ParExec::new(4)));
    assert!(serial.contains("\"schema\":\"ced-suite-report/1\""));
    // LP solves per (machine, bound) in report order, s27/tav/dk512 at
    // p = 1, 2: the count of relaxations posed, so a solver or search
    // change that skips or adds work shows here as drift.
    let lp_solves: Vec<usize> = serial
        .split("\"lp_solves\":")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().expect("lp_solves is a count")
        })
        .collect();
    assert_eq!(lp_solves, [4, 4, 2, 1, 3, 2]);
    assert_eq!(serial, one, "serial vs --jobs 1");
    assert_eq!(serial, four, "serial vs --jobs 4");
}

/// Certification re-proves the same claims to the same
/// `ced-cert-report/1` bytes no matter how many workers verify them —
/// the cert report carries no job count at all.
#[test]
fn cert_report_identical_across_job_counts() {
    let options = PipelineOptions::paper_defaults();
    let lib = CellLibrary::new();
    for name in MACHINES {
        let fsm = scaled(name);
        let report = run_circuit(&fsm, &LATENCIES, &options, &lib).expect("pipeline");
        let certify = |pool: &ParExec| {
            let cert = ced_cert::certify_report_stored(
                &fsm,
                &report,
                &options,
                &ced_cert::CertifyOptions::default(),
                &Budget::unlimited(),
                pool,
                None,
            )
            .expect("certification ran");
            ced_cert::report::cert_report_json(&[cert]).render()
        };
        let serial = ced_cert::certify_report(
            &fsm,
            &report,
            &options,
            &ced_cert::CertifyOptions::default(),
            &Budget::unlimited(),
        )
        .expect("certification ran");
        let serial = ced_cert::report::cert_report_json(&[serial]).render();
        assert!(serial.contains("\"schema\":\"ced-cert-report/1\""));
        assert_eq!(serial, certify(&ParExec::new(1)), "{name}: vs --jobs 1");
        assert_eq!(serial, certify(&ParExec::new(4)), "{name}: vs --jobs 4");
    }
}
