//! Analytic-core harness: measures the search phase (LP + randomized
//! rounding + verification on the bit-packed tables) on the scaled
//! paper machines and one large generated machine (the `ced gen`
//! scaling workload). Every repeat's `SearchOutcome` is asserted equal
//! to the first before any number is reported. Emits one
//! `ced-core-bench/2` JSON line with the tensor build and best-of-N
//! search wall time per machine.
//!
//! Usage: `cargo bench --bench core [-- --quick]` (`--quick` shrinks
//! the generated machine and the repeat count, not the matrix).

use ced_bench::{git_rev, trajectory_row};
use ced_core::pipeline::{synthesize_circuit, PipelineOptions};
use ced_core::search::{minimize_parity_functions, CedOptions, SearchOutcome};
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::machine::Fsm;
use ced_runtime::Json;
use ced_sim::detect::{DetectOptions, DetectabilityTable};
use ced_sim::fault::collapsed_faults;
use std::time::Instant;

const LATENCY: usize = 2;

fn corpus(quick: bool) -> Vec<(String, Fsm)> {
    let mut machines: Vec<(String, Fsm)> = ced_fsm::suite::paper_table1_scaled()
        .into_iter()
        .filter(|s| ["s27", "tav", "dk512"].contains(&s.name))
        .map(|s| (s.name.to_string(), s.build()))
        .collect();
    let scale = if quick { 3 } else { 10 };
    let gen = generate(&scaled_workload(scale, 3));
    machines.push((format!("gen{scale}x"), gen));
    machines
}

/// Best-of-`repeats` wall-clock of the search, plus its outcome
/// (asserted identical across runs — the search is a pure function of
/// table, options and seed).
fn time_search(table: &DetectabilityTable, repeats: usize) -> (SearchOutcome, f64) {
    let options = CedOptions::default();
    let mut best = f64::INFINITY;
    let mut outcome: Option<SearchOutcome> = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let result = minimize_parity_functions(table, &options);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        if let Some(first) = &outcome {
            assert_eq!(first, &result, "the search must be deterministic");
        }
        outcome = Some(result);
    }
    (outcome.expect("at least one repeat"), best)
}

struct Row {
    machine: String,
    n_states: usize,
    faults: usize,
    cases: usize,
    tensor_ms: f64,
    search_ms: f64,
    q: usize,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let repeats = if quick { 1 } else { 3 };
    let rev = git_rev();
    let pipeline = PipelineOptions::paper_defaults();

    let mut rows = Vec::new();
    for (name, fsm) in corpus(quick) {
        let n_states = fsm.num_states();
        let circuit = synthesize_circuit(&fsm, &pipeline).expect("synthesis");
        let faults = collapsed_faults(circuit.netlist());
        let start = Instant::now();
        let (table, _) = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency: LATENCY,
                ..DetectOptions::default()
            },
        )
        .expect("tensor fits");
        let tensor_ms = start.elapsed().as_secs_f64() * 1e3;

        let (outcome, search_ms) = time_search(&table, repeats);
        eprintln!(
            "  {:<8} {:>4} states {:>6} cases: tensor {tensor_ms:8.1} ms, \
             search {search_ms:8.1} ms",
            name,
            n_states,
            table.len(),
        );
        rows.push(Row {
            machine: name,
            n_states,
            faults: faults.len(),
            cases: table.len(),
            tensor_ms,
            search_ms,
            q: outcome.cover.masks.len(),
        });
    }

    let doc = Json::Object(vec![
        ("schema".into(), Json::str("ced-core-bench/2")),
        ("quick".into(), Json::Bool(quick)),
        ("rev".into(), Json::str(&rev)),
        ("latency".into(), Json::UInt(LATENCY as u64)),
        (
            "machines".into(),
            Json::Array(
                rows.iter()
                    .map(|r| {
                        Json::Object(vec![
                            ("machine".into(), Json::str(&r.machine)),
                            ("n_states".into(), Json::UInt(r.n_states as u64)),
                            ("faults".into(), Json::UInt(r.faults as u64)),
                            ("cases".into(), Json::UInt(r.cases as u64)),
                            ("q".into(), Json::UInt(r.q as u64)),
                            ("tensor_ms".into(), Json::Float(r.tensor_ms)),
                            ("search_ms".into(), Json::Float(r.search_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "trajectory".into(),
            Json::Array(
                rows.iter()
                    .map(|r| trajectory_row(&rev, &r.machine, r.n_states, r.search_ms))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", doc.render());
}
