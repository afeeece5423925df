//! Experiment E7: parity CED vs the convolutional-code scheme.
//!
//! The paper (§1) notes the only prior bounded-latency method uses
//! convolutional codes (Holmquist & Kinney) but that "no indication of
//! its cost is provided", and (§2) that SEU-class faults demand its
//! memory. This harness provides both sides of that trade:
//!
//! * **cost** — checker gates/area/FFs of the paper's multi-tree parity
//!   CED at p = 1, 2 vs a memory-2 convolutional checker;
//! * **coverage** — the parity method covers the detectability table by
//!   construction; the single-parity convolutional compaction has a
//!   ceiling (even-weight discrepancies are invisible);
//! * **SEU resilience** — detection rates for 1-cycle faults, where the
//!   convolutional memory keeps working after the fault is gone.
//!
//! `cargo run -p ced-bench --release --bin conv_compare -- --quick`

use ced_bench::HarnessArgs;
use ced_core::convolutional::{simulate_convolutional_detection, ConvOutcome, ConvolutionalCed};
use ced_core::pipeline::{detect_options, fault_list, prepare_machine, PipelineOptions};
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_core::synthesize_ced;
use ced_logic::gate::CellLibrary;
use ced_logic::MinimizeOptions;
use ced_sim::detect::DetectabilityTable;

fn main() {
    let mut args = HarnessArgs::parse();
    if args.latencies == vec![1, 2, 3] {
        args.latencies = vec![1, 2];
    }
    let options = PipelineOptions::paper_defaults();
    let lib = CellLibrary::new();
    println!(
        "{:<10} | {:>22} | {:>22} | {:>28}",
        "circuit", "parity p=2 (q, area)", "conv m=2 (area, ceil%)", "SEU detect% (parity/conv)"
    );

    for spec in args.specs() {
        let fsm = spec.build();
        let Ok((encoded, circuit)) = prepare_machine(&fsm, &options) else {
            continue;
        };
        let faults = fault_list(&circuit, &options);
        let Ok((table, _)) =
            DetectabilityTable::build(&circuit, &faults, &detect_options(&encoded, &options, 2))
        else {
            eprintln!("{}: table overflow", spec.name);
            continue;
        };

        // Paper method at p = 2.
        let outcome = minimize_parity_functions(&table, &CedOptions::default());
        let parity_hw = synthesize_ced(&circuit, &outcome.cover, 2, &MinimizeOptions::default());
        let parity_cost = parity_hw.cost(&lib);

        // Convolutional checker, memory 2 (same worst-case latency).
        let conv = ConvolutionalCed::for_circuit(&circuit, 2);
        let conv_cost = conv.cost(&circuit, &lib);
        let ceiling = conv.coverage_ceiling(&table);

        // SEU scenario: persistence-1 faults; count per-fault detection.
        let trials = 6u64;
        let mut conv_hit = 0usize;
        let mut conv_seen = 0usize;
        let mut parity_hit = 0usize;
        let mut parity_seen = 0usize;
        for (i, &fault) in faults.iter().enumerate().take(60) {
            for t in 0..trials {
                let seed = 0xE7 ^ (i as u64) << 8 ^ t;
                match simulate_convolutional_detection(
                    &circuit, &conv, fault, t as usize, 1, 300, seed,
                ) {
                    ConvOutcome::Detected { .. } => {
                        conv_seen += 1;
                        conv_hit += 1;
                    }
                    ConvOutcome::Missed => conv_seen += 1,
                    _ => {}
                }
                // Parity method under the same SEU: detection possible
                // only while the fault is alive (1 cycle).
                match ced_sim::coverage::simulate_transient_fault_detection(
                    &circuit,
                    fault,
                    &outcome.cover.masks,
                    2,
                    t as usize,
                    1,
                    300,
                    seed,
                ) {
                    ced_sim::coverage::TransientOutcome::Detected { .. } => {
                        parity_seen += 1;
                        parity_hit += 1;
                    }
                    ced_sim::coverage::TransientOutcome::Escaped => parity_seen += 1,
                    _ => {}
                }
            }
        }
        let pct = |hit: usize, seen: usize| {
            if seen == 0 {
                100.0
            } else {
                100.0 * hit as f64 / seen as f64
            }
        };
        println!(
            "{:<10} | q={:<2} area={:>9.1} | area={:>9.1} ceil={:>4.0}% | {:>10.1}% / {:>10.1}%",
            spec.name,
            outcome.q,
            parity_cost.area,
            conv_cost.area,
            100.0 * ceiling,
            pct(parity_hit, parity_seen),
            pct(conv_hit, conv_seen),
        );
    }
    println!(
        "\nceil% = fraction of erroneous cases a single-parity compaction can\n\
         ever see; SEU detect% counts persistence-1 faults whose visible\n\
         errors were flagged (parity: within its live window only)."
    );
}
