//! Diagnostic probe: distribution of first-step difference masks per
//! circuit — how many distinct `D₁` patterns occur, their bit-weights,
//! and the implied lower bound on `q` (the dual-code argument: if all
//! weight-1 patterns occur on every bit, q = n).
//!
//! `cargo run -p ced-bench --release --bin probe -- --quick --circuit cse`

use ced_bench::HarnessArgs;
use ced_core::pipeline::{detect_options, fault_list, prepare_machine, PipelineOptions};
use ced_sim::detect::DetectabilityTable;
use std::collections::HashSet;

fn main() {
    let args = HarnessArgs::parse();
    let options = PipelineOptions::paper_defaults();
    for spec in args.specs() {
        let fsm = spec.build();
        let (encoded, circuit) = prepare_machine(&fsm, &options).expect("prepare");
        let faults = fault_list(&circuit, &options);
        let (t1, stats) =
            DetectabilityTable::build(&circuit, &faults, &detect_options(&encoded, &options, 1))
                .expect("fits");
        let n = circuit.total_bits();
        let mut weights = vec![0usize; n + 1];
        let mut bits_seen: HashSet<u32> = HashSet::new();
        for row in t1.rows() {
            let d = row.steps[0];
            weights[d.count_ones() as usize] += 1;
            for b in 0..n {
                if (d >> b) & 1 == 1 {
                    bits_seen.insert(b as u32);
                }
            }
        }
        let singles = weights[1];
        println!(
            "{}: n={} gates={} faults={} distinct_D1={} (of {}) singles={} bits_touched={}",
            spec.name,
            n,
            circuit.gate_count(),
            stats.faults,
            t1.len(),
            (1u64 << n) - 1,
            singles,
            bits_seen.len()
        );
        print!("  weight histogram:");
        for (w, c) in weights.iter().enumerate() {
            if *c > 0 {
                print!(" w{w}:{c}");
            }
        }
        println!();
    }
}
