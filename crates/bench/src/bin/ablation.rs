//! Ablations A1/A2: solver-quality comparison.
//!
//! For each circuit and latency bound, compares the number of parity
//! functions found by
//!
//! * **LP + randomized rounding** (the paper's Algorithm 1, symmetric
//!   LP form),
//! * the **full Statement-5 LP** form (A2),
//! * the **greedy** local-search cover baseline,
//! * the **exact** minimum (small instances only),
//!
//! plus the q = n duplication-style upper bound.
//!
//! `cargo run -p ced-bench --release --bin ablation -- --quick`

use ced_bench::HarnessArgs;
use ced_core::exact::exact_minimum_cover;
use ced_core::greedy::{greedy_cover, GreedyOptions};
use ced_core::pipeline::{detect_options, fault_list, prepare_machine, PipelineOptions};
use ced_core::relax::LpForm;
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_sim::detect::DetectabilityTable;

fn main() {
    let mut args = HarnessArgs::parse();
    if args.latencies == vec![1, 2, 3] {
        args.latencies = vec![1, 2];
    }
    let specs = args.specs();
    let options = PipelineOptions::paper_defaults();

    println!(
        "{:<10} {:>3} {:>6} | {:>6} {:>7} {:>7} {:>6} {:>4}",
        "circuit", "p", "m", "lp+rr", "full-lp", "greedy", "exact", "n"
    );
    for spec in specs {
        let fsm = spec.build();
        let (encoded, circuit) = match prepare_machine(&fsm, &options) {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("{}: {e}", spec.name);
                continue;
            }
        };
        let faults = fault_list(&circuit, &options);
        for &p in &args.latencies {
            let built = DetectabilityTable::build(
                &circuit,
                &faults,
                &detect_options(&encoded, &options, p),
            );
            let table = match built {
                Ok((t, _)) => t,
                Err(e) => {
                    eprintln!("{}: {e}", spec.name);
                    continue;
                }
            };
            let sym = minimize_parity_functions(&table, &CedOptions::default());
            // The literal Statement-5 LP is q× larger; keep its tableau
            // tractable with a tighter lazy-row cap (verification stays
            // exact against the full table).
            let full = minimize_parity_functions(
                &table,
                &CedOptions {
                    form: LpForm::Full,
                    lp_row_cap: 48,
                    iterations: 300,
                    ..CedOptions::default()
                },
            );
            let greedy = greedy_cover(&table, &GreedyOptions::default());
            let exact = if table.num_bits() <= 12 && table.len() <= 400 {
                exact_minimum_cover(&table)
                    .map(|c| c.len().to_string())
                    .unwrap_or_else(|| "-".into())
            } else {
                "-".into()
            };
            println!(
                "{:<10} {:>3} {:>6} | {:>6} {:>7} {:>7} {:>6} {:>4}",
                spec.name,
                p,
                table.len(),
                sym.q,
                full.q,
                greedy.len(),
                exact,
                table.num_bits()
            );
            assert!(table.all_covered(&sym.cover.masks));
            assert!(table.all_covered(&full.cover.masks));
            assert!(table.all_covered(&greedy.masks));
        }
    }
    println!("\nall reported covers verified against Statement 4 (exact check).");
}
