//! The §2 persistence assumption, quantified.
//!
//! Bounded-latency CED assumes "a fault remains present for at least p
//! clock cycles after causing an error" — realistic for permanent and
//! wear-out intermittent faults, violated by single-event upsets. This
//! example sweeps the fault-persistence duration and measures the
//! escape rate of a latency-2 checker: errors whose fault vanishes
//! before any window step exposes them slip through, exactly as the
//! paper warns.
//!
//! Run with: `cargo run -p ced-examples --bin transient_faults --release`

use ced_core::ip::detection_latencies;
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_examples::synthesize;
use ced_fsm::generator::{generate, GeneratorConfig};
use ced_sim::coverage::{simulate_transient_fault_detection, TransientOutcome};
use ced_sim::detect::{DetectOptions, DetectabilityTable, Semantics};
use ced_sim::fault::collapsed_faults;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let latency = 2usize;

    // Search (deterministically) for a machine whose latency-2 cover
    // actually *relies* on the second step — otherwise every error is
    // caught immediately and persistence is irrelevant.
    let mut chosen = None;
    'search: for seed in 0..40u64 {
        let fsm = generate(&GeneratorConfig {
            name: format!("transient{seed}"),
            num_inputs: 2,
            num_states: 10,
            num_outputs: 3,
            cubes_per_state: 4,
            self_loop_bias: 0.05,
            output_dc_prob: 0.05,
            output_pool: 3,
            seed,
        });
        let circuit = synthesize(&fsm);
        let faults = collapsed_faults(circuit.netlist());
        let (table, _) = DetectabilityTable::build(
            &circuit,
            &faults,
            &DetectOptions {
                latency,
                semantics: Semantics::FaultyTrajectory,
                ..DetectOptions::default()
            },
        )?;
        let cover = minimize_parity_functions(&table, &CedOptions::default()).cover;
        let step2_reliant = detection_latencies(&table, &cover)
            .iter()
            .filter(|l| **l == Some(2))
            .count();
        if step2_reliant > 0 {
            println!(
                "machine {}: q = {} trees; {} of {} erroneous cases are \
                 detected only at step 2",
                circuit.name(),
                cover.len(),
                step2_reliant,
                table.len()
            );
            chosen = Some((circuit, faults, cover));
            break 'search;
        }
    }
    let Some((circuit, faults, cover)) = chosen else {
        println!("no step-2-reliant cover found in the seed range; nothing to show");
        return Ok(());
    };

    // Analytic escape census for single-cycle (SEU-like) faults: an
    // activation escapes a persistence-1 fault iff no tree sees its
    // first-step difference with odd parity — step 2 never comes.
    let good = ced_sim::tables::TransitionTables::good(&circuit);
    let mut activations = 0usize;
    let mut seu_escapes = 0usize;
    for &fault in &faults {
        let bad = ced_sim::tables::TransitionTables::faulty(&circuit, &[fault]);
        for &c in &good.reachable_codes() {
            for a in 0..(1u64 << circuit.num_inputs()) {
                let d1 = good.response(c, a) ^ bad.response(c, a);
                if d1 == 0 {
                    continue;
                }
                activations += 1;
                let caught = cover.masks.iter().any(|&m| (m & d1).count_ones() & 1 == 1);
                if !caught {
                    seu_escapes += 1;
                }
            }
        }
    }
    println!(
        "analytic SEU census: {} of {} error activations escape a \
         persistence-1 fault ({:.2}%) — all detected when persistence ≥ p",
        seu_escapes,
        activations,
        100.0 * seu_escapes as f64 / activations.max(1) as f64
    );
    println!(
        "\n{:>12} {:>10} {:>10} {:>10} {:>12}",
        "persistence", "detected", "escaped", "quiet", "escape rate"
    );

    for persistence in [1usize, 2, 3, 5, 10, 10_000] {
        let mut detected = 0usize;
        let mut escaped = 0usize;
        let mut quiet = 0usize;
        for (i, &fault) in faults.iter().enumerate() {
            for onset in 0..12usize {
                match simulate_transient_fault_detection(
                    &circuit,
                    fault,
                    &cover.masks,
                    latency,
                    onset,
                    persistence,
                    400,
                    0xABCD ^ (i as u64) << 8 ^ onset as u64,
                ) {
                    TransientOutcome::Detected { .. } => detected += 1,
                    TransientOutcome::Escaped => escaped += 1,
                    TransientOutcome::NoErrorObserved => quiet += 1,
                }
            }
        }
        let rate = if detected + escaped > 0 {
            100.0 * escaped as f64 / (detected + escaped) as f64
        } else {
            0.0
        };
        let label = if persistence == 10_000 {
            "permanent".to_string()
        } else {
            persistence.to_string()
        };
        println!("{label:>12} {detected:>10} {escaped:>10} {quiet:>10} {rate:>11.1}%");
    }
    println!(
        "\nescapes vanish once persistence ≥ the latency bound — the paper's \
         §2 assumption. Single-cycle faults (SEUs) demand either p = 1 or \
         the convolutional-code scheme the paper cites."
    );
    Ok(())
}
