//! Hardware-level certification: synthesis equivalence and checker
//! co-simulation.
//!
//! **Synthesis equivalence.** The pipeline ships one synthesis of the
//! machine (shared logic across output cones by default). The verifier
//! re-synthesizes the same encoded machine down the *other* path —
//! isolated per-output cones — and proves the two netlists sequentially
//! equivalent by the product-machine BFS of [`ced_sim::equiv`]. A bug
//! in cover minimization, sharing, or netlist construction that changes
//! observable behavior shows up as a concrete distinguishing input
//! sequence.
//!
//! **Checker co-simulation.** The synthesized Fig. 3 checker
//! ([`ced_core::synthesize_ced`]) must raise `ERROR` on a transition
//! `(state, input)` with corrupted monitored bits `actual ⊕ e` iff some
//! claimed parity mask sees an odd overlap with `e` — the behavioral
//! spec, evaluated here directly on the mask bitmasks without touching
//! the predictor logic. Reachable states × the claimed input universe ×
//! all `2ⁿ` corruptions are swept exhaustively when that fits the
//! pattern budget, else a deterministic LCG sample of the same space
//! (always including `e = 0`, the no-false-alarm case).

use crate::{Certificate, Refutation, Stage, StageOutcome, Witness};
use ced_core::pipeline::prepare_machine;
use ced_core::{synthesize_ced, ParityCover, PipelineOptions};
use ced_fsm::encoded::FsmCircuit;
use ced_fsm::machine::Fsm;
use ced_logic::MinimizeOptions;
use ced_runtime::{Budget, Interrupted};
use ced_sim::detect::InputModel;
use ced_sim::equiv::{check_equivalence, EquivalenceResult};
use ced_sim::tables::TransitionTables;

/// Proves the shipped synthesis equivalent to an independent one.
///
/// `circuit` must be the synthesis produced under `pipeline`; the
/// verifier re-prepares the machine with `isolate_output_logic`
/// flipped, yielding a structurally different netlist of the same
/// specification, and BFSes the product machine.
///
/// # Errors
///
/// Only budget interruption.
pub fn verify_synthesis(
    fsm: &Fsm,
    pipeline: &PipelineOptions,
    circuit: &FsmCircuit,
    budget: &Budget,
) -> Result<StageOutcome, Interrupted> {
    budget.check("certify/synthesis")?;
    let mut alt = pipeline.clone();
    alt.isolate_output_logic = !pipeline.isolate_output_logic;
    let other = match prepare_machine(fsm, &alt) {
        Ok((_, c)) => c,
        Err(e) => {
            return Ok(StageOutcome::Refused {
                stage: Stage::Synthesis,
                reason: format!("independent re-synthesis failed: {e}"),
            });
        }
    };
    let outcome = match check_equivalence(circuit, &other) {
        EquivalenceResult::Equivalent { explored } => {
            budget.tick(explored as u64, "certify/synthesis")?;
            StageOutcome::Certified(Certificate {
                stage: Stage::Synthesis,
                checked: explored as u64,
                detail: format!(
                    "shared-logic and isolated-cone syntheses proven sequentially equivalent \
                     ({explored} reachable product states explored)"
                ),
            })
        }
        EquivalenceResult::Inequivalent {
            counterexample,
            output_a,
            output_b,
        } => StageOutcome::Refuted(Refutation {
            stage: Stage::Synthesis,
            discrepancy: format!(
                "two syntheses of the same machine disagree after {} cycle(s): \
                 outputs {output_a:#x} vs {output_b:#x}",
                counterexample.len()
            ),
            witness: Witness::SynthesisMismatch {
                counterexample,
                output_a,
                output_b,
            },
        }),
        EquivalenceResult::InterfaceMismatch => StageOutcome::Refused {
            stage: Stage::Synthesis,
            reason: "re-synthesis produced a different interface (cannot compare)".into(),
        },
    };
    Ok(outcome)
}

/// Co-simulates the synthesized checker against the behavioral parity
/// spec.
///
/// # Errors
///
/// Only budget interruption.
#[allow(clippy::too_many_arguments)]
pub fn verify_checker(
    circuit: &FsmCircuit,
    cover: &ParityCover,
    latency: usize,
    minimize: &MinimizeOptions,
    input_model: &InputModel,
    max_patterns: u64,
    seed: u64,
    budget: &Budget,
) -> Result<StageOutcome, Interrupted> {
    budget.check("certify/checker")?;
    let hw = synthesize_ced(circuit, cover, latency, minimize);
    let good = TransitionTables::good(circuit);
    let r = good.num_inputs();
    let n = circuit.total_bits();
    // 2ⁿ corruptions: n reaches 64 (`MAX_RESPONSE_BITS`), one past u64.
    let corruptions: u128 = 1u128 << n;
    let states = good.reachable_codes();
    let masks = hw.masks();

    let spec = |e: u64| masks.iter().any(|&m| (e & m).count_ones() & 1 == 1);
    let check_one = |c: u64, a: u64, e: u64| -> Option<StageOutcome> {
        let actual = good.response(c, a) ^ e;
        let observed = hw.flags(c, a, actual);
        let expected = spec(e);
        (observed != expected).then(|| {
            StageOutcome::Refuted(Refutation {
                stage: Stage::Checker,
                discrepancy: format!(
                    "checker netlist {} on state {c:#x}, input {a:#x}, corruption {e:#x} \
                     but the parity spec over the {} masks says ERROR = {expected}",
                    if observed { "flags" } else { "stays quiet" },
                    masks.len()
                ),
                witness: Witness::CheckerMismatch {
                    state: c,
                    input: a,
                    corruption: e,
                    expected,
                    observed,
                },
            })
        })
    };

    // Enumerate the (state, input) transition list once; corruptions
    // multiply it into the full pattern space.
    let mut inputs = Vec::new();
    let mut transitions: Vec<(u64, u64)> = Vec::new();
    for &c in &states {
        input_model.inputs_at(c, r, &mut inputs);
        transitions.extend(inputs.iter().map(|&a| (c, a)));
    }
    let total = transitions.len() as u128 * corruptions;

    let mut checked: u64 = 0;
    if total <= u128::from(max_patterns) {
        for &(c, a) in &transitions {
            // A transition exists, so 2ⁿ ≤ total fits in u64.
            let corruptions = corruptions as u64;
            budget.tick(corruptions, "certify/checker")?;
            for e in 0..corruptions {
                checked += 1;
                if let Some(refuted) = check_one(c, a, e) {
                    return Ok(refuted);
                }
            }
        }
        Ok(StageOutcome::Certified(Certificate {
            stage: Stage::Checker,
            checked,
            detail: format!(
                "exhaustive co-simulation: {} transitions × {corruptions} corruptions all \
                 match the behavioral parity spec",
                transitions.len()
            ),
        }))
    } else {
        // Deterministic LCG sweep over the same space; e = 0 first so
        // the no-false-alarm case is always exercised. One draw is 53
        // bits wide, so wider corruptions XOR a second draw in above
        // bit 11 (n ≤ 53 keeps the one-draw sequence).
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut lcg = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        for sample in 0..max_patterns {
            if sample % 1024 == 0 {
                budget.tick(1024.min(max_patterns - sample), "certify/checker")?;
            }
            let (c, a) = transitions[(lcg() % transitions.len() as u64) as usize];
            let e = if sample < transitions.len() as u64 {
                0
            } else if n <= 53 {
                lcg() & (corruptions as u64 - 1)
            } else {
                (lcg() ^ (lcg() << 11)) & (u64::MAX >> (64 - n))
            };
            checked += 1;
            if let Some(refuted) = check_one(c, a, e) {
                return Ok(refuted);
            }
        }
        Ok(StageOutcome::Certified(Certificate {
            stage: Stage::Checker,
            checked,
            detail: format!(
                "sampled co-simulation: {checked} of {total} patterns (deterministic seed \
                 {seed}) match the behavioral parity spec"
            ),
        }))
    }
}
