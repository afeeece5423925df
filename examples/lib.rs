//! Shared helpers for the runnable examples.

use ced_fsm::encoded::EncodedFsm;
use ced_fsm::encoded::FsmCircuit;
use ced_fsm::encoding::{assign, EncodingStrategy};
use ced_fsm::machine::Fsm;
use ced_logic::MinimizeOptions;

/// Synthesizes a machine with default settings, completing it first if
/// it is partially specified.
pub fn synthesize(fsm: &Fsm) -> FsmCircuit {
    let mut fsm = fsm.clone();
    fsm.complete_with_self_loops()
        .expect("example machines are narrow enough to complete");
    let enc = assign(&fsm, EncodingStrategy::Natural);
    EncodedFsm::new(fsm, enc)
        .expect("well-formed example machine")
        .synthesize(&MinimizeOptions::default())
}

/// Formats a parity mask as the bit names it taps (b1..bn, paper
/// convention: b1..bs next-state bits, the rest outputs).
pub fn mask_to_bits(mask: u64, state_bits: usize) -> String {
    let mut parts = Vec::new();
    for j in 0..64 {
        if (mask >> j) & 1 == 1 {
            if j < state_bits {
                parts.push(format!("b{} (state)", j + 1));
            } else {
                parts.push(format!("b{} (output)", j + 1));
            }
        }
    }
    parts.join(" ⊕ ")
}
