//! Convolutional-code CED — the bounded-latency alternative the paper
//! cites (Holmquist & Kinney, ITC'91) and recommends for single-event
//! upsets, "yet no indication of its cost is provided" (§1). This
//! module provides that indication.
//!
//! The scheme, reduced to its operative core: the monitored next-state/
//! output bits are compacted by one parity tree into a bit stream
//! `d_t` (`0` while the machine is healthy); the checker convolves the
//! *discrepancy* stream with a generator polynomial of memory `m`
//! (constraint length `m + 1`), i.e. the syndrome at time `t` is
//!
//! ```text
//!   s_t = ⊕_{j : g_j = 1} d_{t−j}
//! ```
//!
//! A single discrepancy pulse keeps the syndrome nonzero at every tap
//! position — up to `m + 1` cycles after the error — so detection
//! survives even if the *fault itself* has already vanished. This is
//! exactly the "form of memory" §2 says bounded-latency parity CED
//! lacks for SEUs: the parity checker's opportunity dies with the
//! fault, the convolutional checker's persists.
//!
//! The price: the compaction is a single parity, so discrepancies with
//! an even number of flipped monitored bits are invisible (coverage
//! loss the paper's multi-tree method avoids), and the checker carries
//! `m` extra flip-flops.

use crate::hardware::CedCost;
use ced_fsm::encoded::FsmCircuit;
use ced_logic::gate::CellLibrary;
use ced_sim::fault::Fault;
use ced_sim::tables::TransitionTables;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A convolutional-code checker specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvolutionalCed {
    /// Compaction parity mask over the `n` monitored bits (usually
    /// all-ones: lossy single-parity compaction).
    pub mask: u64,
    /// Generator taps: bit `j` set means `d_{t−j}` enters the syndrome.
    /// Bit 0 must be set (otherwise the newest symbol is ignored).
    pub taps: u32,
}

impl ConvolutionalCed {
    /// The standard instance for a circuit: all-ones compaction and the
    /// dense generator `1 + D + … + D^m` (every discrepancy pulse is
    /// visible at `m + 1` consecutive cycles).
    ///
    /// # Panics
    ///
    /// Panics if `memory > 31`.
    pub fn for_circuit(circuit: &FsmCircuit, memory: usize) -> ConvolutionalCed {
        assert!(memory <= 31, "generator memory limited to 31");
        let n = circuit.total_bits();
        let mask = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        ConvolutionalCed {
            mask,
            taps: ((1u64 << (memory + 1)) - 1) as u32,
        }
    }

    /// The generator memory `m` (highest tap index).
    pub fn memory(&self) -> usize {
        assert!(self.taps & 1 == 1, "tap 0 must be set");
        31 - self.taps.leading_zeros() as usize
    }

    /// Hardware cost: parity tree over the masked bits, a 1-bit parity
    /// predictor (approximated by the cost of one average monitored-bit
    /// function — reported separately by [`crate::hardware`] for the
    /// paper's method; here we charge the XOR of all selected functions
    /// flat-composed, like a `q = 1` checker), `m` syndrome flip-flops,
    /// tap XORs and the comparator.
    pub fn cost(&self, circuit: &FsmCircuit, library: &CellLibrary) -> CedCost {
        // Reuse the paper-method hardware synthesizer with a single
        // mask: it builds the parity tree, predictor and comparator.
        let cover = crate::ip::ParityCover::new(vec![self.mask]);
        let base = crate::hardware::synthesize_ced(
            circuit,
            &cover,
            self.memory() + 1,
            &ced_logic::MinimizeOptions::default(),
        );
        let mut cost = base.cost(library);
        // Syndrome shift register + tap XOR tree on top.
        let m = self.memory();
        let tap_count = self.taps.count_ones() as usize;
        cost.flip_flops += m;
        cost.gates += tap_count.saturating_sub(1);
        cost.area += m as f64 * library.dff + tap_count.saturating_sub(1) as f64 * library.xor2;
        cost
    }

    /// Fraction of the detectability table's erroneous cases whose
    /// first-step discrepancy the single-parity compaction can see
    /// (odd overlap with the mask) — the coverage ceiling of the
    /// scheme, to set against its cost.
    pub fn coverage_ceiling(&self, table: &ced_sim::detect::DetectabilityTable) -> f64 {
        if table.is_empty() {
            return 1.0;
        }
        let seen = table
            .rows()
            .iter()
            .filter(|r| r.detected_by(self.mask))
            .count();
        seen as f64 / table.len() as f64
    }
}

/// Outcome of one convolutional-checker fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvOutcome {
    /// No parity-visible error occurred.
    NoErrorObserved,
    /// The syndrome fired within `m + 1` cycles of the first
    /// parity-visible error.
    Detected {
        /// Cycles from the visible error to the syndrome firing (≥ 1).
        latency: usize,
    },
    /// A parity-visible error occurred but the syndrome never fired in
    /// its window (cannot happen with tap 0 set — kept for API
    /// completeness and generator experimentation).
    Missed,
    /// Errors occurred but none was parity-visible (even-weight
    /// discrepancies only — the compaction ceiling).
    InvisibleOnly,
}

/// Runs the convolutional checker against a fault active for
/// `persistence` cycles from `onset` (use a huge persistence for a
/// permanent fault). Detection uses the syndrome over the discrepancy
/// stream, so it can fire *after* the fault has vanished — the SEU
/// scenario plain bounded-latency parity cannot cover.
pub fn simulate_convolutional_detection(
    circuit: &FsmCircuit,
    checker: &ConvolutionalCed,
    fault: Fault,
    onset: usize,
    persistence: usize,
    total_cycles: usize,
    seed: u64,
) -> ConvOutcome {
    let good = TransitionTables::good(circuit);
    let bad = TransitionTables::faulty(circuit, &[fault]);
    let r = circuit.num_inputs();
    let input_mask = if r >= 64 { u64::MAX } else { (1u64 << r) - 1 };
    let m = checker.memory();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = circuit.reset_code();
    let mut history: u32 = 0; // d_{t}, d_{t-1}, … in low bits
    let mut any_error = false;
    let mut first_visible: Option<usize> = None;

    for cycle in 0..total_cycles {
        let input = rng.next_u64() & input_mask;
        let fault_active = cycle >= onset && cycle < onset + persistence;
        let tables = if fault_active { &bad } else { &good };
        let diff = good.response(state, input) ^ tables.response(state, input);
        if diff != 0 {
            any_error = true;
        }
        let d = (checker.mask & diff).count_ones() & 1;
        history = (history << 1) | d;
        if d == 1 && first_visible.is_none() {
            first_visible = Some(cycle);
        }
        // Syndrome: taps over the discrepancy history.
        let syndrome = (history & checker.taps).count_ones() & 1;
        if syndrome == 1 {
            if let Some(start) = first_visible {
                return ConvOutcome::Detected {
                    latency: cycle - start + 1,
                };
            }
        }
        if let Some(start) = first_visible {
            if cycle >= start + m {
                return ConvOutcome::Missed;
            }
        }
        state = tables.next(state, input);
    }
    if first_visible.is_some() {
        ConvOutcome::Missed
    } else if any_error {
        ConvOutcome::InvisibleOnly
    } else {
        ConvOutcome::NoErrorObserved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;
    use ced_sim::detect::{DetectOptions, DetectabilityTable};
    use ced_sim::fault::collapsed_faults;

    fn circuit() -> FsmCircuit {
        let fsm = suite::traffic_light();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn standard_checker_shape() {
        let c = circuit();
        let conv = ConvolutionalCed::for_circuit(&c, 2);
        assert_eq!(conv.memory(), 2);
        assert_eq!(conv.taps, 0b111);
        assert_eq!(conv.mask.count_ones() as usize, c.total_bits());
    }

    #[test]
    fn cost_includes_memory() {
        let c = circuit();
        let lib = CellLibrary::new();
        let m0 = ConvolutionalCed::for_circuit(&c, 0).cost(&c, &lib);
        let m3 = ConvolutionalCed::for_circuit(&c, 3).cost(&c, &lib);
        assert_eq!(m3.flip_flops, m0.flip_flops + 3);
        assert!(m3.area > m0.area);
        assert_eq!(m0.parity_functions, 1);
    }

    #[test]
    fn tap_zero_detects_permanent_faults_it_can_see() {
        // With tap 0 set, any parity-visible error fires the syndrome at
        // latency 1 — regardless of memory.
        let c = circuit();
        let conv = ConvolutionalCed::for_circuit(&c, 2);
        let faults = collapsed_faults(c.netlist());
        let mut visible = 0usize;
        for (i, &f) in faults.iter().enumerate() {
            match simulate_convolutional_detection(&c, &conv, f, 0, 10_000, 800, 9 ^ i as u64) {
                ConvOutcome::Detected { latency } => {
                    visible += 1;
                    assert_eq!(latency, 1, "{f}: tap0 must fire immediately");
                }
                ConvOutcome::Missed => panic!("{f}: missed with tap 0 set"),
                _ => {}
            }
        }
        assert!(visible > 0);
    }

    #[test]
    fn syndrome_survives_seu_unlike_plain_parity() {
        // A 1-cycle fault whose discrepancy is parity-visible: the
        // syndrome at taps 1..m fires even after the fault is gone,
        // landing within the m+1 window. With tap 0 set detection is
        // immediate; with taps = D + D² only (tap0 unset is forbidden,
        // so emulate by checking history semantics directly).
        let c = circuit();
        let conv = ConvolutionalCed::for_circuit(&c, 3);
        let faults = collapsed_faults(c.netlist());
        let mut detected = 0usize;
        for (i, &f) in faults.iter().enumerate() {
            for onset in 0..8 {
                if let ConvOutcome::Detected { latency } = simulate_convolutional_detection(
                    &c,
                    &conv,
                    f,
                    onset,
                    1,
                    400,
                    0x5EED ^ (i as u64) << 5 ^ onset as u64,
                ) {
                    assert!(latency <= conv.memory() + 1);
                    detected += 1;
                }
            }
        }
        assert!(detected > 0, "no SEU ever detected");
    }

    #[test]
    fn coverage_ceiling_reflects_even_diff_blindness() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let (table, _) = DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: 1,
                ..DetectOptions::default()
            },
        )
        .unwrap();
        let conv = ConvolutionalCed::for_circuit(&c, 2);
        let ceiling = conv.coverage_ceiling(&table);
        assert!(ceiling > 0.0 && ceiling <= 1.0);
        // The paper's multi-tree method reaches 1.0 by construction;
        // single-parity compaction usually cannot.
        let q_full =
            crate::search::minimize_parity_functions(&table, &crate::search::CedOptions::default());
        assert!(table.all_covered(&q_full.cover.masks));
        if ceiling < 1.0 {
            assert!(q_full.q >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "memory limited")]
    fn oversized_memory_rejected() {
        let c = circuit();
        let _ = ConvolutionalCed::for_circuit(&c, 32);
    }
}
