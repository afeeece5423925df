//! CED hardware synthesis and costing (the paper's Fig. 3).
//!
//! Given a verified [`ParityCover`], builds the checker:
//!
//! * **parity trees** — `q` XOR trees compacting the actual next-state/
//!   output bits (lossless compaction of the monitored responses);
//! * **prediction logic** — `q` Boolean functions of (input, present
//!   state) computing the expected parities; synthesized via truth
//!   tables → ISOP interval (invalid state codes as don't-cares, which
//!   is sound: invalid codes are unreachable fault-free, and any
//!   mismatch they cause post-error only *adds* detection) → gates;
//! * **comparator** — `q` XORs and an OR tree raising `ERROR`;
//! * **hold registers** — `2q` flip-flops so comparison happens one
//!   cycle later and state-register faults are also caught (after
//!   Zeng/Saxena/McCluskey, the paper's reference 16).
//!
//! The netlist takes `r + s + n` inputs (primary inputs, present state,
//! actual monitored bits) and produces the single error output; the
//! flip-flops are accounted for in the cost, not the combinational
//! netlist.

use crate::ip::ParityCover;
use ced_fsm::encoded::FsmCircuit;
use ced_logic::gate::CellLibrary;
use ced_logic::isop::isop;
use ced_logic::netlist::{NetId, Netlist, NetlistBuilder};
use ced_logic::truth::Truth;
use ced_logic::MinimizeOptions;
use ced_sim::tables::TransitionTables;

/// A synthesized bounded-latency CED checker.
#[derive(Debug, Clone)]
pub struct CedHardware {
    netlist: Netlist,
    masks: Vec<u64>,
    latency: usize,
    num_inputs: usize,
    state_bits: usize,
    monitored_bits: usize,
}

/// Cost summary of a checker (or of the duplication baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CedCost {
    /// Number of parity functions `q` (`n` for duplication).
    pub parity_functions: usize,
    /// Mapped combinational gate count.
    pub gates: usize,
    /// Total area: combinational + flip-flops.
    pub area: f64,
    /// Flip-flops (hold registers; plus the duplicate state register in
    /// the duplication baseline).
    pub flip_flops: usize,
}

impl CedHardware {
    /// The checker's combinational netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The parity masks implemented.
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// The latency bound the cover was proven for.
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// Costs under a cell library.
    pub fn cost(&self, library: &CellLibrary) -> CedCost {
        let ffs = 2 * self.masks.len();
        CedCost {
            parity_functions: self.masks.len(),
            gates: self.netlist.gate_count(),
            area: self.netlist.area(library) + ffs as f64 * library.dff,
            flip_flops: ffs,
        }
    }

    /// Evaluates the checker for one transition: does the comparator
    /// flag a mismatch between the predicted parities (from `input`,
    /// `state`) and the actual monitored bits? A one-lane
    /// [`CedHardware::flags_words`].
    ///
    /// # Panics
    ///
    /// As [`CedHardware::pack_lane`].
    pub fn flags(&self, state: u64, input: u64, actual_bits: u64) -> bool {
        let mut words = self.lane_words();
        self.pack_lane(&mut words, 0, state, input, actual_bits);
        self.flags_words(&words, &mut Vec::new()) & 1 == 1
    }

    /// Zeroed packed checker inputs: one word per netlist input
    /// (`r + s + n`), 64 transitions (lanes) per word.
    pub fn lane_words(&self) -> Vec<u64> {
        vec![0; self.netlist.num_inputs()]
    }

    /// Packs one transition into `lane` of `words` (from
    /// [`CedHardware::lane_words`]) in the order `synthesize_ced` wires
    /// the checker inputs: primary inputs in positions `0..r`,
    /// present-state bits in `r..r+s`, monitored actual bits in
    /// `r+s..r+s+n`. The lane must be clear: bits are ORed in.
    ///
    /// # Panics
    ///
    /// Panics if `lane ≥ 64` or `state`/`input` exceed their bit
    /// widths.
    pub fn pack_lane(&self, words: &mut [u64], lane: usize, state: u64, input: u64, actual: u64) {
        assert!(lane < 64, "a word holds 64 lanes");
        assert!(state.checked_shr(self.state_bits as u32).unwrap_or(0) == 0);
        assert!(input.checked_shr(self.num_inputs as u32).unwrap_or(0) == 0);
        let r = self.num_inputs;
        let s = self.state_bits;
        let fields = [
            (input, 0, r),
            (state, r, s),
            (actual, r + s, self.monitored_bits),
        ];
        for (value, base, width) in fields {
            for (bit, word) in words[base..base + width].iter_mut().enumerate() {
                *word |= ((value >> bit) & 1) << lane;
            }
        }
    }

    /// Evaluates the checker on the 64 lanes of packed `words` and
    /// returns the `ERROR` word (bit `k` = lane `k` flags), reusing
    /// `values` as the per-net scratch of
    /// [`Netlist::eval_words_into`].
    ///
    /// # Panics
    ///
    /// Panics if `words` is not one word per checker input.
    pub fn flags_words(&self, words: &[u64], values: &mut Vec<u64>) -> u64 {
        self.netlist.eval_words_into(words, values);
        values[self.netlist.outputs()[0].index()]
    }
}

/// Synthesizes the Fig. 3 checker for a circuit and verified cover.
///
/// # Panics
///
/// Panics if `latency == 0` or the circuit interface exceeds the
/// supported sizes (`r + s ≤ 24` truth-table variables).
pub fn synthesize_ced(
    circuit: &FsmCircuit,
    cover: &ParityCover,
    latency: usize,
    options: &MinimizeOptions,
) -> CedHardware {
    assert!(latency >= 1, "latency bound must be at least 1");
    let r = circuit.num_inputs();
    let s = circuit.state_bits();
    let n = circuit.total_bits();
    let vars = r + s;
    let good = TransitionTables::good(circuit);

    // Truth tables of the monitored-bit functions b_j(input, state).
    let bit_tables: Vec<Truth> = (0..n)
        .map(|j| {
            Truth::from_fn(vars, |m| {
                let input = m & ((1u64 << r) - 1);
                let code = m >> r;
                (good.response(code, input) >> j) & 1 == 1
            })
        })
        .collect();

    // Valid-state indicator over the r+s input space (states live in the
    // high variables).
    let valid_codes = circuit_valid_codes(circuit);
    let valid = Truth::from_fn(vars, |m| valid_codes[(m >> r) as usize]);

    let mut builder = NetlistBuilder::new(vars + n);
    let ps_inputs: Vec<NetId> = (0..vars).map(|i| builder.input(i)).collect();
    let monitored: Vec<NetId> = (0..n).map(|j| builder.input(vars + j)).collect();

    // Per-bit predictor covers (interval: exact on valid codes, free on
    // invalid ones), built lazily — the structural predictor form shares
    // them across masks through structural hashing.
    let mut bit_covers: Vec<Option<ced_logic::Cover>> = vec![None; n];
    let bit_cover = |j: usize, tables: &[Truth]| -> ced_logic::Cover {
        let lower = tables[j].and(&valid);
        let upper = tables[j].or(&valid.not());
        isop(&lower, &upper)
    };

    let mut compare_bits: Vec<NetId> = Vec::with_capacity(cover.masks.len());
    for &mask in &cover.masks {
        let taps: Vec<usize> = (0..n).filter(|j| (mask >> j) & 1 == 1).collect();

        // Predicted parity = XOR of the selected good bit-functions,
        // invalid codes as don't-cares. Two realizations:
        //  (a) flat: one minimized SOP of the XOR-composed function;
        //  (b) structural: re-derive each selected bit function and XOR
        //      them (the DATE'03 predictor shape, sharing logic with
        //      other masks).
        // Pick by estimated literal cost — a single complex parity
        // function can cost more than several simple ones, the effect
        // behind the paper's dk16 anomaly (§5).
        let selected: Vec<&Truth> = taps.iter().map(|&j| &bit_tables[j]).collect();
        let parity = Truth::parity_of(&selected);
        let lower = parity.and(&valid);
        let upper = parity.or(&valid.not());
        let flat = isop(&lower, &upper);

        for &j in &taps {
            if bit_covers[j].is_none() {
                bit_covers[j] = Some(bit_cover(j, &bit_tables));
            }
        }
        let structural_literals: usize = taps
            .iter()
            .map(|&j| bit_covers[j].as_ref().expect("built above").literal_count())
            .sum::<usize>()
            + 3 * taps.len().saturating_sub(1); // XOR tree weight

        let predicted = if flat.literal_count() <= structural_literals {
            let minimized = ced_logic::decompose::minimize_output(
                &flat,
                &ced_logic::Cover::empty(vars),
                vars,
                options,
            );
            ced_logic::decompose::sop_to_net(&mut builder, &minimized, &ps_inputs)
        } else {
            let parts: Vec<NetId> = taps
                .iter()
                .map(|&j| {
                    let c = bit_covers[j].as_ref().expect("built above");
                    ced_logic::decompose::sop_to_net(&mut builder, c, &ps_inputs)
                })
                .collect();
            builder.xor_tree(&parts)
        };

        // Actual parity: XOR tree over the monitored bits in the mask.
        let tap_nets: Vec<NetId> = taps.iter().map(|&j| monitored[j]).collect();
        let actual = builder.xor_tree(&tap_nets);

        // Comparator bit.
        compare_bits.push(builder.xor(predicted, actual));
    }
    let error = builder.or_tree(&compare_bits);
    builder.mark_output(error);

    CedHardware {
        netlist: builder.finish(),
        masks: cover.masks.clone(),
        latency,
        num_inputs: r,
        state_bits: s,
        monitored_bits: n,
    }
}

/// Which state codes are valid for this circuit. Codes are "valid" when
/// they are reachable from reset in the fault-free machine — the states
/// the register can actually hold during correct operation.
fn circuit_valid_codes(circuit: &FsmCircuit) -> Vec<bool> {
    let good = TransitionTables::good(circuit);
    let mut valid = vec![false; 1 << circuit.state_bits()];
    for c in good.reachable_codes() {
        valid[c as usize] = true;
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;

    fn circuit() -> FsmCircuit {
        let fsm = suite::serial_adder();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn checker_is_silent_on_correct_operation() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        for code in good.reachable_codes() {
            for input in 0..(1u64 << c.num_inputs()) {
                let actual = good.response(code, input);
                assert!(
                    !ced.flags(code, input, actual),
                    "false alarm at state {code}, input {input}"
                );
            }
        }
    }

    #[test]
    fn checker_flags_odd_corruptions() {
        let c = circuit();
        let n = c.total_bits();
        let cover = ParityCover::singletons(n);
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        let code = c.reset_code();
        let input = 0u64;
        let actual = good.response(code, input);
        // Flip any single monitored bit: a singleton cover must notice.
        for j in 0..n {
            assert!(
                ced.flags(code, input, actual ^ (1 << j)),
                "bit {j} corruption escaped"
            );
        }
    }

    #[test]
    fn parity_cancellation_at_hardware_level() {
        let c = circuit();
        let n = c.total_bits();
        // A single mask over the two lowest bits: flipping both is even
        // parity and must NOT flag (this is exactly why several trees or
        // latency are needed).
        let cover = ParityCover::new(vec![0b11]);
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        let code = c.reset_code();
        let actual = good.response(code, 0);
        assert!(ced.flags(code, 0, actual ^ 0b01));
        assert!(!ced.flags(code, 0, actual ^ 0b11), "even flip flagged");
        assert!(n >= 2);
    }

    /// `ERROR` of the checker with `fault` injected into its own
    /// netlist, for one transition packed into lane 0.
    fn faulty_flag(
        ced: &CedHardware,
        state: u64,
        input: u64,
        actual: u64,
        fault: ced_sim::fault::Fault,
    ) -> bool {
        let mut words = ced.lane_words();
        ced.pack_lane(&mut words, 0, state, input, actual);
        ced_sim::eval::eval_outputs_faulty(ced.netlist(), &words, fault)[0] & 1 == 1
    }

    #[test]
    fn stuck_error_output_masks_or_forces_the_flag() {
        use ced_sim::fault::Fault;
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        let code = c.reset_code();
        let actual = good.response(code, 0);
        let error_net = ced.netlist().outputs()[0];
        // ERROR stuck-at-0: every corruption is silently swallowed.
        for j in 0..c.total_bits() {
            assert!(!faulty_flag(
                &ced,
                code,
                0,
                actual ^ (1 << j),
                Fault::new(error_net, false)
            ));
        }
        // ERROR stuck-at-1: even correct operation raises the alarm.
        assert!(faulty_flag(
            &ced,
            code,
            0,
            actual,
            Fault::new(error_net, true)
        ));
    }

    #[test]
    fn faulty_eval_with_silent_fault_matches_clean_eval() {
        use ced_sim::fault::Fault;
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        let code = c.reset_code();
        let actual = good.response(code, 0);
        // A fault whose stuck value coincides with the net's value on
        // this pattern cannot change the answer; check via both
        // polarities of the error net on a flagged transition.
        let error_net = ced.netlist().outputs()[0];
        let corrupted = actual ^ 1;
        assert!(ced.flags(code, 0, corrupted));
        assert_eq!(
            faulty_flag(&ced, code, 0, corrupted, Fault::new(error_net, true)),
            ced.flags(code, 0, corrupted)
        );
    }

    #[test]
    fn word_flags_match_one_lane_flags() {
        // 64 transitions packed into one word answer lane by lane what
        // 64 one-lane calls answer.
        let c = circuit();
        let n = c.total_bits();
        let cover = ParityCover::new(vec![0b11]);
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let good = TransitionTables::good(&c);
        let codes = good.reachable_codes();
        let mut words = ced.lane_words();
        let mut lanes = Vec::new();
        for lane in 0..64 {
            let code = codes[lane % codes.len()];
            let input = (lane as u64 / 3) & ((1 << c.num_inputs()) - 1);
            let actual = good.response(code, input) ^ ((lane as u64 * 7) & ((1 << n) - 1));
            ced.pack_lane(&mut words, lane, code, input, actual);
            lanes.push((code, input, actual));
        }
        let flags = ced.flags_words(&words, &mut Vec::new());
        for (lane, &(code, input, actual)) in lanes.iter().enumerate() {
            assert_eq!((flags >> lane) & 1 == 1, ced.flags(code, input, actual));
        }
        assert_ne!(flags, 0);
        assert_ne!(flags, u64::MAX);
    }

    #[test]
    fn cost_accounts_hold_registers() {
        let c = circuit();
        let cover = ParityCover::new(vec![0b01, 0b10]);
        let ced = synthesize_ced(&c, &cover, 2, &MinimizeOptions::default());
        let lib = CellLibrary::new();
        let cost = ced.cost(&lib);
        assert_eq!(cost.parity_functions, 2);
        assert_eq!(cost.flip_flops, 4);
        assert!(cost.area > ced.netlist().area(&lib));
        assert!(cost.gates > 0);
        assert_eq!(ced.latency(), 2);
    }

    #[test]
    fn fewer_parity_functions_cost_less() {
        let c = circuit();
        let n = c.total_bits();
        let lib = CellLibrary::new();
        let small = synthesize_ced(
            &c,
            &ParityCover::new(vec![0b1]),
            1,
            &MinimizeOptions::default(),
        );
        let large = synthesize_ced(
            &c,
            &ParityCover::singletons(n),
            1,
            &MinimizeOptions::default(),
        );
        assert!(small.cost(&lib).area < large.cost(&lib).area);
    }
}
