//! Transition-table extraction from synthesized FSM circuits.
//!
//! For fault simulation and path enumeration, the symbolic machine is
//! too slow and — more importantly — wrong: the physical behaviour on
//! don't-care inputs and invalid state codes is whatever the synthesized
//! netlist does. [`TransitionTables`] therefore tabulates the *netlist*
//! over every `(state code, input)` pair, including unused codes a
//! faulty machine may wander into, using 64-way bit-parallel evaluation.

use crate::eval::eval_words_faulty_into;
use crate::fault::Fault;
use ced_fsm::encoded::FsmCircuit;
use ced_runtime::{Budget, Interrupted};
use std::collections::VecDeque;

/// Most input + state bits a transition table is addressed by: the
/// tables hold `2^(r+s)` entries, so this caps them at 16 Mi.
pub const MAX_ADDRESS_BITS: usize = 24;

// Self-loop completion refuses exactly the partial machines whose
// inputs alone overflow a table address.
const _: () = assert!(ced_fsm::machine::MAX_COMPLETION_INPUTS == MAX_ADDRESS_BITS);

/// Most state + output bits a response mask holds (one `u64`).
pub const MAX_RESPONSE_BITS: usize = 64;

/// Complete next-state/output tables of one machine (good or faulty).
///
/// Responses are `n`-bit masks with next-state bits in positions
/// `0..s` and primary outputs in `s..n`, matching the paper's
/// `b_1..b_s, b_{s+1}..b_n` ordering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionTables {
    state_bits: usize,
    num_inputs: usize,
    num_outputs: usize,
    /// `next[code << r | input]` = next state code.
    next: Vec<u32>,
    /// `response[code << r | input]` = n-bit response mask.
    response: Vec<u64>,
    reset_code: u64,
}

impl TransitionTables {
    /// Extracts the fault-free tables of a circuit.
    ///
    /// # Panics
    ///
    /// Panics if `r + s > 24` (table would exceed 16M entries) or
    /// `s + outputs > 64`.
    pub fn good(circuit: &FsmCircuit) -> TransitionTables {
        Self::faulty(circuit, &[])
    }

    /// Extracts the tables of the circuit with every fault of `faults`
    /// injected at once (one net for a single stuck-at, the cluster
    /// for a multi-bit fault — see [`crate::fault::FaultModel::expand`];
    /// empty for the fault-free machine).
    ///
    /// # Panics
    ///
    /// See [`TransitionTables::good`].
    pub fn faulty(circuit: &FsmCircuit, faults: &[Fault]) -> TransitionTables {
        match Self::extract(circuit, faults, None) {
            Ok(t) => t,
            Err(_) => unreachable!("extraction without a budget cannot be interrupted"),
        }
    }

    /// [`TransitionTables::faulty`] under a [`Budget`]: charges one
    /// work unit per 64-pattern evaluation batch and checks the budget
    /// between batches, so a fired token or an exhausted cap stops the
    /// `2^(r+s)` sweep promptly instead of running it to completion.
    ///
    /// # Errors
    ///
    /// The budget's interruption; no partial tables are returned
    /// (extraction is cheap to redo relative to enumeration).
    ///
    /// # Panics
    ///
    /// See [`TransitionTables::good`].
    pub fn faulty_budgeted(
        circuit: &FsmCircuit,
        faults: &[Fault],
        budget: &Budget,
    ) -> Result<TransitionTables, Interrupted> {
        Self::extract(circuit, faults, Some(budget))
    }

    fn extract(
        circuit: &FsmCircuit,
        faults: &[Fault],
        budget: Option<&Budget>,
    ) -> Result<TransitionTables, Interrupted> {
        let r = circuit.num_inputs();
        let s = circuit.state_bits();
        let o = circuit.num_outputs();
        assert!(
            r + s <= MAX_ADDRESS_BITS,
            "transition table too large: {} address bits",
            r + s
        );
        assert!(s + o <= MAX_RESPONSE_BITS, "response exceeds 64 bits");
        let netlist = circuit.netlist();
        let total = 1usize << (r + s);
        let mut next = vec![0u32; total];
        let mut response = vec![0u64; total];
        let mut in_words = vec![0u64; r + s];
        let mut values: Vec<u64> = Vec::new();

        let mut base = 0usize;
        while base < total {
            if let Some(b) = budget {
                b.tick(1, "tables:extract")?;
            }
            let batch = (total - base).min(64);
            // Pattern `base + t`: input bits = low r bits, state = high s.
            for (v, w) in in_words.iter_mut().enumerate() {
                let mut word = 0u64;
                for t in 0..batch {
                    let pat = (base + t) as u64;
                    if (pat >> v) & 1 == 1 {
                        word |= 1 << t;
                    }
                }
                *w = word;
            }
            eval_words_faulty_into(netlist, &in_words, faults, &mut values);
            let outs = netlist.outputs();
            for t in 0..batch {
                let idx = base + t;
                let mut code = 0u32;
                let mut resp = 0u64;
                for (k, out_net) in outs.iter().enumerate() {
                    let bit = (values[out_net.index()] >> t) & 1;
                    if bit == 1 {
                        resp |= 1 << k;
                        if k < s {
                            code |= 1 << k;
                        }
                    }
                }
                next[idx] = code;
                response[idx] = resp;
            }
            base += batch;
        }

        Ok(TransitionTables {
            state_bits: s,
            num_inputs: r,
            num_outputs: o,
            next,
            response,
            reset_code: circuit.reset_code(),
        })
    }

    /// `r`: input bits.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// `s`: state bits.
    pub fn state_bits(&self) -> usize {
        self.state_bits
    }

    /// Primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// The reset state code.
    pub fn reset_code(&self) -> u64 {
        self.reset_code
    }

    #[inline]
    fn index(&self, code: u64, input: u64) -> usize {
        debug_assert!(code < (1u64 << self.state_bits));
        debug_assert!(input < (1u64 << self.num_inputs));
        ((code << self.num_inputs) | input) as usize
    }

    /// Next state code from `code` on `input`.
    #[inline]
    pub fn next(&self, code: u64, input: u64) -> u64 {
        self.next[self.index(code, input)] as u64
    }

    /// The full `n`-bit response mask (next-state bits low, outputs high).
    #[inline]
    pub fn response(&self, code: u64, input: u64) -> u64 {
        self.response[self.index(code, input)]
    }

    /// Primary-output bits of the response.
    #[inline]
    pub fn output(&self, code: u64, input: u64) -> u64 {
        self.response(code, input) >> self.state_bits
    }

    /// State codes reachable from reset, as a bitmask-indexed vector.
    pub fn reachable_codes(&self) -> Vec<u64> {
        let mut seen = vec![false; 1 << self.state_bits];
        let mut order = Vec::new();
        let mut queue = VecDeque::new();
        seen[self.reset_code as usize] = true;
        queue.push_back(self.reset_code);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for input in 0..(1u64 << self.num_inputs) {
                let nx = self.next(c, input);
                if !seen[nx as usize] {
                    seen[nx as usize] = true;
                    queue.push_back(nx);
                }
            }
        }
        order
    }

    /// Per-transition difference masks against another machine over the
    /// same interface: `diff[code<<r | input] = response ⊕ other`.
    ///
    /// # Panics
    ///
    /// Panics if the interfaces differ.
    pub fn diff(&self, other: &TransitionTables) -> Vec<u64> {
        assert_eq!(self.num_inputs, other.num_inputs, "interface mismatch");
        assert_eq!(self.state_bits, other.state_bits, "interface mismatch");
        assert_eq!(self.num_outputs, other.num_outputs, "interface mismatch");
        self.response
            .iter()
            .zip(&other.response)
            .map(|(a, b)| a ^ b)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;

    fn circuit() -> FsmCircuit {
        let fsm = suite::sequence_detector();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn tables_match_stepwise_evaluation() {
        let c = circuit();
        let t = TransitionTables::good(&c);
        for code in 0..(1u64 << c.state_bits()) {
            for input in 0..(1u64 << c.num_inputs()) {
                let (next, out) = c.step(code, input);
                assert_eq!(t.next(code, input), next, "next({code},{input})");
                assert_eq!(t.output(code, input), out, "out({code},{input})");
                let resp = t.response(code, input);
                assert_eq!(resp & ((1 << c.state_bits()) - 1), next);
                assert_eq!(resp >> c.state_bits(), out);
            }
        }
    }

    #[test]
    fn reachable_codes_start_at_reset() {
        let c = circuit();
        let t = TransitionTables::good(&c);
        let reach = t.reachable_codes();
        assert_eq!(reach[0], c.reset_code());
        // The 4-state detector uses 4 of 4 codes; all should be reachable.
        assert_eq!(reach.len(), 4);
    }

    #[test]
    fn faulty_tables_differ_somewhere() {
        let c = circuit();
        let good = TransitionTables::good(&c);
        let faults = crate::fault::all_faults(c.netlist());
        // At least one fault must change some transition (the circuit is
        // not fully redundant).
        let mut any_diff = false;
        for f in faults {
            let bad = TransitionTables::faulty(&c, &[f]);
            let diff = good.diff(&bad);
            if diff.iter().any(|&d| d != 0) {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn diff_is_zero_against_self() {
        let c = circuit();
        let good = TransitionTables::good(&c);
        assert!(good.diff(&good).iter().all(|&d| d == 0));
    }

    #[test]
    fn stuck_output_fault_shows_in_output_bits() {
        let c = circuit();
        let good = TransitionTables::good(&c);
        // Fault the net driving the primary output (last netlist output).
        let out_net = *c.netlist().outputs().last().unwrap();
        let bad = TransitionTables::faulty(&c, &[Fault::new(out_net, true)]);
        let s = c.state_bits();
        let mut saw_output_diff = false;
        for code in 0..(1u64 << s) {
            for input in 0..(1u64 << c.num_inputs()) {
                let d = good.response(code, input) ^ bad.response(code, input);
                if d >> s != 0 {
                    saw_output_diff = true;
                }
            }
        }
        assert!(saw_output_diff, "sa1 on output net never visible");
    }
}
