//! Transition-table extraction from synthesized FSM circuits.
//!
//! For fault simulation and path enumeration, the symbolic machine is
//! too slow and — more importantly — wrong: the physical behaviour on
//! don't-care inputs and invalid state codes is whatever the synthesized
//! netlist does. [`TransitionTables`] therefore tabulates the *netlist*
//! over every `(state code, input)` pair, including unused codes a
//! faulty machine may wander into, using 64-way bit-parallel evaluation.
//!
//! Per-fault extraction goes through [`FaultTables`]: the fault-free
//! net values of every 64-pattern batch are computed once, and each
//! fault set re-evaluates only its fanout cone against them (DESIGN.md
//! §15.6).

use crate::eval::{eval_words_faulty_into, Fanouts, FaultCone};
use crate::fault::Fault;
use ced_fsm::encoded::FsmCircuit;
use ced_logic::netlist::Netlist;
use ced_runtime::{Budget, Interrupted};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;

/// Most input + state bits a transition table is addressed by: the
/// tables hold `2^(r+s)` entries, so this caps them at 16 Mi.
pub const MAX_ADDRESS_BITS: usize = 24;

// Self-loop completion refuses exactly the partial machines whose
// inputs alone overflow a table address.
const _: () = assert!(ced_fsm::machine::MAX_COMPLETION_INPUTS == MAX_ADDRESS_BITS);

/// Most state + output bits a response mask holds (one `u64`).
pub const MAX_RESPONSE_BITS: usize = 64;

/// Most fault-free net words [`FaultTables`] caches (8 MiB). Batches
/// past the bound recompute their fault-free words on every fault set.
const CACHE_WORDS: usize = (8 << 20) / std::mem::size_of::<u64>();

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

/// Input words of the batch of patterns `base..base + batch`: pattern
/// `base + t` is lane `t`, its input bits the low `r` address bits and
/// its state the high `s`.
fn pattern_words(base: usize, batch: usize, words: &mut [u64]) {
    for (v, w) in words.iter_mut().enumerate() {
        let mut word = 0u64;
        for t in 0..batch {
            if ((base + t) >> v) & 1 == 1 {
                word |= 1 << t;
            }
        }
        *w = word;
    }
}

/// Runs the netlist with `faults` injected over the first `batches`
/// 64-pattern batches, handing `f` each batch's index, first pattern,
/// pattern count and net words.
fn for_each_batch(
    circuit: &FsmCircuit,
    faults: &[Fault],
    batches: usize,
    mut f: impl FnMut(usize, usize, usize, &[u64]),
) {
    let total = 1usize << (circuit.num_inputs() + circuit.state_bits());
    let mut in_words = vec![0u64; circuit.num_inputs() + circuit.state_bits()];
    let mut values = Vec::new();
    for (b, base) in (0..total).step_by(64).take(batches).enumerate() {
        let batch = (total - base).min(64);
        pattern_words(base, batch, &mut in_words);
        eval_words_faulty_into(circuit.netlist(), &in_words, faults, &mut values);
        f(b, base, batch, &values);
    }
}

/// Per-thread scratch of [`FaultTables::faulty`], reused across calls.
#[derive(Default)]
struct ExtractScratch {
    cone: FaultCone,
    /// Output slots `(k, net)` the cone reaches.
    slots: Vec<(usize, usize)>,
    in_words: Vec<u64>,
    /// Fault-free net words of an uncached batch.
    values: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<ExtractScratch> = RefCell::default();
}

impl TransitionTables {
    /// Extracts the fault-free tables of a circuit.
    ///
    /// # Panics
    ///
    /// Panics if `r + s > 24` (table would exceed 16M entries) or
    /// `s + outputs > 64`.
    pub fn good(circuit: &FsmCircuit) -> TransitionTables {
        Self::pass(circuit, &[], 0).0
    }

    /// Extracts the tables of the circuit with every fault of `faults`
    /// injected at once (one net for a single stuck-at, the cluster
    /// for a multi-bit fault — see [`crate::fault::FaultModel::expand`];
    /// empty for the fault-free machine), in one whole-netlist pass.
    /// Per-fault loops share a [`FaultTables`] instead, which
    /// re-evaluates only each fault set's fanout cone.
    ///
    /// # Panics
    ///
    /// See [`TransitionTables::good`].
    pub fn faulty(circuit: &FsmCircuit, faults: &[Fault]) -> TransitionTables {
        Self::pass(circuit, faults, 0).0
    }

    /// The tables with `faults` injected, plus the net words of the
    /// first `cache_batches` 64-pattern batches (batch-major, one word
    /// per net).
    fn pass(
        circuit: &FsmCircuit,
        faults: &[Fault],
        cache_batches: usize,
    ) -> (TransitionTables, Vec<u64>) {
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
        let mut tables = TransitionTables {
            state_bits: s,
            num_inputs: r,
            num_outputs: o,
            next: vec![0u32; total],
            response: vec![0u64; total],
            reset_code: circuit.reset_code(),
        };
        let mut cache = Vec::with_capacity(cache_batches * netlist.gates().len());
        for_each_batch(
            circuit,
            faults,
            total.div_ceil(64),
            |b, base, batch, values| {
                tables.write_batch(netlist, values, base, batch);
                if b < cache_batches {
                    cache.extend_from_slice(values);
                }
            },
        );
        (tables, cache)
    }

    /// Overwrites the entries of patterns `base..base + batch` with the
    /// output words of one evaluated batch.
    fn write_batch(&mut self, netlist: &Netlist, values: &[u64], base: usize, batch: usize) {
        let s = self.state_bits;
        for t in 0..batch {
            let mut resp = 0u64;
            for (k, out_net) in netlist.outputs().iter().enumerate() {
                resp |= ((values[out_net.index()] >> t) & 1) << k;
            }
            self.next[base + t] = (resp & ((1u64 << s) - 1)) as u32;
            self.response[base + t] = resp;
        }
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

/// Per-fault transition-table extractor over one circuit.
///
/// Setup computes the fault-free net words of every 64-pattern batch
/// once (up to an 8 MiB cache), the netlist's fanout lists and the
/// good tables. [`FaultTables::faulty`] then starts from the good
/// tables and, per batch, re-evaluates only the fault set's fanout
/// cone ([`FaultCone`]) against the batch's fault-free words, patching
/// just the lanes of output slots whose word changed. A batch past the
/// cache bound recomputes its fault-free words first. Either way the
/// tables equal a whole-netlist pass ([`TransitionTables::faulty`]),
/// which the crate's differential tests pin.
///
/// One extractor serves any number of threads; each keeps its own
/// cone scratch.
#[derive(Debug)]
pub struct FaultTables<'a> {
    circuit: &'a FsmCircuit,
    fanouts: Fanouts,
    good: Cow<'a, TransitionTables>,
    /// Fault-free net words of batches `0..cached`, batch-major.
    cache: Vec<u64>,
    cached: usize,
}

impl<'a> FaultTables<'a> {
    /// Builds the extractor: one fault-free pass over every batch.
    ///
    /// # Panics
    ///
    /// See [`TransitionTables::good`].
    pub fn new(circuit: &'a FsmCircuit) -> FaultTables<'a> {
        Self::with_cache_bound(circuit, None, CACHE_WORDS)
    }

    /// Builds the extractor over the circuit's already extracted good
    /// tables (`good` must be [`TransitionTables::good`] of `circuit`):
    /// setup evaluates only the batches it caches.
    pub fn with_good(circuit: &'a FsmCircuit, good: &'a TransitionTables) -> FaultTables<'a> {
        Self::with_cache_bound(circuit, Some(good), CACHE_WORDS)
    }

    /// [`FaultTables::new`] or [`FaultTables::with_good`], caching at
    /// most `cache_words` net words.
    pub(crate) fn with_cache_bound(
        circuit: &'a FsmCircuit,
        good: Option<&'a TransitionTables>,
        cache_words: usize,
    ) -> FaultTables<'a> {
        let netlist = circuit.netlist();
        let gates = netlist.gates().len().max(1);
        let batches = (1usize << (circuit.num_inputs() + circuit.state_bits())).div_ceil(64);
        let cached = (cache_words / gates).min(batches);
        let (good, cache) = match good {
            Some(good) => {
                let mut cache = Vec::with_capacity(cached * netlist.gates().len());
                for_each_batch(circuit, &[], cached, |_, _, _, values| {
                    cache.extend_from_slice(values)
                });
                (Cow::Borrowed(good), cache)
            }
            None => {
                let (good, cache) = TransitionTables::pass(circuit, &[], cached);
                (Cow::Owned(good), cache)
            }
        };
        FaultTables {
            circuit,
            fanouts: Fanouts::new(netlist),
            good,
            cache,
            cached,
        }
    }

    /// The fault-free tables.
    pub fn good(&self) -> &TransitionTables {
        &self.good
    }

    /// The tables with every fault of `faults` injected at once (see
    /// [`TransitionTables::faulty`]). Under a budget, charges one work
    /// unit per 64-pattern batch and checks the budget between
    /// batches, so a fired token or an exhausted cap stops the
    /// `2^(r+s)` sweep promptly.
    ///
    /// # Errors
    ///
    /// The budget's interruption; no partial tables are returned
    /// (extraction is cheap to redo relative to enumeration).
    pub fn faulty(
        &self,
        faults: &[Fault],
        budget: Option<&Budget>,
    ) -> Result<TransitionTables, Interrupted> {
        let netlist = self.circuit.netlist();
        let gates = netlist.gates().len();
        let s = self.good.state_bits;
        let total = self.good.next.len();
        let mut tables = TransitionTables::clone(&self.good);
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let ExtractScratch {
                cone,
                slots,
                in_words,
                values,
            } = &mut *scratch;
            cone.mark(netlist, &self.fanouts, faults);
            slots.clear();
            slots.extend(
                netlist
                    .outputs()
                    .iter()
                    .enumerate()
                    .map(|(k, o)| (k, o.index()))
                    .filter(|&(_, net)| cone.contains(net)),
            );
            in_words.resize(self.good.num_inputs + s, 0);
            for (b, base) in (0..total).step_by(64).enumerate() {
                if let Some(budget) = budget {
                    budget.tick(1, "tables:extract")?;
                }
                // A cone reaching no output slot leaves the good tables.
                if slots.is_empty() {
                    continue;
                }
                let batch = (total - base).min(64);
                let good = if b < self.cached {
                    &self.cache[b * gates..(b + 1) * gates]
                } else {
                    pattern_words(base, batch, in_words);
                    netlist.eval_words_into(in_words, values);
                    &values[..]
                };
                cone.eval(netlist, good);
                let lanes = u64::MAX >> (64 - batch);
                for &(k, net) in slots.iter() {
                    let mut changed = (cone.value(net) ^ good[net]) & lanes;
                    while changed != 0 {
                        let idx = base + changed.trailing_zeros() as usize;
                        changed &= changed - 1;
                        tables.response[idx] ^= 1 << k;
                        if k < s {
                            tables.next[idx] ^= 1 << k;
                        }
                    }
                }
            }
            Ok(tables)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
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

    fn scaled(name: &str, strategy: EncodingStrategy) -> FsmCircuit {
        let spec = suite::paper_table1_scaled()
            .into_iter()
            .find(|s| s.name == name)
            .expect("a scaled Table-1 machine");
        let fsm = spec.build();
        let enc = assign(&fsm, strategy);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    /// The whole-netlist reference: one tick per batch, then one
    /// faulty pass over every batch.
    fn reference(
        circuit: &FsmCircuit,
        faults: &[Fault],
        budget: &Budget,
    ) -> Result<TransitionTables, Interrupted> {
        let total = 1usize << (circuit.num_inputs() + circuit.state_bits());
        for _ in (0..total).step_by(64) {
            budget.tick(1, "tables:extract")?;
        }
        Ok(TransitionTables::faulty(circuit, faults))
    }

    /// Every fault set the differential injects: each collapsed fault
    /// expanded under every fault model (clusters of radius 1 and 2),
    /// plus a radius-1 cluster followed by the opposite-polarity
    /// radius-2 cluster — overlapping nets where the first listed
    /// fault must win.
    fn fault_sets(circuit: &FsmCircuit) -> Vec<Vec<Fault>> {
        let netlist = circuit.netlist();
        let models = [
            FaultModel::PermanentStuckAt,
            FaultModel::TransientSeu { duration: 2 },
            FaultModel::Intermittent { period: 2 },
            FaultModel::MultiBitCluster { radius: 1 },
            FaultModel::MultiBitCluster { radius: 2 },
        ];
        let mut sets = vec![Vec::new()];
        for seed in crate::fault::collapsed_faults(netlist) {
            for model in models {
                sets.push(model.expand(seed, netlist));
            }
            let flipped = Fault::new(seed.net, !seed.stuck_at);
            let mut overlap = FaultModel::MultiBitCluster { radius: 1 }.expand(seed, netlist);
            overlap.extend(FaultModel::MultiBitCluster { radius: 2 }.expand(flipped, netlist));
            sets.push(overlap);
        }
        sets
    }

    /// The extractor at `cache_words` equals the whole-netlist pass on
    /// every fault set, with equal tick totals, and stops at the same
    /// point under a tick cap.
    fn assert_matches_reference(circuit: &FsmCircuit, cache_words: usize) {
        let good = TransitionTables::good(circuit);
        let owned = FaultTables::with_cache_bound(circuit, None, cache_words);
        let borrowed = FaultTables::with_cache_bound(circuit, Some(&good), cache_words);
        assert_eq!(owned.cache, borrowed.cache);
        assert!(*owned.good() == good);
        let extractor = borrowed;
        let batches = (1usize << (circuit.num_inputs() + circuit.state_bits())).div_ceil(64);
        let cap = (batches as u64).div_ceil(2);
        for faults in fault_sets(circuit) {
            let (fast_budget, slow_budget) = (Budget::unlimited(), Budget::unlimited());
            let fast = extractor.faulty(&faults, Some(&fast_budget)).unwrap();
            let slow = reference(circuit, &faults, &slow_budget).unwrap();
            assert!(fast == slow, "tables differ for {faults:?}");
            assert_eq!(fast_budget.ticks(), slow_budget.ticks(), "{faults:?}");
            let (fast_budget, slow_budget) = (
                Budget::new().with_tick_cap(cap),
                Budget::new().with_tick_cap(cap),
            );
            let fast = extractor.faulty(&faults, Some(&fast_budget));
            let slow = reference(circuit, &faults, &slow_budget);
            assert_eq!(fast, slow, "interrupt point differs for {faults:?}");
            assert_eq!(fast_budget.ticks(), slow_budget.ticks(), "{faults:?}");
        }
        assert!(extractor.faulty(&[], None).unwrap() == TransitionTables::good(circuit));
    }

    #[test]
    fn fault_tables_match_whole_netlist_passes() {
        // The fixture (8 patterns) and dk512 (32) are one partial batch
        // each; one-hot s27 spans 16 whole batches.
        let onehot = scaled("s27", EncodingStrategy::OneHot);
        for c in [
            circuit(),
            scaled("dk512", EncodingStrategy::Natural),
            onehot,
        ] {
            let gates = c.netlist().gates().len();
            let batches = (1usize << (c.num_inputs() + c.state_bits())).div_ceil(64);
            // Fully cached, partly cached, and uncached.
            assert_matches_reference(&c, usize::MAX);
            assert_matches_reference(&c, gates * batches.div_ceil(2));
            assert_matches_reference(&c, 0);
        }
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
