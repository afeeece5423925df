//! Bit-parallel fault simulation primitives.
//!
//! Evaluates a combinational netlist under a set of injected stuck-at
//! faults, 64 patterns per pass (parallel-pattern fault propagation).
//! Each forced net keeps its stuck value regardless of its driver.
//!
//! Two forms share one semantics: [`eval_words_faulty_into`] re-runs
//! the whole netlist, while [`FaultCone`] re-evaluates only the nets a
//! fault set reaches against cached fault-free values — the same words
//! on every net, since a net outside the fanout cone of every forced
//! net computes its fault-free value by definition.

use crate::fault::Fault;
use ced_logic::gate::GateKind;
use ced_logic::netlist::Netlist;

/// Evaluates all nets with every fault of `faults` injected at once,
/// 64 patterns at once, reusing `values` as scratch (resized as
/// needed). An empty slice is the fault-free netlist; a multi-net slice
/// is a spatially-clustered fault.
///
/// # Panics
///
/// Panics if `inputs.len()` differs from the netlist's input count.
pub fn eval_words_faulty_into(
    netlist: &Netlist,
    inputs: &[u64],
    faults: &[Fault],
    values: &mut Vec<u64>,
) {
    assert_eq!(inputs.len(), netlist.num_inputs(), "input arity mismatch");
    let gates = netlist.gates();
    values.clear();
    values.resize(gates.len(), 0);
    // Gates are in topological order: evaluate the fault-free runs
    // between forced nets, visiting the (tiny) fault set once per
    // forced net rather than testing every gate against it.
    let mut start = 0;
    loop {
        let forced = faults
            .iter()
            .map(|f| f.net.index())
            .filter(|&i| (start..gates.len()).contains(&i))
            .min();
        let end = forced.unwrap_or(gates.len());
        for (i, g) in gates.iter().enumerate().take(end).skip(start) {
            values[i] = match g.kind {
                GateKind::Input => inputs[i],
                kind => kind.eval(values[g.fanin[0].index()], values[g.fanin[1].index()]),
            };
        }
        let Some(i) = forced else {
            return;
        };
        // The first listed fault on a net wins.
        let fault = faults.iter().find(|f| f.net.index() == i);
        values[i] = fault.expect("a listed net").forced_word();
        start = i + 1;
    }
}

/// Fanout lists of every net of a netlist, in compressed sparse rows:
/// the gates that read net `i` are `sinks[start[i]..start[i + 1]]`.
#[derive(Debug)]
pub struct Fanouts {
    start: Vec<u32>,
    sinks: Vec<u32>,
}

impl Fanouts {
    /// Collects every gate's fanins (up to its arity) into per-net
    /// fanout lists, each in ascending gate order (a gate reading one
    /// net twice is listed twice).
    pub fn new(netlist: &Netlist) -> Fanouts {
        let gates = netlist.gates();
        let mut start = vec![0u32; gates.len() + 1];
        for g in gates {
            for f in &g.fanin[..g.kind.arity()] {
                start[f.index() + 1] += 1;
            }
        }
        for i in 0..gates.len() {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut sinks = vec![0u32; start[gates.len()] as usize];
        for (i, g) in gates.iter().enumerate() {
            for f in &g.fanin[..g.kind.arity()] {
                sinks[fill[f.index()] as usize] = i as u32;
                fill[f.index()] += 1;
            }
        }
        Fanouts { start, sinks }
    }

    /// The gates reading `net`.
    fn of(&self, net: usize) -> &[u32] {
        &self.sinks[self.start[net] as usize..self.start[net + 1] as usize]
    }
}

/// The fanout cone of one fault set — every net a forced net drives,
/// directly or transitively, plus the forced nets themselves — with the
/// scratch to evaluate it. Reusable across fault sets and netlists:
/// [`FaultCone::mark`] resets only what the previous set touched.
#[derive(Debug, Default)]
pub struct FaultCone {
    /// Cone nets in topological order, each with the stuck word of the
    /// first listed fault on it (`None` for a driven net).
    nets: Vec<(u32, Option<u64>)>,
    in_cone: Vec<bool>,
    /// Faulty words of the cone nets after [`FaultCone::eval`].
    values: Vec<u64>,
}

impl FaultCone {
    /// Marks the fanout cone of `faults` in `netlist`, replacing the
    /// previous set's. The first listed fault on a net wins, as in
    /// [`eval_words_faulty_into`].
    pub fn mark(&mut self, netlist: &Netlist, fanouts: &Fanouts, faults: &[Fault]) {
        let n = netlist.gates().len();
        if self.in_cone.len() == n {
            for &(i, _) in &self.nets {
                self.in_cone[i as usize] = false;
            }
        } else {
            self.in_cone.clear();
            self.in_cone.resize(n, false);
        }
        self.nets.clear();
        self.values.resize(n, 0);
        for f in faults {
            let i = f.net.index();
            if !self.in_cone[i] {
                self.nets.push((i as u32, Some(f.forced_word())));
                self.in_cone[i] = true;
            }
        }
        // Breadth-first over the fanout lists; forced nets reached from
        // another forced net keep their stuck word.
        let mut head = 0;
        while let Some(&(i, _)) = self.nets.get(head) {
            head += 1;
            for &sink in fanouts.of(i as usize) {
                if !self.in_cone[sink as usize] {
                    self.nets.push((sink, None));
                    self.in_cone[sink as usize] = true;
                }
            }
        }
        // Gates are in topological order: index order evaluates every
        // cone fanin before its reader.
        self.nets.sort_unstable_by_key(|&(i, _)| i);
    }

    /// Whether `net` is in the marked cone.
    pub fn contains(&self, net: usize) -> bool {
        self.in_cone[net]
    }

    /// The marked cone's nets, in topological order.
    pub(crate) fn nets(&self) -> impl Iterator<Item = usize> + '_ {
        self.nets.iter().map(|&(i, _)| i as usize)
    }

    /// Evaluates the marked cone for one 64-pattern batch: forced nets
    /// take their stuck word and every other cone net its gate over its
    /// fanins, reading a fanin outside the cone from `good` (the
    /// batch's fault-free word of every net).
    pub fn eval(&mut self, netlist: &Netlist, good: &[u64]) {
        let gates = netlist.gates();
        for &(i, forced) in &self.nets {
            let i = i as usize;
            self.values[i] = match forced {
                Some(word) => word,
                None => {
                    let g = &gates[i];
                    let [a, b] = g.fanin.map(|f| {
                        let f = f.index();
                        if self.in_cone[f] {
                            self.values[f]
                        } else {
                            good[f]
                        }
                    });
                    g.kind.eval(a, b)
                }
            };
        }
    }

    /// The faulty word of a cone net after [`FaultCone::eval`].
    pub fn value(&self, net: usize) -> u64 {
        debug_assert!(self.in_cone[net], "net {net} is outside the cone");
        self.values[net]
    }
}

/// Faulty primary-output words for 64 patterns.
pub fn eval_outputs_faulty(netlist: &Netlist, inputs: &[u64], fault: Fault) -> Vec<u64> {
    let mut values = Vec::new();
    eval_words_faulty_into(netlist, inputs, &[fault], &mut values);
    netlist
        .outputs()
        .iter()
        .map(|o| values[o.index()])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_logic::netlist::{NetId, NetlistBuilder};

    /// One pattern, packed into lane 0 of the word-parallel evaluator.
    fn eval_single_faulty(netlist: &Netlist, inputs: &[bool], fault: Fault) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| u64::from(b)).collect();
        eval_outputs_faulty(netlist, &words, fault)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    fn and_netlist() -> (Netlist, NetId, NetId, NetId) {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let f = b.and(x, y);
        b.mark_output(f);
        (b.finish(), x, y, f)
    }

    #[test]
    fn stuck_output_overrides_logic() {
        let (n, _, _, f) = and_netlist();
        let sa0 = Fault::new(f, false);
        let sa1 = Fault::new(f, true);
        assert_eq!(eval_single_faulty(&n, &[true, true], sa0), vec![false]);
        assert_eq!(eval_single_faulty(&n, &[false, false], sa1), vec![true]);
    }

    #[test]
    fn stuck_input_propagates() {
        let (n, x, _, _) = and_netlist();
        let sa1 = Fault::new(x, true);
        // x stuck at 1: output = y.
        assert_eq!(eval_single_faulty(&n, &[false, true], sa1), vec![true]);
        assert_eq!(eval_single_faulty(&n, &[false, false], sa1), vec![false]);
    }

    #[test]
    fn fault_free_patterns_unaffected_elsewhere() {
        let (n, _, y, f) = and_netlist();
        // Fault on y does not change behaviour when y already has the
        // stuck value.
        let sa0 = Fault::new(y, false);
        assert_eq!(eval_single_faulty(&n, &[true, false], sa0), vec![false]);
        // Downstream of the fault, the good and faulty values coincide
        // when the stuck value matches.
        let good = n.eval_single(&[true, false]);
        assert_eq!(
            eval_single_faulty(&n, &[true, false], Fault::new(f, false)),
            good
        );
    }

    #[test]
    fn multi_fault_injection_forces_every_listed_net() {
        let (n, x, y, f) = and_netlist();
        let mut values = Vec::new();
        // x sa1 and y sa1 together: output is 1 everywhere.
        eval_words_faulty_into(
            &n,
            &[0b00, 0b00],
            &[Fault::new(x, true), Fault::new(y, true)],
            &mut values,
        );
        assert_eq!(values[f.index()] & 0b11, 0b11);
        // The set's order does not matter.
        let mut reversed = Vec::new();
        eval_words_faulty_into(
            &n,
            &[0b00, 0b00],
            &[Fault::new(y, true), Fault::new(x, true)],
            &mut reversed,
        );
        assert_eq!(reversed, values);
        // The empty set is the fault-free netlist.
        let mut good = Vec::new();
        n.eval_words_into(&[0b10, 0b11], &mut good);
        eval_words_faulty_into(&n, &[0b10, 0b11], &[], &mut values);
        assert_eq!(values, good);
    }

    #[test]
    fn word_parallel_matches_single_pattern() {
        let mut b = NetlistBuilder::new(3);
        let i: Vec<NetId> = (0..3).map(|k| b.input(k)).collect();
        let t = b.xor(i[0], i[1]);
        let g = b.or(t, i[2]);
        b.mark_output(g);
        b.mark_output(t);
        let n = b.finish();
        let fault = Fault::new(t, true);
        let mut inputs = vec![0u64; 3];
        for m in 0..8u64 {
            for v in 0..3 {
                if (m >> v) & 1 == 1 {
                    inputs[v] |= 1 << m;
                }
            }
        }
        let words = eval_outputs_faulty(&n, &inputs, fault);
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|v| (m >> v) & 1 == 1).collect();
            let single = eval_single_faulty(&n, &bits, fault);
            for (o, w) in words.iter().enumerate() {
                assert_eq!((w >> m) & 1 == 1, single[o], "pattern {m} output {o}");
            }
        }
    }
}
