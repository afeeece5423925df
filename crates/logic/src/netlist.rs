//! Combinational netlists with structural hashing.
//!
//! A [`Netlist`] is a DAG of at-most-2-input gates in topological order
//! (every fanin index precedes its consumer). [`NetlistBuilder`] performs
//! structural hashing (common-subexpression sharing), constant folding
//! and double-inverter elimination, so logic built from several covers
//! automatically shares structure — the mechanism by which parity trees
//! and predictors amortize cost, mirroring multi-level synthesis sharing.
//!
//! # Examples
//!
//! ```
//! use ced_logic::netlist::NetlistBuilder;
//!
//! let mut b = NetlistBuilder::new(2);
//! let x = b.input(0);
//! let y = b.input(1);
//! let f = b.xor(x, y);
//! b.mark_output(f);
//! let netlist = b.finish();
//! assert_eq!(netlist.eval_single(&[true, false]), vec![true]);
//! ```

use crate::gate::{CellLibrary, GateKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a net (gate output) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

impl NetId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gate {
    /// The gate function.
    pub kind: GateKind,
    /// Fanins; entries beyond `kind.arity()` are unused (set to self-id 0).
    pub fanin: [NetId; 2],
}

/// An immutable combinational netlist in topological order.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    num_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
}

impl Netlist {
    /// Reassembles a netlist from its raw parts (the exact gate list,
    /// in topological order, as returned by [`Netlist::gates`] and
    /// [`Netlist::outputs`]). Unlike [`NetlistBuilder`], no strashing
    /// or folding is applied, so a serialize → deserialize round trip
    /// reproduces the original structure gate-for-gate.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation: a
    /// non-`Input` gate in the input prefix (or vice versa), a fanin
    /// that does not precede its consumer, or an out-of-range output.
    pub fn from_parts(
        num_inputs: usize,
        gates: Vec<Gate>,
        outputs: Vec<NetId>,
    ) -> Result<Netlist, String> {
        if gates.len() < num_inputs {
            return Err(format!(
                "{} gates cannot hold {num_inputs} inputs",
                gates.len()
            ));
        }
        for (i, g) in gates.iter().enumerate() {
            let is_input = g.kind == GateKind::Input;
            if is_input != (i < num_inputs) {
                return Err(format!("gate {i}: {:?} misplaced in input prefix", g.kind));
            }
            for k in 0..g.kind.arity() {
                if g.fanin[k].index() >= i {
                    return Err(format!(
                        "gate {i}: fanin {} does not precede it",
                        g.fanin[k]
                    ));
                }
            }
        }
        for o in &outputs {
            if o.index() >= gates.len() {
                return Err(format!("output {o} out of range"));
            }
        }
        Ok(Netlist {
            num_inputs,
            gates,
            outputs,
        })
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// All nodes, inputs first, in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Primary output nets.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Number of logic gates (excluding inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| {
                !matches!(
                    g.kind,
                    GateKind::Input | GateKind::Const0 | GateKind::Const1
                )
            })
            .count()
    }

    /// Total mapped area under a cell library.
    pub fn area(&self, library: &CellLibrary) -> f64 {
        self.gates.iter().map(|g| library.area(g.kind)).sum()
    }

    /// Logic depth (longest input→output path, in gates).
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let a = g.kind.arity();
            let mut l = 0;
            if a >= 1 {
                l = l.max(level[g.fanin[0].index()] + 1);
            }
            if a >= 2 {
                l = l.max(level[g.fanin[1].index()] + 1);
            }
            level[i] = l;
        }
        self.outputs
            .iter()
            .map(|o| level[o.index()])
            .max()
            .unwrap_or(0)
    }

    /// Evaluates the netlist on 64 input patterns at once: bit `k` of
    /// `inputs[i]` is the value of input `i` in pattern `k`. Returns one
    /// word per net, in topological order.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        let mut values = vec![0u64; self.gates.len()];
        self.eval_words_into(inputs, &mut values);
        values
    }

    /// Like [`Netlist::eval_words`] but reuses a caller-provided buffer
    /// (resized as needed) to avoid per-call allocation in hot loops.
    pub fn eval_words_into(&self, inputs: &[u64], values: &mut Vec<u64>) {
        assert_eq!(inputs.len(), self.num_inputs, "input arity mismatch");
        values.clear();
        values.resize(self.gates.len(), 0);
        for (i, g) in self.gates.iter().enumerate() {
            values[i] = match g.kind {
                GateKind::Input => inputs[i],
                kind => {
                    let a = values[g.fanin[0].index()];
                    let b = values[g.fanin[1].index()];
                    kind.eval(a, b)
                }
            };
        }
    }

    /// Word-parallel output values for 64 patterns.
    pub fn eval_outputs_words(&self, inputs: &[u64]) -> Vec<u64> {
        let values = self.eval_words(inputs);
        self.outputs.iter().map(|o| values[o.index()]).collect()
    }

    /// Evaluates a single pattern; convenience for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval_single(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.eval_outputs_words(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect()
    }
}

/// Incremental netlist constructor with structural hashing.
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    gates: Vec<Gate>,
    outputs: Vec<NetId>,
    num_inputs: usize,
    const0: Option<NetId>,
    const1: Option<NetId>,
    strash: HashMap<(GateKind, NetId, NetId), NetId>,
}

impl NetlistBuilder {
    /// Creates a builder with `num_inputs` primary inputs (nets `0..n`).
    pub fn new(num_inputs: usize) -> NetlistBuilder {
        let gates = (0..num_inputs)
            .map(|_| Gate {
                kind: GateKind::Input,
                fanin: [NetId(0), NetId(0)],
            })
            .collect();
        NetlistBuilder {
            gates,
            outputs: Vec::new(),
            num_inputs,
            const0: None,
            const1: None,
            strash: HashMap::new(),
        }
    }

    /// The net of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_inputs`.
    pub fn input(&self, i: usize) -> NetId {
        assert!(i < self.num_inputs, "input {i} out of range");
        NetId(i as u32)
    }

    /// The constant-0 net (created on first use).
    pub fn const0(&mut self) -> NetId {
        if let Some(id) = self.const0 {
            return id;
        }
        let id = self.push(GateKind::Const0, NetId(0), NetId(0));
        self.const0 = Some(id);
        id
    }

    /// The constant-1 net (created on first use).
    pub fn const1(&mut self) -> NetId {
        if let Some(id) = self.const1 {
            return id;
        }
        let id = self.push(GateKind::Const1, NetId(0), NetId(0));
        self.const1 = Some(id);
        id
    }

    fn push(&mut self, kind: GateKind, a: NetId, b: NetId) -> NetId {
        let id = NetId(self.gates.len() as u32);
        self.gates.push(Gate {
            kind,
            fanin: [a, b],
        });
        id
    }

    fn kind_of(&self, id: NetId) -> GateKind {
        self.gates[id.index()].kind
    }

    fn is_const(&self, id: NetId) -> Option<bool> {
        match self.kind_of(id) {
            GateKind::Const0 => Some(false),
            GateKind::Const1 => Some(true),
            _ => None,
        }
    }

    /// Inverter with double-negation elimination and constant folding.
    pub fn not(&mut self, a: NetId) -> NetId {
        match self.kind_of(a) {
            GateKind::Const0 => return self.const1(),
            GateKind::Const1 => return self.const0(),
            GateKind::Not => return self.gates[a.index()].fanin[0],
            _ => {}
        }
        self.hashed(GateKind::Not, a, a)
    }

    /// 2-input AND with folding.
    pub fn and(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) | (_, Some(false)) => return self.const0(),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        self.hashed(GateKind::And, a, b)
    }

    /// 2-input OR with folding.
    pub fn or(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.is_const(a), self.is_const(b)) {
            (Some(true), _) | (_, Some(true)) => return self.const1(),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        self.hashed(GateKind::Or, a, b)
    }

    /// 2-input XOR with folding.
    pub fn xor(&mut self, a: NetId, b: NetId) -> NetId {
        match (self.is_const(a), self.is_const(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.const0();
        }
        self.hashed(GateKind::Xor, a, b)
    }

    /// 2-input NAND with folding.
    pub fn nand(&mut self, a: NetId, b: NetId) -> NetId {
        let g = self.and(a, b);
        self.not(g)
    }

    /// 2-input NOR with folding.
    pub fn nor(&mut self, a: NetId, b: NetId) -> NetId {
        let g = self.or(a, b);
        self.not(g)
    }

    fn hashed(&mut self, kind: GateKind, a: NetId, b: NetId) -> NetId {
        let (a, b) = if kind.is_commutative() && b < a {
            (b, a)
        } else {
            (a, b)
        };
        if let Some(&id) = self.strash.get(&(kind, a, b)) {
            return id;
        }
        let id = self.push(kind, a, b);
        self.strash.insert((kind, a, b), id);
        id
    }

    /// Balanced n-ary AND; the empty conjunction is constant 1.
    pub fn and_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(nets, |b, x, y| b.and(x, y), true)
    }

    /// Balanced n-ary OR; the empty disjunction is constant 0.
    pub fn or_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(nets, |b, x, y| b.or(x, y), false)
    }

    /// Balanced n-ary XOR (parity); the empty parity is constant 0.
    pub fn xor_tree(&mut self, nets: &[NetId]) -> NetId {
        self.tree(nets, |b, x, y| b.xor(x, y), false)
    }

    fn tree(
        &mut self,
        nets: &[NetId],
        mut op: impl FnMut(&mut Self, NetId, NetId) -> NetId,
        empty_is_one: bool,
    ) -> NetId {
        match nets.len() {
            0 => {
                if empty_is_one {
                    self.const1()
                } else {
                    self.const0()
                }
            }
            1 => nets[0],
            _ => {
                let mut layer: Vec<NetId> = nets.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    let mut it = layer.chunks(2);
                    for pair in &mut it {
                        if pair.len() == 2 {
                            next.push(op(self, pair[0], pair[1]));
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }

    /// Clears the structural-hashing table: nodes built afterwards are
    /// not merged with earlier structure. Used to synthesize logic
    /// cones independently (PLA-per-output style), which localizes
    /// fault effects to one cone — the structure classic FSM-CED
    /// analyses assume.
    pub fn clear_strash(&mut self) {
        self.strash.clear();
    }

    /// Declares `net` as the next primary output.
    pub fn mark_output(&mut self, net: NetId) {
        assert!(net.index() < self.gates.len(), "unknown net {net}");
        self.outputs.push(net);
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True iff no nodes exist (only possible with zero inputs).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Finalizes the netlist, sweeping nodes not reachable from outputs.
    pub fn finish(self) -> Netlist {
        // Mark reachable nodes (inputs are always kept to preserve
        // numbering).
        let mut live = vec![false; self.gates.len()];
        for i in 0..self.num_inputs {
            live[i] = true;
        }
        let mut stack: Vec<usize> = self.outputs.iter().map(|o| o.index()).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            let g = &self.gates[i];
            for k in 0..g.kind.arity() {
                stack.push(g.fanin[k].index());
            }
        }
        // Compact.
        let mut remap = vec![NetId(0); self.gates.len()];
        let mut gates = Vec::with_capacity(self.gates.len());
        for (i, g) in self.gates.iter().enumerate() {
            if live[i] {
                remap[i] = NetId(gates.len() as u32);
                let mut ng = *g;
                for k in 0..g.kind.arity() {
                    ng.fanin[k] = remap[g.fanin[k].index()];
                }
                // Unused fanin slots point at self for hygiene.
                for k in g.kind.arity()..2 {
                    ng.fanin[k] = remap[i];
                }
                gates.push(ng);
            }
        }
        let outputs = self.outputs.iter().map(|o| remap[o.index()]).collect();
        Netlist {
            num_inputs: self.num_inputs,
            gates,
            outputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_eval_xor() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let f = b.xor(x, y);
        b.mark_output(f);
        let n = b.finish();
        assert_eq!(n.eval_single(&[false, false]), vec![false]);
        assert_eq!(n.eval_single(&[true, false]), vec![true]);
        assert_eq!(n.eval_single(&[false, true]), vec![true]);
        assert_eq!(n.eval_single(&[true, true]), vec![false]);
    }

    #[test]
    fn strash_shares_structure() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let f1 = b.and(x, y);
        let f2 = b.and(y, x); // commuted — must hash to the same node
        assert_eq!(f1, f2);
        let g1 = b.not(f1);
        let g2 = b.not(f2);
        assert_eq!(g1, g2);
    }

    #[test]
    fn double_negation_eliminated() {
        let mut b = NetlistBuilder::new(1);
        let x = b.input(0);
        let nx = b.not(x);
        let nnx = b.not(nx);
        assert_eq!(nnx, x);
    }

    #[test]
    fn constant_folding() {
        let mut b = NetlistBuilder::new(1);
        let x = b.input(0);
        let one = b.const1();
        let zero = b.const0();
        assert_eq!(b.and(x, one), x);
        assert_eq!(b.and(x, zero), zero);
        assert_eq!(b.or(x, zero), x);
        assert_eq!(b.or(x, one), one);
        assert_eq!(b.xor(x, zero), x);
        let nx = b.not(x);
        assert_eq!(b.xor(x, one), nx);
        assert_eq!(b.xor(x, x), zero);
        assert_eq!(b.and(x, x), x);
    }

    #[test]
    fn trees_balanced_and_correct() {
        let mut b = NetlistBuilder::new(5);
        let ins: Vec<NetId> = (0..5).map(|i| b.input(i)).collect();
        let f = b.xor_tree(&ins);
        b.mark_output(f);
        let n = b.finish();
        for m in 0..32u64 {
            let bits: Vec<bool> = (0..5).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(n.eval_single(&bits)[0], m.count_ones() % 2 == 1);
        }
        // Depth of a balanced 5-leaf tree is 3.
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn empty_trees() {
        let mut b = NetlistBuilder::new(0);
        let t = b.and_tree(&[]);
        let z = b.or_tree(&[]);
        b.mark_output(t);
        b.mark_output(z);
        let n = b.finish();
        assert_eq!(n.eval_single(&[]), vec![true, false]);
    }

    #[test]
    fn dead_node_sweep() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let _dead = b.xor(x, y);
        let live = b.and(x, y);
        b.mark_output(live);
        let n = b.finish();
        // 2 inputs + 1 AND survive.
        assert_eq!(n.gates().len(), 3);
        assert_eq!(n.gate_count(), 1);
    }

    #[test]
    fn word_parallel_matches_single() {
        let mut b = NetlistBuilder::new(3);
        let i: Vec<NetId> = (0..3).map(|k| b.input(k)).collect();
        let t1 = b.and(i[0], i[1]);
        let f = b.xor(t1, i[2]);
        b.mark_output(f);
        let n = b.finish();
        // Pack all 8 patterns into words.
        let mut inputs = vec![0u64; 3];
        for m in 0..8u64 {
            for v in 0..3 {
                if (m >> v) & 1 == 1 {
                    inputs[v] |= 1 << m;
                }
            }
        }
        let out = n.eval_outputs_words(&inputs)[0];
        for m in 0..8u64 {
            let bits: Vec<bool> = (0..3).map(|v| (m >> v) & 1 == 1).collect();
            assert_eq!((out >> m) & 1 == 1, n.eval_single(&bits)[0]);
        }
    }

    #[test]
    fn area_and_gate_count() {
        let mut b = NetlistBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let a = b.and(x, y);
        let f = b.not(a);
        b.mark_output(f);
        let n = b.finish();
        assert_eq!(n.gate_count(), 2);
        let lib = CellLibrary::new();
        assert_eq!(n.area(&lib), lib.and2 + lib.inv);
    }

    #[test]
    fn from_parts_round_trips_exact_structure() {
        let mut b = NetlistBuilder::new(3);
        let i: Vec<NetId> = (0..3).map(|k| b.input(k)).collect();
        let t = b.nand(i[0], i[1]);
        let f = b.xor(t, i[2]);
        b.mark_output(f);
        b.mark_output(t);
        let n = b.finish();
        let back =
            Netlist::from_parts(n.num_inputs(), n.gates().to_vec(), n.outputs().to_vec()).unwrap();
        assert_eq!(back, n);
    }

    #[test]
    fn from_parts_rejects_malformed_structure() {
        let input = Gate {
            kind: GateKind::Input,
            fanin: [NetId(0), NetId(0)],
        };
        let and = |a: u32, b: u32| Gate {
            kind: GateKind::And,
            fanin: [NetId(a), NetId(b)],
        };
        // Non-input gate inside the input prefix.
        assert!(Netlist::from_parts(2, vec![input, and(0, 0)], vec![]).is_err());
        // Fanin that does not precede its consumer.
        assert!(Netlist::from_parts(2, vec![input, input, and(0, 2)], vec![]).is_err());
        // Output out of range.
        assert!(Netlist::from_parts(1, vec![input], vec![NetId(3)]).is_err());
        // Fewer gates than inputs.
        assert!(Netlist::from_parts(2, vec![input], vec![]).is_err());
        // Valid case still accepted.
        assert!(Netlist::from_parts(2, vec![input, input, and(0, 1)], vec![NetId(2)]).is_ok());
    }

    #[test]
    fn depth_of_constant_output() {
        let mut b = NetlistBuilder::new(1);
        let c = b.const1();
        b.mark_output(c);
        let n = b.finish();
        assert_eq!(n.depth(), 0);
    }
}
