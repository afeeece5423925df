//! Symbolic finite state machines (the KISS2 level of abstraction).
//!
//! An [`Fsm`] is a Mealy machine over symbolic states: transitions carry
//! an input cube (ternary, so one line can cover many input vectors), a
//! present state, a next state, and a ternary output vector. This is the
//! representation MCNC benchmarks use and the entry point of the whole
//! CED pipeline.
//!
//! # Examples
//!
//! ```
//! use ced_fsm::machine::{Fsm, OutputValue};
//!
//! let mut fsm = Fsm::new("toggle", 1, 1);
//! let s0 = fsm.add_state("s0");
//! let s1 = fsm.add_state("s1");
//! fsm.add_transition("1".parse()?, s0, s1, vec![OutputValue::One])?;
//! fsm.add_transition("0".parse()?, s0, s0, vec![OutputValue::Zero])?;
//! fsm.add_transition("-".parse()?, s1, s0, vec![OutputValue::Zero])?;
//! assert_eq!(fsm.num_states(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use ced_logic::cover::Cover;
use ced_logic::cube::Cube;
use std::collections::HashMap;
use std::fmt;

/// Index of a state in an [`Fsm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// A ternary output value of one output bit on one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputValue {
    /// Output is 0.
    Zero,
    /// Output is 1.
    One,
    /// Output is unspecified (synthesis may choose either).
    DontCare,
}

impl OutputValue {
    /// The KISS2 character.
    pub fn to_char(self) -> char {
        match self {
            OutputValue::Zero => '0',
            OutputValue::One => '1',
            OutputValue::DontCare => '-',
        }
    }

    /// Parses a KISS2 output character.
    pub fn from_char(c: char) -> Option<OutputValue> {
        match c {
            '0' => Some(OutputValue::Zero),
            '1' => Some(OutputValue::One),
            '-' | '2' | 'x' | 'X' => Some(OutputValue::DontCare),
            _ => None,
        }
    }
}

/// One symbolic transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// Ternary input cube over the FSM's input bits.
    pub input: Cube,
    /// Present state.
    pub from: StateId,
    /// Next state.
    pub to: StateId,
    /// Ternary outputs, one per output bit.
    pub output: Vec<OutputValue>,
}

/// Errors raised while constructing or validating an [`Fsm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsmError {
    /// Input cube width differs from the machine's input count.
    InputWidthMismatch {
        /// Expected width (the FSM's input count).
        expected: usize,
        /// Actual cube width.
        actual: usize,
    },
    /// Output vector length differs from the machine's output count.
    OutputWidthMismatch {
        /// Expected length (the FSM's output count).
        expected: usize,
        /// Actual vector length.
        actual: usize,
    },
    /// A state id does not exist in this machine.
    UnknownState(StateId),
    /// Two transitions from the same state overlap on inputs but disagree.
    Nondeterministic {
        /// Index of the first conflicting transition.
        first: usize,
        /// Index of the second conflicting transition.
        second: usize,
    },
    /// Some (state, input) pair has no transition.
    Incomplete {
        /// The state lacking a transition.
        state: StateId,
        /// An example input vector with no transition.
        input: u64,
    },
    /// The machine has no states.
    NoStates,
    /// The machine is partially specified and has more inputs than
    /// [`Fsm::complete_with_self_loops`] completes.
    TooWideToComplete {
        /// The machine's input count.
        inputs: usize,
    },
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::InputWidthMismatch { expected, actual } => {
                write!(
                    f,
                    "input cube width {actual} does not match {expected} inputs"
                )
            }
            FsmError::OutputWidthMismatch { expected, actual } => {
                write!(f, "output width {actual} does not match {expected} outputs")
            }
            FsmError::UnknownState(s) => write!(f, "unknown state {s}"),
            FsmError::Nondeterministic { first, second } => {
                write!(f, "transitions {first} and {second} overlap and disagree")
            }
            FsmError::Incomplete { state, input } => {
                write!(f, "no transition from state {state} on input {input:b}")
            }
            FsmError::NoStates => write!(f, "machine has no states"),
            FsmError::TooWideToComplete { inputs } => write!(
                f,
                "partial machine too wide to complete: {inputs} inputs (self-loop completion \
                 takes at most {MAX_COMPLETION_INPUTS})"
            ),
        }
    }
}

impl std::error::Error for FsmError {}

/// Most inputs [`Fsm::complete_with_self_loops`] completes: it walks
/// all `2^inputs` input minterms of each state. This is the
/// transition-table address bound of `ced-sim`, so a machine refused
/// here has no transition tables to analyze either.
pub const MAX_COMPLETION_INPUTS: usize = 24;

/// A symbolic Mealy machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Fsm {
    name: String,
    num_inputs: usize,
    num_outputs: usize,
    states: Vec<String>,
    state_index: HashMap<String, StateId>,
    reset: Option<StateId>,
    transitions: Vec<Transition>,
}

impl Fsm {
    /// Creates an empty machine with the given interface.
    pub fn new(name: impl Into<String>, num_inputs: usize, num_outputs: usize) -> Fsm {
        Fsm {
            name: name.into(),
            num_inputs,
            num_outputs,
            states: Vec::new(),
            state_index: HashMap::new(),
            reset: None,
            transitions: Vec::new(),
        }
    }

    /// The machine's name (benchmark circuit name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of primary input bits (`r` in the paper).
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// Number of primary output bits (`n − s` in the paper).
    pub fn num_outputs(&self) -> usize {
        self.num_outputs
    }

    /// Number of symbolic states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// State names in id order.
    pub fn state_names(&self) -> &[String] {
        &self.states
    }

    /// The name of a state.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn state_name(&self, id: StateId) -> &str {
        &self.states[id.index()]
    }

    /// Looks up a state id by name.
    pub fn state_by_name(&self, name: &str) -> Option<StateId> {
        self.state_index.get(name).copied()
    }

    /// Adds a state (or returns the existing id for a known name).
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        let name = name.into();
        if let Some(&id) = self.state_index.get(&name) {
            return id;
        }
        let id = StateId(self.states.len() as u32);
        self.state_index.insert(name.clone(), id);
        self.states.push(name);
        if self.reset.is_none() {
            self.reset = Some(id);
        }
        id
    }

    /// The reset state (defaults to the first state added).
    ///
    /// # Panics
    ///
    /// Panics if the machine has no states.
    pub fn reset_state(&self) -> StateId {
        self.reset.expect("machine has no states")
    }

    /// Overrides the reset state.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::UnknownState`] if `state` is out of range.
    pub fn set_reset_state(&mut self, state: StateId) -> Result<(), FsmError> {
        if state.index() >= self.states.len() {
            return Err(FsmError::UnknownState(state));
        }
        self.reset = Some(state);
        Ok(())
    }

    /// The transitions, in insertion order (earlier lines take priority on
    /// overlap, KISS2-style).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Adds a transition.
    ///
    /// # Errors
    ///
    /// Returns a width-mismatch or unknown-state error if the transition
    /// is malformed for this machine.
    pub fn add_transition(
        &mut self,
        input: Cube,
        from: StateId,
        to: StateId,
        output: Vec<OutputValue>,
    ) -> Result<(), FsmError> {
        if input.width() != self.num_inputs {
            return Err(FsmError::InputWidthMismatch {
                expected: self.num_inputs,
                actual: input.width(),
            });
        }
        if output.len() != self.num_outputs {
            return Err(FsmError::OutputWidthMismatch {
                expected: self.num_outputs,
                actual: output.len(),
            });
        }
        for s in [from, to] {
            if s.index() >= self.states.len() {
                return Err(FsmError::UnknownState(s));
            }
        }
        self.transitions.push(Transition {
            input,
            from,
            to,
            output,
        });
        Ok(())
    }

    /// Looks up the transition taken from `state` on concrete `input`
    /// (bit `i` = input bit `i`). Earlier transitions win on overlap.
    pub fn transition_on(&self, state: StateId, input: u64) -> Option<&Transition> {
        self.transitions
            .iter()
            .find(|t| t.from == state && t.input.covers_minterm(input))
    }

    /// Checks that overlapping transitions from the same state agree on
    /// next state and outputs (pseudo-nondeterminism as in well-formed
    /// KISS2 files is allowed only when consistent).
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::Nondeterministic`] naming the first conflict.
    pub fn check_deterministic(&self) -> Result<(), FsmError> {
        for i in 0..self.transitions.len() {
            for j in (i + 1)..self.transitions.len() {
                let (a, b) = (&self.transitions[i], &self.transitions[j]);
                if a.from != b.from || a.input.disjoint(&b.input) {
                    continue;
                }
                let outputs_conflict = a.output.iter().zip(&b.output).any(|(x, y)| {
                    matches!(
                        (x, y),
                        (OutputValue::Zero, OutputValue::One)
                            | (OutputValue::One, OutputValue::Zero)
                    )
                });
                if a.to != b.to || outputs_conflict {
                    return Err(FsmError::Nondeterministic {
                        first: i,
                        second: j,
                    });
                }
            }
        }
        Ok(())
    }

    /// Checks that every (state, input) pair has a transition: each
    /// state's input cubes must form a tautology, decided on the cubes
    /// rather than by walking all `2^inputs` minterms.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::Incomplete`] naming the first incomplete
    /// state and its smallest uncovered input, or
    /// [`FsmError::NoStates`] for an empty machine.
    pub fn check_complete(&self) -> Result<(), FsmError> {
        if self.states.is_empty() {
            return Err(FsmError::NoStates);
        }
        let mut by_state: Vec<Vec<Cube>> = vec![Vec::new(); self.states.len()];
        for t in &self.transitions {
            by_state[t.from.index()].push(t.input.clone());
        }
        for (s, cubes) in by_state.into_iter().enumerate() {
            if let Some(input) = smallest_uncovered(&Cover::from_cubes(self.num_inputs, cubes)) {
                return Err(FsmError::Incomplete {
                    state: StateId(s as u32),
                    input,
                });
            }
        }
        Ok(())
    }

    /// Completes a partially specified machine: every unspecified
    /// (state, input) pair gets a self-loop with all-don't-care outputs.
    /// This mirrors the common synthesis convention for partially
    /// specified MCNC machines. A complete machine is left as it is.
    ///
    /// # Errors
    ///
    /// Returns [`FsmError::TooWideToComplete`] for a partial machine
    /// with more than [`MAX_COMPLETION_INPUTS`] inputs.
    pub fn complete_with_self_loops(&mut self) -> Result<(), FsmError> {
        if self.check_complete().is_ok() {
            return Ok(());
        }
        if self.num_inputs > MAX_COMPLETION_INPUTS {
            return Err(FsmError::TooWideToComplete {
                inputs: self.num_inputs,
            });
        }
        for s in 0..self.states.len() {
            let state = StateId(s as u32);
            // Gather uncovered input minterms and re-cube them greedily by
            // single minterms (clarity over minimality; the DC outputs give
            // the minimizer full freedom anyway).
            let mut missing: Vec<u64> = Vec::new();
            for input in 0..(1u64 << self.num_inputs) {
                if self.transition_on(state, input).is_none() {
                    missing.push(input);
                }
            }
            for m in missing {
                let cube = Cube::minterm(self.num_inputs, m);
                self.transitions.push(Transition {
                    input: cube,
                    from: state,
                    to: state,
                    output: vec![OutputValue::DontCare; self.num_outputs],
                });
            }
        }
        Ok(())
    }

    /// The fraction of (state, input) pairs that self-loop — the paper's
    /// §5 discussion ties latency benefit to self-loop density.
    pub fn self_loop_fraction(&self) -> f64 {
        if self.states.is_empty() || self.num_inputs > 20 {
            return 0.0;
        }
        let total = self.states.len() as f64 * (1u64 << self.num_inputs) as f64;
        let mut loops = 0usize;
        for s in 0..self.states.len() {
            let state = StateId(s as u32);
            for input in 0..(1u64 << self.num_inputs) {
                if let Some(t) = self.transition_on(state, input) {
                    if t.to == state {
                        loops += 1;
                    }
                }
            }
        }
        loops as f64 / total
    }
}

/// The numerically smallest minterm `cover` misses, if any. Fixes the
/// variables from the most significant down, keeping a 0 whenever that
/// half-space still has a gap — one tautology check per variable.
fn smallest_uncovered(cover: &Cover) -> Option<u64> {
    if cover.is_tautology() {
        return None;
    }
    let mut rest = cover.clone();
    let mut minterm = 0u64;
    for v in (0..cover.width()).rev() {
        let low = rest.cofactor_var(v, false);
        if low.is_tautology() {
            rest = rest.cofactor_var(v, true);
            // A witness holds 64 inputs; a wider gap keeps its low bits.
            minterm |= 1u64.checked_shl(v as u32).unwrap_or(0);
        } else {
            rest = low;
        }
    }
    Some(minterm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toggle() -> Fsm {
        let mut fsm = Fsm::new("toggle", 1, 1);
        let s0 = fsm.add_state("s0");
        let s1 = fsm.add_state("s1");
        fsm.add_transition("1".parse().unwrap(), s0, s1, vec![OutputValue::One])
            .unwrap();
        fsm.add_transition("0".parse().unwrap(), s0, s0, vec![OutputValue::Zero])
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), s1, s0, vec![OutputValue::Zero])
            .unwrap();
        fsm
    }

    #[test]
    fn build_and_query() {
        let fsm = toggle();
        assert_eq!(fsm.num_states(), 2);
        assert_eq!(fsm.reset_state(), StateId(0));
        let s0 = fsm.state_by_name("s0").unwrap();
        let t = fsm.transition_on(s0, 1).unwrap();
        assert_eq!(fsm.state_name(t.to), "s1");
    }

    #[test]
    fn duplicate_state_names_reuse_ids() {
        let mut fsm = Fsm::new("x", 1, 0);
        let a = fsm.add_state("a");
        let a2 = fsm.add_state("a");
        assert_eq!(a, a2);
        assert_eq!(fsm.num_states(), 1);
    }

    #[test]
    fn width_validation() {
        let mut fsm = Fsm::new("x", 2, 1);
        let s = fsm.add_state("s");
        let err = fsm
            .add_transition("1".parse().unwrap(), s, s, vec![OutputValue::Zero])
            .unwrap_err();
        assert!(matches!(err, FsmError::InputWidthMismatch { .. }));
        let err = fsm
            .add_transition("11".parse().unwrap(), s, s, vec![])
            .unwrap_err();
        assert!(matches!(err, FsmError::OutputWidthMismatch { .. }));
    }

    #[test]
    fn determinism_check() {
        let fsm = toggle();
        assert!(fsm.check_deterministic().is_ok());

        let mut bad = Fsm::new("bad", 1, 1);
        let s0 = bad.add_state("s0");
        let s1 = bad.add_state("s1");
        bad.add_transition("-".parse().unwrap(), s0, s0, vec![OutputValue::Zero])
            .unwrap();
        bad.add_transition("1".parse().unwrap(), s0, s1, vec![OutputValue::Zero])
            .unwrap();
        assert!(matches!(
            bad.check_deterministic(),
            Err(FsmError::Nondeterministic { .. })
        ));
    }

    #[test]
    fn consistent_overlap_is_allowed() {
        let mut fsm = Fsm::new("ok", 1, 1);
        let s0 = fsm.add_state("s0");
        fsm.add_transition("-".parse().unwrap(), s0, s0, vec![OutputValue::DontCare])
            .unwrap();
        fsm.add_transition("1".parse().unwrap(), s0, s0, vec![OutputValue::One])
            .unwrap();
        assert!(fsm.check_deterministic().is_ok());
    }

    #[test]
    fn completeness_and_completion() {
        let mut fsm = Fsm::new("partial", 2, 1);
        let s0 = fsm.add_state("s0");
        fsm.add_transition("11".parse().unwrap(), s0, s0, vec![OutputValue::One])
            .unwrap();
        assert!(matches!(
            fsm.check_complete(),
            Err(FsmError::Incomplete { .. })
        ));
        fsm.complete_with_self_loops().unwrap();
        assert!(fsm.check_complete().is_ok());
        // Added self-loops go back to the same state.
        let t = fsm.transition_on(s0, 0b00).unwrap();
        assert_eq!(t.to, s0);
        assert_eq!(t.output[0], OutputValue::DontCare);
    }

    #[test]
    fn incompleteness_witness_is_the_smallest_gap() {
        // Against the minterm walk, over every subset of a few 3-input
        // cubes on the second state.
        let cubes = ["1--", "01-", "0-1", "-00", "110", "000"];
        for pick in 0u32..(1 << cubes.len()) {
            let mut fsm = Fsm::new("gap", 3, 1);
            let s0 = fsm.add_state("s0");
            let s1 = fsm.add_state("s1");
            fsm.add_transition("---".parse().unwrap(), s0, s0, vec![OutputValue::Zero])
                .unwrap();
            for (k, c) in cubes.iter().enumerate() {
                if (pick >> k) & 1 == 1 {
                    fsm.add_transition(c.parse().unwrap(), s1, s1, vec![OutputValue::Zero])
                        .unwrap();
                }
            }
            let want = (0..8u64).find(|&m| fsm.transition_on(s1, m).is_none());
            match fsm.check_complete() {
                Ok(()) => assert_eq!(want, None, "{pick:06b}"),
                Err(FsmError::Incomplete { state, input }) => {
                    assert_eq!((state, Some(input)), (s1, want), "{pick:06b}");
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    #[test]
    fn wide_machine_completeness_is_decided_on_cubes() {
        // 2^40 minterms per state: a minterm walk would never return.
        let mut fsm = Fsm::new("wide", 40, 1);
        let s0 = fsm.add_state("s0");
        let cube = |head: &str| format!("{head}{}", "-".repeat(40 - head.len()));
        for head in ["0", "10", "11"] {
            fsm.add_transition(cube(head).parse().unwrap(), s0, s0, vec![OutputValue::Zero])
                .unwrap();
        }
        assert!(fsm.check_complete().is_ok());
        let mut partial = Fsm::new("wide", 40, 1);
        let s0 = partial.add_state("s0");
        for head in ["0", "11"] {
            partial
                .add_transition(cube(head).parse().unwrap(), s0, s0, vec![OutputValue::Zero])
                .unwrap();
        }
        let Err(FsmError::Incomplete { state, input }) = partial.check_complete() else {
            panic!("the `10` half-space is uncovered");
        };
        assert_eq!(state, s0);
        assert!(partial.transition_on(s0, input).is_none());
        // Completion would walk those 2^40 minterms: refused, while the
        // complete machine needs no walk.
        assert!(matches!(
            partial.complete_with_self_loops(),
            Err(FsmError::TooWideToComplete { inputs: 40 })
        ));
        assert!(fsm.complete_with_self_loops().is_ok());
    }

    #[test]
    fn transition_priority_is_first_match() {
        let mut fsm = Fsm::new("prio", 1, 1);
        let s0 = fsm.add_state("s0");
        let s1 = fsm.add_state("s1");
        fsm.add_transition("1".parse().unwrap(), s0, s1, vec![OutputValue::One])
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), s0, s0, vec![OutputValue::Zero])
            .unwrap();
        assert_eq!(fsm.transition_on(s0, 1).unwrap().to, s1);
        assert_eq!(fsm.transition_on(s0, 0).unwrap().to, s0);
    }

    #[test]
    fn self_loop_fraction_of_toggle() {
        let fsm = toggle();
        // s0 self-loops on input 0 only; s1 never. 1 of 4 pairs.
        assert!((fsm.self_loop_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn empty_machine_errors() {
        let fsm = Fsm::new("empty", 1, 1);
        assert!(matches!(fsm.check_complete(), Err(FsmError::NoStates)));
    }
}
