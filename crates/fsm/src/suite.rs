//! The benchmark suite backing the experiment harnesses.
//!
//! Two families:
//!
//! 1. **Paper analogues** — for each circuit of the paper's Table 1 an
//!    FSM with the same interface dimensions (inputs, states, outputs)
//!    and a self-loop density chosen per the paper's §5 discussion
//!    (small machines loop-heavy, large ones loop-light), generated
//!    deterministically by [`crate::generator`]. These are substitutes
//!    for the original MCNC files (DESIGN.md substitution note (a));
//!    real `.kiss2` files parse with [`crate::kiss`] and drop in.
//! 2. **Classic pedagogical machines** — small hand-written controllers
//!    (sequence detector, serial adder, traffic light) with exactly
//!    known behaviour, used by examples and tests.

use crate::generator::{generate, GeneratorConfig};
use crate::kiss;
use crate::machine::Fsm;

/// Descriptor of one Table-1 circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitSpec {
    /// MCNC circuit name.
    pub name: &'static str,
    /// Input bits.
    pub inputs: usize,
    /// Symbolic state count.
    pub states: usize,
    /// Output bits.
    pub outputs: usize,
    /// Self-loop bias used by the generator (from §5's qualitative
    /// description; not an MCNC-measured quantity).
    pub self_loop_bias: f64,
    /// Input cubes per state handed to the generator.
    pub cubes_per_state: usize,
}

impl CircuitSpec {
    /// Instantiates the analogue machine (deterministic per name).
    pub fn build(&self) -> Fsm {
        let seed = ced_runtime::fnv1a64(self.name.as_bytes());
        generate(&GeneratorConfig {
            name: self.name.to_string(),
            num_inputs: self.inputs,
            num_states: self.states,
            num_outputs: self.outputs,
            cubes_per_state: self.cubes_per_state,
            self_loop_bias: self.self_loop_bias,
            output_dc_prob: 0.05,
            // Moore-like output structure, as in real controller
            // benchmarks: a handful of distinct output patterns.
            output_pool: (self.states / 3).clamp(2, 8),
            seed,
        })
    }
}

/// The sixteen circuits of the paper's Table 1, with MCNC interface
/// dimensions. (The garbled `dk6`/`s488` mentions in the paper text are
/// `dk16` and `s1488`.)
pub fn paper_table1() -> Vec<CircuitSpec> {
    vec![
        spec("cse", 7, 16, 7, 0.25, 10),
        spec("donfile", 2, 24, 1, 0.55, 4),
        spec("dk16", 2, 27, 3, 0.50, 4),
        spec("dk512", 1, 15, 3, 0.45, 2),
        spec("ex1", 9, 20, 19, 0.20, 10),
        spec("keyb", 7, 19, 2, 0.30, 10),
        spec("pma", 8, 24, 8, 0.10, 10),
        spec("sse", 7, 16, 7, 0.25, 10),
        spec("styr", 9, 30, 10, 0.15, 12),
        spec("s1", 8, 20, 6, 0.20, 10),
        spec("s27", 4, 6, 1, 0.60, 6),
        spec("s298", 3, 24, 6, 0.08, 6),
        spec("s386", 7, 13, 7, 0.55, 8),
        spec("s1488", 8, 48, 19, 0.10, 10),
        spec("tav", 4, 4, 4, 0.40, 8),
        spec("tbk", 6, 32, 3, 0.20, 10),
    ]
}

/// A reduced-dimension version of [`paper_table1`] for quick runs and
/// CI-speed benchmarks: input counts capped at 5, state counts at 16.
/// The qualitative shape (parity reduction with latency) is preserved.
pub fn paper_table1_scaled() -> Vec<CircuitSpec> {
    paper_table1()
        .into_iter()
        .map(|mut s| {
            s.inputs = s.inputs.min(5);
            s.states = s.states.min(16);
            s.outputs = s.outputs.min(8);
            s.cubes_per_state = s.cubes_per_state.min(8);
            s
        })
        .collect()
}

/// Looks up a Table-1 circuit by name.
pub fn by_name(name: &str) -> Option<CircuitSpec> {
    paper_table1().into_iter().find(|s| s.name == name)
}

fn spec(
    name: &'static str,
    inputs: usize,
    states: usize,
    outputs: usize,
    self_loop_bias: f64,
    cubes_per_state: usize,
) -> CircuitSpec {
    CircuitSpec {
        name,
        inputs,
        states,
        outputs,
        self_loop_bias,
        cubes_per_state,
    }
}

/// A "1011" overlapping sequence detector (Mealy): output 1 when the
/// input stream ends in `1011`.
pub fn sequence_detector() -> Fsm {
    kiss::parse(
        "\
.model sdet1011
.i 1
.o 1
.s 4
.r e
0 e e 0
1 e s1 0
1 s1 s1 0
0 s1 s10 0
1 s10 s101 0
0 s10 e 0
1 s101 s1 1
0 s101 s10 0
.e
",
    )
    .expect("embedded kiss2 is valid")
}

/// A serial (bit-at-a-time) adder: inputs = (a, b), output = sum bit,
/// state = carry.
pub fn serial_adder() -> Fsm {
    kiss::parse(
        "\
.model seradd
.i 2
.o 1
.s 2
.r c0
00 c0 c0 0
01 c0 c0 1
10 c0 c0 1
11 c0 c1 0
00 c1 c0 1
01 c1 c1 0
10 c1 c1 0
11 c1 c1 1
.e
",
    )
    .expect("embedded kiss2 is valid")
}

/// A toy traffic-light controller: input = car sensor, outputs =
/// (green, yellow, red) one-hot; stays green until a car arrives on the
/// side road, then cycles green → yellow → red → green.
pub fn traffic_light() -> Fsm {
    kiss::parse(
        "\
.model traffic
.i 1
.o 3
.s 3
.r G
0 G G 100
1 G Y 100
- Y R 010
- R G 001
.e
",
    )
    .expect("embedded kiss2 is valid")
}

/// The worked example used by the Fig. 2 regeneration binary: a 4-state
/// machine with one input and two outputs, small enough to print its
/// full error-detectability table.
pub fn worked_example() -> Fsm {
    kiss::parse(
        "\
.model fig2demo
.i 1
.o 2
.s 4
.r a
0 a a 00
1 a b 01
0 b c 10
1 b a 11
0 c d 01
1 c c 00
0 d a 10
1 d b 01
.e
",
    )
    .expect("embedded kiss2 is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::reachable_states;

    #[test]
    fn table1_has_sixteen_rows() {
        let t = paper_table1();
        assert_eq!(t.len(), 16);
        let names: Vec<&str> = t.iter().map(|s| s.name).collect();
        assert!(names.contains(&"cse"));
        assert!(names.contains(&"tbk"));
    }

    #[test]
    fn analogues_build_and_are_well_formed() {
        for spec in paper_table1_scaled() {
            let fsm = spec.build();
            assert_eq!(fsm.num_states(), spec.states, "{}", spec.name);
            assert_eq!(fsm.num_inputs(), spec.inputs);
            assert_eq!(fsm.num_outputs(), spec.outputs);
            assert!(fsm.check_complete().is_ok(), "{} incomplete", spec.name);
            assert!(fsm.check_deterministic().is_ok(), "{} nondet", spec.name);
            assert_eq!(
                reachable_states(&fsm).len(),
                spec.states,
                "{} has unreachable states",
                spec.name
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let spec = by_name("s27").unwrap();
        assert_eq!(spec.build(), spec.build());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("styr").is_some());
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn scaled_suite_is_capped() {
        for s in paper_table1_scaled() {
            assert!(s.inputs <= 5 && s.states <= 16 && s.outputs <= 8);
        }
    }

    #[test]
    fn sequence_detector_detects_1011() {
        let fsm = sequence_detector();
        assert!(fsm.check_deterministic().is_ok());
        assert!(fsm.check_complete().is_ok());
        // Walk the stream 1 0 1 1 and check the final output.
        let mut state = fsm.reset_state();
        let mut last_out = crate::machine::OutputValue::Zero;
        for bit in [1u64, 0, 1, 1] {
            let t = fsm.transition_on(state, bit).unwrap();
            last_out = t.output[0];
            state = t.to;
        }
        assert_eq!(last_out, crate::machine::OutputValue::One);
    }

    #[test]
    fn serial_adder_adds() {
        let fsm = serial_adder();
        // 3 + 1 = 4: a = 011 (LSB first: 1,1,0), b = 001 (1,0,0).
        let mut state = fsm.reset_state();
        let mut sum = Vec::new();
        for (a, b) in [(1u64, 1u64), (1, 0), (0, 0)] {
            let input = a | (b << 1);
            let t = fsm.transition_on(state, input).unwrap();
            sum.push(t.output[0]);
            state = t.to;
        }
        use crate::machine::OutputValue::{One, Zero};
        assert_eq!(sum, vec![Zero, Zero, One]); // 100 LSB-first = 4
    }

    #[test]
    fn traffic_light_cycles() {
        let fsm = traffic_light();
        assert!(fsm.check_complete().is_ok());
        let g = fsm.state_by_name("G").unwrap();
        // No car: stay green.
        assert_eq!(fsm.transition_on(g, 0).unwrap().to, g);
        // Car: go yellow then red then green.
        let y = fsm.transition_on(g, 1).unwrap().to;
        assert_eq!(fsm.state_name(y), "Y");
        let r = fsm.transition_on(y, 0).unwrap().to;
        assert_eq!(fsm.state_name(r), "R");
        assert_eq!(fsm.transition_on(r, 1).unwrap().to, g);
    }

    #[test]
    fn worked_example_is_complete() {
        let fsm = worked_example();
        assert!(fsm.check_complete().is_ok());
        assert!(fsm.check_deterministic().is_ok());
        assert_eq!(fsm.num_states(), 4);
    }
}
