//! State minimization for completely specified machines.
//!
//! Classical Moore–Hopcroft partition refinement on the Mealy machine:
//! two states are equivalent iff for every input they emit the same
//! outputs and transition into equivalent states. Benchmarks usually
//! arrive minimized, but synthetic machines and hand-written
//! controllers benefit, and a smaller state count shrinks everything
//! downstream (encoding bits, logic, detectability table).
//!
//! Unspecified outputs are treated as a distinct output value — the
//! reduction is exact on the specified behaviour and never merges
//! states whose specified outputs could differ (minimizing *partially*
//! specified machines optimally is NP-hard and out of scope).
//!
//! # Examples
//!
//! ```
//! use ced_fsm::{machine::Fsm, machine::OutputValue, minimize::minimize_states};
//!
//! // Two copies of the same 1-state behaviour collapse.
//! let mut fsm = Fsm::new("dup", 1, 1);
//! let a = fsm.add_state("a");
//! let b = fsm.add_state("b");
//! fsm.add_transition("-".parse()?, a, b, vec![OutputValue::One])?;
//! fsm.add_transition("-".parse()?, b, a, vec![OutputValue::One])?;
//! let min = minimize_states(&fsm)?;
//! assert_eq!(min.num_states(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::machine::{Fsm, FsmError, OutputValue, StateId};

/// Minimizes a complete, deterministic machine by merging equivalent
/// states. The reset state's class becomes the new reset state; class
/// representatives keep their original names.
///
/// # Errors
///
/// Returns the underlying [`FsmError`] if the machine is incomplete or
/// inconsistent (call [`Fsm::complete_with_self_loops`] first for
/// partially specified machines).
pub fn minimize_states(fsm: &Fsm) -> Result<Fsm, FsmError> {
    fsm.check_deterministic()?;
    fsm.check_complete()?;
    let n = fsm.num_states();
    if n == 0 {
        return Err(FsmError::NoStates);
    }
    let r = fsm.num_inputs();
    let inputs: Vec<u64> = (0..(1u64 << r)).collect();

    // Behaviour signature per state and input: (output vector, successor).
    let step = |s: usize, a: u64| -> (&[OutputValue], usize) {
        let t = fsm
            .transition_on(StateId(s as u32), a)
            .expect("complete machine");
        (&t.output, t.to.index())
    };

    // Initial partition: by the full per-input output vector.
    let mut class = vec![0usize; n];
    {
        let mut signatures: Vec<Vec<&[OutputValue]>> = Vec::new();
        for s in 0..n {
            let sig: Vec<&[OutputValue]> = inputs.iter().map(|&a| step(s, a).0).collect();
            let found = signatures.iter().position(|x| *x == sig);
            class[s] = match found {
                Some(c) => c,
                None => {
                    signatures.push(sig);
                    signatures.len() - 1
                }
            };
        }
    }

    // Refinement: split classes whose members disagree on successor
    // classes for some input.
    loop {
        let mut new_class = vec![0usize; n];
        let mut signatures: Vec<(usize, Vec<usize>)> = Vec::new();
        for s in 0..n {
            let sig: Vec<usize> = inputs.iter().map(|&a| class[step(s, a).1]).collect();
            let key = (class[s], sig);
            let found = signatures.iter().position(|x| *x == key);
            new_class[s] = match found {
                Some(c) => c,
                None => {
                    signatures.push(key);
                    signatures.len() - 1
                }
            };
        }
        if new_class == class {
            break;
        }
        class = new_class;
    }

    // Build the quotient machine: representative = lowest-indexed member.
    let num_classes = class.iter().copied().max().unwrap_or(0) + 1;
    let mut representative = vec![usize::MAX; num_classes];
    for s in 0..n {
        if representative[class[s]] == usize::MAX {
            representative[class[s]] = s;
        }
    }

    let mut out = Fsm::new(fsm.name().to_string(), r, fsm.num_outputs());
    // Reset class first so it becomes state 0 / default reset.
    let reset_class = class[fsm.reset_state().index()];
    let mut order: Vec<usize> = (0..num_classes).collect();
    order.sort_by_key(|&c| (c != reset_class, representative[c]));
    let mut class_state = vec![StateId(0); num_classes];
    for &c in &order {
        let name = fsm.state_name(StateId(representative[c] as u32));
        class_state[c] = out.add_state(name.to_string());
    }
    for &c in &order {
        let rep = StateId(representative[c] as u32);
        for t in fsm.transitions().iter().filter(|t| t.from == rep) {
            out.add_transition(
                t.input.clone(),
                class_state[c],
                class_state[class[t.to.index()]],
                t.output.clone(),
            )?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use crate::suite;

    fn behaviour_equal(a: &Fsm, b: &Fsm, steps: usize, seed: u64) {
        let mut sa = a.reset_state();
        let mut sb = b.reset_state();
        let mut x = seed | 1;
        for _ in 0..steps {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let input = (x >> 33) & ((1 << a.num_inputs()) - 1);
            let ta = a.transition_on(sa, input).expect("complete");
            let tb = b.transition_on(sb, input).expect("complete");
            assert_eq!(ta.output, tb.output, "outputs diverge on input {input}");
            sa = ta.to;
            sb = tb.to;
        }
    }

    #[test]
    fn duplicated_machine_halves() {
        // Two disjoint copies of a 2-state toggle, entered from a common
        // reset alias (copy B unreachable but still merged by class).
        let mut fsm = Fsm::new("twice", 1, 1);
        let a0 = fsm.add_state("a0");
        let a1 = fsm.add_state("a1");
        let b0 = fsm.add_state("b0");
        let b1 = fsm.add_state("b1");
        for (x, y) in [(a0, a1), (a1, a0), (b0, b1), (b1, b0)] {
            fsm.add_transition("-".parse().unwrap(), x, y, vec![OutputValue::One])
                .unwrap();
        }
        let min = minimize_states(&fsm).unwrap();
        // a0≡b0≡a1≡b1? toggle emits One always and alternates between two
        // states with identical behaviour — all four states equivalent.
        assert_eq!(min.num_states(), 1);
        behaviour_equal(&fsm, &min, 50, 3);
    }

    #[test]
    fn distinct_outputs_prevent_merging() {
        let mut fsm = Fsm::new("distinct", 1, 1);
        let a = fsm.add_state("a");
        let b = fsm.add_state("b");
        fsm.add_transition("-".parse().unwrap(), a, b, vec![OutputValue::One])
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), b, a, vec![OutputValue::Zero])
            .unwrap();
        let min = minimize_states(&fsm).unwrap();
        assert_eq!(min.num_states(), 2);
    }

    #[test]
    fn already_minimal_machines_unchanged_in_size() {
        for fsm in [suite::sequence_detector(), suite::serial_adder()] {
            let min = minimize_states(&fsm).unwrap();
            assert_eq!(min.num_states(), fsm.num_states(), "{}", fsm.name());
            behaviour_equal(&fsm, &min, 200, 7);
        }
    }

    #[test]
    fn successor_distinction_found_by_refinement() {
        // Outputs identical everywhere; only the 2-step future differs.
        let mut fsm = Fsm::new("deep", 1, 1);
        let a = fsm.add_state("a");
        let b = fsm.add_state("b");
        let c = fsm.add_state("c");
        let d = fsm.add_state("d"); // emits differently
        let z = vec![OutputValue::Zero];
        fsm.add_transition("-".parse().unwrap(), a, c, z.clone())
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), b, d, z.clone())
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), c, c, z.clone())
            .unwrap();
        fsm.add_transition("-".parse().unwrap(), d, d, vec![OutputValue::One])
            .unwrap();
        let min = minimize_states(&fsm).unwrap();
        // a ≡ c (both emit 0 forever), but b ≠ a because b's successor d
        // is distinguishable — refinement must find this 2-step split.
        assert_eq!(min.num_states(), 3);
    }

    #[test]
    fn minimized_behaviour_matches_on_random_machines() {
        for seed in 0..8u64 {
            let mut fsm = generate(&GeneratorConfig {
                name: "rand".into(),
                num_inputs: 2,
                num_states: 8,
                num_outputs: 2,
                cubes_per_state: 3,
                self_loop_bias: 0.3,
                output_dc_prob: 0.0, // exact comparison wants pinned outputs
                output_pool: 2,
                seed,
            });
            fsm.complete_with_self_loops().unwrap();
            let min = minimize_states(&fsm).unwrap();
            assert!(min.num_states() <= fsm.num_states());
            behaviour_equal(&fsm, &min, 300, seed ^ 0xABC);
        }
    }

    #[test]
    fn incomplete_machine_rejected() {
        let mut fsm = Fsm::new("inc", 1, 1);
        let s = fsm.add_state("s");
        fsm.add_transition("1".parse().unwrap(), s, s, vec![OutputValue::One])
            .unwrap();
        assert!(minimize_states(&fsm).is_err());
    }

    #[test]
    fn reset_class_is_new_reset() {
        let fsm = suite::traffic_light();
        let mut complete = fsm.clone();
        complete.complete_with_self_loops().unwrap();
        let min = minimize_states(&complete).unwrap();
        assert_eq!(min.state_name(min.reset_state()), "G");
    }
}
