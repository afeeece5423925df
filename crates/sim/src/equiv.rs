//! Sequential equivalence checking between synthesized machines.
//!
//! Two [`FsmCircuit`]s over the same input/output interface are
//! equivalent iff, from their reset states, every input sequence
//! produces the same output sequence. Checked exactly by breadth-first
//! search over the reachable product state space (both machines are
//! table-extracted first, so the check is gate-accurate). Used to
//! validate that re-encodings, minimization and export round-trips
//! preserve behaviour — and handy for users comparing their own
//! implementations.
//!
//! # Examples
//!
//! ```
//! use ced_fsm::{suite, encoding, encoded::EncodedFsm};
//! use ced_logic::MinimizeOptions;
//! use ced_sim::equiv::check_equivalence;
//!
//! let fsm = suite::serial_adder();
//! let a = EncodedFsm::new(fsm.clone(), encoding::assign(&fsm, encoding::EncodingStrategy::Natural))?
//!     .synthesize(&MinimizeOptions::default());
//! let b = EncodedFsm::new(fsm.clone(), encoding::assign(&fsm, encoding::EncodingStrategy::Gray))?
//!     .synthesize(&MinimizeOptions::default());
//! assert!(check_equivalence(&a, &b).is_equivalent());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::tables::TransitionTables;
use ced_fsm::encoded::FsmCircuit;
use std::collections::{HashSet, VecDeque};

/// Result of an equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// The machines agree on every reachable input sequence.
    Equivalent {
        /// Number of reachable product states explored.
        explored: usize,
    },
    /// A distinguishing input sequence was found.
    Inequivalent {
        /// Input sequence (one input per cycle) exposing the mismatch.
        counterexample: Vec<u64>,
        /// Output of the first machine on the last cycle.
        output_a: u64,
        /// Output of the second machine on the last cycle.
        output_b: u64,
    },
    /// The machines' interfaces differ (input/output bit counts).
    InterfaceMismatch,
}

impl EquivalenceResult {
    /// True iff the machines were proven equivalent.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent { .. })
    }
}

/// Exhaustively checks output equivalence of two synthesized machines
/// by product-machine BFS (shortest counterexample first).
pub fn check_equivalence(a: &FsmCircuit, b: &FsmCircuit) -> EquivalenceResult {
    if a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs() {
        return EquivalenceResult::InterfaceMismatch;
    }
    let r = a.num_inputs();
    let ta = TransitionTables::good(a);
    let tb = TransitionTables::good(b);

    // BFS over (state_a, state_b) with parent pointers for the trace.
    let start = (a.reset_code(), b.reset_code());
    let mut seen: HashSet<(u64, u64)> = HashSet::new();
    seen.insert(start);
    // (pair, parent index in `log`, input that led here)
    let mut log: Vec<((u64, u64), usize, u64)> = vec![(start, usize::MAX, 0)];
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);

    while let Some(idx) = queue.pop_front() {
        let ((sa, sb), _, _) = log[idx];
        for input in 0..(1u64 << r) {
            let oa = ta.output(sa, input);
            let ob = tb.output(sb, input);
            if oa != ob {
                // Reconstruct the path, then append the failing input.
                let mut path = vec![input];
                let mut cur = idx;
                while log[cur].1 != usize::MAX {
                    path.push(log[cur].2);
                    cur = log[cur].1;
                }
                path.reverse();
                return EquivalenceResult::Inequivalent {
                    counterexample: path,
                    output_a: oa,
                    output_b: ob,
                };
            }
            let next = (ta.next(sa, input), tb.next(sb, input));
            if seen.insert(next) {
                log.push((next, idx, input));
                queue.push_back(log.len() - 1);
            }
        }
    }
    EquivalenceResult::Equivalent {
        explored: seen.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::minimize::minimize_states;
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;

    fn synthesize(fsm: &ced_fsm::Fsm, strategy: EncodingStrategy) -> FsmCircuit {
        let mut fsm = fsm.clone();
        fsm.complete_with_self_loops().unwrap();
        let enc = assign(&fsm, strategy);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn different_encodings_are_equivalent() {
        for fsm in [suite::sequence_detector(), suite::serial_adder()] {
            let a = synthesize(&fsm, EncodingStrategy::Natural);
            let b = synthesize(&fsm, EncodingStrategy::Gray);
            let c = synthesize(&fsm, EncodingStrategy::Adjacency);
            assert!(check_equivalence(&a, &b).is_equivalent(), "{}", fsm.name());
            assert!(check_equivalence(&a, &c).is_equivalent(), "{}", fsm.name());
        }
    }

    #[test]
    fn minimization_preserves_behaviour_gate_accurately() {
        let mut fsm = suite::traffic_light();
        fsm.complete_with_self_loops().unwrap();
        let min = minimize_states(&fsm).unwrap();
        let a = synthesize(&fsm, EncodingStrategy::Natural);
        let b = synthesize(&min, EncodingStrategy::Natural);
        assert!(check_equivalence(&a, &b).is_equivalent());
    }

    #[test]
    fn different_machines_distinguished_with_shortest_trace() {
        let a = synthesize(&suite::sequence_detector(), EncodingStrategy::Natural);
        // A machine that never raises its output.
        let mut quiet = ced_fsm::Fsm::new("quiet", 1, 1);
        let s = quiet.add_state("s");
        quiet
            .add_transition("-".parse().unwrap(), s, s, vec![ced_fsm::OutputValue::Zero])
            .unwrap();
        let b = synthesize(&quiet, EncodingStrategy::Natural);
        match check_equivalence(&a, &b) {
            EquivalenceResult::Inequivalent {
                counterexample,
                output_a,
                output_b,
            } => {
                // Shortest distinguishing stream for 1011-detection is
                // the 4-symbol sequence itself.
                assert_eq!(counterexample, vec![1, 0, 1, 1]);
                assert_eq!(output_a, 1);
                assert_eq!(output_b, 0);
            }
            other => panic!("expected inequivalence, got {other:?}"),
        }
    }

    #[test]
    fn interface_mismatch_detected() {
        let a = synthesize(&suite::sequence_detector(), EncodingStrategy::Natural);
        let b = synthesize(&suite::serial_adder(), EncodingStrategy::Natural);
        assert_eq!(
            check_equivalence(&a, &b),
            EquivalenceResult::InterfaceMismatch
        );
    }

    #[test]
    fn self_equivalence_explores_reachable_pairs_only() {
        let a = synthesize(&suite::traffic_light(), EncodingStrategy::Natural);
        match check_equivalence(&a, &a) {
            EquivalenceResult::Equivalent { explored } => {
                // Diagonal pairs of the 3 reachable states.
                assert_eq!(explored, 3);
            }
            other => panic!("{other:?}"),
        }
    }
}
