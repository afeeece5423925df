//! Post-detection fault diagnosis via syndrome dictionaries.
//!
//! Once the parity checker fires, the natural next question is *which*
//! fault — the classical companion problem to concurrent checking. The
//! checker's observable per cycle is the **syndrome**: the q-bit XOR of
//! predicted and actual parities, i.e. bit `l` = parity of
//! `masks[l] ∩ D` where `D` is the (hardware-semantics) discrepancy of
//! that transition. A [`FaultDictionary`] precomputes every fault's
//! syndrome for every (state, input) transition; diagnosis intersects
//! the candidate sets consistent with a run's observations.
//!
//! # Examples
//!
//! ```
//! use ced_fsm::{suite, encoding, encoded::EncodedFsm};
//! use ced_logic::MinimizeOptions;
//! use ced_sim::diagnose::FaultDictionary;
//! use ced_sim::fault::collapsed_faults;
//!
//! let fsm = suite::serial_adder();
//! let enc = encoding::assign(&fsm, encoding::EncodingStrategy::Natural);
//! let circuit = EncodedFsm::new(fsm, enc)?.synthesize(&MinimizeOptions::default());
//! let faults = collapsed_faults(circuit.netlist());
//! let masks: Vec<u64> = (0..circuit.total_bits()).map(|b| 1 << b).collect();
//! let dict = FaultDictionary::build(&circuit, &faults, &masks);
//! assert_eq!(dict.num_faults(), faults.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::fault::Fault;
use crate::tables::FaultTables;
use ced_fsm::encoded::FsmCircuit;

/// One observed checker cycle: the machine's (actual) present state,
/// the applied input, and the q-bit syndrome the comparator saw
/// (bit `l` = tree `l` mismatched). A zero syndrome is informative too:
/// it rules out faults that would have fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Present state code at the start of the cycle.
    pub state: u64,
    /// Input applied during the cycle.
    pub input: u64,
    /// Observed syndrome (bit per parity tree).
    pub syndrome: u64,
}

/// Precomputed syndrome tables for a fault list under a parity cover.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    num_inputs: usize,
    /// `tables[f][code << r | input]` = syndrome of fault `f`.
    tables: Vec<Vec<u64>>,
}

impl FaultDictionary {
    /// Builds the dictionary: one gate-accurate syndrome table per
    /// fault (the dominant cost is the per-fault table extraction, the
    /// same work the detectability analysis performs).
    pub fn build(circuit: &FsmCircuit, faults: &[Fault], masks: &[u64]) -> FaultDictionary {
        let extractor = FaultTables::new(circuit);
        let good = extractor.good();
        let r = circuit.num_inputs();
        let s = circuit.state_bits();
        let total = 1usize << (r + s);
        let mut tables = Vec::with_capacity(faults.len());
        for &fault in faults {
            let bad = extractor
                .faulty(&[fault], None)
                .expect("extraction without a budget cannot be interrupted");
            let mut table = vec![0u64; total];
            for code in 0..(1u64 << s) {
                for input in 0..(1u64 << r) {
                    let d = good.response(code, input) ^ bad.response(code, input);
                    let mut syndrome = 0u64;
                    for (l, &m) in masks.iter().enumerate() {
                        if (m & d).count_ones() & 1 == 1 {
                            syndrome |= 1 << l;
                        }
                    }
                    table[((code << r) | input) as usize] = syndrome;
                }
            }
            tables.push(table);
        }
        FaultDictionary {
            num_inputs: r,
            tables,
        }
    }

    /// Number of faults in the dictionary.
    pub fn num_faults(&self) -> usize {
        self.tables.len()
    }

    /// The syndrome fault `f` produces on `(state, input)`.
    pub fn syndrome(&self, fault_index: usize, state: u64, input: u64) -> u64 {
        self.tables[fault_index][((state << self.num_inputs) | input) as usize]
    }

    /// Fault indices consistent with every observation (zero-syndrome
    /// cycles prune candidates that would have fired).
    pub fn diagnose(&self, observations: &[Observation]) -> Vec<usize> {
        (0..self.tables.len())
            .filter(|&f| {
                observations
                    .iter()
                    .all(|o| self.syndrome(f, o.state, o.input) == o.syndrome)
            })
            .collect()
    }

    /// Partitions the fault list into indistinguishability classes:
    /// faults with identical syndrome tables can never be told apart by
    /// this checker, no matter the run.
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<(usize, Vec<usize>)> = Vec::new();
        for f in 0..self.tables.len() {
            match classes
                .iter_mut()
                .find(|(rep, _)| self.tables[*rep] == self.tables[f])
            {
                Some((_, members)) => members.push(f),
                None => classes.push((f, vec![f])),
            }
        }
        classes.into_iter().map(|(_, m)| m).collect()
    }

    /// Diagnostic resolution: the average candidate-set size when each
    /// fault is observed over its full syndrome table (lower = sharper
    /// diagnosis; 1.0 = perfect).
    pub fn resolution(&self) -> f64 {
        if self.tables.is_empty() {
            return 1.0;
        }
        let classes = self.equivalence_classes();
        let total: usize = classes.iter().map(|c| c.len() * c.len()).sum();
        total as f64 / self.tables.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use crate::tables::TransitionTables;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn circuit() -> FsmCircuit {
        let fsm = suite::worked_example();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    fn singleton_masks(c: &FsmCircuit) -> Vec<u64> {
        (0..c.total_bits()).map(|b| 1 << b).collect()
    }

    /// Simulates `fault` for `steps` cycles, recording observations.
    fn observe(
        c: &FsmCircuit,
        fault: Fault,
        masks: &[u64],
        steps: usize,
        seed: u64,
    ) -> Vec<Observation> {
        let good = TransitionTables::good(c);
        let bad = TransitionTables::faulty(c, &[fault]);
        let r = c.num_inputs();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = c.reset_code();
        let mut out = Vec::new();
        for _ in 0..steps {
            let input = rng.next_u64() & ((1 << r) - 1);
            let d = good.response(state, input) ^ bad.response(state, input);
            let mut syndrome = 0u64;
            for (l, &m) in masks.iter().enumerate() {
                if (m & d).count_ones() & 1 == 1 {
                    syndrome |= 1 << l;
                }
            }
            out.push(Observation {
                state,
                input,
                syndrome,
            });
            state = bad.next(state, input);
        }
        out
    }

    #[test]
    fn true_fault_is_always_a_candidate() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let masks = singleton_masks(&c);
        let dict = FaultDictionary::build(&c, &faults, &masks);
        for (i, &f) in faults.iter().enumerate().take(15) {
            let obs = observe(&c, f, &masks, 60, 17 ^ i as u64);
            let candidates = dict.diagnose(&obs);
            assert!(candidates.contains(&i), "fault {f} excluded by its own run");
        }
    }

    #[test]
    fn observations_narrow_the_candidate_set() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let masks = singleton_masks(&c);
        let dict = FaultDictionary::build(&c, &faults, &masks);
        let f = faults[1];
        let short = dict.diagnose(&observe(&c, f, &masks, 3, 5));
        let long = dict.diagnose(&observe(&c, f, &masks, 120, 5));
        assert!(long.len() <= short.len());
        assert!(!long.is_empty());
    }

    #[test]
    fn equivalence_classes_partition_the_list() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let masks = singleton_masks(&c);
        let dict = FaultDictionary::build(&c, &faults, &masks);
        let classes = dict.equivalence_classes();
        let total: usize = classes.iter().map(Vec::len).sum();
        assert_eq!(total, faults.len());
        assert!(dict.resolution() >= 1.0);
    }

    #[test]
    fn richer_compaction_sharpens_resolution() {
        // Full singleton monitoring distinguishes at least as well as a
        // single all-ones parity.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let fine = FaultDictionary::build(&c, &faults, &singleton_masks(&c));
        let coarse = FaultDictionary::build(&c, &faults, &[(1 << c.total_bits()) - 1]);
        assert!(fine.resolution() <= coarse.resolution());
    }

    #[test]
    fn fault_free_run_diagnoses_nothing_testable() {
        // All-zero syndromes are consistent only with faults silent on
        // the visited transitions.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let masks = singleton_masks(&c);
        let dict = FaultDictionary::build(&c, &faults, &masks);
        // Observations from the fault-free machine: zero syndromes.
        let good = TransitionTables::good(&c);
        let mut rng = StdRng::seed_from_u64(2);
        let mut state = c.reset_code();
        let mut obs = Vec::new();
        for _ in 0..200 {
            let input = rng.next_u64() & ((1 << c.num_inputs()) - 1);
            obs.push(Observation {
                state,
                input,
                syndrome: 0,
            });
            state = good.next(state, input);
        }
        let survivors = dict.diagnose(&obs);
        // Any survivor must be silent on every visited transition.
        for f in survivors {
            for o in &obs {
                assert_eq!(dict.syndrome(f, o.state, o.input), 0);
            }
        }
    }
}
