//! End-to-end verification of the bounded-latency detection guarantee.
//!
//! [`DetectabilityTable`](crate::detect::DetectabilityTable) coverage is
//! an *analytical* statement. This module checks it *operationally*:
//! inject a fault into the synthesized machine, drive input sequences,
//! emulate the Fig. 3 CED hardware (parity compactor + predictor +
//! comparator), and confirm the comparator fires within `p` cycles of
//! the first error. The integration tests use this to validate the
//! whole pipeline — the paper's actual promise.
//!
//! These drives are reference oracles for tests and experiments; the
//! product's fault injection is the `ced-inject` campaign, which puts
//! the synthesized checker netlist in the loop.

use crate::detect::Semantics;
use crate::fault::Fault;
use crate::tables::TransitionTables;
use ced_fsm::encoded::FsmCircuit;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Outcome of one fault-injection run. The run resolves at the *first*
/// error activation — exactly the scope of the paper's guarantee
/// ("detected within p clock cycles" of the first error; later errors
/// may start from states outside the enumerated activation set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOutcome {
    /// The fault never caused an error over the driven sequence.
    NoErrorObserved,
    /// The first error was flagged within the latency bound.
    DetectedInTime {
        /// Observed detection latency in cycles (1 = same cycle as the
        /// activation).
        latency: usize,
    },
    /// The first error went unflagged for a full latency window.
    Missed {
        /// Cycle index (0-based) of the activation that escaped.
        at_cycle: usize,
    },
}

/// Drives `steps` cycles of the faulty machine with inputs from a
/// deterministic pseudo-random stream (`seed`), emulating the parity
/// CED checker, and reports whether every error was caught within
/// `latency` cycles.
///
/// The `semantics` argument selects the checker being emulated:
///
/// * [`Semantics::FaultyTrajectory`] — the Fig. 3 hardware: the parity
///   comparison at a cycle uses the good and faulty responses from the
///   *current (actual) state register* contents;
/// * [`Semantics::Lockstep`] — an idealized checker with a golden
///   reference: the comparison uses the good machine's own trajectory,
///   matching the paper's fault-simulation view of the detectability
///   table.
///
/// # Panics
///
/// Panics if `latency == 0`.
pub fn simulate_fault_detection(
    circuit: &FsmCircuit,
    fault: Fault,
    masks: &[u64],
    latency: usize,
    steps: usize,
    seed: u64,
    semantics: Semantics,
) -> SimOutcome {
    assert!(latency >= 1, "latency bound must be at least 1");
    let good = TransitionTables::good(circuit);
    let bad = TransitionTables::faulty(circuit, &[fault]);
    let r = circuit.num_inputs();
    let input_mask = if r >= 64 { u64::MAX } else { (1u64 << r) - 1 };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = circuit.reset_code(); // faulty-trajectory (actual) state
    let mut reference = circuit.reset_code(); // good companion (lockstep)
                                              // First-activation window: Some((activation_cycle, deadline)).
    let mut window: Option<(usize, usize)> = None;

    for cycle in 0..steps {
        let input = rng.next_u64() & input_mask;
        let d = match semantics {
            Semantics::FaultyTrajectory => good.response(state, input) ^ bad.response(state, input),
            Semantics::Lockstep => good.response(reference, input) ^ bad.response(state, input),
        };
        let flagged = masks.iter().any(|&m| (m & d).count_ones() & 1 == 1);

        if d != 0 && window.is_none() {
            window = Some((cycle, cycle + latency - 1));
        }
        if let Some((start, deadline)) = window {
            if flagged {
                return SimOutcome::DetectedInTime {
                    latency: cycle - start + 1,
                };
            }
            if cycle >= deadline {
                return SimOutcome::Missed { at_cycle: start };
            }
        }
        reference = good.next(reference, input);
        state = bad.next(state, input);
    }
    // Either no error ever activated, or the run ended inside an open
    // window (guarantee neither met nor violated yet — count as no
    // observation).
    SimOutcome::NoErrorObserved
}

/// Outcome of a transient-fault run (see
/// [`simulate_transient_fault_detection`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransientOutcome {
    /// The fault window never excited an error.
    NoErrorObserved,
    /// The error was flagged while detection was still possible.
    Detected {
        /// Cycles from activation to the comparator firing.
        latency: usize,
    },
    /// The error occurred but the fault vanished before any step of the
    /// latency window exposed it — the escape §2 predicts for faults
    /// shorter-lived than the bound (e.g. SEUs with p > 1).
    Escaped,
}

/// Drives the machine with `fault` present only for `persistence`
/// consecutive cycles (starting at `onset`), under the hardware
/// (faulty-trajectory) semantics, and reports whether the first error
/// was caught before the window closed undetected.
///
/// The paper's §2 assumption is `persistence ≥ latency`; this simulator
/// quantifies what happens when it is violated: with `persistence <
/// latency`, errors activated near the end of the fault window can
/// escape a latency-`p` checker that relies on later steps.
///
/// # Panics
///
/// Panics if `latency == 0` or `persistence == 0`.
#[allow(clippy::too_many_arguments)] // experiment knobs; a struct would obscure the sweep call sites
pub fn simulate_transient_fault_detection(
    circuit: &FsmCircuit,
    fault: Fault,
    masks: &[u64],
    latency: usize,
    onset: usize,
    persistence: usize,
    total_cycles: usize,
    seed: u64,
) -> TransientOutcome {
    assert!(latency >= 1, "latency bound must be at least 1");
    assert!(persistence >= 1, "persistence must be at least 1");
    let good = TransitionTables::good(circuit);
    let bad = TransitionTables::faulty(circuit, &[fault]);
    let r = circuit.num_inputs();
    let input_mask = if r >= 64 { u64::MAX } else { (1u64 << r) - 1 };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = circuit.reset_code();
    let mut window: Option<usize> = None; // activation cycle

    for cycle in 0..total_cycles {
        let input = rng.next_u64() & input_mask;
        let fault_active = cycle >= onset && cycle < onset + persistence;
        let active_tables = if fault_active { &bad } else { &good };
        // Hardware semantics: compare good vs actual response from the
        // actual present state. Once the fault vanishes, the responses
        // agree (the corrupted *state* persists, but the checker cannot
        // see it — exactly the §2 escape mechanism).
        let d = good.response(state, input) ^ active_tables.response(state, input);
        let flagged = masks.iter().any(|&m| (m & d).count_ones() & 1 == 1);

        if d != 0 && window.is_none() {
            window = Some(cycle);
        }
        if let Some(start) = window {
            if flagged {
                return TransientOutcome::Detected {
                    latency: cycle - start + 1,
                };
            }
            if cycle >= start + latency - 1 {
                return TransientOutcome::Escaped; // window exhausted
            }
            if !fault_active {
                // The fault is gone: from now on the actual circuit is
                // the good one, so d ≡ 0 and the comparator can never
                // fire again — the corrupted state escapes silently.
                return TransientOutcome::Escaped;
            }
        }
        state = active_tables.next(state, input);
    }
    TransientOutcome::NoErrorObserved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::{DetectOptions, DetectabilityTable};
    use crate::fault::collapsed_faults;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;

    fn circuit() -> FsmCircuit {
        let fsm = suite::serial_adder();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn full_singleton_monitor_detects_everything_at_p1() {
        let c = circuit();
        let masks: Vec<u64> = (0..c.total_bits()).map(|b| 1u64 << b).collect();
        let faults = collapsed_faults(c.netlist());
        for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
            for (i, &f) in faults.iter().enumerate() {
                let out = simulate_fault_detection(&c, f, &masks, 1, 500, 42 ^ i as u64, semantics);
                assert!(
                    !matches!(out, SimOutcome::Missed { .. }),
                    "fault {f} missed with full monitoring ({semantics:?})"
                );
            }
        }
    }

    #[test]
    fn no_masks_means_missed_for_testable_faults() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let mut missed_any = false;
        for (i, &f) in faults.iter().enumerate() {
            if let SimOutcome::Missed { .. } = simulate_fault_detection(
                &c,
                f,
                &[],
                1,
                500,
                7 ^ i as u64,
                Semantics::FaultyTrajectory,
            ) {
                missed_any = true;
            }
        }
        assert!(missed_any, "no testable fault missed without monitors?");
    }

    #[test]
    fn analytic_coverage_implies_operational_coverage() {
        // Masks that cover the detectability table must never miss in a
        // simulation with matching semantics — the central soundness
        // property.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
            for p in 1..=2 {
                let (table, _) = DetectabilityTable::build(
                    &c,
                    &faults,
                    &DetectOptions {
                        latency: p,
                        semantics,
                        ..DetectOptions::default()
                    },
                )
                .unwrap();
                // Use singleton masks — always covering.
                let masks: Vec<u64> = (0..c.total_bits()).map(|b| 1u64 << b).collect();
                assert!(table.all_covered(&masks));
                for (i, &f) in faults.iter().enumerate() {
                    let out =
                        simulate_fault_detection(&c, f, &masks, p, 400, 99 ^ i as u64, semantics);
                    assert!(
                        !matches!(out, SimOutcome::Missed { .. }),
                        "p={p} ({semantics:?}): covered fault {f} missed operationally"
                    );
                }
            }
        }
    }

    #[test]
    fn semantics_agree_at_latency_one() {
        // The two step-difference definitions coincide at p = 1: the
        // detectability tables must be identical.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let build = |semantics| {
            DetectabilityTable::build(
                &c,
                &faults,
                &DetectOptions {
                    latency: 1,
                    semantics,
                    ..DetectOptions::default()
                },
            )
            .unwrap()
            .0
        };
        assert_eq!(
            build(Semantics::Lockstep),
            build(Semantics::FaultyTrajectory)
        );
    }

    #[test]
    fn transient_long_persistence_behaves_like_permanent() {
        // With persistence covering the whole run, singleton monitors at
        // p = 1 must detect (or observe nothing), never escape.
        let c = circuit();
        let masks: Vec<u64> = (0..c.total_bits()).map(|b| 1u64 << b).collect();
        let faults = collapsed_faults(c.netlist());
        for (i, &f) in faults.iter().enumerate() {
            let out =
                simulate_transient_fault_detection(&c, f, &masks, 1, 0, 10_000, 600, 21 ^ i as u64);
            assert_ne!(
                out,
                TransientOutcome::Escaped,
                "{f}: escaped despite full persistence and p = 1"
            );
        }
    }

    #[test]
    fn transient_short_persistence_can_escape_latency_two() {
        // A checker relying on latency 2 (masks chosen to miss some
        // first-step diffs) can be escaped by 1-cycle faults — the §2
        // SEU caveat. We only require that escapes are *possible*, so
        // scan onsets until one shows, with an empty mask set (relies
        // entirely on later steps, which never come).
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let mut escaped = 0usize;
        for (i, &f) in faults.iter().enumerate() {
            for onset in 0..20 {
                if simulate_transient_fault_detection(&c, f, &[], 2, onset, 1, 200, 77 ^ i as u64)
                    == TransientOutcome::Escaped
                {
                    escaped += 1;
                    break;
                }
            }
        }
        assert!(escaped > 0, "no single-cycle fault ever escaped?");
    }

    #[test]
    fn transient_detection_latency_within_bound() {
        let c = circuit();
        let masks: Vec<u64> = (0..c.total_bits()).map(|b| 1u64 << b).collect();
        let f = collapsed_faults(c.netlist())[0];
        for onset in [0usize, 3, 9] {
            if let TransientOutcome::Detected { latency } =
                simulate_transient_fault_detection(&c, f, &masks, 2, onset, 50, 300, 5)
            {
                assert!((1..=2).contains(&latency));
            }
        }
    }
}
