//! Stuck-at fault-injection campaigns on the protected FSM, judged by
//! the synthesized checker netlist and cross-validated against the
//! detectability tensor `V(i,j,k)`.
//!
//! For every injected fault the campaign holds two verdicts against
//! each other:
//!
//! * **analytic** — the fault's own erroneous cases, enumerated
//!   exhaustively under the hardware ([`Semantics::FaultyTrajectory`])
//!   semantics: is every case covered by the checker's parity masks?
//! * **operational** — a random-input run of the faulty machine with
//!   the *actual checker netlist* in the loop: when does `ERROR` rise
//!   relative to the first error activation?
//!
//! Analytic coverage must imply operational detection within the bound;
//! anything else is a [`Disagreement`]. Additionally, on every cycle
//! whose present state is fault-free-reachable the checker netlist's
//! answer must equal the parity model's (the predictor is exact there —
//! don't-cares only cover unreachable codes); a divergence is a
//! [`Disagreement::CheckerModelMismatch`].

use crate::checker::audit_checker;
use crate::report::{CampaignReport, Disagreement, MachineCampaign};
use ced_core::hardware::CedHardware;
use ced_fsm::encoded::FsmCircuit;
use ced_par::ParExec;
use ced_runtime::{Budget, Interrupted};
use ced_sim::detect::{fault_cases, DetectError, DetectOptions, InputModel, Semantics};
use ced_sim::fault::{Fault, FaultModel};
use ced_sim::tables::{FaultTables, TransitionTables};
use ced_store::Store;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::fmt;

/// Extra cycles past the detection deadline a drive keeps going, to
/// distinguish a late detection (latency violation) from a fault that
/// is never caught at all.
const GRACE: usize = 8;

/// Campaign configuration. The latency bound is taken from the checker
/// under test ([`CedHardware::latency`]), not duplicated here.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Cycles driven per injected machine fault.
    pub steps: usize,
    /// Base seed of the per-fault input streams.
    pub seed: u64,
    /// Also audit the checker's own netlist (see [`crate::checker`]).
    pub checker_faults: bool,
    /// Temporal/spatial fault model driven by the campaign. The
    /// analytic verdict enumerates the same model's tensor, so the two
    /// verdicts stay comparable; time-varying models assert the fault
    /// over seed-randomized activation windows instead of permanently
    /// (the permanent drive is byte-identical to the pre-model one).
    pub fault_model: FaultModel,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            steps: 2000,
            seed: 0xCED_CA3E,
            checker_faults: true,
            fault_model: FaultModel::default(),
        }
    }
}

/// Failure of a budgeted campaign.
#[derive(Debug)]
pub enum CampaignError {
    /// A fault's erroneous-case enumeration failed.
    Detect(DetectError),
    /// The campaign's [`Budget`] ran out; the partial campaign covers
    /// every fault judged before the interrupt.
    Interrupted {
        /// The budget interruption.
        interrupted: Interrupted,
        /// Outcomes accumulated before the interrupt (its `injected`
        /// count equals the faults actually judged).
        partial: Box<MachineCampaign>,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Detect(e) => write!(f, "campaign detectability error: {e}"),
            CampaignError::Interrupted {
                interrupted,
                partial,
            } => write!(
                f,
                "campaign {} ({} faults judged)",
                interrupted, partial.injected
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<DetectError> for CampaignError {
    fn from(e: DetectError) -> CampaignError {
        CampaignError::Detect(e)
    }
}

/// Per-fault operational outcome, already reconciled with the analytic
/// verdict (disagreements are recorded separately in the report).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineFaultOutcome {
    /// Analytically covered and caught within the bound.
    DetectedInBound {
        /// Observed detection latency (1 = activation cycle).
        latency: usize,
    },
    /// Analytically *uncovered* yet caught within the bound — no
    /// guarantee was owed; the run got lucky.
    WindfallDetection {
        /// Observed detection latency.
        latency: usize,
    },
    /// Analytically uncovered and indeed escaped — the expected outcome
    /// for faults outside the cover's obligation.
    ExpectedEscape,
    /// No error ever activated during the driven run.
    Quiet,
    /// Analytically covered but never flagged (disagreement).
    Undetected {
        /// Cycle of the escaped activation.
        at_cycle: usize,
    },
    /// Analytically covered, flagged only after the deadline
    /// (disagreement).
    LatencyViolation {
        /// Observed (too-late) latency.
        observed: usize,
    },
}

/// Raw result of one checker-in-the-loop drive.
enum RawOutcome {
    Quiet,
    Detected { latency: usize },
    Late { observed: usize },
    Missed { at_cycle: usize },
}

/// Analytic verdict for one fault against the tensor.
enum Analytic {
    Untestable,
    Covered,
    Uncovered,
}

/// Runs the full campaign with no budget, serially and without a
/// store: [`run_campaign_stored`] under [`Budget::unlimited`] on
/// [`ParExec::serial`].
///
/// # Errors
///
/// Propagates [`DetectError`] from the per-fault erroneous-case
/// enumeration (row caps; never zero latency — the checker carries
/// `p ≥ 1`).
///
/// # Panics
///
/// As [`run_campaign_stored`].
pub fn run_campaign(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    faults: &[Fault],
    options: &CampaignOptions,
) -> Result<CampaignReport, DetectError> {
    match run_campaign_stored(
        circuit,
        ced,
        faults,
        options,
        &Budget::unlimited(),
        &ParExec::serial(),
        None,
    ) {
        Ok(report) => Ok(report),
        Err(CampaignError::Detect(e)) => Err(e),
        Err(CampaignError::Interrupted { .. }) => {
            unreachable!("an unlimited budget cannot interrupt")
        }
    }
}

/// Runs the full campaign: every fault in `faults` is injected into
/// `circuit` and judged by `ced` (whose [`CedHardware::latency`] is the
/// bound), then cross-validated against the fault's own exhaustive
/// erroneous cases ([`fault_cases`]); optionally the checker netlist
/// itself is audited.
///
/// The good tables, their reachable codes and the enumeration options
/// are computed once per campaign; each fault's faulty tables are
/// extracted once and serve both its analytic verdict and its drive.
///
/// **Budget.** One tick per injected fault, checked at every fault
/// boundary. An interrupted campaign returns the outcomes judged so far
/// as a typed partial result — campaigns are restartable per fault, not
/// resumable mid-fault.
///
/// **Pool.** Faults are judged in parallel (each judgement — faulty
/// tables, analytic verdict, the checker-in-the-loop drive — is pure
/// and carries its own deterministic seed), then folded into the
/// campaign accumulator in fault-index order. The checker self-audit
/// then classifies the checker's own faults on the same pool, folded
/// in fault-list order too. The report is byte-identical to the serial
/// run at every job count; an interrupt surfaces the lowest-index
/// interrupted fault with the outcomes of every fault before it, and
/// the pool drains (no fault above the interrupt index is started once
/// it is known).
///
/// **`_store` is unused.** The campaign reads and writes no artifact:
/// a fault's verdict costs less to enumerate on the tables its drive
/// needs anyway than to key and fetch, and the drives are the
/// operational evidence the campaign exists to collect. The parameter
/// stays only so the benchmark's traced replay keeps compiling; it
/// goes with the next benchmark change.
///
/// # Errors
///
/// [`CampaignError::Detect`] when a fault's erroneous-case enumeration
/// fails; [`CampaignError::Interrupted`] when the budget runs out.
///
/// # Panics
///
/// Panics if the checker was synthesized for a different circuit
/// interface than `circuit`.
pub fn run_campaign_stored(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    faults: &[Fault],
    options: &CampaignOptions,
    budget: &Budget,
    pool: &ParExec,
    _store: Option<&Store>,
) -> Result<CampaignReport, CampaignError> {
    let p = ced.latency();
    assert_eq!(
        ced.masks()
            .iter()
            .fold(0u64, |a, &m| a | m)
            .checked_shr(circuit.total_bits() as u32)
            .unwrap_or(0),
        0,
        "checker monitors bits outside the circuit interface"
    );
    let extractor = FaultTables::new(circuit);
    let good = extractor.good();
    let activation_states = good.reachable_codes();
    // Fault-free-reachable codes as a dense lookup: where the predictor
    // logic is exact rather than don't-care.
    let mut valid = vec![false; 1 << good.state_bits()];
    for &c in &activation_states {
        valid[c as usize] = true;
    }
    // The hardware's view: faulty-trajectory semantics, every input.
    let detect = DetectOptions {
        latency: p,
        semantics: Semantics::FaultyTrajectory,
        input_model: InputModel::Exhaustive,
        fault_model: options.fault_model,
        ..DetectOptions::default()
    };
    let mut machine = MachineCampaign {
        injected: faults.len(),
        detectable: 0,
        detected_within_bound: 0,
        latency_histogram: vec![0; p + 1],
        windfall_detections: 0,
        expected_escapes: 0,
        quiet: 0,
        outcomes: Vec::with_capacity(faults.len()),
        disagreements: Vec::new(),
    };

    // Judge faults on the pool; fold outcomes in fault-index order.
    // Each judgement is pure per fault (its drive seed is derived from
    // the fault index), so the parallel fold is byte-identical to the
    // serial loop; the failure-floor drain makes the surfaced error
    // the lowest-index one, again matching the serial loop.
    let judged = pool.for_each_ordered(
        faults,
        |i, &fault| {
            budget
                .tick(1, "inject:fault")
                .map_err(JudgeError::Interrupted)?;
            // The faulty tables, extracted once: the verdict and the
            // drive both read them.
            let bad = extractor
                .faulty(&options.fault_model.expand(fault, circuit.netlist()), None)
                .expect("extraction without a budget cannot be interrupted");
            let analytic = analytic_verdict(good, &bad, &activation_states, &detect, ced.masks())
                .map_err(JudgeError::Detect)?;
            // Decorrelates per-fault seeds: the first word of a stream
            // seeded with the fault index.
            let seed = options.seed ^ StdRng::seed_from_u64(i as u64).next_u64();
            let (raw, mismatch) =
                drive_with_checker(circuit, ced, good, &bad, &valid, p, options, seed);
            Ok(FaultJudgement {
                analytic,
                raw,
                mismatch,
            })
        },
        |i, judgement| apply_judgement(&mut machine, p, faults[i], judgement),
    );
    match judged {
        Ok(()) => {}
        Err(JudgeError::Detect(e)) => return Err(CampaignError::Detect(e)),
        Err(JudgeError::Interrupted(interrupted)) => {
            machine.injected = machine.outcomes.len();
            return Err(CampaignError::Interrupted {
                interrupted,
                partial: Box::new(machine),
            });
        }
    }

    let checker = if options.checker_faults {
        if let Err(interrupted) = budget.tick(1, "inject:checker-audit") {
            machine.injected = machine.outcomes.len();
            return Err(CampaignError::Interrupted {
                interrupted,
                partial: Box::new(machine),
            });
        }
        Some(audit_checker(circuit, ced, options, pool))
    } else {
        None
    };

    Ok(CampaignReport {
        bound: p,
        machine,
        checker,
    })
}

/// Item error of one pooled fault judgement.
enum JudgeError {
    Interrupted(Interrupted),
    Detect(DetectError),
}

/// Everything one fault's judgement produces, before it touches the
/// (order-sensitive) campaign accumulator.
struct FaultJudgement {
    analytic: Analytic,
    raw: RawOutcome,
    mismatch: Option<usize>,
}

/// The analytic verdict: the fault's erroneous cases, enumerated
/// exhaustively on its faulty tables `bad` under the hardware semantics
/// and the campaign's fault model (`detect`), tested against the
/// checker's masks. [`fault_cases`] walks exactly as the whole-table
/// builder walks a single fault, without re-extracting any table.
fn analytic_verdict(
    good: &TransitionTables,
    bad: &TransitionTables,
    activation_states: &[u64],
    detect: &DetectOptions,
    masks: &[u64],
) -> Result<Analytic, DetectError> {
    Ok(match fault_cases(good, bad, activation_states, detect)? {
        None => Analytic::Untestable,
        Some(cases) if cases.all_covered(masks) => Analytic::Covered,
        Some(_) => Analytic::Uncovered,
    })
}

/// Folds one judgement into the campaign accumulator. Called in
/// fault-index order — disagreement and outcome lists are
/// order-sensitive report payload.
fn apply_judgement(machine: &mut MachineCampaign, p: usize, fault: Fault, j: FaultJudgement) {
    if let Some(cycle) = j.mismatch {
        machine
            .disagreements
            .push(Disagreement::CheckerModelMismatch { fault, cycle });
    }
    let outcome = match (&j.analytic, j.raw) {
        (Analytic::Covered, RawOutcome::Detected { latency }) => {
            machine.detectable += 1;
            machine.detected_within_bound += 1;
            machine.latency_histogram[latency] += 1;
            MachineFaultOutcome::DetectedInBound { latency }
        }
        (Analytic::Covered, RawOutcome::Late { observed }) => {
            machine.detectable += 1;
            machine.disagreements.push(Disagreement::LatencyViolation {
                fault,
                observed,
                bound: p,
            });
            MachineFaultOutcome::LatencyViolation { observed }
        }
        (Analytic::Covered, RawOutcome::Missed { at_cycle }) => {
            machine.detectable += 1;
            machine
                .disagreements
                .push(Disagreement::UndetectedFault { fault, at_cycle });
            MachineFaultOutcome::Undetected { at_cycle }
        }
        (Analytic::Uncovered, RawOutcome::Detected { latency }) => {
            machine.windfall_detections += 1;
            MachineFaultOutcome::WindfallDetection { latency }
        }
        (Analytic::Uncovered, RawOutcome::Late { .. } | RawOutcome::Missed { .. }) => {
            machine.expected_escapes += 1;
            MachineFaultOutcome::ExpectedEscape
        }
        (Analytic::Untestable, RawOutcome::Quiet) | (_, RawOutcome::Quiet) => {
            machine.quiet += 1;
            MachineFaultOutcome::Quiet
        }
        (Analytic::Untestable, _) => {
            machine
                .disagreements
                .push(Disagreement::PhantomActivation { fault });
            machine.quiet += 1;
            MachineFaultOutcome::Quiet
        }
    };
    machine.outcomes.push((fault, outcome));
}

/// One checker-in-the-loop run: the faulty machine advances on random
/// inputs while the synthesized checker watches (present state, input,
/// actual monitored bits). Returns the raw detection outcome and the
/// first cycle (if any) where the netlist's flag disagreed with the
/// parity model on a fault-free-reachable present state.
///
/// The checker runs 64 cycles per netlist pass: the trajectory never
/// depends on `ERROR`, so up to 64 cycles of it are run ahead and
/// packed into one [`CedHardware::flags_words`] call, then the
/// per-cycle verdict is replayed over the lanes in order and stops
/// where a one-cycle drive would (DESIGN §7.3). Input draws past the
/// stop are dropped with the fault's own RNG stream.
///
/// Time-invariant models (permanent, multi-bit) hold the fault
/// asserted for the whole run — byte-identical to the pre-model drive
/// for the permanent default. Time-varying models assert it over
/// seed-randomized activation windows ([`FaultModel::active_at`]
/// relative to each window's start): a transient whose window closes
/// without ever activating an error re-arms at a later random cycle,
/// so short-lived faults still produce operational evidence. A miss
/// under a transient model is an *escape of that activation* — the
/// shared trajectory carries no difference once the fault is dead,
/// which is exactly what the model's analytic tensor predicts.
#[allow(clippy::too_many_arguments)] // campaign internals; one call site
fn drive_with_checker(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    good: &TransitionTables,
    bad: &TransitionTables,
    valid: &[bool],
    p: usize,
    options: &CampaignOptions,
    seed: u64,
) -> (RawOutcome, Option<usize>) {
    let r = circuit.num_inputs();
    let input_mask = if r >= 64 { u64::MAX } else { (1u64 << r) - 1 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = circuit.reset_code();
    let mut window: Option<usize> = None;
    let mut mismatch: Option<usize> = None;
    let model = options.fault_model;
    let invariant = model.time_invariant();
    // First activation window of a time-varying model starts at a
    // seed-randomized cycle (drawn before any input, so the input
    // stream itself also shifts per window placement).
    let mut assert_at: usize = if invariant {
        0
    } else {
        (rng.next_u64() % 8) as usize
    };
    // Whether some earlier cycle's response differed from the good
    // one: the re-arm rule's "no error activated yet". The look-ahead
    // tracks it itself, since `window` is only set by the replay.
    let mut activated = false;
    let mut words = ced.lane_words();
    let mut values = Vec::new();
    let mut diffs = [0u64; 64];

    let mut block_start = 0;
    while block_start < options.steps {
        // Look-ahead: the trajectory never depends on `ERROR`, so run
        // up to 64 cycles of it and pack them into one checker pass.
        let lanes = (options.steps - block_start).min(64);
        words.fill(0);
        let mut valid_lanes = 0u64;
        for (lane, d_slot) in diffs.iter_mut().enumerate().take(lanes) {
            let cycle = block_start + lane;
            let active = if invariant {
                true
            } else if cycle < assert_at {
                false
            } else {
                let step = cycle - assert_at + 1;
                if model.dead_after(step) && !activated {
                    // The transient died without activating an error:
                    // re-arm it at a later random cycle.
                    assert_at = cycle + 1 + (rng.next_u64() % 16) as usize;
                    false
                } else {
                    model.active_at(step)
                }
            };
            let eff = if active { bad } else { good };
            let input = rng.next_u64() & input_mask;
            let actual = eff.response(state, input);
            let d = good.response(state, input) ^ actual;
            ced.pack_lane(&mut words, lane, state, input, actual);
            valid_lanes |= u64::from(valid[state as usize]) << lane;
            *d_slot = d;
            activated |= d != 0;
            state = eff.next(state, input);
        }
        let flags = ced.flags_words(&words, &mut values);

        // Replay the per-cycle verdict over the lanes in order; a
        // verdict discards the rest of the look-ahead.
        for (lane, &d) in diffs.iter().enumerate().take(lanes) {
            let cycle = block_start + lane;
            let flagged = (flags >> lane) & 1 == 1;
            let model_flag = ced.masks().iter().any(|&m| (m & d).count_ones() & 1 == 1);
            if flagged != model_flag && (valid_lanes >> lane) & 1 == 1 && mismatch.is_none() {
                mismatch = Some(cycle);
            }
            if d != 0 && window.is_none() {
                window = Some(cycle);
            }
            if let Some(start) = window {
                if flagged {
                    let observed = cycle - start + 1;
                    let raw = if observed <= p {
                        RawOutcome::Detected { latency: observed }
                    } else {
                        RawOutcome::Late { observed }
                    };
                    return (raw, mismatch);
                }
                if cycle >= start + p - 1 + GRACE {
                    return (RawOutcome::Missed { at_cycle: start }, mismatch);
                }
            }
        }
        block_start += lanes;
    }
    // No activation, or a window still open at the end of the run with
    // neither verdict reached: no observation either way.
    (RawOutcome::Quiet, mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_core::ip::ParityCover;
    use ced_core::synthesize_ced;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;
    use ced_sim::fault::collapsed_faults;

    fn circuit() -> FsmCircuit {
        let fsm = suite::sequence_detector();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    #[test]
    fn singleton_checker_yields_clean_campaign() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        let report = run_campaign(&c, &ced, &faults, &CampaignOptions::default()).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.machine.injected, faults.len());
        assert_eq!(
            report.machine.detected_within_bound,
            report.machine.detectable
        );
        assert!(report.machine.detectable > 0);
        // Singleton masks cover every erroneous case, so nothing is
        // "uncovered": no escapes, no windfalls.
        assert_eq!(report.machine.expected_escapes, 0);
        assert_eq!(report.machine.windfall_detections, 0);
    }

    #[test]
    fn empty_cover_reports_expected_escapes_not_disagreements() {
        let c = circuit();
        // A deliberately useless checker: one mask monitoring nothing
        // cannot be synthesized, so use a single even-cancelling mask.
        let cover = ParityCover::new(vec![0b11]);
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        let report = run_campaign(&c, &ced, &faults, &CampaignOptions::default()).unwrap();
        // Whatever the masks miss is an *expected* escape, never a
        // disagreement: analytic and operational verdicts must agree.
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.machine.expected_escapes > 0);
    }

    #[test]
    fn exhausted_budget_returns_typed_partial_campaign() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        // Enough budget for exactly 2 fault boundaries.
        let budget = Budget::new().with_tick_cap(3);
        let err = run_campaign_stored(
            &c,
            &ced,
            &faults,
            &CampaignOptions::default(),
            &budget,
            &ParExec::serial(),
            None,
        )
        .unwrap_err();
        match err {
            CampaignError::Interrupted {
                interrupted,
                partial,
            } => {
                assert_eq!(interrupted.progress.stage, "inject:fault");
                assert!(partial.injected < faults.len());
                assert_eq!(partial.injected, partial.outcomes.len());
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn cancelled_campaign_stops_at_the_next_fault() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        let budget = Budget::new();
        budget.cancel_token().cancel();
        let err = run_campaign_stored(
            &c,
            &ced,
            &faults,
            &CampaignOptions::default(),
            &budget,
            &ParExec::serial(),
            None,
        )
        .unwrap_err();
        match err {
            CampaignError::Interrupted {
                interrupted,
                partial,
            } => {
                assert_eq!(interrupted.kind, ced_runtime::InterruptKind::Cancelled);
                assert_eq!(partial.injected, 0);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn timed_models_reconcile_analytic_and_operational_verdicts() {
        // A singleton cover detects every erroneous case at its first
        // step under any model, so transient / intermittent / multi-bit
        // campaigns must all come back free of disagreements.
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        for model in [
            FaultModel::TransientSeu { duration: 2 },
            FaultModel::Intermittent { period: 3 },
            FaultModel::MultiBitCluster { radius: 1 },
        ] {
            let faults = if matches!(model, FaultModel::MultiBitCluster { .. }) {
                ced_sim::fault::all_faults(c.netlist())
            } else {
                collapsed_faults(c.netlist())
            };
            let report = run_campaign(
                &c,
                &ced,
                &faults,
                &CampaignOptions {
                    fault_model: model,
                    checker_faults: false,
                    ..CampaignOptions::default()
                },
            )
            .unwrap();
            assert!(report.is_clean(), "{model}: {}", report.render());
            assert!(
                report.machine.detected_within_bound > 0,
                "{model}: no operational detections at all"
            );
        }
    }

    #[test]
    fn explicit_permanent_model_matches_default_campaign() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        let implicit = run_campaign(&c, &ced, &faults, &CampaignOptions::default()).unwrap();
        let explicit = run_campaign(
            &c,
            &ced,
            &faults,
            &CampaignOptions {
                fault_model: FaultModel::PermanentStuckAt,
                ..CampaignOptions::default()
            },
        )
        .unwrap();
        assert_eq!(implicit.machine.outcomes, explicit.machine.outcomes);
        assert_eq!(implicit.render(), explicit.render());
    }

    #[test]
    fn campaign_is_deterministic() {
        let c = circuit();
        let cover = ParityCover::singletons(c.total_bits());
        let ced = synthesize_ced(&c, &cover, 1, &MinimizeOptions::default());
        let faults = collapsed_faults(c.netlist());
        let a = run_campaign(&c, &ced, &faults, &CampaignOptions::default()).unwrap();
        let b = run_campaign(&c, &ced, &faults, &CampaignOptions::default()).unwrap();
        assert_eq!(a.machine.outcomes, b.machine.outcomes);
        assert_eq!(a.render(), b.render());
    }
}
