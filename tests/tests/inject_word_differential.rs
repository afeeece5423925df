//! Differential of the word-parallel inject campaign against scalar
//! references.
//!
//! The campaign drives the checker netlist 64 cycles per pass (a
//! look-ahead of the faulty trajectory, then a lane-by-lane replay of
//! the verdict) and audits the checker's own faults by re-evaluating
//! only each fault's fanout cone. This file keeps the one-cycle-at-a-
//! time drive and the whole-netlist `eval_outputs_faulty` audit loop as
//! test-local references, builds a whole [`CampaignReport`] from them,
//! and demands the product's report equal it — under all four fault
//! models, p = 1..3, two seeds, a serial and a two-worker pool, and
//! both a complete cover and one with a mask dropped (so escapes,
//! windfalls and late or missed detections all occur).

use ced_core::hardware::CedHardware;
use ced_core::pipeline::{fault_list, synthesize_circuit, PipelineOptions};
use ced_core::search::{minimize_parity_functions, CedOptions};
use ced_core::synthesize_ced;
use ced_core::ParityCover;
use ced_fsm::encoded::FsmCircuit;
use ced_fsm::suite;
use ced_inject::{
    run_campaign_stored, CampaignOptions, CampaignReport, CheckerCampaign, CheckerFaultClass,
    Disagreement, MachineCampaign, MachineFaultOutcome,
};
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_sim::detect::{BuildControl, DetectOptions, DetectabilityTable, InputModel, Semantics};
use ced_sim::eval::eval_outputs_faulty;
use ced_sim::fault::{collapsed_faults, Fault, FaultModel};
use ced_sim::tables::TransitionTables;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Extra cycles past the deadline the drive keeps going.
const GRACE: usize = 8;
/// Most probe inputs per state in the checker audit.
const PROBE_INPUT_CAP: usize = 64;

#[derive(Debug, Clone, Copy)]
enum Raw {
    Quiet,
    Detected(usize),
    Late(usize),
    Missed(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Analytic {
    Untestable,
    Covered,
    Uncovered,
}

/// Raw outcomes the reference drive produced, across a whole run of
/// the matrix: proof that each verdict branch was exercised.
#[derive(Debug, Default)]
struct Seen {
    detected: usize,
    late: usize,
    missed: usize,
    escapes: usize,
    windfalls: usize,
    mismatches: usize,
}

/// The scalar drive: one `CedHardware::flags` call per cycle, the
/// re-arm rule reading the verdict window itself.
#[allow(clippy::too_many_arguments)]
fn scalar_drive(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    good: &TransitionTables,
    bad: &TransitionTables,
    valid: &[bool],
    p: usize,
    options: &CampaignOptions,
    seed: u64,
) -> (Raw, Option<usize>) {
    let r = circuit.num_inputs();
    let input_mask = if r >= 64 { u64::MAX } else { (1u64 << r) - 1 };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = circuit.reset_code();
    let mut window: Option<usize> = None;
    let mut mismatch: Option<usize> = None;
    let model = options.fault_model;
    let invariant = model.time_invariant();
    let mut assert_at: usize = if invariant {
        0
    } else {
        (rng.next_u64() % 8) as usize
    };
    for cycle in 0..options.steps {
        let active = if invariant {
            true
        } else if cycle < assert_at {
            false
        } else {
            let step = cycle - assert_at + 1;
            if model.dead_after(step) && window.is_none() {
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
        let flagged = ced.flags(state, input, actual);
        let model_flag = ced.masks().iter().any(|&m| (m & d).count_ones() & 1 == 1);
        if flagged != model_flag && valid[state as usize] && mismatch.is_none() {
            mismatch = Some(cycle);
        }
        if d != 0 && window.is_none() {
            window = Some(cycle);
        }
        if let Some(start) = window {
            if flagged {
                let observed = cycle - start + 1;
                let raw = if observed <= p {
                    Raw::Detected(observed)
                } else {
                    Raw::Late(observed)
                };
                return (raw, mismatch);
            }
            if cycle >= start + p - 1 + GRACE {
                return (Raw::Missed(start), mismatch);
            }
        }
        state = eff.next(state, input);
    }
    (Raw::Quiet, mismatch)
}

fn analytic_verdict(
    circuit: &FsmCircuit,
    fault: Fault,
    model: FaultModel,
    masks: &[u64],
    p: usize,
) -> Analytic {
    let unlimited = Budget::unlimited();
    let (table, stats) = DetectabilityTable::build_many_controlled(
        circuit,
        &[fault],
        &DetectOptions {
            latency: p,
            semantics: Semantics::FaultyTrajectory,
            input_model: InputModel::Exhaustive,
            fault_model: model,
            ..DetectOptions::default()
        },
        &[p],
        BuildControl::new(&unlimited),
    )
    .expect("one-fault table fits")
    .pop()
    .expect("one latency requested");
    if stats.untestable_faults == 1 {
        Analytic::Untestable
    } else if table.all_covered(masks) {
        Analytic::Covered
    } else {
        Analytic::Uncovered
    }
}

/// The checker audit as a whole-netlist faulty evaluation per fault and
/// probe batch, with the probes packed by hand.
fn scalar_audit(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    options: &CampaignOptions,
) -> CheckerCampaign {
    let r = circuit.num_inputs();
    let s = circuit.state_bits();
    let n = circuit.total_bits();
    let union: u64 = ced.masks().iter().fold(0, |a, &m| a | m);
    let good = TransitionTables::good(circuit);
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x0C4E_C4E2);
    let mut probes: Vec<(u64, u64, u64, bool)> = Vec::new();
    for c in good.reachable_codes() {
        let total_inputs = 1u64 << r;
        let sampled: Vec<u64> = if total_inputs as usize <= PROBE_INPUT_CAP {
            (0..total_inputs).collect()
        } else {
            (0..PROBE_INPUT_CAP)
                .map(|_| rng.next_u64() & (total_inputs - 1))
                .collect()
        };
        for input in sampled {
            let actual = good.response(c, input);
            probes.push((c, input, actual, true));
            for j in 0..n {
                if (union >> j) & 1 == 1 {
                    probes.push((c, input, actual ^ (1 << j), false));
                }
            }
        }
    }
    // (words, lanes, clean, pristine) per batch of 64 probes.
    let mut batches = Vec::new();
    for chunk in probes.chunks(64) {
        let mut words = vec![0u64; r + s + n];
        let mut lanes = 0u64;
        let mut clean = 0u64;
        for (lane, &(state, input, actual, is_clean)) in chunk.iter().enumerate() {
            lanes |= 1 << lane;
            if is_clean {
                clean |= 1 << lane;
            }
            let fields = [(input, 0, r), (state, r, s), (actual, r + s, n)];
            for (value, base, width) in fields {
                for bit in 0..width {
                    if (value >> bit) & 1 == 1 {
                        words[base + bit] |= 1 << lane;
                    }
                }
            }
        }
        let pristine = ced.netlist().eval_outputs_words(&words)[0] & lanes;
        batches.push((words, lanes, clean, pristine));
    }

    let faults = collapsed_faults(ced.netlist());
    let mut campaign = CheckerCampaign {
        injected: faults.len(),
        false_alarms: 0,
        self_masking: 0,
        benign: 0,
        masking_faults: Vec::new(),
        classes: Vec::new(),
    };
    for &fault in &faults {
        let mut alarms = false;
        let mut masks_somewhere = false;
        for (words, lanes, clean, pristine) in &batches {
            let faulty = eval_outputs_faulty(ced.netlist(), words, fault)[0] & lanes;
            alarms |= faulty & clean != 0;
            masks_somewhere |= pristine & !faulty != 0;
        }
        let class = if alarms {
            campaign.false_alarms += 1;
            CheckerFaultClass::FalseAlarm
        } else if masks_somewhere {
            campaign.self_masking += 1;
            campaign.masking_faults.push(fault);
            CheckerFaultClass::SelfMasking
        } else {
            campaign.benign += 1;
            CheckerFaultClass::Benign
        };
        campaign.classes.push((fault, class));
    }
    campaign
}

/// The whole campaign report, built serially from the references.
fn reference_campaign(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    faults: &[Fault],
    options: &CampaignOptions,
    seen: &mut Seen,
) -> CampaignReport {
    let p = ced.latency();
    let good = TransitionTables::good(circuit);
    let mut valid = vec![false; 1 << good.state_bits()];
    for c in good.reachable_codes() {
        valid[c as usize] = true;
    }
    let mut m = MachineCampaign {
        injected: faults.len(),
        detectable: 0,
        detected_within_bound: 0,
        latency_histogram: vec![0; p + 1],
        windfall_detections: 0,
        expected_escapes: 0,
        quiet: 0,
        outcomes: Vec::new(),
        disagreements: Vec::new(),
    };
    for (i, &fault) in faults.iter().enumerate() {
        let analytic = analytic_verdict(circuit, fault, options.fault_model, ced.masks(), p);
        let bad = TransitionTables::faulty(
            circuit,
            &options.fault_model.expand(fault, circuit.netlist()),
        );
        let seed = options.seed ^ StdRng::seed_from_u64(i as u64).next_u64();
        let (raw, mismatch) = scalar_drive(circuit, ced, &good, &bad, &valid, p, options, seed);
        match raw {
            Raw::Detected(_) => seen.detected += 1,
            Raw::Late(_) => seen.late += 1,
            Raw::Missed(_) => seen.missed += 1,
            Raw::Quiet => {}
        }
        if let Some(cycle) = mismatch {
            seen.mismatches += 1;
            m.disagreements
                .push(Disagreement::CheckerModelMismatch { fault, cycle });
        }
        let outcome = match (analytic, raw) {
            (_, Raw::Quiet) => {
                m.quiet += 1;
                MachineFaultOutcome::Quiet
            }
            (Analytic::Untestable, _) => {
                m.disagreements
                    .push(Disagreement::PhantomActivation { fault });
                m.quiet += 1;
                MachineFaultOutcome::Quiet
            }
            (Analytic::Covered, Raw::Detected(latency)) => {
                m.detectable += 1;
                m.detected_within_bound += 1;
                m.latency_histogram[latency] += 1;
                MachineFaultOutcome::DetectedInBound { latency }
            }
            (Analytic::Covered, Raw::Late(observed)) => {
                m.detectable += 1;
                m.disagreements.push(Disagreement::LatencyViolation {
                    fault,
                    observed,
                    bound: p,
                });
                MachineFaultOutcome::LatencyViolation { observed }
            }
            (Analytic::Covered, Raw::Missed(at_cycle)) => {
                m.detectable += 1;
                m.disagreements
                    .push(Disagreement::UndetectedFault { fault, at_cycle });
                MachineFaultOutcome::Undetected { at_cycle }
            }
            (Analytic::Uncovered, Raw::Detected(latency)) => {
                seen.windfalls += 1;
                m.windfall_detections += 1;
                MachineFaultOutcome::WindfallDetection { latency }
            }
            (Analytic::Uncovered, Raw::Late(_) | Raw::Missed(_)) => {
                seen.escapes += 1;
                m.expected_escapes += 1;
                MachineFaultOutcome::ExpectedEscape
            }
        };
        m.outcomes.push((fault, outcome));
    }
    CampaignReport {
        bound: p,
        machine: m,
        checker: options
            .checker_faults
            .then(|| scalar_audit(circuit, ced, options)),
    }
}

/// The complete cover the pipeline finds at `p` under `model`, and
/// (when it has two masks or more) the same cover with its last mask
/// dropped.
fn covers(circuit: &FsmCircuit, faults: &[Fault], model: FaultModel, p: usize) -> Vec<ParityCover> {
    let (table, _) = DetectabilityTable::build(
        circuit,
        faults,
        &DetectOptions {
            latency: p,
            semantics: Semantics::FaultyTrajectory,
            input_model: InputModel::Exhaustive,
            fault_model: model,
            ..DetectOptions::default()
        },
    )
    .expect("table fits");
    let complete = minimize_parity_functions(&table, &CedOptions::default()).cover;
    let mut covers = vec![complete.clone()];
    if complete.masks.len() >= 2 {
        covers.push(ParityCover::new(
            complete.masks[..complete.masks.len() - 1].to_vec(),
        ));
    }
    covers
}

/// One cell of the matrix: the product's report at every pool width
/// in `pools` must equal the reference report, for every cover and
/// seed.
fn check_cell(
    fsm: &ced_fsm::Fsm,
    model: FaultModel,
    p: usize,
    seeds: &[u64],
    pools: &[ParExec],
    checker_faults: bool,
    seen: &mut Seen,
) {
    let options = PipelineOptions {
        fault_model: model,
        ..PipelineOptions::paper_defaults()
    };
    let circuit = synthesize_circuit(fsm, &options).expect("synthesizes");
    let faults = fault_list(&circuit, &options);
    for cover in &covers(&circuit, &faults, model, p) {
        let ced = synthesize_ced(&circuit, cover, p, &options.minimize);
        for &seed in seeds {
            let campaign = CampaignOptions {
                seed,
                checker_faults,
                fault_model: model,
                ..CampaignOptions::default()
            };
            let expected = reference_campaign(&circuit, &ced, &faults, &campaign, seen);
            for pool in pools {
                let got = run_campaign_stored(
                    &circuit,
                    &ced,
                    &faults,
                    &campaign,
                    &Budget::unlimited(),
                    pool,
                    None,
                )
                .expect("campaign runs");
                assert_eq!(
                    got,
                    expected,
                    "{} {model} p={p} masks={:?} seed={seed} jobs={}",
                    fsm.name(),
                    cover.masks,
                    pool.jobs()
                );
            }
        }
    }
}

fn machines() -> Vec<ced_fsm::Fsm> {
    let tav = suite::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == "tav")
        .expect("tav analogue")
        .build();
    vec![
        suite::sequence_detector(),
        suite::serial_adder(),
        suite::traffic_light(),
        tav,
    ]
}

#[test]
fn word_parallel_campaign_equals_the_scalar_references() {
    let models = [
        FaultModel::PermanentStuckAt,
        FaultModel::TransientSeu { duration: 2 },
        FaultModel::Intermittent { period: 3 },
        FaultModel::MultiBitCluster { radius: 1 },
    ];
    let mut seen = Seen::default();
    for fsm in &machines() {
        for model in models {
            for p in 1..=3 {
                check_cell(
                    fsm,
                    model,
                    p,
                    &[0xCED_CA3E, 7],
                    &[ParExec::serial(), ParExec::new(2)],
                    true,
                    &mut seen,
                );
            }
        }
    }
    // The matrix reaches every verdict branch of the drive and both
    // outcomes only an incomplete cover produces.
    assert!(seen.detected > 0, "{seen:?}");
    assert!(seen.late > 0, "{seen:?}");
    assert!(seen.missed > 0, "{seen:?}");
    assert!(seen.escapes > 0, "{seen:?}");
    assert!(seen.windfalls > 0, "{seen:?}");
}

#[test]
fn an_activated_transient_is_not_re_armed_inside_the_look_ahead() {
    // A one-cycle upset whose activation escapes is dead from then on.
    // Re-armed by mistake (the look-ahead reading the replay's window,
    // which it has not set yet), it fires again 2 + U(0..16) cycles
    // later; only a draw of 0 lands inside a p = 3 window and turns an
    // escape into a windfall, so the case needs many seeds to show.
    let mut seen = Seen::default();
    let seeds: Vec<u64> = (0..24).collect();
    for fsm in &machines() {
        check_cell(
            fsm,
            FaultModel::TransientSeu { duration: 1 },
            3,
            &seeds,
            &[ParExec::serial()],
            false,
            &mut seen,
        );
    }
    assert!(seen.escapes > 0, "{seen:?}");
    assert!(seen.windfalls > 0, "{seen:?}");
}
