//! Fault-injection audit of the checker's own netlist.
//!
//! The Fig. 3 hardware is itself silicon; a stuck-at fault inside the
//! predictor, the parity trees, the comparator or the `ERROR` OR-tree
//! changes *what the alarm means*. This module injects every collapsed
//! stuck-at fault into the checker netlist and classifies it against a
//! deterministic probe set:
//!
//! * [`CheckerFaultClass::FalseAlarm`] — the damaged checker raises
//!   `ERROR` on some fault-free transition. Fail-safe: the fault is
//!   detectable online the moment that transition occurs.
//! * [`CheckerFaultClass::SelfMasking`] — the damaged checker stays
//!   silent on some corruption the healthy checker flags, and never
//!   false-alarms. The dangerous, dormant class (e.g. `ERROR`
//!   stuck-at-0): the system believes it is protected while it is not.
//! * [`CheckerFaultClass::Benign`] — indistinguishable from the healthy
//!   checker on every probe (typically redundant logic).
//!
//! Probes are packed 64 per word ([`CedHardware::pack_lane`]) and the
//! healthy checker's net values are computed once per batch. A fault
//! then re-evaluates only its fanout cone ([`FaultCone`], the kernel
//! behind per-fault transition-table extraction) against those
//! fault-free values, so it costs `⌈probes/64⌉` passes over its cone,
//! and none at all when the cone misses `ERROR`. Faults are
//! classified on the campaign's pool and folded in fault-list order.

use crate::campaign::CampaignOptions;
use ced_core::hardware::CedHardware;
use ced_fsm::encoded::FsmCircuit;
use ced_logic::netlist::Netlist;
use ced_par::ParExec;
use ced_sim::eval::{Fanouts, FaultCone};
use ced_sim::fault::{collapsed_faults, Fault};
use ced_sim::tables::TransitionTables;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::convert::Infallible;

/// Most probe inputs per state; states with more inputs are sampled
/// deterministically.
const PROBE_INPUT_CAP: usize = 64;

/// Classification of one checker-internal stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerFaultClass {
    /// Raises `ERROR` on a fault-free transition: detectable online.
    FalseAlarm,
    /// Silently swallows a corruption the healthy checker flags, and
    /// never false-alarms: dormant and dangerous.
    SelfMasking,
    /// No behavioural difference on any probe.
    Benign,
}

/// Aggregate result of the checker-netlist audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerCampaign {
    /// Checker-internal faults injected.
    pub injected: usize,
    /// Faults classified [`CheckerFaultClass::FalseAlarm`].
    pub false_alarms: usize,
    /// Faults classified [`CheckerFaultClass::SelfMasking`].
    pub self_masking: usize,
    /// Faults classified [`CheckerFaultClass::Benign`].
    pub benign: usize,
    /// The dormant dangerous faults (the self-masking set), for
    /// reporting and for targeting a periodic self-test.
    pub masking_faults: Vec<Fault>,
    /// Per-fault classification, in fault-list order.
    pub classes: Vec<(Fault, CheckerFaultClass)>,
}

/// A packed batch of up to 64 probe vectors for the checker netlist.
struct ProbeBatch {
    /// Lanes actually populated.
    lanes: u64,
    /// Lanes that are fault-free transitions (`ERROR` must stay low).
    clean: u64,
    /// Healthy checker's `ERROR` per lane.
    pristine: u64,
    /// Healthy checker's value of every net, one word per net.
    good: Vec<u64>,
}

/// Audits every collapsed stuck-at fault of the checker netlist against
/// a deterministic probe set: all fault-free-reachable states, up to 64
/// inputs per state (sampled deterministically from `options.seed`
/// beyond the cap), each with the clean response and every single-bit
/// corruption inside the monitored mask union.
///
/// Faults are classified on `pool` and folded in fault-list order, so
/// the audit is identical at every job count.
pub fn audit_checker(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    options: &CampaignOptions,
    pool: &ParExec,
) -> CheckerCampaign {
    let batches = build_probes(circuit, ced, options);
    let faults = collapsed_faults(ced.netlist());
    let fanouts = Fanouts::new(ced.netlist());
    let mut campaign = CheckerCampaign {
        injected: faults.len(),
        false_alarms: 0,
        self_masking: 0,
        benign: 0,
        masking_faults: Vec::new(),
        classes: Vec::with_capacity(faults.len()),
    };
    let Ok(()) = pool.for_each_ordered(
        &faults,
        |_, &fault| Ok::<_, Infallible>(classify(ced.netlist(), &fanouts, &batches, fault)),
        |i, class| {
            let fault = faults[i];
            match class {
                CheckerFaultClass::FalseAlarm => campaign.false_alarms += 1,
                CheckerFaultClass::SelfMasking => {
                    campaign.self_masking += 1;
                    campaign.masking_faults.push(fault);
                }
                CheckerFaultClass::Benign => campaign.benign += 1,
            }
            campaign.classes.push((fault, class));
        },
    );
    campaign
}

/// Classifies one checker fault against every probe batch. Only the
/// fault's fanout cone is re-evaluated, over the batch's fault-free net
/// values; a cone that misses `ERROR` leaves every batch's answer at
/// the healthy one, with no evaluation at all.
fn classify(
    netlist: &Netlist,
    fanouts: &Fanouts,
    batches: &[ProbeBatch],
    fault: Fault,
) -> CheckerFaultClass {
    let error = netlist.outputs()[0].index();
    let mut cone = FaultCone::default();
    cone.mark(netlist, fanouts, &[fault]);
    let mut alarms = false;
    let mut masks_somewhere = false;
    for batch in batches {
        let faulty = if cone.contains(error) {
            cone.eval(netlist, &batch.good);
            cone.value(error) & batch.lanes
        } else {
            batch.pristine
        };
        // ERROR raised on a fault-free transition.
        if faulty & batch.clean != 0 {
            alarms = true;
        }
        // Healthy checker flags, damaged one stays silent.
        if batch.pristine & !faulty != 0 {
            masks_somewhere = true;
        }
        if alarms && masks_somewhere {
            break;
        }
    }
    if alarms {
        CheckerFaultClass::FalseAlarm
    } else if masks_somewhere {
        CheckerFaultClass::SelfMasking
    } else {
        CheckerFaultClass::Benign
    }
}

/// Builds the packed probe batches, precomputing the healthy checker's
/// net values word-parallel.
fn build_probes(
    circuit: &FsmCircuit,
    ced: &CedHardware,
    options: &CampaignOptions,
) -> Vec<ProbeBatch> {
    let r = circuit.num_inputs();
    let n = circuit.total_bits();
    let union: u64 = ced.masks().iter().fold(0, |a, &m| a | m);
    let good = TransitionTables::good(circuit);
    let mut rng = StdRng::seed_from_u64(options.seed ^ 0x0C4E_C4E2);

    // Probe vectors: (state, input, actual, clean?).
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

    let mut batches = Vec::with_capacity(probes.len().div_ceil(64));
    for chunk in probes.chunks(64) {
        let mut words = ced.lane_words();
        let mut lanes = 0u64;
        let mut clean = 0u64;
        for (lane, &(state, input, actual, is_clean)) in chunk.iter().enumerate() {
            lanes |= 1 << lane;
            if is_clean {
                clean |= 1 << lane;
            }
            ced.pack_lane(&mut words, lane, state, input, actual);
        }
        let mut good = Vec::new();
        let pristine = ced.flags_words(&words, &mut good) & lanes;
        debug_assert_eq!(
            pristine & clean,
            0,
            "healthy checker false-alarms on a fault-free probe"
        );
        batches.push(ProbeBatch {
            lanes,
            clean,
            pristine,
            good,
        });
    }
    batches
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

    fn setup() -> (FsmCircuit, CedHardware) {
        let fsm = suite::sequence_detector();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        let circuit = EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default());
        let cover = ParityCover::singletons(circuit.total_bits());
        let ced = synthesize_ced(&circuit, &cover, 1, &MinimizeOptions::default());
        (circuit, ced)
    }

    #[test]
    fn every_fault_is_classified_once() {
        let (c, ced) = setup();
        let audit = audit_checker(&c, &ced, &CampaignOptions::default(), &ParExec::serial());
        assert_eq!(
            audit.injected,
            audit.false_alarms + audit.self_masking + audit.benign
        );
        assert_eq!(audit.classes.len(), audit.injected);
        assert_eq!(audit.masking_faults.len(), audit.self_masking);
    }

    #[test]
    fn error_output_polarities_land_in_the_right_classes() {
        let (c, ced) = setup();
        let audit = audit_checker(&c, &ced, &CampaignOptions::default(), &ParExec::serial());
        let error_net = ced.netlist().outputs()[0];
        let class_of = |f: Fault| {
            audit
                .classes
                .iter()
                .find(|(g, _)| *g == f)
                .map(|(_, cl)| *cl)
        };
        // ERROR stuck-at-1 rings on every fault-free transition.
        assert_eq!(
            class_of(Fault::new(error_net, true)),
            Some(CheckerFaultClass::FalseAlarm)
        );
        // ERROR stuck-at-0 silently swallows every corruption: the
        // canonical dormant fault.
        assert_eq!(
            class_of(Fault::new(error_net, false)),
            Some(CheckerFaultClass::SelfMasking)
        );
    }

    #[test]
    fn audit_is_deterministic() {
        let (c, ced) = setup();
        let a = audit_checker(&c, &ced, &CampaignOptions::default(), &ParExec::serial());
        let b = audit_checker(&c, &ced, &CampaignOptions::default(), &ParExec::serial());
        assert_eq!(a, b);
    }
}
