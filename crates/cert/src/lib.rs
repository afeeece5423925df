//! # ced-cert — trust-but-verify certification of pipeline claims
//!
//! The main pipeline (`ced-core`) *produces* bounded-latency CED
//! solutions; this crate independently *re-proves* them with different
//! algorithms, so that a bug in an enumeration, a solver, or a
//! synthesis step cannot silently ship a wrong `(q, p)` claim. Each
//! pipeline stage gets a verifier that shares as little code as
//! possible with the stage it checks:
//!
//! | claim | produced by | re-proved by |
//! |---|---|---|
//! | the `q` masks detect every erroneous case within `p` | table-driven DFS ([`ced_sim::detect`]) | BFS over the good×faulty product machine ([`soundness`]) |
//! | the LP at `q` is feasible / the float optimum is real | `f64` simplex ([`ced_lp::simplex`]) | exact rational re-evaluation ([`lp_check`], [`ced_lp::rational`]) |
//! | the synthesized netlists implement the machine | two-level synthesis | sequential equivalence of two independent syntheses ([`ced_sim::equiv`]) |
//! | the checker hardware raises `ERROR` exactly per spec | predictor/comparator synthesis | co-simulation against the behavioral parity spec ([`hardware`]) |
//! | `q` is not worse than a cheap baseline would give | LP + rounding ladder | independent greedy cover ([`differential`]) |
//!
//! Every verifier returns a typed [`Certificate`] (what was checked and
//! how much of it) or a typed [`Refutation`] naming the failing stage,
//! a concrete witness — an erroneous case the cover misses, an input
//! path, an LP row — and the discrepancy. Verifiers never claim more
//! than they proved: an exact check whose arithmetic overflows, or a
//! float answer whose slack is inside the [`ced_lp::EPS`] refusal band,
//! comes back [`StageOutcome::Refused`], not certified.
//!
//! All verifiers are budget-aware ([`ced_runtime::Budget`]): a deadline
//! or cancellation interrupts cleanly with [`CertError::Interrupted`].

#![warn(missing_docs)]
// Indexed loops over bit positions and LP variables mirror the math;
// the iterator forms clippy prefers obscure the index arithmetic that
// the certification argument relies on.
#![allow(clippy::needless_range_loop)]

pub mod differential;
pub mod hardware;
pub mod lp_check;
pub mod report;
pub mod soundness;

use ced_core::pipeline::{detect_options, fault_list, prepare_machine_stored};
use ced_core::{CircuitReport, PipelineOptions};
use ced_fsm::machine::Fsm;
use ced_par::ParExec;
use ced_runtime::{Budget, Interrupted};
use ced_sim::detect::{BuildControl, DetectError, DetectabilityTable};
use ced_sim::fault::Fault;
use ced_store::Store;
use std::fmt;

/// Which pipeline claim a certificate or refutation is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The cover detects every erroneous case within the latency bound
    /// (re-proved by BFS over the good×faulty product machine).
    Soundness,
    /// The LP relaxation at the claimed `q` is feasible, and the float
    /// optimum that drove rounding is genuinely feasible (re-proved in
    /// exact rational arithmetic).
    Lp,
    /// Two independently synthesized netlists of the machine are
    /// sequentially equivalent (shared-logic vs isolated-cone
    /// synthesis).
    Synthesis,
    /// The synthesized checker raises `ERROR` iff some parity tree sees
    /// an odd corruption (co-simulation against the behavioral spec).
    Checker,
    /// An independent greedy cover does not beat the certified `q`, and
    /// the claimed cover covers an independently rebuilt table.
    Differential,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Stage::Soundness => "solution-soundness",
            Stage::Lp => "lp-certificate",
            Stage::Synthesis => "synthesis-equivalence",
            Stage::Checker => "checker-cosim",
            Stage::Differential => "differential",
        };
        write!(f, "{s}")
    }
}

/// One transition of a counterexample path: the states the good and
/// faulty machines were in, the applied input, and the response
/// difference observed on the monitored bits.
///
/// Under [`ced_sim::detect::Semantics::FaultyTrajectory`] the predictor
/// reads the same (faulty-trajectory) present state as the actual
/// machine, so `good_state == faulty_state` on every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessStep {
    /// Good-machine (predictor-vantage) state code.
    pub good_state: u64,
    /// Faulty-machine state code.
    pub faulty_state: u64,
    /// Applied input minterm.
    pub input: u64,
    /// Response difference mask over the monitored bits (`0` = silent).
    pub difference: u64,
}

/// The concrete evidence inside a [`Refutation`].
#[derive(Debug, Clone, PartialEq)]
pub enum Witness {
    /// An erroneous case the cover misses: a fault, an activation and
    /// `p` further steps on which every parity mask sees even overlap.
    UndetectedPath {
        /// The stuck-at fault whose effect escapes detection.
        fault: Fault,
        /// The path, starting with the activation step; every step's
        /// `difference` has even overlap with every claimed mask.
        steps: Vec<WitnessStep>,
    },
    /// An exactly-violated LP constraint row (or variable bound).
    LpRow {
        /// Constraint row index in the re-built program (or the
        /// variable index when `bound_of_var`).
        row: usize,
        /// True when the witness is a variable bound, not a row.
        bound_of_var: bool,
        /// The exact signed slack, reported as `f64` (negative =
        /// violated).
        slack: f64,
    },
    /// A table row the claimed cover leaves undetected.
    UncoveredRow {
        /// Row index in the independently rebuilt table.
        row: usize,
        /// The row's per-step difference masks.
        steps: Vec<u64>,
    },
    /// An input sequence on which two syntheses of the same machine
    /// disagree.
    SynthesisMismatch {
        /// Distinguishing input sequence, one minterm per cycle.
        counterexample: Vec<u64>,
        /// Shared-logic synthesis output on the last cycle.
        output_a: u64,
        /// Isolated-cone synthesis output on the last cycle.
        output_b: u64,
    },
    /// A transition on which the synthesized checker disagrees with the
    /// behavioral parity spec.
    CheckerMismatch {
        /// Present-state code.
        state: u64,
        /// Applied input minterm.
        input: u64,
        /// Corruption XORed onto the monitored bits.
        corruption: u64,
        /// What the parity spec says the `ERROR` flag should be.
        expected: bool,
        /// What the netlist actually produced.
        observed: bool,
    },
    /// An independent solver found a strictly smaller cover than the
    /// one certified.
    CoverRegression {
        /// The pipeline's claimed number of parity functions.
        claimed_q: usize,
        /// The independent cover's (smaller) size.
        independent_q: usize,
    },
}

/// A verified claim: which stage, how much evidence was examined, and a
/// human-readable account of the method.
#[derive(Debug, Clone, PartialEq)]
pub struct Certificate {
    /// The certified stage.
    pub stage: Stage,
    /// Units of evidence examined (activations, constraint rows,
    /// co-simulated transitions, …) — stage-specific, for scale only.
    pub checked: u64,
    /// How the claim was re-proved.
    pub detail: String,
}

/// A disproved claim: which stage, the concrete witness, and what the
/// discrepancy is.
#[derive(Debug, Clone, PartialEq)]
pub struct Refutation {
    /// The refuted stage.
    pub stage: Stage,
    /// Concrete evidence (replayable by the caller).
    pub witness: Witness,
    /// Human-readable account of the mismatch.
    pub discrepancy: String,
}

/// Outcome of one verifier.
#[derive(Debug, Clone, PartialEq)]
pub enum StageOutcome {
    /// The claim was independently re-proved.
    Certified(Certificate),
    /// The claim was disproved, with a witness.
    Refuted(Refutation),
    /// The verifier could not decide — exact arithmetic overflowed, or
    /// a float answer sat inside the refusal band. Never treated as
    /// certified.
    Refused {
        /// The stage that refused.
        stage: Stage,
        /// Why certification was withheld.
        reason: String,
    },
}

impl StageOutcome {
    /// True iff the stage certified its claim.
    pub fn is_certified(&self) -> bool {
        matches!(self, StageOutcome::Certified(_))
    }

    /// The stage this outcome belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            StageOutcome::Certified(c) => c.stage,
            StageOutcome::Refuted(r) => r.stage,
            StageOutcome::Refused { stage, .. } => *stage,
        }
    }
}

/// Aggregate verdict over a set of stage outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every stage certified.
    Certified,
    /// No refutation, but at least one stage refused to decide.
    Refused,
    /// At least one stage refuted its claim.
    Refuted,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Certified => "certified",
            Verdict::Refused => "refused",
            Verdict::Refuted => "refuted",
        };
        write!(f, "{s}")
    }
}

fn combine_verdict<'a, I: IntoIterator<Item = &'a StageOutcome>>(outcomes: I) -> Verdict {
    let mut verdict = Verdict::Certified;
    for o in outcomes {
        match o {
            StageOutcome::Refuted(_) => return Verdict::Refuted,
            StageOutcome::Refused { .. } => verdict = Verdict::Refused,
            StageOutcome::Certified(_) => {}
        }
    }
    verdict
}

/// The certificate chain for one latency bound of one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyCertification {
    /// The latency bound `p` this chain is about.
    pub latency: usize,
    /// The pipeline's claimed number of parity functions at this bound.
    pub claimed_q: usize,
    /// Per-stage outcomes, in pipeline order: soundness, LP, checker
    /// co-simulation, differential.
    pub stages: Vec<StageOutcome>,
}

impl LatencyCertification {
    /// The aggregate verdict over this bound's stages.
    pub fn verdict(&self) -> Verdict {
        combine_verdict(&self.stages)
    }
}

/// The full certificate chain for one machine.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCertification {
    /// Machine name (matches the pipeline report).
    pub name: String,
    /// The machine-level synthesis-equivalence outcome (independent of
    /// the latency bound).
    pub synthesis: StageOutcome,
    /// One chain per certified latency bound, ascending.
    pub latencies: Vec<LatencyCertification>,
}

impl MachineCertification {
    /// The aggregate verdict over every stage of every bound.
    pub fn verdict(&self) -> Verdict {
        let latency_verdict = combine_verdict(self.latencies.iter().flat_map(|l| l.stages.iter()));
        match (combine_verdict([&self.synthesis]), latency_verdict) {
            (Verdict::Refuted, _) | (_, Verdict::Refuted) => Verdict::Refuted,
            (Verdict::Refused, _) | (_, Verdict::Refused) => Verdict::Refused,
            _ => Verdict::Certified,
        }
    }

    /// Every refutation in the chain, for quarantine decisions.
    pub fn refutations(&self) -> Vec<&Refutation> {
        let mut out = Vec::new();
        for o in std::iter::once(&self.synthesis)
            .chain(self.latencies.iter().flat_map(|l| l.stages.iter()))
        {
            if let StageOutcome::Refuted(r) = o {
                out.push(r);
            }
        }
        out
    }
}

/// Knobs of the certification layer.
#[derive(Debug, Clone)]
pub struct CertifyOptions {
    /// Refusal band for exact re-checks of float LP answers: a
    /// satisfied constraint whose exact slack is inside `(0, band)` is
    /// refused, not certified (default [`ced_lp::EPS`]).
    pub band: f64,
    /// Row cap for the float-optimum re-solve (the exact integral
    /// certificate always covers every row); hardest rows first.
    pub lp_row_cap: usize,
    /// Cap on co-simulated (state, input, corruption) patterns per
    /// checker; beyond it a deterministic sample of this size is drawn.
    pub max_checker_patterns: u64,
    /// Seed for the sampled co-simulation path.
    pub seed: u64,
}

impl Default for CertifyOptions {
    fn default() -> CertifyOptions {
        CertifyOptions {
            band: ced_lp::EPS,
            lp_row_cap: 256,
            max_checker_patterns: 1 << 20,
            seed: 0,
        }
    }
}

/// Certification failure (distinct from a refutation: the layer could
/// not run, as opposed to ran and disproved the claim).
#[derive(Debug)]
pub enum CertError {
    /// The run's [`Budget`] interrupted a verifier.
    Interrupted(Interrupted),
    /// Rebuilding the detectability table failed.
    Detect(DetectError),
    /// The machine could not be prepared (validation/encoding).
    Machine(String),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::Interrupted(i) => write!(f, "certification {i}"),
            CertError::Detect(e) => write!(f, "certification table rebuild failed: {e}"),
            CertError::Machine(e) => write!(f, "certification setup failed: {e}"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<Interrupted> for CertError {
    fn from(i: Interrupted) -> CertError {
        CertError::Interrupted(i)
    }
}

/// Independently re-proves every claim of a pipeline [`CircuitReport`].
///
/// The machine is re-prepared from the source FSM with the same
/// pipeline options (every stage is deterministic, so this reproduces
/// the exact artifacts the report describes), the detectability tables
/// are rebuilt, and then each latency bound's `(q, p)` claim runs the
/// verifier chain: BFS soundness, exact-rational LP certificate,
/// checker co-simulation, and the greedy differential. One machine-wide
/// synthesis-equivalence check runs first.
///
/// A refutation does **not** error — it comes back inside the
/// [`MachineCertification`] so the caller can inspect the witness.
/// This is the serial, storeless form of [`certify_report_stored`].
///
/// # Errors
///
/// [`CertError::Machine`] when the FSM cannot be prepared,
/// [`CertError::Detect`] when the table rebuild fails, and
/// [`CertError::Interrupted`] when the budget runs out.
pub fn certify_report(
    fsm: &Fsm,
    report: &CircuitReport,
    pipeline: &PipelineOptions,
    options: &CertifyOptions,
    budget: &Budget,
) -> Result<MachineCertification, CertError> {
    certify_report_stored(
        fsm,
        report,
        pipeline,
        options,
        budget,
        &ParExec::serial(),
        None,
    )
}

/// [`certify_report`] on a worker pool, with an optional
/// content-addressed artifact store.
///
/// **Pool.** The per-claim verifiers — soundness BFS, exact-rational LP
/// certificate, checker co-simulation, greedy differential, one
/// quadruple per latency bound — are mutually independent, so they run
/// as pool tasks; the table rebuild's per-fault extraction
/// parallelizes through [`BuildControl::pool`]. Stage outcomes merge in
/// canonical (latency, stage) order, so the certification — and the
/// `ced-cert-report/1` JSON rendered from it — is byte-identical to the
/// serial run at every job count, and an interrupt surfaces the error
/// of the earliest claim in that canonical order.
///
/// **Store.** Re-certification after a pipeline run reuses the run's
/// `synth` circuit and per-latency `tensor` artifacts instead of
/// re-synthesizing and re-simulating. The verifier chain itself is
/// never cached — a certification must re-prove its claims — so only
/// the deterministic machine-preparation stages hit the store, and a
/// hit is byte-identical to a recompute by construction.
///
/// # Errors
///
/// As [`certify_report`].
pub fn certify_report_stored(
    fsm: &Fsm,
    report: &CircuitReport,
    pipeline: &PipelineOptions,
    options: &CertifyOptions,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<MachineCertification, CertError> {
    let (encoded, circuit) = prepare_machine_stored(fsm, pipeline, store)
        .map_err(|e| CertError::Machine(e.to_string()))?;
    let faults = fault_list(&circuit, pipeline);

    let synthesis = hardware::verify_synthesis(fsm, pipeline, &circuit, budget)?;

    let latencies: Vec<usize> = report.latencies.iter().map(|l| l.latency).collect();
    let mut chains = Vec::with_capacity(latencies.len());
    if !latencies.is_empty() {
        let p_max = latencies.iter().copied().max().unwrap_or(1);
        let detect = detect_options(&encoded, pipeline, p_max);
        let input_model = &detect.input_model;
        let tables = DetectabilityTable::build_many_controlled(
            &circuit,
            &faults,
            &detect,
            &latencies,
            BuildControl {
                pool: Some(pool),
                store,
                ..BuildControl::new(budget)
            },
        )
        .map_err(|e| match e {
            DetectError::Interrupted { interrupted, .. } => CertError::Interrupted(interrupted),
            other => CertError::Detect(other),
        })?;

        // Independent per-claim verifiers, one (latency, stage)
        // quadruple per bound, merged back in canonical order.
        const STAGES_PER_LATENCY: usize = 4;
        let claims: Vec<(usize, usize)> = (0..report.latencies.len())
            .flat_map(|li| (0..STAGES_PER_LATENCY).map(move |si| (li, si)))
            .collect();
        let mut outcomes = pool.try_map(&claims, |_, &(li, si)| {
            let lr = &report.latencies[li];
            let (table, _stats) = &tables[li];
            let masks = &lr.cover.masks;
            match si {
                0 => soundness::verify_solution(
                    &circuit,
                    &faults,
                    pipeline.fault_model,
                    input_model,
                    pipeline.semantics,
                    masks,
                    lr.latency,
                    budget,
                ),
                1 => lp_check::verify_lp(table, masks, options.band, options.lp_row_cap, budget),
                2 => hardware::verify_checker(
                    &circuit,
                    &lr.cover,
                    lr.latency,
                    &pipeline.minimize,
                    input_model,
                    options.max_checker_patterns,
                    options.seed,
                    budget,
                ),
                _ => differential::verify_differential(table, masks, budget),
            }
        })?;
        for lr in report.latencies.iter().rev() {
            let stages = outcomes.split_off(outcomes.len() - STAGES_PER_LATENCY);
            chains.push(LatencyCertification {
                latency: lr.latency,
                claimed_q: lr.cover.len(),
                stages,
            });
        }
        chains.reverse();
    }

    Ok(MachineCertification {
        name: report.name.clone(),
        synthesis,
        latencies: chains,
    })
}
