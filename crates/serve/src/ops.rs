//! One-shot analysis operations shared by the CLI and the daemon.
//!
//! The serve differential guarantee — a served response payload is
//! byte-identical to the corresponding one-shot CLI report — is not
//! enforced by a test alone; it is enforced *by construction*: the
//! `ced` subcommands and the daemon's executor call the same functions
//! in this module, which take everything they need as parameters (the
//! machine, the pipeline options, a [`Budget`], a [`ParExec`], an
//! optional [`Store`]) and return their result as a value. Nothing
//! here reads process globals, prints, or exits: a request scope is
//! the only scope.
//!
//! What each front end shares:
//!
//! * [`OpKind::Check`] — [`check_text_with_baseline`]: `ced check`
//!   prints its text, the daemon returns it as the payload (and
//!   `analyze-delta` adds the [`DeltaSummary`] line);
//! * [`OpKind::Certify`] — [`certify`]: `ced certify` and `ced suite
//!   --certify` render its [`MachineCertification`]; the payload is the
//!   `ced-cert-report/1` JSON that `ced certify --out` writes;
//! * [`OpKind::Inject`] — [`inject`]: `ced inject` prints its
//!   [`Injection`]; the payload is the campaign report text that
//!   `ced inject --out` writes;
//! * [`OpKind::Table`] — [`table_json`] for the daemon only: `ced
//!   table` makes the same two calls ([`run_circuit_controlled`], then
//!   [`report_to_json`] for `--out`) itself, to add checkpoint/resume.
//!
//! The CLI keeps only parsing, printing and the mapping of [`OpError`]
//! onto its exit codes.

use ced_cert::report::cert_report_json;
use ced_cert::MachineCertification;
use ced_core::pipeline::{
    build_input_model, delta_seed, fault_list, machine_delta, minimize_parity_functions_stored,
    prepare_machine_stored, run_circuit_controlled, MachineDelta, PipelineControl, PipelineError,
    PipelineOptions,
};
use ced_core::report_to_json;
use ced_core::search::{minimize_parity_functions, SearchOutcome};
use ced_core::synthesize_ced;
use ced_fsm::machine::Fsm;
use ced_inject::{run_campaign_stored, CampaignError, CampaignOptions, CampaignReport};
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{Budget, Interrupted};
use ced_sim::cone::cone_keys;
use ced_sim::detect::{
    BuildControl, DetectError, DetectOptions, DetectStats, DetectabilityTable, InputModel,
    Semantics,
};
use ced_store::Store;
use std::collections::HashSet;
use std::fmt::Write as _;

/// Which analysis a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Algorithm 1 at one latency bound; payload is the `ced check`
    /// stdout text.
    Check,
    /// A Table-1 row across several bounds; payload is the JSON report.
    Table,
    /// Pipeline plus the independent verifier chain; payload is the
    /// certification JSON.
    Certify,
    /// The cross-validating fault-injection campaign; payload is the
    /// campaign report text.
    Inject,
}

impl OpKind {
    /// The wire name (also the CLI subcommand name).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Check => "check",
            OpKind::Table => "table",
            OpKind::Certify => "certify",
            OpKind::Inject => "inject",
        }
    }
}

/// A fully-bound analysis request: the machine text plus every option
/// that affects the payload. Defaults mirror the CLI's defaults, so an
/// empty option set requests exactly what a bare CLI invocation runs.
#[derive(Debug, Clone)]
pub struct OpRequest {
    /// Which analysis to run.
    pub kind: OpKind,
    /// The machine, as KISS2 text (parsed per request; no filesystem).
    pub kiss2: String,
    /// Latency bound for `check`/`inject` (CLI `--latency`).
    pub latency: usize,
    /// Latency bounds for `table`/`certify` (CLI `--latencies`).
    pub latencies: Vec<usize>,
    /// Pipeline configuration (encoding, semantics, fault model, …).
    pub options: PipelineOptions,
    /// Seed (CLI `--seed`) of the certifier's sampling and, folded
    /// with a constant, of the inject campaign's stimulus.
    pub seed: u64,
    /// Cycles per injected fault (CLI `--steps`).
    pub steps: usize,
    /// Run the checker-netlist self-audit inside an inject campaign.
    pub checker_faults: bool,
    /// Baseline machine (KISS2 text) for an incremental `check` — the
    /// daemon's `analyze-delta` op and the CLI's `ced check --baseline`
    /// both set this. The payload is byte-identical to a plain `check`
    /// of `kiss2`; the baseline only seeds per-fault-cone fragment
    /// reuse and the dirty-cone summary.
    pub baseline: Option<String>,
    /// Baseline named by machine fingerprint instead of inline text
    /// (daemon only: resolved against the server's recent-machine
    /// cache before execution).
    pub baseline_fp: Option<u64>,
}

impl OpRequest {
    /// A request with CLI-default options for `kind` over `kiss2`.
    pub fn new(kind: OpKind, kiss2: &str) -> OpRequest {
        OpRequest {
            kind,
            kiss2: kiss2.to_string(),
            latency: 1,
            latencies: vec![1, 2, 3],
            options: PipelineOptions::paper_defaults(),
            seed: 0,
            steps: 2000,
            checker_faults: true,
            baseline: None,
            baseline_fp: None,
        }
    }
}

/// How a baseline-seeded check related the edited machine to its
/// baseline (returned alongside the payload; the CLI prints its
/// [`DeltaSummary::render_line`] on stderr, never into the payload).
#[derive(Debug, Clone)]
pub struct DeltaSummary {
    /// Symbolic classification of the edit.
    pub delta: MachineDelta,
    /// Fault cones of the edited machine.
    pub cones_total: usize,
    /// Cones whose structural key does not occur in the baseline
    /// machine (their fragments must be rebuilt no matter what).
    pub cones_dirty: usize,
    /// State codes whose good response changed (0 when no promotion
    /// seed could be built).
    pub changed_codes: usize,
    /// Whether a cross-machine promotion seed was attached to the
    /// build (false = the delta touches synthesis structure and the
    /// analysis fell back to the whole-stage path).
    pub seeded: bool,
}

impl DeltaSummary {
    /// The one-line stderr summary.
    pub fn render_line(&self) -> String {
        let delta = match &self.delta {
            MachineDelta::Identical => "identical".to_string(),
            MachineDelta::OutputOnly { transitions } => {
                format!("output-only ({} transitions)", transitions.len())
            }
            MachineDelta::Structural { reason } => format!("structural ({reason})"),
        };
        format!(
            "delta: {delta}; cones: {}/{} dirty; {} changed codes; {}",
            self.cones_dirty,
            self.cones_total,
            self.changed_codes,
            if self.seeded {
                "fragment promotion seeded"
            } else {
                "whole-stage fallback"
            }
        )
    }
}

/// A finished operation: the payload — byte-identical to the one-shot
/// CLI output for the same analysis — plus, for a baseline-seeded
/// `analyze-delta`, the rendered [`DeltaSummary`] line. The summary
/// rides *next to* the payload (the daemon emits it as a separate
/// `delta` response field) so baseline presence can never move a
/// payload byte.
#[derive(Debug, Clone)]
pub struct OpOutput {
    /// The rendered payload (report text or JSON document).
    pub payload: String,
    /// `analyze-delta` only: [`DeltaSummary::render_line`].
    pub delta: Option<String>,
}

impl OpOutput {
    fn plain(payload: String) -> OpOutput {
        OpOutput {
            payload,
            delta: None,
        }
    }
}

/// Why an operation produced no payload.
#[derive(Debug)]
pub enum OpError {
    /// The request itself is unusable (unparsable machine, bad bound).
    BadRequest(String),
    /// The request's budget ran out or its cancel token fired.
    Interrupted(Interrupted),
    /// The analysis failed for a reason that is not the client's fault.
    Failed(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::BadRequest(m) => write!(f, "bad request: {m}"),
            OpError::Interrupted(i) => write!(f, "{i}"),
            OpError::Failed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for OpError {}

impl From<PipelineError> for OpError {
    fn from(e: PipelineError) -> OpError {
        match e {
            PipelineError::Interrupted(i) => OpError::Interrupted(i.interrupted),
            // The requested machine/encoding pair cannot be analyzed at
            // all: the client's mistake, refused before any allocation.
            PipelineError::Detect(e @ DetectError::MachineTooWide { .. }) => {
                OpError::BadRequest(e.to_string())
            }
            other => OpError::Failed(other.to_string()),
        }
    }
}

/// Executes one request against shared infrastructure and returns the
/// rendered payload (plus the delta summary for a baseline-seeded
/// check — see [`OpOutput`]).
///
/// # Errors
///
/// [`OpError::BadRequest`] for client mistakes, [`OpError::Interrupted`]
/// when `budget` trips (including a fired cancel token — the daemon
/// wires client disconnects into it), [`OpError::Failed`] otherwise.
pub fn execute(
    request: &OpRequest,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<OpOutput, OpError> {
    let fsm = ced_fsm::kiss::parse(&request.kiss2)
        .map_err(|e| OpError::BadRequest(format!("machine: {e}")))?;
    if request.latency == 0 {
        return Err(OpError::BadRequest(
            "latency bound must be at least 1".into(),
        ));
    }
    if request.latencies.is_empty() || request.latencies.contains(&0) {
        return Err(OpError::BadRequest("latencies need positive bounds".into()));
    }
    if request.baseline_fp.is_some() && request.baseline.is_none() {
        // The daemon resolves fingerprints against its recent-machine
        // cache before calling in; an unresolved one reaching this
        // layer means the caller skipped that step.
        return Err(OpError::BadRequest(
            "baseline fingerprint not resolved to machine text".into(),
        ));
    }
    if request.baseline.is_some() && request.kind != OpKind::Check {
        return Err(OpError::BadRequest(format!(
            "baseline is only meaningful for check, not {}",
            request.kind.name()
        )));
    }
    match request.kind {
        OpKind::Check => {
            let baseline = match &request.baseline {
                Some(text) => Some(
                    ced_fsm::kiss::parse(text)
                        .map_err(|e| OpError::BadRequest(format!("baseline machine: {e}")))?,
                ),
                None => None,
            };
            check_text_with_baseline(&fsm, baseline.as_ref(), request, budget, pool, store).map(
                |(payload, summary)| OpOutput {
                    payload,
                    delta: summary.map(|s| s.render_line()),
                },
            )
        }
        OpKind::Table => table_json(&fsm, request, budget, pool, store).map(OpOutput::plain),
        OpKind::Certify => certify(&fsm, request, budget, pool, store)
            .map(|cert| OpOutput::plain(cert_report_json(&[cert]).render())),
        OpKind::Inject => inject(&fsm, request, budget, pool, store)
            .map(|injection| OpOutput::plain(injection.report.render())),
    }
}

/// `ced check` as a value: Algorithm 1 at one bound, rendered exactly
/// as the CLI prints it, with an optional baseline machine seeding
/// incremental re-analysis. The text is byte-identical to the
/// baseline-free call by construction: the baseline only adds a
/// [`ced_core::pipeline::delta_seed`] to the fragment build
/// (cross-machine promotion of clean cones) and computes the
/// [`DeltaSummary`] — it never enters any fingerprint or the rendered
/// text.
///
/// # Errors
///
/// As [`execute`].
pub fn check_text_with_baseline(
    fsm: &Fsm,
    baseline: Option<&Fsm>,
    request: &OpRequest,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<(String, Option<DeltaSummary>), OpError> {
    let lib = CellLibrary::new();
    let options = &request.options;
    let (encoded, circuit) = prepare_machine_stored(fsm, options, store)?;
    let input_model =
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
    let faults = fault_list(&circuit, options);
    let detect_options = DetectOptions {
        latency: request.latency,
        semantics: options.semantics,
        input_model,
        fault_model: options.fault_model,
        ..DetectOptions::default()
    };

    let mut delta = None;
    let mut summary = None;
    if let Some(base) = baseline {
        let (base_encoded, base_circuit) = prepare_machine_stored(base, options, store)?;
        let seed = delta_seed(
            &base_encoded,
            &base_circuit,
            &circuit,
            &detect_options,
            options.input_granularity,
        );
        let base_faults = fault_list(&base_circuit, options);
        let base_keys: HashSet<u64> =
            cone_keys(base_circuit.netlist(), &base_faults, options.fault_model)
                .into_iter()
                .collect();
        let new_keys = cone_keys(circuit.netlist(), &faults, options.fault_model);
        summary = Some(DeltaSummary {
            delta: machine_delta(base, fsm),
            cones_total: new_keys.len(),
            cones_dirty: new_keys.iter().filter(|k| !base_keys.contains(k)).count(),
            changed_codes: seed.as_ref().map_or(0, |s| s.changed_codes.len()),
            seeded: seed.is_some(),
        });
        delta = seed;
    }

    let (table, dstats) = DetectabilityTable::build_many_controlled(
        &circuit,
        &faults,
        &detect_options,
        &[request.latency],
        BuildControl {
            store,
            pool: Some(pool),
            delta,
            ..BuildControl::new(budget)
        },
    )
    .map_err(op_error_from_detect)?
    .pop()
    .expect("one latency requested");

    let mut out = String::new();
    let _ =
        writeln!(
        out,
        "fault model ({}): {} faults ({} untestable), {} activations, {} minimal erroneous cases",
        options.fault_model, dstats.faults, dstats.untestable_faults, dstats.activations,
        table.len()
    );
    let outcome = minimize_parity_functions_stored(&table, &options.ced, store);
    let _ = writeln!(
        out,
        "Algorithm 1 (p = {}): q = {} parity trees ({} LP solves, {} rounding attempts)",
        request.latency, outcome.q, outcome.lp_solves, outcome.rounding_attempts
    );
    if !outcome.degradation.is_empty() {
        let _ = writeln!(out, "solved by {} after degradation:", outcome.method);
        for event in &outcome.degradation {
            let _ = writeln!(out, "  {event}");
        }
    }
    for (i, &mask) in outcome.cover.masks.iter().enumerate() {
        let taps: Vec<String> = (0..circuit.total_bits())
            .filter(|j| (mask >> j) & 1 == 1)
            .map(|j| format!("b{}", j + 1))
            .collect();
        let _ = writeln!(out, "  tree {}: {}", i + 1, taps.join(" ⊕ "));
    }
    let ced = synthesize_ced(&circuit, &outcome.cover, request.latency, &options.minimize);
    let cost = ced.cost(&lib);
    let _ = writeln!(
        out,
        "checker: {} gates, {} hold FFs, area {:.1}",
        cost.gates, cost.flip_flops, cost.area
    );
    Ok((out, summary))
}

/// `ced table --out` as a value: the pipeline across the requested
/// bounds, rendered as the `ced-table-report/1` JSON document.
///
/// # Errors
///
/// As [`execute`].
pub fn table_json(
    fsm: &Fsm,
    request: &OpRequest,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<String, OpError> {
    let lib = CellLibrary::new();
    let report = run_circuit_controlled(
        fsm,
        &request.latencies,
        &request.options,
        &lib,
        PipelineControl {
            pool: Some(pool),
            store,
            ..PipelineControl::new(budget)
        },
    )?;
    Ok(report_to_json(&report).render())
}

/// `ced certify` as a value: the pipeline across the requested bounds,
/// then the independent verifier chain over every claim it made.
///
/// # Errors
///
/// As [`execute`].
pub fn certify(
    fsm: &Fsm,
    request: &OpRequest,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<MachineCertification, OpError> {
    let report = run_circuit_controlled(
        fsm,
        &request.latencies,
        &request.options,
        &CellLibrary::new(),
        PipelineControl {
            pool: Some(pool),
            store,
            ..PipelineControl::new(budget)
        },
    )?;
    ced_cert::certify_report_stored(
        fsm,
        &report,
        &request.options,
        &ced_cert::CertifyOptions {
            seed: request.seed,
            ..ced_cert::CertifyOptions::default()
        },
        budget,
        pool,
        store,
    )
    .map_err(|e| match e {
        ced_cert::CertError::Interrupted(i) => OpError::Interrupted(i),
        other => OpError::Failed(other.to_string()),
    })
}

/// An inject campaign as a value: the report, plus the tensor
/// statistics and the cover of the checker it judged.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The hardware-semantics tensor build (fault and untestable
    /// counts).
    pub stats: DetectStats,
    /// The cover the checker implements (`q`, and the degradation
    /// trail when the solver ladder was needed).
    pub search: SearchOutcome,
    /// The cross-validating campaign.
    pub report: CampaignReport,
}

/// `ced inject` as a value: cover synthesis under hardware
/// semantics, then the full cross-validating campaign.
///
/// # Errors
///
/// As [`execute`].
pub fn inject(
    fsm: &Fsm,
    request: &OpRequest,
    budget: &Budget,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<Injection, OpError> {
    let options = &request.options;
    let (_, circuit) = prepare_machine_stored(fsm, options, store)?;
    let faults = fault_list(&circuit, options);
    // The campaign's oracle is exact only under hardware semantics
    // with exhaustive inputs; the cover must be verified under the
    // same conditions or escapes would be expected, not disagreements.
    let (table, stats) = DetectabilityTable::build_many_controlled(
        &circuit,
        &faults,
        &DetectOptions {
            latency: request.latency,
            semantics: Semantics::FaultyTrajectory,
            input_model: InputModel::Exhaustive,
            fault_model: options.fault_model,
            ..DetectOptions::default()
        },
        &[request.latency],
        BuildControl {
            store,
            pool: Some(pool),
            ..BuildControl::new(budget)
        },
    )
    .map_err(op_error_from_detect)?
    .pop()
    .expect("one latency requested");
    let search = minimize_parity_functions(&table, &options.ced);
    let ced = synthesize_ced(&circuit, &search.cover, request.latency, &options.minimize);
    let report = run_campaign_stored(
        &circuit,
        &ced,
        &faults,
        &CampaignOptions {
            steps: request.steps,
            seed: request.seed ^ 0xCA3E,
            checker_faults: request.checker_faults,
            fault_model: options.fault_model,
        },
        budget,
        pool,
        store,
    )
    .map_err(|e| match e {
        CampaignError::Detect(d) => OpError::Failed(d.to_string()),
        CampaignError::Interrupted { interrupted, .. } => OpError::Interrupted(interrupted),
    })?;
    Ok(Injection {
        stats,
        search,
        report,
    })
}

/// Maps the tensor builder's error: budget interrupts stay typed, the
/// rest become analysis failures.
fn op_error_from_detect(e: ced_sim::detect::DetectError) -> OpError {
    match e {
        ced_sim::detect::DetectError::Interrupted { interrupted, .. } => {
            OpError::Interrupted(interrupted)
        }
        other => OpError::Failed(other.to_string()),
    }
}
