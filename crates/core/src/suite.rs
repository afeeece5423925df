//! Survivable suite campaigns over a set of machines.
//!
//! `run_suite` drives the full pipeline across many FSMs the way the
//! paper's §5 experiment runs Table 1 — but built to survive the
//! machines it cannot finish. Each machine attempt runs under
//! [`ced_par::isolate`] (panics are captured, not fatal) and under its
//! own [`Budget`] (per-machine deadline and/or tick cap). A machine
//! that fails or exhausts its budget is retried once with degraded
//! pipeline options — transition-cube input granularity and collapsed
//! faults, the same accuracy/cost trade the PR-1 solver ladder makes —
//! before being quarantined with whatever partial progress it reached.
//! The suite checkpoint records every finished machine (as its rendered
//! JSON, spliced back verbatim on resume), so a cancelled campaign
//! resumed with `--resume` produces a byte-identical final report.

use crate::pipeline::{
    run_circuit_controlled, CircuitReport, InputGranularity, PipelineControl, PipelineError,
    PipelineOptions,
};
use crate::report::{degradation_notes, report_to_json};
use ced_fsm::machine::Fsm;
use ced_logic::gate::CellLibrary;
use ced_par::{isolate, ParExec};
use ced_runtime::{
    fnv1a64, Budget, ByteReader, ByteWriter, CancelToken, CheckpointError, InterruptKind,
    Interrupted, Json,
};
use ced_sim::fault::FaultModel;
use ced_store::Store;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// Checkpoint-container kind tag for suite checkpoints (see
/// [`ced_runtime::encode_checkpoint`]).
pub const SUITE_CHECKPOINT_KIND: u16 = 2;

/// Configuration of a suite campaign.
#[derive(Debug, Clone)]
pub struct SuiteOptions {
    /// Latency bounds to evaluate on every machine (ascending).
    pub latencies: Vec<usize>,
    /// Pipeline options for the first (full-fidelity) attempt.
    pub pipeline: PipelineOptions,
    /// Wall-clock deadline per machine attempt (`None` = unlimited).
    pub machine_deadline: Option<Duration>,
    /// Work-tick cap per machine attempt (`None` = unlimited).
    pub machine_ticks: Option<u64>,
    /// Retry a failed machine once with degraded options before
    /// quarantining it (default `true`).
    pub retry_degraded: bool,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            latencies: vec![1, 2],
            pipeline: PipelineOptions::paper_defaults(),
            machine_deadline: None,
            machine_ticks: None,
            retry_degraded: true,
        }
    }
}

/// How a machine's campaign ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineStatus {
    /// Finished at full fidelity with a clean solver ladder.
    Completed,
    /// Finished, but only after solver-ladder degradation or a
    /// degraded-options retry.
    Degraded,
    /// Did not finish even degraded; the record keeps the failure
    /// trail and any partial progress.
    Quarantined,
}

impl fmt::Display for MachineStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MachineStatus::Completed => "completed",
            MachineStatus::Degraded => "degraded",
            MachineStatus::Quarantined => "quarantined",
        })
    }
}

impl MachineStatus {
    fn tag(self) -> u8 {
        match self {
            MachineStatus::Completed => 0,
            MachineStatus::Degraded => 1,
            MachineStatus::Quarantined => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<MachineStatus, CheckpointError> {
        match tag {
            0 => Ok(MachineStatus::Completed),
            1 => Ok(MachineStatus::Degraded),
            2 => Ok(MachineStatus::Quarantined),
            t => Err(CheckpointError::Corrupt(format!("bad status tag {t}"))),
        }
    }
}

/// One machine's finished record.
///
/// `json` is the machine's rendered report fragment; it is the unit
/// the suite checkpoint stores, so a resumed campaign splices finished
/// machines back into the final report byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineRecord {
    /// Machine name.
    pub name: String,
    /// Final status.
    pub status: MachineStatus,
    /// Pipeline attempts spent (1, or 2 after a degraded retry).
    pub attempts: usize,
    /// Failure/degradation trail (empty for clean completions).
    pub notes: Vec<String>,
    /// The rendered JSON record (deterministic; spliced on resume).
    pub json: String,
}

impl MachineRecord {
    /// Serializes the record into `w` (the shared wire form used by
    /// suite checkpoints and fleet result envelopes).
    pub fn write_to(&self, w: &mut ByteWriter) {
        w.str(&self.name);
        w.u8(self.status.tag());
        w.usize(self.attempts);
        w.usize(self.notes.len());
        for n in &self.notes {
            w.str(n);
        }
        w.str(&self.json);
    }

    /// Deserializes a record written by [`MachineRecord::write_to`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn read_from(r: &mut ByteReader<'_>) -> Result<MachineRecord, CheckpointError> {
        let name = r.str()?;
        let status = MachineStatus::from_tag(r.u8()?)?;
        let attempts = r.usize()?;
        let n_notes = r.usize()?;
        if n_notes > 65_536 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible note count {n_notes}"
            )));
        }
        let mut notes = Vec::with_capacity(n_notes);
        for _ in 0..n_notes {
            notes.push(r.str()?);
        }
        let json = r.str()?;
        Ok(MachineRecord {
            name,
            status,
            attempts,
            notes,
            json,
        })
    }

    /// Serializes the record to a standalone payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write_to(&mut w);
        w.finish()
    }

    /// Deserializes a payload produced by [`MachineRecord::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<MachineRecord, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let record = MachineRecord::read_from(&mut r)?;
        r.expect_end()?;
        Ok(record)
    }

    /// Downgrades a finished record to [`MachineStatus::Quarantined`]
    /// after an external audit (e.g. the `ced-cert` certification
    /// layer) refutes its results, appending `note` to the trail and
    /// re-rendering the stored JSON fragment with the new status. The
    /// embedded pipeline report is kept: the point of a post-hoc
    /// quarantine is that the results exist but must not be trusted.
    pub fn quarantine(&mut self, note: String) {
        self.status = MachineStatus::Quarantined;
        self.notes.push(note);
        // The fragment was rendered by `render_record`, whose only
        // unescaped `,"report":` is the top-level key (inside note
        // strings the quotes are escaped), so splitting on it recovers
        // the report fragment verbatim.
        let report = self
            .json
            .find(",\"report\":")
            .map(|i| self.json[i + ",\"report\":".len()..self.json.len() - 1].to_string());
        self.json = Json::Object(vec![
            ("name".into(), Json::str(&self.name)),
            ("status".into(), Json::Str(self.status.to_string())),
            ("attempts".into(), Json::UInt(self.attempts as u64)),
            (
                "notes".into(),
                Json::Array(self.notes.iter().map(|n| Json::str(n)).collect()),
            ),
            ("report".into(), report.map_or(Json::Null, Json::Raw)),
        ])
        .render();
    }
}

/// The finished (or partial) campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteReport {
    /// Latency bounds the campaign evaluated.
    pub latencies: Vec<usize>,
    /// One record per machine processed, in input order.
    pub records: Vec<MachineRecord>,
    /// Whether the campaign's results were re-proved by the
    /// certification layer (`ced suite --certify`); recorded in the
    /// report header so downstream readers know which trust level the
    /// numbers carry.
    pub certified: bool,
    /// Worker threads the campaign ran with (1 when serial). Header
    /// metadata only: job counts change wall-clock, never the payload,
    /// so differential comparisons normalize this one token.
    pub jobs: usize,
    /// Fault model the campaign assumed. Rendered into the report
    /// header only when non-permanent, so permanent reports stay
    /// byte-identical to pre-model ones.
    pub fault_model: FaultModel,
}

impl SuiteReport {
    fn count(&self, status: MachineStatus) -> usize {
        self.records.iter().filter(|r| r.status == status).count()
    }

    /// Machines that finished at full fidelity.
    pub fn completed(&self) -> usize {
        self.count(MachineStatus::Completed)
    }

    /// Machines that finished degraded.
    pub fn degraded(&self) -> usize {
        self.count(MachineStatus::Degraded)
    }

    /// Machines that did not finish.
    pub fn quarantined(&self) -> usize {
        self.count(MachineStatus::Quarantined)
    }

    /// Assembles a report from records merged outside [`run_suite`] (the
    /// fleet coordinator's cross-process merge). The header is pinned
    /// to `jobs: 1` / `certified: false` — per-worker job counts are a
    /// fleet-ledger detail, and certification is a separate post-hoc
    /// pass — so a fleet merge renders byte-identically to the serial
    /// single-process campaign over the same corpus.
    pub fn from_records(latencies: Vec<usize>, records: Vec<MachineRecord>) -> SuiteReport {
        SuiteReport {
            latencies,
            records,
            certified: false,
            jobs: 1,
            fault_model: FaultModel::default(),
        }
    }

    /// Renders the structured campaign report.
    ///
    /// Deterministic: no wall-clock data, insertion-ordered keys, and
    /// finished machines splice their stored fragments verbatim — an
    /// interrupted-then-resumed campaign renders byte-identically to
    /// an uninterrupted one.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema".into(), Json::str("ced-suite-report/1")),
            ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
            ("jobs".into(), Json::UInt(self.jobs as u64)),
            ("certified".into(), Json::Bool(self.certified)),
        ];
        // Emitted only for non-permanent models: permanent reports must
        // render byte-identically to reports from before the field
        // existed (the differential suite pins this).
        if self.fault_model != FaultModel::PermanentStuckAt {
            fields.push(("fault_model".into(), Json::Str(self.fault_model.label())));
        }
        fields.extend(vec![
            (
                "latencies".into(),
                Json::Array(
                    self.latencies
                        .iter()
                        .map(|&p| Json::UInt(p as u64))
                        .collect(),
                ),
            ),
            (
                "machines".into(),
                Json::Array(
                    self.records
                        .iter()
                        .map(|r| Json::Raw(r.json.clone()))
                        .collect(),
                ),
            ),
            (
                "summary".into(),
                Json::Object(vec![
                    ("total".into(), Json::UInt(self.records.len() as u64)),
                    ("completed".into(), Json::UInt(self.completed() as u64)),
                    ("degraded".into(), Json::UInt(self.degraded() as u64)),
                    ("quarantined".into(), Json::UInt(self.quarantined() as u64)),
                ]),
            ),
        ]);
        Json::Object(fields).render()
    }
}

/// Machine-granularity resume state of an interrupted campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteCheckpoint {
    /// Report version (`CARGO_PKG_VERSION`) of the build that wrote
    /// the checkpoint. Records splice their rendered JSON verbatim on
    /// resume, so a checkpoint from another version must never merge
    /// silently into a report claiming this version.
    version: String,
    /// `--jobs` count the interrupted campaign ran with; the resumed
    /// campaign must match, or the final report header would claim a
    /// job count half the records never saw.
    jobs: u64,
    /// Fingerprint of (machine list, latencies, pipeline options).
    fingerprint: u64,
    /// Records of machines finished before the interruption.
    records: Vec<MachineRecord>,
}

impl SuiteCheckpoint {
    fn new(fingerprint: u64, jobs: usize, records: Vec<MachineRecord>) -> SuiteCheckpoint {
        SuiteCheckpoint {
            version: env!("CARGO_PKG_VERSION").to_string(),
            jobs: jobs as u64,
            fingerprint,
            records,
        }
    }

    /// The input fingerprint this checkpoint binds to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The report version the checkpoint was written under.
    pub fn version(&self) -> &str {
        &self.version
    }

    /// The `--jobs` count the checkpointed campaign ran with.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Machines already processed.
    pub fn machines_done(&self) -> usize {
        self.records.len()
    }

    /// Serializes to a checkpoint payload (wrap with
    /// [`ced_runtime::encode_checkpoint`] using
    /// [`SUITE_CHECKPOINT_KIND`] before writing to disk).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.str(&self.version);
        w.u64(self.jobs);
        w.u64(self.fingerprint);
        w.usize(self.records.len());
        for r in &self.records {
            r.write_to(&mut w);
        }
        w.finish()
    }

    /// Deserializes a payload produced by [`SuiteCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any structural inconsistency is a [`CheckpointError`]; nothing
    /// panics on malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<SuiteCheckpoint, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let version = r.str()?;
        let jobs = r.u64()?;
        let fingerprint = r.u64()?;
        let n = r.usize()?;
        if n > 65_536 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible machine count {n}"
            )));
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(MachineRecord::read_from(&mut r)?);
        }
        r.expect_end()?;
        Ok(SuiteCheckpoint {
            version,
            jobs,
            fingerprint,
            records,
        })
    }
}

/// Payload of [`SuiteError::Interrupted`]: where the campaign stopped
/// and everything needed to resume or report it.
#[derive(Debug)]
pub struct SuiteInterrupted {
    /// The cancellation that stopped the campaign.
    pub interrupted: Interrupted,
    /// Resume state covering every machine finished so far.
    pub checkpoint: SuiteCheckpoint,
    /// The partial report over finished machines.
    pub partial: SuiteReport,
}

/// Suite campaign failure.
#[derive(Debug)]
pub enum SuiteError {
    /// The campaign's [`CancelToken`] fired; the payload carries the
    /// resume checkpoint and the partial report.
    Interrupted(Box<SuiteInterrupted>),
    /// A resume checkpoint was built from a different machine list,
    /// latency list or option set.
    CheckpointMismatch,
    /// A resume checkpoint was written by a different report version;
    /// its spliced fragments would misrepresent this build's output.
    CheckpointVersionMismatch {
        /// Version recorded in the checkpoint.
        found: String,
        /// This build's version.
        expected: String,
    },
    /// A resume checkpoint was written under a different `--jobs`
    /// count; merging would stamp a job count half the records never
    /// ran under into the report header.
    CheckpointJobsMismatch {
        /// `--jobs` recorded in the checkpoint.
        found: u64,
        /// `--jobs` of the resuming campaign.
        expected: u64,
    },
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Interrupted(i) => write!(
                f,
                "suite {} ({} machines checkpointed)",
                i.interrupted,
                i.checkpoint.machines_done()
            ),
            SuiteError::CheckpointMismatch => write!(
                f,
                "suite resume checkpoint does not match this machine/option/latency list"
            ),
            SuiteError::CheckpointVersionMismatch { found, expected } => write!(
                f,
                "suite resume checkpoint was written by report version {found}, but this \
                 build is {expected}; rerun the campaign from scratch (or with the \
                 matching build) instead of merging records across versions"
            ),
            SuiteError::CheckpointJobsMismatch { found, expected } => write!(
                f,
                "suite resume checkpoint was written with --jobs {found}, but this run \
                 asked for --jobs {expected}; resume with --jobs {found} so the report \
                 header stays truthful"
            ),
        }
    }
}

impl std::error::Error for SuiteError {}

/// Progress callback: `(machines done, machines total, just-finished
/// record)` — the heartbeat hook.
pub type ProgressSink<'a> = &'a mut dyn FnMut(usize, usize, &MachineRecord);

/// External control of a [`run_suite`] call.
pub struct SuiteControl<'a> {
    /// Cooperative cancellation; shared with every worker budget.
    pub cancel: CancelToken,
    /// Resume from an earlier campaign's checkpoint.
    pub resume: Option<SuiteCheckpoint>,
    /// Called with the growing checkpoint after every finished machine.
    pub on_checkpoint: Option<&'a mut dyn FnMut(&SuiteCheckpoint)>,
    /// Called after every finished machine.
    pub on_progress: Option<ProgressSink<'a>>,
    /// Worker pool for the machine loop: machines run as pool tasks,
    /// their records merged in input order, so the report is
    /// byte-identical at every job count. `None` runs the machines
    /// inline on [`ParExec::serial`]. Either way each attempt runs
    /// under [`ced_par::isolate`]. Machine-level parallelism
    /// deliberately does not nest: suite attempts run their pipelines
    /// with a serial build, so the thread count stays bounded by the
    /// pool.
    pub pool: Option<&'a ParExec>,
    /// Content-addressed artifact store shared by every attempt and
    /// every pool worker. First-writer-wins puts keyed by content
    /// fingerprints make concurrent workers order-insensitive, so the
    /// report stays byte-identical at every job count, warm or cold.
    pub store: Option<Arc<Store>>,
}

impl<'a> SuiteControl<'a> {
    /// A control block with a fresh cancel token and no callbacks.
    pub fn new() -> SuiteControl<'a> {
        SuiteControl {
            cancel: CancelToken::new(),
            resume: None,
            on_checkpoint: None,
            on_progress: None,
            pool: None,
            store: None,
        }
    }
}

impl Default for SuiteControl<'static> {
    fn default() -> SuiteControl<'static> {
        SuiteControl::new()
    }
}

/// How one worker attempt ended.
enum AttemptOutcome {
    Done(CircuitReport),
    Interrupted(Interrupted, Vec<String>),
    Failed(String),
}

/// The degraded-retry option set: transition-cube inputs and collapsed
/// faults — the cheapest fidelity the paper's experiment still
/// supports. Public so post-hoc auditors (the certification layer) can
/// reproduce exactly the options a two-attempt record ran under.
pub fn degraded_pipeline(p: &PipelineOptions) -> PipelineOptions {
    let mut d = p.clone();
    d.input_granularity = InputGranularity::TransitionCubes;
    d.full_fault_list = false;
    d
}

/// Fingerprint binding a checkpoint to (machines, latencies, pipeline
/// options). Per-attempt budgets (`machine_deadline`, `machine_ticks`)
/// are deliberately excluded: a resume may legitimately retune them.
///
/// Public because fleet workers re-derive it from the coordinator's
/// manifest and refuse units whose fingerprint disagrees with the
/// options they were launched with.
pub fn suite_fingerprint(machines: &[(String, Fsm)], options: &SuiteOptions) -> u64 {
    let mut w = ByteWriter::new();
    w.usize(machines.len());
    for (name, fsm) in machines {
        w.str(name);
        // KISS2 text is a canonical, process-stable serialization;
        // `Debug` is not (state lookup tables hash-order their entries).
        w.str(&ced_fsm::kiss::to_string(fsm));
    }
    w.usize(options.latencies.len());
    for &p in &options.latencies {
        w.usize(p);
    }
    let mut opts = options.pipeline.clone();
    // Wall-clock search budgets don't change deterministic results.
    opts.ced.time_budget = None;
    w.str(&format!("{opts:?}"));
    w.bool(options.retry_degraded);
    fnv1a64(&w.finish())
}

/// Runs one pipeline attempt inline under [`isolate`] and its own
/// budget, turning a panic or a budget interrupt into an outcome.
fn run_attempt(
    fsm: &Fsm,
    pipeline: &PipelineOptions,
    library: &CellLibrary,
    options: &SuiteOptions,
    cancel: &CancelToken,
    store: Option<&Store>,
) -> AttemptOutcome {
    let mut budget = Budget::new().with_cancel(cancel.clone());
    if let Some(d) = options.machine_deadline {
        budget = budget.with_deadline(d);
    }
    if let Some(t) = options.machine_ticks {
        budget = budget.with_tick_cap(t);
    }
    let mut control = PipelineControl::new(&budget);
    control.store = store;
    match isolate(|| run_circuit_controlled(fsm, &options.latencies, pipeline, library, control)) {
        Ok(Ok(report)) => AttemptOutcome::Done(report),
        Ok(Err(PipelineError::Interrupted(pi))) => {
            let mut progress = Vec::new();
            if let Some(ckpt) = &pi.checkpoint {
                if let Some(faults) = ckpt.build_progress() {
                    progress.push(format!("build reached fault {faults}"));
                }
                progress.push(format!(
                    "{} latency bounds completed",
                    ckpt.completed_latencies()
                ));
            }
            AttemptOutcome::Interrupted(pi.interrupted, progress)
        }
        Ok(Err(e)) => AttemptOutcome::Failed(e.to_string()),
        Err(msg) => AttemptOutcome::Failed(format!("panic: {msg}")),
    }
}

fn render_record(
    name: &str,
    status: MachineStatus,
    attempts: usize,
    notes: &[String],
    report: Option<&CircuitReport>,
) -> String {
    Json::Object(vec![
        ("name".into(), Json::str(name)),
        ("status".into(), Json::Str(status.to_string())),
        ("attempts".into(), Json::UInt(attempts as u64)),
        (
            "notes".into(),
            Json::Array(notes.iter().map(|n| Json::str(n)).collect()),
        ),
        ("report".into(), report.map_or(Json::Null, report_to_json)),
    ])
    .render()
}

fn finish_record(
    name: &str,
    status: MachineStatus,
    attempts: usize,
    notes: Vec<String>,
    report: Option<&CircuitReport>,
) -> MachineRecord {
    let json = render_record(name, status, attempts, &notes, report);
    MachineRecord {
        name: name.to_string(),
        status,
        attempts,
        notes,
        json,
    }
}

/// Runs one machine to a final record, or returns the cancellation
/// that aborted it: the requested options first, then (with
/// `retry_degraded`) the degraded ones. Budget exhaustion
/// (deadline/tick cap) degrades and then quarantines; only
/// cancellation stops the campaign.
fn run_machine(
    name: &str,
    fsm: &Fsm,
    options: &SuiteOptions,
    library: &CellLibrary,
    cancel: &CancelToken,
    store: Option<&Store>,
) -> Result<MachineRecord, Interrupted> {
    let degraded = degraded_pipeline(&options.pipeline);
    let already_degraded = degraded.input_granularity == options.pipeline.input_granularity
        && degraded.full_fault_list == options.pipeline.full_fault_list;
    let retry = options.retry_degraded && !already_degraded;
    let plan = [&options.pipeline, &degraded];
    let plan = &plan[..if retry { 2 } else { 1 }];
    let mut notes = Vec::new();
    for (attempt, pipeline) in (1..).zip(plan) {
        if attempt == 2 {
            notes.push(
                "retrying with degraded options (transition-cube inputs, collapsed faults)".into(),
            );
        }
        match run_attempt(fsm, pipeline, library, options, cancel, store) {
            AttemptOutcome::Done(report) => {
                let ladder = degradation_notes(&report);
                let status = if attempt == 1 && ladder.is_empty() {
                    MachineStatus::Completed
                } else {
                    MachineStatus::Degraded
                };
                notes.extend(ladder);
                return Ok(finish_record(name, status, attempt, notes, Some(&report)));
            }
            AttemptOutcome::Interrupted(i, progress) => {
                if i.kind == InterruptKind::Cancelled {
                    return Err(i);
                }
                let mut note = format!(
                    "attempt {attempt}: interrupted by budget ({:?} at {})",
                    i.kind, i.progress.stage
                );
                if !progress.is_empty() {
                    note.push_str(&format!("; {}", progress.join(", ")));
                }
                notes.push(note);
            }
            AttemptOutcome::Failed(msg) => {
                if cancel.is_cancelled() {
                    // A panic racing the cancel: honor the cancellation.
                    return Err(cancel_interrupt(cancel));
                }
                notes.push(format!("attempt {attempt}: {msg}"));
            }
        }
    }
    if options.retry_degraded && !retry {
        notes.push("degraded options identical to requested options; no retry".into());
    }
    Ok(finish_record(
        name,
        MachineStatus::Quarantined,
        plan.len(),
        notes,
        None,
    ))
}

/// A typed cancellation interrupt for suite-level control flow (e.g.
/// the token fired between machines).
fn cancel_interrupt(cancel: &CancelToken) -> Interrupted {
    Budget::new()
        .with_cancel(cancel.clone())
        .check("suite:machine")
        .expect_err("token is cancelled")
}

/// Runs the campaign: every machine in order, isolated, budgeted,
/// degraded-retried and checkpointed.
///
/// # Errors
///
/// [`SuiteError::Interrupted`] when the campaign's [`CancelToken`]
/// fires (budget exhaustion on a machine is *not* a campaign error —
/// it degrades, then quarantines that machine);
/// [`SuiteError::CheckpointMismatch`] when a resume checkpoint came
/// from different inputs.
pub fn run_suite(
    machines: &[(String, Fsm)],
    options: &SuiteOptions,
    library: &CellLibrary,
    mut control: SuiteControl<'_>,
) -> Result<SuiteReport, SuiteError> {
    let fingerprint = suite_fingerprint(machines, options);
    let serial = ParExec::serial();
    let pool = control.pool.unwrap_or(&serial);
    let jobs = pool.jobs();
    let mut records: Vec<MachineRecord> = Vec::new();
    if let Some(ckpt) = control.resume.take() {
        if ckpt.version != env!("CARGO_PKG_VERSION") {
            return Err(SuiteError::CheckpointVersionMismatch {
                found: ckpt.version,
                expected: env!("CARGO_PKG_VERSION").to_string(),
            });
        }
        if ckpt.jobs != jobs as u64 {
            return Err(SuiteError::CheckpointJobsMismatch {
                found: ckpt.jobs,
                expected: jobs as u64,
            });
        }
        if ckpt.fingerprint != fingerprint || ckpt.records.len() > machines.len() {
            return Err(SuiteError::CheckpointMismatch);
        }
        for (rec, (name, _)) in ckpt.records.iter().zip(machines) {
            if rec.name != *name {
                return Err(SuiteError::CheckpointMismatch);
            }
        }
        records = ckpt.records;
    }

    let total = machines.len();
    let remaining = &machines[records.len()..];
    let cancel = control.cancel.clone();
    let mut on_checkpoint = control.on_checkpoint.take();
    let mut on_progress = control.on_progress.take();
    // The pool's streaming ordered merge consumes finished records in
    // input order as soon as their prefix is complete, so per-machine
    // checkpoints and progress heartbeats fire mid-campaign at every
    // job count (a one-job pool is literally the serial loop).
    let store = control.store.take();
    let outcome = pool.for_each_ordered(
        remaining,
        |_, (name, fsm)| {
            if cancel.is_cancelled() {
                return Err(cancel_interrupt(&cancel));
            }
            run_machine(name, fsm, options, library, &cancel, store.as_deref())
        },
        |_, record| {
            records.push(record);
            let checkpoint = SuiteCheckpoint::new(fingerprint, jobs, records.clone());
            if let Some(sink) = on_checkpoint.as_mut() {
                sink(&checkpoint);
            }
            if let Some(progress) = on_progress.as_mut() {
                progress(records.len(), total, records.last().unwrap());
            }
        },
    );

    let report = SuiteReport {
        latencies: options.latencies.clone(),
        records,
        certified: false,
        jobs,
        fault_model: options.pipeline.fault_model,
    };
    match outcome {
        Ok(()) => Ok(report),
        Err(interrupted) => Err(SuiteError::Interrupted(Box::new(SuiteInterrupted {
            interrupted,
            checkpoint: SuiteCheckpoint::new(fingerprint, jobs, report.records.clone()),
            partial: report,
        }))),
    }
}

/// One shard-addressable unit of a suite corpus: a machine, its
/// position in the canonical corpus order, and its canonical KISS2
/// serialization (the process-stable wire form fleet manifests carry,
/// the same text [`suite_fingerprint`] hashes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusUnit {
    /// Position in the corpus; the cross-process merge restores this
    /// order, which is what makes the fleet report byte-identical to
    /// the serial campaign's.
    pub index: usize,
    /// Machine name.
    pub name: String,
    /// Canonical KISS2 text of the machine.
    pub kiss2: String,
}

/// Splits a suite corpus into shard-addressable units, one per
/// machine, in canonical (input) order.
pub fn corpus_units(machines: &[(String, Fsm)]) -> Vec<CorpusUnit> {
    machines
        .iter()
        .enumerate()
        .map(|(index, (name, fsm))| CorpusUnit {
            index,
            name: name.clone(),
            kiss2: ced_fsm::kiss::to_string(fsm),
        })
        .collect()
}

/// Runs a single corpus unit to its final record — the fleet worker's
/// inner loop. Identical semantics to one iteration of the
/// [`run_suite`] machine loop (attempts inline under
/// [`ced_par::isolate`], budget, degraded retry, quarantine), so
/// records produced by separate worker processes merge
/// byte-identically with a single-process campaign.
///
/// # Errors
///
/// The [`Interrupted`] cancellation when `cancel` fires; budget
/// exhaustion is not an error (it degrades, then quarantines).
pub fn run_suite_unit(
    name: &str,
    fsm: &Fsm,
    options: &SuiteOptions,
    library: &CellLibrary,
    cancel: &CancelToken,
    store: Option<&Arc<Store>>,
) -> Result<MachineRecord, Interrupted> {
    run_machine(name, fsm, options, library, cancel, store.map(Arc::as_ref))
}

/// Builds a quarantined record for a unit no worker survived — the
/// fleet coordinator's poisonous-unit verdict. Rendered through the
/// same path as in-process quarantines (`report: null`, trail in
/// `notes`), so it splices into reports indistinguishably.
pub fn poisoned_record(name: &str, attempts: usize, notes: Vec<String>) -> MachineRecord {
    finish_record(name, MachineStatus::Quarantined, attempts, notes, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::suite as machines;

    fn small_suite() -> Vec<(String, Fsm)> {
        vec![
            ("seq".to_string(), machines::sequence_detector()),
            ("adder".to_string(), machines::serial_adder()),
        ]
    }

    fn fast_options() -> SuiteOptions {
        SuiteOptions {
            latencies: vec![1],
            ..SuiteOptions::default()
        }
    }

    #[test]
    fn clean_suite_completes_every_machine() {
        let report = run_suite(
            &small_suite(),
            &fast_options(),
            &CellLibrary::new(),
            SuiteControl::new(),
        )
        .unwrap();
        assert_eq!(report.completed(), 2);
        assert_eq!(report.quarantined(), 0);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"ced-suite-report/1\""));
        assert!(json.contains("\"name\":\"seq\""));
        assert!(json.contains("\"total\":2"));
    }

    #[test]
    fn report_header_records_version_and_certify_flag() {
        let mut report = run_suite(
            &small_suite()[..1],
            &fast_options(),
            &CellLibrary::new(),
            SuiteControl::new(),
        )
        .unwrap();
        let json = report.to_json();
        assert!(
            json.starts_with(&format!(
                "{{\"schema\":\"ced-suite-report/1\",\"version\":\"{}\",\"jobs\":1,\"certified\":false",
                env!("CARGO_PKG_VERSION")
            )),
            "{json}"
        );
        report.certified = true;
        assert!(report.to_json().contains("\"certified\":true"));
    }

    #[test]
    fn post_hoc_quarantine_rerenders_the_record() {
        let report = run_suite(
            &small_suite()[..1],
            &fast_options(),
            &CellLibrary::new(),
            SuiteControl::new(),
        )
        .unwrap();
        let mut rec = report.records[0].clone();
        assert_eq!(rec.status, MachineStatus::Completed);
        assert!(rec.json.contains("\"masks\""), "{}", rec.json);
        rec.quarantine("certification refuted q at p=1".into());
        assert_eq!(rec.status, MachineStatus::Quarantined);
        assert!(
            rec.json.contains("\"status\":\"quarantined\""),
            "{}",
            rec.json
        );
        assert!(rec.json.contains("certification refuted q"), "{}", rec.json);
        // The pipeline report fragment survives the re-render verbatim.
        let original = &report.records[0].json;
        let frag_at = |j: &str| {
            j.find(",\"report\":")
                .map(|i| j[i..j.len() - 1].to_string())
        };
        assert_eq!(frag_at(original), frag_at(&rec.json));
        assert!(frag_at(&rec.json).unwrap().contains("\"masks\""));
    }

    #[test]
    fn suite_json_is_deterministic() {
        let lib = CellLibrary::new();
        let opts = fast_options();
        let a = run_suite(&small_suite(), &opts, &lib, SuiteControl::new()).unwrap();
        let b = run_suite(&small_suite(), &opts, &lib, SuiteControl::new()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn shared_store_keeps_suite_json_byte_identical_warm_and_cold() {
        let lib = CellLibrary::new();
        let opts = fast_options();
        let plain = run_suite(&small_suite(), &opts, &lib, SuiteControl::new()).unwrap();

        let store = Arc::new(Store::in_memory());
        let mut cold = SuiteControl::new();
        cold.store = Some(Arc::clone(&store));
        let cold_report = run_suite(&small_suite(), &opts, &lib, cold).unwrap();
        let puts: u64 = store.stats().stages.iter().map(|(_, c)| c.puts).sum();
        assert!(puts > 0, "cold suite run must populate the store");

        let mut warm = SuiteControl::new();
        warm.store = Some(Arc::clone(&store));
        let warm_report = run_suite(&small_suite(), &opts, &lib, warm).unwrap();
        let hits: u64 = store.stats().stages.iter().map(|(_, c)| c.hits).sum();
        assert!(hits > 0, "warm suite run must hit the store");

        assert_eq!(plain.to_json(), cold_report.to_json());
        assert_eq!(plain.to_json(), warm_report.to_json());
    }

    #[test]
    fn tight_tick_cap_quarantines_without_panicking() {
        let opts = SuiteOptions {
            machine_ticks: Some(1),
            retry_degraded: false,
            ..fast_options()
        };
        let report = run_suite(
            &small_suite(),
            &opts,
            &CellLibrary::new(),
            SuiteControl::new(),
        )
        .unwrap();
        assert_eq!(report.quarantined(), 2);
        for r in &report.records {
            assert_eq!(r.attempts, 1);
            assert!(
                r.notes.iter().any(|n| n.contains("interrupted by budget")),
                "{:?}",
                r.notes
            );
            assert!(r.json.contains("\"report\":null"));
        }
    }

    #[test]
    fn degraded_retry_is_recorded() {
        // Exhaustive granularity + full faults on attempt 1 under an
        // impossible tick cap; the degraded retry also fails, so both
        // attempts land in the notes.
        let mut opts = SuiteOptions {
            machine_ticks: Some(1),
            ..fast_options()
        };
        opts.pipeline.input_granularity = InputGranularity::Exhaustive;
        opts.pipeline.full_fault_list = true;
        let report = run_suite(
            &small_suite()[..1],
            &opts,
            &CellLibrary::new(),
            SuiteControl::new(),
        )
        .unwrap();
        let rec = &report.records[0];
        assert_eq!(rec.status, MachineStatus::Quarantined);
        assert_eq!(rec.attempts, 2);
        assert!(
            rec.notes
                .iter()
                .any(|n| n.contains("retrying with degraded options")),
            "{:?}",
            rec.notes
        );
    }

    #[test]
    fn attempt_note_trails_are_pinned() {
        let run = |granularity, full_faults| {
            let mut opts = SuiteOptions {
                machine_ticks: Some(1),
                ..fast_options()
            };
            opts.pipeline.input_granularity = granularity;
            opts.pipeline.full_fault_list = full_faults;
            let report = run_suite(
                &small_suite()[..1],
                &opts,
                &CellLibrary::new(),
                SuiteControl::new(),
            )
            .unwrap();
            let rec = report.records[0].clone();
            assert_eq!(rec.status, MachineStatus::Quarantined);
            (rec.attempts, rec.notes)
        };
        let stop = |n: usize| {
            format!(
                "attempt {n}: interrupted by budget (TickCapExceeded at tables:extract); \
                 build reached fault 0, 0 latency bounds completed"
            )
        };
        assert_eq!(
            run(InputGranularity::Exhaustive, true),
            (
                2,
                vec![
                    stop(1),
                    "retrying with degraded options (transition-cube inputs, collapsed faults)"
                        .to_string(),
                    stop(2),
                ]
            )
        );
        assert_eq!(
            run(InputGranularity::TransitionCubes, false),
            (
                1,
                vec![
                    stop(1),
                    "degraded options identical to requested options; no retry".to_string(),
                ]
            )
        );
    }

    #[test]
    fn pre_cancelled_suite_interrupts_with_empty_checkpoint() {
        let control = SuiteControl::new();
        control.cancel.cancel();
        let err = run_suite(
            &small_suite(),
            &fast_options(),
            &CellLibrary::new(),
            control,
        )
        .unwrap_err();
        match err {
            SuiteError::Interrupted(i) => {
                assert_eq!(i.interrupted.kind, InterruptKind::Cancelled);
                assert_eq!(i.checkpoint.machines_done(), 0);
                assert!(i.partial.records.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let mut captured = None;
        let mut control = SuiteControl::new();
        let mut sink = |c: &SuiteCheckpoint| captured = Some(c.clone());
        control.on_checkpoint = Some(&mut sink);
        run_suite(
            &small_suite(),
            &fast_options(),
            &CellLibrary::new(),
            control,
        )
        .unwrap();
        let ckpt = captured.unwrap();
        assert_eq!(ckpt.machines_done(), 2);
        let bytes = ckpt.to_bytes();
        let back = SuiteCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let machines = small_suite();
        let opts = fast_options();
        let lib = CellLibrary::new();
        let mut captured = None;
        let mut control = SuiteControl::new();
        let mut sink = |c: &SuiteCheckpoint| captured = Some(c.clone());
        control.on_checkpoint = Some(&mut sink);
        run_suite(&machines, &opts, &lib, control).unwrap();
        // Same checkpoint, different latency list → different fingerprint.
        let mut other = opts.clone();
        other.latencies = vec![1, 2];
        let mut control = SuiteControl::new();
        control.resume = captured;
        match run_suite(&machines, &other, &lib, control) {
            Err(SuiteError::CheckpointMismatch) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resumed_suite_report_is_byte_identical() {
        let machines = small_suite();
        let opts = fast_options();
        let lib = CellLibrary::new();

        let uninterrupted = run_suite(&machines, &opts, &lib, SuiteControl::new()).unwrap();

        // Cancel after the first machine finishes.
        let control = SuiteControl::new();
        let cancel = control.cancel.clone();
        let mut control = control;
        let mut checkpoint = None;
        let mut sink = |c: &SuiteCheckpoint| {
            checkpoint = Some(c.clone());
            cancel.cancel();
        };
        control.on_checkpoint = Some(&mut sink);
        let err = run_suite(&machines, &opts, &lib, control).unwrap_err();
        let SuiteError::Interrupted(i) = err else {
            panic!("expected interruption");
        };
        assert_eq!(i.checkpoint.machines_done(), 1);

        let mut control = SuiteControl::new();
        control.resume = checkpoint;
        let resumed = run_suite(&machines, &opts, &lib, control).unwrap();
        assert_eq!(resumed.to_json(), uninterrupted.to_json());
    }

    #[test]
    fn corrupted_checkpoint_payload_is_typed() {
        let ckpt = SuiteCheckpoint::new(
            7,
            1,
            vec![MachineRecord {
                name: "m".into(),
                status: MachineStatus::Completed,
                attempts: 1,
                notes: vec![],
                json: "{}".into(),
            }],
        );
        let mut bytes = ckpt.to_bytes();
        // Layout: version (8-byte len + text), jobs u64, fingerprint
        // u64, machine count usize, name (8-byte len + "m"), status tag.
        let tag_at = 8 + env!("CARGO_PKG_VERSION").len() + 8 + 8 + 8 + 8 + 1;
        assert_eq!(bytes[tag_at], MachineStatus::Completed.tag());
        bytes[tag_at] = 0xFF;
        assert!(SuiteCheckpoint::from_bytes(&bytes).is_err());
        assert!(SuiteCheckpoint::from_bytes(&bytes[..4]).is_err());
    }

    /// Re-serializes a checkpoint with a forged version/jobs header —
    /// standing in for a checkpoint written by another build.
    fn forged_checkpoint(version: &str, jobs: u64, ckpt: &SuiteCheckpoint) -> SuiteCheckpoint {
        let mut w = ByteWriter::new();
        w.str(version);
        w.u64(jobs);
        w.u64(ckpt.fingerprint);
        w.usize(ckpt.records.len());
        for r in &ckpt.records {
            r.write_to(&mut w);
        }
        SuiteCheckpoint::from_bytes(&w.finish()).unwrap()
    }

    fn first_checkpoint(machines: &[(String, Fsm)], opts: &SuiteOptions) -> SuiteCheckpoint {
        let mut captured = None;
        let mut control = SuiteControl::new();
        let mut sink = |c: &SuiteCheckpoint| captured = Some(c.clone());
        control.on_checkpoint = Some(&mut sink);
        run_suite(machines, opts, &CellLibrary::new(), control).unwrap();
        captured.unwrap()
    }

    #[test]
    fn checkpoint_from_other_version_hard_errors() {
        let machines = small_suite();
        let opts = fast_options();
        let ckpt = first_checkpoint(&machines, &opts);
        let mut control = SuiteControl::new();
        control.resume = Some(forged_checkpoint("0.0.0-other", 1, &ckpt));
        match run_suite(&machines, &opts, &CellLibrary::new(), control) {
            Err(SuiteError::CheckpointVersionMismatch { found, expected }) => {
                assert_eq!(found, "0.0.0-other");
                assert_eq!(expected, env!("CARGO_PKG_VERSION"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn checkpoint_from_other_jobs_count_hard_errors() {
        let machines = small_suite();
        let opts = fast_options();
        let ckpt = first_checkpoint(&machines, &opts);
        assert_eq!(ckpt.jobs(), 1);
        let mut control = SuiteControl::new();
        control.resume = Some(forged_checkpoint(env!("CARGO_PKG_VERSION"), 4, &ckpt));
        let err = run_suite(&machines, &opts, &CellLibrary::new(), control).unwrap_err();
        assert!(err.to_string().contains("--jobs 4"), "{err}");
        match err {
            SuiteError::CheckpointJobsMismatch { found, expected } => {
                assert_eq!((found, expected), (4, 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corpus_units_are_canonical_and_ordered() {
        let machines = small_suite();
        let units = corpus_units(&machines);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].index, 0);
        assert_eq!(units[0].name, "seq");
        assert_eq!(units[1].index, 1);
        // The KISS2 text round-trips to an identical canonical form
        // (the property the fleet manifest relies on).
        let back = ced_fsm::kiss::parse(&units[0].kiss2).unwrap();
        assert_eq!(ced_fsm::kiss::to_string(&back), units[0].kiss2);
    }

    #[test]
    fn unit_records_match_serial_suite_records() {
        let machines = small_suite();
        let opts = fast_options();
        let lib = CellLibrary::new();
        let serial = run_suite(&machines, &opts, &lib, SuiteControl::new()).unwrap();
        let cancel = CancelToken::new();
        for (i, (name, fsm)) in machines.iter().enumerate() {
            let rec = run_suite_unit(name, fsm, &opts, &lib, &cancel, None).unwrap();
            assert_eq!(rec, serial.records[i]);
        }
        let merged = SuiteReport::from_records(opts.latencies.clone(), serial.records.clone());
        assert_eq!(merged.to_json(), serial.to_json());
    }

    #[test]
    fn poisoned_record_renders_like_a_quarantine() {
        let rec = poisoned_record("dk512", 3, vec!["killed 3 workers".into()]);
        assert_eq!(rec.status, MachineStatus::Quarantined);
        assert_eq!(rec.attempts, 3);
        assert!(rec.json.contains("\"status\":\"quarantined\""));
        assert!(rec.json.contains("\"report\":null"));
        assert!(rec.json.contains("killed 3 workers"));
        assert_eq!(MachineRecord::from_bytes(&rec.to_bytes()).unwrap(), rec);
    }
}
