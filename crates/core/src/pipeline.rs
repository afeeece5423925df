//! End-to-end pipeline: symbolic FSM → encoded circuit → fault
//! simulation → detectability table → Algorithm 1 → CED hardware →
//! per-latency report. This is the programmatic equivalent of the
//! paper's experimental flow (§5) and the engine behind the Table-1
//! harness.

use crate::duplication::duplication_cost;
use crate::hardware::{synthesize_ced, CedCost};
use crate::ip::ParityCover;
use crate::search::{
    minimize_parity_functions, CedOptions, DegradationEvent, DegradationReason, LadderRung,
    SearchOutcome,
};
use ced_fsm::encoded::{EncodedFsm, FsmCircuit};
use ced_fsm::encoding::StateEncoding;
use ced_fsm::encoding::{assign, min_bits, EncodingStrategy};
use ced_fsm::machine::{Fsm, FsmError};
use ced_logic::cube::Literal;
use ced_logic::gate::{CellLibrary, GateKind};
use ced_logic::netlist::{Gate, NetId, Netlist};
use ced_logic::MinimizeOptions;
use ced_par::ParExec;
use ced_runtime::{fnv1a64, Budget, ByteReader, ByteWriter, CheckpointError, Interrupted};
use ced_sim::detect::{
    check_machine_width, fragment_context_bytes, BuildCheckpoint, BuildControl, DeltaSeed,
    DetectError, DetectOptions, DetectStats, DetectabilityTable, InputModel, Semantics,
};
use ced_sim::fault::{all_faults, collapsed_faults, Fault, FaultModel};
use ced_sim::tables::TransitionTables;
use ced_store::Store;
use std::fmt;

/// Input-space granularity of the erroneous-case enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputGranularity {
    /// One representative input per STG transition cube — the paper's
    /// "for every transition in the FSM" granularity (default; keeps
    /// wide-input machines tractable).
    #[default]
    TransitionCubes,
    /// All `2^r` input minterms at every state — exact, and required
    /// for the operational guarantee over arbitrary input streams.
    Exhaustive,
}

/// Configuration of the whole pipeline.
#[derive(Clone, Default)]
pub struct PipelineOptions {
    /// State-assignment strategy.
    pub encoding: EncodingStrategy,
    /// Two-level minimization knobs (synthesis and CED predictor).
    pub minimize: MinimizeOptions,
    /// Algorithm-1 knobs.
    pub ced: CedOptions,
    /// Use structurally collapsed faults (default) or the full list.
    pub full_fault_list: bool,
    /// Hard cap on detectability rows (guards pathological machines).
    pub max_rows: usize,
    /// Step-difference semantics (lockstep = the paper's construction;
    /// faulty-trajectory = the Fig. 3 hardware's observable condition).
    pub semantics: Semantics,
    /// Input-space granularity of the enumeration.
    pub input_granularity: InputGranularity,
    /// Share logic across output cones during synthesis (default).
    /// `false` synthesizes PLA-per-output cones: single gate faults
    /// then perturb one cone only (input and state-register faults
    /// still straddle cones), at an area cost — kept as an ablation
    /// knob for the fault-effect-locality study.
    pub isolate_output_logic: bool,
    /// Temporal/spatial fault model assumed by the tensor enumeration
    /// (default: the paper's permanent single stuck-at model).
    pub fault_model: FaultModel,
}

// Hand-rolled so the permanent default renders exactly like the old
// derived output: `suite_fingerprint` and the stage fingerprints hash
// `format!("{options:?}")`, so the derived form with a `fault_model`
// field would silently invalidate every pre-model store artifact,
// checkpoint and fleet manifest. Non-permanent models append the extra
// field and get distinct fingerprints, which is exactly the hygiene we
// want.
impl fmt::Debug for PipelineOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("PipelineOptions");
        d.field("encoding", &self.encoding)
            .field("minimize", &self.minimize)
            .field("ced", &self.ced)
            .field("full_fault_list", &self.full_fault_list)
            .field("max_rows", &self.max_rows)
            .field("semantics", &self.semantics)
            .field("input_granularity", &self.input_granularity)
            .field("isolate_output_logic", &self.isolate_output_logic);
        if self.fault_model != FaultModel::PermanentStuckAt {
            d.field("fault_model", &self.fault_model);
        }
        d.finish()
    }
}

impl PipelineOptions {
    /// Defaults matching the paper's setup.
    pub fn paper_defaults() -> PipelineOptions {
        PipelineOptions {
            max_rows: 2_000_000,
            ..PipelineOptions::default()
        }
    }
}

/// Per-latency experiment record (one group of Table-1 columns).
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// The latency bound `p`.
    pub latency: usize,
    /// Rows in the (truncated) detectability table.
    pub erroneous_cases: usize,
    /// The verified parity cover.
    pub cover: ParityCover,
    /// CED checker cost.
    pub cost: CedCost,
    /// LP solves used by the search.
    pub lp_solves: usize,
    /// Rounding attempts used by the search.
    pub rounding_attempts: usize,
    /// The solver-ladder rung that produced `cover`.
    pub method: LadderRung,
    /// Solver-ladder degradation trail; empty when the primary
    /// LP + rounding method ran cleanly.
    pub degradation: Vec<DegradationEvent>,
}

/// Full per-circuit experiment record (one Table-1 row).
#[derive(Debug, Clone)]
pub struct CircuitReport {
    /// Circuit name.
    pub name: String,
    /// Input bits `r`.
    pub inputs: usize,
    /// State bits `s`.
    pub state_bits: usize,
    /// Output bits.
    pub outputs: usize,
    /// Original circuit gate count.
    pub original_gates: usize,
    /// Original circuit cost (area incl. state register).
    pub original_cost: f64,
    /// Fault statistics from table construction at `p_max`.
    pub detect_stats: DetectStats,
    /// Duplication baseline cost.
    pub duplication: CedCost,
    /// One record per requested latency bound (ascending).
    pub latencies: Vec<LatencyResult>,
}

/// Pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// The machine is not complete/deterministic or encoding failed.
    Fsm(FsmError),
    /// Detectability construction overflowed.
    Detect(DetectError),
    /// The run's [`Budget`] interrupted the pipeline; the payload says
    /// where, and carries a resume checkpoint when one exists.
    Interrupted(Box<PipelineInterrupted>),
    /// A resume checkpoint was built from a different machine, fault
    /// list, option set or latency list.
    CheckpointMismatch,
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Fsm(e) => write!(f, "fsm error: {e}"),
            PipelineError::Detect(e) => write!(f, "detectability error: {e}"),
            PipelineError::Interrupted(i) => {
                write!(f, "pipeline {}", i.interrupted)?;
                if i.checkpoint.is_some() {
                    write!(f, " (resume checkpoint available)")?;
                }
                Ok(())
            }
            PipelineError::CheckpointMismatch => write!(
                f,
                "resume checkpoint does not match this machine/options/latency list"
            ),
        }
    }
}

/// Payload of [`PipelineError::Interrupted`].
#[derive(Debug)]
pub struct PipelineInterrupted {
    /// The budget interruption that stopped the pipeline.
    pub interrupted: Interrupted,
    /// Resume state, when the pipeline stopped at a clean boundary
    /// (fault boundary during the build, latency boundary during the
    /// search). `None` when the interrupt landed mid-fault.
    pub checkpoint: Option<TableCheckpoint>,
}

impl std::error::Error for PipelineError {}

impl From<FsmError> for PipelineError {
    fn from(e: FsmError) -> PipelineError {
        PipelineError::Fsm(e)
    }
}

impl From<DetectError> for PipelineError {
    fn from(e: DetectError) -> PipelineError {
        PipelineError::Detect(e)
    }
}

/// Checkpoint-container kind tag for pipeline/table checkpoints (see
/// [`ced_runtime::encode_checkpoint`]).
pub const TABLE_CHECKPOINT_KIND: u16 = 1;

/// Resumable state of an interrupted [`run_circuit_controlled`] call.
///
/// Captures whichever phase boundary the run reached: a mid-build
/// fault-boundary checkpoint (`build`), the finished detectability
/// tables (`tables`), and the per-latency search results completed so
/// far (`completed`, with the incumbent cover threaded between
/// bounds). Resuming replays only the remaining work; because every
/// stage is deterministic given its inputs and the serialized state is
/// bit-exact, a resumed run's report equals an uninterrupted one's.
#[derive(Debug, Clone)]
pub struct TableCheckpoint {
    /// Fingerprint of (machine, options, fault list, latencies).
    fingerprint: u64,
    /// Mid-build checkpoint; `None` once the build finished.
    build: Option<BuildCheckpoint>,
    /// Finished tables + stats, one per latency (empty during build).
    tables: Vec<(DetectabilityTable, DetectStats)>,
    /// Per-latency results already searched/synthesized.
    completed: Vec<LatencyResult>,
    /// Best cover threaded into the next latency's search.
    incumbent: Option<ParityCover>,
}

impl TableCheckpoint {
    /// The input fingerprint this checkpoint binds to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Latency bounds already fully processed.
    pub fn completed_latencies(&self) -> usize {
        self.completed.len()
    }

    /// Faults already simulated by an unfinished build (`None` when
    /// the build phase is complete).
    pub fn build_progress(&self) -> Option<usize> {
        self.build.as_ref().map(|b| b.next_fault())
    }

    /// Serializes to a checkpoint payload (wrap with
    /// [`ced_runtime::encode_checkpoint`] using
    /// [`TABLE_CHECKPOINT_KIND`] before writing to disk).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.fingerprint);
        match &self.build {
            Some(b) => {
                w.bool(true);
                b.write(&mut w);
            }
            None => w.bool(false),
        }
        w.usize(self.tables.len());
        for (t, s) in &self.tables {
            t.write(&mut w);
            s.write(&mut w);
        }
        w.usize(self.completed.len());
        for l in &self.completed {
            write_latency_result(l, &mut w);
        }
        match &self.incumbent {
            Some(c) => {
                w.bool(true);
                w.u64_slice(&c.masks);
            }
            None => w.bool(false),
        }
        w.finish()
    }

    /// Deserializes a payload produced by [`TableCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncated or structurally invalid bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<TableCheckpoint, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let fingerprint = r.u64()?;
        let build = if r.bool()? {
            Some(BuildCheckpoint::read(&mut r)?)
        } else {
            None
        };
        let n_tables = r.usize()?;
        if n_tables > 4096 {
            return Err(CheckpointError::Corrupt("implausible table count".into()));
        }
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let t = DetectabilityTable::read(&mut r)?;
            let s = DetectStats::read(&mut r)?;
            tables.push((t, s));
        }
        let n_completed = r.usize()?;
        if n_completed > 4096 {
            return Err(CheckpointError::Corrupt("implausible result count".into()));
        }
        let mut completed = Vec::with_capacity(n_completed);
        for _ in 0..n_completed {
            completed.push(read_latency_result(&mut r)?);
        }
        let incumbent = if r.bool()? {
            Some(ParityCover::new(r.u64_slice()?))
        } else {
            None
        };
        r.expect_end()?;
        Ok(TableCheckpoint {
            fingerprint,
            build,
            tables,
            completed,
            incumbent,
        })
    }
}

fn write_latency_result(l: &LatencyResult, w: &mut ByteWriter) {
    w.usize(l.latency);
    w.usize(l.erroneous_cases);
    w.u64_slice(&l.cover.masks);
    w.usize(l.cost.parity_functions);
    w.usize(l.cost.gates);
    w.f64(l.cost.area);
    w.usize(l.cost.flip_flops);
    w.usize(l.lp_solves);
    w.usize(l.rounding_attempts);
    w.u8(rung_tag(l.method));
    write_degradation(&l.degradation, w);
}

fn write_degradation(events: &[DegradationEvent], w: &mut ByteWriter) {
    w.usize(events.len());
    for e in events {
        w.u8(rung_tag(e.from));
        w.u8(rung_tag(e.to));
        match &e.reason {
            DegradationReason::RoundingExhausted { queries } => {
                w.u8(0);
                w.usize(*queries);
            }
            DegradationReason::LpNumericalFailure { queries } => {
                w.u8(1);
                w.usize(*queries);
            }
            DegradationReason::BudgetExceeded => w.u8(2),
            DegradationReason::RoundingDisabled => w.u8(3),
            DegradationReason::CoverUnverified { uncovered_rows } => {
                w.u8(4);
                w.usize(*uncovered_rows);
            }
        }
        w.str(&e.detail);
    }
}

fn read_degradation(r: &mut ByteReader<'_>) -> Result<Vec<DegradationEvent>, CheckpointError> {
    let n_events = r.usize()?;
    if n_events > 65_536 {
        return Err(CheckpointError::Corrupt("implausible event count".into()));
    }
    let mut degradation = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        let from = rung_from_tag(r.u8()?)?;
        let to = rung_from_tag(r.u8()?)?;
        let reason = match r.u8()? {
            0 => DegradationReason::RoundingExhausted {
                queries: r.usize()?,
            },
            1 => DegradationReason::LpNumericalFailure {
                queries: r.usize()?,
            },
            2 => DegradationReason::BudgetExceeded,
            3 => DegradationReason::RoundingDisabled,
            4 => DegradationReason::CoverUnverified {
                uncovered_rows: r.usize()?,
            },
            t => {
                return Err(CheckpointError::Corrupt(format!(
                    "unknown degradation reason tag {t}"
                )))
            }
        };
        let detail = r.str()?.to_string();
        degradation.push(DegradationEvent {
            from,
            to,
            reason,
            detail,
        });
    }
    Ok(degradation)
}

fn read_latency_result(r: &mut ByteReader<'_>) -> Result<LatencyResult, CheckpointError> {
    let latency = r.usize()?;
    let erroneous_cases = r.usize()?;
    let cover = ParityCover::new(r.u64_slice()?);
    let cost = CedCost {
        parity_functions: r.usize()?,
        gates: r.usize()?,
        area: r.f64()?,
        flip_flops: r.usize()?,
    };
    let lp_solves = r.usize()?;
    let rounding_attempts = r.usize()?;
    let method = rung_from_tag(r.u8()?)?;
    let degradation = read_degradation(r)?;
    Ok(LatencyResult {
        latency,
        erroneous_cases,
        cover,
        cost,
        lp_solves,
        rounding_attempts,
        method,
        degradation,
    })
}

fn rung_tag(r: LadderRung) -> u8 {
    match r {
        LadderRung::LpRounding => 0,
        LadderRung::ReseededRetry => 1,
        LadderRung::GreedyCover => 2,
        LadderRung::Duplication => 3,
        LadderRung::Incumbent => 4,
    }
}

fn rung_from_tag(tag: u8) -> Result<LadderRung, CheckpointError> {
    Ok(match tag {
        0 => LadderRung::LpRounding,
        1 => LadderRung::ReseededRetry,
        2 => LadderRung::GreedyCover,
        3 => LadderRung::Duplication,
        4 => LadderRung::Incumbent,
        t => {
            return Err(CheckpointError::Corrupt(format!(
                "unknown ladder rung tag {t}"
            )))
        }
    })
}

/// Artifact-store stage name for synthesized circuits (see
/// [`prepare_machine_stored`]).
pub const SYNTH_STAGE: &str = "synth";

/// Artifact-store stage name for per-latency search results (cover +
/// CED cost); keyed per latency bound so a prior sweep serves any
/// subset of its bounds. Per-machine, unlike [`COVER_STAGE`], because
/// the stored [`LatencyResult`] embeds circuit-derived CED costs.
pub const SEARCH_STAGE: &str = "search";

/// Artifact-store stage name for circuit-*independent* parity-cover
/// search results ([`minimize_parity_functions_stored`]), keyed by the
/// detectability-table bytes plus the search options alone. Two
/// machines (or two edits of one machine) whose tables come out
/// byte-identical share the entry — the stage that makes an
/// incremental `ced check --baseline` skip Algorithm 1 outright when
/// an edit turns out not to change the table.
pub const COVER_STAGE: &str = "cover";

fn write_search_outcome(o: &SearchOutcome, w: &mut ByteWriter) {
    w.u64_slice(&o.cover.masks);
    w.usize(o.lp_solves);
    w.usize(o.rounding_attempts);
    w.usize(o.feasibility_trace.len());
    for &(q, feasible) in &o.feasibility_trace {
        w.usize(q);
        w.bool(feasible);
    }
    w.u8(rung_tag(o.method));
    write_degradation(&o.degradation, w);
}

fn read_search_outcome(r: &mut ByteReader<'_>) -> Result<SearchOutcome, CheckpointError> {
    let cover = ParityCover::new(r.u64_slice()?);
    let lp_solves = r.usize()?;
    let rounding_attempts = r.usize()?;
    let n_trace = r.usize()?;
    if n_trace > 1_000_000 {
        return Err(CheckpointError::Corrupt("implausible trace length".into()));
    }
    let mut feasibility_trace = Vec::with_capacity(n_trace);
    for _ in 0..n_trace {
        let q = r.usize()?;
        let feasible = r.bool()?;
        feasibility_trace.push((q, feasible));
    }
    let method = rung_from_tag(r.u8()?)?;
    let degradation = read_degradation(r)?;
    let q = cover.masks.len();
    Ok(SearchOutcome {
        cover,
        q,
        lp_solves,
        rounding_attempts,
        feasibility_trace,
        method,
        degradation,
    })
}

/// [`minimize_parity_functions`] with [`COVER_STAGE`] memoization.
///
/// The search is deterministic given the table and options (the
/// rounding RNG is seeded from `ced.seed`), so a hit is byte-identical
/// to a recompute; belt-and-braces, a cached cover that fails
/// [`DetectabilityTable::all_covered`] is dropped as corrupt and
/// recomputed. Searches under a wall-clock budget are *not* memoized —
/// their degradation depends on machine load, and caching a
/// timing-dependent outcome would let store warmth change results.
pub fn minimize_parity_functions_stored(
    table: &DetectabilityTable,
    ced: &CedOptions,
    store: Option<&Store>,
) -> SearchOutcome {
    let Some(store) = store else {
        return minimize_parity_functions(table, ced);
    };
    if ced.time_budget.is_some() {
        return minimize_parity_functions(table, ced);
    }
    let fp = {
        let mut bytes = table.to_bytes();
        bytes.extend_from_slice(b"cover");
        bytes.extend_from_slice(format!("{ced:?}").as_bytes());
        fnv1a64(&bytes)
    };
    if let Some(outcome) = store.get_typed(COVER_STAGE, fp, |bytes| {
        let mut r = ByteReader::new(bytes);
        let o = read_search_outcome(&mut r)?;
        r.expect_end()?;
        Ok(o)
    }) {
        if table.all_covered(&outcome.cover.masks) {
            return outcome;
        }
        store.note_corrupt(COVER_STAGE, fp);
    }
    let outcome = minimize_parity_functions(table, ced);
    let mut w = ByteWriter::new();
    write_search_outcome(&outcome, &mut w);
    store.put_artifact(COVER_STAGE, fp, &w.finish());
    outcome
}

/// Serializes a synthesized circuit bit-exactly (interface dimensions
/// plus the full netlist, including unused fanin slots) for the
/// `synth`-stage artifact.
pub fn write_circuit(circuit: &FsmCircuit, w: &mut ByteWriter) {
    w.str(circuit.name());
    w.usize(circuit.num_inputs());
    w.usize(circuit.state_bits());
    w.usize(circuit.num_outputs());
    w.u64(circuit.reset_code());
    let netlist = circuit.netlist();
    let gates = netlist.gates();
    w.usize(netlist.num_inputs());
    w.usize(gates.len());
    for g in gates {
        w.u8(g.kind.tag());
        w.u32(g.fanin[0].0);
        w.u32(g.fanin[1].0);
    }
    w.usize(netlist.outputs().len());
    for o in netlist.outputs() {
        w.u32(o.0);
    }
}

/// Deserializes a circuit written by [`write_circuit`].
///
/// Every structural invariant [`FsmCircuit::from_parts`] would assert
/// is pre-validated here, so corrupt artifacts surface as typed
/// [`CheckpointError::Corrupt`] values — never panics.
///
/// # Errors
///
/// [`CheckpointError`] on truncated or structurally invalid bytes.
pub fn read_circuit(r: &mut ByteReader<'_>) -> Result<FsmCircuit, CheckpointError> {
    let name = r.str()?.to_string();
    let num_inputs = r.usize()?;
    let state_bits = r.usize()?;
    let num_outputs = r.usize()?;
    let reset_code = r.u64()?;
    let net_inputs = r.usize()?;
    let n_gates = r.usize()?;
    if n_gates > 16_000_000 {
        return Err(CheckpointError::Corrupt("implausible gate count".into()));
    }
    let mut gates = Vec::with_capacity(n_gates);
    for _ in 0..n_gates {
        let tag = r.u8()?;
        let kind = GateKind::from_tag(tag)
            .ok_or_else(|| CheckpointError::Corrupt(format!("unknown gate kind tag {tag}")))?;
        let a = NetId(r.u32()?);
        let b = NetId(r.u32()?);
        gates.push(Gate {
            kind,
            fanin: [a, b],
        });
    }
    let n_outputs = r.usize()?;
    if n_outputs > 16_000_000 {
        return Err(CheckpointError::Corrupt("implausible output count".into()));
    }
    let mut outputs = Vec::with_capacity(n_outputs);
    for _ in 0..n_outputs {
        outputs.push(NetId(r.u32()?));
    }
    let netlist =
        Netlist::from_parts(net_inputs, gates, outputs).map_err(CheckpointError::Corrupt)?;
    if netlist.num_inputs() != num_inputs + state_bits
        || netlist.num_outputs() != state_bits + num_outputs
        || state_bits >= 64
        || reset_code >= (1u64 << state_bits)
    {
        return Err(CheckpointError::Corrupt(
            "circuit interface does not match its netlist".into(),
        ));
    }
    Ok(FsmCircuit::from_parts(
        netlist,
        num_inputs,
        state_bits,
        num_outputs,
        reset_code,
        name,
    ))
}

/// Budget, resume state and checkpoint hooks for a controlled pipeline
/// run (the pipeline-level analogue of
/// [`ced_sim::detect::BuildControl`]).
pub struct PipelineControl<'a> {
    /// The budget charged across the build and every search.
    pub budget: &'a Budget,
    /// Resume from a previous run's checkpoint.
    pub resume: Option<TableCheckpoint>,
    /// Emit a checkpoint every this many completed faults during the
    /// build phase (0 = only at phase boundaries).
    pub checkpoint_every: usize,
    /// Checkpoint sink (e.g. write-to-disk); also invoked at each
    /// phase boundary (build finished, each latency finished).
    pub on_checkpoint: Option<&'a mut dyn FnMut(&TableCheckpoint)>,
    /// Worker pool handed to the build phase's table extraction (see
    /// [`ced_sim::detect::BuildControl::pool`]); `None` runs strictly
    /// serial. Never part of the pipeline fingerprint: job counts
    /// change wall-clock, not results.
    pub pool: Option<&'a ParExec>,
    /// Content-addressed artifact store memoizing the `synth`, `tensor`
    /// (whole tables plus per-fault-cone `tensor-frag`/`tensor-comp`
    /// records) and `search` stages. Like `pool`, never part of any
    /// fingerprint: a cache hit returns bytes a prior run proved
    /// identical to a recompute, so presence or absence of the store
    /// cannot change results.
    pub store: Option<&'a Store>,
    /// Machine-diff seed from [`delta_seed`]: lets the tensor build
    /// serve unchanged fault cones from the *baseline* machine's
    /// fragments. Never part of any fingerprint — a promoted fragment
    /// is provably byte-identical to a rebuild.
    pub delta: Option<DeltaSeed>,
}

impl<'a> PipelineControl<'a> {
    /// A control with the given budget and no resume/checkpoint hooks.
    pub fn new(budget: &'a Budget) -> PipelineControl<'a> {
        PipelineControl {
            budget,
            resume: None,
            checkpoint_every: 0,
            on_checkpoint: None,
            pool: None,
            store: None,
            delta: None,
        }
    }
}

/// Synthesizes a symbolic machine with the pipeline's settings.
///
/// Incomplete machines are completed with don't-care self-loops first
/// (the usual convention for partially specified MCNC benchmarks).
/// Unlike [`prepare_machine`], a complete machine of any interface
/// width is accepted: the circuit is not analyzed here.
///
/// # Errors
///
/// Propagates FSM validation failures, among them
/// [`FsmError::TooWideToComplete`] for a partial machine with more
/// inputs than completion walks.
pub fn synthesize_circuit(
    fsm: &Fsm,
    options: &PipelineOptions,
) -> Result<FsmCircuit, PipelineError> {
    let (fsm, enc) = complete_and_assign(fsm, options)?;
    Ok(EncodedFsm::new(fsm, enc)?
        .synthesize_with_sharing(&options.minimize, !options.isolate_output_logic))
}

/// Completes an incomplete machine with don't-care self-loops and
/// assigns its state codes.
fn complete_and_assign(
    fsm: &Fsm,
    options: &PipelineOptions,
) -> Result<(Fsm, StateEncoding), FsmError> {
    let mut fsm = fsm.clone();
    fsm.complete_with_self_loops()?;
    let enc = assign(&fsm, options.encoding);
    Ok((fsm, enc))
}

/// Completes, encodes and synthesizes a machine, returning both the
/// encoded symbolic form (needed e.g. for the transition-cube input
/// model) and the gate-level circuit.
///
/// # Errors
///
/// Propagates FSM validation failures, and refuses a machine too wide
/// to analyze ([`DetectError::MachineTooWide`]) before synthesizing it.
pub fn prepare_machine(
    fsm: &Fsm,
    options: &PipelineOptions,
) -> Result<(EncodedFsm, FsmCircuit), PipelineError> {
    prepare_machine_stored(fsm, options, None)
}

/// [`prepare_machine`] with `synth`-stage memoization: the synthesized
/// circuit is keyed by the completed machine's canonical KISS2 text
/// plus every synthesis-affecting option, so repeat runs skip the
/// two-level minimization entirely. A hit is byte-identical to a
/// recompute because synthesis is deterministic and [`write_circuit`]
/// round-trips the netlist bit-exactly.
///
/// # Errors
///
/// As [`prepare_machine`].
pub fn prepare_machine_stored(
    fsm: &Fsm,
    options: &PipelineOptions,
    store: Option<&Store>,
) -> Result<(EncodedFsm, FsmCircuit), PipelineError> {
    // Every analysis enters here: a machine whose transition tables
    // cannot exist is refused before synthesis, the input model or any
    // table extraction sizes an allocation by its interface. No
    // encoding is narrower than the dense one, so a machine too wide
    // even at that width is refused before completion walks its input
    // minterms; the exact check follows once the codes are assigned.
    check_machine_width(
        fsm.num_inputs(),
        min_bits(fsm.num_states()),
        fsm.num_outputs(),
    )?;
    let (fsm, enc) = complete_and_assign(fsm, options)?;
    check_machine_width(fsm.num_inputs(), enc.bits(), fsm.num_outputs())?;
    let Some(store) = store else {
        let encoded = EncodedFsm::new(fsm, enc)?;
        let circuit =
            encoded.synthesize_with_sharing(&options.minimize, !options.isolate_output_logic);
        return Ok((encoded, circuit));
    };
    let fp = {
        let mut w = ByteWriter::new();
        w.str(fsm.name());
        w.str(&ced_fsm::kiss::to_string(&fsm));
        w.str(&format!("{:?}", options.encoding));
        w.str(&format!("{:?}", options.minimize));
        w.bool(options.isolate_output_logic);
        fnv1a64(&w.finish())
    };
    let encoded = EncodedFsm::new(fsm, enc)?;
    if let Some(circuit) = store.get_typed(SYNTH_STAGE, fp, |bytes| {
        let mut r = ByteReader::new(bytes);
        let c = read_circuit(&mut r)?;
        r.expect_end()?;
        Ok(c)
    }) {
        // Belt-and-braces against a mis-filed artifact that decoded
        // cleanly: the cached interface must match this machine.
        if circuit.num_inputs() == encoded.num_inputs()
            && circuit.state_bits() == encoded.state_bits()
            && circuit.num_outputs() == encoded.num_outputs()
            && circuit.reset_code() == encoded.reset_code()
        {
            return Ok((encoded, circuit));
        }
        store.note_corrupt(SYNTH_STAGE, fp);
    }
    let circuit = encoded.synthesize_with_sharing(&options.minimize, !options.isolate_output_logic);
    let mut w = ByteWriter::new();
    write_circuit(&circuit, &mut w);
    store.put_artifact(SYNTH_STAGE, fp, &w.finish());
    Ok((encoded, circuit))
}

/// Builds the [`InputModel`] for a machine under the chosen granularity.
///
/// For [`InputGranularity::TransitionCubes`], each state contributes
/// one representative minterm per transition cube (the cube's smallest
/// covered input); codes without a symbolic state fall back to the
/// union of all representatives.
pub fn build_input_model(
    fsm: &Fsm,
    encoding: &StateEncoding,
    granularity: InputGranularity,
) -> InputModel {
    match granularity {
        InputGranularity::Exhaustive => InputModel::Exhaustive,
        InputGranularity::TransitionCubes => {
            let s = encoding.bits();
            let mut by_state: Vec<Vec<u64>> = vec![Vec::new(); 1 << s];
            let mut fallback: Vec<u64> = Vec::new();
            for t in fsm.transitions() {
                let mut rep = 0u64;
                for v in 0..t.input.width() {
                    if t.input.literal(v) == Literal::Positive {
                        rep |= 1 << v;
                    }
                }
                let code = encoding.code(t.from) as usize;
                by_state[code].push(rep);
                fallback.push(rep);
            }
            for v in by_state.iter_mut() {
                v.sort_unstable();
                v.dedup();
            }
            fallback.sort_unstable();
            fallback.dedup();
            if fallback.is_empty() {
                fallback.push(0);
            }
            InputModel::Restricted { by_state, fallback }
        }
    }
}

/// The circuit's fault list under the pipeline's settings.
///
/// Multi-bit cluster models always use the full (uncollapsed) list:
/// structural collapsing merges faults whose *single-fault* behaviour
/// coincides, but each net seeds a different spatial neighbourhood, so
/// a collapsed representative would silently drop distinct clusters.
pub fn fault_list(circuit: &FsmCircuit, options: &PipelineOptions) -> Vec<Fault> {
    let multibit = matches!(options.fault_model, FaultModel::MultiBitCluster { .. });
    if options.full_fault_list || multibit {
        all_faults(circuit.netlist())
    } else {
        collapsed_faults(circuit.netlist())
    }
}

/// Classification of an edit between two parsed KISS2 machines — the
/// front-end of the incremental re-analysis loop. Computed on the
/// *completed* machines (don't-care self-loops added), i.e. exactly
/// what synthesis sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineDelta {
    /// The completed machines are identical transition-for-transition.
    Identical,
    /// Only output values changed, on these transition indices (into
    /// the new machine's completed transition list). State set, reset,
    /// input cubes and next-states all agree — the class of edits whose
    /// fault cones can be diffed precisely.
    OutputOnly {
        /// Indices of the transitions whose outputs changed.
        transitions: Vec<usize>,
    },
    /// The edit touches synthesis structure (interface, state set,
    /// reset, transition connectivity): per-cone diffing falls back to
    /// the whole-stage path.
    Structural {
        /// Human-readable reason, for the dirty-cone summary line.
        reason: String,
    },
}

/// Classifies the edit from `old` to `new` (see [`MachineDelta`]).
pub fn machine_delta(old: &Fsm, new: &Fsm) -> MachineDelta {
    let structural = |reason: &str| MachineDelta::Structural {
        reason: reason.to_string(),
    };
    if old.num_inputs() != new.num_inputs() || old.num_outputs() != new.num_outputs() {
        return structural("interface width changed");
    }
    if old.state_names() != new.state_names() {
        return structural("state set changed");
    }
    let mut old = old.clone();
    let mut new = new.clone();
    if old.complete_with_self_loops().is_err() || new.complete_with_self_loops().is_err() {
        return structural("machine too wide to complete");
    }
    if old.reset_state() != new.reset_state() {
        return structural("reset state changed");
    }
    if old.transitions().len() != new.transitions().len() {
        return structural("transition count changed");
    }
    let mut transitions = Vec::new();
    for (i, (t, u)) in old.transitions().iter().zip(new.transitions()).enumerate() {
        if t.input != u.input || t.from != u.from || t.to != u.to {
            return structural("transition connectivity changed");
        }
        if t.output != u.output {
            transitions.push(i);
        }
    }
    if transitions.is_empty() {
        MachineDelta::Identical
    } else {
        MachineDelta::OutputOnly { transitions }
    }
}

/// Builds the [`DeltaSeed`] that lets a tensor build over `new` promote
/// per-fault-cone fragments stored by a build over `old`, or `None`
/// when the edit's effect on the synthesized machines puts promotion
/// out of reach (the build then runs the ordinary whole-stage path).
///
/// Soundness gate, checked on the *synthesized* machines rather than
/// the symbolic ones (resynthesis may reshape logic even for edits
/// [`machine_delta`] calls output-only):
///
/// * identical interface dimensions and reset code;
/// * identical next-state maps at every code and input — so the two
///   machines reach the same codes and every trajectory the old
///   enumeration walked exists verbatim in the new machine;
/// * byte-identical input models — so the enumeration explores the
///   same inputs at every state.
///
/// What may differ is the good *response* map; the seed records the
/// codes where it does ([`DeltaSeed::changed_codes`]), and the build
/// only promotes a fragment whose recorded good-state footprint avoids
/// all of them. `detect` is the new build's option set (its latency is
/// irrelevant here; contexts are latency-free).
pub fn delta_seed(
    old: &EncodedFsm,
    old_circuit: &FsmCircuit,
    new_circuit: &FsmCircuit,
    detect: &DetectOptions,
    granularity: InputGranularity,
) -> Option<DeltaSeed> {
    if old_circuit.num_inputs() != new_circuit.num_inputs()
        || old_circuit.state_bits() != new_circuit.state_bits()
        || old_circuit.num_outputs() != new_circuit.num_outputs()
        || old_circuit.reset_code() != new_circuit.reset_code()
    {
        return None;
    }
    let old_model = build_input_model(old.fsm(), old.encoding(), granularity);
    if old_model != detect.input_model {
        return None;
    }
    let old_good = TransitionTables::good(old_circuit);
    let new_good = TransitionTables::good(new_circuit);
    let mut changed_codes: Vec<u64> = Vec::new();
    for code in 0..(1u64 << old_circuit.state_bits()) {
        let mut changed = false;
        for input in 0..(1u64 << old_circuit.num_inputs()) {
            if old_good.next(code, input) != new_good.next(code, input) {
                return None;
            }
            changed |= old_good.response(code, input) != new_good.response(code, input);
        }
        if changed {
            changed_codes.push(code);
        }
    }
    Some(DeltaSeed {
        old_context: fragment_context_bytes(&old_good, detect),
        changed_codes,
    })
}

/// Runs the complete experiment for one machine over several latency
/// bounds (ascending order recommended; the detectability table is
/// built once at the maximum and truncated for the rest).
///
/// # Errors
///
/// Propagates FSM validation and table-construction failures.
pub fn run_circuit(
    fsm: &Fsm,
    latencies: &[usize],
    options: &PipelineOptions,
    library: &CellLibrary,
) -> Result<CircuitReport, PipelineError> {
    let budget = Budget::unlimited();
    run_circuit_controlled(
        fsm,
        latencies,
        options,
        library,
        PipelineControl::new(&budget),
    )
}

/// [`run_circuit`] under a [`Budget`], with optional resume from and
/// emission of [`TableCheckpoint`]s.
///
/// Checkpoints are emitted at every phase boundary (build finished,
/// each latency's search finished) and — when
/// [`PipelineControl::checkpoint_every`] is nonzero — every that many
/// faults during the build. A resumed run replays only the remaining
/// faults and latency bounds; every stage is deterministic given its
/// inputs, so the final report is bit-identical to an uninterrupted
/// run with the same options and seed.
///
/// # Errors
///
/// As [`run_circuit`], plus [`PipelineError::Interrupted`] (budget
/// exhausted or token cancelled; carries a resume checkpoint when the
/// interrupt landed on a clean boundary) and
/// [`PipelineError::CheckpointMismatch`] (resume checkpoint built from
/// different inputs).
pub fn run_circuit_controlled(
    fsm: &Fsm,
    latencies: &[usize],
    options: &PipelineOptions,
    library: &CellLibrary,
    mut control: PipelineControl<'_>,
) -> Result<CircuitReport, PipelineError> {
    let (encoded, circuit) = prepare_machine_stored(fsm, options, control.store)?;
    let input_model =
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
    let faults = fault_list(&circuit, options);
    let p_max = latencies.iter().copied().max().unwrap_or(1);
    let max_rows = if options.max_rows == 0 {
        2_000_000
    } else {
        options.max_rows
    };
    let fingerprint = pipeline_fingerprint(&circuit, &faults, options, latencies);

    let mut resume_build: Option<BuildCheckpoint> = None;
    let mut tables: Vec<(DetectabilityTable, DetectStats)> = Vec::new();
    let mut completed: Vec<LatencyResult> = Vec::new();
    let mut incumbent: Option<ParityCover> = None;
    if let Some(ckpt) = control.resume.take() {
        let prefix_ok = ckpt
            .completed
            .iter()
            .zip(latencies)
            .all(|(l, &p)| l.latency == p);
        if ckpt.fingerprint != fingerprint
            || (!ckpt.tables.is_empty() && ckpt.tables.len() != latencies.len())
            || ckpt.completed.len() > latencies.len()
            || !prefix_ok
            || (ckpt.tables.is_empty() && !ckpt.completed.is_empty())
        {
            return Err(PipelineError::CheckpointMismatch);
        }
        resume_build = ckpt.build;
        tables = ckpt.tables;
        completed = ckpt.completed;
        incumbent = ckpt.incumbent;
    }

    // Phase 1: one shared enumeration pass for all bounds (the
    // per-fault table extraction dominates on large circuits; one
    // dominance-reduced table per bound, since reduction depends on
    // the bound).
    if tables.is_empty() && !latencies.is_empty() {
        let build_result = {
            let sink = &mut control.on_checkpoint;
            let mut wrap = |b: &BuildCheckpoint| {
                if let Some(cb) = sink.as_mut() {
                    cb(&TableCheckpoint {
                        fingerprint,
                        build: Some(b.clone()),
                        tables: Vec::new(),
                        completed: Vec::new(),
                        incumbent: None,
                    });
                }
            };
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &DetectOptions {
                    latency: p_max,
                    max_rows,
                    semantics: options.semantics,
                    input_model,
                    reduce: true,
                    fault_model: options.fault_model,
                },
                latencies,
                BuildControl {
                    budget: control.budget,
                    resume: resume_build.take(),
                    checkpoint_every: control.checkpoint_every,
                    on_checkpoint: Some(&mut wrap),
                    pool: control.pool,
                    store: control.store,
                    delta: control.delta.take(),
                },
            )
        };
        match build_result {
            Ok(built) => tables = built,
            Err(DetectError::Interrupted {
                interrupted,
                checkpoint,
            }) => {
                return Err(PipelineError::Interrupted(Box::new(PipelineInterrupted {
                    interrupted,
                    checkpoint: checkpoint.map(|b| TableCheckpoint {
                        fingerprint,
                        build: Some(*b),
                        tables: Vec::new(),
                        completed: Vec::new(),
                        incumbent: None,
                    }),
                })));
            }
            Err(DetectError::CheckpointMismatch) => return Err(PipelineError::CheckpointMismatch),
            Err(e) => return Err(PipelineError::Detect(e)),
        }
        if let Some(cb) = control.on_checkpoint.as_mut() {
            cb(&TableCheckpoint {
                fingerprint,
                build: None,
                tables: tables.clone(),
                completed: completed.clone(),
                incumbent: incumbent.clone(),
            });
        }
    }

    // Phase 2: Algorithm 1 + hardware synthesis per latency bound,
    // skipping bounds a resumed checkpoint already finished.
    //
    // Everything search-affecting except the per-latency inputs: the
    // exact circuit (the CED predictor is resynthesized from it), the
    // solver and synthesis knobs, and the cell library the cost is
    // priced against. The table bytes and incumbent are appended per
    // bound, so each latency gets its own store key.
    let search_base: Option<Vec<u8>> = control.store.map(|_| {
        let mut w = ByteWriter::new();
        write_circuit(&circuit, &mut w);
        w.str(&format!("{:?}", options.minimize));
        let ced = &options.ced;
        w.usize(ced.iterations);
        w.str(&format!("{:?}", ced.form));
        w.u64(ced.seed);
        w.usize(ced.lp_row_cap);
        w.usize(ced.refinement_rounds);
        w.str(&format!("{:?}", ced.objective));
        match ced.max_lp_solves {
            Some(v) => {
                w.bool(true);
                w.usize(v);
            }
            None => w.bool(false),
        }
        w.str(&format!("{library:?}"));
        w.finish()
    });
    let mut stats = DetectStats::default();
    let mut latency_results = completed;
    for i in 0..latencies.len().min(tables.len()) {
        let p = latencies[i];
        if p == p_max {
            stats = tables[i].1;
        }
        if i < latency_results.len() {
            continue;
        }
        let search_fp = search_base.as_ref().map(|base| {
            let mut w = ByteWriter::new();
            w.bytes(base);
            w.usize(p);
            tables[i].0.write(&mut w);
            match &incumbent {
                Some(c) => {
                    w.bool(true);
                    w.u64_slice(&c.masks);
                }
                None => w.bool(false),
            }
            fnv1a64(&w.finish())
        });
        if let (Some(store), Some(fp)) = (control.store, search_fp) {
            let cached = store.get_typed(SEARCH_STAGE, fp, |bytes| {
                let mut r = ByteReader::new(bytes);
                let result = read_latency_result(&mut r)?;
                r.expect_end()?;
                if result.latency != p {
                    return Err(CheckpointError::Corrupt(
                        "search artifact is for a different latency bound".into(),
                    ));
                }
                Ok(result)
            });
            if let Some(result) = cached {
                // A decoded artifact whose cover fails verification
                // against *this* table cannot be a replay of this
                // search — treat it as corruption, not as a result.
                if tables[i].0.all_covered(&result.cover.masks) {
                    incumbent = Some(result.cover.clone());
                    latency_results.push(result);
                    if let Some(cb) = control.on_checkpoint.as_mut() {
                        cb(&TableCheckpoint {
                            fingerprint,
                            build: None,
                            tables: tables.clone(),
                            completed: latency_results.clone(),
                            incumbent: incumbent.clone(),
                        });
                    }
                    continue;
                }
                store.note_corrupt(SEARCH_STAGE, fp);
            }
        }
        let outcome = match crate::search::minimize_interruptible(
            &tables[i].0,
            &options.ced,
            incumbent.as_ref(),
            control.budget,
        ) {
            Ok(o) => o,
            Err(interrupted) => {
                return Err(PipelineError::Interrupted(Box::new(PipelineInterrupted {
                    interrupted,
                    checkpoint: Some(TableCheckpoint {
                        fingerprint,
                        build: None,
                        tables,
                        completed: latency_results,
                        incumbent,
                    }),
                })));
            }
        };
        incumbent = Some(outcome.cover.clone());
        debug_assert!(tables[i].0.all_covered(&outcome.cover.masks));
        let ced = synthesize_ced(&circuit, &outcome.cover, p, &options.minimize);
        latency_results.push(LatencyResult {
            latency: p,
            erroneous_cases: tables[i].0.len(),
            cover: outcome.cover,
            cost: ced.cost(library),
            lp_solves: outcome.lp_solves,
            rounding_attempts: outcome.rounding_attempts,
            method: outcome.method,
            degradation: outcome.degradation,
        });
        if let (Some(store), Some(fp)) = (control.store, search_fp) {
            let result = latency_results.last().expect("just pushed");
            // A result degraded by budget exhaustion depends on
            // wall-clock, not just the fingerprinted inputs; caching it
            // would replay the degradation into untimed reruns.
            let budget_free = result
                .degradation
                .iter()
                .all(|e| !matches!(e.reason, DegradationReason::BudgetExceeded));
            if budget_free {
                let mut w = ByteWriter::new();
                write_latency_result(result, &mut w);
                store.put_artifact(SEARCH_STAGE, fp, &w.finish());
            }
        }
        if let Some(cb) = control.on_checkpoint.as_mut() {
            cb(&TableCheckpoint {
                fingerprint,
                build: None,
                tables: tables.clone(),
                completed: latency_results.clone(),
                incumbent: incumbent.clone(),
            });
        }
    }

    Ok(CircuitReport {
        name: circuit.name().to_string(),
        inputs: circuit.num_inputs(),
        state_bits: circuit.state_bits(),
        outputs: circuit.num_outputs(),
        original_gates: circuit.gate_count(),
        original_cost: circuit.sequential_area(library),
        detect_stats: stats,
        duplication: duplication_cost(&circuit, library),
        latencies: latency_results,
    })
}

/// Fingerprint of everything that determines a pipeline run's results:
/// the synthesized circuit (structure, not just name), the fault list,
/// the deterministic option knobs and the latency list. Wall-clock
/// budgets are deliberately excluded — they change when a run resumes
/// without changing what any completed stage produced.
fn pipeline_fingerprint(
    circuit: &FsmCircuit,
    faults: &[Fault],
    options: &PipelineOptions,
    latencies: &[usize],
) -> u64 {
    let mut w = ByteWriter::new();
    w.str(circuit.name());
    w.usize(circuit.num_inputs());
    w.usize(circuit.state_bits());
    w.usize(circuit.num_outputs());
    let netlist = circuit.netlist();
    let gates = netlist.gates();
    w.usize(gates.len());
    for g in gates {
        w.str(&format!("{:?}", g.kind));
        for k in 0..g.kind.arity() {
            w.usize(g.fanin[k].index());
        }
    }
    for o in netlist.outputs() {
        w.usize(o.index());
    }
    w.usize(faults.len());
    for f in faults {
        w.usize(f.net.index());
        w.bool(f.stuck_at);
    }
    w.bool(options.full_fault_list);
    w.usize(options.max_rows);
    w.bool(options.isolate_output_logic);
    w.str(&format!("{:?}", options.semantics));
    w.str(&format!("{:?}", options.input_granularity));
    w.str(&format!("{:?}", options.encoding));
    w.str(&format!("{:?}", options.minimize));
    let ced = &options.ced;
    w.usize(ced.iterations);
    w.str(&format!("{:?}", ced.form));
    w.u64(ced.seed);
    w.usize(ced.lp_row_cap);
    w.usize(ced.refinement_rounds);
    w.str(&format!("{:?}", ced.objective));
    match ced.max_lp_solves {
        Some(v) => {
            w.bool(true);
            w.usize(v);
        }
        None => w.bool(false),
    }
    w.usize(latencies.len());
    for &p in latencies {
        w.usize(p);
    }
    // Appended only for non-permanent models so every pre-model
    // checkpoint fingerprint stays valid (byte-identity guarantee).
    if options.fault_model != FaultModel::PermanentStuckAt {
        w.str("fault-model");
        options.fault_model.write(&mut w);
    }
    fnv1a64(&w.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_fsm::suite;

    #[test]
    fn permanent_debug_rendering_is_model_free() {
        // The stage fingerprints and the fleet handshake hash this
        // Debug output; the permanent default must render exactly as it
        // did before the fault-model field existed.
        let opts = PipelineOptions::paper_defaults();
        assert!(!format!("{opts:?}").contains("fault_model"));
        let mut transient = opts.clone();
        transient.fault_model = FaultModel::TransientSeu { duration: 4 };
        assert!(format!("{transient:?}").contains("fault_model"));
        let mut intermittent = opts.clone();
        intermittent.fault_model = FaultModel::Intermittent { period: 3 };
        assert_ne!(format!("{transient:?}"), format!("{intermittent:?}"));
    }

    #[test]
    fn multibit_model_forces_full_fault_list() {
        let fsm = suite::sequence_detector();
        let opts = PipelineOptions::paper_defaults();
        let (_, circuit) = prepare_machine(&fsm, &opts).unwrap();
        let collapsed = fault_list(&circuit, &opts);
        let mut multibit = opts.clone();
        multibit.fault_model = FaultModel::MultiBitCluster { radius: 1 };
        let full = fault_list(&circuit, &multibit);
        assert_eq!(full, all_faults(circuit.netlist()));
        assert!(full.len() >= collapsed.len());
    }

    #[test]
    fn full_pipeline_on_small_machine() {
        let fsm = suite::sequence_detector();
        let report = run_circuit(
            &fsm,
            &[1, 2],
            &PipelineOptions::paper_defaults(),
            &CellLibrary::new(),
        )
        .unwrap();
        assert_eq!(report.latencies.len(), 2);
        assert!(report.original_gates > 0);
        assert!(report.original_cost > 0.0);
        let p1 = &report.latencies[0];
        let p2 = &report.latencies[1];
        assert!(!p1.cover.is_empty());
        // Latency can only help (or tie) the parity-function count.
        assert!(p2.cover.len() <= p1.cover.len());
        // And the parity method uses at most as many functions as
        // duplication.
        assert!(p1.cover.len() <= report.duplication.parity_functions);
    }

    #[test]
    fn incomplete_machines_are_completed() {
        let mut fsm = ced_fsm::Fsm::new("partial", 1, 1);
        let a = fsm.add_state("a");
        let b = fsm.add_state("b");
        fsm.add_transition("1".parse().unwrap(), a, b, vec![ced_fsm::OutputValue::One])
            .unwrap();
        fsm.add_transition("1".parse().unwrap(), b, a, vec![ced_fsm::OutputValue::Zero])
            .unwrap();
        let report = run_circuit(
            &fsm,
            &[1],
            &PipelineOptions::paper_defaults(),
            &CellLibrary::new(),
        )
        .unwrap();
        assert_eq!(report.inputs, 1);
    }

    #[test]
    fn transition_cube_input_model_has_per_state_representatives() {
        let fsm = suite::worked_example();
        let options = PipelineOptions::paper_defaults();
        let (encoded, _) = prepare_machine(&fsm, &options).unwrap();
        let model = build_input_model(
            encoded.fsm(),
            encoded.encoding(),
            InputGranularity::TransitionCubes,
        );
        match model {
            InputModel::Restricted { by_state, fallback } => {
                // Every symbolic state code has representatives; the
                // worked example has 2 transitions per state.
                for state in 0..encoded.fsm().num_states() {
                    let code = encoded.encoding().code(ced_fsm::StateId(state as u32));
                    assert_eq!(by_state[code as usize].len(), 2, "state {state}");
                }
                assert!(!fallback.is_empty());
            }
            InputModel::Exhaustive => panic!("expected restricted model"),
        }
    }

    #[test]
    fn exhaustive_granularity_produces_exhaustive_model() {
        let fsm = suite::serial_adder();
        let options = PipelineOptions::paper_defaults();
        let (encoded, _) = prepare_machine(&fsm, &options).unwrap();
        let model = build_input_model(
            encoded.fsm(),
            encoded.encoding(),
            InputGranularity::Exhaustive,
        );
        assert!(matches!(model, InputModel::Exhaustive));
    }

    #[test]
    fn q_is_monotone_in_latency_thanks_to_incumbents() {
        // Even with a tiny rounding budget (weak oracle), the incumbent
        // threading guarantees non-increasing q.
        let fsm = suite::worked_example();
        let mut opts = PipelineOptions::paper_defaults();
        opts.ced.iterations = 5;
        let report = run_circuit(&fsm, &[1, 2, 3], &opts, &CellLibrary::new()).unwrap();
        let q: Vec<usize> = report.latencies.iter().map(|l| l.cover.len()).collect();
        assert!(q.windows(2).all(|w| w[1] <= w[0]), "q not monotone: {q:?}");
    }

    #[test]
    fn isolated_cones_cost_at_least_as_much() {
        let fsm = suite::sequence_detector();
        let shared = PipelineOptions::paper_defaults();
        let mut isolated = PipelineOptions::paper_defaults();
        isolated.isolate_output_logic = true;
        let a = synthesize_circuit(&fsm, &shared).unwrap();
        let b = synthesize_circuit(&fsm, &isolated).unwrap();
        assert!(b.gate_count() >= a.gate_count());
        // Functionally identical.
        for state in 0..(1u64 << a.state_bits()) {
            for input in 0..(1u64 << a.num_inputs()) {
                assert_eq!(a.step(state, input), b.step(state, input));
            }
        }
    }

    #[test]
    fn row_cap_surfaces_as_error() {
        let fsm = suite::worked_example();
        let mut opts = PipelineOptions::paper_defaults();
        opts.max_rows = 1;
        let err = run_circuit(&fsm, &[2], &opts, &CellLibrary::new()).unwrap_err();
        assert!(matches!(err, PipelineError::Detect(_)));
    }

    fn reports_equal(a: &CircuitReport, b: &CircuitReport) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.original_gates, b.original_gates);
        assert_eq!(a.detect_stats, b.detect_stats);
        assert_eq!(a.latencies.len(), b.latencies.len());
        for (x, y) in a.latencies.iter().zip(&b.latencies) {
            assert_eq!(x.latency, y.latency);
            assert_eq!(x.erroneous_cases, y.erroneous_cases);
            assert_eq!(x.cover.masks, y.cover.masks);
            assert_eq!(x.cost, y.cost);
            assert_eq!(x.lp_solves, y.lp_solves);
            assert_eq!(x.rounding_attempts, y.rounding_attempts);
            assert_eq!(x.method, y.method);
        }
    }

    #[test]
    fn cancelled_pipeline_is_a_typed_interrupt() {
        let fsm = suite::sequence_detector();
        let budget = Budget::new();
        budget.cancel_token().cancel();
        let err = run_circuit_controlled(
            &fsm,
            &[1],
            &PipelineOptions::paper_defaults(),
            &CellLibrary::new(),
            PipelineControl::new(&budget),
        )
        .unwrap_err();
        match err {
            PipelineError::Interrupted(i) => {
                assert_eq!(i.interrupted.kind, ced_runtime::InterruptKind::Cancelled);
            }
            other => panic!("{other:?}"),
        }
    }

    /// Interrupts a run during the build phase (a tiny tick cap trips
    /// before the build can finish; the quantity cap defers to the
    /// next fault boundary, so the interrupt carries a checkpoint).
    fn build_phase_checkpoint(fsm: &Fsm, latencies: &[usize]) -> TableCheckpoint {
        let opts = PipelineOptions::paper_defaults();
        let lib = CellLibrary::new();
        let budget = Budget::new().with_tick_cap(10);
        let err =
            run_circuit_controlled(fsm, latencies, &opts, &lib, PipelineControl::new(&budget))
                .unwrap_err();
        let PipelineError::Interrupted(i) = err else {
            panic!("expected interrupt, got {err:?}");
        };
        assert!(i.interrupted.resumable);
        i.checkpoint
            .expect("fault-boundary interrupts carry checkpoints")
    }

    #[test]
    fn table_checkpoint_round_trips_bit_exactly() {
        let ckpt = build_phase_checkpoint(&suite::sequence_detector(), &[1, 2]);
        assert!(ckpt.build_progress().is_some());
        let bytes = ckpt.to_bytes();
        let back = TableCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.fingerprint(), ckpt.fingerprint());
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn resumed_pipeline_matches_uninterrupted_run() {
        let fsm = suite::worked_example();
        let opts = PipelineOptions::paper_defaults();
        let lib = CellLibrary::new();
        let latencies = [1, 2];

        let clean = run_circuit(&fsm, &latencies, &opts, &lib).unwrap();

        // Interrupt mid-build, then resume without a cap: the resumed
        // run replays only the remaining faults and bounds yet must
        // reproduce the uninterrupted report exactly.
        let ckpt = build_phase_checkpoint(&fsm, &latencies);
        let unlimited = Budget::unlimited();
        let mut control = PipelineControl::new(&unlimited);
        control.resume = Some(ckpt);
        let report = run_circuit_controlled(&fsm, &latencies, &opts, &lib, control).unwrap();
        reports_equal(&report, &clean);
    }

    #[test]
    fn foreign_checkpoint_is_rejected() {
        let opts = PipelineOptions::paper_defaults();
        let lib = CellLibrary::new();
        let ckpt = build_phase_checkpoint(&suite::sequence_detector(), &[1, 2]);
        // Same options, different machine.
        let unlimited = Budget::unlimited();
        let mut control = PipelineControl::new(&unlimited);
        control.resume = Some(ckpt);
        let err = run_circuit_controlled(&suite::serial_adder(), &[1, 2], &opts, &lib, control)
            .unwrap_err();
        assert!(matches!(err, PipelineError::CheckpointMismatch));
    }

    #[test]
    fn circuit_serialization_round_trips_bit_exactly() {
        let fsm = suite::worked_example();
        let circuit = synthesize_circuit(&fsm, &PipelineOptions::paper_defaults()).unwrap();
        let mut w = ByteWriter::new();
        write_circuit(&circuit, &mut w);
        let bytes = w.finish();
        let mut r = ByteReader::new(&bytes);
        let back = read_circuit(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.name(), circuit.name());
        assert_eq!(back.netlist(), circuit.netlist());
        assert_eq!(back.reset_code(), circuit.reset_code());
        let mut w2 = ByteWriter::new();
        write_circuit(&back, &mut w2);
        assert_eq!(w2.finish(), bytes);
    }

    #[test]
    fn corrupt_circuit_bytes_are_typed_errors() {
        let fsm = suite::sequence_detector();
        let circuit = synthesize_circuit(&fsm, &PipelineOptions::paper_defaults()).unwrap();
        let mut w = ByteWriter::new();
        write_circuit(&circuit, &mut w);
        let bytes = w.finish();
        // Truncations at every prefix length and single-byte flips must
        // surface as errors or decode to *something* — never panic.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let _ = read_circuit(&mut r);
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x41;
            let mut r = ByteReader::new(&flipped);
            let _ = read_circuit(&mut r);
        }
    }

    #[test]
    fn stored_pipeline_replay_is_byte_identical_with_stage_hits() {
        let fsm = suite::worked_example();
        let opts = PipelineOptions::paper_defaults();
        let lib = CellLibrary::new();
        let latencies = [1, 2];
        let budget = Budget::unlimited();

        let plain = run_circuit(&fsm, &latencies, &opts, &lib).unwrap();

        let store = ced_store::Store::in_memory();
        let mut cold_control = PipelineControl::new(&budget);
        cold_control.store = Some(&store);
        let cold = run_circuit_controlled(&fsm, &latencies, &opts, &lib, cold_control).unwrap();
        let mut warm_control = PipelineControl::new(&budget);
        warm_control.store = Some(&store);
        let warm = run_circuit_controlled(&fsm, &latencies, &opts, &lib, warm_control).unwrap();

        reports_equal(&plain, &cold);
        reports_equal(&plain, &warm);

        let by_stage = |name: &str| {
            store
                .stats()
                .stages
                .iter()
                .find(|(s, _)| s == name)
                .map(|(_, c)| *c)
                .unwrap_or_default()
        };
        // Cold run populates, warm run replays every stage.
        assert_eq!(by_stage(SYNTH_STAGE).puts, 1);
        assert!(by_stage(SYNTH_STAGE).hits >= 1);
        assert_eq!(by_stage(SEARCH_STAGE).puts, latencies.len() as u64);
        assert_eq!(by_stage(SEARCH_STAGE).hits, latencies.len() as u64);
        assert!(by_stage(ced_sim::detect::TENSOR_STAGE).hits >= latencies.len() as u64);
    }

    #[test]
    fn checkpoint_sink_sees_monotone_progress() {
        let fsm = suite::sequence_detector();
        let opts = PipelineOptions::paper_defaults();
        let lib = CellLibrary::new();
        let budget = Budget::unlimited();
        let mut completed = Vec::new();
        let mut sink = |c: &TableCheckpoint| completed.push(c.completed_latencies());
        let mut control = PipelineControl::new(&budget);
        control.checkpoint_every = 1;
        control.on_checkpoint = Some(&mut sink);
        run_circuit_controlled(&fsm, &[1, 2], &opts, &lib, control).unwrap();
        assert!(!completed.is_empty());
        assert!(completed.windows(2).all(|w| w[0] <= w[1]), "{completed:?}");
        assert_eq!(*completed.last().unwrap(), 2);
    }
}
