//! Erroneous-case enumeration and the error-detectability table
//! (the paper's Fig. 2 / tensor `V`).
//!
//! # Semantics (DESIGN.md §5)
//!
//! The paper leaves one point underspecified, and the two readings
//! genuinely differ for latency `p ≥ 2`; both are implemented
//! ([`Semantics`]):
//!
//! * [`Semantics::Lockstep`] — **the paper's construction.** The
//!   difference at step `k` is `GM(A,c)ₖ ⊕ BM_f(A,c)ₖ`: the good and
//!   faulty machines run from the common start `c` on the same input
//!   path, each following its own trajectory — exactly what a standard
//!   fault simulator reports, and the literal reading of the paper's
//!   §3. Once the state diverges, differences keep manifesting, which
//!   is where most of the latency benefit in Table 1 comes from.
//! * [`Semantics::FaultyTrajectory`] — **what the Fig. 3 hardware
//!   observes.** The predictor is combinational logic fed by the input
//!   and the *actual* (`s`-bit, possibly corrupted) state register, so
//!   detection at step `k` compares good and faulty responses **from
//!   the same present state** along the faulty trajectory. This is the
//!   physically realizable condition and the one the end-to-end
//!   fault-injection checker ([`crate::coverage`]) can certify.
//!
//! At `p = 1` the two coincide. For `p ≥ 2` a lockstep-verified cover
//! may miss errors on the real hardware (the reproduction surfaces
//! this soundness gap; see EXPERIMENTS.md).
//!
//! For a fault `f`, an erroneous case starts at a good-reachable state
//! `c` and an input `a₁` whose faulty response differs from the good
//! one (`D₁ ≠ 0`; before the first error the trajectory is error-free,
//! hence good-reachable). The row records the per-step difference masks
//! `D₁..D_p` along every input path of length `p`. A branch terminates
//! early when the trajectory revisits a state (pair) already on the
//! path (paper §2's loop rule) — the remaining steps are recorded as
//! all-zero, forcing detection within the prefix. Identical rows are
//! merged (`F = ∪ EC`), both within and across faults.

use crate::fault::{Fault, FaultModel};
use crate::tables::{FaultTables, TransitionTables, MAX_ADDRESS_BITS, MAX_RESPONSE_BITS};
use ced_fsm::encoded::FsmCircuit;
use ced_par::ParExec;
use ced_runtime::{
    fnv1a64, fnv1a64_extend, Budget, ByteReader, ByteWriter, CheckpointError, InterruptKind,
    Interrupted,
};
use ced_store::{CoverageMatrix, Store, TENSOR_FRAG_STAGE};
use std::cell::OnceCell;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// One erroneous case: the `n`-bit difference mask at each of the `p`
/// latency steps (`V(i, :, k)` as a bitmask per `k`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EcRow {
    /// `steps[k]` = mask of bits that detect this case at latency `k+1`.
    pub steps: Vec<u64>,
}

impl EcRow {
    /// True iff a parity tree over the bits of `mask` detects this case:
    /// some step has an odd number of discrepant bits inside the mask.
    #[inline]
    pub fn detected_by(&self, mask: u64) -> bool {
        self.steps.iter().any(|&d| (d & mask).count_ones() & 1 == 1)
    }

    /// The union of discrepant bits across all steps.
    pub fn any_step_union(&self) -> u64 {
        self.steps.iter().fold(0, |a, &d| a | d)
    }
}

/// The error-detectability table for one circuit, fault model and
/// latency bound: the paper's `V ∈ {0,1}^{m×n×p}` stored as deduplicated
/// rows of step masks.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectabilityTable {
    num_bits: usize,
    latency: usize,
    /// True when rows are canonical minimal step-sets (dominance
    /// reduced) rather than temporally ordered erroneous cases.
    reduced: bool,
    rows: Vec<EcRow>,
}

/// Accumulates enumerated rows, optionally maintaining the dominance-
/// reduced (minimal step-set) form online. Enumeration consults
/// [`Collector::prefix_dominated`] to prune whole branches whose
/// eventual rows are already implied.
struct Collector {
    latency: usize,
    reduce: bool,
    max_rows: usize,
    /// Canonical sets (reduce) or raw ordered rows (!reduce).
    sets: CoverageMatrix,
    emitted: usize,
    cleanup_at: usize,
    overflow: bool,
}

impl Collector {
    fn new(latency: usize, reduce: bool, max_rows: usize) -> Collector {
        Collector {
            latency,
            reduce,
            max_rows,
            sets: CoverageMatrix::new(),
            emitted: 0,
            cleanup_at: 4096,
            overflow: false,
        }
    }

    /// Branch pruning hook: a DFS prefix whose canonical set is already
    /// dominated can only produce dominated rows.
    fn prefix_dominated(&self, prefix: &[u64]) -> bool {
        self.reduce && self.sets.dominated(&CoverageMatrix::canonical(prefix))
    }

    /// Records one complete row (length = latency, zero-padded).
    fn insert(&mut self, row: &[u64]) {
        self.emitted += 1;
        if self.reduce {
            if !self.sets.insert_minimal(CoverageMatrix::canonical(row)) {
                return;
            }
            if self.sets.len() >= self.cleanup_at {
                self.sets.remove_supersets();
                self.cleanup_at = (self.sets.len() * 2).max(4096);
            }
        } else {
            self.sets.insert_raw(row.to_vec());
        }
        if self.sets.len() > self.max_rows {
            if self.reduce {
                self.sets.remove_supersets();
                self.cleanup_at = (self.sets.len() * 2).max(4096);
            }
            if self.sets.len() > self.max_rows {
                self.overflow = true;
            }
        }
    }

    fn overflowed(&self) -> bool {
        self.overflow
    }

    fn emitted(&self) -> usize {
        self.emitted
    }

    /// Drains the collector into its canonical kept rows — the payload
    /// of a per-fault tensor fragment. In reduce mode these are the
    /// fault's minimal step-sets; otherwise its deduplicated raw rows.
    /// Sorted, so fragment bytes are deterministic.
    fn into_fragment_rows(mut self) -> Vec<Vec<u64>> {
        if self.reduce {
            self.sets.remove_supersets();
        }
        self.sets.into_sorted_sets()
    }

    /// Replays a fragment's kept rows (already canonical/full-length)
    /// and its emitted count into this collector. Equivalent to having
    /// enumerated the fault inline: the per-fault collector already
    /// counted emissions and canonicalized, so only the cross-fault
    /// pruning and overflow bookkeeping happen here.
    fn absorb(&mut self, rows: &[Vec<u64>], emitted: usize) {
        self.emitted += emitted;
        for row in rows {
            if self.reduce {
                if !self.sets.insert_minimal(row.clone()) {
                    continue;
                }
                if self.sets.len() >= self.cleanup_at {
                    self.sets.remove_supersets();
                    self.cleanup_at = (self.sets.len() * 2).max(4096);
                }
            } else {
                self.sets.insert_raw(row.clone());
            }
            if self.sets.len() > self.max_rows {
                if self.reduce {
                    self.sets.remove_supersets();
                    self.cleanup_at = (self.sets.len() * 2).max(4096);
                }
                if self.sets.len() > self.max_rows {
                    self.overflow = true;
                }
            }
        }
    }

    /// Captures the collector at a clean fault boundary. Sets are
    /// sorted so the snapshot (and hence the checkpoint bytes) are
    /// independent of hash iteration order.
    fn snapshot(&self) -> CollectorState {
        debug_assert!(!self.overflow, "snapshot of an overflowed collector");
        CollectorState {
            sets: self.sets.sorted_sets(),
            emitted: self.emitted,
            cleanup_at: self.cleanup_at,
        }
    }

    /// Rebuilds a collector from a snapshot.
    fn restore(latency: usize, reduce: bool, max_rows: usize, state: &CollectorState) -> Collector {
        Collector {
            latency,
            reduce,
            max_rows,
            sets: CoverageMatrix::from_sets(state.sets.iter().cloned()),
            emitted: state.emitted,
            cleanup_at: state.cleanup_at,
            overflow: false,
        }
    }

    /// Final rows: cleaned up, canonical, sorted, zero-padded.
    fn finish(mut self) -> Vec<EcRow> {
        if self.reduce {
            self.sets.remove_supersets();
        }
        let latency = self.latency;
        let mut rows: Vec<EcRow> = self
            .sets
            .into_sorted_sets()
            .into_iter()
            .map(|mut steps| {
                steps.resize(latency, 0);
                EcRow { steps }
            })
            .collect();
        rows.sort_by(|a, b| a.steps.cmp(&b.steps));
        rows
    }
}

/// Aggregate statistics from table construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DetectStats {
    /// Faults simulated.
    pub faults: usize,
    /// Faults that never cause any error from a reachable state
    /// (functionally redundant — no detection obligation).
    pub untestable_faults: usize,
    /// Error activations (state × input pairs with `D₁ ≠ 0`), summed
    /// over faults.
    pub activations: usize,
    /// Rows emitted by enumeration before cross-fault deduplication.
    /// Counted per fault — the enumeration prunes each fault against
    /// its own rows only — so the count is independent of store warmth
    /// and fragment reuse.
    pub rows_raw: usize,
    /// Rows in the final table.
    pub rows: usize,
}

impl DetectStats {
    /// Serializes into a checkpoint writer.
    pub fn write(&self, w: &mut ByteWriter) {
        w.usize(self.faults);
        w.usize(self.untestable_faults);
        w.usize(self.activations);
        w.usize(self.rows_raw);
        w.usize(self.rows);
    }

    /// Deserializes from a checkpoint reader.
    pub fn read(r: &mut ByteReader<'_>) -> Result<DetectStats, CheckpointError> {
        Ok(DetectStats {
            faults: r.usize()?,
            untestable_faults: r.usize()?,
            activations: r.usize()?,
            rows_raw: r.usize()?,
            rows: r.usize()?,
        })
    }
}

/// Which step-difference definition to enumerate (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// The paper's fault-simulation view: good and faulty machines run
    /// in lockstep from the activation state, each on its own
    /// trajectory. Default, for Table-1 fidelity.
    #[default]
    Lockstep,
    /// The Fig. 3 hardware's view: differences are taken from the same
    /// (actual, faulty-trajectory) present state. Physically
    /// realizable; operationally certifiable.
    FaultyTrajectory,
}

/// Which inputs the erroneous-case enumeration explores at each state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum InputModel {
    /// Every input minterm (`2^r` per state). Exact, and required for
    /// the operational guarantee under arbitrary input streams, but
    /// infeasible for wide-input machines at `p ≥ 2`.
    #[default]
    Exhaustive,
    /// One representative input per STG transition cube of each state —
    /// the paper's granularity ("… for every transition in the FSM",
    /// §1) and what made the 2004 experiments tractable. An
    /// under-approximation of the exhaustive table.
    Restricted {
        /// `by_state[code]` = representative inputs of that state
        /// (empty entries use `fallback`).
        by_state: Vec<Vec<u64>>,
        /// Inputs used at codes with no symbolic state (e.g. invalid
        /// codes a faulty machine wanders into).
        fallback: Vec<u64>,
    },
}

impl InputModel {
    /// The inputs to explore from (good-trajectory) state `code`.
    ///
    /// Public so independent re-verifiers (the `ced-cert` crate's BFS
    /// product-machine check) can walk exactly the input universe the
    /// enumeration claimed to cover, without reimplementing the
    /// fallback rule.
    pub fn inputs_at(&self, code: u64, r: usize, scratch: &mut Vec<u64>) {
        scratch.clear();
        match self {
            InputModel::Exhaustive => scratch.extend(0..(1u64 << r)),
            InputModel::Restricted { by_state, fallback } => {
                let entry = by_state.get(code as usize).filter(|v| !v.is_empty());
                match entry {
                    Some(v) => scratch.extend_from_slice(v),
                    None => scratch.extend_from_slice(fallback),
                }
            }
        }
    }
}

/// Construction options.
#[derive(Debug, Clone)]
pub struct DetectOptions {
    /// The latency bound `p ≥ 1`.
    pub latency: usize,
    /// Hard cap on deduplicated rows; construction aborts beyond it.
    pub max_rows: usize,
    /// Step-difference semantics.
    pub semantics: Semantics,
    /// Input exploration granularity.
    pub input_model: InputModel,
    /// Apply dominance reduction *online* (default): the built table
    /// contains only minimal step-sets, and dominated enumeration
    /// branches are pruned — indispensable for large circuits, and
    /// exactly equivalent for every covering question. Disable to
    /// obtain the literal Fig. 2 table (all deduplicated erroneous
    /// cases, temporal step order preserved); only unreduced tables
    /// support [`DetectabilityTable::truncated`].
    pub reduce: bool,
    /// Temporal/spatial fault model the enumeration assumes. The
    /// default, [`FaultModel::PermanentStuckAt`], is byte-identical to
    /// the pre-model pipeline (tables, stats, fingerprints and store
    /// keys unchanged). Non-permanent models switch the faulty machine
    /// between faulty and fault-free transition tables per activation
    /// step ([`FaultModel::active_at`]), and
    /// [`FaultModel::MultiBitCluster`] injects the whole spatial
    /// cluster seeded at each listed fault.
    pub fault_model: FaultModel,
}

impl Default for DetectOptions {
    fn default() -> DetectOptions {
        DetectOptions {
            latency: 1,
            max_rows: 2_000_000,
            semantics: Semantics::default(),
            input_model: InputModel::default(),
            reduce: true,
            fault_model: FaultModel::default(),
        }
    }
}

/// Construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectError {
    /// More deduplicated rows than `max_rows`.
    TooManyRows {
        /// The configured cap that was exceeded.
        limit: usize,
    },
    /// Latency must be at least 1.
    ZeroLatency,
    /// The tensor volume `i·j·k` (`max_rows · bits · latency`) does not
    /// fit in `usize`: the enumeration would abort on allocation long
    /// before filling it, so it is rejected up front as a typed error.
    TensorTooLarge {
        /// The row cap `i` (`m ≤ max_rows`).
        rows: usize,
        /// Monitored bits `j` (`n`).
        bits: usize,
        /// The latency bound `k` (`p`).
        latency: usize,
    },
    /// The machine's interface is too wide for transition tables:
    /// inputs + state bits exceed [`MAX_ADDRESS_BITS`] or state bits +
    /// outputs exceed [`MAX_RESPONSE_BITS`]. See
    /// [`check_machine_width`].
    MachineTooWide {
        /// Primary input bits `r`.
        inputs: usize,
        /// State bits `s`.
        state_bits: usize,
        /// Primary output bits `o`.
        outputs: usize,
    },
    /// The build's [`Budget`] was exhausted or its token cancelled.
    Interrupted {
        /// What tripped, and how far the build had got.
        interrupted: Interrupted,
        /// A clean fault-boundary checkpoint to resume from. `None`
        /// when the interrupt landed mid-enumeration (the collectors
        /// hold partial rows for the current fault, which cannot be
        /// rolled back without breaking `rows_raw` exactness).
        checkpoint: Option<Box<BuildCheckpoint>>,
    },
    /// A resume checkpoint was built from different inputs (circuit,
    /// fault list, options or latency bounds).
    CheckpointMismatch,
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::TooManyRows { limit } => {
                write!(f, "detectability table exceeds {limit} rows")
            }
            DetectError::ZeroLatency => write!(f, "latency bound must be at least 1"),
            DetectError::TensorTooLarge {
                rows,
                bits,
                latency,
            } => write!(
                f,
                "detectability tensor volume {rows}·{bits}·{latency} overflows \
                 the address space"
            ),
            DetectError::MachineTooWide {
                inputs,
                state_bits,
                outputs,
            } => write!(
                f,
                "machine too wide to analyze: {inputs} input + {state_bits} state bits \
                 (at most {MAX_ADDRESS_BITS}), {state_bits} state + {outputs} output bits \
                 (at most {MAX_RESPONSE_BITS})"
            ),
            DetectError::Interrupted {
                interrupted,
                checkpoint,
            } => {
                write!(f, "tensor construction {interrupted}")?;
                if let Some(c) = checkpoint {
                    write!(f, " (checkpoint at fault {})", c.next_fault())?;
                }
                Ok(())
            }
            DetectError::CheckpointMismatch => write!(
                f,
                "resume checkpoint does not match this circuit/fault list/options"
            ),
        }
    }
}

impl std::error::Error for DetectError {}

/// Refuses a machine whose transition tables cannot be built, before
/// anything sized by its interface is allocated.
///
/// # Errors
///
/// [`DetectError::MachineTooWide`] when `inputs + state_bits` exceeds
/// [`MAX_ADDRESS_BITS`] or `state_bits + outputs` exceeds
/// [`MAX_RESPONSE_BITS`].
pub fn check_machine_width(
    inputs: usize,
    state_bits: usize,
    outputs: usize,
) -> Result<(), DetectError> {
    if inputs + state_bits > MAX_ADDRESS_BITS || state_bits + outputs > MAX_RESPONSE_BITS {
        return Err(DetectError::MachineTooWide {
            inputs,
            state_bits,
            outputs,
        });
    }
    Ok(())
}

/// Saved state of one [`Collector`] at a clean fault boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CollectorState {
    /// Kept sets/rows, sorted for canonical serialization.
    sets: Vec<Vec<u64>>,
    emitted: usize,
    cleanup_at: usize,
}

/// Resumable state of an interrupted [`DetectabilityTable::build_many_controlled`]
/// run, captured at a fault boundary: the next fault index plus the
/// exact collector and statistics state for every latency bound.
/// Resuming replays the remaining faults as if never interrupted, so
/// the finished tables and stats are bit-identical to an uninterrupted
/// build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildCheckpoint {
    /// FNV fingerprint of (good tables, fault list, options,
    /// latencies); a resume against different inputs is rejected.
    fingerprint: u64,
    /// Index of the first fault not yet simulated.
    next_fault: usize,
    latencies: Vec<usize>,
    collectors: Vec<CollectorState>,
    stats: Vec<DetectStats>,
}

impl BuildCheckpoint {
    /// The input fingerprint this checkpoint binds to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Index of the first fault a resumed build will simulate.
    pub fn next_fault(&self) -> usize {
        self.next_fault
    }

    /// Serializes to the checkpoint payload format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// Serializes into an existing writer (for embedding in larger
    /// checkpoints).
    pub fn write(&self, w: &mut ByteWriter) {
        w.u64(self.fingerprint);
        w.usize(self.next_fault);
        w.usize(self.latencies.len());
        for &p in &self.latencies {
            w.usize(p);
        }
        for c in &self.collectors {
            w.usize(c.sets.len());
            for s in &c.sets {
                w.u64_slice(s);
            }
            w.usize(c.emitted);
            w.usize(c.cleanup_at);
        }
        for s in &self.stats {
            s.write(w);
        }
    }

    /// Deserializes a payload produced by [`BuildCheckpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<BuildCheckpoint, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let ckpt = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(ckpt)
    }

    /// Deserializes from an existing reader.
    pub fn read(r: &mut ByteReader<'_>) -> Result<BuildCheckpoint, CheckpointError> {
        let fingerprint = r.u64()?;
        let next_fault = r.usize()?;
        let n_lat = r.usize()?;
        if n_lat > 4096 {
            return Err(CheckpointError::Corrupt("implausible latency count".into()));
        }
        let mut latencies = Vec::with_capacity(n_lat);
        for _ in 0..n_lat {
            latencies.push(r.usize()?);
        }
        let mut collectors = Vec::with_capacity(n_lat);
        for _ in 0..n_lat {
            let n_sets = r.usize()?;
            let mut sets = Vec::new();
            for _ in 0..n_sets {
                sets.push(r.u64_slice()?);
            }
            let emitted = r.usize()?;
            let cleanup_at = r.usize()?;
            collectors.push(CollectorState {
                sets,
                emitted,
                cleanup_at,
            });
        }
        let mut stats = Vec::with_capacity(n_lat);
        for _ in 0..n_lat {
            stats.push(DetectStats::read(r)?);
        }
        Ok(BuildCheckpoint {
            fingerprint,
            next_fault,
            latencies,
            collectors,
            stats,
        })
    }
}

/// Budget, resume state and checkpoint hooks for a controlled build.
pub struct BuildControl<'a> {
    /// The budget charged as faults are simulated (one tick per
    /// evaluation batch and per error activation).
    pub budget: &'a Budget,
    /// Resume from a previous run's checkpoint.
    pub resume: Option<BuildCheckpoint>,
    /// Invoke `on_checkpoint` every this many completed faults
    /// (0 = never).
    pub checkpoint_every: usize,
    /// Periodic checkpoint sink (e.g. write-to-disk).
    pub on_checkpoint: Option<&'a mut dyn FnMut(&BuildCheckpoint)>,
    /// Worker pool for the per-fault transition-table extraction
    /// (`None` or one job = the strictly serial path). Only the
    /// extraction parallelizes: the enumeration's dominance pruning is
    /// stateful across faults (`rows_raw` observes its order), so the
    /// enumeration always runs in fault order and the build's tables,
    /// stats and checkpoints are byte-identical at every job count.
    pub pool: Option<&'a ParExec>,
    /// Artifact store for the tensor stage, at two granularities:
    /// whole-table `(table, stats)` artifacts under [`TENSOR_STAGE`],
    /// and per-fault-cone fragments under
    /// [`ced_store::TENSOR_FRAG_STAGE`]. Each requested latency is
    /// keyed independently, so a prior p-sweep serves any subset of
    /// its bounds; because the enumeration is deterministic, a hit —
    /// whole table or composed from fragments — is byte-identical to
    /// a rebuild, and a composed table is checked byte for byte
    /// against the stored whole-table artifact.
    pub store: Option<&'a Store>,
    /// Baseline seed for cross-machine fragment promotion: lets a
    /// store-backed build of an *edited* machine reuse the unedited
    /// baseline's fragments for every fault whose cone (and delta
    /// footprint) the edit does not touch. Set by the pipeline's
    /// machine-diff front-end; `None` leaves builds unaffected.
    pub delta: Option<DeltaSeed>,
}

impl<'a> BuildControl<'a> {
    /// A control with the given budget and no resume/checkpoint hooks.
    pub fn new(budget: &'a Budget) -> BuildControl<'a> {
        BuildControl {
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

/// Baseline seed for cross-machine fragment promotion (the
/// edit→re-diagnose loop; DESIGN.md §16). Produced by the pipeline's
/// machine-diff front-end after verifying the preconditions that make
/// promotion sound: identical interface dims and reset code, a
/// byte-identical input model, and next-state maps that agree at
/// *every* code. Under those, a baseline fragment transfers to the
/// edited machine whenever its cone key matches and its footprint
/// avoids every changed code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSeed {
    /// The baseline machine's [`fragment_context_hash`].
    pub old_context: u64,
    /// Codes whose good response row differs between the baseline and
    /// the edited machine, sorted ascending.
    pub changed_codes: Vec<u64>,
}

/// Store stage name for per-latency whole-table `(table, stats)`
/// tensor artifacts: the one per-bound record, served directly and the
/// reference every table composed from per-fault fragments
/// ([`ced_store::TENSOR_FRAG_STAGE`]) must equal.
pub const TENSOR_STAGE: &str = "tensor";

impl DetectabilityTable {
    /// Builds the table for `circuit` under `faults` with the given
    /// options.
    ///
    /// # Errors
    ///
    /// [`DetectError::ZeroLatency`] for `latency == 0`;
    /// [`DetectError::TooManyRows`] if the deduplicated row count
    /// exceeds the cap.
    pub fn build(
        circuit: &FsmCircuit,
        faults: &[Fault],
        options: &DetectOptions,
    ) -> Result<(DetectabilityTable, DetectStats), DetectError> {
        let mut results = Self::build_many(circuit, faults, options, &[options.latency])?;
        Ok(results.pop().expect("one latency requested"))
    }

    /// Builds tables for several latency bounds in one pass, sharing the
    /// expensive per-fault table extraction (the dominant cost on large
    /// circuits). Results are identical to separate [`Self::build`]
    /// calls with `options.latency` replaced by each bound.
    ///
    /// # Errors
    ///
    /// As [`Self::build`]; the row cap applies to each bound's table
    /// independently.
    pub fn build_many(
        circuit: &FsmCircuit,
        faults: &[Fault],
        options: &DetectOptions,
        latencies: &[usize],
    ) -> Result<Vec<(DetectabilityTable, DetectStats)>, DetectError> {
        let budget = Budget::unlimited();
        Self::build_many_controlled(
            circuit,
            faults,
            options,
            latencies,
            BuildControl::new(&budget),
        )
    }

    /// [`Self::build_many`] under a [`Budget`], with optional resume
    /// from and periodic emission of [`BuildCheckpoint`]s.
    ///
    /// The budget is checked at every fault boundary and once per
    /// activation state; one tick is charged per 64-pattern evaluation
    /// batch and per error activation, and the row storage estimate is
    /// charged as bytes. An interrupt at a fault boundary returns
    /// [`DetectError::Interrupted`] carrying a resumable checkpoint;
    /// an interrupt mid-fault (only cancellation and deadline checks
    /// land there) carries none — resume from the last periodic one.
    ///
    /// # Errors
    ///
    /// As [`Self::build_many`], plus [`DetectError::Interrupted`] and
    /// [`DetectError::CheckpointMismatch`] (resume checkpoint built
    /// from different inputs).
    pub fn build_many_controlled(
        circuit: &FsmCircuit,
        faults: &[Fault],
        options: &DetectOptions,
        latencies: &[usize],
        mut control: BuildControl<'_>,
    ) -> Result<Vec<(DetectabilityTable, DetectStats)>, DetectError> {
        let n = circuit.total_bits();
        check_bounds(options, n, latencies)?;
        let good = TransitionTables::good(circuit);
        let context = fragment_context_hash(&good, options);
        let base = fingerprint_base_hash(context, faults);
        let fingerprint = build_fingerprint_from_base(base, latencies);
        let tensor_fps: Vec<u64> = latencies
            .iter()
            .map(|&p| tensor_fingerprint(base, p))
            .collect();
        let delta = control.delta.take();

        // Tensor stage: one lookup of each bound's whole-table
        // artifact. Each latency's (table, stats) pair is a pure
        // function of (good tables, faults, options-sans-latency, p),
        // so a prior build at any superset of bounds serves this
        // request. All requested bounds must hit — the enumeration
        // below computes every bound jointly in one pass over faults,
        // so a partial hit saves nothing. Delta-seeded builds never
        // serve the whole table: promotion is what publishes the edited
        // machine's fragments, and the fragment counters are the
        // observable evidence of reuse. Whatever is not served is the
        // reference a composed table must equal byte for byte.
        let mut references: Vec<Option<Vec<u8>>> = vec![None; latencies.len()];
        if let Some(store) = control.store {
            let mut cached = Vec::with_capacity(latencies.len());
            for ((&p, &fp), reference) in latencies.iter().zip(&tensor_fps).zip(&mut references) {
                let hit = store.get_typed(TENSOR_STAGE, fp, |bytes| {
                    let mut r = ByteReader::new(bytes);
                    let table = DetectabilityTable::read(&mut r)?;
                    let st = DetectStats::read(&mut r)?;
                    r.expect_end()?;
                    if table.latency != p || table.num_bits != n || table.reduced != options.reduce
                    {
                        return Err(CheckpointError::Corrupt(
                            "tensor artifact does not match the request".into(),
                        ));
                    }
                    Ok((bytes.to_vec(), (table, st)))
                });
                if let Some((bytes, pair)) = hit {
                    *reference = Some(bytes);
                    cached.push(pair);
                }
            }
            if delta.is_none() && cached.len() == latencies.len() {
                return Ok(cached);
            }
        }

        // Per-fault fragment machinery, engaged whenever a store can
        // serve or receive fragments: the context state every fragment
        // key folds onto, each fault's cone key, and the optional
        // cross-machine promotion seed.
        let frag = control.store.map(|_| FragContext {
            context,
            cone_keys: crate::cone::cone_keys(circuit.netlist(), faults, options.fault_model),
            delta,
        });
        // The extractor's setup pass runs only once some fault needs a
        // build: a fully fragment-served (warm) build pays nothing. A
        // rebuild after a composition mismatch reuses it.
        let extractor = OnceCell::new();

        match Self::enumerate_faults(
            circuit,
            faults,
            options,
            latencies,
            &good,
            &extractor,
            fingerprint,
            &tensor_fps,
            &mut references,
            frag.as_ref(),
            &mut control,
            true,
        )? {
            FragmentOutcome::Done(results) => Ok(results),
            FragmentOutcome::CompositionMismatch => {
                // A table composed from stored fragments disagreed with
                // its stored whole-table artifact: one side is corrupt
                // and there is no way to tell which, so both have been
                // dropped (corruption degrades to a miss). Rebuild
                // monolithically and re-publish.
                match Self::enumerate_faults(
                    circuit,
                    faults,
                    options,
                    latencies,
                    &good,
                    &extractor,
                    fingerprint,
                    &tensor_fps,
                    &mut references,
                    frag.as_ref(),
                    &mut control,
                    false,
                )? {
                    FragmentOutcome::Done(results) => Ok(results),
                    FragmentOutcome::CompositionMismatch => unreachable!(
                        "a build without fragment reads is authoritative over its references"
                    ),
                }
            }
        }
    }

    /// One enumeration pass over the fault list: probes stored
    /// per-fault fragments (when `read_fragments` and a store is
    /// attached), enumerates the rest, absorbs everything in fault
    /// order, and compares each composed table with its stored
    /// whole-table artifact (`references`, per bound). Returns
    /// [`FragmentOutcome::CompositionMismatch`] when a table composed
    /// from stored fragments disagrees with its reference; the caller
    /// retries without fragment reads once the implicated keys are
    /// dropped.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_faults<'g>(
        circuit: &'g FsmCircuit,
        faults: &[Fault],
        options: &DetectOptions,
        latencies: &[usize],
        good: &'g TransitionTables,
        extractor: &OnceCell<FaultTables<'g>>,
        fingerprint: u64,
        tensor_fps: &[u64],
        references: &mut [Option<Vec<u8>>],
        frag: Option<&FragContext>,
        control: &mut BuildControl<'_>,
        read_fragments: bool,
    ) -> Result<FragmentOutcome, DetectError> {
        let n = circuit.total_bits();
        let np = latencies.len();
        let activation_states = good.reachable_codes();
        let mut stats: Vec<DetectStats> = latencies
            .iter()
            .map(|_| DetectStats {
                faults: faults.len(),
                ..DetectStats::default()
            })
            .collect();
        let mut collectors: Vec<Collector> = latencies
            .iter()
            .map(|&p| Collector::new(p, options.reduce, options.max_rows))
            .collect();
        let mut start_fault = 0usize;
        if let Some(ckpt) = control.resume.take() {
            if ckpt.fingerprint != fingerprint
                || ckpt.latencies != latencies
                || ckpt.collectors.len() != latencies.len()
                || ckpt.stats.len() != latencies.len()
                || ckpt.next_fault > faults.len()
            {
                return Err(DetectError::CheckpointMismatch);
            }
            start_fault = ckpt.next_fault;
            stats = ckpt.stats;
            collectors = latencies
                .iter()
                .zip(&ckpt.collectors)
                .map(|(&p, st)| Collector::restore(p, options.reduce, options.max_rows, st))
                .collect();
        }
        let budget = control.budget;
        let snapshot =
            |next_fault: usize, collectors: &[Collector], stats: &[DetectStats]| BuildCheckpoint {
                fingerprint,
                next_fault,
                latencies: latencies.to_vec(),
                collectors: collectors.iter().map(Collector::snapshot).collect(),
                stats: stats.to_vec(),
            };

        // Fragment probe, before the fault loop: decide which faults
        // can be served (entirely or per-bound) from stored fragments.
        // Resolving this up front keeps the extraction prefetch
        // aligned — the pool window must contain exactly the faults
        // that will be enumerated, in order — and is what lets a
        // delta-seeded warm build skip extraction for clean cones.
        let mut fragments: Vec<Vec<Option<TensorFragment>>> =
            faults.iter().map(|_| Vec::new()).collect();
        let mut needs_build = vec![true; faults.len()];
        let mut absorbed_keys: Vec<u64> = Vec::new();
        if read_fragments {
            if let (Some(store), Some(fc)) = (control.store, frag) {
                for fi in start_fault..faults.len() {
                    let cone_key = fc.cone_keys[fi];
                    let mut hits: Vec<Option<TensorFragment>> = Vec::with_capacity(np);
                    for &p in latencies {
                        let key = fragment_fingerprint(fc.context, cone_key, p);
                        let mut hit = store.get_typed(TENSOR_FRAG_STAGE, key, |bytes| {
                            TensorFragment::from_bytes(bytes, p, options.reduce)
                        });
                        if hit.is_none() {
                            if let Some(seed) = &fc.delta {
                                hit =
                                    promote_fragment(store, seed, cone_key, p, options.reduce, key);
                            }
                        }
                        if hit.is_some() {
                            absorbed_keys.push(key);
                        }
                        hits.push(hit);
                    }
                    needs_build[fi] = hits.iter().any(Option::is_none);
                    fragments[fi] = hits;
                }
            }
        }

        // Parallel extraction prefetch: the per-fault transition-table
        // extraction is pure and dominates large builds, so the pool
        // extracts a bounded window of upcoming faults ahead of the
        // enumeration. The enumeration below must stay in fault order
        // — fragments absorb into the shared collectors at fault
        // boundaries and `rows_raw` observes that order — so it
        // consumes the prefetched tables strictly in order and every
        // output (tables, stats, checkpoints) is byte-identical to the
        // serial run. The window bounds memory to ~2·jobs tables.
        let pool = control.pool.filter(|p| p.jobs() > 1);
        let window = pool.map_or(1, |p| p.jobs() * 2);
        let mut prefetched: VecDeque<TransitionTables> = VecDeque::new();

        let mut scratch = WalkScratch::default();
        for (fi, &fault) in faults.iter().enumerate().skip(start_fault) {
            // Clean fault boundary: the collectors hold exactly the
            // rows of faults `0..fi`, so a checkpoint here resumes
            // bit-identically.
            if control.checkpoint_every > 0
                && fi > start_fault
                && fi % control.checkpoint_every == 0
            {
                if let Some(sink) = control.on_checkpoint.as_mut() {
                    sink(&snapshot(fi, &collectors, &stats));
                }
            }
            if let Err(mut interrupted) = budget.check("tensor:fault-boundary") {
                interrupted.resumable = true;
                return Err(DetectError::Interrupted {
                    interrupted,
                    checkpoint: Some(Box::new(snapshot(fi, &collectors, &stats))),
                });
            }
            let mut resolved = std::mem::take(&mut fragments[fi]);
            if resolved.is_empty() {
                resolved.resize_with(np, || None);
            }
            if needs_build[fi] {
                // Per-model extraction: inject every net the model
                // expands the seed to (the seed alone for all but a
                // multi-bit cluster; time variation lives in the
                // enumeration, not in the tables).
                let extractor = extractor.get_or_init(|| FaultTables::with_good(circuit, good));
                let extract = |f: Fault| {
                    extractor.faulty(
                        &options.fault_model.expand(f, circuit.netlist()),
                        Some(budget),
                    )
                };
                let extracted = match prefetched.pop_front() {
                    Some(t) => Ok(t),
                    None => match pool {
                        Some(p) => {
                            // The window skips fragment-served faults so
                            // the FIFO stays aligned with consumption.
                            let upcoming: Vec<Fault> = (fi..faults.len())
                                .filter(|&j| needs_build[j])
                                .take(window)
                                .map(|j| faults[j])
                                .collect();
                            p.try_map(&upcoming, |_, &f| extract(f)).map(|tables| {
                                prefetched = tables.into();
                                prefetched.pop_front().expect("nonempty window")
                            })
                        }
                        None => extract(fault),
                    },
                };
                let bad = match extracted {
                    Ok(t) => t,
                    Err(mut interrupted) => {
                        // Extraction mutates nothing shared: still a clean
                        // boundary at fault `fi` (none of the window's
                        // faults has been enumerated yet).
                        interrupted.resumable = true;
                        return Err(DetectError::Interrupted {
                            interrupted,
                            checkpoint: Some(Box::new(snapshot(fi, &collectors, &stats))),
                        });
                    }
                };
                // Walk the bounds no stored fragment served; the stored
                // artifact (if any) and the absorb source below are the
                // same fragment by construction.
                let bounds: Vec<Option<usize>> = resolved
                    .iter()
                    .zip(latencies)
                    .map(|(hit, &p)| hit.is_none().then_some(p))
                    .collect();
                let walked = walk_fault(
                    good,
                    &bad,
                    &activation_states,
                    options,
                    &bounds,
                    &mut scratch,
                    budget,
                )?;
                for (pi, fragment) in walked.into_iter().enumerate() {
                    let Some(fragment) = fragment else {
                        continue;
                    };
                    if let (Some(store), Some(fc)) = (control.store, frag) {
                        let key = fragment_fingerprint(fc.context, fc.cone_keys[fi], latencies[pi]);
                        store.put_artifact(TENSOR_FRAG_STAGE, key, &fragment.to_bytes());
                    }
                    resolved[pi] = Some(fragment);
                }
            }
            // Absorb in fault order — the identical path whether a
            // fragment was enumerated just now or served by the store,
            // so warm and cold builds walk byte-identical collector
            // states (the whole-table comparison below then proves it
            // against past monolithic runs).
            for (pi, fragment) in resolved.iter().enumerate() {
                let fragment = fragment.as_ref().expect("every bound resolved");
                stats[pi].activations += fragment.activations;
                if !fragment.testable {
                    stats[pi].untestable_faults += 1;
                }
                collectors[pi].absorb(&fragment.rows, fragment.emitted);
                if collectors[pi].overflowed() {
                    return Err(DetectError::TooManyRows {
                        limit: options.max_rows,
                    });
                }
            }
            // Row-storage estimate: kept sets × step words.
            let kept: usize = collectors
                .iter()
                .map(|c| c.sets.len() * c.latency.max(1) * std::mem::size_of::<u64>())
                .sum();
            if kept as u64 > budget.bytes() {
                budget.charge_bytes(kept as u64 - budget.bytes());
            }
        }

        let results: Vec<(DetectabilityTable, DetectStats)> = latencies
            .iter()
            .zip(collectors.into_iter().zip(stats))
            .map(|(&p, (collector, mut st))| {
                st.rows_raw = collector.emitted();
                let rows = collector.finish();
                st.rows = rows.len();
                (
                    DetectabilityTable {
                        num_bits: n,
                        latency: p,
                        reduced: options.reduce,
                        rows,
                    },
                    st,
                )
            })
            .collect();
        if let Some(store) = control.store {
            // Composition check and publication, two-phase: compare
            // every bound with its reference before publishing anything
            // — a mismatching pass must not publish tables derived from
            // fragments it is about to declare corrupt.
            let mut publish: Vec<(u64, Vec<u8>)> = Vec::with_capacity(np);
            let mut mismatch = false;
            for (((table, st), &fp), reference) in
                results.iter().zip(tensor_fps).zip(references.iter_mut())
            {
                let mut w = ByteWriter::new();
                table.write(&mut w);
                st.write(&mut w);
                let bytes = w.finish();
                if reference.as_ref() == Some(&bytes) {
                    continue;
                }
                if reference.take().is_some() {
                    // The table disagrees with the stored artifact:
                    // drop the artifact (and below, on a pass that read
                    // fragments, the fragments it was composed from).
                    store.note_corrupt(TENSOR_STAGE, fp);
                    mismatch = true;
                }
                publish.push((fp, bytes));
            }
            if mismatch && read_fragments {
                for &key in &absorbed_keys {
                    store.note_corrupt(TENSOR_FRAG_STAGE, key);
                }
                return Ok(FragmentOutcome::CompositionMismatch);
            }
            // Reached with no mismatch, or on a pass that read no
            // fragments. Such a pass enumerated every fault itself from
            // fault 0 (the first pass consumed any resume checkpoint),
            // so it is authoritative: its tables replace any dropped
            // reference.
            for (fp, bytes) in publish {
                store.put_artifact(TENSOR_STAGE, fp, &bytes);
            }
        }
        Ok(FragmentOutcome::Done(results))
    }

    /// Builds a table directly from rows (tests, ablations, custom error
    /// models prescribed as in §1 of the paper: "providing the
    /// error-free response and all erroneous responses … for every
    /// transition").
    ///
    /// # Panics
    ///
    /// Panics if any row's step count differs from `latency` or uses
    /// bits above `num_bits`.
    pub fn from_rows(num_bits: usize, latency: usize, rows: Vec<EcRow>) -> DetectabilityTable {
        assert!(num_bits <= 64, "at most 64 monitored bits");
        let mask = if num_bits == 64 {
            u64::MAX
        } else {
            (1u64 << num_bits) - 1
        };
        for row in &rows {
            assert_eq!(row.steps.len(), latency, "row latency mismatch");
            for &d in &row.steps {
                assert_eq!(d & !mask, 0, "row uses bits above {num_bits}");
            }
        }
        DetectabilityTable {
            num_bits,
            latency,
            reduced: false,
            rows,
        }
    }

    /// Serializes the table for checkpointing. The round trip through
    /// [`Self::from_bytes`] is bit-exact: rows, order, latency and the
    /// reduction flag all survive.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.write(&mut w);
        w.finish()
    }

    /// Serializes into an existing writer (for embedding in larger
    /// checkpoints).
    pub fn write(&self, w: &mut ByteWriter) {
        w.usize(self.num_bits);
        w.usize(self.latency);
        w.bool(self.reduced);
        w.usize(self.rows.len());
        for row in &self.rows {
            w.u64_slice(&row.steps);
        }
    }

    /// Deserializes a table serialized by [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`]
    /// on malformed payloads; no panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<DetectabilityTable, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let table = Self::read(&mut r)?;
        r.expect_end()?;
        Ok(table)
    }

    /// Deserializes from an existing reader.
    pub fn read(r: &mut ByteReader<'_>) -> Result<DetectabilityTable, CheckpointError> {
        let num_bits = r.usize()?;
        if num_bits > 64 {
            return Err(CheckpointError::Corrupt(
                "more than 64 monitored bits".into(),
            ));
        }
        let latency = r.usize()?;
        let reduced = r.bool()?;
        let n_rows = r.usize()?;
        let mut rows = Vec::new();
        for _ in 0..n_rows {
            let steps = r.u64_slice()?;
            if steps.len() != latency {
                return Err(CheckpointError::Corrupt("row latency mismatch".into()));
            }
            rows.push(EcRow { steps });
        }
        Ok(DetectabilityTable {
            num_bits,
            latency,
            reduced,
            rows,
        })
    }

    /// Number of monitored bits `n` (next-state + output).
    pub fn num_bits(&self) -> usize {
        self.num_bits
    }

    /// The latency bound `p` this table was enumerated for.
    pub fn latency(&self) -> usize {
        self.latency
    }

    /// The deduplicated erroneous cases.
    pub fn rows(&self) -> &[EcRow] {
        &self.rows
    }

    /// Number of erroneous cases (`m`).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff there are no erroneous cases (nothing to detect).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True when the rows are dominance-reduced minimal step-sets (see
    /// [`DetectOptions::reduce`]); the paper's literal Fig. 2 table is
    /// the unreduced form.
    pub fn is_reduced(&self) -> bool {
        self.reduced
    }

    /// The same table with rows ordered hardest-first (fewest detection
    /// opportunities, i.e. smallest total set-bit count across steps).
    /// Coverage semantics are order-independent; the ordering makes
    /// failed cover candidates fail fast in [`Self::first_uncovered`],
    /// which dominates the randomized-rounding inner loop on large
    /// tables.
    pub fn sorted_by_difficulty(&self) -> DetectabilityTable {
        let mut rows = self.rows.clone();
        rows.sort_by_key(|r| {
            (
                r.steps.iter().map(|d| d.count_ones()).sum::<u32>(),
                r.steps.clone(),
            )
        });
        DetectabilityTable {
            num_bits: self.num_bits,
            latency: self.latency,
            reduced: self.reduced,
            rows,
        }
    }

    /// `V(i, j, k)` accessor (row, bit, latency step; all 0-based).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn entry(&self, row: usize, bit: usize, step: usize) -> bool {
        assert!(bit < self.num_bits && step < self.latency);
        (self.rows[row].steps[step] >> bit) & 1 == 1
    }

    /// The row indices NOT detected by any of the given parity masks.
    pub fn uncovered_rows(&self, masks: &[u64]) -> Vec<usize> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| !masks.iter().any(|&m| r.detected_by(m)))
            .map(|(i, _)| i)
            .collect()
    }

    /// True iff every erroneous case is detected by some mask — the
    /// feasibility condition of the paper's Statement 2.
    pub fn all_covered(&self, masks: &[u64]) -> bool {
        self.first_uncovered(masks).is_none()
    }

    /// The index of the first row no mask detects, or `None` when fully
    /// covered. Early-exits, so failed candidate covers are cheap to
    /// reject.
    pub fn first_uncovered(&self, masks: &[u64]) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| !masks.iter().any(|&m| r.detected_by(m)))
    }

    /// The same table truncated to a smaller latency bound, rows
    /// re-deduplicated. Truncating a length-`p` enumeration reproduces
    /// the length-`p'` enumeration exactly (paths and loop cuts are
    /// prefix-stable), so one expensive build at `p_max` serves every
    /// smaller bound.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is 0 or exceeds the table's latency.
    pub fn truncated(&self, latency: usize) -> DetectabilityTable {
        assert!(
            !self.reduced,
            "truncation requires an unreduced table: reduced rows lose \
             temporal step order, and dominance depends on the bound"
        );
        assert!(latency >= 1 && latency <= self.latency, "bad truncation");
        if latency == self.latency {
            return self.clone();
        }
        let mut set: HashSet<Vec<u64>> = HashSet::with_capacity(self.rows.len());
        for row in &self.rows {
            set.insert(row.steps[..latency].to_vec());
        }
        let mut rows: Vec<EcRow> = set.into_iter().map(|steps| EcRow { steps }).collect();
        rows.sort_by(|a, b| a.steps.cmp(&b.steps));
        DetectabilityTable {
            num_bits: self.num_bits,
            latency,
            reduced: false,
            rows,
        }
    }

    /// Merges two tables over the same interface and latency bound —
    /// e.g. a stuck-at table with a register-upset table
    /// ([`crate::models`]) to cover a combined fault model. Rows are
    /// deduplicated; if either side is dominance-reduced the result is
    /// re-reduced.
    ///
    /// # Panics
    ///
    /// Panics if the bit counts or latency bounds differ.
    pub fn merged(&self, other: &DetectabilityTable) -> DetectabilityTable {
        assert_eq!(self.num_bits, other.num_bits, "bit count mismatch");
        assert_eq!(self.latency, other.latency, "latency mismatch");
        let mut rows: Vec<EcRow> = self.rows.clone();
        rows.extend(other.rows.iter().cloned());
        rows.sort_by(|a, b| a.steps.cmp(&b.steps));
        rows.dedup();
        let merged = DetectabilityTable {
            num_bits: self.num_bits,
            latency: self.latency,
            reduced: false,
            rows,
        };
        if self.reduced || other.reduced {
            merged.dominance_reduced()
        } else {
            merged
        }
    }

    /// The dominance-reduced table the optimizer actually needs.
    ///
    /// Coverage of a row only depends on the *set* of nonzero step
    /// masks (a parity tree detects it iff it overlaps some step
    /// oddly), and a row whose step-set is a superset of another row's
    /// is implied by it: any cover of the subset row covers the
    /// superset row too. This keeps, per distinct minimal step-set, one
    /// canonical row (steps sorted, zero-padded) — typically orders of
    /// magnitude smaller than the raw table, with an identical set of
    /// feasible parity covers.
    pub fn dominance_reduced(&self) -> DetectabilityTable {
        // Canonical step-sets (sorted, distinct, nonzero), then the
        // shared supersets-removal pass.
        let mut matrix = CoverageMatrix::new();
        for row in &self.rows {
            let s = CoverageMatrix::canonical(&row.steps);
            if !s.is_empty() {
                matrix.insert_raw(s);
            }
        }
        matrix.remove_supersets();
        let mut kept_rows: Vec<EcRow> = matrix
            .into_sorted_sets()
            .into_iter()
            .map(|mut steps| {
                steps.resize(self.latency, 0);
                EcRow { steps }
            })
            .collect();
        kept_rows.sort_by(|a, b| a.steps.cmp(&b.steps));
        DetectabilityTable {
            num_bits: self.num_bits,
            latency: self.latency,
            reduced: true,
            rows: kept_rows,
        }
    }

    /// Renders the table in the style of the paper's Fig. 2 (rows =
    /// erroneous cases, super-columns = latency steps, columns = bits).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:>6} |", "EC");
        for k in 0..self.latency {
            let _ = write!(
                out,
                " latency {:<width$} |",
                k + 1,
                width = self.num_bits.saturating_sub(8).max(1)
            );
        }
        out.push('\n');
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(out, "{:>6} |", i + 1);
            for &d in &row.steps {
                out.push(' ');
                for b in (0..self.num_bits).rev() {
                    out.push(if (d >> b) & 1 == 1 { '1' } else { '.' });
                }
                out.push_str(" |");
            }
            out.push('\n');
        }
        out
    }
}

/// Version marker folded into every tensor-layer fingerprint. The
/// per-fault-cone split changed `rows_raw` semantics (counted per fault
/// instead of after cross-fault pruning), so pre-split artifacts and
/// checkpoints must miss rather than replay under the new counters —
/// bumping the marker is the PR6 invalidation convention.
const TENSOR_FORMAT_VERSION: &str = "tensor-frag-v1";

/// Everything a single fault's fragment depends on *except* the fault
/// itself and the latency bound: the good machine's full transition
/// tables and every enumeration option. This is the shared half of
/// both the fragment keys (fault cone + bound appended) and the
/// whole-table keys (fault list + bound appended).
fn write_fragment_context(w: &mut ByteWriter, good: &TransitionTables, options: &DetectOptions) {
    w.str(TENSOR_FORMAT_VERSION);
    w.usize(good.num_inputs());
    w.usize(good.state_bits());
    w.usize(good.num_outputs());
    w.u64(good.reset_code());
    for code in 0..(1u64 << good.state_bits()) {
        for input in 0..(1u64 << good.num_inputs()) {
            w.u64(good.response(code, input));
            w.u64(good.next(code, input));
        }
    }
    w.usize(options.max_rows);
    w.bool(options.reduce);
    w.u8(match options.semantics {
        Semantics::Lockstep => 0,
        Semantics::FaultyTrajectory => 1,
    });
    match &options.input_model {
        InputModel::Exhaustive => w.u8(0),
        InputModel::Restricted { by_state, fallback } => {
            w.u8(1);
            w.usize(by_state.len());
            for v in by_state {
                w.u64_slice(v);
            }
            w.u64_slice(fallback);
        }
    }
    // Fault-model key hygiene: non-permanent models get their own
    // store keys and checkpoint fingerprints. The permanent default
    // appends nothing so permanent and default-model artifacts share
    // keys and the permanent byte-identity guarantee holds.
    if options.fault_model != FaultModel::PermanentStuckAt {
        w.str("fault-model");
        options.fault_model.write(w);
    }
}

/// FNV-1a state of the canonical context bytes: the machine/options
/// half of every tensor-layer key. The context is hashed once per
/// build and every key folds its suffix onto this state
/// ([`fnv1a64_extend`]), which yields the hash of the concatenated
/// preimage. `core::pipeline`'s machine-diff front-end computes this
/// for the *baseline* machine to name the fragments an edited machine
/// may promote ([`DeltaSeed::old_context`]).
pub fn fragment_context_hash(good: &TransitionTables, options: &DetectOptions) -> u64 {
    let mut w = ByteWriter::new();
    write_fragment_context(&mut w, good, options);
    fnv1a64(&w.finish())
}

/// FNV-1a state of everything a whole-table build depends on *except*
/// the latency bounds: the fragment context (as its state `context`)
/// plus the fault list. Checkpoint fingerprints append the full latency
/// list ([`build_fingerprint_from_base`]); store keys append a single
/// bound ([`tensor_fingerprint`]) so a p-sweep's artifacts serve any
/// later subset of its bounds.
fn fingerprint_base_hash(context: u64, faults: &[Fault]) -> u64 {
    let mut w = ByteWriter::new();
    w.usize(faults.len());
    for f in faults {
        w.usize(f.net.index());
        w.bool(f.stuck_at);
    }
    fnv1a64_extend(context, &w.finish())
}

/// FNV fingerprint binding a [`BuildCheckpoint`] to its inputs.
/// Anything that could make a resumed build diverge from the original
/// run is folded in.
fn build_fingerprint_from_base(base: u64, latencies: &[usize]) -> u64 {
    let mut h = fnv1a64_extend(base, &(latencies.len() as u64).to_le_bytes());
    for &p in latencies {
        h = fnv1a64_extend(h, &(p as u64).to_le_bytes());
    }
    h
}

/// Store key for one latency bound's `(table, stats)` artifact.
fn tensor_fingerprint(base: u64, latency: usize) -> u64 {
    let h = fnv1a64_extend(base, b"tensor-latency");
    fnv1a64_extend(h, &(latency as u64).to_le_bytes())
}

/// Store key for one fault cone's fragment at one latency bound.
fn fragment_fingerprint(context: u64, cone_key: u64, latency: usize) -> u64 {
    let h = fnv1a64_extend(context, b"tensor-frag");
    let h = fnv1a64_extend(h, &cone_key.to_le_bytes());
    fnv1a64_extend(h, &(latency as u64).to_le_bytes())
}

/// Per-(fault cone, latency bound) store context carried through one
/// [`DetectabilityTable::build_many_controlled`] call.
struct FragContext {
    /// [`fragment_context_hash`] of the machine under analysis.
    context: u64,
    /// [`crate::cone::cone_keys`] of the fault list, in fault order.
    cone_keys: Vec<u64>,
    /// Present when this build was seeded by a machine diff: enables
    /// promoting the baseline's fragments across the context change.
    delta: Option<DeltaSeed>,
}

/// Outcome of one enumeration pass over the fault list.
enum FragmentOutcome {
    /// The per-bound `(table, stats)` pairs, in latency order.
    Done(Vec<(DetectabilityTable, DetectStats)>),
    /// A table composed from stored fragments disagreed with the stored
    /// whole-table artifact. Both sides have been dropped; the caller
    /// must re-run without fragment reads.
    CompositionMismatch,
}

/// Good-state codes whose transitions a fault's enumeration actually
/// compared across the two machines. Lockstep enumeration reads good
/// rows at *both* trajectories' states once they diverge; the cone key
/// pins only the faulted machine's structure, so cross-machine fragment
/// promotion must additionally check that the machines' good tables
/// agree at every recorded code ([`promote_fragment`]).
struct CodeFootprint {
    codes: HashSet<u64>,
    overflow: bool,
}

/// Footprints beyond this many distinct codes stop recording and mark
/// themselves overflowed — the fragment then refuses cross-context
/// promotion (correctness is unaffected; it just rebuilds).
const FOOTPRINT_CAP: usize = 4096;

impl CodeFootprint {
    fn new() -> CodeFootprint {
        CodeFootprint {
            codes: HashSet::new(),
            overflow: false,
        }
    }

    /// Records a divergent state pair. Non-divergent pairs contribute
    /// nothing to promotion validity: when `g == f` the step mask is
    /// `good(g) ^ bad(f)`, and the delta seed already requires the two
    /// machines' next maps (hence `bad`) and the cone (hence the
    /// faulted responses) to agree.
    #[inline]
    fn record(&mut self, g: u64, f: u64) {
        if g == f || self.overflow {
            return;
        }
        self.codes.insert(g);
        self.codes.insert(f);
        if self.codes.len() > FOOTPRINT_CAP {
            self.codes.clear();
            self.overflow = true;
        }
    }

    fn into_sorted(self) -> (Vec<u64>, bool) {
        let mut codes: Vec<u64> = self.codes.into_iter().collect();
        codes.sort_unstable();
        (codes, self.overflow)
    }
}

/// True iff two strictly ascending slices share no element.
fn disjoint_sorted(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// One fault's contribution to one latency bound's table: its canonical
/// rows, activation counters and the good-state footprint. Stored under
/// [`fragment_fingerprint`]; absorbing a stored fragment walks the
/// collectors through byte-identical states to re-enumerating it.
struct TensorFragment {
    /// False iff no reachable (state, input) produced a nonzero `D₁`.
    testable: bool,
    /// Activations counted for this fault at this bound.
    activations: usize,
    /// Rows the enumeration emitted (pre-dedup), for `rows_raw`.
    emitted: usize,
    /// Canonical rows: sorted minimal step-sets (reduce) or sorted raw
    /// step rows (!reduce) — [`Collector::into_fragment_rows`] output.
    rows: Vec<Vec<u64>>,
    /// Sorted good-state codes at divergent lockstep pairs; empty for
    /// [`Semantics::FaultyTrajectory`] (its enumeration reads the good
    /// tables only at states the cone key and delta seed already pin).
    footprint: Vec<u64>,
    /// True when the footprint overflowed [`FOOTPRINT_CAP`] and was
    /// discarded; such fragments never promote across contexts.
    footprint_overflow: bool,
}

impl TensorFragment {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bool(self.testable);
        w.usize(self.activations);
        w.usize(self.emitted);
        w.u64_slice(&self.footprint);
        w.bool(self.footprint_overflow);
        w.usize(self.rows.len());
        for row in &self.rows {
            w.u64_slice(row);
        }
        w.finish()
    }

    /// Decodes and *validates* a stored fragment: malformed bytes must
    /// degrade to a store miss, never into a corrupted table.
    fn from_bytes(
        bytes: &[u8],
        latency: usize,
        reduce: bool,
    ) -> Result<TensorFragment, CheckpointError> {
        let corrupt = |msg: &str| CheckpointError::Corrupt(msg.to_string());
        let mut rd = ByteReader::new(bytes);
        let testable = rd.bool()?;
        let activations = rd.usize()?;
        let emitted = rd.usize()?;
        let footprint = rd.u64_slice()?;
        if !footprint.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("fragment footprint not strictly ascending"));
        }
        let footprint_overflow = rd.bool()?;
        let n_rows = rd.usize()?;
        if n_rows > emitted {
            return Err(corrupt("fragment keeps more rows than it emitted"));
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let row = rd.u64_slice()?;
            if reduce {
                // Canonical minimal step-sets: nonempty, strictly
                // ascending nonzero masks, at most `latency` of them.
                if row.is_empty() || row.len() > latency {
                    return Err(corrupt("fragment step-set length out of range"));
                }
                if row[0] == 0 || !row.windows(2).all(|w| w[0] < w[1]) {
                    return Err(corrupt("fragment step-set not canonical"));
                }
            } else if row.len() != latency {
                return Err(corrupt("fragment raw row length != latency"));
            }
            rows.push(row);
        }
        if !rows.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("fragment rows not strictly sorted"));
        }
        rd.expect_end()?;
        Ok(TensorFragment {
            testable,
            activations,
            emitted,
            rows,
            footprint,
            footprint_overflow,
        })
    }
}

/// Attempts to serve a fragment from the *baseline* machine's store
/// entries when a delta-seeded build misses under its own context.
///
/// Valid iff the old fragment's good-state footprint avoids every code
/// the edit changed: the cone key already pins the faulted structure,
/// the delta seed pins next maps / reset / dims / input model, so the
/// only way the old rows could differ from a fresh enumeration is a
/// changed good response at a recorded divergent state. A promoted
/// fragment is re-put under the new context's key so subsequent builds
/// hit directly.
fn promote_fragment(
    store: &Store,
    seed: &DeltaSeed,
    cone_key: u64,
    latency: usize,
    reduce: bool,
    new_key: u64,
) -> Option<TensorFragment> {
    let old_key = fragment_fingerprint(seed.old_context, cone_key, latency);
    let frag = store.get_typed(TENSOR_FRAG_STAGE, old_key, |bytes| {
        TensorFragment::from_bytes(bytes, latency, reduce)
    })?;
    if frag.footprint_overflow || !disjoint_sorted(&frag.footprint, &seed.changed_codes) {
        return None;
    }
    store.put_artifact(TENSOR_FRAG_STAGE, new_key, &frag.to_bytes());
    Some(frag)
}

/// Rejects a zero latency bound and any bound whose tensor volume
/// `i·j·k` (`max_rows · n · p` words) overflows `usize`: a pathological
/// bound (or row cap) must fail as a typed error, not abort inside an
/// allocator call partway through the enumeration (each row alone is
/// `p` words).
fn check_bounds(options: &DetectOptions, n: usize, latencies: &[usize]) -> Result<(), DetectError> {
    if latencies.contains(&0) {
        return Err(DetectError::ZeroLatency);
    }
    for &p in latencies {
        options
            .max_rows
            .max(1)
            .checked_mul(n.max(1))
            .and_then(|v| v.checked_mul(p))
            .and_then(|v| v.checked_mul(std::mem::size_of::<u64>()))
            .ok_or(DetectError::TensorTooLarge {
                rows: options.max_rows,
                bits: n,
                latency: p,
            })?;
    }
    Ok(())
}

/// One fault's erroneous cases at `options.latency`, enumerated on
/// faulty tables the caller already holds: the table
/// [`DetectabilityTable::build_many_controlled`] builds for the single
/// fault (same rows, same walk), without its store, good-table
/// extraction, reachability pass or fingerprints. `bad` must be the
/// tables of `options.fault_model` expanded at the fault
/// ([`FaultModel::expand`]), `activation_states` the good machine's
/// reachable codes ([`TransitionTables::reachable_codes`]). Returns
/// `None` when the fault is untestable (no reachable state and input
/// activates an error).
///
/// # Errors
///
/// [`DetectError::ZeroLatency`], [`DetectError::TensorTooLarge`] and
/// [`DetectError::TooManyRows`], as the single-fault build.
pub fn fault_cases(
    good: &TransitionTables,
    bad: &TransitionTables,
    activation_states: &[u64],
    options: &DetectOptions,
) -> Result<Option<DetectabilityTable>, DetectError> {
    let n = good.state_bits() + good.num_outputs();
    let p = options.latency;
    check_bounds(options, n, &[p])?;
    let fragment = walk_fault(
        good,
        bad,
        activation_states,
        options,
        &[Some(p)],
        &mut WalkScratch::default(),
        &Budget::unlimited(),
    )?
    .pop()
    .flatten()
    .expect("one bound walked");
    if !fragment.testable {
        return Ok(None);
    }
    // The builder's absorb-and-finish, so the rows are its rows.
    let mut collector = Collector::new(p, options.reduce, options.max_rows);
    collector.absorb(&fragment.rows, fragment.emitted);
    if collector.overflowed() {
        return Err(DetectError::TooManyRows {
            limit: options.max_rows,
        });
    }
    Ok(Some(DetectabilityTable {
        num_bits: n,
        latency: p,
        reduced: options.reduce,
        rows: collector.finish(),
    }))
}

/// Scratch [`walk_fault`] reuses across the faults of one build: the
/// input buffer and the per-bound seen-start sets.
#[derive(Default)]
struct WalkScratch {
    inputs: Vec<u64>,
    seen_starts: Vec<HashSet<(u64, u64, u64, u64)>>,
}

/// The per-fault walk: every activation of `bad` (a reachable code `c`
/// of `activation_states` and an input `a₁` with `D₁ ≠ 0`), enumerated
/// by [`PairWalk`] into a fresh collector per bound, packaged as one
/// [`TensorFragment`] per `Some(p)` of `bounds` (`None` slots, bounds
/// a stored fragment already served, stay `None`). Each fault is pruned
/// against its own rows only, so a fragment is independent of store
/// warmth and of every other fault.
///
/// The budget is checked once per activation state, and only
/// cancellation and deadlines interrupt there (the collectors hold
/// partial rows, so nothing resumable can be captured; quantity caps
/// wait for the caller's next fault boundary); one tick is charged per
/// activation.
fn walk_fault(
    good: &TransitionTables,
    bad: &TransitionTables,
    activation_states: &[u64],
    options: &DetectOptions,
    bounds: &[Option<usize>],
    scratch: &mut WalkScratch,
    budget: &Budget,
) -> Result<Vec<Option<TensorFragment>>, DetectError> {
    let r = good.num_inputs();
    let mut local: Vec<Option<(Collector, CodeFootprint)>> = bounds
        .iter()
        .map(|bound| {
            bound.map(|p| {
                (
                    Collector::new(p, options.reduce, options.max_rows),
                    CodeFootprint::new(),
                )
            })
        })
        .collect();
    let walk = PairWalk {
        good,
        bad,
        model: options.fault_model,
        input_model: &options.input_model,
        semantics: options.semantics,
        r,
    };
    let mut testable = false;
    let mut activations = 0usize;
    // Activations with identical (D₁, start, successor) enumerate
    // identical subtrees (the start matters for the loop rule) — dedupe
    // them per bound.
    scratch.seen_starts.resize_with(bounds.len(), HashSet::new);
    for set in &mut scratch.seen_starts {
        set.clear();
    }
    for &c in activation_states {
        if let Err(interrupted) = budget.check("tensor:enumerate") {
            if matches!(
                interrupted.kind,
                InterruptKind::Cancelled | InterruptKind::DeadlineExceeded
            ) {
                return Err(DetectError::Interrupted {
                    interrupted,
                    checkpoint: None,
                });
            }
        }
        options.input_model.inputs_at(c, r, &mut scratch.inputs);
        for &a1 in &scratch.inputs {
            let d1 = good.response(c, a1) ^ bad.response(c, a1);
            if d1 == 0 {
                continue;
            }
            testable = true;
            activations += 1;
            budget.charge(1);
            // Step 1 is active under every model.
            let pair1 = walk.successor(c, a1, bad.next(c, a1));
            for (slot, seen) in local.iter_mut().zip(&mut scratch.seen_starts) {
                let Some((collector, footprint)) = slot.as_mut() else {
                    continue;
                };
                if !seen.insert((d1, c, pair1.0, pair1.1)) {
                    continue;
                }
                walk.enumerate(collector.latency, c, d1, pair1, collector, footprint);
                if collector.overflowed() {
                    return Err(DetectError::TooManyRows {
                        limit: options.max_rows,
                    });
                }
            }
        }
    }
    Ok(local
        .into_iter()
        .map(|slot| {
            slot.map(|(collector, footprint)| {
                let emitted = collector.emitted();
                let (codes, overflow) = footprint.into_sorted();
                TensorFragment {
                    testable,
                    activations,
                    emitted,
                    rows: collector.into_fragment_rows(),
                    footprint: codes,
                    footprint_overflow: overflow,
                }
            })
        })
        .collect())
}

/// Depth-first enumeration of one fault's erroneous-case suffixes on
/// (good, faulty) state pairs, under any fault model and either
/// [`Semantics`].
///
/// At each 1-indexed step the faulty machine follows the faulty tables
/// iff the model is active there and the fault-free tables otherwise;
/// the step's difference compares the good response at the good state
/// with that faulty response. The semantics differ only in the good
/// state's successor ([`PairWalk::successor`]): under
/// [`Semantics::Lockstep`] it follows its own trajectory, so divergence
/// survives deassertion until the trajectories reconverge; under
/// [`Semantics::FaultyTrajectory`] it is pinned to the faulty state, so
/// `g == f` at every node and the difference dies with the fault.
///
/// Rows (length `p`, zero-padded after loop cuts) are pushed into the
/// collector; input symbols with identical (diff, successor) effects at
/// a node are collapsed, and branches whose prefix is already dominated
/// are pruned. Loop cuts require the *fault-automaton phase* to repeat
/// along with the pair — a pair revisited at a different phase has a
/// different future. Time-invariant models have phase 0 at every step,
/// so for them the cut is the paper's plain state loop.
struct PairWalk<'a> {
    good: &'a TransitionTables,
    bad: &'a TransitionTables,
    model: FaultModel,
    input_model: &'a InputModel,
    semantics: Semantics,
    r: usize,
}

impl PairWalk<'_> {
    /// The pair after input `input` from good state `g`, given the
    /// faulty machine's next state `fnext`.
    #[inline]
    fn successor(&self, g: u64, input: u64, fnext: u64) -> (u64, u64) {
        match self.semantics {
            Semantics::Lockstep => (self.good.next(g, input), fnext),
            Semantics::FaultyTrajectory => (fnext, fnext),
        }
    }

    /// Enumerates the rows of bound `p` below one activation: step 1
    /// left pair `(c, c)` with difference `d1` for `pair1`.
    fn enumerate(
        &self,
        p: usize,
        c: u64,
        d1: u64,
        pair1: (u64, u64),
        out: &mut Collector,
        footprint: &mut CodeFootprint,
    ) {
        if out.prefix_dominated(&[d1]) {
            return;
        }
        let model = self.model;
        // The start-pair loop cut only applies when the phase recurs too.
        if p == 1 || (pair1 == (c, c) && model.phase_at(1) == model.phase_at(2)) {
            let mut row = vec![0u64; p];
            row[0] = d1;
            out.insert(&row);
            return;
        }
        let mut prefix = vec![0u64; p];
        prefix[0] = d1;
        let mut visited = vec![((c, c), model.phase_at(1)), (pair1, model.phase_at(2))];
        self.extend(p, 1, pair1, &mut prefix, &mut visited, out, footprint);
    }

    #[allow(clippy::too_many_arguments)]
    fn extend(
        &self,
        p: usize,
        depth: usize,
        pair: (u64, u64),
        prefix: &mut Vec<u64>,
        visited: &mut Vec<((u64, u64), u64)>,
        out: &mut Collector,
        footprint: &mut CodeFootprint,
    ) {
        let (good, bad, model) = (self.good, self.bad, self.model);
        let (g, f) = pair;
        // Divergent pairs read the good tables at two distinct codes; the
        // footprint records both for cross-machine fragment promotion,
        // whether or not the fault is active at this step (an inactive
        // step reads the good tables at `f` directly).
        footprint.record(g, f);
        // `depth` slots of `prefix` are filled; this call produces step
        // `depth + 1` (1-indexed).
        let step = depth + 1;
        if g == f && model.dead_after(step) {
            // Converged trajectories with the fault dead forever evolve
            // identically: the remaining differences are all zero, so
            // the row is exactly the prefix (its tail is zero-filled).
            let row = prefix.clone();
            out.insert(&row);
            return;
        }
        let active = model.active_at(step);
        let next_phase = model.phase_at(step + 1);
        let mut seen_effects: HashSet<(u64, (u64, u64))> = HashSet::new();
        // Inputs explored from the good state's vantage: the STG
        // structure of the fault-free machine defines "transitions"
        // (under FaultyTrajectory it is the state the machine is
        // actually in).
        let mut inputs = Vec::new();
        self.input_model.inputs_at(g, self.r, &mut inputs);
        for input in inputs {
            let (fresp, fnext) = if active {
                (bad.response(f, input), bad.next(f, input))
            } else {
                (good.response(f, input), good.next(f, input))
            };
            let d = good.response(g, input) ^ fresp;
            let nx = self.successor(g, input, fnext);
            if !seen_effects.insert((d, nx)) {
                continue;
            }
            prefix[depth] = d;
            if out.prefix_dominated(&prefix[..=depth]) {
                prefix[depth] = 0;
                continue;
            }
            if depth + 1 == p || visited.contains(&(nx, next_phase)) {
                let mut row = prefix.clone();
                for slot in row.iter_mut().skip(depth + 1) {
                    *slot = 0;
                }
                out.insert(&row);
            } else {
                visited.push((nx, next_phase));
                self.extend(p, depth + 1, nx, prefix, visited, out, footprint);
                visited.pop();
            }
            prefix[depth] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::collapsed_faults;
    use ced_fsm::encoded::EncodedFsm;
    use ced_fsm::encoding::{assign, EncodingStrategy};
    use ced_fsm::suite;
    use ced_logic::MinimizeOptions;

    fn circuit() -> FsmCircuit {
        let fsm = suite::sequence_detector();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    fn build(p: usize) -> (DetectabilityTable, DetectStats) {
        build_opt(p, true)
    }

    /// Unreduced build — the literal Fig. 2 table.
    fn build_raw(p: usize) -> (DetectabilityTable, DetectStats) {
        build_opt(p, false)
    }

    fn build_opt(p: usize, reduce: bool) -> (DetectabilityTable, DetectStats) {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: p,
                reduce,
                ..DetectOptions::default()
            },
        )
        .unwrap()
    }

    fn build_model(p: usize, semantics: Semantics, model: FaultModel) -> DetectabilityTable {
        build_model_opt(p, semantics, model, true)
    }

    fn build_model_opt(
        p: usize,
        semantics: Semantics,
        model: FaultModel,
        reduce: bool,
    ) -> DetectabilityTable {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: p,
                semantics,
                reduce,
                fault_model: model,
                ..DetectOptions::default()
            },
        )
        .unwrap()
        .0
    }

    /// `fnv1a64` of the table bytes followed by the stats bytes.
    fn golden_digest(c: &FsmCircuit, p: usize, semantics: Semantics, model: FaultModel) -> u64 {
        let faults = collapsed_faults(c.netlist());
        let (table, stats) = DetectabilityTable::build(
            c,
            &faults,
            &DetectOptions {
                latency: p,
                semantics,
                fault_model: model,
                ..DetectOptions::default()
            },
        )
        .unwrap();
        let mut bytes = table.to_bytes();
        let mut w = ByteWriter::new();
        stats.write(&mut w);
        bytes.extend_from_slice(&w.finish());
        fnv1a64(&bytes)
    }

    /// Scaled `dk512`, natural encoding: the larger golden-pin machine.
    fn dk512() -> FsmCircuit {
        let fsm = suite::paper_table1_scaled()
            .into_iter()
            .find(|s| s.name == "dk512")
            .unwrap()
            .build();
        let enc = assign(&fsm, EncodingStrategy::Natural);
        EncodedFsm::new(fsm, enc)
            .unwrap()
            .synthesize(&MinimizeOptions::default())
    }

    /// [`golden_digest`] over the fixture then scaled dk512; per
    /// machine, p = 1..=3; per p, Lockstep then FaultyTrajectory; per
    /// semantics, `models` in order.
    fn golden_digests(models: [FaultModel; 2]) -> Vec<u64> {
        let mut got = Vec::new();
        for c in [circuit(), dk512()] {
            for p in 1..=3 {
                for semantics in [Semantics::Lockstep, Semantics::FaultyTrajectory] {
                    for model in models {
                        got.push(golden_digest(&c, p, semantics, model));
                    }
                }
            }
        }
        got
    }

    #[test]
    fn time_invariant_tensors_are_pinned() {
        // Literal digests of the tables and stats the time-invariant
        // models build, so the enumerator can change shape without a
        // byte of the tensor moving. Order as in `golden_digests`,
        // permanent then multibit:1.
        let got = golden_digests([
            FaultModel::PermanentStuckAt,
            FaultModel::MultiBitCluster { radius: 1 },
        ]);
        let want: [u64; 24] = [
            0x14ea_1f2f_ee31_9583,
            0x1e73_dba4_164d_3b6d,
            0x14ea_1f2f_ee31_9583,
            0x1e73_dba4_164d_3b6d,
            0x7cd2_a142_0844_7871,
            0x0c98_d27d_958e_ab99,
            0xa6bf_b35a_9f94_98cf,
            0xf209_64f4_991c_46ff,
            0x83e2_90e9_86c6_84e2,
            0x0914_1065_a2ee_b254,
            0x90ad_daf1_9b58_117c,
            0x0edb_2fce_09dc_44cd,
            0x6c63_a34f_e1bd_0752,
            0x2e69_84d2_9540_cd6b,
            0x6c63_a34f_e1bd_0752,
            0x2e69_84d2_9540_cd6b,
            0x094e_237f_5fc5_d425,
            0x575e_3582_eba8_959c,
            0x36d9_cf94_5cc3_83cf,
            0x9f83_fb8d_1621_92d3,
            0xa5c0_bdfa_13c5_dfd3,
            0x117f_6b89_2594_1aae,
            0x2197_25f6_d691_965f,
            0x036c_1d51_fb25_4260,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn timed_tensors_are_pinned() {
        // The time-varying models reach the phase-keyed loop cuts and
        // the `dead_after` shortcut, which the time-invariant pin never
        // does. Order as in `golden_digests`, transient:2 then
        // intermittent:2.
        let got = golden_digests([
            FaultModel::TransientSeu { duration: 2 },
            FaultModel::Intermittent { period: 2 },
        ]);
        let want: [u64; 24] = [
            0x14ea_1f2f_ee31_9583,
            0x14ea_1f2f_ee31_9583,
            0x14ea_1f2f_ee31_9583,
            0x14ea_1f2f_ee31_9583,
            0x7cd2_a142_0844_7871,
            0x9a0b_dfbd_2f7b_0016,
            0xa6bf_b35a_9f94_98cf,
            0x57c1_9d92_8c7f_808e,
            0xe5e6_6559_609c_5460,
            0x965d_3676_b198_c183,
            0x90ad_daf1_9b58_117c,
            0x90ad_daf1_9b58_117c,
            0x6c63_a34f_e1bd_0752,
            0x6c63_a34f_e1bd_0752,
            0x6c63_a34f_e1bd_0752,
            0x6c63_a34f_e1bd_0752,
            0x094e_237f_5fc5_d425,
            0x7caf_1bb1_1f43_006d,
            0x36d9_cf94_5cc3_83cf,
            0x107e_6468_6b57_e200,
            0x170d_5e9c_0125_e888,
            0x3770_50e2_72d5_1ec1,
            0x66a3_0dcb_f529_cf29,
            0x65b9_44ce_cb6b_a65b,
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn fragment_bytes_are_pinned() {
        // Per-fault fragments are persisted store artifacts, and the
        // Lockstep ones carry the divergent-pair footprint that gates
        // cross-machine promotion. Pin `fnv1a64` of every collapsed
        // fault's transient:2 fragment at p = 3, Lockstep then
        // FaultyTrajectory, plus whether any footprint is nonempty.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let good = TransitionTables::good(&c);
        let model = FaultModel::TransientSeu { duration: 2 };
        let p = 3;
        let mut got = Vec::new();
        for semantics in [Semantics::Lockstep, Semantics::FaultyTrajectory] {
            let opts = DetectOptions {
                latency: p,
                semantics,
                fault_model: model,
                ..DetectOptions::default()
            };
            let store = Store::in_memory();
            let budget = Budget::unlimited();
            let mut control = BuildControl::new(&budget);
            control.store = Some(&store);
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[p], control).unwrap();
            let context = fragment_context_hash(&good, &opts);
            let mut all = Vec::new();
            let mut any_footprint = false;
            for key in crate::cone::cone_keys(c.netlist(), &faults, model) {
                let bytes = store
                    .get_artifact(TENSOR_FRAG_STAGE, fragment_fingerprint(context, key, p))
                    .expect("every fault's fragment is stored");
                let frag = TensorFragment::from_bytes(&bytes, p, opts.reduce).unwrap();
                any_footprint |= !frag.footprint.is_empty();
                all.extend_from_slice(&bytes);
            }
            got.push((fnv1a64(&all), any_footprint));
        }
        let want = [
            (0x394b_c8d2_e6fb_5427, true),
            (0x7105_97de_9996_60aa, false),
        ];
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    fn degenerate_models_match_permanent_tensor_exactly() {
        // An SEU that never deasserts, an intermittent that fires every
        // step, and a zero-radius cluster are all the permanent model in
        // disguise; their nonzero phases must cut the same loops and
        // reproduce the permanent tables bit for bit.
        for semantics in [Semantics::FaultyTrajectory, Semantics::Lockstep] {
            for p in 1..=3 {
                let permanent = build_model(p, semantics, FaultModel::PermanentStuckAt);
                for model in [
                    FaultModel::TransientSeu {
                        duration: usize::MAX,
                    },
                    FaultModel::Intermittent { period: 1 },
                    FaultModel::MultiBitCluster { radius: 0 },
                ] {
                    let got = build_model(p, semantics, model);
                    assert_eq!(got, permanent, "p={p} {semantics:?} {model}");
                }
            }
        }
    }

    #[test]
    fn transient_dies_on_the_shared_trajectory() {
        // FaultyTrajectory semantics: once a duration-1 SEU deasserts,
        // good and faulty run the same machine from the same state, so
        // every difference after step 1 is zero.
        let table = build_model(
            3,
            Semantics::FaultyTrajectory,
            FaultModel::TransientSeu { duration: 1 },
        );
        assert!(!table.is_empty());
        for row in table.rows() {
            assert_ne!(row.steps[0], 0);
            assert_eq!(
                &row.steps[1..],
                &[0, 0],
                "difference must die with the fault"
            );
        }
    }

    #[test]
    fn transient_divergence_survives_deassert_under_lockstep() {
        // Lockstep semantics remember the corrupted state: some
        // duration-1 SEU activation keeps differing after the window.
        // Built unreduced — dominance reduction prefers the rows that
        // are hardest to detect, which are exactly the zero-suffix ones.
        let table = build_model_opt(
            3,
            Semantics::Lockstep,
            FaultModel::TransientSeu { duration: 1 },
            false,
        );
        assert!(
            table
                .rows()
                .iter()
                .any(|row| row.steps[1..].iter().any(|&d| d != 0)),
            "state-remembered divergence should outlive the activation window"
        );
    }

    #[test]
    fn transient_window_widens_detectability() {
        // A longer activation window can only add erroneous behaviour;
        // at the permanent limit the tensors coincide. Compare raw
        // (unreduced) first-step populations as a monotonicity proxy.
        let short = build_model_opt(
            2,
            Semantics::FaultyTrajectory,
            FaultModel::TransientSeu { duration: 1 },
            false,
        );
        let long = build_model_opt(
            2,
            Semantics::FaultyTrajectory,
            FaultModel::TransientSeu {
                duration: usize::MAX,
            },
            false,
        );
        for row in short.rows() {
            assert!(
                long.rows().iter().any(|l| l.steps[0] == row.steps[0]),
                "permanent tensor lost a first-step difference the SEU has"
            );
        }
    }

    #[test]
    fn fault_model_changes_fingerprint_only_when_not_permanent() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let good = TransitionTables::good(&c);
        let base = |options: &DetectOptions| {
            fingerprint_base_hash(fragment_context_hash(&good, options), &faults)
        };
        let with_model = |model: FaultModel| {
            base(&DetectOptions {
                fault_model: model,
                ..DetectOptions::default()
            })
        };
        let permanent = with_model(FaultModel::PermanentStuckAt);
        assert_eq!(
            permanent,
            base(&DetectOptions::default()),
            "permanent model must not perturb pre-model store keys"
        );
        let mut seen = vec![permanent];
        for model in [
            FaultModel::TransientSeu { duration: 4 },
            FaultModel::TransientSeu { duration: 5 },
            FaultModel::Intermittent { period: 2 },
            FaultModel::MultiBitCluster { radius: 1 },
        ] {
            let key = with_model(model);
            assert!(!seen.contains(&key), "{model} collides with another model");
            seen.push(key);
        }
    }

    /// Reference key derivation: `fnv1a64` of the materialised
    /// `preimage ++ suffix…`.
    fn materialised_key(preimage: &[u8], suffix: &[&[u8]]) -> u64 {
        let mut bytes = preimage.to_vec();
        for part in suffix {
            bytes.extend_from_slice(part);
        }
        fnv1a64(&bytes)
    }

    #[test]
    fn folded_keys_equal_materialised_preimage_keys() {
        // Stores written before keys folded onto a hashed context must
        // keep hitting: every fragment key, tensor key, build
        // fingerprint and delta-seed key equals `fnv1a64` of the full
        // preimage, on two machines, all four fault models, p = 1..=3.
        let le = |v: u64| v.to_le_bytes();
        for c in [circuit(), dk512()] {
            let faults = collapsed_faults(c.netlist());
            let good = TransitionTables::good(&c);
            for model in [
                FaultModel::PermanentStuckAt,
                FaultModel::TransientSeu { duration: 2 },
                FaultModel::Intermittent { period: 2 },
                FaultModel::MultiBitCluster { radius: 1 },
            ] {
                let opts = DetectOptions {
                    fault_model: model,
                    ..DetectOptions::default()
                };
                let mut w = ByteWriter::new();
                write_fragment_context(&mut w, &good, &opts);
                let context_bytes = w.finish();
                let mut w = ByteWriter::new();
                write_fragment_context(&mut w, &good, &opts);
                w.usize(faults.len());
                for f in &faults {
                    w.usize(f.net.index());
                    w.bool(f.stuck_at);
                }
                let base_bytes = w.finish();

                let context = fragment_context_hash(&good, &opts);
                assert_eq!(context, fnv1a64(&context_bytes), "{model}: context");
                let base = fingerprint_base_hash(context, &faults);
                assert_eq!(base, fnv1a64(&base_bytes), "{model}: base");
                let seed = DeltaSeed {
                    old_context: context,
                    changed_codes: Vec::new(),
                };
                let sweep = [1usize, 2, 3];
                let sweep_words: Vec<[u8; 8]> = sweep.iter().map(|&p| le(p as u64)).collect();
                let mut sweep_suffix: Vec<&[u8]> = Vec::new();
                let count = le(sweep.len() as u64);
                sweep_suffix.push(&count);
                sweep_suffix.extend(sweep_words.iter().map(|w| &w[..]));
                assert_eq!(
                    build_fingerprint_from_base(base, &sweep),
                    materialised_key(&base_bytes, &sweep_suffix),
                    "{model}: build fingerprint over 1..=3"
                );
                let cone_keys = crate::cone::cone_keys(c.netlist(), &faults, model);
                for p in sweep {
                    let pw = le(p as u64);
                    assert_eq!(
                        build_fingerprint_from_base(base, &[p]),
                        materialised_key(&base_bytes, &[&le(1), &pw]),
                        "{model} p={p}: build fingerprint"
                    );
                    assert_eq!(
                        tensor_fingerprint(base, p),
                        materialised_key(&base_bytes, &[b"tensor-latency", &pw]),
                        "{model} p={p}: tensor key"
                    );
                    for &key in &cone_keys {
                        let old =
                            materialised_key(&context_bytes, &[b"tensor-frag", &le(key), &pw]);
                        assert_eq!(fragment_fingerprint(context, key, p), old, "{model} p={p}");
                        assert_eq!(
                            fragment_fingerprint(seed.old_context, key, p),
                            old,
                            "{model} p={p}: delta seed key"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rows_have_nonzero_first_step() {
        let (table, stats) = build(2);
        assert!(stats.rows > 0);
        for row in table.rows() {
            assert_ne!(row.steps[0], 0, "activation step must differ");
            assert_eq!(row.steps.len(), 2);
        }
    }

    #[test]
    fn zero_latency_rejected() {
        let c = circuit();
        let err = DetectabilityTable::build(
            &c,
            &[],
            &DetectOptions {
                latency: 0,
                ..DetectOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, DetectError::ZeroLatency);
    }

    #[test]
    fn singleton_masks_cover_everything() {
        // Each row has a nonzero first step, so the n singleton parity
        // functions always cover the table (the paper's q = n fallback).
        let (table, _) = build(3);
        let masks: Vec<u64> = (0..table.num_bits()).map(|b| 1u64 << b).collect();
        assert!(table.all_covered(&masks));
    }

    #[test]
    fn truncation_matches_direct_build_on_raw_tables() {
        let t3 = build_raw(3).0;
        let t1_direct = build_raw(1).0;
        let t2_direct = build_raw(2).0;
        assert_eq!(t3.truncated(1), t1_direct);
        assert_eq!(t3.truncated(2), t2_direct);
        assert_eq!(t3.truncated(3), t3);
    }

    #[test]
    fn reduced_build_matches_offline_reduction_of_raw_build() {
        for p in 1..=3 {
            let online = build(p).0;
            let offline = build_raw(p).0.dominance_reduced();
            assert_eq!(online, offline, "p={p}");
            assert!(online.is_reduced());
        }
    }

    #[test]
    #[should_panic(expected = "unreduced table")]
    fn truncating_reduced_table_panics() {
        let t = build(2).0;
        let _ = t.truncated(1);
    }

    #[test]
    fn more_latency_never_fewer_detection_options() {
        // Any mask covering the p=1 table also covers the p=2 table's
        // first steps; conversely coverage can only grow with p.
        let (t1, _) = build(1);
        let (t2, _) = build(2);
        // A mask covering all rows at p=1 must cover all rows at p=2
        // (every p=2 row's first step equals some p=1 row's step).
        let n = t1.num_bits();
        for mask in 1..(1u64 << n.min(10)) {
            if t1.all_covered(&[mask]) {
                assert!(t2.all_covered(&[mask]), "mask {mask:b} lost coverage");
            }
        }
    }

    #[test]
    fn detected_by_parity_semantics() {
        let row = EcRow {
            steps: vec![0b011, 0b111],
        };
        assert!(!row.detected_by(0b011)); // even overlap at step 1, odd? 2 bits → even; step 2: 2 bits → even
        assert!(row.detected_by(0b001)); // single bit at step 1
        assert!(row.detected_by(0b100)); // only step 2 has bit 2
        assert!(!row.detected_by(0b000));
        assert_eq!(row.any_step_union(), 0b111);
    }

    #[test]
    fn from_rows_validates() {
        let t = DetectabilityTable::from_rows(
            3,
            2,
            vec![EcRow {
                steps: vec![0b101, 0b010],
            }],
        );
        assert_eq!(t.len(), 1);
        assert!(t.entry(0, 0, 0));
        assert!(!t.entry(0, 1, 0));
        assert!(t.entry(0, 1, 1));
    }

    #[test]
    #[should_panic(expected = "row latency mismatch")]
    fn from_rows_rejects_bad_latency() {
        let _ = DetectabilityTable::from_rows(3, 2, vec![EcRow { steps: vec![1] }]);
    }

    #[test]
    fn render_contains_rows() {
        let (t, _) = build(1);
        let text = t.render();
        assert!(text.contains("latency 1"));
        assert!(text.lines().count() >= t.len());
    }

    #[test]
    fn stats_are_consistent() {
        let (t, stats) = build(2);
        assert_eq!(stats.rows, t.len());
        assert!(stats.rows_raw >= stats.rows);
        assert!(stats.activations > 0);
        assert!(stats.faults > stats.untestable_faults);
    }

    #[test]
    fn dominance_reduction_preserves_cover_semantics() {
        let (table, _) = build(3);
        let reduced = table.dominance_reduced();
        assert!(reduced.len() <= table.len());
        // Any mask set covers the reduced table iff it covers the full
        // table — checked over all masks and a few small mask pairs.
        let n = table.num_bits();
        for mask in 1..(1u64 << n.min(8)) {
            assert_eq!(
                table.all_covered(&[mask]),
                reduced.all_covered(&[mask]),
                "mask {mask:b} disagrees"
            );
        }
        for pair in [[0b01u64, 0b10], [0b11, 0b100], [0b101, 0b010]] {
            assert_eq!(table.all_covered(&pair), reduced.all_covered(&pair));
        }
    }

    #[test]
    fn dominance_reduction_drops_supersets() {
        let t = DetectabilityTable::from_rows(
            4,
            3,
            vec![
                EcRow {
                    steps: vec![0b0001, 0, 0],
                },
                EcRow {
                    steps: vec![0b0001, 0b0010, 0],
                }, // superset of {1}
                EcRow {
                    steps: vec![0b0010, 0b0001, 0b0100],
                }, // superset of {1}
                EcRow {
                    steps: vec![0b0100, 0b1000, 0],
                }, // minimal
            ],
        );
        let r = t.dominance_reduced();
        assert_eq!(r.len(), 2);
        // Step-sets are canonicalized (sorted, padded).
        assert!(r.rows().iter().any(|row| row.steps == vec![0b0001, 0, 0]));
        assert!(r
            .rows()
            .iter()
            .any(|row| row.steps == vec![0b0100, 0b1000, 0]));
    }

    #[test]
    fn dominance_reduction_is_order_insensitive() {
        let a = DetectabilityTable::from_rows(
            3,
            2,
            vec![EcRow {
                steps: vec![0b01, 0b10],
            }],
        );
        let b = DetectabilityTable::from_rows(
            3,
            2,
            vec![EcRow {
                steps: vec![0b10, 0b01],
            }],
        );
        assert_eq!(a.dominance_reduced(), b.dominance_reduced());
    }

    #[test]
    fn first_uncovered_early_exit() {
        let t = DetectabilityTable::from_rows(
            3,
            1,
            vec![EcRow { steps: vec![0b001] }, EcRow { steps: vec![0b010] }],
        );
        assert_eq!(t.first_uncovered(&[0b001]), Some(1));
        assert_eq!(t.first_uncovered(&[0b001, 0b010]), None);
    }

    #[test]
    fn build_many_matches_separate_builds() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions::default();
        let many = DetectabilityTable::build_many(&c, &faults, &opts, &[1, 2, 3]).unwrap();
        for (i, p) in [1usize, 2, 3].iter().enumerate() {
            let single = DetectabilityTable::build(
                &c,
                &faults,
                &DetectOptions {
                    latency: *p,
                    ..DetectOptions::default()
                },
            )
            .unwrap();
            assert_eq!(many[i].0, single.0, "table differs at p={p}");
            assert_eq!(many[i].1, single.1, "stats differ at p={p}");
        }
    }

    #[test]
    fn overflowing_tensor_volume_is_a_typed_error() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        // A latency bound so large that m·n·p overflows usize: must be
        // rejected before any enumeration or allocation is attempted.
        let err = DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: usize::MAX / 2,
                ..DetectOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, DetectError::TensorTooLarge { latency, .. } if latency == usize::MAX / 2),
            "{err}"
        );
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn near_limit_tensor_volume_is_accepted() {
        // Dims whose product still fits must not trip the guard.
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let ok = DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: 2,
                max_rows: usize::MAX >> 8,
                ..DetectOptions::default()
            },
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn table_serialization_round_trips_bit_exactly() {
        for (reduce, p) in [(true, 1), (true, 3), (false, 2)] {
            let (table, _) = build_opt(p, reduce);
            let bytes = table.to_bytes();
            let back = DetectabilityTable::from_bytes(&bytes).unwrap();
            assert_eq!(back, table);
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn table_deserialization_rejects_garbage_without_panicking() {
        let (table, _) = build(2);
        let bytes = table.to_bytes();
        for cut in 0..bytes.len().min(64) {
            assert!(DetectabilityTable::from_bytes(&bytes[..cut]).is_err());
        }
        assert!(DetectabilityTable::from_bytes(&[0xFF; 40]).is_err());
    }

    #[test]
    fn tick_cap_interrupts_at_fault_boundary_with_checkpoint() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 2,
            ..DetectOptions::default()
        };
        let budget = Budget::new().with_tick_cap(3);
        let err = DetectabilityTable::build_many_controlled(
            &c,
            &faults,
            &opts,
            &[1, 2],
            BuildControl::new(&budget),
        )
        .unwrap_err();
        match err {
            DetectError::Interrupted {
                interrupted,
                checkpoint,
            } => {
                assert!(interrupted.resumable);
                let ckpt = checkpoint.expect("boundary interrupt carries a checkpoint");
                assert!(ckpt.next_fault() < faults.len());
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn resumed_build_is_bit_identical_to_uninterrupted() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 3,
            ..DetectOptions::default()
        };
        let latencies = [1usize, 3];
        let baseline = DetectabilityTable::build_many(&c, &faults, &opts, &latencies).unwrap();

        // Interrupt under a series of tick caps, resume with a fresh
        // unlimited budget, and require exact agreement every time.
        for cap in [1u64, 5, 20, 100] {
            let budget = Budget::new().with_tick_cap(cap);
            let ckpt = match DetectabilityTable::build_many_controlled(
                &c,
                &faults,
                &opts,
                &latencies,
                BuildControl::new(&budget),
            ) {
                Ok(results) => {
                    assert_eq!(results, baseline, "cap {cap} finished early?");
                    continue;
                }
                Err(DetectError::Interrupted {
                    checkpoint: Some(c),
                    ..
                }) => *c,
                Err(other) => panic!("cap {cap}: {other:?}"),
            };
            let fresh = Budget::unlimited();
            let mut control = BuildControl::new(&fresh);
            control.resume = Some(ckpt);
            let resumed =
                DetectabilityTable::build_many_controlled(&c, &faults, &opts, &latencies, control)
                    .unwrap();
            assert_eq!(resumed, baseline, "cap {cap} resume diverged");
        }
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_foreign_inputs() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 2,
            ..DetectOptions::default()
        };
        let budget = Budget::new().with_tick_cap(10);
        let Err(DetectError::Interrupted {
            checkpoint: Some(ckpt),
            ..
        }) = DetectabilityTable::build_many_controlled(
            &c,
            &faults,
            &opts,
            &[2],
            BuildControl::new(&budget),
        )
        else {
            panic!("expected a checkpointed interrupt");
        };
        let bytes = ckpt.to_bytes();
        let back = BuildCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, *ckpt);

        // Same checkpoint, different fault list: typed mismatch.
        let fresh = Budget::unlimited();
        let mut control = BuildControl::new(&fresh);
        control.resume = Some(back);
        let err = DetectabilityTable::build_many_controlled(
            &c,
            &faults[..faults.len() - 1],
            &opts,
            &[2],
            control,
        )
        .unwrap_err();
        assert_eq!(err, DetectError::CheckpointMismatch);
    }

    #[test]
    fn cancellation_mid_build_is_typed_and_not_resumable() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 2,
            ..DetectOptions::default()
        };
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let err = DetectabilityTable::build_many_controlled(
            &c,
            &faults,
            &opts,
            &[2],
            BuildControl::new(&budget),
        )
        .unwrap_err();
        match err {
            DetectError::Interrupted { interrupted, .. } => {
                assert_eq!(interrupted.kind, ced_runtime::InterruptKind::Cancelled);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn store_replay_is_byte_identical_and_serves_latency_subsets() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 3,
            ..DetectOptions::default()
        };
        let baseline = DetectabilityTable::build_many(&c, &faults, &opts, &[1, 2, 3]).unwrap();
        let store = Store::in_memory();
        let budget = Budget::unlimited();
        let mut cold_control = BuildControl::new(&budget);
        cold_control.store = Some(&store);
        let cold =
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[1, 2, 3], cold_control)
                .unwrap();
        assert_eq!(cold, baseline);
        // Warm: every latency hits; a subset of the swept bounds hits
        // too, without any enumeration.
        let mut warm_control = BuildControl::new(&budget);
        warm_control.store = Some(&store);
        let warm =
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[1, 2, 3], warm_control)
                .unwrap();
        assert_eq!(warm, baseline);
        let mut subset_control = BuildControl::new(&budget);
        subset_control.store = Some(&store);
        let subset =
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[2], subset_control)
                .unwrap();
        assert_eq!(subset[0], baseline[1]);
        let stats = store.stats();
        let (stage, counters) = &stats.stages[0];
        assert_eq!(stage, TENSOR_STAGE);
        assert_eq!(counters.puts, 3);
        assert_eq!(counters.hits, 4);
        // Byte identity of the artifacts themselves.
        for (pair_cold, pair_warm) in cold.iter().zip(&warm) {
            assert_eq!(pair_cold.0.to_bytes(), pair_warm.0.to_bytes());
            assert_eq!(pair_cold.1, pair_warm.1);
        }
    }

    #[test]
    fn periodic_checkpoints_are_emitted_and_resumable() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let opts = DetectOptions {
            latency: 2,
            ..DetectOptions::default()
        };
        let baseline = DetectabilityTable::build_many(&c, &faults, &opts, &[2]).unwrap();
        let budget = Budget::unlimited();
        let mut seen: Vec<BuildCheckpoint> = Vec::new();
        let mut sink = |c: &BuildCheckpoint| seen.push(c.clone());
        let control = BuildControl {
            budget: &budget,
            resume: None,
            checkpoint_every: 2,
            on_checkpoint: Some(&mut sink),
            pool: None,
            store: None,
            delta: None,
        };
        let full =
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[2], control).unwrap();
        assert_eq!(full, baseline);
        assert!(!seen.is_empty(), "no periodic checkpoints emitted");
        // Resuming from any periodic checkpoint reproduces the build.
        let mid = seen[seen.len() / 2].clone();
        let fresh = Budget::unlimited();
        let mut control = BuildControl::new(&fresh);
        control.resume = Some(mid);
        let resumed =
            DetectabilityTable::build_many_controlled(&c, &faults, &opts, &[2], control).unwrap();
        assert_eq!(resumed, baseline);
    }

    #[test]
    fn row_cap_enforced() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let err = DetectabilityTable::build(
            &c,
            &faults,
            &DetectOptions {
                latency: 2,
                max_rows: 1,
                ..DetectOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, DetectError::TooManyRows { limit: 1 }));
    }

    #[test]
    fn fault_cases_equal_single_fault_builds() {
        // The campaign's per-fault verdict walks the faulty tables it
        // already holds; it must see exactly the single-fault build's
        // step-sets and untestable flag, on three machines, all four
        // fault models, p = 1..=3, both semantics, reduced and raw. The
        // one-hot fixture has redundant faults (effects only at codes
        // the good machine never reaches), so `None` is exercised too.
        let one_hot = {
            let fsm = suite::sequence_detector();
            let enc = assign(&fsm, EncodingStrategy::OneHot);
            EncodedFsm::new(fsm, enc)
                .unwrap()
                .synthesize(&MinimizeOptions::default())
        };
        let mut untestable = 0;
        for c in [circuit(), dk512(), one_hot] {
            let faults = collapsed_faults(c.netlist());
            let good = TransitionTables::good(&c);
            let activation_states = good.reachable_codes();
            for model in [
                FaultModel::PermanentStuckAt,
                FaultModel::TransientSeu { duration: 2 },
                FaultModel::Intermittent { period: 2 },
                FaultModel::MultiBitCluster { radius: 1 },
            ] {
                let bads: Vec<TransitionTables> = faults
                    .iter()
                    .map(|&f| TransitionTables::faulty(&c, &model.expand(f, c.netlist())))
                    .collect();
                for p in 1..=3 {
                    for semantics in [Semantics::Lockstep, Semantics::FaultyTrajectory] {
                        for reduce in [true, false] {
                            let opts = DetectOptions {
                                latency: p,
                                semantics,
                                reduce,
                                fault_model: model,
                                ..DetectOptions::default()
                            };
                            for (&fault, bad) in faults.iter().zip(&bads) {
                                let (table, stats) =
                                    DetectabilityTable::build(&c, &[fault], &opts).unwrap();
                                let got =
                                    fault_cases(&good, bad, &activation_states, &opts).unwrap();
                                let ctx = format!("{fault:?} {model} p={p} {semantics:?} {reduce}");
                                match got {
                                    None => {
                                        assert_eq!(stats.untestable_faults, 1, "{ctx}");
                                        assert!(table.is_empty(), "{ctx}");
                                        untestable += 1;
                                    }
                                    Some(cases) => {
                                        assert_eq!(stats.untestable_faults, 0, "{ctx}");
                                        assert_eq!(cases, table, "{ctx}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(untestable > 0, "no untestable fault exercised");
    }

    #[test]
    fn fault_cases_keep_the_single_fault_build_errors() {
        let c = circuit();
        let faults = collapsed_faults(c.netlist());
        let good = TransitionTables::good(&c);
        let activation_states = good.reachable_codes();
        let both = |fault: Fault, opts: &DetectOptions| {
            let bad = TransitionTables::faulty(&c, &[fault]);
            (
                DetectabilityTable::build(&c, &[fault], opts)
                    .map(|(t, st)| (st.untestable_faults == 0).then_some(t)),
                fault_cases(&good, &bad, &activation_states, opts),
            )
        };
        let zero = DetectOptions {
            latency: 0,
            ..DetectOptions::default()
        };
        let (built, got) = both(faults[0], &zero);
        assert_eq!(built, Err(DetectError::ZeroLatency));
        assert_eq!(got, Err(DetectError::ZeroLatency));
        let huge = DetectOptions {
            latency: usize::MAX / 2,
            ..DetectOptions::default()
        };
        let (built, got) = both(faults[0], &huge);
        assert!(matches!(built, Err(DetectError::TensorTooLarge { .. })));
        assert_eq!(got, built);
        let capped = DetectOptions {
            latency: 2,
            max_rows: 1,
            ..DetectOptions::default()
        };
        let mut overflowed = 0;
        for &fault in &faults {
            let (built, got) = both(fault, &capped);
            assert_eq!(got, built, "{fault:?}");
            if built == Err(DetectError::TooManyRows { limit: 1 }) {
                overflowed += 1;
            }
        }
        assert!(overflowed > 0, "some fault must exceed one row");
    }
}
