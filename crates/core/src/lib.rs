//! # ced-core — concurrent error detection with bounded latency in FSMs
//!
//! Reference implementation of *"On Concurrent Error Detection with
//! Bounded Latency in FSMs"* (Almukhaizim, Drineas, Makris — DATE
//! 2004): minimize the number of parity trees needed to detect every
//! modeled error of an FSM within a latency bound `p`, by formulating
//! parity selection as an integer program ([`ip`]), relaxing it to a
//! linear program ([`relax`]), rounding randomly ([`round`]) inside a
//! binary search on `q` ([`search`]), and synthesizing the resulting
//! checker hardware ([`hardware`]).
//!
//! Baselines for the paper's comparisons and our ablations: greedy
//! parity covering ([`greedy`]), exact small-instance optimum
//! ([`exact`]), duplication-with-comparison ([`duplication`]) and the
//! convolutional-code scheme the paper cites for SEUs
//! ([`convolutional`]).
//! [`pipeline`] strings the whole experiment together; [`report`]
//! formats Table 1 and the §5 summary.
//!
//! # Examples
//!
//! The complete flow on a small machine:
//!
//! ```
//! use ced_core::pipeline::{run_circuit, PipelineOptions};
//! use ced_fsm::suite;
//! use ced_logic::gate::CellLibrary;
//!
//! let fsm = suite::sequence_detector();
//! let report = run_circuit(
//!     &fsm,
//!     &[1, 2, 3],
//!     &PipelineOptions::paper_defaults(),
//!     &CellLibrary::new(),
//! )?;
//! // Latency never increases the number of parity functions.
//! let q: Vec<usize> = report.latencies.iter().map(|l| l.cover.len()).collect();
//! assert!(q.windows(2).all(|w| w[1] <= w[0]));
//! # Ok::<(), ced_core::pipeline::PipelineError>(())
//! ```

#![warn(missing_docs)]
// Indexed loops over bit positions are the clearest form for this
// bit-twiddling code; the iterator rewrites clippy suggests obscure it.
#![allow(clippy::needless_range_loop)]

pub mod convolutional;
pub mod duplication;
pub mod exact;
pub mod greedy;
pub mod hardware;
pub mod ip;
pub mod pipeline;
pub mod relax;
pub mod report;
pub mod round;
pub mod search;
pub mod suite;

pub use hardware::{synthesize_ced, CedCost, CedHardware};
pub use ip::{verify_cover, ParityCover};
pub use pipeline::{
    run_circuit, run_circuit_controlled, CircuitReport, LatencyResult, PipelineControl,
    PipelineError, PipelineInterrupted, PipelineOptions, TableCheckpoint,
};
pub use relax::{
    build_relaxation, build_relaxation_with_objective, LpForm, LpObjective, Relaxation,
};
pub use report::report_to_json;
pub use search::{
    minimize_interruptible, minimize_parity_functions, minimize_with_incumbent, CedOptions,
    DegradationEvent, DegradationReason, LadderRung, SearchOutcome,
};
pub use suite::{
    corpus_units, poisoned_record, run_suite, run_suite_unit, suite_fingerprint, CorpusUnit,
    MachineRecord, MachineStatus, SuiteCheckpoint, SuiteControl, SuiteError, SuiteInterrupted,
    SuiteOptions, SuiteReport, SUITE_CHECKPOINT_KIND,
};
