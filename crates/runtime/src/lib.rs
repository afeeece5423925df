//! Survivable-execution primitives for the CED workspace.
//!
//! Every expensive stage of the pipeline — detectability-tensor
//! construction, fault simulation, two-level minimization, simplex
//! pivoting, randomized rounding, the search ladder and the injection
//! campaigns — accepts a [`Budget`] and reports overruns as a typed
//! [`Interrupted`] value instead of hanging or dying mid-suite. Partial
//! work survives interruption through versioned, checksummed
//! [`checkpoint`]s written atomically, so `--resume` continues exactly
//! where an interrupted run stopped.
//!
//! The crate is a leaf: std-only, no dependencies, usable from every
//! other crate in the workspace.

#![warn(missing_docs)]

pub mod budget;
pub mod checkpoint;
pub mod heartbeat;
pub mod json;
pub mod lease;

pub use budget::{Budget, CancelToken, InterruptKind, Interrupted, Progress};
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, fnv1a64, fnv1a64_extend, load_checkpoint,
    save_checkpoint, ByteReader, ByteWriter, CheckpointError, FNV1A64_OFFSET,
};
pub use heartbeat::Heartbeat;
pub use json::{Json, JsonParseError};
pub use lease::{claim_by_rename, mtime_age, publish_envelope, touch};
