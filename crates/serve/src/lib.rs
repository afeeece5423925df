//! # ced-serve — the long-lived bounded-latency CED analysis daemon
//!
//! One-shot CLI invocations pay the full cold-start cost every time:
//! process spawn, KISS2 parse, synthesis, tensor builds. `ced serve`
//! keeps that machinery warm — a persistent TCP daemon speaking
//! line-delimited JSON, holding a warm [`ced_store::Store`] in memory
//! and multiplexing concurrent `check`/`table`/`certify`/`inject`
//! requests onto one shared [`ced_par::ParExec`] pool.
//!
//! The crate's defining guarantee is the **serve ≡ CLI differential**:
//! a served response payload is byte-identical to the corresponding
//! one-shot CLI report — cold or warm store, any pool width, any fault
//! model. It holds *by construction*: the [`ops`] module is the single
//! implementation both the CLI subcommands and the daemon's executors
//! call.
//!
//! Robustness is the second pillar (this is a daemon; a bad request
//! must never take it down):
//!
//! * **Admission control** — a bounded pending queue; when full,
//!   requests are shed with a typed `overloaded` error instead of
//!   queueing without bound ([`server`]).
//! * **Disconnect-driven cancellation** — each connection owns a
//!   [`ced_runtime::CancelToken`] wired into its requests' budgets;
//!   the moment the client goes away, its in-flight work is cancelled
//!   cooperatively.
//! * **Panic isolation** — every request runs under
//!   [`ced_par::isolate`], the same capture the suite runner uses; a
//!   panicking analysis (on the executor or on a pool worker) becomes a
//!   typed `internal_error` response, prints nothing, and the daemon
//!   keeps serving.
//! * **Hostile framing** — request lines are bounded-read: oversized
//!   lines, slow-trickle partial lines and mid-line disconnects all
//!   produce typed errors ([`proto::LineReader`]), never unbounded
//!   buffering or a wedged reader thread.
//! * **Checkpoint-envelope job handles** — long jobs can be submitted
//!   detached (`submit` → `poll` → `fetch`), surviving the submitting
//!   connection.

#![warn(missing_docs)]

pub mod client;
pub mod ops;
pub mod proto;
pub mod server;

pub use client::Client;
pub use ops::{execute, DeltaSummary, OpError, OpKind, OpOutput, OpRequest};
pub use proto::{ErrorKind, Request};
pub use server::{ServeOptions, Server};
