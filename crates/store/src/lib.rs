//! Incremental-pipeline substrate: a content-addressed artifact store
//! and the shared coverage-matrix representation.
//!
//! The pipeline (KISS2 → encoding → synthesis → fault simulation →
//! `V(i,j,k)` tensor → LP/rounding search → CED hardware) is a chain of
//! deterministic stages: every stage's output is a pure function of its
//! serialized inputs and options. [`Store`] exploits that by memoizing
//! stage outputs under a `(stage, fingerprint)` key, in memory and —
//! with a directory attached — on disk, so a p-sweep or a re-certify
//! replays cache hits instead of recomputing tensors and synthesis
//! results. Because each stage is deterministic and its serialization
//! is bit-exact, a cache hit is *byte-identical* to a recomputation;
//! the differential tests in `tests/` prove that end to end.
//!
//! [`CoverageMatrix`] and [`RowSet`] unify the three coverage-bitset
//! representations that used to live separately in `sim::detect` (step
//! masks with online dominance pruning), `core::exact` (coverage words
//! per candidate mask) and `core::greedy` (uncovered-row tracking), so
//! stage outputs have one canonical serialized form.
//!
//! The crate is std-only and depends only on `ced-runtime` (for the
//! checkpoint envelope and `ByteWriter`/`ByteReader`).

#![warn(missing_docs)]

pub mod coverage;
pub mod store;

pub use coverage::{drop_dominated, reduce_cases, CaseReduction, CoverageMatrix, RowSet};
pub use store::{
    GcOutcome, StageCounters, Store, StoreEntryInfo, StoreStats, STORE_ENTRY_KIND,
    STORE_INDEX_KIND, TENSOR_FRAG_STAGE,
};
