//! # ced-inject — fault-injection campaigns on the CED hardware
//!
//! The paper proves coverage *analytically*: every erroneous case in
//! the detectability tensor `V(i,j,k)` is caught by some parity tree
//! within `p` cycles. This crate is the checker of the checker — it
//! closes the loop *operationally*, twice over:
//!
//! * [`campaign`] injects every modeled stuck-at fault into the
//!   **protected FSM**, drives random input paths, and judges detection
//!   with the *synthesized checker netlist* (not the abstract parity
//!   model), cross-validating observed latency against `V(i,j,k)`.
//!   Any divergence — an analytically covered fault that escapes, a
//!   detection later than the bound, or a cycle where the hardware and
//!   the tensor disagree — surfaces as a structured [`Disagreement`].
//! * [`checker`] injects stuck-at faults into the **checker's own
//!   netlist** (predictor, parity trees, comparator, `ERROR` tree) and
//!   classifies each as a false alarm (fail-safe, detectable online),
//!   self-masking (silently swallows real errors — the dangerous
//!   class), or behaviourally benign.
//!
//! ```
//! use ced_core::pipeline::{fault_list, synthesize_circuit, PipelineOptions};
//! use ced_core::search::{minimize_parity_functions, CedOptions};
//! use ced_core::synthesize_ced;
//! use ced_fsm::suite;
//! use ced_inject::{run_campaign, CampaignOptions};
//! use ced_sim::detect::{DetectOptions, DetectabilityTable, InputModel, Semantics};
//!
//! let fsm = suite::sequence_detector();
//! let options = PipelineOptions::paper_defaults();
//! let circuit = synthesize_circuit(&fsm, &options)?;
//! let faults = fault_list(&circuit, &options);
//! let (table, _) = DetectabilityTable::build(
//!     &circuit,
//!     &faults,
//!     &DetectOptions {
//!         latency: 1,
//!         semantics: Semantics::FaultyTrajectory,
//!         input_model: InputModel::Exhaustive,
//!         ..DetectOptions::default()
//!     },
//! )?;
//! let outcome = minimize_parity_functions(&table, &CedOptions::default());
//! let ced = synthesize_ced(&circuit, &outcome.cover, 1, &options.minimize);
//! let report = run_campaign(&circuit, &ced, &faults, &CampaignOptions::default())?;
//! assert!(report.is_clean(), "{}", report.render());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod checker;
pub mod report;

pub use campaign::{
    run_campaign, run_campaign_stored, CampaignError, CampaignOptions, MachineFaultOutcome,
};
pub use checker::{audit_checker, CheckerCampaign, CheckerFaultClass};
pub use report::{CampaignReport, Disagreement, MachineCampaign};
