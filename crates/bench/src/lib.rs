//! Shared helpers for the experiment harnesses and the edit/fleet emitters.

use ced_core::pipeline::{run_circuit, CircuitReport, PipelineOptions};
use ced_fsm::suite::{paper_table1, paper_table1_scaled, CircuitSpec};
use ced_logic::gate::CellLibrary;
use ced_runtime::Json;
use std::time::Instant;

/// The short git revision of the working tree, or `"unknown"` outside
/// a repository — stamped into every trajectory row so committed
/// `BENCH_*.json` files can be compared across history.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One row of the cross-bench performance trajectory: a stable
/// `{rev, machine, n_states, wall_ms}` record shared by every
/// `BENCH_*.json` emitter so a single `jq` query can plot any
/// harness's headline wall-clock over commits.
pub fn trajectory_row(rev: &str, machine: &str, n_states: usize, wall_ms: f64) -> Json {
    Json::Object(vec![
        ("rev".into(), Json::str(rev)),
        ("machine".into(), Json::str(machine)),
        ("n_states".into(), Json::UInt(n_states as u64)),
        ("wall_ms".into(), Json::Float(wall_ms)),
    ])
}

/// Which suite to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// The full Table-1 interface dimensions (slow; minutes per run).
    Full,
    /// Dimension-capped analogues (seconds; same qualitative shape).
    Quick,
}

impl Suite {
    /// The circuit specs of this suite.
    pub fn specs(self) -> Vec<CircuitSpec> {
        match self {
            Suite::Full => paper_table1(),
            Suite::Quick => paper_table1_scaled(),
        }
    }
}

/// Parses harness CLI arguments of the form
/// `[--quick] [--circuit NAME] [--latencies 1,2,3]`.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// The selected suite.
    pub suite: Suite,
    /// Restrict to one circuit by name.
    pub circuit: Option<String>,
    /// Latency bounds to evaluate.
    pub latencies: Vec<usize>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, exiting with usage help on error.
    pub fn parse() -> HarnessArgs {
        let mut out = HarnessArgs {
            suite: Suite::Full,
            circuit: None,
            latencies: vec![1, 2, 3],
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--quick" => out.suite = Suite::Quick,
                "--circuit" => out.circuit = args.next(),
                "--latencies" => {
                    let list = args.next().unwrap_or_default();
                    out.latencies = list
                        .split(',')
                        .filter_map(|t| t.trim().parse().ok())
                        .collect();
                    if out.latencies.is_empty() {
                        eprintln!("--latencies expects a comma list like 1,2,3");
                        std::process::exit(2);
                    }
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: [--quick] [--circuit NAME] [--latencies 1,2,3]\n\
                         --quick    run the dimension-capped suite (seconds)\n\
                         --circuit  run a single Table-1 circuit by name\n\
                         --latencies  latency bounds (default 1,2,3)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        out
    }

    /// The circuit specs selected by these arguments.
    pub fn specs(&self) -> Vec<CircuitSpec> {
        let mut specs = self.suite.specs();
        if let Some(name) = &self.circuit {
            specs.retain(|s| s.name == name.as_str());
            if specs.is_empty() {
                eprintln!("no Table-1 circuit named {name}");
                std::process::exit(2);
            }
        }
        specs
    }
}

/// Runs the pipeline for every spec, printing progress to stderr.
pub fn run_suite(
    specs: &[CircuitSpec],
    latencies: &[usize],
    options: &PipelineOptions,
) -> Vec<CircuitReport> {
    let lib = CellLibrary::new();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        let start = Instant::now();
        let fsm = spec.build();
        match run_circuit(&fsm, latencies, options, &lib) {
            Ok(report) => {
                eprintln!(
                    "  {:<10} done in {:.1?} ({} erroneous cases at p_max)",
                    spec.name,
                    start.elapsed(),
                    report
                        .latencies
                        .last()
                        .map(|l| l.erroneous_cases)
                        .unwrap_or(0)
                );
                reports.push(report);
            }
            Err(e) => {
                eprintln!("  {:<10} FAILED: {e}", spec.name);
            }
        }
    }
    reports
}
