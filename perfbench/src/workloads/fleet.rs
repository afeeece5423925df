//! `fleet-campaign`: each op is one whole fleet campaign run
//! in-process — `run_coordinator` plus two `run_worker` threads with
//! the CLI's default timings — in a fresh fleet directory, over a
//! corpus of two machines: suite instances of small Table-1 shapes.
//! Each round over the shapes pairs them up in a seeded order, so every
//! shape occurs equally often.
//!
//! Two units per campaign give each worker one: every unit holds its
//! worker for at least one 500 ms heartbeat period, so with more units
//! the campaign time depends on how the workers happen to split them.

use crate::common::{array, mix, number, shuffle, suite_instance};
use crate::trace::Tracer;
use crate::{Quality, Workload};
use ced_core::{run_suite, SuiteControl, SuiteOptions};
use ced_fleet::{run_coordinator, run_worker, CoordinatorOptions, WorkerOptions};
use ced_fsm::machine::Fsm;
use ced_logic::gate::CellLibrary;
use ced_runtime::{CancelToken, Json};
use std::path::{Path, PathBuf};

const WORKERS: usize = 2;
const LATENCIES: [usize; 2] = [1, 2];
/// The shapes whose suite instances make up the campaigns.
const SHAPES: [&str; 4] = ["s27", "tav", "dk512", "donfile"];
/// Rounds over the shape list per pass of the op list; each round is
/// `SHAPES.len() / 2` campaigns, so a pass is 12 campaigns.
const ROUNDS: usize = 6;
/// Run seconds per pass over the op list.
const SECONDS_PER_PASS: f64 = 7.0;

pub struct FleetCampaign {
    /// The two shapes of each op's corpus.
    ops: Vec<[&'static str; 2]>,
    passes: usize,
}

pub struct Env {
    dir: PathBuf,
    corpora: Vec<Vec<(String, Fsm)>>,
}

fn options() -> SuiteOptions {
    SuiteOptions {
        latencies: LATENCIES.to_vec(),
        ..SuiteOptions::default()
    }
}

/// One campaign in `dir`; returns the merged report and the reassigned
/// lease count.
fn campaign(dir: &Path, corpus: &[(String, Fsm)]) -> Result<(String, usize), String> {
    let opts = options();
    let cancel = CancelToken::new();
    // The workers run storeless. `ced fleet worker` shares a store in
    // the campaign directory, but in a fresh campaign of distinct
    // machines every lookup misses, and on an ordinary disk every put is
    // synced: the syncs pushed a unit past a heartbeat period on some
    // campaigns and not on others.
    let outcome = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (opts, cancel) = (&opts, &cancel);
                scope.spawn(move || {
                    let wopts = WorkerOptions {
                        worker_id: format!("bench{w}"),
                        ..WorkerOptions::default()
                    };
                    run_worker(dir, opts, &wopts, &CellLibrary::new(), cancel, None)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let outcome = run_coordinator(dir, corpus, &opts, &CoordinatorOptions::default(), &cancel)
            .map_err(|e| e.to_string());
        if outcome.is_err() {
            cancel.cancel();
        }
        for w in workers {
            w.join().map_err(|_| "worker panicked".to_string())??;
        }
        outcome
    })?;
    outcome
        .ledger
        .check_accounting(corpus.len())
        .map_err(|unit| format!("ledger accounting fails on unit {unit}"))?;
    Ok((outcome.report.to_json(), outcome.reassigned))
}

fn serial(corpus: &[(String, Fsm)]) -> Result<String, String> {
    run_suite(corpus, &options(), &CellLibrary::new(), SuiteControl::new())
        .map(|r| r.to_json())
        .map_err(|e| e.to_string())
}

impl FleetCampaign {
    pub fn new(seed: u64, seconds: u64, tiny: bool) -> FleetCampaign {
        let (shapes, rounds, passes): (&[&'static str], usize, usize) = if tiny {
            (&SHAPES[..2], 11, 2)
        } else {
            let passes = (seconds as f64 / SECONDS_PER_PASS).round().max(1.0);
            (&SHAPES, ROUNDS, passes as usize)
        };
        let mut ops = Vec::new();
        for round in 0..rounds {
            let mut order = shapes.to_vec();
            shuffle(&mut order, mix(seed, round as u64));
            ops.extend(order.chunks(2).map(|pair| [pair[0], pair[1]]));
        }
        FleetCampaign { ops, passes }
    }

    fn corpus(names: &[&str]) -> Vec<(String, Fsm)> {
        names
            .iter()
            .map(|name| {
                let fsm =
                    ced_fsm::kiss::parse(&suite_instance(name)).expect("generated KISS2 parses");
                (name.to_string(), fsm)
            })
            .collect()
    }
}

impl Workload for FleetCampaign {
    type Env = Env;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn pool_width(&self) -> usize {
        WORKERS
    }

    fn setup(&self, dir: &Path, _traced: bool) -> Result<Env, String> {
        let corpora = self.ops.iter().map(|names| Self::corpus(names)).collect();
        campaign(&dir.join("warmup"), &Self::corpus(&self.ops[0]))?;
        Ok(Env {
            dir: dir.to_path_buf(),
            corpora,
        })
    }

    fn run_op(&self, env: &mut Env, i: usize) -> Result<String, String> {
        campaign(&env.dir.join(format!("campaign{i}")), &env.corpora[i]).map(|(r, _)| r)
    }

    /// The campaign under one span; the serial `run_suite` of the same
    /// corpus runs beside it, outside the op, as its compute time.
    fn trace_op(&self, env: &mut Env, i: usize, t: &mut Tracer) -> Result<String, String> {
        let corpus = &env.corpora[i];
        let (_, compute_ms) = t.offline(|| serial(corpus));
        let dir = env.dir.join(format!("campaign{i}"));
        let start = std::time::Instant::now();
        let (report, reassigned) = t.span("fleet.campaign", || campaign(&dir, corpus))?;
        let campaign_ms = start.elapsed().as_secs_f64() * 1e3;
        t.add("fleet.compute_ms", compute_ms);
        t.add("fleet.protocol_ms", campaign_ms - compute_ms);
        t.add("fleet.units", corpus.len() as f64);
        t.add("fleet.reassigned", reassigned as f64);
        Ok(report)
    }

    /// The merged report must be byte-identical to a serial `run_suite`
    /// of the same corpus (the ledger audit ran inside the op).
    fn check_op(&self, i: usize, report: &str) -> Result<Quality, String> {
        if report != serial(&Self::corpus(&self.ops[i]))? {
            return Err("merged report differs from the serial run_suite report".into());
        }
        let doc = Json::parse(report).map_err(|e| e.to_string())?;
        let mut quality = Quality::default();
        for machine in array(doc.get("machines")) {
            let report = machine.get("report").ok_or("suite record has no report")?;
            for l in array(report.get("latencies")) {
                let cost = l.get("cost");
                quality.parity_trees += number(cost.and_then(|c| c.get("parity_functions"))) as u64;
                quality.checker_area += number(cost.and_then(|c| c.get("area")));
            }
        }
        Ok(quality)
    }
}
