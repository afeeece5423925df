//! `signoff`: per machine, `certify` at latencies 1 and 2, then an
//! `inject` campaign at latency 2, on a pool of width 2. Each of the
//! two `ops::execute` calls is one op, so a machine is two ops in a row.
//!
//! The machines are the suite's own instances of the scaled Table-1
//! shapes in `MACHINES`, each with fixed request seeds (the
//! certifier's sampling and the inject campaign's stimulus), so every
//! seed does the same work; the seed orders the machines. Fresh random
//! instances of these shapes are not used: the certifier's greedy
//! differential refutes the pipeline's cover as non-minimal on a share
//! of them (see README.md), so no seed-independent list of them would
//! sign off cleanly.

use crate::common::{array, mix, number, shuffle, suite_instance};
use crate::trace::Tracer;
use crate::{Quality, Workload};
use ced_core::pipeline::{
    fault_list, prepare_machine_stored, run_circuit_controlled, PipelineControl,
};
use ced_core::search::minimize_parity_functions;
use ced_core::synthesize_ced;
use ced_inject::{run_campaign_stored, CampaignOptions};
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::{ops, OpKind, OpRequest};
use ced_sim::detect::{BuildControl, DetectOptions, DetectabilityTable, InputModel, Semantics};
use std::path::Path;

const POOL: usize = 2;
/// The certify latencies; inject runs at the last one.
const LATENCIES: [usize; 2] = [1, 2];
/// The shapes signed off and the machines of each in the op list. A
/// machine's certify and inject ops land in different latency classes
/// (on a 2-vCPU host, in ms: s298 inject ~390, keyb certify ~450, tbk
/// certify ~590, keyb inject ~750, tbk inject ~970, s298 certify
/// ~1,460; dk16 both under 100). Over three passes these counts put
/// `op_ms.p50` in the middle of the tbk certify class and `op_ms.tail`
/// (p79.2 of 48 op runs) inside the tbk inject class, not on a boundary
/// between two classes.
const MACHINES: [(&str, usize); 4] = [("keyb", 1), ("tbk", 4), ("s298", 1), ("dk16", 2)];
/// Run seconds per pass over the op list.
const SECONDS_PER_PASS: f64 = 9.5;
/// Seed of the request seeds; the same for every `--seed`.
const REQUEST_SEED: u64 = 0x5161_0FF5;

pub struct Signoff {
    /// `(shape, request seed)` per machine; machine `m` is ops `2m`
    /// (certify) and `2m + 1` (inject).
    machines: Vec<(&'static str, u64)>,
    warmup: (&'static str, u64),
    passes: usize,
}

pub struct Env {
    pool: ParExec,
    inputs: Vec<String>,
}

/// The request op `i` of machine `kiss2` sends: certify for even `i`,
/// inject for odd.
fn request(kiss2: &str, seed: u64, i: usize) -> OpRequest {
    if i.is_multiple_of(2) {
        let mut certify = OpRequest::new(OpKind::Certify, kiss2);
        certify.latencies = LATENCIES.to_vec();
        certify.seed = seed;
        certify
    } else {
        let mut inject = OpRequest::new(OpKind::Inject, kiss2);
        inject.latency = LATENCIES[LATENCIES.len() - 1];
        inject.seed = seed;
        inject
    }
}

fn execute(request: &OpRequest, pool: &ParExec) -> Result<String, String> {
    ops::execute(request, &Budget::new(), pool, None)
        .map(|out| out.payload)
        .map_err(|e| e.to_string())
}

impl Signoff {
    pub fn new(seed: u64, seconds: u64, tiny: bool) -> Signoff {
        let (shapes, passes): (&[(&'static str, usize)], usize) = if tiny {
            (&[("s27", 6), ("tav", 6)], 2)
        } else {
            let passes = (seconds as f64 / SECONDS_PER_PASS).round().max(1.0);
            (&MACHINES, passes as usize)
        };
        let mut machines = Vec::new();
        for &(name, count) in shapes {
            for _ in 0..count {
                machines.push((name, mix(REQUEST_SEED, machines.len() as u64)));
            }
        }
        shuffle(&mut machines, mix(seed, u64::MAX));
        let warmup = ("dk16", mix(REQUEST_SEED, u64::MAX));
        Signoff {
            machines,
            warmup,
            passes,
        }
    }

    fn inputs(&self) -> Vec<String> {
        self.machines
            .iter()
            .map(|(name, _)| suite_instance(name))
            .collect()
    }
}

/// The certify op as `ops::certify_json` runs it, each call under a span.
fn trace_certify(request: &OpRequest, pool: &ParExec, t: &mut Tracer) -> Result<String, String> {
    let lib = CellLibrary::new();
    let fsm = t
        .span("fsm.parse", || ced_fsm::kiss::parse(&request.kiss2))
        .map_err(|e| e.to_string())?;
    let budget = Budget::new();
    let report = t
        .span("core.pipeline", || {
            run_circuit_controlled(
                &fsm,
                &request.latencies,
                &request.options,
                &lib,
                PipelineControl {
                    pool: Some(pool),
                    ..PipelineControl::new(&budget)
                },
            )
        })
        .map_err(|e| e.to_string())?;
    let budget = Budget::new();
    let cert = t
        .span("cert.verify", || {
            ced_cert::certify_report_stored(
                &fsm,
                &report,
                &request.options,
                &ced_cert::CertifyOptions {
                    seed: request.seed,
                    ..ced_cert::CertifyOptions::default()
                },
                &budget,
                pool,
                None,
            )
        })
        .map_err(|e| e.to_string())?;
    t.add("cert.verify_ticks", budget.ticks() as f64);
    let cert_payload = t.span("op.render", || {
        ced_cert::report::cert_report_json(&[cert]).render()
    });
    Ok(cert_payload)
}

/// The inject op as `ops::inject_text` runs it, each call under a span.
fn trace_inject(request: &OpRequest, pool: &ParExec, t: &mut Tracer) -> Result<String, String> {
    let options = &request.options;
    let fsm = t
        .span("fsm.parse", || ced_fsm::kiss::parse(&request.kiss2))
        .map_err(|e| e.to_string())?;
    let (_, circuit) = t
        .span("logic.synth", || {
            prepare_machine_stored(&fsm, options, None)
        })
        .map_err(|e| e.to_string())?;
    t.add("logic.gates", circuit.netlist().gate_count() as f64);
    let faults = t.span("sim.faults", || fault_list(&circuit, options));
    t.add("sim.faults", faults.len() as f64);
    let budget = Budget::new();
    let (table, dstats) = t
        .span("sim.tensor", || {
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &DetectOptions {
                    latency: request.latency,
                    semantics: Semantics::FaultyTrajectory,
                    input_model: InputModel::Exhaustive,
                    fault_model: options.fault_model,
                    ..DetectOptions::default()
                },
                &[request.latency],
                BuildControl {
                    store: None,
                    pool: Some(pool),
                    ..BuildControl::new(&budget)
                },
            )
        })
        .map_err(|e| e.to_string())?
        .pop()
        .expect("one latency requested");
    t.add("sim.tensor_ticks", budget.ticks() as f64);
    t.add("sim.rows", dstats.rows as f64);
    t.add("sim.rows_raw", dstats.rows_raw as f64);
    t.add("sim.activations", dstats.activations as f64);
    let outcome = t.span("core.search", || {
        minimize_parity_functions(&table, &options.ced)
    });
    t.add("lp.solves", outcome.lp_solves as f64);
    t.add("core.rounding_attempts", outcome.rounding_attempts as f64);
    t.add("core.q_probes", outcome.feasibility_trace.len() as f64);
    t.add(
        "core.q_feasible",
        outcome.feasibility_trace.iter().filter(|(_, f)| *f).count() as f64,
    );
    t.add("core.degraded", f64::from(!outcome.degradation.is_empty()));
    let ced = t.span("core.checker", || {
        synthesize_ced(&circuit, &outcome.cover, request.latency, &options.minimize)
    });
    let budget = Budget::new();
    let campaign = t
        .span("inject.campaign", || {
            run_campaign_stored(
                &circuit,
                &ced,
                &faults,
                &CampaignOptions {
                    steps: request.steps,
                    seed: request.seed ^ 0xCA3E,
                    checker_faults: request.checker_faults,
                    fault_model: options.fault_model,
                    ..CampaignOptions::default()
                },
                &budget,
                pool,
                None,
            )
        })
        .map_err(|e| format!("{e:?}"))?;
    t.add("inject.campaign_ticks", budget.ticks() as f64);
    t.add("inject.faults", campaign.machine.injected as f64);
    t.add(
        "inject.disagreements",
        campaign.machine.disagreements.len() as f64,
    );
    let campaign_payload = t.span("op.render", || campaign.render());
    Ok(campaign_payload)
}

impl Workload for Signoff {
    type Env = Env;

    fn op_count(&self) -> usize {
        2 * self.machines.len()
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn pool_width(&self) -> usize {
        POOL
    }

    fn setup(&self, _dir: &Path, _traced: bool) -> Result<Env, String> {
        let inputs = self.inputs();
        let pool = ParExec::new(POOL);
        let warmup = suite_instance(self.warmup.0);
        for i in 0..2 {
            execute(&request(&warmup, self.warmup.1, i), &pool)?;
        }
        Ok(Env { pool, inputs })
    }

    fn run_op(&self, env: &mut Env, i: usize) -> Result<String, String> {
        let seed = self.machines[i / 2].1;
        execute(&request(&env.inputs[i / 2], seed, i), &env.pool)
    }

    /// A certify op as `ops::certify_json` runs it, or an inject op as
    /// `ops::inject_text` runs it, each call under a span.
    fn trace_op(&self, env: &mut Env, i: usize, t: &mut Tracer) -> Result<String, String> {
        let request = request(&env.inputs[i / 2], self.machines[i / 2].1, i);
        if i.is_multiple_of(2) {
            trace_certify(&request, &env.pool, t)
        } else {
            trace_inject(&request, &env.pool, t)
        }
    }

    /// An inject op's campaign must be clean. Every stage of a certify
    /// op must read certified; its quality sums come from a storeless
    /// serial `table` run of the same machine, whose `q` per latency
    /// must equal the certified `q`.
    fn check_op(&self, i: usize, output: &str) -> Result<Quality, String> {
        if !i.is_multiple_of(2) {
            return if output.contains("disagreements vs V(i,j,k): none") {
                Ok(Quality::default())
            } else {
                Err("inject campaign is not clean".into())
            };
        }
        let cert = Json::parse(output).map_err(|e| e.to_string())?;
        let machine = cert
            .get("machines")
            .and_then(Json::as_array)
            .and_then(|m| m.first())
            .ok_or("certify report has no machine")?;
        let mut stages = vec![machine.get("synthesis")];
        let mut certified_q = Vec::new();
        for l in array(machine.get("latencies")) {
            certified_q.push(l.get("q").and_then(Json::as_u64));
            stages.extend(array(l.get("stages")).iter().map(Some));
        }
        if stages.len() < 2 + LATENCIES.len() {
            return Err("certify report lacks stages".into());
        }
        for stage in &stages {
            let outcome = stage.and_then(|s| s.get("outcome")).and_then(Json::as_str);
            if outcome != Some("certified") {
                let name = stage.and_then(|s| s.get("stage")).and_then(Json::as_str);
                return Err(format!("certify stage {name:?} reads {outcome:?}"));
            }
        }

        let kiss2 = suite_instance(self.machines[i / 2].0);
        let mut table = OpRequest::new(OpKind::Table, &kiss2);
        table.latencies = LATENCIES.to_vec();
        let reference = ops::execute(&table, &Budget::new(), &ParExec::new(1), None)
            .map_err(|e| format!("reference failed: {e}"))?;
        let reference = Json::parse(&reference.payload).map_err(|e| e.to_string())?;
        let mut quality = Quality::default();
        let mut reference_q = Vec::new();
        for l in array(reference.get("latencies")) {
            let cost = l.get("cost").ok_or("reference has no cost")?;
            let q = cost.get("parity_functions").and_then(Json::as_u64);
            reference_q.push(q);
            quality.parity_trees += q.unwrap_or(0);
            quality.checker_area += number(cost.get("area"));
        }
        if certified_q != reference_q || certified_q.len() != LATENCIES.len() {
            return Err(format!(
                "certified q {certified_q:?} differs from the reference {reference_q:?}"
            ));
        }
        Ok(quality)
    }
}
