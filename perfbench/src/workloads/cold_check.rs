//! `cold-check`: Algorithm 1 at latency 2 on machines the run has not
//! seen, against one shared store, so every lookup misses and every
//! artifact is written. The store is in memory: a directory store must
//! live inside the checkout, and its per-put file syncs on an ordinary
//! disk made op times too unsteady to compare (see README.md).

use crate::common::{add_store_delta, store_snapshot};
use crate::common::{check_request, gen_scaled, mix, parse_check_payload, shuffle, traced_check};
use crate::trace::Tracer;
use crate::{Quality, Workload};
use ced_core::pipeline::{build_input_model, fault_list, prepare_machine, PipelineOptions};
use ced_par::ParExec;
use ced_runtime::Budget;
use ced_serve::ops;
use ced_store::Store;
use std::path::Path;

const LATENCY: usize = 2;
/// Scales of the `ced gen` machines: 90 to 150 states.
const SCALES: [usize; 5] = [6, 7, 8, 9, 10];
/// Generator seed of the machine pool.
const POOL_SEED: u64 = 0xC01D_C4EC;
/// Machines per scale in the op list.
const PER_SCALE: usize = 5;
/// Run seconds per pass over the op list.
const SECONDS_PER_PASS: f64 = 15.0;

pub struct ColdCheck {
    /// `(scale, machine seed)` per op.
    ops: Vec<(usize, u64)>,
    warmup: (usize, u64),
    passes: usize,
}

pub struct Env {
    store: Store,
    pool: ParExec,
    inputs: Vec<String>,
}

impl ColdCheck {
    /// The same machines for every seed: per scale, instances drawn
    /// with fixed generator seeds, so every seed does the same work and
    /// the cover-quality sums repeat across seeds. The seed orders them.
    pub fn new(seed: u64, seconds: u64, tiny: bool) -> ColdCheck {
        let (scales, per_scale, passes): (&[usize], usize, usize) = if tiny {
            (&[1, 2], 6, 2)
        } else {
            let passes = (seconds as f64 / SECONDS_PER_PASS).round().max(1.0);
            (&SCALES, PER_SCALE, passes as usize)
        };
        let mut ops = Vec::new();
        for &scale in scales {
            for k in 0..per_scale {
                ops.push((scale, mix(POOL_SEED, (scale * 1000 + k) as u64)));
            }
        }
        shuffle(&mut ops, mix(seed, u64::MAX));
        ColdCheck {
            ops,
            warmup: (scales[0], mix(POOL_SEED, u64::MAX)),
            passes,
        }
    }

    fn inputs(&self) -> Vec<String> {
        self.ops
            .iter()
            .map(|&(s, seed)| gen_scaled(s, seed))
            .collect()
    }
}

impl Workload for ColdCheck {
    type Env = Env;

    fn op_count(&self) -> usize {
        self.ops.len()
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn pool_width(&self) -> usize {
        1
    }

    fn setup(&self, _dir: &Path, _traced: bool) -> Result<Env, String> {
        let inputs = self.inputs();
        let store = Store::in_memory();
        let pool = ParExec::new(1);
        let warmup = check_request(&gen_scaled(self.warmup.0, self.warmup.1), LATENCY);
        ops::execute(&warmup, &Budget::new(), &pool, Some(&store)).map_err(|e| e.to_string())?;
        Ok(Env {
            store,
            pool,
            inputs,
        })
    }

    fn run_op(&self, env: &mut Env, i: usize) -> Result<String, String> {
        let request = check_request(&env.inputs[i], LATENCY);
        ops::execute(&request, &Budget::new(), &env.pool, Some(&env.store))
            .map(|out| out.payload)
            .map_err(|e| e.to_string())
    }

    fn trace_op(&self, env: &mut Env, i: usize, t: &mut Tracer) -> Result<String, String> {
        let request = check_request(&env.inputs[i], LATENCY);
        let before = store_snapshot(&env.store);
        let out = traced_check(t, &request, None, &env.pool, Some(&env.store));
        add_store_delta(t, before, store_snapshot(&env.store));
        out.map(|(payload, _)| payload)
    }

    /// The payload must equal a storeless serial `check` of the same
    /// machine, and its cover must pass the independent product-machine
    /// search of `ced_cert::soundness::verify_solution`.
    fn check_op(&self, i: usize, payload: &str) -> Result<Quality, String> {
        let (scale, seed) = self.ops[i];
        let kiss2 = gen_scaled(scale, seed);
        let request = check_request(&kiss2, LATENCY);
        let reference = ops::execute(&request, &Budget::new(), &ParExec::new(1), None)
            .map_err(|e| format!("reference failed: {e}"))?;
        if payload != reference.payload {
            return Err("payload differs from the storeless serial reference".into());
        }
        let claim = parse_check_payload(payload).ok_or("payload has no cover")?;
        let options = PipelineOptions::paper_defaults();
        let fsm = ced_fsm::kiss::parse(&kiss2).map_err(|e| e.to_string())?;
        let (encoded, circuit) = prepare_machine(&fsm, &options).map_err(|e| e.to_string())?;
        let input_model =
            build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity);
        let soundness = ced_cert::soundness::verify_solution(
            &circuit,
            &fault_list(&circuit, &options),
            options.fault_model,
            &input_model,
            options.semantics,
            &claim.masks,
            LATENCY,
            &Budget::new(),
        )
        .map_err(|e| e.to_string())?;
        if !soundness.is_certified() {
            return Err("cover refuted by the product-machine search".into());
        }
        Ok(claim.quality())
    }
}
