//! Input generation, payload parsing and the traced breakdown of a
//! `check` op, shared by the workloads.

use crate::trace::Tracer;
use ced_core::pipeline::{
    build_input_model, delta_seed, fault_list, machine_delta, minimize_parity_functions_stored,
    prepare_machine_stored,
};
use ced_core::synthesize_ced;
use ced_fsm::generator::{generate, scaled_workload};
use ced_fsm::suite::paper_table1_scaled;
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{Budget, Json};
use ced_serve::{DeltaSummary, OpKind, OpRequest};
use ced_sim::cone::cone_keys;
use ced_sim::detect::{BuildControl, DetectOptions, DetectabilityTable};
use ced_store::{Store, TENSOR_FRAG_STAGE};
use std::collections::HashSet;
use std::fmt::Write as _;

/// SplitMix64 of `seed` and `i`: the one source of derived seeds.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The elements of a JSON array field (none when absent).
pub fn array(j: Option<&Json>) -> &[Json] {
    j.and_then(Json::as_array).unwrap_or_default()
}

/// A JSON number field as `f64` (0 when absent).
pub fn number(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Float(v)) => *v,
        Some(Json::Int(v)) => *v as f64,
        Some(v) => v.as_u64().unwrap_or(0) as f64,
        None => 0.0,
    }
}

/// KISS2 text of the `ced gen` machine at `scale` (15 × scale states).
pub fn gen_scaled(scale: usize, seed: u64) -> String {
    ced_fsm::kiss::to_string(&generate(&scaled_workload(scale, seed)))
}

/// KISS2 text of the suite's own instance of the scaled Table-1 shape
/// `name` (`CircuitSpec::build`).
pub fn suite_instance(name: &str) -> String {
    let spec = paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .expect("Table-1 shape");
    ced_fsm::kiss::to_string(&spec.build())
}

/// A `check` request at `latency` with CLI-default options.
pub fn check_request(kiss2: &str, latency: usize) -> OpRequest {
    let mut request = OpRequest::new(OpKind::Check, kiss2);
    request.latency = latency;
    request
}

/// What a `check` payload claims: the cover and the checker area.
pub struct CheckClaim {
    pub q: usize,
    pub area: f64,
    pub masks: Vec<u64>,
}

impl CheckClaim {
    pub fn quality(&self) -> crate::Quality {
        crate::Quality {
            parity_trees: self.q as u64,
            checker_area: self.area,
        }
    }
}

/// Reads `q`, the tree masks and the checker area from a `check`
/// payload; `None` when the text does not have that shape.
pub fn parse_check_payload(payload: &str) -> Option<CheckClaim> {
    let mut q = None;
    let mut area = None;
    let mut masks = Vec::new();
    for line in payload.lines() {
        if let Some(rest) = line.split_once("): q = ").map(|(_, r)| r) {
            q = rest.split_whitespace().next()?.parse().ok();
        } else if let Some(rest) = line.trim_start().strip_prefix("tree ") {
            let (_, taps) = rest.split_once(": ")?;
            let mut mask = 0u64;
            for tap in taps.split(" ⊕ ") {
                let bit: u32 = tap.strip_prefix('b')?.parse().ok()?;
                mask |= 1u64 << (bit - 1);
            }
            masks.push(mask);
        } else if let Some(rest) = line.strip_prefix("checker: ") {
            area = rest.rsplit_once("area ")?.1.trim().parse().ok();
        }
    }
    let q = q?;
    (q == masks.len()).then_some(CheckClaim {
        q,
        area: area?,
        masks,
    })
}

/// Store counters that per-layer metrics take deltas of.
#[derive(Clone, Copy, Default)]
pub struct StoreSnapshot {
    hits: u64,
    misses: u64,
    puts: u64,
    corrupt: u64,
    frag_hits: u64,
    frag_puts: u64,
    bytes: u64,
}

pub fn store_snapshot(store: &Store) -> StoreSnapshot {
    let stats = store.stats();
    let mut snap = StoreSnapshot {
        bytes: stats.bytes,
        ..StoreSnapshot::default()
    };
    for (stage, c) in &stats.stages {
        snap.hits += c.hits;
        snap.misses += c.misses;
        snap.puts += c.puts;
        snap.corrupt += c.corrupt;
        if stage == TENSOR_FRAG_STAGE {
            snap.frag_hits += c.hits;
            snap.frag_puts += c.puts;
        }
    }
    snap
}

/// Adds the store activity between two snapshots to the counters.
pub fn add_store_delta(t: &mut Tracer, before: StoreSnapshot, after: StoreSnapshot) {
    t.add("store.hits", (after.hits - before.hits) as f64);
    t.add("store.misses", (after.misses - before.misses) as f64);
    t.add("store.puts", (after.puts - before.puts) as f64);
    t.add("store.corrupt", (after.corrupt - before.corrupt) as f64);
    t.add(
        "store.frag_hits",
        (after.frag_hits - before.frag_hits) as f64,
    );
    t.add(
        "store.frag_puts",
        (after.frag_puts - before.frag_puts) as f64,
    );
    t.add(
        "store.bytes",
        after.bytes.saturating_sub(before.bytes) as f64,
    );
}

/// A `check` op (plain, or baseline-seeded as `analyze-delta` runs it)
/// broken into the public calls `ced_serve::ops` makes, in the same
/// order, each inside a span. Returns the payload and the delta line;
/// both must equal what `ops::execute` returns for the same request.
pub fn traced_check(
    t: &mut Tracer,
    request: &OpRequest,
    baseline: Option<&str>,
    pool: &ParExec,
    store: Option<&Store>,
) -> Result<(String, Option<String>), String> {
    let fsm = t
        .span("fsm.parse", || ced_fsm::kiss::parse(&request.kiss2))
        .map_err(|e| format!("machine: {e}"))?;
    let base = match baseline {
        Some(text) => Some(
            t.span("fsm.parse", || ced_fsm::kiss::parse(text))
                .map_err(|e| format!("baseline machine: {e}"))?,
        ),
        None => None,
    };
    let lib = CellLibrary::new();
    let options = &request.options;
    let (encoded, circuit) = t
        .span("logic.synth", || {
            prepare_machine_stored(&fsm, options, store)
        })
        .map_err(|e| e.to_string())?;
    t.add("logic.gates", circuit.netlist().gate_count() as f64);
    let input_model = t.span("sim.inputs", || {
        build_input_model(encoded.fsm(), encoded.encoding(), options.input_granularity)
    });
    let faults = t.span("sim.faults", || fault_list(&circuit, options));
    t.add("sim.faults", faults.len() as f64);
    let detect_options = DetectOptions {
        latency: request.latency,
        semantics: options.semantics,
        input_model,
        fault_model: options.fault_model,
        ..DetectOptions::default()
    };

    let mut delta = None;
    let mut summary = None;
    if let Some(base) = &base {
        let (base_encoded, base_circuit) = t
            .span("logic.synth", || {
                prepare_machine_stored(base, options, store)
            })
            .map_err(|e| e.to_string())?;
        let seed = t.span("core.delta", || {
            delta_seed(
                &base_encoded,
                &base_circuit,
                &circuit,
                &detect_options,
                options.input_granularity,
            )
        });
        let base_faults = t.span("sim.faults", || fault_list(&base_circuit, options));
        let base_keys: HashSet<u64> = t.span("sim.cones", || {
            cone_keys(base_circuit.netlist(), &base_faults, options.fault_model)
                .into_iter()
                .collect()
        });
        let new_keys = t.span("sim.cones", || {
            cone_keys(circuit.netlist(), &faults, options.fault_model)
        });
        let delta_class = t.span("core.delta", || machine_delta(base, &fsm));
        let cones_dirty = new_keys.iter().filter(|k| !base_keys.contains(k)).count();
        t.add("sim.cones_dirty", cones_dirty as f64);
        summary = Some(DeltaSummary {
            delta: delta_class,
            cones_total: new_keys.len(),
            cones_dirty,
            changed_codes: seed.as_ref().map_or(0, |s| s.changed_codes.len()),
            seeded: seed.is_some(),
        });
        delta = seed;
    }

    let budget = Budget::new();
    let (table, dstats) = t
        .span("sim.tensor", || {
            DetectabilityTable::build_many_controlled(
                &circuit,
                &faults,
                &detect_options,
                &[request.latency],
                BuildControl {
                    store,
                    pool: Some(pool),
                    delta,
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

    let mut out = t.span("op.render", || {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault model ({}): {} faults ({} untestable), {} activations, {} minimal erroneous cases",
            options.fault_model,
            dstats.faults,
            dstats.untestable_faults,
            dstats.activations,
            table.len()
        );
        out
    });
    let outcome = t.span("core.search", || {
        minimize_parity_functions_stored(&table, &options.ced, store)
    });
    t.add("lp.solves", outcome.lp_solves as f64);
    t.add("core.rounding_attempts", outcome.rounding_attempts as f64);
    t.add("core.q_probes", outcome.feasibility_trace.len() as f64);
    t.add(
        "core.q_feasible",
        outcome.feasibility_trace.iter().filter(|(_, f)| *f).count() as f64,
    );
    t.add("core.degraded", f64::from(!outcome.degradation.is_empty()));
    t.span("op.render", || {
        let _ = writeln!(
            out,
            "Algorithm 1 (p = {}): q = {} parity trees ({} LP solves, {} rounding attempts)",
            request.latency, outcome.q, outcome.lp_solves, outcome.rounding_attempts
        );
        if !outcome.degradation.is_empty() {
            let _ = writeln!(out, "solved by {} after degradation:", outcome.method);
            for event in &outcome.degradation {
                let _ = writeln!(out, "  {event}");
            }
        }
        for (i, &mask) in outcome.cover.masks.iter().enumerate() {
            let taps: Vec<String> = (0..circuit.total_bits())
                .filter(|j| (mask >> j) & 1 == 1)
                .map(|j| format!("b{}", j + 1))
                .collect();
            let _ = writeln!(out, "  tree {}: {}", i + 1, taps.join(" ⊕ "));
        }
    });
    let cost = t.span("core.checker", || {
        synthesize_ced(&circuit, &outcome.cover, request.latency, &options.minimize).cost(&lib)
    });
    t.add("core.checker_gates", cost.gates as f64);
    t.span("op.render", || {
        let _ = writeln!(
            out,
            "checker: {} gates, {} hold FFs, area {:.1}",
            cost.gates, cost.flip_flops, cost.area
        );
    });
    Ok((out, summary.map(|s| s.render_line())))
}
