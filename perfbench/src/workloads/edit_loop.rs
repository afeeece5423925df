//! `edit-loop`: a chain of `analyze-delta` requests, each naming the
//! previous version as its baseline. Two edit classes: `flip` inverts
//! one more specified output bit (an output-only delta), `resave` sends
//! the current version again (an identical delta). The chain is the
//! same for every seed, so every run analyses the same versions.
//!
//! The timed loop calls `ops::execute`, the code a `ced serve` daemon
//! runs for `analyze-delta`, against one in-memory store. The daemon
//! needs a store directory, which must live inside the checkout, where
//! every put is synced to disk: that made the median and tail vary by
//! 30% between runs. The traced run sends every request to a real
//! in-process daemon over TCP as well, and reports the round trip, the
//! execution time and the wire between them (`serve.*`).

use crate::common::{add_store_delta, check_request, gen_scaled, shuffle, store_snapshot};
use crate::common::{parse_check_payload, traced_check};
use crate::trace::Tracer;
use crate::{Quality, Workload};
use ced_fsm::machine::{Fsm, OutputValue};
use ced_par::ParExec;
use ced_runtime::{fnv1a64, Budget, Json};
use ced_serve::{ops, Client, ServeOptions, Server};
use ced_store::Store;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

const LATENCY: usize = 2;
/// The one machine the chain edits: `ced gen --scale 3 --seed 3`.
const BASE: (usize, u64) = (3, 3);
/// Resaves per block; `FLIPS` flips follow in each block, the same in
/// every block. All op latencies drift together with the host's speed,
/// and a quantile low in its class moves less than a high one: with
/// five resaves to every flip the median is p60 of the resave runs
/// (three to two would make it p83), and the tail (ten runs beyond it)
/// falls among the flips.
const RESAVES: usize = 5;
const FLIPS: usize = 1;
/// Blocks per pass: 96 ops, 16 of them flips.
const BLOCKS: usize = 16;
/// Run seconds per pass over the chain.
const SECONDS_PER_PASS: f64 = 9.0;

#[derive(Clone, Copy, PartialEq)]
enum Edit {
    Flip,
    Resave,
}

pub struct EditLoop {
    scale: usize,
    passes: usize,
    edits: Vec<Edit>,
    /// The chain, built once for the check phase.
    check_steps: OnceLock<Vec<Step>>,
    /// From-scratch payloads by machine text: a resave repeats the
    /// version before it.
    references: Mutex<HashMap<String, String>>,
}

/// One request of the chain: the machine sent and the version it names
/// as baseline.
struct Step {
    edit: Edit,
    machine: String,
    baseline: String,
}

pub struct Env {
    store: Store,
    pool: ParExec,
    steps: Vec<Step>,
    /// Traced runs only: the daemon, its client and a store primed the
    /// same way for timing the in-process execution of each request.
    serve: Option<Serve>,
}

struct Serve {
    server: Server,
    client: Client,
    exec_store: Store,
}

/// `fsm` with the output bit `bit` of transition `t_idx` inverted.
fn with_flipped_output(fsm: &Fsm, t_idx: usize, bit: usize) -> Fsm {
    let mut out = Fsm::new(fsm.name(), fsm.num_inputs(), fsm.num_outputs());
    for s in fsm.state_names() {
        out.add_state(s.clone());
    }
    out.set_reset_state(fsm.reset_state())
        .expect("reset state exists");
    for (i, t) in fsm.transitions().iter().enumerate() {
        let mut output = t.output.clone();
        if i == t_idx {
            output[bit] = match output[bit] {
                OutputValue::Zero => OutputValue::One,
                OutputValue::One => OutputValue::Zero,
                OutputValue::DontCare => OutputValue::DontCare,
            };
        }
        out.add_transition(t.input.clone(), t.from, t.to, output)
            .expect("same transition set");
    }
    out
}

fn request_line(id: usize, step: &Step, cmd: &str) -> String {
    let mut fields = vec![
        ("id".to_string(), Json::str(&id.to_string())),
        ("cmd".to_string(), Json::str(cmd)),
        ("machine".to_string(), Json::str(&step.machine)),
        ("latency".to_string(), Json::UInt(LATENCY as u64)),
    ];
    if cmd == "analyze-delta" {
        fields.push((
            "baseline_fp".to_string(),
            Json::UInt(fnv1a64(step.baseline.as_bytes())),
        ));
    }
    Json::Object(fields).render()
}

/// What one op returns: the delta line, then the payload.
fn op_output(delta: Option<&str>, payload: &str) -> String {
    format!("{}\n{payload}", delta.unwrap_or("no delta"))
}

/// One request line to the daemon; returns the response line and the
/// op output it carries.
fn send_raw(client: &mut Client, line: &str) -> Result<(String, String), String> {
    client.send_line(line).map_err(|e| e.to_string())?;
    let reply = client.recv_line().map_err(|e| e.to_string())?;
    let doc = Json::parse(&reply).map_err(|e| e.to_string())?;
    if doc.get("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("daemon refused: {reply}"));
    }
    let payload = doc
        .get("payload")
        .and_then(Json::as_str)
        .ok_or("response has no payload")?;
    let output = op_output(doc.get("delta").and_then(Json::as_str), payload);
    Ok((reply, output))
}

fn send(client: &mut Client, line: &str) -> Result<String, String> {
    send_raw(client, line).map(|(_, output)| output)
}

fn delta_request(step: &Step) -> ced_serve::OpRequest {
    let mut request = check_request(&step.machine, LATENCY);
    request.baseline = Some(step.baseline.clone());
    request
}

fn execute(step: &Step, pool: &ParExec, store: Option<&Store>) -> Result<ops::OpOutput, String> {
    ops::execute(&delta_request(step), &Budget::new(), pool, store).map_err(|e| e.to_string())
}

impl EditLoop {
    pub fn new(seconds: u64, tiny: bool) -> EditLoop {
        let (scale, blocks, passes) = if tiny {
            (1, 3, 2)
        } else {
            let passes = (seconds as f64 / SECONDS_PER_PASS).round().max(1.0);
            (BASE.0, BLOCKS, passes as usize)
        };
        let mut edits = Vec::new();
        for _ in 0..blocks {
            edits.extend([Edit::Resave; RESAVES]);
            edits.extend([Edit::Flip; FLIPS]);
        }
        EditLoop {
            scale,
            passes,
            edits,
            check_steps: OnceLock::new(),
            references: Mutex::new(HashMap::new()),
        }
    }

    fn base(&self) -> String {
        gen_scaled(self.scale, BASE.1)
    }

    /// The chain: every flip inverts one more specified output bit of
    /// the current version, at distinct transitions drawn with a fixed
    /// seed.
    fn steps(&self) -> Vec<Step> {
        let base = self.base();
        let fsm = ced_fsm::kiss::parse(&base).expect("generated KISS2 parses");
        let transitions = fsm.transitions();
        let flips = self.edits.iter().filter(|&&e| e == Edit::Flip).count();
        let mut order: Vec<usize> = (0..transitions.len()).collect();
        shuffle(&mut order, BASE.1);
        let bits: Vec<(usize, usize)> = order
            .into_iter()
            .filter_map(|t| {
                let outs = &transitions[t].output;
                (0..outs.len())
                    .find(|&b| outs[b] != OutputValue::DontCare)
                    .map(|b| (t, b))
            })
            .take(flips)
            .collect();
        assert_eq!(bits.len(), flips, "enough specified output bits");

        let mut current = fsm;
        let mut current_text = base;
        let mut next_bit = bits.into_iter();
        let mut steps = Vec::with_capacity(self.edits.len());
        for &edit in &self.edits {
            let machine = match edit {
                Edit::Resave => current_text.clone(),
                Edit::Flip => {
                    let (t_idx, bit) = next_bit.next().expect("one bit per flip");
                    current = with_flipped_output(&current, t_idx, bit);
                    ced_fsm::kiss::to_string(&current)
                }
            };
            steps.push(Step {
                edit,
                machine: machine.clone(),
                baseline: current_text,
            });
            current_text = machine;
        }
        steps
    }
}

impl Workload for EditLoop {
    type Env = Env;

    fn op_count(&self) -> usize {
        self.edits.len()
    }

    fn passes(&self) -> usize {
        self.passes
    }

    fn pool_width(&self) -> usize {
        ServeOptions::default().jobs
    }

    /// Opens the store, primes it with a `check` of the base version
    /// and runs one resave; traced, does the same to the daemon and to
    /// a second store.
    fn setup(&self, dir: &Path, traced: bool) -> Result<Env, String> {
        let steps = self.steps();
        let base = self.base();
        let prime = Step {
            edit: Edit::Resave,
            machine: base.clone(),
            baseline: base,
        };
        let pool = ParExec::new(ServeOptions::default().jobs);
        let prime_store = |store: &Store| -> Result<(), String> {
            let check = check_request(&prime.machine, LATENCY);
            ops::execute(&check, &Budget::new(), &pool, Some(store)).map_err(|e| e.to_string())?;
            execute(&prime, &pool, Some(store)).map(|_| ())
        };
        let store = Store::in_memory();
        prime_store(&store)?;
        let serve = if traced {
            let exec_store = Store::open(&dir.join("exec-store")).map_err(|e| e.to_string())?;
            prime_store(&exec_store)?;
            let server = Server::start(ServeOptions {
                store_dir: Some(dir.join("serve-store")),
                ..ServeOptions::default()
            })
            .map_err(|e| e.to_string())?;
            let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
            send(&mut client, &request_line(0, &prime, "check"))?;
            send(&mut client, &request_line(0, &prime, "analyze-delta"))?;
            Some(Serve {
                server,
                client,
                exec_store,
            })
        } else {
            None
        };
        Ok(Env {
            store,
            pool,
            steps,
            serve,
        })
    }

    fn run_op(&self, env: &mut Env, i: usize) -> Result<String, String> {
        let out = execute(&env.steps[i], &env.pool, Some(&env.store))?;
        Ok(op_output(out.delta.as_deref(), &out.payload))
    }

    /// The request through the daemon and through `ops::execute` on a
    /// directory store (both outside the op), then the op broken into
    /// spans on the in-memory store. All three outputs must agree.
    fn trace_op(&self, env: &mut Env, i: usize, t: &mut Tracer) -> Result<String, String> {
        let step = &env.steps[i];
        let serve = env.serve.as_mut().ok_or("traced replay needs the daemon")?;
        let line = request_line(i + 1, step, "analyze-delta");
        let (served, rtt_ms) = t.offline(|| send_raw(&mut serve.client, &line));
        let (reply, served) = served?;
        let (exec, exec_ms) = t.offline(|| execute(step, &env.pool, Some(&serve.exec_store)));
        let exec = exec?;
        t.add("serve.rtt_ms", rtt_ms);
        t.add("serve.exec_ms", exec_ms);
        t.add("serve.wire_ms", rtt_ms - exec_ms);
        t.add("serve.req_bytes", (line.len() + 1) as f64);
        t.add("serve.resp_bytes", (reply.len() + 1) as f64);

        let before = store_snapshot(&env.store);
        let out = traced_check(
            t,
            &delta_request(step),
            Some(&step.baseline),
            &env.pool,
            Some(&env.store),
        );
        add_store_delta(t, before, store_snapshot(&env.store));
        let (payload, delta) = out?;
        let output = op_output(delta.as_deref(), &payload);
        if output != served || output != op_output(exec.delta.as_deref(), &exec.payload) {
            return Err("daemon, ops::execute and traced outputs differ".into());
        }
        Ok(output)
    }

    fn teardown(&self, env: Env) {
        if let Some(serve) = env.serve {
            drop(serve.client);
            serve.server.stop();
            serve.server.wait();
        }
    }

    /// The payload must equal a from-scratch storeless `check` of the
    /// edited machine, and the delta line must name the planned class.
    fn check_op(&self, i: usize, output: &str) -> Result<Quality, String> {
        let step = &self.check_steps.get_or_init(|| self.steps())[i];
        let (delta, payload) = output.split_once('\n').ok_or("no delta line")?;
        let class = match step.edit {
            Edit::Resave => "delta: identical;",
            Edit::Flip => "delta: output-only",
        };
        if !delta.starts_with(class) {
            return Err(format!("delta line `{delta}` is not `{class}`"));
        }
        let cached = self.references.lock().unwrap().get(&step.machine).cloned();
        let reference = match cached {
            Some(r) => r,
            None => {
                let request = check_request(&step.machine, LATENCY);
                let r = ops::execute(&request, &Budget::new(), &ParExec::new(1), None)
                    .map_err(|e| format!("reference failed: {e}"))?
                    .payload;
                let mut references = self.references.lock().unwrap();
                references.insert(step.machine.clone(), r.clone());
                r
            }
        };
        if payload != reference {
            return Err("payload differs from the from-scratch reference".into());
        }
        parse_check_payload(payload)
            .map(|c| c.quality())
            .ok_or_else(|| "payload has no cover".into())
    }
}
