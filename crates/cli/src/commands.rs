//! The `ced` subcommands.

use crate::exit::{report_status, ExitStatus};
use crate::options::{parse, parse_machines, parse_suite, Parsed};
use ced_core::pipeline::{
    prepare_machine, run_circuit_controlled, synthesize_circuit, PipelineControl, PipelineError,
    TableCheckpoint, TABLE_CHECKPOINT_KIND,
};
use ced_core::report::{degradation_notes, table1_header, table1_row};
use ced_core::suite::{SuiteCheckpoint, SuiteControl, SuiteError, SUITE_CHECKPOINT_KIND};
use ced_fsm::analysis::FsmStats;
use ced_fsm::machine::{FsmError, MAX_COMPLETION_INPUTS};
use ced_logic::gate::CellLibrary;
use ced_par::ParExec;
use ced_runtime::{load_checkpoint, save_checkpoint, Budget, Heartbeat};
use ced_serve::{ops, OpError, OpKind, OpRequest};
use ced_store::Store;
use std::path::Path;
use std::sync::Arc;

/// Every command resolves to a typed [`ExitStatus`]; `Err` is reserved
/// for usage and environment failures (exit code 1).
type CliResult = Result<ExitStatus, Box<dyn std::error::Error>>;

/// Loads a resume checkpoint, decoding `kind` and parsing with `parse`.
/// Corruption is *reported*, not fatal: the run falls back to a fresh
/// computation.
fn load_resume<T>(
    path: &str,
    kind: u16,
    parse: impl FnOnce(&[u8]) -> Result<T, ced_runtime::CheckpointError>,
) -> Option<T> {
    match load_checkpoint(Path::new(path), kind).and_then(|payload| parse(&payload)) {
        Ok(ckpt) => {
            eprintln!("[ced] resuming from checkpoint {path}");
            Some(ckpt)
        }
        Err(e) => {
            eprintln!("[ced] warning: checkpoint {path}: {e}; recomputing from scratch");
            None
        }
    }
}

/// Saves a checkpoint payload, downgrading failures to warnings (a
/// checkpoint that cannot be written must not kill the run it exists
/// to protect).
fn save_or_warn(path: &str, kind: u16, payload: &[u8]) {
    if let Err(e) = save_checkpoint(Path::new(path), kind, payload) {
        eprintln!("[ced] warning: cannot write checkpoint {path}: {e}");
    }
}

/// Opens the `--store` directory when one was given. Open failures are
/// fatal: a mistyped path silently recomputing everything would defeat
/// the point of asking for a store.
fn open_store(path: Option<&str>) -> Result<Option<Arc<Store>>, Box<dyn std::error::Error>> {
    match path {
        Some(dir) => Store::open(Path::new(dir))
            .map(|s| Some(Arc::new(s)))
            .map_err(|e| format!("cannot open store {dir}: {e}").into()),
        None => Ok(None),
    }
}

/// Persists the store index and reports per-stage hit/miss counters —
/// on stderr only, never stdout: the report a command emits must stay
/// byte-identical with and without a store.
fn finish_store(store: Option<&Store>, quiet: bool) {
    let Some(store) = store else { return };
    if let Err(e) = store.persist() {
        eprintln!("[ced] warning: cannot persist store index: {e}");
    }
    if quiet {
        return;
    }
    let stats = store.stats();
    let counters: Vec<String> = stats
        .stages
        .iter()
        .map(|(stage, c)| {
            format!(
                "{stage} {} hit / {} miss / {} put",
                c.hits, c.misses, c.puts
            )
        })
        .collect();
    eprintln!(
        "[ced] store: run {}, {} artifact(s), {} bytes; {}",
        stats.run,
        stats.entries,
        stats.bytes,
        if counters.is_empty() {
            "no lookups".to_string()
        } else {
            counters.join("; ")
        }
    );
}

/// Assembles the run budget from `--deadline-ms`/`--ticks`, plus a
/// heartbeat observer when the command reports progress.
fn run_budget(parsed: &Parsed, heartbeat: Option<Arc<Heartbeat>>) -> Budget {
    let mut budget = Budget::new();
    if let Some(heartbeat) = heartbeat {
        budget = budget.with_observer(1024, move |done, _bytes| heartbeat.observe(done));
    }
    if let Some(ms) = parsed.deadline_ms {
        budget = budget.with_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(t) = parsed.ticks {
        budget = budget.with_tick_cap(t);
    }
    budget
}

/// The shared analysis request for `kind` with the parsed flags. The
/// machine travels separately (already parsed), so `kiss2` stays empty.
fn op_request(kind: OpKind, parsed: &Parsed) -> OpRequest {
    let mut request = OpRequest::new(kind, "");
    request.latency = parsed.latency;
    request.latencies = parsed.latencies.clone();
    request.options = parsed.options.clone();
    request.seed = parsed.seed;
    request.steps = parsed.steps;
    request.checker_faults = parsed.checker_faults;
    request
}

/// Maps a failed analysis onto the exit table: a budget stop is
/// cancelled (4), anything else an error (1).
fn op_failure(command: &str, e: OpError) -> CliResult {
    match e {
        OpError::Interrupted(i) => {
            eprintln!("[ced] {command} {i}");
            Ok(ExitStatus::Cancelled)
        }
        e => Err(e.to_string().into()),
    }
}

/// `ced gen` — emit a seeded synthetic scaling machine as KISS2.
///
/// The workload is dk512-shaped (`ced_fsm::generator::scaled_workload`)
/// at `--scale` × the paper machine's 15 states; `--states` overrides
/// the state count directly. Output is deterministic in the flags:
/// `--jobs` is accepted (so campaign drivers can pass it uniformly) but
/// never changes a byte.
pub fn gen(args: &[String]) -> CliResult {
    let mut scale = 10usize;
    let mut states: Option<usize> = None;
    let mut seed = 0u64;
    let mut out: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a number")?
                    .parse()
                    .map_err(|_| "--scale needs a number")?;
                if scale == 0 {
                    return Err("--scale must be at least 1".into());
                }
            }
            "--states" => {
                let n: usize = it
                    .next()
                    .ok_or("--states needs a number")?
                    .parse()
                    .map_err(|_| "--states needs a number")?;
                if n == 0 {
                    return Err("--states must be at least 1".into());
                }
                states = Some(n);
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?;
            }
            "--out" => {
                out = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--jobs" => {
                let jobs: usize = it
                    .next()
                    .ok_or("--jobs needs a number")?
                    .parse()
                    .map_err(|_| "--jobs needs a number")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                // Generation is single-threaded and deterministic; the
                // flag exists so drivers can pass it uniformly.
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`").into());
            }
            other => {
                return Err(format!("unexpected argument `{other}`").into());
            }
        }
    }

    let mut cfg = ced_fsm::generator::scaled_workload(scale, seed);
    if let Some(n) = states {
        cfg.num_states = n;
        cfg.name = format!("gen{n}s");
        cfg.output_pool = (n / 3).clamp(2, 8);
    }
    let fsm = ced_fsm::generator::generate(&cfg);
    let text = ced_fsm::kiss::to_string(&fsm);
    match out {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "[ced] gen: {} states, {} inputs, {} outputs -> {path}",
                fsm.num_states(),
                fsm.num_inputs(),
                fsm.num_outputs()
            );
        }
        None => print!("{text}"),
    }
    Ok(ExitStatus::Ok)
}

/// `ced stats` — structural statistics of the machine.
pub fn stats(args: &[String]) -> CliResult {
    let Parsed { fsm, .. } = parse(args)?;
    println!("{}", FsmStats::of(&fsm));
    if fsm.check_complete().is_err() {
        if fsm.num_inputs() > MAX_COMPLETION_INPUTS {
            let refusal = FsmError::TooWideToComplete {
                inputs: fsm.num_inputs(),
            };
            println!("note: machine is partially specified; synthesis refuses it: {refusal}");
        } else {
            println!(
                "note: machine is partially specified; synthesis will add don't-care self-loops"
            );
        }
    }
    Ok(ExitStatus::Ok)
}

/// `ced synth` — synthesize and report the circuit.
pub fn synth(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let lib = CellLibrary::new();
    let circuit = synthesize_circuit(&parsed.fsm, &parsed.options)?;
    println!(
        "{}: r={} inputs, s={} state bits, {} outputs (n={} monitored bits)",
        circuit.name(),
        circuit.num_inputs(),
        circuit.state_bits(),
        circuit.num_outputs(),
        circuit.total_bits()
    );
    println!(
        "combinational: {} gates, area {:.1}, depth {}",
        circuit.gate_count(),
        circuit.combinational_area(&lib),
        circuit.netlist().depth()
    );
    println!(
        "sequential cost (incl. {} state FFs): {:.1}",
        circuit.state_bits(),
        circuit.sequential_area(&lib)
    );
    Ok(ExitStatus::Ok)
}

/// `ced check` — run Algorithm 1 at one latency bound.
///
/// The whole analysis lives in [`ops::check_text_with_baseline`] — the
/// same function the `ced serve` daemon executes for both `check` and
/// `analyze-delta` — so a served payload is byte-identical to this
/// command's stdout by construction. `--baseline <file>` seeds
/// incremental re-analysis from a previous machine revision; the stdout
/// report is unchanged and the dirty-cone summary goes to stderr.
pub fn check(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let store = open_store(parsed.store.as_deref())?;
    let (text, summary) = match ops::check_text_with_baseline(
        &parsed.fsm,
        parsed.baseline.as_ref(),
        &op_request(OpKind::Check, &parsed),
        &run_budget(&parsed, None),
        &ParExec::new(parsed.jobs),
        store.as_deref(),
    ) {
        Ok(done) => done,
        Err(e) => return op_failure("check", e),
    };
    if let Some(summary) = summary {
        if !parsed.quiet {
            eprintln!("[ced] {}", summary.render_line());
        }
    }
    print!("{text}");
    finish_store(store.as_deref(), parsed.quiet);
    Ok(ExitStatus::Ok)
}

/// `ced serve` — the long-lived analysis daemon (see `ced-serve`).
pub fn serve(args: &[String]) -> CliResult {
    let mut opts = ced_serve::ServeOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a number"))?
                .parse()
                .map_err(|_| format!("{flag} needs a number").into())
        };
        match a.as_str() {
            "--addr" => {
                opts.addr = it.next().ok_or("--addr needs host:port")?.clone();
            }
            "--jobs" => {
                opts.jobs = num("--jobs")? as usize;
                if opts.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--workers" => {
                opts.workers = num("--workers")? as usize;
                if opts.workers == 0 {
                    return Err("--workers must be at least 1".into());
                }
            }
            "--max-pending" => opts.max_pending = num("--max-pending")? as usize,
            "--max-line-bytes" => opts.max_line_bytes = num("--max-line-bytes")? as usize,
            "--line-timeout-ms" => {
                opts.line_timeout = std::time::Duration::from_millis(num("--line-timeout-ms")?);
            }
            "--deadline-ms" => {
                opts.default_deadline =
                    Some(std::time::Duration::from_millis(num("--deadline-ms")?));
            }
            "--max-jobs" => opts.max_jobs = num("--max-jobs")? as usize,
            "--store" => {
                let dir = it.next().ok_or("--store needs a directory path")?;
                opts.store_dir = Some(std::path::PathBuf::from(dir));
            }
            "--debug-ops" => opts.debug_ops = true,
            other => return Err(format!("unknown serve flag `{other}`").into()),
        }
    }
    let server = ced_serve::Server::start(opts).map_err(|e| format!("cannot start daemon: {e}"))?;
    // The address line is the daemon's contract with scripts and tests:
    // first stdout line, flushed before anything else happens.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait();
    eprintln!("[ced] serve: daemon stopped");
    Ok(ExitStatus::Ok)
}

/// `ced table` — one Table-1 row across several latency bounds, under
/// an optional budget with heartbeat progress, checkpointing and
/// resume.
pub fn table(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let lib = CellLibrary::new();

    let heartbeat = Arc::new(
        Heartbeat::new(&format!("table {}", parsed.fsm.name()), "work units").quiet(parsed.quiet),
    );
    let budget = run_budget(&parsed, Some(heartbeat.clone()));

    let resume = parsed
        .resume
        .as_deref()
        .and_then(|path| load_resume(path, TABLE_CHECKPOINT_KIND, TableCheckpoint::from_bytes));
    let ckpt_path = parsed.checkpoint.clone();
    let mut sink = |c: &TableCheckpoint| {
        if let Some(path) = &ckpt_path {
            save_or_warn(path, TABLE_CHECKPOINT_KIND, &c.to_bytes());
        }
    };
    let pool = ParExec::new(parsed.jobs);
    let store = open_store(parsed.store.as_deref())?;
    let mut control = PipelineControl::new(&budget);
    control.resume = resume;
    control.checkpoint_every = 4096;
    control.pool = Some(&pool);
    control.store = store.as_deref();
    if parsed.checkpoint.is_some() {
        control.on_checkpoint = Some(&mut sink);
    }

    let report = match run_circuit_controlled(
        &parsed.fsm,
        &parsed.latencies,
        &parsed.options,
        &lib,
        control,
    ) {
        Ok(report) => report,
        Err(PipelineError::Interrupted(i)) => match (&parsed.checkpoint, &i.checkpoint) {
            (Some(path), Some(ckpt)) => {
                save_or_warn(path, TABLE_CHECKPOINT_KIND, &ckpt.to_bytes());
                eprintln!(
                    "[ced] table run {}; checkpoint saved, resume with --resume {path}",
                    i.interrupted
                );
                return Ok(ExitStatus::Cancelled);
            }
            _ => {
                eprintln!("[ced] table run {}", i.interrupted);
                return Ok(ExitStatus::Cancelled);
            }
        },
        Err(e) => return Err(e.into()),
    };
    heartbeat.finish(budget.ticks());
    finish_store(store.as_deref(), parsed.quiet);

    println!("{}", table1_header(&parsed.latencies));
    println!("{}", table1_row(&report));
    println!(
        "duplication baseline: {} functions, {} gates, cost {:.1}",
        report.duplication.parity_functions, report.duplication.gates, report.duplication.area
    );
    for note in degradation_notes(&report) {
        println!("note: {note}");
    }
    if let Some(out) = &parsed.out {
        std::fs::write(out, ced_core::report_to_json(&report).render())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    Ok(ExitStatus::Ok)
}

/// `ced suite` — a survivable campaign over the built-in benchmark
/// machines: per-machine isolation and budgets, degraded retries,
/// quarantine, checkpoint/resume and a deterministic JSON report.
pub fn suite(args: &[String]) -> CliResult {
    let parsed = parse_suite(args)?;
    let lib = CellLibrary::new();
    let total = parsed.machines.len() as u64;

    let heartbeat = Arc::new(
        Heartbeat::new("suite", "machines")
            .with_total(total)
            .quiet(parsed.quiet),
    );

    let resume = parsed
        .resume
        .as_deref()
        .and_then(|path| load_resume(path, SUITE_CHECKPOINT_KIND, SuiteCheckpoint::from_bytes));
    let ckpt_path = parsed.checkpoint.clone();
    let mut sink = |c: &SuiteCheckpoint| {
        if let Some(path) = &ckpt_path {
            save_or_warn(path, SUITE_CHECKPOINT_KIND, &c.to_bytes());
        }
    };
    let hb = heartbeat.clone();
    let quiet = parsed.quiet;
    let mut progress = move |done: usize, total: usize, rec: &ced_core::MachineRecord| {
        if !quiet {
            eprintln!("[ced] suite: {} {} ({done}/{total})", rec.name, rec.status);
        }
        hb.observe(done as u64);
    };
    let pool = ParExec::new(parsed.jobs);
    let store = open_store(parsed.store.as_deref())?;
    let mut control = SuiteControl::new();
    control.resume = resume;
    control.pool = Some(&pool);
    control.store = store.clone();
    if parsed.checkpoint.is_some() {
        control.on_checkpoint = Some(&mut sink);
    }
    control.on_progress = Some(&mut progress);

    let mut report = match ced_core::run_suite(&parsed.machines, &parsed.options, &lib, control) {
        Ok(report) => report,
        Err(SuiteError::Interrupted(i)) => {
            if let Some(path) = &parsed.checkpoint {
                save_or_warn(path, SUITE_CHECKPOINT_KIND, &i.checkpoint.to_bytes());
                eprintln!(
                    "[ced] suite {}; checkpoint saved, resume with --resume {path}",
                    i.interrupted
                );
                return Ok(ExitStatus::Cancelled);
            }
            eprintln!("[ced] suite {}", i.interrupted);
            return Ok(ExitStatus::Cancelled);
        }
        Err(e) => return Err(e.into()),
    };
    heartbeat.finish(report.records.len() as u64);

    // Trust-but-verify: re-prove every finished record, quarantining
    // refuted machines, and append the certification document to the
    // report output (JSON Lines when writing to a file).
    let mut json = report.to_json();
    if parsed.certify {
        let certs = certify_suite(&mut report, &parsed, &pool, store.as_deref());
        json = format!(
            "{}\n{}",
            report.to_json(),
            ced_cert::report::cert_report_json(&certs).render()
        );
    }
    finish_store(store.as_deref(), parsed.quiet);
    match &parsed.out {
        Some(out) => std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?,
        None => println!("{json}"),
    }
    eprintln!(
        "[ced] suite: {} completed, {} degraded, {} quarantined",
        report.completed(),
        report.degraded(),
        report.quarantined()
    );
    Ok(report_status(report.quarantined(), report.degraded()))
}

/// `ced certify` — run the pipeline, then independently re-prove every
/// claim it made with the `ced-cert` verifier chain ([`ops::certify`]).
/// Exits nonzero unless every stage of every latency bound certifies.
pub fn certify(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let heartbeat = Arc::new(
        Heartbeat::new(&format!("certify {}", parsed.fsm.name()), "work units").quiet(parsed.quiet),
    );
    let budget = run_budget(&parsed, Some(heartbeat.clone()));
    let store = open_store(parsed.store.as_deref())?;
    let cert = match ops::certify(
        &parsed.fsm,
        &op_request(OpKind::Certify, &parsed),
        &budget,
        &ParExec::new(parsed.jobs),
        store.as_deref(),
    ) {
        Ok(cert) => cert,
        Err(e) => return op_failure("certify", e),
    };
    heartbeat.finish(budget.ticks());
    finish_store(store.as_deref(), parsed.quiet);
    print!("{}", ced_cert::report::render_text(&cert));
    let verdict = cert.verdict();
    if let Some(out) = &parsed.out {
        std::fs::write(out, ced_cert::report::cert_report_json(&[cert]).render())
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    match verdict {
        ced_cert::Verdict::Certified => Ok(ExitStatus::Ok),
        ced_cert::Verdict::Refuted => {
            eprintln!("[ced] certify: verdict refuted");
            Ok(ExitStatus::Refuted)
        }
        // A refusal is not a refutation: the verifier could not decide,
        // which is an environment/limits problem, not a disproof.
        v => Err(format!("certification verdict: {v}").into()),
    }
}

/// Re-proves every finished suite record with [`ops::certify`] at the
/// default certifier seed. Refuted machines are quarantined in place
/// (status re-rendered, note appended); refusals and certification
/// errors are surfaced as notes on stderr but do not quarantine — only
/// a concrete witness does.
fn certify_suite(
    report: &mut ced_core::SuiteReport,
    parsed: &crate::options::SuiteArgs,
    pool: &ParExec,
    store: Option<&Store>,
) -> Vec<ced_cert::MachineCertification> {
    let mut certs = Vec::new();
    for (name, fsm) in &parsed.machines {
        let Some(rec) = report.records.iter_mut().find(|r| r.name == *name) else {
            continue;
        };
        if rec.status == ced_core::MachineStatus::Quarantined {
            continue; // nothing finished, nothing to certify
        }
        let mut request = OpRequest::new(OpKind::Certify, "");
        request.latencies = parsed.options.latencies.clone();
        // A two-attempt record ran under the degraded option set; the
        // certifier must reproduce the same deterministic artifacts.
        request.options = if rec.attempts > 1 {
            ced_core::suite::degraded_pipeline(&parsed.options.pipeline)
        } else {
            parsed.options.pipeline.clone()
        };
        let mut budget = Budget::new();
        if let Some(d) = parsed.options.machine_deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(t) = parsed.options.machine_ticks {
            budget = budget.with_tick_cap(t);
        }
        match ops::certify(fsm, &request, &budget, pool, store) {
            Ok(cert) => {
                if !parsed.quiet {
                    eprintln!("[ced] certify: {name} {}", cert.verdict());
                }
                if cert.verdict() == ced_cert::Verdict::Refuted {
                    let stages: Vec<String> = cert
                        .refutations()
                        .iter()
                        .map(|r| r.stage.to_string())
                        .collect();
                    rec.quarantine(format!("certification refuted: {}", stages.join(", ")));
                }
                certs.push(cert);
            }
            Err(e) => {
                eprintln!("[ced] certify: {name}: could not certify: {e}");
            }
        }
    }
    report.certified = true;
    certs
}

/// `ced store` — inspect (`stats`) or garbage-collect (`gc`) a
/// content-addressed artifact store directory. Listings are sorted by
/// (stage, fingerprint), so the output is deterministic for a given
/// store state.
pub fn store(args: &[String]) -> CliResult {
    let Some(action) = args.first() else {
        return Err("store needs an action: `ced store stats|gc --store DIR`".into());
    };
    let mut dir: Option<String> = None;
    let mut keep_runs: u64 = 1;
    let mut json = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                dir = Some(it.next().ok_or("--store needs a directory path")?.clone());
            }
            "--json" => {
                json = true;
            }
            "--keep-runs" => {
                keep_runs = it
                    .next()
                    .ok_or("--keep-runs needs a number")?
                    .parse()
                    .map_err(|_| "--keep-runs needs a number")?;
                if keep_runs == 0 {
                    return Err("--keep-runs must be at least 1".into());
                }
            }
            other => {
                return Err(format!("unknown store argument `{other}`").into());
            }
        }
    }
    let dir = dir.ok_or("store needs --store DIR")?;
    let store = Store::open(Path::new(&dir)).map_err(|e| format!("cannot open {dir}: {e}"))?;
    match action.as_str() {
        "stats" if json => {
            println!("{}", store.stats_json().render());
        }
        "stats" => {
            let stats = store.stats();
            // `open` bumped the run counter for this process; the
            // stored index still describes the previous run.
            println!(
                "store {dir}: {} artifact(s), {} bytes, last run {}",
                stats.entries,
                stats.bytes,
                stats.run.saturating_sub(1)
            );
            for e in store.entries() {
                println!(
                    "  {} {:016x}  {:>10} bytes  last used run {}",
                    e.stage, e.fingerprint, e.len, e.last_run
                );
            }
            let previous = store.previous_run_stats();
            if !previous.is_empty() {
                println!("previous run:");
                for (stage, c) in previous {
                    println!(
                        "  {stage}: {} hit, {} miss ({} corrupt), {} put",
                        c.hits, c.misses, c.corrupt, c.puts
                    );
                }
            }
        }
        "gc" => {
            // Anchor the cutoff on the newest run that actually *used*
            // an artifact, not on the run counter: admin invocations
            // (stats, gc itself) bump the counter too, and counting
            // them would make back-to-back `gc` calls age everything
            // out.
            let newest = store
                .entries()
                .iter()
                .map(|e| e.last_run)
                .max()
                .unwrap_or(0);
            let min_run = newest.saturating_sub(keep_runs - 1);
            let outcome = store.gc(min_run).map_err(|e| format!("gc on {dir}: {e}"))?;
            println!(
                "store {dir}: removed {} artifact(s) ({} bytes), kept {}",
                outcome.removed, outcome.bytes_freed, outcome.kept
            );
        }
        other => {
            return Err(format!("unknown store action `{other}` (expected stats or gc)").into());
        }
    }
    Ok(ExitStatus::Ok)
}

/// `ced export` — write the synthesized machine as BLIF or Verilog.
pub fn export(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let circuit = synthesize_circuit(&parsed.fsm, &parsed.options)?;
    let text = match parsed.format.as_str() {
        "verilog" => circuit.to_verilog(),
        _ => circuit.to_blif(),
    };
    print!("{text}");
    Ok(ExitStatus::Ok)
}

/// `ced minimize` — state-minimize and print the machine.
pub fn minimize(args: &[String]) -> CliResult {
    let parsed = parse(args)?;
    let mut fsm = parsed.fsm.clone();
    fsm.complete_with_self_loops()?;
    let min = ced_fsm::minimize::minimize_states(&fsm)?;
    eprintln!(
        "{}: {} states → {} states",
        fsm.name(),
        fsm.num_states(),
        min.num_states()
    );
    print!("{}", ced_fsm::kiss::to_string(&min));
    Ok(ExitStatus::Ok)
}

/// `ced equiv` — sequential equivalence of two machines.
pub fn equiv(args: &[String]) -> CliResult {
    let mut machines = parse_machines(args, 2)?.into_iter();
    let (Some(a), Some(b)) = (machines.next(), machines.next()) else {
        unreachable!("parse_machines returns exactly two machines");
    };
    let (_, circuit_a) = prepare_machine(&a.fsm, &a.options)?;
    let (_, circuit_b) = prepare_machine(&b.fsm, &b.options)?;
    match ced_sim::equiv::check_equivalence(&circuit_a, &circuit_b) {
        ced_sim::equiv::EquivalenceResult::Equivalent { explored } => {
            println!("equivalent ({explored} reachable product states explored)");
            Ok(ExitStatus::Ok)
        }
        ced_sim::equiv::EquivalenceResult::Inequivalent {
            counterexample,
            output_a,
            output_b,
        } => {
            // Bit k of an input or output word is KISS2 column k.
            let columns = |word: u64, width: usize| -> String {
                (0..width)
                    .map(|k| if word >> k & 1 == 1 { '1' } else { '0' })
                    .collect()
            };
            let inputs: Vec<String> = counterexample
                .iter()
                .map(|&word| columns(word, circuit_a.num_inputs()))
                .collect();
            println!(
                "NOT equivalent: input sequence [{}] yields outputs {} vs {}",
                inputs.join(", "),
                columns(output_a, circuit_a.num_outputs()),
                columns(output_b, circuit_a.num_outputs())
            );
            eprintln!("[ced] equiv: machines differ");
            Ok(ExitStatus::Refuted)
        }
        ced_sim::equiv::EquivalenceResult::InterfaceMismatch => {
            Err("machines have different input/output counts".into())
        }
    }
}

/// `ced inject` — the cross-validating fault-injection campaign
/// ([`ops::inject`], the function the daemon runs): cover synthesis
/// under hardware semantics, machine-fault injection judged by the
/// synthesized checker netlist, tensor cross-validation, and the
/// checker-netlist self-audit.
pub fn inject(args: &[String]) -> CliResult {
    if let Some(flag) = args
        .iter()
        .find(|a| matches!(a.as_str(), "--semantics" | "--exhaustive-inputs"))
    {
        return Err(format!(
            "inject does not take {flag}: the campaign always judges the Fig. 3 hardware \
             (faulty-trajectory semantics, exhaustive inputs)"
        )
        .into());
    }
    let parsed = parse(args)?;
    let store = open_store(parsed.store.as_deref())?;
    let store = store.as_deref();
    let injection = match ops::inject(
        &parsed.fsm,
        &op_request(OpKind::Inject, &parsed),
        &run_budget(&parsed, None),
        &ParExec::new(parsed.jobs),
        store,
    ) {
        Ok(injection) => injection,
        Err(e) => return op_failure("inject", e),
    };
    let search = &injection.search;
    if !search.degradation.is_empty() {
        println!("cover solved by {} after degradation:", search.method);
        for event in &search.degradation {
            println!("  {event}");
        }
    }
    println!(
        "campaign: {} machine faults ({} untestable), q = {} trees, p = {}",
        injection.stats.faults, injection.stats.untestable_faults, search.q, parsed.latency
    );
    let report = &injection.report;
    // Exactly the served `inject` payload, on stdout and in `--out`.
    let text = report.render();
    print!("{text}");
    if let Some(out) = &parsed.out {
        std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    finish_store(store, parsed.quiet);
    if report.is_clean() {
        println!("campaign clean: hardware agrees with V(i,j,k) everywhere ✓");
        Ok(ExitStatus::Ok)
    } else {
        eprintln!(
            "[ced] inject: {} disagreement(s) between the hardware and the detectability tensor",
            report.machine.disagreements.len()
        );
        Ok(ExitStatus::Refuted)
    }
}

/// `ced fleet status` — a read-only live view over a fleet campaign
/// directory: pending/leased/done/poisoned counts, lease heartbeat
/// ages, per-unit attempt counts. Never claims, expires or mutates
/// anything, so it is safe to run next to a live campaign.
fn fleet_status_cmd(args: &[String]) -> CliResult {
    let mut dir: Option<String> = None;
    let mut json = false;
    let mut stale_ms = 10_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--store" => {
                dir = Some(it.next().ok_or("--store needs a directory path")?.clone());
            }
            "--json" => {
                json = true;
            }
            "--stale-ms" => {
                stale_ms = it
                    .next()
                    .ok_or("--stale-ms needs a number")?
                    .parse()
                    .map_err(|_| "--stale-ms needs a number")?;
            }
            other => return Err(format!("unknown fleet status flag `{other}`").into()),
        }
    }
    let dir = dir.ok_or("fleet status needs --store DIR (the campaign directory)")?;
    let status =
        ced_fleet::fleet_status(Path::new(&dir), std::time::Duration::from_millis(stale_ms))?;
    if json {
        println!("{}", status.to_json().render());
    } else {
        print!("{}", status.render_text());
    }
    Ok(ExitStatus::Ok)
}

/// Fleet-only flags split off before the shared suite parser runs, so
/// the corpus and campaign options are parsed by exactly the same code
/// as `ced suite` — which is what makes the fingerprint handshake
/// between coordinator and workers meaningful.
struct FleetFlags {
    heartbeat_ms: Option<u64>,
    poll_ms: Option<u64>,
    max_attempts: Option<u64>,
    worker_id: Option<String>,
    idle_timeout_ms: Option<u64>,
    manifest_wait_ms: Option<u64>,
    rest: Vec<String>,
}

fn split_fleet_flags(args: &[String]) -> Result<FleetFlags, Box<dyn std::error::Error>> {
    let mut f = FleetFlags {
        heartbeat_ms: None,
        poll_ms: None,
        max_attempts: None,
        worker_id: None,
        idle_timeout_ms: None,
        manifest_wait_ms: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a number"))?
                .parse()
                .map_err(|_| format!("{flag} needs a number").into())
        };
        match a.as_str() {
            "--heartbeat-ms" => f.heartbeat_ms = Some(num("--heartbeat-ms")?),
            "--poll-ms" => f.poll_ms = Some(num("--poll-ms")?),
            "--max-attempts" => {
                let n = num("--max-attempts")?;
                if n == 0 {
                    return Err("--max-attempts must be at least 1".into());
                }
                f.max_attempts = Some(n);
            }
            "--idle-timeout-ms" => f.idle_timeout_ms = Some(num("--idle-timeout-ms")?),
            "--manifest-wait-ms" => f.manifest_wait_ms = Some(num("--manifest-wait-ms")?),
            "--worker-id" => {
                f.worker_id = Some(it.next().ok_or("--worker-id needs a name")?.clone());
            }
            // Single-process survivability flags that have a different
            // fleet-level story: rejecting them beats silently ignoring
            // them.
            "--certify" => {
                return Err(
                    "fleet does not take --certify; certify the merged report with \
                            `ced suite --certify` semantics in a follow-up run"
                        .into(),
                );
            }
            "--checkpoint" | "--resume" => {
                return Err(format!(
                    "fleet does not take {a}; the fleet directory itself is the checkpoint — \
                     re-running the coordinator on the same --store resumes the campaign"
                )
                .into());
            }
            other => f.rest.push(other.to_string()),
        }
    }
    Ok(f)
}

/// `ced fleet coordinator|worker` — crash-tolerant sharded campaigns:
/// the coordinator publishes the corpus as lease-based work units in
/// `<store>/fleet/` and merges results deterministically; workers (any
/// number of processes, possibly on other machines sharing the
/// filesystem) claim, heartbeat and execute units.
pub fn fleet(args: &[String]) -> CliResult {
    let Some(role) = args.first() else {
        return Err(
            "fleet needs a role: `ced fleet coordinator|worker|status --store DIR …`".into(),
        );
    };
    if role == "status" {
        return fleet_status_cmd(&args[1..]);
    }
    let flags = split_fleet_flags(&args[1..])?;
    let parsed = parse_suite(&flags.rest)?;
    let store_dir = parsed
        .store
        .clone()
        .ok_or("fleet needs --store DIR (the shared campaign directory)")?;
    let ms = std::time::Duration::from_millis;
    let cancel = ced_runtime::CancelToken::new();
    match role.as_str() {
        "coordinator" => {
            let mut copts = ced_fleet::CoordinatorOptions::default();
            if let Some(n) = flags.heartbeat_ms {
                copts.heartbeat_timeout = ms(n);
            }
            if let Some(n) = flags.poll_ms {
                copts.poll_interval = ms(n);
            }
            if let Some(n) = flags.max_attempts {
                copts.max_attempts = n;
            }
            if flags.worker_id.is_some() || flags.idle_timeout_ms.is_some() {
                return Err("--worker-id/--idle-timeout-ms are worker flags".into());
            }
            let outcome = ced_fleet::run_coordinator(
                Path::new(&store_dir),
                &parsed.machines,
                &parsed.options,
                &copts,
                &cancel,
            )?;
            let json = outcome.report.to_json();
            match &parsed.out {
                Some(out) => {
                    std::fs::write(out, &json).map_err(|e| format!("cannot write {out}: {e}"))?
                }
                None => println!("{json}"),
            }
            eprintln!(
                "[ced] fleet: {} completed, {} degraded, {} quarantined \
                 ({} lease(s) re-assigned, {} unit(s) poisonous)",
                outcome.report.completed(),
                outcome.report.degraded(),
                outcome.report.quarantined(),
                outcome.reassigned,
                outcome.poisoned_units,
            );
            Ok(report_status(
                outcome.report.quarantined(),
                outcome.report.degraded(),
            ))
        }
        "worker" => {
            if flags.max_attempts.is_some() {
                return Err("--max-attempts is a coordinator flag".into());
            }
            let mut wopts = ced_fleet::WorkerOptions::default();
            if let Some(id) = flags.worker_id {
                wopts.worker_id = id;
            }
            if let Some(n) = flags.heartbeat_ms {
                wopts.heartbeat_period = ms(n);
            }
            if let Some(n) = flags.poll_ms {
                wopts.poll_interval = ms(n);
            }
            if let Some(n) = flags.idle_timeout_ms {
                wopts.idle_timeout = Some(ms(n));
            }
            if let Some(n) = flags.manifest_wait_ms {
                wopts.manifest_wait = ms(n);
            }
            // Workers share the artifact store of the campaign
            // directory itself, so tensor/synthesis memoization works
            // across the whole fleet.
            let store = open_store(Some(store_dir.as_str()))?;
            let lib = CellLibrary::new();
            let outcome = ced_fleet::run_worker(
                Path::new(&store_dir),
                &parsed.options,
                &wopts,
                &lib,
                &cancel,
                store.as_ref(),
            )?;
            finish_store(store.as_deref(), parsed.quiet);
            match outcome {
                ced_fleet::WorkerOutcome::Drained { processed } => {
                    eprintln!(
                        "[ced] fleet worker {}: campaign drained ({processed} unit(s) done here)",
                        wopts.worker_id
                    );
                    Ok(ExitStatus::Ok)
                }
                ced_fleet::WorkerOutcome::IdleTimeout { processed } => {
                    eprintln!(
                        "[ced] fleet worker {}: idle timeout with campaign incomplete \
                         ({processed} unit(s) done here)",
                        wopts.worker_id
                    );
                    Ok(ExitStatus::Cancelled)
                }
            }
        }
        other => {
            Err(format!("unknown fleet role `{other}` (expected coordinator or worker)").into())
        }
    }
}
