//! The `ced` benchmark binary: one workload per process.
//!
//! ```text
//! ced-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//! ```
//!
//! With `--trace 0` it runs the seeded op list several times with
//! tracing off, each pass on an environment set up afresh (reporting
//! the median set-up time), checks every output against references
//! computed afterwards, and prints the end-to-end metrics over all
//! passes. With `--trace 1` it runs the
//! list untraced once, replays it broken into public calls under spans,
//! requires the replayed payloads to equal the untraced ones byte for
//! byte, and prints the per-layer metrics. The last stdout line is the
//! JSON result. See `perfbench/README.md` for the workloads and the
//! layer table.

mod common;
mod trace;
mod workloads;

use ced_par::ParExec;
use std::convert::Infallible;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// Set-ups in an untraced run: one before each pass, the rest spread
/// over the gaps after the passes. `setup_s` is their median. Set-up
/// times drift with the host's load, so samples spread over the run
/// steady the median more than set-ups in a row would.
const SETUPS: usize = 5;

/// Everything a workload plugs into the run protocol.
pub trait Workload {
    type Env;
    /// Number of ops in the list.
    fn op_count(&self) -> usize;
    /// Untraced passes over the list in one run.
    fn passes(&self) -> usize;
    /// Threads one op may keep busy (the `par.busy_share` divisor).
    fn pool_width(&self) -> usize;
    /// Builds the environment and runs the untimed warm-up op.
    /// `traced` asks for the environment the traced replay needs.
    fn setup(&self, dir: &Path, traced: bool) -> Result<Self::Env, String>;
    /// Runs op `i`, returning its payload.
    fn run_op(&self, env: &mut Self::Env, i: usize) -> Result<String, String>;
    /// Runs op `i` broken into public calls, each under a span.
    fn trace_op(&self, env: &mut Self::Env, i: usize, t: &mut Tracer) -> Result<String, String>;
    fn teardown(&self, _env: Self::Env) {}
    /// Checks op `i`'s payload against references computed here, after
    /// the timed phase, and returns the cover quality it claims.
    fn check_op(&self, i: usize, payload: &str) -> Result<Quality, String>;
}

/// The cover quality one op's output claims.
#[derive(Default)]
pub struct Quality {
    pub parity_trees: u64,
    pub checker_area: f64,
}

/// Per-op verdicts plus the cover-quality sums.
pub struct Checked {
    ok: Vec<bool>,
    parity_trees: u64,
    checker_area: f64,
}

/// Checks every payload, two ops at a time: the timed phase is over,
/// so the references may use both cores.
fn check<W: Workload + Sync>(w: &W, payloads: &[Result<String, String>]) -> Checked {
    let verdicts = ParExec::new(2)
        .try_map(payloads, |i, payload| {
            Ok::<_, Infallible>(match payload {
                Ok(out) => w.check_op(i, out),
                Err(e) => Err(format!("op failed: {e}")),
            })
        })
        .unwrap_or_else(|never| match never {});
    let mut checked = Checked {
        ok: Vec::new(),
        parity_trees: 0,
        checker_area: 0.0,
    };
    for (i, verdict) in verdicts.into_iter().enumerate() {
        match &verdict {
            Ok(q) => {
                checked.parity_trees += q.parity_trees;
                checked.checker_area += q.checker_area;
            }
            Err(e) => eprintln!("check: op {i}: {e}"),
        }
        checked.ok.push(verdict.is_ok());
    }
    checked
}

/// Counts every op of every later pass: it passes when its first-pass
/// payload passed its check and the later pass returned that payload.
fn check_repeats(checked: &mut Checked, repeated: &[Vec<bool>]) {
    let first = checked.ok.clone();
    for (p, same) in repeated.iter().enumerate() {
        for (i, (&ok, &same)) in first.iter().zip(same).enumerate() {
            if !same {
                eprintln!("check: op {i}: pass {} returned another payload", p + 1);
            }
            checked.ok.push(ok && same);
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--tiny" => args.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it (the
/// lowest sample when there are fewer than eleven): value, percentile
/// and the number of samples beyond it.
fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let i = n.saturating_sub(11);
    (v[i], 100.0 * (i + 1) as f64 / n as f64, n - 1 - i)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds used by every thread of this process so far.
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// The untraced passes over the op list.
struct Pass {
    setup_s: Vec<f64>,
    /// `op_ms[p][i]`: op `i` in pass `p`.
    op_ms: Vec<Vec<f64>>,
    /// CPU seconds and timed wall seconds of all passes together.
    cpu_s: f64,
    wall_s: f64,
    /// The first pass's payloads.
    payloads: Vec<Result<String, String>>,
    /// `repeated[p][i]`: pass `p` returned op `i`'s first-pass payload.
    repeated: Vec<Vec<bool>>,
    peak_rss_mb: f64,
}

/// Sets `w` up as set-up number `rep`, recording the time it took.
fn timed_setup<W: Workload>(
    w: &W,
    dir: &Path,
    rep: usize,
    setup_s: &mut Vec<f64>,
) -> Result<W::Env, String> {
    let start = Instant::now();
    let env = w.setup(&dir.join(format!("setup{rep}")), false)?;
    setup_s.push(start.elapsed().as_secs_f64());
    Ok(env)
}

/// Runs the op list `passes` times untraced, each pass on an
/// environment set up afresh, and sets up `setups - passes` more times
/// in the gaps after the passes.
fn untraced<W: Workload>(w: &W, dir: &Path, passes: usize, setups: usize) -> Result<Pass, String> {
    let n = w.op_count();
    let extra = setups.saturating_sub(passes);
    let mut run = Pass {
        setup_s: Vec::new(),
        op_ms: Vec::new(),
        cpu_s: 0.0,
        wall_s: 0.0,
        payloads: Vec::new(),
        repeated: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut rep = 0;
    for p in 0..passes {
        let mut env = timed_setup(w, dir, rep, &mut run.setup_s)?;
        rep += 1;
        let mut op_ms = Vec::with_capacity(n);
        let mut payloads = Vec::with_capacity(n);
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        for i in 0..n {
            let t0 = Instant::now();
            payloads.push(w.run_op(&mut env, i));
            op_ms.push(ms(t0));
        }
        run.wall_s += start.elapsed().as_secs_f64();
        run.cpu_s += process_cpu_s() - cpu0;
        run.peak_rss_mb = peak_rss_mb();
        w.teardown(env);
        run.op_ms.push(op_ms);
        if p == 0 {
            run.payloads = payloads;
        } else {
            run.repeated.push(
                payloads
                    .iter()
                    .zip(&run.payloads)
                    .map(|(a, b)| a == b)
                    .collect(),
            );
        }
        // The extra set-ups, spread evenly over the gaps.
        for _ in extra * p / passes..extra * (p + 1) / passes {
            let env = timed_setup(w, dir, rep, &mut run.setup_s)?;
            rep += 1;
            w.teardown(env);
        }
    }
    Ok(run)
}

type Metric = (String, f64, &'static str);

/// The end-to-end metrics over every op of every pass.
fn end_to_end(pass: &Pass, checked: &Checked) -> (Vec<Metric>, String) {
    let samples: Vec<f64> = pass.op_ms.iter().flatten().copied().collect();
    let passes = pass.op_ms.len();
    let completed = passes * pass.payloads.iter().filter(|p| p.is_ok()).count();
    let ok = checked.ok.iter().filter(|&&b| b).count();
    let (tail_ms, pct, beyond) = tail(&samples);
    let note = format!(
        "op_ms.tail is p{pct:.1} of {} op runs ({} ops x {passes} passes, {beyond} beyond it)",
        samples.len(),
        pass.payloads.len()
    );
    let metrics = vec![
        ("setup_s".into(), median(&pass.setup_s), "s"),
        ("op_ms.p50".into(), median(&samples), "ms"),
        ("op_ms.tail".into(), tail_ms, "ms"),
        ("ops_per_s".into(), completed as f64 / pass.wall_s, "1/s"),
        (
            "ok_ratio".into(),
            ok as f64 / checked.ok.len() as f64,
            "share",
        ),
        ("peak_rss_mb".into(), pass.peak_rss_mb, "MiB"),
        ("parity_trees".into(), checked.parity_trees as f64, "count"),
        ("checker_area".into(), checked.checker_area, "area"),
    ];
    (metrics, note)
}

/// The per-layer metric names, units and how each is derived from the
/// tracer: `Self_` = per-op mean self time of a span, `Sum` = a counter
/// summed over the list, `Mean` = a counter's per-op mean.
enum Source {
    Self_(&'static str),
    Sum(&'static str),
    Mean(&'static str),
}

const LAYERS: &[(&str, &str, Source)] = &[
    ("fsm.parse_ms", "ms", Source::Self_("fsm.parse")),
    ("logic.synth_ms", "ms", Source::Self_("logic.synth")),
    ("logic.gates", "count", Source::Sum("logic.gates")),
    ("sim.inputs_ms", "ms", Source::Self_("sim.inputs")),
    ("sim.faults_ms", "ms", Source::Self_("sim.faults")),
    ("sim.faults", "count", Source::Sum("sim.faults")),
    ("sim.cones_ms", "ms", Source::Self_("sim.cones")),
    ("sim.cones_dirty", "count", Source::Sum("sim.cones_dirty")),
    ("core.delta_ms", "ms", Source::Self_("core.delta")),
    ("sim.tensor_ms", "ms", Source::Self_("sim.tensor")),
    ("sim.tensor_ticks", "ticks", Source::Sum("sim.tensor_ticks")),
    ("sim.rows", "count", Source::Sum("sim.rows")),
    ("sim.rows_raw", "count", Source::Sum("sim.rows_raw")),
    ("sim.activations", "count", Source::Sum("sim.activations")),
    ("store.hits", "count", Source::Sum("store.hits")),
    ("store.misses", "count", Source::Sum("store.misses")),
    ("store.puts", "count", Source::Sum("store.puts")),
    ("store.corrupt", "count", Source::Sum("store.corrupt")),
    ("store.frag_hits", "count", Source::Sum("store.frag_hits")),
    ("store.frag_puts", "count", Source::Sum("store.frag_puts")),
    ("store.bytes", "bytes", Source::Sum("store.bytes")),
    ("core.search_ms", "ms", Source::Self_("core.search")),
    ("lp.solves", "count", Source::Sum("lp.solves")),
    (
        "core.rounding_attempts",
        "count",
        Source::Sum("core.rounding_attempts"),
    ),
    ("core.q_probes", "count", Source::Sum("core.q_probes")),
    ("core.degraded", "count", Source::Sum("core.degraded")),
    ("core.checker_ms", "ms", Source::Self_("core.checker")),
    (
        "core.checker_gates",
        "count",
        Source::Sum("core.checker_gates"),
    ),
    ("core.pipeline_ms", "ms", Source::Self_("core.pipeline")),
    ("cert.verify_ms", "ms", Source::Self_("cert.verify")),
    (
        "cert.verify_ticks",
        "ticks",
        Source::Sum("cert.verify_ticks"),
    ),
    ("inject.campaign_ms", "ms", Source::Self_("inject.campaign")),
    (
        "inject.campaign_ticks",
        "ticks",
        Source::Sum("inject.campaign_ticks"),
    ),
    ("inject.faults", "count", Source::Sum("inject.faults")),
    (
        "inject.disagreements",
        "count",
        Source::Sum("inject.disagreements"),
    ),
    ("serve.rtt_ms", "ms", Source::Mean("serve.rtt_ms")),
    ("serve.exec_ms", "ms", Source::Mean("serve.exec_ms")),
    ("serve.wire_ms", "ms", Source::Mean("serve.wire_ms")),
    ("serve.req_bytes", "bytes", Source::Mean("serve.req_bytes")),
    (
        "serve.resp_bytes",
        "bytes",
        Source::Mean("serve.resp_bytes"),
    ),
    ("fleet.campaign_ms", "ms", Source::Self_("fleet.campaign")),
    ("fleet.compute_ms", "ms", Source::Mean("fleet.compute_ms")),
    ("fleet.protocol_ms", "ms", Source::Mean("fleet.protocol_ms")),
    ("fleet.units", "count", Source::Sum("fleet.units")),
    ("fleet.reassigned", "count", Source::Sum("fleet.reassigned")),
    ("op.render_ms", "ms", Source::Self_("op.render")),
];

fn traced<W: Workload + Sync>(
    w: &W,
    dir: &Path,
    out_dir: &Path,
    tag: &str,
) -> Result<(Vec<Metric>, Checked, bool), String> {
    let pass = untraced(w, &dir.join("untraced"), 1, 1)?;
    let mut t = Tracer::new();
    let mut traced_ms = Vec::with_capacity(w.op_count());
    let mut identical = true;
    let mut env = w.setup(&dir.join("traced"), true)?;
    for i in 0..w.op_count() {
        t.begin_op(i);
        let start = Instant::now();
        let replay = w.trace_op(&mut env, i, &mut t);
        traced_ms.push(ms(start) - t.offline_ms());
        if replay != pass.payloads[i] {
            identical = false;
            eprintln!("op {i}: traced replay payload differs from the untraced payload");
        }
    }
    w.teardown(env);
    let _ = std::fs::create_dir_all(out_dir);
    let _ = std::fs::write(
        out_dir.join(format!("trace-{tag}.jsonl")),
        t.to_json_lines(),
    );

    let n = w.op_count() as f64;
    let self_ms = t.self_ms();
    let mut metrics: Vec<Metric> = LAYERS
        .iter()
        .map(|(name, unit, source)| {
            let v = match source {
                Source::Self_(span) => self_ms.get(span).copied().unwrap_or(0.0) / n,
                Source::Sum(c) => t.counter(c),
                Source::Mean(c) => t.counter(c) / n,
            };
            (name.to_string(), v, *unit)
        })
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let probes = t.counter("core.q_probes");
    let lookups = t.counter("store.hits") + t.counter("store.misses");
    let unattributed: Vec<f64> = (0..w.op_count())
        .map(|i| pass.op_ms[0][i] - t.op_spans_ms(i))
        .collect();
    metrics.extend([
        (
            "sim.row_yield".to_string(),
            ratio(t.counter("sim.rows"), t.counter("sim.rows_raw")),
            "share",
        ),
        (
            "store.hit_ratio".to_string(),
            ratio(t.counter("store.hits"), lookups),
            "share",
        ),
        (
            "core.feasible_ratio".to_string(),
            ratio(t.counter("core.q_feasible"), probes),
            "share",
        ),
        (
            "par.busy_share".to_string(),
            ratio(pass.cpu_s, pass.wall_s * w.pool_width() as f64),
            "share",
        ),
        (
            "op.unattributed_ms".to_string(),
            unattributed.iter().sum::<f64>() / n,
            "ms",
        ),
        (
            "trace.overhead".to_string(),
            ratio(traced_ms.iter().sum(), pass.op_ms[0].iter().sum()),
            "x",
        ),
    ]);
    let checked = check(w, &pass.payloads);
    Ok((metrics, checked, identical))
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_result(metrics: &[Metric], checked: &Checked, extra_ok: bool, notes: &[String]) {
    let attempted = checked.ok.len();
    let failed = checked.ok.iter().filter(|&&b| !b).count();
    for (name, v, unit) in metrics {
        println!("{name:<24} {:>16} {unit}", fmt_value(*v));
    }
    for note in notes {
        println!("{note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_value(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && extra_ok,
        body.join(", ")
    );
}

fn run<W: Workload + Sync>(w: &W, args: &Args) -> Result<(), String> {
    let root = PathBuf::from(".bench_work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = if args.trace {
        let tag = format!("{}-seed{}", args.workload, args.seed);
        traced(w, &dir, &root, &tag).map(|(metrics, checked, identical)| {
            let note = if identical {
                "traced replay payloads equal the untraced payloads".to_string()
            } else {
                "traced replay payloads DIFFER from the untraced payloads".to_string()
            };
            print_result(&metrics, &checked, identical, &[note]);
        })
    } else {
        let start = Instant::now();
        untraced(w, &dir, w.passes(), SETUPS.max(w.passes())).map(|pass| {
            let run_s = start.elapsed().as_secs_f64();
            let mut checked = check(w, &pass.payloads);
            check_repeats(&mut checked, &pass.repeated);
            eprintln!(
                "phases: set-ups and timed ops {run_s:.1} s (ops {:.1} s), checks {:.1} s",
                pass.wall_s,
                start.elapsed().as_secs_f64() - run_s
            );
            let setup_s: Vec<String> = pass.setup_s.iter().map(|v| format!("{v:.3}")).collect();
            eprintln!("setup_s per set-up: {}", setup_s.join(" "));
            for (p, times) in pass.op_ms.iter().enumerate() {
                let op_ms: Vec<String> = times.iter().map(|v| format!("{v:.1}")).collect();
                eprintln!("op_ms of pass {p} in list order: {}", op_ms.join(" "));
            }
            let (metrics, note) = end_to_end(&pass, &checked);
            print_result(&metrics, &checked, true, &[note]);
        })
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        let seconds = args.seconds.max(1);
        match args.workload.as_str() {
            "cold-check" => run(
                &workloads::cold_check::ColdCheck::new(args.seed, seconds, args.tiny),
                &args,
            ),
            // The edit chain is the same for every seed.
            "edit-loop" => run(
                &workloads::edit_loop::EditLoop::new(seconds, args.tiny),
                &args,
            ),
            "signoff" => run(
                &workloads::signoff::Signoff::new(args.seed, seconds, args.tiny),
                &args,
            ),
            "fleet-campaign" => run(
                &workloads::fleet::FleetCampaign::new(args.seed, seconds, args.tiny),
                &args,
            ),
            other => Err(format!("unknown workload `{other}`")),
        }
    });
    if let Err(e) = outcome {
        eprintln!("ced-perfbench: {e}");
        std::process::exit(1);
    }
}
