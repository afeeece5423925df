//! Shared CLI option parsing.

use ced_core::pipeline::{InputGranularity, PipelineOptions};
use ced_fsm::encoding::EncodingStrategy;
use ced_fsm::machine::Fsm;
use ced_sim::detect::Semantics;
use ced_sim::fault::FaultModel;

/// Parsed common options plus the machine they apply to.
#[derive(Clone)]
pub struct Parsed {
    /// The machine loaded from the positional KISS2 path.
    pub fsm: Fsm,
    /// Pipeline configuration assembled from the flags.
    pub options: PipelineOptions,
    /// `--latency` (default 1).
    pub latency: usize,
    /// `--latencies` (default `[1, 2, 3]`).
    pub latencies: Vec<usize>,
    /// `--seed` (default 0).
    pub seed: u64,
    /// `--format` (default "blif").
    pub format: String,
    /// `--no-checker-faults`: skip the checker-netlist audit in
    /// `inject`.
    pub checker_faults: bool,
    /// `--steps` (default 2000): cycles driven per injected fault.
    pub steps: usize,
    /// `--quiet`: suppress heartbeat progress lines on stderr.
    pub quiet: bool,
    /// `--deadline-ms N`: wall-clock budget for the run.
    pub deadline_ms: Option<u64>,
    /// `--ticks N`: work-tick budget for the run.
    pub ticks: Option<u64>,
    /// `--out <path>`: write the structured report here instead of
    /// stdout.
    pub out: Option<String>,
    /// `--jobs N` (default: available parallelism): worker threads for
    /// the parallel execution layer. Never changes results — every
    /// report is byte-identical at every job count.
    pub jobs: usize,
    /// `--store DIR`: content-addressed artifact store directory;
    /// memoizes the synth, whole-table and per-fault-cone tensor
    /// (tensor/tensor-frag), cover and search stages across runs.
    /// Never changes results — a cache hit is byte-identical to a
    /// recompute.
    pub store: Option<String>,
    /// `--baseline <file>` (check only): a previous revision of the
    /// machine; seeds incremental re-analysis (per-fault-cone fragment
    /// reuse) and prints a one-line dirty-cone summary on stderr. The
    /// stdout report is byte-identical with or without it.
    pub baseline: Option<Fsm>,
}

/// Parses `<file> [flags…]`.
///
/// # Errors
///
/// Reports unknown flags, missing values, bad numbers and file/parse
/// failures with user-facing messages.
pub fn parse(args: &[String]) -> Result<Parsed, Box<dyn std::error::Error>> {
    let mut machines = parse_machines(args, 1)?;
    Ok(machines.pop().expect("exactly one machine"))
}

/// Parses `<file>… [flags…]` with exactly `count` positional machine
/// files: one [`Parsed`] per file, in order, all sharing the flags.
/// This is the one place that knows which flags take a value, so a
/// flag value is never mistaken for a file.
///
/// # Errors
///
/// As [`parse`], plus a wrong number of machine files.
pub fn parse_machines(
    args: &[String],
    count: usize,
) -> Result<Vec<Parsed>, Box<dyn std::error::Error>> {
    let mut files: Vec<String> = Vec::new();
    let mut options = PipelineOptions::paper_defaults();
    let mut latency = 1usize;
    let mut latencies = vec![1usize, 2, 3];
    let mut seed = 0u64;
    let mut format = String::from("blif");
    let mut checker_faults = true;
    let mut steps = 2000usize;
    let mut quiet = false;
    let mut deadline_ms = None;
    let mut ticks = None;
    let mut out = None;
    let mut jobs = ced_par::ParExec::available().jobs();
    let mut store = None;
    let mut baseline_path: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--encoding" => {
                let v = it.next().ok_or("--encoding needs a value")?;
                options.encoding = match v.as_str() {
                    "natural" => EncodingStrategy::Natural,
                    "gray" => EncodingStrategy::Gray,
                    "onehot" => EncodingStrategy::OneHot,
                    "adjacency" => EncodingStrategy::Adjacency,
                    other => return Err(format!("unknown encoding `{other}`").into()),
                };
            }
            "--latency" => {
                latency = it
                    .next()
                    .ok_or("--latency needs a number")?
                    .parse()
                    .map_err(|_| "--latency needs a number")?;
                if latency == 0 {
                    return Err("latency bound must be at least 1".into());
                }
            }
            "--latencies" => {
                let list = it.next().ok_or("--latencies needs a comma list")?;
                latencies = list
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "--latencies needs numbers like 1,2,3")?;
                if latencies.is_empty() || latencies.contains(&0) {
                    return Err("--latencies needs positive bounds".into());
                }
            }
            "--semantics" => {
                let v = it.next().ok_or("--semantics needs a value")?;
                options.semantics = match v.as_str() {
                    "lockstep" | "paper" => Semantics::Lockstep,
                    "hardware" | "faulty-trajectory" => Semantics::FaultyTrajectory,
                    other => return Err(format!("unknown semantics `{other}`").into()),
                };
            }
            "--exhaustive-inputs" => {
                options.input_granularity = InputGranularity::Exhaustive;
            }
            "--fault-model" => {
                let v = it.next().ok_or("--fault-model needs a value")?;
                options.fault_model = FaultModel::parse(v)?;
            }
            "--isolate-cones" => {
                options.isolate_output_logic = true;
            }
            "--format" => {
                format = it.next().ok_or("--format needs a value")?.clone();
                if !matches!(format.as_str(), "blif" | "verilog") {
                    return Err(format!("unknown format `{format}`").into());
                }
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?;
            }
            "--no-checker-faults" => {
                checker_faults = false;
            }
            "--steps" => {
                steps = it
                    .next()
                    .ok_or("--steps needs a number")?
                    .parse()
                    .map_err(|_| "--steps needs a number")?;
                if steps == 0 {
                    return Err("--steps must be at least 1".into());
                }
            }
            "--quiet" => {
                quiet = true;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms needs a number")?
                        .parse()
                        .map_err(|_| "--deadline-ms needs a number")?,
                );
            }
            "--ticks" => {
                ticks = Some(
                    it.next()
                        .ok_or("--ticks needs a number")?
                        .parse()
                        .map_err(|_| "--ticks needs a number")?,
                );
            }
            "--out" => {
                out = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a number")?
                    .parse()
                    .map_err(|_| "--jobs needs a number")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--store" => {
                store = Some(it.next().ok_or("--store needs a directory path")?.clone());
            }
            "--baseline" => {
                baseline_path = Some(it.next().ok_or("--baseline needs a file path")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`").into());
            }
            path => files.push(path.to_string()),
        }
    }
    options.ced.seed = seed;

    if files.len() != count {
        return Err(match (count, files.len()) {
            (1, 0) => "no machine file given (expected a .kiss2 path)".into(),
            (1, _) => "more than one machine file given".into(),
            (_, n) => format!("expected {count} machine files, got {n}").into(),
        });
    }
    let load = |path: &str| -> Result<Fsm, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Ok(ced_fsm::kiss::parse(&text).map_err(|e| format!("{path}: {e}"))?)
    };
    let fsm = load(&files[0])?;
    let baseline = baseline_path.as_deref().map(load).transpose()?;
    let first = Parsed {
        fsm,
        options,
        latency,
        latencies,
        seed,
        format,
        checker_faults,
        steps,
        quiet,
        deadline_ms,
        ticks,
        out,
        jobs,
        store,
        baseline,
    };
    let rest = files[1..]
        .iter()
        .map(|path| {
            Ok(Parsed {
                fsm: load(path)?,
                ..first.clone()
            })
        })
        .collect::<Result<Vec<Parsed>, Box<dyn std::error::Error>>>()?;
    Ok(std::iter::once(first).chain(rest).collect())
}

/// Parsed `ced suite` arguments (no positional machine file; machines
/// come from the built-in benchmark suite by name).
pub struct SuiteArgs {
    /// Machines to run, as `(name, fsm)` pairs in request order.
    pub machines: Vec<(String, Fsm)>,
    /// Suite configuration assembled from the flags.
    pub options: ced_core::SuiteOptions,
    /// `--certify`: re-prove every finished machine's results with the
    /// independent certification layer; refuted machines are
    /// quarantined.
    pub certify: bool,
    /// `--quiet`.
    pub quiet: bool,
    /// `--resume <path>`.
    pub resume: Option<String>,
    /// `--checkpoint <path>`.
    pub checkpoint: Option<String>,
    /// `--out <path>` for the JSON report (default stdout).
    pub out: Option<String>,
    /// `--jobs N` (default: available parallelism).
    pub jobs: usize,
    /// `--store DIR`: content-addressed artifact store directory,
    /// shared by every machine and pool worker in the campaign.
    pub store: Option<String>,
}

/// Parses `ced suite` flags.
///
/// # Errors
///
/// Reports unknown flags, unknown machine names and bad numbers.
pub fn parse_suite(args: &[String]) -> Result<SuiteArgs, Box<dyn std::error::Error>> {
    use ced_fsm::suite as bench;

    let mut names: Vec<String> = Vec::new();
    let mut scaled = false;
    let mut options = ced_core::SuiteOptions {
        latencies: vec![1, 2],
        ..ced_core::SuiteOptions::default()
    };
    let mut seed = 0u64;
    let mut certify = false;
    let mut quiet = false;
    let mut resume = None;
    let mut checkpoint = None;
    let mut out = None;
    let mut jobs = ced_par::ParExec::available().jobs();
    let mut store = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--certify" => {
                certify = true;
            }
            "--machines" => {
                let list = it.next().ok_or("--machines needs a comma list of names")?;
                names = list.split(',').map(|t| t.trim().to_string()).collect();
            }
            "--scaled" => {
                scaled = true;
            }
            "--latencies" => {
                let list = it.next().ok_or("--latencies needs a comma list")?;
                options.latencies = list
                    .split(',')
                    .map(|t| t.trim().parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| "--latencies needs numbers like 1,2")?;
                if options.latencies.is_empty() || options.latencies.contains(&0) {
                    return Err("--latencies needs positive bounds".into());
                }
            }
            "--deadline-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--deadline-ms needs a number")?
                    .parse()
                    .map_err(|_| "--deadline-ms needs a number")?;
                options.machine_deadline = Some(std::time::Duration::from_millis(ms));
            }
            "--ticks" => {
                options.machine_ticks = Some(
                    it.next()
                        .ok_or("--ticks needs a number")?
                        .parse()
                        .map_err(|_| "--ticks needs a number")?,
                );
            }
            "--no-retry" => {
                options.retry_degraded = false;
            }
            "--fault-model" => {
                let v = it.next().ok_or("--fault-model needs a value")?;
                options.pipeline.fault_model = FaultModel::parse(v)?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number")?;
            }
            "--quiet" => {
                quiet = true;
            }
            "--resume" => {
                resume = Some(it.next().ok_or("--resume needs a file path")?.clone());
            }
            "--checkpoint" => {
                checkpoint = Some(it.next().ok_or("--checkpoint needs a file path")?.clone());
            }
            "--out" => {
                out = Some(it.next().ok_or("--out needs a file path")?.clone());
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a number")?
                    .parse()
                    .map_err(|_| "--jobs needs a number")?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--store" => {
                store = Some(it.next().ok_or("--store needs a directory path")?.clone());
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}`").into());
            }
            other => {
                return Err(format!(
                    "unexpected argument `{other}` (suite machines are named via --machines)"
                )
                .into());
            }
        }
    }
    options.pipeline.ced.seed = seed;

    let specs = if scaled {
        bench::paper_table1_scaled()
    } else {
        bench::paper_table1()
    };
    let machines: Vec<(String, Fsm)> = if names.is_empty() {
        specs
            .iter()
            .map(|s| (s.name.to_string(), s.build()))
            .collect()
    } else {
        let mut picked = Vec::with_capacity(names.len());
        for name in &names {
            let spec = specs
                .iter()
                .find(|s| s.name == *name)
                .ok_or_else(|| format!("unknown suite machine `{name}`"))?;
            picked.push((spec.name.to_string(), spec.build()));
        }
        picked
    };

    Ok(SuiteArgs {
        machines,
        options,
        certify,
        quiet,
        resume,
        checkpoint,
        out,
        jobs,
        store,
    })
}
