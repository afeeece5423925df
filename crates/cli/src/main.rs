//! `ced` — command-line driver for bounded-latency concurrent error
//! detection on KISS2 finite state machines.
//!
//! ```text
//! ced stats  <machine.kiss2>                  structural statistics
//! ced gen    [--scale N] [--seed S]           emit a seeded synthetic
//!                                             scaling machine as KISS2
//! ced synth  <machine.kiss2> [--encoding E]   synthesize, print gates/cost
//! ced check  <machine.kiss2> [--latency P]    run Algorithm 1, print the
//!                                             parity cover & checker cost
//! ced table  <machine.kiss2> [--latencies L]  one Table-1 style row
//! ced suite  [--machines A,B] [--scaled]      survivable campaign over the
//!                                             built-in benchmark machines
//! ced fleet  coordinator|worker --store DIR   crash-tolerant sharded campaign
//!                                             across processes/machines
//! ced certify <machine.kiss2> [--latencies L] re-prove every pipeline claim
//!                                             with the independent verifier
//!                                             chain
//! ced inject <machine.kiss2> [--latency P]    fault-injection campaign on
//!                                             the Fig. 3 hardware
//! ced store  stats|gc --store DIR             inspect / garbage-collect the
//!                                             incremental artifact store
//! ced serve  [--addr H:P] [--store DIR]       long-lived analysis daemon:
//!                                             line-delimited JSON over TCP,
//!                                             warm store, admission control
//! ced export <machine.kiss2> --format blif|verilog
//! ced minimize <machine.kiss2>                emit the state-minimized KISS2
//! ced equiv  <a.kiss2> <b.kiss2>              gate-accurate equivalence check
//! ```

use std::process::ExitCode;

mod commands;
mod exit;
mod options;

use exit::ExitStatus;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(status) => ExitCode::from(status.code()),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &[String]) -> Result<ExitStatus, Box<dyn std::error::Error>> {
    let Some(command) = args.first() else {
        print_usage();
        return Ok(ExitStatus::Ok);
    };
    match command.as_str() {
        "stats" => commands::stats(&args[1..]),
        "gen" => commands::gen(&args[1..]),
        "synth" => commands::synth(&args[1..]),
        "check" => commands::check(&args[1..]),
        "table" => commands::table(&args[1..]),
        "suite" => commands::suite(&args[1..]),
        "fleet" => commands::fleet(&args[1..]),
        "certify" => commands::certify(&args[1..]),
        "inject" => commands::inject(&args[1..]),
        "store" => commands::store(&args[1..]),
        "serve" => commands::serve(&args[1..]),
        "export" => commands::export(&args[1..]),
        "minimize" => commands::minimize(&args[1..]),
        "equiv" => commands::equiv(&args[1..]),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(ExitStatus::Ok)
        }
        other => Err(format!("unknown command `{other}`; try `ced help`").into()),
    }
}

fn print_usage() {
    eprintln!(
        "\
ced — bounded-latency concurrent error detection for FSMs
      (reproduction of Almukhaizim/Drineas/Makris, DATE 2004)

usage: ced <command> <machine.kiss2> [options]

commands:
  stats   structural statistics (states, loops, self-loop density)
  gen     emit a seeded synthetic scaling machine (dk512-shaped, --scale ×
          15 states, or --states N exactly) as KISS2 to stdout or --out;
          byte-deterministic in the flags at every --jobs value
  synth   synthesize to gates; print gate count, area, depth
  check   run Algorithm 1; print the parity cover and checker cost
  table   one Table-1 style row across several latency bounds
  suite   survivable campaign over the built-in benchmark machines:
          per-machine budgets, degraded retries, quarantine, JSON report
  fleet   the suite campaign sharded over many processes (coordinator +
          any number of workers rendezvousing on a shared --store DIR);
          workers may be killed at any point — the merged report is
          byte-identical to the single-process run
  certify run the pipeline, then independently re-prove every claim it
          made: BFS soundness, exact-rational LP certificates, synthesis
          equivalence, checker co-simulation, greedy differential
  inject  fault-injection campaign on the Fig. 3 hardware: synthesize a
          cover under faulty-trajectory semantics with exhaustive inputs,
          drive every machine fault with the checker netlist in the loop,
          cross-validate each run against V(i,j,k), and audit the
          checker's own netlist
  store   inspect (`stats`, with --json for the machine-readable
          document) or garbage-collect (`gc`) an on-disk incremental
          store created with --store
  serve   long-lived analysis daemon: check/table/certify/inject over
          line-delimited JSON on TCP, sharing one warm store and worker
          pool across requests; payloads are byte-identical to the
          one-shot commands
  export  write the synthesized machine as BLIF or structural Verilog
  minimize  merge equivalent states; print the minimized KISS2
  equiv   check two machines for sequential output equivalence

common options:
  --encoding natural|gray|onehot|adjacency   state assignment (default natural)
  --latency P                                latency bound (default 1)
  --latencies A,B,C                          bounds for `table` (default 1,2,3)
  --semantics lockstep|hardware              step-difference semantics
  --exhaustive-inputs                        exact input enumeration
  --fault-model MODEL                        fault model for check, table,
                                             suite, certify and inject:
                                               permanent       (default)
                                               transient:D     SEU active for
                                                               the first D
                                                               steps, then gone
                                               intermittent:K  re-asserts every
                                                               K-th step
                                               multibit:R      permanent
                                                               cluster of nets
                                                               within index
                                                               radius R
                                             `permanent` is byte-identical to
                                             omitting the flag in every report,
                                             checkpoint and store key
  --seed N                                   rounding seed (default 0)
  --format blif|verilog                      export format (default blif)
  --jobs N                                   worker threads for check, table,
                                             suite, certify and inject
                                             (default: available parallelism;
                                             results are byte-identical at
                                             every N)
  --store DIR                                content-addressed incremental
                                             store for check, table, suite,
                                             certify and inject: memoizes
                                             tensor / synthesis / search
                                             artifacts so reruns and p-sweeps
                                             reuse them (results are
                                             byte-identical with or without
                                             the store; cache summary goes to
                                             stderr)

survivability options (table, suite; --deadline-ms and --ticks also
check, certify and inject):
  --deadline-ms N                            wall-clock budget (per machine
                                             for `suite`, whole run otherwise)
  --ticks N                                  work-tick budget (same scopes)
  --checkpoint FILE                          write checkpoints as the run
                                             progresses
  --resume FILE                              resume from a checkpoint (corrupt
                                             checkpoints are reported and the
                                             run recomputes from scratch)
  --quiet                                    suppress heartbeat progress lines
  --out FILE                                 write the JSON report to FILE

suite options:
  --machines A,B,C                           subset of the benchmark suite
                                             (default: all Table-1 machines)
  --scaled                                   use the scaled-down analogues
  --no-retry                                 quarantine immediately instead of
                                             retrying once with degraded
                                             options
  --certify                                  re-prove every finished machine
                                             with the certification layer;
                                             refuted machines are quarantined
                                             and the cert report is appended
                                             as a second JSON line

inject options (the campaign always judges the Fig. 3 hardware, under
faulty-trajectory semantics with exhaustive inputs, so --semantics and
--exhaustive-inputs are refused):
  --no-checker-faults                        skip the checker self-audit
  --steps N                                  cycles per injected fault (2000)

store options:
  --store DIR                                the store directory (required)
  --json                                     `stats`: emit the deterministic
                                             ced-store-stats/1 JSON document
  --keep-runs N                              `gc`: keep artifacts last used in
                                             the newest N runs (default 1)

serve options:
  --addr HOST:PORT                           bind address (default
                                             127.0.0.1:0 — an ephemeral port,
                                             printed as the first stdout line)
  --jobs N                                   shared analysis pool width
                                             (default 1; results identical at
                                             every N)
  --workers N                                concurrent requests (default 2)
  --max-pending N                            admission cap: queued requests
                                             beyond this are shed with a typed
                                             `overloaded` error (default 16)
  --max-line-bytes N                         longest accepted request line
                                             (default 1 MiB; larger lines get
                                             a typed `line_too_long` error)
  --line-timeout-ms N                        stall bound for partial request
                                             lines (default 10000)
  --deadline-ms N                            default per-request deadline for
                                             requests that carry none
  --max-jobs N                               detached submit/poll/fetch jobs
                                             retained (default 64)
  --store DIR                                warm incremental store shared by
                                             every request
  --debug-ops                                honor `debug-panic` requests
                                             (executor-isolation probe for
                                             tests and CI)

fleet options (plus the suite options above, which every process of a
campaign must pass identically — workers refuse a manifest whose
fingerprint does not match their own options):
  --store DIR                                shared campaign directory
                                             (required; work units live under
                                             DIR/fleet/, the merged report at
                                             DIR/fleet/report.json)
  --heartbeat-ms N                           coordinator: declare a worker
                                             dead after N ms without a lease
                                             heartbeat (default 10000);
                                             worker: heartbeat period
                                             (default 500)
  --max-attempts N                           coordinator: assignments before a
                                             unit is quarantined as poisonous
                                             (default 3)
  --worker-id NAME                           worker: identity in lease files
                                             (default w<pid>)
  --idle-timeout-ms N                        worker: exit `cancelled` after N
                                             ms with no claimable work
                                             (default: wait forever)
  --manifest-wait-ms N                       worker: how long to wait for the
                                             coordinator's manifest (30000)
  --poll-ms N                                period of the watchdog sweeps and
                                             of a worker's manifest looks and
                                             claim sweeps; they fall on whole
                                             multiples of it after the process
                                             started (default 50)

fleet status (read-only; safe next to a live campaign):
  ced fleet status --store DIR [--json] [--stale-ms N]
                                             pending/leased/done/poisoned unit
                                             counts, lease heartbeat ages and
                                             per-unit attempt counts; --json
                                             emits ced-fleet-status/1;
                                             --stale-ms marks leases older
                                             than N ms as [STALE]
                                             (default 10000)

exit codes:
  0  ok           finished; every guarantee held
  1  error        bad usage, unreadable input, environment failure
  2  quarantined  campaign finished but isolated at least one machine
  3  refuted      a proof obligation failed (certification refuted,
                  machines inequivalent, injected fault escaped, tensor
                  disagreement)
  4  cancelled    budget or idle timeout stopped the run; `table` and
                  `suite` leave their --checkpoint and `fleet` its
                  campaign directory for resumption, while `check`,
                  `certify` and `inject` leave nothing to resume
  5  degraded     campaign finished, nothing quarantined, but at least
                  one machine needed degraded options"
    );
}
