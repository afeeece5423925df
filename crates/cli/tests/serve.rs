//! The serve ≡ CLI differential: every payload the daemon returns must
//! be byte-identical to what the one-shot CLI produces for the same
//! analysis — cold store, warm store, across `--jobs` widths, under
//! concurrent clients, and for every fault model.
//!
//! This is the contract that makes the daemon trustworthy: it is a
//! *transport* around the same analysis code, never a second
//! implementation with its own drift.

use ced_fsm::generator::{generate, GeneratorConfig};
use ced_runtime::Json;
use ced_serve::Client;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_ced")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ced-serve-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A `ced serve` daemon running as a real subprocess, the way users
/// run it — the bound address is read from its first stdout line.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(extra: &[&str]) -> Daemon {
        Daemon::spawn_with_stderr(extra, Stdio::null())
    }

    fn spawn_with_stderr(extra: &[&str], stderr: Stdio) -> Daemon {
        let mut child = Command::new(bin())
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .expect("spawn ced serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read listening line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first stdout line {line:?}"))
            .parse()
            .expect("bind address parses");
        Daemon {
            child,
            _stdout: stdout,
            addr,
        }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr).expect("loopback connect")
    }

    fn shutdown(mut self) {
        let mut client = self.client();
        let resp = client
            .request(&obj(vec![
                ("id", Json::str("bye")),
                ("cmd", Json::str("shutdown")),
            ]))
            .expect("shutdown round trip");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
        let status = self.child.wait().expect("daemon exit");
        assert!(status.success(), "daemon exited {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn cli_ok(args: &[&str]) -> String {
    let out = Command::new(bin()).args(args).output().expect("run ced");
    assert!(
        out.status.success(),
        "ced {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

fn request_payload(client: &mut Client, doc: &Json) -> String {
    let resp = client.request(doc).expect("request round trip");
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "response: {}",
        resp.render()
    );
    resp.get("payload")
        .and_then(Json::as_str)
        .expect("payload string")
        .to_string()
}

/// One differential case: a machine under a fault model, with the
/// one-shot CLI reference output for each of the four served analyses.
#[derive(Clone)]
struct Case {
    label: String,
    kiss2: String,
    fault_model: &'static str,
    check_ref: String,
    table_ref: String,
    certify_ref: String,
    inject_ref: String,
}

const LATENCIES: &str = "1,2";
const INJECT_STEPS: &str = "40";
const INJECT_SEED: &str = "1";

fn machine_text(name: &str) -> String {
    let spec = ced_fsm::suite::paper_table1_scaled()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown suite machine {name}"));
    ced_fsm::kiss::to_string(&spec.build())
}

/// Runs the one-shot CLI four times to establish the reference bytes.
fn build_case(dir: &Path, name: &str, fault_model: &'static str) -> Case {
    let label = format!("{name}/{fault_model}");
    let kiss2 = machine_text(name);
    let file = dir.join(format!("{name}.kiss2"));
    std::fs::write(&file, &kiss2).expect("write machine");
    let file = file.to_str().expect("utf8 path").to_string();
    let out = |what: &str| {
        dir.join(format!(
            "{name}-{}-{what}.json",
            fault_model.replace(':', "_")
        ))
        .to_str()
        .expect("utf8 path")
        .to_string()
    };

    let check_ref = cli_ok(&["check", &file, "--fault-model", fault_model]);

    let table_out = out("table");
    cli_ok(&[
        "table",
        &file,
        "--latencies",
        LATENCIES,
        "--fault-model",
        fault_model,
        "--quiet",
        "--out",
        &table_out,
    ]);
    let table_ref = std::fs::read_to_string(&table_out).expect("table report");

    let certify_out = out("certify");
    cli_ok(&[
        "certify",
        &file,
        "--latencies",
        LATENCIES,
        "--fault-model",
        fault_model,
        "--quiet",
        "--out",
        &certify_out,
    ]);
    let certify_ref = std::fs::read_to_string(&certify_out).expect("certify report");

    let inject_out = out("inject");
    cli_ok(&[
        "inject",
        &file,
        "--steps",
        INJECT_STEPS,
        "--seed",
        INJECT_SEED,
        "--fault-model",
        fault_model,
        "--quiet",
        "--out",
        &inject_out,
    ]);
    let inject_ref = std::fs::read_to_string(&inject_out).expect("inject report");

    Case {
        label,
        kiss2,
        fault_model,
        check_ref,
        table_ref,
        certify_ref,
        inject_ref,
    }
}

/// Issues all four analyses for a case over one connection and asserts
/// each served payload equals the CLI reference byte-for-byte.
fn assert_case_identical(client: &mut Client, case: &Case, pass: &str) {
    let base = |cmd: &str| {
        vec![
            ("id", Json::str(&format!("{}-{cmd}", case.label))),
            ("cmd", Json::str(cmd)),
            ("machine", Json::str(&case.kiss2)),
            ("fault_model", Json::str(case.fault_model)),
        ]
    };
    let latencies = Json::Array(vec![Json::UInt(1), Json::UInt(2)]);

    let payload = request_payload(client, &obj(base("check")));
    assert_eq!(payload, case.check_ref, "check {} ({pass})", case.label);

    let mut fields = base("table");
    fields.push(("latencies", latencies.clone()));
    let payload = request_payload(client, &obj(fields));
    assert_eq!(payload, case.table_ref, "table {} ({pass})", case.label);

    let mut fields = base("certify");
    fields.push(("latencies", latencies));
    let payload = request_payload(client, &obj(fields));
    assert_eq!(payload, case.certify_ref, "certify {} ({pass})", case.label);

    let mut fields = base("inject");
    fields.push(("steps", Json::UInt(40)));
    fields.push(("seed", Json::UInt(1)));
    let payload = request_payload(client, &obj(fields));
    assert_eq!(payload, case.inject_ref, "inject {} ({pass})", case.label);
}

#[test]
fn served_payloads_are_byte_identical_to_the_one_shot_cli() {
    let dir = scratch("differential");
    // Two machines × two fault models; references from the one-shot CLI.
    let cases: Vec<Case> = [
        ("s27", "permanent"),
        ("s27", "transient:3"),
        ("tav", "permanent"),
        ("tav", "transient:3"),
    ]
    .into_iter()
    .map(|(name, fm)| build_case(&dir, name, fm))
    .collect();

    // Daemon A: wide pool, warm store. Every case runs on its own
    // concurrent client — twice, so the second pass hits a warm store.
    let store_dir = dir.join("store");
    let store = store_dir.to_str().expect("utf8 path");
    let daemon = Daemon::spawn(&["--jobs", "4", "--workers", "4", "--store", store]);
    for pass in ["cold store", "warm store"] {
        std::thread::scope(|scope| {
            for case in &cases {
                let mut client = daemon.client();
                scope.spawn(move || assert_case_identical(&mut client, case, pass));
            }
        });
    }
    // The warm store was actually used: the daemon's health document
    // reports live store statistics with a non-empty entry count.
    let mut client = daemon.client();
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("h")),
            ("cmd", Json::str("health")),
        ]))
        .expect("health");
    let entries = resp
        .get("health")
        .and_then(|h| h.get("store"))
        .and_then(|s| s.get("entries"))
        .and_then(Json::as_u64)
        .expect("store entry count in health");
    assert!(entries > 0, "store should be warm after two passes");
    daemon.shutdown();

    // Daemon B: serial pool, no store. Same bytes regardless.
    let daemon = Daemon::spawn(&["--jobs", "1"]);
    let mut client = daemon.client();
    for case in &cases {
        assert_case_identical(&mut client, case, "jobs=1, no store");
    }
    daemon.shutdown();
}

/// A panicking analysis answers `internal_error` and leaves nothing on
/// the daemon's stderr, whether it is the `debug-panic` probe or a real
/// assertion inside `check` (one-hot assignment of a 64-state machine),
/// and the daemon keeps serving.
#[test]
fn captured_panics_answer_internal_error_and_stay_off_stderr() {
    let mut daemon = Daemon::spawn_with_stderr(&["--debug-ops", "--jobs", "2"], Stdio::piped());
    let mut stderr = daemon.child.stderr.take().expect("piped stderr");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stderr
            .read_to_string(&mut text)
            .expect("read daemon stderr");
        text
    });
    let wide = ced_fsm::kiss::to_string(&generate(&GeneratorConfig {
        name: "wide64".into(),
        num_inputs: 1,
        num_states: 64,
        num_outputs: 1,
        cubes_per_state: 2,
        self_loop_bias: 0.3,
        output_dc_prob: 0.0,
        output_pool: 2,
        seed: 7,
    }));

    let mut client = daemon.client();
    // Both answers must come from a caught panic, not from a typed
    // failure, which maps to `internal_error` as well.
    let assert_panicked = |resp: &Json| {
        let error = resp.get("error");
        let field = |key| error.and_then(|e| e.get(key)).and_then(Json::as_str);
        assert_eq!(field("kind"), Some("internal_error"), "{}", resp.render());
        assert!(
            field("message").is_some_and(|m| m.starts_with("analysis panicked: ")),
            "{}",
            resp.render()
        );
    };
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("boom")),
            ("cmd", Json::str("debug-panic")),
        ]))
        .expect("debug-panic round trip");
    assert_panicked(&resp);
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("wide")),
            ("cmd", Json::str("check")),
            ("machine", Json::str(&wide)),
            ("encoding", Json::str("onehot")),
        ]))
        .expect("one-hot check round trip");
    assert_panicked(&resp);
    request_payload(
        &mut client,
        &obj(vec![
            ("id", Json::str("after")),
            ("cmd", Json::str("check")),
            ("machine", Json::str(&machine_text("s27"))),
        ]),
    );
    daemon.shutdown();

    let stderr = reader.join().expect("stderr reader");
    assert!(
        !stderr.contains("panicked at"),
        "captured panics reached stderr:\n{stderr}"
    );
}
