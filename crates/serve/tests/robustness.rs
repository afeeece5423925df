//! Protocol-robustness suite for the `ced serve` daemon.
//!
//! Every test drives a real daemon over real loopback TCP and checks
//! the contracts the daemon exists to keep: hostile or broken input
//! produces *typed* errors (never a panic, never a wedged thread,
//! never an unbounded buffer), overload is shed at admission instead
//! of queueing without bound, a client disconnect observably cancels
//! its in-flight work, and a panicking analysis is isolated to an
//! `internal_error` response while the daemon keeps serving.

use ced_runtime::Json;
use ced_serve::{Client, ServeOptions, Server};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// The two-state toggle machine: every fast request uses this.
const TINY: &str = "\
.i 1
.o 1
.p 4
.s 2
.r s0
0 s0 s0 0
1 s0 s1 1
0 s1 s0 1
1 s1 s1 0
.e
";

/// A `n`-state counter whose exhaustive-input tensor takes seconds to
/// build (debug profile) while checking its budget constantly — the
/// canonical "slow but promptly cancellable" request.
fn counter_kiss2(n: usize) -> String {
    let mut out = format!(".i 1\n.o 1\n.p {}\n.s {n}\n.r s0\n", 2 * n);
    for i in 0..n {
        out.push_str(&format!("0 s{i} s{i} {}\n", i % 2));
        out.push_str(&format!("1 s{i} s{} {}\n", (i + 1) % n, (i >> 1) % 2));
    }
    out.push_str(".e\n");
    out
}

fn options() -> ServeOptions {
    ServeOptions {
        debug_ops: true,
        ..ServeOptions::default()
    }
}

fn start(opts: ServeOptions) -> Server {
    Server::start(opts).expect("daemon starts")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.addr()).expect("loopback connect")
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn check_req(id: &str, machine: &str) -> Json {
    obj(vec![
        ("id", Json::str(id)),
        ("cmd", Json::str("check")),
        ("machine", Json::str(machine)),
    ])
}

/// The slow request: exhaustive table over four bounds on the counter.
fn slow_table_req(id: &str) -> Json {
    slow_table_req_sized(id, 120)
}

/// A request that holds its executor for as long as any test runs: the
/// exhaustive tensor of a 2000-state counter takes ~80 s to build in
/// the debug profile and ~3 s in release, while checking its budget
/// constantly. Only a cancellation ends it within a test, so a test
/// that needs a busy executor cannot lose it to a fast engine.
fn held_table_req(id: &str) -> Json {
    slow_table_req_sized(id, 2000)
}

/// [`slow_table_req`] over an `n`-state counter, for tests that must
/// outlast a budget regardless of engine speed — a budget-aborted
/// request costs only the budget itself, so a much larger machine
/// keeps such tests both robust and fast.
fn slow_table_req_sized(id: &str, n: usize) -> Json {
    obj(vec![
        ("id", Json::str(id)),
        ("cmd", Json::str("table")),
        ("machine", Json::str(&counter_kiss2(n))),
        (
            "latencies",
            Json::Array(vec![
                Json::UInt(1),
                Json::UInt(2),
                Json::UInt(3),
                Json::UInt(4),
            ]),
        ),
        ("exhaustive_inputs", Json::Bool(true)),
    ])
}

fn status_of(resp: &Json) -> &str {
    resp.get("status")
        .and_then(Json::as_str)
        .expect("status field")
}

fn error_kind(resp: &Json) -> &str {
    resp.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("typed error expected, got {}", resp.render()))
}

fn health(client: &mut Client) -> Json {
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("h")),
            ("cmd", Json::str("health")),
        ]))
        .expect("health round trip");
    assert_eq!(status_of(&resp), "ok");
    resp.get("health").expect("health document").clone()
}

fn counter(health: &Json, name: &str) -> u64 {
    health
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counter {name} in {}", health.render()))
}

/// Polls the daemon's health until `pred` holds or the deadline passes.
fn wait_for(client: &mut Client, what: &str, pred: impl Fn(&Json) -> bool) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let doc = health(client);
        if pred(&doc) {
            return doc;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last health: {}",
            doc.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn shutdown(server: Server, client: &mut Client) {
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("bye")),
            ("cmd", Json::str("shutdown")),
        ]))
        .expect("shutdown round trip");
    assert_eq!(status_of(&resp), "ok");
    server.wait();
}

#[test]
fn garbage_and_malformed_lines_get_typed_errors_and_the_connection_survives() {
    let server = start(options());
    let mut client = connect(&server);
    let bad_lines = [
        "this is not json",
        "[1,2,3]",
        "{\"id\":\"a\"",
        "{\"id\":\"a\",\"cmd\":\"frobnicate\"}",
        "{\"id\":\"a\",\"cmd\":\"check\"}",
        "{\"id\":\"a\",\"cmd\":\"check\",\"machine\":\"not kiss2 at all\",\"latency\":\"one\"}",
        "{\"id\":\"a\",\"cmd\":\"check\",\"machine\":\"x\",\"surprise\":1}",
        "{\"id\":\"a\",\"cmd\":\"poll\"}",
        "42",
        "\"just a string\"",
    ];
    for line in bad_lines {
        client.send_line(line).expect("send survives");
        let resp = Json::parse(&client.recv_line().expect("typed response")).expect("valid JSON");
        assert_eq!(status_of(&resp), "error", "for line {line}");
        assert_eq!(error_kind(&resp), "bad_request", "for line {line}");
    }
    // The connection is still usable for real work afterwards.
    let resp = client
        .request(&check_req("ok1", TINY))
        .expect("check after garbage");
    assert_eq!(status_of(&resp), "ok");
    assert!(resp
        .get("payload")
        .and_then(Json::as_str)
        .expect("payload")
        .contains("Algorithm 1"));
    shutdown(server, &mut client);
}

#[test]
fn a_machine_that_fails_to_parse_is_bad_request_not_internal_error() {
    let server = start(options());
    let mut client = connect(&server);
    let resp = client
        .request(&check_req("bad", "definitely not a kiss2 machine"))
        .expect("round trip");
    assert_eq!(status_of(&resp), "error");
    assert_eq!(error_kind(&resp), "bad_request");
    shutdown(server, &mut client);
}

#[test]
fn a_machine_too_wide_to_analyze_is_bad_request_and_the_daemon_survives() {
    // One-hot on 30 states is 30 state bits: the transition tables
    // would need 2^31 entries, and the input model one slot per code.
    let server = start(options());
    let mut client = connect(&server);
    // A 40-input machine is too wide under any encoding, and is
    // refused before completing its unspecified 2^40 input minterms.
    let free = "-".repeat(39);
    let wide = format!(".i 40\n.o 1\n.s 2\n.r a\n0{free} a a 0\n1{free} a b 1\n.e\n");
    for (machine, encoding) in [(counter_kiss2(30), "onehot"), (wide, "natural")] {
        for cmd in ["check", "table"] {
            let resp = client
                .request(&obj(vec![
                    ("id", Json::str(cmd)),
                    ("cmd", Json::str(cmd)),
                    ("machine", Json::str(&machine)),
                    ("encoding", Json::str(encoding)),
                ]))
                .expect("round trip");
            assert_eq!(status_of(&resp), "error", "{cmd}");
            assert_eq!(error_kind(&resp), "bad_request", "{cmd}");
            let message = resp.get("error").and_then(|e| e.get("message"));
            assert!(
                message
                    .and_then(Json::as_str)
                    .is_some_and(|m| m.contains("machine too wide to analyze")),
                "{}",
                resp.render()
            );
        }
    }
    health(&mut client);
    shutdown(server, &mut client);
}

#[test]
fn oversized_request_line_is_rejected_typed_then_the_connection_closes() {
    let server = start(ServeOptions {
        max_line_bytes: 1024,
        ..options()
    });
    let mut abuser = connect(&server);
    let huge = format!(
        "{{\"id\":\"big\",\"cmd\":\"check\",\"machine\":\"{}\"}}",
        "x".repeat(64 * 1024)
    );
    abuser.send_line(&huge).expect("send oversized line");
    let resp = Json::parse(&abuser.recv_line().expect("typed response")).expect("valid JSON");
    assert_eq!(error_kind(&resp), "line_too_long");
    // The daemon cannot resynchronize inside an abandoned line, so the
    // connection is closed...
    assert!(abuser.recv_line().is_err(), "connection should be closed");
    // ...but the daemon itself keeps serving new clients.
    let mut client = connect(&server);
    let resp = client
        .request(&check_req("after", TINY))
        .expect("fresh client works");
    assert_eq!(status_of(&resp), "ok");
    shutdown(server, &mut client);
}

#[test]
fn slow_trickle_partial_line_gets_read_timeout() {
    let server = start(ServeOptions {
        line_timeout: Duration::from_millis(300),
        ..options()
    });
    let mut trickler = connect(&server);
    let mut raw = trickler.stream();
    raw.write_all(b"{\"id\":\"tri").expect("partial write");
    raw.flush().expect("flush");
    // Never send the rest. The daemon must answer with a typed
    // read_timeout instead of parking a reader thread forever.
    let resp = Json::parse(&trickler.recv_line().expect("typed response")).expect("valid JSON");
    assert_eq!(error_kind(&resp), "read_timeout");
    let mut client = connect(&server);
    assert_eq!(
        status_of(&client.request(&check_req("after", TINY)).unwrap()),
        "ok"
    );
    shutdown(server, &mut client);
}

#[test]
fn mid_line_disconnect_leaves_the_daemon_serving() {
    let server = start(options());
    {
        let vanisher = connect(&server);
        let mut raw = vanisher.stream();
        raw.write_all(b"{\"id\":\"gone\",\"cmd\":\"chec")
            .expect("partial write");
        raw.flush().expect("flush");
    } // dropped mid-line
    let mut client = connect(&server);
    let resp = client
        .request(&check_req("after", TINY))
        .expect("daemon survives");
    assert_eq!(status_of(&resp), "ok");
    shutdown(server, &mut client);
}

#[test]
fn overload_is_shed_with_typed_errors_while_admitted_work_completes() {
    let server = start(ServeOptions {
        workers: 1,
        max_pending: 1,
        ..options()
    });
    // Occupy the single executor with a request that cannot finish.
    let mut slow = connect(&server);
    slow.send_line(&held_table_req("slow").render())
        .expect("send slow");
    let mut probe = connect(&server);
    wait_for(&mut probe, "slow request to start running", |h| {
        counter(h, "admitted") == 1 && h.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });
    // Fill the single pending slot and wait until it holds the filler
    // (a flood request racing the filler could take the slot), then
    // flood: everything beyond the slot must be shed immediately with
    // a typed `overloaded` error.
    probe
        .send_line(&held_table_req("fill").render())
        .expect("send filler");
    let mut aux = connect(&server);
    wait_for(&mut aux, "filler to take the pending slot", |h| {
        counter(h, "admitted") == 2 && h.get("queue_depth").and_then(Json::as_u64) == Some(1)
    });
    let mut flood = connect(&server);
    for i in 0..4 {
        flood
            .send_line(&check_req(&format!("flood{i}"), TINY).render())
            .expect("send flood");
    }
    for i in 0..4 {
        let resp = Json::parse(&flood.recv_line().expect("shed response")).expect("valid JSON");
        assert_eq!(status_of(&resp), "error", "flood request {i}");
        assert_eq!(error_kind(&resp), "overloaded", "flood request {i}");
    }
    // Shedding is accounted, and the daemon is still fully responsive
    // on its control plane while saturated.
    let doc = health(&mut aux);
    assert!(counter(&doc, "shed") >= 4, "health: {}", doc.render());
    // Dropping the saturating clients cancels their work — both held
    // requests end cancelled, neither completes — and the daemon
    // returns to idle and keeps serving.
    drop(slow);
    drop(probe);
    let doc = wait_for(&mut aux, "saturating work to drain", |h| {
        h.get("queue_depth").and_then(Json::as_u64) == Some(0) && counter(h, "cancelled") >= 2
    });
    assert_eq!(counter(&doc, "completed"), 0, "health: {}", doc.render());
    let resp = aux
        .request(&check_req("after", TINY))
        .expect("post-overload check");
    assert_eq!(status_of(&resp), "ok");
    shutdown(server, &mut aux);
}

#[test]
fn client_disconnect_observably_cancels_its_in_flight_request() {
    let server = start(ServeOptions {
        workers: 1,
        ..options()
    });
    let mut doomed = connect(&server);
    doomed
        .send_line(&held_table_req("doomed").render())
        .expect("send slow");
    let mut probe = connect(&server);
    wait_for(&mut probe, "slow request to start running", |h| {
        counter(h, "admitted") == 1 && h.get("queue_depth").and_then(Json::as_u64) == Some(0)
    });
    let before = counter(&health(&mut probe), "cancelled");
    drop(doomed); // the disconnect is the cancellation
    let doc = wait_for(&mut probe, "disconnect-driven cancellation", |h| {
        counter(h, "cancelled") > before
    });
    assert_eq!(counter(&doc, "panics"), 0);
    assert_eq!(counter(&doc, "completed"), 0, "health: {}", doc.render());
    // The executor freed by the cancellation serves new work.
    let resp = probe
        .request(&check_req("after", TINY))
        .expect("post-cancel check");
    assert_eq!(status_of(&resp), "ok");
    shutdown(server, &mut probe);
}

#[test]
fn panicking_analysis_is_isolated_to_a_typed_internal_error() {
    let server = start(options());
    let mut client = connect(&server);
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("boom")),
            ("cmd", Json::str("debug-panic")),
        ]))
        .expect("round trip");
    assert_eq!(status_of(&resp), "error");
    assert_eq!(error_kind(&resp), "internal_error");
    // Same daemon, same connection: still serving.
    let resp = client
        .request(&check_req("after", TINY))
        .expect("post-panic check");
    assert_eq!(status_of(&resp), "ok");
    assert_eq!(counter(&health(&mut client), "panics"), 1);
    shutdown(server, &mut client);
}

#[test]
fn debug_panic_is_refused_unless_enabled() {
    let server = start(ServeOptions {
        debug_ops: false,
        ..options()
    });
    let mut client = connect(&server);
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("boom")),
            ("cmd", Json::str("debug-panic")),
        ]))
        .expect("round trip");
    assert_eq!(error_kind(&resp), "bad_request");
    shutdown(server, &mut client);
}

#[test]
fn submitted_jobs_poll_fetch_and_cancel_as_typed_handles() {
    let server = start(ServeOptions {
        workers: 1,
        ..options()
    });
    let mut client = connect(&server);
    // Unknown handles are typed not_found.
    for cmd in ["poll", "fetch", "cancel"] {
        let resp = client
            .request(&obj(vec![
                ("id", Json::str("x")),
                ("cmd", Json::str(cmd)),
                ("handle", Json::str("job-9999")),
            ]))
            .expect("round trip");
        assert_eq!(error_kind(&resp), "not_found", "cmd {cmd}");
    }
    // Submit a detached job that cannot finish before it is
    // cancelled; it survives beyond this request.
    let doc = held_table_req("ignored");
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("s1")),
            ("cmd", Json::str("submit")),
            ("job", doc),
        ]))
        .expect("submit");
    assert_eq!(status_of(&resp), "ok");
    let handle = resp
        .get("handle")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();
    // Not finished yet: fetch is typed not_ready, poll reports a live
    // state.
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("f1")),
            ("cmd", Json::str("fetch")),
            ("handle", Json::str(&handle)),
        ]))
        .expect("early fetch");
    assert_eq!(error_kind(&resp), "not_ready");
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("p1")),
            ("cmd", Json::str("poll")),
            ("handle", Json::str(&handle)),
        ]))
        .expect("poll");
    let state = resp.get("state").and_then(Json::as_str).expect("state");
    assert!(state == "queued" || state == "running", "state {state}");
    // Cancel it; the job converges to done-with-cancelled.
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("c1")),
            ("cmd", Json::str("cancel")),
            ("handle", Json::str(&handle)),
        ]))
        .expect("cancel");
    assert_eq!(status_of(&resp), "ok");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = client
            .request(&obj(vec![
                ("id", Json::str("p2")),
                ("cmd", Json::str("poll")),
                ("handle", Json::str(&handle)),
            ]))
            .expect("poll loop");
        if resp.get("state").and_then(Json::as_str) == Some("done") {
            break;
        }
        assert!(Instant::now() < deadline, "cancelled job never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("f2")),
            ("cmd", Json::str("fetch")),
            ("handle", Json::str(&handle)),
        ]))
        .expect("final fetch");
    assert_eq!(error_kind(&resp), "cancelled");
    // Fetch consumes the handle.
    let resp = client
        .request(&obj(vec![
            ("id", Json::str("f3")),
            ("cmd", Json::str("fetch")),
            ("handle", Json::str(&handle)),
        ]))
        .expect("fetch after consume");
    assert_eq!(error_kind(&resp), "not_found");
    shutdown(server, &mut client);
}

#[test]
fn per_request_deadline_and_tick_caps_are_typed() {
    let server = start(options());
    let mut client = connect(&server);
    // A counter large enough that the analysis outlasts a 50 ms
    // deadline under the release profile and the sparse engine; the
    // request still aborts at the deadline, so the test stays fast.
    let mut doc = slow_table_req_sized("dl", 480);
    if let Json::Object(fields) = &mut doc {
        fields.push(("deadline_ms".to_string(), Json::UInt(50)));
    }
    let resp = client.request(&doc).expect("deadline round trip");
    assert_eq!(error_kind(&resp), "deadline_exceeded");
    let mut doc = slow_table_req("tk");
    if let Json::Object(fields) = &mut doc {
        fields.push(("ticks".to_string(), Json::UInt(10)));
    }
    let resp = client.request(&doc).expect("ticks round trip");
    assert_eq!(error_kind(&resp), "resource_exhausted");
    // Neither exhausted request hurt the daemon.
    let resp = client
        .request(&check_req("after", TINY))
        .expect("post-exhaustion check");
    assert_eq!(status_of(&resp), "ok");
    shutdown(server, &mut client);
}

/// [`TINY`] with one output bit flipped (the s1 self-loop) — the
/// smallest output-only edit.
const TINY_EDITED: &str = "\
.i 1
.o 1
.p 4
.s 2
.r s0
0 s0 s0 0
1 s0 s1 1
0 s1 s0 1
1 s1 s1 1
.e
";

#[test]
fn analyze_delta_matches_plain_check_and_resolves_fingerprints() {
    let server = start(options());
    let mut client = connect(&server);

    // Reference: a plain check of the edited machine.
    let plain = client
        .request(&check_req("plain", TINY_EDITED))
        .expect("plain check");
    assert_eq!(status_of(&plain), "ok", "{}", plain.render());
    let reference = plain.get("payload").and_then(Json::as_str).unwrap();
    assert!(
        plain.get("delta").is_none(),
        "plain check must not carry a delta summary"
    );

    // analyze-delta with the baseline inline: identical payload.
    let inline = client
        .request(&obj(vec![
            ("id", Json::str("inline")),
            ("cmd", Json::str("analyze-delta")),
            ("machine", Json::str(TINY_EDITED)),
            ("baseline", Json::str(TINY)),
        ]))
        .expect("inline analyze-delta");
    assert_eq!(status_of(&inline), "ok", "{}", inline.render());
    assert_eq!(
        inline.get("payload").and_then(Json::as_str).unwrap(),
        reference,
        "analyze-delta payload must be byte-identical to plain check"
    );
    let summary = inline
        .get("delta")
        .and_then(Json::as_str)
        .expect("analyze-delta carries a delta summary field");
    assert!(
        summary.starts_with("delta: ") && summary.contains("cones:"),
        "unexpected summary shape: {summary}"
    );

    // A check of the baseline deposits it in the recent-machine cache;
    // analyze-delta may then name it by fingerprint.
    let base = client
        .request(&check_req("base", TINY))
        .expect("base check");
    assert_eq!(status_of(&base), "ok", "{}", base.render());
    let fp = ced_runtime::fnv1a64(TINY.as_bytes());
    let by_fp = client
        .request(&obj(vec![
            ("id", Json::str("by-fp")),
            ("cmd", Json::str("analyze-delta")),
            ("machine", Json::str(TINY_EDITED)),
            ("baseline_fp", Json::UInt(fp)),
        ]))
        .expect("fingerprint analyze-delta");
    assert_eq!(status_of(&by_fp), "ok", "{}", by_fp.render());
    assert_eq!(
        by_fp.get("payload").and_then(Json::as_str).unwrap(),
        reference,
        "fingerprint-named baseline must give the same payload"
    );

    // Unknown fingerprint: typed not_found, connection survives.
    let missing = client
        .request(&obj(vec![
            ("id", Json::str("missing")),
            ("cmd", Json::str("analyze-delta")),
            ("machine", Json::str(TINY_EDITED)),
            ("baseline_fp", Json::UInt(0xDEAD_BEEF)),
        ]))
        .expect("missing-fp response");
    assert_eq!(status_of(&missing), "error");
    assert_eq!(error_kind(&missing), "not_found");

    // Shape errors are typed bad_request: a baseline on plain check, a
    // baseline-free analyze-delta, both baseline spellings at once.
    for (what, doc) in [
        (
            "baseline on check",
            obj(vec![
                ("id", Json::str("e1")),
                ("cmd", Json::str("check")),
                ("machine", Json::str(TINY_EDITED)),
                ("baseline", Json::str(TINY)),
            ]),
        ),
        (
            "analyze-delta without baseline",
            obj(vec![
                ("id", Json::str("e2")),
                ("cmd", Json::str("analyze-delta")),
                ("machine", Json::str(TINY_EDITED)),
            ]),
        ),
        (
            "both baseline spellings",
            obj(vec![
                ("id", Json::str("e3")),
                ("cmd", Json::str("analyze-delta")),
                ("machine", Json::str(TINY_EDITED)),
                ("baseline", Json::str(TINY)),
                ("baseline_fp", Json::UInt(fp)),
            ]),
        ),
    ] {
        let resp = client.request(&doc).expect(what);
        assert_eq!(status_of(&resp), "error", "{what}: {}", resp.render());
        assert_eq!(error_kind(&resp), "bad_request", "{what}");
    }

    shutdown(server, &mut client);
}

#[test]
fn shutdown_request_stops_the_daemon_cleanly() {
    let server = start(options());
    let addr = server.addr();
    let mut client = connect(&server);
    shutdown(server, &mut client);
    // The listener is gone: new connections are refused (allow a
    // moment for the OS to tear the socket down).
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if Client::connect(addr).is_err() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "listener still accepting after shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
