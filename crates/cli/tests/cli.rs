//! End-to-end tests of the `ced` binary via `CARGO_BIN_EXE`.

use std::io::Write;
use std::process::Command;

const MACHINE: &str = "\
.i 1
.o 3
.s 3
.r G
0 G G 100
1 G Y 100
- Y R 010
- R G 001
.e
";

fn write_machine() -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(MACHINE.as_bytes()).expect("write");
    f.into_temp_path()
}

fn ced(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ced"))
        .args(args)
        .output()
        .expect("spawn ced")
}

#[test]
fn help_prints_usage() {
    let out = ced(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: ced"));
}

#[test]
fn unknown_command_fails() {
    let out = ced(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = ced(&["stats", "/nonexistent/machine.kiss2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn stats_reports_structure() {
    let path = write_machine();
    let out = ced(&["stats", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("3 states"));
    assert!(text.contains("self-loops"));
}

#[test]
fn synth_reports_gates() {
    let path = write_machine();
    let out = ced(&["synth", path.to_str().unwrap(), "--encoding", "gray"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gates"));
    assert!(text.contains("sequential cost"));
}

#[test]
fn check_prints_cover() {
    let path = write_machine();
    let out = ced(&["check", path.to_str().unwrap(), "--latency", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Algorithm 1"));
    assert!(text.contains("tree 1:"));
    assert!(text.contains("checker:"));
}

#[test]
fn table_prints_row() {
    let path = write_machine();
    let out = ced(&["table", path.to_str().unwrap(), "--latencies", "1,2"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("p=1"));
    assert!(text.contains("p=2"));
    assert!(text.contains("duplication baseline"));
}

#[test]
fn inject_succeeds_with_matching_semantics() {
    // The campaign synthesizes its cover under the hardware semantics
    // it judges, for time-varying fault models too.
    let path = write_machine();
    for model in ["permanent", "transient:2"] {
        let out = ced(&[
            "inject",
            path.to_str().unwrap(),
            "--latency",
            "2",
            "--fault-model",
            model,
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{model}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.ends_with("campaign clean: hardware agrees with V(i,j,k) everywhere ✓\n"),
            "{model}: {text}"
        );
    }
}

#[test]
fn inject_refuses_semantics_and_exhaustive_inputs() {
    // The campaign always judges the Fig. 3 hardware; a flag that would
    // pick another judge is a usage error, not silently ignored.
    let path = write_machine();
    let file = path.to_str().unwrap();
    for flags in [
        &["--semantics", "lockstep"][..],
        &["--semantics", "hardware"][..],
        &["--exhaustive-inputs"][..],
    ] {
        let mut args = vec!["inject", file, "--latency", "2"];
        args.extend_from_slice(flags);
        let out = ced(&args);
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(flags[0]) && err.contains("Fig. 3 hardware"),
            "{flags:?}: {err}"
        );
    }
}

fn write_text(text: &str) -> tempfile::TempPath {
    let mut f = tempfile::NamedTempFile::new().expect("temp file");
    f.write_all(text.as_bytes()).expect("write");
    f.into_temp_path()
}

#[test]
fn machines_too_wide_to_analyze_are_refused_but_still_synthesize() {
    // A 24-state counter one-hot encoded: 1 input + 24 state bits
    // overflow the transition-table address.
    let mut counter = String::from(".i 1\n.o 1\n.s 24\n.r s0\n");
    for i in 0..24 {
        counter.push_str(&format!("0 s{i} s{i} 0\n1 s{i} s{} 1\n", (i + 1) % 24));
    }
    counter.push_str(".e\n");
    let counter = write_text(&counter);
    // A toggle with 64 outputs: 1 state bit + 64 outputs overflow the
    // response word under any encoding.
    let (zeros, ones) = ("0".repeat(64), "1".repeat(64));
    let toggle = write_text(&format!(
        ".i 1\n.o 64\n.s 2\n.r a\n0 a a {zeros}\n1 a b {ones}\n0 b b {ones}\n1 b a {zeros}\n.e\n"
    ));
    // A partially specified 2-state machine with 40 inputs: too wide
    // under any encoding, refused before completion walks its 2^40
    // input minterms per state.
    let free = "-".repeat(39);
    let wide = write_text(&format!(
        ".i 40\n.o 1\n.s 2\n.r a\n0{free} a a 0\n1{free} a b 1\n0{free} b a 0\n.e\n"
    ));
    let stats = ced(&["stats", wide.to_str().unwrap()]);
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("40 in / 2 states"), "{text}");
    assert!(
        text.contains("synthesis refuses it: partial machine too wide to complete: 40 inputs"),
        "{text}"
    );
    assert!(!text.contains("will add"), "{text}");
    for (path, encoding) in [
        (&counter, "onehot"),
        (&toggle, "natural"),
        (&wide, "natural"),
    ] {
        let file = path.to_str().unwrap();
        for cmd in [
            vec!["check", file],
            vec!["table", file, "--latencies", "1"],
            vec!["inject", file],
        ] {
            let args = [&cmd[..], &["--encoding", encoding]].concat();
            let out = ced(&args);
            assert_eq!(out.status.code(), Some(1), "args {args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("machine too wide to analyze"), "{err}");
        }
    }
    // Synthesis takes a complete machine of any width (the one-hot
    // counter is left out only because minimizing it is slow in a debug
    // build), but refuses to complete the partial one.
    for (path, code, want) in [
        (&toggle, 0, ""),
        (&wide, 1, "too wide to complete: 40 inputs"),
    ] {
        for cmd in ["synth", "export"] {
            let out = ced(&[cmd, path.to_str().unwrap()]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(code), "{cmd}: {err}");
            assert!(err.contains(want), "{err}");
        }
    }
}

#[test]
fn budget_stops_exit_cancelled_in_every_stage() {
    // `ced gen --scale 1`; the certify caps land in the pipeline and in
    // the certifier stages, and every stop is exit 4, never an error.
    let gen = ced(&["gen", "--scale", "1"]);
    let path = write_text(&String::from_utf8_lossy(&gen.stdout));
    let file = path.to_str().unwrap();
    let exit = |args: &[&str], ticks| ced(&[args, &["--ticks", ticks]].concat()).status.code();
    let inject = ["inject", file, "--latency", "2"];
    assert_eq!(exit(&inject, "1"), Some(4));
    // Only `table` can resume (it has `--checkpoint`), so only its
    // interrupt carries the `[resumable]` tag.
    let stderr = |args: &[&str]| {
        let out = ced(&[args, &["--ticks", "1"]].concat());
        assert_eq!(out.status.code(), Some(4), "{args:?}");
        String::from_utf8_lossy(&out.stderr).into_owned()
    };
    for args in [&inject, &["check", file, "--latency", "2"]] {
        let err = stderr(args);
        assert!(err.contains("interrupted"), "{args:?}: {err}");
        assert!(!err.contains("[resumable]"), "{args:?}: {err}");
    }
    let err = stderr(&["table", file, "--latencies", "2", "--quiet"]);
    assert!(err.contains("[resumable]"), "table: {err}");
    let certify = ["certify", file, "--latencies", "1,2", "--quiet"];
    for ticks in ["1", "10", "100", "1000", "2000", "5000"] {
        let code = exit(&certify, ticks);
        assert!(
            code == Some(0) || code == Some(4),
            "ticks {ticks}: {code:?}"
        );
    }
}

#[test]
fn export_emits_blif_and_verilog() {
    let path = write_machine();
    let blif = ced(&["export", path.to_str().unwrap()]);
    assert!(blif.status.success());
    let text = String::from_utf8_lossy(&blif.stdout);
    assert!(text.contains(".latch"));
    assert!(text.contains(".names"));
    let verilog = ced(&["export", path.to_str().unwrap(), "--format", "verilog"]);
    assert!(verilog.status.success());
    let text = String::from_utf8_lossy(&verilog.stdout);
    assert!(text.contains("module"));
    assert!(text.contains("posedge clk"));
}

#[test]
fn minimize_emits_kiss() {
    let path = write_machine();
    let out = ced(&["minimize", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(".i 1"));
    assert!(text.contains(".e"));
}

#[test]
fn equiv_detects_equal_and_different() {
    let a = write_machine();
    let b = write_machine();
    let same = ced(&["equiv", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("equivalent"));
    // Against a machine with inverted outputs.
    let mut f = tempfile::NamedTempFile::new().unwrap();
    std::io::Write::write_all(
        &mut f,
        b".i 1\n.o 3\n.s 3\n.r G\n0 G G 000\n1 G Y 100\n- Y R 010\n- R G 001\n.e\n",
    )
    .unwrap();
    let c = f.into_temp_path();
    let diff = ced(&["equiv", a.to_str().unwrap(), c.to_str().unwrap()]);
    assert_eq!(diff.status.code(), Some(3));
    assert_eq!(
        String::from_utf8_lossy(&diff.stdout),
        "NOT equivalent: input sequence [0] yields outputs 100 vs 000\n"
    );
    // Outputs print in KISS2 column order at full width.
    let one_state =
        |outputs: &str| write_text(&format!(".i 1\n.o 3\n.s 1\n.r a\n- a a {outputs}\n.e\n"));
    let (x, y) = (one_state("110"), one_state("000"));
    let diff = ced(&["equiv", x.to_str().unwrap(), y.to_str().unwrap()]);
    assert_eq!(diff.status.code(), Some(3));
    assert_eq!(
        String::from_utf8_lossy(&diff.stdout),
        "NOT equivalent: input sequence [0] yields outputs 110 vs 000\n"
    );
    // Inputs print in KISS2 column order at full width too.
    let x = write_text(".i 3\n.o 1\n.s 1\n.r a\n--- a a 0\n.e\n");
    let y = write_text(".i 3\n.o 1\n.s 1\n.r a\n0-- a a 0\n10- a a 0\n111 a a 0\n110 a a 1\n.e\n");
    let diff = ced(&["equiv", x.to_str().unwrap(), y.to_str().unwrap()]);
    assert_eq!(diff.status.code(), Some(3));
    assert_eq!(
        String::from_utf8_lossy(&diff.stdout),
        "NOT equivalent: input sequence [110] yields outputs 0 vs 1\n"
    );
}

#[test]
fn equiv_flag_values_are_not_machine_files() {
    let a = write_machine();
    let b = write_machine();
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    for args in [
        vec!["equiv", a, b, "--encoding", "onehot"],
        vec!["equiv", "--encoding", "gray", a, b],
        vec!["equiv", a, "--seed", "7", b],
    ] {
        let out = ced(&args);
        assert!(
            out.status.success(),
            "args {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stdout).contains("equivalent"));
    }
    for args in [
        vec!["equiv", a, "--encoding", "onehot"],
        vec!["equiv", a, b, a],
    ] {
        let out = ced(&args);
        assert_eq!(out.status.code(), Some(1), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("machine files"));
    }
}

#[test]
fn bad_flags_rejected() {
    let path = write_machine();
    for args in [
        vec!["check", path.to_str().unwrap(), "--latency", "0"],
        vec!["check", path.to_str().unwrap(), "--encoding", "quantum"],
        vec!["check", path.to_str().unwrap(), "--bogus"],
        vec!["table", path.to_str().unwrap(), "--latencies", "a,b"],
        vec!["export", path.to_str().unwrap(), "--format", "vhdl"],
    ] {
        let out = ced(&args);
        assert!(!out.status.success(), "args {args:?} should fail");
    }
}

#[test]
fn suite_runs_and_reports_json() {
    let out = ced(&[
        "suite",
        "--scaled",
        "--machines",
        "s27",
        "--latencies",
        "1",
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"schema\":\"ced-suite-report/1\""));
    assert!(text.contains("\"quarantined\":0"));
}

#[test]
fn suite_quarantines_under_impossible_budget() {
    let out = ced(&[
        "suite",
        "--scaled",
        "--machines",
        "s27",
        "--latencies",
        "1",
        "--ticks",
        "1",
        "--no-retry",
        "--quiet",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("quarantined"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"quarantined\":1"));
}

#[test]
fn suite_unknown_machine_rejected() {
    let out = ced(&["suite", "--machines", "no-such-machine", "--quiet"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown suite machine"));
}

#[test]
fn suite_resume_from_complete_checkpoint_matches() {
    let ckpt = tempfile::NamedTempFile::new().unwrap().into_temp_path();
    let first = tempfile::NamedTempFile::new().unwrap().into_temp_path();
    let second = tempfile::NamedTempFile::new().unwrap().into_temp_path();
    let base = [
        "suite",
        "--scaled",
        "--machines",
        "s27,tav",
        "--latencies",
        "1",
        "--quiet",
    ];
    let mut clean: Vec<&str> = base.to_vec();
    clean.extend([
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--out",
        first.to_str().unwrap(),
    ]);
    let out = ced(&clean);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut resumed: Vec<&str> = base.to_vec();
    resumed.extend([
        "--resume",
        ckpt.to_str().unwrap(),
        "--out",
        second.to_str().unwrap(),
    ]);
    let out = ced(&resumed);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("resuming from checkpoint"));
    let a = std::fs::read(first.to_str().unwrap()).expect("first report");
    let b = std::fs::read(second.to_str().unwrap()).expect("second report");
    assert!(!a.is_empty());
    assert_eq!(a, b, "resumed report must be byte-identical");
}

#[test]
fn table_interrupt_saves_checkpoint_and_resumes() {
    let machine = write_machine();
    let ckpt = tempfile::NamedTempFile::new().unwrap().into_temp_path();
    // A 10-tick budget trips during tensor construction, which defers
    // to a fault boundary and leaves a resumable checkpoint behind.
    let out = ced(&[
        "table",
        machine.to_str().unwrap(),
        "--latencies",
        "1",
        "--ticks",
        "10",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpoint saved"), "stderr: {err}");
    let out = ced(&[
        "table",
        machine.to_str().unwrap(),
        "--latencies",
        "1",
        "--resume",
        ckpt.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("resuming from checkpoint"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("p=1"));
}

#[test]
fn corrupt_resume_checkpoint_recomputes_with_warning() {
    let machine = write_machine();
    let mut f = tempfile::NamedTempFile::new().unwrap();
    f.write_all(b"not a checkpoint at all").unwrap();
    let garbage = f.into_temp_path();
    let out = ced(&[
        "table",
        machine.to_str().unwrap(),
        "--latencies",
        "1",
        "--resume",
        garbage.to_str().unwrap(),
        "--quiet",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("warning: checkpoint"), "stderr: {err}");
    assert!(err.contains("recomputing from scratch"), "stderr: {err}");
}

/// Minimal stand-in for the `tempfile` crate (not in the allowed
/// dependency set): unique path in the target tmp dir, deleted on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct NamedTempFile {
        file: std::fs::File,
        path: PathBuf,
    }

    pub struct TempPath(PathBuf);

    impl NamedTempFile {
        pub fn new() -> std::io::Result<NamedTempFile> {
            let mut path = std::env::temp_dir();
            let unique = format!(
                "ced-cli-test-{}-{}.kiss2",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            );
            path.push(unique);
            let file = std::fs::File::create(&path)?;
            Ok(NamedTempFile { file, path })
        }

        pub fn into_temp_path(self) -> TempPath {
            TempPath(self.path)
        }
    }

    impl std::io::Write for NamedTempFile {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            std::io::Write::write(&mut self.file, buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            std::io::Write::flush(&mut self.file)
        }
    }

    impl TempPath {
        pub fn to_str(&self) -> Option<&str> {
            self.0.to_str()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}
