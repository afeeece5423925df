//! Fleet torture tests: real `ced` subprocesses rendezvousing on a
//! shared directory, one of them killed with SIGKILL mid-campaign, and
//! typed-exit-code contracts.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Seed for the kill-point jitter. Fixed so a failure reproduces; the
/// invariant under test (byte-identical convergence) must hold for
/// every value.
const KILL_SEED: u64 = 0xCED_F1EE7;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

fn ced() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ced"))
}

/// Unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "ced-fleet-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("scratch dir");
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills the child (SIGKILL on unix) when dropped, so a failing
/// assertion never leaks a campaign process.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

const CORPUS: &[&str] = &[
    "--scaled",
    "--machines",
    "s27,tav,dk512",
    "--latencies",
    "1,2",
];

fn spawn_coordinator(store: &Path) -> Reaper {
    let child = ced()
        .args(["fleet", "coordinator", "--store"])
        .arg(store)
        .args(CORPUS)
        .args([
            "--heartbeat-ms",
            "300",
            "--poll-ms",
            "10",
            "--quiet",
            "--out",
        ])
        .arg(store.join("merged.json"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    Reaper(child)
}

fn spawn_worker(store: &Path, id: &str) -> Reaper {
    let child = ced()
        .args(["fleet", "worker", "--store"])
        .arg(store)
        .args(CORPUS)
        .args([
            "--worker-id",
            id,
            "--heartbeat-ms",
            "30",
            "--poll-ms",
            "10",
            "--idle-timeout-ms",
            "60000",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    Reaper(child)
}

/// Polls until `pred` holds or the deadline passes.
fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let start = Instant::now();
    while !pred() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Names of lease files currently held by `worker` in `store`.
fn leases_of(store: &Path, worker: &str) -> Vec<String> {
    let needle = format!(".{worker}.lease");
    std::fs::read_dir(store.join("fleet").join("leased"))
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.ends_with(&needle))
                .collect()
        })
        .unwrap_or_default()
}

/// The torture test: a real worker process is SIGKILL'd at a seeded
/// random point after it claims a unit (usually mid-unit); the
/// coordinator must expire its lease, re-assign the unit to a
/// replacement worker started afterwards, and the merged report must be
/// byte-identical to the single-process single-shard run.
#[test]
fn sigkilled_worker_is_resumed_and_report_matches_single_shard() {
    let dir = ScratchDir::new("sigkill");

    // Ground truth: the ordinary single-process campaign.
    let baseline_path = dir.join("baseline.json");
    let out = ced()
        .args(["suite"])
        .args(CORPUS)
        .args(["--jobs", "1", "--quiet", "--out"])
        .arg(&baseline_path)
        .output()
        .expect("run suite");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = std::fs::read(&baseline_path).expect("baseline report");

    let store = dir.join("campaign");
    let mut coordinator = spawn_coordinator(&store);

    // Let the victim claim a unit, then kill it dead at a seeded jitter
    // (0–40 ms — inside the unit's execution window in most runs, but
    // every landing point must converge to the same report).
    let mut victim = spawn_worker(&store, "victim");
    wait_until(
        "the victim to claim a lease",
        Duration::from_secs(30),
        || !leases_of(&store, "victim").is_empty(),
    );
    std::thread::sleep(Duration::from_millis(xorshift(KILL_SEED) % 40));
    victim.0.kill().expect("SIGKILL the victim");
    victim.0.wait().expect("reap the victim");

    // Resume with a fresh worker; the campaign must drain.
    let mut replacement = spawn_worker(&store, "replacement");
    let coord_status = coordinator.0.wait().expect("coordinator exit");
    assert_eq!(
        coord_status.code(),
        Some(0),
        "coordinator must converge cleanly after the kill"
    );
    assert_eq!(replacement.0.wait().expect("worker exit").code(), Some(0));

    let merged = std::fs::read(store.join("fleet").join("report.json")).expect("fleet report");
    assert_eq!(
        merged, baseline,
        "fleet report after a SIGKILL'd-and-resumed worker must be \
         byte-identical to the single-shard run"
    );
    let out_copy = std::fs::read(store.join("merged.json")).expect("--out copy");
    assert_eq!(out_copy, baseline);
}

/// A worker pointed at a directory no coordinator ever touched is a
/// usage/environment error: exit 1.
#[test]
fn worker_without_a_manifest_exits_error() {
    let dir = ScratchDir::new("no-manifest");
    let out = ced()
        .args(["fleet", "worker", "--store"])
        .arg(dir.path())
        .args(CORPUS)
        .args(["--manifest-wait-ms", "100", "--quiet"])
        .output()
        .expect("run worker");
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("manifest"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A worker that finds every unit leased to someone else and hits its
/// idle timeout exits `cancelled` (4), not success and not error.
#[test]
fn idle_worker_exits_cancelled() {
    let dir = ScratchDir::new("idle");
    let store = dir.join("campaign");
    // Long heartbeat timeout: the hog's stolen leases stay fresh for
    // the whole test, so the worker never finds claimable work.
    let child = ced()
        .args(["fleet", "coordinator", "--store"])
        .arg(&store)
        .args(CORPUS)
        .args(["--heartbeat-ms", "60000", "--poll-ms", "10", "--quiet"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn coordinator");
    let _coordinator = Reaper(child);

    let pending = store.join("fleet").join("pending");
    let leased = store.join("fleet").join("leased");
    // Published tokens only: the coordinator writes each one to a
    // dot-prefixed temp file first and renames it into place.
    let units = || -> Vec<String> {
        std::fs::read_dir(&pending)
            .map(|rd| {
                rd.filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .filter(|n| n.starts_with("unit-") && n.ends_with(".ced"))
                    .collect()
            })
            .unwrap_or_default()
    };
    wait_until("all units to be published", Duration::from_secs(30), || {
        units().len() == 3
    });
    for name in units() {
        let unit = name.strip_suffix(".ced").expect("unit file");
        std::fs::rename(
            pending.join(&name),
            leased.join(format!("{unit}.hog.lease")),
        )
        .expect("steal the lease");
    }

    let out = ced()
        .args(["fleet", "worker", "--store"])
        .arg(&store)
        .args(CORPUS)
        .args(["--idle-timeout-ms", "300", "--poll-ms", "10", "--quiet"])
        .output()
        .expect("run worker");
    assert_eq!(
        out.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The documented exit codes distinguish outcomes without parsing
/// stderr: quarantined (2), refuted (3), cancelled (4).
#[test]
fn typed_exit_codes_distinguish_outcomes() {
    let dir = ScratchDir::new("codes");

    // 2 — campaign finished but quarantined a machine.
    let out = ced()
        .args([
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
        ])
        .output()
        .expect("run suite");
    assert_eq!(out.status.code(), Some(2));

    // 3 — a proof obligation refuted (inequivalent machines).
    let a = dir.join("a.kiss2");
    let b = dir.join("b.kiss2");
    std::fs::write(
        &a,
        ".i 1\n.o 1\n.r s0\n0 s0 s0 0\n1 s0 s1 1\n- s1 s0 0\n.e\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        ".i 1\n.o 1\n.r s0\n0 s0 s0 1\n1 s0 s1 0\n- s1 s0 1\n.e\n",
    )
    .unwrap();
    let out = ced()
        .arg("equiv")
        .arg(&a)
        .arg(&b)
        .output()
        .expect("run equiv");
    assert_eq!(out.status.code(), Some(3));

    // 4 — a budget cancelled the run (checkpoint left behind).
    let ckpt = dir.join("table.ckpt");
    let out = ced()
        .arg("table")
        .arg(&a)
        .args([
            "--latencies",
            "1",
            "--ticks",
            "10",
            "--quiet",
            "--checkpoint",
        ])
        .arg(&ckpt)
        .output()
        .expect("run table");
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("checkpoint saved"));
}

/// Resuming a suite checkpoint under a different `--jobs` count is a
/// hard error (exit 1) with a message naming the original count — the
/// report header must stay truthful.
#[test]
fn suite_resume_with_different_jobs_count_hard_errors() {
    let dir = ScratchDir::new("jobs-mismatch");
    let ckpt = dir.join("suite.ckpt");
    let base = [
        "suite",
        "--scaled",
        "--machines",
        "s27",
        "--latencies",
        "1",
        "--quiet",
    ];
    let out = ced()
        .args(base)
        .args(["--jobs", "1", "--checkpoint"])
        .arg(&ckpt)
        .output()
        .expect("run suite");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = ced()
        .args(base)
        .args(["--jobs", "2", "--resume"])
        .arg(&ckpt)
        .output()
        .expect("resume suite");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs 1"), "stderr: {err}");
}
