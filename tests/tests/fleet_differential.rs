//! Fleet differential guarantees, in-process: the merged multi-shard
//! report is byte-identical to the serial single-process campaign —
//! across shard counts, with dead workers, and with poisoned units
//! properly quarantined and accounted.

use ced_core::{run_suite, SuiteControl, SuiteOptions};
use ced_fleet::{
    run_coordinator, run_worker, CoordinatorOptions, FleetDir, FleetError, LedgerAction,
    WorkerOptions, WorkerOutcome,
};
use ced_fsm::machine::Fsm;
use ced_logic::gate::CellLibrary;
use ced_runtime::{claim_by_rename, CancelToken};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn corpus() -> Vec<(String, Fsm)> {
    use ced_fsm::suite as m;
    vec![
        ("seq".to_string(), m::sequence_detector()),
        ("adder".to_string(), m::serial_adder()),
        ("traffic".to_string(), m::traffic_light()),
        ("worked".to_string(), m::worked_example()),
    ]
}

fn options() -> SuiteOptions {
    SuiteOptions {
        latencies: vec![1],
        ..SuiteOptions::default()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ced-fleetdiff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn fast_coordinator() -> CoordinatorOptions {
    CoordinatorOptions {
        heartbeat_timeout: Duration::from_millis(400),
        poll_interval: Duration::from_millis(10),
        backoff_base: Duration::from_millis(10),
        backoff_cap: Duration::from_millis(50),
        ..CoordinatorOptions::default()
    }
}

fn fast_worker(id: &str) -> WorkerOptions {
    WorkerOptions {
        worker_id: id.to_string(),
        heartbeat_period: Duration::from_millis(50),
        poll_interval: Duration::from_millis(10),
        idle_timeout: Some(Duration::from_secs(30)),
        manifest_wait: Duration::from_secs(10),
    }
}

/// Runs one campaign: a coordinator thread plus `shards` worker
/// threads over `dir`, returning the coordinator's outcome.
fn run_campaign(dir: &Path, shards: usize, copts: CoordinatorOptions) -> ced_fleet::FleetOutcome {
    std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let dir = dir.to_path_buf();
            move || {
                run_coordinator(&dir, &corpus(), &options(), &copts, &CancelToken::new()).unwrap()
            }
        });
        let workers: Vec<_> = (0..shards)
            .map(|w| {
                scope.spawn({
                    let dir = dir.to_path_buf();
                    move || {
                        run_worker(
                            &dir,
                            &options(),
                            &fast_worker(&format!("w{w}")),
                            &CellLibrary::new(),
                            &CancelToken::new(),
                            None,
                        )
                        .unwrap()
                    }
                })
            })
            .collect();
        let outcome = coordinator.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        outcome
    })
}

#[test]
fn fleet_report_is_byte_identical_across_shard_counts() {
    let serial = run_suite(
        &corpus(),
        &options(),
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .unwrap()
    .to_json();

    for shards in [1usize, 4, 8] {
        let dir = tmp_dir(&format!("shards{shards}"));
        let outcome = run_campaign(&dir, shards, fast_coordinator());
        assert_eq!(
            outcome.report.to_json(),
            serial,
            "{shards}-shard fleet report must be byte-identical to the serial run"
        );
        // The on-disk report file too (what CI diffs).
        let on_disk = fs::read_to_string(FleetDir::new(&dir).report()).unwrap();
        assert_eq!(on_disk, serial);
        // Every lease accounted: one terminal event per unit.
        assert_eq!(outcome.ledger.check_accounting(corpus().len()), Ok(()));
        assert_eq!(outcome.poisoned_units, 0);
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Backdates a file's mtime so the coordinator sees it as stale.
fn backdate(path: &Path) {
    let old = std::time::SystemTime::now() - Duration::from_secs(3600);
    fs::File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_times(fs::FileTimes::new().set_modified(old))
        .unwrap();
}

/// Waits for a path to exist (the coordinator publishes asynchronously).
fn wait_for(path: &Path) {
    for _ in 0..1000 {
        if path.exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {}", path.display());
}

#[test]
fn dead_workers_lease_expires_and_report_stays_identical() {
    let serial = run_suite(
        &corpus(),
        &options(),
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .unwrap()
    .to_json();

    let dir = tmp_dir("deadworker");
    let fleet = FleetDir::new(&dir);
    let copts = fast_coordinator();

    let outcome = std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let dir = dir.clone();
            let copts = copts.clone();
            move || {
                run_coordinator(&dir, &corpus(), &options(), &copts, &CancelToken::new()).unwrap()
            }
        });

        // A "worker" that claims unit 0 and then dies: the claim
        // happens, the heartbeat never does.
        wait_for(&fleet.pending_unit(0));
        let dead_lease = fleet.lease_unit(0, "deadbeef");
        assert!(claim_by_rename(&fleet.pending_unit(0), &dead_lease).unwrap());
        backdate(&dead_lease);

        // A live worker drains everything the dead one dropped.
        let worker = scope.spawn({
            let dir = dir.clone();
            move || {
                run_worker(
                    &dir,
                    &options(),
                    &fast_worker("w0"),
                    &CellLibrary::new(),
                    &CancelToken::new(),
                    None,
                )
                .unwrap()
            }
        });
        let outcome = coordinator.join().unwrap();
        assert!(matches!(
            worker.join().unwrap(),
            WorkerOutcome::Drained { .. }
        ));
        outcome
    });

    assert!(outcome.reassigned >= 1, "the dead lease must be expired");
    assert_eq!(outcome.poisoned_units, 0);
    assert_eq!(outcome.report.to_json(), serial);
    assert_eq!(outcome.ledger.check_accounting(corpus().len()), Ok(()));
    let expiry = outcome
        .ledger
        .events
        .iter()
        .find(|e| e.action == LedgerAction::Reassigned)
        .expect("a reassignment event");
    assert_eq!(expiry.worker, "deadbeef");
    fs::remove_dir_all(&dir).unwrap();
}

/// A unit that waited in `pending/` longer than the heartbeat timeout
/// is not a dead worker's: a live worker claiming it must keep it, so
/// the campaign drains without a single re-assignment.
#[test]
fn long_pending_units_are_not_expired_on_claim() {
    let dir = tmp_dir("longpending");
    let fleet = FleetDir::new(&dir);
    let copts = fast_coordinator();

    let outcome = std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let dir = dir.clone();
            let copts = copts.clone();
            move || {
                run_coordinator(&dir, &corpus(), &options(), &copts, &CancelToken::new()).unwrap()
            }
        });
        for unit in 0..corpus().len() {
            wait_for(&fleet.pending_unit(unit));
            backdate(&fleet.pending_unit(unit));
        }
        let worker = scope.spawn({
            let dir = dir.clone();
            move || {
                run_worker(
                    &dir,
                    &options(),
                    &fast_worker("w0"),
                    &CellLibrary::new(),
                    &CancelToken::new(),
                    None,
                )
                .unwrap()
            }
        });
        let outcome = coordinator.join().unwrap();
        assert_eq!(
            worker.join().unwrap(),
            WorkerOutcome::Drained {
                processed: corpus().len()
            }
        );
        outcome
    });

    assert_eq!(
        outcome.reassigned, 0,
        "a live worker's leases must not expire"
    );
    assert_eq!(outcome.poisoned_units, 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisonous_unit_is_quarantined_after_max_attempts() {
    let dir = tmp_dir("poison");
    let fleet = FleetDir::new(&dir);
    let copts = CoordinatorOptions {
        max_attempts: 2,
        ..fast_coordinator()
    };

    let outcome = std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let dir = dir.clone();
            let copts = copts.clone();
            move || {
                run_coordinator(&dir, &corpus(), &options(), &copts, &CancelToken::new()).unwrap()
            }
        });

        // Unit 0 kills every worker that touches it: claim it with a
        // pre-staled lease each time it reappears, max_attempts times.
        for attempt in 1..=2u64 {
            wait_for(&fleet.pending_unit(0));
            let lease = fleet.lease_unit(0, &format!("victim{attempt}"));
            // The republish can race our wait; retry until the claim
            // lands.
            while !claim_by_rename(&fleet.pending_unit(0), &lease).unwrap() {
                std::thread::sleep(Duration::from_millis(10));
            }
            backdate(&lease);
        }

        let worker = scope.spawn({
            let dir = dir.clone();
            move || {
                run_worker(
                    &dir,
                    &options(),
                    &fast_worker("w0"),
                    &CellLibrary::new(),
                    &CancelToken::new(),
                    None,
                )
                .unwrap()
            }
        });
        let outcome = coordinator.join().unwrap();
        worker.join().unwrap();
        outcome
    });

    assert_eq!(outcome.poisoned_units, 1);
    assert_eq!(outcome.report.quarantined(), 1);
    assert_eq!(outcome.report.completed(), corpus().len() - 1);
    let rec = &outcome.report.records[0];
    assert_eq!(rec.name, "seq");
    assert!(
        rec.notes.iter().any(|n| n.contains("poisonous")),
        "{:?}",
        rec.notes
    );
    // Terminal ledger event for the poisoned unit is Quarantined, and
    // accounting still balances.
    assert_eq!(
        outcome.ledger.terminal(0).unwrap().action,
        LedgerAction::Quarantined
    );
    assert_eq!(outcome.ledger.check_accounting(corpus().len()), Ok(()));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_refuses_foreign_campaign_options() {
    let dir = tmp_dir("mismatch");
    // Publish a manifest directly (what a coordinator with these
    // options would write).
    let machines = corpus();
    let opts = options();
    let manifest = ced_fleet::FleetManifest {
        version: env!("CARGO_PKG_VERSION").to_string(),
        fingerprint: ced_core::suite_fingerprint(&machines, &opts),
        latencies: opts.latencies.clone(),
        units: machines
            .iter()
            .map(|(n, f)| (n.clone(), ced_fsm::kiss::to_string(f)))
            .collect(),
    };
    let fleet = FleetDir::new(&dir);
    fs::create_dir_all(fleet.root()).unwrap();
    ced_runtime::publish_envelope(
        &fleet.manifest(),
        ced_fleet::FLEET_MANIFEST_KIND,
        &manifest.to_bytes(),
        "test",
    )
    .unwrap();

    // A worker launched with different latencies must refuse.
    let mut other = options();
    other.latencies = vec![1, 2];
    let err = run_worker(
        &dir,
        &other,
        &fast_worker("w0"),
        &CellLibrary::new(),
        &CancelToken::new(),
        None,
    )
    .unwrap_err();
    assert!(
        matches!(err, FleetError::FingerprintMismatch { .. }),
        "{err}"
    );

    // A worker launched under a different fault model must refuse:
    // its records would encode a different fault automaton than the
    // campaign's.
    let mut other = options();
    other.pipeline.fault_model = ced_sim::fault::FaultModel::TransientSeu { duration: 2 };
    let err = run_worker(
        &dir,
        &other,
        &fast_worker("w0"),
        &CellLibrary::new(),
        &CancelToken::new(),
        None,
    )
    .unwrap_err();
    assert!(
        matches!(err, FleetError::FingerprintMismatch { .. }),
        "{err}"
    );

    // A manifest from another build version must refuse too.
    let forged = ced_fleet::FleetManifest {
        version: "0.0.0-other".to_string(),
        ..manifest
    };
    ced_runtime::publish_envelope(
        &fleet.manifest(),
        ced_fleet::FLEET_MANIFEST_KIND,
        &forged.to_bytes(),
        "test",
    )
    .unwrap();
    let err = run_worker(
        &dir,
        &opts,
        &fast_worker("w0"),
        &CellLibrary::new(),
        &CancelToken::new(),
        None,
    )
    .unwrap_err();
    assert!(matches!(err, FleetError::VersionMismatch { .. }), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn coordinator_refuses_directory_of_a_different_campaign() {
    let dir = tmp_dir("foreigndir");
    // Campaign A completes.
    let outcome = run_campaign(&dir, 2, fast_coordinator());
    assert_eq!(outcome.report.completed(), corpus().len());
    // Campaign B (different latencies) over the same directory: the
    // manifest fingerprint disagrees, so the coordinator refuses
    // rather than merging records produced under different options.
    let mut other = options();
    other.latencies = vec![1, 2];
    let err = run_coordinator(
        &dir,
        &corpus(),
        &other,
        &fast_coordinator(),
        &CancelToken::new(),
    )
    .unwrap_err();
    assert!(
        matches!(err, FleetError::FingerprintMismatch { .. }),
        "{err}"
    );
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crashed_coordinator_resumes_over_finished_units() {
    let serial = run_suite(
        &corpus(),
        &options(),
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .unwrap()
    .to_json();

    let dir = tmp_dir("resume");
    // First campaign run completes normally.
    let first = run_campaign(&dir, 2, fast_coordinator());
    assert_eq!(first.report.to_json(), serial);
    // A coordinator restarted over the finished directory (as after a
    // crash between merge and exit) re-merges without re-running
    // anything: no workers exist, yet it returns immediately with the
    // identical report.
    let again = run_coordinator(
        &dir,
        &corpus(),
        &options(),
        &fast_coordinator(),
        &CancelToken::new(),
    )
    .unwrap();
    assert_eq!(again.report.to_json(), serial);
    assert_eq!(again.ledger.check_accounting(corpus().len()), Ok(()));
    fs::remove_dir_all(&dir).unwrap();
}

/// A unit's end wakes its heartbeat thread: with a 5 s heartbeat period
/// and the default 50 ms poll interval, a two-unit, two-worker campaign
/// still finishes in well under one period. It cannot finish before the
/// coordinator's first tick: its first sweep publishes the units.
#[test]
fn unit_end_wakes_the_heartbeat() {
    let machines: Vec<(String, Fsm)> = corpus().into_iter().take(2).collect();
    let serial = run_suite(
        &machines,
        &options(),
        &CellLibrary::new(),
        SuiteControl::new(),
    )
    .unwrap()
    .to_json();

    let dir = tmp_dir("wake");
    let copts = CoordinatorOptions {
        poll_interval: Duration::from_millis(50),
        ..CoordinatorOptions::default()
    };
    let start = Instant::now();
    let outcome = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let dir = dir.clone();
                scope.spawn(move || {
                    let wopts = WorkerOptions {
                        heartbeat_period: Duration::from_secs(5),
                        poll_interval: Duration::from_millis(50),
                        ..fast_worker(&format!("w{w}"))
                    };
                    run_worker(
                        &dir,
                        &options(),
                        &wopts,
                        &CellLibrary::new(),
                        &CancelToken::new(),
                        None,
                    )
                    .unwrap()
                })
            })
            .collect();
        let outcome =
            run_coordinator(&dir, &machines, &options(), &copts, &CancelToken::new()).unwrap();
        for w in workers {
            w.join().unwrap();
        }
        outcome
    });
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "a two-unit campaign took {elapsed:?}: a unit's end must not wait out the heartbeat period"
    );
    assert!(elapsed >= copts.poll_interval, "{elapsed:?}");
    assert_eq!(outcome.report.to_json(), serial);
    assert_eq!(outcome.ledger.check_accounting(machines.len()), Ok(()));
    fs::remove_dir_all(&dir).unwrap();
}

/// Cancels its token when dropped, so a failing assertion cannot leave
/// a coordinator thread sweeping forever inside `thread::scope`.
struct CancelOnDrop(CancelToken);

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        self.0.cancel();
    }
}

/// Sweeps that change nothing leave `ledger.ced` alone: while a unit
/// sits under a fresh lease, the file keeps its inode (every publish
/// renames a new file into place). The test holds the ledger open, so
/// a republish cannot reuse the old inode number.
#[test]
fn idle_sweeps_do_not_rewrite_the_ledger() {
    use std::os::unix::fs::MetadataExt;

    let dir = tmp_dir("quietledger");
    let fleet = FleetDir::new(&dir);
    let copts = CoordinatorOptions {
        heartbeat_timeout: Duration::from_secs(60),
        ..fast_coordinator()
    };
    let cancel = CancelToken::new();

    let err = std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let (dir, copts, cancel) = (dir.clone(), copts.clone(), cancel.clone());
            move || run_coordinator(&dir, &corpus(), &options(), &copts, &cancel)
        });
        let stop = CancelOnDrop(cancel.clone());
        // The first sweep publishes every token, then the manifest and
        // the ledger.
        wait_for(&fleet.ledger());
        let lease = fleet.lease_unit(0, "holder");
        assert!(claim_by_rename(&fleet.pending_unit(0), &lease).unwrap());
        ced_runtime::touch(&lease).unwrap();
        // Let the coordinator see the lease, then watch the ledger over
        // many poll intervals.
        std::thread::sleep(copts.poll_interval * 5);
        let held = fs::File::open(fleet.ledger()).unwrap();
        let inode = held.metadata().unwrap().ino();
        std::thread::sleep(copts.poll_interval * 20);
        assert_eq!(
            fs::metadata(fleet.ledger()).unwrap().ino(),
            inode,
            "sweeps that log no event must not republish the ledger"
        );
        drop(stop);
        coordinator.join().unwrap().unwrap_err()
    });
    assert!(matches!(err, FleetError::Interrupted), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}

/// A fresh campaign's manifest appears only after its units: a worker
/// that finds the manifest finds work to claim, instead of sleeping
/// into its next sweep while the coordinator publishes the tokens.
#[test]
fn a_fresh_campaigns_manifest_follows_its_units() {
    let dir = tmp_dir("manifestlast");
    let fleet = FleetDir::new(&dir);
    let cancel = CancelToken::new();
    let err = std::thread::scope(|scope| {
        let coordinator = scope.spawn({
            let (dir, cancel) = (dir.clone(), cancel.clone());
            move || run_coordinator(&dir, &corpus(), &options(), &fast_coordinator(), &cancel)
        });
        let stop = CancelOnDrop(cancel.clone());
        // Look without sleeping, so the check lands right after the
        // manifest's rename.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !fleet.manifest().exists() {
            assert!(Instant::now() < deadline, "no manifest");
            std::thread::yield_now();
        }
        for index in 0..corpus().len() {
            assert!(
                fleet.pending_unit(index).exists(),
                "unit {index} was not pending when the manifest appeared"
            );
        }
        drop(stop);
        coordinator.join().unwrap().unwrap_err()
    });
    assert!(matches!(err, FleetError::Interrupted), "{err}");
    fs::remove_dir_all(&dir).unwrap();
}
