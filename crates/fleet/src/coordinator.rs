//! The fleet coordinator: shards the corpus, watches leases, expires
//! dead workers, quarantines poisonous units, merges deterministically.

use crate::error::FleetError;
use crate::proto::{
    Cadence, FleetDir, FleetLedger, FleetManifest, LedgerAction, LedgerEvent, UnitResult,
    UnitToken, FLEET_LEDGER_KIND, FLEET_MANIFEST_KIND, FLEET_RESULT_KIND, FLEET_UNIT_KIND,
};
use ced_core::{corpus_units, poisoned_record, suite_fingerprint, SuiteOptions, SuiteReport};
use ced_fsm::machine::Fsm;
use ced_runtime::{load_checkpoint, mtime_age, publish_envelope, CancelToken};
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Tag coordinator-published envelopes carry in their temp-file names.
const COORD_TAG: &str = "coordinator";

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// A lease whose mtime is older than this is a dead worker's.
    pub heartbeat_timeout: Duration,
    /// Period of the watchdog sweeps: they fall on whole multiples of
    /// this after the coordinator started.
    pub poll_interval: Duration,
    /// Assignments a unit gets before it is quarantined as poisonous
    /// (counting the first); the fleet analogue of the suite's
    /// retry-then-quarantine policy.
    pub max_attempts: u64,
    /// Base of the capped exponential re-assignment backoff.
    pub backoff_base: Duration,
    /// Cap of the re-assignment backoff.
    pub backoff_cap: Duration,
}

impl Default for CoordinatorOptions {
    fn default() -> CoordinatorOptions {
        CoordinatorOptions {
            heartbeat_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(50),
            max_attempts: 3,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
        }
    }
}

/// What a finished campaign produced.
#[derive(Debug)]
pub struct FleetOutcome {
    /// The merged report (also written to `fleet/report.json`).
    pub report: SuiteReport,
    /// The full lease ledger (also written to `fleet/ledger.ced`).
    pub ledger: FleetLedger,
    /// Units quarantined as poisonous (killed every assigned worker).
    pub poisoned_units: usize,
    /// Lease expiries (dead workers whose unit was re-assigned).
    pub reassigned: usize,
}

/// Capped exponential backoff before re-assigning attempt `n`'s
/// replacement (so a unit that keeps killing workers drains slowly
/// instead of hot-looping the fleet).
fn backoff(opts: &CoordinatorOptions, attempt: u64) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16) as u32;
    opts.backoff_base
        .saturating_mul(factor)
        .min(opts.backoff_cap)
}

/// A lease file's `(unit index, worker id)` parsed from its name
/// (`unit-NNNN.<worker>.lease`); `None` for foreign files.
fn parse_lease_name(name: &str) -> Option<(usize, String)> {
    let rest = name.strip_prefix("unit-")?;
    let mut parts = rest.split('.');
    let index: usize = parts.next()?.parse().ok()?;
    let worker = parts.next()?.to_string();
    match (parts.next(), parts.next()) {
        (Some("lease"), None) => Some((index, worker)),
        _ => None,
    }
}

/// The leases in `leased/` as `(unit index, worker id, path)`.
fn list_leases(dir: &FleetDir) -> Result<Vec<(usize, String, PathBuf)>, FleetError> {
    let listing = fs::read_dir(dir.leased()).map_err(|e| FleetError::io(&dir.leased(), &e))?;
    Ok(listing
        .flatten()
        .filter_map(|entry| {
            let (index, worker) = parse_lease_name(&entry.file_name().to_string_lossy())?;
            Some((index, worker, entry.path()))
        })
        .collect())
}

/// Runs a fleet campaign to completion as its coordinator.
///
/// Publishes the manifest and one work unit per machine under
/// `<store>/fleet/`, then watches: completed units are collected from
/// `done/`, stale leases (heartbeat older than
/// [`CoordinatorOptions::heartbeat_timeout`]) are expired and their
/// units re-queued with capped exponential backoff, and a unit that
/// exhausts [`CoordinatorOptions::max_attempts`] assignments is
/// quarantined as poisonous with a coordinator-written record. When
/// every unit is accounted for, the results are merged in corpus order
/// into a `ced-suite-report/1` that is byte-identical to a serial
/// single-process [`ced_core::run_suite`] over the same corpus (as
/// long as no unit was poisoned), written to `fleet/report.json`.
///
/// Re-running a crashed coordinator over the same directory resumes:
/// finished units stay finished, pending and leased units proceed.
///
/// # Errors
///
/// [`FleetError::FingerprintMismatch`] / [`FleetError::VersionMismatch`]
/// when the directory already holds a different campaign;
/// [`FleetError::Interrupted`] when `cancel` fires;
/// [`FleetError::LedgerAccounting`] when the final ledger fails its
/// own audit (a bug, not an environment failure).
pub fn run_coordinator(
    store_dir: &Path,
    machines: &[(String, Fsm)],
    options: &SuiteOptions,
    copts: &CoordinatorOptions,
    cancel: &CancelToken,
) -> Result<FleetOutcome, FleetError> {
    let sweeps = Cadence::new(copts.poll_interval);
    let dir = FleetDir::new(store_dir);
    for d in [dir.root(), &dir.pending(), &dir.leased(), &dir.done()] {
        fs::create_dir_all(d).map_err(|e| FleetError::io(d, &e))?;
    }

    let fingerprint = suite_fingerprint(machines, options);
    let units = corpus_units(machines);
    let manifest = FleetManifest {
        version: env!("CARGO_PKG_VERSION").to_string(),
        fingerprint,
        latencies: options.latencies.clone(),
        units: units
            .iter()
            .map(|u| (u.name.clone(), u.kiss2.clone()))
            .collect(),
    };
    // A fresh campaign's manifest is published after the first sweep
    // has published its units, so a worker that finds the manifest
    // finds work to claim.
    let mut unpublished_manifest = None;
    match load_checkpoint(&dir.manifest(), FLEET_MANIFEST_KIND) {
        Ok(payload) => {
            // Resuming: the directory's campaign must be this one.
            let existing = FleetManifest::from_bytes(&payload)?;
            if existing.version != manifest.version {
                return Err(FleetError::VersionMismatch {
                    found: existing.version,
                    expected: manifest.version,
                });
            }
            if existing.fingerprint != fingerprint {
                return Err(FleetError::FingerprintMismatch {
                    found: existing.fingerprint,
                    expected: fingerprint,
                });
            }
        }
        Err(_) => unpublished_manifest = Some(manifest.to_bytes()),
    }

    let total = units.len();
    // A restarted coordinator adopts the ledger its predecessor
    // persisted, so accounting spans coordinator crashes too.
    let mut ledger = load_checkpoint(&dir.ledger(), FLEET_LEDGER_KIND)
        .ok()
        .and_then(|p| FleetLedger::from_bytes(&p).ok())
        .unwrap_or_default();
    // Current assignment number per unit (grows on every re-assign).
    let mut attempts: Vec<u64> = (0..total as u64)
        .map(|unit| {
            ledger
                .events
                .iter()
                .filter(|e| e.unit == unit)
                .map(|e| e.attempt)
                .max()
                .unwrap_or(1)
        })
        .collect();
    let mut done: BTreeSet<usize> = BTreeSet::new();
    // Units waiting out their re-assignment backoff.
    let mut requeue: Vec<(Instant, UnitToken)> = Vec::new();
    let mut poisoned_units = 0usize;
    let mut reassigned = 0usize;
    // Ledger length at its last publish: the ledger is persisted on the
    // first sweep and then only when it grew; the last sweep leaves it
    // to the publish after the merge.
    let mut persisted: Option<usize> = None;

    let publish_token = |index: usize, attempt: u64| -> Result<(), FleetError> {
        publish_envelope(
            &dir.pending_unit(index),
            FLEET_UNIT_KIND,
            &UnitToken {
                index: index as u64,
                attempt,
            }
            .to_bytes(),
            COORD_TAG,
        )
        .map_err(FleetError::from)
    };

    loop {
        if cancel.is_cancelled() {
            return Err(FleetError::Interrupted);
        }

        // Collect newly finished units.
        for (index, &attempt_now) in attempts.iter().enumerate() {
            if done.contains(&index) {
                continue;
            }
            let path = dir.done_unit(index);
            if !path.exists() {
                continue;
            }
            let decoded = load_checkpoint(&path, FLEET_RESULT_KIND)
                .ok()
                .and_then(|p| UnitResult::from_bytes(&p).ok())
                .filter(|r| r.index as usize == index);
            match decoded {
                Some(result) => {
                    done.insert(index);
                    // An adopted (resume) ledger may already hold the
                    // terminal event for this unit.
                    if ledger.terminal(index as u64).is_none() {
                        ledger.events.push(LedgerEvent {
                            unit: index as u64,
                            action: if result.poisoned {
                                LedgerAction::Quarantined
                            } else {
                                LedgerAction::Completed
                            },
                            attempt: attempt_now,
                            worker: String::new(),
                        });
                    }
                }
                // Corrupt, truncated or mis-indexed result: drop it
                // and let the orphan sweep republish the unit.
                None => {
                    let _ = fs::remove_file(&path);
                }
            }
        }

        // Expire stale leases (dead workers). Units whose lease stays
        // live are remembered for the orphan sweep below.
        let mut live: BTreeSet<usize> = BTreeSet::new();
        for (index, worker, path) in list_leases(&dir)? {
            if done.contains(&index) {
                // Finished but the worker died before tidying its
                // lease (or published late after an expiry).
                let _ = fs::remove_file(&path);
                continue;
            }
            let stale = mtime_age(&path).is_none_or(|age| age > copts.heartbeat_timeout);
            if !stale {
                live.insert(index);
                continue;
            }
            let attempt = load_checkpoint(&path, FLEET_UNIT_KIND)
                .ok()
                .and_then(|p| UnitToken::from_bytes(&p).ok())
                .map_or(attempts[index], |t| t.attempt);
            let _ = fs::remove_file(&path);
            if attempt >= copts.max_attempts {
                // Poisonous: this unit has now killed max_attempts
                // workers. Quarantine it with a coordinator record.
                let notes = vec![format!(
                    "fleet: unit killed {attempt} workers (last: {worker}); \
                     quarantined as poisonous"
                )];
                let record = poisoned_record(&units[index].name, attempt as usize, notes);
                publish_envelope(
                    &dir.done_unit(index),
                    FLEET_RESULT_KIND,
                    &UnitResult {
                        index: index as u64,
                        poisoned: true,
                        record,
                    }
                    .to_bytes(),
                    COORD_TAG,
                )?;
                done.insert(index);
                poisoned_units += 1;
                attempts[index] = attempt;
                ledger.events.push(LedgerEvent {
                    unit: index as u64,
                    action: LedgerAction::Quarantined,
                    attempt,
                    worker,
                });
            } else {
                let next = attempt + 1;
                attempts[index] = next;
                reassigned += 1;
                ledger.events.push(LedgerEvent {
                    unit: index as u64,
                    action: LedgerAction::Reassigned,
                    attempt,
                    worker,
                });
                requeue.push((
                    Instant::now() + backoff(copts, attempt),
                    UnitToken {
                        index: index as u64,
                        attempt: next,
                    },
                ));
            }
        }

        // Publish re-assignments whose backoff elapsed.
        let now = Instant::now();
        let mut still_waiting = Vec::new();
        for (due, token) in requeue.drain(..) {
            if done.contains(&(token.index as usize)) {
                continue;
            }
            if due <= now {
                publish_token(token.index as usize, token.attempt)?;
            } else {
                still_waiting.push((due, token));
            }
        }
        requeue = still_waiting;

        // Orphan sweep: a unit that is nowhere (no done result, no
        // pending token, no lease, no scheduled re-queue) gets its
        // token (re)published. On a fresh campaign this is the initial
        // publish; later it heals lost or corrupted token files.
        let mut orphans: Vec<usize> = (0..total)
            .filter(|&index| {
                !done.contains(&index)
                    && !live.contains(&index)
                    && !requeue.iter().any(|(_, t)| t.index as usize == index)
                    && !dir.pending_unit(index).exists()
            })
            .collect();
        // A worker may have claimed (or even finished) a unit between
        // the listing above and its pending check: look again before
        // republishing, so a claimed unit is never handed out twice.
        if !orphans.is_empty() {
            let claimed: BTreeSet<usize> = list_leases(&dir)?.into_iter().map(|l| l.0).collect();
            orphans.retain(|&index| !claimed.contains(&index) && !dir.done_unit(index).exists());
        }
        for index in orphans {
            publish_token(index, attempts[index])?;
            ledger.events.push(LedgerEvent {
                unit: index as u64,
                action: LedgerAction::Published,
                attempt: attempts[index],
                worker: String::new(),
            });
        }

        if let Some(bytes) = unpublished_manifest.take() {
            publish_envelope(&dir.manifest(), FLEET_MANIFEST_KIND, &bytes, COORD_TAG)?;
        }
        if done.len() == total {
            break;
        }
        if persisted != Some(ledger.events.len()) {
            publish_envelope(
                &dir.ledger(),
                FLEET_LEDGER_KIND,
                &ledger.to_bytes(),
                COORD_TAG,
            )?;
            persisted = Some(ledger.events.len());
        }
        sweeps.sleep();
    }

    // Deterministic merge: results in corpus order, reassembled into
    // the same report the serial single-process campaign renders.
    let mut records = Vec::with_capacity(total);
    for (index, unit) in units.iter().enumerate() {
        let payload = load_checkpoint(&dir.done_unit(index), FLEET_RESULT_KIND)?;
        let result = UnitResult::from_bytes(&payload)?;
        if result.record.name != unit.name {
            return Err(FleetError::Corrupt(format!(
                "done unit {index} carries record for {}, expected {}",
                result.record.name, unit.name
            )));
        }
        records.push(result.record);
    }
    let mut report = SuiteReport::from_records(options.latencies.clone(), records);
    // The merged report must render the fault model the shards ran
    // under (the manifest fingerprint already rejected mismatched
    // workers, so every record used this model).
    report.fault_model = options.pipeline.fault_model;
    write_report_atomic(&dir, &report.to_json())?;

    publish_envelope(
        &dir.ledger(),
        FLEET_LEDGER_KIND,
        &ledger.to_bytes(),
        COORD_TAG,
    )?;
    if let Err(unit) = ledger.check_accounting(total) {
        return Err(FleetError::LedgerAccounting(unit));
    }
    Ok(FleetOutcome {
        report,
        ledger,
        poisoned_units,
        reassigned,
    })
}

/// Writes `fleet/report.json` via a temp sibling + rename. No
/// trailing newline — byte-identical to what `ced suite --out` writes
/// for the same corpus.
fn write_report_atomic(dir: &FleetDir, json: &str) -> Result<(), FleetError> {
    let path = dir.report();
    let tmp = dir.root().join(".report.json.tmp-coordinator");
    fs::write(&tmp, json).map_err(|e| FleetError::io(&tmp, &e))?;
    fs::rename(&tmp, &path).map_err(|e| FleetError::io(&path, &e))
}
