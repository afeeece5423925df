//! The fleet worker: claim a unit by atomic rename, heartbeat the
//! lease while computing, publish the result, repeat until the
//! campaign drains.

use crate::error::FleetError;
use crate::proto::{
    FleetDir, FleetManifest, UnitResult, UnitToken, FLEET_MANIFEST_KIND, FLEET_RESULT_KIND,
    FLEET_UNIT_KIND,
};
use ced_core::{run_suite_unit, suite_fingerprint, SuiteOptions};
use ced_fsm::machine::Fsm;
use ced_logic::gate::CellLibrary;
use ced_runtime::{claim_by_rename, load_checkpoint, publish_envelope, touch, CancelToken};
use ced_store::Store;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Identity embedded in lease file names and publish temp tags.
    /// Letters, digits, `-` and `_` only (it lives inside file names
    /// that are parsed on `.` boundaries).
    pub worker_id: String,
    /// How often the lease heartbeat thread bumps the lease mtime.
    /// Must be well under the coordinator's heartbeat timeout.
    pub heartbeat_period: Duration,
    /// Sleep between claim sweeps when nothing is claimable.
    pub poll_interval: Duration,
    /// Give up waiting for claimable work after this long with neither
    /// a claim nor campaign completion (`None` = wait forever).
    pub idle_timeout: Option<Duration>,
    /// How long to wait for the coordinator's manifest to appear.
    pub manifest_wait: Duration,
}

impl Default for WorkerOptions {
    fn default() -> WorkerOptions {
        WorkerOptions {
            worker_id: format!("w{}", std::process::id()),
            heartbeat_period: Duration::from_millis(500),
            poll_interval: Duration::from_millis(50),
            idle_timeout: None,
            manifest_wait: Duration::from_secs(30),
        }
    }
}

/// How a worker's run ended (both are success exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerOutcome {
    /// The campaign drained: every unit has a result in `done/`.
    Drained {
        /// Units this worker completed.
        processed: usize,
    },
    /// [`WorkerOptions::idle_timeout`] elapsed with no claimable work
    /// and the campaign still incomplete (e.g. everything is leased to
    /// other workers).
    IdleTimeout {
        /// Units this worker completed.
        processed: usize,
    },
}

/// Keeps a lease fresh from a background thread until dropped (or the
/// lease disappears — expiry by the coordinator stops the heartbeat).
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HeartbeatGuard {
    fn start(lease: PathBuf, period: Duration) -> HeartbeatGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(period);
                if flag.load(Ordering::Relaxed) {
                    break;
                }
                // Lease gone: the coordinator expired us; the unit is
                // someone else's now. Nothing left to keep alive.
                if !touch(&lease).unwrap_or(false) {
                    break;
                }
            }
        });
        HeartbeatGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Validates a worker id for embedding in lease file names.
fn check_worker_id(id: &str) -> Result<(), FleetError> {
    let ok = !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_');
    if ok {
        Ok(())
    } else {
        Err(FleetError::Corrupt(format!(
            "worker id {id:?} must be non-empty [A-Za-z0-9_-]"
        )))
    }
}

/// Loads the manifest (waiting for the coordinator to publish it),
/// rebuilds the corpus from its KISS2 texts, and cross-checks version
/// and options fingerprint.
fn load_corpus(
    dir: &FleetDir,
    options: &SuiteOptions,
    wopts: &WorkerOptions,
    cancel: &CancelToken,
) -> Result<(FleetManifest, Vec<(String, Fsm)>), FleetError> {
    let deadline = Instant::now() + wopts.manifest_wait;
    let payload = loop {
        if cancel.is_cancelled() {
            return Err(FleetError::Interrupted);
        }
        if dir.manifest().exists() {
            if let Ok(p) = load_checkpoint(&dir.manifest(), FLEET_MANIFEST_KIND) {
                break p;
            }
        }
        if Instant::now() >= deadline {
            return Err(FleetError::ManifestMissing);
        }
        std::thread::sleep(wopts.poll_interval);
    };
    let manifest = FleetManifest::from_bytes(&payload)?;
    if manifest.version != env!("CARGO_PKG_VERSION") {
        return Err(FleetError::VersionMismatch {
            found: manifest.version,
            expected: env!("CARGO_PKG_VERSION").to_string(),
        });
    }
    let mut machines = Vec::with_capacity(manifest.units.len());
    for (name, kiss2) in &manifest.units {
        let fsm = ced_fsm::kiss::parse(kiss2)
            .map_err(|e| FleetError::Corrupt(format!("manifest unit {name}: {e}")))?;
        machines.push((name.clone(), fsm));
    }
    // The fingerprint binds machines AND options: a worker launched
    // with different latencies or pipeline options than the
    // coordinator's must refuse, or its records would silently diverge
    // from the campaign's.
    let fingerprint = suite_fingerprint(&machines, options);
    if fingerprint != manifest.fingerprint {
        return Err(FleetError::FingerprintMismatch {
            found: manifest.fingerprint,
            expected: fingerprint,
        });
    }
    Ok((manifest, machines))
}

/// Runs a fleet worker until the campaign drains (or idles out).
///
/// Loop: claim the lowest pending unit by atomic rename into
/// `leased/`, heartbeat the lease from a background thread, run the
/// unit through the exact serial suite path
/// ([`ced_core::run_suite_unit`]), publish the result to `done/` (only
/// while still holding the lease), tidy the lease, repeat. Workers
/// SIGKILL'd mid-unit simply stop heartbeating; the coordinator
/// expires their lease and re-assigns the unit.
///
/// # Errors
///
/// [`FleetError::ManifestMissing`] when no coordinator shows up;
/// [`FleetError::VersionMismatch`] / [`FleetError::FingerprintMismatch`]
/// when this worker's build or options disagree with the campaign's;
/// [`FleetError::Interrupted`] when `cancel` fires (a claimed unit is
/// returned to `pending/` first).
pub fn run_worker(
    store_dir: &Path,
    options: &SuiteOptions,
    wopts: &WorkerOptions,
    library: &CellLibrary,
    cancel: &CancelToken,
    store: Option<&Arc<Store>>,
) -> Result<WorkerOutcome, FleetError> {
    check_worker_id(&wopts.worker_id)?;
    let dir = FleetDir::new(store_dir);
    let (manifest, machines) = load_corpus(&dir, options, wopts, cancel)?;
    let total = manifest.units.len();
    let mut processed = 0usize;
    let mut idle_since = Instant::now();

    loop {
        if cancel.is_cancelled() {
            return Err(FleetError::Interrupted);
        }
        if done_count(&dir, total) == total {
            return Ok(WorkerOutcome::Drained { processed });
        }

        // Claim sweep: lowest pending unit first.
        let mut pending: Vec<usize> = list_pending(&dir)?;
        pending.sort_unstable();
        let mut claimed = None;
        for index in pending {
            let token = dir.pending_unit(index);
            let lease = dir.lease_unit(index, &wopts.worker_id);
            // The rename keeps the token's publish-time mtime, so a unit
            // that waited in pending/ longer than the heartbeat timeout
            // would look dead to the coordinator before our first
            // heartbeat. Start the lease's clock at the claim instead.
            if !touch(&token)? {
                continue;
            }
            if claim_by_rename(&token, &lease)? {
                claimed = Some((index, lease));
                break;
            }
        }

        let Some((index, lease)) = claimed else {
            if let Some(limit) = wopts.idle_timeout {
                if idle_since.elapsed() >= limit {
                    return Ok(WorkerOutcome::IdleTimeout { processed });
                }
            }
            std::thread::sleep(wopts.poll_interval);
            continue;
        };
        idle_since = Instant::now();

        // The token rode along through the rename; it knows which
        // assignment this is (for graceful give-back on cancel).
        let token = load_checkpoint(&lease, FLEET_UNIT_KIND)
            .ok()
            .and_then(|p| UnitToken::from_bytes(&p).ok())
            .unwrap_or(UnitToken {
                index: index as u64,
                attempt: 1,
            });
        let Some((name, fsm)) = machines.get(index) else {
            // A token for a unit outside the manifest: poisonous
            // coordination state; drop the lease and move on.
            let _ = fs::remove_file(&lease);
            continue;
        };

        let heartbeat = HeartbeatGuard::start(lease.clone(), wopts.heartbeat_period);
        let outcome = run_suite_unit(name, fsm, options, library, cancel, store);
        drop(heartbeat);

        match outcome {
            Ok(record) => {
                // Publish only while still leased: after an expiry the
                // unit belongs to someone else, and a late publish
                // could overwrite a poisoned-quarantine verdict the
                // coordinator already accounted for.
                if lease.exists() {
                    publish_envelope(
                        &dir.done_unit(index),
                        FLEET_RESULT_KIND,
                        &UnitResult {
                            index: index as u64,
                            poisoned: false,
                            record,
                        }
                        .to_bytes(),
                        &wopts.worker_id,
                    )?;
                    let _ = fs::remove_file(&lease);
                    processed += 1;
                }
            }
            Err(_) => {
                // Cancelled mid-unit: give the token back gracefully
                // so no heartbeat timeout has to elapse.
                let give_back = UnitToken {
                    index: token.index,
                    attempt: token.attempt,
                };
                if lease.exists() {
                    let _ = publish_envelope(
                        &dir.pending_unit(index),
                        FLEET_UNIT_KIND,
                        &give_back.to_bytes(),
                        &wopts.worker_id,
                    );
                    let _ = fs::remove_file(&lease);
                }
                return Err(FleetError::Interrupted);
            }
        }
    }
}

/// How many units have results in `done/`.
fn done_count(dir: &FleetDir, total: usize) -> usize {
    (0..total).filter(|&i| dir.done_unit(i).exists()).count()
}

/// Unit indices with pending token files.
fn list_pending(dir: &FleetDir) -> Result<Vec<usize>, FleetError> {
    let listing = match fs::read_dir(dir.pending()) {
        Ok(l) => l,
        // The coordinator may not have created the directory yet.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(FleetError::io(&dir.pending(), &e)),
    };
    let mut out = Vec::new();
    for entry in listing.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(idx) = name
            .strip_prefix("unit-")
            .and_then(|r| r.strip_suffix(".ced"))
            .and_then(|r| r.parse::<usize>().ok())
        {
            out.push(idx);
        }
    }
    Ok(out)
}
