//! Read-only live view over a fleet campaign directory.
//!
//! `ced fleet status` (and the `ced serve` health endpoint) answer
//! "how is the campaign doing?" by scanning the same on-disk state the
//! coordinator's watchdog scans — pending/leased/done unit files, the
//! ledger, the manifest — without claiming, expiring or mutating
//! anything. The view is inherently a snapshot of a moving target
//! (units migrate between directories while we read), so the scanner
//! tolerates every transient it can race with: a file that vanishes
//! mid-scan is simply absent from the snapshot, and a corrupt ledger
//! degrades to "no attempt history" rather than an error. Output
//! ordering is deterministic for a given snapshot: units sort by
//! index, leases by `(unit, worker)`.

use crate::error::FleetError;
use crate::proto::{FleetDir, FleetLedger, FleetManifest, FLEET_LEDGER_KIND, FLEET_MANIFEST_KIND};
use ced_runtime::{load_checkpoint, mtime_age, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

/// One live lease, as seen by the scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseView {
    /// Corpus index of the leased unit.
    pub unit: u64,
    /// Worker id parsed from the lease file name.
    pub worker: String,
    /// Milliseconds since the lease's last heartbeat (mtime).
    pub age_ms: u128,
    /// Whether the age exceeds the caller's staleness threshold — the
    /// coordinator would treat such a lease as a dead worker's.
    pub stale: bool,
}

/// Summary of the campaign manifest, when one exists and decodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestView {
    /// Report version of the coordinator build.
    pub version: String,
    /// Options fingerprint every worker must re-derive.
    pub fingerprint: u64,
    /// Total units in the corpus.
    pub total_units: usize,
    /// Latency bounds under evaluation.
    pub latencies: Vec<usize>,
}

/// A point-in-time, read-only snapshot of a fleet campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetStatus {
    /// The decoded manifest, if present and intact.
    pub manifest: Option<ManifestView>,
    /// Unit indices with unclaimed pending tokens, sorted.
    pub pending: Vec<u64>,
    /// Live leases, sorted by `(unit, worker)`.
    pub leased: Vec<LeaseView>,
    /// Unit indices with published results, sorted.
    pub done: Vec<u64>,
    /// Units the ledger records as quarantined-poisonous, sorted.
    pub poisoned: Vec<u64>,
    /// Per-unit assignment counts from the ledger (`(unit, attempts)`,
    /// sorted by unit). Empty when no ledger has been written yet.
    pub attempts: Vec<(u64, u64)>,
    /// Whether the merged `fleet/report.json` exists (campaign ended).
    pub report_written: bool,
}

impl FleetStatus {
    /// Renders the deterministic JSON document
    /// (`ced-fleet-status/1`). Lease ages are wall-clock measurements
    /// and vary run to run; everything else is a pure function of the
    /// snapshot.
    pub fn to_json(&self) -> Json {
        let units = |v: &[u64]| Json::Array(v.iter().map(|&u| Json::UInt(u)).collect());
        let mut fields = vec![("schema".to_string(), Json::str("ced-fleet-status/1"))];
        match &self.manifest {
            Some(m) => {
                fields.push(("version".into(), Json::Str(m.version.clone())));
                fields.push((
                    "fingerprint".into(),
                    Json::Str(format!("{:016x}", m.fingerprint)),
                ));
                fields.push(("total_units".into(), Json::UInt(m.total_units as u64)));
                fields.push((
                    "latencies".into(),
                    Json::Array(m.latencies.iter().map(|&p| Json::UInt(p as u64)).collect()),
                ));
            }
            None => fields.push(("manifest".into(), Json::Null)),
        }
        fields.push(("pending".into(), units(&self.pending)));
        fields.push((
            "leased".into(),
            Json::Array(
                self.leased
                    .iter()
                    .map(|l| {
                        Json::Object(vec![
                            ("unit".into(), Json::UInt(l.unit)),
                            ("worker".into(), Json::Str(l.worker.clone())),
                            (
                                "age_ms".into(),
                                Json::UInt(l.age_ms.min(u64::MAX as u128) as u64),
                            ),
                            ("stale".into(), Json::Bool(l.stale)),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push(("done".into(), units(&self.done)));
        fields.push(("poisoned".into(), units(&self.poisoned)));
        fields.push((
            "attempts".into(),
            Json::Object(
                self.attempts
                    .iter()
                    .map(|&(unit, n)| (unit.to_string(), Json::UInt(n)))
                    .collect(),
            ),
        ));
        fields.push(("report_written".into(), Json::Bool(self.report_written)));
        Json::Object(fields)
    }

    /// Renders the human table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        match &self.manifest {
            Some(m) => {
                let _ = writeln!(
                    out,
                    "campaign: {} unit(s), latencies {:?}, version {}, fingerprint {:016x}",
                    m.total_units, m.latencies, m.version, m.fingerprint
                );
            }
            None => {
                let _ = writeln!(out, "campaign: no manifest (coordinator not started yet?)");
            }
        }
        let _ = writeln!(
            out,
            "units: {} pending, {} leased, {} done, {} poisoned{}",
            self.pending.len(),
            self.leased.len(),
            self.done.len(),
            self.poisoned.len(),
            if self.report_written {
                "; merged report written"
            } else {
                ""
            }
        );
        let attempts: BTreeMap<u64, u64> = self.attempts.iter().copied().collect();
        for l in &self.leased {
            let _ = writeln!(
                out,
                "  unit {:>4} leased by {:<12} heartbeat {:>6} ms ago{}{}",
                l.unit,
                l.worker,
                l.age_ms,
                match attempts.get(&l.unit) {
                    Some(n) if *n > 1 => format!(" (attempt {n})"),
                    _ => String::new(),
                },
                if l.stale { "  [STALE]" } else { "" }
            );
        }
        for &u in &self.poisoned {
            let _ = writeln!(
                out,
                "  unit {u:>4} poisonous (quarantined after {} attempt(s))",
                attempts.get(&u).copied().unwrap_or(0)
            );
        }
        out
    }
}

/// Unit index from a `unit-NNNN…` file stem; `None` for foreign files.
fn unit_index(stem: &str) -> Option<u64> {
    stem.strip_prefix("unit-")?.parse().ok()
}

/// Sorted unit indices of the `unit-NNNN.ced` files in `dir`. A
/// missing directory is an empty listing: the campaign may not have
/// started, and a status probe must not invent structure.
fn scan_units(dir: &Path) -> Vec<u64> {
    let mut units: Vec<u64> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    unit_index(name.strip_suffix(".ced")?)
                })
                .collect()
        })
        .unwrap_or_default();
    units.sort_unstable();
    units
}

/// Scans a fleet campaign directory without mutating it.
///
/// `stale_after` is the caller's staleness threshold for lease
/// heartbeats — pass the campaign's `--heartbeat-ms` to see exactly
/// what the coordinator's watchdog sees.
///
/// # Errors
///
/// Only when `store_dir` contains no `fleet/` directory at all —
/// everything else (absent manifest, corrupt ledger, racing renames)
/// degrades to a partial snapshot, because a live view must work
/// mid-campaign.
pub fn fleet_status(store_dir: &Path, stale_after: Duration) -> Result<FleetStatus, FleetError> {
    let dir = FleetDir::new(store_dir);
    if !dir.root().is_dir() {
        return Err(FleetError::Corrupt(format!(
            "no fleet campaign under {} (expected {})",
            store_dir.display(),
            dir.root().display()
        )));
    }

    let manifest = load_checkpoint(&dir.manifest(), FLEET_MANIFEST_KIND)
        .ok()
        .and_then(|payload| FleetManifest::from_bytes(&payload).ok())
        .map(|m| ManifestView {
            version: m.version,
            fingerprint: m.fingerprint,
            total_units: m.units.len(),
            latencies: m.latencies,
        });

    let mut leased: Vec<LeaseView> = std::fs::read_dir(dir.leased())
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    let stem = name.strip_suffix(".lease")?;
                    let (unit_part, worker) = stem.split_once('.')?;
                    let unit = unit_index(unit_part)?;
                    // A lease that vanishes between listing and stat
                    // was completed or expired mid-scan; skip it.
                    let age = mtime_age(&e.path())?;
                    Some(LeaseView {
                        unit,
                        worker: worker.to_string(),
                        age_ms: age.as_millis(),
                        stale: age >= stale_after,
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    leased.sort_by(|a, b| (a.unit, &a.worker).cmp(&(b.unit, &b.worker)));

    // The ledger is the coordinator's private accounting; status reads
    // it opportunistically. Mid-write or corrupt = no history, not an
    // error.
    let ledger = load_checkpoint(&dir.ledger(), FLEET_LEDGER_KIND)
        .ok()
        .and_then(|payload| FleetLedger::from_bytes(&payload).ok())
        .unwrap_or_default();
    let mut attempts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut poisoned: Vec<u64> = Vec::new();
    for event in &ledger.events {
        let slot = attempts.entry(event.unit).or_insert(0);
        *slot = (*slot).max(event.attempt);
        if event.action == crate::proto::LedgerAction::Quarantined {
            poisoned.push(event.unit);
        }
    }
    poisoned.sort_unstable();
    poisoned.dedup();

    Ok(FleetStatus {
        manifest,
        pending: scan_units(&dir.pending()),
        leased,
        done: scan_units(&dir.done()),
        poisoned,
        attempts: attempts.into_iter().collect(),
        report_written: dir.report().is_file(),
    })
}
