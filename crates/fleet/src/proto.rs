//! Wire format and on-disk layout of a fleet campaign.
//!
//! Everything a fleet exchanges lives as checkpoint-envelope files
//! (magic, version, kind, length, checksum — see
//! [`ced_runtime::checkpoint`]) inside `<store>/fleet/`:
//!
//! ```text
//! fleet/
//!   manifest.ced              campaign binding (kind 6)
//!   pending/unit-0003.ced     unclaimed work token (kind 7)
//!   leased/unit-0003.w1.lease claimed token; mtime = heartbeat
//!   done/unit-0003.ced        finished unit result (kind 8)
//!   ledger.ced                coordinator's accounting (kind 9)
//!   report.json               merged ced-suite-report/1
//! ```
//!
//! A unit moves `pending → leased → done`; the only transitions are a
//! worker's atomic claim rename, a worker's atomic result publish, and
//! the coordinator expiring a stale lease back to `pending` (or, after
//! too many deaths, writing a quarantined result itself).

use ced_core::MachineRecord;
use ced_runtime::{ByteReader, ByteWriter, CheckpointError};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Checkpoint kind tag for the fleet campaign manifest.
pub const FLEET_MANIFEST_KIND: u16 = 6;

/// Checkpoint kind tag for a pending/leased work-unit token.
pub const FLEET_UNIT_KIND: u16 = 7;

/// Checkpoint kind tag for a finished unit result.
pub const FLEET_RESULT_KIND: u16 = 8;

/// Checkpoint kind tag for the coordinator's lease ledger.
pub const FLEET_LEDGER_KIND: u16 = 9;

/// Paths of a fleet campaign rooted in a shared store directory.
#[derive(Debug, Clone)]
pub struct FleetDir {
    root: PathBuf,
}

impl FleetDir {
    /// The fleet layout under `store_dir` (the directory both
    /// coordinator and workers were given as `--store`).
    pub fn new(store_dir: &Path) -> FleetDir {
        FleetDir {
            root: store_dir.join("fleet"),
        }
    }

    /// The fleet root directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The campaign manifest file.
    pub fn manifest(&self) -> PathBuf {
        self.root.join("manifest.ced")
    }

    /// Directory of unclaimed unit tokens.
    pub fn pending(&self) -> PathBuf {
        self.root.join("pending")
    }

    /// Directory of claimed (leased) unit tokens.
    pub fn leased(&self) -> PathBuf {
        self.root.join("leased")
    }

    /// Directory of finished unit results.
    pub fn done(&self) -> PathBuf {
        self.root.join("done")
    }

    /// The coordinator's accounting ledger.
    pub fn ledger(&self) -> PathBuf {
        self.root.join("ledger.ced")
    }

    /// The merged `ced-suite-report/1` JSON.
    pub fn report(&self) -> PathBuf {
        self.root.join("report.json")
    }

    /// A pending token path for unit `index`.
    pub fn pending_unit(&self, index: usize) -> PathBuf {
        self.pending().join(format!("unit-{index:04}.ced"))
    }

    /// The lease path a claim by `worker` renames unit `index` to.
    pub fn lease_unit(&self, index: usize, worker: &str) -> PathBuf {
        self.leased()
            .join(format!("unit-{index:04}.{worker}.lease"))
    }

    /// A done result path for unit `index`.
    pub fn done_unit(&self, index: usize) -> PathBuf {
        self.done().join(format!("unit-{index:04}.ced"))
    }
}

/// The clock of a role's polling sweeps: ticks at whole multiples of
/// the `poll_interval` after the role started, and a sweep that ran
/// past a tick waits for the next one. Because the ticks do not move
/// with the work done between them, a campaign ends on the first tick
/// after its last result, whatever the units' compute times were within
/// that period, so the same campaign takes the same time run after run.
pub(crate) struct Cadence {
    start: Instant,
    period: Duration,
}

impl Cadence {
    /// A cadence of `period` whose first tick is one period from now.
    pub(crate) fn new(period: Duration) -> Cadence {
        Cadence {
            start: Instant::now(),
            period,
        }
    }

    /// The wait from `now` to the next tick after it.
    pub(crate) fn delay_at(&self, now: Instant) -> Duration {
        let period = self.period.as_nanos();
        if period == 0 {
            return Duration::ZERO;
        }
        let elapsed = now.saturating_duration_since(self.start).as_nanos();
        let next = (elapsed / period + 1) * period;
        Duration::from_nanos(u64::try_from(next - elapsed).unwrap_or(u64::MAX))
    }

    /// Sleeps until the next tick.
    pub(crate) fn sleep(&self) {
        std::thread::sleep(self.delay_at(Instant::now()));
    }
}

/// The campaign manifest: the coordinator's binding of corpus, order,
/// options fingerprint and report version. Workers parse their
/// machines out of it and refuse campaigns whose fingerprint they
/// cannot re-derive from their own command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    /// Report version (`CARGO_PKG_VERSION`) of the coordinator build.
    pub version: String,
    /// [`ced_core::suite_fingerprint`] over (machines, options).
    pub fingerprint: u64,
    /// Latency bounds every unit evaluates.
    pub latencies: Vec<usize>,
    /// Units in canonical corpus order: `(name, KISS2 text)`.
    pub units: Vec<(String, String)>,
}

impl FleetManifest {
    /// Serializes the manifest payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.str(&self.version);
        w.u64(self.fingerprint);
        w.usize(self.latencies.len());
        for &p in &self.latencies {
            w.usize(p);
        }
        w.usize(self.units.len());
        for (name, kiss2) in &self.units {
            w.str(name);
            w.str(kiss2);
        }
        w.finish()
    }

    /// Deserializes a payload produced by [`FleetManifest::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<FleetManifest, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let version = r.str()?;
        let fingerprint = r.u64()?;
        let n_lat = r.usize()?;
        if n_lat > 4096 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible latency count {n_lat}"
            )));
        }
        let mut latencies = Vec::with_capacity(n_lat);
        for _ in 0..n_lat {
            latencies.push(r.usize()?);
        }
        let n = r.usize()?;
        if n > 65_536 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible unit count {n}"
            )));
        }
        let mut units = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.str()?;
            let kiss2 = r.str()?;
            units.push((name, kiss2));
        }
        r.expect_end()?;
        Ok(FleetManifest {
            version,
            fingerprint,
            latencies,
            units,
        })
    }
}

/// A work-unit token: the payload of a pending (and, after the claim
/// rename, leased) unit file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitToken {
    /// Corpus index of the unit.
    pub index: u64,
    /// Which assignment this is (1 on first publish; the coordinator
    /// increments it each time it expires a dead worker's lease).
    pub attempt: u64,
}

impl UnitToken {
    /// Serializes the token payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.index);
        w.u64(self.attempt);
        w.finish()
    }

    /// Deserializes a payload produced by [`UnitToken::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<UnitToken, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let token = UnitToken {
            index: r.u64()?,
            attempt: r.u64()?,
        };
        r.expect_end()?;
        Ok(token)
    }
}

/// A finished unit: the payload of a done file.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitResult {
    /// Corpus index of the unit.
    pub index: u64,
    /// `true` when the coordinator quarantined the unit as poisonous
    /// (it killed every worker it was assigned to) rather than a
    /// worker finishing it.
    pub poisoned: bool,
    /// The unit's machine record (a poisoned unit carries the
    /// coordinator's quarantine record).
    pub record: MachineRecord,
}

impl UnitResult {
    /// Serializes the result payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.index);
        w.bool(self.poisoned);
        self.record.write_to(&mut w);
        w.finish()
    }

    /// Deserializes a payload produced by [`UnitResult::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<UnitResult, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let index = r.u64()?;
        let poisoned = r.bool()?;
        let record = MachineRecord::read_from(&mut r)?;
        r.expect_end()?;
        Ok(UnitResult {
            index,
            poisoned,
            record,
        })
    }
}

/// What happened to a lease, as the coordinator saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerAction {
    /// Token published to `pending/`.
    Published,
    /// A worker's result landed in `done/`.
    Completed,
    /// A stale lease was expired and the token re-queued.
    Reassigned,
    /// The unit exhausted its assignments and the coordinator wrote a
    /// quarantined result for it.
    Quarantined,
}

impl LedgerAction {
    fn tag(self) -> u8 {
        match self {
            LedgerAction::Published => 0,
            LedgerAction::Completed => 1,
            LedgerAction::Reassigned => 2,
            LedgerAction::Quarantined => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<LedgerAction, CheckpointError> {
        match tag {
            0 => Ok(LedgerAction::Published),
            1 => Ok(LedgerAction::Completed),
            2 => Ok(LedgerAction::Reassigned),
            3 => Ok(LedgerAction::Quarantined),
            t => Err(CheckpointError::Corrupt(format!("bad ledger tag {t}"))),
        }
    }
}

impl std::fmt::Display for LedgerAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LedgerAction::Published => "published",
            LedgerAction::Completed => "completed",
            LedgerAction::Reassigned => "reassigned",
            LedgerAction::Quarantined => "quarantined",
        })
    }
}

/// One ledger entry: unit, what happened, which assignment, and the
/// worker involved (empty when none — e.g. the initial publish).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEvent {
    /// Corpus index of the unit.
    pub unit: u64,
    /// What happened.
    pub action: LedgerAction,
    /// Assignment number the event refers to.
    pub attempt: u64,
    /// Worker id parsed from the lease file name (empty when the event
    /// has no worker).
    pub worker: String,
}

/// The coordinator's full accounting of a campaign: every unit's
/// trail from publish to completion or quarantine. The invariant the
/// differential tests assert: every unit has exactly one terminal
/// event ([`LedgerAction::Completed`] or [`LedgerAction::Quarantined`])
/// and `published + reassigned` events account for every lease ever
/// issued.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetLedger {
    /// Events in the order the coordinator observed them.
    pub events: Vec<LedgerEvent>,
}

impl FleetLedger {
    /// Serializes the ledger payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.usize(self.events.len());
        for e in &self.events {
            w.u64(e.unit);
            w.u8(e.action.tag());
            w.u64(e.attempt);
            w.str(&e.worker);
        }
        w.finish()
    }

    /// Deserializes a payload produced by [`FleetLedger::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any structural inconsistency.
    pub fn from_bytes(bytes: &[u8]) -> Result<FleetLedger, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let n = r.usize()?;
        if n > 1_048_576 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible event count {n}"
            )));
        }
        let mut events = Vec::with_capacity(n);
        for _ in 0..n {
            events.push(LedgerEvent {
                unit: r.u64()?,
                action: LedgerAction::from_tag(r.u8()?)?,
                attempt: r.u64()?,
                worker: r.str()?,
            });
        }
        r.expect_end()?;
        Ok(FleetLedger { events })
    }

    /// The terminal event for `unit`, if any.
    pub fn terminal(&self, unit: u64) -> Option<&LedgerEvent> {
        self.events.iter().find(|e| {
            e.unit == unit
                && matches!(
                    e.action,
                    LedgerAction::Completed | LedgerAction::Quarantined
                )
        })
    }

    /// Checks the accounting invariant over `total` units: every unit
    /// has exactly one terminal event, and every non-terminal event
    /// precedes it. Returns the offending unit on violation.
    pub fn check_accounting(&self, total: usize) -> Result<(), u64> {
        for unit in 0..total as u64 {
            let terminals = self
                .events
                .iter()
                .filter(|e| {
                    e.unit == unit
                        && matches!(
                            e.action,
                            LedgerAction::Completed | LedgerAction::Quarantined
                        )
                })
                .count();
            if terminals != 1 {
                return Err(unit);
            }
            let published = self
                .events
                .iter()
                .any(|e| e.unit == unit && e.action == LedgerAction::Published);
            if !published {
                return Err(unit);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ced_core::MachineStatus;

    #[test]
    fn manifest_round_trips() {
        let m = FleetManifest {
            version: "0.1.0".into(),
            fingerprint: 0xDEAD_BEEF,
            latencies: vec![1, 2],
            units: vec![
                ("s27".into(), ".i 4\n".into()),
                ("tav".into(), ".i 4\n".into()),
            ],
        };
        let back = FleetManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
        assert!(FleetManifest::from_bytes(&m.to_bytes()[..5]).is_err());
    }

    #[test]
    fn token_and_result_round_trip() {
        let t = UnitToken {
            index: 3,
            attempt: 2,
        };
        assert_eq!(UnitToken::from_bytes(&t.to_bytes()).unwrap(), t);
        let r = UnitResult {
            index: 3,
            poisoned: false,
            record: MachineRecord {
                name: "s27".into(),
                status: MachineStatus::Completed,
                attempts: 1,
                notes: vec![],
                json: "{\"name\":\"s27\"}".into(),
            },
        };
        assert_eq!(UnitResult::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn ledger_round_trips_and_checks_accounting() {
        let mut ledger = FleetLedger::default();
        ledger.events.push(LedgerEvent {
            unit: 0,
            action: LedgerAction::Published,
            attempt: 1,
            worker: String::new(),
        });
        // Unit 0 published but never finished: accounting fails.
        assert_eq!(ledger.check_accounting(1), Err(0));
        ledger.events.push(LedgerEvent {
            unit: 0,
            action: LedgerAction::Reassigned,
            attempt: 2,
            worker: "w1".into(),
        });
        ledger.events.push(LedgerEvent {
            unit: 0,
            action: LedgerAction::Quarantined,
            attempt: 2,
            worker: String::new(),
        });
        assert_eq!(ledger.check_accounting(1), Ok(()));
        let back = FleetLedger::from_bytes(&ledger.to_bytes()).unwrap();
        assert_eq!(back, ledger);
        assert_eq!(back.terminal(0).unwrap().action, LedgerAction::Quarantined);
    }

    #[test]
    fn cadence_ticks_at_whole_periods_from_its_start() {
        let ms = Duration::from_millis;
        let c = Cadence::new(ms(50));
        let at = |t: u64| c.delay_at(c.start + ms(t));
        assert_eq!(at(0), ms(50), "the first tick is one period out");
        assert_eq!(at(12), ms(38), "work done since the start is not added");
        assert_eq!(at(49), ms(1));
        assert_eq!(at(50), ms(50), "a sweep on a tick waits for the next");
        assert_eq!(at(130), ms(20), "a sweep past a tick skips it");
    }

    #[test]
    fn cadence_of_zero_never_sleeps() {
        let c = Cadence::new(Duration::ZERO);
        assert_eq!(c.delay_at(c.start), Duration::ZERO);
        assert_eq!(c.delay_at(c.start + Duration::from_secs(1)), Duration::ZERO);
    }

    #[test]
    fn layout_paths_are_stable() {
        let d = FleetDir::new(Path::new("/tmp/s"));
        assert_eq!(d.manifest(), Path::new("/tmp/s/fleet/manifest.ced"));
        assert_eq!(
            d.pending_unit(3),
            Path::new("/tmp/s/fleet/pending/unit-0003.ced")
        );
        assert_eq!(
            d.lease_unit(3, "w1"),
            Path::new("/tmp/s/fleet/leased/unit-0003.w1.lease")
        );
        assert_eq!(d.done_unit(3), Path::new("/tmp/s/fleet/done/unit-0003.ced"));
    }
}
