//! The content-addressed artifact store.
//!
//! Keys are `(stage name, fingerprint)` pairs, where the fingerprint is
//! the FNV-1a-64 hash of a canonical serialization of everything the
//! stage's output depends on (inputs and options). Values are the
//! stage's serialized output bytes. Because every pipeline stage is
//! deterministic and its serialization bit-exact, a stored artifact is
//! byte-identical to what a recomputation would produce — so replaying
//! a hit can never change a result, only skip work.
//!
//! Properties the rest of the workspace relies on:
//!
//! * **First-writer-wins.** A `put` for a key that already has an entry
//!   only refreshes its recency; the stored bytes never change. Under
//!   `ced-par` this makes the store order-insensitive: whichever worker
//!   finishes first wins, and since all writers compute identical bytes
//!   for identical fingerprints, the winner is irrelevant.
//! * **Corruption is a miss, never a wrong answer.** On-disk artifacts
//!   are wrapped in the checkpoint envelope (magic, version, kind,
//!   length, FNV-1a-64 checksum) with the key echoed inside the
//!   payload; any truncation, bit flip, or key mismatch fails
//!   verification and the entry is dropped and rebuilt.
//! * **Deterministic reporting.** Stats and entry listings are sorted
//!   by `(stage, fingerprint)`, never hash order.

use ced_runtime::{
    decode_checkpoint, load_checkpoint, mtime_age, save_checkpoint, touch, ByteReader, ByteWriter,
    CheckpointError,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Checkpoint kind tag for a single on-disk artifact entry.
pub const STORE_ENTRY_KIND: u16 = 3;

/// Stage name for per-fault tensor fragments: one artifact per
/// `(fault cone, latency)` keyed by the cone fingerprint (see
/// `ced_sim::detect`). Defined here — not in `ced-sim` — so the store
/// can derive fragment-level counters without depending on the
/// simulator.
pub const TENSOR_FRAG_STAGE: &str = "tensor-frag";

/// Checkpoint kind tag for the on-disk store index.
pub const STORE_INDEX_KIND: u16 = 4;

/// Name of the index file inside a store directory.
const INDEX_FILE: &str = "index.ced";

/// Extension of run lease files inside a store directory. Every
/// disk-backed [`Store::open`] drops a lease file that lives until the
/// store is dropped; [`Store::gc`] removes **nothing** while a fresh
/// foreign lease exists, because a live process may hold references to
/// artifacts whose on-disk `last_run` is arbitrarily old.
const LEASE_EXTENSION: &str = "lease";

/// How stale a run lease's mtime must be before gc treats its owner as
/// dead and reaps the lease. Long-lived holders refresh their lease via
/// [`Store::persist`] (or explicitly with [`Store::refresh_lease`]).
const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(15 * 60);

/// Disambiguates lease names when one process opens the same store
/// directory twice concurrently (tests, nested tools).
static LEASE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-stage hit/miss accounting for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Artifacts served from the store.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Lookups that found a corrupt artifact (also counted as misses).
    pub corrupt: u64,
    /// Artifacts inserted this run.
    pub puts: u64,
}

/// A point-in-time summary of the store.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Logical run number (increments once per `Store::open`).
    pub run: u64,
    /// Number of stored artifacts.
    pub entries: usize,
    /// Total artifact payload bytes.
    pub bytes: u64,
    /// Per-stage counters for the current process, sorted by stage.
    pub stages: Vec<(String, StageCounters)>,
}

/// Metadata for one stored artifact (listing order: stage, then
/// fingerprint).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntryInfo {
    /// Stage that produced the artifact.
    pub stage: String,
    /// Content fingerprint of the stage inputs.
    pub fingerprint: u64,
    /// Artifact payload length in bytes.
    pub len: u64,
    /// Last run that read or wrote the artifact.
    pub last_run: u64,
}

/// What a [`Store::gc`] pass removed and kept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcOutcome {
    /// Entries dropped.
    pub removed: usize,
    /// Entries surviving.
    pub kept: usize,
    /// Payload bytes freed.
    pub bytes_freed: u64,
    /// Fresh foreign run leases found. When nonzero the pass removed
    /// nothing: another live process has the store open, and its view
    /// of which artifacts are reachable cannot be inferred from
    /// on-disk `last_run` values.
    pub blocked_by_leases: usize,
}

#[derive(Debug, Clone)]
struct Entry {
    len: u64,
    last_run: u64,
    /// Payload bytes; `None` until a disk-backed entry is first read.
    bytes: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Inner {
    dir: Option<PathBuf>,
    entries: BTreeMap<(String, u64), Entry>,
    counters: BTreeMap<String, StageCounters>,
    /// Counters persisted by the previous run's index, for `ced store
    /// stats` after the fact.
    previous_counters: BTreeMap<String, StageCounters>,
    /// This open's run lease file (disk-backed stores only); removed
    /// on drop, excluded from this store's own gc lease scan.
    lease: Option<PathBuf>,
    run: u64,
    total_bytes: u64,
}

/// Content-addressed artifact store; see the module docs. Shared
/// across threads behind an internal mutex (lookups and insertions are
/// short critical sections; artifact recomputation happens outside the
/// lock).
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
}

impl Store {
    /// A purely in-memory store (no directory; nothing survives the
    /// process).
    pub fn in_memory() -> Store {
        Store {
            inner: Mutex::new(Inner {
                run: 1,
                ..Inner::default()
            }),
        }
    }

    /// Opens (creating if needed) a disk-backed store under `dir` and
    /// starts a new logical run. A missing or corrupt index starts the
    /// store empty — artifacts still on disk are re-adopted lazily on
    /// first lookup.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Store, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        let mut inner = Inner {
            dir: Some(dir.to_path_buf()),
            run: 1,
            ..Inner::default()
        };
        if let Ok(payload) = load_checkpoint(&dir.join(INDEX_FILE), STORE_INDEX_KIND) {
            if let Ok((run, entries, counters)) = read_index(&payload) {
                inner.run = run + 1;
                inner.total_bytes = entries.values().map(|e| e.len).sum();
                inner.entries = entries;
                inner.previous_counters = counters;
            }
        }
        // Drop this open's run lease so concurrent gc passes know a
        // live process has the store open.
        let lease = dir.join(format!(
            "run-{run}-{pid}-{seq}.{LEASE_EXTENSION}",
            run = inner.run,
            pid = std::process::id(),
            seq = LEASE_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&lease, b"ced-store run lease\n")
            .map_err(|e| CheckpointError::Io(format!("writing lease {}: {e}", lease.display())))?;
        inner.lease = Some(lease);
        Ok(Store {
            inner: Mutex::new(inner),
        })
    }

    /// The current logical run number.
    pub fn run(&self) -> u64 {
        self.inner.lock().unwrap().run
    }

    /// Looks up the artifact for `(stage, fingerprint)`. Returns the
    /// stored bytes on a hit; counts a miss (plus a corruption, if a
    /// damaged on-disk artifact was found and discarded) otherwise.
    pub fn get_artifact(&self, stage: &str, fingerprint: u64) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let key = (stage.to_string(), fingerprint);
        let run = inner.run;
        let known = inner.entries.contains_key(&key);
        if let Some(entry) = inner.entries.get_mut(&key) {
            if let Some(bytes) = &entry.bytes {
                let bytes = bytes.clone();
                entry.last_run = run;
                stage_counters(&mut inner.counters, stage).hits += 1;
                return Some(bytes);
            }
        }
        // Disk-backed entry not yet in memory, or an index-missing
        // artifact file left by a lost index: try the file.
        if let Some(dir) = inner.dir.clone() {
            let path = artifact_path(&dir, stage, fingerprint);
            match read_artifact(&path, stage, fingerprint) {
                Ok(Some(bytes)) => {
                    inner.entries.insert(
                        key,
                        Entry {
                            len: bytes.len() as u64,
                            last_run: run,
                            bytes: Some(bytes.clone()),
                        },
                    );
                    if !known {
                        inner.total_bytes += bytes.len() as u64;
                    }
                    stage_counters(&mut inner.counters, stage).hits += 1;
                    return Some(bytes);
                }
                Ok(None) => {}
                Err(_) => {
                    // Truncated / flipped / mis-keyed: discard so the
                    // rebuild's put can replace it.
                    let _ = fs::remove_file(&path);
                    if let Some(old) = inner.entries.remove(&key) {
                        inner.total_bytes = inner.total_bytes.saturating_sub(old.len);
                    }
                    stage_counters(&mut inner.counters, stage).corrupt += 1;
                }
            }
        } else if known {
            // In-memory store never has byte-less entries.
            inner.entries.remove(&key);
        }
        stage_counters(&mut inner.counters, stage).misses += 1;
        None
    }

    /// Looks up and decodes a typed artifact. A decode failure is
    /// treated exactly like on-disk corruption: the entry is dropped
    /// (demoting the hit to a corrupt miss) and `None` is returned so
    /// the caller rebuilds.
    pub fn get_typed<T>(
        &self,
        stage: &str,
        fingerprint: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, CheckpointError>,
    ) -> Option<T> {
        let bytes = self.get_artifact(stage, fingerprint)?;
        match decode(&bytes) {
            Ok(v) => Some(v),
            Err(_) => {
                self.note_corrupt(stage, fingerprint);
                None
            }
        }
    }

    /// Records that an artifact returned by [`Self::get_artifact`]
    /// failed the caller's own decoding: the hit becomes a corrupt
    /// miss and the entry (and its file) are dropped.
    pub fn note_corrupt(&self, stage: &str, fingerprint: u64) {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let key = (stage.to_string(), fingerprint);
        if let Some(old) = inner.entries.remove(&key) {
            inner.total_bytes = inner.total_bytes.saturating_sub(old.len);
        }
        if let Some(dir) = &inner.dir {
            let _ = fs::remove_file(artifact_path(dir, stage, fingerprint));
        }
        let c = stage_counters(&mut inner.counters, stage);
        c.hits = c.hits.saturating_sub(1);
        c.corrupt += 1;
        c.misses += 1;
    }

    /// Inserts an artifact. First-writer-wins: if the key already has
    /// an entry, only its recency is refreshed and `false` is returned.
    /// Disk-backed stores write the artifact file immediately (atomic
    /// sibling rename); the index is written by [`Self::persist`].
    pub fn put_artifact(&self, stage: &str, fingerprint: u64, bytes: &[u8]) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let key = (stage.to_string(), fingerprint);
        let run = inner.run;
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_run = run;
            return false;
        }
        if let Some(dir) = &inner.dir {
            let payload = artifact_payload(stage, fingerprint, bytes);
            // A failed write leaves the entry memory-only; the next
            // run simply misses and rebuilds.
            let _ = save_checkpoint(
                &artifact_path(dir, stage, fingerprint),
                STORE_ENTRY_KIND,
                &payload,
            );
        }
        inner.entries.insert(
            key,
            Entry {
                len: bytes.len() as u64,
                last_run: run,
                bytes: Some(bytes.to_vec()),
            },
        );
        inner.total_bytes += bytes.len() as u64;
        stage_counters(&mut inner.counters, stage).puts += 1;
        true
    }

    /// Current-run summary (entries, bytes, per-stage counters in
    /// sorted order).
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().unwrap();
        StoreStats {
            run: inner.run,
            entries: inner.entries.len(),
            bytes: inner.total_bytes,
            stages: inner
                .counters
                .iter()
                .map(|(s, c)| (s.clone(), *c))
                .collect(),
        }
    }

    /// Per-stage counters persisted by the previous run's index (what
    /// `ced store stats` reports as "last run"), sorted by stage.
    pub fn previous_run_stats(&self) -> Vec<(String, StageCounters)> {
        let inner = self.inner.lock().unwrap();
        inner
            .previous_counters
            .iter()
            .map(|(s, c)| (s.clone(), *c))
            .collect()
    }

    /// The full stats document as deterministic JSON: one schema for
    /// `ced store stats --json`, scripts, and the `ced serve` health
    /// endpoint, instead of three scrapers over the human table.
    /// Everything is sorted (entries by `(stage, fingerprint)`, stage
    /// counters by stage), so the rendering is a pure function of the
    /// store state.
    pub fn stats_json(&self) -> ced_runtime::Json {
        use ced_runtime::Json;
        let counters_json = |counters: &[(String, StageCounters)]| {
            Json::Object(
                counters
                    .iter()
                    .map(|(stage, c)| {
                        (
                            stage.clone(),
                            Json::Object(vec![
                                ("hits".into(), Json::UInt(c.hits)),
                                ("misses".into(), Json::UInt(c.misses)),
                                ("corrupt".into(), Json::UInt(c.corrupt)),
                                ("puts".into(), Json::UInt(c.puts)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        let stats = self.stats();
        let by_stage = |name: &str| {
            stats
                .stages
                .iter()
                .find(|(s, _)| s == name)
                .map(|(_, c)| *c)
                .unwrap_or_default()
        };
        // Derived fragment-level view: how many per-fault tensor
        // fragments were served warm versus rebuilt. This is what
        // makes the warm-edit win observable from `ced store stats
        // --json` and the serve `health` endpoint. Counters come from
        // the current run; a process that has not analyzed yet (`ced
        // store stats` itself) falls back to the previous run's
        // persisted counters, so the command reports the last analysis
        // instead of its own idleness.
        let previous = self.previous_run_stats();
        let mut frag = by_stage(TENSOR_FRAG_STAGE);
        if frag == StageCounters::default() {
            frag = previous
                .iter()
                .find(|(s, _)| s == TENSOR_FRAG_STAGE)
                .map(|(_, c)| *c)
                .unwrap_or_default();
        }
        let fragments = Json::Object(vec![
            ("hit".into(), Json::UInt(frag.hits)),
            ("rebuilt".into(), Json::UInt(frag.puts)),
        ]);
        Json::Object(vec![
            ("schema".into(), Json::str("ced-store-stats/1")),
            ("run".into(), Json::UInt(stats.run)),
            ("entries".into(), Json::UInt(stats.entries as u64)),
            ("bytes".into(), Json::UInt(stats.bytes)),
            ("fragments".into(), fragments),
            (
                "artifacts".into(),
                Json::Array(
                    self.entries()
                        .iter()
                        .map(|e| {
                            Json::Object(vec![
                                ("stage".into(), Json::Str(e.stage.clone())),
                                (
                                    "fingerprint".into(),
                                    Json::Str(format!("{:016x}", e.fingerprint)),
                                ),
                                ("bytes".into(), Json::UInt(e.len)),
                                ("last_run".into(), Json::UInt(e.last_run)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("current_run".into(), counters_json(&stats.stages)),
            ("previous_run".into(), counters_json(&previous)),
        ])
    }

    /// All entries, sorted by `(stage, fingerprint)`.
    pub fn entries(&self) -> Vec<StoreEntryInfo> {
        let inner = self.inner.lock().unwrap();
        inner
            .entries
            .iter()
            .map(|((stage, fp), e)| StoreEntryInfo {
                stage: stage.clone(),
                fingerprint: *fp,
                len: e.len,
                last_run: e.last_run,
            })
            .collect()
    }

    /// Drops every entry whose `last_run` is older than `min_run`,
    /// deletes its file, and persists the shrunken index.
    ///
    /// **Lease-safe:** if another live process holds the store open (a
    /// fresh run lease other than this store's own exists in the
    /// directory), the pass removes *nothing* and reports the block in
    /// [`GcOutcome::blocked_by_leases`]. Clamping to lease run numbers
    /// would not be enough — a live process may reference artifacts
    /// whose on-disk `last_run` predates its own run. Leases whose
    /// mtime is older than the default TTL (15 minutes) belong to dead
    /// processes; they are reaped and do not block.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the index rewrite fails.
    pub fn gc(&self, min_run: u64) -> Result<GcOutcome, CheckpointError> {
        self.gc_with_lease_ttl(min_run, DEFAULT_LEASE_TTL)
    }

    /// [`Store::gc`] with an explicit lease-freshness TTL (tests, and
    /// operators who know their longest-running holder).
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the index rewrite fails.
    pub fn gc_with_lease_ttl(
        &self,
        min_run: u64,
        ttl: Duration,
    ) -> Result<GcOutcome, CheckpointError> {
        let mut outcome = GcOutcome::default();
        {
            let mut inner = self.inner.lock().unwrap();
            let inner = &mut *inner;
            if let Some(dir) = inner.dir.clone() {
                outcome.blocked_by_leases =
                    reap_stale_count_fresh_leases(&dir, inner.lease.as_deref(), ttl);
                if outcome.blocked_by_leases > 0 {
                    outcome.kept = inner.entries.len();
                    return Ok(outcome);
                }
            }
            let doomed: Vec<(String, u64)> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.last_run < min_run)
                .map(|(k, _)| k.clone())
                .collect();
            for key in doomed {
                if let Some(old) = inner.entries.remove(&key) {
                    inner.total_bytes = inner.total_bytes.saturating_sub(old.len);
                    outcome.bytes_freed += old.len;
                }
                if let Some(dir) = &inner.dir {
                    let _ = fs::remove_file(artifact_path(dir, &key.0, key.1));
                }
                outcome.removed += 1;
            }
            outcome.kept = inner.entries.len();
        }
        self.persist()?;
        Ok(outcome)
    }

    /// Re-marks this store's run lease as fresh (heartbeat). Holders
    /// that outlive the gc lease TTL call this periodically;
    /// [`Store::persist`] also refreshes it.
    pub fn refresh_lease(&self) {
        let inner = self.inner.lock().unwrap();
        if let Some(lease) = &inner.lease {
            let _ = touch(lease);
        }
    }

    /// Writes the index (run number, entry metadata, this run's
    /// counters) for a disk-backed store; a no-op in memory.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] if the index cannot be written.
    pub fn persist(&self) -> Result<(), CheckpointError> {
        let inner = self.inner.lock().unwrap();
        let Some(dir) = &inner.dir else {
            return Ok(());
        };
        if let Some(lease) = &inner.lease {
            let _ = touch(lease);
        }
        let mut w = ByteWriter::new();
        w.u64(inner.run);
        w.usize(inner.entries.len());
        for ((stage, fp), e) in &inner.entries {
            w.str(stage);
            w.u64(*fp);
            w.u64(e.len);
            w.u64(e.last_run);
        }
        w.usize(inner.counters.len());
        for (stage, c) in &inner.counters {
            w.str(stage);
            w.u64(c.hits);
            w.u64(c.misses);
            w.u64(c.corrupt);
            w.u64(c.puts);
        }
        save_checkpoint(&dir.join(INDEX_FILE), STORE_INDEX_KIND, &w.finish())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        if let Ok(inner) = self.inner.lock() {
            if let Some(lease) = &inner.lease {
                let _ = fs::remove_file(lease);
            }
        }
    }
}

/// Scans `dir` for run lease files other than `own`: reaps (deletes)
/// leases staler than `ttl`, returns how many fresh ones remain. Scan
/// failures count as zero fresh leases — gc then behaves as before the
/// lease protocol existed, which is the right degradation for a
/// read-only or vanishing directory.
fn reap_stale_count_fresh_leases(dir: &Path, own: Option<&Path>, ttl: Duration) -> usize {
    let Ok(listing) = fs::read_dir(dir) else {
        return 0;
    };
    let mut fresh = 0;
    for entry in listing.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(LEASE_EXTENSION) {
            continue;
        }
        if Some(path.as_path()) == own {
            continue;
        }
        match mtime_age(&path) {
            Some(age) if age > ttl => {
                // A lease its owner stopped heartbeating: the owner is
                // dead (crashed, killed); reap it.
                let _ = fs::remove_file(&path);
            }
            Some(_) => fresh += 1,
            // Vanished between listing and stat: owner just closed.
            None => {}
        }
    }
    fresh
}

fn stage_counters<'a>(
    counters: &'a mut BTreeMap<String, StageCounters>,
    stage: &str,
) -> &'a mut StageCounters {
    if !counters.contains_key(stage) {
        counters.insert(stage.to_string(), StageCounters::default());
    }
    counters.get_mut(stage).unwrap()
}

fn artifact_path(dir: &Path, stage: &str, fingerprint: u64) -> PathBuf {
    dir.join(format!("{stage}-{fingerprint:016x}.art"))
}

fn artifact_payload(stage: &str, fingerprint: u64, bytes: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.str(stage);
    w.u64(fingerprint);
    w.bytes(bytes);
    w.finish()
}

/// Reads an artifact file. `Ok(None)` when the file does not exist;
/// `Err` on any corruption or key mismatch.
fn read_artifact(
    path: &Path,
    stage: &str,
    fingerprint: u64,
) -> Result<Option<Vec<u8>>, CheckpointError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(CheckpointError::Io(e.to_string())),
    };
    let payload = decode_checkpoint(&bytes, STORE_ENTRY_KIND)?;
    let mut r = ByteReader::new(&payload);
    let stored_stage = r.str()?;
    let stored_fp = r.u64()?;
    let artifact = r.bytes()?.to_vec();
    r.expect_end()?;
    if stored_stage != stage || stored_fp != fingerprint {
        return Err(CheckpointError::Corrupt(format!(
            "artifact keyed ({stored_stage}, {stored_fp:016x}) found under ({stage}, {fingerprint:016x})"
        )));
    }
    Ok(Some(artifact))
}

type IndexContents = (
    u64,
    BTreeMap<(String, u64), Entry>,
    BTreeMap<String, StageCounters>,
);

fn read_index(payload: &[u8]) -> Result<IndexContents, CheckpointError> {
    let mut r = ByteReader::new(payload);
    let run = r.u64()?;
    let n = r.usize()?;
    let mut entries = BTreeMap::new();
    for _ in 0..n {
        let stage = r.str()?;
        let fp = r.u64()?;
        let len = r.u64()?;
        let last_run = r.u64()?;
        entries.insert(
            (stage, fp),
            Entry {
                len,
                last_run,
                bytes: None,
            },
        );
    }
    let m = r.usize()?;
    let mut counters = BTreeMap::new();
    for _ in 0..m {
        let stage = r.str()?;
        let c = StageCounters {
            hits: r.u64()?,
            misses: r.u64()?,
            corrupt: r.u64()?,
            puts: r.u64()?,
        };
        counters.insert(stage, c);
    }
    r.expect_end()?;
    Ok((run, entries, counters))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ced-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_round_trip_and_counters() {
        let store = Store::in_memory();
        assert_eq!(store.get_artifact("tensor", 7), None);
        assert!(store.put_artifact("tensor", 7, b"abc"));
        assert_eq!(store.get_artifact("tensor", 7).unwrap(), b"abc");
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, 3);
        assert_eq!(
            stats.stages,
            vec![(
                "tensor".to_string(),
                StageCounters {
                    hits: 1,
                    misses: 1,
                    corrupt: 0,
                    puts: 1
                }
            )]
        );
    }

    #[test]
    fn first_writer_wins() {
        let store = Store::in_memory();
        assert!(store.put_artifact("synth", 1, b"first"));
        assert!(!store.put_artifact("synth", 1, b"second"));
        assert_eq!(store.get_artifact("synth", 1).unwrap(), b"first");
    }

    #[test]
    fn disk_persists_across_reopen_byte_identically() {
        let dir = tmp_dir("reopen");
        {
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.run(), 1);
            store.put_artifact("tensor", 42, b"payload-bytes");
            store.persist().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.run(), 2);
        assert_eq!(store.get_artifact("tensor", 42).unwrap(), b"payload-bytes");
        let stats = store.stats();
        assert_eq!(stats.stages[0].1.hits, 1);
        // Previous run's counters survived in the index.
        let prev = store.previous_run_stats();
        assert_eq!(prev[0].1.puts, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lost_index_recovers_from_artifact_files() {
        let dir = tmp_dir("lost-index");
        {
            let store = Store::open(&dir).unwrap();
            store.put_artifact("search", 5, b"result");
            // No persist(): the index is never written.
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_artifact("search", 5).unwrap(), b"result");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_and_truncation_are_misses_then_rebuilt() {
        let dir = tmp_dir("corrupt");
        let store = Store::open(&dir).unwrap();
        store.put_artifact("tensor", 9, b"good-bytes");
        store.persist().unwrap();
        drop(store);
        let path = artifact_path(&dir, "tensor", 9);
        let original = fs::read(&path).unwrap();
        for mutation in 0..2 {
            let mut bad = original.clone();
            if mutation == 0 {
                let mid = bad.len() / 2;
                bad[mid] ^= 0x10;
            } else {
                bad.truncate(bad.len() - 3);
            }
            fs::write(&path, &bad).unwrap();
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.get_artifact("tensor", 9), None, "mutation {mutation}");
            let c = store.stats().stages[0].1;
            assert_eq!((c.corrupt, c.misses, c.hits), (1, 1, 0));
            // The damaged file is gone; a rebuild re-puts cleanly.
            assert!(!path.exists());
            store.put_artifact("tensor", 9, b"good-bytes");
            assert_eq!(store.get_artifact("tensor", 9).unwrap(), b"good-bytes");
            store.persist().unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mis_keyed_artifact_file_is_rejected() {
        let dir = tmp_dir("miskey");
        let store = Store::open(&dir).unwrap();
        store.put_artifact("tensor", 1, b"for-key-one");
        drop(store);
        // Copy the valid file for key 1 over key 2's slot: envelope
        // checksum passes, but the embedded key binding does not.
        fs::copy(
            artifact_path(&dir, "tensor", 1),
            artifact_path(&dir, "tensor", 2),
        )
        .unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_artifact("tensor", 2), None);
        assert_eq!(store.stats().stages[0].1.corrupt, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn get_typed_decode_failure_is_corruption() {
        let store = Store::in_memory();
        store.put_artifact("search", 3, b"not-a-valid-latency-result");
        let got: Option<u64> = store.get_typed("search", 3, |_| {
            Err(CheckpointError::Corrupt("bad payload".into()))
        });
        assert_eq!(got, None);
        let c = store.stats().stages[0].1;
        assert_eq!((c.hits, c.corrupt, c.misses), (0, 1, 1));
        assert_eq!(store.stats().entries, 0);
        // Rebuild path: a fresh put works.
        assert!(store.put_artifact("search", 3, b"rebuilt"));
        assert_eq!(store.get_artifact("search", 3).unwrap(), b"rebuilt");
    }

    #[test]
    fn gc_drops_entries_older_than_min_run() {
        let dir = tmp_dir("gc");
        {
            let store = Store::open(&dir).unwrap();
            store.put_artifact("tensor", 1, b"old");
            store.put_artifact("tensor", 2, b"old-too");
            store.persist().unwrap();
        }
        {
            // Run 2 touches only key 2.
            let store = Store::open(&dir).unwrap();
            assert!(store.get_artifact("tensor", 2).is_some());
            store.persist().unwrap();
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.run(), 3);
        let outcome = store.gc(2).unwrap();
        assert_eq!((outcome.removed, outcome.kept), (1, 1));
        assert_eq!(outcome.bytes_freed, 3);
        assert_eq!(store.entries()[0].fingerprint, 2);
        assert!(!artifact_path(&dir, "tensor", 1).exists());
        // The surviving entry still loads after the gc'd index.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_artifact("tensor", 2).unwrap(), b"old-too");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_removes_nothing_while_another_holder_has_a_fresh_lease() {
        let dir = tmp_dir("gc-lease");
        {
            let store = Store::open(&dir).unwrap();
            store.put_artifact("tensor", 1, b"old");
            store.persist().unwrap();
        }
        // Two concurrent holders (what two racing processes look like
        // on disk). The writer's artifact has last_run 1 — stale by
        // run number — but the concurrent holder may be about to read
        // it, so gc must not collect anything.
        let holder = Store::open(&dir).unwrap();
        let collector = Store::open(&dir).unwrap();
        let outcome = collector.gc(u64::MAX).unwrap();
        assert_eq!(outcome.blocked_by_leases, 1);
        assert_eq!((outcome.removed, outcome.bytes_freed), (0, 0));
        assert_eq!(outcome.kept, 1);
        assert!(artifact_path(&dir, "tensor", 1).exists());
        // The blocked holder can still read what gc would have taken.
        assert_eq!(holder.get_artifact("tensor", 1).unwrap(), b"old");
        drop(holder);
        // Holder gone (lease removed on drop): gc proceeds.
        let outcome = collector.gc(u64::MAX).unwrap();
        assert_eq!(outcome.blocked_by_leases, 0);
        assert_eq!(outcome.removed, 1);
        assert!(!artifact_path(&dir, "tensor", 1).exists());
        drop(collector);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_leases_are_reaped_not_blocking() {
        let dir = tmp_dir("gc-stale-lease");
        let store = Store::open(&dir).unwrap();
        store.put_artifact("tensor", 1, b"old");
        store.persist().unwrap();
        // A lease from a kill -9'd process: present, never refreshed.
        let dead = dir.join("run-9-99999-0.lease");
        fs::write(&dead, b"ced-store run lease\n").unwrap();
        let old = std::time::SystemTime::now() - Duration::from_secs(3600);
        fs::File::options()
            .write(true)
            .open(&dead)
            .unwrap()
            .set_times(fs::FileTimes::new().set_modified(old))
            .unwrap();
        let outcome = store
            .gc_with_lease_ttl(u64::MAX, Duration::from_secs(60))
            .unwrap();
        assert_eq!(outcome.blocked_by_leases, 0);
        assert_eq!(outcome.removed, 1);
        assert!(!dead.exists(), "stale lease must be reaped");
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lease_lifecycle_open_refresh_drop() {
        let dir = tmp_dir("lease-cycle");
        let leases = |d: &Path| -> Vec<PathBuf> {
            fs::read_dir(d)
                .unwrap()
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("lease"))
                .collect()
        };
        let store = Store::open(&dir).unwrap();
        assert_eq!(leases(&dir).len(), 1);
        store.refresh_lease();
        drop(store);
        assert!(leases(&dir).is_empty(), "drop must remove the lease");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entries_listing_is_sorted() {
        let store = Store::in_memory();
        store.put_artifact("tensor", 2, b"x");
        store.put_artifact("search", 9, b"y");
        store.put_artifact("tensor", 1, b"z");
        let listed: Vec<(String, u64)> = store
            .entries()
            .into_iter()
            .map(|e| (e.stage, e.fingerprint))
            .collect();
        assert_eq!(
            listed,
            vec![
                ("search".to_string(), 9),
                ("tensor".to_string(), 1),
                ("tensor".to_string(), 2)
            ]
        );
    }
}
