//! Property-based tests for the artifact store's corruption handling:
//! for *any* payload, *any* single-bit flip and *any* truncation of
//! the on-disk artifact file must read back as a miss — never as
//! different bytes — and a rebuild must restore the original payload.

use ced_runtime::fnv1a64;
use ced_store::Store;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per proptest case, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let n = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ced-store-props-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes one artifact and returns the path of its on-disk file.
fn persist_one(dir: &PathBuf, payload: &[u8]) -> (u64, PathBuf) {
    let store = Store::open(dir).expect("store opens");
    let fp = fnv1a64(payload);
    assert!(store.put_artifact("stage", fp, payload));
    store.persist().expect("index persists");
    let file = std::fs::read_dir(dir)
        .expect("dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("art"))
        .expect("artifact file exists");
    (fp, file)
}

fn corrupt_sum(store: &Store) -> u64 {
    store.stats().stages.iter().map(|(_, c)| c.corrupt).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip: any payload survives persist + reopen bit-exactly.
    #[test]
    fn roundtrip_is_bit_exact(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
        let scratch = ScratchDir::new();
        let (fp, _) = persist_one(&scratch.0, &payload);
        let store = Store::open(&scratch.0).expect("store reopens");
        prop_assert_eq!(store.get_artifact("stage", fp), Some(payload));
    }

    /// Any single-bit flip anywhere in the artifact file — envelope,
    /// checksum, key echo or payload — is detected as corruption: the
    /// lookup misses, the damaged file is discarded, and a rebuild
    /// restores the original bytes.
    #[test]
    fn any_bit_flip_is_a_miss_then_rebuilt(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
    ) {
        let scratch = ScratchDir::new();
        let (fp, file) = persist_one(&scratch.0, &payload);
        let mut bytes = std::fs::read(&file).expect("artifact readable");
        let bit = flip % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&file, &bytes).expect("artifact writable");

        let store = Store::open(&scratch.0).expect("store reopens");
        prop_assert_eq!(store.get_artifact("stage", fp), None,
            "a flipped artifact must never be served");
        prop_assert_eq!(corrupt_sum(&store), 1);
        prop_assert!(!file.exists(), "damaged file must be discarded");

        prop_assert!(store.put_artifact("stage", fp, &payload));
        prop_assert_eq!(store.get_artifact("stage", fp), Some(payload));
    }

    /// Any strict truncation of the artifact file (including to zero
    /// bytes) is a miss, never different bytes.
    #[test]
    fn any_truncation_is_a_miss(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        cut in any::<usize>(),
    ) {
        let scratch = ScratchDir::new();
        let (fp, file) = persist_one(&scratch.0, &payload);
        let mut bytes = std::fs::read(&file).expect("artifact readable");
        bytes.truncate(cut % bytes.len());
        std::fs::write(&file, &bytes).expect("artifact writable");

        let store = Store::open(&scratch.0).expect("store reopens");
        prop_assert_eq!(store.get_artifact("stage", fp), None);
        prop_assert_eq!(corrupt_sum(&store), 1);
    }

    /// An artifact renamed to a different key (stage or fingerprint)
    /// fails the key echo inside the envelope: reading it under the
    /// new key is corruption, not a hit with someone else's bytes.
    #[test]
    fn mis_keyed_artifact_is_rejected(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        other_fp in any::<u64>(),
    ) {
        let scratch = ScratchDir::new();
        let (fp, file) = persist_one(&scratch.0, &payload);
        prop_assume!(other_fp != fp);
        let renamed = scratch.0.join(format!("stage-{other_fp:016x}.art"));
        std::fs::rename(&file, &renamed).expect("rename");

        let store = Store::open(&scratch.0).expect("store reopens");
        prop_assert_eq!(store.get_artifact("stage", other_fp), None,
            "a mis-keyed artifact must never be served");
        prop_assert_eq!(store.get_artifact("stage", fp), None,
            "the original key has no file anymore");
    }

    /// First-writer-wins: a second put under the same key never
    /// replaces the stored bytes (identical writers make the winner
    /// irrelevant in the real pipeline; the property holds regardless).
    #[test]
    fn first_writer_wins(
        first in proptest::collection::vec(any::<u8>(), 1..128),
        second in proptest::collection::vec(any::<u8>(), 1..128),
    ) {
        let store = Store::in_memory();
        prop_assert!(store.put_artifact("stage", 7, &first));
        prop_assert!(!store.put_artifact("stage", 7, &second));
        prop_assert_eq!(store.get_artifact("stage", 7), Some(first));
    }
}
