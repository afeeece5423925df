//! Versioned, checksummed checkpoint storage.
//!
//! A checkpoint is a kind-tagged binary payload wrapped in a small
//! header and protected end-to-end by an FNV-1a-64 checksum:
//!
//! ```text
//! magic "CEDC" | version u16 LE | kind u16 LE | payload len u64 LE
//! | payload bytes | checksum u64 LE (over everything before it)
//! ```
//!
//! Files are written atomically (temp file in the same directory, then
//! rename), so a crash mid-write leaves either the old checkpoint or
//! none — never a torn one. Loading verifies magic, version, length
//! and checksum before the payload is handed back; any mismatch is a
//! typed [`CheckpointError`], letting callers report it and fall back
//! to recomputation instead of resuming from garbage.
//!
//! [`ByteWriter`]/[`ByteReader`] are the shared little-endian
//! serialization primitives the stage-specific checkpoint payloads
//! (detectability tables, search state, suite progress) are built from.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Leading magic of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CEDC";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u16 = 1;

const HEADER_LEN: usize = 4 + 2 + 2 + 8;
const CHECKSUM_LEN: usize = 8;

/// Why a checkpoint could not be decoded or stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The data ends before the declared length.
    Truncated,
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The format version differs from [`CHECKPOINT_VERSION`].
    VersionMismatch {
        /// Version found in the header.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The checkpoint is of a different kind than requested.
    KindMismatch {
        /// Kind tag found in the header.
        found: u16,
        /// Kind tag the caller expected.
        expected: u16,
    },
    /// The stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the data.
        computed: u64,
    },
    /// An I/O error while reading or writing the file.
    Io(String),
    /// The payload is internally inconsistent (bad tag, bad UTF-8,
    /// impossible length...).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint format version {found} (this build reads {expected})"
            ),
            CheckpointError::KindMismatch { found, expected } => write!(
                f,
                "checkpoint kind {found} where kind {expected} was expected"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            CheckpointError::Io(msg) => write!(f, "checkpoint i/o error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint payload corrupt: {msg}"),
        }
    }
}

impl Error for CheckpointError {}

/// FNV-1a 64-bit offset basis: the hash state of an empty stream.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash — the checkpoint checksum and the fingerprint
/// hash used to match a checkpoint against its originating inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Continues an FNV-1a 64-bit hash from `state` over `bytes`, so a
/// hash can be folded piecewise without materializing its input:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
#[inline]
pub fn fnv1a64_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Wraps a payload in the checkpoint envelope (header + checksum).
pub fn encode_checkpoint(kind: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Unwraps and verifies a checkpoint envelope, returning the payload.
///
/// Verification order: magic, version, declared length, checksum,
/// kind — so a flipped payload byte surfaces as
/// [`CheckpointError::ChecksumMismatch`], never as garbage data.
pub fn decode_checkpoint(bytes: &[u8], kind: u16) -> Result<Vec<u8>, CheckpointError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(CheckpointError::Truncated);
    }
    if bytes[0..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let found_kind = u16::from_le_bytes([bytes[6], bytes[7]]);
    let len = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let Ok(len) = usize::try_from(len) else {
        return Err(CheckpointError::Corrupt("payload length overflow".into()));
    };
    let expected_total = HEADER_LEN
        .checked_add(len)
        .and_then(|n| n.checked_add(CHECKSUM_LEN));
    match expected_total {
        Some(total) if bytes.len() == total => {}
        Some(total) if bytes.len() < total => return Err(CheckpointError::Truncated),
        _ => {
            return Err(CheckpointError::Corrupt(
                "file longer than declared payload".into(),
            ))
        }
    }
    let body = &bytes[..HEADER_LEN + len];
    let stored = u64::from_le_bytes(bytes[HEADER_LEN + len..].try_into().unwrap());
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    if found_kind != kind {
        return Err(CheckpointError::KindMismatch {
            found: found_kind,
            expected: kind,
        });
    }
    Ok(bytes[HEADER_LEN..HEADER_LEN + len].to_vec())
}

/// Atomically writes a checkpoint: the envelope is written to a
/// temporary file in the same directory, flushed, then renamed over
/// `path`.
pub fn save_checkpoint(path: &Path, kind: u16, payload: &[u8]) -> Result<(), CheckpointError> {
    let bytes = encode_checkpoint(kind, payload);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Io("checkpoint path has no file name".into()))?;
    let mut tmp = std::ffi::OsString::from(".");
    tmp.push(file_name);
    tmp.push(".tmp");
    let tmp_path = match dir {
        Some(d) => d.join(&tmp),
        None => std::path::PathBuf::from(&tmp),
    };
    let io = |e: std::io::Error| CheckpointError::Io(e.to_string());
    let mut f = fs::File::create(&tmp_path).map_err(io)?;
    f.write_all(&bytes).map_err(io)?;
    f.sync_all().map_err(io)?;
    drop(f);
    fs::rename(&tmp_path, path).map_err(io)
}

/// Loads and verifies a checkpoint file, returning its payload.
pub fn load_checkpoint(path: &Path, kind: u16) -> Result<Vec<u8>, CheckpointError> {
    let bytes = fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    decode_checkpoint(&bytes, kind)
}

/// Little-endian binary serializer for checkpoint payloads.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The serialized bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (lossless and
    /// bit-exact through a round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed slice of `u64`s.
    pub fn u64_slice(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }
}

/// Matching deserializer; every read is bounds-checked and returns
/// [`CheckpointError::Truncated`] / [`CheckpointError::Corrupt`]
/// instead of panicking on malformed payloads.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Reads from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CheckpointError::Truncated)?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, CheckpointError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u64` and converts to `usize`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CheckpointError::Corrupt("length exceeds usize".into()))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Corrupt(format!("bad bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CheckpointError::Corrupt("invalid UTF-8 in string".into()))
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn u64_slice(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let len = self.usize()?;
        if len > self.buf.len().saturating_sub(self.pos) / 8 {
            return Err(CheckpointError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// Asserts every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes in payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a-64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_extension_continues_the_stream() {
        assert_eq!(fnv1a64_extend(FNV1A64_OFFSET, b""), fnv1a64(b""));
        assert_eq!(fnv1a64_extend(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn envelope_round_trips() {
        let payload = b"detectability table state".to_vec();
        let enc = encode_checkpoint(7, &payload);
        assert_eq!(decode_checkpoint(&enc, 7).unwrap(), payload);
    }

    #[test]
    fn any_payload_byte_flip_is_checksum_mismatch() {
        let enc = encode_checkpoint(3, b"0123456789abcdef");
        for i in HEADER_LEN..enc.len() - CHECKSUM_LEN {
            let mut bad = enc.clone();
            bad[i] ^= 0x40;
            match decode_checkpoint(&bad, 3) {
                Err(CheckpointError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {i}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_reported() {
        let enc = encode_checkpoint(1, b"abcdefgh");
        for cut in 0..enc.len() {
            let err = decode_checkpoint(&enc[..cut], 1).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch { .. }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn wrong_kind_and_version_and_magic() {
        let enc = encode_checkpoint(2, b"xy");
        assert_eq!(
            decode_checkpoint(&enc, 9).unwrap_err(),
            CheckpointError::KindMismatch {
                found: 2,
                expected: 9
            }
        );
        let mut wrong_ver = enc.clone();
        wrong_ver[4] = 0xFF;
        assert!(matches!(
            decode_checkpoint(&wrong_ver, 2).unwrap_err(),
            CheckpointError::VersionMismatch { found: 0xFF, .. }
        ));
        let mut wrong_magic = enc;
        wrong_magic[0] = b'X';
        assert_eq!(
            decode_checkpoint(&wrong_magic, 2).unwrap_err(),
            CheckpointError::BadMagic
        );
    }

    #[test]
    fn save_and_load_are_atomic_siblings() {
        let dir = std::env::temp_dir().join(format!("ced-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        save_checkpoint(&path, 5, b"first").unwrap();
        assert_eq!(load_checkpoint(&path, 5).unwrap(), b"first");
        // Overwrite in place: rename replaces the old file.
        save_checkpoint(&path, 5, b"second").unwrap();
        assert_eq!(load_checkpoint(&path, 5).unwrap(), b"second");
        // No temp file left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(leftovers, vec![std::ffi::OsString::from("state.ckpt")]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_writer_reader_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(1 << 40);
        w.usize(12345);
        w.f64(-0.1);
        w.bool(true);
        w.bool(false);
        w.bytes(b"raw");
        w.str("héllo");
        w.u64_slice(&[1, u64::MAX, 42]);
        let buf = w.finish();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"raw");
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u64_slice().unwrap(), vec![1, u64::MAX, 42]);
        r.expect_end().unwrap();
    }

    #[test]
    fn reader_rejects_malformed_payloads() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(
            r.bool().unwrap_err(),
            CheckpointError::Corrupt("bad bool byte 2".into())
        );
        let mut r = ByteReader::new(&[0xFF; 8]);
        // Length prefix far beyond the buffer: Truncated, not OOM.
        assert!(matches!(
            ByteReader::new(&[0xFF; 9]).u64_slice().unwrap_err(),
            CheckpointError::Truncated
        ));
        assert!(r.u64().is_ok());
        assert_eq!(r.u8().unwrap_err(), CheckpointError::Truncated);
    }
}
