//! Compact, versioned binary memory traces and their replay stream.
//!
//! The `AEPWTR01` format stores one record per memory access:
//!
//! ```text
//! magic   8 bytes  b"AEPWTR01"
//! count   4 bytes  u32 LE, number of records
//! record  1 byte   tag: bit 0 = write, bits 1-2 = log2(size in bytes)
//!                  (1/2/4/8), bits 3-7 must be zero
//!         1-10 B   zigzag-encoded LEB128 varint: byte-address delta
//!                  from the previous record (first record: from 0)
//! ```
//!
//! Delta encoding makes sequential and strided traces a few bytes per
//! access; decoding is total — corrupt or truncated input yields a typed
//! [`TraceError`], never a panic. [`TraceWorkload`] resolves a named
//! trace from the committed corpus under `traces/` (searching the
//! current directory and its ancestors, so tests and the `exp` binary
//! agree) and replays it as an infinite, wrapping [`TraceStream`].

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use aep_cpu::isa::{InstrStream, MicroOp, NO_REG};
use aep_mem::Addr;

/// Magic + version prefix of the compact trace format.
pub const TRACE_MAGIC: [u8; 8] = *b"AEPWTR01";

/// Directory (relative to the repo root) holding the committed corpus.
pub const TRACE_DIR: &str = "traces";

/// Code-region bytes the replay stream's synthetic PCs cycle over (small
/// enough to stay resident even in the tiny differential-check L2).
const TRACE_CODE_BYTES: u64 = 512;
/// Base address of the replay stream's synthetic code region.
const TRACE_CODE_BASE: u64 = 0x0040_0000;

/// One memory access of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Store (`true`) or load (`false`).
    pub write: bool,
    /// Access size in bytes: 1, 2, 4, or 8.
    pub size: u8,
    /// Byte address.
    pub addr: u64,
}

impl TraceRecord {
    /// A load of `size` bytes at `addr`.
    #[must_use]
    pub fn load(addr: u64, size: u8) -> Self {
        TraceRecord {
            write: false,
            size,
            addr,
        }
    }

    /// A store of `size` bytes at `addr`.
    #[must_use]
    pub fn store(addr: u64, size: u8) -> Self {
        TraceRecord {
            write: true,
            size,
            addr,
        }
    }
}

/// Why a trace failed to encode, decode, or load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The file does not start with [`TRACE_MAGIC`].
    BadMagic,
    /// The input ended before the promised record count was read.
    Truncated {
        /// Byte offset at which input ran out.
        offset: usize,
    },
    /// A record tag had reserved bits set.
    BadTag {
        /// Byte offset of the offending tag.
        offset: usize,
        /// The tag byte.
        tag: u8,
    },
    /// A delta varint ran past its 10-byte maximum.
    BadVarint {
        /// Byte offset where the varint started.
        offset: usize,
    },
    /// Bytes remained after the last promised record.
    TrailingBytes {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// A record's size was not 1, 2, 4, or 8 (encode-side check).
    BadSize {
        /// The rejected size.
        size: u8,
    },
    /// The named trace was not found under any `traces/` directory.
    NotFound {
        /// The trace name searched for.
        name: String,
    },
    /// An I/O error while reading or writing the trace file.
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "not an AEPWTR01 trace (bad magic)"),
            TraceError::Truncated { offset } => {
                write!(f, "trace truncated at byte {offset}")
            }
            TraceError::BadTag { offset, tag } => {
                write!(f, "invalid record tag {tag:#04x} at byte {offset}")
            }
            TraceError::BadVarint { offset } => {
                write!(f, "overlong address varint at byte {offset}")
            }
            TraceError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after the last record")
            }
            TraceError::BadSize { size } => {
                write!(f, "access size {size} is not 1, 2, 4, or 8")
            }
            TraceError::NotFound { name } => {
                write!(f, "trace '{name}' not found under {TRACE_DIR}/")
            }
            TraceError::Io(msg) => write!(f, "trace I/O error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

fn size_code(size: u8) -> Result<u8, TraceError> {
    match size {
        1 => Ok(0),
        2 => Ok(1),
        4 => Ok(2),
        8 => Ok(3),
        _ => Err(TraceError::BadSize { size }),
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], at: &mut usize) -> Result<u64, TraceError> {
    let start = *at;
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*at)
            .ok_or(TraceError::Truncated { offset: *at })?;
        *at += 1;
        if shift >= 64 {
            return Err(TraceError::BadVarint { offset: start });
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Encodes `records` into the `AEPWTR01` wire form.
///
/// # Errors
///
/// Returns [`TraceError::BadSize`] when a record's size is not a power
/// of two in 1..=8.
pub fn encode(records: &[TraceRecord]) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::with_capacity(12 + records.len() * 3);
    out.extend_from_slice(&TRACE_MAGIC);
    let count =
        u32::try_from(records.len()).map_err(|_| TraceError::Io("trace too long".to_owned()))?;
    out.extend_from_slice(&count.to_le_bytes());
    let mut prev = 0u64;
    for r in records {
        let tag = u8::from(r.write) | (size_code(r.size)? << 1);
        out.push(tag);
        let delta = r.addr.wrapping_sub(prev) as i64;
        push_varint(&mut out, zigzag(delta));
        prev = r.addr;
    }
    Ok(out)
}

/// Decodes an `AEPWTR01` byte stream. Total: every malformed input maps
/// to a [`TraceError`].
///
/// # Errors
///
/// See [`TraceError`] for the failure taxonomy.
pub fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, TraceError> {
    if bytes.len() < 8 || bytes[..8] != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let mut at = 8usize;
    let count_bytes: [u8; 4] = bytes
        .get(at..at + 4)
        .ok_or(TraceError::Truncated { offset: at })?
        .try_into()
        .expect("slice of length 4");
    let count = u32::from_le_bytes(count_bytes) as usize;
    at += 4;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    let mut prev = 0u64;
    for _ in 0..count {
        let tag_at = at;
        let &tag = bytes.get(at).ok_or(TraceError::Truncated { offset: at })?;
        at += 1;
        if tag & !0x07 != 0 {
            return Err(TraceError::BadTag {
                offset: tag_at,
                tag,
            });
        }
        let delta = unzigzag(read_varint(bytes, &mut at)?);
        let addr = prev.wrapping_add(delta as u64);
        records.push(TraceRecord {
            write: tag & 1 != 0,
            size: 1 << ((tag >> 1) & 0x03),
            addr,
        });
        prev = addr;
    }
    if at != bytes.len() {
        return Err(TraceError::TrailingBytes {
            extra: bytes.len() - at,
        });
    }
    Ok(records)
}

/// Writes `records` to `path` in the compact format.
///
/// # Errors
///
/// Propagates encode failures and filesystem errors as [`TraceError`].
pub fn write_trace_file(path: &Path, records: &[TraceRecord]) -> Result<(), TraceError> {
    let bytes = encode(records)?;
    std::fs::write(path, bytes).map_err(|e| TraceError::Io(e.to_string()))
}

/// Reads and decodes the trace at `path`.
///
/// # Errors
///
/// Propagates filesystem and decode failures as [`TraceError`].
pub fn read_trace_file(path: &Path) -> Result<Vec<TraceRecord>, TraceError> {
    let bytes = std::fs::read(path).map_err(|e| TraceError::Io(e.to_string()))?;
    decode(&bytes)
}

/// Resolves a corpus trace name to its file, searching `traces/` in the
/// current directory and every ancestor (so crate tests, the workspace
/// root, and CI all find the committed corpus).
#[must_use]
pub fn find_trace(name: &str) -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    for dir in cwd.ancestors() {
        let candidate = dir.join(TRACE_DIR).join(format!("{name}.trace"));
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

/// A named, decoded trace ready to replay.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    name: String,
    records: Arc<[TraceRecord]>,
}

impl TraceWorkload {
    /// Loads the named trace from the committed corpus (see
    /// [`find_trace`]).
    ///
    /// # Errors
    ///
    /// [`TraceError::NotFound`] when no `traces/<name>.trace` exists in
    /// the directory tree, plus any decode failure.
    pub fn load(name: &str) -> Result<Self, TraceError> {
        let path = find_trace(name).ok_or_else(|| TraceError::NotFound {
            name: name.to_owned(),
        })?;
        let records = read_trace_file(&path)?;
        Ok(TraceWorkload {
            name: name.to_owned(),
            records: records.into(),
        })
    }

    /// Wraps an in-memory record sequence (used by corpus generation and
    /// tests).
    #[must_use]
    pub fn from_records(name: &str, records: Vec<TraceRecord>) -> Self {
        TraceWorkload {
            name: name.to_owned(),
            records: records.into(),
        }
    }

    /// The trace's corpus name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The decoded records.
    #[must_use]
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// An infinite replay stream over this trace.
    #[must_use]
    pub fn stream(&self) -> TraceStream {
        TraceStream {
            records: Arc::clone(&self.records),
            pos: 0,
            pc: TRACE_CODE_BASE,
            dst: 0,
        }
    }
}

/// Infinite, wrapping [`InstrStream`] replay of a [`TraceWorkload`]:
/// each record becomes one load/store micro-op at a synthetic PC cycling
/// over a small code region. An empty trace degrades to ALU no-ops.
#[derive(Debug, Clone)]
pub struct TraceStream {
    records: Arc<[TraceRecord]>,
    pos: usize,
    pc: u64,
    dst: u8,
}

impl TraceStream {
    fn advance_pc(&mut self) -> u64 {
        let pc = self.pc;
        self.pc += 4;
        if self.pc >= TRACE_CODE_BASE + TRACE_CODE_BYTES {
            self.pc = TRACE_CODE_BASE;
        }
        pc
    }

    fn next_dst(&mut self) -> u8 {
        // Rotate through r1..=r31 (r0 reserved as always-ready).
        self.dst = if self.dst >= 31 { 1 } else { self.dst + 1 };
        self.dst
    }
}

impl InstrStream for TraceStream {
    fn next_op(&mut self) -> MicroOp {
        let pc = self.advance_pc();
        if self.records.is_empty() {
            return MicroOp::alu(pc, NO_REG, NO_REG, 1);
        }
        let rec = self.records[self.pos];
        self.pos = (self.pos + 1) % self.records.len();
        let addr = Addr(rec.addr);
        if rec.write {
            let src = self.next_dst();
            MicroOp::store(pc, addr, src)
        } else {
            let dst = self.next_dst();
            MicroOp::load(pc, addr, dst)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_cpu::isa::OpClass;
    use aep_rng::SmallRng;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::store(0x1000_0000, 8),
            TraceRecord::store(0x1000_0040, 8),
            TraceRecord::load(0x1000_0000, 4),
            TraceRecord::load(0x0fff_ff80, 1),
            TraceRecord::store(0xffff_ffff_ffff_fff8, 2),
        ]
    }

    #[test]
    fn round_trip_preserves_records() {
        let records = sample_records();
        let bytes = encode(&records).unwrap();
        assert_eq!(decode(&bytes).unwrap(), records);
    }

    #[test]
    fn round_trip_arbitrary_sequences() {
        // Property: any record sequence survives encode → decode.
        let mut rng = SmallRng::seed_from_u64(0xACE5);
        for _ in 0..64 {
            let n = rng.gen_range(0..200usize);
            let records: Vec<TraceRecord> = (0..n)
                .map(|_| TraceRecord {
                    write: rng.gen::<bool>(),
                    size: 1 << rng.gen_range(0..4u32),
                    addr: rng.gen::<u64>(),
                })
                .collect();
            let bytes = encode(&records).unwrap();
            assert_eq!(decode(&bytes).unwrap(), records);
        }
    }

    #[test]
    fn corrupt_and_truncated_traces_yield_typed_errors() {
        let records = sample_records();
        let bytes = encode(&records).unwrap();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(decode(&bad), Err(TraceError::BadMagic));
        // Every truncation point decodes to an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        // A reserved tag bit.
        let mut bad = bytes.clone();
        bad[12] |= 0x80;
        assert!(matches!(decode(&bad), Err(TraceError::BadTag { .. })));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert_eq!(decode(&bad), Err(TraceError::TrailingBytes { extra: 1 }));
        // An overlong varint.
        let mut bad = Vec::from(TRACE_MAGIC);
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(0); // load, size 1
        bad.extend_from_slice(&[0x80; 10]);
        bad.push(0x01);
        assert!(matches!(decode(&bad), Err(TraceError::BadVarint { .. })));
    }

    #[test]
    fn every_byte_corruption_is_total() {
        // Flipping any single byte either still decodes or yields an
        // error — decode must be panic-free on all inputs.
        let bytes = encode(&sample_records()).unwrap();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x55;
            let _ = decode(&mutated);
        }
    }

    #[test]
    fn encode_rejects_bad_sizes() {
        let r = [TraceRecord::load(0, 3)];
        assert_eq!(encode(&r), Err(TraceError::BadSize { size: 3 }));
    }

    #[test]
    fn delta_encoding_is_compact_for_strided_traces() {
        let records: Vec<TraceRecord> = (0..1000)
            .map(|i| TraceRecord::store(0x1000_0000 + i * 64, 8))
            .collect();
        let bytes = encode(&records).unwrap();
        // Tag + short varint per record: well under 4 bytes/record.
        assert!(bytes.len() < 12 + records.len() * 4);
    }

    #[test]
    fn replay_stream_wraps_and_maps_records_to_ops() {
        let records = sample_records();
        let wl = TraceWorkload::from_records("t", records.clone());
        let mut s = wl.stream();
        for lap in 0..3 {
            for rec in &records {
                let op = s.next_op();
                let expect = if rec.write {
                    OpClass::Store
                } else {
                    OpClass::Load
                };
                assert_eq!(op.class, expect, "lap {lap}");
                assert_eq!(op.addr(), Some(Addr(rec.addr)));
            }
        }
    }

    #[test]
    fn empty_trace_replays_as_alu_noops() {
        let wl = TraceWorkload::from_records("empty", Vec::new());
        let mut s = wl.stream();
        for _ in 0..8 {
            assert_eq!(s.next_op().class, OpClass::IntAlu);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("aep-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.trace");
        let records = sample_records();
        write_trace_file(&path, &records).unwrap();
        assert_eq!(read_trace_file(&path).unwrap(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
