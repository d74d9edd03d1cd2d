//! Instruction-trace recording and replay.
//!
//! SimpleScalar-era studies (including the paper's) are trace-friendly:
//! capturing a workload's micro-op stream once and replaying it makes
//! cross-configuration comparisons exact (identical instruction streams)
//! and decouples slow generators from fast timing sweeps. This module
//! provides a compact binary trace codec plus stream adapters:
//!
//! * [`TraceWriter`] / [`TraceReader`] — encode/decode micro-ops over any
//!   `std::io` writer/reader (a file, a `Vec<u8>`, a pipe);
//! * [`RecordingStream`] — wraps any [`InstrStream`], teeing every op it
//!   hands out into a writer while passing it through;
//! * [`ReplayStream`] — replays a recorded trace as an infinite stream
//!   (wrapping around at the end, as loop-based workloads do).
//!
//! # Format
//!
//! Little-endian, fixed-size records behind an 8-byte magic header
//! (`AEPTRC01`). Each record is 29 bytes: `pc:u64, class:u8, src1:u8,
//! src2:u8, dst:u8, addr:u64, taken:u8, target:u64` with `0xFF` encoding
//! "no register" ([`NO_REG`](crate::isa::NO_REG)). `addr` is meaningful only for memory ops and
//! `target` only for branches: both are written as 0 for the other
//! classes and ignored when read.

use std::io::{self, Read, Write};

use crate::isa::{InstrStream, MicroOp, OpClass};

/// Magic bytes identifying a trace (version 01).
pub const TRACE_MAGIC: [u8; 8] = *b"AEPTRC01";

const RECORD_BYTES: usize = 29;

fn class_to_byte(class: OpClass) -> u8 {
    match class {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::FpAdd => 2,
        OpClass::FpMul => 3,
        OpClass::Load => 4,
        OpClass::Store => 5,
        OpClass::Branch => 6,
    }
}

fn byte_to_class(b: u8) -> io::Result<OpClass> {
    Ok(match b {
        0 => OpClass::IntAlu,
        1 => OpClass::IntMul,
        2 => OpClass::FpAdd,
        3 => OpClass::FpMul,
        4 => OpClass::Load,
        5 => OpClass::Store,
        6 => OpClass::Branch,
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("invalid op class byte {other}"),
            ))
        }
    })
}

/// Writes micro-ops as a binary trace.
///
/// ```
/// use aep_cpu::trace::{TraceReader, TraceWriter};
/// use aep_cpu::isa::{MicroOp, NO_REG};
///
/// # fn main() -> std::io::Result<()> {
/// let mut buf = Vec::new();
/// let mut writer = TraceWriter::new(&mut buf)?;
/// writer.write_op(&MicroOp::alu(0x1000, 1, NO_REG, 2))?;
/// writer.flush()?;
///
/// let mut reader = TraceReader::new(buf.as_slice())?;
/// let op = reader.read_op()?.expect("one op recorded");
/// assert_eq!(op.pc, 0x1000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    ops: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer, emitting the magic header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(mut sink: W) -> io::Result<Self> {
        sink.write_all(&TRACE_MAGIC)?;
        Ok(TraceWriter { sink, ops: 0 })
    }

    /// Appends one op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn write_op(&mut self, op: &MicroOp) -> io::Result<()> {
        let mut rec = [0u8; RECORD_BYTES];
        rec[0..8].copy_from_slice(&op.pc.to_le_bytes());
        rec[8] = class_to_byte(op.class);
        rec[9] = op.src1;
        rec[10] = op.src2;
        rec[11] = op.dst;
        rec[12..20].copy_from_slice(&op.addr().map_or(0, |a| a.0).to_le_bytes());
        rec[20] = u8::from(op.taken);
        rec[21..29].copy_from_slice(&op.target().to_le_bytes());
        self.sink.write_all(&rec)?;
        self.ops += 1;
        Ok(())
    }

    /// Number of ops written so far.
    #[must_use]
    pub fn ops_written(&self) -> u64 {
        self.ops
    }

    /// Flushes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.sink.flush()
    }

    /// Unwraps the sink.
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Reads micro-ops back from a binary trace.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    source: R,
}

impl<R: Read> TraceReader<R> {
    /// Creates a reader, validating the magic header.
    ///
    /// # Errors
    ///
    /// Fails with `InvalidData` when the header does not match, or with
    /// any I/O error from the source.
    pub fn new(mut source: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an AEP trace (bad magic)",
            ));
        }
        Ok(TraceReader { source })
    }

    /// Reads the next op; `Ok(None)` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Fails with `UnexpectedEof` on a truncated record, `InvalidData` on
    /// a malformed one, or any I/O error from the source.
    pub fn read_op(&mut self) -> io::Result<Option<MicroOp>> {
        let mut rec = [0u8; RECORD_BYTES];
        match self.source.read(&mut rec[..1])? {
            0 => return Ok(None),
            _ => self.source.read_exact(&mut rec[1..])?,
        }
        let class = byte_to_class(rec[8])?;
        let field = |at: usize| u64::from_le_bytes(rec[at..at + 8].try_into().expect("8 bytes"));
        let operand = match class {
            OpClass::Load | OpClass::Store => field(12),
            OpClass::Branch => field(21),
            _ => 0,
        };
        let op = MicroOp {
            pc: field(0),
            operand,
            class,
            src1: rec[9],
            src2: rec[10],
            dst: rec[11],
            taken: rec[20] != 0,
        };
        Ok(Some(op))
    }

    /// Drains the whole trace into memory.
    ///
    /// # Errors
    ///
    /// Propagates any decode/I/O error.
    pub fn read_all(mut self) -> io::Result<Vec<MicroOp>> {
        let mut ops = Vec::new();
        while let Some(op) = self.read_op()? {
            ops.push(op);
        }
        Ok(ops)
    }
}

/// Tees a stream's output into a trace writer.
///
/// It records every op its consumer draws, which may run ahead of the ops
/// the consumer executes ([`InstrStream::fill`]): a recording of a
/// pipeline run ends with up to 64 ops the core never fetched. Replaying
/// it through a pipeline of the same configuration draws the same ops in
/// the same order, so the replay times identically.
#[derive(Debug)]
pub struct RecordingStream<S, W: Write> {
    inner: S,
    writer: TraceWriter<W>,
}

impl<S: InstrStream, W: Write> RecordingStream<S, W> {
    /// Wraps `inner`, recording into `sink`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors writing the header.
    pub fn new(inner: S, sink: W) -> io::Result<Self> {
        Ok(RecordingStream {
            inner,
            writer: TraceWriter::new(sink)?,
        })
    }

    /// Finishes recording, returning the inner stream and the sink.
    ///
    /// # Errors
    ///
    /// Propagates the final flush's I/O error.
    pub fn finish(mut self) -> io::Result<(S, W)> {
        self.writer.flush()?;
        Ok((self.inner, self.writer.into_inner()))
    }
}

impl<S: InstrStream, W: Write> InstrStream for RecordingStream<S, W> {
    /// # Panics
    ///
    /// Panics on I/O errors: the timing loop cannot meaningfully continue
    /// with a torn trace.
    fn next_op(&mut self) -> MicroOp {
        let op = self.inner.next_op();
        self.writer
            .write_op(&op)
            .expect("trace sink failed mid-recording");
        op
    }
}

/// Replays a recorded trace as an infinite stream (wraps at the end).
#[derive(Debug, Clone)]
pub struct ReplayStream {
    ops: Vec<MicroOp>,
    next: usize,
    laps: u64,
}

impl ReplayStream {
    /// Builds a replay stream from decoded ops.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty (an infinite stream needs material).
    #[must_use]
    pub fn new(ops: Vec<MicroOp>) -> Self {
        assert!(!ops.is_empty(), "cannot replay an empty trace");
        ReplayStream {
            ops,
            next: 0,
            laps: 0,
        }
    }

    /// Reads and replays a serialized trace.
    ///
    /// # Errors
    ///
    /// Propagates decode/I/O errors; fails with `InvalidData` when the
    /// trace holds no ops.
    pub fn from_reader<R: Read>(source: R) -> io::Result<Self> {
        let ops = TraceReader::new(source)?.read_all()?;
        if ops.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace holds no instructions",
            ));
        }
        Ok(ReplayStream::new(ops))
    }

    /// How many times the trace has wrapped around.
    #[must_use]
    pub fn laps(&self) -> u64 {
        self.laps
    }

    /// Number of ops in one lap of the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always `false`: construction rejects empty traces.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl InstrStream for ReplayStream {
    fn next_op(&mut self) -> MicroOp {
        let op = self.ops[self.next];
        self.next += 1;
        if self.next == self.ops.len() {
            self.next = 0;
            self.laps += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{LoopStream, NO_REG};
    use aep_mem::Addr;

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::alu(0x1000, 1, 2, 3),
            MicroOp::load(0x1008, Addr::new(0xABCD), 4),
            MicroOp::store(0x1010, Addr::new(0x1234_5678_9ABC), 4),
            MicroOp::branch(0x1018, true, 0x1000),
            MicroOp {
                class: OpClass::FpMul,
                ..MicroOp::alu(0x1020, NO_REG, 31, 30)
            },
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        for op in sample_ops() {
            writer.write_op(&op).unwrap();
        }
        assert_eq!(writer.ops_written(), 5);
        writer.flush().unwrap();

        let decoded = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(decoded, sample_ops());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOTATRCE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        writer.write_op(&sample_ops()[0]).unwrap();
        buf.truncate(buf.len() - 3);
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.read_op().is_err());
    }

    #[test]
    fn invalid_class_byte_is_an_error() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        writer.write_op(&sample_ops()[0]).unwrap();
        buf[8 + 8] = 99; // corrupt the class byte of record 0
        let mut reader = TraceReader::new(buf.as_slice()).unwrap();
        assert!(reader.read_op().is_err());
    }

    #[test]
    fn recording_stream_tees_transparently() {
        let source = LoopStream::new(sample_ops());
        let mut rec = RecordingStream::new(source, Vec::new()).unwrap();
        let seen: Vec<MicroOp> = (0..5).map(|_| rec.next_op()).collect();
        let (_, buf) = rec.finish().unwrap();
        assert_eq!(seen, sample_ops());
        let decoded = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(decoded, sample_ops());
    }

    #[test]
    fn replay_wraps_and_counts_laps() {
        let mut replay = ReplayStream::new(sample_ops());
        assert_eq!(replay.len(), 5);
        for _ in 0..12 {
            replay.next_op();
        }
        assert_eq!(replay.laps(), 2);
        assert_eq!(replay.next_op(), sample_ops()[2]);
    }

    #[test]
    fn replay_from_reader_roundtrip() {
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        for op in sample_ops() {
            writer.write_op(&op).unwrap();
        }
        let mut replay = ReplayStream::from_reader(buf.as_slice()).unwrap();
        assert_eq!(replay.next_op(), sample_ops()[0]);
    }

    #[test]
    fn empty_trace_cannot_replay() {
        let mut buf = Vec::new();
        TraceWriter::new(&mut buf).unwrap().flush().unwrap();
        assert!(ReplayStream::from_reader(buf.as_slice()).is_err());
    }

    #[test]
    fn non_mem_addr_field_ignored_on_decode() {
        // An ALU op never carries an address or a target, and a load no
        // target, even if the record's fields hold residue.
        let mut buf = Vec::new();
        let mut writer = TraceWriter::new(&mut buf).unwrap();
        writer
            .write_op(&MicroOp::alu(4, NO_REG, NO_REG, NO_REG))
            .unwrap();
        writer
            .write_op(&MicroOp::load(8, Addr::new(0x40), 1))
            .unwrap();
        for record in [8, 8 + RECORD_BYTES] {
            buf[record + 21] = 0x77; // target residue
        }
        buf[8 + 12] = 0x55; // addr residue on the ALU op
        let ops = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert_eq!(ops[0], MicroOp::alu(4, NO_REG, NO_REG, NO_REG));
        assert_eq!(ops[1], MicroOp::load(8, Addr::new(0x40), 1));
    }
}
