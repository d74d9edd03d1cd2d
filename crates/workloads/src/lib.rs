//! Synthetic SPEC2000-like workloads.
//!
//! The paper drives its experiments with fourteen SPEC2000 benchmarks
//! (seven floating-point, seven integer) running for one billion committed
//! instructions on SimpleScalar. Pre-compiled SPEC binaries are not
//! redistributable, so this crate substitutes **behavioural models**: each
//! benchmark is a parameterized, seeded generator of the micro-op stream
//! statistics that the paper's metrics actually depend on —
//!
//! * instruction mix (load/store/branch/ALU/FP fractions),
//! * working-set structure (an L1-resident hot set, large streaming
//!   regions, L2-resident read and *dirty* regions),
//! * generational write behaviour (slow rewrite sweeps over the dirty
//!   footprint, which is what the cleaning logic exploits),
//! * branch predictability and code footprint.
//!
//! The models are calibrated so the simulated L2 reproduces the paper's
//! *reported* per-benchmark behaviour: the Figure 1 dirty-line fractions
//! (51.6 % on average, with `apsi`, `mesa`, `gap`, `parser` far above the
//! rest), the streaming benchmarks' insensitivity to 4M-cycle cleaning
//! (`applu`, `swim`, `mgrid`, `equake`, `mcf`), and write-back traffic
//! around 1 % of loads/stores. See `DESIGN.md` §2 for the substitution
//! rationale and `calibration` for the target table.
//!
//! ```
//! use aep_workloads::Benchmark;
//! use aep_cpu::InstrStream;
//!
//! let mut gen = Benchmark::Gap.generator(42);
//! let op = gen.next_op();
//! # let _ = op;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod bench;
pub mod calibration;
pub mod model;
pub mod trace;
pub mod workload;
pub mod zipf;

pub use adversarial::{AdversarialSpec, AdversarialStream};
pub use bench::{BenchKind, Benchmark};
pub use model::{Generator, InstrMix, Pattern, Region, WorkloadSpec};
pub use trace::{
    decode, encode, find_trace, read_trace_file, write_trace_file, TraceError, TraceRecord,
    TraceStream, TraceWorkload, TRACE_DIR, TRACE_MAGIC,
};
pub use workload::{diversity_workloads, Workload, WorkloadStream};
pub use zipf::{ZipfSpec, ZipfStream};

/// FNV-1a over every field of the first `n` ops of `stream`, in a fixed
/// little-endian encoding: the pin of a generator's raw op stream.
#[cfg(test)]
pub(crate) fn op_stream_digest(stream: &mut impl aep_cpu::InstrStream, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for _ in 0..n {
        let op = stream.next_op();
        eat(&op.pc.to_le_bytes());
        // An absent register is 0xff, the `NO_REG` sentinel.
        eat(&[
            op.class as u8,
            op.src1,
            op.src2,
            op.dst,
            u8::from(op.taken),
            u8::from(op.addr().is_some()),
        ]);
        eat(&op.addr().map_or(0, |a| a.0).to_le_bytes());
        eat(&op.target().to_le_bytes());
    }
    h
}
