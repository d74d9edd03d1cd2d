//! The fourteen benchmarks and their behavioural specifications.
//!
//! The paper randomly selects seven SPEC2000 floating-point and seven
//! integer programs. Its prose pins down two behavioural classes we must
//! reproduce:
//!
//! * *"The applu, swim, mgrid, equake, and mcf show little reduction with
//!   4M interval"* — **streaming / fast-rewrite** benchmarks whose dirty
//!   lines either leave the L2 quickly or are re-dirtied faster than a
//!   long cleaning interval can catch;
//! * *"apsi, mesa, gap, and parser … include a large percentage of dirty
//!   cache lines"* (Figure 1) — **resident-dirty** benchmarks whose large
//!   written working sets sit idle in the L2 (and are exactly what the
//!   cleaning logic reclaims).
//!
//! Each benchmark below is a [`WorkloadSpec`] whose regions/weights were
//! calibrated against those constraints (see [`crate::calibration`] for
//! the targets and the measured outcomes recorded in `EXPERIMENTS.md`).

use crate::model::{BranchModel, Generator, InstrMix, Pattern, Region, WorkloadSpec};

/// Floating-point or integer suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchKind {
    /// SPEC2000 CFP2000 member.
    Fp,
    /// SPEC2000 CINT2000 member.
    Int,
}

impl core::fmt::Display for BenchKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            BenchKind::Fp => "FP",
            BenchKind::Int => "INT",
        })
    }
}

/// The paper's fourteen benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // the variants are benchmark names
pub enum Benchmark {
    Applu,
    Swim,
    Mgrid,
    Equake,
    Apsi,
    Mesa,
    Art,
    Mcf,
    Gap,
    Parser,
    Gzip,
    Vpr,
    Gcc,
    Bzip2,
}

impl core::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;

impl Benchmark {
    /// All fourteen benchmarks, FP first (as in the paper's figures).
    #[must_use]
    pub fn all() -> [Benchmark; 14] {
        [
            Benchmark::Applu,
            Benchmark::Swim,
            Benchmark::Mgrid,
            Benchmark::Equake,
            Benchmark::Apsi,
            Benchmark::Mesa,
            Benchmark::Art,
            Benchmark::Mcf,
            Benchmark::Gap,
            Benchmark::Parser,
            Benchmark::Gzip,
            Benchmark::Vpr,
            Benchmark::Gcc,
            Benchmark::Bzip2,
        ]
    }

    /// The seven floating-point benchmarks.
    #[must_use]
    pub fn fp() -> [Benchmark; 7] {
        [
            Benchmark::Applu,
            Benchmark::Swim,
            Benchmark::Mgrid,
            Benchmark::Equake,
            Benchmark::Apsi,
            Benchmark::Mesa,
            Benchmark::Art,
        ]
    }

    /// The seven integer benchmarks.
    #[must_use]
    pub fn int() -> [Benchmark; 7] {
        [
            Benchmark::Mcf,
            Benchmark::Gap,
            Benchmark::Parser,
            Benchmark::Gzip,
            Benchmark::Vpr,
            Benchmark::Gcc,
            Benchmark::Bzip2,
        ]
    }

    /// Lower-case SPEC name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Applu => "applu",
            Benchmark::Swim => "swim",
            Benchmark::Mgrid => "mgrid",
            Benchmark::Equake => "equake",
            Benchmark::Apsi => "apsi",
            Benchmark::Mesa => "mesa",
            Benchmark::Art => "art",
            Benchmark::Mcf => "mcf",
            Benchmark::Gap => "gap",
            Benchmark::Parser => "parser",
            Benchmark::Gzip => "gzip",
            Benchmark::Vpr => "vpr",
            Benchmark::Gcc => "gcc",
            Benchmark::Bzip2 => "bzip2",
        }
    }

    /// Which suite the benchmark belongs to.
    #[must_use]
    pub fn kind(self) -> BenchKind {
        match self {
            Benchmark::Applu
            | Benchmark::Swim
            | Benchmark::Mgrid
            | Benchmark::Equake
            | Benchmark::Apsi
            | Benchmark::Mesa
            | Benchmark::Art => BenchKind::Fp,
            _ => BenchKind::Int,
        }
    }

    /// `true` for the benchmarks the paper singles out as showing *little
    /// reduction with the 4M cleaning interval*.
    #[must_use]
    pub fn is_cleaning_resistant(self) -> bool {
        matches!(
            self,
            Benchmark::Applu
                | Benchmark::Swim
                | Benchmark::Mgrid
                | Benchmark::Equake
                | Benchmark::Mcf
        )
    }

    /// `true` for the benchmarks the paper singles out in Figure 1 as
    /// having a large dirty fraction (`apsi`, `mesa`, `gap`, `parser`).
    #[must_use]
    pub fn is_resident_dirty(self) -> bool {
        matches!(
            self,
            Benchmark::Apsi | Benchmark::Mesa | Benchmark::Gap | Benchmark::Parser
        )
    }

    /// The behavioural specification.
    #[must_use]
    pub fn spec(self) -> WorkloadSpec {
        match self {
            // ---- streaming FP: large read+write scans; dirty lines are
            // evicted by the stream's own advance, so long cleaning
            // intervals find little to clean.
            Benchmark::Applu => streaming_fp("applu", 0.17, 0.27, 3.2 * MIB as f64),
            Benchmark::Swim => streaming_fp("swim", 0.17, 0.23, 4.0 * MIB as f64),
            Benchmark::Mgrid => streaming_fp("mgrid", 0.16, 0.21, 2.8 * MIB as f64),
            Benchmark::Equake => streaming_fp("equake", 0.16, 0.25, 3.6 * MIB as f64),

            // ---- resident-dirty FP: a large written working set sits in
            // the L2 and is rewritten slowly (generational behaviour).
            Benchmark::Apsi => resident_dirty("apsi", BenchKind::Fp, 920 * KIB, 0.080),
            Benchmark::Mesa => resident_dirty("mesa", BenchKind::Fp, 880 * KIB, 0.085),

            // ---- art: read-streaming with a small dirty set.
            Benchmark::Art => WorkloadSpec {
                name: "art",
                mix: InstrMix::fp_default(),
                regions: vec![
                    hot(8 * KIB, 0.80, 0.88),
                    Region::new(
                        Pattern::StreamRead {
                            bytes: 192 * MIB,
                            stride: 8,
                        },
                        0.18,
                        0.0,
                    ),
                    Region::new(Pattern::SweepWrite { bytes: 256 * KIB }, 0.0, 0.04),
                    Region::new(Pattern::ResidentRead { bytes: 256 * KIB }, 0.02, 0.0),
                    Region::new(
                        Pattern::StreamWrite {
                            bytes: 128 * MIB,
                            stride: 8,
                        },
                        0.0,
                        0.08,
                    ),
                ],
                branch: BranchModel {
                    taken_prob: 0.95,
                    noise: 0.03,
                },
                code_bytes: 12 * KIB,
                dep_frac: 0.35,
            },

            // ---- mcf: pointer chasing over a huge footprint; its dirty
            // lines are re-dirtied quickly (fast sweep), so 4M-interval
            // cleaning achieves little.
            Benchmark::Mcf => WorkloadSpec {
                name: "mcf",
                mix: InstrMix {
                    load: 0.33,
                    store: 0.09,
                    branch: 0.16,
                    int_alu: 0.39,
                    int_mul: 0.03,
                    fp_add: 0.0,
                    fp_mul: 0.0,
                },
                regions: vec![
                    hot(8 * KIB, 0.84, 0.69),
                    Region::new(Pattern::PointerChase { bytes: 8 * MIB }, 0.14, 0.0),
                    Region::new(Pattern::SweepWrite { bytes: 512 * KIB }, 0.0, 0.20),
                    Region::new(Pattern::ResidentRead { bytes: 384 * KIB }, 0.02, 0.0),
                    Region::new(
                        Pattern::StreamWrite {
                            bytes: 96 * MIB,
                            stride: 64,
                        },
                        0.0,
                        0.01,
                    ),
                ],
                branch: BranchModel {
                    taken_prob: 0.9,
                    noise: 0.14,
                },
                code_bytes: 10 * KIB,
                dep_frac: 0.55,
            },

            // ---- resident-dirty INT.
            Benchmark::Gap => resident_dirty("gap", BenchKind::Int, 940 * KIB, 0.080),
            Benchmark::Parser => resident_dirty("parser", BenchKind::Int, 900 * KIB, 0.080),

            // ---- remaining INT: moderate streaming/mixed behaviour.
            Benchmark::Gzip => mixed_int_w("gzip", 300 * KIB, 0.030, 48 * MIB, 0.06),
            Benchmark::Vpr => mixed_int_w("vpr", 400 * KIB, 0.028, 16 * MIB, 0.09),
            Benchmark::Gcc => {
                let mut spec = mixed_int_w("gcc", 520 * KIB, 0.035, 24 * MIB, 0.10);
                spec.code_bytes = 96 * KIB; // gcc's large code footprint
                spec.branch.noise = 0.14;
                spec
            }
            Benchmark::Bzip2 => mixed_int_w("bzip2", 280 * KIB, 0.032, 64 * MIB, 0.055),
        }
    }

    /// A seeded generator for this benchmark.
    #[must_use]
    pub fn generator(self, seed: u64) -> Generator {
        Generator::new(&self.spec(), seed ^ (self as u64).wrapping_mul(0x9E37_79B9))
    }
}

/// The L1-resident hot set every benchmark has.
fn hot(bytes: u64, read_weight: f64, write_weight: f64) -> Region {
    Region::new(Pattern::HotRandom { bytes }, read_weight, write_weight)
}

/// Streaming FP template: large sequential read and write scans whose L2
/// residency (`residency_bytes` of combined footprint flowing through) is
/// short relative to long cleaning intervals.
fn streaming_fp(
    name: &'static str,
    read_stream_share: f64,
    write_stream_share: f64,
    _residency_hint: f64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        mix: InstrMix::fp_default(),
        regions: vec![
            hot(
                8 * KIB,
                1.0 - read_stream_share - 0.02,
                1.0 - write_stream_share,
            ),
            Region::new(
                Pattern::StreamRead {
                    bytes: 256 * MIB,
                    stride: 8,
                },
                read_stream_share,
                0.0,
            ),
            Region::new(
                Pattern::StreamWrite {
                    bytes: 224 * MIB,
                    stride: 16,
                },
                0.0,
                write_stream_share,
            ),
            Region::new(Pattern::ResidentRead { bytes: 128 * KIB }, 0.02, 0.0),
        ],
        branch: BranchModel {
            taken_prob: 0.95,
            noise: 0.02,
        },
        code_bytes: 16 * KIB,
        dep_frac: 0.40,
    }
}

/// Resident-dirty template: `sweep_bytes` of L2-resident data rewritten
/// with store share `sweep_share` (setting the generational period), plus
/// light streaming to keep some clean traffic flowing.
fn resident_dirty(
    name: &'static str,
    kind: BenchKind,
    sweep_bytes: u64,
    sweep_share: f64,
) -> WorkloadSpec {
    let mix = match kind {
        BenchKind::Fp => InstrMix::fp_default(),
        BenchKind::Int => InstrMix::int_default(),
    };
    WorkloadSpec {
        name,
        mix,
        regions: vec![
            hot(8 * KIB, 0.90, 1.0 - sweep_share - 0.01),
            Region::new(Pattern::SweepWrite { bytes: sweep_bytes }, 0.0, sweep_share),
            Region::new(
                Pattern::StreamRead {
                    bytes: 64 * MIB,
                    stride: 64,
                },
                0.007,
                0.0,
            ),
            Region::new(Pattern::ResidentRead { bytes: 64 * KIB }, 0.093, 0.0),
            Region::new(
                Pattern::StreamWrite {
                    bytes: 64 * MIB,
                    stride: 64,
                },
                0.0,
                0.01,
            ),
        ],
        branch: BranchModel {
            taken_prob: if kind == BenchKind::Int { 0.92 } else { 0.94 },
            noise: if kind == BenchKind::Int { 0.08 } else { 0.04 },
        },
        code_bytes: if kind == BenchKind::Int {
            32 * KIB
        } else {
            20 * KIB
        },
        dep_frac: if kind == BenchKind::Int { 0.5 } else { 0.4 },
    }
}

/// Mixed integer template: a moderate resident dirty set plus read/write
/// streams over `stream_bytes`; `write_stream_share` of stores go to the
/// write stream.
fn mixed_int_w(
    name: &'static str,
    sweep_bytes: u64,
    sweep_share: f64,
    stream_bytes: u64,
    write_stream_share: f64,
) -> WorkloadSpec {
    WorkloadSpec {
        name,
        mix: InstrMix::int_default(),
        regions: vec![
            hot(8 * KIB, 0.84, 1.0 - sweep_share - write_stream_share),
            Region::new(Pattern::SweepWrite { bytes: sweep_bytes }, 0.0, sweep_share),
            Region::new(
                Pattern::StreamRead {
                    bytes: stream_bytes,
                    stride: 8,
                },
                0.12,
                0.0,
            ),
            Region::new(Pattern::ResidentRead { bytes: 128 * KIB }, 0.04, 0.0),
            Region::new(
                Pattern::StreamWrite {
                    bytes: stream_bytes,
                    stride: 8,
                },
                0.0,
                write_stream_share,
            ),
        ],
        branch: BranchModel {
            taken_prob: 0.92,
            noise: 0.08,
        },
        code_bytes: 24 * KIB,
        dep_frac: 0.5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_cpu::InstrStream;

    #[test]
    fn all_specs_are_valid() {
        for b in Benchmark::all() {
            b.spec().assert_valid();
        }
    }

    #[test]
    fn fourteen_benchmarks_seven_each() {
        assert_eq!(Benchmark::all().len(), 14);
        assert_eq!(Benchmark::fp().len(), 7);
        assert_eq!(Benchmark::int().len(), 7);
        for b in Benchmark::fp() {
            assert_eq!(b.kind(), BenchKind::Fp);
        }
        for b in Benchmark::int() {
            assert_eq!(b.kind(), BenchKind::Int);
        }
    }

    #[test]
    fn names_are_unique_and_lowercase() {
        let mut names: Vec<_> = Benchmark::all().iter().map(|b| b.name()).collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(names.len(), len);
        for n in names {
            assert_eq!(n, n.to_lowercase());
        }
    }

    #[test]
    fn paper_classes_are_assigned() {
        let resistant: Vec<_> = Benchmark::all()
            .into_iter()
            .filter(|b| b.is_cleaning_resistant())
            .map(Benchmark::name)
            .collect();
        assert_eq!(resistant, ["applu", "swim", "mgrid", "equake", "mcf"]);
        let dirty: Vec<_> = Benchmark::all()
            .into_iter()
            .filter(|b| b.is_resident_dirty())
            .map(Benchmark::name)
            .collect();
        assert_eq!(dirty, ["apsi", "mesa", "gap", "parser"]);
    }

    #[test]
    fn fp_benchmarks_emit_fp_ops() {
        use aep_cpu::OpClass;
        let mut g = Benchmark::Swim.generator(1);
        let mut fp_ops = 0;
        for _ in 0..10_000 {
            if matches!(g.next_op().class, OpClass::FpAdd | OpClass::FpMul) {
                fp_ops += 1;
            }
        }
        assert!(fp_ops > 1000, "FP benchmark must issue FP ops: {fp_ops}");

        let mut g = Benchmark::Gzip.generator(1);
        for _ in 0..10_000 {
            assert!(!matches!(
                g.next_op().class,
                OpClass::FpAdd | OpClass::FpMul
            ));
        }
    }

    #[test]
    fn generators_are_reproducible_per_benchmark() {
        for b in [Benchmark::Applu, Benchmark::Mcf, Benchmark::Gap] {
            let mut a = b.generator(99);
            let mut c = b.generator(99);
            for _ in 0..1000 {
                assert_eq!(a.next_op(), c.next_op());
            }
        }
    }

    /// FNV-1a over every field of the first `n` ops of `b`'s generator at
    /// `seed`, in a fixed little-endian encoding.
    fn stream_digest(b: Benchmark, seed: u64, n: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let reg = |r: Option<u8>| r.map_or(0xff, |r| r);
        let mut g = b.generator(seed);
        for _ in 0..n {
            let op = g.next_op();
            eat(&op.pc.to_le_bytes());
            eat(&[
                op.class as u8,
                reg(op.src1),
                reg(op.src2),
                reg(op.dst),
                u8::from(op.taken),
                u8::from(op.addr.is_some()),
            ]);
            eat(&op.addr.map_or(0, |a| a.0).to_le_bytes());
            eat(&op.target.to_le_bytes());
        }
        h
    }

    /// The raw op stream of every calibrated generator is pinned: any
    /// change to a draw (its order, its threshold, its sampler) changes
    /// a digest here long before it shows in a figure.
    #[test]
    fn generator_streams_are_pinned() {
        const PINNED: [(Benchmark, u64); 14] = [
            (Benchmark::Applu, 0xbca9_fe23_6c5e_e788),
            (Benchmark::Swim, 0x17f5_63d6_ad80_a543),
            (Benchmark::Mgrid, 0x678f_c477_47c9_6d50),
            (Benchmark::Equake, 0x1043_0011_cc3d_3517),
            (Benchmark::Apsi, 0x4779_1675_1ee7_b295),
            (Benchmark::Mesa, 0xc865_0e0b_d4fb_ba83),
            (Benchmark::Art, 0x6488_a162_3b59_bf3f),
            (Benchmark::Mcf, 0xb3ff_a9d7_9fbc_cd6a),
            (Benchmark::Gap, 0xaca5_ce32_3e00_fa51),
            (Benchmark::Parser, 0xcbbd_b98b_07f3_02d8),
            (Benchmark::Gzip, 0x010d_2ceb_7922_329c),
            (Benchmark::Vpr, 0x87ca_517e_39e6_309b),
            (Benchmark::Gcc, 0x0dbc_2e80_c27d_eb86),
            (Benchmark::Bzip2, 0x62e5_afaa_ffc0_253a),
        ];
        let got: Vec<(Benchmark, u64)> = Benchmark::all()
            .into_iter()
            .map(|b| (b, stream_digest(b, 2006, 100_000)))
            .collect();
        assert_eq!(got, PINNED, "a generator's op stream changed");
    }

    #[test]
    fn display_prints_names() {
        assert_eq!(Benchmark::Applu.to_string(), "applu");
        assert_eq!(BenchKind::Fp.to_string(), "FP");
        assert_eq!(BenchKind::Int.to_string(), "INT");
    }
}
