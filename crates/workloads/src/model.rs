//! The workload-generator engine.
//!
//! A [`WorkloadSpec`] describes a benchmark's behaviour declaratively; a
//! [`Generator`] turns it into an infinite, deterministic micro-op stream
//! implementing [`aep_cpu::InstrStream`].
//!
//! # Address-space model
//!
//! Each benchmark owns a set of non-overlapping [`Region`]s:
//!
//! * [`Pattern::HotRandom`] — a small (L1-resident) hot set that serves the
//!   bulk of loads and stores: this is what gives realistic L1 hit rates.
//! * [`Pattern::StreamRead`] / [`Pattern::StreamWrite`] — sequential scans
//!   over footprints much larger than the L2; their lines live in the L2
//!   only briefly (the *streaming* benchmarks of the paper).
//! * [`Pattern::ResidentRead`] — random reads over an L2-resident region
//!   (clean lines that stay resident).
//! * [`Pattern::SweepWrite`] — a slow, cyclic rewrite of an L2-resident
//!   region: each pass re-dirties every line, then the line sits idle until
//!   the next pass. This is the paper's *generational* dirty behaviour and
//!   the prey of the cleaning logic; the pass period is set by how much
//!   store weight the region receives.

use aep_cpu::isa::{InstrStream, MicroOp, OpClass, NO_REG};
use aep_mem::Addr;
use aep_rng::{Bernoulli, SmallRng, Uniform};

/// Fractions of each op class in the dynamic instruction stream.
///
/// The fractions must sum to 1 (validated by [`InstrMix::assert_valid`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// Load fraction.
    pub load: f64,
    /// Store fraction.
    pub store: f64,
    /// Branch fraction.
    pub branch: f64,
    /// Integer ALU fraction.
    pub int_alu: f64,
    /// Integer multiply/divide fraction.
    pub int_mul: f64,
    /// FP add fraction.
    pub fp_add: f64,
    /// FP multiply/divide fraction.
    pub fp_mul: f64,
}

impl InstrMix {
    /// A generic integer mix (no FP ops).
    #[must_use]
    pub fn int_default() -> Self {
        InstrMix {
            load: 0.26,
            store: 0.11,
            branch: 0.14,
            int_alu: 0.45,
            int_mul: 0.04,
            fp_add: 0.0,
            fp_mul: 0.0,
        }
    }

    /// A generic floating-point mix.
    #[must_use]
    pub fn fp_default() -> Self {
        InstrMix {
            load: 0.30,
            store: 0.12,
            branch: 0.06,
            int_alu: 0.26,
            int_mul: 0.02,
            fp_add: 0.14,
            fp_mul: 0.10,
        }
    }

    /// Panics when the fractions do not sum to ~1 or any is negative.
    pub fn assert_valid(&self) {
        let parts = [
            self.load,
            self.store,
            self.branch,
            self.int_alu,
            self.int_mul,
            self.fp_add,
            self.fp_mul,
        ];
        assert!(
            parts.iter().all(|&p| p >= 0.0),
            "mix fractions must be non-negative"
        );
        let sum: f64 = parts.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "mix fractions must sum to 1, got {sum}"
        );
    }
}

/// Access pattern of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Uniform random over a small hot set (sized to fit in the L1D).
    HotRandom {
        /// Region size in bytes.
        bytes: u64,
    },
    /// Sequential read scan with the given stride, wrapping at the end.
    StreamRead {
        /// Region size in bytes (typically ≫ L2).
        bytes: u64,
        /// Bytes between consecutive accesses.
        stride: u64,
    },
    /// Sequential write scan with the given stride, wrapping at the end.
    StreamWrite {
        /// Region size in bytes (typically ≫ L2).
        bytes: u64,
        /// Bytes between consecutive accesses.
        stride: u64,
    },
    /// Uniform random reads over an L2-resident region.
    ResidentRead {
        /// Region size in bytes (≤ L2).
        bytes: u64,
    },
    /// Slow cyclic rewrite of an L2-resident region, one 64-byte line per
    /// store directed here; models generational dirty data.
    SweepWrite {
        /// Region size in bytes (≤ L2; this bounds the dirty footprint).
        bytes: u64,
    },
    /// Pointer chasing: each load's address is a deterministic function of
    /// the previous node, and the generator threads a true register
    /// dependence through consecutive chase loads, so they serialise in
    /// the pipeline (the `mcf` idiom).
    PointerChase {
        /// Region size in bytes the chain wanders over.
        bytes: u64,
    },
}

impl Pattern {
    fn bytes(self) -> u64 {
        match self {
            Pattern::HotRandom { bytes }
            | Pattern::StreamRead { bytes, .. }
            | Pattern::StreamWrite { bytes, .. }
            | Pattern::ResidentRead { bytes }
            | Pattern::SweepWrite { bytes }
            | Pattern::PointerChase { bytes } => bytes,
        }
    }
}

/// One region of the benchmark's address space with its traffic shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// The access pattern.
    pub pattern: Pattern,
    /// Share of *loads* directed at this region (normalised over regions).
    pub read_weight: f64,
    /// Share of *stores* directed at this region (normalised over regions).
    pub write_weight: f64,
}

impl Region {
    /// A convenience constructor.
    #[must_use]
    pub fn new(pattern: Pattern, read_weight: f64, write_weight: f64) -> Self {
        Region {
            pattern,
            read_weight,
            write_weight,
        }
    }
}

/// Branch-behaviour parameters.
///
/// Non-noisy branches follow a loop pattern: taken `trip - 1` times, then
/// not taken once (a classic counted loop), which a 2-level predictor
/// learns almost perfectly. The `noise` fraction of branches is
/// data-dependent (random direction) and accounts for essentially all
/// mispredictions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BranchModel {
    /// Probability a (non-noisy) branch is taken (loop back-edge rate);
    /// the loop trip count is derived as `1 / (1 - taken_prob)`.
    pub taken_prob: f64,
    /// Fraction of branches whose direction is random (data-dependent,
    /// hard to predict).
    pub noise: f64,
}

impl BranchModel {
    /// The counted-loop trip count implied by `taken_prob`.
    #[must_use]
    pub fn trip_count(&self) -> u32 {
        let t = 1.0 / (1.0 - self.taken_prob.clamp(0.0, 0.99));
        (t.round() as u32).max(2)
    }
}

/// A complete declarative benchmark description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (for reports).
    pub name: &'static str,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Address-space regions.
    pub regions: Vec<Region>,
    /// Branch behaviour.
    pub branch: BranchModel,
    /// Static code footprint in bytes (drives the L1I behaviour).
    pub code_bytes: u64,
    /// Fraction of consumers reading the previous op's result (dependence
    /// chain density; higher = lower ILP).
    pub dep_frac: f64,
}

impl WorkloadSpec {
    /// Validates mix, weights, and geometry.
    ///
    /// # Panics
    ///
    /// Panics on an invalid spec (specs are compiled-in constants; a bad
    /// one is a programming error).
    pub fn assert_valid(&self) {
        self.mix.assert_valid();
        assert!(!self.regions.is_empty(), "at least one region required");
        // The region pick needs a monotone CDF (see `region_cuts`).
        assert!(
            self.regions.iter().all(|r| r.read_weight >= 0.0
                && r.write_weight >= 0.0
                && r.read_weight.is_finite()
                && r.write_weight.is_finite()),
            "region weights must be finite and non-negative"
        );
        let rw: f64 = self.regions.iter().map(|r| r.read_weight).sum();
        let ww: f64 = self.regions.iter().map(|r| r.write_weight).sum();
        assert!(rw > 0.0, "some region must accept reads");
        assert!(ww > 0.0, "some region must accept writes");
        assert!(self.code_bytes >= 64, "code footprint too small");
        assert!((0.0..=1.0).contains(&self.dep_frac));
        assert!((0.0..=1.0).contains(&self.branch.taken_prob));
        assert!((0.0..=1.0).contains(&self.branch.noise));
        for r in &self.regions {
            assert!(r.pattern.bytes() >= 64, "region smaller than a line");
            if let Pattern::StreamRead { bytes, stride } | Pattern::StreamWrite { bytes, stride } =
                r.pattern
            {
                assert!(stride <= bytes, "stream stride longer than its region");
            }
        }
    }
}

/// `x % bytes` for `x < 2 * bytes`: a region cursor (always below
/// `bytes`) advanced by at most `bytes`.
#[inline]
fn wrap_below(x: u64, bytes: u64) -> u64 {
    debug_assert!(x < 2 * bytes);
    if x >= bytes {
        x - bytes
    } else {
        x
    }
}

#[derive(Debug, Clone)]
struct RegionState {
    region: Region,
    /// `region.pattern.bytes()`, read on every address.
    bytes: u64,
    base: u64,
    cursor: u64,
    echo: bool,
    /// Cached word-index sampler for the random patterns (a `gen_range`
    /// with a precomputed rejection zone; bit-identical draws).
    word_sampler: Option<Uniform>,
}

impl RegionState {
    #[inline(always)]
    fn next_addr(&mut self, rng: &mut SmallRng) -> Addr {
        let bytes = self.bytes;
        match self.region.pattern {
            Pattern::HotRandom { .. } | Pattern::ResidentRead { .. } => {
                // 8-byte-aligned uniform random.
                let word = self.word_sampler.expect("random pattern").sample(rng);
                Addr::new(self.base + word * 8)
            }
            Pattern::StreamRead { stride, .. } | Pattern::StreamWrite { stride, .. } => {
                let a = self.base + self.cursor;
                self.cursor = wrap_below(self.cursor + stride, bytes);
                Addr::new(a)
            }
            Pattern::PointerChase { .. } => {
                // Follow the "pointer": node n+1 is a hash of a step
                // counter, giving a non-repeating random walk over the
                // whole region (an iterated hash of the *node* would fall
                // into a ~sqrt(N)-length cycle and shrink the footprint).
                // The serialising register dependence between consecutive
                // chase loads is threaded by the generator.
                let lines = bytes / 64;
                self.cursor = self.cursor.wrapping_add(1);
                let node = crate::model::chase_mix(self.cursor) % lines;
                Addr::new(self.base + node * 64)
            }
            Pattern::SweepWrite { .. } => {
                // Generational writes: stores alternate between dirtying a
                // *new* line at the sweep cursor and an *echo* write to a
                // line 1/32 of the region behind. The echo arrives well
                // after the first write's buffer retirement, so it sets
                // the line's written bit — recently written generations
                // resist long-interval cleaning, exactly the behaviour
                // the paper's written bit is designed around.
                self.echo = !self.echo;
                if self.echo {
                    let lag = (bytes / 32).max(64) & !63;
                    let pos = wrap_below(self.cursor + bytes - lag, bytes);
                    Addr::new(self.base + pos)
                } else {
                    let a = self.base + self.cursor;
                    self.cursor = wrap_below(self.cursor + 64, bytes);
                    Addr::new(a)
                }
            }
        }
    }
}

/// `2^53`: a `gen::<f64>()` draw is `k · 2^-53` for the 53-bit integer
/// `k = next_u64() >> 11`, so every comparison of it with a probability
/// cut is an exact comparison of `k` with an integer threshold.
const UNIT: f64 = (1u64 << 53) as f64;

/// The integer threshold of `x < cut`: for `x = k · 2^-53`, `x < cut`
/// holds exactly when `k < ceil(cut · 2^53)` (scaling by a power of two
/// is exact).
fn below(cut: f64) -> u64 {
    (cut * UNIT).ceil() as u64
}

/// The integer thresholds of a region CDF: `k >= cuts[i]` holds exactly
/// when `x > cdf[i]` (`x <= c` is `k <= floor(c · 2^53)`). On a monotone
/// CDF the first region with `x <= cdf[i]` is the count of cuts `k`
/// reaches, which is how [`Generator::pick_region`] picks without a
/// branch.
fn region_cuts(cdf: &[f64]) -> Vec<u64> {
    cdf.iter().map(|&c| (c * UNIT).floor() as u64 + 1).collect()
}

/// The deterministic micro-op generator for one benchmark.
///
/// The pipeline draws its op ring through [`InstrStream::fill`], which
/// runs the per-op model straight into the ring: the draw loop keeps the
/// generator's state in registers, and each op is written once. The
/// stream is the same op sequence whether drawn by `fill` or `next_op`.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SmallRng,
    /// [`region_cuts`] of the normalised load weights.
    read_cuts: Vec<u64>,
    /// [`region_cuts`] of the normalised store weights.
    write_cuts: Vec<u64>,
    regions: Vec<RegionState>,
    /// [`below`] thresholds of the cumulative mix: load, store, branch,
    /// int ALU, int multiply, FP add (the rest is FP multiply).
    class_cuts: [u64; 6],
    code_bytes: u64,
    pc: u64,
    code_base: u64,
    /// The branch target of each 64-byte code block's branch site
    /// ([`branch_target`] of the site, computed once).
    branch_targets: Vec<u64>,
    last_dst: u8,
    /// The previous op's destination ([`NO_REG`] before the first).
    prev_dst: u8,
    ops_emitted: u64,
    loop_iter: u32,
    loop_trip: u32,
    /// The previous pointer-chase load's destination ([`NO_REG`] before
    /// the first).
    last_chase_dst: u8,
    reg_sampler: Uniform,
    dep_sampler: Bernoulli,
    noise_sampler: Bernoulli,
    half_sampler: Bernoulli,
}

/// Mixer used by [`Pattern::PointerChase`] to pick the next node.
pub(crate) fn chase_mix(x: u64) -> u64 {
    let mut v = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    v = (v ^ (v >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    v ^ (v >> 31)
}

/// The (stable, per-site) branch target of the branch at `site`: a
/// 64-byte-aligned location hashed across the `code_bytes` footprint at
/// `code_base`, so the BTB can learn it while execution covers the whole
/// footprint (exercising the L1I).
fn branch_target(code_base: u64, code_bytes: u64, site: u64) -> u64 {
    let blocks = (code_bytes / 64).max(1);
    code_base + ((site >> 3).wrapping_mul(0x9E37_79B1) % blocks) * 64
}

/// Base address of the code segment (disjoint from all data regions).
const CODE_BASE: u64 = 0x0040_0000;
/// Base address of the first data region; regions are spaced 256 MiB apart.
const DATA_BASE: u64 = 0x1000_0000;
const REGION_SPACING: u64 = 0x1000_0000;

impl Generator {
    /// Builds the generator for `spec`, seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    #[must_use]
    pub fn new(spec: &WorkloadSpec, seed: u64) -> Self {
        spec.assert_valid();
        let mut regions = Vec::with_capacity(spec.regions.len());
        for (i, &region) in spec.regions.iter().enumerate() {
            let word_sampler = match region.pattern {
                Pattern::HotRandom { bytes } | Pattern::ResidentRead { bytes } => {
                    Some(Uniform::new(0..bytes / 8))
                }
                _ => None,
            };
            regions.push(RegionState {
                region,
                bytes: region.pattern.bytes(),
                base: DATA_BASE + i as u64 * REGION_SPACING,
                cursor: 0,
                // Starts true so the first sweep store is a fresh line
                // (the flag flips before use).
                echo: true,
                word_sampler,
            });
        }
        let normalise = |weights: Vec<f64>| -> Vec<f64> {
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        };
        let read_cdf = normalise(regions.iter().map(|r| r.region.read_weight).collect());
        let write_cdf = normalise(regions.iter().map(|r| r.region.write_weight).collect());
        // The running sums the per-op class test accumulated, in its order.
        let m = spec.mix;
        let mut cut = 0.0;
        let class_cuts = [m.load, m.store, m.branch, m.int_alu, m.int_mul, m.fp_add].map(|p| {
            cut += p;
            below(cut)
        });
        // One branch site per 64-byte code block (see `draw`).
        let branch_targets = (0..spec.code_bytes.div_ceil(64))
            .map(|block| branch_target(CODE_BASE, spec.code_bytes, CODE_BASE + block * 64 + 56))
            .collect();
        Generator {
            rng: SmallRng::seed_from_u64(seed ^ 0xAE9_5EED),
            read_cuts: region_cuts(&read_cdf),
            write_cuts: region_cuts(&write_cdf),
            regions,
            class_cuts,
            code_bytes: spec.code_bytes,
            pc: CODE_BASE,
            code_base: CODE_BASE,
            branch_targets,
            last_dst: 1,
            prev_dst: NO_REG,
            ops_emitted: 0,
            loop_iter: 0,
            loop_trip: spec.branch.trip_count(),
            last_chase_dst: NO_REG,
            reg_sampler: Uniform::new(1..32),
            dep_sampler: Bernoulli::new(spec.dep_frac),
            noise_sampler: Bernoulli::new(spec.branch.noise),
            half_sampler: Bernoulli::new(0.5),
        }
    }

    /// Total ops handed out so far.
    #[must_use]
    pub fn ops_emitted(&self) -> u64 {
        self.ops_emitted
    }

    /// The region of the next load or store: the first whose cumulative
    /// weight reaches the draw (the last one when rounding leaves the CDF
    /// short of 1).
    fn pick_region(&self, rng: &mut SmallRng, write: bool) -> usize {
        let cuts = if write {
            &self.write_cuts
        } else {
            &self.read_cuts
        };
        let k = rng.next_u64() >> 11;
        // Most draws land in the first region (the calibrated specs put
        // their hot set first).
        if k < cuts[0] {
            return 0;
        }
        let passed: usize = cuts.iter().map(|&c| usize::from(k >= c)).sum();
        passed.min(cuts.len() - 1)
    }

    fn next_dst(&mut self) -> u8 {
        // Rotate through r1..=r31 (r0 reserved as always-ready).
        self.last_dst = if self.last_dst >= 31 {
            1
        } else {
            self.last_dst + 1
        };
        self.last_dst
    }

    fn pick_src(&self, rng: &mut SmallRng) -> u8 {
        if self.prev_dst != NO_REG && self.dep_sampler.sample(rng) {
            return self.prev_dst;
        }
        // An older, almost-certainly-ready register.
        self.reg_sampler.sample(rng) as u8
    }

    fn advance_pc(&mut self) -> u64 {
        let pc = self.pc;
        self.pc += 8;
        if self.pc >= self.code_base + self.code_bytes {
            self.pc = self.code_base;
        }
        pc
    }

    /// Draws one op: the whole per-op model. The RNG is passed apart from
    /// `self` so a caller drawing many ops can keep its state in
    /// registers.
    #[inline(always)]
    fn draw(&mut self, rng: &mut SmallRng) -> MicroOp {
        // The class draw, compared as an integer (see `below`).
        let k = rng.next_u64() >> 11;
        let [load, store, branch, int_alu, int_mul, fp_add] = self.class_cuts;
        let pc = self.advance_pc();

        let op = if k < load {
            let idx = self.pick_region(rng, false);
            let is_chase = matches!(
                self.regions[idx].region.pattern,
                Pattern::PointerChase { .. }
            );
            let addr = self.regions[idx].next_addr(rng);
            let dst = self.next_dst();
            let mut op = MicroOp::load(pc, addr, dst);
            if is_chase {
                // Thread the chain: this load's address "came from" the
                // previous chase load's result.
                op.src1 = self.last_chase_dst;
                self.last_chase_dst = dst;
            }
            op
        } else if k < store {
            let idx = self.pick_region(rng, true);
            let addr = self.regions[idx].next_addr(rng);
            let src = self.pick_src(rng);
            MicroOp::store(pc, addr, src)
        } else if k < branch {
            // Loop-control branch: a counted loop's back edge (taken
            // trip-1 times, then falls through), plus a noisy
            // data-dependent minority that resists prediction.
            let noisy = self.noise_sampler.sample(rng);
            let taken = if noisy {
                self.half_sampler.sample(rng)
            } else {
                self.loop_iter += 1;
                if self.loop_iter >= self.loop_trip {
                    self.loop_iter = 0;
                    false
                } else {
                    true
                }
            };
            // Branches live at fixed sites (one per 64-byte code block),
            // as in real code: this keeps the static-branch population
            // within BTB reach instead of spraying targets over every
            // possible PC.
            let site = (pc & !63) | 56;
            let target = self.branch_targets[((pc - self.code_base) >> 6) as usize];
            if taken {
                self.pc = target;
            }
            MicroOp::branch(site, taken, target)
        } else {
            let class = if k < int_alu {
                OpClass::IntAlu
            } else if k < int_mul {
                OpClass::IntMul
            } else if k < fp_add {
                OpClass::FpAdd
            } else {
                OpClass::FpMul
            };
            let src1 = self.pick_src(rng);
            let src2 = self.reg_sampler.sample(rng) as u8;
            let dst = self.next_dst();
            MicroOp::with_class(class, pc, src1, src2, dst)
        };
        if op.dst != NO_REG {
            self.prev_dst = op.dst;
        }
        op.debug_validate();
        op
    }
}

impl InstrStream for Generator {
    fn next_op(&mut self) -> MicroOp {
        let mut op = MicroOp::alu(0, NO_REG, NO_REG, NO_REG);
        self.fill(std::slice::from_mut(&mut op));
        op
    }

    fn fill(&mut self, ops: &mut [MicroOp]) {
        let mut rng = self.rng.clone();
        for op in ops.iter_mut() {
            *op = self.draw(&mut rng);
        }
        self.rng = rng;
        self.ops_emitted += ops.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            mix: InstrMix::int_default(),
            regions: vec![
                Region::new(Pattern::HotRandom { bytes: 8 * 1024 }, 0.9, 0.9),
                Region::new(Pattern::SweepWrite { bytes: 256 * 1024 }, 0.0, 0.1),
                Region::new(
                    Pattern::StreamRead {
                        bytes: 64 * 1024 * 1024,
                        stride: 8,
                    },
                    0.1,
                    0.0,
                ),
            ],
            branch: BranchModel {
                taken_prob: 0.8,
                noise: 0.1,
            },
            code_bytes: 8 * 1024,
            dep_frac: 0.4,
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let s = spec();
        let mut a = Generator::new(&s, 7);
        let mut b = Generator::new(&s, 7);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn fill_draws_the_next_op_stream() {
        // The pipeline draws batches through `fill`; tests and one-op
        // consumers call `next_op`. Both must be the same stream.
        let s = spec();
        let mut one = Generator::new(&s, 8);
        let mut batched = Generator::new(&s, 8);
        let mut batch = [MicroOp::alu(0, NO_REG, NO_REG, NO_REG); 61];
        for _ in 0..200 {
            batched.fill(&mut batch);
            for op in batch {
                assert_eq!(op, one.next_op());
            }
        }
        assert_eq!(one.ops_emitted(), batched.ops_emitted());
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec();
        let mut a = Generator::new(&s, 1);
        let mut b = Generator::new(&s, 2);
        let same = (0..1000).filter(|_| a.next_op() == b.next_op()).count();
        assert!(same < 1000);
    }

    #[test]
    fn mix_fractions_are_respected() {
        let s = spec();
        let mut g = Generator::new(&s, 3);
        let n = 200_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match g.next_op().class {
                OpClass::Load => loads += 1,
                OpClass::Store => stores += 1,
                OpClass::Branch => branches += 1,
                _ => {}
            }
        }
        let f = |c: i32| f64::from(c) / f64::from(n);
        assert!(
            (f(loads) - s.mix.load).abs() < 0.01,
            "load frac {}",
            f(loads)
        );
        assert!((f(stores) - s.mix.store).abs() < 0.01);
        assert!((f(branches) - s.mix.branch).abs() < 0.01);
    }

    #[test]
    fn sweep_write_cycles_through_its_region() {
        let s = spec();
        let mut g = Generator::new(&s, 4);
        // Collect sweep-region store addresses; they must be line-granular
        // and cycle.
        let sweep_base = DATA_BASE + REGION_SPACING;
        let mut sweep_addrs = Vec::new();
        for _ in 0..4_000_000 {
            let op = g.next_op();
            if op.class == OpClass::Store {
                let a = op.addr().unwrap().0;
                if (sweep_base..sweep_base + REGION_SPACING).contains(&a) {
                    sweep_addrs.push(a - sweep_base);
                }
            }
            if sweep_addrs.len() >= 9000 {
                break;
            }
        }
        assert!(sweep_addrs.len() > 4096, "sweep must receive stores");
        // Stores alternate: a fresh line at the cursor, then an echo write
        // one-32nd of the region behind it.
        let bytes = 256 * 1024u64;
        let lag = bytes / 32;
        for pair in sweep_addrs.chunks_exact(2) {
            let (fresh, echo) = (pair[0], pair[1]);
            assert_eq!(fresh % 64, 0);
            // Echo trails the *advanced* cursor (fresh + 64) by `lag`.
            assert_eq!(
                echo,
                (fresh + 64 + bytes - lag) % bytes,
                "echo lags the cursor"
            );
        }
        // Fresh writes advance line by line and wrap the region.
        let fresh: Vec<u64> = sweep_addrs.iter().step_by(2).copied().collect();
        for w in fresh.windows(2) {
            assert_eq!((w[1] + bytes - w[0]) % bytes, 64);
        }
        assert!(fresh.contains(&0));
        assert!(fresh.iter().any(|&a| a == bytes - 64));
    }

    #[test]
    fn pcs_stay_within_the_code_footprint() {
        let s = spec();
        let mut g = Generator::new(&s, 5);
        for _ in 0..50_000 {
            let op = g.next_op();
            assert!(op.pc >= CODE_BASE);
            assert!(op.pc < CODE_BASE + s.code_bytes);
        }
    }

    #[test]
    fn hot_region_dominates_traffic() {
        let s = spec();
        let mut g = Generator::new(&s, 6);
        let mut hot = 0u32;
        let mut total = 0u32;
        for _ in 0..100_000 {
            let op = g.next_op();
            if let Some(a) = op.addr() {
                total += 1;
                if (DATA_BASE..DATA_BASE + 8 * 1024).contains(&a.0) {
                    hot += 1;
                }
            }
        }
        let frac = f64::from(hot) / f64::from(total);
        assert!(frac > 0.8, "hot region should take ~90% of traffic: {frac}");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_mix_panics() {
        let mut s = spec();
        s.mix.load = 0.9;
        let _ = Generator::new(&s, 0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_region_weight_panics() {
        // A negative weight makes the CDF non-monotone, where the
        // branch-free region pick would disagree with a first-match scan.
        let mut s = spec();
        s.regions[0].write_weight = 1.2;
        s.regions[1].write_weight = -0.2;
        let _ = Generator::new(&s, 0);
    }

    #[test]
    fn regions_do_not_overlap() {
        let s = spec();
        let g = Generator::new(&s, 0);
        for w in g.regions.windows(2) {
            assert!(w[0].base + w[0].region.pattern.bytes() <= w[1].base);
        }
    }
}

#[cfg(test)]
mod chase_tests {
    use super::*;
    use aep_cpu::isa::OpClass;

    fn chase_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "chase",
            mix: InstrMix::int_default(),
            regions: vec![
                Region::new(Pattern::HotRandom { bytes: 8 * 1024 }, 0.5, 1.0),
                Region::new(Pattern::PointerChase { bytes: 1024 * 1024 }, 0.5, 0.0),
            ],
            branch: BranchModel {
                taken_prob: 0.9,
                noise: 0.05,
            },
            code_bytes: 4 * 1024,
            dep_frac: 0.3,
        }
    }

    #[test]
    fn chase_loads_form_a_register_dependence_chain() {
        let mut g = Generator::new(&chase_spec(), 3);
        let chase_base = DATA_BASE + REGION_SPACING;
        let mut prev_dst = NO_REG;
        let mut chained = 0;
        let mut seen = 0;
        for _ in 0..100_000 {
            let op = g.next_op();
            if op.class != OpClass::Load {
                continue;
            }
            let addr = op.addr().unwrap().0;
            if !(chase_base..chase_base + REGION_SPACING).contains(&addr) {
                continue;
            }
            seen += 1;
            if prev_dst != NO_REG && op.src1 == prev_dst {
                chained += 1;
            }
            prev_dst = op.dst;
            if seen > 500 {
                break;
            }
        }
        assert!(seen > 400, "chase region must receive loads");
        // Every chase load after the first chains on its predecessor.
        assert!(chained >= seen - 1, "{chained} of {seen} chained");
    }

    #[test]
    fn chase_addresses_are_line_aligned_and_in_region() {
        let mut g = Generator::new(&chase_spec(), 4);
        let chase_base = DATA_BASE + REGION_SPACING;
        let mut count = 0;
        for _ in 0..50_000 {
            let op = g.next_op();
            if op.class == OpClass::Load {
                let a = op.addr().unwrap().0;
                if (chase_base..chase_base + REGION_SPACING).contains(&a) {
                    assert_eq!((a - chase_base) % 64, 0, "node-aligned");
                    assert!(a - chase_base < 1024 * 1024);
                    count += 1;
                }
            }
        }
        assert!(count > 100);
    }

    #[test]
    fn chase_walk_is_deterministic() {
        let walk = |seed| -> Vec<u64> {
            let mut g = Generator::new(&chase_spec(), seed);
            let chase_base = DATA_BASE + REGION_SPACING;
            let mut out = Vec::new();
            for _ in 0..20_000 {
                let op = g.next_op();
                if op.class == OpClass::Load {
                    let a = op.addr().unwrap().0;
                    if a >= chase_base {
                        out.push(a);
                    }
                }
            }
            out
        };
        assert_eq!(walk(5), walk(5));
    }
}
