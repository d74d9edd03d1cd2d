//! Parameterized Zipf-skew workload generator.
//!
//! Modeled on key-value workload generators (atomix-style knobs):
//! `num_keys` keys are accessed with Zipf(`exponent`) popularity, and
//! `max_concurrency` logical contexts issue operations round-robin, each
//! threading its own register dependences — the concurrency knob sets
//! how much independent work the out-of-order core can overlap.
//!
//! Keys map to distinct cache lines, and the mix is store-heavy: the
//! head of the distribution accumulates long runs of rewrites while it
//! is resident, which is exactly the generational-write behaviour the
//! paper's written bit targets (and a regime none of the calibrated
//! SPEC-alike models produce — they rewrite uniformly over a hot set).
//!
//! Sampling uses rejection inversion (Hörmann & Derflinger), so a draw
//! is O(1) for any `num_keys` and the stream is bit-deterministic from
//! its seed.

use aep_cpu::isa::{InstrStream, MicroOp, NO_REG};
use aep_mem::Addr;
use aep_rng::SmallRng;

/// Base address of the key space (one 64-byte line per key).
const ZIPF_BASE: u64 = 0x1000_0000;
/// Code-region bytes the synthetic PCs cycle over.
const ZIPF_CODE_BYTES: u64 = 512;
/// Base address of the synthetic code region.
const ZIPF_CODE_BASE: u64 = 0x0040_0000;
/// Fraction of operations that are stores (store-heavy by design).
const STORE_PROB: f64 = 0.5;
/// Fraction of operations that are loads.
const LOAD_PROB: f64 = 0.3;

/// Knobs of the Zipf generator. The exponent is stored in milli-units
/// (`1200` = 1.2) so specs hash and compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZipfSpec {
    /// Number of distinct keys (each its own cache line).
    pub num_keys: u64,
    /// Zipf exponent × 1000 (0 = uniform).
    pub exponent_milli: u32,
    /// Logical contexts issuing operations round-robin (≥ 1).
    pub max_concurrency: u32,
}

impl ZipfSpec {
    /// The canonical slug, e.g. `zipf:k1024:e1200:c4`.
    #[must_use]
    pub fn slug(&self) -> String {
        format!(
            "zipf:k{}:e{}:c{}",
            self.num_keys, self.exponent_milli, self.max_concurrency
        )
    }

    /// Parses `zipf:k<num_keys>:e<exponent_milli>:c<max_concurrency>`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        let rest = s.strip_prefix("zipf:")?;
        let mut parts = rest.split(':');
        let num_keys: u64 = parts.next()?.strip_prefix('k')?.parse().ok()?;
        let exponent_milli: u32 = parts.next()?.strip_prefix('e')?.parse().ok()?;
        let max_concurrency: u32 = parts.next()?.strip_prefix('c')?.parse().ok()?;
        if parts.next().is_some() || num_keys == 0 || max_concurrency == 0 {
            return None;
        }
        Some(ZipfSpec {
            num_keys,
            exponent_milli,
            max_concurrency,
        })
    }

    /// The exponent as a float.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        f64::from(self.exponent_milli) / 1000.0
    }

    /// Builds the deterministic stream for this spec and seed.
    #[must_use]
    pub fn stream(&self, seed: u64) -> ZipfStream {
        ZipfStream::new(*self, seed)
    }
}

/// Rejection-inversion sampler for Zipf on `{1..=n}` with exponent `s`.
#[derive(Debug, Clone)]
struct ZipfSampler {
    n: u64,
    s: f64,
    /// `h_integral(n + 1/2)`.
    h_x1: f64,
    /// `h_integral(1/2) - h(1)` (left tail bound).
    h_x0: f64,
    /// Acceptance shortcut threshold.
    cut: f64,
}

impl ZipfSampler {
    fn new(n: u64, s: f64) -> Self {
        let h_integral = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.ln()
            } else {
                (x.powf(1.0 - s) - 1.0) / (1.0 - s)
            }
        };
        let h = |x: f64| x.powf(-s);
        let h_x1 = h_integral(n as f64 + 0.5);
        let h_x0 = h_integral(0.5) - h(1.0);
        let h_integral_inv = |x: f64| -> f64 {
            if (s - 1.0).abs() < 1e-12 {
                x.exp()
            } else {
                (1.0 + x * (1.0 - s)).powf(1.0 / (1.0 - s))
            }
        };
        let cut = 1.0 - h_integral_inv(h_integral(1.5) - h(1.0));
        ZipfSampler {
            n,
            s,
            h_x1,
            h_x0,
            cut,
        }
    }

    fn h_integral(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.ln()
        } else {
            (x.powf(1.0 - self.s) - 1.0) / (1.0 - self.s)
        }
    }

    fn h_integral_inv(&self, x: f64) -> f64 {
        if (self.s - 1.0).abs() < 1e-12 {
            x.exp()
        } else {
            (1.0 + x * (1.0 - self.s)).powf(1.0 / (1.0 - self.s))
        }
    }

    /// Draws a key in `1..=n` (rank 1 = most popular).
    fn sample(&self, rng: &mut SmallRng) -> u64 {
        if self.s < 1e-9 {
            return rng.gen_range(0..self.n) + 1;
        }
        loop {
            let u = self.h_x1 + rng.gen::<f64>() * (self.h_x0 - self.h_x1);
            let x = self.h_integral_inv(u);
            let k = x.round().clamp(1.0, self.n as f64);
            if k - x <= self.cut || u >= self.h_integral(k + 0.5) - k.powf(-self.s) {
                return k as u64;
            }
        }
    }
}

/// Per-context issue state: its current key and dependence register.
#[derive(Debug, Clone, Copy)]
struct Context {
    /// Destination register of this context's last producing op.
    last_dst: u8,
}

/// First register of a context's disjoint 7-register window (r1..=r56;
/// contexts beyond eight share windows, which only costs them ILP).
fn ctx_reg_base(ctx: usize) -> u8 {
    1 + ((ctx % 8) as u8) * 7
}

/// The deterministic Zipf instruction stream.
#[derive(Debug, Clone)]
pub struct ZipfStream {
    spec: ZipfSpec,
    rng: SmallRng,
    sampler: ZipfSampler,
    contexts: Vec<Context>,
    next_ctx: usize,
    pc: u64,
    ops: u64,
}

impl ZipfStream {
    /// Builds the stream, seeded so equal (spec, seed) pairs are
    /// bit-identical.
    #[must_use]
    pub fn new(spec: ZipfSpec, seed: u64) -> Self {
        let conc = spec.max_concurrency.max(1) as usize;
        // Each context owns a disjoint register window so cross-context
        // dependences never serialize the pipeline.
        let contexts = (0..conc)
            .map(|c| Context {
                last_dst: ctx_reg_base(c),
            })
            .collect();
        ZipfStream {
            spec,
            rng: SmallRng::seed_from_u64(seed ^ 0x21F5_EED0),
            sampler: ZipfSampler::new(spec.num_keys, spec.exponent()),
            contexts,
            next_ctx: 0,
            pc: ZIPF_CODE_BASE,
            ops: 0,
        }
    }

    /// The spec this stream was built from.
    #[must_use]
    pub fn spec(&self) -> ZipfSpec {
        self.spec
    }

    /// Draws a key rank (1 = hottest); public so shape tests can probe
    /// the sampler directly.
    #[must_use]
    pub fn sample_key(&mut self) -> u64 {
        self.sampler.sample(&mut self.rng)
    }

    fn advance_pc(&mut self) -> u64 {
        let pc = self.pc;
        self.pc += 4;
        if self.pc >= ZIPF_CODE_BASE + ZIPF_CODE_BYTES {
            self.pc = ZIPF_CODE_BASE;
        }
        pc
    }

    fn key_addr(&mut self) -> Addr {
        let key = self.sampler.sample(&mut self.rng);
        // Rank → line; rotate the word within the line so rewrites touch
        // the whole line over time.
        let word = self.ops % 8;
        Addr(ZIPF_BASE + (key - 1) * 64 + word * 8)
    }
}

impl InstrStream for ZipfStream {
    fn next_op(&mut self) -> MicroOp {
        self.ops += 1;
        let pc = self.advance_pc();
        let ctx_idx = self.next_ctx;
        self.next_ctx = (self.next_ctx + 1) % self.contexts.len();
        let x: f64 = self.rng.gen();
        let op = if x < STORE_PROB {
            let addr = self.key_addr();
            let src = self.contexts[ctx_idx].last_dst;
            MicroOp::store(pc, addr, src)
        } else if x < STORE_PROB + LOAD_PROB {
            let addr = self.key_addr();
            // Context-local rotation within a disjoint window keeps the
            // dependence chain inside one context.
            let dst = ctx_reg_base(ctx_idx) + (self.ops % 7) as u8;
            self.contexts[ctx_idx].last_dst = dst;
            MicroOp::load(pc, addr, dst)
        } else {
            let src = self.contexts[ctx_idx].last_dst;
            let dst = self.contexts[ctx_idx].last_dst;
            MicroOp::alu(pc, src, NO_REG, dst)
        };
        op.debug_validate();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_cpu::isa::OpClass;

    fn spec() -> ZipfSpec {
        ZipfSpec {
            num_keys: 1024,
            exponent_milli: 1200,
            max_concurrency: 4,
        }
    }

    #[test]
    fn slug_round_trips() {
        let s = spec();
        assert_eq!(s.slug(), "zipf:k1024:e1200:c4");
        assert_eq!(ZipfSpec::parse(&s.slug()), Some(s));
        assert_eq!(ZipfSpec::parse("zipf:k0:e1:c1"), None);
        assert_eq!(ZipfSpec::parse("zipf:k1:e1:c0"), None);
        assert_eq!(ZipfSpec::parse("zipf:k1:e1"), None);
        assert_eq!(ZipfSpec::parse("zipf:k1:e1:c1:x"), None);
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = ZipfStream::new(spec(), 9);
        let mut b = ZipfStream::new(spec(), 9);
        for _ in 0..10_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn addresses_stay_in_the_key_space() {
        let mut s = ZipfStream::new(spec(), 2);
        for _ in 0..10_000 {
            let op = s.next_op();
            if let Some(a) = op.addr() {
                assert!(a.0 >= ZIPF_BASE);
                assert!(a.0 < ZIPF_BASE + spec().num_keys * 64);
            }
        }
    }

    /// Empirical shape check: with exponent `s`, the count ratio between
    /// rank `a` and rank `b` approaches `(b/a)^s`. Estimate `s` from
    /// head-rank ratios and require it within tolerance.
    #[test]
    fn empirical_exponent_matches_spec() {
        for (milli, seed) in [(800u32, 5u64), (1200, 6), (1500, 7)] {
            let sp = ZipfSpec {
                num_keys: 512,
                exponent_milli: milli,
                max_concurrency: 1,
            };
            let mut stream = ZipfStream::new(sp, seed);
            let n = 400_000;
            let mut counts = vec![0u64; sp.num_keys as usize + 1];
            for _ in 0..n {
                counts[stream.sample_key() as usize] += 1;
            }
            // Pool ranks 1-2 vs 4-8 for variance reduction; the expected
            // pooled ratio is computed from the exact Zipf masses.
            let s = sp.exponent();
            let mass =
                |r: std::ops::RangeInclusive<u64>| -> f64 { r.map(|k| (k as f64).powf(-s)).sum() };
            let expected = mass(1..=2) / mass(4..=8);
            let observed = (counts[1] + counts[2]) as f64
                / (counts[4] + counts[5] + counts[6] + counts[7] + counts[8]) as f64;
            let rel = (observed - expected).abs() / expected;
            assert!(
                rel < 0.08,
                "exponent {milli}: head ratio off by {rel:.3} (obs {observed:.3}, exp {expected:.3})"
            );
        }
    }

    #[test]
    fn uniform_when_exponent_is_zero() {
        let sp = ZipfSpec {
            num_keys: 64,
            exponent_milli: 0,
            max_concurrency: 1,
        };
        let mut stream = ZipfStream::new(sp, 3);
        let mut counts = vec![0u64; 65];
        for _ in 0..64_000 {
            counts[stream.sample_key() as usize] += 1;
        }
        for (k, &n) in counts.iter().enumerate().skip(1) {
            let f = n as f64 / 64_000.0;
            assert!((f - 1.0 / 64.0).abs() < 0.006, "rank {k} freq {f}");
        }
    }

    #[test]
    fn concurrency_partitions_register_dependences() {
        // With c contexts, a load's consumer (the next store in the same
        // context) is c ops later — verify adjacent ops never chain.
        let sp = ZipfSpec {
            num_keys: 128,
            exponent_milli: 1000,
            max_concurrency: 8,
        };
        let mut s = ZipfStream::new(sp, 4);
        let mut prev_dst = NO_REG;
        for _ in 0..5_000 {
            let op = s.next_op();
            if prev_dst != NO_REG && op.src1 != NO_REG && op.class == OpClass::Store {
                assert_ne!(op.src1, prev_dst, "adjacent cross-context chaining");
            }
            prev_dst = op.dst;
        }
    }
}
