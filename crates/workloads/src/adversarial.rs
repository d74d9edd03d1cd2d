//! Adversarial workload generators.
//!
//! Each generator is a counter-driven (RNG-free, trivially
//! chunk-deterministic) instruction stream built to stress one mechanism
//! of the paper's one-dirty-line-per-set protection scheme:
//!
//! * [`AdversarialSpec::SetConflictStorm`] — all stores land in one L2
//!   set (addresses strided by 4096 lines, which aliases to a single set
//!   on both the full 4096-set L2 and the 16-set differential-check
//!   hierarchy). With one ECC entry per set, every new dirty line
//!   displaces the previous entry: a sustained ECC-WB storm.
//! * [`AdversarialSpec::WriteOnceFlood`] — exactly one store per line,
//!   marching through a footprint far larger than the cache. Every store
//!   is a write-allocate fill that is never reused: the cleaning FSM's
//!   best case, and the worst case for write-back traffic.
//! * [`AdversarialSpec::PhaseShift`] — the working set jumps between
//!   disjoint line groups every `period` operations. Dirty lines from
//!   the previous phase sit idle for a whole phase before the next
//!   phase's conflict misses finally evict them — maximally stale dirty
//!   data, the regime where interval cleaning pays most.

use aep_cpu::isa::{InstrStream, MicroOp};
use aep_mem::Addr;

/// Base address of adversarial data regions.
const ADV_BASE: u64 = 0x1000_0000;
/// Line stride that aliases to one set on any power-of-two L2 with
/// ≤ 4096 sets and 64-byte lines.
const SET_ALIAS_STRIDE: u64 = 4096 * 64;
/// Code-region bytes the synthetic PCs cycle over.
const ADV_CODE_BYTES: u64 = 512;
/// Base address of the synthetic code region.
const ADV_CODE_BASE: u64 = 0x0040_0000;

/// Which adversarial pattern, with its intensity knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdversarialSpec {
    /// `lines` distinct lines aliasing to a single L2 set, stored
    /// round-robin.
    SetConflictStorm {
        /// Conflicting lines (> associativity forces displacement).
        lines: u32,
    },
    /// One store to each of `lines` consecutive lines, wrapping.
    WriteOnceFlood {
        /// Footprint in lines (≫ cache ⇒ every store is a fresh fill).
        lines: u32,
    },
    /// Alternating disjoint working sets of `lines` lines each.
    PhaseShift {
        /// Lines per phase (≳ cache ⇒ phases evict each other).
        lines: u32,
        /// Operations per phase.
        period: u32,
    },
}

impl AdversarialSpec {
    /// The canonical slug: `storm:<lines>`, `flood:<lines>`, or
    /// `phase:<lines>:<period>`.
    #[must_use]
    pub fn slug(&self) -> String {
        match *self {
            AdversarialSpec::SetConflictStorm { lines } => format!("storm:{lines}"),
            AdversarialSpec::WriteOnceFlood { lines } => format!("flood:{lines}"),
            AdversarialSpec::PhaseShift { lines, period } => format!("phase:{lines}:{period}"),
        }
    }

    /// Parses a slug produced by [`AdversarialSpec::slug`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(rest) = s.strip_prefix("storm:") {
            let lines: u32 = rest.parse().ok()?;
            return (lines > 0).then_some(AdversarialSpec::SetConflictStorm { lines });
        }
        if let Some(rest) = s.strip_prefix("flood:") {
            let lines: u32 = rest.parse().ok()?;
            return (lines > 0).then_some(AdversarialSpec::WriteOnceFlood { lines });
        }
        if let Some(rest) = s.strip_prefix("phase:") {
            let (lines, period) = rest.split_once(':')?;
            let lines: u32 = lines.parse().ok()?;
            let period: u32 = period.parse().ok()?;
            return (lines > 0 && period > 0)
                .then_some(AdversarialSpec::PhaseShift { lines, period });
        }
        None
    }

    /// Builds the deterministic stream for this spec. Adversarial
    /// streams are counter-driven; the seed only offsets the starting
    /// phase so distinct seeds decorrelate.
    #[must_use]
    pub fn stream(&self, seed: u64) -> AdversarialStream {
        AdversarialStream {
            spec: *self,
            i: seed.wrapping_mul(0x9E37_79B9) % 64,
            pc: ADV_CODE_BASE,
            dst: 0,
        }
    }
}

/// Counter-driven [`InstrStream`] for one [`AdversarialSpec`].
#[derive(Debug, Clone)]
pub struct AdversarialStream {
    spec: AdversarialSpec,
    i: u64,
    pc: u64,
    dst: u8,
}

impl AdversarialStream {
    /// The spec this stream was built from.
    #[must_use]
    pub fn spec(&self) -> AdversarialSpec {
        self.spec
    }

    fn advance_pc(&mut self) -> u64 {
        let pc = self.pc;
        self.pc += 4;
        if self.pc >= ADV_CODE_BASE + ADV_CODE_BYTES {
            self.pc = ADV_CODE_BASE;
        }
        pc
    }

    fn next_dst(&mut self) -> u8 {
        self.dst = if self.dst >= 31 { 1 } else { self.dst + 1 };
        self.dst
    }
}

impl InstrStream for AdversarialStream {
    fn next_op(&mut self) -> MicroOp {
        let i = self.i;
        self.i += 1;
        let pc = self.advance_pc();
        let op = match self.spec {
            AdversarialSpec::SetConflictStorm { lines } => {
                let lines = u64::from(lines);
                // Round-robin over the aliasing lines; rotate the word so
                // repeated generations touch the whole line.
                let line = i % lines;
                let word = (i / lines) % 8;
                let addr = Addr(ADV_BASE + line * SET_ALIAS_STRIDE + word * 8);
                MicroOp::store(pc, addr, self.next_dst())
            }
            AdversarialSpec::WriteOnceFlood { lines } => {
                let addr = Addr(ADV_BASE + (i % u64::from(lines)) * 64);
                MicroOp::store(pc, addr, self.next_dst())
            }
            AdversarialSpec::PhaseShift { lines, period } => {
                let lines = u64::from(lines);
                let phase = (i / u64::from(period)) % 2;
                let within = i % lines;
                let addr = Addr(ADV_BASE + (phase * lines + within) * 64);
                // Mostly stores (to leave dirty data behind), with loads
                // mixed in so the phase also reads what it wrote.
                if i % 4 == 3 {
                    MicroOp::load(pc, addr, self.next_dst())
                } else {
                    MicroOp::store(pc, addr, self.next_dst())
                }
            }
        };
        op.debug_validate();
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_cpu::isa::OpClass;

    #[test]
    fn slugs_round_trip() {
        for spec in [
            AdversarialSpec::SetConflictStorm { lines: 12 },
            AdversarialSpec::WriteOnceFlood { lines: 4096 },
            AdversarialSpec::PhaseShift {
                lines: 96,
                period: 3072,
            },
        ] {
            assert_eq!(AdversarialSpec::parse(&spec.slug()), Some(spec));
        }
        assert_eq!(AdversarialSpec::parse("storm:0"), None);
        assert_eq!(AdversarialSpec::parse("phase:8"), None);
        assert_eq!(AdversarialSpec::parse("storm:x"), None);
    }

    #[test]
    fn storm_addresses_alias_to_one_set() {
        let mut s = AdversarialSpec::SetConflictStorm { lines: 12 }.stream(0);
        for _ in 0..1000 {
            let op = s.next_op();
            let line = op.addr().unwrap().0 / 64;
            // Same set index on both the full (4096-set) and tiny
            // (16-set) hierarchies.
            assert_eq!(line % 4096, (ADV_BASE / 64) % 4096);
            assert_eq!(line % 16, (ADV_BASE / 64) % 16);
        }
    }

    #[test]
    fn flood_never_revisits_within_a_lap() {
        let lines = 512u32;
        let mut s = AdversarialSpec::WriteOnceFlood { lines }.stream(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..lines {
            let op = s.next_op();
            assert_eq!(op.class, OpClass::Store);
            assert!(seen.insert(op.addr().unwrap().0), "revisit within a lap");
        }
    }

    #[test]
    fn phases_use_disjoint_line_groups() {
        let spec = AdversarialSpec::PhaseShift {
            lines: 64,
            period: 256,
        };
        let mut s = spec.stream(0);
        // Skip the seed offset into a clean phase boundary.
        let mut groups = [
            std::collections::HashSet::new(),
            std::collections::HashSet::new(),
        ];
        for _ in 0..2048 {
            let i = s.i;
            let op = s.next_op();
            let phase = ((i / 256) % 2) as usize;
            groups[phase].insert(op.addr().unwrap().0 / 64);
        }
        assert!(!groups[0].is_empty() && !groups[1].is_empty());
        assert!(groups[0].is_disjoint(&groups[1]), "phases must not overlap");
    }

    #[test]
    fn streams_are_deterministic() {
        for spec in [
            AdversarialSpec::SetConflictStorm { lines: 8 },
            AdversarialSpec::WriteOnceFlood { lines: 128 },
            AdversarialSpec::PhaseShift {
                lines: 32,
                period: 100,
            },
        ] {
            let mut a = spec.stream(7);
            let mut b = spec.stream(7);
            for _ in 0..2000 {
                assert_eq!(a.next_op(), b.next_op());
            }
        }
    }
}
