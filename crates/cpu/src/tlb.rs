//! Instruction and data TLBs.
//!
//! Table 1: a 64-entry 4-way instruction TLB and a 128-entry 4-way data
//! TLB. A miss costs a fixed page-walk penalty (SimpleScalar's default of
//! 30 cycles), added to the triggering access's latency.

use aep_mem::Addr;

/// Page size used by both TLBs (4 KiB).
pub const PAGE_BYTES: u64 = 4096;

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit.
    pub hits: u64,
    /// Translations that missed (paid the walk penalty).
    pub misses: u64,
}

impl TlbStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("hits", self.hits);
        reg.counter("misses", self.misses);
    }

    /// Miss ratio over all translations (0.0 when idle).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TlbEntry {
    vpn: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative TLB with LRU replacement and a fixed miss penalty.
///
/// ```
/// use aep_cpu::tlb::Tlb;
/// use aep_mem::Addr;
///
/// let mut tlb = Tlb::new(64, 4, 30);
/// assert_eq!(tlb.translate(Addr::new(0x1000)), 30); // cold miss
/// assert_eq!(tlb.translate(Addr::new(0x1FFF)), 0);  // same page: hit
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<TlbEntry>,
    sets: usize,
    ways: usize,
    miss_penalty: u64,
    tick: u64,
    stats: TlbStats,
    /// The page of the most recent translation ([`NO_PAGE`] before the
    /// first) and its entry: repeated translations of one page, the
    /// common case, skip the set scan.
    last_vpn: u64,
    last_entry: usize,
}

/// Sentinel of [`Tlb::last_vpn`]; page numbers never reach it.
const NO_PAGE: u64 = u64::MAX;

impl Tlb {
    /// Creates a TLB with `entries` total entries, `ways` associativity,
    /// and `miss_penalty` extra cycles per miss.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` divides evenly into a power-of-two number
    /// of sets.
    #[must_use]
    pub fn new(entries: usize, ways: usize, miss_penalty: u64) -> Self {
        assert!(
            ways > 0 && entries.is_multiple_of(ways),
            "ragged TLB geometry"
        );
        let sets = entries / ways;
        assert!(sets.is_power_of_two(), "TLB sets must be a power of two");
        Tlb {
            entries: vec![TlbEntry::default(); entries],
            sets,
            ways,
            miss_penalty,
            tick: 0,
            stats: TlbStats::default(),
            last_vpn: NO_PAGE,
            last_entry: 0,
        }
    }

    /// The paper's instruction TLB: 64 entries, 4-way.
    #[must_use]
    pub fn date2006_itlb() -> Self {
        Tlb::new(64, 4, 30)
    }

    /// The paper's data TLB: 128 entries, 4-way.
    #[must_use]
    pub fn date2006_dtlb() -> Self {
        Tlb::new(128, 4, 30)
    }

    /// Translates `addr`, returning the extra latency (0 on a hit,
    /// the miss penalty on a miss; the entry is filled).
    #[inline]
    pub fn translate(&mut self, addr: Addr) -> u64 {
        let vpn = addr.0 / PAGE_BYTES;
        self.tick += 1;
        if vpn == self.last_vpn {
            self.entries[self.last_entry].lru = self.tick;
            self.stats.hits += 1;
            return 0;
        }
        self.translate_other_page(vpn)
    }

    /// [`Tlb::translate`] of a page other than the last one translated
    /// (kept out of line so the same-page path inlines into callers).
    #[inline(never)]
    fn translate_other_page(&mut self, vpn: u64) -> u64 {
        let set = (vpn as usize) & (self.sets - 1);
        let base = set * self.ways;
        for w in 0..self.ways {
            let e = &mut self.entries[base + w];
            if e.valid && e.vpn == vpn {
                e.lru = self.tick;
                self.stats.hits += 1;
                self.last_vpn = vpn;
                self.last_entry = base + w;
                return 0;
            }
        }
        // Miss: LRU fill.
        self.stats.misses += 1;
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..self.ways {
            let e = &self.entries[base + w];
            if !e.valid {
                victim = base + w;
                break;
            }
            if e.lru < best {
                best = e.lru;
                victim = base + w;
            }
        }
        self.entries[victim] = TlbEntry {
            vpn,
            valid: true,
            lru: self.tick,
        };
        self.last_vpn = vpn;
        self.last_entry = victim;
        self.miss_penalty
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits_after_fill() {
        let mut t = Tlb::new(16, 4, 30);
        assert_eq!(t.translate(Addr::new(0x0)), 30);
        assert_eq!(t.translate(Addr::new(0xFFF)), 0);
        assert_eq!(t.translate(Addr::new(0x1000)), 30);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_a_set() {
        // 4 sets x 1 way: pages mapping to set 0 conflict directly.
        let mut t = Tlb::new(4, 1, 10);
        let page = |i: u64| Addr::new(i * 4 * PAGE_BYTES); // all set 0
        assert_eq!(t.translate(page(0)), 10);
        assert_eq!(t.translate(page(1)), 10); // evicts page 0
        assert_eq!(t.translate(page(0)), 10); // miss again
    }

    #[test]
    fn capacity_is_respected() {
        let mut t = Tlb::new(64, 4, 30);
        // Touch 64 distinct pages: all fit.
        for i in 0..64u64 {
            t.translate(Addr::new(i * PAGE_BYTES));
        }
        for i in 0..64u64 {
            assert_eq!(t.translate(Addr::new(i * PAGE_BYTES)), 0, "page {i}");
        }
    }

    #[test]
    fn miss_ratio_reported() {
        let mut t = Tlb::new(4, 4, 30);
        t.translate(Addr::new(0));
        t.translate(Addr::new(0));
        t.translate(Addr::new(0));
        t.translate(Addr::new(0));
        assert!((t.stats().miss_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn date2006_geometries() {
        let i = Tlb::date2006_itlb();
        let d = Tlb::date2006_dtlb();
        assert_eq!(i.entries.len(), 64);
        assert_eq!(d.entries.len(), 128);
    }
}
