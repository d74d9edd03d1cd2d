//! Related-work challenger: non-uniform protection plus **silent-store
//! elision** (Kishani et al., arXiv:2112.12667).
//!
//! The observation: a store whose bytes already match the resident line
//! (a *silent store*) does not change the data, so regenerating check
//! bits for it is pure waste — and under the paper's shared-ECC-entry
//! discipline it is worse than waste, because a write to a clean line
//! claims the set's ECC entry and may force an ECC-WB of another way's
//! dirty line. The challenger adds a per-word comparator on the store
//! path: when the comparison hits, the write is *elided* — the line's
//! dirty/written bits do not change, no check bits are regenerated, and
//! no ECC entry is claimed or refreshed.
//!
//! The memory hierarchy performs the comparison (it owns the data
//! array) and marks the resulting events `silent`; this scheme's job is
//! to *not* react to them, and to count what was saved. Everything else
//! — parity maintenance, ECC-entry discipline, recovery — delegates to
//! the wrapped [`NonUniformScheme`], so the at-most-one-dirty-line-per-
//! set invariant and both recovery paths are inherited unchanged.

use aep_ecc::CodeArea;
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::nonuniform::NonUniformScheme;
use crate::scheme::{Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome};

/// Statistics specific to silent-store elision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SilentWriteStats {
    /// Write hits elided because the stored bytes matched the line.
    pub silent_hits_elided: u64,
    /// ECC check-bit regenerations skipped (one per elided write).
    pub ecc_encodes_skipped: u64,
}

impl SilentWriteStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("silent_hits_elided", self.silent_hits_elided);
        reg.counter("ecc_encodes_skipped", self.ecc_encodes_skipped);
    }
}

/// The silent-write-aware variant of the proposed scheme.
#[derive(Debug, Clone)]
pub struct SilentWriteEccScheme {
    inner: NonUniformScheme,
    area: AreaModel,
    stats: SilentWriteStats,
}

impl SilentWriteEccScheme {
    /// Builds the scheme for an L2 with configuration `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        SilentWriteEccScheme {
            inner: NonUniformScheme::new(l2),
            area: AreaModel::new(l2),
            stats: SilentWriteStats::default(),
        }
    }

    /// Scheme-specific statistics.
    #[must_use]
    pub fn stats(&self) -> SilentWriteStats {
        self.stats
    }

    /// The wrapped non-uniform scheme (diagnostics/tests).
    #[must_use]
    pub fn inner(&self) -> &NonUniformScheme {
        &self.inner
    }
}

impl ProtectionScheme for SilentWriteEccScheme {
    fn name(&self) -> &'static str {
        "silent-write-ecc"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn area(&self) -> AreaReport {
        let mut report = self.area.proposed();
        report.scheme = "silent-write ECC (non-uniform + elision)";
        // One 64-bit word comparator on the store path (combinational;
        // charged as one word of storage-equivalent area).
        report
            .components
            .push(("silent-store comparator (64b)", CodeArea::from_bits(64)));
        report
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
        if let L2Event::WriteHit { silent: true, .. } = *event {
            // The store did not change the line: parity and any ECC
            // entry describing it are still valid. Skip regeneration
            // and — crucially — do not claim the set's ECC entry.
            self.stats.silent_hits_elided += 1;
            self.stats.ecc_encodes_skipped += 1;
            return;
        }
        self.inner.on_event(event, l2, directives);
    }

    fn verify_access(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        was_dirty: bool,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        self.inner.verify_access(l2, set, way, was_dirty, memory)
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        self.inner.verify_writeback(set, way, data)
    }

    fn protected_dirty_lines(&self) -> usize {
        self.inner.protected_dirty_lines()
    }

    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        self.inner.dirty_line_covered(set, way)
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.inner.find_protocol_violation(l2)
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.inner.energy_counters()
    }

    fn register_stats(&self, reg: &mut aep_obs::Registry) {
        self.inner.register_stats(reg);
        reg.scoped("silent", |r| self.stats.register_stats(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::{AccessKind, WbClass};

    struct Harness {
        l2: Cache,
        scheme: SilentWriteEccScheme,
        mem: MainMemory,
        ecc_wb: u64,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = CacheConfig::tiny_l2();
            let scheme = SilentWriteEccScheme::new(&cfg);
            let mut l2 = Cache::new(cfg);
            l2.set_event_emission(true);
            Harness {
                l2,
                scheme,
                mem: MainMemory::new(100, 8),
                ecc_wb: 0,
            }
        }

        fn drain(&mut self) {
            loop {
                let events = self.l2.take_events();
                if events.is_empty() {
                    break;
                }
                let mut dirs = Vec::new();
                for ev in &events {
                    self.scheme.on_event(ev, &self.l2, &mut dirs);
                }
                for d in dirs {
                    let Directive::ForceClean { set, way } = d;
                    if let Some(ev) = self.l2.force_clean(set, way, 0, WbClass::EccEviction) {
                        self.mem
                            .write_line(ev.line, self.l2.line_data(set, way).unwrap());
                        self.ecc_wb += 1;
                    }
                }
            }
        }

        fn write_line(&mut self, line: LineAddr, seed: u64) -> (usize, usize) {
            let (set, way) = match self.l2.peek(line) {
                Some((set, way)) => {
                    self.l2.lookup(line, AccessKind::Write, 0);
                    (set, way)
                }
                None => {
                    self.l2.lookup(line, AccessKind::Write, 0);
                    let data: Box<[u64]> = (0..8).map(|i| seed ^ i).collect();
                    let out = self.l2.install(line, true, 0, Some(&data));
                    (out.set, out.way)
                }
            };
            self.l2.write_word(set, way, 0, seed);
            self.drain();
            (set, way)
        }

        fn read_fill(&mut self, line: LineAddr) -> (usize, usize) {
            let data = self.mem.read_line(line);
            let out = self.l2.install(line, false, 0, Some(&data));
            self.drain();
            (out.set, out.way)
        }
    }

    #[test]
    fn silent_write_hit_claims_no_entry() {
        let mut h = Harness::new();
        let (set, way) = h.read_fill(LineAddr(0));
        // The hierarchy classified a store as silent: the scheme must
        // not claim the set's ECC entry or touch parity.
        h.l2.silent_write_hit(set, way, 5);
        h.drain();
        assert_eq!(h.scheme.inner().entry_owner(set), None);
        assert_eq!(h.scheme.stats().silent_hits_elided, 1);
        assert_eq!(h.scheme.protected_dirty_lines(), 0);
        assert_eq!(h.scheme.find_protocol_violation(&h.l2), None);
    }

    #[test]
    fn silent_hit_on_dirty_owner_keeps_checks_valid() {
        let mut h = Harness::new();
        let (set, way) = h.write_line(LineAddr(4), 77);
        assert_eq!(h.scheme.inner().entry_owner(set), Some(way));
        h.l2.silent_write_hit(set, way, 9);
        h.drain();
        // The data is unchanged, so the existing checks still correct.
        let before = h.l2.line_data(set, way).unwrap().to_vec();
        h.l2.strike(set, way, 3, 17);
        let outcome = h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(h.l2.line_data(set, way).unwrap(), before.as_slice());
    }

    #[test]
    fn non_silent_writes_delegate_to_the_proposed_discipline() {
        let mut h = Harness::new();
        let (set, way_a) = h.write_line(LineAddr(0), 1);
        let (set_b, way_b) = h.write_line(LineAddr(16), 2);
        assert_eq!(set, set_b);
        assert_ne!(way_a, way_b);
        assert_eq!(h.ecc_wb, 1, "displacement still forces the ECC-WB");
        assert_eq!(h.scheme.inner().entry_owner(set), Some(way_b));
        assert_eq!(h.scheme.find_protocol_violation(&h.l2), None);
    }

    #[test]
    fn area_is_proposed_plus_comparator() {
        let h = Harness::new();
        let report = h.scheme.area();
        // tiny L2 proposed total plus the 64-bit comparator.
        assert_eq!(report.total().bits(), (64 + 8 + 8 + 8 + 128) * 8 + 64);
        assert!(report.to_table().contains("comparator"));
    }
}
