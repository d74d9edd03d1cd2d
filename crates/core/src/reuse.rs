//! Related-work challenger: non-uniform protection with the interval
//! FSM replaced by a **reuse-distance-predicted early copy-back**
//! cleaner (Wang et al., arXiv:2105.14442).
//!
//! The paper's cleaner writes back `dirty && !written` lines on a fixed
//! sweep cadence; the challenger instead predicts when a dirty line is
//! *dead* from its own write-reuse history. The cache records, per
//! line, the gap between its last two writes; a dirty line idle for
//! longer than `multiplier` times that gap is predicted to receive no
//! further writes and is copied back early. Lines with a pending
//! written bit get one grace sweep (the bit is reset, mirroring the
//! paper's written-bit filter) before they become candidates.
//!
//! The probe cadence reuses the paper's cycle-counter + next-set-latch
//! FSM ([`crate::cleaning::CleaningPolicy::ReusePredicted`]); this type
//! only carries the protection side, which is the unmodified
//! [`NonUniformScheme`] — early copy-backs surface as ordinary
//! `Cleaned` events that release the set's ECC entry.

use aep_ecc::CodeArea;
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::nonuniform::NonUniformScheme;
use crate::scheme::{Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome};

/// The reuse-predicted copy-back variant of the proposed scheme.
#[derive(Debug, Clone)]
pub struct ReuseCopybackScheme {
    inner: NonUniformScheme,
    area: AreaModel,
    lines: u64,
    multiplier: u32,
}

impl ReuseCopybackScheme {
    /// Builds the scheme for an L2 with configuration `l2`; `multiplier`
    /// is the idle-time threshold as a multiple of the observed
    /// write-reuse gap (the predictor's single knob).
    #[must_use]
    pub fn new(l2: &CacheConfig, multiplier: u32) -> Self {
        ReuseCopybackScheme {
            inner: NonUniformScheme::new(l2),
            area: AreaModel::new(l2),
            lines: l2.lines(),
            multiplier,
        }
    }

    /// The predictor's idle-threshold multiplier.
    #[must_use]
    pub fn multiplier(&self) -> u32 {
        self.multiplier
    }

    /// The wrapped non-uniform scheme (diagnostics/tests).
    #[must_use]
    pub fn inner(&self) -> &NonUniformScheme {
        &self.inner
    }
}

impl ProtectionScheme for ReuseCopybackScheme {
    fn name(&self) -> &'static str {
        "reuse-copyback"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn area(&self) -> AreaReport {
        let mut report = self.area.proposed();
        report.scheme = "reuse copy-back (non-uniform + predictor)";
        // The predictor stores a truncated last-write timestamp and a
        // write-gap per line (16 bits each) on top of the written bit.
        report.components.push((
            "reuse predictor (2x16b/line)",
            CodeArea::from_bits(self.lines * 32),
        ));
        report
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::{AccessKind, WbClass};

    fn harness() -> (Cache, ReuseCopybackScheme, MainMemory) {
        let cfg = CacheConfig::tiny_l2();
        let scheme = ReuseCopybackScheme::new(&cfg, 4);
        let mut l2 = Cache::new(cfg);
        l2.set_event_emission(true);
        (l2, scheme, MainMemory::new(100, 8))
    }

    fn drain(l2: &mut Cache, scheme: &mut ReuseCopybackScheme, mem: &mut MainMemory) {
        loop {
            let events = l2.take_events();
            if events.is_empty() {
                break;
            }
            let mut dirs = Vec::new();
            for ev in &events {
                scheme.on_event(ev, l2, &mut dirs);
            }
            for Directive::ForceClean { set, way } in dirs {
                if let Some(ev) = l2.force_clean(set, way, 0, WbClass::EccEviction) {
                    mem.write_line(ev.line, l2.line_data(set, way).unwrap());
                }
            }
        }
    }

    #[test]
    fn early_copyback_releases_the_entry() {
        let (mut l2, mut scheme, mut mem) = harness();
        let line = LineAddr(3);
        l2.lookup(line, AccessKind::Write, 0);
        let data: Box<[u64]> = (0..8).map(|i| 9 ^ i).collect();
        let out = l2.install(line, true, 0, Some(&data));
        l2.write_word(out.set, out.way, 0, 9);
        drain(&mut l2, &mut scheme, &mut mem);
        assert_eq!(scheme.inner().entry_owner(out.set), Some(out.way));

        // The write sets the written bit: the first probe grants grace,
        // the second (line long idle, gap fallback 10) copies back.
        for now in [1000u64, 2000] {
            for ev in l2.reuse_probe(out.set, now, scheme.multiplier(), 10) {
                mem.write_line(ev.line, l2.line_data(out.set, ev.way).unwrap());
            }
            drain(&mut l2, &mut scheme, &mut mem);
        }
        assert!(!l2.line_view(out.set, out.way).dirty, "copied back early");
        assert_eq!(scheme.inner().entry_owner(out.set), None);
        assert_eq!(scheme.find_protocol_violation(&l2), None);
    }

    #[test]
    fn protection_still_corrects_dirty_strikes() {
        let (mut l2, mut scheme, mut mem) = harness();
        let line = LineAddr(5);
        l2.lookup(line, AccessKind::Write, 0);
        let data: Box<[u64]> = (0..8).map(|i| 3 ^ i).collect();
        let out = l2.install(line, true, 0, Some(&data));
        l2.write_word(out.set, out.way, 0, 3);
        drain(&mut l2, &mut scheme, &mut mem);
        let before = l2.line_data(out.set, out.way).unwrap().to_vec();
        l2.strike(out.set, out.way, 6, 42);
        let outcome = scheme.verify_line(&mut l2, out.set, out.way, &mut mem);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(l2.line_data(out.set, out.way).unwrap(), before.as_slice());
    }

    #[test]
    fn area_is_proposed_plus_predictor_state() {
        let (_l2, scheme, _mem) = harness();
        let report = scheme.area();
        // tiny L2 (64 lines): proposed total plus 64 * 32 predictor bits.
        assert_eq!(report.total().bits(), (64 + 8 + 8 + 8 + 128) * 8 + 64 * 32);
        assert!(report.to_table().contains("predictor"));
    }
}
