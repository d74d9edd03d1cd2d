//! The conventional baseline: uniform SECDED on every L2 line.
//!
//! This is the protection POWER4 and Itanium apply to their L2/L3 caches
//! and the `org` configuration of the paper's figures: one ECC array per
//! cache way, 8 check bits per 64 data bits, 12.5 % storage overhead.

use aep_ecc::{Decoded, Secded64};
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::scheme::{
    clone_into_box_with, Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome,
};

/// Uniform SECDED over every line (the paper's conventional architecture).
#[derive(Debug, Clone)]
pub struct UniformEccScheme {
    code: Secded64,
    /// One check byte per 64-bit word, for every (line, word).
    checks: Vec<u8>,
    words_per_line: usize,
    ways: usize,
    area: AreaModel,
    lines: usize,
    energy: EnergyCounters,
}

impl UniformEccScheme {
    /// Builds the scheme for an L2 with configuration `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        let words_per_line = l2.words_per_line();
        let lines = l2.lines() as usize;
        UniformEccScheme {
            code: Secded64::new(),
            checks: vec![0; lines * words_per_line],
            words_per_line,
            ways: l2.ways as usize,
            area: AreaModel::new(l2),
            lines,
            energy: EnergyCounters::default(),
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        (set * self.ways + way) * self.words_per_line
    }

    fn refresh(&mut self, l2: &Cache, set: usize, way: usize) {
        let base = self.slot(set, way);
        let data = l2
            .line_data(set, way)
            .expect("the protected L2 stores line data");
        for (i, &w) in data.iter().enumerate() {
            self.checks[base + i] = self.code.encode(w);
        }
    }
}

impl ProtectionScheme for UniformEccScheme {
    fn name(&self) -> &'static str {
        "uniform-ecc"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, target: &mut Box<dyn ProtectionScheme>) {
        clone_into_box_with(self, target, |dst, src| {
            let UniformEccScheme {
                code,
                checks,
                words_per_line,
                ways,
                area,
                lines,
                energy,
            } = src;
            dst.checks.clone_from(checks);
            dst.area.clone_from(area);
            (
                dst.code,
                dst.words_per_line,
                dst.ways,
                dst.lines,
                dst.energy,
            ) = (*code, *words_per_line, *ways, *lines, *energy);
        });
    }

    fn area(&self) -> AreaReport {
        self.area.conventional()
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, _directives: &mut Vec<Directive>) {
        match *event {
            L2Event::Fill { set, way, .. } | L2Event::WriteHit { set, way, .. } => {
                self.refresh(l2, set, way);
                self.energy.ecc_encodes += 1;
            }
            L2Event::ReadHit { .. } => self.energy.ecc_checks += 1,
            // Evictions and cleanings do not change line contents, so the
            // per-line ECC stays valid. Word writes are re-encoded by the
            // WriteHit of the same drain batch (the line image is already
            // merged when events are observed).
            L2Event::Evict { .. } | L2Event::Cleaned { .. } | L2Event::WordWritten { .. } => {}
        }
    }

    fn verify_access(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        _was_dirty: bool,
        _memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        // Uniform SECDED covers clean and dirty lines identically.
        if !l2.line_view(set, way).valid {
            return RecoveryOutcome::Clean;
        }
        let base = self.slot(set, way);
        let mut repaired = 0usize;
        for i in 0..self.words_per_line {
            let w = l2
                .line_data(set, way)
                .expect("the protected L2 stores line data")[i];
            match self.code.decode(w, self.checks[base + i]) {
                Decoded::Clean { .. } => {}
                Decoded::Corrected { data, .. } => {
                    l2.write_word(set, way, i, data);
                    repaired += 1;
                }
                Decoded::Uncorrectable => return RecoveryOutcome::Unrecoverable,
            }
        }
        if repaired == 0 {
            RecoveryOutcome::Clean
        } else {
            RecoveryOutcome::CorrectedByEcc { words: repaired }
        }
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        let base = self.slot(set, way);
        let mut repaired = 0usize;
        for (i, w) in data.iter_mut().enumerate() {
            match self.code.decode(*w, self.checks[base + i]) {
                Decoded::Clean { .. } => {}
                Decoded::Corrected { data, .. } => {
                    *w = data;
                    repaired += 1;
                }
                Decoded::Uncorrectable => return RecoveryOutcome::Unrecoverable,
            }
        }
        if repaired == 0 {
            RecoveryOutcome::Clean
        } else {
            RecoveryOutcome::CorrectedByEcc { words: repaired }
        }
    }

    fn protected_dirty_lines(&self) -> usize {
        // Every line (dirty or not) carries full ECC.
        self.lines
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::AccessKind;

    fn setup() -> (Cache, UniformEccScheme, MainMemory) {
        let cfg = CacheConfig::tiny_l2();
        let scheme = UniformEccScheme::new(&cfg);
        let l2 = Cache::new(cfg);
        (l2, scheme, MainMemory::new(100, 8))
    }

    fn fill(
        l2: &mut Cache,
        scheme: &mut UniformEccScheme,
        line: LineAddr,
        data: Vec<u64>,
    ) -> (usize, usize) {
        l2.set_event_emission(true);
        let out = l2.install(line, false, 0, Some(&data));
        let mut dirs = Vec::new();
        for ev in l2.take_events() {
            scheme.on_event(&ev, l2, &mut dirs);
        }
        assert!(dirs.is_empty(), "uniform scheme never issues directives");
        (out.set, out.way)
    }

    #[test]
    fn clean_line_verifies_clean() {
        let (mut l2, mut scheme, mut mem) = setup();
        let (set, way) = fill(&mut l2, &mut scheme, LineAddr(1), (0..8).collect());
        assert_eq!(
            scheme.verify_line(&mut l2, set, way, &mut mem),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn single_bit_strike_is_corrected() {
        let (mut l2, mut scheme, mut mem) = setup();
        let original: Vec<u64> = (100..108).collect();
        let (set, way) = fill(&mut l2, &mut scheme, LineAddr(2), original.clone());
        l2.strike(set, way, 3, 17);
        assert_eq!(
            scheme.verify_line(&mut l2, set, way, &mut mem),
            RecoveryOutcome::CorrectedByEcc { words: 1 }
        );
        assert_eq!(l2.line_data(set, way).unwrap(), original.as_slice());
    }

    #[test]
    fn strikes_in_two_words_both_corrected() {
        let (mut l2, mut scheme, mut mem) = setup();
        let (set, way) = fill(&mut l2, &mut scheme, LineAddr(3), vec![7; 8]);
        l2.strike(set, way, 0, 5);
        l2.strike(set, way, 7, 60);
        assert_eq!(
            scheme.verify_line(&mut l2, set, way, &mut mem),
            RecoveryOutcome::CorrectedByEcc { words: 2 }
        );
    }

    #[test]
    fn double_bit_in_one_word_is_unrecoverable() {
        let (mut l2, mut scheme, mut mem) = setup();
        let (set, way) = fill(&mut l2, &mut scheme, LineAddr(4), vec![9; 8]);
        l2.strike(set, way, 2, 1);
        l2.strike(set, way, 2, 2);
        assert_eq!(
            scheme.verify_line(&mut l2, set, way, &mut mem),
            RecoveryOutcome::Unrecoverable
        );
    }

    #[test]
    fn write_hits_refresh_the_checks() {
        let (mut l2, mut scheme, mut mem) = setup();
        let line = LineAddr(5);
        let (set, way) = fill(&mut l2, &mut scheme, line, vec![1; 8]);
        // Store new data through the cache and replay events.
        l2.lookup(line, AccessKind::Write, 1);
        l2.write_word(set, way, 0, 0xFFFF);
        let mut dirs = Vec::new();
        for ev in l2.take_events() {
            scheme.on_event(&ev, &l2, &mut dirs);
        }
        // Verification against the refreshed checks is clean.
        assert_eq!(
            scheme.verify_line(&mut l2, set, way, &mut mem),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn area_is_conventional() {
        let (_, scheme, _) = setup();
        assert_eq!(scheme.area().scheme, "conventional (uniform ECC)");
        assert_eq!(scheme.name(), "uniform-ecc");
        // tiny L2: 4 KB data => 512 B ECC + 64 lines * 2 bits.
        assert_eq!(scheme.area().total().bits(), 512 * 8 + 64 * 2);
        assert_eq!(scheme.protected_dirty_lines(), 64);
    }
}
