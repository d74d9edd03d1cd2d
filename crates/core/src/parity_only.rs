//! Parity-only strawman: every line is protected by interleaved parity.
//!
//! The cheapest possible protection (and what the paper already uses for
//! clean lines): errors are detected, clean lines are recovered by
//! refetching from memory, but a struck *dirty* line is lost. This scheme
//! exists to quantify, in the ablation benches, what the proposed scheme's
//! ECC array buys over pure parity.

use aep_ecc::parity::InterleavedParity;
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::scheme::{
    clone_into_box_with, refetch_line, Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome,
};

/// Parity on every line; refetch recovers clean lines only.
#[derive(Debug, Clone)]
pub struct ParityOnlyScheme {
    parity: Vec<InterleavedParity>,
    ways: usize,
    area: AreaModel,
    energy: EnergyCounters,
}

impl ParityOnlyScheme {
    /// Builds the scheme for an L2 with configuration `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        ParityOnlyScheme {
            parity: vec![InterleavedParity::default(); l2.lines() as usize],
            ways: l2.ways as usize,
            area: AreaModel::new(l2),
            energy: EnergyCounters::default(),
        }
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn refresh(&mut self, l2: &Cache, set: usize, way: usize) {
        let data = l2
            .line_data(set, way)
            .expect("the protected L2 stores line data");
        let slot = self.slot(set, way);
        self.parity[slot] = InterleavedParity::encode(data);
    }
}

impl ProtectionScheme for ParityOnlyScheme {
    fn name(&self) -> &'static str {
        "parity-only"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, target: &mut Box<dyn ProtectionScheme>) {
        clone_into_box_with(self, target, |dst, src| {
            let ParityOnlyScheme {
                parity,
                ways,
                area,
                energy,
            } = src;
            dst.parity.clone_from(parity);
            dst.area.clone_from(area);
            (dst.ways, dst.energy) = (*ways, *energy);
        });
    }

    fn area(&self) -> AreaReport {
        self.area.parity_only()
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, _directives: &mut Vec<Directive>) {
        match *event {
            L2Event::Fill { set, way, .. } | L2Event::WriteHit { set, way, .. } => {
                self.refresh(l2, set, way);
                self.energy.parity_encodes += 1;
            }
            L2Event::ReadHit { .. } => self.energy.parity_checks += 1,
            L2Event::Evict { .. } | L2Event::Cleaned { .. } | L2Event::WordWritten { .. } => {}
        }
    }

    fn verify_access(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        was_dirty: bool,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        let view = l2.line_view(set, way);
        if !view.valid {
            return RecoveryOutcome::Clean;
        }
        let stored = self.parity[self.slot(set, way)];
        let data = l2
            .line_data(set, way)
            .expect("the protected L2 stores line data");
        if InterleavedParity::verify(data, stored).is_ok() {
            return RecoveryOutcome::Clean;
        }
        if was_dirty {
            // The only copy of the data is corrupt: detected, not
            // recoverable — precisely the gap the paper's ECC array closes.
            return RecoveryOutcome::Unrecoverable;
        }
        // Clean line: the next memory level has pristine data.
        refetch_line(l2, set, way, view.line, memory);
        self.refresh(l2, set, way);
        RecoveryOutcome::RecoveredByRefetch
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        let stored = self.parity[self.slot(set, way)];
        if InterleavedParity::verify(data, stored).is_ok() {
            RecoveryOutcome::Clean
        } else {
            // Parity detects but cannot repair an outbound dirty image.
            RecoveryOutcome::Unrecoverable
        }
    }

    fn protected_dirty_lines(&self) -> usize {
        0
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::WbClass;

    fn setup() -> (Cache, ParityOnlyScheme, MainMemory) {
        let cfg = CacheConfig::tiny_l2();
        let scheme = ParityOnlyScheme::new(&cfg);
        let mut l2 = Cache::new(cfg);
        l2.set_event_emission(true);
        (l2, scheme, MainMemory::new(100, 8))
    }

    fn drain(l2: &mut Cache, scheme: &mut ParityOnlyScheme) {
        let mut dirs = Vec::new();
        for ev in l2.take_events() {
            scheme.on_event(&ev, l2, &mut dirs);
        }
        assert!(dirs.is_empty());
    }

    #[test]
    fn struck_clean_line_is_refetched() {
        let (mut l2, mut scheme, mut mem) = setup();
        let line = LineAddr(11);
        let pristine = mem.read_line(line);
        let out = l2.install(line, false, 0, Some(&pristine));
        drain(&mut l2, &mut scheme);
        l2.strike(out.set, out.way, 4, 44);
        assert_eq!(
            scheme.verify_line(&mut l2, out.set, out.way, &mut mem),
            RecoveryOutcome::RecoveredByRefetch
        );
        assert_eq!(l2.line_data(out.set, out.way).unwrap(), &*pristine);
    }

    #[test]
    fn struck_dirty_line_is_lost() {
        let (mut l2, mut scheme, mut mem) = setup();
        let out = l2.install(LineAddr(12), true, 0, Some(&[5; 8]));
        drain(&mut l2, &mut scheme);
        l2.strike(out.set, out.way, 0, 0);
        assert_eq!(
            scheme.verify_line(&mut l2, out.set, out.way, &mut mem),
            RecoveryOutcome::Unrecoverable
        );
    }

    #[test]
    fn unstruck_lines_verify_clean() {
        let (mut l2, mut scheme, mut mem) = setup();
        let out = l2.install(LineAddr(13), true, 0, Some(&[5; 8]));
        drain(&mut l2, &mut scheme);
        assert_eq!(
            scheme.verify_line(&mut l2, out.set, out.way, &mut mem),
            RecoveryOutcome::Clean
        );
    }

    #[test]
    fn cleaned_line_becomes_refetchable() {
        // A dirty line that the cleaning logic writes back is clean again;
        // its parity protection then suffices for full recovery.
        let (mut l2, mut scheme, mut mem) = setup();
        let line = LineAddr(14);
        let data = vec![0xAB; 8];
        let out = l2.install(line, true, 0, Some(&data));
        drain(&mut l2, &mut scheme);
        // Simulate the cleaning write-back (data reaches memory).
        let ev = l2
            .force_clean(out.set, out.way, 1, WbClass::Cleaning)
            .expect("line was dirty");
        mem.write_line(ev.line, l2.line_data(out.set, ev.way).unwrap());
        drain(&mut l2, &mut scheme);
        l2.strike(out.set, out.way, 1, 9);
        assert_eq!(
            scheme.verify_line(&mut l2, out.set, out.way, &mut mem),
            RecoveryOutcome::RecoveredByRefetch
        );
        assert_eq!(l2.line_data(out.set, out.way).unwrap(), data.as_slice());
    }

    #[test]
    fn area_is_20kib_scaled() {
        let (_, scheme, _) = setup();
        // tiny L2: 4 KB data -> 64 B parity + 2 * 64 lines bits.
        assert_eq!(scheme.area().total().bits(), 64 * 8 + 2 * 64);
        assert_eq!(scheme.protected_dirty_lines(), 0);
    }
}
