//! A deliberately-broken test double reconstructing the "retiring ECC
//! entry" bug that PR 2 fixed.
//!
//! The real [`NonUniformScheme`] keeps a *retiring* list: when a new
//! dirty line claims a set's shared ECC entry, the displaced entry's
//! check bits ride along with the forced write-back and keep protecting
//! the displaced line until its `Cleaned`/`Evict` event retires them.
//! The pre-fix bookkeeping forgot the displaced entry immediately,
//! opening a window (claim → forced write-back completion) where a dirty
//! line had no usable ECC.
//!
//! This double delegates all real work to the correct scheme — so the
//! simulation itself stays sound — but answers
//! [`ProtectionScheme::dirty_line_covered`] from its own per-set owner
//! table, which is overwritten on every claim exactly like the buggy
//! code. The differential checker must flag the window; the regression
//! test in `tests/broken_double.rs` and `exp check --inject-violation`
//! both rely on that.

use aep_core::{
    AreaReport, Directive, EnergyCounters, NonUniformScheme, ProtectionScheme, RecoveryOutcome,
    SchemeKind,
};
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

/// The broken double: correct scheme behaviour, pre-PR 2 coverage
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct BrokenRetiringScheme {
    inner: NonUniformScheme,
    /// Which way owns each set's ECC entry according to the *buggy*
    /// model: overwritten on claim, with no retiring list.
    owner: Vec<Option<usize>>,
}

impl BrokenRetiringScheme {
    /// Builds the double for an L2 with configuration `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        BrokenRetiringScheme {
            inner: NonUniformScheme::new(
                l2,
                SchemeKind::Proposed {
                    cleaning_interval: 1 << 20,
                },
            ),
            owner: vec![None; l2.sets() as usize],
        }
    }

    /// Mirrors the entry claims/releases the correct scheme performs,
    /// minus the retiring list — the bug under test.
    fn track_owner(&mut self, event: &L2Event) {
        match *event {
            // A line turning dirty claims its set's entry, silently
            // dropping whatever was there before.
            L2Event::Fill {
                set,
                way,
                write: true,
                ..
            }
            | L2Event::WriteHit {
                set,
                way,
                first_write: true,
                ..
            } => self.owner[set] = Some(way),
            // Cleaning or evicting the owner releases the entry.
            L2Event::Cleaned { set, way, .. } | L2Event::Evict { set, way, .. } => {
                if self.owner[set] == Some(way) {
                    self.owner[set] = None;
                }
            }
            L2Event::Fill { .. }
            | L2Event::WriteHit { .. }
            | L2Event::ReadHit { .. }
            | L2Event::WordWritten { .. } => {}
        }
    }
}

impl ProtectionScheme for BrokenRetiringScheme {
    fn name(&self) -> &'static str {
        "proposed (broken retiring double)"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn area(&self) -> AreaReport {
        self.inner.area()
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
        self.track_owner(event);
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

    /// The buggy answer: only the current owner is covered. A displaced
    /// line — still dirty, its entry retiring — answers `false`, which is
    /// exactly the lost-protection window the checker must detect.
    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        self.owner[set] == Some(way)
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.inner.find_protocol_violation(l2)
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.inner.energy_counters()
    }
}
