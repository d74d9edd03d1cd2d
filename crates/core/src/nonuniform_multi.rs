//! Extension: the shared ECC array generalised to *k* entries per set.
//!
//! The paper's design stores exactly one ECC entry per set, capping dirty
//! lines at one per set (25 % of a 4-way cache) and costing 32 KB. A
//! natural design-space question — called out in DESIGN.md's ablation
//! list — is what a wider array buys: `k` entries per set permit `k` dirty
//! lines per set at `k × 32 KB`, trading area for fewer forced ECC-WB
//! write-backs. [`MultiEntryScheme`] implements the generalisation;
//! `k = 1` reproduces [`crate::NonUniformScheme`]'s behaviour exactly
//! (asserted by the equivalence test below), and `k = ways` degenerates to
//! conventional per-way ECC for dirty lines.

use aep_ecc::parity::InterleavedParity;
use aep_ecc::{Decoded, Secded64};
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::nonuniform::NonUniformStats;
use crate::scheme::{Directive, ProtectionScheme, RecoveryOutcome};

#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    way: usize,
    checks: Box<[u8]>,
    /// Allocation/refresh order stamp for FIFO eviction.
    stamp: u64,
}

/// Non-uniform protection with a `k`-entry-per-set shared ECC array.
#[derive(Debug, Clone)]
pub struct MultiEntryScheme {
    code: Secded64,
    parity: Vec<InterleavedParity>,
    /// `entries[set]` holds at most `entries_per_set` dirty-line entries.
    entries: Vec<Vec<Entry>>,
    /// Displaced entries whose forced clean-back (ECC-WB) is in flight:
    /// the checks travel with the write-back and keep protecting the
    /// displaced line until its `Cleaned`/`Evict` event retires them.
    retiring: Vec<Vec<Entry>>,
    entries_per_set: usize,
    ways: usize,
    area: AreaModel,
    stamp: u64,
    stats: NonUniformStats,
}

impl MultiEntryScheme {
    /// Builds the scheme with `entries_per_set` ECC entries per set.
    ///
    /// # Panics
    ///
    /// Panics if `entries_per_set` is zero or exceeds the associativity
    /// (more entries than ways can never be used).
    #[must_use]
    pub fn new(l2: &CacheConfig, entries_per_set: usize) -> Self {
        assert!(entries_per_set >= 1, "at least one entry per set");
        assert!(
            entries_per_set <= l2.ways as usize,
            "more entries than ways is wasted area"
        );
        MultiEntryScheme {
            code: Secded64::new(),
            parity: vec![InterleavedParity::default(); l2.lines() as usize],
            entries: vec![Vec::with_capacity(entries_per_set); l2.sets() as usize],
            retiring: vec![Vec::new(); l2.sets() as usize],
            entries_per_set,
            ways: l2.ways as usize,
            area: AreaModel::new(l2),
            stamp: 0,
            stats: NonUniformStats::default(),
        }
    }

    /// The configured entries per set.
    #[must_use]
    pub fn entries_per_set(&self) -> usize {
        self.entries_per_set
    }

    /// Scheme-specific statistics. `entries_evicted` is the ECC-WB count
    /// caused by entry eviction — the quantity the ablation compares
    /// across `k`.
    #[must_use]
    pub fn stats(&self) -> NonUniformStats {
        self.stats
    }

    fn parity_slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    fn refresh_parity(&mut self, l2: &Cache, set: usize, way: usize) {
        let data = l2
            .line_data(set, way)
            .expect("the protected L2 stores line data");
        let slot = self.parity_slot(set, way);
        self.parity[slot] = InterleavedParity::encode(data);
    }

    fn encode_checks(&self, l2: &Cache, set: usize, way: usize) -> Box<[u8]> {
        l2.line_data(set, way)
            .expect("the protected L2 stores line data")
            .iter()
            .map(|&w| self.code.encode(w))
            .collect()
    }

    fn claim(&mut self, l2: &Cache, set: usize, way: usize, directives: &mut Vec<Directive>) {
        let checks = self.encode_checks(l2, set, way);
        self.stamp += 1;
        let stamp = self.stamp;
        let slot = &mut self.entries[set];
        if let Some(entry) = slot.iter_mut().find(|e| e.way == way) {
            entry.checks = checks;
            entry.stamp = stamp;
            self.stats.entries_refreshed += 1;
            return;
        }
        if slot.len() == self.entries_per_set {
            // Evict the oldest entry: its line loses ECC protection and
            // must be written back (ECC-WB), as in the 1-entry design.
            let oldest = slot
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("slot is full, so non-empty");
            let victim = slot.remove(oldest);
            directives.push(Directive::ForceClean {
                set,
                way: victim.way,
            });
            self.retiring[set].push(victim);
            self.stats.entries_evicted += 1;
        }
        self.entries[set].push(Entry { way, checks, stamp });
        self.stats.entries_allocated += 1;
    }

    fn release(&mut self, set: usize, way: usize) {
        self.entries[set].retain(|e| e.way != way);
        let before = self.retiring[set].len();
        self.retiring[set].retain(|e| e.way != way);
        self.stats.entries_retired += (before - self.retiring[set].len()) as u64;
    }

    /// The check bytes currently protecting (`set`, `way`): a live entry,
    /// or the freshest retiring entry riding the way's in-flight ECC-WB.
    fn checks_for(&self, set: usize, way: usize) -> Option<&[u8]> {
        if let Some(e) = self.entries[set].iter().find(|e| e.way == way) {
            return Some(&e.checks);
        }
        self.retiring[set]
            .iter()
            .rev()
            .find(|e| e.way == way)
            .map(|e| &*e.checks)
    }

    /// Checks the generalised invariant: at most `k` dirty lines per set,
    /// in exact correspondence with the set's entries.
    #[must_use]
    pub fn find_invariant_violation(&self, l2: &Cache) -> Option<usize> {
        for set in 0..l2.sets() {
            let mut dirty: Vec<usize> = (0..l2.ways())
                .filter(|&w| {
                    let v = l2.line_view(set, w);
                    v.valid && v.dirty
                })
                .collect();
            if dirty.len() > self.entries_per_set {
                return Some(set);
            }
            let mut owned: Vec<usize> = self.entries[set].iter().map(|e| e.way).collect();
            dirty.sort_unstable();
            owned.sort_unstable();
            if dirty != owned {
                return Some(set);
            }
            // Once directives settle, no ECC-WB is in flight.
            if !self.retiring[set].is_empty() {
                return Some(set);
            }
        }
        None
    }
}

impl ProtectionScheme for MultiEntryScheme {
    fn name(&self) -> &'static str {
        "proposed-multientry"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn area(&self) -> AreaReport {
        self.area.proposed_with_entries(self.entries_per_set as u64)
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
        match *event {
            L2Event::Fill {
                set, way, write, ..
            } => {
                self.refresh_parity(l2, set, way);
                if write {
                    self.claim(l2, set, way, directives);
                }
            }
            L2Event::WriteHit { set, way, .. } => {
                self.refresh_parity(l2, set, way);
                self.claim(l2, set, way, directives);
            }
            L2Event::Evict { set, way, .. } => {
                // The frame changes identity: drop the live entry and any
                // retiring checks bound to this way.
                self.release(set, way);
            }
            L2Event::Cleaned { set, way, .. } => {
                self.release(set, way);
            }
            L2Event::ReadHit { .. } => {}
            // Checker-only granularity: the WriteHit of the same drain
            // batch already re-encoded the merged line image.
            L2Event::WordWritten { .. } => {}
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
        if was_dirty {
            let checks = match self.checks_for(set, way) {
                Some(c) => c.to_vec(),
                None => {
                    debug_assert!(false, "dirty line without an ECC entry");
                    return RecoveryOutcome::Unrecoverable;
                }
            };
            let words: Vec<u64> = l2
                .line_data(set, way)
                .expect("the protected L2 stores line data")
                .to_vec();
            let mut repaired = 0usize;
            for (i, &w) in words.iter().enumerate() {
                match self.code.decode(w, checks[i]) {
                    Decoded::Clean { .. } => {}
                    Decoded::Corrected { data, .. } => {
                        l2.write_word(set, way, i, data);
                        repaired += 1;
                    }
                    Decoded::Uncorrectable => return RecoveryOutcome::Unrecoverable,
                }
            }
            if repaired > 0 {
                self.refresh_parity(l2, set, way);
                RecoveryOutcome::CorrectedByEcc { words: repaired }
            } else {
                RecoveryOutcome::Clean
            }
        } else {
            let stored = self.parity[self.parity_slot(set, way)];
            let ok = {
                let data = l2
                    .line_data(set, way)
                    .expect("the protected L2 stores line data");
                InterleavedParity::verify(data, stored).is_ok()
            };
            if ok {
                return RecoveryOutcome::Clean;
            }
            let fresh = memory.read_line(view.line);
            for (i, &w) in fresh.iter().enumerate() {
                l2.write_word(set, way, i, w);
            }
            self.refresh_parity(l2, set, way);
            RecoveryOutcome::RecoveredByRefetch
        }
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        if let Some(checks) = self.checks_for(set, way) {
            let checks = checks.to_vec();
            let mut repaired = 0usize;
            for (i, w) in data.iter_mut().enumerate() {
                match self.code.decode(*w, checks[i]) {
                    Decoded::Clean { .. } => {}
                    Decoded::Corrected { data, .. } => {
                        *w = data;
                        repaired += 1;
                    }
                    Decoded::Uncorrectable => return RecoveryOutcome::Unrecoverable,
                }
            }
            if repaired > 0 {
                RecoveryOutcome::CorrectedByEcc { words: repaired }
            } else {
                RecoveryOutcome::Clean
            }
        } else {
            let stored = self.parity[self.parity_slot(set, way)];
            if InterleavedParity::verify(data, stored).is_ok() {
                RecoveryOutcome::Clean
            } else {
                RecoveryOutcome::Unrecoverable
            }
        }
    }

    fn protected_dirty_lines(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        self.checks_for(set, way).is_some()
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.find_invariant_violation(l2).map(|set| {
            format!(
                "multi-entry ECC array (k={}) inconsistent with cache state at set {set}",
                self.entries_per_set
            )
        })
    }

    fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("protected_dirty_lines", self.protected_dirty_lines() as u64);
        reg.scoped("energy", |r| self.energy_counters().register_stats(r));
        reg.scoped("ecc_array", |r| {
            self.stats.register_stats(r);
            r.counter("entries_per_set", self.entries_per_set as u64);
            r.counter(
                "in_flight_retiring",
                self.retiring.iter().map(|v| v.len() as u64).sum(),
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::NonUniformScheme;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::{AccessKind, WbClass};

    struct Harness {
        l2: Cache,
        scheme: MultiEntryScheme,
        mem: MainMemory,
        ecc_wb: u64,
    }

    impl Harness {
        fn new(entries: usize) -> Self {
            let cfg = CacheConfig::tiny_l2();
            let scheme = MultiEntryScheme::new(&cfg, entries);
            let mut l2 = Cache::new(cfg);
            l2.set_event_emission(true);
            Harness {
                l2,
                scheme,
                mem: MainMemory::new(100, 8),
                ecc_wb: 0,
            }
        }

        fn write_line(&mut self, line: LineAddr, seed: u64) {
            if self.l2.peek(line).is_none() {
                self.l2.lookup(line, AccessKind::Write, 0);
                let data: Box<[u64]> = (0..8).map(|i| seed ^ i).collect();
                self.l2.install(line, true, 0, Some(&data));
            } else {
                self.l2.lookup(line, AccessKind::Write, 0);
            }
            loop {
                let events = self.l2.take_events();
                if events.is_empty() {
                    break;
                }
                let mut dirs = Vec::new();
                for ev in &events {
                    self.scheme.on_event(ev, &self.l2, &mut dirs);
                }
                for Directive::ForceClean { set, way } in dirs {
                    if let Some(ev) = self.l2.force_clean(set, way, 0, WbClass::EccEviction) {
                        self.mem
                            .write_line(ev.line, self.l2.line_data(set, way).unwrap());
                        self.ecc_wb += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn two_entries_allow_two_dirty_lines_per_set() {
        let mut h = Harness::new(2);
        h.write_line(LineAddr(0), 1);
        h.write_line(LineAddr(16), 2); // same set, second way
        assert_eq!(h.ecc_wb, 0, "two entries hold both lines");
        assert_eq!(h.scheme.protected_dirty_lines(), 2);
        h.write_line(LineAddr(32), 3); // third dirty way: evicts the oldest
        assert_eq!(h.ecc_wb, 1);
        assert_eq!(h.scheme.find_invariant_violation(&h.l2), None);
    }

    #[test]
    fn fifo_eviction_picks_the_oldest_entry() {
        let mut h = Harness::new(2);
        h.write_line(LineAddr(0), 1);
        h.write_line(LineAddr(16), 2);
        // Refresh line 0 so line 16 becomes the oldest.
        h.write_line(LineAddr(0), 9);
        h.write_line(LineAddr(32), 3);
        // Line 16's way must have been force-cleaned.
        let (set, way) = h.l2.peek(LineAddr(16)).unwrap();
        assert!(!h.l2.line_view(set, way).dirty);
        let (_, way0) = h.l2.peek(LineAddr(0)).unwrap();
        assert!(h.l2.line_view(set, way0).dirty, "refreshed line survives");
        let _ = way;
    }

    #[test]
    fn k_equals_1_matches_the_paper_scheme() {
        // Drive both schemes with the same event stream and compare the
        // induced cache state and write-back counts.
        let cfg = CacheConfig::tiny_l2();
        let mut multi = Harness::new(1);
        let mut single_l2 = Cache::new(cfg.clone());
        single_l2.set_event_emission(true);
        let mut single = NonUniformScheme::new(&cfg);
        let mut single_wb = 0u64;

        let writes = [0u64, 16, 0, 32, 48, 16, 5, 21, 5, 37];
        for (i, &line) in writes.iter().enumerate() {
            multi.write_line(LineAddr(line), i as u64);

            // Mirror on the single-entry scheme.
            let line = LineAddr(line);
            if single_l2.peek(line).is_none() {
                single_l2.lookup(line, AccessKind::Write, 0);
                let data: Box<[u64]> = (0..8).map(|w| (i as u64) ^ w).collect();
                single_l2.install(line, true, 0, Some(&data));
            } else {
                single_l2.lookup(line, AccessKind::Write, 0);
            }
            loop {
                let events = single_l2.take_events();
                if events.is_empty() {
                    break;
                }
                let mut dirs = Vec::new();
                for ev in &events {
                    single.on_event(ev, &single_l2, &mut dirs);
                }
                for Directive::ForceClean { set, way } in dirs {
                    if single_l2
                        .force_clean(set, way, 0, WbClass::EccEviction)
                        .is_some()
                    {
                        single_wb += 1;
                    }
                }
            }
        }
        assert_eq!(multi.ecc_wb, single_wb, "k=1 must match the paper scheme");
        assert_eq!(multi.l2.dirty_line_count(), single_l2.dirty_line_count());
    }

    #[test]
    fn displaced_entry_still_corrects_during_its_ecc_writeback() {
        // FIFO displacement queues a ForceClean; until it drains, the
        // victim's checks ride the ECC-WB and must still correct strikes.
        let mut h = Harness::new(1);
        h.write_line(LineAddr(0), 1);
        let (set, way_a) = h.l2.peek(LineAddr(0)).unwrap();
        h.l2.lookup(LineAddr(16), AccessKind::Write, 0);
        let data: Box<[u64]> = (0..8).map(|i| 2 ^ i).collect();
        let out = h.l2.install(LineAddr(16), true, 0, Some(&data));
        assert_ne!(out.way, way_a);
        let events = h.l2.take_events();
        let mut dirs = Vec::new();
        for ev in &events {
            h.scheme.on_event(ev, &h.l2, &mut dirs);
        }
        assert_eq!(dirs.len(), 1, "the displacement queues one ECC-WB");

        let before = h.l2.line_data(set, way_a).unwrap().to_vec();
        h.l2.strike(set, way_a, 6, 21);
        let mut buf = h.l2.line_data(set, way_a).unwrap().to_vec();
        let outcome = h.scheme.verify_writeback(set, way_a, &mut buf);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(buf, before, "the write-back payload is repaired");

        for Directive::ForceClean { set, way } in dirs {
            if let Some(ev) = h.l2.force_clean(set, way, 0, WbClass::EccEviction) {
                h.mem.write_line(ev.line, h.l2.line_data(set, way).unwrap());
                h.ecc_wb += 1;
            }
        }
        let events = h.l2.take_events();
        let mut dirs = Vec::new();
        for ev in &events {
            h.scheme.on_event(ev, &h.l2, &mut dirs);
        }
        assert!(dirs.is_empty());
        assert_eq!(h.scheme.find_invariant_violation(&h.l2), None);
    }

    #[test]
    fn area_scales_with_entries() {
        let cfg = CacheConfig::date2006_l2();
        let one = MultiEntryScheme::new(&cfg, 1);
        let two = MultiEntryScheme::new(&cfg, 2);
        assert_eq!(one.area().total().kib(), 54.0);
        assert_eq!(two.area().total().kib(), 86.0);
    }

    #[test]
    fn recovery_paths_work_for_both_line_states() {
        let mut h = Harness::new(2);
        h.write_line(LineAddr(3), 42);
        let (set, way) = h.l2.peek(LineAddr(3)).unwrap();
        let before = h.l2.line_data(set, way).unwrap().to_vec();
        h.l2.strike(set, way, 1, 11);
        let outcome = h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(h.l2.line_data(set, way).unwrap(), before.as_slice());
    }

    #[test]
    #[should_panic(expected = "more entries than ways")]
    fn too_many_entries_rejected() {
        let _ = MultiEntryScheme::new(&CacheConfig::tiny_l2(), 5);
    }
}
