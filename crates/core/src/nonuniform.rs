//! The proposed scheme: non-uniform protection with a shared per-set ECC
//! array (§3.1 + §3.3 of the paper).
//!
//! Storage architecture (paper Figure 2): one **parity array per cache
//! way** — always maintained, for every line — plus **one ECC array for
//! all cache ways**, with a single entry per cache *set* (8 bytes per
//! entry: one SECDED check byte per 64-bit word of the line).
//!
//! The load-bearing invariant is **at most one dirty line per set**:
//!
//! * when a set's ECC entry is free, a write claims it;
//! * when the write targets the way that already owns the entry, the
//!   entry's check bits are refreshed;
//! * when a *different* way of the same set is written, the previous
//!   owner's entry is evicted — *"which must be written back to the main
//!   memory since we can no longer provide ECC protection for the cache
//!   line"* — surfacing as a [`Directive::ForceClean`] that the simulator
//!   turns into an **ECC-WB** write-back;
//! * eviction or cleaning of the owning line frees the entry.
//!
//! Recovery: dirty lines decode against their ECC entry (single-bit
//! correction); clean lines that fail parity are refetched from memory.

use aep_ecc::parity::InterleavedParity;
use aep_ecc::{Decoded, Secded64};
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::scheme::{Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome};

/// One shared ECC-array entry: which way owns it and the line's checks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct EccEntry {
    way: usize,
    checks: Box<[u8]>,
}

/// Statistics specific to the proposed scheme.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NonUniformStats {
    /// ECC entries claimed by a write to an empty slot.
    pub entries_allocated: u64,
    /// Refreshes of an entry already owned by the writing way.
    pub entries_refreshed: u64,
    /// Entries evicted by a write to a different way (each one an ECC-WB).
    pub entries_evicted: u64,
    /// Displaced in-flight entries retired by the completion of their
    /// ECC-WB (or the displaced line's eviction).
    pub entries_retired: u64,
}

impl NonUniformStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("entries_allocated", self.entries_allocated);
        reg.counter("entries_refreshed", self.entries_refreshed);
        reg.counter("entries_evicted", self.entries_evicted);
        reg.counter("entries_retired", self.entries_retired);
    }
}

/// The paper's non-uniform protection scheme.
#[derive(Debug, Clone)]
pub struct NonUniformScheme {
    code: Secded64,
    /// Per-line interleaved parity (one array per way, flattened).
    parity: Vec<InterleavedParity>,
    /// The shared ECC array: one optional entry per set.
    entries: Vec<Option<EccEntry>>,
    /// Entries displaced by [`Self::claim_entry`] whose forced clean-back
    /// (ECC-WB) has not yet completed. The displaced check bits travel
    /// with the write-back — "which must be written back to the main
    /// memory" — so they keep protecting the displaced line until its
    /// `Cleaned`/`Evict` event retires them. This is in-flight state, not
    /// extra storage: it models the ECC data on the write-back path.
    retiring: Vec<Vec<EccEntry>>,
    ways: usize,
    area: AreaModel,
    stats: NonUniformStats,
    energy: EnergyCounters,
}

impl NonUniformScheme {
    /// Builds the scheme for an L2 with configuration `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        NonUniformScheme {
            code: Secded64::new(),
            parity: vec![InterleavedParity::default(); l2.lines() as usize],
            entries: vec![None; l2.sets() as usize],
            retiring: vec![Vec::new(); l2.sets() as usize],
            ways: l2.ways as usize,
            area: AreaModel::new(l2),
            stats: NonUniformStats::default(),
            energy: EnergyCounters::default(),
        }
    }

    /// Scheme-specific statistics.
    #[must_use]
    pub fn stats(&self) -> NonUniformStats {
        self.stats
    }

    /// The set's current ECC-entry owner (diagnostics/tests).
    #[must_use]
    pub fn entry_owner(&self, set: usize) -> Option<usize> {
        self.entries[set].as_ref().map(|e| e.way)
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

    /// A write dirtied (`set`, `way`): claim or refresh the set's ECC
    /// entry, evicting another way's entry if necessary.
    fn claim_entry(&mut self, l2: &Cache, set: usize, way: usize, directives: &mut Vec<Directive>) {
        let checks = self.encode_checks(l2, set, way);
        match &mut self.entries[set] {
            Some(entry) if entry.way == way => {
                entry.checks = checks;
                self.stats.entries_refreshed += 1;
            }
            Some(entry) => {
                // "This results in an eviction of the ECC data for the
                // dirty cache line already in the cache set, which must be
                // written back to the main memory."
                directives.push(Directive::ForceClean {
                    set,
                    way: entry.way,
                });
                let displaced = EccEntry {
                    way: entry.way,
                    checks: std::mem::replace(&mut entry.checks, checks),
                };
                entry.way = way;
                self.retiring[set].push(displaced);
                self.stats.entries_evicted += 1;
            }
            slot @ None => {
                *slot = Some(EccEntry { way, checks });
                self.stats.entries_allocated += 1;
            }
        }
    }

    fn release_entry(&mut self, set: usize, way: usize) {
        if self.entries[set].as_ref().is_some_and(|e| e.way == way) {
            self.entries[set] = None;
        }
        let before = self.retiring[set].len();
        self.retiring[set].retain(|e| e.way != way);
        self.stats.entries_retired += (before - self.retiring[set].len()) as u64;
    }

    /// The check bytes currently protecting (`set`, `way`): the set's
    /// live entry if this way owns it, else the freshest retiring entry
    /// riding the way's in-flight ECC-WB.
    fn checks_for(&self, set: usize, way: usize) -> Option<&[u8]> {
        if let Some(e) = self.entries[set].as_ref().filter(|e| e.way == way) {
            return Some(&e.checks);
        }
        self.retiring[set]
            .iter()
            .rev()
            .find(|e| e.way == way)
            .map(|e| &*e.checks)
    }

    /// Cross-checks the at-most-one-dirty-line-per-set invariant against
    /// the actual cache state (test/diagnostic support; O(lines)).
    ///
    /// Returns the first violating set, if any.
    #[must_use]
    pub fn find_invariant_violation(&self, l2: &Cache) -> Option<usize> {
        for set in 0..l2.sets() {
            let mut dirty_ways = Vec::new();
            for way in 0..l2.ways() {
                let v = l2.line_view(set, way);
                if v.valid && v.dirty {
                    dirty_ways.push(way);
                }
            }
            if dirty_ways.len() > 1 {
                return Some(set);
            }
            match (&self.entries[set], dirty_ways.first()) {
                (Some(e), Some(&w)) if e.way == w => {}
                (None, None) => {}
                // A dirty line must own the entry; an entry must have a
                // dirty owner.
                _ => return Some(set),
            }
            // Once directives settle, no ECC-WB is in flight.
            if !self.retiring[set].is_empty() {
                return Some(set);
            }
        }
        None
    }
}

impl ProtectionScheme for NonUniformScheme {
    fn name(&self) -> &'static str {
        "proposed-nonuniform"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn area(&self) -> AreaReport {
        self.area.proposed()
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
        match *event {
            L2Event::Fill {
                set, way, write, ..
            } => {
                self.refresh_parity(l2, set, way);
                self.energy.parity_encodes += 1;
                if write {
                    // Write-allocate fill: the line arrives dirty.
                    self.claim_entry(l2, set, way, directives);
                    self.energy.ecc_encodes += 1;
                }
            }
            L2Event::WriteHit { set, way, .. } => {
                self.refresh_parity(l2, set, way);
                self.claim_entry(l2, set, way, directives);
                self.energy.parity_encodes += 1;
                self.energy.ecc_encodes += 1;
            }
            L2Event::Evict { set, way, .. } => {
                // The frame changes identity: release the entry if this
                // way owned it and retire any in-flight ECC-WB checks.
                self.release_entry(set, way);
            }
            L2Event::Cleaned { set, way, .. } => {
                self.release_entry(set, way);
            }
            L2Event::ReadHit { dirty, .. } => {
                // Clean lines are parity-checked; dirty lines decode
                // against the shared ECC entry.
                if dirty {
                    self.energy.ecc_checks += 1;
                } else {
                    self.energy.parity_checks += 1;
                }
            }
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
            // Every dirty line has check bits: the live entry, or the
            // retiring copy travelling with its in-flight ECC-WB.
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
            // Clean line: parity detection + refetch recovery.
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
            // No ECC entry for this line: parity detection only.
            let stored = self.parity[self.parity_slot(set, way)];
            if InterleavedParity::verify(data, stored).is_ok() {
                RecoveryOutcome::Clean
            } else {
                RecoveryOutcome::Unrecoverable
            }
        }
    }

    fn protected_dirty_lines(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        // Live entry, or a retiring copy riding the in-flight ECC-WB —
        // either keeps the dirty line correctable.
        self.checks_for(set, way).is_some()
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.find_invariant_violation(l2)
            .map(|set| format!("nonuniform ECC array inconsistent with cache state at set {set}"))
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.energy
    }

    fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("protected_dirty_lines", self.protected_dirty_lines() as u64);
        reg.scoped("energy", |r| self.energy.register_stats(r));
        reg.scoped("ecc_array", |r| {
            self.stats.register_stats(r);
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
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::{AccessKind, WbClass};

    /// A miniature harness replaying cache events through the scheme and
    /// applying directives the way `aep-sim` does.
    struct Harness {
        l2: Cache,
        scheme: NonUniformScheme,
        mem: MainMemory,
        ecc_wb: u64,
    }

    impl Harness {
        fn new() -> Self {
            let cfg = CacheConfig::tiny_l2();
            let scheme = NonUniformScheme::new(&cfg);
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
            // Model a write-buffer retirement: write-allocate or hit.
            let (set, way) = match self.l2.peek(line) {
                Some((set, way)) => {
                    self.l2.lookup(line, AccessKind::Write, 0);
                    (set, way)
                }
                None => {
                    self.l2.lookup(line, AccessKind::Write, 0); // miss (counted)
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

        fn assert_invariant(&self) {
            assert_eq!(self.scheme.find_invariant_violation(&self.l2), None);
        }
    }

    // tiny_l2: 16 sets, 4 ways; lines mapping to set 0: LineAddr(k*16).

    #[test]
    fn first_write_claims_the_entry() {
        let mut h = Harness::new();
        let (set, way) = h.write_line(LineAddr(0), 1);
        assert_eq!(h.scheme.entry_owner(set), Some(way));
        assert_eq!(h.scheme.stats().entries_allocated, 1);
        assert_eq!(h.scheme.protected_dirty_lines(), 1);
        h.assert_invariant();
    }

    #[test]
    fn write_to_second_way_evicts_the_first_entry() {
        let mut h = Harness::new();
        let (set, way_a) = h.write_line(LineAddr(0), 1);
        let (set_b, way_b) = h.write_line(LineAddr(16), 2); // same set, other way
        assert_eq!(set, set_b);
        assert_ne!(way_a, way_b);
        // The first line was force-cleaned (ECC-WB) and the entry moved.
        assert_eq!(h.ecc_wb, 1);
        assert_eq!(h.scheme.entry_owner(set), Some(way_b));
        assert!(!h.l2.line_view(set, way_a).dirty, "old line cleaned");
        assert_eq!(h.l2.stats().writebacks_ecc_eviction, 1);
        h.assert_invariant();
    }

    #[test]
    fn at_most_one_dirty_line_per_set_across_many_writes() {
        let mut h = Harness::new();
        // Hammer writes across all 4 ways of set 3 repeatedly.
        for round in 0..8u64 {
            for way_line in 0..4u64 {
                h.write_line(LineAddr(3 + 16 * way_line), round * 10 + way_line);
                h.assert_invariant();
            }
        }
        // 32 writes, only the first allocated fresh; the rest rotated.
        assert_eq!(h.scheme.stats().entries_evicted, 31);
    }

    #[test]
    fn rewriting_the_owner_refreshes_without_eviction() {
        let mut h = Harness::new();
        h.write_line(LineAddr(5), 1);
        h.write_line(LineAddr(5), 2);
        h.write_line(LineAddr(5), 3);
        assert_eq!(h.ecc_wb, 0);
        assert_eq!(h.scheme.stats().entries_refreshed, 2);
        h.assert_invariant();
    }

    #[test]
    fn cleaning_releases_the_entry() {
        let mut h = Harness::new();
        let (set, way) = h.write_line(LineAddr(7), 9);
        let ev = h.l2.force_clean(set, way, 0, WbClass::Cleaning).unwrap();
        h.mem.write_line(ev.line, h.l2.line_data(set, way).unwrap());
        h.drain();
        assert_eq!(h.scheme.entry_owner(set), None);
        assert_eq!(h.scheme.protected_dirty_lines(), 0);
        h.assert_invariant();
    }

    #[test]
    fn eviction_of_the_dirty_line_releases_the_entry() {
        let mut h = Harness::new();
        let (set, _way) = h.write_line(LineAddr(2), 1);
        // Fill the set with clean lines until the dirty line is evicted.
        for k in 1..=4u64 {
            h.read_fill(LineAddr(2 + 16 * k));
        }
        // The dirty line (LRU at some point) must eventually be evicted;
        // the entry is then free.
        assert_eq!(h.scheme.entry_owner(set), None);
        h.assert_invariant();
    }

    #[test]
    fn dirty_line_strike_corrected_via_shared_entry() {
        let mut h = Harness::new();
        let (set, way) = h.write_line(LineAddr(4), 77);
        let before = h.l2.line_data(set, way).unwrap().to_vec();
        h.l2.strike(set, way, 5, 50);
        let outcome = h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(h.l2.line_data(set, way).unwrap(), before.as_slice());
    }

    #[test]
    fn clean_line_strike_recovered_by_refetch() {
        let mut h = Harness::new();
        let line = LineAddr(6);
        let (set, way) = h.read_fill(line);
        let pristine = h.mem.read_line(line);
        h.l2.strike(set, way, 2, 20);
        let outcome = h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem);
        assert_eq!(outcome, RecoveryOutcome::RecoveredByRefetch);
        assert_eq!(h.l2.line_data(set, way).unwrap(), &*pristine);
    }

    #[test]
    fn double_bit_on_dirty_line_is_unrecoverable() {
        let mut h = Harness::new();
        let (set, way) = h.write_line(LineAddr(8), 3);
        h.l2.strike(set, way, 1, 1);
        h.l2.strike(set, way, 1, 2);
        assert_eq!(
            h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem),
            RecoveryOutcome::Unrecoverable
        );
    }

    #[test]
    fn ecc_evicted_line_still_recoverable_clean() {
        // After an ECC-WB the old line is clean; a subsequent strike is
        // recovered by refetch — the end-to-end safety argument.
        let mut h = Harness::new();
        let (set, way_a) = h.write_line(LineAddr(0), 1);
        h.write_line(LineAddr(16), 2); // evicts A's ECC entry, cleans A
        let expected = h.l2.line_data(set, way_a).unwrap().to_vec();
        h.l2.strike(set, way_a, 3, 30);
        let outcome = h.scheme.verify_line(&mut h.l2, set, way_a, &mut h.mem);
        assert_eq!(outcome, RecoveryOutcome::RecoveredByRefetch);
        assert_eq!(h.l2.line_data(set, way_a).unwrap(), expected.as_slice());
    }

    #[test]
    fn displaced_entry_still_corrects_during_its_ecc_writeback() {
        // Between claim_entry() reassigning the set's entry and the
        // ForceClean directive draining, the displaced dirty line is
        // protected by the retiring checks riding its ECC-WB: a strike
        // landing in that window must still be correctable.
        let mut h = Harness::new();
        let (set, way_a) = h.write_line(LineAddr(0), 1);
        // Displace A's entry by hand, holding the directive un-executed.
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
        assert_eq!(h.scheme.entry_owner(set), Some(out.way));

        // Strike the displaced line mid-window and verify the write-back
        // payload heals via the retiring checks (not parity-DUE).
        let before = h.l2.line_data(set, way_a).unwrap().to_vec();
        h.l2.strike(set, way_a, 4, 13);
        let mut buf = h.l2.line_data(set, way_a).unwrap().to_vec();
        let outcome = h.scheme.verify_writeback(set, way_a, &mut buf);
        assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
        assert_eq!(buf, before, "the write-back payload is repaired");

        // Completing the clean-back retires the in-flight checks.
        for Directive::ForceClean { set, way } in dirs {
            if let Some(ev) = h.l2.force_clean(set, way, 0, WbClass::EccEviction) {
                h.mem.write_line(ev.line, h.l2.line_data(set, way).unwrap());
            }
        }
        h.drain();
        h.assert_invariant();
    }

    #[test]
    fn area_matches_the_paper_scaled() {
        let h = Harness::new();
        // tiny L2 (4 KB, 16 sets): parity 64B, written 8B, tag 8B,
        // status 8B, ECC array 16 sets * 8 B = 128 B.
        let report = h.scheme.area();
        assert_eq!(report.total().bits(), (64 + 8 + 8 + 8 + 128) * 8);
    }
}
