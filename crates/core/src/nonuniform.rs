//! The proposed scheme: non-uniform protection with a shared per-set ECC
//! array (§3.1 + §3.3 of the paper), and every variant of it this
//! reproduction evaluates.
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
//!
//! One [`NonUniformScheme`] serves the whole family; the [`SchemeKind`]
//! it is built from decides the rest:
//!
//! * [`SchemeKind::ProposedMulti`] widens the array to `k` entries per
//!   set (the design-space ablation): up to `k` dirty lines per set, the
//!   oldest entry (by last claim or refresh) evicted first. `k = 1` is the
//!   paper's design, so `proposed_multi:N:1` runs exactly as `proposed:N`.
//! * [`SchemeKind::SilentWriteEcc`] (Kishani et al., arXiv:2112.12667):
//!   the hierarchy classifies stores whose bytes match the resident line
//!   as *silent*; such a `WriteHit { silent: true }` leaves parity and
//!   any ECC entry valid, so it is elided and counted — no check bits are
//!   regenerated and no entry is claimed. Only this kind turns silent-store
//!   classification on, so no other kind ever sees such an event.
//! * [`SchemeKind::ReuseCopyback`] (Wang et al., arXiv:2105.14442) needs
//!   nothing here: its reuse-distance predictor lives in
//!   [`crate::cleaning::CleaningPolicy::ReusePredicted`], and its early
//!   copy-backs arrive as ordinary `Cleaned` events that free the entry.

use aep_ecc::parity::InterleavedParity;
use aep_ecc::{Decoded, Secded64};
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{CacheConfig, MainMemory};

use crate::area::{AreaModel, AreaReport};
use crate::scheme::{
    clone_into_box_with, refetch_line, Directive, EnergyCounters, ProtectionScheme,
    RecoveryOutcome, SchemeKind,
};

/// Owner value of an ECC-array slot no line holds.
const FREE: usize = usize::MAX;

/// Statistics specific to the non-uniform family.
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
    /// Write hits elided because the stored bytes matched the line; each
    /// one also skips an ECC check-bit regeneration.
    pub silent_hits_elided: u64,
}

/// The paper's non-uniform protection scheme, for any kind of its family.
#[derive(Debug, Clone)]
pub struct NonUniformScheme {
    kind: SchemeKind,
    code: Secded64,
    /// Per-line interleaved parity (one array per way, flattened).
    parity: Vec<InterleavedParity>,
    ways: usize,
    /// ECC entries per set (`k`).
    entries_per_set: usize,
    /// Check bytes per entry (one per 64-bit word of a line).
    words: usize,
    /// The shared ECC array, `entries_per_set` slots per set: slot
    /// `set * k + i` is owned by way `owner[slot]` (or [`FREE`]) ...
    owner: Vec<usize>,
    /// ... was last claimed or refreshed at `stamp[slot]` (FIFO order) ...
    stamp: Vec<u64>,
    /// ... and holds check bytes `checks[slot * words..][..words]`.
    checks: Vec<u8>,
    next_stamp: u64,
    /// Entries displaced by [`Self::claim_entry`] whose forced clean-back
    /// (ECC-WB) has not yet completed, oldest first, as (set, way); their
    /// check bytes sit in `retiring_checks`, `words` per entry. The
    /// displaced check bits travel with the write-back — "which must be
    /// written back to the main memory" — so they keep protecting the
    /// displaced line until its `Cleaned`/`Evict` event retires them. This
    /// is in-flight state, not extra storage: it models the ECC data on
    /// the write-back path.
    retiring: Vec<(usize, usize)>,
    retiring_checks: Vec<u8>,
    area: AreaModel,
    stats: NonUniformStats,
    energy: EnergyCounters,
}

impl NonUniformScheme {
    /// Builds the scheme `kind` serves for an L2 with configuration `l2`.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not one of the non-uniform family (`Proposed`,
    /// `ProposedMulti`, `SilentWriteEcc`, `ReuseCopyback`), or if a
    /// `ProposedMulti` asks for zero entries per set or more entries than
    /// ways (which can never be used).
    #[must_use]
    pub fn new(l2: &CacheConfig, kind: SchemeKind) -> Self {
        let entries_per_set = match kind {
            SchemeKind::ProposedMulti {
                entries_per_set, ..
            } => entries_per_set,
            SchemeKind::Proposed { .. }
            | SchemeKind::SilentWriteEcc { .. }
            | SchemeKind::ReuseCopyback { .. } => 1,
            other => panic!("{} is not a non-uniform scheme", other.label()),
        };
        assert!(entries_per_set >= 1, "at least one entry per set");
        assert!(
            entries_per_set <= l2.ways as usize,
            "more entries than ways is wasted area"
        );
        let words = l2.words_per_line();
        let slots = l2.sets() as usize * entries_per_set;
        NonUniformScheme {
            kind,
            code: Secded64::new(),
            parity: vec![InterleavedParity::default(); l2.lines() as usize],
            ways: l2.ways as usize,
            entries_per_set,
            words,
            owner: vec![FREE; slots],
            stamp: vec![0; slots],
            checks: vec![0; slots * words],
            next_stamp: 0,
            retiring: Vec::new(),
            retiring_checks: Vec::new(),
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

    /// The ways owning the set's live ECC entries (diagnostics/tests).
    pub fn entry_owners(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        self.set_slots(set)
            .map(|slot| self.owner[slot])
            .filter(|&way| way != FREE)
    }

    fn set_slots(&self, set: usize) -> std::ops::Range<usize> {
        set * self.entries_per_set..(set + 1) * self.entries_per_set
    }

    fn slot_of(&self, set: usize, way: usize) -> Option<usize> {
        self.set_slots(set).find(|&slot| self.owner[slot] == way)
    }

    /// The byte range of entry `i`'s checks in `checks` (slot `i`) or
    /// `retiring_checks` (retiring entry `i`).
    fn check_bytes(&self, i: usize) -> std::ops::Range<usize> {
        i * self.words..(i + 1) * self.words
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

    /// A write dirtied (`set`, `way`): claim or refresh one of the set's
    /// ECC entries, evicting the oldest other way's entry if none is free.
    fn claim_entry(&mut self, l2: &Cache, set: usize, way: usize, directives: &mut Vec<Directive>) {
        let slot = if let Some(slot) = self.slot_of(set, way) {
            self.stats.entries_refreshed += 1;
            slot
        } else if let Some(slot) = self.set_slots(set).find(|&s| self.owner[s] == FREE) {
            self.stats.entries_allocated += 1;
            slot
        } else {
            // "This results in an eviction of the ECC data for the dirty
            // cache line already in the cache set, which must be written
            // back to the main memory."
            let slot = self
                .set_slots(set)
                .min_by_key(|&s| self.stamp[s])
                .expect("a set has at least one slot");
            let victim = self.owner[slot];
            directives.push(Directive::ForceClean { set, way: victim });
            self.retiring.push((set, victim));
            self.retiring_checks
                .extend_from_slice(&self.checks[self.check_bytes(slot)]);
            self.stats.entries_evicted += 1;
            slot
        };
        self.next_stamp += 1;
        self.owner[slot] = way;
        self.stamp[slot] = self.next_stamp;
        let data = l2
            .line_data(set, way)
            .expect("the protected L2 stores line data");
        let bytes = self.check_bytes(slot);
        for (check, &word) in self.checks[bytes].iter_mut().zip(data) {
            *check = self.code.encode(word);
        }
    }

    fn release_entry(&mut self, set: usize, way: usize) {
        if let Some(slot) = self.slot_of(set, way) {
            self.owner[slot] = FREE;
        }
        for i in (0..self.retiring.len()).rev() {
            if self.retiring[i] == (set, way) {
                self.retiring.remove(i);
                let bytes = self.check_bytes(i);
                self.retiring_checks.drain(bytes);
                self.stats.entries_retired += 1;
            }
        }
    }

    /// The check bytes currently protecting (`set`, `way`): a live entry
    /// this way owns, else the freshest retiring entry riding the way's
    /// in-flight ECC-WB.
    fn checks_for(&self, set: usize, way: usize) -> Option<&[u8]> {
        if let Some(slot) = self.slot_of(set, way) {
            return Some(&self.checks[self.check_bytes(slot)]);
        }
        let i = self.retiring.iter().rposition(|&r| r == (set, way))?;
        Some(&self.retiring_checks[self.check_bytes(i)])
    }

    /// Cross-checks the invariant — at most `k` dirty lines per set, in
    /// exact correspondence with the set's live entries, and no ECC-WB in
    /// flight once directives settle — against the actual cache state
    /// (test/diagnostic support; O(lines)).
    ///
    /// Returns the first violating set, if any.
    #[must_use]
    pub fn find_invariant_violation(&self, l2: &Cache) -> Option<usize> {
        (0..l2.sets()).find(|&set| {
            let mut dirty = 0;
            for way in 0..l2.ways() {
                let v = l2.line_view(set, way);
                if v.valid && v.dirty {
                    dirty += 1;
                    // A dirty line must own an entry ...
                    if self.slot_of(set, way).is_none() {
                        return true;
                    }
                }
            }
            // ... every entry must have a dirty owner, and once directives
            // settle no ECC-WB is in flight.
            dirty != self.entry_owners(set).count() || self.retiring.iter().any(|&(s, _)| s == set)
        })
    }
}

impl ProtectionScheme for NonUniformScheme {
    fn name(&self) -> &'static str {
        match self.kind {
            SchemeKind::ProposedMulti { .. } => "proposed-multientry",
            SchemeKind::SilentWriteEcc { .. } => "silent-write-ecc",
            SchemeKind::ReuseCopyback { .. } => "reuse-copyback",
            _ => "proposed-nonuniform",
        }
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(self.clone())
    }

    fn clone_into_box(&self, target: &mut Box<dyn ProtectionScheme>) {
        clone_into_box_with(self, target, |dst, src| {
            let NonUniformScheme {
                kind,
                code,
                parity,
                ways,
                entries_per_set,
                words,
                owner,
                stamp,
                checks,
                next_stamp,
                retiring,
                retiring_checks,
                area,
                stats,
                energy,
            } = src;
            dst.parity.clone_from(parity);
            dst.owner.clone_from(owner);
            dst.stamp.clone_from(stamp);
            dst.checks.clone_from(checks);
            dst.retiring.clone_from(retiring);
            dst.retiring_checks.clone_from(retiring_checks);
            dst.area.clone_from(area);
            (dst.kind, dst.code, dst.ways, dst.entries_per_set, dst.words) =
                (*kind, *code, *ways, *entries_per_set, *words);
            (dst.next_stamp, dst.stats, dst.energy) = (*next_stamp, *stats, *energy);
        });
    }

    fn area(&self) -> AreaReport {
        self.area.for_scheme(self.kind)
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
            L2Event::WriteHit { silent: true, .. } => {
                // The store did not change the line: parity and any ECC
                // entry describing it are still valid. Skip regeneration
                // and — crucially — do not claim the set's ECC entry.
                self.stats.silent_hits_elided += 1;
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
            // Every dirty line has check bits: a live entry, or the
            // retiring copy travelling with its in-flight ECC-WB.
            let Some(checks) = self.checks_for(set, way) else {
                debug_assert!(false, "dirty line without an ECC entry");
                return RecoveryOutcome::Unrecoverable;
            };
            let mut repaired = 0usize;
            for (i, &check) in checks.iter().enumerate() {
                let word = l2
                    .line_data(set, way)
                    .expect("the protected L2 stores line data")[i];
                match self.code.decode(word, check) {
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
            let data = l2
                .line_data(set, way)
                .expect("the protected L2 stores line data");
            if InterleavedParity::verify(data, stored).is_ok() {
                return RecoveryOutcome::Clean;
            }
            refetch_line(l2, set, way, view.line, memory);
            self.refresh_parity(l2, set, way);
            RecoveryOutcome::RecoveredByRefetch
        }
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        if let Some(checks) = self.checks_for(set, way) {
            let mut repaired = 0usize;
            for (w, &check) in data.iter_mut().zip(checks) {
                match self.code.decode(*w, check) {
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
        self.owner.iter().filter(|&&way| way != FREE).count()
    }

    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        // Live entry, or a retiring copy riding the in-flight ECC-WB —
        // either keeps the dirty line correctable.
        self.checks_for(set, way).is_some()
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.find_invariant_violation(l2).map(|set| {
            format!(
                "nonuniform ECC array (k={}) inconsistent with cache state at set {set}",
                self.entries_per_set
            )
        })
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.energy
    }

    fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("protected_dirty_lines", self.protected_dirty_lines() as u64);
        reg.scoped("energy", |r| self.energy.register_stats(r));
        reg.scoped("ecc_array", |r| {
            r.counter("entries_allocated", self.stats.entries_allocated);
            r.counter("entries_refreshed", self.stats.entries_refreshed);
            r.counter("entries_evicted", self.stats.entries_evicted);
            r.counter("entries_retired", self.stats.entries_retired);
            if let SchemeKind::ProposedMulti { .. } = self.kind {
                r.counter("entries_per_set", self.entries_per_set as u64);
            }
            r.counter("in_flight_retiring", self.retiring.len() as u64);
        });
        if let SchemeKind::SilentWriteEcc { .. } = self.kind {
            reg.scoped("silent", |r| {
                r.counter("silent_hits_elided", self.stats.silent_hits_elided);
                // One skipped regeneration per elided hit.
                r.counter("ecc_encodes_skipped", self.stats.silent_hits_elided);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_mem::addr::LineAddr;
    use aep_mem::cache::{AccessKind, WbClass};

    const PROPOSED: SchemeKind = SchemeKind::Proposed {
        cleaning_interval: 1 << 20,
    };
    const SILENT: SchemeKind = SchemeKind::SilentWriteEcc {
        cleaning_interval: 1 << 20,
    };
    const REUSE: SchemeKind = SchemeKind::ReuseCopyback {
        cleaning_interval: 1 << 20,
        multiplier: 4,
    };

    fn multi(entries_per_set: usize) -> SchemeKind {
        SchemeKind::ProposedMulti {
            cleaning_interval: 1 << 20,
            entries_per_set,
        }
    }

    /// A miniature harness replaying cache events through the scheme and
    /// applying directives the way `aep-sim` does.
    struct Harness {
        l2: Cache,
        scheme: NonUniformScheme,
        mem: MainMemory,
        ecc_wb: u64,
    }

    impl Harness {
        fn new(kind: SchemeKind) -> Self {
            let cfg = CacheConfig::tiny_l2();
            let scheme = NonUniformScheme::new(&cfg, kind);
            let mut l2 = Cache::new(cfg);
            l2.set_event_emission(true);
            Harness {
                l2,
                scheme,
                mem: MainMemory::new(100, 8),
                ecc_wb: 0,
            }
        }

        /// Replays pending events, returning the directives they raised.
        fn replay(&mut self) -> Vec<Directive> {
            let mut dirs = Vec::new();
            for ev in &self.l2.take_events() {
                self.scheme.on_event(ev, &self.l2, &mut dirs);
            }
            dirs
        }

        fn apply(&mut self, dirs: Vec<Directive>) {
            for Directive::ForceClean { set, way } in dirs {
                if let Some(ev) = self.l2.force_clean(set, way, 0, WbClass::EccEviction) {
                    self.mem
                        .write_line(ev.line, self.l2.line_data(set, way).unwrap());
                    self.ecc_wb += 1;
                }
            }
        }

        fn drain(&mut self) {
            loop {
                let dirs = self.replay();
                if dirs.is_empty() {
                    break;
                }
                self.apply(dirs);
            }
        }

        /// Models a write-buffer retirement: write-allocate or hit, then
        /// the merged word; events stay pending.
        fn store(&mut self, line: LineAddr, seed: u64) -> (usize, usize) {
            self.l2.lookup(line, AccessKind::Write, 0);
            let (set, way) = self.l2.peek(line).unwrap_or_else(|| {
                let data: Box<[u64]> = (0..8).map(|i| seed ^ i).collect();
                let out = self.l2.install(line, true, 0, Some(&data));
                (out.set, out.way)
            });
            self.l2.write_word(set, way, 0, seed);
            (set, way)
        }

        fn write_line(&mut self, line: LineAddr, seed: u64) -> (usize, usize) {
            let at = self.store(line, seed);
            self.drain();
            at
        }

        fn read_fill(&mut self, line: LineAddr) -> (usize, usize) {
            let data = self.mem.read_line(line);
            let out = self.l2.install(line, false, 0, Some(&data));
            self.drain();
            (out.set, out.way)
        }

        fn owners(&self, set: usize) -> Vec<usize> {
            self.scheme.entry_owners(set).collect()
        }

        fn is_dirty(&self, line: LineAddr) -> bool {
            let (set, way) = self.l2.peek(line).unwrap();
            self.l2.line_view(set, way).dirty
        }

        fn assert_invariant(&self) {
            assert_eq!(self.scheme.find_invariant_violation(&self.l2), None);
        }
    }

    // tiny_l2: 16 sets, 4 ways; lines mapping to set 0: LineAddr(k*16).

    #[test]
    fn first_write_claims_the_entry() {
        let mut h = Harness::new(PROPOSED);
        let (set, way) = h.write_line(LineAddr(0), 1);
        assert_eq!(h.owners(set), [way]);
        assert_eq!(h.scheme.stats().entries_allocated, 1);
        assert_eq!(h.scheme.protected_dirty_lines(), 1);
        h.assert_invariant();
    }

    #[test]
    fn write_to_second_way_evicts_the_first_entry() {
        // Silent-store elision and reuse copy-back keep the discipline for
        // every store that really changes the line.
        for kind in [PROPOSED, SILENT, REUSE] {
            let mut h = Harness::new(kind);
            let (set, way_a) = h.write_line(LineAddr(0), 1);
            let (set_b, way_b) = h.write_line(LineAddr(16), 2); // same set, other way
            assert_eq!(set, set_b);
            assert_ne!(way_a, way_b);
            // The first line was force-cleaned (ECC-WB) and the entry moved.
            assert_eq!(h.ecc_wb, 1);
            assert_eq!(h.owners(set), [way_b]);
            assert!(!h.l2.line_view(set, way_a).dirty, "old line cleaned");
            assert_eq!(h.l2.stats().writebacks_ecc_eviction, 1);
            h.assert_invariant();
        }
    }

    #[test]
    fn at_most_one_dirty_line_per_set_across_many_writes() {
        let mut h = Harness::new(PROPOSED);
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
        let mut h = Harness::new(PROPOSED);
        h.write_line(LineAddr(5), 1);
        h.write_line(LineAddr(5), 2);
        h.write_line(LineAddr(5), 3);
        assert_eq!(h.ecc_wb, 0);
        assert_eq!(h.scheme.stats().entries_refreshed, 2);
        h.assert_invariant();
    }

    #[test]
    fn two_entries_allow_two_dirty_lines_per_set() {
        let mut h = Harness::new(multi(2));
        h.write_line(LineAddr(0), 1);
        h.write_line(LineAddr(16), 2); // same set, second way
        assert_eq!(h.ecc_wb, 0, "two entries hold both lines");
        assert_eq!(h.scheme.protected_dirty_lines(), 2);
        h.write_line(LineAddr(32), 3); // third dirty way: evicts the oldest
        assert_eq!(h.ecc_wb, 1);
        h.assert_invariant();
    }

    #[test]
    fn fifo_eviction_picks_the_oldest_entry() {
        let mut h = Harness::new(multi(2));
        h.write_line(LineAddr(0), 1);
        h.write_line(LineAddr(16), 2);
        // Refresh line 0 so line 16 becomes the oldest.
        h.write_line(LineAddr(0), 9);
        h.write_line(LineAddr(32), 3);
        assert!(!h.is_dirty(LineAddr(16)), "the oldest entry was evicted");
        assert!(h.is_dirty(LineAddr(0)), "refreshed line survives");
        assert!(h.is_dirty(LineAddr(32)));
        h.assert_invariant();
    }

    #[test]
    fn cleaning_releases_the_entry() {
        let mut h = Harness::new(PROPOSED);
        let (set, way) = h.write_line(LineAddr(7), 9);
        let ev = h.l2.force_clean(set, way, 0, WbClass::Cleaning).unwrap();
        h.mem.write_line(ev.line, h.l2.line_data(set, way).unwrap());
        h.drain();
        assert_eq!(h.owners(set), []);
        assert_eq!(h.scheme.protected_dirty_lines(), 0);
        h.assert_invariant();
    }

    #[test]
    fn reuse_early_copyback_releases_the_entry() {
        let mut h = Harness::new(REUSE);
        let (set, way) = h.write_line(LineAddr(3), 9);
        assert_eq!(h.owners(set), [way]);

        // The write sets the written bit: the first probe grants grace,
        // the second (line long idle, gap fallback 10) copies back.
        for now in [1000u64, 2000] {
            for ev in h.l2.reuse_probe(set, now, 4, 10) {
                h.mem
                    .write_line(ev.line, h.l2.line_data(set, ev.way).unwrap());
            }
            h.drain();
        }
        assert!(!h.l2.line_view(set, way).dirty, "copied back early");
        assert_eq!(h.owners(set), []);
        h.assert_invariant();
    }

    #[test]
    fn eviction_of_the_dirty_line_releases_the_entry() {
        let mut h = Harness::new(PROPOSED);
        let (set, _way) = h.write_line(LineAddr(2), 1);
        // Fill the set with clean lines until the dirty line is evicted.
        for k in 1..=4u64 {
            h.read_fill(LineAddr(2 + 16 * k));
        }
        // The dirty line (LRU at some point) must eventually be evicted;
        // the entry is then free.
        assert_eq!(h.owners(set), []);
        h.assert_invariant();
    }

    #[test]
    fn silent_write_hit_claims_no_entry() {
        let mut h = Harness::new(SILENT);
        let (set, way) = h.read_fill(LineAddr(0));
        // The hierarchy classified a store as silent: the scheme must
        // not claim the set's ECC entry or touch parity.
        h.l2.silent_write_hit(set, way, 5);
        h.drain();
        assert_eq!(h.owners(set), []);
        assert_eq!(h.scheme.stats().silent_hits_elided, 1);
        assert_eq!(h.scheme.energy_counters().ecc_encodes, 0);
        assert_eq!(h.scheme.protected_dirty_lines(), 0);
        h.assert_invariant();
    }

    #[test]
    fn silent_hit_on_dirty_owner_keeps_checks_valid() {
        let mut h = Harness::new(SILENT);
        let (set, way) = h.write_line(LineAddr(4), 77);
        assert_eq!(h.owners(set), [way]);
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
    fn dirty_line_strike_corrected_via_shared_entry() {
        for kind in [PROPOSED, multi(2), REUSE] {
            let mut h = Harness::new(kind);
            let (set, way) = h.write_line(LineAddr(4), 77);
            let before = h.l2.line_data(set, way).unwrap().to_vec();
            h.l2.strike(set, way, 5, 50);
            let outcome = h.scheme.verify_line(&mut h.l2, set, way, &mut h.mem);
            assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
            assert_eq!(h.l2.line_data(set, way).unwrap(), before.as_slice());
        }
    }

    #[test]
    fn clean_line_strike_recovered_by_refetch() {
        let mut h = Harness::new(PROPOSED);
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
        let mut h = Harness::new(PROPOSED);
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
        let mut h = Harness::new(PROPOSED);
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
        // Between claim_entry() reassigning the oldest entry and the
        // ForceClean directive draining, the displaced dirty line is
        // protected by the retiring checks riding its ECC-WB: a strike
        // landing in that window must still be correctable.
        for k in [1, 2] {
            let mut h = Harness::new(multi(k));
            let (set, way_a) = h.write_line(LineAddr(0), 1);
            for n in 1..k as u64 {
                h.write_line(LineAddr(16 * n), n + 1);
            }
            // Displace A's entry, holding the directive un-executed.
            let (_, way_new) = h.store(LineAddr(16 * k as u64), 9);
            let dirs = h.replay();
            assert_eq!(
                dirs,
                [Directive::ForceClean { set, way: way_a }],
                "k={k}: the displacement queues one ECC-WB of the oldest entry"
            );
            assert!(h.scheme.entry_owners(set).any(|w| w == way_new));

            // Strike the displaced line mid-window and verify the
            // write-back payload heals via the retiring checks (not
            // parity-DUE).
            let before = h.l2.line_data(set, way_a).unwrap().to_vec();
            h.l2.strike(set, way_a, 4, 13);
            let mut buf = h.l2.line_data(set, way_a).unwrap().to_vec();
            let outcome = h.scheme.verify_writeback(set, way_a, &mut buf);
            assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
            assert_eq!(buf, before, "k={k}: the write-back payload is repaired");

            // Completing the clean-back retires the in-flight checks and
            // raises no further directives.
            h.apply(dirs);
            assert!(h.replay().is_empty(), "k={k}: the ECC-WB queues nothing");
            assert_eq!(h.scheme.stats().entries_retired, 1);
            h.assert_invariant();
        }
    }

    #[test]
    fn area_totals_follow_the_kind() {
        // tiny L2 (4 KB, 16 sets, 64 lines): parity 64B, written 8B,
        // tag 8B, status 8B, ECC array 16 sets * 8 B = 128 B.
        let proposed = (64 + 8 + 8 + 8 + 128) * 8;
        let cfg = CacheConfig::tiny_l2();
        let bits = |kind| NonUniformScheme::new(&cfg, kind).area().total().bits();
        assert_eq!(bits(PROPOSED), proposed);
        assert_eq!(bits(multi(1)), proposed);
        assert_eq!(bits(multi(2)), proposed + 128 * 8);
        // Plus the 64-bit store-path comparator ...
        assert_eq!(bits(SILENT), proposed + 64);
        // ... or 2 x 16 predictor bits per line.
        assert_eq!(bits(REUSE), proposed + 64 * 32);
        let table = |kind| NonUniformScheme::new(&cfg, kind).area().to_table();
        assert!(table(SILENT).contains("comparator"));
        assert!(table(REUSE).contains("predictor"));

        let paper = CacheConfig::date2006_l2();
        let kib = |kind| NonUniformScheme::new(&paper, kind).area().total().kib();
        assert_eq!(kib(multi(1)), 54.0);
        assert_eq!(kib(multi(2)), 86.0);
    }

    #[test]
    #[should_panic(expected = "more entries than ways")]
    fn more_entries_than_ways_rejected() {
        let _ = NonUniformScheme::new(&CacheConfig::tiny_l2(), multi(5));
    }
}
