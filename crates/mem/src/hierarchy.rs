//! The composed memory system: L1I, L1D + write buffer, unified L2, bus,
//! and main memory, with the paper's latency semantics.
//!
//! All public access methods take the current cycle `now` and return the
//! **absolute completion cycle** of the access, so the CPU model can wake
//! dependents at the right time. Contention is modelled at two points:
//!
//! * the **L2 port** (one new access per cycle; L1 misses, write-buffer
//!   retirements, and the cleaning logic all compete — L1 has priority, as
//!   in the paper);
//! * the **off-chip bus** (8 B/cycle, split transactions; line fills use an
//!   address beat plus a data burst separated by the DRAM latency, and
//!   write-backs occupy data beats that delay subsequent fills — this is
//!   exactly the mechanism by which the paper's extra write-back traffic
//!   costs IPC).

use crate::addr::Addr;
use crate::bus::{Bus, BusStats};
use crate::cache::{AccessKind, Cache, EvictedLine, L2Event, Lookup, WbClass};
use crate::config::HierarchyConfig;
use crate::memory::{mix64, MainMemory};
use crate::write_buffer::{PushOutcome, WriteBuffer, WriteBufferStats};
use crate::Cycle;

/// Counters of CPU-visible memory operations (the denominator of the
/// paper's "% write backs out of all loads/stores").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Committed loads issued to the hierarchy.
    pub loads: u64,
    /// Committed stores issued to the hierarchy.
    pub stores: u64,
    /// Instruction fetches issued to the hierarchy.
    pub fetches: u64,
}

impl OpCounts {
    /// Loads plus stores.
    #[must_use]
    pub fn loads_stores(&self) -> u64 {
        self.loads + self.stores
    }
}

/// The full memory system of Table 1.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    wb: WriteBuffer,
    l2: Cache,
    bus: Bus,
    mem: MainMemory,
    /// First cycle at which the L2 port accepts a new access.
    l2_port_free_at: Cycle,
    ops: OpCounts,
    store_seq: u64,
    prefetches_issued: u64,
    silent_elision: bool,
    silent_fills: u64,
    /// One L2 line of scratch for fill images on their way from memory
    /// into the L2.
    fill_buf: Vec<u64>,
    /// One L2 line of scratch for the payload of a retiring write-buffer
    /// entry.
    store_buf: Vec<u64>,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`HierarchyConfig::validate`].
    #[must_use]
    pub fn new(cfg: HierarchyConfig) -> Self {
        cfg.validate()
            .expect("hierarchy configuration must be valid");
        let l2_words = cfg.l2.words_per_line();
        MemoryHierarchy {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            wb: WriteBuffer::new(cfg.write_buffer_entries, l2_words),
            l2: Cache::new(cfg.l2.clone()),
            bus: Bus::new(cfg.bus_bytes_per_cycle),
            mem: MainMemory::new(cfg.memory_latency, l2_words),
            l2_port_free_at: 0,
            ops: OpCounts::default(),
            store_seq: 0,
            prefetches_issued: 0,
            silent_elision: false,
            silent_fills: 0,
            fill_buf: vec![0; l2_words],
            store_buf: vec![0; l2_words],
            cfg,
        }
    }

    /// Turns silent-store classification on: a store whose bytes match
    /// the L2-resident line (or, on a write-allocate miss, the freshly
    /// fetched memory image) is elided — the line's dirty/written state
    /// is left untouched and no payload is applied. Off by default; only
    /// the silent-write-aware ECC scheme (Kishani et al.,
    /// arXiv:2112.12667) enables it.
    ///
    /// Store values are synthesized from the instruction stream. With
    /// elision off every store carries a globally unique value, so silent
    /// stores never occur and no run can depend on value coincidences.
    /// With it on a store's value is a pure function of its address, so
    /// any re-store of an address is byte-identical to the first.
    pub fn set_silent_store_elision(&mut self, enabled: bool) {
        self.silent_elision = enabled;
    }

    /// Whether silent-store elision is on: the only path on which the
    /// machine's timing reads line data (see
    /// [`MemoryHierarchy::set_silent_store_elision`]).
    #[must_use]
    pub fn elides_silent_stores(&self) -> bool {
        self.silent_elision
    }

    /// Number of write-allocate fills whose store payload matched the
    /// memory image exactly and therefore installed clean.
    #[must_use]
    pub fn silent_fills(&self) -> u64 {
        self.silent_fills
    }

    /// The hierarchy built with the paper's Table 1 parameters.
    #[must_use]
    pub fn date2006() -> Self {
        Self::new(HierarchyConfig::date2006())
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// An instruction fetch of the block containing `addr`.
    ///
    /// Returns the absolute completion cycle.
    pub fn fetch(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.ops.fetches += 1;
        let l1_line = addr.line(self.cfg.l1i.line_bytes);
        if self.l1i.lookup(l1_line, AccessKind::Fetch, now).is_hit() {
            return now + self.cfg.l1i.hit_latency;
        }
        let done = self.l2_access(
            addr,
            AccessKind::Fetch,
            now + self.cfg.l1i.hit_latency,
            None,
        );
        self.l1i.install(l1_line, false, done, None);
        done
    }

    /// A data load from `addr`. Returns the absolute completion cycle.
    pub fn load(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.ops.loads += 1;
        let l1_line = addr.line(self.cfg.l1d.line_bytes);
        if self.l1d.lookup(l1_line, AccessKind::Read, now).is_hit() {
            return now + self.cfg.l1d.hit_latency;
        }
        // Store-to-load forwarding from the write buffer: the line's newest
        // data is still buffered, so the load is served without touching L2.
        let l2_line = addr.line(self.cfg.l2.line_bytes);
        if self.wb.contains(l2_line) {
            return now + self.cfg.l1d.hit_latency + 1;
        }
        let done = self.l2_access(addr, AccessKind::Read, now + self.cfg.l1d.hit_latency, None);
        self.l1d.install(l1_line, false, done, None);
        done
    }

    /// A data store to `addr`.
    ///
    /// With the write-through L1D the store deposits into the write buffer
    /// and completes in one cycle — unless the buffer is full, in which case
    /// the store stalls while the oldest entry retires to L2.
    pub fn store(&mut self, addr: Addr, now: Cycle) -> Cycle {
        self.ops.stores += 1;
        let l1_line = addr.line(self.cfg.l1d.line_bytes);
        // Write-through: update the L1 copy if resident (LRU refresh);
        // no-write-allocate: a miss does not install.
        let _ = self.l1d.lookup(l1_line, AccessKind::Write, now);

        let l2_line = addr.line(self.cfg.l2.line_bytes);
        let word = (addr.offset(self.cfg.l2.line_bytes) / 8) as usize;
        self.store_seq += 1;
        let value = if self.silent_elision {
            mix64(addr.0 ^ 0x51E7_57A8_1E5A_11E7)
        } else {
            mix64(addr.0 ^ self.store_seq.rotate_left(32))
        };

        let mut done = now + 1;
        if self.wb.push(l2_line, word, value, now) == PushOutcome::Full {
            // Stall: synchronously retire the oldest entry, then redo.
            done = self.retire_one(now).max(now + 1);
            let outcome = self.wb.push(l2_line, word, value, now);
            debug_assert_ne!(outcome, PushOutcome::Full, "retirement freed a slot");
        }
        done
    }

    /// Background work for cycle `now`: drains the write buffer through the
    /// L2 port when the port is free. Call once per simulated cycle.
    #[inline]
    pub fn tick(&mut self, now: Cycle) {
        if !self.wb.is_empty() && now >= self.l2_port_free_at {
            self.retire_one(now);
        }
    }

    /// The earliest cycle after `now` at which background work can
    /// happen: the next write-buffer retirement, or never when the
    /// buffer is empty. [`MemoryHierarchy::tick`] at the cycles in
    /// between is a no-op, which is what lets the system loop
    /// fast-forward over them.
    #[must_use]
    #[inline]
    pub fn next_event_after(&self, now: Cycle) -> Cycle {
        if self.wb.is_empty() {
            Cycle::MAX
        } else {
            self.l2_port_free_at.max(now + 1)
        }
    }

    /// Retires the oldest write-buffer entry into the L2. Returns the
    /// completion cycle (equals `now` when the buffer was empty).
    fn retire_one(&mut self, now: Cycle) -> Cycle {
        let mut words = std::mem::take(&mut self.store_buf);
        let done = match self.wb.pop_into(&mut words) {
            Some(entry) => {
                let base = entry.line.base(self.cfg.l2.line_bytes);
                self.l2_access(
                    base,
                    AccessKind::Write,
                    now,
                    Some((entry.word_mask, &words)),
                )
            }
            None => now,
        };
        self.store_buf = words;
        done
    }

    /// One access at the L2 level (from an L1 miss, a write-buffer
    /// retirement, or a fetch miss). Returns the absolute completion cycle.
    fn l2_access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        now: Cycle,
        store: Option<(u64, &[u64])>,
    ) -> Cycle {
        let line = addr.line(self.cfg.l2.line_bytes);
        // Port arbitration: one new access per cycle, FIFO.
        let start = now.max(self.l2_port_free_at);
        self.l2_port_free_at = start + 1;

        // Silent-store classification happens *before* the lookup (the
        // lookup would already have flipped the dirty/written bits): the
        // per-word compare of the store payload against the resident data
        // is the compare the silent-write-aware scheme pays for in area.
        if self.silent_elision {
            if let (AccessKind::Write, Some((mask, words))) = (kind, store) {
                if let Some((set, way)) = self.l2.peek(line) {
                    if let Some(resident) = self.l2.line_data(set, way) {
                        if masked_words_match(mask, words, resident) {
                            self.l2.silent_write_hit(set, way, start);
                            return start + self.cfg.l2.hit_latency;
                        }
                    }
                }
            }
        }

        match self.l2.lookup(line, kind, start) {
            Lookup::Hit { set, way, .. } => {
                if let Some((mask, words)) = store {
                    self.apply_store_words(set, way, mask, words);
                }
                start + self.cfg.l2.hit_latency
            }
            Lookup::Miss { .. } => {
                let miss_at = start + self.cfg.l2.hit_latency;
                // Split transaction: address beat, DRAM latency, data burst.
                let addr_done = self.bus.occupy(miss_at, self.cfg.bus_bytes_per_cycle);
                let data_ready = addr_done + self.mem.latency();
                let done = self.bus.occupy(data_ready, self.cfg.l2.line_bytes);

                let data = &mut self.fill_buf;
                self.mem.read_line_into(line, data);
                let mut is_write = store.is_some();
                if let Some((mask, words)) = store {
                    // The write-allocate seam: when the stored bytes match
                    // the freshly fetched memory image, the allocation is
                    // silent — install the line *clean* and skip the merge
                    // (nothing changed; memory already holds the truth).
                    if self.silent_elision && masked_words_match(mask, words, data) {
                        is_write = false;
                        self.silent_fills += 1;
                    } else {
                        for (i, slot) in data.iter_mut().enumerate() {
                            if mask & (1 << i) != 0 {
                                *slot = words[i];
                            }
                        }
                    }
                }
                let outcome = self.l2.install(line, is_write, done, Some(&self.fill_buf));
                if let Some(victim) = outcome.evicted {
                    self.write_back_evicted(&victim, done);
                }
                // Tagged next-line prefetch on demand read misses: bring
                // the successor line in clean, paying its bus beats.
                if self.cfg.l2_next_line_prefetch && kind.is_read() {
                    let next = crate::addr::LineAddr(line.0 + 1);
                    if self.l2.peek(next).is_none() {
                        self.mem.read_line_into(next, &mut self.fill_buf);
                        let pf_done = self.bus.occupy(done, self.cfg.l2.line_bytes);
                        let pf_outcome =
                            self.l2.install(next, false, pf_done, Some(&self.fill_buf));
                        if let Some(victim) = pf_outcome.evicted {
                            self.write_back_evicted(&victim, pf_done);
                        }
                        self.prefetches_issued += 1;
                    }
                }
                done
            }
        }
    }

    /// Number of next-line prefetches issued (0 unless enabled).
    #[must_use]
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// Reuse-distance-predicted early-copy-back probe of one L2 set
    /// (Wang et al., arXiv:2105.14442); same L1-priority arbitration as
    /// [`MemoryHierarchy::clean_probe_l2`].
    pub fn reuse_probe_l2(
        &mut self,
        set: usize,
        now: Cycle,
        multiplier: u32,
        fallback_gap: u64,
    ) -> Option<usize> {
        if now < self.l2_port_free_at {
            return None;
        }
        self.l2_port_free_at = now + 1;
        let cleaned = self.l2.reuse_probe(set, now, multiplier, fallback_gap);
        self.write_back_cleaned(set, &cleaned, now + self.cfg.l2.hit_latency);
        Some(cleaned.len())
    }

    fn apply_store_words(&mut self, set: usize, way: usize, mask: u64, words: &[u64]) {
        for (i, &w) in words.iter().enumerate() {
            if mask & (1 << i) != 0 {
                self.l2.write_word(set, way, i, w);
            }
        }
    }

    /// Puts a line displaced by the last L2 install on the bus and into
    /// memory, if it was dirty.
    fn write_back_evicted(&mut self, victim: &EvictedLine, now: Cycle) {
        if !victim.dirty {
            return;
        }
        self.bus.occupy(now, self.cfg.l2.line_bytes);
        if let Some(data) = self.l2.evicted_data() {
            self.mem.write_line(victim.line, data);
        }
    }

    /// Puts lines a cleaning action wrote back (still resident in `set`)
    /// on the bus and into memory.
    fn write_back_cleaned(&mut self, set: usize, cleaned: &[EvictedLine], now: Cycle) {
        for line in cleaned {
            self.bus.occupy(now, self.cfg.l2.line_bytes);
            if let Some(data) = self.l2.line_data(set, line.way) {
                self.mem.write_line(line.line, data);
            }
        }
    }

    /// The cleaning logic's probe of one L2 set (the paper's FSM action).
    ///
    /// L1 traffic has priority: when the L2 port is busy at `now` the probe
    /// is refused and the caller retries next cycle. On success, returns
    /// how many lines were cleaned (each one written back on the bus).
    pub fn clean_probe_l2(&mut self, set: usize, now: Cycle) -> Option<usize> {
        self.clean_probe_l2_mode(set, now, true)
    }

    /// [`MemoryHierarchy::clean_probe_l2`] with the written-bit filter made
    /// explicit (ablation support).
    pub fn clean_probe_l2_mode(
        &mut self,
        set: usize,
        now: Cycle,
        respect_written: bool,
    ) -> Option<usize> {
        if now < self.l2_port_free_at {
            return None;
        }
        self.l2_port_free_at = now + 1;
        let cleaned = self.l2.clean_probe_mode(set, now, respect_written);
        self.write_back_cleaned(set, &cleaned, now + self.cfg.l2.hit_latency);
        Some(cleaned.len())
    }

    /// Decay-based cleaning probe of one L2 set (ablation alternative to
    /// [`MemoryHierarchy::clean_probe_l2`]); same L1-priority arbitration.
    pub fn decay_probe_l2(&mut self, set: usize, now: Cycle, window: u64) -> Option<usize> {
        if now < self.l2_port_free_at {
            return None;
        }
        self.l2_port_free_at = now + 1;
        let cleaned = self.l2.decay_probe(set, now, window);
        self.write_back_cleaned(set, &cleaned, now + self.cfg.l2.hit_latency);
        Some(cleaned.len())
    }

    /// Eager-writeback probe (Lee et al.): only proceeds when both the L2
    /// port and the off-chip bus are idle; cleans at most one (LRU, dirty)
    /// line. Returns whether a write-back was issued, or `None` when
    /// arbitration refused the probe.
    pub fn eager_probe_l2(&mut self, set: usize, now: Cycle) -> Option<bool> {
        if now < self.l2_port_free_at || self.bus.free_at() > now {
            return None;
        }
        self.l2_port_free_at = now + 1;
        match self.l2.eager_probe(set, now) {
            Some(line) => {
                self.write_back_cleaned(set, &[line], now + self.cfg.l2.hit_latency);
                Some(true)
            }
            None => Some(false),
        }
    }

    /// Forces one dirty L2 line clean (ECC-entry eviction in the proposed
    /// scheme), writing it back on the bus. Returns `true` when a write-back
    /// was issued.
    pub fn force_clean_l2(&mut self, set: usize, way: usize, class: WbClass, now: Cycle) -> bool {
        match self.l2.force_clean(set, way, now, class) {
            Some(line) => {
                self.write_back_cleaned(set, &[line], now);
                true
            }
            None => false,
        }
    }

    /// Drains L2 events for the protection scheme.
    ///
    /// Allocates per call; the per-cycle loop uses
    /// [`MemoryHierarchy::drain_l2_events_into`] instead.
    pub fn take_l2_events(&mut self) -> Vec<L2Event> {
        self.l2.take_events()
    }

    /// Drains pending L2 events into `buf` (cleared first) without
    /// allocating: the swap-buffer protocol of [`Cache::drain_events_into`].
    #[inline]
    pub fn drain_l2_events_into(&mut self, buf: &mut Vec<L2Event>) {
        self.l2.drain_events_into(buf);
    }

    /// Whether the L2 has undrained events.
    #[must_use]
    pub fn has_pending_l2_events(&self) -> bool {
        self.l2.has_pending_events()
    }

    /// Enables the L2 event stream (protection schemes need it).
    pub fn enable_l2_events(&mut self) {
        self.l2.set_event_emission(true);
    }

    /// The L2 cache.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Mutable L2 access (fault injection, protection-scheme plumbing).
    pub fn l2_mut(&mut self) -> &mut Cache {
        &mut self.l2
    }

    /// The L1 instruction cache.
    #[must_use]
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The L1 data cache.
    #[must_use]
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Main memory (image inspection in recovery tests).
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable main-memory access.
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Split mutable borrows of the L2 and main memory (the scrubber
    /// verifies cache lines against the memory image in one call).
    pub fn l2_and_memory_mut(&mut self) -> (&mut Cache, &mut MainMemory) {
        (&mut self.l2, &mut self.mem)
    }

    /// CPU-visible operation counts.
    #[must_use]
    pub fn ops(&self) -> OpCounts {
        self.ops
    }

    /// Write-buffer statistics.
    #[must_use]
    pub fn write_buffer_stats(&self) -> WriteBufferStats {
        self.wb.stats()
    }

    /// Bus statistics.
    #[must_use]
    pub fn bus_stats(&self) -> BusStats {
        self.bus.stats()
    }

    /// Fraction of L2 lines currently dirty (0.0–1.0).
    #[must_use]
    pub fn l2_dirty_fraction(&self) -> f64 {
        self.l2.dirty_line_count() as f64 / self.l2.total_lines() as f64
    }

    /// Publishes the whole hierarchy's statistics into the registry: the
    /// three caches (with an end-of-run dirty/written census for the L2),
    /// write buffer, bus, DRAM, and CPU-visible operation counts.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.scoped("l1i", |r| self.l1i.stats().register_stats(r));
        reg.scoped("l1d", |r| self.l1d.stats().register_stats(r));
        reg.scoped("l2", |r| {
            self.l2.stats().register_stats(r);
            r.counter("dirty_lines", self.l2.dirty_line_count());
            r.counter("written_lines", self.l2.written_line_count());
            r.counter("total_lines", self.l2.total_lines());
        });
        reg.scoped("write_buffer", |r| self.wb.stats().register_stats(r));
        reg.scoped("bus", |r| self.bus.stats().register_stats(r));
        reg.scoped("dram", |r| {
            r.counter("reads", self.mem.reads());
            r.counter("writes", self.mem.writes());
        });
        reg.scoped("ops", |r| {
            r.counter("loads", self.ops.loads);
            r.counter("stores", self.ops.stores);
            r.counter("fetches", self.ops.fetches);
        });
    }
}

/// `true` when every masked store word equals the corresponding resident
/// word — the definition of a silent store at line granularity.
fn masked_words_match(mask: u64, words: &[u64], resident: &[u64]) -> bool {
    words
        .iter()
        .enumerate()
        .all(|(i, w)| mask & (1 << i) == 0 || resident[i] == *w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    #[test]
    fn l1_hit_is_one_cycle() {
        let mut h = tiny();
        let a = Addr::new(0x100);
        let first = h.load(a, 0); // cold miss
        assert!(first > 1);
        let second = h.load(a, first);
        assert_eq!(second, first + 1);
    }

    #[test]
    fn fetch_miss_fills_l1i_and_l2() {
        let mut h = tiny();
        let a = Addr::new(0x40);
        let done = h.fetch(a, 0);
        // 1 (L1I) + 10 (L2 probe) + 1 addr beat + 20 DRAM + 8 data beats.
        assert_eq!(done, 1 + 10 + 1 + 20 + 8);
        assert!(h.l1i().peek(a.line(32)).is_some());
        assert!(h.l2().peek(a.line(64)).is_some());
        // Second fetch of the same block: L1I hit.
        assert_eq!(h.fetch(a, done), done + 1);
    }

    #[test]
    fn store_completes_in_one_cycle_via_write_buffer() {
        let mut h = tiny();
        assert_eq!(h.store(Addr::new(0x200), 0), 1);
        assert_eq!(h.write_buffer_stats().inserted, 1);
    }

    #[test]
    fn ticks_drain_the_write_buffer_into_l2() {
        let mut h = tiny();
        h.store(Addr::new(0x200), 0);
        // Drain: the retirement misses L2 (write-allocate) and fills it.
        for now in 1..=200 {
            h.tick(now);
        }
        let line = Addr::new(0x200).line(64);
        let (set, way) = h.l2().peek(line).expect("retired line installed in L2");
        assert!(h.l2().line_view(set, way).dirty);
        assert_eq!(h.l2().dirty_line_count(), 1);
    }

    #[test]
    fn coalesced_stores_retire_as_one_l2_write() {
        let mut h = tiny();
        h.store(Addr::new(0x200), 0);
        h.store(Addr::new(0x208), 0);
        h.store(Addr::new(0x230), 0);
        assert_eq!(h.write_buffer_stats().inserted, 1);
        assert_eq!(h.write_buffer_stats().coalesced, 2);
        for now in 1..=200 {
            h.tick(now);
        }
        assert_eq!(h.write_buffer_stats().retired, 1);
        // The L2 line carries all three store payloads.
        let line = Addr::new(0x200).line(64);
        let (set, way) = h.l2().peek(line).unwrap();
        let data = h.l2().line_data(set, way).unwrap();
        let pristine = MainMemory::pristine(line, 8);
        assert_ne!(data[0], pristine[0]);
        assert_ne!(data[1], pristine[1]);
        assert_ne!(data[6], pristine[6]);
        assert_eq!(data[2], pristine[2], "unwritten words keep memory contents");
    }

    #[test]
    fn full_write_buffer_stalls_the_store() {
        let mut h = tiny(); // 4 entries
        for i in 0..4u64 {
            assert_eq!(h.store(Addr::new(i * 0x1000), 0), 1);
        }
        // Fifth distinct line: buffer full, store stalls for the retirement.
        let done = h.store(Addr::new(0x9000), 0);
        assert!(done > 1, "store must stall, got {done}");
        assert_eq!(h.write_buffer_stats().full_stalls, 1);
    }

    #[test]
    fn load_forwards_from_write_buffer() {
        let mut h = tiny();
        let addr = Addr::new(0x300);
        h.store(addr, 0);
        // The L1D did not allocate (no-write-allocate), but the write
        // buffer still holds the line: the load is served quickly.
        let done = h.load(addr, 1);
        assert_eq!(done, 1 + 1 + 1);
    }

    #[test]
    fn clean_probe_respects_l1_priority() {
        let mut h = tiny();
        // Occupy the L2 port with a miss at cycle 5.
        h.load(Addr::new(0x4000), 5);
        assert!(h.clean_probe_l2(0, 5).is_none(), "port busy: probe refused");
        assert!(h.clean_probe_l2(0, 100).is_some());
    }

    #[test]
    fn clean_probe_writes_back_quiesced_dirty_lines() {
        let mut h = tiny();
        h.store(Addr::new(0x200), 0);
        for now in 1..=100 {
            h.tick(now);
        }
        let line = Addr::new(0x200).line(64);
        let set = line.set_index(h.l2().sets() as u64);
        assert_eq!(h.l2().dirty_line_count(), 1);
        let cleaned = h.clean_probe_l2(set, 1000).unwrap();
        assert_eq!(cleaned, 1);
        assert_eq!(h.l2().dirty_line_count(), 0);
        // The written-back data reached memory.
        let img = h.memory_mut().read_line(line);
        assert_ne!(img[0], MainMemory::pristine(line, 8)[0]);
    }

    #[test]
    fn force_clean_issues_ecc_writeback() {
        let mut h = tiny();
        h.store(Addr::new(0x200), 0);
        for now in 1..=100 {
            h.tick(now);
        }
        let line = Addr::new(0x200).line(64);
        let (set, way) = h.l2().peek(line).unwrap();
        assert!(h.force_clean_l2(set, way, WbClass::EccEviction, 200));
        assert_eq!(h.l2().stats().writebacks_ecc_eviction, 1);
        assert!(!h.force_clean_l2(set, way, WbClass::EccEviction, 201));
    }

    #[test]
    fn op_counts_track_cpu_operations() {
        let mut h = tiny();
        h.load(Addr::new(0), 0);
        h.load(Addr::new(8), 1);
        h.store(Addr::new(16), 2);
        h.fetch(Addr::new(0x1000), 3);
        let ops = h.ops();
        assert_eq!(ops.loads, 2);
        assert_eq!(ops.stores, 1);
        assert_eq!(ops.fetches, 1);
        assert_eq!(ops.loads_stores(), 3);
    }

    #[test]
    fn bus_contention_delays_back_to_back_misses() {
        let mut h = tiny();
        let a = h.load(Addr::new(0x10_000), 0);
        let b = h.load(Addr::new(0x20_000), 0);
        assert!(b > a, "second miss must queue behind the first on the bus");
    }

    #[test]
    fn dirty_fraction_reflects_l2_state() {
        let mut h = tiny();
        assert_eq!(h.l2_dirty_fraction(), 0.0);
        h.store(Addr::new(0), 0);
        for now in 1..=100 {
            h.tick(now);
        }
        let expect = 1.0 / h.l2().total_lines() as f64;
        assert!((h.l2_dirty_fraction() - expect).abs() < 1e-12);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::config::HierarchyConfig;

    #[test]
    fn written_back_data_survives_in_the_memory_image() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        let addr = Addr::new(0x500);
        h.store(addr, 0);
        for now in 1..200 {
            h.tick(now);
        }
        let line = addr.line(64);
        let (set, way) = h.l2().peek(line).unwrap();
        let cached = h.l2().line_data(set, way).unwrap().to_vec();
        // Evict via cleaning, then check memory returns the same words.
        let set_idx = line.set_index(h.l2().sets() as u64);
        h.clean_probe_l2(set_idx, 1_000).unwrap();
        assert_eq!(&*h.memory_mut().read_line(line), cached.as_slice());
    }

    #[test]
    fn bus_sees_fills_and_writebacks() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.load(Addr::new(0x9000), 0);
        let after_fill = h.bus_stats().transactions;
        assert!(after_fill >= 2, "address beat + data burst");
        h.store(Addr::new(0x9000), 100);
        for now in 101..400 {
            h.tick(now);
        }
        // The retirement hit the resident line: no new fill needed.
        assert!(h.l2().stats().write_hits >= 1);
    }

    #[test]
    fn sequential_fetches_within_a_block_hit_l1i() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        let t0 = h.fetch(Addr::new(0x100), 0);
        let t1 = h.fetch(Addr::new(0x108), t0);
        assert_eq!(t1, t0 + 1, "same 32B block: L1I hit");
        let t2 = h.fetch(Addr::new(0x120), t1);
        assert!(t2 > t1 + 1, "next block: miss to L2");
    }

    #[test]
    fn split_l2_memory_borrow_is_consistent() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.store(Addr::new(0), 0);
        for now in 1..200 {
            h.tick(now);
        }
        let dirty_before = h.l2().dirty_line_count();
        let (l2, mem) = h.l2_and_memory_mut();
        assert_eq!(l2.dirty_line_count(), dirty_before);
        let _ = mem.read_line(crate::addr::LineAddr(0));
    }

    #[test]
    fn cleaning_probe_counts_no_cpu_ops() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.store(Addr::new(0), 0);
        for now in 1..200 {
            h.tick(now);
        }
        let ops_before = h.ops();
        h.clean_probe_l2(0, 1_000);
        assert_eq!(h.ops(), ops_before, "cleaning is not a CPU memory op");
    }
}

#[cfg(test)]
mod silent_store_tests {
    use super::*;

    fn silent_hier() -> MemoryHierarchy {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.set_silent_store_elision(true);
        h
    }

    fn drain(h: &mut MemoryHierarchy, from: Cycle, to: Cycle) {
        for now in from..to {
            h.tick(now);
        }
    }

    #[test]
    fn re_store_of_identical_bytes_is_silent_exactly_when_bytes_match() {
        let mut h = silent_hier();
        let addr = Addr::new(0x200);
        // First store: the write-allocate fill finds pristine memory, the
        // payload differs — NOT silent, line installs dirty.
        h.store(addr, 0);
        drain(&mut h, 1, 200);
        assert_eq!(h.l2().dirty_line_count(), 1);
        assert_eq!(h.l2().silent_write_hit_count(), 0);
        assert_eq!(h.silent_fills(), 0);

        // Clean the line so memory and the resident copy agree.
        let line = addr.line(64);
        let set = line.set_index(h.l2().sets() as u64);
        h.clean_probe_l2(set, 1_000).unwrap();
        assert_eq!(h.l2().dirty_line_count(), 0);

        // Re-store the same address: address-stable values make the bytes
        // identical — classified silent, the line STAYS CLEAN.
        h.store(addr, 2_000);
        drain(&mut h, 2_001, 2_200);
        assert_eq!(h.l2().silent_write_hit_count(), 1);
        assert_eq!(h.l2().dirty_line_count(), 0, "silent store must not dirty");

        // A store to a *different* word of the same line carries bytes the
        // resident line does not hold — not silent, dirties the line.
        h.store(Addr::new(0x208), 3_000);
        drain(&mut h, 3_001, 3_200);
        assert_eq!(h.l2().silent_write_hit_count(), 1);
        assert_eq!(h.l2().dirty_line_count(), 1);
    }

    #[test]
    fn elision_off_re_stores_always_dirty() {
        // The default hierarchy: every store value is unique, so a
        // re-store of the same address is a real store that dirties the
        // line and nothing is ever classified silent.
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        let addr = Addr::new(0x300);
        h.store(addr, 0);
        drain(&mut h, 1, 200);
        let line = addr.line(64);
        let set = line.set_index(h.l2().sets() as u64);
        h.clean_probe_l2(set, 1_000).unwrap();
        h.store(addr, 2_000);
        drain(&mut h, 2_001, 2_200);
        assert_eq!(h.l2().silent_write_hit_count(), 0);
        assert_eq!(
            h.l2().dirty_line_count(),
            1,
            "unique bytes differ: real store"
        );
    }

    #[test]
    fn silent_write_allocate_installs_clean_through_the_trusted_seam() {
        let mut h = silent_hier();
        let addr = Addr::new(0x200); // L2 line 8
        h.store(addr, 0);
        drain(&mut h, 1, 200);
        let line = addr.line(64);
        let set = line.set_index(h.l2().sets() as u64);
        // Write the value back so memory holds it, then evict the line by
        // filling its set with four read misses (4-way tiny L2).
        h.clean_probe_l2(set, 1_000).unwrap();
        for k in 1..=4u64 {
            h.load(Addr::new(0x200 + k * 0x400), 1_000 + k * 100);
        }
        assert!(h.l2().peek(line).is_none(), "line must be evicted");

        // Re-store: a write-allocate miss whose payload matches the
        // fetched memory image — the fill is silent and installs CLEAN.
        h.store(addr, 10_000);
        drain(&mut h, 10_001, 10_400);
        assert_eq!(h.silent_fills(), 1);
        let (s, w) = h.l2().peek(line).expect("line reinstalled");
        assert!(
            !h.l2().line_view(s, w).dirty,
            "silent write-allocate must install clean"
        );
        assert_eq!(h.l2().dirty_line_count(), 0);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;
    use crate::config::HierarchyConfig;

    #[test]
    fn next_line_prefetch_installs_the_successor() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l2_next_line_prefetch = true;
        let mut h = MemoryHierarchy::new(cfg);
        h.load(Addr::new(0x8000), 0);
        assert_eq!(h.prefetches_issued(), 1);
        let next = Addr::new(0x8040).line(64);
        let (set, way) = h.l2().peek(next).expect("successor prefetched");
        assert!(!h.l2().line_view(set, way).dirty, "prefetches arrive clean");
    }

    #[test]
    fn prefetch_disabled_by_default() {
        let mut h = MemoryHierarchy::new(HierarchyConfig::tiny());
        h.load(Addr::new(0x8000), 0);
        assert_eq!(h.prefetches_issued(), 0);
        assert!(h.l2().peek(Addr::new(0x8040).line(64)).is_none());
    }

    #[test]
    fn prefetch_skips_resident_successors() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l2_next_line_prefetch = true;
        let mut h = MemoryHierarchy::new(cfg);
        h.load(Addr::new(0x8000), 0); // prefetches 0x8040
        let issued = h.prefetches_issued();
        h.load(Addr::new(0x8040), 1_000); // hit: no new prefetch on hits
        assert_eq!(h.prefetches_issued(), issued);
    }

    #[test]
    fn write_misses_do_not_prefetch() {
        let mut cfg = HierarchyConfig::tiny();
        cfg.l2_next_line_prefetch = true;
        let mut h = MemoryHierarchy::new(cfg);
        h.store(Addr::new(0x8000), 0);
        for now in 1..300 {
            h.tick(now);
        }
        assert_eq!(h.prefetches_issued(), 0, "prefetch is read-miss tagged");
    }
}
