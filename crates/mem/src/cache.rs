//! A generic set-associative cache with true LRU, dirty/written metadata,
//! an incremental dirty-line counter, and an observable event stream.
//!
//! The same type models the paper's L1I, L1D, and unified L2; behaviour is
//! selected by [`CacheConfig`]. Two features exist specifically for the
//! paper's mechanisms:
//!
//! * **Written bits** (`track_written`): the dirty bit is set by the *first*
//!   write to a resident line and the written bit by any *subsequent* write;
//!   fills reset both. [`Cache::clean_set`] implements the cleaning FSM's
//!   per-set action under a [`CleanRule`]: the paper's rule writes back
//!   `dirty && !written` lines and resets the other lines' written bits.
//! * **Event stream** (`emit_events`): every fill/hit/eviction/cleaning is
//!   recorded as an [`L2Event`] for the protection scheme to observe; the
//!   scheme responds with forced clean-ups via [`Cache::force_clean`].
//!
//! A cache that tracks written bits (the L2) also keeps each line's access
//! and write times, which the idle and reuse-gap cleaning rules read. The
//! L1s track neither, so their hit path stores no timestamps.

use crate::addr::{Addr, LineAddr};
use crate::census::{LifetimeHistogram, LifetimeTracker};
use crate::config::{AllocPolicy, CacheConfig, WritePolicy};
use crate::stats::CacheStats;
use crate::Cycle;

/// What kind of access is being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch (a read on the instruction port).
    Fetch,
}

impl AccessKind {
    /// `true` for loads and fetches.
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read | AccessKind::Fetch)
    }
}

/// Why a write-back was issued. Figure 8 of the paper splits write-back
/// traffic into exactly these three classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WbClass {
    /// `WB`: a dirty line was evicted by replacement.
    Replacement,
    /// `Clean-WB`: the dirty-line cleaning logic wrote the line back.
    Cleaning,
    /// `ECC-WB`: the proposed scheme evicted the line's ECC entry.
    EccEviction,
}

impl WbClass {
    /// Short machine-readable label used in traces and snapshot keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WbClass::Replacement => "replacement",
            WbClass::Cleaning => "cleaning",
            WbClass::EccEviction => "ecc_eviction",
        }
    }
}

/// Which lines one cleaning probe of a set writes back: the paper's
/// written-bit filter, or a related-work alternative that differs from it
/// only in the lines it picks (see [`Cache::clean_set`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanRule {
    /// The paper's FSM: write back `dirty && !written` lines and reset
    /// every other line's written bit.
    WrittenBit,
    /// The no-filter ablation: write back every dirty line.
    AllDirty,
    /// Decay cleaning (Kaxiras-style): write back every dirty line not
    /// accessed for at least `window` cycles.
    Idle {
        /// Idle threshold in cycles.
        window: u64,
    },
    /// Reuse-distance-predicted early copy-back (Wang et al.,
    /// arXiv:2105.14442): a dirty line write-idle for at least
    /// `multiplier` times its last observed write gap (`fallback_gap` for
    /// a line written once since fill) is predicted dead. A dead line is
    /// written back if `!written`; a dead but written line gets its
    /// written bit reset instead, one more epoch of grace.
    ReuseGap {
        /// Idle threshold as a multiple of the observed gap.
        multiplier: u32,
        /// The gap assumed for a line with a single write on record.
        fallback_gap: u64,
    },
    /// Eager writeback (Lee et al.): write back the set's LRU line if it
    /// is dirty.
    LruIfDirty,
}

/// A line displaced by a fill, or written back by a cleaning action.
///
/// Carries no data. A cleaned line stays resident, so its words are
/// [`Cache::line_data`] at `way`; a displaced line's words are
/// [`Cache::evicted_data`] until the next install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The line's address.
    pub line: LineAddr,
    /// The way the line occupied.
    pub way: usize,
    /// Whether it was dirty (and therefore needs a write-back).
    pub dirty: bool,
    /// Its written bit at eviction time.
    pub written: bool,
}

/// Result of a [`Cache::lookup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is resident; metadata (LRU, dirty/written) was updated.
    Hit {
        /// Set index of the hit.
        set: usize,
        /// Way of the hit.
        way: usize,
        /// For writes: `true` when this write set the dirty bit
        /// (the line's *first* write since fill/cleaning).
        first_write: bool,
    },
    /// The line is not resident. The caller decides whether to install it
    /// (see [`Cache::install`]) based on the allocation policy.
    Miss {
        /// Set the line maps to.
        set: usize,
    },
}

impl Lookup {
    /// `true` on a hit.
    #[must_use]
    pub fn is_hit(self) -> bool {
        matches!(self, Lookup::Hit { .. })
    }
}

/// Outcome of [`Cache::install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Set the line was installed into.
    pub set: usize,
    /// Way the line was installed into.
    pub way: usize,
    /// The valid line that was displaced, if any.
    pub evicted: Option<EvictedLine>,
}

/// Read-only view of one line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineView {
    /// Resident line address (meaningless when `!valid`).
    pub line: LineAddr,
    /// Whether the way holds a line.
    pub valid: bool,
    /// Dirty bit.
    pub dirty: bool,
    /// Written bit (always `false` unless `track_written`).
    pub written: bool,
}

/// An observable cache event, consumed by protection schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Event {
    /// A line was installed after a miss. `write` is `true` when the fill
    /// was triggered by a store (write-allocate), which dirties the line.
    Fill {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Installed line address.
        line: LineAddr,
        /// Fill caused by a write.
        write: bool,
    },
    /// A store hit a resident line.
    WriteHit {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Line address.
        line: LineAddr,
        /// This store set the dirty bit (first write since fill/clean).
        first_write: bool,
        /// The store's bytes matched the resident data exactly and the
        /// line's dirty/written state was left untouched (silent-store
        /// elision; always `false` unless the hierarchy classifies
        /// silent stores for a silent-write-aware scheme).
        silent: bool,
    },
    /// A load or fetch hit a resident line.
    ReadHit {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Line address.
        line: LineAddr,
        /// The line was dirty at read time (selects ECC vs parity check).
        dirty: bool,
    },
    /// A valid line was displaced by replacement.
    Evict {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Displaced line address.
        line: LineAddr,
        /// It was dirty (a replacement write-back was issued).
        dirty: bool,
    },
    /// A dirty line was written back early and marked clean.
    Cleaned {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Cleaned line address.
        line: LineAddr,
        /// Which mechanism cleaned it.
        class: WbClass,
    },
    /// One word of a resident line's stored data was overwritten (store
    /// retirement applying its payload). Only emitted when word-level
    /// events are enabled via [`Cache::set_word_event_emission`] — the
    /// differential checker uses them to mirror data word-for-word;
    /// normal runs keep them off to spare the event buffer.
    WordWritten {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
        /// Word index within the line.
        word: usize,
        /// The value written.
        value: u64,
    },
}

/// Tag of a slot that has never held a line: no line address shifts down
/// to it, so the lookup probe compares tags alone.
const INVALID_TAG: u64 = u64::MAX;

/// The per-slot times read by the [`CleanRule::Idle`] and
/// [`CleanRule::ReuseGap`] cleaning rules, indexed like the line metadata.
#[derive(Debug, Clone)]
struct LineClock {
    /// Cycle of the slot's most recent access (the idle rule's idle
    /// time).
    last_access: Vec<Cycle>,
    /// Reuse-distance bookkeeping for the predicted early-copy-back
    /// cleaner: the cycle of the slot's most recent write, and the gap
    /// between its last two writes (0 = at most one write since fill).
    last_write: Vec<Cycle>,
    write_gap: Vec<u64>,
}

impl LineClock {
    fn new(slots: usize) -> Self {
        LineClock {
            last_access: vec![0; slots],
            last_write: vec![0; slots],
            write_gap: vec![0; slots],
        }
    }

    /// Records an access at `now`; a write also advances the slot's
    /// reuse history: the gap since the previous write becomes the
    /// predictor sample.
    fn touch(&mut self, slot: usize, now: Cycle, write: bool) {
        self.last_access[slot] = now;
        if write {
            self.write_gap[slot] = now.saturating_sub(self.last_write[slot]);
            self.last_write[slot] = now;
        }
    }

    /// Restarts the slot's history at a fill at `now`.
    fn fill(&mut self, slot: usize, now: Cycle) {
        self.last_access[slot] = now;
        self.last_write[slot] = now;
        self.write_gap[slot] = 0;
    }
}

/// A set-associative cache.
///
/// ```
/// use aep_mem::cache::{AccessKind, Cache, Lookup};
/// use aep_mem::config::CacheConfig;
/// use aep_mem::addr::LineAddr;
///
/// let mut c = Cache::new(CacheConfig::tiny_l2());
/// let line = LineAddr(0x40);
/// assert!(!c.lookup(line, AccessKind::Read, 0).is_hit());
/// let data = vec![0u64; c.config().words_per_line()];
/// c.install(line, false, 0, Some(&data));
/// assert!(c.lookup(line, AccessKind::Read, 1).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: u64,
    /// `log2(sets)`: a line address's tag is the bits above its set index.
    set_bits: u32,
    /// `log2(line_bytes)`: a byte address's line is the bits above it.
    line_bits: u32,
    ways: usize,
    // Line metadata in structure-of-arrays layout, indexed by
    // `slot = set * ways + way`. The hot paths — the tag-match scan in
    // `lookup` and the victim scan in `install` — walk one short field
    // each (tag+valid, lru+valid); parallel arrays keep those probes
    // inside one or two cache lines per set instead of striding over
    // full per-line records.
    tags: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    written: Vec<bool>,
    lru: Vec<u64>,
    /// Per-slot access and write times, kept only when the cache tracks
    /// written bits (the only caches the cleaning probes run on).
    clock: Option<LineClock>,
    // Line words, `words_per_line` per slot starting at
    // `slot * words_per_line`; empty unless the cache stores data.
    data: Vec<u64>,
    // The words of the line most recently displaced by `install`.
    evicted: Vec<u64>,
    words_per_line: usize,
    tick: u64,
    dirty_lines: u64,
    silent_write_hits: u64,
    stats: CacheStats,
    emit_events: bool,
    emit_word_events: bool,
    events: Vec<L2Event>,
    lifetimes: Option<LifetimeTracker>,
}

impl Cache {
    /// Builds a cache from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`CacheConfig::validate`].
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("cache configuration must be valid");
        let sets = config.sets();
        let ways = config.ways as usize;
        let slots = (sets as usize) * ways;
        let words_per_line = config.words_per_line();
        let stored = if config.store_data { words_per_line } else { 0 };
        Cache {
            tags: vec![INVALID_TAG; slots],
            valid: vec![false; slots],
            dirty: vec![false; slots],
            written: vec![false; slots],
            lru: vec![0; slots],
            clock: config.track_written.then(|| LineClock::new(slots)),
            data: vec![0; slots * stored],
            evicted: vec![0; stored],
            words_per_line,
            sets,
            set_bits: sets.trailing_zeros(),
            line_bits: config.line_bytes.trailing_zeros(),
            ways,
            config,
            tick: 0,
            dirty_lines: 0,
            silent_write_hits: 0,
            stats: CacheStats::new(),
            emit_events: false,
            emit_word_events: false,
            events: Vec::new(),
            lifetimes: None,
        }
    }

    /// Enables dirty-lifetime tracking (see [`crate::census`]).
    pub fn enable_lifetime_tracking(&mut self) {
        let slots = self.valid.len();
        self.lifetimes = Some(LifetimeTracker::new(slots));
    }

    /// The dirty-lifetime histogram, when tracking is enabled. Open
    /// lifetimes (lines still dirty) are not yet included; call
    /// [`Cache::flush_lifetimes`] at the end of a run to close them.
    #[must_use]
    pub fn lifetime_histogram(&self) -> Option<&LifetimeHistogram> {
        self.lifetimes.as_ref().map(LifetimeTracker::histogram)
    }

    /// Closes every still-dirty line's lifetime at `now`.
    pub fn flush_lifetimes(&mut self, now: Cycle) {
        if let Some(t) = &mut self.lifetimes {
            for slot in 0..self.valid.len() {
                if self.valid[slot] && self.dirty[slot] {
                    t.on_clean(slot, now);
                }
            }
        }
    }

    fn lifetime_dirty(&mut self, slot: usize, now: Cycle) {
        if let Some(t) = &mut self.lifetimes {
            t.on_dirty(slot, now);
        }
    }

    fn lifetime_clean(&mut self, slot: usize, now: Cycle) {
        if let Some(t) = &mut self.lifetimes {
            t.on_clean(slot, now);
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets as usize
    }

    /// Associativity.
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total lines (sets × ways).
    #[must_use]
    pub fn total_lines(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Current number of dirty lines (maintained incrementally, O(1)).
    #[must_use]
    pub fn dirty_line_count(&self) -> u64 {
        self.dirty_lines
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics access (the hierarchy classifies write-backs).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Enables or disables the [`L2Event`] stream.
    pub fn set_event_emission(&mut self, enabled: bool) {
        self.emit_events = enabled;
    }

    /// Enables or disables [`L2Event::WordWritten`] events (in addition to
    /// the regular stream; has no effect while events are off). Off by
    /// default: only the lockstep golden model needs per-word granularity.
    pub fn set_word_event_emission(&mut self, enabled: bool) {
        self.emit_word_events = enabled;
    }

    /// Drains all events recorded since the last call.
    ///
    /// Allocates a fresh `Vec` per call; the per-cycle simulation loop uses
    /// [`Cache::drain_events_into`] instead, which recycles one buffer.
    pub fn take_events(&mut self) -> Vec<L2Event> {
        std::mem::take(&mut self.events)
    }

    /// Drains all pending events into `buf` (cleared first) by swapping
    /// buffers, so the steady-state hot loop performs no allocation: the
    /// cache and the caller ping-pong the same two backing stores.
    #[inline]
    pub fn drain_events_into(&mut self, buf: &mut Vec<L2Event>) {
        buf.clear();
        std::mem::swap(&mut self.events, buf);
    }

    /// Whether any events are pending (cheaper than draining to look).
    #[must_use]
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty()
    }

    fn emit(&mut self, event: L2Event) {
        if self.emit_events {
            self.events.push(event);
        }
    }

    /// The range of `data` holding `slot`'s words.
    fn words(&self, slot: usize) -> std::ops::Range<usize> {
        slot * self.words_per_line..(slot + 1) * self.words_per_line
    }

    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// The set index and tag of `line` ([`LineAddr::set_index`] and
    /// [`LineAddr::tag`] with the geometry validated once, at
    /// construction).
    #[inline]
    fn set_and_tag(&self, line: LineAddr) -> (usize, u64) {
        ((line.0 & (self.sets - 1)) as usize, line.0 >> self.set_bits)
    }

    /// The line of this cache's geometry holding byte address `addr`
    /// ([`Addr::line`] with the line size validated at construction).
    #[must_use]
    #[inline]
    pub fn line_of(&self, addr: Addr) -> LineAddr {
        LineAddr(addr.0 >> self.line_bits)
    }

    /// The per-slot times, which only a written-bit-tracking cache keeps.
    fn clock(&self) -> &LineClock {
        self.clock
            .as_ref()
            .expect("cleaning probes need a cache that tracks written bits")
    }

    /// Looks up `line`, updating LRU and (for writes) dirty/written bits.
    ///
    /// Misses are counted but nothing is installed; callers install
    /// according to the allocation policy via [`Cache::install`].
    pub fn lookup(&mut self, line: LineAddr, kind: AccessKind, now: Cycle) -> Lookup {
        let (set, tag) = self.set_and_tag(line);
        self.tick += 1;
        let tick = self.tick;
        // The hot probe: a contiguous scan over the set's tag lane only
        // (a slot that never held a line has `INVALID_TAG`, and a valid
        // line never becomes invalid) — no other metadata is touched
        // until a hit.
        let base = self.slot(set, 0);
        let hit_way = self.tags[base..base + self.ways]
            .iter()
            .position(|&t| t == tag);
        match hit_way {
            Some(way) => {
                let slot = base + way;
                let mut first_write = false;
                let was_dirty = self.dirty[slot];
                let write_back = self.config.write_policy == WritePolicy::WriteBack;
                self.lru[slot] = tick;
                if let Some(clock) = &mut self.clock {
                    clock.touch(slot, now, kind == AccessKind::Write);
                }
                // Write-through caches never hold dirty lines; their
                // stores are forwarded onward by the hierarchy.
                if kind == AccessKind::Write && write_back {
                    if was_dirty {
                        if self.config.track_written {
                            self.written[slot] = true;
                        }
                    } else {
                        self.dirty[slot] = true;
                        first_write = true;
                    }
                }
                if first_write {
                    self.dirty_lines += 1;
                    self.lifetime_dirty(slot, now);
                }
                match kind {
                    AccessKind::Write => {
                        self.stats.write_hits += 1;
                        self.emit(L2Event::WriteHit {
                            set,
                            way,
                            line,
                            first_write,
                            silent: false,
                        });
                    }
                    AccessKind::Read | AccessKind::Fetch => {
                        self.stats.read_hits += 1;
                        self.emit(L2Event::ReadHit {
                            set,
                            way,
                            line,
                            dirty: was_dirty,
                        });
                    }
                }
                Lookup::Hit {
                    set,
                    way,
                    first_write,
                }
            }
            None => {
                if kind == AccessKind::Write {
                    self.stats.write_misses += 1;
                } else {
                    self.stats.read_misses += 1;
                }
                Lookup::Miss { set }
            }
        }
    }

    /// Installs `line` after a miss, evicting the LRU victim if needed.
    ///
    /// `write` marks a write-allocate fill: the line is installed dirty
    /// (modified once; written bit stays clear). `data` supplies the line's
    /// payload when the cache stores data; it is copied into the slot. A
    /// displaced line's words move to [`Cache::evicted_data`].
    ///
    /// # Panics
    ///
    /// Panics if `data` presence disagrees with the `store_data`
    /// configuration. A double install (line already resident) panics in
    /// release builds too: the victim scan asserts on every valid way it
    /// passes before the first invalid one. A resident copy behind an
    /// invalid way is left to the differential checker (`aep-check`),
    /// whose golden model reports it as a violation.
    pub fn install(
        &mut self,
        line: LineAddr,
        write: bool,
        now: Cycle,
        data: Option<&[u64]>,
    ) -> AccessOutcome {
        assert_eq!(
            data.is_some(),
            self.config.store_data,
            "fill data must match the store_data configuration"
        );
        if let Some(d) = data {
            assert_eq!(
                d.len(),
                self.words_per_line,
                "fill data must be one full line"
            );
        }
        let (set, tag) = self.set_and_tag(line);
        self.tick += 1;
        let tick = self.tick;

        // Choose a victim: first invalid way, else least-recently used.
        // Like the lookup probe, this scans only the valid and lru lanes.
        let base = self.slot(set, 0);
        let mut victim = 0usize;
        let mut best_lru = u64::MAX;
        let mut found_invalid = false;
        for way in 0..self.ways {
            let slot = base + way;
            if !self.valid[slot] {
                victim = way;
                found_invalid = true;
                break;
            }
            assert!(
                self.tags[slot] != tag,
                "install of an already-resident line {line}"
            );
            if self.lru[slot] < best_lru {
                best_lru = self.lru[slot];
                victim = way;
            }
        }

        let slot = base + victim;
        let evicted = if !found_invalid {
            let ev = EvictedLine {
                line: LineAddr::from_tag_set(self.tags[slot], set, self.sets),
                way: victim,
                dirty: self.dirty[slot],
                written: self.written[slot],
            };
            if self.config.store_data {
                let words = self.words(slot);
                self.evicted.copy_from_slice(&self.data[words]);
            }
            if ev.dirty {
                self.dirty_lines -= 1;
                self.stats.writebacks_replacement += 1;
                self.lifetime_clean(slot, now);
            }
            self.stats.evictions += 1;
            self.emit(L2Event::Evict {
                set,
                way: victim,
                line: ev.line,
                dirty: ev.dirty,
            });
            Some(ev)
        } else {
            None
        };

        // A write-allocate fill dirties the line only in a write-back
        // cache; write-through caches forward the store onward instead.
        let dirty = write && self.config.write_policy == WritePolicy::WriteBack;
        self.tags[slot] = tag;
        self.valid[slot] = true;
        self.dirty[slot] = dirty;
        self.written[slot] = false;
        self.lru[slot] = tick;
        if let Some(clock) = &mut self.clock {
            clock.fill(slot, now);
        }
        if let Some(d) = data {
            let words = self.words(slot);
            self.data[words].copy_from_slice(d);
        }
        if dirty {
            self.dirty_lines += 1;
            self.lifetime_dirty(slot, now);
        }
        self.emit(L2Event::Fill {
            set,
            way: victim,
            line,
            write,
        });
        AccessOutcome {
            set,
            way: victim,
            evicted,
        }
    }

    /// One cleaning probe of `set` (the cleaning FSM's per-set action):
    /// every valid line that `rule` picks is written back and marked
    /// clean, and appended to `out` so the caller can put the write-backs
    /// on the bus (a cleaned line stays resident; its words are
    /// [`Cache::line_data`] at its way). Under the written-bit rules a
    /// spared line's written bit is reset, as is a predicted-dead but
    /// written line's under [`CleanRule::ReuseGap`].
    ///
    /// # Panics
    ///
    /// Panics if `rule` reads line times ([`CleanRule::Idle`],
    /// [`CleanRule::ReuseGap`]) on a cache that does not track written
    /// bits (it keeps none then) and the set holds a dirty line.
    pub fn clean_set(
        &mut self,
        set: usize,
        now: Cycle,
        rule: CleanRule,
        out: &mut Vec<EvictedLine>,
    ) {
        debug_assert!(set < self.sets as usize, "set index out of range");
        let base = self.slot(set, 0);
        let lru_way = match rule {
            CleanRule::LruIfDirty => (0..self.ways)
                .filter(|&way| self.valid[base + way])
                .min_by_key(|&way| self.lru[base + way]),
            _ => None,
        };
        for way in 0..self.ways {
            let slot = base + way;
            if !self.valid[slot] {
                continue;
            }
            let (dirty, written) = (self.dirty[slot], self.written[slot]);
            // Whether the rule writes the line back, and whether a line it
            // leaves alone has its written bit reset.
            let (pick, reset_written) = match rule {
                CleanRule::WrittenBit => (dirty && !written, true),
                CleanRule::AllDirty => (dirty, true),
                CleanRule::Idle { window } => (
                    dirty && now.saturating_sub(self.clock().last_access[slot]) >= window,
                    false,
                ),
                CleanRule::ReuseGap {
                    multiplier,
                    fallback_gap,
                } => {
                    let dead = dirty && {
                        let clock = self.clock();
                        let gap = match clock.write_gap[slot] {
                            0 => fallback_gap,
                            g => g,
                        };
                        now.saturating_sub(clock.last_write[slot])
                            >= gap.saturating_mul(u64::from(multiplier))
                    };
                    (dead && !written, dead)
                }
                CleanRule::LruIfDirty => (dirty && lru_way == Some(way), false),
            };
            if pick {
                out.push(self.write_back(set, way, now, WbClass::Cleaning));
            } else if reset_written {
                self.written[slot] = false;
            }
        }
    }

    /// Registers a store whose bytes matched the resident line exactly
    /// (a **silent store**): replacement state and statistics advance as
    /// for any write hit, but the dirty/written bits are left untouched —
    /// no data changed, so no check-bit regeneration is owed. Emits
    /// [`L2Event::WriteHit`] with `silent: true`.
    ///
    /// # Panics
    ///
    /// Debug-panics when the way does not hold a valid line.
    pub fn silent_write_hit(&mut self, set: usize, way: usize, now: Cycle) {
        let slot = self.slot(set, way);
        debug_assert!(self.valid[slot], "silent write hit on an invalid line");
        self.tick += 1;
        self.lru[slot] = self.tick;
        if let Some(clock) = &mut self.clock {
            clock.touch(slot, now, true);
        }
        self.stats.write_hits += 1;
        self.silent_write_hits += 1;
        let line = LineAddr::from_tag_set(self.tags[slot], set, self.sets);
        self.emit(L2Event::WriteHit {
            set,
            way,
            line,
            first_write: false,
            silent: true,
        });
    }

    /// Number of stores elided as silent (see [`Cache::silent_write_hit`]).
    #[must_use]
    pub fn silent_write_hit_count(&self) -> u64 {
        self.silent_write_hits
    }

    /// Forcibly writes back and cleans one dirty line (the proposed
    /// scheme's ECC-entry eviction). Returns the line for the bus, or
    /// `None` when the way is not a valid dirty line.
    pub fn force_clean(
        &mut self,
        set: usize,
        way: usize,
        now: Cycle,
        class: WbClass,
    ) -> Option<EvictedLine> {
        let slot = self.slot(set, way);
        (self.valid[slot] && self.dirty[slot]).then(|| self.write_back(set, way, now, class))
    }

    /// Writes back the valid dirty line at (`set`, `way`) early: it stays
    /// resident, clean and unwritten, and the write-back is counted as
    /// `class` and announced as [`L2Event::Cleaned`].
    fn write_back(&mut self, set: usize, way: usize, now: Cycle, class: WbClass) -> EvictedLine {
        let slot = self.slot(set, way);
        let line = LineAddr::from_tag_set(self.tags[slot], set, self.sets);
        let written = self.written[slot];
        self.dirty[slot] = false;
        self.written[slot] = false;
        self.dirty_lines -= 1;
        self.lifetime_clean(slot, now);
        self.stats.count_writeback(class);
        self.emit(L2Event::Cleaned {
            set,
            way,
            line,
            class,
        });
        EvictedLine {
            line,
            way,
            dirty: true,
            written,
        }
    }

    /// Non-mutating residence check.
    #[must_use]
    pub fn peek(&self, line: LineAddr) -> Option<(usize, usize)> {
        let (set, tag) = self.set_and_tag(line);
        (0..self.ways).find_map(|way| {
            let slot = self.slot(set, way);
            (self.valid[slot] && self.tags[slot] == tag).then_some((set, way))
        })
    }

    /// Metadata view of one way.
    ///
    /// # Panics
    ///
    /// Panics if `set`/`way` are out of range.
    #[must_use]
    pub fn line_view(&self, set: usize, way: usize) -> LineView {
        let slot = self.slot(set, way);
        LineView {
            line: LineAddr::from_tag_set(self.tags[slot], set, self.sets),
            valid: self.valid[slot],
            dirty: self.dirty[slot],
            written: self.written[slot],
        }
    }

    /// Overwrites one 64-bit word of a resident line's data.
    ///
    /// Used by the hierarchy to apply store payloads to the L2 image.
    ///
    /// # Panics
    ///
    /// Panics when the cache does not store data, or indices are invalid.
    pub fn write_word(&mut self, set: usize, way: usize, word: usize, value: u64) {
        let slot = self.slot(set, way);
        debug_assert!(self.valid[slot], "write_word on an invalid line");
        assert!(
            self.config.store_data,
            "write_word requires a data-storing cache"
        );
        let words = self.words(slot);
        self.data[words][word] = value;
        if self.emit_word_events {
            self.emit(L2Event::WordWritten {
                set,
                way,
                word,
                value,
            });
        }
    }

    /// Read-only view of a resident line's data words, if stored.
    #[must_use]
    pub fn line_data(&self, set: usize, way: usize) -> Option<&[u64]> {
        let slot = self.slot(set, way);
        (self.config.store_data && self.valid[slot]).then(|| &self.data[self.words(slot)])
    }

    /// The words of the line most recently displaced by
    /// [`Cache::install`], if the cache stores data (zeros before the
    /// first displacement).
    #[must_use]
    pub fn evicted_data(&self) -> Option<&[u64]> {
        self.config.store_data.then_some(self.evicted.as_slice())
    }

    /// Flips one bit of a resident line's stored data — a soft-error strike.
    /// Check bits held by the protection scheme are *not* refreshed.
    ///
    /// # Panics
    ///
    /// Panics when the target is invalid or the cache stores no data.
    pub fn strike(&mut self, set: usize, way: usize, word: usize, bit: u8) {
        assert!(bit < 64, "bit index out of range");
        let slot = self.slot(set, way);
        assert!(self.valid[slot], "strike on an invalid line");
        assert!(
            self.config.store_data,
            "strike requires a data-storing cache"
        );
        let words = self.words(slot);
        self.data[words][word] ^= 1u64 << bit;
    }

    /// Recomputes the dirty count from scratch (test/diagnostic cross-check
    /// of the incremental counter).
    #[must_use]
    pub fn recount_dirty_lines(&self) -> u64 {
        self.valid
            .iter()
            .zip(&self.dirty)
            .filter(|(&v, &d)| v && d)
            .count() as u64
    }

    /// Counts resident lines with the written bit set (O(lines) scan; meant
    /// for snapshot/census time, not the per-cycle hot path).
    #[must_use]
    pub fn written_line_count(&self) -> u64 {
        self.valid
            .iter()
            .zip(&self.written)
            .filter(|(&v, &w)| v && w)
            .count() as u64
    }

    /// True when configured write-through (the L1D in the paper).
    #[must_use]
    pub fn is_write_through(&self) -> bool {
        self.config.write_policy == WritePolicy::WriteThrough
    }

    /// True when write misses allocate.
    #[must_use]
    pub fn allocates_on_write(&self) -> bool {
        self.config.alloc_policy == AllocPolicy::WriteAllocate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(words: usize, seed: u64) -> Vec<u64> {
        (0..words as u64).map(|i| seed ^ i).collect()
    }

    fn tiny() -> Cache {
        Cache::new(CacheConfig::tiny_l2()) // 4 KB, 4-way, 64 B lines: 16 sets
    }

    /// The lines one [`Cache::clean_set`] probe writes back.
    pub(super) fn probe(
        c: &mut Cache,
        set: usize,
        now: Cycle,
        rule: CleanRule,
    ) -> Vec<EvictedLine> {
        let mut out = Vec::new();
        c.clean_set(set, now, rule, &mut out);
        out
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.sets(), 16);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.total_lines(), 64);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let line = LineAddr(5);
        assert_eq!(c.lookup(line, AccessKind::Read, 0), Lookup::Miss { set: 5 });
        c.install(line, false, 0, Some(&data(8, 1)));
        assert!(c.lookup(line, AccessKind::Read, 1).is_hit());
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn first_write_sets_dirty_second_sets_written() {
        let mut c = tiny();
        let line = LineAddr(3);
        c.lookup(line, AccessKind::Write, 0);
        c.install(line, false, 0, Some(&data(8, 2))); // fill from a read-style install
        match c.lookup(line, AccessKind::Write, 1) {
            Lookup::Hit {
                first_write,
                set,
                way,
            } => {
                assert!(first_write);
                let v = c.line_view(set, way);
                assert!(v.dirty && !v.written);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        match c.lookup(line, AccessKind::Write, 2) {
            Lookup::Hit {
                first_write,
                set,
                way,
            } => {
                assert!(!first_write);
                let v = c.line_view(set, way);
                assert!(v.dirty && v.written);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(c.dirty_line_count(), 1);
    }

    #[test]
    fn write_allocate_fill_is_dirty_but_not_written() {
        let mut c = tiny();
        let out = c.install(LineAddr(7), true, 0, Some(&data(8, 3)));
        let v = c.line_view(out.set, out.way);
        assert!(v.dirty && !v.written);
        assert_eq!(c.dirty_line_count(), 1);
    }

    #[test]
    fn lru_victim_is_least_recently_used() {
        let mut c = tiny();
        // Fill all 4 ways of set 0 (lines map to set = line % 16).
        for i in 0..4u64 {
            let line = LineAddr(i * 16);
            c.lookup(line, AccessKind::Read, i);
            c.install(line, false, i, Some(&data(8, i)));
        }
        // Touch lines 0,1,3 — line 2*16 becomes LRU.
        for i in [0u64, 1, 3] {
            assert!(c
                .lookup(LineAddr(i * 16), AccessKind::Read, 10 + i)
                .is_hit());
        }
        let out = c.install(LineAddr(4 * 16), false, 20, Some(&data(8, 9)));
        let ev = out.evicted.expect("a line must be displaced");
        assert_eq!(ev.line, LineAddr(2 * 16));
    }

    #[test]
    fn dirty_eviction_counts_replacement_writeback() {
        let mut c = tiny();
        for i in 0..5u64 {
            let line = LineAddr(i * 16);
            c.lookup(line, AccessKind::Write, i);
            c.install(line, true, i, Some(&data(8, i)));
        }
        assert_eq!(c.stats().writebacks_replacement, 1);
        assert_eq!(c.stats().evictions, 1);
        // 5 installs, 1 evicted: 4 dirty lines resident.
        assert_eq!(c.dirty_line_count(), 4);
        assert_eq!(c.recount_dirty_lines(), 4);
    }

    #[test]
    fn evicted_dirty_data_is_the_last_written_data() {
        // The fault campaign's corruption witness relies on this exact
        // contract: under `store_data`, whatever was last stored into a
        // dirty line is byte-for-byte what eviction hands back.
        let mut c = tiny();
        let line = LineAddr(9);
        c.lookup(line, AccessKind::Write, 0);
        let out = c.install(line, true, 0, Some(&data(8, 0xDEAD)));
        // Overwrite individual words after the fill, as store retirement does.
        c.write_word(out.set, out.way, 0, 0x1111);
        c.write_word(out.set, out.way, 7, 0x7777);
        let mut expected: Vec<u64> = (0..8u64).map(|i| 0xDEAD ^ i).collect();
        expected[0] = 0x1111;
        expected[7] = 0x7777;
        assert_eq!(c.line_data(out.set, out.way).unwrap(), expected.as_slice());
        // Displace the line by filling the other ways of its set, then one more.
        for k in 1..=4u64 {
            let filler = LineAddr(9 + 16 * k);
            c.lookup(filler, AccessKind::Read, k);
            let fill_out = c.install(filler, false, k, Some(&data(8, k)));
            if let Some(ev) = fill_out.evicted {
                assert_eq!(ev.line, line, "LRU victim is the dirty line");
                assert!(ev.dirty);
                assert_eq!(
                    c.evicted_data().expect("store_data caches hand data back"),
                    expected.as_slice()
                );
                return;
            }
        }
        panic!("the dirty line was never evicted");
    }

    #[test]
    fn clean_probe_implements_paper_fsm() {
        let mut c = tiny();
        // Way A: dirty, not written (written-once, now idle) -> cleaned.
        let a = LineAddr(0);
        c.install(a, true, 0, Some(&data(8, 1)));
        // Way B: dirty and written (recently re-written) -> written reset only.
        let b = LineAddr(16);
        c.install(b, true, 0, Some(&data(8, 2)));
        c.lookup(b, AccessKind::Write, 1); // sets written
                                           // Way C: clean -> untouched.
        let cc = LineAddr(32);
        c.install(cc, false, 0, Some(&data(8, 3)));

        assert_eq!(c.dirty_line_count(), 2);
        let cleaned = probe(&mut c, 0, 100, CleanRule::WrittenBit);
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned[0].line, a);
        assert_eq!(c.dirty_line_count(), 1);
        assert_eq!(c.stats().writebacks_cleaning, 1);

        // B's written bit was reset; a second probe now cleans B.
        let cleaned = probe(&mut c, 0, 200, CleanRule::WrittenBit);
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned[0].line, b);
        assert_eq!(c.dirty_line_count(), 0);
    }

    #[test]
    fn written_bit_not_tracked_when_disabled() {
        let mut cfg = CacheConfig::tiny_l2();
        cfg.track_written = false;
        let mut c = Cache::new(cfg);
        let line = LineAddr(1);
        c.install(line, true, 0, Some(&data(8, 1)));
        c.lookup(line, AccessKind::Write, 1);
        let (set, way) = c.peek(line).unwrap();
        assert!(!c.line_view(set, way).written);
    }

    #[test]
    fn force_clean_cleans_exactly_one_line() {
        let mut c = tiny();
        let line = LineAddr(2);
        c.install(line, true, 0, Some(&data(8, 5)));
        let (set, way) = c.peek(line).unwrap();
        let ev = c.force_clean(set, way, 1, WbClass::EccEviction).unwrap();
        assert_eq!(ev.line, line);
        assert_eq!(c.dirty_line_count(), 0);
        assert_eq!(c.stats().writebacks_ecc_eviction, 1);
        // Cleaning an already-clean line is a no-op.
        assert!(c.force_clean(set, way, 2, WbClass::EccEviction).is_none());
    }

    #[test]
    fn events_describe_the_access_stream() {
        let mut c = tiny();
        c.set_event_emission(true);
        let line = LineAddr(4);
        c.lookup(line, AccessKind::Write, 0);
        c.install(line, true, 0, Some(&data(8, 1)));
        c.lookup(line, AccessKind::Read, 1);
        c.lookup(line, AccessKind::Write, 2);
        let events = c.take_events();
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0], L2Event::Fill { write: true, .. }));
        assert!(matches!(events[1], L2Event::ReadHit { dirty: true, .. }));
        assert!(matches!(
            events[2],
            L2Event::WriteHit {
                first_write: false,
                ..
            }
        ));
        assert!(c.take_events().is_empty());
    }

    #[test]
    fn write_word_and_strike_mutate_data() {
        let mut c = tiny();
        let line = LineAddr(6);
        c.install(line, false, 0, Some(&data(8, 0)));
        let (set, way) = c.peek(line).unwrap();
        c.write_word(set, way, 3, 0xFFFF);
        assert_eq!(c.line_data(set, way).unwrap()[3], 0xFFFF);
        c.strike(set, way, 3, 0);
        assert_eq!(c.line_data(set, way).unwrap()[3], 0xFFFE);
    }

    // The victim scan's double-install check is a plain assert!: one
    // compare per valid way scanned, so the contract holds in release too.
    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_install_panics() {
        let mut c = tiny();
        c.install(LineAddr(1), false, 0, Some(&data(8, 0)));
        c.install(LineAddr(1), false, 1, Some(&data(8, 0)));
    }

    #[test]
    fn word_events_emit_only_when_enabled() {
        let mut c = tiny();
        c.set_event_emission(true);
        let line = LineAddr(11);
        let out = c.install(line, true, 0, Some(&data(8, 0)));
        c.write_word(out.set, out.way, 2, 0xAB);
        assert!(
            !c.take_events()
                .iter()
                .any(|e| matches!(e, L2Event::WordWritten { .. })),
            "word events are off by default"
        );
        c.set_word_event_emission(true);
        c.write_word(out.set, out.way, 5, 0xCD);
        let events = c.take_events();
        assert_eq!(
            events,
            vec![L2Event::WordWritten {
                set: out.set,
                way: out.way,
                word: 5,
                value: 0xCD,
            }]
        );
    }

    #[test]
    fn evicted_line_carries_its_data() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.install(LineAddr(i * 16), i == 0, i, Some(&data(8, 100 + i)));
        }
        let out = c.install(LineAddr(4 * 16), false, 10, Some(&data(8, 999)));
        let ev = out.evicted.unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.dirty);
        assert_eq!(c.evicted_data().unwrap()[0], 100);
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::tests::probe;
    use super::*;
    use crate::config::CacheConfig;

    #[test]
    fn aggressive_probe_ignores_the_written_bit() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        let data = vec![1u64; 8];
        // A dirty line that was just re-written (written = 1).
        let line = LineAddr(0);
        c.install(line, true, 0, Some(&data));
        c.lookup(line, AccessKind::Write, 1);
        let (set, way) = c.peek(line).unwrap();
        assert!(c.line_view(set, way).written);

        // The paper's probe spares it...
        assert!(probe(&mut c, set, 10, CleanRule::WrittenBit).is_empty());
        // ...re-set the written bit (the probe reset it) and show the
        // aggressive probe does not.
        c.lookup(line, AccessKind::Write, 11);
        assert!(c.line_view(set, way).written);
        let cleaned = probe(&mut c, set, 12, CleanRule::AllDirty);
        assert_eq!(cleaned.len(), 1);
        // The write-back clears both bits: written implies dirty.
        let v = c.line_view(set, way);
        assert!(!v.dirty && !v.written);
    }

    #[test]
    fn probe_modes_agree_on_quiescent_lines() {
        let mut a = Cache::new(CacheConfig::tiny_l2());
        let mut b = Cache::new(CacheConfig::tiny_l2());
        for c in [&mut a, &mut b] {
            c.install(LineAddr(1), true, 0, Some(&[2; 8]));
        }
        let set = LineAddr(1).set_index(16);
        assert_eq!(
            probe(&mut a, set, 5, CleanRule::WrittenBit).len(),
            probe(&mut b, set, 5, CleanRule::AllDirty).len()
        );
    }
}

#[cfg(test)]
mod silent_and_reuse_tests {
    use super::tests::probe;
    use super::*;
    use crate::config::CacheConfig;

    fn data(seed: u64) -> Vec<u64> {
        (0..8u64).map(|i| seed ^ i).collect()
    }

    #[test]
    fn silent_write_hit_leaves_protection_state_untouched() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        c.set_event_emission(true);
        let line = LineAddr(4);
        c.install(line, false, 0, Some(&data(7))); // clean read fill
        let (set, way) = c.peek(line).unwrap();
        let _ = c.take_events();

        c.silent_write_hit(set, way, 10);
        let v = c.line_view(set, way);
        assert!(
            !v.dirty && !v.written,
            "silent store must not dirty the line"
        );
        assert_eq!(c.dirty_line_count(), 0);
        assert_eq!(c.silent_write_hit_count(), 1);
        assert_eq!(c.stats().write_hits, 1);
        assert_eq!(
            c.take_events(),
            vec![L2Event::WriteHit {
                set,
                way,
                line,
                first_write: false,
                silent: true,
            }]
        );

        // On an already-dirty line, dirty stays set and written stays clear.
        let dirty_line = LineAddr(5);
        c.install(dirty_line, true, 20, Some(&data(9)));
        let (ds, dw) = c.peek(dirty_line).unwrap();
        c.silent_write_hit(ds, dw, 30);
        let v = c.line_view(ds, dw);
        assert!(v.dirty && !v.written, "silent store must not set written");
        assert_eq!(c.silent_write_hit_count(), 2);
    }

    #[test]
    fn silent_write_hit_refreshes_replacement_state() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        for i in 0..4u64 {
            c.install(LineAddr(i * 16), false, i, Some(&data(i)));
        }
        // Silently re-store line 0 — it becomes MRU; line 16 becomes LRU.
        let (set, way) = c.peek(LineAddr(0)).unwrap();
        c.silent_write_hit(set, way, 10);
        let out = c.install(LineAddr(4 * 16), false, 20, Some(&data(99)));
        assert_eq!(out.evicted.unwrap().line, LineAddr(16));
    }

    #[test]
    fn reuse_probe_cleans_only_predicted_dead_unwritten_lines() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        // Way A: written at t=0 and t=100 (gap 100), idle since. At
        // t=1000 with multiplier 4 its threshold is 400 < 900 idle, but
        // the second write set `written` — first probe only resets it.
        let a = LineAddr(0);
        c.install(a, true, 0, Some(&data(1)));
        c.lookup(a, AccessKind::Write, 100);
        // Way B: single write at t=0 (no gap on record): fallback gap 200
        // × 4 = 800 ≤ 1000 idle — predicted dead, cleaned.
        let b = LineAddr(16);
        c.install(b, true, 0, Some(&data(2)));
        // Way C: written at t=0 and t=950 (gap 950): threshold 3800,
        // idle 50 — alive, spared (written reset only).
        let cc = LineAddr(32);
        c.install(cc, true, 0, Some(&data(3)));
        c.lookup(cc, AccessKind::Write, 950);

        let cleaned = probe(
            &mut c,
            0,
            1_000,
            CleanRule::ReuseGap {
                multiplier: 4,
                fallback_gap: 200,
            },
        );
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned[0].line, b);
        assert_eq!(c.stats().writebacks_cleaning, 1);
        let (s, w) = c.peek(a).unwrap();
        assert!(c.line_view(s, w).dirty && !c.line_view(s, w).written);

        // A is now dirty && !written and long idle: the next probe cleans
        // it; C stays written (its predicted threshold spares it).
        let cleaned = probe(
            &mut c,
            0,
            2_000,
            CleanRule::ReuseGap {
                multiplier: 4,
                fallback_gap: 200,
            },
        );
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned[0].line, a);
        let (s, w) = c.peek(cc).unwrap();
        assert!(c.line_view(s, w).dirty && c.line_view(s, w).written);
    }

    #[test]
    fn reuse_probe_spares_recently_written_lines() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        let line = LineAddr(2);
        c.install(line, true, 0, Some(&data(4)));
        // Idle 100 < fallback 200 × 4: nothing happens.
        assert!(probe(
            &mut c,
            2,
            100,
            CleanRule::ReuseGap {
                multiplier: 4,
                fallback_gap: 200
            }
        )
        .is_empty());
        assert_eq!(c.dirty_line_count(), 1);
    }
}

#[cfg(test)]
mod alt_cleaning_tests {
    use super::tests::probe;
    use super::*;
    use crate::config::CacheConfig;

    fn data() -> [u64; 8] {
        [3; 8]
    }

    #[test]
    fn decay_probe_cleans_only_idle_dirty_lines() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        // Dirty at t=0, touched again at t=900.
        c.install(LineAddr(0), true, 0, Some(&data()));
        // Dirty at t=0, never touched again.
        c.install(LineAddr(16), true, 0, Some(&data()));
        c.lookup(LineAddr(0), AccessKind::Read, 900);

        let cleaned = probe(&mut c, 0, 1_000, CleanRule::Idle { window: 500 });
        assert_eq!(cleaned.len(), 1, "only the idle line decays");
        assert_eq!(cleaned[0].line, LineAddr(16));
        let (set, way) = c.peek(LineAddr(0)).unwrap();
        assert!(
            c.line_view(set, way).dirty,
            "recently touched line survives"
        );
    }

    #[test]
    fn only_written_bit_caches_keep_line_times() {
        // The decay and reuse probes read line times; they run only on a
        // cache that tracks written bits, so the L1s keep none.
        for (config, keeps) in [
            (CacheConfig::date2006_l1i(), false),
            (CacheConfig::date2006_l1d(), false),
            (CacheConfig::date2006_l2(), true),
        ] {
            assert_eq!(Cache::new(config).clock.is_some(), keeps);
        }
    }

    #[test]
    #[should_panic(expected = "tracks written bits")]
    fn decay_probe_needs_line_times() {
        // A write-allocate fill dirties the line, so the probe reads its
        // access time.
        let mut c = Cache::new(CacheConfig::date2006_l1i());
        c.install(LineAddr(1), true, 0, None);
        let _ = probe(&mut c, 1, 10, CleanRule::Idle { window: 1 });
    }

    #[test]
    fn decay_probe_with_zero_window_cleans_everything_dirty() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        c.install(LineAddr(1), true, 0, Some(&data()));
        c.install(LineAddr(17), true, 0, Some(&data()));
        let cleaned = probe(&mut c, 1, 0, CleanRule::Idle { window: 0 });
        assert_eq!(cleaned.len(), 2);
        assert_eq!(c.dirty_line_count(), 0);
    }

    #[test]
    fn eager_probe_cleans_the_lru_dirty_way() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        c.install(LineAddr(2), true, 0, Some(&data())); // oldest
        c.install(LineAddr(18), true, 1, Some(&data()));
        let cleaned = probe(&mut c, 2, 10, CleanRule::LruIfDirty);
        assert_eq!(cleaned.len(), 1, "the LRU way is dirty");
        assert_eq!(cleaned[0].line, LineAddr(2));
        // The LRU way is now clean; a second probe finds it clean.
        assert!(probe(&mut c, 2, 11, CleanRule::LruIfDirty).is_empty());
        assert_eq!(c.dirty_line_count(), 1, "the MRU dirty line is untouched");
    }

    #[test]
    fn eager_probe_skips_clean_lru() {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        c.install(LineAddr(3), false, 0, Some(&data())); // clean LRU
        c.install(LineAddr(19), true, 1, Some(&data())); // dirty MRU
        assert!(probe(&mut c, 3, 10, CleanRule::LruIfDirty).is_empty());
        assert_eq!(c.dirty_line_count(), 1);
    }
}
