//! Extension: a background ECC/parity scrubber.
//!
//! Soft errors accumulate: a single-bit flip that sits unread long enough
//! can be joined by a second flip in the same word, turning a correctable
//! error into a detected-unrecoverable (or, under parity, an undetected)
//! one. Production memory systems therefore *scrub* — walk the arrays in
//! the background, verifying and repairing each line. The paper leaves
//! this implicit; we implement it as an optional engine so the
//! fault-accumulation benefit is measurable (see the reliability example
//! and [`crate::reliability`]).
//!
//! The scrubber shares the cleaning logic's hardware idiom: a cycle
//! counter plus a (set, way) cursor, visiting one line per period.

use aep_mem::cache::Cache;
use aep_mem::{Cycle, MainMemory};

use crate::scheme::{ProtectionScheme, RecoveryOutcome};

/// Scrubber statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Lines verified.
    pub scrubbed: u64,
    /// Latent single-bit errors corrected in place.
    pub corrected: u64,
    /// Clean lines repaired by refetch.
    pub refetched: u64,
    /// Latent errors found unrecoverable.
    pub unrecoverable: u64,
}

impl ScrubStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("scrubbed", self.scrubbed);
        reg.counter("corrected", self.corrected);
        reg.counter("refetched", self.refetched);
        reg.counter("unrecoverable", self.unrecoverable);
    }
}

/// A background scrubbing engine walking the cache line by line.
///
/// ```
/// use aep_core::scrub::Scrubber;
///
/// // Visit one line every 128 cycles over a 64-line cache:
/// let mut s = Scrubber::new(128, 16, 4);
/// assert_eq!(s.due(127), None);
/// assert_eq!(s.due(128), Some((0, 0)));
/// s.complete(128, aep_core::RecoveryOutcome::Clean);
/// assert_eq!(s.due(256), Some((0, 1)));
/// ```
#[derive(Debug, Clone)]
pub struct Scrubber {
    period: u64,
    sets: usize,
    ways: usize,
    set: usize,
    way: usize,
    next_at: Cycle,
    stats: ScrubStats,
}

impl Scrubber {
    /// Creates a scrubber visiting one line per `period` cycles.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn new(period: u64, sets: usize, ways: usize) -> Self {
        assert!(period > 0, "scrub period must be positive");
        assert!(sets > 0 && ways > 0, "cache geometry must be non-empty");
        Scrubber {
            period,
            sets,
            ways,
            set: 0,
            way: 0,
            next_at: period,
            stats: ScrubStats::default(),
        }
    }

    /// Cycles per full sweep of the cache.
    #[must_use]
    pub fn sweep_cycles(&self) -> u64 {
        self.period * self.sets as u64 * self.ways as u64
    }

    /// The cycle from which the pending scrub is due: [`Scrubber::due`]
    /// returns `Some` for every cycle at or past this point (the system
    /// loop fast-forwards dead cycles between scrubs).
    #[must_use]
    pub fn next_due_at(&self) -> Cycle {
        self.next_at
    }

    /// The (set, way) to scrub at `now`, if one is due.
    #[must_use]
    pub fn due(&self, now: Cycle) -> Option<(usize, usize)> {
        (now >= self.next_at).then_some((self.set, self.way))
    }

    /// Records the outcome of a completed scrub and advances the cursor.
    pub fn complete(&mut self, now: Cycle, outcome: RecoveryOutcome) {
        self.stats.scrubbed += 1;
        match outcome {
            RecoveryOutcome::Clean => {}
            RecoveryOutcome::CorrectedByEcc { .. } => self.stats.corrected += 1,
            RecoveryOutcome::RecoveredByRefetch => self.stats.refetched += 1,
            RecoveryOutcome::Unrecoverable => self.stats.unrecoverable += 1,
        }
        self.way += 1;
        if self.way == self.ways {
            self.way = 0;
            self.set = (self.set + 1) % self.sets;
        }
        self.next_at = (self.next_at + self.period).max(now + 1);
    }

    /// Runs one due scrub against the cache through the scheme; a no-op
    /// when none is due. Returns the outcome, if a line was scrubbed.
    pub fn tick(
        &mut self,
        now: Cycle,
        l2: &mut Cache,
        scheme: &mut dyn ProtectionScheme,
        memory: &mut MainMemory,
    ) -> Option<RecoveryOutcome> {
        let (set, way) = self.due(now)?;
        let outcome = scheme.verify_line(l2, set, way, memory);
        self.complete(now, outcome.clone());
        Some(outcome)
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> ScrubStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::NonUniformScheme;
    use crate::scheme::SchemeKind;
    use aep_mem::addr::LineAddr;
    use aep_mem::CacheConfig;

    fn setup() -> (Cache, NonUniformScheme, MainMemory) {
        let cfg = CacheConfig::tiny_l2();
        let kind = SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        };
        let scheme = NonUniformScheme::new(&cfg, kind);
        let mut l2 = Cache::new(cfg);
        l2.set_event_emission(true);
        (l2, scheme, MainMemory::new(10, 8))
    }

    #[test]
    fn cursor_walks_every_line_once_per_sweep() {
        let mut s = Scrubber::new(1, 4, 2);
        let mut visited = Vec::new();
        for now in 1..=8 {
            let (set, way) = s.due(now).expect("one line per cycle");
            visited.push((set, way));
            s.complete(now, RecoveryOutcome::Clean);
        }
        assert_eq!(
            visited,
            [
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 0),
                (2, 1),
                (3, 0),
                (3, 1)
            ]
        );
        assert_eq!(s.sweep_cycles(), 8);
    }

    #[test]
    fn scrubbing_repairs_a_latent_error_before_it_compounds() {
        let (mut l2, mut scheme, mut mem) = setup();
        // Install one clean line at (0, 0) and sync the scheme.
        let line = LineAddr(0);
        let data = mem.read_line(line);
        l2.install(line, false, 0, Some(&data));
        let mut dirs = Vec::new();
        for ev in l2.take_events() {
            scheme.on_event(&ev, &l2, &mut dirs);
        }
        // A latent strike lands...
        l2.strike(0, 0, 2, 9);
        // ...and the scrubber finds and repairs it on its pass.
        let mut s = Scrubber::new(1, l2.sets(), l2.ways());
        let outcome = s.tick(1, &mut l2, &mut scheme, &mut mem).expect("due");
        assert_eq!(outcome, RecoveryOutcome::RecoveredByRefetch);
        assert_eq!(l2.line_data(0, 0).unwrap(), &*data);
        assert_eq!(s.stats().refetched, 1);
        assert_eq!(s.stats().scrubbed, 1);
    }

    #[test]
    fn no_scrub_before_the_period_elapses() {
        let (mut l2, mut scheme, mut mem) = setup();
        let mut s = Scrubber::new(100, l2.sets(), l2.ways());
        assert!(s.tick(99, &mut l2, &mut scheme, &mut mem).is_none());
        assert!(s.tick(100, &mut l2, &mut scheme, &mut mem).is_some());
        // Completion reschedules; not due again immediately.
        assert!(s.tick(101, &mut l2, &mut scheme, &mut mem).is_none());
    }

    #[test]
    fn stats_classify_outcomes() {
        let mut s = Scrubber::new(1, 2, 2);
        s.complete(1, RecoveryOutcome::Clean);
        s.complete(2, RecoveryOutcome::CorrectedByEcc { words: 1 });
        s.complete(3, RecoveryOutcome::RecoveredByRefetch);
        s.complete(4, RecoveryOutcome::Unrecoverable);
        let st = s.stats();
        assert_eq!(st.scrubbed, 4);
        assert_eq!(st.corrected, 1);
        assert_eq!(st.refetched, 1);
        assert_eq!(st.unrecoverable, 1);
    }
}
