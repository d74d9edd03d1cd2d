//! The dirty-line cleaning logic (§3.2 of the paper).
//!
//! Hardware inventory, per the paper: *"the cleaning logic … includes a
//! cycle counter and a latch storing the next cache set number"*; the latch
//! is 12 bits for 4K sets, the written bits cost 16 Kb, and the FSM is
//! trivial. Behaviour: every `interval / sets` cycles the FSM probes the
//! set in the latch — lines with `dirty=1, written=0` are written back and
//! cleaned, other lines' written bits are reset — then increments the
//! latch. A full sweep of the cache therefore touches every line once per
//! `interval` cycles, which is exactly what the paper means by a "64K" …
//! "4M" cleaning interval.
//!
//! L1 priority (*"the L1 caches are given a priority"*) is handled by the
//! caller: when the L2 port refuses the probe, [`CleaningLogic::due_set`]
//! keeps returning the same set until the probe eventually succeeds and
//! [`CleaningLogic::complete`] is called.

use aep_mem::Cycle;

/// Statistics of the cleaning FSM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleaningStats {
    /// Set probes performed.
    pub probes: u64,
    /// Lines written back by cleaning.
    pub lines_cleaned: u64,
    /// Probes deferred at least once because the L2 port was busy.
    pub deferred: u64,
}

impl CleaningStats {
    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("probes", self.probes);
        reg.counter("lines_cleaned", self.lines_cleaned);
        reg.counter("deferred", self.deferred);
    }
}

/// The cycle counter + next-set latch FSM.
///
/// ```
/// use aep_core::CleaningLogic;
///
/// // 4096 sets swept once every 1M cycles -> one probe per 256 cycles.
/// let mut fsm = CleaningLogic::new(1024 * 1024, 4096);
/// assert_eq!(fsm.probe_period(), 256);
/// assert_eq!(fsm.due_set(0), None);
/// assert_eq!(fsm.due_set(256), Some(0));
/// fsm.complete(256, 1);
/// assert_eq!(fsm.due_set(512), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct CleaningLogic {
    interval: u64,
    sets: usize,
    probe_period: u64,
    next_set: usize,
    next_probe_at: Cycle,
    deferred_this_probe: bool,
    stats: CleaningStats,
}

impl CleaningLogic {
    /// Creates the FSM for a cache of `sets` sets with a full-sweep
    /// `interval` in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0` or the interval is shorter than one cycle per
    /// set (the FSM probes at most one set per cycle).
    #[must_use]
    pub fn new(interval: u64, sets: usize) -> Self {
        assert!(sets > 0, "cache must have sets");
        let probe_period = interval / sets as u64;
        assert!(
            probe_period >= 1,
            "interval {interval} too short to sweep {sets} sets"
        );
        CleaningLogic {
            interval,
            sets,
            probe_period,
            next_set: 0,
            next_probe_at: probe_period,
            deferred_this_probe: false,
            stats: CleaningStats::default(),
        }
    }

    /// The configured full-sweep interval in cycles.
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Cycles between consecutive set probes (`interval / sets`).
    #[must_use]
    pub fn probe_period(&self) -> u64 {
        self.probe_period
    }

    /// The cycle from which the pending probe is due:
    /// [`CleaningLogic::due_set`] returns `Some` for every cycle at or
    /// past this point. The system loop uses it to fast-forward dead
    /// cycles between probes.
    #[must_use]
    pub fn next_probe_at(&self) -> Cycle {
        self.next_probe_at
    }

    /// The set that should be probed at `now`, if a probe is due.
    ///
    /// Keeps returning the same set until [`CleaningLogic::complete`] is
    /// called, so a probe refused by L2-port arbitration is retried.
    #[must_use]
    pub fn due_set(&self, now: Cycle) -> Option<usize> {
        (now >= self.next_probe_at).then_some(self.next_set)
    }

    /// Records that the L2 refused the probe this cycle (L1 priority);
    /// only affects statistics — the probe stays due.
    pub fn defer(&mut self) {
        if !self.deferred_this_probe {
            self.deferred_this_probe = true;
            self.stats.deferred += 1;
        }
    }

    /// Records a completed probe that cleaned `lines_cleaned` lines and
    /// advances the latch to the next set.
    pub fn complete(&mut self, now: Cycle, lines_cleaned: usize) {
        self.stats.probes += 1;
        self.stats.lines_cleaned += lines_cleaned as u64;
        self.next_set = (self.next_set + 1) % self.sets;
        self.deferred_this_probe = false;
        // Keep cadence relative to the schedule, but never fall behind
        // more than one period (a long port-busy streak must not cause a
        // burst of back-to-back probes).
        self.next_probe_at = (self.next_probe_at + self.probe_period).max(now + 1);
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CleaningStats {
        self.stats
    }

    /// The paper's hardware cost: the next-set latch width in bits.
    #[must_use]
    pub fn latch_bits(&self) -> u32 {
        usize::BITS - (self.sets - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_latch_is_12_bits() {
        let fsm = CleaningLogic::new(1024 * 1024, 4096);
        assert_eq!(fsm.latch_bits(), 12);
        assert_eq!(fsm.probe_period(), 256);
    }

    #[test]
    fn probes_walk_sets_in_order() {
        let mut fsm = CleaningLogic::new(64, 4); // period 16
        let mut probed = Vec::new();
        for now in 0..200 {
            if let Some(set) = fsm.due_set(now) {
                probed.push(set);
                fsm.complete(now, 0);
            }
        }
        assert_eq!(&probed[..8], &[0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(fsm.stats().probes, probed.len() as u64);
    }

    #[test]
    fn full_sweep_takes_the_interval() {
        let sets = 16;
        let interval = 1600;
        let mut fsm = CleaningLogic::new(interval, sets);
        let mut completions = Vec::new();
        for now in 0..(2 * interval) {
            if let Some(_set) = fsm.due_set(now) {
                completions.push(now);
                fsm.complete(now, 0);
            }
        }
        // The 16th completion (one full sweep) happens at ~interval.
        assert_eq!(completions[sets - 1], interval);
    }

    #[test]
    fn deferred_probe_stays_due() {
        let mut fsm = CleaningLogic::new(64, 4);
        assert_eq!(fsm.due_set(16), Some(0));
        fsm.defer();
        fsm.defer(); // double defer counts once per probe
        assert_eq!(fsm.due_set(17), Some(0), "probe must persist");
        fsm.complete(17, 2);
        assert_eq!(fsm.stats().deferred, 1);
        assert_eq!(fsm.stats().lines_cleaned, 2);
    }

    #[test]
    fn long_stall_does_not_cause_probe_bursts() {
        let mut fsm = CleaningLogic::new(64, 4); // period 16
        assert_eq!(fsm.due_set(16), Some(0));
        // Port busy for 100 cycles; complete late.
        fsm.complete(116, 0);
        // The next probe must not be due immediately (no burst).
        assert_eq!(fsm.due_set(116), None);
        assert!(fsm.due_set(117).is_some());
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn interval_shorter_than_set_count_panics() {
        let _ = CleaningLogic::new(100, 4096);
    }
}

/// Which early-write-back mechanism a system runs — the paper's
/// written-bit interval FSM, or one of the related-work alternatives it
/// discusses (§2): Kaxiras-style decay cleaning and Lee et al.'s eager
/// writeback. Compared head-to-head by `exp cleaners`.
#[derive(Debug, Clone)]
pub enum CleaningPolicy {
    /// No early write-backs (the `org` baseline).
    None,
    /// The paper's mechanism: interval FSM + written-bit filter.
    WrittenBit(CleaningLogic),
    /// Decay cleaning: the same probe cadence, but a line is written back
    /// when it has been *idle* (unaccessed) for at least `window` cycles —
    /// requires per-line access timestamps instead of one written bit.
    Decay {
        /// Probe scheduler (same cadence semantics as the paper's FSM).
        fsm: CleaningLogic,
        /// Idle threshold in cycles.
        window: u64,
    },
    /// Eager writeback: whenever the off-chip bus is idle, the next set's
    /// LRU line is written back if dirty.
    Eager {
        /// Round-robin set cursor.
        next_set: usize,
        /// Total sets (for wrap-around).
        sets: usize,
    },
    /// Reuse-predicted early copy-back (Wang et al., arXiv:2105.14442):
    /// the same probe cadence, but a dirty line is copied back when it
    /// has been write-idle for at least `multiplier` times its observed
    /// write-reuse gap — the predictor state lives in the cache's
    /// per-line last-write/write-gap columns.
    ReusePredicted {
        /// Probe scheduler (same cadence semantics as the paper's FSM).
        fsm: CleaningLogic,
        /// Idle threshold as a multiple of the observed reuse gap.
        multiplier: u32,
    },
}

impl CleaningPolicy {
    /// The paper's policy at the given full-sweep interval.
    #[must_use]
    pub fn written_bit(interval: u64, sets: usize) -> Self {
        CleaningPolicy::WrittenBit(CleaningLogic::new(interval, sets))
    }

    /// Decay cleaning probing at `interval` cadence with an idle
    /// threshold of `window` cycles.
    #[must_use]
    pub fn decay(interval: u64, window: u64, sets: usize) -> Self {
        CleaningPolicy::Decay {
            fsm: CleaningLogic::new(interval, sets),
            window,
        }
    }

    /// Eager writeback over `sets` sets.
    #[must_use]
    pub fn eager(sets: usize) -> Self {
        CleaningPolicy::Eager { next_set: 0, sets }
    }

    /// Reuse-predicted copy-back probing at `interval` cadence with the
    /// given idle-threshold `multiplier`.
    #[must_use]
    pub fn reuse_predicted(interval: u64, multiplier: u32, sets: usize) -> Self {
        CleaningPolicy::ReusePredicted {
            fsm: CleaningLogic::new(interval, sets),
            multiplier,
        }
    }

    /// Publishes the policy's statistics into the registry under the
    /// current scope. Policies without an FSM (none/eager) publish zeroed
    /// counters so snapshot keys stay identical across schemes.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        let stats = match self {
            CleaningPolicy::WrittenBit(fsm)
            | CleaningPolicy::Decay { fsm, .. }
            | CleaningPolicy::ReusePredicted { fsm, .. } => fsm.stats(),
            CleaningPolicy::None | CleaningPolicy::Eager { .. } => CleaningStats::default(),
        };
        stats.register_stats(reg);
    }

    /// The earliest cycle after `now` at which the policy can act:
    /// the FSM's pending probe for written-bit/decay cleaning, every
    /// cycle for eager writeback (its probe gates on bus idleness, which
    /// must be re-checked each cycle), never for `None`. Cycles before
    /// the returned one are provably policy-idle, which is what lets the
    /// system loop fast-forward over them.
    #[must_use]
    #[inline]
    pub fn next_due_after(&self, now: Cycle) -> Cycle {
        match self {
            CleaningPolicy::None => Cycle::MAX,
            CleaningPolicy::WrittenBit(fsm)
            | CleaningPolicy::Decay { fsm, .. }
            | CleaningPolicy::ReusePredicted { fsm, .. } => fsm.next_probe_at().max(now + 1),
            CleaningPolicy::Eager { .. } => now + 1,
        }
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CleaningPolicy::None => "none".into(),
            CleaningPolicy::WrittenBit(fsm) => {
                format!(
                    "written-bit@{}",
                    crate::scheme::human_interval(fsm.interval())
                )
            }
            CleaningPolicy::Decay { window, .. } => {
                format!("decay@{}", crate::scheme::human_interval(*window))
            }
            CleaningPolicy::Eager { .. } => "eager".into(),
            CleaningPolicy::ReusePredicted { fsm, multiplier } => {
                format!(
                    "reuse{}x@{}",
                    multiplier,
                    crate::scheme::human_interval(fsm.interval())
                )
            }
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn policy_labels() {
        assert_eq!(CleaningPolicy::None.label(), "none");
        assert_eq!(
            CleaningPolicy::written_bit(1024 * 1024, 4096).label(),
            "written-bit@1M"
        );
        assert_eq!(
            CleaningPolicy::decay(1024 * 1024, 256 * 1024, 4096).label(),
            "decay@256K"
        );
        assert_eq!(CleaningPolicy::eager(16).label(), "eager");
        assert_eq!(
            CleaningPolicy::reuse_predicted(1024 * 1024, 4, 4096).label(),
            "reuse4x@1M"
        );
    }
}
