//! The 2-level adaptive branch predictor and branch target buffer.
//!
//! Table 1: *"Branch prediction: 2-level, 2K BTB"*. The direction predictor
//! is a GAg/gshare-style 2-level scheme — a global history register XORed
//! with the PC indexes a table of 2-bit saturating counters. The BTB is a
//! 2048-entry, 4-way set-associative target cache; a taken branch that
//! misses the BTB is treated as a misfetch even when its direction was
//! predicted correctly.

/// Branch-predictor configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpredConfig {
    /// Global-history length in bits.
    pub history_bits: u32,
    /// log2 of the pattern-history-table size.
    pub pht_bits: u32,
    /// Total BTB entries.
    pub btb_entries: usize,
    /// BTB associativity.
    pub btb_ways: usize,
}

impl BpredConfig {
    /// The paper's configuration: 2-level with a 4K-counter PHT and a
    /// 2K-entry, 4-way BTB.
    #[must_use]
    pub fn date2006() -> Self {
        BpredConfig {
            history_bits: 12,
            pht_bits: 12,
            btb_entries: 2048,
            btb_ways: 4,
        }
    }
}

/// Outcome of one branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted direction.
    pub taken: bool,
    /// Predicted target, when the BTB hits.
    pub target: Option<u64>,
}

/// Cumulative predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Branches predicted.
    pub lookups: u64,
    /// Direction mispredictions.
    pub dir_mispredicts: u64,
    /// Taken branches whose target was absent/wrong in the BTB.
    pub target_mispredicts: u64,
}

impl BpredStats {
    /// Total redirect-causing mispredictions.
    #[must_use]
    pub fn mispredicts(&self) -> u64 {
        self.dir_mispredicts + self.target_mispredicts
    }

    /// Misprediction ratio (0.0 when no lookups).
    #[must_use]
    pub fn mispredict_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.mispredicts() as f64 / self.lookups as f64
        }
    }

    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("lookups", self.lookups);
        reg.counter("dir_mispredicts", self.dir_mispredicts);
        reg.counter("target_mispredicts", self.target_mispredicts);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    tag: u64,
    target: u64,
    valid: bool,
    lru: u64,
}

/// A 2-level direction predictor plus BTB.
///
/// ```
/// use aep_cpu::bpred::{BpredConfig, BranchPredictor};
///
/// let mut bp = BranchPredictor::new(BpredConfig::date2006());
/// // Train an always-taken loop branch (long enough to saturate the
/// // global history so the PHT index stabilises).
/// for _ in 0..32 {
///     let p = bp.predict(0x4000);
///     bp.update(0x4000, true, 0x3000, p);
/// }
/// let p = bp.predict(0x4000);
/// assert!(p.taken);
/// assert_eq!(p.target, Some(0x3000));
/// ```
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    cfg: BpredConfig,
    history: u64,
    pht: Vec<u8>,
    btb: Vec<BtbEntry>,
    btb_sets: usize,
    tick: u64,
    stats: BpredStats,
}

impl BranchPredictor {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics if BTB geometry is not a power-of-two set count or
    /// `pht_bits` exceeds 28.
    #[must_use]
    pub fn new(cfg: BpredConfig) -> Self {
        assert!(cfg.pht_bits <= 28, "PHT too large");
        assert!(cfg.btb_ways > 0 && cfg.btb_entries.is_multiple_of(cfg.btb_ways));
        let btb_sets = cfg.btb_entries / cfg.btb_ways;
        assert!(
            btb_sets.is_power_of_two(),
            "BTB sets must be a power of two"
        );
        BranchPredictor {
            history: 0,
            pht: vec![1u8; 1 << cfg.pht_bits], // weakly not-taken
            btb: vec![BtbEntry::default(); cfg.btb_entries],
            btb_sets,
            tick: 0,
            stats: BpredStats::default(),
            cfg,
        }
    }

    /// Folds a PC into an index-friendly value. Real branch sites are not
    /// uniformly spread over low PC bits (compilers align them), so the
    /// index mixes two shifts of the PC the way hardware XOR-folds tags.
    fn fold_pc(pc: u64) -> u64 {
        (pc >> 2) ^ (pc >> 7)
    }

    fn pht_index(&self, pc: u64) -> usize {
        let mask = (1u64 << self.cfg.pht_bits) - 1;
        let hist = self.history & ((1u64 << self.cfg.history_bits) - 1);
        ((Self::fold_pc(pc) ^ hist) & mask) as usize
    }

    fn btb_set(&self, pc: u64) -> usize {
        (Self::fold_pc(pc) as usize) & (self.btb_sets - 1)
    }

    /// Predicts direction and target for the branch at `pc`.
    #[inline]
    pub fn predict(&mut self, pc: u64) -> Prediction {
        self.stats.lookups += 1;
        let taken = self.pht[self.pht_index(pc)] >= 2;
        let set = self.btb_set(pc);
        let tag = pc >> 2;
        let target = (0..self.cfg.btb_ways).find_map(|w| {
            let e = &self.btb[set * self.cfg.btb_ways + w];
            (e.valid && e.tag == tag).then_some(e.target)
        });
        Prediction { taken, target }
    }

    /// Trains the predictor with the branch's actual outcome; returns
    /// `true` when the earlier `prediction` caused a redirect (direction
    /// wrong, or taken with a missing/wrong target).
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool, target: u64, prediction: Prediction) -> bool {
        // Direction: saturating 2-bit counter.
        let idx = self.pht_index(pc);
        let c = &mut self.pht[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        // History update.
        self.history = (self.history << 1) | u64::from(taken);

        // BTB allocation for taken branches.
        if taken {
            self.tick += 1;
            let set = self.btb_set(pc);
            let tag = pc >> 2;
            let base = set * self.cfg.btb_ways;
            let mut victim = base;
            let mut best = u64::MAX;
            let mut found = false;
            for w in 0..self.cfg.btb_ways {
                let e = &self.btb[base + w];
                if e.valid && e.tag == tag {
                    victim = base + w;
                    found = true;
                    break;
                }
                if !e.valid {
                    victim = base + w;
                    best = 0;
                } else if e.lru < best {
                    best = e.lru;
                    victim = base + w;
                }
            }
            let e = &mut self.btb[victim];
            e.tag = tag;
            e.target = target;
            e.valid = true;
            e.lru = self.tick;
            let _ = found;
        }

        // Grade the prediction.

        if prediction.taken != taken {
            self.stats.dir_mispredicts += 1;
            true
        } else if taken && prediction.target != Some(target) {
            self.stats.target_mispredicts += 1;
            true
        } else {
            false
        }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> BpredStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BpredConfig::date2006())
    }

    #[test]
    fn learns_always_taken() {
        let mut p = bp();
        // Train past the 12-bit history saturation point so the PHT index
        // stabilises on the all-taken history.
        for _ in 0..32 {
            let pred = p.predict(0x100);
            p.update(0x100, true, 0x80, pred);
        }
        let pred = p.predict(0x100);
        assert!(pred.taken);
        assert_eq!(pred.target, Some(0x80));
    }

    #[test]
    fn learns_always_not_taken() {
        let mut p = bp();
        for _ in 0..32 {
            let pred = p.predict(0x200);
            p.update(0x200, false, 0, pred);
        }
        assert!(!p.predict(0x200).taken);
    }

    #[test]
    fn initial_prediction_is_not_taken() {
        let mut p = bp();
        assert!(!p.predict(0x300).taken);
    }

    #[test]
    fn btb_miss_on_taken_branch_is_a_target_mispredict() {
        let mut p = bp();
        // Push the direction counter to taken without allocating pc 0x400's
        // own BTB entry... direction training also allocates, so use a new
        // PC aliasing to the same PHT slot is fragile; instead check stats:
        let pred = p.predict(0x400);
        // First encounter: direction predicted not-taken, actual taken.
        let redirect = p.update(0x400, true, 0x99, pred);
        assert!(redirect);
        assert_eq!(p.stats().dir_mispredicts, 1);

        // Now direction will eventually agree; target comes from the BTB.
        for _ in 0..32 {
            let pred = p.predict(0x400);
            p.update(0x400, true, 0x99, pred);
        }
        let pred = p.predict(0x400);
        assert!(pred.taken);
        let redirect = p.update(0x400, true, 0x99, pred);
        assert!(!redirect);
    }

    #[test]
    fn wrong_target_counts_as_mispredict() {
        let mut p = bp();
        for _ in 0..32 {
            let pred = p.predict(0x500);
            p.update(0x500, true, 0x10, pred);
        }
        let pred = p.predict(0x500);
        assert_eq!(pred.target, Some(0x10));
        // The branch jumps somewhere new (indirect-branch behaviour).
        let redirect = p.update(0x500, true, 0x20, pred);
        assert!(redirect);
        assert!(p.stats().target_mispredicts >= 1);
    }

    #[test]
    fn mispredict_ratio_sane_on_alternating_pattern() {
        let mut p = bp();
        // A 2-bit counter alone mispredicts alternation heavily, but the
        // global history lets a 2-level predictor learn it.
        let mut taken = false;
        for _ in 0..2000 {
            let pred = p.predict(0x600);
            p.update(0x600, taken, 0x700, pred);
            taken = !taken;
        }
        assert!(
            p.stats().mispredict_ratio() < 0.2,
            "2-level predictor should learn alternation, ratio={}",
            p.stats().mispredict_ratio()
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut p = bp();
        let pred = p.predict(0x700);
        p.update(0x700, true, 1, pred);
        assert_eq!(p.stats().lookups, 1);
        assert_eq!(p.stats().mispredicts(), 1);
    }
}
