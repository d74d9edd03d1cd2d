//! Seeded property tests for the cleaning FSM and the scrubber — the
//! two background engines whose schedules the paper's results depend on.
//!
//! Hand-rolled in the repo's usual style: a seeded [`SmallRng`] drives
//! randomized trials, so failures reproduce exactly.

use aep_core::{CleaningLogic, RecoveryOutcome, Scrubber};
use aep_mem::cache::{AccessKind, CleanRule, EvictedLine, LineView};
use aep_mem::{Cache, CacheConfig, LineAddr};
use aep_rng::SmallRng;

fn data(words: usize, seed: u64) -> Vec<u64> {
    (0..words as u64).map(|i| seed ^ i).collect()
}

/// The paper's cleaning intervals (64K–4M) on its 4096-set L2: exactly
/// one set is probed per `interval / sets` cycles, and every set is
/// probed exactly once per interval, in order.
#[test]
fn cleaning_fsm_probes_one_set_per_period_across_paper_intervals() {
    const SETS: usize = 4096;
    for interval in [64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024u64] {
        let period = interval / SETS as u64;
        let mut fsm = CleaningLogic::new(interval, SETS);
        let mut probes: Vec<(u64, usize)> = Vec::new();
        let mut now = 0u64;
        // Jump from due-time to due-time instead of stepping every cycle.
        while probes.len() < SETS + 8 {
            match fsm.due_set(now) {
                Some(set) => {
                    probes.push((now, set));
                    fsm.complete(now, 0);
                }
                None => now += period.max(1),
            }
        }
        for (k, &(at, set)) in probes.iter().enumerate() {
            assert_eq!(set, k % SETS, "interval {interval}: probe order");
            assert_eq!(
                at,
                (k as u64 + 1) * period,
                "interval {interval}: probe cadence"
            );
        }
        // One full sweep per interval: probe SETS-1 lands within it.
        assert_eq!(probes[SETS - 1].0, interval);
        assert_eq!(fsm.stats().probes, probes.len() as u64);
    }
}

/// A probe under port pressure stays due (it is retried, not skipped),
/// and a deferral is counted once per probe.
#[test]
fn deferred_probes_are_retried_not_skipped() {
    let mut fsm = CleaningLogic::new(64, 4); // period 16
    assert_eq!(fsm.due_set(15), None);
    assert_eq!(fsm.due_set(16), Some(0));
    // Port busy for three cycles: still due, deferral counted once.
    fsm.defer();
    fsm.defer();
    assert_eq!(fsm.due_set(19), Some(0));
    fsm.complete(19, 1);
    assert_eq!(fsm.stats().deferred, 1);
    assert_eq!(fsm.stats().lines_cleaned, 1);
    // The next probe is still scheduled relative to the cadence.
    assert_eq!(fsm.due_set(31), None);
    assert_eq!(fsm.due_set(32), Some(1));
}

/// The lines one [`Cache::clean_set`] probe writes back.
fn probe(c: &mut Cache, set: usize, now: u64, rule: CleanRule) -> Vec<EvictedLine> {
    let mut out = Vec::new();
    c.clean_set(set, now, rule, &mut out);
    out
}

/// One way's access history as the test drove it: the oracle for the
/// rules that read line times or LRU order.
#[derive(Debug, Clone, Copy, Default)]
struct History {
    last_access: u64,
    last_write: u64,
    /// Gap between the last two writes; 0 after a single write.
    write_gap: u64,
    /// Sequence number of the last access (lower = less recent).
    order: u64,
}

impl History {
    fn access(&mut self, now: u64, write: bool, order: u64) {
        self.last_access = now;
        self.order = order;
        if write {
            self.write_gap = now - self.last_write;
            self.last_write = now;
        }
    }
}

/// What a probe under `rule` does to a line with metadata `v` and
/// history `h` (`is_lru`: it is the set's least recently used valid way):
/// whether it writes the line back, and the line's written bit afterwards
/// — worked out from the snapshot alone, independently of the cache.
fn expect(rule: CleanRule, v: &LineView, h: &History, is_lru: bool, now: u64) -> (bool, bool) {
    let dirty = v.valid && v.dirty;
    // `keep`: whether a line the rule does not write back keeps its
    // written bit.
    let (pick, keep) = match rule {
        CleanRule::WrittenBit => (dirty && !v.written, false),
        CleanRule::AllDirty => (dirty, false),
        CleanRule::Idle { window } => (dirty && now - h.last_access >= window, true),
        CleanRule::ReuseGap {
            multiplier,
            fallback_gap,
        } => {
            let gap = if h.write_gap == 0 {
                fallback_gap
            } else {
                h.write_gap
            };
            let dead = dirty && now - h.last_write >= gap * u64::from(multiplier);
            (dead && !v.written, !dead)
        }
        CleanRule::LruIfDirty => (dirty && is_lru, true),
    };
    (pick, v.written && !pick && keep)
}

/// Randomized trials under every [`CleanRule`]: a probe writes back
/// exactly the lines an independent filter over a pre-probe snapshot
/// picks, leaves every written bit as that filter predicts, keeps the
/// dirty counter exact, and leaves `written ⇒ dirty` on every valid way.
#[test]
fn clean_probe_cleans_exactly_the_quiescent_lines() {
    let mut rng = SmallRng::seed_from_u64(0xC1EA4);
    for trial in 0..1_000u64 {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        let sets = c.sets() as u64;
        let set = rng.gen_range(0..c.sets());
        let ways = c.ways();
        let mut lines = vec![LineAddr(0); ways];
        let mut history = vec![History::default(); ways];
        let mut now = 0u64;
        let mut order = 0u64;
        // Fill most ways, clean or dirty, then hit them with a random
        // mix of loads and stores (a second store sets the written bit).
        for k in 0..ways as u64 {
            if rng.gen_bool(0.15) {
                continue;
            }
            now += rng.gen_range(1..300);
            order += 1;
            let line = LineAddr(set as u64 + k * sets);
            let way = c
                .install(line, rng.gen_bool(0.6), now, Some(&data(8, trial)))
                .way;
            lines[way] = line;
            history[way] = History {
                last_access: now,
                last_write: now,
                write_gap: 0,
                order,
            };
        }
        for _ in 0..rng.gen_range(0..8u32) {
            let way = rng.gen_range(0..ways);
            if !c.line_view(set, way).valid {
                continue;
            }
            let write = rng.gen_bool(0.5);
            now += rng.gen_range(1..300);
            order += 1;
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            assert!(c.lookup(lines[way], kind, now).is_hit());
            history[way].access(now, write, order);
        }
        now += rng.gen_range(0..2_000);
        // Half the time a threshold sits exactly on one line's idle time,
        // so the boundary cycle is checked too.
        let edge = &history[rng.gen_range(0..ways)];
        let on_edge = rng.gen_bool(0.5);
        let rule = match trial % 5 {
            0 => CleanRule::WrittenBit,
            1 => CleanRule::AllDirty,
            2 if on_edge => CleanRule::Idle {
                window: now - edge.last_access,
            },
            2 => CleanRule::Idle {
                window: rng.gen_range(0..2_000),
            },
            3 if on_edge => CleanRule::ReuseGap {
                multiplier: 1,
                fallback_gap: now - edge.last_write,
            },
            3 => CleanRule::ReuseGap {
                multiplier: rng.gen_range(1..5),
                fallback_gap: rng.gen_range(0..500),
            },
            _ => CleanRule::LruIfDirty,
        };

        let before: Vec<LineView> = (0..ways).map(|w| c.line_view(set, w)).collect();
        let lru = (0..ways)
            .filter(|&w| before[w].valid)
            .min_by_key(|&w| history[w].order);
        let expected: Vec<(bool, bool)> = (0..ways)
            .map(|w| expect(rule, &before[w], &history[w], lru == Some(w), now))
            .collect();
        let want: Vec<usize> = (0..ways).filter(|&w| expected[w].0).collect();
        let mut got: Vec<usize> = probe(&mut c, set, now, rule)
            .iter()
            .map(|e| e.way)
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "trial {trial} {rule:?}: cleaned ways");
        assert_eq!(
            c.dirty_line_count(),
            c.recount_dirty_lines(),
            "trial {trial} {rule:?}: dirty counter"
        );
        for (way, (pre, &(cleaned, written))) in before.iter().zip(&expected).enumerate() {
            let post = c.line_view(set, way);
            if !pre.valid {
                continue;
            }
            assert!(
                !post.written || post.dirty,
                "trial {trial} {rule:?}: way {way} written but not dirty"
            );
            assert_eq!(
                (post.dirty, post.written),
                (pre.dirty && !cleaned, written),
                "trial {trial} {rule:?}: way {way} dirty and written bits"
            );
        }
    }
}

/// The written bit works in generations: a write-hot line is spared by
/// the first probe (written ⇒ busy), but — absent further writes — the
/// *next* probe cleans it, because sparing reset the bit.
#[test]
fn written_bit_spares_then_cleans_across_generations() {
    let mut c = Cache::new(CacheConfig::tiny_l2());
    let line = LineAddr(5);
    c.install(line, true, 0, Some(&data(8, 1))); // first write: dirty
    c.lookup(line, AccessKind::Write, 1); // second write: written
    let v = c.line_view(5, 0);
    assert!(v.dirty && v.written);

    let first = probe(&mut c, 5, 10, CleanRule::WrittenBit);
    assert!(first.is_empty(), "written line is spared");
    let v = c.line_view(5, 0);
    assert!(v.dirty && !v.written, "sparing resets the written bit");

    let second = probe(&mut c, 5, 20, CleanRule::WrittenBit);
    assert_eq!(second.len(), 1, "quiescent generation is cleaned");
    assert_eq!(second[0].line, line);
    assert!(!c.line_view(5, 0).dirty);

    // A line that keeps being written keeps being spared.
    c.lookup(line, AccessKind::Write, 30);
    c.lookup(line, AccessKind::Write, 31);
    for probe_at in [40, 50] {
        c.lookup(line, AccessKind::Write, probe_at - 1); // re-arm written
        assert!(
            probe(&mut c, 5, probe_at, CleanRule::WrittenBit).is_empty(),
            "write-hot line stays resident"
        );
    }
}

/// The scrubber visits every (set, way) exactly once per sweep, in
/// cursor order, one line per period, at any seeded period.
#[test]
fn scrubber_sweeps_every_line_in_cursor_order() {
    let mut rng = SmallRng::seed_from_u64(0x5C8B);
    for _ in 0..20 {
        let period = rng.gen_range(1..512u64);
        let (sets, ways) = (16usize, 4usize);
        let mut s = Scrubber::new(period, sets, ways);
        assert_eq!(s.sweep_cycles(), period * (sets * ways) as u64);
        let mut visits = Vec::new();
        let mut now = 0u64;
        while visits.len() < 2 * sets * ways {
            if let Some((set, way)) = s.due(now) {
                visits.push((set, way));
                s.complete(now, RecoveryOutcome::Clean);
            }
            now += period;
        }
        for (k, &(set, way)) in visits.iter().enumerate() {
            let flat = k % (sets * ways);
            assert_eq!((set, way), (flat / ways, flat % ways), "visit {k}");
        }
        assert_eq!(s.stats().scrubbed, visits.len() as u64);
    }
}
