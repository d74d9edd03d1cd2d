//! Seeded property tests for the cleaning FSM and the scrubber — the
//! two background engines whose schedules the paper's results depend on.
//!
//! Hand-rolled in the repo's usual style: a seeded [`SmallRng`] drives
//! randomized trials, so failures reproduce exactly.

use aep_core::{CleaningLogic, RecoveryOutcome, Scrubber};
use aep_mem::cache::AccessKind;
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

/// Randomized trials: `clean_probe` writes back exactly the
/// `dirty && !written` lines and resets every surviving written bit.
#[test]
fn clean_probe_cleans_exactly_the_quiescent_lines() {
    let mut rng = SmallRng::seed_from_u64(0xC1EA4);
    for trial in 0..200u64 {
        let mut c = Cache::new(CacheConfig::tiny_l2());
        let sets = c.sets() as u64;
        let words = 8;
        let set = rng.gen_range(0..c.sets());
        // Populate the set with a random mix of clean / dirty /
        // dirty+written lines.
        let ways = c.ways();
        for way in 0..ways {
            let line = LineAddr(set as u64 + (way as u64) * sets);
            let write = rng.gen_bool(0.6);
            c.install(line, write, trial, Some(&data(words, trial)));
            if write && rng.gen_bool(0.5) {
                // A second write sets the written bit.
                c.lookup(line, AccessKind::Write, trial);
            }
        }
        let before: Vec<_> = (0..ways).map(|w| c.line_view(set, w)).collect();
        let cleaned = c.clean_probe(set, trial + 1);
        let expect_cleaned: Vec<LineAddr> = before
            .iter()
            .filter(|v| v.valid && v.dirty && !v.written)
            .map(|v| v.line)
            .collect();
        let mut got: Vec<LineAddr> = cleaned.iter().map(|e| e.line).collect();
        let mut want = expect_cleaned.clone();
        got.sort_unstable_by_key(|l| l.0);
        want.sort_unstable_by_key(|l| l.0);
        assert_eq!(got, want, "trial {trial}: cleaned set mismatch");
        for (way, pre) in before.iter().enumerate() {
            let post = c.line_view(set, way);
            if !pre.valid {
                continue;
            }
            assert!(!post.written, "trial {trial}: written bit must reset");
            if pre.dirty && !pre.written {
                assert!(!post.dirty, "trial {trial}: quiescent line must clean");
            } else {
                assert_eq!(
                    post.dirty, pre.dirty,
                    "trial {trial}: busy/clean lines keep their dirty state"
                );
            }
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

    let first = c.clean_probe(5, 10);
    assert!(first.is_empty(), "written line is spared");
    let v = c.line_view(5, 0);
    assert!(v.dirty && !v.written, "sparing resets the written bit");

    let second = c.clean_probe(5, 20);
    assert_eq!(second.len(), 1, "quiescent generation is cleaned");
    assert_eq!(second[0].line, line);
    assert!(!c.line_view(5, 0).dirty);

    // A line that keeps being written keeps being spared.
    c.lookup(line, AccessKind::Write, 30);
    c.lookup(line, AccessKind::Write, 31);
    for probe_at in [40, 50] {
        c.lookup(line, AccessKind::Write, probe_at - 1); // re-arm written
        assert!(
            c.clean_probe(5, probe_at).is_empty(),
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
