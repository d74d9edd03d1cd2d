//! The shared campaign driver's allocation budget: once a campaign's
//! lanes, scratch scheme and timers exist, a trial allocates nothing.
//! At a fixed chunk count, ten times the trials must therefore cost
//! (almost) no more heap allocations; per-trial heap traffic — a scheme
//! clone per strike resolution, boxed line images, fresh strike storage
//! — would add thousands. What may still grow is the strike-free
//! machine's own state over its longer trajectory: main memory's image
//! of written-back lines and the simulator's event buffers grow by
//! doubling, a handful of allocations here, so the budget allows fewer
//! than one allocation per hundred extra trials.
//!
//! The same holds for the machine's cleaning probes, which every
//! campaign of a cleaning scheme runs in its trajectory: a probe writes
//! its lines back through a reused buffer, so a longer run on a short
//! cleaning interval costs no more allocations than that growth.
//!
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not disturb the count;
//! campaigns run at `jobs` 1, on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aep_core::cleaning::CleaningPolicy;
use aep_core::lineup::CHOSEN_INTERVAL;
use aep_core::SchemeKind;
use aep_cpu::CoreConfig;
use aep_faultsim::{run_campaign, CampaignConfig, StrikeModel};
use aep_mem::HierarchyConfig;
use aep_workloads::Benchmark;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counter is a
// thread-local `Cell` whose access never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations this thread makes while running `cfg` at `jobs` 1.
fn allocations(cfg: &CampaignConfig) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let table = run_campaign(cfg, 1);
    let after = ALLOCATIONS.with(Cell::get);
    assert!(table.struck_valid > 0, "no strike landed on a valid line");
    after - before
}

/// A smoke campaign (`exp faults --scale smoke`) of ten chunks.
fn campaign(scheme: SchemeKind, model: StrikeModel, trials_per_chunk: u32) -> CampaignConfig {
    CampaignConfig {
        model,
        trials_per_chunk,
        trials: 10 * trials_per_chunk,
        ..CampaignConfig::fast_test(Benchmark::Gap, scheme)
    }
}

#[test]
fn trial_count_does_not_grow_allocations() {
    let proposed = SchemeKind::Proposed {
        cleaning_interval: CHOSEN_INTERVAL,
    };
    let cases = [
        (proposed, StrikeModel::Single),
        (proposed, StrikeModel::Row { span: 8 }),
        (
            proposed,
            StrikeModel::Accum {
                scrub_cycles: 100_000,
            },
        ),
        (SchemeKind::Uniform, StrikeModel::Col { span: 4 }),
        (SchemeKind::ParityOnly, StrikeModel::Burst { width: 2 }),
    ];
    for (scheme, model) in cases {
        let label = format!("{} {}", scheme.label(), model.slug());
        // One untimed run first: lazily initialised process state is not
        // a campaign's cost.
        let _ = allocations(&campaign(scheme, model, 10));
        let long = allocations(&campaign(scheme, model, 100));
        let short = allocations(&campaign(scheme, model, 10));
        eprintln!("{label}: {short} allocations at 10x10 trials, {long} at 10x100");
        let extra_trials = 10 * (100 - 10);
        assert!(
            long.saturating_sub(short) < extra_trials / 100,
            "{label}: 10 chunks of 100 trials allocate {long} times, 10 chunks of 10 {short} times"
        );
    }
}

#[test]
fn cleaning_probes_do_not_allocate() {
    // The paper's 4096-set L2 swept every 64K cycles: one probe per 16
    // cycles, under every cleaning rule (the last case switches the
    // written-bit filter off).
    let sets = HierarchyConfig::date2006().l2.sets() as usize;
    let interval = 64 * 1024;
    let cases = [
        (CleaningPolicy::written_bit(interval, sets), true),
        (CleaningPolicy::written_bit(interval, sets), false),
        (CleaningPolicy::decay(interval, interval / 4, sets), true),
        (CleaningPolicy::reuse_predicted(interval, 2, sets), true),
        (CleaningPolicy::eager(sets), true),
    ];
    let (warmup, short, long) = (20_000, 20_000, 200_000);
    for (policy, respect_written_bit) in cases {
        let label = format!(
            "{} (written-bit filter {respect_written_bit})",
            policy.label()
        );
        let allocations = |cycles: u64| {
            let mut sys = aep_sim::System::new(
                CoreConfig::date2006(),
                HierarchyConfig::date2006(),
                SchemeKind::Uniform,
                Benchmark::Gap.generator(2006),
            );
            sys.set_cleaning_policy(policy.clone());
            sys.set_respect_written_bit(respect_written_bit);
            let now = sys.run(0, warmup);
            let before = ALLOCATIONS.with(Cell::get);
            sys.run(now, cycles);
            let after = ALLOCATIONS.with(Cell::get);
            (after - before, sys.hier.l2().stats().writebacks_cleaning)
        };
        let (short_allocs, _) = allocations(short);
        let (long_allocs, cleaned) = allocations(long);
        eprintln!(
            "{label}: {short_allocs} allocations over {short} cycles, {long_allocs} over {long}"
        );
        assert!(
            cleaned > 100,
            "{label}: only {cleaned} cleaning write-backs"
        );
        let extra_probes = (long - short) * sets as u64 / interval;
        assert!(
            long_allocs.saturating_sub(short_allocs) < extra_probes / 100,
            "{label}: {long} cycles allocate {long_allocs} times, {short} cycles {short_allocs} times"
        );
    }
}
