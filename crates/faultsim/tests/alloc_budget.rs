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
//! A counting global allocator counts the allocations of the calling
//! thread only, so tests running in parallel do not disturb the count;
//! campaigns run at `jobs` 1, on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aep_core::lineup::CHOSEN_INTERVAL;
use aep_core::SchemeKind;
use aep_faultsim::{run_campaign, CampaignConfig, StrikeModel};
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
