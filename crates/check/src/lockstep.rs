//! Whole-system lockstep runs: real benchmark generators on the paper's
//! Table 1 geometry, every registered scheme shadowed by the golden
//! model for the full run. This is the "zero divergences over all
//! schemes" leg of `exp check`.

use std::cell::RefCell;
use std::rc::Rc;

use aep_core::lineup::challengers_faults_schemes;
use aep_core::SchemeKind;
use aep_cpu::{CoreConfig, InstrStream};
use aep_faultsim::fan_out;
use aep_mem::HierarchyConfig;
use aep_sim::System;
use aep_workloads::Benchmark;

use crate::checker::{CheckState, LockstepChecker, Violation};

/// Full-sweep cadence for the 4096-set date2006 L2 — sparse enough that
/// the sweep stays a small fraction of run time, frequent enough to
/// localize a divergence within a few thousand cycles.
const LOCKSTEP_CADENCE: u64 = 4_096;

/// Workload seed for lockstep runs (any fixed value works; recorded so
/// reports are reproducible).
pub const LOCKSTEP_SEED: u64 = 2_006;

/// One (scheme × benchmark) lockstep run.
#[derive(Debug, Clone)]
pub struct LockstepResult {
    /// The scheme that was shadowed.
    pub scheme: SchemeKind,
    /// Lower-case benchmark name.
    pub benchmark: &'static str,
    /// Cycles simulated.
    pub cycles: u64,
    /// L2 events validated against the golden model.
    pub events_checked: u64,
    /// First few divergences (empty ⇒ clean).
    pub violations: Vec<Violation>,
    /// Total divergences.
    pub total_violations: u64,
}

impl LockstepResult {
    /// Whether this run diverged.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.total_violations > 0
    }
}

fn run_one(scheme: SchemeKind, bench: Benchmark, cycles: u64) -> LockstepResult {
    run_system(lockstep_system(scheme, bench), bench, cycles)
}

fn lockstep_system(scheme: SchemeKind, bench: Benchmark) -> System<impl InstrStream> {
    let stream = bench.generator(LOCKSTEP_SEED);
    System::new(
        CoreConfig::date2006(),
        HierarchyConfig::date2006(),
        scheme,
        stream,
    )
}

/// Runs `sys` (built by [`lockstep_system`]) for `cycles` cycles under
/// the lockstep checker.
fn run_system(mut sys: System<impl InstrStream>, bench: Benchmark, cycles: u64) -> LockstepResult {
    let scheme = sys.kind();
    let hier_cfg = HierarchyConfig::date2006();
    let state: Rc<RefCell<CheckState>> = Rc::new(RefCell::new(CheckState::default()));
    let checker = LockstepChecker::new(&hier_cfg, Rc::clone(&state), LOCKSTEP_CADENCE);
    sys.add_observer(Box::new(checker));
    for now in 0..cycles {
        sys.step(now);
    }
    let mut st = state.borrow_mut();
    LockstepResult {
        scheme,
        benchmark: bench.name(),
        cycles,
        events_checked: st.events_checked,
        violations: std::mem::take(&mut st.violations),
        total_violations: st.total_violations,
    }
}

/// Runs the lockstep matrix: every registered scheme
/// ([`challengers_faults_schemes`]) × `benchmarks`,
/// `cycles` cycles each, fanned out over `jobs` threads. Results come
/// back in matrix order regardless of `jobs`.
#[must_use]
pub fn run_lockstep(benchmarks: &[Benchmark], cycles: u64, jobs: usize) -> Vec<LockstepResult> {
    let schemes = challengers_faults_schemes();
    let pairs: Vec<(SchemeKind, Benchmark)> = schemes
        .iter()
        .flat_map(|&s| benchmarks.iter().map(move |&b| (s, b)))
        .collect();
    fan_out(pairs.len(), jobs, |i| {
        let (scheme, bench) = pairs[i];
        run_one(scheme, bench, cycles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_lockstep_run_is_clean_for_every_scheme() {
        // A short horizon keeps this test cheap; `exp check` runs the
        // real smoke/quick horizons.
        let results = run_lockstep(&[Benchmark::Gzip], 4_000, 1);
        assert_eq!(results.len(), challengers_faults_schemes().len());
        for r in &results {
            assert!(
                !r.failed(),
                "{} on {} diverged: {:?}",
                r.scheme.label(),
                r.benchmark,
                r.violations
            );
            assert!(r.events_checked > 0, "no events checked — hook broken?");
        }
    }

    #[test]
    fn cleaning_without_the_written_bit_filter_keeps_written_implies_dirty() {
        // The written-bit ablation also cleans lines whose written bit is
        // set; each such write-back must clear the bit with the dirty bit.
        let mut sys = lockstep_system(
            SchemeKind::UniformWithCleaning {
                cleaning_interval: 64 * 1024,
            },
            Benchmark::Gap,
        );
        sys.set_respect_written_bit(false);
        let r = run_system(sys, Benchmark::Gap, 80_000);
        assert!(!r.failed(), "diverged: {:?}", r.violations);
        assert!(r.events_checked > 0, "no events checked — hook broken?");
    }
}
