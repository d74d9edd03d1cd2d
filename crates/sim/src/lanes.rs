//! The lane-parallel batch engine: N protection/scrub configurations
//! stepped in lockstep over one shared trajectory.
//!
//! # Why lanes work
//!
//! Most of a simulated cycle is spent in the core and the memory
//! hierarchy — fetch, wakeup/select, cache lookups, write-buffer drain —
//! and none of that depends on which *observer-only* protection scheme
//! is attached. A scheme changes the trajectory only through the
//! directives it emits (forced ECC-entry evictions) and through its
//! cleaning interval; background scrubbing in a fault-free run never
//! changes it at all ([`Scrubber::tick`] does no port or bus
//! arbitration, and `verify_line` on an uncorrupted line is read-only).
//!
//! So a whole family of configurations — every directive-free scheme at
//! a given cleaning interval, crossed with any set of scrub periods —
//! shares *one* cpu+hierarchy trajectory. The batch engine runs that
//! trajectory once and attaches a single **shadow lanes** observer to the
//! system's observer bus. It holds one shadow scheme instance per
//! distinct [`SchemeKind`] of the batch (fed every L2 event through
//! [`SystemObserver::post_event`]) and, per lane, its own scrubber
//! (driven at its due cycles through [`SystemObserver::cycle_end`]) and
//! the index of its kind's instance. Lanes of one kind share that
//! instance: they see identical L2 events, and a shareable scheme's
//! `verify_line` on a clean line writes no state, so every lane's scheme
//! statistics, energy and registry are exactly what its own instance
//! would hold. The base system's own scheme slot holds a no-op, so each
//! kind's check bits are computed once per event. The observer caches
//! the earliest due scrub over all lanes, so a stepped cycle with no
//! scrub due costs one compare, and
//! [`SystemObserver::next_event_after`] keeps fast-forward exact in
//! O(1). Per-lane statistics are byte-identical to N independent serial
//! runs, at roughly 1/N of the fetch/branch/event-drain cost per lane
//! and one scheme update per kind rather than per lane.
//!
//! # Trusted seams
//!
//! Sharing is only sound for fault-free runs of directive-free schemes
//! whose clean-line verification is read-only; all three conditions are
//! enforced, not assumed: [`LaneSpec::shareable`] rejects
//! directive-emitting schemes up front, the shadow lanes observer panics
//! if a scheme emits a directive or a shadow scrub finds anything but a
//! clean line, and the conformance suite checks, for every shareable
//! scheme, that a plain and a scrubbed lane of one kind both match their
//! serial runs (and that a scheme double whose clean verification
//! mutates state is caught). Fault-injection campaigns never use lanes.

use std::cell::RefCell;
use std::rc::Rc;

use aep_core::scrub::Scrubber;
use aep_core::{
    AreaReport, Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome, SchemeKind,
};
use aep_mem::cache::Cache;
use aep_mem::{Cycle, HierarchyConfig, L2Event, MainMemory, MemoryHierarchy};
use aep_obs::Registry;

use crate::bus::SystemObserver;
use crate::runner::{ExperimentConfig, RunStats, Runner, WindowSnapshot};
use crate::system::build_scheme;

/// One lane of a batch: a scheme plus an optional scrub period. The
/// trajectory-shaping knobs (benchmark, seed, windows, cleaning
/// interval, written-bit policy) live in the shared
/// [`ExperimentConfig`]; a lane varies only what observes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneSpec {
    /// The protection scheme this lane attaches.
    pub scheme: SchemeKind,
    /// Background scrub period (cycles per line), when scrubbing.
    pub scrub_period: Option<u64>,
}

impl LaneSpec {
    /// A lane with no scrubbing.
    #[must_use]
    pub fn new(scheme: SchemeKind) -> Self {
        LaneSpec {
            scheme,
            scrub_period: None,
        }
    }

    /// A lane with background scrubbing at `period` cycles per line.
    #[must_use]
    pub fn with_scrub(scheme: SchemeKind, period: u64) -> Self {
        LaneSpec {
            scheme,
            scrub_period: Some(period),
        }
    }

    /// Whether this lane's scheme is a pure observer — it never emits
    /// directives, so it cannot steer the trajectory. Only such lanes
    /// may share a batch; `proposed` / `proposed_multi` force-clean
    /// lines and must run solo.
    #[must_use]
    pub fn shareable(&self) -> bool {
        matches!(
            self.scheme,
            SchemeKind::Uniform | SchemeKind::UniformWithCleaning { .. } | SchemeKind::ParityOnly
        )
    }

    /// The trajectory class this lane belongs to: lanes share a batch
    /// iff they are [`shareable`](LaneSpec::shareable) and their
    /// cleaning intervals agree (cleaning probes are scheme-independent
    /// but do shape the trajectory).
    #[must_use]
    pub fn share_key(&self) -> Option<Option<u64>> {
        self.shareable().then(|| self.scheme.cleaning_interval())
    }

    /// Human label: the scheme's, plus the scrub period when scrubbing.
    #[must_use]
    pub fn label(&self) -> String {
        match self.scrub_period {
            Some(p) => format!(
                "{}+scrub@{}",
                self.scheme.label(),
                aep_core::scheme::human_interval(p)
            ),
            None => self.scheme.label(),
        }
    }
}

/// One lane's results: exactly what a serial [`Runner::run`] of the same
/// configuration would produce, plus the full component registry.
#[derive(Debug, Clone)]
pub struct LaneResult {
    /// The lane that ran.
    pub spec: LaneSpec,
    /// Measured-window statistics, byte-identical to the serial run's.
    pub stats: RunStats,
    /// Component statistics (`cpu.*`, `mem.*`, `scheme.*`, `cleaning.*`,
    /// `scrub.*`), byte-identical to the serial system's
    /// `register_stats` output.
    pub registry: Registry,
}

/// Builds one scheme instance for a kind over a machine's geometry:
/// [`build_scheme`] in every real batch; the conformance suite passes a
/// scheme double to check the batch engine's sharing contract.
pub type SchemeBuilder = fn(SchemeKind, &HierarchyConfig) -> Box<dyn ProtectionScheme>;

/// One lane's own state: its scrubber, and the index of its kind's
/// shadow scheme in [`Shadow::schemes`].
struct LaneState {
    scheme: usize,
    scrubber: Option<Scrubber>,
}

/// The shadow state of a batch, driven by its [`ShadowLanes`] observer:
/// one scheme instance per distinct [`SchemeKind`], and the lanes.
struct Shadow {
    schemes: Vec<Box<dyn ProtectionScheme>>,
    lanes: Vec<LaneState>,
    directives: Vec<Directive>,
}

impl Shadow {
    /// One instance per distinct kind of `lanes` (first-occurrence order)
    /// over `hier`'s L2.
    fn new(lanes: &[LaneSpec], hier: &HierarchyConfig, build: SchemeBuilder) -> Self {
        let (sets, ways) = (hier.l2.sets() as usize, hier.l2.ways as usize);
        let mut kinds: Vec<SchemeKind> = Vec::new();
        let lanes = lanes
            .iter()
            .map(|lane| {
                let scheme = kinds
                    .iter()
                    .position(|&k| k == lane.scheme)
                    .unwrap_or_else(|| {
                        kinds.push(lane.scheme);
                        kinds.len() - 1
                    });
                LaneState {
                    scheme,
                    scrubber: lane
                        .scrub_period
                        .map(|period| Scrubber::new(period, sets, ways)),
                }
            })
            .collect();
        Shadow {
            schemes: kinds.into_iter().map(|kind| build(kind, hier)).collect(),
            lanes,
            directives: Vec::new(),
        }
    }

    /// The earliest [`Scrubber::next_due_at`] over all lanes
    /// ([`Cycle::MAX`] when no lane scrubs).
    fn earliest_scrub(&self) -> Cycle {
        self.lanes
            .iter()
            .filter_map(|lane| lane.scrubber.as_ref().map(Scrubber::next_due_at))
            .min()
            .unwrap_or(Cycle::MAX)
    }
}

/// The scheme slot of a batch's base system. Every kind's instance lives
/// in the [`Shadow`], so the base holds this no-op instead of repeating
/// one kind's work: it observes nothing and emits no directives, exactly
/// like the shareable scheme it stands in for.
struct NoScheme;

impl ProtectionScheme for NoScheme {
    fn name(&self) -> &'static str {
        "none"
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(NoScheme)
    }

    fn area(&self) -> AreaReport {
        AreaReport {
            scheme: "none",
            components: Vec::new(),
        }
    }

    fn on_event(&mut self, _event: &L2Event, _l2: &Cache, _directives: &mut Vec<Directive>) {}

    fn verify_access(
        &mut self,
        _l2: &mut Cache,
        _set: usize,
        _way: usize,
        _was_dirty: bool,
        _memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        RecoveryOutcome::Clean
    }

    fn verify_writeback(&mut self, _set: usize, _way: usize, _data: &mut [u64]) -> RecoveryOutcome {
        RecoveryOutcome::Clean
    }

    fn protected_dirty_lines(&self) -> usize {
        0
    }
}

/// The batch's shadow state, shared with the batch driver through an `Rc`
/// so results can be read back after the run (single-threaded, the same
/// idiom as the fault campaign's strike cell).
type ShadowCell = Rc<RefCell<Shadow>>;

/// The observer half of a lane batch, attached once to the base system's
/// bus.
struct ShadowLanes {
    shadow: ShadowCell,
    /// The cached [`Shadow::earliest_scrub`].
    next_scrub_at: Cycle,
}

impl ShadowLanes {
    fn new(shadow: ShadowCell) -> Self {
        let next_scrub_at = shadow.borrow().earliest_scrub();
        ShadowLanes {
            shadow,
            next_scrub_at,
        }
    }
}

impl SystemObserver for ShadowLanes {
    fn post_event(
        &mut self,
        event: &L2Event,
        hier: &MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
        let shadow = &mut *self.shadow.borrow_mut();
        for scheme in &mut shadow.schemes {
            scheme.on_event(event, hier.l2(), &mut shadow.directives);
            assert!(
                shadow.directives.is_empty(),
                "shadow lane scheme '{}' emitted a directive; directive-emitting \
                 schemes cannot share a trajectory",
                scheme.name()
            );
        }
    }

    fn cycle_end(
        &mut self,
        hier: &mut MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        now: Cycle,
    ) {
        if now < self.next_scrub_at {
            return;
        }
        let shadow = &mut *self.shadow.borrow_mut();
        for lane in &mut shadow.lanes {
            if let Some(scrubber) = &mut lane.scrubber {
                let (l2, memory) = hier.l2_and_memory_mut();
                let scheme = shadow.schemes[lane.scheme].as_mut();
                if let Some(outcome) = scrubber.tick(now, l2, scheme, memory) {
                    assert!(
                        matches!(outcome, RecoveryOutcome::Clean),
                        "shadow-lane scrub found a non-clean line ({outcome:?}); lane \
                         batches are fault-free by contract"
                    );
                }
            }
        }
        self.next_scrub_at = shadow.earliest_scrub();
    }

    fn next_event_after(&self, _now: Cycle) -> Cycle {
        self.next_scrub_at
    }
}

/// Runs `lanes` in lockstep over the shared trajectory `cfg` describes,
/// returning one [`LaneResult`] per lane (in input order). The trajectory
/// knobs are taken from `cfg`; its `scheme` must equal the first lane's
/// (the batch's trajectory class) and its `scrub_period` must be `None`
/// (scrubbing is per-lane).
///
/// # Panics
///
/// Panics if `lanes` is empty, a lane is not
/// [`shareable`](LaneSpec::shareable), the lanes disagree on cleaning
/// interval, or `cfg` conflicts with the lanes as described above.
#[must_use]
pub fn run_lanes(cfg: &ExperimentConfig, lanes: &[LaneSpec]) -> Vec<LaneResult> {
    run_lanes_with(cfg, lanes, build_scheme)
}

/// [`run_lanes`] with the shadow scheme instances built by `build`.
///
/// # Panics
///
/// As [`run_lanes`].
#[must_use]
pub fn run_lanes_with(
    cfg: &ExperimentConfig,
    lanes: &[LaneSpec],
    build: SchemeBuilder,
) -> Vec<LaneResult> {
    let first = lanes.first().expect("a lane batch needs at least one lane");
    assert!(
        cfg.scheme == first.scheme,
        "base config scheme {:?} must equal the first lane's {:?}",
        cfg.scheme,
        first.scheme
    );
    assert!(
        cfg.scrub_period.is_none(),
        "scrubbing is a per-lane knob; leave the base config's scrub_period unset"
    );
    let key = first.share_key();
    for lane in lanes {
        assert!(
            lane.shareable(),
            "lane '{}' emits directives and cannot share a trajectory",
            lane.label()
        );
        assert!(
            lane.share_key() == key,
            "lane '{}' has a different cleaning interval than the batch",
            lane.label()
        );
    }

    let mut sys = Runner::new(cfg.clone()).into_system();
    sys.scheme = Box::new(NoScheme);
    let shadow: ShadowCell = Rc::new(RefCell::new(Shadow::new(lanes, &cfg.hierarchy, build)));
    sys.add_observer(Box::new(ShadowLanes::new(Rc::clone(&shadow))));

    let mut now: Cycle = 0;
    now = sys.run(now, cfg.warmup_cycles);

    let window = WindowSnapshot::take(&sys);
    let energy_before: Vec<EnergyCounters> = shadow
        .borrow()
        .schemes
        .iter()
        .map(|scheme| scheme.energy_counters())
        .collect();
    let dirty_sum = sys.run_census(now, cfg.measure_cycles);

    let shadow = shadow.borrow();
    lanes
        .iter()
        .zip(&shadow.lanes)
        .map(|(lane, state)| {
            let scheme = &shadow.schemes[state.scheme];
            let energy = scheme.energy_counters().since(&energy_before[state.scheme]);
            let stats = window.finish(
                cfg.benchmark.clone(),
                lane.scheme,
                cfg.measure_cycles,
                &sys,
                dirty_sum,
                energy,
            );
            // The same scopes `System::register_stats` publishes, with
            // the lane's scheme and scrubber swapped in for the base's.
            let mut registry = Registry::new();
            registry.scoped("cpu", |r| sys.cpu.register_stats(r));
            registry.scoped("mem", |r| sys.hier.register_stats(r));
            registry.scoped("scheme", |r| scheme.register_stats(r));
            registry.scoped("cleaning", |r| sys.cleaning.register_stats(r));
            registry.scoped("scrub", |r| {
                state
                    .scrubber
                    .as_ref()
                    .map(Scrubber::stats)
                    .unwrap_or_default()
                    .register_stats(r);
            });
            LaneResult {
                spec: lane.clone(),
                stats,
                registry,
            }
        })
        .collect()
}

/// Runs one lane as its own independent serial system — the reference
/// the batch engine is verified against (the `lanes-vs-serial`
/// determinism leg and the byte-identity property test both diff
/// [`run_lanes`] output against this).
#[must_use]
pub fn run_lane_serial(cfg: &ExperimentConfig, lane: &LaneSpec) -> LaneResult {
    run_lane_serial_with(cfg, lane, build_scheme)
}

/// [`run_lane_serial`] with the system's scheme built by `build`.
#[must_use]
pub fn run_lane_serial_with(
    cfg: &ExperimentConfig,
    lane: &LaneSpec,
    build: SchemeBuilder,
) -> LaneResult {
    let mut serial_cfg = cfg.clone();
    serial_cfg.scheme = lane.scheme;
    serial_cfg.scrub_period = lane.scrub_period;
    let mut sys = Runner::new(serial_cfg.clone()).into_system();
    sys.scheme = build(lane.scheme, &serial_cfg.hierarchy);
    let now = sys.run(0, serial_cfg.warmup_cycles);
    let window = WindowSnapshot::take(&sys);
    let energy_before = sys.scheme.energy_counters();
    let dirty_sum = sys.run_census(now, serial_cfg.measure_cycles);
    let energy = sys.scheme.energy_counters().since(&energy_before);
    let stats = window.finish(
        serial_cfg.benchmark.clone(),
        lane.scheme,
        serial_cfg.measure_cycles,
        &sys,
        dirty_sum,
        energy,
    );
    let mut registry = Registry::new();
    sys.register_stats(&mut registry);
    LaneResult {
        spec: lane.clone(),
        stats,
        registry,
    }
}

/// One unit of execute-tier work from [`plan_lane_jobs`]: a lock-step
/// lane batch over several plan indices, or a single serial run.
#[derive(Debug)]
pub enum LaneJob {
    /// Shareable-trajectory configurations stepped together in one lane
    /// batch.
    Batch {
        /// The shared machine/workload configuration (scheme set to the
        /// first lane's, scrubbing delegated to the lane specs). Boxed
        /// so the solo variant stays pointer-sized.
        cfg: Box<ExperimentConfig>,
        /// Per-lane scheme + scrub period, in `indices` order.
        specs: Vec<LaneSpec>,
        /// Positions into the planned-config list, one per lane.
        indices: Vec<usize>,
    },
    /// A configuration that must run on its own (directive-emitting
    /// scheme, or no shareable partner in this plan).
    Solo(usize),
}

/// Two configs can ride one trajectory only if everything *except* the
/// protection scheme and scrub period is identical.
#[must_use]
pub fn same_machine(a: &ExperimentConfig, b: &ExperimentConfig) -> bool {
    a.benchmark == b.benchmark
        && a.warmup_cycles == b.warmup_cycles
        && a.measure_cycles == b.measure_cycles
        && a.seed == b.seed
        && a.core == b.core
        && a.hierarchy == b.hierarchy
        && a.respect_written_bit == b.respect_written_bit
}

/// Greedily groups a list of to-be-run configurations into lane batches.
///
/// Configurations whose schemes are directive-free and agree on the
/// cleaning interval — [`LaneSpec::share_key`] — and whose machine,
/// workload, and windows match ([`same_machine`]), are merged into one
/// [`LaneJob::Batch`]; everything else becomes a [`LaneJob::Solo`].
/// Grouping is first-occurrence-ordered, so the job list (and therefore
/// the result) is deterministic in the plan alone. Both the `Lab`'s
/// execute tier and the `exp serve` daemon's scheduler feed their cache
/// misses through this planner, so concurrent clients' compatible
/// submissions share trajectories exactly like one process's figure plan.
#[must_use]
pub fn plan_lane_jobs(configs: &[&ExperimentConfig]) -> Vec<LaneJob> {
    let mut jobs = Vec::new();
    let mut taken = vec![false; configs.len()];
    for i in 0..configs.len() {
        if taken[i] {
            continue;
        }
        taken[i] = true;
        let cfg_i = configs[i];
        let spec_i = LaneSpec {
            scheme: cfg_i.scheme,
            scrub_period: cfg_i.scrub_period,
        };
        let Some(key) = spec_i.share_key() else {
            jobs.push(LaneJob::Solo(i));
            continue;
        };
        let mut indices = vec![i];
        let mut specs = vec![spec_i];
        for k in (i + 1)..configs.len() {
            if taken[k] {
                continue;
            }
            let cfg_k = configs[k];
            let spec_k = LaneSpec {
                scheme: cfg_k.scheme,
                scrub_period: cfg_k.scrub_period,
            };
            if spec_k.share_key() == Some(key) && same_machine(cfg_i, cfg_k) {
                taken[k] = true;
                indices.push(k);
                specs.push(spec_k);
            }
        }
        if indices.len() == 1 {
            jobs.push(LaneJob::Solo(i));
        } else {
            let mut cfg = Box::new(cfg_i.clone());
            cfg.scheme = specs[0].scheme;
            cfg.scrub_period = None;
            jobs.push(LaneJob::Batch {
                cfg,
                specs,
                indices,
            });
        }
    }
    jobs
}

/// Partitions arbitrary lane specs into shareable batches (keyed by
/// trajectory class) and solo lanes, preserving input order within each
/// group. Solo lanes are directive-emitting schemes; batches of one are
/// returned as batches (the engine handles them fine).
#[must_use]
pub fn partition_lanes(lanes: &[LaneSpec]) -> (Vec<Vec<usize>>, Vec<usize>) {
    let mut batches: Vec<(Option<u64>, Vec<usize>)> = Vec::new();
    let mut solo = Vec::new();
    for (i, lane) in lanes.iter().enumerate() {
        match lane.share_key() {
            Some(key) => match batches.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => batches.push((key, vec![i])),
            },
            None => solo.push(i),
        }
    }
    (batches.into_iter().map(|(_, m)| m).collect(), solo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Scale;
    use aep_workloads::Benchmark;

    fn batch_cfg(first: SchemeKind) -> ExperimentConfig {
        let mut cfg = Scale::Smoke.config(Benchmark::Gzip, first);
        // Smaller windows than fast_test: this test suite runs several
        // serial references per lane batch.
        cfg.warmup_cycles = 8_000;
        cfg.measure_cycles = 12_000;
        cfg
    }

    fn assert_stats_bit_identical(a: &RunStats, b: &RunStats) {
        assert_eq!(a.benchmark, b.benchmark);
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
        assert_eq!(a.l2.wb_replacement, b.l2.wb_replacement);
        assert_eq!(a.l2.wb_cleaning, b.l2.wb_cleaning);
        assert_eq!(a.l2.wb_ecc, b.l2.wb_ecc);
        assert_eq!(a.l2.loads_stores, b.l2.loads_stores);
        assert_eq!(
            a.l2.avg_dirty_fraction.to_bits(),
            b.l2.avg_dirty_fraction.to_bits()
        );
        assert_eq!(
            a.l2.final_dirty_fraction.to_bits(),
            b.l2.final_dirty_fraction.to_bits()
        );
        assert_eq!(a.energy, b.energy);
    }

    /// The core contract: every lane of a batch is byte-identical to the
    /// same configuration run serially, across schemes and scrub periods.
    #[test]
    fn lane_batch_matches_independent_serial_runs() {
        let lanes = vec![
            LaneSpec::new(SchemeKind::Uniform),
            LaneSpec::new(SchemeKind::ParityOnly),
            LaneSpec::with_scrub(SchemeKind::Uniform, 256),
            LaneSpec::with_scrub(SchemeKind::ParityOnly, 1024),
        ];
        let cfg = batch_cfg(lanes[0].scheme);
        let results = run_lanes(&cfg, &lanes);
        assert_eq!(results.len(), lanes.len());

        for (lane, result) in lanes.iter().zip(&results) {
            let mut serial_cfg = cfg.clone();
            serial_cfg.scheme = lane.scheme;
            serial_cfg.scrub_period = lane.scrub_period;
            let serial = Runner::new(serial_cfg.clone()).run();
            assert_stats_bit_identical(&result.stats, &serial);

            // The standalone serial reference must agree with both.
            let reference = run_lane_serial(&cfg, lane);
            assert_stats_bit_identical(&reference.stats, &serial);

            // Registry comparison covers the per-lane component state
            // (scheme check storage, scrub counters) the headline stats
            // don't reach.
            let lane_entries = result.registry.clone().into_entries();
            let serial_entries = reference.registry.into_entries();
            assert_eq!(
                lane_entries.len(),
                serial_entries.len(),
                "lane '{}' registry key count",
                lane.label()
            );
            for ((lk, lv), (sk, sv)) in lane_entries.iter().zip(&serial_entries) {
                assert_eq!(lk, sk, "lane '{}' registry keys diverge", lane.label());
                assert_eq!(lv, sv, "lane '{}' stat '{lk}' diverges", lane.label());
            }
        }
    }

    #[test]
    fn scrub_only_lanes_share_with_the_unscrubbed_baseline() {
        let lanes = vec![
            LaneSpec::new(SchemeKind::Uniform),
            LaneSpec::with_scrub(SchemeKind::Uniform, 128),
            LaneSpec::with_scrub(SchemeKind::Uniform, 512),
        ];
        let cfg = batch_cfg(SchemeKind::Uniform);
        let results = run_lanes(&cfg, &lanes);
        // Scrub counters differ per lane; trajectory stats do not.
        assert_eq!(results[0].stats.committed, results[1].stats.committed);
        let scrubbed = |r: &LaneResult| match r.registry.get("scrub.scrubbed") {
            Some(aep_obs::StatValue::Counter(n)) => *n,
            other => panic!("scrub.scrubbed missing: {other:?}"),
        };
        assert_eq!(scrubbed(&results[0]), 0);
        assert!(scrubbed(&results[1]) > scrubbed(&results[2]));
    }

    #[test]
    fn partition_groups_by_trajectory_class() {
        let lanes = vec![
            LaneSpec::new(SchemeKind::Uniform),
            LaneSpec::new(SchemeKind::Proposed {
                cleaning_interval: 1 << 20,
            }),
            LaneSpec::new(SchemeKind::ParityOnly),
            LaneSpec::new(SchemeKind::UniformWithCleaning {
                cleaning_interval: 1 << 20,
            }),
            LaneSpec::with_scrub(SchemeKind::Uniform, 4096),
        ];
        let (batches, solo) = partition_lanes(&lanes);
        assert_eq!(batches, vec![vec![0, 2, 4], vec![3]]);
        assert_eq!(solo, vec![1]);
    }

    #[test]
    fn plan_lane_jobs_groups_compatible_configs() {
        let mut scrubbed = Scale::Smoke.config(Benchmark::Gzip, SchemeKind::ParityOnly);
        scrubbed.scrub_period = Some(2048);
        let plan = [
            Scale::Smoke.config(Benchmark::Gzip, SchemeKind::Uniform),
            Scale::Smoke.config(Benchmark::Gzip, SchemeKind::ParityOnly),
            scrubbed,
            // A directive emitter must run solo.
            Scale::Smoke.config(
                Benchmark::Gzip,
                SchemeKind::Proposed {
                    cleaning_interval: 1 << 20,
                },
            ),
            // Same shareable scheme, different benchmark: different
            // machine, so it cannot join the Gzip batch.
            Scale::Smoke.config(Benchmark::Mcf, SchemeKind::Uniform),
        ];
        let jobs = plan_lane_jobs(&plan.iter().collect::<Vec<_>>());
        assert_eq!(jobs.len(), 3, "one batch plus two solos");
        match &jobs[0] {
            LaneJob::Batch {
                cfg,
                specs,
                indices,
            } => {
                assert_eq!(indices, &[0, 1, 2]);
                assert_eq!(specs.len(), 3);
                assert_eq!(cfg.scheme, SchemeKind::Uniform);
                assert_eq!(cfg.scrub_period, None);
                assert_eq!(specs[2].scrub_period, Some(2048));
            }
            other => panic!("expected the Gzip batch first, got {other:?}"),
        }
        assert!(matches!(jobs[1], LaneJob::Solo(3)));
        assert!(matches!(jobs[2], LaneJob::Solo(4)));
    }

    #[test]
    #[should_panic(expected = "cannot share")]
    fn directive_emitting_lane_is_rejected() {
        let lanes = vec![LaneSpec::new(SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        })];
        let mut cfg = batch_cfg(lanes[0].scheme);
        cfg.warmup_cycles = 100;
        cfg.measure_cycles = 100;
        let _ = run_lanes(&cfg, &lanes);
    }
}
