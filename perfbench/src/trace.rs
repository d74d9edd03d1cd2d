//! Span decorators for the traced run.
//!
//! Each decorator wraps one public seam of a [`System`] and books host
//! time and call counts into a shared [`SpanCell`], without changing what
//! the wrapped object computes:
//!
//! * [`TimedStream`] wraps the `InstrStream` handed to [`System::new`]
//!   (the `workloads` layer);
//! * [`TimedScheme`] replaces `System.scheme`, forwarding every
//!   `ProtectionScheme` method (the `core` layer);
//! * [`CountingObserver`] rides the observer bus, counting stepped cycles
//!   and L2 events. It keeps `next_event_after = Cycle::MAX`, so the run
//!   loop's fast-forward is untouched.
//!
//! [`run_traced`] drives one experiment window with all three attached and
//! returns the same [`RunStats`] a [`aep_sim::Runner`] would.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aep_core::{AreaReport, Directive, EnergyCounters, ProtectionScheme, RecoveryOutcome};
use aep_cpu::{InstrStream, MicroOp};
use aep_mem::cache::Cache;
use aep_mem::{Cycle, L2Event, MainMemory, MemoryHierarchy};
use aep_obs::Registry;
use aep_sim::{ExperimentConfig, L2Window, RunStats, System, SystemObserver};
use aep_workloads::WorkloadStream;

/// Host time and counts booked by the decorators of one traced system.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Spans {
    /// Nanoseconds inside `InstrStream::next_op`.
    pub stream_ns: u64,
    /// `next_op` calls.
    pub stream_calls: u64,
    /// Nanoseconds inside `ProtectionScheme::on_event`.
    pub on_event_ns: u64,
    /// `on_event` calls.
    pub on_event_calls: u64,
    /// Nanoseconds inside the scheme's verify paths.
    pub verify_ns: u64,
    /// Verify calls (access, line and write-back).
    pub verify_calls: u64,
    /// Directives the scheme emitted.
    pub directives: u64,
    /// L2 events published on the observer bus.
    pub events: u64,
    /// Cycles the run loop actually stepped.
    pub stepped: u64,
    /// Nanoseconds inside `System::run` / `System::run_census`.
    pub loop_ns: u64,
    /// Cycles simulated (stepped or fast-forwarded).
    pub cycles: u64,
}

impl Spans {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Spans) {
        self.stream_ns += other.stream_ns;
        self.stream_calls += other.stream_calls;
        self.on_event_ns += other.on_event_ns;
        self.on_event_calls += other.on_event_calls;
        self.verify_ns += other.verify_ns;
        self.verify_calls += other.verify_calls;
        self.directives += other.directives;
        self.events += other.events;
        self.stepped += other.stepped;
        self.loop_ns += other.loop_ns;
        self.cycles += other.cycles;
    }
}

/// The spans shared by the decorators of one system (and its forks).
pub type SpanCell = Rc<RefCell<Spans>>;

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An `InstrStream` that times every `next_op` of the stream it wraps.
#[derive(Debug, Clone)]
pub struct TimedStream<S> {
    inner: S,
    spans: SpanCell,
}

impl<S> TimedStream<S> {
    /// Wraps `inner`, booking into `spans`.
    pub fn new(inner: S, spans: SpanCell) -> Self {
        TimedStream { inner, spans }
    }
}

impl<S: InstrStream> InstrStream for TimedStream<S> {
    fn next_op(&mut self) -> MicroOp {
        let start = Instant::now();
        let op = self.inner.next_op();
        let mut s = self.spans.borrow_mut();
        s.stream_ns += nanos_since(start);
        s.stream_calls += 1;
        op
    }
}

/// A `ProtectionScheme` that times the scheme it wraps and forwards
/// every method to it unchanged.
pub struct TimedScheme {
    inner: Box<dyn ProtectionScheme>,
    spans: SpanCell,
}

impl TimedScheme {
    /// Wraps `inner`, booking into `spans`.
    pub fn new(inner: Box<dyn ProtectionScheme>, spans: SpanCell) -> Self {
        TimedScheme { inner, spans }
    }

    fn timed_verify(
        &mut self,
        f: impl FnOnce(&mut dyn ProtectionScheme) -> RecoveryOutcome,
    ) -> RecoveryOutcome {
        let start = Instant::now();
        let outcome = f(self.inner.as_mut());
        let mut s = self.spans.borrow_mut();
        s.verify_ns += nanos_since(start);
        s.verify_calls += 1;
        outcome
    }
}

impl ProtectionScheme for TimedScheme {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn ProtectionScheme> {
        Box::new(TimedScheme::new(
            self.inner.clone_box(),
            Rc::clone(&self.spans),
        ))
    }

    fn area(&self) -> AreaReport {
        self.inner.area()
    }

    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>) {
        let before = directives.len();
        let start = Instant::now();
        self.inner.on_event(event, l2, directives);
        let mut s = self.spans.borrow_mut();
        s.on_event_ns += nanos_since(start);
        s.on_event_calls += 1;
        s.directives += (directives.len() - before) as u64;
    }

    fn verify_access(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        was_dirty: bool,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        self.timed_verify(|s| s.verify_access(l2, set, way, was_dirty, memory))
    }

    fn verify_line(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        self.timed_verify(|s| s.verify_line(l2, set, way, memory))
    }

    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome {
        self.timed_verify(|s| s.verify_writeback(set, way, data))
    }

    fn protected_dirty_lines(&self) -> usize {
        self.inner.protected_dirty_lines()
    }

    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        self.inner.dirty_line_covered(set, way)
    }

    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        self.inner.find_protocol_violation(l2)
    }

    fn energy_counters(&self) -> EnergyCounters {
        self.inner.energy_counters()
    }

    fn register_stats(&self, reg: &mut Registry) {
        self.inner.register_stats(reg);
    }
}

/// An observer that counts stepped cycles and L2 events. It publishes no
/// statistics and never asks for extra cycles.
pub struct CountingObserver {
    spans: SpanCell,
}

impl CountingObserver {
    /// A counter booking into `spans`.
    pub fn new(spans: SpanCell) -> Self {
        CountingObserver { spans }
    }
}

impl SystemObserver for CountingObserver {
    fn post_event(
        &mut self,
        _event: &L2Event,
        _hier: &MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
        self.spans.borrow_mut().events += 1;
    }

    fn cycle_end(
        &mut self,
        _hier: &mut MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
        self.spans.borrow_mut().stepped += 1;
    }

    fn next_event_after(&self, _now: Cycle) -> Cycle {
        Cycle::MAX
    }
}

/// A traced system: all three decorators attached.
pub type TracedSystem = System<TimedStream<WorkloadStream>>;

/// Builds `cfg`'s system exactly as the runner does, with every
/// decorator attached and booking into `spans`.
#[must_use]
pub fn build_traced(cfg: &ExperimentConfig, spans: &SpanCell) -> TracedSystem {
    let stream = TimedStream::new(cfg.benchmark.stream(cfg.seed), Rc::clone(spans));
    let mut sys = System::new(cfg.core.clone(), cfg.hierarchy.clone(), cfg.scheme, stream);
    sys.set_respect_written_bit(cfg.respect_written_bit);
    if let Some(period) = cfg.scrub_period {
        sys.enable_scrubbing(period);
    }
    sys.scheme = Box::new(TimedScheme::new(sys.scheme.clone_box(), Rc::clone(spans)));
    sys.add_observer(Box::new(CountingObserver::new(Rc::clone(spans))));
    sys
}

/// Runs warm-up plus measurement window on `sys` with the runner's
/// cycle sequence and returns the window statistics, which are
/// bit-identical to `Runner::new(cfg).run()` for the same config.
pub fn run_window<S: InstrStream>(
    sys: &mut System<S>,
    cfg: &ExperimentConfig,
    spans: Option<&SpanCell>,
) -> RunStats {
    let start = Instant::now();
    let now = sys.run(0, cfg.warmup_cycles);
    let l2_before = *sys.hier.l2().stats();
    let ops_before = sys.hier.ops();
    let committed_before = sys.cpu.stats().committed;
    let energy_before = sys.scheme.energy_counters();
    let dirty_sum = sys.run_census(now, cfg.measure_cycles);
    if let Some(spans) = spans {
        let mut s = spans.borrow_mut();
        s.loop_ns += nanos_since(start);
        s.cycles += cfg.warmup_cycles + cfg.measure_cycles;
    }
    let energy = sys.scheme.energy_counters().since(&energy_before);
    let l2 = sys.hier.l2();
    let total_lines = l2.total_lines() as f64;
    let l2_after = l2.stats().since(&l2_before);
    let committed = sys.cpu.stats().committed - committed_before;
    let avg_dirty_lines = dirty_sum as f64 / cfg.measure_cycles as f64;
    RunStats {
        benchmark: cfg.benchmark.clone(),
        scheme: cfg.scheme,
        cycles: cfg.measure_cycles,
        committed,
        ipc: committed as f64 / cfg.measure_cycles as f64,
        l2: L2Window {
            avg_dirty_fraction: avg_dirty_lines / total_lines,
            avg_dirty_lines,
            final_dirty_fraction: l2.dirty_line_count() as f64 / total_lines,
            wb_replacement: l2_after.writebacks_replacement,
            wb_cleaning: l2_after.writebacks_cleaning,
            wb_ecc: l2_after.writebacks_ecc_eviction,
            loads_stores: sys.hier.ops().loads_stores() - ops_before.loads_stores(),
        },
        mispredict_ratio: sys.cpu.bpred().stats().mispredict_ratio(),
        l1d_miss_ratio: sys.hier.l1d().stats().miss_ratio(),
        l2_miss_ratio: l2.stats().miss_ratio(),
        energy,
    }
}

/// Runs `cfg` traced and returns its statistics and spans.
#[must_use]
pub fn run_traced(cfg: &ExperimentConfig) -> (RunStats, Spans) {
    let spans = SpanCell::default();
    let mut sys = build_traced(cfg, &spans);
    let stats = run_window(&mut sys, cfg, Some(&spans));
    drop(sys);
    let spans = *spans.borrow();
    (stats, spans)
}

/// Canonical text of a system's `register_stats` snapshot.
#[must_use]
pub fn snapshot_json<S: InstrStream>(sys: &System<S>) -> String {
    let mut reg = Registry::new();
    sys.register_stats(&mut reg);
    aep_obs::StatsSnapshot::from_registry(reg, &[]).to_json()
}
