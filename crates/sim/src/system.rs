//! The composed full system and its per-cycle loop.

use aep_core::cleaning::CleaningPolicy;
use aep_core::scrub::Scrubber;
use aep_core::{Directive, ProtectionScheme, SchemeKind};
use aep_core::{NonUniformScheme, ParityOnlyScheme, UniformEccScheme};
use aep_cpu::{CoreConfig, InstrStream, Pipeline};
use aep_mem::cache::{CleanRule, WbClass};
use aep_mem::{Cycle, HierarchyConfig, L2Event, MemoryHierarchy};
use aep_obs::{CycleTrace, Registry, TraceKind};

use crate::bus::SystemObserver;

/// Builds the protection scheme for `kind` over the given L2 geometry.
#[must_use]
pub fn build_scheme(kind: SchemeKind, hier: &HierarchyConfig) -> Box<dyn ProtectionScheme> {
    match kind {
        SchemeKind::Uniform | SchemeKind::UniformWithCleaning { .. } => {
            Box::new(UniformEccScheme::new(&hier.l2))
        }
        SchemeKind::ParityOnly => Box::new(ParityOnlyScheme::new(&hier.l2)),
        SchemeKind::Proposed { .. }
        | SchemeKind::ProposedMulti { .. }
        | SchemeKind::SilentWriteEcc { .. }
        | SchemeKind::ReuseCopyback { .. } => Box::new(NonUniformScheme::new(&hier.l2, kind)),
    }
}

/// Maps one drained L2 event to its trace record. Read hits are skipped:
/// they carry no state transition and would swamp the ring with the least
/// interesting event class.
fn record_event(trace: &mut CycleTrace, now: Cycle, event: &L2Event) {
    match *event {
        L2Event::Fill {
            set, way, write, ..
        } => trace.record(now, TraceKind::Fill { set, way, write }),
        L2Event::WriteHit {
            set,
            way,
            first_write,
            ..
        } => {
            let kind = if first_write {
                TraceKind::FirstWrite { set, way }
            } else {
                TraceKind::SecondWrite { set, way }
            };
            trace.record(now, kind);
        }
        L2Event::Evict {
            set, way, dirty, ..
        } => trace.record(now, TraceKind::Evict { set, way, dirty }),
        L2Event::Cleaned {
            set, way, class, ..
        } => trace.record(
            now,
            TraceKind::CleanBack {
                set,
                way,
                class: class.label(),
            },
        ),
        L2Event::ReadHit { .. } | L2Event::WordWritten { .. } => {}
    }
}

/// A complete simulated machine: core + memory system + protection.
pub struct System<S> {
    /// The out-of-order core.
    pub cpu: Pipeline<S>,
    /// The Table 1 memory system.
    pub hier: MemoryHierarchy,
    /// The protection scheme attached to the L2.
    pub scheme: Box<dyn ProtectionScheme>,
    /// The cleaning policy (the paper's written-bit FSM by default when
    /// the scheme configuration cleans; swappable for ablations).
    pub cleaning: CleaningPolicy,
    kind: SchemeKind,
    directive_buf: Vec<Directive>,
    event_buf: Vec<L2Event>,
    scrubber: Option<Scrubber>,
    observers: Vec<Box<dyn SystemObserver>>,
    trace: Option<CycleTrace>,
    resolution_buf: Vec<(usize, usize, &'static str)>,
}

impl<S: InstrStream> System<S> {
    /// Assembles a system.
    #[must_use]
    pub fn new(core: CoreConfig, hier_cfg: HierarchyConfig, kind: SchemeKind, stream: S) -> Self {
        let scheme = build_scheme(kind, &hier_cfg);
        let sets = hier_cfg.l2.sets() as usize;
        let cleaning = match kind {
            SchemeKind::ReuseCopyback {
                cleaning_interval,
                multiplier,
            } => CleaningPolicy::reuse_predicted(cleaning_interval, multiplier, sets),
            _ => kind
                .cleaning_interval()
                .map_or(CleaningPolicy::None, |interval| {
                    CleaningPolicy::written_bit(interval, sets)
                }),
        };
        let mut hier = MemoryHierarchy::new(hier_cfg);
        hier.enable_l2_events();
        // The hierarchy classifies silent stores on the store path.
        hier.set_silent_store_elision(kind.elides_silent_stores());
        System {
            cpu: Pipeline::new(core, stream),
            hier,
            scheme,
            cleaning,
            kind,
            directive_buf: Vec::new(),
            event_buf: Vec::new(),
            scrubber: None,
            observers: Vec::new(),
            trace: None,
            resolution_buf: Vec::new(),
        }
    }

    /// Attaches a cycle trace retaining the most recent `capacity` events.
    /// Without one (the default) the event drain pays only a dead `Option`
    /// check per drained event.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(CycleTrace::new(capacity));
    }

    /// The attached cycle trace, if tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> Option<&CycleTrace> {
        self.trace.as_ref()
    }

    /// Detaches and returns the cycle trace (tracing stops).
    pub fn take_trace(&mut self) -> Option<CycleTrace> {
        self.trace.take()
    }

    /// Publishes the whole machine's statistics under the current scope:
    /// `cpu.*` (pipeline, branch predictor, TLBs), `mem.*` (caches, write
    /// buffer, bus, DRAM), `scheme.*`, `cleaning.*`, and `scrub.*`
    /// (zeroed when scrubbing is disabled, so keys stay stable).
    pub fn register_stats(&self, reg: &mut Registry) {
        reg.scoped("cpu", |r| self.cpu.register_stats(r));
        reg.scoped("mem", |r| self.hier.register_stats(r));
        reg.scoped("scheme", |r| self.scheme.register_stats(r));
        reg.scoped("cleaning", |r| self.cleaning.stats().register_stats(r));
        reg.scoped("scrub", |r| {
            self.scrub_stats().unwrap_or_default().register_stats(r);
        });
        for obs in &self.observers {
            obs.register_stats(reg);
        }
    }

    /// Attaches a [`SystemObserver`] to the event bus. Observers are
    /// published to in attach order; one requesting word-level events
    /// turns [`L2Event::WordWritten`] emission on for the whole run.
    pub fn add_observer(&mut self, observer: Box<dyn SystemObserver>) {
        if observer.wants_word_events() {
            self.hier.l2_mut().set_word_event_emission(true);
        }
        self.observers.push(observer);
    }

    /// Enables background scrubbing: one line verified (and repaired if a
    /// latent upset is found) every `period` cycles.
    pub fn enable_scrubbing(&mut self, period: u64) {
        let l2 = self.hier.l2();
        self.scrubber = Some(Scrubber::new(period, l2.sets(), l2.ways()));
    }

    /// The scrubber's statistics, when scrubbing is enabled.
    #[must_use]
    pub fn scrub_stats(&self) -> Option<aep_core::scrub::ScrubStats> {
        self.scrubber.as_ref().map(Scrubber::stats)
    }

    /// Switches the written-bit filter of the paper's cleaning policy
    /// off ([`CleanRule::AllDirty`]: probes write back *every* dirty line,
    /// the `ablation_written_bit` configuration) or back on. Other
    /// policies are left as they are.
    pub fn set_respect_written_bit(&mut self, respect: bool) {
        if let CleaningPolicy::Interval {
            rule: rule @ (CleanRule::WrittenBit | CleanRule::AllDirty),
            ..
        } = &mut self.cleaning
        {
            *rule = if respect {
                CleanRule::WrittenBit
            } else {
                CleanRule::AllDirty
            };
        }
    }

    /// Replaces the cleaning policy (related-work ablations: decay
    /// cleaning, eager writeback, or none).
    pub fn set_cleaning_policy(&mut self, policy: CleaningPolicy) {
        self.cleaning = policy;
    }

    /// The scheme configuration this system runs.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        self.kind
    }

    /// A deep copy of the whole machine — core, hierarchy, scheme state,
    /// cleaning FSM, scrubber — *without* the attached observers or
    /// trace, which are run-specific. Forking a warmed system is how the
    /// fault campaign amortizes its warm-up window: warm once per
    /// worker, fork per chunk, and the fork replays exactly as a freshly
    /// warmed machine would (the simulator is deterministic and fully
    /// owned by this struct).
    #[must_use]
    pub fn fork(&self) -> System<S>
    where
        S: Clone,
    {
        System {
            cpu: self.cpu.clone(),
            hier: self.hier.clone(),
            scheme: self.scheme.clone_box(),
            cleaning: self.cleaning.clone(),
            kind: self.kind,
            directive_buf: Vec::new(),
            event_buf: Vec::new(),
            scrubber: self.scrubber.clone(),
            observers: Vec::new(),
            trace: None,
            resolution_buf: Vec::new(),
        }
    }

    /// Advances the whole machine by one cycle.
    pub fn step(&mut self, now: Cycle) {
        self.cpu.step(&mut self.hier, now);
        self.hier.tick(now);
        // Directives arise only while draining, so with no pending event
        // the drain would find nothing to do.
        if self.hier.has_pending_l2_events() {
            self.drain_events(now);
        }
        self.cleaning_tick(now);
        if let Some(scrubber) = &mut self.scrubber {
            let (l2, memory) = self.hier.l2_and_memory_mut();
            scrubber.tick(now, l2, self.scheme.as_mut(), memory);
        }
        for obs in &mut self.observers {
            obs.cycle_end(&mut self.hier, self.scheme.as_ref(), now);
        }
    }

    /// Feeds pending L2 events to the scheme and applies its directives,
    /// looping until the machine settles (force-cleans emit further
    /// events, which emit no further directives).
    ///
    /// Events and directives move through two reusable swap buffers, so
    /// the per-cycle steady state — usually zero events — allocates
    /// nothing.
    fn drain_events(&mut self, now: Cycle) {
        loop {
            self.hier.drain_l2_events_into(&mut self.event_buf);
            if self.event_buf.is_empty() && self.directive_buf.is_empty() {
                break;
            }
            for event in &self.event_buf {
                for obs in &mut self.observers {
                    let (l2, memory) = self.hier.l2_and_memory_mut();
                    obs.pre_event(event, l2, self.scheme.as_mut(), memory, now);
                }
                if let Some(trace) = self.trace.as_mut() {
                    record_event(trace, now, event);
                }
                self.scheme
                    .on_event(event, self.hier.l2(), &mut self.directive_buf);
                for obs in &mut self.observers {
                    obs.post_event(event, &self.hier, self.scheme.as_ref(), now);
                }
            }
            // Drained on every pass, so an untraced run keeps none.
            for obs in &mut self.observers {
                obs.drain_resolutions(&mut self.resolution_buf);
            }
            match self.trace.as_mut() {
                Some(trace) => {
                    for (set, way, outcome) in self.resolution_buf.drain(..) {
                        trace.record(now, TraceKind::FaultResolved { set, way, outcome });
                    }
                }
                None => self.resolution_buf.clear(),
            }
            for directive in self.directive_buf.drain(..) {
                match directive {
                    Directive::ForceClean { set, way } => {
                        self.hier
                            .force_clean_l2(set, way, WbClass::EccEviction, now);
                    }
                }
            }
        }
    }

    /// Runs the cleaning policy for this cycle: probes the due set, if
    /// any, unless arbitration refuses the probe (L1 priority).
    fn cleaning_tick(&mut self, now: Cycle) {
        let Some((set, rule)) = self.cleaning.due(now) else {
            return;
        };
        match self.hier.probe_l2(set, now, rule) {
            Some(cleaned) => {
                self.cleaning.complete(now, cleaned);
                if cleaned > 0 {
                    self.drain_events(now);
                }
            }
            None => self.cleaning.defer(),
        }
    }

    /// The earliest cycle after `now` at which any component can change
    /// machine state: the CPU's next wakeup, the write buffer's next
    /// retirement, the cleaning FSM's next probe, the scrubber's next
    /// visit, and the earliest cycle any attached observer must see
    /// (the differential checker answers `now + 1`, which degrades the
    /// run loop to exact per-cycle stepping). Conservative — it may name
    /// a cycle where nothing happens, never one later than real work —
    /// so stepping straight to it is exactly equivalent to stepping
    /// every cycle in between.
    fn next_event_after(&self, now: Cycle) -> Cycle {
        let mut t = self.cpu.next_event_after(now);
        // Every bound is at least `now + 1`, so a busy core decides alone.
        if t == now + 1 {
            return t;
        }
        t = t.min(self.hier.next_event_after(now));
        t = t.min(self.cleaning.next_due_after(now));
        if let Some(scrubber) = &self.scrubber {
            t = t.min(scrubber.next_due_at().max(now + 1));
        }
        for obs in &self.observers {
            t = t.min(obs.next_event_after(now).max(now + 1));
        }
        t
    }

    /// Runs `cycles` cycles starting at `start`, returning the next cycle.
    ///
    /// Event-driven: after each real step the loop jumps straight to the
    /// next cycle at which any component can act, booking the skipped
    /// cycles' only per-cycle statistic (fetch stalls) in one batch. The
    /// resulting machine state and statistics are bit-identical to the
    /// cycle-by-cycle walk; observers that need every cycle (the
    /// differential checker) declare so through
    /// [`SystemObserver::next_event_after`], which forces the loop back
    /// to single stepping.
    pub fn run(&mut self, start: Cycle, cycles: u64) -> Cycle {
        self.run_until(start, cycles, || false)
    }

    /// [`System::run`] with an early exit: stops right after the first
    /// stepped cycle at which `stop()` returns `true` and returns the
    /// cycle after it, or runs all `cycles` and returns `start + cycles`.
    ///
    /// `stop` is polled once per *stepped* cycle only. That is exact for
    /// any condition that can only change while a cycle is stepped — an
    /// event-driven observer's verdict, say: skipped cycles emit no L2
    /// events, so a per-cycle loop polling the same condition stops at
    /// the same cycle with the same machine state.
    pub fn run_until(
        &mut self,
        start: Cycle,
        cycles: u64,
        mut stop: impl FnMut() -> bool,
    ) -> Cycle {
        let end = start + cycles;
        let mut now = start;
        while now < end {
            self.step(now);
            if stop() {
                return now + 1;
            }
            let next = self.next_event_after(now).min(end);
            if next > now + 1 {
                self.cpu.account_idle_cycles(now + 1, next - now - 1);
            }
            now = next;
        }
        end
    }

    /// Runs `cycles` cycles while sampling the L2 dirty-line census after
    /// every cycle, returning the summed dirty-line count.
    ///
    /// This is the measurement window's hot loop: folding the census into
    /// the step loop lets the runner make one pass per cycle instead of
    /// re-entering the hierarchy for a second read, and the sum stays in
    /// integer arithmetic (exact — the measured windows keep it far below
    /// 2^53, so downstream `f64` averages are unchanged to the last bit).
    ///
    /// Fast-forwards like [`System::run`]: a skipped cycle's census
    /// equals the census at the step before it (nothing changes machine
    /// state in between), so the sum weights each stepped census by the
    /// cycles it covers.
    pub fn run_census(&mut self, start: Cycle, cycles: u64) -> u64 {
        let end = start + cycles;
        let mut dirty_sum: u64 = 0;
        let mut now = start;
        while now < end {
            self.step(now);
            let next = self.next_event_after(now).min(end);
            dirty_sum += self.hier.l2().dirty_line_count() * (next - now);
            if next > now + 1 {
                self.cpu.account_idle_cycles(now + 1, next - now - 1);
            }
            now = next;
        }
        dirty_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_cpu::isa::{LoopStream, MicroOp, NO_REG};
    use aep_mem::Addr;

    fn store_heavy_stream() -> LoopStream {
        // Stores sweeping several L2 sets, plus filler.
        let mut ops = Vec::new();
        for i in 0..32u64 {
            ops.push(MicroOp::store(i * 8, Addr::new(0x10_000 + i * 64), 1));
            ops.push(MicroOp::alu(i * 8 + 4, 1, NO_REG, 2));
        }
        LoopStream::new(ops)
    }

    /// Groups of ops that all wait on one missing head load: three ALU
    /// ops in the group's second fetch block, then loads and stores to
    /// distinct cold lines back in its first. Dispatch fills the 32-entry
    /// LSQ long before the 64-entry RUU, and each group's independent head
    /// load only overlaps the previous group's miss if it dispatches on
    /// time.
    fn lsq_filling_stream() -> LoopStream {
        let mut ops = Vec::new();
        for group in 0..8u64 {
            let pc = group * 64;
            let line = |i: u64| Addr::new(0x40_000 + (group * 8 + i) * 4096);
            ops.push(MicroOp::load(pc, line(0), 1));
            for i in 1..4 {
                ops.push(MicroOp::alu(pc + 60 - i * 4, 1, NO_REG, 3));
            }
            for i in 1..8 {
                ops.push(if i % 3 == 0 {
                    MicroOp::store(pc + i * 4, line(i), 1)
                } else {
                    MicroOp {
                        src1: 1,
                        ..MicroOp::load(pc + i * 4, line(i), 2)
                    }
                });
            }
        }
        LoopStream::new(ops)
    }

    fn tiny_system(kind: SchemeKind) -> System<LoopStream> {
        tiny_system_over(kind, store_heavy_stream())
    }

    fn tiny_system_over(kind: SchemeKind, stream: LoopStream) -> System<LoopStream> {
        System::new(
            CoreConfig::date2006(),
            HierarchyConfig::tiny(),
            kind,
            stream,
        )
    }

    #[test]
    fn uniform_system_runs_and_commits() {
        let mut sys = tiny_system(SchemeKind::Uniform);
        sys.run(0, 20_000);
        assert!(sys.cpu.stats().committed > 1000);
        assert!(sys.hier.l2().dirty_line_count() > 0);
        assert!(matches!(sys.cleaning, CleaningPolicy::None));
    }

    #[test]
    fn proposed_system_enforces_one_dirty_line_per_set() {
        let mut sys = tiny_system(SchemeKind::Proposed {
            cleaning_interval: 4096,
        });
        sys.run(0, 50_000);
        // Structural bound: ≤ 1 dirty line per set.
        assert!(sys.hier.l2().dirty_line_count() <= sys.hier.l2().sets() as u64);
        assert!(sys.hier.l2().stats().writebacks_ecc_eviction > 0);
    }

    #[test]
    fn cleaning_reduces_dirty_lines_vs_uniform() {
        let mut org = tiny_system(SchemeKind::Uniform);
        org.run(0, 60_000);
        let mut cleaned = tiny_system(SchemeKind::UniformWithCleaning {
            cleaning_interval: 2048,
        });
        cleaned.run(0, 60_000);
        assert!(cleaned.hier.l2().stats().writebacks_cleaning > 0);
        assert!(
            cleaned.hier.l2().dirty_line_count() <= org.hier.l2().dirty_line_count(),
            "cleaning must not increase dirty lines"
        );
    }

    #[test]
    fn fast_forward_is_bit_identical_to_per_cycle_stepping() {
        let kinds = [
            SchemeKind::Uniform,
            SchemeKind::Proposed {
                cleaning_interval: 4096,
            },
        ];
        // Each stream, and whether it must drive the LSQ full.
        let streams: [(fn() -> LoopStream, bool); 2] =
            [(store_heavy_stream, false), (lsq_filling_stream, true)];
        for (kind, (stream, fills_lsq)) in kinds.into_iter().flat_map(|k| streams.map(|s| (k, s))) {
            let system = || {
                let mut sys = tiny_system_over(kind, stream());
                sys.enable_scrubbing(64);
                sys
            };
            let mut fast = system();
            let mut until = system();
            let mut slow = system();

            assert_eq!(fast.run(0, 40_000), 40_000);
            // Split at an arbitrary cycle: a never-true predicate must
            // run both legs out exactly as `run` does.
            let mid = until.run_until(0, 17_321, || false);
            assert_eq!(mid, 17_321);
            assert_eq!(until.run_until(mid, 40_000 - mid, || false), 40_000);
            let mut lsq_full_cycles = 0;
            for now in 0..40_000 {
                slow.step(now);
                if slow.cpu.lsq_occupancy() == CoreConfig::date2006().lsq_entries {
                    lsq_full_cycles += 1;
                }
            }
            if fills_lsq {
                assert!(
                    lsq_full_cycles > 1_000,
                    "the load/store stream must fill the LSQ ({lsq_full_cycles} cycles full)"
                );
            }
            for other in [&until, &slow] {
                assert_eq!(fast.cpu.stats(), other.cpu.stats());
                assert_eq!(fast.hier.l2().stats(), other.hier.l2().stats());
                assert_eq!(fast.hier.ops(), other.hier.ops());
                assert_eq!(
                    fast.hier.l2().dirty_line_count(),
                    other.hier.l2().dirty_line_count()
                );
                assert_eq!(fast.scrub_stats(), other.scrub_stats());
            }
        }
    }

    /// Publishes the L2 write-hit count at the end of every stepped cycle.
    struct WriteHitWatch(std::rc::Rc<std::cell::Cell<u64>>);

    impl SystemObserver for WriteHitWatch {
        fn cycle_end(
            &mut self,
            hier: &mut aep_mem::MemoryHierarchy,
            _scheme: &dyn ProtectionScheme,
            _now: Cycle,
        ) {
            self.0.set(hier.l2().stats().write_hits);
        }
    }

    #[test]
    fn run_until_returns_the_cycle_after_the_stop_step() {
        let kind = SchemeKind::Proposed {
            cleaning_interval: 4096,
        };
        // Per-cycle oracle: the first cycle after which the L2 has taken
        // its 100th write hit.
        let mut slow = tiny_system(kind);
        let mut stop_step = None;
        for now in 0..40_000 {
            slow.step(now);
            if slow.hier.l2().stats().write_hits >= 100 {
                stop_step = Some(now);
                break;
            }
        }
        let stop_step = stop_step.expect("the stream writes the L2 within the window");

        let mut fast = tiny_system(kind);
        let write_hits = std::rc::Rc::new(std::cell::Cell::new(0));
        fast.add_observer(Box::new(WriteHitWatch(std::rc::Rc::clone(&write_hits))));
        let next = fast.run_until(0, 40_000, || write_hits.get() >= 100);
        assert_eq!(next, stop_step + 1);
        assert_eq!(fast.cpu.stats(), slow.cpu.stats());
        assert_eq!(fast.hier.l2().stats(), slow.hier.l2().stats());
        assert_eq!(fast.hier.ops(), slow.hier.ops());

        // A predicate that never fires runs the whole window.
        let mut idle = tiny_system(kind);
        assert_eq!(idle.run_until(100, 5_000, || false), 5_100);
    }

    #[test]
    fn fast_forward_census_matches_per_cycle_sampling() {
        let kind = SchemeKind::Proposed {
            cleaning_interval: 4096,
        };
        let mut fast = tiny_system(kind);
        let fast_sum = fast.run_census(0, 40_000);
        let mut slow = tiny_system(kind);
        let mut slow_sum = 0u64;
        for now in 0..40_000 {
            slow.step(now);
            slow_sum += slow.hier.l2().dirty_line_count();
        }
        assert_eq!(fast_sum, slow_sum);
        assert_eq!(fast.cpu.stats(), slow.cpu.stats());
    }

    #[test]
    fn systems_are_deterministic() {
        let run = |cycles| {
            let mut sys = tiny_system(SchemeKind::Proposed {
                cleaning_interval: 4096,
            });
            sys.run(0, cycles);
            (
                sys.cpu.stats().committed,
                sys.hier.l2().stats().writebacks_ecc_eviction,
                sys.hier.l2().dirty_line_count(),
            )
        };
        assert_eq!(run(30_000), run(30_000));
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use aep_cpu::isa::{LoopStream, MicroOp};
    use aep_mem::Addr;

    fn stream() -> LoopStream {
        let mut ops = Vec::new();
        for i in 0..16u64 {
            ops.push(MicroOp::store(i * 8, Addr::new(0x20_000 + i * 64), 1));
            ops.push(MicroOp::load(i * 8 + 4, Addr::new(0x40_000 + i * 64), 2));
        }
        LoopStream::new(ops)
    }

    #[test]
    fn multi_entry_system_allows_more_dirty_lines_with_fewer_ecc_wbs() {
        let run = |entries: usize| {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::tiny(),
                SchemeKind::ProposedMulti {
                    cleaning_interval: 8192,
                    entries_per_set: entries,
                },
                stream(),
            );
            sys.run(0, 60_000);
            (
                sys.hier.l2().dirty_line_count(),
                sys.hier.l2().stats().writebacks_ecc_eviction,
            )
        };
        let (dirty1, ecc1) = run(1);
        let (dirty2, ecc2) = run(2);
        assert!(ecc2 <= ecc1, "more entries, fewer forced evictions");
        // The 2-entry bound is twice as loose.
        let sets = 16u64; // tiny L2
        assert!(dirty1 <= sets);
        assert!(dirty2 <= 2 * sets);
    }

    #[test]
    fn scrubbing_system_repairs_in_flight_strikes() {
        let mut sys = System::new(
            CoreConfig::date2006(),
            HierarchyConfig::tiny(),
            SchemeKind::Proposed {
                cleaning_interval: 8192,
            },
            stream(),
        );
        sys.enable_scrubbing(4);
        let mut now = sys.run(0, 10_000);
        // Strike a valid line, then run past a full scrub sweep.
        let mut struck = false;
        'outer: for set in 0..sys.hier.l2().sets() {
            for way in 0..sys.hier.l2().ways() {
                if sys.hier.l2().line_view(set, way).valid {
                    sys.hier.l2_mut().strike(set, way, 1, 13);
                    struck = true;
                    break 'outer;
                }
            }
        }
        assert!(struck);
        now = sys.run(now, 4 * 16 * 4 + 1_000);
        let _ = now;
        let stats = sys.scrub_stats().expect("enabled");
        assert!(stats.scrubbed > 0);
        assert!(
            stats.corrected + stats.refetched >= 1,
            "the strike must be repaired by scrubbing: {stats:?}"
        );
        assert_eq!(stats.unrecoverable, 0);
    }

    #[test]
    fn scrub_stats_absent_when_disabled() {
        let sys = System::new(
            CoreConfig::date2006(),
            HierarchyConfig::tiny(),
            SchemeKind::Uniform,
            stream(),
        );
        assert!(sys.scrub_stats().is_none());
    }
}

#[cfg(test)]
mod cleaning_policy_tests {
    use super::*;
    use aep_core::cleaning::CleaningPolicy;
    use aep_cpu::isa::{LoopStream, MicroOp, NO_REG};
    use aep_mem::Addr;

    /// A generational stream: a burst of stores dirties 24 lines, then a
    /// long compute tail leaves them idle (and the bus quiet) — exactly
    /// the window decay cleaning and eager writeback exploit.
    fn dirtying_stream() -> LoopStream {
        let mut ops = Vec::new();
        for i in 0..24u64 {
            ops.push(MicroOp::store(i * 8, Addr::new(0x10_000 + i * 64), 1));
        }
        for i in 0..3_000u64 {
            ops.push(MicroOp::alu(0x200 + (i % 64) * 8, 1, NO_REG, 2));
        }
        LoopStream::new(ops)
    }

    fn run_policy(policy: CleaningPolicy) -> (u64, u64) {
        let mut sys = System::new(
            CoreConfig::date2006(),
            HierarchyConfig::tiny(),
            SchemeKind::Uniform,
            dirtying_stream(),
        );
        sys.set_cleaning_policy(policy);
        sys.run(0, 60_000);
        (
            sys.hier.l2().dirty_line_count(),
            sys.hier.l2().stats().writebacks_cleaning,
        )
    }

    #[test]
    fn decay_policy_cleans_idle_dirty_lines() {
        let sets = 16;
        let (dirty_none, wb_none) = run_policy(CleaningPolicy::None);
        let (dirty_decay, wb_decay) = run_policy(CleaningPolicy::decay(4_096, 512, sets));
        assert_eq!(wb_none, 0);
        assert!(wb_decay > 0, "decay must clean something");
        assert!(dirty_decay <= dirty_none);
    }

    #[test]
    fn eager_policy_uses_idle_bus_to_clean_lru_lines() {
        let sets = 16;
        let (_, wb_eager) = run_policy(CleaningPolicy::eager(sets));
        assert!(wb_eager > 0, "eager writeback must fire on idle bus");
    }

    #[test]
    fn all_policies_preserve_correct_dirty_accounting() {
        for policy in [
            CleaningPolicy::None,
            CleaningPolicy::written_bit(4_096, 16),
            CleaningPolicy::decay(4_096, 4_096, 16),
            CleaningPolicy::eager(16),
        ] {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::tiny(),
                SchemeKind::Uniform,
                dirtying_stream(),
            );
            sys.set_cleaning_policy(policy.clone());
            sys.run(0, 30_000);
            assert_eq!(
                sys.hier.l2().dirty_line_count(),
                sys.hier.l2().recount_dirty_lines(),
                "policy {} corrupted the dirty census",
                policy.label()
            );
        }
    }
}
