//! The unified observer bus: one seam through which everything that
//! watches a running [`System`](crate::System) is attached.
//!
//! Historically the system grew three ad-hoc hooks — an `InjectionProbe`
//! slot ahead of the scheme, a `CheckObserver` slot behind it, and the
//! `register_stats` walk — each with its own field, setter, and plumbing
//! through the event drain. The bus replaces all three with a single
//! [`SystemObserver`] trait and an ordered observer list: every L2 event
//! is published once, pre- and post-scheme, to every attached observer,
//! and the per-cycle loop asks the observers (not hard-coded fields)
//! whether any of them needs the next cycle stepped.
//!
//! Design points:
//!
//! * **Zero cost when unattached.** The observer list is a `Vec`; every
//!   publish point is a `for` over it, which is a single length check
//!   when empty. No per-event allocation, no dynamic dispatch unless an
//!   observer is actually installed.
//! * **Fast-forward aware.** [`SystemObserver::next_event_after`] lets
//!   each observer declare the next cycle it must see. Event-driven
//!   observers return [`Cycle::MAX`] (events are never skipped); the
//!   differential checker returns `now + 1`, which forces the run loop
//!   back to exact per-cycle stepping; a lane batch returns its lanes'
//!   earliest due scrub. The run loop takes the minimum over all observers,
//!   so fast-forwarding is *structurally* safe rather than gated on a
//!   hard-coded `can_fast_forward` flag.

use aep_core::ProtectionScheme;
use aep_mem::cache::Cache;
use aep_mem::{Cycle, L2Event, MainMemory, MemoryHierarchy};
use aep_obs::Registry;

/// An observer attached to a [`System`](crate::System)'s event bus.
///
/// All hooks have no-op defaults: an observer implements only the seams
/// it needs. Hook order per drained event is `pre_event` (all observers,
/// in attach order) → scheme → `post_event` (all observers); `cycle_end`
/// runs once per stepped cycle after events, directives, cleaning, and
/// scrubbing have settled.
pub trait SystemObserver {
    /// Called for each L2 event *before* the protection scheme observes
    /// it — the scheme's check storage still describes the pre-event line
    /// image. Mutable machine access supports fault-injection probes that
    /// drive the scheme's real recovery paths.
    fn pre_event(
        &mut self,
        _event: &L2Event,
        _l2: &mut Cache,
        _scheme: &mut dyn ProtectionScheme,
        _memory: &mut MainMemory,
        _now: Cycle,
    ) {
    }

    /// Called for each L2 event *after* the scheme has observed it (but
    /// before any directives it demanded are applied).
    fn post_event(
        &mut self,
        _event: &L2Event,
        _hier: &MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
    }

    /// Called once per stepped cycle after the whole machine has settled.
    /// The hierarchy is mutable so observers that own background engines
    /// (shadow-lane scrubbers) can drive them; read-only observers just
    /// reborrow.
    fn cycle_end(
        &mut self,
        _hier: &mut MemoryHierarchy,
        _scheme: &dyn ProtectionScheme,
        _now: Cycle,
    ) {
    }

    /// Appends `(set, way, outcome-label)` tuples for faults this
    /// observer resolved since the last call. The system calls it after
    /// every pass over pending events and records the tuples in the cycle
    /// trace, if one is attached, or drops them. The default (never
    /// resolves anything) suits most observers.
    fn drain_resolutions(&mut self, _out: &mut Vec<(usize, usize, &'static str)>) {}

    /// Whether this observer needs [`L2Event::WordWritten`] events;
    /// attaching an observer that returns `true` turns word-level
    /// emission on so line data can be mirrored exactly.
    fn wants_word_events(&self) -> bool {
        false
    }

    /// The earliest cycle after `now` this observer must see stepped.
    ///
    /// The run loop takes the minimum over all observers (and the
    /// machine's own components) when fast-forwarding dead cycles.
    /// Purely event-driven observers keep the default [`Cycle::MAX`] —
    /// events only fire on stepped cycles, so they can never miss one.
    /// Returning `now + 1` forces exact per-cycle stepping.
    fn next_event_after(&self, _now: Cycle) -> Cycle {
        Cycle::MAX
    }

    /// Publishes this observer's statistics under the current scope
    /// during [`System::register_stats`](crate::System::register_stats).
    /// Observers with stable extra counters should scope them
    /// (`reg.scoped("…", …)`) so core snapshot keys stay unchanged.
    fn register_stats(&self, _reg: &mut Registry) {}
}
