//! The strike monitor: resolves a pending upset at the first L2 event
//! that touches the struck frame.
//!
//! The monitor is a [`SystemObserver`] attached to the system's event
//! bus, publishing through the pre-scheme hook: it observes every L2
//! event *before* the protection scheme does — while the scheme's check
//! storage still encodes the pre-strike line image. That ordering is
//! what lets it drive the scheme's real detect/correct path
//! (`verify_access` / `verify_writeback`) against the corrupted data and
//! classify the end-to-end outcome.
//!
//! # Miscorrection is classified, not assumed away
//!
//! A scheme reporting [`RecoveryOutcome::CorrectedByEcc`] is *not* taken
//! at its word: the repaired line is compared against the pre-strike
//! snapshot. SECDED faced with an odd number of three-plus flips decodes
//! down its single-error-correction arm and "corrects" to the wrong data
//! — the monitor books that as [`TrialOutcome::Sdc`], because wrong data
//! blessed by the checker is exactly silent corruption. (Single- and
//! double-bit strikes can never trip this: a genuine single-bit repair
//! reproduces the snapshot, and every double is detected — so the default
//! campaign's classifications are unchanged.)
//!
//! After classifying, the monitor repairs the machine back to a
//! snapshot-consistent state (cache data, memory image) so that subsequent
//! trials in the same chunk observe an uncorrupted system. The repair is
//! exactly what a real recovery would have produced where one exists; for
//! DUE/SDC outcomes it models the post-mortem state an error-free machine
//! would have had.

use std::cell::RefCell;
use std::rc::Rc;

use aep_core::{ProtectionScheme, RecoveryOutcome};
use aep_ecc::parity::InterleavedParity;
use aep_mem::addr::LineAddr;
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{Cycle, MainMemory};
use aep_sim::SystemObserver;

use crate::models::StrikePattern;
use crate::outcome::TrialOutcome;

/// Most words a line can hold: the parity arrays and memory's word masks
/// keep one bit per word. Resolution works on line images in stack
/// buffers of this size.
pub(crate) const MAX_LINE_WORDS: usize = InterleavedParity::MAX_WORDS;

/// One armed strike awaiting resolution.
#[derive(Debug, Clone, Default)]
pub struct PendingStrike {
    /// Struck set.
    pub set: usize,
    /// Struck way.
    pub way: usize,
    /// The line resident in the struck frame when the fault landed.
    pub line: LineAddr,
    /// Every bit the strike flipped, grouped per word.
    pub pattern: StrikePattern,
    /// The frame's data immediately before the strike.
    pub snapshot: Vec<u64>,
}

/// Shared state between the campaign loop (arms strikes, polls outcomes)
/// and the probe wired into the system's event drain.
#[derive(Debug, Default)]
pub struct StrikeState {
    pending: Option<PendingStrike>,
    outcome: Option<TrialOutcome>,
}

impl StrikeState {
    /// Arms a strike for resolution.
    ///
    /// # Panics
    ///
    /// Panics if a strike is already pending — trials are strictly
    /// sequential within a chunk.
    pub fn arm(&mut self, strike: PendingStrike) {
        assert!(self.pending.is_none(), "one strike at a time");
        self.outcome = None;
        self.pending = Some(strike);
    }

    /// Removes and returns the resolved outcome, if the probe produced one.
    pub fn take_outcome(&mut self) -> Option<TrialOutcome> {
        self.outcome.take()
    }

    /// Removes and returns the still-unresolved strike (horizon expiry).
    pub fn take_pending(&mut self) -> Option<PendingStrike> {
        self.pending.take()
    }
}

/// Shared handle to a [`StrikeState`] (single-threaded per chunk worker).
pub type StrikeCell = Rc<RefCell<StrikeState>>;

/// The observer half of the monitor.
#[derive(Debug)]
pub struct StrikeProbe {
    cell: StrikeCell,
    resolutions: Vec<(usize, usize, &'static str)>,
}

impl StrikeProbe {
    /// Wraps a shared strike cell.
    #[must_use]
    pub fn new(cell: StrikeCell) -> Self {
        StrikeProbe {
            cell,
            resolutions: Vec::new(),
        }
    }

    /// Resolutions recorded but not yet drained by the system.
    #[cfg(test)]
    pub(crate) fn undrained(&self) -> usize {
        self.resolutions.len()
    }
}

impl SystemObserver for StrikeProbe {
    fn pre_event(
        &mut self,
        event: &L2Event,
        l2: &mut Cache,
        scheme: &mut dyn ProtectionScheme,
        memory: &mut MainMemory,
        _now: Cycle,
    ) {
        let Some((set, way, line)) = touched_frame(event) else {
            return;
        };
        let mut state = self.cell.borrow_mut();
        // Most events touch other frames: match on the borrowed strike and
        // only move it out once it is known to resolve here.
        if !state
            .pending
            .as_ref()
            .is_some_and(|strike| hits(strike, set, way, line))
        {
            return;
        }
        let strike = state.pending.take().expect("checked above");
        let outcome = resolve_event(&strike, event, l2, scheme, memory);
        self.resolutions
            .push((strike.set, strike.way, outcome.label()));
        state.outcome = Some(outcome);
    }

    fn drain_resolutions(&mut self, out: &mut Vec<(usize, usize, &'static str)>) {
        out.append(&mut self.resolutions);
    }
}

/// The frame and resident line of an event that can resolve a strike: a
/// line access, eviction or cleaning. Fills and word writes never do.
#[must_use]
pub(crate) fn touched_frame(event: &L2Event) -> Option<(usize, usize, LineAddr)> {
    match *event {
        L2Event::ReadHit { set, way, line, .. }
        | L2Event::WriteHit { set, way, line, .. }
        | L2Event::Evict { set, way, line, .. }
        | L2Event::Cleaned { set, way, line, .. } => Some((set, way, line)),
        L2Event::Fill { .. } | L2Event::WordWritten { .. } => None,
    }
}

/// Whether an event on (`set`, `way`) holding `line` resolves `strike`.
#[must_use]
pub(crate) fn hits(strike: &PendingStrike, set: usize, way: usize, line: LineAddr) -> bool {
    strike.set == set && strike.way == way && strike.line == line
}

/// Classifies `strike` at `event`, the first event that [`hits`] it,
/// running the scheme's detect/correct path against the corrupted
/// machine state and repairing it afterwards (see the module docs).
///
/// # Panics
///
/// Panics if `event` is a fill or a word write, which never resolve a
/// strike.
pub(crate) fn resolve_event(
    strike: &PendingStrike,
    event: &L2Event,
    l2: &mut Cache,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
) -> TrialOutcome {
    match *event {
        L2Event::ReadHit { dirty, .. } => resolve_read(strike, l2, scheme, memory, dirty),
        L2Event::WriteHit {
            first_write,
            silent,
            ..
        } => resolve_write(strike, l2, scheme, memory, first_write, silent),
        L2Event::Evict { dirty, .. } => resolve_evict(strike, scheme, memory, dirty),
        L2Event::Cleaned { .. } => resolve_cleaned(strike, l2, scheme, memory),
        L2Event::Fill { .. } | L2Event::WordWritten { .. } => {
            unreachable!("only line accesses resolve strikes")
        }
    }
}

/// Writes the pre-strike value of every struck word back into the cache —
/// the repair for outcomes where no scheme recovery fired (and for
/// miscorrections, where the "recovery" made things worse).
fn restore_struck_words(strike: &PendingStrike, l2: &mut Cache) {
    for f in strike.pattern.flips() {
        l2.write_word(strike.set, strike.way, f.word, strike.snapshot[f.word]);
    }
}

/// `true` when the resident line matches the pre-strike snapshot — the
/// post-repair truth test that separates correction from miscorrection.
fn line_is_snapshot(strike: &PendingStrike, l2: &Cache) -> bool {
    l2.line_data(strike.set, strike.way)
        .is_some_and(|data| data == strike.snapshot.as_slice())
}

/// A load reads the struck line: the scheme's access-time check runs
/// against the corrupted data.
fn resolve_read(
    strike: &PendingStrike,
    l2: &mut Cache,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
    dirty: bool,
) -> TrialOutcome {
    match scheme.verify_access(l2, strike.set, strike.way, dirty, memory) {
        RecoveryOutcome::Clean => {
            // The check missed: corrupted data reached the core.
            restore_struck_words(strike, l2);
            TrialOutcome::Sdc
        }
        RecoveryOutcome::CorrectedByEcc { .. } => {
            if line_is_snapshot(strike, l2) {
                TrialOutcome::Corrected
            } else {
                // Miscorrection: the decoder blessed wrong data.
                restore_struck_words(strike, l2);
                TrialOutcome::Sdc
            }
        }
        RecoveryOutcome::RecoveredByRefetch => TrialOutcome::RefetchRecovered,
        RecoveryOutcome::Unrecoverable => {
            restore_struck_words(strike, l2);
            TrialOutcome::Due
        }
    }
}

/// A store hits the struck line. By the time the event drains, the store
/// data has already been merged into the line, so the pre-store image is
/// reconstructed first: the check storage describes *that* image, and a
/// real controller checks before it merges.
fn resolve_write(
    strike: &PendingStrike,
    l2: &mut Cache,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
    first_write: bool,
    silent: bool,
) -> TrialOutcome {
    let words = strike.snapshot.len();
    let mut current = [0; MAX_LINE_WORDS];
    let current = &mut current[..words];
    current.copy_from_slice(
        l2.line_data(strike.set, strike.way)
            .expect("struck lines hold data"),
    );
    let mut corrupt = [0; MAX_LINE_WORDS];
    let corrupt = &mut corrupt[..words];
    corrupt.copy_from_slice(&strike.snapshot);
    strike.pattern.apply_to(corrupt);
    // Words that differ from the corrupted pre-store image are the store's.
    let cpu_words = || (0..words).filter(|&i| current[i] != corrupt[i]);
    let cpu_mask = cpu_words().fold(0u64, |mask, i| mask | 1 << i);
    if strike
        .pattern
        .flips()
        .iter()
        .all(|f| cpu_mask & 1 << f.word != 0)
    {
        // The store overwrote every struck word before anything consumed
        // them; the scheme re-encodes over the merged line right after.
        return TrialOutcome::Masked;
    }
    // Rebuild the pre-store image and run the access-time check on it.
    for i in cpu_words() {
        l2.write_word(strike.set, strike.way, i, corrupt[i]);
    }
    // A non-silent write hit dirties the line, so `first_write` names the
    // pre-store state. An elided silent store changes nothing: the line's
    // current dirty bit *is* the state the check storage describes.
    let was_dirty = if silent {
        l2.line_view(strike.set, strike.way).dirty
    } else {
        !first_write
    };
    let outcome = match scheme.verify_access(l2, strike.set, strike.way, was_dirty, memory) {
        RecoveryOutcome::Clean => {
            restore_struck_words(strike, l2);
            TrialOutcome::Sdc
        }
        RecoveryOutcome::CorrectedByEcc { .. } => {
            if line_is_snapshot(strike, l2) {
                TrialOutcome::Corrected
            } else {
                restore_struck_words(strike, l2);
                TrialOutcome::Sdc
            }
        }
        RecoveryOutcome::RecoveredByRefetch => TrialOutcome::RefetchRecovered,
        RecoveryOutcome::Unrecoverable => {
            restore_struck_words(strike, l2);
            TrialOutcome::Due
        }
    };
    // Re-merge the store's words over the recovered line.
    for i in cpu_words() {
        l2.write_word(strike.set, strike.way, i, current[i]);
    }
    outcome
}

/// The struck line is evicted. Clean: the corrupted copy is dropped and
/// memory still holds intact data. Dirty: the corrupted write-back has
/// already landed in memory, so the outbound image is checked and memory
/// repaired accordingly.
fn resolve_evict(
    strike: &PendingStrike,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
    dirty: bool,
) -> TrialOutcome {
    if !dirty {
        return TrialOutcome::Masked;
    }
    check_written_back(strike, scheme, memory)
}

/// The struck dirty line was cleaned (written back but kept resident).
/// The corrupted image reached memory *and* still sits in the cache, so
/// both copies are checked/repaired.
fn resolve_cleaned(
    strike: &PendingStrike,
    l2: &mut Cache,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
) -> TrialOutcome {
    let outcome = check_written_back(strike, scheme, memory);
    // The resident copy is now clean and must equal memory's repaired
    // image (the clean-line refetch invariant).
    restore_struck_words(strike, l2);
    outcome
}

/// Runs the scheme's outbound check on the struck line's image in memory
/// and repairs memory to the pre-strike snapshot.
fn check_written_back(
    strike: &PendingStrike,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
) -> TrialOutcome {
    let mut buf = [0; MAX_LINE_WORDS];
    let buf = &mut buf[..strike.snapshot.len()];
    memory.read_line_into(strike.line, buf);
    let outcome = match scheme.verify_writeback(strike.set, strike.way, buf) {
        RecoveryOutcome::Clean if memory.line_matches(strike.line, &strike.snapshot) => {
            return TrialOutcome::Masked;
        }
        RecoveryOutcome::Clean => TrialOutcome::Sdc,
        RecoveryOutcome::CorrectedByEcc { .. } if *buf == *strike.snapshot => {
            TrialOutcome::Corrected
        }
        // Miscorrected write-back: wrong data reached memory.
        RecoveryOutcome::CorrectedByEcc { .. } => TrialOutcome::Sdc,
        RecoveryOutcome::RecoveredByRefetch => return TrialOutcome::RefetchRecovered,
        RecoveryOutcome::Unrecoverable => TrialOutcome::Due,
    };
    memory.write_line(strike.line, &strike.snapshot);
    outcome
}
