//! The out-of-order pipeline: fetch → dispatch → issue → commit.
//!
//! Structure follows `sim-outorder`: a unified **register update unit**
//! (RUU) serves as combined reorder buffer and reservation stations, a
//! separate **load/store queue** (LSQ) holds memory ops and provides
//! store-to-load forwarding, and a branch misprediction stalls fetch until
//! the branch resolves plus a redirect penalty (the standard trace-driven
//! approximation of wrong-path execution).
//!
//! Every per-entry structure is indexed by the entry's 64-slot ring index
//! ([`slot_of`] of its sequence number): the RUU is a fixed ring, and the
//! LSQ, the wakeup lists and the ready/issuable sets are slot masks and
//! per-slot arrays over the same ring, so no stage translates between
//! queue positions and slots. An RUU slot holds only what issue, wakeup
//! and commit read of every op, in a quarter of a 64-byte cache line, and
//! an entry's sequence number is implied by its slot's age relative to
//! the head.
//!
//! Ops reach the core through one ring, [`Pipeline::ops`]: the stream
//! draws them into it in batches ([`InstrStream::fill`]), fetch advances a
//! cursor over it, and the instruction fetch queue is the window of
//! fetched, not yet dispatched ops. Ops dispatch in the order they were
//! drawn, so the op with sequence number `seq` is the `seq`-th op drawn:
//! it stays in the ring, written once by the stream, until it commits,
//! and issue and commit read its address, pc and outcome there.
//!
//! The pipeline is advanced one cycle at a time by [`Pipeline::step`]; the
//! caller owns the [`MemoryHierarchy`] so the experiment runner can
//! interleave the cleaning logic and protection scheme between cycles.

use std::hint::select_unpredictable;

use aep_mem::{Addr, Cycle, MemoryHierarchy};

use crate::bpred::{BranchPredictor, Prediction};
use crate::config::CoreConfig;
use crate::fu::FuPool;
use crate::isa::{InstrStream, MicroOp, OpClass, NO_REG};
use crate::tlb::Tlb;

/// Instruction-fetch-queue capacity (decoupling buffer between the fetch
/// and dispatch stages).
const IFQ_ENTRIES: usize = 16;

/// Slots in the op ring: the RUU and IFQ windows plus one draw batch
/// always fit.
const OP_RING: usize = 256;

/// Ops drawn from the stream per batch (at most).
const DRAW: usize = 64;

/// Slots of the fetch-time prediction array: the IFQ and RUU windows fit.
const PREDICTIONS: usize = 128;

const _: () = assert!(RING + IFQ_ENTRIES + DRAW <= OP_RING && OP_RING.is_power_of_two());
const _: () = assert!(RING + IFQ_ENTRIES <= PREDICTIONS && PREDICTIONS.is_power_of_two());

/// Cycles for a load served by store-to-load forwarding.
const FORWARD_LATENCY: u64 = 2;

/// Slots in the RUU ring (the configured RUU is capped at this size).
const RING: usize = 64;

/// One RUU slot.
#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    complete_at: Cycle,
    class: OpClass,
    /// The destination register ([`NO_REG`] when none).
    dst: u8,
    issued: bool,
    mispredicted: bool,
    /// In-flight producers this entry still waits on (wakeup scheduling).
    wait_count: u8,
    /// The functional-unit class the op issues to
    /// ([`FuPool::class_index`], decoded at dispatch).
    unit: u8,
    /// The execution latency of a non-memory op (decoded at dispatch).
    latency: u8,
}

// Four slots per 64-byte cache line.
const _: () = assert!(std::mem::size_of::<RuuEntry>() <= 16);

impl RuuEntry {
    /// Placeholder contents of a ring slot no live entry occupies.
    const VACANT: RuuEntry = RuuEntry {
        complete_at: 0,
        class: OpClass::IntAlu,
        dst: NO_REG,
        issued: false,
        mispredicted: false,
        wait_count: 0,
        unit: 0,
        latency: 0,
    };
}

/// Placeholder contents of a prediction slot no live branch occupies.
const NO_PREDICTION: Prediction = Prediction {
    taken: false,
    target: None,
};

/// Sentinel for empty wakeup-list links.
const WAITER_NONE: u32 = u32::MAX;

/// Sentinel of [`Pipeline::reg_producer`]: no in-flight producer (the
/// value is in the register file). Sequence numbers never reach it.
const NO_PRODUCER: u64 = u64::MAX;

/// Sentinel of [`Pipeline::current_fetch_block`]: no block is open.
/// Block numbers are addresses shifted right by the line size, so they
/// never reach it.
const NO_BLOCK: u64 = u64::MAX;

/// Slot of an op's index (ops drawn before it) in the op ring.
#[inline]
fn op_slot(index: u64) -> usize {
    (index & (OP_RING as u64 - 1)) as usize
}

/// Slot of a fetched op's index in [`Pipeline::ifq_mispredicted`]. The
/// IFQ holds at most [`IFQ_ENTRIES`] consecutive indices, so slots are
/// unique per entry.
#[inline]
fn ifq_slot(index: u64) -> usize {
    (index & (IFQ_ENTRIES as u64 - 1)) as usize
}

/// Slot of a fetched op's index in [`Pipeline::predictions`]: unique over
/// the IFQ and RUU windows, which hold at most [`PREDICTIONS`]
/// consecutive indices.
#[inline]
fn prediction_slot(index: u64) -> usize {
    (index & (PREDICTIONS as u64 - 1)) as usize
}

/// The [`Pipeline::reg_producer`] entry an op with destination `dst`
/// writes: the register's own, or for [`NO_REG`] a scratch entry no
/// source reads (so dispatch and commit need no test of `dst`).
#[inline]
fn dst_entry(dst: u8) -> usize {
    dst as usize + usize::from(dst == NO_REG)
}

/// Slot of a sequence number in the RUU ring and the per-slot arrays.
/// In-flight seqs span at most `ruu_entries <= 64`, so slots are unique
/// per entry.
#[inline]
fn slot_of(seq: u64) -> usize {
    (seq & (RING as u64 - 1)) as usize
}

/// Cumulative pipeline statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Instructions committed.
    pub committed: u64,
    /// Instructions fetched into the IFQ.
    pub fetched: u64,
    /// Loads served by store-to-load forwarding.
    pub forwarded_loads: u64,
    /// Cycles fetch spent stalled (I-miss, redirect, or halted).
    pub fetch_stall_cycles: u64,
    /// Cycles commit was blocked by a stalling store (full write buffer).
    pub store_stall_cycles: u64,
}

impl PipelineStats {
    /// Instructions per cycle over `cycles` elapsed cycles.
    #[must_use]
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }

    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("committed", self.committed);
        reg.counter("fetched", self.fetched);
        reg.counter("forwarded_loads", self.forwarded_loads);
        reg.counter("fetch_stall_cycles", self.fetch_stall_cycles);
        reg.counter("store_stall_cycles", self.store_stall_cycles);
    }
}

/// The 4-issue out-of-order core of Table 1.
///
/// ```
/// use aep_cpu::isa::{LoopStream, MicroOp, NO_REG};
/// use aep_cpu::{CoreConfig, Pipeline};
/// use aep_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let stream = LoopStream::new(vec![MicroOp::alu(0, NO_REG, NO_REG, 1)]);
/// let mut cpu = Pipeline::new(CoreConfig::date2006(), stream);
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
/// for now in 0..1000 {
///     cpu.step(&mut mem, now);
///     mem.tick(now);
/// }
/// assert!(cpu.stats().committed > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline<S> {
    cfg: CoreConfig,
    stream: S,
    bpred: BranchPredictor,
    itlb: Tlb,
    dtlb: Tlb,
    fu: FuPool,
    /// The op ring, indexed by [`op_slot`] of an op's index (its sequence
    /// number once dispatched): the RUU's ops are `head_seq..next_seq`,
    /// the IFQ is `next_seq..fetch_next`, and the ops drawn but not yet
    /// fetched are `fetch_next..drawn`.
    ops: [MicroOp; OP_RING],
    /// Index of the next op to fetch (an op held back by an I-cache miss
    /// stays here until the block lands).
    fetch_next: u64,
    /// Ops drawn from the stream so far.
    drawn: u64,
    /// The fetch-time prediction of each fetched branch, by
    /// [`prediction_slot`], read back at commit to train the predictor.
    predictions: [Prediction; PREDICTIONS],
    /// Bitmask (by [`ifq_slot`]) of fetched branches that mispredicted.
    ifq_mispredicted: u32,
    /// The RUU as a ring indexed by [`slot_of`]; the live entries are
    /// `head_seq..next_seq`.
    ruu: [RuuEntry; RING],
    /// Each slot's source producers ([`NO_PRODUCER`] when none), kept
    /// only for the debug-build check that wakeup scheduling agrees with
    /// a full readiness scan.
    #[cfg(debug_assertions)]
    src_seqs: [[u64; 2]; RING],
    head_seq: u64,
    next_seq: u64,
    // ----- load/store queue ----------------------------------------------
    // The LSQ holds exactly the RUU's uncommitted loads and stores (both
    // enter at dispatch and leave at commit), so it needs no queue of its
    // own: an occupancy count for the dispatch limit, plus the slots of
    // the in-flight stores for forwarding (their addresses are in the op
    // ring).
    /// Uncommitted loads and stores.
    lsq_len: usize,
    /// Bitmask (by slot) of uncommitted stores.
    store_mask: u64,
    /// The in-flight op that last named each register as its destination
    /// ([`NO_PRODUCER`] once it has committed). Indexed by any `u8`
    /// register id, so a source read needs no check: the [`NO_REG`] entry
    /// is never written and always reads [`NO_PRODUCER`]. A [`NO_REG`]
    /// destination writes the extra last entry instead ([`dst_entry`]),
    /// which no source reads.
    reg_producer: [u64; 257],
    fetch_halted: bool,
    fetch_blocked_until: Cycle,
    /// The I-cache block fetch is reading ([`NO_BLOCK`] after a redirect).
    current_fetch_block: u64,
    stats: PipelineStats,
    // ----- wakeup/select scheduling state --------------------------------
    // The issue stage is event-driven instead of scanning the whole RUU
    // every cycle: a dispatched entry either knows the cycle its sources
    // complete (`scheduled`, keyed by the entry's `ready_at`) or is linked
    // into its unissued producers' waiter lists and woken when they issue.
    // `issuable` holds, per slot, the entries whose sources are ready now
    // (retrying FU arbitration each cycle). The outcome is cycle-exact
    // identical to the full scan.
    /// Head of the intrusive waiter list per producer slot.
    waiter_head: [u32; RING],
    /// Next link per waiter node (`consumer_slot * 2 + src_index`), read
    /// only while the node is linked into a list.
    waiter_next: [u32; 2 * RING],
    /// Bitmask (by slot) of resolved, not-yet-issuable entries.
    scheduled: u64,
    /// Per slot, the earliest cycle the entry's sources can all be ready:
    /// the max `complete_at` over its resolved producers. Valid once the
    /// entry's `wait_count` reaches 0. Kept apart from the RUU so the
    /// wakeup scan reads one dense array.
    ready_at: [Cycle; RING],
    /// The minimum `ready_at` over `scheduled` ([`Cycle::MAX`] when empty).
    earliest_ready: Cycle,
    /// Bitmask (by slot) of entries whose sources are ready.
    issuable: u64,
}

impl<S: InstrStream> Pipeline<S> {
    /// Builds a pipeline over `stream`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is structurally invalid.
    #[must_use]
    pub fn new(cfg: CoreConfig, stream: S) -> Self {
        cfg.assert_valid();
        Pipeline {
            bpred: BranchPredictor::new(cfg.bpred.clone()),
            itlb: Tlb::date2006_itlb(),
            dtlb: Tlb::date2006_dtlb(),
            fu: FuPool::new(&cfg.fu),
            ops: [MicroOp::alu(0, NO_REG, NO_REG, NO_REG); OP_RING],
            fetch_next: 0,
            drawn: 0,
            predictions: [NO_PREDICTION; PREDICTIONS],
            ifq_mispredicted: 0,
            ruu: [RuuEntry::VACANT; RING],
            #[cfg(debug_assertions)]
            src_seqs: [[NO_PRODUCER; 2]; RING],
            head_seq: 0,
            next_seq: 0,
            lsq_len: 0,
            store_mask: 0,
            reg_producer: [NO_PRODUCER; 257],
            fetch_halted: false,
            fetch_blocked_until: 0,
            current_fetch_block: NO_BLOCK,
            stats: PipelineStats::default(),
            waiter_head: [WAITER_NONE; RING],
            waiter_next: [WAITER_NONE; 2 * RING],
            scheduled: 0,
            ready_at: [0; RING],
            earliest_ready: Cycle::MAX,
            issuable: 0,
            cfg,
            stream,
        }
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Loads and stores currently in the load/store queue.
    #[must_use]
    pub fn lsq_occupancy(&self) -> usize {
        self.lsq_len
    }

    /// The branch predictor (for its statistics).
    #[must_use]
    pub fn bpred(&self) -> &BranchPredictor {
        &self.bpred
    }

    /// Instruction TLB (for its statistics).
    #[must_use]
    pub fn itlb(&self) -> &Tlb {
        &self.itlb
    }

    /// Data TLB (for its statistics).
    #[must_use]
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// Publishes pipeline, branch-predictor, and TLB statistics under the
    /// current scope (`pipeline.*`, `bpred.*`, `itlb.*`, `dtlb.*`).
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.scoped("pipeline", |r| self.stats.register_stats(r));
        reg.scoped("bpred", |r| self.bpred.stats().register_stats(r));
        reg.scoped("itlb", |r| self.itlb.stats().register_stats(r));
        reg.scoped("dtlb", |r| self.dtlb.stats().register_stats(r));
    }

    /// Advances the core by one cycle against `hier`.
    pub fn step(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        self.commit_stage(hier, now);
        self.issue_stage(hier, now);
        self.dispatch_stage(now);
        self.fetch_stage(hier, now);
    }

    /// Runs `cycles` cycles (commit-driven experiments use
    /// `aep-sim`'s runner instead; this is a convenience for tests).
    pub fn run(&mut self, hier: &mut MemoryHierarchy, cycles: Cycle) {
        for now in 0..cycles {
            self.step(hier, now);
            hier.tick(now);
        }
    }

    /// The earliest cycle after `now` at which any pipeline stage can
    /// change machine state. Stepping the cycles in between is a no-op
    /// (apart from fetch-stall accounting — see
    /// [`Pipeline::account_idle_cycles`]), which is what lets the system
    /// loop fast-forward through stalls. The bound is conservative: it may
    /// name a cycle where nothing happens, never one later than real work.
    #[must_use]
    pub fn next_event_after(&self, now: Cycle) -> Cycle {
        let mut t = Cycle::MAX;
        // Commit: the head entry retires when it completes.
        if let Some(head) = self.head() {
            if head.issued {
                t = t.min(head.complete_at.max(now + 1));
            }
        }
        // Issue: FU-blocked entries retry every cycle; otherwise the
        // earliest scheduled wakeup.
        if self.issuable != 0 {
            return now + 1;
        }
        t = t.min(self.earliest_ready.max(now + 1));
        // Dispatch: pending fetched ops enter as soon as there is room. A
        // memory op facing a full LSQ waits for a commit, which the head
        // term above already covers.
        if let Some(front) = self.ifq_front() {
            if self.ruu_len() < self.cfg.ruu_entries && !self.lsq_blocks(front.class) {
                return now + 1;
            }
        }
        // Fetch: resumes when unblocked (a halt only ends via issue).
        if !self.fetch_halted && self.ifq_len() < IFQ_ENTRIES {
            t = t.min(self.fetch_blocked_until.max(now + 1));
        }
        t
    }

    /// Books the per-cycle statistics a real step would have recorded for
    /// `count` skipped idle cycles starting at `from` (fetch-stall
    /// accounting is the only per-cycle counter the pipeline keeps).
    pub fn account_idle_cycles(&mut self, from: Cycle, count: u64) {
        if self.fetch_halted {
            self.stats.fetch_stall_cycles += count;
        } else if from < self.fetch_blocked_until {
            self.stats.fetch_stall_cycles += count.min(self.fetch_blocked_until - from);
        }
    }

    /// Live RUU entries.
    fn ruu_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The oldest live RUU entry.
    fn head(&self) -> Option<&RuuEntry> {
        (self.head_seq < self.next_seq).then(|| &self.ruu[slot_of(self.head_seq)])
    }

    /// Fetched ops not yet dispatched.
    fn ifq_len(&self) -> usize {
        (self.fetch_next - self.next_seq) as usize
    }

    /// The oldest fetched op not yet dispatched.
    fn ifq_front(&self) -> Option<&MicroOp> {
        (self.next_seq < self.fetch_next).then(|| &self.ops[op_slot(self.next_seq)])
    }

    /// Draws the next batch of ops from the stream into the ring. Called
    /// when fetch has caught up with the drawn ops, so the ring holds only
    /// the RUU's and the IFQ's ops and the batch cannot overwrite one.
    fn draw_ops(&mut self) {
        debug_assert_eq!(self.fetch_next, self.drawn, "fetch caught up");
        let start = op_slot(self.drawn);
        let end = (start + DRAW).min(OP_RING);
        debug_assert!(
            self.drawn + (end - start) as u64 - self.head_seq <= OP_RING as u64,
            "a batch never overwrites an uncommitted op"
        );
        self.stream.fill(&mut self.ops[start..end]);
        self.drawn += (end - start) as u64;
    }

    /// Whether an op of `class` must wait for LSQ space to dispatch.
    fn lsq_blocks(&self, class: OpClass) -> bool {
        class.is_mem() && self.lsq_len >= self.cfg.lsq_entries
    }

    /// The live RUU entry for `seq`, or `None` once it has committed.
    fn live_entry(&self, seq: u64) -> Option<&RuuEntry> {
        (self.head_seq..self.next_seq)
            .contains(&seq)
            .then(|| &self.ruu[slot_of(seq)])
    }

    /// Whether `slot` holds a live RUU entry.
    fn slot_is_live(&self, slot: usize) -> bool {
        ((slot as u64).wrapping_sub(self.head_seq) & (RING as u64 - 1)) < self.ruu_len() as u64
    }

    /// Whether the source produced by `seq` ([`NO_PRODUCER`]: none) is
    /// ready at `now`.
    #[cfg(debug_assertions)]
    fn src_ready(&self, seq: u64, now: Cycle) -> bool {
        match self.live_entry(seq) {
            None => true, // no producer, or it committed: value in the register file
            Some(e) => e.issued && e.complete_at <= now,
        }
    }

    /// Whether the LSQ count and store mask describe exactly the live
    /// RUU's memory ops.
    #[cfg(test)]
    fn lsq_in_sync(&self) -> bool {
        let mut len = 0;
        let mut stores = 0u64;
        for seq in self.head_seq..self.next_seq {
            let e = &self.ruu[slot_of(seq)];
            if e.class.is_mem() {
                len += 1;
            }
            if e.class == OpClass::Store {
                stores |= 1 << slot_of(seq);
            }
        }
        len == self.lsq_len && stores == self.store_mask
    }

    // ----- commit -------------------------------------------------------

    fn commit_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        let mut committed = 0;
        while committed < self.cfg.commit_width && self.head_seq < self.next_seq {
            let seq = self.head_seq;
            let slot = slot_of(seq);
            let entry = &self.ruu[slot];
            if !entry.issued || entry.complete_at > now {
                break;
            }
            let (class, dst) = (entry.class, entry.dst);
            debug_assert!(
                (self.store_mask >> slot & 1 == 1) == (class == OpClass::Store)
                    && (self.lsq_len > 0 || !class.is_mem()),
                "LSQ in sync"
            );
            self.head_seq += 1;
            committed += 1;
            self.stats.committed += 1;

            // Only a store's bit is set, so clearing the slot's is exact.
            self.lsq_len -= usize::from(class.is_mem());
            self.store_mask &= !(1 << slot);
            let producer = &mut self.reg_producer[dst_entry(dst)];
            *producer = select_unpredictable(*producer == seq, NO_PRODUCER, *producer);
            match class {
                OpClass::Store => {
                    let done = hier.store(Addr(self.ops[op_slot(seq)].operand), now);
                    if done > now + 1 {
                        // The write buffer was full: the store holds the
                        // commit port while the oldest entry retires.
                        self.stats.store_stall_cycles += done - (now + 1);
                        break;
                    }
                }
                OpClass::Branch => {
                    let op = &self.ops[op_slot(seq)];
                    let prediction = self.predictions[prediction_slot(seq)];
                    self.bpred.update(op.pc, op.taken, op.operand, prediction);
                }
                _ => {}
            }
        }
    }

    // ----- issue --------------------------------------------------------

    fn issue_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        // Wake entries whose resolved ready time has arrived.
        if self.earliest_ready <= now {
            self.wake_due(now);
        }
        if self.issuable == 0 {
            return;
        }
        // Select oldest-first among ready entries, exactly as the full RUU
        // scan would: rotating the slot mask by the head's slot orders the
        // bits by age.
        let head_slot = slot_of(self.head_seq) as u32;
        let mut pending = self.issuable.rotate_right(head_slot);
        // This cycle's functional units (issue runs once per cycle).
        let mut free_units = self.fu.units();
        let mut issued = 0;
        let mut resume: Option<Cycle> = None;
        while pending != 0 && issued < self.cfg.issue_width {
            let age = pending.trailing_zeros();
            let slot = (age + head_slot) as usize & (RING - 1);
            pending &= pending - 1;
            let e = &self.ruu[slot];
            let (class, mispredicted, unit, latency) = (e.class, e.mispredicted, e.unit, e.latency);
            let seq = self.head_seq + u64::from(age);
            debug_assert!(!e.issued, "issuable entries are unissued");
            #[cfg(debug_assertions)]
            {
                let [a, b] = self.src_seqs[slot];
                assert!(
                    self.src_ready(a, now) && self.src_ready(b, now),
                    "wakeup scheduling must match the scan's readiness"
                );
            }
            let unit = usize::from(unit);
            if free_units[unit] == 0 {
                continue; // retried next cycle: the slot bit stays set
            }
            free_units[unit] -= 1;
            let complete_at = match class {
                OpClass::Load => {
                    let addr = Addr(self.ops[op_slot(seq)].operand);
                    if self.store_forwarding_hit(seq, addr) {
                        self.stats.forwarded_loads += 1;
                        now + FORWARD_LATENCY
                    } else {
                        let walk = self.dtlb.translate(addr);
                        hier.load(addr, now) + walk
                    }
                }
                OpClass::Store => {
                    // Address generation + translation; the data is written
                    // to the hierarchy at commit.
                    let walk = self.dtlb.translate(Addr(self.ops[op_slot(seq)].operand));
                    now + 1 + walk
                }
                _ => now + u64::from(latency),
            };
            self.ruu[slot].issued = true;
            self.ruu[slot].complete_at = complete_at;
            self.issuable &= !(1 << slot);
            self.wake_waiters(slot, complete_at, now);
            issued += 1;
            if mispredicted {
                // The branch now has a resolution time: fetch restarts
                // after it resolves plus the redirect penalty.
                let at = complete_at + self.cfg.redirect_penalty;
                resume = Some(resume.map_or(at, |r: Cycle| r.max(at)));
            }
        }
        if let Some(at) = resume {
            self.fetch_halted = false;
            self.fetch_blocked_until = self.fetch_blocked_until.max(at);
            self.current_fetch_block = NO_BLOCK;
        }
    }

    /// Moves every scheduled entry whose `ready_at` has arrived into the
    /// issuable set and recomputes the earliest pending `ready_at`.
    fn wake_due(&mut self, now: Cycle) {
        let mut earliest = Cycle::MAX;
        let mut due = 0u64;
        let mut pending = self.scheduled;
        while pending != 0 {
            let slot = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let ready_at = self.ready_at[slot];
            let is_due = ready_at <= now;
            due |= u64::from(is_due) << slot;
            earliest = earliest.min(if is_due { Cycle::MAX } else { ready_at });
        }
        self.scheduled &= !due;
        self.issuable |= due;
        self.earliest_ready = earliest;
    }

    /// Schedules the entry in `slot`, whose sources are all resolved, to
    /// become issuable at its `ready_at`. An entry ready by the next cycle
    /// joins the issuable set at once: the next cycle is stepped either
    /// way (see [`Pipeline::next_event_after`]), and its wakeup would move
    /// the entry there before select.
    ///
    /// Does nothing unless `resolved`, and takes no branch on it or on
    /// `ready_at`: which entries resolve, and when, is data.
    fn schedule(&mut self, slot: usize, ready_at: Cycle, now: Cycle, resolved: bool) {
        let soon = ready_at <= now + 1;
        let later = resolved & !soon;
        self.issuable |= u64::from(resolved & soon) << slot;
        self.scheduled |= u64::from(later) << slot;
        self.earliest_ready = select_unpredictable(
            later,
            self.earliest_ready.min(ready_at),
            self.earliest_ready,
        );
    }

    /// Notifies every consumer waiting on the producer in `slot` that its
    /// result lands at `complete_at`; consumers whose last dependency this
    /// was are scheduled.
    fn wake_waiters(&mut self, slot: usize, complete_at: Cycle, now: Cycle) {
        let mut node = self.waiter_head[slot];
        self.waiter_head[slot] = WAITER_NONE;
        while node != WAITER_NONE {
            let consumer_slot = (node >> 1) as usize;
            let next = self.waiter_next[node as usize];
            debug_assert!(self.slot_is_live(consumer_slot), "waiter slot in sync");
            let ready_at = self.ready_at[consumer_slot].max(complete_at);
            self.ready_at[consumer_slot] = ready_at;
            let e = &mut self.ruu[consumer_slot];
            e.wait_count -= 1;
            let resolved = e.wait_count == 0;
            self.schedule(consumer_slot, ready_at, now, resolved);
            node = next;
        }
    }

    /// Whether an uncommitted store older than `load_seq` wrote the word
    /// `addr` falls in.
    fn store_forwarding_hit(&self, load_seq: u64, addr: Addr) -> bool {
        let word = addr.0 / 8;
        // Rotating by the head's slot orders the mask by age, so the bits
        // below the load's age are exactly the older stores.
        let head_slot = slot_of(self.head_seq) as u32;
        let age = load_seq - self.head_seq;
        let mut older = self.store_mask.rotate_right(head_slot) & ((1 << age) - 1);
        while older != 0 {
            let store_seq = self.head_seq + u64::from(older.trailing_zeros());
            older &= older - 1;
            if self.ops[op_slot(store_seq)].operand / 8 == word {
                return true;
            }
        }
        false
    }

    // ----- dispatch -----------------------------------------------------

    fn dispatch_stage(&mut self, now: Cycle) {
        let mut dispatched = 0;
        while dispatched < self.cfg.decode_width
            && self.next_seq < self.fetch_next
            && self.ruu_len() < self.cfg.ruu_entries
        {
            // The IFQ's oldest op takes the next sequence number, which is
            // its index in the op ring.
            let seq = self.next_seq;
            let op = self.ops[op_slot(seq)];
            // Whether the op is a load or store, as a number: dispatch
            // takes no branch on the op's class here.
            let mem = usize::from(op.class.is_mem());
            if self.lsq_len + mem > self.cfg.lsq_entries {
                break; // a memory op waits for LSQ space
            }
            let slot = slot_of(seq);

            let src_seqs = [
                self.reg_producer[op.src1 as usize],
                self.reg_producer[op.src2 as usize],
            ];
            self.reg_producer[dst_entry(op.dst)] = seq;
            let bit = 1u32 << ifq_slot(seq);
            let mispredicted = self.ifq_mispredicted & bit != 0;
            self.ifq_mispredicted &= !bit;
            self.lsq_len += mem;
            self.store_mask |= u64::from(op.class == OpClass::Store) << slot;
            // Wakeup bookkeeping: producers still in flight get a waiter
            // link; resolved dependencies contribute their completion time.
            // A recorded producer is always in flight: commit clears it.
            let mut wait_count: u8 = 0;
            let mut ready_at: Cycle = 0;
            for (i, src_seq) in src_seqs.into_iter().enumerate() {
                // `NO_PRODUCER` maps to a real slot too: its entry is read
                // and ignored.
                let in_flight = src_seq != NO_PRODUCER;
                debug_assert!(
                    !in_flight || self.live_entry(src_seq).is_some(),
                    "producers are live"
                );
                let producer_slot = slot_of(src_seq);
                let producer = &self.ruu[producer_slot];
                let resolved_at =
                    select_unpredictable(in_flight & producer.issued, producer.complete_at, 0);
                ready_at = ready_at.max(resolved_at);
                // Link the waiter node when the producer is in flight and
                // unissued. Written unconditionally: an unlinked node's
                // next field is never read.
                let waits = in_flight & !producer.issued;
                let node = slot * 2 + i;
                let head = self.waiter_head[producer_slot];
                self.waiter_next[node] = head;
                self.waiter_head[producer_slot] = select_unpredictable(waits, node as u32, head);
                wait_count += u8::from(waits);
            }
            self.ready_at[slot] = ready_at;
            self.ruu[slot] = RuuEntry {
                complete_at: 0,
                class: op.class,
                dst: op.dst,
                issued: false,
                mispredicted,
                wait_count,
                unit: FuPool::class_index(op.class) as u8,
                latency: FuPool::timing(op.class).latency as u8,
            };
            #[cfg(debug_assertions)]
            {
                self.src_seqs[slot] = src_seqs;
            }
            self.next_seq += 1;
            self.schedule(slot, ready_at, now, wait_count == 0);
            dispatched += 1;
        }
    }

    // ----- fetch --------------------------------------------------------

    fn fetch_stage(&mut self, hier: &mut MemoryHierarchy, now: Cycle) {
        if self.fetch_halted || now < self.fetch_blocked_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        // Line sizes are powers of two (validated by the hierarchy config).
        let block_shift = hier.config().l1i.line_bytes.trailing_zeros();
        let mut fetched = 0;
        while fetched < self.cfg.fetch_width && self.ifq_len() < IFQ_ENTRIES {
            if self.fetch_next == self.drawn {
                self.draw_ops();
            }
            let index = self.fetch_next;
            let op = self.ops[op_slot(index)];
            let block = op.pc >> block_shift;
            if self.current_fetch_block != block {
                let walk = self.itlb.translate(Addr::new(op.pc));
                let done = hier.fetch(Addr::new(op.pc), now) + walk;
                self.current_fetch_block = block;
                if done > now + 1 {
                    // I-cache miss: the op waits in the ring until the
                    // block lands.
                    self.fetch_blocked_until = done;
                    return;
                }
            }
            self.fetch_next += 1;
            self.stats.fetched += 1;
            fetched += 1;
            if op.class == OpClass::Branch {
                let pred = self.bpred.predict(op.pc);
                let mispredict =
                    pred.taken != op.taken || (op.taken && pred.target != Some(op.operand));
                self.predictions[prediction_slot(index)] = pred;
                if mispredict {
                    // Wrong-path fetch: stop until the branch resolves.
                    self.ifq_mispredicted |= 1 << ifq_slot(index);
                    self.fetch_halted = true;
                    self.current_fetch_block = NO_BLOCK;
                    return;
                }
                if op.taken {
                    // Correctly predicted taken branch: the fetch stream
                    // redirects to the target block next cycle.
                    self.current_fetch_block = NO_BLOCK;
                    break;
                }
            }
        }
    }

    /// Places `op` in the IFQ as if fetched without a misprediction, ahead
    /// of everything the stream has still to supply.
    #[cfg(test)]
    fn ifq_push(&mut self, op: MicroOp) {
        assert!(self.fetch_next == self.drawn && self.ifq_len() < IFQ_ENTRIES);
        self.ops[op_slot(self.drawn)] = op;
        self.drawn += 1;
        self.fetch_next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::LoopStream;
    use aep_mem::HierarchyConfig;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::tiny())
    }

    fn run_ops(ops: Vec<MicroOp>, cycles: Cycle) -> (PipelineStats, MemoryHierarchy) {
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut hier = mem();
        cpu.run(&mut hier, cycles);
        (cpu.stats(), hier)
    }

    #[test]
    fn independent_alu_ops_reach_high_ipc() {
        // 4 independent ALU ops in a 32-byte block: should sustain ~4 IPC
        // once warm (bounded by fetch width).
        let ops = (0..4)
            .map(|i| MicroOp::alu(i * 8, NO_REG, NO_REG, (i % 32) as u8))
            .collect();
        let (stats, _) = run_ops(ops, 10_000);
        let ipc = stats.ipc(10_000);
        assert!(ipc > 2.5, "expected high ILP, got IPC {ipc}");
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // r1 <- r1 + r1 forever: a serial chain, IPC <= 1.
        let ops = vec![MicroOp::alu(0, 1, 1, 1)];
        let (stats, _) = run_ops(ops, 5_000);
        let ipc = stats.ipc(5_000);
        assert!(ipc <= 1.05, "serial chain cannot exceed 1 IPC, got {ipc}");
        assert!(ipc > 0.5, "chain should still progress, got {ipc}");
    }

    #[test]
    fn single_multiplier_throttles_mul_streams() {
        let muls: Vec<MicroOp> = (0..4)
            .map(|i| MicroOp {
                class: OpClass::IntMul,
                ..MicroOp::alu(i * 8, NO_REG, NO_REG, (i + 1) as u8)
            })
            .collect();
        let (stats, _) = run_ops(muls, 5_000);
        // One multiplier, 1-cycle initiation: at most 1 mul issued per
        // cycle, so IPC <= ~1.
        assert!(stats.ipc(5_000) <= 1.05);
    }

    #[test]
    fn loads_and_stores_flow_through_the_hierarchy() {
        let ops = vec![
            MicroOp::store(0, Addr::new(0x1000), 1),
            MicroOp::load(8, Addr::new(0x2000), 2),
        ];
        let (stats, hier) = run_ops(ops, 20_000);
        assert!(stats.committed > 100);
        assert!(hier.ops().loads > 0);
        assert!(hier.ops().stores > 0);
    }

    #[test]
    fn store_to_load_forwarding_is_used() {
        // Store to X immediately followed by load from X.
        let ops = vec![
            MicroOp::store(0, Addr::new(0x3000), 1),
            MicroOp::load(8, Addr::new(0x3000), 2),
        ];
        let (stats, _) = run_ops(ops, 5_000);
        assert!(stats.forwarded_loads > 0, "same-word load must forward");
    }

    /// A pipeline whose next dispatched op gets `first_seq`, with `ops`
    /// waiting in the fetch queue (the stream behind them is plain ALU
    /// filler).
    fn pipeline_at(first_seq: u64, ops: &[MicroOp]) -> Pipeline<LoopStream> {
        let filler = LoopStream::new(vec![MicroOp::alu(0x100, NO_REG, NO_REG, 9)]);
        let mut cpu = Pipeline::new(CoreConfig::date2006(), filler);
        cpu.head_seq = first_seq;
        cpu.next_seq = first_seq;
        cpu.fetch_next = first_seq;
        cpu.drawn = first_seq;
        for &op in ops {
            cpu.ifq_push(op);
        }
        cpu
    }

    /// How many of `ops`, independent and dispatched together into a core
    /// with 16-wide decode and issue, issue in their first cycle: only
    /// the functional-unit pool limits them.
    fn issued_in_one_cycle(ops: &[MicroOp]) -> usize {
        let filler = LoopStream::new(vec![MicroOp::alu(0x100, NO_REG, NO_REG, 9)]);
        let cfg = CoreConfig {
            decode_width: 16,
            issue_width: 16,
            ..CoreConfig::date2006()
        };
        let mut cpu = Pipeline::new(cfg, filler);
        for &op in ops {
            cpu.ifq_push(op);
        }
        cpu.dispatch_stage(0);
        assert_eq!(cpu.ruu_len(), ops.len());
        cpu.issue_stage(&mut mem(), 1);
        cpu.ruu[..ops.len()].iter().filter(|e| e.issued).count()
    }

    #[test]
    fn issue_takes_units_from_the_pool() {
        let op = |class, i: u64| MicroOp {
            class,
            ..MicroOp::alu(i * 8, NO_REG, NO_REG, (i + 1) as u8)
        };
        // Four integer ALUs, shared with branches.
        let alu: Vec<MicroOp> = (0..6).map(|i| op(OpClass::IntAlu, i)).collect();
        assert_eq!(issued_in_one_cycle(&alu), 4);
        let mixed = [
            op(OpClass::Branch, 0),
            op(OpClass::IntAlu, 1),
            op(OpClass::Branch, 2),
            op(OpClass::IntAlu, 3),
            op(OpClass::Branch, 4),
        ];
        assert_eq!(issued_in_one_cycle(&mixed), 4);
        // One multiplier, one FP adder, one FP multiplier.
        let single = [
            op(OpClass::IntMul, 0),
            op(OpClass::IntMul, 1),
            op(OpClass::FpAdd, 2),
            op(OpClass::FpAdd, 3),
            op(OpClass::FpMul, 4),
            op(OpClass::FpMul, 5),
        ];
        assert_eq!(issued_in_one_cycle(&single), 3);
        // Two memory ports, shared by loads and stores.
        let mem_ops = [
            MicroOp::load(0, Addr::new(0x1000), 1),
            MicroOp::store(8, Addr::new(0x2000), NO_REG),
            MicroOp::load(16, Addr::new(0x3000), 2),
        ];
        assert_eq!(issued_in_one_cycle(&mem_ops), 2);
        // Every class at once: each is limited by its own units only.
        let all: Vec<MicroOp> = alu.iter().chain(&single).chain(&mem_ops).copied().collect();
        assert_eq!(issued_in_one_cycle(&all), 4 + 3 + 2);
    }

    #[test]
    fn forwarding_crosses_the_slot_ring_wrap() {
        // The store lands in slot 63 and the load in slot 0.
        let x = Addr::new(0x3000);
        let ops = [
            MicroOp::alu(0, NO_REG, NO_REG, 1),
            MicroOp::store(8, x, 1),
            MicroOp::load(16, x, 2),
        ];
        let mut cpu = pipeline_at(62, &ops);
        cpu.dispatch_stage(0);
        assert_eq!((slot_of(63), slot_of(64)), (63, 0));
        assert!(cpu.store_forwarding_hit(64, x));
        assert!(
            !cpu.store_forwarding_hit(63, x),
            "a store never feeds itself"
        );
        assert!(cpu.lsq_in_sync());

        let mut hier = mem();
        for now in 0..500 {
            cpu.step(&mut hier, now);
            hier.tick(now);
        }
        assert_eq!(cpu.stats().forwarded_loads, 1);
        assert!(cpu.stats().committed >= 3);
    }

    #[test]
    fn loads_never_forward_from_younger_stores() {
        let z = Addr::new(0x5000);
        let ops = [
            MicroOp::load(0, z, 2),
            MicroOp::store(8, z, 1),
            MicroOp::load(16, z, 3),
        ];
        let mut cpu = pipeline_at(120, &ops);
        cpu.dispatch_stage(0);
        assert!(!cpu.store_forwarding_hit(120, z), "the store is younger");
        assert!(cpu.store_forwarding_hit(122, z), "the store is older");

        let mut hier = mem();
        for now in 0..500 {
            cpu.step(&mut hier, now);
            hier.tick(now);
        }
        // The second load forwards (it issues while the store is still in
        // flight); the first, older than the store, must not.
        assert_eq!(cpu.stats().forwarded_loads, 1);
        assert!(cpu.stats().committed >= 3);
    }

    #[test]
    fn mispredicted_branches_cost_fetch_cycles() {
        // A branch alternating taken/not-taken against a randomised
        // pattern is hard; emulate with a taken branch to a new target each
        // time... LoopStream repeats the same op, so use a predictable
        // taken branch (learned quickly) vs an always-mispredicting one.
        let well_predicted = vec![
            MicroOp::alu(0, NO_REG, NO_REG, 1),
            MicroOp::branch(8, true, 0),
        ];
        let (good, _) = run_ops(well_predicted, 20_000);

        // Unpredictable direction: LoopStream cannot vary `taken`, so use
        // two branches at the same PC with opposite outcomes — the PHT
        // counter oscillates and mispredicts a large fraction.
        let poorly_predicted = vec![
            MicroOp::alu(0, NO_REG, NO_REG, 1),
            MicroOp::branch(8, true, 0),
            MicroOp::alu(0, NO_REG, NO_REG, 1),
            MicroOp::branch(8, false, 0),
        ];
        let (bad, _) = run_ops(poorly_predicted, 20_000);
        assert!(
            bad.ipc(20_000) < good.ipc(20_000),
            "mispredictions must cost throughput: bad {} vs good {}",
            bad.ipc(20_000),
            good.ipc(20_000)
        );
    }

    #[test]
    fn ruu_never_exceeds_capacity() {
        // A long-latency load chain backs the machine up; the RUU must
        // respect its 64-entry bound (checked indirectly: committed count
        // stays consistent and no panic occurs).
        let ops = vec![MicroOp::load(0, Addr::new(0x8000), 1)];
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut hier = mem();
        for now in 0..2_000 {
            cpu.step(&mut hier, now);
            assert!(cpu.ruu_len() <= 64);
            assert!(cpu.lsq_occupancy() <= 32);
            assert!(cpu.lsq_in_sync());
            hier.tick(now);
        }
    }

    #[test]
    fn stats_ipc_handles_zero_cycles() {
        assert_eq!(PipelineStats::default().ipc(0), 0.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::isa::LoopStream;
    use crate::trace::{RecordingStream, ReplayStream, TraceReader};
    use aep_mem::HierarchyConfig;

    #[test]
    fn replayed_trace_times_identically_to_the_original() {
        // Record a generator-driven run, then replay the trace through a
        // fresh pipeline: committed counts must match exactly (the trace
        // carries everything the timing model consumes).
        let ops = vec![
            MicroOp::alu(0, 1, NO_REG, 2),
            MicroOp::load(8, Addr::new(0x2000), 3),
            MicroOp::store(16, Addr::new(0x3000), 3),
            MicroOp::branch(24, true, 0),
        ];
        let source = LoopStream::new(ops);
        let rec = RecordingStream::new(source, Vec::new()).unwrap();
        let mut cpu_a = Pipeline::new(CoreConfig::date2006(), rec);
        let mut mem_a = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu_a.run(&mut mem_a, 20_000);
        let (committed_a, fetched_a) = (cpu_a.stats().committed, cpu_a.stats().fetched);
        // Pull the recorded bytes back out of the pipeline's stream.
        let (_, buf) = {
            let Pipeline { stream, .. } = cpu_a;
            stream.finish().unwrap()
        };
        let ops_recorded = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        // The recording holds every drawn op: the fetched ones plus at most
        // one draw batch fetch had not reached.
        let recorded = ops_recorded.len() as u64;
        assert!(committed_a <= fetched_a && fetched_a <= recorded);
        assert!(
            recorded <= fetched_a + DRAW as u64,
            "{recorded} drawn, {fetched_a} fetched"
        );

        let replay = ReplayStream::new(ops_recorded);
        let mut cpu_b = Pipeline::new(CoreConfig::date2006(), replay);
        let mut mem_b = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu_b.run(&mut mem_b, 20_000);
        assert_eq!(cpu_b.stats().committed, committed_a);
    }

    #[test]
    fn tlb_misses_add_latency_to_cold_pages() {
        // Loads striding across pages at low locality keep missing the
        // DTLB; ITLB stays hot. Observable via the TLB stats.
        let ops: Vec<MicroOp> = (0..8)
            .map(|i| MicroOp::load(i * 8, Addr::new(i * 8 * 4096), (i % 30 + 1) as u8))
            .collect();
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu.run(&mut mem, 10_000);
        assert!(cpu.dtlb().stats().misses > 0);
        assert!(cpu.itlb().stats().hits > 0);
    }

    #[test]
    fn full_write_buffer_back_pressure_reaches_commit() {
        // A pure store stream to distinct lines outruns the write buffer
        // drain; the commit stage must record store stalls.
        let ops: Vec<MicroOp> = (0..64)
            .map(|i| MicroOp::store(i * 8, Addr::new(0x100_000 + i * 4096), 1))
            .collect();
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny()); // 4-entry WB
        cpu.run(&mut mem, 30_000);
        assert!(
            cpu.stats().store_stall_cycles > 0,
            "store stream must hit write-buffer back-pressure"
        );
    }

    #[test]
    fn fetch_stalls_are_accounted() {
        // A stream with hard-to-predict branches spends cycles redirecting.
        let ops = vec![
            MicroOp::branch(0, true, 0x40),
            MicroOp::branch(0x40, false, 0),
            MicroOp::alu(0x48, NO_REG, NO_REG, 1),
        ];
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu.run(&mut mem, 10_000);
        assert!(cpu.stats().fetch_stall_cycles > 0);
    }
}
