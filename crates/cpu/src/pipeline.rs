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
//! LSQ, the wakeup lists, the ready/issuable sets and the branch records
//! are slot masks and per-slot arrays over the same ring, so no stage
//! translates between queue positions and slots. An RUU slot holds only
//! what issue, wakeup and commit read of every op, in half a 64-byte
//! cache line: a branch's outcome and prediction live in a side array,
//! and an entry's sequence number is implied by its slot's age relative
//! to the head. The instruction fetch queue is a fixed ring too.
//!
//! The pipeline is advanced one cycle at a time by [`Pipeline::step`]; the
//! caller owns the [`MemoryHierarchy`] so the experiment runner can
//! interleave the cleaning logic and protection scheme between cycles.

use aep_mem::{Addr, Cycle, MemoryHierarchy};

use crate::bpred::{BranchPredictor, Prediction};
use crate::config::CoreConfig;
use crate::fu::FuPool;
use crate::isa::{InstrStream, MicroOp, OpClass, NUM_REGS};
use crate::tlb::Tlb;

/// Instruction-fetch-queue capacity (decoupling buffer between the fetch
/// and dispatch stages).
const IFQ_ENTRIES: usize = 16;

/// Cycles for a load served by store-to-load forwarding.
const FORWARD_LATENCY: u64 = 2;

/// Slots in the RUU ring (the configured RUU is capped at this size).
const RING: usize = 64;

/// One instruction-fetch-queue entry (a branch's prediction rides in
/// [`Pipeline::ifq_predictions`]).
#[derive(Debug, Clone, Copy)]
struct FetchedOp {
    op: MicroOp,
    mispredicted: bool,
}

impl FetchedOp {
    /// Placeholder contents of an IFQ slot no live entry occupies.
    const VACANT: FetchedOp = FetchedOp {
        op: MicroOp::alu(0, None, None, None),
        mispredicted: false,
    };
}

/// One RUU slot.
#[derive(Debug, Clone, Copy)]
struct RuuEntry {
    complete_at: Cycle,
    /// Earliest cycle the sources can all be ready: the max `complete_at`
    /// over resolved producers. Valid once `wait_count` reaches 0.
    ready_at: Cycle,
    /// The effective address of a load or store (unused otherwise).
    addr: Addr,
    class: OpClass,
    /// The destination register ([`NO_REG`] when none).
    dst: u8,
    issued: bool,
    mispredicted: bool,
    /// In-flight producers this entry still waits on (wakeup scheduling).
    wait_count: u8,
}

// Two slots per 64-byte cache line.
const _: () = assert!(std::mem::size_of::<RuuEntry>() <= 32);

impl RuuEntry {
    /// Placeholder contents of a ring slot no live entry occupies.
    const VACANT: RuuEntry = RuuEntry {
        complete_at: 0,
        ready_at: 0,
        addr: Addr(0),
        class: OpClass::IntAlu,
        dst: NO_REG,
        issued: false,
        mispredicted: false,
        wait_count: 0,
    };
}

/// What commit needs of a branch to train the predictor: its site,
/// actual outcome and fetch-time prediction.
#[derive(Debug, Clone, Copy)]
struct BranchRecord {
    pc: u64,
    target: u64,
    taken: bool,
    prediction: Prediction,
}

/// Placeholder contents of a prediction slot no live branch occupies.
const NO_PREDICTION: Prediction = Prediction {
    taken: false,
    target: None,
};

impl BranchRecord {
    /// Placeholder contents of a ring slot no live branch occupies.
    const VACANT: BranchRecord = BranchRecord {
        pc: 0,
        target: 0,
        taken: false,
        prediction: NO_PREDICTION,
    };
}

/// Sentinel of [`RuuEntry::dst`]: the op writes no register.
const NO_REG: u8 = u8::MAX;

/// Sentinel for empty wakeup-list links.
const WAITER_NONE: u32 = u32::MAX;

/// Sentinel of [`Pipeline::reg_producer`]: no in-flight producer (the
/// value is in the register file). Sequence numbers never reach it.
const NO_PRODUCER: u64 = u64::MAX;

/// Sentinel of [`Pipeline::current_fetch_block`]: no block is open.
/// Block numbers are addresses shifted right by the line size, so they
/// never reach it.
const NO_BLOCK: u64 = u64::MAX;

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
/// use aep_cpu::isa::{LoopStream, MicroOp};
/// use aep_cpu::{CoreConfig, Pipeline};
/// use aep_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let stream = LoopStream::new(vec![MicroOp::alu(0, None, None, Some(1))]);
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
    /// The instruction fetch queue as a ring: the live entries are the
    /// `ifq_len` slots from `ifq_head` on (wrapping).
    ifq: [FetchedOp; IFQ_ENTRIES],
    /// The fetch-time prediction of the branch in each IFQ slot.
    ifq_predictions: [Prediction; IFQ_ENTRIES],
    ifq_head: usize,
    ifq_len: usize,
    staged: Option<MicroOp>,
    /// The RUU as a ring indexed by [`slot_of`]; the live entries are
    /// `head_seq..next_seq`.
    ruu: [RuuEntry; RING],
    /// The branch in each slot, read back at commit to train the
    /// predictor.
    branches: [BranchRecord; RING],
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
    // own: an occupancy count for the dispatch limit, plus the slots and
    // word addresses of the in-flight stores for forwarding.
    /// Uncommitted loads and stores.
    lsq_len: usize,
    /// Bitmask (by slot) of uncommitted stores.
    store_mask: u64,
    /// Word-aligned address (byte address / 8) of the store in each slot.
    store_word: [u64; RING],
    /// The in-flight op that last named each register as its destination
    /// ([`NO_PRODUCER`] once it has committed).
    reg_producer: [u64; NUM_REGS],
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
    /// Next link per waiter node (`consumer_slot * 2 + src_index`).
    waiter_next: [u32; 2 * RING],
    /// Bitmask (by slot) of resolved, not-yet-issuable entries.
    scheduled: u64,
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
            ifq: [FetchedOp::VACANT; IFQ_ENTRIES],
            ifq_predictions: [NO_PREDICTION; IFQ_ENTRIES],
            ifq_head: 0,
            ifq_len: 0,
            staged: None,
            ruu: [RuuEntry::VACANT; RING],
            branches: [BranchRecord::VACANT; RING],
            #[cfg(debug_assertions)]
            src_seqs: [[NO_PRODUCER; 2]; RING],
            head_seq: 0,
            next_seq: 0,
            lsq_len: 0,
            store_mask: 0,
            store_word: [0; RING],
            reg_producer: [NO_PRODUCER; NUM_REGS],
            fetch_halted: false,
            fetch_blocked_until: 0,
            current_fetch_block: NO_BLOCK,
            stats: PipelineStats::default(),
            waiter_head: [WAITER_NONE; RING],
            waiter_next: [WAITER_NONE; 2 * RING],
            scheduled: 0,
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
            if self.ruu_len() < self.cfg.ruu_entries && !self.lsq_blocks(front.op.class) {
                return now + 1;
            }
        }
        // Fetch: resumes when unblocked (a halt only ends via issue).
        if !self.fetch_halted && self.ifq_len < IFQ_ENTRIES {
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

    /// The oldest fetched op not yet dispatched.
    fn ifq_front(&self) -> Option<&FetchedOp> {
        (self.ifq_len > 0).then(|| &self.ifq[self.ifq_head])
    }

    /// Appends a fetched op to the IFQ (the caller checks for room) and
    /// returns its slot.
    fn ifq_push(&mut self, op: MicroOp, mispredicted: bool) -> usize {
        debug_assert!(self.ifq_len < IFQ_ENTRIES, "IFQ overflow");
        let slot = (self.ifq_head + self.ifq_len) & (IFQ_ENTRIES - 1);
        self.ifq[slot] = FetchedOp { op, mispredicted };
        self.ifq_len += 1;
        slot
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
            if dst != NO_REG && self.reg_producer[dst as usize] == seq {
                self.reg_producer[dst as usize] = NO_PRODUCER;
            }
            match class {
                OpClass::Store => {
                    let done = hier.store(self.ruu[slot].addr, now);
                    if done > now + 1 {
                        // The write buffer was full: the store holds the
                        // commit port while the oldest entry retires.
                        self.stats.store_stall_cycles += done - (now + 1);
                        break;
                    }
                }
                OpClass::Branch => {
                    let b = self.branches[slot];
                    self.bpred.update(b.pc, b.taken, b.target, b.prediction);
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
        let mut issued = 0;
        let mut resume: Option<Cycle> = None;
        while pending != 0 && issued < self.cfg.issue_width {
            let age = pending.trailing_zeros();
            let slot = (age + head_slot) as usize & (RING - 1);
            pending &= pending - 1;
            let e = &self.ruu[slot];
            let (class, addr, mispredicted) = (e.class, e.addr, e.mispredicted);
            debug_assert!(!e.issued, "issuable entries are unissued");
            #[cfg(debug_assertions)]
            {
                let [a, b] = self.src_seqs[slot];
                assert!(
                    self.src_ready(a, now) && self.src_ready(b, now),
                    "wakeup scheduling must match the scan's readiness"
                );
            }
            if !self.fu.try_acquire(class, now) {
                continue; // retried next cycle: the slot bit stays set
            }
            let complete_at = match class {
                OpClass::Load => {
                    if self.store_forwarding_hit(self.head_seq + u64::from(age), addr) {
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
                    let walk = self.dtlb.translate(addr);
                    now + 1 + walk
                }
                other => now + FuPool::timing(other).latency,
            };
            self.ruu[slot].issued = true;
            self.ruu[slot].complete_at = complete_at;
            self.issuable &= !(1 << slot);
            self.wake_waiters(slot, complete_at);
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
        let mut pending = self.scheduled;
        while pending != 0 {
            let slot = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let ready_at = self.ruu[slot].ready_at;
            if ready_at <= now {
                self.scheduled &= !(1 << slot);
                self.issuable |= 1 << slot;
            } else {
                earliest = earliest.min(ready_at);
            }
        }
        self.earliest_ready = earliest;
    }

    /// Schedules the entry in `slot`, whose sources are all resolved, to
    /// become issuable at its `ready_at`.
    fn schedule(&mut self, slot: usize, ready_at: Cycle) {
        self.scheduled |= 1 << slot;
        self.earliest_ready = self.earliest_ready.min(ready_at);
    }

    /// Notifies every consumer waiting on the producer in `slot` that its
    /// result lands at `complete_at`; consumers whose last dependency this
    /// was are scheduled.
    fn wake_waiters(&mut self, slot: usize, complete_at: Cycle) {
        let mut node = self.waiter_head[slot];
        self.waiter_head[slot] = WAITER_NONE;
        while node != WAITER_NONE {
            let consumer_slot = (node >> 1) as usize;
            let next = self.waiter_next[node as usize];
            self.waiter_next[node as usize] = WAITER_NONE;
            debug_assert!(self.slot_is_live(consumer_slot), "waiter slot in sync");
            let e = &mut self.ruu[consumer_slot];
            e.wait_count -= 1;
            e.ready_at = e.ready_at.max(complete_at);
            if e.wait_count == 0 {
                let ready_at = e.ready_at;
                self.schedule(consumer_slot, ready_at);
            }
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
            let slot = (older.trailing_zeros() + head_slot) as usize & (RING - 1);
            older &= older - 1;
            if self.store_word[slot] == word {
                return true;
            }
        }
        false
    }

    // ----- dispatch -----------------------------------------------------

    fn dispatch_stage(&mut self, _now: Cycle) {
        let mut dispatched = 0;
        while dispatched < self.cfg.decode_width
            && self.ifq_len > 0
            && self.ruu_len() < self.cfg.ruu_entries
        {
            let ifq_slot = self.ifq_head;
            let fetched = self.ifq[ifq_slot];
            let op = fetched.op;
            if self.lsq_blocks(op.class) {
                break;
            }
            self.ifq_head = (ifq_slot + 1) & (IFQ_ENTRIES - 1);
            self.ifq_len -= 1;
            let seq = self.next_seq;
            let slot = slot_of(seq);

            let producer = |r: Option<u8>| r.map_or(NO_PRODUCER, |r| self.reg_producer[r as usize]);
            let src_seqs = [producer(op.src1), producer(op.src2)];
            if let Some(dst) = op.dst {
                self.reg_producer[dst as usize] = seq;
            }
            let is_mem = op.class.is_mem();
            assert!(op.addr.is_some() || !is_mem, "memory ops carry addresses");
            let addr = op.addr.unwrap_or(Addr(0));
            self.lsq_len += usize::from(is_mem);
            if op.class == OpClass::Store {
                self.store_mask |= 1 << slot;
                self.store_word[slot] = addr.0 / 8;
            } else if op.class == OpClass::Branch {
                self.branches[slot] = BranchRecord {
                    pc: op.pc,
                    target: op.target,
                    taken: op.taken,
                    prediction: self.ifq_predictions[ifq_slot],
                };
            }
            // Wakeup bookkeeping: producers still in flight get a waiter
            // link; resolved dependencies contribute their completion time.
            // A recorded producer is always in flight: commit clears it.
            let mut wait_count: u8 = 0;
            let mut ready_at: Cycle = 0;
            for (i, src_seq) in src_seqs.into_iter().enumerate() {
                if src_seq == NO_PRODUCER {
                    continue;
                }
                debug_assert!(self.live_entry(src_seq).is_some(), "producers are live");
                let producer_slot = slot_of(src_seq);
                let producer = &self.ruu[producer_slot];
                if producer.issued {
                    ready_at = ready_at.max(producer.complete_at);
                } else {
                    let node = (slot * 2 + i) as u32;
                    self.waiter_next[node as usize] = self.waiter_head[producer_slot];
                    self.waiter_head[producer_slot] = node;
                    wait_count += 1;
                }
            }
            self.ruu[slot] = RuuEntry {
                complete_at: 0,
                ready_at,
                addr,
                class: op.class,
                dst: op.dst.unwrap_or(NO_REG),
                issued: false,
                mispredicted: fetched.mispredicted,
                wait_count,
            };
            #[cfg(debug_assertions)]
            {
                self.src_seqs[slot] = src_seqs;
            }
            self.next_seq += 1;
            if wait_count == 0 {
                self.schedule(slot, ready_at);
            }
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
        while fetched < self.cfg.fetch_width && self.ifq_len < IFQ_ENTRIES {
            let op = match self.staged.take() {
                Some(op) => op,
                None => self.stream.next_op(),
            };
            let block = op.pc >> block_shift;
            if self.current_fetch_block != block {
                let walk = self.itlb.translate(Addr::new(op.pc));
                let done = hier.fetch(Addr::new(op.pc), now) + walk;
                self.current_fetch_block = block;
                if done > now + 1 {
                    // I-cache miss: hold the op and resume when it lands.
                    self.staged = Some(op);
                    self.fetch_blocked_until = done;
                    return;
                }
            }
            let mut halt = false;
            let mut taken_break = false;
            if op.class == OpClass::Branch {
                let pred = self.bpred.predict(op.pc);
                let mispredict =
                    pred.taken != op.taken || (op.taken && pred.target != Some(op.target));
                let ifq_slot = self.ifq_push(op, mispredict);
                self.ifq_predictions[ifq_slot] = pred;
                if mispredict {
                    halt = true;
                } else if op.taken {
                    taken_break = true;
                }
            } else {
                self.ifq_push(op, false);
            }
            self.stats.fetched += 1;
            fetched += 1;
            if halt {
                // Wrong-path fetch: stop until the branch resolves.
                self.fetch_halted = true;
                self.current_fetch_block = NO_BLOCK;
                return;
            }
            if taken_break {
                // Correctly predicted taken branch: the fetch stream
                // redirects to the target block next cycle.
                self.current_fetch_block = NO_BLOCK;
                break;
            }
        }
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
            .map(|i| MicroOp::alu(i * 8, None, None, Some((i % 32) as u8)))
            .collect();
        let (stats, _) = run_ops(ops, 10_000);
        let ipc = stats.ipc(10_000);
        assert!(ipc > 2.5, "expected high ILP, got IPC {ipc}");
    }

    #[test]
    fn dependent_chain_limits_ipc_to_one() {
        // r1 <- r1 + r1 forever: a serial chain, IPC <= 1.
        let ops = vec![MicroOp::alu(0, Some(1), Some(1), Some(1))];
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
                ..MicroOp::alu(i * 8, None, None, Some((i + 1) as u8))
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
            MicroOp::store(0, Addr::new(0x1000), Some(1)),
            MicroOp::load(8, Addr::new(0x2000), Some(2)),
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
            MicroOp::store(0, Addr::new(0x3000), Some(1)),
            MicroOp::load(8, Addr::new(0x3000), Some(2)),
        ];
        let (stats, _) = run_ops(ops, 5_000);
        assert!(stats.forwarded_loads > 0, "same-word load must forward");
    }

    /// A pipeline whose next dispatched op gets `first_seq`, with `ops`
    /// waiting in the fetch queue (the stream behind them is plain ALU
    /// filler).
    fn pipeline_at(first_seq: u64, ops: &[MicroOp]) -> Pipeline<LoopStream> {
        let filler = LoopStream::new(vec![MicroOp::alu(0x100, None, None, Some(9))]);
        let mut cpu = Pipeline::new(CoreConfig::date2006(), filler);
        cpu.head_seq = first_seq;
        cpu.next_seq = first_seq;
        for &op in ops {
            cpu.ifq_push(op, false);
        }
        cpu
    }

    #[test]
    fn forwarding_crosses_the_slot_ring_wrap() {
        // The store lands in slot 63 and the load in slot 0.
        let x = Addr::new(0x3000);
        let ops = [
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::store(8, x, Some(1)),
            MicroOp::load(16, x, Some(2)),
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
            MicroOp::load(0, z, Some(2)),
            MicroOp::store(8, z, Some(1)),
            MicroOp::load(16, z, Some(3)),
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
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(8, true, 0),
        ];
        let (good, _) = run_ops(well_predicted, 20_000);

        // Unpredictable direction: LoopStream cannot vary `taken`, so use
        // two branches at the same PC with opposite outcomes — the PHT
        // counter oscillates and mispredicts a large fraction.
        let poorly_predicted = vec![
            MicroOp::alu(0, None, None, Some(1)),
            MicroOp::branch(8, true, 0),
            MicroOp::alu(0, None, None, Some(1)),
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
        let ops = vec![MicroOp::load(0, Addr::new(0x8000), Some(1))];
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
            MicroOp::alu(0, Some(1), None, Some(2)),
            MicroOp::load(8, Addr::new(0x2000), Some(3)),
            MicroOp::store(16, Addr::new(0x3000), Some(3)),
            MicroOp::branch(24, true, 0),
        ];
        let source = LoopStream::new(ops);
        let rec = RecordingStream::new(source, Vec::new()).unwrap();
        let mut cpu_a = Pipeline::new(CoreConfig::date2006(), rec);
        let mut mem_a = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu_a.run(&mut mem_a, 20_000);
        let committed_a = cpu_a.stats().committed;
        // Pull the recorded bytes back out of the pipeline's stream.
        let (_, buf) = {
            let Pipeline { stream, .. } = cpu_a;
            stream.finish().unwrap()
        };
        let ops_recorded = TraceReader::new(buf.as_slice())
            .unwrap()
            .read_all()
            .unwrap();
        assert!(ops_recorded.len() as u64 >= committed_a);

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
            .map(|i| MicroOp::load(i * 8, Addr::new(i * 8 * 4096), Some((i % 30 + 1) as u8)))
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
            .map(|i| MicroOp::store(i * 8, Addr::new(0x100_000 + i * 4096), Some(1)))
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
            MicroOp::alu(0x48, None, None, Some(1)),
        ];
        let mut cpu = Pipeline::new(CoreConfig::date2006(), LoopStream::new(ops));
        let mut mem = MemoryHierarchy::new(HierarchyConfig::tiny());
        cpu.run(&mut mem, 10_000);
        assert!(cpu.stats().fetch_stall_cycles > 0);
    }
}
