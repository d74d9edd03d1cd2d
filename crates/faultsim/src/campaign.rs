//! Monte Carlo fault-injection campaigns over the live timing simulator.
//!
//! A campaign runs `trials` independent strike experiments against one
//! (benchmark, scheme, strike-model) triple. Strikes arrive at seeded
//! pseudo-Poisson times *during* simulation: the machine runs an
//! exponential gap, one L2 frame is chosen uniformly over the whole array
//! (invalid frames count as immediately masked strikes — the same
//! normalisation the analytical [`aep_core::SoftErrorModel`] uses), the
//! configured [`StrikeModel`] draws a physical flip footprint mapped
//! through the array's [`ArrayLayout`], and the system keeps executing
//! until the upset is consumed by the scheme's detect/correct path or the
//! per-trial horizon expires.
//!
//! # The trial loop is event-driven
//!
//! Both the inter-strike gap and the resolution window run through the
//! system's fast-forward loop, which steps only cycles at which some
//! component can act. Strikes resolve in the pre-scheme hook of an
//! observer that only acts on L2 events, and skipped cycles emit no L2
//! events, so a strike resolves at exactly the cycle — and in exactly
//! the machine state — a cycle-by-cycle walk would reach. A test keeps
//! that walk as an oracle and checks every strike model against it.
//!
//! # Chunks share one trajectory
//!
//! Trials are grouped into fixed-size chunks, and each chunk's trials run
//! in sequence as if on a machine of its own: the chunk's next strike
//! lands a gap after its previous one resolved. The simulator's timing
//! never reads line data, so a chunk's machine differs from the
//! strike-free machine only in the struck words no access has overwritten
//! since the strike, and only until that strike resolves. The shared
//! driver therefore warms one machine per group of chunks and runs every
//! chunk as a *lane* over it: each lane keeps its own RNG streams,
//! outcome table and at most one virtual pending strike, and nothing is
//! flipped in the shared machine. At the first L2 event that touches a
//! pending strike's frame, the lane rebuilds its corruption (the struck
//! words that still hold their pre-strike value, and the line's memory
//! image when the event is its write-back), runs the monitor's
//! classification against a scratch copy of the scheme, and restores the
//! shared state; a strike still pending at its horizon is finalised the
//! same way at its deadline. Pending strikes are linked per frame and lane
//! timers (next strike, horizon deadline) sit in a min-tree, so neither
//! an L2 event nor a pause scans every lane.
//!
//! Trials do not allocate: once a group is set up, and each lane's
//! strike storage has grown to its largest pattern, no trial step
//! allocates. A group keeps one scratch scheme and
//! refreshes it with [`ProtectionScheme::clone_into_box`] before every
//! resolution that reads the scheme, which copies the shared scheme's
//! state into the scratch's existing buffers; line images live in stack
//! buffers, and each lane reuses one strike's snapshot and pattern
//! storage. The scratch is only ever read after a refresh, so what one
//! resolution leaves in it (counters, repaired check bits) never reaches
//! the next.
//!
//! A shared group costs one full machine: its own warm-up and a
//! trajectory as long as its slowest lane's, simulated again in every
//! group. A second group of a shared campaign therefore buys only a share
//! of the per-trial work, at the price of a whole trajectory, while a
//! group of the per-chunk path below repeats only the warm-up (each of its
//! chunks forks the warmed machine and runs alone). [`run_campaigns`]
//! spreads a line-up's (campaign, group) pairs over one set of workers by
//! that rule: up to `jobs` groups for a per-chunk campaign, and for a
//! shared one at most its share of the workers, so a shared campaign in a
//! line-up longer than `jobs` runs as one group. Sharing one warm-up
//! across groups would need a `Send` system, and the observers hold
//! `Rc`s.
//!
//! The one exception is silent-store elision (the silent-write-aware
//! scheme): a store's payload is compared against the resident words, so
//! a strike can change which stores are elided and with them the
//! machine's trajectory. A hierarchy that elides silent stores therefore
//! runs each chunk on a [`System::fork`] of the warmed machine, with real
//! bits flipped and a [`StrikeProbe`] attached. That per-chunk path is
//! also the shared driver's test oracle.
//!
//! # Determinism
//!
//! Each chunk derives its injection RNG from `mix64(seed, chunk)`, and
//! every trial step — the gap draw, the frame pick and snapshot, the
//! pattern draw, and the horizon verdict — is one shared definition both
//! drivers call, so a chunk's table depends only on the config and its
//! index. Chunks are split into contiguous groups, one warmed machine per
//! group, and the groups' tables are concatenated in chunk order before
//! the in-order merge, which makes `--jobs N` byte-identical to
//! `--jobs 1`.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;
use std::time::Instant;

use aep_core::{ProtectionScheme, RecoveryOutcome, SchemeKind};
use aep_cpu::CoreConfig;
use aep_ecc::inject::FaultInjector;
use aep_mem::addr::LineAddr;
use aep_mem::cache::Cache;
use aep_mem::memory::mix64;
use aep_mem::{ArrayLayout, Cycle, HierarchyConfig, L2Event, MainMemory};
use aep_rng::SmallRng;
use aep_sim::{System, SystemObserver};
use aep_workloads::{Workload, WorkloadStream};

use crate::models::StrikeModel;
use crate::monitor::{
    hits, resolve_event, touched_frame, PendingStrike, StrikeCell, StrikeProbe, StrikeState,
    MAX_LINE_WORDS,
};
use crate::outcome::{OutcomeTable, TrialOutcome};
use crate::pool::fan_out;

/// Everything that determines a campaign's result. Two equal configs
/// produce bit-identical [`OutcomeTable`]s regardless of `jobs`.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Workload executing while faults arrive.
    pub benchmark: Workload,
    /// Protection scheme under test.
    pub scheme: SchemeKind,
    /// Master seed: drives the workload, strike times, targets, and bits.
    pub seed: u64,
    /// Number of strike trials.
    pub trials: u32,
    /// Probability that a strike flips two bits in the same word — only
    /// consulted by [`StrikeModel::Single`], which reproduces the legacy
    /// injector draw-for-draw.
    pub p_double: f64,
    /// Shape of each particle strike.
    pub model: StrikeModel,
    /// Physical bit-interleaving degree of the L2 data array: adjacent
    /// columns belong to `interleave` different logical words. Must
    /// divide the words-per-line. Degree 1 is a non-interleaved array.
    pub interleave: usize,
    /// Cycles the machine runs before the first strike.
    pub warmup_cycles: u64,
    /// Per-trial resolution budget: cycles to wait for the struck line to
    /// be accessed, cleaned, or evicted before force-resolving.
    pub horizon_cycles: u64,
    /// Mean of the exponential inter-strike gap, in cycles.
    pub mean_gap_cycles: f64,
    /// Trials per chunk: the unit of determinism. A chunk's trials run
    /// in sequence from one RNG stream, and its table never depends on
    /// which other chunks share its machine.
    pub trials_per_chunk: u32,
    /// Core configuration.
    pub core: CoreConfig,
    /// Memory-system configuration (`l2.store_data` must be `true`).
    pub hierarchy: HierarchyConfig,
}

impl CampaignConfig {
    /// The standard campaign geometry: the paper's Table 1 machine, a
    /// short warm-up, and a horizon long enough for the working set to
    /// turn over.
    #[must_use]
    pub fn new(benchmark: impl Into<Workload>, scheme: SchemeKind) -> Self {
        CampaignConfig {
            benchmark: benchmark.into(),
            scheme,
            seed: 2006,
            trials: 1000,
            p_double: 0.0,
            model: StrikeModel::Single,
            interleave: 1,
            warmup_cycles: 30_000,
            horizon_cycles: 50_000,
            mean_gap_cycles: 2_000.0,
            trials_per_chunk: 25,
            core: CoreConfig::date2006(),
            hierarchy: HierarchyConfig::date2006(),
        }
    }

    /// A miniature geometry for unit tests: tiny caches (so strikes land
    /// on valid lines quickly) and short windows.
    #[must_use]
    pub fn fast_test(benchmark: impl Into<Workload>, scheme: SchemeKind) -> Self {
        CampaignConfig {
            warmup_cycles: 10_000,
            horizon_cycles: 8_000,
            mean_gap_cycles: 200.0,
            trials_per_chunk: 10,
            trials: 40,
            hierarchy: HierarchyConfig::tiny(),
            ..CampaignConfig::new(benchmark, scheme)
        }
    }

    /// The physical layout of the L2 data array under this config.
    #[must_use]
    pub fn layout(&self) -> ArrayLayout {
        ArrayLayout::new(self.hierarchy.l2.words_per_line(), self.interleave)
    }

    /// Number of chunks the trials split into.
    #[must_use]
    pub fn chunks(&self) -> usize {
        (self.trials as usize).div_ceil(self.trials_per_chunk.max(1) as usize)
    }

    /// Trials in `chunk`: a full chunk, or the remainder in the last one.
    fn chunk_trials(&self, chunk: usize) -> u64 {
        let done = chunk as u64 * u64::from(self.trials_per_chunk);
        u64::from(self.trials_per_chunk).min(u64::from(self.trials) - done)
    }
}

/// A finished campaign: the merged table, the per-chunk tables it was
/// merged from (in chunk order — the determinism witness), and the
/// wall-clock the run took. Only `wall_seconds` is host-dependent; every
/// table is a pure function of the config.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// All chunks merged in index order.
    pub total: OutcomeTable,
    /// Per-chunk outcome tables, index order.
    pub chunks: Vec<OutcomeTable>,
    /// Wall-clock duration of the fan-out, in seconds.
    pub wall_seconds: f64,
}

impl CampaignReport {
    /// Campaign throughput in trials per wall-clock second.
    #[must_use]
    pub fn trials_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.total.trials() as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Publishes the campaign's deterministic outcome statistics into the
    /// registry's current scope (callers nest this under
    /// `faults.model.<slug>.<scheme>`): the merged taxonomy, the chunk
    /// count, and a per-chunk loss (DUE + SDC) histogram. Wall-clock
    /// throughput is *not* published here — see
    /// [`CampaignReport::register_throughput`] — so snapshots of this
    /// scope stay byte-reproducible.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        self.total.register_stats(reg);
        reg.counter("chunks", self.chunks.len() as u64);
        let mut losses = aep_obs::Histogram::new();
        for c in &self.chunks {
            losses.record(c.due + c.sdc);
        }
        reg.histogram("chunk_losses", &losses);
    }

    /// Publishes the host-dependent throughput figures under a `wall`
    /// sub-scope — a separate call from [`CampaignReport::register_stats`]
    /// so determinism gates can snapshot the outcome scope without
    /// tripping over wall-clock noise.
    pub fn register_throughput(&self, reg: &mut aep_obs::Registry) {
        reg.scoped("wall", |r| {
            r.rate("seconds", self.wall_seconds);
            r.rate("trials_per_sec", self.trials_per_sec());
        });
    }
}

/// Runs the whole campaign, fanning chunks over up to `jobs` threads.
/// The result is identical for every `jobs` value.
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig, jobs: usize) -> OutcomeTable {
    run_campaign_report(cfg, jobs).total
}

/// Runs the campaign and keeps the per-chunk tables and wall-clock.
#[must_use]
pub fn run_campaign_report(cfg: &CampaignConfig, jobs: usize) -> CampaignReport {
    run_campaigns(std::slice::from_ref(cfg), jobs)
        .pop()
        .expect("one report per campaign")
}

/// Runs a line-up of campaigns over up to `jobs` threads and returns
/// their reports in line-up order, each identical to the campaign's
/// [`run_campaign_report`] at any `jobs`.
///
/// Every (campaign, group of chunks) pair is one work item, so the
/// line-up shares the workers. A per-chunk campaign is split into up to
/// `jobs` groups; a shared-trajectory campaign, each of whose groups
/// simulates the whole trajectory again, into at most `jobs` over the
/// line-up's length (see the module docs). A lone campaign of either kind
/// thus takes up to `jobs` groups. A report's wall-clock spans its first
/// group's start to its last group's end.
#[must_use]
pub fn run_campaigns(cfgs: &[CampaignConfig], jobs: usize) -> Vec<CampaignReport> {
    let jobs = jobs.max(1);
    let groups: Vec<usize> = cfgs
        .iter()
        .map(|cfg| {
            assert!(
                cfg.hierarchy.l2.store_data,
                "fault injection needs a data-holding L2 (store_data = true)"
            );
            let _ = cfg.layout(); // validate interleave against the geometry up front
            let share = if cfg.scheme.elides_silent_stores() {
                jobs
            } else {
                jobs / cfgs.len()
            };
            share.max(1).min(cfg.chunks())
        })
        .collect();
    let items: Vec<(&CampaignConfig, Range<usize>)> = cfgs
        .iter()
        .zip(&groups)
        .flat_map(|(cfg, &n)| {
            let count = cfg.chunks();
            (0..n).map(move |g| (cfg, g * count / n..(g + 1) * count / n))
        })
        .collect();
    let mut runs = fan_out(items.len(), jobs, |i| {
        let (cfg, chunks) = items[i].clone();
        let start = Instant::now();
        let tables = run_group(cfg, chunks);
        (start, Instant::now(), tables)
    })
    .into_iter();
    // Items run in campaign order and each campaign's groups in chunk
    // order, so a campaign's chunks come out in index order.
    groups
        .iter()
        .map(|&n| {
            let runs: Vec<_> = runs.by_ref().take(n).collect();
            let start = runs.iter().map(|r| r.0).min();
            let end = runs.iter().map(|r| r.1).max();
            let chunks: Vec<OutcomeTable> = runs.into_iter().flat_map(|r| r.2).collect();
            let mut total = OutcomeTable::default();
            for t in &chunks {
                total.merge(t);
            }
            CampaignReport {
                total,
                chunks,
                wall_seconds: start.zip(end).map_or(0.0, |(s, e)| (e - s).as_secs_f64()),
            }
        })
        .collect()
}

/// Runs a contiguous range of chunks on one warmed machine and returns
/// their tables in chunk order.
fn run_group(cfg: &CampaignConfig, chunks: Range<usize>) -> Vec<OutcomeTable> {
    let warm = warmed_prototype(cfg);
    if shares_trajectory(&warm) {
        run_shared(cfg, warm, chunks)
    } else {
        chunks.map(|chunk| run_chunk(cfg, &warm, chunk)).collect()
    }
}

/// Whether strikes leave the machine's trajectory untouched, so that
/// chunks can run as lanes over one strike-free machine: true unless the
/// hierarchy elides silent stores, whose payload compare reads the
/// (possibly struck) resident words.
fn shares_trajectory(sys: &System<WorkloadStream>) -> bool {
    !sys.hier.elides_silent_stores()
}

/// Builds a group's machine and runs its warm-up once.
fn warmed_prototype(cfg: &CampaignConfig) -> System<WorkloadStream> {
    let mut sys = System::new(
        cfg.core.clone(),
        cfg.hierarchy.clone(),
        cfg.scheme,
        cfg.benchmark.stream(cfg.seed),
    );
    sys.run(0, cfg.warmup_cycles);
    sys
}

/// One chunk's private random streams. Every trial step that draws goes
/// through these methods, so both drivers consume a chunk's streams in
/// the same order: a gap, then a frame and (for a valid frame) a pattern.
struct ChunkDraws {
    rng: SmallRng,
    injector: FaultInjector,
}

impl ChunkDraws {
    /// Chunk-indexed streams: they depend only on (master seed, chunk).
    fn new(cfg: &CampaignConfig, chunk: usize) -> Self {
        let chunk_seed = mix64(cfg.seed ^ mix64(0xFA01_7B17 ^ chunk as u64));
        ChunkDraws {
            rng: SmallRng::seed_from_u64(chunk_seed),
            injector: FaultInjector::with_seed(mix64(chunk_seed)),
        }
    }

    /// Exponential inter-arrival gap (inverse-CDF on [0,1), min 1 cycle).
    fn gap(&mut self, cfg: &CampaignConfig) -> u64 {
        let u: f64 = self.rng.gen();
        ((-(1.0 - u).ln()) * cfg.mean_gap_cycles).ceil().max(1.0) as u64
    }

    /// Picks the struck frame uniformly over the whole array. An invalid
    /// frame is a benign strike (`None`; counting it keeps the empirical
    /// rates normalised over the whole array). A valid one fills `strike`
    /// — frame, line, drawn pattern and pre-strike snapshot, not yet
    /// applied — reusing its storage, and yields whether the line was
    /// dirty.
    fn strike(
        &mut self,
        cfg: &CampaignConfig,
        layout: &ArrayLayout,
        l2: &Cache,
        strike: &mut PendingStrike,
    ) -> Option<bool> {
        let set = self.rng.gen_range(0..l2.sets());
        let way = self.rng.gen_range(0..l2.ways());
        let view = l2.line_view(set, way);
        if !view.valid {
            return None;
        }
        strike.snapshot.clear();
        strike.snapshot.extend_from_slice(
            l2.line_data(set, way)
                .expect("store_data caches hold line data"),
        );
        cfg.model.draw_into(
            layout,
            &mut self.rng,
            &mut self.injector,
            cfg.p_double,
            cfg.mean_gap_cycles,
            &mut strike.pattern,
        );
        (strike.set, strike.way, strike.line) = (set, way, view.line);
        Some(view.dirty)
    }
}

/// Force-resolves a strike that nothing consumed within the horizon,
/// given the struck line's dirty bit and corrupted data (which the
/// scheme's outbound check may repair in place).
///
/// A clean struck line counts as masked: main memory still holds the
/// intact copy, so the latent flip can always be recovered by refetch and
/// never becomes loss on its own. A dirty struck line is resolved as if it
/// were written back now — the scheme's outbound check decides whether the
/// latent upset would have been corrected, declared DUE, or silently
/// escaped to memory — and, as everywhere else, a "corrected" image that
/// does not match the pre-strike snapshot is a miscorrection booked as SDC.
/// The scheme is only consulted for a dirty line.
fn horizon_outcome(
    strike: &PendingStrike,
    dirty: bool,
    corrupted: &mut [u64],
    scheme: &mut dyn ProtectionScheme,
) -> TrialOutcome {
    if !dirty {
        return TrialOutcome::Masked;
    }
    match scheme.verify_writeback(strike.set, strike.way, corrupted) {
        RecoveryOutcome::Clean => TrialOutcome::Sdc,
        RecoveryOutcome::CorrectedByEcc { .. } => {
            if *corrupted == *strike.snapshot {
                TrialOutcome::Corrected
            } else {
                TrialOutcome::Sdc
            }
        }
        RecoveryOutcome::RecoveredByRefetch => TrialOutcome::RefetchRecovered,
        RecoveryOutcome::Unrecoverable => TrialOutcome::Due,
    }
}

/// Runs one chunk of trials on a fork of the warmed machine, flipping
/// real bits (the per-chunk path).
fn run_chunk(cfg: &CampaignConfig, warm: &System<WorkloadStream>, chunk: usize) -> OutcomeTable {
    let mut sys = warm.fork();
    let cell: StrikeCell = Rc::new(RefCell::new(StrikeState::default()));
    sys.add_observer(Box::new(StrikeProbe::new(Rc::clone(&cell))));
    run_chunk_with(cfg, &mut sys, &cell, chunk, resolve_strike)
}

/// Runs the machine from `now` until the armed strike resolves or
/// `horizon` cycles pass, returning the next cycle and the outcome (if
/// the probe produced one). Exact despite fast-forwarding; see the
/// module docs.
fn resolve_strike(
    sys: &mut System<WorkloadStream>,
    cell: &StrikeCell,
    now: u64,
    horizon: u64,
) -> (u64, Option<TrialOutcome>) {
    let mut outcome = None;
    let next = sys.run_until(now, horizon, || {
        outcome = cell.borrow_mut().take_outcome();
        outcome.is_some()
    });
    (next, outcome)
}

/// [`run_chunk`]'s trials on `sys`, a fork of the warmed machine whose
/// strike probe reports through `cell`, with the strike-resolution loop
/// supplied by the caller (tests substitute a per-cycle oracle).
fn run_chunk_with(
    cfg: &CampaignConfig,
    sys: &mut System<WorkloadStream>,
    cell: &StrikeCell,
    chunk: usize,
    mut resolve: impl FnMut(
        &mut System<WorkloadStream>,
        &StrikeCell,
        u64,
        u64,
    ) -> (u64, Option<TrialOutcome>),
) -> OutcomeTable {
    let layout = cfg.layout();
    let mut draws = ChunkDraws::new(cfg, chunk);
    let mut now = cfg.warmup_cycles;

    let mut table = OutcomeTable::default();
    for _ in 0..cfg.chunk_trials(chunk) {
        now = sys.run(now, draws.gap(cfg));
        let mut strike = PendingStrike::default();
        let Some(dirty) = draws.strike(cfg, &layout, sys.hier.l2(), &mut strike) else {
            table.record(TrialOutcome::Masked, false, false);
            continue;
        };
        strike
            .pattern
            .strike_cache(sys.hier.l2_mut(), strike.set, strike.way);
        cell.borrow_mut().arm(strike);

        let (next, outcome) = resolve(sys, cell, now, cfg.horizon_cycles);
        now = next;
        let outcome = outcome.unwrap_or_else(|| finalize_at_horizon(sys, cell));
        table.record(outcome, true, dirty);
    }
    table
}

/// Applies [`horizon_outcome`] to the live struck line, then scrubs the
/// latent flips out of the array before the next trial.
fn finalize_at_horizon<S: aep_cpu::InstrStream>(
    sys: &mut System<S>,
    cell: &StrikeCell,
) -> TrialOutcome {
    let strike = cell
        .borrow_mut()
        .take_pending()
        .expect("horizon expiry implies an unresolved strike");
    let l2 = sys.hier.l2();
    let view = l2.line_view(strike.set, strike.way);
    debug_assert!(
        view.valid && view.line == strike.line,
        "a struck line can only leave its frame via a witnessed eviction"
    );
    let mut data = [0; MAX_LINE_WORDS];
    let data = &mut data[..strike.snapshot.len()];
    data.copy_from_slice(
        l2.line_data(strike.set, strike.way)
            .expect("struck lines hold data"),
    );
    let outcome = horizon_outcome(&strike, view.dirty, data, sys.scheme.as_mut());
    let l2 = sys.hier.l2_mut();
    for f in strike.pattern.flips() {
        l2.write_word(strike.set, strike.way, f.word, strike.snapshot[f.word]);
    }
    outcome
}

/// Flips the struck words of `words` — a copy of the struck line in the
/// strike-free machine — that still hold their pre-strike value, which
/// rebuilds the chunk's own corrupted image. A word a store overwrote
/// after the strike holds the store's value in both machines (with
/// silent-store elision off every store carries a fresh value, so no
/// store rewrites a word's pre-strike value).
fn restrike(strike: &PendingStrike, words: &mut [u64]) {
    for f in strike.pattern.flips() {
        if words[f.word] == strike.snapshot[f.word] {
            words[f.word] ^= f.mask;
        }
    }
}

/// Classifies `strike` at `event` as the chunk's own machine would:
/// rebuilds the chunk's corruption in the resident line (when the frame
/// still holds the struck line) and in the line's memory image (when the
/// event is its write-back), runs the monitor against `scratch` — which
/// the caller has just refreshed to a copy of the shared scheme — and
/// restores the shared line and memory image.
fn resolve_virtually(
    strike: &PendingStrike,
    event: &L2Event,
    l2: &mut Cache,
    scratch: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
) -> TrialOutcome {
    let (set, way) = (strike.set, strike.way);
    let words = strike.snapshot.len();
    let view = l2.line_view(set, way);
    let resident = view.valid && view.line == strike.line;
    let mut saved_line = [0; MAX_LINE_WORDS];
    let saved_line = &mut saved_line[..words];
    let mut corrupted = [0; MAX_LINE_WORDS];
    let corrupted = &mut corrupted[..words];
    if resident {
        saved_line.copy_from_slice(l2.line_data(set, way).expect("struck lines hold data"));
        corrupted.copy_from_slice(saved_line);
        restrike(strike, corrupted);
        write_line(l2, set, way, corrupted);
    }
    let writes_back = matches!(
        *event,
        L2Event::Evict { dirty: true, .. } | L2Event::Cleaned { .. }
    );
    let mut saved_image = [0; MAX_LINE_WORDS];
    let saved_image = &mut saved_image[..words];
    if writes_back {
        memory.read_line_into(strike.line, saved_image);
        corrupted.copy_from_slice(saved_image);
        restrike(strike, corrupted);
        memory.write_line(strike.line, corrupted);
    }
    let outcome = resolve_event(strike, event, l2, scratch, memory);
    if resident {
        write_line(l2, set, way, saved_line);
    }
    if writes_back {
        memory.write_line(strike.line, saved_image);
    }
    outcome
}

/// Overwrites every word of a resident line.
fn write_line(l2: &mut Cache, set: usize, way: usize, words: &[u64]) {
    for (i, &w) in words.iter().enumerate() {
        l2.write_word(set, way, i, w);
    }
}

/// Marks the end of a frame's pending-strike list.
const NO_LANE: usize = usize::MAX;

/// One chunk's trials as a lane over the group's shared machine.
struct Lane {
    draws: ChunkDraws,
    trials_left: u64,
    table: OutcomeTable,
    /// The lane's strike, its storage reused by every trial; armed while
    /// `pending` holds the struck line's dirty bit at strike time.
    strike: PendingStrike,
    pending: Option<bool>,
    /// The next lane with a strike pending on the same frame, or
    /// [`NO_LANE`].
    next_in_frame: usize,
}

/// The lanes' timers (next strike, or a pending strike's horizon
/// deadline; `Cycle::MAX` once done) as a min-tree: leaf `n + lane` holds
/// the lane's `(due, lane)` and every inner node the smaller of its two
/// children, so the root is the next timer and moving one costs `log n`.
struct Timers {
    tree: Vec<(Cycle, usize)>,
}

impl Timers {
    fn new(lanes: usize) -> Self {
        Timers {
            tree: vec![(Cycle::MAX, NO_LANE); 2 * lanes.max(1)],
        }
    }

    fn set(&mut self, lane: usize, due: Cycle) {
        let mut i = self.tree.len() / 2 + lane;
        self.tree[i] = (due, lane);
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }

    /// The earliest `(due, lane)` timer.
    fn first(&self) -> (Cycle, usize) {
        self.tree[1]
    }
}

/// A group's lanes and their indexes, shared between the driver loop
/// (strikes, deadlines, bookkeeping) and the [`LaneProbe`] (resolutions).
/// Everything a trial touches is allocated up front and reused: the
/// lanes' strike storage, the timers, the frame lists and the scratch
/// scheme.
struct LaneSet {
    lanes: Vec<Lane>,
    ways: usize,
    /// The first lane with a strike pending on each frame
    /// (`set * ways + way`), linked on through [`Lane::next_in_frame`].
    frame_head: Vec<usize>,
    timers: Timers,
    /// Strikes resolved during the current step: lane, outcome, dirty.
    resolved: Vec<(usize, TrialOutcome, bool)>,
    /// The scheme resolutions run against: refreshed from the shared
    /// scheme before each use, reusing its buffers.
    scratch: Box<dyn ProtectionScheme>,
}

impl LaneSet {
    fn new(
        cfg: &CampaignConfig,
        chunks: Range<usize>,
        l2: &Cache,
        scheme: &dyn ProtectionScheme,
    ) -> Self {
        let mut lanes = LaneSet {
            lanes: Vec::with_capacity(chunks.len()),
            ways: l2.ways(),
            frame_head: vec![NO_LANE; l2.sets() * l2.ways()],
            timers: Timers::new(chunks.len()),
            resolved: Vec::with_capacity(chunks.len()),
            scratch: scheme.clone_box(),
        };
        for chunk in chunks {
            lanes.lanes.push(Lane {
                draws: ChunkDraws::new(cfg, chunk),
                trials_left: cfg.chunk_trials(chunk),
                table: OutcomeTable::default(),
                strike: PendingStrike {
                    snapshot: Vec::with_capacity(cfg.hierarchy.l2.words_per_line()),
                    ..PendingStrike::default()
                },
                pending: None,
                next_in_frame: NO_LANE,
            });
            let lane = lanes.lanes.len() - 1;
            lanes.schedule_strike(cfg, lane, cfg.warmup_cycles);
        }
        lanes
    }

    /// Draws `lane`'s next gap from `now`, or retires the lane when its
    /// trials are done.
    fn schedule_strike(&mut self, cfg: &CampaignConfig, lane: usize, now: Cycle) {
        let l = &mut self.lanes[lane];
        let due = if l.trials_left == 0 {
            Cycle::MAX
        } else {
            now + l.draws.gap(cfg)
        };
        self.timers.set(lane, due);
    }

    /// Books one finished trial and schedules the lane's next strike.
    fn finish(
        &mut self,
        cfg: &CampaignConfig,
        lane: usize,
        outcome: TrialOutcome,
        valid: bool,
        dirty: bool,
        now: Cycle,
    ) {
        let l = &mut self.lanes[lane];
        l.table.record(outcome, valid, dirty);
        l.trials_left -= 1;
        self.schedule_strike(cfg, lane, now);
    }

    /// Handles everything due at `now`, with the machine stopped before
    /// cycle `now`: books the strikes resolved in the last step, lands
    /// the strikes due now, and finalises the strikes whose horizon
    /// expires now.
    fn pause(
        &mut self,
        cfg: &CampaignConfig,
        layout: &ArrayLayout,
        now: Cycle,
        l2: &Cache,
        scheme: &dyn ProtectionScheme,
    ) {
        for i in 0..self.resolved.len() {
            let (lane, outcome, dirty) = self.resolved[i];
            self.finish(cfg, lane, outcome, true, dirty, now);
        }
        self.resolved.clear();
        loop {
            let (due, lane) = self.timers.first();
            if due > now {
                break;
            }
            match self.lanes[lane].pending.take() {
                Some(dirty) => {
                    self.unindex(lane);
                    let strike = &self.lanes[lane].strike;
                    let view = l2.line_view(strike.set, strike.way);
                    debug_assert!(
                        view.valid && view.line == strike.line,
                        "a struck line can only leave its frame via a witnessed eviction"
                    );
                    let mut corrupted = [0; MAX_LINE_WORDS];
                    let corrupted = &mut corrupted[..strike.snapshot.len()];
                    corrupted.copy_from_slice(
                        l2.line_data(strike.set, strike.way)
                            .expect("struck lines hold data"),
                    );
                    restrike(strike, corrupted);
                    // Only a dirty line's outcome reads the scheme.
                    if view.dirty {
                        scheme.clone_into_box(&mut self.scratch);
                    }
                    let outcome =
                        horizon_outcome(strike, view.dirty, corrupted, self.scratch.as_mut());
                    self.finish(cfg, lane, outcome, true, dirty, now);
                }
                None => {
                    let l = &mut self.lanes[lane];
                    match l.draws.strike(cfg, layout, l2, &mut l.strike) {
                        None => self.finish(cfg, lane, TrialOutcome::Masked, false, false, now),
                        Some(dirty) => {
                            l.pending = Some(dirty);
                            let frame = l.strike.set * self.ways + l.strike.way;
                            l.next_in_frame = self.frame_head[frame];
                            self.frame_head[frame] = lane;
                            self.timers.set(lane, now + cfg.horizon_cycles);
                        }
                    }
                }
            }
        }
    }

    /// The next cycle some lane needs the machine stopped before, or
    /// `None` when every lane is done.
    fn next_due(&self) -> Option<Cycle> {
        let (due, _) = self.timers.first();
        (due != Cycle::MAX).then_some(due)
    }

    /// Unlinks `lane` from the pending list of its strike's frame.
    fn unindex(&mut self, lane: usize) {
        let strike = &self.lanes[lane].strike;
        let frame = strike.set * self.ways + strike.way;
        let next = self.lanes[lane].next_in_frame;
        if self.frame_head[frame] == lane {
            self.frame_head[frame] = next;
            return;
        }
        let mut prev = self.frame_head[frame];
        while self.lanes[prev].next_in_frame != lane {
            prev = self.lanes[prev].next_in_frame;
            assert_ne!(prev, NO_LANE, "pending strikes are indexed by frame");
        }
        self.lanes[prev].next_in_frame = next;
    }

    /// Resolves every pending strike that `event` on (`set`, `way`)
    /// holding `line` hits.
    fn resolve_frame(
        &mut self,
        event: &L2Event,
        (set, way, line): (usize, usize, LineAddr),
        l2: &mut Cache,
        scheme: &dyn ProtectionScheme,
        memory: &mut MainMemory,
    ) {
        let mut lane = self.frame_head[set * self.ways + way];
        while lane != NO_LANE {
            let next = self.lanes[lane].next_in_frame;
            if hits(&self.lanes[lane].strike, set, way, line) {
                self.unindex(lane);
                let dirty = self.lanes[lane]
                    .pending
                    .take()
                    .expect("indexed lanes hold a strike");
                scheme.clone_into_box(&mut self.scratch);
                let outcome = resolve_virtually(
                    &self.lanes[lane].strike,
                    event,
                    l2,
                    self.scratch.as_mut(),
                    memory,
                );
                self.resolved.push((lane, outcome, dirty));
            }
            lane = next;
        }
    }
}

/// The shared machine's observer: resolves lanes' pending strikes in the
/// pre-scheme hook, while the check storage still describes the
/// pre-event line image.
struct LaneProbe(Rc<RefCell<LaneSet>>);

impl SystemObserver for LaneProbe {
    fn pre_event(
        &mut self,
        event: &L2Event,
        l2: &mut Cache,
        scheme: &mut dyn ProtectionScheme,
        memory: &mut MainMemory,
        _now: Cycle,
    ) {
        if let Some(frame) = touched_frame(event) {
            self.0
                .borrow_mut()
                .resolve_frame(event, frame, l2, scheme, memory);
        }
    }
}

/// Runs `chunks` as lanes over the warmed machine `sys` (the shared
/// driver; see the module docs) and returns their tables in chunk order.
fn run_shared(
    cfg: &CampaignConfig,
    mut sys: System<WorkloadStream>,
    chunks: Range<usize>,
) -> Vec<OutcomeTable> {
    let layout = cfg.layout();
    let lanes = LaneSet::new(cfg, chunks, sys.hier.l2(), sys.scheme.as_ref());
    let lanes = Rc::new(RefCell::new(lanes));
    sys.add_observer(Box::new(LaneProbe(Rc::clone(&lanes))));
    let mut now = cfg.warmup_cycles;
    loop {
        let next = {
            let mut l = lanes.borrow_mut();
            l.pause(cfg, &layout, now, sys.hier.l2(), sys.scheme.as_ref());
            match l.next_due() {
                Some(next) => next,
                None => break,
            }
        };
        // Stop right after any resolution: its lane's next gap starts at
        // the following cycle, which may come before `next`.
        now = sys.run_until(now, next - now, || !lanes.borrow().resolved.is_empty());
    }
    let tables = lanes.borrow().lanes.iter().map(|l| l.table).collect();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::lineup::{challengers_faults_schemes, CHOSEN_INTERVAL};
    use aep_workloads::{diversity_workloads, Benchmark};

    fn cfg(scheme: SchemeKind) -> CampaignConfig {
        CampaignConfig::fast_test(Benchmark::Swim, scheme)
    }

    /// One of each strike model.
    fn all_models() -> [StrikeModel; 5] {
        [
            StrikeModel::Single,
            StrikeModel::Burst { width: 2 },
            StrikeModel::Col { span: 4 },
            StrikeModel::Row { span: 8 },
            StrikeModel::Accum {
                scrub_cycles: crate::models::DEFAULT_SCRUB_CYCLES,
            },
        ]
    }

    /// The strike-resolution loop before fast-forwarding: one `step` per
    /// cycle, polling the probe after each.
    fn resolve_per_cycle(
        sys: &mut System<WorkloadStream>,
        cell: &StrikeCell,
        mut now: u64,
        horizon: u64,
    ) -> (u64, Option<TrialOutcome>) {
        let deadline = now + horizon;
        while now < deadline {
            sys.step(now);
            now += 1;
            if let Some(o) = cell.borrow_mut().take_outcome() {
                return (now, Some(o));
            }
        }
        (now, None)
    }

    /// Every trial's `(start, next, outcome)` resolution record and the
    /// merged table, with strikes resolved by `resolve`.
    fn trace_campaign(
        c: &CampaignConfig,
        mut resolve: impl FnMut(
            &mut System<WorkloadStream>,
            &StrikeCell,
            u64,
            u64,
        ) -> (u64, Option<TrialOutcome>),
    ) -> (OutcomeTable, Vec<(u64, u64, Option<TrialOutcome>)>) {
        let warm = warmed_prototype(c);
        let mut table = OutcomeTable::default();
        let mut log = Vec::new();
        for chunk in 0..c.chunks() {
            let mut sys = warm.fork();
            let cell: StrikeCell = Rc::new(RefCell::new(StrikeState::default()));
            sys.add_observer(Box::new(StrikeProbe::new(Rc::clone(&cell))));
            let chunk_table =
                run_chunk_with(c, &mut sys, &cell, chunk, |sys, cell, now, horizon| {
                    let (next, outcome) = resolve(sys, cell, now, horizon);
                    log.push((now, next, outcome));
                    (next, outcome)
                });
            table.merge(&chunk_table);
        }
        (table, log)
    }

    /// A [`StrikeProbe`] the test keeps a handle on while the system
    /// owns the observer.
    struct SharedProbe(Rc<RefCell<StrikeProbe>>);

    impl aep_sim::SystemObserver for SharedProbe {
        fn pre_event(
            &mut self,
            event: &aep_mem::L2Event,
            l2: &mut aep_mem::Cache,
            scheme: &mut dyn ProtectionScheme,
            memory: &mut aep_mem::MainMemory,
            now: u64,
        ) {
            self.0
                .borrow_mut()
                .pre_event(event, l2, scheme, memory, now);
        }

        fn drain_resolutions(&mut self, out: &mut Vec<(usize, usize, &'static str)>) {
            self.0.borrow_mut().drain_resolutions(out);
        }
    }

    #[test]
    fn untraced_chunks_keep_no_strike_resolutions() {
        let c = CampaignConfig {
            trials_per_chunk: 100,
            trials: 100,
            ..cfg(SchemeKind::Proposed {
                cleaning_interval: CHOSEN_INTERVAL,
            })
        };
        let mut sys = warmed_prototype(&c);
        assert!(sys.trace().is_none());
        let cell: StrikeCell = Rc::new(RefCell::new(StrikeState::default()));
        let probe = Rc::new(RefCell::new(StrikeProbe::new(Rc::clone(&cell))));
        sys.add_observer(Box::new(SharedProbe(Rc::clone(&probe))));
        let mut resolved = 0;
        run_chunk_with(&c, &mut sys, &cell, 0, |sys, cell, now, horizon| {
            let (next, outcome) = resolve_strike(sys, cell, now, horizon);
            resolved += usize::from(outcome.is_some());
            assert_eq!(probe.borrow().undrained(), 0, "resolutions piled up");
            (next, outcome)
        });
        assert!(resolved > 10, "only {resolved} strikes resolved");
    }

    #[test]
    fn fast_forward_resolution_matches_per_cycle_stepping() {
        let schemes = [
            SchemeKind::ParityOnly,
            SchemeKind::Proposed {
                cleaning_interval: CHOSEN_INTERVAL,
            },
        ];
        for model in all_models() {
            for scheme in schemes {
                let mut c = cfg(scheme);
                c.model = model;
                let label = format!("{} on {scheme:?}", model.slug());
                let (oracle, oracle_log) = trace_campaign(&c, resolve_per_cycle);
                let (fast, fast_log) = trace_campaign(&c, resolve_strike);
                // Same resolution cycle and verdict for every strike, not
                // just the same tallies.
                assert_eq!(fast_log, oracle_log, "{label}");
                assert_eq!(fast, oracle, "{label}");
                assert_eq!(run_campaign(&c, 1), oracle, "{label}");
                assert!(oracle.struck_valid > 0, "{label}: no valid strike");
            }
        }
    }

    /// Every chunk's table from the per-chunk oracle: a fork of the
    /// warmed machine per chunk, with real bits flipped.
    fn oracle_chunks(c: &CampaignConfig) -> Vec<OutcomeTable> {
        let warm = warmed_prototype(c);
        (0..c.chunks())
            .map(|chunk| run_chunk(c, &warm, chunk))
            .collect()
    }

    /// Every chunk's table from the shared driver, whatever the predicate
    /// says.
    fn shared_chunks(c: &CampaignConfig) -> Vec<OutcomeTable> {
        run_shared(c, warmed_prototype(c), 0..c.chunks())
    }

    /// The smoke-scale campaign geometry (`exp faults --scale smoke`).
    fn smoke(scheme: SchemeKind) -> CampaignConfig {
        CampaignConfig::fast_test(Benchmark::Gap, scheme)
    }

    #[test]
    fn shared_driver_matches_the_per_chunk_oracle() {
        for scheme in challengers_faults_schemes() {
            let silent = matches!(scheme, SchemeKind::SilentWriteEcc { .. });
            assert_eq!(
                shares_trajectory(&warmed_prototype(&smoke(scheme))),
                !silent,
                "only the silent-store scheme keeps per-chunk machines: {scheme:?}"
            );
            if silent {
                continue;
            }
            for model in all_models() {
                for interleave in [1, 4] {
                    for seed in [2006, 2007] {
                        let c = CampaignConfig {
                            trials: 30,
                            model,
                            interleave,
                            seed,
                            ..smoke(scheme)
                        };
                        let label =
                            format!("{scheme:?} {} il{interleave} seed {seed}", model.slug());
                        assert_eq!(shared_chunks(&c), oracle_chunks(&c), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_driver_matches_the_per_chunk_oracle_on_a_write_heavy_workload() {
        // A Zipf head rewritten hundreds of times: strikes resolve at
        // write hits and at the cleanings an ECC entry's eviction forces,
        // two resolution paths `gap` seldom reaches.
        let zipf = diversity_workloads()
            .into_iter()
            .find(|w| w.name() == "zipf:k1024:e1200:c4")
            .expect("the diversity set holds the Zipf-head workload");
        for scheme in challengers_faults_schemes() {
            if matches!(scheme, SchemeKind::SilentWriteEcc { .. }) {
                continue;
            }
            for model in all_models() {
                for interleave in [1, 4] {
                    let c = CampaignConfig {
                        trials: 30,
                        model,
                        interleave,
                        ..CampaignConfig::fast_test(zipf.clone(), scheme)
                    };
                    let label = format!("{scheme:?} {} il{interleave}", model.slug());
                    assert_eq!(shared_chunks(&c), oracle_chunks(&c), "{label}");
                }
            }
        }
    }

    #[test]
    fn silent_store_scheme_forced_through_the_shared_driver_differs() {
        // Strikes steer a machine that elides silent stores (a struck word
        // changes which stores match), so the shared driver is not exact
        // for it — and the equivalence check must be able to see that.
        let silent = challengers_faults_schemes()
            .into_iter()
            .find(|k| matches!(k, SchemeKind::SilentWriteEcc { .. }))
            .expect("the challenger line-up holds the silent-store scheme");
        let c = CampaignConfig {
            trials: 1000,
            ..smoke(silent)
        };
        assert_ne!(shared_chunks(&c), oracle_chunks(&c));
    }

    #[test]
    fn jobs_count_does_not_change_the_result() {
        let c = cfg(SchemeKind::ParityOnly);
        let serial = run_campaign(&c, 1);
        let parallel = run_campaign(&c, 3);
        assert_eq!(serial, parallel);
        assert_eq!(serial.trials(), u64::from(c.trials));
    }

    #[test]
    fn a_line_up_reports_each_campaign_as_run_alone() {
        // A per-chunk (silent-store) campaign between two shared ones: at
        // 3 jobs the shared ones run as one group each, at 6 as two.
        let line_up: Vec<CampaignConfig> = [
            SchemeKind::ParityOnly,
            SchemeKind::SilentWriteEcc {
                cleaning_interval: CHOSEN_INTERVAL,
            },
            SchemeKind::Uniform,
        ]
        .into_iter()
        .map(smoke)
        .collect();
        let alone: Vec<CampaignReport> =
            line_up.iter().map(|c| run_campaign_report(c, 1)).collect();
        for jobs in [3, 6] {
            let reports = run_campaigns(&line_up, jobs);
            assert_eq!(reports.len(), line_up.len());
            for ((c, report), alone) in line_up.iter().zip(&reports).zip(&alone) {
                assert_eq!(
                    report.chunks,
                    alone.chunks,
                    "{} at {jobs} jobs",
                    c.scheme.label()
                );
                assert_eq!(report.total, alone.total);
                assert!(report.wall_seconds > 0.0);
            }
        }
    }

    #[test]
    fn jobs_invariance_holds_for_spatial_models() {
        let mut c = cfg(SchemeKind::Uniform);
        c.model = StrikeModel::Col { span: 4 };
        c.interleave = 2;
        let serial = run_campaign(&c, 1);
        let parallel = run_campaign(&c, 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn uniform_ecc_never_loses_data_under_single_bit_faults() {
        let c = cfg(SchemeKind::Uniform);
        let table = run_campaign(&c, 2);
        assert_eq!(table.sdc, 0, "SECDED must catch every single-bit flip");
        assert_eq!(table.due, 0, "single-bit flips are always correctable");
        assert!(table.corrected > 0, "some strikes must reach the scheme");
    }

    #[test]
    fn parity_only_loses_dirty_lines_but_never_silently() {
        let c = cfg(SchemeKind::ParityOnly);
        let table = run_campaign(&c, 2);
        assert_eq!(table.sdc, 0, "parity detects every single-bit flip");
        assert!(
            table.due > 0,
            "dirty strikes under parity-only must be unrecoverable"
        );
        assert!(table.refetch_recovered > 0, "clean strikes still refetch");
    }

    #[test]
    fn proposed_scheme_cuts_due_versus_parity_only() {
        let parity = run_campaign(&cfg(SchemeKind::ParityOnly), 2);
        let proposed = run_campaign(
            &cfg(SchemeKind::Proposed {
                cleaning_interval: CHOSEN_INTERVAL,
            }),
            2,
        );
        assert!(
            proposed.due < parity.due,
            "nonuniform ECC + cleaning must reduce DUE ({} vs {})",
            proposed.due,
            parity.due
        );
        // Single-bit strikes are always recoverable under the proposed
        // scheme: dirty lines decode against the shared ECC entry (live or
        // riding an in-flight ECC-WB), clean lines refetch on parity.
        assert_eq!(proposed.due, 0, "proposed must fully protect single bits");
        assert_eq!(proposed.sdc, 0, "no strike may escape silently");
        // Both recovery paths must actually fire, not just one of them.
        assert!(
            proposed.corrected > 0,
            "dirty lines must use ECC: {proposed:?}"
        );
        assert!(
            proposed.refetch_recovered > 0,
            "clean lines must refetch: {proposed:?}"
        );
    }

    #[test]
    fn double_bit_faults_defeat_secded() {
        let schemes = [
            SchemeKind::Uniform,
            SchemeKind::Proposed {
                cleaning_interval: CHOSEN_INTERVAL,
            },
        ];
        for scheme in schemes {
            let mut c = cfg(scheme);
            c.p_double = 1.0;
            let table = run_campaign(&c, 2);
            assert_eq!(
                table.corrected, 0,
                "{scheme:?}: doubles are never correctable"
            );
            assert!(
                table.due > 0,
                "{scheme:?}: SECDED must detect doubles as DUE"
            );
        }
    }

    #[test]
    fn even_bursts_slip_past_parity_silently() {
        let mut c = cfg(SchemeKind::ParityOnly);
        c.model = StrikeModel::Burst { width: 2 };
        let table = run_campaign(&c, 2);
        assert!(
            table.sdc > 0,
            "a two-bit burst leaves per-word parity unchanged"
        );
        assert_eq!(table.due, 0, "even flip counts are invisible to parity");
    }

    #[test]
    fn accumulation_miscorrects_secded_and_interleaving_suppresses_it() {
        // Slow scrub: virtually every cluster coincides with a latent flip,
        // putting five flips in one codeword on a non-interleaved array —
        // odd overall parity, so SECDED miscorrects a fraction of them.
        let mut c = cfg(SchemeKind::Uniform);
        c.model = StrikeModel::Accum {
            scrub_cycles: 1_000_000,
        };
        c.trials = 200;
        let flat = run_campaign(&c, 2);
        assert!(
            flat.sdc > 0,
            "coincident strikes must yield measured miscorrection SDC"
        );
        // Degree-4 interleaving spreads the cluster to one flip per word:
        // latent + fresh is at most a double — detected, never miscorrected.
        c.interleave = 4;
        let interleaved = run_campaign(&c, 2);
        assert_eq!(
            interleaved.sdc, 0,
            "interleaving must cap codewords at detectable doubles"
        );
        assert!(interleaved.due > 0, "doubles are detected, not corrected");
    }
}
