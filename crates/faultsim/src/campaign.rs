//! Monte Carlo fault-injection campaigns over the live timing simulator.
//!
//! A campaign runs `trials` independent strike experiments against one
//! (benchmark, scheme, strike-model) triple. Strikes arrive at seeded
//! pseudo-Poisson times *during* simulation: the machine runs an
//! exponential gap, one L2 frame is chosen uniformly over the whole array
//! (invalid frames count as immediately masked strikes — the same
//! normalisation the analytical [`aep_core::SoftErrorModel`] uses), the
//! configured [`StrikeModel`] draws a physical flip footprint mapped
//! through the array's [`ArrayLayout`], real bits flip in the live data
//! array, and the system keeps executing until the upset is consumed by
//! the scheme's detect/correct path or the per-trial horizon expires.
//!
//! # The trial loop is event-driven
//!
//! Both the inter-strike gap and the resolution window run through the
//! system's fast-forward loop, which steps only cycles at which some
//! component can act. The resolution window uses
//! [`System::run_until`], polling the probe after each stepped cycle:
//! the probe is purely event-driven ([`StrikeProbe`] keeps the default
//! `next_event_after = Cycle::MAX`) and skipped cycles emit no L2
//! events, so the window stops at exactly the cycle — and in exactly the
//! machine state — a cycle-by-cycle walk would. A test keeps that walk
//! as an oracle and checks every strike model against it.
//!
//! # Determinism
//!
//! Trials are grouped into fixed-size chunks. Each chunk runs on a
//! [`System::fork`] of an identically-warmed prototype (one per worker
//! thread — warm-up cost is paid once per worker, not once per chunk) and
//! derives its injection RNG from `mix64(seed, chunk)` — so a chunk's
//! outcome depends only on the config and its index, never on which
//! worker thread ran it or in what order. [`fan_out_init`] re-sorts chunk
//! tables by index before the in-order merge, which makes `--jobs N`
//! byte-identical to `--jobs 1`.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aep_cpu::CoreConfig;
use aep_ecc::inject::FaultInjector;
use aep_mem::memory::mix64;
use aep_mem::{ArrayLayout, HierarchyConfig};
use aep_rng::SmallRng;
use aep_sim::System;
use aep_workloads::{Workload, WorkloadStream};

use aep_core::{RecoveryOutcome, SchemeKind};

use crate::models::StrikeModel;
use crate::monitor::{PendingStrike, StrikeCell, StrikeProbe, StrikeState};
use crate::outcome::{OutcomeTable, TrialOutcome};
use crate::pool::fan_out_init;

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
    /// Cycles each chunk's fresh system runs before its first strike.
    pub warmup_cycles: u64,
    /// Per-trial resolution budget: cycles to wait for the struck line to
    /// be accessed, cleaned, or evicted before force-resolving.
    pub horizon_cycles: u64,
    /// Mean of the exponential inter-strike gap, in cycles.
    pub mean_gap_cycles: f64,
    /// Trials per chunk (the unit of parallelism and determinism).
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

    fn chunks(&self) -> usize {
        (self.trials as usize).div_ceil(self.trials_per_chunk.max(1) as usize)
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
    assert!(
        cfg.hierarchy.l2.store_data,
        "fault injection needs a data-holding L2 (store_data = true)"
    );
    let _ = cfg.layout(); // validate interleave against the geometry up front
    let start = Instant::now();
    let chunks = fan_out_init(
        cfg.chunks(),
        jobs,
        || warmed_prototype(cfg),
        |warm, chunk| run_chunk(cfg, warm, chunk),
    );
    let wall_seconds = start.elapsed().as_secs_f64();
    let mut total = OutcomeTable::default();
    for t in &chunks {
        total.merge(t);
    }
    CampaignReport {
        total,
        chunks,
        wall_seconds,
    }
}

/// Builds the per-worker prototype system and runs its warm-up once.
///
/// No probe is attached here: an unarmed [`StrikeProbe`] is passive (it
/// only acts on an armed pending strike), so warming without one is
/// trajectory-identical to the old warm-with-probe path — and each chunk
/// gets a fresh probe on its fork anyway.
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

/// Runs one chunk of trials on a fork of the worker's warmed prototype.
fn run_chunk(cfg: &CampaignConfig, warm: &System<WorkloadStream>, chunk: usize) -> OutcomeTable {
    run_chunk_with(cfg, warm, chunk, resolve_strike)
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

/// [`run_chunk`] with the strike-resolution loop supplied by the caller
/// (tests substitute a per-cycle oracle).
fn run_chunk_with(
    cfg: &CampaignConfig,
    warm: &System<WorkloadStream>,
    chunk: usize,
    mut resolve: impl FnMut(
        &mut System<WorkloadStream>,
        &StrikeCell,
        u64,
        u64,
    ) -> (u64, Option<TrialOutcome>),
) -> OutcomeTable {
    let done = chunk as u64 * u64::from(cfg.trials_per_chunk);
    let trials_here = u64::from(cfg.trials_per_chunk).min(u64::from(cfg.trials) - done);

    let mut sys = warm.fork();
    let cell: StrikeCell = Rc::new(RefCell::new(StrikeState::default()));
    sys.add_observer(Box::new(StrikeProbe::new(Rc::clone(&cell))));
    let layout = cfg.layout();
    let mut now = cfg.warmup_cycles;

    // Chunk-indexed seed: depends only on (master seed, chunk index).
    let chunk_seed = mix64(cfg.seed ^ mix64(0xFA01_7B17 ^ chunk as u64));
    let mut rng = SmallRng::seed_from_u64(chunk_seed);
    let mut injector = FaultInjector::with_seed(mix64(chunk_seed));

    let mut table = OutcomeTable::default();
    for _ in 0..trials_here {
        // Exponential inter-arrival gap (inverse-CDF on [0,1), min 1 cycle).
        let u: f64 = rng.gen();
        let gap = ((-(1.0 - u).ln()) * cfg.mean_gap_cycles).ceil().max(1.0) as u64;
        now = sys.run(now, gap);

        let (set, way, view) = {
            let l2 = sys.hier.l2();
            let set = rng.gen_range(0..l2.sets());
            let way = rng.gen_range(0..l2.ways());
            (set, way, l2.line_view(set, way))
        };
        if !view.valid {
            // Strikes on empty frames are benign; counting them keeps the
            // empirical rates normalised over the whole array.
            table.record(TrialOutcome::Masked, false, false);
            continue;
        }
        let snapshot: Box<[u64]> = sys
            .hier
            .l2()
            .line_data(set, way)
            .expect("store_data caches hold line data")
            .into();
        let dirty = view.dirty;
        let pattern = cfg.model.draw(
            &layout,
            &mut rng,
            &mut injector,
            cfg.p_double,
            cfg.mean_gap_cycles,
        );
        pattern.strike_cache(sys.hier.l2_mut(), set, way);
        cell.borrow_mut().arm(PendingStrike {
            set,
            way,
            line: view.line,
            pattern,
            snapshot,
        });

        let (next, outcome) = resolve(&mut sys, &cell, now, cfg.horizon_cycles);
        now = next;
        let outcome = outcome.unwrap_or_else(|| finalize_at_horizon(&mut sys, &cell));
        table.record(outcome, true, dirty);
    }
    table
}

/// Force-resolves a strike that nothing consumed within the horizon.
///
/// A clean struck line counts as masked: main memory still holds the
/// intact copy, so the latent flip can always be recovered by refetch and
/// never becomes loss on its own. A dirty struck line is resolved as if it
/// were written back now — the scheme's outbound check decides whether the
/// latent upset would have been corrected, declared DUE, or silently
/// escaped to memory — and, as everywhere else, a "corrected" image that
/// does not match the pre-strike snapshot is a miscorrection booked as SDC.
fn finalize_at_horizon<S: aep_cpu::InstrStream>(
    sys: &mut System<S>,
    cell: &StrikeCell,
) -> TrialOutcome {
    let strike = cell
        .borrow_mut()
        .take_pending()
        .expect("horizon expiry implies an unresolved strike");
    let (l2, _memory) = sys.hier.l2_and_memory_mut();
    let view = l2.line_view(strike.set, strike.way);
    debug_assert!(
        view.valid && view.line == strike.line,
        "a struck line can only leave its frame via a witnessed eviction"
    );
    let outcome = if !view.dirty {
        TrialOutcome::Masked
    } else {
        let mut buf: Vec<u64> = l2
            .line_data(strike.set, strike.way)
            .expect("struck lines hold data")
            .to_vec();
        match sys
            .scheme
            .verify_writeback(strike.set, strike.way, &mut buf)
        {
            RecoveryOutcome::Clean => TrialOutcome::Sdc,
            RecoveryOutcome::CorrectedByEcc { .. } => {
                if buf.as_slice() == &*strike.snapshot {
                    TrialOutcome::Corrected
                } else {
                    TrialOutcome::Sdc
                }
            }
            RecoveryOutcome::RecoveredByRefetch => TrialOutcome::RefetchRecovered,
            RecoveryOutcome::Unrecoverable => TrialOutcome::Due,
        }
    };
    // Scrub the latent flips out of the array before the next trial.
    let l2 = sys.hier.l2_mut();
    for f in strike.pattern.flips() {
        l2.write_word(strike.set, strike.way, f.word, strike.snapshot[f.word]);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_workloads::calibration::CHOSEN_INTERVAL;
    use aep_workloads::Benchmark;

    fn cfg(scheme: SchemeKind) -> CampaignConfig {
        CampaignConfig::fast_test(Benchmark::Swim, scheme)
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
            let chunk_table = run_chunk_with(c, &warm, chunk, |sys, cell, now, horizon| {
                let (next, outcome) = resolve(sys, cell, now, horizon);
                log.push((now, next, outcome));
                (next, outcome)
            });
            table.merge(&chunk_table);
        }
        (table, log)
    }

    #[test]
    fn fast_forward_resolution_matches_per_cycle_stepping() {
        let models = [
            StrikeModel::Single,
            StrikeModel::Burst { width: 2 },
            StrikeModel::Col { span: 4 },
            StrikeModel::Row { span: 8 },
            StrikeModel::Accum {
                scrub_cycles: crate::models::DEFAULT_SCRUB_CYCLES,
            },
        ];
        let schemes = [
            SchemeKind::ParityOnly,
            SchemeKind::Proposed {
                cleaning_interval: CHOSEN_INTERVAL,
            },
        ];
        for model in models {
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

    #[test]
    fn jobs_count_does_not_change_the_result() {
        let c = cfg(SchemeKind::ParityOnly);
        let serial = run_campaign(&c, 1);
        let parallel = run_campaign(&c, 3);
        assert_eq!(serial, parallel);
        assert_eq!(serial.trials(), u64::from(c.trials));
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
    }

    #[test]
    fn double_bit_faults_defeat_secded() {
        let mut c = cfg(SchemeKind::Uniform);
        c.p_double = 1.0;
        let table = run_campaign(&c, 2);
        assert_eq!(table.corrected, 0, "double flips are never correctable");
        assert!(table.due > 0, "SECDED must detect double flips as DUE");
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
