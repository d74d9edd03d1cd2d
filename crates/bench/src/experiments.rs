//! Shared experiment orchestration for the `exp` binary and the benches.
//!
//! Every table `exp` prints is declared once, as one [`Figure`] in
//! [`figures`]: its command slug, title, columns and precision, and
//! where its rows come from. The `exp` dispatch, the `exp all` sequence,
//! the table lines of `exp help` (each table's title) and
//! [`all_configs`] are all read off that list; so are the Criterion
//! figure benches.
//!
//! Execution is **plan-then-execute**: a [`Source::Planned`] figure
//! lists, row by row, the exact [`ExperimentConfig`]s it reads, and
//! [`Figure::render`] submits the whole plan to
//! [`Lab::prefetch_configs`] before computing any row. The lab dedupes
//! the plan and submits it as one batch to its [`Engine`], the executor
//! `exp serve` answers from too: the engine resolves each run from its
//! memo, the optional on-disk [`RunCache`], or a fresh simulation on one
//! of `Lab::jobs` workers. Rows read only planned results ([`Lab::planned`]
//! panics otherwise), and runs are deterministic in their config alone,
//! so the worker count never changes a figure — only how fast it
//! arrives. Figures share configurations (Figures 3 and 5 are two views
//! of the same interval sweep), and each is simulated at most once per
//! process.

use std::collections::HashSet;
use std::sync::Arc;

use aep_core::area::AreaModel;
use aep_core::cleaning::CleaningPolicy;
use aep_core::lineup::{self, CHOSEN_INTERVAL, CLEANING_INTERVALS};
use aep_core::{CleaningLogic, EnergyModel, SchemeKind, SoftErrorModel};
use aep_cpu::CoreConfig;
use aep_mem::HierarchyConfig;
use aep_serve::{Engine, EngineConfig, Source as RunSource, Submission};
use aep_sim::report::{mean, stddev};
use aep_sim::runcache::RunCache;
use aep_sim::{ExperimentConfig, RunStats, System, Table};
use aep_workloads::{Benchmark, Workload};

// `Scale` lives in `aep-sim` now (the explorer and the figure pipeline
// share it); re-exported here so existing call sites keep compiling.
pub use aep_sim::Scale;

pub use aep_core::lineup::proposed;

/// One planned experiment: a (workload, scheme) pair to run at the
/// lab's scale.
pub type PlannedRun = (Workload, SchemeKind);

/// How one [`Lab::prefetch_configs`] batch was satisfied, tier by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Distinct configurations in the batch (after dedup).
    pub planned: usize,
    /// Satisfied by the in-process memo.
    pub memo_hits: usize,
    /// Recalled from the on-disk [`RunCache`].
    pub disk_hits: usize,
    /// Freshly simulated.
    pub evaluated: usize,
}

impl BatchSummary {
    fn accumulate(&mut self, other: BatchSummary) {
        self.planned += other.planned;
        self.memo_hits += other.memo_hits;
        self.disk_hits += other.disk_hits;
        self.evaluated += other.evaluated;
    }
}

/// A memoizing experiment laboratory: a batch client of one
/// [`Engine`], which runs each configuration at most once per process,
/// optionally spilling results to (and recalling them from) an on-disk
/// [`RunCache`], and executing batched plans across worker threads.
///
/// Runs are keyed by the full [`RunCache`] key — scale, benchmark,
/// scheme, seed, and a hash of the whole [`ExperimentConfig`] — so the
/// explorer's off-grid points (non-Table-1 geometry, scrubbing) share
/// the same engine and cache as the figure pipeline's (benchmark,
/// scheme) plans. The engine starts with the lab's first batch, so a
/// command that plans nothing spawns no threads.
#[derive(Debug)]
pub struct Lab {
    scale: Scale,
    verbose: bool,
    jobs: usize,
    disk: Option<RunCache>,
    engine: Option<Engine>,
    totals: BatchSummary,
}

impl Lab {
    /// Creates a serial lab at the given scale (no disk cache).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            verbose: false,
            jobs: 1,
            disk: None,
            engine: None,
            totals: BatchSummary::default(),
        }
    }

    /// Enables progress lines on stderr (long paper-scale sessions).
    #[must_use]
    pub fn verbose(mut self) -> Self {
        self.verbose = true;
        self
    }

    /// Sets the worker-thread count used by [`Lab::prefetch`] (clamped to
    /// at least 1). Runs are pure functions of their config, so the
    /// figure output is identical for every worker count.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent result cache consulted before simulating and
    /// updated after every fresh run.
    #[must_use]
    pub fn with_disk_cache(mut self, disk: RunCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// The lab's scale.
    #[must_use]
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Ensures every (benchmark, scheme) configuration in `plan` is
    /// resolved at the lab's scale — see [`Lab::prefetch_configs`].
    pub fn prefetch(&mut self, plan: &[PlannedRun]) {
        let configs: Vec<ExperimentConfig> = plan
            .iter()
            .map(|(benchmark, scheme)| self.scale.config(benchmark.clone(), *scheme))
            .collect();
        self.prefetch_configs(&configs);
    }

    /// Ensures every configuration in `plan` is resolved, and emits a
    /// one-line batch summary (planned / memo hits / disk hits /
    /// evaluated) on stderr.
    ///
    /// The plan is deduplicated (first occurrence wins) and submitted to
    /// the engine as one batch, which satisfies it in three tiers: the
    /// memo, the disk cache (if attached), and fresh simulation across
    /// up to `jobs` workers, with shareable-trajectory configurations
    /// batched onto lanes. Fresh results are written back to the disk
    /// cache; cache-directory I/O errors are reported (and treated as
    /// misses) instead of silently recomputing.
    ///
    /// # Panics
    ///
    /// Panics with the engine's message if a simulation panicked.
    pub fn prefetch_configs(&mut self, plan: &[ExperimentConfig]) {
        let mut seen = HashSet::new();
        let distinct: Vec<ExperimentConfig> = plan
            .iter()
            .filter(|cfg| seen.insert(RunCache::key(self.scale.name(), cfg)))
            .cloned()
            .collect();
        let mut summary = BatchSummary {
            planned: distinct.len(),
            ..BatchSummary::default()
        };
        let engine = self.engine.get_or_insert_with(|| {
            Engine::new(EngineConfig {
                jobs: self.jobs,
                queue_depth: usize::MAX,
                disk: self.disk.take(),
                verbose: self.verbose,
                ..EngineConfig::new(self.scale)
            })
        });
        for submission in engine.submit_all(self.scale, distinct) {
            let source = match submission {
                Submission::Ready { .. } => RunSource::Memo,
                Submission::Pending { ticket, .. } => {
                    ticket.wait().unwrap_or_else(|e| panic!("{e}")).1
                }
                Submission::Busy | Submission::Draining => {
                    unreachable!("an unbounded, never-drained engine sheds nothing")
                }
            };
            match source {
                RunSource::Memo => summary.memo_hits += 1,
                RunSource::Disk => summary.disk_hits += 1,
                RunSource::Fresh => summary.evaluated += 1,
            }
        }
        if summary.planned > 0 {
            eprintln!(
                "[lab] batch: {} planned, {} memo hits, {} disk hits, {} evaluated",
                summary.planned, summary.memo_hits, summary.disk_hits, summary.evaluated
            );
        }
        self.totals.accumulate(summary);
    }

    /// Runs (or recalls) one (benchmark, scheme) configuration at the
    /// lab's scale.
    pub fn stats(&mut self, benchmark: impl Into<Workload>, scheme: SchemeKind) -> RunStats {
        self.stats_config(&self.scale.config(benchmark, scheme))
    }

    /// Runs (or recalls) one arbitrary configuration (the explorer's
    /// entry point: geometry and scrub deviations welcome). A memo hit
    /// prints nothing; anything else is a one-run batch.
    pub fn stats_config(&mut self, cfg: &ExperimentConfig) -> RunStats {
        if self.memo(cfg).is_none() {
            self.prefetch_configs(std::slice::from_ref(cfg));
        }
        RunStats::clone(&self.planned(cfg))
    }

    fn memo(&self, cfg: &ExperimentConfig) -> Option<Arc<RunStats>> {
        self.engine.as_ref()?.memo_get(self.scale, cfg)
    }

    /// The result of a configuration an earlier batch resolved. Unlike
    /// [`Lab::stats_config`], it never starts a run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` was never planned: a figure reads only what it
    /// planned.
    #[must_use]
    pub fn planned(&self, cfg: &ExperimentConfig) -> Arc<RunStats> {
        self.memo(cfg).unwrap_or_else(|| {
            panic!(
                "{} / {} was read outside the plan",
                cfg.benchmark,
                cfg.scheme.label()
            )
        })
    }

    /// Number of distinct configurations resolved so far (simulated or
    /// recalled from disk).
    #[must_use]
    pub fn runs(&self) -> usize {
        self.totals.disk_hits + self.totals.evaluated
    }

    /// Cumulative tier accounting across every batch this lab resolved.
    #[must_use]
    pub fn totals(&self) -> BatchSummary {
        self.totals
    }
}

/// One figure's data: column labels plus (benchmark, values) rows.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Figure title.
    pub title: String,
    /// First (label) column header.
    pub row_header: String,
    /// Value-column labels.
    pub columns: Vec<String>,
    /// Per-benchmark rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Decimal places when rendering.
    pub decimals: usize,
}

impl FigureData {
    /// The rows as a [`Table`] (no mean row).
    fn table(&self) -> Table {
        let mut headers = vec![self.row_header.clone()];
        headers.extend(self.columns.iter().cloned());
        let mut t = Table::new(headers);
        for (label, values) in &self.rows {
            t.numeric_row(label, values, self.decimals);
        }
        t
    }

    /// Renders as an aligned text table with a MEAN row.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut t = self.table();
        if !self.rows.is_empty() {
            let means: Vec<f64> = (0..self.columns.len())
                .map(|c| self.column_mean(c))
                .collect();
            t.numeric_row("MEAN", &means, self.decimals);
        }
        format!("{}\n{}", self.title, t.to_text())
    }

    /// Renders as GitHub-flavoured markdown (no mean row).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        self.table().to_markdown()
    }

    /// Renders as CSV (no mean row).
    #[must_use]
    pub fn to_csv(&self) -> String {
        self.table().to_csv()
    }

    /// Mean of one value column.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range or there are no rows.
    #[must_use]
    pub fn column_mean(&self, col: usize) -> f64 {
        assert!(!self.rows.is_empty());
        self.rows.iter().map(|(_, v)| v[col]).sum::<f64>() / self.rows.len() as f64
    }
}

/// One row of a [`Source::Planned`] figure: its label and the
/// configurations its cells are computed from.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// The configurations this row reads, in the order its cell
    /// function receives their results.
    pub configs: Vec<ExperimentConfig>,
}

/// Where a figure's content comes from.
#[derive(Debug, Clone)]
pub enum Source {
    /// A closed-form printout that runs no simulation.
    Printed(fn() -> String),
    /// Rows planned through [`Lab`]: the figure with no rows yet, every
    /// row's configurations at a scale, and one row's values from its
    /// results (in [`Row::configs`] order).
    Planned(
        FigureData,
        fn(Scale) -> Vec<Row>,
        fn(&Row, &[&RunStats]) -> Vec<f64>,
    ),
    /// Rows measured by driving [`System`] directly, for quantities a
    /// [`RunStats`] and its run-cache key do not carry: the figure with
    /// no rows yet, and every row at a scale.
    Direct(FigureData, fn(Scale) -> Vec<(String, Vec<f64>)>),
}

/// One `exp` table command, declared once.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The `exp` command that prints it.
    pub slug: &'static str,
    /// Whether `exp all` prints it (the paper's own result).
    pub in_all: bool,
    /// What it prints.
    pub source: Source,
}

/// A rendered figure.
#[derive(Debug, Clone)]
pub enum Output {
    /// Preformatted text, printed as is.
    Text(String),
    /// A table, rendered as text, CSV or markdown by the caller.
    Table(FigureData),
}

impl Figure {
    /// Its title: the first line it prints, and its `exp help` line.
    #[must_use]
    pub fn title(&self) -> String {
        match &self.source {
            Source::Printed(text) => text().lines().next().unwrap_or_default().to_owned(),
            Source::Planned(table, ..) | Source::Direct(table, _) => table.title.clone(),
        }
    }

    /// The configurations this figure reads at `scale`, row by row
    /// (empty for figures not planned through [`Lab`]).
    #[must_use]
    pub fn plan(&self, scale: Scale) -> Vec<ExperimentConfig> {
        match &self.source {
            Source::Planned(_, plan, _) => {
                plan(scale).into_iter().flat_map(|r| r.configs).collect()
            }
            Source::Printed(_) | Source::Direct(..) => Vec::new(),
        }
    }

    /// Computes the figure at the lab's scale: the text of a printed
    /// one, or a table. A planned figure submits its whole plan as one
    /// [`Lab::prefetch_configs`] batch, then builds every row from
    /// planned results only.
    pub fn render(&self, lab: &mut Lab) -> Output {
        match &self.source {
            Source::Printed(text) => Output::Text(text()),
            Source::Direct(table, rows) => Output::Table(FigureData {
                rows: rows(lab.scale()),
                ..table.clone()
            }),
            Source::Planned(table, plan, cells) => {
                let rows = plan(lab.scale());
                let configs: Vec<ExperimentConfig> = rows
                    .iter()
                    .flat_map(|r| r.configs.iter().cloned())
                    .collect();
                lab.prefetch_configs(&configs);
                let rows = rows
                    .iter()
                    .map(|row| {
                        let stats: Vec<Arc<RunStats>> =
                            row.configs.iter().map(|cfg| lab.planned(cfg)).collect();
                        let stats: Vec<&RunStats> = stats.iter().map(Arc::as_ref).collect();
                        (row.label.clone(), cells(row, &stats))
                    })
                    .collect();
                Output::Table(FigureData {
                    rows,
                    ..table.clone()
                })
            }
        }
    }
}

/// A figure planned through [`Lab`], one row per `plan` entry.
fn planned<S: Into<String>>(
    slug: &'static str,
    title: impl Into<String>,
    columns: impl IntoIterator<Item = S>,
    decimals: usize,
    plan: fn(Scale) -> Vec<Row>,
    cells: fn(&Row, &[&RunStats]) -> Vec<f64>,
) -> Figure {
    let table = shape(title, columns, decimals);
    Figure {
        slug,
        in_all: false,
        source: Source::Planned(table, plan, cells),
    }
}

/// A figure measured by driving [`System`] directly.
fn direct<S: Into<String>>(
    slug: &'static str,
    title: &str,
    columns: impl IntoIterator<Item = S>,
    decimals: usize,
    rows: fn(Scale) -> Vec<(String, Vec<f64>)>,
) -> Figure {
    let table = shape(title, columns, decimals);
    Figure {
        slug,
        in_all: false,
        source: Source::Direct(table, rows),
    }
}

/// A figure's title, headers and precision, with no rows yet.
fn shape<S: Into<String>>(
    title: impl Into<String>,
    columns: impl IntoIterator<Item = S>,
    decimals: usize,
) -> FigureData {
    FigureData {
        title: title.into(),
        row_header: "benchmark".into(),
        columns: columns.into_iter().map(Into::into).collect(),
        rows: Vec::new(),
        decimals,
    }
}

/// `fig` with its first column headed `header` instead of `benchmark`.
fn headed(mut fig: Figure, header: &str) -> Figure {
    if let Source::Planned(table, ..) | Source::Direct(table, _) = &mut fig.source {
        table.row_header = header.into();
    }
    fig
}

/// One row per benchmark, each reading `schemes` in order.
fn per_benchmark(scale: Scale, benchmarks: &[Benchmark], schemes: &[SchemeKind]) -> Vec<Row> {
    benchmarks
        .iter()
        .map(|&b| Row {
            label: b.name().to_owned(),
            configs: schemes.iter().map(|&k| scale.config(b, k)).collect(),
        })
        .collect()
}

fn dirty_pct(s: &RunStats) -> f64 {
    s.l2.avg_dirty_fraction * 100.0
}

/// The Figures 3–6 columns: every cleaning interval, then `org`.
fn interval_columns() -> Vec<String> {
    let mut columns: Vec<String> = CLEANING_INTERVALS
        .into_iter()
        .map(aep_core::scheme::human_interval)
        .collect();
    columns.push("org".into());
    columns
}

/// Workload seeds of the `seeds` table.
const SEEDS: u64 = 5;

/// Every `exp` table, in `exp help` order: the paper's own, which `exp
/// all` prints in this order, then the extensions.
#[must_use]
pub fn figures() -> Vec<Figure> {
    let printed = |slug, text| Figure {
        slug,
        in_all: false,
        source: Source::Printed(text),
    };
    let paper = [
        printed("table1", table1_text),
        planned(
            "fig1",
            "Figure 1: % dirty L2 lines per cycle (1MB 4-way, no cleaning)",
            ["%dirty"],
            1,
            |s| per_benchmark(s, &Benchmark::all(), &[SchemeKind::Uniform]),
            |_, r| vec![dirty_pct(r[0])],
        ),
        printed("fig2", fig2_text),
        planned(
            "fig3",
            "Figure 3: % dirty lines per cycle vs cleaning interval (FP)",
            interval_columns(),
            1,
            |s| per_benchmark(s, &Benchmark::fp(), &lineup::interval_sweep_schemes()),
            |_, r| r.iter().map(|s| dirty_pct(s)).collect(),
        ),
        planned(
            "fig4",
            "Figure 4: % dirty lines per cycle vs cleaning interval (INT)",
            interval_columns(),
            1,
            |s| per_benchmark(s, &Benchmark::int(), &lineup::interval_sweep_schemes()),
            |_, r| r.iter().map(|s| dirty_pct(s)).collect(),
        ),
        planned(
            "fig5",
            "Figure 5: write-backs as % of all loads/stores vs cleaning interval (FP)",
            interval_columns(),
            2,
            |s| per_benchmark(s, &Benchmark::fp(), &lineup::interval_sweep_schemes()),
            |_, r| r.iter().map(|s| s.l2.wb_percent()).collect(),
        ),
        planned(
            "fig6",
            "Figure 6: write-backs as % of all loads/stores vs cleaning interval (INT)",
            interval_columns(),
            2,
            |s| per_benchmark(s, &Benchmark::int(), &lineup::interval_sweep_schemes()),
            |_, r| r.iter().map(|s| s.l2.wb_percent()).collect(),
        ),
        planned(
            "fig7",
            "Figure 7: % dirty lines per cycle, proposed scheme (clean@1M + ECC array)",
            ["%dirty"],
            1,
            |s| per_benchmark(s, &Benchmark::all(), &[proposed()]),
            |_, r| vec![dirty_pct(r[0])],
        ),
        planned(
            "fig8",
            "Figure 8: write-back breakdown, proposed scheme (% of all loads/stores)",
            ["Clean-WB", "WB", "ECC-WB", "total"],
            3,
            |s| per_benchmark(s, &Benchmark::all(), &[proposed()]),
            |_, r| {
                let w = &r[0].l2;
                vec![
                    w.wb_percent_of(w.wb_cleaning),
                    w.wb_percent_of(w.wb_replacement),
                    w.wb_percent_of(w.wb_ecc),
                    w.wb_percent(),
                ]
            },
        ),
        planned(
            "perf",
            "§5.2 performance: IPC, org vs proposed",
            ["IPC org", "IPC proposed", "loss %"],
            3,
            |s| per_benchmark(s, &Benchmark::all(), &lineup::comparison_schemes()),
            |_, r| {
                let (base, ours) = (r[0], r[1]);
                vec![base.ipc, ours.ipc, (base.ipc - ours.ipc) / base.ipc * 100.0]
            },
        ),
        printed("area", area_text),
    ];
    let extensions = [
        planned(
            "calibrate",
            "Calibration (org): dirty%, WB%, IPC, miss ratios",
            ["%dirty", "%WB", "IPC", "L1D miss%", "L2 miss%", "mispred%"],
            2,
            |s| per_benchmark(s, &Benchmark::all(), &[SchemeKind::Uniform]),
            |_, r| {
                let s = r[0];
                vec![
                    dirty_pct(s),
                    s.l2.wb_percent(),
                    s.ipc,
                    s.l1d_miss_ratio * 100.0,
                    s.l2_miss_ratio * 100.0,
                    s.mispredict_ratio * 100.0,
                ]
            },
        ),
        // 1 vs 2 ECC entries per set is a *structural* question answered
        // by `AreaModel`; this contrasts the line-up's dynamic behaviour.
        planned(
            "ablation",
            "Ablation: dirty% and WB% across protection configurations",
            lineup::ablation_lineup()
                .into_iter()
                .flat_map(|(n, _)| [format!("{n} dirty%"), format!("{n} WB%")]),
            2,
            |s| per_benchmark(s, &Benchmark::all(), &lineup::ablation_schemes()),
            |_, r| {
                r.iter()
                    .flat_map(|s| [dirty_pct(s), s.l2.wb_percent()])
                    .collect()
            },
        ),
        // Measured dirty residency as first-order FIT per design.
        planned(
            "reliability",
            "Reliability: first-order FIT by design (1000 FIT/Mbit raw; DUE+SDC shown)",
            [
                "none(SDC)",
                "parity(org)",
                "parity(+clean)",
                "uniform",
                "proposed",
            ],
            0,
            |s| per_benchmark(s, &Benchmark::all(), &lineup::comparison_schemes()),
            |_, r| {
                let (org, ours) = (&r[0].l2, &r[1].l2);
                let l2 = aep_mem::CacheConfig::date2006_l2();
                let model = SoftErrorModel::date2006_typical();
                vec![
                    model.unprotected(&l2).sdc_fit,
                    model.parity_only(&l2, org.avg_dirty_fraction).due_fit,
                    model.parity_only(&l2, ours.avg_dirty_fraction).due_fit,
                    model.uniform_ecc(&l2).user_visible_fit(),
                    model
                        .proposed(&l2, ours.avg_dirty_fraction)
                        .user_visible_fit(),
                ]
            },
        ),
        // The Li et al. angle: check/encode energy per 1 000 loads/stores,
        // plus the energy of the write-backs proposed adds over org.
        planned(
            "energy",
            "Protection energy (pJ per 1000 loads/stores): org vs proposed",
            ["org checks", "prop checks", "prop total", "check savings%"],
            1,
            |s| per_benchmark(s, &Benchmark::all(), &lineup::comparison_schemes()),
            |_, r| {
                let (org, ours) = (r[0], r[1]);
                let model = EnergyModel::default_2006();
                let per_kops = |pj: f64, ls: u64| pj / (ls as f64 / 1_000.0);
                let org_checks = model.protection_energy_pj(org.energy);
                let ours_checks = model.protection_energy_pj(ours.energy);
                let extra_wb = ours.l2.wb_total().saturating_sub(org.l2.wb_total());
                let ours_total = model.total_energy_pj(ours.energy, extra_wb);
                vec![
                    per_kops(org_checks, org.l2.loads_stores),
                    per_kops(ours_checks, ours.l2.loads_stores),
                    per_kops(ours_total, ours.l2.loads_stores),
                    if org_checks > 0.0 {
                        (1.0 - ours_checks / org_checks) * 100.0
                    } else {
                        0.0
                    },
                ]
            },
        ),
        direct(
            "lifetimes",
            "Dirty-line lifetimes (org): generational behaviour census",
            ["mean(Kcyc)", "%>=64K", "%>=1M", "%>=4M", "samples"],
            1,
            lifetime_rows,
        ),
        // "Large L2/L3 caches of current processors": the L2 from 512 KB
        // to 4 MB at the paper's 1M cleaning interval.
        headed(
            planned(
                "sensitivity",
                "Sensitivity: L2 size sweep (gap; area model + measured behaviour)",
                [
                    "conv KiB",
                    "prop KiB",
                    "reduction%",
                    "org dirty%",
                    "prop dirty%",
                    "prop WB%",
                ],
                1,
                |s| {
                    [512u64, 1024, 2048, 4096]
                        .into_iter()
                        .map(|kib| {
                            let mut hierarchy = HierarchyConfig::date2006();
                            hierarchy.l2.size_bytes = kib * 1024;
                            let configs = lineup::comparison_schemes().into_iter().map(|k| {
                                ExperimentConfig {
                                    hierarchy: hierarchy.clone(),
                                    ..s.config(Benchmark::Gap, k)
                                }
                            });
                            Row {
                                label: format!("{kib}K"),
                                configs: configs.collect(),
                            }
                        })
                        .collect()
                },
                |row, r| {
                    let model = AreaModel::new(&row.configs[0].hierarchy.l2);
                    let (conventional, ours) =
                        (model.conventional().total(), model.proposed().total());
                    vec![
                        conventional.kib(),
                        ours.kib(),
                        conventional.reduction_to(ours) * 100.0,
                        dirty_pct(r[0]),
                        dirty_pct(r[1]),
                        r[1].l2.wb_percent(),
                    ]
                },
            ),
            "L2 size",
        ),
        headed(
            direct(
                "cleaners",
                "Cleaning-policy comparison on gap (uniform ECC L2)",
                ["%dirty", "%WB", "IPC"],
                2,
                cleaner_rows,
            ),
            "policy",
        ),
        // The headline metrics are properties of the workload model, not
        // of one random stream.
        planned(
            "seeds",
            format!("Seed robustness: org dirty% over {SEEDS} seeds (mean, sample sd)"),
            ["mean %dirty", "sd"],
            2,
            |s| {
                Benchmark::all()
                    .into_iter()
                    .map(|b| Row {
                        label: b.name().to_owned(),
                        configs: (0..SEEDS)
                            .map(|seed| ExperimentConfig {
                                seed: 1000 + seed,
                                ..s.config(b, SchemeKind::Uniform)
                            })
                            .collect(),
                    })
                    .collect()
            },
            |_, r| {
                let samples: Vec<f64> = r.iter().map(|s| dirty_pct(s)).collect();
                vec![mean(&samples), stddev(&samples)]
            },
        ),
    ];
    paper
        .into_iter()
        .map(|f| Figure { in_all: true, ..f })
        .chain(extensions)
        .collect()
}

/// The declared figure printed by `exp <slug>`.
#[must_use]
pub fn figure(slug: &str) -> Option<Figure> {
    figures().into_iter().find(|f| f.slug == slug)
}

/// The union of the `exp all` figures' plans, in emission order —
/// `exp all` submits this once up front so the whole session
/// parallelises as a single batch instead of figure by figure. The
/// (workload, scheme) pairs of these plans do not depend on the scale.
#[must_use]
pub fn all_configs() -> Vec<PlannedRun> {
    figures()
        .iter()
        .filter(|f| f.in_all)
        .flat_map(|f| f.plan(Scale::Quick))
        .map(|cfg| (cfg.benchmark, cfg.scheme))
        .collect()
}

/// **Table 1**: the baseline processor configuration.
fn table1_text() -> String {
    let core = CoreConfig::date2006();
    let hier = HierarchyConfig::date2006();
    let cache = |c: &aep_mem::CacheConfig| {
        let (kb, ways, line) = (c.size_bytes / 1024, c.ways, c.line_bytes);
        format!("{kb}KB {ways}-way, {line}B line, {}-cycle", c.hit_latency)
    };
    format!(
        "Table 1: baseline processor configuration\n\
         -----------------------------------------\n\
         Issue window            {}-entry RUU\n\
         \x20                       {}-entry LSQ\n\
         decode and issue rate   {} instructions per cycle\n\
         Functional units        {} INT add, {} INT mult/div\n\
         \x20                       {} FP add, {} FP mult/div\n\
         L1 instruction cache    {}\n\
         L1 data cache           {} (write-through)\n\
         Write buffer            fully associative, {} entries\n\
         L2 cache                unified {}\n\
         Main memory             {}B-wide, {}-cycle\n\
         Branch prediction       2-level, 2K BTB\n\
         Instruction TLB         64-entry, 4-way\n\
         Data TLB                128-entry, 4-way\n\n",
        core.ruu_entries,
        core.lsq_entries,
        core.issue_width,
        core.fu.int_alu,
        core.fu.int_mul,
        core.fu.fp_add,
        core.fu.fp_mul,
        cache(&hier.l1i),
        cache(&hier.l1d),
        hier.write_buffer_entries,
        cache(&hier.l2),
        hier.bus_bytes_per_cycle,
        hier.memory_latency
    )
}

/// **Figure 2**: the cleaning logic and ECC storage, structurally.
fn fig2_text() -> String {
    let l2 = HierarchyConfig::date2006().l2;
    let fsm = CleaningLogic::new(1024 * 1024, l2.sets() as usize);
    format!(
        "Figure 2: cleaning logic and ECC storage architecture (structural)\n\
         -------------------------------------------------------------------\n\
         parity arrays           one per way ({} ways), 1 bit / 64 data bits\n\
         shared ECC array        one entry per set: {} entries x {} B\n\
         written bits            1 per line ({} bits)\n\
         cleaning FSM            cycle counter + {}-bit next-set latch\n\
         probe cadence @1M       one set every {} cycles\n\
         arbitration             L1 misses have priority over cleaning probes\n\n",
        l2.ways,
        l2.sets(),
        l2.line_bytes / 8,
        l2.lines(),
        fsm.latch_bits(),
        fsm.probe_period()
    )
}

/// **§5.2 area accounting**: conventional vs proposed protection storage.
fn area_text() -> String {
    let model = AreaModel::new(&HierarchyConfig::date2006().l2);
    let (conventional, proposed) = (model.conventional(), model.proposed());
    format!(
        "§5.2 area accounting (1MB 4-way L2, 64B lines)\n\
         ----------------------------------------------\n\
         {}\n{}\nreduction: {:.1}% (paper: 59%)\n",
        conventional.to_table(),
        proposed.to_table(),
        conventional.total().reduction_to(proposed.total()) * 100.0
    )
}

/// The `lifetimes` rows: for each benchmark (org), the mean dirty
/// lifetime and the fraction of lifetimes at least as long as each
/// cleaning interval — the lines a sweep at that interval can hope to
/// reclaim. The generational-behaviour evidence behind the paper's
/// cleaning technique; the lifetime histogram is not part of `RunStats`.
fn lifetime_rows(scale: Scale) -> Vec<(String, Vec<f64>)> {
    let (warmup, window) = match scale {
        Scale::Paper => (4_000_000u64, 12_000_000u64),
        Scale::Quick => (1_000_000, 2_500_000),
        Scale::Smoke => (30_000, 80_000),
    };
    Benchmark::all()
        .into_iter()
        .map(|b| {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::date2006(),
                SchemeKind::Uniform,
                b.generator(2006),
            );
            sys.hier.l2_mut().enable_lifetime_tracking();
            let mut now = sys.run(0, warmup);
            now = sys.run(now, window);
            sys.hier.l2_mut().flush_lifetimes(now);
            let h = sys
                .hier
                .l2()
                .lifetime_histogram()
                .expect("tracking enabled")
                .clone();
            (
                b.name().to_owned(),
                vec![
                    h.mean() / 1_000.0,
                    h.fraction_at_least(64 * 1024) * 100.0,
                    h.fraction_at_least(1024 * 1024) * 100.0,
                    h.fraction_at_least(4 * 1024 * 1024) * 100.0,
                    h.samples() as f64,
                ],
            )
        })
        .collect()
}

/// The `cleaners` rows: the paper's written-bit interval FSM vs.
/// Kaxiras-style decay cleaning vs. Lee et al.'s eager writeback (§2
/// related work), on the uniform-ECC L2. `SchemeKind` does not express
/// the decay and eager policies, so these runs bypass the lab.
fn cleaner_rows(scale: Scale) -> Vec<(String, Vec<f64>)> {
    let (warmup, window) = match scale {
        Scale::Paper => (12_000_000u64, 20_000_000u64),
        Scale::Quick => (1_500_000, 2_500_000),
        Scale::Smoke => (30_000, 50_000),
    };
    let sets = HierarchyConfig::date2006().l2.sets() as usize;
    let interval = CHOSEN_INTERVAL;
    let policies: Vec<(String, CleaningPolicy)> = vec![
        ("none (org)".into(), CleaningPolicy::None),
        (
            "written-bit@1M".into(),
            CleaningPolicy::written_bit(interval, sets),
        ),
        (
            "decay@1M".into(),
            CleaningPolicy::decay(interval, interval, sets),
        ),
        ("eager".into(), CleaningPolicy::eager(sets)),
    ];
    policies
        .into_iter()
        .map(|(label, policy)| {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::date2006(),
                SchemeKind::Uniform,
                Benchmark::Gap.generator(2006),
            );
            sys.set_cleaning_policy(policy);
            let now = sys.run(0, warmup);
            let wb0 = sys.hier.l2().stats().writebacks();
            let ops0 = sys.hier.ops().loads_stores();
            let committed0 = sys.cpu.stats().committed;
            let mut dirty_sum = 0.0;
            for tick in now..now + window {
                sys.step(tick);
                dirty_sum += sys.hier.l2_dirty_fraction();
            }
            let wb = sys.hier.l2().stats().writebacks() - wb0;
            let ops = sys.hier.ops().loads_stores() - ops0;
            (
                label,
                vec![
                    dirty_sum / window as f64 * 100.0,
                    wb as f64 / ops as f64 * 100.0,
                    (sys.cpu.stats().committed - committed0) as f64 / window as f64,
                ],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_sim::{LaneJob, Runner};

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn figure_rendering_includes_mean() {
        let fig = FigureData {
            title: "T".into(),
            row_header: "b".into(),
            columns: vec!["x".into()],
            rows: vec![("a".into(), vec![1.0]), ("b".into(), vec![3.0])],
            decimals: 1,
        };
        let text = fig.to_text();
        assert!(text.contains("MEAN"));
        assert!(text.contains("2.0"));
        assert!((fig.column_mean(0) - 2.0).abs() < 1e-12);
        assert_eq!(fig.to_csv().lines().count(), 3);
    }

    #[test]
    fn lab_memoizes_runs() {
        let mut lab = Lab::new(Scale::Smoke);
        let a = lab.stats(Benchmark::Gzip, SchemeKind::Uniform);
        assert_eq!(lab.runs(), 1);
        let totals = lab.totals();
        let b = lab.stats(Benchmark::Gzip, SchemeKind::Uniform);
        assert_eq!(lab.runs(), 1, "second call must hit the cache");
        // A batch line is printed for every batch that plans anything; a
        // memo hit submits no batch at all.
        assert_eq!(lab.totals(), totals, "a memo hit is not a batch");
        assert_eq!(a, b);
    }

    /// A short-window configuration, so plans of hundreds stay cheap.
    fn tiny(bench: Benchmark, scheme: SchemeKind) -> ExperimentConfig {
        let mut cfg = Scale::Smoke.config(bench, scheme);
        cfg.warmup_cycles = 4_000;
        cfg.measure_cycles = 6_000;
        cfg
    }

    /// `exp`, the explorer and `exp serve` share `results/cache/`: an
    /// entry either client wrote is a disk hit for the other, with the
    /// identical stats.
    #[test]
    fn lab_and_engine_read_each_others_cache_entries() {
        let dir = std::env::temp_dir().join(format!("aep-lab-engine-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let from_lab_cfg = tiny(Benchmark::Gzip, proposed());
        let from_engine_cfg = tiny(Benchmark::Mcf, SchemeKind::Uniform);

        let mut writer = Lab::new(Scale::Smoke).with_disk_cache(RunCache::new(&dir));
        let from_lab = writer.stats_config(&from_lab_cfg);
        let engine = Engine::new(EngineConfig {
            jobs: 1,
            disk: Some(RunCache::new(&dir)),
            ..EngineConfig::new(Scale::Smoke)
        });
        let (_, recalled, source) = engine
            .submit_and_wait(Scale::Smoke, from_lab_cfg)
            .expect("disk hit");
        assert_eq!(source, RunSource::Disk);
        assert_bit_identical(&from_lab, &recalled);
        let (_, from_engine, source) = engine
            .submit_and_wait(Scale::Smoke, from_engine_cfg.clone())
            .expect("fresh run");
        assert_eq!(source, RunSource::Fresh);
        engine.join();

        let mut reader = Lab::new(Scale::Smoke).with_disk_cache(RunCache::new(&dir));
        let recalled = reader.stats_config(&from_engine_cfg);
        assert_eq!(reader.totals().disk_hits, 1);
        assert_eq!(reader.totals().evaluated, 0);
        assert_bit_identical(&from_engine, &recalled);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A lab plan is never shed, however long: in-process plans outgrow
    /// the daemon's default admission limit.
    #[test]
    fn plans_longer_than_the_default_queue_depth_resolve() {
        let n = EngineConfig::new(Scale::Smoke).queue_depth + 44;
        let plan: Vec<ExperimentConfig> = (0..n as u64)
            .map(|seed| ExperimentConfig {
                seed,
                ..tiny(Benchmark::Gzip, SchemeKind::Uniform)
            })
            .collect();
        let mut lab = Lab::new(Scale::Smoke).jobs(2);
        lab.prefetch_configs(&plan);
        assert_eq!(lab.totals().evaluated, n);
        assert_eq!(lab.runs(), n);
        for cfg in &plan {
            assert_eq!(lab.planned(cfg).benchmark, cfg.benchmark);
        }
    }

    /// Asserts two stats are equal down to the f64 bit patterns (plain
    /// `==` would also accept `-0.0 == 0.0`).
    fn assert_bit_identical(a: &RunStats, b: &RunStats) {
        assert_eq!(a, b);
        for (x, y) in [
            (a.ipc, b.ipc),
            (a.l2.avg_dirty_fraction, b.l2.avg_dirty_fraction),
            (a.l2.avg_dirty_lines, b.l2.avg_dirty_lines),
            (a.l2.final_dirty_fraction, b.l2.final_dirty_fraction),
            (a.mispredict_ratio, b.mispredict_ratio),
            (a.l1d_miss_ratio, b.l1d_miss_ratio),
            (a.l2_miss_ratio, b.l2_miss_ratio),
        ] {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn parallel_prefetch_is_bit_identical_to_serial() {
        let plan: Vec<PlannedRun> = [Benchmark::Gzip, Benchmark::Mcf, Benchmark::Applu]
            .into_iter()
            .flat_map(|b| [(b.into(), SchemeKind::Uniform), (b.into(), proposed())])
            .collect();
        let mut serial = Lab::new(Scale::Smoke);
        serial.prefetch(&plan);
        let mut parallel = Lab::new(Scale::Smoke).jobs(4);
        parallel.prefetch(&plan);
        assert_eq!(serial.runs(), plan.len());
        assert_eq!(parallel.runs(), plan.len());
        for (b, k) in &plan {
            assert_bit_identical(&serial.stats(b.clone(), *k), &parallel.stats(b.clone(), *k));
        }
    }

    /// The execute tier batches shareable configurations into one lane
    /// run — the result attributed to each configuration must still be
    /// bit-identical to a direct serial run of that configuration (a
    /// mapping bug would swap lanes' stats silently).
    #[test]
    fn lane_batched_prefetch_is_bit_identical_to_direct_runs() {
        let mut shareable = Scale::Smoke.config(Benchmark::Gzip, SchemeKind::ParityOnly);
        shareable.scrub_period = Some(2048);
        let plan = vec![
            Scale::Smoke.config(Benchmark::Gzip, SchemeKind::Uniform),
            Scale::Smoke.config(Benchmark::Gzip, SchemeKind::ParityOnly),
            shareable,
            // A directive emitter in the same plan must run solo.
            Scale::Smoke.config(Benchmark::Gzip, proposed()),
            // Same shareable scheme, different benchmark: different
            // machine, so it cannot join the Gzip batch.
            Scale::Smoke.config(Benchmark::Mcf, SchemeKind::Uniform),
        ];
        let jobs = aep_sim::plan_lane_jobs(&plan.iter().collect::<Vec<_>>());
        let batches = jobs
            .iter()
            .filter(|j| matches!(j, LaneJob::Batch { .. }))
            .count();
        assert_eq!(
            batches, 1,
            "the three Gzip shareable configs form one batch"
        );
        assert_eq!(jobs.len(), 3, "one batch plus two solos");

        let mut lab = Lab::new(Scale::Smoke);
        lab.prefetch_configs(&plan);
        assert_eq!(lab.runs(), plan.len());
        for cfg in &plan {
            let direct = Runner::new(cfg.clone()).run();
            assert_bit_identical(&lab.stats_config(cfg), &direct);
        }
    }

    #[test]
    fn disk_cache_roundtrip_through_lab_is_lossless() {
        let dir = std::env::temp_dir().join(format!("aep-lab-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let mut warm = Lab::new(Scale::Smoke).with_disk_cache(RunCache::new(&dir));
        let fresh = warm.stats(Benchmark::Gzip, proposed());

        // A new lab over the same directory recalls the identical stats.
        let mut cold = Lab::new(Scale::Smoke).with_disk_cache(RunCache::new(&dir));
        let recalled = cold.stats(Benchmark::Gzip, proposed());
        assert_bit_identical(&fresh, &recalled);

        // Prove the disk tier is actually consulted (determinism alone
        // would mask a silent re-run): plant a sentinel entry and check
        // the lab serves it instead of simulating.
        let cache = RunCache::new(&dir);
        let cfg = Scale::Smoke.config(Benchmark::Mcf, SchemeKind::Uniform);
        let mut sentinel = fresh.clone();
        sentinel.benchmark = Benchmark::Mcf.into();
        sentinel.scheme = SchemeKind::Uniform;
        sentinel.committed = 123_456_789;
        cache
            .store(&RunCache::key("smoke", &cfg), &sentinel)
            .expect("store sentinel");
        let mut planted = Lab::new(Scale::Smoke).with_disk_cache(cache);
        assert_eq!(
            planted.stats(Benchmark::Mcf, SchemeKind::Uniform).committed,
            123_456_789,
            "lab must serve the disk entry, not re-simulate"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "simulation worker panicked: measure_cycles must be positive")]
    fn a_failed_run_panics_the_lab_with_the_engines_message() {
        let mut cfg = tiny(Benchmark::Gzip, proposed());
        cfg.measure_cycles = 0;
        Lab::new(Scale::Smoke).prefetch_configs(&[cfg]);
    }

    #[test]
    fn plans_cover_their_figures() {
        // A figure reads only its declared plan: rendering runs exactly
        // the plan's distinct configurations, nothing more.
        for slug in ["fig1", "perf", "sensitivity"] {
            let fig = figure(slug).expect("declared");
            let mut lab = Lab::new(Scale::Smoke);
            let Output::Table(data) = fig.render(&mut lab) else {
                panic!("{slug} is a table");
            };
            let distinct: std::collections::HashSet<String> = fig
                .plan(Scale::Smoke)
                .iter()
                .map(|cfg| RunCache::key("smoke", cfg))
                .collect();
            assert_eq!(lab.runs(), distinct.len(), "{slug} ran outside its plan");
            assert!(!data.rows.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "read outside the plan")]
    fn reading_an_unplanned_config_panics() {
        let mut lab = Lab::new(Scale::Smoke);
        lab.prefetch(&[(Benchmark::Gzip.into(), SchemeKind::Uniform)]);
        let _ = lab.planned(&Scale::Smoke.config(Benchmark::Gzip, proposed()));
    }

    #[test]
    fn all_configs_is_the_union_of_figure_plans() {
        let all = all_configs();
        // fig1 (14), fig3-fig6 (4 x 7 x 5), fig7, fig8 (14 each), perf (28);
        // 84 distinct.
        assert_eq!(all.len(), 210);
        let distinct: std::collections::HashSet<String> =
            all.iter().map(|run| format!("{run:?}")).collect();
        assert_eq!(distinct.len(), 84);
        let mut expected = Vec::new();
        for fig in figures().iter().filter(|f| f.in_all) {
            for cfg in fig.plan(Scale::Smoke) {
                expected.push((cfg.benchmark, cfg.scheme));
            }
        }
        assert_eq!(all, expected, "all_configs is every exp-all plan, in order");
    }

    #[test]
    fn slugs_are_unique_and_dispatchable() {
        let figs = figures();
        for fig in &figs {
            assert_eq!(figs.iter().filter(|f| f.slug == fig.slug).count(), 1);
        }
        let all: Vec<&str> = figs.iter().filter(|f| f.in_all).map(|f| f.slug).collect();
        assert_eq!(
            all,
            [
                "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "perf",
                "area"
            ]
        );
    }
}
