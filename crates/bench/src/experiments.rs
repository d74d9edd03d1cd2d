//! Shared experiment orchestration for the `exp` binary and the benches.
//!
//! Every figure of the paper maps to one function here returning a
//! [`FigureData`] (labels + per-benchmark rows) that the caller renders as
//! text or CSV. Figures share (benchmark, scheme) configurations — e.g.
//! Figures 3 and 5 are two views of the same interval sweep — so all
//! functions draw their runs from a memoizing [`Lab`]: each configuration
//! is simulated exactly once per process.
//!
//! Execution is **plan-then-execute**: each figure has a `*_configs()`
//! companion declaring the exact (benchmark, scheme) set it needs, and
//! the figure function submits that plan to [`Lab::prefetch`] before
//! reading any result. The lab dedupes the plan against its memo and the
//! optional on-disk [`RunCache`], then fans the remaining runs out across
//! [`std::thread::scope`] workers (`Lab::jobs`). Runs are deterministic
//! in their config alone, so the worker count never changes a figure —
//! only how fast it arrives.

use std::collections::HashMap;

use aep_core::SchemeKind;
use aep_faultsim::fan_out;
// The execute-tier planner (`LaneJob` + `plan_lane_jobs`) lives in
// `aep_sim::lanes` now — the `exp serve` daemon's scheduler batches
// concurrent clients' submissions through the same code path.
use aep_sim::{LaneJob, RunStats, Runner, Table};
use aep_workloads::calibration::CHOSEN_INTERVAL;
use aep_workloads::{BenchKind, Benchmark, Workload};

use aep_sim::runcache::RunCache;

// `Scale` lives in `aep-sim` now (the explorer and the figure pipeline
// share it); re-exported here so existing call sites keep compiling.
pub use aep_sim::Scale;

// The scheme sets behind every figure live in the `aep-dse` registry —
// one declaration serves the figure pipeline and the explorer's default
// axes alike.
pub use aep_dse::registry::{
    ablation_schemes as ablation_scheme_set, comparison_schemes, interval_axis,
    interval_sweep_schemes, proposed,
};

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

/// A memoizing experiment laboratory: runs each configuration at most
/// once per process, optionally spilling results to (and recalling them
/// from) an on-disk [`RunCache`], and executing batched plans across
/// worker threads.
///
/// The memo is keyed by the full [`RunCache`] key — scale, benchmark,
/// scheme, seed, and a hash of the whole [`aep_sim::ExperimentConfig`] —
/// so the explorer's off-grid points (non-Table-1 geometry, scrubbing)
/// share the same engine and cache as the figure pipeline's
/// (benchmark, scheme) plans.
#[derive(Debug)]
pub struct Lab {
    scale: Scale,
    cache: HashMap<String, RunStats>,
    verbose: bool,
    jobs: usize,
    disk: Option<RunCache>,
    totals: BatchSummary,
}

impl Lab {
    /// Creates a serial lab at the given scale (no disk cache).
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Lab {
            scale,
            cache: HashMap::new(),
            verbose: false,
            jobs: 1,
            disk: None,
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
        let configs: Vec<aep_sim::ExperimentConfig> = plan
            .iter()
            .map(|(benchmark, scheme)| self.scale.config(benchmark.clone(), *scheme))
            .collect();
        self.prefetch_configs(&configs);
    }

    /// Ensures every configuration in `plan` is resolved, fanning cache
    /// misses out across up to `jobs` worker threads, and emits a
    /// one-line batch summary (planned / memo hits / disk hits /
    /// evaluated) on stderr.
    ///
    /// The plan is deduplicated (first occurrence wins), then satisfied
    /// in three tiers: the in-process memo, the disk cache (if attached),
    /// and finally fresh simulation. Fresh results merge into the memo in
    /// plan order — deterministically, regardless of which worker
    /// finished first — and are written back to the disk cache.
    /// Cache-directory I/O errors are reported (and treated as misses)
    /// instead of silently recomputing.
    pub fn prefetch_configs(&mut self, plan: &[aep_sim::ExperimentConfig]) {
        let mut summary = BatchSummary::default();
        // Plan: dedupe (first occurrence wins), count memo hits.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        let mut pending: Vec<(String, &aep_sim::ExperimentConfig)> = Vec::new();
        for cfg in plan {
            let key = RunCache::key(self.scale.name(), cfg);
            if !seen.insert(key.clone()) {
                continue;
            }
            summary.planned += 1;
            if self.cache.contains_key(&key) {
                summary.memo_hits += 1;
                continue;
            }
            pending.push((key, cfg));
        }
        // Recall tier: the disk cache.
        let mut misses: Vec<(String, &aep_sim::ExperimentConfig)> = Vec::new();
        for (key, cfg) in pending {
            if let Some(disk) = &self.disk {
                match disk.load_checked(&key) {
                    Ok(Some(stats)) => {
                        if self.verbose {
                            eprintln!("[lab] disk hit {} / {}", cfg.benchmark, cfg.scheme.label());
                        }
                        summary.disk_hits += 1;
                        self.cache.insert(key, stats);
                        continue;
                    }
                    Ok(None) => {}
                    Err(e) => {
                        eprintln!(
                            "[lab] warning: cannot read cache entry {key}: {e} \
                             (re-simulating)"
                        );
                    }
                }
            }
            misses.push((key, cfg));
        }
        // Execute tier: simulate the misses. Shareable-trajectory
        // configurations (same machine and workload, directive-free
        // schemes with one cleaning interval) are batched into a single
        // lane-parallel run ([`aep_sim::run_lanes`]) that amortises the
        // cpu+hierarchy trajectory across all of them; the rest run
        // serially. Jobs then fan out across worker threads. Lane
        // results are byte-identical to serial runs (enforced by the
        // lane engine's property tests), so caching and determinism are
        // unaffected by how the plan happened to batch.
        summary.evaluated = misses.len();
        let verbose = self.verbose;
        let miss_cfgs: Vec<&aep_sim::ExperimentConfig> =
            misses.iter().map(|(_, cfg)| *cfg).collect();
        let lane_jobs = aep_sim::plan_lane_jobs(&miss_cfgs);
        let job_results = fan_out(lane_jobs.len(), self.jobs, |j| match &lane_jobs[j] {
            LaneJob::Batch {
                cfg,
                specs,
                indices,
            } => {
                if verbose {
                    eprintln!(
                        "[lab] lane batch: {} lanes / {} ({})",
                        specs.len(),
                        cfg.benchmark,
                        specs
                            .iter()
                            .map(aep_sim::LaneSpec::label)
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                }
                let lane_results = aep_sim::run_lanes(cfg, specs);
                indices
                    .iter()
                    .copied()
                    .zip(lane_results.into_iter().map(|r| r.stats))
                    .collect::<Vec<(usize, RunStats)>>()
            }
            LaneJob::Solo(i) => {
                let cfg = misses[*i].1;
                if verbose {
                    eprintln!("[lab] running {} / {}", cfg.benchmark, cfg.scheme.label());
                }
                vec![(*i, Runner::new(cfg.clone()).run())]
            }
        });
        let mut by_index: Vec<Option<RunStats>> = vec![None; misses.len()];
        for (i, stats) in job_results.into_iter().flatten() {
            by_index[i] = Some(stats);
        }
        let results = by_index
            .into_iter()
            .map(|s| s.expect("every miss is resolved by exactly one job"));
        for ((key, _), stats) in misses.into_iter().zip(results) {
            if let Some(disk) = &self.disk {
                if let Err(e) = disk.store(&key, &stats) {
                    eprintln!(
                        "[lab] warning: cannot write cache entry {key}: {e} \
                         (continuing uncached)"
                    );
                }
            }
            self.cache.insert(key, stats);
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
    /// entry point: geometry and scrub deviations welcome).
    pub fn stats_config(&mut self, cfg: &aep_sim::ExperimentConfig) -> RunStats {
        let key = RunCache::key(self.scale.name(), cfg);
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        self.prefetch_configs(std::slice::from_ref(cfg));
        self.cache[&key].clone()
    }

    /// Number of distinct configurations resolved so far (simulated or
    /// recalled from disk).
    #[must_use]
    pub fn runs(&self) -> usize {
        self.cache.len()
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
    /// Renders as an aligned text table with a MEAN row.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut headers = vec![self.row_header.clone()];
        headers.extend(self.columns.iter().cloned());
        let mut t = Table::new(headers);
        for (label, values) in &self.rows {
            t.numeric_row(label, values, self.decimals);
        }
        if !self.rows.is_empty() {
            let cols = self.columns.len();
            let means: Vec<f64> = (0..cols).map(|c| self.column_mean(c)).collect();
            t.numeric_row("MEAN", &means, self.decimals);
        }
        format!("{}\n{}", self.title, t.to_text())
    }

    /// Renders as GitHub-flavoured markdown (no mean row).
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut headers = vec![self.row_header.clone()];
        headers.extend(self.columns.iter().cloned());
        let mut t = Table::new(headers);
        for (label, values) in &self.rows {
            t.numeric_row(label, values, self.decimals);
        }
        t.to_markdown()
    }

    /// Renders as CSV (no mean row).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut headers = vec![self.row_header.clone()];
        headers.extend(self.columns.iter().cloned());
        let mut t = Table::new(headers);
        for (label, values) in &self.rows {
            t.numeric_row(label, values, self.decimals);
        }
        t.to_csv()
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

    /// The value for one benchmark row (by its lower-case name).
    #[must_use]
    pub fn value(&self, benchmark: &str, col: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(name, _)| name == benchmark)
            .map(|(_, v)| v[col])
    }
}

fn benchmarks_of(kind: Option<BenchKind>) -> Vec<Benchmark> {
    match kind {
        None => Benchmark::all().to_vec(),
        Some(BenchKind::Fp) => Benchmark::fp().to_vec(),
        Some(BenchKind::Int) => Benchmark::int().to_vec(),
    }
}

/// Cross product of workloads × schemes, in row-major (workload) order.
fn cross(benches: &[Benchmark], schemes: &[SchemeKind]) -> Vec<PlannedRun> {
    benches
        .iter()
        .flat_map(|&b| schemes.iter().map(move |&k| (Workload::from(b), k)))
        .collect()
}

/// The runs [`fig1`] needs.
#[must_use]
pub fn fig1_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &[SchemeKind::Uniform])
}

/// The runs [`fig3_fig4`] needs for `kind`.
#[must_use]
pub fn fig3_fig4_configs(kind: BenchKind) -> Vec<PlannedRun> {
    cross(&benchmarks_of(Some(kind)), &interval_sweep_schemes())
}

/// The runs [`fig5_fig6`] needs for `kind` (same sweep as Figures 3/4).
#[must_use]
pub fn fig5_fig6_configs(kind: BenchKind) -> Vec<PlannedRun> {
    fig3_fig4_configs(kind)
}

/// The runs [`fig7`] needs.
#[must_use]
pub fn fig7_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &[proposed()])
}

/// The runs [`fig8`] needs.
#[must_use]
pub fn fig8_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &[proposed()])
}

/// The runs [`perf`] needs.
#[must_use]
pub fn perf_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &comparison_schemes())
}

/// The runs [`calibrate`] needs.
#[must_use]
pub fn calibrate_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &[SchemeKind::Uniform])
}

/// The runs [`ablation_schemes`] needs.
#[must_use]
pub fn ablation_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &ablation_scheme_set())
}

/// The runs [`reliability`] needs.
#[must_use]
pub fn reliability_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &comparison_schemes())
}

/// The runs [`energy`] needs.
#[must_use]
pub fn energy_configs() -> Vec<PlannedRun> {
    cross(&benchmarks_of(None), &comparison_schemes())
}

/// The union of every lab-driven figure's plan, in `exp all` emission
/// order — `exp all` submits this once up front so the whole session
/// parallelises as a single batch instead of figure by figure.
#[must_use]
pub fn all_configs() -> Vec<PlannedRun> {
    let mut plan = fig1_configs();
    plan.extend(fig3_fig4_configs(BenchKind::Fp));
    plan.extend(fig3_fig4_configs(BenchKind::Int));
    plan.extend(fig5_fig6_configs(BenchKind::Fp));
    plan.extend(fig5_fig6_configs(BenchKind::Int));
    plan.extend(fig7_configs());
    plan.extend(fig8_configs());
    plan.extend(perf_configs());
    plan
}

/// **Figure 1**: percentage of dirty L2 lines per cycle, org configuration.
pub fn fig1(lab: &mut Lab) -> FigureData {
    lab.prefetch(&fig1_configs());
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let stats = lab.stats(b, SchemeKind::Uniform);
            (
                b.name().to_owned(),
                vec![stats.l2.avg_dirty_fraction * 100.0],
            )
        })
        .collect();
    FigureData {
        title: "Figure 1: % dirty L2 lines per cycle (1MB 4-way, no cleaning)".into(),
        row_header: "benchmark".into(),
        columns: vec!["%dirty".into()],
        rows,
        decimals: 1,
    }
}

fn interval_columns() -> Vec<String> {
    let mut columns: Vec<String> = interval_axis()
        .into_iter()
        .map(aep_core::scheme::human_interval)
        .collect();
    columns.push("org".into());
    columns
}

/// **Figures 3/4**: % dirty lines per cycle vs cleaning interval
/// (Figure 3 = FP, Figure 4 = INT).
pub fn fig3_fig4(lab: &mut Lab, kind: BenchKind) -> FigureData {
    lab.prefetch(&fig3_fig4_configs(kind));
    let rows = benchmarks_of(Some(kind))
        .into_iter()
        .map(|b| {
            let mut values: Vec<f64> = interval_axis()
                .into_iter()
                .map(|interval| {
                    lab.stats(
                        b,
                        SchemeKind::UniformWithCleaning {
                            cleaning_interval: interval,
                        },
                    )
                    .l2
                    .avg_dirty_fraction
                        * 100.0
                })
                .collect();
            values.push(lab.stats(b, SchemeKind::Uniform).l2.avg_dirty_fraction * 100.0);
            (b.name().to_owned(), values)
        })
        .collect();
    let figno = if kind == BenchKind::Fp { 3 } else { 4 };
    FigureData {
        title: format!("Figure {figno}: % dirty lines per cycle vs cleaning interval ({kind})"),
        row_header: "benchmark".into(),
        columns: interval_columns(),
        rows,
        decimals: 1,
    }
}

/// **Figures 5/6**: write-back traffic (% of loads/stores) vs interval
/// (Figure 5 = FP, Figure 6 = INT), including the `org` bar.
pub fn fig5_fig6(lab: &mut Lab, kind: BenchKind) -> FigureData {
    lab.prefetch(&fig5_fig6_configs(kind));
    let rows = benchmarks_of(Some(kind))
        .into_iter()
        .map(|b| {
            let mut values: Vec<f64> = interval_axis()
                .into_iter()
                .map(|interval| {
                    lab.stats(
                        b,
                        SchemeKind::UniformWithCleaning {
                            cleaning_interval: interval,
                        },
                    )
                    .l2
                    .wb_percent()
                })
                .collect();
            values.push(lab.stats(b, SchemeKind::Uniform).l2.wb_percent());
            (b.name().to_owned(), values)
        })
        .collect();
    let figno = if kind == BenchKind::Fp { 5 } else { 6 };
    FigureData {
        title: format!(
            "Figure {figno}: write-backs as % of all loads/stores vs cleaning interval ({kind})"
        ),
        row_header: "benchmark".into(),
        columns: interval_columns(),
        rows,
        decimals: 2,
    }
}

/// **Figure 7**: % dirty lines per cycle under the full proposed scheme
/// (cleaning @ 1M + shared per-set ECC array).
pub fn fig7(lab: &mut Lab) -> FigureData {
    lab.prefetch(&fig7_configs());
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let stats = lab.stats(b, proposed());
            (
                b.name().to_owned(),
                vec![stats.l2.avg_dirty_fraction * 100.0],
            )
        })
        .collect();
    FigureData {
        title: "Figure 7: % dirty lines per cycle, proposed scheme (clean@1M + ECC array)".into(),
        row_header: "benchmark".into(),
        columns: vec!["%dirty".into()],
        rows,
        decimals: 1,
    }
}

/// **Figure 8**: write-back breakdown (Clean-WB / WB / ECC-WB as % of all
/// loads/stores) under the proposed scheme.
pub fn fig8(lab: &mut Lab) -> FigureData {
    lab.prefetch(&fig8_configs());
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let s = lab.stats(b, proposed());
            let w = &s.l2;
            (
                b.name().to_owned(),
                vec![
                    w.wb_percent_of(w.wb_cleaning),
                    w.wb_percent_of(w.wb_replacement),
                    w.wb_percent_of(w.wb_ecc),
                    w.wb_percent(),
                ],
            )
        })
        .collect();
    FigureData {
        title: "Figure 8: write-back breakdown, proposed scheme (% of all loads/stores)".into(),
        row_header: "benchmark".into(),
        columns: vec![
            "Clean-WB".into(),
            "WB".into(),
            "ECC-WB".into(),
            "total".into(),
        ],
        rows,
        decimals: 3,
    }
}

/// **§5.2 performance**: IPC of org vs proposed, and the loss percentage.
pub fn perf(lab: &mut Lab) -> FigureData {
    lab.prefetch(&perf_configs());
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let base = lab.stats(b, SchemeKind::Uniform);
            let ours = lab.stats(b, proposed());
            let loss = (base.ipc - ours.ipc) / base.ipc * 100.0;
            (b.name().to_owned(), vec![base.ipc, ours.ipc, loss])
        })
        .collect();
    FigureData {
        title: "§5.2 performance: IPC, org vs proposed".into(),
        row_header: "benchmark".into(),
        columns: vec!["IPC org".into(), "IPC proposed".into(), "loss %".into()],
        rows,
        decimals: 3,
    }
}

/// Calibration sweep: org dirty%, WB%, IPC, and cache behaviour for every
/// benchmark (used to tune the workload models; not a paper figure).
pub fn calibrate(lab: &mut Lab) -> FigureData {
    lab.prefetch(&calibrate_configs());
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let s = lab.stats(b, SchemeKind::Uniform);
            (
                b.name().to_owned(),
                vec![
                    s.l2.avg_dirty_fraction * 100.0,
                    s.l2.wb_percent(),
                    s.ipc,
                    s.l1d_miss_ratio * 100.0,
                    s.l2_miss_ratio * 100.0,
                    s.mispredict_ratio * 100.0,
                ],
            )
        })
        .collect();
    FigureData {
        title: "Calibration (org): dirty%, WB%, IPC, miss ratios".into(),
        row_header: "benchmark".into(),
        columns: vec![
            "%dirty".into(),
            "%WB".into(),
            "IPC".into(),
            "L1D miss%".into(),
            "L2 miss%".into(),
            "mispred%".into(),
        ],
        rows,
        decimals: 2,
    }
}

/// Ablation: dirty fraction and WB% for 1 vs 2 ECC entries per set is a
/// *structural* question answered by [`aep_core::AreaModel`]; the dynamic
/// ablation here contrasts the proposed scheme against cleaning-only and
/// parity-only at the chosen interval.
pub fn ablation_schemes(lab: &mut Lab) -> FigureData {
    lab.prefetch(&ablation_configs());
    let configs = aep_dse::registry::ablation_lineup();
    let rows = benchmarks_of(None)
        .into_iter()
        .map(|b| {
            let values: Vec<f64> = configs
                .iter()
                .flat_map(|&(_, k)| {
                    let s = lab.stats(b, k);
                    [s.l2.avg_dirty_fraction * 100.0, s.l2.wb_percent()]
                })
                .collect();
            (b.name().to_owned(), values)
        })
        .collect();
    FigureData {
        title: "Ablation: dirty% and WB% across protection configurations".into(),
        row_header: "benchmark".into(),
        columns: configs
            .iter()
            .flat_map(|&(n, _)| [format!("{n} dirty%"), format!("{n} WB%")])
            .collect(),
        rows,
        decimals: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(fig.value("a", 0), Some(1.0));
        assert_eq!(fig.value("zzz", 0), None);
    }

    #[test]
    fn lab_memoizes_runs() {
        let mut lab = Lab::new(Scale::Smoke);
        let a = lab.stats(Benchmark::Gzip, SchemeKind::Uniform);
        assert_eq!(lab.runs(), 1);
        let b = lab.stats(Benchmark::Gzip, SchemeKind::Uniform);
        assert_eq!(lab.runs(), 1, "second call must hit the cache");
        assert_eq!(a, b);
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
        let plan = cross(
            &[Benchmark::Gzip, Benchmark::Mcf, Benchmark::Applu],
            &[SchemeKind::Uniform, proposed()],
        );
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
    fn plans_cover_their_figures() {
        // Each figure's plan must contain every config the figure reads;
        // run at smoke scale and confirm no figure triggers extra runs
        // beyond its declared plan.
        let mut lab = Lab::new(Scale::Smoke);
        lab.prefetch(&fig1_configs());
        let declared = lab.runs();
        let _ = fig1(&mut lab);
        assert_eq!(lab.runs(), declared, "fig1 ran outside its plan");

        let mut lab = Lab::new(Scale::Smoke);
        lab.prefetch(&perf_configs());
        let declared = lab.runs();
        let _ = perf(&mut lab);
        assert_eq!(lab.runs(), declared, "perf ran outside its plan");
    }

    #[test]
    fn all_configs_is_the_union_of_figure_plans() {
        let all = all_configs();
        for plan in [
            fig1_configs(),
            fig3_fig4_configs(BenchKind::Fp),
            fig5_fig6_configs(BenchKind::Int),
            fig7_configs(),
            fig8_configs(),
            perf_configs(),
        ] {
            for run in plan {
                assert!(all.contains(&run), "{run:?} missing from all_configs");
            }
        }
    }
}

/// A cheap, single-benchmark probe of each table/figure's pipeline, used
/// by the Criterion benches (`benches/figures.rs`) as regression guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FigureProbe {
    /// Table 1 (configuration construction + validation).
    Table1,
    /// Figure 1 (org dirty census) on `gap`.
    Fig1,
    /// Figure 3 (FP interval sweep point) on `applu` @256K.
    Fig3,
    /// Figure 4 (INT interval sweep point) on `gap` @256K.
    Fig4,
    /// Figure 5 (FP WB traffic point) on `equake` @1M.
    Fig5,
    /// Figure 6 (INT WB traffic point) on `parser` @1M.
    Fig6,
    /// Figure 7 (proposed dirty census) on `mesa`.
    Fig7,
    /// Figure 8 (proposed WB breakdown) on `gzip`.
    Fig8,
    /// §5.2 IPC comparison on `vpr`.
    Perf,
    /// §5.2 area accounting (closed-form).
    Area,
}

impl FigureProbe {
    /// Every probe, in paper order.
    #[must_use]
    pub fn all() -> [FigureProbe; 10] {
        [
            FigureProbe::Table1,
            FigureProbe::Fig1,
            FigureProbe::Fig3,
            FigureProbe::Fig4,
            FigureProbe::Fig5,
            FigureProbe::Fig6,
            FigureProbe::Fig7,
            FigureProbe::Fig8,
            FigureProbe::Perf,
            FigureProbe::Area,
        ]
    }

    /// The Criterion bench name.
    #[must_use]
    pub fn bench_name(self) -> &'static str {
        match self {
            FigureProbe::Table1 => "table1_config",
            FigureProbe::Fig1 => "fig1_dirty_baseline",
            FigureProbe::Fig3 => "fig3_interval_sweep_fp",
            FigureProbe::Fig4 => "fig4_interval_sweep_int",
            FigureProbe::Fig5 => "fig5_wb_traffic_fp",
            FigureProbe::Fig6 => "fig6_wb_traffic_int",
            FigureProbe::Fig7 => "fig7_proposed_dirty",
            FigureProbe::Fig8 => "fig8_wb_breakdown",
            FigureProbe::Perf => "perf_ipc_loss",
            FigureProbe::Area => "area_accounting",
        }
    }
}

/// Runs one probe and returns its headline metric.
#[must_use]
pub fn run_figure_probe(probe: FigureProbe) -> f64 {
    let smoke =
        |b: Benchmark, k: SchemeKind| Runner::new(aep_sim::ExperimentConfig::fast_test(b, k)).run();
    let clean = |i: u64| SchemeKind::UniformWithCleaning {
        cleaning_interval: i,
    };
    match probe {
        FigureProbe::Table1 => {
            let core = aep_cpu::CoreConfig::date2006();
            let hier = aep_mem::HierarchyConfig::date2006();
            hier.validate().expect("Table 1 must validate");
            (core.ruu_entries + hier.write_buffer_entries) as f64
        }
        FigureProbe::Fig1 => {
            smoke(Benchmark::Gap, SchemeKind::Uniform)
                .l2
                .avg_dirty_fraction
        }
        FigureProbe::Fig3 => {
            smoke(Benchmark::Applu, clean(256 * 1024))
                .l2
                .avg_dirty_fraction
        }
        FigureProbe::Fig4 => {
            smoke(Benchmark::Gap, clean(256 * 1024))
                .l2
                .avg_dirty_fraction
        }
        FigureProbe::Fig5 => smoke(Benchmark::Equake, clean(1024 * 1024)).l2.wb_percent(),
        FigureProbe::Fig6 => smoke(Benchmark::Parser, clean(1024 * 1024)).l2.wb_percent(),
        FigureProbe::Fig7 => smoke(Benchmark::Mesa, proposed()).l2.avg_dirty_fraction,
        FigureProbe::Fig8 => {
            let s = smoke(Benchmark::Gzip, proposed());
            s.l2.wb_percent_of(s.l2.wb_ecc)
        }
        FigureProbe::Perf => {
            let base = smoke(Benchmark::Vpr, SchemeKind::Uniform);
            let ours = smoke(Benchmark::Vpr, proposed());
            (base.ipc - ours.ipc) / base.ipc
        }
        FigureProbe::Area => {
            let model = aep_core::AreaModel::new(&aep_mem::CacheConfig::date2006_l2());
            model
                .conventional()
                .total()
                .reduction_to(model.proposed().total())
        }
    }
}

/// Reliability table: measured dirty residency translated into first-order
/// FIT for each protection design (see `aep_core::reliability`).
pub fn reliability(lab: &mut Lab) -> FigureData {
    use aep_core::SoftErrorModel;
    lab.prefetch(&reliability_configs());
    let l2 = aep_mem::CacheConfig::date2006_l2();
    let model = SoftErrorModel::date2006_typical();
    let rows = Benchmark::all()
        .into_iter()
        .map(|b| {
            let org = lab.stats(b, SchemeKind::Uniform);
            let ours = lab.stats(b, proposed());
            let parity_org = model.parity_only(&l2, org.l2.avg_dirty_fraction);
            let parity_ours = model.parity_only(&l2, ours.l2.avg_dirty_fraction);
            (
                b.name().to_owned(),
                vec![
                    model.unprotected(&l2).sdc_fit,
                    parity_org.due_fit,
                    parity_ours.due_fit,
                    model.uniform_ecc(&l2).user_visible_fit(),
                    model
                        .proposed(&l2, ours.l2.avg_dirty_fraction)
                        .user_visible_fit(),
                ],
            )
        })
        .collect();
    FigureData {
        title: "Reliability: first-order FIT by design (1000 FIT/Mbit raw; DUE+SDC shown)".into(),
        row_header: "benchmark".into(),
        columns: vec![
            "none(SDC)".into(),
            "parity(org)".into(),
            "parity(+clean)".into(),
            "uniform".into(),
            "proposed".into(),
        ],
        rows,
        decimals: 0,
    }
}

/// Dirty-lifetime census: the generational-behaviour evidence behind the
/// paper's cleaning technique. For each benchmark (org configuration),
/// reports the mean dirty lifetime and the fraction of lifetimes at least
/// as long as each cleaning interval — the lines a sweep at that interval
/// can hope to reclaim.
#[must_use]
pub fn lifetimes(scale: Scale) -> FigureData {
    use aep_cpu::CoreConfig;
    use aep_mem::HierarchyConfig;
    use aep_sim::System;

    let (warmup, window) = match scale {
        Scale::Paper => (4_000_000u64, 12_000_000u64),
        Scale::Quick => (1_000_000, 2_500_000),
        Scale::Smoke => (30_000, 80_000),
    };
    let rows = Benchmark::all()
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
        .collect();
    FigureData {
        title: "Dirty-line lifetimes (org): generational behaviour census".into(),
        row_header: "benchmark".into(),
        columns: vec![
            "mean(Kcyc)".into(),
            "%>=64K".into(),
            "%>=1M".into(),
            "%>=4M".into(),
            "samples".into(),
        ],
        rows,
        decimals: 1,
    }
}

/// Cache-size sensitivity: the paper motivates with "large L2/L3 caches of
/// current processors" — this sweep scales the L2 from 512 KB to 4 MB and
/// reports the area accounting plus measured dirty fractions and traffic
/// for `gap` under org and proposed (keeping the paper's 1M cleaning
/// interval).
#[must_use]
pub fn sensitivity(scale: Scale) -> FigureData {
    use aep_core::AreaModel;
    use aep_sim::Runner;

    let rows = [512u64, 1024, 2048, 4096]
        .into_iter()
        .map(|kib| {
            let mut hierarchy = aep_mem::HierarchyConfig::date2006();
            hierarchy.l2.size_bytes = kib * 1024;
            let model = AreaModel::new(&hierarchy.l2);
            let conventional = model.conventional().total();
            let ours = model.proposed().total();

            let run = |scheme: SchemeKind| {
                let mut cfg = scale.config(Benchmark::Gap, scheme);
                cfg.hierarchy = hierarchy.clone();
                Runner::new(cfg).run()
            };
            let org = run(SchemeKind::Uniform);
            let prop = run(proposed());
            (
                format!("{kib}K"),
                vec![
                    conventional.kib(),
                    ours.kib(),
                    conventional.reduction_to(ours) * 100.0,
                    org.l2.avg_dirty_fraction * 100.0,
                    prop.l2.avg_dirty_fraction * 100.0,
                    prop.l2.wb_percent(),
                ],
            )
        })
        .collect();
    FigureData {
        title: "Sensitivity: L2 size sweep (gap; area model + measured behaviour)".into(),
        row_header: "L2 size".into(),
        columns: vec![
            "conv KiB".into(),
            "prop KiB".into(),
            "reduction%".into(),
            "org dirty%".into(),
            "prop dirty%".into(),
            "prop WB%".into(),
        ],
        rows,
        decimals: 1,
    }
}

/// Protection-energy comparison (the Li et al. angle): check/encode
/// energy per 1 000 loads/stores plus the energy of the extra write-backs
/// each configuration adds over org.
pub fn energy(lab: &mut Lab) -> FigureData {
    use aep_core::EnergyModel;
    lab.prefetch(&energy_configs());
    let model = EnergyModel::default_2006();
    let rows = Benchmark::all()
        .into_iter()
        .map(|b| {
            let org = lab.stats(b, SchemeKind::Uniform);
            let ours = lab.stats(b, proposed());
            let per_kops = |pj: f64, ls: u64| pj / (ls as f64 / 1_000.0);
            let org_checks = model.protection_energy_pj(org.energy);
            let ours_checks = model.protection_energy_pj(ours.energy);
            let extra_wb = ours.l2.wb_total().saturating_sub(org.l2.wb_total());
            let ours_total = model.total_energy_pj(ours.energy, extra_wb);
            (
                b.name().to_owned(),
                vec![
                    per_kops(org_checks, org.l2.loads_stores),
                    per_kops(ours_checks, ours.l2.loads_stores),
                    per_kops(ours_total, ours.l2.loads_stores),
                    if org_checks > 0.0 {
                        (1.0 - ours_checks / org_checks) * 100.0
                    } else {
                        0.0
                    },
                ],
            )
        })
        .collect();
    FigureData {
        title: "Protection energy (pJ per 1000 loads/stores): org vs proposed".into(),
        row_header: "benchmark".into(),
        columns: vec![
            "org checks".into(),
            "prop checks".into(),
            "prop total".into(),
            "check savings%".into(),
        ],
        rows,
        decimals: 1,
    }
}

/// Head-to-head comparison of early-write-back policies (§2 related
/// work): the paper's written-bit interval FSM vs. Kaxiras-style decay
/// cleaning vs. Lee et al.'s eager writeback, on the uniform-ECC L2.
#[must_use]
pub fn cleaners(scale: Scale) -> FigureData {
    use aep_core::cleaning::CleaningPolicy;
    use aep_cpu::CoreConfig;
    use aep_mem::HierarchyConfig;
    use aep_sim::System;

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
    let rows = policies
        .into_iter()
        .map(|(label, policy)| {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::date2006(),
                SchemeKind::Uniform,
                Benchmark::Gap.generator(2006),
            );
            sys.set_cleaning_policy(policy);
            let mut now = sys.run(0, warmup);
            let wb0 = sys.hier.l2().stats().writebacks();
            let ops0 = sys.hier.ops().loads_stores();
            let committed0 = sys.cpu.stats().committed;
            let mut dirty_sum = 0.0;
            for tick in now..now + window {
                sys.step(tick);
                dirty_sum += sys.hier.l2_dirty_fraction();
            }
            now += window;
            let _ = now;
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
        .collect();
    FigureData {
        title: "Cleaning-policy comparison on gap (uniform ECC L2)".into(),
        row_header: "policy".into(),
        columns: vec!["%dirty".into(), "%WB".into(), "IPC".into()],
        rows,
        decimals: 2,
    }
}

/// Seed-robustness study: Figure 1's dirty fraction for several workload
/// seeds, reported as mean ± sample standard deviation. Shows the
/// headline metrics are properties of the workload *model*, not of one
/// random stream.
#[must_use]
pub fn seeds(scale: Scale, n_seeds: u64) -> FigureData {
    use aep_sim::report::{mean, stddev};
    let rows = Benchmark::all()
        .into_iter()
        .map(|b| {
            let samples: Vec<f64> = (0..n_seeds)
                .map(|s| {
                    let mut cfg = scale.config(b, SchemeKind::Uniform);
                    cfg.seed = 1000 + s;
                    Runner::new(cfg).run().l2.avg_dirty_fraction * 100.0
                })
                .collect();
            (b.name().to_owned(), vec![mean(&samples), stddev(&samples)])
        })
        .collect();
    FigureData {
        title: format!("Seed robustness: org dirty% over {n_seeds} seeds (mean, sample sd)"),
        row_header: "benchmark".into(),
        columns: vec!["mean %dirty".into(), "sd".into()],
        rows,
        decimals: 2,
    }
}
