//! Dependency-free engine throughput harness (`exp bench`).
//!
//! Criterion measures the simulator's micro-substrates; this harness
//! answers the coarser engineering question — *how many simulated cycles
//! per wall-clock second does the full system sustain under each
//! protection scheme?* — with nothing but [`std::time::Instant`], so it
//! runs in the offline container and in CI. Results are printed as a
//! table and written as hand-rolled JSON to `BENCH_engine.json` for
//! machine comparison across commits.
//!
//! Two sections are measured:
//!
//! * **schemes** — a serial end-to-end run of every scheme in the
//!   ladder, in five interleaved rounds; each scheme reports its
//!   median round, so a drift in host speed slows every scheme alike
//!   instead of reordering them.
//! * **lanes** — a lane-parallel batch ([`aep_sim::run_lanes`]) over
//!   the shareable-trajectory lane set, reporting per-lane and
//!   *aggregate* throughput plus the speedup over the serial uniform
//!   baseline. Raw Mcycles/s is host-dependent, so cross-commit CI
//!   comparison ([`EngineBenchReport::check_floor`]) uses the
//!   `aggregate_speedup` ratio, which divides the host out. The ratio is
//!   the median of five interleaved baseline/batch pairs
//!   (`median_pair`), the rule `exp faults-bench` uses too.

use std::fmt::Write as _;
use std::time::Instant;

use aep_core::SchemeKind;
use aep_obs::json::{self, escape};
use aep_obs::provenance::git_commit;
use aep_sim::{run_lanes, ExperimentConfig, LaneSpec, Runner, Table};
use aep_workloads::Benchmark;

use crate::experiments::{proposed, Scale};
use aep_sim::runcache::scheme_slug;

/// One scheme's throughput measurement.
#[derive(Debug, Clone)]
pub struct EngineSample {
    /// Human label (`org`, `proposed@1M`, …).
    pub label: String,
    /// Machine-parseable scheme slug.
    pub slug: String,
    /// Simulated cycles executed (warm-up + measured window).
    pub cycles: u64,
    /// Wall-clock milliseconds for the whole run, in the scheme's median
    /// round.
    pub wall_ms: f64,
    /// Throughput in simulated megacycles per wall-clock second, in the
    /// scheme's median round.
    pub mcycles_per_sec: f64,
}

/// One lane's share of a batch run.
#[derive(Debug, Clone)]
pub struct LaneSample {
    /// Human label (`org`, `parity+scrub@4K`, …).
    pub label: String,
    /// This lane's simulated throughput (its cycles over the *batch*
    /// wall time — all lanes advance together).
    pub mcycles_per_sec: f64,
}

/// The lane-batch section of a report.
#[derive(Debug, Clone)]
pub struct LaneBatch {
    /// Number of lanes stepped in lockstep.
    pub lane_count: usize,
    /// Simulated cycles each lane executed (warm-up + measured window).
    pub cycles_per_lane: u64,
    /// Wall-clock milliseconds for the whole batch.
    pub wall_ms: f64,
    /// Per-lane throughput, in lane order.
    pub lanes: Vec<LaneSample>,
    /// Summed simulated throughput across lanes.
    pub aggregate_mcycles_per_sec: f64,
    /// The serial single-lane `uniform` baseline timed just before the
    /// batch.
    pub baseline_mcycles_per_sec: f64,
    /// `aggregate / baseline` — the host-independent figure of merit.
    pub aggregate_speedup: f64,
}

/// A full `exp bench` report.
#[derive(Debug, Clone)]
pub struct EngineBenchReport {
    /// Scale the runs used.
    pub scale: Scale,
    /// Benchmark the runs used.
    pub benchmark: Benchmark,
    /// Per-scheme samples, in execution order.
    pub samples: Vec<EngineSample>,
    /// The lane-parallel batch measurement.
    pub lane_batch: LaneBatch,
    /// `git rev-parse --short HEAD` at measurement time (`unknown`
    /// outside a git checkout).
    pub git_commit: String,
}

/// The scheme ladder the harness times: the baseline, each added
/// mechanism, and the full proposal (1- and 2-entry ECC arrays).
#[must_use]
pub fn bench_schemes() -> Vec<SchemeKind> {
    vec![
        SchemeKind::Uniform,
        SchemeKind::ParityOnly,
        SchemeKind::UniformWithCleaning {
            cleaning_interval: 1024 * 1024,
        },
        proposed(),
        SchemeKind::ProposedMulti {
            cleaning_interval: 1024 * 1024,
            entries_per_set: 2,
        },
    ]
}

/// The lane set the batch section times: the two directive-free schemes
/// crossed with three scrub periods and the unscrubbed baseline. All
/// eight share one trajectory, so the batch amortises the whole machine
/// over eight results.
#[must_use]
pub fn bench_lanes() -> Vec<LaneSpec> {
    let mut lanes = Vec::new();
    for scheme in [SchemeKind::Uniform, SchemeKind::ParityOnly] {
        lanes.push(LaneSpec::new(scheme));
        for period in [1024, 4096, 16384] {
            lanes.push(LaneSpec::with_scrub(scheme, period));
        }
    }
    lanes
}

/// Baseline/measurement pairs a harness times per figure of merit; the
/// figure reads the median pair's ratio.
pub(crate) const PAIRS: usize = 5;

/// Times [`PAIRS`] interleaved pairs, each a serial run of `baseline`
/// followed at once by `measure`, which receives that run's Mcycles/s
/// and returns its pair's ratio and sample. Each ratio divides a
/// measurement by the baseline run just before it, so host speed has
/// little time to change within a pair; the median drops the pairs a
/// scheduling hiccup disturbed. Returns the median pair's sample and
/// every baseline reading.
pub(crate) fn median_pair<T>(
    baseline: &ExperimentConfig,
    mut measure: impl FnMut(f64) -> (f64, T),
) -> (T, Vec<f64>) {
    let cycles = baseline.warmup_cycles + baseline.measure_cycles;
    let mut baselines = Vec::with_capacity(PAIRS);
    let mut pairs: Vec<(f64, T)> = (0..PAIRS)
        .map(|_| {
            let started = Instant::now();
            let _ = Runner::new(baseline.clone()).run();
            let mcycles_per_sec = cycles as f64 / 1e6 / started.elapsed().as_secs_f64();
            baselines.push(mcycles_per_sec);
            measure(mcycles_per_sec)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    (pairs.swap_remove(PAIRS / 2).1, baselines)
}

/// Times [`bench_schemes`] in [`PAIRS`] interleaved rounds, one serial
/// run of every scheme per round, and keeps each scheme's median round.
/// A run's wall-clock moves with the host's speed as well as with the
/// scheme; interleaving spreads that drift over every scheme of a round,
/// so it cannot decide which scheme reads fastest.
fn time_schemes(scale: Scale, benchmark: Benchmark) -> Vec<EngineSample> {
    let schemes = bench_schemes();
    let configs: Vec<ExperimentConfig> = schemes
        .iter()
        .map(|&scheme| scale.config(benchmark, scheme))
        .collect();
    eprintln!(
        "[bench] {} / {} schemes ({} Mcycles each, {PAIRS} rounds)...",
        benchmark,
        schemes.len(),
        (configs[0].warmup_cycles + configs[0].measure_cycles) / 1_000_000
    );
    let mut walls = vec![Vec::with_capacity(PAIRS); schemes.len()];
    for round in 1..=PAIRS {
        for ((scheme, cfg), times) in schemes.iter().zip(&configs).zip(&mut walls) {
            let started = Instant::now();
            let stats = Runner::new(cfg.clone()).run();
            let wall = started.elapsed().as_secs_f64();
            // Fold a result field into stderr so the run cannot be
            // optimised away and obvious breakage is visible.
            eprintln!(
                "[bench]   round {round}: {} ipc {:.3}, {:.0} ms",
                scheme.label(),
                stats.ipc,
                wall * 1e3
            );
            times.push(wall);
        }
    }
    schemes
        .iter()
        .zip(&configs)
        .zip(walls)
        .map(|((&scheme, cfg), mut walls)| {
            walls.sort_by(f64::total_cmp);
            let wall = walls[PAIRS / 2];
            let cycles = cfg.warmup_cycles + cfg.measure_cycles;
            EngineSample {
                label: scheme.label(),
                slug: scheme_slug(scheme),
                cycles,
                wall_ms: wall * 1e3,
                mcycles_per_sec: cycles as f64 / 1e6 / wall,
            }
        })
        .collect()
}

/// Runs the harness: five interleaved rounds over the scheme ladder on
/// `benchmark` at `scale` plus five serial-baseline/lane-batch pairs,
/// never consulting any cache (throughput is the point).
#[must_use]
pub fn run_engine_bench(scale: Scale, benchmark: Benchmark) -> EngineBenchReport {
    let samples = time_schemes(scale, benchmark);

    let lanes = bench_lanes();
    let cfg = scale.config(benchmark, SchemeKind::Uniform);
    let cycles_per_lane = cfg.warmup_cycles + cfg.measure_cycles;
    eprintln!(
        "[bench] {} / {}-lane batch ({} Mcycles per lane, {PAIRS} pairs)...",
        benchmark,
        lanes.len(),
        cycles_per_lane / 1_000_000
    );
    let (lane_batch, _) = median_pair(&cfg, |baseline| {
        let started = Instant::now();
        let results = run_lanes(&cfg, &lanes);
        let wall = started.elapsed();
        let per_lane = cycles_per_lane as f64 / 1e6 / wall.as_secs_f64();
        let aggregate = per_lane * results.len() as f64;
        let batch = LaneBatch {
            lane_count: results.len(),
            cycles_per_lane,
            wall_ms: wall.as_secs_f64() * 1e3,
            lanes: results
                .iter()
                .map(|r| LaneSample {
                    label: r.spec.label(),
                    mcycles_per_sec: per_lane,
                })
                .collect(),
            aggregate_mcycles_per_sec: aggregate,
            baseline_mcycles_per_sec: baseline,
            aggregate_speedup: aggregate / baseline,
        };
        (batch.aggregate_speedup, batch)
    });
    eprintln!(
        "[bench]   median pair: {:.1} Mcycles/s aggregate, {:.0} ms, {:.2}x",
        lane_batch.aggregate_mcycles_per_sec, lane_batch.wall_ms, lane_batch.aggregate_speedup
    );

    EngineBenchReport {
        scale,
        benchmark,
        samples,
        lane_batch,
        git_commit: git_commit(),
    }
}

impl EngineBenchReport {
    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut t = Table::new(vec![
            "scheme".into(),
            "Mcycles".into(),
            "wall ms".into(),
            "Mcycles/s".into(),
        ]);
        for s in &self.samples {
            t.numeric_row(
                &s.label,
                &[s.cycles as f64 / 1e6, s.wall_ms, s.mcycles_per_sec],
                1,
            );
        }
        let b = &self.lane_batch;
        let mut lanes = Table::new(vec!["lane".into(), "Mcycles/s".into()]);
        for lane in &b.lanes {
            lanes.numeric_row(&lane.label, &[lane.mcycles_per_sec], 1);
        }
        format!(
            "Engine throughput: {} @ {} scale (commit {}), each scheme's median of \
             {PAIRS} interleaved rounds\n{}\n\
             Lane batch: {} lanes x {:.1} Mcycles in {:.0} ms\n{}\
             aggregate {:.1} Mcycles/s = {:.2}x the serial uniform baseline ({:.1} Mcycles/s)\n",
            self.benchmark,
            self.scale.name(),
            self.git_commit,
            t.to_text(),
            b.lane_count,
            b.cycles_per_lane as f64 / 1e6,
            b.wall_ms,
            lanes.to_text(),
            b.aggregate_mcycles_per_sec,
            b.aggregate_speedup,
            b.baseline_mcycles_per_sec,
        )
    }

    /// Renders the report as JSON (hand-rolled; no serde in the tree).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"harness\": \"engine\",");
        let _ = writeln!(s, "  \"scale\": {},", escape(self.scale.name()));
        let _ = writeln!(s, "  \"benchmark\": {},", escape(self.benchmark.name()));
        let _ = writeln!(s, "  \"git_commit\": {},", escape(&self.git_commit));
        s.push_str("  \"schemes\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"scheme\": {}, \"label\": {}, \"cycles\": {}, \
                 \"wall_ms\": {:.3}, \"mcycles_per_sec\": {:.3}}}{}",
                escape(&sample.slug),
                escape(&sample.label),
                sample.cycles,
                sample.wall_ms,
                sample.mcycles_per_sec,
                if i + 1 < self.samples.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n");
        let b = &self.lane_batch;
        s.push_str("  \"lanes\": {\n");
        let _ = writeln!(s, "    \"lane_count\": {},", b.lane_count);
        let _ = writeln!(s, "    \"cycles_per_lane\": {},", b.cycles_per_lane);
        let _ = writeln!(s, "    \"wall_ms\": {:.3},", b.wall_ms);
        s.push_str("    \"per_lane\": [\n");
        for (i, lane) in b.lanes.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"label\": {}, \"mcycles_per_sec\": {:.3}}}{}",
                escape(&lane.label),
                lane.mcycles_per_sec,
                if i + 1 < b.lanes.len() { "," } else { "" }
            );
        }
        s.push_str("    ],\n");
        let _ = writeln!(
            s,
            "    \"aggregate_mcycles_per_sec\": {:.3},",
            b.aggregate_mcycles_per_sec
        );
        let _ = writeln!(
            s,
            "    \"baseline_mcycles_per_sec\": {:.3},",
            b.baseline_mcycles_per_sec
        );
        let _ = writeln!(s, "    \"aggregate_speedup\": {:.3}", b.aggregate_speedup);
        s.push_str("  }\n}\n");
        s
    }

    /// Compares this run against a committed `BENCH_engine.json`,
    /// failing if the lane engine's `aggregate_speedup` regressed by more
    /// than `tolerance` (e.g. `0.2` for the CI gate's 20%).
    ///
    /// The speedup ratio — not raw Mcycles/s — is compared because the
    /// committed floor and the CI runner are different hosts; dividing by
    /// the same-host serial baseline cancels the machine out.
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation when the floor file is not
    /// valid JSON, has no numeric `lanes.aggregate_speedup`, or the
    /// current run regressed.
    pub fn check_floor(&self, committed_json: &str, tolerance: f64) -> Result<String, String> {
        let floor = json::parse(committed_json)
            .map_err(|e| format!("committed BENCH_engine.json is not valid JSON: {e}"))?
            .get("lanes")
            .and_then(|lanes| lanes.get("aggregate_speedup"))
            .and_then(json::Value::as_f64)
            .ok_or("no \"lanes.aggregate_speedup\" in committed BENCH_engine.json")?;
        let current = self.lane_batch.aggregate_speedup;
        let min_ok = floor * (1.0 - tolerance);
        if current < min_ok {
            Err(format!(
                "lane engine regression: aggregate speedup {current:.2}x is below \
                 {min_ok:.2}x (committed floor {floor:.2}x - {:.0}% tolerance)",
                tolerance * 100.0
            ))
        } else {
            Ok(format!(
                "lane engine ok: aggregate speedup {current:.2}x vs committed floor \
                 {floor:.2}x (min {min_ok:.2}x)"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_bench_produces_positive_throughput() {
        let report = run_engine_bench(Scale::Smoke, Benchmark::Gzip);
        assert_eq!(report.samples.len(), bench_schemes().len());
        for s in &report.samples {
            assert!(s.mcycles_per_sec > 0.0, "{} throughput", s.label);
            assert!(s.cycles > 0);
        }
        let b = &report.lane_batch;
        assert_eq!(b.lane_count, bench_lanes().len());
        assert_eq!(b.lanes.len(), b.lane_count);
        assert!(b.aggregate_mcycles_per_sec > 0.0);
        assert!(b.aggregate_speedup > 0.0);
    }

    #[test]
    fn json_shape_is_wellformed_enough() {
        let report = run_engine_bench(Scale::Smoke, Benchmark::Gzip);
        let json = report.to_json();
        assert!(json.contains("\"harness\": \"engine\""));
        assert!(json.contains("\"scheme\": \"uniform\""));
        assert!(json.contains("mcycles_per_sec"));
        assert!(json.contains("\"lane_count\": 8"));
        assert!(json.contains("\"aggregate_speedup\""));
        assert!(json.contains("\"git_commit\""));
        json::parse(&json).expect("the report is valid JSON");
        // The written JSON round-trips through the floor check.
        assert!(report.check_floor(&json, 0.2).is_ok());
    }

    #[test]
    fn floor_check_catches_regressions_and_garbage() {
        let report = run_engine_bench(Scale::Smoke, Benchmark::Gzip);
        let inflated = format!(
            "{{\"lanes\": {{\"aggregate_speedup\": {:.3}}}}}",
            report.lane_batch.aggregate_speedup * 10.0
        );
        assert!(report.check_floor(&inflated, 0.2).is_err());
        assert!(report.check_floor("{}", 0.2).is_err());
        // A truncated file is garbage, even when the floor key and a
        // passing value made it onto disk.
        let truncated = format!(
            "{{\"lanes\": {{\"aggregate_speedup\": {:.3}",
            report.lane_batch.aggregate_speedup * 0.5
        );
        assert!(report.check_floor(&truncated, 0.2).is_err());
        // The floor is read from `lanes`, not from the first key match.
        let misplaced = format!(
            "{{\"aggregate_speedup\": {:.3}, \"lanes\": {{}}}}",
            report.lane_batch.aggregate_speedup * 0.5
        );
        assert!(report.check_floor(&misplaced, 0.2).is_err());
    }
}
