//! Campaign-throughput harness (`exp faults-bench`).
//!
//! The engine harness (`exp bench`) times the timing simulator itself;
//! this one times the *fault-injection campaign driver* — how many
//! Monte Carlo trials per second does `run_campaign_report` sustain for
//! each strike model? Raw trials/s is host-dependent, so the committed
//! figure of merit is `trials_per_mcycle`: trials/s divided by a serial
//! [`aep_sim::Runner`] baseline measured in the same process, which
//! cancels the machine out exactly like the engine harness's
//! `aggregate_speedup`. Results land in `BENCH_faults.json` and CI
//! gates on `min_trials_per_mcycle` across the model set.

use std::fmt::Write as _;

use aep_faultsim::{plan_groups, run_campaign_report, StrikeModel};
use aep_obs::json::{self, escape};
use aep_obs::provenance::{git_commit, host};
use aep_sim::Table;

use crate::engine_bench::{median_pair, PAIRS};
use crate::experiments::{proposed, Scale};
use crate::faults::{campaign_config, FaultsOptions};

/// One strike model's campaign throughput measurement.
#[derive(Debug, Clone)]
pub struct FaultsSample {
    /// The model's CLI slug (`single`, `burst:2`, …).
    pub model: String,
    /// Trials the campaign ran.
    pub trials: u32,
    /// Wall-clock milliseconds for the whole campaign.
    pub wall_ms: f64,
    /// Raw campaign throughput.
    pub trials_per_sec: f64,
    /// The median over the model's pairs of `trials_per_sec / baseline
    /// Mcycles-per-sec` — host-independent.
    pub trials_per_mcycle: f64,
}

/// A full `exp faults-bench` report.
#[derive(Debug, Clone)]
pub struct FaultsBenchReport {
    /// Scale the campaigns used.
    pub scale: Scale,
    /// Benchmark executing under the strikes.
    pub benchmark: String,
    /// Trials per model campaign.
    pub trials: u32,
    /// Worker threads the campaigns fanned out across.
    pub jobs: usize,
    /// Median same-process serial simulator throughput over every pair.
    pub baseline_mcycles_per_sec: f64,
    /// Per-model samples, in ladder order.
    pub samples: Vec<FaultsSample>,
    /// `git rev-parse --short HEAD` at measurement time (`-dirty` when
    /// the working tree differed from it).
    pub git_commit: String,
    /// The measuring host's name and core count.
    pub host: String,
}

/// The model ladder the harness times: the paper's independent
/// single-bit baseline plus one representative of each spatial family
/// and the accumulation engine.
#[must_use]
pub fn bench_models() -> Vec<StrikeModel> {
    vec![
        StrikeModel::Single,
        StrikeModel::Burst { width: 2 },
        StrikeModel::Col { span: 4 },
        StrikeModel::Row { span: 8 },
        StrikeModel::Accum {
            scrub_cycles: aep_faultsim::models::DEFAULT_SCRUB_CYCLES,
        },
    ]
}

/// Runs the harness: for each strike model, five pairs of a serial
/// baseline run and a campaign on the proposed scheme, interleaved, never
/// consulting any cache.
#[must_use]
pub fn run_faults_bench(scale: Scale, trials: u32, jobs: usize) -> FaultsBenchReport {
    let opts = FaultsOptions {
        trials,
        ..FaultsOptions::default()
    };
    let base_cfg = scale.config(opts.benchmark.clone(), proposed());
    eprintln!(
        "[faults-bench] serial baseline: {:.1} Mcycles before each campaign",
        (base_cfg.warmup_cycles + base_cfg.measure_cycles) as f64 / 1e6
    );
    let mut baselines = Vec::new();
    let samples: Vec<FaultsSample> = bench_models()
        .into_iter()
        .map(|model| {
            let cfg = campaign_config(
                scale,
                &FaultsOptions {
                    model,
                    ..opts.clone()
                },
                proposed(),
            );
            eprintln!(
                "[faults-bench] model {} ({} trials, {} jobs, {} groups, {PAIRS} pairs)...",
                model.slug(),
                cfg.trials,
                jobs,
                plan_groups(std::slice::from_ref(&cfg), jobs)[0]
            );
            let (sample, model_baselines) = median_pair(&base_cfg, |baseline| {
                let report = run_campaign_report(&cfg, jobs);
                let tps = report.trials_per_sec();
                let sample = FaultsSample {
                    model: model.slug(),
                    trials: cfg.trials,
                    wall_ms: report.wall_seconds * 1e3,
                    trials_per_sec: tps,
                    trials_per_mcycle: tps / baseline,
                };
                (sample.trials_per_mcycle, sample)
            });
            baselines.extend(model_baselines);
            eprintln!(
                "[faults-bench]   median pair: {:.0} trials/s ({:.0} ms), {:.0} trials/Mcycle",
                sample.trials_per_sec, sample.wall_ms, sample.trials_per_mcycle
            );
            sample
        })
        .collect();
    baselines.sort_by(f64::total_cmp);

    FaultsBenchReport {
        scale,
        benchmark: opts.benchmark.name(),
        trials,
        jobs,
        baseline_mcycles_per_sec: baselines[baselines.len() / 2],
        samples,
        git_commit: git_commit(),
        host: host(),
    }
}

impl FaultsBenchReport {
    /// The committed figure of merit: the slowest model's normalised
    /// throughput (0.0 for an empty sample set).
    #[must_use]
    pub fn min_trials_per_mcycle(&self) -> f64 {
        let min = self
            .samples
            .iter()
            .map(|s| s.trials_per_mcycle)
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// Renders the report as an aligned text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut t = Table::new(vec![
            "model".into(),
            "trials".into(),
            "wall ms".into(),
            "trials/s".into(),
            "trials/Mcycle".into(),
        ]);
        for s in &self.samples {
            t.numeric_row(
                &s.model,
                &[
                    s.trials as f64,
                    s.wall_ms,
                    s.trials_per_sec,
                    s.trials_per_mcycle,
                ],
                2,
            );
        }
        format!(
            "Campaign throughput: {} @ {} scale, {} jobs (commit {}, host {})\n{}\
             serial baseline {:.1} Mcycles/s; min {:.2} trials/Mcycle\n",
            self.benchmark,
            self.scale.name(),
            self.jobs,
            self.git_commit,
            self.host,
            t.to_text(),
            self.baseline_mcycles_per_sec,
            self.min_trials_per_mcycle(),
        )
    }

    /// Renders the report as JSON (hand-rolled; no serde in the tree).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"harness\": \"faults\",");
        let _ = writeln!(s, "  \"scale\": {},", escape(self.scale.name()));
        let _ = writeln!(s, "  \"benchmark\": {},", escape(&self.benchmark));
        let _ = writeln!(s, "  \"trials\": {},", self.trials);
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"git_commit\": {},", escape(&self.git_commit));
        let _ = writeln!(s, "  \"host\": {},", escape(&self.host));
        let _ = writeln!(
            s,
            "  \"baseline_mcycles_per_sec\": {:.3},",
            self.baseline_mcycles_per_sec
        );
        s.push_str("  \"models\": [\n");
        for (i, sample) in self.samples.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"model\": {}, \"trials\": {}, \"wall_ms\": {:.3}, \
                 \"trials_per_sec\": {:.3}, \"trials_per_mcycle\": {:.4}}}{}",
                escape(&sample.model),
                sample.trials,
                sample.wall_ms,
                sample.trials_per_sec,
                sample.trials_per_mcycle,
                if i + 1 < self.samples.len() { "," } else { "" }
            );
        }
        s.push_str("  ],\n");
        let _ = writeln!(
            s,
            "  \"min_trials_per_mcycle\": {:.4}",
            self.min_trials_per_mcycle()
        );
        s.push_str("}\n");
        s
    }

    /// Compares this run against a committed `BENCH_faults.json`, failing
    /// if the slowest model's `trials_per_mcycle` regressed by more than
    /// `tolerance`. Normalised throughput — not raw trials/s — is
    /// compared for the same reason the engine harness compares speedup
    /// ratios: the committed floor and the CI runner are different hosts.
    ///
    /// # Errors
    ///
    /// Returns a human-readable explanation when the floor file is not
    /// valid JSON, has no numeric `min_trials_per_mcycle`, or the current
    /// run regressed.
    pub fn check_floor(&self, committed_json: &str, tolerance: f64) -> Result<String, String> {
        let floor = json::parse(committed_json)
            .map_err(|e| format!("committed BENCH_faults.json is not valid JSON: {e}"))?
            .get("min_trials_per_mcycle")
            .and_then(json::Value::as_f64)
            .ok_or("no \"min_trials_per_mcycle\" in committed BENCH_faults.json")?;
        let current = self.min_trials_per_mcycle();
        let min_ok = floor * (1.0 - tolerance);
        if current < min_ok {
            Err(format!(
                "campaign throughput regression: {current:.3} trials/Mcycle is below \
                 {min_ok:.3} (committed floor {floor:.3} - {:.0}% tolerance)",
                tolerance * 100.0
            ))
        } else {
            Ok(format!(
                "campaign throughput ok: {current:.3} trials/Mcycle vs committed floor \
                 {floor:.3} (min {min_ok:.3})"
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_faults_bench_covers_every_model() {
        let report = run_faults_bench(Scale::Smoke, 20, 2);
        assert_eq!(report.samples.len(), bench_models().len());
        for s in &report.samples {
            assert!(s.trials_per_sec > 0.0, "{} throughput", s.model);
            assert!(s.trials_per_mcycle > 0.0, "{} normalised", s.model);
        }
        assert!(report.baseline_mcycles_per_sec > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"harness\": \"faults\""));
        assert!(json.contains("\"model\": \"single\""));
        assert!(json.contains("\"model\": \"accum:scrub\""));
        assert!(json.contains("\"min_trials_per_mcycle\""));
        json::parse(&json).expect("the report is valid JSON");
        // The written JSON round-trips through the floor check.
        assert!(report.check_floor(&json, 0.2).is_ok());
        let inflated = format!(
            "{{\"min_trials_per_mcycle\": {:.4}}}",
            report.min_trials_per_mcycle() * 10.0
        );
        assert!(report.check_floor(&inflated, 0.2).is_err());
        assert!(report.check_floor("{}", 0.2).is_err());
        let truncated = format!(
            "{{\"min_trials_per_mcycle\": {:.4}",
            report.min_trials_per_mcycle() * 0.5
        );
        assert!(report.check_floor(&truncated, 0.2).is_err());
    }

    #[test]
    fn the_floor_campaigns_split_over_every_job() {
        // `scripts/faults_models.sh` records the floor at 20,000 smoke
        // trials over 4 jobs: each campaign runs as 4 groups, so the
        // record times the split path.
        for model in bench_models() {
            let opts = FaultsOptions {
                model,
                trials: 20_000,
                ..FaultsOptions::default()
            };
            let cfg = campaign_config(Scale::Smoke, &opts, proposed());
            assert_eq!(plan_groups(&[cfg], 4), [4], "{}", model.slug());
        }
    }
}
