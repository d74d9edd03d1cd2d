//! The `exp faults` experiment: a live Monte Carlo fault-injection
//! campaign per protection scheme, with an empirical-vs-analytical FIT
//! cross-check.
//!
//! Every trial flips real bits in the running system's L2 via
//! [`aep_faultsim`] and follows the upset to its architectural end.
//! Finished campaigns persist as raw [`RunCache`] entries keyed on
//! (scale, benchmark, scheme, seed, trials, config hash), so a repeated
//! invocation renders from disk instantly.
//!
//! The FIT columns translate rates into failure units: the empirical FIT
//! is `raw_fit(data array) × (DUE+SDC)/trials` (strikes sample all frames
//! uniformly, matching the analytical model's whole-array normalisation);
//! the analytical FIT comes from [`SoftErrorModel`] fed with the lab's
//! measured dirty fraction for the same workload — which is what makes
//! `exp faults` also *reuse* the `RunStats` run cache. The empirical
//! value sits at or below the analytical one: the first-order model
//! charges every dirty-line upset as a DUE, while in the live machine
//! some dirty strikes are overwritten by later stores or cleaned/written
//! back before any consumer sees them (tolerance documented in
//! EXPERIMENTS.md).

use aep_core::lineup::{challengers_faults_schemes, faults_schemes};
use aep_core::{SchemeKind, SoftErrorModel};
use aep_ecc::CodeArea;
use aep_faultsim::{run_campaigns, CampaignConfig, CampaignReport, OutcomeTable, StrikeModel};
use aep_workloads::{Benchmark, Workload};

use crate::experiments::{FigureData, Lab, PlannedRun, Scale};
use aep_sim::runcache::{fnv1a, scheme_slug, RunCache};

/// Raw cache-entry format version; bump on layout changes **or** on
/// semantic changes to the schemes/campaign that invalidate stored
/// outcome tables. (v3: per-chunk tables and strike-model campaigns.)
const FORMAT_VERSION: u64 = 3;

/// CLI-visible knobs of an `exp faults` session.
#[derive(Debug, Clone)]
pub struct FaultsOptions {
    /// Workload executing while faults arrive.
    pub benchmark: Workload,
    /// Trials per scheme.
    pub trials: u32,
    /// Probability of a double-bit (same-word) strike (single model only).
    pub p_double: f64,
    /// Master campaign seed.
    pub seed: u64,
    /// Strike model (`--model single|burst:K|col:K|row:K|accum:scrub`).
    pub model: StrikeModel,
    /// Physical bit-interleaving degree of the L2 data array.
    pub interleave: usize,
    /// Append the related-work challenger schemes (`--challengers`) to
    /// the pinned campaign line-up.
    pub challengers: bool,
}

impl Default for FaultsOptions {
    fn default() -> Self {
        FaultsOptions {
            benchmark: Benchmark::Gap.into(),
            trials: 1000,
            p_double: 0.0,
            seed: 2006,
            model: StrikeModel::Single,
            interleave: 1,
            challengers: false,
        }
    }
}

/// The campaign geometry for one scheme at a given scale.
///
/// Smoke uses the tiny hierarchy (high valid-frame density, so unit tests
/// and the determinism script get strong statistics in well under a
/// second); quick and paper strike the full Table 1 machine with
/// progressively longer warm-up and resolution horizons.
#[must_use]
pub fn campaign_config(scale: Scale, opts: &FaultsOptions, scheme: SchemeKind) -> CampaignConfig {
    // Quick/paper warm-ups match the lab's experiment warm-up at the same
    // scale, so the cache the strikes sample has the same dirty occupancy
    // the analytical column is fed with; longer chunks amortise the cost.
    let mut cfg = match scale {
        Scale::Smoke => CampaignConfig::fast_test(opts.benchmark.clone(), scheme),
        Scale::Quick => CampaignConfig {
            warmup_cycles: 1_500_000,
            horizon_cycles: 60_000,
            trials_per_chunk: 50,
            ..CampaignConfig::new(opts.benchmark.clone(), scheme)
        },
        Scale::Paper => CampaignConfig {
            warmup_cycles: 4_000_000,
            horizon_cycles: 200_000,
            mean_gap_cycles: 5_000.0,
            trials_per_chunk: 100,
            ..CampaignConfig::new(opts.benchmark.clone(), scheme)
        },
    };
    cfg.trials = opts.trials;
    cfg.p_double = opts.p_double;
    cfg.seed = opts.seed;
    cfg.model = opts.model;
    cfg.interleave = opts.interleave;
    cfg
}

/// Rejects an interleave degree the physical layout cannot map, before
/// any campaign starts: it must divide the L2 line's words at `scale`.
///
/// # Errors
///
/// The usage message, for exit code 2.
pub fn check_interleave(scale: Scale, opts: &FaultsOptions) -> Result<(), String> {
    let words = campaign_config(scale, opts, SchemeKind::Uniform)
        .hierarchy
        .l2
        .words_per_line();
    if words.is_multiple_of(opts.interleave) {
        Ok(())
    } else {
        Err(format!(
            "--interleave {} does not divide the L2 line's {words} words at {} scale",
            opts.interleave,
            scale.name()
        ))
    }
}

/// The raw-cache key for one scheme's campaign. The model slug and
/// interleave degree are spelled out (colons mapped to `_` for filesystem
/// friendliness); every other knob rides on the config's debug hash.
#[must_use]
pub fn campaign_key(scale: Scale, cfg: &CampaignConfig) -> String {
    format!(
        "faults-{}-{}-{}-m{}-il{}-s{}-t{}-{:016x}",
        scale.name(),
        cfg.benchmark.name(),
        scheme_slug(cfg.scheme),
        cfg.model.slug().replace(':', "_"),
        cfg.interleave,
        cfg.seed,
        cfg.trials,
        fnv1a(format!("{cfg:?}").as_bytes())
    )
}

/// Renders a [`CampaignReport`] as the raw cache-entry text: the merged
/// table as `k=v` lines plus one `chunk=` CSV line per chunk (the
/// determinism witness survives the round-trip; wall-clock does not).
#[must_use]
pub fn render_report(r: &CampaignReport) -> String {
    let t = &r.total;
    let mut s = format!(
        "version={FORMAT_VERSION}\nmasked={}\ncorrected={}\nrefetch={}\ndue={}\nsdc={}\n\
         struck_valid={}\nstruck_dirty={}\n",
        t.masked, t.corrected, t.refetch_recovered, t.due, t.sdc, t.struck_valid, t.struck_dirty
    );
    for c in &r.chunks {
        s.push_str(&format!(
            "chunk={},{},{},{},{},{},{}\n",
            c.masked,
            c.corrected,
            c.refetch_recovered,
            c.due,
            c.sdc,
            c.struck_valid,
            c.struck_dirty
        ));
    }
    s
}

/// Parses cache-entry text back into a [`CampaignReport`] (`None` on any
/// malformed or version-mismatched input, or when the chunk tables do not
/// sum to the totals — a truncated entry — so the caller re-runs). A disk
/// hit carries no wall-clock: `wall_seconds` comes back `0.0`.
#[must_use]
pub fn parse_report(text: &str) -> Option<CampaignReport> {
    let mut fields = std::collections::HashMap::new();
    let mut chunks = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(csv) = line.strip_prefix("chunk=") {
            let ns: Vec<u64> = csv
                .split(',')
                .map(|n| n.parse().ok())
                .collect::<Option<_>>()?;
            let [masked, corrected, refetch_recovered, due, sdc, struck_valid, struck_dirty] =
                ns[..]
            else {
                return None;
            };
            chunks.push(OutcomeTable {
                masked,
                corrected,
                refetch_recovered,
                due,
                sdc,
                struck_valid,
                struck_dirty,
            });
            continue;
        }
        let (k, v) = line.split_once('=')?;
        fields.insert(k, v.parse::<u64>().ok()?);
    }
    if *fields.get("version")? != FORMAT_VERSION {
        return None;
    }
    let total = OutcomeTable {
        masked: *fields.get("masked")?,
        corrected: *fields.get("corrected")?,
        refetch_recovered: *fields.get("refetch")?,
        due: *fields.get("due")?,
        sdc: *fields.get("sdc")?,
        struck_valid: *fields.get("struck_valid")?,
        struck_dirty: *fields.get("struck_dirty")?,
    };
    let mut sum = OutcomeTable::default();
    for c in &chunks {
        sum.merge(c);
    }
    (sum == total).then_some(CampaignReport {
        total,
        chunks,
        wall_seconds: 0.0,
        groups: 0,
    })
}

/// Runs (or recalls) a line-up of campaigns and returns their reports in
/// line-up order: the one load → run → store path for `exp faults` and
/// the explorer's empirical objectives. The campaigns the cache misses
/// share the `jobs` workers through [`run_campaigns`].
pub(crate) fn campaigns_for(
    scale: Scale,
    cfgs: &[CampaignConfig],
    jobs: usize,
    disk: Option<&RunCache>,
    verbose: bool,
) -> Vec<CampaignReport> {
    let cached: Vec<Option<CampaignReport>> = cfgs
        .iter()
        .map(|cfg| {
            // An entry with the wrong chunk count is a damaged one: rerun.
            let report = disk?
                .load_raw(&campaign_key(scale, cfg))
                .as_deref()
                .and_then(parse_report)
                .filter(|r| r.chunks.len() == cfg.chunks())?;
            if verbose {
                eprintln!("[faults] disk hit {}", cfg.scheme.label());
            }
            Some(report)
        })
        .collect();
    let missed: Vec<CampaignConfig> = cfgs
        .iter()
        .zip(&cached)
        .filter(|(_, hit)| hit.is_none())
        .map(|(cfg, _)| cfg.clone())
        .collect();
    if verbose {
        for cfg in &missed {
            eprintln!(
                "[faults] campaign {} / {} ({} trials, model {})",
                cfg.benchmark,
                cfg.scheme.label(),
                cfg.trials,
                cfg.model.slug()
            );
        }
    }
    let mut fresh = run_campaigns(&missed, jobs).into_iter();
    cfgs.iter()
        .zip(cached)
        .map(|(cfg, hit)| {
            hit.unwrap_or_else(|| {
                let report = fresh.next().expect("one report per missed campaign");
                if verbose {
                    eprintln!(
                        "[faults]   {}: {:.0} trials/s ({:.2} s wall)",
                        cfg.scheme.label(),
                        report.trials_per_sec(),
                        report.wall_seconds
                    );
                }
                if let Some(disk) = disk {
                    let key = campaign_key(scale, cfg);
                    if let Err(e) = disk.store_raw(&key, &render_report(&report)) {
                        eprintln!("[faults] warning: cannot write cache entry {key}: {e}");
                    }
                }
                report
            })
        })
        .collect()
}

/// The first-order analytical user-visible FIT for `scheme`, fed with the
/// lab's measured dirty fraction where the model needs one. That run
/// must already be planned.
fn analytical_fit(
    model: &SoftErrorModel,
    l2: &aep_mem::CacheConfig,
    scheme: SchemeKind,
    lab: &Lab,
    benchmark: &Workload,
) -> f64 {
    let dirty = || {
        lab.planned(&lab.scale().config(benchmark.clone(), scheme))
            .l2
            .avg_dirty_fraction
    };
    match scheme {
        SchemeKind::Uniform | SchemeKind::UniformWithCleaning { .. } => model.uniform_ecc(l2),
        SchemeKind::ParityOnly => model.parity_only(l2, dirty()),
        SchemeKind::Proposed { .. }
        | SchemeKind::ProposedMulti { .. }
        | SchemeKind::SilentWriteEcc { .. }
        | SchemeKind::ReuseCopyback { .. } => model.proposed(l2, dirty()),
    }
    .user_visible_fit()
}

/// Empirical/analytical FIT ratio with the edge conventions documented in
/// EXPERIMENTS.md: both zero (schemes whose first-order loss rate is
/// zero, confirmed by the campaign) reads 1.0; a nonzero empirical rate
/// against a zero prediction reads +inf (a model violation worth seeing).
#[must_use]
pub fn fit_ratio(empirical: f64, analytical: f64) -> f64 {
    if analytical > 0.0 {
        empirical / analytical
    } else if empirical == 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

/// **`exp faults`**: per-scheme outcome table plus the FIT cross-check.
///
/// When `stats` is given, each scheme's campaign report (outcome
/// counters, per-chunk loss histogram, wall-clock throughput) is also
/// published under `faults.model.<model slug>.<scheme slug>` for
/// `--stats-json` consumers. The analytical FIT columns always assume
/// independent single-bit strikes — under multi-bit models the ratio
/// column *is* the measurement of how far reality departs from that
/// first-order model.
pub fn faults_figure(
    scale: Scale,
    opts: &FaultsOptions,
    jobs: usize,
    disk: Option<&RunCache>,
    lab: &mut Lab,
    verbose: bool,
    mut stats: Option<&mut aep_obs::Registry>,
) -> FigureData {
    let model = SoftErrorModel::date2006_typical();
    let schemes = if opts.challengers {
        challengers_faults_schemes()
    } else {
        faults_schemes()
    };
    // The analytical column reads the lab's dirty fraction for every
    // scheme but uniform ECC: plan those runs as one parallel batch.
    let measured: Vec<PlannedRun> = schemes
        .iter()
        .filter(|k| {
            !matches!(
                k,
                SchemeKind::Uniform | SchemeKind::UniformWithCleaning { .. }
            )
        })
        .map(|&k| (opts.benchmark.clone(), k))
        .collect();
    lab.prefetch(&measured);
    let configs: Vec<CampaignConfig> = schemes
        .iter()
        .map(|&scheme| campaign_config(scale, opts, scheme))
        .collect();
    let reports = campaigns_for(scale, &configs, jobs, disk, verbose);
    let rows = configs
        .iter()
        .zip(reports)
        .map(|(cfg, report)| {
            let scheme = cfg.scheme;
            if let Some(reg) = stats.as_deref_mut() {
                // Key segments may not contain the `.` separator.
                let (model, slug) = (opts.model.slug(), scheme_slug(scheme));
                reg.scoped("faults", |r| {
                    r.scoped("model", |r| {
                        r.scoped(&model, |r| {
                            r.scoped(&slug, |r| {
                                report.register_stats(r);
                                report.register_throughput(r);
                            });
                        });
                    });
                });
            }
            let table = &report.total;
            let l2 = &cfg.hierarchy.l2;
            let raw = model.raw_fit(CodeArea::from_bytes(l2.size_bytes));
            let empirical = raw * (table.due_rate() + table.sdc_rate());
            let analytical = analytical_fit(&model, l2, scheme, lab, &opts.benchmark);
            (
                scheme.label().to_owned(),
                vec![
                    table.masked as f64,
                    table.corrected as f64,
                    table.refetch_recovered as f64,
                    table.due as f64,
                    table.sdc as f64,
                    table.dirty_strike_fraction() * 100.0,
                    empirical,
                    analytical,
                    fit_ratio(empirical, analytical),
                ],
            )
        })
        .collect();
    let mut title = format!(
        "Fault injection (live): {} trials on {}, p(double)={:.2}, seed {}",
        opts.trials,
        opts.benchmark.name(),
        opts.p_double,
        opts.seed
    );
    if opts.model != StrikeModel::Single {
        title.push_str(&format!(", model {}", opts.model.slug()));
    }
    if opts.interleave != 1 {
        title.push_str(&format!(", interleave {}", opts.interleave));
    }
    FigureData {
        title,
        row_header: "scheme".into(),
        columns: vec![
            "masked".into(),
            "corrected".into(),
            "refetch".into(),
            "DUE".into(),
            "SDC".into(),
            "dirty%".into(),
            "emp FIT".into(),
            "ana FIT".into(),
            "ratio".into(),
        ],
        rows,
        decimals: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_faultsim::TrialOutcome;

    #[test]
    fn report_text_roundtrip() {
        let mut a = OutcomeTable::default();
        a.record(TrialOutcome::Masked, false, false);
        a.record(TrialOutcome::Due, true, true);
        let mut b = OutcomeTable::default();
        b.record(TrialOutcome::Corrected, true, true);
        b.record(TrialOutcome::Sdc, true, true);
        let mut total = a;
        total.merge(&b);
        let report = CampaignReport {
            total,
            chunks: vec![a, b],
            wall_seconds: 1.5,
            groups: 2,
        };
        let parsed = parse_report(&render_report(&report)).expect("round-trips");
        assert_eq!(parsed.total, report.total);
        assert_eq!(parsed.chunks, report.chunks);
        assert_eq!(parsed.wall_seconds, 0.0, "wall-clock never survives disk");
        assert_eq!(parsed.groups, 0, "a recalled report ran on no machine");
        assert!(parse_report("").is_none());
        assert!(parse_report("version=99\nmasked=1\n").is_none());
        assert!(parse_report("masked=zzz\n").is_none());
        assert!(
            parse_report("version=3\nchunk=1,2\n").is_none(),
            "short chunk"
        );
    }

    #[test]
    fn damaged_cache_entries_rerun_the_campaign() {
        let dir =
            std::env::temp_dir().join(format!("aep-faults-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = RunCache::new(&dir);
        let opts = FaultsOptions {
            trials: 40,
            ..FaultsOptions::default()
        };
        let cfg = campaign_config(Scale::Smoke, &opts, SchemeKind::ParityOnly);
        let key = campaign_key(Scale::Smoke, &cfg);
        let fresh = campaigns_for(
            Scale::Smoke,
            std::slice::from_ref(&cfg),
            1,
            Some(&disk),
            false,
        )
        .remove(0);
        let entry = disk.load_raw(&key).expect("the campaign is cached");
        let lines: Vec<&str> = entry.lines().collect();
        assert_eq!(lines.len(), 8 + fresh.chunks.len());
        // Every proper prefix of the entry, cut at a line boundary, and
        // the whole entry with one total tampered with.
        let mut damaged: Vec<String> = (0..lines.len())
            .map(|n| lines[..n].iter().map(|l| format!("{l}\n")).collect())
            .collect();
        damaged.push(entry.replacen(
            &format!("\nmasked={}\n", fresh.total.masked),
            &format!("\nmasked={}\n", fresh.total.masked + 1),
            1,
        ));
        for text in damaged {
            disk.store_raw(&key, &text).expect("cache writable");
            let rerun = campaigns_for(
                Scale::Smoke,
                std::slice::from_ref(&cfg),
                1,
                Some(&disk),
                false,
            )
            .remove(0);
            assert!(rerun.wall_seconds > 0.0, "served as a hit:\n{text}");
            assert_eq!(rerun.chunks, fresh.chunks);
            assert_eq!(rerun.total, fresh.total);
            assert_eq!(disk.load_raw(&key).as_deref(), Some(entry.as_str()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_campaigns() {
        let opts = FaultsOptions::default();
        let a = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &opts, SchemeKind::Uniform),
        );
        let b = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &opts, SchemeKind::ParityOnly),
        );
        let mut more_trials = opts.clone();
        more_trials.trials += 1;
        let c = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &more_trials, SchemeKind::Uniform),
        );
        let mut other_seed = opts.clone();
        other_seed.seed ^= 1;
        let d = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &other_seed, SchemeKind::Uniform),
        );
        let mut burst = opts.clone();
        burst.model = StrikeModel::Burst { width: 2 };
        let e = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &burst, SchemeKind::Uniform),
        );
        let mut interleaved = opts.clone();
        interleaved.model = StrikeModel::Accum {
            scrub_cycles: aep_faultsim::models::DEFAULT_SCRUB_CYCLES,
        };
        interleaved.interleave = 4;
        let f = campaign_key(
            Scale::Smoke,
            &campaign_config(Scale::Smoke, &interleaved, SchemeKind::Uniform),
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, e);
        assert_ne!(a, f);
        assert_ne!(e, f);
        assert!(f.contains("-maccum_scrub-il4-"), "slug is sanitised: {f}");
    }

    #[test]
    fn fit_ratio_conventions() {
        assert!((fit_ratio(50.0, 100.0) - 0.5).abs() < 1e-12);
        assert_eq!(fit_ratio(0.0, 0.0), 1.0);
        assert_eq!(fit_ratio(1.0, 0.0), f64::INFINITY);
    }
}
