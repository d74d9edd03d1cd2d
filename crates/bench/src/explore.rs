//! The `exp explore` subcommand: design-space exploration through the
//! lab.
//!
//! This module is the glue between the `aep-dse` engine (spaces,
//! objectives, Pareto analysis, search driver) and this crate's execution
//! machinery (the parallel [`Lab`], the persistent [`RunCache`], and the
//! fault-injection campaigns for the empirical DUE/SDC objectives). The
//! division of labour: `aep-dse` decides *what* to evaluate and how to
//! rank it, [`LabEvaluator`] decides *how* — batching every rung through
//! [`Lab::prefetch_configs`] so points fan out across `--jobs` workers
//! and recur from the disk cache on repeat invocations.
//!
//! Everything downstream of the evaluator is a pure function of the
//! space and the objective spec, so every report under `results/dse/` is
//! byte-identical for any `--jobs` count — `scripts/check_determinism.sh`
//! holds the frontier JSON and `.dse` records to their committed digests
//! in `results/DIGESTS` at `--jobs 1` and `--jobs N`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use aep_dse::registry;
use aep_dse::{
    analyze, expand_schemes, explore_grid, frontier_csv, frontier_json, frontier_markdown,
    objectives_from_run, parse_records, points_csv, refine, write_records, Analysis,
    EvaluatedPoint, Evaluator, ExplorePoint, Geometry, ObjectiveKey, ObjectiveSpec,
    ObjectiveVector, SchemeTemplate, Space,
};
use aep_faultsim::StrikeModel;
use aep_workloads::{Benchmark, Workload};

use crate::experiments::{Lab, Scale};
use crate::faults::{self, FaultsOptions};
use crate::flags::{default_jobs, FlagError, Flags};
use aep_sim::runcache::RunCache;

/// Parses a cycle-count axis value: plain cycles, or with a `K`/`M`
/// (×1024 / ×1024²) suffix, e.g. `64K`, `1M`, `1048576`.
#[must_use]
pub fn parse_cycles(s: &str) -> Option<u64> {
    if let Some(k) = s.strip_suffix(['K', 'k']) {
        return k.parse::<u64>().ok().map(|v| v * 1024);
    }
    if let Some(m) = s.strip_suffix(['M', 'm']) {
        return m.parse::<u64>().ok().map(|v| v * 1024 * 1024);
    }
    s.parse().ok()
}

fn parse_bench_list(values: &str) -> Result<Vec<Workload>, String> {
    let mut out: Vec<Workload> = Vec::new();
    for v in values.split(',').map(str::trim).filter(|v| !v.is_empty()) {
        match v {
            "all" => out.extend(Benchmark::all().into_iter().map(Workload::from)),
            "fp" => out.extend(Benchmark::fp().into_iter().map(Workload::from)),
            "int" => out.extend(Benchmark::int().into_iter().map(Workload::from)),
            "diversity" => out.extend(registry::diversity_workloads()),
            name => {
                out.push(Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?)
            }
        }
    }
    if out.is_empty() {
        return Err("the bench axis has no values".into());
    }
    for w in &out {
        w.validate()?;
    }
    Ok(out)
}

/// Builds the design space from a `--axes` spec: semicolon-separated
/// `key=value,value` groups over the axes `scheme`, `interval`, `bench`,
/// `scrub`, `l2`, and `interleave`. Omitted axes take the registry
/// defaults (the paper's scheme templates and interval ladder on `gap`,
/// no scrubbing, Table 1 geometry, no bit-interleaving).
///
/// ```text
/// scheme=uniform,proposed;interval=256K,1M;bench=gzip,gap;scrub=none,4096;l2=512K;interleave=1,4
/// ```
///
/// # Errors
///
/// Returns a message naming the malformed group or value.
pub fn parse_axes(spec: &str) -> Result<Space, String> {
    let mut templates = registry::default_templates();
    let mut intervals = registry::interval_axis();
    let mut benchmarks: Vec<Workload> = vec![Benchmark::Gap.into()];
    let mut scrubs: Vec<Option<u64>> = Vec::new();
    let mut geometries: Vec<Geometry> = Vec::new();
    let mut interleaves: Vec<usize> = Vec::new();
    for group in spec.split(';').filter(|g| !g.trim().is_empty()) {
        let (key, values) = group
            .split_once('=')
            .ok_or_else(|| format!("axis group '{group}' is not key=value,..."))?;
        let list = || values.split(',').map(str::trim).filter(|v| !v.is_empty());
        match key.trim() {
            "scheme" => {
                templates = Vec::new();
                for v in list() {
                    // `challengers` names the registry's incumbents-plus-
                    // related-work line-up, like the bench-axis groups.
                    if v == "challengers" {
                        templates.extend(registry::challenger_templates());
                        continue;
                    }
                    templates.push(
                        SchemeTemplate::parse(v).ok_or_else(|| format!("unknown scheme '{v}'"))?,
                    );
                }
            }
            "interval" => {
                intervals = list()
                    .map(|v| parse_cycles(v).ok_or_else(|| format!("bad interval '{v}'")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "bench" => benchmarks = parse_bench_list(values)?,
            "scrub" => {
                scrubs = list()
                    .map(|v| match v {
                        "none" => Ok(None),
                        _ => parse_cycles(v)
                            .filter(|&p| p > 0)
                            .map(Some)
                            .ok_or_else(|| format!("bad scrub period '{v}'")),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "l2" => {
                geometries = list()
                    .map(|v| Geometry::parse(v).ok_or_else(|| format!("bad geometry '{v}'")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "interleave" => {
                interleaves = list()
                    .map(|v| {
                        v.parse::<usize>()
                            .ok()
                            .filter(|&d| d > 0)
                            .ok_or_else(|| format!("bad interleave degree '{v}'"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => return Err(format!("unknown axis '{other}'")),
        }
    }
    let space = Space::grid_with_interleave(
        &benchmarks,
        &expand_schemes(&templates, &intervals),
        &scrubs,
        &geometries,
        &interleaves,
    );
    space.validate().map_err(|e| e.to_string())?;
    Ok(space)
}

/// An [`Evaluator`] backed by this crate's machinery: one [`Lab`] per
/// scale (so refinement rungs each get the right warm-up/window), the
/// shared disk cache, and — when the spec asks for the empirical DUE/SDC
/// objectives — the fault-injection campaigns of `exp faults`.
pub struct LabEvaluator {
    jobs: usize,
    use_cache: bool,
    /// Campaign trials per point for the empirical objectives.
    trials: u32,
    /// Strike model driving the empirical campaigns (the interleave
    /// degree, by contrast, is a per-point axis).
    model: StrikeModel,
    labs: HashMap<Scale, Lab>,
}

impl LabEvaluator {
    /// A fresh evaluator (labs are created per scale on first use).
    #[must_use]
    pub fn new(jobs: usize, use_cache: bool, trials: u32) -> Self {
        LabEvaluator {
            jobs,
            use_cache,
            trials,
            model: StrikeModel::Single,
            labs: HashMap::new(),
        }
    }

    /// Selects the strike model used for the empirical DUE/SDC
    /// objectives.
    #[must_use]
    pub fn with_model(mut self, model: StrikeModel) -> Self {
        self.model = model;
        self
    }

    /// Total runs freshly simulated (vs. recalled) across every scale —
    /// the number the warm-cache acceptance check watches.
    #[must_use]
    pub fn evaluated_runs(&self) -> usize {
        self.labs.values().map(|lab| lab.totals().evaluated).sum()
    }

    fn campaign_outcome(&self, scale: Scale, point: &ExplorePoint) -> aep_faultsim::OutcomeTable {
        let opts = FaultsOptions {
            benchmark: point.benchmark.clone(),
            trials: self.trials,
            model: self.model,
            interleave: point.interleave,
            ..FaultsOptions::default()
        };
        let mut cfg = faults::campaign_config(scale, &opts, point.scheme);
        if point.geometry != Geometry::date2006() {
            point.geometry.apply(&mut cfg.hierarchy.l2);
        }
        let disk = self.use_cache.then(|| RunCache::default_under("."));
        faults::campaign_for(scale, &cfg, self.jobs, disk.as_ref(), true).total
    }
}

impl Evaluator for LabEvaluator {
    fn evaluate(
        &mut self,
        scale: Scale,
        points: &[ExplorePoint],
        spec: &ObjectiveSpec,
    ) -> Vec<ObjectiveVector> {
        let configs: Vec<aep_sim::ExperimentConfig> =
            points.iter().map(|p| p.config(scale)).collect();
        let mut vectors = {
            let jobs = self.jobs;
            let use_cache = self.use_cache;
            let lab = self.labs.entry(scale).or_insert_with(|| {
                let mut lab = Lab::new(scale).jobs(jobs);
                if use_cache {
                    lab = lab.with_disk_cache(RunCache::default_under("."));
                }
                lab
            });
            lab.prefetch_configs(&configs);
            points
                .iter()
                .zip(&configs)
                .map(|(p, cfg)| objectives_from_run(&lab.stats_config(cfg), p, spec))
                .collect::<Vec<_>>()
        };
        if spec.keys().iter().any(|k| k.is_empirical()) {
            for (p, v) in points.iter().zip(vectors.iter_mut()) {
                let table = self.campaign_outcome(scale, p);
                v.set(spec, ObjectiveKey::DueRate, table.due_rate());
                v.set(spec, ObjectiveKey::SdcRate, table.sdc_rate());
            }
        }
        vectors
    }
}

/// Writes the full report family for one evaluated batch under `dir`
/// with the given file prefix (`grid_quick`, `refine_paper`, …): the
/// lossless `.dse` records plus frontier JSON / CSV / markdown and the
/// all-points CSV.
///
/// # Errors
///
/// Returns the first I/O error.
pub fn write_reports(
    dir: &Path,
    prefix: &str,
    scale_name: &str,
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let files = [
        (
            format!("{prefix}.dse"),
            write_records(scale_name, spec, evaluated),
        ),
        (
            format!("{prefix}_frontier.json"),
            frontier_json(scale_name, spec, evaluated, analysis),
        ),
        (
            format!("{prefix}_frontier.csv"),
            frontier_csv(spec, evaluated, analysis),
        ),
        (
            format!("{prefix}_frontier.md"),
            frontier_markdown(scale_name, spec, evaluated, analysis),
        ),
        (
            format!("{prefix}_points.csv"),
            points_csv(spec, evaluated, analysis),
        ),
    ];
    for (name, content) in files {
        let path = dir.join(name);
        std::fs::write(&path, content)?;
        eprintln!("[explore] wrote {}", path.display());
    }
    Ok(())
}

/// A positive count; `explore` words its error "needs a positive count".
fn count<T: std::str::FromStr + PartialOrd + From<u8>>(f: &mut Flags) -> Result<T, FlagError> {
    f.positive().map_err(|e| {
        let msg = e.to_string();
        FlagError::Usage(msg.replacen("requires a positive integer", "needs a positive count", 1))
    })
}

fn fail_usage(msg: &str) -> i32 {
    FlagError::Usage(msg.to_owned()).exit_code("exp explore", &usage())
}

/// The `exp explore` usage text.
#[must_use]
pub fn usage() -> String {
    "exp explore — multi-objective design-space exploration\n\n\
     usage: exp explore <grid|refine|frontier>\n\
     \x20      [--axes SPEC] [--objectives LIST] [--scale paper|quick|smoke]\n\
     \x20      [--budget N] [--jobs N] [--trials N] [--fault-model SLUG]\n\
     \x20      [--no-cache] [--out DIR] [--in FILE]\n\n\
     modes:\n\
     \x20 grid      evaluate every point of the space at --scale\n\
     \x20 refine    successive halving up the smoke->quick->paper ladder\n\
     \x20           (ending at --scale), within --budget evaluations\n\
     \x20 frontier  re-analyse a persisted .dse records file (--in)\n\n\
     axes (semicolon-separated key=value,... groups; defaults in\n\
     brackets):\n\
     \x20 scheme    uniform | parity | uniform_clean | proposed |\n\
     \x20           proposed_multi:<entries> | silent |\n\
     \x20           reuse:<multiplier>, or the group `challengers`\n\
     \x20           (incumbents + silent + reuse:2,4)  [uniform,parity,\n\
     \x20           uniform_clean,proposed]\n\
     \x20 interval  cleaning intervals, K/M suffixes  [64K,256K,1M,4M]\n\
     \x20 bench     workload slugs (benchmark names, zipf:/storm:/\n\
     \x20           flood:/phase:/trace: generators), or the groups\n\
     \x20           all|fp|int|diversity              [gap]\n\
     \x20 scrub     scrub periods in cycles, or none  [none]\n\
     \x20 l2        geometries <KiB>K[x<ways>x<line>] [1024Kx4x64]\n\
     \x20 interleave bit-interleaving degrees for the fault campaigns\n\
     \x20           (must divide the line's words)    [1]\n\n\
     objectives (comma list, first-class columns of every report):\n\
     \x20 ipc (max), area, traffic, energy, fit, due, sdc (min)\n\
     \x20 default: ipc,area,traffic,fit; due/sdc run fault campaigns,\n\
     \x20 whose strike model --fault-model selects (single, burst:K,\n\
     \x20 col:K, row:K, accum:scrub[:CYCLES]; default single)\n\n\
     outputs under --out (default results/dse/): <mode>_<scale>.dse\n\
     records plus frontier .json/.csv/.md and all-points .csv; the\n\
     frontier JSON is byte-identical for every --jobs count.\n\n\
     exit codes: 0 success, 1 I/O failure, 2 usage error"
        .to_owned()
}

/// Runs `exp explore` with the raw CLI args (everything after the
/// `explore` command word); returns the process exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let Some(mode) = args.first().map(String::as_str) else {
        return fail_usage("missing mode (grid|refine|frontier)");
    };
    if matches!(mode, "help" | "--help" | "-h") {
        println!("{}", usage());
        return 0;
    }
    if !matches!(mode, "grid" | "refine" | "frontier") {
        return fail_usage(&format!("unknown mode '{mode}'"));
    }

    let mut axes: Option<String> = None;
    let mut objectives = ObjectiveSpec::paper_tradeoff();
    let mut scale = Scale::Quick;
    let mut budget: Option<usize> = None;
    let mut jobs = default_jobs();
    let mut trials: u32 = 200;
    let mut model = StrikeModel::Single;
    let mut use_cache = true;
    let mut out_dir = PathBuf::from("results/dse");
    let mut input: Option<PathBuf> = None;
    let parsed = Flags::each(&args[1..], |f, flag| {
        match flag {
            "--axes" => axes = Some(f.value("a spec")?.to_owned()),
            "--objectives" => {
                objectives = ObjectiveSpec::parse(f.value("an objective list")?)
                    .map_err(FlagError::Usage)?;
            }
            "--scale" => scale = f.scale()?,
            "--budget" => budget = Some(count(f)?),
            "--jobs" => jobs = count(f)?,
            "--trials" => trials = count(f)?,
            "--fault-model" => model = f.model()?,
            "--no-cache" => use_cache = false,
            "--out" => out_dir = f.path("a directory")?,
            "--in" => input = Some(f.path("a file")?),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp explore", &usage());
    }

    if mode == "frontier" {
        let path = input.unwrap_or_else(|| out_dir.join(format!("grid_{}.dse", scale.name())));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("exp explore: cannot read {}: {e}", path.display());
                return 1;
            }
        };
        let Some((scale_name, spec, evaluated)) = parse_records(&text) else {
            eprintln!(
                "exp explore: {} is not a valid .dse records file",
                path.display()
            );
            return 1;
        };
        let analysis = analyze(&spec, &evaluated);
        print!(
            "{}",
            frontier_markdown(&scale_name, &spec, &evaluated, &analysis)
        );
        let prefix = format!("reanalysis_{scale_name}");
        if let Err(e) = write_reports(&out_dir, &prefix, &scale_name, &spec, &evaluated, &analysis)
        {
            eprintln!("exp explore: cannot write reports: {e}");
            return 1;
        }
        return 0;
    }

    let space = match parse_axes(axes.as_deref().unwrap_or("")) {
        Ok(s) => s,
        Err(e) => return fail_usage(&e),
    };
    eprintln!(
        "[explore] space: {} points, objectives {}",
        space.len(),
        objectives.to_string_spec()
    );
    let mut evaluator = LabEvaluator::new(jobs, use_cache, trials).with_model(model);

    let evaluated = if mode == "grid" {
        explore_grid(&space, scale, &objectives, &mut evaluator)
    } else {
        let ladder: Vec<Scale> = Scale::LADDER
            .iter()
            .copied()
            .take_while(|s| {
                let pos = |x: Scale| Scale::LADDER.iter().position(|&l| l == x).unwrap();
                pos(*s) <= pos(scale)
            })
            .collect();
        let budget = budget.unwrap_or(2 * space.len());
        let outcome = refine(&space, &ladder, budget, &objectives, &mut evaluator);
        for rung in &outcome.rungs {
            eprintln!(
                "[explore] rung {}: {} evaluated, {} kept",
                rung.scale.name(),
                rung.evaluated,
                rung.kept
            );
        }
        outcome.survivors
    };

    let analysis = analyze(&objectives, &evaluated);
    print!(
        "{}",
        frontier_markdown(scale.name(), &objectives, &evaluated, &analysis)
    );
    eprintln!(
        "[explore] fresh simulations this invocation: {}",
        evaluator.evaluated_runs()
    );
    let prefix = format!("{mode}_{}", scale.name());
    if let Err(e) = write_reports(
        &out_dir,
        &prefix,
        scale.name(),
        &objectives,
        &evaluated,
        &analysis,
    ) {
        eprintln!("exp explore: cannot write reports: {e}");
        return 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_core::SchemeKind;

    #[test]
    fn cycles_parse_with_suffixes() {
        assert_eq!(parse_cycles("64K"), Some(64 * 1024));
        assert_eq!(parse_cycles("1M"), Some(1024 * 1024));
        assert_eq!(parse_cycles("1048576"), Some(1024 * 1024));
        assert_eq!(parse_cycles("1.5M"), None);
        assert_eq!(parse_cycles(""), None);
    }

    #[test]
    fn axes_default_to_the_registry_space() {
        let space = parse_axes("").expect("defaults parse");
        assert_eq!(space, registry::default_space(&[Benchmark::Gap.into()]));
    }

    #[test]
    fn axes_spec_builds_the_requested_grid() {
        let space = parse_axes("scheme=uniform,proposed;interval=256K,1M;bench=gzip,gap")
            .expect("axes parse");
        // (uniform + proposed@256K + proposed@1M) × 2 benchmarks.
        assert_eq!(space.len(), 6);
        assert!(space
            .points()
            .iter()
            .any(|p| p.benchmark == Benchmark::Gzip.into()
                && p.scheme
                    == SchemeKind::Proposed {
                        cleaning_interval: 1024 * 1024
                    }));
        assert!(parse_axes("scheme=bogus").is_err());
        assert!(parse_axes("interval=x").is_err());
        assert!(parse_axes("nonsense").is_err());
        assert!(parse_axes("orbit=low").is_err());
        assert!(parse_axes("scrub=0").is_err());
    }

    #[test]
    fn challenger_axis_values_parse() {
        let space =
            parse_axes("scheme=proposed,silent,reuse:4;interval=1M;bench=gzip").expect("parses");
        let schemes: Vec<SchemeKind> = space.points().iter().map(|p| p.scheme).collect();
        assert_eq!(
            schemes,
            [
                SchemeKind::Proposed {
                    cleaning_interval: 1024 * 1024
                },
                SchemeKind::SilentWriteEcc {
                    cleaning_interval: 1024 * 1024
                },
                SchemeKind::ReuseCopyback {
                    cleaning_interval: 1024 * 1024,
                    multiplier: 4
                },
            ]
        );
        assert!(parse_axes("scheme=reuse:0").is_err());
        assert!(parse_axes("scheme=reuse").is_err());

        // The group spelling expands to the registry line-up.
        let group = parse_axes("scheme=challengers;interval=1M;bench=gzip").expect("parses");
        let want = Space::grid(
            &[Benchmark::Gzip.into()],
            &expand_schemes(&registry::challenger_templates(), &[1024 * 1024]),
            &[],
            &[],
        );
        assert_eq!(group, want);
    }

    #[test]
    fn interleave_axis_sweeps_degrees() {
        let space = parse_axes("scheme=uniform;bench=gzip;interleave=1,4").expect("axes parse");
        assert_eq!(space.len(), 2);
        let degrees: Vec<usize> = space.points().iter().map(|p| p.interleave).collect();
        assert_eq!(degrees, [1, 4]);
        assert!(parse_axes("interleave=0").is_err());
        assert!(parse_axes("interleave=x").is_err());
        // 3 does not divide the default 64-byte line's 8 words.
        assert!(parse_axes("scheme=uniform;interleave=3").is_err());
    }

    #[test]
    fn lab_evaluator_matches_direct_extraction() {
        let space = parse_axes("scheme=uniform;bench=gzip").unwrap();
        let spec = ObjectiveSpec::parse("ipc,area,traffic").unwrap();
        let mut eval = LabEvaluator::new(1, false, 1);
        let got = explore_grid(&space, Scale::Smoke, &spec, &mut eval);
        assert_eq!(got.len(), 1);
        let point = space.points()[0].clone();
        let stats = Lab::new(Scale::Smoke).stats_config(&point.config(Scale::Smoke));
        let want = objectives_from_run(&stats, &point, &spec);
        for (a, b) in got[0].objectives.values.iter().zip(&want.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
