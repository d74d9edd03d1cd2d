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
use aep_workloads::{diversity_workloads, Benchmark, Workload};

use crate::experiments::{Lab, Scale};
use crate::faults::{self, FaultsOptions};
use crate::flags::{default_jobs, Command, FlagError, Flags, JOBS_HELP, NO_CACHE_HELP};
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
            "diversity" => out.extend(diversity_workloads()),
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
    scale: Scale,
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
    analysis: &Analysis,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let scale_name = scale.name();
    let files = [
        (
            format!("{prefix}.dse"),
            write_records(scale, spec, evaluated),
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

/// What `exp explore` reads from its flags.
struct ExploreOpts {
    space: Space,
    objectives: ObjectiveSpec,
    scale: Scale,
    budget: Option<usize>,
    jobs: usize,
    trials: u32,
    model: StrikeModel,
    use_cache: bool,
    out_dir: PathBuf,
    input: Option<PathBuf>,
}

crate::flags! { ExploreOpts:
    AXES "--axes" "SPEC" "the design space: semicolon-separated key=value,... groups over the \
        axes scheme (uniform | parity | uniform_clean | proposed | proposed_multi:<entries> | \
        silent | reuse:<multiplier>, or the group challengers), interval (cleaning intervals, K/M \
        suffixes), bench (workload slugs, or the groups all|fp|int|diversity), scrub (periods \
        in cycles, or none), l2 (geometries <KiB>K[x<ways>x<line>]) and interleave (degrees \
        that divide the line's words); an omitted axis takes its default \
        (uniform,parity,uniform_clean,proposed; 64K,256K,1M,4M; gap; none; 1024Kx4x64; 1)",
        |f, o| o.space = parse_axes(f.value("a spec")?).map_err(FlagError::Usage)?;
    OBJECTIVES "--objectives" "LIST" "comma list of ipc (max), area, traffic, energy, fit, \
        due, sdc (min); due and sdc run fault campaigns (default: ipc,area,traffic,fit)",
        |f, o| o.objectives = ObjectiveSpec::parse(f.value("an objective list")?)
            .map_err(FlagError::Usage)?;
    SCALE "--scale" "S" "paper|quick|smoke: the scale evaluated, the top of refine's ladder, \
        the scale of frontier's default records file (default: quick)",
        |f, o| o.scale = f.scale()?;
    BUDGET "--budget" "N" "evaluations allowed across the ladder (default: twice the space)",
        |f, o| o.budget = Some(count(f)?);
    JOBS "--jobs" "N" JOBS_HELP, |f, o| o.jobs = count(f)?;
    TRIALS "--trials" "N" "campaign trials per point for due and sdc (default: 200)",
        |f, o| o.trials = count(f)?;
    MODEL "--fault-model" "M" "strike model of the due and sdc campaigns: \
        single|burst:K|col:K|row:K|accum:scrub[:CYCLES] (default: single)",
        |f, o| o.model = f.model()?;
    NO_CACHE "--no-cache" "" NO_CACHE_HELP, |_, o| o.use_cache = false;
    OUT "--out" "DIR" "report directory: <mode>_<scale>.dse records plus frontier \
        .json/.csv/.md and all-points .csv; the frontier JSON is byte-identical for every \
        --jobs (default: results/dse)", |f, o| o.out_dir = f.path("a directory")?;
    IN "--in" "FILE" "the .dse records file to re-analyse (default: DIR/grid_<scale>.dse)",
        |f, o| o.input = Some(f.path("a file")?);
}

impl ExploreOpts {
    fn new() -> Self {
        ExploreOpts {
            space: registry::default_space(&[Benchmark::Gap.into()]),
            objectives: ObjectiveSpec::paper_tradeoff(),
            scale: Scale::Quick,
            budget: None,
            jobs: default_jobs(),
            trials: 200,
            model: StrikeModel::Single,
            use_cache: true,
            out_dir: PathBuf::from("results/dse"),
            input: None,
        }
    }
}

/// The `exp explore` declarations, one per mode.
#[must_use]
pub fn commands() -> Vec<Command> {
    vec![
        Command::new(
            "explore grid",
            "multi-objective design-space exploration: evaluate every point of the space \
             at --scale",
            &[AXES, OBJECTIVES, SCALE, JOBS, TRIALS, MODEL, NO_CACHE, OUT],
            ExploreOpts::new,
            |o| search("grid", o),
        ),
        Command::new(
            "explore refine",
            "successive halving up the smoke -> quick -> paper ladder, ending at --scale, \
             within --budget evaluations",
            &[
                AXES, OBJECTIVES, SCALE, BUDGET, JOBS, TRIALS, MODEL, NO_CACHE, OUT,
            ],
            ExploreOpts::new,
            |o| search("refine", o),
        ),
        Command::new(
            "explore frontier",
            "re-analyse a persisted .dse records file",
            &[IN, OUT, SCALE],
            ExploreOpts::new,
            frontier,
        ),
    ]
}

/// Analyses `evaluated`, prints its frontier and writes the reports
/// `<dir>/<prefix>*`; returns the exit code.
fn report(
    dir: &Path,
    prefix: &str,
    scale: Scale,
    spec: &ObjectiveSpec,
    evaluated: &[EvaluatedPoint],
) -> i32 {
    let analysis = analyze(spec, evaluated);
    print!(
        "{}",
        frontier_markdown(scale.name(), spec, evaluated, &analysis)
    );
    if let Err(e) = write_reports(dir, prefix, scale, spec, evaluated, &analysis) {
        eprintln!("exp explore: cannot write reports: {e}");
        return 1;
    }
    0
}

/// `exp explore frontier`.
fn frontier(o: ExploreOpts) -> i32 {
    let path = o
        .input
        .unwrap_or_else(|| o.out_dir.join(format!("grid_{}.dse", o.scale.name())));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("exp explore: cannot read {}: {e}", path.display());
            return 1;
        }
    };
    match parse_records(&text) {
        Ok((scale, spec, evaluated)) => {
            let prefix = format!("reanalysis_{}", scale.name());
            report(&o.out_dir, &prefix, scale, &spec, &evaluated)
        }
        Err(e) => {
            eprintln!(
                "exp explore: {} is not a valid .dse records file: {e}",
                path.display()
            );
            1
        }
    }
}

/// `exp explore grid` and `exp explore refine`.
fn search(mode: &str, o: ExploreOpts) -> i32 {
    let (space, objectives, scale) = (&o.space, &o.objectives, o.scale);
    eprintln!(
        "[explore] space: {} points, objectives {}",
        space.len(),
        objectives.to_string_spec()
    );
    let mut evaluator = LabEvaluator::new(o.jobs, o.use_cache, o.trials).with_model(o.model);

    let evaluated = if mode == "grid" {
        explore_grid(space, scale, objectives, &mut evaluator)
    } else {
        let ladder: Vec<Scale> = Scale::LADDER
            .iter()
            .copied()
            .take_while(|s| {
                let pos = |x: Scale| Scale::LADDER.iter().position(|&l| l == x).unwrap();
                pos(*s) <= pos(scale)
            })
            .collect();
        let budget = o.budget.unwrap_or(2 * space.len());
        let outcome = refine(space, &ladder, budget, objectives, &mut evaluator);
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
    eprintln!(
        "[explore] fresh simulations this invocation: {}",
        evaluator.evaluated_runs()
    );
    let prefix = format!("{mode}_{}", scale.name());
    report(&o.out_dir, &prefix, scale, objectives, &evaluated)
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
