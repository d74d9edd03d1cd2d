//! The repository benchmark's command line.
//!
//! ```text
//! perfbench --workload figures|lanes|faults|serve|all --seed N --seconds S --trace 0|1
//! perfbench reference            rewrite reference/*.txt from the current code
//! perfbench compare BASE HEAD    flag HEAD result lines worse than BASE
//!                                past the bounds in BENCHMARK.json
//! ```
//!
//! A run sets the workload up three times (reporting the median as
//! `setup_s`), then repeats timed passes for `--seconds`, and prints each
//! end-to-end figure with its median, quartiles and sample count. With
//! `--trace 1` it instead runs the traced pass of every workload and
//! prints the per-layer figures. The last stdout line is always the
//! one-line JSON result.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use aep_perfbench::faults::Faults;
use aep_perfbench::figures::Figures;
use aep_perfbench::lanes::Lanes;
use aep_perfbench::serve::Serve;
use aep_perfbench::summary::{bounds_from_benchmark_json, compare, Metric, ResultLine, Summary};
use aep_perfbench::{host, remove_scratch, Layer, Pass, Tally};

/// The end-to-end metrics of the result line, as `BENCHMARK.json` lists
/// them: the ones every workload has. Workload-specific figures, the
/// failure ratio (0 on a healthy run) and peak memory (whole kilobytes,
/// often equal across runs) are printed in the table only.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("wall_s", "s")];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed passes a run makes even when `--seconds` has run out.
const MIN_PASSES: usize = 3;

const WORKLOADS: [&str; 4] = ["figures", "lanes", "faults", "serve"];

// One value per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Workload {
    Figures(Figures),
    Lanes(Lanes),
    Faults(Faults),
    Serve(Serve),
}

impl Workload {
    fn setup(name: &str, seed: u64, tally: &mut Tally) -> Workload {
        match name {
            "figures" => Workload::Figures(Figures::setup(seed, tally)),
            "lanes" => Workload::Lanes(Lanes::setup(seed, tally)),
            "faults" => Workload::Faults(Faults::setup(seed, tally)),
            "serve" => Workload::Serve(Serve::setup(seed, tally)),
            other => unreachable!("workload names are checked at parse time: {other}"),
        }
    }

    fn params(&self) -> String {
        match self {
            Workload::Figures(w) => w.params(),
            Workload::Lanes(w) => w.params(),
            Workload::Faults(w) => w.params(),
            Workload::Serve(w) => w.params(),
        }
    }

    fn pass(&mut self) -> Pass {
        match self {
            Workload::Figures(w) => w.pass(),
            Workload::Lanes(w) => w.pass(),
            Workload::Faults(w) => w.pass(),
            Workload::Serve(w) => w.pass(),
        }
    }

    fn layers(&mut self, tally: &mut Tally) -> Vec<Layer> {
        match self {
            Workload::Figures(w) => w.layers(tally),
            Workload::Lanes(w) => w.layers(tally),
            Workload::Faults(w) => w.layers(tally),
            Workload::Serve(w) => w.layers(tally),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if w != "all" && !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn provenance(args: &Args, params: &[(String, String)]) {
    // Only ask git inside a git checkout, so it never searches the
    // directories above this one.
    let commit = if std::path::Path::new(".git").exists() {
        aep_serve::hammer::git_commit()
    } else {
        "unknown".to_string()
    };
    println!(
        "# commit={} host={} nproc={} jobs={} seed={} seconds={} trace={}",
        commit,
        host::hostname(),
        host::nproc(),
        host::jobs(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, p) in params {
        println!("# {name}: {p}");
    }
}

fn print_row(workload: &str, name: &str, unit: &str, s: &Summary) {
    println!(
        "{workload:<8} {name:<20} {unit:<10} {:>14.6} {:>14.6} {:>14.6} {:>4}",
        s.median, s.q1, s.q3, s.n
    );
}

/// Measures one workload end to end; returns its result metrics.
fn measure(name: &str, args: &Args, tally: &mut Tally) -> (Vec<Metric>, String) {
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = Workload::setup(name, args.seed, tally);
        setups.push(start.elapsed().as_secs_f64());
        drop(state.replace(fresh));
    }
    let mut state = state.expect("at least one set-up");

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < budget {
        passes.push(state.pass());
    }
    let mut run_tally = Tally::default();
    for p in &passes {
        run_tally.merge(p.tally);
    }
    tally.merge(run_tally);

    let setup = Summary::of(&setups);
    let wall = Summary::of(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let rss = host::peak_rss_mb();
    print_row(name, "setup_s", "s", &setup);
    print_row(name, "wall_s", "s", &wall);
    let mut figures: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for p in &passes {
        for (fig, unit, v) in &p.figures {
            figures.entry((fig, unit)).or_default().push(*v);
        }
    }
    for ((fig, unit), values) in &figures {
        print_row(name, fig, unit, &Summary::of(values));
    }
    let failed_ratio = run_tally.failed as f64 / run_tally.attempted.max(1) as f64;
    print_row(name, "failed_ratio", "ratio", &Summary::of(&[failed_ratio]));
    print_row(name, "peak_rss_mb", "MB", &Summary::of(&[rss]));

    let values = [setup.median, wall.median];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u), value)| Metric {
            name: (*n).to_string(),
            unit: (*u).to_string(),
            value,
        })
        .collect();
    (metrics, state.params())
}

fn run(args: &Args) -> ResultLine {
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut tally = Tally::default();
    let mut metrics = Vec::new();
    let mut params = Vec::new();
    if args.trace {
        println!("{:<44} {:<10} {:>14}", "per-layer metric", "unit", "value");
        for name in WORKLOADS {
            let mut state = Workload::setup(name, args.seed, &mut tally);
            for layer in state.layers(&mut tally) {
                println!(
                    "{:<44} {:<10} {:>14.6}",
                    layer.name, layer.unit, layer.value
                );
                metrics.push(Metric {
                    name: layer.name,
                    unit: layer.unit.to_string(),
                    value: layer.value,
                });
            }
            params.push((name.to_string(), state.params()));
        }
    } else {
        println!(
            "{:<8} {:<20} {:<10} {:>14} {:>14} {:>14} {:>4}",
            "workload", "metric", "unit", "median", "q1", "q3", "n"
        );
        for name in &names {
            let (m, p) = measure(name, args, &mut tally);
            params.push(((*name).to_string(), p));
            if names.len() == 1 {
                metrics = m;
            }
        }
    }
    provenance(args, &params);
    ResultLine {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
    }
}

fn compare_files(base: &str, head: &str) -> Result<bool, String> {
    let read_last = |path: &str| -> Result<ResultLine, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let line = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or(format!("{path} is empty"))?;
        ResultLine::parse(line).map_err(|e| format!("{path}: {e}"))
    };
    let bounds_text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = bounds_from_benchmark_json(&bounds_text)?;
    let findings = compare(&read_last(base)?, &read_last(head)?, &bounds);
    for f in &findings {
        println!("{f:?}");
    }
    Ok(findings.is_empty())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("reference") => {
            let jobs = host::jobs();
            let wrote = std::fs::write(
                "perfbench/reference/figures.txt",
                aep_perfbench::figures::render_reference(jobs),
            )
            .and_then(|()| {
                std::fs::write(
                    "perfbench/reference/faults.txt",
                    aep_perfbench::faults::render_reference(jobs),
                )
            });
            if let Err(e) = wrote {
                eprintln!("perfbench: cannot write reference: {e}");
                return ExitCode::from(2);
            }
            ExitCode::SUCCESS
        }
        Some("compare") if argv.len() == 3 => match compare_files(&argv[1], &argv[2]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
        _ => match parse_args(&argv) {
            Ok(args) => {
                let result = run(&args);
                remove_scratch();
                println!("{}", result.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        },
    }
}
