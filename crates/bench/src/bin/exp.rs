//! `exp` — regenerate every table and figure of the paper.
//!
//! Usage: `exp <command> [--scale paper|quick|smoke] [--jobs N]
//! [--no-cache] [--csv|--md] [--out DIR]`
//!
//! The table commands (`table1`, `fig1` … `fig8`, `perf`, `area`, and the
//! extension tables) are the declarations of
//! `aep_bench::experiments::figures()`; `all` prints the paper's own
//! ones in order. The other commands (`faults`, `run`, `trace`, `gate`,
//! `explore`, `check`, `bench`, `faults-bench`, `lanes`, `serve`,
//! `submit`, `hammer`, `workloads`) are dispatched below; `exp help`
//! lists them all.
//!
//! Experiments fan out across `--jobs` worker threads (default: all
//! available cores) and results persist in `results/cache/` so repeated
//! invocations render instantly; `--no-cache` forces fresh runs.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use aep_bench::experiments::{self, Lab, Output, Scale};
use aep_bench::faults::{self, FaultsOptions};
use aep_bench::flags::{default_jobs, Flags};
use aep_bench::{check_cli, explore, gate, serve_cli, workloads_cli};
use aep_sim::runcache::RunCache;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    // These subcommands own their flag grammars; every other command
    // shares the one `run` reads.
    std::process::exit(match command {
        "explore" => explore::run(rest),
        "check" => check_cli::run(rest),
        "serve" => serve_cli::serve(rest),
        "submit" => serve_cli::submit(rest),
        "hammer" => serve_cli::hammer(rest),
        "workloads" => workloads_cli::run(rest),
        _ => run(command, rest),
    });
}

/// Runs a table command or one of the commands sharing its flags;
/// returns the exit code.
fn run(command: &str, args: &[String]) -> i32 {
    let mut scale = None;
    let mut csv = false;
    let mut md = false;
    let mut jobs = default_jobs();
    let mut use_cache = true;
    let mut out_dir: Option<PathBuf> = None;
    let mut check_floor: Option<PathBuf> = None;
    let mut faults_opts = FaultsOptions::default();
    let mut scheme = None;
    let mut stats_json = false;
    let mut serial_lanes = false;
    let mut regen = false;
    let mut golden_dir = gate::default_golden_dir(".");
    let mut trace_capacity = gate::DEFAULT_TRACE_CAPACITY;
    let mut faults_trials: Option<u32> = None;
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--scale" => scale = Some(f.scale()?),
            "--scheme" => scheme = Some(f.scheme()?),
            "--stats-json" => stats_json = true,
            "--serial" => serial_lanes = true,
            "--regen" => regen = true,
            "--golden" => golden_dir = f.path("a directory")?,
            "--capacity" => trace_capacity = f.positive()?,
            "--faults-trials" => faults_trials = Some(f.positive()?),
            "--jobs" => jobs = f.positive()?,
            "--no-cache" => use_cache = false,
            "--csv" => csv = true,
            "--md" => md = true,
            "--trials" => faults_opts.trials = f.positive()?,
            "--p-double" => faults_opts.p_double = f.probability()?,
            "--seed" => faults_opts.seed = f.uint()?,
            "--model" => faults_opts.model = f.model()?,
            "--interleave" => faults_opts.interleave = f.positive()?,
            "--challengers" => faults_opts.challengers = true,
            "--bench" => faults_opts.benchmark = f.workload()?,
            "--out" => out_dir = Some(f.path("a directory")?),
            "--check-floor" => check_floor = Some(f.path("a committed BENCH_*.json path")?),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    // No `help` arm above, so the error is a usage error; the full usage
    // is long, so it is left to `exp help`.
    if let Err(e) = parsed {
        eprintln!("exp: {e}");
        return 2;
    }
    // `gate` compares against smoke-scale goldens unless told otherwise.
    let scale = scale.unwrap_or(if command == "gate" {
        Scale::Smoke
    } else {
        Scale::Quick
    });

    // A fault campaign rejects an interleave degree the layout cannot map
    // before it starts: a usage error, not a panic in the layout.
    if command == "faults" || (command == "run" && faults_trials.is_some()) {
        if let Err(msg) = faults::check_interleave(scale, &faults_opts) {
            eprintln!("{msg}");
            return 2;
        }
    }
    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return 1;
        }
    }
    let mut fig_index = 0u32;
    let mut emit = |out: Output| {
        let fig = match out {
            Output::Text(text) => {
                print!("{text}");
                return;
            }
            Output::Table(fig) => fig,
        };
        if let Some(dir) = &out_dir {
            fig_index += 1;
            // Derive a filename from the figure title's first word(s).
            let slug: String = fig
                .title
                .chars()
                .take_while(|&c| c != ':')
                .filter_map(|c| match c {
                    'a'..='z' | 'A'..='Z' | '0'..='9' => Some(c.to_ascii_lowercase()),
                    ' ' | '.' | '§' => Some('_'),
                    _ => None,
                })
                .collect();
            let path = dir.join(format!("{fig_index:02}_{}.csv", slug.trim_matches('_')));
            if let Err(e) = std::fs::write(&path, fig.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("[exp] wrote {}", path.display());
        }
        if csv {
            println!("{}", fig.to_csv());
        } else if md {
            println!("{}\n{}", fig.title, fig.to_markdown());
        } else {
            println!("{}", fig.to_text());
        }
    };
    let mut lab = Lab::new(scale).verbose().jobs(jobs);
    if use_cache {
        lab = lab.with_disk_cache(RunCache::default_under("."));
    }

    match command {
        "faults" => {
            let disk = use_cache.then(|| RunCache::default_under("."));
            let mut reg = stats_json.then(aep_obs::Registry::new);
            let fig = faults::faults_figure(
                scale,
                &faults_opts,
                jobs,
                disk.as_ref(),
                &mut lab,
                true,
                reg.as_mut(),
            );
            if let Some(reg) = reg {
                let snap = aep_obs::StatsSnapshot::from_registry(
                    reg,
                    &[
                        ("experiment", "faults"),
                        ("model", &faults_opts.model.slug()),
                        ("benchmark", &faults_opts.benchmark.name()),
                        ("scale", scale.name()),
                    ],
                );
                print!("{}", snap.to_json());
            } else {
                emit(Output::Table(fig));
            }
        }
        "bench" | "faults-bench" => {
            return run_harness(
                command,
                scale,
                faults_opts.trials,
                jobs,
                out_dir,
                check_floor.as_deref(),
            );
        }
        "run" => {
            let kind = scheme.unwrap_or_else(experiments::proposed);
            let faults_table = faults_trials.map(|trials| {
                let mut opts = faults_opts.clone();
                opts.trials = trials;
                let cfg = faults::campaign_config(scale, &opts, kind);
                eprintln!(
                    "[run] attaching fault campaign: {trials} trials on {}",
                    cfg.benchmark.name()
                );
                aep_faultsim::run_campaign(&cfg, jobs)
            });
            let snap = gate::snapshot(scale, &faults_opts.benchmark, kind, faults_table.as_ref());
            if stats_json {
                print!("{}", snap.to_json());
            } else {
                for (k, v) in &snap.meta {
                    println!("# {k} = {v}");
                }
                for (k, v) in &snap.stats {
                    match v {
                        aep_obs::StatValue::Counter(n) => println!("{k} = {n}"),
                        aep_obs::StatValue::Rate(x) => println!("{k} = {x}"),
                    }
                }
            }
        }
        "trace" => {
            let kind = scheme.unwrap_or_else(experiments::proposed);
            let run = gate::observed(scale, &faults_opts.benchmark, kind, Some(trace_capacity));
            let trace = run.trace.expect("trace was enabled for this run");
            print!("{}", trace.to_jsonl());
        }
        "gate" => return gate::gate_command(scale, &faults_opts.benchmark, &golden_dir, regen),
        "lanes" => run_lanes_snapshot(scale, &faults_opts.benchmark, serial_lanes),
        "all" => {
            // One up-front plan covering every figure below, so the whole
            // session executes as a single parallel batch.
            lab.prefetch(&experiments::all_configs());
            for fig in experiments::figures().iter().filter(|f| f.in_all) {
                emit(fig.render(&mut lab));
            }
            eprintln!("[lab] total distinct runs: {}", lab.runs());
        }
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => match experiments::figure(other) {
            Some(fig) => emit(fig.render(&mut lab)),
            None => {
                eprintln!("exp: unknown command '{other}'\n\n{}", usage());
                return 2;
            }
        },
    }
    0
}

fn usage() -> String {
    let figures = experiments::figures();
    let mut tables = String::new();
    for fig in &figures {
        let _ = writeln!(tables, "  {:<12}{}", fig.slug, fig.title());
    }
    let all: Vec<&str> = figures
        .iter()
        .filter(|f| f.in_all)
        .map(|f| f.slug)
        .collect();
    format!(
        "exp — regenerate the paper's tables and figures\n\n\
         usage: exp <command> [--scale paper|quick|smoke] [--jobs N]\n\
         \x20                 [--no-cache] [--csv|--md] [--out DIR]\n\n\
         tables:\n\
         {tables}\
         \x20 all         the paper's result, in order:\n\
         \x20             {}\n\n\
         other commands:\n\
         \x20 faults      live fault-injection campaign per scheme\n\
         \x20             [--trials N] [--p-double P] [--seed S] [--bench B]\n\
         \x20             [--model single|burst:K|col:K|row:K|accum:scrub[:C]]\n\
         \x20             [--interleave D] [--challengers] [--stats-json]\n\
         \x20             (--challengers appends the related-work schemes)\n\
         \x20 run         one observed experiment: full stats snapshot\n\
         \x20             [--bench B] [--scheme S] [--stats-json]\n\
         \x20             [--faults-trials N]\n\
         \x20 trace       dump the cycle trace of one run as JSONL\n\
         \x20             [--bench B] [--scheme S] [--capacity N]\n\
         \x20 gate        stats-regression gate vs results/golden/\n\
         \x20             (default scale: smoke) [--golden DIR] [--regen]\n\
         \x20 explore     design-space exploration: grid | refine | frontier\n\
         \x20             (see `exp explore help` for axes and objectives)\n\
         \x20 check       differential checking: lockstep golden model,\n\
         \x20             protocol invariants, coverage-guided fuzzing\n\
         \x20             (see `exp check help`; violations exit 1)\n\
         \x20 bench       engine-throughput harness: serial scheme ladder +\n\
         \x20             lane-parallel batch (BENCH_engine.json, written\n\
         \x20             under [--out DIR], default .)\n\
         \x20             [--check-floor FILE] fails (exit 1) if the lane\n\
         \x20             aggregate speedup regresses >20% vs FILE\n\
         \x20 faults-bench  campaign-throughput harness: one fault campaign\n\
         \x20             per strike model, normalised trials/Mcycle\n\
         \x20             (BENCH_faults.json, written under [--out DIR],\n\
         \x20             default .) [--trials N] [--check-floor FILE]\n\
         \x20 lanes       run the standard lane set, print per-lane stats\n\
         \x20             snapshots [--bench B]; [--serial] runs each lane\n\
         \x20             independently (outputs must be byte-identical)\n\
         \x20 serve       start the persistent simulation daemon (NDJSON over\n\
         \x20             TCP/Unix socket, shared run cache, admission control;\n\
         \x20             see `exp serve help`)\n\
         \x20 submit      send one experiment to a running daemon and print\n\
         \x20             its result (also --ping/--stats/--shutdown;\n\
         \x20             see `exp submit help`)\n\
         \x20 hammer      load-test a running daemon, validating every response\n\
         \x20             bit-exactly (BENCH_serve.json; see `exp hammer help`)\n\
         \x20 workloads   diversity coverage report and trace corpus tools:\n\
         \x20             `report [--check]` gates on each generator family\n\
         \x20             reaching features the calibrated suite never does;\n\
         \x20             `gen-corpus` regenerates traces/ (see help)\n\n\
         flags:\n\
         \x20 --jobs N     worker threads for experiment fan-out\n\
         \x20              (default: available cores; output is\n\
         \x20              identical for every N)\n\
         \x20 --scheme S   scheme slug: uniform | parity | uniform_clean:N |\n\
         \x20              proposed:N | proposed_multi:N:E | silent:N |\n\
         \x20              reuse:N:M (default: proposed at the calibrated\n\
         \x20              interval)\n\
         \x20 --no-cache   ignore and do not write results/cache/\n\n\
         exit codes: 0 success, 1 stats-gate regression or check violation,\n\
         2 usage error",
        all.join(", ")
    )
}

/// Runs the standard lane set and prints one stats snapshot per lane —
/// `--serial` runs each lane as an independent system instead, and the
/// two outputs must be byte-identical (the `lanes-vs-serial` determinism
/// leg diffs them).
fn run_lanes_snapshot(scale: Scale, benchmark: &aep_workloads::Workload, serial: bool) {
    let lanes = aep_bench::engine_bench::bench_lanes();
    let cfg = scale.config(benchmark.clone(), lanes[0].scheme);
    let results: Vec<aep_sim::LaneResult> = if serial {
        lanes
            .iter()
            .map(|lane| aep_sim::run_lane_serial(&cfg, lane))
            .collect()
    } else {
        aep_sim::run_lanes(&cfg, &lanes)
    };
    for r in results {
        let label = r.spec.label();
        let snap = aep_obs::StatsSnapshot::from_registry(
            r.registry,
            &[
                ("lane", label.as_str()),
                ("benchmark", &benchmark.name()),
                ("scale", scale.name()),
            ],
        );
        println!("{}", snap.to_json());
        println!("stats[{label}]: {:?}", r.stats);
    }
}

/// `exp bench` / `exp faults-bench`: runs the throughput harness, prints
/// its report, writes `<out>/BENCH_engine.json` (or `BENCH_faults.json`)
/// and, with `--check-floor FILE`, fails (exit 1) on a regression
/// against the committed floor in FILE.
fn run_harness(
    command: &str,
    scale: Scale,
    trials: u32,
    jobs: usize,
    out_dir: Option<PathBuf>,
    check_floor: Option<&Path>,
) -> i32 {
    // Read the committed floor before the run, which may overwrite it.
    let mut floor = None;
    if let Some(path) = check_floor {
        match std::fs::read_to_string(path) {
            Ok(text) => floor = Some(text),
            Err(e) => {
                eprintln!("cannot read floor file {}: {e}", path.display());
                return 2;
            }
        }
    }
    let (file, text, json, verdict) = if command == "bench" {
        let report =
            aep_bench::engine_bench::run_engine_bench(scale, aep_workloads::Benchmark::Gap);
        let verdict = floor.map(|floor| report.check_floor(&floor, 0.2));
        (
            "BENCH_engine.json",
            report.to_text(),
            report.to_json(),
            verdict,
        )
    } else {
        let report = aep_bench::faults_bench::run_faults_bench(scale, trials, jobs);
        // 50%, not the engine harness's 20%: trials/Mcycle divides two
        // wall-clock measurements with different parallelism, so CPU
        // frequency jitter does not fully cancel. The floor catches
        // algorithmic regressions (a model going quadratic), not drift.
        let verdict = floor.map(|floor| report.check_floor(&floor, 0.5));
        (
            "BENCH_faults.json",
            report.to_text(),
            report.to_json(),
            verdict,
        )
    };
    println!("{text}");
    let path = out_dir.unwrap_or_default().join(file);
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }
    eprintln!("[{command}] wrote {}", path.display());
    match verdict {
        Some(Err(msg)) => {
            eprintln!("[{command}] FAIL: {msg}");
            1
        }
        Some(Ok(msg)) => {
            eprintln!("[{command}] {msg}");
            0
        }
        None => 0,
    }
}
