//! `exp` — regenerate every table and figure of the paper.
//!
//! Every command is one declaration in [`commands`]: the table commands
//! (`table1`, `fig1` … `fig8`, `perf`, `area`, and the extension tables)
//! come from `aep_bench::experiments::figures()`, `all` prints the
//! paper's own ones in order, and the other commands are declared here
//! or by the modules that run them. `exp help` lists them all and
//! `exp <command> help` lists a command's flags.
//!
//! Experiments fan out across `--jobs` worker threads (default: all
//! available cores) and results persist in `results/cache/` so repeated
//! invocations render instantly; `--no-cache` forces fresh runs.

use std::path::{Path, PathBuf};

use aep_bench::experiments::{self, Lab, Output, Scale};
use aep_bench::faults::{self, FaultsOptions};
use aep_bench::flags::{self, default_jobs, Command, JOBS_HELP, NO_CACHE_HELP, SCHEME_HELP};
use aep_bench::{check_cli, explore, gate, serve_cli, workloads_cli};
use aep_core::SchemeKind;
use aep_sim::runcache::RunCache;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(flags::dispatch(&commands(), &args));
}

/// What the commands declared here read from their flags.
#[derive(Default)]
struct Opts {
    scale: Option<Scale>,
    jobs: Option<usize>,
    no_cache: bool,
    csv: bool,
    md: bool,
    out: Option<PathBuf>,
    check_floor: Option<PathBuf>,
    faults: FaultsOptions,
    scheme: Option<SchemeKind>,
    stats_json: bool,
    serial: bool,
    regen: bool,
    golden: Option<PathBuf>,
    capacity: Option<usize>,
    faults_trials: Option<u32>,
}

aep_bench::flags! { Opts:
    SCALE "--scale" "S" "experiment scale: paper|quick|smoke (default: quick; smoke for gate)",
        |f, o| o.scale = Some(f.scale()?);
    JOBS "--jobs" "N" JOBS_HELP, |f, o| o.jobs = Some(f.positive()?);
    NO_CACHE "--no-cache" "" NO_CACHE_HELP, |_, o| o.no_cache = true;
    CSV "--csv" "" "print each table as CSV", |_, o| o.csv = true;
    MD "--md" "" "print each table as markdown", |_, o| o.md = true;
    OUT "--out" "DIR" "also write each table to DIR/<nn>_<title>.csv",
        |f, o| o.out = Some(f.path("a directory")?);
    REPORT "--out" "DIR" "write the report under DIR (default: the working directory)",
        |f, o| o.out = Some(f.path("a directory")?);
    FLOOR "--check-floor" "FILE" "fail (exit 1) on a regression against the committed \
        record in FILE (bench: lane speedup, 20% tolerance; faults-bench: min trials/Mcycle, \
        50% tolerance)", |f, o| o.check_floor = Some(f.path("a committed BENCH_*.json path")?);
    TRIALS "--trials" "N" "trials per campaign (default: 1000)",
        |f, o| o.faults.trials = f.positive()?;
    P_DOUBLE "--p-double" "P" "probability that a single-model strike flips two bits of one \
        word (default: 0)", |f, o| o.faults.p_double = f.probability()?;
    SEED "--seed" "S" "campaign seed (default: 2006)", |f, o| o.faults.seed = f.uint()?;
    MODEL "--model" "M" "strike model: single|burst:K|col:K|row:K|accum:scrub[:CYCLES] \
        (default: single)", |f, o| o.faults.model = f.model()?;
    INTERLEAVE "--interleave" "D" "bit-interleaving degree of the L2 data array; must divide \
        the line's words (default: 1)", |f, o| o.faults.interleave = f.positive()?;
    CHALLENGER "--challengers" "" "append the related-work challenger schemes to the line-up",
        |_, o| o.faults.challengers = true;
    BENCH "--bench" "B" "workload: a benchmark name or a zipf:/storm:/flood:/phase:/trace: \
        slug (default: gap)", |f, o| o.faults.benchmark = f.workload()?;
    STATS_JSON "--stats-json" "" "print the stats snapshot as JSON", |_, o| o.stats_json = true;
    SCHEME "--scheme" "S" SCHEME_HELP, |f, o| o.scheme = Some(f.scheme()?);
    CAMPAIGN "--faults-trials" "N" "attach a fault campaign of N trials to the snapshot",
        |f, o| o.faults_trials = Some(f.positive()?);
    CAPACITY "--capacity" "N" "trace ring capacity in events (default: 4096)",
        |f, o| o.capacity = Some(f.positive()?);
    GOLDEN "--golden" "DIR" "golden snapshot directory (default: results/golden)",
        |f, o| o.golden = Some(f.path("a directory")?);
    REGEN "--regen" "" "rewrite the goldens from this build", |_, o| o.regen = true;
    SERIAL "--serial" "" "run each lane as an independent system (the output must be \
        byte-identical)", |_, o| o.serial = true;
}

/// The flags of every table command.
const TABLE: &[flags::Flag<Opts>] = &[SCALE, JOBS, NO_CACHE, CSV, MD, OUT];

/// Every `exp` command, in `exp help` order.
fn commands() -> Vec<Command> {
    let figures = experiments::figures();
    let in_all: Vec<&str> = figures
        .iter()
        .filter(|f| f.in_all)
        .map(|f| f.slug)
        .collect();
    let all = format!("the paper's result, in order: {}", in_all.join(", "));
    let mut commands: Vec<Command> = figures
        .into_iter()
        .map(|fig| {
            Command::new(fig.slug, fig.title(), TABLE, Opts::default, move |o| {
                print_tables(&o, std::iter::once_with(|| fig.render(&mut o.lab())))
            })
        })
        .collect();
    commands.extend([
        Command::new("all", all, TABLE, Opts::default, all_tables),
        Command::new(
            "faults",
            "live fault-injection campaign per scheme",
            &[
                SCALE, JOBS, NO_CACHE, CSV, MD, OUT, TRIALS, P_DOUBLE, SEED, MODEL, INTERLEAVE,
                CHALLENGER, BENCH, STATS_JSON,
            ],
            Opts::default,
            run_faults,
        ),
        Command::new(
            "run",
            "one observed experiment: its full stats snapshot",
            &[
                SCALE, BENCH, SCHEME, STATS_JSON, CAMPAIGN, JOBS, P_DOUBLE, SEED, MODEL, INTERLEAVE,
            ],
            Opts::default,
            run_observed,
        ),
        Command::new(
            "trace",
            "dump the cycle trace of one run as JSONL",
            &[SCALE, BENCH, SCHEME, CAPACITY],
            Opts::default,
            run_trace,
        ),
        Command::new(
            "gate",
            "stats-regression gate against the golden snapshots; a regression exits 1",
            &[SCALE, BENCH, GOLDEN, REGEN],
            Opts::default,
            |o| {
                let golden = o.golden.unwrap_or_else(|| gate::default_golden_dir("."));
                let scale = o.scale.unwrap_or(Scale::Smoke);
                gate::gate_command(scale, &o.faults.benchmark, &golden, o.regen)
            },
        ),
    ]);
    commands.extend(explore::commands());
    commands.push(check_cli::command());
    commands.extend([
        Command::new(
            "bench",
            "engine-throughput harness: serial scheme ladder and lane-parallel batch \
             (BENCH_engine.json)",
            &[SCALE, REPORT, FLOOR],
            Opts::default,
            |o| run_harness("bench", &o),
        ),
        Command::new(
            "faults-bench",
            "campaign-throughput harness: one fault campaign per strike model, normalised \
             to trials/Mcycle (BENCH_faults.json)",
            &[SCALE, TRIALS, JOBS, REPORT, FLOOR],
            Opts::default,
            |o| run_harness("faults-bench", &o),
        ),
        Command::new(
            "lanes",
            "run the standard lane set and print each lane's stats snapshot",
            &[SCALE, BENCH, SERIAL],
            Opts::default,
            run_lanes_snapshot,
        ),
    ]);
    commands.extend(serve_cli::commands());
    commands.extend(workloads_cli::commands());
    commands
}

impl Opts {
    fn scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::Quick)
    }

    fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(default_jobs)
    }

    /// The lab the table commands render through.
    fn lab(&self) -> Lab {
        let lab = Lab::new(self.scale()).verbose().jobs(self.jobs());
        if self.no_cache {
            lab
        } else {
            lab.with_disk_cache(RunCache::default_under("."))
        }
    }

    /// `--out DIR`, created; exits 1 when it cannot be.
    fn out_dir(&self) -> Option<&Path> {
        let dir = self.out.as_deref()?;
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        Some(dir)
    }
}

/// Prints each rendered table as text, CSV or markdown and, with
/// `--out DIR`, also writes the n-th to `DIR/<nn>_<title>.csv`.
fn print_tables(o: &Opts, outputs: impl Iterator<Item = Output>) -> i32 {
    let dir = o.out_dir();
    let tables = outputs.filter_map(|out| match out {
        Output::Text(text) => {
            print!("{text}");
            None
        }
        Output::Table(fig) => Some(fig),
    });
    for (i, fig) in tables.enumerate() {
        if let Some(dir) = dir {
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
            let path = dir.join(format!("{:02}_{}.csv", i + 1, slug.trim_matches('_')));
            if let Err(e) = std::fs::write(&path, fig.to_csv()) {
                eprintln!("cannot write {}: {e}", path.display());
                return 1;
            }
            eprintln!("[exp] wrote {}", path.display());
        }
        if o.csv {
            println!("{}", fig.to_csv());
        } else if o.md {
            println!("{}\n{}", fig.title, fig.to_markdown());
        } else {
            println!("{}", fig.to_text());
        }
    }
    0
}

/// `exp all`: one up-front plan covering every figure, so the whole
/// session executes as a single parallel batch.
fn all_tables(o: Opts) -> i32 {
    let mut lab = o.lab();
    lab.prefetch(&experiments::all_configs());
    let figures = experiments::figures();
    let tables = figures
        .iter()
        .filter(|f| f.in_all)
        .map(|f| f.render(&mut lab));
    let code = print_tables(&o, tables);
    eprintln!("[lab] total distinct runs: {}", lab.runs());
    code
}

/// `exp faults`.
fn run_faults(o: Opts) -> i32 {
    // A campaign rejects an interleave degree the layout cannot map before
    // it starts: a usage error, not a panic in the layout.
    if let Err(msg) = faults::check_interleave(o.scale(), &o.faults) {
        eprintln!("{msg}");
        return 2;
    }
    let scale = o.scale();
    let disk = (!o.no_cache).then(|| RunCache::default_under("."));
    let mut reg = o.stats_json.then(aep_obs::Registry::new);
    let fig = faults::faults_figure(
        scale,
        &o.faults,
        o.jobs(),
        disk.as_ref(),
        &mut o.lab(),
        true,
        reg.as_mut(),
    );
    if let Some(reg) = reg {
        let snap = aep_obs::StatsSnapshot::from_registry(
            reg,
            &[
                ("experiment", "faults"),
                ("model", &o.faults.model.slug()),
                ("benchmark", &o.faults.benchmark.name()),
                ("scale", scale.name()),
            ],
        );
        print!("{}", snap.to_json());
        0
    } else {
        print_tables(&o, std::iter::once(Output::Table(fig)))
    }
}

/// `exp run`.
fn run_observed(o: Opts) -> i32 {
    let checked = faults::check_interleave(o.scale(), &o.faults);
    if let (Some(_), Err(msg)) = (o.faults_trials, checked) {
        eprintln!("{msg}");
        return 2;
    }
    let scale = o.scale();
    let kind = o.scheme.unwrap_or_else(experiments::proposed);
    let faults_table = o.faults_trials.map(|trials| {
        let opts = FaultsOptions {
            trials,
            ..o.faults.clone()
        };
        let cfg = faults::campaign_config(scale, &opts, kind);
        eprintln!(
            "[run] attaching fault campaign: {trials} trials on {}",
            cfg.benchmark.name()
        );
        aep_faultsim::run_campaign(&cfg, o.jobs())
    });
    let snap = gate::snapshot(scale, &o.faults.benchmark, kind, faults_table.as_ref());
    if o.stats_json {
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
    0
}

/// `exp trace`.
fn run_trace(o: Opts) -> i32 {
    let kind = o.scheme.unwrap_or_else(experiments::proposed);
    let capacity = o.capacity.unwrap_or(gate::DEFAULT_TRACE_CAPACITY);
    let run = gate::observed(o.scale(), &o.faults.benchmark, kind, Some(capacity));
    let trace = run.trace.expect("trace was enabled for this run");
    print!("{}", trace.to_jsonl());
    0
}

/// Runs the standard lane set and prints one stats snapshot per lane —
/// `--serial` runs each lane as an independent system instead, and the
/// two outputs must be byte-identical (the `lanes-vs-serial` determinism
/// leg diffs them).
fn run_lanes_snapshot(o: Opts) -> i32 {
    let (scale, benchmark) = (o.scale(), &o.faults.benchmark);
    let lanes = aep_bench::engine_bench::bench_lanes();
    let cfg = scale.config(benchmark.clone(), lanes[0].scheme);
    let results: Vec<aep_sim::LaneResult> = if o.serial {
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
    0
}

/// `exp bench` / `exp faults-bench`: runs the throughput harness, prints
/// its report, writes `<out>/BENCH_engine.json` (or `BENCH_faults.json`)
/// and, with `--check-floor FILE`, fails (exit 1) on a regression
/// against the committed floor in FILE.
fn run_harness(command: &str, o: &Opts) -> i32 {
    let scale = o.scale();
    // Read the committed floor before the run, which may overwrite it.
    let floor = o.check_floor.as_ref().map(|path| {
        std::fs::read_to_string(path)
            .map_err(|e| eprintln!("cannot read floor file {}: {e}", path.display()))
    });
    let Ok(floor) = floor.transpose() else {
        return 2;
    };
    let (file, text, json, verdict) = if command == "bench" {
        let r = aep_bench::engine_bench::run_engine_bench(scale, aep_workloads::Benchmark::Gap);
        let verdict = floor.map(|floor| r.check_floor(&floor, 0.2));
        ("BENCH_engine.json", r.to_text(), r.to_json(), verdict)
    } else {
        let r = aep_bench::faults_bench::run_faults_bench(scale, o.faults.trials, o.jobs());
        // 50%, not the engine harness's 20%: trials/Mcycle divides two
        // wall-clock measurements with different parallelism, so CPU
        // frequency jitter does not fully cancel. The floor catches
        // algorithmic regressions (a model going quadratic), not drift.
        let verdict = floor.map(|floor| r.check_floor(&floor, 0.5));
        ("BENCH_faults.json", r.to_text(), r.to_json(), verdict)
    };
    println!("{text}");
    let path = o.out_dir().unwrap_or(Path::new("")).join(file);
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
