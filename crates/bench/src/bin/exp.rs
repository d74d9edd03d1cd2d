//! `exp` — regenerate every table and figure of the paper.
//!
//! Usage: `exp <command> [--scale paper|quick|smoke] [--jobs N]
//! [--no-cache] [--csv|--md] [--out DIR]`
//!
//! Commands: `table1`, `fig1`, `fig2`, `fig3`, `fig4`, `fig5`, `fig6`,
//! `fig7`, `fig8`, `perf`, `area`, `calibrate`, `bench`, `all`.
//!
//! Experiments fan out across `--jobs` worker threads (default: all
//! available cores) and results persist in `results/cache/` so repeated
//! invocations render instantly; `--no-cache` forces fresh runs.

use aep_bench::experiments::{self, Lab, Scale};
use aep_bench::faults::{self, FaultsOptions};
use aep_bench::gate;
use aep_bench::runcache::{parse_scheme_slug, RunCache};
use aep_core::area::AreaModel;
use aep_core::CleaningLogic;
use aep_cpu::CoreConfig;
use aep_faultsim::StrikeModel;
use aep_mem::HierarchyConfig;
use aep_workloads::BenchKind;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::from("help");
    let mut scale = Scale::Quick;
    let mut scale_set = false;
    let mut csv = false;
    let mut md = false;
    let mut jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut use_cache = true;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut check_floor: Option<std::path::PathBuf> = None;
    let mut faults_opts = FaultsOptions::default();
    let mut scheme: Option<aep_core::SchemeKind> = None;
    let mut stats_json = false;
    let mut serial_lanes = false;
    let mut regen = false;
    let mut golden_dir = gate::default_golden_dir(".");
    let mut trace_capacity = gate::DEFAULT_TRACE_CAPACITY;
    let mut faults_trials: Option<u32> = None;
    let mut it = args.iter();
    if let Some(c) = it.next() {
        command = c.clone();
    }
    // `explore` has its own flag grammar (--axes, --objectives, --budget,
    // --in); hand the remaining args over before the generic loop below
    // rejects them.
    if command == "explore" {
        std::process::exit(aep_bench::explore::run(&args[1..]));
    }
    // Likewise `check`: the differential checker's flags (--fuzz-iters,
    // --seed, --inject-violation) are its own.
    if command == "check" {
        std::process::exit(aep_bench::check_cli::run(&args[1..]));
    }
    // The simulation-service subcommands (daemon, client, load harness)
    // own their grammars too.
    if command == "serve" {
        std::process::exit(aep_bench::serve_cli::serve(&args[1..]));
    }
    if command == "submit" {
        std::process::exit(aep_bench::serve_cli::submit(&args[1..]));
    }
    if command == "hammer" {
        std::process::exit(aep_bench::serve_cli::hammer(&args[1..]));
    }
    // `workloads`: the diversity report, coverage-reach gate, and trace
    // corpus generator.
    if command == "workloads" {
        std::process::exit(aep_bench::workloads_cli::run(&args[1..]));
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (use paper|quick|smoke)");
                    std::process::exit(2);
                });
                scale_set = true;
            }
            "--scheme" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                scheme = Some(parse_scheme_slug(v).unwrap_or_else(|| {
                    eprintln!(
                        "unknown scheme '{v}' (use uniform|parity|uniform_clean:N|\
                         proposed:N|proposed_multi:N:E|silent:N|reuse:N:M)"
                    );
                    std::process::exit(2);
                }));
            }
            "--stats-json" => stats_json = true,
            "--serial" => serial_lanes = true,
            "--regen" => regen = true,
            "--golden" => {
                let dir = it.next().unwrap_or_else(|| {
                    eprintln!("--golden requires a directory");
                    std::process::exit(2);
                });
                golden_dir = std::path::PathBuf::from(dir);
            }
            "--capacity" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                trace_capacity = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--capacity requires a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--faults-trials" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_trials = Some(v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--faults-trials requires a positive integer, got '{v}'");
                    std::process::exit(2);
                }));
            }
            "--jobs" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                jobs = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--jobs requires a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--no-cache" => use_cache = false,
            "--csv" => csv = true,
            "--md" => md = true,
            "--trials" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.trials = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--trials requires a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--p-double" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.p_double = v
                    .parse()
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .unwrap_or_else(|| {
                        eprintln!("--p-double requires a probability in [0,1], got '{v}'");
                        std::process::exit(2);
                    });
            }
            "--seed" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("--seed requires an unsigned integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--model" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.model = StrikeModel::parse(v).unwrap_or_else(|| {
                    eprintln!(
                        "unknown fault model '{v}' \
                         (use single|burst:K|col:K|row:K|accum:scrub[:CYCLES])"
                    );
                    std::process::exit(2);
                });
            }
            "--interleave" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.interleave = v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("--interleave requires a positive integer, got '{v}'");
                    std::process::exit(2);
                });
            }
            "--challengers" => faults_opts.challengers = true,
            "--bench" => {
                let v = it.next().map(String::as_str).unwrap_or("");
                faults_opts.benchmark = aep_workloads::Workload::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown workload '{v}'");
                    std::process::exit(2);
                });
                if let Err(e) = faults_opts.benchmark.validate() {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
            "--out" => {
                let dir = it.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                });
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--check-floor" => {
                let file = it.next().unwrap_or_else(|| {
                    eprintln!("--check-floor requires a committed BENCH_engine.json path");
                    std::process::exit(2);
                });
                check_floor = Some(std::path::PathBuf::from(file));
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        });
    }
    let mut fig_index = 0u32;
    let mut emit = |fig: experiments::FigureData| {
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

    match command.as_str() {
        "table1" => print_table1(),
        "fig1" => emit(experiments::fig1(&mut lab)),
        "fig2" => print_fig2(),
        "fig3" => emit(experiments::fig3_fig4(&mut lab, BenchKind::Fp)),
        "fig4" => emit(experiments::fig3_fig4(&mut lab, BenchKind::Int)),
        "fig5" => emit(experiments::fig5_fig6(&mut lab, BenchKind::Fp)),
        "fig6" => emit(experiments::fig5_fig6(&mut lab, BenchKind::Int)),
        "fig7" => emit(experiments::fig7(&mut lab)),
        "fig8" => emit(experiments::fig8(&mut lab)),
        "perf" => emit(experiments::perf(&mut lab)),
        "area" => print_area(),
        "calibrate" => emit(experiments::calibrate(&mut lab)),
        "ablation" => emit(experiments::ablation_schemes(&mut lab)),
        "reliability" => emit(experiments::reliability(&mut lab)),
        "faults" => {
            // Reject interleave degrees the physical layout cannot map
            // before any campaign starts (a usage error, not a panic).
            let words = faults::campaign_config(scale, &faults_opts, aep_core::SchemeKind::Uniform)
                .hierarchy
                .l2
                .words_per_line();
            if !words.is_multiple_of(faults_opts.interleave) {
                eprintln!(
                    "--interleave {} does not divide the L2 line's {words} words at {} scale",
                    faults_opts.interleave,
                    scale.name()
                );
                std::process::exit(2);
            }
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
                emit(fig);
            }
        }
        "faults-bench" => {
            let floor_json = check_floor.as_deref().map(|path| {
                std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read floor file {}: {e}", path.display());
                    std::process::exit(2);
                })
            });
            let report = aep_bench::faults_bench::run_faults_bench(scale, faults_opts.trials, jobs);
            println!("{}", report.to_text());
            let path = std::path::Path::new("BENCH_faults.json");
            match std::fs::write(path, report.to_json()) {
                Ok(()) => eprintln!("[faults-bench] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            // 50%, not the engine harness's 20%: trials/Mcycle divides two
            // wall-clock measurements with different parallelism, so CPU
            // frequency jitter does not fully cancel. The floor catches
            // algorithmic regressions (a model going quadratic), not drift.
            if let Some(floor) = floor_json {
                match report.check_floor(&floor, 0.5) {
                    Ok(msg) => eprintln!("[faults-bench] {msg}"),
                    Err(msg) => {
                        eprintln!("[faults-bench] FAIL: {msg}");
                        std::process::exit(1);
                    }
                }
            }
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
        "gate" => {
            if !scale_set {
                scale = Scale::Smoke;
            }
            let code = gate::gate_command(scale, &faults_opts.benchmark, &golden_dir, regen);
            std::process::exit(code);
        }
        "lifetimes" => emit(experiments::lifetimes(scale)),
        "sensitivity" => emit(experiments::sensitivity(scale)),
        "energy" => emit(experiments::energy(&mut lab)),
        "cleaners" => emit(experiments::cleaners(scale)),
        "seeds" => emit(experiments::seeds(scale, 5)),
        "bench" => run_engine_bench(scale, check_floor.as_deref()),
        "lanes" => run_lanes_snapshot(scale, &faults_opts.benchmark, serial_lanes),
        "all" => {
            // One up-front plan covering every figure below, so the whole
            // session executes as a single parallel batch.
            lab.prefetch(&experiments::all_configs());
            print_table1();
            emit(experiments::fig1(&mut lab));
            print_fig2();
            emit(experiments::fig3_fig4(&mut lab, BenchKind::Fp));
            emit(experiments::fig3_fig4(&mut lab, BenchKind::Int));
            emit(experiments::fig5_fig6(&mut lab, BenchKind::Fp));
            emit(experiments::fig5_fig6(&mut lab, BenchKind::Int));
            emit(experiments::fig7(&mut lab));
            emit(experiments::fig8(&mut lab));
            emit(experiments::perf(&mut lab));
            print_area();
            eprintln!("[lab] total distinct runs: {}", lab.runs());
        }
        "help" | "--help" | "-h" => println!("{}", usage()),
        other => {
            eprintln!("exp: unknown command '{other}'\n\n{}", usage());
            std::process::exit(2);
        }
    }
}

fn usage() -> String {
    "exp — regenerate the paper's tables and figures\n\n\
     usage: exp <command> [--scale paper|quick|smoke] [--jobs N]\n\
     \x20                 [--no-cache] [--csv|--md] [--out DIR]\n\n\
     commands:\n\
     \x20 table1     baseline processor configuration (Table 1)\n\
     \x20 fig1       % dirty L2 lines per cycle, org\n\
     \x20 fig2       cleaning-logic / ECC-array structural summary\n\
     \x20 fig3,fig4  dirty lines vs cleaning interval (FP / INT)\n\
     \x20 fig5,fig6  write-back traffic vs interval (FP / INT)\n\
     \x20 fig7       dirty lines, proposed scheme\n\
     \x20 fig8       write-back breakdown, proposed scheme\n\
     \x20 perf       IPC org vs proposed (§5.2)\n\
     \x20 area       area accounting, 132KB vs 54KB (§5.2)\n\
     \x20 calibrate  workload-calibration sweep\n\
     \x20 faults     live fault-injection campaign per scheme\n\
     \x20            [--trials N] [--p-double P] [--seed S] [--bench B]\n\
     \x20            [--model single|burst:K|col:K|row:K|accum:scrub[:C]]\n\
     \x20            [--interleave D] [--challengers] [--stats-json]\n\
     \x20            (--challengers appends the related-work schemes)\n\
     \x20 run        one observed experiment: full stats snapshot\n\
     \x20            [--bench B] [--scheme S] [--stats-json]\n\
     \x20            [--faults-trials N]\n\
     \x20 trace      dump the cycle trace of one run as JSONL\n\
     \x20            [--bench B] [--scheme S] [--capacity N]\n\
     \x20 gate       stats-regression gate vs results/golden/\n\
     \x20            (default scale: smoke) [--golden DIR] [--regen]\n\
     \x20 explore    design-space exploration: grid | refine | frontier\n\
     \x20            (see `exp explore help` for axes and objectives)\n\
     \x20 check      differential checking: lockstep golden model,\n\
     \x20            protocol invariants, coverage-guided fuzzing\n\
     \x20            (see `exp check help`; violations exit 1)\n\
     \x20 bench      engine-throughput harness: serial scheme ladder +\n\
     \x20            lane-parallel batch (BENCH_engine.json)\n\
     \x20            [--check-floor FILE] fails (exit 1) if the lane\n\
     \x20            aggregate speedup regresses >20% vs FILE\n\
     \x20 faults-bench  campaign-throughput harness: one fault campaign\n\
     \x20            per strike model, normalised trials/Mcycle\n\
     \x20            (BENCH_faults.json) [--trials N] [--check-floor FILE]\n\
     \x20 lanes      run the standard lane set, print per-lane stats\n\
     \x20            snapshots; [--serial] runs each lane independently\n\
     \x20            (outputs must be byte-identical)\n\
     \x20 serve      start the persistent simulation daemon (NDJSON over\n\
     \x20            TCP/Unix socket, shared run cache, admission control;\n\
     \x20            see `exp serve help`)\n\
     \x20 submit     send one experiment to a running daemon and print\n\
     \x20            its result (also --ping/--stats/--shutdown;\n\
     \x20            see `exp submit help`)\n\
     \x20 hammer     load-test a running daemon, validating every response\n\
     \x20            bit-exactly (BENCH_serve.json; see `exp hammer help`)\n\
     \x20 workloads  diversity coverage report and trace corpus tools:\n\
     \x20            `report [--check]` gates on each generator family\n\
     \x20            reaching features the calibrated suite never does;\n\
     \x20            `gen-corpus` regenerates traces/ (see help)\n\
     \x20 all        everything above in order\n\n\
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
     2 usage error"
        .to_owned()
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

fn run_engine_bench(scale: Scale, check_floor: Option<&std::path::Path>) {
    // Read the committed floor *before* the run overwrites the file.
    let floor_json = check_floor.map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read floor file {}: {e}", path.display());
            std::process::exit(2);
        })
    });
    let report = aep_bench::engine_bench::run_engine_bench(scale, aep_workloads::Benchmark::Gap);
    println!("{}", report.to_text());
    let path = std::path::Path::new("BENCH_engine.json");
    match std::fs::write(path, report.to_json()) {
        Ok(()) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    if let Some(floor) = floor_json {
        match report.check_floor(&floor, 0.2) {
            Ok(msg) => eprintln!("[bench] {msg}"),
            Err(msg) => {
                eprintln!("[bench] FAIL: {msg}");
                std::process::exit(1);
            }
        }
    }
}

fn print_table1() {
    let core = CoreConfig::date2006();
    let hier = HierarchyConfig::date2006();
    println!("Table 1: baseline processor configuration");
    println!("-----------------------------------------");
    println!("Issue window            {}-entry RUU", core.ruu_entries);
    println!("                        {}-entry LSQ", core.lsq_entries);
    println!(
        "decode and issue rate   {} instructions per cycle",
        core.issue_width
    );
    println!(
        "Functional units        {} INT add, {} INT mult/div",
        core.fu.int_alu, core.fu.int_mul
    );
    println!(
        "                        {} FP add, {} FP mult/div",
        core.fu.fp_add, core.fu.fp_mul
    );
    let cache = |c: &aep_mem::CacheConfig| {
        format!(
            "{}KB {}-way, {}B line, {}-cycle",
            c.size_bytes / 1024,
            c.ways,
            c.line_bytes,
            c.hit_latency
        )
    };
    println!("L1 instruction cache    {}", cache(&hier.l1i));
    println!(
        "L1 data cache           {} (write-through)",
        cache(&hier.l1d)
    );
    println!(
        "Write buffer            fully associative, {} entries",
        hier.write_buffer_entries
    );
    println!("L2 cache                unified {}", cache(&hier.l2));
    println!(
        "Main memory             {}B-wide, {}-cycle",
        hier.bus_bytes_per_cycle, hier.memory_latency
    );
    println!("Branch prediction       2-level, 2K BTB");
    println!("Instruction TLB         64-entry, 4-way");
    println!("Data TLB                128-entry, 4-way");
    println!();
}

fn print_fig2() {
    let hier = HierarchyConfig::date2006();
    let fsm = CleaningLogic::new(1024 * 1024, hier.l2.sets() as usize);
    println!("Figure 2: cleaning logic and ECC storage architecture (structural)");
    println!("-------------------------------------------------------------------");
    println!(
        "parity arrays           one per way ({} ways), 1 bit / 64 data bits",
        hier.l2.ways
    );
    println!(
        "shared ECC array        one entry per set: {} entries x {} B",
        hier.l2.sets(),
        hier.l2.line_bytes / 8
    );
    println!(
        "written bits            1 per line ({} bits)",
        hier.l2.lines()
    );
    println!(
        "cleaning FSM            cycle counter + {}-bit next-set latch",
        fsm.latch_bits()
    );
    println!(
        "probe cadence @1M       one set every {} cycles",
        fsm.probe_period()
    );
    println!("arbitration             L1 misses have priority over cleaning probes");
    println!();
}

fn print_area() {
    let model = AreaModel::new(&HierarchyConfig::date2006().l2);
    let conventional = model.conventional();
    let proposed = model.proposed();
    println!("§5.2 area accounting (1MB 4-way L2, 64B lines)");
    println!("----------------------------------------------");
    print!("{}", conventional.to_table());
    println!();
    print!("{}", proposed.to_table());
    println!();
    println!(
        "reduction: {:.1}% (paper: 59%)",
        conventional.total().reduction_to(proposed.total()) * 100.0
    );
}
