//! `exp check` — drive the differential checking subsystem (`aep-check`):
//! whole-system lockstep runs over every registered scheme, then a
//! coverage-guided fuzzing campaign over adversarial workloads.
//!
//! Output is deterministic for a given (scale, seed, fuzz-iters) at any
//! `--jobs`: no wall-clock, no thread-order dependence.
//!
//! Exit codes follow the repo contract: 0 = everything clean, 1 = a
//! divergence/violation was found (reproducer written), 2 = usage error.

use std::path::PathBuf;

use aep_check::fuzz::{run_fuzz, FuzzConfig};
use aep_check::lockstep::run_lockstep;
use aep_check::Coverage;
use aep_workloads::Benchmark;

use crate::flags::{default_jobs, Command, JOBS_HELP};

/// Scale presets for the two legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CheckScale {
    #[default]
    Smoke,
    Quick,
}

impl CheckScale {
    fn benchmarks(self) -> Vec<Benchmark> {
        match self {
            CheckScale::Smoke => vec![Benchmark::Gzip],
            CheckScale::Quick => vec![Benchmark::Gzip, Benchmark::Gap],
        }
    }

    fn lockstep_cycles(self) -> u64 {
        match self {
            CheckScale::Smoke => 30_000,
            CheckScale::Quick => 120_000,
        }
    }

    fn default_fuzz_iters(self) -> u64 {
        match self {
            CheckScale::Smoke => 64,
            CheckScale::Quick => 400,
        }
    }
}

/// What `exp check` reads from its flags.
#[derive(Default)]
struct CheckOpts {
    scale: CheckScale,
    fuzz_iters: Option<u64>,
    seed: Option<u64>,
    jobs: Option<usize>,
    out_dir: Option<PathBuf>,
    inject: bool,
}

crate::flags! { CheckOpts:
    SCALE "--scale" "S" "smoke|quick: the lockstep horizon and default fuzz budget (default: smoke)",
        |f, o| o.scale = f.named("check scale", "smoke|quick", |v| match v {
            "smoke" => Some(CheckScale::Smoke),
            "quick" => Some(CheckScale::Quick),
            _ => None,
        })?;
    FUZZ_ITERS "--fuzz-iters" "N" "fuzz iterations (default: 64 smoke, 400 quick)",
        |f, o| o.fuzz_iters = Some(f.uint()?);
    SEED "--seed" "S" "campaign seed (default: 2006)", |f, o| o.seed = Some(f.uint()?);
    JOBS "--jobs" "N" JOBS_HELP, |f, o| o.jobs = Some(f.positive()?);
    OUT "--out" "DIR" "reproducer directory (default: results/check)",
        |f, o| o.out_dir = Some(f.path("a directory")?);
    INJECT "--inject-violation" "" "swap in the deliberately broken retiring-entry double, \
        which the checker must catch (exit 1)", |_, o| o.inject = true;
}

/// The `exp check` declaration.
#[must_use]
pub fn command() -> Command {
    Command::new(
        "check",
        "differential checking: lockstep golden-model runs over every registered scheme, \
         then a coverage-guided workload fuzzing campaign; a violation exits 1",
        &[SCALE, FUZZ_ITERS, SEED, JOBS, OUT, INJECT],
        CheckOpts::default,
        run,
    )
}

/// Runs `exp check` on its parsed flags; returns the process exit code.
fn run(o: CheckOpts) -> i32 {
    let jobs = o.jobs.unwrap_or_else(default_jobs);
    let mut failed = false;

    // Leg 1: lockstep golden-model runs, every scheme × benchmark.
    let lockstep = run_lockstep(&o.scale.benchmarks(), o.scale.lockstep_cycles(), jobs);
    for r in &lockstep {
        if r.failed() {
            failed = true;
            println!(
                "[check] lockstep {:<16} on {:<8} FAIL ({} violations over {} events)",
                r.scheme.label(),
                r.benchmark,
                r.total_violations,
                r.events_checked
            );
            for v in &r.violations {
                println!("[check]   {v}");
            }
        } else {
            println!(
                "[check] lockstep {:<16} on {:<8} ok   ({} events, {} cycles)",
                r.scheme.label(),
                r.benchmark,
                r.events_checked,
                r.cycles
            );
        }
    }

    // Leg 2: the coverage-guided fuzzing campaign.
    let cfg = FuzzConfig {
        iters: o.fuzz_iters.unwrap_or_else(|| o.scale.default_fuzz_iters()),
        seed: o.seed.unwrap_or(2_006),
        jobs,
        out_dir: Some(o.out_dir.unwrap_or_else(|| "results/check".into())),
        inject_broken: o.inject,
    };
    let report = run_fuzz(&cfg);
    println!(
        "[check] fuzz seed {} executed {} genomes, corpus {}, coverage {}/{}",
        cfg.seed,
        report.executed,
        report.corpus_size,
        report.coverage.count(),
        Coverage::FEATURES.len()
    );
    let uncovered = report.coverage.uncovered_labels();
    if !uncovered.is_empty() {
        println!("[check] uncovered features: {}", uncovered.join(", "));
    }
    if let Some(f) = &report.failure {
        failed = true;
        println!(
            "[check] fuzz FAIL at iteration {}: genome shrunk {} -> {} ops",
            if f.iteration == u64::MAX {
                "seed-corpus".to_owned()
            } else {
                f.iteration.to_string()
            },
            f.original_weight,
            f.shrunk_weight
        );
        for v in &f.violations {
            println!("[check]   {v}");
        }
        match &f.reproducer_path {
            Some(p) => println!("[check] reproducer: {}", p.display()),
            None => println!("[check] reproducer could not be written"),
        }
    }

    if failed {
        println!("[check] FAIL");
        1
    } else {
        println!("[check] all checks clean");
        0
    }
}
