//! `exp check` — drive the differential checking subsystem (`aep-check`):
//! whole-system lockstep runs over every registered scheme, then a
//! coverage-guided fuzzing campaign over adversarial workloads.
//!
//! Like `exp explore`, this subcommand owns its flag grammar (read
//! through [`crate::flags`]). Output is deterministic for
//! a given (scale, seed, fuzz-iters) at any `--jobs`: no wall-clock, no
//! thread-order dependence.
//!
//! Exit codes follow the repo contract: 0 = everything clean, 1 = a
//! divergence/violation was found (reproducer written), 2 = usage error.

use std::path::PathBuf;

use aep_check::fuzz::{run_fuzz, FuzzConfig};
use aep_check::lockstep::run_lockstep;
use aep_check::Coverage;
use aep_workloads::Benchmark;

use crate::flags::{default_jobs, FlagError, Flags};

/// Scale presets for the two legs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CheckScale {
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

fn usage() -> String {
    "usage: exp check [--scale smoke|quick] [--fuzz-iters N] [--seed S]\n\
     \x20                [--jobs N] [--out DIR] [--inject-violation]\n\n\
     Differential checking: lockstep golden-model runs over every\n\
     registered scheme, then a coverage-guided workload fuzzing campaign.\n\n\
     flags:\n\
     \x20 --scale smoke|quick  lockstep horizon and default fuzz budget\n\
     \x20                      (default: smoke)\n\
     \x20 --fuzz-iters N       fuzz iterations (default: 64 smoke, 400 quick)\n\
     \x20 --seed S             campaign seed (default: 2006)\n\
     \x20 --jobs N             worker threads; output is identical for any N\n\
     \x20 --out DIR            reproducer directory (default: results/check)\n\
     \x20 --inject-violation   swap in the deliberately-broken retiring-entry\n\
     \x20                      double; the checker must catch it (exits 1)\n\n\
     exit codes: 0 clean, 1 violation found, 2 usage error"
        .to_owned()
}

/// Runs `exp check` with its own argument grammar; returns the process
/// exit code.
#[must_use]
pub fn run(args: &[String]) -> i32 {
    let mut scale = CheckScale::Smoke;
    let mut fuzz_iters: Option<u64> = None;
    let mut seed = 2_006u64;
    let mut jobs = default_jobs();
    let mut out_dir = PathBuf::from("results/check");
    let mut inject = false;
    let parsed = Flags::each(args, |f, flag| {
        match flag {
            "--scale" => {
                scale = f.named("check scale", "smoke|quick", |v| match v {
                    "smoke" => Some(CheckScale::Smoke),
                    "quick" => Some(CheckScale::Quick),
                    _ => None,
                })?;
            }
            "--fuzz-iters" => fuzz_iters = Some(f.uint()?),
            "--seed" => seed = f.uint()?,
            "--jobs" => jobs = f.positive()?,
            "--out" => out_dir = f.path("a directory")?,
            "--inject-violation" => inject = true,
            "help" | "--help" | "-h" => return Err(FlagError::Help),
            _ => return Err(f.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return e.exit_code("exp check", &usage());
    }

    let mut failed = false;

    // Leg 1: lockstep golden-model runs, every scheme × benchmark.
    let lockstep = run_lockstep(&scale.benchmarks(), scale.lockstep_cycles(), jobs);
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
        iters: fuzz_iters.unwrap_or_else(|| scale.default_fuzz_iters()),
        seed,
        jobs,
        out_dir: Some(out_dir),
        inject_broken: inject,
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
