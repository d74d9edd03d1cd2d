//! The coverage-guided workload fuzzer.
//!
//! Generation is seeded and **batch-deterministic**: iterations run in
//! fixed-size batches, and every genome in a batch is derived from the
//! campaign seed, its global iteration index, and a *snapshot* of the
//! corpus/coverage taken at the batch boundary. Worker threads (via
//! [`aep_faultsim::fan_out`]) only execute genomes; they never influence
//! what is generated, so a campaign's report is byte-identical at any
//! `--jobs`.
//!
//! Half the genomes mutate a random corpus entry (corpus = inputs that
//! found new coverage); the other half are templates targeted at the
//! first still-uncovered feature, which is what makes the search
//! *guided* rather than random. A failing genome is shrunk serially —
//! drop segments, halve intensities, halve the horizon, to a fixed
//! point — and the minimal reproducer is written as JSON under the
//! configured output directory.

use std::path::{Path, PathBuf};

use aep_core::SchemeKind;
use aep_faultsim::fan_out;
use aep_obs::json::escape;
use aep_rng::SmallRng;

use crate::checker::Violation;
use crate::coverage::Coverage;
use crate::scenario::{run_genome, Genome, ScenarioOutcome, Segment};

/// Genomes per deterministic generation batch.
const BATCH: usize = 16;
/// Upper bound on shrink attempts (each attempt is one simulation).
const MAX_SHRINK_RUNS: u32 = 200;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Iterations (genomes executed, excluding the seed corpus).
    pub iters: u64,
    /// Campaign seed: same seed ⇒ byte-identical report at any `jobs`.
    pub seed: u64,
    /// Worker threads (1 = serial).
    pub jobs: usize,
    /// Where to write reproducer files (`None` = don't write).
    pub out_dir: Option<PathBuf>,
    /// Replace the proposed scheme with the broken retiring double, to
    /// prove the checker catches the PR 2 bug class end-to-end.
    pub inject_broken: bool,
}

/// A failing input, after shrinking.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Global iteration index that first failed (`u64::MAX` = seed corpus).
    pub iteration: u64,
    /// The shrunk genome.
    pub genome: Genome,
    /// Micro-op weight before shrinking.
    pub original_weight: u64,
    /// Micro-op weight after shrinking.
    pub shrunk_weight: u64,
    /// Violations the shrunk genome still triggers.
    pub violations: Vec<Violation>,
    /// Reproducer file, when an output directory was configured.
    pub reproducer_path: Option<PathBuf>,
}

/// Campaign result.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Genomes executed (stops early on failure).
    pub executed: u64,
    /// Merged coverage over the whole campaign.
    pub coverage: Coverage,
    /// Corpus size at the end (inputs that found new coverage).
    pub corpus_size: usize,
    /// The first failure, shrunk, if any.
    pub failure: Option<FailureReport>,
}

/// Cleaning intervals sized for the 16-set tiny hierarchy (the paper's
/// 64K–4M intervals scale to its 4096-set L2; these keep the same
/// probes-per-cycle range) plus the paper's smallest interval verbatim.
const INTERVALS: [u64; 4] = [256, 1024, 8192, 65_536];
const SCRUBS: [Option<u64>; 4] = [None, Some(4), Some(64), Some(1024)];

fn random_scheme(rng: &mut SmallRng) -> SchemeKind {
    let interval = INTERVALS[rng.gen_range(0..INTERVALS.len())];
    match rng.gen_range(0..5u32) {
        0 => SchemeKind::Uniform,
        1 => SchemeKind::UniformWithCleaning {
            cleaning_interval: interval,
        },
        2 => SchemeKind::ParityOnly,
        3 => SchemeKind::Proposed {
            cleaning_interval: interval,
        },
        _ => SchemeKind::ProposedMulti {
            cleaning_interval: interval,
            entries_per_set: rng.gen_range(2..5usize),
        },
    }
}

fn random_segment(rng: &mut SmallRng) -> Segment {
    match rng.gen_range(0..4u32) {
        0 => Segment::ConflictStorm {
            set: rng.gen_range(0..16usize),
            lines: rng.gen_range(2..9usize),
            writes: rng.gen_range(8..96usize),
        },
        1 => Segment::WriteOnce {
            start: rng.gen_range(0..256u64),
            count: rng.gen_range(4..48usize),
        },
        2 => Segment::WriteHot {
            line: rng.gen_range(0..64u64),
            writes: rng.gen_range(4..64usize),
        },
        _ => Segment::ReadSweep {
            start: rng.gen_range(0..256u64),
            count: rng.gen_range(4..64usize),
        },
    }
}

fn random_genome(rng: &mut SmallRng) -> Genome {
    let segments = (0..rng.gen_range(1..5usize))
        .map(|_| random_segment(rng))
        .collect();
    Genome {
        scheme: random_scheme(rng),
        scrub_period: SCRUBS[rng.gen_range(0..SCRUBS.len())],
        cycles: rng.gen_range(2_048..16_384u64),
        segments,
    }
}

fn mutate(rng: &mut SmallRng, base: &Genome) -> Genome {
    let mut g = base.clone();
    match rng.gen_range(0..6u32) {
        0 => g.scheme = random_scheme(rng),
        1 => g.scrub_period = SCRUBS[rng.gen_range(0..SCRUBS.len())],
        2 => g.cycles = rng.gen_range(2_048..16_384u64),
        3 => g.segments.push(random_segment(rng)),
        4 if g.segments.len() > 1 => {
            let at = rng.gen_range(0..g.segments.len());
            g.segments.remove(at);
        }
        _ => {
            let at = rng.gen_range(0..g.segments.len());
            g.segments[at] = random_segment(rng);
        }
    }
    g
}

/// A genome aimed at the first feature the campaign has not exercised.
fn targeted_genome(rng: &mut SmallRng, target: u32) -> Genome {
    let storm = Segment::ConflictStorm {
        set: rng.gen_range(0..16usize),
        lines: rng.gen_range(5..9usize),
        writes: rng.gen_range(32..96usize),
    };
    let hot = Segment::WriteHot {
        line: rng.gen_range(0..32u64),
        writes: rng.gen_range(16..64usize),
    };
    let (scheme, scrub, segments) = match target {
        Coverage::SCHEME_UNIFORM => (SchemeKind::Uniform, None, vec![storm]),
        Coverage::SCHEME_UNIFORM_CLEAN | Coverage::CLEANING_WB => (
            SchemeKind::UniformWithCleaning {
                cleaning_interval: 256,
            },
            None,
            vec![Segment::WriteOnce {
                start: rng.gen_range(0..64u64),
                count: 32,
            }],
        ),
        Coverage::SCHEME_PARITY => (SchemeKind::ParityOnly, None, vec![storm]),
        Coverage::SCHEME_PROPOSED_MULTI | Coverage::MULTI_DIRTY_SET => (
            SchemeKind::ProposedMulti {
                cleaning_interval: 1024,
                entries_per_set: rng.gen_range(2..5usize),
            },
            None,
            vec![storm, hot],
        ),
        Coverage::READ_FILL | Coverage::DIRTY_READ_HIT => (
            SchemeKind::Proposed {
                cleaning_interval: 8192,
            },
            None,
            vec![
                hot,
                Segment::ReadSweep {
                    start: 0,
                    count: 64,
                },
            ],
        ),
        // A write-hot line, then reads of the same line: the probe spares
        // it (written bit), and the read hits keep the spared slot under
        // per-cycle scrutiny so the sparing is observed.
        Coverage::SECOND_WRITE | Coverage::WRITTEN_SPARED => {
            let line = rng.gen_range(0..32u64);
            (
                SchemeKind::Proposed {
                    cleaning_interval: 256,
                },
                None,
                vec![
                    Segment::WriteHot {
                        line,
                        writes: rng.gen_range(8..24usize),
                    },
                    Segment::ReadSweep {
                        start: line,
                        count: rng.gen_range(32..64usize),
                    },
                ],
            )
        }
        Coverage::PROBE_DEFERRED => (
            SchemeKind::Proposed {
                cleaning_interval: 256,
            },
            None,
            vec![storm, hot],
        ),
        Coverage::SCRUB_ACTIVE => (
            SchemeKind::Proposed {
                cleaning_interval: 1024,
            },
            Some(4),
            vec![hot, storm],
        ),
        // A long single-set storm: every store displaces the set's ECC
        // entry, so the ECC-WB run grows with the write count.
        Coverage::ECC_WB_STREAK => (
            SchemeKind::Proposed {
                cleaning_interval: 8192,
            },
            None,
            vec![Segment::ConflictStorm {
                set: rng.gen_range(0..16usize),
                lines: rng.gen_range(5..9usize),
                writes: rng.gen_range(96..192usize),
            }],
        ),
        // A wide write-once pass: > 4 lines per set, so each loop lap
        // re-fills instead of hitting, and the fill run never breaks.
        Coverage::WRITE_ONCE_STREAK => (
            SchemeKind::Uniform,
            None,
            vec![Segment::WriteOnce {
                start: 0,
                count: rng.gen_range(96..160usize),
            }],
        ),
        // One line hammered far past the hot-rewrite threshold.
        Coverage::HOT_LINE_REWRITE => (
            SchemeKind::Proposed {
                cleaning_interval: 8192,
            },
            None,
            vec![Segment::WriteHot {
                line: rng.gen_range(0..32u64),
                writes: rng.gen_range(256..384usize),
            }],
        ),
        // A few dirty lines, then a long read sweep: the dirty lines sit
        // idle for the whole sweep before its misses evict them.
        Coverage::STALE_DIRTY_EVICT => (
            SchemeKind::Uniform,
            None,
            vec![
                Segment::WriteOnce { start: 0, count: 4 },
                Segment::ReadSweep {
                    start: 64,
                    count: rng.gen_range(160..224usize),
                },
            ],
        ),
        // WRITE_ALLOCATE_FILL, DIRTY_EVICT, ECC_WB, SCHEME_PROPOSED and
        // anything else: a storm under the proposed scheme.
        _ => (
            SchemeKind::Proposed {
                cleaning_interval: 1024,
            },
            None,
            vec![storm],
        ),
    };
    Genome {
        scheme,
        scrub_period: scrub,
        cycles: rng.gen_range(4_096..16_384u64),
        segments,
    }
}

/// The deterministic starting corpus: one genome per mechanism family.
#[must_use]
pub fn seed_corpus() -> Vec<Genome> {
    vec![
        Genome {
            scheme: SchemeKind::Proposed {
                cleaning_interval: 1024,
            },
            scrub_period: None,
            cycles: 8_192,
            segments: vec![
                Segment::ConflictStorm {
                    set: 3,
                    lines: 6,
                    writes: 64,
                },
                Segment::WriteHot {
                    line: 3,
                    writes: 24,
                },
            ],
        },
        Genome {
            scheme: SchemeKind::UniformWithCleaning {
                cleaning_interval: 256,
            },
            scrub_period: Some(64),
            cycles: 8_192,
            segments: vec![Segment::WriteOnce {
                start: 0,
                count: 32,
            }],
        },
        Genome {
            scheme: SchemeKind::ProposedMulti {
                cleaning_interval: 1024,
                entries_per_set: 2,
            },
            scrub_period: None,
            cycles: 8_192,
            segments: vec![
                Segment::ConflictStorm {
                    set: 7,
                    lines: 8,
                    writes: 96,
                },
                Segment::ReadSweep {
                    start: 7,
                    count: 48,
                },
            ],
        },
    ]
}

fn genome_for_index(seed: u64, index: u64, corpus: &[Genome], covered: Coverage) -> Genome {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    if let Some(target) = covered.first_uncovered() {
        if rng.gen_bool(0.5) {
            return targeted_genome(&mut rng, target);
        }
    }
    if !corpus.is_empty() && rng.gen_bool(0.8) {
        let base = &corpus[rng.gen_range(0..corpus.len())];
        mutate(&mut rng, base)
    } else {
        random_genome(&mut rng)
    }
}

/// Shrinks a failing genome to a local minimum: try dropping whole
/// segments, then halving per-segment intensity and the cycle horizon,
/// repeating until nothing smaller still fails (bounded by
/// [`MAX_SHRINK_RUNS`] simulations).
fn shrink(genome: &Genome, inject: bool) -> (Genome, ScenarioOutcome) {
    let mut best = genome.clone();
    let mut outcome = run_genome(&best, inject);
    let mut runs = 1u32;
    let mut made_progress = true;
    while made_progress && runs < MAX_SHRINK_RUNS {
        made_progress = false;
        let mut candidates: Vec<Genome> = Vec::new();
        if best.segments.len() > 1 {
            for at in 0..best.segments.len() {
                let mut g = best.clone();
                g.segments.remove(at);
                candidates.push(g);
            }
        }
        for at in 0..best.segments.len() {
            let mut g = best.clone();
            let halved = match g.segments[at] {
                Segment::ConflictStorm { set, lines, writes } if writes > 2 => {
                    Some(Segment::ConflictStorm {
                        set,
                        lines,
                        writes: writes / 2,
                    })
                }
                Segment::WriteOnce { start, count } if count > 2 => Some(Segment::WriteOnce {
                    start,
                    count: count / 2,
                }),
                Segment::WriteHot { line, writes } if writes > 2 => Some(Segment::WriteHot {
                    line,
                    writes: writes / 2,
                }),
                Segment::ReadSweep { start, count } if count > 2 => Some(Segment::ReadSweep {
                    start,
                    count: count / 2,
                }),
                _ => None,
            };
            if let Some(seg) = halved {
                g.segments[at] = seg;
                candidates.push(g);
            }
        }
        if best.cycles > 512 {
            let mut g = best.clone();
            g.cycles /= 2;
            candidates.push(g);
        }
        if best.scrub_period.is_some() {
            let mut g = best.clone();
            g.scrub_period = None;
            candidates.push(g);
        }
        for cand in candidates {
            if runs >= MAX_SHRINK_RUNS {
                break;
            }
            let out = run_genome(&cand, inject);
            runs += 1;
            if out.failed() {
                best = cand;
                outcome = out;
                made_progress = true;
                break;
            }
        }
    }
    (best, outcome)
}

fn write_reproducer(dir: &Path, seed: u64, failure: &FailureReport) -> Option<PathBuf> {
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("reproducer_seed{seed}.json"));
    let violations: Vec<String> = failure
        .violations
        .iter()
        .map(|v| {
            format!(
                "{{\"cycle\":{},\"message\":{}}}",
                v.cycle,
                escape(&v.message)
            )
        })
        .collect();
    let iteration = if failure.iteration == u64::MAX {
        "\"seed-corpus\"".to_owned()
    } else {
        failure.iteration.to_string()
    };
    let body = format!(
        "{{\n  \"seed\": {seed},\n  \"iteration\": {},\n  \"original_weight\": {},\n  \
         \"shrunk_weight\": {},\n  \"genome\": {},\n  \"violations\": [{}]\n}}\n",
        iteration,
        failure.original_weight,
        failure.shrunk_weight,
        failure.genome.to_json(),
        violations.join(",")
    );
    std::fs::write(&path, body).ok()?;
    Some(path)
}

/// Runs a fuzzing campaign. Deterministic for a given (`iters`, `seed`,
/// `inject_broken`) at any `jobs`; stops at the first failure, which is
/// shrunk and (when `out_dir` is set) written as a JSON reproducer.
#[must_use]
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let inject = cfg.inject_broken;
    let mut coverage = Coverage::default();
    let mut corpus = seed_corpus();
    let mut executed = 0u64;
    let mut first_failure: Option<(u64, Genome, ScenarioOutcome)> = None;

    // Seed corpus first: it pins the campaign's baseline coverage (and,
    // under --inject-violation, already trips the checker).
    let seed_outcomes = fan_out(corpus.len(), cfg.jobs, |i| run_genome(&corpus[i], inject));
    for (i, out) in seed_outcomes.into_iter().enumerate() {
        executed += 1;
        coverage.merge(out.coverage);
        if out.failed() && first_failure.is_none() {
            first_failure = Some((u64::MAX, corpus[i].clone(), out));
            break;
        }
    }

    let mut index = 0u64;
    while first_failure.is_none() && index < cfg.iters {
        let batch = BATCH.min((cfg.iters - index) as usize);
        // Generated from the batch-boundary snapshot only — workers can't
        // influence generation, so any --jobs yields the same genomes.
        let genomes: Vec<Genome> = (0..batch as u64)
            .map(|k| genome_for_index(cfg.seed, index + k, &corpus, coverage))
            .collect();
        let outcomes = fan_out(batch, cfg.jobs, |i| run_genome(&genomes[i], inject));
        for (k, out) in outcomes.into_iter().enumerate() {
            executed += 1;
            if out.failed() {
                first_failure = Some((index + k as u64, genomes[k].clone(), out));
                break;
            }
            if out.coverage.missing_from(coverage) != 0 {
                coverage.merge(out.coverage);
                corpus.push(genomes[k].clone());
            }
        }
        index += batch as u64;
    }

    let failure = first_failure.map(|(iteration, genome, _)| {
        let original_weight = genome.weight();
        let (shrunk, out) = shrink(&genome, inject);
        let mut report = FailureReport {
            iteration,
            genome: shrunk,
            original_weight,
            shrunk_weight: 0,
            violations: out.violations,
            reproducer_path: None,
        };
        report.shrunk_weight = report.genome.weight();
        report.reproducer_path = cfg
            .out_dir
            .as_deref()
            .and_then(|dir| write_reproducer(dir, cfg.seed, &report));
        report
    });

    FuzzReport {
        executed,
        coverage,
        corpus_size: corpus.len(),
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_deterministic_across_jobs() {
        let mk = |jobs| FuzzConfig {
            iters: 24,
            seed: 11,
            jobs,
            out_dir: None,
            inject_broken: false,
        };
        let a = run_fuzz(&mk(1));
        let b = run_fuzz(&mk(4));
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.corpus_size, b.corpus_size);
        assert!(a.failure.is_none(), "correct simulator must not fail");
    }

    #[test]
    fn injected_bug_is_found_and_shrunk() {
        let cfg = FuzzConfig {
            iters: 8,
            seed: 3,
            jobs: 1,
            out_dir: None,
            inject_broken: true,
        };
        let report = run_fuzz(&cfg);
        let failure = report.failure.expect("broken double must be caught");
        assert!(!failure.violations.is_empty());
        assert!(
            failure.shrunk_weight <= failure.original_weight,
            "shrinking never grows the input"
        );
    }
}
