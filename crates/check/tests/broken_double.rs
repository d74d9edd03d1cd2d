//! Regression test reconstructing the "retiring ECC entry" bug PR 2
//! fixed: a displaced ECC entry must keep protecting its dirty line
//! until the forced write-back (ECC-WB) completes. The
//! [`BrokenRetiringScheme`] double forgets the displaced entry
//! immediately — pre-fix behaviour — and the differential checker must
//! flag the resulting lost-protection window.

use aep_check::fuzz::{run_fuzz, FuzzConfig};
use aep_check::scenario::{run_genome, Genome, Segment};
use aep_core::SchemeKind;

/// Two dirty lines fighting over one set's shared ECC entry: every
/// claim displaces the previous owner, opening the retiring window.
fn displacement_genome() -> Genome {
    Genome {
        scheme: SchemeKind::Proposed {
            cleaning_interval: 1024,
        },
        scrub_period: None,
        cycles: 6_000,
        segments: vec![Segment::ConflictStorm {
            set: 2,
            lines: 4,
            writes: 40,
        }],
    }
}

#[test]
fn fixed_scheme_passes_the_displacement_scenario() {
    let out = run_genome(&displacement_genome(), false);
    assert!(
        !out.failed(),
        "the fixed retiring-entry bookkeeping must keep every dirty line \
         covered: {:?}",
        out.violations
    );
    assert!(out.events_checked > 0);
}

#[test]
fn checker_catches_the_pre_fix_retiring_bug() {
    let out = run_genome(&displacement_genome(), true);
    assert!(
        out.failed(),
        "dropping a displaced entry before its ECC-WB completes must be \
         detected"
    );
    let msg = &out.violations[0].message;
    assert!(
        msg.contains("no live or retiring"),
        "violation should describe the lost-protection window, got: {msg}"
    );
}

#[test]
fn fuzzer_finds_and_shrinks_the_injected_bug() {
    let dir = std::env::temp_dir().join(format!("aep_check_broken_double_{}", std::process::id()));
    let cfg = FuzzConfig {
        iters: 16,
        seed: 7,
        jobs: 2,
        out_dir: Some(dir.clone()),
        inject_broken: true,
    };
    let report = run_fuzz(&cfg);
    let failure = report.failure.expect("injected bug must be found");
    assert!(
        failure.shrunk_weight <= failure.original_weight,
        "shrinking must not grow the reproducer"
    );
    let path = failure.reproducer_path.expect("reproducer must be written");
    let body = std::fs::read_to_string(&path).expect("reproducer readable");
    let doc = aep_obs::json::parse(&body).expect("reproducer is valid JSON");
    assert!(doc.get("genome").is_some(), "reproducer carries the genome");
    assert!(
        body.contains("no live or retiring"),
        "reproducer carries the violation"
    );
    std::fs::remove_dir_all(&dir).ok();
}
