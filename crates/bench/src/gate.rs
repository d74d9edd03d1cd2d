//! `exp run`, `exp trace`, and `exp gate`: observed runs exported as
//! stable-keyed [`StatsSnapshot`]s, plus the stats-regression gate CI
//! enforces against golden snapshots under `results/golden/`.
//!
//! A snapshot freezes the full registry of one experiment — CPU pipeline,
//! L1s/write buffer, L2 and scheme (cleaning walks, ECC-array
//! displacements/retirements, dirty/written census), bus and DRAM, the
//! measured-window deltas, and the fault-outcome taxonomy (all zeros for a
//! plain timing run, real counts when `--faults-trials` attaches a
//! campaign) — behind one accounting path, keyed deterministically.
//!
//! The gate always simulates fresh (never the disk run-cache): its whole
//! point is to catch the *current* code drifting from the golden record,
//! and a cache hit would compare the goldens against themselves.

use std::path::{Path, PathBuf};

use aep_core::lineup::faults_schemes;
use aep_core::SchemeKind;
use aep_faultsim::OutcomeTable;
use aep_obs::{compare_snapshots, StatsSnapshot, RATE_TOLERANCE};
use aep_sim::{ObservedRun, Runner};
use aep_workloads::Workload;

use crate::experiments::Scale;
use aep_sim::runcache::scheme_slug;

/// Default ring capacity (events retained) for `exp trace`.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The conventional golden-snapshot directory, `results/golden` under `base`.
#[must_use]
pub fn default_golden_dir(base: impl AsRef<Path>) -> PathBuf {
    base.as_ref().join("results").join("golden")
}

/// Runs one observed experiment at `scale` (fresh simulation, no caches).
#[must_use]
pub fn observed(
    scale: Scale,
    benchmark: &Workload,
    scheme: SchemeKind,
    trace_capacity: Option<usize>,
) -> ObservedRun {
    Runner::new(scale.config(benchmark.clone(), scheme)).run_observed(trace_capacity)
}

/// Runs one experiment and freezes its registry into a snapshot.
///
/// `faults` attaches a campaign's outcome table under `faults.*`; plain
/// runs publish the same keys as zeros, so both run kinds share one
/// snapshot schema.
#[must_use]
pub fn snapshot(
    scale: Scale,
    benchmark: &Workload,
    scheme: SchemeKind,
    faults: Option<&OutcomeTable>,
) -> StatsSnapshot {
    let cfg = scale.config(benchmark.clone(), scheme);
    let seed = cfg.seed.to_string();
    let mut run = Runner::new(cfg).run_observed(None);
    let table = faults.copied().unwrap_or_default();
    run.registry.scoped("faults", |r| table.register_stats(r));
    let bench_name = benchmark.name();
    StatsSnapshot::from_registry(
        run.registry,
        &[
            ("benchmark", &bench_name),
            ("scale", scale.name()),
            ("scheme", &scheme_slug(scheme)),
            ("seed", &seed),
        ],
    )
}

/// The golden-snapshot filename for one configuration (`:` in scheme slugs
/// becomes `_` so the name stays shell- and filesystem-friendly).
#[must_use]
pub fn golden_filename(scale: Scale, benchmark: &Workload, scheme: SchemeKind) -> String {
    format!(
        "{}_{}_{}.snap.json",
        scale.name(),
        benchmark.name().replace(':', "_"),
        scheme_slug(scheme).replace(':', "_")
    )
}

/// **`exp gate`**: compares fresh snapshots for every scheme in the
/// campaign line-up against the checked-in goldens (or rewrites the
/// goldens when `regen` is set).
///
/// Returns the process exit code: 0 when every scheme passes (or after a
/// regeneration), 1 on any regression, missing golden, or unparseable
/// golden.
#[must_use]
pub fn gate_command(scale: Scale, benchmark: &Workload, golden_dir: &Path, regen: bool) -> i32 {
    let mut failures = 0usize;
    for scheme in faults_schemes() {
        let slug = scheme_slug(scheme);
        let snap = snapshot(scale, benchmark, scheme, None);
        let path = golden_dir.join(golden_filename(scale, benchmark, scheme));
        if regen {
            if let Err(e) = std::fs::create_dir_all(golden_dir)
                .and_then(|()| std::fs::write(&path, snap.to_json()))
            {
                eprintln!("[gate] cannot write {}: {e}", path.display());
                failures += 1;
                continue;
            }
            println!("[gate] {slug}: regenerated {}", path.display());
            continue;
        }
        let golden = match std::fs::read_to_string(&path) {
            Ok(text) => match StatsSnapshot::from_json(&text) {
                Ok(golden) => golden,
                Err(e) => {
                    eprintln!("[gate] {slug}: golden {} is malformed: {e}", path.display());
                    failures += 1;
                    continue;
                }
            },
            Err(e) => {
                eprintln!(
                    "[gate] {slug}: missing golden {} ({e}); run `exp gate --regen` \
                     and commit the result if this configuration is new",
                    path.display()
                );
                failures += 1;
                continue;
            }
        };
        let report = compare_snapshots(&golden, &snap, RATE_TOLERANCE);
        print!("[gate] {slug}: {}", report.render());
        if !report.passed() {
            failures += 1;
        }
    }
    i32::from(failures > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::proposed;
    use aep_workloads::Benchmark;

    fn gzip() -> Workload {
        Benchmark::Gzip.into()
    }

    #[test]
    fn golden_filenames_are_shell_friendly() {
        for scheme in faults_schemes() {
            let name = golden_filename(Scale::Smoke, &gzip(), scheme);
            assert!(
                name.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-'),
                "unfriendly golden filename: {name}"
            );
        }
        assert_eq!(
            golden_filename(
                Scale::Smoke,
                &gzip(),
                SchemeKind::ProposedMulti {
                    cleaning_interval: 1024,
                    entries_per_set: 2
                }
            ),
            "smoke_gzip_proposed_multi_1024_2.snap.json"
        );
    }

    #[test]
    fn snapshot_covers_every_subsystem_and_roundtrips() {
        let snap = snapshot(Scale::Smoke, &gzip(), proposed(), None);
        for prefix in [
            "cpu.pipeline.committed",
            "cpu.bpred.lookups",
            "mem.l1d.read_hits",
            "mem.l2.dirty_lines",
            "mem.write_buffer.retired",
            "mem.bus.transactions",
            "mem.dram.reads",
            "scheme.protected_dirty_lines",
            "scheme.energy.ecc_encodes",
            "scheme.ecc_array.entries_retired",
            "cleaning.lines_cleaned",
            "scrub.scrubbed",
            "window.ipc",
            "window.dirty_fraction.mean",
            "faults.trials",
        ] {
            assert!(snap.get(prefix).is_some(), "snapshot missing key {prefix}");
        }
        let reparsed = StatsSnapshot::from_json(&snap.to_json()).expect("roundtrip");
        assert_eq!(reparsed, snap);
    }

    #[test]
    fn snapshot_with_campaign_table_reuses_the_schema() {
        let plain = snapshot(Scale::Smoke, &gzip(), SchemeKind::Uniform, None);
        let mut table = OutcomeTable::default();
        table.record(aep_faultsim::TrialOutcome::Masked, true, false);
        let with_faults = snapshot(Scale::Smoke, &gzip(), SchemeKind::Uniform, Some(&table));
        let plain_keys: Vec<&String> = plain.stats.keys().collect();
        let fault_keys: Vec<&String> = with_faults.stats.keys().collect();
        assert_eq!(plain_keys, fault_keys);
        assert_eq!(
            with_faults.get("faults.masked"),
            Some(&aep_obs::StatValue::Counter(1))
        );
    }
}
