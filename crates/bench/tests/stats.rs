//! Stability contract of the observability snapshots: two identically
//! seeded runs produce byte-identical JSON, keys are unique and stable,
//! and every scheme's snapshot carries the full subsystem schema.

use aep_bench::experiments::{proposed, Scale};
use aep_bench::gate::snapshot;
use aep_core::lineup::faults_schemes;
use aep_workloads::Benchmark;

#[test]
fn identically_seeded_runs_snapshot_byte_identically() {
    // Two fully independent simulations of the same configuration — the
    // in-process analogue of `exp run --jobs 1` vs `--jobs 4` in
    // scripts/check_determinism.sh (a single run never shares state with
    // the worker pool, so thread count cannot perturb it).
    let a = snapshot(Scale::Smoke, &Benchmark::Gzip.into(), proposed(), None);
    let b = snapshot(Scale::Smoke, &Benchmark::Gzip.into(), proposed(), None);
    assert_eq!(a.to_json(), b.to_json(), "snapshots must be byte-identical");
}

#[test]
fn registry_keys_are_unique_and_sorted_in_json() {
    let snap = snapshot(Scale::Smoke, &Benchmark::Gzip.into(), proposed(), None);
    let json = snap.to_json();
    // One stat per line: harvest quoted keys inside the stats block and
    // confirm strict ascending order (which implies uniqueness).
    let keys: Vec<&str> = json
        .lines()
        .filter(|l| l.contains("\"kind\":"))
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .collect();
    assert_eq!(keys.len(), snap.stats.len());
    for pair in keys.windows(2) {
        assert!(
            pair[0] < pair[1],
            "keys out of order: {} >= {}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn every_scheme_shares_the_common_schema() {
    // Scheme-agnostic keys must exist under every scheme so goldens stay
    // comparable; the ECC-array scope is the only scheme-specific family.
    let common = [
        "cpu.pipeline.committed",
        "mem.l2.read_misses",
        "mem.l2.written_lines",
        "scheme.protected_dirty_lines",
        "cleaning.probes",
        "scrub.corrected",
        "window.ipc",
        "faults.sdc_rate",
    ];
    fn scheme_specific(key: &str) -> bool {
        key.starts_with("scheme.ecc_array.") || key.starts_with("window.dirty_lines.bucket_")
    }
    let baseline: Vec<String> = snapshot(
        Scale::Smoke,
        &Benchmark::Gzip.into(),
        aep_core::SchemeKind::Uniform,
        None,
    )
    .stats
    .keys()
    .filter(|k| !scheme_specific(k))
    .cloned()
    .collect();
    for scheme in faults_schemes() {
        let snap = snapshot(Scale::Smoke, &Benchmark::Gzip.into(), scheme, None);
        for key in common {
            assert!(
                snap.get(key).is_some(),
                "scheme {scheme:?} snapshot missing {key}"
            );
        }
        // Outside the scheme-specific ECC-array scope and the
        // data-dependent histogram buckets (only non-empty buckets are
        // published), every scheme publishes exactly the baseline keys.
        let without_ecc: Vec<String> = snap
            .stats
            .keys()
            .filter(|k| !scheme_specific(k))
            .cloned()
            .collect();
        assert_eq!(without_ecc, baseline, "key drift under scheme {scheme:?}");
    }
}
