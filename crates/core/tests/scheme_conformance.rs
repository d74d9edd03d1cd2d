//! The scheme-conformance gate: every registered protection scheme —
//! the paper's lineup plus the related-work challengers — must pass the
//! shared battery in `aep_check::conformance` (protocol fuzz under the
//! golden model, slug/run-cache identity, lane batch vs. serial
//! bit-identity, fork round-trip, and strike-campaign determinism
//! across the single/burst:2/col:4 ladder).
//!
//! Lives in `aep-core`'s integration tests (via a dev-dependency cycle,
//! which cargo permits) so that adding a `SchemeKind` variant without
//! conformance coverage is caught next to the enum it extends.

use aep_check::conformance::{broken_scheme_is_caught, run_conformance_matrix};
use aep_core::SchemeKind;
use aep_dse::registry::challengers_faults_schemes;

#[test]
fn every_registered_scheme_passes_the_full_battery() {
    let reports = run_conformance_matrix(2);
    assert_eq!(reports.len(), challengers_faults_schemes().len());
    let mut failed = Vec::new();
    for r in &reports {
        assert!(
            r.events_checked > 0,
            "{}: no events checked",
            r.scheme.label()
        );
        if !r.passed() {
            failed.push(format!("{}: {:?}", r.scheme.label(), r.failures));
        }
    }
    assert!(
        failed.is_empty(),
        "non-conforming schemes:\n{}",
        failed.join("\n")
    );
}

#[test]
fn the_challengers_are_registered() {
    let schemes = challengers_faults_schemes();
    assert!(
        schemes
            .iter()
            .any(|s| matches!(s, SchemeKind::SilentWriteEcc { .. })),
        "silent-write ECC missing from the conformance registry"
    );
    assert!(
        schemes
            .iter()
            .any(|s| matches!(s, SchemeKind::ReuseCopyback { .. })),
        "reuse copy-back missing from the conformance registry"
    );
}

#[test]
fn the_battery_is_not_vacuous() {
    // The deliberately broken scheme double (the pre-PR 2 retiring-entry
    // bug) must be flagged; a suite that passes it proves nothing.
    assert!(broken_scheme_is_caught() > 0);
}
