//! The scheme-conformance gate: every registered protection scheme —
//! the paper's line-up plus the related-work challengers, as
//! `aep_core::lineup::challengers_faults_schemes` declares them — must
//! pass the shared battery in `aep_check::conformance` (protocol fuzz
//! under the golden model, slug/run-cache identity, lane batch vs.
//! serial bit-identity, fork round-trip, and strike-campaign determinism
//! across the single/burst:2/col:4 ladder).
//!
//! That every `SchemeKind` variant is registered at all is pinned next
//! to the enum, by `aep-core`'s `lineup` tests; that the battery is not
//! vacuous, by `aep-check`'s own unit tests.

use aep_check::conformance::run_conformance_matrix;
use aep_core::lineup::challengers_faults_schemes;

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
