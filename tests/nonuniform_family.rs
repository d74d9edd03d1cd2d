//! The non-uniform family runs one code path: the `k`-entry ECC array at
//! `k = 1` is the paper's scheme, over a whole run.

use aep::core::SchemeKind;
use aep::sim::{Runner, Scale};
use aep::workloads::Benchmark;

#[test]
fn one_entry_per_set_runs_exactly_as_the_paper_scheme() {
    let run = |kind| {
        Runner::new(Scale::Smoke.config(Benchmark::Gap, kind))
            .run_observed(None)
            .registry
            .into_entries()
    };
    let mut multi = run(SchemeKind::ProposedMulti {
        cleaning_interval: 1 << 20,
        entries_per_set: 1,
    });
    let proposed = run(SchemeKind::Proposed {
        cleaning_interval: 1 << 20,
    });
    // The one key only the k-entry kind publishes.
    assert!(multi.remove("scheme.ecc_array.entries_per_set").is_some());
    assert!(proposed.contains_key("scheme.energy.ecc_encodes"));
    assert_eq!(multi, proposed);
}
