//! End-to-end reliability: strike the L2 of a *running* full system and
//! verify the attached scheme recovers, with the ECC-array invariant
//! intact throughout.

use aep::core::{NonUniformScheme, ProtectionScheme, RecoveryOutcome, SchemeKind};
use aep::cpu::CoreConfig;
use aep::mem::HierarchyConfig;
use aep::sim::System;
use aep::workloads::Benchmark;
use aep_faultsim::{run_campaign, CampaignConfig};

fn warm_system(kind: SchemeKind, cycles: u64) -> System<aep::workloads::Generator> {
    let mut sys = System::new(
        CoreConfig::date2006(),
        HierarchyConfig::date2006(),
        kind,
        Benchmark::Gap.generator(42),
    );
    sys.run(0, cycles);
    sys
}

#[test]
fn invariant_holds_after_a_long_proposed_run() {
    let sys = warm_system(
        SchemeKind::Proposed {
            cleaning_interval: 64 * 1024,
        },
        300_000,
    );
    // Downcast-free check: rebuild a scheme view over the cache by
    // scanning the cache directly — at most one dirty line per set.
    let l2 = sys.hier.l2();
    for set in 0..l2.sets() {
        let dirty = (0..l2.ways())
            .filter(|&w| {
                let v = l2.line_view(set, w);
                v.valid && v.dirty
            })
            .count();
        assert!(dirty <= 1, "set {set} holds {dirty} dirty lines");
    }
}

#[test]
fn live_l2_single_bit_strikes_recover_under_proposed() {
    // Seeded single-bit strikes land in the running Table 1 machine's L2
    // and are followed to their architectural end: dirty lines must
    // decode against the shared ECC array, clean lines must refetch on
    // parity, and nothing may be lost or escape silently.
    let mut cfg = CampaignConfig::new(
        Benchmark::Gap,
        SchemeKind::Proposed {
            cleaning_interval: 64 * 1024,
        },
    );
    cfg.warmup_cycles = 300_000;
    cfg.trials = 200;
    let t = run_campaign(&cfg, 2);
    assert_eq!(t.trials(), 200);
    assert_eq!(t.due, 0, "every single-bit strike must be recovered: {t:?}");
    assert_eq!(t.sdc, 0, "no strike may escape silently: {t:?}");
    assert!(t.corrected > 0, "dirty lines must use ECC: {t:?}");
    assert!(t.refetch_recovered > 0, "clean lines must refetch: {t:?}");
}

#[test]
fn dirty_line_strike_roundtrip_on_live_state() {
    let mut sys = warm_system(
        SchemeKind::Proposed {
            cleaning_interval: 64 * 1024,
        },
        200_000,
    );
    // Find a dirty line in the live L2.
    let (set, way) = {
        let l2 = sys.hier.l2();
        let mut found = None;
        'outer: for set in 0..l2.sets() {
            for way in 0..l2.ways() {
                let v = l2.line_view(set, way);
                if v.valid && v.dirty {
                    found = Some((set, way));
                    break 'outer;
                }
            }
        }
        found.expect("a gap run leaves dirty lines")
    };
    let original = sys.hier.l2().line_data(set, way).unwrap().to_vec();
    sys.hier.l2_mut().strike(set, way, 3, 21);

    let mut l2 = sys.hier.l2().clone();
    let mut memory = sys.hier.memory().clone();
    let outcome = sys.scheme.verify_line(&mut l2, set, way, &mut memory);
    assert_eq!(outcome, RecoveryOutcome::CorrectedByEcc { words: 1 });
    assert_eq!(l2.line_data(set, way).unwrap(), original.as_slice());
}

#[test]
fn standalone_scheme_matches_system_behaviour() {
    // The NonUniformScheme used standalone (unit-level) and inside the
    // system must agree on area and naming — a seam check.
    let kind = SchemeKind::Proposed {
        cleaning_interval: 64 * 1024,
    };
    let sys = warm_system(kind, 10_000);
    let standalone = NonUniformScheme::new(&HierarchyConfig::date2006().l2, kind);
    assert_eq!(sys.scheme.name(), "proposed-nonuniform");
    assert_eq!(sys.scheme.area().total(), standalone.area().total());
}
