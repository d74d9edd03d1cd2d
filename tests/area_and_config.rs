//! The paper's exact numeric claims: Table 1 and the §5.2 area accounting.

use aep::core::{
    AreaModel, NonUniformScheme, ParityOnlyScheme, ProtectionScheme, SchemeKind, UniformEccScheme,
};
use aep::cpu::CoreConfig;
use aep::mem::{CacheConfig, HierarchyConfig, WritePolicy};
use aep::sim::build_scheme;
use aep::workloads::calibration::PAPER_AREA_REDUCTION_PERCENT;

#[test]
fn table1_matches_paper() {
    let core = CoreConfig::date2006();
    assert_eq!(core.ruu_entries, 64);
    assert_eq!(core.lsq_entries, 32);
    assert_eq!(core.decode_width, 4);
    assert_eq!(core.issue_width, 4);
    assert_eq!(core.fu.int_alu, 4);
    assert_eq!(core.fu.int_mul, 1);
    assert_eq!(core.fu.fp_add, 1);
    assert_eq!(core.fu.fp_mul, 1);
    assert_eq!(core.bpred.btb_entries, 2048);

    let hier = HierarchyConfig::date2006();
    assert_eq!(hier.l1i.size_bytes, 32 * 1024);
    assert_eq!(hier.l1i.ways, 4);
    assert_eq!(hier.l1i.line_bytes, 32);
    assert_eq!(hier.l1i.hit_latency, 1);
    assert_eq!(hier.l1d.write_policy, WritePolicy::WriteThrough);
    assert_eq!(hier.write_buffer_entries, 16);
    assert_eq!(hier.l2.size_bytes, 1024 * 1024);
    assert_eq!(hier.l2.ways, 4);
    assert_eq!(hier.l2.line_bytes, 64);
    assert_eq!(hier.l2.hit_latency, 10);
    assert_eq!(hier.memory_latency, 100);
    assert_eq!(hier.bus_bytes_per_cycle, 8);
}

#[test]
fn area_reduction_is_59_percent_exactly_as_the_paper_computes_it() {
    let model = AreaModel::new(&CacheConfig::date2006_l2());
    let conventional = model.conventional().total();
    let proposed = model.proposed().total();

    // The paper's absolute numbers.
    assert_eq!(conventional.kib(), 132.0);
    assert_eq!(proposed.kib(), 54.0);

    // "This is 59% reduction in area overhead."
    let reduction = conventional.reduction_to(proposed) * 100.0;
    assert!(
        (reduction - PAPER_AREA_REDUCTION_PERCENT).abs() < 0.2,
        "got {reduction}%"
    );
}

#[test]
fn paper_breakdown_is_reproduced_component_by_component() {
    // "16KB for parity codes in the data array, 2KB for written bits,
    //  2KB parity bits for the tag array, 2KB parity bits for the status
    //  bits, and 32KB for the ECC array" — §5.2.
    let report = AreaModel::new(&CacheConfig::date2006_l2()).proposed();
    let kib: Vec<(&str, f64)> = report
        .components
        .iter()
        .map(|&(name, area)| (name, area.kib()))
        .collect();
    assert_eq!(kib[0].1, 16.0);
    assert_eq!(kib[1].1, 2.0);
    assert_eq!(kib[2].1, 2.0);
    assert_eq!(kib[3].1, 2.0);
    assert_eq!(kib[4].1, 32.0);
}

#[test]
fn scheme_objects_report_the_same_areas_as_the_model() {
    let cfg = CacheConfig::date2006_l2();
    let model = AreaModel::new(&cfg);
    assert_eq!(
        UniformEccScheme::new(&cfg).area().total(),
        model.conventional().total()
    );
    let proposed = SchemeKind::Proposed {
        cleaning_interval: 1 << 20,
    };
    assert_eq!(
        NonUniformScheme::new(&cfg, proposed).area().total(),
        model.proposed().total()
    );
    assert_eq!(
        ParityOnlyScheme::new(&cfg).area().total(),
        model.parity_only().total()
    );
}

#[test]
fn built_non_uniform_schemes_report_the_models_area() {
    // The simulator's schemes and the explorer's area objective share one
    // accounting for every kind of the non-uniform family.
    let hier = HierarchyConfig::date2006();
    let model = AreaModel::new(&hier.l2);
    for kind in [
        SchemeKind::Proposed {
            cleaning_interval: 1 << 20,
        },
        SchemeKind::ProposedMulti {
            cleaning_interval: 1 << 20,
            entries_per_set: 2,
        },
        SchemeKind::SilentWriteEcc {
            cleaning_interval: 1 << 20,
        },
        SchemeKind::ReuseCopyback {
            cleaning_interval: 1 << 20,
            multiplier: 4,
        },
    ] {
        assert_eq!(
            build_scheme(kind, &hier).area().total(),
            model.for_scheme(kind).total(),
            "{}",
            kind.label()
        );
    }
}

#[test]
fn ecc_array_sized_at_one_entry_per_set_is_32kb() {
    // "Since each ECC entry is 8 bytes, there are 4K ECC entries in
    //  total, which is the same as the number of sets" — §5.2.
    let cfg = CacheConfig::date2006_l2();
    assert_eq!(cfg.sets(), 4096);
    let model = AreaModel::new(&cfg);
    assert_eq!(model.ecc_array_area(1).bytes(), 4096 * 8);
}

#[test]
fn written_bits_cost_16k_bits() {
    // "The area overhead due to the written bits is 16K bits and the
    //  latch is 12 bits wide" — §3.2.
    let cfg = CacheConfig::date2006_l2();
    assert_eq!(cfg.lines(), 16 * 1024);
    let fsm = aep::core::CleaningLogic::new(1024 * 1024, cfg.sets() as usize);
    assert_eq!(fsm.latch_bits(), 12);
}
