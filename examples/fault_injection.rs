//! Soft-error injection campaign: strike random L2 lines and watch each
//! protection scheme detect/correct/refetch — or lose data.
//!
//! This is the reliability argument of the paper made executable: the
//! proposed non-uniform scheme recovers everything uniform ECC recovers
//! (single-bit flips anywhere), while costing 59 % less check storage; a
//! parity-only design loses every struck dirty line.
//!
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use aep::core::verify::run_campaign;
use aep::core::{
    NonUniformScheme, ParityOnlyScheme, ProtectionScheme, SchemeKind, UniformEccScheme,
};
use aep::ecc::CodeArea;
use aep::mem::cache::Cache;
use aep::mem::memory::mix64;
use aep::mem::{CacheConfig, LineAddr, MainMemory};

/// Fills a fresh L2 with a mix of clean and dirty lines, replaying the
/// fill events through the scheme so its check arrays are in sync.
fn populate(scheme: &mut dyn ProtectionScheme) -> (Cache, MainMemory) {
    let cfg = CacheConfig::date2006_l2();
    let mut l2 = Cache::new(cfg);
    l2.set_event_emission(true);
    let mut mem = MainMemory::new(100, 8);
    let sets = l2.sets() as u64;
    for i in 0..l2.total_lines() {
        let line = LineAddr(i);
        // One dirty line per set (lines 0..sets map to distinct sets):
        // this respects the proposed scheme's structural bound, so the
        // same population is valid under every scheme.
        let dirty = i < sets;
        let data = if dirty {
            (0..8).map(|w| mix64(i * 8 + w)).collect()
        } else {
            mem.read_line(line)
        };
        l2.install(line, dirty, 0, Some(&data));
        let mut directives = Vec::new();
        for event in l2.take_events() {
            scheme.on_event(&event, &l2, &mut directives);
        }
        // Distinct lines land in each way exactly once here, but a real
        // write stream would trigger ECC-entry evictions; the full-system
        // path is exercised by `exp fig8`.
        assert!(directives.is_empty());
    }
    (l2, mem)
}

fn main() {
    const STRIKES: u64 = 20_000;
    const P_DOUBLE: f64 = 0.02; // 2% of strikes flip two bits of a word

    println!(
        "{STRIKES} seeded strikes per scheme ({:.0}% double-bit), one dirty line per set\n",
        P_DOUBLE * 100.0
    );
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>10} {:>10} {:>9}",
        "scheme", "corrected", "refetched", "lost", "undetected", "recovery%", "storage"
    );

    let l2_cfg = CacheConfig::date2006_l2();
    let mut schemes: Vec<Box<dyn ProtectionScheme>> = vec![
        Box::new(UniformEccScheme::new(&l2_cfg)),
        Box::new(NonUniformScheme::new(
            &l2_cfg,
            SchemeKind::Proposed {
                cleaning_interval: 1 << 20,
            },
        )),
        Box::new(ParityOnlyScheme::new(&l2_cfg)),
    ];

    for scheme in &mut schemes {
        let (mut l2, mut mem) = populate(scheme.as_mut());
        let report = run_campaign(
            &mut l2,
            scheme.as_mut(),
            &mut mem,
            0xDA7E_2006,
            STRIKES,
            P_DOUBLE,
        );
        let area: CodeArea = scheme.area().total();
        println!(
            "{:<22} {:>9} {:>9} {:>9} {:>10} {:>9.2}% {:>9}",
            scheme.name(),
            report.corrected,
            report.refetched,
            report.unrecoverable,
            report.undetected,
            report.recovery_rate() * 100.0,
            area.to_string(),
        );
    }

    println!(
        "\nReading the table: uniform ECC and the proposed scheme recover every \
         single-bit strike\n(dirty lines via ECC, clean lines via parity+refetch); \
         only double-bit strikes are\nflagged unrecoverable. Parity-only loses every \
         struck dirty line — that is the gap\nthe paper's 32 KB shared ECC array closes \
         at 59% less storage than uniform ECC."
    );
}
