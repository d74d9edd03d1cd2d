//! End-to-end soft-error campaigns: inject → detect → recover.
//!
//! The paper argues its scheme preserves the reliability of uniform ECC
//! for dirty data (via the shared ECC array) and of parity+refetch for
//! clean data. [`run_campaign`] validates that argument experimentally:
//! a seeded stream of single- and double-bit strikes is applied to random
//! valid L2 lines and every strike is pushed through the attached scheme's
//! recovery path, tallying the outcome.

use aep_ecc::FaultInjector;
use aep_mem::cache::Cache;
use aep_mem::memory::mix64;
use aep_mem::MainMemory;

use crate::scheme::{ProtectionScheme, RecoveryOutcome};

/// Tally of a fault-injection campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignReport {
    /// Faults injected into valid lines.
    pub injected: u64,
    /// Single-bit faults injected.
    pub singles: u64,
    /// Double-bit faults injected.
    pub doubles: u64,
    /// Strikes corrected in place by ECC.
    pub corrected: u64,
    /// Strikes recovered by refetching a clean line from memory.
    pub refetched: u64,
    /// Strikes that were detected but unrecoverable.
    pub unrecoverable: u64,
    /// Strikes the scheme did not observe at all (silent data corruption
    /// risk — zero for every scheme in this crate on single-bit faults).
    pub undetected: u64,
}

impl CampaignReport {
    /// Fraction of injected faults fully recovered from.
    #[must_use]
    pub fn recovery_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            (self.corrected + self.refetched) as f64 / self.injected as f64
        }
    }
}

/// Runs a fault-injection campaign of `strikes` strikes against valid
/// lines of `l2`, recovering each through `scheme`.
///
/// `p_double` is the probability a strike flips two bits of one word
/// (uncorrectable by SECDED). Deterministic in `seed`.
///
/// # Panics
///
/// Panics if the cache holds no valid lines.
pub fn run_campaign(
    l2: &mut Cache,
    scheme: &mut dyn ProtectionScheme,
    memory: &mut MainMemory,
    seed: u64,
    strikes: u64,
    p_double: f64,
) -> CampaignReport {
    let words = l2.config().words_per_line();
    let mut injector = FaultInjector::with_seed(seed);
    let mut pick = seed ^ 0x5DEE_CE66;
    let mut report = CampaignReport::default();

    // Collect valid lines once per strike (cheap for test-sized caches;
    // campaigns on the full 16K-line L2 sample with the same loop).
    for _ in 0..strikes {
        let mut target = None;
        for probe in 0..l2.sets() * l2.ways() {
            pick = mix64(pick.wrapping_add(probe as u64 + 1));
            let set = (pick as usize >> 8) % l2.sets();
            let way = (pick as usize >> 40) % l2.ways();
            if l2.line_view(set, way).valid {
                target = Some((set, way));
                break;
            }
        }
        let (set, way) = target.expect("campaign requires at least one valid line");

        let fault = injector.weighted(words, p_double);
        l2.strike(set, way, fault.word, fault.bit);
        if let Some(second) = fault.second_bit {
            l2.strike(set, way, fault.word, second);
            report.doubles += 1;
        } else {
            report.singles += 1;
        }
        report.injected += 1;

        match scheme.verify_line(l2, set, way, memory) {
            RecoveryOutcome::Clean => report.undetected += 1,
            RecoveryOutcome::CorrectedByEcc { .. } => report.corrected += 1,
            RecoveryOutcome::RecoveredByRefetch => report.refetched += 1,
            RecoveryOutcome::Unrecoverable => {
                report.unrecoverable += 1;
                // Repair the line out-of-band so later strikes in the
                // campaign start from intact data (as a reboot would).
                let view = l2.line_view(set, way);
                let fresh = memory.read_line(view.line);
                for (i, &w) in fresh.iter().enumerate() {
                    l2.write_word(set, way, i, w);
                }
                // Resynchronise the scheme's check state.
                let _ = scheme.verify_line(l2, set, way, memory);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nonuniform::NonUniformScheme;
    use crate::parity_only::ParityOnlyScheme;
    use crate::scheme::SchemeKind;
    use crate::uniform::UniformEccScheme;
    use aep_mem::addr::LineAddr;
    use aep_mem::CacheConfig;

    const PROPOSED: SchemeKind = SchemeKind::Proposed {
        cleaning_interval: 1 << 20,
    };

    fn populated(scheme: &mut dyn ProtectionScheme) -> (Cache, MainMemory) {
        let cfg = CacheConfig::tiny_l2();
        let mut l2 = Cache::new(cfg);
        l2.set_event_emission(true);
        let mut mem = MainMemory::new(100, 8);
        // Fill a mixture of clean and dirty lines.
        for i in 0..32u64 {
            let line = LineAddr(i);
            let dirty = i % 3 == 0;
            let data = if dirty {
                (0..8).map(|w| mix64(i * 8 + w)).collect()
            } else {
                mem.read_line(line)
            };
            l2.install(line, dirty, 0, Some(&data));
            let mut dirs = Vec::new();
            for ev in l2.take_events() {
                scheme.on_event(&ev, &l2, &mut dirs);
            }
            assert!(dirs.is_empty(), "installs into distinct sets");
        }
        (l2, mem)
    }

    #[test]
    fn uniform_recovers_all_single_bit_faults() {
        let mut scheme = UniformEccScheme::new(&CacheConfig::tiny_l2());
        let (mut l2, mut mem) = populated(&mut scheme);
        let r = run_campaign(&mut l2, &mut scheme, &mut mem, 1, 500, 0.0);
        assert_eq!(r.injected, 500);
        assert_eq!(r.corrected, 500);
        assert_eq!(r.undetected, 0);
        assert_eq!(r.unrecoverable, 0);
        assert!((r.recovery_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonuniform_recovers_all_single_bit_faults() {
        let mut scheme = NonUniformScheme::new(&CacheConfig::tiny_l2(), PROPOSED);
        let (mut l2, mut mem) = populated(&mut scheme);
        let r = run_campaign(&mut l2, &mut scheme, &mut mem, 2, 500, 0.0);
        assert_eq!(r.injected, 500);
        assert_eq!(r.corrected + r.refetched, 500, "{r:?}");
        assert!(r.corrected > 0, "dirty lines must use ECC: {r:?}");
        assert!(r.refetched > 0, "clean lines must refetch: {r:?}");
        assert_eq!(r.undetected, 0);
    }

    #[test]
    fn parity_only_loses_dirty_lines() {
        let mut scheme = ParityOnlyScheme::new(&CacheConfig::tiny_l2());
        let (mut l2, mut mem) = populated(&mut scheme);
        let r = run_campaign(&mut l2, &mut scheme, &mut mem, 3, 500, 0.0);
        assert!(r.unrecoverable > 0, "dirty strikes are lost: {r:?}");
        assert!(r.refetched > 0);
        assert_eq!(r.undetected, 0, "parity detects all single flips");
    }

    #[test]
    fn double_bit_faults_are_detected_not_corrected() {
        let mut scheme = NonUniformScheme::new(&CacheConfig::tiny_l2(), PROPOSED);
        let (mut l2, mut mem) = populated(&mut scheme);
        let r = run_campaign(&mut l2, &mut scheme, &mut mem, 4, 300, 1.0);
        assert_eq!(r.doubles, 300);
        // Dirty lines: SECDED flags double faults; clean lines: the parity
        // of a double flip is unchanged per-word only if both flips hit the
        // same word... they do (FaultSpec), so parity misses them — that is
        // the documented parity limitation, visible as `undetected`.
        assert!(r.unrecoverable > 0, "{r:?}");
        assert!(r.corrected == 0, "{r:?}");
    }

    #[test]
    fn campaigns_are_deterministic() {
        let run = || {
            let mut scheme = NonUniformScheme::new(&CacheConfig::tiny_l2(), PROPOSED);
            let (mut l2, mut mem) = populated(&mut scheme);
            run_campaign(&mut l2, &mut scheme, &mut mem, 9, 200, 0.3)
        };
        assert_eq!(run(), run());
    }
}
