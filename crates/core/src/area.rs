//! The paper's area model, reproduced line by line.
//!
//! §5.2: *"our approach has a total of 54KB area overhead for error
//! protection: 16KB for parity codes in the data array, 2KB for written
//! bits, 2KB parity bits for the tag array, 2KB parity bits for the status
//! bits, and 32KB for the ECC array, compared to 132KB in the conventional
//! ECC protected L2 cache: 128KB for the data array and 4KB for the tag
//! array and status bits. This is 59% reduction in area overhead."*
//!
//! [`AreaModel`] derives every component from the cache geometry so the
//! accounting scales to other cache sizes (the ablation benches sweep it):
//!
//! | component | rule |
//! |---|---|
//! | data SECDED | 8 check bits per 64 data bits |
//! | data parity | 1 check bit per 64 data bits |
//! | written bits | 1 bit per line |
//! | tag parity | 1 bit per line |
//! | status parity | 1 bit per line |
//! | tag+status (conventional) | 2 bits per line |
//! | shared ECC array | 1 line-sized SECDED entry per **set** |

use aep_ecc::CodeArea;
use aep_mem::CacheConfig;

/// An itemised area report for one scheme.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaReport {
    /// Scheme label.
    pub scheme: &'static str,
    /// (component name, storage) pairs, in presentation order.
    pub components: Vec<(&'static str, CodeArea)>,
}

impl AreaReport {
    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> CodeArea {
        self.components.iter().map(|&(_, a)| a).sum()
    }

    /// Renders the report as the rows the paper's §5.2 enumerates.
    #[must_use]
    pub fn to_table(&self) -> String {
        use core::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{} error-protection storage:", self.scheme);
        for (name, area) in &self.components {
            let _ = writeln!(out, "  {name:<28} {area}");
        }
        let _ = writeln!(out, "  {:<28} {}", "TOTAL", self.total());
        out
    }
}

/// Derives the paper's area accounting from a cache geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaModel {
    data_bits: u64,
    lines: u64,
    sets: u64,
    line_bytes: u64,
}

impl AreaModel {
    /// Builds the model for `l2`.
    #[must_use]
    pub fn new(l2: &CacheConfig) -> Self {
        AreaModel {
            data_bits: l2.size_bytes * 8,
            lines: l2.lines(),
            sets: l2.sets(),
            line_bytes: l2.line_bytes,
        }
    }

    /// Conventional uniform protection: SECDED over the whole data array
    /// plus tag/status protection (2 bits per line, the paper's 4 KB).
    #[must_use]
    pub fn conventional(&self) -> AreaReport {
        AreaReport {
            scheme: "conventional (uniform ECC)",
            components: vec![
                (
                    "data SECDED (8b/64b)",
                    CodeArea::from_ratio(self.data_bits, 8, 64),
                ),
                ("tag+status protection", CodeArea::from_bits(self.lines * 2)),
            ],
        }
    }

    /// The proposed scheme's five components (§5.2).
    #[must_use]
    pub fn proposed(&self) -> AreaReport {
        AreaReport {
            scheme: "proposed (non-uniform)",
            components: vec![
                (
                    "data parity (1b/64b)",
                    CodeArea::from_ratio(self.data_bits, 1, 64),
                ),
                ("written bits (1b/line)", CodeArea::from_bits(self.lines)),
                ("tag parity (1b/line)", CodeArea::from_bits(self.lines)),
                ("status parity (1b/line)", CodeArea::from_bits(self.lines)),
                ("shared ECC array (1 entry/set)", self.ecc_array_area(1)),
            ],
        }
    }

    /// Parity-only strawman: parity over data plus tag/status parity.
    #[must_use]
    pub fn parity_only(&self) -> AreaReport {
        AreaReport {
            scheme: "parity-only",
            components: vec![
                (
                    "data parity (1b/64b)",
                    CodeArea::from_ratio(self.data_bits, 1, 64),
                ),
                ("tag parity (1b/line)", CodeArea::from_bits(self.lines)),
                ("status parity (1b/line)", CodeArea::from_bits(self.lines)),
            ],
        }
    }

    /// The shared ECC array's storage for `entries_per_set` entries: each
    /// entry holds one SECDED check byte per 64-bit word of a line
    /// (8 bytes per entry for a 64-byte line).
    #[must_use]
    pub fn ecc_array_area(&self, entries_per_set: u64) -> CodeArea {
        let bytes_per_entry = self.line_bytes / 8; // one check byte per word
        CodeArea::from_bytes(self.sets * entries_per_set * bytes_per_entry)
    }

    /// A proposed-style report with `entries_per_set` ECC entries per set
    /// (the design-space ablation of DESIGN.md).
    #[must_use]
    pub fn proposed_with_entries(&self, entries_per_set: u64) -> AreaReport {
        let mut report = self.proposed();
        report.components.pop();
        report
            .components
            .push(("shared ECC array", self.ecc_array_area(entries_per_set)));
        report
    }

    /// The protection-storage accounting for any [`SchemeKind`] — the
    /// explorer's area objective.
    ///
    /// Cleaning variants of the uniform baseline carry the written bits
    /// the interval walker reads (§3), on top of the conventional SECDED
    /// accounting.
    #[must_use]
    pub fn for_scheme(&self, kind: crate::SchemeKind) -> AreaReport {
        use crate::SchemeKind;
        match kind {
            SchemeKind::Uniform => self.conventional(),
            SchemeKind::ParityOnly => self.parity_only(),
            SchemeKind::UniformWithCleaning { .. } => {
                let mut report = self.conventional();
                report
                    .components
                    .push(("written bits (1b/line)", CodeArea::from_bits(self.lines)));
                report
            }
            SchemeKind::Proposed { .. } => self.proposed(),
            SchemeKind::ProposedMulti {
                entries_per_set, ..
            } => self.proposed_with_entries(entries_per_set as u64),
            SchemeKind::SilentWriteEcc { .. } => {
                let mut report = self.proposed();
                report.scheme = "silent-write ECC (non-uniform + elision)";
                // One 64-bit word comparator on the store path
                // (combinational; charged as one word of storage).
                report
                    .components
                    .push(("silent-store comparator (64b)", CodeArea::from_bits(64)));
                report
            }
            SchemeKind::ReuseCopyback { .. } => {
                let mut report = self.proposed();
                report.scheme = "reuse copy-back (non-uniform + predictor)";
                // A truncated last-write timestamp and a write gap per
                // line (16 bits each) on top of the written bit.
                report.components.push((
                    "reuse predictor (2x16b/line)",
                    CodeArea::from_bits(self.lines * 32),
                ));
                report
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AreaModel {
        AreaModel::new(&CacheConfig::date2006_l2())
    }

    #[test]
    fn conventional_is_132_kib() {
        let r = model().conventional();
        assert_eq!(r.total().kib(), 132.0);
        // 128 KB data ECC + 4 KB tag/status, as in the paper.
        assert_eq!(r.components[0].1.kib(), 128.0);
        assert_eq!(r.components[1].1.kib(), 4.0);
    }

    #[test]
    fn proposed_is_54_kib_with_paper_breakdown() {
        let r = model().proposed();
        let kib: Vec<f64> = r.components.iter().map(|&(_, a)| a.kib()).collect();
        assert_eq!(kib, vec![16.0, 2.0, 2.0, 2.0, 32.0]);
        assert_eq!(r.total().kib(), 54.0);
    }

    #[test]
    fn reduction_is_59_percent() {
        let m = model();
        let reduction = m.conventional().total().reduction_to(m.proposed().total());
        // 1 - 54/132 = 0.5909...
        assert!((reduction - 0.5909).abs() < 1e-3, "got {reduction}");
    }

    #[test]
    fn parity_only_is_20_kib() {
        assert_eq!(model().parity_only().total().kib(), 20.0);
    }

    #[test]
    fn ecc_array_scales_with_entries_per_set() {
        let m = model();
        assert_eq!(m.ecc_array_area(1).kib(), 32.0);
        assert_eq!(m.ecc_array_area(2).kib(), 64.0);
        let two = m.proposed_with_entries(2);
        assert_eq!(two.total().kib(), 54.0 + 32.0);
    }

    #[test]
    fn accounting_scales_to_other_cache_sizes() {
        // A 2 MB L2 doubles every component.
        let mut cfg = CacheConfig::date2006_l2();
        cfg.size_bytes = 2 * 1024 * 1024;
        let m = AreaModel::new(&cfg);
        assert_eq!(m.conventional().total().kib(), 264.0);
        assert_eq!(m.proposed().total().kib(), 108.0);
    }

    #[test]
    fn table_rendering_mentions_every_component() {
        let t = model().proposed().to_table();
        for needle in [
            "data parity",
            "written bits",
            "tag parity",
            "ECC array",
            "TOTAL",
        ] {
            assert!(t.contains(needle), "missing {needle} in\n{t}");
        }
    }
}
