//! The protection-scheme interface.
//!
//! A scheme is an observer of the L2's event stream that maintains check
//! storage (parity arrays, ECC arrays) and can demand *directives* — most
//! importantly the proposed scheme's ECC-entry eviction, which forces a
//! dirty line to be written back and cleaned. The simulator applies
//! directives through the hierarchy so the resulting traffic is charged to
//! the bus like any other write-back.

use std::any::Any;

use aep_ecc::parity::InterleavedParity;
use aep_mem::cache::{Cache, L2Event};
use aep_mem::{LineAddr, MainMemory};

use crate::area::AreaReport;

/// Which protection scheme to attach to the L2 — the experiment axis of
/// the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Conventional uniform SECDED on every line (the paper's baseline,
    /// `org` in Figures 5–8).
    Uniform,
    /// Uniform SECDED plus dirty-line cleaning at the given interval
    /// (cycles per full cache sweep) — the configuration of Figures 3–6.
    UniformWithCleaning {
        /// Cycles between successive probes of the *same* set
        /// (the paper's 64K–4M "cleaning interval").
        cleaning_interval: u64,
    },
    /// Parity on everything (detection only) — an ablation strawman.
    ParityOnly,
    /// The paper's proposal: parity everywhere, a shared per-set ECC
    /// array, and dirty-line cleaning (§3, evaluated in Figures 7–8).
    Proposed {
        /// The cleaning interval in cycles (the paper selects 1M).
        cleaning_interval: u64,
    },
    /// Extension: the proposed scheme with a `k`-entry-per-set ECC array
    /// (the design-space ablation; `k = 1` is [`SchemeKind::Proposed`]).
    ProposedMulti {
        /// The cleaning interval in cycles.
        cleaning_interval: u64,
        /// ECC entries per set.
        entries_per_set: usize,
    },
    /// Related-work challenger: the proposed scheme plus silent-store
    /// elision (Kishani et al., arXiv:2112.12667). Stores whose bytes
    /// match the resident line are detected by a per-word compare and
    /// skip check-bit regeneration entirely — the line stays clean, so
    /// the shared ECC entry is never claimed and the forced ECC-WB
    /// never happens.
    SilentWriteEcc {
        /// The cleaning interval in cycles.
        cleaning_interval: u64,
    },
    /// Related-work challenger: the proposed scheme with the interval
    /// FSM replaced by a reuse-distance-predicted early copy-back
    /// cleaner (Wang et al., arXiv:2105.14442). A dirty, not-written
    /// line idle for longer than `multiplier` times its observed
    /// write-reuse gap is predicted dead and copied back early.
    ReuseCopyback {
        /// The probe interval in cycles (the predictor's sweep period).
        cleaning_interval: u64,
        /// Idle-time threshold as a multiple of the observed reuse gap.
        multiplier: u32,
    },
}

impl SchemeKind {
    /// The cleaning interval, when this configuration cleans.
    #[must_use]
    pub fn cleaning_interval(self) -> Option<u64> {
        match self {
            SchemeKind::UniformWithCleaning { cleaning_interval }
            | SchemeKind::Proposed { cleaning_interval }
            | SchemeKind::ProposedMulti {
                cleaning_interval, ..
            }
            | SchemeKind::SilentWriteEcc { cleaning_interval }
            | SchemeKind::ReuseCopyback {
                cleaning_interval, ..
            } => Some(cleaning_interval),
            SchemeKind::Uniform | SchemeKind::ParityOnly => None,
        }
    }

    /// Whether the machine elides silent stores under this configuration:
    /// its store path then compares each store's payload against the
    /// resident words, so line data can steer its timing.
    #[must_use]
    pub fn elides_silent_stores(self) -> bool {
        matches!(self, SchemeKind::SilentWriteEcc { .. })
    }

    /// Short label for reports.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            SchemeKind::Uniform => "org".to_owned(),
            SchemeKind::ParityOnly => "parity-only".to_owned(),
            SchemeKind::UniformWithCleaning { cleaning_interval } => {
                format!("org+clean@{}", human_interval(cleaning_interval))
            }
            SchemeKind::Proposed { cleaning_interval } => {
                format!("proposed@{}", human_interval(cleaning_interval))
            }
            SchemeKind::ProposedMulti {
                cleaning_interval,
                entries_per_set,
            } => format!(
                "proposed{}e@{}",
                entries_per_set,
                human_interval(cleaning_interval)
            ),
            SchemeKind::SilentWriteEcc { cleaning_interval } => {
                format!("silent-ecc@{}", human_interval(cleaning_interval))
            }
            SchemeKind::ReuseCopyback {
                cleaning_interval,
                multiplier,
            } => format!(
                "reuse-cb{}x@{}",
                multiplier,
                human_interval(cleaning_interval)
            ),
        }
    }
}

/// A compact, parseable spelling of a [`SchemeKind`] for cache keys,
/// explorer point IDs, and cache-file bodies (`label()` is for humans;
/// this one round-trips through [`parse_scheme_slug`]).
#[must_use]
pub fn scheme_slug(kind: SchemeKind) -> String {
    match kind {
        SchemeKind::Uniform => "uniform".to_owned(),
        SchemeKind::ParityOnly => "parity".to_owned(),
        SchemeKind::UniformWithCleaning { cleaning_interval } => {
            format!("uniform_clean:{cleaning_interval}")
        }
        SchemeKind::Proposed { cleaning_interval } => {
            format!("proposed:{cleaning_interval}")
        }
        SchemeKind::ProposedMulti {
            cleaning_interval,
            entries_per_set,
        } => format!("proposed_multi:{cleaning_interval}:{entries_per_set}"),
        SchemeKind::SilentWriteEcc { cleaning_interval } => {
            format!("silent:{cleaning_interval}")
        }
        SchemeKind::ReuseCopyback {
            cleaning_interval,
            multiplier,
        } => format!("reuse:{cleaning_interval}:{multiplier}"),
    }
}

/// Parses a [`scheme_slug`] back into a [`SchemeKind`].
#[must_use]
pub fn parse_scheme_slug(slug: &str) -> Option<SchemeKind> {
    let mut parts = slug.split(':');
    let head = parts.next()?;
    let kind = match head {
        "uniform" => SchemeKind::Uniform,
        "parity" => SchemeKind::ParityOnly,
        "uniform_clean" => SchemeKind::UniformWithCleaning {
            cleaning_interval: parts.next()?.parse().ok()?,
        },
        "proposed" => SchemeKind::Proposed {
            cleaning_interval: parts.next()?.parse().ok()?,
        },
        "proposed_multi" => SchemeKind::ProposedMulti {
            cleaning_interval: parts.next()?.parse().ok()?,
            entries_per_set: parts.next()?.parse().ok()?,
        },
        "silent" => SchemeKind::SilentWriteEcc {
            cleaning_interval: parts.next()?.parse().ok()?,
        },
        "reuse" => SchemeKind::ReuseCopyback {
            cleaning_interval: parts.next()?.parse().ok()?,
            multiplier: parts.next()?.parse().ok()?,
        },
        _ => return None,
    };
    if parts.next().is_some() {
        return None;
    }
    Some(kind)
}

/// Formats a cleaning interval the way the paper labels it (64K … 4M).
#[must_use]
pub fn human_interval(cycles: u64) -> String {
    if cycles.is_multiple_of(1024 * 1024) {
        format!("{}M", cycles / (1024 * 1024))
    } else if cycles.is_multiple_of(1024) {
        format!("{}K", cycles / 1024)
    } else {
        cycles.to_string()
    }
}

/// An action a scheme requires the memory system to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directive {
    /// Write back and clean the dirty line at (`set`, `way`): the proposed
    /// scheme evicted its ECC entry (an **ECC-WB** in Figure 8).
    ForceClean {
        /// Set index.
        set: usize,
        /// Way index.
        way: usize,
    },
}

/// Result of verifying (and recovering) one cache line against a scheme's
/// check storage after possible soft errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// No error was observed.
    Clean,
    /// Error(s) corrected in place using ECC.
    CorrectedByEcc {
        /// How many 64-bit words were repaired.
        words: usize,
    },
    /// A clean line failed parity and was refetched from main memory.
    RecoveredByRefetch,
    /// The error was detected but the data cannot be recovered
    /// (e.g. a double-bit error, or a dirty line under parity-only).
    Unrecoverable,
}

impl RecoveryOutcome {
    /// `true` when the line's data is now correct.
    #[must_use]
    pub fn is_recovered(&self) -> bool {
        !matches!(self, RecoveryOutcome::Unrecoverable)
    }
}

/// Check/encode operation counters for the energy model (see
/// [`crate::energy`]). Schemes accumulate these in `on_event`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// Parity verifications performed on reads.
    pub parity_checks: u64,
    /// SECDED verifications performed on reads.
    pub ecc_checks: u64,
    /// Parity encodes performed on fills/writes.
    pub parity_encodes: u64,
    /// SECDED encodes performed on fills/writes.
    pub ecc_encodes: u64,
}

impl EnergyCounters {
    /// Counter-wise difference `self - earlier` (measurement windows).
    #[must_use]
    pub fn since(&self, earlier: &EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            parity_checks: self.parity_checks - earlier.parity_checks,
            ecc_checks: self.ecc_checks - earlier.ecc_checks,
            parity_encodes: self.parity_encodes - earlier.parity_encodes,
            ecc_encodes: self.ecc_encodes - earlier.ecc_encodes,
        }
    }

    /// Total operations of any kind.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.parity_checks + self.ecc_checks + self.parity_encodes + self.ecc_encodes
    }

    /// Publishes every counter into the registry under the current scope.
    pub fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("parity_checks", self.parity_checks);
        reg.counter("ecc_checks", self.ecc_checks);
        reg.counter("parity_encodes", self.parity_encodes);
        reg.counter("ecc_encodes", self.ecc_encodes);
    }
}

/// A cache protection scheme attached to the L2.
///
/// The `Any` supertrait lets [`ProtectionScheme::clone_into_box`]
/// recognise a target that already holds a scheme of its own type.
pub trait ProtectionScheme: Any {
    /// Scheme name for reports.
    fn name(&self) -> &'static str;

    /// A boxed deep copy of this scheme's full state (check storage,
    /// counters). The seam that lets a warmed `System` be forked: the
    /// fault campaign warms one machine per worker and clones it per
    /// chunk instead of re-simulating the warm-up window.
    fn clone_box(&self) -> Box<dyn ProtectionScheme>;

    /// Makes `target` a deep copy of this scheme, as [`clone_box`] would,
    /// reusing `target`'s buffers when it already holds a scheme of this
    /// type. The fault campaign refreshes one scratch scheme this way
    /// before every strike resolution instead of allocating a clone.
    /// The default allocates through [`clone_box`].
    ///
    /// [`clone_box`]: ProtectionScheme::clone_box
    fn clone_into_box(&self, target: &mut Box<dyn ProtectionScheme>) {
        *target = self.clone_box();
    }

    /// The check-storage area this scheme requires (the paper's Table-less
    /// §5.2 accounting).
    fn area(&self) -> AreaReport;

    /// Observes one L2 event (fill/hit/evict/clean), updating check
    /// storage; any required actions are appended to `directives`.
    fn on_event(&mut self, event: &L2Event, l2: &Cache, directives: &mut Vec<Directive>);

    /// Verifies line (`set`, `way`) against the check storage, repairing
    /// the cached data when possible (ECC correction, or refetch from
    /// `memory` for clean lines).
    ///
    /// `was_dirty` is the line's dirty state *at the access being
    /// verified* — for a write hit the check storage still describes the
    /// pre-store image, whose dirty state may differ from the line's
    /// current bit, so the caller supplies it explicitly.
    fn verify_access(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        was_dirty: bool,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome;

    /// Verifies line (`set`, `way`) using the line's current dirty bit
    /// (the common read-time case).
    fn verify_line(
        &mut self,
        l2: &mut Cache,
        set: usize,
        way: usize,
        memory: &mut MainMemory,
    ) -> RecoveryOutcome {
        let was_dirty = l2.line_view(set, way).dirty;
        self.verify_access(l2, set, way, was_dirty, memory)
    }

    /// Verifies an outbound write-back image of line (`set`, `way`)
    /// against the check storage, repairing `data` in place when the
    /// scheme can (SECDED). Used at eviction/cleaning time, when the data
    /// is leaving for memory rather than being re-read: detection-only
    /// schemes report [`RecoveryOutcome::Unrecoverable`] (a dirty line
    /// cannot be refetched).
    fn verify_writeback(&mut self, set: usize, way: usize, data: &mut [u64]) -> RecoveryOutcome;

    /// Number of dirty lines whose ECC the scheme currently stores
    /// (diagnostics; the proposed scheme's occupancy is bounded by the set
    /// count).
    fn protected_dirty_lines(&self) -> usize;

    /// Whether the dirty line at (`set`, `way`) can survive a single-bit
    /// upset: it is covered by a live **or retiring** ECC entry (or by
    /// uniform SECDED). The differential checker evaluates this after
    /// every event — a dirty line answering `false` under an
    /// ECC-correcting scheme is exactly the "displaced entry dropped
    /// before its forced write-back" bug class PR 2 fixed. Detection-only
    /// schemes keep the default `true` (an uncovered dirty line is their
    /// *design*, not a protocol violation).
    fn dirty_line_covered(&self, set: usize, way: usize) -> bool {
        let _ = (set, way);
        true
    }

    /// Walks the scheme's internal bookkeeping against the cache's ground
    /// truth and reports the first broken invariant as a human-readable
    /// message, or `None` when everything is consistent. Called by the
    /// invariant checker at cadence points where the event queue has
    /// settled (no directives pending). The default has no internal state
    /// to check.
    fn find_protocol_violation(&self, l2: &Cache) -> Option<String> {
        let _ = l2;
        None
    }

    /// Check/encode operation counts accumulated so far (drives the
    /// energy model; the default is all-zero for schemes that do not
    /// track them).
    fn energy_counters(&self) -> EnergyCounters {
        EnergyCounters::default()
    }

    /// Publishes this scheme's statistics into the registry under the
    /// current scope. The default covers what every scheme has — energy
    /// counters and the protected-dirty-line census; schemes with richer
    /// state (the proposed ECC-array variants) extend it.
    fn register_stats(&self, reg: &mut aep_obs::Registry) {
        reg.counter("protected_dirty_lines", self.protected_dirty_lines() as u64);
        reg.scoped("energy", |r| self.energy_counters().register_stats(r));
    }
}

/// Overwrites line (`set`, `way`), which holds `line`, with its image in
/// `memory`: the clean-line refetch of the parity-checked schemes, whose
/// lines hold at most [`InterleavedParity::MAX_WORDS`] words.
pub(crate) fn refetch_line(
    l2: &mut Cache,
    set: usize,
    way: usize,
    line: LineAddr,
    memory: &mut MainMemory,
) {
    let mut fresh = [0; InterleavedParity::MAX_WORDS];
    let words = l2
        .line_data(set, way)
        .expect("refetched lines hold data")
        .len();
    let fresh = &mut fresh[..words];
    memory.read_line_into(line, fresh);
    for (i, &w) in fresh.iter().enumerate() {
        l2.write_word(set, way, i, w);
    }
}

/// The body of a [`ProtectionScheme::clone_into_box`] override: when
/// `target` holds a `T`, `copy(target, source)` overwrites it in place
/// (field-wise, reusing its buffers); otherwise `target` becomes a
/// fresh clone.
pub(crate) fn clone_into_box_with<T: ProtectionScheme + Clone>(
    source: &T,
    target: &mut Box<dyn ProtectionScheme>,
    copy: impl FnOnce(&mut T, &T),
) {
    let any: &mut dyn Any = target.as_mut();
    match any.downcast_mut::<T>() {
        Some(dst) => copy(dst, source),
        None => *target = Box::new(source.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_labels_match_the_paper() {
        assert_eq!(human_interval(64 * 1024), "64K");
        assert_eq!(human_interval(256 * 1024), "256K");
        assert_eq!(human_interval(1024 * 1024), "1M");
        assert_eq!(human_interval(4 * 1024 * 1024), "4M");
        assert_eq!(human_interval(1000), "1000");
    }

    #[test]
    fn scheme_kind_intervals() {
        assert_eq!(SchemeKind::Uniform.cleaning_interval(), None);
        assert_eq!(
            SchemeKind::Proposed {
                cleaning_interval: 7
            }
            .cleaning_interval(),
            Some(7)
        );
        assert_eq!(
            SchemeKind::UniformWithCleaning {
                cleaning_interval: 9
            }
            .cleaning_interval(),
            Some(9)
        );
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(SchemeKind::Uniform.label(), "org");
        assert_eq!(
            SchemeKind::Proposed {
                cleaning_interval: 1024 * 1024
            }
            .label(),
            "proposed@1M"
        );
        assert_eq!(
            SchemeKind::UniformWithCleaning {
                cleaning_interval: 64 * 1024
            }
            .label(),
            "org+clean@64K"
        );
        assert_eq!(
            SchemeKind::SilentWriteEcc {
                cleaning_interval: 1024 * 1024
            }
            .label(),
            "silent-ecc@1M"
        );
        assert_eq!(
            SchemeKind::ReuseCopyback {
                cleaning_interval: 1024 * 1024,
                multiplier: 4
            }
            .label(),
            "reuse-cb4x@1M"
        );
    }

    #[test]
    fn challenger_slugs_roundtrip() {
        for kind in [
            SchemeKind::SilentWriteEcc {
                cleaning_interval: 1024 * 1024,
            },
            SchemeKind::ReuseCopyback {
                cleaning_interval: 64 * 1024,
                multiplier: 8,
            },
        ] {
            assert_eq!(parse_scheme_slug(&scheme_slug(kind)), Some(kind));
        }
        assert_eq!(parse_scheme_slug("silent"), None);
        assert_eq!(parse_scheme_slug("reuse:1024"), None);
        assert_eq!(parse_scheme_slug("reuse:1024:4:9"), None);
        assert_eq!(
            SchemeKind::SilentWriteEcc {
                cleaning_interval: 7
            }
            .cleaning_interval(),
            Some(7)
        );
        assert_eq!(
            SchemeKind::ReuseCopyback {
                cleaning_interval: 11,
                multiplier: 2
            }
            .cleaning_interval(),
            Some(11)
        );
    }

    #[test]
    fn recovery_outcome_predicate() {
        assert!(RecoveryOutcome::Clean.is_recovered());
        assert!(RecoveryOutcome::CorrectedByEcc { words: 1 }.is_recovered());
        assert!(RecoveryOutcome::RecoveredByRefetch.is_recovered());
        assert!(!RecoveryOutcome::Unrecoverable.is_recovered());
    }
}
