//! The named scheme line-ups the repo sweeps, declared once beside
//! [`SchemeKind`].
//!
//! The paper's figures are comparisons of these sets: the cleaning
//! interval sweep of Figures 3–6, the org-vs-proposed pair of Figures
//! 7–8, and the labeled ablation line-up. The related-work challengers
//! ride alongside them. Every consumer — the figure pipeline, the fault
//! campaigns, the explorer's default axes and `aep-check`'s lockstep leg
//! and conformance battery — draws its schemes from here.

use crate::SchemeKind;

/// The cleaning intervals the paper sweeps (processor cycles).
pub const CLEANING_INTERVALS: [u64; 4] = [64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024];

/// The interval the paper selects for its final configuration (§5.2).
pub const CHOSEN_INTERVAL: u64 = 1024 * 1024;

/// The proposed configuration the paper settles on (§5.2): cleaning at
/// the calibrated 1 M-cycle interval plus the shared per-set ECC array.
#[must_use]
pub fn proposed() -> SchemeKind {
    SchemeKind::Proposed {
        cleaning_interval: CHOSEN_INTERVAL,
    }
}

/// The interval-sweep scheme set of Figures 3–6: every cleaning interval
/// plus the uncleaned `org` reference.
#[must_use]
pub fn interval_sweep_schemes() -> Vec<SchemeKind> {
    let mut schemes: Vec<SchemeKind> = CLEANING_INTERVALS
        .iter()
        .map(|&cleaning_interval| SchemeKind::UniformWithCleaning { cleaning_interval })
        .collect();
    schemes.push(SchemeKind::Uniform);
    schemes
}

/// The org-vs-proposed pair behind the `perf`, `reliability`, and
/// `energy` tables.
#[must_use]
pub fn comparison_schemes() -> Vec<SchemeKind> {
    vec![SchemeKind::Uniform, proposed()]
}

/// The labeled ablation line-up: org, cleaning-only, proposed, and the
/// two-entry extension, all at the chosen interval. The single source the
/// figure pipeline's column labels and the fault campaign's scheme set
/// both derive from.
#[must_use]
pub fn ablation_lineup() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("org", SchemeKind::Uniform),
        (
            "org+clean@1M",
            SchemeKind::UniformWithCleaning {
                cleaning_interval: CHOSEN_INTERVAL,
            },
        ),
        ("proposed@1M", proposed()),
        (
            "proposed2e@1M",
            SchemeKind::ProposedMulti {
                cleaning_interval: CHOSEN_INTERVAL,
                entries_per_set: 2,
            },
        ),
    ]
}

/// The ablation scheme set (the [`ablation_lineup`] without its labels).
#[must_use]
pub fn ablation_schemes() -> Vec<SchemeKind> {
    ablation_lineup().into_iter().map(|(_, k)| k).collect()
}

/// The fault-campaign scheme set: the ablation line-up plus parity-only
/// (which the static figures omit but the reliability comparison needs).
#[must_use]
pub fn faults_schemes() -> Vec<SchemeKind> {
    let mut schemes = ablation_schemes();
    schemes.insert(2, SchemeKind::ParityOnly);
    schemes
}

/// The related-work challenger line-up at the chosen interval: the
/// silent-store-aware ECC variant (Kishani et al., arXiv:2112.12667) and
/// reuse-predicted early copy-back (Wang et al., arXiv:2105.14442).
/// Kept separate from [`ablation_lineup`] so the paper's pinned figure
/// columns stay byte-stable; consumers that want the full field append
/// this to the incumbents.
#[must_use]
pub fn challengers_lineup() -> Vec<(&'static str, SchemeKind)> {
    vec![
        (
            "silent-ecc@1M",
            SchemeKind::SilentWriteEcc {
                cleaning_interval: CHOSEN_INTERVAL,
            },
        ),
        (
            "reuse-cb4x@1M",
            SchemeKind::ReuseCopyback {
                cleaning_interval: CHOSEN_INTERVAL,
                multiplier: 4,
            },
        ),
    ]
}

/// The fault-campaign scheme set extended with the challengers: the
/// incumbents of [`faults_schemes`] followed by the [`challengers_lineup`],
/// so challenger DUE/SDC columns land next to the schemes they contest.
/// Every registered scheme family appears once, so this is also the set
/// `aep-check`'s lockstep leg and conformance battery certify.
#[must_use]
pub fn challengers_faults_schemes() -> Vec<SchemeKind> {
    let mut schemes = faults_schemes();
    schemes.extend(challengers_lineup().into_iter().map(|(_, k)| k));
    schemes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_quadruple() {
        for w in CLEANING_INTERVALS.windows(2) {
            assert_eq!(w[1], w[0] * 4);
        }
        assert!(CLEANING_INTERVALS.contains(&CHOSEN_INTERVAL));
    }

    #[test]
    fn every_scheme_kind_is_registered() {
        // One family per `SchemeKind` variant. The match has no wildcard,
        // so a new variant does not compile until it gets the next family
        // number (and `FAMILIES` grows); then this test fails until the
        // line-up, and with it the lockstep leg and the conformance
        // battery, registers it.
        const FAMILIES: usize = 7;
        let family = |kind: SchemeKind| match kind {
            SchemeKind::Uniform => 0,
            SchemeKind::UniformWithCleaning { .. } => 1,
            SchemeKind::ParityOnly => 2,
            SchemeKind::Proposed { .. } => 3,
            SchemeKind::ProposedMulti { .. } => 4,
            SchemeKind::SilentWriteEcc { .. } => 5,
            SchemeKind::ReuseCopyback { .. } => 6,
        };
        let mut seen = [false; FAMILIES];
        for kind in challengers_faults_schemes() {
            seen[family(kind)] = true;
        }
        assert_eq!(
            seen, [true; FAMILIES],
            "a scheme family is missing from challengers_faults_schemes()"
        );
    }
}
