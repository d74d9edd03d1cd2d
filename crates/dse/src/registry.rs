//! The shared scheme/axis registry.
//!
//! One place declares the scheme sets the repo sweeps, and both consumers
//! draw from it: the figure pipeline in `aep-bench` (Figures 3–6 are the
//! interval sweep; `perf`/`reliability`/`energy` are the org-vs-proposed
//! comparison; `ablation` is the line-up) and the explorer (the same sets
//! are its default axes). The paper's figures are therefore just *named
//! points* of the design space — see [`interval_sweep_space`], which
//! reconstructs the Figures 3–6 plan as a one-axis special case of the
//! grid.

use aep_core::SchemeKind;
use aep_workloads::calibration::{CHOSEN_INTERVAL, CLEANING_INTERVALS};
use aep_workloads::Workload;

use crate::space::{expand_schemes, SchemeTemplate, Space};

/// The proposed configuration the paper settles on (§5.2): cleaning at
/// the calibrated 1 M-cycle interval plus the shared per-set ECC array.
#[must_use]
pub fn proposed() -> SchemeKind {
    SchemeKind::Proposed {
        cleaning_interval: CHOSEN_INTERVAL,
    }
}

/// The paper's cleaning-interval axis (64 K … 4 M cycles).
#[must_use]
pub fn interval_axis() -> Vec<u64> {
    CLEANING_INTERVALS.to_vec()
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

/// The challenger scheme set (the [`challengers_lineup`] without labels).
#[must_use]
pub fn challengers_schemes() -> Vec<SchemeKind> {
    challengers_lineup().into_iter().map(|(_, k)| k).collect()
}

/// The fault-campaign scheme set extended with the challengers: the
/// incumbents of [`faults_schemes`] followed by the related-work line-up,
/// so challenger DUE/SDC columns land next to the schemes they contest.
/// Every registered scheme family appears once, so this is also the set
/// `aep-check`'s lockstep leg and conformance battery certify.
#[must_use]
pub fn challengers_faults_schemes() -> Vec<SchemeKind> {
    let mut schemes = faults_schemes();
    schemes.extend(challengers_schemes());
    schemes
}

/// The challenger scheme-template axis: the incumbents' templates plus
/// the two related-work templates (reuse at 2x and 4x thresholds), for
/// `exp explore` runs that ask whether either challenger joins the
/// frontier. Distinct from [`default_templates`], which stays pinned to
/// the paper's own line-up.
#[must_use]
pub fn challenger_templates() -> Vec<SchemeTemplate> {
    let mut templates = default_templates();
    templates.push(SchemeTemplate::SilentWrite);
    templates.push(SchemeTemplate::ReuseCopyback { multiplier: 2 });
    templates.push(SchemeTemplate::ReuseCopyback { multiplier: 4 });
    templates
}

/// The challenger exploration space: the given benchmarks crossed with
/// the incumbent-plus-challenger templates over the paper's interval
/// axis.
#[must_use]
pub fn challenger_space(benchmarks: &[Workload]) -> Space {
    Space::grid(
        benchmarks,
        &expand_schemes(&challenger_templates(), &interval_axis()),
        &[],
        &[],
    )
}

/// The canonical diversity-workload set: one representative per new
/// generator family (Zipf skew, adversarial, trace replay), at knobs
/// chosen to stress mechanisms the 14 calibrated benchmarks never reach.
/// `exp workloads report` proves the reach claim; the slugs here are the
/// spellings `--bench` accepts everywhere.
#[must_use]
pub fn diversity_workloads() -> Vec<Workload> {
    [
        // Zipf head so hot one line absorbs hundreds of rewrites.
        "zipf:k1024:e1200:c4",
        // Flat-ish Zipf over a larger key space with wide concurrency.
        "zipf:k4096:e800:c16",
        // More conflicting lines than ways: sustained ECC-entry churn.
        "storm:12",
        // Write-once streaming flood, no reuse.
        "flood:4096",
        // Working set flips between two phases; dirty data goes stale.
        "phase:96:3072",
        // Committed trace corpus recordings of the same two stressors.
        "trace:storm_burst",
        "trace:mixed_phases",
    ]
    .iter()
    .map(|slug| Workload::parse(slug).expect("registry slugs parse"))
    .collect()
}

/// The explorer's default scheme-template axis: the baseline, the
/// strawman, the cleaning-only midpoint, and the proposal.
#[must_use]
pub fn default_templates() -> Vec<SchemeTemplate> {
    vec![
        SchemeTemplate::Uniform,
        SchemeTemplate::ParityOnly,
        SchemeTemplate::UniformClean,
        SchemeTemplate::Proposed,
    ]
}

/// The Figures 3–6 interval sweep as a one-axis special case of the
/// design space: `benchmarks × (cleaning interval ∪ org)` at default
/// scrub and geometry.
#[must_use]
pub fn interval_sweep_space(benchmarks: &[Workload]) -> Space {
    Space::grid(benchmarks, &interval_sweep_schemes(), &[], &[])
}

/// The explorer's default space: the paper's benchmarks crossed with the
/// default templates over the paper's interval axis.
#[must_use]
pub fn default_space(benchmarks: &[Workload]) -> Space {
    Space::grid(
        benchmarks,
        &expand_schemes(&default_templates(), &interval_axis()),
        &[],
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aep_workloads::Benchmark;

    #[test]
    fn interval_sweep_space_matches_scheme_list() {
        let space = interval_sweep_space(&[Benchmark::Gzip.into()]);
        let schemes: Vec<SchemeKind> = space.points().iter().map(|p| p.scheme).collect();
        assert_eq!(schemes, interval_sweep_schemes());
    }

    #[test]
    fn default_space_contains_the_paper_operating_point() {
        let space = default_space(&[Benchmark::Gap.into()]);
        assert!(space.points().iter().any(|p| p.scheme == proposed()));
        // uniform and parity appear once each despite the interval axis.
        let uniforms = space
            .points()
            .iter()
            .filter(|p| p.scheme == SchemeKind::Uniform)
            .count();
        assert_eq!(uniforms, 1);
        space.validate().expect("registry space validates");
    }

    #[test]
    fn chosen_interval_is_on_the_interval_axis() {
        assert!(interval_axis().contains(&CHOSEN_INTERVAL));
    }

    #[test]
    fn challengers_ride_alongside_the_pinned_lineups() {
        // The pinned figure columns must not change.
        assert_eq!(default_templates().len(), 4);
        assert_eq!(ablation_lineup().len(), 4);
        assert_eq!(faults_schemes().len(), 5);

        let lineup = challengers_lineup();
        assert_eq!(lineup.len(), 2);
        for (label, kind) in &lineup {
            assert_eq!(*label, kind.label());
        }
        assert_eq!(
            challengers_faults_schemes().len(),
            faults_schemes().len() + 2
        );

        let space = challenger_space(&[Benchmark::Gap.into()]);
        space.validate().expect("challenger space validates");
        assert!(space.points().iter().any(|p| matches!(
            p.scheme,
            SchemeKind::SilentWriteEcc {
                cleaning_interval: CHOSEN_INTERVAL
            }
        )));
        assert!(space
            .points()
            .iter()
            .any(|p| matches!(p.scheme, SchemeKind::ReuseCopyback { multiplier: 2, .. })));
        // The incumbents are still in the field the challengers contest.
        assert!(space.points().iter().any(|p| p.scheme == proposed()));
    }
}
