//! The explorer's axes: scheme templates, the interval axis and the
//! named spaces built from them.
//!
//! The scheme line-ups the figures compare live beside `SchemeKind` in
//! `aep_core::lineup`, and the diversity workloads in `aep-workloads`;
//! this module only lifts them into design-space axes. The paper's
//! figures are therefore just *named points* of the design space — see
//! [`interval_sweep_space`], which reconstructs the Figures 3–6 plan as a
//! one-axis special case of the grid.

use aep_core::lineup::{interval_sweep_schemes, CLEANING_INTERVALS};
use aep_workloads::Workload;

use crate::space::{expand_schemes, SchemeTemplate, Space};

/// The paper's cleaning-interval axis (64 K … 4 M cycles).
#[must_use]
pub fn interval_axis() -> Vec<u64> {
    CLEANING_INTERVALS.to_vec()
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
    use aep_core::lineup::{
        ablation_lineup, challengers_faults_schemes, challengers_lineup, faults_schemes, proposed,
        CHOSEN_INTERVAL,
    };
    use aep_core::SchemeKind;
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
