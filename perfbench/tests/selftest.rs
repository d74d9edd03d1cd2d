//! Negative self-tests: the benchmark's own comparison must flag a seeded
//! perturbation, and a corrupted reference digest must surface as a
//! failed operation.

use aep_perfbench::faults::{Faults, REFERENCE, SEEDS};
use aep_perfbench::reference::Reference;
use aep_perfbench::summary::{
    bounds_from_benchmark_json, compare, Better, Finding, Metric, ResultLine, Summary,
};
use aep_perfbench::Tally;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn result(wall_s: f64, setup_s: f64, failed: u64) -> ResultLine {
    let metric = |name: &str, value: f64| Metric {
        name: name.into(),
        unit: "s".into(),
        value,
    };
    ResultLine {
        correct: failed == 0,
        attempted: 100,
        failed,
        metrics: vec![metric("wall_s", wall_s), metric("setup_s", setup_s)],
    }
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    let single = Summary::of(&[3.0]);
    assert_eq!((single.q1, single.median, single.q3), (3.0, 3.0, 3.0));
}

#[test]
fn result_lines_round_trip() {
    let mut line = result(1.234_567_891_234, 0.5, 0);
    let parsed = ResultLine::parse(&line.to_json()).unwrap();
    // The parser returns metrics in name order.
    line.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(parsed, line);
}

#[test]
fn a_metric_worsened_past_its_bound_is_a_regression() {
    let bounds = bounds_from_benchmark_json(BENCHMARK_JSON).unwrap();
    assert!(bounds.contains_key("wall_s") && bounds.contains_key("setup_s"));
    let base = result(2.0, 1.0, 0);
    for (name, bound) in &bounds {
        let worsened = |share: f64| {
            let factor = match bound.better {
                Better::Lower => 1.0 + share,
                Better::Higher => 1.0 - share,
            };
            let mut line = base.clone();
            for m in &mut line.metrics {
                if &m.name == name {
                    m.value *= factor;
                }
            }
            line
        };
        assert!(
            compare(&base, &worsened(bound.bound * 0.5), &bounds).is_empty(),
            "{name}: half its bound is not a regression"
        );
        let findings = compare(&base, &worsened(bound.bound * 1.5), &bounds);
        assert!(
            matches!(findings.as_slice(), [Finding::Regression { metric, .. }] if metric == name),
            "{name}: 1.5x its bound must be flagged, got {findings:?}"
        );
    }
}

#[test]
fn failed_operations_and_missing_metrics_are_findings() {
    let bounds = bounds_from_benchmark_json(BENCHMARK_JSON).unwrap();
    let base = result(2.0, 1.0, 0);
    assert_eq!(
        compare(&base, &result(2.0, 1.0, 3), &bounds),
        vec![Finding::Incorrect { failed: 3 }]
    );
    let mut missing = base.clone();
    missing.metrics.retain(|m| m.name != "wall_s");
    assert!(compare(&base, &missing, &bounds).contains(&Finding::Missing("wall_s".into())));
}

#[test]
fn the_faults_reference_tells_every_campaign_apart() {
    let mut digests: Vec<&str> = REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| l.rsplit(' ').next().unwrap())
        .collect();
    let campaigns = digests.len();
    assert_eq!(campaigns, SEEDS.len() * 5, "one line per seed and model");
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), campaigns, "two campaigns share a digest");
}

#[test]
fn a_corrupted_reference_digest_is_a_failure() {
    let target = format!("{} single ", SEEDS[0]);
    let corrupted: String = REFERENCE
        .lines()
        .map(|line| match line.strip_prefix(&target) {
            Some(digest) => {
                let d = u64::from_str_radix(digest, 16).unwrap() ^ 1;
                Reference::line(SEEDS[0], "single", d)
            }
            None => format!("{line}\n"),
        })
        .collect();
    assert_ne!(corrupted, REFERENCE);

    let mut honest = Tally::default();
    let _ = Faults::with_reference(0, &Reference::parse(REFERENCE).unwrap(), &mut honest);
    assert!(honest.attempted > 0);
    assert_eq!(honest.failed, 0, "the shipped reference matches the code");

    let mut tally = Tally::default();
    let _ = Faults::with_reference(0, &Reference::parse(&corrupted).unwrap(), &mut tally);
    assert_eq!(tally.failed, 1, "exactly the corrupted campaign fails");

    let bounds = bounds_from_benchmark_json(BENCHMARK_JSON).unwrap();
    let head = ResultLine {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        ..result(2.0, 1.0, 0)
    };
    assert_eq!(
        compare(&result(2.0, 1.0, 0), &head, &bounds),
        vec![Finding::Incorrect { failed: 1 }]
    );
}
