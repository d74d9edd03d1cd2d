//! The traced-run decorators must not perturb the simulation: a traced
//! system's `register_stats` snapshot and window statistics are
//! byte-identical to an untraced system's on the same config.

use aep_bench::experiments::proposed;
use aep_core::SchemeKind;
use aep_perfbench::stats_digest;
use aep_perfbench::trace::{build_traced, run_window, snapshot_json, SpanCell};
use aep_sim::{ExperimentConfig, Runner};
use aep_workloads::Benchmark;

fn configs() -> Vec<ExperimentConfig> {
    vec![
        // ECC-entry evictions send directives through the wrapped scheme.
        ExperimentConfig::fast_test(Benchmark::Gap, proposed()),
        // Scrubbing drives the verify paths through the wrapped scheme.
        ExperimentConfig {
            scrub_period: Some(1024),
            ..ExperimentConfig::fast_test(Benchmark::Mcf, SchemeKind::Uniform)
        },
    ]
}

#[test]
fn traced_snapshot_is_byte_identical_to_untraced() {
    for cfg in configs() {
        let mut plain = Runner::new(cfg.clone()).into_system();
        let plain_stats = run_window(&mut plain, &cfg, None);
        let spans = SpanCell::default();
        let mut traced = build_traced(&cfg, &spans);
        let traced_stats = run_window(&mut traced, &cfg, Some(&spans));

        let label = cfg.scheme.label();
        assert_eq!(snapshot_json(&plain), snapshot_json(&traced), "{label}");
        assert_eq!(
            stats_digest(&plain_stats),
            stats_digest(&traced_stats),
            "{label}"
        );
        assert_eq!(
            stats_digest(&Runner::new(cfg.clone()).run()),
            stats_digest(&traced_stats),
            "{label}: the traced window must match the runner's"
        );

        let s = *spans.borrow();
        assert!(s.stream_calls > 0 && s.on_event_calls > 0, "{label}: {s:?}");
        assert_eq!(
            s.events, s.on_event_calls,
            "{label}: one scheme call per event"
        );
        assert!(
            s.stepped > 0 && s.stepped < s.cycles,
            "{label}: the counting observer must leave fast-forward on ({s:?})"
        );
        if cfg.scrub_period.is_some() {
            assert!(s.verify_calls > 0, "{label}: scrubbing verifies lines");
        } else {
            assert!(
                s.directives > 0,
                "{label}: the proposed scheme force-cleans"
            );
        }
    }
}

#[test]
fn forks_of_a_traced_system_replay_like_untraced_forks() {
    let cfg = configs().remove(0);
    let mut plain = Runner::new(cfg.clone()).into_system();
    let spans = SpanCell::default();
    let mut traced = build_traced(&cfg, &spans);
    let now = plain.run(0, cfg.warmup_cycles);
    traced.run(0, cfg.warmup_cycles);

    let mut plain_fork = plain.fork();
    let mut traced_fork = traced.fork();
    plain_fork.run(now, cfg.measure_cycles);
    traced_fork.run(now, cfg.measure_cycles);
    assert_eq!(snapshot_json(&plain_fork), snapshot_json(&traced_fork));
    assert_eq!(snapshot_json(&plain), snapshot_json(&traced));
}
