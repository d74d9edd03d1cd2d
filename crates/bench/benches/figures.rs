//! One Criterion bench per table/figure of the paper.
//!
//! Each bench computes one row of an `exp all` figure declaration at
//! smoke scale: its first row's planned runs, or the closed-form
//! printout (the full 14-benchmark, paper-scale tables are produced by
//! the `exp` binary; these benches track the *cost* of regenerating each
//! figure and act as performance regression guards for the simulator).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use aep_bench::experiments::{figures, Source};
use aep_bench::Scale;
use aep_sim::Runner;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    for fig in figures().into_iter().filter(|f| f.in_all) {
        group.bench_function(fig.slug, |b| match &fig.source {
            Source::Planned(_, plan, _) => {
                let row = plan(Scale::Smoke).swap_remove(0);
                b.iter(|| {
                    for cfg in &row.configs {
                        black_box(Runner::new(black_box(cfg.clone())).run());
                    }
                });
            }
            Source::Printed(text) => b.iter(|| black_box(text())),
            Source::Direct(_, rows) => b.iter(|| black_box(rows(Scale::Smoke))),
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
