//! Microbenchmarks of the simulator substrates: coding circuits, cache
//! operations, branch prediction, workload generation, and whole-system
//! cycle throughput. These bound how fast the figure harness can run and
//! guard against performance regressions in the hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use aep_core::SchemeKind;
use aep_cpu::isa::InstrStream;
use aep_cpu::{BranchPredictor, CoreConfig};
use aep_ecc::parity::InterleavedParity;
use aep_ecc::Secded64;
use aep_mem::cache::{AccessKind, Cache};
use aep_mem::write_buffer::WriteBuffer;
use aep_mem::{CacheConfig, HierarchyConfig, LineAddr};
use aep_sim::System;
use aep_workloads::Benchmark;

fn bench_ecc(c: &mut Criterion) {
    let mut group = c.benchmark_group("ecc");
    let code = Secded64::new();
    group.throughput(Throughput::Bytes(8));
    group.bench_function("secded_encode", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            black_box(code.encode(black_box(x)))
        });
    });
    group.bench_function("secded_decode_clean", |b| {
        let data = 0xDEAD_BEEF_CAFE_F00Du64;
        let check = code.encode(data);
        b.iter(|| black_box(code.decode(black_box(data), black_box(check))));
    });
    group.bench_function("secded_decode_corrupted", |b| {
        let data = 0xDEAD_BEEF_CAFE_F00Du64;
        let check = code.encode(data);
        b.iter(|| black_box(code.decode(black_box(data ^ 2), black_box(check))));
    });
    group.throughput(Throughput::Bytes(64));
    group.bench_function("interleaved_parity_line", |b| {
        let line = [0x0123_4567_89AB_CDEFu64; 8];
        b.iter(|| black_box(InterleavedParity::encode(black_box(&line))));
    });
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.bench_function("l2_lookup_hit", |b| {
        let mut cache = Cache::new(CacheConfig::date2006_l2());
        cache.install(LineAddr(1), false, 0, Some(&[0; 8]));
        let mut now = 0;
        b.iter(|| {
            now += 1;
            black_box(cache.lookup(black_box(LineAddr(1)), AccessKind::Read, now))
        });
    });
    group.bench_function("l2_miss_install_evict", |b| {
        let mut cache = Cache::new(CacheConfig::date2006_l2());
        let mut line = 0u64;
        let mut now = 0;
        b.iter(|| {
            line += 4096; // same set every time: constant eviction pressure
            now += 1;
            cache.lookup(LineAddr(line), AccessKind::Read, now);
            black_box(cache.install(LineAddr(line), false, now, Some(&[0; 8])))
        });
    });
    group.bench_function("write_buffer_push_pop", |b| {
        let mut wb = WriteBuffer::new(16, 8);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            wb.push(LineAddr(i % 24), (i % 8) as usize, i, i);
            if wb.is_full() {
                black_box(wb.pop());
            }
        });
    });
    group.finish();
}

fn bench_bpred(c: &mut Criterion) {
    c.bench_function("bpred_predict_update", |b| {
        let mut bp = BranchPredictor::new(aep_cpu::bpred::BpredConfig::date2006());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let pc = (i % 512) * 64 + 56;
            let p = bp.predict(pc);
            black_box(bp.update(pc, !i.is_multiple_of(7), pc ^ 0x40, p))
        });
    });
}

fn bench_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("workloads");
    group.throughput(Throughput::Elements(1));
    for benchmark in [Benchmark::Gap, Benchmark::Applu, Benchmark::Mcf] {
        group.bench_function(format!("generate_{benchmark}"), |b| {
            let mut gen = benchmark.generator(1);
            b.iter(|| black_box(gen.next_op()));
        });
    }
    group.finish();
}

fn bench_system(c: &mut Criterion) {
    let mut group = c.benchmark_group("system");
    group.throughput(Throughput::Elements(1_000));
    group.sample_size(20);
    for (name, scheme) in [
        ("org", SchemeKind::Uniform),
        (
            "proposed",
            SchemeKind::Proposed {
                cleaning_interval: 64 * 1024,
            },
        ),
    ] {
        group.bench_function(format!("cycles_1k_{name}"), |b| {
            let mut sys = System::new(
                CoreConfig::date2006(),
                HierarchyConfig::date2006(),
                scheme,
                Benchmark::Vpr.generator(3),
            );
            let mut now = sys.run(0, 50_000); // warm
            b.iter(|| {
                now = sys.run(now, 1_000);
                black_box(now)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ecc,
    bench_cache,
    bench_bpred,
    bench_workloads,
    bench_system
);
criterion_main!(benches);
