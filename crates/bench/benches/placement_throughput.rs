//! Head-to-head micro-benchmark of the placement hot path: the
//! seed-equivalent allocating OptChain implementation vs the optimized
//! zero-allocation `place_into` path, across shard counts. The
//! `perf_baseline` binary runs the same comparison at 1M-tx scale and
//! records it to `BENCH_placement.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optchain_bench::naive::NaiveOptChainPlacer;
use optchain_core::replay::replay;
use optchain_core::OptChainPlacer;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

fn placement_throughput(c: &mut Criterion) {
    let n = 20_000usize;
    let txs: Vec<_> = WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(1))
        .take(n)
        .collect();
    let mut group = c.benchmark_group("placement_throughput");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    for k in [4u32, 16, 64] {
        group.bench_with_input(BenchmarkId::new("optimized", k), &k, |b, &k| {
            b.iter(|| replay(&txs, &mut OptChainPlacer::new(k)))
        });
        group.bench_with_input(BenchmarkId::new("naive", k), &k, |b, &k| {
            b.iter(|| replay(&txs, &mut NaiveOptChainPlacer::new(k)))
        });
    }
    group.finish();
}

criterion_group!(benches, placement_throughput);
criterion_main!(benches);
