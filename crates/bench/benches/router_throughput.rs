//! Micro-benchmark proving the owned `Router` API adds no measurable
//! overhead over the borrow-style hot path: the same stream is placed
//! through a hand-driven `place_into` loop (caller owns graph + buffers,
//! static telemetry), through `Router::submit_batch`, through one-at-a-
//! time `Router::submit_tx`, and through a `PlacementSession`. The
//! `perf_baseline` binary runs the batch comparison at 1M-tx scale and
//! gates on it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use optchain_core::{
    DecisionBuf, OptChainPlacer, PlacementContext, Router, ShardId, DEFAULT_TELEMETRY,
};
use optchain_tan::TanGraph;
use optchain_workload::{WorkloadConfig, WorkloadGenerator};

fn router_throughput(c: &mut Criterion) {
    let n = 20_000usize;
    let txs: Vec<_> = WorkloadGenerator::new(WorkloadConfig::bitcoin_like().with_seed(1))
        .take(n)
        .collect();
    let mut group = c.benchmark_group("router_throughput");
    group.throughput(Throughput::Elements(n as u64));
    group.sample_size(10);
    for k in [4u32, 16, 64] {
        group.bench_with_input(BenchmarkId::new("direct_place_into", k), &k, |b, &k| {
            let telemetry = vec![DEFAULT_TELEMETRY; k as usize];
            b.iter(|| {
                let mut tan = TanGraph::new();
                let mut placer = OptChainPlacer::new(k);
                let mut buf = DecisionBuf::new();
                for tx in &txs {
                    let node = tan.insert_tx(tx);
                    let ctx = PlacementContext::with_epoch(&tan, &telemetry, 0);
                    placer.place_into(&ctx, node, &mut buf);
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("router_submit_batch", k), &k, |b, &k| {
            let mut out: Vec<ShardId> = Vec::new();
            b.iter(|| {
                let mut router = Router::builder().shards(k).build();
                router.submit_batch(&txs, &mut out);
            })
        });
        group.bench_with_input(BenchmarkId::new("router_submit_tx", k), &k, |b, &k| {
            b.iter(|| {
                let mut router = Router::builder().shards(k).build();
                for tx in &txs {
                    router.submit_tx(tx).unwrap();
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("router_session", k), &k, |b, &k| {
            b.iter(|| {
                let mut router = Router::builder().shards(k).build();
                let mut session = router.session();
                for tx in &txs {
                    router.submit_tx_in(&mut session, tx).unwrap();
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, router_throughput);
criterion_main!(benches);
