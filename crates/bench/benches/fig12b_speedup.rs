//! Criterion bench for Fig. 12(b): trace replay latency, sequential vs
//! bank-interleaved layouts (the multi-bank burst effect). Same-row runs
//! replay in closed form — identical latency numbers to stepping every
//! access (see `crates/dram/tests/replay_oracle.rs`), at a fraction of
//! the simulation cost.
use criterion::{criterion_group, criterion_main, Criterion};
use sparkxd_dram::{CompressedTrace, DramConfig, DramModel};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12b_speedup");
    g.sample_size(10).measurement_time(Duration::from_secs(4));
    let config = DramConfig::lpddr3_1600_4gb();
    let seq = CompressedTrace::sequential_reads(&config.geometry, 65_536);
    let inter = CompressedTrace::interleaved_reads(&config.geometry, 65_536);
    g.bench_function("replay_sequential_64k", |b| {
        b.iter(|| DramModel::new(config.clone()).replay(&seq).latency.total_ns)
    });
    g.bench_function("replay_interleaved_64k", |b| {
        b.iter(|| {
            DramModel::new(config.clone())
                .replay(&inter)
                .latency
                .total_ns
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
