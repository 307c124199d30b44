//! Component throughput benches (ablation support): DRAM replay, SNN
//! stepping, error injection and the three mapping policies.
use criterion::{criterion_group, criterion_main, Criterion};
use sparkxd_core::mapping::{
    BaselineMapping, MappingPolicy, SafeSequentialMapping, SparkXdMapping,
};
use sparkxd_data::{SynthDigits, SyntheticSource};
use sparkxd_dram::{CompressedTrace, DramConfig, DramModel};
use sparkxd_error::{ErrorModel, ErrorProfile, Injector};
use sparkxd_snn::{BatchEvaluator, NetworkParams, SnnConfig};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("components");
    g.sample_size(10).measurement_time(Duration::from_secs(4));

    let config = DramConfig::lpddr3_1600_4gb();
    let trace = CompressedTrace::sequential_reads(&config.geometry, 16_384).expand();
    g.bench_function("dram_replay_16k", |b| {
        b.iter(|| DramModel::new(config.clone()).replay(&trace).stats.total())
    });

    // Per-access (expanded) vs run replay on the 64k sequential trace:
    // the run replay must be ≥ 5x the per-access line.
    let compressed64 = CompressedTrace::sequential_reads(&config.geometry, 65_536);
    let trace64 = compressed64.expand();
    g.bench_function("dram_replay_64k", |b| {
        b.iter(|| {
            DramModel::new(config.clone())
                .replay(&trace64)
                .stats
                .total()
        })
    });
    g.bench_function("dram_replay_compressed_64k", |b| {
        b.iter(|| {
            DramModel::new(config.clone())
                .replay(&compressed64)
                .stats
                .total()
        })
    });

    let data = SynthDigits.generate(1, 1);
    let params = NetworkParams::new(SnnConfig::for_neurons(100).with_timesteps(50));
    g.bench_function("snn_sample_n100_t50", |b| {
        let eval = BatchEvaluator::with_threads(1).with_batch(1);
        b.iter(|| eval.spike_counts(&params, &data, 3))
    });

    let mut weights = vec![0.5f32; 100_000];
    g.bench_function("inject_100k_words_ber1e-3", |b| {
        let mut inj = Injector::new(ErrorModel::Model0, 5);
        b.iter(|| inj.inject_uniform(weights.as_mut_slice(), 1e-3).flips)
    });

    let profile = ErrorProfile::uniform(1e-4, config.geometry.total_subarrays());
    g.bench_function("mapping_baseline_10k", |b| {
        b.iter(|| {
            BaselineMapping
                .map(10_000, &config.geometry, &profile, f64::MAX)
                .unwrap()
                .len()
        })
    });
    g.bench_function("mapping_sparkxd_10k", |b| {
        b.iter(|| {
            SparkXdMapping
                .map(10_000, &config.geometry, &profile, 1e-3)
                .unwrap()
                .len()
        })
    });
    g.bench_function("mapping_safe_sequential_10k", |b| {
        b.iter(|| {
            SafeSequentialMapping
                .map(10_000, &config.geometry, &profile, 1e-3)
                .unwrap()
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
