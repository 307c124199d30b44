//! Property tests for the neuron-tiled drive matrix: `run_batch` sweeps
//! the `[B × n_neurons]` drive slab in cache-sized neuron tiles
//! (`ExecConfig::tile` / `BatchState::with_tile`), and the partition must
//! never change a result — spike counts, accuracy and labels stay
//! bit-identical to the scalar oracle (`sparkxd_bench::oracle`) for
//! **any** tile width.
//!
//! The deterministic matrix pins the boundary shapes the partition can
//! get wrong: tile width 1 (one lane per tile), widths that do not divide
//! `n_neurons`, width exactly `n_neurons`, and widths beyond it
//! (including `usize::MAX`), all crossed with dead-row skipping, read
//! clamping and hard WTA (whose winner must be resolved *across* tile
//! boundaries). Tile/batch/thread pinning goes through the
//! `BatchEvaluator`/`BatchState` APIs, and every fixture-based case runs
//! on the FP32 store and its packed int8 image.

mod common;

use common::PRECISIONS;
use proptest::prelude::*;
use rand::rngs::StdRng;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::snn::engine::{sample_rng, BatchEvaluator};
use sparkxd::snn::{
    BatchState, IntraChoice, KernelChoice, NetworkParams, SnnConfig, WeightPrecision,
};
use sparkxd_bench::oracle;
use std::sync::OnceLock;

/// Batched counts at one (batch, tile) point via `BatchState::with_tile`.
fn tiled_counts(
    params: &NetworkParams,
    data: &Dataset,
    seed: u64,
    batch: usize,
    tile: usize,
) -> Vec<Vec<u32>> {
    let mut state = BatchState::for_params(params, batch).with_tile(tile);
    let mut got = Vec::with_capacity(data.len());
    let mut start = 0;
    while start < data.len() {
        let end = (start + batch).min(data.len());
        let pixels: Vec<&[f32]> = (start..end).map(|i| data.get(i).0.pixels()).collect();
        let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
        got.extend(params.run_batch(&mut state, &pixels, &mut rngs).unwrap());
        start = end;
    }
    got
}

/// The corrupted 23-neuron network per storage precision, trained once,
/// plus its test set.
fn fixture(precision: WeightPrecision) -> &'static (NetworkParams, Dataset) {
    static FIXTURES: [OnceLock<(NetworkParams, Dataset)>; 2] = [OnceLock::new(), OnceLock::new()];
    FIXTURES[usize::from(precision.is_quantized())].get_or_init(|| {
        let net = common::corrupted_network(precision);
        (net.into_params(), SynthDigits.generate(13, 2))
    })
}

#[test]
fn issue_tile_boundaries_are_bit_identical_to_scalar() {
    // 1: one lane per tile; 4/5/9: ragged tails at n = 23; 22: the last
    // lane alone in the tail tile; 23: exact fit (the untiled sweep);
    // 24 and usize::MAX: clamp back to a single tile.
    for precision in PRECISIONS {
        let (params, data) = fixture(precision);
        let reference = oracle::spike_counts(params, data, 31);
        for tile in [1usize, 4, 5, 9, 22, 23, 24, usize::MAX] {
            for batch in [2usize, 5, 13] {
                assert_eq!(
                    tiled_counts(params, data, 31, batch, tile),
                    reference,
                    "{precision} tile={tile} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn hard_wta_winner_is_resolved_across_tile_boundaries() {
    // Hard WTA picks one global winner per timestep; with tile width 1
    // every candidate sits in its own tile, so any per-tile shortcut in
    // the winner or inhibition-strength reduction would diverge here.
    let mut config = SnnConfig::for_neurons(17).with_timesteps(25);
    config.hard_wta = true;
    let params = NetworkParams::new(config);
    let data = SynthDigits.generate(7, 5);
    let reference = oracle::spike_counts(&params, &data, 9);
    let total: u32 = reference.iter().flatten().sum();
    assert!(total > 0, "hard-WTA fixture must actually spike");
    for tile in [1usize, 2, 16, 17] {
        assert_eq!(
            tiled_counts(&params, &data, 9, 4, tile),
            reference,
            "tile={tile}"
        );
    }
}

#[test]
fn run_batch_matches_scalar_under_corruption_unclamped_and_hard_wta() {
    for (clamp, hard_wta) in [(true, false), (false, false), (true, true), (false, true)] {
        let mut config = SnnConfig::for_neurons(16)
            .with_timesteps(25)
            .with_clamp_reads(clamp);
        config.hard_wta = hard_wta;
        let mut params = NetworkParams::new(config);
        // Hand-corrupt the store: NaN/Inf/negative/huge values exercise
        // every branch of the read rule, plus a dead (all-zero) row.
        params.with_weights_mut(|w| {
            w.set(1, 3, f32::NAN);
            w.set(2, 5, f32::INFINITY);
            w.set(4, 0, -3.0);
            w.set(4, 1, 9.0);
            for j in 0..16 {
                w.set(10, j, 0.0);
            }
        });
        let data = SynthDigits.generate(9, 6);
        let reference = oracle::spike_counts(&params, &data, 13);
        // tile = 5 splits n = 16 into uneven tiles, so the hard-WTA
        // winner and the inhibition strength must be resolved across
        // tile boundaries; tile = 16 is the untiled path.
        for tile in [5usize, 16] {
            assert_eq!(
                tiled_counts(&params, &data, 13, 4, tile),
                reference,
                "clamp_reads={clamp} hard_wta={hard_wta} tile={tile}"
            );
        }
        if hard_wta {
            // The hard-WTA branch must actually decide something: at
            // most one spike per timestep, and at least one overall.
            let total: u32 = reference.iter().flatten().sum();
            assert!(total > 0, "hard-WTA run produced no spikes to compare");
            assert!(reference.iter().all(|c| c.iter().sum::<u32>() <= 25));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (tile, batch, thread, kernel, intra, seed) point — driven
    /// through the full `BatchEvaluator` sharding stack — matches the
    /// scalar oracle.
    #[test]
    fn arbitrary_tile_widths_match_scalar(
        tile in 1usize..40,
        batch in 1usize..12,
        threads in 1usize..5,
        kernel_idx in 0usize..3,
        intra_idx in 0usize..4,
        seed in 0u64..1000,
    ) {
        let kernel = [KernelChoice::Scalar, KernelChoice::Auto, KernelChoice::Avx2][kernel_idx];
        let intra = [
            IntraChoice::Off,
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
        ][intra_idx];
        let tiled = BatchEvaluator::with_threads(threads)
            .with_batch(batch)
            .with_tile(tile)
            .with_kernel(kernel)
            .with_intra(intra);
        for precision in PRECISIONS {
            let (params, data) = fixture(precision);
            prop_assert_eq!(
                tiled.spike_counts(params, data, seed),
                oracle::spike_counts(params, data, seed)
            );
            let scalar_labels = oracle::label_neurons(params, data, seed);
            let tiled_labels = tiled.label_neurons(params, data, seed);
            prop_assert_eq!(tiled_labels.assignments(), scalar_labels.assignments());
            prop_assert_eq!(
                tiled.evaluate(params, data, &scalar_labels, seed),
                oracle::evaluate(params, data, &scalar_labels, seed)
            );
        }
    }
}
