//! Property tests for the intra-chunk parallel tile sweep: `run_batch`
//! splits the zero → accumulate → integrate phase of each timestep into
//! range-jobs that may fan out across pool workers (`ExecConfig::intra` /
//! `BatchState::with_intra`), every job owning a contiguous range of
//! tiles — disjoint neuron lanes of the `[B × n]` membrane slabs and one
//! contiguous region of the tile-major drive scratch — with a barrier
//! before the global firing-commit/inhibition pass. The split must never
//! change a result: spike counts, labels and accuracy stay bit-identical
//! to the one-job (serial) sweep for **any** worker count. (The membrane
//! words themselves are compared slab by slab in `network.rs`'s unit
//! tests, where the scratch is visible.)
//!
//! Why bit-identity holds by construction: range jobs split on *tile*
//! boundaries, so each lane sees the same merged rows added in the same
//! ascending order as the one-job sweep, and per-job `any_crossed` slots
//! are OR-reduced in job order after the barrier. These tests exist to
//! catch regressions of exactly that construction — a split mid-tile, a
//! racy reduction, a lane range off by one at a worker boundary.
//!
//! Mirrors `tile_invariance.rs`: intra/tile/batch/thread/kernel pinning
//! goes through the `BatchEvaluator`/`BatchState` APIs, and every
//! fixture-based case runs on the FP32 store and its packed int8 image.

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

/// The corrupted 23-neuron network per storage precision, trained once,
/// plus its test set.
fn fixture(precision: WeightPrecision) -> &'static (NetworkParams, Dataset) {
    static FIXTURES: [OnceLock<(NetworkParams, Dataset)>; 2] = [OnceLock::new(), OnceLock::new()];
    FIXTURES[usize::from(precision.is_quantized())].get_or_init(|| {
        let net = common::corrupted_network(precision);
        (net.into_params(), SynthDigits.generate(13, 2))
    })
}

/// Batched counts at one (intra, kernel, batch, tile) point.
fn intra_counts(
    params: &NetworkParams,
    data: &Dataset,
    seed: u64,
    intra: IntraChoice,
    kernel: KernelChoice,
    batch: usize,
    tile: usize,
) -> Vec<Vec<u32>> {
    let mut state = BatchState::for_params(params, batch)
        .with_tile(tile)
        .with_kernel(kernel)
        .with_intra(intra);
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

#[test]
fn issue_intra_matrix_is_bit_identical_to_scalar_reference() {
    // Workers(2/3/5) force real multi-worker splits regardless of host
    // cores (explicit pins oversubscribe deliberately, like a thread
    // budget above the core count); Auto exercises the budget-sized path — which may
    // resolve to the serial sweep on small hosts, itself a point worth
    // pinning. Tile widths reuse the boundary shapes of
    // `tile_invariance.rs`: at tile=1 each of 23 tiles is one lane, so
    // Workers(5) puts worker boundaries *inside* what a single tile
    // covers at any wider setting.
    for precision in PRECISIONS {
        let (params, data) = fixture(precision);
        let reference = oracle::spike_counts(params, data, 31);
        for intra in [
            IntraChoice::Off,
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
            IntraChoice::Workers(5),
        ] {
            for kernel in [KernelChoice::Scalar, KernelChoice::Auto] {
                for tile in [1usize, 5, 9, 23, usize::MAX] {
                    for batch in [2usize, 13] {
                        assert_eq!(
                            intra_counts(params, data, 31, intra, kernel, batch, tile),
                            reference,
                            "{precision} intra={intra:?} kernel={} tile={tile} batch={batch}",
                            kernel.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hard_wta_winner_is_resolved_across_worker_boundaries() {
    // Hard WTA picks one global winner per timestep. With tile width 1
    // and four workers over 17 single-lane tiles, the candidates of one
    // timestep span every worker's range — any per-worker shortcut in
    // the winner reduction, or a commit that ran before the barrier,
    // diverges here.
    let mut config = SnnConfig::for_neurons(17).with_timesteps(25);
    config.hard_wta = true;
    let params = NetworkParams::new(config);
    let data = SynthDigits.generate(7, 5);
    let reference = oracle::spike_counts(&params, &data, 9);
    let total: u32 = reference.iter().flatten().sum();
    assert!(total > 0, "hard-WTA fixture must actually spike");
    for intra in [
        IntraChoice::Workers(2),
        IntraChoice::Workers(4),
        IntraChoice::Workers(17),
    ] {
        for tile in [1usize, 2, 16] {
            assert_eq!(
                intra_counts(&params, &data, 9, intra, KernelChoice::Auto, 4, tile),
                reference,
                "intra={intra:?} tile={tile}"
            );
        }
    }
}

#[test]
fn accuracy_and_labels_are_bit_identical_across_intra() {
    // Spike counts could in principle agree while membrane trajectories
    // drift (counts quantise). Compare the evaluate() accuracy — an f64
    // computed from every per-sample outcome — at full bit precision,
    // plus labels, across the intra axis driven through the evaluator
    // stack (which also layers chunk sharding on top of the sweep).
    for precision in PRECISIONS {
        let (params, data) = fixture(precision);
        let labels_ref = oracle::label_neurons(params, data, 5);
        let accuracy_ref = oracle::evaluate(params, data, &labels_ref, 5);
        for intra in [
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(7),
        ] {
            let eval = BatchEvaluator::with_threads(2)
                .with_batch(5)
                .with_tile(4)
                .with_intra(intra);
            let labels = eval.label_neurons(params, data, 5);
            let point = format!("{precision} {intra:?}");
            assert_eq!(labels.assignments(), labels_ref.assignments(), "{point}");
            let accuracy = eval.evaluate(params, data, &labels_ref, 5);
            assert_eq!(
                accuracy.to_bits(),
                accuracy_ref.to_bits(),
                "accuracy diverged under {point}: {accuracy} vs {accuracy_ref}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (intra, kernel, batch, thread, tile, seed) point — the full
    /// five-axis matrix, driven through the complete `BatchEvaluator`
    /// sharding stack — matches the scalar oracle.
    #[test]
    fn arbitrary_intra_points_match_scalar(
        intra_idx in 0usize..5,
        kernel_idx in 0usize..3,
        batch in 1usize..12,
        threads in 1usize..5,
        tile in 1usize..40,
        seed in 0u64..1000,
    ) {
        let intra = [
            IntraChoice::Off,
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
            IntraChoice::Workers(6),
        ][intra_idx];
        let kernel = [KernelChoice::Scalar, KernelChoice::Auto, KernelChoice::Avx2][kernel_idx];
        let split = BatchEvaluator::with_threads(threads)
            .with_batch(batch)
            .with_tile(tile)
            .with_kernel(kernel)
            .with_intra(intra);
        for precision in PRECISIONS {
            let (params, data) = fixture(precision);
            prop_assert_eq!(
                split.spike_counts(params, data, seed),
                oracle::spike_counts(params, data, seed)
            );
            let scalar_labels = oracle::label_neurons(params, data, seed);
            let split_labels = split.label_neurons(params, data, seed);
            prop_assert_eq!(split_labels.assignments(), scalar_labels.assignments());
            prop_assert_eq!(
                split.evaluate(params, data, &scalar_labels, seed),
                oracle::evaluate(params, data, &scalar_labels, seed)
            );
        }
    }
}
