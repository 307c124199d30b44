//! Property tests for the intra-chunk parallel tile sweep: `run_batch`
//! may fan the zero → accumulate → integrate phase of each timestep out
//! across pool workers (`SPARKXD_INTRA` / `BatchState::with_intra`), with
//! every worker owning a contiguous range of tiles — disjoint neuron
//! lanes of the `[B × n]` drive slab — and a barrier before the global
//! firing-commit/inhibition pass. The split must never change a result:
//! spike counts, labels, accuracy and per-lane membrane words stay
//! bit-identical to the serial sweep for **any** worker count.
//!
//! Why bit-identity holds by construction: range jobs split on *tile*
//! boundaries, so each lane sees the same merged rows added in the same
//! ascending order as the serial sweep, and per-job `any_crossed` slots
//! are OR-reduced in job order after the barrier. These tests exist to
//! catch regressions of exactly that construction — a split mid-tile, a
//! racy reduction, a lane range off by one at a worker boundary.
//!
//! Mirrors `tile_invariance.rs`: intra/tile/batch/thread/kernel pinning
//! goes through the `BatchEvaluator`/`BatchState` APIs rather than the
//! process-global environment, so these tests can run concurrently.
//! (`thread_invariance.rs` owns the env-var axis.)

use proptest::prelude::*;
use rand::rngs::StdRng;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::snn::engine::{sample_rng, BatchEvaluator};
use sparkxd::snn::{
    BatchState, DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, QuantizedImage,
    SnnConfig, WeightPrecision,
};
use sparkxd_bench::oracle;
use std::sync::OnceLock;

/// Applies the CI storage knob: with `SPARKXD_PRECISION=int8|int16` set,
/// the trained weights are replaced by their packed-image round-trip, so
/// the whole invariance matrix runs on the quantised weight substrate
/// (the corrupt words are planted afterwards and survive untouched).
fn apply_storage_precision(net: &mut DiehlCookNetwork) {
    let precision = WeightPrecision::from_env();
    if precision.is_quantized() {
        net.set_weights(QuantizedImage::roundtrip(net.weights(), precision));
    }
}

/// A trained network at `n_neurons = 23` — prime, so no tile width in
/// `2..23` divides it, every multi-tile sweep ends on a ragged tail tile,
/// and no (tile, intra) pair splits the lane axis evenly — with
/// hand-planted corruption: adjacent dead rows against the merged member
/// lists, NaN/Inf on interior and last lanes, a negative word for the
/// read clamp. The same adversarial fixture as `tile_invariance.rs`, so
/// a sweep-split bug faces the same worst-case inputs the tiling did.
fn fixture() -> &'static (NetworkParams, Dataset) {
    static FIXTURE: OnceLock<(NetworkParams, Dataset)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let train = SynthDigits.generate(30, 1);
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(23).with_timesteps(30));
        net.train_epoch(&train, 3);
        apply_storage_precision(&mut net);
        net.with_weights_mut(|w| {
            for j in 0..23 {
                w.set(40, j, 0.0); // dead row in the active band
                w.set(41, j, 0.0); // two adjacent dead rows
            }
            w.set(42, 3, f32::NAN);
            w.set(42, 22, f32::INFINITY); // corrupt word on the last lane
            w.set(43, 0, -2.0);
        });
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
    let (params, data) = fixture();
    let reference = oracle::spike_counts(params, data, 31);
    // Workers(2/3/5) force real multi-worker splits regardless of host
    // cores (explicit pins oversubscribe deliberately, like
    // SPARKXD_THREADS); Auto exercises the budget-sized path — which may
    // resolve to the serial sweep on small hosts, itself a point worth
    // pinning. Tile widths reuse the boundary shapes of
    // `tile_invariance.rs`: at tile=1 each of 23 tiles is one lane, so
    // Workers(5) puts worker boundaries *inside* what a single tile
    // covers at any wider setting.
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
                        "intra={intra:?} kernel={} tile={tile} batch={batch}",
                        kernel.name()
                    );
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
fn membrane_words_are_bit_identical_lane_by_lane() {
    // Spike counts could in principle agree while membrane trajectories
    // drift (counts quantise). Compare the evaluate() accuracy — an f64
    // computed from every per-sample outcome — at full bit precision,
    // plus labels, across the intra axis driven through the evaluator
    // stack (which also layers chunk sharding on top of the sweep).
    let (params, data) = fixture();
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
        assert_eq!(labels.assignments(), labels_ref.assignments(), "{intra:?}");
        let accuracy = eval.evaluate(params, data, &labels_ref, 5);
        assert_eq!(
            accuracy.to_bits(),
            accuracy_ref.to_bits(),
            "accuracy diverged under {intra:?}: {accuracy} vs {accuracy_ref}"
        );
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
        let (params, data) = fixture();
        let split = BatchEvaluator::with_threads(threads)
            .with_batch(batch)
            .with_tile(tile)
            .with_kernel(kernel)
            .with_intra(intra);
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
