//! Property tests for the batched read path: `run_batch` (as driven by the
//! `BatchEvaluator`) must produce bit-identical spike counts, accuracy
//! and labels to the scalar oracle (`sparkxd_bench::oracle`) for any
//! (batch size, worker count, tile width, kernel, intra-sweep split)
//! combination, B = 1 included.
//!
//! Unlike `thread_invariance.rs`, these tests pin workers, batch size and
//! tile width through the `BatchEvaluator` API rather than the
//! process-global environment variables, so they can run concurrently.

use proptest::prelude::*;
use sparkxd::data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd::snn::engine::BatchEvaluator;
use sparkxd::snn::{
    DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, NeuronLabeler, QuantizedImage,
    SnnConfig, WeightPrecision,
};
use sparkxd_bench::oracle;
use std::sync::OnceLock;

/// Applies the CI storage knob: with `SPARKXD_PRECISION=int8|int16` set,
/// the trained weights are replaced by their packed-image round-trip, so
/// the whole invariance matrix runs on the quantised weight substrate.
fn apply_storage_precision(net: &mut DiehlCookNetwork) {
    let precision = WeightPrecision::from_env();
    if precision.is_quantized() {
        net.set_weights(QuantizedImage::roundtrip(net.weights(), precision));
    }
}

/// One small trained network + dataset + labeler shared by every property
/// case (training once keeps the 25-case matrix in seconds).
fn fixture() -> &'static (NetworkParams, Dataset, NeuronLabeler) {
    static FIXTURE: OnceLock<(NetworkParams, Dataset, NeuronLabeler)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let train = SynthDigits.generate(40, 1);
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(24).with_timesteps(30));
        net.train_epoch(&train, 3);
        apply_storage_precision(&mut net);
        let params = net.into_params();
        let test = SynthDigits.generate(23, 2);
        let labeler = oracle::label_neurons(&params, &test, 4);
        (params, test, labeler)
    })
}

#[test]
fn issue_batch_sizes_are_bit_identical_to_scalar() {
    let (params, test, labeler) = fixture();
    let counts_ref = oracle::spike_counts(params, test, 7);
    let accuracy_ref = oracle::evaluate(params, test, labeler, 7);
    // Tile widths straddle the fixture's n = 24: ragged tails (7, 23),
    // exact fit (24) and the single-tile clamp (usize::MAX).
    for batch in [1usize, 3, 8, 17] {
        for threads in [1usize, 2, 5] {
            for tile in [1usize, 7, 23, 24, usize::MAX] {
                let eval = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .with_tile(tile);
                assert_eq!(
                    eval.spike_counts(params, test, 7),
                    counts_ref,
                    "spike counts diverged at batch={batch} threads={threads} tile={tile}"
                );
                assert_eq!(
                    eval.evaluate(params, test, labeler, 7),
                    accuracy_ref,
                    "accuracy diverged at batch={batch} threads={threads} tile={tile}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn arbitrary_batch_and_thread_counts_match_scalar(
        batch in 1usize..32,
        threads in 1usize..6,
        tile in 1usize..40,
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
        let (params, test, labeler) = fixture();
        let batched = BatchEvaluator::with_threads(threads)
            .with_batch(batch)
            .with_tile(tile)
            .with_kernel(kernel)
            .with_intra(intra);
        prop_assert_eq!(
            batched.spike_counts(params, test, seed),
            oracle::spike_counts(params, test, seed)
        );
        prop_assert_eq!(
            batched.evaluate(params, test, labeler, seed),
            oracle::evaluate(params, test, labeler, seed)
        );
        let batched_labels = batched.label_neurons(params, test, seed);
        let scalar_labels = oracle::label_neurons(params, test, seed);
        prop_assert_eq!(batched_labels.assignments(), scalar_labels.assignments());
    }
}
