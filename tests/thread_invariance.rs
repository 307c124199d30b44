//! Thread-count, batch-size, tile-width, kernel, intra-sweep and telemetry
//! invariance of a whole pipeline run: the parallel engine derives each
//! sample's RNG from `(seed, sample_index)` and merges order-independent
//! aggregates, and the batched read path accumulates per-sample drive in
//! the same ascending-row order for any batch size and however the
//! neuron axis is tiled — so a `PipelineOutcome` must be bit-identical
//! whether the engine runs on 1 worker or many, one sample at a time
//! (B = 1) or batched (any B), one drive tile or many, or the machine
//! defaults, on the FP32 store and on packed int8 images alike.
//!
//! Every point is an ordinary `#[test]` over an explicit `ExecConfig`.
//! A case may also see a sibling's (process-wide) telemetry mode, which
//! is observation-only, so every combination must agree anyway.

use sparkxd::core::pipeline::{PipelineConfig, PipelineOutcome, SparkXdPipeline};
use sparkxd::snn::engine::DEFAULT_TILE;
use sparkxd::snn::{ExecConfig, IntraChoice, KernelChoice, WeightPrecision};
use sparkxd::telemetry::{self, Mode};
use std::sync::OnceLock;

const PRECISIONS: [WeightPrecision; 2] = [WeightPrecision::Fp32, WeightPrecision::Int8];

/// Trimmed below `small_demo` so each full pipeline run stays in seconds.
fn tiny_config(precision: WeightPrecision, exec: ExecConfig) -> PipelineConfig {
    PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        exec,
        ..PipelineConfig::small_demo(42)
    }
    .with_precision(precision)
}

fn run(precision: WeightPrecision, exec: ExecConfig) -> PipelineOutcome {
    SparkXdPipeline::new(tiny_config(precision, exec))
        .run()
        .expect("tiny pipeline run")
}

/// The serial reference per precision, computed once: 1 worker, batch
/// size 1 (one sample per `run_batch` call), default tiling, portable
/// kernel, serial sweep.
fn reference(precision: WeightPrecision) -> &'static PipelineOutcome {
    static REFERENCES: [OnceLock<PipelineOutcome>; 2] = [OnceLock::new(), OnceLock::new()];
    REFERENCES[usize::from(precision.is_quantized())].get_or_init(|| {
        run(
            precision,
            exec(1, 1, DEFAULT_TILE, KernelChoice::Scalar, IntraChoice::Off),
        )
    })
}

/// Runs `exec` under `mode` on both storage precisions and compares each
/// outcome with the serial reference. Derived `PartialEq` compares every
/// f64 exactly: any order-dependent reduction, shared RNG stream, or
/// batch-size read-path divergence shows up here.
fn assert_matches_reference(exec: ExecConfig, mode: Mode) {
    for precision in PRECISIONS {
        let reference = reference(precision);
        telemetry::set_mode(mode);
        let outcome = run(precision, exec);
        assert_eq!(
            reference, &outcome,
            "{precision} exec {exec} telemetry {mode:?} diverged from the serial reference"
        );
    }
}

/// One point of the matrix.
fn exec(
    threads: usize,
    batch: usize,
    tile: usize,
    kernel: KernelChoice,
    intra: IntraChoice,
) -> ExecConfig {
    ExecConfig {
        threads,
        batch,
        tile,
        kernel,
        intra,
    }
}

#[test]
fn pipeline_outcome_is_bit_identical_across_thread_and_batch_counts() {
    let exec = exec(2, 1, DEFAULT_TILE, KernelChoice::Scalar, IntraChoice::Off);
    assert_matches_reference(exec, Mode::Counters);
}

#[test]
fn single_lane_tiles_under_a_pinned_three_worker_sweep() {
    // A `Workers(3)` pin forces a real multi-worker split regardless of
    // host cores; the SIMD kernel falls back to scalar off-AVX2 hosts, so
    // the point stays portable.
    let exec = exec(1, 3, 1, KernelChoice::Avx2, IntraChoice::Workers(3));
    assert_matches_reference(exec, Mode::Spans);
}

#[test]
fn ragged_tiles_under_a_budget_sized_sweep() {
    // A 7-wide sweep leaves a ragged tail tile at 20 neurons.
    let exec = exec(2, 8, 7, KernelChoice::Avx2, IntraChoice::Auto);
    assert_matches_reference(exec, Mode::Off);
}

#[test]
fn oversized_tiles_and_batches_on_five_workers() {
    // A tile wider than the population clamps back to one tile.
    let exec = exec(5, 17, 64, KernelChoice::Auto, IntraChoice::Workers(2));
    assert_matches_reference(exec, Mode::Spans);
}

#[test]
fn machine_budget_with_a_four_worker_sweep() {
    let machine = ExecConfig::default();
    let exec = exec(
        machine.threads,
        machine.batch,
        1,
        KernelChoice::Avx2,
        IntraChoice::Workers(4),
    );
    assert_matches_reference(exec, Mode::Counters);
}

#[test]
fn machine_defaults() {
    assert_matches_reference(ExecConfig::default(), Mode::Off);
}
