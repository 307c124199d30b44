//! Scheduler determinism: the same seeded arrival trace must yield
//! bit-identical responses — predicted labels *and* tier choices — for
//! any worker count, any batch size and any intra-chunk sweep split,
//! mirroring the offline engine's `tests/thread_invariance.rs` guarantee.
//!
//! Why this holds: request `id` selects the per-sample RNG stream (the
//! offline derivation), a sample's spike counts from `run_batch` are
//! bit-identical for any chunk composition, the intra-chunk tile sweep
//! splits on tile boundaries (the serial sweep's own loop structure), and
//! routing is a pure function of the policy. Worker count, batch size,
//! sweep split and dispatch timing can only change *when* an answer
//! arrives, never *what* it says.
//!
//! The matrix also crosses the `SPARKXD_TELEMETRY` mode: telemetry is
//! observation-only (counters, histograms and span timers — it never
//! feeds back into scheduling or the engine), so counters and full spans
//! must reproduce the telemetry-off answers bit for bit.

use sparkxd_core::pipeline::PipelineConfig;
use sparkxd_core::{TierBuilder, TierSet};
use sparkxd_data::{SynthDigits, SyntheticSource};
use sparkxd_serve::{
    arrival_trace, replay_open_loop, LoadSpec, RoutePolicy, ServiceConfig, SparkXdService,
};
use sparkxd_snn::IntraChoice;
use std::time::Duration;

/// Trimmed below `small_demo` so the one-off tier build stays in seconds.
fn tiny_tiers() -> TierSet {
    let config = PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        ..PipelineConfig::small_demo(11)
    };
    TierBuilder::new(config).build().expect("tiny tier ladder")
}

#[test]
fn responses_are_bit_identical_across_workers_and_batch_sizes() {
    let tiers = tiny_tiers();
    assert!(tiers.tiers.len() >= 2, "matrix needs a real tier choice");
    let data = SynthDigits.generate(30, 5);
    // Saturation trace (zero offsets): submission order is the trace
    // order on every run, with all four policy shapes in the mix.
    let trace = arrival_trace(
        &LoadSpec {
            requests: 60,
            rate_per_sec: f64::INFINITY,
            seed: 9,
            policy_mix: vec![
                RoutePolicy::AccuracyFloor(0.0),
                RoutePolicy::AccuracyFloor(2.0), // unreachable: falls back
                RoutePolicy::EnergyBudget(f64::MAX),
                RoutePolicy::DeadlineSlack(0.0), // unreachable: falls back
            ],
        },
        data.len(),
    );

    let run = |workers: usize,
               batch: usize,
               intra: IntraChoice,
               telemetry: sparkxd_telemetry::Mode|
     -> Vec<(u64, Option<u8>, usize)> {
        sparkxd_telemetry::set_mode(telemetry);
        let config = ServiceConfig::from_env()
            .with_workers(workers)
            .with_batch(batch)
            .with_intra(intra)
            .with_max_wait(Duration::from_micros(200))
            .with_queue_bound(10_000) // no admission pressure: every
            // request must be answered for the comparison to be total
            .with_spike_seed(0xD0_0D);
        let (service, responses) = SparkXdService::start(tiers.tiers.clone(), config);
        let outcome = replay_open_loop(&service, &data, &trace);
        assert_eq!(outcome.rejected, 0, "bound must never reject this load");
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, 60);
        let mut answers: Vec<_> = responses.iter().map(|r| (r.id, r.label, r.tier)).collect();
        answers.sort_unstable();
        answers
    };

    // Serial reference: 1 worker, chunk size 1, serial sweep,
    // telemetry off.
    use sparkxd_telemetry::Mode;
    let reference = run(1, 1, IntraChoice::Off, Mode::Off);
    assert_eq!(reference.len(), 60);
    for (workers, batch, intra, telemetry) in [
        (1, 4, IntraChoice::Off, Mode::Counters),
        (2, 1, IntraChoice::Off, Mode::Spans),
        (2, 3, IntraChoice::Auto, Mode::Off),
        (4, 8, IntraChoice::Auto, Mode::Spans),
        (3, 17, IntraChoice::Workers(2), Mode::Counters),
        (2, 8, IntraChoice::Workers(3), Mode::Spans),
    ] {
        assert_eq!(
            run(workers, batch, intra, telemetry),
            reference,
            "workers={workers} batch={batch} intra={intra:?} telemetry={telemetry:?} \
             diverged from serial scalar"
        );
    }
    // Leave the process-global mode as the suite found it.
    sparkxd_telemetry::force_mode_from_env();
}
