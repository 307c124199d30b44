//! Worker-budget accounting under serve load: service workers plus any
//! intra-chunk sweep helpers must stay under the engine's global thread
//! budget — the nested-reservation fix this suite pins.
//!
//! Before the fix, every service worker dispatching `run_batch` with
//! intra-chunk parallelism could have pinned its *own* full-size
//! reservation, multiplying the configured thread count (cores² in the
//! worst case). [`WorkerReservation::claim_leftover`] makes the inner
//! level claim only what the budget has left, so the sum of registered
//! extras never exceeds `configured - 1` — which the [`busy_peak`]
//! high-water mark observes directly.
//!
//! This is a dedicated one-test binary on purpose: the peak is process
//! global, and a sibling test running a `parallel_map` concurrently
//! would pollute it. Same convention as the engine's own single-test
//! integration binaries.

use sparkxd_core::pipeline::MappingSummary;
use sparkxd_core::TierModel;
use sparkxd_serve::{RoutePolicy, ServeRequest, ServiceConfig, SparkXdService};
use sparkxd_snn::engine::{busy_peak, reset_busy_peak};
use sparkxd_snn::{ExecConfig, IntraChoice, NetworkParams, NeuronLabeler, SnnConfig};
use std::time::Duration;

/// An untrained single tier with a fixed labelling — enough substrate to
/// drive real `run_batch` dispatches without a training pass.
fn one_tier() -> Vec<TierModel> {
    let params = NetworkParams::new(SnnConfig::for_neurons(40).with_timesteps(8));
    vec![TierModel {
        v_supply: sparkxd_circuit::Volt(1.1),
        precision: sparkxd_snn::WeightPrecision::Fp32,
        operating_ber: 1e-6,
        params,
        labeler: NeuronLabeler::from_assignments((0..40).map(|j| Some((j % 10) as u8)).collect()),
        accuracy_estimate: 0.8,
        dram_pass_mj: 1.0,
        dram_pass_ns: 1_000.0,
        mapping: MappingSummary {
            policy: "sparkxd",
            columns: 1,
            subarrays_used: 1,
            safe_fraction: 1.0,
            word_bits: 32,
        },
    }]
}

#[test]
fn serve_workers_plus_intra_helpers_stay_under_the_global_budget() {
    // A 4-thread budget, whatever the host, and 8-lane tiles (five per
    // 40-neuron sweep), so the leftover-claim path is exercised even on
    // single-core CI runners.
    let exec = ExecConfig {
        threads: 4,
        tile: 8,
        ..ExecConfig::default()
    };
    let configured = exec.threads;

    let workers = 3;
    let config = ServiceConfig::new(&exec)
        .with_workers(workers)
        .with_batch(4)
        .with_intra(IntraChoice::Auto)
        .with_max_wait(Duration::from_micros(100))
        .with_queue_bound(10_000);
    reset_busy_peak();
    let (service, rx) = SparkXdService::start_with_exec(one_tier(), config, &exec);
    for id in 0..48 {
        service
            .submit(ServeRequest {
                id,
                pixels: vec![0.5; sparkxd_data::IMAGE_PIXELS],
                policy: RoutePolicy::AccuracyFloor(0.0),
            })
            .expect("bound of 10_000 admits a 48-burst");
    }
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 48);
    assert_eq!(rx.iter().count(), 48);

    // The service pool registers `workers - 1` extras; every intra-chunk
    // claim on top comes out of the leftover budget, so the high-water
    // mark of registered extras must stay under the global cap — never
    // `workers × configured` as naive nested reservations would give.
    let peak = busy_peak();
    assert!(
        peak < configured,
        "budget oversubscribed: peak {peak} extras, cap {}",
        configured - 1
    );
    // And the service's own reservation must itself have been visible
    // (sanity that the peak diagnostic observed this run at all).
    assert!(
        peak >= workers - 1,
        "peak {peak} never reached the service pool's own {} extras",
        workers - 1
    );
}
