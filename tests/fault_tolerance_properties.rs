//! Property-style integration tests on the fault-injection / SNN interface.

use proptest::prelude::*;
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::error::{ErrorModel, Injector};
use sparkxd::snn::{BatchEvaluator, DiehlCookNetwork, SnnConfig, StoredWeights};

fn tiny_trained_net() -> (DiehlCookNetwork, sparkxd::snn::NeuronLabeler) {
    let train = SynthDigits.generate(60, 1);
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(30));
    net.train_epoch(&train, 3);
    let labeler = net.label_neurons(&train, 4);
    (net, labeler)
}

#[test]
fn injection_at_zero_ber_never_changes_accuracy() {
    let (mut net, labeler) = tiny_trained_net();
    let test = SynthDigits.generate(30, 2);
    let before = net.evaluate(&test, &labeler, 9);
    let mut injector = Injector::new(ErrorModel::Model0, 5);
    let mut w = net.weights().clone();
    let report = injector.inject_uniform(w.as_mut_slice(), 0.0);
    assert_eq!(report.flips, 0);
    net.set_weights(w);
    assert_eq!(net.evaluate(&test, &labeler, 9), before);
}

#[test]
fn clamped_network_never_panics_under_extreme_corruption() {
    let (mut net, labeler) = tiny_trained_net();
    let test = SynthDigits.generate(10, 2);
    let mut injector = Injector::new(ErrorModel::Model0, 6);
    let mut w = net.weights().clone();
    injector.inject_uniform(w.as_mut_slice(), 0.4); // catastrophic BER
    net.set_weights(w);
    let acc = net.evaluate(&test, &labeler, 9);
    assert!((0.0..=1.0).contains(&acc));
}

#[test]
fn spike_counts_are_reproducible_for_equal_seeds() {
    let (net, _) = tiny_trained_net();
    let test = SynthDigits.generate(5, 2);
    let run = || BatchEvaluator::default().spike_counts(net.params(), &test, 77);
    let a = run();
    assert!(a.iter().flatten().sum::<u32>() > 0, "trained net spikes");
    assert_eq!(a, run());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn injected_flip_count_tracks_requested_ber(ber_exp in 2u32..4, seed in 0u64..100) {
        let ber = 10f64.powi(-(ber_exp as i32));
        let mut w = StoredWeights::random(784, 20, 1.0, seed);
        let mut injector = Injector::new(ErrorModel::Model0, seed);
        let report = injector.inject_uniform(w.as_mut_slice(), ber);
        let n_bits = (784 * 20 * 32) as f64;
        let expected = n_bits * ber;
        let sigma = expected.sqrt().max(1.0);
        prop_assert!(
            ((report.flips as f64) - expected).abs() < 6.0 * sigma,
            "flips {} vs expected {expected}", report.flips
        );
    }

    #[test]
    fn effective_weights_always_bounded(seed in 0u64..50) {
        let mut w = StoredWeights::random(64, 8, 1.0, seed);
        let mut injector = Injector::new(ErrorModel::Model0, seed ^ 0xF00);
        injector.inject_uniform(w.as_mut_slice(), 1e-2);
        for &raw in w.as_slice() {
            let eff = StoredWeights::effective(raw, 1.0);
            prop_assert!((0.0..=1.0).contains(&eff) && eff.is_finite());
        }
    }
}
