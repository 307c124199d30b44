//! The adversarial fixture the tile, intra and kernel invariance suites
//! share, and the storage axis every fixture-based case runs on.

use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::snn::{DiehlCookNetwork, QuantizedImage, SnnConfig, WeightPrecision};

/// The FP32 store and its packed int8 image round-trip.
pub const PRECISIONS: [WeightPrecision; 2] = [WeightPrecision::Fp32, WeightPrecision::Int8];

/// A trained network at `n_neurons = 23` — prime, so no tile width in
/// `2..23` divides it and every multi-tile sweep ends on a ragged tail —
/// stored at `precision`, then hand-corrupted after the round-trip: dead
/// input rows against the merged member lists, NaN/Inf on interior and
/// last lanes and a negative word for the read rule.
pub fn corrupted_network(precision: WeightPrecision) -> DiehlCookNetwork {
    let train = SynthDigits.generate(30, 1);
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(23).with_timesteps(30));
    net.train_epoch(&train, 3);
    if precision.is_quantized() {
        net.set_weights(QuantizedImage::roundtrip(net.weights(), precision));
    }
    net.with_weights_mut(|w| {
        for j in 0..23 {
            w.set(40, j, 0.0); // dead row in the active band
            w.set(41, j, 0.0); // two adjacent dead rows
        }
        w.set(42, 3, f32::NAN);
        w.set(42, 22, f32::INFINITY); // corrupt word on the last lane
        w.set(43, 0, -2.0);
    });
    net
}
