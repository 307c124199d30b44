//! Pins the exact bits training produces. STDP training feeds every
//! weight update into the next timestep, so any change to the simulation
//! core it runs on — drive accumulation order, the LIF update, the
//! firing commit, the inhibition sweep, the NaN/Inf read rule — shows up
//! here as a different weight hash, theta hash or spike total.
//!
//! The matrix crosses soft and hard winner-take-all with clamped and
//! unclamped weight reads, each on a store with planted NaN, +Inf, -Inf
//! and huge (±3e30) words in rows the digits keep active, re-planted
//! between two epochs so the second epoch also starts from a corrupt
//! store. Training resolves its kernel from `SPARKXD_KERNEL`, so the CI
//! leg that pins the portable kernel checks the same values on it.

use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::snn::{DiehlCookNetwork, SnnConfig, StoredWeights};

/// FNV-1a over the bit patterns of `values`.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Plants one corrupt word per species across rows in the digits'
/// active band, on lanes spread over the population.
fn plant(w: &mut StoredWeights) {
    let n = w.neurons();
    let words = [
        (350, 0, f32::NAN),
        (351, n / 3, f32::INFINITY),
        (352, n / 2, f32::NEG_INFINITY),
        (378, n - 1, 3.0e30),
        (406, 1, -3.0e30),
        (407, n / 4, f32::NAN),
    ];
    for (row, lane, value) in words {
        w.set(row, lane, value);
    }
}

/// `(weight hash, theta hash, spikes of epoch 1, spikes of epoch 2)`.
type Pin = (u64, u64, u64, u64);

fn train(clamp_reads: bool, hard_wta: bool) -> Pin {
    let mut config = SnnConfig::for_neurons(100)
        .with_timesteps(50)
        .with_clamp_reads(clamp_reads);
    config.hard_wta = hard_wta;
    let mut net = DiehlCookNetwork::new(config);
    let data = SynthDigits.generate(12, 17);
    net.with_weights_mut(plant);
    let first = net.train_epoch(&data, 5);
    net.with_weights_mut(plant);
    let second = net.train_epoch(&data, 6);
    (
        fnv1a(net.weights().as_slice()),
        fnv1a(net.thetas()),
        first,
        second,
    )
}

/// Values recorded from the AoS training loop this suite was written
/// against. Clamped and unclamped rows agree: STDP's pre-spike update
/// rewrites every active row through the read rule before the drive
/// reads it, so training never sees a corrupt word on the drive path.
const PINNED: [(bool, bool, Pin); 4] = [
    (
        true,
        false,
        (0x0523_bfa3_1683_3830, 0xe3c0_e744_f125_4e3f, 0x143, 0x162),
    ),
    (
        false,
        false,
        (0x0523_bfa3_1683_3830, 0xe3c0_e744_f125_4e3f, 0x143, 0x162),
    ),
    (
        true,
        true,
        (0x9554_7b2f_cb58_002c, 0x4a54_fe0e_a3d2_c740, 0x3a, 0x39),
    ),
    (
        false,
        true,
        (0x9554_7b2f_cb58_002c, 0x4a54_fe0e_a3d2_c740, 0x3a, 0x39),
    ),
];

#[test]
fn trained_weights_thetas_and_spikes_are_pinned() {
    for (clamp_reads, hard_wta, pinned) in PINNED {
        assert_eq!(
            train(clamp_reads, hard_wta),
            pinned,
            "clamp_reads={clamp_reads} hard_wta={hard_wta}"
        );
    }
}
