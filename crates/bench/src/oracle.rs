//! The scalar reference simulator: an independent, per-neuron (AoS)
//! implementation of the network's inference dynamics (paper Fig. 4b),
//! kept only to check the library's one simulation core against.
//!
//! It is written against the public `sparkxd-snn` API alone — the
//! configuration, the stored weights read through
//! [`StoredWeights::effective`], the learned thresholds and
//! [`PoissonEncoder::encode_step`](sparkxd_snn::PoissonEncoder::encode_step)
//! — with no kernel dispatch, no effective plane, no batching and no
//! tiling. Each neuron is a plain struct stepped with the textbook
//! expression order, so a result it shares with
//! [`NetworkParams::run_batch`] bit for bit is evidence that the SoA lane
//! step, the kernels, the plane and the batching are all exact.
//!
//! The aggregates mirror the [`BatchEvaluator`](sparkxd_snn::BatchEvaluator)
//! ones: sample `i` of a dataset draws its spikes from
//! [`sample_rng`]`(seed, i)`, samples run one after another on one thread.

use rand::rngs::StdRng;
use sparkxd_data::Dataset;
use sparkxd_snn::engine::sample_rng;
use sparkxd_snn::{NetworkParams, NeuronLabeler, StoredWeights};

/// Dynamic state of one LIF neuron.
#[derive(Debug, Clone, Copy)]
struct Neuron {
    /// Membrane potential (mV).
    v: f32,
    /// Adaptive threshold component (mV above `v_thresh`).
    theta: f32,
    /// Remaining refractory time (ms).
    refractory_left: f32,
}

/// Presents one image for `config.timesteps` steps without learning and
/// returns the per-neuron spike counts.
///
/// # Panics
///
/// Panics if `pixels` does not match the configured input size.
fn run_sample(params: &NetworkParams, pixels: &[f32], rng: &mut StdRng) -> Vec<u32> {
    let config = params.config();
    assert_eq!(pixels.len(), config.n_inputs, "input size");
    let lif = &config.lif;
    let dt = config.dt_ms;
    let weights = params.weights();
    let w_max = weights.w_max();
    let n = config.n_neurons;
    let mut neurons: Vec<Neuron> = params
        .thetas()
        .iter()
        .map(|&theta| Neuron {
            v: lif.v_rest,
            theta,
            refractory_left: 0.0,
        })
        .collect();
    let mut counts = vec![0u32; n];
    let mut active = Vec::new();
    let mut drive = vec![0.0f32; n];
    let mut crossed = Vec::with_capacity(n);
    let mut fired = Vec::with_capacity(n);
    let mut is_fired = vec![false; n];
    for _ in 0..config.timesteps {
        config.encoder.encode_step(pixels, rng, &mut active);
        // Drive: every active input's fan-out, read through the synapse
        // rule — clamped, or (unclamped) skipping non-finite words.
        drive.fill(0.0);
        for &i in &active {
            let row = weights.fan_out(i);
            if config.clamp_reads {
                for (d, &w) in drive.iter_mut().zip(row) {
                    *d += StoredWeights::effective(w, w_max);
                }
            } else {
                for (d, &w) in drive.iter_mut().zip(row) {
                    if w.is_finite() {
                        *d += w;
                    }
                }
            }
        }
        // Integrate: the threshold decays regardless of refractory state;
        // a refractory neuron is held at reset, the others leak towards
        // rest, take the drive and test the adaptive threshold.
        crossed.clear();
        for (j, neuron) in neurons.iter_mut().enumerate() {
            neuron.theta -= neuron.theta * dt / lif.tau_theta;
            if neuron.refractory_left > 0.0 {
                neuron.refractory_left -= dt;
                neuron.v = lif.v_reset;
                continue;
            }
            neuron.v += (lif.v_rest - neuron.v) * dt / lif.tau_membrane;
            neuron.v += drive[j];
            if neuron.v >= lif.v_thresh + neuron.theta {
                crossed.push(j);
            }
        }
        // Fire: every crossing neuron under soft winner-take-all; under
        // hard WTA only the largest threshold margin (lowest index on a
        // tie).
        fired.clear();
        if config.hard_wta {
            let mut winner: Option<(usize, f32)> = None;
            for &j in &crossed {
                let margin = neurons[j].v - (lif.v_thresh + neurons[j].theta);
                if winner.is_none_or(|(_, best)| margin > best) {
                    winner = Some((j, margin));
                }
            }
            fired.extend(winner.map(|(j, _)| j));
        } else {
            fired.extend_from_slice(&crossed);
        }
        for &j in &fired {
            let neuron = &mut neurons[j];
            neuron.v = lif.v_reset;
            neuron.theta += lif.theta_plus;
            neuron.refractory_left = lif.refractory_ms;
            counts[j] += 1;
        }
        // Lateral inhibition: each spike hyperpolarises every other
        // neuron, down to the floor.
        if !fired.is_empty() {
            let strength = config.inhibition_mv * fired.len() as f32;
            let floor = lif.inhibition_floor();
            is_fired.fill(false);
            for &j in &fired {
                is_fired[j] = true;
            }
            for (neuron, &skip) in neurons.iter_mut().zip(&is_fired) {
                if !skip {
                    neuron.v = (neuron.v - strength).max(floor);
                }
            }
        }
    }
    counts
}

/// Per-neuron spike counts for every sample of `dataset`, in dataset
/// order — the reference for `BatchEvaluator::spike_counts`.
pub fn spike_counts(params: &NetworkParams, dataset: &Dataset, seed: u64) -> Vec<Vec<u32>> {
    dataset
        .iter()
        .enumerate()
        .map(|(idx, (image, _))| {
            run_sample(params, image.pixels(), &mut sample_rng(seed, idx as u64))
        })
        .collect()
}

/// Neuron class assignments from the responses on `dataset` — the
/// reference for `BatchEvaluator::label_neurons`.
pub fn label_neurons(params: &NetworkParams, dataset: &Dataset, seed: u64) -> NeuronLabeler {
    let mut responses = vec![[0u64; 10]; params.config().n_neurons];
    for ((_, label), counts) in dataset.iter().zip(spike_counts(params, dataset, seed)) {
        for (response, c) in responses.iter_mut().zip(counts) {
            response[label as usize] += u64::from(c);
        }
    }
    NeuronLabeler::from_responses(&responses)
}

/// Classification accuracy on `dataset` under `labeler` — the reference
/// for `BatchEvaluator::evaluate`.
pub fn evaluate(
    params: &NetworkParams,
    dataset: &Dataset,
    labeler: &NeuronLabeler,
    seed: u64,
) -> f64 {
    if dataset.is_empty() {
        return 0.0;
    }
    let correct = dataset
        .iter()
        .zip(spike_counts(params, dataset, seed))
        .filter(|((_, label), counts)| labeler.predict(counts) == Some(*label))
        .count();
    correct as f64 / dataset.len() as f64
}
