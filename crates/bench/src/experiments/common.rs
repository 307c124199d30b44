//! Shared helpers for the accuracy experiments (Figs. 1a, 8, 11).

use crate::scale::Scale;
use sparkxd_core::pipeline::DatasetKind;
use sparkxd_core::training::{FaultAwareOutcome, FaultAwareTrainer, TrainingConfig};
use sparkxd_data::Dataset;
use sparkxd_error::ErrorModel;
use sparkxd_snn::{BatchEvaluator, DiehlCookNetwork, ExecConfig, NeuronLabeler, SnnConfig};

/// A baseline model and its fault-aware-improved counterpart, trained on
/// the same data.
#[derive(Debug, Clone)]
pub struct TrainedPair {
    /// Error-free-trained baseline (`model0`).
    pub baseline: DiehlCookNetwork,
    /// Labeler of the baseline model.
    pub baseline_labeler: NeuronLabeler,
    /// Fault-aware-trained improved model (`model1`).
    pub improved: DiehlCookNetwork,
    /// Algorithm 1 outcome (curve, `BER_th`, accuracies).
    pub outcome: FaultAwareOutcome,
    /// Training set used.
    pub train: Dataset,
    /// Test set used.
    pub test: Dataset,
}

/// Algorithm 1 configuration derived from an experiment scale.
pub fn training_config(scale: &Scale, seed: u64) -> TrainingConfig {
    TrainingConfig {
        ber_schedule: scale.ber_points(),
        epochs_per_rate: scale.epochs_per_rate,
        accuracy_bound: 0.01,
        error_model: ErrorModel::Model0,
        injection_seed: seed ^ 0x5EED,
        spike_seed: seed ^ 0x51_4B,
        eval_trials: scale.eval_trials,
    }
}

/// Trains the baseline error-free, then derives the improved model with
/// Algorithm 1, every epoch and evaluation running under `exec`.
pub fn train_pair(
    kind: DatasetKind,
    neurons: usize,
    scale: &Scale,
    exec: &ExecConfig,
    seed: u64,
) -> TrainedPair {
    let train = kind.generate(scale.train_samples, seed ^ 0xDA7A);
    let test = kind.generate(scale.test_samples, seed ^ 0x7E57);
    let config = SnnConfig::for_neurons(neurons)
        .with_timesteps(scale.timesteps)
        .with_weight_seed(seed ^ 0x11);
    let mut baseline = DiehlCookNetwork::new(config);
    for epoch in 0..scale.baseline_epochs {
        baseline.train_epoch_with(&train, seed ^ (0x100 + epoch as u64), exec);
    }
    let baseline_labeler =
        BatchEvaluator::new(*exec).label_neurons(baseline.params(), &train, seed ^ 0xABCD);

    let mut improved = baseline.clone();
    let trainer = FaultAwareTrainer::new(training_config(scale, seed), *exec);
    let outcome = trainer
        .improve(&mut improved, &train, &test)
        .expect("algorithm 1 is infallible on in-memory data");

    TrainedPair {
        baseline,
        baseline_labeler,
        improved,
        outcome,
        train,
        test,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_scale() -> Scale {
        Scale {
            label: "micro",
            network_sizes: vec![20],
            train_samples: 40,
            test_samples: 20,
            baseline_epochs: 1,
            epochs_per_rate: 1,
            timesteps: 30,
            eval_trials: 1,
        }
    }

    #[test]
    fn train_pair_produces_both_models() {
        let pair = train_pair(
            DatasetKind::Digits,
            20,
            &micro_scale(),
            &ExecConfig::default(),
            1,
        );
        assert_eq!(pair.outcome.curve.len(), 5);
        assert_ne!(
            pair.baseline.weights().as_slice(),
            pair.improved.weights().as_slice(),
            "fault-aware training must change the weights"
        );
    }
}
