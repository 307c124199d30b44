//! Fault-aware training (paper Section IV-B, Algorithm 1).
//!
//! The improved SNN is obtained by training under injected bit errors,
//! raising the BER step by step from the smallest scheduled rate to the
//! largest so the network adapts gradually. After each rate step, accuracy
//! *under that error rate* is measured; the largest rate whose accuracy
//! stays within the user bound of the error-free baseline becomes the
//! candidate `BER_th`, and the corresponding weights become the improved
//! model (Algorithm 1 lines 10–13).

use crate::CoreError;
use sparkxd_data::Dataset;
use sparkxd_error::{ErrorModel, Injector};
use sparkxd_snn::{BatchEvaluator, DiehlCookNetwork, ExecConfig, NeuronLabeler};

/// Configuration of the fault-aware training loop.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Increasing BER schedule (Algorithm 1's `rates`); the paper uses
    /// decade steps, e.g. `1e-9 … 1e-3`.
    pub ber_schedule: Vec<f64>,
    /// Training epochs at each scheduled rate (`N_epoch`).
    pub epochs_per_rate: usize,
    /// Accuracy bound below the error-free baseline (`acc_bound`); the
    /// paper uses 0.01 (1%).
    pub accuracy_bound: f64,
    /// DRAM error model used for injection (the paper uses Model 0).
    pub error_model: ErrorModel,
    /// Seed for error injection.
    pub injection_seed: u64,
    /// Seed for spike-train generation during training/evaluation.
    pub spike_seed: u64,
    /// Evaluation repetitions per rate (averaged; reduces Poisson noise).
    pub eval_trials: usize,
}

impl TrainingConfig {
    /// The paper's decade schedule from 1e-9 to 1e-3 with sensible
    /// defaults for the remaining knobs.
    pub fn paper_default() -> Self {
        Self {
            ber_schedule: vec![1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3],
            epochs_per_rate: 1,
            accuracy_bound: 0.01,
            error_model: ErrorModel::Model0,
            injection_seed: 0x5EED,
            spike_seed: 0x51_4B,
            eval_trials: 1,
        }
    }

    /// A short schedule for tests and demos.
    pub fn quick() -> Self {
        Self {
            ber_schedule: vec![1e-5, 1e-3],
            ..Self::paper_default()
        }
    }
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAwareOutcome {
    /// Error-free accuracy of the starting (baseline) model (`model0.acc`).
    pub baseline_accuracy: f64,
    /// Accuracy of the improved model evaluated *without* errors.
    pub improved_clean_accuracy: f64,
    /// `(ber, accuracy-under-that-ber)` pairs, one per scheduled rate.
    pub curve: Vec<(f64, f64)>,
    /// The maximum tolerable BER (`BER_th`), if any rate met the bound.
    pub max_tolerable_ber: Option<f64>,
    /// Neuron labelling of the improved model.
    pub labeler: NeuronLabeler,
}

/// Runs Algorithm 1 against a network in place.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAwareTrainer {
    config: TrainingConfig,
    /// Engine configuration every training epoch and evaluation runs
    /// under (wall time only; never the result).
    exec: ExecConfig,
}

impl FaultAwareTrainer {
    /// Creates a trainer with the given configuration, training and
    /// evaluating under `exec`.
    pub fn new(config: TrainingConfig, exec: ExecConfig) -> Self {
        Self { config, exec }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Measures accuracy of `net` under uniformly injected errors at
    /// `ber`, averaged over `trials` fresh error patterns. Weights are
    /// restored afterwards.
    ///
    /// Each trial's evaluation is sharded across samples by the parallel
    /// engine; the trials themselves stay sequential because they share
    /// one injector stream. Only one scratch weight copy is allocated for
    /// the whole call — it is corrupted, swapped in, and swapped back out,
    /// with only the plane rows the injection actually touched re-derived
    /// on each swap.
    pub fn accuracy_under_errors(
        &self,
        net: &mut DiehlCookNetwork,
        labeler: &NeuronLabeler,
        test: &Dataset,
        ber: f64,
        trials: usize,
        seed: u64,
    ) -> f64 {
        let mut injector = Injector::new(self.config.error_model, seed);
        let mut total = 0.0;
        let mut scratch = net.weights().clone();
        let mut touched = Vec::new();
        for trial in 0..trials.max(1) {
            scratch
                .as_mut_slice()
                .copy_from_slice(net.weights().as_slice());
            touched.clear();
            injector.inject_uniform_tracked(scratch.as_mut_slice(), ber, &mut touched);
            let rows = scratch.rows_of_words(&touched);
            net.swap_weights_rows(&mut scratch, &rows);
            let seed = self.config.spike_seed ^ (trial as u64) << 32;
            total += BatchEvaluator::new(self.exec).evaluate(net.params(), test, labeler, seed);
            net.swap_weights_rows(&mut scratch, &rows);
        }
        total / trials.max(1) as f64
    }

    /// Improves and analyses the error tolerance of `net` (Algorithm 1).
    ///
    /// `net` must already be trained error-free (the baseline `model0`);
    /// on return it holds the improved model (`model1`) — the weights from
    /// the highest scheduled BER whose accuracy met the bound, or from the
    /// last schedule step if none did.
    ///
    /// The rate steps are sequential by construction (each adapts the
    /// weights the next step starts from), but every labelling/evaluation
    /// inside a step runs sample-parallel on the batch engine.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice; returns [`CoreError`] for forward
    /// compatibility with fallible substrates.
    pub fn improve(
        &self,
        net: &mut DiehlCookNetwork,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<FaultAwareOutcome, CoreError> {
        let cfg = &self.config;
        let eval = BatchEvaluator::new(self.exec);
        // Baseline (model0) accuracy without errors.
        let labeler0 = eval.label_neurons(net.params(), train, cfg.spike_seed ^ 0xABCD);
        let baseline_accuracy =
            eval.evaluate(net.params(), test, &labeler0, cfg.spike_seed ^ 0xEF01);
        let target = baseline_accuracy - cfg.accuracy_bound;

        let mut injector = Injector::new(cfg.error_model, cfg.injection_seed);
        let mut curve = Vec::with_capacity(cfg.ber_schedule.len());
        let mut best: Option<(f64, DiehlCookNetwork, NeuronLabeler)> = None;

        for (step, &ber) in cfg.ber_schedule.iter().enumerate() {
            // Algorithm 1 lines 3-4: generate and inject errors into the
            // model, then train with them in place.
            net.with_weights_mut(|w| injector.inject_uniform(w.as_mut_slice(), ber));
            for epoch in 0..cfg.epochs_per_rate {
                let seed = cfg.spike_seed ^ ((step * 31 + epoch) as u64);
                net.train_epoch_with(train, seed, &self.exec);
            }
            // Lines 8-9: test the adapted model under this error rate.
            let labeler = eval.label_neurons(net.params(), train, cfg.spike_seed ^ 0xABCD);
            let acc = self.accuracy_under_errors(
                net,
                &labeler,
                test,
                ber,
                cfg.eval_trials,
                cfg.injection_seed ^ (step as u64) << 16,
            );
            curve.push((ber, acc));
            // Lines 10-13: keep the highest rate meeting the target.
            if acc >= target {
                best = Some((ber, net.clone(), labeler));
            }
        }

        let (max_tolerable_ber, labeler) = match best {
            Some((ber, model, labeler)) => {
                *net = model;
                (Some(ber), labeler)
            }
            None => (
                None,
                eval.label_neurons(net.params(), train, cfg.spike_seed ^ 0xABCD),
            ),
        };
        let improved_clean_accuracy =
            eval.evaluate(net.params(), test, &labeler, cfg.spike_seed ^ 0xEF01);
        Ok(FaultAwareOutcome {
            baseline_accuracy,
            improved_clean_accuracy,
            curve,
            max_tolerable_ber,
            labeler,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_data::{SynthDigits, SyntheticSource};
    use sparkxd_snn::SnnConfig;

    fn trained_net(neurons: usize, train: &Dataset) -> DiehlCookNetwork {
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(neurons).with_timesteps(40));
        net.train_epoch(train, 11);
        net
    }

    #[test]
    fn improve_produces_monotone_schedule_coverage() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let trainer = FaultAwareTrainer::new(TrainingConfig::quick(), ExecConfig::default());
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        assert_eq!(out.curve.len(), 2);
        assert!(out.curve[0].0 < out.curve[1].0);
        assert!(out.baseline_accuracy >= 0.0 && out.baseline_accuracy <= 1.0);
    }

    #[test]
    fn ber_th_is_from_schedule_when_present() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let mut cfg = TrainingConfig::quick();
        // A generous bound guarantees at least the first rate passes.
        cfg.accuracy_bound = 1.0;
        let trainer = FaultAwareTrainer::new(cfg.clone(), ExecConfig::default());
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        let ber = out.max_tolerable_ber.expect("bound of 1.0 always met");
        assert!(cfg.ber_schedule.contains(&ber));
        // With the full bound, the last (largest) rate wins.
        assert_eq!(ber, *cfg.ber_schedule.last().unwrap());
    }

    #[test]
    fn impossible_bound_yields_none() {
        let train = SynthDigits.generate(60, 1);
        let test = SynthDigits.generate(30, 2);
        let mut net = trained_net(30, &train);
        let mut cfg = TrainingConfig::quick();
        cfg.accuracy_bound = -2.0; // accuracy can never exceed baseline + 2
        let trainer = FaultAwareTrainer::new(cfg, ExecConfig::default());
        let out = trainer.improve(&mut net, &train, &test).unwrap();
        assert_eq!(out.max_tolerable_ber, None);
    }

    #[test]
    fn accuracy_under_errors_restores_weights() {
        let train = SynthDigits.generate(40, 1);
        let test = SynthDigits.generate(20, 2);
        let mut net = trained_net(20, &train);
        let labeler = net.label_neurons(&train, 3);
        let before = net.weights().clone();
        let trainer = FaultAwareTrainer::new(TrainingConfig::quick(), ExecConfig::default());
        let _ = trainer.accuracy_under_errors(&mut net, &labeler, &test, 1e-3, 2, 5);
        assert_eq!(net.weights(), &before);
    }

    #[test]
    fn training_under_errors_is_deterministic() {
        let train = SynthDigits.generate(40, 1);
        let test = SynthDigits.generate(20, 2);
        let run = || {
            let mut net = trained_net(20, &train);
            let trainer = FaultAwareTrainer::new(TrainingConfig::quick(), ExecConfig::default());
            let out = trainer.improve(&mut net, &train, &test).unwrap();
            (out.curve.clone(), net.weights().as_slice().to_vec())
        };
        assert_eq!(run(), run());
    }
}
