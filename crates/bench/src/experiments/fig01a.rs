//! Fig. 1(a): accuracy of small vs large SNN models.
//!
//! Paper: a 200-neuron (~1 MB) SNN reaches ~75% on MNIST while a
//! 9800-neuron (~200 MB) model reaches ~92% — motivating large models and
//! hence heavy DRAM traffic. We reproduce the *shape* (bigger is better)
//! across the scale's network sizes.

use crate::scale::Scale;
use crate::table::TextTable;
use sparkxd_core::pipeline::DatasetKind;
use sparkxd_snn::{BatchEvaluator, DiehlCookNetwork, ExecConfig, SnnConfig};

/// One size's result.
#[derive(Debug, Clone, PartialEq)]
pub struct SizePoint {
    /// Excitatory neurons.
    pub neurons: usize,
    /// Model size in megabytes (FP32 weights).
    pub model_mb: f64,
    /// Test accuracy.
    pub accuracy: f64,
}

/// Trains one error-free model per network size and measures accuracy.
pub fn run(scale: &Scale, exec: &ExecConfig, seed: u64) -> Vec<SizePoint> {
    let eval = BatchEvaluator::new(*exec);
    let train = DatasetKind::Digits.generate(scale.train_samples, seed ^ 0xDA7A);
    let test = DatasetKind::Digits.generate(scale.test_samples, seed ^ 0x7E57);
    scale
        .network_sizes
        .iter()
        .map(|&neurons| {
            let config = SnnConfig::for_neurons(neurons)
                .with_timesteps(scale.timesteps)
                .with_weight_seed(seed ^ 0x11);
            let mut net = DiehlCookNetwork::new(config);
            for epoch in 0..scale.baseline_epochs {
                net.train_epoch_with(&train, seed ^ (0x100 + epoch as u64), exec);
            }
            let labeler = eval.label_neurons(net.params(), &train, seed ^ 0xABCD);
            let accuracy = eval.evaluate(net.params(), &test, &labeler, seed ^ 0xEF01);
            SizePoint {
                neurons,
                model_mb: (784 * neurons * 4) as f64 / 1e6,
                accuracy,
            }
        })
        .collect()
}

/// Renders the paper-style rows.
pub fn print(points: &[SizePoint]) -> String {
    let mut t = TextTable::new(vec![
        "neurons".into(),
        "model size".into(),
        "accuracy".into(),
    ]);
    for p in points {
        t.row(vec![
            format!("{}", p.neurons),
            format!("{:.1} MB", p.model_mb),
            format!("{:.1}%", p.accuracy * 100.0),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn larger_models_do_not_get_worse_at_micro_scale() {
        let scale = Scale {
            label: "micro",
            network_sizes: vec![10, 60],
            train_samples: 100,
            test_samples: 50,
            baseline_epochs: 2,
            epochs_per_rate: 1,
            timesteps: 40,
            eval_trials: 1,
        };
        let pts = run(&scale, &ExecConfig::default(), 3);
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].accuracy >= pts[0].accuracy - 0.05,
            "large ({:.2}) must not trail small ({:.2}) meaningfully",
            pts[1].accuracy,
            pts[0].accuracy
        );
        assert!(print(&pts).contains("MB"));
    }
}
