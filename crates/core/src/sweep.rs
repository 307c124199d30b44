//! Multi-device sweeps: accuracy/energy *distributions* instead of
//! single-instance numbers.
//!
//! Weak-cell maps are per-device (process variation), so any figure
//! measured on one `device_seed` is one draw from a distribution. A
//! [`DeviceSweep`] runs the full pipeline over a set of device seeds —
//! sharded across scoped worker threads, one pipeline per device — and
//! reports mean ± 95% CI for the headline metrics, the EnforceSNN-style
//! evaluation the ROADMAP calls for.

use crate::pipeline::{PipelineConfig, PipelineOutcome, SparkXdPipeline};
use crate::CoreError;
use sparkxd_snn::engine::parallel_map;
use std::ops::Range;

/// Summary statistics of one metric across the sweep's devices.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStat {
    /// Devices contributing.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval on the mean
    /// (`1.96 · σ / √n`; 0 for n < 2).
    pub ci95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl SweepStat {
    /// Computes the statistics of `samples` (all-zero stat when empty).
    pub fn from_samples(samples: &[f64]) -> Self {
        let n = samples.len();
        if n == 0 {
            return Self {
                n: 0,
                mean: 0.0,
                std_dev: 0.0,
                ci95: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * std_dev / (n as f64).sqrt()
        };
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Self {
            n,
            mean,
            std_dev,
            ci95,
            min,
            max,
        }
    }

    /// Lower edge of the 95% confidence interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper edge of the 95% confidence interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
}

impl std::fmt::Display for SweepStat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4} (n={})", self.mean, self.ci95, self.n)
    }
}

/// Everything a sweep produces: per-device outcomes plus cross-device
/// statistics of the headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSweepReport {
    /// `(device_seed, outcome)` for every device that completed.
    pub outcomes: Vec<(u64, PipelineOutcome)>,
    /// Devices whose pipeline failed (e.g. too few safe subarrays), with
    /// the error.
    pub failures: Vec<(u64, CoreError)>,
    /// Accuracy with errors injected through the actual mapping.
    pub accuracy_at_operating_point: SweepStat,
    /// Error-free accuracy of the improved model.
    pub improved_clean_accuracy: SweepStat,
    /// DRAM energy saving fraction vs the accurate baseline.
    pub energy_saving: SweepStat,
    /// Throughput speed-up vs the accurate baseline.
    pub speedup: SweepStat,
    /// Operating voltage (V) each device settled at.
    pub operating_voltage: SweepStat,
}

impl DeviceSweepReport {
    fn from_runs(runs: Vec<(u64, Result<PipelineOutcome, CoreError>)>) -> Self {
        let mut outcomes = Vec::new();
        let mut failures = Vec::new();
        for (seed, run) in runs {
            match run {
                Ok(outcome) => outcomes.push((seed, outcome)),
                Err(e) => failures.push((seed, e)),
            }
        }
        let metric = |f: &dyn Fn(&PipelineOutcome) -> f64| {
            SweepStat::from_samples(&outcomes.iter().map(|(_, o)| f(o)).collect::<Vec<_>>())
        };
        Self {
            accuracy_at_operating_point: metric(&|o| o.accuracy_at_operating_point),
            improved_clean_accuracy: metric(&|o| o.improved_clean_accuracy),
            energy_saving: metric(&|o| o.energy.saving_fraction_vs_baseline()),
            speedup: metric(&|o| o.energy.speedup()),
            operating_voltage: metric(&|o| o.operating_voltage.0),
            outcomes,
            failures,
        }
    }
}

/// Runs the pipeline over a range of device seeds (same workload, distinct
/// physical device instances), in parallel across devices.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSweep {
    base: PipelineConfig,
    seeds: Vec<u64>,
}

impl DeviceSweep {
    /// A sweep of `base` over explicit device seeds. Only `device_seed`
    /// varies between runs — dataset and training seeds stay at the base
    /// configuration's values, so the sweep isolates device variation.
    pub fn new(base: PipelineConfig, seeds: Vec<u64>) -> Self {
        Self { base, seeds }
    }

    /// A sweep over the contiguous seed range `seeds`.
    pub fn over_seed_range(base: PipelineConfig, seeds: Range<u64>) -> Self {
        Self::new(base, seeds.collect())
    }

    /// The device seeds this sweep covers.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// The base configuration every device run derives from.
    pub fn base(&self) -> &PipelineConfig {
        &self.base
    }

    /// Runs one pipeline per device seed on the worker pool and gathers
    /// the distribution report. Device order in the report follows the
    /// seed order regardless of scheduling.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptySweep`] when no seeds were given; the first
    /// device failure when *every* device failed. Partial failures are
    /// reported in [`DeviceSweepReport::failures`].
    pub fn run(&self) -> Result<DeviceSweepReport, CoreError> {
        if self.seeds.is_empty() {
            return Err(CoreError::EmptySweep);
        }
        let runs = parallel_map(
            &self.seeds,
            self.base.exec.worker_count(self.seeds.len()),
            |_, &device_seed| {
                let config = PipelineConfig {
                    device_seed,
                    ..self.base.clone()
                };
                (device_seed, SparkXdPipeline::new(config).run())
            },
        );
        let report = DeviceSweepReport::from_runs(runs);
        if report.outcomes.is_empty() {
            let (_, first_error) = report
                .failures
                .into_iter()
                .next()
                .expect("no outcomes and no failures is impossible for a non-empty sweep");
            return Err(first_error);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_base(seed: u64) -> PipelineConfig {
        PipelineConfig {
            neurons: 20,
            timesteps: 20,
            train_samples: 40,
            test_samples: 20,
            baseline_epochs: 1,
            ..PipelineConfig::small_demo(seed)
        }
    }

    #[test]
    fn stats_match_hand_computation() {
        let s = SweepStat::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.std_dev - 1.0).abs() < 1e-12);
        assert!((s.ci95 - 1.96 / 3f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.hi() - s.lo() - 2.0 * s.ci95).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_zero_spread() {
        let s = SweepStat::from_samples(&[0.5]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.mean, 0.5);
    }

    #[test]
    fn empty_sweep_is_an_error() {
        // A dedicated error, not a degenerate all-zero report — regression
        // guard for both constructors plus the error's message.
        let sweep = DeviceSweep::new(tiny_base(1), vec![]);
        assert!(matches!(sweep.run(), Err(CoreError::EmptySweep)));
        let empty_range = DeviceSweep::over_seed_range(tiny_base(1), 7..7);
        let err = empty_range.run().expect_err("empty seed range must error");
        assert_eq!(err, CoreError::EmptySweep);
        assert!(err.to_string().contains("at least one device seed"));
    }

    #[test]
    fn sweep_covers_every_device_and_is_deterministic() {
        let sweep = DeviceSweep::over_seed_range(tiny_base(1), 10..12);
        let a = sweep.run().expect("tiny sweep");
        assert_eq!(a.outcomes.len() + a.failures.len(), 2);
        assert_eq!(sweep.seeds(), &[10, 11]);
        let stat = &a.accuracy_at_operating_point;
        assert!(stat.n >= 1);
        assert!((0.0..=1.0).contains(&stat.mean));
        assert!(stat.min <= stat.mean && stat.mean <= stat.max);
        let b = sweep.run().expect("tiny sweep rerun");
        assert_eq!(a, b, "sweep must be deterministic");
    }

    #[test]
    fn sweep_varies_only_the_device_seed() {
        let base = tiny_base(3);
        let sweep = DeviceSweep::over_seed_range(base.clone(), 5..6);
        let report = sweep.run().expect("single-device sweep");
        let (seed, _) = report.outcomes[0];
        assert_eq!(seed, 5);
        // The equivalent single pipeline run must agree exactly.
        let direct = SparkXdPipeline::new(PipelineConfig {
            device_seed: 5,
            ..base
        })
        .run()
        .expect("direct run");
        assert_eq!(report.outcomes[0].1, direct);
    }
}
