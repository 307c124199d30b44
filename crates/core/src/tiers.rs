//! Voltage-tier model construction for the serving layer.
//!
//! The pipeline ([`crate::pipeline`]) picks **one** operating voltage per
//! experiment. An online service wants the opposite: several
//! corrupted-and-scrubbed model instances built **once**, each at a
//! different supply voltage, so a router can pick the cheapest tier that
//! still satisfies a request's accuracy floor, energy budget or deadline
//! slack (the EDEN-style per-workload operating-point selection).
//!
//! A [`TierModel`] is one such instance: the improved model's weights are
//! placed through the error-aware SparkXD mapping at that voltage's
//! per-subarray error profile, bit errors are injected through the actual
//! placements, and the corrupted image is scrubbed once into the
//! [`sparkxd_snn::EffectivePlane`] read path. Each tier is tagged with a
//! measured accuracy estimate (on a held-out calibration set) and the
//! per-inference DRAM energy/latency of streaming its mapping, priced by
//! the compressed-trace batch replay.
//!
//! [`TierBuilder::build`] runs the whole flow from a [`PipelineConfig`]
//! (baseline training + Algorithm 1, shared across tiers, then one
//! mapping/injection/calibration pass per voltage);
//! [`TierBuilder::build_from_model`] skips the training stages when the
//! caller already has a trained network.

use crate::energy_eval::EnergyEvaluation;
use crate::mapping::MappingPolicy;
use crate::pipeline::{MappingSummary, PipelineConfig};
use crate::trace_gen::columns_for_network;
use crate::training::FaultAwareTrainer;
use crate::CoreError;
use sparkxd_circuit::Volt;
use sparkxd_dram::DramConfig;
use sparkxd_error::{Injector, WeakCellMap};
use sparkxd_snn::engine::BatchEvaluator;
use sparkxd_snn::{
    DiehlCookNetwork, NetworkParams, NeuronLabeler, QuantizedImage, WeightPrecision,
};

/// One deployable operating point: a corrupted-and-scrubbed model instance
/// at a fixed supply voltage and storage precision, tagged with everything
/// a router needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TierModel {
    /// DRAM supply voltage this tier operates at.
    pub v_supply: Volt,
    /// Storage precision of the tier's DRAM weight image. A quantised
    /// tier streams a 4×/2× smaller image (proportionally smaller trace
    /// and energy) and was injected at the native word width.
    pub precision: WeightPrecision,
    /// Device-level BER at that voltage.
    pub operating_ber: f64,
    /// The tier's inference parameters: improved weights corrupted through
    /// the tier's mapping, scrub (clamp) applied once on plane build.
    pub params: NetworkParams,
    /// Neuron-class assignments of the improved model.
    pub labeler: NeuronLabeler,
    /// Accuracy measured on the held-out calibration set with this tier's
    /// corrupted weights.
    pub accuracy_estimate: f64,
    /// DRAM energy (mJ) of streaming the tier's weight image once — the
    /// per-inference DRAM cost in the paper's system model; a batch of B
    /// amortises one pass across B inferences.
    pub dram_pass_mj: f64,
    /// DRAM latency (ns) of that same single pass.
    pub dram_pass_ns: f64,
    /// Summary of the error-aware mapping backing this tier.
    pub mapping: MappingSummary,
}

/// The product of tier construction: the usable ladder plus the voltages
/// that could not be deployed on this device.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSet {
    /// Usable tiers, ascending by supply voltage (index 0 is the most
    /// aggressive / lowest-energy tier).
    pub tiers: Vec<TierModel>,
    /// Voltages that failed tier construction (typically
    /// [`CoreError::InsufficientSafeCapacity`] when too few subarrays meet
    /// `BER_th` at that voltage), with the error.
    pub skipped: Vec<(Volt, CoreError)>,
    /// The maximum tolerable BER the ladder was built against.
    pub ber_th: f64,
}

/// Builds a [`TierSet`] from a [`PipelineConfig`] and a voltage ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct TierBuilder {
    config: PipelineConfig,
    voltages: Vec<Volt>,
    rungs: Option<Vec<(Volt, WeightPrecision)>>,
    calibration_eval: Option<BatchEvaluator>,
}

impl TierBuilder {
    /// A builder over `config` with the default three-step ladder
    /// (1.025 V, 1.1 V, 1.175 V — the aggressive half of the paper's
    /// operating points).
    pub fn new(config: PipelineConfig) -> Self {
        Self {
            config,
            voltages: vec![Volt(1.025), Volt(1.1), Volt(1.175)],
            rungs: None,
            calibration_eval: None,
        }
    }

    /// Replaces the voltage ladder (builder style). Every rung inherits
    /// the configuration's storage precision; use
    /// [`with_rungs`](Self::with_rungs) for a mixed-precision ladder.
    pub fn with_voltages(mut self, voltages: Vec<Volt>) -> Self {
        self.voltages = voltages;
        self.rungs = None;
        self
    }

    /// Replaces the ladder with explicit `(voltage, precision)` rungs, so
    /// one ladder can mix e.g. an "int8 @ low Vdd" aggressive tier with an
    /// FP32 fallback at nominal voltage.
    pub fn with_rungs(mut self, rungs: Vec<(Volt, WeightPrecision)>) -> Self {
        self.rungs = Some(rungs);
        self
    }

    /// Pins the engine configuration (threads / batch / tile width) used
    /// to measure each tier's calibration accuracy, instead of reading
    /// the `SPARKXD_*` environment. Paper-scale ladders (N3600) want the
    /// tiled batched path here: calibration is a full evaluation pass per
    /// voltage, and the engine guarantees the measured accuracy is
    /// bit-identical for **any** evaluator configuration.
    pub fn with_calibration_eval(mut self, eval: BatchEvaluator) -> Self {
        self.calibration_eval = Some(eval);
        self
    }

    /// The configuration tiers are built from.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The voltage ladder.
    pub fn voltages(&self) -> &[Volt] {
        &self.voltages
    }

    /// The effective `(voltage, precision)` rungs the ladder is built
    /// from: the explicit [`with_rungs`](Self::with_rungs) list when set,
    /// otherwise every voltage at the configuration's precision.
    pub fn rungs(&self) -> Vec<(Volt, WeightPrecision)> {
        match &self.rungs {
            Some(r) => r.clone(),
            None => self
                .voltages
                .iter()
                .map(|&v| (v, self.config.precision))
                .collect(),
        }
    }

    /// Runs the full flow: baseline training, fault-aware improvement
    /// (Algorithm 1, shared across every tier) and one
    /// mapping/injection/calibration pass per voltage.
    ///
    /// Seed derivations mirror [`crate::pipeline::SparkXdPipeline`]'s
    /// stages, so the improved model matches what a single-voltage
    /// pipeline run at the same configuration would deploy.
    ///
    /// # Errors
    ///
    /// [`CoreError::EmptyTierSet`] when the ladder is empty,
    /// [`CoreError::NoToleratedBer`] when the BER schedule is empty, the
    /// first per-voltage error when *every* voltage failed, and anything
    /// Algorithm 1 propagates.
    pub fn build(&self) -> Result<TierSet, CoreError> {
        let cfg = &self.config;
        if self.rungs().is_empty() {
            return Err(CoreError::EmptyTierSet);
        }
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let test = cfg
            .dataset
            .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57);
        let snn_config = sparkxd_snn::SnnConfig::for_neurons(cfg.neurons)
            .with_timesteps(cfg.timesteps)
            .with_weight_seed(cfg.device_seed ^ 0x11);
        let mut net = DiehlCookNetwork::new(snn_config);
        for epoch in 0..cfg.baseline_epochs {
            net.train_epoch(&train, cfg.training.spike_seed ^ (epoch as u64));
        }
        let outcome =
            FaultAwareTrainer::new(cfg.training.clone()).improve(&mut net, &train, &test)?;
        let ber_th = match outcome.max_tolerable_ber {
            Some(b) => b,
            None => cfg
                .training
                .ber_schedule
                .first()
                .copied()
                .ok_or(CoreError::NoToleratedBer)?,
        };
        self.assemble(&net, &outcome.labeler, &test, ber_th)
    }

    /// Builds the ladder around an externally trained (ideally
    /// fault-aware-improved) network, skipping the training stages — the
    /// fast path for serving binaries that already hold a model.
    ///
    /// The calibration set and the neuron labelling are derived from the
    /// builder's configuration seeds, exactly as [`build`](Self::build)
    /// would.
    ///
    /// # Errors
    ///
    /// Same per-voltage errors as [`build`](Self::build).
    pub fn build_from_model(
        &self,
        net: &DiehlCookNetwork,
        ber_th: f64,
    ) -> Result<TierSet, CoreError> {
        let cfg = &self.config;
        if self.rungs().is_empty() {
            return Err(CoreError::EmptyTierSet);
        }
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let test = cfg
            .dataset
            .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57);
        let labeler = net.label_neurons(&train, cfg.training.spike_seed ^ 0xABCD);
        self.assemble(net, &labeler, &test, ber_th)
    }

    /// One mapping/injection/calibration pass per ladder rung against an
    /// already-improved model.
    fn assemble(
        &self,
        net: &DiehlCookNetwork,
        labeler: &NeuronLabeler,
        calibration: &sparkxd_data::Dataset,
        ber_th: f64,
    ) -> Result<TierSet, CoreError> {
        let mut rungs = self.rungs();
        // Ascending voltage; at equal voltage the narrower (cheaper) image
        // first, mirroring the "most aggressive tier first" ordering.
        rungs.sort_by(|a, b| {
            a.0 .0
                .total_cmp(&b.0 .0)
                .then(a.1.word_bits().cmp(&b.1.word_bits()))
        });
        rungs.dedup();

        let mut tiers = Vec::with_capacity(rungs.len());
        let mut skipped = Vec::new();
        for (v, precision) in rungs {
            match self.build_tier(net, labeler, calibration, ber_th, v, precision) {
                Ok(tier) => tiers.push(tier),
                Err(e) => skipped.push((v, e)),
            }
        }
        if tiers.is_empty() {
            let (_, first_error) = skipped
                .into_iter()
                .next()
                .expect("non-empty ladder with no tiers must have failures");
            return Err(first_error);
        }
        Ok(TierSet {
            tiers,
            skipped,
            ber_th,
        })
    }

    /// Builds one tier: device profile at `v`, error-aware mapping under
    /// `ber_th` at the rung's storage precision, placement-shaped injection
    /// into a copy of the improved weights at the native word width
    /// (scrubbed once on plane rebuild), calibration-set accuracy and
    /// compressed-trace energy/latency pricing.
    fn build_tier(
        &self,
        net: &DiehlCookNetwork,
        labeler: &NeuronLabeler,
        calibration: &sparkxd_data::Dataset,
        ber_th: f64,
        v: Volt,
        precision: WeightPrecision,
    ) -> Result<TierModel, CoreError> {
        let _span = sparkxd_telemetry::span!("core.build_tier");
        sparkxd_telemetry::counter_add!("core.tiers_built", 1);
        let cfg = &self.config;
        let operating_ber = cfg.ber_curve.ber_at(v);
        let approx_config = DramConfig::approximate(v)?;
        let weak_cells = WeakCellMap::generate(&approx_config.geometry, cfg.device_seed);
        let profile = weak_cells.profile(operating_ber);
        let n_columns =
            columns_for_network(net.config(), approx_config.geometry.col_bytes, precision);
        let mapping = crate::mapping::SparkXdMapping
            .map(n_columns, &approx_config.geometry, &profile, ber_th)?
            .with_precision(precision);

        // Corrupt a copy of the improved weights through the tier's actual
        // placements; `set_weights` rebuilds the effective plane, which is
        // where the one-time scrub (clamp) happens. A quantised rung packs
        // the image first and flips bits in the packed codes.
        let mut params = net.params().clone();
        let mut injector = Injector::new(cfg.training.error_model, cfg.device_seed ^ v.0.to_bits());
        if precision.is_quantized() {
            let mut image = QuantizedImage::quantize(params.weights(), precision);
            let placements = mapping.placements(image.words());
            let word_bits = image.word_bits();
            injector.inject_packed_with_placements(
                image.payload_mut(),
                word_bits,
                &placements,
                &profile,
            )?;
            params.set_weights(image.dequantize());
        } else {
            let placements = mapping.placements(params.weights().len());
            let mut corrupted = params.weights().clone();
            injector.inject_with_placements(corrupted.as_mut_slice(), &placements, &profile)?;
            params.set_weights(corrupted);
        }

        let accuracy_estimate = self
            .calibration_eval
            .unwrap_or_else(BatchEvaluator::from_env)
            .evaluate(
                &params,
                calibration,
                labeler,
                cfg.training.spike_seed ^ 0x71E5,
            );
        let energy = EnergyEvaluation::evaluate(&approx_config, &mapping);
        Ok(TierModel {
            v_supply: v,
            precision,
            operating_ber,
            params,
            labeler: labeler.clone(),
            accuracy_estimate,
            dram_pass_mj: energy.total_mj(),
            dram_pass_ns: energy.runtime_ns(),
            mapping: MappingSummary {
                policy: mapping.policy(),
                columns: mapping.len(),
                subarrays_used: mapping.subarrays_used().len(),
                safe_fraction: profile.safe_fraction(ber_th),
                word_bits: precision.word_bits(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    fn tiny_config(seed: u64) -> PipelineConfig {
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
    fn empty_ladder_is_an_error() {
        let b = TierBuilder::new(tiny_config(1)).with_voltages(vec![]);
        assert!(matches!(b.build(), Err(CoreError::EmptyTierSet)));
    }

    #[test]
    fn ladder_builds_ascending_tagged_tiers() {
        let set = TierBuilder::new(tiny_config(2))
            .build()
            .expect("tiny ladder builds");
        assert!(!set.tiers.is_empty());
        for pair in set.tiers.windows(2) {
            assert!(pair[0].v_supply.0 < pair[1].v_supply.0, "ascending order");
            // Lower voltage streams cheaper: DRAM energy must be monotone
            // in the supply voltage for a fixed image size.
            assert!(pair[0].dram_pass_mj < pair[1].dram_pass_mj);
        }
        for tier in &set.tiers {
            assert!((0.0..=1.0).contains(&tier.accuracy_estimate));
            assert!(tier.dram_pass_mj > 0.0);
            assert!(tier.dram_pass_ns > 0.0);
            assert_eq!(tier.mapping.policy, "sparkxd");
            assert!(tier.mapping.columns > 0);
            // The tag must be exactly the curve's value at the tier's
            // voltage — a swapped lookup would ship a wrong routing tag.
            let expected_ber = tiny_config(2).ber_curve.ber_at(tier.v_supply);
            assert_eq!(tier.operating_ber, expected_ber);
        }
    }

    #[test]
    fn tier_construction_is_deterministic() {
        let build = || TierBuilder::new(tiny_config(3)).build().unwrap();
        assert_eq!(build(), build());
    }

    #[test]
    fn calibration_eval_config_cannot_change_the_ladder() {
        // The pinned calibration evaluator decides *how fast* accuracy is
        // measured, never *what* is measured: any (threads, batch, tile)
        // point must tag every tier with the same accuracy as the serial
        // one-sample-at-a-time reference.
        let reference = TierBuilder::new(tiny_config(5))
            .with_calibration_eval(BatchEvaluator::with_threads(1).with_batch(1))
            .build()
            .unwrap();
        for eval in [
            BatchEvaluator::with_threads(2).with_batch(8),
            BatchEvaluator::with_threads(1).with_batch(3).with_tile(1),
            BatchEvaluator::with_threads(2).with_batch(4).with_tile(7),
        ] {
            let set = TierBuilder::new(tiny_config(5))
                .with_calibration_eval(eval)
                .build()
                .unwrap();
            assert_eq!(set, reference, "diverged under {eval:?}");
        }
    }

    #[test]
    fn quantized_rungs_build_cheaper_tiers_at_the_same_voltage() {
        let cfg = tiny_config(6);
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let snn_config = sparkxd_snn::SnnConfig::for_neurons(cfg.neurons)
            .with_timesteps(cfg.timesteps)
            .with_weight_seed(cfg.device_seed ^ 0x11);
        let mut net = DiehlCookNetwork::new(snn_config);
        net.train_epoch(&train, 1);
        let set = TierBuilder::new(cfg)
            .with_rungs(vec![
                (Volt(1.1), WeightPrecision::Fp32),
                (Volt(1.1), WeightPrecision::Int8),
                (Volt(1.1), WeightPrecision::Int16),
            ])
            .build_from_model(&net, 1e-4)
            .expect("mixed-precision ladder builds");
        assert_eq!(set.tiers.len(), 3);
        // Narrower image first at equal voltage.
        let widths: Vec<u32> = set.tiers.iter().map(|t| t.precision.word_bits()).collect();
        assert_eq!(widths, vec![8, 16, 32]);
        let by_width = |bits: u32| {
            set.tiers
                .iter()
                .find(|t| t.precision.word_bits() == bits)
                .unwrap()
        };
        let (t8, t16, t32) = (by_width(8), by_width(16), by_width(32));
        // A packed image streams proportionally fewer burst columns, so the
        // per-pass DRAM cost must drop with the word width.
        assert_eq!(t8.mapping.columns * 4, t32.mapping.columns);
        assert_eq!(t16.mapping.columns * 2, t32.mapping.columns);
        assert_eq!(t8.mapping.word_bits, 8);
        assert!(t8.dram_pass_mj < t16.dram_pass_mj);
        assert!(t16.dram_pass_mj < t32.dram_pass_mj);
        assert!(t8.dram_pass_ns < t32.dram_pass_ns);
        for tier in &set.tiers {
            assert!((0.0..=1.0).contains(&tier.accuracy_estimate));
        }
    }

    #[test]
    fn voltage_ladder_inherits_config_precision() {
        let cfg = tiny_config(7).with_precision(WeightPrecision::Int8);
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let snn_config = sparkxd_snn::SnnConfig::for_neurons(cfg.neurons)
            .with_timesteps(cfg.timesteps)
            .with_weight_seed(cfg.device_seed ^ 0x11);
        let mut net = DiehlCookNetwork::new(snn_config);
        net.train_epoch(&train, 1);
        let builder = TierBuilder::new(cfg).with_voltages(vec![Volt(1.05), Volt(1.15)]);
        assert!(builder
            .rungs()
            .iter()
            .all(|(_, p)| *p == WeightPrecision::Int8));
        let set = builder.build_from_model(&net, 1e-4).expect("int8 ladder");
        for tier in &set.tiers {
            assert_eq!(tier.precision, WeightPrecision::Int8);
            assert_eq!(tier.mapping.word_bits, 8);
        }
    }

    #[test]
    fn mixed_rung_ladder_is_deterministic() {
        let build = || {
            let cfg = tiny_config(8);
            let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
            let snn_config = sparkxd_snn::SnnConfig::for_neurons(cfg.neurons)
                .with_timesteps(cfg.timesteps)
                .with_weight_seed(cfg.device_seed ^ 0x11);
            let mut net = DiehlCookNetwork::new(snn_config);
            net.train_epoch(&train, 1);
            TierBuilder::new(cfg)
                .with_rungs(vec![
                    (Volt(1.05), WeightPrecision::Int8),
                    (Volt(1.175), WeightPrecision::Fp32),
                ])
                .build_from_model(&net, 1e-4)
                .unwrap()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn build_from_model_skips_training_but_matches_shape() {
        let cfg = tiny_config(4);
        let train = cfg.dataset.generate(cfg.train_samples, cfg.data_seed);
        let snn_config = sparkxd_snn::SnnConfig::for_neurons(cfg.neurons)
            .with_timesteps(cfg.timesteps)
            .with_weight_seed(cfg.device_seed ^ 0x11);
        let mut net = DiehlCookNetwork::new(snn_config);
        net.train_epoch(&train, 1);
        let set = TierBuilder::new(cfg)
            .with_voltages(vec![Volt(1.05), Volt(1.15)])
            .build_from_model(&net, 1e-4)
            .expect("prebuilt model ladder");
        assert_eq!(set.ber_th, 1e-4);
        assert!(!set.tiers.is_empty());
        for tier in &set.tiers {
            assert_eq!(tier.params.config().n_neurons, 20);
        }
    }
}
