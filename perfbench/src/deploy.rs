//! Deployment of a trained model onto approximate DRAM from public
//! calls, one span per layer: weak-cell profile, SparkXD mapping,
//! placement-shaped injection, plane rebuild (scrub) and the priced
//! trace replay. The seed derivations are the ones
//! `TierBuilder::build_from_model` uses, so a traced serve run can
//! rebuild the tier ladder step by step and compare.

use crate::trace::Tracer;
use crate::work::Work;
use sparkxd_circuit::Volt;
use sparkxd_core::mapping::{Mapping, MappingPolicy, SparkXdMapping};
use sparkxd_core::pipeline::PipelineConfig;
use sparkxd_core::trace_gen::columns_for_network;
use sparkxd_core::{CoreError, EnergyEvaluation};
use sparkxd_dram::DramConfig;
use sparkxd_error::{ErrorProfile, Injector, WeakCellMap};
use sparkxd_snn::{DiehlCookNetwork, NetworkParams, WeightPrecision};

/// A model deployed at one supply voltage.
pub struct Deployed {
    /// Corrupted-and-scrubbed inference parameters.
    pub params: NetworkParams,
    /// Device-level BER at the voltage.
    pub operating_ber: f64,
    /// The per-subarray error profile at that BER.
    pub profile: ErrorProfile,
    /// The error-aware mapping of the weight image.
    pub mapping: Mapping,
    /// DRAM energy/latency of one pass over the mapped image.
    pub energy: EnergyEvaluation,
}

/// Deploys `net` at `v` under `ber_th`, with `config`'s device seed,
/// BER curve and error model.
///
/// # Errors
///
/// The mapping's [`CoreError::InsufficientSafeCapacity`] and any
/// substrate error.
pub fn deploy(
    net: &DiehlCookNetwork,
    v: Volt,
    ber_th: f64,
    config: &PipelineConfig,
    tracer: &Tracer,
    work: &mut Work,
) -> Result<Deployed, CoreError> {
    let operating_ber = config.ber_curve.ber_at(v);
    let approx = DramConfig::approximate(v)?;
    let profile = tracer.span("core.weak_cells", || {
        WeakCellMap::generate(&approx.geometry, config.device_seed).profile(operating_ber)
    });
    let mapping = tracer.span("core.mapping", || {
        let columns = columns_for_network(
            net.config(),
            approx.geometry.col_bytes,
            WeightPrecision::Fp32,
        );
        SparkXdMapping
            .map(columns, &approx.geometry, &profile, ber_th)
            .map(|m| m.with_precision(WeightPrecision::Fp32))
    })?;
    let mut params = net.params().clone();
    let mut injector = Injector::new(
        config.training.error_model,
        config.device_seed ^ v.0.to_bits(),
    );
    let placements = mapping.placements(params.weights().len());
    let mut corrupted = params.weights().clone();
    let report = tracer.span("error.inject", || {
        injector.inject_with_placements(corrupted.as_mut_slice(), &placements, &profile)
    })?;
    work.placed_injection(&report, &placements, &profile);
    tracer.span("snn.plane_rebuild", || params.set_weights(corrupted));
    let (energy, ops) = tracer.span("dram.replay", || {
        (
            EnergyEvaluation::evaluate(&approx, &mapping),
            mapping.read_trace().len(),
        )
    });
    work.replay(ops, &energy);
    Ok(Deployed {
        params,
        operating_ber,
        profile,
        mapping,
        energy,
    })
}
