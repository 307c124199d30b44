//! Inference access-trace generation.
//!
//! In the paper's system model (Fig. 1/Sec. I), the SNN's synaptic weights
//! exceed on-chip storage, so each inference streams the weight image from
//! DRAM. The trace generator turns a [`Mapping`] plus a network shape into
//! the read trace of one (or several) inference passes, and reports the
//! workload numbers used by the platform energy-breakdown model.

use crate::mapping::Mapping;
use sparkxd_dram::CompressedTrace;
use sparkxd_energy::SnnWorkload;
use sparkxd_snn::{SnnConfig, WeightPrecision};

/// Number of burst columns needed to hold `n_words` weight words of the
/// given `precision`, with `col_bytes` bytes per column. Routes through
/// [`WeightPrecision::bytes_per_word`] — an int8 image packs 4× the words
/// per burst column of an FP32 one.
pub fn columns_for_words(n_words: usize, col_bytes: usize, precision: WeightPrecision) -> usize {
    let words_per_col = col_bytes / precision.bytes_per_word();
    n_words.div_ceil(words_per_col)
}

/// Number of burst columns needed for a network's full weight image at
/// the given storage precision.
pub fn columns_for_network(
    config: &SnnConfig,
    col_bytes: usize,
    precision: WeightPrecision,
) -> usize {
    columns_for_words(config.n_inputs * config.n_neurons, col_bytes, precision)
}

/// Read trace of `passes` complete inference passes over the mapped
/// weight image. Multi-pass traces use the compressed representation's
/// `repeat` count — one op sequence, replayed `passes` times — instead of
/// materializing per-pass copies.
pub fn inference_trace(mapping: &Mapping, passes: usize) -> CompressedTrace {
    mapping.read_trace().with_repeat(passes)
}

/// Workload descriptor of one inference pass (for the Fig. 1b platform
/// breakdowns): synaptic operations and spikes estimated from the input
/// statistics, memory traffic from the actual weight-image bytes at the
/// given storage precision.
pub fn workload_for_network(
    config: &SnnConfig,
    mean_intensity: f64,
    precision: WeightPrecision,
) -> SnnWorkload {
    let rate = (mean_intensity * config.encoder.max_rate_hz as f64 * config.encoder.dt_ms as f64
        / 1000.0)
        .clamp(0.0, 1.0);
    SnnWorkload::fully_connected_at_width(
        config.n_inputs,
        config.n_neurons,
        config.timesteps,
        rate,
        precision.bytes_per_word(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{BaselineMapping, MappingPolicy};
    use sparkxd_dram::DramGeometry;
    use sparkxd_error::ErrorProfile;

    #[test]
    fn column_count_rounds_up() {
        assert_eq!(columns_for_words(4, 16, WeightPrecision::Fp32), 1);
        assert_eq!(columns_for_words(5, 16, WeightPrecision::Fp32), 2);
        assert_eq!(columns_for_words(0, 16, WeightPrecision::Fp32), 0);
        assert_eq!(columns_for_words(16, 16, WeightPrecision::Int8), 1);
        assert_eq!(columns_for_words(17, 16, WeightPrecision::Int8), 2);
        assert_eq!(columns_for_words(8, 16, WeightPrecision::Int16), 1);
    }

    #[test]
    fn network_column_count_scales_with_size() {
        let small = columns_for_network(&SnnConfig::for_neurons(100), 16, WeightPrecision::Fp32);
        let large = columns_for_network(&SnnConfig::for_neurons(400), 16, WeightPrecision::Fp32);
        assert_eq!(small * 4, large);
        // N400: 784*400 words / 4 per column = 78,400 columns.
        assert_eq!(large, 78_400);
    }

    #[test]
    fn network_column_count_scales_with_precision() {
        // N400 at int8 packs 16 words per 16-byte column: 19,600 columns —
        // a quarter of the FP32 image's 78,400.
        let cfg = SnnConfig::for_neurons(400);
        assert_eq!(columns_for_network(&cfg, 16, WeightPrecision::Int8), 19_600);
        assert_eq!(
            columns_for_network(&cfg, 16, WeightPrecision::Int16),
            39_200
        );
    }

    #[test]
    fn trace_repeats_per_pass() {
        let g = DramGeometry::tiny();
        let p = ErrorProfile::uniform(0.0, g.total_subarrays());
        let m = BaselineMapping.map(10, &g, &p, 1.0).unwrap();
        let t = inference_trace(&m, 3);
        assert_eq!(t.len(), 30);
        let accesses: Vec<_> = t.iter().collect();
        assert_eq!(accesses[0].coord, accesses[10].coord);
        // `repeat` replaces materialized copies: the op sequence stays that
        // of a single pass.
        assert_eq!(t.repeat(), 3);
        assert_eq!(t.num_ops(), inference_trace(&m, 1).num_ops());
    }

    #[test]
    fn zero_passes_is_an_empty_trace() {
        let g = DramGeometry::tiny();
        let p = ErrorProfile::uniform(0.0, g.total_subarrays());
        let m = BaselineMapping.map(10, &g, &p, 1.0).unwrap();
        let t = inference_trace(&m, 0);
        assert!(t.is_empty());
        assert!(t.expand().is_empty());
    }

    #[test]
    fn multi_pass_trace_replays_like_materialized_copies() {
        use sparkxd_dram::{DramConfig, DramModel};
        let g = DramGeometry::tiny();
        let p = ErrorProfile::uniform(0.0, g.total_subarrays());
        let m = BaselineMapping.map(20, &g, &p, 1.0).unwrap();
        let compressed = inference_trace(&m, 4);
        let mut materialized = sparkxd_dram::CompressedTrace::new();
        for _ in 0..4 {
            materialized.extend(m.read_trace().iter());
        }
        let config = DramConfig::tiny();
        let batch = DramModel::new(config.clone()).replay(&compressed);
        let reference = DramModel::new(config).replay(&materialized.expand());
        assert_eq!(batch, reference);
    }

    #[test]
    fn workload_counts_weight_bytes() {
        let cfg = SnnConfig::for_neurons(100);
        let w = workload_for_network(&cfg, 0.1, WeightPrecision::Fp32);
        assert_eq!(w.memory_bytes, 784 * 100 * 4);
        assert!(w.synaptic_ops > 0);
    }

    #[test]
    fn workload_counts_actual_image_bytes_per_precision() {
        // Regression: memory traffic hardcoded 4 bytes/word, so a packed
        // image's workload over-reported its DRAM traffic 4×.
        let cfg = SnnConfig::for_neurons(100);
        let w8 = workload_for_network(&cfg, 0.1, WeightPrecision::Int8);
        let w16 = workload_for_network(&cfg, 0.1, WeightPrecision::Int16);
        assert_eq!(w8.memory_bytes, 784 * 100);
        assert_eq!(w16.memory_bytes, 784 * 100 * 2);
        // Compute-side numbers are precision-independent.
        let w32 = workload_for_network(&cfg, 0.1, WeightPrecision::Fp32);
        assert_eq!(w8.synaptic_ops, w32.synaptic_ops);
        assert_eq!(w8.spikes, w32.spikes);
    }
}
