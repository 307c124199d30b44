//! DRAM energy and throughput evaluation of a mapped model
//! (behind paper Fig. 12a/12b and Table I).

use crate::mapping::Mapping;
use sparkxd_circuit::Volt;
use sparkxd_dram::{AccessStats, DramConfig, DramModel, LatencyReport};
use sparkxd_energy::{EnergyBreakdown, EnergyModel};

/// Energy/latency outcome of streaming a mapped weight image once through
/// a DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyEvaluation {
    /// Mapping policy that produced the trace.
    pub policy: &'static str,
    /// Operating voltage.
    pub v_supply: Volt,
    /// Row-buffer statistics of the replay.
    pub stats: AccessStats,
    /// Latency report of the replay.
    pub latency: LatencyReport,
    /// Energy breakdown of the replay.
    pub breakdown: EnergyBreakdown,
}

impl EnergyEvaluation {
    /// Replays the mapping's read trace on `config` and prices it. Mapped
    /// weight images are long same-row bursts, so the replay is O(rows)
    /// rather than O(columns).
    pub fn evaluate(config: &DramConfig, mapping: &Mapping) -> Self {
        let mut model = DramModel::new(config.clone());
        let outcome = model.replay(&mapping.read_trace());
        let energy = EnergyModel::for_config(config);
        let breakdown = energy.trace_energy(&outcome.stats, &outcome.latency);
        // Energy per weight-image replay, in nJ so the log2 histogram
        // keeps resolution at demo scale (mJ values round to 0).
        sparkxd_telemetry::hist_record!("dram.replay_energy_nj", breakdown.total_nj());
        Self {
            policy: mapping.policy(),
            v_supply: config.v_supply,
            stats: outcome.stats,
            latency: outcome.latency,
            breakdown,
        }
    }

    /// Total DRAM energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.breakdown.total_mj()
    }

    /// Effective runtime of the streamed pass in nanoseconds (core-timing
    /// slowdown included via the energy model's convention).
    pub fn runtime_ns(&self) -> f64 {
        self.latency.total_ns
    }
}

/// Side-by-side comparison of the accurate-DRAM baseline and a
/// SparkXD-mapped approximate-DRAM configuration (the unit of Fig. 12).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyComparison {
    /// Baseline: accurate DRAM at nominal voltage, baseline mapping.
    pub baseline: EnergyEvaluation,
    /// SparkXD: approximate DRAM at reduced voltage, SparkXD mapping.
    pub improved: EnergyEvaluation,
}

impl EnergyComparison {
    /// Fractional DRAM energy saving of the improved configuration
    /// (`1 − E_improved / E_baseline`; ≈ 0.40 at 1.025 V in the paper).
    pub fn saving_fraction_vs_baseline(&self) -> f64 {
        1.0 - self.improved.total_mj() / self.baseline.total_mj()
    }

    /// Throughput speed-up of the improved configuration over the baseline
    /// (≈ 1.02× in the paper, thanks to the multi-bank burst mapping).
    pub fn speedup(&self) -> f64 {
        self.baseline.runtime_ns() / self.improved.runtime_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{BaselineMapping, MappingPolicy, SparkXdMapping};
    use sparkxd_error::ErrorProfile;

    fn comparison(n_columns: usize) -> EnergyComparison {
        let baseline_cfg = DramConfig::lpddr3_1600_4gb();
        let approx_cfg = DramConfig::approximate(Volt(1.025)).unwrap();
        let profile = ErrorProfile::uniform(1e-4, baseline_cfg.geometry.total_subarrays());
        let base_map = BaselineMapping
            .map(n_columns, &baseline_cfg.geometry, &profile, 1.0)
            .unwrap();
        let spark_map = SparkXdMapping
            .map(n_columns, &approx_cfg.geometry, &profile, 1e-3)
            .unwrap();
        EnergyComparison {
            baseline: EnergyEvaluation::evaluate(&baseline_cfg, &base_map),
            improved: EnergyEvaluation::evaluate(&approx_cfg, &spark_map),
        }
    }

    #[test]
    fn sparkxd_saves_meaningful_energy_at_lowest_voltage() {
        let cmp = comparison(4096);
        let saving = cmp.saving_fraction_vs_baseline();
        assert!(
            (0.30..0.48).contains(&saving),
            "saving {saving} out of the paper's ~0.40 band"
        );
    }

    #[test]
    fn sparkxd_maintains_throughput() {
        let cmp = comparison(4096);
        let speedup = cmp.speedup();
        assert!(
            speedup >= 0.95,
            "mapping must not cost meaningful throughput, got {speedup}"
        );
    }

    #[test]
    fn evaluation_reports_policy_and_voltage() {
        let cmp = comparison(512);
        assert_eq!(cmp.baseline.policy, "baseline");
        assert_eq!(cmp.improved.policy, "sparkxd");
        assert_eq!(cmp.baseline.v_supply, Volt(1.35));
        assert_eq!(cmp.improved.v_supply, Volt(1.025));
    }

    #[test]
    fn energy_scales_with_trace_length() {
        let small = comparison(512).baseline.total_mj();
        let large = comparison(4096).baseline.total_mj();
        assert!(large > small * 6.0, "energy should scale with accesses");
    }
}
