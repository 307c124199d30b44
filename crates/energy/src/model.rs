//! Current-based DRAM command energy model (DRAMPower-style).

use sparkxd_circuit::Volt;
use sparkxd_dram::{AccessStats, DramConfig, DramTiming, LatencyReport};

use crate::access::AccessEnergy;

/// IDD current classes of the device at nominal voltage, in amperes.
///
/// Values are *effective module-level* currents calibrated so the nominal
/// per-access energies reproduce the paper's Fig. 2(b) (row-buffer hit
/// ≈ 2 nJ, miss ≈ 5.5 nJ, conflict ≈ 7 nJ at 1.35 V). The calibration is
/// documented in `DESIGN.md`; only ratios across voltages and access
/// conditions matter downstream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentProfile {
    /// Activate-precharge current (one ACT+PRE cycle average).
    pub idd0: f64,
    /// Precharge-standby background current.
    pub idd2n: f64,
    /// Active-standby background current.
    pub idd3n: f64,
    /// Read burst current.
    pub idd4r: f64,
    /// Write burst current.
    pub idd4w: f64,
    /// Nominal supply voltage the currents were measured at.
    pub v_nominal: Volt,
    /// I/O + termination energy per transferred bit, in picojoules.
    pub io_pj_per_bit: f64,
    /// Exponent of current-vs-voltage scaling (`I ∝ (V/Vn)^k`); 1.0 gives
    /// the `V²` command-energy scaling observed by Voltron/EDEN.
    pub current_exponent: f64,
}

impl CurrentProfile {
    /// Calibrated LPDDR3-1600 4Gb profile (see struct docs).
    pub fn lpddr3_1600_4gb() -> Self {
        Self {
            idd0: 0.105,
            idd2n: 0.032,
            idd3n: 0.039,
            idd4r: 0.141,
            idd4w: 0.130,
            v_nominal: Volt(1.35),
            io_pj_per_bit: 10.0,
            current_exponent: 1.0,
        }
    }

    /// Current scaling factor at supply `v`.
    pub fn current_scale(&self, v: Volt) -> f64 {
        (v.0 / self.v_nominal.0).powf(self.current_exponent)
    }
}

impl Default for CurrentProfile {
    fn default() -> Self {
        Self::lpddr3_1600_4gb()
    }
}

/// Energy totals for one replayed trace, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Activation energy.
    pub act_nj: f64,
    /// Precharge energy.
    pub pre_nj: f64,
    /// Read burst energy (incl. I/O).
    pub read_nj: f64,
    /// Write burst energy (incl. I/O).
    pub write_nj: f64,
    /// Background (standby) energy over the trace runtime.
    pub background_nj: f64,
}

impl EnergyBreakdown {
    /// Total energy in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.act_nj + self.pre_nj + self.read_nj + self.write_nj + self.background_nj
    }

    /// Total energy in millijoules.
    pub fn total_mj(&self) -> f64 {
        self.total_nj() * 1e-6
    }
}

impl std::fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "act={:.1}nJ pre={:.1}nJ rd={:.1}nJ wr={:.1}nJ bg={:.1}nJ total={:.1}nJ",
            self.act_nj,
            self.pre_nj,
            self.read_nj,
            self.write_nj,
            self.background_nj,
            self.total_nj()
        )
    }
}

/// DRAM energy model bound to one device configuration (geometry, timing,
/// supply voltage).
///
/// Command energies are charge-based: the IDD charge moved at *nominal*
/// command duration, scaled to the operating voltage. The slowed core
/// timing at reduced voltage therefore does not inflate command energy (the
/// restore moves the same charge, just more slowly), but it does extend the
/// runtime over which background power accrues — matching the relationship
/// between the paper's Table I (per-access savings) and Fig. 12(a)
/// (slightly smaller end-to-end savings).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    currents: CurrentProfile,
    config: DramConfig,
}

impl EnergyModel {
    /// Builds a model for `config` with the default calibrated currents.
    pub fn for_config(config: &DramConfig) -> Self {
        Self {
            currents: CurrentProfile::lpddr3_1600_4gb(),
            config: config.clone(),
        }
    }

    /// Builds a model with explicit currents.
    pub fn with_currents(config: &DramConfig, currents: CurrentProfile) -> Self {
        Self {
            currents,
            config: config.clone(),
        }
    }

    /// Supply voltage of the bound configuration.
    pub fn v_supply(&self) -> Volt {
        self.config.v_supply
    }

    /// The bound configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn v(&self) -> f64 {
        self.config.v_supply.0
    }

    /// Scale applied to every command energy relative to nominal:
    /// `(I(V)·V) / (I(Vn)·Vn) = (V/Vn)^(1+k)`.
    pub fn command_energy_scale(&self) -> f64 {
        self.currents.current_scale(self.config.v_supply) * self.v() / self.currents.v_nominal.0
    }

    /// Energy of one activate command (nJ).
    pub fn act_energy_nj(&self) -> f64 {
        let t = DramTiming::lpddr3_1600_nominal();
        let c = &self.currents;
        (c.idd0 - c.idd3n) * c.v_nominal.0 * t.t_ras * self.command_energy_scale()
    }

    /// Energy of one precharge command (nJ).
    pub fn pre_energy_nj(&self) -> f64 {
        let t = DramTiming::lpddr3_1600_nominal();
        let c = &self.currents;
        (c.idd0 - c.idd2n) * c.v_nominal.0 * t.t_rp * self.command_energy_scale()
    }

    /// Energy of one read burst including I/O (nJ).
    pub fn read_energy_nj(&self) -> f64 {
        let t = DramTiming::lpddr3_1600_nominal();
        let c = &self.currents;
        let core = (c.idd4r - c.idd3n) * c.v_nominal.0 * t.t_burst;
        let bits = (self.config.geometry.col_bytes * 8) as f64;
        let io = c.io_pj_per_bit * 1e-3 * bits;
        (core + io) * self.command_energy_scale()
    }

    /// Energy of one write burst including I/O (nJ).
    pub fn write_energy_nj(&self) -> f64 {
        let t = DramTiming::lpddr3_1600_nominal();
        let c = &self.currents;
        let core = (c.idd4w - c.idd3n) * c.v_nominal.0 * t.t_burst;
        let bits = (self.config.geometry.col_bytes * 8) as f64;
        let io = c.io_pj_per_bit * 1e-3 * bits;
        (core + io) * self.command_energy_scale()
    }

    /// Background power (W) while active, at the operating voltage.
    pub fn background_power_w(&self) -> f64 {
        let c = &self.currents;
        c.idd3n * self.currents.current_scale(self.config.v_supply) * self.v()
    }

    /// Per-access energies by row-buffer condition (paper Fig. 2b).
    pub fn access_energy(&self) -> AccessEnergy {
        AccessEnergy {
            v_supply: self.config.v_supply,
            hit_nj: self.read_energy_nj(),
            miss_nj: self.act_energy_nj() + self.read_energy_nj(),
            conflict_nj: self.pre_energy_nj() + self.act_energy_nj() + self.read_energy_nj(),
        }
    }

    /// Energy of a replayed trace from its statistics and latency report.
    pub fn trace_energy(&self, stats: &AccessStats, latency: &LatencyReport) -> EnergyBreakdown {
        // Core timing slowdown stretches the runtime at reduced voltage.
        let runtime_ns = latency.total_ns * self.config.core_slowdown().max(1.0);
        EnergyBreakdown {
            act_nj: stats.activates() as f64 * self.act_energy_nj(),
            pre_nj: stats.precharges() as f64 * self.pre_energy_nj(),
            read_nj: stats.reads as f64 * self.read_energy_nj(),
            write_nj: stats.writes as f64 * self.write_energy_nj(),
            background_nj: self.background_power_w() * runtime_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_dram::{CompressedTrace, DramModel};

    fn nominal() -> EnergyModel {
        EnergyModel::for_config(&DramConfig::lpddr3_1600_4gb())
    }

    fn reduced() -> EnergyModel {
        EnergyModel::for_config(&DramConfig::approximate(Volt(1.025)).unwrap())
    }

    #[test]
    fn nominal_access_energies_match_fig2b_calibration() {
        let e = nominal().access_energy();
        assert!((1.5..2.5).contains(&e.hit_nj), "hit {}", e.hit_nj);
        assert!((4.5..6.5).contains(&e.miss_nj), "miss {}", e.miss_nj);
        assert!(
            (6.0..8.5).contains(&e.conflict_nj),
            "conflict {}",
            e.conflict_nj
        );
    }

    #[test]
    fn per_access_saving_matches_table1_anchor() {
        // Table I: 42.40% saving at 1.025 V. V² scaling gives 42.35%.
        let hi = nominal().access_energy();
        let lo = reduced().access_energy();
        for (a, b) in [
            (hi.hit_nj, lo.hit_nj),
            (hi.miss_nj, lo.miss_nj),
            (hi.conflict_nj, lo.conflict_nj),
        ] {
            let saving = 1.0 - b / a;
            assert!(
                (0.40..0.45).contains(&saving),
                "saving {saving} outside Table I band"
            );
        }
    }

    #[test]
    fn command_energies_ordered_like_fig2b() {
        let e = nominal().access_energy();
        assert!(e.hit_nj < e.miss_nj && e.miss_nj < e.conflict_nj);
    }

    #[test]
    fn trace_energy_accounts_all_commands() {
        let config = DramConfig::tiny();
        let trace = CompressedTrace::sequential_reads(&config.geometry, 32);
        let out = DramModel::new(config.clone()).replay(&trace);
        let m = EnergyModel::for_config(&config);
        let e = m.trace_energy(&out.stats, &out.latency);
        assert!(e.read_nj > 0.0);
        assert!(e.act_nj > 0.0);
        assert!(e.background_nj > 0.0);
        assert_eq!(e.write_nj, 0.0);
        assert!(e.total_nj() > e.read_nj);
    }

    #[test]
    fn reduced_voltage_reduces_trace_energy() {
        let hi_cfg = DramConfig::lpddr3_1600_4gb();
        let lo_cfg = DramConfig::approximate(Volt(1.025)).unwrap();
        let trace = CompressedTrace::sequential_reads(&hi_cfg.geometry, 4096);
        let hi_out = DramModel::new(hi_cfg.clone()).replay(&trace);
        let lo_out = DramModel::new(lo_cfg.clone()).replay(&trace);
        let hi_e = EnergyModel::for_config(&hi_cfg).trace_energy(&hi_out.stats, &hi_out.latency);
        let lo_e = EnergyModel::for_config(&lo_cfg).trace_energy(&lo_out.stats, &lo_out.latency);
        let saving = 1.0 - lo_e.total_nj() / hi_e.total_nj();
        // End-to-end saving a touch below the per-access 42.4% because the
        // background term stretches with the slowed core timing (paper
        // reports 39.46% at 1.025 V).
        assert!(
            (0.34..0.43).contains(&saving),
            "end-to-end saving {saving} out of band"
        );
    }

    #[test]
    fn energy_monotonic_in_voltage() {
        let voltages = [1.35, 1.325, 1.25, 1.175, 1.1, 1.025];
        let mut previous = f64::INFINITY;
        for v in voltages {
            let cfg = if v == 1.35 {
                DramConfig::lpddr3_1600_4gb()
            } else {
                DramConfig::approximate(Volt(v)).unwrap()
            };
            let e = EnergyModel::for_config(&cfg).access_energy().conflict_nj;
            assert!(e < previous, "energy must fall as voltage falls");
            previous = e;
        }
    }

    #[test]
    fn write_energy_close_to_read() {
        let m = nominal();
        let r = m.read_energy_nj();
        let w = m.write_energy_nj();
        assert!((w / r - 1.0).abs() < 0.2);
    }

    #[test]
    fn breakdown_display_lists_total() {
        let e = EnergyBreakdown {
            act_nj: 1.0,
            pre_nj: 1.0,
            read_nj: 1.0,
            write_nj: 0.0,
            background_nj: 1.0,
        };
        assert!(e.to_string().contains("total=4.0nJ"));
    }
}
