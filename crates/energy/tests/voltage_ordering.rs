//! Ordering properties of the energy model across the paper's voltage
//! ladder: baseline (1.35 V accurate) vs reduced-voltage approximate
//! configurations, per access kind and end-to-end over replayed traces.

use sparkxd_circuit::Volt;
use sparkxd_dram::{CompressedTrace, DramConfig, DramModel};
use sparkxd_energy::EnergyModel;

/// The paper's operating points, highest voltage first (Table I columns).
const LADDER: [f64; 6] = [1.35, 1.325, 1.25, 1.175, 1.1, 1.025];

fn model_at(v: f64) -> EnergyModel {
    let config = if v == 1.35 {
        DramConfig::lpddr3_1600_4gb()
    } else {
        DramConfig::approximate(Volt(v)).expect("approximate config within supported range")
    };
    EnergyModel::for_config(&config)
}

/// Baseline must cost strictly more than every reduced-voltage point, for
/// every row-buffer condition — and each step down the ladder must help.
#[test]
fn every_access_kind_strictly_decreases_down_the_ladder() {
    let mut previous: Option<sparkxd_energy::AccessEnergy> = None;
    for v in LADDER {
        let e = model_at(v).access_energy();
        if let Some(p) = previous {
            assert!(e.hit_nj < p.hit_nj, "hit energy must fall below {v} V");
            assert!(e.miss_nj < p.miss_nj, "miss energy must fall below {v} V");
            assert!(
                e.conflict_nj < p.conflict_nj,
                "conflict energy must fall below {v} V"
            );
        }
        previous = Some(e);
    }
}

/// Within any single voltage, hit < miss < conflict (Fig. 2b): the ordering
/// must survive voltage scaling, not just hold at nominal.
#[test]
fn access_kind_ordering_holds_at_every_voltage() {
    for v in LADDER {
        let e = model_at(v).access_energy();
        assert!(
            e.hit_nj < e.miss_nj && e.miss_nj < e.conflict_nj,
            "ordering violated at {v} V: {e:?}"
        );
    }
}

/// Command energy scales as (V/Vn)^2 with the default current exponent of
/// 1.0 — the law behind the paper's Table I numbers.
#[test]
fn command_energy_follows_v_squared() {
    let nominal = model_at(1.35);
    for v in &LADDER[1..] {
        let reduced = model_at(*v);
        let measured = reduced.act_energy_nj() / nominal.act_energy_nj();
        let expected = (v / 1.35) * (v / 1.35);
        assert!(
            (measured - expected).abs() < 1e-9,
            "V² law broken at {v} V: measured {measured}, expected {expected}"
        );
    }
}

/// End-to-end trace energy (commands + background over the stretched
/// runtime) must still order baseline above reduced voltage, even though
/// the slowed core timing inflates the background term.
#[test]
fn trace_energy_ordering_baseline_vs_reduced() {
    let trace = CompressedTrace::sequential_reads(&DramConfig::lpddr3_1600_4gb().geometry, 2048);
    let mut previous = f64::INFINITY;
    for v in LADDER {
        let config = if v == 1.35 {
            DramConfig::lpddr3_1600_4gb()
        } else {
            DramConfig::approximate(Volt(v)).unwrap()
        };
        let out = DramModel::new(config.clone()).replay(&trace);
        let e = EnergyModel::for_config(&config).trace_energy(&out.stats, &out.latency);
        assert!(
            e.total_nj() < previous,
            "trace energy must fall at {v} V: {} !< {previous}",
            e.total_nj()
        );
        previous = e.total_nj();
    }
}

/// End-to-end saving must be smaller than the per-access (command-only)
/// saving at the same voltage: background energy accrues over the runtime
/// that reduced-voltage timing stretches (Table I vs Fig. 12a).
#[test]
fn end_to_end_saving_below_per_access_saving() {
    let hi_cfg = DramConfig::lpddr3_1600_4gb();
    let lo_cfg = DramConfig::approximate(Volt(1.025)).unwrap();
    let trace = CompressedTrace::sequential_reads(&hi_cfg.geometry, 4096);

    let per_access = 1.0
        - EnergyModel::for_config(&lo_cfg).access_energy().conflict_nj
            / EnergyModel::for_config(&hi_cfg).access_energy().conflict_nj;

    let hi_out = DramModel::new(hi_cfg.clone()).replay(&trace);
    let lo_out = DramModel::new(lo_cfg.clone()).replay(&trace);
    let end_to_end = 1.0
        - EnergyModel::for_config(&lo_cfg)
            .trace_energy(&lo_out.stats, &lo_out.latency)
            .total_nj()
            / EnergyModel::for_config(&hi_cfg)
                .trace_energy(&hi_out.stats, &hi_out.latency)
                .total_nj();

    assert!(
        end_to_end < per_access,
        "end-to-end {end_to_end} should trail per-access {per_access}"
    );
    assert!(end_to_end > 0.25, "end-to-end saving implausibly small");
}
