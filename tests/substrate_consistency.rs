//! Cross-crate consistency checks between the circuit, DRAM, energy and
//! error substrates.

use sparkxd::circuit::{BitlineModel, TimingTable, Volt};
use sparkxd::core::mapping::{BaselineMapping, MappingPolicy, SparkXdMapping};
use sparkxd::dram::{CompressedTrace, DramConfig, DramModel};
use sparkxd::energy::EnergyModel;
use sparkxd::error::{BerCurve, ErrorProfile, WeakCellMap};

#[test]
fn circuit_timings_flow_into_dram_configs() {
    let table = TimingTable::paper_operating_points(&BitlineModel::lpddr3()).unwrap();
    let configs = DramConfig::from_timing_table(&table);
    assert_eq!(configs.len(), 6);
    // Monotone: lower voltage -> slower core timing -> bigger slowdown.
    for w in configs.windows(2) {
        assert!(w[1].core_slowdown() > w[0].core_slowdown());
        assert!(w[1].v_supply.0 < w[0].v_supply.0);
    }
}

#[test]
fn energy_per_access_consistent_with_trace_pricing() {
    // Price a pure-hit trace two ways: per-access energy x count, and the
    // full trace model minus activation/background overheads.
    let config = DramConfig::lpddr3_1600_4gb();
    let n = 1024;
    let trace = CompressedTrace::sequential_reads(&config.geometry, n);
    let out = DramModel::new(config.clone()).replay(&trace);
    let model = EnergyModel::for_config(&config);
    let breakdown = model.trace_energy(&out.stats, &out.latency);
    let expected_reads = model.read_energy_nj() * n as f64;
    assert!((breakdown.read_nj - expected_reads).abs() < 1e-6);
    // ACT energy appears once per opened row.
    let rows_opened = out.stats.activates();
    assert!((breakdown.act_nj - model.act_energy_nj() * rows_opened as f64).abs() < 1e-6);
}

#[test]
fn ber_curve_and_weak_cells_compose_into_capacity() {
    let geometry = DramConfig::lpddr3_1600_4gb().geometry;
    let curve = BerCurve::paper_default();
    let weak = WeakCellMap::generate(&geometry, 11);
    // At the lowest paper voltage, roughly half the subarrays sit at or
    // below the device-level base rate (log-normal median 1.0).
    let profile = weak.profile(curve.ber_at(Volt(1.025)));
    let frac = profile.safe_fraction(curve.ber_at(Volt(1.025)));
    assert!(
        (0.35..0.65).contains(&frac),
        "safe fraction {frac} should straddle the median"
    );
}

#[test]
fn sparkxd_mapping_beats_baseline_on_unsafe_devices() {
    // On a device where some subarrays are bad, the baseline mapping lands
    // words in unsafe subarrays while SparkXD avoids them entirely.
    let geometry = DramConfig::lpddr3_1600_4gb().geometry;
    let weak = WeakCellMap::generate(&geometry, 5);
    let profile = weak.profile(1e-4);
    let threshold = 1e-4;
    let n_columns = 20_000;
    let baseline = BaselineMapping
        .map(n_columns, &geometry, &profile, f64::MAX)
        .unwrap();
    let spark = SparkXdMapping
        .map(n_columns, &geometry, &profile, threshold)
        .unwrap();
    let unsafe_hits = |m: &sparkxd::core::mapping::Mapping| {
        m.columns()
            .iter()
            .filter(|c| profile.ber(geometry.subarray_id(c)) > threshold)
            .count()
    };
    assert!(
        unsafe_hits(&baseline) > 0,
        "baseline should hit unsafe subarrays"
    );
    assert_eq!(
        unsafe_hits(&spark),
        0,
        "sparkxd must avoid unsafe subarrays"
    );
}

#[test]
fn mapping_energy_is_within_few_percent_of_baseline_layout() {
    // SparkXD's safe-subarray striping must not cost meaningful energy vs
    // the sequential baseline at equal voltage (the saving comes from the
    // voltage, not the layout).
    let config = DramConfig::lpddr3_1600_4gb();
    let profile = ErrorProfile::uniform(1e-4, config.geometry.total_subarrays());
    let n_columns = 20_000;
    let base_map = BaselineMapping
        .map(n_columns, &config.geometry, &profile, f64::MAX)
        .unwrap();
    let spark_map = SparkXdMapping
        .map(n_columns, &config.geometry, &profile, 1e-3)
        .unwrap();
    let model = EnergyModel::for_config(&config);
    let price = |m: &sparkxd::core::mapping::Mapping| {
        let out = DramModel::new(config.clone()).replay(&m.read_trace());
        model.trace_energy(&out.stats, &out.latency).total_nj()
    };
    let (e_base, e_spark) = (price(&base_map), price(&spark_map));
    assert!(
        (e_spark / e_base - 1.0).abs() < 0.05,
        "layout energy delta too large: {e_base} vs {e_spark}"
    );
}

#[test]
fn compressed_replay_matches_per_access_on_mapped_traces() {
    // The energy evaluator prices mappings by replaying compressed traces;
    // check against stepping the expanded trace access by access on a real
    // mapped weight image at full device scale (nominal timings are exactly
    // representable, so the two must agree bit for bit).
    let config = DramConfig::lpddr3_1600_4gb();
    let profile = ErrorProfile::uniform(1e-4, config.geometry.total_subarrays());
    for mapping in [
        BaselineMapping
            .map(20_000, &config.geometry, &profile, f64::MAX)
            .unwrap(),
        SparkXdMapping
            .map(20_000, &config.geometry, &profile, 1e-3)
            .unwrap(),
    ] {
        let compressed = mapping.read_trace();
        let per_access = DramModel::new(config.clone()).replay(&compressed.expand());
        let batch = DramModel::new(config.clone()).replay(&compressed);
        assert_eq!(per_access, batch, "policy {}", mapping.policy());
    }
}

#[test]
fn packed_images_replay_proportionally_cheaper_traces() {
    // Traffic consistency across snn/core/dram/energy: an int8 N400 image
    // maps to a quarter of the FP32 columns, replays in at most 0.3x the
    // FP32 trace's ops (154 vs 613 on the baseline mapping) and for a
    // quarter-ish of the energy (row-activation overhead shifts the ratio
    // by at most a few percent). A bytes-per-word mismatch anywhere in
    // mapping or trace generation breaks the proportion immediately.
    use sparkxd::core::energy_eval::EnergyEvaluation;
    use sparkxd::core::trace_gen::columns_for_words;
    use sparkxd::snn::WeightPrecision;
    let config = DramConfig::lpddr3_1600_4gb();
    let flat = ErrorProfile::uniform(0.0, config.geometry.total_subarrays());
    let pass = |precision: WeightPrecision| {
        let n_columns = columns_for_words(784 * 400, config.geometry.col_bytes, precision);
        let mapping = BaselineMapping
            .map(n_columns, &config.geometry, &flat, f64::MAX)
            .unwrap()
            .with_precision(precision);
        let ops = mapping.read_trace().num_ops();
        (
            n_columns,
            ops,
            EnergyEvaluation::evaluate(&config, &mapping),
        )
    };
    let (cols_f32, ops_f32, pass_f32) = pass(WeightPrecision::Fp32);
    let (cols_i16, _, pass_i16) = pass(WeightPrecision::Int16);
    let (cols_i8, ops_i8, pass_i8) = pass(WeightPrecision::Int8);
    assert_eq!(cols_f32, 78_400);
    assert_eq!(cols_i16 * 2, cols_f32);
    assert_eq!(cols_i8 * 4, cols_f32);
    assert!(
        ops_i8 as f64 <= 0.3 * ops_f32 as f64,
        "int8 N400 replay ops {ops_i8} exceed 0.3x the FP32 trace's {ops_f32}"
    );
    assert!(pass_i8.total_mj() < pass_i16.total_mj());
    assert!(pass_i16.total_mj() < pass_f32.total_mj());
    let ratio = pass_i8.total_mj() / pass_f32.total_mj();
    assert!(
        (0.2..0.3).contains(&ratio),
        "int8 pass should cost about a quarter of FP32, got {ratio}"
    );
    assert!(pass_i8.runtime_ns() < pass_f32.runtime_ns());
}

#[test]
fn voltage_sweep_monotone_through_the_full_stack() {
    // End-to-end: lower voltage => lower energy, slower core timing,
    // higher BER — all three substrates agreeing.
    let mut previous_energy = f64::INFINITY;
    let mut previous_ber = -1.0;
    let mut previous_slowdown = 0.0;
    let curve = BerCurve::paper_default();
    for v in [1.325, 1.25, 1.175, 1.1, 1.025] {
        let config = DramConfig::approximate(Volt(v)).unwrap();
        let energy = EnergyModel::for_config(&config).access_energy().miss_nj;
        let ber = curve.ber_at(Volt(v));
        let slowdown = config.core_slowdown();
        assert!(energy < previous_energy);
        assert!(ber > previous_ber);
        assert!(slowdown > previous_slowdown);
        previous_energy = energy;
        previous_ber = ber;
        previous_slowdown = slowdown;
    }
}
