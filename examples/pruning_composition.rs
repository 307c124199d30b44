//! Composing SparkXD with weight pruning (the paper's Fig. 2a argument):
//! pruning cuts the number of DRAM accesses, approximate DRAM cuts the
//! energy per access — the savings multiply.
//!
//! ```sh
//! cargo run --release --example pruning_composition
//! ```

use sparkxd::circuit::Volt;
use sparkxd::core::energy_eval::EnergyEvaluation;
use sparkxd::core::mapping::{BaselineMapping, MappingPolicy, SparkXdMapping};
use sparkxd::core::trace_gen::columns_for_words;
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::dram::DramConfig;
use sparkxd::error::{BerCurve, ErrorProfile, WeakCellMap};
use sparkxd::snn::{
    prune_to_connectivity, BatchEvaluator, DiehlCookNetwork, SnnConfig, WeightPrecision,
};
use sparkxd_bench::exec_from_env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exec = exec_from_env();
    let eval = BatchEvaluator::new(exec);
    let train = SynthDigits.generate(300, 1);
    let test = SynthDigits.generate(100, 2);
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(60).with_timesteps(50));
    for epoch in 0..4 {
        net.train_epoch_with(&train, 100 + epoch, &exec);
    }
    let labeler = eval.label_neurons(net.params(), &train, 7);
    println!(
        "dense accuracy: {:.1}%",
        eval.evaluate(net.params(), &test, &labeler, 8) * 100.0
    );

    let accurate = DramConfig::lpddr3_1600_4gb();
    let approx = DramConfig::approximate(Volt(1.025))?;
    let ber = BerCurve::paper_default().ber_at(Volt(1.025));
    let profile = WeakCellMap::generate(&accurate.geometry, 42).profile(ber);
    let flat = ErrorProfile::uniform(0.0, accurate.geometry.total_subarrays());

    println!("\nconnectivity  accuracy  acc-DRAM [uJ]  approx-DRAM [uJ]  combined saving");
    let total_weights = net.weights().len();
    let dense_energy = {
        let cols = columns_for_words(
            total_weights,
            accurate.geometry.col_bytes,
            WeightPrecision::Fp32,
        );
        let m = BaselineMapping.map(cols, &accurate.geometry, &flat, f64::MAX)?;
        EnergyEvaluation::evaluate(&accurate, &m).total_mj() * 1e3
    };
    for connectivity in [1.0, 0.8, 0.6, 0.5] {
        net.with_weights_mut(|w| prune_to_connectivity(w, connectivity));
        let accuracy = eval.evaluate(net.params(), &test, &labeler, 8);
        let stored = (total_weights as f64 * connectivity).round() as usize;
        let cols = columns_for_words(stored, accurate.geometry.col_bytes, WeightPrecision::Fp32);
        let acc_map = BaselineMapping.map(cols, &accurate.geometry, &flat, f64::MAX)?;
        let app_map = SparkXdMapping.map(cols, &approx.geometry, &profile, ber)?;
        let e_acc = EnergyEvaluation::evaluate(&accurate, &acc_map).total_mj() * 1e3;
        let e_app = EnergyEvaluation::evaluate(&approx, &app_map).total_mj() * 1e3;
        println!(
            "  {:>4.0}%        {:>5.1}%    {e_acc:>9.2}      {e_app:>9.2}        {:>5.1}%",
            connectivity * 100.0,
            accuracy * 100.0,
            (1.0 - e_app / dense_energy) * 100.0
        );
    }
    println!("\n(accuracy degrades gracefully while the combined energy saving compounds)");
    Ok(())
}
