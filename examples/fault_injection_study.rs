//! Fault-injection study: how the four EDEN error models corrupt a trained
//! SNN, and why the bounded-synapse read clamp matters (the paper's
//! observation that MSB flips are the damaging ones).
//!
//! ```sh
//! cargo run --release --example fault_injection_study
//! ```

use sparkxd::core::mapping::{BaselineMapping, MappingPolicy};
use sparkxd::core::trace_gen::columns_for_network;
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::dram::DramConfig;
use sparkxd::error::{ErrorModel, ErrorProfile, Injector};
use sparkxd::snn::{BatchEvaluator, DiehlCookNetwork, SnnConfig, WeightPrecision};
use sparkxd_bench::exec_from_env;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let exec = exec_from_env();
    let eval = BatchEvaluator::new(exec);
    let train = SynthDigits.generate(300, 1);
    let test = SynthDigits.generate(100, 2);
    let snn_config = SnnConfig::for_neurons(60).with_timesteps(50);
    let mut net = DiehlCookNetwork::new(snn_config.clone());
    for epoch in 0..4 {
        net.train_epoch_with(&train, 100 + epoch, &exec);
    }
    let labeler = eval.label_neurons(net.params(), &train, 7);
    let clean_accuracy = eval.evaluate(net.params(), &test, &labeler, 8);
    let clean = net.weights().clone();
    println!("clean accuracy: {:.1}%", clean_accuracy * 100.0);

    // Placement of the weight image under the baseline mapping.
    let geometry = DramConfig::lpddr3_1600_4gb().geometry;
    let n_columns = columns_for_network(&snn_config, geometry.col_bytes, WeightPrecision::Fp32);
    let profile = ErrorProfile::uniform(1e-3, geometry.total_subarrays());
    let mapping = BaselineMapping.map(n_columns, &geometry, &profile, f64::MAX)?;
    let placements = mapping.placements(clean.len());

    println!("\naccuracy at BER 1e-3 under each error model (3 trials each):");
    for model in [
        ErrorModel::Model0,
        ErrorModel::model1_default(),
        ErrorModel::model2_default(),
        ErrorModel::model3_default(),
    ] {
        let mut total = 0.0;
        let mut flips = 0;
        for trial in 0..3u64 {
            let mut injector = Injector::new(model, 40 + trial);
            let mut corrupted = clean.clone();
            let report =
                injector.inject_with_placements(corrupted.as_mut_slice(), &placements, &profile)?;
            flips += report.flips;
            net.set_weights(corrupted);
            total += eval.evaluate(net.params(), &test, &labeler, 9 + trial);
        }
        println!(
            "  {:<28} {:.1}%   (~{} flips/trial)",
            model.to_string(),
            total / 3.0 * 100.0,
            flips / 3
        );
    }

    // Ablation: disable the bounded-synapse clamp so raw corrupted FP32
    // values reach the membrane (a single exponent-MSB flip can then make
    // one synapse astronomically strong).
    let mut raw_cfg = snn_config;
    raw_cfg.clamp_reads = false;
    let mut raw_net = DiehlCookNetwork::new(raw_cfg);
    raw_net.set_weights(clean.clone());
    let mut injector = Injector::new(ErrorModel::Model0, 99);
    let mut corrupted = clean.clone();
    injector.inject_uniform(corrupted.as_mut_slice(), 1e-3);
    raw_net.set_weights(corrupted.clone());
    let unclamped = eval.evaluate(raw_net.params(), &test, &labeler, 10);
    net.set_weights(corrupted);
    let clamped = eval.evaluate(net.params(), &test, &labeler, 10);
    println!("\nMSB sensitivity at BER 1e-3 (same error pattern):");
    println!("  clamped synapse reads:   {:.1}%", clamped * 100.0);
    println!("  unclamped (raw FP32):    {:.1}%", unclamped * 100.0);
    net.set_weights(clean);
    Ok(())
}
