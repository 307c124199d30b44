//! Quickstart: run the complete SparkXD pipeline on a small network.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Trains a baseline SNN on the synthetic digits dataset, improves its
//! error tolerance with fault-aware training (Algorithm 1), finds the
//! maximum tolerable BER, maps the weights into safe DRAM subarrays
//! (Algorithm 2) and reports the DRAM energy saving and throughput against
//! the accurate-DRAM baseline.

use sparkxd::core::pipeline::{PipelineConfig, SparkXdPipeline};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = PipelineConfig {
        exec: sparkxd_bench::exec_from_env(),
        ..PipelineConfig::small_demo(42)
    };
    println!(
        "SparkXD quickstart: {} neurons on {}, requesting {}",
        config.neurons,
        config.dataset.label(),
        config.v_supply
    );

    let outcome = SparkXdPipeline::new(config).run()?;

    println!("\n-- accuracy --------------------------------------------");
    println!(
        "baseline (accurate DRAM):      {:.1}%",
        outcome.baseline_accuracy * 100.0
    );
    println!(
        "improved, error-free:          {:.1}%",
        outcome.improved_clean_accuracy * 100.0
    );
    println!(
        "improved @ operating point:    {:.1}%",
        outcome.accuracy_at_operating_point * 100.0
    );
    println!("\n-- error tolerance -------------------------------------");
    for (ber, acc) in &outcome.tolerance_curve {
        println!("  BER {ber:>7.0e}  ->  {:.1}%", acc * 100.0);
    }
    println!(
        "maximum tolerable BER (BER_th): {:.0e} (target met: {})",
        outcome.max_tolerable_ber, outcome.target_met
    );
    println!("\n-- DRAM ------------------------------------------------");
    println!(
        "operating point: {} (device BER {:.1e})",
        outcome.operating_voltage, outcome.operating_ber
    );
    println!(
        "mapping: {} over {} columns in {} safe subarrays ({:.0}% of device safe)",
        outcome.mapping.policy,
        outcome.mapping.columns,
        outcome.mapping.subarrays_used,
        outcome.mapping.safe_fraction * 100.0
    );
    println!(
        "DRAM energy: {:.4} mJ -> {:.4} mJ ({:.1}% saving), speed-up {:.3}x",
        outcome.energy.baseline.total_mj(),
        outcome.energy.improved.total_mj(),
        outcome.energy.saving_fraction_vs_baseline() * 100.0,
        outcome.energy.speedup()
    );
    Ok(())
}
