//! DRAM subsystem walkthrough: array-voltage waveforms, voltage-scaled
//! timings, row-buffer behaviour and per-access energy — the substrate
//! experiments behind the paper's Figs. 2 and 6.
//!
//! ```sh
//! cargo run --release --example dram_explorer
//! ```

use sparkxd::circuit::{BitlineModel, Volt};
use sparkxd::dram::{CompressedTrace, DramConfig, DramModel};
use sparkxd::energy::EnergyModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Array voltage dynamics at nominal vs reduced supply.
    let model = BitlineModel::lpddr3();
    println!("V_array during ACT(0ns) .. PRE(45ns), sampled every 10 ns:");
    let hi = model.activate_precharge_waveform(Volt(1.35));
    let lo = model.activate_precharge_waveform(Volt(1.025));
    println!("  t[ns]   1.350V   1.025V");
    for k in 0..=8 {
        let t = k as f64 * 10.0;
        println!(
            "  {:>5}   {:.3}    {:.3}",
            t,
            hi.value_at(t * 1e-9),
            lo.value_at(t * 1e-9)
        );
    }

    // Timing derivation (ready-to-access / precharge / activate).
    println!("\nvoltage-scaled core timings:");
    for v in [1.35, 1.175, 1.025] {
        let t = model.derive_timing(Volt(v))?;
        println!("  {t}");
    }

    // Row-buffer behaviour and bank-level overlap.
    let config = DramConfig::lpddr3_1600_4gb();
    let sequential = CompressedTrace::sequential_reads(&config.geometry, 2048);
    let interleaved = CompressedTrace::interleaved_reads(&config.geometry, 2048);
    let seq = DramModel::new(config.clone()).replay(&sequential);
    let inter = DramModel::new(config.clone()).replay(&interleaved);
    println!("\nrow-buffer statistics over 2048 reads:");
    println!("  sequential layout:  {}", seq.stats);
    println!("  interleaved layout: {}", inter.stats);
    println!(
        "  bank-overlap factor: sequential {:.2}x, interleaved {:.2}x",
        seq.latency.overlap_factor(),
        inter.latency.overlap_factor()
    );

    // Per-access energy across voltages.
    println!("\nper-access energy (hit/miss/conflict):");
    for v in [1.35, 1.175, 1.025] {
        let cfg = if v == 1.35 {
            DramConfig::lpddr3_1600_4gb()
        } else {
            DramConfig::approximate(Volt(v))?
        };
        println!("  {}", EnergyModel::for_config(&cfg).access_energy());
    }
    Ok(())
}
