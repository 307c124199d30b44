//! Observability demo: the complete pipeline with span telemetry on, a
//! summary table of everything recorded, and a Chrome trace on disk.
//!
//! ```sh
//! cargo run --release --example observability_demo
//! ```
//!
//! Telemetry is observation-only — the run below is bit-identical to the
//! same run with telemetry off (`tests/thread_invariance.rs` proves it) —
//! so turning it on is always safe. Open the resulting `trace.json` in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the seven
//! pipeline stages with the worker-pool dispatches and DRAM trace
//! replays nested beneath them.

use sparkxd::core::pipeline::{PipelineConfig, SparkXdPipeline};
use sparkxd::telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spans mode: counters, histograms and the trace-event buffer all
    // live. Out-of-process the knob is `SPARKXD_TELEMETRY=spans`; an
    // embedding program can pin it in code, as here, overriding it.
    let exec = sparkxd_bench::exec_from_env();
    telemetry::set_mode(telemetry::Mode::Spans);
    // RAII writer: `trace.json` lands when this drops at the end of
    // main — early returns and panics included.
    let _trace = telemetry::TraceFile::new("trace.json");

    let config = PipelineConfig {
        exec,
        ..PipelineConfig::small_demo(42)
    };
    println!(
        "observability demo: {} neurons on {}, telemetry spans mode",
        config.neurons,
        config.dataset.label()
    );
    let outcome = SparkXdPipeline::new(config).run()?;
    println!(
        "accuracy @ operating point: {:.1}%, DRAM energy saving {:.1}%\n",
        outcome.accuracy_at_operating_point * 100.0,
        outcome.energy.saving_fraction_vs_baseline() * 100.0
    );

    match sparkxd_bench::telemetry_summary() {
        Some(summary) => println!("{summary}"),
        None => println!("no telemetry recorded"),
    }
    println!("open trace.json in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
