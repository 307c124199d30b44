//! Spans-mode acceptance: one tiny pipeline run in spans mode must produce a loadable Chrome trace-event file covering all
//! seven pipeline stage spans plus at least one `WorkerPool` dispatch
//! span and one DRAM replay span beneath them.
//!
//! Single `#[test]` on purpose: the telemetry mode and its span buffer
//! are process-global.

use sparkxd::core::pipeline::{PipelineConfig, SparkXdPipeline};
use sparkxd::snn::ExecConfig;
use sparkxd::telemetry;

/// The tiny config the invariance suites use (seconds, not minutes), on
/// two engine workers so at least one dispatch takes the pooled path (the
/// single-worker fast path is deliberately un-instrumented).
fn tiny_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        neurons: 20,
        timesteps: 20,
        train_samples: 40,
        test_samples: 20,
        baseline_epochs: 1,
        exec: ExecConfig {
            threads: 2,
            ..ExecConfig::default()
        },
        ..PipelineConfig::small_demo(seed)
    }
}

#[test]
fn spans_mode_pipeline_run_yields_a_loadable_chrome_trace() {
    telemetry::set_mode(telemetry::Mode::Spans);
    SparkXdPipeline::new(tiny_config(42))
        .run()
        .expect("tiny pipeline run");

    let path = std::env::temp_dir().join(format!("sparkxd_trace_{}.json", std::process::id()));
    let written = telemetry::write_chrome_trace(&path).expect("trace file written");
    assert!(written > 0, "spans mode must buffer events");
    let trace = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);

    // Loadable: the trace-event envelope with balanced nesting (the
    // renderer emits no strings containing braces or brackets).
    assert!(trace.starts_with('{') && trace.trim_end().ends_with('}'));
    assert!(trace.contains("\"traceEvents\":["));
    assert_eq!(
        trace.matches(['{', '[']).count(),
        trace.matches(['}', ']']).count(),
        "unbalanced trace JSON"
    );

    // Coverage: every pipeline stage, plus the pool and DRAM replay
    // spans the stages fan out into.
    for span in [
        "pipeline.data",
        "pipeline.baseline_model",
        "pipeline.fault_aware_training",
        "pipeline.operating_point",
        "pipeline.mapping",
        "pipeline.operating_accuracy",
        "pipeline.energy",
        "pool.run",
        "dram.replay",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "trace is missing the {span} span"
        );
    }
}
