//! # sparkxd-bench
//!
//! The benchmark harness of the SparkXD reproduction: one module per paper
//! table/figure, each with a `run(...)` function returning structured data
//! and a `print(...)` helper emitting the same rows/series the paper
//! reports. The `src/bin/` binaries wrap these modules (`fig02b`, `fig11`,
//! `repro_all`, …) and the Criterion benches in `benches/` time their
//! computational kernels.
//!
//! Accuracy experiments accept an [`Scale`]: the default
//! [`Scale::demo`] runs CPU-sized networks (N50–N200, hundreds of samples)
//! so the whole suite regenerates in minutes; [`Scale::paper`] switches to
//! the paper's N400–N3600 at full sample counts (hours of CPU). Energy
//! experiments always use the paper's exact network sizes — they replay
//! weight-streaming traces and need no training.
//!
//! [`oracle`] is the scalar reference simulator the invariance suites and
//! the `nightly_n400` N3600 kernel floors compare the library's
//! simulation core against. `nightly_n400` only gates; the measured
//! benchmark ledger is the separate `perfbench/` package.

pub mod experiments;
pub mod oracle;
pub mod report;
pub mod scale;
pub mod table;
pub mod telemetry_report;

pub use report::{append_job_summary, paper_sections, run_sections_with, Section};
pub use scale::Scale;
pub use table::TextTable;
pub use telemetry_report::{telemetry_summary, telemetry_table};

/// Resolves the `SPARKXD_*` engine and telemetry variables once for a
/// binary or example: installs the telemetry mode and returns the engine
/// configuration. A bad value prints the typed error and exits with
/// status 2, so a typo never silently runs the default.
pub fn exec_from_env() -> sparkxd_snn::ExecConfig {
    match sparkxd_snn::ExecConfig::from_env() {
        Ok((exec, telemetry)) => {
            sparkxd_telemetry::set_mode(telemetry);
            exec
        }
        Err(e) => {
            eprintln!("sparkxd: {e}");
            std::process::exit(2);
        }
    }
}

/// `var` parsed as a number, or `default` when unset. Same policy as
/// [`exec_from_env`] and [`Scale::from_env`]: an unparsable value prints
/// the variable and exits with status 2, never a silent fallback to a
/// correct-looking default.
pub fn env_number<T: std::str::FromStr>(var: &str, default: T) -> T {
    match std::env::var(var) {
        Err(_) => default,
        Ok(raw) => raw.trim().parse().unwrap_or_else(|_| {
            eprintln!("sparkxd: unparsable {var}={raw:?} (expected a number)");
            std::process::exit(2);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_distinct_sizes() {
        assert_ne!(Scale::demo().network_sizes, Scale::paper().network_sizes);
    }
}
