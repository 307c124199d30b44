//! Regenerates every table and figure of the paper in one run, with the
//! experiments sharded across worker threads. Sections print
//! progressively in the paper's order as they (and their predecessors)
//! complete, so long paper-scale runs show progress.
//!
//! Usage: `cargo run -p sparkxd-bench --release --bin repro_all`
//! (set `SPARKXD_SCALE=paper` for the paper's full network sizes, and
//! `SPARKXD_THREADS=1` to force the old serial behaviour).

use sparkxd_bench::{exec_from_env, paper_sections, run_sections_with, telemetry_summary, Scale};

fn main() {
    let scale = Scale::from_env();
    let exec = exec_from_env();
    let t0 = std::time::Instant::now();
    let jobs = paper_sections(&scale, &exec, 42);
    println!(
        "SparkXD reproduction — all experiments (scale: {}, {} sections)",
        scale.label,
        jobs.len()
    );
    println!("exec: {exec}");
    println!("==========================================================\n");

    run_sections_with(jobs, &exec, |section| {
        println!("## {}", section.title);
        println!("{}", section.body);
    });

    // Observation only (SPARKXD_TELEMETRY=counters|spans): where the run
    // spent its work — pool dispatches, tile sweeps, DRAM replays.
    if let Some(summary) = telemetry_summary() {
        println!("## Telemetry\n{summary}");
    }
    println!("total wall time: {:.1?}", t0.elapsed());
}
