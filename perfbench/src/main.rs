//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <pipeline_n400|infer_n3600|serve_n400|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives the library only through public functions,
//! checks its outputs, prints a human summary and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and the metrics of `BENCHMARK.json`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced
//! run wraps every call in a span of its own (see `trace.rs`) and
//! writes a Chrome trace and a self-time table under `perfbench/out/`.
//!
//! `--workload all` runs the three workloads one after another, each in
//! its own process, and ends with one combined line whose metric names
//! are prefixed with the workload.

mod deploy;
mod digest;
mod infer;
mod manifest;
mod pipeline;
mod serve;
mod spec;
mod stats;
mod trace;
mod work;

use manifest::Manifest;
use sparkxd_snn::engine::{busy_peak, reset_busy_peak};
use sparkxd_snn::WorkerPool;
use sparkxd_telemetry::{Mode, TelemetrySnapshot};
use spec::{Values, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::{LibraryClock, Tracer};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failed check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    /// Takes over another set's failures.
    pub fn merge(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one workload run reports.
pub struct Report {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines: digests, counts, anchors.
    pub notes: Vec<String>,
    /// The workload's pinned execution settings, for the manifest.
    pub exec: String,
}

/// A finished traced run.
pub struct Session {
    name: &'static str,
    pub tracer: Tracer,
    clock: LibraryClock,
    /// Wall time of the traced body (s).
    pub wall_s: f64,
    /// Worker-pool dispatches during the body.
    pub dispatches: u64,
    /// Peak concurrently busy engine workers during the body.
    pub busy_peak: usize,
}

/// Runs `body` under a root span `name` with the library's own
/// telemetry spans recording too, and returns its result with the
/// session.
pub fn traced_session<R>(name: &'static str, body: impl FnOnce(&Tracer) -> R) -> (R, Session) {
    sparkxd_telemetry::set_mode(Mode::Spans);
    sparkxd_telemetry::reset();
    let tracer = Tracer::new(true);
    let clock = tracer.align_library_clock();
    let dispatches = WorkerPool::global().dispatches();
    reset_busy_peak();
    let t = Instant::now();
    let result = tracer.span(name, || body(&tracer));
    let wall_s = t.elapsed().as_secs_f64();
    let session = Session {
        name,
        tracer,
        clock,
        wall_s,
        dispatches: WorkerPool::global().dispatches() - dispatches,
        busy_peak: busy_peak(),
    };
    sparkxd_telemetry::set_mode(Mode::Off);
    (result, session)
}

impl Session {
    /// Writes the Chrome trace and the self-time table under
    /// `perfbench/out/` and adds the table to `notes`.
    pub fn finish(&self, notes: &mut Vec<String>) -> Result<(), String> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let trace_path = dir.join(format!("{}.trace.json", self.name));
        self.tracer
            .write_chrome_trace(&trace_path, &sparkxd_telemetry::span_events(), self.clock)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        let mut table = self.tracer.self_time_table();
        let library = TelemetrySnapshot::capture();
        table.push_str("library spans beneath (name, count, total_s):\n");
        for s in library
            .spans
            .iter()
            .filter(|s| s.name != "perfbench.clock_probe")
        {
            table.push_str(&format!(
                "  {:<28} {:>8} {:>11.6}\n",
                s.name,
                s.count,
                s.total_ns as f64 * 1e-9
            ));
        }
        let table_path = dir.join(format!("{}.selftime.txt", self.name));
        std::fs::write(&table_path, &table)
            .map_err(|e| format!("{}: {e}", table_path.display()))?;
        notes.push(format!(
            "traced wall {:.3} s; wrote {} and {}",
            self.wall_s,
            trace_path.display(),
            table_path.display()
        ));
        notes.push(table);
        Ok(())
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let mut report = match (args.workload.as_str(), args.trace) {
        ("pipeline_n400", false) => pipeline::run(args),
        ("pipeline_n400", true) => pipeline::run_traced(args),
        ("infer_n3600", false) => infer::run(args),
        ("infer_n3600", true) => infer::run_traced(args),
        ("serve_n400", false) => serve::run(args),
        ("serve_n400", true) => serve::run_traced(args),
        (other, _) => return Err(format!("unknown workload {other}")),
    }?;
    if args.trace {
        let coverage = report.values.get("trace.coverage").copied().unwrap_or(0.0);
        report.checks.check(
            coverage >= 0.9,
            format!("layer spans cover {coverage:.3} of traced wall time, not at least 0.9"),
        );
    }
    let manifest = Manifest::collect(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        report.exec.clone(),
    );
    println!("manifest: {}", manifest.to_json());
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{}.manifest.json", args.workload)),
                manifest.to_json() + "\n",
            )
        })
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    for note in &report.notes {
        println!("{}", note.trim_end());
    }
    for failure in &report.checks.failures {
        println!("CHECK FAILED: {failure}");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in catalogue {
        if let Some(v) = report.values.get(name) {
            println!("{name:<26} {v:>16.6} {unit}");
        }
    }
    if !args.trace {
        // The failure share is also the `failed`/`attempted` pair of the
        // result line.
        println!(
            "{:<26} {:>16.6} share",
            "fail_frac",
            report.failed as f64 / report.attempted.max(1) as f64
        );
    }
    let correct = report.checks.passed() && report.failed == 0;
    println!(
        "{}",
        spec::result_line(
            correct,
            report.attempted,
            report.failed,
            catalogue,
            &report.values
        )?
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs every workload in its own process and combines their result
/// lines.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    let mut all_ok = true;
    for &workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        println!("== {workload}");
        print!("{stdout}");
        all_ok &= output.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let field = |key: &str| -> Option<u64> {
            let rest = &last[last.find(&format!("\"{key}\": "))? + key.len() + 4..];
            rest[..rest.find(',')?].parse().ok()
        };
        let (Some(a), Some(f), Some(body)) = (
            field("attempted"),
            field("failed"),
            last.find("\"metrics\": {")
                .map(|i| &last[i + 12..last.len() - 2]),
        ) else {
            return Err(format!("{workload} printed no result line"));
        };
        correct &= last.contains("\"correct\": true");
        attempted += a;
        failed += f;
        let mut body = body.to_string();
        let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
        for &(name, _) in catalogue {
            body = body.replace(
                &format!("\"{name}\": {{"),
                &format!("\"{workload}/{name}\": {{"),
            );
        }
        metrics.push(body);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(if all_ok && correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = manifest::check_env()
        .and_then(|()| parse_args())
        .and_then(|args| {
            if args.workload == "all" {
                run_all(&args)
            } else {
                run_one(&args)
            }
        });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
