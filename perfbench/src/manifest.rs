//! Run manifest (host fingerprint, resolved execution config, seeds) and
//! the environment guard.

use sparkxd_snn::engine;
use std::path::Path;

/// Refuses to run while any `SPARKXD_*` variable is set: library code
/// (`DiehlCookNetwork::evaluate`, `ServiceConfig::from_env`, telemetry)
/// reads those variables itself, so they would silently change what is
/// measured.
pub fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPARKXD_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the library reads these variables itself",
            set.join(", ")
        ))
    }
}

/// The facts a result depends on besides the code.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub git_rev: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub avx2: bool,
    pub rustc: String,
    /// Resolved engine defaults plus the workload's pinned settings.
    pub exec: String,
}

impl Manifest {
    /// Collects the manifest of this run; `exec` is the workload's own
    /// description of its pinned execution settings.
    pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool, exec: String) -> Self {
        let engine_defaults = format!(
            "engine threads={} batch={} tile={} kernel={:?} intra={:?}",
            engine::configured_threads(),
            engine::batch_size(),
            engine::tile_width(),
            engine::kernel(),
            engine::intra_choice()
        );
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            git_rev: git_rev(Path::new(".")),
            nproc: nproc(),
            cpu_model: cpu_model(),
            avx2: avx2(),
            rustc: rustc_version(),
            exec: format!("{engine_defaults}; {exec}"),
        }
    }

    /// One JSON object (hand-rolled; values never contain quotes).
    pub fn to_json(&self) -> String {
        let q = |s: &str| s.replace(['"', '\\'], "'");
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_rev\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \"avx2\": {}, \
             \"rustc\": \"{}\", \"exec\": \"{}\"}}",
            q(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            q(&self.git_rev),
            self.nproc,
            q(&self.cpu_model),
            self.avx2,
            q(&self.rustc),
            q(&self.exec)
        )
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout when it is a git work tree, read from
/// `.git` directly (no `git` process, no look outside the checkout).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (MB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
