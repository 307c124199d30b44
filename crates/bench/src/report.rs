//! Parallel figure/table reproduction: every experiment section as an
//! independent job, sharded across scoped worker threads and emitted in
//! the paper's order as results come in.
//!
//! Experiments are heterogeneous (fig. 11 trains networks for minutes,
//! table I replays traces in milliseconds), so jobs are pulled from a
//! shared queue rather than statically chunked, and each completed
//! section is handed to the caller as soon as every earlier section is
//! also done — a long paper-scale run prints progressively instead of
//! going silent until the slowest experiment finishes. Each section's
//! `run(...)` is deterministic per seed and emission order is fixed by
//! the job list, so the report is byte-identical for any worker count.

use crate::experiments as ex;
use crate::scale::Scale;
use sparkxd_snn::engine::{ExecConfig, WorkerReservation};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// One rendered report section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Heading, e.g. `"Fig. 8 — error-tolerance analysis"`.
    pub title: &'static str,
    /// Rendered body (tables/series).
    pub body: String,
}

/// A titled unit of report work.
pub type SectionJob = (&'static str, Box<dyn Fn() -> String + Send + Sync>);

/// Renders `jobs` on as many workers as `exec`'s budget leaves free,
/// calling `emit` for each section in job order as soon as it and all
/// its predecessors are complete, and returning the full ordered list.
pub fn run_sections_with<F>(jobs: Vec<SectionJob>, exec: &ExecConfig, emit: F) -> Vec<Section>
where
    F: FnMut(&Section),
{
    let threads = exec.worker_count(jobs.len());
    run_sections_on(jobs, threads, emit)
}

fn run_sections_on<F>(jobs: Vec<SectionJob>, threads: usize, mut emit: F) -> Vec<Section>
where
    F: FnMut(&Section),
{
    let render = |(title, f): &SectionJob| Section { title, body: f() };
    if threads <= 1 {
        return jobs
            .iter()
            .map(|job| {
                let section = render(job);
                emit(&section);
                section
            })
            .collect();
    }
    let _reservation = WorkerReservation::for_pool(threads);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Section)>();
    let mut done: Vec<Option<Section>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            scope.spawn(|| {
                let tx = tx;
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let sent = tx.send((i, render(&jobs[i]))).is_ok();
                    debug_assert!(sent, "receiver outlives the scope");
                }
            });
        }
        drop(tx);
        // Emit in job order: hold completed sections until every earlier
        // one has arrived.
        let mut pending = BTreeMap::new();
        let mut next = 0;
        for (i, section) in rx {
            pending.insert(i, section);
            while let Some(section) = pending.remove(&next) {
                emit(&section);
                done[next] = Some(section);
                next += 1;
            }
        }
    });
    done.into_iter()
        .map(|slot| slot.expect("every job rendered exactly once"))
        .collect()
}

/// One (network size, scalar, untiled, tiled, tiled+AVX2, intra-tiled)
/// throughput measurement of a bench sweep, in samples/sec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchRow {
    /// Excitatory-layer size the row was measured at.
    pub n_neurons: usize,
    /// Samples/sec of the scalar oracle ([`crate::oracle`], one sample at
    /// a time on one thread).
    pub scalar: f64,
    /// Samples/sec of the untiled batched sweep (one `usize::MAX` tile —
    /// the pre-tiling behaviour), portable kernel.
    pub untiled: f64,
    /// Samples/sec of the tiled batched sweep, portable kernel, serial
    /// (intra off).
    pub tiled: f64,
    /// Samples/sec of the tiled batched sweep on the AVX2 kernel; `None`
    /// when the host has no AVX2 (the sweep skips the configuration).
    pub tiled_avx2: Option<f64>,
    /// Samples/sec of the intra-parallel tiled sweep (the per-timestep
    /// tile fan-out across pool workers), portable kernel; `None` when
    /// the sweep skips the configuration.
    pub tiled_intra: Option<f64>,
}

impl BenchRow {
    /// Tiled-over-untiled speedup (portable kernel on both sides). A
    /// non-positive (broken) baseline reports 0 — finite, and guaranteed
    /// to trip any speedup floor.
    pub fn speedup(&self) -> f64 {
        Self::ratio(self.tiled, self.untiled)
    }

    /// Tiled-over-scalar speedup, with the same broken-baseline rule.
    pub fn speedup_vs_scalar(&self) -> f64 {
        Self::ratio(self.tiled, self.scalar)
    }

    /// AVX2-tiled-over-portable-tiled speedup; `None` off AVX2 hosts.
    pub fn speedup_avx2(&self) -> Option<f64> {
        self.tiled_avx2.map(|avx2| Self::ratio(avx2, self.tiled))
    }

    /// Intra-parallel-over-serial tiled speedup (portable kernel on both
    /// sides); `None` when the intra row was not measured.
    pub fn speedup_intra(&self) -> Option<f64> {
        self.tiled_intra.map(|intra| Self::ratio(intra, self.tiled))
    }

    fn ratio(num: f64, den: f64) -> f64 {
        if den > 0.0 {
            num / den
        } else {
            0.0
        }
    }
}

/// Renders a bench sweep as the machine-readable `BENCH_<issue>.json`
/// document consumed by the nightly trajectory tooling. Hand-formatted —
/// the workspace deliberately carries no serialisation dependency — so
/// the shape is locked by tests instead of a schema.
pub fn bench_json(
    issue: u32,
    bench: &str,
    tile_width: usize,
    batch: usize,
    intra_workers: usize,
    rows: &[BenchRow],
) -> String {
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            let avx2 = match r.tiled_avx2 {
                Some(v) => format!("{v:.1}"),
                None => "null".into(),
            };
            let speedup_avx2 = match r.speedup_avx2() {
                Some(v) => format!("{v:.3}"),
                None => "null".into(),
            };
            let intra = match r.tiled_intra {
                Some(v) => format!("{v:.1}"),
                None => "null".into(),
            };
            let speedup_intra = match r.speedup_intra() {
                Some(v) => format!("{v:.3}"),
                None => "null".into(),
            };
            format!(
                "    {{\"n_neurons\": {}, \"scalar\": {:.1}, \"untiled\": {:.1}, \"tiled\": {:.1}, \
                 \"tiled_avx2\": {avx2}, \"tiled_intra\": {intra}, \"speedup\": {:.3}, \
                 \"speedup_vs_scalar\": {:.3}, \"speedup_avx2\": {speedup_avx2}, \
                 \"speedup_intra\": {speedup_intra}}}",
                r.n_neurons,
                r.scalar,
                r.untiled,
                r.tiled,
                r.speedup(),
                r.speedup_vs_scalar()
            )
        })
        .collect();
    format!(
        "{{\n  \"issue\": {issue},\n  \"bench\": \"{bench}\",\n  \"unit\": \"samples_per_sec\",\n  \
         \"tile_width\": {tile_width},\n  \"batch\": {batch},\n  \
         \"intra_workers\": {intra_workers},\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    )
}

/// One storage format's N400 weight-image measurements for the precision
/// sweep artifact (`BENCH_9.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Storage-format label (`"fp32"`, `"int8"`, `"int16"`).
    pub precision: &'static str,
    /// Bits per stored weight word.
    pub word_bits: u32,
    /// DRAM image size in bytes.
    pub image_bytes: usize,
    /// Burst columns the image maps to.
    pub columns: usize,
    /// Compressed-trace op count of one image pass.
    pub trace_ops: usize,
    /// DRAM energy (mJ) of one image pass.
    pub pass_mj: f64,
    /// DRAM latency (ns) of one image pass.
    pub pass_ns: f64,
}

/// Renders the precision sweep as the machine-readable `BENCH_9.json`
/// document, in the same hand-formatted house style as
/// [`bench_json`] (no serialisation dependency; shape locked by tests).
pub fn precision_json(issue: u32, bench: &str, neurons: usize, rows: &[PrecisionRow]) -> String {
    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"precision\": \"{}\", \"word_bits\": {}, \"image_bytes\": {}, \
                 \"columns\": {}, \"trace_ops\": {}, \"pass_mj\": {:.6}, \"pass_ns\": {:.1}}}",
                r.precision,
                r.word_bits,
                r.image_bytes,
                r.columns,
                r.trace_ops,
                r.pass_mj,
                r.pass_ns
            )
        })
        .collect();
    format!(
        "{{\n  \"issue\": {issue},\n  \"bench\": \"{bench}\",\n  \"neurons\": {neurons},\n  \
         \"unit\": \"dram_pass\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        rows_json.join(",\n")
    )
}

/// Writes `json` to `path`, returning whether the write succeeded (the
/// nightly binaries treat a failed artifact write as a warning, not a
/// failed run).
pub fn write_bench_json(path: &str, json: &str) -> bool {
    std::fs::write(path, json).is_ok()
}

/// Appends `markdown` to the GitHub Actions job summary when running in
/// CI (`$GITHUB_STEP_SUMMARY` set, as the nightly binaries are); silently
/// does nothing elsewhere.
pub fn append_job_summary(markdown: &str) {
    use std::io::Write;
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(path)
    {
        let _ = writeln!(file, "{markdown}");
    }
}

/// The full figure/table job list of the paper, in presentation order.
pub fn paper_sections(scale: &Scale, exec: &ExecConfig, seed: u64) -> Vec<SectionJob> {
    let exec = *exec;
    let s1 = scale.clone();
    let s8 = scale.clone();
    let s11 = scale.clone();
    vec![
        (
            "Fig. 1(a) — accuracy of small vs large SNN models",
            Box::new(move || ex::fig01a::print(&ex::fig01a::run(&s1, &exec, seed))),
        ),
        (
            "Fig. 1(b) — platform energy breakdowns",
            Box::new(|| ex::fig01b::print(&ex::fig01b::run())),
        ),
        (
            "Fig. 2(a) — DRAM energy vs connectivity (pruning x approx DRAM, N4900)",
            Box::new(move || ex::fig02a::print(&ex::fig02a::run(seed))),
        ),
        (
            "Fig. 2(b) — access energy per row-buffer condition",
            Box::new(|| {
                let (hi, lo) = ex::fig02b::run();
                ex::fig02b::print(&hi, &lo)
            }),
        ),
        (
            "Fig. 2(c) — BER vs supply voltage",
            Box::new(|| ex::fig02c::print(&ex::fig02c::run())),
        ),
        (
            "Fig. 2(d) — DRAM array voltage dynamics (1.35 V vs 1.025 V)",
            Box::new(|| {
                let (wave_hi, wave_lo) = ex::fig02d::run();
                ex::fig02d::print(&wave_hi, &wave_lo)
            }),
        ),
        (
            "Fig. 6 — voltage-scaled DRAM timing parameters",
            Box::new(|| ex::fig06::print(&ex::fig06::run())),
        ),
        (
            "Fig. 8 — error-tolerance analysis (middle network size)",
            Box::new(move || ex::fig08::print(&ex::fig08::run(&s8, &exec, seed))),
        ),
        (
            "Fig. 11 — accuracy across BERs, sizes and datasets",
            Box::new(move || ex::fig11::print(&ex::fig11::run(&s11, &exec, seed))),
        ),
        (
            "Fig. 12 — DRAM energy per inference and throughput across voltages",
            Box::new(move || {
                let rows = ex::fig12::run(seed);
                format!(
                    "{}### per-voltage savings vs accurate baseline\n{}### throughput speed-up vs baseline\n{}",
                    ex::fig12::print_energy(&rows),
                    ex::fig12::print_savings(&rows),
                    ex::fig12::print_speedup(&rows)
                )
            }),
        ),
        (
            "Table I — DRAM energy-per-access savings",
            Box::new(move || {
                format!(
                    "{}### storage-format analogue: N400 pass saving (voltage x packing)\n{}",
                    ex::table1::print(&ex::table1::run()),
                    ex::table1::print_storage(&ex::table1::run_storage(seed))
                )
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_jobs() -> Vec<SectionJob> {
        vec![
            ("alpha", Box::new(|| "a".into())),
            ("beta", Box::new(|| "b".into())),
            ("gamma", Box::new(|| "c".into())),
            ("delta", Box::new(|| "d".into())),
            ("epsilon", Box::new(|| "e".into())),
        ]
    }

    #[test]
    fn sections_come_back_in_job_order() {
        let sections = run_sections_with(dummy_jobs(), &ExecConfig::default(), |_| {});
        let titles: Vec<_> = sections.iter().map(|s| s.title).collect();
        assert_eq!(titles, ["alpha", "beta", "gamma", "delta", "epsilon"]);
        let bodies: Vec<_> = sections.iter().map(|s| s.body.as_str()).collect();
        assert_eq!(bodies, ["a", "b", "c", "d", "e"]);
    }

    #[test]
    fn parallel_emission_streams_in_job_order() {
        // Make the first job the slowest: on a multi-worker pool, later
        // sections complete first and must be held back until "alpha"
        // lands, whatever the machine's core count.
        for threads in [2, 3, 8] {
            let mut jobs = dummy_jobs();
            jobs[0].1 = Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                "a".into()
            });
            let mut emitted = Vec::new();
            let sections = run_sections_on(jobs, threads, |s| emitted.push(s.title));
            assert_eq!(
                emitted,
                ["alpha", "beta", "gamma", "delta", "epsilon"],
                "threads={threads}"
            );
            assert_eq!(sections.len(), 5);
        }
    }

    #[test]
    fn bench_json_is_well_formed_and_complete() {
        let rows = [
            BenchRow {
                n_neurons: 400,
                scalar: 50.0,
                untiled: 100.0,
                tiled: 150.0,
                tiled_avx2: Some(300.0),
                tiled_intra: Some(225.0),
            },
            BenchRow {
                n_neurons: 3600,
                scalar: 8.2,
                untiled: 10.0,
                tiled: 20.5,
                tiled_avx2: None,
                tiled_intra: None,
            },
        ];
        let json = bench_json(8, "drive_kernels", 512, 4, 4, &rows);
        // Shape is locked here in lieu of a schema: balanced braces and
        // brackets, every field present, rows in order, and a null (not
        // an absent key) for the AVX2/intra columns on hosts that skip
        // those configurations.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"issue\": 8",
            "\"bench\": \"drive_kernels\"",
            "\"unit\": \"samples_per_sec\"",
            "\"tile_width\": 512",
            "\"batch\": 4",
            "\"intra_workers\": 4",
            "\"n_neurons\": 400",
            "\"n_neurons\": 3600",
            "\"scalar\": 8.2",
            "\"untiled\": 10.0",
            "\"tiled\": 20.5",
            "\"tiled_avx2\": 300.0",
            "\"tiled_avx2\": null",
            "\"tiled_intra\": 225.0",
            "\"tiled_intra\": null",
            "\"speedup\": 2.050",
            "\"speedup_vs_scalar\": 2.500",
            "\"speedup_avx2\": 2.000",
            "\"speedup_avx2\": null",
            "\"speedup_intra\": 1.500",
            "\"speedup_intra\": null",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(
            json.find("400").unwrap() < json.find("3600").unwrap(),
            "rows must keep sweep order"
        );
    }

    #[test]
    fn precision_json_is_well_formed_and_complete() {
        let rows = [
            PrecisionRow {
                precision: "fp32",
                word_bits: 32,
                image_bytes: 1_254_400,
                columns: 78_400,
                trace_ops: 613,
                pass_mj: 1.25,
                pass_ns: 98_000.0,
            },
            PrecisionRow {
                precision: "int8",
                word_bits: 8,
                image_bytes: 313_600,
                columns: 19_600,
                trace_ops: 154,
                pass_mj: 0.31,
                pass_ns: 24_500.0,
            },
        ];
        let json = precision_json(9, "precision_sweep", 400, &rows);
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for needle in [
            "\"issue\": 9",
            "\"bench\": \"precision_sweep\"",
            "\"neurons\": 400",
            "\"unit\": \"dram_pass\"",
            "\"precision\": \"fp32\"",
            "\"precision\": \"int8\"",
            "\"word_bits\": 32",
            "\"word_bits\": 8",
            "\"image_bytes\": 313600",
            "\"columns\": 19600",
            "\"trace_ops\": 154",
            "\"pass_mj\": 0.310000",
            "\"pass_ns\": 24500.0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(
            json.find("fp32").unwrap() < json.find("int8").unwrap(),
            "rows must keep sweep order"
        );
    }

    #[test]
    fn bench_row_speedup_survives_a_zero_baseline() {
        let row = BenchRow {
            n_neurons: 400,
            scalar: 0.0,
            untiled: 0.0,
            tiled: 10.0,
            tiled_avx2: Some(20.0),
            tiled_intra: Some(15.0),
        };
        assert_eq!(row.speedup(), 0.0);
        assert_eq!(row.speedup_vs_scalar(), 0.0);
        // A zero *tiled* baseline must also trip the AVX2/intra floors,
        // not divide by zero.
        let broken = BenchRow { tiled: 0.0, ..row };
        assert_eq!(broken.speedup_avx2(), Some(0.0));
        assert_eq!(broken.speedup_intra(), Some(0.0));
        assert_eq!(
            BenchRow {
                tiled_avx2: None,
                tiled_intra: None,
                ..row
            }
            .speedup_avx2(),
            None
        );
        assert_eq!(
            BenchRow {
                tiled_intra: None,
                ..row
            }
            .speedup_intra(),
            None
        );
    }

    #[test]
    fn paper_job_list_covers_every_figure_and_table() {
        let jobs = paper_sections(&Scale::demo(), &ExecConfig::default(), 42);
        assert_eq!(jobs.len(), 11);
        assert!(jobs[0].0.contains("Fig. 1(a)"));
        assert!(jobs.last().unwrap().0.contains("Table I"));
    }
}
