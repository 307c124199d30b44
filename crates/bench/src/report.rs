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
    fn paper_job_list_covers_every_figure_and_table() {
        let jobs = paper_sections(&Scale::demo(), &ExecConfig::default(), 42);
        assert_eq!(jobs.len(), 11);
        assert!(jobs[0].0.contains("Fig. 1(a)"));
        assert!(jobs.last().unwrap().0.contains("Table I"));
    }
}
