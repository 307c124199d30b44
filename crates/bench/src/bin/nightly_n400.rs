//! Nightly scale guard: one paper-scale (N400) pipeline end to end, then
//! the perf floors that only show at paper scale — the N3600 drive-kernel
//! sweep (scalar oracle vs untiled vs serial-tiled vs tiled+AVX2 vs
//! intra-parallel-tiled), DRAM trace replay (per-access vs compressed)
//! and spans-mode telemetry overhead.
//!
//! The per-PR suite runs demo-sized networks; scale-dependent regressions
//! (mapping capacity at real column counts, accuracy collapse at N400,
//! runtime blow-ups, the drive slab falling out of cache at N3600) only
//! show at paper scale. The scheduled nightly workflow runs this binary;
//! it exits non-zero when a sanity bound or perf floor is violated. Every
//! gated value is printed to stdout and, when `GITHUB_STEP_SUMMARY` is set
//! (as in GitHub Actions), appended to the job summary as one table. The
//! measured benchmark ledger (manifests, digests, noise bands) is
//! `perfbench/`; this binary only gates.
//!
//! Usage: `cargo run -p sparkxd-bench --release --bin nightly_n400`
//! (`SPARKXD_NIGHTLY_SEED` overrides the default device seed of 42).

use sparkxd_bench::{append_job_summary, env_number, exec_from_env, oracle, telemetry_summary};
use sparkxd_core::mapping::{BaselineMapping, MappingPolicy};
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig, SparkXdPipeline};
use sparkxd_core::trace_gen::columns_for_words;
use sparkxd_data::{Dataset, SynthDigits, SyntheticSource};
use sparkxd_dram::{DramConfig, DramModel};
use sparkxd_error::ErrorProfile;
use sparkxd_snn::engine::{BatchEvaluator, DEFAULT_BATCH, DEFAULT_TILE};
use sparkxd_snn::kernels::avx2_supported;
use sparkxd_snn::WeightPrecision;
use sparkxd_snn::{DiehlCookNetwork, IntraChoice, KernelChoice, NetworkParams, SnnConfig};
use sparkxd_telemetry as telemetry;

/// `num / den`, except that a non-positive (broken) baseline reads 0 —
/// finite, and guaranteed to trip any speed-up floor.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Samples/sec of each configuration of the N3600 drive-kernel sweep.
struct KernelSweep {
    /// The scalar oracle (`sparkxd_bench::oracle`, one sample at a time).
    scalar: f64,
    /// One `usize::MAX` tile — the pre-tiling behaviour.
    untiled: f64,
    /// The serial tiled sweep.
    tiled: f64,
    /// The tiled sweep on the AVX2 kernel; `None` off AVX2 hosts.
    avx2: Option<f64>,
    /// The intra-parallel tiled sweep; `None` on single-core hosts.
    intra: Option<f64>,
}

/// A briefly trained N3600 network and `samples` test digits.
fn trained_n3600(samples: usize) -> (NetworkParams, Dataset) {
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(3600).with_timesteps(50));
    net.train_epoch(&SynthDigits.generate(24, 1), 2);
    (net.into_params(), SynthDigits.generate(samples, 7))
}

/// Measures the scalar oracle, the untiled batched sweep, the serial tiled
/// batched sweep, — on AVX2 hosts — the tiled sweep on the AVX2 kernel,
/// and — with `intra_workers > 1` — the intra-parallel tiled sweep, on a
/// briefly trained N3600 network. The serial batched rows pin
/// `KernelChoice::Scalar` *and* `IntraChoice::Off` so they stay comparable
/// across hosts and nights regardless of what `auto` resolves to on a
/// multi-core runner. The configurations are **interleaved** round-robin
/// (best-of-4 per config) rather than measured back to back: on a shared
/// machine, throughput drifts by tens of percent over seconds, and
/// sequential measurement folds that drift into whichever config ran last.
fn measure_kernels(samples: usize, intra_workers: usize) -> KernelSweep {
    let (params, data) = trained_n3600(samples);
    let serial = |kernel| {
        BatchEvaluator::with_threads(1)
            .with_batch(DEFAULT_BATCH)
            .with_kernel(kernel)
            .with_intra(IntraChoice::Off)
    };
    // Slot 0 is the oracle; slot `i > 0` times `evals[i - 1]`.
    let mut evals = vec![
        serial(KernelChoice::Scalar).with_tile(usize::MAX),
        serial(KernelChoice::Scalar),
    ];
    let mut slot_of = |eval: Option<BatchEvaluator>| {
        eval.map(|eval| {
            evals.push(eval);
            evals.len()
        })
    };
    let avx2_slot = slot_of(avx2_supported().then(|| serial(KernelChoice::Avx2)));
    let intra_slot = slot_of(
        (intra_workers > 1)
            .then(|| serial(KernelChoice::Scalar).with_intra(IntraChoice::Workers(intra_workers))),
    );
    let mut best = vec![f64::MAX; evals.len() + 1];
    for _ in 0..4 {
        for (slot, best) in best.iter_mut().enumerate() {
            let t = std::time::Instant::now();
            let counts = match slot {
                0 => oracle::spike_counts(&params, &data, 0x7A),
                i => evals[i - 1].spike_counts(&params, &data, 0x7A),
            };
            std::hint::black_box(counts);
            *best = best.min(t.elapsed().as_secs_f64());
        }
    }
    let per_sec = |slot: usize| data.len() as f64 / best[slot];
    KernelSweep {
        scalar: per_sec(0),
        untiled: per_sec(1),
        tiled: per_sec(2),
        avx2: avx2_slot.map(per_sec),
        intra: intra_slot.map(per_sec),
    }
}

/// Measures DRAM trace replay throughput (accesses/sec, best of `reps`)
/// on the N400 weight-image trace: the expanded trace stepped access by
/// access vs the compressed trace with closed-form runs. Returns
/// `(per_access, compressed)`.
fn measure_replay_throughput(reps: usize) -> (f64, f64) {
    let config = DramConfig::lpddr3_1600_4gb();
    let flat = ErrorProfile::uniform(0.0, config.geometry.total_subarrays());
    let n_columns = columns_for_words(784 * 400, config.geometry.col_bytes, WeightPrecision::Fp32);
    let mapping = BaselineMapping
        .map(n_columns, &config.geometry, &flat, f64::MAX)
        .expect("device holds the N400 image");
    let compressed = mapping.read_trace();
    let expanded = compressed.expand();
    let accesses = expanded.len() as f64;

    let mut best_per_access = f64::MAX;
    let mut best_compressed = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        std::hint::black_box(DramModel::new(config.clone()).replay(&expanded).stats);
        best_per_access = best_per_access.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        std::hint::black_box(DramModel::new(config.clone()).replay(&compressed).stats);
        best_compressed = best_compressed.min(t.elapsed().as_secs_f64());
    }
    (accesses / best_per_access, accesses / best_compressed)
}

/// Measures the cost of the telemetry instrumentation on the serial
/// tiled N3600 sweep: spans mode (every counter, gauge, histogram and
/// span live) against off mode (one relaxed atomic load per site).
/// Modes are interleaved per pass, best-of-`reps` each, like the kernel
/// sweep — sequential measurement would fold machine drift into one
/// side. Returns `(off, spans)` samples/sec.
fn measure_telemetry_overhead(samples: usize, reps: usize) -> (f64, f64) {
    let (params, data) = trained_n3600(samples);
    let eval = BatchEvaluator::with_threads(1)
        .with_batch(DEFAULT_BATCH)
        .with_kernel(KernelChoice::Scalar)
        .with_intra(IntraChoice::Off);
    let mut best = [f64::MAX; 2];
    for _ in 0..reps.max(1) {
        for (slot, mode) in [telemetry::Mode::Off, telemetry::Mode::Spans]
            .into_iter()
            .enumerate()
        {
            telemetry::set_mode(mode);
            let t = std::time::Instant::now();
            std::hint::black_box(eval.spike_counts(&params, &data, 0x7A));
            best[slot] = best[slot].min(t.elapsed().as_secs_f64());
            // Drain the span-event buffer between passes so repeated
            // spans-mode passes never hit the bounded-buffer overflow.
            telemetry::reset();
        }
    }
    telemetry::set_mode(telemetry::Mode::Off);
    (data.len() as f64 / best[0], data.len() as f64 / best[1])
}

fn main() {
    let exec = exec_from_env();
    let seed = env_number("SPARKXD_NIGHTLY_SEED", 42u64);
    let config = PipelineConfig {
        exec,
        ..PipelineConfig::paper_network(400, DatasetKind::Digits, seed)
    };
    println!(
        "nightly N400 pipeline: {} train / {} test samples, {} timesteps, device seed {seed}",
        config.train_samples, config.test_samples, config.timesteps
    );
    println!("exec: {exec}");
    // Spans on for the pipeline leg: the nightly uploads a Chrome trace
    // of the full N400 run (all seven stage spans plus the pool and DRAM
    // replay spans beneath them). Observation only — and switched off
    // again below before anything the perf gates time.
    telemetry::set_mode(telemetry::Mode::Spans);
    let t0 = std::time::Instant::now();
    let outcome = SparkXdPipeline::new(config)
        .run()
        .expect("N400 pipeline must complete");
    println!(
        "baseline accuracy        : {:.2}%",
        outcome.baseline_accuracy * 100.0
    );
    println!(
        "improved clean accuracy  : {:.2}%",
        outcome.improved_clean_accuracy * 100.0
    );
    println!(
        "accuracy @ operating pt  : {:.2}%",
        outcome.accuracy_at_operating_point * 100.0
    );
    println!(
        "max tolerable BER        : {:.1e} (target met: {})",
        outcome.max_tolerable_ber, outcome.target_met
    );
    println!(
        "operating point          : {:.3} V @ BER {:.1e}",
        outcome.operating_voltage.0, outcome.operating_ber
    );
    let saving = outcome.energy.saving_fraction_vs_baseline();
    println!("DRAM energy saving       : {:.1}%", saving * 100.0);
    println!(
        "throughput speed-up      : {:.3}x",
        outcome.energy.speedup()
    );
    let pipeline_wall = t0.elapsed();
    println!("wall time                : {pipeline_wall:.1?}");

    // Dump the pipeline leg's spans: a chrome://tracing-loadable file
    // (uploaded as a nightly artifact) plus the summary table.
    const TRACE_PATH: &str = "NIGHTLY_N400_trace.json";
    match telemetry::write_chrome_trace(std::path::Path::new(TRACE_PATH)) {
        Ok(n) => println!("wrote {TRACE_PATH} ({n} span events)"),
        Err(e) => eprintln!("warning: could not write {TRACE_PATH}: {e}"),
    }
    if let Some(summary) = telemetry_summary() {
        println!("telemetry (pipeline leg):\n{summary}");
        append_job_summary(&format!(
            "### Telemetry (N400 pipeline, spans mode)\n\n```\n{summary}```\n\
             Chrome trace: `NIGHTLY_N400_trace.json` artifact.\n"
        ));
    }
    // Telemetry off (and drained) for everything the perf gates time, so
    // the throughput numbers stay comparable night to night and with the
    // pre-telemetry history.
    telemetry::set_mode(telemetry::Mode::Off);
    telemetry::reset();

    // Sanity bounds that demo scale cannot check.
    assert!(
        outcome.mapping.columns == 784 * 400 / 4,
        "N400 weight image must need {} columns, mapped {}",
        784 * 400 / 4,
        outcome.mapping.columns
    );
    assert_eq!(outcome.mapping.policy, "sparkxd");
    assert!(
        outcome.baseline_accuracy > 0.2,
        "N400 baseline accuracy collapsed: {}",
        outcome.baseline_accuracy
    );
    assert!(
        (0.05..0.60).contains(&saving),
        "energy saving {saving} left the plausible band"
    );
    assert!(
        outcome.energy.speedup() > 0.9,
        "throughput regressed: {}",
        outcome.energy.speedup()
    );

    // Drive-kernel sweep at the paper's largest network. At N3600 the
    // [B × n] drive slab is far out of L1; the tiled sweep keeps each
    // [B × tile] strip L1-resident, the AVX2 kernel rides the same tiles
    // with 8-lane bodies, and the intra sweep fans the tiles of each
    // timestep out across pool workers (all bit-identical to the portable
    // serial path by construction). The intra row runs at min(4, host
    // cores) workers — pinned explicitly, so a serial-host row measures
    // the *overhead* floor rather than silently falling back — and is
    // skipped only on single-core hosts where a 1-worker pin IS the
    // serial sweep.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let intra_workers = host_cores.min(4);
    let sweep = measure_kernels(16, intra_workers);
    let vs_scalar = ratio(sweep.tiled, sweep.scalar);
    let vs_untiled = ratio(sweep.tiled, sweep.untiled);
    let avx2_ratio = sweep.avx2.map(|avx2| ratio(avx2, sweep.tiled));
    let intra_ratio = sweep.intra.map(|intra| ratio(intra, sweep.tiled));
    let per_sec = |v: Option<f64>| v.map_or("n/a".into(), |v| format!("{v:.1}"));
    let times = |r: Option<f64>| r.map_or("n/a".into(), |r| format!("{r:.2}x"));
    println!(
        "drive kernels N3600 (1 thread, B={DEFAULT_BATCH}, tile {DEFAULT_TILE}, \
         intra {intra_workers} workers, samples/sec):"
    );
    println!(
        "  scalar {:.1}  untiled {:.1}  tiled {:.1}  tiled+avx2 {}  tiled+intra {}",
        sweep.scalar,
        sweep.untiled,
        sweep.tiled,
        per_sec(sweep.avx2),
        per_sec(sweep.intra)
    );
    println!(
        "  tiled {vs_scalar:.2}x scalar, {vs_untiled:.2}x untiled; avx2 {} tiled; intra {} tiled",
        times(avx2_ratio),
        times(intra_ratio)
    );

    // DRAM replay throughput: expanded (per-access) vs compressed trace
    // on the 78,400-column N400 weight-image trace.
    let (replay_per_access, replay_compressed) = measure_replay_throughput(3);
    let replay_ratio = ratio(replay_compressed, replay_per_access);
    println!("DRAM replay throughput (N400 trace, accesses/sec):");
    println!("  per-access                        : {replay_per_access:12.0}");
    println!(
        "  compressed                        : {replay_compressed:12.0}  ({replay_ratio:.1}x per-access)"
    );

    // Telemetry overhead: the observation-only contract says spans-mode
    // instrumentation sits only at coarse seams (per run_batch call, per
    // replay — never per timestep), so the serial tiled N3600 sweep must
    // keep essentially all of its telemetry-off throughput.
    let (telem_off, telem_spans) = measure_telemetry_overhead(16, 4);
    let telem_ratio = ratio(telem_spans, telem_off);
    println!("telemetry overhead (N3600 serial tiled, samples/sec):");
    println!("  telemetry off                     : {telem_off:8.1}");
    println!("  telemetry spans                   : {telem_spans:8.1}  ({telem_ratio:.3}x off)");

    append_job_summary(&format!(
        "### Nightly gates (N400 pipeline, N3600 kernels)\n\n\
         | gate | measured | bound |\n|---|---|---|\n\
         | N400 mapped columns | {} ({}) | = 78400 (`sparkxd`) |\n\
         | baseline accuracy | {:.2}% | > 20% |\n\
         | DRAM energy saving | {:.1}% | 5%..60% |\n\
         | throughput speed-up | {:.3}x | > 0.9x |\n\
         | compressed / per-access replay | {replay_ratio:.1}x | > 2.0x |\n\
         | N3600 tiled / scalar | {vs_scalar:.2}x | >= 1.35x |\n\
         | N3600 tiled / untiled | {vs_untiled:.2}x | >= 0.8x |\n\
         | N3600 avx2 / tiled | {} | >= 1.10x (AVX2 hosts) |\n\
         | N3600 intra / tiled ({intra_workers} workers) | {} | >= 1.4x (4+ cores) |\n\
         | N3600 spans / off telemetry | {telem_ratio:.3}x | >= 0.97x |\n\n\
         Pipeline wall time {pipeline_wall:.1?}, device seed {seed}.",
        outcome.mapping.columns,
        outcome.mapping.policy,
        outcome.baseline_accuracy * 100.0,
        saving * 100.0,
        outcome.energy.speedup(),
        times(avx2_ratio),
        times(intra_ratio),
    ));
    // Perf gates last, so a tripped bound never discards the summary the
    // diagnosis needs.
    assert!(
        replay_ratio > 2.0,
        "compressed replay no longer pays for itself: {replay_ratio:.2}x"
    );
    // N3600 floors. The batched tiled path sustains ~1.5-1.6x the scalar
    // reference on the reference container (interleaved best-of-4); 1.35x
    // leaves margin for runner noise while still catching a real
    // regression. Tiling itself is a wash against the untiled sweep on
    // large-L2 parts (the whole N3600 working set fits a 2 MiB L2, and
    // hardware prefetch hides the slab streaming) and only pays on
    // L1-constrained cores, so it gets a no-catastrophic-regression floor
    // rather than a speedup floor.
    assert!(
        vs_scalar >= 1.35,
        "batched tiled N3600 no longer clearly beats the scalar baseline: {vs_scalar:.2}x"
    );
    assert!(
        vs_untiled >= 0.8,
        "tiled N3600 sweep regressed badly vs untiled: {vs_untiled:.2}x"
    );
    // AVX2 kernel floor. On the reference container the AVX2 kernel
    // sustains ~1.15-1.26x the portable tiled sweep at N3600; 1.10x is
    // the noise-margined in-run floor that still catches the SIMD path
    // silently losing its advantage.
    match avx2_ratio {
        Some(ratio) => assert!(
            ratio >= 1.10,
            "AVX2 N3600 kernel no longer clearly beats the portable tiled sweep: {ratio:.2}x"
        ),
        None => println!("AVX2 gate skipped: host reports no AVX2"),
    }
    // Intra-parallel floor. At 4 workers the per-timestep tile fan-out
    // must clearly beat the serial tiled sweep at N3600 (the occupancy
    // headroom this sweep exists to claim); 1.4x leaves ~2.8x of the
    // ideal 4x on the table for barrier cost and the serial
    // commit/inhibition tail. The gate only means something when the
    // host actually has 4 cores — an oversubscribed pin measures context
    // switching, not occupancy — so, like the AVX2 gate, it is skipped
    // (with the measured ratio still printed) on smaller hosts.
    match intra_ratio {
        Some(ratio) if intra_workers >= 4 => assert!(
            ratio >= 1.4,
            "intra-parallel tiled N3600 no longer clearly beats the serial tiled sweep \
             at {intra_workers} workers: {ratio:.2}x"
        ),
        Some(ratio) => println!(
            "intra gate skipped: host has {host_cores} cores, need 4 \
             (measured {ratio:.2}x at {intra_workers} workers)"
        ),
        None => println!("intra gate skipped: single-core host"),
    }
    // Telemetry overhead gate: spans mode must keep >= 0.97x of the
    // telemetry-off tiled N3600 throughput — the "zero overhead when you
    // aren't looking, negligible when you are" contract, enforced.
    assert!(
        telem_ratio >= 0.97,
        "spans-mode telemetry costs too much at N3600: {telem_ratio:.3}x off-mode throughput"
    );
    println!("nightly N400-N3600 check: OK");
}

#[cfg(test)]
mod tests {
    use super::ratio;

    #[test]
    fn bench_row_speedup_survives_a_zero_baseline() {
        assert_eq!(ratio(30.0, 20.0), 1.5);
        // A zero or negative baseline (a broken scalar, untiled or tiled
        // measurement) must trip every floor, not divide by zero.
        assert_eq!(ratio(10.0, 0.0), 0.0);
        assert_eq!(ratio(10.0, -1.0), 0.0);
    }
}
