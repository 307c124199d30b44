//! Nightly scale guard: one paper-scale (N400) pipeline end to end, an
//! engine-throughput measurement (scalar oracle vs batched read path),
//! and a drive-kernel scale sweep up to the paper's largest network
//! (N3600, scalar oracle vs untiled vs serial-tiled vs tiled+AVX2 vs
//! intra-parallel-tiled).
//!
//! The per-PR suite runs demo-sized networks; scale-dependent regressions
//! (mapping capacity at real column counts, accuracy collapse at N400,
//! runtime blow-ups, the drive slab falling out of cache at N3600) only
//! show at paper scale. The scheduled nightly workflow runs this binary;
//! it exits non-zero when a sanity bound is violated. Throughput numbers
//! are printed to stdout and, when `GITHUB_STEP_SUMMARY` is set (as in
//! GitHub Actions), appended to the job summary as a markdown table so
//! the nightly trajectory is visible without digging through logs. The
//! kernel sweep is additionally written to `BENCH_8.json`
//! (machine-readable samples/sec per configuration, at N400/N1600/N3600)
//! for the trajectory tooling, and the storage-precision sweep (fp32 vs
//! int16 vs int8 N400 weight images: columns, trace ops, pass energy) to
//! `BENCH_9.json`.
//!
//! Usage: `cargo run -p sparkxd-bench --release --bin nightly_n400`
//! (`SPARKXD_NIGHTLY_SEED` overrides the default device seed of 42).

use sparkxd_bench::{
    append_job_summary, bench_json, env_number, exec_from_env, oracle, precision_json,
    telemetry_overhead_json, telemetry_summary, write_bench_json, BenchRow, PrecisionRow,
};
use sparkxd_core::energy_eval::EnergyEvaluation;
use sparkxd_core::mapping::{BaselineMapping, MappingPolicy};
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig, SparkXdPipeline};
use sparkxd_core::trace_gen::columns_for_words;
use sparkxd_data::{SynthDigits, SyntheticSource};
use sparkxd_dram::{DramConfig, DramModel};
use sparkxd_error::ErrorProfile;
use sparkxd_snn::engine::{busy_peak, BatchEvaluator, DEFAULT_BATCH};
use sparkxd_snn::kernels::avx2_supported;
use sparkxd_snn::WeightPrecision;
use sparkxd_snn::{DiehlCookNetwork, ExecConfig, IntraChoice, KernelChoice, SnnConfig, WorkerPool};
use sparkxd_telemetry as telemetry;

/// Samples/sec of one pass of `run` over `samples` inferences (best of
/// `reps` passes, first pass warms the cache).
fn samples_per_sec(samples: usize, reps: usize, run: impl Fn() -> Vec<Vec<u32>>) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        std::hint::black_box(run());
        best = best.min(t.elapsed().as_secs_f64());
    }
    samples as f64 / best
}

/// Measures the scalar oracle vs batched (and machine-parallel batched)
/// inference throughput on a briefly trained N400 model; returns
/// `(scalar, batched, parallel)` in samples/sec.
fn measure_throughput(exec: &ExecConfig) -> (f64, f64, f64) {
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(400).with_timesteps(50));
    net.train_epoch(&SynthDigits.generate(48, 1), 2);
    let params = net.into_params();
    let data = SynthDigits.generate(64, 7);
    let scalar = samples_per_sec(data.len(), 3, || oracle::spike_counts(&params, &data, 0x7A));
    let batched_eval = BatchEvaluator::with_threads(1).with_batch(DEFAULT_BATCH);
    let batched = samples_per_sec(data.len(), 3, || {
        batched_eval.spike_counts(&params, &data, 0x7A)
    });
    let parallel_eval = BatchEvaluator::new(*exec).with_batch(DEFAULT_BATCH);
    let parallel = samples_per_sec(data.len(), 3, || {
        parallel_eval.spike_counts(&params, &data, 0x7A)
    });
    (scalar, batched, parallel)
}

/// Measures the scalar oracle (`sparkxd_bench::oracle`, one sample at a
/// time on one thread), the untiled batched sweep (one `usize::MAX`
/// tile — the pre-tiling behaviour), the serial tiled batched sweep, —
/// on AVX2 hosts — the tiled sweep on the AVX2 kernel, and — with
/// `intra_workers > 1` — the intra-parallel tiled sweep (the per-timestep tile fan-out across
/// `intra_workers` pool workers), on a briefly trained network of
/// `n_neurons`. The serial batched rows pin `KernelChoice::Scalar` *and*
/// `IntraChoice::Off` so they stay comparable across hosts and nights
/// regardless of what `auto` resolves to on a multi-core runner. The
/// configurations are **interleaved** round-robin (best-of per config)
/// rather than measured back to back: on a shared machine, throughput
/// drifts by tens of percent over seconds, and sequential measurement
/// folds that drift into whichever config ran last. Sample counts shrink
/// as the network grows so the sweep stays in nightly budget.
fn measure_kernels(n_neurons: usize, samples: usize, intra_workers: usize) -> BenchRow {
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(n_neurons).with_timesteps(50));
    net.train_epoch(&SynthDigits.generate(24, 1), 2);
    let params = net.into_params();
    let data = SynthDigits.generate(samples, 7);
    // Slot 0 is the oracle; slot `i > 0` times `evals[i - 1]`.
    let mut evals = vec![
        BatchEvaluator::with_threads(1)
            .with_batch(DEFAULT_BATCH)
            .with_tile(usize::MAX)
            .with_kernel(KernelChoice::Scalar)
            .with_intra(IntraChoice::Off),
        BatchEvaluator::with_threads(1)
            .with_batch(DEFAULT_BATCH)
            .with_kernel(KernelChoice::Scalar)
            .with_intra(IntraChoice::Off),
    ];
    let avx2_slot = if avx2_supported() {
        evals.push(
            BatchEvaluator::with_threads(1)
                .with_batch(DEFAULT_BATCH)
                .with_kernel(KernelChoice::Avx2)
                .with_intra(IntraChoice::Off),
        );
        Some(evals.len())
    } else {
        None
    };
    let intra_slot = if intra_workers > 1 {
        evals.push(
            BatchEvaluator::with_threads(1)
                .with_batch(DEFAULT_BATCH)
                .with_kernel(KernelChoice::Scalar)
                .with_intra(IntraChoice::Workers(intra_workers)),
        );
        Some(evals.len())
    } else {
        None
    };
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
    BenchRow {
        n_neurons,
        scalar: data.len() as f64 / best[0],
        untiled: data.len() as f64 / best[1],
        tiled: data.len() as f64 / best[2],
        tiled_avx2: avx2_slot.map(|i| data.len() as f64 / best[i]),
        tiled_intra: intra_slot.map(|i| data.len() as f64 / best[i]),
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

/// One N400 weight-image pass per storage format on the accurate-DRAM
/// baseline mapping: columns, compressed-trace ops and replay-priced
/// energy/latency. Deterministic (no timing) — this sweep measures
/// *traffic*, the kernel sweeps above measure speed.
fn measure_precision_sweep() -> Vec<PrecisionRow> {
    let config = DramConfig::lpddr3_1600_4gb();
    let flat = ErrorProfile::uniform(0.0, config.geometry.total_subarrays());
    [
        WeightPrecision::Fp32,
        WeightPrecision::Int16,
        WeightPrecision::Int8,
    ]
    .into_iter()
    .map(|precision| {
        let n_columns = columns_for_words(784 * 400, config.geometry.col_bytes, precision);
        let mapping = BaselineMapping
            .map(n_columns, &config.geometry, &flat, f64::MAX)
            .expect("device holds the packed N400 image")
            .with_precision(precision);
        let energy = EnergyEvaluation::evaluate(&config, &mapping);
        PrecisionRow {
            precision: precision.label(),
            word_bits: precision.word_bits(),
            image_bytes: 784 * 400 * precision.bytes_per_word(),
            columns: n_columns,
            trace_ops: mapping.read_trace().num_ops(),
            pass_mj: energy.total_mj(),
            pass_ns: energy.runtime_ns(),
        }
    })
    .collect()
}

/// Measures the cost of the telemetry instrumentation on the serial
/// tiled N3600 sweep: spans mode (every counter, gauge, histogram and
/// span live) against off mode (one relaxed atomic load per site).
/// Modes are interleaved per pass, best-of-`reps` each, like the kernel
/// sweep — sequential measurement would fold machine drift into one
/// side. Returns `(off, spans)` samples/sec.
fn measure_telemetry_overhead(samples: usize, reps: usize) -> (f64, f64) {
    let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(3600).with_timesteps(50));
    net.train_epoch(&SynthDigits.generate(24, 1), 2);
    let params = net.into_params();
    let data = SynthDigits.generate(samples, 7);
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

    // Engine throughput: the scalar oracle (one sample at a time) vs
    // batched (effective-plane streaming, B = DEFAULT_BATCH), single
    // thread, plus the machine-parallel batched figure.
    let (scalar, batched, parallel) = measure_throughput(&exec);
    let ratio = batched / scalar.max(f64::MIN_POSITIVE);
    println!("inference throughput (N400, samples/sec):");
    println!("  scalar   (1 thread, oracle)       : {scalar:8.1}");
    println!(
        "  batched  (1 thread, B={DEFAULT_BATCH})          : {batched:8.1}  ({ratio:.2}x scalar)"
    );
    println!("  batched  (machine threads, B={DEFAULT_BATCH})   : {parallel:8.1}");

    // Drive-kernel scale sweep: scalar oracle vs untiled vs serial tiled vs
    // tiled+AVX2 vs intra-parallel tiled from the pipeline's N400 up to
    // the paper's largest network. At N3600 the [B × n] drive slab is far
    // out of L1; the tiled sweep keeps each [B × tile] strip L1-resident,
    // the AVX2 kernel rides the same tiles with 8-lane bodies, and the
    // intra sweep fans the tiles of each timestep out across pool workers
    // (all bit-identical to the portable serial path by construction).
    // The intra row runs at min(4, host cores) workers — pinned
    // explicitly, so a serial-host row measures the *overhead* floor
    // rather than silently falling back — and is skipped (null) only on
    // single-core hosts where a 1-worker pin IS the serial sweep.
    use sparkxd_snn::engine::DEFAULT_TILE;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let intra_workers = host_cores.min(4);
    let sweep: Vec<BenchRow> = [(400usize, 64usize), (1600, 32), (3600, 16)]
        .into_iter()
        .map(|(n, samples)| measure_kernels(n, samples, intra_workers))
        .collect();
    println!(
        "drive kernels (1 thread, B={DEFAULT_BATCH}, tile {DEFAULT_TILE}, \
         intra {intra_workers} workers, samples/sec):"
    );
    for row in &sweep {
        let avx2 = match row.tiled_avx2 {
            Some(v) => format!("{v:8.1}"),
            None => "     n/a".into(),
        };
        let avx2_ratio = match row.speedup_avx2() {
            Some(r) => format!(", avx2 {r:.2}x tiled"),
            None => String::new(),
        };
        let intra = match row.tiled_intra {
            Some(v) => format!("{v:8.1}"),
            None => "     n/a".into(),
        };
        let intra_ratio = match row.speedup_intra() {
            Some(r) => format!(", intra {r:.2}x tiled"),
            None => String::new(),
        };
        println!(
            "  N{:<5} scalar {:8.1}  untiled {:8.1}  tiled {:8.1}  tiled+avx2 {avx2}  \
             tiled+intra {intra}  ({:.2}x untiled, {:.2}x scalar{avx2_ratio}{intra_ratio})",
            row.n_neurons,
            row.scalar,
            row.untiled,
            row.tiled,
            row.speedup(),
            row.speedup_vs_scalar()
        );
    }
    let json = bench_json(
        8,
        "drive_kernels",
        DEFAULT_TILE,
        DEFAULT_BATCH,
        intra_workers,
        &sweep,
    );
    if write_bench_json("BENCH_8.json", &json) {
        println!("wrote BENCH_8.json");
    } else {
        eprintln!("warning: could not write BENCH_8.json");
    }

    // DRAM replay throughput: expanded (per-access) vs compressed trace
    // on the 78,400-column N400 weight-image trace.
    let (replay_per_access, replay_compressed) = measure_replay_throughput(3);
    let replay_ratio = replay_compressed / replay_per_access.max(f64::MIN_POSITIVE);
    println!("DRAM replay throughput (N400 trace, accesses/sec):");
    println!("  per-access                        : {replay_per_access:12.0}");
    println!(
        "  compressed                        : {replay_compressed:12.0}  ({replay_ratio:.1}x per-access)"
    );

    // Storage-precision sweep: the packed int8/int16 N400 images against
    // the FP32 image, on the accurate-DRAM baseline mapping.
    let precisions = measure_precision_sweep();
    println!("storage precision sweep (N400 image pass, accurate DRAM):");
    for row in &precisions {
        println!(
            "  {:<6} {:>9} bytes  {:>6} columns  {:>5} trace ops  {:.4} mJ  {:.0} ns",
            row.precision, row.image_bytes, row.columns, row.trace_ops, row.pass_mj, row.pass_ns
        );
    }
    let pjson = precision_json(9, "precision_sweep", 400, &precisions);
    if write_bench_json("BENCH_9.json", &pjson) {
        println!("wrote BENCH_9.json");
    } else {
        eprintln!("warning: could not write BENCH_9.json");
    }

    // Telemetry overhead: the observation-only contract says spans-mode
    // instrumentation sits only at coarse seams (per run_batch call, per
    // replay — never per timestep), so the serial tiled N3600 sweep must
    // keep essentially all of its telemetry-off throughput.
    let (telem_off, telem_spans) = measure_telemetry_overhead(16, 4);
    let telem_ratio = telem_spans / telem_off.max(f64::MIN_POSITIVE);
    println!("telemetry overhead (N3600 serial tiled, samples/sec):");
    println!("  telemetry off                     : {telem_off:8.1}");
    println!("  telemetry spans                   : {telem_spans:8.1}  ({telem_ratio:.3}x off)");
    let tjson = telemetry_overhead_json(3600, 16, telem_off, telem_spans);
    if write_bench_json("BENCH_10.json", &tjson) {
        println!("wrote BENCH_10.json");
    } else {
        eprintln!("warning: could not write BENCH_10.json");
    }

    // Pool occupancy across every leg above (the global pool serves the
    // pipeline, the machine-parallel throughput row and the intra sweep).
    let pool_peak = busy_peak();
    let pool_dispatches = WorkerPool::global().dispatches();
    println!(
        "pool occupancy             : busy peak {pool_peak} workers, {pool_dispatches} dispatches"
    );

    append_job_summary(&format!(
        "### Nightly N400\n\n\
         | metric | value |\n|---|---|\n\
         | baseline accuracy | {:.2}% |\n\
         | accuracy @ operating point | {:.2}% |\n\
         | DRAM energy saving | {:.1}% |\n\
         | wall time (pipeline) | {:.1?} |\n\
         | scalar throughput (1 thread, oracle) | {scalar:.1} samples/s |\n\
         | batched throughput (1 thread, B={DEFAULT_BATCH}) | {batched:.1} samples/s ({ratio:.2}x scalar) |\n\
         | batched throughput (machine threads, B={DEFAULT_BATCH}) | {parallel:.1} samples/s |\n\
         | DRAM replay, per-access | {replay_per_access:.0} accesses/s |\n\
         | DRAM replay, compressed | {replay_compressed:.0} accesses/s ({replay_ratio:.1}x per-access) |\n\
         | telemetry overhead (spans, N3600 tiled) | {telem_ratio:.3}x off (`BENCH_10.json` artifact) |\n\
         | pool occupancy | busy peak {pool_peak} workers, {pool_dispatches} dispatches |",
        outcome.baseline_accuracy * 100.0,
        outcome.accuracy_at_operating_point * 100.0,
        saving * 100.0,
        pipeline_wall,
    ));
    let sweep_rows: String = sweep
        .iter()
        .map(|r| {
            format!(
                "| N{} | {:.1} | {:.1} | {:.1} | {} | {} | {:.2}x | {:.2}x | {} | {} |\n",
                r.n_neurons,
                r.scalar,
                r.untiled,
                r.tiled,
                r.tiled_avx2.map_or("n/a".into(), |v| format!("{v:.1}")),
                r.tiled_intra.map_or("n/a".into(), |v| format!("{v:.1}")),
                r.speedup(),
                r.speedup_vs_scalar(),
                r.speedup_avx2()
                    .map_or("n/a".into(), |v| format!("{v:.2}x")),
                r.speedup_intra()
                    .map_or("n/a".into(), |v| format!("{v:.2}x")),
            )
        })
        .collect();
    append_job_summary(&format!(
        "### Drive kernels (1 thread, B={DEFAULT_BATCH}, tile {DEFAULT_TILE}, \
         intra {intra_workers} workers, samples/s)\n\n\
         | network | scalar | untiled | tiled | tiled+avx2 | tiled+intra | tiled/untiled | tiled/scalar | avx2/tiled | intra/tiled |\n\
         |---|---|---|---|---|---|---|---|---|---|\n{sweep_rows}\n\
         Machine-readable copy: `BENCH_8.json` artifact."
    ));
    let precision_rows: String = precisions
        .iter()
        .map(|r| {
            format!(
                "| {} | {} | {} | {} | {} | {:.4} | {:.0} |\n",
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
    append_job_summary(&format!(
        "### Storage precision sweep (N400 image pass, accurate DRAM)\n\n\
         | precision | word bits | image bytes | columns | trace ops | pass mJ | pass ns |\n\
         |---|---|---|---|---|---|---|\n{precision_rows}\n\
         Machine-readable copy: `BENCH_9.json` artifact."
    ));
    // Perf gates last, so a tripped bound never discards the summary the
    // diagnosis needs.
    assert!(
        replay_ratio > 2.0,
        "compressed replay no longer pays for itself: {replay_ratio:.2}x"
    );
    // Packed-image traffic gate: the int8 N400 image must replay in at
    // most 0.3x the FP32 trace's op count (quarter the columns, with
    // row-activation overhead bounded) and cost proportionally less.
    let by_precision = |label: &str| {
        precisions
            .iter()
            .find(|r| r.precision == label)
            .expect("sweep covers all three formats")
    };
    let (fp32, int8) = (by_precision("fp32"), by_precision("int8"));
    assert!(
        (int8.trace_ops as f64) <= 0.3 * fp32.trace_ops as f64,
        "int8 N400 replay ops {} exceed 0.3x the FP32 trace's {}",
        int8.trace_ops,
        fp32.trace_ops
    );
    assert!(
        int8.pass_mj < 0.3 * fp32.pass_mj,
        "int8 N400 pass energy {} mJ not under 0.3x FP32's {} mJ",
        int8.pass_mj,
        fp32.pass_mj
    );
    // N3600 floors. The batched tiled path sustains ~1.5-1.6x the scalar
    // reference on the reference container (interleaved best-of-4); 1.35x
    // leaves margin for runner noise while still catching a real
    // regression. Tiling itself is a wash against the untiled sweep on
    // large-L2 parts (the whole N3600 working set fits a 2 MiB L2, and
    // hardware prefetch hides the slab streaming) and only pays on
    // L1-constrained cores, so it gets a no-catastrophic-regression floor
    // rather than a speedup floor.
    let n3600 = sweep
        .iter()
        .find(|r| r.n_neurons == 3600)
        .expect("sweep covers N3600");
    assert!(
        n3600.speedup_vs_scalar() >= 1.35,
        "batched tiled N3600 no longer clearly beats the scalar baseline: {:.2}x",
        n3600.speedup_vs_scalar()
    );
    assert!(
        n3600.speedup() >= 0.8,
        "tiled N3600 sweep regressed badly vs untiled: {:.2}x",
        n3600.speedup()
    );
    // AVX2 kernel floor. On the reference container the AVX2 kernel
    // sustains ~1.15-1.26x the portable tiled sweep at N3600 (the
    // portable row also gained the cross-row prefetch this round, so the
    // in-run ratio is tighter than the ~1.3-1.4x the combined
    // kernel+prefetch path shows over the previous portable-only
    // baseline); 1.10x is the noise-margined in-run floor that still
    // catches the SIMD path silently losing its advantage.
    match n3600.speedup_avx2() {
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
    // (with the measured rows still recorded in BENCH_8.json) on smaller
    // hosts.
    match n3600.speedup_intra() {
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
