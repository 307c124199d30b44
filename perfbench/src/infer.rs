//! `infer_n3600`: batched inference on the paper's largest network.
//!
//! Set-up trains an N3600 (T = 100) model with a fixed short recipe,
//! labels its neurons and deploys it at 1.025 V under BER_th 1e-4
//! (weak cells, SparkXD mapping, placement-shaped injection, scrub,
//! priced replay). The timed part is repeated `spike_counts` passes
//! over one fixed set of samples with the engine's default execution
//! config pinned; every pass must return the same spike counts.

use crate::deploy::{deploy, Deployed};
use crate::digest;
use crate::manifest::{nproc, peak_rss_mb};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::work::{layer_values, Work};
use crate::{traced_session, Args, Checks, Report};
use sparkxd_circuit::Volt;
use sparkxd_core::pipeline::{DatasetKind, PipelineConfig};
use sparkxd_core::CoreError;
use sparkxd_data::Dataset;
use sparkxd_snn::engine::{DEFAULT_BATCH, DEFAULT_TILE};
use sparkxd_snn::{
    BatchEvaluator, DiehlCookNetwork, IntraChoice, KernelChoice, NeuronLabeler, SnnConfig,
};
use std::time::Instant;

const NEURONS: usize = 3600;
const TIMESTEPS: usize = 100;
/// Training samples of the fixed set-up recipe (one STDP epoch).
const TRAIN_SAMPLES: usize = 96;
/// Samples per timed pass.
const PASS_SAMPLES: usize = 512;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 3;
/// Timed passes per untraced run, at least (more while time remains).
const MIN_PASSES: usize = 5;
/// Passes of each half of a traced run (the first is the warm-up).
const TRACED_PASSES: usize = 3;
const BER_TH: f64 = 1e-4;
const V_SUPPLY: Volt = Volt(1.025);

fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        train_samples: TRAIN_SAMPLES,
        test_samples: PASS_SAMPLES,
        timesteps: TIMESTEPS,
        ..PipelineConfig::paper_network(NEURONS, DatasetKind::Digits, seed)
    }
}

/// The engine's default execution config, pinned.
fn exec() -> BatchEvaluator {
    BatchEvaluator::with_threads(nproc())
        .with_batch(DEFAULT_BATCH)
        .with_tile(DEFAULT_TILE)
        .with_kernel(KernelChoice::Auto)
        .with_intra(IntraChoice::Auto)
}

fn exec_label() -> String {
    format!(
        "infer threads={} batch={DEFAULT_BATCH} tile={DEFAULT_TILE} kernel=Auto intra=Auto",
        nproc()
    )
}

/// The pipeline's deployment rule: 1.025 V, raised to the lowest
/// voltage whose device BER fits under BER_th.
fn operating_voltage(cfg: &PipelineConfig) -> Volt {
    if cfg.ber_curve.ber_at(V_SUPPLY) > BER_TH {
        cfg.ber_curve.voltage_for_ber(BER_TH)
    } else {
        V_SUPPLY
    }
}

struct Model {
    deployed: Deployed,
    labeler: NeuronLabeler,
    pass_set: Dataset,
}

impl Model {
    /// Digest of the deployed weights and the neuron labels.
    fn digest(&self) -> u64 {
        let mut d = digest::Digest::new();
        for w in self.deployed.params.weights().as_slice() {
            d.bytes(&w.to_bits().to_le_bytes());
        }
        for a in self.labeler.assignments() {
            d.u64(a.map_or(u64::MAX, u64::from));
        }
        d.finish()
    }
}

fn setup(cfg: &PipelineConfig, tracer: &Tracer, work: &mut Work) -> Result<Model, CoreError> {
    let (train_set, pass_set) = tracer.span("data.generate", || {
        (
            cfg.dataset.generate(cfg.train_samples, cfg.data_seed),
            cfg.dataset
                .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57),
        )
    });
    let snn = SnnConfig::for_neurons(NEURONS)
        .with_timesteps(TIMESTEPS)
        .with_weight_seed(cfg.device_seed ^ 0x11);
    let mut net = tracer.span("snn.init", || DiehlCookNetwork::new(snn));
    let spikes = tracer.span("snn.train", || {
        net.train_epoch(&train_set, cfg.training.spike_seed)
    });
    work.training(train_set.len(), spikes);
    let labeler = tracer.span("engine.label", || {
        exec().label_neurons(net.params(), &train_set, cfg.training.spike_seed ^ 0xABCD)
    });
    work.inference(train_set.len(), TIMESTEPS, NEURONS);
    let deployed = deploy(&net, operating_voltage(cfg), BER_TH, cfg, tracer, work)?;
    work.pass_mj = deployed.energy.total_mj();
    Ok(Model {
        deployed,
        labeler,
        pass_set,
    })
}

/// One timed pass; returns the spike counts.
fn pass(model: &Model, seed: u64, tracer: &Tracer, work: &mut Work) -> Vec<Vec<u32>> {
    let counts = tracer.span("engine.infer", || {
        exec().spike_counts(&model.deployed.params, &model.pass_set, seed)
    });
    work.inference(counts.len(), TIMESTEPS, NEURONS);
    work.output_spikes += counts.iter().flatten().map(|&c| u64::from(c)).sum::<u64>();
    counts
}

fn accuracy(model: &Model, counts: &[Vec<u32>]) -> f64 {
    let correct = counts
        .iter()
        .zip(model.pass_set.labels())
        .filter(|(c, &label)| model.labeler.predict(c) == Some(label))
        .count();
    correct as f64 / counts.len().max(1) as f64
}

/// Output checks of a model's first pass.
fn check_pass(model: &Model, counts: &[Vec<u32>], checks: &mut Checks, notes: &mut Vec<String>) {
    let spikes: u64 = counts.iter().flatten().map(|&c| u64::from(c)).sum();
    let acc = accuracy(model, counts);
    checks.check(
        counts.len() == PASS_SAMPLES && counts.iter().all(|c| c.len() == NEURONS),
        "one count per neuron for every sample",
    );
    checks.check(spikes > 0, "the deployed model spikes");
    checks.check(
        acc > 0.12,
        format!("deployed accuracy {acc:.3} above chance"),
    );
    notes.push(format!(
        "pass digest {:016x}: {spikes} output spikes, deployed accuracy {acc:.3}, \
         {:.6} mJ DRAM energy per pass",
        digest::spike_counts(counts),
        model.deployed.energy.total_mj()
    ));
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let seed = cfg.training.spike_seed ^ 0x1F;
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut model_digests = Vec::with_capacity(SETUP_REPS);
    let mut model = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let m =
            setup(&cfg, &Tracer::new(false), &mut Work::default()).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        model_digests.push(m.digest());
        model = Some(m);
    }
    let model = model.expect("at least one set-up");
    checks.check(
        model_digests.iter().all(|&d| d == model_digests[0]),
        "every set-up deploys the same model",
    );
    notes.push(format!("deployed model digest {:016x}", model_digests[0]));

    let mut work = Work::default();
    let off = Tracer::new(false);
    let warm = pass(&model, seed, &off, &mut work);
    check_pass(&model, &warm, &mut checks, &mut notes);
    let reference = digest::spike_counts(&warm);

    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds as f64 {
        let t = Instant::now();
        let counts = pass(&model, seed, &off, &mut work);
        walls.push(t.elapsed().as_secs_f64());
        checks.check(
            digest::spike_counts(&counts) == reference,
            "every pass returns the warm-up pass's spike counts",
        );
    }
    let wall = median(&walls).ok_or("no passes")?;
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let mut values = crate::spec::Values::new();
    values.insert("p50_ms", wall * 1e3);
    values.insert("tail_ms", tail(&ms).ok_or("no passes")?);
    // Throughput of the median pass, like `p50_ms`.
    values.insert("samples_per_s", PASS_SAMPLES as f64 / wall);
    values.insert("setup_s", median(&setup_s).ok_or("no set-up")?);
    values.insert("peak_rss_mb", peak_rss_mb());
    notes.push(format!(
        "{} timed passes of {PASS_SAMPLES} samples",
        walls.len()
    ));
    Ok(Report {
        checks,
        attempted: walls.len() as u64 + 1,
        failed: 0,
        values,
        notes,
        exec: exec_label(),
    })
}

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let seed = cfg.training.spike_seed ^ 0x1F;
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let body = |tracer: &Tracer, work: &mut Work| -> Result<(Model, Vec<u64>), CoreError> {
        let model = setup(&cfg, tracer, work)?;
        let passes = (0..TRACED_PASSES)
            .map(|_| digest::spike_counts(&pass(&model, seed, tracer, work)))
            .collect();
        Ok((model, passes))
    };
    let t = Instant::now();
    let (untraced_model, untraced_passes) =
        body(&Tracer::new(false), &mut Work::default()).map_err(|e| e.to_string())?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut work = Work::default();
    let (traced, session) = traced_session("infer_n3600", |tracer| body(tracer, &mut work));
    let (model, passes) = traced.map_err(|e| e.to_string())?;
    checks.check(
        model.digest() == untraced_model.digest() && passes == untraced_passes,
        "traced run deploys the same model and returns the same spike counts",
    );
    checks.check(
        passes.iter().all(|&d| d == passes[0]),
        "every pass returns the same spike counts",
    );
    notes.push(format!(
        "deployed model digest {:016x}, pass digest {:016x}",
        model.digest(),
        passes[0]
    ));
    notes.push(work.describe());
    let mut values = layer_values(
        &session.tracer,
        &work,
        session.dispatches,
        session.busy_peak,
    );
    values.insert("trace.overhead_s", session.wall_s - untraced_s);
    session.finish(&mut notes)?;
    Ok(Report {
        checks,
        attempted: 2 * TRACED_PASSES as u64,
        failed: 0,
        values,
        notes,
        exec: exec_label(),
    })
}
