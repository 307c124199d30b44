//! The online inference service: per-tier request queues, a dynamic
//! batcher and a std-thread worker pool over the batched engine path.
//!
//! ## Flow
//!
//! [`SparkXdService::submit`] routes a request to a tier (pure policy
//! lookup), applies admission control against a global queue bound and
//! enqueues it. Worker threads drain a tier's queue into a chunk of up to
//! `batch` requests as soon as a full chunk is available **or** the
//! tier's oldest request has waited `max_wait` (the classic dynamic
//! batcher trade: amortise the weight-image pass without letting a lone
//! request starve). The chunk runs through
//! [`NetworkParams::run_batch`](sparkxd_snn::NetworkParams::run_batch)
//! with one RNG stream per request id, and each answer goes back over one
//! response channel.
//!
//! ## Determinism
//!
//! The spike RNG of request `id` is `sample_rng(spike_seed, id)` — the
//! same per-sample stream derivation the offline engine uses — and a
//! sample's spike counts from `run_batch` are bit-identical for any chunk
//! composition. Tier choice is a pure function of the request's policy.
//! So `(id → label, tier)` is **bit-identical for any worker count, batch
//! size, chunking or arrival timing**; only latency/throughput metrics
//! vary. A service answer is exactly the offline answer for the same
//! `(seed, id)` pair. The intra-chunk tile sweep ([`IntraChoice`], routed
//! through [`ServiceConfig::with_intra`]) keeps that contract: its split
//! is bit-identical by construction, so the intra setting, too, only
//! moves latency.
//!
//! ## Thread budget
//!
//! The service's workers register one [`WorkerReservation`] for the whole
//! pool, and any intra-chunk helpers a dispatched `run_batch` claims come
//! from the engine's *leftover* budget
//! ([`WorkerReservation::claim_leftover`]) — so service workers plus
//! sweep helpers together never exceed the configured thread count, no
//! matter how the two layers nest. Sweep helpers themselves run on the
//! engine's persistent [`WorkerPool`](sparkxd_snn::WorkerPool), shared
//! with every other fan-out in the process, so a dispatch is a queue push
//! instead of a thread spawn.

use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::router::{RoutePolicy, Router, TierInfo};
use rand::rngs::StdRng;
use sparkxd_circuit::Volt;
use sparkxd_core::TierModel;
use sparkxd_snn::engine::{
    batch_size, intra_choice, sample_rng, worker_count, IntraChoice, WorkerReservation,
};
use sparkxd_snn::BatchState;
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one service instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Worker threads running inference.
    pub workers: usize,
    /// Maximum requests per dispatched chunk (the dynamic batcher's B).
    pub batch: usize,
    /// Longest a request may wait for its chunk to fill before being
    /// dispatched short.
    pub max_wait: Duration,
    /// Admission bound on the total queued (not yet dispatched) requests;
    /// submissions beyond it are rejected.
    pub queue_bound: usize,
    /// Base seed of the per-request spike-train RNG streams.
    pub spike_seed: u64,
    /// Intra-chunk tile-sweep parallelism for dispatched batches. The
    /// default `Auto` sizes itself to the engine budget left over after
    /// the service workers' reservation, so it is always safe; results
    /// are bit-identical under every setting.
    pub intra: IntraChoice,
}

impl ServiceConfig {
    /// Defaults resolved from the engine environment: `SPARKXD_THREADS`
    /// workers (or available parallelism), `SPARKXD_BATCH` chunk size (or
    /// the engine default), the `SPARKXD_INTRA` sweep mode, a 2 ms
    /// batching wait and a 1024-deep queue.
    pub fn from_env() -> Self {
        Self {
            workers: worker_count(usize::MAX),
            batch: batch_size(),
            max_wait: Duration::from_millis(2),
            queue_bound: 1024,
            spike_seed: 0x5E_BF,
            intra: intra_choice(),
        }
    }

    /// Pins the worker count (builder style; floors at 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Pins the chunk size (builder style; floors at 1).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets the batching wait budget (builder style).
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = max_wait;
        self
    }

    /// Sets the admission queue bound (builder style).
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound.max(1);
        self
    }

    /// Sets the spike-RNG base seed (builder style).
    pub fn with_spike_seed(mut self, seed: u64) -> Self {
        self.spike_seed = seed;
        self
    }

    /// Pins the intra-chunk tile-sweep mode (builder style).
    pub fn with_intra(mut self, intra: IntraChoice) -> Self {
        self.intra = intra;
        self
    }
}

/// One inference request. The `id` doubles as the RNG stream index, so it
/// must be unique per logical request for offline/online equivalence.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRequest {
    /// Caller-assigned request id (echoed in the response; selects the
    /// spike RNG stream).
    pub id: u64,
    /// Input image pixels (must match the model's input size).
    pub pixels: Vec<f32>,
    /// How to resolve the accuracy/energy/latency trade for this request.
    pub policy: RoutePolicy,
}

/// One answered request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// The request's id.
    pub id: u64,
    /// Predicted class (None when no labelled neuron spiked).
    pub label: Option<u8>,
    /// Tier index that served the request.
    pub tier: usize,
    /// Supply voltage of that tier.
    pub v_supply: Volt,
    /// This request's share of the chunk's DRAM pass energy (mJ) — the
    /// batching amortisation: B requests split one weight-image pass.
    pub dram_share_mj: f64,
    /// Time spent queued before dispatch (ns).
    pub queue_ns: u64,
    /// Inference time of the chunk the request rode in (ns).
    pub service_ns: u64,
    /// Size of that chunk.
    pub chunk_len: usize,
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control: the queue is at its bound.
    QueueFull {
        /// Requests currently queued.
        depth: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The request's pixel count does not match the model input size.
    InputSizeMismatch {
        /// Pixels provided.
        provided: usize,
        /// Pixels the model expects.
        expected: usize,
    },
    /// The service is shutting down and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull { depth, bound } => {
                write!(f, "queue full: {depth} of {bound} slots occupied")
            }
            SubmitError::InputSizeMismatch { provided, expected } => {
                write!(f, "request has {provided} pixels, model expects {expected}")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A queued, routed, not-yet-dispatched request.
struct Pending {
    id: u64,
    pixels: Vec<f32>,
    enqueued: Instant,
}

/// Queue state behind the service mutex: one FIFO per tier.
struct QueueState {
    per_tier: Vec<VecDeque<Pending>>,
    /// Total queued across tiers (the admission-control quantity).
    depth: usize,
    /// `false` once shutdown began: submissions are refused and workers
    /// drain what is left, dispatching short chunks immediately.
    open: bool,
}

/// Everything workers share.
struct Shared {
    tiers: Vec<TierModel>,
    router: Router,
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signalled on every enqueue and on shutdown.
    work_cv: Condvar,
    metrics: ServiceMetrics,
}

/// The running service: worker threads plus the shared state.
///
/// Responses are delivered on the channel returned by
/// [`SparkXdService::start`], in completion order (match them to requests
/// by `id`). Dropping the service without [`shutdown`](Self::shutdown)
/// still stops and joins the workers.
pub struct SparkXdService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Registers the pool against the engine's global thread budget so
    /// nested engine fan-outs (e.g. a tier rebuild on the side) size
    /// themselves to the leftover cores.
    _reservation: WorkerReservation,
}

impl SparkXdService {
    /// Starts `config.workers` worker threads over `tiers` and returns
    /// the service handle plus the response channel.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty or the tiers disagree on the model
    /// input size.
    pub fn start(
        tiers: Vec<TierModel>,
        config: ServiceConfig,
    ) -> (Self, mpsc::Receiver<ServeResponse>) {
        assert!(!tiers.is_empty(), "service needs at least one tier");
        let n_inputs = tiers[0].params.config().n_inputs;
        assert!(
            tiers.iter().all(|t| t.params.config().n_inputs == n_inputs),
            "every tier must share one input size: submit() validates a \
             request against it once, before routing"
        );
        let config = ServiceConfig {
            workers: config.workers.max(1),
            batch: config.batch.max(1),
            queue_bound: config.queue_bound.max(1),
            ..config
        };
        let router = Router::new(tiers.iter().map(TierInfo::of).collect());
        let n_tiers = tiers.len();
        let shared = Arc::new(Shared {
            router,
            config,
            queue: Mutex::new(QueueState {
                per_tier: (0..n_tiers).map(|_| VecDeque::new()).collect(),
                depth: 0,
                open: true,
            }),
            work_cv: Condvar::new(),
            metrics: ServiceMetrics::new(n_tiers),
            tiers,
        });
        let (tx, rx) = mpsc::channel();
        let reservation = WorkerReservation::for_pool(config.workers);
        let workers = (0..config.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::spawn(move || worker_loop(&shared, &tx))
            })
            .collect();
        // The workers hold the only remaining senders: the channel closes
        // when the pool exits, which is what lets clients iterate the
        // receiver to completion.
        drop(tx);
        (
            Self {
                shared,
                workers,
                _reservation: reservation,
            },
            rx,
        )
    }

    /// Routes and enqueues one request; returns the tier it will run on.
    ///
    /// # Errors
    ///
    /// [`SubmitError::InputSizeMismatch`] for wrong-sized inputs,
    /// [`SubmitError::QueueFull`] when admission control refuses, and
    /// [`SubmitError::ShuttingDown`] after shutdown began. Rejections are
    /// counted in the metrics.
    pub fn submit(&self, request: ServeRequest) -> Result<usize, SubmitError> {
        let expected = self.shared.tiers[0].params.config().n_inputs;
        if request.pixels.len() != expected {
            return Err(SubmitError::InputSizeMismatch {
                provided: request.pixels.len(),
                expected,
            });
        }
        let tier = self.shared.router.route(request.policy);
        {
            let mut queue = self.shared.queue.lock().expect("service queue lock");
            if !queue.open {
                return Err(SubmitError::ShuttingDown);
            }
            if queue.depth >= self.shared.config.queue_bound {
                let depth = queue.depth;
                drop(queue);
                self.shared.metrics.record_rejection();
                return Err(SubmitError::QueueFull {
                    depth,
                    bound: self.shared.config.queue_bound,
                });
            }
            queue.per_tier[tier].push_back(Pending {
                id: request.id,
                pixels: request.pixels,
                enqueued: Instant::now(),
            });
            queue.depth += 1;
        }
        self.shared.work_cv.notify_one();
        Ok(tier)
    }

    /// The routing table in use (tier tags without the model weights).
    pub fn tier_infos(&self) -> &[TierInfo] {
        self.shared.router.tiers()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Requests currently queued (not yet dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("service queue lock").depth
    }

    /// Stops accepting work, drains every queued request, joins the
    /// workers and returns the final metrics. Already-queued requests are
    /// still answered (in short chunks where needed).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            handle.join().expect("service worker panicked");
        }
        self.shared.metrics.snapshot()
    }

    fn begin_shutdown(&self) {
        self.shared.queue.lock().expect("service queue lock").open = false;
        self.shared.work_cv.notify_all();
    }
}

impl Drop for SparkXdService {
    fn drop(&mut self) {
        // `shutdown` drains `workers`, making this a no-op; a plain drop
        // still stops the pool instead of leaking threads.
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Picks the tier to dispatch: any tier with a full chunk, or — once its
/// head has aged past `max_wait` or the service is draining — a partial
/// one. Among eligible tiers the longest-waiting head wins, which keeps
/// the batcher fair across tiers under load.
fn pick_tier(queue: &QueueState, config: &ServiceConfig, now: Instant) -> Option<usize> {
    let mut best: Option<(Instant, usize)> = None;
    for (tier, pending) in queue.per_tier.iter().enumerate() {
        let Some(head) = pending.front() else {
            continue;
        };
        let ready = pending.len() >= config.batch
            || !queue.open
            || now.duration_since(head.enqueued) >= config.max_wait;
        if ready && best.is_none_or(|(oldest, _)| head.enqueued < oldest) {
            best = Some((head.enqueued, tier));
        }
    }
    best.map(|(_, tier)| tier)
}

/// Time until the earliest queued head exceeds its batching wait — how
/// long a worker may sleep without missing a `max_wait` deadline. `None`
/// with empty queues.
fn next_deadline(queue: &QueueState, config: &ServiceConfig, now: Instant) -> Option<Duration> {
    queue
        .per_tier
        .iter()
        .filter_map(|pending| pending.front())
        .map(|head| {
            (head.enqueued + config.max_wait)
                .checked_duration_since(now)
                .unwrap_or(Duration::ZERO)
        })
        .min()
}

fn worker_loop(shared: &Shared, tx: &mpsc::Sender<ServeResponse>) {
    let config = &shared.config;
    // One scratch per tier, lazily allocated: a worker that never serves a
    // tier never pays for its `[B × n_neurons]` slabs.
    let mut states: Vec<Option<BatchState>> = shared.tiers.iter().map(|_| None).collect();
    let mut chunk: Vec<Pending> = Vec::with_capacity(config.batch);
    loop {
        let tier_idx = {
            let mut queue = shared.queue.lock().expect("service queue lock");
            loop {
                let now = Instant::now();
                if let Some(tier) = pick_tier(&queue, config, now) {
                    let pending = &mut queue.per_tier[tier];
                    let take = pending.len().min(config.batch);
                    chunk.clear();
                    chunk.extend(pending.drain(..take));
                    queue.depth -= take;
                    break tier;
                }
                if !queue.open && queue.depth == 0 {
                    return;
                }
                // Sleep until the earliest max-wait deadline (or
                // indefinitely when idle — every enqueue signals).
                let wait = next_deadline(&queue, config, now);
                queue = match wait {
                    Some(wait) => {
                        shared
                            .work_cv
                            .wait_timeout(queue, wait.max(Duration::from_micros(50)))
                            .expect("service queue lock")
                            .0
                    }
                    None => shared.work_cv.wait(queue).expect("service queue lock"),
                };
            }
        };
        serve_chunk(shared, tx, tier_idx, &chunk, &mut states[tier_idx]);
        // A drained queue may unblock a sibling's full-batch condition or
        // the shutdown exit check.
        shared.work_cv.notify_all();
    }
}

/// Runs one dispatched chunk through the tier's batched path and emits
/// responses + metrics.
fn serve_chunk(
    shared: &Shared,
    tx: &mpsc::Sender<ServeResponse>,
    tier_idx: usize,
    chunk: &[Pending],
    state: &mut Option<BatchState>,
) {
    let tier = &shared.tiers[tier_idx];
    let state = state.get_or_insert_with(|| {
        BatchState::for_params(&tier.params, shared.config.batch).with_intra(shared.config.intra)
    });
    let started = Instant::now();
    let pixels: Vec<&[f32]> = chunk.iter().map(|p| p.pixels.as_slice()).collect();
    let mut rngs: Vec<StdRng> = chunk
        .iter()
        .map(|p| sample_rng(shared.config.spike_seed, p.id))
        .collect();
    let counts = tier
        .params
        .run_batch(state, &pixels, &mut rngs)
        .expect("input sizes validated at submit");
    let service_ns = started.elapsed().as_nanos() as u64;
    let done = Instant::now();
    let share_mj = tier.dram_pass_mj / chunk.len() as f64;
    let latencies: Vec<u64> = chunk
        .iter()
        .map(|p| done.duration_since(p.enqueued).as_nanos() as u64)
        .collect();
    shared
        .metrics
        .record_chunk(tier_idx, chunk.len(), tier.dram_pass_mj, &latencies);
    for (pending, sample_counts) in chunk.iter().zip(counts) {
        let response = ServeResponse {
            id: pending.id,
            label: tier.labeler.predict(&sample_counts),
            tier: tier_idx,
            v_supply: tier.v_supply,
            dram_share_mj: share_mj,
            queue_ns: started.duration_since(pending.enqueued).as_nanos() as u64,
            service_ns,
            chunk_len: chunk.len(),
        };
        // A dropped receiver only means nobody is listening; serving (and
        // metrics) continue.
        let _ = tx.send(response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkxd_core::pipeline::MappingSummary;
    use sparkxd_snn::{NetworkParams, NeuronLabeler, SnnConfig};

    /// A hand-built tier: untrained 10-neuron params with a fixed
    /// labelling and synthetic energy tags — no training, so unit tests
    /// stay fast. Neuron j votes class j.
    fn synthetic_tier(v: f64, accuracy: f64, pass_mj: f64) -> TierModel {
        let params = NetworkParams::new(
            SnnConfig::for_neurons(10)
                .with_timesteps(5)
                .with_weight_seed(v.to_bits()),
        );
        TierModel {
            v_supply: Volt(v),
            precision: sparkxd_snn::WeightPrecision::Fp32,
            operating_ber: 1e-6,
            params,
            labeler: NeuronLabeler::from_assignments((0..10).map(|j| Some(j as u8)).collect()),
            accuracy_estimate: accuracy,
            dram_pass_mj: pass_mj,
            dram_pass_ns: 1_000.0 * v,
            mapping: MappingSummary {
                policy: "sparkxd",
                columns: 1,
                subarrays_used: 1,
                safe_fraction: 1.0,
                word_bits: 32,
            },
        }
    }

    fn three_tiers() -> Vec<TierModel> {
        vec![
            synthetic_tier(1.025, 0.70, 1.0),
            synthetic_tier(1.1, 0.80, 1.4),
            synthetic_tier(1.175, 0.85, 1.9),
        ]
    }

    fn request(id: u64, policy: RoutePolicy) -> ServeRequest {
        ServeRequest {
            id,
            pixels: vec![0.5; sparkxd_data::IMAGE_PIXELS],
            policy,
        }
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig::from_env()
            .with_workers(2)
            .with_batch(4)
            .with_max_wait(Duration::from_millis(1))
            .with_queue_bound(64)
    }

    #[test]
    fn serves_a_burst_and_reports_metrics() {
        let (service, rx) = SparkXdService::start(three_tiers(), quick_config());
        for i in 0..12 {
            service
                .submit(request(i, RoutePolicy::AccuracyFloor(0.75)))
                .expect("queue has room");
        }
        let snapshot = service.shutdown();
        let responses: Vec<ServeResponse> = rx.iter().collect();
        assert_eq!(responses.len(), 12);
        assert_eq!(snapshot.completed, 12);
        assert_eq!(snapshot.rejected, 0);
        // AccuracyFloor(0.75): cheapest sufficient tier is index 1.
        assert!(responses.iter().all(|r| r.tier == 1));
        assert_eq!(snapshot.per_tier[1].hits, 12);
        assert!(snapshot.per_tier[1].batches >= 3, "B=4 over 12 requests");
        assert!(snapshot.total_energy_mj() >= 1.4 * 3.0 - 1e-9);
        assert!(responses.iter().all(|r| r.v_supply == Volt(1.1)));
    }

    #[test]
    fn input_size_mismatch_is_rejected_up_front() {
        let (service, _rx) = SparkXdService::start(three_tiers(), quick_config());
        let bad = ServeRequest {
            id: 0,
            pixels: vec![0.0; 3],
            policy: RoutePolicy::AccuracyFloor(0.0),
        };
        assert_eq!(
            service.submit(bad),
            Err(SubmitError::InputSizeMismatch {
                provided: 3,
                expected: sparkxd_data::IMAGE_PIXELS,
            })
        );
    }

    #[test]
    fn admission_control_rejects_beyond_the_bound() {
        // One slow-to-start worker and a tiny bound: overflow must be
        // refused, not queued without limit.
        let config = ServiceConfig::from_env()
            .with_workers(1)
            .with_batch(1)
            .with_max_wait(Duration::from_secs(5))
            .with_queue_bound(2);
        let (service, rx) = SparkXdService::start(three_tiers(), config);
        let mut accepted = 0;
        let mut rejected = 0;
        for i in 0..40 {
            match service.submit(request(i, RoutePolicy::EnergyBudget(0.1))) {
                Ok(_) => accepted += 1,
                Err(SubmitError::QueueFull { bound, .. }) => {
                    assert_eq!(bound, 2);
                    rejected += 1;
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
        assert!(rejected > 0, "bound of 2 must refuse part of a 40-burst");
        let snapshot = service.shutdown();
        assert_eq!(snapshot.rejected, rejected);
        assert_eq!(snapshot.completed, accepted);
        assert_eq!(rx.iter().count() as u64, accepted);
    }

    #[test]
    fn shutdown_drains_queued_requests_and_refuses_new_ones() {
        let config = quick_config()
            .with_workers(1)
            .with_max_wait(Duration::from_secs(5));
        let (service, rx) = SparkXdService::start(three_tiers(), config);
        for i in 0..7 {
            service
                .submit(request(i, RoutePolicy::DeadlineSlack(f64::MAX)))
                .expect("room");
        }
        // max_wait is 5 s, yet shutdown must flush everything now.
        let snapshot = service.shutdown();
        assert_eq!(snapshot.completed, 7);
        assert_eq!(rx.iter().count(), 7);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (service, _rx) = SparkXdService::start(three_tiers(), quick_config());
        service.begin_shutdown();
        assert_eq!(
            service.submit(request(0, RoutePolicy::AccuracyFloor(0.0))),
            Err(SubmitError::ShuttingDown)
        );
    }

    #[test]
    fn responses_match_offline_run_batch() {
        // The serving answer for (seed, id) must be exactly the offline
        // engine's answer: the same RNG stream through the same
        // simulation core, presented here one request at a time.
        let tiers = three_tiers();
        let tier0 = tiers[0].clone();
        let seed = 0xF00D;
        let (service, rx) =
            SparkXdService::start(tiers, quick_config().with_spike_seed(seed).with_batch(3));
        let pixels = vec![0.5; sparkxd_data::IMAGE_PIXELS];
        for id in 0..6 {
            service
                .submit(ServeRequest {
                    id,
                    pixels: pixels.clone(),
                    policy: RoutePolicy::AccuracyFloor(0.0),
                })
                .expect("room");
        }
        service.shutdown();
        let mut offline_state = BatchState::for_params(&tier0.params, 1);
        for response in rx.iter() {
            let counts = tier0
                .params
                .run_batch(
                    &mut offline_state,
                    &[pixels.as_slice()],
                    &mut [sample_rng(seed, response.id)],
                )
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(
                response.label,
                tier0.labeler.predict(&counts),
                "id {}",
                response.id
            );
        }
    }
}
