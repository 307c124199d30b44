//! Parallel batch-execution engine.
//!
//! Every sample presentation at inference is independent: the thresholds
//! are frozen and membrane state is reset per sample (see
//! [`NetworkParams::run_batch`]). The engine exploits that three times
//! over:
//!
//! * a dataset is sharded across workers of the persistent
//!   [`WorkerPool`] (long-lived, condvar-parked threads — no per-call
//!   spawn tax), each shard owning one reusable scratch,
//! * within a worker, samples are presented in chunks of B through
//!   [`NetworkParams::run_batch`], which streams each effective-weight row
//!   once per chunk instead of once per sample, and
//! * within a chunk, the per-timestep tile sweep is split into range-jobs
//!   that can fan out across the pool ([`ExecConfig::intra`] /
//!   [`BatchEvaluator::with_intra`]): each job owns a disjoint
//!   neuron-lane range of the `[B × n]` membrane slabs and one contiguous
//!   region of the tile-major drive scratch, with a barrier before the
//!   global-per-sample firing/inhibition pass. The serial sweep is the
//!   one-job case, run inline; every split is bit-identical to it by
//!   construction.
//!
//! The spike-train RNG for sample `i` is derived from `(seed, i)`, so the
//! result is bit-identical for **any** worker count *and any batch size*,
//! including fully serial execution one sample at a time.
//!
//! Every knob lives in one explicit [`ExecConfig`]: the worker budget
//! (`threads`, default `available_parallelism`; `1` is fully serial),
//! the batch size (default [`DEFAULT_BATCH`]; `1` presents one sample per
//! `run_batch` call), the neuron-tile width of the batched drive matrix
//! (default [`DEFAULT_TILE`]; any value ≥ `n_neurons` disables tiling),
//! the kernel and the intra-chunk sweep mode (default
//! [`IntraChoice::Auto`]; `Off` runs one range-job, `Workers(k)` pins
//! `k` sweep workers). Library code never reads the environment:
//! binaries and examples resolve `SPARKXD_*` once through
//! [`ExecConfig::from_env`] and pass the result down. Every level draws
//! from one global thread budget (see [`WorkerReservation`]), so nesting
//! never oversubscribes the machine to workers².
//!
//! # Kernel dispatch
//!
//! The hot inner loops (drive accumulation, LIF lane integration, the
//! inhibition sweep) run through the runtime-dispatched kernels of
//! [`crate::kernels`]:
//!
//! | [`KernelChoice`] | meaning                                            |
//! |------------------|----------------------------------------------------|
//! | `Auto` (default) | widest kernel the host supports (AVX2 if detected) |
//! | `Scalar`         | portable unrolled-scalar kernel                    |
//! | `Avx2`           | x86_64 AVX2 kernel; falls back to scalar off-AVX2  |
//!
//! [`ExecConfig::kernel`] (or [`BatchEvaluator::with_kernel`]) picks it.
//! The kernel never changes results, only wall time: the AVX2 lanes
//! compute the exact scalar IEEE operation sequence (lanewise ops in
//! unchanged per-element order, no FMA, no reassociated reductions), so
//! every `{kernel × batch × thread × tile}` combination is bit-identical
//! — see the [`crate::kernels`] module docs for the full argument and
//! `tests/kernel_invariance.rs` for the proof battery.

use crate::eval::NeuronLabeler;
use crate::kernels::{Kernel, KernelChoice};
use crate::network::{BatchState, NetworkParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkxd_data::Dataset;
use sparkxd_telemetry::Mode;
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Samples presented together per [`NetworkParams::run_batch`] call by
/// the default [`ExecConfig`]. Large enough to amortise weight-row
/// streaming and the per-presentation spike-plan build — measured
/// fastest in the 2–8 band at N400, degrading beyond it.
///
/// The batch size no longer has to keep the whole `[B × n_neurons]`
/// drive slab cache-resident: beyond ~N1600 that slab outgrows L1 at any
/// useful B, so [`NetworkParams::run_batch`] sweeps it in neuron tiles of
/// [`DEFAULT_TILE`] lanes ([`ExecConfig::tile`]) and only the
/// `[B × tile]` working set must stay hot.
pub const DEFAULT_BATCH: usize = 4;

/// Neuron-tile width of the batched drive matrix in the default
/// [`ExecConfig`].
///
/// Drive accumulation touches the `[B × tile]` drive tile once per
/// distinct active row, so the tile — not the full `[B × n_neurons]`
/// slab — is the read path's resident working set. At the default
/// `B = 4`, a 512-lane tile is 8 KiB of drive plus a 2 KiB row slice:
/// comfortably L1 even with the membrane slabs of the lane being
/// integrated. Networks with `n_neurons ≤ tile` (the paper's N400 at
/// this default) run as a single tile, which is exactly the untiled
/// path; the tile width never changes results, only wall time.
pub const DEFAULT_TILE: usize = 512;

/// Workers the engine currently has busy on *outer* parallel levels, so a
/// nested fan-out (a device sweep whose pipelines evaluate in parallel, a
/// report section training networks) sizes itself to the leftover budget
/// instead of oversubscribing the machine by workers².
static BUSY_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// High-water mark of [`BUSY_WORKERS`] — a diagnostic for the
/// budget-accounting tests (a serve pool plus nested intra-parallel
/// sweeps must never oversubscribe to workers²; see
/// `crates/serve/tests/worker_budget.rs`).
static BUSY_PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_busy_peak() {
    let busy = BUSY_WORKERS.load(Ordering::Relaxed);
    BUSY_PEAK.fetch_max(busy, Ordering::Relaxed);
    // Mirror the high-water mark into a telemetry gauge so pool
    // occupancy is visible outside the process (snapshot JSON, job
    // summaries), not only through `busy_peak()`.
    sparkxd_telemetry::gauge_max!("pool.busy_peak", busy);
}

/// High-water mark of the extra workers registered busy across every
/// level (serve pools, `parallel_map` calls, intra-parallel sweeps) since process start (or the last
/// [`reset_busy_peak`]). Diagnostic for worker-budget accounting tests.
pub fn busy_peak() -> usize {
    BUSY_PEAK.load(Ordering::Relaxed)
}

/// Resets the [`busy_peak`] high-water mark (test diagnostic; racy
/// against concurrent reservations, so use from a quiesced process).
pub fn reset_busy_peak() {
    BUSY_PEAK.store(BUSY_WORKERS.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// RAII registration of `extra` busy workers against the engine's global
/// thread budget; released on drop. [`parallel_map`] takes one per call —
/// reach for it directly only when hand-rolling a worker pool (see
/// `sparkxd-bench`'s streaming report runner).
#[derive(Debug)]
pub struct WorkerReservation {
    extra: usize,
}

impl WorkerReservation {
    /// Registers `threads - 1` busy workers (the calling thread is not
    /// *extra* — it was already accounted for by any outer level).
    pub fn for_pool(threads: usize) -> Self {
        let extra = threads.saturating_sub(1);
        BUSY_WORKERS.fetch_add(extra, Ordering::Relaxed);
        note_busy_peak();
        Self { extra }
    }

    /// Atomically claims up to `max_extra` additional workers from the
    /// *leftover* budget of `configured` total workers, returning how many
    /// were granted alongside the reservation (0 when the budget is
    /// exhausted — the caller then runs serial).
    ///
    /// Unlike [`for_pool`](Self::for_pool) (an unconditional pin), the
    /// claim is bounded by what is actually free: the compare-exchange
    /// loop guarantees the *sum* of concurrent claims never pushes the
    /// registered extras past `configured - 1`, so a serve pool whose
    /// workers all start intra-parallel sweeps at once cannot
    /// oversubscribe the machine to workers².
    pub fn claim_leftover(configured: usize, max_extra: usize) -> (usize, Self) {
        let cap = configured.saturating_sub(1);
        loop {
            let busy = BUSY_WORKERS.load(Ordering::Relaxed);
            let granted = cap.saturating_sub(busy).min(max_extra);
            if granted == 0 {
                return (0, Self { extra: 0 });
            }
            if BUSY_WORKERS
                .compare_exchange(busy, busy + granted, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                note_busy_peak();
                return (granted, Self { extra: granted });
            }
        }
    }
}

impl Drop for WorkerReservation {
    fn drop(&mut self) {
        BUSY_WORKERS.fetch_sub(self.extra, Ordering::Relaxed);
    }
}

/// The engine's whole execution configuration. Library code takes one
/// explicitly and never reads the environment, so a run is reproducible
/// from what its caller passes in; [`Default`] is the machine default,
/// and binaries call [`ExecConfig::from_env`] once. None of the five
/// knobs changes results, only wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Total worker budget every fan-out level measures against
    /// (`SPARKXD_THREADS`; default: available parallelism).
    pub threads: usize,
    /// Samples per [`NetworkParams::run_batch`] call (`SPARKXD_BATCH`).
    pub batch: usize,
    /// Neuron-tile width of the drive sweep (`SPARKXD_TILE`); clamped
    /// into `[1, n_neurons]`, so `usize::MAX` is the untiled path.
    pub tile: usize,
    /// Hot-loop kernel request (`SPARKXD_KERNEL`).
    pub kernel: KernelChoice,
    /// Intra-chunk tile-sweep mode (`SPARKXD_INTRA`).
    pub intra: IntraChoice,
}

impl Default for ExecConfig {
    fn default() -> Self {
        Self::with_budget(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

/// A `SPARKXD_*` variable holding a value its knob does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfigError {
    /// The offending variable.
    pub var: &'static str,
    /// Its value, verbatim.
    pub value: String,
    /// The spellings the variable accepts.
    pub expected: &'static str,
}

impl std::fmt::Display for ExecConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self {
            var,
            value,
            expected,
        } = self;
        write!(f, "invalid {var}={value:?} (expected {expected})")
    }
}

impl std::error::Error for ExecConfigError {}

impl ExecConfig {
    /// The defaults with a `threads` worker budget (floored at 1).
    fn with_budget(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            batch: DEFAULT_BATCH,
            tile: DEFAULT_TILE,
            kernel: KernelChoice::Auto,
            intra: IntraChoice::Auto,
        }
    }

    /// Resolves the five `SPARKXD_*` engine variables and
    /// `SPARKXD_TELEMETRY` — the library's one environment read. Returns
    /// the config plus the telemetry mode for the caller to install with
    /// `sparkxd_telemetry::set_mode`.
    ///
    /// # Errors
    ///
    /// [`ExecConfigError`] for the first unparsable variable.
    pub fn from_env() -> Result<(Self, Mode), ExecConfigError> {
        Self::from_lookup(|var| std::env::var(var).ok())
    }

    /// [`from_env`](Self::from_env) over an arbitrary variable lookup:
    /// unset variables keep their default, counts clamp `0` to `1` (all
    /// numeric knobs mean "serial", never "off"), and spellings are
    /// case-insensitive with surrounding whitespace ignored.
    ///
    /// # Errors
    ///
    /// [`ExecConfigError`] for the first unparsable value.
    pub(crate) fn from_lookup(
        lookup: impl Fn(&str) -> Option<String>,
    ) -> Result<(Self, Mode), ExecConfigError> {
        fn knob<T>(
            lookup: &impl Fn(&str) -> Option<String>,
            (var, expected): (&'static str, &'static str),
            default: T,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<T, ExecConfigError> {
            let Some(value) = lookup(var) else {
                return Ok(default);
            };
            parse(&value).ok_or(ExecConfigError {
                var,
                value,
                expected,
            })
        }
        const COUNT: &str = "a non-negative integer";
        const THREADS: (&str, &str) = ("SPARKXD_THREADS", COUNT);
        const BATCH: (&str, &str) = ("SPARKXD_BATCH", COUNT);
        const TILE: (&str, &str) = ("SPARKXD_TILE", COUNT);
        const KERNEL: (&str, &str) = ("SPARKXD_KERNEL", "auto|scalar|avx2");
        const INTRA: (&str, &str) = ("SPARKXD_INTRA", "auto|off|<worker count>");
        const TELEMETRY: (&str, &str) = ("SPARKXD_TELEMETRY", "off|counters|spans");
        let count = |raw: &str| raw.trim().parse::<usize>().ok().map(|n| n.max(1));
        let d = Self::default();
        let config = Self {
            threads: knob(&lookup, THREADS, d.threads, count)?,
            batch: knob(&lookup, BATCH, d.batch, count)?,
            tile: knob(&lookup, TILE, d.tile, count)?,
            kernel: knob(&lookup, KERNEL, d.kernel, KernelChoice::parse)?,
            intra: knob(&lookup, INTRA, d.intra, IntraChoice::parse)?,
        };
        let telemetry = knob(&lookup, TELEMETRY, Mode::Off, Mode::parse)?;
        Ok((config, telemetry))
    }

    /// Workers to use for `jobs` independent work items: the budget minus
    /// the workers outer parallel levels already keep busy, never below 1
    /// and never more than `jobs`.
    pub fn worker_count(&self, jobs: usize) -> usize {
        self.threads
            .saturating_sub(BUSY_WORKERS.load(Ordering::Relaxed))
            .max(1)
            .min(jobs.max(1))
    }
}

/// One line naming every resolved knob, e.g.
/// `threads=2 batch=4 tile=512 kernel=auto(avx2) intra=auto` — the
/// kernel shows the request and, in parentheses, what this host runs.
impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads={} batch={} tile={} kernel={}({}) intra=",
            self.threads,
            self.batch,
            self.tile,
            self.kernel.name(),
            self.kernel.resolve().name()
        )?;
        match self.intra {
            IntraChoice::Auto => f.write_str("auto"),
            IntraChoice::Off => f.write_str("off"),
            IntraChoice::Workers(k) => write!(f, "{k}"),
        }
    }
}

/// The intra-chunk tile-parallel mode of
/// [`NetworkParams::run_batch`]'s drive sweep.
///
/// Like every other engine knob, the mode only ever changes wall time,
/// never results: range-jobs write disjoint neuron lanes of the
/// `[B × n]` slabs on identical tile boundaries and the per-sample
/// firing/inhibition pass runs after a barrier, so any split is
/// bit-identical to the one-job sweep by construction (see
/// `tests/intra_invariance.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntraChoice {
    /// Size the sweep to the leftover global thread budget via
    /// [`WorkerReservation::claim_leftover`] — serial when outer levels
    /// (a `parallel_map` shard, a serve pool) already keep the machine
    /// busy. The default.
    #[default]
    Auto,
    /// Always one range-job over every tile, run inline on the calling
    /// thread: the serial sweep.
    Off,
    /// Pin exactly `k` sweep workers, ignoring the leftover budget (an
    /// explicit oversubscription request, like a `threads` budget above
    /// the core count). Still clamped to the tile count and still
    /// registered against the global budget.
    Workers(usize),
}

impl IntraChoice {
    /// Parses a `SPARKXD_INTRA` value: `auto`, `off` (both
    /// case-insensitive) or a positive worker count (`0` clamps to 1,
    /// i.e. the serial sweep).
    pub fn parse(raw: &str) -> Option<IntraChoice> {
        let trimmed = raw.trim();
        if trimmed.eq_ignore_ascii_case("auto") {
            return Some(IntraChoice::Auto);
        }
        if trimmed.eq_ignore_ascii_case("off") {
            return Some(IntraChoice::Off);
        }
        trimmed
            .parse::<usize>()
            .ok()
            .map(|k| IntraChoice::Workers(k.max(1)))
    }
}

/// Resolves an [`IntraChoice`] for a sweep of `n_tiles` tiles under a
/// `threads` worker budget into the worker count to use, together with
/// the budget reservation those workers hold for the duration of the
/// sweep.
///
/// Fewer than two tiles, [`IntraChoice::Off`], or an exhausted budget
/// under [`IntraChoice::Auto`] all fall back to `(1, None)` — the serial
/// sweep. The count is always clamped to `n_tiles` (contiguous tile
/// ranges per worker; an idle worker would be pure dispatch overhead).
pub fn intra_workers_for(
    choice: IntraChoice,
    threads: usize,
    n_tiles: usize,
) -> (usize, Option<WorkerReservation>) {
    if n_tiles < 2 {
        return (1, None);
    }
    match choice {
        IntraChoice::Off => (1, None),
        IntraChoice::Workers(k) => {
            let workers = k.max(1).min(n_tiles);
            if workers <= 1 {
                (1, None)
            } else {
                (workers, Some(WorkerReservation::for_pool(workers)))
            }
        }
        IntraChoice::Auto => {
            let (extra, reservation) = WorkerReservation::claim_leftover(threads, n_tiles - 1);
            if extra == 0 {
                (1, None)
            } else {
                (extra + 1, Some(reservation))
            }
        }
    }
}

/// The default worker budget ([`ExecConfig::default`]'s `threads`).
pub fn configured_threads() -> usize {
    ExecConfig::default().threads
}

/// The default batch size ([`DEFAULT_BATCH`]).
pub fn batch_size() -> usize {
    ExecConfig::default().batch
}

/// The default neuron-tile width ([`DEFAULT_TILE`]).
pub fn tile_width() -> usize {
    ExecConfig::default().tile
}

/// The kernel the default config runs on this host (runtime feature
/// detection of [`KernelChoice::Auto`]).
pub fn kernel() -> Kernel {
    ExecConfig::default().kernel.resolve()
}

/// The default intra-chunk sweep mode ([`IntraChoice::Auto`]).
pub fn intra_choice() -> IntraChoice {
    ExecConfig::default().intra
}

/// The spike-train RNG of logical sample `sample_index` under `seed`.
///
/// Deriving per-sample streams (instead of threading one RNG through the
/// dataset) is what makes batch results independent of evaluation order,
/// batch size and worker count.
pub fn sample_rng(seed: u64, sample_index: u64) -> StdRng {
    StdRng::seed_from_u64_stream(seed, sample_index)
}

/// Backstop on threads a [`WorkerPool`] will ever spawn — far above any
/// sane thread budget; explicit oversubscription requests beyond
/// it degrade gracefully (the caller still completes every job itself).
const MAX_POOL_THREADS: usize = 256;

/// A lifetime-erased pointer to one dispatch's job closure. The erasure
/// is what lets long-lived pool threads run closures that borrow the
/// caller's stack: [`WorkerPool::run`] guarantees (via the helper latch)
/// that no helper touches the pointer after `run` returns.
struct ErasedJob(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-callable from any thread) and
// `WorkerPool::run` bounds its lifetime around every helper's access.
unsafe impl Send for ErasedJob {}
unsafe impl Sync for ErasedJob {}

/// One in-flight pool dispatch: the erased job, an atomic cursor handing
/// out job indices, a helper latch (how many pool threads are inside the
/// task) and a slot for the first captured panic.
struct TaskCore {
    job: ErasedJob,
    jobs: usize,
    cursor: AtomicUsize,
    /// Helpers currently inside the task. Incremented under the pool's
    /// state lock (so retiring the task cannot miss a joiner) and
    /// decremented when a helper leaves; `run` waits for 0.
    helpers: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl TaskCore {
    /// Drains the cursor, running jobs until none remain; returns the
    /// payload if the closure panicked (the remaining jobs of a panicked
    /// participant are left unrun — the caller unwinds anyway).
    fn run_jobs(&self) -> Option<Box<dyn Any + Send>> {
        // SAFETY: `WorkerPool::run` keeps the closure alive until every
        // participant has left the task (helpers join under the pool
        // state lock; `run` retires the task under that same lock and
        // then waits the latch down to zero before returning).
        let job = unsafe { &*self.job.0 };
        catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                break;
            }
            job(i);
        }))
        .err()
    }

    /// Records the first panic payload (later ones are dropped — one
    /// resume is all the caller can do).
    fn store_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().expect("pool panic slot");
        slot.get_or_insert(payload);
    }
}

/// A queued dispatch with `slots` helper seats still unclaimed.
struct PendingTask {
    task: Arc<TaskCore>,
    slots: usize,
}

/// Pool state behind the mutex: the dispatch queue, parked/spawned
/// counters and the join handles for shutdown.
struct PoolState {
    tasks: VecDeque<PendingTask>,
    /// Threads parked on `work_cv` right now.
    idle: usize,
    /// Threads ever spawned (== `handles.len()` while running).
    spawned: usize,
    shutdown: bool,
    handles: Vec<JoinHandle<()>>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Parked helpers wait here; signalled on every enqueue and on
    /// shutdown.
    work_cv: Condvar,
}

/// A persistent worker pool: long-lived helper threads, condvar-parked
/// between dispatches, shared by every engine fan-out level.
///
/// ## Why a pool
///
/// [`parallel_map`] used to spawn scoped threads per call — a tax the
/// serve layer paid once per dispatched batch, and one the intra-chunk
/// tile sweep (dispatching once per *timestep*) could never afford.
/// Helpers here are spawned once, lazily, and parked on a condvar when
/// idle, so a dispatch is a queue push + wakeup instead of `clone(2)`.
///
/// ## Parking and dispatch
///
/// [`run`](Self::run) enqueues a task with `extra` helper seats and wakes
/// the pool; parked helpers claim seats (at most `extra` of them join)
/// and pull job indices from the task's shared atomic cursor. **The
/// caller always participates**: it drains the same cursor, so a dispatch
/// with no free helper still completes — and `extra == 0` or a single
/// job short-circuits to a plain inline loop with zero pool hops.
///
/// ## Budget
///
/// The pool itself does **no** budget accounting — that stays with the
/// callers ([`parallel_map`] reserves via [`WorkerReservation::for_pool`],
/// the intra-chunk sweep claims leftover budget via
/// [`WorkerReservation::claim_leftover`]), so one global invariant holds
/// at every nesting level and helpers are never double-counted.
///
/// ## Shutdown ordering
///
/// Dropping a pool flags `shutdown` under the state lock, wakes every
/// parked helper and joins all handles. Helpers re-check the flag only
/// when the queue is empty, so queued seats are consumed first; `run`
/// borrows `&self`, so no dispatch can be in flight while `drop` runs.
/// The [`global`](Self::global) pool lives for the process and is never
/// dropped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Dispatches that actually went through the queue (inline fast-path
    /// calls do not count) — the regression hook for the zero-pool-hop
    /// guarantees.
    dispatches: AtomicU64,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; helper threads are spawned lazily on demand.
    pub fn new() -> Self {
        Self {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    tasks: VecDeque::new(),
                    idle: 0,
                    spawned: 0,
                    shutdown: false,
                    handles: Vec::new(),
                }),
                work_cv: Condvar::new(),
            }),
            dispatches: AtomicU64::new(0),
        }
    }

    /// The process-wide pool every engine fan-out shares.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(WorkerPool::new)
    }

    /// Dispatches that actually enqueued onto the pool (the inline fast
    /// path — one job, or no helper seats — never counts).
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `job(0..jobs)` with up to `extra` pool helpers assisting the
    /// calling thread; returns when every job has finished. Panics in
    /// `job` propagate to the caller (first payload wins).
    ///
    /// Job indices are handed out through one shared cursor, so the
    /// assignment of jobs to threads is dynamic — callers needing a
    /// deterministic *reduction* must give each job its own output slot
    /// (as [`parallel_map`] and the intra-chunk sweep both do), never
    /// reduce per-thread.
    pub fn run(&self, jobs: usize, extra: usize, job: &(dyn Fn(usize) + Sync)) {
        if jobs == 0 {
            return;
        }
        let extra = extra.min(jobs - 1);
        if extra == 0 {
            // Inline fast path: single job or no helper seats — zero
            // pool hops, no queue, no wakeups.
            for i in 0..jobs {
                job(i);
            }
            return;
        }
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        // Observation only: the span times the whole pooled dispatch
        // (queue push through last-helper exit); the counter mirrors the
        // in-process `dispatches` total so snapshots can see it.
        sparkxd_telemetry::counter_add!("pool.dispatches", 1);
        let _span = sparkxd_telemetry::span!("pool.run");
        // SAFETY: pure lifetime erasure — the latch protocol below keeps
        // the closure alive until every helper has left the task.
        let erased = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(job)
        };
        let task = Arc::new(TaskCore {
            job: ErasedJob(erased),
            jobs,
            cursor: AtomicUsize::new(0),
            helpers: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        });
        self.enqueue(Arc::clone(&task), extra);
        let caller_panic = task.run_jobs();
        // Retire the task (no further helper can join), then wait for
        // the ones that did to leave — only then may the job closure and
        // anything it borrows go out of scope.
        self.retire(&task);
        let mut helpers = task.helpers.lock().expect("pool task latch");
        while *helpers > 0 {
            helpers = task.done_cv.wait(helpers).expect("pool task latch");
        }
        drop(helpers);
        if let Some(payload) =
            caller_panic.or_else(|| task.panic.lock().expect("pool panic slot").take())
        {
            resume_unwind(payload);
        }
    }

    /// Queues the task with `extra` helper seats, topping up the thread
    /// supply first (parked helpers are reused; the deficit is spawned,
    /// up to [`MAX_POOL_THREADS`]). Spawn failure is benign: the caller
    /// completes every job itself.
    fn enqueue(&self, task: Arc<TaskCore>, extra: usize) {
        let mut state = self.shared.state.lock().expect("pool state lock");
        let deficit = extra.saturating_sub(state.idle);
        for _ in 0..deficit {
            if state.spawned >= MAX_POOL_THREADS {
                break;
            }
            let shared = Arc::clone(&self.shared);
            let name = format!("sparkxd-pool-{}", state.spawned);
            let Ok(handle) = std::thread::Builder::new()
                .name(name)
                .spawn(move || helper_loop(&shared))
            else {
                break;
            };
            state.spawned += 1;
            state.handles.push(handle);
        }
        state.tasks.push_back(PendingTask { task, slots: extra });
        drop(state);
        self.shared.work_cv.notify_all();
    }

    /// Removes the task's remaining helper seats from the queue, so no
    /// new helper can join after the caller has finished its share.
    fn retire(&self, task: &Arc<TaskCore>) {
        let mut state = self.shared.state.lock().expect("pool state lock");
        state
            .tasks
            .retain(|pending| !Arc::ptr_eq(&pending.task, task));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let handles = {
            let mut state = self.shared.state.lock().expect("pool state lock");
            state.shutdown = true;
            std::mem::take(&mut state.handles)
        };
        self.shared.work_cv.notify_all();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A pool helper's life: park until a task has a free seat, claim it
/// (joining the task's latch *under the pool state lock*, so retirement
/// cannot race past a joiner), drain the cursor, leave, repeat. Exits
/// when shutdown is flagged and the queue is empty.
fn helper_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut state = shared.state.lock().expect("pool state lock");
            loop {
                if let Some(pending) = state.tasks.front_mut() {
                    let task = Arc::clone(&pending.task);
                    pending.slots -= 1;
                    if pending.slots == 0 {
                        state.tasks.pop_front();
                    }
                    *task.helpers.lock().expect("pool task latch") += 1;
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state.idle += 1;
                sparkxd_telemetry::counter_add!("pool.parks", 1);
                state = shared.work_cv.wait(state).expect("pool state lock");
                state.idle -= 1;
                sparkxd_telemetry::counter_add!("pool.wakes", 1);
            }
        };
        if let Some(payload) = task.run_jobs() {
            task.store_panic(payload);
        }
        let mut helpers = task.helpers.lock().expect("pool task latch");
        *helpers -= 1;
        if *helpers == 0 {
            task.done_cv.notify_all();
        }
    }
}

/// Maps `f` over `items` on up to `threads` workers of the persistent
/// [`WorkerPool`] (dynamic job hand-out via an atomic cursor), returning
/// results in input order.
///
/// Output is identical for every `threads` value as long as `f` is a pure
/// function of `(index, item)`. Panics in `f` propagate. A single item or
/// `threads == 1` runs inline on the caller — zero pool hops, so the
/// single-chunk serve dispatch path never pays a round-trip.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let _reservation = WorkerReservation::for_pool(threads);
    let slots: Vec<OnceLock<R>> = items.iter().map(|_| OnceLock::new()).collect();
    WorkerPool::global().run(items.len(), threads - 1, &|i| {
        let value = f(i, &items[i]);
        let filled = slots[i].set(value).is_ok();
        debug_assert!(filled, "cursor hands out each index once");
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// Splits `0..n` into `parts` contiguous, near-equal ranges (the longer
/// ones first); empty ranges are omitted. Shared by the dataset sharder
/// and the intra-chunk tile sweep (contiguous tile ranges per range-job).
pub(crate) fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let remainder = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < remainder);
        if len == 0 {
            continue;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Shards whole-dataset inference across worker threads and presents each
/// worker's samples in batched chunks.
///
/// Each worker owns one scratch and walks a contiguous slice of the
/// dataset in groups of B through [`NetworkParams::run_batch`];
/// per-sample RNG streams ([`sample_rng`]) make the aggregate
/// bit-identical regardless of sharding, batch size or worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchEvaluator {
    /// Batch size, tile width, kernel, intra mode and worker budget.
    exec: ExecConfig,
    /// `true` when [`with_threads`](Self::with_threads) pinned the worker
    /// count; otherwise each call sizes itself to the part of
    /// `exec.threads` outer parallel levels leave free.
    pinned: bool,
}

impl BatchEvaluator {
    /// An evaluator running under `exec`, sized on every call to the
    /// leftover of its worker budget (so nested fan-outs never
    /// oversubscribe). [`Default`] is `new(ExecConfig::default())`.
    pub fn new(exec: ExecConfig) -> Self {
        Self {
            exec,
            pinned: false,
        }
    }

    /// An evaluator pinned to exactly `threads` workers, which are also
    /// its whole budget; `1` is fully serial.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            exec: ExecConfig::with_budget(threads),
            pinned: true,
        }
    }

    /// Pins the batch size; `1` presents one sample per `run_batch` call.
    /// Builder style.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.exec.batch = batch.max(1);
        self
    }

    /// Pins the drive matrix's neuron-tile width; any value ≥ `n_neurons`
    /// (e.g. `usize::MAX`) forces the untiled single-sweep path. Builder
    /// style.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.exec.tile = tile.max(1);
        self
    }

    /// Pins the hot-loop kernel request; the request still resolves
    /// through runtime feature detection, so [`KernelChoice::Avx2`] on a
    /// host without AVX2 degrades to the portable kernel instead of
    /// faulting. Builder style; never changes results, only wall time.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.exec.kernel = kernel;
        self
    }

    /// Pins the intra-chunk tile-parallel mode of the drive sweep:
    /// [`IntraChoice::Off`] runs one range-job over every tile,
    /// [`IntraChoice::Workers`]`(k)` pins `k` sweep workers,
    /// [`IntraChoice::Auto`] sizes to the leftover thread budget. Builder
    /// style; never changes results, only wall time.
    pub fn with_intra(mut self, intra: IntraChoice) -> Self {
        self.exec.intra = intra;
        self
    }

    fn threads_for(&self, jobs: usize) -> usize {
        if self.pinned {
            self.exec.threads.min(jobs.max(1))
        } else {
            self.exec.worker_count(jobs)
        }
    }

    /// Presents every sample of `range` (batched in groups of
    /// `exec.batch`) and hands each `(dataset index, spike counts)` to
    /// `sink` in ascending index order.
    fn run_range(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
        range: Range<usize>,
        mut sink: impl FnMut(usize, Vec<u32>),
    ) {
        let batch = self.exec.batch.max(1);
        let mut state = BatchState::for_exec(params, &self.exec);
        let mut start = range.start;
        while start < range.end {
            let end = (start + batch).min(range.end);
            let pixels: Vec<&[f32]> = (start..end).map(|i| dataset.get(i).0.pixels()).collect();
            let mut rngs: Vec<StdRng> = (start..end).map(|i| sample_rng(seed, i as u64)).collect();
            let counts = params
                .run_batch(&mut state, &pixels, &mut rngs)
                .expect("dataset image matches configured input size");
            for (offset, sample_counts) in counts.into_iter().enumerate() {
                sink(start + offset, sample_counts);
            }
            start = end;
        }
    }

    /// Per-neuron spike counts for every sample of `dataset` (inference
    /// only), in dataset order.
    pub fn spike_counts(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
    ) -> Vec<Vec<u32>> {
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut out = Vec::with_capacity(range.len());
            self.run_range(params, dataset, seed, range.clone(), |_, counts| {
                out.push(counts)
            });
            out
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Classification accuracy of `params` on `dataset` under `labeler`'s
    /// neuron assignments.
    pub fn evaluate(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        labeler: &NeuronLabeler,
        seed: u64,
    ) -> f64 {
        if dataset.is_empty() {
            return 0.0;
        }
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let correct_per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut correct = 0usize;
            self.run_range(params, dataset, seed, range.clone(), |idx, counts| {
                let (_, label) = dataset.get(idx);
                if labeler.predict(&counts) == Some(label) {
                    correct += 1;
                }
            });
            correct
        });
        correct_per_chunk.iter().sum::<usize>() as f64 / dataset.len() as f64
    }

    /// Assigns a class to each neuron from its responses on `dataset`
    /// (inference only). Response counts are summed per chunk and merged,
    /// which is order-independent.
    pub fn label_neurons(
        &self,
        params: &NetworkParams,
        dataset: &Dataset,
        seed: u64,
    ) -> NeuronLabeler {
        let n_neurons = params.config().n_neurons;
        let chunks = chunk_ranges(dataset.len(), self.threads_for(dataset.len()));
        let per_chunk = parallel_map(&chunks, chunks.len(), |_, range| {
            let mut response = vec![[0u64; 10]; n_neurons];
            self.run_range(params, dataset, seed, range.clone(), |idx, counts| {
                let (_, label) = dataset.get(idx);
                for (j, &c) in counts.iter().enumerate() {
                    response[j][label as usize] += c as u64;
                }
            });
            response
        });
        let mut merged = vec![[0u64; 10]; n_neurons];
        for response in per_chunk {
            for (total, part) in merged.iter_mut().zip(response) {
                for (t, p) in total.iter_mut().zip(part) {
                    *t += p;
                }
            }
        }
        NeuronLabeler::from_responses(&merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DiehlCookNetwork, SnnConfig};
    use sparkxd_data::{SynthDigits, SyntheticSource};

    fn trained_params() -> NetworkParams {
        let mut net = DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(25));
        let train = SynthDigits.generate(15, 1);
        net.train_epoch(&train, 2);
        net.into_params()
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 5, 7, 16] {
            for parts in [1usize, 2, 3, 8, 20] {
                let ranges = chunk_ranges(n, parts);
                let mut covered = Vec::new();
                for r in &ranges {
                    assert!(!r.is_empty());
                    covered.extend(r.clone());
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_results() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |i, &x| i * 1000 + x * x);
        for threads in [2, 3, 8] {
            assert_eq!(
                parallel_map(&items, threads, |i, &x| i * 1000 + x * x),
                serial
            );
        }
    }

    #[test]
    fn evaluate_is_worker_count_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = BatchEvaluator::with_threads(1).label_neurons(&params, &data, 4);
        let serial = BatchEvaluator::with_threads(1).evaluate(&params, &data, &labeler, 5);
        for threads in [2, 3, 7] {
            let parallel =
                BatchEvaluator::with_threads(threads).evaluate(&params, &data, &labeler, 5);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn evaluate_is_batch_size_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .label_neurons(&params, &data, 4);
        let single = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .evaluate(&params, &data, &labeler, 5);
        for batch in [2, 3, 8, 17] {
            for threads in [1, 3] {
                let batched = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(single, batched, "batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn label_neurons_is_worker_and_batch_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let serial = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .label_neurons(&params, &data, 4);
        for (threads, batch) in [(2, 1), (1, 4), (5, 3), (2, 17)] {
            let parallel = BatchEvaluator::with_threads(threads)
                .with_batch(batch)
                .label_neurons(&params, &data, 4);
            assert_eq!(
                serial.assignments(),
                parallel.assignments(),
                "threads={threads} batch={batch}"
            );
        }
    }

    #[test]
    fn spike_counts_match_direct_run_batch() {
        // The engine's sharding and per-sample RNG derivation must give
        // exactly what one direct B = 1 `run_batch` call per image gives.
        let params = trained_params();
        let data = SynthDigits.generate(6, 3);
        let mut state = BatchState::for_params(&params, 1);
        let mut direct = Vec::new();
        for (idx, (image, _)) in data.iter().enumerate() {
            let mut rngs = [sample_rng(9, idx as u64)];
            direct.extend(
                params
                    .run_batch(&mut state, &[image.pixels()], &mut rngs)
                    .unwrap(),
            );
        }
        for (threads, batch) in [(2, 1), (2, 4), (1, 8)] {
            let batched = BatchEvaluator::with_threads(threads)
                .with_batch(batch)
                .spike_counts(&params, &data, 9);
            assert_eq!(batched, direct, "threads={threads} batch={batch}");
        }
    }

    #[test]
    fn empty_dataset_evaluates_to_zero() {
        let params = trained_params();
        let empty = SynthDigits.generate(0, 1);
        let labeler = NeuronLabeler::from_assignments(vec![None; 20]);
        assert_eq!(
            BatchEvaluator::default().evaluate(&params, &empty, &labeler, 1),
            0.0
        );
    }

    /// [`ExecConfig::from_lookup`] over a fixed variable table.
    fn lookup(vars: &[(&str, &str)]) -> Result<(ExecConfig, Mode), ExecConfigError> {
        ExecConfig::from_lookup(|var| {
            vars.iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| value.to_string())
        })
    }

    #[test]
    fn env_override_reads_unset_variable_as_none() {
        // Unset variables keep their defaults.
        assert_eq!(lookup(&[]), Ok((ExecConfig::default(), Mode::Off)));
    }

    #[test]
    fn usize_override_parses_and_clamps_zero_to_one() {
        for (raw, want) in [("0", 1), ("1", 1), ("7", 7), ("  3 ", 3)] {
            let (threads, _) = lookup(&[("SPARKXD_THREADS", raw)]).unwrap();
            let (batch, _) = lookup(&[("SPARKXD_BATCH", raw)]).unwrap();
            let (tile, _) = lookup(&[("SPARKXD_TILE", raw)]).unwrap();
            assert_eq!(
                (threads.threads, batch.batch, tile.tile),
                (want, want, want),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn kernel_override_parses_the_three_spellings() {
        for (raw, want) in [
            ("auto", KernelChoice::Auto),
            (" Scalar ", KernelChoice::Scalar),
            ("AVX2", KernelChoice::Avx2),
        ] {
            let (config, _) = lookup(&[("SPARKXD_KERNEL", raw)]).unwrap();
            assert_eq!(config.kernel, want, "raw={raw:?}");
        }
    }

    #[test]
    fn intra_override_parses_the_three_spellings() {
        // "0" clamps to the serial sweep, like every numeric knob.
        for (raw, want) in [
            ("auto", IntraChoice::Auto),
            (" OFF ", IntraChoice::Off),
            ("4", IntraChoice::Workers(4)),
            ("0", IntraChoice::Workers(1)),
            ("1", IntraChoice::Workers(1)),
        ] {
            let (config, _) = lookup(&[("SPARKXD_INTRA", raw)]).unwrap();
            assert_eq!(config.intra, want, "raw={raw:?}");
        }
    }

    #[test]
    fn telemetry_mode_resolves_with_the_config() {
        for (raw, want) in [
            ("off", Mode::Off),
            (" counters ", Mode::Counters),
            ("SPANS", Mode::Spans),
        ] {
            let (config, mode) = lookup(&[("SPARKXD_TELEMETRY", raw)]).unwrap();
            assert_eq!((config, mode), (ExecConfig::default(), want), "raw={raw:?}");
        }
    }

    /// Each `(var, raw)` row must fail with the typed error naming `var`
    /// and the `expected` spellings, in the value and in the message.
    fn assert_typed_errors(expected: &'static str, rows: &[(&'static str, &str)]) {
        for &(var, raw) in rows {
            let err = lookup(&[(var, raw)]).unwrap_err();
            assert_eq!(
                err,
                ExecConfigError {
                    var,
                    value: raw.to_string(),
                    expected
                }
            );
            let message = err.to_string();
            assert!(
                message.contains(var) && message.contains(expected),
                "{message}"
            );
        }
    }

    #[test]
    fn unparsable_count_is_a_typed_error() {
        assert_typed_errors(
            "a non-negative integer",
            &[
                ("SPARKXD_THREADS", "fourteen"),
                ("SPARKXD_BATCH", "-2"),
                ("SPARKXD_TILE", ""),
            ],
        );
    }

    #[test]
    fn unparsable_kernel_is_a_typed_error() {
        assert_typed_errors(
            "auto|scalar|avx2",
            &[
                ("SPARKXD_KERNEL", "avx512"),
                ("SPARKXD_KERNEL", "fast"),
                ("SPARKXD_KERNEL", ""),
            ],
        );
    }

    #[test]
    fn unparsable_intra_is_a_typed_error() {
        assert_typed_errors(
            "auto|off|<worker count>",
            &[
                ("SPARKXD_INTRA", "fast"),
                ("SPARKXD_INTRA", "-3"),
                ("SPARKXD_INTRA", ""),
            ],
        );
    }

    #[test]
    fn unparsable_telemetry_mode_is_a_typed_error() {
        assert_typed_errors("off|counters|spans", &[("SPARKXD_TELEMETRY", "verbose")]);
    }

    #[test]
    fn kernel_choice_defaults_to_auto_without_env() {
        let config = ExecConfig::default();
        assert_eq!(config.kernel, KernelChoice::Auto);
        assert!(crate::kernels::Kernel::available().contains(&kernel()));
    }

    #[test]
    fn display_is_one_line_naming_every_knob() {
        let kernel = KernelChoice::Auto.resolve().name();
        assert_eq!(
            ExecConfig::with_budget(2).to_string(),
            format!("threads=2 batch=4 tile=512 kernel=auto({kernel}) intra=auto")
        );
    }

    #[test]
    fn evaluate_is_kernel_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .with_kernel(KernelChoice::Scalar)
            .label_neurons(&params, &data, 4);
        let scalar = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .with_kernel(KernelChoice::Scalar)
            .evaluate(&params, &data, &labeler, 5);
        for choice in [KernelChoice::Auto, KernelChoice::Scalar, KernelChoice::Avx2] {
            for (threads, batch) in [(1, 1), (1, 4), (2, 8)] {
                let got = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .with_kernel(choice)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(
                    scalar, got,
                    "kernel={choice:?} threads={threads} batch={batch}"
                );
            }
        }
    }

    #[test]
    fn worker_count_respects_job_bound() {
        let exec = ExecConfig::default();
        assert_eq!(exec.worker_count(0), 1);
        assert_eq!(exec.worker_count(1), 1);
        assert!(exec.worker_count(64) >= 1);
    }

    #[test]
    fn batch_size_floors_at_one() {
        assert_eq!(batch_size(), DEFAULT_BATCH);
        assert_eq!(BatchEvaluator::default().with_batch(0).exec.batch, 1);
        assert_eq!(BatchEvaluator::default().with_batch(5).exec.batch, 5);
    }

    #[test]
    fn tile_width_defaults_and_floors_at_one() {
        assert_eq!(tile_width(), DEFAULT_TILE);
        assert_eq!(BatchEvaluator::default().with_tile(0).exec.tile, 1);
        assert_eq!(BatchEvaluator::default().with_tile(7).exec.tile, 7);
    }

    #[test]
    fn evaluate_is_tile_width_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .label_neurons(&params, &data, 4);
        let single = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .evaluate(&params, &data, &labeler, 5);
        for tile in [1usize, 3, 19, 20, 64, usize::MAX] {
            for (threads, batch) in [(1, 4), (2, 8)] {
                let tiled = BatchEvaluator::with_threads(threads)
                    .with_batch(batch)
                    .with_tile(tile)
                    .evaluate(&params, &data, &labeler, 5);
                assert_eq!(single, tiled, "tile={tile} threads={threads} batch={batch}");
            }
        }
    }

    #[test]
    fn nested_levels_share_the_thread_budget() {
        // A huge outer reservation must drive nested pools serial (never
        // below 1). Sibling tests can only reserve *more*, so the equality
        // is race-free; the release check stays a lower bound.
        {
            let _outer = WorkerReservation::for_pool(100_000);
            assert_eq!(ExecConfig::default().worker_count(64), 1);
        }
        assert!(
            ExecConfig::default().worker_count(64) >= 1,
            "budget released on drop"
        );
    }

    #[test]
    fn intra_choice_defaults_to_auto_without_env() {
        assert_eq!(ExecConfig::default().intra, IntraChoice::Auto);
        assert_eq!(intra_choice(), IntraChoice::Auto);
    }

    #[test]
    fn intra_workers_fall_back_serial_when_not_worth_it() {
        // Fewer than two tiles: nothing to split, for every mode.
        for choice in [IntraChoice::Auto, IntraChoice::Off, IntraChoice::Workers(8)] {
            assert_eq!(intra_workers_for(choice, 8, 0).0, 1, "{choice:?}");
            assert_eq!(intra_workers_for(choice, 8, 1).0, 1, "{choice:?}");
        }
        // Off is always serial; explicit pins clamp to the tile count.
        assert_eq!(intra_workers_for(IntraChoice::Off, 8, 64).0, 1);
        let (workers, reservation) = intra_workers_for(IntraChoice::Workers(8), 8, 3);
        assert_eq!(workers, 3, "pins clamp to n_tiles");
        assert!(
            reservation.is_some(),
            "pinned sweeps register their workers"
        );
    }

    #[test]
    fn intra_auto_respects_an_exhausted_budget() {
        // A huge outer reservation leaves no leftover budget: auto must
        // resolve to the serial sweep (sibling tests only reserve more,
        // so the equality is race-free).
        let _outer = WorkerReservation::for_pool(100_000);
        let (workers, reservation) = intra_workers_for(IntraChoice::Auto, 8, 64);
        assert_eq!(workers, 1);
        assert!(reservation.is_none());
    }

    #[test]
    fn claim_leftover_grants_sum_below_the_cap() {
        // Hammer the claim from many threads against a cap of 8 total
        // workers (7 extras): at any instant the *sum* of grants held by
        // these threads must stay ≤ 7, however the claims interleave.
        // Sibling tests can only shrink the leftover, never inflate our
        // grants, so the bound is race-free.
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let (granted, reservation) = WorkerReservation::claim_leftover(8, 99);
                        let now = held.fetch_add(granted, Ordering::SeqCst) + granted;
                        peak.fetch_max(now, Ordering::SeqCst);
                        held.fetch_sub(granted, Ordering::SeqCst);
                        drop(reservation);
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 7,
            "claims oversubscribed: peak {} > 7",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let pool = WorkerPool::new();
        for (jobs, extra) in [(1usize, 0usize), (3, 2), (64, 7), (5, 50)] {
            let hits: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            pool.run(jobs, extra, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "jobs={jobs} extra={extra}"
            );
        }
    }

    #[test]
    fn pool_single_job_and_no_seats_take_zero_pool_hops() {
        // The latency satellite: a single job (the single-chunk serve
        // dispatch) or a request with no helper seats must run inline on
        // the caller — no queue, no wakeup, no dispatch counted.
        let pool = WorkerPool::new();
        pool.run(1, 8, &|_| {});
        pool.run(7, 0, &|_| {});
        assert_eq!(pool.dispatches(), 0);
        pool.run(4, 2, &|_| {});
        assert_eq!(pool.dispatches(), 1, "multi-job dispatches do count");
    }

    #[test]
    fn single_item_parallel_map_runs_inline_on_the_caller() {
        // Even with a large thread request, one item means the caller
        // thread does the work itself — the zero-pool-hop regression for
        // the single-chunk serve path.
        let caller = std::thread::current().id();
        let out = parallel_map(&[41], 8, |_, &x| {
            assert_eq!(std::thread::current().id(), caller, "no pool round-trip");
            x + 1
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn pool_reuses_parked_helpers_across_dispatches() {
        // Back-to-back dispatches must not leak state: every job of every
        // dispatch still runs exactly once, on long-lived threads.
        let pool = WorkerPool::new();
        for round in 0..20 {
            let sum = AtomicUsize::new(0);
            pool.run(9, 3, &|i| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            assert_eq!(sum.load(Ordering::Relaxed), 45, "round {round}");
        }
        assert_eq!(pool.dispatches(), 20);
    }

    #[test]
    fn pool_propagates_job_panics() {
        let pool = WorkerPool::new();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 3, &|i| {
                if i == 5 {
                    panic!("job five failed");
                }
            });
        }));
        assert!(result.is_err(), "a job panic must reach the caller");
        // The pool must stay usable after a panicked dispatch.
        let sum = AtomicUsize::new(0);
        pool.run(4, 2, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn parallel_map_panics_propagate_through_the_pool() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&[0usize; 16], 4, |i, _| {
                if i == 11 {
                    panic!("shard eleven failed");
                }
                i
            })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn evaluate_is_intra_invariant() {
        let params = trained_params();
        let data = SynthDigits.generate(13, 3);
        let labeler = BatchEvaluator::with_threads(1)
            .with_batch(1)
            .label_neurons(&params, &data, 4);
        let serial = BatchEvaluator::with_threads(1)
            .with_batch(4)
            .with_tile(4)
            .with_intra(IntraChoice::Off)
            .evaluate(&params, &data, &labeler, 5);
        for intra in [
            IntraChoice::Auto,
            IntraChoice::Workers(2),
            IntraChoice::Workers(3),
            IntraChoice::Workers(7),
        ] {
            let got = BatchEvaluator::with_threads(1)
                .with_batch(4)
                .with_tile(4)
                .with_intra(intra)
                .evaluate(&params, &data, &labeler, 5);
            assert_eq!(serial, got, "intra={intra:?}");
        }
    }
}
