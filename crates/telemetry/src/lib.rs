//! Observation-only telemetry for the SparkXD workspace.
//!
//! One process-global registry holds sharded atomic [`Counter`]s,
//! [`Gauge`]s, fixed-bucket log2 [`Histogram`]s and RAII [`SpanGuard`]
//! timers. Instrumented code records through the `counter_add!`,
//! `gauge_set!`, `gauge_max!`, `hist_record!` and `span!` macros; three
//! export surfaces read it back:
//!
//! * [`TelemetrySnapshot::capture`] + [`TelemetrySnapshot::to_json`] — a
//!   serde-free hand-rolled JSON document (the workspace carries no
//!   serialisation dependency),
//! * [`write_chrome_trace`] / the RAII [`TraceFile`] — a Chrome
//!   trace-event file of the recorded spans, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev),
//! * the raw snapshot fields, which `sparkxd-bench` renders as a
//!   `TextTable` in `repro_all` / `nightly_n400` / `serve_load`
//!   summaries.
//!
//! # The observation-only / bit-identity contract
//!
//! Telemetry **observes** the computation and never steers it: wall-clock
//! readings feed durations and nothing else, counters are written and
//! never read back on any decision path, and no instrumented seam
//! branches on the telemetry mode beyond "record or skip the recording".
//! Consequently the engine's reproducibility guarantees are untouched —
//! a `PipelineOutcome` and a serve run's sorted `(id → label, tier)`
//! response set are bit-identical whether the mode is `off`, `counters`
//! or `spans` (pinned by the `thread_invariance` and
//! `scheduler_determinism` suites, which run their matrices across the
//! telemetry axis).
//!
//! # The telemetry mode (`SPARKXD_TELEMETRY`)
//!
//! | value | behaviour |
//! |---|---|
//! | `off` (default) | nothing is recorded; the fast path is one relaxed atomic load |
//! | `counters` | counters, gauges and histograms record; span *durations* aggregate into histograms but no trace events are kept |
//! | `spans` | everything above plus a bounded in-memory trace-event buffer for the Chrome trace export |
//!
//! This crate never reads the environment: the mode is `off` until
//! [`set_mode`] installs another. Binaries resolve the variable together
//! with the engine knobs (`sparkxd_snn::ExecConfig::from_env`, which
//! rejects an unparsable value with a typed error) and install it.
//!
//! Disabled is genuinely cheap: every macro begins with a single relaxed
//! load of a cached mode byte, and with `off` no site is ever
//! registered, no `Instant::now()` is taken and nothing allocates (the
//! `disabled_path` integration test pins this with a counting
//! allocator).
//!
//! # Span naming convention
//!
//! Names are static, lowercase and dot-separated, `component.verb[_qualifier]`:
//! `pipeline.<stage>` for the seven `SparkXdPipeline` stages
//! (`pipeline.data`, `pipeline.baseline_model`,
//! `pipeline.fault_aware_training`, `pipeline.operating_point`,
//! `pipeline.mapping`, `pipeline.operating_accuracy`,
//! `pipeline.energy`), `pool.*` for the worker pool, `engine.*` for the
//! batched read path, `dram.*` for model replays, `error.*` for
//! injection, `snn.*` for plane scrubbing and `core.*`/`serve.*` for
//! tier building and routing. Counter and histogram names follow the
//! same scheme.
//!
//! # Vendored-stub surface
//!
//! The vendored `rand`/`criterion`/`proptest` stubs needed **no new
//! surface** for this crate: telemetry is std-only (atomics, `Mutex`,
//! `Instant`, `OnceLock`) and the proptest shape tests use the already
//! vendored strategy combinators.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Cap on buffered trace events; spans beyond it are counted as dropped
/// instead of growing the buffer without bound.
pub const MAX_SPAN_EVENTS: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Mode gate
// ---------------------------------------------------------------------------

/// How much the registry records. Ordered: each level includes the ones
/// below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Record nothing (the default).
    Off = 0,
    /// Counters, gauges and histograms (span durations aggregate, no
    /// trace-event buffer).
    Counters = 1,
    /// Everything, including the Chrome-trace event buffer.
    Spans = 2,
}

impl Mode {
    /// Stable lowercase name, the same spelling [`Mode::parse`] accepts.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Counters => "counters",
            Mode::Spans => "spans",
        }
    }

    /// Parses a `SPARKXD_TELEMETRY` value (`off`, `counters` or `spans`;
    /// case-insensitive, surrounding whitespace ignored).
    pub fn parse(raw: &str) -> Option<Mode> {
        [Mode::Off, Mode::Counters, Mode::Spans]
            .into_iter()
            .find(|m| raw.trim().eq_ignore_ascii_case(m.as_str()))
    }

    fn from_u8(raw: u8) -> Mode {
        match raw {
            1 => Mode::Counters,
            2 => Mode::Spans,
            _ => Mode::Off,
        }
    }
}

/// Cached mode byte — the one relaxed load on every macro fast path.
static MODE: AtomicU8 = AtomicU8::new(Mode::Off as u8);

/// The active telemetry mode: [`Mode::Off`] until [`set_mode`] installs
/// another. A single relaxed atomic load.
#[inline]
pub fn mode() -> Mode {
    Mode::from_u8(MODE.load(Ordering::Relaxed))
}

/// Whether counters (and everything cheaper) record.
#[inline]
pub fn counters_enabled() -> bool {
    mode() >= Mode::Counters
}

/// Installs `mode` process-wide. Binaries install the
/// `SPARKXD_TELEMETRY` value their `ExecConfig::from_env` resolved;
/// tests and benches flip modes in-process.
pub fn set_mode(mode: Mode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// Shards per [`Counter`]. Writers pick a shard by thread, so concurrent
/// pool workers don't bounce one cache line.
const COUNTER_SHARDS: usize = 8;

/// Monotonically growing per-thread id, used to spread counter writes
/// across shards and to tag trace events.
static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ID: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_id() -> usize {
    THREAD_ID.with(|cell| {
        let id = cell.get();
        if id != usize::MAX {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        cell.set(id);
        id
    })
}

#[repr(align(64))]
#[derive(Debug, Default)]
struct Shard(AtomicU64);

/// Monotone event counter, sharded across cache lines so concurrent
/// writers (pool helpers, serve workers) don't contend.
#[derive(Debug, Default)]
pub struct Counter {
    shards: [Shard; COUNTER_SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Self {
            shards: [const { Shard(AtomicU64::new(0)) }; COUNTER_SHARDS],
        }
    }

    /// Adds `n` to the calling thread's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_id() % COUNTER_SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Last-write or high-water mark of a level (pool occupancy, queue
/// depth).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if larger (high-water mark).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Bucket count of [`Histogram`]: bucket 0 holds the value 0, bucket
/// `k ≥ 1` holds `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Fixed-bucket log2 histogram of `u64` samples (latencies in ns, sizes
/// in rows). Alongside each bucket's count it keeps the bucket's sample
/// *sum*, so percentile queries answer with the mean of the selected
/// bucket — exact whenever the bucket holds equal samples (the
/// all-equal, single-sample and empty edge cases of the old
/// sort-the-window percentile are preserved bit-for-bit).
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sums: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sums: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            max: AtomicU64::new(0),
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let b = Self::bucket_of(v);
        self.counts[b].fetch_add(1, Ordering::Relaxed);
        self.sums[b].fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sums.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile at quantile `q ∈ [0, 1]`, answered as the
    /// mean of the log2 bucket the rank falls in; 0 when empty. Rank
    /// arithmetic matches the old sort-based `percentile` (`ceil(q·n)`
    /// clamped to `[1, n]`), so empty / single-sample / all-equal inputs
    /// return exactly what the old implementation did.
    pub fn percentile(&self, q: f64) -> u64 {
        let (counts, sums, max) = self.load_buckets();
        percentile_of_buckets(&counts, &sums, max, q)
    }

    /// Relaxed copy of the bucket arrays and max, for merged snapshots.
    fn load_buckets(&self) -> ([u64; HISTOGRAM_BUCKETS], [u64; HISTOGRAM_BUCKETS], u64) {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        let mut sums = [0u64; HISTOGRAM_BUCKETS];
        for b in 0..HISTOGRAM_BUCKETS {
            counts[b] = self.counts[b].load(Ordering::Relaxed);
            sums[b] = self.sums[b].load(Ordering::Relaxed);
        }
        (counts, sums, self.max.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        for s in &self.sums {
            s.store(0, Ordering::Relaxed);
        }
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Nearest-rank percentile over explicit bucket arrays (the merged
/// multi-site form of [`Histogram::percentile`]).
fn percentile_of_buckets(
    counts: &[u64; HISTOGRAM_BUCKETS],
    sums: &[u64; HISTOGRAM_BUCKETS],
    max: u64,
    q: f64,
) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (b, &cnt) in counts.iter().enumerate() {
        seen += cnt;
        if cnt > 0 && seen >= rank {
            return sums[b] / cnt;
        }
    }
    max
}

/// Per-name aggregate a [`SpanGuard`] records into: a duration
/// histogram (ns).
#[derive(Debug, Default)]
pub struct SpanStats {
    durations_ns: Histogram,
}

impl SpanStats {
    /// Empty stats.
    pub const fn new() -> Self {
        Self {
            durations_ns: Histogram::new(),
        }
    }

    /// The duration histogram (ns).
    pub fn durations_ns(&self) -> &Histogram {
        &self.durations_ns
    }
}

// ---------------------------------------------------------------------------
// Registry and call sites
// ---------------------------------------------------------------------------

/// One buffered trace event: a completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (static, dot-separated).
    pub name: &'static str,
    /// Small per-thread integer (Chrome trace `tid`).
    pub tid: usize,
    /// Start, ns since the registry epoch.
    pub ts_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

struct Registry {
    epoch: Instant,
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    gauges: Mutex<Vec<(&'static str, &'static Gauge)>>,
    histograms: Mutex<Vec<(&'static str, &'static Histogram)>>,
    spans: Mutex<Vec<(&'static str, &'static SpanStats)>>,
    events: Mutex<Vec<SpanEvent>>,
    dropped_events: AtomicU64,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        counters: Mutex::new(Vec::new()),
        gauges: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        events: Mutex::new(Vec::new()),
        dropped_events: AtomicU64::new(0),
    })
}

/// A metric type the registry can hand out per call site.
pub trait Metric: Sized + 'static {
    /// Leaks a fresh instance and registers it under `name`.
    #[doc(hidden)]
    fn register(name: &'static str) -> &'static Self;
}

fn register_in<T>(
    list: &Mutex<Vec<(&'static str, &'static T)>>,
    name: &'static str,
    value: T,
) -> &'static T {
    let leaked: &'static T = Box::leak(Box::new(value));
    if let Ok(mut entries) = list.lock() {
        entries.push((name, leaked));
    }
    leaked
}

impl Metric for Counter {
    fn register(name: &'static str) -> &'static Self {
        register_in(&registry().counters, name, Counter::new())
    }
}

impl Metric for Gauge {
    fn register(name: &'static str) -> &'static Self {
        register_in(&registry().gauges, name, Gauge::new())
    }
}

impl Metric for Histogram {
    fn register(name: &'static str) -> &'static Self {
        register_in(&registry().histograms, name, Histogram::new())
    }
}

impl Metric for SpanStats {
    fn register(name: &'static str) -> &'static Self {
        register_in(&registry().spans, name, SpanStats::new())
    }
}

/// Per-call-site cache of a registered metric: resolved once, a single
/// `OnceLock` load afterwards. The recording macros expand to one of
/// these per expansion site; names should therefore be unique per site.
#[derive(Debug, Default)]
pub struct SiteCell<T: 'static>(OnceLock<&'static T>);

impl<T: Metric> SiteCell<T> {
    /// An unresolved site.
    pub const fn new() -> Self {
        Self(OnceLock::new())
    }

    /// The site's metric, registering it on first use.
    #[inline]
    pub fn get(&self, name: &'static str) -> &'static T {
        self.0.get_or_init(|| T::register(name))
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII span timer: created by the `span!` macro, records its duration
/// into the span's histogram on drop (and, in [`Mode::Spans`], appends a
/// trace event). Inert — no clock read, no allocation — when telemetry
/// is off.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    stats: &'static SpanStats,
    start: Instant,
}

impl SpanGuard {
    /// Starts a span if telemetry is enabled (macro entry point).
    #[inline]
    pub fn enter(site: &'static SiteCell<SpanStats>, name: &'static str) -> SpanGuard {
        if mode() == Mode::Off {
            return SpanGuard { active: None };
        }
        let stats = site.get(name);
        SpanGuard {
            active: Some(ActiveSpan {
                name,
                stats,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let dur_ns = span.start.elapsed().as_nanos() as u64;
        span.stats.durations_ns.record(dur_ns);
        if mode() != Mode::Spans {
            return;
        }
        let reg = registry();
        let ts_ns = span.start.saturating_duration_since(reg.epoch).as_nanos() as u64;
        if let Ok(mut events) = reg.events.lock() {
            if events.len() < MAX_SPAN_EVENTS {
                events.push(SpanEvent {
                    name: span.name,
                    tid: thread_id(),
                    ts_ns,
                    dur_ns,
                });
            } else {
                reg.dropped_events.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Adds to a named counter (no-op unless counters are enabled).
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {
        if $crate::counters_enabled() {
            static __SITE: $crate::SiteCell<$crate::Counter> = $crate::SiteCell::new();
            __SITE.get($name).add($n as u64);
        }
    };
}

/// Stores a named gauge value (no-op unless counters are enabled).
#[macro_export]
macro_rules! gauge_set {
    ($name:literal, $v:expr) => {
        if $crate::counters_enabled() {
            static __SITE: $crate::SiteCell<$crate::Gauge> = $crate::SiteCell::new();
            __SITE.get($name).set($v as u64);
        }
    };
}

/// Raises a named high-water-mark gauge (no-op unless counters are
/// enabled).
#[macro_export]
macro_rules! gauge_max {
    ($name:literal, $v:expr) => {
        if $crate::counters_enabled() {
            static __SITE: $crate::SiteCell<$crate::Gauge> = $crate::SiteCell::new();
            __SITE.get($name).record_max($v as u64);
        }
    };
}

/// Records a sample into a named histogram (no-op unless counters are
/// enabled).
#[macro_export]
macro_rules! hist_record {
    ($name:literal, $v:expr) => {
        if $crate::counters_enabled() {
            static __SITE: $crate::SiteCell<$crate::Histogram> = $crate::SiteCell::new();
            __SITE.get($name).record($v as u64);
        }
    };
}

/// Opens an RAII span covering the rest of the enclosing scope:
/// `let _span = span!("pipeline.mapping");`.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static __SITE: $crate::SiteCell<$crate::SpanStats> = $crate::SiteCell::new();
        $crate::SpanGuard::enter(&__SITE, $name)
    }};
}

// ---------------------------------------------------------------------------
// Snapshot + JSON export
// ---------------------------------------------------------------------------

/// One histogram in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Median (log2-bucket mean, see [`Histogram::percentile`]).
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// One span aggregate in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Span name.
    pub name: String,
    /// Completed spans.
    pub count: u64,
    /// Total time inside the span (ns).
    pub total_ns: u64,
    /// Median duration (ns).
    pub p50_ns: u64,
    /// Largest duration (ns).
    pub max_ns: u64,
}

/// Point-in-time copy of everything the registry has recorded, sorted by
/// name so renderings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Active mode at capture time (`off`/`counters`/`spans`).
    pub mode: String,
    /// `(name, value)` per counter; duplicate names summed.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge; duplicate names keep the max.
    pub gauges: Vec<(String, u64)>,
    /// Histogram aggregates.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span aggregates.
    pub spans: Vec<SpanSnapshot>,
    /// Trace events discarded after the buffer filled.
    pub dropped_events: u64,
}

impl TelemetrySnapshot {
    /// Captures the current registry contents (empty when nothing was
    /// ever recorded — capture itself never creates the registry).
    pub fn capture() -> Self {
        let mode = mode().as_str().to_string();
        let Some(reg) = REGISTRY.get() else {
            return Self {
                mode,
                counters: Vec::new(),
                gauges: Vec::new(),
                histograms: Vec::new(),
                spans: Vec::new(),
                dropped_events: 0,
            };
        };
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, c) in reg.counters.lock().unwrap().iter() {
            *counters.entry(name.to_string()).or_insert(0) += c.value();
        }
        let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
        for (name, g) in reg.gauges.lock().unwrap().iter() {
            let entry = gauges.entry(name.to_string()).or_insert(0);
            *entry = (*entry).max(g.value());
        }
        // Histograms (and span durations) registered at several call
        // sites under one name merge at the bucket level, so percentiles
        // reflect the combined distribution (e.g. the two `dram.replay`
        // entry points).
        type Buckets = ([u64; HISTOGRAM_BUCKETS], [u64; HISTOGRAM_BUCKETS], u64);
        fn merged<'a>(
            entries: impl Iterator<Item = (&'static str, &'a Histogram)>,
        ) -> BTreeMap<String, Buckets> {
            let mut by_name: BTreeMap<String, Buckets> = BTreeMap::new();
            for (name, h) in entries {
                let (counts, sums, max) = h.load_buckets();
                let entry = by_name.entry(name.to_string()).or_insert((
                    [0; HISTOGRAM_BUCKETS],
                    [0; HISTOGRAM_BUCKETS],
                    0,
                ));
                for b in 0..HISTOGRAM_BUCKETS {
                    entry.0[b] += counts[b];
                    entry.1[b] += sums[b];
                }
                entry.2 = entry.2.max(max);
            }
            by_name
        }
        let histograms: Vec<HistogramSnapshot> =
            merged(reg.histograms.lock().unwrap().iter().copied())
                .into_iter()
                .map(|(name, (counts, sums, max))| HistogramSnapshot {
                    name,
                    count: counts.iter().sum(),
                    sum: sums.iter().sum(),
                    p50: percentile_of_buckets(&counts, &sums, max, 0.50),
                    p99: percentile_of_buckets(&counts, &sums, max, 0.99),
                    max,
                })
                .collect();
        let spans: Vec<SpanSnapshot> = merged(
            reg.spans
                .lock()
                .unwrap()
                .iter()
                .map(|&(name, s)| (name, &s.durations_ns)),
        )
        .into_iter()
        .map(|(name, (counts, sums, max))| SpanSnapshot {
            name,
            count: counts.iter().sum(),
            total_ns: sums.iter().sum(),
            p50_ns: percentile_of_buckets(&counts, &sums, max, 0.50),
            max_ns: max,
        })
        .collect();
        Self {
            mode,
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms,
            spans,
            dropped_events: reg.dropped_events.load(Ordering::Relaxed),
        }
    }

    /// `true` when nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Hand-rolled JSON document (no serde; shape pinned by tests).
    pub fn to_json(&self) -> String {
        let named = |pairs: &[(String, u64)]| -> String {
            pairs
                .iter()
                .map(|(name, value)| {
                    format!("{{\"name\":\"{}\",\"value\":{value}}}", escape_json(name))
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"sum\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    escape_json(&h.name),
                    h.count,
                    h.sum,
                    h.p50,
                    h.p99,
                    h.max
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let spans = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"p50_ns\":{},\"max_ns\":{}}}",
                    escape_json(&s.name),
                    s.count,
                    s.total_ns,
                    s.p50_ns,
                    s.max_ns
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\n  \"schema\": \"sparkxd-telemetry-v1\",\n  \"mode\": \"{}\",\n  \
             \"counters\": [{}],\n  \"gauges\": [{}],\n  \"histograms\": [{}],\n  \
             \"spans\": [{}],\n  \"dropped_events\": {}\n}}\n",
            escape_json(&self.mode),
            named(&self.counters),
            named(&self.gauges),
            histograms,
            spans,
            self.dropped_events
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

/// A copy of the buffered trace events (empty unless [`Mode::Spans`] ran).
pub fn span_events() -> Vec<SpanEvent> {
    REGISTRY
        .get()
        .and_then(|reg| reg.events.lock().ok().map(|e| e.clone()))
        .unwrap_or_default()
}

fn render_chrome_trace(events: &[SpanEvent], dropped: u64) -> String {
    let body = events
        .iter()
        .map(|e| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"sparkxd\",\"ph\":\"X\",\"pid\":1,\
                 \"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                escape_json(e.name),
                e.tid,
                e.ts_ns as f64 / 1_000.0,
                e.dur_ns as f64 / 1_000.0
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}},\
         \"traceEvents\":[\n{body}\n]}}\n"
    )
}

/// Writes the buffered spans as a Chrome trace-event file (open in
/// `chrome://tracing` or Perfetto). Returns the number of events
/// written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let events = span_events();
    let dropped = REGISTRY
        .get()
        .map(|r| r.dropped_events.load(Ordering::Relaxed))
        .unwrap_or(0);
    std::fs::write(path, render_chrome_trace(&events, dropped))?;
    Ok(events.len())
}

/// RAII trace-file writer: create it up front, and whenever it drops —
/// end of `main`, early return, panic unwind — the spans buffered so far
/// land in `path`. Writes nothing when no spans were recorded.
#[derive(Debug)]
pub struct TraceFile {
    path: PathBuf,
}

impl TraceFile {
    /// Will write the Chrome trace to `path` on drop.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// Destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TraceFile {
    fn drop(&mut self) {
        if span_events().is_empty() {
            return;
        }
        match write_chrome_trace(&self.path) {
            Ok(n) => eprintln!(
                "sparkxd-telemetry: wrote {n} span events to {}",
                self.path.display()
            ),
            Err(err) => eprintln!(
                "sparkxd-telemetry: failed to write trace {}: {err}",
                self.path.display()
            ),
        }
    }
}

/// Zeroes every registered metric and clears the trace-event buffer.
/// Bench/test hook (the nightly overhead measurement isolates its two
/// legs with this); racy against concurrent recording, so call from a
/// quiesced process.
pub fn reset() {
    let Some(reg) = REGISTRY.get() else {
        return;
    };
    for (_, c) in reg.counters.lock().unwrap().iter() {
        c.reset();
    }
    for (_, g) in reg.gauges.lock().unwrap().iter() {
        g.reset();
    }
    for (_, h) in reg.histograms.lock().unwrap().iter() {
        h.reset();
    }
    for (_, s) in reg.spans.lock().unwrap().iter() {
        s.durations_ns.reset();
    }
    if let Ok(mut events) = reg.events.lock() {
        events.clear();
    }
    reg.dropped_events.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that flip the process-global mode serialise on this lock
    /// (cargo runs tests in one binary concurrently).
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn mode_parse_accepts_the_three_levels_and_trims() {
        assert_eq!(Mode::parse("off"), Some(Mode::Off));
        assert_eq!(Mode::parse(" counters "), Some(Mode::Counters));
        assert_eq!(Mode::parse("Spans"), Some(Mode::Spans));
    }

    #[test]
    fn mode_parse_rejects_junk() {
        for raw in ["verbose", "", "on"] {
            assert_eq!(Mode::parse(raw), None, "raw={raw:?}");
        }
    }

    #[test]
    fn counter_sums_across_threads_and_shards() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 4000);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_tracks_last_and_max() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.value(), 7);
        g.record_max(3);
        assert_eq!(g.value(), 7, "record_max never lowers");
        g.record_max(12);
        assert_eq!(g.value(), 12);
    }

    #[test]
    fn histogram_empty_single_and_all_equal_match_the_old_percentile() {
        // The three regression edge cases against the sort-based
        // implementation: empty → 0, single sample → that sample,
        // all-equal → that value, at every quantile.
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 0, "empty at q={q}");
        }
        h.record(42);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 42, "single sample at q={q}");
        }
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(777);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), 777, "all-equal at q={q}");
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 77_700);
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn histogram_percentile_is_the_selected_bucket_mean() {
        let h = Histogram::new();
        for v in [10, 20, 30, 40, 100, 50, 60] {
            h.record(v);
        }
        // Nearest rank 4 of 7 falls in the [32, 64) bucket holding
        // {40, 50, 60}; the answer is that bucket's mean.
        assert_eq!(h.percentile(0.50), 50);
        // Rank 7 falls in the [64, 128) bucket holding only 100.
        assert_eq!(h.percentile(0.99), 100);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn histogram_buckets_values_by_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn span_guard_records_duration_and_event_in_spans_mode() {
        let _lock = MODE_LOCK.lock().unwrap();
        let before = mode();
        set_mode(Mode::Spans);
        {
            let _span = crate::span!("test.span_guard_records");
            std::hint::black_box(0u64);
        }
        set_mode(before);
        let snapshot = TelemetrySnapshot::capture();
        let span = snapshot
            .spans
            .iter()
            .find(|s| s.name == "test.span_guard_records")
            .expect("span aggregate registered");
        assert!(span.count >= 1);
        assert!(
            span_events()
                .iter()
                .any(|e| e.name == "test.span_guard_records"),
            "spans mode buffers a trace event"
        );
    }

    #[test]
    fn macros_record_through_the_registry() {
        let _lock = MODE_LOCK.lock().unwrap();
        let before = mode();
        set_mode(Mode::Counters);
        crate::counter_add!("test.macro_counter", 3);
        crate::counter_add!("test.macro_counter", 2);
        crate::gauge_max!("test.macro_gauge", 9);
        crate::hist_record!("test.macro_hist", 17);
        set_mode(before);
        let snapshot = TelemetrySnapshot::capture();
        let counter = snapshot
            .counters
            .iter()
            .find(|(name, _)| name == "test.macro_counter")
            .expect("counter registered");
        assert_eq!(counter.1, 5);
        let gauge = snapshot
            .gauges
            .iter()
            .find(|(name, _)| name == "test.macro_gauge")
            .expect("gauge registered");
        assert_eq!(gauge.1, 9);
        let hist = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "test.macro_hist")
            .expect("histogram registered");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 17);
    }

    fn balanced(json: &str) {
        let braces = json.matches('{').count() == json.matches('}').count();
        let brackets = json.matches('[').count() == json.matches(']').count();
        assert!(braces && brackets, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn snapshot_json_has_every_section_and_field() {
        let snapshot = TelemetrySnapshot {
            mode: "spans".to_string(),
            counters: vec![("pool.dispatches".to_string(), 12)],
            gauges: vec![("pool.busy_peak".to_string(), 4)],
            histograms: vec![HistogramSnapshot {
                name: "dram.bus_busy_ns".to_string(),
                count: 3,
                sum: 120,
                p50: 40,
                p99: 60,
                max: 60,
            }],
            spans: vec![SpanSnapshot {
                name: "pipeline.data".to_string(),
                count: 1,
                total_ns: 1_000,
                p50_ns: 1_000,
                max_ns: 1_000,
            }],
            dropped_events: 2,
        };
        let json = snapshot.to_json();
        balanced(&json);
        for needle in [
            "\"schema\": \"sparkxd-telemetry-v1\"",
            "\"mode\": \"spans\"",
            "\"counters\": [",
            "{\"name\":\"pool.dispatches\",\"value\":12}",
            "{\"name\":\"pool.busy_peak\",\"value\":4}",
            "{\"name\":\"dram.bus_busy_ns\",\"count\":3,\"sum\":120,\"p50\":40,\"p99\":60,\"max\":60}",
            "{\"name\":\"pipeline.data\",\"count\":1,\"total_ns\":1000,\"p50_ns\":1000,\"max_ns\":1000}",
            "\"dropped_events\": 2",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn chrome_trace_renders_complete_events() {
        let events = [
            SpanEvent {
                name: "pipeline.data",
                tid: 0,
                ts_ns: 1_500,
                dur_ns: 2_000,
            },
            SpanEvent {
                name: "pool.run",
                tid: 3,
                ts_ns: 4_000,
                dur_ns: 500,
            },
        ];
        let json = render_chrome_trace(&events, 1);
        balanced(&json);
        for needle in [
            "\"traceEvents\":[",
            "\"displayTimeUnit\":\"ms\"",
            "\"dropped_events\":1",
            "{\"name\":\"pipeline.data\",\"cat\":\"sparkxd\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"dur\":2.000}",
            "{\"name\":\"pool.run\",\"cat\":\"sparkxd\",\"ph\":\"X\",\"pid\":1,\"tid\":3,\"ts\":4.000,\"dur\":0.500}",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
    }

    #[test]
    fn escape_json_handles_quotes_and_controls() {
        assert_eq!(escape_json("plain.name"), "plain.name");
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn unescape_json(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (&mut chars).take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).unwrap_or(0);
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                Some(other) => out.push(other),
                None => {}
            }
        }
        out
    }

    /// Parses the `"counters"`/`"gauges"` sections back into pairs.
    fn parse_named_pairs(json: &str, section: &str) -> Vec<(String, u64)> {
        let start = json
            .find(&format!("\"{section}\": ["))
            .map(|i| i + section.len() + 5)
            .expect("section present");
        let end = json[start..].find(']').expect("section closed") + start;
        json[start..end]
            .split("},")
            .filter(|chunk| chunk.contains("\"name\""))
            .map(|chunk| {
                let name_start = chunk.find("\"name\":\"").expect("name key") + 8;
                let name_end = {
                    // The name may contain escaped quotes; scan for the
                    // first unescaped one.
                    let bytes = chunk.as_bytes();
                    let mut i = name_start;
                    loop {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'"' => break i,
                            _ => i += 1,
                        }
                    }
                };
                let name = unescape_json(&chunk[name_start..name_end]);
                let value_start = chunk.find("\"value\":").expect("value key") + 8;
                let value: u64 = chunk[value_start..]
                    .trim_matches(|c: char| !c.is_ascii_digit())
                    .parse()
                    .expect("numeric value");
                (name, value)
            })
            .collect()
    }

    /// Deterministic `(name, value)` pairs from a seed — the vendored
    /// proptest stub has no string/collection strategies, so names are
    /// derived in-body over the metric alphabet (`[a-z][a-z0-9_.]*`).
    fn synth_pairs(seed: u64, n: usize) -> Vec<(String, u64)> {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        };
        let mut pairs = std::collections::BTreeMap::new();
        for _ in 0..n {
            let len = 1 + (next() % 12) as usize;
            let mut name = String::new();
            name.push((b'a' + (next() % 26) as u8) as char);
            for _ in 1..len {
                name.push(ALPHABET[(next() % ALPHABET.len() as u64) as usize] as char);
            }
            pairs.insert(name, next());
        }
        pairs.into_iter().collect()
    }

    proptest! {
        #[test]
        fn snapshot_json_round_trips_counters_and_gauges(
            counter_seed in any::<u64>(),
            gauge_seed in any::<u64>(),
            n_counters in 0usize..8,
            n_gauges in 0usize..8,
            dropped in any::<u64>(),
        ) {
            let snapshot = TelemetrySnapshot {
                mode: "counters".to_string(),
                counters: synth_pairs(counter_seed, n_counters),
                gauges: synth_pairs(gauge_seed, n_gauges),
                histograms: Vec::new(),
                spans: Vec::new(),
                dropped_events: dropped,
            };
            let json = snapshot.to_json();
            prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
            prop_assert_eq!(json.matches('[').count(), json.matches(']').count());
            let counters_back = parse_named_pairs(&json, "counters");
            let gauges_back = parse_named_pairs(&json, "gauges");
            prop_assert_eq!(counters_back, snapshot.counters);
            prop_assert_eq!(gauges_back, snapshot.gauges);
            prop_assert!(json.contains(&format!("\"dropped_events\": {dropped}")));
        }
    }
}
