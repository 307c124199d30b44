//! Serving metrics: latency percentiles, throughput, per-tier energy and
//! hit accounting.
//!
//! The recorder sits behind one mutex; workers touch it once per *chunk*
//! plus once per response, which is noise next to an SNN inference
//! (hundreds of microseconds each). Timing-derived numbers (latencies,
//! throughput) naturally vary run to run — only the request→response
//! mapping is deterministic — so the snapshot keeps them clearly separated
//! from the deterministic per-tier hit counts.

use sparkxd_telemetry::Histogram;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Deterministic per-tier accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierCounters {
    /// Requests answered by this tier.
    pub hits: u64,
    /// Batches (weight-image DRAM passes) this tier served.
    pub batches: u64,
}

/// Mutable interior of [`ServiceMetrics`].
#[derive(Debug, Default)]
struct MetricsCore {
    /// End-to-end latency (enqueue → response) of every completed
    /// request, as a fixed-bucket log2 histogram — constant memory over
    /// any service lifetime, so no sample ring or windowing is needed
    /// (the predecessor kept the most recent 2^20 samples and sorted
    /// them per snapshot).
    latencies_ns: Histogram,
    /// All-time completion count.
    completed: u64,
    per_tier: Vec<TierCounters>,
    /// DRAM energy per tier (mJ): passes × per-pass energy.
    tier_energy_mj: Vec<f64>,
    rejected: u64,
    first_completion: Option<Instant>,
    last_completion: Option<Instant>,
}

/// Shared metrics recorder of one service instance.
#[derive(Debug)]
pub struct ServiceMetrics {
    core: Mutex<MetricsCore>,
}

impl ServiceMetrics {
    /// A fresh recorder for `n_tiers` tiers.
    pub fn new(n_tiers: usize) -> Self {
        Self {
            core: Mutex::new(MetricsCore {
                per_tier: vec![TierCounters::default(); n_tiers],
                tier_energy_mj: vec![0.0; n_tiers],
                ..MetricsCore::default()
            }),
        }
    }

    /// Records one admission-control rejection.
    pub fn record_rejection(&self) {
        self.core.lock().expect("metrics lock").rejected += 1;
    }

    /// Records one dispatched chunk: `len` requests served by `tier` in a
    /// single weight-image pass, with the member requests' end-to-end
    /// latencies.
    pub fn record_chunk(&self, tier: usize, len: usize, pass_mj: f64, latencies_ns: &[u64]) {
        let now = Instant::now();
        let mut core = self.core.lock().expect("metrics lock");
        core.per_tier[tier].hits += len as u64;
        core.per_tier[tier].batches += 1;
        core.tier_energy_mj[tier] += pass_mj;
        core.completed += latencies_ns.len() as u64;
        for &latency in latencies_ns {
            core.latencies_ns.record(latency);
        }
        core.first_completion.get_or_insert(now);
        core.last_completion = Some(now);
    }

    /// A consistent copy of everything recorded so far.
    ///
    /// Percentiles come straight off the log2 histogram — O(buckets)
    /// per query, no per-snapshot sort — so a monitoring thread polling
    /// snapshots never stalls the worker pool's per-chunk recording.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let core = self.core.lock().expect("metrics lock");
        let window = match (core.first_completion, core.last_completion) {
            (Some(first), Some(last)) => last.duration_since(first),
            _ => Duration::ZERO,
        };
        let samples = core.latencies_ns.count();
        let mean_ns = if samples == 0 {
            0.0
        } else {
            core.latencies_ns.sum() as f64 / samples as f64
        };
        let throughput_rps = if core.completed > 1 && !window.is_zero() {
            // The window spans completions 1..n: n-1 inter-completion gaps.
            (core.completed - 1) as f64 / window.as_secs_f64()
        } else {
            0.0
        };
        MetricsSnapshot {
            completed: core.completed,
            rejected: core.rejected,
            p50_ns: core.latencies_ns.percentile(0.50),
            p95_ns: core.latencies_ns.percentile(0.95),
            p99_ns: core.latencies_ns.percentile(0.99),
            mean_ns,
            throughput_rps,
            per_tier: core.per_tier.clone(),
            tier_energy_mj: core.tier_energy_mj.clone(),
        }
    }
}

/// Point-in-time summary of a service's metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests answered (all time).
    pub completed: u64,
    /// Requests refused by admission control.
    pub rejected: u64,
    /// Median end-to-end latency (ns) over all completions, answered
    /// from the log2 latency histogram (the mean of the bucket the rank
    /// falls in — exact for all-equal samples, ≤ 2× off otherwise).
    pub p50_ns: u64,
    /// 95th-percentile end-to-end latency (ns), same histogram.
    pub p95_ns: u64,
    /// 99th-percentile end-to-end latency (ns), same histogram.
    pub p99_ns: u64,
    /// Mean end-to-end latency (ns), over all completions (exact).
    pub mean_ns: f64,
    /// Completions per second over the first→last completion window.
    pub throughput_rps: f64,
    /// Per-tier hit/batch counters (deterministic given a request set).
    pub per_tier: Vec<TierCounters>,
    /// Per-tier DRAM energy (mJ): weight-image passes × per-pass cost.
    pub tier_energy_mj: Vec<f64>,
}

impl MetricsSnapshot {
    /// Total DRAM energy across tiers (mJ).
    pub fn total_energy_mj(&self) -> f64 {
        self.tier_energy_mj.iter().sum()
    }

    /// Mean DRAM energy per answered request (mJ) — the batching
    /// amortisation made visible: B requests per chunk share one pass.
    pub fn energy_per_request_mj(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.total_energy_mj() / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank percentile of an ascending-sorted sample set (`0`
    /// when empty). `q` is a fraction in `[0, 1]`. This is the exact
    /// reference the histogram-backed snapshot percentiles approximate;
    /// the tests below pin where the two agree bit-for-bit (empty, single
    /// sample, all-equal).
    fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
        if sorted_ns.is_empty() {
            return 0;
        }
        let rank = (q * sorted_ns.len() as f64).ceil() as usize;
        sorted_ns[rank.clamp(1, sorted_ns.len()) - 1]
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
    }

    #[test]
    fn chunks_accumulate_hits_batches_and_energy() {
        let m = ServiceMetrics::new(2);
        m.record_chunk(0, 4, 1.5, &[10, 20, 30, 40]);
        m.record_chunk(1, 1, 2.0, &[100]);
        m.record_chunk(0, 2, 1.5, &[50, 60]);
        m.record_rejection();
        let s = m.snapshot();
        assert_eq!(s.completed, 7);
        assert_eq!(s.rejected, 1);
        assert_eq!(
            s.per_tier[0],
            TierCounters {
                hits: 6,
                batches: 2
            }
        );
        assert_eq!(
            s.per_tier[1],
            TierCounters {
                hits: 1,
                batches: 1
            }
        );
        assert!((s.tier_energy_mj[0] - 3.0).abs() < 1e-12);
        assert!((s.tier_energy_mj[1] - 2.0).abs() < 1e-12);
        assert!((s.total_energy_mj() - 5.0).abs() < 1e-12);
        assert!((s.energy_per_request_mj() - 5.0 / 7.0).abs() < 1e-12);
        // Histogram-backed percentiles: rank 4 of 7 falls in the
        // [32, 64) bucket holding {40, 50, 60}, answered as that
        // bucket's mean; rank 7 isolates 100 in [64, 128).
        assert_eq!(s.p50_ns, 50);
        assert_eq!(s.p99_ns, 100);
    }

    #[test]
    fn latency_memory_is_bounded_but_every_sample_counts() {
        // The predecessor kept a 2^20-sample ring; the histogram is
        // constant-size regardless of volume, and repeated identical
        // chunks keep the percentiles of one chunk (scale invariance).
        let m = ServiceMetrics::new(1);
        let chunk: Vec<u64> = (0..4096).collect();
        let chunks = (1 << 20) / chunk.len() + 2;
        for _ in 0..chunks {
            m.record_chunk(0, chunk.len(), 0.0, &chunk);
        }
        let s = m.snapshot();
        assert_eq!(s.completed, (chunks * chunk.len()) as u64);
        // Exactly half of 0..4096 lies at or below the [1024, 2048)
        // bucket, so the median is that bucket's mean, ⌊1535.5⌋.
        assert_eq!(s.p50_ns, 1535, "median of repeated 0..4096 chunks");
        assert_eq!(s.per_tier[0].hits, s.completed);
    }

    #[test]
    fn histogram_percentiles_match_the_old_sort_on_edge_cases() {
        // Regression against the previous sort-the-ring implementation
        // (the test-only `percentile` above is its exact percentile half):
        // on the edge cases — empty, single sample, all-equal — the
        // histogram answers must be bit-identical to the old path.
        // Empty.
        let s = ServiceMetrics::new(1).snapshot();
        assert_eq!(s.p50_ns, percentile(&[], 0.50));
        assert_eq!(s.p95_ns, percentile(&[], 0.95));
        assert_eq!(s.p99_ns, percentile(&[], 0.99));
        // Single sample.
        let m = ServiceMetrics::new(1);
        m.record_chunk(0, 1, 0.0, &[7]);
        let s = m.snapshot();
        assert_eq!(s.p50_ns, percentile(&[7], 0.50));
        assert_eq!(s.p95_ns, percentile(&[7], 0.95));
        assert_eq!(s.p99_ns, percentile(&[7], 0.99));
        // All-equal.
        let m = ServiceMetrics::new(1);
        let same = [777u64; 128];
        m.record_chunk(0, same.len(), 0.0, &same);
        let s = m.snapshot();
        assert_eq!(s.p50_ns, percentile(&same, 0.50));
        assert_eq!(s.p95_ns, percentile(&same, 0.95));
        assert_eq!(s.p99_ns, percentile(&same, 0.99));
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = ServiceMetrics::new(1).snapshot();
        assert_eq!(s.completed, 0);
        assert_eq!(s.p50_ns, 0);
        assert_eq!(s.throughput_rps, 0.0);
        assert_eq!(s.energy_per_request_mj(), 0.0);
    }
}
