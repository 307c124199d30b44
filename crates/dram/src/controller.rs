//! Trace replay: row-buffer classification plus latency accounting with
//! bank-level parallelism (the multi-bank burst feature of paper Fig. 9b).
//!
//! [`DramModel::replay`] is the one walk over a [`CompressedTrace`]. The
//! first access of every op goes through the bank state machine
//! (`step_timed`); the remaining `len - 1` accesses of a [`TraceOp::Run`]
//! are row-buffer hits by construction and are accounted in closed form
//! (see `replay_inner` for the derivation). Replaying
//! [`CompressedTrace::expand`] steps every access through the state
//! machine, so `replay(&t)` against `replay(&t.expand())` checks the
//! closed form against per-access stepping.
//!
//! [`TraceOp::Run`]: crate::trace::TraceOp::Run

use crate::bank::{AccessKind, BankState};
use crate::geometry::DramCoord;
use crate::stats::AccessStats;
use crate::timing::DramConfig;
use crate::trace::{CompressedTrace, Direction};

/// Timing outcome of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyReport {
    /// End-to-end time of the trace in nanoseconds (last data beat).
    pub total_ns: f64,
    /// Sum of unpipelined per-access latencies (no overlap) — the
    /// single-bank upper bound, kept for speedup analysis.
    pub serial_ns: f64,
    /// Time the data bus was actually transferring data.
    pub bus_busy_ns: f64,
}

impl LatencyReport {
    /// Fraction of total time the data bus was busy (bandwidth
    /// utilisation); `0` for an empty replay.
    pub fn bus_utilisation(&self) -> f64 {
        if self.total_ns == 0.0 {
            0.0
        } else {
            self.bus_busy_ns / self.total_ns
        }
    }

    /// How much bank-level overlap compressed the trace relative to fully
    /// serial execution (≥ 1).
    pub fn overlap_factor(&self) -> f64 {
        if self.total_ns == 0.0 {
            1.0
        } else {
            self.serial_ns / self.total_ns
        }
    }
}

/// Combined result of replaying a trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplayOutcome {
    /// Row-buffer and direction counters.
    pub stats: AccessStats,
    /// Latency accounting.
    pub latency: LatencyReport,
    /// Per-access classification, aligned with the expanded trace. `None`
    /// unless the `*_with_kinds` replay entry point was used — aggregate
    /// consumers (energy, figures) don't pay for the allocation.
    pub kinds: Option<Vec<AccessKind>>,
}

/// A DRAM device replaying access traces.
///
/// Banks across the whole hierarchy are tracked independently; ACT/PRE on
/// one bank overlaps data bursts on other banks, while the shared data bus
/// serialises the bursts themselves. The tRAS constraint (a row must stay
/// open at least `t_ras` before precharge) is enforced per bank.
///
/// # Example
///
/// ```
/// use sparkxd_dram::{CompressedTrace, DramConfig, DramModel};
///
/// let config = DramConfig::tiny();
/// let seq = CompressedTrace::sequential_reads(&config.geometry, 32);
/// let inter = CompressedTrace::interleaved_reads(&config.geometry, 32);
/// let seq_out = DramModel::new(config.clone()).replay(&seq);
/// let inter_out = DramModel::new(config).replay(&inter);
/// // Interleaving exposes bank-level overlap.
/// assert!(inter_out.latency.overlap_factor() >= seq_out.latency.overlap_factor());
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    banks: Vec<BankState>,
    /// Earliest time each bank can issue its next column command (ns).
    bank_ready: Vec<f64>,
    /// Time of the last activate per bank, for the tRAS constraint (ns).
    bank_last_act: Vec<f64>,
    /// Time the shared data bus frees up (ns).
    bus_free: f64,
}

impl DramModel {
    /// Creates a model with all banks precharged at time 0.
    pub fn new(config: DramConfig) -> Self {
        let g = &config.geometry;
        let n_banks = g.channels * g.ranks * g.chips * g.banks;
        Self {
            config,
            banks: vec![BankState::new(); n_banks],
            bank_ready: vec![0.0; n_banks],
            bank_last_act: vec![f64::NEG_INFINITY; n_banks],
            bus_free: 0.0,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    fn bank_index(&self, c: &crate::geometry::DramCoord) -> usize {
        let g = &self.config.geometry;
        ((c.channel * g.ranks + c.rank) * g.chips + c.chip) * g.banks + c.bank
    }

    /// One access through the full timing machinery. Returns the bank
    /// index, the classification, and the time the data burst starts on
    /// the shared bus (the burst ends `t_burst` later).
    #[inline]
    fn step_timed(&mut self, coord: &DramCoord) -> (usize, AccessKind, f64) {
        let t = self.config.timing;
        let bi = self.bank_index(coord);
        let kind = self.banks[bi].access(coord.bank_row(&self.config.geometry));

        // Command timeline within the bank.
        let mut ready = self.bank_ready[bi];
        match kind {
            AccessKind::Hit => {}
            AccessKind::Miss => {
                // ACT, then wait tRCD.
                self.bank_last_act[bi] = ready;
                ready += t.t_rcd;
            }
            AccessKind::Conflict => {
                // PRE cannot start before the open row satisfied tRAS.
                let pre_start = ready.max(self.bank_last_act[bi] + t.t_ras);
                let act_at = pre_start + t.t_rp;
                self.bank_last_act[bi] = act_at;
                ready = act_at + t.t_rcd;
            }
        }
        // Column command issues at `ready`; data appears CL later but
        // must also wait for the shared bus.
        let data_start = (ready + t.t_cl).max(self.bus_free);
        self.bus_free = data_start + t.t_burst;
        // The bank can take its next column command after the burst.
        self.bank_ready[bi] = data_start - t.t_cl + t.t_burst.min(t.t_cl);
        (bi, kind, data_start)
    }

    /// Assembles the outcome; `serial_ns` and `bus_busy_ns` are pure
    /// functions of the aggregate counters.
    fn finish(
        &self,
        stats: AccessStats,
        last_data_end: f64,
        kinds: Option<Vec<AccessKind>>,
    ) -> ReplayOutcome {
        let t = self.config.timing;
        let outcome = ReplayOutcome {
            stats,
            latency: LatencyReport {
                total_ns: last_data_end,
                serial_ns: stats.hits as f64 * t.unpipelined_latency(AccessKind::Hit)
                    + stats.misses as f64 * t.unpipelined_latency(AccessKind::Miss)
                    + stats.conflicts as f64 * t.unpipelined_latency(AccessKind::Conflict),
                bus_busy_ns: stats.total() as f64 * t.t_burst,
            },
            kinds,
        };
        // Every replay funnels through here, so this is the single
        // observation point for row-buffer behaviour. Misses and conflicts
        // each cost one activation.
        sparkxd_telemetry::counter_add!("dram.replays", 1);
        sparkxd_telemetry::counter_add!("dram.row_hits", stats.hits);
        sparkxd_telemetry::counter_add!("dram.row_misses", stats.misses);
        sparkxd_telemetry::counter_add!("dram.row_conflicts", stats.conflicts);
        sparkxd_telemetry::counter_add!("dram.row_acts", stats.misses + stats.conflicts);
        sparkxd_telemetry::hist_record!("dram.bus_busy_ns", outcome.latency.bus_busy_ns);
        outcome
    }

    /// Replays `trace`, consuming current bank state (call on a fresh
    /// model for independent measurements). Each [`TraceOp::Run`] costs
    /// O(1) regardless of its length. Aggregate stats only; use
    /// [`replay_with_kinds`](Self::replay_with_kinds) when per-access
    /// alignment matters.
    ///
    /// The closed-form run tail matches stepping the same accesses one by
    /// one (`replay(&trace.expand())`) bit for bit whenever the timing
    /// parameters are exactly representable, which holds for every
    /// JEDEC-derived profile; circuit-derived core timings agree to
    /// ≤ 1 ulp per run.
    ///
    /// [`TraceOp::Run`]: crate::trace::TraceOp::Run
    pub fn replay(&mut self, trace: &CompressedTrace) -> ReplayOutcome {
        self.replay_inner(trace, false)
    }

    /// Replay that also captures the classification of every access,
    /// aligned with the expanded trace.
    pub fn replay_with_kinds(&mut self, trace: &CompressedTrace) -> ReplayOutcome {
        self.replay_inner(trace, true)
    }

    fn replay_inner(&mut self, trace: &CompressedTrace, want_kinds: bool) -> ReplayOutcome {
        let _span = sparkxd_telemetry::span!("dram.replay");
        let t = self.config.timing;
        let mut stats = AccessStats::new();
        let mut kinds = want_kinds.then(|| Vec::with_capacity(trace.len()));
        let mut last_data_end: f64 = 0.0;
        for _ in 0..trace.repeat() {
            for op in trace.ops() {
                // The op's first access (a lone `Access` is a run of one):
                // normal classification and timing.
                let head = op.access_at(0);
                let is_write = head.direction == Direction::Write;
                let (bi, kind, first_start) = self.step_timed(&head.coord);
                stats.record(kind, is_write);
                if let Some(v) = kinds.as_mut() {
                    v.push(kind);
                }
                // Remaining accesses are hits to the row the first access
                // just opened (or found open). Per access, the scalar step
                // would compute
                //   data_start' = max(bank_ready + t_cl, bus_free)
                //              = max(data_start + min(t_burst, t_cl),
                //                    data_start + t_burst)
                //              = data_start + t_burst,
                // so the whole tail collapses to one multiply.
                let tail = op.len() - 1;
                let mut last_start = first_start;
                if tail > 0 {
                    last_start = first_start + tail as f64 * t.t_burst;
                    self.bus_free = last_start + t.t_burst;
                    self.bank_ready[bi] = last_start - t.t_cl + t.t_burst.min(t.t_cl);
                    stats.record_many(AccessKind::Hit, tail as u64, is_write);
                    if let Some(v) = kinds.as_mut() {
                        v.extend(std::iter::repeat_n(AccessKind::Hit, tail));
                    }
                }
                last_data_end = last_data_end.max(last_start + t.t_burst);
            }
        }
        self.finish(stats, last_data_end, kinds)
    }

    /// Resets all banks to the precharged state and time 0.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.precharge();
        }
        self.bank_ready.fill(0.0);
        self.bank_last_act.fill(f64::NEG_INFINITY);
        self.bus_free = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{AddressOrder, DramGeometry};
    use crate::trace::Access;

    fn model() -> DramModel {
        DramModel::new(DramConfig::tiny())
    }

    #[test]
    fn sequential_trace_is_mostly_hits() {
        let g = DramGeometry::tiny();
        let mut m = model();
        let out = m.replay(&CompressedTrace::sequential_reads(&g, 32));
        // 32 columns = 4 rows of 8: 4 openings, 28 hits.
        assert_eq!(out.stats.hits, 28);
        assert_eq!(out.stats.misses + out.stats.conflicts, 4);
    }

    #[test]
    fn alternating_rows_in_one_bank_conflict() {
        let g = DramGeometry::tiny();
        let a = g
            .linear_to_coord(0, AddressOrder::BaselineRowMajor)
            .unwrap();
        let b = g
            .linear_to_coord(g.cols_per_row as u64, AddressOrder::BaselineRowMajor)
            .unwrap();
        assert_eq!(a.bank, b.bank);
        let trace: CompressedTrace = [a, b, a, b].into_iter().map(Access::read).collect();
        let mut m = model();
        let out = m.replay(&trace);
        assert_eq!(out.stats.misses, 1);
        assert_eq!(out.stats.conflicts, 3);
    }

    #[test]
    fn interleaved_is_faster_than_row_thrash_in_one_bank() {
        let g = DramGeometry::tiny();
        // Row-thrashing in a single bank.
        let a = g
            .linear_to_coord(0, AddressOrder::BaselineRowMajor)
            .unwrap();
        let b = g
            .linear_to_coord(g.cols_per_row as u64, AddressOrder::BaselineRowMajor)
            .unwrap();
        let thrash: CompressedTrace = (0..16)
            .map(|i| Access::read(if i % 2 == 0 { a } else { b }))
            .collect();
        let inter = CompressedTrace::interleaved_reads(&g, 16);
        let t1 = model().replay(&thrash).latency.total_ns;
        let t2 = model().replay(&inter).latency.total_ns;
        assert!(t2 < t1, "interleaved {t2} ns should beat thrashing {t1} ns");
    }

    #[test]
    fn multi_bank_overlap_hides_activation() {
        let g = DramGeometry::tiny();
        let inter = CompressedTrace::interleaved_reads(&g, 16);
        let out = DramModel::new(DramConfig::tiny()).replay(&inter);
        assert!(
            out.latency.overlap_factor() > 1.1,
            "interleaving should overlap ACTs, factor {}",
            out.latency.overlap_factor()
        );
    }

    #[test]
    fn compressed_replay_matches_per_access_on_sequential_trace() {
        let g = DramGeometry::tiny();
        let trace = CompressedTrace::sequential_reads(&g, 48);
        let per_access = DramModel::new(DramConfig::tiny()).replay(&trace.expand());
        let batch = DramModel::new(DramConfig::tiny()).replay(&trace);
        assert_eq!(per_access, batch);
    }

    #[test]
    fn compressed_replay_honours_repeat() {
        let g = DramGeometry::tiny();
        let one_pass = CompressedTrace::sequential_reads(&g, 24);
        let mut three_passes = CompressedTrace::new();
        for _ in 0..3 {
            three_passes.extend(one_pass.iter());
        }
        let compressed = one_pass.with_repeat(3);
        let per_access = DramModel::new(DramConfig::tiny()).replay(&three_passes.expand());
        let batch = DramModel::new(DramConfig::tiny()).replay(&compressed);
        assert_eq!(per_access, batch);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let g = DramGeometry::tiny();
        let trace = CompressedTrace::sequential_reads(&g, 8);
        let mut m = model();
        let first = m.replay(&trace);
        m.reset();
        let second = m.replay(&trace);
        assert_eq!(first, second);
    }

    #[test]
    fn kinds_align_with_trace() {
        let g = DramGeometry::tiny();
        let trace = CompressedTrace::sequential_reads(&g, 5);
        let out = model().replay_with_kinds(&trace);
        let kinds = out.kinds.expect("kinds were requested");
        assert_eq!(kinds.len(), 5);
        assert_eq!(kinds[0], AccessKind::Miss);
        assert!(kinds[1..].iter().all(|k| *k == AccessKind::Hit));
    }

    #[test]
    fn kinds_are_opt_in() {
        let g = DramGeometry::tiny();
        let trace = CompressedTrace::sequential_reads(&g, 5);
        assert!(model().replay(&trace).kinds.is_none());
        let kinds = model()
            .replay_with_kinds(&trace)
            .kinds
            .expect("kinds were requested");
        assert_eq!(kinds.len(), 5);
    }

    #[test]
    fn bus_utilisation_bounded() {
        let g = DramGeometry::tiny();
        let trace = CompressedTrace::sequential_reads(&g, 64);
        let out = model().replay(&trace);
        let u = out.latency.bus_utilisation();
        assert!(u > 0.0 && u <= 1.0);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let out = model().replay(&CompressedTrace::new());
        assert_eq!(out.stats.total(), 0);
        assert_eq!(out.latency.total_ns, 0.0);
        assert_eq!(out.latency.overlap_factor(), 1.0);
    }
}
