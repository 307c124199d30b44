//! # sparkxd-dram
//!
//! Cycle-level model of a commodity DRAM device, the substrate beneath the
//! SparkXD framework's mapping and energy analyses.
//!
//! The model covers exactly what the paper (Section II-B) relies on:
//!
//! * the **organisation hierarchy** — channel / rank / chip / bank /
//!   subarray / row / column ([`DramGeometry`], [`DramCoord`]);
//! * the **row-buffer state machine** — every access is classified as a
//!   *row-buffer hit*, *miss* or *conflict* ([`AccessKind`], [`DramModel`]);
//! * **latency accounting** with voltage-scaled `tRCD`/`tRAS`/`tRP` and the
//!   **multi-bank burst** feature (ACT/PRE on one bank overlaps data bursts
//!   on others) used by the paper's mapping to keep throughput flat;
//! * replayable **access traces** and per-condition **statistics** that the
//!   `sparkxd-energy` crate turns into DRAM access energy.
//!
//! The default configuration is the paper's LPDDR3-1600 4Gb device.
//!
//! ## Trace representation & replay
//!
//! Weight streaming produces long same-row bursts, so the one trace type,
//! [`CompressedTrace`], run-length encodes them: a same-row burst of
//! consecutive columns is one [`trace::TraceOp::Run`], and a `repeat` count
//! lets multi-pass inference traces skip materializing per-pass copies.
//! [`DramModel::replay`] is the one walk: the first access of each op goes
//! through the row-buffer state machine and a run's remaining hits are
//! accounted in closed form, so a run costs O(1).
//!
//! Per-access classifications (`kinds`) are opt-in via
//! [`DramModel::replay_with_kinds`]; [`DramModel::replay`] keeps
//! [`ReplayOutcome::kinds`] as `None` so aggregate consumers skip the
//! allocation.
//!
//! [`CompressedTrace::expand`] gives the per-access form (one
//! [`trace::TraceOp::Access`] per column), and replaying it steps every
//! access through the state machine. `replay(&t)` and
//! `replay(&t.expand())` produce the same stats and latency — bit-identical
//! whenever the timing parameters are exactly representable in binary
//! (true for all JEDEC-style profiles, whose timings are multiples of a
//! quarter nanosecond); circuit-derived core timings agree to ≤ 1 ulp per
//! run. The equivalence is enforced by the replay-oracle property suite in
//! `tests/replay_oracle.rs` and pinned by `tests/golden_latency.rs`.
//!
//! ## Example
//!
//! ```
//! use sparkxd_dram::{CompressedTrace, DramConfig, DramModel};
//!
//! let config = DramConfig::lpddr3_1600_4gb();
//! // Stream 64 column bursts laid out sequentially (baseline mapping):
//! // one op per row.
//! let trace = CompressedTrace::sequential_reads(&config.geometry, 64);
//! let mut model = DramModel::new(config.clone());
//! let outcome = model.replay(&trace);
//! assert_eq!(outcome.stats.total(), 64);
//! assert!(outcome.stats.hits > outcome.stats.conflicts);
//!
//! // Same measurement stepped access by access.
//! let per_access = DramModel::new(config).replay(&trace.expand());
//! assert_eq!(per_access, outcome);
//! ```

pub mod bank;
pub mod controller;
pub mod geometry;
pub mod stats;
pub mod timing;
pub mod trace;

pub use bank::{AccessKind, BankState};
pub use controller::{DramModel, LatencyReport, ReplayOutcome};
pub use geometry::{AddressOrder, DramCoord, DramGeometry, SubarrayId};
pub use stats::AccessStats;
pub use timing::{DramConfig, DramTiming};
pub use trace::{Access, CompressedTrace, Direction, TraceOp};

/// Errors reported by the DRAM model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramError {
    /// A coordinate lies outside the configured geometry.
    CoordOutOfRange(String),
    /// A linear address exceeds device capacity.
    AddressOutOfRange {
        /// The offending linear word index.
        address: u64,
        /// Device capacity in words.
        capacity: u64,
    },
}

impl std::fmt::Display for DramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramError::CoordOutOfRange(what) => write!(f, "coordinate out of range: {what}"),
            DramError::AddressOutOfRange { address, capacity } => {
                write!(f, "address {address} exceeds capacity {capacity} words")
            }
        }
    }
}

impl std::error::Error for DramError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = DramError::AddressOutOfRange {
            address: 10,
            capacity: 5,
        };
        assert!(e.to_string().contains("exceeds capacity"));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<DramError>();
    }
}
