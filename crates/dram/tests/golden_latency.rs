//! Golden latency regression pins: exact `total_ns` / `serial_ns` /
//! `bus_busy_ns` values at `DramConfig::tiny()` for the three canonical
//! trace shapes (sequential, bank-interleaved, row-thrash).
//!
//! These are the numbers behind the Fig. 9b-style speedup comparisons;
//! timing refactors must not drift them silently. All values are exact
//! binary quarters (nominal LPDDR3 timings), so `==` on f64 is the right
//! comparison — a 1-ulp drift is a real behaviour change. Both the
//! closed-form run replay and per-access stepping of the expanded trace
//! are checked against the same pins.

use sparkxd_dram::{
    Access, AccessStats, AddressOrder, CompressedTrace, DramConfig, DramGeometry, DramModel,
    LatencyReport,
};

/// 32 reads alternating between two rows of bank 0 (worst case: every
/// access after the first is a conflict).
fn row_thrash_trace(g: &DramGeometry, n: usize) -> CompressedTrace {
    let a = g
        .linear_to_coord(0, AddressOrder::BaselineRowMajor)
        .unwrap();
    let b = g
        .linear_to_coord(g.cols_per_row as u64, AddressOrder::BaselineRowMajor)
        .unwrap();
    (0..n)
        .map(|i| Access::read(if i % 2 == 0 { a } else { b }))
        .collect()
}

fn check(trace: &CompressedTrace, golden_latency: LatencyReport, golden_stats: AccessStats) {
    let per_access = DramModel::new(DramConfig::tiny()).replay(&trace.expand());
    assert_eq!(
        per_access.latency, golden_latency,
        "per-access latency drifted"
    );
    assert_eq!(per_access.stats, golden_stats, "per-access stats drifted");

    let batch = DramModel::new(DramConfig::tiny()).replay(trace);
    assert_eq!(batch.latency, golden_latency, "batch latency drifted");
    assert_eq!(batch.stats, golden_stats, "batch stats drifted");
}

#[test]
fn sequential_64_golden() {
    let g = DramGeometry::tiny();
    // 64 columns = 8 rows of 8 in bank 0: 1 miss, 7 conflicts, 56 hits.
    check(
        &CompressedTrace::sequential_reads(&g, 64),
        LatencyReport {
            total_ns: 540.0,
            serial_ns: 1406.25,
            bus_busy_ns: 320.0,
        },
        AccessStats {
            hits: 56,
            misses: 1,
            conflicts: 7,
            reads: 64,
            writes: 0,
        },
    );
}

#[test]
fn interleaved_64_golden() {
    let g = DramGeometry::tiny();
    // Striped over 2 banks: 4 row visits per bank, ACT/PRE overlap hides
    // most of the activation cost (total well under the sequential 540).
    check(
        &CompressedTrace::interleaved_reads(&g, 64),
        LatencyReport {
            total_ns: 415.0,
            serial_ns: 1392.5,
            bus_busy_ns: 320.0,
        },
        AccessStats {
            hits: 56,
            misses: 2,
            conflicts: 6,
            reads: 64,
            writes: 0,
        },
    );
}

#[test]
fn row_thrash_32_golden() {
    let g = DramGeometry::tiny();
    // Alternating rows in one bank: every access after the first pays
    // tRAS-constrained PRE + ACT; the bus sits idle most of the time.
    check(
        &row_thrash_trace(&g, 32),
        LatencyReport {
            total_ns: 1667.75,
            serial_ns: 1466.25,
            bus_busy_ns: 160.0,
        },
        AccessStats {
            hits: 0,
            misses: 1,
            conflicts: 31,
            reads: 32,
            writes: 0,
        },
    );
}
