//! Exhaustive tests for the row-buffer state machine (paper Sec. II-B1):
//! every (state, input) pair of the classification automaton, plus the
//! interaction between per-bank states inside the full `DramModel`.

use sparkxd_dram::{
    Access, AccessKind, BankState, CompressedTrace, DramConfig, DramCoord, DramModel, TraceOp,
};

/// The accesses in order, one op each, exactly as given.
fn per_access(accesses: Vec<Access>) -> CompressedTrace {
    CompressedTrace::from_ops(accesses.into_iter().map(TraceOp::Access).collect())
}

fn coord(bank: usize, subarray: usize, row: usize, col: usize) -> DramCoord {
    DramCoord {
        channel: 0,
        rank: 0,
        chip: 0,
        bank,
        subarray,
        row,
        col,
    }
}

/// Every transition of the two-state automaton (closed / row R open):
///
/// | state      | input       | kind     | next state |
/// |------------|-------------|----------|------------|
/// | closed     | access(r)   | Miss     | open(r)    |
/// | open(r)    | access(r)   | Hit      | open(r)    |
/// | open(r)    | access(s≠r) | Conflict | open(s)    |
/// | any        | precharge   | —        | closed     |
#[test]
fn full_transition_table() {
    // closed --access(r)--> Miss, opens r
    let mut b = BankState::new();
    assert_eq!(b.open_row(), None);
    assert_eq!(b.access(3), AccessKind::Miss);
    assert_eq!(b.open_row(), Some(3));

    // open(r) --access(r)--> Hit, stays open(r)
    assert_eq!(b.access(3), AccessKind::Hit);
    assert_eq!(b.open_row(), Some(3));

    // open(r) --access(s)--> Conflict, switches to open(s)
    assert_eq!(b.access(5), AccessKind::Conflict);
    assert_eq!(b.open_row(), Some(5));

    // any --precharge--> closed; next access is a Miss again
    b.precharge();
    assert_eq!(b.open_row(), None);
    assert_eq!(b.access(5), AccessKind::Miss);

    // precharge on an already-closed bank is idempotent
    let mut closed = BankState::new();
    closed.precharge();
    assert_eq!(closed.open_row(), None);
    assert_eq!(closed.access(0), AccessKind::Miss);
}

#[test]
fn hit_runs_of_any_length_never_change_state() {
    let mut b = BankState::new();
    b.access(9);
    for _ in 0..1000 {
        assert_eq!(b.access(9), AccessKind::Hit);
        assert_eq!(b.open_row(), Some(9));
    }
}

#[test]
fn alternating_rows_conflict_every_time() {
    let mut b = BankState::new();
    assert_eq!(b.access(0), AccessKind::Miss);
    for i in 1..100 {
        assert_eq!(b.access(i % 2), AccessKind::Conflict);
    }
}

/// Classification counts for a known access pattern must be exact, not just
/// plausible: row-sequential streaming yields one row-opening per touched
/// row and hits for every other column.
#[test]
fn sequential_stream_counts_exactly() {
    let config = DramConfig::tiny();
    let cols_per_row = config.geometry.cols_per_row; // 8 in tiny
    let accesses = 8 * cols_per_row; // exactly 8 full rows
    let trace = CompressedTrace::sequential_reads(&config.geometry, accesses);
    let outcome = DramModel::new(config).replay(&trace);
    let rows_touched = (accesses / cols_per_row) as u64;
    assert_eq!(outcome.stats.total(), accesses as u64);
    assert_eq!(
        outcome.stats.hits,
        accesses as u64 - rows_touched,
        "all non-first columns of each row must hit"
    );
    assert_eq!(
        outcome.stats.misses + outcome.stats.conflicts,
        rows_touched,
        "each row boundary costs exactly one miss or conflict"
    );
}

/// Banks keep independent row buffers: a pattern that alternates between
/// two rows conflicts on every access when forced through one bank, but
/// runs at full hit rate when the rows live in different banks.
#[test]
fn banks_are_independent_state_machines() {
    let config = DramConfig::tiny();

    let interleaved: Vec<Access> = (0..10)
        .map(|i| Access::read(coord(i % 2, 0, i % 2, 0)))
        .collect();
    let out = DramModel::new(config.clone()).replay(&per_access(interleaved));
    assert_eq!(out.stats.misses, 2);
    assert_eq!(out.stats.hits, 8);
    assert_eq!(out.stats.conflicts, 0);

    let serial: Vec<Access> = (0..10)
        .map(|i| Access::read(coord(0, 0, i % 2, 0)))
        .collect();
    let out = DramModel::new(config).replay(&per_access(serial));
    assert_eq!(out.stats.misses, 1);
    assert_eq!(out.stats.conflicts, 9);
    assert_eq!(out.stats.hits, 0);
}

/// Rows in *different subarrays* of the same bank still share one row
/// buffer: switching subarrays is a conflict, not a fresh miss.
#[test]
fn subarray_switch_within_bank_conflicts() {
    let config = DramConfig::tiny();
    let accesses = vec![
        Access::read(coord(0, 0, 0, 0)),
        Access::read(coord(0, 1, 0, 0)),
        Access::read(coord(0, 2, 0, 0)),
    ];
    let out = DramModel::new(config).replay(&per_access(accesses));
    assert_eq!(out.stats.misses, 1);
    assert_eq!(out.stats.conflicts, 2);
}

/// The replayed classification must order per-access kinds exactly as the
/// constructed sequence dictates: miss, hit, conflict.
#[test]
fn constructed_sequence_classifies_miss_hit_conflict() {
    let config = DramConfig::tiny();
    let accesses = vec![
        Access::read(coord(0, 0, 0, 0)), // closed bank: miss
        Access::read(coord(0, 0, 0, 1)), // same row, next col: hit
        Access::read(coord(0, 0, 1, 0)), // different row: conflict
    ];
    let out = DramModel::new(config).replay(&per_access(accesses));
    assert_eq!(out.stats.misses, 1);
    assert_eq!(out.stats.hits, 1);
    assert_eq!(out.stats.conflicts, 1);
    // Stats identities the energy model relies on: one ACT per opened row,
    // one PRE per conflict.
    assert_eq!(out.stats.activates(), 2);
    assert_eq!(out.stats.precharges(), 1);
}
