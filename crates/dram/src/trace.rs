//! DRAM access traces: the replayable record of column accesses produced by
//! trace generation in `sparkxd-core` and consumed by [`DramModel`].
//!
//! There is one representation, [`CompressedTrace`]: a run-length encoding
//! ([`TraceOp`]) in which a same-row burst of consecutive columns is a
//! single [`TraceOp::Run`], plus a `repeat` count for multi-pass workloads.
//! [`DramModel`] replays a run in O(1) instead of O(len).
//! [`CompressedTrace::expand`] gives the per-access form (one
//! [`TraceOp::Access`] per column), which replays access by access and is
//! the reference the run arithmetic is checked against.
//!
//! [`DramModel`]: crate::DramModel

use crate::geometry::{AddressOrder, DramCoord, DramGeometry};

/// Direction of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Read (weight fetch during inference — the dominant case).
    #[default]
    Read,
    /// Write (weight update during training).
    Write,
}

/// One column access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access {
    /// Target coordinate.
    pub coord: DramCoord,
    /// Read or write.
    pub direction: Direction,
}

impl Access {
    /// A read access to `coord`.
    pub fn read(coord: DramCoord) -> Self {
        Self {
            coord,
            direction: Direction::Read,
        }
    }

    /// A write access to `coord`.
    pub fn write(coord: DramCoord) -> Self {
        Self {
            coord,
            direction: Direction::Write,
        }
    }
}

/// One operation of a [`CompressedTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Escape hatch: a single explicit access.
    Access(Access),
    /// `len` same-direction accesses to consecutive columns of one row:
    /// `start.col`, `start.col + 1`, …, `start.col + len - 1`, all other
    /// coordinate fields fixed. Every access after the first is a
    /// guaranteed row-buffer hit, which is what lets the model replay the
    /// tail in closed form.
    Run {
        /// Coordinate of the first column of the run.
        start: DramCoord,
        /// Number of accesses (≥ 1).
        len: usize,
        /// Shared direction of every access in the run.
        direction: Direction,
    },
}

impl TraceOp {
    /// Number of accesses this op expands to.
    pub fn len(&self) -> usize {
        match self {
            TraceOp::Access(_) => 1,
            TraceOp::Run { len, .. } => *len,
        }
    }

    /// `true` only for a zero-length run (never produced by constructors).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direction shared by the op's accesses.
    pub fn direction(&self) -> Direction {
        match self {
            TraceOp::Access(a) => a.direction,
            TraceOp::Run { direction, .. } => *direction,
        }
    }

    /// The `i`-th access of the op (`i < len`).
    pub(crate) fn access_at(&self, i: usize) -> Access {
        match *self {
            TraceOp::Access(a) => a,
            TraceOp::Run {
                start,
                direction,
                len,
            } => {
                debug_assert!(i < len);
                Access {
                    coord: DramCoord {
                        col: start.col + i,
                        ..start
                    },
                    direction,
                }
            }
        }
    }
}

/// `true` when `next` is the column immediately after `prev` in the same
/// row (every other coordinate field equal).
fn follows(prev: &DramCoord, next: &DramCoord) -> bool {
    next.col == prev.col + 1
        && DramCoord {
            col: prev.col,
            ..*next
        } == *prev
}

/// Run-length compressed access trace: a sequence of [`TraceOp`]s replayed
/// `repeat` times.
///
/// [`push`](Self::push) keeps the representation *normalized* — maximal
/// runs, single accesses stored as [`TraceOp::Access`] — so collecting the
/// accesses of [`expand`](Self::expand) gives back the same trace when it
/// is normalized and `repeat == 1`.
///
/// # Example
///
/// ```
/// use sparkxd_dram::{CompressedTrace, DramGeometry};
///
/// let g = DramGeometry::tiny();
/// let c = CompressedTrace::sequential_reads(&g, 32);
/// assert_eq!(c.len(), 32);
/// assert_eq!(c.num_ops(), 4); // 4 rows of 8 columns -> 4 runs
/// let flat = c.expand();
/// assert_eq!(flat.num_ops(), 32); // one op per access
/// assert_eq!(flat.iter().collect::<CompressedTrace>(), c);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedTrace {
    ops: Vec<TraceOp>,
    repeat: usize,
}

impl Default for CompressedTrace {
    fn default() -> Self {
        Self {
            ops: Vec::new(),
            repeat: 1,
        }
    }
}

impl CompressedTrace {
    /// An empty trace (`repeat == 1`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a trace from explicit ops (not re-normalized).
    ///
    /// Coordinates are trusted: a [`TraceOp::Run`] must stay within one
    /// row (`start.col + len <= cols_per_row` for the target geometry) or
    /// the hit accounting will not correspond to any physically addressed
    /// stream. [`push`](Self::push) upholds this for valid input
    /// coordinates; use [`validate`](Self::validate) to check foreign op
    /// lists.
    ///
    /// # Panics
    ///
    /// Panics if any run has `len == 0`.
    pub fn from_ops(ops: Vec<TraceOp>) -> Self {
        assert!(
            ops.iter().all(|op| !op.is_empty()),
            "zero-length run in compressed trace"
        );
        Self { ops, repeat: 1 }
    }

    /// Checks every expanded coordinate against `geometry` — in
    /// particular that no run walks past the end of its row.
    ///
    /// # Errors
    ///
    /// The first [`DramError`](crate::DramError) found, naming the
    /// offending field.
    pub fn validate(&self, geometry: &DramGeometry) -> Result<(), crate::DramError> {
        for op in &self.ops {
            match *op {
                TraceOp::Access(a) => geometry.validate(&a.coord)?,
                TraceOp::Run { start, len, .. } => {
                    geometry.validate(&start)?;
                    // Only the last column can newly go out of range.
                    geometry.validate(&DramCoord {
                        col: start.col + (len - 1),
                        ..start
                    })?;
                }
            }
        }
        Ok(())
    }

    /// `n` reads over consecutive linear addresses in baseline row-major
    /// order — the paper's baseline weight layout (one run per row).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds device capacity.
    pub fn sequential_reads(geometry: &DramGeometry, n: usize) -> Self {
        Self::reads(geometry, n, AddressOrder::BaselineRowMajor)
    }

    /// `n` reads striped across banks (multi-bank burst pattern; bank
    /// striping defeats run merging, so this is mostly singleton ops).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds device capacity.
    pub fn interleaved_reads(geometry: &DramGeometry, n: usize) -> Self {
        Self::reads(geometry, n, AddressOrder::BankInterleaved)
    }

    fn reads(geometry: &DramGeometry, n: usize, order: AddressOrder) -> Self {
        (0..n as u64)
            .map(|addr| {
                Access::read(
                    geometry
                        .linear_to_coord(addr, order)
                        .expect("trace exceeds device capacity"),
                )
            })
            .collect()
    }

    /// Appends an access, merging it into the trailing run when it
    /// continues the same row in the same direction.
    pub fn push(&mut self, access: Access) {
        if let Some(op) = self.ops.last_mut() {
            match *op {
                TraceOp::Run {
                    start,
                    len,
                    direction,
                } if direction == access.direction
                    && follows(
                        &DramCoord {
                            col: start.col + (len - 1),
                            ..start
                        },
                        &access.coord,
                    ) =>
                {
                    *op = TraceOp::Run {
                        start,
                        len: len + 1,
                        direction,
                    };
                    return;
                }
                TraceOp::Access(prev)
                    if prev.direction == access.direction
                        && follows(&prev.coord, &access.coord) =>
                {
                    *op = TraceOp::Run {
                        start: prev.coord,
                        len: 2,
                        direction: access.direction,
                    };
                    return;
                }
                _ => {}
            }
        }
        self.ops.push(TraceOp::Access(access));
    }

    /// Sets how many times the op sequence is replayed (builder style).
    /// `0` makes the trace empty.
    pub fn with_repeat(mut self, repeat: usize) -> Self {
        self.repeat = repeat;
        self
    }

    /// Number of times the op sequence is replayed.
    pub fn repeat(&self) -> usize {
        self.repeat
    }

    /// The ops of one pass.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of ops in one pass.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Total number of accesses over all passes.
    pub fn len(&self) -> usize {
        self.repeat * self.ops.iter().map(TraceOp::len).sum::<usize>()
    }

    /// `true` when the trace expands to no accesses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over the expanded accesses in replay order (all passes).
    pub fn iter(&self) -> impl Iterator<Item = Access> + '_ {
        (0..self.repeat)
            .flat_map(move |_| self.ops.iter())
            .flat_map(|op| (0..op.len()).map(move |i| op.access_at(i)))
    }

    /// The per-access form: every access of every pass as its own
    /// [`TraceOp::Access`] (`repeat == 1`, not normalized). Replaying it
    /// steps each access through the bank state machine, which makes it
    /// the reference for the closed-form run arithmetic.
    pub fn expand(&self) -> Self {
        Self::from_ops(self.iter().map(TraceOp::Access).collect())
    }
}

impl FromIterator<Access> for CompressedTrace {
    fn from_iter<T: IntoIterator<Item = Access>>(iter: T) -> Self {
        let mut c = Self::new();
        for a in iter {
            c.push(a);
        }
        c
    }
}

impl Extend<Access> for CompressedTrace {
    fn extend<T: IntoIterator<Item = Access>>(&mut self, iter: T) {
        for a in iter {
            self.push(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads_stay_in_one_row_first() {
        let g = DramGeometry::tiny();
        let t = CompressedTrace::sequential_reads(&g, g.cols_per_row);
        let rows: std::collections::HashSet<_> =
            t.iter().map(|a| (a.coord.bank, a.coord.row)).collect();
        assert_eq!(rows.len(), 1, "first row's worth of accesses share a row");
    }

    #[test]
    fn interleaved_reads_touch_multiple_banks_immediately() {
        let g = DramGeometry::tiny();
        let t = CompressedTrace::interleaved_reads(&g, g.banks);
        let banks: std::collections::HashSet<_> = t.iter().map(|a| a.coord.bank).collect();
        assert_eq!(banks.len(), g.banks);
    }

    #[test]
    fn collect_and_extend() {
        let g = DramGeometry::tiny();
        let c = g
            .linear_to_coord(0, AddressOrder::BaselineRowMajor)
            .unwrap();
        let mut t: CompressedTrace = vec![Access::read(c)].into_iter().collect();
        t.extend(vec![Access::write(c)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.ops()[1].direction(), Direction::Write);
    }

    #[test]
    fn compress_merges_sequential_columns_into_runs() {
        let g = DramGeometry::tiny();
        let c = CompressedTrace::sequential_reads(&g, 3 * g.cols_per_row);
        assert_eq!(c.num_ops(), 3, "one run per row");
        assert_eq!(c.len(), 3 * g.cols_per_row);
        for op in c.ops() {
            assert!(matches!(op, TraceOp::Run { len, .. } if *len == g.cols_per_row));
        }
    }

    #[test]
    fn compress_expand_is_lossless() {
        let g = DramGeometry::tiny();
        for c in [
            CompressedTrace::sequential_reads(&g, 19),
            CompressedTrace::interleaved_reads(&g, 19).with_repeat(2),
            CompressedTrace::new(),
        ] {
            let flat = c.expand();
            assert_eq!(flat.num_ops(), c.len(), "one op per access");
            assert!(flat.ops().iter().all(|op| matches!(op, TraceOp::Access(_))));
            assert!(flat.iter().eq(c.iter()));
        }
    }

    #[test]
    fn compress_of_expand_is_identity_on_normalized_traces() {
        let g = DramGeometry::tiny();
        let c = CompressedTrace::sequential_reads(&g, 21);
        assert_eq!(c.expand().iter().collect::<CompressedTrace>(), c);
        let i = CompressedTrace::interleaved_reads(&g, 13);
        assert_eq!(i.expand().iter().collect::<CompressedTrace>(), i);
    }

    #[test]
    fn direction_change_breaks_a_run() {
        let g = DramGeometry::tiny();
        let c0 = g
            .linear_to_coord(0, AddressOrder::BaselineRowMajor)
            .unwrap();
        let c1 = g
            .linear_to_coord(1, AddressOrder::BaselineRowMajor)
            .unwrap();
        let c2 = g
            .linear_to_coord(2, AddressOrder::BaselineRowMajor)
            .unwrap();
        let c: CompressedTrace = [Access::read(c0), Access::read(c1), Access::write(c2)]
            .into_iter()
            .collect();
        assert_eq!(c.num_ops(), 2);
        assert_eq!(c.ops()[0].len(), 2);
        assert_eq!(c.ops()[1].direction(), Direction::Write);
    }

    #[test]
    fn repeat_multiplies_len_and_iteration() {
        let g = DramGeometry::tiny();
        let c = CompressedTrace::sequential_reads(&g, 10).with_repeat(3);
        assert_eq!(c.len(), 30);
        let acc: Vec<Access> = c.iter().collect();
        assert_eq!(acc.len(), 30);
        assert_eq!(acc[0], acc[10], "passes repeat the same accesses");
        assert_eq!(c.expand().len(), 30);
        assert!(!c.is_empty());
        assert!(c.clone().with_repeat(0).is_empty());
    }

    #[test]
    fn iteration_order_matches_expansion() {
        let g = DramGeometry::tiny();
        let c = CompressedTrace::sequential_reads(&g, 17);
        for (addr, a) in c.iter().enumerate() {
            let coord = g
                .linear_to_coord(addr as u64, AddressOrder::BaselineRowMajor)
                .unwrap();
            assert_eq!(a, Access::read(coord));
        }
        assert_eq!(c.iter().count(), 17);
    }

    #[test]
    fn empty_compressed_trace() {
        let c = CompressedTrace::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.repeat(), 1);
        assert_eq!(c.iter().count(), 0);
        assert!(c.expand().is_empty());
    }

    #[test]
    #[should_panic(expected = "zero-length run")]
    fn zero_length_run_is_rejected() {
        let _ = CompressedTrace::from_ops(vec![TraceOp::Run {
            start: DramCoord::default(),
            len: 0,
            direction: Direction::Read,
        }]);
    }

    #[test]
    fn validate_catches_row_crossing_runs() {
        let g = DramGeometry::tiny();
        let ok = CompressedTrace::sequential_reads(&g, 3 * g.cols_per_row);
        assert!(ok.validate(&g).is_ok());
        let crossing = CompressedTrace::from_ops(vec![TraceOp::Run {
            start: DramCoord::default(),
            len: g.cols_per_row + 1,
            direction: Direction::Read,
        }]);
        assert!(crossing.validate(&g).is_err());
    }
}
