//! DRAM mapping policies (paper Section IV-D, Algorithm 2).
//!
//! A *mapping* is the ordered list of DRAM burst columns that hold the
//! weight image. From it we derive both the inference access trace (for the
//! DRAM/energy models) and the per-word physical placements (for error
//! injection).

use crate::CoreError;
use sparkxd_dram::{Access, AddressOrder, CompressedTrace, DramCoord, DramGeometry, SubarrayId};
use sparkxd_error::{ErrorProfile, WordPlacement};
use sparkxd_snn::WeightPrecision;

/// An ordered assignment of burst columns to the weight image.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    policy: &'static str,
    geometry: DramGeometry,
    columns: Vec<DramCoord>,
    precision: WeightPrecision,
}

impl Mapping {
    /// Builds a mapping from explicit columns, storing FP32 words. For a
    /// packed quantised image, chain [`with_precision`](Self::with_precision).
    pub fn from_columns(
        policy: &'static str,
        geometry: DramGeometry,
        columns: Vec<DramCoord>,
    ) -> Self {
        Self {
            policy,
            geometry,
            columns,
            precision: WeightPrecision::Fp32,
        }
    }

    /// Re-tags the mapping with the word width of the image it holds —
    /// the columns are unchanged, but capacity, placements and bit
    /// offsets follow the precision's
    /// [`bytes_per_word`](WeightPrecision::bytes_per_word).
    pub fn with_precision(mut self, precision: WeightPrecision) -> Self {
        self.precision = precision;
        self
    }

    /// Word width of the stored image.
    pub fn precision(&self) -> WeightPrecision {
        self.precision
    }

    /// Name of the policy that produced this mapping.
    pub fn policy(&self) -> &'static str {
        self.policy
    }

    /// The geometry the mapping targets.
    pub fn geometry(&self) -> &DramGeometry {
        &self.geometry
    }

    /// Mapped columns in streaming order.
    pub fn columns(&self) -> &[DramCoord] {
        &self.columns
    }

    /// Number of mapped columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// `true` if no columns are mapped.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Read trace streaming the whole weight image once (one inference
    /// pass in the paper's system model), emitted directly in run-length
    /// compressed form: the baseline and SparkXD orders fill rows
    /// column-by-column, so the trace collapses to one op per row visit.
    /// Use [`CompressedTrace::expand`] when per-access form is needed.
    pub fn read_trace(&self) -> CompressedTrace {
        self.columns.iter().map(|&c| Access::read(c)).collect()
    }

    /// Number of weight words per burst column at this mapping's word
    /// width (e.g. 4 for FP32 / 16 for int8 at 16-byte columns).
    pub fn words_per_column(&self) -> usize {
        self.geometry.col_bytes / self.precision.bytes_per_word()
    }

    /// Physical placement of each of the first `n_words` weight words.
    ///
    /// # Panics
    ///
    /// Panics if `n_words` exceeds the mapped capacity.
    pub fn placements(&self, n_words: usize) -> Vec<WordPlacement> {
        let wpc = self.words_per_column();
        assert!(
            n_words <= self.columns.len() * wpc,
            "mapping holds {} words, {} requested",
            self.columns.len() * wpc,
            n_words
        );
        (0..n_words)
            .map(|w| {
                let coord = &self.columns[w / wpc];
                let word_in_col = w % wpc;
                let subarray = self.geometry.subarray_id(coord);
                WordPlacement {
                    subarray,
                    global_row: (subarray.0 * self.geometry.rows_per_subarray + coord.row) as u64,
                    bit_offset_in_row: (coord.col * self.geometry.col_bytes * 8
                        + word_in_col * self.precision.word_bits() as usize)
                        as u32,
                }
            })
            .collect()
    }

    /// Distinct subarrays used by the mapping.
    pub fn subarrays_used(&self) -> Vec<SubarrayId> {
        let mut ids: Vec<SubarrayId> = self
            .columns
            .iter()
            .map(|c| self.geometry.subarray_id(c))
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }
}

/// A policy for placing the weight image into DRAM.
pub trait MappingPolicy {
    /// Short policy name used in reports.
    fn name(&self) -> &'static str;

    /// Maps `n_columns` burst columns, honouring the per-subarray error
    /// `profile` and the model's maximum tolerable BER `ber_threshold`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InsufficientSafeCapacity`] if the eligible subarrays
    /// cannot hold the image.
    fn map(
        &self,
        n_columns: usize,
        geometry: &DramGeometry,
        profile: &ErrorProfile,
        ber_threshold: f64,
    ) -> Result<Mapping, CoreError>;
}

/// The paper's baseline: weights fill subsequent addresses of a bank
/// (row-major), spilling into the next bank — maximising burst locality but
/// ignoring the error profile entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BaselineMapping;

impl MappingPolicy for BaselineMapping {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn map(
        &self,
        n_columns: usize,
        geometry: &DramGeometry,
        _profile: &ErrorProfile,
        _ber_threshold: f64,
    ) -> Result<Mapping, CoreError> {
        let capacity = geometry.capacity_cols() as usize;
        if n_columns > capacity {
            return Err(CoreError::InsufficientSafeCapacity {
                needed: n_columns,
                available: capacity,
            });
        }
        let columns = (0..n_columns as u64)
            .map(|a| {
                geometry
                    .linear_to_coord(a, AddressOrder::BaselineRowMajor)
                    .expect("bounded by capacity check")
            })
            .collect();
        Ok(Mapping::from_columns(self.name(), *geometry, columns))
    }
}

/// The SparkXD mapping of Algorithm 2: only subarrays whose error rate is
/// at or below `BER_th` are used; within the eligible set, columns of the
/// same row are filled first (row-buffer hits) and rows are visited across
/// banks (multi-bank burst), exactly following the paper's loop nest
/// `ch → ra → cp → ro → su → ba → co`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparkXdMapping;

impl MappingPolicy for SparkXdMapping {
    fn name(&self) -> &'static str {
        "sparkxd"
    }

    fn map(
        &self,
        n_columns: usize,
        geometry: &DramGeometry,
        profile: &ErrorProfile,
        ber_threshold: f64,
    ) -> Result<Mapping, CoreError> {
        let g = geometry;
        let mut columns = Vec::with_capacity(n_columns);
        'outer: for ch in 0..g.channels {
            for ra in 0..g.ranks {
                for cp in 0..g.chips {
                    for ro in 0..g.rows_per_subarray {
                        for su in 0..g.subarrays_per_bank {
                            for ba in 0..g.banks {
                                let probe = DramCoord {
                                    channel: ch,
                                    rank: ra,
                                    chip: cp,
                                    bank: ba,
                                    subarray: su,
                                    row: ro,
                                    col: 0,
                                };
                                let rate = profile.ber(g.subarray_id(&probe));
                                if rate > ber_threshold {
                                    continue; // unsafe subarray (Alg. 2 line 7)
                                }
                                for co in 0..g.cols_per_row {
                                    columns.push(DramCoord { col: co, ..probe });
                                    if columns.len() == n_columns {
                                        break 'outer;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if columns.len() < n_columns {
            return Err(CoreError::InsufficientSafeCapacity {
                needed: n_columns,
                available: columns.len(),
            });
        }
        Ok(Mapping::from_columns(self.name(), *g, columns))
    }
}

/// Ablation policy: restricts placement to safe subarrays like SparkXD but
/// keeps the baseline row-major order within them (no bank striping) —
/// isolates how much of SparkXD's throughput comes from the multi-bank
/// burst exploitation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SafeSequentialMapping;

impl MappingPolicy for SafeSequentialMapping {
    fn name(&self) -> &'static str {
        "safe-sequential"
    }

    fn map(
        &self,
        n_columns: usize,
        geometry: &DramGeometry,
        profile: &ErrorProfile,
        ber_threshold: f64,
    ) -> Result<Mapping, CoreError> {
        let g = geometry;
        let mut columns = Vec::with_capacity(n_columns);
        'outer: for ch in 0..g.channels {
            for ra in 0..g.ranks {
                for cp in 0..g.chips {
                    for ba in 0..g.banks {
                        for su in 0..g.subarrays_per_bank {
                            let probe = DramCoord {
                                channel: ch,
                                rank: ra,
                                chip: cp,
                                bank: ba,
                                subarray: su,
                                row: 0,
                                col: 0,
                            };
                            if profile.ber(g.subarray_id(&probe)) > ber_threshold {
                                continue;
                            }
                            for ro in 0..g.rows_per_subarray {
                                for co in 0..g.cols_per_row {
                                    columns.push(DramCoord {
                                        row: ro,
                                        col: co,
                                        ..probe
                                    });
                                    if columns.len() == n_columns {
                                        break 'outer;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if columns.len() < n_columns {
            return Err(CoreError::InsufficientSafeCapacity {
                needed: n_columns,
                available: columns.len(),
            });
        }
        Ok(Mapping::from_columns(self.name(), *g, columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sparkxd_dram::DramGeometry;

    fn tiny() -> DramGeometry {
        DramGeometry::tiny()
    }

    fn uniform_profile(g: &DramGeometry, ber: f64) -> ErrorProfile {
        ErrorProfile::uniform(ber, g.total_subarrays())
    }

    #[test]
    fn baseline_maps_sequentially() {
        let g = tiny();
        let p = uniform_profile(&g, 1e-4);
        let m = BaselineMapping.map(20, &g, &p, 1e-9).unwrap();
        assert_eq!(m.len(), 20);
        // First row fills before the second row starts.
        assert!(m.columns()[..8].iter().all(|c| c.row == 0 && c.bank == 0));
        assert_eq!(m.columns()[8].row, 1);
    }

    #[test]
    fn sparkxd_skips_unsafe_subarrays() {
        let g = tiny();
        // Subarrays alternate safe/unsafe.
        let rates: Vec<f64> = (0..g.total_subarrays())
            .map(|i| if i % 2 == 0 { 1e-8 } else { 1e-2 })
            .collect();
        let p = ErrorProfile::from_rates(1e-5, rates);
        let m = SparkXdMapping.map(32, &g, &p, 1e-5).unwrap();
        for c in m.columns() {
            let id = g.subarray_id(c);
            assert_eq!(id.0 % 2, 0, "column {c} placed in unsafe subarray");
        }
    }

    #[test]
    fn sparkxd_stripes_across_banks() {
        let g = tiny();
        let p = uniform_profile(&g, 1e-8);
        // Two rows' worth of columns must span both banks.
        let m = SparkXdMapping
            .map(g.cols_per_row * 2, &g, &p, 1e-5)
            .unwrap();
        let banks: std::collections::HashSet<_> = m.columns().iter().map(|c| c.bank).collect();
        assert_eq!(banks.len(), 2, "expected both banks used");
        // Within one row's worth, the columns share a (bank, row) pair.
        let first = &m.columns()[..g.cols_per_row];
        assert!(first
            .iter()
            .all(|c| c.bank == first[0].bank && c.row == first[0].row));
    }

    #[test]
    fn insufficient_safe_capacity_is_an_error() {
        let g = tiny();
        // Everything unsafe.
        let p = uniform_profile(&g, 1e-2);
        let err = SparkXdMapping.map(8, &g, &p, 1e-5);
        assert!(matches!(
            err,
            Err(CoreError::InsufficientSafeCapacity { available: 0, .. })
        ));
    }

    #[test]
    fn baseline_rejects_oversized_image() {
        let g = tiny();
        let p = uniform_profile(&g, 0.0);
        let cap = g.capacity_cols() as usize;
        assert!(BaselineMapping.map(cap + 1, &g, &p, 1.0).is_err());
        assert!(BaselineMapping.map(cap, &g, &p, 1.0).is_ok());
    }

    #[test]
    fn placements_are_consistent_with_columns() {
        let g = tiny();
        let p = uniform_profile(&g, 1e-8);
        let m = SparkXdMapping.map(4, &g, &p, 1e-5).unwrap();
        let wpc = m.words_per_column();
        let placements = m.placements(4 * wpc);
        assert_eq!(placements.len(), 4 * wpc);
        // Words of the same column share a subarray and row.
        for w in 0..wpc {
            assert_eq!(placements[w].subarray, placements[0].subarray);
            assert_eq!(placements[w].global_row, placements[0].global_row);
        }
        // Bit offsets advance by 32 within a column.
        assert_eq!(
            placements[1].bit_offset_in_row,
            placements[0].bit_offset_in_row + 32
        );
    }

    #[test]
    fn precision_scales_words_per_column_and_bit_offsets() {
        let g = tiny();
        let p = uniform_profile(&g, 1e-8);
        let f32_map = SparkXdMapping.map(4, &g, &p, 1e-5).unwrap();
        assert_eq!(f32_map.precision(), WeightPrecision::Fp32);
        assert_eq!(f32_map.words_per_column(), g.col_bytes / 4);

        let int8_map = f32_map.clone().with_precision(WeightPrecision::Int8);
        assert_eq!(int8_map.words_per_column(), g.col_bytes);
        assert_eq!(
            int8_map.words_per_column(),
            4 * f32_map.words_per_column(),
            "int8 packs 4× the words per burst column"
        );
        // Same columns, so the same trace — only the word geometry shifts.
        assert_eq!(int8_map.columns(), f32_map.columns());

        let placements = int8_map.placements(4 * int8_map.words_per_column());
        assert_eq!(
            placements[1].bit_offset_in_row,
            placements[0].bit_offset_in_row + 8,
            "int8 words step by 8 bitlines"
        );
        // A full column's worth of words shares its subarray and row.
        let wpc = int8_map.words_per_column();
        for w in 0..wpc {
            assert_eq!(placements[w].subarray, placements[0].subarray);
            assert_eq!(placements[w].global_row, placements[0].global_row);
        }
        // The capacity check follows the packed width: 4 columns hold
        // 4×wpc int8 words, one more panics.
        let result = std::panic::catch_unwind(|| int8_map.placements(4 * wpc + 1));
        assert!(result.is_err());
    }

    #[test]
    fn safe_sequential_also_respects_threshold() {
        let g = tiny();
        let rates: Vec<f64> = (0..g.total_subarrays())
            .map(|i| if i == 0 { 1e-8 } else { 1e-2 })
            .collect();
        let p = ErrorProfile::from_rates(1e-5, rates);
        let m = SafeSequentialMapping
            .map(g.cols_per_row * 2, &g, &p, 1e-5)
            .unwrap();
        assert!(m.columns().iter().all(|c| g.subarray_id(c).0 == 0));
    }

    #[test]
    fn read_trace_covers_all_columns_in_order() {
        let g = tiny();
        let p = uniform_profile(&g, 1e-8);
        let m = BaselineMapping.map(10, &g, &p, 1.0).unwrap();
        let t = m.read_trace();
        assert_eq!(t.len(), 10);
        assert_eq!(t.iter().nth(3).unwrap().coord, m.columns()[3]);
        // Sequential columns collapse into runs: 10 columns over rows of 8
        // is two ops, not ten.
        assert_eq!(t.num_ops(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn sparkxd_never_places_in_unsafe_subarrays(seed in 0u64..500, n in 1usize..64) {
            let g = tiny();
            let map = sparkxd_error::WeakCellMap::generate(&g, seed);
            let p = map.profile(1e-5);
            let threshold = 2e-5;
            if let Ok(m) = SparkXdMapping.map(n, &g, &p, threshold) {
                for c in m.columns() {
                    prop_assert!(p.ber(g.subarray_id(c)) <= threshold);
                }
            }
        }

        #[test]
        fn mapped_columns_are_unique(n in 1usize..128) {
            let g = tiny();
            let p = uniform_profile(&g, 1e-8);
            let m = SparkXdMapping.map(n, &g, &p, 1e-5).unwrap();
            let mut set = std::collections::HashSet::new();
            for c in m.columns() {
                prop_assert!(set.insert(*c), "duplicate column {c}");
            }
        }
    }
}
