//! Replay-oracle property suite: replaying a trace, `replay(&t)`, must
//! agree **bit for bit** with stepping its accesses one by one,
//! `replay(&t.expand())`, on `AccessStats`, `LatencyReport`, and — when
//! requested — per-access `kinds`, for arbitrary mixed traces.
//!
//! Traces are generated from a seeded RNG as a mix of the shapes the
//! mapping layer produces (long same-row runs) and adversarial fillers
//! (random single accesses, row thrash, direction flips), so both the
//! closed-form run arithmetic and the escape-hatch path are exercised in
//! every interleaving. `DramConfig::tiny()` uses the nominal LPDDR3
//! timings, which are exact binary quarters — every f64 operation on both
//! sides is exact, so strict equality is the right assertion.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkxd_dram::{Access, CompressedTrace, DramConfig, DramCoord, DramGeometry, DramModel};

/// Random mixed trace over the tiny geometry: sequential runs (possibly
/// wrapping rows), random jumps, and read/write mixes. Built by `push`,
/// so same-row bursts merge into runs.
fn random_trace(seed: u64, segments: usize) -> CompressedTrace {
    let g = DramGeometry::tiny();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut trace = CompressedTrace::new();
    for _ in 0..segments {
        let coord = DramCoord {
            channel: 0,
            rank: 0,
            chip: 0,
            bank: rng.gen_range(0..g.banks),
            subarray: rng.gen_range(0..g.subarrays_per_bank),
            row: rng.gen_range(0..g.rows_per_subarray),
            col: rng.gen_range(0..g.cols_per_row),
        };
        let write = rng.gen_range(0..4u32) == 0;
        let mk = |c| {
            if write {
                Access::write(c)
            } else {
                Access::read(c)
            }
        };
        match rng.gen_range(0..3u32) {
            // A same-row sequential burst from `coord` (run structure).
            0 => {
                let len = rng.gen_range(1..=(g.cols_per_row - coord.col));
                for i in 0..len {
                    trace.push(mk(DramCoord {
                        col: coord.col + i,
                        ..coord
                    }));
                }
            }
            // Row thrash: alternate `coord`'s row with another row of the
            // same bank (conflicts; defeats run merging).
            1 => {
                let other = DramCoord {
                    row: (coord.row + 1) % g.rows_per_subarray,
                    ..coord
                };
                for i in 0..rng.gen_range(1..6usize) {
                    trace.push(mk(if i % 2 == 0 { coord } else { other }));
                }
            }
            // A lone access.
            _ => trace.push(mk(coord)),
        }
    }
    trace
}

fn model() -> DramModel {
    DramModel::new(DramConfig::tiny())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The archetype headline: the closed-form run replay ≡ per-access
    /// stepping on stats and latency, bit for bit.
    #[test]
    fn compressed_replay_is_bit_identical_to_per_access(seed in 0u64..10_000, segments in 1usize..40) {
        let trace = random_trace(seed, segments);
        let reference = model().replay(&trace.expand());
        let batch = model().replay(&trace);
        prop_assert_eq!(&batch.stats, &reference.stats);
        // f64 equality is intentional: this is the bit-identity claim.
        prop_assert_eq!(batch.latency.total_ns, reference.latency.total_ns);
        prop_assert_eq!(batch.latency.serial_ns, reference.latency.serial_ns);
        prop_assert_eq!(batch.latency.bus_busy_ns, reference.latency.bus_busy_ns);
    }

    /// With kinds requested, the per-access classifications align too.
    #[test]
    fn compressed_kinds_align_with_per_access(seed in 0u64..10_000, segments in 1usize..24) {
        let trace = random_trace(seed, segments);
        let reference = model().replay_with_kinds(&trace.expand());
        let batch = model().replay_with_kinds(&trace);
        prop_assert_eq!(&batch, &reference);
        let kinds = batch.kinds.as_ref().expect("kinds requested");
        prop_assert_eq!(kinds.len(), trace.len());
    }

    /// `repeat` passes equal materialized per-pass copies.
    #[test]
    fn repeat_matches_materialized_passes(seed in 0u64..10_000, segments in 1usize..12, passes in 1usize..5) {
        let one_pass = random_trace(seed, segments);
        let mut materialized = CompressedTrace::new();
        for _ in 0..passes {
            materialized.extend(one_pass.iter());
        }
        let compressed = one_pass.with_repeat(passes);
        prop_assert_eq!(compressed.len(), materialized.len());
        let reference = model().replay_with_kinds(&materialized.expand());
        let batch = model().replay_with_kinds(&compressed);
        prop_assert_eq!(batch, reference);
    }

    /// Compression round-trips: expansion keeps every access in order,
    /// and collecting the expansion back is the identity on normalized
    /// traces.
    #[test]
    fn compress_expand_roundtrip(seed in 0u64..10_000, segments in 1usize..30) {
        let trace = random_trace(seed, segments);
        let flat = trace.expand();
        prop_assert_eq!(flat.num_ops(), trace.len());
        prop_assert!(flat.iter().eq(trace.iter()));
        prop_assert_eq!(&flat.iter().collect::<CompressedTrace>(), &trace);
        prop_assert_eq!(trace.iter().count(), trace.len());
    }
}

/// Bank state carried *across* replay calls also matches: replaying two
/// traces back to back on one model equals the concatenated trace.
#[test]
fn bank_state_carries_across_batch_replays() {
    let a = random_trace(11, 9);
    let b = random_trace(23, 9);
    let mut concatenated = a.clone();
    concatenated.extend(b.iter());

    let mut batch_model = model();
    batch_model.replay(&a);
    let second = batch_model.replay(&b);

    let mut ref_model = model();
    ref_model.replay(&a.expand());
    let ref_second = ref_model.replay(&b.expand());
    assert_eq!(second.stats, ref_second.stats);

    // And the concatenation replays identically access by access.
    let whole_batch = model().replay(&concatenated);
    let whole_ref = model().replay(&concatenated.expand());
    assert_eq!(whole_batch, whole_ref);
}
