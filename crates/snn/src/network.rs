//! The unsupervised SNN architecture of paper Fig. 4(a): a Poisson-coded
//! input layer fully connected to an excitatory LIF layer with lateral
//! inhibition (winner-take-all competition) and STDP learning.
//!
//! The execution core is split into two halves so inference can run on many
//! threads at once:
//!
//! * [`NetworkParams`] — everything that is *frozen* during inference:
//!   configuration, the synaptic [`StoredWeights`] (the DRAM image), the
//!   derived [`EffectivePlane`] (the read-side view, rebuilt once per
//!   corruption instance) and the adaptive thresholds. Shared by reference
//!   across worker threads.
//! * [`BatchState`] — per-run scratch: SoA membrane, threshold and
//!   refractory slabs over `[B × n_neurons]` lanes plus the drive and
//!   spike buffers. Each worker owns one and reuses it across batches.
//!
//! There is one simulation core: the SoA lane step. Inference runs it
//! through [`NetworkParams::run_batch`], which presents B samples together
//! and streams each [`EffectivePlane`] row once per batch into a
//! `[B × n_neurons]` drive matrix, swept in cache-sized neuron tiles
//! ([`ExecConfig::tile`]) so the resident working set stays L1-sized at the
//! paper's N3600. Training runs the same lane step on a one-sample
//! [`BatchState`], reading the stored rows STDP rewrites every timestep.
//! Per-sample RNG streams keep inference **bit-identical** for any batch
//! size and tile width; the test suites prove it against an independent
//! per-neuron scalar oracle (`sparkxd_bench::oracle`).
//!
//! The hot inner loops (drive accumulation, LIF lane integration, the
//! inhibition sweep) run through the runtime-dispatched [`Kernel`] layer —
//! portable scalar or x86_64 AVX2, selected by [`ExecConfig::kernel`] /
//! [`BatchState::with_kernel`] — whose lanes compute the exact scalar IEEE
//! sequence, so the kernel choice never changes results either.
//!
//! [`DiehlCookNetwork`] composes the parameters with the STDP learning
//! state and keeps the training-facing API (`train_epoch`); its inference
//! entry points (`evaluate`, `label_neurons`) delegate to the
//! [`BatchEvaluator`].

use crate::coding::PoissonEncoder;
use crate::engine::{BatchEvaluator, ExecConfig, IntraChoice};
use crate::eval::NeuronLabeler;
use crate::kernels::{Kernel, KernelChoice, LifLanes};
use crate::neuron::LifConfig;
use crate::stdp::{StdpConfig, StdpState};
use crate::synapse::{EffectivePlane, StoredWeights};
use crate::SnnError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparkxd_data::Dataset;
use std::ops::Range;
use std::sync::Mutex;

/// Complete configuration of a [`DiehlCookNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnnConfig {
    /// Number of input lines (pixels); 784 for 28×28 images.
    pub n_inputs: usize,
    /// Number of excitatory neurons (the paper's N400…N3600).
    pub n_neurons: usize,
    /// Timesteps each sample is presented for.
    pub timesteps: usize,
    /// Simulation timestep (ms).
    pub dt_ms: f32,
    /// Neuron parameters.
    pub lif: LifConfig,
    /// Plasticity parameters.
    pub stdp: StdpConfig,
    /// Input spike encoder.
    pub encoder: PoissonEncoder,
    /// Lateral inhibition strength (mV per competing spike).
    pub inhibition_mv: f32,
    /// Per-neuron input-weight normalisation target.
    pub norm_target: f32,
    /// Maximum synaptic weight.
    pub w_max: f32,
    /// Clamp weight reads to `[0, w_max]` (bounded hardware synapse).
    /// Disabling exposes raw FP32 corruption (paper's MSB observation).
    pub clamp_reads: bool,
    /// Hard winner-take-all: at most one neuron (the one with the largest
    /// threshold margin) fires per timestep, sharpening specialisation.
    pub hard_wta: bool,
    /// Seed for weight initialisation.
    pub weight_seed: u64,
}

impl SnnConfig {
    /// Configuration for a network with `n_neurons` excitatory neurons and
    /// 784 inputs, with Diehl & Cook style defaults.
    pub fn for_neurons(n_neurons: usize) -> Self {
        Self {
            n_inputs: sparkxd_data::IMAGE_PIXELS,
            n_neurons,
            timesteps: 100,
            dt_ms: 1.0,
            lif: LifConfig::excitatory(),
            stdp: StdpConfig::standard(),
            encoder: PoissonEncoder::standard(),
            inhibition_mv: 50.0,
            norm_target: 78.0,
            w_max: 1.0,
            clamp_reads: true,
            hard_wta: false,
            weight_seed: 0xD1EC,
        }
    }

    /// Sets the presentation window (builder style).
    pub fn with_timesteps(mut self, timesteps: usize) -> Self {
        self.timesteps = timesteps;
        self
    }

    /// Sets the weight-initialisation seed (builder style).
    pub fn with_weight_seed(mut self, seed: u64) -> Self {
        self.weight_seed = seed;
        self
    }

    /// Enables or disables clamped weight reads (builder style).
    pub fn with_clamp_reads(mut self, clamp: bool) -> Self {
        self.clamp_reads = clamp;
        self
    }
}

/// The immutable half of a network during inference: configuration,
/// synaptic storage plus its derived read plane, and the adaptive
/// thresholds learned during training.
///
/// Inference is a pure function of `(params, samples, rngs)` — see
/// [`NetworkParams::run_batch`] — so a `&NetworkParams` can be shared by any number of worker threads, each
/// driving its own scratch.
///
/// Every mutation path ([`set_weights`](Self::set_weights),
/// [`swap_weights_rows`](Self::swap_weights_rows),
/// [`with_weights_mut`](Self::with_weights_mut)) restores the invariant
/// that the plane is a fresh derivation of the store, so readers never see
/// a stale plane.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkParams {
    config: SnnConfig,
    weights: StoredWeights,
    plane: EffectivePlane,
    thetas: Vec<f32>,
}

impl NetworkParams {
    /// Fresh parameters with randomly initialised weights and zeroed
    /// adaptive thresholds.
    pub fn new(config: SnnConfig) -> Self {
        let weights = StoredWeights::random(
            config.n_inputs,
            config.n_neurons,
            config.w_max,
            config.weight_seed,
        );
        let plane = EffectivePlane::build(&weights, config.clamp_reads);
        let thetas = vec![0.0; config.n_neurons];
        Self {
            config,
            weights,
            plane,
            thetas,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnnConfig {
        &self.config
    }

    /// The stored synaptic weights (the data SparkXD maps into DRAM).
    pub fn weights(&self) -> &StoredWeights {
        &self.weights
    }

    /// The derived read-side plane inference consumes.
    pub fn effective_plane(&self) -> &EffectivePlane {
        &self.plane
    }

    /// Replaces the weight matrix (e.g. with a corrupted copy), rebuilding
    /// the whole effective plane.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the configuration.
    pub fn set_weights(&mut self, weights: StoredWeights) {
        assert_eq!(weights.inputs(), self.config.n_inputs, "input count");
        assert_eq!(weights.neurons(), self.config.n_neurons, "neuron count");
        self.weights = weights;
        self.rebuild_plane();
    }

    /// Swaps the stored image with `other` and re-derives only the given
    /// plane rows — the corrupt-and-swap fast path: the caller guarantees
    /// the two images differ in no rows other than `rows` (extra rows are
    /// merely wasted work). Swapping back with the same row set restores
    /// both the store and the plane exactly.
    ///
    /// # Panics
    ///
    /// Panics if `other`'s shape does not match the configuration.
    pub fn swap_weights_rows(&mut self, other: &mut StoredWeights, rows: &[usize]) {
        assert_eq!(other.inputs(), self.config.n_inputs, "input count");
        assert_eq!(other.neurons(), self.config.n_neurons, "neuron count");
        std::mem::swap(&mut self.weights, other);
        self.plane.rebuild_rows(&self.weights, rows);
        debug_assert!(
            self.plane.is_consistent_with(&self.weights),
            "swap_weights_rows caller listed too few touched rows"
        );
    }

    /// Runs `mutate` on the raw DRAM image (e.g. an in-place error
    /// injection), then rebuilds the whole effective plane.
    pub fn with_weights_mut<R>(&mut self, mutate: impl FnOnce(&mut StoredWeights) -> R) -> R {
        let out = mutate(&mut self.weights);
        self.rebuild_plane();
        out
    }

    /// Re-derives the full plane from the store (training mutates storage
    /// directly and calls this once per sample/epoch boundary).
    fn rebuild_plane(&mut self) {
        self.plane = EffectivePlane::build(&self.weights, self.config.clamp_reads);
    }

    /// Adaptive-threshold values per neuron.
    pub fn thetas(&self) -> &[f32] {
        &self.thetas
    }

    /// Presents a chunk of `samples` together for `config.timesteps`
    /// steps without learning, one RNG stream per sample.
    ///
    /// Drive accumulation is batched **and neuron-tiled**: each timestep
    /// records a k-way merge of the samples' sorted active lists once
    /// (each distinct active row in ascending order, with the batch
    /// members that spiked on it; rows whose effective fan-out is all
    /// zero are skipped), then sweeps the neurons in tiles. The drive
    /// scratch is tile-major: tile `[t0, t1)` owns the contiguous
    /// `[B × (t1 − t0)]` block at `t0·B`, member `b` at offset
    /// `b·(t1 − t0)`. Within a tile, every merged row's tile slice is
    /// streamed into the drive block in one fused pass over the members
    /// that spiked on it, and the tile's membrane lanes are integrated
    /// immediately while the drive is hot — so the resident working set
    /// is the tile, not the full slab, and N3600 runs as cache-friendly
    /// as N400. Firing resolution and lateral inhibition then run per
    /// sample over the full population (hard WTA and inhibition strength
    /// are global decisions).
    ///
    /// The tile width is the state's ([`ExecConfig::tile`] or
    /// [`BatchState::with_tile`]), clamped into `[1, n_neurons]`; any
    /// width ≥ `n_neurons` is exactly the untiled single-sweep path.
    ///
    /// The tiles are split into contiguous range-jobs that write disjoint
    /// neuron lanes of every slab (and a contiguous region of the drive),
    /// run on the persistent [`WorkerPool`](crate::engine::WorkerPool)
    /// ([`ExecConfig::intra`] / [`BatchState::with_intra`]) with a barrier
    /// before the (global-per-sample) firing-commit/inhibition pass. The
    /// serial sweep is the one-job case — fewer than two tiles,
    /// [`IntraChoice::Off`] or an exhausted thread budget — and runs
    /// inline on the calling thread.
    ///
    /// Because sample `b` only ever consumes `rngs[b]`, per-sample
    /// accumulation visits rows in ascending order within every tile, and
    /// each membrane lane's arithmetic is independent of the tile
    /// partition, the returned spike counts for a sample are
    /// **bit-identical** for any batch size and any tile width — B = 1
    /// included.
    ///
    /// # Errors
    ///
    /// [`SnnError::InputSizeMismatch`] if any sample does not match the
    /// configured input size.
    ///
    /// # Panics
    ///
    /// Panics if `samples` and `rngs` have different lengths.
    pub fn run_batch(
        &self,
        state: &mut BatchState,
        samples: &[&[f32]],
        rngs: &mut [StdRng],
    ) -> Result<Vec<Vec<u32>>, SnnError> {
        assert_eq!(samples.len(), rngs.len(), "one RNG stream per sample");
        for pixels in samples {
            if pixels.len() != self.config.n_inputs {
                return Err(SnnError::InputSizeMismatch {
                    provided: pixels.len(),
                    expected: self.config.n_inputs,
                });
            }
        }
        let b_count = samples.len();
        let n = self.config.n_neurons;
        let mut counts = vec![vec![0u32; n]; b_count];
        if b_count == 0 {
            return Ok(counts);
        }
        state.begin_batch(&self.config, &self.thetas, b_count);
        let tile = state.exec.tile.min(n.max(1)).max(1);
        let kernel = state.exec.kernel.resolve();
        // Resolve the intra-chunk sweep mode once per presented chunk: the
        // worker count claims its share of the global thread budget for
        // the duration of the call (released on return), and the tile list
        // is pre-split into contiguous ranges — one deterministic
        // range-job per worker slot, no work stealing across the
        // reduction. Fewer than two tiles, `off`, or an exhausted budget
        // all leave one job over every tile, which the pool runs inline.
        let n_tiles = n.div_ceil(tile);
        let (intra_workers, _intra_budget) =
            crate::engine::intra_workers_for(state.exec.intra, state.exec.threads, n_tiles);
        let tile_jobs = crate::engine::chunk_ranges(n_tiles, intra_workers);
        let job_lanes = |tiles: &Range<usize>| tiles.start * tile..(tiles.end * tile).min(n);
        // Observation only, and counter-cheap on purpose: one span and
        // a handful of adds per presented chunk (never per timestep —
        // the tile total is `timesteps × n_tiles` computed up front).
        let _span = sparkxd_telemetry::span!("engine.run_batch");
        sparkxd_telemetry::counter_add!("engine.batch_calls", 1);
        sparkxd_telemetry::counter_add!("engine.samples", b_count);
        sparkxd_telemetry::counter_add!("engine.timesteps", self.config.timesteps);
        sparkxd_telemetry::counter_add!("engine.tiles_swept", self.config.timesteps * n_tiles);
        if tile_jobs.len() > 1 {
            sparkxd_telemetry::counter_add!("engine.intra_fanouts", 1);
            sparkxd_telemetry::gauge_max!("engine.intra_workers", tile_jobs.len());
        }
        // Per-pixel spike thresholds are a pure function of the sample:
        // compute them once per presentation instead of once per timestep.
        for (b, pixels) in samples.iter().enumerate() {
            self.config.encoder.plan(pixels, &mut state.plans[b]);
        }
        // Disjoint borrows of the scratch fields, so the tile sweep can
        // read the recorded merge while writing the drive/membrane slabs.
        let BatchState {
            v,
            theta,
            refractory,
            drive,
            active,
            plans,
            cursor,
            heads,
            merged_rows,
            member_starts,
            members_flat,
            crossed,
            any_crossed,
            fired,
            intra_any,
            ..
        } = state;
        // The drive scratch is tile-major: tile `[t0, t1)` owns
        // `drive[t0·B .. t1·B)`, with member `b` at offset `b·(t1 − t0)`.
        // Every range-job's drive is therefore one contiguous region,
        // split off once per call; a job only ever locks its own region,
        // so the locks are never contended.
        let mut rest = &mut drive[..b_count * n];
        let drive_regions: Vec<Mutex<&mut [f32]>> = tile_jobs
            .iter()
            .map(|tiles| {
                let (region, tail) =
                    std::mem::take(&mut rest).split_at_mut(job_lanes(tiles).len() * b_count);
                rest = tail;
                Mutex::new(region)
            })
            .collect();
        for _ in 0..self.config.timesteps {
            for (b, rng) in rngs.iter_mut().enumerate() {
                self.config
                    .encoder
                    .encode_planned_step(&plans[b], rng, &mut active[b]);
                cursor[b] = 0;
                heads[b] = active[b].first().copied().unwrap_or(usize::MAX);
            }
            // Record the k-way merge once per timestep: a min-scan over
            // the samples' cached head rows visits each distinct active
            // row in ascending order; live rows are pushed with the batch
            // members that spiked on them (dead rows are consumed from
            // every member's list but not recorded).
            merged_rows.clear();
            member_starts.clear();
            members_flat.clear();
            loop {
                let mut next = usize::MAX;
                for &head in &heads[..b_count] {
                    next = next.min(head);
                }
                if next == usize::MAX {
                    break;
                }
                let live = self.plane.row_live(next);
                if live {
                    merged_rows.push(next);
                    member_starts.push(members_flat.len());
                }
                for b in 0..b_count {
                    if heads[b] == next {
                        let pos = cursor[b] + 1;
                        cursor[b] = pos;
                        heads[b] = active[b].get(pos).copied().unwrap_or(usize::MAX);
                        if live {
                            members_flat.push(b);
                        }
                    }
                }
            }
            member_starts.push(members_flat.len());
            // Neuron-tile sweep: zero, accumulate and integrate one
            // `[B × tile]` drive tile at a time, split into range-jobs that
            // each own a contiguous, tile-aligned neuron-lane range of
            // every slab — disjoint writes by construction. Each job
            // records its crossing flags in its own `intra_any` slot (per
            // *job*, not per thread, so the OR-reduction below is
            // deterministic). The pool call is the barrier: firing commit
            // / inhibition below never observes a partial sweep, so
            // results are bit-identical for any split (see
            // tests/intra_invariance.rs). A single job runs inline.
            intra_any.clear();
            intra_any.resize(tile_jobs.len() * b_count, false);
            let slabs = IntraSlabs {
                v: v.as_mut_ptr(),
                theta: theta.as_mut_ptr(),
                refractory: refractory.as_mut_ptr(),
                crossed: crossed.as_mut_ptr(),
                any: intra_any.as_mut_ptr(),
            };
            let merged: &[usize] = merged_rows;
            let starts: &[usize] = member_starts;
            let flat: &[usize] = members_flat;
            let sweep = |part: usize| {
                // A job that panics poisons only its own region, and the
                // pool re-raises that panic before any later timestep.
                let mut drive = drive_regions[part]
                    .lock()
                    .expect("drive region poisoned by a panicked sweep job");
                // SAFETY: `tile_jobs` ranges are disjoint and tile-aligned,
                // so concurrent jobs touch disjoint `[b*n + lane]`
                // elements; the slab pointers cover `b_count * n` lanes
                // (`any`: jobs × b_count) and outlive the pool barrier
                // below.
                unsafe {
                    sweep_lane_range(
                        self,
                        kernel,
                        slabs,
                        &mut drive,
                        n,
                        b_count,
                        tile,
                        job_lanes(&tile_jobs[part]),
                        part,
                        merged,
                        starts,
                        flat,
                    );
                }
            };
            crate::engine::WorkerPool::global().run(
                tile_jobs.len(),
                tile_jobs.len().saturating_sub(1),
                &sweep,
            );
            for (b, any) in any_crossed.iter_mut().enumerate().take(b_count) {
                *any = (0..tile_jobs.len()).any(|p| intra_any[p * b_count + b]);
            }
            for (b, sample_counts) in counts.iter_mut().enumerate() {
                if !any_crossed[b] {
                    // No lane reached threshold: nothing fires and
                    // inhibition is a no-op for this sample this step.
                    continue;
                }
                let slab = b * n..(b + 1) * n;
                commit_firing_slab(
                    &self.config,
                    &mut v[slab.clone()],
                    &mut theta[slab.clone()],
                    &mut refractory[slab.clone()],
                    &crossed[slab.clone()],
                    fired,
                    sample_counts,
                );
                inhibit_slab(&self.config, kernel, &mut v[slab], fired);
            }
        }
        Ok(counts)
    }
}

/// Raw pointers to the sample-major slabs of the tile sweep, `Copy` so
/// every range-job captures the same view without borrowing the scratch.
///
/// Safety rests on the partition: jobs write only their own disjoint,
/// tile-aligned lane ranges (and their own `any` slot), enforced by
/// [`sweep_lane_range`]'s contract.
#[derive(Clone, Copy)]
struct IntraSlabs {
    v: *mut f32,
    theta: *mut f32,
    refractory: *mut f32,
    crossed: *mut bool,
    any: *mut bool,
}

// SAFETY: the pointers target `BatchState` slabs that outlive the pool
// barrier in `run_batch`, and concurrent jobs dereference disjoint lane
// ranges only (see `sweep_lane_range`).
unsafe impl Send for IntraSlabs {}
unsafe impl Sync for IntraSlabs {}

/// One range-job of the tile sweep: zero → accumulate → integrate over
/// `lanes` (a tile-aligned neuron-lane range), recording this job's
/// per-sample crossing flags in `any[part * b_count + b]`.
///
/// `drive` is the job's region of the tile-major drive scratch
/// (`lanes.len() * b_count` lanes), so each tile's `[B × len]` drive is
/// one contiguous chunk and every merged row makes one fused
/// multi-member accumulate per tile. Tile boundaries are global multiples
/// of `tile`, and each lane sees the merged rows in ascending order with
/// the same kernel ops, so the result is bit-identical for any range
/// split.
///
/// # Safety
///
/// Every concurrent call must receive a distinct `part` and a disjoint
/// `lanes` range; the slab pointers must cover `b_count * n` elements
/// (`any`: `parts * b_count`) and stay valid for the duration of the
/// call.
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_lane_range(
    params: &NetworkParams,
    kernel: Kernel,
    slabs: IntraSlabs,
    drive: &mut [f32],
    n: usize,
    b_count: usize,
    tile: usize,
    lanes: Range<usize>,
    part: usize,
    merged_rows: &[usize],
    member_starts: &[usize],
    members_flat: &[usize],
) {
    // Disjoint-slice reconstruction: each call builds `&mut` slices only
    // for `[b*n + t0, b*n + t1)` with `[t0, t1) ⊆ lanes`, so no two live
    // `&mut` ever alias across jobs.
    let lane_mut = |ptr: *mut f32, base: usize, len: usize| unsafe {
        std::slice::from_raw_parts_mut(ptr.add(base), len)
    };
    debug_assert_eq!(drive.len(), lanes.len() * b_count, "job drive region");
    let tiles = lanes.step_by(tile).zip(drive.chunks_mut(tile * b_count));
    for (t0, tile_drive) in tiles {
        let len = tile_drive.len() / b_count;
        let t1 = t0 + len;
        tile_drive.fill(0.0);
        for (ri, &row) in merged_rows.iter().enumerate() {
            if let Some(&next) = merged_rows.get(ri + 1) {
                // Each job hints only its own tile slice of the next row,
                // keeping the hints inside the lanes this thread streams.
                crate::kernels::prefetch_lanes(&params.plane.row(next)[t0..t1]);
            }
            // One fused pass per row: the row's tile slice stays in
            // registers across every member that spiked on it.
            let row_tile = &params.plane.row(row)[t0..t1];
            let members = &members_flat[member_starts[ri]..member_starts[ri + 1]];
            kernel.accumulate_members(tile_drive, len, members, row_tile);
        }
        for (b, drive) in tile_drive.chunks_exact(len).enumerate() {
            let base = b * n + t0;
            let any = kernel.integrate_lanes(
                &params.config.lif,
                params.config.dt_ms,
                LifLanes {
                    v: lane_mut(slabs.v, base, len),
                    theta: lane_mut(slabs.theta, base, len),
                    refractory: lane_mut(slabs.refractory, base, len),
                    drive,
                    crossed: unsafe {
                        std::slice::from_raw_parts_mut(slabs.crossed.add(base), len)
                    },
                },
            );
            if any {
                // One flag slot per (job, sample): only this job writes it.
                unsafe { *slabs.any.add(part * b_count + b) = true };
            }
        }
    }
}

/// Commits this timestep's spikes for one sample slab: under soft WTA
/// every crossing lane fires; under hard WTA only the lane with the
/// largest threshold margin does (ties keep the lowest index). Firing
/// lanes reset to `v_reset`, raise theta by `theta_plus` and enter the
/// refractory period (paper Fig. 4b).
pub(crate) fn commit_firing_slab(
    config: &SnnConfig,
    v: &mut [f32],
    theta: &mut [f32],
    refractory: &mut [f32],
    crossed: &[bool],
    fired: &mut Vec<usize>,
    counts: &mut [u32],
) {
    fired.clear();
    let lif = &config.lif;
    let mut fire =
        |j: usize, v: &mut [f32], theta: &mut [f32], refractory: &mut [f32], counts: &mut [u32]| {
            v[j] = lif.v_reset;
            theta[j] += lif.theta_plus;
            refractory[j] = lif.refractory_ms;
            fired.push(j);
            counts[j] += 1;
        };
    if config.hard_wta {
        let mut winner: Option<(usize, f32)> = None;
        for (j, &c) in crossed.iter().enumerate() {
            if c {
                // Margin above the adaptive threshold, on the
                // post-integration state.
                let margin = v[j] - (lif.v_thresh + theta[j]);
                if winner.is_none_or(|(_, best)| margin > best) {
                    winner = Some((j, margin));
                }
            }
        }
        if let Some((j, _)) = winner {
            fire(j, v, theta, refractory, counts);
        }
    } else {
        for (j, &c) in crossed.iter().enumerate() {
            if c {
                fire(j, v, theta, refractory, counts);
            }
        }
    }
}

/// Lateral inhibition over one sample slab: every non-firing lane is
/// hyperpolarised by `inhibition_mv` per spike this timestep, floored at
/// [`LifConfig::inhibition_floor`].
///
/// `fired` is sorted ascending and deduplicated (it comes from
/// [`commit_firing_slab`]'s index walk), so instead of building a dense
/// mask the sweep hands the kernel the contiguous gaps *between* winners
/// — no per-lane branch, and the kernel runs full-width on each gap.
fn inhibit_slab(config: &SnnConfig, kernel: Kernel, v: &mut [f32], fired: &[usize]) {
    if fired.is_empty() {
        return;
    }
    debug_assert!(
        fired.windows(2).all(|w| w[0] < w[1]),
        "fired list must be sorted and unique"
    );
    let strength = config.inhibition_mv * fired.len() as f32;
    let floor = config.lif.inhibition_floor();
    let mut start = 0;
    for &j in fired {
        kernel.inhibit_lanes(&mut v[start..j], strength, floor);
        start = j + 1;
    }
    kernel.inhibit_lanes(&mut v[start..], strength, floor);
}

/// Per-worker scratch of the simulation core: SoA membrane and drive
/// matrices over `[B × n_neurons]`, plus per-sample spike lists. Reused
/// across batches; `run_batch` resizes it to the presented batch, so the
/// final (short) chunk of a dataset needs no separate state, and training
/// runs on it at B = 1.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchState {
    /// Membrane potentials, sample-major (`[b * n_neurons + j]`).
    v: Vec<f32>,
    /// Adaptive-threshold working copies, sample-major.
    theta: Vec<f32>,
    /// Remaining refractory times, sample-major.
    refractory: Vec<f32>,
    /// Synaptic drive scratch, tile-major: tile `[t0, t1)` owns
    /// `[t0 * B, t1 * B)`, member `b` at offset `b * (t1 - t0)` (at B = 1,
    /// or with one tile, this is `[b * n_neurons + j]`).
    drive: Vec<f32>,
    /// Per-sample active input lines this timestep (sorted ascending).
    active: Vec<Vec<usize>>,
    /// Per-sample precomputed spike plans (non-zero pixels + thresholds).
    plans: Vec<Vec<(u32, u32)>>,
    /// Per-sample cursor into `active` for the row-merge sweep.
    cursor: Vec<usize>,
    /// Per-sample head row of `active` (`usize::MAX` when exhausted),
    /// cached flat so the merge's min-scan stays in one cache line.
    heads: Vec<usize>,
    /// The timestep's recorded merge: each distinct live active row, in
    /// ascending order, visited once per neuron tile.
    merged_rows: Vec<usize>,
    /// Offsets into `members_flat` per merged row (one trailing sentinel).
    member_starts: Vec<usize>,
    /// Flattened batch-member lists of the merged rows.
    members_flat: Vec<usize>,
    /// Threshold-crossing masks, sample-major (`[b * n_neurons + j]`) —
    /// tiles integrate lane-by-lane, firing resolves per sample after the
    /// sweep.
    crossed: Vec<bool>,
    /// Per-sample "any lane crossed this timestep" flags, OR-accumulated
    /// across tiles so quiet samples skip firing/inhibition entirely.
    any_crossed: Vec<bool>,
    /// Per-sample firing scratch (one sample resolved at a time; sorted
    /// ascending, so inhibition sweeps the gaps between winners without a
    /// dense mask).
    fired: Vec<usize>,
    /// Per-(range-job × sample) crossing flags of the tile sweep, OR-reduced into `any_crossed` after the pool barrier. One
    /// slot per *job* (not per thread), so the reduction is deterministic
    /// however the pool schedules the jobs.
    intra_any: Vec<bool>,
    /// Tile width, kernel, intra mode and the worker budget an
    /// [`IntraChoice::Auto`] sweep claims against (`batch` only sizes
    /// the scratch up front).
    exec: ExecConfig,
}

impl BatchState {
    /// Scratch pre-sized for batches of up to `exec.batch` samples of
    /// `params`, running with `exec`'s tile width, kernel, intra mode
    /// and worker budget.
    pub fn for_exec(params: &NetworkParams, exec: &ExecConfig) -> Self {
        let mut state = Self {
            exec: *exec,
            ..Self::default()
        };
        state.begin_batch(&params.config, &params.thetas, exec.batch.max(1));
        state
    }

    /// Scratch pre-sized for batches of up to `batch` samples of
    /// `params`, otherwise under [`ExecConfig::default`].
    pub fn for_params(params: &NetworkParams, batch: usize) -> Self {
        Self::for_exec(
            params,
            &ExecConfig {
                batch,
                ..ExecConfig::default()
            },
        )
    }

    /// Pins the neuron-tile width of the drive sweep; any width ≥
    /// `n_neurons` (e.g. `usize::MAX`) is the untiled single-sweep path.
    /// Builder style; never changes results, only wall time.
    pub fn with_tile(mut self, tile: usize) -> Self {
        self.exec.tile = tile.max(1);
        self
    }

    /// Pins the hot-loop kernel; the request resolves through runtime
    /// feature detection, so an unsupported request degrades to the
    /// portable kernel. Builder style; never changes results, only wall
    /// time.
    pub fn with_kernel(mut self, kernel: KernelChoice) -> Self {
        self.exec.kernel = kernel;
        self
    }

    /// Pins the intra-chunk parallel mode of the drive tile sweep:
    /// [`IntraChoice::Off`] runs one range-job over every tile,
    /// [`IntraChoice::Workers`]`(k)` pins `k` sweep workers,
    /// [`IntraChoice::Auto`] sizes to the leftover thread budget. Builder
    /// style; never changes results, only wall time.
    pub fn with_intra(mut self, intra: IntraChoice) -> Self {
        self.exec.intra = intra;
        self
    }

    /// Resets membrane state for a fresh batch of `batch` samples:
    /// potentials to rest, refractory timers cleared, thresholds copied
    /// from `thetas` per sample.
    fn begin_batch(&mut self, config: &SnnConfig, thetas: &[f32], batch: usize) {
        let n = thetas.len();
        self.v.clear();
        self.v.resize(batch * n, config.lif.v_rest);
        self.refractory.clear();
        self.refractory.resize(batch * n, 0.0);
        self.theta.clear();
        for _ in 0..batch {
            self.theta.extend_from_slice(thetas);
        }
        self.drive.resize(batch * n, 0.0);
        self.crossed.resize(batch * n, false);
        self.any_crossed.resize(batch, false);
        self.active.resize(batch, Vec::new());
        self.plans.resize(batch, Vec::new());
        self.cursor.resize(batch, 0);
        self.heads.resize(batch, usize::MAX);
        for active in &mut self.active {
            active.clear();
        }
        self.cursor.fill(0);
        self.heads.fill(usize::MAX);
        self.any_crossed.fill(false);
        self.merged_rows.clear();
        self.member_starts.clear();
        self.members_flat.clear();
        self.fired.clear();
        self.intra_any.clear();
    }
}

/// The unsupervised spiking network: frozen [`NetworkParams`] plus the STDP
/// learning state that mutates them during training.
///
/// # Example
///
/// ```
/// use sparkxd_data::{SynthDigits, SyntheticSource};
/// use sparkxd_snn::{DiehlCookNetwork, SnnConfig};
///
/// let config = SnnConfig::for_neurons(20).with_timesteps(20);
/// let mut net = DiehlCookNetwork::new(config);
/// let data = SynthDigits.generate(10, 0);
/// net.train_epoch(&data, 1);
/// assert_eq!(net.weights().neurons(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DiehlCookNetwork {
    params: NetworkParams,
    stdp: StdpState,
}

impl DiehlCookNetwork {
    /// Builds a network with randomly initialised weights.
    pub fn new(config: SnnConfig) -> Self {
        let params = NetworkParams::new(config);
        let stdp = StdpState::new(
            params.config.stdp,
            params.config.n_inputs,
            params.config.n_neurons,
        );
        Self { params, stdp }
    }

    /// Wraps existing parameters with fresh (zeroed) STDP traces.
    pub fn from_params(params: NetworkParams) -> Self {
        let stdp = StdpState::new(
            params.config.stdp,
            params.config.n_inputs,
            params.config.n_neurons,
        );
        Self { params, stdp }
    }

    /// The frozen half of the network — hand `&net.params()` to the
    /// [`BatchEvaluator`] for parallel
    /// inference.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// Consumes the network, keeping only the inference parameters.
    pub fn into_params(self) -> NetworkParams {
        self.params
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnnConfig {
        &self.params.config
    }

    /// The stored synaptic weights (the data SparkXD maps into DRAM).
    pub fn weights(&self) -> &StoredWeights {
        &self.params.weights
    }

    /// Replaces the weight matrix (e.g. with a corrupted copy), rebuilding
    /// the read plane.
    ///
    /// # Panics
    ///
    /// Panics if the shape does not match the configuration.
    pub fn set_weights(&mut self, weights: StoredWeights) {
        self.params.set_weights(weights);
    }

    /// Swap-in/swap-out of a corrupted image with row-targeted plane
    /// rebuild; see [`NetworkParams::swap_weights_rows`].
    pub fn swap_weights_rows(&mut self, other: &mut StoredWeights, rows: &[usize]) {
        self.params.swap_weights_rows(other, rows);
    }

    /// In-place mutation of the raw DRAM image with a full plane rebuild;
    /// see [`NetworkParams::with_weights_mut`].
    pub fn with_weights_mut<R>(&mut self, mutate: impl FnOnce(&mut StoredWeights) -> R) -> R {
        self.params.with_weights_mut(mutate)
    }

    /// Adaptive-threshold values per neuron.
    pub fn thetas(&self) -> &[f32] {
        self.params.thetas()
    }

    /// Training-mode presentation of one sample on the simulation core's
    /// lane step at B = 1, reusing `state` scratch.
    ///
    /// Per timestep: encode, STDP trace decay and pre-spike update, drive
    /// from the stored rows (STDP rewrites them every step, so the plane
    /// would be stale), the lane integration, the firing commit, the
    /// post-spike update, then lateral inhibition. Mutates the stored
    /// weights directly and leaves the effective plane stale — callers
    /// must finish with `params.rebuild_plane()` before the parameters
    /// are read again.
    fn train_sample(
        &mut self,
        state: &mut BatchState,
        pixels: &[f32],
        rng: &mut StdRng,
    ) -> Result<Vec<u32>, SnnError> {
        let Self { params, stdp } = self;
        if pixels.len() != params.config.n_inputs {
            return Err(SnnError::InputSizeMismatch {
                provided: pixels.len(),
                expected: params.config.n_inputs,
            });
        }
        let config = &params.config;
        let weights = &mut params.weights;
        let w_max = weights.w_max();
        let mut counts = vec![0u32; config.n_neurons];
        state.begin_batch(config, &params.thetas, 1);
        let kernel = state.exec.kernel.resolve();
        config.encoder.plan(pixels, &mut state.plans[0]);
        let BatchState {
            v,
            theta,
            refractory,
            drive,
            active,
            plans,
            crossed,
            fired,
            ..
        } = state;
        let active = &mut active[0];
        for _ in 0..config.timesteps {
            config.encoder.encode_planned_step(&plans[0], rng, active);
            stdp.decay(config.dt_ms);
            stdp.on_pre_spikes(weights, active);
            drive.fill(0.0);
            for &i in active.iter() {
                let row = weights.fan_out(i);
                if config.clamp_reads {
                    kernel.accumulate_effective(drive, row, w_max);
                } else {
                    kernel.accumulate_finite(drive, row);
                }
            }
            let any_crossed = kernel.integrate_lanes(
                &config.lif,
                config.dt_ms,
                LifLanes {
                    v,
                    theta,
                    refractory,
                    drive,
                    crossed,
                },
            );
            if any_crossed {
                commit_firing_slab(config, v, theta, refractory, crossed, fired, &mut counts);
                stdp.on_post_spikes(weights, fired);
                inhibit_slab(config, kernel, v, fired);
            }
        }
        weights.normalize_columns(config.norm_target);
        stdp.reset();
        // Thresholds are learned state: persist them across samples.
        params.thetas.copy_from_slice(theta);
        Ok(counts)
    }

    /// Trains on every sample of `dataset` once (one epoch), with spike
    /// generation seeded by `seed`. Returns the total number of excitatory
    /// spikes observed.
    ///
    /// Training is inherently sequential (STDP updates feed forward into
    /// the next sample), so this threads one RNG through the epoch exactly
    /// as previous revisions did. The effective plane is re-derived once
    /// at the end of the epoch (training itself reads the store directly).
    ///
    /// # Panics
    ///
    /// Panics if the dataset images do not match the input size (the
    /// datasets in this workspace always do).
    pub fn train_epoch(&mut self, dataset: &Dataset, seed: u64) -> u64 {
        self.train_epoch_with(dataset, seed, &ExecConfig::default())
    }

    /// [`train_epoch`](Self::train_epoch) on `exec`'s kernel (the only
    /// knob training reads; it never changes the trained bits).
    ///
    /// # Panics
    ///
    /// Panics if the dataset images do not match the input size.
    pub fn train_epoch_with(&mut self, dataset: &Dataset, seed: u64, exec: &ExecConfig) -> u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = BatchState::for_exec(&self.params, exec);
        let mut total = 0u64;
        for (image, _) in dataset.iter() {
            let counts = self
                .train_sample(&mut state, image.pixels(), &mut rng)
                .expect("dataset image matches configured input size");
            total += counts.iter().map(|&c| c as u64).sum::<u64>();
        }
        self.params.rebuild_plane();
        total
    }

    /// Assigns a class to each neuron from its responses on `dataset`
    /// (inference only, no learning). Samples are evaluated concurrently by
    /// the [`BatchEvaluator`]; the result is
    /// independent of the worker count and batch size.
    pub fn label_neurons(&self, dataset: &Dataset, seed: u64) -> NeuronLabeler {
        BatchEvaluator::default().label_neurons(&self.params, dataset, seed)
    }

    /// Classification accuracy on `dataset` using `labeler`'s neuron
    /// assignments (inference only, parallel across samples).
    pub fn evaluate(&self, dataset: &Dataset, labeler: &NeuronLabeler, seed: u64) -> f64 {
        BatchEvaluator::default().evaluate(&self.params, dataset, labeler, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::sample_rng;
    use sparkxd_data::{SynthDigits, SyntheticSource};

    fn small_net() -> DiehlCookNetwork {
        DiehlCookNetwork::new(SnnConfig::for_neurons(20).with_timesteps(30))
    }

    /// One sample through the simulation core at B = 1 on fresh scratch.
    fn run_one(params: &NetworkParams, pixels: &[f32], rng: StdRng) -> Result<Vec<u32>, SnnError> {
        let mut state = BatchState::for_params(params, 1);
        let mut counts = params.run_batch(&mut state, &[pixels], &mut [rng])?;
        Ok(counts.pop().expect("one sample in, one count vector out"))
    }

    #[test]
    fn network_produces_spikes_on_input() {
        let net = small_net();
        let data = SynthDigits.generate(5, 1);
        let counts = run_one(
            net.params(),
            data.get(0).0.pixels(),
            StdRng::seed_from_u64(2),
        )
        .unwrap();
        assert!(counts.iter().sum::<u32>() > 0, "some neuron should fire");
    }

    #[test]
    fn blank_input_produces_no_spikes() {
        let net = small_net();
        let blank = vec![0.0f32; 784];
        let counts = run_one(net.params(), &blank, StdRng::seed_from_u64(2)).unwrap();
        assert_eq!(counts.iter().sum::<u32>(), 0);
    }

    #[test]
    fn wrong_input_size_is_an_error() {
        let mut net = small_net();
        let mut rng = StdRng::seed_from_u64(2);
        let err = net.train_sample(&mut BatchState::default(), &[0.0; 10], &mut rng);
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
        let params = net.params().clone();
        let err = run_one(&params, &[0.0; 10], StdRng::seed_from_u64(2));
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
        let mut batch_state = BatchState::for_params(&params, 2);
        let good = vec![0.0f32; 784];
        let bad = vec![0.0f32; 10];
        let mut rngs = vec![sample_rng(1, 0), sample_rng(1, 1)];
        let err = params.run_batch(
            &mut batch_state,
            &[good.as_slice(), bad.as_slice()],
            &mut rngs,
        );
        assert!(matches!(err, Err(SnnError::InputSizeMismatch { .. })));
    }

    #[test]
    fn training_changes_weights_and_normalises() {
        let mut net = small_net();
        let before = net.weights().as_slice().to_vec();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        assert_ne!(net.weights().as_slice(), &before[..]);
        // Column sums normalised.
        let w = net.weights();
        for j in 0..20 {
            let sum: f32 = (0..784).map(|i| w.raw(i, j)).sum();
            assert!((sum - 78.0).abs() < 2.0, "column {j} sum {sum}");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = SynthDigits.generate(10, 3);
        let run = || {
            let mut net = small_net();
            net.train_epoch(&data, 4);
            net.weights().as_slice().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn training_leaves_plane_consistent() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        for seed in [4, 5] {
            net.train_epoch(&data, seed);
            assert!(net
                .params()
                .effective_plane()
                .is_consistent_with(net.weights()));
        }
    }

    #[test]
    fn inference_leaves_network_unchanged() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        let before = net.clone();
        run_one(
            net.params(),
            data.get(0).0.pixels(),
            StdRng::seed_from_u64(9),
        )
        .unwrap();
        let _ = net.evaluate(&data, &net.label_neurons(&data, 5), 6);
        assert_eq!(net, before, "inference must not mutate the network");
    }

    #[test]
    fn run_batch_empty_batch_is_ok() {
        let net = small_net();
        let params = net.params();
        let mut state = BatchState::for_params(params, 4);
        let counts = params.run_batch(&mut state, &[], &mut []).unwrap();
        assert!(counts.is_empty());
    }

    #[test]
    fn batch_state_reuse_across_shrinking_batches() {
        let mut net = small_net();
        let data = SynthDigits.generate(5, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let mut state = BatchState::for_params(params, 4);
        // Full batch, then a short tail batch with the same state.
        let pixels_a: Vec<&[f32]> = (0..4).map(|i| data.get(i).0.pixels()).collect();
        let mut rngs_a: Vec<StdRng> = (0..4).map(|i| sample_rng(3, i as u64)).collect();
        let a = params
            .run_batch(&mut state, &pixels_a, &mut rngs_a)
            .unwrap();
        let pixels_b: Vec<&[f32]> = vec![data.get(4).0.pixels()];
        let mut rngs_b = vec![sample_rng(3, 4)];
        let b = params
            .run_batch(&mut state, &pixels_b, &mut rngs_b)
            .unwrap();
        let mut got = a;
        got.extend(b);
        // Reference: every sample on its own fresh scratch.
        let fresh: Vec<Vec<u32>> = (0..5)
            .map(|i| run_one(params, data.get(i).0.pixels(), sample_rng(3, i as u64)).unwrap())
            .collect();
        assert_eq!(got, fresh);
    }

    #[test]
    fn membrane_slabs_are_bit_identical_across_intra() {
        // Spike counts quantise, so they could agree while membrane
        // trajectories drift. Compare every lane word the sweep writes.
        let mut net = small_net();
        let data = SynthDigits.generate(5, 3);
        net.train_epoch(&data, 4);
        let params = net.params();
        let pixels: Vec<&[f32]> = (0..5).map(|i| data.get(i).0.pixels()).collect();
        let run = |b_count: usize, tile: usize, intra: IntraChoice| {
            let mut state = BatchState::for_params(params, b_count)
                .with_tile(tile)
                .with_intra(intra);
            let mut rngs: Vec<StdRng> = (0..b_count).map(|i| sample_rng(7, i as u64)).collect();
            let counts = params
                .run_batch(&mut state, &pixels[..b_count], &mut rngs)
                .unwrap();
            let bits = |slab: &[f32]| slab.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let slabs = (
                bits(&state.v),
                bits(&state.theta),
                bits(&state.refractory),
                state.crossed.clone(),
            );
            (counts, slabs)
        };
        for b_count in [1, 3, 5] {
            for tile in [1, 3, 7, usize::MAX] {
                let reference = run(b_count, tile, IntraChoice::Off);
                assert!(reference.0.iter().flatten().sum::<u32>() > 0, "no spikes");
                for k in [2, 3, 7] {
                    assert!(
                        run(b_count, tile, IntraChoice::Workers(k)) == reference,
                        "B={b_count} tile={tile} workers={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn inhibition_limits_simultaneous_winners() {
        // With strong inhibition, total spikes should be far below the
        // no-competition bound.
        let mut config = SnnConfig::for_neurons(30).with_timesteps(50);
        config.inhibition_mv = 0.0;
        let data = SynthDigits.generate(1, 5);
        let spikes = |config: SnnConfig| -> u32 {
            let params = NetworkParams::new(config);
            run_one(&params, data.get(0).0.pixels(), StdRng::seed_from_u64(6))
                .unwrap()
                .iter()
                .sum()
        };
        let free_spikes = spikes(config.clone());
        config.inhibition_mv = 12.0;
        let wta_spikes = spikes(config);
        assert!(
            wta_spikes < free_spikes,
            "inhibition should suppress spiking ({wta_spikes} vs {free_spikes})"
        );
    }

    #[test]
    fn thetas_grow_with_activity() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        assert!(net.thetas().iter().any(|&t| t > 0.0));
    }

    #[test]
    fn set_weights_roundtrip() {
        let mut net = small_net();
        let mut w = net.weights().clone();
        w.set(0, 0, 0.77);
        net.set_weights(w);
        assert_eq!(net.weights().raw(0, 0), 0.77);
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
    }

    #[test]
    fn swap_weights_rows_roundtrips_store_and_plane() {
        let mut net = small_net();
        let data = SynthDigits.generate(6, 3);
        net.train_epoch(&data, 4);
        let before = net.params().clone();
        let mut corrupted = net.weights().clone();
        corrupted.set(7, 2, f32::NAN);
        corrupted.set(7, 3, 5.0);
        corrupted.set(12, 0, -1.0);
        let rows = [7usize, 12];
        net.swap_weights_rows(&mut corrupted, &rows);
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
        assert_eq!(net.params().effective_plane().row(7)[2], 0.0);
        net.swap_weights_rows(&mut corrupted, &rows);
        assert_eq!(net.params(), &before, "swap back restores exactly");
    }

    #[test]
    fn with_weights_mut_rebuilds_plane() {
        let mut net = small_net();
        net.with_weights_mut(|w| w.set(3, 3, f32::INFINITY));
        assert!(net
            .params()
            .effective_plane()
            .is_consistent_with(net.weights()));
        assert_eq!(net.params().effective_plane().row(3)[3], 0.0);
    }

    #[test]
    fn from_params_roundtrip() {
        let mut net = small_net();
        let data = SynthDigits.generate(10, 3);
        net.train_epoch(&data, 4);
        let rebuilt = DiehlCookNetwork::from_params(net.clone().into_params());
        assert_eq!(rebuilt.weights(), net.weights());
        assert_eq!(rebuilt.thetas(), net.thetas());
    }

    #[test]
    #[should_panic(expected = "neuron count")]
    fn set_weights_shape_mismatch_panics() {
        let mut net = small_net();
        let w = StoredWeights::random(784, 5, 1.0, 0);
        net.set_weights(w);
    }
}
