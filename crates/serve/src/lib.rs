//! # sparkxd-serve
//!
//! An **online inference service** on top of the SparkXD reproduction:
//! many concurrent clients multiplexed onto the batched execution engine,
//! with a per-request choice of approximate-DRAM operating point.
//!
//! The offline pipeline picks one supply voltage per experiment; serving
//! inverts that. A [`TierSet`](sparkxd_core::TierSet) holds several
//! corrupted-and-scrubbed model instances — one per voltage, built once
//! through the existing injection/mapping machinery and tagged with a
//! measured accuracy estimate plus per-pass DRAM energy/latency from
//! compressed-trace replay — and every request names a [`RoutePolicy`]
//! (accuracy floor, energy budget or deadline slack) that the [`Router`]
//! resolves to a tier.
//!
//! The pieces:
//!
//! * [`router`] — pure policy → tier resolution over the tier tags;
//! * [`service`] — [`SparkXdService`]: per-tier queues, a **dynamic
//!   batcher** (dispatch on full chunk or `max_wait`, whichever first), a
//!   std-thread worker pool driving
//!   [`run_batch`](sparkxd_snn::NetworkParams::run_batch), and admission
//!   control against a queue bound;
//! * [`metrics`] — p50/p95/p99 latency, throughput, per-tier hit/batch
//!   and DRAM-energy accounting;
//! * [`loadgen`] — seeded open-loop arrival traces and their replay (the
//!   `serve_load` binary in `sparkxd-bench` drives this).
//!
//! Everything is std-only: threads, channels, mutexes and condvars — no
//! async runtime.
//!
//! ## Determinism
//!
//! Request `id` selects the same per-sample RNG stream
//! ([`sample_rng`](sparkxd_snn::engine::sample_rng)) the offline engine
//! uses, and tier choice is a pure function of the policy — so the
//! `(id → label, tier)` mapping is bit-identical for **any** worker
//! count, batch size, chunking, arrival timing or intra-chunk sweep
//! split (`SPARKXD_INTRA` / [`ServiceConfig::with_intra`]), and equals
//! the offline answer for the same seed. `tests/scheduler_determinism.rs`
//! proves it across a worker/batch/intra matrix, mirroring the repo's
//! `thread_invariance` suite, and `tests/worker_budget.rs` pins that the
//! service workers plus any intra sweep helpers stay under the engine's
//! global thread budget.
//!
//! ## Vendored-stub surface
//!
//! This crate adds **no** new vendored API requirements: the load
//! generator only uses `StdRng`, `Rng::gen` and `Rng::gen_range`, all
//! already covered by `vendor/rand` (see its lib.rs for the supported
//! surface).
//!
//! ## Example
//!
//! ```no_run
//! use sparkxd_core::pipeline::PipelineConfig;
//! use sparkxd_core::TierBuilder;
//! use sparkxd_serve::{RoutePolicy, ServeRequest, ServiceConfig, SparkXdService};
//!
//! let tiers = TierBuilder::new(PipelineConfig::small_demo(42))
//!     .build()
//!     .expect("tier ladder");
//! let (service, responses) =
//!     SparkXdService::start(tiers.tiers, ServiceConfig::from_env());
//! service
//!     .submit(ServeRequest {
//!         id: 0,
//!         pixels: vec![0.0; 784],
//!         policy: RoutePolicy::AccuracyFloor(0.6),
//!     })
//!     .expect("admitted");
//! let answer = responses.recv().expect("served");
//! println!("label {:?} from tier {} at {}", answer.label, answer.tier, answer.v_supply);
//! ```

pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod service;

pub use loadgen::{arrival_trace, replay_open_loop, Arrival, LoadSpec, ReplayOutcome};
pub use metrics::{MetricsSnapshot, ServiceMetrics, TierCounters};
pub use router::{RoutePolicy, Router, TierInfo};
pub use service::{ServeRequest, ServeResponse, ServiceConfig, SparkXdService, SubmitError};
