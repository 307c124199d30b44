//! # SparkXD
//!
//! Umbrella crate for the SparkXD reproduction: **resilient and
//! energy-efficient Spiking Neural Network inference using approximate
//! DRAM** (Putra, Hanif, Shafique — DAC 2021).
//!
//! This crate re-exports every subsystem so downstream users depend on a
//! single crate:
//!
//! * [`circuit`] — transient circuit simulator; DRAM array-voltage dynamics
//!   and voltage-scaled timing parameters (SPICE substitute).
//! * [`dram`] — cycle-level DRAM model: geometry, row-buffer state machine,
//!   access classification, latency, traces (LPDDR3-1600 4Gb preset).
//! * [`energy`] — DRAMPower-style command energy model and SNN platform
//!   energy breakdowns.
//! * [`error`] — approximate-DRAM error models (EDEN models 0–3), BER(V)
//!   curve, weak cells and bit-error injection.
//! * [`data`] — synthetic MNIST-like and Fashion-MNIST-like datasets.
//! * [`snn`] — spiking neural network simulator: LIF neurons, STDP,
//!   Poisson rate coding, Diehl&Cook-style unsupervised architecture.
//! * [`core`] — the SparkXD framework itself: fault-aware training
//!   (Alg. 1), error-tolerance analysis, error-aware DRAM mapping (Alg. 2),
//!   and the end-to-end pipeline.
//! * [`serve`] — online inference service: dynamic batching, per-request
//!   voltage-tier routing, admission control and serving metrics.
//! * [`telemetry`] — observation-only counters, gauges, histograms and
//!   spans behind one process-wide mode (`SPARKXD_TELEMETRY` in the
//!   binaries), with JSON and Chrome trace-event export.
//!
//! ## Quickstart
//!
//! ```no_run
//! use sparkxd::core::pipeline::{PipelineConfig, SparkXdPipeline};
//!
//! let config = PipelineConfig::small_demo(42);
//! let outcome = SparkXdPipeline::new(config).run().expect("pipeline run");
//! println!(
//!     "BER_th = {:.1e}, energy saving = {:.1}%",
//!     outcome.max_tolerable_ber,
//!     outcome.energy.saving_fraction_vs_baseline() * 100.0
//! );
//! ```

pub use sparkxd_circuit as circuit;
pub use sparkxd_core as core;
pub use sparkxd_data as data;
pub use sparkxd_dram as dram;
pub use sparkxd_energy as energy;
pub use sparkxd_error as error;
pub use sparkxd_serve as serve;
pub use sparkxd_snn as snn;
pub use sparkxd_telemetry as telemetry;
