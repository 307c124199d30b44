//! Work counts a traced run gathers from the library's return values,
//! and the per-layer metric values built from them and the span totals.

use crate::spec::{Values, PER_LAYER};
use crate::trace::Tracer;
use sparkxd_core::EnergyEvaluation;
use sparkxd_error::{ErrorProfile, InjectionReport, WordPlacement};

/// Hardware-independent work counts of one traced run. They repeat
/// exactly for a given seed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Work {
    /// Samples presented to STDP training.
    pub train_samples: u64,
    /// Excitatory spikes during training (`train_epoch`'s return value).
    pub train_spikes: u64,
    /// Samples presented to batched inference (label, evaluate, infer).
    pub engine_samples: u64,
    /// Output spikes of the `spike_counts` passes.
    pub output_spikes: u64,
    /// LIF neuron updates of inference: samples × timesteps × neurons.
    pub lif_updates: u64,
    /// Bits flipped by injection.
    pub flipped_bits: u64,
    /// Bits injection was expected to flip (target BER × bits exposed).
    pub expected_flips: f64,
    /// Compressed DRAM trace ops replayed.
    pub trace_ops: u64,
    /// Row-buffer hits of the replays.
    pub row_hits: u64,
    /// Row-buffer misses of the replays.
    pub row_misses: u64,
    /// DRAM energy of one pass over the deployed weight image (mJ).
    pub pass_mj: f64,
}

impl Work {
    /// Counts one inference call over `samples` samples.
    pub fn inference(&mut self, samples: usize, timesteps: usize, neurons: usize) {
        self.engine_samples += samples as u64;
        self.lif_updates += (samples * timesteps * neurons) as u64;
    }

    /// Counts one training epoch.
    pub fn training(&mut self, samples: usize, spikes: u64) {
        self.train_samples += samples as u64;
        self.train_spikes += spikes;
    }

    /// Counts a uniform injection at `ber` over the whole image.
    pub fn uniform_injection(&mut self, report: &InjectionReport, ber: f64) {
        self.flipped_bits += report.flips;
        self.expected_flips += ber * report.words as f64 * f64::from(report.word_bits);
    }

    /// Counts a placement-shaped injection: each word sees its
    /// subarray's rate.
    pub fn placed_injection(
        &mut self,
        report: &InjectionReport,
        placements: &[WordPlacement],
        profile: &ErrorProfile,
    ) {
        self.flipped_bits += report.flips;
        let bits = f64::from(report.word_bits);
        self.expected_flips += placements
            .iter()
            .take(report.words)
            .map(|p| profile.ber(p.subarray) * bits)
            .sum::<f64>();
    }

    /// Counts one trace replay.
    pub fn replay(&mut self, ops: usize, eval: &EnergyEvaluation) {
        self.trace_ops += ops as u64;
        self.row_hits += eval.stats.hits;
        self.row_misses += eval.stats.misses;
    }

    /// Realised over target flips; 0 when nothing was injected.
    pub fn ber_ratio(&self) -> f64 {
        if self.expected_flips > 0.0 {
            self.flipped_bits as f64 / self.expected_flips
        } else {
            0.0
        }
    }

    /// One-line human summary of the counts.
    pub fn describe(&self) -> String {
        format!(
            "work: train {} samples / {} spikes; inference {} samples / {} output spikes / \
             {} LIF updates; injection {} flips (realised/target BER {:.4}); DRAM {} trace ops, \
             {} row hits, {} row misses, {:.6} mJ per pass",
            self.train_samples,
            self.train_spikes,
            self.engine_samples,
            self.output_spikes,
            self.lif_updates,
            self.flipped_bits,
            self.ber_ratio(),
            self.trace_ops,
            self.row_hits,
            self.row_misses,
            self.pass_mj
        )
    }
}

fn per_s(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds
    } else {
        0.0
    }
}

/// Per-layer values every workload shares: span totals plus work
/// counts. Serve-only and run-level entries start at 0 and are filled
/// in by the caller.
pub fn layer_values(tracer: &Tracer, work: &Work, dispatches: u64, busy_peak: usize) -> Values {
    let mut v: Values = PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect();
    let train_s = tracer.total_s("snn.train");
    let label_s = tracer.total_s("engine.label");
    let eval_s = tracer.total_s("engine.eval");
    let infer_s = tracer.total_s("engine.infer");
    v.insert("data.generate_s", tracer.total_s("data.generate"));
    v.insert("snn.train_s", train_s);
    v.insert(
        "snn.train_samples_per_s",
        per_s(work.train_samples, train_s),
    );
    v.insert("snn.train_spikes", work.train_spikes as f64);
    v.insert("engine.label_s", label_s);
    v.insert("engine.eval_s", eval_s);
    v.insert("engine.infer_s", infer_s);
    v.insert(
        "engine.samples_per_s",
        per_s(work.engine_samples, label_s + eval_s + infer_s),
    );
    v.insert("engine.output_spikes", work.output_spikes as f64);
    v.insert("engine.lif_updates", work.lif_updates as f64);
    v.insert("pool.dispatches", dispatches as f64);
    v.insert("pool.busy_peak", busy_peak as f64);
    v.insert("error.inject_s", tracer.total_s("error.inject"));
    v.insert("error.flipped_bits", work.flipped_bits as f64);
    v.insert("error.ber_ratio", work.ber_ratio());
    v.insert("snn.plane_rebuild_s", tracer.total_s("snn.plane_rebuild"));
    v.insert("core.weak_cells_s", tracer.total_s("core.weak_cells"));
    v.insert("core.mapping_s", tracer.total_s("core.mapping"));
    v.insert("core.tiers_s", tracer.total_s("core.tiers"));
    v.insert("dram.replay_s", tracer.total_s("dram.replay"));
    v.insert("dram.trace_ops", work.trace_ops as f64);
    v.insert("dram.row_hits", work.row_hits as f64);
    v.insert("dram.row_misses", work.row_misses as f64);
    v.insert("energy.pass_mj", work.pass_mj);
    v.insert("trace.coverage", tracer.coverage());
    v
}
