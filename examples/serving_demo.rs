//! Serving demo: a 3-tier online inference service answering a burst of
//! requests under mixed routing policies.
//!
//! ```sh
//! cargo run --release --example serving_demo
//! ```
//!
//! Builds three corrupted-and-scrubbed model instances at 1.025 V, 1.1 V
//! and 1.175 V (one fault-aware training pass shared across tiers), starts
//! the dynamic-batching service, and submits a burst where each request
//! states what it cares about — an accuracy floor, a DRAM energy budget or
//! a deadline slack. The report shows which tier each policy landed on and
//! what the burst cost per tier.

use sparkxd::core::pipeline::PipelineConfig;
use sparkxd::core::TierBuilder;
use sparkxd::data::{SynthDigits, SyntheticSource};
use sparkxd::serve::{RoutePolicy, ServeRequest, ServiceConfig, SparkXdService};
use std::time::Duration;

fn main() {
    let exec = sparkxd_bench::exec_from_env();
    // One fault-aware model, three deployable operating points.
    let config = PipelineConfig {
        exec,
        neurons: 40,
        timesteps: 40,
        train_samples: 120,
        test_samples: 60,
        baseline_epochs: 2,
        ..PipelineConfig::small_demo(42)
    };
    println!("building the 3-tier ladder (baseline + Algorithm 1, then one mapping per Vdd)...");
    let tiers = TierBuilder::new(config).build().expect("tier ladder");
    println!("BER_th {:.0e}; tiers:", tiers.ber_th);
    for (i, tier) in tiers.tiers.iter().enumerate() {
        println!(
            "  tier {i}: {:.3} V  BER {:.1e}  accuracy {:>5.1}%  {:.4} mJ/pass  {:.1} us/pass",
            tier.v_supply.0,
            tier.operating_ber,
            tier.accuracy_estimate * 100.0,
            tier.dram_pass_mj,
            tier.dram_pass_ns / 1e3,
        );
    }
    let energy_mid = (tiers.tiers[0].dram_pass_mj + tiers.tiers[1].dram_pass_mj) / 2.0;
    let modest_floor = tiers.tiers[0].accuracy_estimate;

    let (service, responses) = SparkXdService::start_with_exec(
        tiers.tiers.clone(),
        ServiceConfig::new(&exec)
            .with_batch(4)
            .with_max_wait(Duration::from_millis(1)),
        &exec,
    );

    // A burst of 30 requests cycling through three policy shapes.
    let data = SynthDigits.generate(30, 7);
    println!("\nsubmitting a burst of {} requests...", data.len());
    for (i, (image, _)) in data.iter().enumerate() {
        let policy = match i % 3 {
            0 => RoutePolicy::AccuracyFloor(modest_floor), // cheapest sufficient tier
            1 => RoutePolicy::EnergyBudget(energy_mid),    // best accuracy within budget
            _ => RoutePolicy::DeadlineSlack(f64::MAX),     // latency is no object
        };
        service
            .submit(ServeRequest {
                id: i as u64,
                pixels: image.pixels().to_vec(),
                policy,
            })
            .expect("burst fits the default queue bound");
    }
    let snapshot = service.shutdown();

    let mut answers: Vec<_> = responses.iter().collect();
    answers.sort_unstable_by_key(|r| r.id);
    println!("\n id  policy          tier  Vdd      label  chunk  energy share");
    for r in &answers {
        let policy = match r.id % 3 {
            0 => "accuracy-floor",
            1 => "energy-budget",
            _ => "deadline-slack",
        };
        println!(
            " {:>2}  {policy:<14}  {}     {:.3} V  {:<5}  {:>5}  {:.5} mJ",
            r.id,
            r.tier,
            r.v_supply.0,
            r.label.map_or("-".into(), |l| l.to_string()),
            r.chunk_len,
            r.dram_share_mj,
        );
    }

    println!("\n-- burst report ----------------------------------------");
    for (i, counters) in snapshot.per_tier.iter().enumerate() {
        println!(
            "tier {i} ({:.3} V): {} hits in {} batches, {:.4} mJ DRAM",
            tiers.tiers[i].v_supply.0, counters.hits, counters.batches, snapshot.tier_energy_mj[i],
        );
    }
    println!(
        "p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms;  {:.4} mJ DRAM per request",
        snapshot.p50_ns as f64 / 1e6,
        snapshot.p95_ns as f64 / 1e6,
        snapshot.p99_ns as f64 / 1e6,
        snapshot.energy_per_request_mj(),
    );
}
