//! Quickstart: simulate one Llama3-8B training iteration on electrical vs photonic
//! rails and print where the time goes.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use photonic_rails::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. The paper's testbed: 4 Perlmutter GPU nodes (4x A100 each), so 16 GPUs in
    //    4 rails of 4.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    println!(
        "cluster: {} ({} GPUs, {} rails, {} per scale-out port)",
        cluster.spec().name,
        cluster.num_gpus(),
        cluster.num_rails(),
        cluster.port_bandwidth(),
    );

    // 2. The workload: Llama3-8B trained with TP=4 (inside the node), FSDP=2 and PP=2,
    //    1F1B schedule, micro-batch size 2 — the configuration of the paper's §3.1.
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    // Behind an `Arc`, every run below shares this one DAG instead of copying it.
    let dag = Arc::new(DagBuilder::new(model, parallel, compute).build());
    println!(
        "workload: {} tasks, {} communication ops, {} of traffic per iteration",
        dag.len(),
        dag.communication_tasks().count(),
        dag.total_communication_bytes(),
    );

    // 3. Simulate three network options.
    let policies = [
        (
            "electrical rail switches (baseline)",
            OpusConfig::electrical(),
        ),
        (
            "photonic rails, 25 ms piezo OCS, on-demand",
            OpusConfig::on_demand(SimDuration::from_millis(25)),
        ),
        (
            "photonic rails, 25 ms piezo OCS, provisioned (Opus)",
            OpusConfig::provisioned(SimDuration::from_millis(25)),
        ),
    ];

    let mut baseline_time = None;
    println!();
    for (name, config) in policies {
        let mut config = config;
        config.iterations = 3;
        config.compute_jitter = 0.0;
        config.seed = 7;
        let scenario = ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run();
        let result = &scenario.jobs[0].result;
        let time = result.steady_state_iteration_time();
        let baseline = *baseline_time.get_or_insert(time);
        let last = result.iterations.last().expect("at least one iteration");
        println!("{name}");
        println!("  steady-state iteration time : {time}");
        println!(
            "  normalized vs baseline       : {:.3}",
            time.as_secs_f64() / baseline.as_secs_f64()
        );
        println!("  reconfigurations / iteration : {}", last.reconfig_count());
        println!(
            "  circuit wait per iteration   : {}",
            last.total_circuit_wait
        );
        println!();
    }

    println!("Photonic rails keep the rail abstraction at a fraction of the switch power;");
    println!("run `cargo run -p railsim-bench --bin fig7_cost_power` for the cost story.");
}
