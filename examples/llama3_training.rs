//! Domain scenario: plan a Llama 3 70B training job on a DGX H200 cluster with photonic
//! rails — choose a parallelism layout, inspect the traffic each axis generates, check
//! the C1/C2/C3 constraints for a static circuit allocation, and then measure how much
//! in-job reconfiguration (Opus) costs at different OCS technologies.
//!
//! ```sh
//! cargo run --release --example llama3_training
//! ```

use photonic_rails::collectives::constraints::{AxisDemand, DegreeBudget};
use photonic_rails::cost::ocs_tech::ocs_technologies;
use photonic_rails::prelude::*;
use photonic_rails::workload::strategy;
use photonic_rails::workload::traffic::table2_rows;
use std::sync::Arc;

fn main() {
    // A 64-GPU DGX H200 slice: 8 nodes of 8 GPUs, ConnectX-7 in 2-port mode.
    let nodes = 8;
    let cluster = ClusterSpec::from_preset(NodePreset::DgxH200, nodes)
        .with_nic(NicConfig::connectx7_dual())
        .build();
    let model = ModelConfig::llama3_70b();

    // 1. What does the rule-of-thumb table recommend at this scale?
    let rec = strategy::recommend(model.total_params(), cluster.num_gpus());
    println!(
        "Table-1 recommendation for {} on {} GPUs: {:?}",
        model.name,
        cluster.num_gpus(),
        rec.strategies
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
    );

    // 2. Pick a 3D layout: TP=8 inside the node, PP=2, FSDP=4.
    let parallel = ParallelismConfig {
        tensor: 8,
        sequence_parallel: true,
        context: 1,
        expert: 1,
        data: 4,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 2,
        num_microbatches: 4,
        microbatch_size: 1,
        seq_len: 8192,
    };
    parallel
        .validate(cluster.num_gpus())
        .expect("parallelism layout must match the cluster");
    println!(
        "layout: TP={} PP={} FSDP={} ({}D parallelism, global batch {})",
        parallel.tensor,
        parallel.pipeline,
        parallel.data,
        parallel.dimensionality(),
        parallel.global_batch_size()
    );

    // 3. Per-axis traffic (Table 2 instantiated for this job).
    println!("\nper-axis communication volumes:");
    for row in table2_rows(&model, &parallel) {
        println!(
            "  {:6} {:22} {}",
            row.strategy,
            row.collectives
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("+"),
            row.volume
        );
    }

    // 4. Could a *static* circuit allocation serve DP and PP at once? (C2/C3)
    let budget = DegreeBudget::new(
        cluster.ports_per_gpu() as usize,
        cluster.spec().nic.total_bandwidth.as_gbps(),
    );
    let analysis = budget.analyze(&[
        AxisDemand::ring(ParallelismAxis::Data, parallel.data as usize),
        AxisDemand::ring(ParallelismAxis::Pipeline, parallel.pipeline as usize),
    ]);
    println!(
        "\nstatic allocation on a {}-port NIC: feasible = {}, per-axis bandwidth fraction = {:.2}",
        cluster.ports_per_gpu(),
        analysis.feasible,
        budget.even_split_fraction(2)
    );

    // 5. Time-multiplex instead: Opus across OCS technologies.
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::h100());
    let dag = Arc::new(DagBuilder::new(model, parallel, compute).build());
    let mut electrical = OpusConfig::electrical();
    electrical.iterations = 2;
    electrical.compute_jitter = 0.0;
    electrical.seed = 11;
    let baseline = ScenarioSpec::new(cluster.clone())
        .job(Arc::clone(&dag), electrical)
        .run();
    let baseline_time = baseline.jobs[0].result.steady_state_iteration_time();
    println!("\nelectrical baseline iteration: {baseline_time}");
    println!("\nOpus (provisioned) across OCS technologies:");
    for tech in ocs_technologies() {
        // Skip the robotic patch panel: its minutes-long switching cannot be hidden.
        if tech.reconfig_time > SimDuration::from_secs(1) {
            println!(
                "  {:28} -> skipped (reconfiguration {} cannot be hidden in-job)",
                tech.name, tech.reconfig_time
            );
            continue;
        }
        let mut config = OpusConfig::provisioned(tech.reconfig_time);
        config.iterations = 2;
        config.compute_jitter = 0.0;
        config.seed = 11;
        let result = ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run();
        let ratio = result.jobs[0]
            .result
            .steady_state_iteration_time()
            .as_secs_f64()
            / baseline_time.as_secs_f64();
        println!(
            "  {:28} reconfig {:>10}  -> normalized iteration time {:.3}",
            tech.name,
            tech.reconfig_time.to_string(),
            ratio
        );
    }
}
