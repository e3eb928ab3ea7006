//! Domain scenario: mixture-of-experts training with expert parallelism on photonic
//! rails. EP's AllToAll is the paper's hardest case (§5 "Supporting any communication
//! patterns"): it is not ring-friendly, it can span rails, and it interleaves with the
//! other axes every layer. This example builds a Mixtral-style MoE job, shows how many
//! of its ring pairs need PXN forwarding, how often the rails must reconfigure, and
//! what that costs at two OCS speeds.
//!
//! ```sh
//! cargo run --release --example moe_expert_parallelism
//! ```

use photonic_rails::opus::CircuitPlanner;
use photonic_rails::prelude::*;
use photonic_rails::workload::windows::{window_count, WindowCountInputs};
use std::sync::Arc;

fn main() {
    // 4 DGX H200 nodes, 2-port NICs (EP needs the extra degree).
    let cluster = ClusterSpec::from_preset(NodePreset::DgxH200, 4)
        .with_nic(NicConfig::connectx7_dual())
        .build();
    let model = ModelConfig::mixtral_8x7b();

    // TP=4, EP=2, FSDP=2, PP=2 over 32 GPUs: a 4-D layout.
    let parallel = ParallelismConfig {
        tensor: 4,
        sequence_parallel: true,
        context: 1,
        expert: 2,
        data: 2,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 2,
        num_microbatches: 4,
        microbatch_size: 1,
        seq_len: 4096,
    };
    parallel
        .validate(cluster.num_gpus())
        .expect("layout fits the cluster");
    println!(
        "{} with TP={} EP={} FSDP={} PP={} on {} GPUs ({}D parallelism)",
        model.name,
        parallel.tensor,
        parallel.expert,
        parallel.data,
        parallel.pipeline,
        cluster.num_gpus(),
        parallel.dimensionality()
    );

    // How many windows does Eq. 1 predict for this layout?
    let eq1 = window_count(&WindowCountInputs {
        pipeline: parallel.pipeline,
        num_layers: model.num_layers,
        num_microbatches: parallel.num_microbatches,
        has_cp_or_ep: true,
        has_cp_and_ep: false,
    });
    println!(
        "Eq. 1 predicts {} reconfiguration windows per iteration",
        eq1.total()
    );

    // Build the DAG and look at the circuit demand of each axis.
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::h100());
    let dag = Arc::new(DagBuilder::new(model, parallel, compute).build());
    let planner = CircuitPlanner::for_cluster(&cluster);
    println!("\ncircuit demand per communication group (sample):");
    let mut shown = std::collections::HashSet::new();
    for group in dag.groups.values() {
        if !shown.insert(group.axis) {
            continue;
        }
        let plan = planner.plan(&cluster, group);
        println!(
            "  {:9} group of {}: {} rail circuits, {} intra-node pairs, {} pairs dropped to chain",
            group.axis.to_string(),
            group.size(),
            plan.total_circuits(),
            plan.scaleup_pairs,
            plan.dropped_pairs
        );
    }

    // Simulate: electrical baseline vs photonic rails at two OCS classes.
    let mut electrical = OpusConfig::electrical();
    electrical.iterations = 2;
    electrical.compute_jitter = 0.0;
    electrical.seed = 21;
    let baseline = ScenarioSpec::new(cluster.clone())
        .job(Arc::clone(&dag), electrical)
        .run();
    let baseline_time = baseline.jobs[0].result.steady_state_iteration_time();
    println!("\nelectrical baseline iteration: {baseline_time}");

    for (name, latency) in [
        ("SiP OCS (7 us)", SimDuration::from_micros(7)),
        ("3D MEMS OCS (15 ms)", SimDuration::from_millis(15)),
        ("Piezo OCS (25 ms)", SimDuration::from_millis(25)),
    ] {
        let mut config = OpusConfig::provisioned(latency);
        config.iterations = 2;
        config.compute_jitter = 0.0;
        config.seed = 21;
        let scenario = ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run();
        let result = &scenario.jobs[0].result;
        let it = result.iterations.last().expect("ran two iterations");
        println!(
            "{name:22} -> normalized {:.3}, {} reconfigs/iter, circuit wait {}",
            result.steady_state_iteration_time().as_secs_f64() / baseline_time.as_secs_f64(),
            it.reconfig_count(),
            it.total_circuit_wait
        );
    }

    println!("\nEP AllToAll keeps the rails busier than pure 3D parallelism: expect more");
    println!("reconfigurations per iteration, and consider offloading the small, bursty");
    println!("sync collectives to the host network as §5 of the paper suggests.");
}
