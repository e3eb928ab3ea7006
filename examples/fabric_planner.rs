//! Domain scenario: a datacenter architect sizing the GPU-backend network for a new
//! training cluster. Compares fat-tree, rail-optimized and photonic (Opus) fabrics on
//! cost and power across cluster sizes, and checks which OCS technology can serve the
//! target scale (Table 3 + Fig. 7 as a planning tool).
//!
//! ```sh
//! cargo run --release --example fabric_planner -- 4096
//! ```
//! The optional argument is the target GPU count (default 8192).

use photonic_rails::cost::ocs_tech::{ocs_technologies, scaleup};
use photonic_rails::prelude::*;
use std::sync::Arc;

fn main() {
    let target_gpus: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8192);
    let target_gpus = target_gpus.next_multiple_of(8);
    println!("planning a GPU-backend network for {target_gpus} H200 GPUs\n");

    // 1. Capex and power for the three fabric options (Fig. 7).
    let model = GpuBackendCostModel::dgx_h200_400g();
    println!(
        "{:<16} {:>14} {:>14} {:>16} {:>14}",
        "fabric", "capex", "power", "switches/ports", "transceivers"
    );
    let mut rail_cost = None;
    let mut opus_cost = None;
    for kind in [
        FabricKind::FatTree,
        FabricKind::RailOptimized,
        FabricKind::Opus,
    ] {
        let cost = model.evaluate(kind, target_gpus);
        let hw = if kind == FabricKind::Opus {
            format!("{} OCS ports", cost.ocs_ports)
        } else {
            format!("{} switches", cost.electrical_switches)
        };
        println!(
            "{:<16} {:>13.2}M {:>13.1}kW {:>16} {:>14}",
            kind.name(),
            cost.capex_usd / 1e6,
            cost.power_watts / 1e3,
            hw,
            cost.transceivers
        );
        if kind == FabricKind::RailOptimized {
            rail_cost = Some(cost);
        }
        if kind == FabricKind::Opus {
            opus_cost = Some(cost);
        }
    }
    let (rail, opus) = (rail_cost.unwrap(), opus_cost.unwrap());
    println!(
        "\nOpus vs rail-optimized: {:.1}% cheaper, {:.2}% less power",
        100.0 * opus.capex_saving_vs(&rail),
        100.0 * opus.power_saving_vs(&rail)
    );

    // 2. Which OCS technology can actually reach this scale? (Table 3)
    println!("\nOCS technology options at this scale (per-rail switch, H200 nodes):");
    let endpoints_per_rail = target_gpus / 8;
    for tech in ocs_technologies() {
        let max_h200 = tech.max_gpus(scaleup::H200);
        let fits = max_h200 >= target_gpus;
        println!(
            "  {:28} radix {:>4}, reconfig {:>10} -> up to {:>6} GPUs  {}",
            tech.name,
            tech.radix,
            tech.reconfig_time.to_string(),
            max_h200,
            if fits {
                "OK"
            } else {
                "too small (needs multiple switches per rail)"
            }
        );
    }
    println!("  (each rail terminates {endpoints_per_rail} endpoints at this scale)");

    // 3. Sanity-check the performance cost of the chosen switch class on a small slice
    //    of the cluster (simulating the full cluster is unnecessary: the per-rail
    //    behaviour repeats).
    let slice = ClusterSpec::from_preset(NodePreset::DgxH200, 4).build();
    let modelcfg = ModelConfig::llama3_70b();
    let parallel = ParallelismConfig {
        tensor: 8,
        sequence_parallel: true,
        context: 1,
        expert: 1,
        data: 2,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 2,
        num_microbatches: 4,
        microbatch_size: 1,
        seq_len: 8192,
    };
    let compute = ComputeModel::derive(&modelcfg, &parallel, &GpuSpec::h100());
    let dag = Arc::new(DagBuilder::new(modelcfg, parallel, compute).build());
    let iteration_time = |config: OpusConfig| {
        let config = OpusConfig {
            iterations: 2,
            ..config
        };
        ScenarioSpec::new(slice.clone())
            .job(Arc::clone(&dag), config)
            .run()
            .jobs[0]
            .result
            .steady_state_iteration_time()
    };
    let baseline = iteration_time(OpusConfig::electrical());
    let piezo = iteration_time(OpusConfig::provisioned(SimDuration::from_millis(25)));
    println!(
        "\nperformance check on a 32-GPU slice: electrical {baseline} vs piezo-OCS Opus {piezo} ({:.1}% overhead)",
        100.0 * (piezo.as_secs_f64() / baseline.as_secs_f64() - 1.0)
    );
}
