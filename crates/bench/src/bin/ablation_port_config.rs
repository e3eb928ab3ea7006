//! Ablation for constraints C2/C3: static NIC port partitioning vs Opus-style
//! time-multiplexing. Reproduces the paper's §3 worked example (DGX H200, ConnectX-7 in
//! 1/2/4-port mode, DP+PP(+CP) sharing the scale-out rail) and reports per-axis
//! bandwidth under a static split, next to the reconfiguration count a time-multiplexed
//! rail pays instead.

use opus::{OpusConfig, ScenarioSpec};
use railsim_bench::{paper_dag, Report};
use railsim_collectives::{
    constraints::{AxisDemand, DegreeBudget},
    ParallelismAxis,
};
use railsim_sim::SimDuration;
use railsim_topology::{ClusterSpec, NicConfig, NodePreset};
use serde::Serialize;

#[derive(Serialize)]
struct PortRow {
    nic_mode: String,
    axes: String,
    static_feasible: bool,
    static_bandwidth_fraction: f64,
    infeasible_axes: String,
}

fn main() {
    let modes = [
        ("1x400G", NicConfig::connectx7_single(), 1usize),
        ("2x200G", NicConfig::connectx7_dual(), 2),
        ("4x100G", NicConfig::connectx7_quad(), 4),
    ];
    let axis_sets: [(&str, Vec<AxisDemand>); 2] = [
        (
            "DP + PP",
            vec![
                AxisDemand::ring(ParallelismAxis::Data, 8),
                AxisDemand::ring(ParallelismAxis::Pipeline, 8),
            ],
        ),
        (
            "DP + PP + CP",
            vec![
                AxisDemand::ring(ParallelismAxis::Data, 8),
                AxisDemand::ring(ParallelismAxis::Pipeline, 8),
                AxisDemand::ring(ParallelismAxis::Context, 8),
            ],
        ),
    ];

    let mut report = Report::new(
        "Ablation (C2/C3) — static NIC port partitioning on a photonic rail",
        &[
            "NIC mode",
            "scale-out axes",
            "static split feasible?",
            "BW fraction per axis",
            "axes that do not fit",
        ],
    );
    let mut rows = Vec::new();
    for (mode_name, nic, ports) in &modes {
        for (set_name, demands) in &axis_sets {
            let budget = DegreeBudget::new(*ports, nic.total_bandwidth.as_gbps());
            let analysis = budget.analyze(demands);
            let fraction = budget.even_split_fraction(demands.len());
            let infeasible = analysis
                .infeasible_axes()
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            report.row(&[
                mode_name.to_string(),
                set_name.to_string(),
                analysis.feasible.to_string(),
                format!("{fraction:.2}"),
                if infeasible.is_empty() {
                    "-".into()
                } else {
                    infeasible.clone()
                },
            ]);
            rows.push(PortRow {
                nic_mode: mode_name.to_string(),
                axes: set_name.to_string(),
                static_feasible: analysis.feasible,
                static_bandwidth_fraction: fraction,
                infeasible_axes: infeasible,
            });
        }
    }
    report.note(
        "paper §3: the 4-port split halves per-axis bandwidth (C3) and still cannot admit CP (C2)",
    );
    report.print();
    println!();

    // The time-multiplexed alternative: Opus gives the active axis the whole NIC and
    // pays reconfigurations instead. Count them on the paper workload with a 2-port NIC.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4)
        .with_nic(NicConfig::slingshot11_dual())
        .build();
    let config = OpusConfig {
        iterations: 2,
        compute_jitter: 0.0,
        seed: 5,
        ..OpusConfig::provisioned(SimDuration::from_millis(25))
    };
    let scenario = ScenarioSpec::new(cluster).job(paper_dag(), config).run();
    let result = &scenario.jobs[0].result;
    let mut tm = Report::new(
        "Time-multiplexed alternative (Opus, provisioned 25 ms OCS)",
        &["metric", "value"],
    );
    tm.row(&[
        "reconfigurations / iteration".into(),
        result
            .iterations
            .last()
            .map(|i| i.reconfig_count())
            .unwrap_or(0)
            .to_string(),
    ]);
    tm.row(&[
        "bandwidth available to the active axis".into(),
        "1.00 of the NIC".into(),
    ]);
    tm.print();

    Report::write_json("ablation_port_config", &rows);
}
