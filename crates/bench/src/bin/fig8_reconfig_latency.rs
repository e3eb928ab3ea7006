//! Fig. 8: normalized iteration time as a function of the OCS reconfiguration latency,
//! with and without provisioning, for the Llama3-8B 3D-parallel workload.
//!
//! The `latency = 0` case is the fully connected electrical baseline every other point
//! is normalized against.

use opus::{OpusConfig, ScenarioSpec, SimulationResult};
use railsim_bench::{fig8_latencies_ms, paper_cluster, paper_dag_large_batch, Report};
use railsim_sim::SimDuration;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct Fig8Point {
    reconfig_latency_ms: f64,
    normalized_without_provisioning: f64,
    normalized_with_provisioning: f64,
    reconfigs_per_iteration_on_demand: f64,
    reconfigs_per_iteration_provisioned: f64,
}

fn main() {
    const ITERATIONS: u32 = 3;
    let cluster = paper_cluster();
    let dag = Arc::new(paper_dag_large_batch());
    let run = |base: OpusConfig| -> SimulationResult {
        let config = OpusConfig {
            iterations: ITERATIONS,
            compute_jitter: 0.0,
            seed: 1,
            ..base
        };
        ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run()
            .jobs
            .remove(0)
            .result
    };

    let baseline = run(OpusConfig::electrical());
    let baseline_time = baseline.steady_state_iteration_time();

    let mut report = Report::new(
        "Fig. 8 — normalized iteration time vs reconfiguration latency (Llama3-8B, TP=4, DP=PP=2)",
        &[
            "latency (ms)",
            "without provisioning",
            "with provisioning",
            "reconfigs/iter",
        ],
    );
    report.row(&[
        "0 (electrical baseline)".to_string(),
        "1.00".to_string(),
        "1.00".to_string(),
        "0".to_string(),
    ]);

    let mut points = Vec::new();
    for latency_ms in fig8_latencies_ms() {
        let latency = SimDuration::from_millis_f64(latency_ms);
        let on_demand = run(OpusConfig::on_demand(latency));
        let provisioned = run(OpusConfig::provisioned(latency));
        let norm_od =
            on_demand.steady_state_iteration_time().as_secs_f64() / baseline_time.as_secs_f64();
        let norm_pr =
            provisioned.steady_state_iteration_time().as_secs_f64() / baseline_time.as_secs_f64();
        let steady_iters = (ITERATIONS - 1).max(1) as f64;
        let reconf_od = on_demand
            .iterations
            .iter()
            .skip(1)
            .map(|i| i.reconfig_count())
            .sum::<usize>() as f64
            / steady_iters;
        let reconf_pr = provisioned
            .iterations
            .iter()
            .skip(1)
            .map(|i| i.reconfig_count())
            .sum::<usize>() as f64
            / steady_iters;
        report.row(&[
            format!("{latency_ms}"),
            format!("{norm_od:.3}"),
            format!("{norm_pr:.3}"),
            format!("{reconf_od:.0} / {reconf_pr:.0}"),
        ]);
        points.push(Fig8Point {
            reconfig_latency_ms: latency_ms,
            normalized_without_provisioning: norm_od,
            normalized_with_provisioning: norm_pr,
            reconfigs_per_iteration_on_demand: reconf_od,
            reconfigs_per_iteration_provisioned: reconf_pr,
        });
    }
    report.note(format!(
        "baseline (electrical) iteration time: {:.3} s",
        baseline_time.as_secs_f64()
    ));
    report.note("paper: 6.5% (without) / 3.5% (with provisioning) increase at 100 ms; 1.65x / 1.47x at 1000 ms");
    report.print();

    Report::write_json("fig8_reconfig_latency", &points);
}
