//! Ablation: what provisioning actually buys — circuit-wait time summed over every
//! transfer of an iteration (not only the waits on the critical path), reconfiguration
//! counts and no-op request rates across policies, at a fixed piezo-class (25 ms)
//! switching delay.

use opus::{OpusConfig, ReconfigPolicy, ScenarioSpec};
use railsim_bench::{paper_cluster, paper_dag, Report};
use railsim_sim::SimDuration;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct AblationRow {
    policy: String,
    iteration_time_s: f64,
    total_circuit_wait_s: f64,
    reconfigs_per_iteration: f64,
    controller_requests: u64,
    noop_requests: u64,
}

fn main() {
    const ITERATIONS: u32 = 4;
    let cluster = paper_cluster();
    let dag = Arc::new(paper_dag());
    let latency = SimDuration::from_millis(25);

    let configs = [
        OpusConfig::electrical(),
        OpusConfig::on_demand(latency),
        OpusConfig::provisioned(latency),
    ];

    let mut report = Report::new(
        "Ablation — provisioning at a 25 ms piezo OCS (Llama3-8B, TP=4, DP=PP=2)",
        &[
            "policy",
            "iter time (s)",
            "circuit wait, summed (s)",
            "reconfigs/iter",
            "requests",
            "no-op requests",
        ],
    );
    let mut rows = Vec::new();
    for config in configs {
        let config = OpusConfig {
            iterations: ITERATIONS,
            compute_jitter: 0.0,
            seed: 3,
            ..config
        };
        let scenario = ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run();
        let result = &scenario.jobs[0].result;
        let steady: Vec<_> = result.iterations.iter().skip(1).collect();
        let iter_time = result.steady_state_iteration_time().as_secs_f64();
        let wait: f64 = steady
            .iter()
            .map(|i| i.total_circuit_wait.as_secs_f64())
            .sum::<f64>()
            / steady.len() as f64;
        let reconfigs =
            steady.iter().map(|i| i.reconfig_count()).sum::<usize>() as f64 / steady.len() as f64;
        let requests = scenario.fleet.controller_requests;
        let noops = scenario.fleet.noop_requests;
        let name = match config.policy {
            ReconfigPolicy::Electrical => "electrical baseline",
            ReconfigPolicy::OnDemand => "optical, on-demand",
            ReconfigPolicy::Provisioned => "optical, provisioned",
        };
        report.row(&[
            name.to_string(),
            format!("{iter_time:.3}"),
            format!("{wait:.3}"),
            format!("{reconfigs:.1}"),
            requests.to_string(),
            noops.to_string(),
        ]);
        rows.push(AblationRow {
            policy: name.to_string(),
            iteration_time_s: iter_time,
            total_circuit_wait_s: wait,
            reconfigs_per_iteration: reconfigs,
            controller_requests: requests,
            noop_requests: noops,
        });
    }
    report.note("most controller requests are no-ops: Opus only reconfigures when the demand matrix changes (Objective 2)");
    report.print();
    Report::write_json("ablation_provisioning", &rows);
}
