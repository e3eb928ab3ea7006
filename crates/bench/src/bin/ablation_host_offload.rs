//! Ablation for the paper's §5 discussion: offloading small, bursty collectives (the
//! optimizer-phase sync AllReduces) to the host packet-switched network instead of
//! reconfiguring the optical rails for them. Sweeps the reconfiguration latency and
//! compares provisioned photonic rails with and without host offload.

use opus::{HostOffload, OpusConfig, ScenarioSpec, SimulationResult};
use railsim_bench::{paper_cluster, paper_dag, Report};
use railsim_sim::SimDuration;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct OffloadRow {
    latency_ms: f64,
    normalized_provisioned: f64,
    normalized_provisioned_with_offload: f64,
    reconfigs_plain: usize,
    reconfigs_offload: usize,
}

fn main() {
    const ITERATIONS: u32 = 3;
    let cluster = paper_cluster();
    let dag = Arc::new(paper_dag());
    let run = |base: OpusConfig| -> SimulationResult {
        let config = OpusConfig {
            iterations: ITERATIONS,
            compute_jitter: 0.0,
            seed: 13,
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
    let base = baseline.steady_state_iteration_time().as_secs_f64();

    let mut report = Report::new(
        "Ablation (§5) — offloading sub-MB collectives to the host network",
        &[
            "latency (ms)",
            "provisioned",
            "provisioned + offload",
            "reconfigs/iter (plain/offload)",
        ],
    );
    let mut rows = Vec::new();
    for latency_ms in [1.0f64, 15.0, 25.0, 100.0, 500.0] {
        let latency = SimDuration::from_millis_f64(latency_ms);
        let plain = run(OpusConfig::provisioned(latency));
        let offload = run(OpusConfig {
            host_offload: Some(HostOffload::frontend_100g()),
            ..OpusConfig::provisioned(latency)
        });
        let n_plain = plain.steady_state_iteration_time().as_secs_f64() / base;
        let n_off = offload.steady_state_iteration_time().as_secs_f64() / base;
        let r_plain = plain
            .iterations
            .last()
            .map(|i| i.reconfig_count())
            .unwrap_or(0);
        let r_off = offload
            .iterations
            .last()
            .map(|i| i.reconfig_count())
            .unwrap_or(0);
        report.row(&[
            format!("{latency_ms}"),
            format!("{n_plain:.3}"),
            format!("{n_off:.3}"),
            format!("{r_plain} / {r_off}"),
        ]);
        rows.push(OffloadRow {
            latency_ms,
            normalized_provisioned: n_plain,
            normalized_provisioned_with_offload: n_off,
            reconfigs_plain: r_plain,
            reconfigs_offload: r_off,
        });
    }
    report.note("offload target: 100 Gbps host network, 50 us step latency, 1 MB threshold");
    report.note("paper §5: small, high-incast traffic 'could also be off-loaded to the host-based packet switched network'");
    report.print();
    Report::write_json("ablation_host_offload", &rows);
}
