//! Fig. 7: GPU-backend network cost and power for fat-tree, rail-optimized and Opus
//! fabrics at 1024–8192 GPUs (DGX H200, 400 G optics), plus the §6 headline savings.
//!
//! With `--simulate`, each figure size is also *synthesized and executed*: a DGX H200
//! cluster of that size runs one provisioned-optical training iteration on the
//! event engine, demonstrating that the cost model's x-axis is a regime the
//! simulator actually covers (not just a spreadsheet row). Any other argument is
//! rejected.

use opus::ScenarioSpec;
use railsim_bench::{scale_run_config, scaled_cluster, scaled_dag, Report};
use railsim_cost::{FabricCost, FabricKind, GpuBackendCostModel};

fn simulated_iteration_table(sizes: &[u64]) {
    let mut report = Report::new(
        "Fig. 7 (companion) — simulated training iteration at each figure size",
        &[
            "# GPUs",
            "DAG tasks",
            "Iter time (s)",
            "Reconfigs",
            "Wall clock (s)",
        ],
    );
    for &n in sizes {
        let cluster = scaled_cluster(n as u32);
        let dag = scaled_dag(n as u32);
        let dag_tasks = dag.len();
        let wall = std::time::Instant::now();
        let scenario = ScenarioSpec::new(cluster)
            .job(dag, scale_run_config(2))
            .run();
        let result = &scenario.jobs[0].result;
        report.row(&[
            n.to_string(),
            dag_tasks.to_string(),
            format!("{:.3}", result.steady_state_iteration_time().as_secs_f64()),
            result.total_reconfigs().to_string(),
            format!("{:.2}", wall.elapsed().as_secs_f64()),
        ]);
    }
    report.note("provisioned optical, 25 ms OCS, TP=8 / PP=8 / FSDP");
    report.print();
}

fn main() {
    let mut simulate = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--simulate" => simulate = true,
            other => panic!("unknown argument {other}; the only option is --simulate"),
        }
    }
    let model = GpuBackendCostModel::dgx_h200_400g();
    let sizes = [1024u64, 2048, 4096, 8192];
    let rows: Vec<FabricCost> = model.sweep(&sizes);

    let mut cost_report = Report::new(
        "Fig. 7 (left) — GPU-backend network cost (USD)",
        &[
            "# GPUs",
            "Fat-tree",
            "Rail-optimized",
            "Opus",
            "Opus saving vs rail",
        ],
    );
    let mut power_report = Report::new(
        "Fig. 7 (right) — GPU-backend network power (W)",
        &[
            "# GPUs",
            "Fat-tree",
            "Rail-optimized",
            "Opus",
            "Opus saving vs rail",
        ],
    );
    for &n in &sizes {
        let get = |kind: FabricKind| -> &FabricCost {
            rows.iter()
                .find(|r| r.kind == kind && r.num_gpus == n)
                .expect("sweep covers every (kind, size) pair")
        };
        let ft = get(FabricKind::FatTree);
        let rail = get(FabricKind::RailOptimized);
        let opus = get(FabricKind::Opus);
        cost_report.row(&[
            n.to_string(),
            format!("{:.2}M", ft.capex_usd / 1e6),
            format!("{:.2}M", rail.capex_usd / 1e6),
            format!("{:.2}M", opus.capex_usd / 1e6),
            format!("{:.1}%", 100.0 * opus.capex_saving_vs(rail)),
        ]);
        power_report.row(&[
            n.to_string(),
            format!("{:.1}kW", ft.power_watts / 1e3),
            format!("{:.1}kW", rail.power_watts / 1e3),
            format!("{:.1}kW", opus.power_watts / 1e3),
            format!("{:.2}%", 100.0 * opus.power_saving_vs(rail)),
        ]);
    }
    cost_report.note("paper headline (§6): up to 70.5% cost saving vs the electrical rail fabric");
    power_report
        .note("paper headline (§6): up to 95.84% power saving vs the electrical rail fabric");
    cost_report.print();
    println!();
    power_report.print();
    if simulate {
        println!();
        simulated_iteration_table(&sizes);
    }

    Report::write_json("fig7_cost_power", &rows);
}
