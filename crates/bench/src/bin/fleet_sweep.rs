//! Fleet sweep: Monte Carlo capacity planning over the provisioning ladder.
//!
//! Evaluates a grid of scenario variants — provisioning levels × seeded
//! rail-failure traces — on the fleet service's worker pool and reports the
//! availability/cost frontier, with the cost axis priced by `railsim-cost`'s
//! provisioning ladder (component catalog + device-level DAC/ADC/laser tables).
//!
//! ```text
//! fleet_sweep [--gpus 256] [--variants 100] [--workers N] [--iterations 2]
//!             [--base-seed 42] [--verify-workers]
//! ```
//!
//! * `--gpus` — cluster size (positive multiple of 64; DGX H200 nodes).
//! * `--variants` — requested grid size; rounded up to a whole number of traces
//!   per provisioning level. The ladder is the 5 standard points plus a
//!   `+replan` twin (`RecoveryPolicy::Replan`, identical cost) for every optical
//!   point, so the frontier prices the failure-aware control plane directly.
//! * `--workers` — worker threads (default: available parallelism). The ordered
//!   results are byte-identical for any worker count.
//! * `--verify-workers` — additionally re-evaluate the sweep with 1 worker,
//!   assert the ordered results serialize identically, and report the speedup.
//!
//! Any other argument, or a flag missing its value, is rejected.
//!
//! The failure window calibrates itself from a clean electrical run: outages land
//! inside the job's real runtime, lasting 2–10 % of it. The sweep simulates each
//! distinct scenario once (a `+replan` twin's clean trace runs its stall level's
//! scenario), and the note under the frontier counts the scenarios it simulated.
//! Results land in `results/fleet_frontier.json`.

use opus::fleet::{FailureModel, FleetService, ProvisioningLevel, SweepSpec, VariantResult};
use opus::{JobPlacement, ReconfigPolicy, RecoveryPolicy};
use railsim_bench::{scaled_cluster_with_spare, scaled_dag, Report};
use railsim_cost::{standard_points, GpuBackendCostModel};
use railsim_sim::SimDuration;
use serde::Serialize;
use std::time::Instant;

/// The JSON payload of `results/fleet_frontier.json`.
#[derive(Debug, Serialize)]
struct FrontierReport {
    num_gpus: u32,
    iterations: u32,
    traces_per_level: u32,
    num_variants: usize,
    base_seed: u64,
    workers: u32,
    wall_seconds: f64,
    frontier: opus::fleet::Frontier,
    variants: Vec<VariantResult>,
}

/// The number after `flag`.
///
/// # Panics
/// Panics when `args` holds no value or the value is not a number.
fn number<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    args.next()
        .unwrap_or_else(|| panic!("{flag} needs a value"))
        .parse()
        .unwrap_or_else(|_| panic!("{flag} expects a number"))
}

fn main() {
    let mut num_gpus: u32 = 256;
    let mut requested_variants: usize = 100;
    let mut iterations: u32 = 2;
    let mut base_seed: u64 = 42;
    let mut workers: u32 = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(1);
    let mut verify_workers = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gpus" => num_gpus = number(&mut args, &arg),
            "--variants" => requested_variants = number(&mut args, &arg),
            "--iterations" => iterations = number(&mut args, &arg),
            "--base-seed" => base_seed = number(&mut args, &arg),
            "--workers" => workers = number(&mut args, &arg),
            "--verify-workers" => verify_workers = true,
            other => panic!("unknown argument {other}; see the crate docs"),
        }
    }

    // The provisioning ladder: electrical baseline + photonic points, priced by the
    // component catalog and the device-level tables.
    let cost_model = GpuBackendCostModel::dgx_h200_400g();
    let base_levels: Vec<ProvisioningLevel> = standard_points(&cost_model, num_gpus as u64)
        .into_iter()
        .map(|p| ProvisioningLevel {
            label: p.label,
            policy: if p.optical {
                ReconfigPolicy::Provisioned
            } else {
                ReconfigPolicy::Electrical
            },
            recovery: RecoveryPolicy::Stall,
            reconfig_latency: p.reconfig_latency,
            capex_usd: p.capex_usd,
            power_watts: p.power_watts,
        })
        .collect();
    // Every optical point gets a replan twin at identical cost, so the frontier
    // ranks the availability the failure-aware control plane buys per OCS class.
    let levels: Vec<ProvisioningLevel> = base_levels
        .iter()
        .cloned()
        .chain(
            base_levels
                .iter()
                .filter(|l| l.policy.is_optical())
                .map(|l| l.clone().with_recovery(RecoveryPolicy::Replan)),
        )
        .collect();
    // Two placement cells: the packed reference at GPU 0, and the same job shifted
    // half a node into the spare capacity. The half-node offset de-aligns every
    // rank from its standalone rail, so failure traces hit a genuinely different
    // circuit layout — the placement axis stops being a degenerate single cell.
    let placements = vec![JobPlacement::Auto, JobPlacement::AtGpu(4)];
    let cells = levels.len() * placements.len();
    let traces_per_level = (requested_variants.div_ceil(cells).max(2)) as u32;

    println!(
        "fleet sweep: {num_gpus} GPUs, {} levels x {} placements x {traces_per_level} traces = {} variants, {workers} workers",
        levels.len(),
        placements.len(),
        cells * traces_per_level as usize
    );

    // One spare node gives the shifted placement cell room at the top end.
    let service = FleetService::new(scaled_cluster_with_spare(num_gpus, 1));
    let template = format!("{num_gpus}-h200/llama3-8b-tp8-pp8-fsdp");
    service.dag_template(&template, || scaled_dag(num_gpus));

    // Calibrate the failure window from a clean electrical run so outages land
    // inside the job's actual runtime.
    let calibration = SweepSpec {
        template: template.clone(),
        base_seed,
        iterations,
        traces_per_level: 1,
        levels: vec![levels[0].clone()],
        ..SweepSpec::default()
    };
    let clean_end = service.evaluate(&calibration).variants[0].job_end;
    let runtime = SimDuration::from_nanos(clean_end.as_nanos().max(1));
    let failures = FailureModel {
        max_outages: 2,
        window: SimDuration::from_nanos(runtime.as_nanos() * 4 / 5),
        min_outage: SimDuration::from_nanos((runtime.as_nanos() / 50).max(1)),
        max_outage: SimDuration::from_nanos((runtime.as_nanos() / 10).max(1)),
    };
    println!(
        "calibration: clean runtime {runtime}, outage window {}",
        failures.window
    );

    let sweep = SweepSpec {
        template,
        base_seed,
        iterations,
        traces_per_level,
        levels,
        placements,
        failures,
        workers,
    };

    let started = Instant::now();
    let mut done = 0usize;
    let total = sweep.num_variants();
    let report = service.evaluate_streaming(&sweep, |v| {
        done += 1;
        println!(
            "  [{done}/{total}] variant {:3}  level {} cell {} trace {:2}  job_end {}  waits {}",
            v.variant, v.level, v.placement, v.trace, v.job_end, v.circuit_wait
        );
    });
    let wall = started.elapsed().as_secs_f64();

    if verify_workers {
        let mut sequential = sweep.clone();
        sequential.workers = 1;
        let seq_started = Instant::now();
        let seq_report = service.evaluate(&sequential);
        let seq_wall = seq_started.elapsed().as_secs_f64();
        let pooled_bytes = serde_json::to_string_pretty(&report.variants).expect("serialize");
        let seq_bytes = serde_json::to_string_pretty(&seq_report.variants).expect("serialize");
        assert_eq!(
            pooled_bytes, seq_bytes,
            "worker count changed the ordered variant results"
        );
        println!(
            "worker check: {workers}-worker and 1-worker results byte-identical; wall {wall:.2}s vs {seq_wall:.2}s ({:.2}x)",
            seq_wall / wall.max(1e-9)
        );
    }

    let mut table = Report::new(
        "Availability/cost frontier",
        &[
            "level",
            "latency",
            "capex $",
            "power W",
            "availability",
            "P50 makespan",
            "P99 makespan",
            "pareto",
        ],
    );
    for level in &report.frontier.levels {
        table.row(&[
            level.label.clone(),
            format!("{}", level.reconfig_latency),
            format!("{:.0}", level.capex_usd),
            format!("{:.0}", level.power_watts),
            format!("{:.4}", level.availability),
            format!("{}", level.makespan.p50),
            format!("{}", level.makespan.p99),
            if level.pareto {
                "*".to_string()
            } else {
                String::new()
            },
        ]);
    }
    table.note(format!(
        "{total} variants ({} simulated) in {wall:.2}s on {workers} workers; {} Pareto points",
        report.scenarios_run,
        report.frontier.pareto_points()
    ));
    println!("{}", table.render());

    Report::write_json(
        "fleet_frontier",
        &FrontierReport {
            num_gpus,
            iterations,
            traces_per_level,
            num_variants: total,
            base_seed,
            workers,
            wall_seconds: wall,
            frontier: report.frontier,
            variants: report.variants,
        },
    );
}
