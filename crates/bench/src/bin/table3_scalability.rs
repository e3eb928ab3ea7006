//! Table 3: the OCS technology scalability–latency trade-off
//! (`#GPUs = scale-up size × radix / 2`), plus the datacenter-scale *simulated*
//! scalability runs that back it up: synthesized 1k–10k GPU clusters executed by the
//! event engine under the electrical baseline and the provisioned optical policy.
//!
//! ```text
//! table3_scalability [--gpus 1024,4096,10240,102400,1024000] [--iterations 2]
//!                    [--policy electrical|optical|replan|both]
//!                    [--scenario clean|rail-flap|two-job] [--no-memo] [--skip-sim]
//! ```
//!
//! `--gpus` accepts a comma-separated list of cluster sizes (positive multiples of
//! 64); the default runs the 1024-GPU point so the binary stays interactive, and the
//! CI scale-smoke steps run the 1k point, the 10k and 100k points with
//! `--policy optical`, and the 1k `rail-flap` / `two-job` scenario points under
//! `timeout 120`. The full paper regime is `--gpus 1024,4096,10240`; `--gpus 102400`
//! exercises the 100k-GPU ceiling (columnar DAG + dense controller state +
//! port-indexed OCS matching; see EXPERIMENTS.md for the memory budget);
//! `--gpus 1024000` is the million-GPU regime — a documented manual run (see
//! EXPERIMENTS.md for its memory budget). Every run steps one sequential event loop.
//! `--policy` restricts a point to one network policy (the default runs the
//! electrical baseline and the provisioned optical policy back to back); `replan`
//! runs the provisioned optical policy with `RecoveryPolicy::Replan`, so a
//! `rail-flap` point reports the degraded-schedule inflation instead of the stall.
//!
//! `--scenario` selects what runs at each scale point (all three land in
//! `results/table3_scale.json`, tagged by the `scenario` field):
//!
//! * `clean` (default) — the classic single pristine job.
//! * `rail-flap` — the same job, plus a `RailDown(rail0)` → `RailUp` pulse a quarter
//!   into iteration 1 lasting half an iteration; the clean reference point is
//!   emitted alongside so the JSON carries the inflation.
//! * `two-job` — two half-size jobs packed side by side on the shared rails (needs a
//!   GPU count that is a positive multiple of 128); one row per job, fleet-level
//!   cross-job overlap counters attached.
//!
//! `--no-memo` disables steady-state iteration memoization (`memoize_steady_state`)
//! so many-iteration runs re-step every iteration — the naive control for measuring
//! the fast-forward speedup (both paths produce byte-identical metrics).
//!
//! `--skip-sim` prints only the OCS technology table.

use opus::{
    OpusConfig, ReconfigPolicy, RecoveryPolicy, ScenarioEvent, ScenarioResult, ScenarioSpec,
};
use railsim_bench::{mem, scale_run_config, scaled_cluster, scaled_dag, Report};
use railsim_cost::ocs_tech::{ocs_technologies, scaleup};
use railsim_sim::SimDuration;
use railsim_topology::RailId;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// One simulated scalability data point, written to `results/table3_scale.json`.
#[derive(Debug, Clone, Serialize)]
struct ScaleRun {
    num_gpus: u32,
    num_rails: u32,
    /// Which scenario produced the point: `clean`, `rail-flap` or `two-job`.
    scenario: &'static str,
    /// The job this row describes (0 except in multi-job scenarios).
    job: u32,
    /// Number of jobs sharing the fabric in this run.
    num_jobs: u32,
    policy: &'static str,
    dag_tasks: usize,
    iterations: u32,
    /// Iterations of this job replayed from the steady-state memo instead of
    /// stepped (0 with `--no-memo`, for multi-job runs and below 3 iterations).
    memoized_iterations: u64,
    steady_iteration_time_s: f64,
    total_reconfigs: usize,
    /// Total circuit/outage wait of the job across all iterations, in seconds.
    circuit_wait_s: f64,
    /// Injected rail failures applied during the run (0 for clean runs).
    rail_failures: u64,
    /// Cross-job rail-overlap contention events, summed over rails (0 unless the
    /// scenario runs several jobs).
    cross_job_overlaps: u64,
    /// Wall clock of the whole scenario run this row came from (shared by every row
    /// of a multi-job run).
    wall_clock_s: f64,
    /// Engine events (a `Ready` and a `Done` per task) of the run's *stepped*
    /// iterations per wall-clock second; fast-forwarded iterations pop no task
    /// events.
    events_per_sec: f64,
    /// Peak resident set over DAG build + every run of this GPU count that the
    /// `--policy` filter selected, in MiB (kernel `VmHWM`, reset per scale point
    /// where the platform allows; `None` when procfs is unavailable).
    peak_rss_mib: Option<f64>,
    /// Lifetime circuits set up per rail (index == rail id); empty for the
    /// electrical policy. Makes reconfiguration churn visible per scale point
    /// instead of only through wall-clock time.
    circuits_set_up_by_rail: Vec<u64>,
    /// Lifetime circuits torn down per rail (index == rail id); empty for the
    /// electrical policy.
    circuits_torn_down_by_rail: Vec<u64>,
}

/// Which network policies a scale point runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PolicyFilter {
    Electrical,
    Optical,
    /// The provisioned optical policy with `RecoveryPolicy::Replan`.
    Replan,
    Both,
}

/// What runs at each scale point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScenarioKind {
    Clean,
    RailFlap,
    TwoJob,
}

impl ScenarioKind {
    fn name(self) -> &'static str {
        match self {
            ScenarioKind::Clean => "clean",
            ScenarioKind::RailFlap => "rail-flap",
            ScenarioKind::TwoJob => "two-job",
        }
    }
}

struct Args {
    gpus: Vec<u32>,
    iterations: u32,
    policy: PolicyFilter,
    scenario: ScenarioKind,
    memoize: bool,
    skip_sim: bool,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        gpus: vec![1024u32],
        iterations: 2,
        policy: PolicyFilter::Both,
        scenario: ScenarioKind::Clean,
        memoize: true,
        skip_sim: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--gpus" => {
                let list = args.next().expect("--gpus needs a comma-separated list");
                parsed.gpus = list
                    .split(',')
                    .map(|s| s.trim().parse().expect("--gpus entries must be integers"))
                    .collect();
            }
            "--iterations" => {
                parsed.iterations = args
                    .next()
                    .expect("--iterations needs a value")
                    .parse()
                    .expect("--iterations must be an integer");
                assert!(parsed.iterations > 0, "--iterations must be positive");
            }
            "--policy" => {
                parsed.policy = match args.next().expect("--policy needs a value").as_str() {
                    "electrical" => PolicyFilter::Electrical,
                    "optical" => PolicyFilter::Optical,
                    "replan" => PolicyFilter::Replan,
                    "both" => PolicyFilter::Both,
                    other => {
                        panic!("--policy must be electrical, optical, replan or both, got {other}")
                    }
                };
            }
            "--scenario" => {
                parsed.scenario = match args.next().expect("--scenario needs a value").as_str() {
                    "clean" => ScenarioKind::Clean,
                    "rail-flap" => ScenarioKind::RailFlap,
                    "two-job" => ScenarioKind::TwoJob,
                    other => panic!("--scenario must be clean, rail-flap or two-job, got {other}"),
                };
            }
            "--no-memo" => parsed.memoize = false,
            "--skip-sim" => parsed.skip_sim = true,
            other => panic!("unknown argument {other}; see the crate docs"),
        }
    }
    // The rail-flap pulse is placed relative to iteration 1, so only that scenario
    // needs a second iteration; clean and two-job runs stay valid with one.
    assert!(
        parsed.scenario != ScenarioKind::RailFlap || parsed.iterations >= 2,
        "--scenario rail-flap places its pulse relative to iteration 1; run at least 2 iterations"
    );
    parsed
}

fn tech_table() {
    let mut report = Report::new(
        "Table 3 — Opus scalability–latency tradeoff",
        &[
            "OCS Tech",
            "Reconfig. time (ms)",
            "Radix (ports)",
            "# GPUs (GB200)",
            "# GPUs (H200)",
        ],
    );
    let techs = ocs_technologies();
    for tech in &techs {
        report.row(&[
            tech.name.to_string(),
            format!("{:.5}", tech.reconfig_time.as_millis_f64()),
            tech.radix.to_string(),
            tech.max_gpus(scaleup::GB200).to_string(),
            tech.max_gpus(scaleup::H200).to_string(),
        ]);
    }
    report.note(
        "# GPUs = scale-up size x radix / 2 (2-port NIC configuration, bidirectional transceivers)",
    );
    report.note("the paper identifies Piezo and 3D MEMS as the sweet spot: tens of ms reconfiguration, hundreds of ports");
    report.print();
    Report::write_json("table3_scalability", &techs);
}

/// Flattens one scenario run into JSON rows (one per job).
#[allow(clippy::too_many_arguments)]
fn rows_of(
    result: &ScenarioResult,
    num_gpus: u32,
    num_rails: u32,
    scenario: &'static str,
    policy: &'static str,
    dag_tasks: usize,
    iterations: u32,
    wall_clock_s: f64,
) -> Vec<ScaleRun> {
    let stepped: u64 = result
        .jobs
        .iter()
        .map(|job| u64::from(iterations) - job.memoized_iterations)
        .sum();
    let events = 2.0 * dag_tasks as f64 * stepped as f64;
    result
        .jobs
        .iter()
        .map(|job| ScaleRun {
            num_gpus,
            num_rails,
            scenario,
            job: job.job.0,
            num_jobs: result.jobs.len() as u32,
            policy,
            dag_tasks,
            iterations,
            memoized_iterations: job.memoized_iterations,
            steady_iteration_time_s: job.result.steady_state_iteration_time().as_secs_f64(),
            total_reconfigs: job.result.total_reconfigs(),
            circuit_wait_s: job
                .result
                .iterations
                .iter()
                .map(|i| i.total_circuit_wait.as_secs_f64())
                .sum(),
            rail_failures: result.fleet.rail_failures.iter().sum(),
            cross_job_overlaps: result.fleet.cross_job_rail_overlaps.iter().sum(),
            wall_clock_s,
            events_per_sec: events / wall_clock_s.max(1e-9),
            peak_rss_mib: None, // filled in once the whole point has run
            circuits_set_up_by_rail: result.fleet.circuits_set_up_by_rail.clone(),
            circuits_torn_down_by_rail: result.fleet.circuits_torn_down_by_rail.clone(),
        })
        .collect()
}

/// `memoized k/N`: iterations the run fast-forwarded out of all its jobs'
/// iterations, for the per-run wall-clock line.
fn memo_note(result: &ScenarioResult, iterations: u32) -> String {
    let memoized: u64 = result.jobs.iter().map(|job| job.memoized_iterations).sum();
    let total = u64::from(iterations) * result.jobs.len() as u64;
    format!("memoized {memoized}/{total}")
}

fn run_scale_point(
    num_gpus: u32,
    iterations: u32,
    policy: PolicyFilter,
    scenario: ScenarioKind,
    memoize: bool,
) -> Vec<ScaleRun> {
    // Return the previous point's freed memory to the OS, then reset the kernel's
    // peak-RSS watermark so this point's reading covers only its own DAG +
    // simulator state (best-effort; cumulative where unsupported).
    railsim_workload::release_free_heap();
    mem::reset_peak_rss();
    let cluster = scaled_cluster(num_gpus);
    let num_rails = cluster.num_rails();
    let job_gpus = match scenario {
        ScenarioKind::TwoJob => {
            assert!(
                num_gpus.is_multiple_of(128),
                "--scenario two-job packs two half-size jobs; the GPU count must be a \
                 positive multiple of 128, got {num_gpus}"
            );
            num_gpus / 2
        }
        _ => num_gpus,
    };
    let build_start = Instant::now();
    let dag = Arc::new(scaled_dag(job_gpus));
    let dag_tasks = dag.len();
    eprintln!(
        "[{num_gpus} GPUs] built {dag_tasks}-task DAG in {:.2}s ({})",
        build_start.elapsed().as_secs_f64(),
        scenario.name(),
    );

    let mut provisioned = scale_run_config(iterations);
    if !memoize {
        provisioned.memoize_steady_state = false;
    }
    let mut configs: Vec<(&'static str, OpusConfig)> = Vec::new();
    if matches!(policy, PolicyFilter::Electrical | PolicyFilter::Both) {
        let electrical = OpusConfig {
            policy: ReconfigPolicy::Electrical,
            reconfig_latency: SimDuration::ZERO,
            ..provisioned
        };
        configs.push(("electrical", electrical));
    }
    if matches!(policy, PolicyFilter::Optical | PolicyFilter::Both) {
        configs.push(("optical provisioned 25ms", provisioned));
    }
    if policy == PolicyFilter::Replan {
        let mut replanned = provisioned;
        replanned.recovery_policy = RecoveryPolicy::Replan;
        configs.push(("optical provisioned 25ms replan", replanned));
    }
    // Every run shares the one DAG: scenarios read its columns through the `Arc`, so
    // no run copies the (at 100k GPUs, ~8.9M-task) tables. The rows read only
    // aggregates, so no run keeps its per-transfer records either.
    let mut runs = Vec::new();
    for (policy_name, config) in configs {
        match scenario {
            ScenarioKind::Clean => {
                let wall = Instant::now();
                let result = ScenarioSpec::new(cluster.clone())
                    .job(Arc::clone(&dag), config)
                    .run_without_records();
                let wall_clock_s = wall.elapsed().as_secs_f64();
                runs.extend(rows_of(
                    &result,
                    num_gpus,
                    num_rails,
                    "clean",
                    policy_name,
                    dag_tasks,
                    iterations,
                    wall_clock_s,
                ));
                eprintln!(
                    "[{num_gpus} GPUs] {policy_name}: {wall_clock_s:.2}s wall clock, {}",
                    memo_note(&result, iterations)
                );
            }
            ScenarioKind::RailFlap => {
                // The clean reference run both calibrates the pulse (a quarter into
                // iteration 1, half an iteration long) and lands in the JSON so the
                // inflation is computable from the artifact alone.
                let wall = Instant::now();
                let clean = ScenarioSpec::new(cluster.clone())
                    .job(Arc::clone(&dag), config)
                    .run_without_records();
                let clean_wall = wall.elapsed().as_secs_f64();
                let it1 = &clean.jobs[0].result.iterations[1];
                let down = it1.started_at + it1.iteration_time.mul_f64(0.25);
                let up = down + it1.iteration_time.mul_f64(0.5);
                let wall = Instant::now();
                let flapped = ScenarioSpec::new(cluster.clone())
                    .job(Arc::clone(&dag), config)
                    .inject(down, ScenarioEvent::RailDown(RailId(0)))
                    .inject(up, ScenarioEvent::RailUp(RailId(0)))
                    .run_without_records();
                let flap_wall = wall.elapsed().as_secs_f64();
                runs.extend(rows_of(
                    &clean,
                    num_gpus,
                    num_rails,
                    "clean",
                    policy_name,
                    dag_tasks,
                    iterations,
                    clean_wall,
                ));
                runs.extend(rows_of(
                    &flapped,
                    num_gpus,
                    num_rails,
                    "rail-flap",
                    policy_name,
                    dag_tasks,
                    iterations,
                    flap_wall,
                ));
                eprintln!(
                    "[{num_gpus} GPUs] {policy_name}: clean {clean_wall:.2}s ({}) + rail-flap \
                     {flap_wall:.2}s ({}) wall clock",
                    memo_note(&clean, iterations),
                    memo_note(&flapped, iterations)
                );
            }
            ScenarioKind::TwoJob => {
                let wall = Instant::now();
                let result = ScenarioSpec::new(cluster.clone())
                    .job(Arc::clone(&dag), config)
                    .job(Arc::clone(&dag), config)
                    .run_without_records();
                let wall_clock_s = wall.elapsed().as_secs_f64();
                runs.extend(rows_of(
                    &result,
                    num_gpus,
                    num_rails,
                    "two-job",
                    policy_name,
                    dag_tasks,
                    iterations,
                    wall_clock_s,
                ));
                eprintln!(
                    "[{num_gpus} GPUs] {policy_name} two-job: {wall_clock_s:.2}s wall clock, {}",
                    memo_note(&result, iterations)
                );
            }
        }
    }
    let peak = mem::peak_rss_mib();
    if let Some(mib) = peak {
        eprintln!("[{num_gpus} GPUs] peak RSS {mib:.0} MiB");
    }
    for run in &mut runs {
        run.peak_rss_mib = peak;
    }
    runs
}

fn main() {
    let args = parse_args();
    tech_table();
    if args.skip_sim {
        return;
    }

    let mut report = Report::new(
        "Table 3 (simulated) — datacenter-scale scalability runs",
        &[
            "# GPUs",
            "Scenario",
            "Job",
            "Policy",
            "DAG tasks",
            "Iter time (s)",
            "Reconfigs",
            "Circ wait (s)",
            "Fails",
            "Overlaps",
            "Wall clock (s)",
            "Peak RSS (MiB)",
        ],
    );
    let mut all_runs = Vec::new();
    for &n in &args.gpus {
        for run in run_scale_point(n, args.iterations, args.policy, args.scenario, args.memoize) {
            report.row(&[
                run.num_gpus.to_string(),
                run.scenario.to_string(),
                run.job.to_string(),
                run.policy.to_string(),
                run.dag_tasks.to_string(),
                format!("{:.3}", run.steady_iteration_time_s),
                run.total_reconfigs.to_string(),
                format!("{:.3}", run.circuit_wait_s),
                run.rail_failures.to_string(),
                run.cross_job_overlaps.to_string(),
                format!("{:.2}", run.wall_clock_s),
                run.peak_rss_mib
                    .map_or_else(|| "n/a".to_string(), |m| format!("{m:.0}")),
            ]);
            all_runs.push(run);
        }
    }
    report.note("DGX H200 nodes, TP=8 / PP=8 / FSDP over the rest, 8 micro-batches, 1F1B");
    report.note("full paper regime: --gpus 1024,4096,10240; 100k ceiling: --gpus 102400; 1M regime: --gpus 1024000 --policy optical (manual; see EXPERIMENTS.md)");
    report.note("scenarios: clean | rail-flap (RailDown pulse in iteration 1, clean reference emitted too) | two-job (two half-size jobs on shared rails)");
    let policies_note = match args.policy {
        PolicyFilter::Electrical => "the electrical run",
        PolicyFilter::Optical => "the optical run",
        PolicyFilter::Replan => "the optical replan run",
        PolicyFilter::Both => "both policies",
    };
    report.note(format!(
        "peak RSS covers DAG build + {policies_note} of the GPU count (VmHWM, reset per point)"
    ));
    report.note("per-rail circuit churn split is in the JSON (circuits_set_up_by_rail / circuits_torn_down_by_rail)");
    println!();
    report.print();
    Report::write_json("table3_scale", &all_runs);
}
