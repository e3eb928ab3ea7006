//! The benchmark workloads: inputs generated from the seed, the timed calls into the
//! simulator's public API, and the output checks.

use crate::trace::Tracer;
use opus::{
    ArrivalProcess, EvictionPolicy, FailureModel, FleetService, JobPlacement, OpusConfig,
    ProvisioningLevel, ReconfigPolicy, RecoveryPolicy, ScenarioEvent, ScenarioResult, ScenarioSpec,
    ServingSpec, SweepSpec,
};
use railsim_bench::{mem, scaled_parallelism};
use railsim_cost::{standard_points, GpuBackendCostModel};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{Cluster, ClusterSpec, NodePreset, RailId};
use railsim_workload::{
    ComputeModel, DagBuilder, GpuSpec, InferenceConfig, InferenceDagBuilder, JobId, ModelConfig,
    TrainingDag,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Reconfiguration latency of the piezo-class OCS on every optical rail.
const OCS_LATENCY: SimDuration = SimDuration::from_millis(25);

/// `train-steady-10k`: one clean Llama3-8B job, TP8/PP8/FSDP160.
const TRAIN_GPUS: u32 = 10_240;
const TRAIN_ITERATIONS: u32 = 16;

/// `mixed-tenancy-flap-4k`: a 4,096-GPU trainer sharing every rail with a 2x64-GPU
/// serving deployment placed half a node in.
const MIXED_GPUS: u32 = 4_096;
const MIXED_ITERATIONS: u32 = 6;
/// Half a DGX node in: a job placed here lands every rank off its standalone rail.
const HALF_NODE_GPU: u32 = 4;
/// The trainer's nominal iteration time, which lays out the injected timeline.
const MIXED_NOMINAL_ITERATION: SimDuration = SimDuration::from_millis(1_800);
/// Seeded open-loop arrivals, about 400 requests over the trainer's six iterations.
const MIXED_MEAN_INTERARRIVAL: SimDuration = SimDuration::from_millis(40);
const MIXED_MAX_BURST: u32 = 2;
/// A standing backlog at time zero. With it the tenant never drains its queue while
/// the trainer runs, so both jobs step the same timeline for every seed and the
/// seed moves only which requests wait how long. Without it, whether the tenant
/// idles between bursts flips the FairShare outcome and the trainer's iteration
/// time between discrete regimes from seed to seed.
const MIXED_BACKLOG: u32 = 256;

/// `fleet-sweep-1k`: 9 levels x 2 placements x 2 traces of a 1,024-GPU job.
const FLEET_GPUS: u32 = 1_024;
const FLEET_ITERATIONS: u32 = 2;
const FLEET_TRACES: u32 = 2;
const FLEET_WORKERS: u32 = 2;
/// The job's clean electrical runtime over its iterations, which sizes the fixed
/// failure window (outages start in its first 80 % and last 2-10 % of it).
const FLEET_CLEAN_RUNTIME: SimDuration = SimDuration::from_micros(568_632);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TrainSteady,
    MixedTenancy,
    FleetSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TrainSteady,
        Workload::MixedTenancy,
        Workload::FleetSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSteady => "train-steady-10k",
            Workload::MixedTenancy => "mixed-tenancy-flap-4k",
            Workload::FleetSweep => "fleet-sweep-1k",
        }
    }

    /// Runs one closed-loop operation: set up the inputs, run them, check the output.
    pub fn op(self, seed: u64, tracer: &mut Tracer) -> Op {
        tracer.span("op", |t| match self {
            Workload::TrainSteady => train_steady(seed, t),
            Workload::MixedTenancy => mixed_tenancy(seed, t),
            Workload::FleetSweep => fleet_sweep(seed, t, FLEET_WORKERS),
        })
    }

    /// Re-evaluates the fleet sweep on one worker and returns its wall time and
    /// serialized variants (`None` for the scenario workloads).
    pub fn single_worker(self, seed: u64, tracer: &mut Tracer) -> Option<(f64, String)> {
        (self == Workload::FleetSweep).then(|| {
            let op = tracer.span("op", |t| fleet_sweep(seed, t, 1));
            (
                op.run_s,
                op.variants_json.expect("the fleet op keeps its variants"),
            )
        })
    }
}

/// The outcome of one closed-loop operation.
pub struct Op {
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_rss_mib: f64,
    pub sim_iter_s: f64,
    pub sim_circuit_wait_s: f64,
    pub sim_p99_s: f64,
    pub digest: u64,
    /// Output checks that failed; empty when the operation is correct.
    pub failures: Vec<String>,
    /// Per-layer counters read from the public results.
    pub counters: BTreeMap<&'static str, f64>,
    /// The fleet sweep's ordered variant results, serialized.
    pub variants_json: Option<String>,
}

/// Times `setup` and `run` separately and reads the peak RSS over both. Everything
/// after `run` returns (digest, checks) lies outside the timed and measured region.
fn measure<I, R>(
    tracer: &mut Tracer,
    setup: impl FnOnce(&mut Tracer) -> I,
    run: impl FnOnce(&mut Tracer, I) -> R,
) -> (R, f64, f64, f64) {
    mem::reset_peak_rss();
    let started = Instant::now();
    let inputs = tracer.span("setup", setup);
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let result = run(tracer, inputs);
    let run_s = started.elapsed().as_secs_f64();
    let peak = mem::peak_rss_mib().expect("VmHWM is readable from /proc/self/status");
    (result, setup_s, run_s, peak)
}

fn optical_config(iterations: u32, seed: u64) -> OpusConfig {
    let mut config = OpusConfig::provisioned(OCS_LATENCY);
    config.iterations = iterations;
    config.compute_jitter = 0.0;
    config.seed = seed;
    config
}

fn dgx_cluster(nodes: u32) -> Cluster {
    ClusterSpec::from_preset(NodePreset::DgxH200, nodes).build()
}

/// Llama3-8B under TP8 / PP8 / FSDP over the rest, compute modeled on H200.
fn training_dag(num_gpus: u32) -> TrainingDag {
    let model = ModelConfig::llama3_8b();
    let parallel = scaled_parallelism(num_gpus);
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::h200());
    DagBuilder::new(model, parallel, compute).build()
}

fn train_steady(seed: u64, tracer: &mut Tracer) -> Op {
    let config = optical_config(TRAIN_ITERATIONS, seed);
    let ((result, tasks), setup_s, run_s, peak_rss_mib) = measure(
        tracer,
        |t| {
            let cluster = t.span("topology.cluster_build", |_| dgx_cluster(TRAIN_GPUS / 8));
            let dag = t.span("workload.dag_build", |_| training_dag(TRAIN_GPUS));
            (cluster, dag)
        },
        |t, (cluster, dag)| {
            let tasks = dag.len();
            let spec = ScenarioSpec::new(cluster).job(Arc::new(dag), config);
            (t.span("scenario.run", |_| spec.run()), tasks)
        },
    );
    tracer.span("check", |_| {
        let trainer = &result.jobs[0].result;
        let mut failures = Vec::new();
        check_trainer(&result, TRAIN_ITERATIONS, &mut failures);
        check_rails(&result, &mut failures);
        let mut times: Vec<SimDuration> = trainer
            .iterations
            .iter()
            .map(|i| i.iteration_time)
            .collect();
        Op {
            setup_s,
            run_s,
            peak_rss_mib,
            sim_iter_s: trainer.steady_state_iteration_time().as_secs_f64(),
            sim_circuit_wait_s: circuit_wait_per_iteration(&result),
            sim_p99_s: p99(&mut times).as_secs_f64(),
            digest: scenario_digest(&result),
            failures,
            counters: scenario_counters(&result, &[tasks]),
            variants_json: None,
        }
    })
}

/// The mixed-tenancy timeline: a standing backlog, seeded open-loop request bursts,
/// one grow/shrink pulse, and a 10 % rail flap in every trainer iteration `i`, on
/// rail `i mod 8`.
fn mixed_timeline(seed: u64) -> Vec<(SimTime, ScenarioEvent)> {
    let serving = JobId(1);
    let it = MIXED_NOMINAL_ITERATION;
    let horizon = SimTime::ZERO + it.saturating_mul(MIXED_ITERATIONS as u64);
    let mut timeline = vec![(
        SimTime::ZERO,
        ScenarioEvent::RequestBurst {
            job: serving,
            requests: MIXED_BACKLOG,
        },
    )];
    timeline.extend(
        ArrivalProcess::new(seed, MIXED_MEAN_INTERARRIVAL, MIXED_MAX_BURST).bursts(
            serving,
            SimTime::ZERO,
            horizon,
        ),
    );
    timeline.push((
        SimTime::ZERO + it.mul_f64(1.5),
        ScenarioEvent::JobGrow { job: serving },
    ));
    timeline.push((
        SimTime::ZERO + it.mul_f64(3.5),
        ScenarioEvent::JobShrink { job: serving },
    ));
    for i in 0..MIXED_ITERATIONS as u64 {
        let rail = RailId((i % 8) as u32);
        let down = SimTime::ZERO + it.saturating_mul(i) + it.mul_f64(0.25);
        timeline.push((down, ScenarioEvent::RailDown(rail)));
        timeline.push((down + it.mul_f64(0.1), ScenarioEvent::RailUp(rail)));
    }
    timeline
}

fn requests_in(timeline: &[(SimTime, ScenarioEvent)]) -> u64 {
    timeline
        .iter()
        .map(|(_, event)| match event {
            ScenarioEvent::RequestBurst { requests, .. } => *requests as u64,
            _ => 0,
        })
        .sum()
}

fn mixed_tenancy(seed: u64, tracer: &mut Tracer) -> Op {
    let mut config = optical_config(MIXED_ITERATIONS, seed);
    config.eviction = EvictionPolicy::FairShare;
    config.recovery_policy = RecoveryPolicy::Replan;
    let inference = InferenceConfig::llama3_8b(8, 8, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let ((result, tasks, injected), setup_s, run_s, peak_rss_mib) = measure(
        tracer,
        |t| {
            let cluster = t.span("topology.cluster_build", |_| dgx_cluster(MIXED_GPUS / 8));
            let train = t.span("workload.dag_build", |_| training_dag(MIXED_GPUS));
            let serve = t.span("workload.inference_dag_build", |_| {
                InferenceDagBuilder::new(inference, GpuSpec::h200()).build()
            });
            let timeline = t.span("serving.arrival_timeline", |_| mixed_timeline(seed));
            (cluster, train, serve, timeline)
        },
        |t, (cluster, train, serve, timeline)| {
            let tasks = [train.len(), serve.len()];
            let injected = requests_in(&timeline);
            let spec = ScenarioSpec::new(cluster)
                .job(Arc::new(train), config)
                .serving_job(
                    Arc::new(serve),
                    config,
                    JobPlacement::AtGpu(HALF_NODE_GPU),
                    serving,
                )
                .inject_all(timeline);
            (t.span("scenario.run", |_| spec.run()), tasks, injected)
        },
    );
    tracer.span("check", |_| {
        let tenant = &result.jobs[1];
        let mut failures = Vec::new();
        check_trainer(&result, MIXED_ITERATIONS, &mut failures);
        check_rails(&result, &mut failures);
        if tenant.requests_completed != injected {
            failures.push(format!(
                "serving completed {} of {injected} requests",
                tenant.requests_completed
            ));
        }
        let p99 = tenant.p99_request_latency.unwrap_or_else(|| {
            failures.push("serving tenant reported no p99 latency".to_string());
            SimDuration::ZERO
        });
        let mut counters = scenario_counters(&result, &tasks);
        counters.insert("serving.requests_injected", injected as f64);
        Op {
            setup_s,
            run_s,
            peak_rss_mib,
            sim_iter_s: result.jobs[0]
                .result
                .steady_state_iteration_time()
                .as_secs_f64(),
            sim_circuit_wait_s: circuit_wait_per_iteration(&result),
            sim_p99_s: p99.as_secs_f64(),
            digest: scenario_digest(&result),
            failures,
            counters,
            variants_json: None,
        }
    })
}

/// The provisioning ladder (electrical plus four optical classes, priced by the
/// cost model) followed by a replan twin of every optical level.
fn fleet_levels() -> Vec<ProvisioningLevel> {
    let cost_model = GpuBackendCostModel::dgx_h200_400g();
    let base: Vec<ProvisioningLevel> = standard_points(&cost_model, FLEET_GPUS as u64)
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
    let twins: Vec<ProvisioningLevel> = base
        .iter()
        .filter(|l| l.policy.is_optical())
        .map(|l| l.clone().with_recovery(RecoveryPolicy::Replan))
        .collect();
    base.into_iter().chain(twins).collect()
}

fn fleet_sweep(seed: u64, tracer: &mut Tracer, workers: u32) -> Op {
    let key = "1k-h200/llama3-8b-tp8-pp8-fsdp";
    let runtime = FLEET_CLEAN_RUNTIME.as_nanos();
    let sweep = SweepSpec {
        template: key.to_string(),
        base_seed: seed,
        iterations: FLEET_ITERATIONS,
        traces_per_level: FLEET_TRACES,
        levels: fleet_levels(),
        placements: vec![JobPlacement::Auto, JobPlacement::AtGpu(HALF_NODE_GPU)],
        failures: FailureModel {
            max_outages: 2,
            window: SimDuration::from_nanos(runtime * 4 / 5),
            min_outage: SimDuration::from_nanos(runtime / 50),
            max_outage: SimDuration::from_nanos(runtime / 10),
        },
        workers,
        ..SweepSpec::default()
    };
    let ((report, tasks), setup_s, run_s, peak_rss_mib) = measure(
        tracer,
        |t| {
            // One spare node gives the shifted placement room at the top end.
            let cluster = t.span("topology.cluster_build", |_| {
                dgx_cluster(FLEET_GPUS / 8 + 1)
            });
            let service = FleetService::new(cluster);
            let dag = t.span("fleet.template_build", |t| {
                service.dag_template(key, || {
                    t.span("workload.dag_build", |_| training_dag(FLEET_GPUS))
                })
            });
            (service, dag.len())
        },
        |t, (service, tasks)| {
            (
                t.span("fleet.evaluate", |_| service.evaluate(&sweep)),
                tasks,
            )
        },
    );
    tracer.span("check", |_| {
        let variants = &report.variants;
        let mut failures = Vec::new();
        let expected = sweep.num_variants();
        if variants.len() != expected || variants.iter().enumerate().any(|(i, v)| v.variant != i) {
            failures.push(format!(
                "fleet returned {} of {expected} variants in order",
                variants.len()
            ));
        }
        let mut runtimes: Vec<SimDuration> = variants
            .iter()
            .map(|v| SimDuration::from_nanos(v.job_end.as_nanos()))
            .collect();
        if runtimes.iter().any(|r| r.is_zero()) {
            failures.push("a variant finished no iteration".to_string());
        }
        let total_wait: u64 = variants.iter().map(|v| v.circuit_wait.as_nanos()).sum();
        let task_iterations = (tasks * FLEET_ITERATIONS as usize * variants.len()) as f64;
        let json = serde_json::to_string(variants).expect("variant results serialize");
        let mut counters = BTreeMap::new();
        counters.insert("fleet.variants", variants.len() as f64);
        counters.insert("workload.dag_tasks", tasks as f64);
        counters.insert("scenario.task_iterations", task_iterations);
        counters.insert(
            "controller.reconfigs",
            variants.iter().map(|v| v.reconfigs as f64).sum(),
        );
        let outages: f64 = variants.iter().map(|v| v.outages as f64).sum();
        counters.insert("health.rail_failures", outages);
        // Every outage is one RailDown and one RailUp injection.
        counters.insert("scenario.injections_applied", 2.0 * outages);
        let iter_samples: Vec<f64> = runtimes
            .iter()
            .map(|r| r.as_secs_f64() / FLEET_ITERATIONS as f64)
            .collect();
        Op {
            setup_s,
            run_s,
            peak_rss_mib,
            sim_iter_s: median(&iter_samples),
            sim_circuit_wait_s: total_wait as f64 * 1e-9
                / (FLEET_ITERATIONS as usize * variants.len().max(1)) as f64,
            sim_p99_s: p99(&mut runtimes).as_secs_f64(),
            digest: fnv1a(json.as_bytes()),
            failures,
            counters,
            variants_json: Some(json),
        }
    })
}

fn check_trainer(result: &ScenarioResult, iterations: u32, failures: &mut Vec<String>) {
    let done = result.jobs[0].result.iterations.len();
    if done != iterations as usize {
        failures.push(format!(
            "trainer completed {done} of {iterations} iterations"
        ));
    }
}

/// On every rail, circuits set up must cover circuits torn down.
fn check_rails(result: &ScenarioResult, failures: &mut Vec<String>) {
    let fleet = &result.fleet;
    if fleet.circuits_set_up_by_rail.len() != fleet.circuits_torn_down_by_rail.len() {
        failures.push("per-rail circuit counters disagree in length".to_string());
    }
    for (rail, (up, down)) in fleet
        .circuits_set_up_by_rail
        .iter()
        .zip(&fleet.circuits_torn_down_by_rail)
        .enumerate()
    {
        if up < down {
            failures.push(format!(
                "rail {rail}: {down} circuits torn down but {up} set up"
            ));
        }
    }
}

/// The trainer's (job 0's) total circuit wait divided by its iterations, in seconds.
fn circuit_wait_per_iteration(result: &ScenarioResult) -> f64 {
    let iterations = &result.jobs[0].result.iterations;
    let total: u64 = iterations
        .iter()
        .map(|i| i.total_circuit_wait.as_nanos())
        .sum();
    total as f64 * 1e-9 / iterations.len().max(1) as f64
}

/// Counters every scenario result exposes; `tasks[j]` is job `j`'s DAG size.
fn scenario_counters(result: &ScenarioResult, tasks: &[usize]) -> BTreeMap<&'static str, f64> {
    let sum = |v: &[u64]| v.iter().sum::<u64>() as f64;
    let jobs = &result.jobs;
    let fleet = &result.fleet;
    let mut counters = BTreeMap::new();
    counters.insert("workload.dag_tasks", tasks[0] as f64);
    counters.insert(
        "scenario.task_iterations",
        jobs.iter()
            .zip(tasks)
            .map(|(job, &n)| (n * job.result.iterations.len()) as f64)
            .sum(),
    );
    counters.insert(
        "scenario.comm_records",
        jobs.iter()
            .flat_map(|job| &job.result.iterations)
            .map(|i| i.comm_records.len() as f64)
            .sum(),
    );
    counters.insert(
        "controller.reconfigs",
        jobs.iter()
            .map(|job| job.result.total_reconfigs() as f64)
            .sum(),
    );
    counters.insert(
        "controller.circuits_set_up",
        sum(&fleet.circuits_set_up_by_rail),
    );
    counters.insert(
        "controller.circuits_torn_down",
        sum(&fleet.circuits_torn_down_by_rail),
    );
    counters.insert(
        "controller.circuits_evicted",
        sum(&fleet.circuits_evicted_by_rail),
    );
    counters.insert(
        "controller.port_takeovers",
        fleet.cross_job_port_takeovers as f64,
    );
    counters.insert(
        "replan.reconfigs",
        jobs.iter().map(|job| job.replan_reconfigs as f64).sum(),
    );
    counters.insert(
        "replan.degraded_iterations",
        jobs.iter().map(|job| job.degraded_iterations as f64).sum(),
    );
    counters.insert("health.rail_failures", sum(&fleet.rail_failures));
    counters.insert(
        "scenario.injections_applied",
        fleet.injections_applied as f64,
    );
    counters.insert(
        "serving.requests_completed",
        jobs.iter().map(|job| job.requests_completed as f64).sum(),
    );
    counters
}

/// A compact FNV-1a digest of a scenario result: per-iteration timings and every
/// communication record's timing, folded in place rather than serialized.
fn scenario_digest(result: &ScenarioResult) -> u64 {
    let mut h = Fnv::new();
    for job in &result.jobs {
        h.word(job.gpu_offset as u64);
        h.word(job.degraded_iterations as u64);
        h.word(job.replan_reconfigs);
        h.word(job.time_under_degraded_plan.as_nanos());
        h.word(job.evictions_suffered);
        h.word(job.evictions_inflicted);
        h.word(job.requests_completed);
        h.word(
            job.p99_request_latency
                .map_or(u64::MAX, SimDuration::as_nanos),
        );
        for it in &job.result.iterations {
            h.word(it.started_at.as_nanos());
            h.word(it.iteration_time.as_nanos());
            h.word(it.total_circuit_wait.as_nanos());
            for r in &it.comm_records {
                h.word(r.task.0 as u64);
                h.word(r.start.as_nanos());
                h.word(r.end.as_nanos());
                h.word(r.circuit_wait.as_nanos());
            }
            for e in &it.reconfig_events {
                h.word(e.rail.0 as u64);
                h.word(e.ready_at.as_nanos());
                h.word(e.circuits_installed as u64);
            }
        }
    }
    let fleet = &result.fleet;
    for counters in [
        &fleet.circuits_set_up_by_rail,
        &fleet.circuits_torn_down_by_rail,
        &fleet.circuits_evicted_by_rail,
        &fleet.rail_failures,
        &fleet.cross_job_rail_overlaps,
    ] {
        h.word(counters.len() as u64);
        counters.iter().for_each(|&c| h.word(c));
    }
    h.word(fleet.cross_job_port_takeovers);
    h.word(fleet.injections_applied as u64);
    h.word(fleet.makespan.as_nanos());
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Nearest-rank 99th percentile.
fn p99(samples: &mut [SimDuration]) -> SimDuration {
    samples.sort_unstable();
    let rank = (0.99 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
