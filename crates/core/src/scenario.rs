//! The scenario driver: the simulator's one way to build and run a simulation.
//!
//! A [`ScenarioSpec`] places any number of jobs on one shared cluster, injects
//! external events (rail failures and recoveries, OCS degradation, late job
//! arrivals) at scheduled times, and [`ScenarioSpec::run`] reports per-job metrics
//! plus fleet-level rail counters. A single pristine job is simply a spec with one
//! job and no injections; it executes a [`TrainingDag`] under the electrical
//! baseline, on-demand optical or provisioned optical policy and produces the
//! timings behind Fig. 3, Fig. 4 and Fig. 8.
//!
//! ```
//! use opus::{OpusConfig, ScenarioEvent, ScenarioSpec};
//! use railsim_sim::{SimDuration, SimTime};
//! use railsim_topology::{ClusterSpec, NodePreset, RailId};
//! use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
//!
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let model = ModelConfig::tiny_test();
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//!
//! let config = OpusConfig {
//!     iterations: 2,
//!     ..OpusConfig::provisioned(SimDuration::from_millis(25))
//! };
//! let result = ScenarioSpec::new(cluster)
//!     .job(dag, config)
//!     .inject(SimTime::from_millis(5), ScenarioEvent::RailDown(RailId(0)))
//!     .inject(SimTime::from_millis(80), ScenarioEvent::RailUp(RailId(0)))
//!     .run();
//! assert_eq!(result.jobs.len(), 1);
//! assert_eq!(result.fleet.injections_applied, 2);
//! assert_eq!(result.jobs[0].result.iterations.len(), 2);
//! ```
//!
//! ## How a communication task executes
//!
//! 1. The task becomes *group-ready* when every participant's prerequisites are done
//!    (the paper's `T_comm_start` — the slowest rank has joined).
//! 2. Its circuit demand is its group's slot in the job's circuit pool, the circuit
//!    lookup table of Fig. 6: each group is planned once, when the job is built.
//!    Each slot carries a *prepared plan*: the rails its circuits use, the circuits
//!    resolved to the fabric's dense tables
//!    ([`PortGeometry::resolve`](railsim_topology::PortGeometry::resolve)), and the
//!    α–β duration of every step the slot serves, host offload and a degraded
//!    plan's derated bandwidth included. A transfer reads only its slot's plan and
//!    its step's price. The plans are prepared when the job is built and again
//!    after every replan swap, so a degraded slot reads a plan like any other.
//!    Scale-up traffic (TP) skips straight to the transfer, and on electrical rails a
//!    scale-out transfer only pays the switch's [`ELECTRICAL_SWITCH_LATENCY`].
//! 3. On photonic rails the job asks the controller for the group's circuits. If the
//!    demand matrix did not change the request is free: the controller reads the
//!    plan's circuits straight off the OCS tables. Otherwise the controller waits
//!    for conflicting traffic to drain, reconfigures the OCS, and the transfer starts
//!    once the circuits settle. With provisioning the request is back-dated to the
//!    moment the affected circuits went idle, but by no more than one reconfiguration
//!    latency, hiding the switching delay inside the inter-parallelism window.
//!    Provisioning starts once iteration 0, the shim's profiling iteration, is over
//!    and has issued at least one transfer over the rails.
//! 4. The transfer lasts its step's price; the plan's ports are marked busy until it
//!    completes.
//! 5. The run keeps a 40-byte row of what it decided: the task, whether it went
//!    scale-out, its rails and its issue, start and end times. The iteration's
//!    [`CommLog`] reads the record's label, axis, kind, group and bytes back from the
//!    job's DAG, and its circuit wait as `start − issued_at −` the job's datapath
//!    latency, so a stored transfer costs 40 bytes instead of a 72-byte
//!    [`CommRecord`](crate::CommRecord).
//!
//! ## Execution model
//!
//! Every job keeps its own context — DAG, circuit pool, profiling flag, RNG stream,
//! iteration state — while the discrete-event engine, the controller (one OCS per
//! rail, when any job runs an optical policy) and the rail health state are shared
//! fleet-wide.
//! All events, from every job and from the injected timeline, multiplex over one
//! [`Engine`] and commit one at a time, in the engine's `(time, scheduling order)`
//! order, from a single sequential loop. That order is the simulator's whole
//! determinism contract, and it mirrors Opus itself: the controller arbitrates each
//! rail first-come-first-serve over the sequentially ordered demands it receives.
//! Parallel work runs one level up, across independent scenarios (see
//! [`crate::fleet`]).
//!
//! A task event names its task by [`Position`] in the DAG's
//! [`ExecLayout`](railsim_workload::ExecLayout), not by task id, and the job's
//! per-task state (prerequisite counters, circuit slots, replicas) is stored by
//! position. The layout lists tasks in FIFO-Kahn order, so the tasks a wavefront
//! releases together sit side by side instead of one cache line apart per rank.
//! The renumbering leaves the event order unchanged: an iteration schedules its
//! roots in position order, which is ascending task id, and a completion releases
//! its dependents in ascending task id, so the engine receives the same events in
//! the same order as a walk over task ids would schedule them.
//!
//! Injected events are scheduled before any task event, so an injection at time `T`
//! always applies *before* every task event at `T` (task events are scheduled later,
//! so they queue behind it). Two injections at the same time apply in the order they
//! were declared.
//!
//! Single-job runs with an inert jitter RNG additionally memoize their steady state:
//! once the fabric state at two consecutive iteration boundaries is equal up to the
//! shift between them, later unperturbed iterations are replayed with a shifted
//! clock instead of re-stepped — byte-identical results at a fraction of the
//! wall-clock cost. A replayed iteration shares its template's record rows and DAG
//! ([`CommLog`]) and its reconfiguration events ([`Shifted`](crate::Shifted))
//! instead of copying them, and writes the template's net effect on the fabric
//! (each rail's set-up OCS slots and counters, the occupancy footprint) instead
//! of re-performing its installs. So it costs O(ports), not O(tasks), and a long
//! run's memory does not grow with its iteration count. A clean run steps two
//! iterations and fast-forwards the rest. The detection and invalidation semantics are documented on the executor's
//! private `MemoState`; [`OpusConfig::memoize_steady_state`] is the knob and
//! [`JobResult::memoized_iterations`] counts the replayed iterations.
//!
//! [`ScenarioSpec::run_without_records`] runs the same simulation for callers that
//! read only aggregates: it keeps no record row and returns every iteration's
//! [`CommLog`] empty, holding no DAG.
//!
//! ## Failure and recovery model
//!
//! `RailDown(r)` marks rail `r` unhealthy and tears down every circuit on its OCS.
//! Transfers already in flight on the rail complete (the model is optimistic about
//! in-flight traffic; see EXPERIMENTS.md); *new* transfers that need the rail wait
//! for `RailUp(r)` — under an optical policy they then also pay a fresh install of
//! their circuits, because the failure destroyed the matching. A rail that fails with
//! no scheduled recovery makes any job that still needs it panic with a diagnostic:
//! scenarios are declared up front, so an unsatisfiable timeline is a scenario bug,
//! not a simulation outcome.
//!
//! That stalling behavior is [`RecoveryPolicy::Stall`](crate::RecoveryPolicy), the
//! default. Under [`RecoveryPolicy::Replan`](crate::RecoveryPolicy) every health
//! change re-picks each group's plan of an optical job by one rule: a group runs its
//! pristine plan unless one of its rails is down and the pristine plan re-striped
//! onto the healthy rails is non-empty, in which case it runs that *degraded* plan.
//! Re-striping moves each dead rail's ring circuits onto a surviving rail (fresh
//! ports on the node-mate GPUs of that rail), the collective cost model is derated
//! by the lost rail parallelism, and a group whose plan changes pays one
//! reconfiguration delay to install the new circuits. A group with no healthy rail
//! left keeps its pristine plan and stalls. [`JobResult`] reports the
//! stall-vs-replan inflation inputs: degraded iterations, replan reconfigurations
//! and time under a degraded plan.

use crate::circuits::{CircuitPlanner, GroupCircuits};
use crate::config::OpusConfig;
use crate::config::{EvictionPolicy, ReconfigPolicy, RecoveryPolicy};
use crate::controller::{FabricState, OpusController};
use crate::metrics::{
    nearest_rank, CommLog, CommRow, IterationResult, ReconfigEvent, SimulationResult,
};
use crate::serving::ServingSpec;
use railsim_collectives::{
    cost::{collective_time, CostParams},
    Algorithm, CollectiveKind, CommGroup, GroupId, ParallelismAxis,
};
use railsim_sim::{Engine, SimDuration, SimRng, SimTime};
use railsim_topology::{
    Cluster, DenseCircuit, GpuId, OcsEffect, OpticalRailFabric, PortGeometry, RailHealth, RailId,
    RailSet, ELECTRICAL_SWITCH_LATENCY,
};
use railsim_workload::{JobId, Position, Step, TaskId, TaskKind, TrainingDag};
use serde::Serialize;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An external event injected into a scenario's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioEvent {
    /// The rail fails: its switch stops carrying traffic and (under an optical
    /// policy) every circuit on its OCS is torn down.
    RailDown(RailId),
    /// The rail recovers. Circuits are *not* restored — the next request that needs
    /// the rail reinstalls them, paying the reconfiguration delay.
    RailUp(RailId),
    /// The rail's OCS degrades (or is repaired): its reconfiguration delay becomes
    /// `reconfig_latency` from this point on. Installed circuits are untouched.
    OcsDegraded {
        /// The affected rail.
        rail: RailId,
        /// The new reconfiguration delay of that rail's OCS.
        reconfig_latency: SimDuration,
    },
    /// The job starts at this point instead of at time zero. A job with a
    /// `JobArrival` injection anywhere in the timeline does not start on its own; a
    /// job arrives at most once.
    JobArrival {
        /// The arriving job (its index in declaration order).
        job: JobId,
    },
    /// A burst of inference requests joins a serving job's backlog. The first burst
    /// starts the job (a serving job never starts on its own); an idle job resumes
    /// iterating immediately, a busy one absorbs the burst into its queue. See
    /// [`ServingSpec`] and [`crate::serving::ArrivalProcess`].
    RequestBurst {
        /// The serving job (its index in declaration order).
        job: JobId,
        /// Requests in the burst (must be at least one).
        requests: u32,
    },
    /// An elastic serving job grows by one replica at its next iteration boundary
    /// (saturating at the DAG's maximum replica count). The claimed replica slice
    /// was placed at build time through the normal [`JobPlacement`] machinery; the
    /// grow simply unmasks it.
    JobGrow {
        /// The serving job (its index in declaration order).
        job: JobId,
    },
    /// An elastic serving job shrinks by one replica at its next iteration boundary
    /// (a deployment never drops below one active replica). The freed replica's
    /// GPUs go quiet — overlapping tenants see their ports uncontended.
    JobShrink {
        /// The serving job (its index in declaration order).
        job: JobId,
    },
}

/// Where a job's ranks land in the shared cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobPlacement {
    /// Pack the job onto the first free node boundary after every previously
    /// declared job (job 0 starts at GPU 0).
    #[default]
    Auto,
    /// Place the job's rank 0 on this GPU. Node-aligned offsets keep the job's rail
    /// mapping identical to a standalone run; overlapping placements are allowed and
    /// model GPU-sharing tenancy (the fleet counters report port takeovers).
    AtGpu(u32),
}

/// One job declaration: the DAG, its configuration and its placement.
///
/// The DAG rides behind an [`Arc`] so the same template can back many concurrent
/// scenarios (a fleet sweep pays DAG construction once), and the run reads the task
/// columns and the execution layout through it: declaring or running a job never
/// copies them. A rebase (non-zero placement or group-id offset) copies the
/// rank-bearing columns at build time and shares the label and dependency columns
/// and the layout.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The job's training DAG (immutably shared; see [`ScenarioSpec`]).
    pub dag: Arc<TrainingDag>,
    /// The job's simulation configuration.
    pub config: OpusConfig,
    /// Where the job's ranks land in the shared cluster.
    pub placement: JobPlacement,
    /// `Some` makes this a *serving* job: it starts on its first
    /// [`ScenarioEvent::RequestBurst`], iterates while its backlog holds requests
    /// (ignoring `config.iterations`), and resizes its active replica set on
    /// [`ScenarioEvent::JobGrow`] / [`ScenarioEvent::JobShrink`]. `None` is a
    /// classic training job, exactly as before.
    pub serving: Option<ServingSpec>,
}

/// A scenario described as plain data: the shared cluster, the job declarations and
/// the injected external-event timeline.
///
/// This is the only way to build a simulation. Assemble it with the builder methods
/// ([`job`](ScenarioSpec::job), [`inject`](ScenarioSpec::inject), ...) or directly
/// from its public fields, as the fleet sweep expansion ([`crate::fleet`]) does, and
/// run it with [`ScenarioSpec::run`] (or [`ScenarioSpec::run_without_records`]). A
/// spec can be inspected, cloned cheaply (jobs share their DAGs via [`Arc`]) and
/// re-run. Jobs are identified by [`JobId`] in declaration order; injections may be
/// declared in any order.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The shared cluster every job is placed on.
    pub cluster: Cluster,
    /// The jobs, identified by [`JobId`] in declaration order.
    pub jobs: Vec<JobSpec>,
    /// The injected timeline, in any order (sorted by time at build, declaration
    /// order breaking ties).
    pub injections: Vec<(SimTime, ScenarioEvent)>,
}

impl ScenarioSpec {
    /// Starts an empty spec on `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        ScenarioSpec {
            cluster,
            jobs: Vec::new(),
            injections: Vec::new(),
        }
    }

    /// Adds a job with automatic placement (packed after the previous job, node
    /// aligned). Pass an `Arc` to share one DAG template across scenarios: it is
    /// *not* cloned, so scenarios built from the same `Arc` share one set of task
    /// columns.
    pub fn job(self, dag: impl Into<Arc<TrainingDag>>, config: OpusConfig) -> Self {
        self.job_placed(dag, config, JobPlacement::Auto)
    }

    /// Adds a job with an explicit placement.
    pub fn job_placed(
        mut self,
        dag: impl Into<Arc<TrainingDag>>,
        config: OpusConfig,
        at: JobPlacement,
    ) -> Self {
        self.jobs.push(JobSpec {
            dag: dag.into(),
            config,
            placement: at,
            serving: None,
        });
        self
    }

    /// Adds a *serving* job: an elastic inference deployment that starts on its
    /// first [`ScenarioEvent::RequestBurst`] and iterates while its backlog holds
    /// requests. See [`ServingSpec`] and the [`crate::serving`] module docs.
    pub fn serving_job(
        mut self,
        dag: impl Into<Arc<TrainingDag>>,
        config: OpusConfig,
        at: JobPlacement,
        serving: ServingSpec,
    ) -> Self {
        self.jobs.push(JobSpec {
            dag: dag.into(),
            config,
            placement: at,
            serving: Some(serving),
        });
        self
    }

    /// Injects an external event at the given absolute time.
    pub fn inject(mut self, at: SimTime, event: ScenarioEvent) -> Self {
        self.injections.push((at, event));
        self
    }

    /// Injects a whole pre-generated timeline (e.g. the output of
    /// [`crate::serving::ArrivalProcess::bursts`]).
    pub fn inject_all(
        mut self,
        events: impl IntoIterator<Item = (SimTime, ScenarioEvent)>,
    ) -> Self {
        self.injections.extend(events);
        self
    }

    /// Builds and runs the scenario to completion.
    ///
    /// # Panics
    /// Panics when the scenario is malformed: no jobs, an invalid DAG, zero
    /// iterations, a placement outside the cluster, an injection on a nonexistent
    /// rail or job, a job that arrives twice, inconsistent optical reconfiguration
    /// latencies across jobs, a job whose circuits could use a rail beyond the
    /// 64 a [`CommRecord`](crate::CommRecord) can name, or a timeline under which a
    /// job cannot finish (a needed rail fails and never recovers).
    pub fn run(self) -> ScenarioResult {
        let mut sim = ScenarioSim::build(self, Records::Keep);
        sim.run_scenario();
        sim.into_result()
    }

    /// Builds and runs the scenario exactly like [`ScenarioSpec::run`], but returns
    /// every [`IterationResult::comm_records`] empty; every other field is identical.
    ///
    /// For callers that read only aggregates — iteration times, circuit wait,
    /// reconfigurations, fleet counters. The run keeps no transfer record, so its
    /// memory does not grow with transfers × iterations.
    ///
    /// # Panics
    /// Panics when the scenario is malformed; see [`ScenarioSpec::run`].
    pub fn run_without_records(self) -> ScenarioResult {
        let mut sim = ScenarioSim::build(self, Records::Discard);
        sim.run_scenario();
        sim.into_result()
    }
}

/// For each spec, the index of the first spec in `specs` that runs the same
/// simulation, so that a caller can run each distinct simulation once. Two specs run
/// the same simulation when their clusters and injected timelines (the same events in
/// the same order) match, their jobs share DAG [`Arc`]s, placements and serving specs
/// pairwise, and each pair of job configs is equal once [`simulated_config`] has
/// cleared what the run does not read. A spec is compared only with the earlier
/// representatives that hash alike.
pub(crate) fn first_same_simulation(specs: &[ScenarioSpec]) -> Vec<usize> {
    let mut representatives: HashMap<u64, Vec<usize>> = HashMap::new();
    specs
        .iter()
        .enumerate()
        .map(|(idx, spec)| {
            let alike = representatives.entry(simulation_hash(spec)).or_default();
            match alike
                .iter()
                .find(|&&rep| same_simulation(&specs[rep], spec))
            {
                Some(&rep) => rep,
                None => {
                    alike.push(idx);
                    idx
                }
            }
        })
        .collect()
}

/// A job's `config` in `spec` minus what the run does not read:
///
/// * the recovery policy, when the timeline fails no rail (a policy acts only on a
///   rail failure) and the build accepts either policy ([`replan_fits_record_rails`]);
/// * the seed, when the jitter RNG it seeds is inert and never draws.
fn simulated_config(spec: &ScenarioSpec, config: &OpusConfig) -> OpusConfig {
    let mut config = *config;
    let fails_a_rail = spec
        .injections
        .iter()
        .any(|(_, event)| matches!(event, ScenarioEvent::RailDown(_)));
    if !fails_a_rail && replan_fits_record_rails(&spec.cluster, &config) {
        config.recovery_policy = RecoveryPolicy::Stall;
    }
    if config.jitter_inert() {
        config.seed = 0;
    }
    config
}

/// Whether `a` and `b` run the same simulation; see [`first_same_simulation`].
fn same_simulation(a: &ScenarioSpec, b: &ScenarioSpec) -> bool {
    a.cluster.spec() == b.cluster.spec()
        && a.injections == b.injections
        && a.jobs.len() == b.jobs.len()
        && a.jobs.iter().zip(&b.jobs).all(|(x, y)| {
            Arc::ptr_eq(&x.dag, &y.dag)
                && x.placement == y.placement
                && x.serving == y.serving
                && simulated_config(a, &x.config) == simulated_config(b, &y.config)
        })
}

/// A hash that specs running the same simulation share.
fn simulation_hash(spec: &ScenarioSpec) -> u64 {
    let mut hasher = DefaultHasher::new();
    spec.injections.hash(&mut hasher);
    for job in &spec.jobs {
        let config = simulated_config(spec, &job.config);
        Arc::as_ptr(&job.dag).hash(&mut hasher);
        job.placement.hash(&mut hasher);
        (
            config.policy,
            config.reconfig_latency,
            config.recovery_policy,
            config.seed,
        )
            .hash(&mut hasher);
    }
    hasher.finish()
}

/// Whether a run keeps its [`CommRecord`](crate::CommRecord)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Records {
    /// Every record of every iteration ([`ScenarioSpec::run`]).
    Keep,
    /// No record at all: every iteration's log is empty and holds no DAG
    /// ([`ScenarioSpec::run_without_records`]). Nothing in the run reads records —
    /// steady-state detection compares fabric state — so the simulation is the same.
    Discard,
}

/// One job's outcome in a [`ScenarioResult`].
#[derive(Debug, Clone, Serialize)]
pub struct JobResult {
    /// The job (its declaration index).
    pub job: JobId,
    /// The GPU its rank 0 was placed on.
    pub gpu_offset: u32,
    /// The network policy it ran under.
    pub policy: ReconfigPolicy,
    /// Iterations during which the job ran — for any part of the iteration — on a
    /// replan-degraded circuit plan. Always 0 under [`RecoveryPolicy::Stall`].
    pub degraded_iterations: u32,
    /// Circuit-plan swaps the replan machinery performed for this job (each change
    /// of a group's plan counts once).
    pub replan_reconfigs: u64,
    /// Total simulated time the job spent with at least one group on a degraded plan.
    pub time_under_degraded_plan: SimDuration,
    /// Circuit evictions this job *suffered*: another tenant displaced its port
    /// holds under an active [`EvictionPolicy`]. Always 0 under
    /// [`EvictionPolicy::Never`].
    pub evictions_suffered: u64,
    /// Circuit evictions this job *inflicted* on other tenants. Always 0 under
    /// [`EvictionPolicy::Never`].
    pub evictions_inflicted: u64,
    /// This job's share of the scenario's total circuit-wait time (all jobs' shares
    /// sum to 1 whenever any job waited at all; 0 otherwise).
    pub circuit_wait_share: f64,
    /// Inference requests the job retired (0 for training jobs).
    pub requests_completed: u64,
    /// The 99th-percentile request latency (arrival to retiring iteration end),
    /// nearest-rank over every retired request. `None` for training jobs.
    pub p99_request_latency: Option<SimDuration>,
    /// Iterations replayed from the steady-state memo instead of re-stepped (0 with
    /// memoization off, or when the run never reached steady state). A replayed
    /// iteration is byte-identical to a stepped one, so this counter is the only
    /// observable difference and it is not serialized.
    #[serde(skip)]
    pub memoized_iterations: u64,
    /// Its per-iteration metrics.
    pub result: SimulationResult,
}

/// Fleet-level counters aggregated across all jobs of a scenario (vectors are
/// indexed by rail id).
#[derive(Debug, Clone, Serialize)]
pub struct FleetMetrics {
    /// Total transfer time carried per rail (sum over scale-out transfers of their
    /// duration, per rail they used).
    pub rail_busy: Vec<SimDuration>,
    /// Cross-job contention events per rail: a scale-out transfer started on the rail
    /// while another job's transfer was still in flight on it.
    pub cross_job_rail_overlaps: Vec<u64>,
    /// NIC ports whose tenant changed: a job transferred over a port most recently
    /// used by a different job (only possible with overlapping placements).
    pub cross_job_port_takeovers: u64,
    /// Lifetime circuits set up per rail (empty when no job ran an optical policy).
    pub circuits_set_up_by_rail: Vec<u64>,
    /// Lifetime circuits torn down per rail (empty when no job ran an optical policy).
    pub circuits_torn_down_by_rail: Vec<u64>,
    /// Circuits whose ports were evicted per rail under a tenant-aware
    /// [`EvictionPolicy`] (empty unless a policy other than
    /// [`EvictionPolicy::Never`] was active).
    pub circuits_evicted_by_rail: Vec<u64>,
    /// Reconfiguration requests the shared controller received, from every job,
    /// memoized iterations included (0 when no job ran an optical policy). Not
    /// serialized.
    #[serde(skip)]
    pub controller_requests: u64,
    /// The subset of [`controller_requests`](FleetMetrics::controller_requests)
    /// whose circuits were already installed, so the OCS was left untouched. Not
    /// serialized.
    #[serde(skip)]
    pub noop_requests: u64,
    /// Injected failures per rail.
    pub rail_failures: Vec<u64>,
    /// Accumulated injected downtime per rail (closed outages only).
    pub rail_downtime: Vec<SimDuration>,
    /// Number of injected events that were applied.
    pub injections_applied: usize,
    /// The time of the last committed event — when the whole scenario finished.
    pub makespan: SimTime,
}

/// The outcome of a scenario: per-job metrics plus fleet counters.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioResult {
    /// One entry per declared job, in declaration order.
    pub jobs: Vec<JobResult>,
    /// Fleet-level rail utilization, contention and failure counters.
    pub fleet: FleetMetrics,
}

impl ScenarioResult {
    /// One job's outcome.
    ///
    /// # Panics
    /// Panics if the job does not exist.
    pub fn job(&self, id: JobId) -> &JobResult {
        &self.jobs[id.index()]
    }
}

// ---------------------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------------------

/// Events of the scenario's discrete-event simulation: per-job DAG execution plus the
/// injected external timeline. External events are scheduled at build time, before
/// any task event, so they sort ahead of every task event at the same timestamp in
/// the engine's `(time, scheduling order)` order.
/// A task event names the task by its [`Position`] in the DAG's execution layout,
/// and the job index rides in a `u16`, so the whole event stays 8 bytes — the
/// engine's slab nodes are the hot path's working set, and a wider event measurably
/// slows the 100k-GPU single-job regime. 65k concurrent jobs is far beyond any
/// scenario ([`ScenarioSim::build`] rejects more, so the index can never silently
/// alias).
#[derive(Debug, Clone, Copy)]
enum SimEvent {
    /// All dependencies of the job's task have completed.
    Ready(u16, Position),
    /// The job's task has finished executing.
    Done(u16, Position),
    /// The injected external event at this index of the (sorted) timeline.
    External(u32),
    /// The job's current iteration is a memoized steady-state replay: this single
    /// event, scheduled at the iteration's predicted end, stands in for the whole
    /// per-task event cascade. Committing it emits the shifted iteration result and
    /// applies the template iteration's net effect on the shared state, shifted (see
    /// [`ScenarioSim::commit_fast_forward`]).
    FastForward(u16),
}

/// One deduplicated circuit-demand entry, the job's Fig. 6 lookup entry: every task
/// of a communication group shares this slot instead of owning a `GroupCircuits`
/// clone (at 100k GPUs the per-task clones — a `BTreeMap` of circuit vectors each —
/// dominated the simulator footprint).
struct CircuitSlot {
    group: GroupId,
    /// Member count of the group (collective cost-model input).
    group_size: u32,
    /// The group's plan as [`CircuitPlanner::plan`] made it.
    pristine: GroupCircuits,
    /// The pristine plan re-striped onto the healthy rails, while the slot runs it
    /// (see [`ScenarioSim::replan_after_health_change`]). Boxed so the common
    /// healthy case costs one pointer, not a second `GroupCircuits`.
    degraded: Option<Box<GroupCircuits>>,
    /// The transfer plan prepared from the live circuits (see
    /// [`JobContext::prepare_plans`]).
    plan: SlotPlan,
}

/// What a transfer through a [`CircuitSlot`] reads of it, prepared from the slot's
/// live circuits. The prices of the steps the slot serves sit in the job's
/// [`StepPrice`] table, and its circuits in the job's dense table.
#[derive(Clone, Copy, Default)]
struct SlotPlan {
    /// The rails the live circuits use: the transfer's record rails, busy-time rails
    /// and outage-gated rails.
    rails: RailSet,
    /// The live circuits resolved to the fabric's dense tables:
    /// `dense_circuits[start..end]` of the job, the plan the controller reads.
    start: u32,
    end: u32,
}

impl SlotPlan {
    /// The slot's prepared circuits in the job's dense table `dense_circuits`.
    fn circuits(self, dense_circuits: &[DenseCircuit]) -> &[DenseCircuit] {
        &dense_circuits[self.start as usize..self.end as usize]
    }
}

/// One communication step a slot serves, priced under the slot's live plan: every
/// task with this step and slot shares the entry.
#[derive(Clone, Copy)]
struct StepPrice {
    /// The `circuit_pool` slot.
    slot: u32,
    /// The step, which keys the entry within its slot.
    step: Step,
    /// The step's α–β duration under the slot's live plan.
    duration: SimDuration,
    /// The step bypasses the rails over the host network.
    offloaded: bool,
}

impl CircuitSlot {
    /// The live circuit plan, which `plan` is prepared from: the degraded plan while
    /// the slot runs one, else the pristine plan. Transfers, requests and withdrawals
    /// read `plan`.
    fn circuits(&self) -> &GroupCircuits {
        self.degraded.as_deref().unwrap_or(&self.pristine)
    }

    /// The slot's effective scale-out cost parameters: while a degraded plan is live,
    /// bandwidth is derated by the ratio of live to pristine rail counts (the
    /// surviving rails carry the displaced traffic on top of their own); the
    /// per-step latency stays, since a ring step is a ring step.
    fn adjust_params(&self, params: CostParams) -> CostParams {
        let Some(degraded) = self.degraded.as_deref() else {
            return params;
        };
        let (live, pristine) = (degraded.per_rail.len(), self.pristine.per_rail.len());
        debug_assert!(
            live <= pristine,
            "a degraded plan spans no more rails than its pristine plan"
        );
        CostParams {
            bandwidth: params.bandwidth.scale(live as f64 / pristine as f64),
            ..params
        }
    }

    /// The α–β duration of communication `step` through this slot under its live
    /// plan, and whether the step bypasses the rails over the host network. Every
    /// collective is priced with [`COLLECTIVE_ALGORITHM`] at [`SCALEOUT_ALPHA`] or
    /// [`SCALEUP_ALPHA`] per step.
    fn price(&self, config: &OpusConfig, cluster: &Cluster, step: Step) -> (SimDuration, bool) {
        let (kind, bytes, group_size) = match step {
            Step::Collective { kind, bytes, .. } => (kind, bytes, self.group_size as usize),
            Step::PointToPoint { bytes, .. } => (CollectiveKind::SendRecv, bytes, 2),
            Step::Compute(_) => unreachable!("only communication steps have a price"),
        };
        let scaleout = !self.circuits().is_scaleup_only();
        // §5 extension: small, bursty collectives can bypass the optical rails and run
        // over the host packet-switched network instead of triggering
        // reconfigurations.
        let offloaded = scaleout && config.host_offload.is_some_and(|h| bytes <= h.threshold);
        let params = if offloaded {
            let h = config.host_offload.expect("offloaded implies configured");
            CostParams::new(h.alpha, h.bandwidth)
        } else if scaleout {
            // The paper's Fig. 8 assumes equal bandwidth on electrical and optical
            // rails, so both policies see the full NIC bandwidth once connectivity
            // exists.
            self.adjust_params(CostParams::new(
                SCALEOUT_ALPHA,
                cluster.spec().nic.total_bandwidth,
            ))
        } else {
            CostParams::new(SCALEUP_ALPHA, cluster.scaleup_bandwidth())
        };
        let duration = collective_time(kind, COLLECTIVE_ALGORITHM, group_size, bytes, &params);
        (duration, offloaded)
    }
}

/// Per-step latency of scale-out collectives (NIC + propagation).
const SCALEOUT_ALPHA: SimDuration = SimDuration::from_micros(10);

/// Per-step latency of scale-up collectives (NVLink-domain kernel launch).
const SCALEUP_ALPHA: SimDuration = SimDuration::from_micros(3);

/// The algorithm every collective is priced with. Rings are the only option that fits
/// the photonic degree constraint (C1), and the electrical baseline uses them too, so
/// the policies differ only in connectivity.
const COLLECTIVE_ALGORITHM: Algorithm = Algorithm::Ring;

/// Sentinel slot or price index for tasks without circuit demand (compute tasks).
const NO_SLOT: u32 = u32::MAX;

/// Sentinel for "no job" in the fleet's per-port tenant table.
const NO_JOB: u32 = u32::MAX;

/// Rails a [`CommRecord`](crate::CommRecord) can name: its [`RailSet`] is a 64-bit
/// mask.
const RECORD_RAILS: u32 = u64::BITS;

/// Whether the build accepts a job of `config` on `cluster` under
/// [`RecoveryPolicy::Replan`]: an optical job's re-stripe may target any healthy rail,
/// so the cluster's rails must fit a record.
fn replan_fits_record_rails(cluster: &Cluster, config: &OpusConfig) -> bool {
    !config.policy.is_optical() || cluster.num_rails() <= RECORD_RAILS
}

/// One entry of the sorted injected timeline.
struct Injection {
    at: SimTime,
    event: ScenarioEvent,
    /// For `RailDown`: the time of the next `RailUp` of the same rail in the
    /// timeline, precomputed so the health state can answer availability questions in
    /// closed form.
    recover_at: Option<SimTime>,
}

/// Steady-state iteration memoization state of one job.
///
/// ## Detection
///
/// At the end `B_m` of a stepped iteration `m` the executor may snapshot the job's
/// shared state as a [`Boundary`]: the controller's [`FabricState`] (every OCS
/// matching, plus circuit ready times and port busy ends normalized to `B_m`;
/// nothing for an electrical job, which has no controller). Iteration `m ≥ 1`
/// becomes the *template* when both hold:
///
/// * `state(B_{m−1}) == state(B_m)`, compared exactly;
/// * no injection was applied during `m − 1` or `m` (`min_pair`).
///
/// Iteration `m + 1` then starts from iteration `m`'s start state, shifted by the
/// period `B_m − B_{m−1}`, under the same regime. By determinism it replays `m`
/// shifted and ends in `state(B_m)` shifted again, and so does every later
/// unperturbed iteration. A clean run arms its template after iteration 1 and
/// fast-forwards from iteration 2: iteration 0 profiles on demand, yet its end state
/// already matches iteration 1's. A snapshot is taken only while a fast-forward
/// could still follow: the memo is enabled, no template is armed, the boundary may
/// join a pair, and an iteration would be left to replay (a 2-iteration run takes
/// none).
///
/// The state is all a later iteration reads, by this audit:
///
/// * **Controller reads.** A no-op request reads its circuits' ready times as
///   `max(ready, now)`. A reconfiguring request waits for its ports' busy ends from
///   `requested_at`, which a provisioned request clamps to no earlier than
///   `now − reconfig_latency` and an on-demand one sets to `now`; it logs
///   `max(ready, start + delay)` as a partial install's `ready_at`. Every read of an
///   iteration after `B_m` happens at `now ≥ B_m`, so values at or before the
///   [`FabricState`] horizons are indistinguishable and normalize to one marker. The
///   ready-time horizon lies before `B_m` only after an
///   [`ScenarioEvent::OcsDegraded`] made an OCS faster than the job's latency: then
///   a back-dated partial install can still log an older ready time. Writes are
///   max-merges ([`OpusController::occupy`]) and fresh installs, which overwrite
///   the values they touch.
/// * **Injections** are the only other writers of behaviour-relevant state: rail
///   health and the outage gate, OCS delays, replan plans and arrivals. The pair
///   excludes them, and a pending one blocks any fast-forward whose window reaches
///   it.
/// * **The jitter RNG** is inert ([`OpusConfig::jitter_inert`]): steady iterations
///   never draw.
/// * **The profiling flag** (did iteration 0 issue a rail transfer?) changes only
///   during iteration 0, and [`OpusConfig::provisioning_active`] is constant from
///   iteration 1 on; hence `m ≥ 1`.
/// * **Pending events.** No task event of the job is pending at its boundary, and
///   the job is the only one.
/// * **Accumulators** (request, reconfiguration and churn counters, rail busy time)
///   are never read by the run.
///
/// ## Replay
///
/// Each fast-forward applies the template's net effect on the shared state, shifted
/// to its own start, so the raw state a later naive iteration reads is exactly what
/// re-stepping would have left. The [`Template`] keeps that effect, taken at the
/// template's boundaries, not from records:
///
/// * **Per rail, the OCS effect** ([`OcsEffect`]): every matching slot an install
///   set up during iteration `m`, with its ready time at `B_m`, and the deltas of
///   the set-up, torn-down and reconfiguration counters. Each OCS marks the slots
///   whose ready time an install sets, and every boundary snapshot takes and clears
///   the marks, so the marks taken at `B_m` are exactly iteration `m`'s. Equal
///   boundaries hold the same matching, so a steady iteration ends with every peer
///   where it started. Re-stepping re-performs the template's installs from that
///   matching: it sets up exactly the marked slots, each last to its template value
///   plus the shift, and writes no other slot. A fast-forward therefore writes the
///   marked slots' ready times plus its shift and adds the counter deltas, in
///   O(marked slots), with no install. A time-based rule such as "the ready times
///   after `B_{m−1}`" would not be exact: once an `OcsDegraded` made an OCS faster
///   than the job's latency, a back-dated install can set a ready time before
///   `B_{m−1}` (see the audit above).
/// * **The occupancy footprint**: the ports whose busy end at `B_m` lies after
///   `B_{m−1}`. These are exactly the entries iteration `m` wrote, because each of
///   its transfers starts at or after `B_{m−1}` and has positive duration. They are
///   max-merged back, shifted.
/// * **Per-rail busy time and the request counters**, as differences between the
///   two boundaries' raw values.
///
/// The replay does not shift the whole state instead: the naive tables keep the
/// entries an iteration never writes where they are, and the normalized state
/// cannot restore a dominated entry's raw value.
///
/// ## Invalidation
///
/// Every applied [`ScenarioEvent`] clears the template and the pending snapshot,
/// and moves `min_pair` past the perturbed iteration, because an iteration that ran
/// under a changing fabric proves nothing about the post-change steady state. A
/// fast-forward is only scheduled when the next unapplied injection lies strictly
/// beyond the replayed window, so rail-flap timelines degrade to naive stepping
/// around the fault and re-memoize on fresh evidence afterwards. Multi-job scenarios
/// disable memoization outright (`enabled`): jobs share the fabric, so one job's
/// iterations alone cannot witness steady state. So do evicting policies, whose
/// tenancy tables the state does not cover.
struct MemoState {
    /// Structurally allowed for this job: the config knob is on, the jitter RNG is
    /// inert, the job trains, and the scenario runs a single job without eviction.
    enabled: bool,
    /// The detected steady-state template and its net effect, which every
    /// fast-forward applies. An injection clears it in one assignment.
    template: Option<Template>,
    /// The previous iteration's boundary, while it may still pair with the next.
    boundary: Option<Boundary>,
    /// Earliest iteration index admissible as the *first* member of a detection
    /// pair. Starts at 0 and moves past every iteration perturbed by an injection.
    min_pair: u32,
    /// Iterations replayed from the memo instead of re-stepped (reported as
    /// [`JobResult::memoized_iterations`], which is not serialized).
    fast_forwarded: u64,
}

/// A detected steady-state iteration `m` and its net effect on the shared state
/// over `(B_{m−1}, B_m]`, which every fast-forward applies shifted (see
/// [`MemoState`]).
struct Template {
    /// Index into `completed` of the template iteration.
    iteration: usize,
    /// Per rail, the template's OCS effect (empty without a controller).
    ocs: Vec<OcsEffect>,
    /// The template's occupancy footprint: per NIC port, its latest transfer end
    /// (see [`OpusController::port_ends_after`]; empty without a controller).
    port_ends: Vec<Vec<SimTime>>,
    /// The controller's request-counter delta `(requests, noop_requests)`.
    requests: (u64, u64),
    /// The template's transfer time per rail, added to the fleet's busy time.
    rail_busy: Vec<SimDuration>,
}

/// One iteration boundary as steady-state detection sees it (see [`MemoState`]).
struct Boundary {
    /// When the iteration ended.
    at: SimTime,
    /// The controller's normalized state (`None` without a controller).
    fabric: Option<FabricState>,
    /// The fleet's per-rail busy time.
    rail_busy: Vec<SimDuration>,
    /// The controller's `(requests, noop_requests)`.
    requests: (u64, u64),
}

impl Boundary {
    /// Snapshots `fleet` at boundary `at` for a job with `reconfig_latency`.
    fn of(fleet: &Fleet, at: SimTime, reconfig_latency: SimDuration) -> Boundary {
        let controller = fleet.controller.as_deref();
        Boundary {
            at,
            fabric: controller.map(|c| c.boundary_state(at, reconfig_latency)),
            rail_busy: fleet.rail_busy.clone(),
            requests: controller.map_or((0, 0), |c| (c.requests(), c.noop_requests())),
        }
    }
}

/// Per-job context: everything a standalone simulator used to own globally, now
/// multiplexed over the shared engine and fabric.
struct JobContext {
    job: JobId,
    gpu_offset: u32,
    /// The job's (possibly rebased) DAG, shared with the spec it came from. The run
    /// steps it through its execution layout: the step class per `Ready`, the
    /// dependents row per `Done`, the indegrees per iteration start. A communication
    /// task also reads its id, which its record row names; the iteration's
    /// [`CommLog`] shares the DAG to read each record's label, axis, kind, group and
    /// bytes back. The run copies none of it.
    dag: Arc<TrainingDag>,
    config: OpusConfig,
    /// What each scale-out transfer pays on top of its circuit wait: the electrical
    /// switch's latency on electrical rails, nothing on an optical circuit. Its
    /// [`CommLog`]s derive each record's circuit wait with it.
    datapath_latency: SimDuration,
    /// Deduplicated circuit demands, one per group the job's tasks use, planned on
    /// first use; see [`CircuitSlot`].
    circuit_pool: Vec<CircuitSlot>,
    /// Every slot's live circuits resolved to the fabric's dense tables, slot after
    /// slot; a slot's [`SlotPlan`] names its range. One allocation for the job.
    dense_circuits: Vec<DenseCircuit>,
    /// One entry per `(slot, step)` pair the job's tasks use; see [`StepPrice`].
    prices: Vec<StepPrice>,
    /// Per-position index into `prices` (`NO_SLOT` for compute tasks).
    task_price: Vec<u32>,
    /// What the shim's profile contributes to a run: iteration 0, the profiling
    /// iteration, issued at least one scale-out transfer over the rails. Provisioning
    /// needs it on top of [`OpusConfig::provisioning_active`].
    rail_profiled: bool,
    rng: SimRng,
    /// True when a `JobArrival` injection starts this job (it does not start at 0).
    arrives_via_event: bool,
    // ---- serving (elastic inference) state ----
    /// `Some` for serving jobs; see [`ServingSpec`].
    serving: Option<ServingSpec>,
    /// Per-position replica index (empty for training jobs). Tasks of replica `r`
    /// are masked out while `r >= active`.
    task_replica: Vec<u32>,
    /// Replicas executing in the in-flight iteration.
    active: u32,
    /// Replicas the *next* iteration will run with (grow/shrink events adjust this;
    /// it is snapshotted into `active` at each iteration start).
    pending_active: u32,
    /// The first `RequestBurst` has started the job.
    serving_started: bool,
    /// The backlog drained and the job is waiting for the next burst.
    serving_idle: bool,
    /// Arrival times of requests waiting to be served, FIFO.
    backlog: VecDeque<SimTime>,
    /// Latency (arrival to retiring iteration end) of every retired request.
    request_latencies: Vec<SimDuration>,
    /// Requests retired so far.
    requests_completed: u64,
    // ---- live per-iteration state ----
    iteration: u32,
    iter_start: SimTime,
    /// Per position: the task's prerequisites not yet done this iteration.
    remaining: Vec<u32>,
    /// The latest task end of the in-flight iteration (the iteration start until a
    /// task finishes): the iteration ends when its last task does.
    iter_end: SimTime,
    /// The in-flight iteration's record rows (none when the run discards records).
    comm_records: Vec<CommRow>,
    reconfig_events: Vec<ReconfigEvent>,
    total_circuit_wait: SimDuration,
    /// Done events of the current iteration still to commit.
    done_left: usize,
    completed: Vec<IterationResult>,
    memo: MemoState,
    // ---- replan (RecoveryPolicy::Replan) state ----
    /// Circuit-pool slots currently running a degraded plan.
    degraded_slots: u32,
    /// When the job's current degraded period began (`None` while fully pristine).
    degraded_since: Option<SimTime>,
    /// Closed degraded periods, accumulated; an open period is closed at collection.
    time_under_degraded_plan: SimDuration,
    /// Plan swaps performed for this job.
    replan_reconfigs: u64,
    /// Completed iterations that ran degraded for any part of their span.
    degraded_iterations: u32,
    /// The in-flight iteration has run degraded at some point.
    iter_degraded: bool,
}

impl JobContext {
    /// Prepares every slot's [`SlotPlan`] from its live circuits and every
    /// [`StepPrice`] under it. Runs when the job is built and after every replan
    /// swap, so every transfer reads a plan prepared from its slot's live circuits,
    /// degraded or not.
    fn prepare_plans(&mut self, geometry: PortGeometry, cluster: &Cluster) {
        let total = self
            .circuit_pool
            .iter()
            .map(|slot| slot.circuits().total_circuits())
            .sum();
        self.dense_circuits.clear();
        self.dense_circuits.reserve_exact(total);
        for slot in &mut self.circuit_pool {
            let start = self.dense_circuits.len() as u32;
            slot.circuits()
                .resolve_into(geometry, &mut self.dense_circuits);
            slot.plan = SlotPlan {
                rails: slot.circuits().rail_set(),
                start,
                end: self.dense_circuits.len() as u32,
            };
        }
        for price in &mut self.prices {
            let slot = &self.circuit_pool[price.slot as usize];
            (price.duration, price.offloaded) = slot.price(&self.config, cluster, price.step);
        }
    }
}

/// Each slot's plan as `execute_comm` reads it: its rails, its resolved circuits and
/// the `(step, duration, offloaded)` price of every step it serves.
#[cfg(test)]
type PlanView = Vec<(RailSet, Vec<DenseCircuit>, Vec<(Step, SimDuration, bool)>)>;

#[cfg(test)]
impl JobContext {
    /// Every slot's live prepared plan.
    fn slot_plans(&self) -> PlanView {
        self.circuit_pool
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let circuits = slot.plan.circuits(&self.dense_circuits);
                let prices = self
                    .prices
                    .iter()
                    .filter(|t| t.slot == i as u32)
                    .map(|t| (t.step, t.duration, t.offloaded))
                    .collect();
                (slot.plan.rails, circuits.to_vec(), prices)
            })
            .collect()
    }

    /// Every slot's plan prepared afresh from its live circuits.
    fn fresh_slot_plans(&self, cluster: &Cluster) -> PlanView {
        let geometry = PortGeometry::of(cluster);
        self.circuit_pool
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let mut circuits = Vec::new();
                slot.circuits().resolve_into(geometry, &mut circuits);
                let prices = self
                    .prices
                    .iter()
                    .filter(|t| t.slot == i as u32)
                    .map(|t| {
                        let (duration, offloaded) = slot.price(&self.config, cluster, t.step);
                        (t.step, duration, offloaded)
                    })
                    .collect();
                (slot.circuits().rail_set(), circuits, prices)
            })
            .collect()
    }
}

/// Fleet-wide shared state: the controller, rail health and the contention counters.
struct Fleet {
    /// The controller of the photonic rails (one OCS per rail), shared by every
    /// optical job; `None` when every job runs on electrical rails.
    controller: Option<Box<OpusController>>,
    health: RailHealth,
    /// True when the timeline contains rail failures (the per-transfer outage gate is
    /// skipped entirely otherwise, keeping clean runs byte-identical and free).
    faults: bool,
    /// True when the scenario runs more than one job (enables tenant tracking).
    multi_job: bool,
    /// Last job to transfer over each NIC port, for tenant-takeover accounting: one
    /// table per rail, indexed by the port's
    /// [`RailPort`](railsim_topology::RailPort) slot. Empty in single-job scenarios.
    port_owner: Vec<Vec<u32>>,
    rail_busy: Vec<SimDuration>,
    /// Per rail: the latest transfer end seen *per job* (a bounded small map, one
    /// entry per job that ever used the rail, linearly scanned). A single latest-end
    /// slot is not enough: when one job's long transfer holds the slot, overlaps of
    /// that same job's next transfers against *other* jobs' shorter in-flight
    /// transfers would go uncounted (three-way interleavings undercounted).
    rail_last: Vec<Vec<(u32, SimTime)>>,
    overlaps: Vec<u64>,
    port_takeovers: u64,
    injections_applied: usize,
}

impl Fleet {
    /// Adds `busy` to one rail's transfer time.
    fn add_rail_busy(&mut self, rail: usize, busy: SimDuration) {
        debug_assert!(
            self.rail_busy[rail].checked_add(busy).is_some(),
            "rail_busy[{rail}] overflowed u64 nanoseconds — the saturating clamp would \
             silently freeze the fleet counter"
        );
        self.rail_busy[rail] = self.rail_busy[rail].saturating_add(busy);
    }

    /// Accounts one scale-out, non-offloaded transfer over `rails` and the prepared
    /// `circuits`: its duration joins the busy time of every rail it uses and, in
    /// multi-job scenarios, it feeds the cross-job counters (overlap detection and
    /// port-tenant takeovers). With one job those counters are structurally zero,
    /// and the single-job path is the 100k-GPU perf-gated hot path, so it pays for
    /// the busy time only.
    fn note_transfer(
        &mut self,
        job: u32,
        rails: RailSet,
        circuits: &[DenseCircuit],
        start: SimTime,
        end: SimTime,
    ) {
        for rail in rails.iter() {
            let i = rail.index();
            self.add_rail_busy(i, end.duration_since(start));
            if !self.multi_job {
                continue;
            }
            // An overlap is counted when any *other* job still had a transfer in
            // flight on the rail when this one started (at most once per transfer
            // per rail, like the pre-fix counter).
            let entries = &mut self.rail_last[i];
            if entries
                .iter()
                .any(|&(other, last_end)| other != job && start < last_end)
            {
                self.overlaps[i] += 1;
            }
            match entries.iter_mut().find(|(other, _)| *other == job) {
                Some(entry) => entry.1 = entry.1.max(end),
                None => entries.push((job, end)),
            }
        }
        if self.multi_job {
            for circuit in circuits {
                for port in circuit.ports() {
                    let slot = &mut self.port_owner[port.rail as usize][port.index as usize];
                    if *slot != NO_JOB && *slot != job {
                        self.port_takeovers += 1;
                    }
                    *slot = job;
                }
            }
        }
    }

    /// The earliest time at or after `now` when every one of `rails` is up. Only
    /// called when the timeline contains failures.
    ///
    /// # Panics
    /// Panics when a needed rail is down with no scheduled recovery — the job could
    /// never finish, which makes the scenario unsatisfiable.
    fn outage_gate(
        &self,
        rails: RailSet,
        now: SimTime,
        job: JobId,
        dag: &TrainingDag,
        task: TaskId,
    ) -> SimTime {
        let mut gated = now;
        for rail in rails.iter() {
            if let Some(avail) = self.health.available_from(rail) {
                // The label is resolved only for the panic message.
                assert!(
                    avail != SimTime::MAX,
                    "{job} task {} needs {rail}, which failed with no scheduled \
                     recovery — the scenario timeline is unsatisfiable",
                    dag.label(task)
                );
                gated = gated.max(avail);
            }
        }
        gated
    }
}

/// Nearest-rank 99th percentile of request latencies (sorts in place). `None` for an
/// empty set — training jobs serve no requests.
fn p99(latencies: &mut [SimDuration]) -> Option<SimDuration> {
    latencies.sort_unstable();
    nearest_rank(latencies, 99)
}

/// The built, runnable scenario.
struct ScenarioSim {
    cluster: Cluster,
    jobs: Vec<JobContext>,
    fleet: Fleet,
    injections: Vec<Injection>,
    makespan: SimTime,
    records: Records,
}

impl ScenarioSim {
    /// Builds every job context and the shared fleet state.
    fn build(spec: ScenarioSpec, records: Records) -> ScenarioSim {
        let ScenarioSpec {
            cluster,
            jobs,
            injections,
        } = spec;
        assert!(!jobs.is_empty(), "a scenario needs at least one job");
        // Whatever ran before us (a DAG build, an earlier scenario) freed its memory
        // into the allocator's bins; hand it back so setup's tables and the run's
        // live state don't stack on top of dead pages.
        railsim_workload::release_free_heap();
        assert!(
            jobs.len() <= u16::MAX as usize,
            "a scenario carries the job index in a u16 event field; {} jobs exceed it",
            jobs.len()
        );
        assert!(
            injections.len() <= u32::MAX as usize,
            "a scenario carries the injection index in a u32 event field; {} injections \
             exceed it",
            injections.len()
        );
        let gpus_per_node = cluster.gpus_per_node().max(1);
        let geometry = PortGeometry::of(&cluster);

        // Sort the timeline by time (declaration order breaks ties) and precompute
        // every RailDown's scheduled recovery.
        let mut timeline: Vec<Injection> = {
            let mut indexed: Vec<(usize, SimTime, ScenarioEvent)> = injections
                .into_iter()
                .enumerate()
                .map(|(i, (at, e))| (i, at, e))
                .collect();
            indexed.sort_by_key(|&(i, at, _)| (at, i));
            indexed
                .into_iter()
                .map(|(_, at, event)| Injection {
                    at,
                    event,
                    recover_at: None,
                })
                .collect()
        };
        let mut arriving = vec![false; jobs.len()];
        for i in 0..timeline.len() {
            if let ScenarioEvent::RailDown(rail) = timeline[i].event {
                timeline[i].recover_at = timeline[i + 1..]
                    .iter()
                    .find(|inj| inj.event == ScenarioEvent::RailUp(rail))
                    .map(|inj| inj.at);
            }
            match timeline[i].event {
                ScenarioEvent::RailDown(rail)
                | ScenarioEvent::RailUp(rail)
                | ScenarioEvent::OcsDegraded { rail, .. } => {
                    assert!(
                        rail.0 < cluster.num_rails(),
                        "injected event on {rail}, but the cluster only has {} rails",
                        cluster.num_rails()
                    );
                }
                ScenarioEvent::JobArrival { job } => {
                    assert!(
                        job.index() < jobs.len(),
                        "JobArrival for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(
                        jobs[job.index()].serving.is_none(),
                        "JobArrival targets {job}, a serving job — serving jobs start on \
                         their first RequestBurst instead"
                    );
                    assert!(
                        !std::mem::replace(&mut arriving[job.index()], true),
                        "{job} arrives twice (a second JobArrival at {}); a job starts \
                         exactly once",
                        timeline[i].at
                    );
                }
                ScenarioEvent::RequestBurst { job, requests } => {
                    assert!(
                        job.index() < jobs.len(),
                        "RequestBurst for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(requests > 0, "a RequestBurst carries at least one request");
                    assert!(
                        jobs[job.index()].serving.is_some(),
                        "RequestBurst targets {job}, which is not a serving job"
                    );
                }
                ScenarioEvent::JobGrow { job } | ScenarioEvent::JobShrink { job } => {
                    assert!(
                        job.index() < jobs.len(),
                        "grow/shrink for {job}, but only {} jobs are declared",
                        jobs.len()
                    );
                    assert!(
                        jobs[job.index()].serving.is_some(),
                        "grow/shrink targets {job}, which is not a serving job"
                    );
                }
            }
        }
        let faults = timeline
            .iter()
            .any(|inj| matches!(inj.event, ScenarioEvent::RailDown(_)));
        for (j, job_spec) in jobs.iter().enumerate() {
            if job_spec.serving.is_some() {
                let fed = timeline.iter().any(|inj| {
                    matches!(inj.event,
                        ScenarioEvent::RequestBurst { job, .. } if job.index() == j)
                });
                assert!(
                    fed,
                    "job{j} is a serving job but the timeline delivers it no RequestBurst \
                     — it would never start"
                );
            }
        }

        // Place and rebase the jobs. Job 0 keeps offset 0 / group-id offset 0 under
        // automatic placement, so a single-job scenario is bit-for-bit the classic
        // simulator (`rebase(0, 0)` is a plain clone).
        let mut contexts = Vec::with_capacity(jobs.len());
        let mut next_free_gpu = 0u32;
        let mut next_group_id = 0u32;
        let mut optical_latency: Option<SimDuration> = None;
        let mut optical_eviction: Option<EvictionPolicy> = None;
        for (j, spec) in jobs.into_iter().enumerate() {
            spec.dag.validate().expect("training DAG must be valid");
            assert!(
                spec.config.iterations > 0,
                "job{j} must simulate at least one iteration"
            );
            if let Some(serving) = &spec.serving {
                assert!(
                    serving.is_valid(),
                    "job{j}'s serving spec is inconsistent: {serving:?}"
                );
                assert_eq!(
                    serving.replicas * serving.gpus_per_replica,
                    spec.dag.max_rank() + 1,
                    "job{j}'s serving spec must cover the DAG's world size"
                );
            }
            let gpu_offset = match spec.placement {
                JobPlacement::Auto => next_free_gpu.div_ceil(gpus_per_node) * gpus_per_node,
                JobPlacement::AtGpu(offset) => offset,
            };
            let max_rank = spec.dag.max_rank();
            let last_gpu = gpu_offset
                .checked_add(max_rank)
                .filter(|&gpu| gpu < cluster.num_gpus())
                .unwrap_or_else(|| {
                    panic!(
                        "job{j} places rank {max_rank} at GPU {} but the cluster only has {} \
                         GPUs",
                        gpu_offset as u64 + max_rank as u64,
                        cluster.num_gpus()
                    )
                });
            let group_offset = if j == 0 { 0 } else { next_group_id };
            // Share the template straight in when no rebase is needed — an `Arc`
            // clone, so a fleet of scenarios built from one template never copies
            // its (potentially 100k-GPU, multi-million-task) columns; a rebase
            // copies only the rank-bearing columns and shares the rest.
            let dag = if gpu_offset == 0 && group_offset == 0 {
                spec.dag
            } else {
                Arc::new(spec.dag.rebase(gpu_offset, group_offset))
            };
            next_free_gpu = next_free_gpu.max(last_gpu + 1);
            next_group_id = next_group_id.max(dag.groups.keys().next_back().map_or(0, |g| g.0 + 1));
            if spec.config.policy.is_optical() {
                let latency = spec.config.reconfig_latency;
                match optical_latency {
                    None => optical_latency = Some(latency),
                    Some(existing) => assert_eq!(
                        existing, latency,
                        "all optical jobs of a scenario must agree on the OCS \
                         reconfiguration latency (the fabric is shared)"
                    ),
                }
                match optical_eviction {
                    None => optical_eviction = Some(spec.config.eviction),
                    Some(existing) => assert_eq!(
                        existing, spec.config.eviction,
                        "all optical jobs of a scenario must agree on the eviction \
                         policy (the controller is shared)"
                    ),
                }
            }
            let ctx = Self::build_job(
                &cluster,
                geometry,
                JobId(j as u32),
                gpu_offset,
                dag,
                spec.config,
                arriving[j],
                spec.serving,
            );
            contexts.push(ctx);
        }

        let controller = optical_latency.map(|latency| {
            let mut controller = Box::new(OpusController::new(OpticalRailFabric::for_cluster(
                &cluster, latency,
            )));
            if let Some(policy) = optical_eviction.filter(|p| p.can_evict()) {
                controller.set_eviction(policy, contexts.len() as u32);
                // Evictions make the shared port state policy-dependent mid-run;
                // the memo's shifted-replay proof no longer holds.
                for ctx in &mut contexts {
                    ctx.memo.enabled = false;
                }
            }
            controller
        });
        let num_rails = cluster.num_rails() as usize;
        let multi_job = contexts.len() > 1;
        if multi_job {
            // Jobs share the fabric, so one job's own iterations cannot witness
            // steady state: another job's transfers move the shared port occupancy
            // and circuit set under it at any time. Multi-job scenarios therefore
            // always step naively — the sanctioned graceful degradation.
            for ctx in &mut contexts {
                ctx.memo.enabled = false;
            }
        }
        let port_owner = if multi_job {
            vec![vec![NO_JOB; geometry.ports_per_rail()]; num_rails]
        } else {
            Vec::new()
        };
        let fleet = Fleet {
            controller,
            health: RailHealth::new(num_rails),
            faults,
            multi_job,
            port_owner,
            rail_busy: vec![SimDuration::ZERO; num_rails],
            rail_last: vec![Vec::new(); num_rails],
            overlaps: vec![0; num_rails],
            port_takeovers: 0,
            injections_applied: 0,
        };

        ScenarioSim {
            cluster,
            jobs: contexts,
            fleet,
            injections: timeline,
            makespan: SimTime::ZERO,
            records,
        }
    }

    /// Builds one job's context (the tables the classic simulator built globally).
    #[allow(clippy::too_many_arguments)]
    fn build_job(
        cluster: &Cluster,
        geometry: PortGeometry,
        job: JobId,
        gpu_offset: u32,
        dag: Arc<TrainingDag>,
        config: OpusConfig,
        arrives_via_event: bool,
        serving: Option<ServingSpec>,
    ) -> JobContext {
        let (circuit_pool, prices, task_price) = Self::plan_task_circuits(cluster, &dag);
        Self::check_record_rails(cluster, job, &config, &circuit_pool);
        let rng = SimRng::new(config.seed);
        let n = dag.len();
        // Inference replicas share no tasks, so a task's replica is simply its first
        // participant's slice of the job's GPU range.
        let task_replica: Vec<u32> = match &serving {
            Some(s) => dag
                .layout()
                .order()
                .iter()
                .map(|&id| (dag.participants(id).first().0 - gpu_offset) / s.gpus_per_replica)
                .collect(),
            None => Vec::new(),
        };
        let is_training = serving.is_none();
        let datapath_latency = if config.policy.is_optical() {
            SimDuration::ZERO
        } else {
            ELECTRICAL_SWITCH_LATENCY
        };
        let mut ctx = JobContext {
            job,
            gpu_offset,
            dag,
            config,
            datapath_latency,
            circuit_pool,
            dense_circuits: Vec::new(),
            prices,
            task_price,
            rail_profiled: false,
            rng,
            arrives_via_event,
            active: serving.as_ref().map_or(0, |s| s.initial_replicas),
            pending_active: serving.as_ref().map_or(0, |s| s.initial_replicas),
            serving_started: false,
            serving_idle: false,
            backlog: VecDeque::new(),
            request_latencies: Vec::new(),
            requests_completed: 0,
            task_replica,
            serving,
            iteration: 0,
            iter_start: SimTime::ZERO,
            remaining: Vec::with_capacity(n),
            iter_end: SimTime::ZERO,
            comm_records: Vec::new(),
            reconfig_events: Vec::new(),
            total_circuit_wait: SimDuration::ZERO,
            done_left: 0,
            completed: Vec::new(),
            memo: MemoState {
                // Jitter must be inert: a drawing RNG makes every iteration unique
                // *and* replay would have to reproduce the stream's advancement.
                // Serving jobs iterate on demand, not a steady cycle. `build`
                // additionally disables the memo for multi-job scenarios.
                enabled: config.memoize_steady_state && config.jitter_inert() && is_training,
                template: None,
                boundary: None,
                min_pair: 0,
                fast_forwarded: 0,
            },
            degraded_slots: 0,
            degraded_since: None,
            time_under_degraded_plan: SimDuration::ZERO,
            replan_reconfigs: 0,
            degraded_iterations: 0,
            iter_degraded: false,
        };
        ctx.prepare_plans(geometry, cluster);
        ctx
    }

    /// Rejects a job whose transfers could use a rail a record's [`RailSet`] cannot
    /// hold: a pristine circuit plan on such a rail, or an optical
    /// [`RecoveryPolicy::Replan`] job on a cluster that has one (a re-stripe may
    /// target any healthy rail).
    fn check_record_rails(
        cluster: &Cluster,
        job: JobId,
        config: &OpusConfig,
        pool: &[CircuitSlot],
    ) {
        if config.recovery_policy == RecoveryPolicy::Replan {
            assert!(
                replan_fits_record_rails(cluster, config),
                "{job} re-plans around failed rails on a cluster with {} rails, but a \
                 transfer record holds rails 0..{RECORD_RAILS} only",
                cluster.num_rails()
            );
        }
        for slot in pool {
            if let Some(rail) = slot.pristine.per_rail.keys().find(|r| r.0 >= RECORD_RAILS) {
                panic!(
                    "{job} {} plans circuits on {rail}, but a transfer record holds rails \
                     0..{RECORD_RAILS} only",
                    slot.group
                );
            }
        }
    }

    /// Plans the circuit demand of every communication task, deduplicated into one
    /// [`CircuitSlot`] per communication group (plus one per ad-hoc point-to-point
    /// pair that belongs to no group), and lists each `(slot, step)` pair the tasks
    /// use as a [`StepPrice`], not yet priced. Slots are assigned, and groups
    /// planned, in task-id order on first use. Returns the pool, the prices and each
    /// position's price index.
    fn plan_task_circuits(
        cluster: &Cluster,
        dag: &TrainingDag,
    ) -> (Vec<CircuitSlot>, Vec<StepPrice>, Vec<u32>) {
        const NO_GROUP: u32 = u32::MAX;
        let planner = CircuitPlanner::for_cluster(cluster);
        let mut pool: Vec<CircuitSlot> = Vec::new();
        let new_slot = |pool: &mut Vec<CircuitSlot>, group: &CommGroup, group_size: u32| {
            pool.push(CircuitSlot {
                group: group.id,
                group_size,
                pristine: planner.plan(cluster, group),
                degraded: None,
                plan: SlotPlan::default(),
            });
            pool.len() as u32 - 1
        };
        // Group ids are dense, so a table indexed from the first id holds each
        // group's slot.
        let first_group = dag.groups.keys().next().map_or(0, |g| g.0);
        let group_span = dag
            .groups
            .keys()
            .next_back()
            .map_or(0, |g| g.0 - first_group + 1);
        let mut group_slot = vec![NO_SLOT; group_span as usize];
        // Groups partition the ranks of each axis, so `(axis, rank) -> group` is a
        // function: one table over the ranks per axis, filled when the axis's first
        // point-to-point task asks.
        let mut member_group: [Vec<u32>; ParallelismAxis::ALL.len()] = Default::default();
        let mut prices: Vec<StepPrice> = Vec::new();
        // Each slot's prices, chained: `first_price[slot]`, then `next_price`.
        let mut first_price: Vec<u32> = Vec::new();
        let mut next_price: Vec<u32> = Vec::new();
        let mut task_price = vec![NO_SLOT; dag.len()];
        // Consecutive tasks often repeat a kind, and a repeated kind of a group's task
        // has the same price. (An ad-hoc pair's slot is the task's own.)
        let mut last: Option<(TaskKind, u32)> = None;
        for (t, price_of_t) in task_price.iter_mut().enumerate() {
            let kind = dag.kind(TaskId(t as u32));
            if !kind.is_communication() {
                continue;
            }
            if let Some((last_kind, price)) = last {
                if last_kind == kind {
                    *price_of_t = price;
                    continue;
                }
            }
            let mut group_slot_of = |pool: &mut Vec<CircuitSlot>, id: GroupId| {
                let slot = &mut group_slot[(id.0 - first_group) as usize];
                if *slot == NO_SLOT {
                    let group = &dag.groups[&id];
                    *slot = new_slot(pool, group, group.size() as u32);
                }
                *slot
            };
            let (slot, grouped) = match kind {
                TaskKind::Collective { group, .. } => (group_slot_of(&mut pool, group), true),
                TaskKind::PointToPoint { src, dst, axis, .. } => {
                    // A point-to-point transfer uses the circuits of the communication
                    // group it belongs to (circuit allocation is per group, §5): the
                    // group on the same axis containing both endpoints, or else an
                    // ad-hoc pair planned for this task alone.
                    let members = &mut member_group[axis as usize];
                    if members.is_empty() {
                        for g in dag.groups.values().filter(|g| g.axis == axis) {
                            for rank in &g.ranks {
                                if members.len() <= rank.index() {
                                    members.resize(rank.index() + 1, NO_GROUP);
                                }
                                members[rank.index()] = g.id.0;
                            }
                        }
                    }
                    let member = |rank: GpuId| members.get(rank.index()).copied();
                    match member(src) {
                        Some(group) if group != NO_GROUP && member(dst) == Some(group) => {
                            (group_slot_of(&mut pool, GroupId(group)), true)
                        }
                        _ => {
                            let pseudo =
                                CommGroup::new(GroupId(u32::MAX - t as u32), axis, vec![src, dst]);
                            (new_slot(&mut pool, &pseudo, 2), false)
                        }
                    }
                }
                TaskKind::Compute { .. } => unreachable!("compute tasks were skipped"),
            };
            first_price.resize(pool.len(), NO_SLOT);
            let step = Step::from(kind);
            let mut price = first_price[slot as usize];
            while price != NO_SLOT && prices[price as usize].step != step {
                price = next_price[price as usize];
            }
            if price == NO_SLOT {
                price = prices.len() as u32;
                prices.push(StepPrice {
                    slot,
                    step,
                    duration: SimDuration::ZERO,
                    offloaded: false,
                });
                next_price.push(first_price[slot as usize]);
                first_price[slot as usize] = price;
            }
            *price_of_t = price;
            last = grouped.then_some((kind, price));
        }
        let position_price = dag
            .layout()
            .order()
            .iter()
            .map(|id| task_price[id.0 as usize])
            .collect();
        (pool, prices, position_price)
    }

    /// Runs every job to completion, applying the injected timeline.
    fn run_scenario(&mut self) {
        let mut engine: Engine<SimEvent> = Engine::new();
        // External events first: they win every same-timestamp tie against task
        // events (which are scheduled later, so they queue behind).
        for (i, inj) in self.injections.iter().enumerate() {
            engine.schedule_at(inj.at, SimEvent::External(i as u32));
        }
        for j in 0..self.jobs.len() {
            if !self.jobs[j].arrives_via_event && self.jobs[j].serving.is_none() {
                self.start_iteration(j, SimTime::ZERO, &mut engine);
            }
        }

        while let Some((now, event)) = engine.pop() {
            self.commit_event(&mut engine, now, event);
        }

        assert_eq!(
            engine.clamped_events(),
            0,
            "the scenario executor never schedules into the past; a clamp means a \
             commit scheduled an event before the time it committed at"
        );
        for ctx in &self.jobs {
            if ctx.serving.is_some() {
                assert!(
                    ctx.backlog.is_empty(),
                    "{} ended with {} unserved requests — the serving loop stalled",
                    ctx.job,
                    ctx.backlog.len()
                );
                assert!(
                    ctx.requests_completed > 0,
                    "{} is a serving job that retired no requests",
                    ctx.job
                );
            } else {
                assert_eq!(
                    ctx.completed.len(),
                    ctx.config.iterations as usize,
                    "{} finished {} of {} iterations — it never arrived or was starved",
                    ctx.job,
                    ctx.completed.len(),
                    ctx.config.iterations
                );
            }
        }
        self.makespan = engine.now();
    }

    /// Collects the per-job and fleet results.
    fn into_result(mut self) -> ScenarioResult {
        let controller = self.fleet.controller.as_deref();
        let fabric = controller.map(|c| c.fabric());
        let circuits_set_up_by_rail = fabric
            .map(|f| f.circuits_set_up_by_rail())
            .unwrap_or_default();
        let circuits_torn_down_by_rail = fabric
            .map(|f| f.circuits_torn_down_by_rail())
            .unwrap_or_default();
        let (controller_requests, noop_requests) =
            controller.map_or((0, 0), |c| (c.requests(), c.noop_requests()));
        // Tenant-fairness accounting: the controller's per-tenant ledgers (only
        // populated under an eviction policy other than `Never`) plus each job's
        // share of the scenario-wide circuit wait.
        let (evictions, circuits_evicted_by_rail) = match controller {
            Some(c) if c.tenancy_active() => (
                (0..self.jobs.len() as u32)
                    .map(|t| (c.evictions_suffered_by(t), c.evictions_inflicted_by(t)))
                    .collect::<Vec<_>>(),
                c.circuits_evicted_by_rail().to_vec(),
            ),
            _ => (vec![(0, 0); self.jobs.len()], Vec::new()),
        };
        let job_wait: Vec<SimDuration> = self
            .jobs
            .iter()
            .map(|ctx| {
                ctx.completed.iter().fold(SimDuration::ZERO, |acc, it| {
                    acc.saturating_add(it.total_circuit_wait)
                })
            })
            .collect();
        let total_wait: f64 = job_wait.iter().map(|w| w.as_nanos() as f64).sum();
        let fleet = FleetMetrics {
            rail_busy: std::mem::take(&mut self.fleet.rail_busy),
            cross_job_rail_overlaps: std::mem::take(&mut self.fleet.overlaps),
            cross_job_port_takeovers: self.fleet.port_takeovers,
            circuits_set_up_by_rail,
            circuits_torn_down_by_rail,
            circuits_evicted_by_rail,
            controller_requests,
            noop_requests,
            rail_failures: self.fleet.health.failures_by_rail().to_vec(),
            rail_downtime: self.fleet.health.downtime_by_rail().to_vec(),
            injections_applied: self.fleet.injections_applied,
            makespan: self.makespan,
        };
        let makespan = self.makespan;
        let jobs = self
            .jobs
            .into_iter()
            .enumerate()
            .map(|(j, mut ctx)| {
                // A degraded period still open at collection time ends at the
                // scenario's makespan (the outage was never recovered).
                if let Some(since) = ctx.degraded_since.take() {
                    ctx.time_under_degraded_plan = ctx
                        .time_under_degraded_plan
                        .saturating_add(makespan.duration_since(since));
                }
                let (evictions_suffered, evictions_inflicted) = evictions[j];
                let circuit_wait_share = if total_wait > 0.0 {
                    job_wait[j].as_nanos() as f64 / total_wait
                } else {
                    0.0
                };
                JobResult {
                    job: ctx.job,
                    gpu_offset: ctx.gpu_offset,
                    policy: ctx.config.policy,
                    degraded_iterations: ctx.degraded_iterations,
                    replan_reconfigs: ctx.replan_reconfigs,
                    time_under_degraded_plan: ctx.time_under_degraded_plan,
                    evictions_suffered,
                    evictions_inflicted,
                    circuit_wait_share,
                    requests_completed: ctx.requests_completed,
                    p99_request_latency: p99(&mut ctx.request_latencies),
                    memoized_iterations: ctx.memo.fast_forwarded,
                    result: SimulationResult {
                        iterations: ctx.completed,
                    },
                }
            })
            .collect();
        ScenarioResult { jobs, fleet }
    }

    /// Resets job `j`'s per-iteration state and schedules its root tasks at `at`, in
    /// position order, which is ascending task id.
    fn start_iteration(&mut self, j: usize, at: SimTime, engine: &mut Engine<SimEvent>) {
        let ctx = &mut self.jobs[j];
        let layout = ctx.dag.layout();
        ctx.iter_start = at;
        ctx.iter_degraded = ctx.degraded_slots > 0;
        ctx.remaining.clear();
        ctx.remaining.extend_from_slice(layout.indegrees());
        ctx.iter_end = at;
        if self.records == Records::Keep {
            // An iteration usually issues as many transfers as the one before it, so
            // reserve that many rows: the buffer then neither regrows nor keeps the
            // doubling's slack for the rest of the run.
            let expected = ctx.completed.last().map_or(0, |it| it.comm_records.len());
            ctx.comm_records.reserve_exact(expected);
        }
        let roots = (0..layout.roots() as u32).map(Position);
        if ctx.serving.is_some() {
            // Snapshot the elastic size for this iteration and mask out every task
            // of a replica at or beyond it (replicas share no tasks, so a masked
            // replica is a closed subgraph — none of its tasks are reachable from
            // an unmasked root).
            ctx.active = ctx.pending_active;
            let active = ctx.active;
            ctx.done_left = ctx.task_replica.iter().filter(|&&r| r < active).count();
            debug_assert!(
                ctx.done_left > 0,
                "a serving iteration must run at least one replica"
            );
            for pos in roots.filter(|pos| ctx.task_replica[pos.index()] < active) {
                engine.schedule_at(at, SimEvent::Ready(j as u16, pos));
            }
        } else {
            ctx.done_left = layout.order().len();
            for pos in roots {
                engine.schedule_at(at, SimEvent::Ready(j as u16, pos));
            }
        }
    }

    /// Finalizes job `j`'s just-completed iteration and starts the next one (or
    /// retires the job).
    fn finish_iteration(&mut self, j: usize, engine: &mut Engine<SimEvent>) {
        let ScenarioSim {
            jobs,
            fleet,
            records,
            ..
        } = &mut *self;
        let ctx = &mut jobs[j];
        debug_assert!(
            ctx.remaining
                .iter()
                .enumerate()
                .all(|(i, &r)| r == 0
                    || (ctx.serving.is_some() && ctx.task_replica[i] >= ctx.active)),
            "every unmasked task must have executed"
        );
        let start = ctx.iter_start;
        let end = ctx.iter_end;
        let mut comm_records = std::mem::take(&mut ctx.comm_records);
        // Order by `(issued_at, task)`. A row is issued when its `Ready` commits,
        // and the engine commits in time order, so the rows already ascend in issue
        // time: only each run of equal issue times needs sorting, by task id. A task
        // issues one row per iteration, so the key is unique and the unstable sort
        // lands on the stable order.
        debug_assert!(
            comm_records
                .windows(2)
                .all(|w| w[0].issued_at <= w[1].issued_at),
            "rows are pushed in nondecreasing issue time"
        );
        for tied in comm_records.chunk_by_mut(|a, b| a.issued_at == b.issued_at) {
            tied.sort_unstable_by_key(|r| r.task);
        }
        // The events are wrapped before the records. Either order gives the same
        // result, but this one measured a steadier glibc heap across back-to-back
        // runs in one process, which the next run's set-up reuses (see "Shared
        // fast-forward records" in EXPERIMENTS.md).
        let reconfig_events = std::mem::take(&mut ctx.reconfig_events).into();
        let comm_records = match records {
            Records::Keep => {
                CommLog::new((Arc::clone(&ctx.dag), ctx.datapath_latency), comm_records)
            }
            Records::Discard => CommLog::default(),
        };
        let result = IterationResult {
            iteration: ctx.iteration,
            iteration_time: end.duration_since(start),
            started_at: start,
            comm_records,
            reconfig_events,
            total_circuit_wait: ctx.total_circuit_wait,
        };
        ctx.total_circuit_wait = SimDuration::ZERO;
        ctx.completed.push(result);
        if ctx.iter_degraded {
            ctx.degraded_iterations += 1;
        }
        ctx.iteration += 1;
        if let Some(spec) = ctx.serving {
            // Retire the oldest requests this iteration's active batch capacity
            // covers, then keep iterating while the backlog holds more — or go
            // idle until the next burst.
            let capacity = spec.batch_capacity as usize * ctx.active as usize;
            for _ in 0..capacity.min(ctx.backlog.len()) {
                let arrived = ctx.backlog.pop_front().expect("len checked");
                ctx.request_latencies.push(end.duration_since(arrived));
                ctx.requests_completed += 1;
            }
            if ctx.backlog.is_empty() {
                ctx.serving_idle = true;
            } else {
                self.start_iteration(j, end, engine);
            }
            return;
        }
        // Steady-state detection: compare this boundary's fabric state with the
        // previous boundary's. See [`MemoState`] for why equal states make every
        // later unperturbed iteration a shifted replay of this one.
        let m = ctx.iteration - 1;
        let iterations = ctx.config.iterations;
        if ctx.memo.enabled && ctx.memo.template.is_none() && m >= ctx.memo.min_pair {
            let prev = ctx.memo.boundary.take();
            if prev.is_some() || m + 2 < iterations {
                let boundary = Boundary::of(fleet, end, ctx.config.reconfig_latency);
                // Every snapshot takes the OCS effects, so those taken at an arming
                // boundary are exactly the template iteration's.
                let controller = fleet.controller.as_deref_mut();
                let ocs = controller.map_or_else(Vec::new, |c| c.take_ocs_effects());
                match prev {
                    Some(prev) if prev.fabric == boundary.fabric => {
                        debug_assert_eq!(prev.at, start, "a boundary pairs with the next one");
                        let controller = fleet.controller.as_deref();
                        ctx.memo.template = Some(Template {
                            iteration: m as usize,
                            ocs,
                            port_ends: controller
                                .map_or_else(Vec::new, |c| c.port_ends_after(prev.at)),
                            requests: (
                                boundary.requests.0 - prev.requests.0,
                                boundary.requests.1 - prev.requests.1,
                            ),
                            rail_busy: boundary
                                .rail_busy
                                .iter()
                                .zip(&prev.rail_busy)
                                .map(|(&after, &before)| after - before)
                                .collect(),
                        });
                    }
                    _ if m + 2 < iterations => ctx.memo.boundary = Some(boundary),
                    _ => {}
                }
            }
        }
        if ctx.iteration < ctx.config.iterations && !self.try_fast_forward(j, end, engine) {
            self.start_iteration(j, end, engine);
        }
    }

    /// Schedules job `j`'s next iteration as a memoized fast-forward when a
    /// steady-state template exists and the replayed window `(at, at + period]` is
    /// provably free of external events. Returns false when the iteration must be
    /// stepped naively.
    fn try_fast_forward(&mut self, j: usize, at: SimTime, engine: &mut Engine<SimEvent>) -> bool {
        let ctx = &self.jobs[j];
        let Some(template) = &ctx.memo.template else {
            return false;
        };
        let predicted_end = at + ctx.completed[template.iteration].iteration_time;
        // Injections apply in timeline order, so the next unapplied one is the
        // earliest. It must lie *strictly* beyond the predicted end: an external at
        // exactly that time would commit before the replay event (externals are
        // scheduled first) and could perturb same-instant task events the template
        // baked in.
        if let Some(next) = self.injections.get(self.fleet.injections_applied) {
            if next.at <= predicted_end {
                return false;
            }
        }
        self.jobs[j].iter_start = at;
        engine.schedule_at(predicted_end, SimEvent::FastForward(j as u16));
        true
    }

    /// Commits one memoized fast-forward: emits the template iteration shifted to
    /// start at the job's `iter_start` (sharing the template's records and
    /// reconfiguration events, so the emission costs O(1)), applies the template's
    /// net effect on the shared state shifted by the same offset (each rail's OCS
    /// ready times and counters, port occupancy, request counters, rail busy time),
    /// and schedules the next iteration (fast-forwarded again, or naively when an
    /// injection comes into range). Nothing is installed: by the argument on
    /// [`MemoState`] ("Replay"), writing the template's set-up slots equals
    /// re-performing its installs, and the emitted result is byte-identical to
    /// naive stepping — the determinism suites pin this.
    fn commit_fast_forward(&mut self, j: usize, now: SimTime, engine: &mut Engine<SimEvent>) {
        let ScenarioSim { jobs, fleet, .. } = self;
        let ctx = &mut jobs[j];
        let effect = ctx
            .memo
            .template
            .as_ref()
            .expect("a scheduled fast-forward has a template");
        let template = &ctx.completed[effect.iteration];
        let shift = ctx.iter_start.duration_since(template.started_at);
        debug_assert_eq!(
            now,
            ctx.iter_start + template.iteration_time,
            "a fast-forward commits exactly at its predicted iteration end"
        );
        let comm_records = template.comm_records.shifted(shift);
        let reconfig_events = template.reconfig_events.shifted(shift);
        let iteration_time = template.iteration_time;
        let total_circuit_wait = template.total_circuit_wait;
        // Leave the shared state the re-stepped iteration would have left behind; it
        // matters the moment an injection later breaks steadiness and the stateful
        // request path resumes reading it. Port occupancy is a max-merge, so merging
        // the template's per-port latest ends, shifted, lands on exactly the
        // per-transfer result.
        if let Some(controller) = fleet.controller.as_deref_mut() {
            controller.replay_ocs_effects(&effect.ocs, shift);
            controller.replay_port_ends(&effect.port_ends, shift);
            let (requests, noops) = effect.requests;
            controller.replay_requests(requests, noops);
        }
        for (rail, &busy) in effect.rail_busy.iter().enumerate() {
            fleet.add_rail_busy(rail, busy);
        }
        ctx.completed.push(IterationResult {
            iteration: ctx.iteration,
            iteration_time,
            started_at: ctx.iter_start,
            comm_records,
            reconfig_events,
            total_circuit_wait,
        });
        ctx.memo.fast_forwarded += 1;
        // A fast-forward replays a steady iteration under whatever plan was live when
        // the template was recorded; swaps invalidate the memo, so the degraded state
        // is constant across the whole replayed window.
        if ctx.degraded_slots > 0 {
            ctx.degraded_iterations += 1;
        }
        ctx.iteration += 1;
        if ctx.iteration < ctx.config.iterations && !self.try_fast_forward(j, now, engine) {
            self.start_iteration(j, now, engine);
        }
    }

    /// Applies one popped event: executes a job task, releases its dependents, or
    /// applies an injected external event.
    fn commit_event(&mut self, engine: &mut Engine<SimEvent>, now: SimTime, event: SimEvent) {
        match event {
            SimEvent::Ready(j, pos) => {
                let j = j as usize;
                let keep_record = self.records == Records::Keep;
                let (end, record) = {
                    let ScenarioSim { jobs, fleet, .. } = self;
                    Self::execute_task(&mut jobs[j], fleet, pos, now)
                };
                let ctx = &mut self.jobs[j];
                ctx.iter_end = ctx.iter_end.max(end);
                if let Some((row, circuit_wait)) = record {
                    debug_assert!(
                        ctx.total_circuit_wait.checked_add(circuit_wait).is_some(),
                        "total_circuit_wait overflowed u64 nanoseconds — the saturating \
                         clamp would silently freeze the metric"
                    );
                    ctx.total_circuit_wait = ctx.total_circuit_wait.saturating_add(circuit_wait);
                    if keep_record {
                        ctx.comm_records.push(row);
                    }
                }
                engine.schedule_at(end, SimEvent::Done(j as u16, pos));
            }
            SimEvent::Done(j, pos) => {
                let j = j as usize;
                let ctx = &mut self.jobs[j];
                for &dependent in ctx.dag.layout().dependents(pos) {
                    let slot = &mut ctx.remaining[dependent.index()];
                    debug_assert!(*slot > 0, "dependency counter underflow");
                    *slot -= 1;
                    if *slot == 0 {
                        engine.schedule_at(now, SimEvent::Ready(j as u16, dependent));
                    }
                }
                ctx.done_left -= 1;
                if ctx.done_left == 0 {
                    self.finish_iteration(j, engine);
                }
            }
            SimEvent::External(idx) => self.apply_injection(idx as usize, now, engine),
            SimEvent::FastForward(j) => self.commit_fast_forward(j as usize, now, engine),
        }
    }

    /// Applies one injected external event at its committed time.
    fn apply_injection(&mut self, idx: usize, now: SimTime, engine: &mut Engine<SimEvent>) {
        self.fleet.injections_applied += 1;
        // Every external event invalidates steady-state memos: the template was
        // recorded against the pre-event fabric, and the iteration the event landed
        // in ran under a *changing* fabric, so it may not seed a new detection pair
        // either. (A fast-forward in flight is impossible here — it is only
        // scheduled when this injection lies strictly beyond its window.)
        for ctx in &mut self.jobs {
            if ctx.memo.enabled {
                ctx.memo.template = None;
                ctx.memo.boundary = None;
                ctx.memo.min_pair = ctx.iteration + 1;
            }
        }
        let Injection {
            event, recover_at, ..
        } = self.injections[idx];
        match event {
            ScenarioEvent::RailDown(rail) => {
                self.fleet.health.fail(rail, now, recover_at);
                if let Some(c) = self.fleet.controller.as_deref_mut() {
                    c.rail_failed(rail);
                }
                self.replan_after_health_change(now);
            }
            ScenarioEvent::RailUp(rail) => {
                // Overlapping outage pulses collapse into one outage, leaving the
                // later `RailUp` with nothing to close — `recover` asserts on that.
                if !self.fleet.health.is_up(rail) {
                    self.fleet.health.recover(rail, now);
                    self.replan_after_health_change(now);
                }
            }
            ScenarioEvent::OcsDegraded {
                rail,
                reconfig_latency,
            } => {
                if let Some(c) = self.fleet.controller.as_deref_mut() {
                    c.set_rail_reconfig_delay(rail, reconfig_latency);
                }
            }
            ScenarioEvent::JobArrival { job } => self.start_iteration(job.index(), now, engine),
            ScenarioEvent::RequestBurst { job, requests } => {
                let j = job.index();
                let ctx = &mut self.jobs[j];
                for _ in 0..requests {
                    ctx.backlog.push_back(now);
                }
                // The first burst starts the job; a burst into an idle job resumes
                // it. A busy job just absorbed the burst into its backlog — its
                // in-flight iteration picks the requests up at its boundary.
                if !ctx.serving_started || ctx.serving_idle {
                    ctx.serving_started = true;
                    ctx.serving_idle = false;
                    self.start_iteration(j, now, engine);
                }
            }
            ScenarioEvent::JobGrow { job } => {
                let ctx = &mut self.jobs[job.index()];
                let max = ctx.serving.expect("build validated the target").replicas;
                ctx.pending_active = (ctx.pending_active + 1).min(max);
            }
            ScenarioEvent::JobShrink { job } => {
                let ctx = &mut self.jobs[job.index()];
                ctx.pending_active = ctx.pending_active.saturating_sub(1).max(1);
            }
        }
    }

    /// Re-plans every `RecoveryPolicy::Replan` job's circuit demands against the rail
    /// health that the just-committed injection left behind, by one rule: a slot runs
    /// its pristine plan unless one of its rails is down and the pristine plan
    /// re-striped onto the healthy rails ([`CircuitPlanner::replan_degraded`]) is
    /// non-empty, in which case it runs that re-striped plan. A group with no healthy
    /// rail to re-stripe onto therefore keeps its pristine plan and stalls, as under
    /// [`RecoveryPolicy::Stall`]; an empty plan would masquerade as scale-up-only.
    ///
    /// A slot whose plan changes swaps to it. The plan it leaves is withdrawn from
    /// the fabric only when it was a degraded one: a pristine plan lost its circuits
    /// on the failed rail with the rail (`rail_failed` cleared its OCS), and the
    /// re-striped plan keeps its surviving circuits verbatim. The new plan installs
    /// lazily on the group's next request, paying one reconfiguration delay.
    /// Everything here runs at injection commit time, so each swap is a
    /// deterministic function of the committed timeline.
    fn replan_after_health_change(&mut self, now: SimTime) {
        let ScenarioSim {
            cluster,
            jobs,
            fleet,
            ..
        } = self;
        if !jobs.iter().any(|c| {
            c.config.recovery_policy == RecoveryPolicy::Replan && c.config.policy.is_optical()
        }) {
            return;
        }
        let healthy: Vec<RailId> = fleet.health.healthy_rails().collect();
        let planner = CircuitPlanner::for_cluster(cluster);
        let geometry = PortGeometry::of(cluster);
        for ctx in jobs.iter_mut() {
            if ctx.config.recovery_policy != RecoveryPolicy::Replan
                || !ctx.config.policy.is_optical()
            {
                continue;
            }
            let mut swapped = false;
            for slot in &mut ctx.circuit_pool {
                let pristine = &slot.pristine;
                let degraded = pristine
                    .per_rail
                    .keys()
                    .any(|&r| !fleet.health.is_up(r))
                    .then(|| planner.replan_degraded(cluster, pristine, &healthy))
                    .filter(|plan| !plan.is_scaleup_only());
                if degraded.as_ref() == slot.degraded.as_deref() {
                    continue;
                }
                // `prepare_plans` runs only after every slot is swapped, so `plan`
                // is still the one prepared from the plan being left.
                if slot.degraded.is_some() {
                    if let Some(c) = fleet.controller.as_deref_mut() {
                        c.withdraw(slot.plan.circuits(&ctx.dense_circuits));
                    }
                }
                slot.degraded = degraded.map(Box::new);
                ctx.replan_reconfigs += 1;
                swapped = true;
            }
            ctx.degraded_slots = ctx
                .circuit_pool
                .iter()
                .filter(|s| s.degraded.is_some())
                .count() as u32;
            if ctx.degraded_slots > 0 {
                if ctx.degraded_since.is_none() {
                    ctx.degraded_since = Some(now);
                }
            } else if let Some(since) = ctx.degraded_since.take() {
                ctx.time_under_degraded_plan = ctx
                    .time_under_degraded_plan
                    .saturating_add(now.duration_since(since));
            }
            if swapped {
                ctx.prepare_plans(geometry, cluster);
                ctx.iter_degraded = true;
            }
        }
    }

    /// Executes the task at `pos` of one job, which became ready at `now`; returns
    /// its end time and, for communication tasks, the row recording what happened
    /// and the circuit wait it paid.
    fn execute_task(
        ctx: &mut JobContext,
        fleet: &mut Fleet,
        pos: Position,
        now: SimTime,
    ) -> (SimTime, Option<(CommRow, SimDuration)>) {
        if let Step::Compute(duration) = ctx.dag.layout().step(pos) {
            // An inert jitter RNG never draws and always scales by exactly 1.
            if ctx.config.jitter_inert() {
                return (now + duration, None);
            }
            let jitter = ctx.rng.jitter(ctx.config.compute_jitter);
            return (now + duration.mul_f64(jitter), None);
        }
        let (row, circuit_wait) = Self::execute_comm(ctx, fleet, pos, now);
        (row.end, Some((row, circuit_wait)))
    }

    /// Executes the communication task at `pos` from its slot's prepared plan and its
    /// step's price, and returns its record row and the circuit wait it paid. The row
    /// holds only what the run decided; the label, axis, kind, group and bytes of the
    /// record stay in the DAG. A collective's record reads its group from the DAG,
    /// which is its circuit slot's: `plan_task_circuits` keys each collective's slot
    /// by that same group id.
    fn execute_comm(
        ctx: &mut JobContext,
        fleet: &mut Fleet,
        pos: Position,
        now: SimTime,
    ) -> (CommRow, SimDuration) {
        let id = ctx.dag.layout().task(pos);
        let iteration = ctx.iteration;
        let config = &ctx.config;
        let price = ctx.prices[ctx.task_price[pos.index()] as usize];
        debug_assert_eq!(
            price.step,
            ctx.dag.layout().step(pos),
            "a task's price is keyed by its step"
        );
        let slot = &ctx.circuit_pool[price.slot as usize];
        let rails = slot.plan.rails;
        let circuits = slot.plan.circuits(&ctx.dense_circuits);
        debug_assert!(
            match ctx.dag.kind(id) {
                TaskKind::Collective { group, .. } => group == slot.group,
                _ => true,
            },
            "a collective's circuit slot is keyed by its group"
        );
        let scaleout = !rails.is_empty();
        let offloaded = price.offloaded;
        let duration = price.duration;

        // The shim intercepts every scale-out call that uses the rails; the profiling
        // iteration only has to witness one for provisioning to start afterwards.
        if scaleout && !offloaded && iteration == 0 {
            ctx.rail_profiled = true;
        }

        // The outage gate: with rail failures in the timeline, a transfer that needs
        // a down rail cannot start (electrical) or install circuits (optical) before
        // the rail's scheduled recovery. Clean timelines skip the walk entirely.
        let gated = if fleet.faults && scaleout && !offloaded {
            fleet.outage_gate(rails, now, ctx.job, &ctx.dag, id)
        } else {
            now
        };

        let optical = config.policy.is_optical();
        let (start, circuit_wait) = if !optical {
            // Every scale-out transfer pays the switch datapath latency (added below)
            // — offloaded ones included (the host network also runs through packet
            // switches; this matches the pre-redesign simulator byte for byte). Only
            // the outage gate is rail-specific and skips offloaded traffic.
            if scaleout && !offloaded {
                (gated, gated.duration_since(now))
            } else {
                (now, SimDuration::ZERO)
            }
        } else {
            let controller = fleet
                .controller
                .as_deref_mut()
                .expect("an optical job implies a controller");
            if !scaleout || offloaded {
                (now, SimDuration::ZERO)
            } else if let Some(ready) = controller.installed_ready_time(circuits) {
                // The request is a no-op: the circuits are installed on every rail —
                // which also implies every needed rail is up, because a failure tears
                // its circuits down — so it resolves to `max(now, slowest circuit
                // ready)`, found by one O(group circuits) walk.
                controller.note_noop_request();
                let start = ready.max(now);
                (start, start.duration_since(now))
            } else {
                // Not (fully) installed: the stateful reconfiguration path.
                let provisioned = config.provisioning_active(iteration) && ctx.rail_profiled;
                let requested_at = if provisioned {
                    // Speculative request: issued as soon as the previous traffic
                    // on the affected circuits completed (Fig. 5b). Back-dating
                    // further than one reconfiguration latency buys nothing (the
                    // circuits would be ready before the collective is issued
                    // anyway) but would tear down the old circuits earlier than
                    // necessary, so the request time is clamped to
                    // `issue time − reconfiguration latency`.
                    let earliest_useful = SimTime::from_nanos(
                        now.as_nanos()
                            .saturating_sub(config.reconfig_latency.as_nanos()),
                    );
                    // Holds an active eviction policy would displace don't delay
                    // the speculative request.
                    controller
                        .ports_free(ctx.job.0, circuits)
                        .max(earliest_useful)
                } else {
                    now
                };
                // A failed rail refuses installs until recovery; the request (however
                // speculative) cannot start switching before the rail is back. With
                // every rail up `gated == now`, and the clamp must NOT apply — a
                // provisioned request is deliberately back-dated before `now`.
                let requested_at = if gated > now {
                    requested_at.max(gated)
                } else {
                    requested_at
                };
                let ready = controller.request(
                    ctx.job.0,
                    slot.group,
                    circuits,
                    requested_at,
                    &mut ctx.reconfig_events,
                );
                let start = ready.max(now);
                (start, start.duration_since(now))
            }
        };

        // The per-job datapath latency is zero on optical rails, so only electrical
        // scale-out transfers pay it; a record derives its circuit wait the same way.
        let start = if scaleout {
            start + ctx.datapath_latency
        } else {
            start
        };
        let end = start + duration;

        if scaleout && !offloaded {
            if optical {
                // The memo reads an iteration's occupancy footprint off the busy ends
                // that lie after the iteration's start (see [`MemoState`]).
                debug_assert!(
                    end > ctx.iter_start,
                    "a rail transfer must end after its iteration started"
                );
                if let Some(controller) = fleet.controller.as_deref_mut() {
                    controller.occupy(ctx.job.0, circuits, end);
                }
            }
            fleet.note_transfer(ctx.job.0, rails, circuits, start, end);
        }

        let row = CommRow {
            task: id,
            scaleout,
            // Offloaded traffic never touches the rails, so it carries no rail list and
            // is invisible to the per-rail window/phase analysis — which is the point.
            rails: if offloaded { RailSet::EMPTY } else { rails },
            issued_at: now,
            start,
            end,
        };
        (row, circuit_wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_sim::Bandwidth;
    use railsim_topology::{Circuit, ClusterSpec, NodePreset};
    use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

    fn tiny_dag() -> TrainingDag {
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        DagBuilder::new(model, parallel, compute).build()
    }

    fn tiny_cluster(nodes: u32) -> Cluster {
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build()
    }

    /// `base` for `iterations` iterations with the jitter RNG inert (amplitude 0,
    /// seed 1), so the run is eligible for steady-state memoization.
    fn jitter_free(base: OpusConfig, iterations: u32) -> OpusConfig {
        OpusConfig {
            iterations,
            compute_jitter: 0.0,
            seed: 1,
            ..base
        }
    }

    fn clean_single(config: OpusConfig) -> SimulationResult {
        ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .run()
            .jobs
            .remove(0)
            .result
    }

    #[test]
    fn single_job_scenario_reports_one_job_and_fleet_counters() {
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 2);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .run();
        assert_eq!(result.jobs.len(), 1);
        assert_eq!(result.jobs[0].job, JobId(0));
        assert_eq!(result.jobs[0].gpu_offset, 0);
        assert_eq!(result.job(JobId(0)).result.iterations.len(), 2);
        assert!(result
            .fleet
            .rail_busy
            .iter()
            .any(|b| *b > SimDuration::ZERO));
        assert_eq!(result.fleet.injections_applied, 0);
        assert_eq!(result.fleet.cross_job_port_takeovers, 0);
        assert!(result.fleet.cross_job_rail_overlaps.iter().all(|&o| o == 0));
        assert!(result.fleet.makespan > SimTime::ZERO);
        assert!(
            result.fleet.circuits_set_up_by_rail.iter().sum::<u64>() > 0,
            "an optical job must have installed circuits"
        );
        assert!(
            result.fleet.noop_requests > 0,
            "most of an optical job's requests find their circuits installed"
        );
        assert!(result.fleet.controller_requests > result.fleet.noop_requests);
    }

    #[test]
    fn two_disjoint_jobs_run_like_isolated_jobs() {
        // Two copies of the same job, side by side on an 8-node cluster: disjoint
        // GPUs and ports, so the shared fabric must give each job exactly the
        // iteration times of a standalone 4-node run.
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 2);
        let standalone = clean_single(config);
        let result = ScenarioSpec::new(tiny_cluster(8))
            .job(tiny_dag(), config)
            .job(tiny_dag(), config)
            .run();
        assert_eq!(result.jobs.len(), 2);
        assert_eq!(result.jobs[0].gpu_offset, 0);
        assert_eq!(
            result.jobs[1].gpu_offset, 16,
            "auto-packing is node aligned"
        );
        for job in &result.jobs {
            for (a, b) in job
                .result
                .iterations
                .iter()
                .zip(standalone.iterations.iter())
            {
                assert_eq!(a.iteration_time, b.iteration_time, "{}", job.job);
                assert_eq!(a.reconfig_events.len(), b.reconfig_events.len());
            }
        }
        // Job 1's second iteration starts where *its own* first ended, independent of
        // job 0 (clocks are per job even though the engine is shared).
        assert_eq!(
            result.jobs[1].result.iterations[1].started_at,
            result.jobs[1].result.iterations[0].started_at
                + result.jobs[1].result.iterations[0].iteration_time
        );
        // Both jobs used the same rails — fleet busy time doubles.
        let busy: f64 = result.fleet.rail_busy.iter().map(|d| d.as_secs_f64()).sum();
        let single_busy: f64 = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .run()
            .fleet
            .rail_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        assert!((busy - 2.0 * single_busy).abs() < 1e-9 + busy * 1e-6);
    }

    #[test]
    fn rail_flap_inflates_the_faulted_iteration_then_recovers() {
        let config = jitter_free(OpusConfig::on_demand(SimDuration::from_millis(1)), 3);
        let clean_scenario = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .run();
        let clean = &clean_scenario.jobs[0].result;
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        // Fail rail 0 a quarter into iteration 1, recover it half an iteration later.
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        let faulted = &result.jobs[0].result;
        assert_eq!(result.fleet.injections_applied, 2);
        assert_eq!(result.fleet.rail_failures[0], 1);
        assert!(result.fleet.rail_downtime[0] > SimDuration::ZERO);
        assert!(
            faulted.iterations[1].iteration_time > clean.iterations[1].iteration_time,
            "the faulted iteration must be slower: {} vs {}",
            faulted.iterations[1].iteration_time,
            clean.iterations[1].iteration_time
        );
        // Transfers that needed the failed rail waited for recovery + reinstall; the
        // extra wait is reported as circuit wait.
        assert!(
            faulted.iterations[1].total_circuit_wait > clean.iterations[1].total_circuit_wait,
            "the outage must show up as circuit wait ({} vs {})",
            faulted.iterations[1].total_circuit_wait,
            clean.iterations[1].total_circuit_wait
        );
        // Iteration 0 committed entirely before the failure is byte-identical.
        assert_eq!(
            faulted.iterations[0].comm_records,
            clean.iterations[0].comm_records
        );
    }

    #[test]
    fn electrical_jobs_wait_out_rail_outages_too() {
        let config = jitter_free(OpusConfig::electrical(), 2);
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.1);
        let up = down + dur;
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        let faulted = &result.jobs[0].result;
        assert!(faulted.iterations[1].iteration_time > clean.iterations[1].iteration_time);
        assert!(
            faulted.iterations[1].total_circuit_wait > SimDuration::ZERO,
            "the outage wait is reported as circuit wait"
        );
    }

    #[test]
    #[should_panic(expected = "no scheduled recovery")]
    fn unrecovered_rail_failure_is_a_scenario_bug() {
        let config = jitter_free(OpusConfig::electrical(), 2);
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(SimTime::ZERO, ScenarioEvent::RailDown(RailId(0)))
            .run();
    }

    #[test]
    fn ocs_degradation_slows_reconfigurations() {
        let config = jitter_free(OpusConfig::on_demand(SimDuration::from_millis(1)), 2);
        let clean = clean_single(config);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(
                SimTime::ZERO,
                ScenarioEvent::OcsDegraded {
                    rail: RailId(0),
                    reconfig_latency: SimDuration::from_millis(200),
                },
            )
            .run();
        assert!(
            result.jobs[0].result.steady_state_iteration_time()
                > clean.steady_state_iteration_time(),
            "a degraded OCS must slow the job"
        );
    }

    #[test]
    fn job_arrival_delays_the_start() {
        let config = jitter_free(OpusConfig::electrical(), 1);
        let at = SimTime::from_millis(250);
        let result = ScenarioSpec::new(tiny_cluster(8))
            .job(tiny_dag(), config)
            .job(tiny_dag(), config)
            .inject(at, ScenarioEvent::JobArrival { job: JobId(1) })
            .run();
        assert_eq!(
            result.jobs[0].result.iterations[0].started_at,
            SimTime::ZERO
        );
        assert_eq!(result.jobs[1].result.iterations[0].started_at, at);
        // The late job runs the same iteration, just shifted.
        assert_eq!(
            result.jobs[0].result.iterations[0].iteration_time,
            result.jobs[1].result.iterations[0].iteration_time
        );
    }

    #[test]
    #[should_panic(expected = "job1 arrives twice")]
    fn a_repeated_job_arrival_is_rejected() {
        // The repeat lands while the job's first iteration is still running; left
        // unchecked it would restart that iteration on top of its in-flight tasks.
        let config = jitter_free(OpusConfig::electrical(), 1);
        let _ = ScenarioSpec::new(tiny_cluster(8))
            .job(tiny_dag(), config)
            .job(tiny_dag(), config)
            .inject(ms(250), ScenarioEvent::JobArrival { job: JobId(1) })
            .inject(ms(251), ScenarioEvent::JobArrival { job: JobId(1) })
            .run();
    }

    #[test]
    fn overlapping_placements_report_port_takeovers() {
        // Two jobs time-sharing the same GPUs: every transfer alternation flips the
        // port tenant, which the fleet counters must surface.
        let config = jitter_free(OpusConfig::electrical(), 1);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .job_placed(tiny_dag(), config, JobPlacement::AtGpu(0))
            .run();
        assert!(result.fleet.cross_job_port_takeovers > 0);
        assert!(result.fleet.cross_job_rail_overlaps.iter().any(|&o| o > 0));
    }

    #[test]
    fn injections_sort_into_the_timeline_in_declaration_order_on_ties() {
        // Down and up at the same instant, declared down-then-up: the rail ends up.
        let config = jitter_free(OpusConfig::electrical(), 1);
        let t = SimTime::from_millis(1);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(t, ScenarioEvent::RailDown(RailId(0)))
            .inject(t, ScenarioEvent::RailUp(RailId(0)))
            .run();
        assert_eq!(result.fleet.injections_applied, 2);
        assert_eq!(result.fleet.rail_failures[0], 1);
    }

    #[test]
    #[should_panic(expected = "only has 4 rails")]
    fn injection_on_unknown_rail_is_rejected() {
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(SimTime::ZERO, ScenarioEvent::RailDown(RailId(9)))
            .run();
    }

    #[test]
    #[should_panic(expected = "cluster only has 16 GPUs")]
    fn placement_outside_the_cluster_is_rejected() {
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job_placed(tiny_dag(), config, JobPlacement::AtGpu(8))
            .run();
    }

    #[test]
    #[should_panic(expected = "job1 places rank 15 at GPU 4294967309")]
    fn placement_past_the_u32_gpu_range_is_rejected() {
        // `offset + max_rank` wraps in u32: unchecked, this job would land on GPUs
        // 0..14 on top of job 0 instead of being rejected.
        let config = OpusConfig::electrical();
        let _ = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .job_placed(tiny_dag(), config, JobPlacement::AtGpu(u32::MAX - 1))
            .run();
    }

    #[test]
    fn memoized_runs_match_naive_byte_for_byte() {
        for (name, config) in [
            (
                "provisioned",
                OpusConfig::provisioned(SimDuration::from_millis(5)),
            ),
            (
                "on_demand",
                OpusConfig::on_demand(SimDuration::from_millis(1)),
            ),
            ("electrical", OpusConfig::electrical()),
        ] {
            let config = jitter_free(config, 8);
            let mut memo = ScenarioSpec::new(tiny_cluster(4))
                .job(tiny_dag(), config)
                .run();
            let naive = ScenarioSpec::new(tiny_cluster(4))
                .job(
                    tiny_dag(),
                    OpusConfig {
                        memoize_steady_state: false,
                        ..config
                    },
                )
                .run();
            let ff = std::mem::take(&mut memo.jobs[0].memoized_iterations);
            assert!(
                ff >= 1,
                "{name}: steady state must be detected and fast-forwarded (ff = {ff})"
            );
            assert_eq!(naive.jobs[0].memoized_iterations, 0, "{name}");
            // Everything else, the controller's request counters included, must be
            // what naive stepping reports.
            assert_eq!(format!("{memo:?}"), format!("{naive:?}"), "{name}");
        }
    }

    #[test]
    fn clean_runs_step_two_iterations_and_fast_forward_the_rest() {
        // Iteration 0 profiles on demand, yet its end state already matches
        // iteration 1's, so the template arms after iteration 1 under every policy.
        for (name, config) in [
            (
                "provisioned",
                OpusConfig::provisioned(SimDuration::from_millis(5)),
            ),
            (
                "on_demand",
                OpusConfig::on_demand(SimDuration::from_millis(1)),
            ),
            ("electrical", OpusConfig::electrical()),
        ] {
            for iterations in [2, 3, 8] {
                let spec = || {
                    ScenarioSpec::new(tiny_cluster(4))
                        .job(tiny_dag(), jitter_free(config, iterations))
                };
                for (records, result) in [
                    ("run", spec().run()),
                    ("run_without_records", spec().run_without_records()),
                ] {
                    assert_eq!(
                        result.jobs[0].memoized_iterations,
                        u64::from(iterations - 2),
                        "{name}, {iterations} iterations, {records}"
                    );
                }
            }
        }
    }

    #[test]
    fn record_free_memoized_runs_never_allocate_a_record_buffer() {
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 6);
        let spec = ScenarioSpec::new(tiny_cluster(4)).job(tiny_dag(), config);
        let mut sim = ScenarioSim::build(spec, Records::Discard);
        sim.run_scenario();
        let ctx = &sim.jobs[0];
        assert_eq!(ctx.memo.fast_forwarded, 4);
        assert_eq!(ctx.comm_records.capacity(), 0);
        // The capacity of each iteration's shared storage: a stepped iteration's
        // own buffer, or the template's for a fast-forward.
        for it in &ctx.completed {
            assert_eq!(
                it.comm_records.capacity(),
                0,
                "iteration {} allocated records",
                it.iteration
            );
        }
    }

    #[test]
    fn fast_forwards_share_their_templates_records_and_events() {
        // A clean run arms iteration 1 as the template and replays 2..6 from it.
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 6);
        let dag = Arc::new(tiny_dag());
        let spec = || ScenarioSpec::new(tiny_cluster(4)).job(Arc::clone(&dag), config);
        for (records, result) in [
            ("run", spec().run()),
            ("run_without_records", spec().run_without_records()),
        ] {
            assert_eq!(result.jobs[0].memoized_iterations, 4, "{records}");
            let iterations = &result.jobs[0].result.iterations;
            let template = &iterations[1];
            assert_eq!(template.comm_records.is_empty(), records != "run");
            assert!(!template.reconfig_events.is_empty(), "{records}");
            // Every log reads the job's own DAG, shared and never copied; a
            // record-free run's logs hold none.
            for it in iterations {
                match it.comm_records.dag() {
                    Some(shared) => assert!(Arc::ptr_eq(shared, &dag), "{records}"),
                    None => assert_eq!(records, "run_without_records"),
                }
            }
            assert!(
                !iterations[0]
                    .reconfig_events
                    .shares_storage_with(&template.reconfig_events),
                "{records}: stepped iterations own their events"
            );
            for it in &iterations[2..] {
                assert!(
                    it.comm_records.shares_storage_with(&template.comm_records),
                    "{records}: iteration {} copied its records",
                    it.iteration
                );
                assert!(
                    it.reconfig_events
                        .shares_storage_with(&template.reconfig_events),
                    "{records}: iteration {} copied its events",
                    it.iteration
                );
            }
        }
    }

    #[test]
    fn memoization_gates_on_the_knob_and_on_jitter() {
        let base = OpusConfig {
            iterations: 6,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let memoized_iterations = |config: OpusConfig| {
            ScenarioSpec::new(tiny_cluster(4))
                .job(tiny_dag(), config)
                .run()
                .jobs[0]
                .memoized_iterations
        };
        let ff_off = memoized_iterations(OpusConfig {
            compute_jitter: 0.0,
            seed: 1,
            memoize_steady_state: false,
            ..base
        });
        assert_eq!(ff_off, 0, "the knob must disable fast-forwarding");
        let ff_jitter = memoized_iterations(OpusConfig {
            compute_jitter: 0.05,
            seed: 7,
            ..base
        });
        assert_eq!(ff_jitter, 0, "a live jitter RNG must disable memoization");
    }

    #[test]
    fn rail_flap_invalidates_memoization_and_still_matches_naive() {
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 10);
        let clean = clean_single(config);
        let t4 = clean.iterations[4].started_at;
        let dur = clean.iterations[4].iteration_time;
        // Fail rail 0 a quarter into iteration 4 (after the memo armed), recover it
        // half an iteration later.
        let down = t4 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let flapped = |config: OpusConfig| {
            ScenarioSpec::new(tiny_cluster(4))
                .job(tiny_dag(), config)
                .inject(down, ScenarioEvent::RailDown(RailId(0)))
                .inject(up, ScenarioEvent::RailUp(RailId(0)))
        };
        let mut memo = flapped(config).run();
        let naive = flapped(OpusConfig {
            memoize_steady_state: false,
            ..config
        })
        .run();
        let ff = std::mem::take(&mut memo.jobs[0].memoized_iterations);
        assert_eq!(format!("{memo:?}"), format!("{naive:?}"));
        assert!(
            ff >= 1,
            "memoization must re-arm after the flap (fast-forwarded {ff})"
        );
        assert!(
            ff <= 5,
            "iterations around the flap must step naively (fast-forwarded {ff})"
        );
    }

    #[test]
    fn multi_job_scenarios_never_fast_forward() {
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 6);
        let result = ScenarioSpec::new(tiny_cluster(8))
            .job(tiny_dag(), config)
            .job(tiny_dag(), config)
            .run();
        assert_eq!(result.jobs[0].memoized_iterations, 0);
        assert_eq!(result.jobs[1].memoized_iterations, 0);
    }

    /// What a later iteration reads of an optical run's fabric, raw: per rail, the
    /// OCS's installed circuits with their ready times and its set-up, torn-down and
    /// reconfiguration counters, then the port occupancy table.
    type FabricView = (Vec<(Vec<(Circuit, SimTime)>, [u64; 3])>, Vec<Vec<SimTime>>);

    /// Runs `spec` and returns the job's fast-forward count, the fabric it leaves
    /// and its result.
    fn run_viewing_fabric(
        spec: ScenarioSpec,
        records: Records,
    ) -> (u64, FabricView, ScenarioResult) {
        let mut sim = ScenarioSim::build(spec, records);
        sim.run_scenario();
        let ff = sim.jobs[0].memo.fast_forwarded;
        let controller = sim.fleet.controller.as_deref().expect("optical");
        let fabric = controller.fabric();
        let ocses = (0..fabric.num_rails() as u32)
            .map(|r| {
                let ocs = fabric.ocs(RailId(r));
                let counters = [
                    ocs.circuits_set_up(),
                    ocs.circuits_torn_down(),
                    ocs.reconfig_count(),
                ];
                (ocs.circuits().collect(), counters)
            })
            .collect();
        let view = (ocses, controller.port_occupancy().to_vec());
        (ff, view, sim.into_result())
    }

    #[test]
    fn memoized_runs_leave_the_naive_port_occupancy() {
        // The fast-forward writes the template's set-up OCS slots and replays
        // occupancy from its per-port latest ends instead of per install and per
        // transfer; every rail's matching, ready times and counters and the port
        // table it leaves must be the naive ones, whether or not the run keeps its
        // records.
        let provisioned = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 10);
        let on_demand = jitter_free(OpusConfig::on_demand(SimDuration::from_millis(1)), 8);
        let clean = clean_single(provisioned);
        let t4 = clean.iterations[4].started_at;
        let dur = clean.iterations[4].iteration_time;
        let flap = [
            (t4 + dur.mul_f64(0.25), ScenarioEvent::RailDown(RailId(0))),
            (t4 + dur.mul_f64(0.75), ScenarioEvent::RailUp(RailId(0))),
        ];
        for (name, config, injections) in [
            ("provisioned", provisioned, &[][..]),
            ("on_demand", on_demand, &[][..]),
            ("provisioned with a flap", provisioned, &flap[..]),
        ] {
            let spec = |config: OpusConfig| {
                ScenarioSpec::new(tiny_cluster(4))
                    .job(tiny_dag(), config)
                    .inject_all(injections.iter().copied())
            };
            let naive_config = OpusConfig {
                memoize_steady_state: false,
                ..config
            };
            let (_, naive, _) = run_viewing_fabric(spec(naive_config), Records::Keep);
            let (ff_kept, kept, _) = run_viewing_fabric(spec(config), Records::Keep);
            let (ff_free, free, _) = run_viewing_fabric(spec(config), Records::Discard);
            assert!(ff_kept >= 1, "{name}: the memo must fast-forward");
            assert_eq!(
                ff_free, ff_kept,
                "{name}: dropping records must not cost a fast-forward"
            );
            assert_eq!(kept, naive, "{name}");
            assert_eq!(free, naive, "{name}, record-free");
        }
    }

    #[test]
    fn memoized_runs_match_naive_after_ocses_change_speed() {
        let degrade = |rail, ms| ScenarioEvent::OcsDegraded {
            rail: RailId(rail),
            reconfig_latency: SimDuration::from_millis(ms),
        };
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(25)), 12);
        // From the start, rail 0's OCS becomes faster than the job's 25 ms latency,
        // so a back-dated partial install can log a ready time from before the
        // boundary and the ready-time horizon moves back (see [`FabricState`]);
        // rail 1's becomes slower.
        let at_start = [
            (SimTime::ZERO, degrade(0, 1)),
            (SimTime::ZERO, degrade(1, 60)),
        ];
        // Half-way into iteration 5, after the clean run's fast-forwards of
        // iterations 2 to 4, rail 0's OCS becomes faster. Circuits survive the
        // change, so the iterations stepped after it read fast-forwarded ready
        // times on every rail; the memo then re-arms under the faster switch.
        let clean = clean_single(config);
        let t5 = clean.iterations[5].started_at;
        let mid_run = [(
            t5 + clean.iterations[5].iteration_time.mul_f64(0.5),
            degrade(0, 1),
        )];
        // The change at the start lands in iteration 0: iterations 1 and 2 pair and
        // 3 to 11 fast-forward. The mid-run change lands in iteration 5, which
        // steps: 2 to 4 fast-forward before it, 6 and 7 pair, 8 to 11 fast-forward
        // after it.
        for (name, injections, fast_forwards) in [
            ("from the start", &at_start[..], 9),
            ("after three fast-forwards", &mid_run[..], 3 + 4),
        ] {
            let spec = |config: OpusConfig| {
                ScenarioSpec::new(tiny_cluster(4))
                    .job(tiny_dag(), config)
                    .inject_all(injections.iter().copied())
            };
            let naive_config = OpusConfig {
                memoize_steady_state: false,
                ..config
            };
            let (_, naive_fabric, naive) = run_viewing_fabric(spec(naive_config), Records::Keep);
            let (ff, memo_fabric, mut memo) = run_viewing_fabric(spec(config), Records::Keep);
            assert_eq!(
                ff, fast_forwards,
                "{name}: the memo must re-arm after the change"
            );
            memo.jobs[0].memoized_iterations = 0;
            assert_eq!(format!("{memo:?}"), format!("{naive:?}"), "{name}");
            assert_eq!(memo_fabric, naive_fabric, "{name}");
        }
    }

    #[test]
    fn specs_that_differ_only_in_what_the_run_does_not_read_share_a_simulation() {
        let dag = Arc::new(tiny_dag());
        let spec = |config| ScenarioSpec::new(tiny_cluster(4)).job(Arc::clone(&dag), config);
        let flap = |spec: ScenarioSpec| {
            spec.inject(SimTime::from_millis(1), ScenarioEvent::RailDown(RailId(0)))
                .inject(SimTime::from_millis(9), ScenarioEvent::RailUp(RailId(0)))
        };
        let stall = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 2);
        let replan = OpusConfig {
            recovery_policy: RecoveryPolicy::Replan,
            ..stall
        };
        let reseeded = OpusConfig { seed: 2, ..stall };
        let jittered = OpusConfig {
            compute_jitter: 0.03,
            ..stall
        };
        let specs = vec![
            spec(stall),
            spec(replan),
            spec(reseeded),
            spec(jittered),
            spec(OpusConfig {
                seed: 2,
                ..jittered
            }),
            flap(spec(stall)),
            flap(spec(replan)),
            flap(spec(reseeded)),
            ScenarioSpec::new(tiny_cluster(4)).job(tiny_dag(), stall),
            ScenarioSpec::new(tiny_cluster(4)).job_placed(
                Arc::clone(&dag),
                stall,
                JobPlacement::AtGpu(0),
            ),
            ScenarioSpec::new(tiny_cluster(5)).job(Arc::clone(&dag), stall),
        ];
        // A recovery policy acts only on a failure and an inert RNG never draws;
        // a drawing RNG, a failure, another DAG `Arc`, placement or cluster do count.
        let firsts = first_same_simulation(&specs);
        assert_eq!(firsts, vec![0, 0, 0, 3, 4, 5, 6, 5, 8, 9, 10]);
        for (idx, &first) in firsts.iter().enumerate().filter(|(i, &f)| *i != f) {
            assert_eq!(
                format!("{:?}", specs[idx].clone().run()),
                format!("{:?}", specs[first].clone().run()),
                "spec {idx} shares spec {first}'s simulation"
            );
        }
        // On 72 rails the build rejects an optical replan job but not an
        // electrical one, whose recovery policy it never reads.
        let stall = nvl72_spec(RecoveryPolicy::Stall);
        let mut replan = stall.clone();
        replan.jobs[0].config.recovery_policy = RecoveryPolicy::Replan;
        assert_eq!(
            first_same_simulation(&[stall.clone(), replan.clone()]),
            vec![0, 1]
        );
        let [mut stall, mut replan] = [stall, replan];
        stall.jobs[0].config.policy = ReconfigPolicy::Electrical;
        replan.jobs[0].config.policy = ReconfigPolicy::Electrical;
        assert_eq!(first_same_simulation(&[stall, replan]), vec![0, 0]);
    }

    /// Two GB200 NVL72 nodes (72 rails) running one 2-way data-parallel job whose
    /// tensor-parallel domain fills a node, so its gradient all-reduce uses every
    /// rail, 64 through 71 included.
    fn nvl72_spec(recovery: RecoveryPolicy) -> ScenarioSpec {
        let cluster = ClusterSpec::from_preset(NodePreset::Gb200Nvl72, 2).build();
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig {
            tensor: 72,
            ..ParallelismConfig::data_only(2)
        };
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        let mut config = OpusConfig::provisioned(SimDuration::from_millis(25));
        config.iterations = 1;
        config.recovery_policy = recovery;
        ScenarioSpec::new(cluster).job(Arc::new(dag), config)
    }

    #[test]
    #[should_panic(expected = "plans circuits on rail64, but a transfer record holds rails 0..64")]
    fn circuits_on_rails_a_record_cannot_hold_are_rejected_at_build() {
        let _ = ScenarioSim::build(nvl72_spec(RecoveryPolicy::Stall), Records::Keep);
    }

    #[test]
    #[should_panic(expected = "re-plans around failed rails on a cluster with 72 rails")]
    fn replan_on_more_rails_than_a_record_holds_is_rejected_at_build() {
        let _ = ScenarioSim::build(nvl72_spec(RecoveryPolicy::Replan), Records::Keep);
    }

    #[test]
    fn three_way_interleaved_overlaps_are_counted_against_every_tenant() {
        let cluster = tiny_cluster(4);
        let num_rails = cluster.num_rails() as usize;
        let mut fleet = Fleet {
            controller: None,
            health: RailHealth::new(num_rails),
            faults: false,
            multi_job: true,
            port_owner: vec![vec![NO_JOB; PortGeometry::of(&cluster).ports_per_rail()]; num_rails],
            rail_busy: vec![SimDuration::ZERO; num_rails],
            rail_last: vec![Vec::new(); num_rails],
            overlaps: vec![0; num_rails],
            port_takeovers: 0,
            injections_applied: 0,
        };
        let rails: RailSet = [RailId(0)].into_iter().collect();
        let ms = SimTime::from_millis;
        // Job 0 holds the rail for [0, 300); job 1 starts inside it: one overlap.
        fleet.note_transfer(0, rails, &[], ms(0), ms(300));
        fleet.note_transfer(1, rails, &[], ms(10), ms(20));
        // Job 0's next transfer starts while job 1's is still in flight. The pre-fix
        // single-slot tracker had already overwritten job 1's end with job 0's own
        // long transfer and missed this overlap.
        fleet.note_transfer(0, rails, &[], ms(15), ms(30));
        assert_eq!(fleet.overlaps[0], 2, "the three-way interleaving case");
        // Job 0's long transfer still bounds its in-flight window for job 1.
        fleet.note_transfer(1, rails, &[], ms(200), ms(210));
        assert_eq!(fleet.overlaps[0], 3);
        // After every tenant drained, a late transfer overlaps nothing.
        fleet.note_transfer(2, rails, &[], ms(400), ms(410));
        assert_eq!(fleet.overlaps[0], 3);
        // The same per-transfer accounting sums the rail's busy time, for one job
        // or many.
        assert_eq!(
            fleet.rail_busy[0],
            SimDuration::from_millis(300 + 10 + 15 + 10 + 10)
        );
    }

    #[test]
    #[should_panic(expected = "jobs exceed it")]
    fn more_jobs_than_a_u16_index_fail_fast() {
        // 65,536 jobs sharing one DAG: the index-width assert must fire in `build`
        // before any per-job validation touches them.
        let dag = Arc::new(tiny_dag());
        let config = OpusConfig::electrical();
        let mut scenario = ScenarioSpec::new(tiny_cluster(1));
        for _ in 0..(u16::MAX as usize + 1) {
            scenario = scenario.job(Arc::clone(&dag), config);
        }
        let _ = scenario.run();
    }

    /// The standard rail-flap pulse of this module (fail rail 0 a quarter into
    /// iteration 1, recover half an iteration later) under `config`.
    fn flapped_scenario(config: OpusConfig) -> ScenarioResult {
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run()
    }

    #[test]
    fn replan_beats_stall_on_the_same_flap() {
        let stall = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 3);
        let mut replan = stall;
        replan.recovery_policy = RecoveryPolicy::Replan;
        let clean = clean_single(stall);
        let stalled = flapped_scenario(stall);
        let replanned = flapped_scenario(replan);
        let inflation = |r: &ScenarioResult| {
            r.jobs[0].result.iterations[1].iteration_time.as_secs_f64()
                / clean.iterations[1].iteration_time.as_secs_f64()
        };
        assert!(
            inflation(&replanned) < inflation(&stalled),
            "re-planning around the dead rail must inflate the faulted iteration \
             strictly less than stalling: {:.4}x vs {:.4}x",
            inflation(&replanned),
            inflation(&stalled)
        );
        // Stall reports no replan activity; replan reports the degrade + restore.
        assert_eq!(stalled.jobs[0].degraded_iterations, 0);
        assert_eq!(stalled.jobs[0].replan_reconfigs, 0);
        assert_eq!(stalled.jobs[0].time_under_degraded_plan, SimDuration::ZERO);
        assert!(replanned.jobs[0].degraded_iterations >= 1);
        assert!(
            replanned.jobs[0].replan_reconfigs >= 2,
            "a flap is at least one degrade and one restore, got {}",
            replanned.jobs[0].replan_reconfigs
        );
        assert!(replanned.jobs[0].time_under_degraded_plan > SimDuration::ZERO);
    }

    #[test]
    fn replan_degraded_clock_spans_exactly_the_outage() {
        let mut config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 3);
        config.recovery_policy = RecoveryPolicy::Replan;
        let clean = clean_single(config);
        let t1 = clean.iterations[1].started_at;
        let dur = clean.iterations[1].iteration_time;
        let down = t1 + dur.mul_f64(0.25);
        let up = down + dur.mul_f64(0.5);
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(down, ScenarioEvent::RailDown(RailId(0)))
            .inject(up, ScenarioEvent::RailUp(RailId(0)))
            .run();
        // The degraded period opens at the RailDown commit and closes at the RailUp
        // commit: the swap happens inside the injection, not lazily at the next use.
        assert_eq!(
            result.jobs[0].time_under_degraded_plan,
            up.duration_since(down)
        );
    }

    #[test]
    fn replan_survives_an_unrecovered_outage_that_stalls_forever() {
        // The stall twin of this timeline panics ("no scheduled recovery", pinned by
        // `unrecovered_rail_failure_is_a_scenario_bug`): the degraded plan excludes
        // the dead rail, so a replan job keeps training to the end of the scenario.
        let mut config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 3);
        config.recovery_policy = RecoveryPolicy::Replan;
        let result = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(SimTime::from_micros(1), ScenarioEvent::RailDown(RailId(0)))
            .run();
        assert_eq!(result.jobs[0].result.iterations.len(), 3);
        assert!(
            result.jobs[0].degraded_iterations >= 2,
            "every iteration after the failure runs degraded, got {}",
            result.jobs[0].degraded_iterations
        );
        // The outage never closes, so the degraded clock runs to the makespan.
        assert_eq!(
            result.jobs[0].time_under_degraded_plan,
            result
                .fleet
                .makespan
                .duration_since(SimTime::from_micros(1))
        );
    }

    #[test]
    fn replan_with_every_rail_down_keeps_the_pristine_plan_and_stalls() {
        // Rails 0–3 fail one by one early in iteration 0 (an 18 ms iteration) and
        // recover at 5 s. Once no healthy rail is left to re-stripe onto, a degraded
        // group goes back to its pristine plan and stalls, as the Stall twin does,
        // instead of running its scale-out transfers on an empty plan as NVLink
        // traffic.
        let mut config = jitter_free(OpusConfig::on_demand(SimDuration::from_millis(1)), 2);
        config.recovery_policy = RecoveryPolicy::Replan;
        let mut spec = ScenarioSpec::new(tiny_cluster(4)).job(tiny_dag(), config);
        for rail in 0..4 {
            let down = SimTime::from_micros(1_800 + 360 * u64::from(rail));
            spec = spec
                .inject(down, ScenarioEvent::RailDown(RailId(rail)))
                .inject(SimTime::from_secs(5), ScenarioEvent::RailUp(RailId(rail)));
        }
        let job = spec.run().jobs.remove(0);
        assert_eq!(job.result.iterations.len(), 2, "both iterations finish");
        assert!(
            job.replan_reconfigs > 0,
            "the first failures degrade groups"
        );
        let mut scaleout = 0;
        for it in &job.result.iterations {
            for r in &it.comm_records {
                if matches!(r.axis, ParallelismAxis::Data | ParallelismAxis::Pipeline) {
                    assert!(!r.rails.is_empty(), "a rail-less scale-out record: {r:?}");
                    scaleout += 1;
                }
            }
        }
        assert!(scaleout > 0);
    }

    #[test]
    fn replan_policy_on_electrical_jobs_is_inert() {
        // Electrical fabrics have no circuits to re-stripe; the policy knob must not
        // change their (stalling) behavior or invent replan metrics.
        let stall = jitter_free(OpusConfig::electrical(), 3);
        let mut replan = stall;
        replan.recovery_policy = RecoveryPolicy::Replan;
        let a = flapped_scenario(stall);
        let b = flapped_scenario(replan);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(b.jobs[0].replan_reconfigs, 0);
    }

    /// Commits injection `idx` of `sim`'s timeline at its time, as the run loop does.
    fn commit_injection(sim: &mut ScenarioSim, idx: usize) {
        let at = sim.injections[idx].at;
        sim.apply_injection(idx, at, &mut Engine::new());
    }

    #[test]
    fn replan_swaps_leave_every_slot_a_freshly_prepared_plan() {
        let mut config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 2);
        config.recovery_policy = RecoveryPolicy::Replan;
        let spec = ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(ms(1), ScenarioEvent::RailDown(RailId(0)))
            .inject(ms(2), ScenarioEvent::RailDown(RailId(1)))
            .inject(ms(3), ScenarioEvent::RailUp(RailId(0)))
            .inject(ms(4), ScenarioEvent::RailUp(RailId(1)));
        let mut sim = ScenarioSim::build(spec, Records::Keep);
        let fresh = |sim: &ScenarioSim| sim.jobs[0].fresh_slot_plans(&sim.cluster);
        let pristine = sim.jobs[0].slot_plans();
        assert_eq!(
            pristine,
            fresh(&sim),
            "the job is built with prepared plans"
        );

        // Degrade: rail 0's groups move onto the survivors. Re-stripe: a second
        // failure moves the degraded plans again. Restore, rail by rail: rail 0's
        // groups get their pristine plans back while rail 1's stay degraded, then
        // every slot reads its pristine plan again.
        let mut previous = pristine.clone();
        for (idx, step) in ["degrade", "re-stripe", "partial restore", "restore"]
            .into_iter()
            .enumerate()
        {
            let swaps = sim.jobs[0].replan_reconfigs;
            commit_injection(&mut sim, idx);
            assert!(
                sim.jobs[0].replan_reconfigs > swaps,
                "the {step} swaps plans"
            );
            let plans = sim.jobs[0].slot_plans();
            assert_ne!(plans, previous, "the {step} changes the plans");
            assert_eq!(plans, fresh(&sim), "after the {step}");
            previous = plans;
        }
        assert_eq!(sim.jobs[0].degraded_slots, 0);
        assert_eq!(previous, pristine);
    }

    #[test]
    fn prices_are_the_collective_cost_of_their_slot_and_step() {
        let cluster = tiny_cluster(4);
        let mut config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 1);
        config.recovery_policy = RecoveryPolicy::Replan;
        // Offload every scale-out step up to the median scale-out size, so the job
        // prices both offloaded and rail steps.
        let sim = ScenarioSim::build(
            ScenarioSpec::new(cluster.clone()).job(tiny_dag(), config),
            Records::Keep,
        );
        let ctx = &sim.jobs[0];
        let step_bytes = |step: Step| match step {
            Step::Collective { bytes, .. } | Step::PointToPoint { bytes, .. } => bytes,
            Step::Compute(_) => unreachable!(),
        };
        let mut sizes: Vec<_> = ctx
            .prices
            .iter()
            .filter(|t| {
                !ctx.circuit_pool[t.slot as usize]
                    .circuits()
                    .is_scaleup_only()
            })
            .map(|t| step_bytes(t.step))
            .collect();
        sizes.sort_unstable();
        let offload = crate::HostOffload {
            threshold: sizes[sizes.len() / 2],
            ..crate::HostOffload::frontend_100g()
        };
        config.host_offload = Some(offload);
        let spec = ScenarioSpec::new(cluster.clone())
            .job(tiny_dag(), config)
            .inject(ms(1), ScenarioEvent::RailDown(RailId(0)))
            .inject(ms(2), ScenarioEvent::RailUp(RailId(0)));
        let mut sim = ScenarioSim::build(spec, Records::Keep);
        commit_injection(&mut sim, 0);

        let ctx = &sim.jobs[0];
        let (mut offloaded, mut rail, mut degraded, mut scaleup) = (0, 0, 0, 0);
        for t in &ctx.prices {
            let slot = &ctx.circuit_pool[t.slot as usize];
            let (kind, group_size) = match t.step {
                Step::Collective { kind, .. } => (kind, slot.group_size as usize),
                Step::PointToPoint { .. } => (CollectiveKind::SendRecv, 2),
                Step::Compute(_) => unreachable!("prices are communication steps"),
            };
            let bytes = step_bytes(t.step);
            let scaleout = !slot.circuits().is_scaleup_only();
            let params = if !scaleout {
                scaleup += 1;
                CostParams::new(SCALEUP_ALPHA, cluster.scaleup_bandwidth())
            } else if bytes <= offload.threshold {
                offloaded += 1;
                CostParams::new(offload.alpha, offload.bandwidth)
            } else {
                rail += 1;
                let full = CostParams::new(SCALEOUT_ALPHA, cluster.spec().nic.total_bandwidth);
                match slot.degraded.as_deref() {
                    Some(live) => {
                        degraded += 1;
                        let ratio =
                            live.per_rail.len() as f64 / slot.pristine.per_rail.len() as f64;
                        let bandwidth = Bandwidth::from_bps(full.bandwidth.as_bps() * ratio);
                        CostParams::new(SCALEOUT_ALPHA, bandwidth)
                    }
                    None => full,
                }
            };
            let expected = collective_time(kind, COLLECTIVE_ALGORITHM, group_size, bytes, &params);
            assert_eq!(
                (t.duration, t.offloaded),
                (expected, scaleout && bytes <= offload.threshold)
            );
        }
        assert!(offloaded > 0 && rail > 0 && degraded > 0 && scaleup > 0);

        // A slot whose pristine plan spans four rails and whose degraded plan spans
        // three is priced on three quarters of the bandwidth and the same per-step
        // latency; the undegraded slot prices at full bandwidth.
        let planner = CircuitPlanner::for_cluster(&cluster);
        let group = CommGroup::new(
            GroupId(0),
            ParallelismAxis::Expert,
            [0, 5, 10, 15].map(GpuId).to_vec(),
        );
        let pristine = planner.plan(&cluster, &group);
        let survivors = [RailId(1), RailId(2), RailId(3)];
        let degraded = planner.replan_degraded(&cluster, &pristine, &survivors);
        assert_eq!((pristine.per_rail.len(), degraded.per_rail.len()), (4, 3));
        let mut slot = CircuitSlot {
            group: group.id,
            group_size: 4,
            pristine,
            degraded: Some(Box::new(degraded)),
            plan: SlotPlan::default(),
        };
        let bytes = railsim_sim::Bytes::from_mb(64);
        let step = Step::Collective {
            kind: CollectiveKind::AllReduce,
            axis: ParallelismAxis::Expert,
            bytes,
        };
        let full = CostParams::new(SCALEOUT_ALPHA, cluster.spec().nic.total_bandwidth);
        let derated = CostParams::new(
            SCALEOUT_ALPHA,
            Bandwidth::from_bps(full.bandwidth.as_bps() * 0.75),
        );
        assert_eq!(slot.adjust_params(full), derated);
        let price = |params| {
            let time = collective_time(
                CollectiveKind::AllReduce,
                COLLECTIVE_ALGORITHM,
                4,
                bytes,
                &params,
            );
            (time, false)
        };
        assert_eq!(slot.price(&config, &cluster, step), price(derated));
        slot.degraded = None;
        assert_eq!(slot.adjust_params(full), full);
        assert_eq!(slot.price(&config, &cluster, step), price(full));
    }

    // ---- serving (elastic inference) scenarios ------------------------------------

    use railsim_workload::{InferenceConfig, InferenceDagBuilder};

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// A 20-GPU mixed-tenancy scenario: a training tenant on nodes 0–3 and an
    /// elastic inference tenant shifted one node over (nodes 1–4), both optical,
    /// with a bursty request timeline plus one grow and one shrink. The one-node
    /// shift makes the tenants' cross-node rings *conflict* instead of coincide:
    /// the inference hop GPU4↔GPU8 shares rail-0 ports with the trainer's GPU0↔GPU4
    /// and GPU8↔GPU12 rings but is a different circuit, so installs are non-noop
    /// and the port-claim (eviction) path actually engages.
    fn mixed_tenancy_spec(eviction: EvictionPolicy) -> ScenarioSpec {
        let cluster = tiny_cluster(5);
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let train_dag = DagBuilder::new(model, parallel, compute).build();
        let mut train_cfg = jitter_free(OpusConfig::on_demand(SimDuration::from_millis(25)), 3);
        train_cfg.eviction = eviction;
        let serve_cfg = train_cfg;
        let inference = InferenceConfig::tiny_test(4, 2, 2);
        let serving = ServingSpec::for_inference(&inference, 1);
        let dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
        ScenarioSpec::new(cluster)
            .job(Arc::new(train_dag), train_cfg)
            .serving_job(Arc::new(dag), serve_cfg, JobPlacement::AtGpu(4), serving)
            .inject(
                ms(1),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 8,
                },
            )
            .inject(ms(20), ScenarioEvent::JobGrow { job: JobId(1) })
            .inject(
                ms(25),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 12,
                },
            )
            .inject(ms(60), ScenarioEvent::JobShrink { job: JobId(1) })
            .inject(
                ms(70),
                ScenarioEvent::RequestBurst {
                    job: JobId(1),
                    requests: 6,
                },
            )
    }

    #[test]
    fn serving_job_retires_every_request_and_reports_latencies() {
        let result = mixed_tenancy_spec(EvictionPolicy::Never).run();
        assert_eq!(result.fleet.injections_applied, 5);
        let serving = &result.jobs[1];
        assert_eq!(
            serving.requests_completed, 26,
            "every injected request must retire"
        );
        assert!(serving.p99_request_latency.is_some());
        assert!(
            serving.result.iterations.len() >= 3,
            "26 requests at batch 4 × ≤2 replicas need several iterations, got {}",
            serving.result.iterations.len()
        );
        let training = &result.jobs[0];
        assert_eq!(training.result.iterations.len(), 3);
        assert_eq!(training.requests_completed, 0);
        assert!(training.p99_request_latency.is_none());
        // Under `Never` the tenancy ledgers stay off entirely.
        for job in &result.jobs {
            assert_eq!(job.evictions_suffered, 0);
            assert_eq!(job.evictions_inflicted, 0);
        }
        assert!(result.fleet.circuits_evicted_by_rail.is_empty());
        let share: f64 = result.jobs.iter().map(|j| j.circuit_wait_share).sum();
        assert!(
            (share - 1.0).abs() < 1e-9,
            "circuit-wait shares must partition the total, got {share}"
        );
    }

    #[test]
    fn grow_and_shrink_resize_the_active_replica_set() {
        let result = mixed_tenancy_spec(EvictionPolicy::Never).run();
        let counts: Vec<usize> = result.jobs[1]
            .result
            .iterations
            .iter()
            .map(|it| it.comm_records.len())
            .collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert_eq!(
            max,
            2 * min,
            "two active replicas run exactly twice the comm tasks of one: {counts:?}"
        );
        assert!(
            counts.windows(2).any(|w| w[0] == min && w[1] == max),
            "the grow must take effect at an iteration boundary: {counts:?}"
        );
        assert!(
            counts.windows(2).any(|w| w[0] == max && w[1] == min),
            "the shrink must take effect at an iteration boundary: {counts:?}"
        );
    }

    #[test]
    fn fair_share_strictly_improves_inference_p99_under_contention() {
        let never = mixed_tenancy_spec(EvictionPolicy::Never).run();
        let fair = mixed_tenancy_spec(EvictionPolicy::FairShare).run();
        let p99_never = never.jobs[1].p99_request_latency.expect("serving job");
        let p99_fair = fair.jobs[1].p99_request_latency.expect("serving job");
        assert!(
            p99_fair < p99_never,
            "FairShare must strictly improve the inference tenant's p99 on the \
             pinned contention seed: fair {p99_fair:?} vs never {p99_never:?}"
        );
        assert!(
            fair.jobs[1].evictions_inflicted > 0,
            "the improvement must come from evictions"
        );
        assert_eq!(
            fair.jobs[0].evictions_suffered, fair.jobs[1].evictions_inflicted,
            "two tenants: everything the trainer suffered, the server inflicted"
        );
        assert!(fair.fleet.circuits_evicted_by_rail.iter().sum::<u64>() > 0);
    }

    #[test]
    #[should_panic(expected = "not a serving job")]
    fn request_burst_for_a_training_job_is_rejected() {
        let config = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(5)), 2);
        ScenarioSpec::new(tiny_cluster(4))
            .job(tiny_dag(), config)
            .inject(
                ms(5),
                ScenarioEvent::RequestBurst {
                    job: JobId(0),
                    requests: 4,
                },
            )
            .run();
    }

    #[test]
    #[should_panic(expected = "no RequestBurst")]
    fn serving_job_without_bursts_is_rejected() {
        let mut spec = mixed_tenancy_spec(EvictionPolicy::Never);
        spec.injections
            .retain(|(_, e)| !matches!(e, ScenarioEvent::RequestBurst { .. }));
        spec.run();
    }

    #[test]
    #[should_panic(expected = "agree on the eviction policy")]
    fn mixed_eviction_policies_are_rejected() {
        let mut spec = mixed_tenancy_spec(EvictionPolicy::Never);
        spec.jobs[1].config.eviction = EvictionPolicy::FairShare;
        spec.run();
    }

    // ---- single-job runs ------------------------------------------------------------

    #[test]
    fn electrical_baseline_runs_to_completion() {
        let result = clean_single(OpusConfig {
            iterations: 1,
            ..OpusConfig::electrical()
        });
        assert_eq!(result.iterations.len(), 1);
        let it = &result.iterations[0];
        assert!(it.iteration_time > SimDuration::ZERO);
        assert!(!it.comm_records.is_empty());
        assert_eq!(it.reconfig_count(), 0, "electrical rails never reconfigure");
        assert_eq!(it.total_circuit_wait, SimDuration::ZERO);
    }

    #[test]
    fn optical_zero_latency_matches_electrical_baseline_closely() {
        let baseline = clean_single(jitter_free(OpusConfig::electrical(), 2));
        let optical = clean_single(jitter_free(OpusConfig::on_demand(SimDuration::ZERO), 2));
        // A zero-latency optical fabric still serializes a port's circuits (a single
        // NIC port cannot talk to two peers at once), so it can be marginally slower
        // than the packet-switched baseline, but only marginally.
        let ratio = optical.normalized_against(&baseline);
        assert!(
            (0.98..=1.08).contains(&ratio),
            "zero-latency optical should closely match the baseline, ratio = {ratio}"
        );
    }

    #[test]
    fn reconfigurations_happen_on_parallelism_shifts_only() {
        let result = clean_single(OpusConfig {
            iterations: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(1))
        });
        let it = &result.iterations[0];
        assert!(
            it.reconfig_count() > 0,
            "optical rails must reconfigure at least once"
        );
        // Far fewer reconfigurations than communication operations: Opus only switches
        // when the demand matrix changes (Objective 2).
        assert!(
            it.reconfig_count() < it.comm_records.iter().filter(|r| r.scaleout).count(),
            "reconfig count {} should be far below scale-out op count",
            it.reconfig_count()
        );
    }

    #[test]
    fn iteration_time_is_monotone_in_reconfig_latency() {
        let mut prev = SimDuration::ZERO;
        for ms in [0u64, 10, 100, 1000] {
            let result = clean_single(jitter_free(
                OpusConfig::on_demand(SimDuration::from_millis(ms)),
                2,
            ));
            let t = result.steady_state_iteration_time();
            assert!(
                t >= prev,
                "iteration time must not decrease with latency (at {ms} ms: {t} < {prev})"
            );
            prev = t;
        }
    }

    #[test]
    fn provisioning_is_never_slower_than_on_demand() {
        for ms in [1u64, 25, 100, 500] {
            let latency = SimDuration::from_millis(ms);
            let on_demand = clean_single(jitter_free(OpusConfig::on_demand(latency), 3));
            let provisioned = clean_single(jitter_free(OpusConfig::provisioned(latency), 3));
            let t_od = on_demand.steady_state_iteration_time();
            let t_pr = provisioned.steady_state_iteration_time();
            assert!(
                t_pr <= t_od + SimDuration::from_micros(1),
                "provisioned ({t_pr}) must not exceed on-demand ({t_od}) at {ms} ms"
            );
        }
    }

    #[test]
    fn provisioning_hides_most_of_a_moderate_delay() {
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = Arc::new(DagBuilder::new(model, parallel, compute).build());
        let run = |base: OpusConfig| {
            let config = jitter_free(base, 2);
            ScenarioSpec::new(tiny_cluster(4))
                .job(Arc::clone(&dag), config)
                .run()
                .jobs
                .remove(0)
                .result
        };
        let baseline = run(OpusConfig::electrical());
        let provisioned = run(OpusConfig::provisioned(SimDuration::from_millis(25)));
        let ratio = provisioned.normalized_against(&baseline);
        assert!(
            ratio < 1.10,
            "a 25 ms piezo-class switch with provisioning should cost well under 10 %, got {ratio}"
        );
    }

    #[test]
    fn tp_traffic_never_touches_the_rails() {
        let result = clean_single(OpusConfig {
            iterations: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(1))
        });
        for rec in &result.iterations[0].comm_records {
            if rec.axis == ParallelismAxis::Tensor {
                assert!(
                    !rec.scaleout,
                    "TP record {} must stay in the scale-up domain",
                    rec.label
                );
                assert!(rec.rails.is_empty());
            }
        }
    }

    #[test]
    fn scaleout_records_carry_rails_and_groups() {
        let result = clean_single(OpusConfig {
            iterations: 1,
            ..OpusConfig::on_demand(SimDuration::from_millis(1))
        });
        let scaleout: Vec<_> = result.iterations[0]
            .comm_records
            .iter()
            .filter(|r| r.scaleout)
            .collect();
        assert!(!scaleout.is_empty());
        for rec in scaleout {
            assert!(!rec.rails.is_empty(), "{} must name its rails", rec.label);
            assert!(rec.end > rec.start);
        }
    }

    #[test]
    fn profile_is_captured_during_the_first_iteration() {
        let config = OpusConfig {
            iterations: 2,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        let spec = ScenarioSpec::new(tiny_cluster(4)).job(tiny_dag(), config);
        let mut sim = ScenarioSim::build(spec, Records::Keep);
        assert!(!sim.jobs[0].rail_profiled);
        sim.run_scenario();
        assert!(
            sim.jobs[0].rail_profiled,
            "iteration 0 carried rail traffic, so provisioning may start"
        );
    }

    #[test]
    fn provisioning_needs_a_profiled_rail_transfer() {
        // Replica 0 (GPUs 1-2) lies inside node 0 and serves alone until the grow
        // at 1 ms, so the profiling iteration 0 sends nothing over the rails. The
        // grow adds replica 1 (GPUs 3-4), which spans both nodes. With no rail
        // transfer profiled the provisioned job must not back-date its requests: it
        // runs exactly as on demand.
        use railsim_workload::{InferenceConfig, InferenceDagBuilder};
        let inference = InferenceConfig::tiny_test(2, 1, 2);
        let serving = ServingSpec::for_inference(&inference, 1);
        let run = |base: OpusConfig| {
            let dag = InferenceDagBuilder::new(inference.clone(), GpuSpec::a100()).build();
            let config = OpusConfig {
                compute_jitter: 0.0,
                ..base
            };
            ScenarioSpec::new(tiny_cluster(2))
                .serving_job(dag, config, JobPlacement::AtGpu(1), serving)
                .inject(
                    SimTime::ZERO,
                    ScenarioEvent::RequestBurst {
                        job: JobId(0),
                        requests: 64,
                    },
                )
                .inject(
                    SimTime::from_millis(1),
                    ScenarioEvent::JobGrow { job: JobId(0) },
                )
                .run()
                .jobs
                .remove(0)
                .result
        };
        let latency = SimDuration::from_millis(1);
        let provisioned = run(OpusConfig::provisioned(latency));
        let on_demand = run(OpusConfig::on_demand(latency));
        let rail_records: Vec<usize> = provisioned
            .iterations
            .iter()
            .map(|it| {
                it.comm_records
                    .iter()
                    .filter(|r| !r.rails.is_empty())
                    .count()
            })
            .collect();
        // Replica 1 joins at the first boundary after the grow (iteration 12); the
        // two iterations it serves carry every rail transfer of the run.
        assert_eq!(rail_records, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 3]);
        assert_eq!(provisioned.total_reconfigs(), 1);
        assert_eq!(format!("{provisioned:?}"), format!("{on_demand:?}"));
    }

    #[test]
    fn materialized_circuit_waits_sum_to_the_runs_own_total() {
        // A record stores no circuit wait: it reads `start − issued_at − datapath
        // latency` back. The run accumulates the wait it paid on its own, so the two
        // must agree in every iteration, whatever delayed the transfers: the outage
        // gate, the controller, the electrical datapath or host offload.
        let latency = SimDuration::from_millis(5);
        let mut waited = SimDuration::ZERO;
        for (name, base) in [
            ("electrical", OpusConfig::electrical()),
            ("on_demand", OpusConfig::on_demand(latency)),
            ("provisioned", OpusConfig::provisioned(latency)),
        ] {
            for offload in [None, Some(crate::HostOffload::frontend_100g())] {
                let config = OpusConfig {
                    host_offload: offload,
                    recovery_policy: RecoveryPolicy::Replan,
                    ..jitter_free(base, 3)
                };
                for (flap, result) in [
                    (false, clean_single(config)),
                    (true, flapped_scenario(config).jobs.remove(0).result),
                ] {
                    for it in &result.iterations {
                        let sum = it
                            .comm_records
                            .iter()
                            .fold(SimDuration::ZERO, |acc, r| acc + r.circuit_wait);
                        assert_eq!(
                            sum,
                            it.total_circuit_wait,
                            "{name}, offload {}, flap {flap}, iteration {}",
                            offload.is_some(),
                            it.iteration
                        );
                        waited += sum;
                    }
                }
            }
        }
        assert!(waited > SimDuration::ZERO, "some transfer must have waited");
    }

    #[test]
    fn host_offload_reduces_reconfigurations_without_slowing_the_iteration() {
        use crate::config::HostOffload;
        let plain = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(100)), 2);
        let offloaded = clean_single(OpusConfig {
            host_offload: Some(HostOffload::frontend_100g()),
            ..plain
        });
        let plain = clean_single(plain);
        // The sub-megabyte sync AllReduces no longer hit the rails, so the offloaded
        // run reconfigures at most as often and must not be slower.
        assert!(offloaded.total_reconfigs() <= plain.total_reconfigs());
        assert!(
            offloaded.steady_state_iteration_time()
                <= plain.steady_state_iteration_time() + SimDuration::from_micros(1)
        );
        // Offloaded records carry no rails.
        let has_offloaded_record = offloaded
            .iterations
            .iter()
            .flat_map(|i| i.comm_records.iter())
            .any(|r| r.scaleout && r.rails.is_empty());
        assert!(
            has_offloaded_record,
            "some traffic must actually have been offloaded"
        );
    }

    #[test]
    fn multiple_iterations_advance_the_clock() {
        let result = clean_single(OpusConfig {
            iterations: 3,
            ..OpusConfig::electrical()
        });
        assert_eq!(result.iterations.len(), 3);
        for w in result.iterations.windows(2) {
            assert!(w[1].started_at > w[0].started_at);
        }
    }

    #[test]
    fn memoized_runs_report_their_fast_forwards_and_match_the_naive_path() {
        let base = jitter_free(OpusConfig::provisioned(SimDuration::from_millis(25)), 12);
        let run = |config: OpusConfig| {
            ScenarioSpec::new(tiny_cluster(4))
                .job(tiny_dag(), config)
                .run()
                .jobs
                .remove(0)
        };
        let memoized = run(base);
        let naive = run(OpusConfig {
            memoize_steady_state: false,
            ..base
        });
        assert_eq!(naive.memoized_iterations, 0);
        assert_eq!(
            memoized.memoized_iterations, 10,
            "a 12-iteration jitter-free run must fast-forward all but two iterations"
        );
        let (memo_result, naive_result) = (memoized.result, naive.result);
        assert_eq!(memo_result.iterations.len(), naive_result.iterations.len());
        for (a, b) in memo_result.iterations.iter().zip(&naive_result.iterations) {
            assert_eq!(a.iteration, b.iteration);
            assert_eq!(a.iteration_time, b.iteration_time);
            assert_eq!(a.started_at, b.started_at);
            assert_eq!(a.comm_records, b.comm_records);
            assert_eq!(a.reconfig_events, b.reconfig_events);
            assert_eq!(a.total_circuit_wait, b.total_circuit_wait);
        }
    }
}
