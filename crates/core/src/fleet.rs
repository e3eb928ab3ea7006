//! Batch scenario evaluation and Monte Carlo capacity planning.
//!
//! One [`ScenarioSpec`] run answers one question; production questions are
//! distributions — "P99 makespan under this rail-failure rate", "cheapest
//! provisioning level that meets an SLO". Scenarios are embarrassingly parallel above
//! the engine, so this module turns the simulator into a batch service:
//!
//! * [`FleetService`] holds the construction-cached, immutably shared assets — the
//!   cluster geometry and interned [`TrainingDag`] templates behind `Arc` — so a
//!   sweep of hundreds of variants pays DAG construction once.
//! * [`SweepSpec`] describes the variant grid *declaratively*: provisioning levels
//!   (policy + reconfiguration latency + cost), placements, seeded failure traces and
//!   the memoization knob. The grid expands to concrete [`ScenarioSpec`]s on demand;
//!   per-variant seeds derive deterministically from the base seed and the flat
//!   variant index via splitmix64 ([`SweepSpec::seed_for`]), so results are
//!   reproducible independent of worker count.
//! * A sweep simulates each distinct scenario once. Variants whose specs the
//!   simulator cannot tell apart form a group: a `+replan` twin's clean trace runs
//!   its stall level's scenario (a recovery policy acts only on a rail failure), and
//!   the sweep turns jitter off, so a seed draws nothing. The scenario driver decides
//!   the groups; the sweep runs each group's first variant and reports the others
//!   with its simulated fields.
//! * A fixed-size `std::thread::scope` worker pool evaluates those runs one per core
//!   and streams [`VariantResult`]s through a channel-backed iterator as they finish
//!   ([`FleetService::evaluate_streaming`]); the final report orders results by
//!   variant index regardless of completion order, counts the scenarios it ran, and
//!   attaches a [`Frontier`] — availability/cost Pareto points with P50/P95/P99
//!   makespan and circuit-wait percentiles per provisioning level.
//!
//! Cost figures on [`ProvisioningLevel`] are plain data: the `railsim-cost` crate
//! (device-level DAC/ADC/laser tables) fills them in from outside, keeping this crate
//! free of a cost-model dependency.
//!
//! ```
//! use opus::fleet::{FailureModel, FleetService, ProvisioningLevel, SweepSpec};
//! use opus::ReconfigPolicy;
//! use railsim_sim::SimDuration;
//! use railsim_topology::{ClusterSpec, NodePreset};
//! use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
//!
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let service = FleetService::new(cluster);
//! service.dag_template("tiny/llama3-8b", || {
//!     let model = ModelConfig::tiny_test();
//!     let parallel = ParallelismConfig::paper_llama3_8b();
//!     let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//!     DagBuilder::new(model, parallel, compute).build()
//! });
//!
//! let sweep = SweepSpec {
//!     template: "tiny/llama3-8b".to_string(),
//!     levels: vec![
//!         ProvisioningLevel::bare("electrical", ReconfigPolicy::Electrical, SimDuration::ZERO),
//!         ProvisioningLevel::bare(
//!             "piezo-25ms",
//!             ReconfigPolicy::Provisioned,
//!             SimDuration::from_millis(25),
//!         ),
//!     ],
//!     traces_per_level: 3,
//!     failures: FailureModel::default(),
//!     ..SweepSpec::default()
//! };
//! let report = service.evaluate(&sweep);
//! assert_eq!(report.variants.len(), sweep.num_variants());
//! assert!(report.frontier.pareto_points() >= 1);
//! ```

use crate::config::{OpusConfig, ReconfigPolicy, RecoveryPolicy};
use crate::scenario::{first_same_simulation, JobPlacement, ScenarioEvent, ScenarioSpec};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{Cluster, RailId};
use railsim_workload::TrainingDag;
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

// ---------------------------------------------------------------------------------
// Deterministic per-variant seeding
// ---------------------------------------------------------------------------------

const SPLITMIX64_GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream: the standard 64-bit seed expander (Steele et al.), used for
/// per-variant seed derivation and failure-trace generation. Deliberately *not* the
/// simulation RNG — variant seeds must be derivable without constructing a scenario.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(SPLITMIX64_GOLDEN);
        splitmix64_mix(self.state)
    }

    /// A draw in `[0, bound)`. Modulo bias is irrelevant here: bounds are tiny
    /// (rail counts, outage counts, nanosecond windows) against a 64-bit stream.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Number of rail outages (`RailDown` events) in an injected timeline.
fn injected_outages(injections: &[(SimTime, ScenarioEvent)]) -> usize {
    injections
        .iter()
        .filter(|(_, e)| matches!(e, ScenarioEvent::RailDown(_)))
        .count()
}

// ---------------------------------------------------------------------------------
// The sweep grid
// ---------------------------------------------------------------------------------

/// One provisioning level of the sweep: a network policy, its OCS class, and what
/// that fabric costs. Cost figures are plain data so `opus` needs no cost-model
/// dependency — `railsim-cost`'s device-level tables fill them in (see
/// `railsim_cost::provisioning`), and [`ProvisioningLevel::bare`] leaves them zero
/// for sweeps that only care about the availability axis.
#[derive(Debug, Clone, Serialize)]
pub struct ProvisioningLevel {
    /// Display label ("electrical", "piezo-25ms", ...).
    pub label: String,
    /// The network policy this level runs.
    pub policy: ReconfigPolicy,
    /// How jobs at this level react to rail failures — [`RecoveryPolicy::Stall`]
    /// waits outages out, [`RecoveryPolicy::Replan`] re-stripes circuits around dead
    /// rails. A sweep axis: pairing otherwise-identical levels lets the frontier
    /// rank the availability the replan machinery buys per provisioning level.
    pub recovery: RecoveryPolicy,
    /// OCS reconfiguration latency (ignored by the electrical policy).
    pub reconfig_latency: SimDuration,
    /// Fabric capital cost in USD (the frontier's cost axis).
    pub capex_usd: f64,
    /// Fabric power draw in watts.
    pub power_watts: f64,
}

impl ProvisioningLevel {
    /// A level with zero cost figures, for availability-only sweeps and tests.
    pub fn bare(label: &str, policy: ReconfigPolicy, reconfig_latency: SimDuration) -> Self {
        ProvisioningLevel {
            label: label.to_string(),
            policy,
            recovery: RecoveryPolicy::Stall,
            reconfig_latency,
            capex_usd: 0.0,
            power_watts: 0.0,
        }
    }

    /// The same level under a different recovery policy, `+replan`-suffixed when it
    /// differs from the default (the cost figures are unchanged: replanning is a
    /// control-plane behavior, not hardware).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        if recovery != self.recovery && recovery == RecoveryPolicy::Replan {
            self.label = format!("{}+replan", self.label);
        }
        self.recovery = recovery;
        self
    }
}

/// The Monte Carlo failure model: each faulted trace injects up to `max_outages`
/// rail outages (a `RailDown`/`RailUp` pair) at times drawn uniformly from
/// `[0, window)` with durations in `[min_outage, max_outage]`. Outages landing on a
/// rail already faulted in the same trace are dropped rather than overlapped, so a
/// trace never nests down/up pairs on one rail.
#[derive(Debug, Clone, Serialize)]
pub struct FailureModel {
    /// Maximum outages per faulted trace (each trace draws `1..=max_outages`).
    pub max_outages: u32,
    /// Outage start times are drawn from `[0, window)`. Size this to the expected
    /// job runtime — a clean calibration run is the usual source.
    pub window: SimDuration,
    /// Shortest outage duration.
    pub min_outage: SimDuration,
    /// Longest outage duration.
    pub max_outage: SimDuration,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            max_outages: 2,
            window: SimDuration::from_secs(1),
            min_outage: SimDuration::from_millis(10),
            max_outage: SimDuration::from_millis(100),
        }
    }
}

impl FailureModel {
    /// Generates the injection timeline for one faulted trace from a derived seed.
    /// Pure function of `(seed, num_rails, self)` — workers regenerate traces
    /// independently and deterministically.
    fn trace(&self, seed: u64, num_rails: u32) -> Vec<(SimTime, ScenarioEvent)> {
        assert!(
            self.max_outages > 0,
            "a faulted trace needs at least one outage"
        );
        assert!(num_rails > 0, "the cluster has no rails to fail");
        assert!(
            self.max_outage >= self.min_outage,
            "max_outage must be at least min_outage"
        );
        let mut rng = SplitMix64::new(seed);
        let num_outages = 1 + rng.below(self.max_outages as u64);
        let span = self.max_outage.as_nanos() - self.min_outage.as_nanos();
        let mut injections = Vec::new();
        let mut failed_rails = Vec::new();
        for _ in 0..num_outages {
            let rail = RailId(rng.below(num_rails as u64) as u32);
            let start = SimTime::from_nanos(rng.below(self.window.as_nanos().max(1)));
            let duration =
                SimDuration::from_nanos(self.min_outage.as_nanos() + rng.below(span + 1));
            if failed_rails.contains(&rail) {
                continue; // drawn, not applied: the draw count stays seed-stable
            }
            failed_rails.push(rail);
            injections.push((start, ScenarioEvent::RailDown(rail)));
            injections.push((start + duration, ScenarioEvent::RailUp(rail)));
        }
        injections
    }
}

/// A declarative sweep: the variant grid is the cross product
/// `levels × placements × traces_per_level`, expanded lazily to concrete
/// [`ScenarioSpec`]s. Trace 0 of every `(level, placement)` cell is the *clean
/// reference* (no injections) that anchors the availability ratio; traces `1..` are
/// seeded failure traces.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Key of the DAG template registered via [`FleetService::dag_template`].
    pub template: String,
    /// Base seed; per-variant seeds derive from it via [`SweepSpec::seed_for`].
    pub base_seed: u64,
    /// Iterations per scenario run.
    pub iterations: u32,
    /// Traces per `(level, placement)` cell, clean reference included (so `1` means
    /// clean-only, `4` means one clean + three faulted).
    pub traces_per_level: u32,
    /// The provisioning levels to compare (the frontier's rows).
    pub levels: Vec<ProvisioningLevel>,
    /// Placements to evaluate each level under.
    pub placements: Vec<JobPlacement>,
    /// The failure model faulted traces draw from.
    pub failures: FailureModel,
    /// Steady-state memoization for the scenario runs (results are byte-identical
    /// either way; the knob exists for A/B wall-clock measurement).
    pub memoize: bool,
    /// Worker threads for evaluation. `0` and `1` both mean sequential; the pool is
    /// additionally capped at the variant count.
    pub workers: u32,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            template: String::new(),
            base_seed: 42,
            iterations: 2,
            traces_per_level: 1,
            levels: Vec::new(),
            placements: vec![JobPlacement::Auto],
            failures: FailureModel::default(),
            memoize: true,
            workers: 1,
        }
    }
}

impl SweepSpec {
    /// Number of variants in the grid.
    pub fn num_variants(&self) -> usize {
        self.levels.len() * self.placements.len() * self.traces_per_level as usize
    }

    /// The deterministic seed of variant `variant_idx`: splitmix64 over the base
    /// seed. Independent of worker count and evaluation order by construction, so a
    /// sweep's failure traces are reproducible from `(base_seed, variant_idx)` alone.
    pub fn seed_for(&self, variant_idx: usize) -> u64 {
        splitmix64_mix(
            self.base_seed
                .wrapping_add((variant_idx as u64 + 1).wrapping_mul(SPLITMIX64_GOLDEN)),
        )
    }

    /// Decomposes a variant index into `(level, placement, trace)` grid coordinates.
    /// Level-major: all of level 0's variants precede level 1's.
    pub fn coords(&self, variant_idx: usize) -> (usize, usize, usize) {
        let traces = self.traces_per_level as usize;
        let per_level = self.placements.len() * traces;
        (
            variant_idx / per_level,
            (variant_idx % per_level) / traces,
            variant_idx % traces,
        )
    }

    fn validate(&self) {
        assert!(!self.levels.is_empty(), "a sweep needs at least one level");
        assert!(
            !self.placements.is_empty(),
            "a sweep needs at least one placement"
        );
        assert!(
            self.traces_per_level > 0,
            "a sweep needs at least the clean trace per level"
        );
        assert!(
            self.iterations > 0,
            "scenarios simulate at least one iteration"
        );
    }
}

// ---------------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------------

/// The outcome of one variant. Serialized form is the unit of the 1-vs-N-worker
/// byte-identity guarantee: a sweep's ordered `VariantResult`s are independent of
/// worker count.
#[derive(Debug, Clone, Serialize)]
pub struct VariantResult {
    /// Index in the sweep grid (also the report ordering).
    pub variant: usize,
    /// Grid coordinate: provisioning level index.
    pub level: usize,
    /// Grid coordinate: placement index.
    pub placement: usize,
    /// Grid coordinate: trace index (0 = clean reference).
    pub trace: usize,
    /// The derived seed this variant ran under.
    pub seed: u64,
    /// When the job's last iteration finished (the job's runtime; injected outages
    /// can commit *after* this, so it is the availability denominator, not
    /// `makespan`).
    pub job_end: SimTime,
    /// When the whole scenario's last event committed.
    pub makespan: SimTime,
    /// Total time communication spent waiting for circuits, across iterations.
    pub circuit_wait: SimDuration,
    /// Total OCS reconfigurations across iterations.
    pub reconfigs: usize,
    /// Rail outages injected into this variant.
    pub outages: usize,
    /// Iterations fast-forwarded from the steady-state memo.
    pub memoized_iterations: u64,
}

/// Nearest-rank percentiles over a sample of durations.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Percentiles {
    /// Median.
    pub p50: SimDuration,
    /// 95th percentile.
    pub p95: SimDuration,
    /// 99th percentile.
    pub p99: SimDuration,
}

impl Percentiles {
    /// Nearest-rank percentiles (deterministic, no interpolation). Panics on an
    /// empty sample — every frontier level has at least its clean trace.
    fn of(samples: &mut [SimDuration]) -> Percentiles {
        assert!(!samples.is_empty(), "percentiles need at least one sample");
        samples.sort_unstable();
        let rank = |p: f64| {
            let n = samples.len();
            let idx = (p * n as f64).ceil() as usize;
            samples[idx.clamp(1, n) - 1]
        };
        Percentiles {
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        }
    }
}

/// One provisioning level's row in the frontier report.
#[derive(Debug, Clone, Serialize)]
pub struct LevelSummary {
    /// The level's label.
    pub label: String,
    /// The level's policy.
    pub policy: ReconfigPolicy,
    /// The level's recovery policy (stall vs replan).
    pub recovery: RecoveryPolicy,
    /// The level's OCS reconfiguration latency.
    pub reconfig_latency: SimDuration,
    /// Capital cost (USD) — the frontier's cost axis.
    pub capex_usd: f64,
    /// Power draw (watts).
    pub power_watts: f64,
    /// Availability: the fraction of the sweep's best clean performance this level
    /// delivers under the failure model — the mean over all the level's traces of
    /// `best clean job runtime / this trace's job runtime`, where the reference is
    /// the fastest trace-0 run *across levels* of the same placement. An SLO-style
    /// goodput measure: a level scores high only by being both fast when healthy
    /// and resilient when rails fail, so slow fabrics cannot hide outages inside
    /// an already-long runtime.
    pub availability: f64,
    /// Job-runtime percentiles over every trace of the level.
    pub makespan: Percentiles,
    /// Circuit-wait percentiles over every trace of the level.
    pub circuit_wait: Percentiles,
    /// True when no other level has both higher availability and lower cost (with
    /// at least one strict) — the level sits on the availability/cost frontier.
    pub pareto: bool,
}

/// The availability/cost frontier: one row per provisioning level, Pareto-optimal
/// rows flagged.
#[derive(Debug, Clone, Serialize)]
pub struct Frontier {
    /// Per-level summaries, in sweep level order.
    pub levels: Vec<LevelSummary>,
}

impl Frontier {
    /// Number of Pareto-optimal levels.
    pub fn pareto_points(&self) -> usize {
        self.levels.iter().filter(|l| l.pareto).count()
    }

    fn build(sweep: &SweepSpec, variants: &[VariantResult]) -> Frontier {
        let traces = sweep.traces_per_level as usize;
        let cell = |level: usize, placement: usize, trace: usize| {
            &variants[(level * sweep.placements.len() + placement) * traces + trace]
        };
        // The availability reference: per placement, the fastest clean (trace-0)
        // run across every level of the sweep.
        let best_clean: Vec<f64> = (0..sweep.placements.len())
            .map(|placement| {
                (0..sweep.levels.len())
                    .map(|level| cell(level, placement, 0).job_end.as_nanos())
                    .min()
                    .expect("a sweep has at least one level")
                    .max(1) as f64
            })
            .collect();
        let mut levels: Vec<LevelSummary> = sweep
            .levels
            .iter()
            .enumerate()
            .map(|(level_idx, level)| {
                let of_level: Vec<&VariantResult> =
                    variants.iter().filter(|v| v.level == level_idx).collect();
                let mut runtimes: Vec<SimDuration> = of_level
                    .iter()
                    .map(|v| SimDuration::from_nanos(v.job_end.as_nanos()))
                    .collect();
                let mut waits: Vec<SimDuration> = of_level.iter().map(|v| v.circuit_wait).collect();
                let mut ratios = Vec::new();
                for (placement_idx, _) in sweep.placements.iter().enumerate() {
                    for trace in 0..traces {
                        let runtime = cell(level_idx, placement_idx, trace)
                            .job_end
                            .as_nanos()
                            .max(1);
                        ratios.push(best_clean[placement_idx] / runtime as f64);
                    }
                }
                let availability = ratios.iter().sum::<f64>() / ratios.len() as f64;
                LevelSummary {
                    label: level.label.clone(),
                    policy: level.policy,
                    recovery: level.recovery,
                    reconfig_latency: level.reconfig_latency,
                    capex_usd: level.capex_usd,
                    power_watts: level.power_watts,
                    availability,
                    makespan: Percentiles::of(&mut runtimes),
                    circuit_wait: Percentiles::of(&mut waits),
                    pareto: false,
                }
            })
            .collect();
        for i in 0..levels.len() {
            let dominated = levels.iter().enumerate().any(|(j, other)| {
                j != i
                    && other.availability >= levels[i].availability
                    && other.capex_usd <= levels[i].capex_usd
                    && (other.availability > levels[i].availability
                        || other.capex_usd < levels[i].capex_usd)
            });
            levels[i].pareto = !dominated;
        }
        Frontier { levels }
    }
}

impl VariantResult {
    /// The result of variant `variant_idx`, which ran the same simulation as `self`:
    /// its own grid coordinates and seed, and `self`'s simulated fields.
    fn for_twin(&self, sweep: &SweepSpec, variant_idx: usize) -> VariantResult {
        let (level, placement, trace) = sweep.coords(variant_idx);
        VariantResult {
            variant: variant_idx,
            level,
            placement,
            trace,
            seed: sweep.seed_for(variant_idx),
            ..self.clone()
        }
    }
}

/// A completed sweep: every variant in grid order plus the frontier report.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// All variant results, ordered by variant index (regardless of which worker
    /// finished first).
    pub variants: Vec<VariantResult>,
    /// The availability/cost frontier.
    pub frontier: Frontier,
    /// Scenarios the sweep simulated: one per group of variants the simulator cannot
    /// tell apart, so at most `variants.len()`. Not serialized.
    #[serde(skip)]
    pub scenarios_run: usize,
}

// ---------------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------------

/// A long-running batch-evaluation service above the scenario driver.
///
/// Construction-cached assets — the cluster and the registered DAG templates — are
/// shared immutably (`Arc`) across every variant of every sweep, so workers never
/// rebuild them. Each variant's scenario gets its own copy of the cluster, which
/// only wraps a `ClusterSpec` and which no run mutates. What a worker pays per
/// distinct scenario is its set-up — circuit-slot planning, DAG validation, and a
/// rebase of the rank-bearing task columns when the placement shifts the job — and
/// then the run; a variant that shares another's scenario costs a copy of its
/// result. See the [module docs](self) for the full picture.
pub struct FleetService {
    cluster: Arc<Cluster>,
    templates: Mutex<HashMap<String, Arc<TrainingDag>>>,
}

impl FleetService {
    /// A service over one cluster.
    pub fn new(cluster: Cluster) -> Self {
        FleetService {
            cluster: Arc::new(cluster),
            templates: Mutex::new(HashMap::new()),
        }
    }

    /// The shared cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Returns the template registered under `key`, building and caching it on the
    /// first call. Keys conventionally encode `(cluster, parallelism)` — e.g.
    /// `"1k-h200/tp8-pp8-fsdp"` — so distinct workloads never collide. The builder
    /// runs at most once per key; later calls are a map lookup + `Arc` clone.
    pub fn dag_template(&self, key: &str, build: impl FnOnce() -> TrainingDag) -> Arc<TrainingDag> {
        let mut templates = self.templates.lock().expect("template cache poisoned");
        if let Some(dag) = templates.get(key) {
            return Arc::clone(dag);
        }
        let dag = Arc::new(build());
        templates.insert(key.to_string(), Arc::clone(&dag));
        dag
    }

    /// Registered template keys, sorted.
    pub fn template_keys(&self) -> Vec<String> {
        let templates = self.templates.lock().expect("template cache poisoned");
        let mut keys: Vec<String> = templates.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Expands variant `variant_idx` of `sweep` to a concrete scenario spec.
    /// Pure: workers call this independently; the spec depends only on
    /// `(service assets, sweep, variant_idx)`.
    pub fn variant_spec(&self, sweep: &SweepSpec, variant_idx: usize) -> ScenarioSpec {
        let (level_idx, placement_idx, trace) = sweep.coords(variant_idx);
        let level = &sweep.levels[level_idx];
        let dag = {
            let templates = self.templates.lock().expect("template cache poisoned");
            Arc::clone(
                templates
                    .get(&sweep.template)
                    .unwrap_or_else(|| panic!("unknown DAG template {:?}", sweep.template)),
            )
        };
        let mut config = match level.policy {
            ReconfigPolicy::Electrical => OpusConfig::electrical(),
            ReconfigPolicy::OnDemand => OpusConfig::on_demand(level.reconfig_latency),
            ReconfigPolicy::Provisioned => OpusConfig::provisioned(level.reconfig_latency),
        };
        config.iterations = sweep.iterations;
        config.compute_jitter = 0.0; // variants differ by their traces, not by jitter
        config.seed = sweep.seed_for(variant_idx);
        config.memoize_steady_state = sweep.memoize;
        config.recovery_policy = level.recovery;
        let mut spec = ScenarioSpec::new((*self.cluster).clone()).job_placed(
            dag,
            config,
            sweep.placements[placement_idx],
        );
        if trace > 0 {
            let injections = sweep
                .failures
                .trace(sweep.seed_for(variant_idx), self.cluster.num_rails());
            for (at, event) in injections {
                spec = spec.inject(at, event);
            }
        }
        spec
    }

    /// Runs `spec`, variant `variant_idx`'s scenario, and reports it.
    fn run_variant(sweep: &SweepSpec, variant_idx: usize, spec: ScenarioSpec) -> VariantResult {
        let (level, placement, trace) = sweep.coords(variant_idx);
        let outages = injected_outages(&spec.injections);
        // A variant reports aggregates only, so its run keeps no per-transfer
        // records.
        let result = spec.run_without_records();
        let job = &result.jobs[0].result;
        let job_end = job
            .iterations
            .last()
            .map(|it| it.started_at + it.iteration_time)
            .unwrap_or(SimTime::ZERO);
        VariantResult {
            variant: variant_idx,
            level,
            placement,
            trace,
            seed: sweep.seed_for(variant_idx),
            job_end,
            makespan: result.fleet.makespan,
            circuit_wait: job
                .iterations
                .iter()
                .map(|it| it.total_circuit_wait)
                .fold(SimDuration::ZERO, |acc, w| acc + w),
            reconfigs: job.total_reconfigs(),
            outages,
            memoized_iterations: result.jobs[0].memoized_iterations,
        }
    }

    /// Evaluates every variant of the sweep and returns the ordered report.
    /// Equivalent to [`evaluate_streaming`](FleetService::evaluate_streaming) with a
    /// no-op sink.
    pub fn evaluate(&self, sweep: &SweepSpec) -> SweepReport {
        self.evaluate_streaming(sweep, |_| {})
    }

    /// Evaluates every variant on a fixed-size worker pool, invoking `sink` with
    /// each [`VariantResult`] *as it finishes* (completion order — useful for
    /// progress streaming), then returns the report with variants in grid order.
    ///
    /// The sweep simulates each distinct scenario once. Variants whose specs the
    /// simulator cannot tell apart form a group (the `+replan` twin of a level runs
    /// the same clean trace as its stall level, and a seed draws nothing without
    /// jitter), and only the group's first variant runs. Each other member takes its
    /// representative's simulated fields with its own grid coordinates and seed, and
    /// reaches `sink` right after its representative.
    ///
    /// Workers claim representatives from a shared atomic counter and send results
    /// over a channel; the calling thread drains the channel-backed iterator. The
    /// report is byte-identical for any worker count: each variant's result depends
    /// only on its spec, and the report orders by variant index. A panic in a
    /// worker, such as a scenario the build rejects, resumes on the calling thread.
    pub fn evaluate_streaming(
        &self,
        sweep: &SweepSpec,
        mut sink: impl FnMut(&VariantResult),
    ) -> SweepReport {
        sweep.validate();
        let n = sweep.num_variants();
        let specs: Vec<ScenarioSpec> = (0..n).map(|idx| self.variant_spec(sweep, idx)).collect();
        // The variants that run a scenario, and the twins each one's result stands for.
        let mut runs = Vec::new();
        let mut twins: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (idx, first) in first_same_simulation(&specs).into_iter().enumerate() {
            if first == idx {
                runs.push(idx);
            } else {
                twins[first].push(idx);
            }
        }
        let workers = (sweep.workers.max(1) as usize).min(runs.len());
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<VariantResult>> = (0..n).map(|_| None).collect();
        let (tx, rx) = mpsc::channel::<VariantResult>();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let tx = tx.clone();
                    let (next, runs, specs) = (&next, &runs, &specs);
                    scope.spawn(move || {
                        while let Some(&idx) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let result = Self::run_variant(sweep, idx, specs[idx].clone());
                            if tx.send(result).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            drop(tx); // the iterator below ends when the last worker hangs up
            for result in rx.iter() {
                sink(&result);
                for &idx in &twins[result.variant] {
                    let twin = result.for_twin(sweep, idx);
                    sink(&twin);
                    slots[idx] = Some(twin);
                }
                let idx = result.variant;
                slots[idx] = Some(result);
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        let variants: Vec<VariantResult> = slots
            .into_iter()
            .map(|slot| slot.expect("every variant index was evaluated exactly once"))
            .collect();
        let frontier = Frontier::build(sweep, &variants);
        SweepReport {
            variants,
            frontier,
            scenarios_run: runs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_topology::{ClusterSpec, NodePreset};
    use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

    /// A service on `nodes` nodes of `preset` with the 16-rank "tiny" template.
    fn tiny_service_on(preset: NodePreset, nodes: u32) -> FleetService {
        let service = FleetService::new(ClusterSpec::from_preset(preset, nodes).build());
        service.dag_template("tiny", || {
            let model = ModelConfig::tiny_test();
            let parallel = ParallelismConfig::paper_llama3_8b();
            let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
            DagBuilder::new(model, parallel, compute).build()
        });
        service
    }

    fn tiny_service() -> FleetService {
        tiny_service_on(NodePreset::PerlmutterA100, 4)
    }

    fn tiny_sweep(traces: u32) -> SweepSpec {
        SweepSpec {
            template: "tiny".to_string(),
            traces_per_level: traces,
            levels: vec![
                ProvisioningLevel::bare(
                    "electrical",
                    ReconfigPolicy::Electrical,
                    SimDuration::ZERO,
                ),
                ProvisioningLevel::bare(
                    "piezo-25ms",
                    ReconfigPolicy::Provisioned,
                    SimDuration::from_millis(25),
                ),
            ],
            failures: FailureModel {
                max_outages: 2,
                window: SimDuration::from_millis(60),
                min_outage: SimDuration::from_millis(1),
                max_outage: SimDuration::from_millis(10),
            },
            ..SweepSpec::default()
        }
    }

    /// `sweep` plus a `+replan` twin of its second level, whose clean traces run
    /// that level's scenarios.
    fn with_replan_twin(mut sweep: SweepSpec) -> SweepSpec {
        let replan = sweep.levels[1]
            .clone()
            .with_recovery(RecoveryPolicy::Replan);
        sweep.levels.push(replan);
        sweep
    }

    #[test]
    fn the_first_eight_derived_seeds_are_pinned() {
        // splitmix64 over base seed 42; independent of everything but the index.
        // Captured from the reference splitmix64 (Steele et al.) — if these move,
        // every committed sweep's failure traces silently change.
        let sweep = SweepSpec {
            base_seed: 42,
            ..SweepSpec::default()
        };
        let expected: [u64; 8] = [
            0xbdd732262feb6e95,
            0x28efe333b266f103,
            0x47526757130f9f52,
            0x581ce1ff0e4ae394,
            0x09bc585a244823f2,
            0xde4431fa3c80db06,
            0x37e9671c45376d5d,
            0xccf635ee9e9e2fa4,
        ];
        for (idx, &want) in expected.iter().enumerate() {
            assert_eq!(sweep.seed_for(idx), want, "seed {idx}");
        }
    }

    #[test]
    fn grid_coordinates_round_trip() {
        let sweep = tiny_sweep(3);
        assert_eq!(sweep.num_variants(), 6);
        for idx in 0..sweep.num_variants() {
            let (level, placement, trace) = sweep.coords(idx);
            assert_eq!(
                idx,
                (level * sweep.placements.len() + placement) * 3 + trace
            );
        }
        // Level-major: the second level starts after all of level 0's traces.
        assert_eq!(sweep.coords(3), (1, 0, 0));
    }

    #[test]
    fn clean_traces_carry_no_injections_and_faulted_traces_do() {
        let service = tiny_service();
        let sweep = tiny_sweep(2);
        assert!(service.variant_spec(&sweep, 0).injections.is_empty());
        let faulted = service.variant_spec(&sweep, 1);
        assert!(!faulted.injections.is_empty());
        // Down/up events pair up.
        let downs = injected_outages(&faulted.injections);
        let ups = faulted
            .injections
            .iter()
            .filter(|(_, e)| matches!(e, ScenarioEvent::RailUp(_)))
            .count();
        assert_eq!(downs, ups);
        assert!(downs >= 1);
    }

    #[test]
    fn template_cache_builds_once_and_shares() {
        let service = tiny_service();
        let mut builds = 0;
        let first = service.dag_template("counted", || {
            builds += 1;
            let model = ModelConfig::tiny_test();
            let parallel = ParallelismConfig::paper_llama3_8b();
            let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
            DagBuilder::new(model, parallel, compute).build()
        });
        let second = service.dag_template("counted", || unreachable!("cached"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(builds, 1);
        assert_eq!(service.template_keys(), vec!["counted", "tiny"]);
    }

    #[test]
    fn sequential_and_pooled_sweeps_serialize_identically() {
        let service = tiny_service();
        let mut sweep = tiny_sweep(2);
        let sequential = service.evaluate(&sweep);
        sweep.workers = 4;
        let pooled = service.evaluate(&sweep);
        assert_eq!(
            serde_json::to_string_pretty(&sequential.variants).unwrap(),
            serde_json::to_string_pretty(&pooled.variants).unwrap(),
            "worker count changed the ordered variant results"
        );
    }

    #[test]
    fn streaming_sink_sees_every_variant_exactly_once() {
        let service = tiny_service();
        let mut sweep = with_replan_twin(tiny_sweep(2));
        sweep.workers = 3;
        let mut order = Vec::new();
        let report = service.evaluate_streaming(&sweep, |v| order.push(v.variant));
        // The twin's clean variant 4 takes variant 2's run and follows it.
        let twin = order.iter().position(|&v| v == 4).unwrap();
        assert_eq!(order[twin - 1], 2);
        let mut seen = order;
        seen.sort_unstable();
        assert_eq!(seen, (0..sweep.num_variants()).collect::<Vec<_>>());
        // The report itself is in grid order regardless of completion order.
        for (idx, v) in report.variants.iter().enumerate() {
            assert_eq!(v.variant, idx);
        }
    }

    #[test]
    fn a_second_placement_cell_doubles_the_grid_and_shifts_the_job() {
        // A 5-node cluster leaves one spare node so the 16-rank job fits at a
        // non-zero offset; the sweep evaluates every level under both cells.
        let service = tiny_service_on(NodePreset::PerlmutterA100, 5);
        let mut sweep = tiny_sweep(2);
        sweep.placements = vec![JobPlacement::Auto, JobPlacement::AtGpu(4)];
        assert_eq!(sweep.num_variants(), 2 * 2 * 2);
        let report = service.evaluate(&sweep);
        assert_eq!(report.variants.len(), 8);
        for v in &report.variants {
            let (level, placement, trace) = sweep.coords(v.variant);
            assert_eq!((v.level, v.placement, v.trace), (level, placement, trace));
            assert!(v.job_end > SimTime::ZERO);
        }
        // The node-aligned shift relocates the job onto the same rails one node
        // over, so its *clean* runtime matches the packed cell exactly (rails are
        // uniform); faulted traces draw per-variant seeds and may differ.
        for level in 0..sweep.levels.len() {
            let base = 2 * 2 * level;
            assert_eq!(
                report.variants[base].job_end,
                report.variants[base + 2].job_end,
                "level {level}: node-aligned placement cell diverged on the clean trace"
            );
        }
    }

    #[test]
    fn faulted_traces_cost_availability_and_the_frontier_flags_pareto_rows() {
        let service = tiny_service();
        let mut sweep = tiny_sweep(3);
        // Give the levels a monotone cost axis so Pareto has something to rank.
        sweep.levels[0].capex_usd = 100.0;
        sweep.levels[1].capex_usd = 60.0;
        let report = service.evaluate(&sweep);
        for level in &report.frontier.levels {
            assert!(level.availability > 0.0 && level.availability <= 1.0 + 1e-9);
            assert!(level.makespan.p50 <= level.makespan.p99);
        }
        assert!(report.frontier.pareto_points() >= 1);
        // Availability is anchored to the sweep's best clean runtime, so in a
        // clean-only sweep the fastest level scores exactly 1.0 and slower
        // fabrics pay their circuit-wait penalty in the metric.
        let clean = service.evaluate(&tiny_sweep(1));
        let best = clean
            .frontier
            .levels
            .iter()
            .map(|l| l.availability)
            .fold(f64::MIN, f64::max);
        assert!((best - 1.0).abs() < f64::EPSILON);
        for level in &clean.frontier.levels {
            assert!(level.availability > 0.0 && level.availability <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn the_frontier_ranks_replan_above_stall_under_failures() {
        // Two otherwise-identical provisioned levels, one stalling and one
        // re-planning, under the same failure model: the replan twin must buy
        // availability (it trains through outages instead of waiting them out) at
        // identical cost, so it Pareto-dominates its stall sibling. The twins do not
        // share failure traces: a trace's seed comes from the flat variant index.
        let service = tiny_service();
        let base = ProvisioningLevel::bare(
            "piezo-25ms",
            ReconfigPolicy::Provisioned,
            SimDuration::from_millis(25),
        );
        let sweep = SweepSpec {
            template: "tiny".to_string(),
            traces_per_level: 4,
            levels: vec![
                base.clone(),
                base.clone().with_recovery(RecoveryPolicy::Replan),
            ],
            failures: FailureModel {
                max_outages: 2,
                window: SimDuration::from_millis(60),
                min_outage: SimDuration::from_millis(5),
                max_outage: SimDuration::from_millis(30),
            },
            ..SweepSpec::default()
        };
        let report = service.evaluate(&sweep);
        let stall = &report.frontier.levels[0];
        let replan = &report.frontier.levels[1];
        assert_eq!(replan.label, "piezo-25ms+replan");
        assert_eq!(replan.recovery, RecoveryPolicy::Replan);
        assert!(
            replan.availability > stall.availability,
            "replan must score higher availability under the failure model: \
             {:.6} vs {:.6}",
            replan.availability,
            stall.availability
        );
        assert!(replan.pareto, "equal cost + higher availability is Pareto");
    }

    #[test]
    #[should_panic(expected = "re-plans around failed rails on a cluster with 72 rails")]
    fn a_replan_twin_the_build_rejects_still_runs_and_panics() {
        // On 72 rails the build rejects an optical replan job, so the clean twin
        // cannot take its stall level's run: it runs, and its panic reaches the
        // caller.
        let service = tiny_service_on(NodePreset::Gb200Nvl72, 1);
        service.evaluate(&with_replan_twin(tiny_sweep(1)));
    }

    #[test]
    fn variant_results_depend_only_on_their_seed() {
        // Re-running each variant in isolation reproduces the sweep's row exactly,
        // twins included: 3 levels x 2 placements x 2 traces, of which the replan
        // twin's two clean variants take their stall level's runs.
        let service = tiny_service_on(NodePreset::PerlmutterA100, 5);
        let mut sweep = with_replan_twin(tiny_sweep(2));
        sweep.placements = vec![JobPlacement::Auto, JobPlacement::AtGpu(4)];
        sweep.workers = 2;
        let report = service.evaluate(&sweep);
        assert_eq!(report.scenarios_run, 10);
        for (idx, row) in report.variants.iter().enumerate() {
            let solo = FleetService::run_variant(&sweep, idx, service.variant_spec(&sweep, idx));
            assert_eq!(
                serde_json::to_string(&solo).unwrap(),
                serde_json::to_string(row).unwrap(),
                "variant {idx}"
            );
        }
    }
}
