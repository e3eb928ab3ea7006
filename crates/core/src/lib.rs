//! # Opus — parallelism-driven reconfiguration for photonic rail fabrics
//!
//! This crate is the reference implementation of the control plane proposed in
//! *Photonic Rails in ML Datacenters* (HotNets 2025), plus the discrete-event
//! simulator used to evaluate it. Rail-optimized fabrics built from optical circuit
//! switches only offer one-to-one connectivity at a time; Opus restores the *illusion*
//! of fully connected rails by reconfiguring each rail's circuits between the
//! parallelism phases of a training job, hiding the switching delay inside the
//! milliseconds-long windows that naturally separate those phases.
//!
//! ## Components (Fig. 6 of the paper)
//!
//! * The shim — sits between the application and the collective library and
//!   intercepts collective calls. Its first-iteration profile reduces, in the
//!   simulator, to one flag per job: did iteration 0 issue a transfer over the
//!   rails? Provisioning starts only after such a profiling iteration.
//! * [`CircuitPlanner`] and each job's circuit pool — the controller's circuit
//!   lookup table: every communication group (from the DAG's group table) is planned
//!   once into the rails it needs and the circuits that realize its ring.
//! * [`OpusController`] — receives (possibly speculative) reconfiguration requests,
//!   avoids conflicts with ongoing traffic (FC-FS over the job's sequentially ordered
//!   demands), programs the per-rail OCSes and acknowledges when circuits settle.
//! * [`ScenarioSpec`] — the simulation entry point: places one or more jobs, each a
//!   [`railsim_workload::TrainingDag`] under the electrical baseline, on-demand
//!   optical or provisioned optical policy, on a shared cluster, injects external
//!   events (rail failures/recoveries, OCS degradation, late job arrivals) and
//!   reports per-job metrics plus fleet-level rail counters. A one-job spec produces
//!   the timings behind Fig. 3, Fig. 4 and Fig. 8.
//! * [`window`] — the inter-parallelism window analysis of §3.1 / Fig. 4.
//!
//! ## Quick start
//!
//! ```
//! use opus::{OpusConfig, ScenarioSpec};
//! use railsim_sim::SimDuration;
//! use railsim_topology::{ClusterSpec, NodePreset};
//! use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
//!
//! // The paper's §3.1 workload: Llama3-8B, TP=4, FSDP=2, PP=2 on 4 Perlmutter nodes.
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let model = ModelConfig::tiny_test(); // use `llama3_8b()` for the real thing
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//!
//! // Photonic rails with a 25 ms piezo OCS and provisioning, 2 iterations, driven
//! // through the scenario entry point (see [`scenario`] for fault injection and
//! // multi-job placement).
//! let config = OpusConfig {
//!     iterations: 2,
//!     ..OpusConfig::provisioned(SimDuration::from_millis(25))
//! };
//! let result = ScenarioSpec::new(cluster).job(dag, config).run();
//! assert!(
//!     result.jobs[0].result.steady_state_iteration_time() > SimDuration::ZERO
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuits;
pub mod config;
pub mod controller;
pub mod fleet;
pub mod metrics;
pub mod scenario;
pub mod serving;
mod splitmix;
pub mod window;

pub use circuits::{CircuitPlanner, GroupCircuits};
pub use config::{EvictionPolicy, HostOffload, OpusConfig, ReconfigPolicy, RecoveryPolicy};
pub use controller::OpusController;
pub use fleet::{
    FailureModel, FleetService, Frontier, LevelSummary, Percentiles, ProvisioningLevel,
    SweepReport, SweepSpec, VariantResult,
};
pub use metrics::{
    CommLog, CommRecord, IterationResult, ReconfigEvent, Shift, Shifted, SimulationResult,
};
pub use scenario::{
    FleetMetrics, JobPlacement, JobResult, JobSpec, ScenarioEvent, ScenarioResult, ScenarioSpec,
};
pub use serving::{ArrivalProcess, ServingSpec};
pub use window::{
    default_traffic_buckets_mb, phases_on_rail, window_cdf, windows_by_following_traffic,
    windows_on_rail, Phase, Window,
};
