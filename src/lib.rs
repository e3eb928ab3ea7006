//! # photonic-rails — a reproduction of *Photonic Rails in ML Datacenters* (HotNets 2025)
//!
//! Rail-optimized fabrics are the de-facto scale-out network for large ML training
//! jobs, but the high-radix electrical packet switches they are built from dominate
//! the network's cost and power. The paper proposes **photonic rails**: keep the rail
//! abstraction, but build each rail from an optical circuit switch and use the **Opus**
//! control plane to reconfigure circuits *between the parallelism phases of the job*,
//! hiding the switching delay inside the milliseconds-long idle windows that naturally
//! separate those phases.
//!
//! This crate is the umbrella of the workspace; it re-exports the individual crates so
//! downstream users can depend on a single package:
//!
//! | module | crate | what it contains |
//! |--------|-------|------------------|
//! | [`sim`] | `railsim-sim` | deterministic discrete-event engine, time/units, statistics |
//! | [`topology`] | `railsim-topology` | clusters, rails, optical circuit switches, fat-trees |
//! | [`collectives`] | `railsim-collectives` | communication groups, collective algorithms, α–β cost models |
//! | [`workload`] | `railsim-workload` | model/parallelism configs, the 1F1B pipeline schedule, training DAGs |
//! | [`opus`] | `opus` | the Opus controller and circuit planner, the scenario driver (the simulator's entry point) and fleet sweep service, window analysis |
//! | [`cost`] | `railsim-cost` | fabric cost/power models and the OCS technology table |
//!
//! ## Quick start
//!
//! ```
//! use photonic_rails::prelude::*;
//!
//! // Build the paper's testbed: 4 Perlmutter nodes, Llama3-8B, TP=4 / FSDP=2 / PP=2.
//! let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
//! let model = ModelConfig::tiny_test(); // swap in ModelConfig::llama3_8b() for the real shape
//! let parallel = ParallelismConfig::paper_llama3_8b();
//! let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
//! let dag = DagBuilder::new(model, parallel, compute).build();
//!
//! // Simulate photonic rails with a 25 ms piezo OCS and provisioning. `ScenarioSpec`
//! // is the entry point: one or more jobs on a shared cluster, plus an injected
//! // event timeline (rail failures/recoveries, OCS degradation, late job arrivals).
//! let config = OpusConfig {
//!     iterations: 2,
//!     ..OpusConfig::provisioned(SimDuration::from_millis(25))
//! };
//! let result = ScenarioSpec::new(cluster)
//!     .job(dag, config)
//!     .inject(SimTime::from_millis(5), ScenarioEvent::RailDown(RailId(0)))
//!     .inject(SimTime::from_millis(80), ScenarioEvent::RailUp(RailId(0)))
//!     .run();
//! println!(
//!     "steady-state iteration: {}",
//!     result.job(JobId(0)).result.steady_state_iteration_time()
//! );
//! println!("rail 0 outages: {}", result.fleet.rail_failures[0]);
//! ```
//!
//! The `examples/` directory contains runnable end-to-end scenarios and the
//! `railsim-bench` crate regenerates every table and figure of the paper (see
//! "Regenerating the paper's figures and tables" in README.md, and EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use opus;
pub use railsim_collectives as collectives;
pub use railsim_cost as cost;
pub use railsim_sim as sim;
pub use railsim_topology as topology;
pub use railsim_workload as workload;

/// The most commonly used types, re-exported for convenient glob imports.
pub mod prelude {
    pub use opus::{
        window_cdf, windows_on_rail, ArrivalProcess, EvictionPolicy, FailureModel, FleetService,
        Frontier, JobPlacement, JobSpec, LevelSummary, OpusConfig, OpusController, Percentiles,
        ProvisioningLevel, ReconfigPolicy, RecoveryPolicy, ScenarioEvent, ScenarioResult,
        ScenarioSpec, ServingSpec, SimulationResult, SweepReport, SweepSpec, VariantResult,
    };
    pub use railsim_collectives::{Algorithm, CollectiveKind, CommGroup, GroupId, ParallelismAxis};
    pub use railsim_cost::{FabricKind, GpuBackendCostModel};
    pub use railsim_sim::{Bandwidth, Bytes, SimDuration, SimTime};
    pub use railsim_topology::{Cluster, ClusterSpec, GpuId, NicConfig, NodePreset, RailId};
    pub use railsim_workload::{
        ComputeModel, DagBuilder, DataParallelKind, GpuSpec, InferenceConfig, InferenceDagBuilder,
        JobId, ModelConfig, ParallelismConfig, TrainingDag,
    };
}

/// The README's `rust` code blocks, compiled and run as doc-tests so the quickstarts
/// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
