//! The end-to-end training-iteration simulator (single-job compatibility wrapper).
//!
//! [`OpusSimulator`] executes a [`TrainingDag`] over a concrete cluster under one of
//! three network policies (electrical baseline, optical on-demand, optical with
//! provisioning) and reports per-iteration timings, communication records and
//! reconfiguration events. It is the engine behind Fig. 3 (per-rail communication
//! timelines), Fig. 4 (window statistics) and Fig. 8 (iteration time vs.
//! reconfiguration latency).
//!
//! Since the scenario-driver redesign, `OpusSimulator` is a thin wrapper over
//! [`Scenario`](crate::Scenario) with exactly one job, a clean timeline and the
//! classic accessors — the entire execution engine lives in
//! [`scenario`](crate::scenario), and a single-job scenario is defined (and pinned by
//! the determinism and golden suites) to produce byte-identical serialized metrics to
//! the pre-redesign simulator.
//!
//! ## How a communication task executes
//!
//! 1. The task becomes *group-ready* when every participant's prerequisites are done
//!    (the paper's `T_comm_start` — the slowest rank has joined).
//! 2. Its circuit demand is looked up in the [`GroupTable`]. Scale-up traffic (TP) and
//!    the electrical baseline skip straight to the transfer.
//! 3. On photonic rails the shim asks the controller for the group's circuits. If the
//!    demand matrix did not change the request is free; otherwise the controller waits
//!    for conflicting traffic to drain, reconfigures the OCS, and the transfer starts
//!    once the circuits settle. With provisioning the request is back-dated to the
//!    moment the affected circuits went idle, hiding the switching delay inside the
//!    inter-parallelism window.
//! 4. The transfer's duration comes from the α–β collective cost model; its ports are
//!    marked busy until it completes.

use crate::config::{OpusConfig, ReconfigPolicy};
use crate::controller::OpusController;
use crate::group_table::GroupTable;
use crate::metrics::SimulationResult;
use crate::scenario::{Records, Scenario, ScenarioSim};
use crate::shim::OpusShim;
use railsim_sim::SimDuration;
use railsim_topology::Cluster;
use railsim_workload::TrainingDag;

/// The end-to-end single-job simulator: one job, no injected events.
///
/// Equivalent to `Scenario::new(cluster).job(dag, config)` followed by extracting the
/// only job's [`SimulationResult`]; kept as a first-class type because every figure
/// binary, test suite and example drives exactly this shape.
pub struct OpusSimulator {
    sim: ScenarioSim,
}

impl OpusSimulator {
    /// Creates a simulator for one DAG on one cluster under one configuration.
    ///
    /// # Panics
    /// Panics if the DAG is invalid or references ranks outside the cluster.
    pub fn new(cluster: Cluster, dag: TrainingDag, config: OpusConfig) -> Self {
        OpusSimulator {
            sim: ScenarioSim::build(
                Scenario::new(cluster).job(dag, config).into_spec(),
                Records::Keep,
            ),
        }
    }

    /// The group table (communication groups and their planned circuits).
    pub fn group_table(&self) -> &GroupTable {
        self.sim.job_group_table(0)
    }

    /// The shim (and its profile, once at least one iteration has run).
    pub fn shim(&self) -> &OpusShim {
        self.sim.job_shim(0)
    }

    /// The controller, when running an optical policy.
    pub fn controller(&self) -> Option<&OpusController> {
        self.sim.controller()
    }

    /// Runs the configured number of iterations and returns all results.
    pub fn run(&mut self) -> SimulationResult {
        self.sim.run_scenario();
        self.sim.take_job_result(0)
    }

    /// Number of iterations the last [`run`](OpusSimulator::run) fast-forwarded from
    /// the steady-state memo instead of re-stepping (0 before running, with
    /// memoization disabled, or when the run never reached steady state). Replayed
    /// iterations are byte-identical to naive stepping; this counter is the only
    /// observable difference.
    pub fn memoized_iterations(&self) -> u64 {
        self.sim.job_memoized_iterations(0)
    }
}

/// Convenience: runs the same (cluster, DAG) under a list of configurations and
/// returns their results in order. Used by the Fig. 8 sweep.
pub fn run_policies(
    cluster: &Cluster,
    dag: &TrainingDag,
    configs: &[OpusConfig],
) -> Vec<SimulationResult> {
    configs
        .iter()
        .map(|cfg| OpusSimulator::new(cluster.clone(), dag.clone(), *cfg).run())
        .collect()
}

/// Builds the baseline (electrical) configuration matching `config` in every respect
/// except the network policy. Useful for normalizing Fig. 8 curves.
pub fn baseline_of(config: &OpusConfig) -> OpusConfig {
    OpusConfig {
        policy: ReconfigPolicy::Electrical,
        reconfig_latency: SimDuration::ZERO,
        ..*config
    }
}

#[cfg(test)]
mod tests {
    #![allow(deprecated)] // the dense `with_*` chains migrate to field style over time

    use super::*;
    use railsim_collectives::ParallelismAxis;
    use railsim_sim::SimDuration;
    use railsim_topology::{ClusterSpec, GpuId, NodePreset};
    use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

    fn paper_setup() -> (Cluster, TrainingDag) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        (cluster, dag)
    }

    fn tiny_setup() -> (Cluster, TrainingDag) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        (cluster, dag)
    }

    #[test]
    fn electrical_baseline_runs_to_completion() {
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(cluster, dag, OpusConfig::electrical().with_iterations(1));
        let result = sim.run();
        assert_eq!(result.iterations.len(), 1);
        let it = &result.iterations[0];
        assert!(it.iteration_time > SimDuration::ZERO);
        assert!(!it.comm_records.is_empty());
        assert_eq!(it.reconfig_count(), 0, "electrical rails never reconfigure");
        assert_eq!(it.total_circuit_wait, SimDuration::ZERO);
    }

    #[test]
    fn optical_zero_latency_matches_electrical_baseline_closely() {
        let (cluster, dag) = tiny_setup();
        let baseline = OpusSimulator::new(
            cluster.clone(),
            dag.clone(),
            OpusConfig::electrical()
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
        let optical = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::on_demand(SimDuration::ZERO)
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
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
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::on_demand(SimDuration::from_millis(1)).with_iterations(1),
        );
        let result = sim.run();
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
        let (cluster, dag) = tiny_setup();
        let mut prev = SimDuration::ZERO;
        for ms in [0u64, 10, 100, 1000] {
            let result = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig::on_demand(SimDuration::from_millis(ms))
                    .with_iterations(2)
                    .with_jitter(0.0, 1),
            )
            .run();
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
        let (cluster, dag) = tiny_setup();
        for ms in [1u64, 25, 100, 500] {
            let on_demand = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig::on_demand(SimDuration::from_millis(ms))
                    .with_iterations(3)
                    .with_jitter(0.0, 1),
            )
            .run();
            let provisioned = OpusSimulator::new(
                cluster.clone(),
                dag.clone(),
                OpusConfig::provisioned(SimDuration::from_millis(ms))
                    .with_iterations(3)
                    .with_jitter(0.0, 1),
            )
            .run();
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
        let (cluster, dag) = paper_setup();
        let baseline = OpusSimulator::new(
            cluster.clone(),
            dag.clone(),
            OpusConfig::electrical()
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
        let provisioned = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::provisioned(SimDuration::from_millis(25))
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
        let ratio = provisioned.normalized_against(&baseline);
        assert!(
            ratio < 1.10,
            "a 25 ms piezo-class switch with provisioning should cost well under 10 %, got {ratio}"
        );
    }

    #[test]
    fn tp_traffic_never_touches_the_rails() {
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::on_demand(SimDuration::from_millis(1)).with_iterations(1),
        );
        let result = sim.run();
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
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::on_demand(SimDuration::from_millis(1)).with_iterations(1),
        );
        let result = sim.run();
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
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::provisioned(SimDuration::from_millis(5)).with_iterations(2),
        );
        let _ = sim.run();
        assert!(sim.shim().can_provision());
        assert!(sim.shim().profile().shift_count(GpuId(0)) > 0);
    }

    #[test]
    fn host_offload_reduces_reconfigurations_without_slowing_the_iteration() {
        use crate::config::HostOffload;
        let (cluster, dag) = tiny_setup();
        let latency = SimDuration::from_millis(100);
        let plain = OpusSimulator::new(
            cluster.clone(),
            dag.clone(),
            OpusConfig::provisioned(latency)
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
        let offloaded = OpusSimulator::new(
            cluster,
            dag,
            OpusConfig::provisioned(latency)
                .with_host_offload(HostOffload::frontend_100g())
                .with_iterations(2)
                .with_jitter(0.0, 1),
        )
        .run();
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
        let (cluster, dag) = tiny_setup();
        let mut sim = OpusSimulator::new(cluster, dag, OpusConfig::electrical().with_iterations(3));
        let result = sim.run();
        assert_eq!(result.iterations.len(), 3);
        for w in result.iterations.windows(2) {
            assert!(w[1].started_at > w[0].started_at);
        }
    }

    #[test]
    fn memoized_runs_report_their_fast_forwards_and_match_the_naive_path() {
        let (cluster, dag) = tiny_setup();
        let base = OpusConfig::provisioned(SimDuration::from_millis(25))
            .with_iterations(12)
            .with_jitter(0.0, 1);
        let mut memoized = OpusSimulator::new(cluster.clone(), dag.clone(), base);
        let memo_result = memoized.run();
        let mut naive = OpusSimulator::new(cluster, dag, base.with_memoization(false));
        let naive_result = naive.run();
        assert_eq!(naive.memoized_iterations(), 0);
        assert!(
            memoized.memoized_iterations() >= 8,
            "a 12-iteration jitter-free run must fast-forward most of its tail, \
             fast-forwarded {}",
            memoized.memoized_iterations()
        );
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
