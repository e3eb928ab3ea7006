//! Result types produced by the Opus simulator.

use railsim_collectives::{CollectiveKind, GroupId, ParallelismAxis};
use railsim_sim::{Bytes, SimDuration, SimTime};
use railsim_topology::{RailId, RailSet};
use railsim_workload::{LabelId, TaskId};
use serde::{Deserialize, Serialize};

/// One communication operation as it actually executed in the simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommRecord {
    /// The DAG task this record corresponds to.
    pub task: TaskId,
    /// The task's interned label handle (copying it is free; it serializes as the
    /// resolved string, exactly like the owned `String` it replaced).
    pub label: LabelId,
    /// The parallelism axis that issued the communication.
    pub axis: ParallelismAxis,
    /// The collective kind (Send/Recv for point-to-point).
    pub kind: CollectiveKind,
    /// The communication group (None for point-to-point transfers).
    pub group: Option<GroupId>,
    /// Logical buffer size.
    pub bytes: Bytes,
    /// True when the operation used the scale-out (rail) network.
    pub scaleout: bool,
    /// The rails the operation used (empty for scale-up traffic). A compact
    /// bitmask set — it iterates ascending and serializes exactly like the
    /// sorted `Vec<RailId>` it replaced.
    pub rails: RailSet,
    /// When all participating ranks had issued the operation (the paper's
    /// `T_comm_start` before any circuit wait).
    pub issued_at: SimTime,
    /// When the data transfer actually began (after any circuit wait).
    pub start: SimTime,
    /// When the transfer completed.
    pub end: SimTime,
    /// Time spent waiting for circuits to be (re)configured.
    pub circuit_wait: SimDuration,
}

impl CommRecord {
    /// Transfer duration excluding the circuit wait.
    pub fn transfer_time(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }

    /// The label, resolved from the symbol table.
    pub fn label_str(&self) -> &'static str {
        self.label.as_str()
    }
}

/// One OCS reconfiguration performed by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconfigEvent {
    /// The rail whose OCS was reconfigured.
    pub rail: RailId,
    /// The communication group the new circuits serve.
    pub group: GroupId,
    /// When the (possibly speculative) request was issued.
    pub requested_at: SimTime,
    /// When the switch actually began reconfiguring (after conflict avoidance).
    pub started_at: SimTime,
    /// When the new circuits became usable.
    pub ready_at: SimTime,
    /// Number of circuits installed.
    pub circuits_installed: usize,
}

impl ReconfigEvent {
    /// How long the reconfiguration took end to end, including any wait for ongoing
    /// traffic to drain.
    pub fn total_latency(&self) -> SimDuration {
        self.ready_at.duration_since(self.requested_at)
    }
}

/// The outcome of simulating one training iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationResult {
    /// Iteration index (0 is the profiling iteration).
    pub iteration: u32,
    /// Wall-clock duration of the iteration.
    pub iteration_time: SimDuration,
    /// When the iteration started (absolute simulation time).
    pub started_at: SimTime,
    /// Every communication operation, ordered by issue time (the task id breaks
    /// ties); a fast-forwarded iteration copies its template's order. Empty for a
    /// run made with
    /// [`ScenarioSpec::run_without_records`](crate::ScenarioSpec::run_without_records).
    pub comm_records: Vec<CommRecord>,
    /// Every OCS reconfiguration performed during the iteration.
    pub reconfig_events: Vec<ReconfigEvent>,
    /// Total time communication operations spent waiting for circuits.
    pub total_circuit_wait: SimDuration,
}

impl IterationResult {
    /// Number of reconfigurations.
    pub fn reconfig_count(&self) -> usize {
        self.reconfig_events.len()
    }

    /// Total bytes moved over the scale-out network.
    pub fn scaleout_bytes(&self) -> Bytes {
        self.comm_records
            .iter()
            .filter(|r| r.scaleout)
            .map(|r| r.bytes)
            .sum()
    }

    /// The communication records that used a specific rail.
    pub fn records_on_rail(&self, rail: RailId) -> Vec<&CommRecord> {
        self.comm_records
            .iter()
            .filter(|r| r.rails.contains(rail))
            .collect()
    }
}

/// The outcome of a multi-iteration simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimulationResult {
    /// Per-iteration results, in order.
    pub iterations: Vec<IterationResult>,
}

impl SimulationResult {
    /// The steady-state iteration time: the mean over all iterations after the first
    /// (profiling) one, or the first iteration if only one was simulated.
    pub fn steady_state_iteration_time(&self) -> SimDuration {
        let steady: Vec<&IterationResult> = if self.iterations.len() > 1 {
            self.iterations.iter().skip(1).collect()
        } else {
            self.iterations.iter().collect()
        };
        let total: f64 = steady.iter().map(|i| i.iteration_time.as_secs_f64()).sum();
        SimDuration::from_secs_f64(total / steady.len().max(1) as f64)
    }

    /// Iteration time of this run normalized against a baseline run (Fig. 8's y-axis).
    pub fn normalized_against(&self, baseline: &SimulationResult) -> f64 {
        self.steady_state_iteration_time().as_secs_f64()
            / baseline.steady_state_iteration_time().as_secs_f64()
    }

    /// Total reconfigurations across all iterations.
    pub fn total_reconfigs(&self) -> usize {
        self.iterations.iter().map(|i| i.reconfig_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(start_ms: u64, end_ms: u64, wait_ms: u64) -> CommRecord {
        CommRecord {
            task: TaskId(0),
            label: LabelId::intern("test"),
            axis: ParallelismAxis::Data,
            kind: CollectiveKind::AllGather,
            group: Some(GroupId(0)),
            bytes: Bytes::from_mb(100),
            scaleout: true,
            rails: RailSet::from_iter([RailId(0)]),
            issued_at: SimTime::from_millis(start_ms - wait_ms.min(start_ms)),
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            circuit_wait: SimDuration::from_millis(wait_ms),
        }
    }

    fn iteration(time_ms: u64, records: Vec<CommRecord>) -> IterationResult {
        IterationResult {
            iteration: 0,
            iteration_time: SimDuration::from_millis(time_ms),
            started_at: SimTime::ZERO,
            comm_records: records,
            reconfig_events: vec![],
            total_circuit_wait: SimDuration::ZERO,
        }
    }

    #[test]
    fn record_transfer_time() {
        let r = record(10, 30, 5);
        assert_eq!(r.transfer_time(), SimDuration::from_millis(20));
    }

    #[test]
    fn rail_filter() {
        let it = iteration(100, vec![record(0, 10, 0), record(20, 30, 0)]);
        assert_eq!(it.records_on_rail(RailId(0)).len(), 2);
        assert_eq!(it.records_on_rail(RailId(1)).len(), 0);
        assert_eq!(it.scaleout_bytes(), Bytes::from_mb(200));
    }

    #[test]
    fn steady_state_skips_the_profiling_iteration() {
        let run = SimulationResult {
            iterations: vec![
                iteration(200, vec![]),
                iteration(100, vec![]),
                iteration(110, vec![]),
            ],
        };
        let t = run.steady_state_iteration_time();
        assert!((t.as_millis_f64() - 105.0).abs() < 1e-6);
    }

    #[test]
    fn single_iteration_runs_use_it_directly() {
        let run = SimulationResult {
            iterations: vec![iteration(250, vec![])],
        };
        assert_eq!(
            run.steady_state_iteration_time(),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn normalization() {
        let fast = SimulationResult {
            iterations: vec![iteration(100, vec![]), iteration(100, vec![])],
        };
        let slow = SimulationResult {
            iterations: vec![iteration(100, vec![]), iteration(150, vec![])],
        };
        assert!((slow.normalized_against(&fast) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn reconfig_event_latency() {
        let ev = ReconfigEvent {
            rail: RailId(0),
            group: GroupId(1),
            requested_at: SimTime::from_millis(10),
            started_at: SimTime::from_millis(15),
            ready_at: SimTime::from_millis(40),
            circuits_installed: 2,
        };
        assert_eq!(ev.total_latency(), SimDuration::from_millis(30));
    }
}
