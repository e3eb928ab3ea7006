//! Result types produced by the Opus simulator.

use railsim_collectives::{CollectiveKind, GroupId, ParallelismAxis};
use railsim_sim::{Bytes, SimDuration, SimTime};
use railsim_topology::{RailId, RailSet};
use railsim_workload::{LabelId, TaskId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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

/// A value stamped with simulation times, which a replayed iteration moves later.
pub trait Shift {
    /// A copy of `self` with every timestamp moved `by` later.
    fn shifted(&self, by: SimDuration) -> Self;
}

impl Shift for CommRecord {
    fn shifted(&self, by: SimDuration) -> Self {
        CommRecord {
            issued_at: self.issued_at + by,
            start: self.start + by,
            end: self.end + by,
            ..self.clone()
        }
    }
}

impl Shift for ReconfigEvent {
    fn shifted(&self, by: SimDuration) -> Self {
        ReconfigEvent {
            requested_at: self.requested_at + by,
            started_at: self.started_at + by,
            ready_at: self.ready_at + by,
            ..*self
        }
    }
}

/// One iteration's records or reconfiguration events: shared storage plus a time
/// shift.
///
/// A stepped iteration wraps the values it produced, unshifted. A fast-forwarded
/// iteration replays its template, so it shares the template's storage and only
/// adds the offset between the two iterations' starts; emitting it costs O(1)
/// whatever the iteration's size. Every read — [`iter`](Shifted::iter), equality,
/// `Debug`, serialization — sees the shifted values, so a shared sequence is
/// indistinguishable from an owned `Vec` of them and serializes to the same bytes.
#[derive(Clone)]
pub struct Shifted<T> {
    items: Arc<Vec<T>>,
    shift: SimDuration,
}

impl<T> Shifted<T> {
    /// Number of values.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The same values moved `by` later, sharing this sequence's storage.
    pub fn shifted(&self, by: SimDuration) -> Self {
        Shifted {
            items: Arc::clone(&self.items),
            shift: self.shift + by,
        }
    }

    /// The stored values before the shift, and the shift. For readers whose output
    /// moves with its input's timestamps, which can work on the shared values and
    /// shift the result.
    pub(crate) fn parts(&self) -> (&[T], SimDuration) {
        (&self.items, self.shift)
    }

    /// True when both sequences read the same storage.
    #[cfg(test)]
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.items, &other.items)
    }

    /// The capacity of the shared storage.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.items.capacity()
    }
}

impl<T: Shift> Shifted<T> {
    /// The values in order, each shifted.
    pub fn iter(&self) -> ShiftedIter<'_, T> {
        ShiftedIter {
            items: self.items.iter(),
            shift: self.shift,
        }
    }
}

impl<T> From<Vec<T>> for Shifted<T> {
    /// Wraps `items` unshifted, without copying them.
    fn from(items: Vec<T>) -> Self {
        Shifted {
            items: Arc::new(items),
            shift: SimDuration::ZERO,
        }
    }
}

impl<T: Shift + PartialEq> PartialEq for Shifted<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Shift + fmt::Debug> fmt::Debug for Shifted<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Shift + Serialize> Serialize for Shifted<T> {
    /// The sequence of shifted values, exactly as a `Vec` of them serializes.
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|v| v.to_value()).collect())
    }
}

impl<'a, T: Shift> IntoIterator for &'a Shifted<T> {
    type Item = T;
    type IntoIter = ShiftedIter<'a, T>;

    fn into_iter(self) -> ShiftedIter<'a, T> {
        self.iter()
    }
}

/// The iterator of [`Shifted::iter`]: yields each stored value, shifted.
pub struct ShiftedIter<'a, T> {
    items: std::slice::Iter<'a, T>,
    shift: SimDuration,
}

impl<T: Shift> Iterator for ShiftedIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.items.next().map(|v| v.shifted(self.shift))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.items.size_hint()
    }
}

impl<T: Shift> ExactSizeIterator for ShiftedIter<'_, T> {}

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
    /// ties). A fast-forwarded iteration shares its template's records, shifted to
    /// its own start, instead of copying them. Empty for a run made with
    /// [`ScenarioSpec::run_without_records`](crate::ScenarioSpec::run_without_records).
    pub comm_records: Shifted<CommRecord>,
    /// Every OCS reconfiguration performed during the iteration. A fast-forwarded
    /// iteration shares its template's events, shifted, like its records.
    pub reconfig_events: Shifted<ReconfigEvent>,
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

    /// The communication records that used a specific rail, in order.
    pub fn records_on_rail(&self, rail: RailId) -> impl Iterator<Item = CommRecord> + '_ {
        self.comm_records
            .iter()
            .filter(move |r| r.rails.contains(rail))
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
            comm_records: records.into(),
            reconfig_events: Vec::new().into(),
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
        assert_eq!(it.records_on_rail(RailId(0)).count(), 2);
        assert_eq!(it.records_on_rail(RailId(1)).count(), 0);
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

    fn event(requested_ms: u64) -> ReconfigEvent {
        ReconfigEvent {
            rail: RailId(0),
            group: GroupId(1),
            requested_at: SimTime::from_millis(requested_ms),
            started_at: SimTime::from_millis(requested_ms + 5),
            ready_at: SimTime::from_millis(requested_ms + 30),
            circuits_installed: 2,
        }
    }

    #[test]
    fn a_shared_shifted_sequence_reads_like_the_owned_shifted_values() {
        let by = SimDuration::from_millis(7);
        let records = vec![record(10, 30, 5), record(20, 40, 0)];
        let shared = Shifted::from(records.clone()).shifted(by);
        let owned: Vec<CommRecord> = records.iter().map(|r| r.shifted(by)).collect();
        assert_eq!(shared.len(), 2);
        assert!(!shared.is_empty());
        assert_eq!(shared.iter().collect::<Vec<_>>(), owned);
        assert_eq!((&shared).into_iter().len(), 2);
        assert_eq!(shared, Shifted::from(owned.clone()));
        assert_ne!(shared, Shifted::from(records));
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(
            serde_json::to_string_pretty(&shared).unwrap(),
            serde_json::to_string_pretty(&owned).unwrap()
        );

        let events = Shifted::from(vec![event(10), event(50)]);
        let owned: Vec<ReconfigEvent> = events.iter().map(|e| e.shifted(by)).collect();
        assert_eq!(owned[1].started_at, SimTime::from_millis(62));
        assert_eq!(
            serde_json::to_string_pretty(&events.shifted(by)).unwrap(),
            serde_json::to_string_pretty(&owned).unwrap()
        );
        let empty = Shifted::<ReconfigEvent>::from(Vec::new());
        assert!(empty.shifted(by).is_empty());
        assert_eq!(serde_json::to_string(&empty).unwrap(), "[]");
    }

    #[test]
    fn shifts_compose_and_share_storage() {
        let (a, b) = (SimDuration::from_millis(3), SimDuration::from_millis(11));
        let base = Shifted::from(vec![event(0), event(40)]);
        let twice = base.shifted(a).shifted(b);
        assert_eq!(twice, base.shifted(a + b));
        assert!(twice.shares_storage_with(&base));
        assert_eq!(
            twice.iter().map(|e| e.ready_at).collect::<Vec<_>>(),
            [SimTime::from_millis(44), SimTime::from_millis(84)]
        );
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
