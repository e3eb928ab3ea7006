//! Result types produced by the Opus simulator.

use railsim_collectives::{CollectiveKind, GroupId, ParallelismAxis};
use railsim_sim::{Bytes, SimDuration, SimTime};
use railsim_topology::{RailId, RailSet};
use railsim_workload::{LabelId, TaskId, TaskKind, TrainingDag};
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

/// A value stored once per iteration and read back, with its simulation times moved
/// later, by every iteration that replays it (see [`Shifted`]).
pub trait Shift {
    /// What every value of one stored sequence is read with: nothing for a value that
    /// holds all it reads as.
    type Context;
    /// What a stored value reads as.
    type Output;
    /// The value `self` stands for, read with `context` and moved `by` later.
    fn read(&self, context: &Self::Context, by: SimDuration) -> Self::Output;
}

impl Shift for ReconfigEvent {
    type Context = ();
    type Output = ReconfigEvent;

    fn read(&self, _: &(), by: SimDuration) -> ReconfigEvent {
        ReconfigEvent {
            requested_at: self.requested_at + by,
            started_at: self.started_at + by,
            ready_at: self.ready_at + by,
            ..*self
        }
    }
}

/// What a run decided about one communication task: the fields of its
/// [`CommRecord`] that the task's DAG does not declare. The label, axis, kind, group
/// and bytes are read from the DAG, and the circuit wait follows from the times (see
/// [`CommLog`]), so a row takes 40 bytes where a record takes 72.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommRow {
    /// The DAG task.
    pub(crate) task: TaskId,
    /// [`CommRecord::scaleout`].
    pub(crate) scaleout: bool,
    /// [`CommRecord::rails`].
    pub(crate) rails: RailSet,
    /// [`CommRecord::issued_at`].
    pub(crate) issued_at: SimTime,
    /// [`CommRecord::start`], after the datapath latency.
    pub(crate) start: SimTime,
    /// [`CommRecord::end`].
    pub(crate) end: SimTime,
}

impl Shift for CommRow {
    /// The job's DAG, and the datapath latency each of its scale-out transfers paid
    /// on top of its circuit wait.
    type Context = (Arc<TrainingDag>, SimDuration);
    type Output = CommRecord;

    // Inlinable into other crates, so a reader that keeps a few fields (the window
    // extractors) drops the lookups and stores of the rest: a 4-rail window pass
    // measured about 2.5x faster with it.
    #[inline]
    fn read(&self, (dag, datapath_latency): &Self::Context, by: SimDuration) -> CommRecord {
        let (axis, kind, group, bytes) = match *dag.kind(self.task) {
            TaskKind::Collective {
                group,
                kind,
                axis,
                bytes,
            } => (axis, kind, Some(group), bytes),
            TaskKind::PointToPoint { axis, bytes, .. } => {
                (axis, CollectiveKind::SendRecv, None, bytes)
            }
            TaskKind::Compute { .. } => unreachable!("a communication row names a compute task"),
        };
        let datapath = if self.scaleout {
            *datapath_latency
        } else {
            SimDuration::ZERO
        };
        CommRecord {
            task: self.task,
            label: dag.label(self.task),
            axis,
            kind,
            group,
            bytes,
            scaleout: self.scaleout,
            rails: self.rails,
            issued_at: self.issued_at + by,
            start: self.start + by,
            end: self.end + by,
            circuit_wait: self.start.duration_since(self.issued_at) - datapath,
        }
    }
}

/// One iteration's stored values and what they are read with.
struct Stored<T: Shift> {
    context: T::Context,
    items: Vec<T>,
}

/// One iteration's values: shared storage plus a time shift.
///
/// A stepped iteration wraps the values it produced, unshifted. A fast-forwarded
/// iteration replays its template, so it shares the template's storage and only
/// adds the offset between the two iterations' starts; emitting it costs O(1)
/// whatever the iteration's size. Every read — [`iter`](Shifted::iter), equality,
/// `Debug`, serialization — sees the values as they [read](Shift::read), shifted, so
/// a shared sequence is indistinguishable from an owned `Vec` of them and serializes
/// to the same bytes. An empty sequence made with [`Default`] holds no storage.
#[derive(Clone)]
pub struct Shifted<T: Shift> {
    stored: Option<Arc<Stored<T>>>,
    shift: SimDuration,
}

impl<T: Shift> Shifted<T> {
    /// `items`, unshifted, each read with `context`.
    pub(crate) fn new(context: T::Context, items: Vec<T>) -> Self {
        Shifted {
            stored: Some(Arc::new(Stored { context, items })),
            shift: SimDuration::ZERO,
        }
    }

    /// The stored values (none when the sequence holds no storage).
    fn items(&self) -> &[T] {
        self.stored.as_deref().map_or(&[], |s| &s.items)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.items().len()
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    /// The values in order, each read and shifted.
    pub fn iter(&self) -> ShiftedIter<'_, T> {
        ShiftedIter {
            items: self.items().iter(),
            context: self.stored.as_deref().map(|s| &s.context),
            shift: self.shift,
        }
    }

    /// The same values moved `by` later, sharing this sequence's storage.
    pub fn shifted(&self, by: SimDuration) -> Self {
        Shifted {
            stored: self.stored.clone(),
            shift: self.shift + by,
        }
    }

    /// True when both sequences read the same storage, or both hold none.
    #[cfg(test)]
    pub(crate) fn shares_storage_with(&self, other: &Self) -> bool {
        match (&self.stored, &other.stored) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// The capacity of the stored values (0 when the sequence holds no storage).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.stored.as_deref().map_or(0, |s| s.items.capacity())
    }
}

impl<T: Shift> Default for Shifted<T> {
    /// An empty sequence holding no storage.
    fn default() -> Self {
        Shifted {
            stored: None,
            shift: SimDuration::ZERO,
        }
    }
}

impl<T: Shift<Context = ()>> From<Vec<T>> for Shifted<T> {
    /// Wraps `items` unshifted, without copying them.
    fn from(items: Vec<T>) -> Self {
        Shifted::new((), items)
    }
}

impl<T: Shift> PartialEq for Shifted<T>
where
    T::Output: PartialEq,
{
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: Shift> fmt::Debug for Shifted<T>
where
    T::Output: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Shift> Serialize for Shifted<T>
where
    T::Output: Serialize,
{
    /// The sequence of values read, exactly as a `Vec` of them serializes.
    fn to_value(&self) -> serde::Value {
        serde::Value::Seq(self.iter().map(|v| v.to_value()).collect())
    }
}

impl<'a, T: Shift> IntoIterator for &'a Shifted<T> {
    type Item = T::Output;
    type IntoIter = ShiftedIter<'a, T>;

    fn into_iter(self) -> ShiftedIter<'a, T> {
        self.iter()
    }
}

/// The iterator of [`Shifted::iter`]: reads each stored value, shifted.
pub struct ShiftedIter<'a, T: Shift> {
    items: std::slice::Iter<'a, T>,
    /// `None` only for a sequence without storage, whose `items` is empty.
    context: Option<&'a T::Context>,
    shift: SimDuration,
}

impl<T: Shift> Iterator for ShiftedIter<'_, T> {
    type Item = T::Output;

    fn next(&mut self) -> Option<T::Output> {
        let item = self.items.next()?;
        Some(item.read(self.context?, self.shift))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.items.size_hint()
    }
}

impl<T: Shift> ExactSizeIterator for ShiftedIter<'_, T> {}

/// One iteration's communication records, stored as the rows the run decided plus
/// the job's DAG, and read back as [`CommRecord`]s.
///
/// A row keeps the task id, the scale-out flag, the rails and the issue, start and
/// end times. The task's label, axis, collective kind, group and bytes are read from
/// the DAG when a record is read, and its circuit wait is
/// `start − issued_at − datapath latency`, where the datapath latency is the
/// electrical switch's on an electrical job's scale-out transfers and zero
/// otherwise.
///
/// A fast-forwarded iteration shares its template's rows and DAG, shifted (see
/// [`Shifted`]). An empty log, such as every log of a run that keeps no records,
/// holds no rows and no DAG.
pub type CommLog = Shifted<CommRow>;

impl CommLog {
    /// The records that used `rail`, in order. Rows of other rails are skipped
    /// before they are read, so a per-rail pass costs a record read only for the
    /// rail's own transfers.
    pub fn on_rail(&self, rail: RailId) -> impl Iterator<Item = CommRecord> + '_ {
        let ShiftedIter {
            items,
            context,
            shift,
        } = self.iter();
        items
            .filter(move |row| row.rails.contains(rail))
            .filter_map(move |row| Some(row.read(context?, shift)))
    }

    /// The DAG the log reads its records from (`None` when it holds no rows).
    #[cfg(test)]
    pub(crate) fn dag(&self) -> Option<&Arc<TrainingDag>> {
        self.stored.as_deref().map(|s| &s.context.0)
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
    /// ties). Stored as compact rows that read what the DAG declares from the job's
    /// DAG (see [`CommLog`]); a fast-forwarded iteration shares its template's rows,
    /// shifted to its own start, instead of copying them. Empty, and holding no DAG,
    /// for a run made with
    /// [`ScenarioSpec::run_without_records`](crate::ScenarioSpec::run_without_records).
    pub comm_records: CommLog,
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

    /// The communication records that used a specific rail, in order (see
    /// [`CommLog::on_rail`]).
    pub fn records_on_rail(&self, rail: RailId) -> impl Iterator<Item = CommRecord> + '_ {
        self.comm_records.on_rail(rail)
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
    use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};

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

    fn iteration(time_ms: u64) -> IterationResult {
        IterationResult {
            iteration: 0,
            iteration_time: SimDuration::from_millis(time_ms),
            started_at: SimTime::ZERO,
            comm_records: CommLog::default(),
            reconfig_events: Vec::new().into(),
            total_circuit_wait: SimDuration::ZERO,
        }
    }

    fn tiny_dag() -> Arc<TrainingDag> {
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        Arc::new(DagBuilder::new(model, parallel, compute).build())
    }

    /// The first collective and the first point-to-point task of `dag`.
    fn comm_tasks(dag: &TrainingDag) -> (TaskId, TaskId) {
        let first = |p2p: bool| {
            let i = dag
                .kinds()
                .iter()
                .position(|k| match k {
                    TaskKind::Collective { .. } => !p2p,
                    TaskKind::PointToPoint { .. } => p2p,
                    TaskKind::Compute { .. } => false,
                })
                .expect("the tiny DAG has both kinds of communication");
            TaskId(i as u32)
        };
        (first(false), first(true))
    }

    /// A row of `task` issued at `issue_ms` that started `wait_ms` later plus
    /// `datapath`, on rail 0 when it is a scale-out transfer.
    fn row(task: TaskId, scaleout: bool, issue_ms: u64, wait_ms: u64, datapath: u64) -> CommRow {
        let issued_at = SimTime::from_millis(issue_ms);
        let start =
            issued_at + SimDuration::from_millis(wait_ms) + SimDuration::from_micros(datapath);
        CommRow {
            task,
            scaleout,
            rails: if scaleout {
                RailSet::from_iter([RailId(0)])
            } else {
                RailSet::EMPTY
            },
            issued_at,
            start,
            end: start + SimDuration::from_millis(10),
        }
    }

    #[test]
    fn a_row_takes_at_most_40_bytes() {
        assert!(std::mem::size_of::<CommRow>() <= 40);
        assert!(std::mem::size_of::<CommLog>() <= 16);
    }

    #[test]
    fn record_transfer_time() {
        let r = record(10, 30, 5);
        assert_eq!(r.transfer_time(), SimDuration::from_millis(20));
    }

    #[test]
    fn a_log_reads_what_the_dag_declares_and_derives_the_wait() {
        let dag = tiny_dag();
        let (collective, p2p) = comm_tasks(&dag);
        let latency = SimDuration::from_micros(1);
        let log = CommLog::new(
            (Arc::clone(&dag), latency),
            vec![
                row(collective, true, 0, 5, 1),
                row(p2p, true, 20, 0, 1),
                row(p2p, false, 40, 0, 0),
            ],
        );
        let records: Vec<CommRecord> = log.iter().collect();
        assert_eq!(records.len(), 3);
        let TaskKind::Collective {
            group,
            kind,
            axis,
            bytes,
        } = *dag.kind(collective)
        else {
            unreachable!()
        };
        let r = &records[0];
        assert_eq!((r.task, r.label), (collective, dag.label(collective)));
        assert_eq!(
            (r.axis, r.kind, r.group, r.bytes),
            (axis, kind, Some(group), bytes)
        );
        assert_eq!(r.circuit_wait, SimDuration::from_millis(5));
        assert_eq!(r.start, r.issued_at + r.circuit_wait + latency);
        let TaskKind::PointToPoint { axis, bytes, .. } = *dag.kind(p2p) else {
            unreachable!()
        };
        for r in &records[1..] {
            assert_eq!(
                (r.axis, r.kind, r.group, r.bytes),
                (axis, CollectiveKind::SendRecv, None, bytes)
            );
            assert_eq!(r.circuit_wait, SimDuration::ZERO, "{r:?}");
        }
        assert!(records[1].scaleout && !records[2].scaleout);
        assert_eq!(records[2].rails, RailSet::EMPTY);
        assert_eq!(log.len(), 3);
        assert_eq!((&log).into_iter().len(), 3);
    }

    #[test]
    fn a_shared_shifted_log_reads_like_the_owned_shifted_records() {
        let dag = tiny_dag();
        let (collective, p2p) = comm_tasks(&dag);
        let by = SimDuration::from_millis(7);
        let log = CommLog::new(
            (Arc::clone(&dag), SimDuration::ZERO),
            vec![row(collective, true, 10, 3, 0), row(p2p, false, 20, 0, 0)],
        );
        let shared = log.shifted(by);
        let owned: Vec<CommRecord> = log
            .iter()
            .map(|r| CommRecord {
                issued_at: r.issued_at + by,
                start: r.start + by,
                end: r.end + by,
                ..r
            })
            .collect();
        assert_eq!(shared.iter().collect::<Vec<_>>(), owned);
        assert!(shared.shares_storage_with(&log));
        assert!(Arc::ptr_eq(shared.dag().unwrap(), &dag));
        assert_eq!(
            shared,
            log.shifted(SimDuration::from_millis(3))
                .shifted(SimDuration::from_millis(4))
        );
        assert_ne!(shared, log);
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(
            serde_json::to_string_pretty(&shared).unwrap(),
            serde_json::to_string_pretty(&owned).unwrap()
        );
        let empty = CommLog::default();
        assert!(empty.is_empty() && empty.shifted(by).is_empty());
        assert!(empty.dag().is_none());
        assert_eq!(empty, CommLog::new((dag, SimDuration::ZERO), Vec::new()));
        assert_eq!(serde_json::to_string(&empty).unwrap(), "[]");
    }

    #[test]
    fn rail_filter() {
        let dag = tiny_dag();
        let (collective, p2p) = comm_tasks(&dag);
        let mut it = iteration(100);
        it.comm_records = CommLog::new(
            (Arc::clone(&dag), SimDuration::ZERO),
            vec![
                row(collective, true, 0, 0, 0),
                row(p2p, false, 10, 0, 0),
                row(p2p, true, 20, 0, 0),
            ],
        );
        assert_eq!(it.records_on_rail(RailId(0)).count(), 2);
        assert_eq!(it.records_on_rail(RailId(1)).count(), 0);
        // The row filter reads exactly the records a filter over every record keeps,
        // shifted like them.
        let moved = it.comm_records.shifted(SimDuration::from_millis(9));
        assert_eq!(
            moved.on_rail(RailId(0)).collect::<Vec<_>>(),
            moved
                .iter()
                .filter(|r| r.rails.contains(RailId(0)))
                .collect::<Vec<_>>()
        );
        assert_eq!(CommLog::default().on_rail(RailId(0)).count(), 0);
        let bytes = |id| match *dag.kind(id) {
            TaskKind::Collective { bytes, .. } | TaskKind::PointToPoint { bytes, .. } => bytes,
            TaskKind::Compute { .. } => unreachable!(),
        };
        assert_eq!(
            it.scaleout_bytes(),
            bytes(collective).saturating_add(bytes(p2p))
        );
    }

    #[test]
    fn steady_state_skips_the_profiling_iteration() {
        let run = SimulationResult {
            iterations: vec![iteration(200), iteration(100), iteration(110)],
        };
        let t = run.steady_state_iteration_time();
        assert!((t.as_millis_f64() - 105.0).abs() < 1e-6);
    }

    #[test]
    fn single_iteration_runs_use_it_directly() {
        let run = SimulationResult {
            iterations: vec![iteration(250)],
        };
        assert_eq!(
            run.steady_state_iteration_time(),
            SimDuration::from_millis(250)
        );
    }

    #[test]
    fn normalization() {
        let fast = SimulationResult {
            iterations: vec![iteration(100), iteration(100)],
        };
        let slow = SimulationResult {
            iterations: vec![iteration(100), iteration(150)],
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
        let events = vec![event(10), event(50)];
        let shared = Shifted::from(events.clone()).shifted(by);
        let owned: Vec<ReconfigEvent> = events.iter().map(|e| e.read(&(), by)).collect();
        assert_eq!(owned[1].started_at, SimTime::from_millis(62));
        assert_eq!(shared.len(), 2);
        assert!(!shared.is_empty());
        assert_eq!(shared.iter().collect::<Vec<_>>(), owned);
        assert_eq!((&shared).into_iter().len(), 2);
        assert_eq!(shared, Shifted::from(owned.clone()));
        assert_ne!(shared, Shifted::from(events));
        assert_eq!(format!("{shared:?}"), format!("{owned:?}"));
        assert_eq!(
            serde_json::to_string_pretty(&shared).unwrap(),
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
