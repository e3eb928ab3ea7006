//! The training-iteration execution DAG.
//!
//! A [`TrainingDag`] is the static description of everything one training iteration
//! does: per-rank compute tasks, collectives, and point-to-point transfers, connected
//! by the data dependencies of the model's execution graph (Fig. 2 of the paper). The
//! Opus simulator executes this DAG over a concrete cluster and fabric; the window
//! analysis of Fig. 3/4 and the reconfiguration-latency sweep of Fig. 8 all consume the
//! same structure.
//!
//! The builder follows the paper's §3.1 workload semantics:
//!
//! * the 1F1B pipeline schedule orders forward/backward passes per stage,
//! * FSDP AllGathers parameters per layer during the first forward micro-batch
//!   (and, honouring PyTorch's lazy DTensor behaviour, a non-zero stage's first
//!   AllGather waits for the activation from the previous stage),
//! * FSDP ReduceScatters gradients per layer once the last backward micro-batch has
//!   produced them,
//! * TP collectives run inside every layer of every micro-batch (they stay in the
//!   scale-up domain under the rail mapping),
//! * pipeline Send/Recv moves activations (forward) and activation gradients
//!   (backward) between adjacent stages,
//! * a short synchronization epilogue (grad-norm / loss AllReduces) precedes the
//!   optimizer step.
//!
//! ## Layout
//!
//! The DAG is stored by column, not by task: one dense vector each for the step
//! classes, operands, interned labels, pooled participant sets and compact
//! micro-batch/layer indices, plus each task's prerequisites in CSR form. A task's
//! [`TaskKind`] is stored in six bytes: a 2-byte class into the DAG's table of
//! distinct [`Step`]s and a 4-byte operand naming the collective's group or the
//! point-to-point pair; [`TrainingDag::kind`] puts the two back together. Builders
//! append tasks and `(task, dep)` edges to `TaskColumns`, which interns each task's
//! step as it is pushed and whose `finish` turns the edge log into that CSR with one
//! stable counting pass, once per DAG. [`Task`] is a borrowed row view that
//! serializes exactly like the row-major task it replaced.
//!
//! A simulator steps the DAG in execution order, through its [`ExecLayout`]: the
//! tasks in FIFO-Kahn order, and by position each task's dependents (as positions),
//! prerequisite count and 2-byte [`Step`] class. Task ids run stage → rank →
//! micro-batch, so the tasks that become ready together — one (micro-batch, layer)
//! slice across every rank of a stage — lie one cache line apart per rank; in the
//! layout they sit side by side. The layout is built on the first
//! [`TrainingDag::validate`] and shared by every clone and rebase, so a fleet of
//! variants builds it once, and a run reads it straight through the job's
//! `Arc<TrainingDag>`.

use crate::compute::ComputeModel;
use crate::intern::{LabelId, RankSet};
use crate::model::ModelConfig;
use crate::parallelism::{DataParallelKind, ParallelismConfig};
use crate::pipeline;
use crate::rank_map::RankMapping;
use crate::sizes::TrafficSizes;
use railsim_collectives::{CollectiveKind, CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{Bytes, SimDuration};
use railsim_topology::GpuId;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, OnceLock};

/// Identifier of a job in a multi-job scenario.
///
/// A [`TrainingDag`] describes *one* job's iteration; scenario drivers that multiplex
/// several jobs over one shared fabric tag every job-scoped piece of state (contexts,
/// metrics, circuit ownership) with the job's id. Ids are dense: job `i` of a scenario
/// is `JobId(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl JobId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// Identifier of a task within a [`TrainingDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

/// What a task does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Local GPU computation of a fixed duration.
    Compute {
        /// How long the computation runs.
        duration: SimDuration,
    },
    /// A collective over a communication group.
    Collective {
        /// The group performing the collective.
        group: GroupId,
        /// The collective operation.
        kind: CollectiveKind,
        /// The parallelism axis that issued it.
        axis: ParallelismAxis,
        /// Logical buffer size (see [`railsim_collectives::cost`] conventions).
        bytes: Bytes,
    },
    /// A point-to-point transfer between two ranks.
    PointToPoint {
        /// Sending rank.
        src: GpuId,
        /// Receiving rank.
        dst: GpuId,
        /// The parallelism axis that issued it (pipeline in practice).
        axis: ParallelismAxis,
        /// Message size.
        bytes: Bytes,
    },
}

impl TaskKind {
    /// True for communication tasks (collective or point-to-point).
    pub fn is_communication(&self) -> bool {
        !matches!(self, TaskKind::Compute { .. })
    }

    /// The parallelism axis of a communication task.
    pub fn axis(&self) -> Option<ParallelismAxis> {
        match self {
            TaskKind::Compute { .. } => None,
            TaskKind::Collective { axis, .. } => Some(*axis),
            TaskKind::PointToPoint { axis, .. } => Some(*axis),
        }
    }

    /// The bytes moved by a communication task.
    pub fn bytes(&self) -> Bytes {
        match self {
            TaskKind::Compute { .. } => Bytes::ZERO,
            TaskKind::Collective { bytes, .. } => *bytes,
            TaskKind::PointToPoint { bytes, .. } => *bytes,
        }
    }
}

/// One node of the execution DAG: a row view over the [`TrainingDag`] columns.
///
/// Serializes exactly like the row-major task it replaced (same field names and
/// order, the label as its string, the participants and dependencies as sequences).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task<'a> {
    /// Unique id (the task's position in the DAG).
    pub id: TaskId,
    /// What the task does.
    pub kind: TaskKind,
    /// The ranks that take part (one rank for compute, the group for collectives,
    /// `[src, dst]` for point-to-point transfers), pooled so that every task sharing
    /// a participant set shares one copy.
    pub participants: RankSet,
    /// Tasks that must complete before this one can start, in declaration order.
    pub deps: &'a [TaskId],
    /// Human-readable label ("fwd s0 mb0 L3", "FSDP-AG L3", ...), interned — see
    /// [`crate::intern`]. Serializes as the plain string it resolves to.
    pub label: LabelId,
    /// Micro-batch index, when applicable.
    pub microbatch: Option<u32>,
    /// Layer index, when applicable.
    pub layer: Option<u32>,
}

impl Task<'_> {
    /// The participating ranks, resolved from the pooled set.
    pub fn ranks(&self) -> &'static [GpuId] {
        self.participants.ranks()
    }

    /// The label, resolved from the symbol table.
    pub fn label_str(&self) -> &'static str {
        self.label.as_str()
    }
}

impl Serialize for Task<'_> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.to_value()),
            ("kind".to_string(), self.kind.to_value()),
            ("participants".to_string(), self.participants.to_value()),
            ("deps".to_string(), self.deps.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("microbatch".to_string(), self.microbatch.to_value()),
            ("layer".to_string(), self.layer.to_value()),
        ])
    }
}

/// Stored in the compact micro-batch / layer columns for "not applicable".
const NO_INDEX: u16 = u16::MAX;

fn compact_index(value: Option<u32>) -> u16 {
    match value {
        None => NO_INDEX,
        Some(v) => u16::try_from(v)
            .ok()
            .filter(|&c| c != NO_INDEX)
            .unwrap_or_else(|| panic!("micro-batch/layer index {v} exceeds the u16 column")),
    }
}

fn expand_index(value: u16) -> Option<u32> {
    (value != NO_INDEX).then_some(value as u32)
}

/// The columns a rebase leaves untouched, shared between a DAG and its rebased
/// copies: step classes, operands and pairs (which a DAG reads through its rank and
/// group offsets), labels, micro-batch/layer indices, the prerequisites CSR and the
/// execution layout.
#[derive(Debug)]
struct TaskGraph {
    /// Step class by task: an index into `steps`.
    classes: Vec<u16>,
    /// Every distinct step, in order of first use.
    steps: Vec<Step>,
    /// By task: a collective's group id, a point-to-point transfer's index into
    /// `pairs`, and 0 for compute.
    operands: Vec<u32>,
    /// Each point-to-point operand's `[src, dst]`.
    pairs: Vec<[GpuId; 2]>,
    labels: Vec<LabelId>,
    microbatch: Vec<u16>,
    layer: Vec<u16>,
    /// Task `i`'s prerequisites are `deps[dep_offsets[i]..dep_offsets[i + 1]]`.
    dep_offsets: Vec<u32>,
    deps: Vec<TaskId>,
    /// Built on first use by any DAG sharing the graph, so concurrent fleet workers
    /// and rebases build it once between them.
    layout: OnceLock<ExecLayout>,
}

fn csr_row<'a, T>(offsets: &[u32], edges: &'a [T], i: usize) -> &'a [T] {
    &edges[offsets[i] as usize..offsets[i + 1] as usize]
}

/// A task's position in its DAG's [`ExecLayout`]: the index into the layout's
/// columns and a run's per-task state. A type of its own, so a position cannot
/// index an id-ordered column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Position(pub u32);

impl Position {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What executing a task takes: its [`TaskKind`] with the communication group and
/// the endpoints cleared. Those are the only fields a rebase moves, so one step
/// table serves every DAG sharing a graph. A DAG stores each task's kind as an index
/// into that table plus the cleared operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Local GPU computation of a fixed duration.
    Compute(SimDuration),
    /// A collective over the task's communication group.
    Collective {
        /// The collective operation.
        kind: CollectiveKind,
        /// The parallelism axis that issued it.
        axis: ParallelismAxis,
        /// Logical buffer size.
        bytes: Bytes,
    },
    /// A point-to-point transfer between the task's two ranks.
    PointToPoint {
        /// The parallelism axis that issued it.
        axis: ParallelismAxis,
        /// Message size.
        bytes: Bytes,
    },
}

impl From<TaskKind> for Step {
    fn from(kind: TaskKind) -> Step {
        match kind {
            TaskKind::Compute { duration } => Step::Compute(duration),
            TaskKind::Collective {
                kind, axis, bytes, ..
            } => Step::Collective { kind, axis, bytes },
            TaskKind::PointToPoint { axis, bytes, .. } => Step::PointToPoint { axis, bytes },
        }
    }
}

/// A DAG's tasks in execution order, with what stepping reads per task stored by
/// [`Position`]: the dependents, the prerequisite count and the [`Step`] class.
///
/// The order comes from one FIFO Kahn pass seeded with the roots in task-id order,
/// so the roots sit at positions `0..roots()` in id order and every prerequisite
/// precedes its dependents. Each dependents row lists positions in ascending
/// task-id order. A simulator that schedules the roots by position and releases
/// each row in its stored order therefore issues the same events, in the same
/// order, as one that walks task ids. On a cyclic graph the tasks Kahn never
/// reached follow in id order, so the layout is a permutation either way.
#[derive(Debug)]
pub struct ExecLayout {
    /// Position -> task id.
    order: Vec<TaskId>,
    /// Prerequisite count by position.
    indegrees: Vec<u32>,
    /// Position `p`'s dependents are
    /// `dependents[dependent_offsets[p]..dependent_offsets[p + 1]]`.
    dependent_offsets: Vec<u32>,
    dependents: Vec<Position>,
    /// Step class by position: an index into `steps`, the graph's step table.
    classes: Vec<u16>,
    steps: Vec<Step>,
    /// How many tasks Kahn reached: all of them exactly when the graph is acyclic.
    reached: usize,
}

impl ExecLayout {
    /// Builds the layout from the prerequisites CSR and the step classes.
    fn build(graph: &TaskGraph) -> ExecLayout {
        let n = graph.classes.len();
        let indegree = |t: usize| graph.dep_offsets[t + 1] - graph.dep_offsets[t];

        // The dependents CSR in id space, for Kahn to walk: walking tasks in id
        // order lists each task's dependents ascending. Its entries stay task ids
        // until the same buffers are refilled by position below. Copying the rows
        // out to a second CSR instead freed a CSR-sized block, which raised the
        // 4k-GPU mixed-tenancy benchmark's peak RSS by about 5 MiB.
        let mut dependent_offsets = vec![0u32; n + 1];
        for d in &graph.deps {
            dependent_offsets[d.0 as usize + 1] += 1;
        }
        prefix_sum(&mut dependent_offsets);
        let mut cursor = dependent_offsets[..n].to_vec();
        let mut dependents = vec![Position(0); graph.deps.len()];
        for t in 0..n {
            for d in csr_row(&graph.dep_offsets, &graph.deps, t) {
                let c = &mut cursor[d.0 as usize];
                dependents[*c as usize] = Position(t as u32);
                *c += 1;
            }
        }

        // FIFO Kahn with `order` as the queue.
        let mut remaining = cursor;
        for (t, left) in remaining.iter_mut().enumerate() {
            *left = indegree(t);
        }
        let mut order: Vec<TaskId> = Vec::with_capacity(n);
        order.extend(
            (0..n as u32)
                .filter(|&t| remaining[t as usize] == 0)
                .map(TaskId),
        );
        let mut head = 0;
        while let Some(&id) = order.get(head) {
            head += 1;
            for &d in csr_row(&dependent_offsets, &dependents, id.0 as usize) {
                let left = &mut remaining[d.0 as usize];
                *left -= 1;
                if *left == 0 {
                    order.push(TaskId(d.0));
                }
            }
        }
        let reached = order.len();
        order.extend(
            (0..n as u32)
                .filter(|&t| remaining[t as usize] > 0)
                .map(TaskId),
        );

        // Indegrees and step classes by position, written in one pass over the ids.
        let mut position_of = remaining;
        for (p, id) in order.iter().enumerate() {
            position_of[id.0 as usize] = p as u32;
        }
        let mut indegrees = vec![0; n];
        let mut classes = vec![0; n];
        for (t, &class) in graph.classes.iter().enumerate() {
            let p = position_of[t] as usize;
            indegrees[p] = indegree(t);
            classes[p] = class;
        }

        // Refill the CSR by position: count each position's dependents, then place
        // every task, in descending id order, at the back of its prerequisites'
        // rows, so that each row lists its dependents in ascending task id.
        dependent_offsets.fill(0);
        for d in &graph.deps {
            dependent_offsets[position_of[d.0 as usize] as usize] += 1;
        }
        // Each position's offset is now its row's end, and the last one the edge
        // count; placing the entries moves every row's offset back to its start.
        prefix_sum(&mut dependent_offsets);
        for t in (0..n).rev() {
            let p = Position(position_of[t]);
            for d in csr_row(&graph.dep_offsets, &graph.deps, t) {
                let end = &mut dependent_offsets[position_of[d.0 as usize] as usize];
                *end -= 1;
                dependents[*end as usize] = p;
            }
        }
        ExecLayout {
            order,
            indegrees,
            dependent_offsets,
            dependents,
            classes,
            steps: graph.steps.clone(),
            reached,
        }
    }

    /// Every task id, by position.
    pub fn order(&self) -> &[TaskId] {
        &self.order
    }

    /// The task at a position.
    #[inline]
    pub fn task(&self, pos: Position) -> TaskId {
        self.order[pos.index()]
    }

    /// Every task's prerequisite count, by position.
    #[inline]
    pub fn indegrees(&self) -> &[u32] {
        &self.indegrees
    }

    /// How many roots there are: the tasks with no prerequisites, which sit at
    /// positions `0..roots()` in ascending task id.
    pub fn roots(&self) -> usize {
        self.indegrees.partition_point(|&d| d == 0)
    }

    /// The positions of the tasks that list the task at `pos` as a prerequisite, in
    /// ascending task id.
    #[inline]
    pub fn dependents(&self, pos: Position) -> &[Position] {
        csr_row(&self.dependent_offsets, &self.dependents, pos.index())
    }

    /// What executing the task at `pos` takes.
    #[inline]
    pub fn step(&self, pos: Position) -> Step {
        self.steps[self.classes[pos.index()] as usize]
    }
}

/// The execution DAG of one training iteration, stored by column (see the module
/// docs). Built by [`DagBuilder`] or [`crate::InferenceDagBuilder`].
#[derive(Debug, Clone)]
pub struct TrainingDag {
    participants: Vec<RankSet>,
    /// Added to every point-to-point endpoint: the rank shift of a rebase.
    gpu_offset: u32,
    /// Added to every collective operand: the group-id shift of a rebase.
    group_offset: u32,
    graph: Arc<TaskGraph>,
    /// One past the largest rank any task references.
    rank_end: u32,
    /// Every communication group referenced by the tasks.
    pub groups: BTreeMap<GroupId, CommGroup>,
    /// The parallelism configuration the DAG was built for.
    pub config: ParallelismConfig,
}

impl TrainingDag {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// The row view of one task.
    pub fn task(&self, id: TaskId) -> Task<'_> {
        let i = id.0 as usize;
        Task {
            id,
            kind: self.kind(id),
            participants: self.participants[i],
            deps: self.deps(id),
            label: self.graph.labels[i],
            microbatch: expand_index(self.graph.microbatch[i]),
            layer: expand_index(self.graph.layer[i]),
        }
    }

    /// Every task in id order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = Task<'_>> + '_ {
        (0..self.len() as u32).map(|i| self.task(TaskId(i)))
    }

    /// What a task does, rebuilt from its step class and operand.
    #[inline]
    pub fn kind(&self, id: TaskId) -> TaskKind {
        let i = id.0 as usize;
        let operand = self.graph.operands[i];
        match self.graph.steps[self.graph.classes[i] as usize] {
            Step::Compute(duration) => TaskKind::Compute { duration },
            Step::Collective { kind, axis, bytes } => TaskKind::Collective {
                group: GroupId(operand + self.group_offset),
                kind,
                axis,
                bytes,
            },
            Step::PointToPoint { axis, bytes } => {
                let [src, dst] = self.graph.pairs[operand as usize];
                TaskKind::PointToPoint {
                    src: GpuId(src.0 + self.gpu_offset),
                    dst: GpuId(dst.0 + self.gpu_offset),
                    axis,
                    bytes,
                }
            }
        }
    }

    /// A task's interned label.
    pub fn label(&self, id: TaskId) -> LabelId {
        self.graph.labels[id.0 as usize]
    }

    /// A task's pooled participant set.
    pub fn participants(&self, id: TaskId) -> RankSet {
        self.participants[id.0 as usize]
    }

    /// A task's prerequisites, in declaration order.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        csr_row(&self.graph.dep_offsets, &self.graph.deps, id.0 as usize)
    }

    /// Borrow a communication group.
    pub fn group(&self, id: GroupId) -> &CommGroup {
        &self.groups[&id]
    }

    /// All communication tasks.
    pub fn communication_tasks(&self) -> impl Iterator<Item = Task<'_>> {
        self.tasks().filter(|t| t.kind.is_communication())
    }

    /// All compute tasks.
    pub fn compute_tasks(&self) -> impl Iterator<Item = Task<'_>> {
        self.tasks().filter(|t| !t.kind.is_communication())
    }

    /// Total bytes moved by all communication tasks.
    pub fn total_communication_bytes(&self) -> Bytes {
        (0..self.len() as u32)
            .map(|i| self.kind(TaskId(i)).bytes())
            .sum()
    }

    /// The DAG's execution layout (see the module docs), built on first use and
    /// shared by every clone and rebase of this DAG.
    #[inline]
    pub fn layout(&self) -> &ExecLayout {
        self.graph
            .layout
            .get_or_init(|| ExecLayout::build(&self.graph))
    }

    /// A topological order of the tasks, or `None` if the DAG contains a cycle. It
    /// is the layout's FIFO-Kahn order: the roots in id order, then each task as the
    /// last of its prerequisites releases it.
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let layout = self.layout();
        (layout.reached == self.len()).then(|| layout.order.clone())
    }

    /// Validates structural invariants: participants are non-empty, collective groups
    /// exist, and the graph is acyclic. Acyclicity is read off the execution layout,
    /// which this builds on first use for the DAG and every clone and rebase sharing
    /// its graph.
    pub fn validate(&self) -> Result<(), String> {
        // Consecutive tasks mostly share a participant set and a group, so only
        // changes need resolving.
        let mut last_set = None;
        let mut last_group = None;
        for (i, &set) in self.participants.iter().enumerate() {
            let label = self.graph.labels[i];
            if last_set != Some(set) {
                if set.is_empty() {
                    return Err(format!("task {label} has no participants"));
                }
                last_set = Some(set);
            }
            if let TaskKind::Collective { group, .. } = self.kind(TaskId(i as u32)) {
                if last_group != Some(group) {
                    if !self.groups.contains_key(&group) {
                        return Err(format!("task {label} references unknown group {group}"));
                    }
                    last_group = Some(group);
                }
            }
        }
        let layout = self.layout();
        if layout.reached == self.len() {
            return Ok(());
        }
        // The tasks Kahn never reached trail the layout in id order. Report a few of
        // them to make the error actionable.
        let stuck = &layout.order[layout.reached..];
        let sample: Vec<String> = stuck
            .iter()
            .take(8)
            .map(|&id| {
                let blocking: Vec<String> = self
                    .deps(id)
                    .iter()
                    .filter(|d| stuck.binary_search(d).is_ok())
                    .map(|d| format!("{} ({})", d.0, self.label(*d)))
                    .collect();
                format!("#{} {} <- [{}]", id.0, self.label(id), blocking.join(", "))
            })
            .collect();
        Err(format!(
            "the task graph contains a cycle; sample of stuck tasks:\n  {}",
            sample.join("\n  ")
        ))
    }

    /// The largest rank referenced by any task (the job needs `max_rank() + 1` GPUs).
    pub fn max_rank(&self) -> u32 {
        self.rank_end.saturating_sub(1)
    }

    /// Rebases the DAG for placement in a multi-job scenario: every rank is shifted by
    /// `gpu_offset` (the job's first GPU in the shared cluster) and every group id by
    /// `group_id_offset` (so two jobs' groups never collide in shared controller
    /// state). Task ids, labels, dependencies and traffic are untouched — the copy
    /// shares the original's kind, label and dependency columns and reads its
    /// endpoints and group ids through the shifted offsets — so a rebased job
    /// simulates exactly like the original, just elsewhere in the cluster.
    ///
    /// `rebase(0, 0)` returns a plain clone — rank sets and group ids are already
    /// canonical, and scenario drivers rely on that for byte-identical single-job
    /// compatibility.
    pub fn rebase(&self, gpu_offset: u32, group_id_offset: u32) -> TrainingDag {
        if gpu_offset == 0 && group_id_offset == 0 {
            return self.clone();
        }
        let shift_gpu = |g: GpuId| GpuId(g.0 + gpu_offset);
        let shift_group = |g: GroupId| GroupId(g.0 + group_id_offset);
        // Few distinct participant sets, many tasks: shift each set once.
        let mut shifted: FastMap<RankSet, RankSet> = FastMap::default();
        let participants = self
            .participants
            .iter()
            .map(|set| {
                *shifted.entry(*set).or_insert_with(|| {
                    let ranks: Vec<GpuId> = set.ranks().iter().copied().map(shift_gpu).collect();
                    RankSet::intern(&ranks)
                })
            })
            .collect();
        let groups = self
            .groups
            .values()
            .map(|g| {
                let id = shift_group(g.id);
                let ranks = g.ranks.iter().copied().map(shift_gpu).collect();
                (id, CommGroup::new(id, g.axis, ranks))
            })
            .collect();
        TrainingDag {
            participants,
            gpu_offset: self.gpu_offset + gpu_offset,
            group_offset: self.group_offset + group_id_offset,
            graph: Arc::clone(&self.graph),
            rank_end: self.rank_end + gpu_offset,
            groups,
            config: self.config.clone(),
        }
    }

    /// The tasks a given rank participates in, in id order.
    pub fn tasks_of_rank(&self, rank: GpuId) -> Vec<Task<'_>> {
        self.tasks()
            .filter(|t| t.participants.contains(rank))
            .collect()
    }
}

impl Serialize for TrainingDag {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "tasks".to_string(),
                Value::Seq(self.tasks().map(|t| t.to_value()).collect()),
            ),
            ("groups".to_string(), self.groups.to_value()),
            ("config".to_string(), self.config.to_value()),
        ])
    }
}

impl<'de> Deserialize<'de> for TrainingDag {}

/// A multiplicative hasher for the builders' small integer keys (ids and interned
/// handles), which SipHash's DoS resistance only slows down.
#[derive(Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`IdHasher`].
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The distinct steps of one build, each interned once. Neighbouring tasks mostly
/// repeat one of a few steps, so four recently interned steps, replaced in turn, are
/// checked before the map: a 10k-GPU training build hashes once per distinct step.
/// (Keeping them in most-recently-used order instead cost more in rotations than the
/// lookups it saved.)
#[derive(Default)]
struct StepTable {
    steps: Vec<Step>,
    class_of: FastMap<Step, u16>,
    recent: [Option<(Step, u16)>; 4],
    /// The `recent` entry the next miss replaces.
    next: usize,
}

impl StepTable {
    fn intern(&mut self, step: Step) -> u16 {
        for &(s, class) in self.recent.iter().flatten() {
            if s == step {
                return class;
            }
        }
        let steps = &mut self.steps;
        let class = *self.class_of.entry(step).or_insert_with(|| {
            steps.push(step);
            u16::try_from(steps.len() - 1).expect("a DAG has at most 65536 distinct steps")
        });
        self.recent[self.next] = Some((step, class));
        self.next = (self.next + 1) % self.recent.len();
        class
    }
}

/// The column storage a builder appends tasks and dependency edges to;
/// [`finish`](Self::finish) turns it into a [`TrainingDag`].
#[derive(Default)]
pub(crate) struct TaskColumns {
    classes: Vec<u16>,
    operands: Vec<u32>,
    steps: StepTable,
    pairs: Vec<[GpuId; 2]>,
    /// Each pair's participant set, indexed like `pairs`.
    pair_sets: Vec<RankSet>,
    pair_of: FastMap<(u32, u32), u32>,
    participants: Vec<RankSet>,
    labels: Vec<LabelId>,
    microbatch: Vec<u16>,
    layer: Vec<u16>,
    /// `(task, dep)` in declaration order; duplicates are allowed and dropped later.
    edges: Vec<(u32, u32)>,
}

impl TaskColumns {
    /// Appends a compute or collective task over `participants`, depending on `deps`,
    /// and returns its id. A point-to-point transfer takes
    /// [`push_p2p`](Self::push_p2p).
    pub(crate) fn push(
        &mut self,
        kind: TaskKind,
        participants: RankSet,
        label: LabelId,
        microbatch: Option<u32>,
        layer: Option<u32>,
        deps: &[TaskId],
    ) -> TaskId {
        let operand = match kind {
            TaskKind::Compute { .. } => 0,
            TaskKind::Collective { group, .. } => group.0,
            TaskKind::PointToPoint { .. } => panic!("a transfer's participants are its pair's"),
        };
        self.append(kind, operand, participants, label, microbatch, layer, deps)
    }

    /// Appends the point-to-point transfer `kind`, depending on `deps`, and returns its
    /// id. Its pair, interned once, gives both its operand and its participants.
    pub(crate) fn push_p2p(
        &mut self,
        kind: TaskKind,
        label: LabelId,
        microbatch: Option<u32>,
        deps: &[TaskId],
    ) -> TaskId {
        let TaskKind::PointToPoint { src, dst, .. } = kind else {
            panic!("{kind:?} is not a point-to-point transfer");
        };
        let (operand, participants) = self.pair(src, dst);
        self.append(kind, operand, participants, label, microbatch, None, deps)
    }

    #[allow(clippy::too_many_arguments)]
    fn append(
        &mut self,
        kind: TaskKind,
        operand: u32,
        participants: RankSet,
        label: LabelId,
        microbatch: Option<u32>,
        layer: Option<u32>,
        deps: &[TaskId],
    ) -> TaskId {
        let id = TaskId(u32::try_from(self.classes.len()).expect("task count exceeds u32"));
        self.classes.push(self.steps.intern(Step::from(kind)));
        self.operands.push(operand);
        self.participants.push(participants);
        self.labels.push(label);
        self.microbatch.push(compact_index(microbatch));
        self.layer.push(compact_index(layer));
        for &dep in deps {
            self.add_dep(id, dep);
        }
        id
    }

    /// The operand and the participant set of the point-to-point pair `[src, dst]`,
    /// both interned once. A rank's micro-batches send over one pair in a row, so the
    /// newest pair is checked before the map.
    fn pair(&mut self, src: GpuId, dst: GpuId) -> (u32, RankSet) {
        let mut pair = self.pairs.len() as u32;
        if self.pairs.last() == Some(&[src, dst]) {
            pair -= 1;
        } else {
            pair = *self.pair_of.entry((src.0, dst.0)).or_insert(pair);
            if pair as usize == self.pairs.len() {
                self.pairs.push([src, dst]);
                self.pair_sets.push(RankSet::intern(&[src, dst]));
            }
        }
        (pair, self.pair_sets[pair as usize])
    }

    /// Declares one more prerequisite of an existing task.
    pub(crate) fn add_dep(&mut self, task: TaskId, dep: TaskId) {
        debug_assert!(task != dep, "a task cannot depend on itself");
        self.edges.push((task.0, dep.0));
    }

    /// Builds the prerequisites CSR and assembles the DAG. Each task keeps the first
    /// declaration of every prerequisite, in declaration order. The dependents are
    /// left to the execution layout, which the DAG builds on first use.
    pub(crate) fn finish(
        self,
        groups: BTreeMap<GroupId, CommGroup>,
        config: ParallelismConfig,
        rank_end: u32,
    ) -> TrainingDag {
        let TaskColumns {
            classes,
            operands,
            steps,
            pairs,
            pair_sets: _,
            pair_of: _,
            participants,
            labels,
            microbatch,
            layer,
            edges,
        } = self;
        let n = classes.len();

        // Forward CSR by a stable counting pass over the edge log.
        let mut dep_offsets = vec![0u32; n + 1];
        for &(task, _) in &edges {
            dep_offsets[task as usize + 1] += 1;
        }
        prefix_sum(&mut dep_offsets);
        let mut cursor = dep_offsets[..n].to_vec();
        let mut deps = vec![TaskId(0); edges.len()];
        for &(task, dep) in &edges {
            let c = &mut cursor[task as usize];
            deps[*c as usize] = TaskId(dep);
            *c += 1;
        }
        drop(edges);

        // Drop repeated prerequisites in place, keeping first occurrences: `seen[d]`
        // is the last task that kept `d`.
        let mut seen = cursor;
        seen.fill(u32::MAX);
        let mut kept = 0usize;
        let mut start = 0usize;
        for t in 0..n {
            let end = dep_offsets[t + 1] as usize;
            for i in start..end {
                let d = deps[i];
                if seen[d.0 as usize] != t as u32 {
                    seen[d.0 as usize] = t as u32;
                    deps[kept] = d;
                    kept += 1;
                }
            }
            start = end;
            dep_offsets[t + 1] = kept as u32;
        }
        deps.truncate(kept);
        deps.shrink_to_fit();

        TrainingDag {
            participants,
            gpu_offset: 0,
            group_offset: 0,
            graph: Arc::new(TaskGraph {
                classes,
                steps: steps.steps,
                operands,
                pairs,
                labels,
                microbatch,
                layer,
                dep_offsets,
                deps,
                layout: OnceLock::new(),
            }),
            rank_end,
            groups,
            config,
        }
    }
}

fn prefix_sum(counts: &mut [u32]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
}

/// Builds [`TrainingDag`]s from a model, a parallelism configuration and a compute model.
#[derive(Debug, Clone)]
pub struct DagBuilder {
    model: ModelConfig,
    parallel: ParallelismConfig,
    compute: ComputeModel,
    sizes: TrafficSizes,
}

/// Sentinel for "no task yet" in the builder's dense per-rank tables.
const NONE: u32 = u32::MAX;

/// The label families of the training builder. Every label of a family is a function
/// of `(micro-batch, column)`, where the column is the global layer, or the stage for
/// the pipeline hops.
#[derive(Clone, Copy)]
enum LabelOp {
    PpFwd,
    FsdpAg,
    CpAg,
    Fwd,
    EpA2a,
    Tp,
    PpBwd,
    Bwd,
    TpBwd,
    EpBwdA2a,
    FsdpRs,
    DpAr,
}

const LABEL_OPS: usize = LabelOp::DpAr as usize + 1;

/// The labels of one build, each rendered and interned on first use only: every
/// rank of a stage asks for the same labels.
struct LabelCache {
    ids: Vec<Option<LabelId>>,
    microbatches: usize,
    columns: usize,
}

impl LabelCache {
    fn new(microbatches: u32, columns: u32) -> Self {
        let (microbatches, columns) = (microbatches as usize, columns as usize);
        LabelCache {
            ids: vec![None; LABEL_OPS * microbatches * columns],
            microbatches,
            columns,
        }
    }

    fn get(
        &mut self,
        op: LabelOp,
        mb: u32,
        column: u32,
        render: impl FnOnce() -> String,
    ) -> LabelId {
        let i = (op as usize * self.microbatches + mb as usize) * self.columns + column as usize;
        *self.ids[i].get_or_insert_with(|| LabelId::intern(&render()))
    }
}

/// Internal builder state.
struct BuildState {
    cols: TaskColumns,
    labels: LabelCache,
    /// Every communication group, indexed by id (ids are dense from 0).
    groups: Vec<CommGroup>,
    /// Each group's participant set, interned once.
    group_sets: Vec<RankSet>,
    /// `(rank, axis)` -> group id, `NONE` when the axis is inactive.
    group_of: Vec<u32>,
    /// Each rank's singleton participant set, interned once.
    singletons: Vec<RankSet>,
    /// Last compute task per rank (consumed by the optimizer epilogue).
    compute_tail: Vec<u32>,
    /// Last Data-axis collective per rank: the FSDP communication stream.
    data_tail: Vec<u32>,
    /// Collective instances already created, keyed by `(group, label)`. Every
    /// participant of a collective runs the same builder code; the first one to reach
    /// the call creates the task and later participants *join* it, contributing their
    /// own prerequisites as extra dependencies. This models a single NCCL call per
    /// group (the collective starts when its slowest member arrives) instead of one
    /// call per member.
    collective_instances: FastMap<(GroupId, LabelId), TaskId>,
    /// Per (rank, micro-batch): the task producing the final forward activation of
    /// this rank's stage (feeds the forward Send to the next stage).
    fwd_out: Vec<u32>,
    /// Same for the backward direction.
    bwd_out: Vec<u32>,
    /// Per (rank, global layer): the FSDP AllGather of that layer's parameters.
    ag_done: Vec<u32>,
    /// First and last compute task of each (rank, direction, micro-batch) schedule
    /// op, recorded at creation; the schedule-ordering pass links them.
    op_first: Vec<u32>,
    op_last: Vec<u32>,
    num_mb: u32,
    num_layers: u32,
}

impl BuildState {
    fn group(&self, rank: GpuId, axis: ParallelismAxis) -> Option<&CommGroup> {
        let id = self.group_of[rank.0 as usize * ParallelismAxis::ALL.len() + axis as usize];
        (id != NONE).then(|| &self.groups[id as usize])
    }

    fn rank_mb(&self, rank: GpuId, mb: u32) -> usize {
        rank.0 as usize * self.num_mb as usize + mb as usize
    }

    fn op_slot(&self, rank: GpuId, forward: bool, mb: u32) -> usize {
        (rank.0 as usize * 2 + forward as usize) * self.num_mb as usize + mb as usize
    }

    fn add_compute(
        &mut self,
        rank: GpuId,
        duration: SimDuration,
        deps: &[TaskId],
        label: LabelId,
        microbatch: Option<u32>,
        layer: Option<u32>,
    ) -> TaskId {
        // Compute tasks are serialized per rank by (a) the explicit layer chain inside
        // each forward/backward pass and (b) the schedule-ordering pass between passes.
        // Chaining on creation order here would contradict the 1F1B interleaving
        // (backwards are created after all forwards), so only the tail pointer is
        // maintained — it is consumed by the optimizer epilogue.
        let id = self.cols.push(
            TaskKind::Compute { duration },
            self.singletons[rank.0 as usize],
            label,
            microbatch,
            layer,
            deps,
        );
        self.compute_tail[rank.0 as usize] = id.0;
        id
    }

    /// Adds a forward/backward layer computation and records it against its
    /// schedule op.
    #[allow(clippy::too_many_arguments)]
    fn add_pass_compute(
        &mut self,
        rank: GpuId,
        forward: bool,
        duration: SimDuration,
        deps: &[TaskId],
        label: LabelId,
        mb: u32,
        layer: u32,
    ) -> TaskId {
        let id = self.add_compute(rank, duration, deps, label, Some(mb), Some(layer));
        let slot = self.op_slot(rank, forward, mb);
        if self.op_first[slot] == NONE {
            self.op_first[slot] = id.0;
        }
        self.op_last[slot] = id.0;
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn add_collective(
        &mut self,
        group: GroupId,
        kind: CollectiveKind,
        bytes: Bytes,
        deps: &[TaskId],
        label: LabelId,
        microbatch: Option<u32>,
        layer: Option<u32>,
    ) -> TaskId {
        if let Some(&existing) = self.collective_instances.get(&(group, label)) {
            // A peer already created this collective instance: join it by contributing
            // our prerequisites, so the collective waits for its slowest participant.
            for &dep in deps {
                if dep != existing {
                    self.cols.add_dep(existing, dep);
                }
            }
            return existing;
        }
        let g = &self.groups[group.0 as usize];
        let axis = g.axis;
        let id = self.cols.push(
            TaskKind::Collective {
                group,
                kind,
                axis,
                bytes,
            },
            self.group_sets[group.0 as usize],
            label,
            microbatch,
            layer,
            deps,
        );
        // Only the Data (FSDP) axis serializes its collectives on a per-rank stream:
        // the AllGather prefetch chain and the trailing ReduceScatters are issued on a
        // dedicated communication stream in iteration order. Chaining the other axes
        // by *creation* order would contradict the 1F1B schedule (e.g. it would force
        // a stage's backward-pass TP collective to wait for a later micro-batch's
        // forward-pass collective) and create cycles; their ordering is already fully
        // determined by their compute dependencies.
        if axis == ParallelismAxis::Data {
            let mut last = NONE;
            for rank in &g.ranks {
                let tail = &mut self.data_tail[rank.0 as usize];
                // Members usually share their stream tail; repeats would be dropped
                // by `finish` anyway.
                if *tail != NONE && *tail != last {
                    self.cols.add_dep(id, TaskId(*tail));
                    last = *tail;
                }
                *tail = id.0;
            }
        }
        self.collective_instances.insert((group, label), id);
        id
    }

    #[allow(clippy::too_many_arguments)]
    fn add_p2p(
        &mut self,
        src: GpuId,
        dst: GpuId,
        axis: ParallelismAxis,
        bytes: Bytes,
        dep: TaskId,
        label: LabelId,
        microbatch: u32,
    ) -> TaskId {
        // Point-to-point ordering follows purely from data dependencies (a Send cannot
        // happen before the activation it carries exists); no stream chaining is added.
        self.cols.push_p2p(
            TaskKind::PointToPoint {
                src,
                dst,
                axis,
                bytes,
            },
            label,
            Some(microbatch),
            &[dep],
        )
    }
}

impl DagBuilder {
    /// Creates a builder. The compute model is derived from the model, parallelism and
    /// GPU specification.
    pub fn new(model: ModelConfig, parallel: ParallelismConfig, compute: ComputeModel) -> Self {
        let sizes = TrafficSizes::derive(&model, &parallel);
        DagBuilder {
            model,
            parallel,
            compute,
            sizes,
        }
    }

    /// The traffic sizes the builder derived.
    pub fn sizes(&self) -> &TrafficSizes {
        &self.sizes
    }

    /// Builds the execution DAG of one training iteration.
    pub fn build(&self) -> TrainingDag {
        let mapping = RankMapping::new(self.parallel.clone());
        let comm_groups = mapping.build_comm_groups();
        let world = mapping.world_size();
        let p = &self.parallel;
        let layers_per_stage = self.compute.layers_per_stage;
        let num_stages = p.pipeline;
        let num_mb = p.num_microbatches;
        let num_layers = num_stages * layers_per_stage;
        let fsdp = p.data > 1 && p.data_kind == DataParallelKind::FullySharded;
        let plain_dp = p.data > 1 && p.data_kind == DataParallelKind::AllReduce;

        let axes = ParallelismAxis::ALL.len();
        let mut group_of = vec![NONE; world as usize * axes];
        for (i, g) in comm_groups.iter().enumerate() {
            assert_eq!(g.id.0 as usize, i, "comm group ids are dense");
            for rank in &g.ranks {
                group_of[rank.0 as usize * axes + g.axis as usize] = g.id.0;
            }
        }
        let per_rank_mb = vec![NONE; (world * num_mb) as usize];
        let mut st = BuildState {
            cols: TaskColumns::default(),
            labels: LabelCache::new(num_mb, num_layers),
            group_sets: comm_groups
                .iter()
                .map(|g| RankSet::intern(&g.ranks))
                .collect(),
            groups: comm_groups,
            group_of,
            singletons: (0..world).map(|r| RankSet::intern(&[GpuId(r)])).collect(),
            compute_tail: vec![NONE; world as usize],
            data_tail: vec![NONE; world as usize],
            collective_instances: FastMap::default(),
            fwd_out: per_rank_mb.clone(),
            bwd_out: per_rank_mb,
            ag_done: vec![NONE; (world * num_layers) as usize],
            op_first: vec![NONE; (world * 2 * num_mb) as usize],
            op_last: vec![NONE; (world * 2 * num_mb) as usize],
            num_mb,
            num_layers,
        };
        let mut ranks_of_stage: Vec<Vec<GpuId>> = vec![Vec::new(); num_stages as usize];
        for r in 0..world {
            ranks_of_stage[mapping.pipeline_stage_of(r) as usize].push(GpuId(r));
        }

        // Every rank walks its own 1F1B schedule, but cross-stage dependencies need
        // the neighbouring stage's tasks to exist first, so the build runs in three
        // sweeps. Sweep 1 creates all forward-direction tasks in stage order (a
        // stage's forward Recv reads `fwd_out` of the previous stage); sweep 2 creates
        // all backward-direction tasks in reverse stage order (reading `bwd_out` of
        // the next stage); sweep 3 stitches the per-rank 1F1B ordering by adding
        // ordering dependencies between compute tasks according to the schedule
        // (forward of mb f cannot start before the backward of mb b that precedes it
        // in the schedule).

        // ---- Sweep 1: forward passes, stage order.
        for stage in 0..num_stages {
            for &rank in &ranks_of_stage[stage as usize] {
                for mb in 0..num_mb {
                    self.build_forward(&mut st, &mapping, rank, stage, mb, layers_per_stage, fsdp);
                }
            }
        }

        // ---- Sweep 2: backward passes, reverse stage order.
        for stage in (0..num_stages).rev() {
            for &rank in &ranks_of_stage[stage as usize] {
                for mb in 0..num_mb {
                    self.build_backward(
                        &mut st,
                        &mapping,
                        rank,
                        stage,
                        mb,
                        layers_per_stage,
                        fsdp,
                        plain_dp,
                    );
                }
            }
        }

        // ---- Sweep 3: enforce the per-rank 1F1B ordering between forward and
        // backward compute blocks (the data dependencies added so far already order
        // forward-before-backward of the same micro-batch; the schedule additionally
        // orders backwards before later forwards on the same rank).
        self.add_schedule_ordering(&mut st, &ranks_of_stage);

        // ---- Epilogue: optimizer synchronization collectives and the optimizer step.
        self.build_epilogue(&mut st, world, fsdp || plain_dp);

        let groups = st.groups.into_iter().map(|g| (g.id, g)).collect();
        let dag = st.cols.finish(groups, self.parallel.clone(), world);
        debug_assert_eq!(dag.validate(), Ok(()));
        dag
    }

    #[allow(clippy::too_many_arguments)]
    fn build_forward(
        &self,
        st: &mut BuildState,
        mapping: &RankMapping,
        rank: GpuId,
        stage: u32,
        mb: u32,
        layers_per_stage: u32,
        fsdp: bool,
    ) {
        let p = &self.parallel;
        let rank_mb = st.rank_mb(rank, mb);
        // Receive the activation from the previous stage (if any).
        let recv_task = if stage > 0 {
            let prev_rank = GpuId(
                mapping
                    .pipeline_prev(rank.0)
                    .expect("stage > 0 has a predecessor"),
            );
            let src_out = st.fwd_out[st.rank_mb(prev_rank, mb)];
            assert!(
                src_out != NONE,
                "previous stage forward must be built first"
            );
            let label = st.labels.get(LabelOp::PpFwd, mb, stage, || {
                format!("PP-fwd s{}->s{} mb{mb}", stage - 1, stage)
            });
            Some(st.add_p2p(
                prev_rank,
                rank,
                ParallelismAxis::Pipeline,
                self.sizes.pp_sendrecv_per_microbatch,
                TaskId(src_out),
                label,
                mb,
            ))
        } else {
            None
        };

        let mut prev_layer_task: Option<TaskId> = recv_task;
        let mut deps: Vec<TaskId> = Vec::with_capacity(4);
        for l in 0..layers_per_stage {
            let global_layer = stage * layers_per_stage + l;
            deps.clear();
            deps.extend(prev_layer_task);

            // FSDP parameter AllGather for this layer (first micro-batch only; the
            // gathered parameters are reused by later micro-batches). Honour the lazy
            // DTensor behaviour: a non-zero stage's AllGathers wait for the first
            // activation to arrive.
            let ag_slot = rank.0 as usize * st.num_layers as usize + global_layer as usize;
            if fsdp && mb == 0 {
                if let Some(group) = st.group(rank, ParallelismAxis::Data) {
                    if !group.is_trivial() {
                        let group = group.id;
                        let label = st.labels.get(LabelOp::FsdpAg, 0, global_layer, || {
                            format!("FSDP-AG s{stage} L{global_layer}")
                        });
                        let ag = st.add_collective(
                            group,
                            CollectiveKind::AllGather,
                            self.sizes.fsdp_allgather_per_layer,
                            recv_task.as_slice(),
                            label,
                            Some(mb),
                            Some(global_layer),
                        );
                        st.ag_done[ag_slot] = ag.0;
                    }
                }
            }
            if st.ag_done[ag_slot] != NONE {
                deps.push(TaskId(st.ag_done[ag_slot]));
            }

            // Context-parallel KV AllGather before the layer's attention.
            if p.context > 1 {
                if let Some(group) = st.group(rank, ParallelismAxis::Context) {
                    let group = group.id;
                    let label = st.labels.get(LabelOp::CpAg, mb, global_layer, || {
                        format!("CP-AG s{stage} mb{mb} L{global_layer}")
                    });
                    let cp = st.add_collective(
                        group,
                        CollectiveKind::AllGather,
                        self.sizes.cp_allgather_per_layer,
                        &deps,
                        label,
                        Some(mb),
                        Some(global_layer),
                    );
                    deps.push(cp);
                }
            }

            // The layer's forward computation.
            let label = st.labels.get(LabelOp::Fwd, mb, global_layer, || {
                format!("fwd s{stage} mb{mb} L{global_layer}")
            });
            let fwd = st.add_pass_compute(
                rank,
                true,
                self.compute.layer_forward,
                &deps,
                label,
                mb,
                global_layer,
            );
            let mut layer_tail = fwd;

            // Expert-parallel AllToAll (token routing) inside MoE layers.
            if p.expert > 1 && self.model.is_moe() {
                if let Some(group) = st.group(rank, ParallelismAxis::Expert) {
                    let group = group.id;
                    let label = st.labels.get(LabelOp::EpA2a, mb, global_layer, || {
                        format!("EP-A2A s{stage} mb{mb} L{global_layer}")
                    });
                    layer_tail = st.add_collective(
                        group,
                        CollectiveKind::AllToAll,
                        self.sizes.ep_alltoall_per_layer,
                        &[layer_tail],
                        label,
                        Some(mb),
                        Some(global_layer),
                    );
                }
            }

            // Tensor-parallel activation collective closing the layer.
            if p.tensor > 1 {
                if let Some(group) = st.group(rank, ParallelismAxis::Tensor) {
                    let group = group.id;
                    let kind = if p.sequence_parallel {
                        CollectiveKind::ReduceScatter
                    } else {
                        CollectiveKind::AllReduce
                    };
                    let label = st.labels.get(LabelOp::Tp, mb, global_layer, || {
                        format!("TP-{} s{stage} mb{mb} L{global_layer}", kind.short_name())
                    });
                    layer_tail = st.add_collective(
                        group,
                        kind,
                        self.sizes.tp_allreduce_per_layer,
                        &[layer_tail],
                        label,
                        Some(mb),
                        Some(global_layer),
                    );
                }
            }

            prev_layer_task = Some(layer_tail);
        }

        st.fwd_out[rank_mb] = prev_layer_task.expect("at least one layer per stage").0;
    }

    #[allow(clippy::too_many_arguments)]
    fn build_backward(
        &self,
        st: &mut BuildState,
        mapping: &RankMapping,
        rank: GpuId,
        stage: u32,
        mb: u32,
        layers_per_stage: u32,
        fsdp: bool,
        plain_dp: bool,
    ) {
        let p = &self.parallel;
        let num_stages = p.pipeline;
        let last_mb = p.num_microbatches - 1;
        let rank_mb = st.rank_mb(rank, mb);

        // The backward pass starts from the gradient coming back from the next stage
        // (or, on the last stage, directly from this rank's own forward output).
        let grad_in = if stage + 1 < num_stages {
            let next_rank = GpuId(mapping.pipeline_next(rank.0).expect("not the last stage"));
            let src_out = st.bwd_out[st.rank_mb(next_rank, mb)];
            assert!(src_out != NONE, "next stage backward must be built first");
            let label = st.labels.get(LabelOp::PpBwd, mb, stage, || {
                format!("PP-bwd s{}->s{} mb{mb}", stage + 1, stage)
            });
            st.add_p2p(
                next_rank,
                rank,
                ParallelismAxis::Pipeline,
                self.sizes.pp_sendrecv_per_microbatch,
                TaskId(src_out),
                label,
                mb,
            )
        } else {
            let out = st.fwd_out[rank_mb];
            assert!(out != NONE, "forward output of the last stage must exist");
            TaskId(out)
        };

        let mut prev_layer_task = grad_in;
        // Backward walks the layers in reverse order.
        for l in (0..layers_per_stage).rev() {
            let global_layer = stage * layers_per_stage + l;

            let label = st.labels.get(LabelOp::Bwd, mb, global_layer, || {
                format!("bwd s{stage} mb{mb} L{global_layer}")
            });
            let bwd = st.add_pass_compute(
                rank,
                false,
                self.compute.layer_backward,
                &[prev_layer_task],
                label,
                mb,
                global_layer,
            );
            let mut layer_tail = bwd;

            // Tensor-parallel gradient collective.
            if p.tensor > 1 {
                if let Some(group) = st.group(rank, ParallelismAxis::Tensor) {
                    let group = group.id;
                    let kind = if p.sequence_parallel {
                        CollectiveKind::AllGather
                    } else {
                        CollectiveKind::AllReduce
                    };
                    let label = st.labels.get(LabelOp::TpBwd, mb, global_layer, || {
                        format!(
                            "TP-bwd-{} s{stage} mb{mb} L{global_layer}",
                            kind.short_name()
                        )
                    });
                    layer_tail = st.add_collective(
                        group,
                        kind,
                        self.sizes.tp_allreduce_per_layer,
                        &[layer_tail],
                        label,
                        Some(mb),
                        Some(global_layer),
                    );
                }
            }

            // Expert-parallel backward AllToAll.
            if p.expert > 1 && self.model.is_moe() {
                if let Some(group) = st.group(rank, ParallelismAxis::Expert) {
                    let group = group.id;
                    let label = st.labels.get(LabelOp::EpBwdA2a, mb, global_layer, || {
                        format!("EP-bwd-A2A s{stage} mb{mb} L{global_layer}")
                    });
                    layer_tail = st.add_collective(
                        group,
                        CollectiveKind::AllToAll,
                        self.sizes.ep_alltoall_per_layer,
                        &[layer_tail],
                        label,
                        Some(mb),
                        Some(global_layer),
                    );
                }
            }

            // Gradient reduction across the data-parallel group, once the last
            // micro-batch has accumulated this layer's gradient. The reduction runs on
            // its own communication stream (it overlaps with the remaining backward
            // compute), so it is deliberately *not* part of the compute chain — only
            // the optimizer epilogue waits for it, via the Data-axis comm tail.
            if mb == last_mb && (fsdp || plain_dp) {
                if let Some(group) = st.group(rank, ParallelismAxis::Data) {
                    if !group.is_trivial() {
                        let group = group.id;
                        let (op, kind, bytes, name) = if fsdp {
                            (
                                LabelOp::FsdpRs,
                                CollectiveKind::ReduceScatter,
                                self.sizes.fsdp_reducescatter_per_layer,
                                "FSDP-RS",
                            )
                        } else {
                            (
                                LabelOp::DpAr,
                                CollectiveKind::AllReduce,
                                self.sizes.dp_allreduce_per_layer,
                                "DP-AR",
                            )
                        };
                        let label = st.labels.get(op, 0, global_layer, || {
                            format!("{name} s{stage} L{global_layer}")
                        });
                        st.add_collective(
                            group,
                            kind,
                            bytes,
                            &[bwd],
                            label,
                            Some(mb),
                            Some(global_layer),
                        );
                    }
                }
            }

            prev_layer_task = layer_tail;
        }

        // The gradient leaving the stage is produced by the backward of its first
        // layer; `prev_layer_task` points at the last thing issued for that layer,
        // which keeps the pipeline conservative and matches the sequential ordering
        // observed in Fig. 3.
        st.bwd_out[rank_mb] = prev_layer_task.0;
    }

    /// Adds ordering dependencies that realize the per-rank 1F1B schedule: the first
    /// compute task of schedule op *k* depends on the last compute task of op *k − 1*.
    /// (Most of these edges already exist through data dependencies; the ones that do
    /// not — e.g. "forward of micro-batch 2 waits for the backward of micro-batch 0 on
    /// this rank" — are what creates the pipeline's interleaving.)
    fn add_schedule_ordering(&self, st: &mut BuildState, ranks_of_stage: &[Vec<GpuId>]) {
        // Every op occurs once per rank, so each compute task receives at most one
        // ordering edge: the order ranks are visited in cannot reorder any task's deps.
        for (stage, ranks) in ranks_of_stage.iter().enumerate() {
            let ops = pipeline::one_f_one_b(stage as u32, self.parallel.pipeline, st.num_mb);
            for &rank in ranks {
                for pair in ops.windows(2) {
                    let (prev, next) = (pair[0], pair[1]);
                    let prev_last =
                        st.op_last[st.op_slot(rank, prev.is_forward(), prev.microbatch())];
                    let next_first =
                        st.op_first[st.op_slot(rank, next.is_forward(), next.microbatch())];
                    if prev_last != NONE && next_first != NONE {
                        st.cols.add_dep(TaskId(next_first), TaskId(prev_last));
                    }
                }
            }
        }
    }

    /// The optimizer epilogue: small synchronization AllReduces along DP and PP (the
    /// "<1 MB" bucket of Fig. 4(b)) followed by the local optimizer step.
    fn build_epilogue(&self, st: &mut BuildState, world: u32, has_dp: bool) {
        // Snapshot the per-rank tails so every epilogue collective waits for that
        // rank's complete backward pass (compute and gradient reductions).
        let compute_tails = st.compute_tail.clone();
        let data_tails = st.data_tail.clone();
        let dp_label = LabelId::intern("sync-AR DP (grad norm)");
        let pp_label = LabelId::intern("sync-AR PP (loss)");

        let mut deps: Vec<TaskId> = Vec::with_capacity(2);
        let mut tail_deps: Vec<TaskId> = Vec::with_capacity(4);
        for rank_idx in 0..world {
            let rank = GpuId(rank_idx);
            deps.clear();
            for tail in [
                compute_tails[rank_idx as usize],
                data_tails[rank_idx as usize],
            ] {
                if tail != NONE {
                    deps.push(TaskId(tail));
                }
            }
            tail_deps.clear();
            tail_deps.extend_from_slice(&deps);
            // Grad-norm AllReduce along the data-parallel group. Every member "joins"
            // the same collective instance (deduplicated per group by the builder).
            if has_dp {
                if let Some(group) = st.group(rank, ParallelismAxis::Data) {
                    if !group.is_trivial() {
                        let group = group.id;
                        let ar = st.add_collective(
                            group,
                            CollectiveKind::AllReduce,
                            self.sizes.sync_allreduce,
                            &deps,
                            dp_label,
                            None,
                            None,
                        );
                        tail_deps.push(ar);
                    }
                }
            }
            // Loss / numerics AllReduce along the pipeline group.
            if self.parallel.pipeline > 1 {
                if let Some(group) = st.group(rank, ParallelismAxis::Pipeline) {
                    let group = group.id;
                    let ar = st.add_collective(
                        group,
                        CollectiveKind::AllReduce,
                        self.sizes.sync_allreduce,
                        &deps,
                        pp_label,
                        None,
                        None,
                    );
                    tail_deps.push(ar);
                }
            }

            // The local optimizer step.
            st.add_compute(
                rank,
                self.compute.optimizer_step,
                &tail_deps,
                LabelId::intern(&format!("optimizer step r{rank_idx}")),
                None,
                None,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::GpuSpec;

    fn paper_dag() -> TrainingDag {
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        DagBuilder::new(model, parallel, compute).build()
    }

    fn tiny_dag(parallel: ParallelismConfig) -> TrainingDag {
        let model = ModelConfig::tiny_test();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        DagBuilder::new(model, parallel, compute).build()
    }

    #[test]
    fn paper_dag_is_valid_and_acyclic() {
        let dag = paper_dag();
        assert!(dag.validate().is_ok());
        assert!(dag.topological_order().is_some());
        assert!(
            dag.len() > 1000,
            "the 16-rank Llama3-8B DAG should be sizable, got {}",
            dag.len()
        );
    }

    #[test]
    fn dependents_and_indegrees_mirror_the_dependency_csr() {
        let dag = paper_dag();
        let layout = dag.layout();
        let mut mirrored: Vec<Vec<TaskId>> = vec![Vec::new(); dag.len()];
        for task in dag.tasks() {
            for &dep in task.deps {
                mirrored[dep.0 as usize].push(task.id);
            }
        }
        for (p, &id) in layout.order().iter().enumerate() {
            let pos = Position(p as u32);
            assert_eq!(layout.indegrees()[p] as usize, dag.deps(id).len());
            let row: Vec<TaskId> = layout
                .dependents(pos)
                .iter()
                .map(|&d| layout.task(d))
                .collect();
            assert_eq!(row, mirrored[id.0 as usize]);
        }
    }

    #[test]
    fn finish_keeps_first_declarations_in_order() {
        let set = RankSet::intern(&[GpuId(0)]);
        let label = LabelId::intern("t");
        let compute = TaskKind::Compute {
            duration: SimDuration::ZERO,
        };
        let mut cols = TaskColumns::default();
        let a = cols.push(compute, set, label, None, None, &[]);
        let b = cols.push(compute, set, label, Some(3), Some(7), &[a]);
        let c = cols.push(compute, set, label, None, None, &[b, a, b]);
        cols.add_dep(b, a);
        cols.add_dep(a, c);
        let dag = cols.finish(BTreeMap::new(), ParallelismConfig::data_only(1), 1);
        assert_eq!(dag.deps(a), &[c]);
        assert_eq!(dag.deps(b), &[a]);
        assert_eq!(dag.deps(c), &[b, a]);
        let layout = dag.layout();
        assert_eq!(
            layout.order(),
            &[a, b, c],
            "tasks on a cycle trail the layout in id order"
        );
        let row: Vec<TaskId> = layout
            .dependents(Position(0))
            .iter()
            .map(|&d| layout.task(d))
            .collect();
        assert_eq!(row, [b, c]);
        assert_eq!(dag.task(b).microbatch, Some(3));
        assert_eq!(dag.task(b).layer, Some(7));
        assert_eq!(dag.task(a).layer, None);
        let err = dag.validate().unwrap_err();
        assert!(err.contains("contains a cycle"), "{err}");
        assert_eq!(
            dag.validate().unwrap_err(),
            err,
            "a failure is recomputed, stuck tasks included"
        );
    }

    #[test]
    fn rebase_shifts_ranks_and_groups_and_shares_the_graph() {
        let dag = paper_dag();
        let moved = dag.rebase(64, 100);
        assert_eq!(moved.len(), dag.len());
        assert_eq!(moved.max_rank(), dag.max_rank() + 64);
        assert!(Arc::ptr_eq(&moved.graph, &dag.graph));
        let mut seen = [0; 3];
        for (a, b) in dag.tasks().zip(moved.tasks()) {
            assert_eq!(a.deps, b.deps);
            assert_eq!(a.label, b.label);
            let shifted: Vec<GpuId> = a.ranks().iter().map(|g| GpuId(g.0 + 64)).collect();
            assert_eq!(b.ranks(), shifted.as_slice());
            assert_eq!(Step::from(a.kind), Step::from(b.kind));
            match (a.kind, b.kind) {
                (TaskKind::Compute { duration: da }, TaskKind::Compute { duration: db }) => {
                    assert_eq!(da, db);
                    seen[0] += 1;
                }
                (
                    TaskKind::Collective { group: ga, .. },
                    TaskKind::Collective { group: gb, .. },
                ) => {
                    assert_eq!(gb.0, ga.0 + 100);
                    assert!(moved.groups.contains_key(&gb));
                    seen[1] += 1;
                }
                (
                    TaskKind::PointToPoint {
                        src: sa, dst: da, ..
                    },
                    TaskKind::PointToPoint {
                        src: sb, dst: db, ..
                    },
                ) => {
                    assert_eq!((sb.0, db.0), (sa.0 + 64, da.0 + 64));
                    seen[2] += 1;
                }
                (a, b) => panic!("a rebase turned {a:?} into {b:?}"),
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every kind is checked: {seen:?}"
        );
        assert!(moved.validate().is_ok());
    }

    /// One task of `kind` with `participants`, in a DAG holding `groups`.
    fn one_task_dag(kind: TaskKind, participants: &[GpuId], groups: &[GroupId]) -> TrainingDag {
        let mut cols = TaskColumns::default();
        let set = RankSet::intern(participants);
        cols.push(kind, set, LabelId::intern("t"), None, None, &[]);
        let groups = groups
            .iter()
            .map(|&id| {
                (
                    id,
                    CommGroup::new(id, ParallelismAxis::Data, participants.to_vec()),
                )
            })
            .collect();
        cols.finish(groups, ParallelismConfig::data_only(2), 2)
    }

    #[test]
    fn validate_rejects_an_unknown_group_and_a_task_without_participants() {
        let ranks = [GpuId(0), GpuId(1)];
        let all_reduce = |group| TaskKind::Collective {
            group: GroupId(group),
            kind: CollectiveKind::AllReduce,
            axis: ParallelismAxis::Data,
            bytes: Bytes::new(1),
        };
        let dag = one_task_dag(all_reduce(3), &ranks, &[GroupId(3)]);
        assert_eq!(dag.validate(), Ok(()));
        assert_eq!(
            dag.rebase(0, 5).validate(),
            Ok(()),
            "groups shift with their operands"
        );

        let err = one_task_dag(all_reduce(3), &ranks, &[GroupId(2)])
            .validate()
            .unwrap_err();
        assert_eq!(err, "task t references unknown group group3");

        let compute = TaskKind::Compute {
            duration: SimDuration::ZERO,
        };
        let err = one_task_dag(compute, &[], &[]).validate().unwrap_err();
        assert_eq!(err, "task t has no participants");
    }

    /// Columns of `n` compute tasks, each of a duration of its own.
    fn distinct_steps(n: u64) -> TaskColumns {
        let set = RankSet::intern(&[GpuId(0)]);
        let label = LabelId::intern("t");
        let mut cols = TaskColumns::default();
        for ns in 0..n {
            let duration = SimDuration::from_nanos(ns);
            cols.push(TaskKind::Compute { duration }, set, label, None, None, &[]);
        }
        cols
    }

    #[test]
    fn a_build_holds_65536_distinct_steps() {
        let dag =
            distinct_steps(65_536).finish(BTreeMap::new(), ParallelismConfig::data_only(1), 1);
        assert_eq!(
            dag.kind(TaskId(65_535)),
            TaskKind::Compute {
                duration: SimDuration::from_nanos(65_535)
            }
        );
    }

    #[test]
    #[should_panic(expected = "at most 65536 distinct steps")]
    fn a_build_with_more_than_65536_distinct_steps_fails() {
        distinct_steps(65_537);
    }

    #[test]
    fn acyclicity_is_validated_once_per_shared_graph() {
        let set = RankSet::intern(&[GpuId(0)]);
        let label = LabelId::intern("t");
        let compute = TaskKind::Compute {
            duration: SimDuration::ZERO,
        };
        let mut cols = TaskColumns::default();
        let a = cols.push(compute, set, label, None, None, &[]);
        cols.push(compute, set, label, None, None, &[a]);
        let dag = cols.finish(BTreeMap::new(), ParallelismConfig::data_only(1), 1);
        assert!(dag.graph.layout.get().is_none());
        assert_eq!(dag.rebase(4, 0).validate(), Ok(()));
        assert!(
            dag.graph.layout.get().is_some(),
            "validating a rebase lays out the graph it shares"
        );
    }

    #[test]
    fn paper_dag_contains_every_traffic_class_of_fig3() {
        let dag = paper_dag();
        let labels: Vec<&str> = dag.tasks().map(|t| t.label.as_str()).collect();
        assert!(labels.iter().any(|l| l.starts_with("FSDP-AG")));
        assert!(labels.iter().any(|l| l.starts_with("FSDP-RS")));
        assert!(labels.iter().any(|l| l.starts_with("PP-fwd")));
        assert!(labels.iter().any(|l| l.starts_with("PP-bwd")));
        assert!(labels.iter().any(|l| l.starts_with("TP-")));
        assert!(labels.iter().any(|l| l.starts_with("sync-AR")));
        assert!(labels.iter().any(|l| l.starts_with("optimizer step")));
    }

    fn count_labeled(dag: &TrainingDag, prefix: &str) -> usize {
        dag.tasks()
            .filter(|t| t.label_str().starts_with(prefix))
            .count()
    }

    #[test]
    fn forward_send_counts_match_pipeline_structure() {
        // PP=2, DP=2, TP=4, 2 micro-batches: forward sends = (PP-1) * DP * TP * MB = 16.
        let dag = paper_dag();
        assert_eq!(count_labeled(&dag, "PP-fwd"), 16);
        assert_eq!(count_labeled(&dag, "PP-bwd"), 16);
    }

    #[test]
    fn fsdp_collective_counts() {
        // One AllGather per layer per DP group: each pipeline stage owns 16 layers and
        // has 4 DP groups (one per TP shard), so 2 stages * 16 layers * 4 groups = 128.
        // ReduceScatter mirrors that count.
        let dag = paper_dag();
        assert_eq!(count_labeled(&dag, "FSDP-AG"), 128);
        assert_eq!(count_labeled(&dag, "FSDP-RS"), 128);
    }

    #[test]
    fn tp_collectives_are_shared_per_group() {
        // One TP collective per (group, layer, micro-batch, direction):
        // 4 TP groups * 16 layers (their stage's) * 2 micro-batches * 2 directions = 256.
        let dag = paper_dag();
        assert_eq!(count_labeled(&dag, "TP-"), 256);
    }

    #[test]
    fn sync_allreduce_counts() {
        // One grad-norm AR per DP group (8) and one loss AR per PP group (8).
        let dag = paper_dag();
        assert_eq!(count_labeled(&dag, "sync-AR DP"), 8);
        assert_eq!(count_labeled(&dag, "sync-AR PP"), 8);
    }

    #[test]
    fn dp_only_dag_has_no_pipeline_traffic() {
        let parallel = ParallelismConfig::data_only(4);
        let dag = tiny_dag(parallel);
        assert!(dag.validate().is_ok());
        assert_eq!(count_labeled(&dag, "PP-"), 0);
        assert!(count_labeled(&dag, "DP-AR") > 0);
    }

    #[test]
    fn single_gpu_dag_has_no_communication() {
        let parallel = ParallelismConfig::data_only(1);
        let dag = tiny_dag(parallel);
        assert!(dag.validate().is_ok());
        assert_eq!(dag.communication_tasks().count(), 0);
        assert!(dag.compute_tasks().count() > 0);
    }

    #[test]
    fn collective_participants_match_group_members() {
        let dag = paper_dag();
        for task in dag.communication_tasks() {
            if let TaskKind::Collective { group, .. } = &task.kind {
                let g = dag.group(*group);
                assert_eq!(
                    task.ranks(),
                    g.ranks.as_slice(),
                    "task {} participants",
                    task.label
                );
            }
        }
    }

    #[test]
    fn dependencies_always_point_backwards_in_creation_order_or_are_acyclic() {
        let dag = paper_dag();
        // Not all deps are strictly backwards (schedule ordering may add edges), but
        // the graph must be acyclic, which validate() already checks; here we verify
        // that every dependency id is distinct from the task itself.
        for task in dag.tasks() {
            assert!(!task.deps.contains(&task.id));
        }
    }

    #[test]
    fn total_communication_volume_is_dominated_by_fsdp() {
        let dag = paper_dag();
        let total = dag.total_communication_bytes().as_gb_f64();
        // 256 AGs of ~109 MB + 256 RSs of ~218 MB plus TP/PP traffic: tens of GB.
        assert!(
            total > 20.0,
            "expected tens of GB of traffic, got {total} GB"
        );
    }

    #[test]
    fn moe_dag_contains_alltoall() {
        let parallel = ParallelismConfig {
            tensor: 2,
            sequence_parallel: false,
            context: 1,
            expert: 2,
            data: 2,
            data_kind: DataParallelKind::FullySharded,
            pipeline: 1,
            num_microbatches: 1,
            microbatch_size: 1,
            seq_len: 2048,
        };
        let model = ModelConfig::mixtral_8x7b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        assert!(dag.validate().is_ok());
        assert!(dag.tasks().any(|t| t.label_str().contains("EP-")));
    }

    #[test]
    fn tasks_of_rank_returns_only_participating_tasks() {
        let dag = paper_dag();
        let tasks = dag.tasks_of_rank(GpuId(0));
        assert!(!tasks.is_empty());
        for t in tasks {
            assert!(t.participants.contains(GpuId(0)));
        }
    }
}
