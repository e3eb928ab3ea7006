//! Inter-parallelism window analysis (§3.1 and Fig. 4 of the paper).
//!
//! A *window* is the idle time on a rail between two consecutive parallelism phases
//! `P1` and `P2` (two distinct sets of communication groups):
//!
//! ```text
//! T_window = min_{comm_j ∈ P2} T_comm_j_start − max_{comm_i ∈ P1} T_comm_i_end
//! ```
//!
//! where a collective's start is the time its slowest participating rank joined. These
//! windows are where Opus hides its reconfiguration delay: Fig. 4(a) shows their CDF,
//! Fig. 4(b) groups them by the traffic volume of the phase that follows them.
//!
//! Windows are extracted from the simulator's [`CommRecord`]s using the operation's
//! *issue* time (before any circuit wait), so the measurement reflects the
//! application's intrinsic schedule exactly as the paper measured it on an electrical
//! fabric.
//!
//! The extractors take records as values, so they read an iteration's
//! [`CommLog`](crate::CommLog) without copying it, and hand-built records just the
//! same. A per-rail pass reads
//! [`IterationResult::records_on_rail`] (`it.records_on_rail(rail)`), which skips
//! other rails' rows before reading them; [`phases_by_rail`] and
//! [`windows_of_iterations`] read every record once for all rails.

use crate::metrics::{CommRecord, IterationResult};
use railsim_collectives::ParallelismAxis;
use railsim_sim::stats::{BucketedStats, Cdf};
use railsim_sim::{Bytes, SimDuration, SimTime};
use railsim_topology::RailId;
use railsim_workload::TaskId;
use serde::{Deserialize, Serialize};

/// One communication phase on one rail: a maximal run of consecutive operations that
/// belong to the same parallelism axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// The rail the phase ran on.
    pub rail: RailId,
    /// The parallelism axis of every operation in the phase.
    pub axis: ParallelismAxis,
    /// When the phase's first operation was issued.
    pub first_issue: SimTime,
    /// When the phase's last operation completed.
    pub last_end: SimTime,
    /// Total bytes moved by the phase.
    pub bytes: Bytes,
    /// Number of operations in the phase.
    pub operations: usize,
}

/// One inter-parallelism window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Window {
    /// The rail the window was observed on.
    pub rail: RailId,
    /// The axis of the phase before the window.
    pub before: ParallelismAxis,
    /// The axis of the phase after the window.
    pub after: ParallelismAxis,
    /// When the window opened (previous phase's last completion).
    pub opens: SimTime,
    /// When the window closed (next phase's first issue).
    pub closes: SimTime,
    /// Window length.
    pub duration: SimDuration,
    /// Total traffic volume of the phase *after* the window (the Fig. 4(b) bucketing key).
    pub traffic_after: Bytes,
}

/// Splits the scale-out records of one rail into parallelism phases. Records of other
/// rails are skipped, so `records` may be a whole iteration, but
/// [`IterationResult::records_on_rail`] skips them without reading them.
pub fn phases_on_rail(records: impl IntoIterator<Item = CommRecord>, rail: RailId) -> Vec<Phase> {
    // Reserving the most the stream can yield allocates the buffer once instead of
    // regrowing it; pages past what the rail fills stay untouched.
    let records = records.into_iter();
    let mut on_rail: Vec<Op> = Vec::with_capacity(records.size_hint().1.unwrap_or(0));
    on_rail.extend(
        records
            .filter(|r| r.scaleout && r.rails.contains(rail))
            .map(|r| Op::of(&r)),
    );
    on_rail.sort_by_key(|op| (op.issued_at, op.task));
    phases_of_stream(rail, &on_rail)
}

/// Extracts the inter-parallelism windows of one rail from one iteration's records.
///
/// Only positive gaps are reported: overlapping phases (the next phase's first
/// operation was issued before the previous phase finished) leave no window to hide a
/// reconfiguration in and are skipped.
pub fn windows_on_rail(records: impl IntoIterator<Item = CommRecord>, rail: RailId) -> Vec<Window> {
    windows_of_phases(&phases_on_rail(records, rail))
}

/// Splits the scale-out records of *every* requested rail into phases in one pass.
///
/// Equivalent to calling [`phases_on_rail`] per rail, but the record list is walked
/// once instead of once per rail — the difference between seconds and minutes when a
/// 10k-GPU iteration produces hundreds of thousands of records across many rails.
/// Rails are returned in the order given.
pub fn phases_by_rail(
    records: impl IntoIterator<Item = CommRecord>,
    rails: &[RailId],
) -> Vec<(RailId, Vec<Phase>)> {
    // A rail may legitimately appear more than once in `rails`; every occurrence gets
    // the full stream, keeping the documented per-rail equivalence unconditional.
    let mut lanes_of: std::collections::HashMap<RailId, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, &rail) in rails.iter().enumerate() {
        lanes_of.entry(rail).or_default().push(i);
    }
    // One issue-ordered record stream per requested rail (a record carrying several
    // rails contributes to each of them, exactly like the per-rail filter).
    let mut streams: Vec<Vec<Op>> = vec![Vec::new(); rails.len()];
    for rec in records.into_iter().filter(|r| r.scaleout) {
        let op = Op::of(&rec);
        for rail in &rec.rails {
            if let Some(lanes) = lanes_of.get(&rail) {
                for &lane in lanes {
                    streams[lane].push(op);
                }
            }
        }
    }
    rails
        .iter()
        .zip(streams)
        .map(|(&rail, mut on_rail)| {
            on_rail.sort_by_key(|op| (op.issued_at, op.task));
            (rail, phases_of_stream(rail, &on_rail))
        })
        .collect()
}

/// What a phase reads of one scale-out record: 32 bytes where the record takes 72, so
/// a rail's stream is gathered and sorted without whole records.
#[derive(Clone, Copy)]
struct Op {
    task: TaskId,
    axis: ParallelismAxis,
    bytes: Bytes,
    issued_at: SimTime,
    end: SimTime,
}

impl Op {
    /// The fields of `rec` a phase reads.
    fn of(rec: &CommRecord) -> Op {
        Op {
            task: rec.task,
            axis: rec.axis,
            bytes: rec.bytes,
            issued_at: rec.issued_at,
            end: rec.end,
        }
    }
}

/// Folds one rail's issue-ordered operations into parallelism phases.
fn phases_of_stream(rail: RailId, on_rail: &[Op]) -> Vec<Phase> {
    let mut phases: Vec<Phase> = Vec::new();
    for op in on_rail {
        match phases.last_mut() {
            Some(phase) if phase.axis == op.axis => {
                phase.last_end = phase.last_end.max(op.end);
                phase.first_issue = phase.first_issue.min(op.issued_at);
                phase.bytes = phase.bytes.saturating_add(op.bytes);
                phase.operations += 1;
            }
            _ => phases.push(Phase {
                rail,
                axis: op.axis,
                first_issue: op.issued_at,
                last_end: op.end,
                bytes: op.bytes,
                operations: 1,
            }),
        }
    }
    phases
}

/// Turns one rail's phase sequence into inter-parallelism windows (positive gaps only;
/// see [`windows_on_rail`]).
fn windows_of_phases(phases: &[Phase]) -> Vec<Window> {
    let mut windows = Vec::new();
    for pair in phases.windows(2) {
        let (p1, p2) = (&pair[0], &pair[1]);
        if p2.first_issue > p1.last_end {
            windows.push(Window {
                rail: p1.rail,
                before: p1.axis,
                after: p2.axis,
                opens: p1.last_end,
                closes: p2.first_issue,
                duration: p2.first_issue.duration_since(p1.last_end),
                traffic_after: p2.bytes,
            });
        }
    }
    windows
}

/// Extracts the windows of every rail from a set of iteration results (Fig. 4
/// aggregates 10 iterations). Single pass over each iteration's records.
pub fn windows_of_iterations(iterations: &[IterationResult], rails: &[RailId]) -> Vec<Window> {
    let mut all = Vec::new();
    for it in iterations {
        for (_, phases) in phases_by_rail(&it.comm_records, rails) {
            all.extend(windows_of_phases(&phases));
        }
    }
    all
}

/// The empirical CDF of window sizes in milliseconds (Fig. 4(a)).
pub fn window_cdf(windows: &[Window]) -> Cdf {
    Cdf::from_samples(windows.iter().map(|w| w.duration.as_millis_f64()))
}

/// Fig. 4(b): windows bucketed by the traffic volume (in MB) of the phase that follows
/// them. Returns the bucket collector; the edges are in MB and chosen to separate the
/// paper's four traffic classes (sync AllReduce, PP Send/Recv, DP AllGather, DP
/// ReduceScatter).
pub fn windows_by_following_traffic(windows: &[Window], edges_mb: Vec<f64>) -> BucketedStats {
    let mut stats = BucketedStats::new(edges_mb);
    for w in windows {
        stats.add(w.traffic_after.as_mb_f64(), w.duration.as_millis_f64());
    }
    stats
}

/// Default Fig. 4(b) bucket edges in MB: `<1 MB`, `1–200 MB`, `200–2500 MB`, `>2500 MB`,
/// separating synchronization AllReduces, pipeline Send/Recv, the FSDP AllGather phase
/// and the FSDP ReduceScatter phase for the paper's Llama3-8B workload.
pub fn default_traffic_buckets_mb() -> Vec<f64> {
    vec![1.0, 200.0, 2500.0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_collectives::{CollectiveKind, GroupId};
    use railsim_topology::RailSet;
    use railsim_workload::TaskId;

    /// `records` moved `by` later.
    fn shifted(records: &[CommRecord], by: SimDuration) -> Vec<CommRecord> {
        records
            .iter()
            .map(|r| CommRecord {
                issued_at: r.issued_at + by,
                start: r.start + by,
                end: r.end + by,
                ..r.clone()
            })
            .collect()
    }

    fn record(
        axis: ParallelismAxis,
        issue_ms: u64,
        start_ms: u64,
        end_ms: u64,
        mb: u64,
        rail: u32,
    ) -> CommRecord {
        CommRecord {
            task: TaskId(issue_ms as u32),
            label: railsim_workload::LabelId::intern(&format!("{axis} op")),
            axis,
            kind: CollectiveKind::AllGather,
            group: Some(GroupId(0)),
            bytes: Bytes::from_mb(mb),
            scaleout: true,
            rails: RailSet::from_iter([RailId(rail)]),
            issued_at: SimTime::from_millis(issue_ms),
            start: SimTime::from_millis(start_ms),
            end: SimTime::from_millis(end_ms),
            circuit_wait: SimDuration::from_millis(start_ms - issue_ms),
        }
    }

    #[test]
    fn phases_group_consecutive_same_axis_operations() {
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 10, 100, 0),
            record(ParallelismAxis::Data, 5, 10, 20, 100, 0),
            record(ParallelismAxis::Pipeline, 40, 40, 45, 64, 0),
            record(ParallelismAxis::Data, 60, 60, 80, 200, 0),
        ];
        let phases = phases_on_rail(records.clone(), RailId(0));
        assert_eq!(phases.len(), 3);
        assert_eq!(phases[0].operations, 2);
        assert_eq!(phases[0].bytes, Bytes::from_mb(200));
        assert_eq!(phases[1].axis, ParallelismAxis::Pipeline);
    }

    #[test]
    fn window_matches_paper_definition() {
        // P1 (DP) ends at 20 ms, P2 (PP) is issued at 40 ms -> 20 ms window whose
        // following traffic is P2's 64 MB.
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 957, 0),
            record(ParallelismAxis::Pipeline, 40, 41, 45, 64, 0),
        ];
        let windows = windows_on_rail(records.clone(), RailId(0));
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.duration, SimDuration::from_millis(20));
        assert_eq!(w.before, ParallelismAxis::Data);
        assert_eq!(w.after, ParallelismAxis::Pipeline);
        assert_eq!(w.traffic_after, Bytes::from_mb(64));
    }

    #[test]
    fn overlapping_phases_leave_no_window() {
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 50, 100, 0),
            record(ParallelismAxis::Pipeline, 30, 30, 60, 64, 0),
        ];
        assert!(windows_on_rail(records.clone(), RailId(0)).is_empty());
    }

    #[test]
    fn windows_use_issue_time_not_circuit_delayed_start() {
        // The PP op is issued at 30 ms but only starts at 55 ms because of a circuit
        // wait; the window must be measured to the *issue* time (the application's
        // intrinsic gap), i.e. 10 ms.
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 100, 0),
            record(ParallelismAxis::Pipeline, 30, 55, 60, 64, 0),
        ];
        let windows = windows_on_rail(records.clone(), RailId(0));
        assert_eq!(windows[0].duration, SimDuration::from_millis(10));
    }

    #[test]
    fn single_pass_multi_rail_extraction_matches_per_rail() {
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 957, 0),
            record(ParallelismAxis::Pipeline, 40, 41, 45, 64, 0),
            record(ParallelismAxis::Data, 5, 5, 25, 100, 1),
            record(ParallelismAxis::Pipeline, 60, 60, 70, 64, 1),
            record(ParallelismAxis::Data, 90, 90, 95, 50, 1),
        ];
        let rails = [RailId(0), RailId(1), RailId(2), RailId(0)];
        let by_rail = phases_by_rail(records.clone(), &rails);
        assert_eq!(by_rail.len(), 4);
        for (rail, phases) in &by_rail {
            // Equivalence holds for every occurrence, including the duplicate rail 0.
            assert_eq!(phases, &phases_on_rail(records.clone(), *rail), "{rail}");
        }

        // The same over the iterations of a simulated run, read from their logs.
        let result = crate::ScenarioSpec::new(
            railsim_topology::ClusterSpec::from_preset(
                railsim_topology::NodePreset::PerlmutterA100,
                4,
            )
            .build(),
        )
        .job(tiny_dag(), crate::OpusConfig::electrical())
        .run();
        let iterations = &result.jobs[0].result.iterations;
        let all = windows_of_iterations(iterations, &rails);
        let per_rail: usize = iterations
            .iter()
            .flat_map(|it| {
                rails.iter().map(|&r| {
                    let windows = windows_on_rail(it.records_on_rail(r), r);
                    assert_eq!(windows, windows_on_rail(&it.comm_records, r), "{r}");
                    windows.len()
                })
            })
            .sum();
        assert!(per_rail > 0);
        assert_eq!(all.len(), per_rail);
    }

    fn tiny_dag() -> railsim_workload::TrainingDag {
        use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        DagBuilder::new(model, parallel, compute).build()
    }

    #[test]
    fn shared_records_yield_the_phases_and_windows_of_their_shifted_copies() {
        // A fast-forwarded iteration's log yields its template's records shifted
        // (pinned in `metrics`); their phases and windows are the template's, shifted.
        let by = SimDuration::from_millis(250);
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 957, 0),
            record(ParallelismAxis::Pipeline, 40, 41, 45, 64, 0),
            record(ParallelismAxis::Data, 5, 5, 25, 100, 1),
            record(ParallelismAxis::Pipeline, 60, 60, 70, 64, 1),
        ];
        let moved = shifted(&records, by);
        let rails = [RailId(0), RailId(1)];
        let shift_phase = |p: &Phase| Phase {
            first_issue: p.first_issue + by,
            last_end: p.last_end + by,
            ..p.clone()
        };
        for ((rail, phases), (moved_rail, moved_phases)) in phases_by_rail(records.clone(), &rails)
            .iter()
            .zip(phases_by_rail(moved.clone(), &rails))
        {
            assert_eq!(*rail, moved_rail);
            assert_eq!(
                phases.iter().map(shift_phase).collect::<Vec<_>>(),
                moved_phases
            );
        }
        for rail in rails {
            let windows = windows_on_rail(records.clone(), rail);
            let moved_windows = windows_on_rail(moved.clone(), rail);
            assert_eq!(windows.len(), moved_windows.len());
            for (w, m) in windows.iter().zip(&moved_windows) {
                assert_eq!((w.opens + by, w.closes + by), (m.opens, m.closes));
                assert_eq!((w.duration, w.traffic_after), (m.duration, m.traffic_after));
            }
        }
        let w = &windows_on_rail(moved, RailId(0))[0];
        assert_eq!(w.opens, SimTime::from_millis(270));
        assert_eq!(w.duration, SimDuration::from_millis(20));
    }

    #[test]
    fn other_rails_are_ignored() {
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 100, 0),
            record(ParallelismAxis::Pipeline, 40, 40, 50, 64, 1),
        ];
        assert!(windows_on_rail(records.clone(), RailId(0)).is_empty());
        assert_eq!(phases_on_rail(records.clone(), RailId(1)).len(), 1);
    }

    #[test]
    fn cdf_and_bucketing() {
        let records = vec![
            record(ParallelismAxis::Data, 0, 0, 20, 3829, 0),
            record(ParallelismAxis::Pipeline, 120, 120, 130, 64, 0),
            record(ParallelismAxis::Data, 135, 135, 150, 957, 0),
        ];
        let windows = windows_on_rail(records.clone(), RailId(0));
        assert_eq!(windows.len(), 2);
        let cdf = window_cdf(&windows);
        assert_eq!(cdf.count(), 2);
        assert!(cdf.fraction_above(1.0) > 0.99, "both windows exceed 1 ms");

        let buckets = windows_by_following_traffic(&windows, default_traffic_buckets_mb());
        // The 100 ms window precedes the 64 MB PP phase (bucket 1); the 5 ms window
        // precedes the 957 MB DP phase (bucket 2).
        assert_eq!(buckets.buckets()[1].count(), 1);
        assert_eq!(buckets.buckets()[2].count(), 1);
        assert_eq!(buckets.buckets()[0].count(), 0);
    }
}
