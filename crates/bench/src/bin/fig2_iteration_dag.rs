//! Fig. 2: the collective sequence of one 3D-parallel training iteration.
//!
//! Prints a summary of the execution DAG (task counts per traffic class) and the
//! ordered sequence of communication operations rank 0 and its pipeline peer issue,
//! which is the structure Fig. 2 draws.

use railsim_bench::{paper_dag, Report};
use railsim_topology::GpuId;
use railsim_workload::TaskKind;

fn main() {
    let dag = paper_dag();

    let mut summary = Report::new(
        "Fig. 2 — execution DAG of one 3D-parallel training iteration",
        &["Metric", "Value"],
    );
    summary.row(&["total tasks".into(), dag.len().to_string()]);
    summary.row(&[
        "compute tasks".into(),
        dag.compute_tasks().count().to_string(),
    ]);
    summary.row(&[
        "communication tasks".into(),
        dag.communication_tasks().count().to_string(),
    ]);
    summary.row(&["communication groups".into(), dag.groups.len().to_string()]);
    summary.row(&[
        "total traffic".into(),
        dag.total_communication_bytes().to_string(),
    ]);
    for prefix in ["FSDP-AG", "FSDP-RS", "TP-", "PP-fwd", "PP-bwd", "sync-AR"] {
        let count = dag
            .tasks()
            .filter(|t| t.label_str().starts_with(prefix))
            .count();
        summary.row(&[format!("{prefix}* tasks"), count.to_string()]);
    }
    summary.print();
    println!();

    // The per-rank communication sequence Fig. 2 illustrates (rank 0 = stage 0, its
    // pipeline peer = stage 1), truncated for readability.
    for rank in [GpuId(0), GpuId(8)] {
        let mut seq = Report::new(
            format!("communication sequence of {rank} (first 20 operations)"),
            &["#", "operation", "axis", "bytes"],
        );
        let comms: Vec<_> = dag
            .tasks_of_rank(rank)
            .into_iter()
            .filter(|t| t.kind.is_communication())
            .take(20)
            .collect();
        for (i, task) in comms.iter().enumerate() {
            let (axis, bytes) = match &task.kind {
                TaskKind::Collective { axis, bytes, .. } => (axis.to_string(), bytes.to_string()),
                TaskKind::PointToPoint { axis, bytes, .. } => (axis.to_string(), bytes.to_string()),
                TaskKind::Compute { .. } => unreachable!("filtered to communication tasks"),
            };
            seq.row(&[i.to_string(), task.label.to_string(), axis, bytes]);
        }
        seq.print();
        println!();
    }
}
