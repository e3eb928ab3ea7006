//! Fig. 3: the per-rail PP/FSDP communication pattern of one iteration, split into
//! parallelism phases (maximal runs of rail-0 operations of one axis), for (a) PP=2,
//! FSDP=2 and (b) PP=3, FSDP=2, together with the distinct circuit configurations each
//! rail cycles through.

use opus::{phases_on_rail, OpusConfig, ScenarioSpec};
use railsim_bench::Report;
use railsim_sim::SimDuration;
use railsim_topology::{ClusterSpec, NodePreset, RailId};
use railsim_workload::pipeline::bubble_fraction;
use railsim_workload::{ComputeModel, DagBuilder, GpuSpec, ModelConfig, ParallelismConfig};
use serde::Serialize;

#[derive(Serialize)]
struct PhaseRow {
    variant: String,
    rail: u32,
    axis: String,
    start_ms: f64,
    end_ms: f64,
    bytes_mb: f64,
    operations: usize,
}

fn run_variant(name: &str, parallel: ParallelismConfig, rows: &mut Vec<PhaseRow>) {
    let nodes = parallel.world_size() / 4;
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build();
    let model = ModelConfig::llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel.clone(), compute).build();

    // Electrical fabric: Fig. 3 shows the application's intrinsic pattern.
    let mut config = OpusConfig::electrical();
    config.iterations = 1;
    config.compute_jitter = 0.0;
    config.seed = 1;
    let scenario = ScenarioSpec::new(cluster).job(dag, config).run();
    let result = &scenario.jobs[0].result;
    let it = &result.iterations[0];

    let mut report = Report::new(
        format!(
            "Fig. 3{name} — rail-0 communication phases (PP={}, FSDP={}, 1F1B, mb={})",
            parallel.pipeline, parallel.data, parallel.num_microbatches
        ),
        &["phase#", "axis", "start (ms)", "end (ms)", "volume", "ops"],
    );
    let phases = phases_on_rail(it.records_on_rail(RailId(0)), RailId(0));
    for (i, phase) in phases.iter().enumerate() {
        report.row(&[
            i.to_string(),
            phase.axis.to_string(),
            format!("{:.1}", phase.first_issue.as_millis_f64()),
            format!("{:.1}", phase.last_end.as_millis_f64()),
            phase.bytes.to_string(),
            phase.operations.to_string(),
        ]);
        rows.push(PhaseRow {
            variant: name
                .trim_start_matches(['(', ' '])
                .trim_end_matches(')')
                .to_string(),
            rail: 0,
            axis: phase.axis.to_string(),
            start_ms: phase.first_issue.as_millis_f64(),
            end_ms: phase.last_end.as_millis_f64(),
            bytes_mb: phase.bytes.as_mb_f64(),
            operations: phase.operations,
        });
    }
    // The distinct circuit configurations the rail cycles through = the number of
    // distinct communication groups that appear on it (Fig. 3's "circuit config" row).
    let mut groups: Vec<_> = it
        .records_on_rail(RailId(0))
        .filter_map(|r| r.group)
        .collect();
    groups.sort();
    groups.dedup();
    report.note(format!(
        "distinct circuit configurations on rail 0: {} (one per communication group)",
        groups.len()
    ));
    report.note(format!(
        "pipeline bubble fraction: {:.2}",
        bubble_fraction(parallel.pipeline, parallel.num_microbatches)
    ));
    report.note(format!(
        "iteration time: {}",
        SimDuration::from_secs_f64(it.iteration_time.as_secs_f64())
    ));
    report.print();
    println!();
}

fn main() {
    let mut rows = Vec::new();
    run_variant("(a)", ParallelismConfig::paper_llama3_8b(), &mut rows);
    run_variant("(b)", ParallelismConfig::paper_llama3_8b_pp3(), &mut rows);
    Report::write_json("fig3_comm_pattern", &rows);
}
