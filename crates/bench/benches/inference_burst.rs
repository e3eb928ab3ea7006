//! Macro-benchmark of the serving datapath: a mixed training + inference scenario
//! with open-loop request bursts and an elastic grow/shrink pulse, end to end.
//! Tracks the serving loop (backlog-driven iterations, replica masking) and the
//! tenant-eviction claim path on top of the scenario overhead that `scenario_step`
//! gates — `inference_burst_never` runs the tenancy-off datapath,
//! `inference_burst_fair_share` the full eviction machinery on conflicting circuits.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{EvictionPolicy, JobPlacement, OpusConfig, ScenarioEvent, ScenarioSpec, ServingSpec};
use railsim_bench::{paper_compute, paper_model, paper_parallelism};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{ClusterSpec, NodePreset};
use railsim_workload::{
    DagBuilder, GpuSpec, InferenceConfig, InferenceDagBuilder, JobId, TrainingDag,
};
use std::sync::Arc;

/// The committed contention scenario: a 16-rank trainer packed at GPU 0 and a
/// 2-replica serving tenant one node over, so the tenants' circuits conflict on
/// rails 0-3 (see EXPERIMENTS.md, "Inference serving semantics").
fn run_mixed(train_dag: &Arc<TrainingDag>, eviction: EvictionPolicy) -> SimTime {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 5).build();
    let config = OpusConfig {
        iterations: 3,
        compute_jitter: 0.0,
        seed: 1,
        eviction,
        ..OpusConfig::on_demand(SimDuration::from_millis(25))
    };
    let inference = InferenceConfig::tiny_test(4, 2, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
    let result = ScenarioSpec::new(cluster)
        .job(Arc::clone(train_dag), config)
        .serving_job(serve_dag, config, JobPlacement::AtGpu(4), serving)
        .inject(
            SimTime::from_millis(1),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 8,
            },
        )
        .inject(
            SimTime::from_millis(20),
            ScenarioEvent::JobGrow { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(25),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 12,
            },
        )
        .inject(
            SimTime::from_millis(60),
            ScenarioEvent::JobShrink { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(70),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 6,
            },
        )
        .run();
    result.fleet.makespan
}

fn bench_inference_burst(c: &mut Criterion) {
    let train_dag =
        Arc::new(DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build());

    let mut group = c.benchmark_group("inference_burst");
    group.sample_size(20);
    group.bench_function("inference_burst_never", |b| {
        b.iter(|| black_box(run_mixed(&train_dag, EvictionPolicy::Never)))
    });
    group.bench_function("inference_burst_fair_share", |b| {
        b.iter(|| black_box(run_mixed(&train_dag, EvictionPolicy::FairShare)))
    });
    group.finish();
}

criterion_group!(benches, bench_inference_burst);
criterion_main!(benches);
