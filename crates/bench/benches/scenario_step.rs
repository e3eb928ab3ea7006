//! Macro-benchmark of the scenario driver: a two-job shared-rail scenario with a
//! rail-flap pulse, end to end. Tracks the multi-job overhead — the per-job context
//! multiplexing, the injected-event class and the fleet counters — on top of the
//! single-job hot path that `iteration_sim` gates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{OpusConfig, ScenarioEvent, ScenarioSpec};
use railsim_bench::{paper_cluster, paper_dag};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{ClusterSpec, NodePreset, RailId};
use std::sync::Arc;

fn bench_scenario_step(c: &mut Criterion) {
    let single_cluster = paper_cluster();
    let two_job_cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 8).build();
    let dag = Arc::new(paper_dag());
    let config = OpusConfig {
        iterations: 2,
        compute_jitter: 0.0,
        seed: 7,
        ..OpusConfig::provisioned(SimDuration::from_millis(25))
    };

    let mut group = c.benchmark_group("scenario_step");
    group.sample_size(20);
    // Baseline shape: one clean job.
    group.bench_function("single_job_clean", |b| {
        b.iter(|| {
            let result = ScenarioSpec::new(single_cluster.clone())
                .job(Arc::clone(&dag), config)
                .run();
            black_box(result.fleet.makespan)
        })
    });
    // The scenario-only machinery: two jobs on shared rails plus a rail-flap pulse.
    group.bench_function("two_job_rail_flap", |b| {
        b.iter(|| {
            let result = ScenarioSpec::new(two_job_cluster.clone())
                .job(Arc::clone(&dag), config)
                .job(Arc::clone(&dag), config)
                .inject(
                    SimTime::from_millis(200),
                    ScenarioEvent::RailDown(RailId(0)),
                )
                .inject(SimTime::from_millis(400), ScenarioEvent::RailUp(RailId(0)))
                .run();
            black_box(result.fleet.makespan)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_scenario_step);
criterion_main!(benches);
