//! Macro-benchmark: one full training-iteration simulation under each network policy
//! (the engine behind Fig. 8).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{OpusConfig, ScenarioSpec};
use railsim_bench::{paper_cluster, paper_dag};
use railsim_sim::{SimDuration, SimTime};
use std::sync::Arc;

fn bench_iteration_sim(c: &mut Criterion) {
    let cluster = paper_cluster();
    let dag = Arc::new(paper_dag());
    let run = |config: OpusConfig| -> SimTime {
        let result = ScenarioSpec::new(cluster.clone())
            .job(Arc::clone(&dag), config)
            .run();
        result.fleet.makespan
    };

    let mut group = c.benchmark_group("iteration_simulation");
    group.sample_size(20);
    group.bench_function("electrical_baseline", |b| {
        let config = OpusConfig {
            iterations: 1,
            ..OpusConfig::electrical()
        };
        b.iter(|| black_box(run(config)))
    });
    group.bench_function("optical_provisioned_25ms_2iters", |b| {
        let config = OpusConfig {
            iterations: 2,
            ..OpusConfig::provisioned(SimDuration::from_millis(25))
        };
        b.iter(|| black_box(run(config)))
    });
    group.finish();
}

criterion_group!(benches, bench_iteration_sim);
criterion_main!(benches);
