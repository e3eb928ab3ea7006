//! Micro-benchmark: extracting inter-parallelism windows (Fig. 4) from a simulated
//! iteration's communication records.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{window_cdf, windows_on_rail, OpusConfig, ScenarioSpec};
use railsim_bench::{paper_cluster, paper_dag};
use railsim_topology::RailId;

fn bench_window_extraction(c: &mut Criterion) {
    let cluster = paper_cluster();
    let rails = cluster.all_rails();
    let config = OpusConfig {
        iterations: 2,
        compute_jitter: 0.05,
        seed: 42,
        ..OpusConfig::electrical()
    };
    let result = ScenarioSpec::new(cluster).job(paper_dag(), config).run();
    let records = &result.jobs[0].result.iterations[1].comm_records;

    c.bench_function("window_extraction_all_rails", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &rail in &rails {
                total += windows_on_rail(black_box(records).on_rail(rail), rail).len();
            }
            black_box(total)
        })
    });

    c.bench_function("window_cdf_rail0", |b| {
        let windows = windows_on_rail(records.on_rail(RailId(0)), RailId(0));
        b.iter(|| black_box(window_cdf(&windows).quantile(0.75)))
    });
}

criterion_group!(benches, bench_window_extraction);
criterion_main!(benches);
