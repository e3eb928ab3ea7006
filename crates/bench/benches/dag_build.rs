//! Micro-benchmark: building the Llama3-8B 3D-parallel training DAG (the workload
//! generator behind Fig. 2/3/4/8) and its execution layout.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use railsim_bench::{paper_compute, paper_model, paper_parallelism};
use railsim_workload::DagBuilder;

fn bench_dag_build(c: &mut Criterion) {
    c.bench_function("dag_build_llama3_8b_3d", |b| {
        b.iter(|| {
            let dag = DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build();
            black_box(dag.len())
        })
    });

    // A fresh DAG per iteration, so the once-per-graph layout pass is timed with it.
    c.bench_function("dag_build_and_layout_llama3_8b_3d", |b| {
        b.iter(|| {
            let dag = DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build();
            black_box(dag.layout().order().len())
        })
    });

    // The order is the cached layout's, so this times a copy of it.
    c.bench_function("dag_topological_sort_llama3_8b_3d", |b| {
        let dag = DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build();
        b.iter(|| black_box(dag.topological_order().expect("acyclic").len()))
    });
}

criterion_group!(benches, bench_dag_build);
criterion_main!(benches);
