//! Micro-benchmark: Opus controller request handling (circuit lookup, conflict check,
//! OCS programming) — the per-collective control-plane overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::{CircuitPlanner, OpusController};
use railsim_bench::paper_cluster;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{GpuId, OpticalRailFabric, PortGeometry};

fn bench_controller(c: &mut Criterion) {
    let cluster = paper_cluster();
    let planner = CircuitPlanner::for_cluster(&cluster);
    // Two groups sharing GPU 0's port force a tear-down/set-up on every alternation.
    let dp = CommGroup::new(GroupId(0), ParallelismAxis::Data, vec![GpuId(0), GpuId(4)]);
    let pp = CommGroup::new(
        GroupId(1),
        ParallelismAxis::Pipeline,
        vec![GpuId(0), GpuId(8)],
    );
    // Every controller call takes each group's circuits prepared once, as the
    // simulator does.
    let geometry = PortGeometry::of(&cluster);
    let (mut dp_plan, mut pp_plan) = (Vec::new(), Vec::new());
    planner
        .plan(&cluster, &dp)
        .resolve_into(geometry, &mut dp_plan);
    planner
        .plan(&cluster, &pp)
        .resolve_into(geometry, &mut pp_plan);

    c.bench_function("controller_alternating_requests_1k", |b| {
        b.iter(|| {
            let fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
            let mut controller = OpusController::new(fabric);
            let mut now = SimTime::ZERO;
            for i in 0..1000u64 {
                let (group, plan) = if i % 2 == 0 {
                    (dp.id, &dp_plan)
                } else {
                    (pp.id, &pp_plan)
                };
                let ready = controller.request(0, group, plan, now);
                controller.occupy(0, plan, ready + SimDuration::from_millis(1));
                now = ready + SimDuration::from_millis(1);
            }
            black_box(controller.events().len())
        })
    });
}

criterion_group!(benches, bench_controller);
criterion_main!(benches);
