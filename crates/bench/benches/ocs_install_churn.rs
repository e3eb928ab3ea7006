//! Micro-benchmark: OCS circuit install churn — the matching-engine hot path of the
//! optical policy at datacenter scale.
//!
//! Alternates between a DP ring (every GPU of rail 0, 128 nodes) and a PP ring (every
//! 16th node on the same rail) on one rail of a 1024-GPU DGX H200 cluster. The two
//! configurations share every PP member's single NIC port, so each alternation tears
//! conflicting circuits down and sets the other ring up — exactly the
//! reconfiguration churn `table3_scalability`'s optical policy generates, isolated
//! from the event engine. The port-indexed matching keeps one alternation
//! O(affected ports) regardless of how many circuits the rail holds.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::CircuitPlanner;
use railsim_bench::scaled_cluster;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{OpticalRailFabric, PortGeometry, RailId};

fn bench_ocs_install_churn(c: &mut Criterion) {
    let cluster = scaled_cluster(1024);
    let planner = CircuitPlanner::for_cluster(&cluster);
    let rail = RailId(0);
    let rail_gpus = cluster.gpus_in_rail(rail);
    let dp = CommGroup::new(GroupId(0), ParallelismAxis::Data, rail_gpus.clone());
    let pp = CommGroup::new(
        GroupId(1),
        ParallelismAxis::Pipeline,
        rail_gpus.iter().copied().step_by(16).collect(),
    );
    // Both rings are prepared once, as the simulator prepares its plans; every
    // member is on `rail`, so each plan is one run of that rail's circuits.
    let geometry = PortGeometry::of(&cluster);
    let (mut dp_circuits, mut pp_circuits) = (Vec::new(), Vec::new());
    planner
        .plan(&cluster, &dp)
        .resolve_into(geometry, &mut dp_circuits);
    planner
        .plan(&cluster, &pp)
        .resolve_into(geometry, &mut pp_circuits);

    let mut fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
    let mut now = SimTime::ZERO;
    c.bench_function("ocs_install_churn_rail0", |b| {
        b.iter(|| {
            // One full churn cycle: DP ring in, PP ring displaces its shared ports,
            // next iteration's DP install rebuilds them.
            now = fabric
                .ocs_mut(rail)
                .install(black_box(&dp_circuits), now)
                .expect("radix covers the full rail");
            now = fabric
                .ocs_mut(rail)
                .install(black_box(&pp_circuits), now)
                .expect("radix covers the full rail");
            black_box(now)
        })
    });
    black_box(fabric.ocs(rail).circuits_set_up());
}

criterion_group!(benches, bench_ocs_install_churn);
criterion_main!(benches);
