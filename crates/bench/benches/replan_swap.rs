//! Micro-benchmark: the failure-aware replan hot path — degraded-schedule recompute
//! plus the circuit swap it triggers.
//!
//! A DP ring occupies every GPU of rail 0 on a 1024-GPU DGX H200 cluster; the rail
//! then fails. `replan_swap_recompute` isolates `CircuitPlanner::replan_degraded`:
//! re-striping the dead rail's circuits onto the surviving rails (round-robin
//! assignment + per-GPU port watermarks). `replan_swap_install` times the fabric side
//! of the swap on its own: the degraded plan is computed once, outside the timed
//! loop, and one iteration resolves it to the fabric's dense tables, installs it on
//! the surviving rails and tears it back down (the `RailUp` swap-back) — the fabric
//! work `RecoveryPolicy::Replan` pays per health transition, isolated from the event
//! engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use opus::CircuitPlanner;
use railsim_bench::scaled_cluster;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{OpticalRailFabric, PortGeometry, RailId};

fn bench_replan_swap(c: &mut Criterion) {
    let cluster = scaled_cluster(1024);
    let planner = CircuitPlanner::for_cluster(&cluster);
    let failed = RailId(0);
    let dp = CommGroup::new(
        GroupId(0),
        ParallelismAxis::Data,
        cluster.gpus_in_rail(failed),
    );
    let pristine = planner.plan(&cluster, &dp);
    assert!(pristine.per_rail.contains_key(&failed));
    let healthy: Vec<RailId> = (1..cluster.num_rails()).map(RailId).collect();

    c.bench_function("replan_swap_recompute", |b| {
        b.iter(|| {
            let degraded = planner.replan_degraded(&cluster, black_box(&pristine), healthy.clone());
            assert!(!degraded.is_scaleup_only());
            black_box(degraded)
        })
    });

    let geometry = PortGeometry::of(&cluster);
    let mut fabric = OpticalRailFabric::for_cluster(&cluster, SimDuration::from_millis(25));
    let mut now = SimTime::ZERO;
    let mut plan = Vec::new();
    let degraded = planner.replan_degraded(&cluster, &pristine, healthy);
    c.bench_function("replan_swap_install", |b| {
        b.iter(|| {
            // A swap prepares the slot's plan again: resolve the degraded circuits.
            plan.clear();
            black_box(&degraded).resolve_into(geometry, &mut plan);
            // Degrade: the replanned circuits land on the surviving rails.
            for run in plan.chunk_by(|a, b| a.rail() == b.rail()) {
                now = fabric
                    .ocs_mut(run[0].rail())
                    .install(run, now)
                    .expect("radix covers the displaced ring");
            }
            // Restore (RailUp): withdraw the degraded plan again.
            for run in plan.chunk_by(|a, b| a.rail() == b.rail()) {
                black_box(fabric.ocs_mut(run[0].rail()).tear_down(run));
            }
            black_box(now)
        })
    });
}

criterion_group!(benches, bench_replan_swap);
criterion_main!(benches);
