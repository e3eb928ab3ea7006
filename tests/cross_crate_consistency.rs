//! Cross-crate consistency checks: the rank mapping, the cluster's rail structure, the
//! circuit planner and the DAG builder must all agree about which traffic goes where.

use photonic_rails::opus::{CircuitPlanner, GroupTable};
use photonic_rails::prelude::*;
use photonic_rails::workload::{RankMapping, TaskId, TaskKind};

fn cluster_and_parallelism(
    nodes: u32,
    parallel: ParallelismConfig,
) -> (Cluster, ParallelismConfig) {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build();
    assert_eq!(cluster.num_gpus(), parallel.world_size());
    (cluster, parallel)
}

#[test]
fn tensor_groups_stay_inside_scaleup_domains() {
    let (cluster, parallel) = cluster_and_parallelism(4, ParallelismConfig::paper_llama3_8b());
    let mapping = RankMapping::new(parallel);
    for group in mapping.build_comm_groups() {
        if group.axis == ParallelismAxis::Tensor {
            let nodes: std::collections::HashSet<_> =
                group.ranks.iter().map(|&g| cluster.node_of(g)).collect();
            assert_eq!(nodes.len(), 1, "TP group {group} must live in one node");
        }
    }
}

#[test]
fn data_and_pipeline_groups_stay_on_one_rail() {
    let (cluster, parallel) = cluster_and_parallelism(4, ParallelismConfig::paper_llama3_8b());
    let mapping = RankMapping::new(parallel);
    for group in mapping.build_comm_groups() {
        if matches!(
            group.axis,
            ParallelismAxis::Data | ParallelismAxis::Pipeline
        ) {
            let rails: std::collections::HashSet<_> =
                group.ranks.iter().map(|&g| cluster.rail_of(g)).collect();
            assert_eq!(rails.len(), 1, "{group} must map onto a single rail");
        }
    }
}

#[test]
fn planner_circuits_only_connect_same_rail_ports() {
    let (cluster, parallel) = cluster_and_parallelism(4, ParallelismConfig::paper_llama3_8b());
    let mapping = RankMapping::new(parallel);
    let planner = CircuitPlanner::for_cluster(&cluster);
    for group in mapping.build_comm_groups() {
        let plan = planner.plan(&cluster, &group);
        for (rail, config) in &plan.per_rail {
            for circuit in config.circuits() {
                assert_eq!(cluster.rail_of(circuit.a().gpu), *rail);
                assert_eq!(cluster.rail_of(circuit.b().gpu), *rail);
                assert!(
                    !cluster.same_node(circuit.a().gpu, circuit.b().gpu),
                    "intra-node pairs must use the scale-up interconnect, not a circuit"
                );
            }
        }
    }
}

#[test]
fn group_table_covers_every_dag_collective() {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    let table = GroupTable::build(&cluster, dag.groups.values());
    for task in dag.communication_tasks() {
        if let TaskKind::Collective { group, .. } = &task.kind {
            let entry = table.entry(*group).expect("group registered in the table");
            assert_eq!(entry.group.ranks.as_slice(), task.ranks());
        }
    }
}

#[test]
fn dag_scaleout_traffic_matches_topology_expectations() {
    // Simulate and cross-check: every scale-out record's rails must equal the rails of
    // its participants' local ranks; every scale-up record must involve a single node
    // or a tensor-parallel group.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    let scenario = ScenarioSpec::new(cluster.clone())
        .job(
            dag,
            OpusConfig {
                iterations: 1,
                ..OpusConfig::on_demand(SimDuration::from_millis(1))
            },
        )
        .run();
    let result = &scenario.jobs[0].result;
    for record in &result.iterations[0].comm_records {
        if record.scaleout {
            assert!(!record.rails.is_empty());
        } else {
            assert!(record.rails.is_empty());
        }
    }
}

#[test]
fn five_d_parallelism_maps_consistently_onto_a_bigger_cluster() {
    // 2 nodes of 8 GPUs would not fit 5-D; use 8 Perlmutter nodes (32 GPUs) with
    // TP=2, CP=2, EP=2, DP=2, PP=2.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 8).build();
    let parallel = ParallelismConfig {
        tensor: 2,
        sequence_parallel: true,
        context: 2,
        expert: 2,
        data: 2,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 2,
        num_microbatches: 2,
        microbatch_size: 1,
        seq_len: 2048,
    };
    assert_eq!(parallel.world_size(), cluster.num_gpus());
    let model = ModelConfig::mixtral_8x7b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    assert!(dag.validate().is_ok());

    // The job must simulate end to end on photonic rails.
    let scenario = ScenarioSpec::new(cluster)
        .job(
            dag,
            OpusConfig {
                iterations: 2,
                ..OpusConfig::provisioned(SimDuration::from_millis(15))
            },
        )
        .run();
    let result = &scenario.jobs[0].result;
    assert_eq!(result.iterations.len(), 2);
    assert!(result.steady_state_iteration_time() > SimDuration::ZERO);
    assert!(result.total_reconfigs() > 0);
}

#[test]
fn umbrella_crate_reexports_are_usable_together() {
    // A small smoke test that the prelude exposes a coherent API surface.
    let cluster = ClusterSpec::from_preset(NodePreset::DgxH200, 2).build();
    assert_eq!(cluster.num_rails(), 8);
    let cost = GpuBackendCostModel::dgx_h200_400g().evaluate(FabricKind::Opus, 1024);
    assert!(cost.capex_usd > 0.0);
    let bw = Bandwidth::from_gbps(400.0);
    assert_eq!(
        bw.transfer_time(Bytes::from_gb(1)),
        SimDuration::from_millis(20)
    );
}

#[test]
fn inference_replicas_are_disjoint_closed_subgraphs() {
    // The serving driver grows and shrinks a deployment by masking whole replica
    // slices in and out of the DAG. That is sound only if the inference builder
    // keeps replicas fully disjoint: every task's ranks inside one replica's
    // contiguous slice, every dependency edge inside the same replica, and every
    // comm group confined to a single replica. Check the promise end to end
    // against the ServingSpec geometry the scenario builder validates.
    let inference = InferenceConfig::tiny_test(4, 2, 3);
    let serving = ServingSpec::for_inference(&inference, 2);
    assert!(serving.is_valid());
    assert_eq!(
        serving.replicas * serving.gpus_per_replica,
        inference.world_size(),
        "spec geometry must cover the DAG's world exactly"
    );

    let dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
    assert!(dag.validate().is_ok());
    assert_eq!(
        dag.max_rank() + 1,
        serving.replicas * serving.gpus_per_replica
    );

    let width = serving.gpus_per_replica;
    let replica_of = |rank: GpuId| rank.0 / width;
    for i in 0..dag.len() {
        let task = dag.task(TaskId(i as u32));
        let replicas: std::collections::HashSet<_> =
            task.ranks().iter().copied().map(replica_of).collect();
        assert_eq!(
            replicas.len(),
            1,
            "task {:?} spans replicas {replicas:?}",
            task.id
        );
        let replica = *replicas.iter().next().unwrap();
        for &dep in task.deps {
            let dep_replica = replica_of(dag.task(dep).ranks()[0]);
            assert_eq!(
                dep_replica, replica,
                "dependency {dep:?} of task {:?} crosses replicas",
                task.id
            );
        }
    }

    for (id, group) in &dag.groups {
        let replicas: std::collections::HashSet<_> =
            group.ranks.iter().copied().map(replica_of).collect();
        assert_eq!(replicas.len(), 1, "comm group {id:?} spans replicas");
    }
}
