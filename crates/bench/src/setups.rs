//! Canonical experiment setups shared by the binaries and the criterion benches.

use opus::OpusConfig;
use railsim_sim::SimDuration;
use railsim_topology::{Cluster, ClusterSpec, NodePreset};
use railsim_workload::{
    ComputeModel, DagBuilder, DataParallelKind, GpuSpec, ModelConfig, ParallelismConfig,
    TrainingDag,
};

/// The paper's §3.1 testbed: 4 Perlmutter GPU nodes (4× A100, NVLink 3.0, Slingshot-11).
pub fn paper_cluster() -> Cluster {
    ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
}

/// The paper's workload model: Llama 3 8B.
pub fn paper_model() -> ModelConfig {
    ModelConfig::llama3_8b()
}

/// The paper's parallelism configuration: TP=4 (intra-node), FSDP=2, PP=2,
/// micro-batch size 2, 1F1B schedule.
pub fn paper_parallelism() -> ParallelismConfig {
    ParallelismConfig::paper_llama3_8b()
}

/// The compute model for the paper's workload on A100 GPUs.
pub fn paper_compute() -> ComputeModel {
    ComputeModel::derive(&paper_model(), &paper_parallelism(), &GpuSpec::a100())
}

/// The execution DAG of one training iteration of the paper's workload.
pub fn paper_dag() -> TrainingDag {
    DagBuilder::new(paper_model(), paper_parallelism(), paper_compute()).build()
}

/// A larger-global-batch variant of the paper workload (8 micro-batches instead of 2).
/// The authors' measured iteration on Perlmutter is several seconds long (their Fig. 4
/// reports windows up to a second); our roofline compute model underestimates the
/// per-iteration work of the 2-micro-batch configuration, so Fig. 8 style sweeps use
/// this variant to keep the ratio of reconfiguration delay to iteration time in the
/// regime the paper studies. See EXPERIMENTS.md for the calibration note.
pub fn paper_dag_large_batch() -> TrainingDag {
    let mut parallel = paper_parallelism();
    parallel.num_microbatches = 8;
    let compute = ComputeModel::derive(&paper_model(), &parallel, &GpuSpec::a100());
    DagBuilder::new(paper_model(), parallel, compute).build()
}

/// The reconfiguration latencies (in milliseconds) swept by Fig. 8.
pub fn fig8_latencies_ms() -> Vec<f64> {
    vec![0.1, 1.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0]
}

/// A datacenter-scale cluster with `spare_nodes` extra DGX H200 nodes beyond the
/// job's world size — headroom for shifted placement cells (a fleet sweep placing
/// the same job at a non-zero GPU offset) and for co-located serving tenants.
pub fn scaled_cluster_with_spare(num_gpus: u32, spare_nodes: u32) -> Cluster {
    assert!(
        num_gpus > 0 && num_gpus.is_multiple_of(64),
        "scaled setups need a positive multiple of 64 GPUs (8 per node x PP=8), got {num_gpus}"
    );
    ClusterSpec::from_preset(NodePreset::DgxH200, num_gpus / 8 + spare_nodes).build()
}

/// A datacenter-scale cluster of DGX H200 nodes (8 GPUs, 8 rails, ConnectX-7 400 G).
///
/// # Panics
/// Panics unless `num_gpus` is a positive multiple of 64 (see [`scaled_parallelism`]).
pub fn scaled_cluster(num_gpus: u32) -> Cluster {
    assert!(
        num_gpus > 0 && num_gpus.is_multiple_of(64),
        "scaled setups need a positive multiple of 64 GPUs (8 per node x PP=8), got {num_gpus}"
    );
    ClusterSpec::from_preset(NodePreset::DgxH200, num_gpus / 8).build()
}

/// The parallelism configuration of the datacenter-scale runs: TP=8 inside the
/// scale-up domain (matching the DGX H200 node), PP=8 across nodes, and FSDP over the
/// remaining factor — the TP×PP×DP recipe Table 1 prescribes for large models beyond
/// 1024 GPUs. 8 micro-batches keep the 1F1B pipeline full.
pub fn scaled_parallelism(num_gpus: u32) -> ParallelismConfig {
    assert!(
        num_gpus > 0 && num_gpus.is_multiple_of(64),
        "TP=8 x PP=8 needs a positive multiple of 64 GPUs, got {num_gpus}"
    );
    ParallelismConfig {
        tensor: 8,
        sequence_parallel: true,
        context: 1,
        expert: 1,
        data: num_gpus / 64,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 8,
        num_microbatches: 8,
        microbatch_size: 1,
        seq_len: 8192,
    }
}

/// The canonical simulation configuration of the datacenter-scale runs, shared by
/// `table3_scalability` and `fig7_cost_power --simulate` so the two binaries always
/// report the same regime: provisioned optical with a 25 ms piezo-class OCS, jitter
/// disabled for run-to-run comparability. (The electrical baseline is this with the
/// electrical policy and a zero reconfiguration latency.)
pub fn scale_run_config(iterations: u32) -> OpusConfig {
    let mut config = OpusConfig::provisioned(SimDuration::from_millis(25));
    config.iterations = iterations;
    config.compute_jitter = 0.0;
    config.seed = 1;
    config
}

/// The execution DAG of one training iteration at datacenter scale (Llama 3 8B under
/// [`scaled_parallelism`], compute modeled on the H200 of the [`scaled_cluster`]
/// nodes). At 10240 GPUs this is on the order of a million tasks — the regime the
/// columnar DAG and the timestamp-bucketed event engine exist for.
pub fn scaled_dag(num_gpus: u32) -> TrainingDag {
    let parallel = scaled_parallelism(num_gpus);
    let compute = ComputeModel::derive(&paper_model(), &parallel, &GpuSpec::h200());
    DagBuilder::new(paper_model(), parallel, compute).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setup_is_consistent() {
        let cluster = paper_cluster();
        let parallel = paper_parallelism();
        assert_eq!(cluster.num_gpus(), parallel.world_size());
        assert_eq!(cluster.num_rails(), 4);
        let dag = paper_dag();
        assert!(dag.validate().is_ok());
    }

    #[test]
    fn large_batch_variant_has_more_microbatches() {
        let base = paper_dag();
        let large = paper_dag_large_batch();
        assert!(large.len() > base.len());
    }

    #[test]
    fn scaled_setup_is_consistent_at_small_scale() {
        // 128 GPUs keeps the debug-build test quick; the 1k-10k sizes run in the
        // release-mode CI smoke step and the table3_scalability binary.
        let cluster = scaled_cluster(128);
        let parallel = scaled_parallelism(128);
        assert_eq!(cluster.num_gpus(), 128);
        assert_eq!(cluster.num_rails(), 8);
        assert_eq!(parallel.world_size(), 128);
        assert!(parallel.validate(128).is_ok());
        let dag = scaled_dag(128);
        assert!(dag.validate().is_ok());
        assert!(
            dag.len() > 128,
            "a 128-GPU iteration has thousands of tasks"
        );
    }

    #[test]
    fn scale_gpu_counts_cover_the_table3_regime() {
        // The paper regime `table3_scalability` documents and the 100k ceiling: every
        // size must be constructible.
        for n in [1024, 4096, 10240, 102_400] {
            let p = scaled_parallelism(n);
            assert!(p.validate(n).is_ok());
        }
    }

    #[test]
    fn the_100k_preset_is_well_formed() {
        // Validate the configuration without building the ~9M-task DAG (that runs in
        // release mode via `table3_scalability --gpus 102400`; see EXPERIMENTS.md).
        // 12800 DGX H200 nodes: TP=8 x PP=8 x FSDP=1600.
        let cluster = scaled_cluster(102_400);
        assert_eq!(cluster.num_gpus(), 102_400);
        assert_eq!(cluster.num_rails(), 8);
        let p = scaled_parallelism(102_400);
        assert_eq!(p.data, 1600);
        assert!(p.validate(102_400).is_ok());
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn scaled_setup_rejects_unaligned_sizes() {
        let _ = scaled_parallelism(100);
    }

    #[test]
    fn fig8_sweep_matches_the_paper_x_axis() {
        let xs = fig8_latencies_ms();
        assert_eq!(xs.len(), 10);
        assert_eq!(xs[0], 0.1);
        assert_eq!(*xs.last().unwrap(), 1000.0);
    }
}
