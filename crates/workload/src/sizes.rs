//! Communication volume calculators (Table 2 of the paper).
//!
//! Each parallelism axis moves a different kind of tensor:
//!
//! | axis | forward | backward | volume |
//! |------|---------|----------|--------|
//! | DP   | —       | AllReduce of gradients | gradient bytes per layer/bucket |
//! | FSDP | AllGather of parameters | AllGather + ReduceScatter | parameter / gradient bytes per layer |
//! | TP (+SP) | AllReduce (or AG/RS) of activations | same | activation bytes per operator |
//! | CP   | AllGather of KV | ReduceScatter | KV-cache bytes per layer |
//! | PP   | Send/Recv of activations | Send/Recv of activation gradients | activation bytes per micro-batch |
//! | EP   | AllToAll of routed tokens | AllToAll | routed token bytes per layer |
//!
//! All functions return the *logical buffer size* as defined by the conventions in
//! [`railsim_collectives::cost`].

use crate::model::ModelConfig;
use crate::parallelism::ParallelismConfig;
use railsim_sim::Bytes;

/// Sizes of the communication buffers for a specific (model, parallelism) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSizes {
    /// Bytes AllGathered per layer by FSDP in the forward pass (the full layer
    /// parameter shard owned by this TP column).
    pub fsdp_allgather_per_layer: Bytes,
    /// Bytes ReduceScattered per layer by FSDP in the backward pass (gradients, often
    /// at higher precision).
    pub fsdp_reducescatter_per_layer: Bytes,
    /// Bytes AllReduced per layer by plain DP in the backward pass.
    pub dp_allreduce_per_layer: Bytes,
    /// Bytes moved by one TP collective (activation AllReduce per operator pair).
    pub tp_allreduce_per_layer: Bytes,
    /// Bytes of one pipeline Send/Recv (activations of one micro-batch at the stage
    /// boundary).
    pub pp_sendrecv_per_microbatch: Bytes,
    /// Bytes AllGathered per layer by context parallelism (KV blocks).
    pub cp_allgather_per_layer: Bytes,
    /// Bytes exchanged per layer by expert parallelism (AllToAll of routed tokens).
    pub ep_alltoall_per_layer: Bytes,
    /// Bytes of one optimizer-phase synchronization AllReduce (grad-norm / loss scalar
    /// reductions — the "<1 MB" bucket of Fig. 4(b)).
    pub sync_allreduce: Bytes,
}

impl TrafficSizes {
    /// Derives all buffer sizes from the model and parallelism configuration.
    pub fn derive(model: &ModelConfig, parallel: &ParallelismConfig) -> Self {
        let dtype = model.dtype.bytes();
        let grad_dtype = model.grad_dtype.bytes();
        let tp = parallel.tensor.max(1) as u64;
        let cp = parallel.context.max(1) as u64;
        let dp = parallel.data.max(1) as u64;

        // Parameters of one layer owned by one TP column.
        let layer_params_per_tp = model.params_per_layer() / tp;

        // FSDP forward AllGather reassembles the full (TP-sharded) layer parameters.
        let fsdp_allgather_per_layer = Bytes::new(layer_params_per_tp * dtype);
        // Backward ReduceScatter reduces the layer gradients (fp32 master gradients).
        let fsdp_reducescatter_per_layer = Bytes::new(layer_params_per_tp * grad_dtype);
        // Plain DP AllReduces the same gradients.
        let dp_allreduce_per_layer = Bytes::new(layer_params_per_tp * grad_dtype);

        // Activation tensor of one micro-batch: mbs × seq × hidden elements.
        let activation_elems =
            parallel.microbatch_size as u64 * parallel.seq_len as u64 * model.hidden_size / cp;
        // TP AllReduce: two per layer (attention output + MLP output); we account for
        // both in a single per-layer figure.
        let tp_allreduce_per_layer = Bytes::new(2 * activation_elems * dtype);

        // Pipeline boundary activations. With sequence parallelism the activation is
        // sharded across the TP group before the Send/Recv.
        let pp_shard = if parallel.sequence_parallel { tp } else { 1 };
        let pp_sendrecv_per_microbatch = Bytes::new(activation_elems * dtype / pp_shard);

        // Context parallelism gathers KV blocks: 2 (K and V) × seq × kv_dim per
        // micro-batch, sharded across CP.
        let cp_allgather_per_layer = Bytes::new(
            2 * parallel.microbatch_size as u64 * parallel.seq_len as u64 * model.kv_dim() * dtype
                / cp.max(1),
        );

        // Expert parallelism: each token's hidden vector is routed to `experts_per_token`
        // experts; the AllToAll moves the full routed activation volume.
        let ep_alltoall_per_layer =
            Bytes::new(activation_elems * dtype * model.experts_per_token.max(1) as u64);

        // Optimizer-phase synchronization collectives: gradient-norm and loss scalars,
        // plus small mixed-precision bookkeeping — well under 1 MB.
        let sync_allreduce = Bytes::from_kb(64.min(64 * dp));

        TrafficSizes {
            fsdp_allgather_per_layer,
            fsdp_reducescatter_per_layer,
            dp_allreduce_per_layer,
            tp_allreduce_per_layer,
            pp_sendrecv_per_microbatch,
            cp_allgather_per_layer,
            ep_alltoall_per_layer,
            sync_allreduce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sizes() -> TrafficSizes {
        TrafficSizes::derive(
            &ModelConfig::llama3_8b(),
            &ParallelismConfig::paper_llama3_8b(),
        )
    }

    #[test]
    fn paper_buckets_are_ordered_like_fig4b() {
        // Fig. 4(b): sync AR (<1 MB) < PP Send/Recv (~64 MB) < DP AllGather (~1 GB per
        // phase) < DP ReduceScatter (~4 GB per phase).
        let s = paper_sizes();
        let layers_per_stage = 16;
        let sync = s.sync_allreduce.as_mb_f64();
        let pp = s.pp_sendrecv_per_microbatch.as_mb_f64();
        // One DP AllGather or ReduceScatter phase covers every layer of a stage.
        let ag = (s.fsdp_allgather_per_layer * layers_per_stage).as_mb_f64();
        let rs = (s.fsdp_reducescatter_per_layer * layers_per_stage).as_mb_f64();
        assert!(sync < 1.0, "sync AR should be <1MB, got {sync}");
        assert!(
            (10.0..200.0).contains(&pp),
            "PP send/recv should be tens of MB, got {pp}"
        );
        assert!(
            (500.0..3000.0).contains(&ag),
            "DP AG phase should be ~1-2 GB, got {ag}"
        );
        assert!(
            (2000.0..6000.0).contains(&rs),
            "DP RS phase should be ~4 GB, got {rs}"
        );
        assert!(sync < pp && pp < ag && ag < rs);
    }

    #[test]
    fn reducescatter_uses_higher_precision_than_allgather() {
        let s = paper_sizes();
        // fp32 gradients vs bf16 parameters: exactly 2x.
        assert_eq!(
            s.fsdp_reducescatter_per_layer.as_u64(),
            2 * s.fsdp_allgather_per_layer.as_u64()
        );
    }

    #[test]
    fn sequence_parallelism_shards_pipeline_activations() {
        let model = ModelConfig::llama3_8b();
        let mut with_sp = ParallelismConfig::paper_llama3_8b();
        with_sp.sequence_parallel = true;
        let mut without_sp = with_sp.clone();
        without_sp.sequence_parallel = false;
        let a = TrafficSizes::derive(&model, &with_sp).pp_sendrecv_per_microbatch;
        let b = TrafficSizes::derive(&model, &without_sp).pp_sendrecv_per_microbatch;
        assert_eq!(
            b.as_u64(),
            a.as_u64() * 4,
            "SP shards the activation across TP=4"
        );
    }

    #[test]
    fn tensor_parallelism_reduces_per_gpu_parameter_traffic() {
        let model = ModelConfig::llama3_8b();
        let tp4 = ParallelismConfig::paper_llama3_8b();
        let mut tp1 = tp4.clone();
        tp1.tensor = 1;
        tp1.data = 8; // keep world size 16
        let s4 = TrafficSizes::derive(&model, &tp4);
        let s1 = TrafficSizes::derive(&model, &tp1);
        assert_eq!(
            s1.fsdp_allgather_per_layer.as_u64(),
            4 * s4.fsdp_allgather_per_layer.as_u64()
        );
    }

    #[test]
    fn moe_alltoall_scales_with_routed_experts() {
        let moe = ModelConfig::mixtral_8x7b();
        let dense = ModelConfig::llama3_8b();
        let p = ParallelismConfig::paper_llama3_8b();
        let s_moe = TrafficSizes::derive(&moe, &p);
        let s_dense = TrafficSizes::derive(&dense, &p);
        assert_eq!(
            s_moe.ep_alltoall_per_layer.as_u64(),
            2 * s_dense.ep_alltoall_per_layer.as_u64(),
            "top-2 routing doubles the AllToAll volume"
        );
    }

    #[test]
    fn context_parallelism_shards_activations_and_kv() {
        let model = ModelConfig::llama3_8b();
        let mut base = ParallelismConfig::paper_llama3_8b();
        base.data = 1;
        base.context = 2; // world size stays 16
        let with_cp = TrafficSizes::derive(&model, &base);
        let no_cp = TrafficSizes::derive(&model, &ParallelismConfig::paper_llama3_8b());
        assert!(with_cp.cp_allgather_per_layer < no_cp.cp_allgather_per_layer);
        assert!(with_cp.tp_allreduce_per_layer < no_cp.tp_allreduce_per_layer);
    }

    #[test]
    fn dp_volume_depends_on_kind() {
        // The training DAG reduces each layer's gradients along DP with an AllReduce
        // of `dp_allreduce_per_layer` under plain DP and a ReduceScatter of
        // `fsdp_reducescatter_per_layer` under FSDP.
        use crate::{ComputeModel, DagBuilder, DataParallelKind, GpuSpec, TaskKind};
        use railsim_collectives::{CollectiveKind, ParallelismAxis};
        let model = ModelConfig::tiny_test();
        for data_kind in [DataParallelKind::AllReduce, DataParallelKind::FullySharded] {
            let parallel = ParallelismConfig {
                data_kind,
                ..ParallelismConfig::paper_llama3_8b()
            };
            let s = TrafficSizes::derive(&model, &parallel);
            let (gradients, per_layer) = match data_kind {
                DataParallelKind::AllReduce => {
                    (CollectiveKind::AllReduce, s.dp_allreduce_per_layer)
                }
                DataParallelKind::FullySharded => (
                    CollectiveKind::ReduceScatter,
                    s.fsdp_reducescatter_per_layer,
                ),
            };
            let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
            let dag = DagBuilder::new(model.clone(), parallel, compute).build();
            let sizes: Vec<Bytes> = dag
                .tasks()
                .filter_map(|t| match t.kind {
                    TaskKind::Collective {
                        kind,
                        axis: ParallelismAxis::Data,
                        bytes,
                        ..
                    } if kind == gradients => Some(bytes),
                    _ => None,
                })
                .collect();
            assert!(sizes.contains(&per_layer), "{data_kind:?}");
            // The only other DP collective of that kind is the small grad-norm sync.
            assert!(
                sizes
                    .iter()
                    .all(|&b| b == per_layer || b == s.sync_allreduce),
                "{data_kind:?}"
            );
        }
    }
}
