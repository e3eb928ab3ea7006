//! GPU compute-time model.
//!
//! The simulator needs per-layer forward/backward durations to place collectives on the
//! time axis. We use a roofline model: `time = FLOPs / (peak FLOP/s × MFU)`, with the
//! FLOP count derived from the model shape and the achieved-utilization factor (MFU)
//! calibrated to typical published training efficiencies (35–45 %). Absolute numbers
//! differ from the authors' Perlmutter testbed, but the *ratios* between compute phases
//! and communication phases — which determine window sizes and reconfiguration
//! overhead — are preserved.

use crate::model::ModelConfig;
use crate::parallelism::ParallelismConfig;
use railsim_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// A GPU's compute capability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Peak dense BF16 throughput in FLOP/s.
    pub peak_bf16_flops: f64,
    /// Model FLOPs utilization actually achieved during training.
    pub mfu: f64,
}

impl GpuSpec {
    /// NVIDIA A100 (80 GB SXM): 312 TFLOP/s BF16.
    pub fn a100() -> Self {
        GpuSpec {
            peak_bf16_flops: 312e12,
            mfu: 0.40,
        }
    }

    /// NVIDIA H100 SXM: 989 TFLOP/s BF16 (dense).
    pub fn h100() -> Self {
        GpuSpec {
            peak_bf16_flops: 989e12,
            mfu: 0.40,
        }
    }

    /// NVIDIA H200 SXM: same compute as H100 with more HBM.
    pub fn h200() -> Self {
        GpuSpec::h100()
    }

    /// Creates a custom GPU spec.
    pub fn new(peak_bf16_flops: f64, mfu: f64) -> Self {
        assert!(peak_bf16_flops > 0.0, "peak FLOP/s must be positive");
        assert!(
            (0.0..=1.0).contains(&mfu) && mfu > 0.0,
            "MFU must be in (0, 1]"
        );
        GpuSpec {
            peak_bf16_flops,
            mfu,
        }
    }

    /// Effective sustained FLOP/s.
    pub(crate) fn effective_flops(&self) -> f64 {
        self.peak_bf16_flops * self.mfu
    }

    /// Time to execute `flops` floating-point operations.
    pub(crate) fn time_for_flops(&self, flops: f64) -> SimDuration {
        SimDuration::from_secs_f64(flops / self.effective_flops())
    }
}

/// Per-layer and per-phase compute durations for a specific (model, parallelism, GPU)
/// combination.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeModel {
    /// Forward time of one transformer layer for one micro-batch on one GPU.
    pub layer_forward: SimDuration,
    /// Backward time of one transformer layer for one micro-batch on one GPU
    /// (≈ 2× forward).
    pub layer_backward: SimDuration,
    /// Optimizer-step time per GPU (parameter update over the local shard).
    pub optimizer_step: SimDuration,
    /// Number of layers each pipeline stage owns.
    pub layers_per_stage: u32,
}

impl ComputeModel {
    /// Derives the compute model from the model shape, parallelism and GPU.
    pub fn derive(model: &ModelConfig, parallel: &ParallelismConfig, gpu: &GpuSpec) -> Self {
        let tokens_per_microbatch = parallel.microbatch_size as u64 * parallel.seq_len as u64;
        // Per-token FLOPs for one layer, divided across the tensor-parallel (and
        // context-parallel) shards that execute it.
        let shard = (parallel.tensor * parallel.context).max(1) as f64;
        let fwd_flops_layer = model.fwd_flops_per_token_per_layer(parallel.seq_len as u64) as f64
            * tokens_per_microbatch as f64
            / shard;
        let layer_forward = gpu.time_for_flops(fwd_flops_layer);
        let layer_backward = gpu.time_for_flops(2.0 * fwd_flops_layer);
        // Optimizer: a few element-wise passes over the local parameter shard; modeled
        // as 10 FLOPs per local parameter.
        let local_params = model.total_params() as f64
            / (parallel.tensor as f64 * parallel.pipeline as f64 * parallel.data as f64);
        let optimizer_step = gpu.time_for_flops(10.0 * local_params);
        let layers_per_stage = (model.num_layers).div_ceil(parallel.pipeline);
        ComputeModel {
            layer_forward,
            layer_backward,
            optimizer_step,
            layers_per_stage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_spec_presets() {
        assert!(GpuSpec::h100().peak_bf16_flops > GpuSpec::a100().peak_bf16_flops);
        let a100 = GpuSpec::a100();
        assert!((a100.effective_flops() - 312e12 * 0.4).abs() < 1.0);
    }

    #[test]
    fn time_for_flops_scales_linearly() {
        let gpu = GpuSpec::a100();
        let t1 = gpu.time_for_flops(1e12);
        let t2 = gpu.time_for_flops(2e12);
        // Durations are rounded to whole nanoseconds, so allow for that quantization.
        assert!((t2.as_secs_f64() / t1.as_secs_f64() - 2.0).abs() < 1e-4);
    }

    #[test]
    fn paper_workload_layer_times_are_milliseconds() {
        // Llama3-8B, TP=4, micro-batch of 2×8192 tokens on A100: a layer forward should
        // be on the order of 10 ms — the same order as the windows in Fig. 4.
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let cm = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let fwd_ms = cm.layer_forward.as_millis_f64();
        assert!(
            (2.0..60.0).contains(&fwd_ms),
            "layer forward {fwd_ms} ms out of expected range"
        );
        assert!(cm.layer_backward > cm.layer_forward);
        assert_eq!(cm.layers_per_stage, 16);
    }

    #[test]
    fn backward_is_twice_forward() {
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::data_only(1);
        let cm = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let ratio = cm.layer_backward.as_secs_f64() / cm.layer_forward.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-4);
    }

    #[test]
    fn stage_times_scale_with_layers() {
        // A stage runs its share of the layers, each at the per-layer time: 32 layers
        // over PP 2 give 16 per stage, over PP 4 give 8, at unchanged layer times.
        let model = ModelConfig::llama3_8b();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let cm = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        assert_eq!(cm.layers_per_stage, 16);
        let deeper = ParallelismConfig {
            pipeline: 4,
            data: 1,
            ..parallel
        };
        let cm4 = ComputeModel::derive(&model, &deeper, &GpuSpec::a100());
        assert_eq!(cm4.layers_per_stage, 8);
        assert_eq!(cm4.layer_forward, cm.layer_forward);
    }

    #[test]
    #[should_panic(expected = "MFU must be in")]
    fn invalid_mfu_rejected() {
        let _ = GpuSpec::new(1e12, 1.5);
    }
}
