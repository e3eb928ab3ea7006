//! Hybrid parallelism configurations.
//!
//! A [`ParallelismConfig`] describes how a training job is split across GPUs along the
//! five axes of Table 2: tensor (TP), context (CP), expert (EP), data (DP/FSDP) and
//! pipeline (PP) parallelism, plus the micro-batching parameters that drive the
//! pipeline schedule.

use railsim_collectives::ParallelismAxis;
use serde::{Deserialize, Serialize};

/// How data parallelism communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataParallelKind {
    /// Plain data parallelism: one gradient AllReduce per layer (or bucket) in the
    /// backward pass.
    AllReduce,
    /// Fully sharded data parallelism: per-layer parameter AllGather in the forward
    /// (and backward) pass and gradient ReduceScatter in the backward pass.
    FullySharded,
}

/// A hybrid parallelism configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParallelismConfig {
    /// Tensor-parallel degree (confined to the scale-up domain in rail mappings).
    pub tensor: u32,
    /// Whether sequence parallelism accompanies TP (shards activations too).
    pub sequence_parallel: bool,
    /// Context-parallel degree.
    pub context: u32,
    /// Expert-parallel degree.
    pub expert: u32,
    /// Data-parallel degree.
    pub data: u32,
    /// How the data-parallel axis communicates.
    pub data_kind: DataParallelKind,
    /// Pipeline-parallel degree (number of stages).
    pub pipeline: u32,
    /// Number of micro-batches per iteration (per data-parallel replica).
    pub num_microbatches: u32,
    /// Sequences per micro-batch.
    pub microbatch_size: u32,
    /// Sequence length in tokens.
    pub seq_len: u32,
}

impl ParallelismConfig {
    /// The configuration of the paper's §3.1 / Fig. 8 experiment: Llama3-8B on 16 GPUs
    /// with TP=4 (intra-node), FSDP=2, PP=2, micro-batch size 2, 1F1B schedule.
    pub fn paper_llama3_8b() -> Self {
        ParallelismConfig {
            tensor: 4,
            sequence_parallel: true,
            context: 1,
            expert: 1,
            data: 2,
            data_kind: DataParallelKind::FullySharded,
            pipeline: 2,
            num_microbatches: 2,
            microbatch_size: 2,
            seq_len: 8192,
        }
    }

    /// The Fig. 3(b) variant: PP=3, FSDP=2 (24 GPUs with TP=4).
    pub fn paper_llama3_8b_pp3() -> Self {
        ParallelismConfig {
            pipeline: 3,
            num_microbatches: 3,
            ..Self::paper_llama3_8b()
        }
    }

    /// A simple DP-only configuration.
    pub fn data_only(data: u32) -> Self {
        ParallelismConfig {
            tensor: 1,
            sequence_parallel: false,
            context: 1,
            expert: 1,
            data,
            data_kind: DataParallelKind::AllReduce,
            pipeline: 1,
            num_microbatches: 1,
            microbatch_size: 1,
            seq_len: 4096,
        }
    }

    /// Total number of GPUs (world size).
    pub fn world_size(&self) -> u32 {
        self.tensor * self.context * self.expert * self.data * self.pipeline
    }

    /// Degree of the given axis.
    pub fn degree(&self, axis: ParallelismAxis) -> u32 {
        match axis {
            ParallelismAxis::Tensor => self.tensor,
            ParallelismAxis::Context => self.context,
            ParallelismAxis::Expert => self.expert,
            ParallelismAxis::Data => self.data,
            ParallelismAxis::Pipeline => self.pipeline,
        }
    }

    /// The axes with degree greater than one, in canonical order.
    pub(crate) fn active_axes(&self) -> Vec<ParallelismAxis> {
        ParallelismAxis::ALL
            .into_iter()
            .filter(|&a| self.degree(a) > 1)
            .collect()
    }

    /// Number of parallelism dimensions in use ("3D", "5D", ...).
    pub fn dimensionality(&self) -> usize {
        self.active_axes().len()
    }

    /// Global batch size in sequences.
    pub fn global_batch_size(&self) -> u64 {
        self.microbatch_size as u64 * self.num_microbatches as u64 * self.data as u64
    }

    /// Validates the configuration against a world size and basic sanity rules.
    pub fn validate(&self, world_size: u32) -> Result<(), String> {
        if self.tensor == 0
            || self.context == 0
            || self.expert == 0
            || self.data == 0
            || self.pipeline == 0
        {
            return Err("all parallelism degrees must be at least 1".into());
        }
        if self.world_size() != world_size {
            return Err(format!(
                "parallelism product {} does not match world size {world_size}",
                self.world_size()
            ));
        }
        if self.num_microbatches == 0 || self.microbatch_size == 0 {
            return Err("micro-batch count and size must be at least 1".into());
        }
        if self.pipeline > 1 && self.num_microbatches < self.pipeline {
            // Not fatal in practice, but the pipeline would be mostly bubbles; the
            // paper's schedules always use at least as many micro-batches as stages.
            return Err(format!(
                "1F1B needs num_microbatches ({}) >= pipeline stages ({})",
                self.num_microbatches, self.pipeline
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let p = ParallelismConfig::paper_llama3_8b();
        assert_eq!(p.world_size(), 16);
        assert_eq!(p.dimensionality(), 3);
        assert_eq!(
            p.active_axes(),
            vec![
                ParallelismAxis::Tensor,
                ParallelismAxis::Data,
                ParallelismAxis::Pipeline
            ]
        );
        assert!(p.validate(16).is_ok());
        assert_eq!(p.global_batch_size(), 8);
    }

    #[test]
    fn pp3_variant() {
        let p = ParallelismConfig::paper_llama3_8b_pp3();
        assert_eq!(p.world_size(), 24);
        assert!(p.validate(24).is_ok());
    }

    #[test]
    fn validation_catches_mismatched_world_size() {
        let p = ParallelismConfig::paper_llama3_8b();
        assert!(p.validate(32).is_err());
    }

    #[test]
    fn validation_catches_zero_degrees() {
        let mut p = ParallelismConfig::data_only(4);
        p.tensor = 0;
        assert!(p.validate(0).is_err());
    }

    #[test]
    fn validation_catches_too_few_microbatches() {
        let mut p = ParallelismConfig::paper_llama3_8b();
        p.num_microbatches = 1;
        assert!(p.validate(16).is_err());
    }
}
