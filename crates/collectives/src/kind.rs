//! Collective kinds and parallelism axes.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a communication operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveKind {
    /// Reduce a buffer across all ranks and leave the result on every rank.
    AllReduce,
    /// Gather every rank's shard so that each rank ends up with the concatenation.
    AllGather,
    /// Reduce a buffer across ranks, leaving each rank with one shard of the result.
    ReduceScatter,
    /// Every rank sends a distinct shard to every other rank (expert parallelism).
    AllToAll,
    /// One rank sends a buffer to all others.
    Broadcast,
    /// A point-to-point transfer between two ranks (pipeline parallelism Send/Recv).
    SendRecv,
    /// A zero-byte synchronization across the group.
    Barrier,
}

impl CollectiveKind {
    /// Short name as used in the paper's tables ("AR", "AG", "RS", ...).
    pub fn short_name(self) -> &'static str {
        match self {
            CollectiveKind::AllReduce => "AR",
            CollectiveKind::AllGather => "AG",
            CollectiveKind::ReduceScatter => "RS",
            CollectiveKind::AllToAll => "A2A",
            CollectiveKind::Broadcast => "BC",
            CollectiveKind::SendRecv => "Send/Recv",
            CollectiveKind::Barrier => "Barrier",
        }
    }
}

impl fmt::Display for CollectiveKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// The parallelism dimension that issued a communication operation.
///
/// Hybrid ("N-D") parallel training combines several of these; each axis owns its own
/// communication groups and its traffic obeys the sequential ordering imposed by the
/// model's execution DAG — the structure Opus exploits for in-job reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ParallelismAxis {
    /// Data parallelism (including FSDP variants).
    Data,
    /// Tensor (operator) parallelism, optionally with sequence parallelism.
    Tensor,
    /// Pipeline parallelism.
    Pipeline,
    /// Context (sequence-length) parallelism.
    Context,
    /// Expert parallelism (mixture-of-experts).
    Expert,
}

impl ParallelismAxis {
    /// All axes, in the canonical order used for rank mapping.
    pub const ALL: [ParallelismAxis; 5] = [
        ParallelismAxis::Tensor,
        ParallelismAxis::Context,
        ParallelismAxis::Expert,
        ParallelismAxis::Data,
        ParallelismAxis::Pipeline,
    ];

    /// Short name ("DP", "TP", "PP", "CP", "EP").
    pub fn short_name(self) -> &'static str {
        match self {
            ParallelismAxis::Data => "DP",
            ParallelismAxis::Tensor => "TP",
            ParallelismAxis::Pipeline => "PP",
            ParallelismAxis::Context => "CP",
            ParallelismAxis::Expert => "EP",
        }
    }
}

impl fmt::Display for ParallelismAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names() {
        assert_eq!(CollectiveKind::AllReduce.short_name(), "AR");
        assert_eq!(CollectiveKind::AllGather.to_string(), "AG");
        assert_eq!(CollectiveKind::ReduceScatter.to_string(), "RS");
        assert_eq!(ParallelismAxis::Data.to_string(), "DP");
        assert_eq!(ParallelismAxis::Expert.short_name(), "EP");
    }

    #[test]
    fn axis_properties() {
        assert_eq!(ParallelismAxis::ALL.len(), 5);
    }
}
