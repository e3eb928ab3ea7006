//! Rank-to-coordinate mapping and communication-group construction.
//!
//! Training ranks are laid out with tensor parallelism varying fastest so that TP
//! groups land inside a scale-up domain, matching the rail-optimized placement of the
//! paper (Fig. 1): rank `r` runs on GPU `r`, so GPUs that differ only in their TP
//! coordinate share a node, and GPUs that differ only in DP / PP coordinates share a
//! rail (same local rank across nodes).
//!
//! The canonical coordinate order, from slowest to fastest varying, is
//! `(pipeline, data, expert, context, tensor)`.

use crate::parallelism::ParallelismConfig;
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_topology::GpuId;
use serde::{Deserialize, Serialize};

/// The position of a rank along every parallelism axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coords {
    /// Pipeline stage index.
    pub pipeline: u32,
    /// Data-parallel replica index.
    pub data: u32,
    /// Expert-parallel shard index.
    pub expert: u32,
    /// Context-parallel shard index.
    pub context: u32,
    /// Tensor-parallel shard index.
    pub tensor: u32,
}

impl Coords {
    /// The coordinate along `axis`.
    pub fn along(&self, axis: ParallelismAxis) -> u32 {
        match axis {
            ParallelismAxis::Pipeline => self.pipeline,
            ParallelismAxis::Data => self.data,
            ParallelismAxis::Expert => self.expert,
            ParallelismAxis::Context => self.context,
            ParallelismAxis::Tensor => self.tensor,
        }
    }
}

/// Maps world ranks to parallelism coordinates and builds communication groups.
#[derive(Debug, Clone)]
pub struct RankMapping {
    config: ParallelismConfig,
}

impl RankMapping {
    /// Creates a mapping for the given configuration.
    pub fn new(config: ParallelismConfig) -> Self {
        RankMapping { config }
    }

    /// The parallelism configuration.
    pub fn config(&self) -> &ParallelismConfig {
        &self.config
    }

    /// Total number of ranks.
    pub fn world_size(&self) -> u32 {
        self.config.world_size()
    }

    /// The coordinates of `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn coords_of(&self, rank: u32) -> Coords {
        assert!(
            rank < self.world_size(),
            "rank {rank} out of range for world size {}",
            self.world_size()
        );
        let c = &self.config;
        let mut rest = rank;
        let tensor = rest % c.tensor;
        rest /= c.tensor;
        let context = rest % c.context;
        rest /= c.context;
        let expert = rest % c.expert;
        rest /= c.expert;
        let data = rest % c.data;
        rest /= c.data;
        let pipeline = rest % c.pipeline;
        Coords {
            pipeline,
            data,
            expert,
            context,
            tensor,
        }
    }

    /// The rank at the given coordinates.
    pub fn rank_of(&self, coords: Coords) -> u32 {
        let c = &self.config;
        assert!(coords.tensor < c.tensor, "tensor coord out of range");
        assert!(coords.context < c.context, "context coord out of range");
        assert!(coords.expert < c.expert, "expert coord out of range");
        assert!(coords.data < c.data, "data coord out of range");
        assert!(coords.pipeline < c.pipeline, "pipeline coord out of range");
        ((((coords.pipeline * c.data + coords.data) * c.expert + coords.expert) * c.context
            + coords.context)
            * c.tensor)
            + coords.tensor
    }

    /// The pipeline stage of `rank`.
    pub(crate) fn pipeline_stage_of(&self, rank: u32) -> u32 {
        self.coords_of(rank).pipeline
    }

    /// The rank in the next pipeline stage with otherwise identical coordinates, or
    /// `None` if `rank` is in the last stage.
    pub(crate) fn pipeline_next(&self, rank: u32) -> Option<u32> {
        let mut coords = self.coords_of(rank);
        if coords.pipeline + 1 >= self.config.pipeline {
            return None;
        }
        coords.pipeline += 1;
        Some(self.rank_of(coords))
    }

    /// The rank in the previous pipeline stage with otherwise identical coordinates, or
    /// `None` if `rank` is in the first stage.
    pub(crate) fn pipeline_prev(&self, rank: u32) -> Option<u32> {
        let mut coords = self.coords_of(rank);
        if coords.pipeline == 0 {
            return None;
        }
        coords.pipeline -= 1;
        Some(self.rank_of(coords))
    }

    /// The ranks of the communication group containing `rank` along `axis`: all ranks
    /// whose coordinates match `rank`'s except along `axis`, ordered by that coordinate.
    pub(crate) fn group_members(&self, rank: u32, axis: ParallelismAxis) -> Vec<u32> {
        let base = self.coords_of(rank);
        let degree = self.config.degree(axis);
        (0..degree)
            .map(|i| {
                let mut coords = base;
                match axis {
                    ParallelismAxis::Pipeline => coords.pipeline = i,
                    ParallelismAxis::Data => coords.data = i,
                    ParallelismAxis::Expert => coords.expert = i,
                    ParallelismAxis::Context => coords.context = i,
                    ParallelismAxis::Tensor => coords.tensor = i,
                }
                self.rank_of(coords)
            })
            .collect()
    }

    /// All communication groups along `axis` (one per combination of the other axes),
    /// ordered by their first member. Each group is enumerated once, from its anchor:
    /// the member at coordinate 0 along `axis`, which is also its lowest rank.
    pub fn groups_for_axis(&self, axis: ParallelismAxis) -> Vec<Vec<u32>> {
        (0..self.world_size())
            .filter(|&rank| self.coords_of(rank).along(axis) == 0)
            .map(|anchor| self.group_members(anchor, axis))
            .collect()
    }

    /// Builds [`CommGroup`]s for every active axis, assigning sequential group ids.
    /// Rank `r` is placed on `GpuId(r)`.
    pub fn build_comm_groups(&self) -> Vec<CommGroup> {
        let mut out = Vec::new();
        let mut next_id = 0u32;
        for axis in ParallelismAxis::ALL {
            if self.config.degree(axis) <= 1 {
                continue;
            }
            for members in self.groups_for_axis(axis) {
                let gpus = members.iter().map(|&r| GpuId(r)).collect();
                out.push(CommGroup::new(GroupId(next_id), axis, gpus));
                next_id += 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallelism::ParallelismConfig;

    fn paper_mapping() -> RankMapping {
        RankMapping::new(ParallelismConfig::paper_llama3_8b())
    }

    #[test]
    fn coords_roundtrip() {
        let m = paper_mapping();
        for rank in 0..m.world_size() {
            let c = m.coords_of(rank);
            assert_eq!(m.rank_of(c), rank);
        }
    }

    #[test]
    fn tensor_parallelism_varies_fastest() {
        // TP=4: ranks 0..4 share (pp=0, dp=0) and differ only in tensor coordinate,
        // so they land in the same scale-up domain (GPUs 0..4 of node 0).
        let m = paper_mapping();
        for rank in 0..4 {
            let c = m.coords_of(rank);
            assert_eq!(c.pipeline, 0);
            assert_eq!(c.data, 0);
            assert_eq!(c.tensor, rank);
        }
    }

    #[test]
    fn paper_pipeline_peer_is_rank_8() {
        // Fig. 3: rank 0 (stage 0) sends activations to stage 1 hosted by rank 8.
        let m = paper_mapping();
        assert_eq!(m.pipeline_next(0), Some(8));
        assert_eq!(m.pipeline_prev(8), Some(0));
        assert_eq!(m.pipeline_next(8), None);
        assert_eq!(m.pipeline_prev(0), None);
    }

    #[test]
    fn data_parallel_group_of_rank_0() {
        // DP=2: rank 0's DP peer is rank 4 (same stage, same TP shard, other replica).
        let m = paper_mapping();
        assert_eq!(m.group_members(0, ParallelismAxis::Data), vec![0, 4]);
        assert_eq!(m.group_members(8, ParallelismAxis::Data), vec![8, 12]);
    }

    #[test]
    fn groups_partition_the_world() {
        let m = paper_mapping();
        for axis in [
            ParallelismAxis::Tensor,
            ParallelismAxis::Data,
            ParallelismAxis::Pipeline,
        ] {
            let groups = m.groups_for_axis(axis);
            let mut all: Vec<u32> = groups.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(
                all,
                (0..16).collect::<Vec<_>>(),
                "axis {axis} must partition ranks"
            );
            let expected_groups = 16 / m.config().degree(axis);
            assert_eq!(groups.len() as u32, expected_groups);
        }
    }

    #[test]
    fn same_rail_property_for_scaleout_axes() {
        // With TP equal to the node size, DP and PP group members share a local rank
        // (they are on the same rail): member % tp is constant within a group.
        let m = paper_mapping();
        let tp = m.config().tensor;
        for axis in [ParallelismAxis::Data, ParallelismAxis::Pipeline] {
            for group in m.groups_for_axis(axis) {
                let rails: std::collections::HashSet<u32> = group.iter().map(|r| r % tp).collect();
                assert_eq!(
                    rails.len(),
                    1,
                    "{axis} group {group:?} must stay on one rail"
                );
            }
        }
    }

    #[test]
    fn comm_group_construction() {
        let m = paper_mapping();
        let groups = m.build_comm_groups();
        // TP: 4 groups of 4; DP: 8 groups of 2; PP: 8 groups of 2. Total 20.
        assert_eq!(groups.len(), 20);
        let tp_groups = groups
            .iter()
            .filter(|g| g.axis == ParallelismAxis::Tensor)
            .count();
        let dp_groups = groups
            .iter()
            .filter(|g| g.axis == ParallelismAxis::Data)
            .count();
        let pp_groups = groups
            .iter()
            .filter(|g| g.axis == ParallelismAxis::Pipeline)
            .count();
        assert_eq!((tp_groups, dp_groups, pp_groups), (4, 8, 8));
        // Group ids are unique.
        let ids: std::collections::HashSet<_> = groups.iter().map(|g| g.id).collect();
        assert_eq!(ids.len(), groups.len());
    }

    #[test]
    fn five_d_parallelism_mapping() {
        let config = ParallelismConfig {
            tensor: 2,
            sequence_parallel: true,
            context: 2,
            expert: 2,
            data: 2,
            data_kind: crate::parallelism::DataParallelKind::FullySharded,
            pipeline: 2,
            num_microbatches: 4,
            microbatch_size: 1,
            seq_len: 4096,
        };
        let m = RankMapping::new(config);
        assert_eq!(m.world_size(), 32);
        for rank in 0..32 {
            assert_eq!(m.rank_of(m.coords_of(rank)), rank);
        }
        assert_eq!(m.build_comm_groups().len(), 16 * 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rank_panics() {
        paper_mapping().coords_of(16);
    }
}
