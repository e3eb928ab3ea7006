//! Communication groups.
//!
//! A communication group is the set of GPUs participating in a collective — one group
//! per parallelism axis per "slice" of the other axes (e.g. with TP=4, DP=2, PP=2 on 16
//! GPUs there are four DP groups of two ranks each). Groups are the unit of circuit
//! allocation in Opus: the controller installs a circuit configuration per group, and
//! reconfigures only when the *active* group on a rail changes.

use crate::kind::ParallelismAxis;
use railsim_topology::GpuId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a communication group, unique within a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// A communication group: an ordered set of GPUs belonging to one parallelism axis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommGroup {
    /// Unique group id.
    pub id: GroupId,
    /// The parallelism axis this group belongs to.
    pub axis: ParallelismAxis,
    /// Member GPUs in rank order. The order defines the ring used by ring collectives.
    pub ranks: Vec<GpuId>,
}

impl CommGroup {
    /// Creates a group, validating that members are distinct and non-empty.
    ///
    /// # Panics
    /// Panics if `ranks` is empty or contains duplicates.
    pub fn new(id: GroupId, axis: ParallelismAxis, ranks: Vec<GpuId>) -> Self {
        assert!(!ranks.is_empty(), "a communication group cannot be empty");
        let mut seen = std::collections::HashSet::new();
        for r in &ranks {
            assert!(seen.insert(*r), "duplicate rank {r} in communication group");
        }
        CommGroup { id, axis, ranks }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// True when the group has a single member (its collectives are no-ops).
    pub fn is_trivial(&self) -> bool {
        self.ranks.len() <= 1
    }

    /// True when `gpu` is a member.
    pub fn contains(&self, gpu: GpuId) -> bool {
        self.ranks.contains(&gpu)
    }

    /// The position of `gpu` within the group, if it is a member.
    pub(crate) fn index_of(&self, gpu: GpuId) -> Option<usize> {
        self.ranks.iter().position(|&r| r == gpu)
    }

    /// The ring neighbors (previous, next) of `gpu` in this group.
    ///
    /// For a two-member group both neighbors are the same peer. Returns `None` if the
    /// GPU is not a member or the group is trivial.
    pub fn ring_neighbors(&self, gpu: GpuId) -> Option<(GpuId, GpuId)> {
        if self.is_trivial() {
            return None;
        }
        let idx = self.index_of(gpu)?;
        let n = self.ranks.len();
        let prev = self.ranks[(idx + n - 1) % n];
        let next = self.ranks[(idx + 1) % n];
        Some((prev, next))
    }

    /// A short human-readable label like `DP[gpu0,gpu4]`.
    pub fn label(&self) -> String {
        let members: Vec<String> = self.ranks.iter().map(|r| r.to_string()).collect();
        format!("{}[{}]", self.axis, members.join(","))
    }
}

impl fmt::Display for CommGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.id, self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(ranks: &[u32]) -> CommGroup {
        CommGroup::new(
            GroupId(0),
            ParallelismAxis::Data,
            ranks.iter().map(|&r| GpuId(r)).collect(),
        )
    }

    #[test]
    fn membership_queries() {
        let g = group(&[0, 4, 8, 12]);
        assert_eq!(g.size(), 4);
        assert!(g.contains(GpuId(8)));
        assert!(!g.contains(GpuId(1)));
        assert_eq!(g.index_of(GpuId(12)), Some(3));
        assert!(!g.is_trivial());
    }

    #[test]
    fn ring_neighbors_wrap_around() {
        let g = group(&[0, 4, 8, 12]);
        assert_eq!(g.ring_neighbors(GpuId(0)), Some((GpuId(12), GpuId(4))));
        assert_eq!(g.ring_neighbors(GpuId(12)), Some((GpuId(8), GpuId(0))));
        assert_eq!(g.ring_neighbors(GpuId(5)), None);
    }

    #[test]
    fn two_member_group_has_same_prev_and_next() {
        let g = group(&[3, 7]);
        assert_eq!(g.ring_neighbors(GpuId(3)), Some((GpuId(7), GpuId(7))));
    }

    #[test]
    fn trivial_group() {
        let g = group(&[5]);
        assert!(g.is_trivial());
        assert_eq!(g.ring_neighbors(GpuId(5)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_ranks_rejected() {
        let _ = group(&[1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_group_rejected() {
        let _ = group(&[]);
    }

    #[test]
    fn label_format() {
        let g = group(&[0, 4]);
        assert_eq!(g.label(), "DP[gpu0,gpu4]");
    }
}
