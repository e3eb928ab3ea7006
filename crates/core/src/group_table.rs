//! The controller's per-job communication-group and circuit lookup tables.
//!
//! Fig. 6 of the paper shows the Opus controller keeping two pieces of job-specific
//! state: a *communication group table* (which ranks belong to which group, on which
//! parallelism axis) and a *circuit lookup table* (the cached circuit configuration
//! each group needs on each rail). [`GroupTable`] is both: it is populated once when
//! the job's groups are registered and consulted on every reconfiguration request, so
//! the controller never recomputes circuit matchings on the critical path.

use crate::circuits::{CircuitPlanner, GroupCircuits};
use railsim_collectives::{CommGroup, GroupId, ParallelismAxis};
use railsim_topology::{Cluster, GpuId, RailId};

/// One entry of the group table.
#[derive(Debug, Clone)]
pub struct GroupEntry {
    /// The communication group.
    pub group: CommGroup,
    /// Its planned circuits.
    pub circuits: GroupCircuits,
}

/// The Opus controller's communication-group and circuit lookup tables.
///
/// Entries live in one id-sorted `Vec` (dense *slots*) rather than a tree: lookups
/// are a binary search over a contiguous array, iteration order is still ascending
/// group id (matching the `BTreeMap` layout this replaced), and a slot index is a
/// stable dense handle the simulator can use to share one `GroupCircuits` per group
/// across every task that needs it.
#[derive(Debug, Clone, Default)]
pub struct GroupTable {
    /// Entries sorted by `group.id`; position == slot.
    entries: Vec<GroupEntry>,
}

impl GroupTable {
    /// Builds the table for a set of groups on a concrete cluster.
    pub fn build<'a>(cluster: &Cluster, groups: impl IntoIterator<Item = &'a CommGroup>) -> Self {
        let planner = CircuitPlanner::for_cluster(cluster);
        let mut entries: Vec<GroupEntry> = groups
            .into_iter()
            .map(|group| GroupEntry {
                group: group.clone(),
                circuits: planner.plan(cluster, group),
            })
            .collect();
        entries.sort_by_key(|e| e.group.id);
        entries.dedup_by_key(|e| e.group.id);
        GroupTable { entries }
    }

    /// Number of registered groups.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no groups are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The dense slot of a group (its position in id order), if registered.
    pub fn slot_of(&self, id: GroupId) -> Option<usize> {
        self.entries.binary_search_by_key(&id, |e| e.group.id).ok()
    }

    /// Looks up a group's entry.
    pub fn entry(&self, id: GroupId) -> Option<&GroupEntry> {
        self.slot_of(id).map(|slot| &self.entries[slot])
    }

    /// The cached circuits of a group.
    pub fn circuits(&self, id: GroupId) -> Option<&GroupCircuits> {
        self.entry(id).map(|e| &e.circuits)
    }

    /// All groups whose circuits touch `rail`.
    pub fn groups_on_rail(&self, rail: RailId) -> Vec<GroupId> {
        self.entries
            .iter()
            .filter(|e| e.circuits.per_rail.contains_key(&rail))
            .map(|e| e.group.id)
            .collect()
    }

    /// All groups a GPU belongs to, with their axes.
    pub fn groups_of_gpu(&self, gpu: GpuId) -> Vec<(GroupId, ParallelismAxis)> {
        self.entries
            .iter()
            .filter(|e| e.group.contains(gpu))
            .map(|e| (e.group.id, e.group.axis))
            .collect()
    }

    /// Iterates over all entries in ascending group-id order.
    pub fn iter(&self) -> impl Iterator<Item = (&GroupId, &GroupEntry)> {
        self.entries.iter().map(|e| (&e.group.id, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_topology::{ClusterSpec, NodePreset};
    use railsim_workload::{ParallelismConfig, RankMapping};

    fn paper_table() -> (Cluster, GroupTable) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let mapping = RankMapping::new(ParallelismConfig::paper_llama3_8b());
        let groups = mapping.build_comm_groups();
        let table = GroupTable::build(&cluster, &groups);
        (cluster, table)
    }

    #[test]
    fn every_group_is_registered() {
        let (_, table) = paper_table();
        // 4 TP + 8 DP + 8 PP groups.
        assert_eq!(table.len(), 20);
        assert!(!table.is_empty());
    }

    #[test]
    fn tp_groups_have_no_rail_circuits() {
        let (_, table) = paper_table();
        let scaleup_only = table
            .iter()
            .filter(|(_, e)| e.circuits.is_scaleup_only())
            .count();
        // Exactly the 4 TP groups stay inside their scale-up domains.
        assert_eq!(scaleup_only, 4);
    }

    #[test]
    fn each_rail_carries_dp_and_pp_groups() {
        let (cluster, table) = paper_table();
        for rail in cluster.all_rails() {
            let groups = table.groups_on_rail(rail);
            // 2 DP groups + 2 PP groups live on every rail in the paper's 3D config.
            assert_eq!(groups.len(), 4, "rail {rail} groups: {groups:?}");
            let axes: Vec<ParallelismAxis> = groups
                .iter()
                .map(|g| table.entry(*g).unwrap().group.axis)
                .collect();
            assert!(axes.contains(&ParallelismAxis::Data));
            assert!(axes.contains(&ParallelismAxis::Pipeline));
        }
    }

    #[test]
    fn gpu_membership_reflects_3d_parallelism() {
        let (_, table) = paper_table();
        // Every GPU belongs to exactly one TP, one DP and one PP group.
        for gpu in 0..16 {
            let groups = table.groups_of_gpu(GpuId(gpu));
            assert_eq!(groups.len(), 3, "gpu{gpu}");
        }
    }

    #[test]
    fn lookup_of_unknown_group_is_none() {
        let (_, table) = paper_table();
        assert!(table.entry(GroupId(999)).is_none());
        assert!(table.circuits(GroupId(999)).is_none());
    }
}
