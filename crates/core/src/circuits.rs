//! Circuit planning: turning a communication group into per-rail circuit configurations.
//!
//! Photonic rails realize a group's collective as a ring of optical circuits. The
//! planner maps the ring's neighbor pairs onto the cluster:
//!
//! * a pair inside one scale-up domain needs no circuit (NVLink carries it),
//! * a pair of same-rank GPUs in different domains becomes a circuit on their rail,
//! * a pair that differs in both node and rank is reached through PXN forwarding: the
//!   scale-out leg runs on the *destination's* rail between the intermediate GPU (the
//!   sender's node-mate with the destination's rank) and the destination.
//!
//! Each GPU only has a limited number of logical NIC ports. One private routine,
//! `CircuitPlanner::assign_ports`, assigns them for both the pristine plan and a
//! re-striped one ([`CircuitPlanner::replan_degraded`]): per rail, circuits kept from
//! an earlier plan set each GPU's next free port, and the rail's pairs then take, in
//! order, the next free port of both their GPUs. A pristine plan keeps nothing, so
//! every group counts from port 0; a pair that finds either GPU out of ports is
//! dropped rather than failing the plan. On a ring whose pairs share one rail, one
//! port per GPU therefore keeps only disjoint pairs of an `n ≥ 3` ring (a 4-ring
//! keeps (0,1) and (2,3), a 3-ring only (0,1)), and two or more ports drop nothing.
//! The collective is still priced as a full ring; ROADMAP item 8 tracks planning a
//! ring with only the pairs its port budget can realize.

use railsim_collectives::{ring::ring_neighbor_pairs, CommGroup};
use railsim_topology::{
    Circuit, CircuitConfig, Cluster, CommPath, DenseCircuit, GpuId, PathKind, PortGeometry, PortId,
    RailId, RailSet,
};
use std::collections::{BTreeMap, HashMap};

/// The per-rail circuit demand of one communication group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupCircuits {
    /// Circuit configuration per rail (only rails that carry traffic appear).
    pub per_rail: BTreeMap<RailId, CircuitConfig>,
    /// Ring pairs that could not be realized because an endpoint's port budget was
    /// exhausted. With one port per GPU a same-rail ring of `n ≥ 3` keeps only
    /// disjoint pairs, so this counts the others (2 of a 4-ring); see the module doc.
    pub dropped_pairs: usize,
    /// Ring pairs carried entirely inside a scale-up domain (no circuit needed).
    pub scaleup_pairs: usize,
}

impl GroupCircuits {
    /// True when the group needs no scale-out circuits at all (e.g. a TP group confined
    /// to one node).
    pub fn is_scaleup_only(&self) -> bool {
        self.per_rail.is_empty()
    }

    /// Total number of circuits across all rails.
    pub fn total_circuits(&self) -> usize {
        self.per_rail.values().map(|c| c.len()).sum()
    }

    /// The rails this group needs.
    pub fn rails(&self) -> Vec<RailId> {
        self.per_rail.keys().copied().collect()
    }

    /// The rails this group needs, as a compact set.
    pub(crate) fn rail_set(&self) -> RailSet {
        self.per_rail.keys().copied().collect()
    }

    /// Appends the group's circuits to `out`, rail by rail in ascending rail order,
    /// each resolved against `geometry`: the prepared plan the controller's hot reads
    /// take (see [`crate::controller`]).
    pub fn resolve_into(&self, geometry: PortGeometry, out: &mut Vec<DenseCircuit>) {
        for (&rail, config) in &self.per_rail {
            out.extend(config.circuits().iter().map(|&c| geometry.resolve(rail, c)));
        }
    }
}

/// Plans circuits for communication groups on a concrete cluster.
#[derive(Debug, Clone)]
pub struct CircuitPlanner {
    ports_per_gpu: u8,
}

impl CircuitPlanner {
    /// Creates a planner for the given cluster.
    pub fn for_cluster(cluster: &Cluster) -> Self {
        CircuitPlanner {
            ports_per_gpu: cluster.ports_per_gpu(),
        }
    }

    /// Plans the per-rail circuits realizing `group`'s ring on `cluster`.
    pub fn plan(&self, cluster: &Cluster, group: &CommGroup) -> GroupCircuits {
        let mut per_rail_pairs: BTreeMap<RailId, Vec<(GpuId, GpuId)>> = BTreeMap::new();
        let mut scaleup_pairs = 0usize;

        for (a, b) in ring_neighbor_pairs(&group.ranks) {
            let path = CommPath::between(cluster, a, b);
            match path.kind {
                PathKind::IntraNode => scaleup_pairs += 1,
                PathKind::SameRail { rail } => {
                    per_rail_pairs.entry(rail).or_default().push((a, b));
                }
                PathKind::PxnForward { via, rail } => {
                    // The scale-out leg runs between the PXN intermediate and the
                    // destination, on the destination's rail.
                    per_rail_pairs.entry(rail).or_default().push((via, b));
                }
            }
        }

        let mut dropped_pairs = 0usize;
        let per_rail = per_rail_pairs
            .into_iter()
            .filter_map(|(rail, pairs)| {
                let config = self.assign_ports(&[], pairs, &mut dropped_pairs)?;
                Some((rail, config))
            })
            .collect();
        GroupCircuits {
            per_rail,
            dropped_pairs,
            scaleup_pairs,
        }
    }

    /// Re-plans `pristine` around dead rails: circuits on rails listed in `healthy`
    /// (ascending) are kept verbatim (ports included), while each dead rail, in
    /// ascending order, moves onto the next healthy rail in turn, cycling through
    /// `healthy`. A displaced circuit between GPUs `a` and `b` becomes a pair of
    /// their *node-mates* on the target rail (the PXN intermediates
    /// `gpu_at(node_of(a), target)` / `gpu_at(node_of(b), target)`, which forward the
    /// traffic over NVLink), and the displaced pairs take ports past the kept
    /// circuits exactly as [`CircuitPlanner::plan`] assigns them; a pair that finds a
    /// GPU out of ports is dropped (counted in `dropped_pairs`).
    ///
    /// With no healthy rails at all, every pair is dropped and the result is empty —
    /// callers should treat that as "cannot re-plan" and stall instead (an empty plan
    /// would masquerade as scale-up-only).
    ///
    /// The result depends only on `pristine`, the cluster geometry and the healthy
    /// rails, so every run (and every fleet worker) derives the same degraded plan.
    pub fn replan_degraded(
        &self,
        cluster: &Cluster,
        pristine: &GroupCircuits,
        healthy: &[RailId],
    ) -> GroupCircuits {
        debug_assert!(
            healthy.is_sorted_by(|a, b| a < b),
            "healthy rails ascend without repeats"
        );
        let mut dropped_pairs = pristine.dropped_pairs;
        let mut displaced: BTreeMap<RailId, Vec<(GpuId, GpuId)>> = BTreeMap::new();
        let mut targets = healthy.iter().cycle();
        for (rail, config) in &pristine.per_rail {
            if healthy.binary_search(rail).is_ok() {
                continue;
            }
            let Some(&target) = targets.next() else {
                dropped_pairs += config.len();
                continue;
            };
            let pairs = displaced.entry(target).or_default();
            for c in config.circuits() {
                let node_a = cluster.node_of(c.a().gpu);
                let node_b = cluster.node_of(c.b().gpu);
                debug_assert_ne!(node_a, node_b, "rail circuits span nodes");
                pairs.push((
                    cluster.gpu_at(node_a, target.0),
                    cluster.gpu_at(node_b, target.0),
                ));
            }
        }

        let mut per_rail = BTreeMap::new();
        for &rail in healthy {
            let kept = pristine
                .per_rail
                .get(&rail)
                .map_or(&[][..], |c| c.circuits());
            let pairs = displaced.remove(&rail).unwrap_or_default();
            if let Some(config) = self.assign_ports(kept, pairs, &mut dropped_pairs) {
                per_rail.insert(rail, config);
            }
        }
        GroupCircuits {
            per_rail,
            dropped_pairs,
            scaleup_pairs: pristine.scaleup_pairs,
        }
    }

    /// The port assignment of one rail, shared by [`CircuitPlanner::plan`] and
    /// [`CircuitPlanner::replan_degraded`]: the `kept` circuits stay as they are and
    /// set each GPU's next free port past the ports they hold; each of `pairs`, in
    /// order, then takes the next free port on both its GPUs, or is dropped (counted
    /// in `dropped_pairs`) when either GPU is out of ports. Returns the rail's
    /// configuration, kept circuits first, or `None` when it holds no circuit.
    fn assign_ports(
        &self,
        kept: &[Circuit],
        pairs: Vec<(GpuId, GpuId)>,
        dropped_pairs: &mut usize,
    ) -> Option<CircuitConfig> {
        let mut next_port: HashMap<GpuId, u8> = HashMap::new();
        for port in kept.iter().flat_map(|c| [c.a(), c.b()]) {
            let next = next_port.entry(port.gpu).or_insert(0);
            *next = (*next).max(port.port + 1);
        }
        let mut circuits = kept.to_vec();
        for (a, b) in pairs {
            let pa = next_port.get(&a).copied().unwrap_or(0);
            let pb = next_port.get(&b).copied().unwrap_or(0);
            if pa >= self.ports_per_gpu || pb >= self.ports_per_gpu {
                *dropped_pairs += 1;
                continue;
            }
            circuits.push(Circuit::new(PortId::new(a, pa), PortId::new(b, pb)));
            next_port.insert(a, pa + 1);
            next_port.insert(b, pb + 1);
        }
        (!circuits.is_empty())
            .then(|| CircuitConfig::new(circuits).expect("port assignment never reuses a port"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use railsim_collectives::{GroupId, ParallelismAxis};
    use railsim_topology::{ClusterSpec, NicConfig, NodePreset};

    fn cluster() -> Cluster {
        // 4 Perlmutter nodes x 4 GPUs, single-port NICs.
        ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
    }

    fn group(axis: ParallelismAxis, ranks: &[u32]) -> CommGroup {
        CommGroup::new(GroupId(0), axis, ranks.iter().map(|&r| GpuId(r)).collect())
    }

    #[test]
    fn tp_group_needs_no_circuits() {
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let tp = group(ParallelismAxis::Tensor, &[0, 1, 2, 3]);
        let plan = planner.plan(&c, &tp);
        assert!(plan.is_scaleup_only());
        assert_eq!(plan.scaleup_pairs, 4);
        assert_eq!(plan.total_circuits(), 0);
    }

    #[test]
    fn dp_pair_becomes_one_rail_circuit() {
        // DP group {0, 4}: same local rank 0 in nodes 0 and 1 -> one circuit on rail 0.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let dp = group(ParallelismAxis::Data, &[0, 4]);
        let plan = planner.plan(&c, &dp);
        assert_eq!(plan.rails(), vec![RailId(0)]);
        assert_eq!(plan.total_circuits(), 1);
        let cfg = &plan.per_rail[&RailId(0)];
        assert!(cfg.connects_gpus(GpuId(0), GpuId(4)));
    }

    #[test]
    fn four_member_rail_group_forms_a_ring() {
        // All of rail 1: {1, 5, 9, 13} -> a 4-circuit ring, but single-port NICs can
        // only terminate one circuit per GPU, so only the disjoint pairs (1,5) and
        // (9,13) are kept and two pairs are dropped.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Data, &[1, 5, 9, 13]);
        let plan = planner.plan(&c, &g);
        assert_eq!(plan.rails(), vec![RailId(1)]);
        assert_eq!(plan.total_circuits() + plan.dropped_pairs, 4);
        assert_eq!(
            plan.dropped_pairs, 2,
            "single-port NICs cannot hold a full 4-ring"
        );
        let cfg = &plan.per_rail[&RailId(1)];
        assert!(cfg.connects_gpus(GpuId(1), GpuId(5)));
        assert!(cfg.connects_gpus(GpuId(9), GpuId(13)));
    }

    #[test]
    fn two_port_nics_hold_the_full_ring() {
        let spec = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4)
            .with_nic(NicConfig::slingshot11_dual());
        let c = spec.build();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Data, &[1, 5, 9, 13]);
        let plan = planner.plan(&c, &g);
        assert_eq!(plan.total_circuits(), 4);
        assert_eq!(plan.dropped_pairs, 0);
    }

    #[test]
    fn cross_rail_group_uses_pxn_forwarding() {
        // Group {0, 5}: node 0 rank 0 and node 1 rank 1. The scale-out leg lands on
        // rail 1 between GPU 1 (the PXN intermediate in node 0) and GPU 5.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Expert, &[0, 5]);
        let plan = planner.plan(&c, &g);
        assert_eq!(plan.rails(), vec![RailId(1)]);
        let cfg = &plan.per_rail[&RailId(1)];
        assert!(cfg.connects_gpus(GpuId(1), GpuId(5)));
    }

    #[test]
    fn pipeline_pair_on_each_rail() {
        // PP group {2, 10}: rank 2 in node 0 and node 2 -> rail 2 circuit.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Pipeline, &[2, 10]);
        let plan = planner.plan(&c, &g);
        assert_eq!(plan.rails(), vec![RailId(2)]);
        assert_eq!(plan.total_circuits(), 1);
    }

    #[test]
    fn replan_moves_dead_rail_circuits_to_node_mates() {
        // DP group {0, 4} rides rail 0; with rail 0 dead the circuit must re-stripe
        // onto the first healthy rail between the same nodes' rail-1 GPUs (1 and 5).
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let dp = group(ParallelismAxis::Data, &[0, 4]);
        let pristine = planner.plan(&c, &dp);
        let healthy: Vec<RailId> = (1..4).map(RailId).collect();
        let degraded = planner.replan_degraded(&c, &pristine, &healthy);
        assert_eq!(degraded.rails(), vec![RailId(1)]);
        assert!(degraded.per_rail[&RailId(1)].connects_gpus(GpuId(1), GpuId(5)));
        assert_eq!(degraded.total_circuits(), 1);
        assert_eq!(degraded.dropped_pairs, pristine.dropped_pairs);
    }

    #[test]
    fn replan_keeps_healthy_rail_circuits_verbatim() {
        // PP group {2, 10} rides rail 2, which stays healthy: the degraded plan is
        // byte-identical to the pristine one.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Pipeline, &[2, 10]);
        let pristine = planner.plan(&c, &g);
        let healthy: Vec<RailId> = (1..4).map(RailId).collect();
        let degraded = planner.replan_degraded(&c, &pristine, &healthy);
        assert_eq!(degraded, pristine);
    }

    #[test]
    fn replan_drops_pairs_when_the_target_rail_port_budget_runs_out() {
        // Single-port NICs: GPU 1 and 5 already hold a circuit on rail 1, so a
        // displaced rail-0 circuit between the same nodes has no ports left.
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let on_rail1 = group(ParallelismAxis::Data, &[1, 5]);
        let on_rail0 = group(ParallelismAxis::Data, &[0, 4]);
        let mut pristine = planner.plan(&c, &on_rail1);
        let displaced = planner.plan(&c, &on_rail0);
        pristine
            .per_rail
            .insert(RailId(0), displaced.per_rail[&RailId(0)].clone());
        let degraded = planner.replan_degraded(&c, &pristine, &[RailId(1)]);
        assert_eq!(degraded.rails(), vec![RailId(1)]);
        assert_eq!(degraded.total_circuits(), 1, "only the kept circuit fits");
        assert_eq!(degraded.dropped_pairs, 1);
    }

    #[test]
    fn replan_with_no_healthy_rails_drops_everything() {
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let dp = group(ParallelismAxis::Data, &[0, 4]);
        let pristine = planner.plan(&c, &dp);
        let degraded = planner.replan_degraded(&c, &pristine, &[]);
        assert!(degraded.is_scaleup_only());
        assert_eq!(degraded.dropped_pairs, 1);
    }

    /// A plan with one circuit on rail 0 (GPUs 0 and 4) and one on rail 1 (GPUs 9
    /// and 13), on disjoint nodes.
    fn rail_0_and_1_plan(c: &Cluster, planner: &CircuitPlanner) -> GroupCircuits {
        let mut plan = planner.plan(c, &group(ParallelismAxis::Data, &[0, 4]));
        let rail1 = planner.plan(c, &group(ParallelismAxis::Data, &[9, 13]));
        plan.per_rail.extend(rail1.per_rail);
        plan
    }

    #[test]
    fn replan_puts_every_dead_rail_on_the_one_healthy_rail() {
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let pristine = rail_0_and_1_plan(&c, &planner);
        let degraded = planner.replan_degraded(&c, &pristine, &[RailId(2)]);
        assert_eq!(degraded.rails(), vec![RailId(2)]);
        let rail2 = &degraded.per_rail[&RailId(2)];
        assert!(rail2.connects_gpus(GpuId(2), GpuId(6)), "rail 0's pair");
        assert!(rail2.connects_gpus(GpuId(10), GpuId(14)), "rail 1's pair");
        assert_eq!(degraded.dropped_pairs, 0);
    }

    #[test]
    fn replan_gives_each_dead_rail_the_next_healthy_rail_in_ascending_order() {
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let pristine = rail_0_and_1_plan(&c, &planner);
        let degraded = planner.replan_degraded(&c, &pristine, &[RailId(2), RailId(3)]);
        assert_eq!(degraded.rails(), vec![RailId(2), RailId(3)]);
        assert!(degraded.per_rail[&RailId(2)].connects_gpus(GpuId(2), GpuId(6)));
        assert!(degraded.per_rail[&RailId(3)].connects_gpus(GpuId(11), GpuId(15)));
        assert_eq!(degraded.total_circuits(), 2);
    }

    #[test]
    fn replan_cycles_through_the_healthy_rails_when_more_rails_are_dead() {
        // DGX H200 nodes have 8 rails. Dead rails 0, 1 and 2 go to healthy rails 5,
        // 6 and 5 again.
        let c = ClusterSpec::from_preset(NodePreset::DgxH200, 4).build();
        let planner = CircuitPlanner::for_cluster(&c);
        let mut pristine = planner.plan(&c, &group(ParallelismAxis::Data, &[0, 8]));
        for ranks in [[1, 9], [18, 26]] {
            let plan = planner.plan(&c, &group(ParallelismAxis::Data, &ranks));
            pristine.per_rail.extend(plan.per_rail);
        }
        assert_eq!(pristine.rails(), [RailId(0), RailId(1), RailId(2)]);
        let degraded = planner.replan_degraded(&c, &pristine, &[RailId(5), RailId(6)]);
        assert_eq!(degraded.rails(), [RailId(5), RailId(6)]);
        let rail5 = &degraded.per_rail[&RailId(5)];
        assert!(rail5.connects_gpus(GpuId(5), GpuId(13)), "rail 0's pair");
        assert!(rail5.connects_gpus(GpuId(21), GpuId(29)), "rail 2's pair");
        let rail6 = &degraded.per_rail[&RailId(6)];
        assert!(rail6.connects_gpus(GpuId(6), GpuId(14)), "rail 1's pair");
    }

    #[test]
    fn replan_with_multi_port_nics_shares_the_target_rail() {
        // Dual-port NICs: the displaced rail-0 circuit coexists with the kept rail-1
        // circuit on fresh ports.
        let spec = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4)
            .with_nic(NicConfig::slingshot11_dual());
        let c = spec.build();
        let planner = CircuitPlanner::for_cluster(&c);
        let on_rail1 = group(ParallelismAxis::Data, &[1, 5]);
        let on_rail0 = group(ParallelismAxis::Data, &[0, 4]);
        let mut pristine = planner.plan(&c, &on_rail1);
        let displaced = planner.plan(&c, &on_rail0);
        pristine
            .per_rail
            .insert(RailId(0), displaced.per_rail[&RailId(0)].clone());
        let degraded = planner.replan_degraded(&c, &pristine, &[RailId(1)]);
        assert_eq!(degraded.rails(), vec![RailId(1)]);
        assert_eq!(degraded.total_circuits(), 2);
        assert_eq!(degraded.dropped_pairs, 0);
        assert!(degraded.per_rail[&RailId(1)].connects_gpus(GpuId(1), GpuId(5)));
    }

    #[test]
    fn trivial_group_plans_nothing() {
        let c = cluster();
        let planner = CircuitPlanner::for_cluster(&c);
        let g = group(ParallelismAxis::Data, &[3]);
        let plan = planner.plan(&c, &g);
        assert!(plan.is_scaleup_only());
        assert_eq!(plan.scaleup_pairs, 0);
    }
}
