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
//! Each GPU only has a limited number of logical NIC ports. Per rail, the planner
//! walks the ring's pairs in order and gives each pair the next free port of both its
//! GPUs, counting from port 0 in every group; a pair that finds either GPU out of
//! ports is dropped rather than failing the plan. On a ring whose pairs share one
//! rail, one port per GPU therefore keeps only disjoint pairs of an `n ≥ 3` ring (a
//! 4-ring keeps (0,1) and (2,3), a 3-ring only (0,1)), and two or more ports drop
//! nothing. The collective is still priced as a full ring; ROADMAP item 8 tracks
//! planning a ring with only the pairs its port budget can realize.

use railsim_collectives::{ring::ring_neighbor_pairs, CommGroup, RailStriper};
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
    pub fn rail_set(&self) -> RailSet {
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

        let mut per_rail = BTreeMap::new();
        let mut dropped_pairs = 0usize;
        for (rail, pairs) in per_rail_pairs {
            // Assign ports round-robin per GPU within this rail's configuration.
            let mut next_port: HashMap<GpuId, u8> = HashMap::new();
            let mut circuits = Vec::new();
            for (a, b) in pairs {
                let pa = *next_port.entry(a).or_insert(0);
                let pb = *next_port.entry(b).or_insert(0);
                if pa >= self.ports_per_gpu || pb >= self.ports_per_gpu {
                    // Out of ports on an endpoint: drop this pair. Pairs are taken
                    // greedily in ring order, so one port per GPU keeps disjoint pairs.
                    dropped_pairs += 1;
                    continue;
                }
                circuits.push(Circuit::new(PortId::new(a, pa), PortId::new(b, pb)));
                *next_port.get_mut(&a).expect("just inserted") += 1;
                *next_port.get_mut(&b).expect("just inserted") += 1;
            }
            if !circuits.is_empty() {
                let config = CircuitConfig::new(circuits)
                    .expect("round-robin port assignment cannot reuse a port");
                per_rail.insert(rail, config);
            }
        }

        GroupCircuits {
            per_rail,
            dropped_pairs,
            scaleup_pairs,
        }
    }

    /// Re-plans `pristine` around dead rails: circuits on rails listed in `healthy`
    /// are kept verbatim (ports included), while each dead rail's circuits are
    /// re-striped onto a healthy rail chosen round-robin ([`RailStriper`]) — a
    /// displaced circuit between GPUs `a` and `b` becomes a circuit between their
    /// *node-mates* on the target rail (the PXN intermediates `gpu_at(node_of(a),
    /// target)` / `gpu_at(node_of(b), target)`, which forward the traffic over
    /// NVLink). Displaced circuits take fresh ports past whatever the kept circuits
    /// already use on the target rail; when a GPU's port budget runs out the pair is
    /// dropped (counted in `dropped_pairs`), exactly like [`CircuitPlanner::plan`].
    ///
    /// With no healthy rails at all, every pair is dropped and the result is empty —
    /// callers should treat that as "cannot re-plan" and stall instead (an empty plan
    /// would masquerade as scale-up-only).
    ///
    /// The result depends only on `pristine`, the cluster geometry and the sorted
    /// healthy-rail set, so every run (and every fleet worker) derives the same
    /// degraded plan.
    pub fn replan_degraded(
        &self,
        cluster: &Cluster,
        pristine: &GroupCircuits,
        healthy: Vec<RailId>,
    ) -> GroupCircuits {
        let mut striper = RailStriper::new(healthy);
        let mut per_rail_circuits: BTreeMap<RailId, Vec<Circuit>> = BTreeMap::new();
        let mut next_port: HashMap<(RailId, GpuId), u8> = HashMap::new();
        let mut dropped_pairs = pristine.dropped_pairs;

        // Kept rails first: their circuits are untouched and seed the per-GPU port
        // watermark displaced circuits must allocate past.
        for (&rail, config) in &pristine.per_rail {
            if !striper.is_healthy(rail) {
                continue;
            }
            for c in config.circuits() {
                for port in [c.a(), c.b()] {
                    let slot = next_port.entry((rail, port.gpu)).or_insert(0);
                    *slot = (*slot).max(port.port + 1);
                }
            }
            per_rail_circuits.insert(rail, config.circuits().to_vec());
        }

        // Dead rails in ascending order, each displaced onto the next healthy rail.
        for (&rail, config) in &pristine.per_rail {
            if striper.is_healthy(rail) {
                continue;
            }
            let Some(target) = striper.assign() else {
                dropped_pairs += config.len();
                continue;
            };
            for c in config.circuits() {
                let node_a = cluster.node_of(c.a().gpu);
                let node_b = cluster.node_of(c.b().gpu);
                debug_assert_ne!(node_a, node_b, "rail circuits span nodes");
                let a = cluster.gpu_at(node_a, target.0);
                let b = cluster.gpu_at(node_b, target.0);
                let pa = *next_port.entry((target, a)).or_insert(0);
                let pb = *next_port.entry((target, b)).or_insert(0);
                if pa >= self.ports_per_gpu || pb >= self.ports_per_gpu {
                    dropped_pairs += 1;
                    continue;
                }
                per_rail_circuits
                    .entry(target)
                    .or_default()
                    .push(Circuit::new(PortId::new(a, pa), PortId::new(b, pb)));
                *next_port.get_mut(&(target, a)).expect("just inserted") += 1;
                *next_port.get_mut(&(target, b)).expect("just inserted") += 1;
            }
        }

        let per_rail = per_rail_circuits
            .into_iter()
            .map(|(rail, circuits)| {
                let config = CircuitConfig::new(circuits)
                    .expect("watermarked port assignment cannot reuse a port");
                (rail, config)
            })
            .collect();
        GroupCircuits {
            per_rail,
            dropped_pairs,
            scaleup_pairs: pristine.scaleup_pairs,
        }
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
        let degraded = planner.replan_degraded(&c, &pristine, healthy);
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
        let degraded = planner.replan_degraded(&c, &pristine, healthy);
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
        let degraded = planner.replan_degraded(&c, &pristine, vec![RailId(1)]);
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
        let degraded = planner.replan_degraded(&c, &pristine, Vec::new());
        assert!(degraded.is_scaleup_only());
        assert_eq!(degraded.dropped_pairs, 1);
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
        let degraded = planner.replan_degraded(&c, &pristine, vec![RailId(1)]);
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
