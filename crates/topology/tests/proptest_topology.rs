//! Property-based tests for the topology crate: cluster index arithmetic, rail
//! structure, OCS matching invariants under random install sequences, path
//! classification totality and Clos sizing bounds.

use proptest::prelude::*;
use railsim_sim::{SimDuration, SimTime};
use railsim_topology::{
    fattree::ClosDimensions, Circuit, CircuitConfig, ClusterSpec, CommPath, DenseCircuit, GpuId,
    NodePreset, Ocs, PathKind, PortGeometry, PortId, RailId,
};

fn any_preset() -> impl Strategy<Value = NodePreset> {
    prop_oneof![
        Just(NodePreset::DgxH200),
        Just(NodePreset::DgxH100),
        Just(NodePreset::PerlmutterA100),
        Just(NodePreset::Gb200Nvl72),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cluster_indexing_is_consistent(preset in any_preset(), nodes in 1u32..32) {
        let cluster = ClusterSpec::from_preset(preset, nodes).build();
        prop_assert_eq!(cluster.num_gpus(), nodes * preset.gpus_per_node());
        prop_assert_eq!(cluster.num_rails(), preset.gpus_per_node());
        for gpu in cluster.all_gpus() {
            let node = cluster.node_of(gpu);
            let rank = cluster.local_rank_of(gpu);
            prop_assert_eq!(cluster.gpu_at(node, rank), gpu);
            prop_assert_eq!(cluster.rail_of(gpu), RailId(rank));
        }
    }

    #[test]
    fn rails_partition_the_cluster(preset in any_preset(), nodes in 1u32..16) {
        let cluster = ClusterSpec::from_preset(preset, nodes).build();
        let mut seen = std::collections::HashSet::new();
        for rail in cluster.all_rails() {
            for gpu in cluster.gpus_in_rail(rail) {
                prop_assert!(seen.insert(gpu), "{gpu} appears on two rails");
            }
        }
        prop_assert_eq!(seen.len() as u32, cluster.num_gpus());
    }

    #[test]
    fn path_classification_is_total_and_symmetric_in_kind(nodes in 2u32..16, a in 0u32..64, b in 0u32..64) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build();
        let a = GpuId(a % cluster.num_gpus());
        let b = GpuId(b % cluster.num_gpus());
        prop_assume!(a != b);
        let ab = CommPath::between(&cluster, a, b);
        let ba = CommPath::between(&cluster, b, a);
        // The classification (which network carries the traffic) is symmetric even if
        // the PXN intermediate differs.
        let kind_class = |p: &CommPath| match p.kind {
            PathKind::IntraNode => 0,
            PathKind::SameRail { .. } => 1,
            PathKind::PxnForward { .. } => 2,
        };
        prop_assert_eq!(kind_class(&ab), kind_class(&ba));
        prop_assert!(ab.scaleup_hops() + ab.scaleout_hops() >= 1);
    }

    #[test]
    fn ocs_survives_random_install_sequences(
        installs in proptest::collection::vec(proptest::collection::vec((0u32..8, 8u32..16), 1..4), 1..20),
        delay_ms in 0u64..50,
    ) {
        // One rail of 16 one-GPU nodes: the switch carries every GPU the pairs name.
        let geometry = PortGeometry::new(1, 16, 1);
        let mut ocs = Ocs::with_geometry(64, SimDuration::from_millis(delay_ms), RailId(0), geometry);
        let mut now = SimTime::ZERO;
        for batch in installs {
            // Build a valid matching out of the random pairs (skip port reuse).
            let mut used = std::collections::HashSet::new();
            let mut circuits = Vec::new();
            for (a, b) in batch {
                let pa = PortId::new(GpuId(a), 0);
                let pb = PortId::new(GpuId(b), 0);
                if used.insert(pa) && used.insert(pb) {
                    circuits.push(Circuit::new(pa, pb));
                }
            }
            if circuits.is_empty() {
                continue;
            }
            let config = CircuitConfig::new(circuits).unwrap();
            let plan: Vec<DenseCircuit> =
                config.circuits().iter().map(|&c| geometry.resolve(RailId(0), c)).collect();
            let ready = ocs.install(&plan, now).unwrap();
            prop_assert!(ready >= now);
            // Invariant: the installed circuits always form a matching within radix.
            let mut ports = std::collections::HashSet::new();
            let mut installed = std::collections::HashMap::new();
            for (c, ready_at) in ocs.circuits() {
                prop_assert!(ports.insert(c.a()));
                prop_assert!(ports.insert(c.b()));
                installed.insert(c, ready_at);
            }
            prop_assert!(ports.len() <= ocs.radix());
            // Every requested circuit is installed and connected once settled.
            for c in config.circuits() {
                prop_assert!(installed.get(c).is_some_and(|&at| at <= ready));
            }
            now = ready;
        }
    }

    #[test]
    fn clos_switch_count_is_monotone_in_endpoints(e1 in 1u64..30_000, e2 in 1u64..30_000) {
        let (small, large) = if e1 <= e2 { (e1, e2) } else { (e2, e1) };
        let a = ClosDimensions::size(small, 64);
        let b = ClosDimensions::size(large, 64);
        prop_assert!(a.total_switches() <= b.total_switches());
        prop_assert!(a.switch_side_transceivers() <= b.switch_side_transceivers());
    }
}
