//! Property-based tests (proptest) over the core data structures and invariants:
//! simulated time arithmetic, the event queue's ordering guarantees, OCS matching
//! invariants, collective cost-model monotonicity, rank-mapping bijectivity, Clos
//! sizing bounds and DAG acyclicity across random parallelism configurations.

use photonic_rails::collectives::cost::{collective_time, CostParams};
use photonic_rails::opus::{CommLog, FleetMetrics};
use photonic_rails::prelude::*;
use photonic_rails::sim::{EventQueue, SimRng};
use photonic_rails::topology::fattree::ClosDimensions;
use photonic_rails::topology::{Circuit, CircuitConfig, DenseCircuit, Ocs, PortGeometry, PortId};
use photonic_rails::workload::{Position, RankMapping, Step, TaskId};
use proptest::prelude::*;

/// The OCS of the only rail of `gpus` one-GPU nodes with one port each: GPU `g` is
/// node `g`, so the switch carries every GPU below `gpus`.
fn one_rail_ocs(gpus: u32, radix: usize, delay: SimDuration) -> Ocs {
    Ocs::with_geometry(radix, delay, RailId(0), PortGeometry::new(1, gpus, 1))
}

/// `config` resolved for [`one_rail_ocs`] of `gpus`, as the simulator resolves a plan.
fn one_rail_plan(gpus: u32, config: &CircuitConfig) -> Vec<DenseCircuit> {
    let geometry = PortGeometry::new(1, gpus, 1);
    config
        .circuits()
        .iter()
        .map(|&c| geometry.resolve(RailId(0), c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- simulated time ----------------------------------------------------------

    #[test]
    fn simtime_addition_is_monotone(base in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(base);
        let d = SimDuration::from_nanos(delta);
        prop_assert!(t + d >= t);
        prop_assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_float_roundtrip_is_close(nanos in 0u64..1_000_000_000_000u64) {
        let d = SimDuration::from_nanos(nanos);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        let diff = back.as_nanos().abs_diff(d.as_nanos());
        // Round-tripping through f64 seconds must stay within a microsecond.
        prop_assert!(diff < 1_000, "{nanos} -> {} (diff {diff})", back.as_nanos());
    }

    // ---- event queue --------------------------------------------------------------

    #[test]
    fn event_queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000u64, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last);
            last = ev.time;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn event_queue_ties_preserve_insertion_order(n in 1usize..100) {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..n {
            q.push(t, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    // ---- bandwidth / bytes --------------------------------------------------------

    #[test]
    fn transfer_time_scales_with_bytes(mb_a in 1u64..10_000, mb_b in 1u64..10_000, gbps in 1.0f64..1600.0) {
        let bw = Bandwidth::from_gbps(gbps);
        let (small, large) = if mb_a <= mb_b { (mb_a, mb_b) } else { (mb_b, mb_a) };
        prop_assert!(bw.transfer_time(Bytes::from_mb(small)) <= bw.transfer_time(Bytes::from_mb(large)));
    }

    // ---- OCS invariants -----------------------------------------------------------

    #[test]
    fn ocs_matching_never_reuses_a_port(pairs in proptest::collection::vec((0u32..16, 16u32..32), 1..8), delay_ms in 0u64..100) {
        // Each generated circuit connects a "left" GPU (0..16) to a "right" GPU (16..32),
        // so a self-loop is impossible; duplicate ports across circuits are filtered to
        // keep the requested configuration valid, then the OCS must uphold the matching
        // invariant after any sequence of installs.
        let mut used = std::collections::HashSet::new();
        let mut circuits = Vec::new();
        for (a, b) in pairs {
            let pa = PortId::new(GpuId(a), 0);
            let pb = PortId::new(GpuId(b), 0);
            if used.insert(pa) && used.insert(pb) {
                circuits.push(Circuit::new(pa, pb));
            }
        }
        prop_assume!(!circuits.is_empty());
        let config = CircuitConfig::new(circuits).expect("deduplicated ports form a valid matching");
        let mut ocs = one_rail_ocs(32, 64, SimDuration::from_millis(delay_ms));
        let ready = ocs.install(&one_rail_plan(32, &config), SimTime::ZERO).expect("radix 64 is large enough");
        prop_assert_eq!(ready, SimTime::from_millis(delay_ms));
        // Invariant: every port appears in at most one installed circuit.
        let mut seen = std::collections::HashSet::new();
        for (c, _) in ocs.circuits() {
            prop_assert!(seen.insert(c.a()), "port {} reused", c.a());
            prop_assert!(seen.insert(c.b()), "port {} reused", c.b());
        }
        prop_assert!(ocs.num_circuits() * 2 <= ocs.radix());
    }

    #[test]
    fn ocs_reinstall_is_idempotent(delay_ms in 1u64..200) {
        let a = PortId::new(GpuId(0), 0);
        let b = PortId::new(GpuId(1), 0);
        let config = CircuitConfig::new(vec![Circuit::new(a, b)]).unwrap();
        let plan = one_rail_plan(2, &config);
        let mut ocs = one_rail_ocs(2, 8, SimDuration::from_millis(delay_ms));
        let first = ocs.install(&plan, SimTime::ZERO).unwrap();
        let again = ocs.install(&plan, first).unwrap();
        prop_assert_eq!(again, first);
        prop_assert_eq!(ocs.reconfig_count(), 1);
    }

    // ---- collective cost model ----------------------------------------------------

    #[test]
    fn collective_time_is_monotone_in_message_size(
        p in 2usize..512,
        mb_small in 1u64..1_000,
        extra in 1u64..1_000,
    ) {
        let params = CostParams::new(SimDuration::from_micros(10), Bandwidth::from_gbps(400.0));
        for kind in [CollectiveKind::AllReduce, CollectiveKind::AllGather, CollectiveKind::AllToAll] {
            let small = collective_time(kind, Algorithm::Ring, p, Bytes::from_mb(mb_small), &params);
            let large = collective_time(kind, Algorithm::Ring, p, Bytes::from_mb(mb_small + extra), &params);
            prop_assert!(large >= small, "{kind} not monotone in size");
        }
    }

    #[test]
    fn ring_allreduce_never_beats_the_serialization_lower_bound(
        p in 2usize..256,
        mb in 1u64..4_000,
    ) {
        // Any AllReduce must move at least (p-1)/p of the buffer out of each rank once.
        let params = CostParams::new(SimDuration::ZERO, Bandwidth::from_gbps(400.0));
        let t = collective_time(CollectiveKind::AllReduce, Algorithm::Ring, p, Bytes::from_mb(mb), &params);
        let lower = params.bandwidth.transfer_time(Bytes::from_mb(mb)).mul_f64((p as f64 - 1.0) / p as f64);
        prop_assert!(t >= lower);
    }

    // ---- rank mapping -------------------------------------------------------------

    #[test]
    fn rank_mapping_is_a_bijection(tp in 1u32..5, cp in 1u32..3, ep in 1u32..3, dp in 1u32..5, pp in 1u32..5) {
        let config = ParallelismConfig {
            tensor: tp,
            sequence_parallel: false,
            context: cp,
            expert: ep,
            data: dp,
            data_kind: DataParallelKind::FullySharded,
            pipeline: pp,
            num_microbatches: pp.max(1),
            microbatch_size: 1,
            seq_len: 128,
        };
        let mapping = RankMapping::new(config.clone());
        let world = config.world_size();
        let mut seen = std::collections::HashSet::new();
        for rank in 0..world {
            let coords = mapping.coords_of(rank);
            prop_assert_eq!(mapping.rank_of(coords), rank);
            prop_assert!(seen.insert(coords));
        }
        prop_assert_eq!(seen.len() as u32, world);
    }

    #[test]
    fn comm_groups_partition_ranks_along_every_axis(tp in 1u32..4, dp in 1u32..4, pp in 1u32..4) {
        let config = ParallelismConfig {
            tensor: tp,
            sequence_parallel: false,
            context: 1,
            expert: 1,
            data: dp,
            data_kind: DataParallelKind::FullySharded,
            pipeline: pp,
            num_microbatches: pp,
            microbatch_size: 1,
            seq_len: 128,
        };
        let mapping = RankMapping::new(config.clone());
        for axis in [ParallelismAxis::Tensor, ParallelismAxis::Data, ParallelismAxis::Pipeline] {
            let degree = match axis {
                ParallelismAxis::Tensor => tp,
                ParallelismAxis::Data => dp,
                ParallelismAxis::Pipeline => pp,
                _ => 1,
            };
            if degree <= 1 {
                continue;
            }
            let groups = mapping.groups_for_axis(axis);
            let mut members: Vec<u32> = groups.iter().flatten().copied().collect();
            members.sort_unstable();
            prop_assert_eq!(members, (0..config.world_size()).collect::<Vec<_>>());
        }
    }

    // ---- Clos sizing --------------------------------------------------------------

    #[test]
    fn clos_provides_enough_downlinks(endpoints in 1u64..60_000, radix_pow in 5u32..7) {
        let radix = 2u64.pow(radix_pow); // 32 or 64
        prop_assume!(endpoints <= radix * radix * radix / 4);
        let dims = ClosDimensions::size(endpoints, radix);
        // The leaf tier must expose at least `endpoints` downlinks.
        let downlinks = if dims.tiers == 1 { radix } else { dims.leaf_switches * (radix / 2) };
        prop_assert!(downlinks >= endpoints);
        prop_assert!(dims.total_switches() >= 1);
    }

    // ---- deterministic RNG --------------------------------------------------------

    #[test]
    fn sim_rng_is_reproducible(seed in 0u64..u64::MAX, amplitude in 0.0f64..0.5) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            let ja = a.jitter(amplitude);
            let jb = b.jitter(amplitude);
            prop_assert_eq!(ja, jb);
            prop_assert!((1.0 - amplitude - 1e-12..=1.0 + amplitude + 1e-12).contains(&ja));
        }
    }
}

proptest! {
    // DAG construction is heavier; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_3d_configurations_build_valid_dags(tp in 1u32..3, dp in 1u32..3, pp in 1u32..3, mb_factor in 1u32..3) {
        let config = ParallelismConfig {
            tensor: tp,
            sequence_parallel: true,
            context: 1,
            expert: 1,
            data: dp,
            data_kind: DataParallelKind::FullySharded,
            pipeline: pp,
            num_microbatches: pp * mb_factor,
            microbatch_size: 1,
            seq_len: 512,
        };
        let model = ModelConfig::tiny_test();
        let compute = ComputeModel::derive(&model, &config, &GpuSpec::a100());
        let dag = DagBuilder::new(model, config, compute).build();
        prop_assert!(dag.validate().is_ok());
        prop_assert!(dag.topological_order().is_some());
        // Every communication task's participants are distinct.
        for task in dag.communication_tasks() {
            let set: std::collections::HashSet<_> = task.ranks().iter().collect();
            prop_assert_eq!(set.len(), task.ranks().len());
        }
        // The execution layout is a permutation that puts every prerequisite first,
        // with the roots as an id-ordered prefix, rows in ascending task id, and each
        // position's indegree and step matching its task; clones and rebases share it.
        let layout = dag.layout();
        let mut position = vec![usize::MAX; dag.len()];
        for (p, id) in layout.order().iter().enumerate() {
            prop_assert_eq!(std::mem::replace(&mut position[id.0 as usize], p), usize::MAX);
        }
        prop_assert_eq!(layout.order().len(), dag.len());
        let roots = layout.roots();
        let (mut deps_seen, mut rows_seen) = (0, 0);
        for (p, &id) in layout.order().iter().enumerate() {
            let pos = Position(p as u32);
            let deps = dag.deps(id);
            prop_assert!(deps.iter().all(|d| position[d.0 as usize] < p));
            prop_assert_eq!(p < roots, deps.is_empty());
            prop_assert!(p == 0 || p >= roots || layout.order()[p - 1] < id);
            prop_assert_eq!(layout.indegrees()[p] as usize, deps.len());
            let row: Vec<TaskId> = layout.dependents(pos).iter().map(|&d| layout.task(d)).collect();
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(row.iter().all(|&d| dag.deps(d).contains(&id)));
            deps_seen += deps.len();
            rows_seen += row.len();
            prop_assert_eq!(layout.step(pos), Step::from(dag.kind(id)));
        }
        prop_assert_eq!(deps_seen, rows_seen);
        prop_assert!(std::ptr::eq(dag.clone().layout(), layout));
        prop_assert!(std::ptr::eq(dag.rebase(64, 100).layout(), layout));
    }

    #[test]
    fn simulation_is_deterministic_for_a_fixed_seed(latency_ms in 0u64..50, seed in 0u64..1000) {
        let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
        let model = ModelConfig::tiny_test();
        let parallel = ParallelismConfig::paper_llama3_8b();
        let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
        let dag = DagBuilder::new(model, parallel, compute).build();
        let config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.05,
            seed,
            ..OpusConfig::provisioned(SimDuration::from_millis(latency_ms))
        };
        let run = || ScenarioSpec::new(cluster.clone()).job(dag.clone(), config).run();
        let (a, b) = (run(), run());
        let (a, b) = (&a.jobs[0].result, &b.jobs[0].result);
        prop_assert_eq!(a.steady_state_iteration_time(), b.steady_state_iteration_time());
        prop_assert_eq!(a.total_reconfigs(), b.total_reconfigs());
    }

    // ---- scenario driver ----------------------------------------------------------

    #[test]
    fn injected_timelines_are_reproducible_and_conserve_circuits(
        pulses in proptest::collection::vec((0u64..400, 1u64..200, 0u32..4), 0..3),
        degrade in (0u64..400, 0u32..5, 0u64..100),
        arrival_ms in 0u64..300,
        seed in 0u64..1000,
        replan in 0u32..2,
    ) {
        // Any timeline of rail-down/up pulses, OCS degradation and a late job
        // arrival, over a two-job scenario on shared rails, must serialize
        // byte-identically across two runs — the same contract the single-job
        // determinism suite pins, extended to the scenario driver's external event
        // class. Half the cases flip the jobs to `RecoveryPolicy::Replan`, so
        // degraded-plan swaps (and swap-backs) interleave with the rail flaps. No
        // rail may ever tear down a circuit it did not set up.
        let build = |config: OpusConfig| {
            let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 8).build();
            let model = ModelConfig::tiny_test();
            let parallel = ParallelismConfig::paper_llama3_8b();
            let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
            let dag = DagBuilder::new(model, parallel, compute).build();
            let mut scenario = ScenarioSpec::new(cluster)
                .job(dag.clone(), config)
                .job(dag, config)
                .inject(
                    SimTime::from_millis(arrival_ms),
                    ScenarioEvent::JobArrival { job: JobId(1) },
                );
            for &(down_ms, up_delta_ms, rail) in &pulses {
                scenario = scenario
                    .inject(
                        SimTime::from_millis(down_ms),
                        ScenarioEvent::RailDown(RailId(rail)),
                    )
                    .inject(
                        SimTime::from_millis(down_ms + up_delta_ms),
                        ScenarioEvent::RailUp(RailId(rail)),
                    );
            }
            // `rail == 4` doubles as "no degradation" (the cluster has 4 rails).
            let (at_ms, rail, latency_ms) = degrade;
            if rail < 4 {
                scenario = scenario.inject(
                    SimTime::from_millis(at_ms),
                    ScenarioEvent::OcsDegraded {
                        rail: RailId(rail),
                        reconfig_latency: SimDuration::from_millis(latency_ms),
                    },
                );
            }
            scenario.run()
        };
        let mut config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.05,
            seed,
            ..OpusConfig::provisioned(SimDuration::from_millis(5))
        };
        if replan == 1 {
            config.recovery_policy = RecoveryPolicy::Replan;
        }
        let result = build(config);
        prop_assert_eq!(
            serde_json::to_string_pretty(&result).expect("scenario results serialize"),
            serde_json::to_string_pretty(&build(config)).expect("scenario results serialize"),
            "two runs of the same timeline diverged"
        );
        prop_assert!(
            circuits_conserved(&result.fleet),
            "set up {:?} vs torn down {:?}",
            result.fleet.circuits_set_up_by_rail,
            result.fleet.circuits_torn_down_by_rail
        );
    }

    #[test]
    fn serving_timelines_are_reproducible_and_retire_every_request(
        bursts in proptest::collection::vec((0u64..200, 1u32..16), 1..5),
        grow_ms in 0u64..200,
        shrink_ms in 0u64..200,
        eviction_draw in 0u32..3,
        seed in 0u64..1000,
    ) {
        // The serving event class — open-loop request bursts, elastic grow/shrink,
        // tenant-aware eviction — joins the same contract as the rail flaps above: a
        // mixed training + inference scenario on shared rails must serialize
        // byte-identically across two runs under every eviction policy, conserve
        // circuits per rail, and retire exactly the requests it was sent.
        let eviction = [
            EvictionPolicy::Never,
            EvictionPolicy::LruTenant,
            EvictionPolicy::FairShare,
        ][eviction_draw as usize];
        let build = |config: OpusConfig| {
            // 5 nodes: the 16-rank trainer packed at GPU 0, the 16-GPU serving
            // deployment one node over, so their circuits conflict on rails 0-3.
            let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 5).build();
            let model = ModelConfig::tiny_test();
            let parallel = ParallelismConfig::paper_llama3_8b();
            let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
            let train_dag = DagBuilder::new(model, parallel, compute).build();
            let inference = InferenceConfig::tiny_test(4, 2, 2);
            let serving = ServingSpec::for_inference(&inference, 1);
            let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
            let mut scenario = ScenarioSpec::new(cluster)
                .job(train_dag, config)
                .serving_job(serve_dag, config, JobPlacement::AtGpu(4), serving)
                .inject(
                    SimTime::from_millis(grow_ms),
                    ScenarioEvent::JobGrow { job: JobId(1) },
                )
                .inject(
                    SimTime::from_millis(shrink_ms),
                    ScenarioEvent::JobShrink { job: JobId(1) },
                );
            for &(at_ms, requests) in &bursts {
                scenario = scenario.inject(
                    SimTime::from_millis(at_ms),
                    ScenarioEvent::RequestBurst { job: JobId(1), requests },
                );
            }
            scenario.run()
        };
        let mut config = OpusConfig {
            iterations: 2,
            compute_jitter: 0.05,
            seed,
            ..OpusConfig::on_demand(SimDuration::from_millis(5))
        };
        config.eviction = eviction;
        let result = build(config);
        prop_assert_eq!(
            serde_json::to_string_pretty(&result).expect("scenario results serialize"),
            serde_json::to_string_pretty(&build(config)).expect("scenario results serialize"),
            "two runs of the same mixed-tenancy timeline diverged under {}",
            eviction.name()
        );
        prop_assert!(
            circuits_conserved(&result.fleet),
            "set up {:?} vs torn down {:?}",
            result.fleet.circuits_set_up_by_rail,
            result.fleet.circuits_torn_down_by_rail
        );
        let injected: u64 = bursts.iter().map(|&(_, requests)| u64::from(requests)).sum();
        prop_assert_eq!(result.jobs[1].requests_completed, injected);
    }

    #[test]
    fn memoized_fast_forward_is_byte_identical_to_naive(
        flap in (100u64..2_000, 50u64..1_000, 0u32..5),
        degrade in (100u64..2_000, 0u32..5, 1u64..10),
        two_jobs in 0u32..2,
        replan in 0u32..2,
    ) {
        // Steady-state memoization must be invisible: a clean single-job run (memo
        // engages), a rail-flap or switch-delay timeline (memo invalidates and
        // re-arms, a delay change leaving fast-forwarded circuits installed) and a
        // two-job scenario (memo disables itself) all serialize byte-identically to
        // the naive path. Half the cases run under `RecoveryPolicy::Replan`, so
        // fast-forward windows must also agree with the naive path while a degraded
        // plan is live. The controller's request counters are not serialized, so
        // they are compared on their own.
        let base = memo_config(replan == 1);
        let run = |config: OpusConfig| flap_spec(flap, degrade, two_jobs == 1, config).run();
        let memo = run(base);
        let naive = run(OpusConfig {
            memoize_steady_state: false,
            ..base
        });
        prop_assert_eq!(
            serialized(&memo),
            serialized(&naive),
            "memoized and naive paths diverged"
        );
        prop_assert_eq!(
            request_counters(&memo),
            request_counters(&naive),
            "memoized and naive request counters diverged"
        );
    }

    #[test]
    fn record_free_runs_match_runs_with_records_cleared(
        flap in (100u64..2_000, 50u64..1_000, 0u32..5),
        degrade in (100u64..2_000, 0u32..5, 1u64..10),
        two_jobs in 0u32..2,
        replan in 0u32..2,
        memo in 0u32..2,
    ) {
        // `run_without_records` keeps no records and replays fast-forwards without
        // them; everything else it reports must be exactly what `run` reports, over
        // the same memo / flap / switch-delay / two-job / replan generator as the
        // memoization property.
        let config = OpusConfig {
            memoize_steady_state: memo == 1,
            ..memo_config(replan == 1)
        };
        let spec = flap_spec(flap, degrade, two_jobs == 1, config);
        let mut full = spec.clone().run();
        let free = spec.run_without_records();
        prop_assert_eq!(request_counters(&free), request_counters(&full));
        clear_records(&mut full);
        prop_assert_eq!(serialized(&free), serialized(&full));
    }

    // ---- fleet service -------------------------------------------------------------

    #[test]
    fn fleet_sweeps_are_worker_count_invariant(
        workers in 2u32..6,
        traces in 1u32..4,
        base_seed in 0u64..1000,
    ) {
        // The fleet pool's ordered results are a pure function of the sweep spec:
        // any worker count must serialize byte-identically to the sequential run.
        let service = tiny_fleet_service();
        let mut sweep = tiny_fleet_sweep(base_seed, traces);
        let sequential = service.evaluate(&sweep);
        sweep.workers = workers;
        let pooled = service.evaluate(&sweep);
        prop_assert_eq!(
            serde_json::to_string_pretty(&sequential.variants).expect("variants serialize"),
            serde_json::to_string_pretty(&pooled.variants).expect("variants serialize"),
            "{} workers changed the ordered variant results", workers
        );
    }

    #[test]
    fn shared_template_variants_match_fresh_built_scenarios(
        variant in 0usize..6,
        base_seed in 0u64..1000,
    ) {
        // A sweep variant runs against the service's cached `Arc<TrainingDag>`
        // template; rebuilding the same spec around a freshly constructed DAG must
        // serialize byte-identically — sharing is a memory optimization, never an
        // observable behavior.
        let service = tiny_fleet_service();
        let sweep = tiny_fleet_sweep(base_seed, 3);
        let shared = service.variant_spec(&sweep, variant);
        let mut fresh = shared.clone();
        for job in &mut fresh.jobs {
            job.dag = std::sync::Arc::new(tiny_fleet_dag());
        }
        prop_assert_eq!(
            serde_json::to_string_pretty(&shared.run()).expect("scenario results serialize"),
            serde_json::to_string_pretty(&fresh.run()).expect("scenario results serialize")
        );
    }
}

#[test]
fn record_free_serving_runs_match_runs_with_records_cleared() {
    // The serving tenant, its bursts, grow/shrink and a FairShare trainer: no memo,
    // so the record-free run keeps no record at all.
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 5).build();
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let train_dag = DagBuilder::new(model, parallel, compute).build();
    let inference = InferenceConfig::tiny_test(4, 2, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
    let mut config = OpusConfig {
        iterations: 3,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::on_demand(SimDuration::from_millis(5))
    };
    config.eviction = EvictionPolicy::FairShare;
    let burst = |ms: u64, requests: u32| {
        (
            SimTime::from_millis(ms),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests,
            },
        )
    };
    let spec = ScenarioSpec::new(cluster)
        .job(train_dag, config)
        .serving_job(serve_dag, config, JobPlacement::AtGpu(4), serving)
        .inject_all([burst(1, 8), burst(40, 12), burst(90, 3)])
        .inject(
            SimTime::from_millis(20),
            ScenarioEvent::JobGrow { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(60),
            ScenarioEvent::JobShrink { job: JobId(1) },
        );
    let mut full = spec.clone().run();
    assert!(full.jobs[1].result.iterations.len() > 1);
    clear_records(&mut full);
    assert_eq!(serialized(&spec.run_without_records()), serialized(&full));
}

/// The memoization generator: the paper's 16-GPU job (twice, side by side, when
/// `two_jobs`) with an optional rail flap and an optional change of one rail's
/// switch delay. `flap` is `(down ms, up after ms, rail)`; `degrade` is `(at ms,
/// rail, latency ms)`, where a latency of 1–4 ms stays 1–4 ms, faster than the
/// job's 5 ms, and 5–9 ms becomes 6–10 ms, slower. Rail 4 means none (the cluster
/// has 4 rails).
fn flap_spec(
    flap: (u64, u64, u32),
    degrade: (u64, u32, u64),
    two_jobs: bool,
    config: OpusConfig,
) -> ScenarioSpec {
    let nodes = if two_jobs { 8 } else { 4 };
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, nodes).build();
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    let mut scenario = ScenarioSpec::new(cluster).job(dag.clone(), config);
    if two_jobs {
        scenario = scenario.job(dag, config);
    }
    let (down_ms, up_delta_ms, rail) = flap;
    if rail < 4 {
        scenario = scenario
            .inject(
                SimTime::from_millis(down_ms),
                ScenarioEvent::RailDown(RailId(rail)),
            )
            .inject(
                SimTime::from_millis(down_ms + up_delta_ms),
                ScenarioEvent::RailUp(RailId(rail)),
            );
    }
    let (at_ms, rail, latency_ms) = degrade;
    if rail < 4 {
        let latency_ms = if latency_ms < 5 {
            latency_ms
        } else {
            latency_ms + 1
        };
        scenario = scenario.inject(
            SimTime::from_millis(at_ms),
            ScenarioEvent::OcsDegraded {
                rail: RailId(rail),
                reconfig_latency: SimDuration::from_millis(latency_ms),
            },
        );
    }
    scenario
}

/// Eight jitter-free provisioned iterations: long enough for the memo to detect
/// steady state and fast-forward.
fn memo_config(replan: bool) -> OpusConfig {
    let mut config = OpusConfig {
        iterations: 8,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::provisioned(SimDuration::from_millis(5))
    };
    if replan {
        config.recovery_policy = RecoveryPolicy::Replan;
    }
    config
}

fn serialized(result: &ScenarioResult) -> String {
    serde_json::to_string_pretty(result).expect("scenario results serialize")
}

/// The controller's `(requests, no-op requests)`, which the serialization skips.
fn request_counters(result: &ScenarioResult) -> (u64, u64) {
    (result.fleet.controller_requests, result.fleet.noop_requests)
}

/// Replaces every iteration's records with an empty log, as a record-free run
/// returns them.
fn clear_records(result: &mut ScenarioResult) {
    for job in &mut result.jobs {
        for it in &mut job.result.iterations {
            it.comm_records = CommLog::default();
        }
    }
}

/// Per rail, the optical fabric never tears down more circuits than it set up (and
/// an optical scenario reports both counters for every rail).
fn circuits_conserved(fleet: &FleetMetrics) -> bool {
    let (up, down) = (
        &fleet.circuits_set_up_by_rail,
        &fleet.circuits_torn_down_by_rail,
    );
    !up.is_empty() && up.len() == down.len() && up.iter().zip(down).all(|(u, d)| u >= d)
}

/// The shared 4-node workload behind the fleet proptests.
fn tiny_fleet_dag() -> TrainingDag {
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    DagBuilder::new(model, parallel, compute).build()
}

fn tiny_fleet_service() -> FleetService {
    let service =
        FleetService::new(ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build());
    service.dag_template("tiny", tiny_fleet_dag);
    service
}

fn tiny_fleet_sweep(base_seed: u64, traces: u32) -> SweepSpec {
    SweepSpec {
        template: "tiny".to_string(),
        base_seed,
        traces_per_level: traces,
        levels: vec![
            ProvisioningLevel::bare("electrical", ReconfigPolicy::Electrical, SimDuration::ZERO),
            ProvisioningLevel::bare(
                "piezo-25ms",
                ReconfigPolicy::Provisioned,
                SimDuration::from_millis(25),
            ),
        ],
        failures: FailureModel {
            max_outages: 2,
            window: SimDuration::from_millis(60),
            min_outage: SimDuration::from_millis(1),
            max_outage: SimDuration::from_millis(10),
        },
        ..SweepSpec::default()
    }
}
