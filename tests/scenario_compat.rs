//! Byte-identity pins: refactors of the simulator must be invisible in its output.
//!
//! These tests hash serialized metrics of single-job, multi-job and serving
//! scenarios with FNV-1a and compare them against hashes captured on earlier
//! simulators (the single-job ones on the simulator before the scenario driver
//! existed, the "seed"). If any of them moves, a change altered observable
//! simulation behavior.
//!
//! The 1k-GPU pins are `#[ignore]`d (release-mode CI runs them explicitly: a debug
//! run of a 90k-task DAG is needlessly slow for the default suite).

use photonic_rails::prelude::*;

/// FNV-1a, the same hash the seed capture used. Stable, dependency-free.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn tiny_setup() -> (Cluster, TrainingDag) {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    (cluster, dag)
}

/// Runs `dag` as the only job on `cluster` and serializes the job's per-iteration
/// metrics, the shape every single-job pin was captured from.
fn serialized(cluster: Cluster, dag: TrainingDag, config: OpusConfig) -> String {
    let result = ScenarioSpec::new(cluster).job(dag, config).run();
    serde_json::to_string_pretty(&result.jobs[0].result).expect("simulation results serialize")
}

/// The seed hashes, captured at the pre-redesign commit with three iterations and
/// jitter (0.05, seed 42). The host-offload combinations cover the datapath-latency
/// edge (offloaded electrical traffic still pays the switch latency).
const TINY_SEED: &[(&str, u64)] = &[
    ("electrical", 0x329a91ecb689afd4),
    ("on-demand-25", 0x3037ccb77c04c2de),
    ("provisioned-25", 0xe31df525dcf0cc14),
    ("electrical-offload", 0xa7e274a7081b8f6d),
    ("provisioned-offload", 0x14ccf3e72b3a59f3),
];

fn tiny_config(name: &str) -> OpusConfig {
    use photonic_rails::opus::HostOffload;
    let base = match name {
        "electrical" => OpusConfig::electrical(),
        "on-demand-25" => OpusConfig::on_demand(SimDuration::from_millis(25)),
        "provisioned-25" => OpusConfig::provisioned(SimDuration::from_millis(25)),
        "electrical-offload" => OpusConfig {
            host_offload: Some(HostOffload::frontend_100g()),
            ..OpusConfig::electrical()
        },
        "provisioned-offload" => OpusConfig {
            host_offload: Some(HostOffload::frontend_100g()),
            ..OpusConfig::provisioned(SimDuration::from_millis(25))
        },
        other => panic!("unknown config {other}"),
    };
    OpusConfig {
        iterations: 3,
        compute_jitter: 0.05,
        seed: 42,
        ..base
    }
}

#[test]
fn single_job_wrapper_matches_the_seed_metrics() {
    for &(name, expected) in TINY_SEED {
        let (cluster, dag) = tiny_setup();
        let json = serialized(cluster, dag, tiny_config(name));
        assert_eq!(
            fnv1a(json.as_bytes()),
            expected,
            "{name}: serialized metrics diverged from the pre-redesign seed"
        );
    }
}

// ---- DAG byte-identity pins ---------------------------------------------------------
//
// FNV-1a of `serde_json::to_string(&dag)`, captured on the row-major task layout before
// the builders moved to task columns plus a dependency CSR. The serialized DAG is the
// Fig. 2 output and the input of every simulation, so the layout change must leave
// every task — kind, participants, dependency order, label — byte-identical.

fn dag_pin(dag: &TrainingDag) -> u64 {
    fnv1a(
        serde_json::to_string(dag)
            .expect("DAG serializes")
            .as_bytes(),
    )
}

#[test]
fn paper_dag_serializes_like_the_row_major_seed() {
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    assert_eq!(dag.len(), 1600);
    assert_eq!(dag_pin(&dag), 0xcea766eb9152e2df);
}

#[test]
fn inference_dag_serializes_like_the_row_major_seed() {
    let dag =
        InferenceDagBuilder::new(InferenceConfig::tiny_test(2, 2, 2), GpuSpec::a100()).build();
    assert_eq!(dag.len(), 42);
    assert_eq!(dag_pin(&dag), 0x3095be06e1735e2c);
}

#[test]
fn builder_and_hand_assembled_spec_serialize_identically() {
    // A spec assembled directly from its public fields must run byte-identically to
    // one built through `ScenarioSpec`'s builder methods, injected timeline included.
    for &(name, _) in TINY_SEED {
        let (cluster, dag) = tiny_setup();
        let config = tiny_config(name);
        let via_builder = ScenarioSpec::new(cluster.clone())
            .job(dag.clone(), config)
            .inject(SimTime::from_millis(5), ScenarioEvent::RailDown(RailId(0)))
            .inject(SimTime::from_millis(40), ScenarioEvent::RailUp(RailId(0)))
            .run();
        let mut spec = ScenarioSpec::new(cluster);
        spec.jobs.push(JobSpec {
            dag: std::sync::Arc::new(dag),
            config,
            placement: JobPlacement::Auto,
            serving: None,
        });
        spec.injections = vec![
            (SimTime::from_millis(5), ScenarioEvent::RailDown(RailId(0))),
            (SimTime::from_millis(40), ScenarioEvent::RailUp(RailId(0))),
        ];
        assert_eq!(
            serde_json::to_string_pretty(&via_builder).expect("scenario results serialize"),
            serde_json::to_string_pretty(&spec.run()).expect("scenario results serialize"),
            "{name}: hand-assembled spec diverged from the builder"
        );
    }
}

#[test]
fn memoized_steady_state_matches_the_naive_pin() {
    // Six jitter-free iterations: the memo arms its template after iteration 1 and
    // fast-forwards iterations 2-5. Both paths must land on one pinned hash — the hash was
    // captured from the naive path (`memoize_steady_state: false`), so this pin fails
    // if fast-forwarding perturbs any serialized byte.
    let (cluster, dag) = tiny_setup();
    let config = OpusConfig {
        iterations: 6,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::provisioned(SimDuration::from_millis(25))
    };
    let memoized = ScenarioSpec::new(cluster.clone())
        .job(dag.clone(), config)
        .run();
    let job = &memoized.jobs[0];
    let via_memo = serde_json::to_string_pretty(&job.result).expect("results serialize");
    assert_eq!(
        job.memoized_iterations, 4,
        "the memo must engage after two stepped iterations of a jitter-free run"
    );
    let via_naive = serialized(
        cluster,
        dag,
        OpusConfig {
            memoize_steady_state: false,
            ..config
        },
    );
    assert_eq!(via_memo, via_naive);
    assert_eq!(
        fnv1a(via_naive.as_bytes()),
        0x37966508faa37c81,
        "naive-path metrics diverged from the captured seed"
    );
}

// ---- mixed-tenancy pins ------------------------------------------------------------

/// The tiny mixed training + inference scenario: the 16-rank trainer packed at
/// GPU 0 and a 2-replica serving deployment one node over, so the two tenants
/// contend for rails 0-3 with *conflicting* (not identical) circuits. The full
/// serialized `ScenarioResult` is hashed, so any byte of drift in the serving
/// datapath — arrivals, elastic resizes, eviction accounting — shows up.
fn mixed_tenancy_result(eviction: EvictionPolicy) -> String {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 5).build();
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let train_dag = DagBuilder::new(model, parallel, compute).build();
    let mut config = OpusConfig {
        iterations: 3,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::on_demand(SimDuration::from_millis(25))
    };
    config.eviction = eviction;
    let inference = InferenceConfig::tiny_test(4, 2, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::a100()).build();
    let result = ScenarioSpec::new(cluster)
        .job(train_dag, config)
        .serving_job(serve_dag, config, JobPlacement::AtGpu(4), serving)
        .inject(
            SimTime::from_millis(1),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 8,
            },
        )
        .inject(
            SimTime::from_millis(20),
            ScenarioEvent::JobGrow { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(25),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 12,
            },
        )
        .inject(
            SimTime::from_millis(60),
            ScenarioEvent::JobShrink { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(70),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 6,
            },
        )
        .run();
    serde_json::to_string_pretty(&result).expect("scenario results serialize")
}

#[test]
fn mixed_tenancy_metrics_are_pinned() {
    // Two pins, captured when the serving subsystem landed: `Never` freezes the
    // tenancy-off datapath (the serving loop riding the unchanged claim path), and
    // `FairShare` freezes the eviction machinery itself — ledgers, clamped holds
    // and the per-tenant fairness metrics included.
    assert_eq!(
        fnv1a(mixed_tenancy_result(EvictionPolicy::Never).as_bytes()),
        0x53bdd337697f09d2,
        "mixed-tenancy metrics under Never diverged from the captured pin"
    );
    assert_eq!(
        fnv1a(mixed_tenancy_result(EvictionPolicy::FairShare).as_bytes()),
        0xadae779aa099f243,
        "mixed-tenancy metrics under FairShare diverged from the captured pin"
    );
}

// ---- 1k-GPU pins (release-mode CI smoke; run with `--ignored`) ---------------------

fn scaled_setup_1k() -> (Cluster, TrainingDag) {
    let num_gpus = 1024u32;
    let cluster = ClusterSpec::from_preset(NodePreset::DgxH200, num_gpus / 8).build();
    let parallel = ParallelismConfig {
        tensor: 8,
        sequence_parallel: true,
        context: 1,
        expert: 1,
        data: num_gpus / 64,
        data_kind: DataParallelKind::FullySharded,
        pipeline: 8,
        num_microbatches: 8,
        microbatch_size: 1,
        seq_len: 8192,
    };
    let model = ModelConfig::llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::h200());
    let dag = DagBuilder::new(model, parallel, compute).build();
    (cluster, dag)
}

fn scale_config_1k() -> OpusConfig {
    OpusConfig {
        iterations: 2,
        compute_jitter: 0.0,
        seed: 1,
        ..OpusConfig::provisioned(SimDuration::from_millis(25))
    }
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_gpus_electrical() {
    let (cluster, dag) = scaled_setup_1k();
    let mut config = scale_config_1k();
    config.policy = ReconfigPolicy::Electrical;
    config.reconfig_latency = SimDuration::ZERO;
    let json = serialized(cluster, dag, config);
    assert_eq!(
        fnv1a(json.as_bytes()),
        0xe2bc843895736f9b,
        "1k-GPU electrical metrics diverged from the pre-redesign seed"
    );
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_gpus_optical_provisioned() {
    let (cluster, dag) = scaled_setup_1k();
    let json = serialized(cluster, dag, scale_config_1k());
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x16946823ed24f10a,
        "1k-GPU optical metrics diverged from the pre-redesign seed"
    );
}

/// Runs the standard 1k-GPU rail-flap pulse (a quarter into iteration 1, half an
/// iteration long, rail 0) under `config` and returns the serialized single-job
/// metrics plus the iteration-1 inflation relative to the clean calibration run.
fn rail_flap_1k(config: OpusConfig) -> (String, f64) {
    let (cluster, dag) = scaled_setup_1k();
    let clean = ScenarioSpec::new(cluster.clone())
        .job(dag.clone(), config)
        .run();
    let it1 = &clean.jobs[0].result.iterations[1];
    let down = it1.started_at + it1.iteration_time.mul_f64(0.25);
    let up = down + it1.iteration_time.mul_f64(0.5);
    let flapped = ScenarioSpec::new(cluster)
        .job(dag, config)
        .inject(down, ScenarioEvent::RailDown(RailId(0)))
        .inject(up, ScenarioEvent::RailUp(RailId(0)))
        .run();
    let inflation = flapped.jobs[0].result.iterations[1]
        .iteration_time
        .as_secs_f64()
        / it1.iteration_time.as_secs_f64();
    let json = serde_json::to_string_pretty(&flapped.jobs[0].result).expect("results serialize");
    (json, inflation)
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_rail_flap_stall() {
    // `RecoveryPolicy::Stall` is the default: this run must stay byte-identical to
    // the pre-replan behavior (hash captured before the replan machinery landed).
    let (json, inflation) = rail_flap_1k(scale_config_1k());
    assert!(
        inflation > 1.0,
        "a stalled rail flap must inflate iteration 1, got {inflation:.4}x"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0xebc3c679b5b5d17a,
        "1k-GPU stall rail-flap metrics diverged from the pre-replan seed"
    );
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_mixed_tenancy() {
    // The release-mode mixed-tenancy smoke: the full 1k-GPU trainer shares its
    // rails with a 128-GPU serving deployment placed half a node in (so their
    // circuits conflict on every rail), under `FairShare` eviction with an elastic
    // grow/shrink pulse mid-run. Pins that the serving subsystem stays
    // byte-deterministic at datacenter scale, not just on the tiny testbed.
    let (cluster, dag) = scaled_setup_1k();
    let mut config = scale_config_1k();
    config.eviction = EvictionPolicy::FairShare;
    let inference = InferenceConfig::llama3_8b(8, 8, 2);
    let serving = ServingSpec::for_inference(&inference, 1);
    let serve_dag = InferenceDagBuilder::new(inference, GpuSpec::h200()).build();
    let result = ScenarioSpec::new(cluster)
        .job(dag, config)
        .serving_job(serve_dag, config, JobPlacement::AtGpu(4), serving)
        .inject(
            SimTime::from_millis(1),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 64,
            },
        )
        .inject(
            SimTime::from_millis(30),
            ScenarioEvent::JobGrow { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(40),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 64,
            },
        )
        .inject(
            SimTime::from_millis(80),
            ScenarioEvent::JobShrink { job: JobId(1) },
        )
        .inject(
            SimTime::from_millis(100),
            ScenarioEvent::RequestBurst {
                job: JobId(1),
                requests: 32,
            },
        )
        .run();
    assert_eq!(
        result.jobs[1].requests_completed, 160,
        "the serving tenant must drain every injected request"
    );
    assert!(result.jobs[1].p99_request_latency.is_some());
    let json = serde_json::to_string_pretty(&result).expect("scenario results serialize");
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x8147c397e8ac5651,
        "1k-GPU mixed-tenancy metrics diverged from the captured pin"
    );
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_rail_flap_replan() {
    // The same flap under `RecoveryPolicy::Replan`: the degraded schedule keeps the
    // job off the dead rail, so iteration 1 must inflate strictly less than the
    // stalled twin (which pays a full outage stall) on the identical seed.
    let mut config = scale_config_1k();
    config.recovery_policy = RecoveryPolicy::Replan;
    let (json, replan_inflation) = rail_flap_1k(config);
    let (_, stall_inflation) = rail_flap_1k(scale_config_1k());
    assert!(
        replan_inflation < stall_inflation,
        "replan must beat stall on the same flap: {replan_inflation:.4}x vs {stall_inflation:.4}x"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0xf72d8c9012a07552,
        "1k-GPU replan rail-flap metrics diverged from the captured pin"
    );
}

#[test]
#[ignore = "1k-GPU release-mode pin; run explicitly (CI does) — slow in debug builds"]
fn seed_pin_1k_dag_serialization() {
    let (_, dag) = scaled_setup_1k();
    assert_eq!(dag.len(), 89_792);
    assert_eq!(dag_pin(&dag), 0x2a0675038291d97f);
}
