//! Determinism smoke test: the discrete-event engine must be bit-for-bit reproducible
//! for a fixed RNG seed. This guards the engine's `(time, sequence)` total order and
//! the `SimRng` stream layout against future parallelization or refactoring work — if
//! two identically-seeded runs ever diverge in *any* recorded metric, this fails on
//! the full serialized result, not just on a summary statistic.

use photonic_rails::prelude::*;

fn serialized_run(jitter_seed: u64, latency_ms: u64) -> String {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    let model = ModelConfig::tiny_test();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();
    let config = OpusConfig {
        iterations: 3,
        compute_jitter: 0.05,
        seed: jitter_seed,
        ..OpusConfig::provisioned(SimDuration::from_millis(latency_ms))
    };
    let result = ScenarioSpec::new(cluster).job(dag, config).run();
    serde_json::to_string_pretty(&result.jobs[0].result).expect("simulation results serialize")
}

#[test]
fn same_seed_produces_byte_identical_metrics() {
    let first = serialized_run(42, 25);
    let second = serialized_run(42, 25);
    assert!(
        !first.is_empty() && first.contains("iterations"),
        "serialized metrics look wrong: {first:.80}"
    );
    assert_eq!(
        first, second,
        "two identically-seeded runs must serialize byte-identically"
    );
}

#[test]
fn different_seeds_with_jitter_actually_diverge() {
    // Guard against the test above passing vacuously (e.g. jitter silently disabled):
    // different seeds must change at least one recorded metric.
    let a = serialized_run(1, 25);
    let b = serialized_run(2, 25);
    assert_ne!(a, b, "jitter seeds 1 and 2 produced identical traces");
}

#[test]
fn determinism_holds_across_policies() {
    for latency_ms in [0u64, 1, 25, 100] {
        let first = serialized_run(7, latency_ms);
        let second = serialized_run(7, latency_ms);
        assert_eq!(first, second, "divergence at latency {latency_ms} ms");
    }
}
