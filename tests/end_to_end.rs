//! End-to-end integration tests of the paper's headline results, exercised through
//! the public API exactly the way the experiment binaries use it: Fig. 4's window
//! distribution, Fig. 8's latency sweep, Fig. 7's cost and power savings, Table 3
//! and Eq. 1, plus two cross-policy checks (electrical and optical runs move the
//! same traffic; reconfigurations are far fewer than collectives). EXPERIMENTS.md
//! records where the reproduction deviates from the paper.

use photonic_rails::cost::ocs_tech::{ocs_technologies, scaleup};
use photonic_rails::opus::{
    default_traffic_buckets_mb, window_cdf, windows_by_following_traffic, windows_on_rail,
};
use photonic_rails::prelude::*;
use photonic_rails::workload::windows::{llama31_405b_inputs, window_count};

fn paper_cluster() -> Cluster {
    ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build()
}

fn paper_dag() -> TrainingDag {
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    DagBuilder::new(model, parallel, compute).build()
}

/// Runs `dag` as the only job on `cluster` and returns its per-iteration metrics.
fn run_single(cluster: Cluster, dag: TrainingDag, config: OpusConfig) -> SimulationResult {
    ScenarioSpec::new(cluster)
        .job(dag, config)
        .run()
        .jobs
        .remove(0)
        .result
}

#[test]
fn fig4_majority_of_windows_exceed_one_millisecond() {
    let cluster = paper_cluster();
    let result = run_single(
        cluster.clone(),
        paper_dag(),
        OpusConfig {
            iterations: 5,
            compute_jitter: 0.05,
            seed: 42,
            ..OpusConfig::electrical()
        },
    );

    for rail in cluster.all_rails() {
        let mut windows = Vec::new();
        for it in &result.iterations {
            windows.extend(windows_on_rail(it.records_on_rail(rail), rail));
        }
        assert!(!windows.is_empty(), "every rail must show windows");
        let cdf = window_cdf(&windows);
        assert!(
            cdf.fraction_above(1.0) > 0.5,
            "paper: the majority of windows exceed 1 ms (rail {rail}: {:.2})",
            cdf.fraction_above(1.0)
        );
    }
}

#[test]
fn fig4_largest_traffic_class_sees_the_largest_windows() {
    let cluster = paper_cluster();
    let result = run_single(
        cluster,
        paper_dag(),
        OpusConfig {
            iterations: 5,
            compute_jitter: 0.05,
            seed: 7,
            ..OpusConfig::electrical()
        },
    );
    let windows: Vec<_> = result
        .iterations
        .iter()
        .flat_map(|it| windows_on_rail(it.records_on_rail(RailId(0)), RailId(0)))
        .collect();
    let buckets = windows_by_following_traffic(&windows, default_traffic_buckets_mb());
    let summaries = buckets.buckets();
    // The paper's enabling observation: the bulky collectives are preceded by windows
    // long enough to hide tens-of-milliseconds reconfigurations. Among the *collective*
    // buckets (sync AR, AllGather, ReduceScatter) the window grows with the following
    // volume; the pipeline Send/Recv bucket also sees very large windows in our
    // reproduction because it absorbs the pipeline bubbles (see EXPERIMENTS.md).
    let rs_mean = summaries
        .last()
        .and_then(|s| s.mean())
        .expect("the ReduceScatter bucket must not be empty");
    let sync_mean = summaries[0].mean().unwrap_or(0.0);
    let ag_mean = summaries[2].mean().unwrap_or(0.0);
    assert!(
        rs_mean >= sync_mean && rs_mean >= ag_mean,
        "the ReduceScatter bucket ({rs_mean:.2} ms) must dominate the sync ({sync_mean:.2} ms) \
         and AllGather ({ag_mean:.2} ms) buckets"
    );
    assert!(
        rs_mean > 25.0,
        "the window before the ReduceScatter phase must hide a piezo-class (25 ms) switch, got {rs_mean:.2} ms"
    );
}

#[test]
fn fig8_shape_monotone_and_provisioning_helps() {
    let cluster = paper_cluster();
    let dag = paper_dag();
    let baseline = run_single(
        cluster.clone(),
        dag.clone(),
        OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 1,
            ..OpusConfig::electrical()
        },
    );
    let base = baseline.steady_state_iteration_time().as_secs_f64();

    let mut prev_od = 0.0f64;
    for ms in [1u64, 10, 100, 1000] {
        let od = run_single(
            cluster.clone(),
            dag.clone(),
            OpusConfig {
                iterations: 2,
                compute_jitter: 0.0,
                seed: 1,
                ..OpusConfig::on_demand(SimDuration::from_millis(ms))
            },
        )
        .steady_state_iteration_time()
        .as_secs_f64()
            / base;
        let pr = run_single(
            cluster.clone(),
            dag.clone(),
            OpusConfig {
                iterations: 2,
                compute_jitter: 0.0,
                seed: 1,
                ..OpusConfig::provisioned(SimDuration::from_millis(ms))
            },
        )
        .steady_state_iteration_time()
        .as_secs_f64()
            / base;

        assert!(
            od >= 1.0 - 1e-9 && pr >= 1.0 - 1e-9,
            "optical cannot beat the baseline"
        );
        assert!(
            pr <= od + 1e-9,
            "provisioning must not hurt (at {ms} ms: {pr} vs {od})"
        );
        assert!(
            od >= prev_od - 1e-9,
            "normalized time must be monotone in latency"
        );
        prev_od = od;
    }
    // At a second of switching delay the slowdown must be substantial — the regime the
    // paper's Fig. 8 shows at 1.65x/1.47x.
    assert!(
        prev_od > 1.1,
        "1000 ms reconfigurations must visibly hurt, got {prev_od}"
    );
}

#[test]
fn fig8_piezo_class_switch_with_provisioning_costs_little() {
    let cluster = paper_cluster();
    let dag = paper_dag();
    let baseline = run_single(
        cluster.clone(),
        dag.clone(),
        OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 3,
            ..OpusConfig::electrical()
        },
    );
    let provisioned = run_single(
        cluster,
        dag,
        OpusConfig {
            iterations: 3,
            compute_jitter: 0.0,
            seed: 3,
            ..OpusConfig::provisioned(SimDuration::from_millis(25))
        },
    );
    let ratio = provisioned.normalized_against(&baseline);
    assert!(
        ratio < 1.12,
        "a 25 ms OCS with provisioning should stay within ~10% of the baseline, got {ratio:.3}"
    );
}

#[test]
fn fig7_cost_and_power_ordering_and_headline_savings() {
    let model = GpuBackendCostModel::dgx_h200_400g();
    for n in [1024u64, 2048, 4096, 8192] {
        let ft = model.evaluate(FabricKind::FatTree, n);
        let rail = model.evaluate(FabricKind::RailOptimized, n);
        let opus = model.evaluate(FabricKind::Opus, n);
        assert!(opus.capex_usd < rail.capex_usd && rail.capex_usd <= ft.capex_usd);
        assert!(opus.power_watts < rail.power_watts && rail.power_watts <= ft.power_watts);
    }
    let rail = model.evaluate(FabricKind::RailOptimized, 8192);
    let opus = model.evaluate(FabricKind::Opus, 8192);
    assert!((0.60..=0.80).contains(&opus.capex_saving_vs(&rail)));
    assert!((0.88..=0.97).contains(&opus.power_saving_vs(&rail)));
}

#[test]
fn table3_reproduces_exactly_and_eq1_gives_about_127_windows() {
    let techs = ocs_technologies();
    let piezo = techs.iter().find(|t| t.name.contains("Piezo")).unwrap();
    assert_eq!(piezo.max_gpus(scaleup::GB200), 20_736);
    assert_eq!(piezo.max_gpus(scaleup::H200), 2_304);
    let robotic = techs.iter().find(|t| t.name.contains("Robotic")).unwrap();
    assert_eq!(robotic.max_gpus(scaleup::GB200), 36_288);

    let windows = window_count(&llama31_405b_inputs()).total();
    assert!(
        (126..=128).contains(&windows),
        "Eq. 1 should give ~127, got {windows}"
    );
}

#[test]
fn electrical_and_optical_runs_agree_on_traffic_volume() {
    // The network policy changes *when* traffic moves, never *how much*.
    let cluster = paper_cluster();
    let dag = paper_dag();
    let electrical = run_single(
        cluster.clone(),
        dag.clone(),
        OpusConfig {
            iterations: 1,
            compute_jitter: 0.0,
            seed: 9,
            ..OpusConfig::electrical()
        },
    );
    let optical = run_single(
        cluster,
        dag,
        OpusConfig {
            iterations: 1,
            compute_jitter: 0.0,
            seed: 9,
            ..OpusConfig::provisioned(SimDuration::from_millis(25))
        },
    );
    assert_eq!(
        electrical.iterations[0].scaleout_bytes(),
        optical.iterations[0].scaleout_bytes()
    );
    assert_eq!(
        electrical.iterations[0].comm_records.len(),
        optical.iterations[0].comm_records.len()
    );
}

#[test]
fn reconfiguration_counts_are_far_below_collective_counts() {
    // Objective 2: Opus reconfigures on parallelism shifts, not on every collective.
    let cluster = paper_cluster();
    let result = run_single(
        cluster,
        paper_dag(),
        OpusConfig {
            iterations: 2,
            compute_jitter: 0.0,
            seed: 5,
            ..OpusConfig::provisioned(SimDuration::from_millis(25))
        },
    );
    let it = result.iterations.last().unwrap();
    let scaleout_ops = it.comm_records.iter().filter(|r| r.scaleout).count();
    assert!(
        it.reconfig_count() * 3 < scaleout_ops,
        "reconfigs ({}) should be a small fraction of scale-out collectives ({scaleout_ops})",
        it.reconfig_count()
    );
}
