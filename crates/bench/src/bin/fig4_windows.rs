//! Fig. 4: (a) the CDF of inter-parallelism window sizes per rail over 10 iterations,
//! and (b) the per-iteration window count and mean size bucketed by the traffic volume
//! of the phase that follows each window.

use opus::{
    default_traffic_buckets_mb, window_cdf, windows_by_following_traffic, windows_on_rail,
    OpusConfig, ScenarioSpec,
};
use railsim_bench::{paper_cluster, paper_dag, Report};
use railsim_topology::RailId;
use serde::Serialize;

#[derive(Serialize)]
struct CdfPoint {
    rail: u32,
    window_ms: f64,
    cumulative_fraction: f64,
}

#[derive(Serialize)]
struct BucketRow {
    bucket: String,
    windows_per_iteration: f64,
    mean_window_ms: f64,
}

fn main() {
    const ITERATIONS: u32 = 10;
    let cluster = paper_cluster();
    let dag = paper_dag();
    // Fig. 4 was measured on the electrical fabric (the windows are a property of the
    // application schedule, not of the network).
    let mut config = OpusConfig::electrical();
    config.iterations = ITERATIONS;
    config.compute_jitter = 0.05;
    config.seed = 42;
    let scenario = ScenarioSpec::new(cluster.clone()).job(dag, config).run();
    let result = &scenario.jobs[0].result;

    // (a) CDF of window sizes per rail.
    let mut cdf_report = Report::new(
        "Fig. 4(a) — CDF of inter-parallelism window sizes (10 iterations)",
        &[
            "rail",
            "windows",
            "p25 (ms)",
            "median (ms)",
            "p75 (ms)",
            "fraction > 1 ms",
        ],
    );
    let mut cdf_points = Vec::new();
    for rail in cluster.all_rails() {
        let mut windows = Vec::new();
        for it in &result.iterations {
            windows.extend(windows_on_rail(&it.comm_records, rail));
        }
        let cdf = window_cdf(&windows);
        cdf_report.row(&[
            format!("{rail}"),
            cdf.count().to_string(),
            format!("{:.2}", cdf.quantile(0.25).unwrap_or(0.0)),
            format!("{:.2}", cdf.quantile(0.5).unwrap_or(0.0)),
            format!("{:.2}", cdf.quantile(0.75).unwrap_or(0.0)),
            format!("{:.2}", cdf.fraction_above(1.0)),
        ]);
        for (value, fraction) in cdf.points() {
            cdf_points.push(CdfPoint {
                rail: rail.0,
                window_ms: value,
                cumulative_fraction: fraction,
            });
        }
    }
    cdf_report.note("paper: >75% of windows exceed 1 ms and rails behave alike");
    cdf_report.print();
    println!();

    // (b) Rail-0 windows bucketed by the following phase's traffic volume.
    let rail0_windows: Vec<_> = result
        .iterations
        .iter()
        .flat_map(|it| windows_on_rail(&it.comm_records, RailId(0)))
        .collect();
    let buckets = windows_by_following_traffic(&rail0_windows, default_traffic_buckets_mb());
    let labels = [
        "<1 MB (sync AR)",
        "1-200 MB (PP Send/Recv)",
        "0.2-2.5 GB (DP AllGather)",
        ">2.5 GB (DP ReduceScatter)",
    ];
    let mut bucket_report = Report::new(
        "Fig. 4(b) — rail-0 windows by following traffic volume",
        &[
            "traffic after window",
            "windows / iteration",
            "avg window (ms)",
        ],
    );
    let mut bucket_rows = Vec::new();
    for (summary, label) in buckets.buckets().iter().zip(labels) {
        let per_iter = summary.count() as f64 / ITERATIONS as f64;
        let mean = summary.mean().unwrap_or(0.0);
        bucket_report.row(&[
            label.to_string(),
            format!("{per_iter:.1}"),
            format!("{mean:.1}"),
        ]);
        bucket_rows.push(BucketRow {
            bucket: label.to_string(),
            windows_per_iteration: per_iter,
            mean_window_ms: mean,
        });
    }
    bucket_report
        .note("paper: the largest following traffic (ReduceScatter) sees the largest windows");
    bucket_report.print();

    Report::write_json("fig4a_window_cdf", &cdf_points);
    Report::write_json("fig4b_window_buckets", &bucket_rows);
}
