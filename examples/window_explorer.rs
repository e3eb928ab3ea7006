//! Domain scenario: explore the inter-parallelism windows of a workload — the idle
//! gaps Opus hides reconfigurations in (§3.1 / Fig. 4 of the paper) — and check which
//! OCS technologies fit them.
//!
//! ```sh
//! cargo run --release --example window_explorer
//! ```

use photonic_rails::cost::ocs_tech::ocs_technologies;
use photonic_rails::opus::{window_cdf, windows_on_rail};
use photonic_rails::prelude::*;

fn main() {
    let cluster = ClusterSpec::from_preset(NodePreset::PerlmutterA100, 4).build();
    let model = ModelConfig::llama3_8b();
    let parallel = ParallelismConfig::paper_llama3_8b();
    let compute = ComputeModel::derive(&model, &parallel, &GpuSpec::a100());
    let dag = DagBuilder::new(model, parallel, compute).build();

    // Measure windows on the electrical fabric over 10 iterations, as the paper did.
    let mut config = OpusConfig::electrical();
    config.iterations = 10;
    config.compute_jitter = 0.05;
    config.seed = 2024;
    let scenario = ScenarioSpec::new(cluster.clone()).job(dag, config).run();
    let result = &scenario.jobs[0].result;

    println!(
        "inter-parallelism windows per rail (10 iterations of Llama3-8B, TP=4/FSDP=2/PP=2):\n"
    );
    let mut all_windows = Vec::new();
    for rail in cluster.all_rails() {
        let mut windows = Vec::new();
        for it in &result.iterations {
            windows.extend(windows_on_rail(it.records_on_rail(rail), rail));
        }
        let cdf = window_cdf(&windows);
        println!(
            "  {rail}: {:3} windows, median {:>8.2} ms, p90 {:>8.2} ms, fraction >1 ms: {:.0}%",
            cdf.count(),
            cdf.quantile(0.5).unwrap_or(0.0),
            cdf.quantile(0.9).unwrap_or(0.0),
            100.0 * cdf.fraction_above(1.0)
        );
        all_windows.extend(windows);
    }

    // Show the biggest windows and what follows them.
    all_windows.sort_by_key(|w| std::cmp::Reverse(w.duration));
    println!("\nlargest windows and the traffic that follows them:");
    for w in all_windows.iter().take(5) {
        println!(
            "  {:>9} on {} between {} and {} phases (next phase moves {})",
            w.duration.to_string(),
            w.rail,
            w.before,
            w.after,
            w.traffic_after
        );
    }

    // Which switch technologies fit which fraction of the windows?
    let cdf = window_cdf(&all_windows);
    println!("\nOCS technologies vs the measured window distribution:");
    for tech in ocs_technologies() {
        let fraction = cdf.fraction_above(tech.reconfig_time.as_millis_f64());
        println!(
            "  {:28} reconfig {:>10} -> hides inside {:>5.1}% of windows",
            tech.name,
            tech.reconfig_time.to_string(),
            100.0 * fraction
        );
    }
    println!("\n(the paper's sweet spot — 3D MEMS / piezo — fits the large windows that precede");
    println!(" the bulky FSDP collectives, which is where hiding the delay matters most)");
}
