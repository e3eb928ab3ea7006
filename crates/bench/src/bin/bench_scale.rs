//! Turns `cargo bench` output into the CI perf-baseline artifact `BENCH_scale.json`.
//!
//! The CI `bench` job runs the eleven perf-tracking criterion benches
//! (`iteration_sim`, `controller`, `window_extraction`, `ocs_install_churn`,
//! `scenario_step`, `memoized_iteration`, `fleet_sweep_small`, `replan_swap`,
//! `inference_burst`, `dag_build`, `engine`), pipes their combined stdout to a file,
//! and then runs this binary over it:
//!
//! ```text
//! cargo bench --bench iteration_sim --bench controller --bench window_extraction \
//!     --bench ocs_install_churn --bench scenario_step --bench memoized_iteration \
//!     --bench fleet_sweep_small --bench replan_swap --bench inference_burst \
//!     --bench dag_build --bench engine \
//!     | tee bench.out
//! bench_scale bench.out [BENCH_scale.json]
//! ```
//!
//! The vendored criterion prints one
//! `bench: <name>  <ns> ns/iter (<iters> iters) peak_rss <mib> MiB` line per
//! benchmark (the peak-RSS pair is best-effort and absent off Linux); this parser
//! collects them and writes a JSON document with the ns/iter and peak RSS per bench,
//! the GPU count of the bench workload, and the git sha — the fields a perf
//! trajectory needs to compare runs across commits, time and memory both.

use railsim_bench::paper_cluster;
use serde::Serialize;
use std::process::Command;

/// One parsed benchmark measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct BenchResult {
    name: String,
    ns_per_iter: f64,
    iters: u64,
    /// Per-bench peak resident set (`VmHWM` reset before the bench ran), when the
    /// platform reported one.
    peak_rss_mib: Option<f64>,
}

/// The `BENCH_scale.json` document.
#[derive(Debug, Serialize)]
struct BenchReport {
    git_sha: String,
    /// GPU count of the canonical bench workload (the paper's 16-GPU testbed; the
    /// scale regime is tracked by `results/table3_scale.json`).
    gpu_count: u32,
    benches: Vec<BenchResult>,
}

/// Parses the vendored criterion's `bench:` lines.
fn parse_bench_lines(text: &str) -> Vec<BenchResult> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("bench:") else {
            continue;
        };
        // `<name>  <ns> ns/iter (<iters> iters)`
        let mut tokens = rest.split_whitespace();
        let Some(name) = tokens.next() else { continue };
        let Some(ns_token) = tokens.next() else {
            continue;
        };
        let Ok(ns_per_iter) = ns_token.parse::<f64>() else {
            continue;
        };
        if tokens.next() != Some("ns/iter") {
            continue;
        }
        let iters = tokens
            .next()
            .and_then(|t| t.trim_start_matches('(').parse::<u64>().ok())
            .unwrap_or(0);
        // Skip the closing `iters)` token; after it comes an optional
        // `peak_rss <mib> MiB` pair.
        let peak_rss_mib = match (tokens.next(), tokens.next(), tokens.next()) {
            (Some("iters)"), Some("peak_rss"), Some(mib)) => mib.parse::<f64>().ok(),
            _ => None,
        };
        out.push(BenchResult {
            name: name.to_string(),
            ns_per_iter,
            iters,
            peak_rss_mib,
        });
    }
    out
}

/// The commit being measured: `$GITHUB_SHA` in CI, `git rev-parse HEAD` locally.
fn git_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let input = args
        .next()
        .expect("usage: bench_scale <bench-output-file> [out.json]");
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_scale.json".to_string());

    let text = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| panic!("could not read bench output {input}: {e}"));
    let benches = parse_bench_lines(&text);
    assert!(
        !benches.is_empty(),
        "no `bench: ... ns/iter` lines found in {input}; did cargo bench run?"
    );

    let report = BenchReport {
        git_sha: git_sha(),
        gpu_count: paper_cluster().num_gpus(),
        benches,
    };
    let json = serde_json::to_string_pretty(&report).expect("bench report serializes");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("could not write {out_path}: {e}"));
    println!(
        "wrote {out_path}: {} benches at sha {}",
        report.benches.len(),
        report.git_sha
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vendored_criterion_lines() {
        let text = "group: iteration_simulation\n\
                    bench: electrical_baseline                               123456.7 ns/iter (81 iters) peak_rss 101.5 MiB\n\
                    noise line\n\
                    bench: controller_alternating_requests_1k                  999.0 ns/iter (200000 iters)\n";
        let parsed = parse_bench_lines(text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "electrical_baseline");
        assert!((parsed[0].ns_per_iter - 123456.7).abs() < 1e-6);
        assert_eq!(parsed[0].iters, 81);
        assert_eq!(parsed[0].peak_rss_mib, Some(101.5));
        assert_eq!(parsed[1].name, "controller_alternating_requests_1k");
        assert_eq!(parsed[1].peak_rss_mib, None);
    }

    #[test]
    fn ignores_malformed_lines() {
        let text = "bench: missing_numbers\nbench: bad 12x ns/iter (3 iters)\n";
        assert!(parse_bench_lines(text).is_empty());
    }
}
