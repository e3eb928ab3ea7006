//! perfbench: the repository benchmark. It measures the simulator's host cost (set-up
//! time, run time, peak RSS) and the simulated outcome it reports, on three
//! workloads that stress different layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each operation is one scenario run (or one fleet sweep), set up from scratch; one
//! operation is in flight at a time. Operations repeat until `--seconds` have passed
//! (at least three, or four when traced), and host metrics are their medians. With
//! `--trace 0` the last stdout line carries the end-to-end metrics. With `--trace 1`
//! every other operation is traced, the last line carries the per-layer metrics, and
//! the spans and counters go to `results/perfbench/<workload>-seed<n>.trace.json`.
//! See `perfbench/README.md` for the metrics and what each layer metric should move.

mod trace;
mod workloads;

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{median, Op, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, Metric>,
}

#[derive(Serialize)]
struct TraceFile {
    workload: &'static str,
    seed: u64,
    digest: String,
    per_layer: BTreeMap<&'static str, Metric>,
    spans: Vec<trace::Span>,
}

/// Per-layer counters read from the public results, reported as they are.
const LAYER_COUNTERS: [&str; 14] = [
    "workload.dag_tasks",
    "scenario.task_iterations",
    "scenario.comm_records",
    "controller.reconfigs",
    "controller.circuits_set_up",
    "controller.circuits_torn_down",
    "controller.circuits_evicted",
    "controller.port_takeovers",
    "replan.reconfigs",
    "replan.degraded_iterations",
    "health.rail_failures",
    "scenario.injections_applied",
    "serving.requests_injected",
    "serving.requests_completed",
];

fn metric(value: f64, unit: &'static str) -> Metric {
    Metric { value, unit }
}

fn end_to_end(ops: &[&Op]) -> BTreeMap<&'static str, Metric> {
    let med = |f: fn(&Op) -> f64| median(&ops.iter().map(|op| f(op)).collect::<Vec<_>>());
    // Simulated outcomes are deterministic; the digest check pins them across ops.
    let first = ops[0];
    BTreeMap::from([
        ("setup_s", metric(med(|op| op.setup_s), "s")),
        ("run_s", metric(med(|op| op.run_s), "s")),
        ("peak_rss_mib", metric(med(|op| op.peak_rss_mib), "MiB")),
        ("sim_iter_s", metric(first.sim_iter_s, "sim_s")),
        (
            "sim_circuit_wait_s",
            metric(first.sim_circuit_wait_s, "sim_s"),
        ),
        ("sim_p99_s", metric(first.sim_p99_s, "sim_s")),
    ])
}

/// Per-layer metrics: span timings (medians over the traced operations), counters
/// from the last traced operation, and the ratios derived from both.
fn per_layer(
    tracer: &Tracer,
    traced: &[&Op],
    untraced: &[&Op],
    speedup: Option<f64>,
) -> BTreeMap<&'static str, Metric> {
    let span = |name: &str| median(&tracer.durations(name));
    let wall = |ops: &[&Op]| {
        median(
            &ops.iter()
                .map(|op| op.setup_s + op.run_s)
                .collect::<Vec<_>>(),
        )
    };
    let last = traced.last().expect("a traced run has traced operations");
    let counter = |name: &str| last.counters.get(name).copied().unwrap_or(0.0);
    let per = |value: f64, base: f64| if base > 0.0 { value / base } else { 0.0 };

    let mut metrics = BTreeMap::new();
    for name in LAYER_COUNTERS {
        metrics.insert(name, metric(counter(name), "count"));
    }
    let dag_build = span("workload.dag_build");
    let scenario_run = span("scenario.run");
    let timings = [
        ("workload.dag_build_s", dag_build, "s"),
        (
            "workload.build_ns_per_task",
            per(dag_build * 1e9, counter("workload.dag_tasks")),
            "ns",
        ),
        (
            "workload.inference_dag_build_s",
            span("workload.inference_dag_build"),
            "s",
        ),
        ("scenario.run_s", scenario_run, "s"),
        (
            "scenario.ns_per_task_iter",
            per(scenario_run * 1e9, counter("scenario.task_iterations")),
            "ns",
        ),
        ("fleet.template_build_s", span("fleet.template_build"), "s"),
        (
            "fleet.ms_per_variant",
            per(span("fleet.evaluate") * 1e3, counter("fleet.variants")),
            "ms",
        ),
        ("fleet.worker_speedup", speedup.unwrap_or(0.0), "x"),
        ("trace.overhead_s", wall(traced) - wall(untraced), "s"),
    ];
    for (name, value, unit) in timings {
        metrics.insert(name, metric(value, unit));
    }
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    let min_ops = if args.trace { 4 } else { 3 };
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut ops: Vec<(bool, Op)> = Vec::new();
    while ops.len() < min_ops || started.elapsed() < budget {
        let traced = args.trace && ops.len() % 2 == 1;
        tracer.start_run(ops.len() as u64, traced);
        ops.push((traced, workload.op(args.seed, &mut tracer)));
    }

    let digest = ops[0].1.digest;
    let mut attempted = ops.len() as u64;
    let mut failed = 0u64;
    for (i, (traced, op)) in ops.iter().enumerate() {
        let mut problems = op.failures.clone();
        if op.digest != digest {
            problems.push(format!(
                "result digest {:016x} differs from the first operation's {digest:016x}",
                op.digest
            ));
        }
        println!(
            "operation {i}{}: setup {:.4}s run {:.4}s peak {:.1} MiB",
            if *traced { " (traced)" } else { "" },
            op.setup_s,
            op.run_s,
            op.peak_rss_mib
        );
        for problem in &problems {
            eprintln!("operation {i}: {problem}");
        }
        failed += u64::from(!problems.is_empty());
    }
    println!(
        "workload {} seed {} digest {digest:016x}",
        workload.name(),
        args.seed
    );
    println!(
        "operations {} in {:.2}s",
        ops.len(),
        started.elapsed().as_secs_f64()
    );

    let untraced: Vec<&Op> = ops.iter().filter(|(t, _)| !t).map(|(_, op)| op).collect();
    let metrics = if args.trace {
        let traced: Vec<&Op> = ops.iter().filter(|(t, _)| *t).map(|(_, op)| op).collect();
        // The fleet sweep once more on one worker: its ordered results must be
        // byte-identical to the pooled run's, and its wall time gives the speedup.
        // Its spans stay out of the trace, whose timings describe the pooled runs.
        tracer.start_run(ops.len() as u64, false);
        let speedup = workload
            .single_worker(args.seed, &mut tracer)
            .map(|(wall, json)| {
                attempted += 1;
                if Some(&json) != traced[0].variants_json.as_ref() {
                    eprintln!("single-worker fleet results differ from the pooled run's");
                    failed += 1;
                }
                wall / median(&untraced.iter().map(|op| op.run_s).collect::<Vec<_>>())
            });
        let file = TraceFile {
            workload: workload.name(),
            seed: args.seed,
            digest: format!("{digest:016x}"),
            per_layer: per_layer(&tracer, &traced, &untraced, speedup),
            spans: tracer.spans().to_vec(),
        };
        let dir = std::path::Path::new("results/perfbench");
        let path = dir.join(format!("{}-seed{}.trace.json", workload.name(), args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&file).expect("trace serializes"),
                )
            })
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!("trace written to {}", path.display());
        file.per_layer
    } else {
        end_to_end(&untraced)
    };
    for (name, metric) in &metrics {
        println!("  {name:32} {:>16.6} {}", metric.value, metric.unit);
    }
    let summary = Summary {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&summary).expect("summary serializes")
    );
}
