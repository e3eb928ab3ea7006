//! Output pins: the figure, table and ablation binaries must print and write the same
//! bytes after a refactor.
//!
//! Each test runs one binary and compares an FNV-1a digest of its stdout, and of every
//! results JSON it reports writing, against digests captured before. A change that
//! moves a published number moves a digest here, so its diff lists every output it
//! moved. The `(wrote …)` lines are left out of the stdout digest: they print the
//! results directory, an absolute path under `cargo test`.
//!
//! `table3_scalability` and `fleet_sweep` print and write host measurements (wall
//! clock, events per second, peak RSS), so their stdout is not pinned. Their results
//! JSON is, minus the lines of those fields, at the points CI runs: the 1k-GPU Table 3
//! points, the 10k and 100k optical points, and the fleet smoke's 36-variant grid. The
//! 100k point takes about 16 s in a debug build on a 2-core machine, so it is
//! `#[ignore]`d and CI runs it in release. `fig7_cost_power --simulate` prints each
//! simulated size's wall clock in its table's last column; its stdout is pinned
//! without that column. `bench_scale` and `bench_compare` read benchmark reports
//! instead of simulating.
//!
//! Runs of one binary rewrite the same results files, so its tests take turns on a
//! lock.

use std::path::Path;
use std::process::Command;
use std::sync::Mutex;

/// Held by the `fig7_cost_power` tests while one runs.
static FIG7: Mutex<()> = Mutex::new(());
/// Held by the `table3_scalability` tests while one runs.
static TABLE3: Mutex<()> = Mutex::new(());

/// Takes `lock` even if a test that held it failed.
fn take(lock: &Mutex<()>) -> std::sync::MutexGuard<'_, ()> {
    lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a, the hash of the seed pins in the workspace's `scenario_compat` tests.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `text` without the column headed `header`, which must be its table's last: from the
/// header line to the table's first note or blank line, each line is cut where that
/// column starts.
fn without_last_column(text: &str, header: &str) -> String {
    let mut out = String::new();
    let mut cut_at = None;
    for line in text.split_inclusive('\n') {
        if let Some(at) = line.find(header) {
            cut_at = Some(at);
        } else if line.starts_with("note: ") || line.trim().is_empty() {
            cut_at = None;
        }
        match cut_at {
            Some(at) => {
                out.push_str(line.get(..at).unwrap_or(line).trim_end());
                out.push('\n');
            }
            None => out.push_str(line),
        }
    }
    out
}

/// Runs the binary at `exe` with `args` and returns the digest of its stdout minus the
/// `(wrote …)` lines and minus the table column headed `host_column`, if any, then the
/// file name and digest of each JSON those lines name, in the order the binary wrote
/// them. A JSON line whose key is one of `host_keys` is left out of its file's digest.
fn digests(
    exe: &str,
    args: &[&str],
    host_keys: &[&str],
    host_column: Option<&str>,
) -> Vec<(String, u64)> {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary starts");
    assert!(
        out.status.success(),
        "{exe} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let mut printed = String::new();
    let mut written = Vec::new();
    for line in stdout.split_inclusive('\n') {
        match line
            .strip_prefix("(wrote ")
            .and_then(|l| l.trim_end().strip_suffix(')'))
        {
            Some(path) => written.push(path.to_string()),
            None => printed.push_str(line),
        }
    }
    if let Some(header) = host_column {
        printed = without_last_column(&printed, header);
    }
    let host_line = |line: &str| {
        host_keys
            .iter()
            .any(|key| line.trim_start().starts_with(&format!("\"{key}\":")))
    };
    let mut digests = vec![("stdout".to_string(), fnv1a(printed.as_bytes()))];
    for path in written {
        let path = Path::new(&path);
        let json =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let kept: String = json
            .split_inclusive('\n')
            .filter(|line| !host_line(line))
            .collect();
        let name = path.file_name().expect("a file").to_string_lossy();
        digests.push((name.into_owned(), fnv1a(kept.as_bytes())));
    }
    digests
}

/// Asserts `got` against `pinned`, printing every digest of `got` in the pin's own
/// syntax on a mismatch.
fn assert_pinned(run: &str, got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let same = got.len() == pinned.len()
        && got
            .iter()
            .zip(pinned)
            .all(|((name, digest), (want_name, want))| name == want_name && digest == want);
    let listed: Vec<String> = got
        .iter()
        .map(|(name, digest)| format!("(\"{name}\", {digest:#018x})"))
        .collect();
    assert!(same, "{run} now reads [{}]", listed.join(", "));
}

/// Asserts the digests of the binary's run without arguments.
fn check(exe: &str, pinned: &[(&str, u64)]) {
    assert_pinned(exe, &digests(exe, &[], &[], None), pinned);
}

/// Asserts the digests of the JSON that the binary's run with `args` writes, minus the
/// lines of `host_keys`. Its stdout prints host measurements and is not pinned.
fn check_json(exe: &str, args: &[&str], host_keys: &[&str], pinned: &[(&str, u64)]) {
    let mut got = digests(exe, args, host_keys, None);
    got.retain(|(name, _)| name != "stdout");
    assert_pinned(&format!("{exe} {}", args.join(" ")), &got, pinned);
}

#[test]
fn eq1_window_count() {
    check(
        env!("CARGO_BIN_EXE_eq1_window_count"),
        &[
            ("stdout", 0xe30492e36431f2e7),
            ("eq1_window_count.json", 0x32dd6e251b8ec209),
        ],
    );
}

#[test]
fn fig2_iteration_dag() {
    check(
        env!("CARGO_BIN_EXE_fig2_iteration_dag"),
        &[("stdout", 0x1bb2c0b3fff2f2dd)],
    );
}

#[test]
fn fig3_comm_pattern() {
    check(
        env!("CARGO_BIN_EXE_fig3_comm_pattern"),
        &[
            ("stdout", 0x79f2d42a3b753a96),
            ("fig3_comm_pattern.json", 0x7b7b74a11fafcdba),
        ],
    );
}

#[test]
fn fig4_windows() {
    check(
        env!("CARGO_BIN_EXE_fig4_windows"),
        &[
            ("stdout", 0x138075d757ed5a07),
            ("fig4a_window_cdf.json", 0x2b79fca371fbeb8c),
            ("fig4b_window_buckets.json", 0x38eeea503418c382),
        ],
    );
}

#[test]
fn fig7_cost_power() {
    let _turn = take(&FIG7);
    check(
        env!("CARGO_BIN_EXE_fig7_cost_power"),
        &[
            ("stdout", 0x6f15fd322894b0a3),
            ("fig7_cost_power.json", 0x752cfec9be519acb),
        ],
    );
}

#[test]
fn fig7_cost_power_simulated() {
    let _turn = take(&FIG7);
    let exe = env!("CARGO_BIN_EXE_fig7_cost_power");
    assert_pinned(
        &format!("{exe} --simulate"),
        &digests(exe, &["--simulate"], &[], Some("Wall clock (s)")),
        &[
            ("stdout", 0x564db82abc00adb5),
            ("fig7_cost_power.json", 0x752cfec9be519acb),
        ],
    );
}

#[test]
fn fig8_reconfig_latency() {
    check(
        env!("CARGO_BIN_EXE_fig8_reconfig_latency"),
        &[
            ("stdout", 0xb7b3c8184c61ef54),
            ("fig8_reconfig_latency.json", 0x7197fea4d7c8c62e),
        ],
    );
}

#[test]
fn table1_strategies() {
    check(
        env!("CARGO_BIN_EXE_table1_strategies"),
        &[
            ("stdout", 0x93d1ea5be2ecd143),
            ("table1_strategies.json", 0x978208e072016204),
        ],
    );
}

#[test]
fn table2_parallelism_traffic() {
    check(
        env!("CARGO_BIN_EXE_table2_parallelism_traffic"),
        &[
            ("stdout", 0x8993dc08f793d4a4),
            ("table2_parallelism_traffic.json", 0x70e4f58128a7e1da),
        ],
    );
}

#[test]
fn ablation_provisioning() {
    check(
        env!("CARGO_BIN_EXE_ablation_provisioning"),
        &[
            ("stdout", 0x9d8f8ca7ef100879),
            ("ablation_provisioning.json", 0xf1ced0c2ca9bedfb),
        ],
    );
}

#[test]
fn ablation_port_config() {
    check(
        env!("CARGO_BIN_EXE_ablation_port_config"),
        &[
            ("stdout", 0x8a66b566e6dfbd8d),
            ("ablation_port_config.json", 0x6e8fb5567ee979e1),
        ],
    );
}

#[test]
fn ablation_collective_algorithms() {
    check(
        env!("CARGO_BIN_EXE_ablation_collective_algorithms"),
        &[
            ("stdout", 0xf6508e3c70b31cb5),
            ("ablation_collective_algorithms.json", 0xff3002caa428c07f),
        ],
    );
}

#[test]
fn ablation_host_offload() {
    check(
        env!("CARGO_BIN_EXE_ablation_host_offload"),
        &[
            ("stdout", 0x22b9ff6fdc12726e),
            ("ablation_host_offload.json", 0xf30606b6ada916c4),
        ],
    );
}

/// Asserts the results JSON of one `table3_scalability` run against `scale`, the
/// digest of its `table3_scale.json`. The technology table is the same at every point.
fn table3_point(args: &[&str], scale: u64) {
    check_json(
        env!("CARGO_BIN_EXE_table3_scalability"),
        args,
        &["wall_clock_s", "events_per_sec", "peak_rss_mib"],
        &[
            ("table3_scalability.json", 0x9d9ba5a6c1310350),
            ("table3_scale.json", scale),
        ],
    )
}

#[test]
fn table3_scalability_1k_points() {
    let _turn = take(&TABLE3);
    table3_point(&["--gpus", "1024"], 0x4f5fdd7b0bbd5ff3);
    table3_point(
        &["--gpus", "1024", "--scenario", "two-job"],
        0x48a6bbbe6b793ea1,
    );
    table3_point(
        &["--gpus", "1024", "--scenario", "rail-flap"],
        0x7e00f443cc167f35,
    );
    table3_point(
        &[
            "--gpus",
            "1024",
            "--scenario",
            "rail-flap",
            "--policy",
            "replan",
        ],
        0x8679869f2ff148dc,
    );
}

#[test]
fn table3_scalability_10k_optical() {
    let _turn = take(&TABLE3);
    table3_point(
        &["--gpus", "10240", "--policy", "optical"],
        0xf29265071e8c3e8a,
    );
}

#[test]
#[ignore = "slow in a debug build; CI runs it in release"]
fn table3_scalability_100k_optical() {
    let _turn = take(&TABLE3);
    table3_point(
        &["--gpus", "102400", "--policy", "optical"],
        0xc80ae0b45e285e6f,
    );
}

#[test]
fn fleet_sweep_1k_grid() {
    check_json(
        env!("CARGO_BIN_EXE_fleet_sweep"),
        &["--gpus", "1024", "--variants", "32", "--workers", "2"],
        &["wall_seconds"],
        &[("fleet_frontier.json", 0xf88a81882dd050a7)],
    );
}
