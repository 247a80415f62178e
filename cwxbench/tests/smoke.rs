//! Runs the real binary (the socket workloads re-exec it as the server
//! child, so a unit test inside the bin could not) over all four
//! workloads and the traced suite at 1/50 scale and asserts that every
//! output check passes. An API break in a layer crate surfaces here —
//! at `cargo test` time, not at measurement time.

use std::process::Command;

fn bench(args: &[&str], tmp: &str) -> (bool, Vec<String>, String) {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{tmp}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_cwxbench"))
        .args(args)
        .current_dir(&root)
        .env("CWXBENCH_TMP", root.join("tmp"))
        .output()
        .expect("run cwxbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let _ = std::fs::remove_dir_all(&root);
    (out.status.success(), lines, stderr)
}

#[test]
fn all_four_workloads_pass_their_checks_at_small_scale() {
    let (ok, lines, stderr) = bench(
        &["run", "--scale", "0.02", "--seconds", "1", "--seed", "5"],
        "run",
    );
    assert!(ok, "cwxbench run failed:\n{stderr}");
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stderr}");
    for line in &lines {
        assert!(line.starts_with("{\"correct\": true, "), "{line}\n{stderr}");
        assert!(line.contains("\"failed\": 0, "), "{line}\n{stderr}");
        for gated in [
            "setup_s",
            "cpu_us_per_kunit",
            "op_p50_ms",
            "bytes_per_kunit",
        ] {
            assert!(
                line.contains(&format!("\"{gated}\": {{\"value\": ")),
                "{gated} missing: {line}"
            );
        }
    }
    assert!(!stderr.contains("[FAIL]"), "{stderr}");
    for workload in ["ingest_live", "query_dash", "live_mixed", "sim_fleet"] {
        assert!(
            stderr.contains(&format!("== {workload} ")),
            "{workload} did not run:\n{stderr}"
        );
    }
}

#[test]
fn traced_suite_fills_the_whole_per_layer_table() {
    let (ok, lines, stderr) = bench(
        &["trace", "--scale", "0.02", "--seconds", "5", "--seed", "5"],
        "trace",
    );
    assert!(ok, "cwxbench trace failed:\n{stderr}");
    let line = lines.last().expect("a result line");
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    // a sample of rows from every source: twin [T], server child [S],
    // query_dash cache counters, sim_fleet, the instrument itself
    for row in [
        "cwx-proc.gather_us_per_tick",
        "cwx-monitor.decode_ns_per_value",
        "cwx-store.cold_ms_scan10s",
        "cwx-store.wal_bytes_per_sample",
        "clusterworx.ingest_rx_to_visible_p50_us",
        "cwx-store.cache_hit_share_5m",
        "cwx-fed.sub_events",
        "clusterworx.world_other_share",
        "bench.trace_overhead_share",
    ] {
        assert!(
            line.contains(&format!("\"{row}\": {{\"value\": ")),
            "{row} missing: {line}"
        );
    }
    assert!(
        !line.contains("\"op_p50_ms\""),
        "no end-to-end number comes from a traced run"
    );
    assert!(stderr.contains("twin:deterministic"), "{stderr}");
}

#[test]
fn usage_errors_exit_nonzero_without_a_result_line() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "0"],
        &["frobnicate"],
        &[],
    ] {
        let (ok, lines, _) = bench(args, "usage");
        assert!(!ok, "{args:?} should fail");
        assert!(lines.is_empty(), "{args:?} printed {lines:?}");
    }
}
