//! Release-mode scale smoke: drive a cluster an order of magnitude
//! larger than the unit tests touch and assert the engine holds up.
//! Ignored by default (it simulates 10 minutes of a 2,000-node
//! cluster); CI runs it with `--ignored` in the release-mode
//! scale-smoke job, and locally:
//!
//! ```text
//! cargo test -p bench --release --test scale_smoke -- --ignored
//! ```

use bench::e11_scale::monitor_load;

/// A 2,000-node cluster must simulate 10 minutes of monitoring well
/// inside CI patience, and the pipeline numbers must stay sane.
#[test]
#[ignore = "scale smoke; run with --ignored in release mode"]
fn two_thousand_nodes_ten_minutes() {
    let row = monitor_load(3, 2_000, 600, true);
    // every node reports once per 5 s cycle
    assert!(
        row.reports_per_sec > 2_000.0 / 5.0 * 0.8,
        "reports_per_sec collapsed: {row:?}"
    );
    // monitoring still a small fraction of one fast-Ethernet segment
    assert!(row.segment_fraction < 0.10, "{row:?}");
    // the engine, not the wall clock, is the limit: a 600 s window on
    // 2k nodes has to finish in minutes, not hours
    assert!(
        row.wall_secs < 300.0,
        "simulation too slow: {:.1}s wall for 600s simulated",
        row.wall_secs
    );
    assert!(row.events_per_sec > 10_000.0, "{row:?}");
}
