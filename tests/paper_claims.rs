//! Fast cross-crate checks of every headline claim in the paper — the
//! "does the shape hold" suite (full magnitudes live in the bench
//! harness; see EXPERIMENTS.md).

use std::time::Duration;

use bench::{e10_icebox, e11_scale, e12_slurm, e1_gathering, e5_boot, e7_pipeline, e8_compress};
use cwx_bios::Firmware;
use cwx_clone::protocol::{run_clone, CloneConfig, RepairStrategy};
use cwx_net::FAST_ETHERNET_BPS;

const WIN: Duration = Duration::from_millis(80);

#[test]
fn claim_s2_linuxbios_order_of_magnitude_faster() {
    let lb = e5_boot::boot_storm(1, 50, Firmware::LinuxBios);
    let legacy = e5_boot::boot_storm(1, 50, Firmware::LegacyBios);
    assert!(
        (2.0..=4.0).contains(&lb.firmware_secs.mean),
        "~3 s: {:?}",
        lb.firmware_secs
    );
    assert!(
        (28.0..=65.0).contains(&legacy.firmware_secs.mean),
        "30-60 s: {:?}",
        legacy.firmware_secs
    );
    assert!(legacy.firmware_secs.mean > lb.firmware_secs.mean * 10.0);
}

#[test]
fn claim_s3_sequencing_and_postmortem() {
    let s = e10_icebox::sequencing();
    assert!(s.sequenced_peak_watts < s.unsequenced_peak_watts / 4.0);
    let p = e10_icebox::post_mortem();
    assert!(p.panic_visible && p.boot_chatter_evicted);
}

#[test]
fn claim_s4_multicast_clones_hundreds_on_one_ethernet() {
    let cfg = CloneConfig {
        image_bytes: 24 << 20,
        pace_bps: 6 << 20,
        firmware: Firmware::LinuxBios,
        ..CloneConfig::default()
    };
    let mc = run_clone(9, 60, FAST_ETHERNET_BPS, 0.01, cfg.clone());
    let uni = run_clone(
        9,
        60,
        FAST_ETHERNET_BPS,
        0.01,
        CloneConfig {
            strategy: RepairStrategy::Unicast,
            ..cfg
        },
    );
    assert_eq!(mc.failed_nodes, 0);
    assert!(
        mc.wire_bytes * 20 < uni.wire_bytes,
        "{} vs {}",
        mc.wire_bytes,
        uni.wire_bytes
    );
    assert!(mc.data_complete_secs * 4.0 < uni.data_complete_secs);
}

#[test]
fn claim_s531_gathering_ladder_shape() {
    let src = e1_gathering::synthetic_proc();
    let rows = e1_gathering::ladder(&src, WIN);
    // every step is a win; the full ladder is >100x like the paper's
    // 85 -> 33855 (~400x)
    assert!(rows[1].samples_per_sec > rows[0].samples_per_sec * 3.0);
    assert!(rows[2].samples_per_sec > rows[1].samples_per_sec * 1.2);
    assert!(rows[3].samples_per_sec >= rows[2].samples_per_sec * 0.9);
    assert!(rows[3].samples_per_sec > rows[0].samples_per_sec * 50.0);
}

#[test]
fn claim_s532_consolidation_cuts_data_substantially() {
    let rows = e7_pipeline::ablation(40);
    let baseline = rows.iter().find(|r| !r.delta && !r.compress).unwrap();
    let product = rows.iter().find(|r| r.delta && r.compress).unwrap();
    assert!(product.bytes_per_tick * 2.5 < baseline.bytes_per_tick);
}

#[test]
fn claim_s533_compression_effective_on_text() {
    let rows = e8_compress::corpora();
    for r in rows {
        assert!(r.ratio < 0.85, "{}: {}", r.corpus, r.ratio);
    }
}

#[test]
fn claim_s53_monitoring_load_per_node_is_flat() {
    // simulated traffic only: no wall-clock column is asserted
    let small = e11_scale::monitor_load(3, 10, 60, true);
    let large = e11_scale::monitor_load(3, 100, 60, true);
    let raw = e11_scale::monitor_load(3, 100, 60, false);
    // each node costs the same bytes whatever the cluster size
    let per_node = large.bytes_per_node_per_sec / small.bytes_per_node_per_sec;
    assert!((0.97..=1.03).contains(&per_node), "{small:?} vs {large:?}");
    // one report per node every 5 s
    for r in [&small, &large] {
        let want = r.n_nodes as f64 / 5.0;
        assert!(
            (r.reports_per_sec - want).abs() <= want * 0.01,
            "{} reports/s at {} nodes, want {want}",
            r.reports_per_sec,
            r.n_nodes
        );
    }
    // delta consolidation is what keeps it small
    assert!(
        raw.bytes_per_node_per_sec >= large.bytes_per_node_per_sec * 1.8,
        "{raw:?} vs {large:?}"
    );
    assert!(large.segment_fraction < 0.01, "{large:?}");
}

#[test]
fn claim_s6_slurm_failover_and_external_scheduler() {
    let fo = e12_slurm::failover(3, 32, 120);
    assert!(fo.identical);
    let rows = e12_slurm::policy_comparison(3, 32, 120);
    let fifo = &rows[0];
    let backfill = &rows[1];
    assert!(backfill.mean_wait_secs <= fifo.mean_wait_secs);
}
