//! Federation smoke: head + 3 sub-servers for 600 simulated seconds.
//! Asserts the aggregated node count, exact lifecycle-census agreement
//! with ground truth, and audit-hash reproducibility across two
//! identical runs — the same properties the CI federation job checks
//! by running `examples/scenarios/federation-smoke.toml`.

use cwx_fed::{FederationConfig, FederationSim};
use cwx_util::time::SimDuration;

fn run(seed: u64) -> (u32, u64, cwx_fed::FleetView) {
    let mut cfg = FederationConfig::uniform(3, 16, seed);
    cfg.uplink_interval = SimDuration::from_secs(10);
    let mut f = FederationSim::build(cfg);
    f.run_for(SimDuration::from_secs(600));
    let fleet = f.aggregate();
    assert_eq!(
        fleet.counts,
        f.sub_counts_sum(),
        "head census must equal the sum of sub-server censuses"
    );
    (fleet.total_nodes, f.head().audit_hash(), fleet)
}

#[test]
fn head_plus_three_subs_600s() {
    let (nodes, hash1, fleet) = run(99);
    assert_eq!(nodes, 48, "3 clusters x 16 nodes aggregate");
    assert_eq!(fleet.clusters, 3);
    assert_eq!(fleet.stale, 0);
    assert_eq!(fleet.counts.up, 48, "everything boots within 600s");
    let (_, hash2, _) = run(99);
    assert_eq!(hash1, hash2, "byte-identical audit hash across two runs");
}

#[test]
fn realtime_head_and_subs_over_tcp() {
    use clusterworx::{RealTimeConfig, RealTimeDeployment, RetryPolicy};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    let head = cwx_fed::HeadServer::start(
        "127.0.0.1:0",
        SimDuration::from_secs(5),
        RetryPolicy::default(),
    )
    .expect("bind head");
    let addr = head.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));

    let joins: Vec<_> = (0..2u16)
        .map(|cluster| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let dep = RealTimeDeployment::start(RealTimeConfig {
                    n_nodes: 4,
                    interval: Duration::from_millis(20),
                    ..RealTimeConfig::default()
                });
                let stats =
                    cwx_fed::join_loop(&dep, cluster, &addr, Duration::from_millis(100), &stop)
                        .expect("join head");
                dep.shutdown();
                stats
            })
        })
        .collect();

    // let several export rounds land
    std::thread::sleep(Duration::from_millis(1200));
    let fleet = {
        let h = head.head();
        let now = head.now();
        let guard = h.lock().unwrap();
        guard.aggregate(now)
    };
    stop.store(true, Ordering::Relaxed);
    let mut exports = 0;
    for j in joins {
        exports += j.join().unwrap().exports;
    }
    head.shutdown();
    assert_eq!(fleet.clusters, 2, "both sub-servers joined over TCP");
    assert_eq!(fleet.total_nodes, 8);
    assert!(exports > 0, "uplink rounds ran");
}
