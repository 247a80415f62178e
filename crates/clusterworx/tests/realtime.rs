//! The wall-clock deployment under a slow history store and across a
//! restart: the caller hands in the store, so a test hands in a slow
//! one, or a disk store it reopens.

use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::{RealTimeConfig, RealTimeDeployment};
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::mem::MemStore;
use cwx_store::Store;
use cwx_util::time::SimTime;

mod common;
use common::{assert_ledger_balances, SlowStore};

#[test]
fn stalled_server_applies_backpressure_without_drops() {
    // a deliberately slow store behind the flush worker: the reactor
    // must pause the offending connections (backpressure, audited)
    // rather than drop or balloon, agents block in the TCP window, and
    // shutdown still drains every buffered report. The backlog piles
    // up in the lane's inbox behind the stalled worker and trips only at
    // the inbox's cap: wait for that rather than a fixed time. The cap
    // counts frame bytes, so the agents' consolidated reports, which
    // carry a value or two each, reach it in seconds.
    let store = Arc::new(SlowStore::new(
        MemStore::new(4096),
        Duration::from_millis(5),
        None,
    ));
    let dep = RealTimeDeployment::start(RealTimeConfig {
        n_nodes: 32,
        interval: Duration::from_millis(5),
        store: Arc::clone(&store) as Arc<dyn Store>,
        ..RealTimeConfig::default()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while dep.ingest_stats().backpressure_trips == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let server = dep.server();
    let stats = dep.ingest_stats();
    // the store catches up, so shutdown drains the backlog at full speed
    store.release();
    let (sent, ingest) = dep.shutdown();
    assert_ledger_balances(&ingest);
    let ingested = ingest.reports;
    assert!(sent > 0, "agents made progress despite the stall");
    assert_eq!(sent, ingested, "backpressure means blocked, never dropped");
    assert_eq!(server.read().stats().reports_rx, ingested);
    // the lane bound held the backlog: the inbox reached its cap and
    // tripped backpressure instead of buffering without limit, and
    // nobody was evicted (the pause bound is far away)
    assert!(stats.backpressure_trips > 0, "lane backpressure tripped");
    assert_eq!(stats.evicted, 0);
    assert_eq!(server.read().stats().decode_errors, 0);
}

#[test]
fn persistent_deployment_recovers_after_restart() {
    let dir = std::env::temp_dir().join(format!("cwx-rt-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let cfg = StoreConfig {
            n_shards: 4,
            ..StoreConfig::default()
        };
        Arc::new(DiskStore::open(&dir, cfg).unwrap())
    };
    let cfg = |store: &Arc<DiskStore>| RealTimeConfig {
        n_nodes: 8,
        interval: Duration::from_millis(5),
        store: Arc::clone(store) as Arc<dyn Store>,
        ..RealTimeConfig::default()
    };
    let store = open();
    let dep = RealTimeDeployment::start(cfg(&store));
    std::thread::sleep(Duration::from_millis(300));
    let (sent, ingest) = dep.shutdown();
    assert_ledger_balances(&ingest);
    assert!(sent > 0);
    assert_eq!(sent, ingest.reports);
    drop(store);

    // "restart": a fresh deployment over the same directory sees the
    // previous run's history before any new report arrives
    let store = open();
    let dep = RealTimeDeployment::start(cfg(&store));
    let recovered = store.total_samples();
    assert!(recovered > 0, "prior run's samples recovered");
    let server = dep.server();
    {
        let s = server.read();
        let mut nodes_with_history = 0;
        for node in 0..8 {
            if !s
                .history()
                .range(node, "load.one", SimTime::ZERO, SimTime::MAX)
                .is_empty()
            {
                nodes_with_history += 1;
            }
        }
        assert!(
            nodes_with_history >= 4,
            "history visible for restarted cluster"
        );
    }
    assert_ledger_balances(&dep.shutdown().1);
    let _ = std::fs::remove_dir_all(dir);
}
