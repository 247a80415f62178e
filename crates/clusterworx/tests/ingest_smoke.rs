//! Ingest-plane smoke: many concurrent loopback agent connections
//! through the reactor, with store sample counts checked exactly.
//!
//! The small variant always runs; the 5k-connection variant is
//! `#[ignore]` and driven by CI's release-mode ingest-smoke job
//! (`cargo test --release --test ingest_smoke -- --ignored`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use clusterworx::actions::ControlPlane;
use clusterworx::ingest::{drive, IngestConfig, IngestServer, LoadConfig};
use clusterworx::server::Server;
use cwx_store::disk::{DiskStore, StoreConfig};
use cwx_store::Store;
use cwx_util::time::SimDuration;
use parking_lot::{Mutex, RwLock};

mod common;
use common::assert_ledger_balances;

fn smoke(conns: usize, frames_per_conn: u64, keys: usize) {
    let _ = cwx_net::reactor::raise_nofile_limit();
    let dir =
        std::env::temp_dir().join(format!("cwx-ingest-smoke-{}-{}", conns, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(
        DiskStore::open(
            &dir,
            StoreConfig {
                n_shards: 4,
                nodes_per_group: (conns as u32).div_ceil(4).max(1),
                ..StoreConfig::default()
            },
        )
        .unwrap(),
    );
    let server = Arc::new(RwLock::new(Server::new(
        "ingest-smoke",
        SimDuration::from_secs(5),
        64,
        SimDuration::from_secs(600),
    )));
    let control = Arc::new(Mutex::new(ControlPlane::new(conns)));
    let ingest = IngestServer::start(
        IngestConfig {
            n_lanes: 4,
            nodes_per_group: (conns as u32).div_ceil(4).max(1),
            ..IngestConfig::default()
        },
        Arc::clone(&server),
        Some(Arc::clone(&store)),
        Arc::clone(&control),
        Instant::now(),
    )
    .unwrap();

    let sent = drive(LoadConfig {
        addr: ingest.addr().to_string(),
        conns,
        frames_per_conn,
        interval: Duration::from_millis(200),
        writer_threads: 8,
        keys,
    })
    .unwrap();
    assert_eq!(sent.connected as usize, conns, "every connection came up");
    assert_eq!(sent.frames_sent, conns as u64 * frames_per_conn);
    assert_eq!(sent.write_errors, 0, "no evictions under healthy load");

    let ingested = ingest.stop();
    assert_ledger_balances(&ingested);
    assert_eq!(ingested.reports, sent.frames_sent, "every frame ingested");
    store.flush_all().unwrap();
    assert_eq!(
        store.total_samples(),
        sent.samples_sent,
        "every sample is in the store"
    );
    let srv = server.read();
    assert_eq!(srv.stats().reports_rx, sent.frames_sent);
    assert_eq!(srv.stats().decode_errors, 0);
    drop(srv);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn two_hundred_connections_every_sample_lands() {
    smoke(200, 5, 4);
}

#[test]
#[ignore = "release-mode CI smoke: 5k concurrent connections (10k fds)"]
fn five_thousand_connections_every_sample_lands() {
    smoke(5000, 3, 4);
}
