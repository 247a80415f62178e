//! Criterion benches for the substrate itself: discrete-event scheduler
//! throughput, serial ring-buffer writes, and history-store operations.
//! These bound how large an experiment the harness can sweep.

use clusterworx::dashboard;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cwx_store::mem::MemStore;
use cwx_store::Store;
use cwx_util::ring::ByteRing;
use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::sync::Arc;

fn benches(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate");
    g.sample_size(30);

    // DES: schedule + execute 10k chained events
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("sim_10k_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            for i in 0..10_000u64 {
                sim.schedule_at(SimTime::from_nanos(i * 7 % 10_000), |sim| {
                    *sim.world_mut() += 1;
                });
            }
            sim.run();
            black_box(*sim.world())
        })
    });

    // DES: recurring-event pattern (the cluster tick shape)
    g.bench_function("sim_recurring_1k_ticks", |b| {
        b.iter(|| {
            let mut sim = Sim::new(0u64);
            sim.schedule_every(SimDuration::from_secs(1), |sim| {
                *sim.world_mut() += 1;
                true
            });
            sim.run_for(SimDuration::from_secs(1000));
            black_box(*sim.world())
        })
    });

    // 16 KiB console ring under sustained writes
    let line = b"eth0: NETDEV WATCHDOG: transmit timed out (4711)\n";
    g.throughput(Throughput::Bytes((line.len() * 1000) as u64));
    g.bench_function("byte_ring_1k_lines", |b| {
        let mut ring = ByteRing::new(16 * 1024);
        b.iter(|| {
            for _ in 0..1000 {
                ring.write(line);
            }
            black_box(ring.len())
        })
    });

    // history store: record + chart render (a chart refresh)
    g.bench_function("history_record_and_chart", |b| {
        b.iter(|| {
            let h: Arc<dyn Store> = Arc::new(MemStore::new(720));
            for i in 0..720u64 {
                h.append(
                    1,
                    "cpu.util_pct",
                    SimTime::ZERO + SimDuration::from_secs(i * 5),
                    (i % 100) as f64,
                );
            }
            let chart = dashboard::chart(
                &*h,
                1,
                "cpu.util_pct",
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_secs(3600),
                60,
                12,
            );
            black_box(chart.len())
        })
    });

    g.finish();
}

criterion_group! {
    name = simulator;
    // short windows keep the full suite's wall time bounded; the
    // measured effects are orders of magnitude, not percent-level
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(simulator);
