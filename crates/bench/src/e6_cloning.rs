//! E6: the cloning experiment (paper §4). Headline row: "It took about
//! 12 min. to clone and reboot over 400 nodes of the Lawrence Livermore
//! cluster" over a single fast Ethernet, using reliable multicast.
//!
//! We regenerate: the 400-node headline configuration, a node-count
//! sweep (multicast vs unicast — where the crossover is immediate and
//! the gap grows linearly), a loss-rate sweep, and the repair-strategy
//! ablation.

use cwx_bios::Firmware;
use cwx_clone::protocol::{run_clone, CloneConfig, CloneReport, RepairStrategy};
use cwx_net::FAST_ETHERNET_BPS;

/// The LLNL-like headline configuration: 2 GiB image, paced reliable
/// multicast on one fast Ethernet, legacy-era reboot.
pub fn llnl_config() -> CloneConfig {
    CloneConfig {
        image_bytes: 2 << 30,
        chunk_bytes: 1 << 20,
        pace_bps: 4 << 20,
        strategy: RepairStrategy::MulticastRoundRobin,
        firmware: Firmware::LegacyBios,
        ..CloneConfig::default()
    }
}

/// The paper's headline number, minutes.
pub const PAPER_MINUTES: f64 = 12.0;
/// The paper's node count ("over 400 nodes").
pub const PAPER_NODES: u32 = 400;

/// Run the headline experiment.
pub fn headline(seed: u64, loss: f64) -> CloneReport {
    run_clone(seed, PAPER_NODES, FAST_ETHERNET_BPS, loss, llnl_config())
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Target nodes.
    pub n_nodes: u32,
    /// Multicast result.
    pub multicast: CloneReport,
    /// Unicast baseline. Runs at every node count — the ~N× event
    /// volume that used to force a skip above 100 nodes is cheap under
    /// the slab-backed event engine, so the sweep shows the multicast gap
    /// all the way out to the paper's 400-node scale.
    pub unicast: CloneReport,
}

/// Node-count sweep with a shared image size.
pub fn node_sweep(seed: u64, image_bytes: u64, loss: f64, counts: &[u32]) -> Vec<SweepPoint> {
    counts
        .iter()
        .map(|&n| {
            let cfg = CloneConfig {
                image_bytes,
                ..llnl_config()
            };
            let multicast = run_clone(seed, n, FAST_ETHERNET_BPS, loss, cfg.clone());
            let unicast = run_clone(
                seed,
                n,
                FAST_ETHERNET_BPS,
                loss,
                CloneConfig {
                    strategy: RepairStrategy::Unicast,
                    ..cfg
                },
            );
            SweepPoint {
                n_nodes: n,
                multicast,
                unicast,
            }
        })
        .collect()
}

/// Loss-rate sweep at fixed node count.
pub fn loss_sweep(seed: u64, n: u32, image_bytes: u64, losses: &[f64]) -> Vec<(f64, CloneReport)> {
    losses
        .iter()
        .map(|&loss| {
            let cfg = CloneConfig {
                image_bytes,
                ..llnl_config()
            };
            (loss, run_clone(seed, n, FAST_ETHERNET_BPS, loss, cfg))
        })
        .collect()
}

/// Chunk-size ablation (DESIGN.md: protocol design knobs). Bigger
/// chunks cut per-chunk overhead but lose more data per dropped packet.
pub fn chunk_sweep(seed: u64, n: u32, image_bytes: u64, loss: f64) -> Vec<(u64, CloneReport)> {
    [256 << 10, 512 << 10, 1 << 20, 4 << 20]
        .into_iter()
        .map(|chunk| {
            let cfg = CloneConfig {
                image_bytes,
                chunk_bytes: chunk,
                ..llnl_config()
            };
            (chunk, run_clone(seed, n, FAST_ETHERNET_BPS, loss, cfg))
        })
        .collect()
}

/// Repair-strategy ablation at fixed loss.
pub fn repair_ablation(
    seed: u64,
    n: u32,
    image_bytes: u64,
    loss: f64,
) -> Vec<(&'static str, CloneReport)> {
    let base = CloneConfig {
        image_bytes,
        ..llnl_config()
    };
    vec![
        (
            "round-robin unicast repair (paper)",
            run_clone(seed, n, FAST_ETHERNET_BPS, loss, base.clone()),
        ),
        (
            "re-multicast x2 then round-robin",
            run_clone(
                seed,
                n,
                FAST_ETHERNET_BPS,
                loss,
                CloneConfig {
                    strategy: RepairStrategy::MulticastRemulticast { rounds: 2 },
                    ..base
                },
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_lands_near_the_papers_12_minutes() {
        // switched fast Ethernet of the era: ~0.1% effective chunk loss
        let r = headline(1, 0.001);
        let minutes = r.makespan_secs / 60.0;
        assert_eq!(r.failed_nodes, 0);
        // shape criterion: same order of magnitude, within 2x
        assert!(
            (PAPER_MINUTES / 2.0..=PAPER_MINUTES * 2.0).contains(&minutes),
            "expected ~12 min for 400 nodes, got {minutes:.1}"
        );
    }

    #[test]
    fn sweep_multicast_flat_unicast_linear() {
        let pts = node_sweep(2, 64 << 20, 0.0, &[5, 20, 50]);
        let mc5 = pts[0].multicast.data_complete_secs;
        let mc50 = pts[2].multicast.data_complete_secs;
        assert!(
            mc50 < mc5 * 1.5,
            "multicast distribution ~independent of N: {mc5} vs {mc50}"
        );
        let uni5 = pts[0].unicast.data_complete_secs;
        let uni50 = pts[2].unicast.data_complete_secs;
        assert!(
            uni50 > uni5 * 5.0,
            "unicast scales with N: {uni5} vs {uni50}"
        );
    }

    #[test]
    fn loss_increases_repairs_not_failure() {
        let rows = loss_sweep(3, 30, 64 << 20, &[0.0, 0.02, 0.08]);
        assert_eq!(rows[0].1.repair_chunks, 0);
        assert!(rows[2].1.repair_chunks > rows[1].1.repair_chunks);
        assert!(rows.iter().all(|(_, r)| r.failed_nodes == 0));
    }

    #[test]
    fn chunk_sweep_trades_overhead_for_repair_cost() {
        let rows = chunk_sweep(7, 20, 64 << 20, 0.02);
        assert_eq!(rows.len(), 4);
        // at the same loss probability per packet, bigger chunks mean
        // more repair BYTES even if fewer repair packets
        let small = &rows[0].1;
        let big = &rows[3].1;
        assert!(
            small.repair_chunks > big.repair_chunks,
            "more small chunks lost"
        );
        let small_bytes = small.repair_chunks * (256 << 10);
        let big_bytes = big.repair_chunks * (4 << 20);
        assert!(
            big_bytes > small_bytes,
            "but more repair bytes for big chunks"
        );
        assert!(rows.iter().all(|(_, r)| r.failed_nodes == 0));
    }
}
