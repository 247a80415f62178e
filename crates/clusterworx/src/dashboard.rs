//! Text rendering of the "main monitoring screen".
//!
//! The product shipped a Java GUI; the reproduction renders the same
//! information — a per-node status table and a cluster summary — as
//! text, which is what the examples print and what a TUI would consume.
//! Historical graphing reads any [`Store`]: [`chart`] draws one series,
//! [`export_node_csv`] hands a node's history to external tools.

use cwx_store::{query, AggBucket, Store};
use cwx_util::time::SimTime;

use crate::world::World;

/// One dashboard row.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Node index.
    pub node: u32,
    /// Status word: `up`, `boot`, `off`, `failed`, `unreachable`, or a
    /// lifecycle word (`cloning`, `halted`, `draining`).
    pub status: &'static str,
    /// Last reported CPU utilisation, %.
    pub cpu_pct: f64,
    /// Last reported memory use, %.
    pub mem_pct: f64,
    /// Last reported 1-minute load.
    pub load_one: f64,
    /// Last probed CPU temperature, °C.
    pub temp_c: f64,
    /// Seconds since the last agent report.
    pub report_age_secs: f64,
}

/// Build the dashboard rows at `now`.
pub fn rows(world: &World, now: SimTime) -> Vec<NodeRow> {
    let mut out = Vec::with_capacity(world.nodes.len());
    let lifecycle = world.control.lifecycle();
    for (i, st) in world.nodes.iter().enumerate() {
        let node = i as u32;
        let lc = lifecycle.state(node);
        let status = match () {
            _ if st.hw.health() == cwx_hw::HealthState::Burned => "failed",
            _ if st.hw.power() == cwx_hw::PowerState::Off => "off",
            _ if st.hw.is_up() => {
                if world
                    .server
                    .node_status(node)
                    .map(|s| s.reachable)
                    .unwrap_or(false)
                {
                    "up"
                } else {
                    "unreachable"
                }
            }
            // lifecycle says an OS should be answering but the hardware
            // disagrees: the node wedged or paniced out from under us
            _ if lc.expects_os() => "unreachable",
            _ => lc.status_word(),
        };
        let latest = |key: &str| {
            world
                .server
                .history()
                .latest(node, key)
                .map(|s| s.value)
                .unwrap_or(f64::NAN)
        };
        let report_age = world
            .server
            .node_status(node)
            .map(|s| now.since(s.last_report).as_secs_f64())
            .unwrap_or(f64::INFINITY);
        out.push(NodeRow {
            node,
            status,
            cpu_pct: latest("cpu.util_pct"),
            mem_pct: latest("mem.used_pct"),
            load_one: latest("load.one"),
            temp_c: latest("temp.cpu"),
            report_age_secs: report_age,
        });
    }
    out
}

/// Cluster-wide aggregates for the summary banner.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Nodes up / total.
    pub up: usize,
    /// Total nodes.
    pub total: usize,
    /// Mean CPU utilisation across reporting nodes, %.
    pub mean_cpu_pct: f64,
    /// Hottest CPU in the cluster, °C.
    pub max_temp_c: f64,
    /// Total power draw, watts (from the chassis probes).
    pub total_watts: f64,
}

/// Compute the cluster summary at `now`.
pub fn summary(world: &World, now: SimTime) -> ClusterSummary {
    let rows = rows(world, now);
    let up = rows.iter().filter(|r| r.status == "up").count();
    let cpus: Vec<f64> = rows
        .iter()
        .map(|r| r.cpu_pct)
        .filter(|x| x.is_finite())
        .collect();
    let temps: Vec<f64> = rows
        .iter()
        .map(|r| r.temp_c)
        .filter(|x| x.is_finite())
        .collect();
    let total_watts: f64 = world.nodes.iter().map(|n| n.hw.power_watts()).sum();
    ClusterSummary {
        up,
        total: rows.len(),
        mean_cpu_pct: if cpus.is_empty() {
            f64::NAN
        } else {
            cpus.iter().sum::<f64>() / cpus.len() as f64
        },
        max_temp_c: temps.iter().copied().fold(f64::NAN, f64::max),
        total_watts,
    }
}

/// Render the table as text.
pub fn render(world: &World, now: SimTime) -> String {
    use std::fmt::Write;
    let rows = rows(world, now);
    let mut s = String::new();
    let up = rows.iter().filter(|r| r.status == "up").count();
    let _ = writeln!(s, "cluster status @ {now}: {up}/{} nodes up", rows.len());
    let _ = writeln!(
        s,
        "{:<8} {:<12} {:>6} {:>6} {:>6} {:>7} {:>8}",
        "node", "status", "cpu%", "mem%", "load", "temp C", "age s"
    );
    for r in &rows {
        let _ = writeln!(
            s,
            "node{:03}  {:<12} {:>6.1} {:>6.1} {:>6.2} {:>7.1} {:>8.1}",
            r.node, r.status, r.cpu_pct, r.mem_pct, r.load_one, r.temp_c, r.report_age_secs
        );
    }
    s
}

/// Render one series as an ASCII chart over `[from, to]` — the text
/// stand-in for the GUI's historical graphing screen (paper §5.1).
/// Each column is one downsampled bucket; `*` marks the bucket mean and
/// `·` fills the min–max spread behind it.
pub fn chart(
    history: &dyn Store,
    node: u32,
    key: &str,
    from: SimTime,
    to: SimTime,
    width: usize,
    height: usize,
) -> String {
    use std::fmt::Write;
    let width = width.clamp(1, 200);
    let height = height.clamp(2, 50);
    let buckets = downsample(history, node, key, from, to, width);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "node{node:03} {key} [{:.0}s..{:.0}s]",
        from.as_secs_f64(),
        to.as_secs_f64()
    );
    if buckets.is_empty() {
        s.push_str("(no data)\n");
        return s;
    }
    let lo = buckets.iter().map(|b| b.min).fold(f64::INFINITY, f64::min);
    let hi = buckets
        .iter()
        .map(|b| b.max)
        .fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    let row_of = |v: f64| {
        (((v - lo) / span) * (height - 1) as f64)
            .round()
            .clamp(0.0, (height - 1) as f64) as usize
    };
    let mut grid = vec![vec![' '; width]; height];
    for (col, b) in buckets.iter().enumerate() {
        let (rmin, rmax) = (row_of(b.min), row_of(b.max));
        for row in grid.iter_mut().take(rmax + 1).skip(rmin) {
            row[col] = '·';
        }
        grid[row_of(b.mean())][col] = '*';
    }
    for (i, row) in grid.iter().enumerate().rev() {
        let label = if i == height - 1 {
            format!("{hi:>9.2}")
        } else if i == 0 {
            format!("{lo:>9.2}")
        } else {
            " ".repeat(9)
        };
        let line: String = row.iter().collect();
        let _ = writeln!(s, "{label} |{}", line.trim_end());
    }
    s
}

/// Downsample a range into at most `buckets` fixed-width buckets
/// (chart rendering). Empty buckets are omitted; an empty range, a
/// zero bucket count or an inverted range yield no buckets, and a
/// single-timestamp range (`from == to`) buckets whatever sits at
/// that instant.
fn downsample(
    history: &dyn Store,
    node: u32,
    key: &str,
    from: SimTime,
    to: SimTime,
    buckets: usize,
) -> Vec<AggBucket> {
    if buckets == 0 || to < from {
        return Vec::new();
    }
    let span = to.since(from).as_nanos();
    // a degenerate span still gets a well-defined 1ns bucket width
    let width = (span / buckets as u64).max(1);
    let samples = history.range(node, key, from, to);
    let mut out: Vec<AggBucket> = Vec::new();
    for s in samples {
        let idx = ((s.time.since(from).as_nanos()) / width).min(buckets as u64 - 1);
        let start = SimTime::from_nanos(from.as_nanos() + idx * width);
        match out.last_mut() {
            Some(b) if b.start == start => {
                b.count += 1;
                b.min = b.min.min(s.value);
                b.max = b.max.max(s.value);
                b.sum += s.value;
                b.last = s.value;
            }
            _ => out.push(AggBucket {
                start,
                ..query::bucket_of(s)
            }),
        }
    }
    out
}

/// First line of every [`export_node_csv`] rendering.
const CSV_HEADER: &str = "monitor,time_secs,value\n";

/// Export every series of a node as CSV (`monitor,time_secs,value`) —
/// the egress path for external charting tools (`cwx simulate
/// --dump-history`) and the digest a snapshot's `store` section holds.
pub fn export_node_csv(history: &dyn Store, node: u32) -> String {
    let mut out = String::from(CSV_HEADER);
    for (n, key) in history.series() {
        if n == node {
            push_series_csv(&mut out, history, n, &key);
        }
    }
    out
}

/// [`export_node_csv`] for every node in `0..nodes`, from one walk of
/// `series` (the store's [`Store::series`] list): `each` gets the nodes'
/// CSV texts in node order, byte for byte what `export_node_csv` renders.
/// A snapshot capture digests every node; a walk of the series list per
/// node made it quadratic in the node count.
pub fn for_each_node_csv(
    history: &dyn Store,
    series: &[(u32, String)],
    nodes: u32,
    mut each: impl FnMut(&str),
) {
    let mut by_node: Vec<Vec<&str>> = vec![Vec::new(); nodes as usize];
    for (n, key) in series {
        if let Some(keys) = by_node.get_mut(*n as usize) {
            keys.push(key);
        }
    }
    let mut out = String::new();
    for (node, keys) in (0..nodes).zip(&by_node) {
        out.clear();
        out.push_str(CSV_HEADER);
        for key in keys {
            push_series_csv(&mut out, history, node, key);
        }
        each(&out);
    }
}

fn push_series_csv(out: &mut String, history: &dyn Store, node: u32, key: &str) {
    use std::fmt::Write;
    for s in history.range(node, key, SimTime::ZERO, SimTime::MAX) {
        let _ = writeln!(out, "{},{:.3},{}", key, s.time.as_secs_f64(), s.value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::world::Cluster;
    use cwx_store::mem::MemStore;
    use cwx_util::time::SimDuration;

    #[test]
    fn dashboard_reflects_running_cluster() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 4,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(120));
        let now = sim.now();
        let table = rows(sim.world(), now);
        assert_eq!(table.len(), 4);
        assert!(table.iter().all(|r| r.status == "up"), "{table:?}");
        assert!(table.iter().all(|r| r.report_age_secs < 30.0));
        assert!(table.iter().all(|r| r.temp_c > 20.0));
        let text = render(sim.world(), now);
        assert!(text.contains("4/4 nodes up"));
        assert!(text.contains("node003"));
    }

    #[test]
    fn summary_aggregates_cluster_state() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 6,
            workload: crate::config::WorkloadMix::Constant(0.8),
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(300));
        let s = summary(sim.world(), sim.now());
        assert_eq!((s.up, s.total), (6, 6));
        assert!(s.mean_cpu_pct > 60.0, "{s:?}");
        assert!(s.max_temp_c > 40.0, "{s:?}");
        assert!(s.total_watts > 6.0 * 100.0, "{s:?}");
    }

    #[test]
    fn ascii_chart_renders_series() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(300));
        let now = sim.now();
        let text = chart(
            &**sim.world().server.history(),
            0,
            "temp.cpu",
            SimTime::ZERO,
            now,
            40,
            8,
        );
        assert!(text.contains("node000 temp.cpu"), "{text}");
        assert!(text.contains('*'), "chart plots bucket means:\n{text}");
        assert_eq!(text.lines().count(), 9, "title + height rows:\n{text}");
        // an unknown series renders a placeholder, not a panic
        let empty = chart(
            &**sim.world().server.history(),
            0,
            "nope",
            SimTime::ZERO,
            now,
            40,
            8,
        );
        assert!(empty.contains("(no data)"));
    }

    #[test]
    fn powered_off_nodes_show_off() {
        let mut sim = Cluster::build(ClusterConfig {
            n_nodes: 2,
            ..Default::default()
        });
        sim.run_for(SimDuration::from_secs(60));
        crate::world::power_off_node(&mut sim, 1);
        let table = rows(sim.world(), sim.now());
        assert_eq!(table[1].status, "off");
        assert_eq!(table[0].status, "up");
    }

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn downsample_buckets_min_mean_max_last() {
        let h = MemStore::new(1000);
        // 100 samples over 100s, values 0..99
        for i in 0..100 {
            h.append(1, "cpu.util_pct", t(i), i as f64);
        }
        let buckets = downsample(&h, 1, "cpu.util_pct", t(0), t(100), 10);
        assert_eq!(buckets.len(), 10);
        let b0 = &buckets[0];
        assert_eq!(b0.count, 10);
        assert_eq!(b0.min, 0.0);
        assert_eq!(b0.max, 9.0);
        assert_eq!(b0.last, 9.0);
        assert_eq!(b0.mean(), 4.5);
    }

    #[test]
    fn downsample_edge_cases() {
        let h = MemStore::new(10);
        assert!(downsample(&h, 1, "k", t(0), t(10), 0).is_empty());
        assert!(downsample(&h, 1, "k", t(10), t(0), 5).is_empty());
        assert!(
            downsample(&h, 1, "k", t(0), t(10), 5).is_empty(),
            "no data -> no buckets"
        );
    }

    #[test]
    fn downsample_single_timestamp_range() {
        let h = MemStore::new(10);
        h.append(1, "k", t(5), 2.0);
        h.append(1, "k", t(5), 4.0);
        // from == to: degenerate span must neither panic nor divide by
        // zero, and the samples at that instant land in one bucket
        let buckets = downsample(&h, 1, "k", t(5), t(5), 8);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].count, 2);
        assert_eq!(
            (buckets[0].min, buckets[0].max, buckets[0].last),
            (2.0, 4.0, 4.0)
        );
        assert_eq!(buckets[0].mean(), 3.0);
    }

    #[test]
    fn downsample_more_buckets_than_span_nanos() {
        let h = MemStore::new(10);
        h.append(1, "k", t(0), 1.0);
        let a = SimTime::from_nanos(t(0).as_nanos());
        let b = SimTime::from_nanos(t(0).as_nanos() + 3);
        // span of 3ns into 10 buckets: width clamps to 1ns, no panic
        let buckets = downsample(&h, 1, "k", a, b, 10);
        assert_eq!(buckets.len(), 1);
        assert_eq!(buckets[0].count, 1);
    }

    #[test]
    fn node_csv_lists_every_series_of_one_node() {
        let h = MemStore::new(10);
        h.append(1, "cpu.util_pct", t(5), 42.5);
        h.append(1, "cpu.util_pct", t(10), 43.0);
        h.append(1, "mem.free", t(5), 1000.0);
        h.append(2, "mem.free", t(5), 7.0);
        assert_eq!(
            export_node_csv(&h, 1),
            "monitor,time_secs,value\n\
             cpu.util_pct,5.000,42.5\n\
             cpu.util_pct,10.000,43\n\
             mem.free,5.000,1000\n"
        );
        assert_eq!(export_node_csv(&h, 9), "monitor,time_secs,value\n");
    }

    #[test]
    fn one_walk_renders_what_export_node_csv_renders() {
        let h = MemStore::new(10);
        h.append(3, "mem.free", t(5), 7.0);
        h.append(1, "mem.free", t(5), 1000.0);
        h.append(1, "cpu.util_pct", t(10), 43.0);
        h.append(1, "cpu.util_pct", t(5), 42.5);
        h.append(9, "cpu.util_pct", t(5), 1.0); // past `nodes`: not visited
        let mut got = Vec::new();
        for_each_node_csv(&h, &h.series(), 4, |csv| got.push(csv.to_string()));
        let want: Vec<String> = (0..4).map(|n| export_node_csv(&h, n)).collect();
        assert_eq!(got, want);
        assert_eq!(got[0], "monitor,time_secs,value\n", "a node with no series");
    }
}
