//! The volatile in-memory backend.
//!
//! A bounded ring of samples per `(node, monitor)` series — the history
//! of the deterministic simulator, of Lite, and of an ingest server run
//! without a disk store, none of which need or want disk state.
//!
//! Layout is tuned for very wide clusters (tens of thousands of nodes ×
//! dozens of monitors): one map entry per *node*, with that node's rings
//! side by side and monitor names interned to a shared id table. The
//! naive `BTreeMap<(u32, String), VecDeque<Sample>>` shape costs ~400
//! bytes of map, string and deque overhead per series before the first
//! sample; at 20k nodes × 8 monitors that overhead alone is tens of
//! megabytes of resident memory on the realtime ingest server.
//!
//! Writes arrive as batches ([`Store::append_batch`]; `append` is a
//! batch of one): one write lock per batch and one node lookup per run
//! of same-node samples — a report's samples all belong to one node —
//! so a stored sample costs its name's interning and a ring push. Name
//! ids are `u32`: the store is the realtime live view, and an agent
//! inventing names must not be able to take the ingest thread down.

use std::collections::HashMap;
use std::sync::Arc;

use cwx_util::time::SimTime;
use parking_lot::RwLock;

use crate::{BatchSample, Sample, Store};

/// Bounded per-series in-memory store.
#[derive(Debug)]
pub struct MemStore {
    inner: RwLock<Inner>,
    capacity_per_series: usize,
}

#[derive(Debug, Default)]
struct Inner {
    /// Interned monitor names; a series stores the 4-byte id.
    key_ids: HashMap<Arc<str>, u32>,
    keys: Vec<Arc<str>>,
    nodes: HashMap<u32, NodeSeries>,
    total_samples: u64,
}

/// One node's rings, parallel arrays keyed by interned monitor id. A
/// node has few monitors, so lookups are a short linear scan.
#[derive(Debug, Default)]
struct NodeSeries {
    ids: Vec<u32>,
    rings: Vec<Ring>,
}

impl NodeSeries {
    fn get(&self, id: u32) -> Option<&Ring> {
        self.ids
            .iter()
            .position(|&i| i == id)
            .map(|p| &self.rings[p])
    }

    /// The ring of monitor `id`, created empty on first sight.
    fn ring_mut(&mut self, id: u32) -> &mut Ring {
        let p = self.ids.iter().position(|&i| i == id).unwrap_or_else(|| {
            self.ids.push(id);
            self.rings.push(Ring {
                buf: Vec::new(),
                head: 0,
                in_order: true,
            });
            self.rings.len() - 1
        });
        &mut self.rings[p]
    }
}

/// A bounded ring over a `Vec` that grows to capacity then wraps.
#[derive(Debug)]
struct Ring {
    buf: Vec<Sample>,
    /// Oldest sample once the ring has wrapped (buf.len() == cap).
    head: usize,
    /// Every push so far came at or after the previous one's time, so
    /// append order is time order. A late sample clears it for good.
    in_order: bool,
}

impl Ring {
    fn push(&mut self, cap: usize, s: Sample) {
        self.in_order &= self.last_appended().is_none_or(|p| s.time >= p.time);
        if self.buf.len() < cap {
            self.buf.push(s);
        } else {
            self.buf[self.head] = s;
            self.head = (self.head + 1) % self.buf.len();
        }
    }

    fn last_appended(&self) -> Option<Sample> {
        if self.head == 0 {
            self.buf.last().copied()
        } else {
            Some(self.buf[self.head - 1])
        }
    }

    /// The newest sample by time, the last appended among equals.
    fn latest(&self) -> Option<Sample> {
        if self.in_order {
            return self.last_appended();
        }
        self.iter()
            .copied()
            .reduce(|a, b| if b.time >= a.time { b } else { a })
    }

    /// Append-order (oldest appended first) iteration.
    fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

impl Inner {
    fn key_id(&self, monitor: &str) -> Option<u32> {
        self.key_ids.get(monitor).copied()
    }
}

/// The id of `monitor`, assigned on first sight. (A free function over
/// the two tables so a caller can hold a node's rings meanwhile.)
fn intern(key_ids: &mut HashMap<Arc<str>, u32>, keys: &mut Vec<Arc<str>>, monitor: &str) -> u32 {
    if let Some(&id) = key_ids.get(monitor) {
        return id;
    }
    // 2^32 names of ≥ 1 byte plus their table entries exceed any
    // address space this runs in
    let id = u32::try_from(keys.len()).expect("monitor name table outgrew memory");
    let name: Arc<str> = Arc::from(monitor);
    keys.push(Arc::clone(&name));
    key_ids.insert(name, id);
    id
}

impl MemStore {
    /// A store retaining at most `capacity_per_series` samples per
    /// series (oldest evicted first).
    pub fn new(capacity_per_series: usize) -> Self {
        assert!(capacity_per_series > 0);
        MemStore {
            inner: RwLock::new(Inner::default()),
            capacity_per_series,
        }
    }
}

impl Store for MemStore {
    fn append_batch(&self, batch: &[BatchSample<'_>]) {
        let mut inner = self.inner.write();
        let Inner {
            key_ids,
            keys,
            nodes,
            total_samples,
        } = &mut *inner;
        for run in batch.chunk_by(|a, b| a.node == b.node) {
            let ns = nodes.entry(run[0].node).or_default();
            for s in run {
                let id = intern(key_ids, keys, s.monitor);
                ns.ring_mut(id).push(
                    self.capacity_per_series,
                    Sample {
                        time: s.time,
                        value: s.value,
                    },
                );
            }
        }
        *total_samples += batch.len() as u64;
    }

    fn latest(&self, node: u32, monitor: &str) -> Option<Sample> {
        let inner = self.inner.read();
        let id = inner.key_id(monitor)?;
        inner.nodes.get(&node)?.get(id)?.latest()
    }

    fn range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        let inner = self.inner.read();
        let Some(id) = inner.key_id(monitor) else {
            return Vec::new();
        };
        let mut out: Vec<Sample> = inner
            .nodes
            .get(&node)
            .and_then(|ns| ns.get(id))
            .map(|r| {
                r.iter()
                    .filter(|s| s.time >= from && s.time <= to)
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        // a late sample sits in append order; the contract is time order
        // (the sort is stable: append order among equal times)
        if !out.is_sorted_by_key(|s| s.time) {
            out.sort_by_key(|s| s.time);
        }
        out
    }

    fn series(&self) -> Vec<(u32, String)> {
        let inner = self.inner.read();
        let mut out = Vec::new();
        for (&node, ns) in &inner.nodes {
            for &id in &ns.ids {
                out.push((node, inner.keys[id as usize].to_string()));
            }
        }
        out.sort_unstable();
        out
    }

    fn forget_node(&self, node: u32) {
        self.inner.write().nodes.remove(&node);
    }

    fn total_samples(&self) -> u64 {
        self.inner.read().total_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn ring_evicts_oldest() {
        let m = MemStore::new(3);
        for i in 0..5 {
            m.append(1, "k", t(i), i as f64);
        }
        let all = m.range(1, "k", t(0), t(100));
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].value, 2.0);
        assert_eq!(all[2].value, 4.0);
        assert_eq!(m.total_samples(), 5);
        assert_eq!(m.latest(1, "k").unwrap().value, 4.0);
        assert!(m.latest(2, "k").is_none());
        // both ends of a range are inclusive
        let inner = m.range(1, "k", t(3), t(4));
        assert_eq!(
            inner.iter().map(|s| s.value).collect::<Vec<_>>(),
            [3.0, 4.0]
        );
    }

    #[test]
    fn wrapped_ring_keeps_time_order() {
        let m = MemStore::new(4);
        for i in 0..11 {
            m.append(7, "k", t(i), i as f64);
        }
        let all = m.range(7, "k", t(0), t(100));
        assert_eq!(
            all.iter().map(|s| s.value).collect::<Vec<_>>(),
            vec![7.0, 8.0, 9.0, 10.0]
        );
    }

    #[test]
    fn a_late_sample_is_read_in_time_order() {
        let m = MemStore::new(8);
        m.append(1, "k", t(100), 1.0);
        m.append(1, "k", t(90), 2.0);
        let all = m.range(1, "k", SimTime::ZERO, SimTime::MAX);
        assert_eq!(
            all.iter().map(|s| s.time).collect::<Vec<_>>(),
            [t(90), t(100)]
        );
        assert_eq!(m.latest(1, "k").unwrap().time, t(100));
        // the last appended wins a tie on time
        m.append(1, "k", t(100), 3.0);
        assert_eq!(m.latest(1, "k").unwrap().value, 3.0);
    }

    #[test]
    fn a_late_sample_is_counted_in_its_own_window() {
        let m = MemStore::new(8);
        m.append(1, "k", t(100), 1.0);
        m.append(1, "k", t(90), 2.0);
        let r = m
            .query(&crate::QuerySpec {
                monitor: "k".into(),
                from: SimTime::ZERO,
                to: t(199),
                window_nanos: 10 * 1_000_000_000,
                agg: crate::AggFunc::Count,
                groups: vec![crate::QueryGroup {
                    key: "all".into(),
                    nodes: vec![1],
                }],
                max_scan: 0,
            })
            .unwrap();
        let windows: Vec<(SimTime, u64)> = r.groups[0]
            .points
            .iter()
            .map(|p| (p.start, p.count))
            .collect();
        assert_eq!(windows, [(t(90), 1), (t(100), 1)]);
    }

    #[test]
    fn series_listing_and_forget() {
        let m = MemStore::new(8);
        m.append(1, "a", t(1), 1.0);
        m.append(2, "a", t(1), 2.0);
        m.append(2, "b", t(1), 3.0);
        assert_eq!(m.series().len(), 3);
        // cross-node compare: the latest "a" of every node that has one
        let across: Vec<(u32, f64)> = m
            .series()
            .into_iter()
            .filter(|(_, k)| k == "a")
            .filter_map(|(n, k)| m.latest(n, &k).map(|s| (n, s.value)))
            .collect();
        assert_eq!(across, [(1, 1.0), (2, 2.0)]);
        m.forget_node(2);
        assert_eq!(m.series(), vec![(1, "a".to_string())]);
    }

    #[test]
    fn seventy_thousand_monitor_names_survive() {
        // the reproduced defect: name 65 536 panicked the 2-byte interner
        let m = MemStore::new(2);
        for i in 0..70_000u32 {
            m.append(i % 64, &format!("k{i}"), t(1), i as f64);
        }
        assert_eq!(m.total_samples(), 70_000);
        let series = m.series();
        assert_eq!(series.len(), 70_000);
        assert!(series.contains(&(69_999 % 64, "k69999".to_string())));
        assert_eq!(m.latest(65_536 % 64, "k65536").unwrap().value, 65_536.0);
        assert_eq!(
            series
                .iter()
                .map(|(n, k)| m.range(*n, k, t(0), t(9)).len())
                .sum::<usize>(),
            70_000
        );
    }

    /// One series as a reader sees it: node, name, ring contents, latest.
    type SeriesView = (u32, String, Vec<Sample>, Option<Sample>);

    /// Everything a reader can see of a store.
    fn observe(m: &MemStore) -> (Vec<SeriesView>, u64) {
        let rows = m
            .series()
            .into_iter()
            .map(|(n, k)| {
                let all = m.range(n, &k, SimTime::ZERO, SimTime::MAX);
                let latest = m.latest(n, &k);
                (n, k, all, latest)
            })
            .collect();
        (rows, m.total_samples())
    }

    proptest::proptest! {
        /// A batch is its samples appended one by one: interleaved
        /// nodes, rings wrapping at capacity, names first seen mid-batch,
        /// empty batches.
        #[test]
        fn append_batch_equals_appends(
            rows in proptest::collection::vec((0u32..4, 0u32..9, -50.0f64..50.0), 0..400),
            cuts in proptest::collection::vec(0usize..60, 1..12),
            cap in 1usize..7,
        ) {
            let names: Vec<String> = (0..9).map(|k| format!("m{}.{k}", k % 2)).collect();
            let one = MemStore::new(cap);
            let batched = MemStore::new(cap);
            let mut rest = &rows[..];
            let mut step = 0u64;
            for &cut in cuts.iter().cycle() {
                let (now, later) = rest.split_at(cut.min(rest.len()));
                let batch: Vec<BatchSample<'_>> = now
                    .iter()
                    .map(|&(node, k, value)| {
                        step += 1;
                        BatchSample { node, monitor: &names[k as usize], time: t(step / 3), value }
                    })
                    .collect();
                for s in &batch {
                    one.append(s.node, s.monitor, s.time, s.value);
                }
                batched.append_batch(&batch);
                rest = later;
                if rest.is_empty() {
                    break;
                }
            }
            proptest::prop_assert_eq!(observe(&one), observe(&batched));
        }
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let m = std::sync::Arc::new(MemStore::new(1024));
        let writers: Vec<_> = (0..4u32)
            .map(|node| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        m.append(node, "k", t(i), i as f64);
                    }
                })
            })
            .collect();
        let m2 = std::sync::Arc::clone(&m);
        let reader = std::thread::spawn(move || {
            let mut seen = 0usize;
            for _ in 0..100 {
                seen = seen.max(m2.range(0, "k", t(0), t(1000)).len());
            }
            seen
        });
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        assert_eq!(m.total_samples(), 4 * 500);
    }
}
