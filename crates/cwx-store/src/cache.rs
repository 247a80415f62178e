//! LRU cache of decoded segment blocks.
//!
//! The disk store's v2 segments are read one series at a time
//! ([`crate::segment::read_series`]); this cache keeps the decoded
//! payloads so repeated dashboard / `history` range queries stop
//! re-reading and re-decoding segment files. Capacity is budgeted in
//! *samples* (decoded entries), not bytes, because a decoded
//! `Vec<Sample>` is 16 B/entry regardless of how well the file
//! compressed — see `StoreConfig::cache_capacity_samples`.
//!
//! Lock order: shard lock first, then the cache's internal lock. The
//! cache never calls back into a shard, so the order cannot invert.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use crate::segment::SeriesData;
use crate::Resolution;

/// Identifies one decoded series payload of one segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// Shard index the segment belongs to.
    pub shard: u32,
    /// Segment sequence number (unique within a shard).
    pub seq: u64,
    /// Resolution tag of the segment.
    pub res: u8,
    /// Position of the series inside the segment's index.
    pub series: u32,
}

/// Per-resolution hit/miss counters (E17 attributes warm-vs-cold wins
/// per tier with these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to read the segment file.
    pub misses: u64,
}

/// Counters surfaced through the store stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache (all tiers).
    pub hits: u64,
    /// Lookups that had to read the segment file (all tiers).
    pub misses: u64,
    /// Blocks evicted to stay under the sample budget.
    pub evictions: u64,
    /// Blocks currently cached.
    pub entries: u64,
    /// Decoded samples currently cached.
    pub samples: u64,
    /// Hit/miss split by resolution tag (raw, 10s, 5m, 1h).
    pub per_tier: [TierCacheStats; 4],
}

impl CacheStats {
    /// The hit/miss split of one resolution.
    pub fn tier(&self, res: Resolution) -> TierCacheStats {
        self.per_tier[res.tag() as usize]
    }
}

#[derive(Debug)]
struct CachedBlock {
    data: Arc<SeriesData>,
    samples: usize,
    tick: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<BlockKey, CachedBlock>,
    /// LRU order: tick of last touch → key. Ticks are unique.
    lru: BTreeMap<u64, BlockKey>,
    tick: u64,
    samples: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    per_tier: [TierCacheStats; 4],
}

/// A sample-budgeted LRU cache of decoded segment blocks, shared by all
/// shards of a [`crate::disk::DiskStore`].
#[derive(Debug)]
pub struct BlockCache {
    inner: Mutex<CacheInner>,
    capacity_samples: usize,
}

impl BlockCache {
    /// A cache holding at most `capacity_samples` decoded entries
    /// (counting each empty block as one).
    pub fn new(capacity_samples: usize) -> Self {
        BlockCache {
            inner: Mutex::new(CacheInner::default()),
            capacity_samples,
        }
    }

    /// Look up a block, refreshing its LRU position on hit. Misses are
    /// counted here; the caller is expected to load and
    /// [`insert`](BlockCache::insert) the block (the load happens
    /// outside the cache lock, so concurrent misses may duplicate I/O
    /// but never deadlock).
    pub fn get(&self, key: &BlockKey) -> Option<Arc<SeriesData>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let tier = (key.res as usize).min(3);
        match inner.map.get_mut(key) {
            Some(block) => {
                let old = std::mem::replace(&mut block.tick, tick);
                let data = Arc::clone(&block.data);
                inner.lru.remove(&old);
                inner.lru.insert(tick, *key);
                inner.hits += 1;
                inner.per_tier[tier].hits += 1;
                Some(data)
            }
            None => {
                inner.misses += 1;
                inner.per_tier[tier].misses += 1;
                None
            }
        }
    }

    /// Insert a decoded block, evicting least-recently-used blocks as
    /// needed to stay within the sample budget. A block larger than the
    /// whole budget is still cached (alone).
    pub fn insert(&self, key: BlockKey, data: Arc<SeriesData>) {
        let samples = data.len().max(1);
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.remove(&key) {
            inner.lru.remove(&old.tick);
            inner.samples -= old.samples;
        }
        while inner.samples + samples > self.capacity_samples && !inner.lru.is_empty() {
            let (&t, &victim) = inner.lru.iter().next().unwrap();
            inner.lru.remove(&t);
            let gone = inner.map.remove(&victim).expect("lru/map agree");
            inner.samples -= gone.samples;
            inner.evictions += 1;
        }
        inner.samples += samples;
        inner.lru.insert(tick, key);
        inner.map.insert(
            key,
            CachedBlock {
                data,
                samples,
                tick,
            },
        );
    }

    /// Drop every block of `shard`'s segments numbered within `seqs`
    /// (called when a merge replaces those segments: the merged segment
    /// takes over the newest input's number, the rest of the shard's
    /// blocks stay warm).
    pub fn evict_segments(&self, shard: u32, seqs: std::ops::RangeInclusive<u64>) {
        let mut inner = self.inner.lock().unwrap();
        let doomed: Vec<(u64, BlockKey)> = inner
            .lru
            .iter()
            .filter(|(_, k)| k.shard == shard && seqs.contains(&k.seq))
            .map(|(&t, &k)| (t, k))
            .collect();
        for (t, k) in doomed {
            inner.lru.remove(&t);
            let gone = inner.map.remove(&k).expect("lru/map agree");
            inner.samples -= gone.samples;
        }
    }

    /// Drop everything (used by benches to measure cold reads).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.map.clear();
        inner.lru.clear();
        inner.samples = 0;
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.map.len() as u64,
            samples: inner.samples as u64,
            per_tier: inner.per_tier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;
    use cwx_util::time::SimTime;

    fn block(n: usize) -> Arc<SeriesData> {
        Arc::new(SeriesData::Raw(
            (0..n)
                .map(|i| Sample {
                    time: SimTime::from_nanos(i as u64),
                    value: i as f64,
                })
                .collect(),
        ))
    }

    fn key(seq: u64) -> BlockKey {
        BlockKey {
            shard: 0,
            seq,
            res: 0,
            series: 0,
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let cache = BlockCache::new(100);
        assert!(cache.get(&key(1)).is_none());
        cache.insert(key(1), block(10));
        assert_eq!(cache.get(&key(1)).unwrap().len(), 10);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.samples), (1, 1, 1, 10));
    }

    #[test]
    fn lru_evicts_oldest_within_sample_budget() {
        let cache = BlockCache::new(25);
        cache.insert(key(1), block(10));
        cache.insert(key(2), block(10));
        cache.get(&key(1)); // refresh 1 so 2 is oldest
        cache.insert(key(3), block(10));
        assert!(cache.get(&key(2)).is_none(), "LRU victim");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.stats().samples <= 25);
    }

    #[test]
    fn oversize_block_still_cached() {
        let cache = BlockCache::new(5);
        cache.insert(key(1), block(50));
        assert_eq!(cache.get(&key(1)).unwrap().len(), 50);
    }

    #[test]
    fn evict_segments_is_selective() {
        let cache = BlockCache::new(1000);
        cache.insert(key(1), block(5));
        cache.insert(key(4), block(5));
        cache.insert(
            BlockKey {
                shard: 7,
                seq: 1,
                res: 0,
                series: 0,
            },
            block(5),
        );
        cache.evict_segments(7, 1..=3);
        cache.evict_segments(0, 2..=4);
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(4)).is_none());
        assert!(cache
            .get(&BlockKey {
                shard: 7,
                seq: 1,
                res: 0,
                series: 0,
            })
            .is_none());
    }

    #[test]
    fn per_tier_counters_and_hour_tier_eviction() {
        let cache = BlockCache::new(1000);
        let hour = BlockKey {
            shard: 2,
            seq: 1,
            res: 3,
            series: 0,
        };
        assert!(cache.get(&hour).is_none());
        cache.insert(hour, block(5));
        assert!(cache.get(&hour).is_some());
        cache.get(&key(9)); // raw-tier miss
        let s = cache.stats();
        assert_eq!(
            s.tier(Resolution::OneHour),
            TierCacheStats { hits: 1, misses: 1 }
        );
        assert_eq!(
            s.tier(Resolution::Raw),
            TierCacheStats { hits: 0, misses: 1 }
        );
        assert_eq!(s.tier(Resolution::FiveMinutes), TierCacheStats::default());
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        // a merge-triggered eviction must cover 1h entries
        cache.evict_segments(2, 1..=1);
        assert!(cache.get(&hour).is_none());
    }

    #[test]
    fn reinsert_replaces_without_leaking_budget() {
        let cache = BlockCache::new(100);
        cache.insert(key(1), block(40));
        cache.insert(key(1), block(60));
        let s = cache.stats();
        assert_eq!((s.entries, s.samples), (1, 60));
    }
}
