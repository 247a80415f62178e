//! LRU cache of decoded segment blocks.
//!
//! Segments are read one series at a time
//! ([`crate::segment::read_series_at`]); this cache keeps the decoded
//! payloads so repeated dashboard / `history` range queries stop
//! re-reading and re-decoding segment files. Capacity is budgeted in
//! *samples* (decoded entries), not bytes, because a decoded
//! `Vec<Sample>` is 16 B/entry regardless of how well the file
//! compressed — see `StoreConfig::cache_capacity_samples`.
//!
//! It is an exact LRU whose every operation is O(1): blocks sit in a
//! slab (`Vec` + free list) threaded into a doubly linked recency list
//! by slot index, and a hash map from [`BlockKey`] finds the slot. A
//! hit relinks one node; nothing is allocated or reordered. A
//! dashboard query touches one block per node of the fleet, so this
//! path runs as often as the fold itself.
//!
//! Lock order: shard lock first, then the cache's internal lock. The
//! cache never calls back into a shard, so the order cannot invert.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Hasher for [`BlockKey`]: four small integers the store numbers
/// itself, so a multiply-rotate fold per field is enough.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn fold(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.fold(b as u64);
        }
    }
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
    fn finish(&self) -> u64 {
        // the map takes its bucket from the low bits and its tag from
        // the high ones; the multiply mixed upwards
        self.0.rotate_left(26)
    }
}

/// "No slot": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a cached block and its links in the recency list
/// (or, when free, `next` alone, in the free list).
#[derive(Debug)]
struct Slot {
    key: BlockKey,
    /// `None` while the slot is on the free list.
    data: Option<Arc<SeriesData>>,
    samples: usize,
    prev: u32,
    next: u32,
}

#[derive(Debug)]
struct CacheInner {
    map: HashMap<BlockKey, u32, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot>,
    /// Most and least recently used slots.
    head: u32,
    tail: u32,
    free: u32,
    samples: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    per_tier: [TierCacheStats; 4],
}

impl CacheInner {
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        let s = &mut self.slots[i as usize];
        s.prev = NIL;
        s.next = old;
        match old {
            NIL => self.tail = i,
            h => self.slots[h as usize].prev = i,
        }
        self.head = i;
    }

    /// Take slot `i` out of the cache and onto the free list.
    fn remove(&mut self, i: u32) {
        self.unlink(i);
        let free = self.free;
        let s = &mut self.slots[i as usize];
        s.data = None;
        s.next = free;
        self.samples -= s.samples;
        self.map.remove(&s.key);
        self.free = i;
    }
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
            inner: Mutex::new(CacheInner {
                map: HashMap::default(),
                slots: Vec::new(),
                head: NIL,
                tail: NIL,
                free: NIL,
                samples: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                per_tier: Default::default(),
            }),
            capacity_samples,
        }
    }

    fn inner(&self) -> MutexGuard<'_, CacheInner> {
        self.inner
            .lock()
            .expect("a thread panicked inside the block cache")
    }

    /// Look up a block, refreshing its LRU position on hit. Misses are
    /// counted here; the caller is expected to load and
    /// [`insert`](BlockCache::insert) the block (the load happens
    /// outside the cache lock, so concurrent misses may duplicate I/O
    /// but never deadlock).
    pub fn get(&self, key: &BlockKey) -> Option<Arc<SeriesData>> {
        let mut inner = self.inner();
        let tier = (key.res as usize).min(3);
        match inner.map.get(key).copied() {
            Some(i) => {
                if inner.head != i {
                    inner.unlink(i);
                    inner.push_front(i);
                }
                inner.hits += 1;
                inner.per_tier[tier].hits += 1;
                inner.slots[i as usize].data.clone()
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
        let mut inner = self.inner();
        if let Some(old) = inner.map.get(&key).copied() {
            inner.remove(old);
        }
        while inner.samples + samples > self.capacity_samples && inner.tail != NIL {
            let victim = inner.tail;
            inner.remove(victim);
            inner.evictions += 1;
        }
        let slot = Slot {
            key,
            data: Some(data),
            samples,
            prev: NIL,
            next: NIL,
        };
        let i = match inner.free {
            NIL => {
                inner.slots.push(slot);
                u32::try_from(inner.slots.len() - 1).expect("fewer than 2^32 cached blocks")
            }
            i => {
                inner.free = inner.slots[i as usize].next;
                inner.slots[i as usize] = slot;
                i
            }
        };
        inner.push_front(i);
        inner.samples += samples;
        inner.map.insert(key, i);
    }

    /// Drop every block of `shard`'s segments numbered within `seqs`
    /// (called when a merge replaces those segments: the merged segment
    /// takes over the newest input's number, the rest of the shard's
    /// blocks stay warm).
    pub fn evict_segments(&self, shard: u32, seqs: std::ops::RangeInclusive<u64>) {
        let mut inner = self.inner();
        for i in 0..inner.slots.len() as u32 {
            let s = &inner.slots[i as usize];
            if s.data.is_some() && s.key.shard == shard && seqs.contains(&s.key.seq) {
                inner.remove(i);
            }
        }
    }

    /// Drop everything (used by benches to measure cold reads).
    pub fn clear(&self) {
        let mut inner = self.inner();
        inner.map.clear();
        inner.slots.clear();
        (inner.head, inner.tail, inner.free) = (NIL, NIL, NIL);
        inner.samples = 0;
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner();
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

    /// The LRU as its definition reads: a list, most recent first.
    #[derive(Default)]
    struct Model {
        blocks: Vec<(BlockKey, usize)>,
        evictions: u64,
    }

    impl Model {
        fn get(&mut self, key: &BlockKey) -> Option<usize> {
            let at = self.blocks.iter().position(|(k, _)| k == key)?;
            let hit = self.blocks.remove(at);
            self.blocks.insert(0, hit);
            Some(hit.1)
        }

        fn insert(&mut self, key: BlockKey, samples: usize, capacity: usize) {
            self.blocks.retain(|(k, _)| *k != key);
            while !self.blocks.is_empty() && self.samples() + samples.max(1) > capacity {
                self.blocks.pop();
                self.evictions += 1;
            }
            self.blocks.insert(0, (key, samples.max(1)));
        }

        fn samples(&self) -> usize {
            self.blocks.iter().map(|(_, n)| n).sum()
        }
    }

    proptest::proptest! {
        /// Each word of `ops` is one operation, its fields cut from
        /// the word's bytes.
        #[test]
        fn random_operations_match_a_model_lru(
            capacity in 5usize..300,
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..1500),
        ) {
            let cache = BlockCache::new(capacity);
            let mut model = Model::default();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (step, op) in ops.into_iter().enumerate() {
                let field = |byte: u32, n: u64| (op >> (8 * byte)) % 256 % n;
                let key = BlockKey {
                    shard: field(1, 2) as u32,
                    seq: field(2, 6),
                    res: field(3, 4) as u8,
                    series: field(4, 4) as u32,
                };
                match field(0, 100) {
                    0 => {
                        cache.clear();
                        model.blocks.clear();
                    }
                    1..=3 => {
                        let seqs = key.seq..=key.seq + field(5, 3);
                        cache.evict_segments(key.shard, seqs.clone());
                        model
                            .blocks
                            .retain(|(k, _)| k.shard != key.shard || !seqs.contains(&k.seq));
                    }
                    4..=45 => {
                        // sizes from empty to bigger than the budget
                        let n = (op >> 40) as usize % (capacity / 3 + 2) * (1 + field(6, 16) as usize / 15 * 5);
                        cache.insert(key, block(n));
                        model.insert(key, n, capacity);
                    }
                    _ => {
                        let got = cache.get(&key).map(|b| b.len().max(1));
                        proptest::prop_assert_eq!(got, model.get(&key), "step {}", step);
                        hits += got.is_some() as u64;
                        misses += got.is_none() as u64;
                    }
                }
                let s = cache.stats();
                proptest::prop_assert_eq!(
                    (s.hits, s.misses, s.evictions, s.entries, s.samples),
                    (hits, misses, model.evictions, model.blocks.len() as u64, model.samples() as u64),
                    "step {}", step
                );
            }
        }
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
