//! The persistent, sharded disk store.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/CONFIG                  sharding parameters (fixed at creation)
//! <dir>/shard-000/wal.log       the shard's write-ahead log
//! <dir>/shard-000/seg-00000009-r0.seg            raw segment, flush 9
//! <dir>/shard-000/seg-00000005-00000008-r0.seg   raw segment, flushes 5–8 merged
//! <dir>/shard-000/seg-00000005-00000008-r1.seg   … its 10-second companion
//! <dir>/shard-000/seg-00000005-00000008-r2.seg   … its 5-minute companion
//! <dir>/shard-000/seg-00000005-00000008-r3.seg   … its 1-hour companion
//! ```
//!
//! Every merge writes all three companion files, but a companion holds
//! a series' block only where it earns its bytes (see Merge below): a
//! file may hold no series at all.
//!
//! Nodes map to shards by node group (`node / nodes_per_group`, the ICE
//! Box chassis being the natural group), and each shard serializes its
//! own writes behind its own lock — the whole point: concurrent agent
//! threads land on different shards and never contend on a global lock.
//!
//! Write path: WAL append (series registrations and samples of a batch
//! in one write, durable on return) → memtable → acknowledgement.
//! [`Store::append_batch`] amortizes the shard lock and the WAL write
//! across a whole ingest batch. What a sample costs after that is set by
//! two policies, neither of which depends on how many series the fleet
//! has or how old the store is:
//!
//! * **Flush** — a series costs ≈ 12 B of header in a segment however
//!   few samples it brings, so a shard flushes when its memtable
//!   averages 8 samples per buffered series (`FLUSH_SAMPLES_PER_SERIES`):
//!   never before `flush_threshold` samples (a handful of series flush
//!   exactly there) and never after 32 times that (`FLUSH_CAP_FACTOR`),
//!   which bounds the memtable and WAL replay. A flush writes one raw
//!   segment under the next sequence number and checkpoints the WAL.
//! * **Merge** — after a flush, while the shard's segment list holds a
//!   run of `compact_threshold` adjacent segments whose sample counts
//!   are within a factor of `compact_threshold` of each other, the
//!   newest such run is merged into one segment named by the sequence
//!   range it covers, and the run's 10 s / 5 min / 1 h companions are
//!   written beside it. A companion gets a series' block only when the
//!   block holds at most half as many entries
//!   (`COMPANION_FOLD_FACTOR`) as the source a query at that tier would
//!   otherwise fold: the next finer block kept for the series, or its
//!   raw samples. So a 30 s series keeps no 10 s block (one sample a
//!   bucket) and a 1 s series keeps all three. Sizes grow geometrically,
//!   so a sample is rewritten O(log N) times over the life of an
//!   N-flush store.
//!   [`DiskStore::compact_all`] and `forget_node` merge everything.
//!
//! Series: each shard keeps one index keyed monitor first (monitor
//! name → node → shard-local series id), built from the segment
//! indexes and the WAL at open. An ingest sample finds its series by
//! its monitor's name and its node's slot, then one array read; a new
//! series is an amortised O(1) insert. A query resolves its monitor
//! once per shard, finds each node's series by its `u32` node id, and
//! copies the in-range memtable samples of all its nodes in that shard
//! into **one** buffer: each node's part is a range of that one `Arc`,
//! offered after the node's segment blocks. Copying happens (and is
//! charged to the scan budget) under the shard lock; folding happens
//! after the lock is released.
//!
//! Read path: segments are *not* held decoded in memory. Opening a
//! shard builds a [`SegmentIndex`] per file (header walk, no payload
//! decode); queries binary-search the index, prune by the per-series
//! time bounds, and fetch single series payloads through a shared
//! [`BlockCache`] so repeated range queries decode each block once; a
//! miss is one positioned read on a descriptor the segment file keeps
//! open from its first miss until a merge drops it. A
//! tier query reads, per segment and per series, the coarsest companion
//! that nests in its window and holds the series, else the segment's
//! raw block (a fresh flush has no companions; a merge leaves out the
//! blocks that do not earn their bytes), and the memtable: every sample
//! is in exactly one of them whenever it arrived, so late samples are
//! never invisible. `range_agg` is the trait's default, the fold of
//! `range`'s samples, so its buckets never depend on where the data sits.
//!
//! Recovery: the commit point of a flush or merge is the rename of its
//! raw (`r0`) file. A merge writes companions first and removes its
//! inputs last, so whichever instant the process died, open finds for
//! every sample exactly one live raw segment: raw files whose sequence
//! range lies inside another's are inputs of a committed merge and are
//! removed, companions without a raw file of the same range belong to
//! a merge that never committed and are removed. Corrupt files are
//! quarantined with a `.corrupt` suffix (a corrupt raw file takes its
//! companions along) *before* that comparison, so a damaged merge
//! output never costs its surviving inputs. A segment of a retired
//! format is not corrupt: it refuses the open before any shard changes
//! a file ([`StoreError::RetiredSegment`]). The WAL header names the
//! segment its records flush to: the log is discarded when that
//! segment is live (a kill between flush and checkpoint) and replayed
//! in full otherwise, torn tail truncated.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use cwx_util::time::SimTime;
use parking_lot::Mutex;

use crate::cache::{BlockCache, BlockKey, CacheStats};
use crate::query::{self, aggregate, floor_to, merge_buckets, Collector};
use crate::segment::{self, Segment, SegmentIndex, SeriesData, SeriesIndexEntry, SeriesKey};
use crate::wal::{Wal, WalRecord};
use crate::{
    BatchSample, QueryError, QueryResult, QuerySpec, Resolution, Sample, Store, StoreError,
};

/// Samples per buffered series a memtable must average before it is
/// worth a segment: ≈ 12 B of v4 series header ÷ 8 ≈ 1.5 B a sample,
/// about what a sample's stamp or decimal value costs beside it.
const FLUSH_SAMPLES_PER_SERIES: usize = 8;
/// A memtable never outgrows this multiple of `flush_threshold`,
/// however many series share it: the bound on WAL replay.
const FLUSH_CAP_FACTOR: usize = 32;
/// A merge writes a series' block into a companion only when the block
/// holds at most 1/this as many entries as the source a query at that
/// tier would otherwise fold for the series: the next finer block kept
/// for it, or its raw samples. A 10 s block of 30 s data (one sample a
/// bucket) costs more bytes than the raw block and saves no fold.
const COMPANION_FOLD_FACTOR: usize = 2;

/// Sharding and flush parameters. Sharding fields are fixed at store
/// creation and read back from disk on reopen.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards (independent write paths).
    pub n_shards: usize,
    /// Nodes per group; a group always lands on one shard.
    pub nodes_per_group: u32,
    /// Fewest memtable samples per shard worth a segment flush: the
    /// floor of the flush rule (see the module doc).
    pub flush_threshold: usize,
    /// Merge fan-in: adjacent raw segments of similar size merged at a
    /// time, and the size ratio that still counts as similar.
    pub compact_threshold: usize,
    /// Decoded samples the shared block cache may hold (16 B each for
    /// raw blocks). Tunable per open — not persisted in CONFIG.
    pub cache_capacity_samples: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            n_shards: 4,
            // ten node ports per ICE Box chassis (paper §3)
            nodes_per_group: 10,
            flush_threshold: 4096,
            compact_threshold: 4,
            // ~4 MiB of decoded raw samples
            cache_capacity_samples: 262_144,
        }
    }
}

/// What [`DiskStore::open`] found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact segment files loaded.
    pub segments_loaded: usize,
    /// Segment files quarantined for bad magic/checksum.
    pub segments_quarantined: usize,
    /// WAL records replayed into memtables.
    pub wal_records: usize,
    /// Samples rebuilt into memtables from the WAL.
    pub samples_replayed: u64,
    /// Torn-tail bytes truncated across shard WALs.
    pub wal_truncated_bytes: u64,
}

/// What the write path has done since [`DiskStore::open`]; write
/// amplification is `samples_rewritten ÷` samples appended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Memtables flushed to raw segments.
    pub flushes: u64,
    /// Merges of raw segments (policy runs and full merges alike).
    pub compactions: u64,
    /// Raw samples written by those merges.
    pub samples_rewritten: u64,
}

/// An on-disk segment file: path plus its header index. Payloads stay
/// on disk until a query pulls them through the block cache.
#[derive(Debug)]
struct SegmentFile {
    path: PathBuf,
    index: SegmentIndex,
    /// Opened by the first cache miss, closed when the file's set is
    /// dropped (a merge drops its inputs; reads already done hold
    /// decoded blocks, not the descriptor).
    file: OnceLock<File>,
}

impl SegmentFile {
    fn new(path: PathBuf, index: SegmentIndex) -> SegmentFile {
        SegmentFile {
            path,
            index,
            file: OnceLock::new(),
        }
    }

    /// Read and decode one series' block: a positioned read on the
    /// open file, payload CRC verified.
    fn read_series(&self, series: usize) -> Result<SeriesData, StoreError> {
        let file = match self.file.get() {
            Some(file) => file,
            None => {
                let opened = File::open(&self.path)?;
                self.file.get_or_init(|| opened)
            }
        };
        segment::read_series_at(
            file,
            &self.path,
            self.index.format,
            self.index.resolution,
            &self.index.entries[series],
        )
    }
}

/// One raw segment and the tier companions written with it.
#[derive(Debug)]
struct SegmentSet {
    /// First and last flush sequence number held (equal for a flush
    /// output). Live sets never overlap; `hi` keys the block cache.
    lo: u64,
    hi: u64,
    raw: SegmentFile,
    /// Companions, finest first: all of [`Resolution::TIERS`] for a
    /// merge output, none for a flush output. Each holds only the series
    /// whose block at its tier earns its bytes (`COMPANION_FOLD_FACTOR`);
    /// a series it lacks is read from a finer companion or raw.
    tiers: Vec<SegmentFile>,
    /// Raw samples held — the merge policy's notion of size.
    samples: u64,
    /// Bounds on every time in the set's files: the oldest sample
    /// floored to the coarsest bucket, and the newest sample. A read
    /// outside them skips the set without a per-series index lookup.
    oldest: SimTime,
    newest: SimTime,
}

impl SegmentSet {
    fn new(lo: u64, hi: u64, raw: SegmentFile, tiers: Vec<SegmentFile>) -> SegmentSet {
        let held = || raw.index.entries.iter().filter(|e| e.count > 0);
        let samples = held().map(|e| e.count as u64).sum();
        let oldest = held().map(|e| e.min_time).min().unwrap_or(SimTime::MAX);
        let newest = held().map(|e| e.max_time).max().unwrap_or(SimTime::ZERO);
        let coarsest = Resolution::OneHour.bucket_nanos().expect("a tier");
        SegmentSet {
            lo,
            hi,
            oldest: floor_to(oldest, coarsest),
            newest,
            raw,
            tiers,
            samples,
        }
    }

    fn files(&self) -> impl Iterator<Item = &SegmentFile> {
        std::iter::once(&self.raw).chain(&self.tiers)
    }
}

/// Locate `(node, monitor)` in an index (entries are sorted).
fn find_entry<'a>(
    index: &'a SegmentIndex,
    node: u32,
    monitor: &str,
) -> Option<(usize, &'a SeriesIndexEntry)> {
    let i = index
        .entries
        .partition_point(|e| (e.node, &*e.monitor) < (node, monitor));
    let e = index.entries.get(i)?;
    (e.node == node && *e.monitor == *monitor).then_some((i, e))
}

fn segment_name(lo: u64, hi: u64, res: Resolution) -> String {
    if lo == hi {
        format!("seg-{hi:08}-r{}.seg", res.tag())
    } else {
        format!("seg-{lo:08}-{hi:08}-r{}.seg", res.tag())
    }
}

/// Inverse of [`segment_name`]: `(lo, hi, resolution)`.
fn parse_segment_name(name: &str) -> Option<(u64, u64, Resolution)> {
    let (seqs, res) = name
        .strip_prefix("seg-")?
        .strip_suffix(".seg")?
        .rsplit_once("-r")?;
    let res = Resolution::from_tag(res.parse().ok()?)?;
    let (lo, hi) = match seqs.split_once('-') {
        Some((lo, hi)) => (lo.parse().ok()?, hi.parse().ok()?),
        None => {
            let seq = seqs.parse().ok()?;
            (seq, seq)
        }
    };
    (lo <= hi).then_some((lo, hi, res))
}

fn quarantine(path: &Path, recovery: &mut RecoveryReport) {
    let _ = std::fs::rename(path, path.with_extension("seg.corrupt"));
    recovery.segments_quarantined += 1;
}

/// A hole in a dense [`Column`].
const NO_SERIES: u32 = u32::MAX;

/// Node slots a dense column of `held` series may span.
fn dense_span(held: usize) -> usize {
    4 * held + 16
}

/// One monitor's series ids by node slot. Dense while its slots are
/// packed (the highest within [`dense_span`] of the series it holds),
/// sparse otherwise: a name invented on one node costs a map entry,
/// not a column as long as the shard's node list.
#[derive(Debug)]
enum Column {
    Dense(Vec<u32>),
    Sparse(HashMap<u32, u32>),
}

impl Column {
    fn get(&self, slot: u32) -> Option<u32> {
        match self {
            Column::Dense(ids) => ids
                .get(slot as usize)
                .copied()
                .filter(|&id| id != NO_SERIES),
            Column::Sparse(ids) => ids.get(&slot).copied(),
        }
    }

    /// Give `slot` the series `id`; the column then holds `held`.
    fn insert(&mut self, slot: u32, id: u32, held: usize) {
        let at = slot as usize;
        match self {
            Column::Dense(ids) if at < ids.len().max(dense_span(held)) => {
                if at >= ids.len() {
                    ids.resize(at + 1, NO_SERIES);
                }
                ids[at] = id;
            }
            Column::Dense(_) => {
                let mut ids: HashMap<u32, u32> = self.entries().collect();
                ids.insert(slot, id);
                *self = Column::Sparse(ids);
            }
            Column::Sparse(ids) => {
                ids.insert(slot, id);
                // packed again? checked at each doubling: amortised O(1)
                if !held.is_power_of_two() {
                    return;
                }
                let top = ids.keys().max().map_or(0, |&s| s as usize);
                if top < dense_span(held) {
                    let mut dense = vec![NO_SERIES; top + 1];
                    for (&s, &id) in ids.iter() {
                        dense[s as usize] = id;
                    }
                    *self = Column::Dense(dense);
                }
            }
        }
    }

    fn remove(&mut self, slot: u32) -> Option<u32> {
        match self {
            Column::Dense(ids) => {
                let id = ids.get_mut(slot as usize)?;
                Some(std::mem::replace(id, NO_SERIES)).filter(|&id| id != NO_SERIES)
            }
            Column::Sparse(ids) => ids.remove(&slot),
        }
    }

    /// `(slot, series id)` of every series held.
    fn entries(&self) -> Box<dyn Iterator<Item = (u32, u32)> + '_> {
        match self {
            Column::Dense(ids) => Box::new(
                (0..)
                    .zip(ids.iter().copied())
                    .filter(|&(_, id)| id != NO_SERIES),
            ),
            Column::Sparse(ids) => Box::new(ids.iter().map(|(&slot, &id)| (slot, id))),
        }
    }
}

/// One monitor of a shard: its name and its series by node slot.
#[derive(Debug)]
struct MonitorSeries {
    /// Shared with `by_name`, and with every segment key a flush writes.
    name: Arc<str>,
    held: usize,
    by_slot: Column,
}

/// A shard's series, monitor first: monitor name → node → shard-local
/// series id. A query resolves its monitor once per shard and then
/// finds each node's series by its `u32` node id, never hashing a
/// `String` per node. Nodes get dense slots in the order the shard
/// first sees them, and a monitor's series ids sit in one array by
/// slot (a [`Column`]): a query walks it in node order, and an ingest
/// frame, one node's monitors, reads one entry per monitor instead of
/// probing a hash table per monitor. Every insert is amortised O(1),
/// and the maps keep `RandomState`: node ids and monitor names come
/// from agents.
#[derive(Debug, Default)]
struct SeriesIndex {
    /// monitor name → its position in `monitors`.
    by_name: HashMap<Arc<str>, u32>,
    monitors: Vec<MonitorSeries>,
    /// node → slot.
    slots: HashMap<u32, u32>,
    /// series id → `(node, monitor position)`. A forgotten node's ids
    /// stay here (their memtable buffers emptied), unreachable.
    keys: Vec<(u32, u32)>,
}

impl SeriesIndex {
    /// Resolve `monitor` once; the result finds a node's series in it.
    fn monitor(&self, monitor: &str) -> Option<impl Fn(u32) -> Option<u32> + '_> {
        let column = &self.monitors[*self.by_name.get(monitor)? as usize].by_slot;
        Some(move |node| column.get(*self.slots.get(&node)?))
    }

    fn lookup(&self, node: u32, monitor: &str) -> Option<u32> {
        self.monitor(monitor)?(node)
    }

    /// The id of `(node, monitor)`, and whether it was registered just
    /// now (ids are dense: a new one is the number of ids before it).
    fn register(&mut self, node: u32, monitor: &str) -> (u32, bool) {
        let m = match self.by_name.get(monitor) {
            Some(&m) => m,
            None => {
                let m = self.monitors.len() as u32;
                let name: Arc<str> = monitor.into();
                self.by_name.insert(Arc::clone(&name), m);
                self.monitors.push(MonitorSeries {
                    name,
                    held: 0,
                    by_slot: Column::Dense(Vec::new()),
                });
                m
            }
        };
        let next_slot = self.slots.len() as u32;
        let slot = *self.slots.entry(node).or_insert(next_slot);
        let series = &mut self.monitors[m as usize];
        if let Some(id) = series.by_slot.get(slot) {
            return (id, false);
        }
        let id = self.keys.len() as u32;
        series.held += 1;
        series.by_slot.insert(slot, id, series.held);
        self.keys.push((node, m));
        (id, true)
    }

    /// `(node, monitor)` of a series id.
    fn key(&self, id: u32) -> (u32, &Arc<str>) {
        let (node, m) = self.keys[id as usize];
        (node, &self.monitors[m as usize].name)
    }

    /// Unlink every series of `node`; returns their ids.
    fn forget(&mut self, node: u32) -> Vec<u32> {
        let Some(&slot) = self.slots.get(&node) else {
            return Vec::new();
        };
        let mut ids = Vec::new();
        for series in &mut self.monitors {
            if let Some(id) = series.by_slot.remove(slot) {
                series.held -= 1;
                ids.push(id);
            }
        }
        ids
    }

    /// Every live `(node, monitor)`, unordered.
    fn series(&self) -> impl Iterator<Item = (u32, &str)> {
        let keys = &self.keys;
        self.monitors.iter().flat_map(move |series| {
            let name = &*series.name;
            series
                .by_slot
                .entries()
                .map(move |(_, id)| (keys[id as usize].0, name))
        })
    }
}

#[derive(Debug)]
struct Shard {
    dir: PathBuf,
    /// This shard's index within the store (block-cache key space).
    idx: u32,
    cache: Arc<BlockCache>,
    wal: Wal,
    /// Sequence number of the next flush — what the WAL header names.
    next_seq: u64,
    /// `(node, monitor)` ↔ shard-local series id, monitor first.
    index: SeriesIndex,
    /// series id → buffered samples (time-ordered as appended).
    mem: Vec<Vec<Sample>>,
    mem_samples: usize,
    /// Series with at least one buffered sample.
    mem_series: usize,
    /// ids whose `AddSeries` is in the current WAL generation.
    logged: Vec<bool>,
    /// Live segments, oldest first.
    segs: Vec<SegmentSet>,
    stats: WriteStats,
    flush_threshold: usize,
    compact_threshold: usize,
    /// Test hook: durable file operations left before the shard plays
    /// dead (every later one fails, as if the process had been killed).
    kill_in: Option<u32>,
}

/// A segment file found by [`scan`]: its sequence range, resolution,
/// path, and its index or why it has none.
type Found = (
    (u64, u64, Resolution),
    PathBuf,
    Result<SegmentIndex, StoreError>,
);

/// Read a shard directory's segment files and the temp files a crash
/// mid-write left, changing nothing. A segment of a retired format
/// refuses the whole store before any shard repairs a file.
fn scan(shard_dir: &Path) -> Result<(Vec<Found>, Vec<PathBuf>), StoreError> {
    let (mut found, mut tmp) = (Vec::new(), Vec::new());
    for entry in std::fs::read_dir(shard_dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".tmp") {
            tmp.push(path);
            continue;
        }
        let Some(range) = parse_segment_name(name) else {
            continue;
        };
        match SegmentIndex::read_from(&path) {
            Err(e @ StoreError::RetiredSegment { .. }) => return Err(e),
            index => found.push((range, path, index)),
        }
    }
    Ok((found, tmp))
}

impl Shard {
    fn open(
        shard_dir: &Path,
        (found, tmp): (Vec<Found>, Vec<PathBuf>),
        idx: u32,
        cfg: &StoreConfig,
        cache: Arc<BlockCache>,
        recovery: &mut RecoveryReport,
        total: &mut u64,
    ) -> Result<Shard, StoreError> {
        // a crash mid-write left a partial file
        for path in tmp {
            let _ = std::fs::remove_file(path);
        }
        // 1. segment files, checksum-verified and indexed, grouped by
        // the sequence range they cover (the bool: its raw file was
        // quarantined)
        let mut next_seq = 1u64;
        let mut groups: BTreeMap<(u64, Reverse<u64>), (Vec<SegmentFile>, bool)> = BTreeMap::new();
        for ((lo, hi, res), path, index) in found {
            next_seq = next_seq.max(hi + 1);
            let (files, raw_quarantined) = groups.entry((lo, Reverse(hi))).or_default();
            match index {
                Ok(index) => files.push(SegmentFile::new(path, index)),
                Err(_) => {
                    quarantine(&path, recovery);
                    *raw_quarantined |= res == Resolution::Raw;
                }
            }
        }

        let wal_rec = Wal::open(&shard_dir.join("wal.log"), next_seq)?;
        let mut shard = Shard {
            dir: shard_dir.to_path_buf(),
            idx,
            cache,
            wal: wal_rec.wal,
            next_seq,
            index: SeriesIndex::default(),
            mem: Vec::new(),
            mem_samples: 0,
            mem_series: 0,
            logged: Vec::new(),
            segs: Vec::new(),
            stats: WriteStats::default(),
            flush_threshold: cfg.flush_threshold.max(1),
            compact_threshold: cfg.compact_threshold.max(2),
            kill_in: None,
        };

        // 2. one live raw segment per sample: ranges are disjoint or
        // nested, and the map orders an enclosing range before what it
        // encloses
        for ((lo, Reverse(hi)), (mut files, raw_quarantined)) in groups {
            files.sort_by_key(|f| f.index.resolution);
            let superseded = shard.segs.last().is_some_and(|live| hi <= live.hi);
            let has_raw = files
                .first()
                .is_some_and(|f| f.index.resolution == Resolution::Raw);
            if superseded || !has_raw {
                // inputs of a merge that committed, or companions of one
                // that did not; companions of a quarantined raw file
                // follow it (they describe samples it can no longer show)
                for f in files {
                    if raw_quarantined && !superseded {
                        quarantine(&f.path, recovery);
                    } else {
                        let _ = std::fs::remove_file(&f.path);
                    }
                }
                continue;
            }
            recovery.segments_loaded += files.len();
            let set = SegmentSet::new(lo, hi, files.remove(0), files);
            *total += set.samples;
            for e in &set.raw.index.entries {
                shard.register(e.node, &e.monitor);
            }
            shard.segs.push(set);
        }

        // 3. the WAL, unless the segment it flushes to is live: then its
        // every record is in that segment (or in a merge of it) and the
        // process died before the checkpoint
        recovery.wal_truncated_bytes += wal_rec.truncated_bytes;
        let flushed = |seq| shard.segs.iter().any(|set| set.lo <= seq && seq <= set.hi);
        if wal_rec.flushes_to.is_some_and(flushed) {
            shard.wal.checkpoint(next_seq)?;
            return Ok(shard);
        }
        // the next flush must write the segment the header names (again,
        // if what was written under that number did not survive)
        shard.next_seq = wal_rec.flushes_to.unwrap_or(next_seq);
        recovery.wal_records += wal_rec.records.len();
        let mut wal_to_internal: HashMap<u32, u32> = HashMap::new();
        for record in wal_rec.records {
            match record {
                WalRecord::AddSeries {
                    series,
                    node,
                    monitor,
                } => {
                    let id = shard.register(node, &monitor);
                    // the registration is already in the current log
                    shard.logged[id as usize] = true;
                    wal_to_internal.insert(series, id);
                }
                WalRecord::Samples { series, samples } => {
                    let Some(&id) = wal_to_internal.get(&series) else {
                        continue;
                    };
                    recovery.samples_replayed += samples.len() as u64;
                    *total += samples.len() as u64;
                    shard.buffer(id, samples.into_iter());
                }
            }
        }
        Ok(shard)
    }

    fn register(&mut self, node: u32, monitor: &str) -> u32 {
        let (id, new) = self.index.register(node, monitor);
        if new {
            self.mem.push(Vec::new());
            self.logged.push(false);
        }
        id
    }

    /// Add samples of one series to the memtable.
    fn buffer(&mut self, id: u32, samples: impl Iterator<Item = Sample>) {
        let mem = &mut self.mem[id as usize];
        let before = mem.len();
        mem.extend(samples);
        self.mem_samples += mem.len() - before;
        self.mem_series += usize::from(before == 0 && !mem.is_empty());
    }

    /// Has the memtable amortised its per-series segment headers (see
    /// the module doc's flush rule)?
    fn flush_due(&self) -> bool {
        let want = (self.mem_series * FLUSH_SAMPLES_PER_SERIES).clamp(
            self.flush_threshold,
            self.flush_threshold.saturating_mul(FLUSH_CAP_FACTOR),
        );
        self.mem_samples >= want
    }

    /// Gate in front of every durable file operation of a flush or
    /// merge; fails from the armed operation on (see `kill_in`).
    fn step(&mut self) -> Result<(), StoreError> {
        match &mut self.kill_in {
            Some(0) => Err(StoreError::Io(std::io::Error::other("injected kill"))),
            Some(left) => {
                *left -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Fetch one series payload, through the cache. The segment read
    /// happens outside the cache's internal lock.
    fn read_block(
        &self,
        set: &SegmentSet,
        sf: &SegmentFile,
        series: usize,
    ) -> Result<Arc<SeriesData>, StoreError> {
        let key = BlockKey {
            shard: self.idx,
            seq: set.hi,
            res: sf.index.resolution.tag(),
            series: series as u32,
        };
        if let Some(block) = self.cache.get(&key) {
            return Ok(block);
        }
        let data = Arc::new(sf.read_series(series)?);
        self.cache.insert(key, Arc::clone(&data));
        Ok(data)
    }

    /// Write the memtable as the next raw segment and restart the WAL.
    /// The memtable is emptied only once the segment is in place, so a
    /// failed write loses nothing from view.
    fn flush(&mut self) -> Result<(), StoreError> {
        if self.mem_samples == 0 {
            return Ok(());
        }
        let mut series = Vec::with_capacity(self.mem_series);
        for (id, samples) in self.mem.iter_mut().enumerate() {
            if samples.is_empty() {
                continue;
            }
            samples.sort_by_key(|s| s.time.as_nanos());
            let (node, monitor) = self.index.key(id as u32);
            series.push((
                (node, Arc::clone(monitor)),
                SeriesData::Raw(samples.clone()),
            ));
        }
        series.sort_by(|a, b| a.0.cmp(&b.0));
        let seg = Segment {
            resolution: Resolution::Raw,
            series,
        };
        let seq = self.next_seq;
        let path = self.dir.join(segment_name(seq, seq, Resolution::Raw));
        self.step()?;
        let index = seg.write_to(&path)?;
        self.next_seq += 1;
        self.segs.push(SegmentSet::new(
            seq,
            seq,
            SegmentFile::new(path, index),
            Vec::new(),
        ));
        // buffers keep their capacity: the same series fill them again
        self.mem.iter_mut().for_each(Vec::clear);
        self.mem_samples = 0;
        self.mem_series = 0;
        self.stats.flushes += 1;
        // the flushed samples are durable in the segment; restart the log
        self.step()?;
        self.wal.checkpoint(self.next_seq)?;
        self.logged.fill(false);
        Ok(())
    }

    /// [`Shard::flush`], then the merge policy: while some run of
    /// `compact_threshold` adjacent segments is of similar size, merge
    /// the newest such run.
    fn flush_and_merge(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        let k = self.compact_threshold;
        let similar = |run: &[SegmentSet]| {
            let sizes = run.iter().map(|s| s.samples);
            let (min, max) = (sizes.clone().min(), sizes.max());
            max.unwrap_or(0) <= min.unwrap_or(0).saturating_mul(k as u64)
        };
        while let Some(start) = self.segs.windows(k).rposition(similar) {
            self.merge(start..start + k, None)?;
        }
        Ok(())
    }

    /// Merge `self.segs[run]` into one segment covering the run's
    /// sequence range, with all three companion files (each holding the
    /// series whose block earns its bytes), leaving out `drop_node`'s
    /// series. The raw file's rename is the commit point:
    /// companions are written before it, inputs removed after it.
    fn merge(&mut self, run: Range<usize>, drop_node: Option<u32>) -> Result<(), StoreError> {
        let (lo, hi) = (self.segs[run.start].lo, self.segs[run.end - 1].hi);
        // full-file reads: a merge touches everything in its inputs
        // anyway, no point going through the cache
        let mut parts: Vec<(SeriesKey, Vec<Sample>)> = Vec::new();
        for set in &self.segs[run.clone()] {
            for (key, data) in Segment::read_from(&set.raw.path)?.series {
                if let (SeriesData::Raw(samples), true) = (data, Some(key.0) != drop_node) {
                    parts.push((key, samples));
                }
            }
        }
        // stable sorts: a series' parts stay in segment order, and so
        // do samples of equal time
        parts.sort_by(|a, b| a.0.cmp(&b.0));
        let mut series: [Vec<(SeriesKey, SeriesData)>; 4] = Default::default();
        let mut rewritten = 0u64;
        let mut parts = parts.into_iter().peekable();
        while let Some((key, mut samples)) = parts.next() {
            while let Some((_, more)) = parts.next_if(|(k, _)| *k == key) {
                samples.extend(more);
            }
            samples.sort_by_key(|s| s.time.as_nanos());
            rewritten += samples.len() as u64;
            let ten = aggregate(&samples, Resolution::TenSeconds.bucket_nanos().unwrap());
            let five = merge_buckets(&ten, Resolution::FiveMinutes.bucket_nanos().unwrap());
            let hour = merge_buckets(&five, Resolution::OneHour.bucket_nanos().unwrap());
            // what a query at the next tier up folds otherwise
            let mut source = samples.len();
            for (tier, buckets) in series[1..].iter_mut().zip([ten, five, hour]) {
                if buckets.len() * COMPANION_FOLD_FACTOR <= source {
                    source = buckets.len();
                    tier.push((key.clone(), SeriesData::Buckets(buckets)));
                }
            }
            series[0].push((key, SeriesData::Raw(samples)));
        }
        let [raw, tiers @ ..] = series;
        let mut written = Vec::with_capacity(4);
        for (resolution, series) in Resolution::TIERS
            .into_iter()
            .zip(tiers)
            .chain([(Resolution::Raw, raw)])
        {
            let path = self.dir.join(segment_name(lo, hi, resolution));
            self.step()?;
            let index = Segment { resolution, series }.write_to(&path)?;
            written.push(SegmentFile::new(path, index));
        }
        let raw = written.pop().expect("the raw file is written last");
        let merged = SegmentSet::new(lo, hi, raw, written);

        // committed: swap it in, drop cached blocks of the inputs (the
        // merged segment reuses `hi` as its cache key), remove their
        // files (a one-segment merge overwrote its input in place)
        self.cache.evict_segments(self.idx, lo..=hi);
        self.stats.compactions += 1;
        self.stats.samples_rewritten += rewritten;
        let inputs: Vec<SegmentSet> = self.segs.splice(run, [merged]).collect();
        if inputs.len() > 1 {
            for sf in inputs.iter().flat_map(SegmentSet::files) {
                self.step()?;
                let _ = std::fs::remove_file(&sf.path);
            }
        }
        Ok(())
    }

    /// One series' buffered samples within `[from, to]`, time-ordered.
    fn mem_range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        // nothing buffered (a compacted store, a shard just flushed):
        // not worth a lookup per node of the query
        if self.mem_samples == 0 {
            return Vec::new();
        }
        let Some(id) = self.index.lookup(node, monitor) else {
            return Vec::new();
        };
        let mut out: Vec<Sample> = self.mem[id as usize]
            .iter()
            .filter(|s| s.time >= from && s.time <= to)
            .copied()
            .collect();
        out.sort_by_key(|s| s.time.as_nanos());
        out
    }

    /// One series' blocks for a read at `res`, oldest segment first:
    /// from every segment, the block of the coarsest companion no
    /// coarser than `res` (all of them nest in its windows) that holds
    /// the series, else of the raw file (always the raw file for
    /// [`Resolution::Raw`]), pruned by the index's time bounds, where
    /// `from_floor` is `from` floored to the tier's bucket. `each` may
    /// stop the walk with an error. A block that cannot be read after open is a
    /// gap in the answer rather than a panic, matching the quarantine
    /// behaviour at open; the walk returns how many.
    fn blocks(
        &self,
        node: u32,
        monitor: &str,
        res: Resolution,
        from_floor: SimTime,
        to: SimTime,
        mut each: impl FnMut(Arc<SeriesData>) -> Result<(), QueryError>,
    ) -> Result<u64, QueryError> {
        let mut unreadable = 0;
        for set in &self.segs {
            if set.oldest > to || set.newest < from_floor {
                continue;
            }
            let eligible = set.tiers.iter().rev().filter(|t| t.index.resolution <= res);
            let Some((sf, i, e)) = eligible
                .chain([&set.raw])
                .find_map(|sf| find_entry(&sf.index, node, monitor).map(|(i, e)| (sf, i, e)))
            else {
                continue;
            };
            if e.count == 0 || e.min_time > to || e.max_time < from_floor {
                continue;
            }
            match self.read_block(set, sf, i) {
                Ok(block) => each(block)?,
                Err(_) => unreadable += 1,
            }
        }
        Ok(unreadable)
    }

    fn raw_range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        let mut out: Vec<Sample> = Vec::new();
        let _ = self.blocks(node, monitor, Resolution::Raw, from, to, |block| {
            if let SeriesData::Raw(samples) = &*block {
                out.extend(samples.iter().filter(|s| s.time >= from && s.time <= to));
            }
            Ok(())
        });
        out.extend(self.mem_range(node, monitor, from, to));
        out.sort_by_key(|s| s.time.as_nanos());
        out
    }

    /// Offer `monitor`'s sources for `nodes` (`(shard, group position,
    /// node)`, all of this shard) to `out`, node by node: its blocks at
    /// `res`, oldest segment first, then its in-range memtable samples.
    /// The monitor is resolved once; every node's memtable samples are
    /// copied (and charged to the budget as they are) into one buffer,
    /// offered last as ranges of one block, so each stays its node's
    /// last source. Returns the count of unreadable blocks.
    fn collect(
        &self,
        monitor: &str,
        res: Resolution,
        nodes: &[(usize, usize, u32)],
        out: &mut Collector,
    ) -> Result<u64, QueryError> {
        let (from, to) = (out.from, out.to);
        // nothing buffered (a compacted store, a shard just flushed):
        // not worth a lookup per node of the query
        let series = self.index.monitor(monitor).filter(|_| self.mem_samples > 0);
        let ids: Vec<Option<u32>> = match series {
            Some(series) => nodes.iter().map(|&(_, _, node)| series(node)).collect(),
            None => Vec::new(),
        };
        let held = ids.iter().flatten().map(|&id| self.mem[id as usize].len());
        let mut copied: Vec<Sample> = Vec::with_capacity(held.sum());
        let mut spans: Vec<(usize, Range<usize>)> = Vec::with_capacity(ids.len());
        let mut unreadable = 0;
        for (k, &(_, pos, node)) in nodes.iter().enumerate() {
            unreadable +=
                self.blocks(node, monitor, res, from, to, |block| out.push(pos, block))?;
            let Some(&Some(id)) = ids.get(k) else {
                continue;
            };
            let start = copied.len();
            let buffered = self.mem[id as usize].iter();
            copied.extend(buffered.filter(|s| s.time >= from && s.time <= to));
            if copied.len() == start {
                continue;
            }
            // appended order is time order but for late samples
            let mine = &mut copied[start..];
            if !mine.is_sorted_by_key(|s| s.time.as_nanos()) {
                mine.sort_by_key(|s| s.time.as_nanos());
            }
            out.charge((copied.len() - start) as u64, 0)?;
            spans.push((pos, start..copied.len()));
        }
        if !spans.is_empty() {
            out.push_ranges(&Arc::new(SeriesData::Raw(copied)), spans);
        }
        Ok(unreadable)
    }

    /// The newest sample of a series — the newest time, the last
    /// appended among equals, as the end of a stable sort of its whole
    /// history has it — given the newest of its memtable, `buffered`.
    /// The memtable holds what arrived after every segment, so it wins
    /// ties and any segment whose index promises nothing newer goes
    /// unread; otherwise the answer is the last sample of the one block
    /// whose index promises the greatest time (the newest segment among
    /// equals). Only if that block cannot be read is the next best
    /// tried.
    fn latest(&self, node: u32, monitor: &str, buffered: Option<Sample>) -> Option<Sample> {
        let mut candidates: Vec<(SimTime, usize, usize)> = Vec::new();
        for (k, set) in self.segs.iter().enumerate() {
            if let Some((i, e)) = find_entry(&set.raw.index, node, monitor) {
                if e.count > 0 {
                    candidates.push((e.max_time, k, i));
                }
            }
        }
        candidates.sort_unstable_by_key(|&c| Reverse(c));
        candidates
            .into_iter()
            .take_while(|&(newest, _, _)| buffered.is_none_or(|b| b.time < newest))
            .find_map(|(_, k, i)| {
                let set = &self.segs[k];
                match &*self.read_block(set, &set.raw, i).ok()? {
                    SeriesData::Raw(samples) => samples.last().copied(),
                    SeriesData::Buckets(_) => None,
                }
            })
            .or(buffered)
    }

    /// Does any segment of this shard hold a companion at `res`? Not
    /// until the shard's first merge: fresh flushes have none.
    fn has_tier(&self, res: Resolution) -> bool {
        self.segs
            .iter()
            .any(|set| set.tiers.iter().any(|t| t.index.resolution == res))
    }
}

/// The persistent sharded store.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    cfg: StoreConfig,
    shards: Vec<Mutex<Shard>>,
    cache: Arc<BlockCache>,
    total: AtomicU64,
    recovery: RecoveryReport,
    /// The data directory stopped taking writes (disk full, yanked
    /// mount, …). Ingest keeps running volatile-only: samples still
    /// land in the memtables and stay readable, they just won't survive
    /// a restart. Monitoring visibility beats durability here — a blind
    /// management server is worse than a forgetful one.
    degraded: AtomicBool,
    last_error: Mutex<Option<String>>,
    /// Samples accepted without durability since entering degraded mode.
    volatile_samples: AtomicU64,
    /// Test hook: force the next WAL/flush write to fail.
    fail_inject: AtomicBool,
}

/// The positive integer `key=` holds in the `CONFIG` text at `path`. A
/// missing or garbled key refuses the open: guessing the sharding
/// would hide every node whose shard changed.
fn config_key<T: std::str::FromStr + Default + PartialOrd>(
    path: &Path,
    text: &str,
    key: &str,
) -> Result<T, StoreError> {
    text.lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.trim().parse().ok())
        .filter(|v| *v > T::default())
        .ok_or_else(|| {
            StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "{}: `{key}` missing or not a positive integer",
                    path.display()
                ),
            ))
        })
}

impl DiskStore {
    /// Open or create a store at `dir`, recovering any existing state.
    /// An existing `CONFIG` fixes the sharding; one that cannot be read
    /// refuses the open, and so does a segment of a retired format.
    pub fn open(dir: &Path, mut cfg: StoreConfig) -> Result<DiskStore, StoreError> {
        std::fs::create_dir_all(dir)?;
        cfg.n_shards = cfg.n_shards.max(1);
        cfg.nodes_per_group = cfg.nodes_per_group.max(1);
        let config_path = dir.join("CONFIG");
        match std::fs::read_to_string(&config_path) {
            Ok(text) => {
                cfg.n_shards = config_key(&config_path, &text, "n_shards")?;
                cfg.nodes_per_group = config_key(&config_path, &text, "nodes_per_group")?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // temp file + rename: a crash leaves no CONFIG or a
                // whole one, never a torn one
                let tmp = config_path.with_extension("tmp");
                {
                    let mut f = File::create(&tmp)?;
                    write!(
                        f,
                        "n_shards={}\nnodes_per_group={}\n",
                        cfg.n_shards, cfg.nodes_per_group
                    )?;
                    f.sync_data()?;
                }
                std::fs::rename(&tmp, &config_path)?;
                File::open(dir)?.sync_all()?;
            }
            Err(e) => return Err(e.into()),
        }

        let cache = Arc::new(BlockCache::new(cfg.cache_capacity_samples));
        let mut recovery = RecoveryReport::default();
        let mut total = 0u64;
        // every shard is read before any is repaired
        let mut scans = Vec::with_capacity(cfg.n_shards);
        for i in 0..cfg.n_shards {
            let shard_dir = dir.join(format!("shard-{i:03}"));
            std::fs::create_dir_all(&shard_dir)?;
            scans.push((scan(&shard_dir)?, shard_dir));
        }
        let mut shards = Vec::with_capacity(cfg.n_shards);
        for (i, (found, shard_dir)) in scans.into_iter().enumerate() {
            let shard = Shard::open(
                &shard_dir,
                found,
                i as u32,
                &cfg,
                Arc::clone(&cache),
                &mut recovery,
                &mut total,
            )?;
            shards.push(Mutex::new(shard));
        }
        Ok(DiskStore {
            dir: dir.to_path_buf(),
            cfg,
            shards,
            cache,
            total: AtomicU64::new(total),
            recovery,
            degraded: AtomicBool::new(false),
            last_error: Mutex::new(None),
            volatile_samples: AtomicU64::new(0),
            fail_inject: AtomicBool::new(false),
        })
    }

    /// What recovery found when this handle was opened.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The effective configuration (sharding read back from disk).
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    /// Flush, merge and rewrite counters since this handle was opened.
    pub fn write_stats(&self) -> WriteStats {
        let mut out = WriteStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats;
            out.flushes += s.flushes;
            out.compactions += s.compactions;
            out.samples_rewritten += s.samples_rewritten;
        }
        out
    }

    /// Block-cache hit/miss/eviction counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop every cached block (benches use this to measure cold reads).
    pub fn clear_cache(&self) {
        self.cache.clear()
    }

    fn shard_of(&self, node: u32) -> usize {
        (node / self.cfg.nodes_per_group) as usize % self.shards.len()
    }

    /// Has the store fallen back to volatile-only ingest?
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The write error that pushed the store into degraded mode.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    /// Samples accepted without durability since degrading.
    pub fn volatile_samples(&self) -> u64 {
        self.volatile_samples.load(Ordering::Relaxed)
    }

    /// Test hook: make the next durable write fail as if the disk died.
    #[doc(hidden)]
    pub fn inject_write_failure(&self) {
        self.fail_inject.store(true, Ordering::Relaxed);
    }

    /// Test hook: every shard completes `file_ops` more durable file
    /// operations of its flushes and merges (segment write + rename, WAL
    /// checkpoint, input removal), then fails all later ones — the files
    /// a `kill -9` at that instant would leave. Reopen to recover.
    #[doc(hidden)]
    pub fn inject_kill_after(&self, file_ops: u32) {
        for shard in &self.shards {
            shard.lock().kill_in = Some(file_ops);
        }
    }

    fn degrade(&self, err: StoreError) {
        self.degraded.store(true, Ordering::Relaxed);
        let mut last = self.last_error.lock();
        if last.is_none() {
            *last = Some(err.to_string());
        }
    }

    /// Returns `false` (and records the synthetic error) when the test
    /// hook armed a failure; clears the hook.
    fn write_allowed(&self) -> bool {
        if self.fail_inject.swap(false, Ordering::Relaxed) {
            self.degrade(StoreError::Io(std::io::Error::other(
                "injected write failure",
            )));
            return false;
        }
        !self.degraded()
    }

    /// Force-flush every shard's memtable into segments (clean
    /// shutdown; a crash instead replays the WAL).
    pub fn flush_all(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            shard.lock().flush_and_merge()?;
        }
        Ok(())
    }

    /// Merge each shard into one segment, in the current format, with
    /// every tier companion.
    pub fn compact_all(&self) -> Result<(), StoreError> {
        for shard in &self.shards {
            let mut s = shard.lock();
            s.flush()?;
            let whole = 0..s.segs.len();
            if whole.len() > 1
                || s.segs.iter().any(|set| {
                    set.tiers.len() < Resolution::TIERS.len()
                        || set.raw.index.format != segment::Format::V5
                })
            {
                s.merge(whole, None)?;
            }
        }
        Ok(())
    }

    /// Log, buffer and acknowledge `samples`, all of shard `si`.
    fn append_to_shard<'a>(
        &self,
        si: usize,
        durable: bool,
        samples: impl Iterator<Item = &'a BatchSample<'a>>,
    ) {
        let mut guard = self.shards[si].lock();
        let shard = &mut *guard;
        // rows grouped by series id: a WAL frame per series, and (the
        // sort is stable) arrival order within each
        let mut new_series: Vec<u32> = Vec::new();
        let mut rows: Vec<(u32, Sample)> = Vec::with_capacity(samples.size_hint().0);
        for s in samples {
            let id = shard.register(s.node, s.monitor);
            if durable && !std::mem::replace(&mut shard.logged[id as usize], true) {
                new_series.push(id);
            }
            rows.push((
                id,
                Sample {
                    time: s.time,
                    value: s.value,
                },
            ));
        }
        rows.sort_by_key(|(id, _)| *id);
        // A write error flips the store into degraded (volatile-only)
        // ingest rather than panicking: the samples still reach the
        // memtable so charts and events keep seeing fresh data.
        let logged = durable && {
            let index = &shard.index;
            let registrations = new_series.iter().map(|&id| {
                let (node, monitor) = index.key(id);
                (id, node, &**monitor)
            });
            shard
                .wal
                .append_samples_multi(registrations, &rows)
                .map_err(|e| self.degrade(e))
                .is_ok()
        };
        if !logged {
            self.volatile_samples
                .fetch_add(rows.len() as u64, Ordering::Relaxed);
        }
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            shard.buffer(run[0].0, run.iter().map(|(_, s)| *s));
        }
        self.total.fetch_add(rows.len() as u64, Ordering::Relaxed);
        if !self.degraded() && shard.flush_due() {
            if let Err(e) = shard.flush_and_merge() {
                self.degrade(e);
            }
        }
    }
}

impl Store for DiskStore {
    fn append_batch(&self, batch: &[BatchSample<'_>]) {
        let durable = self.write_allowed();
        // group by shard so each lock (and each WAL write) is taken once
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        for (i, s) in batch.iter().enumerate() {
            by_shard[self.shard_of(s.node)].push(i);
        }
        for (si, idxs) in by_shard.iter().enumerate() {
            if !idxs.is_empty() {
                self.append_to_shard(si, durable, idxs.iter().map(|&i| &batch[i]));
            }
        }
    }

    fn latest(&self, node: u32, monitor: &str) -> Option<Sample> {
        let shard = self.shards[self.shard_of(node)].lock();
        let id = shard.index.lookup(node, monitor)?;
        // the memtable's newest time, the last appended among equals
        let buffered =
            shard.mem[id as usize]
                .iter()
                .copied()
                .reduce(|a, b| if b.time >= a.time { b } else { a });
        shard.latest(node, monitor, buffered)
    }

    fn range(&self, node: u32, monitor: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        self.shards[self.shard_of(node)]
            .lock()
            .raw_range(node, monitor, from, to)
    }

    fn query(&self, spec: &QuerySpec) -> Result<QueryResult, QueryError> {
        let selected = query::select_tier(spec.window_nanos, spec.agg);
        query::evaluate(spec, selected, |group, out| {
            // one pass per shard: blocks are collected (and the scan
            // budget charged) under the shard lock and folded once it
            // is released, so a long fold never sits on an ingest
            // shard's lock
            let mut by_shard: Vec<(usize, usize, u32)> = group
                .nodes
                .iter()
                .enumerate()
                .map(|(pos, &node)| (self.shard_of(node), pos, node))
                .collect();
            by_shard.sort_unstable();
            for nodes in by_shard.chunk_by(|a, b| a.0 == b.0) {
                // the previous shard's blocks, its lock released
                out.fold_pending()?;
                let shard = self.shards[nodes[0].0].lock();
                // fresh flushes have no companions; where a merged
                // segment lacks a series' block, any finer stored tier
                // still nests in the window (10s | 5m | 1h)
                if selected != Resolution::Raw && !shard.has_tier(selected) {
                    out.stats.fallback_shards += 1;
                }
                // each sample is in exactly one source: a tier block
                // where a companion serves the tier, a raw block
                // elsewhere, a sorted copy of the memtable
                out.stats.unreadable_blocks +=
                    shard.collect(&spec.monitor, selected, nodes, out)?;
            }
            Ok(())
        })
    }

    fn series(&self) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(shard.index.series().map(|(n, m)| (n, m.to_string())));
        }
        out.sort();
        out
    }

    fn forget_node(&self, node: u32) {
        let mut shard = self.shards[self.shard_of(node)].lock();
        let ids = shard.index.forget(node);
        let on_disk = shard
            .segs
            .iter()
            .any(|set| set.raw.index.entries.iter().any(|e| e.node == node));
        if ids.is_empty() && !on_disk {
            return;
        }
        for id in ids {
            let gone = std::mem::take(&mut shard.mem[id as usize]).len();
            shard.mem_samples -= gone;
            shard.mem_series -= usize::from(gone > 0);
        }
        // rewrite segments without the node so the forget is durable;
        // a failure degrades the store, as a failed append does
        if let Err(e) = shard.flush() {
            self.degrade(e);
        }
        let whole = 0..shard.segs.len();
        if !whole.is_empty() {
            if let Err(e) = shard.merge(whole, Some(node)) {
                self.degrade(e);
            }
        }
    }

    fn total_samples(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    fn flush(&self) {
        if let Err(e) = self.flush_all() {
            self.degrade(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwx-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_cfg() -> StoreConfig {
        StoreConfig {
            n_shards: 2,
            nodes_per_group: 4,
            flush_threshold: 64,
            compact_threshold: 3,
            cache_capacity_samples: 4096,
        }
    }

    #[test]
    fn the_series_index_agrees_with_a_map_through_dense_and_sparse_columns() {
        type Want = HashMap<(u32, String), u32>;
        fn register(index: &mut SeriesIndex, want: &mut Want, node: u32, monitor: &str) {
            let (id, new) = index.register(node, monitor);
            let known = want.insert((node, monitor.to_string()), id);
            assert_eq!(new, known.is_none(), "{node} {monitor}");
            assert!(known.is_none_or(|k| k == id));
        }
        let mut index = SeriesIndex::default();
        let mut want = Want::new();
        let dense = |index: &SeriesIndex, monitor: &str| {
            let m = index.by_name[monitor] as usize;
            matches!(index.monitors[m].by_slot, Column::Dense(_))
        };
        // nodes 0..300 take slots 0..300 in arrival order
        for node in 0..300 {
            register(&mut index, &mut want, node * 7, "m");
        }
        assert!(dense(&index, "m"));
        // names invented on the last node: one series each, sparse
        for k in 0..40 {
            register(&mut index, &mut want, 299 * 7, &format!("x{k}"));
        }
        assert!(!dense(&index, "x0"));
        // every node takes up `x0`: dense again once packed
        for node in 0..300 {
            register(&mut index, &mut want, node * 7, "x0");
            register(&mut index, &mut want, node * 7, "m");
        }
        assert!(dense(&index, "x0") && !dense(&index, "x1"));
        // a forgotten node loses every series; back, it gets new ids
        let mut gone = index.forget(299 * 7);
        gone.sort();
        let mut had: Vec<u32> = want
            .iter()
            .filter(|((node, _), _)| *node == 299 * 7)
            .map(|(_, &id)| id)
            .collect();
        had.sort();
        assert_eq!(gone, had);
        want.retain(|(node, _), _| *node != 299 * 7);
        assert_eq!(index.forget(299 * 7), Vec::<u32>::new());
        register(&mut index, &mut want, 299 * 7, "x1");
        assert!(!gone.contains(&want[&(299 * 7, "x1".to_string())]));
        for ((node, monitor), &id) in &want {
            assert_eq!(index.lookup(*node, monitor), Some(id));
            assert_eq!(index.key(id), (*node, &Arc::from(monitor.as_str())));
        }
        assert_eq!(index.lookup(299 * 7, "x0"), None);
        assert_eq!(index.lookup(5, "m"), None, "never seen");
        let mut listed: Vec<(u32, String)> = index
            .series()
            .map(|(node, monitor)| (node, monitor.to_string()))
            .collect();
        listed.sort();
        let mut keys: Vec<(u32, String)> = want.keys().cloned().collect();
        keys.sort();
        assert_eq!(listed, keys);
    }

    #[test]
    fn append_query_roundtrip() {
        let dir = tmp("roundtrip");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..100u64 {
            store.append(1, "cpu.util", t(i), i as f64);
            store.append(9, "cpu.util", t(i), 100.0 - i as f64);
        }
        assert_eq!(store.total_samples(), 200);
        let r = store.range(1, "cpu.util", t(10), t(19));
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].value, 10.0);
        assert_eq!(store.latest(9, "cpu.util").unwrap().value, 1.0);
        assert_eq!(store.series().len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_append_matches_single_appends() {
        let dir = tmp("batch");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            let mut batch = Vec::new();
            for i in 0..30u64 {
                for node in [1u32, 9, 21] {
                    batch.push(BatchSample {
                        node,
                        monitor: "cpu.util",
                        time: t(i),
                        value: node as f64 + i as f64,
                    });
                }
            }
            store.append_batch(&batch);
            assert_eq!(store.total_samples(), 90);
            for node in [1u32, 9, 21] {
                let r = store.range(node, "cpu.util", SimTime::ZERO, SimTime::MAX);
                assert_eq!(r.len(), 30);
                assert_eq!(r[0].value, node as f64);
            }
            // no flush: durability must come from the batched WAL write
        }
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.recovery().samples_replayed, 90);
        for node in [1u32, 9, 21] {
            let r = store.range(node, "cpu.util", SimTime::ZERO, SimTime::MAX);
            assert_eq!(r.len(), 30);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_append_crosses_flush_threshold() {
        let dir = tmp("batchflush");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        let batch: Vec<BatchSample<'_>> = (0..200u64)
            .map(|i| BatchSample {
                node: 0,
                monitor: "m",
                time: t(i),
                value: i as f64,
            })
            .collect();
        store.append_batch(&batch);
        let r = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 200, "flushed segment + memtable both visible");
        for (i, s) in r.iter().enumerate() {
            assert_eq!(s.value, i as f64);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_queries_hit_the_block_cache() {
        let dir = tmp("cache");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..200u64 {
            store.append(1, "m", t(i), i as f64);
        }
        store.flush_all().unwrap();
        let cold = store.range(1, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(cold.len(), 200);
        let s1 = store.cache_stats();
        assert!(s1.misses > 0, "cold query loads blocks");
        let warm = store.range(1, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(warm, cold);
        let s2 = store.cache_stats();
        assert_eq!(s2.misses, s1.misses, "warm query reads nothing from disk");
        assert!(s2.hits > s1.hits);
        store.clear_cache();
        store.range(1, "m", SimTime::ZERO, SimTime::MAX);
        assert!(
            store.cache_stats().misses > s2.misses,
            "cleared cache reloads"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_evicts_stale_cached_blocks() {
        let dir = tmp("cacheevict");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..200u64 {
            store.append(1, "m", t(i), i as f64);
        }
        store.flush_all().unwrap();
        store.range(1, "m", SimTime::ZERO, SimTime::MAX); // populate cache
        assert!(store.cache_stats().entries > 0);
        store.compact_all().unwrap();
        assert_eq!(
            store.cache_stats().entries,
            0,
            "blocks of deleted segments evicted"
        );
        // queries after compaction still see everything
        assert_eq!(store.range(1, "m", SimTime::ZERO, SimTime::MAX).len(), 200);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_drop_without_flush() {
        let dir = tmp("crash");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            for i in 0..50u64 {
                store.append(2, "load.one", t(i), i as f64);
            }
            // no flush: the 50 samples live only in the WAL
        }
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.recovery().samples_replayed, 50);
        let r = store.range(2, "load.one", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 50);
        assert_eq!(r[49].value, 49.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_segment_claiming_more_series_than_it_holds_is_quarantined() {
        let dir = tmp("huge-count");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            for i in 0..50u64 {
                store.append(2, "load.one", t(i), i as f64);
            }
            store.flush_all().unwrap();
        }
        // checksum-valid: resolution tag, u32::MAX series, an empty
        // name table
        let body = [Resolution::Raw.tag(), 0xff, 0xff, 0xff, 0xff, 0];
        let bogus = dir.join("shard-000").join("seg-00000009-r0.seg");
        std::fs::write(&bogus, sealed(b"CWXSEG5\n", &body)).unwrap();

        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.recovery().segments_quarantined, 1);
        assert!(bogus.with_extension("seg.corrupt").exists());
        let kept = store.range(2, "load.one", SimTime::ZERO, SimTime::MAX);
        assert_eq!(kept.len(), 50);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `body` behind `magic` and before its CRC: a checksum-valid file.
    fn sealed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
        [
            magic.as_slice(),
            body,
            &crate::codec::crc32(body).to_le_bytes(),
        ]
        .concat()
    }

    /// Every file under `dir`, and its bytes.
    fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                files.append(&mut snapshot(&path));
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.insert(path, bytes);
            }
        }
        files
    }

    #[test]
    fn a_retired_segment_refuses_the_open_and_changes_no_file() {
        let dir = tmp("retired");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            for i in 0..50u64 {
                store.append(2, "load.one", t(i), i as f64);
            }
            store.flush_all().unwrap();
            store.append(2, "load.one", t(50), 50.0);
        }
        // what an open repairs in the first shard: a torn WAL tail, a
        // temp file, a corrupt segment
        let shard = dir.join("shard-000");
        let mut wal = std::fs::read(shard.join("wal.log")).unwrap();
        wal.extend_from_slice(&[0xee; 5]);
        std::fs::write(shard.join("wal.log"), wal).unwrap();
        std::fs::write(shard.join("seg-00000007-r0.tmp"), b"partial").unwrap();
        std::fs::write(shard.join("seg-00000008-r0.seg"), b"CWXSEG5\ngarbage").unwrap();
        // an empty raw segment of each retired format, in the last shard
        let body = [Resolution::Raw.tag(), 0, 0, 0, 0];
        for (magic, format) in [(b"CWXSEG3\n", "CWXSEG3"), (b"CWXSEG2\n", "CWXSEG2")] {
            let retired = dir.join("shard-001").join("seg-00000009-r0.seg");
            std::fs::write(&retired, sealed(magic, &body)).unwrap();
            let before = snapshot(&dir);
            match DiskStore::open(&dir, small_cfg()) {
                Err(StoreError::RetiredSegment { path, format: f }) => {
                    assert_eq!((path, f), (retired.clone(), format))
                }
                other => panic!("{format}: {other:?}"),
            }
            assert_eq!(snapshot(&dir), before, "{format}: no file changed");
            assert!(before
                .keys()
                .all(|p| p.extension().is_none_or(|e| e != "corrupt")));
            std::fs::remove_file(retired).unwrap();
        }
        // without it the store opens and repairs as ever
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert_eq!(store.recovery().segments_quarantined, 1);
        assert_eq!(store.recovery().wal_truncated_bytes, 5);
        let kept = store.range(2, "load.one", SimTime::ZERO, SimTime::MAX);
        assert_eq!(kept.len(), 51);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn survives_flush_then_more_writes_then_drop() {
        let dir = tmp("mixed");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            for i in 0..200u64 {
                store.append(0, "m", t(i), i as f64); // crosses flush_threshold
            }
        }
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        let r = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 200, "segments + WAL replay cover everything");
        for (i, s) in r.iter().enumerate() {
            assert_eq!(s.value, i as f64);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn compaction_merges_and_builds_tiers() {
        let dir = tmp("compact");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..1000u64 {
            store.append(3, "temp.cpu", t(i), (i % 60) as f64);
        }
        store.compact_all().unwrap();
        let buckets = store.range_agg(
            3,
            "temp.cpu",
            SimTime::ZERO,
            SimTime::MAX,
            Resolution::TenSeconds,
        );
        assert_eq!(buckets.len(), 100);
        assert_eq!(buckets[0].count, 10);
        assert_eq!(buckets[0].min, 0.0);
        assert_eq!(buckets[0].max, 9.0);
        assert_eq!(buckets[0].last, 9.0);
        let five = store.range_agg(
            3,
            "temp.cpu",
            SimTime::ZERO,
            SimTime::MAX,
            Resolution::FiveMinutes,
        );
        assert_eq!(five.len(), 4);
        assert_eq!(five[0].count, 300);
        // raw survives compaction in full
        assert_eq!(
            store
                .range(3, "temp.cpu", SimTime::ZERO, SimTime::MAX)
                .len(),
            1000
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn range_agg_counts_only_the_samples_in_bounds() {
        let dir = tmp("edges");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..300u64 {
            store.append(3, "m", t(i), i as f64);
        }
        let counts = |store: &DiskStore| -> Vec<(u64, u64, f64)> {
            store
                .range_agg(3, "m", t(105), t(125), Resolution::TenSeconds)
                .iter()
                .map(|b| (b.start.as_nanos() / 1_000_000_000, b.count, b.last))
                .collect()
        };
        let want = [(100, 5, 109.0), (110, 10, 119.0), (120, 6, 125.0)];
        // one merged run (samples 0–191), a bare flush, the memtable
        assert_eq!(counts(&store), want, "as ingest left it");
        store.compact_all().unwrap();
        assert_eq!(counts(&store), want, "all merged");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tier_query_covers_uncompacted_suffix() {
        let dir = tmp("suffix");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..300u64 {
            store.append(3, "m", t(i), 1.0);
        }
        store.compact_all().unwrap();
        // fresh samples after compaction, still in memtable/raw only
        for i in 300..350u64 {
            store.append(3, "m", t(i), 2.0);
        }
        let buckets = store.range_agg(3, "m", SimTime::ZERO, SimTime::MAX, Resolution::TenSeconds);
        let total: u64 = buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, 350, "tiers + raw suffix with no double counting");
        assert_eq!(buckets.last().unwrap().last, 2.0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn hour_window_query_served_from_hour_tier() {
        use crate::{AggFunc, QueryGroup, QuerySpec};
        let dir = tmp("hourtier");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..7200u64 {
            store.append(1, "m", t(i), (i % 100) as f64);
        }
        store.compact_all().unwrap();
        store.clear_cache();
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(7199),
            window_nanos: 3_600 * 1_000_000_000,
            agg: AggFunc::Avg,
            groups: vec![QueryGroup {
                key: "all".into(),
                nodes: vec![1],
            }],
            max_scan: 0,
        };
        let r = store.query(&spec).unwrap();
        assert_eq!(r.stats.tier, Resolution::OneHour);
        assert_eq!(r.stats.fallback_shards, 0);
        let points = &r.groups[0].points;
        assert_eq!(points.len(), 2);
        assert_eq!(points.iter().map(|p| p.count).sum::<u64>(), 7200);
        assert!((points[0].value - 49.5).abs() < 1e-9);
        // the decoded-bytes proof: only 1h blocks were read from disk
        let cs = store.cache_stats();
        assert!(cs.tier(Resolution::OneHour).misses > 0);
        assert_eq!(cs.tier(Resolution::TenSeconds).misses, 0);
        assert_eq!(cs.tier(Resolution::FiveMinutes).misses, 0);
        assert_eq!(cs.tier(Resolution::Raw).misses, 0);
        assert_eq!(
            r.stats.scanned_raw, 0,
            "no raw suffix left after compaction"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn grouped_percentile_query_scans_raw_across_shards() {
        use crate::{AggFunc, QueryGroup, QuerySpec};
        let dir = tmp("groupp99");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        // nodes 0..8 span both shards (nodes_per_group=4, n_shards=2)
        for i in 0..100u64 {
            for node in 0..8u32 {
                store.append(node, "m", t(i), (node * 100 + i as u32) as f64);
            }
        }
        store.flush_all().unwrap();
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(99),
            window_nanos: 100 * 1_000_000_000,
            agg: AggFunc::P99,
            groups: vec![
                QueryGroup {
                    key: "low".into(),
                    nodes: (0..4).collect(),
                },
                QueryGroup {
                    key: "all".into(),
                    nodes: (0..8).collect(),
                },
            ],
            max_scan: 0,
        };
        let r = store.query(&spec).unwrap();
        assert_eq!(r.stats.tier, Resolution::Raw);
        assert_eq!(r.groups[0].points[0].count, 400);
        assert_eq!(r.groups[1].points[0].count, 800);
        // values are exactly 0..=799; nearest-rank p99 = index 791
        assert_eq!(r.groups[1].points[0].value, 791.0);
        assert_eq!(r.stats.scanned_raw, 400 + 800);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tier_query_merges_uncompacted_suffix() {
        use crate::{AggFunc, QueryGroup, QuerySpec};
        let dir = tmp("querysuffix");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        for i in 0..300u64 {
            store.append(3, "m", t(i), 1.0);
        }
        store.compact_all().unwrap();
        for i in 300..350u64 {
            store.append(3, "m", t(i), 2.0);
        }
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(349),
            window_nanos: 10 * 1_000_000_000,
            agg: AggFunc::Count,
            groups: vec![QueryGroup {
                key: "n3".into(),
                nodes: vec![3],
            }],
            max_scan: 0,
        };
        let r = store.query(&spec).unwrap();
        assert_eq!(r.stats.tier, Resolution::TenSeconds);
        let total: u64 = r.groups[0].points.iter().map(|p| p.count).sum();
        assert_eq!(total, 350, "tier buckets + raw suffix, no double counting");
        assert!(r.stats.scanned_raw >= 50);
        let _ = std::fs::remove_dir_all(dir);
    }

    fn raw_files(dir: &Path) -> Vec<PathBuf> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.to_string_lossy().ends_with("-r0.seg"))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn segment_names_round_trip_and_old_names_parse() {
        for (lo, hi) in [(7, 7), (3, 12), (1, 123_456_789)] {
            for res in [Resolution::Raw, Resolution::OneHour] {
                let name = segment_name(lo, hi, res);
                assert_eq!(parse_segment_name(&name), Some((lo, hi, res)), "{name}");
            }
        }
        assert_eq!(segment_name(7, 7, Resolution::Raw), "seg-00000007-r0.seg");
        for bad in ["seg-9-2-r0.seg", "seg-1-r9.seg", "seg--r0.seg", "wal.log"] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn a_sample_is_rewritten_logarithmically_often() {
        let dir = tmp("writeamp");
        let cfg = StoreConfig {
            n_shards: 1,
            compact_threshold: 4,
            ..small_cfg()
        };
        let store = DiskStore::open(&dir, cfg.clone()).unwrap();
        let appended = 256 * cfg.flush_threshold as u64;
        for i in 0..appended {
            store.append(0, "m", t(i), i as f64);
        }
        let stats = store.write_stats();
        assert_eq!(stats.flushes, 256);
        // log4(256) + 1; merging the whole shard every fourth flush
        // rewrote each sample ~43 times here, and more the older it got
        let amplification = stats.samples_rewritten as f64 / appended as f64;
        assert!(amplification <= 5.0, "{stats:?}: {amplification}");
        let left = raw_files(&dir.join("shard-000")).len();
        assert!(
            left <= 2 * cfg.compact_threshold,
            "{left} raw segments left"
        );
        let all = store.range(0, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(all.len() as u64, appended);
        assert!(all.iter().enumerate().all(|(i, s)| s.value == i as f64));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wide_fleets_flush_at_the_per_series_average_or_the_cap() {
        let floor = small_cfg().flush_threshold;
        // (series, samples a flush must hold): 8 per series, capped
        for (series, want) in [
            (200u32, 200 * FLUSH_SAMPLES_PER_SERIES),
            (400, floor * FLUSH_CAP_FACTOR),
        ] {
            let dir = tmp(&format!("wide{series}"));
            let cfg = StoreConfig {
                n_shards: 1,
                nodes_per_group: series,
                compact_threshold: 1000, // keep every flush output
                ..small_cfg()
            };
            let store = DiskStore::open(&dir, cfg).unwrap();
            assert!(series as usize > floor, "more live series than the floor");
            for step in 0..30u64 {
                let batch: Vec<BatchSample<'_>> = (0..series)
                    .map(|node| BatchSample {
                        node,
                        monitor: "m",
                        time: t(step),
                        value: step as f64,
                    })
                    .collect();
                store.append_batch(&batch);
            }
            let files = raw_files(&dir.join("shard-000"));
            assert_eq!(
                files.len(),
                30 * series as usize / want.next_multiple_of(series as usize)
            );
            for path in files {
                let index = SegmentIndex::read_from(&path).unwrap();
                let samples: usize = index.entries.iter().map(|e| e.count as usize).sum();
                assert_eq!(index.entries.len(), series as usize);
                // a batch lands whole, so a flush overshoots by < one
                assert!(
                    (want..want + series as usize).contains(&samples),
                    "{samples}"
                );
            }
            for node in [0, series - 1] {
                assert_eq!(
                    store.range(node, "m", SimTime::ZERO, SimTime::MAX).len(),
                    30
                );
            }
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn merged_runs_carry_companions_and_fresh_flushes_do_not() {
        use crate::{AggFunc, QueryGroup, QuerySpec};
        let dir = tmp("companions");
        let cfg = StoreConfig {
            n_shards: 1,
            ..small_cfg()
        };
        let store = DiskStore::open(&dir, cfg).unwrap();
        // 3 flushes merge into seg 1-3; the 4th stays a bare flush;
        // 10 more samples stay in the memtable
        for i in 0..(4 * 64 + 10) {
            store.append(0, "m", t(i), 1.0);
        }
        let mut names: Vec<String> = std::fs::read_dir(dir.join("shard-000"))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".seg"))
            .collect();
        names.sort();
        assert_eq!(
            names,
            [
                "seg-00000001-00000003-r0.seg",
                "seg-00000001-00000003-r1.seg",
                "seg-00000001-00000003-r2.seg",
                "seg-00000001-00000003-r3.seg",
                "seg-00000004-r0.seg",
            ]
        );
        let spec = QuerySpec {
            monitor: "m".into(),
            from: t(0),
            to: t(265),
            window_nanos: 10 * 1_000_000_000,
            agg: AggFunc::Count,
            groups: vec![QueryGroup {
                key: "n0".into(),
                nodes: vec![0],
            }],
            max_scan: 0,
        };
        let r = store.query(&spec).unwrap();
        assert_eq!(r.stats.tier, Resolution::TenSeconds);
        // 192 merged samples arrive as buckets (t 0..=191 → 20 of them),
        // the flush's 64 and the memtable's 10 as raw samples
        assert_eq!((r.stats.scanned_buckets, r.stats.scanned_raw), (20, 74));
        assert_eq!(r.groups[0].points.iter().map(|p| p.count).sum::<u64>(), 266);
        assert!(r.groups[0].points.iter().all(|p| p.count <= 10));
        // a window on one side of the merge reads that side only
        for (from, to, buckets, raw) in [(0, 99, 10, 0), (200, 265, 0, 66)] {
            let r = store
                .query(&QuerySpec {
                    from: t(from),
                    to: t(to),
                    ..spec.clone()
                })
                .unwrap();
            assert_eq!(
                (r.stats.scanned_buckets, r.stats.scanned_raw),
                (buckets, raw)
            );
            let counted: u64 = r.groups[0].points.iter().map(|p| p.count).sum();
            assert_eq!(counted, to - from + 1);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn forget_node_is_durable() {
        let dir = tmp("forget");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            for i in 0..100u64 {
                store.append(1, "m", t(i), 1.0);
                store.append(2, "m", t(i), 2.0);
            }
            store.forget_node(1);
            assert!(store.range(1, "m", SimTime::ZERO, SimTime::MAX).is_empty());
            assert_eq!(store.range(2, "m", SimTime::ZERO, SimTime::MAX).len(), 100);
        }
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert!(store.range(1, "m", SimTime::ZERO, SimTime::MAX).is_empty());
        assert_eq!(store.range(2, "m", SimTime::ZERO, SimTime::MAX).len(), 100);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sharding_config_persists_across_reopen() {
        let dir = tmp("cfg");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            store.append(0, "m", t(1), 1.0);
            store.flush_all().unwrap();
        }
        // reopen with a different shard count: disk config wins
        let store = DiskStore::open(
            &dir,
            StoreConfig {
                n_shards: 7,
                nodes_per_group: 3,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        assert_eq!(store.config().n_shards, 2);
        assert_eq!(store.config().nodes_per_group, 4);
        assert_eq!(store.range(0, "m", SimTime::ZERO, SimTime::MAX).len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_garbled_config_refuses_the_open() {
        let dir = tmp("cfg-garbled");
        let cfg = StoreConfig {
            n_shards: 2,
            nodes_per_group: 5,
            ..StoreConfig::default()
        };
        {
            let store = DiskStore::open(&dir, cfg.clone()).unwrap();
            store.append(7, "m", t(1), 1.0);
            store.flush_all().unwrap();
        }
        assert!(!dir.join("CONFIG.tmp").exists(), "temp file renamed away");
        let config = dir.join("CONFIG");
        for text in [
            "n_shards=2\nnodes_per_group=five\n",
            "n_shards=2\n",
            "n_shards=2\nnodes_per_group=0\n",
            "n_shar",
        ] {
            std::fs::write(&config, text).unwrap();
            let err = DiskStore::open(&dir, StoreConfig::default()).unwrap_err();
            let StoreError::Io(io) = &err else {
                panic!("{text:?}: {err}")
            };
            assert_eq!(io.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            assert!(err.to_string().contains("CONFIG"), "{err}");
        }
        // the file is left as found; mended, the history is all there
        std::fs::write(&config, "n_shards=2\nnodes_per_group=5\n").unwrap();
        let store = DiskStore::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(store.config().nodes_per_group, 5);
        assert_eq!(store.range(7, "m", SimTime::ZERO, SimTime::MAX).len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_flushes_and_forgets_degrade_the_store() {
        let dir = tmp("flush-fails");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        store.append(0, "m", t(1), 1.0);
        store.inject_kill_after(0);
        Store::flush(&store);
        assert_eq!(store.write_stats().flushes, 0);
        assert!(store.degraded());
        assert!(store.last_error().unwrap().contains("injected kill"));
        drop(store);

        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        store.append(1, "m", t(1), 1.0);
        store.flush_all().unwrap();
        store.inject_kill_after(0);
        store.forget_node(1);
        assert!(store.degraded());
        assert!(store.last_error().unwrap().contains("injected kill"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_shard_writes() {
        let dir = tmp("concurrent");
        let store = std::sync::Arc::new(DiskStore::open(&dir, small_cfg()).unwrap());
        let writers: Vec<_> = (0..8u32)
            .map(|node| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        store.append(node, "load.one", t(i), node as f64);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(store.total_samples(), 8 * 500);
        for node in 0..8 {
            assert_eq!(
                store
                    .range(node, "load.one", SimTime::ZERO, SimTime::MAX)
                    .len(),
                500
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_writer_degrades_to_volatile_ingest() {
        let dir = tmp("degrade");
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        store.append(0, "cpu.util", t(0), 1.0);
        assert!(!store.degraded());

        // the disk dies mid-campaign
        store.inject_write_failure();
        store.append(0, "cpu.util", t(1), 2.0);
        assert!(store.degraded(), "a failed WAL write must degrade");
        assert!(store.last_error().unwrap().contains("injected"));

        // ingest keeps running: new samples (single and batched, new
        // series included) stay readable from the memtable
        store.append(0, "cpu.util", t(2), 3.0);
        store.append_batch(&[
            BatchSample {
                node: 1,
                monitor: "load.one",
                time: t(2),
                value: 0.5,
            },
            BatchSample {
                node: 0,
                monitor: "cpu.util",
                time: t(3),
                value: 4.0,
            },
        ]);
        assert_eq!(store.latest(0, "cpu.util").unwrap().value, 4.0);
        assert_eq!(store.latest(1, "load.one").unwrap().value, 0.5);
        assert_eq!(store.range(0, "cpu.util", t(0), t(3)).len(), 4);
        assert_eq!(store.volatile_samples(), 4);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn degraded_samples_do_not_survive_a_restart() {
        let dir = tmp("degrade-restart");
        {
            let store = DiskStore::open(&dir, small_cfg()).unwrap();
            store.append(3, "m", t(0), 1.0);
            store.inject_write_failure();
            store.append(3, "m", t(1), 2.0); // volatile only
        }
        let store = DiskStore::open(&dir, small_cfg()).unwrap();
        assert!(!store.degraded(), "a reopen starts clean");
        let r = store.range(3, "m", SimTime::ZERO, SimTime::MAX);
        assert_eq!(r.len(), 1, "only the durable sample came back");
        assert_eq!(r[0].value, 1.0);
        let _ = std::fs::remove_dir_all(dir);
    }
}
