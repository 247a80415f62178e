//! Immutable on-disk segment files.
//!
//! A segment holds the samples (or downsampled buckets) of many series
//! at one resolution. Layout, little-endian, varints LEB128:
//!
//! ```text
//! 8B  magic "CWXSEG6\n"
//! u8  resolution tag (0 raw, 1 ten-second, 2 five-minute, 3 one-hour)
//! varint series count n
//! name table: varint name count, then per name (sorted, no repeats)
//!   varint len | name bytes
//! varint node count g: the series, sorted by (node, monitor) without
//!   repeats, fall into g runs of one node each
//! header columns, each a run list:
//!   nodes  (g)  node − previous node − 1 (the first node from 0)
//!   sizes  (g)  series of the node
//!   names  (n)  name index − previous series' name index − 1; a
//!               node's first series its name index
//!   counts (n)  zigzag(field − reference's), field = count << 1 | even
//!   mins   (n)  zigzag(min_time − reference's min_time)
//!   spans  (n)  zigzag(span − reference's span), span = max − min_time
//! payload lengths: n varints
//! pages, in series order, each:
//!   u32 crc32 over the page's payloads | the payloads
//! u32 crc32 over everything after the magic
//!
//! run list of k values: runs of one value, each varint run length
//!   (at least 1) | varint value, the lengths adding up to k
//! reference of a series: the series at the same place in the node
//!   before, else (that node has fewer series, or this is the first
//!   node) the series before it; all zeros for the file's first series
//!
//! payload:
//!   raw:  stamps, then one value column
//!   tier: bucket-start stamps, a run list of the bucket counts, then
//!         the min / sum / max / last value columns
//! stamps:
//!   even = 1  none: entry i is at min_time + i × stride, stride =
//!             (max_time − min_time) / (count − 1), 0 for one entry
//!   even = 0  delta-of-delta stamps, each less min_time
//! value column (codec::put_values):
//!   u8 tag 0       XOR chain: varint(prev_bits ^ bits) per value
//!   u8 tag 1 + e   decimal: varint(zigzag(m - prev_m)) per value,
//!                  each value m / 10^e, e in 0..=6
//! ```
//!
//! The headers are columns so that a field repeating from series to
//! series costs nothing: one run holds it. A flush takes a node's
//! series from the frames that carried all of them, so within a node
//! they share count, time bounds and, where every node reports the same
//! monitors, their place in the name table; from node to node they
//! differ by the same step in every series. Measured against the same
//! place in the node before, each column is then a run or two a node,
//! and the names and sizes one run for the file. The payload lengths
//! stay one varint each: they differ with the values.
//!
//! The writer sets `even` on every series with one entry and on every
//! series whose stamps are exactly evenly spaced, so a monitor sampled
//! on a fixed tick pays nothing for its stamps; any other series keeps
//! the delta-of-delta column (one byte a stamp at best). A tier bucket
//! stores its values' sum, not their mean: the sum of decimal readings
//! is an exact decimal ([`crate::codec::decimal_sum`]), so its column
//! is scaled-integer deltas. Its count column is a run list, so a
//! block whose buckets all fold the same number of samples stores that
//! number once.
//!
//! Pages: a page closes before a series that would take it past 512 B
//! (`PAGE_BYTES`, a constant), so a longer series is a page of its own.
//! One CRC guards a page, not each series. Walking the headers once gives a
//! [`SegmentIndex`] whose entries each locate their payload and the
//! page around it; a reader then fetches any single series with one
//! positioned read of that page on an already-open file
//! ([`read_series_at`]), verifies the page and decodes the one payload.
//! The index holds nothing per page. The trailing file CRC still guards
//! the full-file read paths (recovery, compaction).
//!
//! A release reads its own format and the one before it. `CWXSEG5`
//! files ([`Format::V5`]) interleave a header per series with its
//! payload: node delta and name index, `count << 1 | even`, payload
//! length, the payload's own CRC32 and the time bounds as deltas from
//! the series before; their tier counts are one varint a bucket. A
//! merge rewrites its inputs as v6, so a v5 store converts as it
//! compacts. A file of an older format (`CWXSEG4`, `CWXSEG3`,
//! `CWXSEG2`) is refused with [`StoreError::RetiredSegment`], never set
//! aside as corrupt: such a store is converted by compacting it under a
//! release that still reads it.
//!
//! Segments are written to a temp file and atomically renamed into
//! place, so a crash mid-flush leaves no partial segment behind. The
//! reader verifies magic and CRC before parsing anything, and a
//! checksum-valid file whose headers do not add up (a count the body
//! cannot hold, run lengths that overrun their column, node sizes that
//! miss the series count, a name index past the table, an evenly
//! spaced series whose span its count does not divide) is a
//! [`StoreError::CorruptSegment`], never a panic or a huge allocation.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use cwx_util::time::SimTime;

use crate::codec::{
    crc32, for_each_timestamp, for_each_value, get_uvarint, put_timestamps, put_uvarint,
    put_values, unzigzag, zigzag, CodecError,
};
use crate::{AggBucket, Resolution, Sample, StoreError};

const MAGIC: &[u8; 8] = b"CWXSEG6\n";
const MAGIC_V5: &[u8; 8] = b"CWXSEG5\n";
/// Magics of formats no longer read: a file opening with one is
/// refused.
const RETIRED: [&str; 3] = ["CWXSEG4\n", "CWXSEG3\n", "CWXSEG2\n"];
/// Fewest bytes a v5 series header takes: one-byte name index, node
/// delta, count and payload_len, the CRC, one-byte time bounds.
const V5_HEADER_MIN: usize = 1 + 1 + 1 + 1 + 4 + 1 + 1;
/// The payload bytes a page of several series holds at most: what a
/// positioned read fetches and checks beside the one series it wants.
const PAGE_BYTES: usize = 512;
/// Bytes of a page's CRC.
const PAGE_CRC: usize = 4;

/// The layout a segment file's magic names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `CWXSEG5`: a header and CRC per series, ahead of its payload.
    /// Read, never written.
    V5,
    /// `CWXSEG6`: header columns, payloads in pages with a CRC each, and
    /// run-length tier counts.
    V6,
}

impl Format {
    /// The format of the file at `origin`, which starts with `data`. A
    /// retired magic is a [`StoreError::RetiredSegment`], any other one
    /// not read here a corrupt segment.
    fn of(data: &[u8], origin: &Path) -> Result<Format, StoreError> {
        let path = || origin.to_path_buf();
        match data.get(..MAGIC.len()).unwrap_or(data) {
            m if m == MAGIC => Ok(Format::V6),
            m if m == MAGIC_V5 => Ok(Format::V5),
            m => Err(match RETIRED.iter().find(|r| r.as_bytes() == m) {
                Some(r) => StoreError::RetiredSegment {
                    path: path(),
                    format: r.trim_end(),
                },
                None => StoreError::CorruptSegment {
                    path: path(),
                    reason: "bad magic",
                },
            }),
        }
    }
}

/// One series' payload inside a segment.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesData {
    /// Raw samples, time-ordered.
    Raw(Vec<Sample>),
    /// Downsampled buckets, time-ordered.
    Buckets(Vec<AggBucket>),
}

impl SeriesData {
    /// Entry count.
    pub fn len(&self) -> usize {
        match self {
            SeriesData::Raw(v) => v.len(),
            SeriesData::Buckets(v) => v.len(),
        }
    }

    /// True when no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Smallest timestamp (bucket start for tiers).
    pub fn min_time(&self) -> Option<SimTime> {
        match self {
            SeriesData::Raw(v) => v.first().map(|s| s.time),
            SeriesData::Buckets(v) => v.first().map(|b| b.start),
        }
    }

    /// Largest timestamp (bucket start for tiers).
    pub fn max_time(&self) -> Option<SimTime> {
        match self {
            SeriesData::Raw(v) => v.last().map(|s| s.time),
            SeriesData::Buckets(v) => v.last().map(|b| b.start),
        }
    }
}

/// Where one series lives inside a segment file.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesIndexEntry {
    /// Node index.
    pub node: u32,
    /// Monitor name, shared with every entry of the segment that names
    /// the same monitor.
    pub monitor: Arc<str>,
    /// Entries in the payload (samples or buckets).
    pub count: u32,
    /// `Some(stride)` when the entries are evenly spaced, entry `i` at
    /// `min_time + i × stride`, and the payload holds no stamps.
    pub stride: Option<u64>,
    /// Smallest timestamp in the payload (0 when empty).
    pub min_time: SimTime,
    /// Largest timestamp in the payload (0 when empty).
    pub max_time: SimTime,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Bytes just before the payload that its positioned read fetches
    /// too, the CRC guarding it first: its page's CRC and the page's
    /// earlier payloads (v6), or the series' own CRC and time bounds
    /// (v5).
    pub lead: u16,
    /// Bytes of its page after the payload (0 in v5).
    pub trail: u16,
}

impl SeriesIndexEntry {
    /// The fields the next node's series at the same place is written
    /// against: `count << 1 | even`, `min_time` and span.
    fn basis(&self) -> (u64, u64, u64) {
        let (min, max) = (self.min_time.as_nanos(), self.max_time.as_nanos());
        (
            u64::from(self.count) << 1 | u64::from(self.stride.is_some()),
            min,
            max.wrapping_sub(min),
        )
    }
}

/// The entry a series' header columns are deltas from: the `k`th series
/// of a node starting at entry `start`, after a node whose series are
/// `prev` (its first entry, its size).
fn reference(start: usize, k: usize, prev: Option<(usize, usize)>) -> Option<usize> {
    match prev {
        Some((at, size)) if k < size => Some(at + k),
        _ => (k > 0).then(|| start + k - 1),
    }
}

/// The header walk of a segment file: everything needed to locate and
/// prune series without decoding any payload.
///
/// Entries are in file order, which is sorted by `(node, monitor)` —
/// the flush and compaction paths both sort before writing — so lookups
/// can binary-search.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentIndex {
    /// Payload layout, from the file's magic.
    pub format: Format,
    /// Tier.
    pub resolution: Resolution,
    /// Per-series locations, sorted by `(node, monitor)`.
    pub entries: Vec<SeriesIndexEntry>,
}

impl SegmentIndex {
    /// Read the file at `path`, verify its checksum and build the index
    /// without decoding any series payload.
    pub fn read_from(path: &Path) -> Result<SegmentIndex, StoreError> {
        walk(&std::fs::read(path)?, path)
    }
}

/// A read cursor over a segment body; running past its end, or a field
/// that does not fit its type, is a corrupt segment at `origin`.
struct Body<'a> {
    bytes: &'a [u8],
    pos: usize,
    origin: &'a Path,
}

impl<'a> Body<'a> {
    fn corrupt(&self, reason: &'static str) -> StoreError {
        StoreError::CorruptSegment {
            path: self.origin.to_path_buf(),
            reason,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The file offset of the cursor.
    fn offset(&self) -> u64 {
        (MAGIC.len() + self.pos) as u64
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(self.corrupt("truncated body"));
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn varint(&mut self) -> Result<u64, StoreError> {
        get_uvarint(self.bytes, &mut self.pos).map_err(|_| self.corrupt("truncated body"))
    }

    fn varint_u32(&mut self) -> Result<u32, StoreError> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| self.corrupt("header field overflows u32"))
    }

    /// A varint count, length or index; one past `usize` is past any
    /// body, and fails the caller's bounds check.
    fn varint_usize(&mut self) -> Result<usize, StoreError> {
        Ok(usize::try_from(self.varint()?).unwrap_or(usize::MAX))
    }

    /// An empty vector with room for `n` items of at least `min_bytes`
    /// each, or corrupt when what is left of the body cannot hold them:
    /// a damaged count never sizes an allocation.
    fn room_for<T>(&self, n: usize, min_bytes: usize) -> Result<Vec<T>, StoreError> {
        if n > self.remaining() / min_bytes {
            return Err(self.corrupt("count exceeds the body"));
        }
        Ok(Vec::with_capacity(n))
    }

    /// The run list of `len` values at the cursor, which moves past it.
    fn runs(&mut self, len: usize) -> Result<Runs<'a>, StoreError> {
        Runs::take(self.bytes, &mut self.pos, len).map_err(|reason| self.corrupt(reason))
    }
}

/// A run list (see the module doc) whose runs were all checked, read
/// one value at a time.
struct Runs<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: u64,
    value: u64,
}

impl<'a> Runs<'a> {
    /// The run list of `len` values at `bytes[*pos..]`, every run read
    /// and checked, `pos` moved past it: allocates nothing, whatever
    /// its lengths claim.
    fn take(bytes: &'a [u8], pos: &mut usize, len: usize) -> Result<Runs<'a>, &'static str> {
        let start = *pos;
        let mut left = len as u64;
        while left > 0 {
            let run = get_uvarint(bytes, pos).map_err(|_| "truncated body")?;
            if run == 0 || run > left {
                return Err("runs do not add up to their column");
            }
            get_uvarint(bytes, pos).map_err(|_| "truncated body")?;
            left -= run;
        }
        Ok(Runs {
            bytes: &bytes[start..*pos],
            pos: 0,
            left: 0,
            value: 0,
        })
    }

    /// The next value; called at most the `len` times [`Runs::take`]
    /// checked.
    fn next(&mut self) -> u64 {
        if self.left == 0 {
            let mut run = || get_uvarint(self.bytes, &mut self.pos).expect("a checked run");
            (self.left, self.value) = (run(), run());
        }
        self.left -= 1;
        self.value
    }
}

/// Append `values` as a run list.
fn put_runs(out: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    let mut run: Option<(u64, u64)> = None;
    for v in values {
        run = match run {
            Some((len, value)) if value == v => Some((len + 1, value)),
            Some((len, value)) => {
                put_uvarint(out, len);
                put_uvarint(out, value);
                Some((1, v))
            }
            None => Some((1, v)),
        };
    }
    if let Some((len, value)) = run {
        put_uvarint(out, len);
        put_uvarint(out, value);
    }
}

/// Walk a whole segment file's bytes into its index: magic and file
/// CRC checked, the name table and every series header parsed, no
/// payload decoded. The one place the header layout is read. Every
/// entry naming a monitor shares its table entry: indexing allocates
/// per name, not per series.
fn walk(data: &[u8], origin: &Path) -> Result<SegmentIndex, StoreError> {
    let format = Format::of(data, origin)?;
    let mut body = Body {
        bytes: &[],
        pos: 0,
        origin,
    };
    if data.len() < MAGIC.len() + 4 {
        return Err(body.corrupt("bad magic"));
    }
    let (bytes, crc) = data[MAGIC.len()..].split_at(data.len() - MAGIC.len() - 4);
    if crc32(bytes) != u32::from_le_bytes(crc.try_into().expect("split four bytes from the end")) {
        return Err(body.corrupt("checksum mismatch"));
    }
    body.bytes = bytes;
    let resolution =
        Resolution::from_tag(body.take(1)?[0]).ok_or_else(|| body.corrupt("bad resolution tag"))?;
    let n_series = match format {
        Format::V6 => body.varint_usize()?,
        Format::V5 => body.u32()? as usize,
    };
    let n_names = body.varint_usize()?;
    let mut names: Vec<Arc<str>> = body.room_for(n_names, 1)?;
    for _ in 0..n_names {
        let len = body.varint_usize()?;
        let name: Arc<str> = std::str::from_utf8(body.take(len)?)
            .map_err(|_| body.corrupt("monitor name not utf-8"))?
            .into();
        if names.last().is_some_and(|prev| *prev >= name) {
            return Err(body.corrupt("name table not sorted"));
        }
        names.push(name);
    }
    let entries = match format {
        Format::V6 => walk_columns(&mut body, &names, n_series)?,
        Format::V5 => walk_v5(&mut body, &names, n_series)?,
    };
    if body.remaining() != 0 {
        return Err(body.corrupt("trailing bytes after last series"));
    }
    Ok(SegmentIndex {
        format,
        resolution,
        entries,
    })
}

/// The entry of a series header's fields, `field` its count as stored
/// (`count << 1 | even`); its place in the file is left for the caller.
fn header_entry(
    body: &Body<'_>,
    node: u32,
    monitor: &Arc<str>,
    field: u64,
    min_time: u64,
    span: u64,
) -> Result<SeriesIndexEntry, StoreError> {
    let count =
        u32::try_from(field >> 1).map_err(|_| body.corrupt("header field overflows u32"))?;
    let stride = match (field & 1 == 1, count) {
        (false, _) => None,
        (true, 0) => return Err(body.corrupt("stamp flag on an empty series")),
        (true, _) => Some(
            stride(count, span)
                .ok_or_else(|| body.corrupt("evenly spaced span not a multiple of count − 1"))?,
        ),
    };
    Ok(SeriesIndexEntry {
        node,
        monitor: Arc::clone(monitor),
        count,
        stride,
        min_time: SimTime::from_nanos(min_time),
        max_time: SimTime::from_nanos(min_time.wrapping_add(span)),
        offset: 0,
        len: 0,
        lead: 0,
        trail: 0,
    })
}

/// The v6 header columns and the pages they locate. Nodes only rise and
/// names only rise within a node, so the columns cannot put series out
/// of order.
fn walk_columns(
    body: &mut Body<'_>,
    names: &[Arc<str>],
    n_series: usize,
) -> Result<Vec<SeriesIndexEntry>, StoreError> {
    // a series costs at least its payload length's byte
    let mut entries: Vec<SeriesIndexEntry> = body.room_for(n_series, 1)?;
    let n_nodes = body.varint_usize()?;
    if n_nodes > n_series || (n_nodes == 0) != (n_series == 0) {
        return Err(body.corrupt("node count does not fit the series count"));
    }
    let mut nodes = body.runs(n_nodes)?;
    let mut sizes = body.runs(n_nodes)?;
    let mut name_skips = body.runs(n_series)?;
    let mut fields = body.runs(n_series)?;
    let mut mins = body.runs(n_series)?;
    let mut spans = body.runs(n_series)?;
    let mut lens = Body {
        bytes: body.bytes,
        pos: body.pos,
        origin: body.origin,
    };
    for _ in 0..n_series {
        body.varint()?;
    }
    // the open page: its first entry, the file offset of its CRC, and
    // the payload bytes it holds
    let mut page: Option<(usize, u64, usize)> = None;
    // the least node id the next node may have
    let mut lowest = 0u64;
    let mut prev: Option<(usize, usize)> = None;
    for _ in 0..n_nodes {
        let node = nodes
            .next()
            .checked_add(lowest)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| body.corrupt("node delta overflows"))?;
        lowest = u64::from(node) + 1;
        let start = entries.len();
        let size = usize::try_from(sizes.next()).unwrap_or(usize::MAX);
        if size == 0 || size > n_series - start {
            return Err(body.corrupt("node sizes do not add up to the series count"));
        }
        // the least name index the node's next series may have
        let mut lowest_name = 0usize;
        for k in 0..size {
            let index = usize::try_from(name_skips.next())
                .ok()
                .and_then(|skip| skip.checked_add(lowest_name))
                .filter(|&i| i < names.len())
                .ok_or_else(|| body.corrupt("name index past the name table"))?;
            lowest_name = index + 1;
            let (field, min, span) =
                reference(start, k, prev).map_or((0, 0, 0), |r| entries[r].basis());
            let delta = |v: u64| unzigzag(v) as u64;
            let mut e = header_entry(
                body,
                node,
                &names[index],
                field.wrapping_add(delta(fields.next())),
                min.wrapping_add(delta(mins.next())),
                span.wrapping_add(delta(spans.next())),
            )?;
            e.len = lens.varint_u32()?;
            let len = e.len as usize;
            if page.is_none_or(|(_, _, bytes)| bytes + len > PAGE_BYTES) {
                if let Some((first, _, _)) = page {
                    close_page(&mut entries[first..], body.offset());
                }
                page = Some((entries.len(), body.offset(), 0));
                body.take(PAGE_CRC)?;
            }
            let (_, at, bytes) = page.as_mut().expect("a page is open");
            e.offset = body.offset();
            e.lead = u16::try_from(e.offset - *at).expect("a page of several series is short");
            body.take(len)?;
            *bytes += len;
            entries.push(e);
        }
        prev = Some((start, size));
    }
    if entries.len() != n_series {
        return Err(body.corrupt("node sizes do not add up to the series count"));
    }
    if let Some((first, _, _)) = page {
        close_page(&mut entries[first..], body.offset());
    }
    Ok(entries)
}

/// Record, in the entries of a page that ends at file offset `end`, how
/// much of the page follows each payload.
fn close_page(page: &mut [SeriesIndexEntry], end: u64) {
    for e in page {
        e.trail = u16::try_from(end - e.offset - u64::from(e.len))
            .expect("a page of several series is short");
    }
}

/// The v5 headers, each ahead of its payload.
fn walk_v5(
    body: &mut Body<'_>,
    names: &[Arc<str>],
    n_series: usize,
) -> Result<Vec<SeriesIndexEntry>, StoreError> {
    let mut entries = body.room_for(n_series, V5_HEADER_MIN)?;
    let mut prev: Option<(u32, usize)> = None;
    let (mut node, mut min_time) = (0u32, 0u64);
    for _ in 0..n_series {
        let name = body.varint_usize()?;
        let monitor = names
            .get(name)
            .ok_or_else(|| body.corrupt("name index past the name table"))?;
        node = u64::from(node)
            .checked_add(body.varint()?)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| body.corrupt("node delta overflows"))?;
        // the name table is sorted, so index order is name order
        if prev.is_some_and(|p| p >= (node, name)) {
            return Err(body.corrupt("series out of order"));
        }
        prev = Some((node, name));
        let field = body.varint()?;
        let len = body.varint_u32()?;
        let crc_at = body.offset();
        body.u32()?;
        min_time = min_time.wrapping_add(unzigzag(body.varint()?) as u64);
        let span = body.varint()?;
        let mut e = header_entry(body, node, monitor, field, min_time, span)?;
        e.offset = body.offset();
        e.len = len;
        e.lead = u16::try_from(e.offset - crc_at).expect("a CRC and two varints");
        body.take(len as usize)?;
        entries.push(e);
    }
    Ok(entries)
}

/// The stride `count` evenly spaced entries over `span` nanoseconds
/// take, if there is one: `span` must be a multiple of `count − 1` (a
/// single entry has none but a zero span), and there is no stride
/// without an entry.
fn stride(count: u32, span: u64) -> Option<u64> {
    match count {
        0 => None,
        1 => (span == 0).then_some(0),
        n => span
            .is_multiple_of(u64::from(n - 1))
            .then(|| span / u64::from(n - 1)),
    }
}

/// Fetch and decode one series' payload: [`read_series_at`] on a file
/// opened for this one read, its format read from the magic.
pub fn read_series(
    path: &Path,
    resolution: Resolution,
    entry: &SeriesIndexEntry,
) -> Result<SeriesData, StoreError> {
    let file = File::open(path)?;
    let mut magic = [0u8; MAGIC.len()];
    file.read_exact_at(&mut magic, 0)?;
    read_series_at(&file, path, Format::of(&magic, path)?, resolution, entry)
}

/// Fetch and decode one series' payload with a single positioned read
/// on `file` (the segment at `origin`, which the error names): the read
/// takes the series' page (v6) or its header's CRC (v5) too, and the
/// CRC is verified before anything is decoded.
///
/// `format` and `entry` must come from a [`SegmentIndex`] built over
/// the same file, so a file swapped or damaged since indexing is
/// detected, not mis-decoded.
pub fn read_series_at(
    file: &File,
    origin: &Path,
    format: Format,
    resolution: Resolution,
    entry: &SeriesIndexEntry,
) -> Result<SeriesData, StoreError> {
    let corrupt = |reason| StoreError::CorruptSegment {
        path: origin.to_path_buf(),
        reason,
    };
    let (lead, len) = (usize::from(entry.lead), entry.len as usize);
    let at = entry
        .offset
        .checked_sub(u64::from(entry.lead))
        .filter(|_| lead >= PAGE_CRC)
        .ok_or_else(|| corrupt("index entry has no checksum"))?;
    let mut span = vec![0u8; lead + len + usize::from(entry.trail)];
    file.read_exact_at(&mut span, at)?;
    let (crc, page) = span.split_at(PAGE_CRC);
    let payload = &span[lead..lead + len];
    let guarded = match format {
        Format::V6 => page,
        Format::V5 => payload,
    };
    if crc32(guarded) != u32::from_le_bytes(crc.try_into().expect("four bytes")) {
        return Err(corrupt("page checksum mismatch"));
    }
    decode_payload(payload, format, resolution, entry, origin)
}

/// Encode one series' payload, its first timestamp as `base`: no
/// stamps when they are evenly spaced (the stride is returned for the
/// header to flag), else every timestamp less `base`.
fn encode_payload(data: &SeriesData, base: u64, out: &mut Vec<u8>) -> Option<u64> {
    let stamp = |t: SimTime| t.as_nanos().wrapping_sub(base);
    let times: Vec<u64> = match data {
        SeriesData::Raw(samples) => samples.iter().map(|s| stamp(s.time)).collect(),
        SeriesData::Buckets(buckets) => buckets.iter().map(|b| stamp(b.start)).collect(),
    };
    // the same stride and products the decoder rebuilds the stamps from
    let stride = times.last().and_then(|&span| {
        let stride = stride(times.len() as u32, span)?;
        (0u64..)
            .zip(&times)
            .all(|(i, &t)| t == stride.wrapping_mul(i))
            .then_some(stride)
    });
    if stride.is_none() {
        put_timestamps(out, &times);
    }
    match data {
        SeriesData::Raw(samples) => {
            let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
            put_values(out, &values);
        }
        SeriesData::Buckets(buckets) => {
            put_runs(out, buckets.iter().map(|b| b.count));
            for field in [
                |b: &AggBucket| b.min,
                |b: &AggBucket| b.sum,
                |b: &AggBucket| b.max,
                |b: &AggBucket| b.last,
            ] {
                let vals: Vec<f64> = buckets.iter().map(field).collect();
                put_values(out, &vals);
            }
        }
    }
    stride
}

/// Hand each of `entry`'s stamps to `each`, in order: rebuilt from its
/// stride, or decoded from the payload's stamp column, which counts
/// from the series' `min_time`.
fn for_each_stamp(
    payload: &[u8],
    pos: &mut usize,
    entry: &SeriesIndexEntry,
    mut each: impl FnMut(u64),
) -> Result<(), CodecError> {
    let base = entry.min_time.as_nanos();
    match entry.stride {
        Some(stride) => {
            for i in 0..u64::from(entry.count) {
                each(base.wrapping_add(stride.wrapping_mul(i)));
            }
            Ok(())
        }
        None => for_each_timestamp(payload, pos, entry.count as usize, |t| {
            each(t.wrapping_add(base))
        }),
    }
}

/// Decode one value column into a field of every row.
fn fill_column<T>(
    rows: &mut [T],
    payload: &[u8],
    pos: &mut usize,
    set: impl Fn(&mut T, f64),
) -> Result<(), CodecError> {
    let count = rows.len();
    let mut row = rows.iter_mut();
    for_each_value(payload, pos, count, |v| {
        set(row.next().expect("one value per row"), v)
    })
}

/// Decode the payload `entry` locates, in a file of `format`.
fn decode_payload(
    payload: &[u8],
    format: Format,
    resolution: Resolution,
    entry: &SeriesIndexEntry,
    origin: &Path,
) -> Result<SeriesData, StoreError> {
    let corrupt = |reason| StoreError::CorruptSegment {
        path: origin.to_path_buf(),
        reason,
    };
    let count = entry.count as usize;
    // every entry costs at least one byte in its value column, stamps
    // or none: bounds the allocation a damaged header could ask for
    if count > payload.len() {
        return Err(corrupt("series count exceeds its payload"));
    }
    let truncated = |e| {
        corrupt(match e {
            CodecError::UnknownColumnTag(_) => "unknown value column tag",
            _ => "varint stream truncated",
        })
    };
    let mut pos = 0usize;
    // one pass per column, each written straight into the output rows
    let data = if resolution == Resolution::Raw {
        let mut rows: Vec<Sample> = Vec::with_capacity(count);
        for_each_stamp(payload, &mut pos, entry, |t| {
            rows.push(Sample {
                time: SimTime::from_nanos(t),
                value: 0.0,
            })
        })
        .map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, |s, v| s.value = v).map_err(truncated)?;
        SeriesData::Raw(rows)
    } else {
        let mut rows: Vec<AggBucket> = Vec::with_capacity(count);
        for_each_stamp(payload, &mut pos, entry, |t| {
            rows.push(AggBucket {
                start: SimTime::from_nanos(t),
                count: 0,
                min: 0.0,
                sum: 0.0,
                max: 0.0,
                last: 0.0,
            })
        })
        .map_err(truncated)?;
        match format {
            Format::V6 => {
                let mut counts = Runs::take(payload, &mut pos, count).map_err(corrupt)?;
                for row in &mut rows {
                    row.count = counts.next();
                }
            }
            Format::V5 => {
                for row in &mut rows {
                    row.count = get_uvarint(payload, &mut pos).map_err(truncated)?;
                }
            }
        }
        fill_column(&mut rows, payload, &mut pos, |b, v| b.min = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, |b, v| b.sum = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, |b, v| b.max = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, |b, v| b.last = v).map_err(truncated)?;
        SeriesData::Buckets(rows)
    };
    if pos != payload.len() {
        return Err(corrupt("trailing bytes in series payload"));
    }
    Ok(data)
}

/// A series' `(node, monitor)`.
pub type SeriesKey = (u32, Arc<str>);

/// A fully-decoded segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Tier.
    pub resolution: Resolution,
    /// Per-series payloads keyed by `(node, monitor)`, sorted by key
    /// without repeats. Series of one monitor may share its name.
    pub series: Vec<(SeriesKey, SeriesData)>,
}

impl Segment {
    /// Encode to bytes, also returning the index of what was written.
    ///
    /// # Panics
    ///
    /// If `series` is not sorted by `(node, monitor)` without repeats:
    /// the header columns store each node and name as a rise from the
    /// one before.
    pub fn encode_indexed(&self) -> (Vec<u8>, SegmentIndex) {
        // the index shares each name with the first series holding it
        let mut names: Vec<&Arc<str>> = self.series.iter().map(|((_, m), _)| m).collect();
        names.sort_unstable();
        names.dedup();
        let n = self.series.len();
        let mut entries = Vec::with_capacity(n);
        let mut name_of = Vec::with_capacity(n);
        let mut payloads = Vec::new();
        // each node's first entry and its series
        let mut nodes: Vec<(usize, usize)> = Vec::new();
        let mut prev: Option<(u32, &str)> = None;
        for (i, ((node, name), data)) in self.series.iter().enumerate() {
            let key = (*node, &**name);
            assert!(
                prev.is_none_or(|p| p < key),
                "segment series out of (node, monitor) order at {key:?}"
            );
            if prev.is_none_or(|p| p.0 != *node) {
                nodes.push((i, 0));
            }
            nodes.last_mut().expect("a node per series").1 += 1;
            prev = Some(key);
            let min_time = data.min_time().unwrap_or(SimTime::ZERO);
            let start = payloads.len();
            let stride = encode_payload(data, min_time.as_nanos(), &mut payloads);
            let name_index = names
                .binary_search(&name)
                .expect("every name is in the table");
            name_of.push(name_index);
            entries.push(SeriesIndexEntry {
                node: *node,
                monitor: Arc::clone(names[name_index]),
                count: data.len() as u32,
                stride,
                min_time,
                max_time: data.max_time().unwrap_or(SimTime::ZERO),
                offset: 0,
                len: (payloads.len() - start) as u32,
                lead: 0,
                trail: 0,
            });
        }
        let mut body = vec![self.resolution.tag()];
        put_uvarint(&mut body, n as u64);
        put_uvarint(&mut body, names.len() as u64);
        for name in &names {
            put_uvarint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        put_uvarint(&mut body, nodes.len() as u64);
        // each node and name as its rise over the least it could be
        let mut lowest = 0;
        put_runs(
            &mut body,
            nodes.iter().map(|&(at, _)| {
                let node = u64::from(entries[at].node);
                let rise = node - lowest;
                lowest = node + 1;
                rise
            }),
        );
        put_runs(&mut body, nodes.iter().map(|&(_, size)| size as u64));
        let mut skips = Vec::with_capacity(n);
        // per series, its (field, min, span) deltas from its reference
        let mut deltas = Vec::with_capacity(n);
        let mut before = None;
        for &(start, size) in &nodes {
            let mut lowest_name = 0;
            for k in 0..size {
                let i = start + k;
                skips.push((name_of[i] - lowest_name) as u64);
                lowest_name = name_of[i] + 1;
                let (field, min, span) = entries[i].basis();
                let (f0, m0, s0) =
                    reference(start, k, before).map_or((0, 0, 0), |r| entries[r].basis());
                let delta = |v: u64, from: u64| zigzag(v.wrapping_sub(from) as i64);
                deltas.push((delta(field, f0), delta(min, m0), delta(span, s0)));
            }
            before = Some((start, size));
        }
        put_runs(&mut body, skips);
        put_runs(&mut body, deltas.iter().map(|d| d.0));
        put_runs(&mut body, deltas.iter().map(|d| d.1));
        put_runs(&mut body, deltas.iter().map(|d| d.2));
        for e in &entries {
            put_uvarint(&mut body, u64::from(e.len));
        }
        // the pages: as many whole payloads as fit PAGE_BYTES, or one
        let (mut first, mut from) = (0, 0);
        while first < n {
            let mut end = first + 1;
            let mut bytes = entries[first].len as usize;
            while end < n && bytes + entries[end].len as usize <= PAGE_BYTES {
                bytes += entries[end].len as usize;
                end += 1;
            }
            let page = &payloads[from..from + bytes];
            let at = (MAGIC.len() + body.len()) as u64;
            body.extend_from_slice(&crc32(page).to_le_bytes());
            body.extend_from_slice(page);
            let mut offset = at + PAGE_CRC as u64;
            for e in &mut entries[first..end] {
                e.offset = offset;
                e.lead = u16::try_from(offset - at).expect("a page of several series is short");
                offset += u64::from(e.len);
            }
            close_page(&mut entries[first..end], offset);
            (first, from) = (end, from + bytes);
        }
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        let index = SegmentIndex {
            format: Format::V6,
            resolution: self.resolution,
            entries,
        };
        (out, index)
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_indexed().0
    }

    /// Decode and validate bytes produced by [`Segment::encode`] (or by
    /// a `CWXSEG5` writer): the header walk of
    /// [`SegmentIndex::read_from`], then each payload it locates. Every
    /// key shares its monitor's name with the segment's name table.
    pub fn decode(data: &[u8], origin: &Path) -> Result<Segment, StoreError> {
        let index = walk(data, origin)?;
        let mut series = Vec::with_capacity(index.entries.len());
        for entry in index.entries {
            // the walk checked every payload lies inside the body
            let at = entry.offset as usize;
            let payload = &data[at..at + entry.len as usize];
            let decoded = decode_payload(payload, index.format, index.resolution, &entry, origin)?;
            series.push(((entry.node, entry.monitor), decoded));
        }
        Ok(Segment {
            resolution: index.resolution,
            series,
        })
    }

    /// Write atomically to `path` (temp file + rename), returning the
    /// index of the written file so callers need not re-read it.
    pub fn write_to(&self, path: &Path) -> Result<SegmentIndex, StoreError> {
        let (bytes, index) = self.encode_indexed();
        let tmp: PathBuf = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            // a failed fsync must not be published by the rename below
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(index)
    }

    /// Read and validate the segment at `path`.
    pub fn read_from(path: &Path) -> Result<Segment, StoreError> {
        let data = std::fs::read(path)?;
        Segment::decode(&data, path)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn raw_segment() -> Segment {
        Segment {
            resolution: Resolution::Raw,
            series: vec![
                (
                    (3, "cpu.util".into()),
                    SeriesData::Raw(
                        (0..100)
                            .map(|i| Sample {
                                time: t(i * 5),
                                value: i as f64 * 0.5,
                            })
                            .collect(),
                    ),
                ),
                ((9, "mem.free".into()), SeriesData::Raw(vec![])),
            ],
        }
    }

    /// A 10 s tier series of 50 buckets, `count(i)` samples in bucket `i`.
    fn tier_segment(count: impl Fn(u64) -> u64) -> Segment {
        Segment {
            resolution: Resolution::TenSeconds,
            series: vec![(
                (1, "load.one".into()),
                SeriesData::Buckets(
                    (0..50)
                        .map(|i| AggBucket {
                            start: t(i * 10),
                            count: count(i),
                            min: i as f64,
                            sum: (i as f64 + 0.5) * 10.0,
                            max: i as f64 + 1.0,
                            last: i as f64 + 0.25,
                        })
                        .collect(),
                ),
            )],
        }
    }

    #[test]
    fn raw_round_trip() {
        let seg = raw_segment();
        let back = Segment::decode(&seg.encode(), Path::new("mem")).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn tier_round_trip() {
        let seg = tier_segment(|i| 10 + i % 3);
        let back = Segment::decode(&seg.encode(), Path::new("mem")).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn a_constant_bucket_count_is_stored_once() {
        let payload_len = |seg: &Segment| seg.encode_indexed().1.entries[0].len;
        let uniform = tier_segment(|_| 10);
        assert_eq!(
            Segment::decode(&uniform.encode(), Path::new("mem")).unwrap(),
            uniform
        );
        // one run, its length and its value, where v5 spent a byte a
        // bucket; a partial last bucket is one run more
        let ragged = tier_segment(|i| if i == 49 { 3 } else { 10 });
        assert_eq!(payload_len(&ragged), payload_len(&uniform) + 2);
        let varying = tier_segment(|i| 10 + i % 2);
        assert_eq!(payload_len(&varying), payload_len(&uniform) - 2 + 50 * 2);
    }

    #[test]
    fn fixed_interval_series_compress_well() {
        let seg = raw_segment();
        let bytes = seg.encode();
        // 100 samples, mostly 1-byte dd + small value xors, plus headers
        assert!(
            bytes.len() < 100 * 16,
            "{} bytes should beat raw 16B/sample",
            bytes.len()
        );
    }

    #[test]
    fn decimal_readings_cost_a_fraction_of_the_xor_chain() {
        // 0.5 steps: a one-decimal column of 1-byte deltas
        let seg = raw_segment();
        let (node, data) = &seg.series[0];
        let mut payload = Vec::new();
        // 5 s apart from 0: no stamps
        assert_eq!(encode_payload(data, 0, &mut payload), Some(5_000_000_000));
        assert_eq!(payload[0], 1 + 1, "{node:?}: tagged decimal, e = 1");
        assert_eq!(payload.len(), 1 + 100);
    }

    #[test]
    fn an_unknown_column_tag_is_a_corrupt_segment() {
        let mut payload = Vec::new();
        put_timestamps(&mut payload, &[0, 5_000_000_000]);
        payload.extend_from_slice(&[0xff, 0, 0]);
        let entry = SeriesIndexEntry {
            node: 0,
            monitor: "m".into(),
            count: 2,
            stride: None,
            min_time: SimTime::ZERO,
            max_time: t(5),
            offset: 0,
            len: payload.len() as u32,
            lead: 0,
            trail: 0,
        };
        let err = decode_payload(
            &payload,
            Format::V6,
            Resolution::Raw,
            &entry,
            Path::new("mem"),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            StoreError::CorruptSegment {
                reason: "unknown value column tag",
                ..
            }
        ));
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut bytes = raw_segment().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        let err = Segment::decode(&bytes, Path::new("mem")).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CorruptSegment {
                reason: "checksum mismatch",
                ..
            }
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let err = Segment::decode(b"NOTASEGMENT!", Path::new("mem")).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CorruptSegment {
                reason: "bad magic",
                ..
            }
        ));
    }

    /// `body` behind `magic` and before its CRC: a checksum-valid file.
    fn sealed(magic: &[u8; 8], body: &[u8]) -> Vec<u8> {
        let mut out = magic.to_vec();
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// A v6 raw file as stored: every column's values (each written as
    /// a run list), one payload a series.
    #[derive(Clone)]
    struct Columns<'a> {
        names: &'a [&'a str],
        nodes: Vec<u64>,
        sizes: Vec<u64>,
        skips: Vec<u64>,
        fields: Vec<u64>,
        mins: Vec<u64>,
        spans: Vec<u64>,
        payloads: Vec<&'a [u8]>,
    }

    impl<'a> Columns<'a> {
        /// One node of one series of name 0, its count varint `field`,
        /// `min_time` 0 and `span` as stored for a file's first series.
        fn one(field: u64, span: u64, payload: &'a [u8]) -> Columns<'a> {
            Columns {
                names: &["a"],
                nodes: vec![0],
                sizes: vec![1],
                skips: vec![0],
                fields: vec![zigzag(field as i64)],
                mins: vec![0],
                spans: vec![zigzag(span as i64)],
                payloads: vec![payload],
            }
        }

        /// Empty raw series of `names`: per node its gap and its series'
        /// name skips, every other column zero.
        fn empty(names: &'a [&'a str], nodes: &[(u64, &[u64])], empty: &'a [u8]) -> Columns<'a> {
            let skips: Vec<u64> = nodes.iter().flat_map(|(_, s)| s.iter().copied()).collect();
            let n = skips.len();
            Columns {
                names,
                nodes: nodes.iter().map(|(gap, _)| *gap).collect(),
                sizes: nodes.iter().map(|(_, s)| s.len() as u64).collect(),
                skips,
                fields: vec![0; n],
                mins: vec![0; n],
                spans: vec![0; n],
                payloads: vec![empty; n],
            }
        }

        /// The checksum-valid file.
        fn file(&self) -> Vec<u8> {
            let mut body = vec![Resolution::Raw.tag()];
            put_uvarint(&mut body, self.payloads.len() as u64);
            put_uvarint(&mut body, self.names.len() as u64);
            for name in self.names {
                put_uvarint(&mut body, name.len() as u64);
                body.extend_from_slice(name.as_bytes());
            }
            put_uvarint(&mut body, self.nodes.len() as u64);
            for column in [
                &self.nodes,
                &self.sizes,
                &self.skips,
                &self.fields,
                &self.mins,
                &self.spans,
            ] {
                put_runs(&mut body, column.iter().copied());
            }
            for p in &self.payloads {
                put_uvarint(&mut body, p.len() as u64);
            }
            // small payloads: one page
            let page = self.payloads.concat();
            assert!(page.len() <= PAGE_BYTES);
            body.extend_from_slice(&crc32(&page).to_le_bytes());
            body.extend_from_slice(&page);
            sealed(MAGIC, &body)
        }
    }

    fn empty_payload() -> Vec<u8> {
        let mut empty = Vec::new();
        encode_payload(&SeriesData::Raw(vec![]), 0, &mut empty);
        empty
    }

    /// Why decoding `bytes` fails, which it must.
    fn corrupt_reason(bytes: &[u8]) -> &'static str {
        match Segment::decode(bytes, Path::new("mem")) {
            Err(StoreError::CorruptSegment { reason, .. }) => reason,
            other => panic!("not a corrupt segment: {other:?}"),
        }
    }

    #[test]
    fn a_series_count_the_body_cannot_hold_is_corrupt_not_an_abort() {
        let dir = std::env::temp_dir().join(format!("cwx-seg-count-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut body = vec![Resolution::Raw.tag()];
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        // 17 bytes of v3: once a 275 GB reservation, an abort; now
        // refused by its magic, whatever follows it, as v4 is
        for (magic, format) in [(b"CWXSEG3\n", "CWXSEG3"), (b"CWXSEG4\n", "CWXSEG4")] {
            let retired = sealed(magic, &body);
            assert_eq!(retired.len(), 17);
            match Segment::decode(&retired, Path::new("mem")) {
                Err(StoreError::RetiredSegment { format: f, .. }) => assert_eq!(f, format),
                other => panic!("{format}: {other:?}"),
            }
        }
        // v5 (a u32 count) and v6 (a varint) with an empty name table
        body.push(0);
        let v5 = sealed(MAGIC_V5, &body);
        let mut v6_body = vec![Resolution::Raw.tag()];
        put_uvarint(&mut v6_body, u64::MAX);
        v6_body.push(0);
        let v6 = sealed(MAGIC, &v6_body);
        for bytes in [v5, v6] {
            assert_eq!(corrupt_reason(&bytes), "count exceeds the body");
            let path = dir.join("seg-00000001-r0.seg");
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                SegmentIndex::read_from(&path),
                Err(StoreError::CorruptSegment {
                    reason: "count exceeds the body",
                    ..
                })
            ));
        }
        // a name count past the body is refused the same way
        let mut body = vec![Resolution::Raw.tag(), 0];
        put_uvarint(&mut body, u64::MAX);
        assert_eq!(
            corrupt_reason(&sealed(MAGIC, &body)),
            "count exceeds the body"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_v6_header_columns_are_corrupt_not_a_panic() {
        let empty = empty_payload();
        let good = Columns::empty(&["a", "b"], &[(1, &[0, 0]), (2, &[0])], &empty);
        let seg = Segment::decode(&good.file(), Path::new("mem")).unwrap();
        let keys: Vec<_> = seg.series.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, [(1, "a".into()), (1, "b".into()), (4, "a".into())]);

        let with = |edit: &dyn Fn(&mut Columns<'_>)| {
            let mut c = good.clone();
            edit(&mut c);
            c.file()
        };
        for (bytes, reason) in [
            // names: a skip past the table, first or later in a node
            (
                Columns::empty(&["a"], &[(0, &[1])], &empty).file(),
                "name index past the name table",
            ),
            (
                Columns::empty(&["a"], &[(0, &[u64::MAX])], &empty).file(),
                "name index past the name table",
            ),
            (
                Columns::empty(&["a"], &[(0, &[0, 0])], &empty).file(),
                "name index past the name table",
            ),
            (
                Columns::empty(&["a", "b"], &[(0, &[0, u64::MAX])], &empty).file(),
                "name index past the name table",
            ),
            // nodes past u32
            (
                Columns::empty(&["a"], &[(1 << 32, &[0])], &empty).file(),
                "node delta overflows",
            ),
            (
                Columns::empty(&["a"], &[(u64::MAX, &[0])], &empty).file(),
                "node delta overflows",
            ),
            (
                Columns::empty(&["a"], &[(u32::MAX as u64, &[0]), (0, &[0])], &empty).file(),
                "node delta overflows",
            ),
            // node sizes that miss the series count
            (
                with(&|c| c.sizes = vec![2, 2]),
                "node sizes do not add up to the series count",
            ),
            (
                with(&|c| c.sizes = vec![0, 3]),
                "node sizes do not add up to the series count",
            ),
            (
                with(&|c| c.sizes = vec![1, 1]),
                "node sizes do not add up to the series count",
            ),
            (
                with(&|c| c.sizes = vec![u64::MAX, 1]),
                "node sizes do not add up to the series count",
            ),
            // more nodes than series, or none
            (
                with(&|c| {
                    c.nodes = vec![1, 0, 0, 0];
                    c.sizes = vec![1; 4];
                }),
                "node count does not fit the series count",
            ),
            (
                with(&|c| {
                    c.nodes.clear();
                    c.sizes.clear();
                }),
                "node count does not fit the series count",
            ),
            // a column one value long or short: its runs overrun it, or
            // the next column's runs are read as its last
            (
                with(&|c| c.spans.push(0)),
                "runs do not add up to their column",
            ),
            (
                with(&|c| c.skips.pop().map(drop).unwrap_or(())),
                "runs do not add up to their column",
            ),
            (empty_file_names(&["b", "a"]), "name table not sorted"),
            (empty_file_names(&["a", "a"]), "name table not sorted"),
        ] {
            assert_eq!(corrupt_reason(&bytes), reason);
        }
        // a run of zero values, and lengths past the body
        let mut body = vec![Resolution::Raw.tag(), 1, 1, 1, b'a', 1];
        body.extend_from_slice(&[0, 0]);
        assert_eq!(
            corrupt_reason(&sealed(MAGIC, &body)),
            "runs do not add up to their column"
        );
        let mut body = vec![Resolution::Raw.tag(), 1, 1, 1, b'a', 1];
        // one node, node 0 of one series, every other column 0
        for value in [0, 1, 0, 0, 0, 0] {
            body.extend_from_slice(&[1, value]);
        }
        put_uvarint(&mut body, 1 << 20);
        body.extend_from_slice(&[0; 4]);
        assert_eq!(corrupt_reason(&sealed(MAGIC, &body)), "truncated body");

        // the evenly spaced flag: three samples 5 s apart, one value
        // column of 1-byte deltas
        let mut values = Vec::new();
        put_values(&mut values, &[1.0, 2.0, 3.0]);
        let mut stamped = Vec::new();
        put_timestamps(&mut stamped, &[0, 5_000_000_000, 10_000_000_000]);
        stamped.extend_from_slice(&values);
        let one = |field, span, payload| Columns::one(field, span, payload).file();
        let seg = Segment::decode(&one(3 << 1 | 1, 10_000_000_000, &values), Path::new("mem"));
        let SeriesData::Raw(samples) = &seg.unwrap().series[0].1 else {
            unreachable!()
        };
        assert_eq!(
            samples[2],
            Sample {
                time: t(10),
                value: 3.0
            }
        );
        for (bytes, reason) in [
            // a span three entries cannot split evenly, or one entry
            // spanning time
            (
                one(3 << 1 | 1, 10_000_000_001, &values),
                "evenly spaced span not a multiple of count − 1",
            ),
            (
                one(1 << 1 | 1, 7, &values[..2]),
                "evenly spaced span not a multiple of count − 1",
            ),
            (one(1, 0, &[]), "stamp flag on an empty series"),
            (one(1, 5, &values), "stamp flag on an empty series"),
            // a count whose flag shifts it past u32
            (
                one((u32::MAX as u64 + 1) << 1 | 1, 0, &values),
                "header field overflows u32",
            ),
            // stamps left in a flagged payload are read as values, and
            // their tail is left over
            (
                one(3 << 1 | 1, 10_000_000_000, &stamped),
                "trailing bytes in series payload",
            ),
        ] {
            assert_eq!(corrupt_reason(&bytes), reason);
        }
        assert!(Segment::decode(&one(3 << 1, 10_000_000_000, &stamped), Path::new("mem")).is_ok());
    }

    /// A checksum-valid v6 raw file with name table `names` and no series.
    fn empty_file_names(names: &[&str]) -> Vec<u8> {
        Columns::empty(names, &[], &[]).file()
    }

    /// A v5 raw series header and its payload, as that writer laid it
    /// out: `(name index, node delta, count << 1 | even, span)`.
    fn v5_file(names: &[&str], headers: &[(u64, u64, u64, u64, &[u8])]) -> Vec<u8> {
        let mut body = vec![Resolution::Raw.tag()];
        body.extend_from_slice(&(headers.len() as u32).to_le_bytes());
        put_uvarint(&mut body, names.len() as u64);
        for name in names {
            put_uvarint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        for &(name, node_delta, field, span, payload) in headers {
            for v in [name, node_delta, field, payload.len() as u64] {
                put_uvarint(&mut body, v);
            }
            body.extend_from_slice(&crc32(payload).to_le_bytes());
            put_uvarint(&mut body, 0);
            put_uvarint(&mut body, span);
            body.extend_from_slice(payload);
        }
        sealed(MAGIC_V5, &body)
    }

    #[test]
    fn v5_headers_are_read_and_their_damage_is_corrupt() {
        let empty = empty_payload();
        let mut values = Vec::new();
        put_values(&mut values, &[1.0, 2.0, 3.0]);
        let bytes = v5_file(
            &["a", "b"],
            &[
                (0, 1, 0, 0, &empty),
                (1, 0, 0, 0, &empty),
                (0, 3, 3 << 1 | 1, 10_000_000_000, &values),
            ],
        );
        let seg = Segment::decode(&bytes, Path::new("mem")).unwrap();
        let keys: Vec<_> = seg.series.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, [(1, "a".into()), (1, "b".into()), (4, "a".into())]);
        let SeriesData::Raw(samples) = &seg.series[2].1 else {
            unreachable!()
        };
        assert_eq!(samples[2].time, t(10));
        for (bytes, reason) in [
            (
                v5_file(&["a"], &[(1, 0, 0, 0, &empty)]),
                "name index past the name table",
            ),
            (
                v5_file(&["a"], &[(0, 1 << 32, 0, 0, &empty)]),
                "node delta overflows",
            ),
            (
                v5_file(&["a", "b"], &[(1, 3, 0, 0, &empty), (0, 0, 0, 0, &empty)]),
                "series out of order",
            ),
            (
                v5_file(&["a"], &[(0, 0, 3 << 1 | 1, 10_000_000_001, &values)]),
                "evenly spaced span not a multiple of count − 1",
            ),
        ] {
            assert_eq!(corrupt_reason(&bytes), reason);
        }
    }

    /// Three series of four two-decimal samples each, sample `i` of
    /// node `n` at `at(i + n)`.
    fn stamped_segment(at: impl Fn(u64) -> SimTime) -> Segment {
        let series = (0..3u32)
            .map(|node| {
                let samples = (0..4)
                    .map(|i| Sample {
                        time: at(i + node as u64),
                        value: 20.0 + i as f64 * 0.25,
                    })
                    .collect();
                ((node, "cpu.util".into()), SeriesData::Raw(samples))
            })
            .collect();
        Segment {
            resolution: Resolution::Raw,
            series,
        }
    }

    #[test]
    fn evenly_spaced_stamps_cost_no_bytes() {
        let at = |i: u64| SimTime::from_nanos(1_700_000_000_000_000_000 + i * 2_000_000_000);
        let seg = stamped_segment(at);
        let (bytes, index) = seg.encode_indexed();
        assert_eq!(Segment::decode(&bytes, Path::new("mem")).unwrap(), seg);
        for (node, e) in index.entries.iter().enumerate() {
            assert_eq!(
                (e.min_time, e.max_time),
                (at(node as u64), at(node as u64 + 3))
            );
            assert_eq!(e.stride, Some(2_000_000_000));
            // no stamps: the tagged two-decimal column alone, 2000
            // (2 B) and three steps of 25
            let payload = &bytes[e.offset as usize..][..e.len as usize];
            assert_eq!(payload.len(), 1 + 2 + 3, "series {node}");
        }
    }

    #[test]
    fn jittered_stamps_keep_their_column_from_the_series_min_time() {
        // a nanosecond off the 2 s tick on every other sample
        let at =
            |i: u64| SimTime::from_nanos(1_700_000_000_000_000_000 + i * 2_000_000_000 + i % 2);
        let seg = stamped_segment(at);
        let (bytes, index) = seg.encode_indexed();
        assert_eq!(Segment::decode(&bytes, Path::new("mem")).unwrap(), seg);
        for (node, e) in index.entries.iter().enumerate() {
            assert_eq!(e.stride, None);
            // stamps: 0, a 2 s delta (5 B), two ±2 ns delta changes;
            // then the same value column
            let payload = &bytes[e.offset as usize..][..e.len as usize];
            assert_eq!(payload[0], 0, "series {node}");
            assert_eq!(
                payload.len(),
                (1 + 5 + 1 + 1) + (1 + 2 + 3),
                "series {node}"
            );
        }
    }

    #[test]
    fn a_regular_flush_pays_for_its_header_columns_once() {
        // 100 nodes × 32 monitors, four samples each on one 2 s tick,
        // each node 8 ms after the one before: what an ingest flush holds
        let names: Vec<Arc<str>> = (0..32).map(|m| format!("bench.m{m:02}").into()).collect();
        let mut series = Vec::new();
        for node in 0..100u32 {
            for (m, name) in names.iter().enumerate() {
                let samples = (0..4)
                    .map(|i| Sample {
                        time: SimTime::from_nanos(
                            1_700_000_000_000_000_000 + i * 2_000_000_000 + node as u64 * 8_000_000,
                        ),
                        value: (node as u64 * 7 + m as u64 + i) as f64 / 100.0,
                    })
                    .collect();
                series.push(((node, Arc::clone(name)), SeriesData::Raw(samples)));
            }
        }
        let seg = Segment {
            resolution: Resolution::Raw,
            series,
        };
        let (bytes, index) = seg.encode_indexed();
        assert_eq!(Segment::decode(&bytes, Path::new("mem")).unwrap(), seg);
        let payloads: usize = index.entries.iter().map(|e| e.len as usize).sum();
        let pages = index.entries.iter().filter(|e| e.lead == 4).count();
        assert!(index.entries.iter().all(|e| e.len as usize <= PAGE_BYTES));
        // magic, tag, series and name counts, 32 nine-byte names, node
        // count, a length byte a series, a CRC a page, the file CRC
        let framing = 8 + 1 + 2 + 1 + 32 * 10 + 1 + 3_200 + 4 * pages + 4;
        let columns = bytes.len() - payloads - framing;
        // nodes, sizes and names one run each; counts and spans the
        // first series' own, then a run of no change; the mins the first
        // series' full stamp, a run of no change across node 0, and a
        // run of the 8 ms step every later node repeats: 39 B for 3,200
        // series, where v5 spent ≈ 12 B a series
        assert!(columns <= 40, "{columns} B of columns for 100 nodes");
    }

    #[test]
    fn pages_hold_at_most_page_bytes_or_one_longer_series() {
        // series of about 5, 100 and 600 payload bytes, in a mix
        let series: Vec<(SeriesKey, SeriesData)> = (0..60u32)
            .map(|node| {
                let n = [4, 100, 600][node as usize % 3];
                let samples = (0..n)
                    .map(|i| Sample {
                        time: t(i * 5),
                        value: ((i * 37 + node as u64) % 101) as f64 / 10.0,
                    })
                    .collect();
                ((node, "m".into()), SeriesData::Raw(samples))
            })
            .collect();
        let seg = Segment {
            resolution: Resolution::Raw,
            series,
        };
        let (bytes, index) = seg.encode_indexed();
        assert!(index.entries.iter().any(|e| e.len as usize > PAGE_BYTES));
        let mut page_of = Vec::new();
        for e in &index.entries {
            let (lead, trail) = (u64::from(e.lead), u64::from(e.trail));
            let page = (e.offset - lead, e.offset + u64::from(e.len) + trail);
            // the page's CRC, then its payloads
            let read = &bytes[page.0 as usize..page.1 as usize];
            assert_eq!(read[..4], crc32(&read[4..]).to_le_bytes());
            assert!(lead >= 4);
            assert!(
                read.len() <= PAGE_CRC + PAGE_BYTES || (lead, trail) == (4, 0),
                "a {} B page holds one series",
                read.len()
            );
            page_of.push(page);
        }
        // pages tile the payload region in order
        page_of.dedup();
        assert!(page_of.windows(2).all(|w| w[0].1 == w[1].0));
        assert!(page_of.len() < index.entries.len());
        assert_eq!(page_of.last().unwrap().1 as usize, bytes.len() - 4);
    }

    #[test]
    fn one_entry_is_evenly_spaced_and_none_is_not() {
        let seg = Segment {
            resolution: Resolution::Raw,
            series: vec![
                (
                    (0, "a".into()),
                    SeriesData::Raw(vec![Sample {
                        time: t(9),
                        value: 1.0,
                    }]),
                ),
                ((0, "b".into()), SeriesData::Raw(vec![])),
                (
                    (0, "c".into()),
                    SeriesData::Raw(vec![
                        Sample {
                            time: t(9),
                            value: 1.0,
                        },
                        Sample {
                            time: t(4),
                            value: 1.0,
                        },
                    ]),
                ),
            ],
        };
        let (bytes, index) = seg.encode_indexed();
        assert_eq!(Segment::decode(&bytes, Path::new("mem")).unwrap(), seg);
        let strides: Vec<_> = index.entries.iter().map(|e| e.stride).collect();
        // two entries are always evenly spaced, even backwards: the
        // stride wraps, as the span does
        assert_eq!(
            strides,
            [Some(0), None, Some(0u64.wrapping_sub(5_000_000_000))]
        );
    }

    #[test]
    #[should_panic(expected = "out of (node, monitor) order")]
    fn encoding_unsorted_series_is_refused() {
        let mut seg = raw_segment();
        seg.series.reverse();
        seg.encode();
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("cwx-seg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000001-r0.seg");
        let seg = raw_segment();
        let index = seg.write_to(&path).unwrap();
        assert_eq!(Segment::read_from(&path).unwrap(), seg);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp file renamed away"
        );
        assert_eq!(index, SegmentIndex::read_from(&path).unwrap());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn index_locates_series_for_positioned_reads() {
        let dir = std::env::temp_dir().join(format!("cwx-seg-idx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000001-r0.seg");
        let seg = raw_segment();
        let index = seg.write_to(&path).unwrap();

        assert_eq!(index.resolution, Resolution::Raw);
        assert_eq!(index.entries.len(), 2);
        let e = &index.entries[0];
        assert_eq!((e.node, &*e.monitor), (3, "cpu.util"));
        assert_eq!(e.count, 100);
        assert_eq!(e.min_time, t(0));
        assert_eq!(e.max_time, t(99 * 5));
        let file = File::open(&path).unwrap();
        let read = |e| read_series_at(&file, &path, index.format, index.resolution, e);
        assert_eq!(read(e).unwrap(), seg.series[0].1);
        // the empty series round-trips too
        let e = &index.entries[1];
        assert_eq!(e.count, 0);
        assert_eq!(read(e).unwrap(), SeriesData::Raw(vec![]));
        // and through a file opened for the one read
        assert_eq!(
            read_series(&path, index.resolution, e).unwrap(),
            SeriesData::Raw(vec![])
        );
        // a v5 file's series, each guarded by its own CRC
        let mut values = Vec::new();
        put_values(&mut values, &[1.0, 2.0, 3.0]);
        let v5 = dir.join("seg-00000002-r0.seg");
        std::fs::write(
            &v5,
            v5_file(
                &["a", "b"],
                &[
                    (0, 1, 3 << 1 | 1, 10_000_000_000, &values),
                    (1, 0, 3 << 1 | 1, 10_000_000_000, &values),
                ],
            ),
        )
        .unwrap();
        let index = SegmentIndex::read_from(&v5).unwrap();
        assert_eq!(index.format, Format::V5);
        for e in &index.entries {
            let SeriesData::Raw(samples) = read_series(&v5, index.resolution, e).unwrap() else {
                unreachable!()
            };
            assert_eq!(
                samples.iter().map(|s| s.value).collect::<Vec<_>>(),
                [1.0, 2.0, 3.0]
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn positioned_read_detects_a_damaged_page() {
        let dir = std::env::temp_dir().join(format!("cwx-seg-dmg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000001-r0.seg");
        // three short series share one page
        let seg = stamped_segment(|i| t(i * 2));
        let index = seg.write_to(&path).unwrap();
        assert!(index
            .entries
            .iter()
            .all(|e| e.offset - u64::from(e.lead) == index.entries[0].offset - 4));

        // a byte of the middle series: no series of its page reads back
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[index.entries[1].offset as usize + 1] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let file = File::open(&path).unwrap();
        for e in &index.entries {
            let err = read_series_at(&file, &path, index.format, index.resolution, e).unwrap_err();
            assert!(matches!(
                err,
                StoreError::CorruptSegment {
                    reason: "page checksum mismatch",
                    ..
                }
            ));
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
