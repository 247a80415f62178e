//! Immutable on-disk segment files.
//!
//! A segment holds the samples (or downsampled buckets) of many series
//! at one resolution. Layout, little-endian, varints LEB128:
//!
//! ```text
//! 8B  magic "CWXSEG5\n"
//! u8  resolution tag (0 raw, 1 ten-second, 2 five-minute, 3 one-hour)
//! u32 series count
//! name table: varint name count, then per name (sorted, no repeats)
//!   varint len | name bytes
//! per series, sorted by (node, monitor) without repeats:
//!   varint name index | varint node − previous series' node (from 0)
//!   varint count << 1 | even | varint payload_len | u32 payload_crc32
//!   varint zigzag(min_time − previous series' min_time (from 0))
//!   varint max_time − min_time
//!   payload (payload_len bytes):
//!     raw:  stamps, then one value column
//!     tier: bucket-start stamps, varint counts, then the
//!           min / sum / max / last value columns
//! u32 crc32 over everything after the magic
//!
//! stamps:
//!   even = 1  none: entry i is at min_time + i × stride, stride =
//!             (max_time − min_time) / (count − 1), 0 for one entry
//!   even = 0  delta-of-delta stamps, each less min_time
//!
//! value column (codec::put_values):
//!   u8 tag 0       XOR chain: varint(prev_bits ^ bits) per value
//!   u8 tag 1 + e   decimal: varint(zigzag(m - prev_m)) per value,
//!                  each value m / 10^e, e in 0..=6
//! ```
//!
//! The writer sets `even` on every series with one entry and on every
//! series whose stamps are exactly evenly spaced, so a monitor sampled
//! on a fixed tick pays nothing for its stamps; any other series keeps
//! the delta-of-delta column (one byte a stamp at best). The flag rides
//! in the count varint: the count is a `u32`, so the shift never
//! overflows, and it costs a byte only when the count crosses a 7-bit
//! boundary. A tier bucket stores its values' sum, not their mean: the
//! sum of decimal readings is an exact decimal
//! ([`crate::codec::decimal_sum`]), so its column is scaled-integer
//! deltas where a mean was an XOR chain.
//!
//! A release reads its own format and the one before it. `CWXSEG4`
//! files ([`Format::V4`]) have the same header without the flag (a
//! plain count), always carry stamps, and store a tier bucket's `f64`
//! mean where v5 has the sum: it is read back as `mean × count`, the
//! sum every query folded from it before. A merge rewrites its inputs
//! as v5, so a v4 store converts as it compacts. A file of an older
//! format (`CWXSEG3`, `CWXSEG2`) is refused with
//! [`StoreError::RetiredSegment`], never set aside as corrupt: such a
//! store is converted by compacting it under a release that still
//! reads it.
//!
//! Each series header carries the payload length, its own CRC and the
//! series' time bounds, so a reader can walk the headers once into a
//! [`SegmentIndex`] and afterwards fetch any single series with one
//! positioned read on an already-open file ([`read_series_at`]) and one
//! decode pass over the payload. The trailing file CRC still guards
//! the full-file read paths (recovery, compaction).
//!
//! Segments are written to a temp file and atomically renamed into
//! place, so a crash mid-flush leaves no partial segment behind. The
//! reader verifies magic and CRC before parsing anything, and a
//! checksum-valid file whose headers do not add up (a count the body
//! cannot hold, a name index past the table, series out of order, an
//! evenly spaced series whose span its count does not divide) is a
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

const MAGIC: &[u8; 8] = b"CWXSEG5\n";
const MAGIC_V4: &[u8; 8] = b"CWXSEG4\n";
/// Magics of formats no longer read: a file opening with one is
/// refused.
const RETIRED: [&str; 2] = ["CWXSEG3\n", "CWXSEG2\n"];
/// Fewest bytes a series header takes: one-byte name index, node
/// delta, count and payload_len, the CRC, one-byte time bounds.
const HEADER_MIN: usize = 1 + 1 + 1 + 1 + 4 + 1 + 1;

/// The layout a segment file's magic names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `CWXSEG4`: compact series headers, stamps counted from the
    /// series' `min_time`, tier means. Read, never written.
    V4,
    /// `CWXSEG5`: v4 with no stamp column for an evenly spaced series,
    /// and tier sums in place of means.
    V5,
}

impl Format {
    /// The format of the file at `origin`, which starts with `data`. A
    /// retired magic is a [`StoreError::RetiredSegment`], any other one
    /// not read here a corrupt segment.
    fn of(data: &[u8], origin: &Path) -> Result<Format, StoreError> {
        let path = || origin.to_path_buf();
        match data.get(..MAGIC.len()).unwrap_or(data) {
            m if m == MAGIC => Ok(Format::V5),
            m if m == MAGIC_V4 => Ok(Format::V4),
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
    /// `min_time + i × stride`, and the payload holds no stamps (v5).
    pub stride: Option<u64>,
    /// Smallest timestamp in the payload (0 when empty).
    pub min_time: SimTime,
    /// Largest timestamp in the payload (0 when empty).
    pub max_time: SimTime,
    /// Absolute file offset of the payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32 of the payload bytes.
    pub crc: u32,
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
    let n_series = body.u32()? as usize;
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
    let mut entries = body.room_for(n_series, HEADER_MIN)?;
    let mut prev: Option<(u32, usize)> = None;
    let (mut node, mut min_time) = (0u32, 0u64);
    for _ in 0..n_series {
        let name = body.varint_usize()?;
        let monitor = Arc::clone(
            names
                .get(name)
                .ok_or_else(|| body.corrupt("name index past the name table"))?,
        );
        node = u64::from(node)
            .checked_add(body.varint()?)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| body.corrupt("node delta overflows"))?;
        // the name table is sorted, so index order is name order
        if prev.is_some_and(|p| p >= (node, name)) {
            return Err(body.corrupt("series out of order"));
        }
        prev = Some((node, name));
        let (count, even) = match format {
            Format::V5 => {
                let field = body.varint()?;
                let count = u32::try_from(field >> 1)
                    .map_err(|_| body.corrupt("header field overflows u32"))?;
                (count, field & 1 == 1)
            }
            Format::V4 => (body.varint_u32()?, false),
        };
        let len = body.varint_u32()?;
        let crc = body.u32()?;
        min_time = min_time.wrapping_add(unzigzag(body.varint()?) as u64);
        let span = body.varint()?;
        let max_time = min_time.wrapping_add(span);
        let stride =
            match (even, count) {
                (false, _) => None,
                (true, 0) => return Err(body.corrupt("stamp flag on an empty series")),
                (true, _) => Some(stride(count, span).ok_or_else(|| {
                    body.corrupt("evenly spaced span not a multiple of count − 1")
                })?),
            };
        let offset = body.offset();
        body.take(len as usize)?;
        entries.push(SeriesIndexEntry {
            node,
            monitor,
            count,
            stride,
            min_time: SimTime::from_nanos(min_time),
            max_time: SimTime::from_nanos(max_time),
            offset,
            len,
            crc,
        });
    }
    if body.remaining() != 0 {
        return Err(body.corrupt("trailing bytes after last series"));
    }
    Ok(SegmentIndex {
        format,
        resolution,
        entries,
    })
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
/// on `file` (the segment at `origin`, which the error names).
///
/// `format` and `entry` must come from a [`SegmentIndex`] built over
/// the same file; the payload CRC recorded in the header is re-verified,
/// so a file swapped or damaged since indexing is detected, not
/// mis-decoded.
pub fn read_series_at(
    file: &File,
    origin: &Path,
    format: Format,
    resolution: Resolution,
    entry: &SeriesIndexEntry,
) -> Result<SeriesData, StoreError> {
    let mut payload = vec![0u8; entry.len as usize];
    file.read_exact_at(&mut payload, entry.offset)?;
    if crc32(&payload) != entry.crc {
        return Err(StoreError::CorruptSegment {
            path: origin.to_path_buf(),
            reason: "series payload checksum mismatch",
        });
    }
    decode_payload(&payload, format, resolution, entry, origin)
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
            for b in buckets {
                put_uvarint(out, b.count);
            }
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
    // every entry costs at least one byte in its value column (raw) or
    // its count column (tier), stamps or none: bounds the allocation a
    // damaged header could ask for
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
        for row in &mut rows {
            row.count = get_uvarint(payload, &mut pos).map_err(truncated)?;
        }
        fill_column(&mut rows, payload, &mut pos, |b, v| b.min = v).map_err(truncated)?;
        // v4's column is the mean: the sum a query folded from it was
        // `mean × count`, and still is
        let sum = |b: &mut AggBucket, v: f64| match format {
            Format::V5 => b.sum = v,
            Format::V4 => b.sum = v * b.count as f64,
        };
        fill_column(&mut rows, payload, &mut pos, sum).map_err(truncated)?;
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
    /// the headers store each node as a delta from the one before.
    pub fn encode_indexed(&self) -> (Vec<u8>, SegmentIndex) {
        // the index shares each name with the first series holding it
        let mut names: Vec<&Arc<str>> = self.series.iter().map(|((_, m), _)| m).collect();
        names.sort_unstable();
        names.dedup();
        let mut body = Vec::new();
        body.push(self.resolution.tag());
        body.extend_from_slice(&(self.series.len() as u32).to_le_bytes());
        put_uvarint(&mut body, names.len() as u64);
        for name in &names {
            put_uvarint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        let mut entries = Vec::with_capacity(self.series.len());
        let mut payload = Vec::new();
        let mut prev: Option<(u32, &str)> = None;
        let mut prev_min = 0u64;
        for ((node, name), data) in &self.series {
            let key = (*node, &**name);
            assert!(
                prev.is_none_or(|p| p < key),
                "segment series out of (node, monitor) order at {key:?}"
            );
            let min_time = data.min_time().unwrap_or(SimTime::ZERO);
            let max_time = data.max_time().unwrap_or(SimTime::ZERO);
            let (min, max) = (min_time.as_nanos(), max_time.as_nanos());
            payload.clear();
            let stride = encode_payload(data, min, &mut payload);
            let crc = crc32(&payload);
            let name_index = names
                .binary_search(&name)
                .expect("every name is in the table");
            put_uvarint(&mut body, name_index as u64);
            put_uvarint(&mut body, u64::from(node - prev.map_or(0, |p| p.0)));
            put_uvarint(
                &mut body,
                (data.len() as u64) << 1 | u64::from(stride.is_some()),
            );
            put_uvarint(&mut body, payload.len() as u64);
            body.extend_from_slice(&crc.to_le_bytes());
            put_uvarint(&mut body, zigzag(min.wrapping_sub(prev_min) as i64));
            put_uvarint(&mut body, max.wrapping_sub(min));
            entries.push(SeriesIndexEntry {
                node: *node,
                monitor: Arc::clone(names[name_index]),
                count: data.len() as u32,
                stride,
                min_time,
                max_time,
                offset: (MAGIC.len() + body.len()) as u64,
                len: payload.len() as u32,
                crc,
            });
            body.extend_from_slice(&payload);
            prev = Some(key);
            prev_min = min;
        }
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        let index = SegmentIndex {
            format: Format::V5,
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
    /// a `CWXSEG4` writer): the header walk of
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

    #[test]
    fn raw_round_trip() {
        let seg = raw_segment();
        let back = Segment::decode(&seg.encode(), Path::new("mem")).unwrap();
        assert_eq!(back, seg);
    }

    #[test]
    fn tier_round_trip() {
        let seg = Segment {
            resolution: Resolution::TenSeconds,
            series: vec![(
                (1, "load.one".into()),
                SeriesData::Buckets(
                    (0..50)
                        .map(|i| AggBucket {
                            start: t(i * 10),
                            count: 10,
                            min: i as f64,
                            sum: (i as f64 + 0.5) * 10.0,
                            max: i as f64 + 1.0,
                            last: i as f64 + 0.25,
                        })
                        .collect(),
                ),
            )],
        };
        let back = Segment::decode(&seg.encode(), Path::new("mem")).unwrap();
        assert_eq!(back, seg);
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
            crc: 0,
        };
        let err = decode_payload(
            &payload,
            Format::V4,
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

    /// One raw series header and its payload, as a hand-built file
    /// holds it.
    struct Header<'a> {
        name: u64,
        node_delta: u64,
        /// The count varint as stored: `count << 1 | even` in v5.
        count_field: u64,
        span: u64,
        payload: &'a [u8],
    }

    /// A checksum-valid raw segment of `magic` (v4 or v5) with name
    /// table `names` and one series per header, every `min_time` 0.
    fn compact_file(magic: &[u8; 8], names: &[&str], headers: &[Header<'_>]) -> Vec<u8> {
        let mut body = vec![Resolution::Raw.tag()];
        body.extend_from_slice(&(headers.len() as u32).to_le_bytes());
        put_uvarint(&mut body, names.len() as u64);
        for name in names {
            put_uvarint(&mut body, name.len() as u64);
            body.extend_from_slice(name.as_bytes());
        }
        for h in headers {
            for field in [h.name, h.node_delta, h.count_field, h.payload.len() as u64] {
                put_uvarint(&mut body, field);
            }
            body.extend_from_slice(&crc32(h.payload).to_le_bytes());
            put_uvarint(&mut body, 0);
            put_uvarint(&mut body, h.span);
            body.extend_from_slice(h.payload);
        }
        sealed(magic, &body)
    }

    /// A checksum-valid v5 raw segment with name table `names` and one
    /// empty series per `(name index, node delta)` header.
    fn empty_series_file(names: &[&str], headers: &[(u64, u64)]) -> Vec<u8> {
        let mut empty = Vec::new();
        encode_payload(&SeriesData::Raw(vec![]), 0, &mut empty);
        let headers: Vec<Header<'_>> = headers
            .iter()
            .map(|&(name, node_delta)| Header {
                name,
                node_delta,
                count_field: 0,
                span: 0,
                payload: &empty,
            })
            .collect();
        compact_file(MAGIC, names, &headers)
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
        // refused by its magic, whatever follows it
        let v3 = sealed(b"CWXSEG3\n", &body);
        assert_eq!(v3.len(), 17);
        assert!(matches!(
            Segment::decode(&v3, Path::new("mem")),
            Err(StoreError::RetiredSegment {
                format: "CWXSEG3",
                ..
            })
        ));
        // v4 and v5 with an empty name table
        body.push(0);
        let v4 = sealed(MAGIC_V4, &body);
        let v5 = sealed(MAGIC, &body);
        for bytes in [v4, v5] {
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
        let mut body = vec![Resolution::Raw.tag(), 0, 0, 0, 0];
        put_uvarint(&mut body, u64::MAX);
        assert_eq!(
            corrupt_reason(&sealed(MAGIC, &body)),
            "count exceeds the body"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_v4_headers_are_corrupt_not_a_panic() {
        let seg = Segment::decode(
            &empty_series_file(&["a", "b"], &[(0, 1), (1, 0), (0, 3)]),
            Path::new("mem"),
        )
        .unwrap();
        let keys: Vec<_> = seg.series.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, [(1, "a".into()), (1, "b".into()), (4, "a".into())]);

        for (bytes, reason) in [
            (
                empty_series_file(&["a"], &[(1, 0)]),
                "name index past the name table",
            ),
            (
                empty_series_file(&["a"], &[(u64::MAX, 0)]),
                "name index past the name table",
            ),
            (
                empty_series_file(&["a"], &[(0, 1 << 32)]),
                "node delta overflows",
            ),
            (
                empty_series_file(&["a"], &[(0, u64::MAX)]),
                "node delta overflows",
            ),
            (
                empty_series_file(&["a"], &[(0, u32::MAX as u64), (0, 1)]),
                "node delta overflows",
            ),
            (
                empty_series_file(&["a", "b"], &[(1, 3), (0, 0)]),
                "series out of order",
            ),
            (
                empty_series_file(&["a"], &[(0, 3), (0, 0)]),
                "series out of order",
            ),
            (empty_series_file(&["b", "a"], &[]), "name table not sorted"),
            (empty_series_file(&["a", "a"], &[]), "name table not sorted"),
        ] {
            assert_eq!(corrupt_reason(&bytes), reason);
        }

        // v5's evenly spaced flag: three samples 5 s apart, one value
        // column of 1-byte deltas
        let mut values = Vec::new();
        put_values(&mut values, &[1.0, 2.0, 3.0]);
        let mut stamped = Vec::new();
        put_timestamps(&mut stamped, &[0, 5_000_000_000, 10_000_000_000]);
        stamped.extend_from_slice(&values);
        let one = |count_field, span, payload| {
            let header = Header {
                name: 0,
                node_delta: 0,
                count_field,
                span,
                payload,
            };
            compact_file(MAGIC, &["a"], &[header])
        };
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
            // the same payload unflagged is fine; in v4 there is no flag
            // bit, so the same field counts 7 entries the payload lacks
            (
                compact_file(
                    MAGIC_V4,
                    &["a"],
                    &[Header {
                        name: 0,
                        node_delta: 0,
                        count_field: 3 << 1 | 1,
                        span: 10_000_000_000,
                        payload: &stamped,
                    }],
                ),
                "varint stream truncated",
            ),
        ] {
            assert_eq!(corrupt_reason(&bytes), reason);
        }
        assert!(Segment::decode(&one(3 << 1, 10_000_000_000, &stamped), Path::new("mem")).is_ok());
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
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn positioned_read_detects_damaged_payload() {
        let dir = std::env::temp_dir().join(format!("cwx-seg-dmg-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-00000001-r0.seg");
        let seg = raw_segment();
        let index = seg.write_to(&path).unwrap();
        let e = &index.entries[0];

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[e.offset as usize + 3] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let file = File::open(&path).unwrap();
        let err = read_series_at(&file, &path, index.format, index.resolution, e).unwrap_err();
        assert!(matches!(
            err,
            StoreError::CorruptSegment {
                reason: "series payload checksum mismatch",
                ..
            }
        ));
        let _ = std::fs::remove_dir_all(dir);
    }
}
