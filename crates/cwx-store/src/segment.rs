//! Immutable on-disk segment files.
//!
//! A segment holds the samples (or downsampled buckets) of many series
//! at one resolution. Layout, little-endian:
//!
//! ```text
//! 8B  magic "CWXSEG3\n"
//! u8  resolution tag (0 raw, 1 ten-second, 2 five-minute, 3 one-hour)
//! u32 series count
//! per series:
//!   u32 node | u16 name_len | name bytes | u32 count
//!   u32 payload_len | u32 payload_crc32 | u64 min_time | u64 max_time
//!   payload (payload_len bytes):
//!     raw:  delta-of-delta timestamps, then one value column
//!     tier: delta-of-delta bucket starts, varint counts, then the
//!           min / mean / max / last value columns
//! u32 crc32 over everything after the magic
//!
//! value column (codec::put_values):
//!   u8 tag 0       XOR chain: varint(prev_bits ^ bits) per value
//!   u8 tag 1 + e   decimal: varint(zigzag(m - prev_m)) per value,
//!                  each value m / 10^e, e in 0..=6
//! ```
//!
//! `CWXSEG2` files have the same layout with untagged XOR-chain
//! columns. They are still read ([`Format::V2`]); a merge rewrites its
//! inputs as v3, so a v2 store converts as it compacts.
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
//! reader verifies magic and CRC before parsing anything.

use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use cwx_util::time::SimTime;

use crate::codec::{
    crc32, for_each_timestamp, for_each_value, for_each_xor_value, get_uvarint, put_timestamps,
    put_uvarint, put_values, CodecError,
};
use crate::{AggBucket, Resolution, Sample, StoreError};

const MAGIC: &[u8; 8] = b"CWXSEG3\n";
const MAGIC_V2: &[u8; 8] = b"CWXSEG2\n";
/// Bytes in a per-series header after the variable-length name:
/// count + payload_len + payload_crc + min_time + max_time.
const SERIES_HEADER_TAIL: usize = 4 + 4 + 4 + 8 + 8;

/// The payload layout a segment file's magic names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// `CWXSEG2`: untagged XOR-chain value columns. Read, never written.
    V2,
    /// `CWXSEG3`: every value column opens with its tag byte.
    V3,
}

impl Format {
    /// The format of a file starting with `data`, or `None` for a bad
    /// magic.
    fn of(data: &[u8]) -> Option<Format> {
        match data.get(..MAGIC.len())? {
            m if m == MAGIC => Some(Format::V3),
            m if m == MAGIC_V2 => Some(Format::V2),
            _ => None,
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
    /// Monitor name.
    pub monitor: String,
    /// Entries in the payload (samples or buckets).
    pub count: u32,
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
        let data = std::fs::read(path)?;
        let corrupt = |reason| StoreError::CorruptSegment {
            path: path.to_path_buf(),
            reason,
        };
        let (format, body) = checked_body(&data, path)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            let s = body
                .get(*pos..*pos + n)
                .ok_or_else(|| StoreError::CorruptSegment {
                    path: path.to_path_buf(),
                    reason: "truncated body",
                })?;
            *pos += n;
            Ok(s)
        };
        let resolution = Resolution::from_tag(take(&mut pos, 1)?[0])
            .ok_or_else(|| corrupt("bad resolution tag"))?;
        let n_series = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut entries = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let node = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let monitor = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| corrupt("monitor name not utf-8"))?;
            let tail = take(&mut pos, SERIES_HEADER_TAIL)?;
            let count = u32::from_le_bytes(tail[0..4].try_into().unwrap());
            let len = u32::from_le_bytes(tail[4..8].try_into().unwrap());
            let crc = u32::from_le_bytes(tail[8..12].try_into().unwrap());
            let min_time =
                SimTime::from_nanos(u64::from_le_bytes(tail[12..20].try_into().unwrap()));
            let max_time =
                SimTime::from_nanos(u64::from_le_bytes(tail[20..28].try_into().unwrap()));
            let offset = (MAGIC.len() + pos) as u64;
            take(&mut pos, len as usize)?;
            entries.push(SeriesIndexEntry {
                node,
                monitor,
                count,
                min_time,
                max_time,
                offset,
                len,
                crc,
            });
        }
        if pos != body.len() {
            return Err(corrupt("trailing bytes after last series"));
        }
        Ok(SegmentIndex {
            format,
            resolution,
            entries,
        })
    }
}

/// Check a whole file's magic and trailing CRC (`origin` names it in
/// the error); its format, and the body between magic and CRC.
fn checked_body<'a>(data: &'a [u8], origin: &Path) -> Result<(Format, &'a [u8]), StoreError> {
    let corrupt = |reason| StoreError::CorruptSegment {
        path: origin.to_path_buf(),
        reason,
    };
    let format = Format::of(data)
        .filter(|_| data.len() >= MAGIC.len() + 4)
        .ok_or_else(|| corrupt("bad magic"))?;
    let body = &data[MAGIC.len()..data.len() - 4];
    let stored = u32::from_le_bytes(data[data.len() - 4..].try_into().unwrap());
    if crc32(body) != stored {
        return Err(corrupt("checksum mismatch"));
    }
    Ok((format, body))
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
    let format = Format::of(&magic).ok_or_else(|| StoreError::CorruptSegment {
        path: path.to_path_buf(),
        reason: "bad magic",
    })?;
    read_series_at(&file, path, format, resolution, entry)
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
    decode_payload(&payload, format, resolution, entry.count as usize, origin)
}

fn encode_payload(data: &SeriesData, out: &mut Vec<u8>) {
    match data {
        SeriesData::Raw(samples) => {
            let times: Vec<u64> = samples.iter().map(|s| s.time.as_nanos()).collect();
            let values: Vec<f64> = samples.iter().map(|s| s.value).collect();
            put_timestamps(out, &times);
            put_values(out, &values);
        }
        SeriesData::Buckets(buckets) => {
            let starts: Vec<u64> = buckets.iter().map(|b| b.start.as_nanos()).collect();
            put_timestamps(out, &starts);
            for b in buckets {
                put_uvarint(out, b.count);
            }
            for field in [
                |b: &AggBucket| b.min,
                |b: &AggBucket| b.mean,
                |b: &AggBucket| b.max,
                |b: &AggBucket| b.last,
            ] {
                let vals: Vec<f64> = buckets.iter().map(field).collect();
                put_values(out, &vals);
            }
        }
    }
}

/// Decode one value column into a field of every row.
fn fill_column<T>(
    rows: &mut [T],
    payload: &[u8],
    pos: &mut usize,
    format: Format,
    set: impl Fn(&mut T, f64),
) -> Result<(), CodecError> {
    let count = rows.len();
    let mut row = rows.iter_mut();
    let each = |v| set(row.next().expect("one value per row"), v);
    match format {
        Format::V2 => for_each_xor_value(payload, pos, count, each),
        Format::V3 => for_each_value(payload, pos, count, each),
    }
}

fn decode_payload(
    payload: &[u8],
    format: Format,
    resolution: Resolution,
    count: usize,
    origin: &Path,
) -> Result<SeriesData, StoreError> {
    let corrupt = |reason| StoreError::CorruptSegment {
        path: origin.to_path_buf(),
        reason,
    };
    // every entry costs at least a byte per column: bounds the
    // allocation a damaged header could ask for
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
        for_each_timestamp(payload, &mut pos, count, |t| {
            rows.push(Sample {
                time: SimTime::from_nanos(t),
                value: 0.0,
            })
        })
        .map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, format, |s, v| s.value = v).map_err(truncated)?;
        SeriesData::Raw(rows)
    } else {
        let mut rows: Vec<AggBucket> = Vec::with_capacity(count);
        for_each_timestamp(payload, &mut pos, count, |t| {
            rows.push(AggBucket {
                start: SimTime::from_nanos(t),
                count: 0,
                min: 0.0,
                mean: 0.0,
                max: 0.0,
                last: 0.0,
            })
        })
        .map_err(truncated)?;
        for row in &mut rows {
            row.count = get_uvarint(payload, &mut pos).map_err(truncated)?;
        }
        fill_column(&mut rows, payload, &mut pos, format, |b, v| b.min = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, format, |b, v| b.mean = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, format, |b, v| b.max = v).map_err(truncated)?;
        fill_column(&mut rows, payload, &mut pos, format, |b, v| b.last = v).map_err(truncated)?;
        SeriesData::Buckets(rows)
    };
    if pos != payload.len() {
        return Err(corrupt("trailing bytes in series payload"));
    }
    Ok(data)
}

/// A fully-decoded segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Tier.
    pub resolution: Resolution,
    /// Per-series payloads keyed by `(node, monitor)`.
    pub series: Vec<((u32, String), SeriesData)>,
}

impl Segment {
    /// Encode to bytes, also returning the index of what was written.
    pub fn encode_indexed(&self) -> (Vec<u8>, SegmentIndex) {
        let mut body = Vec::new();
        body.push(self.resolution.tag());
        body.extend_from_slice(&(self.series.len() as u32).to_le_bytes());
        let mut entries = Vec::with_capacity(self.series.len());
        let mut payload = Vec::new();
        for ((node, name), data) in &self.series {
            payload.clear();
            encode_payload(data, &mut payload);
            let crc = crc32(&payload);
            body.extend_from_slice(&node.to_le_bytes());
            body.extend_from_slice(&(name.len() as u16).to_le_bytes());
            body.extend_from_slice(name.as_bytes());
            body.extend_from_slice(&(data.len() as u32).to_le_bytes());
            body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            body.extend_from_slice(&crc.to_le_bytes());
            let min_time = data.min_time().unwrap_or(SimTime::ZERO);
            let max_time = data.max_time().unwrap_or(SimTime::ZERO);
            body.extend_from_slice(&min_time.as_nanos().to_le_bytes());
            body.extend_from_slice(&max_time.as_nanos().to_le_bytes());
            entries.push(SeriesIndexEntry {
                node: *node,
                monitor: name.clone(),
                count: data.len() as u32,
                min_time,
                max_time,
                offset: (MAGIC.len() + body.len()) as u64,
                len: payload.len() as u32,
                crc,
            });
            body.extend_from_slice(&payload);
        }
        let mut out = Vec::with_capacity(MAGIC.len() + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        let index = SegmentIndex {
            format: Format::V3,
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
    /// a `CWXSEG2` writer).
    pub fn decode(data: &[u8], origin: &Path) -> Result<Segment, StoreError> {
        let corrupt = |reason| StoreError::CorruptSegment {
            path: origin.to_path_buf(),
            reason,
        };
        let (format, body) = checked_body(data, origin)?;
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
            let s = body
                .get(*pos..*pos + n)
                .ok_or_else(|| StoreError::CorruptSegment {
                    path: origin.to_path_buf(),
                    reason: "truncated body",
                })?;
            *pos += n;
            Ok(s)
        };
        let resolution = Resolution::from_tag(take(&mut pos, 1)?[0])
            .ok_or_else(|| corrupt("bad resolution tag"))?;
        let n_series = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
        let mut series = Vec::with_capacity(n_series);
        for _ in 0..n_series {
            let node = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap());
            let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
            let name = String::from_utf8(take(&mut pos, name_len)?.to_vec())
                .map_err(|_| corrupt("monitor name not utf-8"))?;
            let tail = take(&mut pos, SERIES_HEADER_TAIL)?;
            let count = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
            let len = u32::from_le_bytes(tail[4..8].try_into().unwrap()) as usize;
            let payload = take(&mut pos, len)?;
            let data = decode_payload(payload, format, resolution, count, origin)?;
            series.push(((node, name), data));
        }
        Ok(Segment { resolution, series })
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
                    (3, "cpu.util".to_string()),
                    SeriesData::Raw(
                        (0..100)
                            .map(|i| Sample {
                                time: t(i * 5),
                                value: i as f64 * 0.5,
                            })
                            .collect(),
                    ),
                ),
                ((9, "mem.free".to_string()), SeriesData::Raw(vec![])),
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
                (1, "load.one".to_string()),
                SeriesData::Buckets(
                    (0..50)
                        .map(|i| AggBucket {
                            start: t(i * 10),
                            count: 10,
                            min: i as f64,
                            mean: i as f64 + 0.5,
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
        encode_payload(data, &mut payload);
        let timestamps = 1 + 5 + 98;
        assert_eq!(
            payload[timestamps],
            1 + 1,
            "{node:?}: tagged decimal, e = 1"
        );
        assert_eq!(payload.len(), timestamps + 1 + 100);
    }

    #[test]
    fn an_unknown_column_tag_is_a_corrupt_segment() {
        let mut payload = Vec::new();
        put_timestamps(&mut payload, &[0, 5_000_000_000]);
        payload.extend_from_slice(&[0xff, 0, 0]);
        let err =
            decode_payload(&payload, Format::V3, Resolution::Raw, 2, Path::new("mem")).unwrap_err();
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
        assert_eq!((e.node, e.monitor.as_str()), (3, "cpu.util"));
        assert_eq!(e.count, 100);
        assert_eq!(e.min_time, t(0));
        assert_eq!(e.max_time, t(99 * 5));
        assert_eq!(
            read_series(&path, index.resolution, e).unwrap(),
            seg.series[0].1
        );
        // the empty series round-trips too
        let e = &index.entries[1];
        assert_eq!(e.count, 0);
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

        let err = read_series(&path, index.resolution, e).unwrap_err();
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
