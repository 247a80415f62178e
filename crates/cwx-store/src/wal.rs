//! The append-only write-ahead log.
//!
//! One WAL per shard. After a 16-byte header — the magic `CWXWAL2\n`
//! and the sequence number of the raw segment this log's contents will
//! be flushed to — records are framed as
//! `len: u32 | crc32(payload): u32 | payload`, little-endian. Two record
//! kinds exist:
//!
//! * `AddSeries` — registers a `(node, monitor)` pair under a shard-local
//!   series id, so sample records don't repeat the monitor name.
//! * `Samples` — a batch of `(time, value)` pairs for one series, stored
//!   uncompressed (the WAL optimizes write latency; segments do the
//!   compression).
//!
//! Recovery reads records until EOF or the first frame whose length or
//! CRC fails, then truncates the file there — a torn tail from a crash
//! mid-write silently disappears, everything before it replays.
//!
//! The header's sequence number makes the flush → checkpoint crash
//! window exact: a log whose target segment exists on disk was flushed
//! in full and is discarded by the shard, any other log replays in
//! full. Logs written before the header carried it (`CWXWAL1\n`, 8
//! bytes) still open; they report no target and always replay.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use cwx_util::time::SimTime;

use crate::codec::crc32;
use crate::{Sample, StoreError};

const MAGIC: &[u8; 8] = b"CWXWAL2\n";
const MAGIC_V1: &[u8; 8] = b"CWXWAL1\n";
const HEADER_LEN: usize = MAGIC.len() + 8;
const KIND_ADD_SERIES: u8 = 1;
const KIND_SAMPLES: u8 = 2;
/// Frames larger than this are treated as corruption, not allocation
/// requests.
const MAX_FRAME: u32 = 1 << 24;
/// Samples that fit one `Samples` frame (9 B of kind, id and count).
const MAX_FRAME_SAMPLES: usize = (MAX_FRAME as usize - 9) / 16;

/// A record replayed from the log.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A series registration.
    AddSeries {
        /// Shard-local series id.
        series: u32,
        /// Node index.
        node: u32,
        /// Monitor name.
        monitor: String,
    },
    /// A batch of samples for one series.
    Samples {
        /// Shard-local series id.
        series: u32,
        /// The batch.
        samples: Vec<Sample>,
    },
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// The frames of the append in progress (one `write` per append).
    buf: Vec<u8>,
    bytes_written: u64,
}

/// Result of opening a WAL: the handle plus everything replayed.
#[derive(Debug)]
pub struct WalRecovery {
    /// The open log, positioned for appending.
    pub wal: Wal,
    /// Sequence number of the raw segment this log's records will be
    /// flushed to; `None` for a log written before headers carried it.
    pub flushes_to: Option<u64>,
    /// Records recovered in write order.
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated (0 on a clean log).
    pub truncated_bytes: u64,
}

fn header(flushes_to: u64) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..MAGIC.len()].copy_from_slice(MAGIC);
    h[MAGIC.len()..].copy_from_slice(&flushes_to.to_le_bytes());
    h
}

impl Wal {
    /// Open and recover the log at `path`. An absent, empty or
    /// unrecognisable file becomes a fresh log that will flush to
    /// segment `flushes_to`.
    pub fn open(path: &Path, flushes_to: u64) -> Result<WalRecovery, StoreError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;

        let recognised = if data.len() >= HEADER_LEN && data.starts_with(MAGIC) {
            let seq = u64::from_le_bytes(data[MAGIC.len()..HEADER_LEN].try_into().unwrap());
            Some((HEADER_LEN, Some(seq)))
        } else if data.starts_with(MAGIC_V1) {
            Some((MAGIC_V1.len(), None))
        } else {
            None
        };
        let Some((body_start, target)) = recognised else {
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header(flushes_to))?;
            return Ok(WalRecovery {
                wal: Wal {
                    path: path.to_path_buf(),
                    file,
                    buf: Vec::new(),
                    bytes_written: HEADER_LEN as u64,
                },
                flushes_to: Some(flushes_to),
                records: Vec::new(),
                truncated_bytes: data.len() as u64,
            });
        };

        let mut records = Vec::new();
        let mut pos = body_start;
        while let Some(frame_header) = data.get(pos..pos + 8) {
            let len = u32::from_le_bytes(frame_header[0..4].try_into().unwrap());
            let crc = u32::from_le_bytes(frame_header[4..8].try_into().unwrap());
            if len == 0 || len > MAX_FRAME {
                break;
            }
            let Some(payload) = data.get(pos + 8..pos + 8 + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            let Some(record) = decode_payload(payload) else {
                break;
            };
            records.push(record);
            pos += 8 + len as usize;
        }
        if pos < data.len() {
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(WalRecovery {
            wal: Wal {
                path: path.to_path_buf(),
                file,
                buf: Vec::new(),
                bytes_written: pos as u64,
            },
            flushes_to: target,
            records,
            truncated_bytes: (data.len() - pos) as u64,
        })
    }

    /// Reserve a frame header in `buf`; the payload follows it.
    fn begin_frame(&mut self, kind: u8) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; 8]);
        self.buf.push(kind);
        at
    }

    /// Fill in the length and CRC of the frame begun at `at`.
    fn end_frame(&mut self, at: usize) {
        let payload = &self.buf[at + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Append series registrations and sample batches with a single
    /// `write` syscall.
    ///
    /// `registrations` are `(series id, node, monitor)`; `rows` must be
    /// grouped by series id, and every run of one id becomes one
    /// `Samples` frame. Each frame carries its own CRC, so a crash in
    /// the middle of the write loses only the torn suffix — but the
    /// frames are concatenated in memory first, so a whole ingest batch
    /// (registrations of series new to this log included) costs one
    /// kernel round-trip instead of one per series.
    pub fn append_samples_multi<'a>(
        &mut self,
        registrations: impl IntoIterator<Item = (u32, u32, &'a str)>,
        rows: &[(u32, Sample)],
    ) -> Result<(), StoreError> {
        self.buf.clear();
        for (series, node, monitor) in registrations {
            let at = self.begin_frame(KIND_ADD_SERIES);
            self.buf.extend_from_slice(&series.to_le_bytes());
            self.buf.extend_from_slice(&node.to_le_bytes());
            self.buf
                .extend_from_slice(&(monitor.len() as u16).to_le_bytes());
            self.buf.extend_from_slice(monitor.as_bytes());
            self.end_frame(at);
        }
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            // a frame the reader would reject as oversized is split
            for part in run.chunks(MAX_FRAME_SAMPLES) {
                let at = self.begin_frame(KIND_SAMPLES);
                self.buf.extend_from_slice(&part[0].0.to_le_bytes());
                self.buf
                    .extend_from_slice(&(part.len() as u32).to_le_bytes());
                for (_, s) in part {
                    self.buf.extend_from_slice(&s.time.as_nanos().to_le_bytes());
                    self.buf.extend_from_slice(&s.value.to_bits().to_le_bytes());
                }
                self.end_frame(at);
            }
        }
        self.file.write_all(&self.buf)?;
        self.bytes_written += self.buf.len() as u64;
        Ok(())
    }

    /// Restart the log after its contents have been flushed into a
    /// durable segment: atomically replace the file with an empty one
    /// whose records will flush to segment `flushes_to`.
    pub fn checkpoint(&mut self, flushes_to: u64) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&header(flushes_to))?;
            // a failed fsync must not be published by the rename below
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.bytes_written = HEADER_LEN as u64;
        Ok(())
    }

    /// Bytes in the log (header included).
    pub fn len_bytes(&self) -> u64 {
        self.bytes_written
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let (&kind, rest) = payload.split_first()?;
    match kind {
        KIND_ADD_SERIES => {
            let series = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?);
            let node = u32::from_le_bytes(rest.get(4..8)?.try_into().ok()?);
            let name_len = u16::from_le_bytes(rest.get(8..10)?.try_into().ok()?) as usize;
            let name = rest.get(10..10 + name_len)?;
            if rest.len() != 10 + name_len {
                return None;
            }
            Some(WalRecord::AddSeries {
                series,
                node,
                monitor: String::from_utf8(name.to_vec()).ok()?,
            })
        }
        KIND_SAMPLES => {
            let series = u32::from_le_bytes(rest.get(0..4)?.try_into().ok()?);
            let count = u32::from_le_bytes(rest.get(4..8)?.try_into().ok()?) as usize;
            let body = rest.get(8..)?;
            if body.len() != count * 16 {
                return None;
            }
            let samples = body
                .chunks_exact(16)
                .map(|c| Sample {
                    time: SimTime::from_nanos(u64::from_le_bytes(c[0..8].try_into().unwrap())),
                    value: f64::from_bits(u64::from_le_bytes(c[8..16].try_into().unwrap())),
                })
                .collect();
            Some(WalRecord::Samples { series, samples })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn s(secs: u64, value: f64) -> Sample {
        Sample {
            time: SimTime::ZERO + SimDuration::from_secs(secs),
            value,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cwx-store-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_replay() {
        let dir = tmp_dir("replay");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, 3).unwrap().wal;
        wal.append_samples_multi([(0, 7, "cpu.util")], &[(0, s(1, 0.5)), (0, s(2, 0.75))])
            .unwrap();
        drop(wal);

        let rec = Wal::open(&path, 9).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(
            rec.flushes_to,
            Some(3),
            "the header, not the caller, names the target"
        );
        assert_eq!(
            rec.records,
            vec![
                WalRecord::AddSeries {
                    series: 0,
                    node: 7,
                    monitor: "cpu.util".into()
                },
                WalRecord::Samples {
                    series: 0,
                    samples: vec![s(1, 0.5), s(2, 0.75)]
                },
            ]
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, 1).unwrap().wal;
        wal.append_samples_multi([(0, 1, "m")], &[(0, s(1, 1.0))])
            .unwrap();
        let good_len = wal.len_bytes();
        wal.append_samples_multi([], &[(0, s(2, 2.0))]).unwrap();
        drop(wal);

        // tear the last record in half
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(good_len + (full - good_len) / 2).unwrap();
        drop(f);

        let rec = Wal::open(&path, 1).unwrap();
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.records.len(), 2, "intact prefix replays");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            good_len,
            "tail removed"
        );

        // the log keeps working after truncation
        let mut wal = rec.wal;
        wal.append_samples_multi([], &[(0, s(3, 3.0))]).unwrap();
        drop(wal);
        assert_eq!(Wal::open(&path, 1).unwrap().records.len(), 3);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corrupt_byte_truncates_from_there() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, 1).unwrap().wal;
        for i in 0..5 {
            wal.append_samples_multi([], &[(0, s(i, i as f64))])
                .unwrap();
        }
        drop(wal);

        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xff;
        std::fs::write(&path, &data).unwrap();

        let rec = Wal::open(&path, 1).unwrap();
        assert!(rec.records.len() < 5, "records at/after the flip are gone");
        assert!(rec.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn multi_append_replays_as_individual_frames() {
        let dir = tmp_dir("multi");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, 1).unwrap().wal;
        let before = wal.len_bytes();
        wal.append_samples_multi(
            [(0, 4, "a"), (1, 4, "b")],
            &[(0, s(1, 1.0)), (1, s(2, 2.0)), (1, s(3, 3.0))],
        )
        .unwrap();
        // registrations first, then one frame per run of a series id
        let expect = vec![
            WalRecord::AddSeries {
                series: 0,
                node: 4,
                monitor: "a".into(),
            },
            WalRecord::AddSeries {
                series: 1,
                node: 4,
                monitor: "b".into(),
            },
            WalRecord::Samples {
                series: 0,
                samples: vec![s(1, 1.0)],
            },
            WalRecord::Samples {
                series: 1,
                samples: vec![s(2, 2.0), s(3, 3.0)],
            },
        ];
        assert_eq!(
            wal.len_bytes() - before,
            2 * (8 + 12) + (8 + 9 + 16) + (8 + 9 + 32),
            "the frame format of one append per record"
        );
        drop(wal);

        let rec = Wal::open(&path, 1).unwrap();
        assert_eq!(rec.truncated_bytes, 0);
        assert_eq!(rec.records, expect);

        // tearing inside the last frame keeps the rest: a crash in the
        // middle of the batched write loses only the torn suffix
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 8).unwrap();
        drop(f);
        let rec = Wal::open(&path, 1).unwrap();
        assert!(rec.truncated_bytes > 0);
        assert_eq!(rec.records, expect[..3]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_empties_the_log_and_names_the_next_target() {
        let dir = tmp_dir("checkpoint");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path, 1).unwrap().wal;
        wal.append_samples_multi([(0, 1, "m")], &[(0, s(1, 1.0))])
            .unwrap();
        wal.checkpoint(2).unwrap();
        wal.append_samples_multi([], &[(0, s(2, 2.0))]).unwrap();
        drop(wal);
        let rec = Wal::open(&path, 7).unwrap();
        assert_eq!(rec.flushes_to, Some(2));
        assert_eq!(rec.records.len(), 1, "only post-checkpoint records remain");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn headerless_v1_log_replays_without_a_target() {
        let dir = tmp_dir("v1");
        let path = dir.join("wal.log");
        // a frame as the previous format wrote it, after the 8-byte magic
        let mut payload = vec![KIND_SAMPLES];
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&s(1, 1.5).time.as_nanos().to_le_bytes());
        payload.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        let mut data = MAGIC_V1.to_vec();
        data.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        data.extend_from_slice(&crc32(&payload).to_le_bytes());
        data.extend_from_slice(&payload);
        std::fs::write(&path, &data).unwrap();

        let rec = Wal::open(&path, 4).unwrap();
        assert_eq!(rec.flushes_to, None);
        assert_eq!(
            rec.records,
            vec![WalRecord::Samples {
                series: 5,
                samples: vec![s(1, 1.5)]
            }]
        );
        // garbage where a header should be restarts the log
        std::fs::write(&path, b"not a log").unwrap();
        let rec = Wal::open(&path, 4).unwrap();
        assert_eq!((rec.flushes_to, rec.records.len()), (Some(4), 0));
        assert_eq!(rec.truncated_bytes, 9);
        let _ = std::fs::remove_dir_all(dir);
    }
}
