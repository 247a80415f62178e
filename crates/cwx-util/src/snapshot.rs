//! The `cwx-snapshot-v1` container: a self-checking binary envelope for
//! captured world state.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "CWXSNAP1"
//! version  u32      container version (currently 1)
//! crc      u32      CRC-32 (IEEE) of everything after this field
//! body:
//!   identity   u64  prefix-identity hash (seed + mode + fault prefix)
//!   t_nanos    u64  capture time, simulated nanoseconds
//!   mode       u8   0 = chaos, 1 = federation
//!   n_sections u32
//!   sections   n ×  (name_len u32, name utf-8, data_len u32, data)
//! ```
//!
//! The container deliberately stores *named sections* rather than one
//! opaque blob: when a resumed replay diverges from the capture, the
//! runner reports the first divergent section by name ("hw", "rng",
//! "audit", …), which turns a determinism regression from a mystery
//! into a subsystem pointer.
//!
//! Decoding is total: truncated, bit-flipped or version-bumped input
//! yields a single-line [`SnapshotError`] — never a panic — so the CLI
//! can print it verbatim and exit 3.

use std::fmt;

use crate::hash::crc32;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CWXSNAP1";
/// Container version written by this build.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Capture mode tag: a single-cluster chaos world.
pub const MODE_CHAOS: u8 = 0;
/// Capture mode tag: a federation (sub-worlds + head).
pub const MODE_FEDERATION: u8 = 1;

/// A single-line snapshot decode/validate error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError(pub String);

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SnapshotError {}

fn err(msg: impl Into<String>) -> SnapshotError {
    SnapshotError(msg.into())
}

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// A decoded (or to-be-encoded) snapshot: header metadata plus named
/// state sections in capture order.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotFile {
    /// Prefix-identity hash: a fingerprint of everything that shapes
    /// the world up to `t_nanos` (seed, cluster/federation spec, the
    /// fault prefix). Resume refuses a manifest whose identity differs.
    pub identity: u64,
    /// Capture time in simulated nanoseconds.
    pub t_nanos: u64,
    /// [`MODE_CHAOS`] or [`MODE_FEDERATION`].
    pub mode: u8,
    /// Named canonical state sections, in capture order.
    pub sections: Vec<(String, Vec<u8>)>,
}

impl SnapshotFile {
    /// Serialize to the on-disk `cwx-snapshot-v1` format.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::new();
        put_u64(&mut body, self.identity);
        put_u64(&mut body, self.t_nanos);
        body.push(self.mode);
        put_u32(&mut body, self.sections.len() as u32);
        for (name, data) in &self.sections {
            put_str(&mut body, name);
            put_bytes(&mut body, data);
        }
        let mut out = Vec::with_capacity(16 + body.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Parse and validate a snapshot file. Any defect — wrong magic,
    /// unsupported version, CRC mismatch, truncation — is a one-line
    /// error; this function never panics on hostile input.
    pub fn decode(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
        if bytes.len() < 16 {
            return Err(err(format!(
                "not a snapshot: {} bytes, shorter than the 16-byte header",
                bytes.len()
            )));
        }
        if bytes[..8] != SNAPSHOT_MAGIC {
            return Err(err("not a snapshot: bad magic (expected \"CWXSNAP1\")"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != SNAPSHOT_VERSION {
            return Err(err(format!(
                "unsupported snapshot version {version} (this build reads version {SNAPSHOT_VERSION})"
            )));
        }
        let want_crc = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        let body = &bytes[16..];
        let got_crc = crc32(body);
        if got_crc != want_crc {
            return Err(err(format!(
                "snapshot corrupt: CRC mismatch (header {want_crc:08x}, body {got_crc:08x})"
            )));
        }
        let mut r = Reader { buf: body, pos: 0 };
        let identity = r.u64("identity")?;
        let t_nanos = r.u64("t_nanos")?;
        let mode = r.u8("mode")?;
        if mode > MODE_FEDERATION {
            return Err(err(format!("snapshot corrupt: unknown mode tag {mode}")));
        }
        let n = r.u32("section count")?;
        let mut sections = Vec::new();
        for i in 0..n {
            let name = r.str(&format!("section {i} name"))?;
            let data = r.bytes(&format!("section {i} data"))?.to_vec();
            sections.push((name, data));
        }
        if r.pos != r.buf.len() {
            return Err(err(format!(
                "snapshot corrupt: {} trailing bytes after the last section",
                r.buf.len() - r.pos
            )));
        }
        Ok(SnapshotFile {
            identity,
            t_nanos,
            mode,
            sections,
        })
    }

    /// Look up a section by name.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, d)| d.as_slice())
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(err(format!(
                "snapshot truncated while reading {what} (need {n} bytes, have {})",
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn bytes(&mut self, what: &str) -> Result<&'a [u8], SnapshotError> {
        let n = self.u32(what)? as usize;
        self.take(n, what)
    }

    fn str(&mut self, what: &str) -> Result<String, SnapshotError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| err(format!("snapshot corrupt: {what} is not UTF-8")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotFile {
        SnapshotFile {
            identity: 0xdead_beef_cafe_f00d,
            t_nanos: 1_234_567_890,
            mode: MODE_CHAOS,
            sections: vec![
                ("clock".into(), vec![1, 2, 3]),
                ("hw".into(), vec![0; 300]),
                ("empty".into(), vec![]),
            ],
        }
    }

    #[test]
    fn round_trips() {
        let s = sample();
        let bytes = s.encode();
        let back = SnapshotFile::decode(&bytes).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.section("clock"), Some(&[1u8, 2, 3][..]));
        assert_eq!(back.section("missing"), None);
    }

    #[test]
    fn every_truncation_is_a_single_line_error() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            let e = SnapshotFile::decode(&bytes[..len]).expect_err("truncation must fail");
            assert!(!e.to_string().contains('\n'), "multi-line error: {e}");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            // a flip in the CRC field itself, the magic, the version or
            // the body must all be caught — decode may never succeed on
            // a modified file, and may never panic
            assert!(
                SnapshotFile::decode(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected_by_name() {
        let mut bytes = sample().encode();
        bytes[8] = 9; // version field
                      // fix the CRC so only the version differs? CRC covers the body,
                      // not the header, so the version check fires directly.
        let e = SnapshotFile::decode(&bytes).expect_err("future version must fail");
        assert!(e.to_string().contains("version 9"), "{e}");
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        let e = SnapshotFile::decode(&bytes).expect_err("bad magic");
        assert!(e.to_string().contains("magic"), "{e}");
    }
}
