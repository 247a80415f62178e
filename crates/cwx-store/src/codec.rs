//! Byte-level encodings shared by the WAL and segment formats.
//!
//! * LEB128 varints for unsigned integers,
//! * zigzag mapping for signed deltas,
//! * delta-of-delta timestamp compression (Gorilla-style, byte-aligned),
//! * XOR chaining for f64 values (consecutive equal values cost 1 byte),
//! * CRC32 (IEEE) for record and file checksums.

/// Errors from decoding a varint stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input mid-value.
    UnexpectedEnd,
    /// A varint ran longer than 10 bytes (not a valid u64).
    Overflow,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "input ended inside a value"),
            CodecError::Overflow => write!(f, "varint longer than 10 bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append `v` as a LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint from `buf[*pos..]`, advancing `pos`.
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError::Overflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError::Overflow);
        }
    }
}

/// Map a signed value onto an unsigned one with small absolute values
/// staying small (0, -1, 1, -2 → 0, 1, 2, 3).
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encode a sorted-or-not timestamp sequence: first value as a varint,
/// then delta-of-delta zigzag varints. Monotonic fixed-interval series
/// (the common monitoring case) encode to ~1 byte per timestamp.
pub fn put_timestamps(out: &mut Vec<u8>, times: &[u64]) {
    let Some(&first) = times.first() else { return };
    put_uvarint(out, first);
    let mut prev = first;
    let mut prev_delta: i64 = 0;
    for &t in &times[1..] {
        // wrapping arithmetic: round-trips any u64, not just the
        // monotonic nanosecond counters this was tuned for
        let delta = t.wrapping_sub(prev) as i64;
        put_uvarint(out, zigzag(delta.wrapping_sub(prev_delta)));
        prev_delta = delta;
        prev = t;
    }
}

/// Decode `count` timestamps written by [`put_timestamps`], handing
/// each to `each` in order (segment decode writes them straight into
/// its output rows).
pub fn for_each_timestamp(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    mut each: impl FnMut(u64),
) -> Result<(), CodecError> {
    if count == 0 {
        return Ok(());
    }
    let mut prev = get_uvarint(buf, pos)?;
    each(prev);
    let mut prev_delta: i64 = 0;
    for _ in 1..count {
        let dd = unzigzag(get_uvarint(buf, pos)?);
        let delta = prev_delta.wrapping_add(dd);
        prev = prev.wrapping_add(delta as u64);
        prev_delta = delta;
        each(prev);
    }
    Ok(())
}

/// Decode `count` timestamps written by [`put_timestamps`].
pub fn get_timestamps(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::with_capacity(count.min(buf.len()));
    for_each_timestamp(buf, pos, count, |t| out.push(t))?;
    Ok(out)
}

/// Encode f64 values as an XOR chain over their bit patterns: the first
/// value's bits as a varint, then `prev ^ cur` varints. Slowly-changing
/// monitor values share exponent/sign bits, so XOR leaves mostly low
/// zero bits; runs of identical values cost one byte each.
pub fn put_values(out: &mut Vec<u8>, values: &[f64]) {
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        put_uvarint(out, prev ^ bits);
        prev = bits;
    }
}

/// Decode `count` values written by [`put_values`], handing each to
/// `each` in order. Bit patterns (NaN payloads included) round-trip
/// exactly.
pub fn for_each_value(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    mut each: impl FnMut(f64),
) -> Result<(), CodecError> {
    let mut prev = 0u64;
    for _ in 0..count {
        prev ^= get_uvarint(buf, pos)?;
        each(f64::from_bits(prev));
    }
    Ok(())
}

/// Decode `count` values written by [`put_values`].
pub fn get_values(buf: &[u8], pos: &mut usize, count: usize) -> Result<Vec<f64>, CodecError> {
    let mut out = Vec::with_capacity(count.min(buf.len()));
    for_each_value(buf, pos, count, |v| out.push(v))?;
    Ok(out)
}

/// CRC32 (IEEE 802.3 polynomial, reflected): the workspace's one
/// implementation, re-exported where the store's formats look for it.
pub use cwx_util::hash::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_uvarint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(
            get_uvarint(&buf[..buf.len() - 1], &mut pos),
            Err(CodecError::UnexpectedEnd)
        );
        let bad = [0xff; 11];
        let mut pos = 0;
        assert_eq!(get_uvarint(&bad, &mut pos), Err(CodecError::Overflow));
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn fixed_interval_timestamps_compress_to_a_byte_each() {
        let times: Vec<u64> = (0..1000u64).map(|i| i * 5_000_000_000).collect();
        let mut buf = Vec::new();
        put_timestamps(&mut buf, &times);
        // first ts (1 byte) + first delta (~5 bytes) + 998 × 1-byte zero dd
        assert!(buf.len() < 1010, "{} bytes for 1000 timestamps", buf.len());
        let mut pos = 0;
        assert_eq!(get_timestamps(&buf, &mut pos, times.len()).unwrap(), times);
    }

    #[test]
    fn values_round_trip_including_specials() {
        let values = [
            0.0,
            -0.0,
            1.5,
            1.5,
            1.5,
            f64::NAN,
            f64::INFINITY,
            -123.456,
            f64::MIN,
        ];
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        let mut pos = 0;
        let back = get_values(&buf, &mut pos, values.len()).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn repeated_values_cost_one_byte() {
        let values = vec![42.125f64; 500];
        let mut buf = Vec::new();
        put_values(&mut buf, &values);
        assert!(buf.len() <= 500 + 9, "{} bytes for 500 repeats", buf.len());
    }
}
