//! Byte-level encodings shared by the WAL and segment formats.
//!
//! * LEB128 varints for unsigned integers,
//! * zigzag mapping for signed deltas,
//! * delta-of-delta timestamp compression (Gorilla-style, byte-aligned),
//! * tagged f64 value columns: a decimal column as zigzag deltas of
//!   scaled integers, anything else as an XOR chain of bit patterns,
//! * exact decimal sums ([`decimal_sum`]), which keep a tier bucket's
//!   sum a short decimal that such a column stores as one,
//! * CRC32 (IEEE) for record and file checksums.

/// Errors from decoding a varint stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Ran out of input mid-value.
    UnexpectedEnd,
    /// A varint ran longer than 10 bytes (not a valid u64).
    Overflow,
    /// A value column opened with a tag no encoder writes.
    UnknownColumnTag(u8),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "input ended inside a value"),
            CodecError::Overflow => write!(f, "varint longer than 10 bytes"),
            CodecError::UnknownColumnTag(tag) => write!(f, "unknown value column tag {tag}"),
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

/// Largest decimal exponent a value column may be scaled by: a column
/// needing more than six decimals is stored as an XOR chain.
const MAX_DECIMAL_EXP: u8 = 6;

/// Column tag of an XOR chain; `1 + e` tags a column scaled by `10^e`.
const XOR_TAG: u8 = 0;

const POW10: [f64; MAX_DECIMAL_EXP as usize + 1] = [1.0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6];

/// 2^53: every integer of smaller magnitude is an exact f64.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Bytes [`put_uvarint`] spends on `v`.
fn uvarint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Bytes the XOR chain of `values` takes after its tag.
fn xor_chain_len(values: &[f64]) -> usize {
    let mut prev = 0u64;
    values
        .iter()
        .map(|v| {
            let bits = v.to_bits();
            let len = uvarint_len(prev ^ bits);
            prev = bits;
            len
        })
        .sum()
}

/// `v` as the integer `m` with `m as f64 / 10^e` bit-equal to `v`, if
/// there is one with |m| < 2^53. `-0.0`, NaN and the infinities have
/// none.
fn scaled(v: f64, e: usize) -> Option<i64> {
    let m = (v * POW10[e]).round();
    if m.is_nan() || m.abs() >= EXACT_INT_LIMIT {
        return None;
    }
    let m = m as i64;
    ((m as f64 / POW10[e]).to_bits() == v.to_bits()).then_some(m)
}

/// The smallest exponent at which every value looks decimal, or `None`
/// past [`MAX_DECIMAL_EXP`]. A value exact at `e` is exact at any larger
/// exponent too (its scaled integer stays exact, and the division is
/// correctly rounded), so one pass that only ever raises `e` finds it;
/// [`put_values`] re-checks every value at the final `e` regardless.
fn decimal_exponent(values: &[f64]) -> Option<usize> {
    let mut e = 0;
    for &v in values {
        while scaled(v, e).is_none() {
            e += 1;
            if e > MAX_DECIMAL_EXP as usize {
                return None;
            }
        }
    }
    Some(e)
}

/// The sum of `values` as one correctly rounded division, `Σm / 10^e`:
/// `m` are the values' scaled integers at the smallest `e` in
/// `0..=MAX_DECIMAL_EXP` at which every value is decimal. `None` when
/// some value is not, or when |Σm| reaches 2^53 (no longer exact).
///
/// So the sum of two-decimal readings is itself a two-decimal value,
/// whichever order and grouping the readings are summed in, and a
/// column of such sums is stored as scaled-integer deltas. One pass:
/// raising `e` rescales the running `Σm` by 10, which is what the
/// values summed so far scale to (see `decimal_exponent`).
pub fn decimal_sum(values: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut e, mut sum) = (0usize, 0i64);
    for v in values {
        let m = loop {
            if let Some(m) = scaled(v, e) {
                break m;
            }
            e += 1;
            if e > MAX_DECIMAL_EXP as usize {
                return None;
            }
            sum = sum.checked_mul(10)?;
        };
        sum = sum.checked_add(m)?;
    }
    ((sum.unsigned_abs() as f64) < EXACT_INT_LIMIT).then(|| sum as f64 / POW10[e])
}

/// Encode one f64 value column, opening with a one-byte tag:
///
/// * `1 + e`: every value is bit-equal to `m / 10^e` for an integer
///   |m| < 2^53, at the smallest `e` in `0..=MAX_DECIMAL_EXP`; the
///   column is the zigzag varint deltas of `m`. Integer counters and
///   two-decimal readings cost a byte or two a value.
/// * `0`: an XOR chain, the first value's bits as a varint, then
///   `prev ^ cur` varints, for every other column — ratios, `-0.0`,
///   NaN, infinities, misrounded readings — and for a decimal column
///   the chain would encode smaller. So no column costs more than one
///   byte over the bare chain. A repeated value costs one byte, but
///   LEB128 sheds only *high* zero bytes, so a changed value costs
///   most of its eight.
pub fn put_values(out: &mut Vec<u8>, values: &[f64]) {
    let start = out.len();
    if let Some(e) = decimal_exponent(values) {
        out.push(1 + e as u8);
        let mut prev = 0i64;
        let exact = values.iter().all(|&v| match scaled(v, e) {
            Some(m) => {
                put_uvarint(out, zigzag(m.wrapping_sub(prev)));
                prev = m;
                true
            }
            None => false,
        });
        if exact && out.len() - start - 1 < xor_chain_len(values) {
            return;
        }
        out.truncate(start);
    }
    out.push(XOR_TAG);
    let mut prev = 0u64;
    for &v in values {
        let bits = v.to_bits();
        put_uvarint(out, prev ^ bits);
        prev = bits;
    }
}

/// Decode `count` values of a column written by [`put_values`], handing
/// each to `each` in order. Bit patterns (NaN payloads included)
/// round-trip exactly.
pub fn for_each_value(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    mut each: impl FnMut(f64),
) -> Result<(), CodecError> {
    let tag = *buf.get(*pos).ok_or(CodecError::UnexpectedEnd)?;
    *pos += 1;
    if tag == XOR_TAG {
        let mut prev = 0u64;
        for _ in 0..count {
            prev ^= get_uvarint(buf, pos)?;
            each(f64::from_bits(prev));
        }
        return Ok(());
    }
    let scale = *POW10
        .get(tag as usize - 1)
        .ok_or(CodecError::UnknownColumnTag(tag))?;
    let mut m = 0i64;
    for _ in 0..count {
        m = m.wrapping_add(unzigzag(get_uvarint(buf, pos)?));
        each(m as f64 / scale);
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
    use proptest::prelude::*;

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

    fn encode(values: &[f64]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_values(&mut buf, values);
        buf
    }

    /// Decode a whole buffer, demanding it is consumed exactly.
    fn decode(buf: &[u8], count: usize) -> Result<Vec<f64>, CodecError> {
        let mut pos = 0;
        let back = get_values(buf, &mut pos, count)?;
        assert_eq!(pos, buf.len(), "column fully consumed");
        Ok(back)
    }

    /// Bytes of the untagged XOR chain alone, counted by encoding it.
    fn bare_chain_len(values: &[f64]) -> usize {
        let mut buf = Vec::new();
        let mut prev = 0u64;
        for v in values {
            put_uvarint(&mut buf, prev ^ v.to_bits());
            prev = v.to_bits();
        }
        buf.len()
    }

    fn assert_bit_exact(values: &[f64]) -> Vec<u8> {
        let buf = encode(values);
        let back = decode(&buf, values.len()).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a:?} came back as {b:?}");
        }
        assert!(
            buf.len() <= bare_chain_len(values) + 1,
            "{} bytes against a {}-byte chain",
            buf.len(),
            bare_chain_len(values)
        );
        buf
    }

    #[test]
    fn decimal_columns_take_the_smallest_exponent() {
        let cases: [(&[f64], u8); 5] = [
            (&[3.0, 4.0, 1e15, -7.0], 1),
            (&[0.5, 12.0, 0.25, 13.75], 1 + 2),
            (&[0.01, 99.99, 50.5], 1 + 2),
            (&[1.234567, 0.0], 1 + 6),
            // nothing to scale: a bare tag-0 chain
            (&[], 0),
        ];
        for (values, tag) in cases {
            assert_eq!(assert_bit_exact(values)[0], tag, "{values:?}");
        }
    }

    #[test]
    fn non_decimal_columns_fall_back_to_the_xor_chain() {
        for values in [
            vec![1.0, -0.0, 2.0],
            vec![1.0, f64::NAN],
            vec![f64::INFINITY, 1.0],
            vec![1.0 / 3.0, 0.5],
            vec![0.1 + 0.2],
            vec![1.2345678],
            vec![9_007_199_254_740_992.0],
            vec![f64::from_bits(1)],
        ] {
            assert_eq!(assert_bit_exact(&values)[0], 0, "{values:?}");
        }
        // decimal at e = 1, but near 2^49 the chain's XORs stay in the
        // low bits while the deltas of the scaled integers do not
        let mut wide: Vec<f64> = (0..64)
            .map(|i| (1u64 << 49) as f64 + (i * 7919 % 1000) as f64)
            .collect();
        wide.push(0.5);
        assert_eq!(assert_bit_exact(&wide)[0], 0);
    }

    #[test]
    fn a_two_decimal_walk_costs_a_byte_or_two_a_value() {
        let values: Vec<f64> = (0..1000)
            .map(|i: i64| (5_000 + (i * 37 % 101) - 50) as f64 / 100.0)
            .collect();
        let buf = assert_bit_exact(&values);
        assert_eq!(buf[0], 1 + 2);
        assert!(buf.len() <= 2 * values.len(), "{} bytes", buf.len());
        assert!(bare_chain_len(&values) > 6 * values.len());
    }

    #[test]
    fn decimal_sums_divide_once() {
        // 0.1 + 0.2 + 0.3 is 0.6000000000000001 added in f64
        assert_eq!(decimal_sum([0.1, 0.2, 0.3]), Some(0.6));
        assert_eq!(decimal_sum([0.25, 1.5, 3.0]), Some(4.75));
        let readings: Vec<f64> = (0..1000).map(|i| (5_000 + i % 97) as f64 / 100.0).collect();
        let m: i64 = (0..1000).map(|i| 5_000 + i % 97).sum();
        let want = m as f64 / 100.0;
        assert_eq!(decimal_sum(readings.iter().copied()), Some(want));
        // a partial sum is a decimal too, so sums of sums are exact
        let parts = readings
            .chunks(7)
            .map(|c| decimal_sum(c.iter().copied()).unwrap());
        assert_eq!(decimal_sum(parts), Some(want));
        assert_eq!(decimal_sum([]), Some(0.0));
        for values in [
            vec![1.0 / 3.0],
            vec![1.0, f64::NAN],
            vec![-0.0],
            vec![1.2345678],
            vec![4e15, 4e15, 4e15],
        ] {
            assert_eq!(decimal_sum(values.iter().copied()), None, "{values:?}");
        }
    }

    #[test]
    fn an_unknown_column_tag_is_an_error() {
        for tag in 1 + MAX_DECIMAL_EXP + 1..=u8::MAX {
            assert_eq!(
                decode(&[tag, 0, 0], 2),
                Err(CodecError::UnknownColumnTag(tag))
            );
        }
        assert_eq!(decode(&[], 0), Err(CodecError::UnexpectedEnd));
    }

    /// One value of a mixed column, by `kind`: arbitrary bits, a
    /// decimal at exponent `e` (small or near 2^53), a special, or a
    /// decimal nudged one ulp off.
    fn mixed_value(kind: u8, bits: u64, e: usize) -> f64 {
        let small = (bits % (1 << 20)) as i64 - (1 << 19);
        match kind {
            0 => f64::from_bits(bits),
            1 | 2 => small as f64 / POW10[e],
            3 => {
                let m = (bits >> 11) as i64;
                (if bits & 1 == 1 { -m } else { m }) as f64 / POW10[e]
            }
            4 => {
                let specials = [
                    -0.0,
                    f64::from_bits(0x7ff8_0000_0000_0000 | (bits & 0xf_ffff)),
                    f64::from_bits(0xfff0_0000_0000_0001 | (bits & 0xffff)),
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::from_bits(bits & 0x000f_ffff_ffff_ffff),
                    EXACT_INT_LIMIT,
                    -EXACT_INT_LIMIT - 2.0,
                    1e300,
                    f64::MIN_POSITIVE,
                ];
                specials[(bits % specials.len() as u64) as usize]
            }
            _ => f64::from_bits((small as f64 / POW10[e]).to_bits() ^ 1),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bit_patterns_round_trip(
            bits in collection::vec(any::<u64>(), 0..120),
        ) {
            let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            assert_bit_exact(&values);
        }

        #[test]
        fn mixed_columns_round_trip_within_a_byte_of_the_chain(
            parts in collection::vec(
                (0u8..6, any::<u64>(), 0usize..=MAX_DECIMAL_EXP as usize),
                0..120,
            ),
        ) {
            let values: Vec<f64> = parts.iter().map(|&(k, b, e)| mixed_value(k, b, e)).collect();
            assert_bit_exact(&values);
        }

        #[test]
        fn decimal_columns_round_trip_at_every_exponent(
            e in 0usize..=MAX_DECIMAL_EXP as usize,
            bits in collection::vec(any::<u64>(), 1..120),
            big in any::<bool>(),
        ) {
            let kind = if big { 3 } else { 1 };
            let values: Vec<f64> = bits.iter().map(|&b| mixed_value(kind, b, e)).collect();
            let tag = assert_bit_exact(&values)[0];
            prop_assert!(tag as usize <= 1 + e, "tag {} for exponent {}", tag, e);
        }

        #[test]
        fn garbage_columns_decode_or_fail_without_panicking(
            bytes in collection::vec(any::<u8>(), 0..64),
            count in 0usize..80,
        ) {
            let mut pos = 0;
            if let Err(CodecError::UnknownColumnTag(tag)) = get_values(&bytes, &mut pos, count) {
                prop_assert!(tag > 1 + MAX_DECIMAL_EXP);
            }
        }
    }
}
