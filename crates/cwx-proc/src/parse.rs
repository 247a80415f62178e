//! Low-level byte scanners shared by the a-priori parsers.
//!
//! The paper's third optimization step "takes advantage of the fact
//! that /proc data uses standard ASCII output and ... a priori knowledge
//! about the output format". Concretely that means: no UTF-8 validation,
//! no `str::split_whitespace`, no intermediate `String`s — just scanning
//! a byte slice for digit runs. These helpers are the whole vocabulary
//! the typed parsers need.

use std::collections::HashMap;

/// Advance `pos` past the next unsigned decimal integer in `b` and return
/// it, skipping any non-digit bytes before it. Returns `None` when no
/// digits remain.
#[inline]
pub fn next_u64(b: &[u8], pos: &mut usize) -> Option<u64> {
    let mut i = *pos;
    while i < b.len() && !b[i].is_ascii_digit() {
        i += 1;
    }
    if i == b.len() {
        *pos = i;
        return None;
    }
    let mut v: u64 = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        v = v.wrapping_mul(10).wrapping_add((b[i] - b'0') as u64);
        i += 1;
    }
    *pos = i;
    Some(v)
}

/// Like [`next_u64`] but reads a simple decimal fraction (`123.45`),
/// rounded exactly as `str::parse::<f64>` rounds it. Skips non-digit
/// bytes before the number. `None` when no digits remain.
#[inline]
pub fn next_f64(b: &[u8], pos: &mut usize) -> Option<f64> {
    let mut i = *pos;
    while i < b.len() && !b[i].is_ascii_digit() {
        i += 1;
    }
    if i == b.len() {
        *pos = i;
        return None;
    }
    let start = i;
    // the digits as one integer `int·10^k + frac` (None on overflow),
    // and k once past the point
    let mut mantissa = Some(0u64);
    let mut k: Option<i32> = None;
    while i < b.len() {
        match b[i] {
            c @ b'0'..=b'9' => {
                mantissa = mantissa.and_then(|m| m.checked_mul(10)?.checked_add((c - b'0') as u64));
                k = k.map(|k| k + 1);
            }
            b'.' if k.is_none() => k = Some(0),
            _ => break,
        }
        i += 1;
    }
    *pos = i;
    let k = k.unwrap_or(0);
    match mantissa {
        // both operands are exact (below 2^53, and 10^k for k <= 22), so
        // the one IEEE division is correctly rounded
        Some(m) if m < 1 << 53 && k <= 22 => Some(m as f64 / 10f64.powi(k)),
        _ => std::str::from_utf8(&b[start..i]).ok()?.parse().ok(),
    }
}

/// Advance `pos` to the byte after the next `needle` byte. Returns false
/// if `needle` does not occur.
#[inline]
pub fn skip_past(b: &[u8], pos: &mut usize, needle: u8) -> bool {
    while *pos < b.len() {
        let cur = b[*pos];
        *pos += 1;
        if cur == needle {
            return true;
        }
    }
    false
}

/// Advance `pos` to the start of the next line. Returns false at EOF.
#[inline]
pub fn skip_line(b: &[u8], pos: &mut usize) -> bool {
    skip_past(b, pos, b'\n')
}

/// The *generic, allocating* parser used by the L0/L1 gatherers — the
/// "before" picture in the paper's optimization story.
///
/// Parses `Key: value [unit]` lines (the meminfo shape) into an owned
/// map, allocating a `String` per key. Lines without a value are skipped.
pub fn parse_key_values(text: &str) -> HashMap<String, u64> {
    let mut out = HashMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let Some(key) = parts.next() else { continue };
        let Some(value) = parts.next() else { continue };
        if let Ok(v) = value.parse::<u64>() {
            out.insert(key.trim_end_matches(':').to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn next_u64_walks_numbers() {
        let b = b"cpu  12 345 6";
        let mut pos = 0;
        assert_eq!(next_u64(b, &mut pos), Some(12));
        assert_eq!(next_u64(b, &mut pos), Some(345));
        assert_eq!(next_u64(b, &mut pos), Some(6));
        assert_eq!(next_u64(b, &mut pos), None);
    }

    #[test]
    fn next_u64_empty_and_no_digits() {
        let mut pos = 0;
        assert_eq!(next_u64(b"", &mut pos), None);
        pos = 0;
        assert_eq!(next_u64(b"abc def", &mut pos), None);
    }

    #[test]
    fn next_f64_reads_fractions() {
        let b = b"load: 0.42 1.5 3";
        let mut pos = 0;
        assert_eq!(next_f64(b, &mut pos), Some(0.42));
        assert_eq!(next_f64(b, &mut pos), Some(1.5));
        assert_eq!(next_f64(b, &mut pos), Some(3.0));
        assert_eq!(next_f64(b, &mut pos), None);
    }

    #[test]
    fn next_f64_rounds_like_std_where_int_plus_fraction_did_not() {
        // `1 + 14/100` lands one ulp off the correctly rounded 1.14
        for s in ["1.14", "1.36", "0.005", "999.995", "12345678901234567.5"] {
            let got = next_f64(s.as_bytes(), &mut 0).unwrap();
            assert_eq!(got.to_bits(), s.parse::<f64>().unwrap().to_bits(), "{s}");
        }
        // past 2^53 (and past u64) the digits go to std's parser whole
        let long = "123456789012345678901234567890.25 x";
        let mut pos = 0;
        assert_eq!(
            next_f64(long.as_bytes(), &mut pos),
            Some(1.2345678901234568e29)
        );
        assert_eq!(&long[pos..], " x");
    }

    #[test]
    fn skip_line_moves_to_next_line() {
        let b = b"one\ntwo\n";
        let mut pos = 0;
        assert!(skip_line(b, &mut pos));
        assert_eq!(&b[pos..pos + 3], b"two");
        assert!(skip_line(b, &mut pos));
        assert!(!skip_line(b, &mut pos));
    }

    #[test]
    fn key_values_parses_meminfo_shape() {
        let m = parse_key_values("MemTotal: 1024 kB\nMemFree: 512 kB\nJunk\n");
        assert_eq!(m.get("MemTotal"), Some(&1024));
        assert_eq!(m.get("MemFree"), Some(&512));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn key_values_skips_non_numeric() {
        let m = parse_key_values("A: x\nB: 7\n");
        assert_eq!(m.len(), 1);
        assert_eq!(m.get("B"), Some(&7));
    }

    proptest! {
        #[test]
        fn next_u64_matches_std_parse(v in 0u64..=(u64::MAX / 2), pad in "[a-z :]{0,8}") {
            let s = format!("{pad}{v} tail");
            let mut pos = 0;
            prop_assert_eq!(next_u64(s.as_bytes(), &mut pos), Some(v));
        }

        #[test]
        fn next_f64_close_to_std_parse(int in 0u64..1_000_000, frac in 0u32..100) {
            let s = format!("{int}.{frac:02}");
            let mut pos = 0;
            let got = next_f64(s.as_bytes(), &mut pos).unwrap();
            let want: f64 = s.parse().unwrap();
            prop_assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }

        /// Loads and uptimes as `/proc` prints them: `next_f64` is
        /// `str::parse`, bit for bit.
        #[test]
        fn next_f64_equals_std_parse(int in 0u64..1000, decimals in 1usize..=3, frac in 0u64..1000) {
            let frac = frac % 10u64.pow(decimals as u32);
            let s = format!("{int}.{frac:0decimals$}");
            let mut pos = 0;
            let got = next_f64(s.as_bytes(), &mut pos).unwrap();
            let want: f64 = s.parse().unwrap();
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{}", s);
            prop_assert_eq!(pos, s.len());
        }
    }
}
