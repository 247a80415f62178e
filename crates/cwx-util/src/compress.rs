//! LZSS compression for monitored text data.
//!
//! Paper §5.3.3 (Transmission): monitored data is kept in human-readable
//! /proc text form for platform independence, and "when transmitting the
//! data, we use data compression techniques, which are known to be very
//! effective on text input". The paper does not name the algorithm; we
//! implement LZSS — a dictionary coder of the era that is simple, fast and
//! very effective on the highly repetitive /proc snapshots the agents
//! ship, which preserves the claim being reproduced (substantial byte
//! reduction on text) without pulling in external compression crates.
//!
//! Format (little-endian):
//! * 4-byte magic `CWZ1`
//! * u32 decompressed length
//! * token stream: a flag byte covers the next 8 tokens, LSB first;
//!   flag bit 1 = literal byte, flag bit 0 = match encoded in two bytes as
//!   a 12-bit back-offset (1..=4096) and 4-bit length-3 (3..=18).
//!
//! [`compress`] builds its hash chains per call, as 48 KiB of `u32`
//! positions (8,192 hash buckets and a window-sized ring of links), so
//! its output depends on its input alone. [`decompress`] is total: a
//! frame cannot declare more output than its token stream could produce
//! (a 2-byte match yields at most 18 bytes), so an 8-byte hostile
//! payload is refused instead of reserving 4 GiB.

/// Errors produced when decoding a compressed buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// Input too short to contain the header.
    Truncated,
    /// The 4-byte magic did not match.
    BadMagic,
    /// A match referenced data before the start of the output.
    BadOffset {
        /// Position in the output where the bad reference occurred.
        at: usize,
    },
    /// The token stream ended before the declared length was produced.
    UnexpectedEnd,
    /// More data was produced than the header declared.
    LengthMismatch {
        /// Length declared in the header.
        declared: usize,
        /// Length actually produced.
        produced: usize,
    },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "input truncated before header"),
            DecompressError::BadMagic => write!(f, "bad magic"),
            DecompressError::BadOffset { at } => write!(f, "back-reference out of range at {at}"),
            DecompressError::UnexpectedEnd => write!(f, "token stream ended early"),
            DecompressError::LengthMismatch { declared, produced } => {
                write!(f, "declared {declared} bytes but produced {produced}")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

const MAGIC: &[u8; 4] = b"CWZ1";
const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 18;
/// Cap on hash-chain probes per position; bounds worst-case encode time.
const MAX_CHAIN: usize = 64;
/// Buckets of the 3-byte-prefix hash.
const HASH_BUCKETS: usize = 1 << 13;
/// "No older position" in a `prev` link. Never a real position: an
/// inserted position has at least [`MIN_MATCH`] bytes after it.
const NO_POS: u32 = u32::MAX;

/// Multiplicative hash of 3 bytes into 13 bits.
#[inline]
fn hash3(b: &[u8]) -> usize {
    let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
    ((v.wrapping_mul(0x9E37_79B1)) >> 19) as usize
}

/// The token stream under construction: a flag byte covers the next
/// eight tokens.
struct Tokens {
    out: Vec<u8>,
    flag_pos: usize,
    flag_bit: u8,
}

impl Tokens {
    fn push(&mut self, emit: &[u8], is_literal: bool) {
        if self.flag_bit == 8 {
            self.flag_pos = self.out.len();
            self.out.push(0);
            self.flag_bit = 0;
        }
        if is_literal {
            self.out[self.flag_pos] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
        self.out.extend_from_slice(emit);
    }
}

/// Compress `input` with LZSS.
///
/// The output always round-trips through [`decompress`]. For inputs with
/// no redundancy the output can be up to ~12.5% larger than the input
/// (one flag bit per literal) plus the 8-byte header. Inputs are limited
/// to the 4 GiB the header's length field can declare.
pub fn compress(input: &[u8]) -> Vec<u8> {
    // the header's length field and the chains' positions are u32
    assert!(
        u32::try_from(input.len()).is_ok(),
        "CWZ1 holds at most 4 GiB per buffer"
    );
    // per hash bucket, the most recent position; per ring slot, the
    // previous position with the same hash
    let mut head = vec![NO_POS; HASH_BUCKETS];
    let mut prev = vec![NO_POS; WINDOW];
    let insert = |head: &mut [u32], prev: &mut [u32], pos: usize| {
        if pos + MIN_MATCH <= input.len() {
            let h = hash3(&input[pos..]);
            prev[pos % WINDOW] = head[h];
            head[h] = pos as u32;
        }
    };

    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(input.len() as u32).to_le_bytes());
    let flag_pos = out.len();
    out.push(0);
    let mut tokens = Tokens {
        out,
        flag_pos,
        flag_bit: 0,
    };

    let mut i = 0;
    while i < input.len() {
        // find the longest match within the window via the hash chain
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        if i + MIN_MATCH <= input.len() {
            let mut cand = head[hash3(&input[i..])];
            let mut probes = 0;
            let max_len = MAX_MATCH.min(input.len() - i);
            while cand != NO_POS && probes < MAX_CHAIN {
                let at = cand as usize;
                if i - at > WINDOW {
                    break;
                }
                let mut l = 0;
                while l < max_len && input[at + l] == input[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = i - at;
                    if l == max_len {
                        break;
                    }
                }
                let next = prev[at % WINDOW];
                // only follow strictly older positions (ends the chain
                // at NO_POS too)
                if next >= cand {
                    break;
                }
                cand = next;
                probes += 1;
            }
        }

        if best_len >= MIN_MATCH {
            debug_assert!((1..=WINDOW).contains(&best_off));
            let off = best_off - 1; // store 0-based, 12 bits
            let len_code = (best_len - MIN_MATCH) as u8; // 4 bits
            let b0 = (off & 0xFF) as u8;
            let b1 = (((off >> 8) as u8) << 4) | len_code;
            tokens.push(&[b0, b1], false);
            for k in 0..best_len {
                insert(&mut head, &mut prev, i + k);
            }
            i += best_len;
        } else {
            tokens.push(&[input[i]], true);
            insert(&mut head, &mut prev, i);
            i += 1;
        }
    }
    tokens.out
}

/// Decompress a buffer produced by [`compress`].
///
/// Total on hostile input: the declared length is checked against what
/// the token stream could possibly produce before anything is
/// allocated, so a short frame cannot make the caller reserve gigabytes.
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    if data.len() < 8 {
        return Err(DecompressError::Truncated);
    }
    if &data[0..4] != MAGIC {
        return Err(DecompressError::BadMagic);
    }
    let declared = u32::from_le_bytes(data[4..8].try_into().unwrap()) as usize;
    // the densest token is a 2-byte match producing MAX_MATCH bytes
    if declared > (data.len() - 8).saturating_mul(MAX_MATCH / 2) {
        return Err(DecompressError::UnexpectedEnd);
    }
    let mut out = Vec::with_capacity(declared);
    let mut i = 8;
    'outer: while out.len() < declared {
        if i >= data.len() {
            return Err(DecompressError::UnexpectedEnd);
        }
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if out.len() == declared {
                break 'outer;
            }
            if flags & (1 << bit) != 0 {
                // literal
                let &b = data.get(i).ok_or(DecompressError::UnexpectedEnd)?;
                out.push(b);
                i += 1;
            } else {
                let b0 = *data.get(i).ok_or(DecompressError::UnexpectedEnd)? as usize;
                let b1 = *data.get(i + 1).ok_or(DecompressError::UnexpectedEnd)? as usize;
                i += 2;
                let off = (b0 | ((b1 >> 4) << 8)) + 1;
                let len = (b1 & 0x0F) + MIN_MATCH;
                if off > out.len() {
                    return Err(DecompressError::BadOffset { at: out.len() });
                }
                let start = out.len() - off;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    if out.len() != declared {
        return Err(DecompressError::LengthMismatch {
            declared,
            produced: out.len(),
        });
    }
    Ok(out)
}

/// Compression ratio (compressed / original); 1.0 means no reduction.
pub fn ratio(original: usize, compressed: usize) -> f64 {
    if original == 0 {
        return 1.0;
    }
    compressed as f64 / original as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_round_trips() {
        let c = compress(b"");
        assert_eq!(decompress(&c).unwrap(), b"");
    }

    #[test]
    fn short_literal_round_trips() {
        let c = compress(b"ab");
        assert_eq!(decompress(&c).unwrap(), b"ab");
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let text = "MemTotal:  1048576 kB\nMemFree:   524288 kB\n".repeat(100);
        let c = compress(text.as_bytes());
        assert_eq!(decompress(&c).unwrap(), text.as_bytes());
        // highly repetitive: expect at least 5x reduction
        assert!(
            c.len() * 5 < text.len(),
            "only got {} -> {}",
            text.len(),
            c.len()
        );
    }

    #[test]
    fn overlapping_match_rle_style() {
        // 'aaaa...' forces overlapping back-references (offset 1)
        let text = vec![b'a'; 1000];
        let c = compress(&text);
        assert_eq!(decompress(&c).unwrap(), text);
        assert!(
            c.len() < 160,
            "RLE-like input should collapse, got {}",
            c.len()
        );
    }

    #[test]
    fn incompressible_data_round_trips() {
        // pseudo-random bytes: no matches, pure literal stream
        let mut x: u32 = 0x1234_5678;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        // bounded expansion: 8-byte header + 1 flag byte per 8 literals
        assert!(c.len() <= 8 + data.len() + data.len() / 8 + 1);
    }

    #[test]
    fn matches_across_large_distance_within_window() {
        let mut data = Vec::new();
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        data.extend(std::iter::repeat_n(b'.', 3000));
        data.extend_from_slice(b"the quick brown fox jumps over the lazy dog");
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn rejects_bad_magic() {
        assert_eq!(
            decompress(b"NOPE\x00\x00\x00\x00"),
            Err(DecompressError::BadMagic)
        );
    }

    #[test]
    fn rejects_truncated_header() {
        assert_eq!(decompress(b"CWZ"), Err(DecompressError::Truncated));
    }

    #[test]
    fn rejects_truncated_stream() {
        let mut c = compress(b"hello world hello world hello world");
        c.truncate(c.len() - 3);
        assert!(matches!(
            decompress(&c),
            Err(DecompressError::UnexpectedEnd)
        ));
    }

    #[test]
    fn rejects_bad_offset() {
        // header says 4 bytes, first token is a match with offset beyond output
        let mut c = Vec::new();
        c.extend_from_slice(b"CWZ1");
        c.extend_from_slice(&4u32.to_le_bytes());
        c.push(0b0000_0000); // first token: match
        c.push(0xFF); // offset low
        c.push(0xF0); // offset high nibble, len code 0
        assert!(matches!(
            decompress(&c),
            Err(DecompressError::BadOffset { .. })
        ));
    }

    #[test]
    fn ratio_helper() {
        assert_eq!(ratio(100, 25), 0.25);
        assert_eq!(ratio(0, 10), 1.0);
    }

    #[test]
    fn lying_length_is_refused_before_allocating() {
        // the reproduced defect: 8 bytes asked for a 4 GiB reservation
        assert_eq!(
            decompress(b"CWZ1\xff\xff\xff\xff"),
            Err(DecompressError::UnexpectedEnd)
        );
        // a real stream whose header claims more than its tokens could
        // ever produce, at several scales
        let honest = compress("MemFree:   524288 kB\n".repeat(40).as_bytes());
        for lie in [
            (honest.len() as u32 - 8) * 9 + 1,
            1 << 20,
            1 << 30,
            u32::MAX,
        ] {
            let mut c = honest.clone();
            c[4..8].copy_from_slice(&lie.to_le_bytes());
            assert_eq!(decompress(&c), Err(DecompressError::UnexpectedEnd));
        }
        // a plausible lie still fails, just later
        let mut c = honest.clone();
        let declared = u32::from_le_bytes(c[4..8].try_into().unwrap());
        c[4..8].copy_from_slice(&(declared + 1).to_le_bytes());
        assert!(decompress(&c).is_err());
    }

    /// A `/proc`-report-like text: shared key prefixes, drifting numbers.
    fn procish(seed: u64, lines: usize) -> Vec<u8> {
        let mut x = seed | 1;
        let mut s = String::new();
        for i in 0..lines {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = ["mem.free", "net.eth0.rx_bytes", "cpu.user", "load.one"][i % 4];
            s.push_str(&format!("{key}={}\n", x % 1_000_000));
        }
        s.into_bytes()
    }

    /// A deterministic xorshift byte stream.
    fn noise(seed: u32, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect()
    }

    /// FNV-1a over the length-prefixed [`compress`] output of inputs
    /// from empty to three windows long: `/proc`-like text, noise, a
    /// one-byte run, and `ab?` triples over eight letters, whose hash
    /// chains run past [`MAX_CHAIN`] while no candidate reaches
    /// [`MAX_MATCH`]. Any change to the hash, the chain order, the
    /// probe cap or the token layout moves it.
    #[test]
    fn compressed_bytes_are_pinned() {
        const GOLDEN: u64 = 0x3be4_01d0_175d_7c72;
        let lens = [
            0,
            1,
            2,
            3,
            4,
            MAX_MATCH,
            MAX_MATCH + 1,
            100,
            464,
            WINDOW - 1,
            WINDOW,
            WINDOW + 1,
            2 * WINDOW + 7,
            3 * WINDOW,
        ];
        let mut h = crate::hash::FNV_OFFSET;
        for (n, &len) in lens.iter().enumerate() {
            let mut text = procish(n as u64 + 1, len / 8 + 1);
            text.truncate(len);
            let triples: Vec<u8> = noise(n as u32 + 7, len)
                .iter()
                .enumerate()
                .map(|(i, b)| match i % 3 {
                    0 => b'a',
                    1 => b'b',
                    _ => b'a' + b % 8,
                })
                .collect();
            for input in [text, noise(n as u32 + 1, len), vec![b'z'; len], triples] {
                let c = compress(&input);
                assert_eq!(decompress(&c).unwrap(), input);
                h = crate::hash::fnv1a_fold_u64(h, c.len() as u64);
                h = crate::hash::fnv1a_fold(h, &c);
            }
        }
        assert_eq!(h, GOLDEN, "got {h:#018x}");
    }

    proptest! {
        #[test]
        fn round_trip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..5000)) {
            let c = compress(&data);
            prop_assert_eq!(decompress(&c).unwrap(), data);
        }

        #[test]
        fn round_trip_texty(s in "[a-f ]{0,2000}") {
            // low-entropy alphabet: exercises the match path heavily
            let c = compress(s.as_bytes());
            prop_assert_eq!(decompress(&c).unwrap(), s.as_bytes());
        }
    }
}
