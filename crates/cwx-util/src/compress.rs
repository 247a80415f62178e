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
//! A report is a few hundred bytes and a simulated fleet compresses one
//! per node per tick, so [`compress`] costs what its input costs: the
//! hash chains are a per-thread table set reused across calls (see
//! `Tables`), not 96 KiB allocated and filled per call. [`decompress`]
//! is total: a frame cannot declare more output than its token stream
//! could produce (a 2-byte match yields at most 18 bytes), so an 8-byte
//! hostile payload is refused instead of reserving 4 GiB.

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

/// The compressor's hash chains, kept between calls.
///
/// An agent report is a few hundred bytes; allocating and filling
/// fresh tables (96 KiB at the old `usize` width) cost more than
/// compressing it. The tables are therefore reused, and a per-call
/// generation stamp on each `head` bucket stands in for the fill: a
/// bucket stamped by an earlier call reads as empty. `prev` needs no
/// stamp — a link is only followed from a position that is inside the
/// window of *this* call, and such a position's link was written when
/// this call inserted it (its ring slot is not reused until the cursor
/// is a full window past it). The output is therefore byte-identical
/// to what fresh tables produce, whatever was compressed before.
struct Tables {
    /// Per hash bucket: `(generation, most recent position)`.
    head: Vec<(u32, u32)>,
    /// Ring over positions: the previous position with the same hash.
    prev: Vec<u32>,
    /// Stamp of the call in progress; 0 is never current.
    generation: u32,
}

thread_local! {
    static TABLES: std::cell::RefCell<Tables> = std::cell::RefCell::new(Tables::new());
}

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

impl Tables {
    fn new() -> Self {
        Tables {
            head: vec![(0, 0); HASH_BUCKETS],
            prev: vec![NO_POS; WINDOW],
            generation: 0,
        }
    }

    /// Most recent position this call put in bucket `h`.
    #[inline]
    fn latest(&self, h: usize) -> u32 {
        let (generation, pos) = self.head[h];
        if generation == self.generation {
            pos
        } else {
            NO_POS
        }
    }

    #[inline]
    fn insert(&mut self, input: &[u8], pos: usize) {
        if pos + MIN_MATCH <= input.len() {
            let h = hash3(&input[pos..]);
            self.prev[pos % WINDOW] = self.latest(h);
            self.head[h] = (self.generation, pos as u32);
        }
    }

    fn compress(&mut self, input: &[u8]) -> Vec<u8> {
        // the header's length field and the tables' positions are u32
        assert!(
            u32::try_from(input.len()).is_ok(),
            "CWZ1 holds at most 4 GiB per buffer"
        );
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // stamps from 2^32 calls ago would read as current
            self.head.fill((0, 0));
            self.generation = 1;
        }

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
                let mut cand = self.latest(hash3(&input[i..]));
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
                    let next = self.prev[at % WINDOW];
                    // only follow strictly older positions (ends the
                    // chain at NO_POS too)
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
                    self.insert(input, i + k);
                }
                i += best_len;
            } else {
                tokens.push(&[input[i]], true);
                self.insert(input, i);
                i += 1;
            }
        }
        tokens.out
    }
}

/// Compress `input` with LZSS.
///
/// The output always round-trips through [`decompress`]. For inputs with
/// no redundancy the output can be up to ~12.5% larger than the input
/// (one flag bit per literal) plus the 8-byte header. Inputs are limited
/// to the 4 GiB the header's length field can declare.
///
/// The hash chains live in a per-thread table set that is reused from
/// call to call; the output depends on `input` alone.
pub fn compress(input: &[u8]) -> Vec<u8> {
    TABLES.with(|t| t.borrow_mut().compress(input))
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

    /// The allocate-per-call routine this module shipped before the
    /// tables were kept: the byte-identity oracle.
    fn compress_fresh_tables(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(input.len() / 2 + 16);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(input.len() as u32).to_le_bytes());
        let mut head = vec![usize::MAX; 1 << 13];
        let mut prev = vec![usize::MAX; WINDOW];
        let insert = |head: &mut [usize], prev: &mut [usize], pos: usize| {
            if pos + MIN_MATCH <= input.len() {
                let h = hash3(&input[pos..]);
                prev[pos % WINDOW] = head[h];
                head[h] = pos;
            }
        };
        let mut i = 0;
        let mut flag_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;
        let push_token = |out: &mut Vec<u8>,
                          flag_pos: &mut usize,
                          flag_bit: &mut u8,
                          emit: &[u8],
                          is_literal: bool| {
            if *flag_bit == 8 {
                *flag_pos = out.len();
                out.push(0);
                *flag_bit = 0;
            }
            if is_literal {
                out[*flag_pos] |= 1 << *flag_bit;
            }
            *flag_bit += 1;
            out.extend_from_slice(emit);
        };
        while i < input.len() {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= input.len() {
                let h = hash3(&input[i..]);
                let mut cand = head[h];
                let mut probes = 0;
                let max_len = MAX_MATCH.min(input.len() - i);
                while cand != usize::MAX && probes < MAX_CHAIN {
                    if i - cand > WINDOW {
                        break;
                    }
                    let mut l = 0;
                    while l < max_len && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_off = i - cand;
                        if l == max_len {
                            break;
                        }
                    }
                    let next = prev[cand % WINDOW];
                    if next >= cand {
                        break;
                    }
                    cand = next;
                    probes += 1;
                }
            }
            if best_len >= MIN_MATCH {
                let off = best_off - 1;
                let len_code = (best_len - MIN_MATCH) as u8;
                let b0 = (off & 0xFF) as u8;
                let b1 = (((off >> 8) as u8) << 4) | len_code;
                push_token(&mut out, &mut flag_pos, &mut flag_bit, &[b0, b1], false);
                for k in 0..best_len {
                    insert(&mut head, &mut prev, i + k);
                }
                i += best_len;
            } else {
                push_token(&mut out, &mut flag_pos, &mut flag_bit, &[input[i]], true);
                insert(&mut head, &mut prev, i);
                i += 1;
            }
        }
        out
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

    #[test]
    fn kept_tables_match_fresh_tables_across_a_generation_wrap() {
        let mut t = Tables::new();
        t.generation = u32::MAX - 2;
        for round in 0..6u64 {
            // alternate inputs so every call sees the previous call's
            // (different) chains under a stale stamp
            let input = if round % 2 == 0 {
                procish(round + 1, 300) // > WINDOW bytes
            } else {
                vec![b'a' + round as u8; 5000]
            };
            assert_eq!(t.compress(&input), compress_fresh_tables(&input), "{round}");
        }
        assert!(t.generation < 8, "generation wrapped past 0");
    }

    proptest! {
        /// Many calls in sequence on one thread (the thread-local
        /// tables carry every earlier input's chains): each output must
        /// equal what fresh tables give.
        #[test]
        fn kept_tables_are_unobservable(
            seeds in proptest::collection::vec(any::<u64>(), 1..12),
            noise in proptest::collection::vec(any::<u8>(), 0..6000),
            texty in "[a-f =\n]{0,3000}",
        ) {
            for (n, &seed) in seeds.iter().enumerate() {
                let input = match seed % 4 {
                    0 => procish(seed, (seed >> 8) as usize % 400),
                    1 => noise[..(seed >> 8) as usize % (noise.len() + 1)].to_vec(),
                    2 => texty.as_bytes().to_vec(),
                    // long runs: matches at every distance up to the window
                    _ => procish(seed, 8).repeat(1 + (seed >> 8) as usize % 40),
                };
                let c = compress(&input);
                prop_assert_eq!(&c, &compress_fresh_tables(&input), "call {}", n);
                prop_assert_eq!(decompress(&c).unwrap(), input);
            }
        }

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
