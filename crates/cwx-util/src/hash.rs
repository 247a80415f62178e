//! The canonical FNV-1a hash used for every determinism fingerprint in
//! the workspace: result.json fingerprints, audit-trail hashes, and
//! snapshot section digests.
//!
//! Three crates grew their own copies of these two constants before
//! this module existed; they now all route through here so a constant
//! typo can never make one fingerprint silently diverge from another.
//!
//! The workspace's one CRC-32 lives here for the same reason: snapshot
//! files, WAL frames, segment files and the wire formats all checksum
//! with [`crc32`].

/// FNV-1a 64-bit offset basis. `fnv1a(b"")` returns exactly this.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Hash `bytes` with 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Fold `bytes` into an existing FNV-1a state `h`.
///
/// `fnv1a_fold(fnv1a(a), b) == fnv1a(a ++ b)`, so callers can hash a
/// logical stream without materializing it.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Fold a `u64` into an FNV-1a state as its 8 little-endian bytes.
pub fn fnv1a_fold_u64(h: u64, v: u64) -> u64 {
    fnv1a_fold(h, &v.to_le_bytes())
}

/// Fold a sequence of `Debug` items into an FNV-1a state by hashing
/// each item's debug rendering in order.
///
/// This is the canonical audit-trail hash: the chaos engine and the
/// federation head both fingerprint their audit records this way, and
/// snapshot sections reuse it for any state that is `Debug` but has no
/// tighter canonical encoding.
pub fn fnv1a_debug_fold<T: std::fmt::Debug>(mut h: u64, items: &[T]) -> u64 {
    for it in items {
        h = fnv1a_fold(h, format!("{it:?}").as_bytes());
    }
    h
}

/// Hash a sequence of `Debug` items from the offset basis. See
/// [`fnv1a_debug_fold`].
pub fn fnv1a_debug<T: std::fmt::Debug>(items: &[T]) -> u64 {
    fnv1a_debug_fold(FNV_OFFSET, items)
}

/// Slicing-by-8 tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte-at-a-time table, `[k][b]` is byte `b` followed by `k`
/// zero bytes.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// gzip and PNG use — eight bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_is_the_offset_basis() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn known_vectors() {
        // classic FNV-1a 64-bit test vectors
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fold_is_concatenation() {
        let whole = fnv1a(b"hello world");
        let split = fnv1a_fold(fnv1a(b"hello "), b"world");
        assert_eq!(whole, split);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    /// The definition, one bit at a time.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bitwise_form_at_every_length_and_offset() {
        // head and tail handling: every length 0..=64 starting at every
        // offset 0..8 of a buffer with no repeating pattern
        let buf: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn fold_u64_matches_le_bytes() {
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fnv1a_fold_u64(FNV_OFFSET, v), fnv1a(&v.to_le_bytes()));
    }
}
