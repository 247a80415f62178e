//! Property tests for the `CWB1` binary wire codec: arbitrary reports
//! round-trip bit-exactly through the stateful encoder/decoder pair
//! across frames, resets resynchronize, several agents multiplex over
//! one decoder, and no corruption of wire bytes can ever panic the
//! decoder — truncations, bit flips and garbage all surface as
//! `WireError`.

use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{Report, WireDecoder, WireEncoder};
use proptest::prelude::*;

/// A small key universe so frames exercise both the "bind a new key"
/// and "reference an existing id" paths.
fn key(sel: u64) -> MonitorKey {
    MonitorKey::new(format!("group{}.monitor_{}", sel % 5, sel % 23))
}

/// Build a value from raw generator output: mostly numbers (covering
/// NaN, infinities and denormals via raw bits), sometimes text.
fn value(tag: u64, bits: u64) -> Value {
    if tag.is_multiple_of(4) {
        Value::Text(format!("state-{:x}", bits % 4096))
    } else {
        Value::Num(f64::from_bits(bits))
    }
}

fn report(node: u32, seq: u64, values: &[(u64, u64, u64)]) -> Report {
    Report {
        node,
        seq,
        time_secs: f64::from_bits(seq.wrapping_mul(0x9e3779b97f4a7c15)),
        values: values
            .iter()
            .map(|&(sel, tag, bits)| (key(sel), value(tag, bits)))
            .collect(),
    }
}

/// Bit-exact report comparison: `Report`'s derived `PartialEq` uses
/// `f64 ==`, which NaN values (legitimately on the wire) would fail.
fn assert_reports_eq(got: &Report, want: &Report) {
    assert_eq!(got.node, want.node);
    assert_eq!(got.seq, want.seq);
    assert_eq!(got.time_secs.to_bits(), want.time_secs.to_bits());
    assert_eq!(got.values.len(), want.values.len());
    for ((gk, gv), (wk, wv)) in got.values.iter().zip(&want.values) {
        assert_eq!(gk, wk);
        match (gv, wv) {
            (Value::Num(g), Value::Num(w)) => assert_eq!(g.to_bits(), w.to_bits()),
            _ => assert_eq!(gv, wv),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of reports round-trips through one encoder/decoder
    /// pair, with the dictionary and XOR chains evolving across frames.
    #[test]
    fn frame_sequences_round_trip(
        frames in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..12),
            1..8,
        ),
        node in 0u32..1000,
    ) {
        let mut enc = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let mut buf = Vec::new();
        for (seq, frame) in frames.iter().enumerate() {
            let r = report(node, seq as u64, frame);
            enc.encode_into(&r, &mut buf);
            let back = dec.decode_auto(&buf).expect("valid frame decodes");
            assert_reports_eq(&back, &r);
        }
    }

    /// After `reset()` the next frame is self-contained: a decoder that
    /// missed every earlier frame (receiver restart) still decodes it.
    #[test]
    fn reset_resynchronizes_any_stream(
        before in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
            1..5,
        ),
        after in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        let mut enc = WireEncoder::new();
        for (seq, frame) in before.iter().enumerate() {
            let _ = enc.encode(&report(9, seq as u64, frame));
        }
        enc.reset();
        let r = report(9, before.len() as u64, &after);
        let resync = enc.encode(&r);
        assert_reports_eq(&WireDecoder::new().decode_auto(&resync).unwrap(), &r);
    }

    /// A session that survives a disconnect/reconnect resets its key
    /// dictionary correctly: frames encoded during the outage never
    /// reach the decoder, the reconnecting encoder calls `reset()`, and
    /// from the resync frame on the old decoder — whose dictionary
    /// still holds the pre-outage bindings — decodes the entire new
    /// dictionary epoch bit-exactly. This is the exact sequence the
    /// federation sub-server performs on uplink loss.
    #[test]
    fn reconnect_resets_key_dictionary(
        before in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
            1..5,
        ),
        lost in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
            1..5,
        ),
        after in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
            1..5,
        ),
    ) {
        let mut enc = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let mut seq = 0u64;
        // healthy session: decoder tracks the growing dictionary
        for frame in &before {
            let r = report(3, seq, frame);
            assert_reports_eq(&dec.decode_auto(&enc.encode(&r)).unwrap(), &r);
            seq += 1;
        }
        // outage: these frames are encoded but never delivered, so the
        // encoder's dictionary drifts ahead of the decoder's
        for frame in &lost {
            let _ = enc.encode(&report(3, seq, frame));
            seq += 1;
        }
        // reconnect: the session resets and the stale decoder must
        // follow the whole new epoch, not just the resync frame
        enc.reset();
        for frame in &after {
            let r = report(3, seq, frame);
            let back = dec.decode_auto(&enc.encode(&r)).unwrap();
            assert_reports_eq(&back, &r);
            seq += 1;
        }
    }

    /// One decoder serves many agents: per-node dictionary state never
    /// bleeds between nodes even when frames interleave arbitrarily.
    #[test]
    fn multiplexed_nodes_keep_state_separate(
        frames_a in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
            1..5,
        ),
        frames_b in collection::vec(
            collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..8),
            1..5,
        ),
    ) {
        let mut enc_a = WireEncoder::new();
        let mut enc_b = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let rounds = frames_a.len().max(frames_b.len());
        for i in 0..rounds {
            if let Some(frame) = frames_a.get(i) {
                let r = report(1, i as u64, frame);
                let back = dec.decode_auto(&enc_a.encode(&r)).unwrap();
                assert_reports_eq(&back, &r);
            }
            if let Some(frame) = frames_b.get(i) {
                let r = report(2, i as u64, frame);
                let back = dec.decode_auto(&enc_b.encode(&r)).unwrap();
                assert_reports_eq(&back, &r);
            }
        }
    }

    /// Every truncation of a valid frame — first or continuation — is
    /// rejected without panicking, by both a fresh decoder and a
    /// stateful one, and a poisoned attempt never corrupts the
    /// decoder's state for the frames that follow.
    #[test]
    fn every_truncation_fails_cleanly(
        frame in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
    ) {
        let mut enc = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let r0 = report(5, 0, &frame);
        let first = enc.encode(&r0);
        let r1 = report(5, 1, &frame);
        let second = enc.encode(&r1);
        assert_reports_eq(&dec.decode_auto(&first).unwrap(), &r0);
        for bytes in [&first, &second] {
            for n in 0..bytes.len() {
                prop_assert!(
                    WireDecoder::new().decode_auto(&bytes[..n]).is_err(),
                    "truncated at {n}"
                );
                prop_assert!(dec.decode_auto(&bytes[..n]).is_err(), "truncated at {n}");
            }
        }
        // the decoder still accepts the intact continuation frame
        assert_reports_eq(&dec.decode_auto(&second).unwrap(), &r1);
    }

    /// Any single-byte corruption of a valid frame is detected: the
    /// magic check catches the header, the CRC everything else.
    #[test]
    fn any_single_byte_corruption_is_detected(
        frame in collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..10),
        flip_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut enc = WireEncoder::new();
        let mut bytes = enc.encode(&report(7, 0, &frame));
        let idx = (flip_seed % bytes.len() as u64) as usize;
        bytes[idx] ^= xor;
        prop_assert!(WireDecoder::new().decode_auto(&bytes).is_err());
    }

    /// Arbitrary bytes behind a valid magic never panic the decoder.
    #[test]
    fn garbage_after_magic_never_panics(
        junk in collection::vec(any::<u64>(), 0..40),
    ) {
        let mut bytes = b"CWB1".to_vec();
        for w in &junk {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        // a random payload passing a 32-bit checksum is out of reach;
        // the property is simply "returns Err, never panics"
        prop_assert!(WireDecoder::new().decode_auto(&bytes).is_err());
    }
}
