//! The transmission stage (paper §5.3.3).
//!
//! "Since we use the /proc filesystem, monitored data is stored in
//! human-readable form. Although binary formats require less storage, we
//! leave the data in text form because of platform independency and the
//! human-readable nature of the data. Nevertheless, when transmitting
//! the data, we use data compression techniques, which are known to be
//! very effective on text input."
//!
//! Text wire format (one report per datagram):
//!
//! ```text
//! CWX1 node=<u32> seq=<u64> t=<secs>
//! <key>=<value>
//! ...
//! ```
//!
//! compressed with the LZSS coder from `cwx-util` when
//! [`encode_compressed`] is used.
//!
//! # Binary wire format (`CWB1`)
//!
//! The text format is kept as the interoperable baseline, but the hot
//! ingest path uses a binary delta format built on the same varint
//! primitives as the storage engine (`cwx_store::codec`). A
//! [`WireEncoder`]/[`WireDecoder`] pair shares per-connection state: a
//! monitor-key dictionary (keys are transmitted once, then referenced
//! by a small integer id) and a per-key XOR chain over `f64` bit
//! patterns (an unchanged exponent/sign costs one or two bytes).
//!
//! Frame layout, little-endian:
//!
//! ```text
//! 4B   magic "CWB1"
//! u8   flags (bit 0: receiver must reset this node's dictionary)
//! uvarint node | uvarint seq | uvarint f64-bits(time_secs)
//! uvarint n_bindings, then per new key:
//!   uvarint id | uvarint name_len | name bytes
//! uvarint n_values, then per value:
//!   uvarint key_id | u8 tag
//!   tag 0 (Num):  uvarint (prev_bits XOR bits)
//!   tag 1 (Text): uvarint len | bytes
//! u32  crc32 over everything after the magic
//! ```
//!
//! [`decode_auto`] (and [`WireDecoder::decode_auto`]) sniffs the magic
//! and dispatches, so binary, compressed and plain-text senders can
//! coexist on one channel. A decoder keyed by the frame's node id is
//! kept per connection; the stateless free function only decodes
//! self-contained binary frames (first frame after a reset).
//!
//! # Sequence rules
//!
//! A [`WireDecoder`] keeps, per node, the `seq` and gather time of the
//! last frame it applied, so a lossy or duplicating channel can never
//! feed a node's XOR chain a delta out of order:
//!
//! - A frame whose `seq` is at or below the last one and whose gather
//!   time is not later is [`WireError::Duplicate`]: nothing is returned
//!   to store and the node's chain is left alone. This holds for text
//!   frames too, so a datagram delivered twice is stored once.
//! - A `seq` that went back with a later gather time is a restarted
//!   agent (its counter starts again at 0). A text frame from it, or a
//!   reset frame, is applied; a `CWB1` delta from it is refused as below.
//! - A `CWB1` frame without the reset flag applies only at the last
//!   `seq` + 1. Any other delta (a frame was lost or reordered) is
//!   [`WireError::Desynced`], and the node's deltas are refused until
//!   a reset frame newer than the last frame applied arrives (it may
//!   skip `seq`s: a reset frame depends on no earlier frame).
//!
//! A refused frame ([`WireError::refused_node`]) still decoded far
//! enough to name its node, so the server counts it apart from decode
//! errors and takes it as proof the node is alive. The channel's owner
//! asks for the reset: the simulator sends the agent a resync-request
//! datagram back across the same lossy segment, and the live ingest
//! plane evicts the connection, whose agent reconnects with a fresh
//! encoder. Either way [`crate::agent::Agent::resync`] makes the next
//! report a reset frame that carries every value again.

use std::collections::{HashMap, HashSet};

use cwx_store::codec::{self, CodecError};
use cwx_util::compress;

use crate::monitor::{MonitorKey, Value};

const BINARY_MAGIC: &[u8; 4] = b"CWB1";
const FLAG_RESET: u8 = 1;
const TAG_NUM: u8 = 0;
const TAG_TEXT: u8 = 1;

/// One agent-to-server report.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Reporting node.
    pub node: u32,
    /// Agent sequence number.
    pub seq: u64,
    /// Gather time, seconds.
    pub time_secs: f64,
    /// Values that survived consolidation, in key order.
    pub values: Vec<(MonitorKey, Value)>,
}

/// Wire decoding errors.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Missing or malformed header line.
    BadHeader,
    /// A value line without `=`.
    BadLine(String),
    /// Compressed envelope failed to decode.
    BadCompression(String),
    /// Payload is not UTF-8.
    NotText,
    /// A binary frame ended early or carried a malformed varint.
    Truncated,
    /// A binary frame's CRC32 did not match its contents.
    BadChecksum,
    /// A binary frame referenced a key id the connection never bound.
    UnknownKey(u32),
    /// A binary frame bound a key id out of sequence.
    BadBinding,
    /// A frame no newer than the last one applied for its node (see
    /// the module's sequence rules): nothing was applied.
    Duplicate {
        /// The sending node.
        node: u32,
        /// The frame's sequence number.
        seq: u64,
    },
    /// A binary delta that does not follow the last frame applied for
    /// its node, or any delta while the node awaits a reset frame.
    Desynced {
        /// The sending node.
        node: u32,
        /// The frame's sequence number.
        seq: u64,
    },
}

impl WireError {
    /// The node of a frame the sequence check refused: a well-formed
    /// frame that proves its node alive. `None` for a frame that did
    /// not decode.
    pub fn refused_node(&self) -> Option<u32> {
        match self {
            WireError::Duplicate { node, .. } | WireError::Desynced { node, .. } => Some(*node),
            _ => None,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadHeader => write!(f, "bad report header"),
            WireError::BadLine(l) => write!(f, "bad report line: {l}"),
            WireError::BadCompression(e) => write!(f, "bad compression: {e}"),
            WireError::NotText => write!(f, "report payload is not utf-8"),
            WireError::Truncated => write!(f, "binary frame truncated or malformed"),
            WireError::BadChecksum => write!(f, "binary frame checksum mismatch"),
            WireError::UnknownKey(id) => write!(f, "binary frame references unbound key id {id}"),
            WireError::BadBinding => write!(f, "binary frame binds a key id out of sequence"),
            WireError::Duplicate { node, seq } => {
                write!(f, "node {node} seq {seq} is no newer than its last frame")
            }
            WireError::Desynced { node, seq } => write!(
                f,
                "node {node} seq {seq} does not follow its last frame; awaiting a reset"
            ),
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(_: CodecError) -> Self {
        WireError::Truncated
    }
}

/// Render a report as wire text.
pub fn encode(report: &Report) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(32 + report.values.len() * 24);
    let _ = writeln!(
        s,
        "CWX1 node={} seq={} t={:.3}",
        report.node, report.seq, report.time_secs
    );
    for (k, v) in &report.values {
        s.push_str(k);
        s.push('=');
        v.render_into(&mut s);
        s.push('\n');
    }
    s
}

/// Render and LZSS-compress a report.
pub fn encode_compressed(report: &Report) -> Vec<u8> {
    compress::compress(encode(report).as_bytes())
}

/// Parse wire text back into a report. Values that parse as numbers
/// become [`Value::Num`]; everything else is [`Value::Text`].
pub fn decode(text: &str) -> Result<Report, WireError> {
    decode_text(text, |k| MonitorKey::new(k))
}

/// [`decode`] with the caller's way of turning `key=` text into a
/// [`MonitorKey`] (a fresh allocation, or a connection's key table).
fn decode_text(text: &str, mut key: impl FnMut(&str) -> MonitorKey) -> Result<Report, WireError> {
    let mut lines = text.lines();
    let header = lines.next().ok_or(WireError::BadHeader)?;
    let rest = header.strip_prefix("CWX1 ").ok_or(WireError::BadHeader)?;
    let mut node = None;
    let mut seq = None;
    let mut time_secs = None;
    for field in rest.split_whitespace() {
        let (k, v) = field.split_once('=').ok_or(WireError::BadHeader)?;
        match k {
            "node" => node = v.parse::<u32>().ok(),
            "seq" => seq = v.parse::<u64>().ok(),
            "t" => time_secs = v.parse::<f64>().ok(),
            _ => {}
        }
    }
    let (Some(node), Some(seq), Some(time_secs)) = (node, seq, time_secs) else {
        return Err(WireError::BadHeader);
    };
    let mut values = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| WireError::BadLine(line.to_string()))?;
        let value = match v.parse::<f64>() {
            Ok(n) => Value::Num(n),
            Err(_) => Value::Text(v.to_string()),
        };
        values.push((key(k), value));
    }
    Ok(Report {
        node,
        seq,
        time_secs,
        values,
    })
}

/// Decode a payload in any of the three wire formats (binary `CWB1`,
/// LZSS `CWZ1`, plain text) by sniffing the magic. Stateless: binary
/// frames decode only when self-contained (every referenced key bound
/// in the frame itself, i.e. the first frame after an encoder reset);
/// continuation frames need a per-connection [`WireDecoder`].
pub fn decode_auto(bytes: &[u8]) -> Result<Report, WireError> {
    if bytes.starts_with(BINARY_MAGIC) {
        WireDecoder::new().decode_binary(bytes)
    } else {
        decode_text_payload(bytes, |k| MonitorKey::new(k))
    }
}

/// The text arms of [`decode_auto`]: LZSS `CWZ1` or plain text.
fn decode_text_payload(
    bytes: &[u8],
    key: impl FnMut(&str) -> MonitorKey,
) -> Result<Report, WireError> {
    if bytes.starts_with(b"CWZ1") {
        decode_lzss(bytes, key)
    } else {
        decode_text(
            std::str::from_utf8(bytes).map_err(|_| WireError::NotText)?,
            key,
        )
    }
}

fn decode_lzss(bytes: &[u8], key: impl FnMut(&str) -> MonitorKey) -> Result<Report, WireError> {
    let raw = compress::decompress(bytes).map_err(|e| WireError::BadCompression(e.to_string()))?;
    decode_text(
        std::str::from_utf8(&raw).map_err(|_| WireError::NotText)?,
        key,
    )
}

/// Stateful binary encoder for one agent connection.
///
/// Keeps the key dictionary and per-key XOR chains between frames, so
/// steady-state frames carry only small integer ids and short deltas.
/// [`WireEncoder::encode_into`] reuses the caller's buffer: after the
/// first few frames the encoder performs no allocation per report.
#[derive(Debug, Default)]
pub struct WireEncoder {
    /// Key → id; a key shares the report's name (a refcount bump).
    ids: HashMap<MonitorKey, u32>,
    last_bits: Vec<u64>,
    pending_reset: bool,
    /// Scratch: indices into `report.values` whose keys are new.
    fresh: Vec<usize>,
}

impl WireEncoder {
    /// A fresh encoder. Its first frame carries the reset flag so a
    /// receiver with stale state (agent restart) resynchronizes.
    pub fn new() -> Self {
        WireEncoder {
            pending_reset: true,
            ..WireEncoder::default()
        }
    }

    /// Drop the negotiated dictionary; the next frame rebinds every key
    /// it carries and tells the receiver to do the same.
    pub fn reset(&mut self) {
        self.ids.clear();
        self.last_bits.clear();
        self.pending_reset = true;
    }

    /// Encode a frame into `out` (cleared first). The buffer is the
    /// caller's to reuse across reports.
    pub fn encode_into(&mut self, report: &Report, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(BINARY_MAGIC);
        out.push(if self.pending_reset { FLAG_RESET } else { 0 });
        self.pending_reset = false;
        codec::put_uvarint(out, report.node as u64);
        codec::put_uvarint(out, report.seq);
        codec::put_uvarint(out, report.time_secs.to_bits());
        self.fresh.clear();
        for (i, (k, _)) in report.values.iter().enumerate() {
            if !self.ids.contains_key(k.as_str()) {
                self.ids.insert(k.clone(), self.last_bits.len() as u32);
                self.last_bits.push(0);
                self.fresh.push(i);
            }
        }
        codec::put_uvarint(out, self.fresh.len() as u64);
        for &i in &self.fresh {
            let name = report.values[i].0.as_str();
            codec::put_uvarint(out, self.ids[name] as u64);
            codec::put_uvarint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        codec::put_uvarint(out, report.values.len() as u64);
        for (k, v) in &report.values {
            let id = self.ids[k.as_str()];
            codec::put_uvarint(out, id as u64);
            match v {
                Value::Num(x) => {
                    out.push(TAG_NUM);
                    let bits = x.to_bits();
                    let prev = &mut self.last_bits[id as usize];
                    codec::put_uvarint(out, *prev ^ bits);
                    *prev = bits;
                }
                Value::Text(s) => {
                    out.push(TAG_TEXT);
                    codec::put_uvarint(out, s.len() as u64);
                    out.extend_from_slice(s.as_bytes());
                }
            }
        }
        let crc = codec::crc32(&out[BINARY_MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Convenience wrapper allocating a fresh buffer.
    pub fn encode(&mut self, report: &Report) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + report.values.len() * 8);
        self.encode_into(report, &mut out);
        out
    }
}

#[derive(Debug, Default)]
struct NodeTable {
    keys: Vec<MonitorKey>,
    last_bits: Vec<u64>,
    /// `seq` and gather time of the last frame applied.
    last: Option<(u64, f64)>,
    /// Deltas are refused until the node's next reset frame.
    desynced: bool,
}

/// Where a frame falls against the last one its node applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// The `seq` after the last one applied.
    Next,
    /// Newer, but not the next: a later `seq`, a restarted agent, or
    /// the node's first frame.
    Newer,
    /// No newer than the last frame applied.
    Stale,
}

impl NodeTable {
    fn order(&self, seq: u64, time_secs: f64) -> Order {
        match self.last {
            None => Order::Newer,
            Some((last, _)) if last.checked_add(1) == Some(seq) => Order::Next,
            Some((last, _)) if seq > last => Order::Newer,
            Some((_, t)) if time_secs > t => Order::Newer,
            Some(_) => Order::Stale,
        }
    }
}

/// A node's place in its frame sequence, as a [`WireDecoder`] holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqState {
    /// `seq` of the last frame applied, if any.
    pub last: Option<u64>,
    /// Deltas are refused until the node's next reset frame.
    pub desynced: bool,
}

/// Stateful binary decoder for one ingest connection.
///
/// Dictionary, XOR-chain and sequence state is kept per node id (frames
/// carry the node), so one decoder serves a channel that multiplexes
/// many agents. Malformed input of any kind returns a [`WireError`];
/// the decoder never panics on wire bytes.
#[derive(Debug, Default)]
pub struct WireDecoder {
    nodes: HashMap<u32, NodeTable>,
    /// Key names seen on this connection, in text reports and in binary
    /// bindings, so a decoded value or a node's dictionary shares its
    /// key (a refcount bump) instead of allocating one. Every node sends
    /// the same few dozen names; the table stops growing at
    /// [`KEYS_MAX`] and keys beyond it are allocated per use.
    keys: HashSet<MonitorKey>,
}

/// Bounds on [`WireDecoder`]'s key table — entries, and bytes of a key
/// worth keeping: far above any real monitor set, small enough
/// (≈ 0.6 MiB a connection at worst) that a peer inventing names cannot
/// grow the server.
const KEYS_MAX: usize = 4096;
const KEY_LEN_MAX: usize = 128;

/// `name` as a key shared through `keys`, kept there while the table
/// has room.
fn shared_key(keys: &mut HashSet<MonitorKey>, name: &str) -> MonitorKey {
    match keys.get(name) {
        Some(key) => key.clone(),
        None => {
            let key = MonitorKey::new(name);
            if keys.len() < KEYS_MAX && name.len() <= KEY_LEN_MAX {
                keys.insert(key.clone());
            }
            key
        }
    }
}

impl WireDecoder {
    /// A decoder with no negotiated state.
    pub fn new() -> Self {
        WireDecoder::default()
    }

    /// `node`'s sequence state; `None` before any frame from it.
    pub fn seq_state(&self, node: u32) -> Option<SeqState> {
        self.nodes.get(&node).map(|t| SeqState {
            last: t.last.map(|(seq, _)| seq),
            desynced: t.desynced,
        })
    }

    /// Decode any wire payload (binary, compressed or text), updating
    /// per-node dictionary state for binary frames and sequence state
    /// for both.
    pub fn decode_auto(&mut self, bytes: &[u8]) -> Result<Report, WireError> {
        if bytes.starts_with(BINARY_MAGIC) {
            return self.decode_binary(bytes);
        }
        let keys = &mut self.keys;
        let report = decode_text_payload(bytes, |k| shared_key(keys, k))?;
        // text carries no chain: only a stale frame is refused
        let table = self.nodes.entry(report.node).or_default();
        if table.order(report.seq, report.time_secs) == Order::Stale {
            return Err(WireError::Duplicate {
                node: report.node,
                seq: report.seq,
            });
        }
        table.last = Some((report.seq, report.time_secs));
        Ok(report)
    }

    /// Decode a `CWB1` frame.
    pub fn decode_binary(&mut self, bytes: &[u8]) -> Result<Report, WireError> {
        let m = BINARY_MAGIC.len();
        if bytes.len() < m + 5 || bytes[..m] != *BINARY_MAGIC {
            return Err(WireError::Truncated);
        }
        let body = &bytes[m..bytes.len() - 4];
        let stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap());
        if codec::crc32(body) != stored {
            return Err(WireError::BadChecksum);
        }
        let mut pos = 1usize;
        let flags = body[0];
        let node =
            u32::try_from(codec::get_uvarint(body, &mut pos)?).map_err(|_| WireError::Truncated)?;
        let seq = codec::get_uvarint(body, &mut pos)?;
        let time_secs = f64::from_bits(codec::get_uvarint(body, &mut pos)?);
        let table = self.nodes.entry(node).or_default();
        match table.order(seq, time_secs) {
            Order::Stale => return Err(WireError::Duplicate { node, seq }),
            _ if flags & FLAG_RESET != 0 => {
                table.keys.clear();
                table.last_bits.clear();
                table.desynced = false;
            }
            Order::Next if !table.desynced => {}
            _ => {
                table.desynced = true;
                return Err(WireError::Desynced { node, seq });
            }
        }
        // a frame that fails past this point may have moved the chain
        let values = decode_values(table, &mut self.keys, body, pos)
            .inspect_err(|_| table.desynced = true)?;
        table.last = Some((seq, time_secs));
        Ok(Report {
            node,
            seq,
            time_secs,
            values,
        })
    }
}

/// The bindings and values of a `CWB1` body from `pos` on, applied to
/// the node's `table`; bound names are shared through `keys`.
fn decode_values(
    table: &mut NodeTable,
    keys: &mut HashSet<MonitorKey>,
    body: &[u8],
    mut pos: usize,
) -> Result<Vec<(MonitorKey, Value)>, WireError> {
    let n_bind = codec::get_uvarint(body, &mut pos)? as usize;
    if n_bind > body.len().saturating_sub(pos) {
        return Err(WireError::Truncated);
    }
    for _ in 0..n_bind {
        let id = codec::get_uvarint(body, &mut pos)? as usize;
        if id != table.keys.len() {
            return Err(WireError::BadBinding);
        }
        let len = codec::get_uvarint(body, &mut pos)? as usize;
        let end = pos.checked_add(len).ok_or(WireError::Truncated)?;
        let name = body.get(pos..end).ok_or(WireError::Truncated)?;
        pos = end;
        let name = std::str::from_utf8(name).map_err(|_| WireError::NotText)?;
        table.keys.push(shared_key(keys, name));
        table.last_bits.push(0);
    }
    let n_vals = codec::get_uvarint(body, &mut pos)? as usize;
    if n_vals > body.len().saturating_sub(pos) {
        return Err(WireError::Truncated);
    }
    let mut values = Vec::with_capacity(n_vals);
    for _ in 0..n_vals {
        let id = codec::get_uvarint(body, &mut pos)? as usize;
        let key = table
            .keys
            .get(id)
            .ok_or(WireError::UnknownKey(id.min(u32::MAX as usize) as u32))?
            .clone();
        let tag = *body.get(pos).ok_or(WireError::Truncated)?;
        pos += 1;
        let value = match tag {
            TAG_NUM => {
                let bits = table.last_bits[id] ^ codec::get_uvarint(body, &mut pos)?;
                table.last_bits[id] = bits;
                Value::Num(f64::from_bits(bits))
            }
            TAG_TEXT => {
                let len = codec::get_uvarint(body, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(WireError::Truncated)?;
                let s = body.get(pos..end).ok_or(WireError::Truncated)?;
                pos = end;
                Value::Text(
                    std::str::from_utf8(s)
                        .map_err(|_| WireError::NotText)?
                        .to_string(),
                )
            }
            _ => return Err(WireError::Truncated),
        };
        values.push((key, value));
    }
    if pos != body.len() {
        return Err(WireError::Truncated);
    }
    Ok(values)
}

/// Decompress and parse a report.
pub fn decode_compressed(bytes: &[u8]) -> Result<Report, WireError> {
    decode_lzss(bytes, |k| MonitorKey::new(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        Report {
            node: 17,
            seq: 42,
            time_secs: 123.456,
            values: vec![
                (MonitorKey::new("mem.free"), Value::Num(524288.0)),
                (MonitorKey::new("load.one"), Value::Num(0.42)),
                (
                    MonitorKey::new("cpu.type"),
                    Value::Text("Pentium III".into()),
                ),
            ],
        }
    }

    #[test]
    fn text_round_trip() {
        let r = report();
        let text = encode(&r);
        assert!(text.starts_with("CWX1 node=17 seq=42 t=123.456\n"));
        assert!(text.contains("mem.free=524288\n"));
        let back = decode(&text).unwrap();
        assert_eq!(back.node, 17);
        assert_eq!(back.seq, 42);
        assert_eq!(back.values.len(), 3);
        assert_eq!(back.values[0].1, Value::Num(524288.0));
        assert_eq!(back.values[2].1, Value::Text("Pentium III".into()));
    }

    #[test]
    fn compressed_round_trip_and_shrinks_repetitive_reports() {
        // a realistic full report: many keys with shared prefixes
        let mut r = report();
        for i in 0..50 {
            r.values.push((
                MonitorKey::new(format!("net.eth0.counter_{i}")),
                Value::Num(i as f64),
            ));
        }
        let raw = encode(&r);
        let packed = encode_compressed(&r);
        assert!(
            packed.len() < raw.len(),
            "{} !< {}",
            packed.len(),
            raw.len()
        );
        let back = decode_compressed(&packed).unwrap();
        assert_eq!(back.values.len(), r.values.len());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(decode(""), Err(WireError::BadHeader));
        assert_eq!(decode("XYZ node=1"), Err(WireError::BadHeader));
        assert_eq!(decode("CWX1 node=1 seq=2"), Err(WireError::BadHeader)); // missing t
        assert!(matches!(
            decode("CWX1 node=1 seq=2 t=0\nbroken-line"),
            Err(WireError::BadLine(_))
        ));
        assert!(matches!(
            decode_compressed(b"junk"),
            Err(WireError::BadCompression(_))
        ));
    }

    #[test]
    fn empty_report_is_valid() {
        let r = Report {
            node: 1,
            seq: 0,
            time_secs: 0.0,
            values: vec![],
        };
        let back = decode(&encode(&r)).unwrap();
        assert!(back.values.is_empty());
    }

    #[test]
    fn binary_round_trip_and_steady_state_shrinks() {
        let mut enc = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let mut r = report();
        let first = enc.encode(&r);
        assert!(first.starts_with(b"CWB1"));
        assert_eq!(dec.decode_auto(&first).unwrap(), r);
        // steady state: same keys, slightly moved values
        r.seq += 1;
        r.values[1].1 = Value::Num(0.43);
        let next = enc.encode(&r);
        assert_eq!(dec.decode_auto(&next).unwrap(), r);
        // the continuation frame skips all key bindings
        assert!(
            next.len() < first.len(),
            "dictionary amortized: {} !< {}",
            next.len(),
            first.len()
        );
    }

    #[test]
    fn binary_first_frame_is_self_contained() {
        // the stateless decode_auto handles a frame that binds every key
        let mut enc = WireEncoder::new();
        let r = report();
        let frame = enc.encode(&r);
        assert_eq!(decode_auto(&frame).unwrap(), r);
    }

    #[test]
    fn binary_continuation_needs_state() {
        let mut enc = WireEncoder::new();
        let r = report();
        let _first = enc.encode(&r);
        let second = enc.encode(&r);
        assert_eq!(
            decode_auto(&second),
            Err(WireError::Desynced { node: 17, seq: 42 })
        );
    }

    #[test]
    fn text_duplicates_are_refused_and_a_restart_is_not() {
        let mut dec = WireDecoder::new();
        let mut r = report();
        let first = encode_compressed(&r);
        assert_eq!(dec.decode_auto(&first).unwrap().seq, 42);
        let dup = Err(WireError::Duplicate { node: 17, seq: 42 });
        assert_eq!(dec.decode_auto(&first), dup);
        // a gap costs text nothing: it carries no chain
        r.seq = 50;
        r.time_secs += 40.0;
        assert!(dec.decode_auto(encode(&r).as_bytes()).is_ok());
        // an older frame arriving late is stale too
        assert!(dec.decode_auto(&first).is_err());
        // the agent restarted: seq 0, gathered later
        r.seq = 0;
        r.time_secs += 5.0;
        let restart = encode(&r);
        assert!(dec.decode_auto(restart.as_bytes()).is_ok());
        assert_eq!(
            dec.decode_auto(restart.as_bytes()),
            Err(WireError::Duplicate { node: 17, seq: 0 })
        );
        assert_eq!(
            dec.seq_state(17),
            Some(SeqState {
                last: Some(0),
                desynced: false
            })
        );
        assert_eq!(dec.seq_state(18), None);
    }

    #[test]
    fn binary_gap_refuses_deltas_until_a_reset() {
        let mut enc = WireEncoder::new();
        let mut dec = WireDecoder::new();
        let mut r = report();
        let frame = |r: &mut Report, enc: &mut WireEncoder| {
            r.seq += 1;
            r.time_secs += 5.0;
            enc.encode(r)
        };
        assert!(dec.decode_auto(&frame(&mut r, &mut enc)).is_ok());
        let next = frame(&mut r, &mut enc);
        assert!(dec.decode_auto(&next).is_ok());
        // the same frame again changes nothing
        assert_eq!(
            dec.decode_auto(&next),
            Err(WireError::Duplicate { node: 17, seq: 44 })
        );
        let _lost = frame(&mut r, &mut enc);
        let after = frame(&mut r, &mut enc);
        let refused = WireError::Desynced { node: 17, seq: 46 };
        assert_eq!(refused.refused_node(), Some(17));
        assert_eq!(dec.decode_auto(&after), Err(refused));
        // every later delta is refused, even one that follows the gap
        let follows = frame(&mut r, &mut enc);
        assert!(matches!(
            dec.decode_auto(&follows),
            Err(WireError::Desynced { seq: 47, .. })
        ));
        assert_eq!(dec.seq_state(17).map(|s| s.desynced), Some(true));
        enc.reset();
        let reset = frame(&mut r, &mut enc);
        assert_eq!(dec.decode_auto(&reset).unwrap(), r);
        assert_eq!(
            dec.decode_auto(&frame(&mut r, &mut enc)).unwrap(),
            r,
            "deltas apply again after the reset"
        );
        assert_eq!(WireError::Truncated.refused_node(), None);
    }

    #[test]
    fn a_restarted_encoder_is_accepted_and_a_stale_reset_is_not() {
        let mut dec = WireDecoder::new();
        let mut r = report();
        let mut old = WireEncoder::new();
        let first = old.encode(&r);
        assert!(dec.decode_auto(&first).is_ok());
        r.seq += 1;
        r.time_secs += 5.0;
        assert!(dec.decode_auto(&old.encode(&r)).is_ok());
        // the first reset frame, delivered late: stale, nothing moves
        assert!(matches!(
            dec.decode_auto(&first),
            Err(WireError::Duplicate { seq: 42, .. })
        ));
        // a new agent counts from 0 again, gathered later
        let mut new = WireEncoder::new();
        r.seq = 0;
        r.time_secs += 5.0;
        assert_eq!(dec.decode_auto(&new.encode(&r)).unwrap(), r);
        r.seq = 1;
        r.time_secs += 5.0;
        assert_eq!(dec.decode_auto(&new.encode(&r)).unwrap(), r);
    }

    #[test]
    fn binary_reset_resynchronizes_a_fresh_decoder() {
        let mut enc = WireEncoder::new();
        let r = report();
        let _ = enc.encode(&r);
        let _ = enc.encode(&r);
        enc.reset();
        let resync = enc.encode(&r);
        // a decoder that saw none of the earlier frames still decodes
        let mut dec = WireDecoder::new();
        assert_eq!(dec.decode_auto(&resync).unwrap(), r);
    }

    #[test]
    fn binary_rejects_corruption_without_panicking() {
        let mut enc = WireEncoder::new();
        let frame = enc.encode(&report());
        // every truncation point fails cleanly
        for n in 0..frame.len() {
            assert!(decode_auto(&frame[..n]).is_err(), "truncated at {n}");
        }
        // a flipped payload bit fails the checksum
        let mut bad = frame.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(decode_auto(&bad).is_err());
        // garbage behind a valid magic is rejected too
        let mut junk = b"CWB1".to_vec();
        junk.extend_from_slice(&[0xAB; 32]);
        assert!(decode_auto(&junk).is_err());
    }

    #[test]
    fn binary_preserves_time_bits_exactly() {
        let mut enc = WireEncoder::new();
        let r = Report {
            node: 3,
            seq: 9,
            time_secs: 123.456789012345,
            values: vec![],
        };
        let back = decode_auto(&enc.encode(&r)).unwrap();
        assert_eq!(back.time_secs.to_bits(), r.time_secs.to_bits());
    }

    #[test]
    fn text_output_round_trips_through_decode_auto() {
        // backward compat: the old textual encode still decodes
        let r = report();
        let back = decode_auto(encode(&r).as_bytes()).unwrap();
        assert_eq!(back.node, r.node);
        assert_eq!(back.seq, r.seq);
        assert_eq!(back.values.len(), r.values.len());
        let packed = encode_compressed(&r);
        assert_eq!(decode_auto(&packed).unwrap().values.len(), r.values.len());
    }

    #[test]
    fn decoder_key_table_shares_keys_and_changes_nothing() {
        let mut r = report();
        r.values
            .push((MonitorKey::new("empty"), Value::Text(String::new())));
        let mut dec = WireDecoder::new();
        for seq in 0..6 {
            r.seq = seq;
            let payload = if seq % 2 == 0 {
                encode(&r).into_bytes()
            } else {
                encode_compressed(&r)
            };
            let got = dec.decode_auto(&payload).unwrap();
            assert_eq!(got, decode_auto(&payload).unwrap(), "frame {seq}");
            assert_eq!(got, decode(&encode(&r)).unwrap());
        }
        assert_eq!(dec.keys.len(), r.values.len());
        // malformed text fails the same way through either door
        for bad in [
            &b"CWX1 node=1 seq=2 t=0\nbroken-line"[..],
            b"\xff\xfe",
            b"CWZ1junk",
        ] {
            assert_eq!(dec.decode_auto(bad), decode_auto(bad));
        }
    }

    #[test]
    fn decoder_key_table_is_bounded_under_hostile_keys() {
        let mut dec = WireDecoder::new();
        let mut r = Report {
            node: 9,
            seq: 0,
            time_secs: 1.0,
            values: Vec::new(),
        };
        // 10^5 distinct names, 100 a frame, plus one oversized name
        for frame in 0..1000u64 {
            r.seq = frame;
            r.values = (0..100)
                .map(|i| {
                    (
                        MonitorKey::new(format!("evil.{}", frame * 100 + i)),
                        Value::Num(i as f64),
                    )
                })
                .collect();
            r.values
                .push((MonitorKey::new("x".repeat(4000)), Value::Num(1.0)));
            let text = encode(&r);
            assert_eq!(
                dec.decode_auto(text.as_bytes()).unwrap(),
                decode(&text).unwrap()
            );
            assert!(dec.keys.len() <= KEYS_MAX);
        }
        assert_eq!(dec.keys.len(), KEYS_MAX);
        assert!(dec.keys.iter().all(|k| k.len() <= KEY_LEN_MAX));
        // a full table still decodes names it never kept, and ones it did
        let text = encode(&report());
        assert_eq!(
            dec.decode_auto(text.as_bytes()).unwrap(),
            decode(&text).unwrap()
        );
        r.values.truncate(3);
        r.seq += 1;
        let text = encode(&r);
        assert_eq!(
            dec.decode_auto(text.as_bytes()).unwrap(),
            decode(&text).unwrap()
        );
    }

    #[test]
    fn numeric_text_becomes_num_on_decode() {
        // documented asymmetry of the text format
        let r = Report {
            node: 1,
            seq: 0,
            time_secs: 0.0,
            values: vec![(MonitorKey::new("k"), Value::Text("3.5".into()))],
        };
        let back = decode(&encode(&r)).unwrap();
        assert_eq!(back.values[0].1, Value::Num(3.5));
    }
}
