//! The `CWF1` federation wire protocol.
//!
//! Frames flow between a sub-server (one per cluster) and the
//! federation head. The metrics uplink deliberately carries an opaque
//! `CWB1` payload — the same stateful delta codec the agents use to
//! talk to their server, reused one tier up with the cluster id in the
//! report's `node` field, so each tier keeps its own key dictionary.
//!
//! Framing: `b"CWF1"`, a type byte, varint-encoded body, and a CRC-32
//! of everything before it. The realtime transport additionally wraps
//! each frame in a little-endian `u32` length prefix (see
//! [`crate::net`]); the simulation passes frames as byte vectors
//! directly.

use cwx_events::engine::{EventId, Firing};
use cwx_events::Action;
use cwx_store::codec::{self, crc32};
use cwx_util::time::SimTime;

use clusterworx::LifecycleCounts;

/// Frame magic.
pub const MAGIC: &[u8; 4] = b"CWF1";

const T_HELLO: u8 = 1;
const T_METRICS: u8 = 2;
const T_ALARM: u8 = 3;
const T_RESYNC: u8 = 4;
const T_COMMAND: u8 = 5;
const T_COMMAND_ACK: u8 = 6;

/// An alarm forwarded upward: the firing minus its action (the head
/// records alarms; the owning sub-server already executed the action).
#[derive(Debug, Clone, PartialEq)]
pub struct WireAlarm {
    /// Event id within the originating cluster.
    pub event: EventId,
    /// Node the event fired on.
    pub node: u32,
    /// When it fired (sub-server clock).
    pub time: SimTime,
    /// The observed value that tripped the rule.
    pub value: f64,
}

impl WireAlarm {
    /// Project a server firing onto the wire form.
    pub fn from_firing(f: &Firing) -> WireAlarm {
        WireAlarm {
            event: f.event,
            node: f.node,
            time: f.time,
            value: f.value,
        }
    }
}

/// A federation frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Sub-server introduces (or re-introduces) itself.
    Hello {
        /// Originating cluster.
        cluster: u16,
        /// Nodes it manages.
        n_nodes: u32,
    },
    /// Consolidated metrics uplink: an opaque `CWB1` frame whose
    /// report `node` field is the cluster id.
    Metrics {
        /// Originating cluster.
        cluster: u16,
        /// The `CWB1` bytes.
        payload: Vec<u8>,
    },
    /// Alarm fan-in: firings raised since the previous uplink.
    Alarm {
        /// Originating cluster.
        cluster: u16,
        /// The firings.
        alarms: Vec<WireAlarm>,
        /// Firings lost to the sub-server's bounded feed buffer.
        dropped: u64,
    },
    /// Full-state resync after a reconnect: the head replaces its view
    /// of the cluster wholesale and releases queued commands.
    Resync {
        /// Originating cluster.
        cluster: u16,
        /// Nodes it manages.
        n_nodes: u32,
        /// Lifecycle census.
        counts: LifecycleCounts,
        /// Nodes currently reachable.
        reachable: u32,
        /// Command ids this sub-server has already applied — the head
        /// marks matching in-flight commands delivered instead of
        /// re-sending them (idempotent redelivery).
        applied: Vec<u64>,
    },
    /// Head → sub-server: execute an action on a node.
    Command {
        /// Head-assigned command id (idempotency token).
        id: u64,
        /// Target node within the cluster.
        node: u32,
        /// What to do.
        action: Action,
    },
    /// Sub-server → head: command received (whether freshly applied or
    /// recognised as a duplicate).
    CommandAck {
        /// Originating cluster.
        cluster: u16,
        /// The command id being acknowledged.
        id: u64,
        /// False when the sub had already applied this id.
        fresh: bool,
    },
}

/// Decoding failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FedWireError {
    /// Missing or wrong magic.
    BadMagic,
    /// Unknown frame type byte.
    BadType,
    /// Frame shorter than its own encoding claims.
    Truncated,
    /// CRC mismatch.
    BadChecksum,
    /// A varint or string field failed to decode.
    BadField,
    /// A well-formed `Metrics` frame whose report payload the head
    /// refused: the frame still spoke for its cluster.
    BadPayload {
        /// Originating cluster.
        cluster: u16,
    },
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    codec::put_uvarint(out, b.len() as u64);
    out.extend_from_slice(b);
}

fn get_bytes(buf: &[u8], pos: &mut usize) -> Result<Vec<u8>, FedWireError> {
    let n = codec::get_uvarint(buf, pos).map_err(|_| FedWireError::BadField)? as usize;
    let end = pos.checked_add(n).ok_or(FedWireError::Truncated)?;
    if end > buf.len() {
        return Err(FedWireError::Truncated);
    }
    let b = buf[*pos..end].to_vec();
    *pos = end;
    Ok(b)
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, FedWireError> {
    codec::get_uvarint(buf, pos).map_err(|_| FedWireError::BadField)
}

fn put_action(out: &mut Vec<u8>, action: &Action) {
    match action {
        Action::None => codec::put_uvarint(out, 0),
        Action::PowerDown => codec::put_uvarint(out, 1),
        Action::Reboot => codec::put_uvarint(out, 2),
        Action::Halt => codec::put_uvarint(out, 3),
        Action::Plugin(name) => {
            codec::put_uvarint(out, 4);
            put_bytes(out, name.as_bytes());
        }
    }
}

fn get_action(buf: &[u8], pos: &mut usize) -> Result<Action, FedWireError> {
    match get_u64(buf, pos)? {
        0 => Ok(Action::None),
        1 => Ok(Action::PowerDown),
        2 => Ok(Action::Reboot),
        3 => Ok(Action::Halt),
        4 => {
            let name = get_bytes(buf, pos)?;
            Ok(Action::Plugin(
                String::from_utf8(name).map_err(|_| FedWireError::BadField)?,
            ))
        }
        _ => Err(FedWireError::BadField),
    }
}

impl Frame {
    /// Encode to `CWF1` bytes (magic, type, body, CRC-32).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        match self {
            Frame::Hello { cluster, n_nodes } => {
                out.push(T_HELLO);
                codec::put_uvarint(&mut out, *cluster as u64);
                codec::put_uvarint(&mut out, *n_nodes as u64);
            }
            Frame::Metrics { cluster, payload } => {
                out.push(T_METRICS);
                codec::put_uvarint(&mut out, *cluster as u64);
                put_bytes(&mut out, payload);
            }
            Frame::Alarm {
                cluster,
                alarms,
                dropped,
            } => {
                out.push(T_ALARM);
                codec::put_uvarint(&mut out, *cluster as u64);
                codec::put_uvarint(&mut out, *dropped);
                codec::put_uvarint(&mut out, alarms.len() as u64);
                for a in alarms {
                    codec::put_uvarint(&mut out, a.event.0 as u64);
                    codec::put_uvarint(&mut out, a.node as u64);
                    codec::put_uvarint(&mut out, a.time.as_nanos());
                    codec::put_uvarint(&mut out, a.value.to_bits());
                }
            }
            Frame::Resync {
                cluster,
                n_nodes,
                counts,
                reachable,
                applied,
            } => {
                out.push(T_RESYNC);
                codec::put_uvarint(&mut out, *cluster as u64);
                codec::put_uvarint(&mut out, *n_nodes as u64);
                for c in counts.as_array() {
                    codec::put_uvarint(&mut out, c as u64);
                }
                codec::put_uvarint(&mut out, *reachable as u64);
                codec::put_uvarint(&mut out, applied.len() as u64);
                for id in applied {
                    codec::put_uvarint(&mut out, *id);
                }
            }
            Frame::Command { id, node, action } => {
                out.push(T_COMMAND);
                codec::put_uvarint(&mut out, *id);
                codec::put_uvarint(&mut out, *node as u64);
                put_action(&mut out, action);
            }
            Frame::CommandAck { cluster, id, fresh } => {
                out.push(T_COMMAND_ACK);
                codec::put_uvarint(&mut out, *cluster as u64);
                codec::put_uvarint(&mut out, *id);
                codec::put_uvarint(&mut out, *fresh as u64);
            }
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode from `CWF1` bytes.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FedWireError> {
        if bytes.len() < MAGIC.len() + 1 + 4 {
            return Err(FedWireError::Truncated);
        }
        if &bytes[..4] != MAGIC {
            return Err(FedWireError::BadMagic);
        }
        let body_end = bytes.len() - 4;
        let want = u32::from_le_bytes(bytes[body_end..].try_into().unwrap());
        if crc32(&bytes[..body_end]) != want {
            return Err(FedWireError::BadChecksum);
        }
        let buf = &bytes[..body_end];
        let mut pos = 5;
        let frame = match buf[4] {
            T_HELLO => Frame::Hello {
                cluster: get_u64(buf, &mut pos)? as u16,
                n_nodes: get_u64(buf, &mut pos)? as u32,
            },
            T_METRICS => Frame::Metrics {
                cluster: get_u64(buf, &mut pos)? as u16,
                payload: get_bytes(buf, &mut pos)?,
            },
            T_ALARM => {
                let cluster = get_u64(buf, &mut pos)? as u16;
                let dropped = get_u64(buf, &mut pos)?;
                let n = get_u64(buf, &mut pos)? as usize;
                if n > body_end {
                    return Err(FedWireError::Truncated);
                }
                let mut alarms = Vec::with_capacity(n);
                for _ in 0..n {
                    alarms.push(WireAlarm {
                        event: EventId(get_u64(buf, &mut pos)? as u32),
                        node: get_u64(buf, &mut pos)? as u32,
                        time: SimTime::from_nanos(get_u64(buf, &mut pos)?),
                        value: f64::from_bits(get_u64(buf, &mut pos)?),
                    });
                }
                Frame::Alarm {
                    cluster,
                    alarms,
                    dropped,
                }
            }
            T_RESYNC => {
                let cluster = get_u64(buf, &mut pos)? as u16;
                let n_nodes = get_u64(buf, &mut pos)? as u32;
                let mut a = [0u32; LifecycleCounts::N];
                for slot in &mut a {
                    *slot = get_u64(buf, &mut pos)? as u32;
                }
                let reachable = get_u64(buf, &mut pos)? as u32;
                let n = get_u64(buf, &mut pos)? as usize;
                if n > body_end {
                    return Err(FedWireError::Truncated);
                }
                let mut applied = Vec::with_capacity(n);
                for _ in 0..n {
                    applied.push(get_u64(buf, &mut pos)?);
                }
                Frame::Resync {
                    cluster,
                    n_nodes,
                    counts: LifecycleCounts::from_array(a),
                    reachable,
                    applied,
                }
            }
            T_COMMAND => Frame::Command {
                id: get_u64(buf, &mut pos)?,
                node: get_u64(buf, &mut pos)? as u32,
                action: get_action(buf, &mut pos)?,
            },
            T_COMMAND_ACK => Frame::CommandAck {
                cluster: get_u64(buf, &mut pos)? as u16,
                id: get_u64(buf, &mut pos)?,
                fresh: get_u64(buf, &mut pos)? != 0,
            },
            _ => return Err(FedWireError::BadType),
        };
        if pos != body_end {
            return Err(FedWireError::BadField);
        }
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwx_util::time::SimDuration;

    fn roundtrip(f: Frame) {
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
    }

    #[test]
    fn all_frames_round_trip() {
        roundtrip(Frame::Hello {
            cluster: 7,
            n_nodes: 2500,
        });
        roundtrip(Frame::Metrics {
            cluster: 1,
            payload: b"CWB1 opaque".to_vec(),
        });
        roundtrip(Frame::Alarm {
            cluster: 3,
            alarms: vec![WireAlarm {
                event: EventId(2),
                node: 99,
                time: SimTime::ZERO + SimDuration::from_secs(12),
                value: 87.5,
            }],
            dropped: 4,
        });
        roundtrip(Frame::Resync {
            cluster: 2,
            n_nodes: 100,
            counts: LifecycleCounts {
                up: 90,
                off: 10,
                ..Default::default()
            },
            reachable: 90,
            applied: vec![1, 5, 9],
        });
        roundtrip(Frame::Command {
            id: 42,
            node: 17,
            action: Action::Plugin("drain.sh".into()),
        });
        roundtrip(Frame::CommandAck {
            cluster: 2,
            id: 42,
            fresh: true,
        });
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = Frame::Hello {
            cluster: 1,
            n_nodes: 10,
        }
        .encode();
        for i in 0..bytes.len() {
            bytes[i] ^= 0x40;
            assert!(Frame::decode(&bytes).is_err(), "flip at {i} undetected");
            bytes[i] ^= 0x40;
        }
        for n in 0..bytes.len() {
            assert!(Frame::decode(&bytes[..n]).is_err(), "truncation at {n}");
        }
    }
}
