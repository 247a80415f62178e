//! `CWB1` over a channel that loses, repeats and reorders frames: the
//! decoder's sequence check must never hand out a value the agent did
//! not encode for that frame. Every accepted report equals what was
//! encoded for its `seq`, none is accepted twice, a refused node asks
//! for a reset (itself over the lossy channel), and decoding resumes
//! once a reset frame gets through — also after the agent restarts and
//! its counter begins again at 0.

use std::collections::HashMap;

use cwx_monitor::monitor::{MonitorKey, Value};
use cwx_monitor::transmit::{Report, WireDecoder, WireEncoder, WireError};

/// splitmix64: a small deterministic stream per seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// How the channel misbehaves: the chance a frame is lost, delivered
/// twice, or held back behind later frames.
#[derive(Clone, Copy)]
struct Faults {
    loss: f64,
    dup: f64,
    hold: f64,
}

const CLEAN: Faults = Faults {
    loss: 0.0,
    dup: 0.0,
    hold: 0.0,
};

/// One agent: an encoder, its `seq` counter, a few numeric series that
/// walk, a text value, and a key that appears mid-run.
struct Agent {
    node: u32,
    enc: WireEncoder,
    seq: u64,
    walks: [f64; 4],
}

impl Agent {
    fn new(node: u32) -> Agent {
        Agent {
            node,
            enc: WireEncoder::new(),
            seq: 0,
            walks: [20.0, 0.5, 1e6, 4096.0],
        }
    }

    /// The agent restarted: a fresh encoder, counting from 0 again.
    fn restart(&mut self) {
        self.enc = WireEncoder::new();
        self.seq = 0;
    }

    /// The next report at `time_secs` and its frame.
    fn report(&mut self, rng: &mut Rng, time_secs: f64) -> (Report, Vec<u8>) {
        let mut values = Vec::new();
        for (i, w) in self.walks.iter_mut().enumerate() {
            // some values hold still: consolidation would skip them, so
            // frames carry different key sets
            if rng.chance(0.3) {
                continue;
            }
            *w += (rng.next() % 201) as f64 / 100.0 - 1.0;
            values.push((MonitorKey::new(format!("m.{i}")), Value::Num(*w)));
        }
        if self.seq % 7 == 3 {
            values.push((
                MonitorKey::new("state"),
                Value::Text(format!("s{}", rng.next() % 5)),
            ));
        }
        if time_secs > 400.0 {
            values.push((MonitorKey::new("late.key"), Value::Num(time_secs)));
        }
        let report = Report {
            node: self.node,
            seq: self.seq,
            time_secs,
            values,
        };
        self.seq += 1;
        let frame = self.enc.encode(&report);
        (report, frame)
    }
}

/// What one run saw.
#[derive(Default, Debug)]
struct Tally {
    accepted: u64,
    duplicates: u64,
    desynced: u64,
    resyncs: u64,
}

/// Bit-exact comparison (values are finite here, but compare bits so a
/// wrong XOR chain cannot hide behind `f64 ==`).
fn same(got: &Report, want: &Report) -> bool {
    got.node == want.node
        && got.seq == want.seq
        && got.time_secs.to_bits() == want.time_secs.to_bits()
        && got.values.len() == want.values.len()
        && got
            .values
            .iter()
            .zip(&want.values)
            .all(|((gk, gv), (wk, wv))| {
                gk == wk
                    && match (gv, wv) {
                        (Value::Num(g), Value::Num(w)) => g.to_bits() == w.to_bits(),
                        _ => gv == wv,
                    }
            })
}

/// The receiving end: one decoder for every agent, and the ledger the
/// accepted reports are checked against.
#[derive(Default)]
struct Receiver {
    dec: WireDecoder,
    /// Every report ever encoded, by (node, gather-time bits): unique
    /// across restarts, where `seq` is not.
    sent: HashMap<(u32, u64), Report>,
    accepted: HashMap<(u32, u64), u64>,
    /// Resync requests that reached their agent, by node.
    resync_due: [bool; 3],
    tally: Tally,
}

impl Receiver {
    /// One frame reaches the decoder. A desynced node is sent a resync
    /// request, lost with probability `loss` like any frame.
    fn deliver(&mut self, frame: &[u8], rng: &mut Rng, loss: f64) {
        match self.dec.decode_auto(frame) {
            Ok(got) => {
                let key = (got.node, got.time_secs.to_bits());
                let want = self.sent.get(&key).expect("an accepted report was sent");
                assert!(
                    same(&got, want),
                    "accepted report differs from what was encoded:\n got {got:?}\nwant {want:?}"
                );
                let n = self.accepted.entry(key).or_default();
                *n += 1;
                assert_eq!(*n, 1, "{got:?} accepted twice");
                self.tally.accepted += 1;
            }
            Err(WireError::Duplicate { .. }) => self.tally.duplicates += 1,
            Err(WireError::Desynced { node, .. }) => {
                self.tally.desynced += 1;
                if !rng.chance(loss) {
                    self.tally.resyncs += 1;
                    self.resync_due[node as usize] = true;
                }
            }
            Err(e) => panic!("the channel never corrupts a frame: {e}"),
        }
    }
}

/// Three agents share one channel and one decoder for `ticks` report
/// rounds under `faults`, then for 20 clean rounds. Agent 1 restarts at
/// `restart_at`, once the channel has drained.
fn run(seed: u64, ticks: u64, faults: Faults, restart_at: Option<u64>) -> Tally {
    let mut rng = Rng(seed);
    let mut agents: Vec<Agent> = (0..3).map(Agent::new).collect();
    let mut rx = Receiver::default();
    let mut in_flight: Vec<Vec<u8>> = Vec::new();

    for tick in 0..ticks + 20 {
        let f = if tick < ticks { faults } else { CLEAN };
        if Some(tick) == restart_at {
            for frame in std::mem::take(&mut in_flight) {
                rx.deliver(&frame, &mut rng, f.loss);
            }
            agents[1].restart();
        }
        let time_secs = tick as f64 * 5.0;
        for a in &mut agents {
            if std::mem::take(&mut rx.resync_due[a.node as usize]) {
                a.enc.reset();
            }
            let (report, frame) = a.report(&mut rng, time_secs);
            rx.sent.insert((a.node, time_secs.to_bits()), report);
            if rng.chance(f.loss) {
                continue;
            }
            if rng.chance(f.dup) {
                in_flight.push(frame.clone());
            }
            in_flight.push(frame);
        }
        // held frames wait for a later round; the rest arrive now, in
        // shuffled order while holding is on
        let (held, mut now): (Vec<_>, Vec<_>) =
            in_flight.drain(..).partition(|_| rng.chance(f.hold));
        if f.hold > 0.0 {
            for i in (1..now.len()).rev() {
                now.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
        }
        in_flight = held;
        for frame in now {
            rx.deliver(&frame, &mut rng, f.loss);
        }
    }

    // decoding resumed: every agent's clean tail was accepted
    for a in &agents {
        for tick in ticks + 10..ticks + 20 {
            let key = (a.node, (tick as f64 * 5.0).to_bits());
            assert_eq!(
                rx.accepted.get(&key),
                Some(&1),
                "seed {seed}: node {} tick {tick} not accepted after the faults stopped",
                a.node
            );
        }
    }
    rx.tally
}

#[test]
fn a_clean_channel_accepts_every_frame_and_refuses_none() {
    let t = run(1, 200, CLEAN, None);
    assert_eq!((t.accepted, t.duplicates, t.desynced), (3 * 220, 0, 0));
}

#[test]
fn lost_frames_are_refused_until_a_reset_gets_through() {
    let faults = Faults { loss: 0.2, ..CLEAN };
    for seed in 0..40 {
        let t = run(seed, 200, faults, None);
        assert!(t.desynced > 0 && t.resyncs > 0, "seed {seed}: {t:?}");
        assert_eq!(t.duplicates, 0, "seed {seed}: nothing was repeated");
        assert!(t.accepted > 3 * 200 / 2, "seed {seed}: {t:?}");
    }
}

#[test]
fn repeated_frames_are_stored_once() {
    let faults = Faults { dup: 0.3, ..CLEAN };
    for seed in 0..40 {
        let t = run(seed, 200, faults, None);
        assert!(t.duplicates > 0, "seed {seed}: {t:?}");
        // in order and lossless: every frame applied, no resync needed
        assert_eq!((t.accepted, t.desynced), (3 * 220, 0), "seed {seed}");
    }
}

#[test]
fn loss_repeats_reorders_and_a_restart_never_corrupt_a_value() {
    let faults = Faults {
        loss: 0.15,
        dup: 0.15,
        hold: 0.15,
    };
    let mut total = Tally::default();
    for seed in 0..60 {
        let t = run(seed, 300, faults, Some(150));
        total.accepted += t.accepted;
        total.duplicates += t.duplicates;
        total.desynced += t.desynced;
        total.resyncs += t.resyncs;
    }
    assert!(
        total.duplicates > 0 && total.desynced > 0 && total.resyncs > 0,
        "{total:?}"
    );
}

#[test]
fn a_restart_whose_first_frame_is_lost_recovers_by_resync() {
    let mut dec = WireDecoder::new();
    let mut rng = Rng(9);
    let mut agent = Agent::new(0);
    for tick in 0..5 {
        let (_, frame) = agent.report(&mut rng, tick as f64);
        assert!(dec.decode_auto(&frame).is_ok());
    }
    agent.restart();
    let (_, lost_reset) = agent.report(&mut rng, 10.0);
    drop(lost_reset);
    // seq 1 is below the old agent's 4, but gathered later: a delta
    // from a new agent, refused until its reset frame
    let (_, delta) = agent.report(&mut rng, 11.0);
    assert_eq!(
        dec.decode_auto(&delta),
        Err(WireError::Desynced { node: 0, seq: 1 })
    );
    agent.enc.reset();
    let (want, reset) = agent.report(&mut rng, 12.0);
    assert!(same(&dec.decode_auto(&reset).unwrap(), &want));
    let (want, next) = agent.report(&mut rng, 13.0);
    assert!(same(&dec.decode_auto(&next).unwrap(), &want));
}
