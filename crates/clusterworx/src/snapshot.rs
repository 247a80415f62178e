//! Canonical world-state capture for the snapshot subsystem.
//!
//! [`capture_sections`] walks every stateful component of a simulated
//! cluster — engine scheduling state, RNG streams, per-node hardware,
//! firmware, agents, the network, chassis, lifecycle chains, the audit
//! trail, the control plane, the server (with its decoder's per-agent
//! sequence state) and its history store — and
//! renders each into a named section of canonical bytes.
//!
//! The capture is strictly read-only: it never drains queues (no
//! `take_actions`/`take_alarms`/`fed_snapshot`), never draws from an
//! RNG (stream positions are probed on clones), and never schedules an
//! event — so capturing at time *t* leaves the run byte-identical to a
//! run that never captured at all. That property is what makes
//! verified-replay resume sound: the straight run and the resumed run
//! both capture, compare, and neither is perturbed by it.
//!
//! Event closures in the event queue are deliberately *not*
//! serialized (they are arbitrary `FnOnce`/`FnMut` over the world);
//! instead the engine's pending tickets, in `(time, seq)` order, and
//! its slab are digested via [`cwx_util::Sim::state_digest`], and
//! resume re-derives the closures by replaying the deterministic
//! prefix, verifying every section below matches the capture
//! byte-for-byte.

use cwx_util::hash::{fnv1a, fnv1a_debug, fnv1a_fold_u64};
use cwx_util::rng::stream_probe;
use cwx_util::snapshot::{put_str, put_u32, put_u64};
use cwx_util::Sim;

use crate::world::World;

/// How many words each RNG stream probe draws from a cloned generator.
const PROBE_DRAWS: usize = 4;

/// Capture the complete state of a cluster world as named canonical
/// sections, in a fixed order. See the module docs for what each
/// section covers and why closures are excluded.
pub fn capture_sections(sim: &Sim<World>) -> Vec<(String, Vec<u8>)> {
    let w = sim.world();
    let n = w.nodes.len();
    let mut sections: Vec<(String, Vec<u8>)> = Vec::new();
    let mut push = |name: &str, data: Vec<u8>| sections.push((name.to_string(), data));

    // engine: clock, counters and the pending-queue/slab digest
    let mut b = Vec::new();
    put_u64(&mut b, sim.now().as_nanos());
    put_u64(&mut b, sim.events_executed());
    put_u64(&mut b, sim.events_pending() as u64);
    put_u64(&mut b, sim.state_digest());
    push("engine", b);

    // rng: stream positions of every generator in the world
    let mut b = Vec::new();
    put_u64(&mut b, stream_probe(&w.rng, PROBE_DRAWS));
    put_u64(&mut b, stream_probe(&w.cmd_rng, PROBE_DRAWS));
    for st in &w.nodes {
        put_u64(&mut b, stream_probe(&st.rng, PROBE_DRAWS));
    }
    push("rng", b);

    // hw: every node's full hardware state, exact float bits
    let mut b = Vec::new();
    put_u32(&mut b, n as u32);
    for st in &w.nodes {
        st.hw.encode_state(&mut b);
    }
    push("hw", b);

    // bios: per-node firmware chip state
    let mut b = Vec::new();
    for st in &w.nodes {
        put_str(&mut b, &format!("{:?}", st.bios));
    }
    push("bios", b);

    // agents: presence, counters, injected faults, boot chains, images
    let mut b = Vec::new();
    for st in &w.nodes {
        match &st.agent {
            Some(a) => {
                b.push(1);
                put_str(&mut b, &format!("{:?}", a.stats()));
            }
            None => b.push(0),
        }
        put_str(&mut b, &format!("{:?}", st.agent_fault));
        put_u32(&mut b, st.pending_boot.len() as u32);
        put_str(&mut b, &format!("{:?}", st.image));
    }
    push("agents", b);

    // net: segments, topology, counters, loss-RNG stream
    let mut b = Vec::new();
    put_u64(&mut b, w.net.state_digest());
    push("net", b);

    // icebox: chassis relays, sequencer queues, probes, consoles
    let mut b = Vec::new();
    put_u32(&mut b, w.iceboxes.len() as u32);
    for bx in &w.iceboxes {
        put_str(&mut b, bx.firmware_version());
        for aux in 0..cwx_icebox::chassis::AUX_PORTS {
            b.push(bx.aux_outlet_on(aux) as u8);
        }
        for p in 0..cwx_icebox::NODE_PORTS {
            let port = cwx_icebox::PortId(p as u8);
            b.push(bx.relay_on(port) as u8);
            put_str(&mut b, &format!("{:?}", bx.pending_energize(port)));
            put_str(&mut b, &format!("{:?}", bx.probe_fault(port)));
            put_u64(&mut b, fnv1a(bx.console_log(port).as_bytes()));
            put_u64(&mut b, bx.console_overflow(port));
        }
    }
    push("icebox", b);

    // lifecycle: per-node chain position plus every transition so far
    let lc = w.control.lifecycle();
    let mut b = Vec::new();
    for node in 0..n as u32 {
        put_str(&mut b, &format!("{:?}", lc.state(node)));
        put_str(&mut b, &format!("{:?}", lc.since(node)));
        put_str(&mut b, &format!("{:?}", lc.up_since(node)));
    }
    for c in lc.counts().as_array() {
        put_u64(&mut b, c as u64);
    }
    let transitions = w.control.transitions();
    put_u64(&mut b, transitions.len() as u64);
    put_u64(&mut b, fnv1a_debug(&transitions));
    push("lifecycle", b);

    // audit: the control plane's audit trail (the chaos report's hash)
    let mut b = Vec::new();
    put_u64(&mut b, w.control.audit().len() as u64);
    put_u64(&mut b, fnv1a_debug(w.control.audit()));
    push("audit", b);

    // control: command accounting, quarantine set, timed-work wakeups
    let mut b = Vec::new();
    put_str(&mut b, &format!("{:?}", w.control.stats()));
    put_u64(&mut b, w.control.outstanding() as u64);
    put_str(&mut b, &format!("{:?}", w.control.next_wakeup()));
    put_str(&mut b, &format!("{:?}", w.control_wake));
    for node in 0..n as u32 {
        b.push(w.control.quarantined(node) as u8);
    }
    push("control", b);

    // server: ingest counters, per-node status, notifier state, and
    // the segment decoder's place in each agent's frame sequence
    let mut b = Vec::new();
    put_str(&mut b, &format!("{:?}", w.server.stats()));
    put_u64(&mut b, w.server.reachable_count() as u64);
    put_u64(&mut b, w.server.mails_suppressed());
    put_u64(&mut b, w.server.storms());
    put_u64(&mut b, w.server.outbox().len() as u64);
    put_u64(&mut b, fnv1a_debug(w.server.outbox()));
    for node in 0..n as u32 {
        put_str(&mut b, &format!("{:?}", w.server.node_status(node)));
        put_str(&mut b, &format!("{:?}", w.decoder.seq_state(node)));
    }
    put_u64(&mut b, w.resync_requests);
    b.push(w.scheduler.is_some() as u8);
    push("server", b);

    // store: the history store's full contents, one digest per node
    let mut b = Vec::new();
    let hist = w.server.history();
    let series = hist.series();
    put_u64(&mut b, series.len() as u64);
    put_u64(&mut b, hist.total_samples());
    crate::dashboard::for_each_node_csv(&**hist, &series, n as u32, |csv| {
        put_u64(&mut b, fnv1a(csv.as_bytes()))
    });
    push("store", b);

    sections
}

/// One `u64` summarizing an entire capture — handy for logging and
/// quick comparisons when the section bytes themselves aren't needed.
pub fn capture_digest(sections: &[(String, Vec<u8>)]) -> u64 {
    let mut h = cwx_util::hash::FNV_OFFSET;
    for (name, data) in sections {
        h = cwx_util::hash::fnv1a_fold(h, name.as_bytes());
        h = fnv1a_fold_u64(h, data.len() as u64);
        h = cwx_util::hash::fnv1a_fold(h, data);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};
    use cwx_util::SimDuration;

    fn world(seed: u64) -> Sim<World> {
        Cluster::build(ClusterConfig {
            n_nodes: 8,
            seed,
            ..ClusterConfig::default()
        })
    }

    #[test]
    fn capture_is_deterministic_and_non_perturbing() {
        let mut a = world(7);
        let mut b = world(7);
        a.run_for(SimDuration::from_secs(300));
        b.run_for(SimDuration::from_secs(300));
        let ca = capture_sections(&a);
        // b captures twice: capturing must not change anything
        let cb1 = capture_sections(&b);
        let cb2 = capture_sections(&b);
        assert_eq!(capture_digest(&ca), capture_digest(&cb1));
        assert_eq!(capture_digest(&cb1), capture_digest(&cb2));
        // and the worlds keep evolving identically after a capture
        a.run_for(SimDuration::from_secs(300));
        b.run_for(SimDuration::from_secs(300));
        assert_eq!(
            capture_digest(&capture_sections(&a)),
            capture_digest(&capture_sections(&b))
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = world(7);
        let mut b = world(8);
        a.run_for(SimDuration::from_secs(300));
        b.run_for(SimDuration::from_secs(300));
        assert_ne!(
            capture_digest(&capture_sections(&a)),
            capture_digest(&capture_sections(&b))
        );
    }

    #[test]
    fn sections_cover_every_subsystem() {
        let sim = world(1);
        let sections = capture_sections(&sim);
        let names: Vec<&str> = sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "engine",
                "rng",
                "hw",
                "bios",
                "agents",
                "net",
                "icebox",
                "lifecycle",
                "audit",
                "control",
                "server",
                "store"
            ]
        );
    }
}
