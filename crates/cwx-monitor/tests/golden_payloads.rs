//! Golden wire bytes of the paper-format agent (`binary: false,
//! compress: true` — what every simulated node runs).
//!
//! A seeded [`SyntheticProc`] agent runs 50 ticks with state changes,
//! one `resync()` and one plug-in registered after tick 10; the FNV-1a
//! over every payload (length-prefixed, in order) must equal a constant
//! captured before the report path was rebuilt (commit `49f96f3`). Any
//! drift in consolidation order, text rendering or LZSS output — one
//! byte anywhere — fails here, long before a scenario fingerprint moves.

use cwx_monitor::agent::{Agent, AgentConfig};
use cwx_monitor::monitor::{MonitorClass, Value};
use cwx_monitor::snapshot::Sensors;
use cwx_monitor::transmit;
use cwx_proc::synthetic::SyntheticProc;
use cwx_util::hash::{fnv1a_fold, fnv1a_fold_u64, FNV_OFFSET};
use cwx_util::time::{SimDuration, SimTime};

const GOLDEN_FNV1A: u64 = 0xd774_6661_3be5_737f;
const GOLDEN_WIRE_BYTES: u64 = 11_735;

#[test]
fn paper_format_payloads_are_byte_stable() {
    let proc_ = SyntheticProc::default();
    let mut agent = Agent::new(
        proc_.clone(),
        AgentConfig {
            node: 42,
            binary: false,
            compress: true,
            ..AgentConfig::default()
        },
    )
    .unwrap();
    let mut hash = FNV_OFFSET;
    let mut wire_bytes = 0u64;
    // a small LCG drives utilisation so the run needs no rand crate
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for tick in 0..50u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let util = (x >> 40) as f64 / (1u64 << 24) as f64;
        // every fifth tick nothing moves: an all-suppressed report
        if tick % 5 != 4 {
            proc_.with_state(|s| s.tick(5.0, util));
        }
        if tick == 10 {
            let mut calls = 0u32;
            agent.registry_mut().register_plugin(
                "site.queue_depth",
                MonitorClass::Dynamic,
                "",
                move |_| {
                    calls += 1;
                    Some(Value::Num((calls / 3) as f64))
                },
            );
            agent
                .registry_mut()
                .register_plugin("site.rack", MonitorClass::Static, "", |_| {
                    Some(Value::Text("r07".into()))
                });
        }
        if tick == 30 {
            agent.resync();
        }
        let sensors = Sensors {
            cpu_temp_c: 40.0 + (tick % 7) as f64 * 0.37,
            board_temp_c: 31.5,
            fan_rpm: 6000.0 - (tick / 10) as f64 * 125.0,
            power_watts: 120.0 + util * 60.0,
            udp_echo_ok: tick != 20,
        };
        let now = SimTime::ZERO + SimDuration::from_secs(5 * (tick + 1));
        let out = agent.tick(now, sensors).unwrap();
        // the payload is the compressed form of the report's one text
        // rendering, and decodes to the report's shape
        assert_eq!(out.payload.len(), out.wire_len);
        let text = transmit::encode(&out.report);
        assert_eq!(out.raw_len, text.len());
        assert_eq!(
            cwx_util::compress::decompress(&out.payload).unwrap(),
            text.as_bytes()
        );
        hash = fnv1a_fold_u64(hash, out.payload.len() as u64);
        hash = fnv1a_fold(hash, &out.payload);
        wire_bytes += out.payload.len() as u64;
    }
    assert_eq!(
        (hash, wire_bytes),
        (GOLDEN_FNV1A, GOLDEN_WIRE_BYTES),
        "agent payload bytes drifted: got ({hash:#018x}, {wire_bytes})"
    );
}

/// FNV-1a over agent A's payloads in [`plugins_stay_with_their_agent`],
/// captured while every agent still built its own monitor table.
const PLUGIN_AGENT_FNV1A: u64 = 0x890e_6f5f_496b_b1eb;

/// Plug-ins belong to the agent they were registered on. Agent A gets a
/// stateful plug-in whose key sorts between two built-ins
/// (`disk.queue_depth`, between `disk.io_rate` and `disk.reads`) and a
/// replacement for the built-in `load.one`; agent B, on a node of its
/// own, registers nothing and must send exactly what a plain agent over
/// the same node sends. A's bytes are pinned, so the plug-ins keep their
/// place in the key order and the replacement keeps `load.one`'s slot.
#[test]
fn plugins_stay_with_their_agent() {
    let proc_a = SyntheticProc::default();
    let proc_b = SyntheticProc::default();
    let cfg = |node| AgentConfig {
        node,
        binary: false,
        compress: true,
        ..AgentConfig::default()
    };
    let mut a = Agent::new(proc_a.clone(), cfg(1)).unwrap();
    let mut b = Agent::new(proc_b.clone(), cfg(2)).unwrap();
    let mut plain = Agent::new(proc_b.clone(), cfg(2)).unwrap();
    let mut calls = 0u32;
    a.registry_mut()
        .register_plugin("disk.queue_depth", MonitorClass::Dynamic, "", move |_| {
            calls += 1;
            Some(Value::Num((calls / 2) as f64))
        });
    a.registry_mut()
        .register_plugin("load.one", MonitorClass::Dynamic, "", |s| {
            Some(Value::Num((s.load.one * 4.0).round()))
        });
    let mut hash = FNV_OFFSET;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for tick in 0..20u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let util = (x >> 40) as f64 / (1u64 << 24) as f64;
        proc_a.with_state(|s| {
            s.tick(5.0, util);
            s.load_one = util * 3.0;
        });
        proc_b.with_state(|s| {
            s.tick(5.0, 1.0 - util);
            s.load_one = (1.0 - util) * 3.0;
        });
        let sensors = Sensors {
            cpu_temp_c: 42.0 + util,
            udp_echo_ok: true,
            ..Sensors::default()
        };
        let now = SimTime::ZERO + SimDuration::from_secs(5 * (tick + 1));
        let out_a = a.tick(now, sensors).unwrap();
        let out_b = b.tick(now, sensors).unwrap();
        let out_plain = plain.tick(now, sensors).unwrap();
        assert_eq!(
            out_b.payload, out_plain.payload,
            "tick {tick}: agent B's report is not a plain agent's"
        );
        if tick == 0 {
            let keys = |r: &transmit::Report| -> Vec<String> {
                r.values.iter().map(|(k, _)| k.to_string()).collect()
            };
            let (ka, kb) = (keys(&out_a.report), keys(&out_b.report));
            assert!(ka.iter().any(|k| k == "disk.queue_depth"));
            assert!(!kb.iter().any(|k| k == "disk.queue_depth"));
            assert_eq!(ka.len(), kb.len() + 1, "A replaces load.one, adds one");
        }
        hash = fnv1a_fold_u64(hash, out_a.payload.len() as u64);
        hash = fnv1a_fold(hash, &out_a.payload);
    }
    assert_eq!(
        hash, PLUGIN_AGENT_FNV1A,
        "agent A's payload bytes drifted: got {hash:#018x}"
    );
}
