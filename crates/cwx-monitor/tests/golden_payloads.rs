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
