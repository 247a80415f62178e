//! A simulated node's values path equals its text path, bit for bit.
//!
//! `SyntheticProc::node_reader` hands an agent the state's values
//! without rendering `/proc` text. Every fingerprint of the simulator
//! depends on those values being exactly what the six keep-open
//! gatherers parse out of the rendered files, so this property compares
//! the two over random states, with `to_bits` on every `f64` — including
//! the loads a naive `int + frac / 100` rounds one ulp off `str::parse`
//! (1.14, 1.36), which `next_f64` must round as std does.

use cwx_proc::gather::{NodeFiles, NodeReader, NodeSample};
use cwx_proc::synthetic::{SynthDisk, SynthInterface, SyntheticProc, SyntheticState};
use cwx_proc::ProcSource;
use proptest::prelude::*;

const COUNTER_MAX: u64 = 1 << 53;

/// Loads that `int + frac / 100` misrounds, or that sit on a rounding
/// boundary of `{:.2}` itself.
const AWKWARD_LOADS: [f64; 5] = [1.14, 1.36, 2.675, 0.005, 999.995];

/// A load in [0, 1000): an awkward one, a two-decimal one, or any.
fn load((pick, hundredths, any): (usize, u64, f64)) -> f64 {
    match pick {
        0..=4 => AWKWARD_LOADS[pick],
        5..=9 => hundredths as f64 / 100.0,
        _ => any,
    }
}

fn load_strategy() -> (
    std::ops::Range<usize>,
    std::ops::Range<u64>,
    std::ops::Range<f64>,
) {
    (0..15, 0..100_000, 0.0..1000.0)
}

fn text_sample(proc_: &SyntheticProc) -> NodeSample {
    let mut out = NodeSample::default();
    NodeFiles::open(proc_).unwrap().read(&mut out).unwrap();
    out
}

fn values_sample(proc_: &SyntheticProc) -> NodeSample {
    let mut reader = proc_.node_reader().unwrap();
    assert!(matches!(reader, NodeReader::Values(_)));
    let mut out = NodeSample::default();
    assert_eq!(reader.read(&mut out).unwrap(), 6, "six files' worth");
    out
}

fn assert_bit_equal(text: &NodeSample, values: &NodeSample) {
    let floats = |s: &NodeSample| {
        [
            s.load.one,
            s.load.five,
            s.load.fifteen,
            s.uptime.uptime_secs,
            s.uptime.idle_secs,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(floats(text), floats(values), "fractional fields");
    assert_eq!(text, values);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn values_path_equals_text_path(
        cpus in collection::vec(
            (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX),
            1..=8,
        ),
        mem in (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX),
        kernel in (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX),
        tasks in (0..=COUNTER_MAX, 0..=COUNTER_MAX),
        loads in (load_strategy(), load_strategy(), load_strategy()),
        up in ((0u64..100_000_000_000, 0.0f64..1e9), (0u64..100_000_000_000, 0.0f64..1e9), 0..4usize),
        ifaces in collection::vec(
            ("[a-zA-Z0-9]{1,20}", (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX), (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX)),
            0..4,
        ),
        disks in collection::vec(
            ("[a-zA-Z0-9]{1,12}", 0u32..=u32::MAX, (0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX, 0..=COUNTER_MAX)),
            0..3,
        ),
    ) {
        // uptimes up to 1e9 s: hundredths (what a ticking node holds) or any
        let ((up_c, up_any), (idle_c, idle_any), up_pick) = up;
        let uptime_secs = if up_pick & 1 == 0 { up_c as f64 / 100.0 } else { up_any };
        let idle_secs = if up_pick & 2 == 0 { idle_c as f64 / 100.0 } else { idle_any };
        let state = SyntheticState {
            mem_total_kb: mem.0,
            mem_free_kb: mem.1,
            buffers_kb: mem.2,
            cached_kb: mem.3,
            swap_total_kb: mem.4,
            swap_free_kb: mem.5,
            cpus: cpus.iter().map(|&(u, n, s, i)| [u, n, s, i]).collect(),
            ctxt: kernel.0,
            processes: kernel.1,
            btime: kernel.2,
            procs_running: kernel.3,
            procs_blocked: kernel.4,
            load_one: load(loads.0),
            load_five: load(loads.1),
            load_fifteen: load(loads.2),
            tasks_total: tasks.0,
            last_pid: tasks.1,
            uptime_secs,
            idle_secs,
            interfaces: ifaces
                .iter()
                .map(|(name, rx, tx)| SynthInterface {
                    name: name.clone(),
                    rx_bytes: rx.0,
                    rx_packets: rx.1,
                    rx_errs: rx.2,
                    rx_drop: rx.3,
                    tx_bytes: tx.0,
                    tx_packets: tx.1,
                    tx_errs: tx.2,
                    tx_drop: tx.3,
                })
                .collect(),
            disks: disks
                .iter()
                .map(|(name, major, io)| SynthDisk {
                    name: name.clone(),
                    major: *major,
                    reads: io.0,
                    sectors_read: io.1,
                    writes: io.2,
                    sectors_written: io.3,
                })
                .collect(),
        };
        let proc_ = SyntheticProc::new(state);
        let text = text_sample(&proc_);
        let regenerated = proc_.regenerations();
        assert_bit_equal(&text, &values_sample(&proc_));
        // the count a world snapshot records is the same on both paths
        prop_assert_eq!(proc_.regenerations(), 2 * regenerated);
    }
}

/// The loads a naive parse misrounds keep their text-path bits on the
/// values path, and a default node ticking for a day agrees at every
/// step.
#[test]
fn misrounded_loads_and_a_ticking_node_agree() {
    let proc_ = SyntheticProc::default();
    for load in AWKWARD_LOADS {
        proc_.with_state(|s| {
            s.load_one = load;
            s.load_five = load / 3.0;
        });
        assert_bit_equal(&text_sample(&proc_), &values_sample(&proc_));
    }
    for step in 0..8640u32 {
        proc_.with_state(|s| {
            s.tick(10.0, (step % 97) as f64 / 96.0);
            s.load_one = (step % 350) as f64 / 100.0;
        });
        if step % 97 == 0 {
            assert_bit_equal(&text_sample(&proc_), &values_sample(&proc_));
        }
    }
}

/// Where the text cannot be parsed, the values path fails too, having
/// counted the same regenerations.
#[test]
fn non_finite_fields_fail_on_both_paths() {
    for bad in [f64::NAN, f64::INFINITY] {
        for field in 0..2 {
            let proc_ = SyntheticProc::default();
            proc_.with_state(|s| match field {
                0 => s.load_fifteen = bad,
                _ => s.idle_secs = bad,
            });
            assert!(NodeFiles::open(&proc_)
                .and_then(|mut f| f.read(&mut NodeSample::default()))
                .is_err());
            let regenerated = proc_.regenerations();
            let mut reader = proc_.node_reader().unwrap();
            assert!(reader.read(&mut NodeSample::default()).is_err());
            assert_eq!(proc_.regenerations(), 2 * regenerated);
        }
    }
}
