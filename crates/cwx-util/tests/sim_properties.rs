//! Property tests on the discrete-event simulator: time monotonicity,
//! exhaustive execution, deterministic tie-breaking — the invariants the
//! whole reproduction stands on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The pre-wheel event-list engine: a `BinaryHeap` of boxed closures
/// ordered by `(time, seq)`. It is the differential oracle for the
/// timing wheel: [`wheel_matches_heap_event_for_event`] drives both
/// through the same randomized schedule. Its world is always `()`, the
/// only world the oracle needs.
struct HeapSim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<HeapEntry>>,
    executed: u64,
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    f: Box<dyn FnOnce(&mut HeapSim)>,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl HeapSim {
    fn new(_world: ()) -> Self {
        HeapSim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            executed: 0,
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `f` at absolute time `at` (clamped to now).
    fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut HeapSim) + 'static) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(HeapEntry {
            time,
            seq,
            f: Box::new(f),
        }));
    }

    fn schedule_in(&mut self, delay: SimDuration, f: impl FnOnce(&mut HeapSim) + 'static) {
        self.schedule_at(self.now + delay, f);
    }

    /// Recurring event every `period` until `f` returns `false`,
    /// re-boxing the closure each firing.
    fn schedule_every(
        &mut self,
        period: SimDuration,
        f: impl FnMut(&mut HeapSim) -> bool + 'static,
    ) {
        fn tick(
            sim: &mut HeapSim,
            period: SimDuration,
            mut f: impl FnMut(&mut HeapSim) -> bool + 'static,
        ) {
            if f(sim) {
                sim.schedule_in(period, move |sim| tick(sim, period, f));
            }
        }
        self.schedule_in(period, move |sim| tick(sim, period, f));
    }

    fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(Reverse(entry)) => {
                assert!(entry.time >= self.now, "event list went backwards");
                self.now = entry.time;
                self.executed += 1;
                (entry.f)(self);
                true
            }
            None => false,
        }
    }

    fn run(&mut self) {
        while self.step() {}
    }

    /// Run until the clock would pass `deadline` (inclusive).
    fn run_until(&mut self, deadline: SimTime) {
        while matches!(self.queue.peek(), Some(Reverse(e)) if e.time <= deadline) {
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

/// A randomized workload exercising every scheduling shape the two
/// engines share: one-shots (possibly in the past), nested children,
/// and recurring timers with bounded repeat counts.
#[derive(Debug, Clone)]
struct Scenario {
    /// (time, tag, child delays) — each child is scheduled from inside
    /// the parent's handler, so clamping and tie-breaks get exercised.
    oneshots: Vec<(u64, u32, Vec<u64>)>,
    /// (period≥1, repeats) recurring timers.
    recurring: Vec<(u64, u32)>,
    horizon: u64,
}

/// Drive a scenario through either engine, recording `(now, tag)` for
/// every handler invocation. The bodies are textually identical; only
/// the simulator type differs.
macro_rules! drive {
    ($simty:ident, $scn:expr) => {{
        let scn = $scn;
        let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut sim = $simty::new(());
        for (i, (t, tag, children)) in scn.oneshots.iter().cloned().enumerate() {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                log.lock().unwrap().push((sim.now().as_nanos(), tag));
                for (j, d) in children.into_iter().enumerate() {
                    let log = Arc::clone(&log);
                    let ctag = 10_000 + tag * 10 + j as u32;
                    // half the children aim at an *absolute* time that may
                    // be in the past, exercising the clamp path
                    if j % 2 == 0 {
                        sim.schedule_in(SimDuration::from_nanos(d), move |sim| {
                            log.lock().unwrap().push((sim.now().as_nanos(), ctag));
                        });
                    } else {
                        sim.schedule_at(SimTime::from_nanos(d), move |sim| {
                            log.lock().unwrap().push((sim.now().as_nanos(), ctag));
                        });
                    }
                }
            });
            let _ = i;
        }
        for (k, (period, repeats)) in scn.recurring.iter().cloned().enumerate() {
            let log = Arc::clone(&log);
            let tag = 50_000 + k as u32;
            let mut left = repeats;
            sim.schedule_every(SimDuration::from_nanos(period), move |sim| {
                log.lock().unwrap().push((sim.now().as_nanos(), tag));
                left -= 1;
                left > 0
            });
        }
        sim.run_until(SimTime::from_nanos(scn.horizon));
        sim.run();
        let out = log.lock().unwrap().clone();
        (out, sim.now().as_nanos(), sim.events_executed())
    }};
}

proptest! {
    /// Whatever the schedule, events run in nondecreasing time order and
    /// all of them run.
    #[test]
    fn time_never_goes_backwards(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        for &t in &times {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                log.lock().unwrap().push(sim.now().as_nanos());
            });
        }
        sim.run();
        let executed = log.lock().unwrap();
        prop_assert_eq!(executed.len(), times.len());
        prop_assert!(executed.windows(2).all(|w| w[0] <= w[1]));
        let mut expect = times.clone();
        expect.sort_unstable();
        prop_assert_eq!(&*executed, &expect);
    }

    /// Events scheduled *during* execution still respect ordering, and
    /// clamping to "now" never reorders the past.
    #[test]
    fn nested_schedules_stay_ordered(
        seeds in proptest::collection::vec((0u64..1000, 0u64..1000), 1..60)
    ) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        for &(t, child_delay) in &seeds {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                let log2 = Arc::clone(&log);
                log.lock().unwrap().push(sim.now());
                sim.schedule_in(SimDuration::from_nanos(child_delay), move |sim| {
                    log2.lock().unwrap().push(sim.now());
                });
            });
        }
        sim.run();
        let executed = log.lock().unwrap();
        prop_assert_eq!(executed.len(), seeds.len() * 2);
        prop_assert!(executed.windows(2).all(|w| w[0] <= w[1]));
    }

    /// run_until honours the deadline exactly: nothing beyond it runs,
    /// and resuming completes the rest identically to a single run.
    #[test]
    fn run_until_is_a_clean_pause(
        times in proptest::collection::vec(0u64..10_000, 1..100),
        cut in 0u64..10_000,
    ) {
        let build = |log: Arc<Mutex<Vec<u64>>>, times: &[u64]| {
            let mut sim = Sim::new(());
            for &t in times {
                let log = Arc::clone(&log);
                sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                    log.lock().unwrap().push(sim.now().as_nanos());
                });
            }
            sim
        };
        // one-shot run
        let full = Arc::new(Mutex::new(Vec::new()));
        let mut sim = build(Arc::clone(&full), &times);
        sim.run();
        // paused run
        let paused = Arc::new(Mutex::new(Vec::new()));
        let mut sim = build(Arc::clone(&paused), &times);
        sim.run_until(SimTime::from_nanos(cut));
        prop_assert!(paused.lock().unwrap().iter().all(|&t| t <= cut));
        prop_assert!(sim.now() >= SimTime::from_nanos(cut));
        sim.run();
        prop_assert_eq!(&*full.lock().unwrap(), &*paused.lock().unwrap());
    }

    /// The timing-wheel engine is event-for-event identical to the old
    /// binary-heap engine: same handler order, same clock at every
    /// firing, same final state. This is the cross-check that licensed
    /// swapping the scheduler under every seeded experiment.
    #[test]
    fn wheel_matches_heap_event_for_event(
        oneshots in proptest::collection::vec(
            (0u64..5_000, 0u32..1000, proptest::collection::vec(0u64..2_000, 0..4)),
            1..60,
        ),
        recurring in proptest::collection::vec((1u64..700, 1u32..12), 0..6),
        horizon in 1_000u64..20_000,
    ) {
        let scn = Scenario { oneshots, recurring, horizon };
        let (heap_log, heap_now, heap_n) = drive!(HeapSim, scn.clone());
        let (wheel_log, wheel_now, wheel_n) = drive!(Sim, scn);
        prop_assert_eq!(heap_log, wheel_log);
        prop_assert_eq!(heap_now, wheel_now);
        prop_assert_eq!(heap_n, wheel_n);
    }
}
