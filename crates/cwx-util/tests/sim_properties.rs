//! Property tests on the discrete-event simulator: time monotonicity,
//! exhaustive execution, deterministic tie-breaking — the invariants the
//! whole reproduction stands on.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex};

use cwx_util::sim::Sim;
use cwx_util::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// An independent event-list engine: a `BinaryHeap` of boxed closures
/// ordered by `(time, seq)`, re-boxing a recurring closure every
/// firing. It is the reference implementation the engine is checked
/// against: [`engine_matches_reference_event_for_event`] drives both
/// through the same randomized schedule. Its world is always `()`, the
/// only world the oracle needs.
///
/// Cancellation is generation-checked like the engine's but eager: a
/// cancel bumps the id slot's generation and frees the slot at once, and
/// a queued entry whose id is no longer live is skipped when popped.
struct HeapSim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<HeapEntry>>,
    executed: u64,
    /// The current generation of every id slot: an id is live while its
    /// generation matches. Retiring an id bumps it and frees the slot.
    gens: Vec<u32>,
    free: Vec<usize>,
}

/// An oracle event id: slot and the generation it was handed out at.
#[derive(Debug, Clone, Copy)]
struct HeapId {
    slot: usize,
    gen: u32,
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    id: HeapId,
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
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn events_executed(&self) -> u64 {
        self.executed
    }

    fn events_pending(&self) -> usize {
        self.gens.len() - self.free.len()
    }

    fn alloc(&mut self) -> HeapId {
        match self.free.pop() {
            Some(slot) => HeapId {
                slot,
                gen: self.gens[slot],
            },
            None => {
                self.gens.push(0);
                HeapId {
                    slot: self.gens.len() - 1,
                    gen: 0,
                }
            }
        }
    }

    fn live(&self, id: HeapId) -> bool {
        self.gens[id.slot] == id.gen
    }

    fn retire(&mut self, id: HeapId) {
        self.gens[id.slot] += 1;
        self.free.push(id.slot);
    }

    /// Queue `f` under `id` at `at` (clamped to now).
    fn push(&mut self, at: SimTime, id: HeapId, f: Box<dyn FnOnce(&mut HeapSim)>) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(HeapEntry { time, seq, id, f }));
    }

    /// Schedule `f` at absolute time `at` (clamped to now). Its id dies
    /// as it fires, before `f` runs.
    fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut HeapSim) + 'static) -> HeapId {
        let id = self.alloc();
        self.push(
            at,
            id,
            Box::new(move |sim| {
                sim.retire(id);
                f(sim)
            }),
        );
        id
    }

    fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut HeapSim) + 'static,
    ) -> HeapId {
        self.schedule_at(self.now + delay, f)
    }

    /// Recurring event every `period` until `f` returns `false` or its
    /// id is cancelled (from inside `f` too), re-boxing the closure each
    /// firing under the one id.
    fn schedule_every(
        &mut self,
        period: SimDuration,
        f: impl FnMut(&mut HeapSim) -> bool + 'static,
    ) -> HeapId {
        fn tick(
            sim: &mut HeapSim,
            id: HeapId,
            period: SimDuration,
            mut f: impl FnMut(&mut HeapSim) -> bool + 'static,
        ) {
            let again = f(sim);
            if !sim.live(id) {
                return; // cancelled itself mid-firing
            }
            if again {
                let at = sim.now + period;
                sim.push(at, id, Box::new(move |sim| tick(sim, id, period, f)));
            } else {
                sim.retire(id);
            }
        }
        let id = self.alloc();
        let at = self.now + period;
        self.push(at, id, Box::new(move |sim| tick(sim, id, period, f)));
        id
    }

    /// `true` if `id` was live (pending, or a recurring event mid-firing).
    fn cancel(&mut self, id: HeapId) -> bool {
        let live = self.live(id);
        if live {
            self.retire(id);
        }
        live
    }

    /// Execute the earliest live event due at or before `limit`; dead
    /// entries popped on the way neither run nor move the clock.
    fn step_until(&mut self, limit: SimTime) -> bool {
        while matches!(self.queue.peek(), Some(Reverse(e)) if e.time <= limit) {
            let Reverse(entry) = self.queue.pop().expect("peeked");
            if !self.live(entry.id) {
                continue;
            }
            assert!(entry.time >= self.now, "event list went backwards");
            self.now = entry.time;
            self.executed += 1;
            (entry.f)(self);
            return true;
        }
        false
    }

    fn run(&mut self) {
        while self.step_until(SimTime::MAX) {}
    }

    /// Run until the clock would pass `deadline` (inclusive).
    fn run_until(&mut self, deadline: SimTime) {
        while self.step_until(deadline) {}
        if self.now < deadline {
            self.now = deadline;
        }
    }
}

/// A randomized workload exercising every scheduling shape the two
/// engines share: one-shots (possibly in the past), nested children,
/// recurring timers with bounded repeat counts, and cancellation of
/// both kinds from handlers and between bounded runs.
#[derive(Debug, Clone)]
struct Scenario {
    /// (time, tag, child delays) — each child is scheduled from inside
    /// the parent's handler, so clamping and tie-breaks get exercised.
    oneshots: Vec<(u64, u32, Vec<u64>)>,
    /// (period≥1, repeats, self-cancel firing) recurring timers; a
    /// nonzero third field makes that firing cancel the timer's own id
    /// and still ask to go on.
    recurring: Vec<(u64, u32, u32)>,
    /// (time, target) handler cancels: at `time` an event cancels id
    /// `target` (modulo the one-shot ids followed by the recurring ones);
    /// the target may already have fired or been cancelled.
    cancels: Vec<(u64, usize)>,
    /// (deadline, target) bounded runs: `run_until(deadline)`, then
    /// cancel id `target` from outside the engine — often an event parked
    /// past the deadline.
    windows: Vec<(u64, usize)>,
    horizon: u64,
}

/// What a scenario run observed: every handler invocation and cancel
/// result as `(now, tag)`, `(now, pending, executed)` after each bounded
/// run, and the final clock, executed and pending counts.
type Trace = (Vec<(u64, u32)>, Vec<(u64, usize, u64)>, u64, u64, usize);

/// Drive a scenario through either engine. The bodies are textually
/// identical; only the simulator type (and so its id type) differs.
macro_rules! drive {
    ($simty:ident, $scn:expr) => {{
        let scn: Scenario = $scn;
        let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let ids = Arc::new(Mutex::new(Vec::new()));
        let mut sim = $simty::new(());
        for (t, tag, children) in scn.oneshots.iter().cloned() {
            let log = Arc::clone(&log);
            let id = sim.schedule_at(SimTime::from_nanos(t), move |sim| {
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
            ids.lock().unwrap().push(id);
        }
        for (k, (period, repeats, self_cancel)) in scn.recurring.iter().cloned().enumerate() {
            let log = Arc::clone(&log);
            let own = Arc::clone(&ids);
            let me = scn.oneshots.len() + k;
            let tag = 50_000 + k as u32;
            let mut fired = 0;
            let id = sim.schedule_every(SimDuration::from_nanos(period), move |sim| {
                let now = sim.now().as_nanos();
                log.lock().unwrap().push((now, tag));
                fired += 1;
                if fired == self_cancel {
                    let id = own.lock().unwrap()[me];
                    let ok = sim.cancel(id);
                    log.lock()
                        .unwrap()
                        .push((now, 60_000 + 2 * k as u32 + ok as u32));
                }
                fired < repeats
            });
            ids.lock().unwrap().push(id);
        }
        let n_ids = ids.lock().unwrap().len();
        for (c, (t, target)) in scn.cancels.iter().cloned().enumerate() {
            let log = Arc::clone(&log);
            let ids = Arc::clone(&ids);
            sim.schedule_at(SimTime::from_nanos(t), move |sim| {
                let id = ids.lock().unwrap()[target % n_ids];
                let ok = sim.cancel(id);
                log.lock()
                    .unwrap()
                    .push((sim.now().as_nanos(), 70_000 + 2 * c as u32 + ok as u32));
            });
        }
        // a sentinel past every other event, cancelled before the final
        // run: reclaiming its dead ticket last must not move the clock
        let sentinel = sim.schedule_at(SimTime::from_nanos(1_000_000), |_| {
            unreachable!("the sentinel is cancelled")
        });
        let mut windows = scn.windows.clone();
        windows.sort_unstable();
        let mut checkpoints = Vec::new();
        for (w, (deadline, target)) in windows.into_iter().enumerate() {
            sim.run_until(SimTime::from_nanos(deadline));
            let id = ids.lock().unwrap()[target % n_ids];
            let ok = sim.cancel(id);
            let now = sim.now().as_nanos();
            log.lock()
                .unwrap()
                .push((now, 80_000 + 2 * w as u32 + ok as u32));
            checkpoints.push((now, sim.events_pending(), sim.events_executed()));
        }
        sim.run_until(SimTime::from_nanos(scn.horizon));
        let ok = sim.cancel(sentinel);
        log.lock()
            .unwrap()
            .push((sim.now().as_nanos(), 90_000 + ok as u32));
        sim.run();
        let out = log.lock().unwrap().clone();
        let trace: Trace = (
            out,
            checkpoints,
            sim.now().as_nanos(),
            sim.events_executed(),
            sim.events_pending(),
        );
        trace
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

    /// The engine is event-for-event identical to the reference heap
    /// of boxed closures: same handler order, same clock at every
    /// firing, same answer from every cancel, same counts after every
    /// bounded run and at the end. Cancelled tickets — one-shot,
    /// recurring, a timer cancelling itself mid-firing, and events
    /// cancelled while parked past a bounded run's deadline — are where
    /// the engine's lazy reclaim differs most from the oracle's eager one.
    #[test]
    fn engine_matches_reference_event_for_event(
        oneshots in proptest::collection::vec(
            (0u64..5_000, 0u32..1000, proptest::collection::vec(0u64..2_000, 0..4)),
            1..60,
        ),
        recurring in proptest::collection::vec((1u64..700, 1u32..12, 0u32..6), 0..6),
        cancels in proptest::collection::vec((0u64..8_000, 0usize..1_000), 0..12),
        windows in proptest::collection::vec((0u64..12_000, 0usize..1_000), 0..5),
        horizon in 1_000u64..20_000,
    ) {
        let scn = Scenario { oneshots, recurring, cancels, windows, horizon };
        let reference = drive!(HeapSim, scn.clone());
        let engine = drive!(Sim, scn);
        prop_assert_eq!(reference, engine);
    }
}
