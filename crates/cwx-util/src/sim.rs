//! A deterministic discrete-event simulator.
//!
//! The reproduction runs every cluster-scale experiment (boot storms,
//! cloning campaigns, monitoring traffic, failure-injection) on this
//! engine. The design is a binary heap of tickets over a slab of event
//! entries:
//!
//! * events live in a slab (`Vec` + free list) and are addressed by a
//!   generation-checked [`EventId`], giving O(1) [`Sim::cancel`] with no
//!   ABA hazards: a cancelled event's ticket stays queued and its slab
//!   entry is freed when the ticket reaches the top of the heap,
//! * the pending set is a `BinaryHeap` of 24-byte tickets ordered by
//!   `(time, seq)`, so scheduling and dispatch are O(log n) in the
//!   pending count (4,505 per world in the benchmark's federation round,
//!   at most 1,477 in the shipped manifests),
//! * recurring timers ([`Sim::schedule_every`]) keep one slab entry and
//!   one closure allocation for their entire life instead of re-boxing
//!   a fresh closure every period,
//! * ties at the same timestamp are broken by a global insertion
//!   sequence number, which makes runs bit-for-bit reproducible for a
//!   fixed seed (`tests/sim_properties.rs` checks the order event for
//!   event against an independent heap of boxed closures).
//!
//! The world state `W` is owned by the simulator and handed to each event
//! by `&mut`, so event handlers can freely mutate any component without
//! interior mutability. Handlers are `Send`, so a `Sim<W>` is `Send`
//! whenever `W` is: independent simulations (a federation's sub-worlds)
//! can be stepped on different threads. A handler that shares state
//! outside the world does so through `Arc<Mutex<_>>`, not `Rc<RefCell<_>>`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

use crate::time::{SimDuration, SimTime};

/// A one-shot event handler: runs at its scheduled time with exclusive
/// access to the whole simulation.
type OnceFn<W> = Box<dyn FnOnce(&mut Sim<W>) + Send>;
/// A recurring event handler: re-fires every period until it returns
/// `false` (or is cancelled).
type EveryFn<W> = Box<dyn FnMut(&mut Sim<W>) -> bool + Send>;

/// Handle to a scheduled event, returned by the `schedule_*` methods.
///
/// Stays valid until the event fires (its last firing, for recurring
/// events) or is cancelled; after that, [`Sim::cancel`] on the stale id
/// is a safe no-op even if the slab slot has been reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

enum Payload<W> {
    /// One-shot closure.
    Once(OnceFn<W>),
    /// Recurring closure; the box is reused across firings.
    Every { period: SimDuration, f: EveryFn<W> },
    /// Free slot, cancelled entry, or closure taken out while firing.
    Empty,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Free,
    Pending,
    /// A recurring event whose closure is currently executing.
    Running,
    /// Cancelled but its ticket is still queued; reclaimed lazily.
    Cancelled,
}

/// The slab entry: just lifecycle state and the closure. Time and seq
/// travel with the [`Ticket`], so the heap orders tickets without
/// touching the slab.
struct Entry<W> {
    gen: u32,
    state: State,
    payload: Payload<W>,
}

/// What the heap holds: everything ordering needs, inline. The derived
/// order is `(time, seq)`; `seq` is unique, so `idx` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ticket {
    /// Absolute firing time, nanoseconds.
    time: u64,
    /// Global insertion order; the tie-break at equal times.
    seq: u64,
    /// Slab index of the entry.
    idx: u32,
}

/// A discrete-event simulation over a world `W`.
///
/// ```
/// use cwx_util::sim::Sim;
/// use cwx_util::time::SimDuration;
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule_in(SimDuration::from_secs(1), |sim| {
///     *sim.world_mut() += 1;
///     sim.schedule_in(SimDuration::from_secs(1), |sim| *sim.world_mut() += 10);
/// });
/// sim.run();
/// assert_eq!(*sim.world(), 11);
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
pub struct Sim<W> {
    world: W,
    now: SimTime,
    seq: u64,
    executed: u64,
    /// Live (non-cancelled) scheduled events.
    pending: usize,
    /// Every queued ticket, cancelled ones included, earliest on top.
    queue: BinaryHeap<Reverse<Ticket>>,
    entries: Vec<Entry<W>>,
    free: Vec<u32>,
}

impl<W> Sim<W> {
    /// Create a simulator at time zero owning `world`.
    pub fn new(world: W) -> Self {
        Sim {
            world,
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            pending: 0,
            queue: BinaryHeap::new(),
            entries: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending (cancelled events don't count).
    pub fn events_pending(&self) -> usize {
        self.pending
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// A canonical digest of the engine's scheduling state: clock,
    /// sequence and event counters, every queued ticket (time, seq, slab
    /// index) in `(time, seq)` order, slab entry states and generations,
    /// and the free list.
    ///
    /// Two simulators that executed the same event history have equal
    /// digests; any divergence in the pending set, tie-break order or
    /// slab reuse shows up here, and the heap's internal layout does
    /// not. Event closures themselves are opaque and deliberately
    /// excluded — the snapshot design verifies them by replay, not by
    /// serialization.
    pub fn state_digest(&self) -> u64 {
        use crate::hash::{fnv1a_fold_u64 as f, FNV_OFFSET};
        let mut h = FNV_OFFSET;
        h = f(h, self.now.as_nanos());
        h = f(h, self.seq);
        h = f(h, self.executed);
        h = f(h, self.pending as u64);
        let mut queued: Vec<Ticket> = self.queue.iter().map(|r| r.0).collect();
        queued.sort_unstable();
        for t in &queued {
            h = f(h, t.time);
            h = f(h, t.seq);
            h = f(h, t.idx as u64);
        }
        h = f(h, self.entries.len() as u64);
        for e in &self.entries {
            let s = match e.state {
                State::Free => 0u64,
                State::Pending => 1,
                State::Running => 2,
                State::Cancelled => 3,
            };
            h = f(h, s | ((e.gen as u64) << 8));
        }
        for &idx in &self.free {
            h = f(h, idx as u64);
        }
        h
    }

    // ---- slab ----

    fn alloc(&mut self, payload: Payload<W>) -> EventId {
        self.pending += 1;
        match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                debug_assert_eq!(e.state, State::Free);
                e.state = State::Pending;
                e.payload = payload;
                EventId { idx, gen: e.gen }
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    gen: 0,
                    state: State::Pending,
                    payload,
                });
                EventId { idx, gen: 0 }
            }
        }
    }

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.state = State::Free;
        e.payload = Payload::Empty;
        e.gen = e.gen.wrapping_add(1);
        self.free.push(idx);
    }

    // ---- queue ----

    /// Queue slab entry `idx` to fire at `time`, after everything
    /// already queued for that instant.
    fn enqueue(&mut self, time: u64, idx: u32) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Ticket { time, seq, idx }));
    }

    /// Pop the earliest live ticket if it is due at or before `limit`.
    /// Cancelled tickets met on the way are popped and their entries
    /// freed; nothing later than `limit` is touched.
    fn pop_due(&mut self, limit: u64) -> Option<Ticket> {
        while let Some(&Reverse(t)) = self.queue.peek() {
            if t.time > limit {
                return None;
            }
            self.queue.pop();
            match self.entries[t.idx as usize].state {
                State::Pending => return Some(t),
                State::Cancelled => self.free_entry(t.idx),
                State::Free | State::Running => unreachable!("queued event in bad state"),
            }
        }
        None
    }

    /// Execute the event of a popped, live ticket.
    fn dispatch(&mut self, t: Ticket) {
        let idx = t.idx;
        debug_assert!(t.time >= self.now.as_nanos(), "event list went backwards");
        self.now = SimTime::from_nanos(t.time);
        self.executed += 1;
        self.pending -= 1;
        let e = &mut self.entries[idx as usize];
        match mem::replace(&mut e.payload, Payload::Empty) {
            Payload::Once(f) => {
                // free before the call: the id is dead, the slot reusable
                self.free_entry(idx);
                f(self);
            }
            Payload::Every { period, mut f } => {
                self.entries[idx as usize].state = State::Running;
                let again = f(self);
                let e = &mut self.entries[idx as usize];
                if !again || e.state == State::Cancelled {
                    self.free_entry(idx);
                } else {
                    // reuse the entry and the closure box; fresh seq so
                    // the next firing ties after anything `f` scheduled
                    e.state = State::Pending;
                    e.payload = Payload::Every { period, f };
                    self.pending += 1;
                    self.enqueue(t.time.saturating_add(period.as_nanos()), idx);
                }
            }
            Payload::Empty => unreachable!("dispatching an empty event"),
        }
    }

    // ---- public scheduling API ----

    /// Schedule `f` to run at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the event runs at the
    /// current time, after already-queued events with the same timestamp.
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut Sim<W>) + Send + 'static,
    ) -> EventId {
        let time = at.max(self.now).as_nanos();
        let id = self.alloc(Payload::Once(Box::new(f)));
        self.enqueue(time, id.idx);
        id
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim<W>) + Send + 'static,
    ) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule a recurring event every `period`, starting one period
    /// from now, until `f` returns `false` (or the event is cancelled).
    /// One slab entry and one closure allocation serve every firing.
    pub fn schedule_every(
        &mut self,
        period: SimDuration,
        f: impl FnMut(&mut Sim<W>) -> bool + Send + 'static,
    ) -> EventId {
        let time = (self.now + period).as_nanos();
        let id = self.alloc(Payload::Every {
            period,
            f: Box::new(f),
        });
        self.enqueue(time, id.idx);
        id
    }

    /// Cancel a scheduled event in O(1). Returns `true` if the event was
    /// still pending (or is a recurring event, including mid-firing —
    /// it will not re-fire); `false` if it already fired, was already
    /// cancelled, or the id is stale.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(e) = self.entries.get_mut(id.idx as usize) else {
            return false;
        };
        if e.gen != id.gen {
            return false;
        }
        match e.state {
            State::Pending => {
                e.state = State::Cancelled;
                e.payload = Payload::Empty;
                self.pending -= 1;
                true
            }
            // a recurring event cancelling itself from inside its own
            // closure: suppress the re-schedule
            State::Running => {
                e.state = State::Cancelled;
                true
            }
            State::Free | State::Cancelled => false,
        }
    }

    // ---- driving ----

    /// Execute the next pending event, advancing the clock to its
    /// timestamp. Returns `false` when no live events remain.
    pub fn step(&mut self) -> bool {
        match self.pop_due(u64::MAX) {
            Some(t) => {
                self.dispatch(t);
                true
            }
            None => false,
        }
    }

    /// Run until no events remain.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Run until no events remain or the clock would pass `deadline`.
    ///
    /// Events scheduled exactly at the deadline still execute; the first
    /// event strictly beyond it is left in the queue and the clock is
    /// advanced to the deadline.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.pop_due(deadline.as_nanos()) {
            self.dispatch(t);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Run for `span` of simulated time from now.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn events_run_in_time_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        for &t in &[5u64, 1, 3, 2, 4] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.lock().unwrap().push(t));
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        for i in 0..10u32 {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(7), move |_| log.lock().unwrap().push(i));
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn scheduling_in_the_past_clamps_to_now() {
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::from_nanos(100), |sim| {
            // try to schedule "earlier" — must still run, at t=100
            sim.schedule_at(SimTime::from_nanos(10), |sim| {
                let now = sim.now();
                sim.world_mut().push(now);
            });
        });
        sim.run();
        assert_eq!(sim.world().len(), 1);
        assert_eq!(sim.world()[0], SimTime::from_nanos(100));
    }

    #[test]
    fn past_clamp_runs_after_queued_same_time_events() {
        // an event clamped to "now" must run after events already queued
        // at that timestamp (it has a later seq)
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        for tag in [1u32, 2] {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(50), move |_| {
                log.lock().unwrap().push(tag)
            });
        }
        {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(50), move |sim| {
                log.lock().unwrap().push(3);
                let log = Arc::clone(&log);
                // clamped: runs at t=50 but after the tag=2 event
                sim.schedule_at(SimTime::from_nanos(7), move |_| log.lock().unwrap().push(4));
            });
        }
        // reorder: the clamping event was scheduled first at seq order 1,2,3
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(sim.now(), SimTime::from_nanos(50));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_nanos(10), |sim| *sim.world_mut() += 1);
        sim.schedule_at(SimTime::from_nanos(20), |sim| *sim.world_mut() += 1);
        sim.schedule_at(SimTime::from_nanos(30), |sim| *sim.world_mut() += 1);
        sim.run_until(SimTime::from_nanos(20));
        assert_eq!(*sim.world(), 2); // event at t=20 inclusive
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.events_pending(), 1);
        sim.run_until(SimTime::from_nanos(25));
        // nothing ran, but the clock advanced to the deadline
        assert_eq!(*sim.world(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(25));
    }

    #[test]
    fn bounded_run_then_insert_before_parked_events() {
        // a paused run must still accept events earlier than what is
        // parked beyond its deadline
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::from_secs_n(1000), |sim| sim.world_mut().push(1000));
        sim.run_until(SimTime::from_secs_n(10));
        sim.schedule_at(SimTime::from_secs_n(20), |sim| sim.world_mut().push(20));
        sim.run();
        assert_eq!(*sim.world(), vec![20, 1000]);
    }

    impl SimTime {
        fn from_secs_n(s: u64) -> SimTime {
            SimTime::ZERO + SimDuration::from_secs(s)
        }
    }

    #[test]
    fn schedule_every_repeats_until_false() {
        let mut sim = Sim::new(0u32);
        sim.schedule_every(SimDuration::from_secs(1), |sim| {
            *sim.world_mut() += 1;
            *sim.world() < 5
        });
        sim.run();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn nested_scheduling_chains() {
        // each event schedules the next; 1000 deep
        fn chain(sim: &mut Sim<u64>, remaining: u64) {
            *sim.world_mut() += 1;
            if remaining > 0 {
                sim.schedule_in(SimDuration::from_nanos(1), move |sim| {
                    chain(sim, remaining - 1)
                });
            }
        }
        let mut sim = Sim::new(0u64);
        sim.schedule_in(SimDuration::ZERO, |sim| chain(sim, 999));
        sim.run();
        assert_eq!(*sim.world(), 1000);
    }

    #[test]
    fn cancel_prevents_execution() {
        let mut sim = Sim::new(0u32);
        let keep = sim.schedule_at(SimTime::from_nanos(10), |sim| *sim.world_mut() += 1);
        let kill = sim.schedule_at(SimTime::from_nanos(20), |sim| *sim.world_mut() += 10);
        assert_eq!(sim.events_pending(), 2);
        assert!(sim.cancel(kill));
        assert_eq!(sim.events_pending(), 1);
        assert!(!sim.cancel(kill), "double cancel is a no-op");
        sim.run();
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.events_executed(), 1);
        assert!(!sim.cancel(keep), "fired events cannot be cancelled");
    }

    #[test]
    fn cancel_then_fire_same_tick() {
        // first handler at t cancels the second handler at the same t
        let log = Arc::new(Mutex::new(Vec::new()));
        let victim = Arc::new(Mutex::new(None));
        let mut sim = Sim::new(());
        {
            let victim = Arc::clone(&victim);
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(5), move |sim| {
                log.lock().unwrap().push("killer");
                let id = victim.lock().unwrap().take().unwrap();
                assert!(sim.cancel(id));
            });
        }
        {
            let log = Arc::clone(&log);
            let id = sim.schedule_at(SimTime::from_nanos(5), move |_| {
                log.lock().unwrap().push("victim");
            });
            *victim.lock().unwrap() = Some(id);
        }
        sim.run();
        assert_eq!(*log.lock().unwrap(), vec!["killer"]);
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn cancel_recurring_stops_it_for_good() {
        let mut sim = Sim::new(0u32);
        let id = sim.schedule_every(SimDuration::from_secs(1), |sim| {
            *sim.world_mut() += 1;
            true
        });
        sim.run_for(SimDuration::from_secs(3));
        assert_eq!(*sim.world(), 3);
        assert!(sim.cancel(id));
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(*sim.world(), 3);
        assert_eq!(sim.events_pending(), 0);
    }

    #[test]
    fn recurring_can_cancel_itself_mid_firing() {
        let id_cell: Arc<Mutex<Option<EventId>>> = Arc::new(Mutex::new(None));
        let id_cell2 = Arc::clone(&id_cell);
        let mut sim = Sim::new(0u32);
        let id = sim.schedule_every(SimDuration::from_secs(1), move |sim| {
            *sim.world_mut() += 1;
            if *sim.world() == 2 {
                let id = id_cell2.lock().unwrap().unwrap();
                assert!(sim.cancel(id));
            }
            true // says "go on", but the cancellation wins
        });
        *id_cell.lock().unwrap() = Some(id);
        sim.run();
        assert_eq!(*sim.world(), 2);
    }

    #[test]
    fn stale_id_on_reused_slot_is_rejected() {
        let mut sim = Sim::new(0u32);
        let old = sim.schedule_at(SimTime::from_nanos(1), |sim| *sim.world_mut() += 1);
        sim.run();
        // the slab slot is free now; a new event will reuse it
        let new = sim.schedule_at(SimTime::from_nanos(2), |sim| *sim.world_mut() += 10);
        assert!(!sim.cancel(old), "stale generation must not cancel");
        sim.run();
        assert_eq!(*sim.world(), 11);
        assert!(!sim.cancel(new));
    }

    #[test]
    fn far_future_events_dispatch_in_order() {
        // times spread over 18 orders of magnitude, up to the end of the
        // clock, all dispatch in order
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(());
        let times: Vec<u64> = (0..12)
            .map(|k| 7u64 << (5 * k))
            .chain([u64::MAX - 1])
            .collect();
        for &t in times.iter().rev() {
            let log = Arc::clone(&log);
            sim.schedule_at(SimTime::from_nanos(t), move |_| log.lock().unwrap().push(t));
        }
        sim.run();
        let mut expect = times.clone();
        expect.sort_unstable();
        assert_eq!(*log.lock().unwrap(), expect);
    }

    #[test]
    fn interleaved_near_and_far_events() {
        // a far-future event must not block or reorder a stream of near
        // events queued beneath it
        let mut sim = Sim::new(Vec::new());
        sim.schedule_at(SimTime::from_nanos(1 << 40), |sim| {
            sim.world_mut().push(u64::MAX)
        });
        sim.schedule_every(SimDuration::from_secs(1), |sim| {
            let n = sim.now().as_nanos();
            sim.world_mut().push(n);
            sim.world().len() < 20
        });
        sim.run();
        let w = sim.world();
        assert_eq!(w.len(), 21);
        assert!(w.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(*w.last().unwrap(), u64::MAX);
    }

    #[test]
    fn cancelled_ticket_past_the_limit_stays_queued_and_dead() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_nanos(10), |sim| *sim.world_mut() += 1);
        let late = sim.schedule_at(SimTime::from_nanos(100), |sim| *sim.world_mut() += 10);
        assert!(sim.cancel(late));
        sim.run_until(SimTime::from_nanos(50));
        assert_eq!((*sim.world(), sim.events_pending()), (1, 0));
        // the dead ticket is still queued, so its slot is not reused yet
        let next = sim.schedule_at(SimTime::from_nanos(60), |sim| *sim.world_mut() += 100);
        assert_ne!(next.idx, late.idx);
        sim.run();
        // reclaiming the dead ticket neither fires it nor moves the clock
        assert_eq!(*sim.world(), 101);
        assert_eq!(sim.now(), SimTime::from_nanos(60));
        assert_eq!(sim.events_executed(), 2);
        assert!(!sim.cancel(late));
    }
}
