//! The simulation engine: a logical clock driving a cancellable event queue.
//!
//! # Queue layout
//!
//! The queue behind [`Scheduler`] is [`crate::queue::HeapQueue`]: a
//! binary min-heap of three-word `(time, sequence, handle)` keys plus a
//! sorted *lane*, a FIFO that takes every key at or after its own last
//! key. The arrivals the simulators pre-schedule in time order stay in the
//! lane, so the heap holds only the few events in flight. Payloads live in
//! a slab addressed by generation-tagged handles, so cancellation is an
//! O(1) slot invalidation.
//!
//! # Determinism
//!
//! Events fire in `(time, sequence)` order — a total order, since sequence
//! numbers are unique — and neither the split between heap and lane, the
//! slab layout, the slot reuse policy, nor a tombstone purge can affect
//! it. See the [queue module docs](crate::queue) for the ordering
//! argument.

use std::fmt;

use crate::event::EventId;
use crate::queue::HeapQueue;
pub use crate::queue::QueueStats;
use crate::time::{SimDuration, SimTime};

/// A simulation model: the state machine the engine drives.
///
/// The engine pops the next event, advances the clock, and calls
/// [`Model::handle`]. The handler reacts by mutating model state and by
/// scheduling (or cancelling) future events through the [`Scheduler`].
///
/// See the [crate-level example](crate) for a complete model.
pub trait Model {
    /// The event payload type delivered to [`Model::handle`].
    type Event;

    /// Reacts to one event at the current virtual time.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// The clock and event queue shared by the engine and the running model.
///
/// A `Scheduler` is handed to [`Model::handle`] so handlers can read the
/// clock, schedule future events, and cancel previously scheduled ones.
/// It is a thin wrapper over the heap-plus-lane queue.
pub struct Scheduler<E> {
    queue: HeapQueue<E>,
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("queue", &self.queue)
            .finish()
    }
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            queue: HeapQueue::new(),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled. Returns a handle usable with [`Scheduler::cancel`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; the clock is monotone.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        self.queue.schedule(at, event)
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule_after(&mut self, after: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.queue.now() + after, event)
    }

    /// Schedules `event` to fire at the current instant, after all handlers
    /// already queued for this instant.
    pub fn schedule_now(&mut self, event: E) -> EventId {
        self.queue.schedule(self.queue.now(), event)
    }

    /// Cancels a previously scheduled event in O(1).
    ///
    /// Returns `true` if the event had not yet fired (and now never will),
    /// `false` if it already fired or was already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Returns `true` if `id` is scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.queue.is_pending(id)
    }

    /// Firing time of the next live event, discarding tombstones along the
    /// way (unobservable, so this may be called from `&mut self` contexts
    /// freely).
    fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.next_event_time()
    }

    /// Pops the next live event, advancing the clock to its firing time.
    fn pop_next(&mut self) -> Option<E> {
        self.queue.pop_next()
    }

    /// Number of events executed so far.
    pub fn executed_count(&self) -> u64 {
        self.queue.executed_count()
    }

    /// Number of events currently pending (excluding tombstones not yet
    /// purged from the queue).
    pub fn pending_count(&self) -> usize {
        self.queue.pending_count()
    }

    /// Number of keys the queue currently retains, including tombstones —
    /// for tests and diagnostics of the purge policy.
    pub fn key_count(&self) -> usize {
        self.queue.key_count()
    }

    /// Snapshot of the queue's throughput counters.
    pub fn stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

/// The discrete-event simulation engine.
///
/// Owns the [`Model`] and its [`Scheduler`], and runs the classic DES loop:
/// pop the earliest event, advance the clock, dispatch to the model.
///
/// See the [crate-level example](crate).
pub struct Engine<M: Model> {
    sched: Scheduler<M::Event>,
    model: M,
}

impl<M: Model> fmt::Debug for Engine<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("sched", &self.sched)
            .finish()
    }
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero with an empty event queue.
    pub fn new(model: M) -> Self {
        Engine {
            sched: Scheduler::new(),
            model,
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Borrows the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutably borrows the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// Borrows the scheduler, e.g. to seed initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.sched
    }

    /// Snapshot of the event queue's throughput counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.sched.stats()
    }

    /// Executes the next pending event, if any. Returns `false` when the
    /// queue is exhausted.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_next() {
            Some(payload) => {
                self.model.handle(payload, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty or `horizon` would be crossed; events
    /// scheduled exactly at the horizon still fire. Cancelled keys at the
    /// front of the queue are skipped when deciding, so the horizon is
    /// respected even when the earliest key is a tombstone. Returns the
    /// number of events executed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut n = 0;
        while self.sched.next_event_time().is_some_and(|at| at <= horizon) {
            if !self.step() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Runs until the event queue drains.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is `Some(n)` and more than `n` events fire —
    /// a guard against accidentally divergent models.
    pub fn run_to_completion(&mut self, max_events: Option<u64>) -> u64 {
        let mut n = 0;
        while self.step() {
            n += 1;
            if let Some(limit) = max_events {
                assert!(n <= limit, "simulation exceeded {limit} events");
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, u32)>,
    }

    #[derive(Debug)]
    enum Ev {
        Tag(u32),
        CancelAndStop(EventId),
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, ev: Ev, sched: &mut Scheduler<Ev>) {
            match ev {
                Ev::Tag(tag) => self.seen.push((sched.now().ticks(), tag)),
                Ev::CancelAndStop(id) => {
                    assert!(sched.cancel(id));
                }
            }
        }
    }

    #[test]
    fn events_fire_in_time_then_fifo_order() {
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        s.schedule(SimTime::from_ticks(20), Ev::Tag(1));
        s.schedule(SimTime::from_ticks(10), Ev::Tag(2));
        s.schedule(SimTime::from_ticks(10), Ev::Tag(3));
        s.schedule(SimTime::from_ticks(5), Ev::Tag(4));
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen, vec![(5, 4), (10, 2), (10, 3), (20, 1)]);
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        let victim = s.schedule(SimTime::from_ticks(50), Ev::Tag(9));
        s.schedule(SimTime::from_ticks(1), Ev::CancelAndStop(victim));
        s.schedule(SimTime::from_ticks(60), Ev::Tag(7));
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen, vec![(60, 7)]);
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut eng = Engine::new(Recorder::default());
        let id = eng
            .scheduler_mut()
            .schedule(SimTime::from_ticks(1), Ev::Tag(0));
        eng.run_to_completion(None);
        assert!(!eng.scheduler_mut().cancel(id));
    }

    #[test]
    fn double_cancel_reports_false() {
        let mut eng = Engine::new(Recorder::default());
        let id = eng
            .scheduler_mut()
            .schedule(SimTime::from_ticks(1), Ev::Tag(0));
        assert!(eng.scheduler_mut().cancel(id));
        assert!(!eng.scheduler_mut().cancel(id));
        eng.run_to_completion(None);
        assert!(eng.model().seen.is_empty());
    }

    #[test]
    fn run_until_respects_horizon_inclusively() {
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        s.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        s.schedule(SimTime::from_ticks(20), Ev::Tag(2));
        s.schedule(SimTime::from_ticks(21), Ev::Tag(3));
        eng.run_until(SimTime::from_ticks(20));
        assert_eq!(eng.model().seen, vec![(10, 1), (20, 2)]);
        assert_eq!(eng.now(), SimTime::from_ticks(20));
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen.len(), 3);
    }

    #[test]
    fn schedule_between_horizon_and_next_event_still_fires_first() {
        // A horizon-bounded run peeks at the next event beyond the
        // horizon; an event then scheduled between the horizon and that
        // next event lands in the heap, below the lane's last key, and
        // must still fire first.
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        s.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        s.schedule(SimTime::from_ticks(5_000), Ev::Tag(2));
        eng.run_until(SimTime::from_ticks(100));
        assert_eq!(eng.model().seen, vec![(10, 1)]);
        let s = eng.scheduler_mut();
        let kept = s.schedule(SimTime::from_ticks(200), Ev::Tag(3));
        let gone = s.schedule(SimTime::from_ticks(300), Ev::Tag(4));
        assert!(s.is_pending(kept));
        assert!(s.cancel(gone));
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen, vec![(10, 1), (200, 3), (5_000, 2)]);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut eng = Engine::new(Recorder::default());
        eng.scheduler_mut()
            .schedule(SimTime::from_ticks(10), Ev::Tag(1));
        eng.step();
        eng.scheduler_mut()
            .schedule(SimTime::from_ticks(5), Ev::Tag(2));
    }

    #[test]
    fn mid_run_event_ties_after_prescheduled_arrival() {
        // Arrivals pre-scheduled in time order sit in the lane. The first
        // one schedules a follow-up for the second arrival's tick; it is
        // below the lane's last key, so it goes to the heap, and the tie
        // must break by scheduling order: the arrival fires first.
        struct Arrivals {
            order: Vec<(u64, &'static str)>,
        }
        enum AEv {
            Arrival(u64),
            FollowUp,
        }
        impl Model for Arrivals {
            type Event = AEv;
            fn handle(&mut self, ev: AEv, sched: &mut Scheduler<AEv>) {
                let now = sched.now().ticks();
                match ev {
                    AEv::Arrival(i) => {
                        self.order.push((now, "arrival"));
                        if i == 0 {
                            sched.schedule(SimTime::from_ticks(20), AEv::FollowUp);
                        }
                    }
                    AEv::FollowUp => self.order.push((now, "follow-up")),
                }
            }
        }
        let mut eng = Engine::new(Arrivals { order: vec![] });
        let s = eng.scheduler_mut();
        for (i, at) in [10u64, 20, 30].into_iter().enumerate() {
            s.schedule(SimTime::from_ticks(at), AEv::Arrival(i as u64));
        }
        eng.run_to_completion(None);
        assert_eq!(
            eng.model().order,
            vec![
                (10, "arrival"),
                (20, "arrival"),
                (20, "follow-up"),
                (30, "arrival")
            ]
        );
    }

    #[test]
    fn schedule_now_runs_after_current_instant_handlers() {
        struct Chain {
            order: Vec<u32>,
        }
        enum CEv {
            First,
            Second,
            Injected,
        }
        impl Model for Chain {
            type Event = CEv;
            fn handle(&mut self, ev: CEv, sched: &mut Scheduler<CEv>) {
                match ev {
                    CEv::First => {
                        self.order.push(1);
                        sched.schedule_now(CEv::Injected);
                    }
                    CEv::Second => self.order.push(2),
                    CEv::Injected => self.order.push(3),
                }
            }
        }
        let mut eng = Engine::new(Chain { order: vec![] });
        let s = eng.scheduler_mut();
        s.schedule(SimTime::from_ticks(5), CEv::First);
        s.schedule(SimTime::from_ticks(5), CEv::Second);
        eng.run_to_completion(None);
        // Injected was scheduled while handling First, so it fires after
        // Second (which was enqueued earlier for the same instant).
        assert_eq!(eng.model().order, vec![1, 2, 3]);
    }

    #[test]
    fn slot_reuse_does_not_alias_handles() {
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        let a = s.schedule(SimTime::from_ticks(10), Ev::Tag(1));
        assert!(s.cancel(a));
        // The slot is reused immediately; the new handle must differ.
        let b = s.schedule(SimTime::from_ticks(10), Ev::Tag(2));
        assert_ne!(a, b);
        assert!(!s.cancel(a), "stale handle must not cancel the new event");
        assert!(s.is_pending(b));
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen, vec![(10, 2)]);
    }

    #[test]
    fn far_future_events_fire_in_order() {
        // Unsorted times from a few ticks to 2^30, so some keys extend the
        // lane and the rest go to the heap; check global firing order.
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        let times = [
            3u64,
            70,
            64,
            4_095,
            4_096,
            4_097,
            262_143,
            262_144,
            1 << 30,
            63,
        ];
        for (i, &t) in times.iter().enumerate() {
            s.schedule(SimTime::from_ticks(t), Ev::Tag(i as u32));
        }
        eng.run_to_completion(None);
        let mut expect: Vec<(u64, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        expect.sort();
        assert_eq!(eng.model().seen, expect);
    }

    #[test]
    fn mass_cancellation_purges_tombstones() {
        let mut eng = Engine::new(Recorder::default());
        let s = eng.scheduler_mut();
        let ids: Vec<EventId> = (0..1_000)
            .map(|i| s.schedule(SimTime::from_ticks(100 + i), Ev::Tag(i as u32)))
            .collect();
        // Sorted schedules all take the lane, which `key_count` includes.
        assert_eq!(s.key_count(), 1_000);
        for id in &ids[..900] {
            assert!(s.cancel(*id));
        }
        // Tombstones outnumbered live keys long ago; the queue must have
        // purged down to the live events (plus at most the batch
        // cancelled since the last purge).
        assert!(s.key_count() < 300, "queue kept {} keys", s.key_count());
        assert_eq!(s.pending_count(), 100);
        let stats = s.stats();
        assert_eq!(stats.cancelled, 900);
        assert!(stats.purged > 0);
        eng.run_to_completion(None);
        assert_eq!(eng.model().seen.len(), 100);
        assert_eq!(eng.queue_stats().executed, 100);
    }
}
