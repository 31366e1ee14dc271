//! Lockstep of the engine's event queue against a flat-list reference.
//!
//! `HeapQueue` keeps its keys in a binary heap and a *lane*: a FIFO that
//! takes every key sorting at or after the lane's last key. This test
//! drives it through the raw queue API beside a reference that keeps
//! every event in one list and fires the alive one with the smallest
//! `(time, sequence number)`, and compares every observation: peeked
//! times, popped payloads, the clock, pending checks, cancel outcomes and
//! counts. A plain schedule takes the next sequence number; a reserved
//! one takes a number handed out earlier, so it can sort before keys
//! scheduled after the reservation.
//!
//! The generator aims at the lane on purpose. Each case starts with a
//! time-sorted run, and later ops add more runs, schedule just below, at
//! and above the last run's final key, tie with the firing time of a
//! pending event, cancel the next event and the front of the last run
//! (the lane head while the run is in the lane), cancel storms that trip
//! the tombstone purge while the lane holds tombstones, cancels of the
//! latest events that purge the lane's tail away (so a later schedule
//! joins the lane at the tick of an earlier heap key), and
//! horizon-bounded drains followed by new schedules. Reservations come
//! in two shapes: free reserved numbers scheduled at the latest pending
//! time (the lane's back, with a smaller number), at another pending
//! event's time or ahead of now; and chains in the shape of the
//! simulators' arrivals, where each link is scheduled under its reserved
//! number when the link before it fires.

use proptest::prelude::*;
use starlite::{EventId, HeapQueue, SimTime};

/// Reference queue: one append-only list, scanned linearly. An event's
/// tag is its index, i.e. its scheduling order.
struct RefQueue {
    /// `(firing time, sequence number, alive)`; alive until fired or
    /// cancelled.
    events: Vec<(u64, u64, bool)>,
    next_seq: u64,
    now: u64,
    /// Sequence number of the event fired last.
    last_seq: Option<u64>,
    executed: u64,
    cancelled: u64,
}

impl RefQueue {
    fn new() -> Self {
        RefQueue {
            events: Vec::new(),
            next_seq: 0,
            now: 0,
            last_seq: None,
            executed: 0,
            cancelled: 0,
        }
    }

    fn schedule(&mut self, at: u64) -> u32 {
        let seq = self.reserve(1);
        self.schedule_reserved(at, seq)
    }

    fn reserve(&mut self, n: u64) -> u64 {
        self.next_seq += n;
        self.next_seq - n
    }

    fn schedule_reserved(&mut self, at: u64, seq: u64) -> u32 {
        self.events.push((at, seq, true));
        (self.events.len() - 1) as u32
    }

    fn is_pending(&self, tag: u32) -> bool {
        self.events[tag as usize].2
    }

    fn cancel(&mut self, tag: u32) -> bool {
        let alive = std::mem::replace(&mut self.events[tag as usize].2, false);
        self.cancelled += u64::from(alive);
        alive
    }

    /// Alive tags in scheduling order.
    fn alive(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.events.len() as u32).filter(|&t| self.is_pending(t))
    }

    /// `(firing time, tag)` of the next event: the alive one with the
    /// smallest `(time, sequence number)`.
    fn next(&self) -> Option<(u64, u32)> {
        let (at, _, tag) = self
            .alive()
            .map(|t| (self.events[t as usize].0, self.events[t as usize].1, t))
            .min()?;
        Some((at, tag))
    }

    fn pop(&mut self) -> Option<u32> {
        let (at, tag) = self.next()?;
        self.events[tag as usize].2 = false;
        self.now = at;
        self.last_seq = Some(self.events[tag as usize].1);
        self.executed += 1;
        Some(tag)
    }

    /// The earliest time at or after `at` at which a key under `seq`
    /// still sorts after the event fired last.
    fn due_after_last(&self, at: u64, seq: u64) -> u64 {
        let at = at.max(self.now);
        if at == self.now && self.last_seq.is_some_and(|last| seq < last) {
            at + 1
        } else {
            at
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// A time-sorted run starting `start` ticks from now, each key `gap`
    /// ticks after the one before (0 gives same-tick neighbours).
    SortedRun { start: u64, gaps: Vec<u64> },
    /// One schedule `d` ticks below (`side` 0), at (1) or `d` ticks above
    /// (2) the final key of the last sorted run, clamped to now.
    NearRunEnd { side: u8, d: u64 },
    /// One schedule at the firing time of a pending event, tying with it.
    Tie { pick: u64 },
    /// One schedule at the latest pending firing time.
    TieLast,
    /// One schedule `delta` ticks from now.
    After { delta: u64 },
    /// Cancel a handle picked over the whole history.
    Cancel { pick: u64 },
    /// Cancel the event that would fire next.
    CancelNext,
    /// Cancel the earliest pending key of the last sorted run.
    CancelRunFront,
    /// Cancel every pending event except every `keep`-th.
    CancelStorm { keep: u64 },
    /// Cancel pending events latest first, up to `n` of them, stopping
    /// at the cancel that purges. The purge drops the lane's cancelled
    /// tail, so the lane can end below a pending heap key, and `TieLast`
    /// then appends to the lane at that heap key's tick.
    CancelLatest { n: usize },
    /// Fire everything due within `delta` ticks, peeking one event past.
    Drain { delta: u64 },
    /// Reserve `n` sequence numbers for later `ScheduleReserved` ops.
    Reserve { n: u64 },
    /// Schedule under a free reserved number picked by `pick`: at the
    /// latest pending firing time (`side` 0), at the firing time of a
    /// pending event picked by `d` (1), or `d` ticks from now (2).
    ScheduleReserved { pick: u64, side: u8, d: u64 },
    /// Start an arrival-shaped chain: reserve one number per link (link
    /// times ascend from `start` ticks from now by `gaps`), schedule the
    /// first link, and schedule each later link when the one before it
    /// fires. Replaces the links an earlier chain has left.
    Chain { start: u64, gaps: Vec<u64> },
}

fn sorted_run(len: std::ops::Range<usize>) -> impl Strategy<Value = Op> {
    (0u64..50, prop::collection::vec(0u64..4, len))
        .prop_map(|(start, gaps)| Op::SortedRun { start, gaps })
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => sorted_run(0..120),
        4 => (0u8..3, 1u64..30).prop_map(|(side, d)| Op::NearRunEnd { side, d }),
        3 => any::<u64>().prop_map(|pick| Op::Tie { pick }),
        1 => Just(Op::TieLast),
        2 => (0u64..100).prop_map(|delta| Op::After { delta }),
        3 => any::<u64>().prop_map(|pick| Op::Cancel { pick }),
        1 => Just(Op::CancelNext),
        1 => Just(Op::CancelRunFront),
        1 => (2u64..8).prop_map(|keep| Op::CancelStorm { keep }),
        1 => (1usize..120).prop_map(|n| Op::CancelLatest { n }),
        3 => (0u64..60).prop_map(|delta| Op::Drain { delta }),
        1 => (1u64..6).prop_map(|n| Op::Reserve { n }),
        3 => (any::<u64>(), 0u8..3, 0u64..40)
            .prop_map(|(pick, side, d)| Op::ScheduleReserved { pick, side, d }),
        1 => (0u64..50, prop::collection::vec(0u64..4, 1..60))
            .prop_map(|(start, gaps)| Op::Chain { start, gaps }),
    ]
}

/// The queue under test, the reference, and the handles they issued.
struct Lockstep {
    queue: HeapQueue<u32>,
    reference: RefQueue,
    /// Handle of each tag, in scheduling order.
    ids: Vec<EventId>,
    /// Tags and final time of the last sorted run.
    run: std::ops::Range<u32>,
    run_end: u64,
    /// Reserved sequence numbers not used yet.
    reserved: Vec<u64>,
    /// The chain's link now scheduled, and its later links as `(time,
    /// reserved number)`, earliest last.
    chain_link: Option<u32>,
    chain: Vec<(u64, u64)>,
}

impl Lockstep {
    fn schedule(&mut self, at: u64) -> Result<(), TestCaseError> {
        let tag = self.reference.schedule(at);
        let id = self.queue.schedule(SimTime::from_ticks(at), tag);
        self.record_id(tag, id)
    }

    fn reserve(&mut self, n: u64) -> Result<std::ops::Range<u64>, TestCaseError> {
        let first = self.queue.reserve(n);
        prop_assert_eq!(first, self.reference.reserve(n));
        Ok(first..first + n)
    }

    fn schedule_reserved(&mut self, at: u64, seq: u64) -> Result<u32, TestCaseError> {
        let tag = self.reference.schedule_reserved(at, seq);
        let id = self
            .queue
            .schedule_reserved(SimTime::from_ticks(at), seq, tag);
        self.record_id(tag, id)?;
        Ok(tag)
    }

    fn record_id(&mut self, tag: u32, id: EventId) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.ids.len(), tag as usize);
        self.ids.push(id);
        Ok(())
    }

    fn cancel(&mut self, tag: u32) -> Result<(), TestCaseError> {
        let id = self.ids[tag as usize];
        prop_assert_eq!(self.queue.is_pending(id), self.reference.is_pending(tag));
        let cancelled = self.queue.cancel(id);
        prop_assert_eq!(cancelled, self.reference.cancel(tag), "cancel of {}", tag);
        if cancelled {
            // Right after a cancel, the purge policy bounds the tombstones
            // held in the heap and the lane together.
            let live = self.queue.pending_count();
            let stale = self.queue.key_count() - live;
            prop_assert!(stale <= 64 || stale <= live, "{} tombstones", stale);
        }
        Ok(())
    }

    /// Pops in lockstep while the next event is due by `horizon`.
    fn drain(&mut self, horizon: Option<u64>) -> Result<(), TestCaseError> {
        loop {
            let peeked = self.queue.next_event_time().map(SimTime::ticks);
            prop_assert_eq!(peeked, self.reference.next().map(|(at, _)| at));
            match (peeked, horizon) {
                (None, _) => return Ok(()),
                (Some(at), Some(h)) if at > h => return Ok(()),
                _ => {}
            }
            let tag = self.reference.pop();
            prop_assert_eq!(self.queue.pop_next(), tag);
            prop_assert_eq!(self.queue.now().ticks(), self.reference.now);
            if tag.is_some() && tag == self.chain_link {
                self.chain_link = None;
                if let Some((at, seq)) = self.chain.pop() {
                    self.chain_link = Some(self.schedule_reserved(at, seq)?);
                }
            }
        }
    }

    fn apply(&mut self, op: Op) -> Result<(), TestCaseError> {
        let now = self.reference.now;
        match op {
            Op::SortedRun { start, gaps } => {
                let first = self.ids.len() as u32;
                let mut at = now + start;
                for gap in gaps {
                    at += gap;
                    self.schedule(at)?;
                }
                self.run = first..self.ids.len() as u32;
                self.run_end = at;
            }
            Op::NearRunEnd { side, d } => {
                let at = match side {
                    0 => self.run_end.saturating_sub(d),
                    1 => self.run_end,
                    _ => self.run_end + d,
                };
                self.schedule(at.max(now))?;
            }
            Op::Tie { pick } => {
                let alive: Vec<u32> = self.reference.alive().collect();
                let at = match alive.len() {
                    0 => now,
                    n => self.reference.events[alive[(pick % n as u64) as usize] as usize].0,
                };
                self.schedule(at)?;
            }
            Op::TieLast => {
                let last = self
                    .reference
                    .alive()
                    .map(|t| self.reference.events[t as usize].0)
                    .max();
                self.schedule(last.unwrap_or(now))?;
            }
            Op::After { delta } => self.schedule(now + delta)?,
            Op::Cancel { pick } => {
                if !self.ids.is_empty() {
                    self.cancel((pick % self.ids.len() as u64) as u32)?;
                }
            }
            Op::CancelNext => {
                if let Some((_, tag)) = self.reference.next() {
                    self.cancel(tag)?;
                }
            }
            Op::CancelRunFront => {
                let front = self.run.clone().find(|&t| self.reference.is_pending(t));
                if let Some(tag) = front {
                    self.cancel(tag)?;
                }
            }
            Op::CancelStorm { keep } => {
                let alive: Vec<u32> = self.reference.alive().collect();
                for (i, tag) in alive.into_iter().enumerate() {
                    if !(i as u64).is_multiple_of(keep) {
                        self.cancel(tag)?;
                    }
                }
            }
            Op::CancelLatest { n } => {
                let mut alive: Vec<(u64, u32)> = self
                    .reference
                    .alive()
                    .map(|t| (self.reference.events[t as usize].0, t))
                    .collect();
                alive.sort_unstable();
                let purged = self.queue.stats().purged;
                for &(_, tag) in alive.iter().rev().take(n) {
                    self.cancel(tag)?;
                    if self.queue.stats().purged > purged {
                        break;
                    }
                }
            }
            Op::Drain { delta } => self.drain(Some(now + delta))?,
            Op::Reserve { n } => {
                let range = self.reserve(n)?;
                self.reserved.extend(range);
            }
            Op::ScheduleReserved { pick, side, d } => {
                if !self.reserved.is_empty() {
                    let seq = self
                        .reserved
                        .swap_remove((pick % self.reserved.len() as u64) as usize);
                    let pending: Vec<u64> = self
                        .reference
                        .alive()
                        .map(|t| self.reference.events[t as usize].0)
                        .collect();
                    let at = match (side, pending.len()) {
                        (_, 0) | (2, _) => now + d,
                        (0, _) => pending.iter().copied().max().unwrap_or(now),
                        (_, n) => pending[(d % n as u64) as usize],
                    };
                    let at = self.reference.due_after_last(at, seq);
                    self.schedule_reserved(at, seq)?;
                }
            }
            Op::Chain { start, gaps } => {
                let seqs = self.reserve(gaps.len() as u64)?;
                let mut at = now + start;
                self.chain = gaps
                    .iter()
                    .zip(seqs)
                    .map(|(gap, seq)| {
                        at += gap;
                        (at, seq)
                    })
                    .collect();
                self.chain.reverse();
                let (at, seq) = self.chain.pop().expect("a chain has a link");
                self.chain_link = Some(self.schedule_reserved(at, seq)?);
            }
        }
        prop_assert_eq!(self.queue.pending_count(), self.reference.alive().count());
        prop_assert!(self.queue.key_count() >= self.queue.pending_count());
        Ok(())
    }
}

proptest! {
    #[test]
    fn heap_queue_matches_reference_model(
        first in sorted_run(1..120),
        ops in prop::collection::vec(op(), 1..24),
    ) {
        let mut s = Lockstep {
            queue: HeapQueue::new(),
            reference: RefQueue::new(),
            ids: Vec::new(),
            run: 0..0,
            run_end: 0,
            reserved: Vec::new(),
            chain_link: None,
            chain: Vec::new(),
        };
        s.apply(first)?;
        for op in ops {
            s.apply(op)?;
        }

        // Full drain: every remaining event fires in reference order.
        s.drain(None)?;
        let stats = s.queue.stats();
        prop_assert_eq!(stats.pending, 0);
        prop_assert_eq!(stats.scheduled, s.ids.len() as u64);
        prop_assert_eq!(stats.executed, s.reference.executed);
        prop_assert_eq!(stats.cancelled, s.reference.cancelled);
        prop_assert_eq!(s.queue.key_count(), 0);

        // Every handle is spent, however its slot was recycled.
        for &id in &s.ids {
            prop_assert!(!s.queue.cancel(id));
        }
    }
}

/// Directed: a purge that removes the lane's tail lets a later schedule
/// at an already-queued heap key's tick join the lane. The tick's three
/// keys — an early lane key, the heap key, the late lane key — must still
/// fire in scheduling order.
#[test]
fn purge_of_lane_tail_keeps_tie_order() {
    let mut q: HeapQueue<u32> = HeapQueue::new();
    // Lane: ticks 100..=199, tags 0..=99.
    let lane: Vec<EventId> = (0..100)
        .map(|i| q.schedule(SimTime::from_ticks(100 + u64::from(i)), i))
        .collect();
    // Below the lane's tail, so it goes to the heap.
    q.schedule(SimTime::from_ticks(150), 100);
    // Cancel ticks 151..=199, then 100..=115: the 65th tombstone, against
    // 36 live keys, purges and leaves the lane ending at tick 150.
    for &id in lane[51..].iter().chain(&lane[..16]) {
        assert!(q.cancel(id));
    }
    assert_eq!(q.stats().purged, 65);
    assert_eq!(q.key_count(), q.pending_count());
    // At the lane's new tail, so it is appended to the lane.
    q.schedule(SimTime::from_ticks(150), 101);

    let mut fired = Vec::new();
    while let Some(tag) = q.pop_next() {
        fired.push((q.now().ticks(), tag));
    }
    let mut expect: Vec<(u64, u32)> = (16..=50).map(|i| (100 + u64::from(i), i)).collect();
    expect.extend([(150, 100), (150, 101)]);
    assert_eq!(fired, expect);
}

/// Directed: a reserved key at the lane's back time but with a smaller
/// sequence number sorts before the back, so it must go to the heap and
/// fire first at that tick; appended to the lane, it would fire last.
#[test]
fn reserved_key_below_lane_back_fires_first() {
    let mut q: HeapQueue<u32> = HeapQueue::new();
    let seq = q.reserve(1);
    q.schedule(SimTime::from_ticks(10), 0);
    q.schedule(SimTime::from_ticks(20), 1);
    q.schedule_reserved(SimTime::from_ticks(20), seq, 2);
    assert_eq!(q.key_count(), 3);

    let mut fired = Vec::new();
    while let Some(tag) = q.pop_next() {
        fired.push((q.now().ticks(), tag));
    }
    assert_eq!(fired, vec![(10, 0), (20, 2), (20, 1)]);
}
