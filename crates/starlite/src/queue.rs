//! The event queue behind [`crate::Scheduler`]: a binary heap plus a
//! sorted lane.
//!
//! [`HeapQueue`] keeps its three-word keys in two containers. The *lane*
//! is a FIFO that takes every key sorting at or after the lane's last
//! key; every other key goes into a binary min-heap. Popping takes
//! whichever of the two heads is smaller. Keys scheduled in time order
//! stay in the lane: in the simulators those are mostly the deadline
//! timers, each a fixed slack after its transaction's arrival, so the
//! heap holds only the next arrival and the completions in flight.
//!
//! A key's sequence number is normally the next one, but
//! [`HeapQueue::reserve`] can hand out a block of numbers for events
//! scheduled later with [`HeapQueue::schedule_reserved`]. The simulators
//! chain their arrivals that way: one number per transaction is reserved
//! before the run, and each arrival schedules the next under its number.
//!
//! # Determinism
//!
//! Events fire in `(time, sequence)` order — a total order, since sequence
//! numbers are unique. The lane is sorted in that order, because a key
//! joins it only when its whole `(time, sequence)` key sorts after the
//! lane's back; a reserved key at the back's time but with a smaller
//! sequence number goes to the heap. The smaller of the two heads is
//! therefore the earliest pending key, and which container a key went to
//! never changes when it fires.
//!
//! Cancellation is O(1) via generation-tagged slab handles: it vacates the
//! slot and leaves the key behind as a *tombstone*, which is skipped when
//! it reaches a head. Once tombstones exceed 64 and outnumber live events,
//! one purge sweeps both the heap and the lane, so memory stays bounded by
//! the live event count.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use crate::event::{EventId, QueueKey};
use crate::time::SimTime;

/// Counters describing the work a queue has performed, for
/// events-per-second throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueStats {
    /// Events scheduled so far.
    pub scheduled: u64,
    /// Events cancelled before firing.
    pub cancelled: u64,
    /// Events executed (delivered to the model).
    pub executed: u64,
    /// Tombstone keys removed by bulk purges (excluding those skipped
    /// one at a time during pops).
    pub purged: u64,
    /// Events currently pending.
    pub pending: usize,
}

/// One slab slot: the payload of a live event, or vacant. The generation
/// counts how many times the slot has been vacated; handles and queue keys
/// carry the generation they were issued under, so stale ones are
/// recognised in O(1).
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// The payload slab: slot-reusing, generation-tagged storage so queue keys
/// are three words and cancellation never touches the key containers.
struct Slab<E> {
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Occupied slot count == live (pending) events.
    live: usize,
}

impl<E> Slab<E> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Stores `payload` in a free slot, returning the handle.
    fn insert(&mut self, payload: E) -> EventId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slab exceeds u32 slots");
                self.slots.push(Slot {
                    generation: 0,
                    payload: None,
                });
                slot
            }
        };
        let cell = &mut self.slots[slot as usize];
        debug_assert!(
            cell.payload.is_none(),
            "free list returned an occupied slot"
        );
        cell.payload = Some(payload);
        self.live += 1;
        EventId::pack(slot, cell.generation)
    }

    /// Returns `true` if `id` addresses a live (pending) event.
    fn is_live(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot() as usize)
            .is_some_and(|cell| cell.generation == id.generation() && cell.payload.is_some())
    }

    /// Reclaims the slot behind `id` if it is live, bumping its generation
    /// so outstanding handles and queue keys for the old occupant become
    /// stale. Returns `None` for a stale handle.
    fn try_vacate(&mut self, id: EventId) -> Option<E> {
        let cell = self.slots.get_mut(id.slot() as usize)?;
        if cell.generation != id.generation() {
            return None;
        }
        let payload = cell.payload.take()?;
        cell.generation = cell.generation.wrapping_add(1);
        self.free.push(id.slot());
        self.live -= 1;
        Some(payload)
    }
}

impl<E> fmt::Debug for Slab<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slab")
            .field("slots", &self.slots.len())
            .field("live", &self.live)
            .finish()
    }
}

/// Bookkeeping counters.
#[derive(Debug, Default)]
struct Counters {
    next_seq: u64,
    executed: u64,
    scheduled: u64,
    cancelled: u64,
    purged: u64,
}

/// The engine's event queue: a binary min-heap plus a sorted lane.
///
/// See the [module docs](self) for the layout and the ordering argument.
/// Scheduling appends a three-word `(time, sequence, handle)` key to the
/// lane when it sorts at or after the lane's last key and pushes it onto
/// the heap otherwise; cancellation invalidates the slab slot and leaves
/// the key behind as a tombstone; popping skips tombstones by comparing
/// the key's generation against the slot's.
pub struct HeapQueue<E> {
    clock: SimTime,
    heap: BinaryHeap<Reverse<QueueKey>>,
    /// Keys in `(time, seq)` order; each new key at or after the back is
    /// appended here instead of entering the heap.
    lane: VecDeque<QueueKey>,
    slab: Slab<E>,
    /// Keys in `heap` or `lane` whose slot generation no longer matches
    /// (cancelled events not yet skipped or purged).
    stale_keys: usize,
    counters: Counters,
}

impl<E> fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapQueue")
            .field("clock", &self.clock)
            .field("pending", &self.slab.live)
            .field("lane", &self.lane.len())
            .field("tombstones", &self.stale_keys)
            .field("executed", &self.counters.executed)
            .finish()
    }
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        HeapQueue {
            clock: SimTime::ZERO,
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            slab: Slab::new(),
            stale_keys: 0,
            counters: Counters::default(),
        }
    }

    /// Returns the current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Schedules `event` to fire at absolute time `at`; same-time events
    /// fire in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past; the clock is monotone.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventId {
        let seq = self.reserve(1);
        self.insert(at, seq, event)
    }

    /// Reserves the next `n` sequence numbers and returns the first. An
    /// event later scheduled under one of them with
    /// [`Self::schedule_reserved`] ties with same-time events as if it
    /// had been scheduled now: after those scheduled before the
    /// reservation, before those scheduled after it.
    pub fn reserve(&mut self, n: u64) -> u64 {
        let first = self.counters.next_seq;
        self.counters.next_seq += n;
        first
    }

    /// Schedules `event` to fire at `at` under `seq`, a sequence number
    /// taken by [`Self::reserve`]. Each reserved number may be used once,
    /// and the key `(at, seq)` must sort after the event firing now, so
    /// that events keep firing in `(time, sequence)` order.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past or `seq` was never handed out.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            seq < self.counters.next_seq,
            "sequence number {seq} was not reserved"
        );
        self.insert(at, seq, event)
    }

    /// Files `event` under the key `(at, seq)`: at the lane's back when
    /// the key sorts at or after it, which keeps the lane sorted by
    /// `(time, seq)`, and into the heap otherwise.
    fn insert(&mut self, at: SimTime, seq: u64, event: E) -> EventId {
        assert!(
            at >= self.clock,
            "cannot schedule an event in the past ({at} < {})",
            self.clock
        );
        let id = self.slab.insert(event);
        self.counters.scheduled += 1;
        let key = QueueKey { at, seq, id };
        match self.lane.back() {
            Some(back) if key < *back => self.heap.push(Reverse(key)),
            _ => self.lane.push_back(key),
        }
        debug_assert_eq!(self.key_count(), self.slab.live + self.stale_keys);
        id
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event had not yet fired (and now never will).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.slab.try_vacate(id).is_none() {
            return false;
        }
        self.stale_keys += 1;
        self.counters.cancelled += 1;
        debug_assert_eq!(self.key_count(), self.slab.live + self.stale_keys);
        // Purge once tombstones outnumber live keys and are worth a pass.
        if self.stale_keys > 64 && self.stale_keys > self.slab.live {
            self.purge_tombstones();
        }
        true
    }

    /// Returns `true` if `id` is scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slab.is_live(id)
    }

    /// Rebuilds the heap and compacts the lane without tombstone keys.
    fn purge_tombstones(&mut self) {
        let slab = &self.slab;
        let mut kept = std::mem::take(&mut self.heap).into_vec();
        kept.retain(|Reverse(key)| slab.is_live(key.id));
        self.heap = BinaryHeap::from(kept);
        self.lane.retain(|key| slab.is_live(key.id));
        self.counters.purged += self.stale_keys as u64;
        self.stale_keys = 0;
        debug_assert_eq!(self.key_count(), self.slab.live);
    }

    /// The earlier of the lane's and the heap's heads, live or not, and
    /// whether it is the lane's.
    fn head(&self) -> Option<(QueueKey, bool)> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(&lane), Some(&Reverse(heap))) if heap < lane => Some((heap, false)),
            (Some(&lane), _) => Some((lane, true)),
            (None, Some(&Reverse(heap))) => Some((heap, false)),
            (None, None) => None,
        }
    }

    /// Removes the head that [`Self::head`] reported.
    fn pop_head(&mut self, from_lane: bool) {
        if from_lane {
            self.lane.pop_front();
        } else {
            self.heap.pop();
        }
    }

    /// Firing time of the next live event, discarding any tombstone keys
    /// at the heads (dropping a stale key is unobservable, so this may be
    /// called from `&mut self` contexts freely).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some((key, from_lane)) = self.head() {
            if self.slab.is_live(key.id) {
                return Some(key.at);
            }
            self.pop_head(from_lane);
            self.stale_keys -= 1;
        }
        None
    }

    /// Pops the next live event, advancing the clock to its firing time.
    pub fn pop_next(&mut self) -> Option<E> {
        while let Some((key, from_lane)) = self.head() {
            self.pop_head(from_lane);
            let Some(payload) = self.slab.try_vacate(key.id) else {
                self.stale_keys -= 1;
                continue;
            };
            debug_assert!(key.at >= self.clock, "event queue went backwards");
            self.clock = key.at;
            self.counters.executed += 1;
            return Some(payload);
        }
        // The queue drained: every slot must be vacant and every tombstone
        // accounted for, or the slab and the key containers have diverged.
        debug_assert_eq!(self.slab.live, 0, "queue drained with occupied slots");
        debug_assert_eq!(
            self.stale_keys, 0,
            "queue drained with tombstones unaccounted"
        );
        None
    }

    /// Number of events executed so far.
    pub fn executed_count(&self) -> u64 {
        self.counters.executed
    }

    /// Number of events currently pending (excluding tombstones not yet
    /// purged from the queue).
    pub fn pending_count(&self) -> usize {
        self.slab.live
    }

    /// Number of keys the heap and the lane currently retain, including
    /// tombstones — for tests and diagnostics of the purge policy.
    pub fn key_count(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Snapshot of the queue's throughput counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.counters.scheduled,
            cancelled: self.counters.cancelled,
            executed: self.counters.executed,
            purged: self.counters.purged,
            pending: self.slab.live,
        }
    }
}
