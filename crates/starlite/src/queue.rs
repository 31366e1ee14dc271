//! The event queue behind [`crate::Scheduler`] and its reference model.
//!
//! [`WheelQueue`] is the production queue: a hierarchical timing wheel
//! tuned for the dense, mostly near-future timestamps a discrete-event
//! simulation produces. [`HeapQueue`] is the original binary-heap queue,
//! retained as the executable reference model: the equivalence proptests
//! and the kernel benches drive both types directly against each other.
//!
//! Both queues expose the same API and the same observable semantics:
//! events fire in `(time, sequence)` order — a total order, since sequence
//! numbers are unique — cancellation is O(1) via generation-tagged slab
//! handles, and tombstones are purged once they outnumber live events so
//! memory stays bounded by the live event count.
//!
//! # Wheel layout
//!
//! The wheel has [`LEVELS`] levels of [`SLOTS_PER_LEVEL`] slots each.
//! Level 0 slots span exactly one tick; level `k` slots span
//! `64^k` ticks, so 11 levels cover the full 64-bit tick range. An event
//! is filed by the highest bit in which its firing time differs from the
//! wheel cursor: near-future events land in level 0 (where every event in
//! a slot shares one exact firing time), far-future events land higher up
//! and cascade down as the cursor approaches them. A per-level occupancy
//! bitmap (one `u64` for 64 slots) finds the next non-empty slot with two
//! bit operations, so an empty stretch of virtual time costs O(levels),
//! not O(ticks).
//!
//! # Determinism
//!
//! The wheel preserves the exact `(time, sequence)` firing order of the
//! heap: a level-0 slot is staged into a dispatch buffer sorted by
//! sequence before any of it fires, and no level-0 slot is staged until
//! every higher-level slot that could hold an equal-or-earlier event has
//! cascaded. Simulation results are byte-identical across the two queues.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// The payload slab shared by both queue implementations: slot-reusing,
/// generation-tagged storage so queue keys are three words and
/// cancellation never touches the key structure.
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

/// Bookkeeping counters shared by both queue implementations.
#[derive(Debug, Default)]
struct Counters {
    next_seq: u64,
    executed: u64,
    scheduled: u64,
    cancelled: u64,
    purged: u64,
}

/// Tombstone purge policy shared by both queues: rebuild once tombstones
/// outnumber live keys and are worth a linear pass.
fn purge_due(stale_keys: usize, live: usize) -> bool {
    stale_keys > 64 && stale_keys > live
}

// ---------------------------------------------------------------------------
// Binary-heap reference queue
// ---------------------------------------------------------------------------

/// The original binary-heap event queue, retained as the executable
/// reference model for [`WheelQueue`].
///
/// Scheduling pushes a three-word [`QueueKey`] onto a min-heap;
/// cancellation invalidates the slab slot and leaves the key behind as a
/// tombstone; popping skips tombstones by comparing the key's generation
/// against the slot's.
pub struct HeapQueue<E> {
    clock: SimTime,
    queue: BinaryHeap<Reverse<QueueKey>>,
    slab: Slab<E>,
    /// Keys in `queue` whose slot generation no longer matches (cancelled
    /// events not yet skipped or purged).
    stale_keys: usize,
    counters: Counters,
}

impl<E> fmt::Debug for HeapQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapQueue")
            .field("clock", &self.clock)
            .field("pending", &self.slab.live)
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
            queue: BinaryHeap::new(),
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
        assert!(
            at >= self.clock,
            "cannot schedule an event in the past ({at} < {})",
            self.clock
        );
        let seq = self.counters.next_seq;
        self.counters.next_seq += 1;
        let id = self.slab.insert(event);
        self.counters.scheduled += 1;
        self.queue.push(Reverse(QueueKey { at, seq, id }));
        debug_assert_eq!(self.queue.len(), self.slab.live + self.stale_keys);
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
        debug_assert_eq!(self.queue.len(), self.slab.live + self.stale_keys);
        if purge_due(self.stale_keys, self.slab.live) {
            self.purge_tombstones();
        }
        true
    }

    /// Returns `true` if `id` is scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slab.is_live(id)
    }

    /// Rebuilds the heap without tombstone keys.
    fn purge_tombstones(&mut self) {
        let keys = std::mem::take(&mut self.queue).into_vec();
        let mut kept = Vec::with_capacity(self.slab.live);
        for Reverse(key) in keys {
            if self.slab.is_live(key.id) {
                kept.push(Reverse(key));
            }
        }
        self.counters.purged += self.stale_keys as u64;
        self.stale_keys = 0;
        self.queue = BinaryHeap::from(kept);
        debug_assert_eq!(self.queue.len(), self.slab.live);
    }

    /// Firing time of the next live event, discarding any tombstone keys
    /// sitting on top of the heap (dropping a stale key is unobservable, so
    /// this may be called from `&mut self` contexts freely).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse(key)) = self.queue.peek() {
            if self.slab.is_live(key.id) {
                return Some(key.at);
            }
            self.queue.pop();
            self.stale_keys -= 1;
        }
        None
    }

    /// Pops the next live event, advancing the clock to its firing time.
    pub fn pop_next(&mut self) -> Option<E> {
        while let Some(Reverse(key)) = self.queue.pop() {
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
        // accounted for, or the slab and heap have diverged.
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

    /// Number of keys the queue currently retains, including tombstones —
    /// for tests and diagnostics of the purge policy.
    pub fn key_count(&self) -> usize {
        self.queue.len()
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

// ---------------------------------------------------------------------------
// Hierarchical timing wheel
// ---------------------------------------------------------------------------

/// log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per wheel level; one `u64` occupancy bitmap covers a level.
const SLOTS_PER_LEVEL: usize = 1 << LEVEL_BITS;
const SLOT_MASK: u64 = (SLOTS_PER_LEVEL - 1) as u64;
/// Levels needed so `64^LEVELS` covers every 64-bit tick value.
const LEVELS: usize = 11;

/// The production event queue: a hierarchical timing wheel.
///
/// See the [module docs](self) for the layout and the determinism
/// argument. The API and observable behaviour are identical to
/// [`HeapQueue`]; the equivalence proptest in
/// `tests/proptest_scheduler_equiv.rs` drives both against each other.
pub struct WheelQueue<E> {
    /// Observable virtual time: the firing time of the last popped event.
    clock: SimTime,
    /// Wheel position in ticks. Invariant: `clock <= cursor` and every
    /// event filed in the wheel fires at `>= cursor`; events scheduled
    /// behind the cursor (possible only after a horizon-bounded peek
    /// cascaded the wheel forward) go to `early` instead.
    cursor: u64,
    slab: Slab<E>,
    /// `LEVELS * SLOTS_PER_LEVEL` slot buckets, level-major.
    slots: Vec<Vec<QueueKey>>,
    /// One bit per slot, set iff the bucket is non-empty.
    occupancy: [u64; LEVELS],
    /// Events scheduled behind the cursor, sorted descending by
    /// `(time, seq)` so the minimum pops from the back. These fire before
    /// anything in the wheel (they are strictly earlier by the cursor
    /// invariant) and the vector is almost always empty.
    early: Vec<QueueKey>,
    /// The level-0 slot currently being fired: all keys share
    /// `dispatch_at`, sorted descending by `seq` so the minimum pops from
    /// the back. Same-instant events scheduled while draining land in the
    /// (now empty) origin slot and are staged after this batch, which is
    /// exactly `(time, seq)` order because their sequences are larger.
    dispatch: Vec<QueueKey>,
    dispatch_at: SimTime,
    /// Keys filed anywhere above whose slab slot no longer matches
    /// (cancelled events not yet skipped or purged).
    stale_keys: usize,
    counters: Counters,
}

impl<E> fmt::Debug for WheelQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WheelQueue")
            .field("clock", &self.clock)
            .field("cursor", &self.cursor)
            .field("pending", &self.slab.live)
            .field("tombstones", &self.stale_keys)
            .field("executed", &self.counters.executed)
            .finish()
    }
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        let mut slots = Vec::new();
        slots.resize_with(LEVELS * SLOTS_PER_LEVEL, Vec::new);
        WheelQueue {
            clock: SimTime::ZERO,
            cursor: 0,
            slab: Slab::new(),
            slots,
            occupancy: [0; LEVELS],
            early: Vec::new(),
            dispatch: Vec::new(),
            dispatch_at: SimTime::ZERO,
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
        assert!(
            at >= self.clock,
            "cannot schedule an event in the past ({at} < {})",
            self.clock
        );
        let seq = self.counters.next_seq;
        self.counters.next_seq += 1;
        let id = self.slab.insert(event);
        self.counters.scheduled += 1;
        self.push_key(QueueKey { at, seq, id });
        id
    }

    /// Files `key` into the wheel level/slot addressed by its firing time
    /// relative to the cursor, or into `early` if it is behind the cursor.
    fn push_key(&mut self, key: QueueKey) {
        let t = key.at.ticks();
        if t < self.cursor {
            // Only reachable when a horizon-bounded peek cascaded the
            // wheel past `t` and the caller then scheduled between the
            // horizon and the next pending event. Such an event is
            // strictly earlier than everything in the wheel.
            let i = self
                .early
                .partition_point(|k| (k.at, k.seq) > (key.at, key.seq));
            self.early.insert(i, key);
            return;
        }
        let masked = t ^ self.cursor;
        let level = if masked == 0 {
            0
        } else {
            ((63 - masked.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot = ((t >> (LEVEL_BITS as usize * level)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS_PER_LEVEL + slot].push(key);
        self.occupancy[level] |= 1 << slot;
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event had not yet fired (and now never will).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.slab.try_vacate(id).is_none() {
            return false;
        }
        self.stale_keys += 1;
        self.counters.cancelled += 1;
        if purge_due(self.stale_keys, self.slab.live) {
            self.purge_tombstones();
        }
        true
    }

    /// Returns `true` if `id` is scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slab.is_live(id)
    }

    /// Sweeps every bucket, dropping tombstone keys, so memory stays
    /// bounded by the live event count on cancel-heavy workloads.
    fn purge_tombstones(&mut self) {
        let slab = &self.slab;
        for level in 0..LEVELS {
            let mut occ = self.occupancy[level];
            while occ != 0 {
                let slot = occ.trailing_zeros() as usize;
                occ &= occ - 1;
                let bucket = &mut self.slots[level * SLOTS_PER_LEVEL + slot];
                bucket.retain(|k| slab.is_live(k.id));
                if bucket.is_empty() {
                    self.occupancy[level] &= !(1 << slot);
                }
            }
        }
        self.early.retain(|k| slab.is_live(k.id));
        self.dispatch.retain(|k| slab.is_live(k.id));
        self.counters.purged += self.stale_keys as u64;
        self.stale_keys = 0;
    }

    /// The earliest possibly-occupied `(level, slot, slot base time)`
    /// across all levels. The base is exact for level 0 (level-0 slots
    /// span one tick) and a lower bound for higher levels; ties prefer the
    /// higher level so every slot that could hold an equal-or-earlier
    /// event cascades before a level-0 slot is staged.
    fn wheel_candidate(&self) -> Option<(usize, usize, u64)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for level in 0..LEVELS {
            let occ = self.occupancy[level];
            if occ == 0 {
                continue;
            }
            let shift = LEVEL_BITS * level as u32;
            let pos = ((self.cursor >> shift) & SLOT_MASK) as u32;
            // Distance (in slots, wrapping) from the cursor's slot to the
            // next occupied one; a wrap means the slot is in the next
            // higher-level epoch.
            let dist = occ.rotate_right(pos).trailing_zeros();
            let idx = ((pos + dist) as u64 & SLOT_MASK) as usize;
            let wrapped = (pos + dist) as usize >= SLOTS_PER_LEVEL;
            let epoch_shift = shift + LEVEL_BITS;
            let epoch = if epoch_shift >= 64 {
                0
            } else {
                self.cursor >> epoch_shift
            };
            let base = ((epoch + wrapped as u64) << LEVEL_BITS | idx as u64) << shift;
            let better = match best {
                Some((b, l, _)) => base < b || (base == b && level > l),
                None => true,
            };
            if better {
                best = Some((base, level, idx));
            }
        }
        best.map(|(base, level, idx)| (level, idx, base))
    }

    /// Drains a level `>= 1` slot, refiling its live keys relative to the
    /// slot's base time. Every key lands at a strictly lower level, so
    /// repeated cascading terminates.
    fn cascade(&mut self, level: usize, slot: usize, base: u64) {
        debug_assert!(level >= 1);
        debug_assert!(base >= self.cursor);
        self.occupancy[level] &= !(1 << slot);
        let mut keys = std::mem::take(&mut self.slots[level * SLOTS_PER_LEVEL + slot]);
        self.cursor = base;
        for &key in &keys {
            if self.slab.is_live(key.id) {
                self.push_key(key);
            } else {
                self.stale_keys -= 1;
            }
        }
        // Hand the emptied bucket back so its capacity is reused; the
        // cascade refiled only into strictly lower levels, never here.
        keys.clear();
        self.slots[level * SLOTS_PER_LEVEL + slot] = keys;
    }

    /// Stages a ready level-0 slot into the dispatch buffer: all its keys
    /// share the firing time `base`, sorted by sequence so the buffer pops
    /// in deterministic order.
    fn stage_dispatch(&mut self, slot: usize, base: u64) {
        debug_assert!(self.dispatch.is_empty());
        debug_assert!(base >= self.cursor);
        self.occupancy[0] &= !(1 << slot);
        self.cursor = base;
        self.dispatch_at = SimTime::from_ticks(base);
        // Swap buffers so both allocations survive: the bucket's keys
        // become the dispatch batch, the spent dispatch vector becomes the
        // (empty) bucket.
        let mut keys = std::mem::replace(&mut self.slots[slot], std::mem::take(&mut self.dispatch));
        let slab = &self.slab;
        let before = keys.len();
        keys.retain(|k| slab.is_live(k.id));
        self.stale_keys -= before - keys.len();
        keys.sort_unstable_by_key(|k| std::cmp::Reverse(k.seq));
        self.dispatch = keys;
    }

    /// Advances the wheel until the next live event is exactly located:
    /// either in `early` or at the front of the dispatch buffer. Returns
    /// `false` when the queue is empty.
    fn locate_next(&mut self) -> bool {
        loop {
            while let Some(&key) = self.early.last() {
                if self.slab.is_live(key.id) {
                    return true;
                }
                self.early.pop();
                self.stale_keys -= 1;
            }
            while let Some(&key) = self.dispatch.last() {
                if self.slab.is_live(key.id) {
                    return true;
                }
                self.dispatch.pop();
                self.stale_keys -= 1;
            }
            match self.wheel_candidate() {
                Some((0, slot, base)) => self.stage_dispatch(slot, base),
                Some((level, slot, base)) => self.cascade(level, slot, base),
                None => return false,
            }
        }
    }

    /// Firing time of the next live event. May cascade wheel levels and
    /// drop tombstones, all of which is unobservable.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        if !self.locate_next() {
            return None;
        }
        match self.early.last() {
            Some(key) => Some(key.at),
            None => Some(self.dispatch_at),
        }
    }

    /// Pops the next live event, advancing the clock to its firing time.
    pub fn pop_next(&mut self) -> Option<E> {
        if !self.locate_next() {
            debug_assert_eq!(self.slab.live, 0, "queue drained with occupied slots");
            debug_assert_eq!(
                self.stale_keys, 0,
                "queue drained with tombstones unaccounted"
            );
            return None;
        }
        let key = match self.early.pop() {
            Some(key) => key,
            None => self.dispatch.pop().expect("locate_next found an event"),
        };
        let payload = self
            .slab
            .try_vacate(key.id)
            .expect("locate_next returned a stale key");
        debug_assert!(key.at >= self.clock, "event queue went backwards");
        self.clock = key.at;
        self.counters.executed += 1;
        Some(payload)
    }

    /// Number of events executed so far.
    pub fn executed_count(&self) -> u64 {
        self.counters.executed
    }

    /// Number of events currently pending (excluding tombstones not yet
    /// purged from the wheel).
    pub fn pending_count(&self) -> usize {
        self.slab.live
    }

    /// Number of keys the queue currently retains, including tombstones —
    /// for tests and diagnostics of the purge policy.
    pub fn key_count(&self) -> usize {
        self.early.len() + self.dispatch.len() + self.slots.iter().map(Vec::len).sum::<usize>()
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
