//! The sharded, mutex-protected lock table driving the 2PL family
//! (FIFO 2PL, priority-queue 2PL, priority inheritance) on real threads.
//!
//! Layout follows the classic `lock_table` shape: objects hash to one of
//! `SHARDS` buckets, each bucket a `Mutex<Shard>` over per-object entries
//! holding the current holders and the wait queue. A blocked requester
//! parks on its own [`WaitSlot`] (mutex + condvar); grants are handed out
//! by whichever thread mutates the entry (a releaser wakes the waiters it
//! unblocks), so there is no separate lock-manager thread.
//!
//! Deadlock detection is global and eager: a single [`Mutex`]-protected
//! [`WaitsForGraph`] (the same structure the simulator uses) is kept
//! exactly in sync with the bucket queues — every enqueue, dequeue and
//! grant pass recomputes the affected entry's wait-for edges while both
//! the bucket and the detector are held (lock order: bucket, then
//! detector; at most one bucket is ever held). Any new edge therefore
//! runs a cycle check at the instant it appears, so late-forming cycles
//! (a transaction granted here, then blocked elsewhere) are caught too.
//! The lowest-effective-priority cycle member is poisoned through its
//! wait slot and aborts itself on wakeup.
//!
//! A release that leaves an entry with no waiters skips the detector
//! altogether: with nobody queued, a grant pass would grant nothing,
//! sync no edges and check no survivors.
//!
//! Event stamping: every `LockRequested` / `LockGranted` / `LockBlocked`
//! / `LockUpgraded` / `LockReleased` / `DeadlockDetected` takes its
//! sequence number *inside* the bucket critical section that performs
//! the state change (see [`crate::recorder`]), so the merged stream
//! linearizes each object's history exactly as it happened. The clock
//! is read once per call, not per event: [`LiveTable::acquire`] stamps
//! with the caller's reading, [`LiveTable::release_all`] takes one for
//! all its releases and grants, and a waiter that wakes takes a fresh
//! one.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use monitor::SimEventKind;
use rtdb::{LockMode, ObjectId, TxnId, WaitsForGraph};
use starlite::{FxHashMap, FxHashSet, Priority};

use crate::recorder::{Recorder, ThreadLog};

/// Wait-queue discipline, mirroring the simulator's `QueuePolicy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveQueue {
    /// Strict arrival order (the paper's "2PL").
    Fifo,
    /// Most-urgent-first (the paper's "2PL with priority mode").
    Priority,
}

/// Outcome of a blocking acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// The caller was chosen as a deadlock victim: release everything,
    /// emit the abort, and restart the transaction.
    Deadlock,
    /// The wall-clock deadline passed while the request was queued —
    /// possibly before the caller even parked — and the request has been
    /// withdrawn: the lock is NOT held. A grant that races the timeout
    /// returns [`Acquire::Granted`] instead, so a timed-out object never
    /// needs releasing.
    Timeout,
}

/// What a parked waiter observes when it wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WaitState {
    Waiting,
    Granted,
    Victim,
}

/// One parked request: the waiter sleeps here, granters and the deadlock
/// detector flip the state and signal. Shared with the ceiling gate
/// (`crate::ceiling`), which parks its denied entrants the same way.
#[derive(Debug)]
pub struct WaitSlot {
    state: Mutex<WaitState>,
    cv: Condvar,
}

impl WaitSlot {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WaitSlot {
            state: Mutex::new(WaitState::Waiting),
            cv: Condvar::new(),
        })
    }

    /// Flips to `to` and wakes the waiter. Grant/victim decisions are
    /// made under the table's bucket + detector locks (or the ceiling
    /// gate's single mutex), so the two transitions never race each
    /// other.
    pub(crate) fn wake(&self, to: WaitState) {
        let mut st = self.state.lock().unwrap();
        if *st == WaitState::Waiting {
            *st = to;
            self.cv.notify_all();
        }
    }

    /// The state the slot has settled to (racy outside the owning
    /// table/gate lock — callers re-check under it).
    pub(crate) fn settled(&self) -> WaitState {
        *self.state.lock().unwrap()
    }
}

/// Parks on `slot` until it leaves `Waiting` or `deadline` passes;
/// a `Waiting` return means the deadline expired first.
pub(crate) fn wait_until(slot: &WaitSlot, deadline: Instant) -> WaitState {
    let mut st = slot.state.lock().unwrap();
    loop {
        match *st {
            WaitState::Waiting => {
                let now = Instant::now();
                if now >= deadline {
                    return WaitState::Waiting;
                }
                let (guard, _) = slot.cv.wait_timeout(st, deadline - now).unwrap();
                st = guard;
            }
            s => return s,
        }
    }
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    /// Effective priority level at enqueue time (queue order under
    /// [`LiveQueue::Priority`]).
    level: i64,
    /// Read→write upgrade of an already-held lock.
    upgrade: bool,
    slot: Arc<WaitSlot>,
}

#[derive(Debug, Default)]
struct Entry {
    holders: Vec<(TxnId, LockMode)>,
    waiters: Vec<Waiter>,
}

impl Entry {
    fn is_idle(&self) -> bool {
        self.holders.is_empty() && self.waiters.is_empty()
    }

    fn holds(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|&&(t, _)| t == txn)
            .map(|&(_, m)| m)
    }
}

#[derive(Debug, Default)]
struct Shard {
    entries: FxHashMap<ObjectId, Entry>,
}

/// Global deadlock-detection and priority state, one mutex for all of it.
/// Always acquired *after* a bucket, never while holding two buckets.
#[derive(Debug, Default)]
struct Detector {
    wfg: WaitsForGraph,
    /// Slot of every currently parked waiter, so a cycle found from one
    /// bucket can poison a victim parked in another.
    slots: FxHashMap<TxnId, Arc<WaitSlot>>,
    /// Poisoned transactions that have not yet removed themselves from
    /// their queue; skipped by grant passes and edge recomputation.
    victims: FxHashSet<TxnId>,
    /// Effective priority levels (base, raised by inheritance).
    level: FxHashMap<TxnId, i64>,
    /// Base levels, to restore after a transaction finishes.
    base: FxHashMap<TxnId, i64>,
    deadlocks: u64,
}

/// The live lock manager for the 2PL family.
#[derive(Debug)]
pub struct LiveTable {
    shards: Vec<Mutex<Shard>>,
    detector: Mutex<Detector>,
    queue: LiveQueue,
    /// Raise holders' effective priority to their most urgent waiter's
    /// (the priority-inheritance protocol).
    inheritance: bool,
}

const SHARDS: usize = 64;

fn shard_of(object: ObjectId) -> usize {
    // Objects are dense small integers; a multiplicative scramble spreads
    // consecutive ids over the buckets.
    (object.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize >> (64 - 6)
}

impl LiveTable {
    /// A fresh table with the given queue discipline; `inheritance`
    /// enables the priority-inheritance rule on top of it.
    pub fn new(queue: LiveQueue, inheritance: bool) -> Self {
        LiveTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            detector: Mutex::new(Detector::default()),
            queue,
            inheritance,
        }
    }

    /// Registers a transaction's base priority before its first request.
    pub fn register(&self, txn: TxnId, priority: Priority) {
        let mut det = self.detector.lock().unwrap();
        det.level.insert(txn, priority.level());
        det.base.insert(txn, priority.level());
    }

    /// Forgets a transaction entirely (after its terminal event).
    pub fn deregister(&self, txn: TxnId) {
        let mut det = self.detector.lock().unwrap();
        det.level.remove(&txn);
        det.base.remove(&txn);
        det.victims.remove(&txn);
        det.wfg.remove_txn(txn);
    }

    /// Restores a restarting victim's priority to its base level.
    pub fn reset_priority(&self, txn: TxnId) {
        let mut det = self.detector.lock().unwrap();
        if let Some(&b) = det.base.get(&txn) {
            det.level.insert(txn, b);
        }
        det.victims.remove(&txn);
    }

    /// Deadlock cycles detected so far.
    pub fn deadlocks(&self) -> u64 {
        self.detector.lock().unwrap().deadlocks
    }

    /// Acquires `object` in `mode` for `txn`, blocking until granted,
    /// poisoned, or `deadline`. Events recorded before parking are
    /// stamped `at`, the caller's clock reading for this step. Returns
    /// the wall ticks spent blocked via `blocked_ticks`.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        deadline: Instant,
        blocked_ticks: &mut u64,
    ) -> Acquire {
        let slot;
        {
            let mut shard = self.shards[shard_of(object)].lock().unwrap();
            let entry = shard.entries.entry(object).or_default();
            log.record(rec, at, SimEventKind::LockRequested { txn, object, mode });

            // Re-entrant and upgrade paths.
            if let Some(held) = entry.holds(txn) {
                if mode == LockMode::Read || held == LockMode::Write {
                    // Covering re-grant; the oracle keeps the stronger mode.
                    log.record(rec, at, SimEventKind::LockGranted { txn, object, mode });
                    return Acquire::Granted;
                }
                // Read → write upgrade: immediate when sole holder.
                if entry.holders.len() == 1 {
                    for h in &mut entry.holders {
                        h.1 = LockMode::Write;
                    }
                    log.record(rec, at, SimEventKind::LockUpgraded { txn, object });
                    return Acquire::Granted;
                }
                slot = self.enqueue(rec, log, at, entry, object, txn, mode, true);
            } else if entry.holders.iter().all(|&(_, m)| m.compatible(mode))
                && entry.waiters.is_empty()
            {
                // Fast path: compatible with all holders, nobody queued.
                entry.holders.push((txn, mode));
                log.record(rec, at, SimEventKind::LockGranted { txn, object, mode });
                return Acquire::Granted;
            } else {
                slot = self.enqueue(rec, log, at, entry, object, txn, mode, false);
            }

            // Still under the bucket: sync the detector with the new
            // queue shape and check for a fresh cycle through us.
            let mut det = self.detector.lock().unwrap();
            det.slots.insert(txn, slot.clone());
            self.sync_entry_edges(entry, &mut det);
            self.detect_from(rec, log, at, &mut det, txn);
        }

        // Park until granted, poisoned, or the deadline; whatever the
        // waiter records after waking is stamped with a fresh reading.
        let wait_started = rec.now_ticks();
        let outcome = wait_until(&slot, deadline);
        let woke = rec.now_ticks();
        *blocked_ticks += woke.saturating_sub(wait_started);
        match outcome {
            WaitState::Granted => Acquire::Granted,
            WaitState::Victim => {
                self.abandon_wait(rec, log, woke, txn, object);
                Acquire::Deadlock
            }
            WaitState::Waiting => {
                // Timed out. Dequeue under the bucket — unless a racing
                // grant got there first, in which case we own the lock
                // (and the caller's deadline check will release it).
                if self.abandon_wait(rec, log, woke, txn, object) {
                    return Acquire::Timeout;
                }
                // Not queued any more: a granter dequeued us between the
                // wakeup and the bucket lock. (Poisoning does not dequeue,
                // so the settled state can only be a grant.)
                match slot.settled() {
                    WaitState::Granted => Acquire::Granted,
                    WaitState::Victim => Acquire::Deadlock,
                    WaitState::Waiting => Acquire::Timeout,
                }
            }
        }
    }

    /// Releases every lock in `held`, waking whoever becomes grantable.
    /// `held` is the caller's own record of its grants, in acquire order;
    /// locks are released in reverse. One clock reading, taken as the
    /// call starts, stamps every release and grant it records.
    pub fn release_all(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        held: &[(ObjectId, LockMode)],
    ) {
        let at = rec.now_ticks();
        for &(object, _) in held.iter().rev() {
            let mut shard = self.shards[shard_of(object)].lock().unwrap();
            if let Some(entry) = shard.entries.get_mut(&object) {
                let before = entry.holders.len();
                entry.holders.retain(|&(t, _)| t != txn);
                if entry.holders.len() != before {
                    log.record(rec, at, SimEventKind::LockReleased { txn, object });
                }
                // With nobody queued a grant pass is a no-op, so the
                // detector stays untouched.
                if !entry.waiters.is_empty() {
                    let mut det = self.detector.lock().unwrap();
                    self.grant_pass(rec, log, at, entry, object, &mut det);
                }
                if entry.is_idle() {
                    shard.entries.remove(&object);
                }
            }
        }
    }

    /// Whether every bucket is empty (no holders, no waiters) — the
    /// quiescent post-run state the stress tests assert.
    pub fn idle(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().unwrap().entries.is_empty())
    }

    /// Panics if any entry holds incompatible grants simultaneously —
    /// the live analogue of the oracle's lock-compatibility invariant,
    /// checkable at any instant from any thread.
    pub fn assert_compatible(&self) {
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            for (obj, entry) in &shard.entries {
                for (i, &(t1, m1)) in entry.holders.iter().enumerate() {
                    for &(t2, m2) in &entry.holders[i + 1..] {
                        assert!(
                            m1.compatible(m2),
                            "incompatible co-holders on {obj}: {t1}:{m1:?} vs {t2}:{m2:?}"
                        );
                    }
                }
            }
        }
    }

    // --- internals -------------------------------------------------------

    /// Enqueues a blocked request (bucket held) and records `LockBlocked`.
    #[allow(clippy::too_many_arguments)]
    fn enqueue(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        entry: &mut Entry,
        object: ObjectId,
        txn: TxnId,
        mode: LockMode,
        upgrade: bool,
    ) -> Arc<WaitSlot> {
        let level = self.level_of(txn);
        let blocker = entry
            .holders
            .iter()
            .find(|&&(t, m)| t != txn && !m.compatible(mode))
            .map(|&(t, _)| t)
            .or_else(|| {
                entry
                    .waiters
                    .iter()
                    .find(|w| !w.mode.compatible(mode))
                    .map(|w| w.txn)
            })
            .or_else(|| entry.waiters.first().map(|w| w.txn));
        log.record(
            rec,
            at,
            SimEventKind::LockBlocked {
                txn,
                object,
                mode,
                blocker,
            },
        );
        let slot = WaitSlot::new();
        let waiter = Waiter {
            txn,
            mode,
            level,
            upgrade,
            slot: slot.clone(),
        };
        match self.queue {
            LiveQueue::Fifo => entry.waiters.push(waiter),
            LiveQueue::Priority => {
                // Most urgent first; FIFO among equals.
                let pos = entry
                    .waiters
                    .iter()
                    .position(|w| w.level < level)
                    .unwrap_or(entry.waiters.len());
                entry.waiters.insert(pos, waiter);
            }
        }
        if self.inheritance {
            self.inherit(rec, log, at, entry, level);
        }
        slot
    }

    /// Raises every conflicting holder's effective priority to at least
    /// `level` (priority inheritance), recording the donations.
    fn inherit(&self, rec: &Recorder, log: &mut ThreadLog, at: u64, entry: &Entry, level: i64) {
        let mut det = self.detector.lock().unwrap();
        for &(holder, _) in &entry.holders {
            let cur = det.level.get(&holder).copied().unwrap_or(i64::MIN);
            if cur < level {
                det.level.insert(holder, level);
                log.record(
                    rec,
                    at,
                    SimEventKind::PriorityInherited {
                        txn: holder,
                        priority: Priority::new(level),
                    },
                );
            }
        }
    }

    fn level_of(&self, txn: TxnId) -> i64 {
        self.detector
            .lock()
            .unwrap()
            .level
            .get(&txn)
            .copied()
            .unwrap_or(0)
    }

    /// Removes `txn` from `object`'s wait queue after a timeout or
    /// poisoning, re-syncing edges and re-running the grant pass (a
    /// departing FIFO waiter can unblock the queue behind it). Returns
    /// whether the waiter was still queued; `false` means a racing grant
    /// already dequeued it and the caller owns the lock.
    fn abandon_wait(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        txn: TxnId,
        object: ObjectId,
    ) -> bool {
        let mut shard = self.shards[shard_of(object)].lock().unwrap();
        let entry = shard.entries.entry(object).or_default();
        let mut det = self.detector.lock().unwrap();
        let before = entry.waiters.len();
        entry.waiters.retain(|w| w.txn != txn);
        let was_queued = entry.waiters.len() != before;
        det.slots.remove(&txn);
        det.victims.remove(&txn);
        det.wfg.clear_waiter(txn);
        self.grant_pass(rec, log, at, entry, object, &mut det);
        if entry.is_idle() {
            shard.entries.remove(&object);
        }
        was_queued
    }

    /// Grants every waiter that is now grantable, front of the queue
    /// first, stopping at the first ungrantable live waiter (strict
    /// queue order); then recomputes the entry's wait-for edges and
    /// checks the survivors for late-forming cycles. Bucket + detector
    /// held.
    fn grant_pass(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        entry: &mut Entry,
        object: ObjectId,
        det: &mut Detector,
    ) {
        while let Some(idx) = entry
            .waiters
            .iter()
            .position(|w| !det.victims.contains(&w.txn))
        {
            let w = &entry.waiters[idx];
            let grantable = if w.upgrade {
                entry.holders.len() == 1 && entry.holders[0].0 == w.txn
            } else {
                entry
                    .holders
                    .iter()
                    .all(|&(t, m)| t != w.txn && m.compatible(w.mode))
            };
            if !grantable {
                break;
            }
            let w = entry.waiters.remove(idx);
            if w.upgrade {
                for h in &mut entry.holders {
                    h.1 = LockMode::Write;
                }
                log.record(rec, at, SimEventKind::LockUpgraded { txn: w.txn, object });
            } else {
                entry.holders.push((w.txn, w.mode));
                log.record(
                    rec,
                    at,
                    SimEventKind::LockGranted {
                        txn: w.txn,
                        object,
                        mode: w.mode,
                    },
                );
            }
            det.slots.remove(&w.txn);
            det.wfg.clear_waiter(w.txn);
            w.slot.wake(WaitState::Granted);
        }
        self.sync_entry_edges(entry, det);
        let survivors: Vec<TxnId> = entry
            .waiters
            .iter()
            .filter(|w| !det.victims.contains(&w.txn))
            .map(|w| w.txn)
            .collect();
        for t in survivors {
            self.detect_from(rec, log, at, det, t);
        }
    }

    /// Recomputes the wait-for edges of every live waiter of `entry`:
    /// a waiter waits on every conflicting holder and every conflicting
    /// live waiter ahead of it. A blocked transaction waits on exactly
    /// one object, so `set_edges` (replace-all) per waiter is exact.
    fn sync_entry_edges(&self, entry: &Entry, det: &mut Detector) {
        for (i, w) in entry.waiters.iter().enumerate() {
            if det.victims.contains(&w.txn) {
                continue;
            }
            let mut blockers: Vec<TxnId> = entry
                .holders
                .iter()
                .filter(|&&(t, m)| t != w.txn && !m.compatible(w.mode))
                .map(|&(t, _)| t)
                .collect();
            // An upgrader also waits on co-holders of the read lock.
            if w.upgrade {
                blockers.extend(
                    entry
                        .holders
                        .iter()
                        .filter(|&&(t, _)| t != w.txn)
                        .map(|&(t, _)| t),
                );
            }
            blockers.extend(
                entry.waiters[..i]
                    .iter()
                    .filter(|a| !det.victims.contains(&a.txn) && !a.mode.compatible(w.mode))
                    .map(|a| a.txn),
            );
            blockers.sort_unstable_by_key(|t| t.0);
            blockers.dedup();
            det.wfg.set_edges(w.txn, &blockers);
        }
    }

    /// Cycle check from `start`; on a hit, poisons the lowest-priority
    /// member and records `DeadlockDetected`. Bucket + detector held.
    fn detect_from(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        det: &mut Detector,
        start: TxnId,
    ) {
        let Some(cycle) = det.wfg.cycle_from(start) else {
            return;
        };
        let victim = cycle
            .iter()
            .copied()
            .min_by_key(|t| {
                (
                    det.level.get(t).copied().unwrap_or(0),
                    std::cmp::Reverse(t.0),
                )
            })
            .expect("cycles are non-empty");
        det.deadlocks += 1;
        det.victims.insert(victim);
        det.wfg.clear_waiter(victim);
        log.record(rec, at, SimEventKind::DeadlockDetected { victim });
        if let Some(slot) = det.slots.get(&victim) {
            slot.wake(WaitState::Victim);
        }
    }
}
