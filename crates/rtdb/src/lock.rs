//! A read/write lock table with FIFO or priority wait queues.
//!
//! This is the Resource Manager's synchronisation core for the two-phase
//! locking protocols ("L" and "P" in the paper). Transactions request locks
//! one at a time (growing phase), may upgrade read locks to write locks,
//! and release everything at commit or abort (shrinking phase happens in
//! one step, as the paper's transactions hold all locks to completion).
//!
//! Two queue disciplines are provided:
//!
//! * [`QueuePolicy::Fifo`] — strict arrival order; a compatible request
//!   still waits behind queued conflicting requests ("2PL without priority
//!   mode").
//! * [`QueuePolicy::Priority`] — the wait queue is served most-urgent
//!   first, and an arriving request may bypass less urgent waiters ("2PL
//!   with priority mode").
//!
//! The table reports, for every blocked request, the set of transactions it
//! waits for — the edges fed into the [waits-for graph](crate::wfg) for
//! deadlock detection.
//!
//! # Example
//!
//! ```
//! use rtdb::{LockTable, LockMode, LockOutcome, QueuePolicy, TxnId, ObjectId};
//! use starlite::Priority;
//!
//! let mut lt = LockTable::new(QueuePolicy::Priority);
//! let o = ObjectId(0);
//! assert_eq!(lt.request(TxnId(1), o, LockMode::Write, Priority::new(1)), LockOutcome::Granted);
//! match lt.request(TxnId(2), o, LockMode::Read, Priority::new(5)) {
//!     LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(1)]),
//!     other => panic!("expected wait, got {other:?}"),
//! }
//! let woken = lt.release_all(TxnId(1));
//! assert_eq!(woken.len(), 1);
//! assert_eq!(woken[0].txn, TxnId(2));
//! ```

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize};
use starlite::{FxHashMap, Priority};

use crate::ids::{ObjectId, TxnId};
use crate::small::InlineVec;

/// Lock modes with the usual compatibility: reads share, writes exclude.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LockMode {
    /// Shared access.
    #[default]
    Read,
    /// Exclusive access.
    Write,
}

impl LockMode {
    /// Whether two locks may be held simultaneously by different
    /// transactions.
    pub fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Read && other == LockMode::Read
    }
}

/// Wait-queue discipline of a [`LockTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Strict arrival order; no bypassing.
    Fifo,
    /// Most urgent waiter first; arrivals may bypass less urgent waiters.
    Priority,
}

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held; proceed.
    Granted,
    /// The request queued; `blockers` are the transactions it waits for
    /// (conflicting holders plus conflicting waiters served earlier).
    Waiting {
        /// Transactions this request waits for, for deadlock detection.
        blockers: Vec<TxnId>,
    },
}

/// One journalled lock-table happening (see [`LockTable::set_tracing`]).
///
/// The table has no notion of simulation time, so entries are unstamped;
/// the simulation model drains the journal immediately after each table
/// call and stamps the entries with the current instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockEvent {
    /// `txn` asked for `mode` on `object`.
    Requested {
        /// Requesting transaction.
        txn: TxnId,
        /// Requested object.
        object: ObjectId,
        /// Requested mode.
        mode: LockMode,
    },
    /// The request was granted — immediately, or later by a release pass.
    Granted {
        /// Transaction now holding the lock.
        txn: TxnId,
        /// The locked object.
        object: ObjectId,
        /// The granted mode.
        mode: LockMode,
    },
    /// The request queued behind a conflict.
    Blocked {
        /// The waiting transaction.
        txn: TxnId,
        /// The contended object.
        object: ObjectId,
        /// The mode it wants.
        mode: LockMode,
        /// One representative blocker (the first reported), if any.
        blocker: Option<TxnId>,
    },
    /// `txn`'s lock on `object` was released.
    Released {
        /// The releasing transaction.
        txn: TxnId,
        /// The object released.
        object: ObjectId,
    },
    /// A read lock became a write lock (in place or via the queue).
    Upgraded {
        /// The upgrading transaction.
        txn: TxnId,
        /// The upgraded object.
        object: ObjectId,
    },
}

/// A lock granted during a release pass; the caller resumes this
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedLock {
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// The object now locked.
    pub object: ObjectId,
    /// The granted mode.
    pub mode: LockMode,
}

#[derive(Debug, Clone)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    priority: Priority,
    seq: u64,
    /// `true` when the waiter already holds a read lock and wants write.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct ObjectLock {
    /// Holders stay inline for up to four concurrent readers — the common
    /// case allocates nothing on first lock.
    holders: InlineVec<(TxnId, LockMode), 4>,
    queue: VecDeque<Waiter>,
}

impl ObjectLock {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    /// Allocation-free conflict test for the grant fast path.
    fn has_holder_conflict(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .any(|&(t, m)| t != txn && !m.compatible(mode))
    }

    /// Appends the conflicting holders to `out` (callers own the buffer, so
    /// the hot path can reuse one).
    fn conflicts_into(&self, txn: TxnId, mode: LockMode, out: &mut Vec<TxnId>) {
        out.extend(
            self.holders
                .iter()
                .filter(|&&(t, m)| t != txn && !m.compatible(mode))
                .map(|&(t, _)| t),
        );
    }
}

/// The lock table of one site.
///
/// See the [module documentation](self) for semantics and an example.
pub struct LockTable {
    policy: QueuePolicy,
    locks: FxHashMap<ObjectId, ObjectLock>,
    /// Objects each transaction holds, in grant order.
    held_by: FxHashMap<TxnId, Vec<ObjectId>>,
    waiting_on: FxHashMap<TxnId, ObjectId>,
    next_seq: u64,
    /// An empty held list kept from the last [`LockTable::release_all`], so
    /// the next transaction's first grant reuses its allocation.
    scratch_objs: Vec<ObjectId>,
    trace: bool,
    journal: Vec<LockEvent>,
}

impl fmt::Debug for LockTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockTable")
            .field("policy", &self.policy)
            .field("locked_objects", &self.locks.len())
            .finish()
    }
}

impl LockTable {
    /// Creates an empty lock table with the given queue discipline.
    pub fn new(policy: QueuePolicy) -> Self {
        LockTable {
            policy,
            locks: FxHashMap::default(),
            held_by: FxHashMap::default(),
            waiting_on: FxHashMap::default(),
            next_seq: 0,
            scratch_objs: Vec::new(),
            trace: false,
            journal: Vec::new(),
        }
    }

    /// Turns journalling of grants, waits, upgrades and releases on or off.
    /// Off by default; with tracing off the journal stays empty and request
    /// paths pay one predictable branch.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    /// Drains the journalled entries, oldest first, so callers can
    /// convert them straight into their own event type. Empty when
    /// tracing is off.
    pub fn drain_journal(&mut self) -> impl Iterator<Item = LockEvent> + '_ {
        self.journal.drain(..)
    }

    /// Requests `mode` on `object` for `txn` at `priority`.
    ///
    /// Re-requesting a mode already covered by a held lock (read under
    /// write, or repeat requests) is granted immediately. A read-to-write
    /// upgrade is granted when `txn` is the sole holder and the discipline
    /// permits, and queues otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `txn` is already waiting for some lock — transactions
    /// request locks one at a time.
    pub fn request(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        priority: Priority,
    ) -> LockOutcome {
        assert!(
            !self.waiting_on.contains_key(&txn),
            "{txn} requested a lock while already waiting"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.trace {
            self.journal
                .push(LockEvent::Requested { txn, object, mode });
        }

        let state = self.locks.entry(object).or_default();
        match state.holder_mode(txn) {
            Some(LockMode::Write) => {
                // Write covers everything.
                if self.trace {
                    self.journal.push(LockEvent::Granted { txn, object, mode });
                }
                return LockOutcome::Granted;
            }
            Some(LockMode::Read) if mode == LockMode::Read => {
                if self.trace {
                    self.journal.push(LockEvent::Granted { txn, object, mode });
                }
                return LockOutcome::Granted;
            }
            Some(LockMode::Read) => {
                // Upgrade request.
                if !state.has_holder_conflict(txn, LockMode::Write) {
                    for h in state.holders.iter_mut() {
                        if h.0 == txn {
                            h.1 = LockMode::Write;
                        }
                    }
                    if self.trace {
                        self.journal.push(LockEvent::Upgraded { txn, object });
                    }
                    return LockOutcome::Granted;
                }
                let mut others = Vec::new();
                state.conflicts_into(txn, LockMode::Write, &mut others);
                let waiter = Waiter {
                    txn,
                    mode: LockMode::Write,
                    priority,
                    seq,
                    upgrade: true,
                };
                // Upgrades go to the very front: the transaction already
                // holds a read lock, so nothing behind it can run anyway.
                state.queue.push_front(waiter);
                self.waiting_on.insert(txn, object);
                if self.trace {
                    self.journal.push(LockEvent::Blocked {
                        txn,
                        object,
                        mode: LockMode::Write,
                        blocker: others.first().copied(),
                    });
                }
                return LockOutcome::Waiting { blockers: others };
            }
            None => {}
        }

        // The request may be granted directly only if no waiter that would
        // be served before it conflicts with it. Under FIFO every queued
        // waiter is served first; under Priority only the more urgent ones.
        let can_bypass_queue = match self.policy {
            QueuePolicy::Fifo => state.queue.iter().all(|w| w.mode.compatible(mode)),
            QueuePolicy::Priority => state
                .queue
                .iter()
                .all(|w| w.priority < priority || w.mode.compatible(mode)),
        };
        if can_bypass_queue && !state.has_holder_conflict(txn, mode) {
            state.holders.push((txn, mode));
            self.held_by
                .entry(txn)
                .or_insert_with(|| std::mem::take(&mut self.scratch_objs))
                .push(object);
            if self.trace {
                self.journal.push(LockEvent::Granted { txn, object, mode });
            }
            return LockOutcome::Granted;
        }

        // Blockers: conflicting holders plus conflicting waiters that will
        // be served before this request.
        let mut blockers = Vec::new();
        state.conflicts_into(txn, mode, &mut blockers);
        for w in &state.queue {
            let ahead = match self.policy {
                QueuePolicy::Fifo => true,
                QueuePolicy::Priority => {
                    w.priority > priority || (w.priority == priority && w.seq < seq)
                }
            };
            if ahead && !w.mode.compatible(mode) {
                blockers.push(w.txn);
            }
        }
        blockers.sort_unstable();
        blockers.dedup();

        state.queue.push_back(Waiter {
            txn,
            mode,
            priority,
            seq,
            upgrade: false,
        });
        self.waiting_on.insert(txn, object);
        if self.trace {
            self.journal.push(LockEvent::Blocked {
                txn,
                object,
                mode,
                blocker: blockers.first().copied(),
            });
        }
        LockOutcome::Waiting { blockers }
    }

    /// Releases every lock held or awaited by `txn` and wakes eligible
    /// waiters. Affected objects are processed in ascending id order; per
    /// object, waiters wake in discipline order (FIFO: arrival order;
    /// Priority: most urgent first, ties by arrival), except that a
    /// grantable read-to-write upgrade is always served first. Returns the
    /// requests granted by this release.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<GrantedLock> {
        // The held list itself becomes the affected-object list; its
        // allocation is recycled for the next transaction's first grant.
        let mut affected = self
            .held_by
            .remove(&txn)
            .unwrap_or_else(|| std::mem::take(&mut self.scratch_objs));
        for &obj in &affected {
            if let Some(state) = self.locks.get_mut(&obj) {
                state.holders.retain(|(t, _)| *t != txn);
            }
        }
        // Id order, so grant order cannot leak into the trace.
        affected.sort_unstable();
        if self.trace {
            self.journal.extend(
                affected
                    .iter()
                    .map(|&object| LockEvent::Released { txn, object }),
            );
        }
        if let Some(obj) = self.waiting_on.remove(&txn) {
            if let Some(state) = self.locks.get_mut(&obj) {
                state.queue.retain(|w| w.txn != txn);
            }
            if let Err(at) = affected.binary_search(&obj) {
                affected.insert(at, obj);
            }
        }

        let mut granted = Vec::new();
        for &obj in &affected {
            self.grant_pass(obj, &mut granted);
        }
        affected.clear();
        self.scratch_objs = affected;
        granted
    }

    /// Updates the queue priority of a waiting transaction (used when a
    /// waiter inherits a higher priority through locks it holds elsewhere).
    /// No-op if `txn` is not waiting.
    pub fn update_waiter_priority(&mut self, txn: TxnId, priority: Priority) {
        if let Some(&obj) = self.waiting_on.get(&txn) {
            if let Some(state) = self.locks.get_mut(&obj) {
                if let Some(w) = state.queue.iter_mut().find(|w| w.txn == txn) {
                    w.priority = priority;
                }
            }
        }
    }

    /// The object `txn` is currently waiting for, if any.
    pub fn waiting_for(&self, txn: TxnId) -> Option<ObjectId> {
        self.waiting_on.get(&txn).copied()
    }

    /// All transactions currently waiting for some lock, sorted by id.
    pub fn waiters(&self) -> Vec<TxnId> {
        let mut v = Vec::new();
        self.waiters_into(&mut v);
        v
    }

    /// Like [`LockTable::waiters`], writing into a caller-owned buffer so
    /// periodic deadlock-detection passes can reuse one allocation.
    pub fn waiters_into(&self, out: &mut Vec<TxnId>) {
        out.clear();
        out.extend(self.waiting_on.keys().copied());
        out.sort_unstable();
    }

    /// The transactions currently blocking `txn` (empty when not waiting).
    /// This recomputes the same set [`LockTable::request`] reported, against
    /// the current table state.
    pub fn current_blockers(&self, txn: TxnId) -> Vec<TxnId> {
        let mut v = Vec::new();
        self.current_blockers_into(txn, &mut v);
        v
    }

    /// Like [`LockTable::current_blockers`], writing into a caller-owned
    /// buffer (cleared first) so waits-for-graph refreshes can reuse one.
    pub fn current_blockers_into(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        out.clear();
        let Some(&obj) = self.waiting_on.get(&txn) else {
            return;
        };
        let Some(state) = self.locks.get(&obj) else {
            return;
        };
        let Some(me) = state.queue.iter().find(|w| w.txn == txn) else {
            return;
        };
        state.conflicts_into(txn, me.mode, out);
        // An upgrade waits only for the other holders: it is served before
        // any queued request, so counting queued writers here would inject
        // phantom waits-for edges (and spurious deadlock cycles).
        if !me.upgrade {
            for w in &state.queue {
                if w.txn == txn {
                    continue;
                }
                let ahead = match self.policy {
                    QueuePolicy::Fifo => w.seq < me.seq,
                    QueuePolicy::Priority => {
                        w.priority > me.priority || (w.priority == me.priority && w.seq < me.seq)
                    }
                };
                if ahead && !w.mode.compatible(me.mode) {
                    out.push(w.txn);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Mode held by `txn` on `object`, if any.
    pub fn held_mode(&self, txn: TxnId, object: ObjectId) -> Option<LockMode> {
        self.locks.get(&object).and_then(|s| s.holder_mode(txn))
    }

    /// All objects currently locked by `txn`.
    pub fn held_objects(&self, txn: TxnId) -> Vec<ObjectId> {
        let mut v = self.held_by.get(&txn).cloned().unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// Current holders of `object` with their modes, as a borrowed view
    /// (the hot monitoring path must not clone the holder list).
    pub fn holders(&self, object: ObjectId) -> &[(TxnId, LockMode)] {
        self.locks
            .get(&object)
            .map(|s| s.holders.as_slice())
            .unwrap_or(&[])
    }

    /// Internal invariant check for tests: no two holders conflict, every
    /// holder set is consistent with `held_by`, and no granted transaction
    /// is also queued on the same object.
    pub fn check_invariants(&self) {
        for (obj, state) in &self.locks {
            for (i, &(t1, m1)) in state.holders.iter().enumerate() {
                for &(t2, m2) in &state.holders[i + 1..] {
                    assert!(t1 != t2, "duplicate holder {t1} on {obj}");
                    assert!(
                        m1.compatible(m2),
                        "incompatible holders {t1}:{m1:?} and {t2}:{m2:?} on {obj}"
                    );
                }
                assert!(
                    self.held_by.get(&t1).is_some_and(|s| s.contains(obj)),
                    "holder {t1} of {obj} missing from held_by"
                );
            }
            for w in &state.queue {
                assert!(
                    !state.holders.iter().any(|&(t, _)| t == w.txn) || w.upgrade,
                    "{} queued on {obj} while holding it (non-upgrade)",
                    w.txn
                );
                if w.upgrade {
                    assert_eq!(
                        state.holder_mode(w.txn),
                        Some(LockMode::Read),
                        "upgrade waiter {} does not hold a read lock on {obj}",
                        w.txn
                    );
                }
                assert_eq!(
                    self.waiting_on.get(&w.txn),
                    Some(obj),
                    "waiting_on out of sync for {}",
                    w.txn
                );
            }
        }
    }

    /// Panics unless the table is empty: no holder, no waiter — the state
    /// every drained run must leave behind.
    pub fn assert_idle(&self) {
        assert!(
            self.held_by.is_empty(),
            "{} transactions still hold locks",
            self.held_by.len()
        );
        assert!(
            self.waiting_on.is_empty(),
            "{} requests still waiting",
            self.waiting_on.len()
        );
        assert!(
            self.locks.is_empty(),
            "{} objects still have lock state",
            self.locks.len()
        );
    }

    /// Wakes as many waiters of `object` as compatibility allows, in
    /// discipline order, except that an *eligible* upgrade waiter is always
    /// served first regardless of discipline: the upgrader already holds a
    /// read lock, so no conflicting waiter can make progress before it
    /// anyway, and selecting a more urgent (but ineligible) writer instead
    /// would park the pass and strand the grantable upgrade forever — a
    /// spurious head-of-line deadlock.
    fn grant_pass(&mut self, object: ObjectId, granted: &mut Vec<GrantedLock>) {
        loop {
            let Some(state) = self.locks.get_mut(&object) else {
                return;
            };
            if state.queue.is_empty() {
                if state.holders.is_empty() {
                    self.locks.remove(&object);
                }
                return;
            }
            let eligible_upgrade = state
                .queue
                .iter()
                .position(|w| w.upgrade && state.holders.iter().all(|&(t, _)| t == w.txn));
            let idx = if let Some(i) = eligible_upgrade {
                i
            } else {
                match self.policy {
                    QueuePolicy::Fifo => 0,
                    QueuePolicy::Priority => {
                        let mut best = 0;
                        for i in 1..state.queue.len() {
                            let (a, b) = (&state.queue[i], &state.queue[best]);
                            if a.priority > b.priority
                                || (a.priority == b.priority && a.seq < b.seq)
                            {
                                best = i;
                            }
                        }
                        best
                    }
                }
            };
            let w = &state.queue[idx];
            let eligible = if w.upgrade {
                state.holders.iter().all(|&(t, _)| t == w.txn)
            } else {
                !state.has_holder_conflict(w.txn, w.mode)
            };
            if !eligible {
                return;
            }
            let w = state.queue.remove(idx).expect("index in range");
            if w.upgrade {
                for h in state.holders.iter_mut() {
                    if h.0 == w.txn {
                        h.1 = LockMode::Write;
                    }
                }
            } else {
                state.holders.push((w.txn, w.mode));
                self.held_by
                    .entry(w.txn)
                    .or_insert_with(|| std::mem::take(&mut self.scratch_objs))
                    .push(object);
            }
            self.waiting_on.remove(&w.txn);
            if self.trace {
                self.journal.push(if w.upgrade {
                    LockEvent::Upgraded { txn: w.txn, object }
                } else {
                    LockEvent::Granted {
                        txn: w.txn,
                        object,
                        mode: w.mode,
                    }
                });
            }
            granted.push(GrantedLock {
                txn: w.txn,
                object,
                mode: w.mode,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(level: i64) -> Priority {
        Priority::new(level)
    }

    #[test]
    fn readers_share() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(2), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        lt.check_invariants();
        assert_eq!(lt.holders(o).len(), 2);
    }

    #[test]
    fn writer_excludes_and_wakes_fifo() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        let out = lt.request(TxnId(2), o, LockMode::Write, p(9));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1)]
            }
        );
        let out = lt.request(TxnId(3), o, LockMode::Write, p(5));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1), TxnId(2)]
            }
        );
        lt.check_invariants();
        // FIFO: T2 first despite T3's request later with lower priority.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(2),
                object: o,
                mode: LockMode::Write
            }]
        );
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn priority_queue_serves_most_urgent() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(1));
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
        lt.check_invariants();
    }

    #[test]
    fn fifo_read_waits_behind_queued_writer() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(0)); // queues
        let out = lt.request(TxnId(3), o, LockMode::Read, p(0));
        // T3 must wait behind the writer even though compatible w/ holder.
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
        // Release the reader: writer goes first, then the reader.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(2));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn priority_read_bypasses_lower_priority_writer() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(1)); // queues
        let out = lt.request(TxnId(3), o, LockMode::Read, p(9));
        assert_eq!(out, LockOutcome::Granted);
        lt.check_invariants();
    }

    #[test]
    fn priority_read_does_not_bypass_higher_priority_writer() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(8)); // queues, urgent
        let out = lt.request(TxnId(3), o, LockMode::Read, p(2));
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn upgrade_in_place_when_sole_holder() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Write, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
    }

    #[test]
    fn upgrade_waits_for_other_readers_then_wins() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(0));
        match out {
            LockOutcome::Waiting { blockers } => assert_eq!(blockers, vec![TxnId(2)]),
            other => panic!("unexpected {other:?}"),
        }
        // A later writer queues behind the upgrade.
        lt.request(TxnId(3), o, LockMode::Write, p(0));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(1));
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
    }

    #[test]
    fn upgrade_not_starved_by_more_urgent_queued_writer() {
        // T1 and T2 hold reads; T1 queues an upgrade; a high-priority
        // writer T3 queues behind it. When T2 releases, the upgrade is the
        // only grantable request — selecting T3 by priority and giving up
        // would strand T1 on an object only T1 holds.
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(1));
        lt.request(TxnId(2), o, LockMode::Read, p(2));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(1));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let woken = lt.release_all(TxnId(2));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(1),
                object: o,
                mode: LockMode::Write
            }]
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
        // T3 follows once the upgraded writer finishes.
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn two_upgraders_report_mutual_blockers() {
        // Both readers request an upgrade: a genuine deadlock the table
        // cannot resolve itself. Each must report the other as a blocker so
        // the waits-for graph sees the cycle; aborting either victim lets
        // the survivor's upgrade through.
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(0));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        let out = lt.request(TxnId(2), o, LockMode::Write, p(0));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(1)]
            }
        );
        assert_eq!(lt.current_blockers(TxnId(1)), vec![TxnId(2)]);
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1)]);
        lt.check_invariants();
        // Deadlock resolution aborts T2; T1's upgrade becomes grantable.
        let woken = lt.release_all(TxnId(2));
        assert_eq!(
            woken,
            vec![GrantedLock {
                txn: TxnId(1),
                object: o,
                mode: LockMode::Write
            }]
        );
        assert_eq!(lt.held_mode(TxnId(1), o), Some(LockMode::Write));
        lt.check_invariants();
    }

    #[test]
    fn upgrade_blockers_exclude_queued_writers() {
        // The upgrade is served before any queued request, so its reported
        // blockers are the other holders only — no phantom edges to queued
        // writers that would fake a deadlock cycle.
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Read, p(1));
        lt.request(TxnId(2), o, LockMode::Read, p(2));
        lt.request(TxnId(3), o, LockMode::Write, p(9));
        let out = lt.request(TxnId(1), o, LockMode::Write, p(1));
        assert_eq!(
            out,
            LockOutcome::Waiting {
                blockers: vec![TxnId(2)]
            }
        );
        assert_eq!(lt.current_blockers(TxnId(1)), vec![TxnId(2)]);
        lt.check_invariants();
    }

    #[test]
    fn re_request_held_lock_is_granted() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Read, p(0)),
            LockOutcome::Granted
        );
        assert_eq!(
            lt.request(TxnId(1), o, LockMode::Write, p(0)),
            LockOutcome::Granted
        );
    }

    #[test]
    fn release_of_waiting_txn_removes_it_from_queue() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Write, p(0));
        lt.request(TxnId(3), o, LockMode::Write, p(0));
        // T2 aborts while waiting.
        let woken = lt.release_all(TxnId(2));
        assert!(woken.is_empty());
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
        lt.check_invariants();
    }

    #[test]
    fn reader_batch_wakes_together() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        lt.request(TxnId(3), o, LockMode::Read, p(0));
        lt.request(TxnId(4), o, LockMode::Write, p(0));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken.len(), 2);
        assert!(woken.iter().all(|g| g.mode == LockMode::Read));
        lt.check_invariants();
    }

    #[test]
    fn current_blockers_tracks_state() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(5));
        lt.request(TxnId(2), o, LockMode::Write, p(3));
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1)]);
        lt.request(TxnId(3), o, LockMode::Write, p(7));
        assert_eq!(lt.current_blockers(TxnId(2)), vec![TxnId(1), TxnId(3)]);
        assert!(lt.current_blockers(TxnId(1)).is_empty());
    }

    #[test]
    fn waiter_priority_update_changes_service_order() {
        let mut lt = LockTable::new(QueuePolicy::Priority);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(9));
        lt.request(TxnId(2), o, LockMode::Write, p(1));
        lt.request(TxnId(3), o, LockMode::Write, p(5));
        lt.update_waiter_priority(TxnId(2), p(8));
        let woken = lt.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(2));
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn double_wait_panics() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(1), LockMode::Write, p(0));
        lt.request(TxnId(2), ObjectId(1), LockMode::Write, p(0));
        lt.request(TxnId(2), ObjectId(2), LockMode::Write, p(0));
    }

    #[test]
    fn journal_records_lock_lifecycle() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.set_tracing(true);
        let o = ObjectId(1);
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        lt.request(TxnId(2), o, LockMode::Read, p(0));
        lt.release_all(TxnId(1));
        let journal: Vec<LockEvent> = lt.drain_journal().collect();
        assert_eq!(
            journal,
            vec![
                LockEvent::Requested {
                    txn: TxnId(1),
                    object: o,
                    mode: LockMode::Write
                },
                LockEvent::Granted {
                    txn: TxnId(1),
                    object: o,
                    mode: LockMode::Write
                },
                LockEvent::Requested {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read
                },
                LockEvent::Blocked {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read,
                    blocker: Some(TxnId(1))
                },
                LockEvent::Released {
                    txn: TxnId(1),
                    object: o
                },
                LockEvent::Granted {
                    txn: TxnId(2),
                    object: o,
                    mode: LockMode::Read
                },
            ]
        );
        assert_eq!(lt.drain_journal().count(), 0);
    }

    #[test]
    fn journal_records_upgrades() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.set_tracing(true);
        let o = ObjectId(3);
        lt.request(TxnId(1), o, LockMode::Read, p(0));
        lt.request(TxnId(1), o, LockMode::Write, p(0));
        let journal: Vec<LockEvent> = lt.drain_journal().collect();
        assert_eq!(
            journal[3],
            LockEvent::Upgraded {
                txn: TxnId(1),
                object: o
            }
        );
    }

    #[test]
    fn journal_stays_empty_without_tracing() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(1), LockMode::Write, p(0));
        lt.release_all(TxnId(1));
        let journal: Vec<LockEvent> = lt.drain_journal().collect();
        assert!(journal.is_empty());
    }

    #[test]
    fn held_objects_sorted() {
        let mut lt = LockTable::new(QueuePolicy::Fifo);
        lt.request(TxnId(1), ObjectId(5), LockMode::Read, p(0));
        lt.request(TxnId(1), ObjectId(2), LockMode::Write, p(0));
        assert_eq!(lt.held_objects(TxnId(1)), vec![ObjectId(2), ObjectId(5)]);
    }
}
