//! The priority ceiling protocol (the paper's contribution, §3.2).
//!
//! Three ceilings are defined for each data object over the set of *active*
//! transactions (arrived but not yet completed):
//!
//! * **write-priority ceiling** — the priority of the highest-priority
//!   active transaction that may *write* the object;
//! * **absolute-priority ceiling** — the priority of the highest-priority
//!   active transaction that may *read or write* it;
//! * **rw-priority ceiling** — set dynamically when the object is locked:
//!   equal to the absolute ceiling while write-locked, and to the write
//!   ceiling while read-locked.
//!
//! A transaction may lock an object only if its priority is **strictly
//! higher than the highest rw-priority ceiling of all objects currently
//! locked by other transactions**; otherwise it blocks, and the holder of
//! that highest-ceiling lock inherits the blocked transaction's priority.
//! The combination yields freedom from deadlock and blocking by at most a
//! single lower-priority transaction — both properties are asserted by the
//! integration tests.
//!
//! The [`PriorityCeilingProtocol::exclusive`] variant answers the open
//! question in the paper's conclusion (can read semantics *hurt*?): it
//! treats every lock as exclusive, making the rw-ceiling always equal to
//! the absolute ceiling.

use std::cmp::Reverse;
use std::fmt;

use monitor::SimEventKind;
use rtdb::{InlineVec, LockMode, ObjectId, TxnId, TxnSpec};
use starlite::{FxHashMap, Priority};

use crate::protocols::inheritance::effective_priorities;
use crate::protocols::{
    LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult, Wakeup,
};

#[cfg(test)]
mod reference;

/// Lock semantics of the ceiling protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CeilingSemantics {
    /// Readers share; the rw-ceiling of a read-locked object is its write
    /// ceiling (the paper's protocol "C").
    ReadWrite,
    /// Every lock is exclusive; the rw-ceiling is always the absolute
    /// ceiling (the §5 ablation).
    Exclusive,
}

/// Declared access sets of a registered transaction. Sets are short (the
/// workload sizes cap at tens of objects), so they live inline: register /
/// deregister of the per-commit system transactions in the replicated
/// architecture must not touch the heap. Both sets are kept **sorted**
/// (the declaration order is irrelevant here — `writers`/`accessors`
/// preserve it) so conflict tests run as linear merges.
#[derive(Debug)]
struct ActiveTxn {
    reads: InlineVec<ObjectId, 8>,
    writes: InlineVec<ObjectId, 8>,
    /// 64-bit membership signatures (bit `id mod 64` per object): two sets
    /// whose signatures do not intersect are provably disjoint, which
    /// short-circuits most pairwise conflict tests in admission.
    read_sig: u64,
    write_sig: u64,
}

/// Whether two ascending-sorted object lists share an element.
fn sorted_overlap(xs: &[ObjectId], ys: &[ObjectId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

fn set_signature(objs: &[ObjectId]) -> u64 {
    objs.iter().fold(0u64, |s, o| s | 1u64 << (o.0 & 63))
}

#[derive(Debug)]
struct Locked {
    mode: LockMode,
    holders: InlineVec<TxnId, 2>,
}

/// A request waiting for admission. Only entrants block, so the waiter
/// holds no lock.
#[derive(Debug)]
struct BlockedReq {
    txn: TxnId,
    object: ObjectId,
    mode: LockMode,
    /// The waiter's base priority, the queue's primary key.
    priority: Priority,
    /// Arrival order, the FIFO tiebreak among equal priorities.
    seq: u64,
    /// The blocked-by edges: the gate-1 conflictors sorted ascending, or
    /// the holders of the system-ceiling lock in acquisition order.
    blockers: Vec<TxnId>,
}

/// A locked object's rw-ceiling keyed for the system-ceiling argmax: the
/// highest ceiling wins, ties go to the lowest object id.
type CeilingKey = (Priority, Reverse<ObjectId>);

/// Which admission gate denied a request — distinguishes an ordinary lock
/// conflict (gate 1) from the paper's ceiling rule (gate 2) so the event
/// journal can tell [`SimEventKind::LockBlocked`] from
/// [`SimEventKind::CeilingBlocked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DenialGate {
    SetConflict,
    Ceiling,
}

/// The priority ceiling protocol engine for one site.
pub struct PriorityCeilingProtocol {
    semantics: CeilingSemantics,
    active: FxHashMap<TxnId, ActiveTxn>,
    /// Ceiling contributions: active transactions that may write / access
    /// each object.
    writers: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    accessors: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    locked: FxHashMap<ObjectId, Locked>,
    held_by: FxHashMap<TxnId, InlineVec<ObjectId, 8>>,
    /// Blocked requests in wake order: base priority descending, then
    /// FIFO.
    blocked: Vec<BlockedReq>,
    base: FxHashMap<TxnId, Priority>,
    effective: FxHashMap<TxnId, Priority>,
    /// Transactions running above their base priority, ascending: the
    /// only ones besides current blockers a recompute can change.
    raised: Vec<TxnId>,
    next_seq: u64,
    ceiling_blocks: u64,
    trace: bool,
    journal: Vec<SimEventKind>,
    /// Reusable buffers for admission, the wake pass and the inheritance
    /// recompute, so the granted path allocates nothing.
    scratch_txns: Vec<TxnId>,
    scratch_blockers: Vec<TxnId>,
    scratch_targets: Vec<(TxnId, Priority, Priority)>,
    /// Runs the differential tests' reference model instead: full-scan
    /// admission, the restart-scan wake pass and the from-scratch
    /// inheritance fixpoint.
    #[cfg(test)]
    reference: bool,
}

impl fmt::Debug for PriorityCeilingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriorityCeilingProtocol")
            .field("semantics", &self.semantics)
            .field("active", &self.active.len())
            .field("locked", &self.locked.len())
            .field("blocked", &self.blocked.len())
            .finish()
    }
}

impl PriorityCeilingProtocol {
    /// The paper's protocol "C" with read/write lock semantics.
    pub fn read_write() -> Self {
        Self::with_semantics(CeilingSemantics::ReadWrite)
    }

    /// The exclusive-semantics variant (§5 ablation).
    pub fn exclusive() -> Self {
        Self::with_semantics(CeilingSemantics::Exclusive)
    }

    /// Creates the protocol with explicit semantics.
    pub fn with_semantics(semantics: CeilingSemantics) -> Self {
        PriorityCeilingProtocol {
            semantics,
            active: FxHashMap::default(),
            writers: FxHashMap::default(),
            accessors: FxHashMap::default(),
            locked: FxHashMap::default(),
            held_by: FxHashMap::default(),
            blocked: Vec::new(),
            base: FxHashMap::default(),
            effective: FxHashMap::default(),
            raised: Vec::new(),
            next_seq: 0,
            ceiling_blocks: 0,
            trace: false,
            journal: Vec::new(),
            scratch_txns: Vec::new(),
            scratch_blockers: Vec::new(),
            scratch_targets: Vec::new(),
            #[cfg(test)]
            reference: false,
        }
    }

    /// The current write-priority ceiling of `obj` (over active
    /// transactions).
    pub fn write_ceiling(&self, obj: ObjectId) -> Priority {
        self.writers
            .get(&obj)
            .and_then(|v| v.iter().map(|&(_, p)| p).max())
            .unwrap_or(Priority::MIN)
    }

    /// The current absolute-priority ceiling of `obj`.
    pub fn absolute_ceiling(&self, obj: ObjectId) -> Priority {
        self.accessors
            .get(&obj)
            .and_then(|v| v.iter().map(|&(_, p)| p).max())
            .unwrap_or(Priority::MIN)
    }

    /// Whether `txn` is currently registered (active) with the protocol.
    /// Used by the distributed fault-recovery paths, where a retried
    /// registration message may arrive twice or not at all.
    pub fn is_registered(&self, txn: TxnId) -> bool {
        self.active.contains_key(&txn)
    }

    /// The rw-priority ceiling of `obj` under the given lock mode.
    fn rw_ceiling(&self, obj: ObjectId, locked_mode: LockMode) -> Priority {
        match (self.semantics, locked_mode) {
            (CeilingSemantics::Exclusive, _) | (_, LockMode::Write) => self.absolute_ceiling(obj),
            (CeilingSemantics::ReadWrite, LockMode::Read) => self.write_ceiling(obj),
        }
    }

    /// The system ceiling: the highest rw-ceiling over all locked
    /// objects, with its object; `None` while nothing is locked. An
    /// entrant holds no lock, so this is the shield gate 2 tests it
    /// against.
    fn system_ceiling(&self) -> Option<CeilingKey> {
        self.locked
            .iter()
            .map(|(&obj, lock)| (self.rw_ceiling(obj, lock.mode), Reverse(obj)))
            .max()
    }

    /// True once `txn` holds at least one lock: it has been admitted
    /// into its locking phase.
    fn in_phase(&self, txn: TxnId) -> bool {
        self.held_by.get(&txn).is_some_and(|v| !v.is_empty())
    }

    /// Whether the declared access sets of `a` and `b` conflict under
    /// the protocol's lock semantics.
    fn sets_conflict(&self, a: &ActiveTxn, b: &ActiveTxn) -> bool {
        // Signature pre-filter: a zero intersection proves disjointness,
        // so the exact scan below runs only for plausible conflicts.
        let possible = match self.semantics {
            CeilingSemantics::Exclusive => {
                (a.read_sig | a.write_sig) & (b.read_sig | b.write_sig) != 0
            }
            CeilingSemantics::ReadWrite => {
                ((a.write_sig & (b.read_sig | b.write_sig)) | (a.read_sig & b.write_sig)) != 0
            }
        };
        if !possible {
            return false;
        }
        match self.semantics {
            CeilingSemantics::Exclusive => {
                sorted_overlap(&a.writes, &b.writes)
                    || sorted_overlap(&a.writes, &b.reads)
                    || sorted_overlap(&a.reads, &b.writes)
                    || sorted_overlap(&a.reads, &b.reads)
            }
            CeilingSemantics::ReadWrite => {
                sorted_overlap(&a.writes, &b.writes)
                    || sorted_overlap(&a.writes, &b.reads)
                    || sorted_overlap(&a.reads, &b.writes)
            }
        }
    }

    /// The admission test gating entry into the locking phase. A
    /// transaction may acquire its *first* lock iff
    ///
    /// 1. its declared access sets do not conflict with the declared
    ///    sets of any transaction already in its locking phase, and
    /// 2. its priority is strictly higher than every rw-ceiling of
    ///    objects locked by other transactions (the paper's ceiling
    ///    rule).
    ///
    /// On failure, returns the gate that denied admission and the
    /// transactions that block `txn` (the conflicting in-phase
    /// transactions, or the holders of the highest-ceiling lock).
    ///
    /// Access sets are predeclared, so granting a transaction its first
    /// lock conceptually grants its whole set: gate 1 keeps concurrent
    /// locking phases pairwise conflict-free, which means an admitted
    /// transaction finds every lock it will ever request free and is
    /// never re-tested mid-phase. That split is what makes the protocol
    /// deadlock-free under dynamic arrivals: transactions registering
    /// after a grant raise ceilings, so re-running the ceiling test
    /// against held locks on *every* request (which the static-ceiling
    /// proof of the paper's uniprocessor protocol never needs) can block
    /// two lock holders on each other's raised ceilings and wedge the
    /// system in a wait cycle. Here only entrants — which hold nothing —
    /// ever block, so no wait cycle can involve a lock holder, and a
    /// transaction blocks at most once, before its first lock.
    fn admission_check(&mut self, txn: TxnId) -> Result<(), DenialGate> {
        // Candidates and blockers live in reusable scratch buffers so no
        // outcome allocates; on denial the blockers are left in
        // `self.scratch_blockers` for the caller to inspect or copy.
        let mut phase_txns = std::mem::take(&mut self.scratch_txns);
        let mut blockers = std::mem::take(&mut self.scratch_blockers);
        let result = self.admission_check_into(txn, &mut phase_txns, &mut blockers);
        self.scratch_txns = phase_txns;
        self.scratch_blockers = blockers;
        result
    }

    /// [`Self::admission_check`] with caller-provided scratch, usable from
    /// `&self` contexts (the consistency hook).
    /// On denial, `blockers` holds the blocking transactions: the
    /// conflicting in-phase transactions sorted ascending (gate 1) or the
    /// holders of the highest-ceiling lock in acquisition order (gate 2).
    fn admission_check_into(
        &self,
        txn: TxnId,
        phase_txns: &mut Vec<TxnId>,
        blockers: &mut Vec<TxnId>,
    ) -> Result<(), DenialGate> {
        #[cfg(test)]
        if self.reference {
            return self.admission_check_reference(txn, phase_txns, blockers);
        }
        blockers.clear();
        if self.in_phase(txn) {
            return Ok(());
        }
        // Gate 1: set-level conflicts with in-phase transactions. The map
        // is scanned unsorted (the conflict test is order-independent);
        // the conflictor list is sorted only when it is actually returned.
        phase_txns.clear();
        let me = &self.active[&txn];
        phase_txns.extend(
            self.held_by
                .iter()
                .filter(|&(&t, objs)| {
                    t != txn && !objs.is_empty() && self.sets_conflict(me, &self.active[&t])
                })
                .map(|(&t, _)| t),
        );
        if !phase_txns.is_empty() {
            phase_txns.sort_unstable();
            blockers.extend_from_slice(phase_txns);
            return Err(DenialGate::SetConflict);
        }
        // Gate 2: the ceiling shield over objects locked by others. Not
        // being in phase, `txn` holds no lock, so that is every locked
        // object and the shield is the system ceiling.
        match self.system_ceiling() {
            Some((ceiling, Reverse(obj))) if self.base_priority(txn) <= ceiling => {
                blockers.extend_from_slice(&self.locked[&obj].holders);
                Err(DenialGate::Ceiling)
            }
            _ => Ok(()),
        }
    }

    /// The blocked-by relation, each waiter with its blockers.
    fn blocked_by(&self) -> impl Iterator<Item = (TxnId, &[TxnId])> + Clone + '_ {
        self.blocked.iter().map(|b| (b.txn, b.blockers.as_slice()))
    }

    fn coerce_mode(&self, mode: LockMode) -> LockMode {
        match self.semantics {
            CeilingSemantics::ReadWrite => mode,
            CeilingSemantics::Exclusive => LockMode::Write,
        }
    }

    fn holds_covering(&self, txn: TxnId, obj: ObjectId, mode: LockMode) -> bool {
        self.locked.get(&obj).is_some_and(|l| {
            l.holders.contains(&txn) && (l.mode == LockMode::Write || mode == LockMode::Read)
        })
    }

    fn grant(&mut self, txn: TxnId, obj: ObjectId, mode: LockMode) {
        // Whether this grant set the object's rw-ceiling: a fresh lock
        // establishes it, an upgrade lifts it to the absolute ceiling; a
        // reader joining a read lock leaves it unchanged.
        let raised = match self.locked.get_mut(&obj) {
            None => {
                let mut holders = InlineVec::new();
                holders.push(txn);
                self.locked.insert(obj, Locked { mode, holders });
                self.held_by.entry(txn).or_default().push(obj);
                true
            }
            Some(lock) => {
                if lock.holders.contains(&txn) {
                    let upgrade = mode == LockMode::Write && lock.mode == LockMode::Read;
                    if upgrade {
                        assert_eq!(
                            lock.holders.len(),
                            1,
                            "upgrade of a shared read lock must have been denied"
                        );
                        lock.mode = LockMode::Write;
                    }
                    if self.trace {
                        if upgrade {
                            self.journal
                                .push(SimEventKind::LockUpgraded { txn, object: obj });
                            let ceiling = self.rw_ceiling(obj, LockMode::Write);
                            self.journal.push(SimEventKind::CeilingRaised {
                                txn,
                                object: obj,
                                ceiling,
                            });
                        } else {
                            self.journal.push(SimEventKind::LockGranted {
                                txn,
                                object: obj,
                                mode,
                            });
                        }
                    }
                    return;
                }
                assert!(
                    lock.mode == LockMode::Read && mode == LockMode::Read,
                    "ceiling admission granted a conflicting lock on {obj}"
                );
                lock.holders.push(txn);
                self.held_by.entry(txn).or_default().push(obj);
                false
            }
        };
        if self.trace {
            self.journal.push(SimEventKind::LockGranted {
                txn,
                object: obj,
                mode,
            });
            if raised {
                let ceiling = self.rw_ceiling(obj, mode);
                self.journal.push(SimEventKind::CeilingRaised {
                    txn,
                    object: obj,
                    ceiling,
                });
            }
        }
    }

    /// Brings effective priorities up to date with the blocked-by edges
    /// and returns the changes, sorted by transaction.
    ///
    /// Inheritance has depth one: every waiter is an entrant holding no
    /// lock and every blocker is in its locking phase, so no waiter blocks
    /// anyone and each blocker runs at the highest base priority among its
    /// waiters. Only current blockers and the transactions raised last
    /// time can change, so nothing else is visited.
    fn recompute(&mut self) -> Vec<(TxnId, Priority)> {
        #[cfg(test)]
        if self.reference {
            return self.recompute_reference();
        }
        if self.blocked.is_empty() && self.raised.is_empty() {
            return Vec::new();
        }
        // Candidate (txn, effective, base) triples: everyone raised last
        // time falls back to base unless a waiter still lifts it.
        let mut targets = std::mem::take(&mut self.scratch_targets);
        targets.clear();
        targets.extend(
            self.raised
                .iter()
                .filter_map(|&t| self.base.get(&t).map(|&b| (t, b, b))),
        );
        for req in &self.blocked {
            let Some(&wp) = self.base.get(&req.txn) else {
                if self.trace {
                    self.journal.push(SimEventKind::ProtocolAnomaly {
                        txn: Some(req.txn),
                        detail: "waiter in blocked_by but not registered",
                    });
                }
                debug_assert!(false, "waiter {} in blocked_by but not registered", req.txn);
                continue;
            };
            for b in &req.blockers {
                if let Some(&bp) = self.base.get(b) {
                    if wp > bp {
                        targets.push((*b, wp, bp));
                    }
                }
            }
        }
        // Keep each transaction's highest candidate.
        targets.sort_unstable_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        targets.dedup_by_key(|x| x.0);
        self.raised.clear();
        let mut updates = Vec::new();
        for &(txn, priority, base) in &targets {
            let effective = self
                .effective
                .get_mut(&txn)
                .expect("registered transaction has an effective priority");
            if *effective != priority {
                *effective = priority;
                updates.push((txn, priority));
            }
            if priority > base {
                self.raised.push(txn);
            }
        }
        self.scratch_targets = targets;
        updates
    }

    /// Journals the inheritance side effects of one protocol call.
    fn journal_priority_updates(&mut self, updates: &[(TxnId, Priority)]) {
        if !self.trace {
            return;
        }
        self.journal.extend(
            updates
                .iter()
                .map(|&(txn, priority)| SimEventKind::PriorityInherited { txn, priority }),
        );
    }

    /// Wakes every blocked request that now passes admission, most urgent
    /// first, in one sweep of the wake-ordered queue, then refreshes the
    /// blocked-by edges of the requests that stay blocked.
    ///
    /// A grant only tightens admission: it adds an in-phase transaction,
    /// so gate 1 can only gain conflicts, and a lock, so the system
    /// ceiling can only rise (active-set ceilings do not change). A
    /// request denied earlier in the sweep therefore stays denied, and one
    /// sweep grants the same requests in the same order as rescanning
    /// from the top after every grant. Every waiter is an entrant, so
    /// gate 2 is the system ceiling, and the sweep stops at the first
    /// request not above it: every later one is no more urgent.
    fn wake_pass(&mut self, wakeups: &mut Vec<Wakeup>) {
        #[cfg(test)]
        if self.reference {
            return self.wake_pass_reference(wakeups);
        }
        if self.blocked.is_empty() {
            return;
        }
        let mut phase = std::mem::take(&mut self.scratch_txns);
        phase.clear();
        phase.extend(
            self.held_by
                .iter()
                .filter(|(_, objs)| !objs.is_empty())
                .map(|(&t, _)| t),
        );
        let mut ceiling = self.system_ceiling();
        let mut i = 0;
        while i < self.blocked.len() {
            let req = &self.blocked[i];
            if ceiling.is_some_and(|(c, _)| req.priority <= c) {
                break;
            }
            let me = &self.active[&req.txn];
            if phase
                .iter()
                .any(|t| self.sets_conflict(me, &self.active[t]))
            {
                i += 1;
                continue;
            }
            let req = self.blocked.remove(i);
            self.grant(req.txn, req.object, req.mode);
            phase.push(req.txn);
            let mode = self.locked[&req.object].mode;
            ceiling = ceiling.max(Some((
                self.rw_ceiling(req.object, mode),
                Reverse(req.object),
            )));
            wakeups.push(Wakeup {
                txn: req.txn,
                object: req.object,
                mode: req.mode,
            });
        }
        // Refresh against the final state: the in-phase set and the
        // system-ceiling lock may have changed. Sorting the snapshot once
        // leaves every gate-1 conflictor list sorted.
        phase.sort_unstable();
        for i in 0..self.blocked.len() {
            let mut blockers = std::mem::take(&mut self.blocked[i].blockers);
            blockers.clear();
            let req = &self.blocked[i];
            let me = &self.active[&req.txn];
            blockers.extend(
                phase
                    .iter()
                    .copied()
                    .filter(|t| self.sets_conflict(me, &self.active[t])),
            );
            if blockers.is_empty() {
                let Some((_, Reverse(obj))) = ceiling.filter(|&(c, _)| req.priority <= c) else {
                    panic!("wake pass left an admissible request blocked");
                };
                blockers.extend_from_slice(&self.locked[&obj].holders);
            }
            self.blocked[i].blockers = blockers;
        }
        self.scratch_txns = phase;
    }

    fn remove_ceiling_contribution(&mut self, txn: TxnId) {
        let Some(info) = self.active.remove(&txn) else {
            return;
        };
        for &obj in &info.writes {
            if let Some(v) = self.writers.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.writers.remove(&obj);
                }
            }
            if let Some(v) = self.accessors.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.accessors.remove(&obj);
                }
            }
        }
        for &obj in &info.reads {
            if let Some(v) = self.accessors.get_mut(&obj) {
                v.retain(|&(t, _)| t != txn);
                if v.is_empty() {
                    self.accessors.remove(&obj);
                }
            }
        }
    }
}

impl LockProtocol for PriorityCeilingProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let p = spec.base_priority();
        let mut reads = InlineVec::new();
        reads.extend_from_slice(spec.read_set());
        reads.sort_unstable();
        let mut writes = InlineVec::new();
        writes.extend_from_slice(spec.write_set());
        writes.sort_unstable();
        let read_sig = set_signature(spec.read_set());
        let write_sig = set_signature(spec.write_set());
        let prev = self.active.insert(
            spec.id,
            ActiveTxn {
                reads,
                writes,
                read_sig,
                write_sig,
            },
        );
        assert!(prev.is_none(), "{} registered twice", spec.id);
        self.base.insert(spec.id, p);
        self.effective.insert(spec.id, p);
        for &obj in spec.write_set() {
            self.writers.entry(obj).or_default().push((spec.id, p));
            self.accessors.entry(obj).or_default().push((spec.id, p));
        }
        for &obj in spec.read_set() {
            self.accessors.entry(obj).or_default().push((spec.id, p));
        }
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult {
        let mode = self.coerce_mode(mode);
        if self.trace {
            self.journal
                .push(SimEventKind::LockRequested { txn, object, mode });
        }
        if self.holds_covering(txn, object, mode) {
            if self.trace {
                self.journal
                    .push(SimEventKind::LockGranted { txn, object, mode });
            }
            return RequestResult::granted();
        }
        assert!(
            !self.is_blocked(txn),
            "{txn} requested a lock while already blocked"
        );
        match self.admission_check(txn) {
            Ok(()) => {
                self.grant(txn, object, mode);
                RequestResult::granted()
            }
            Err(gate) => {
                self.ceiling_blocks += 1;
                let blockers = std::mem::take(&mut self.scratch_blockers);
                // Charge the block to the least urgent holder of the
                // ceiling lock — the lower-priority transaction the
                // block-at-most-once property is about.
                let blocker = blockers
                    .iter()
                    .copied()
                    .min_by_key(|t| self.base.get(t).copied().unwrap_or(Priority::MIN));
                if self.trace {
                    self.journal.push(match gate {
                        DenialGate::SetConflict => SimEventKind::LockBlocked {
                            txn,
                            object,
                            mode,
                            blocker,
                        },
                        DenialGate::Ceiling => SimEventKind::CeilingBlocked {
                            txn,
                            object,
                            blocker,
                        },
                    });
                }
                let priority = self.base_priority(txn);
                let seq = self.next_seq;
                self.next_seq += 1;
                let at = self.blocked.partition_point(|b| b.priority >= priority);
                self.blocked.insert(
                    at,
                    BlockedReq {
                        txn,
                        object,
                        mode,
                        priority,
                        seq,
                        blockers,
                    },
                );
                let priority_updates = self.recompute();
                self.journal_priority_updates(&priority_updates);
                RequestResult {
                    outcome: RequestOutcome::Blocked { blocker },
                    priority_updates,
                }
            }
        }
    }

    fn release_all(&mut self, txn: TxnId, reason: ReleaseReason) -> ReleaseResult {
        // Drop held locks (journal in acquisition order, which is how
        // held_by accumulates — deterministic without sorting).
        if let Some(objs) = self.held_by.remove(&txn) {
            for &obj in &objs {
                if let Some(lock) = self.locked.get_mut(&obj) {
                    lock.holders.retain(|&t| t != txn);
                    if lock.holders.is_empty() {
                        self.locked.remove(&obj);
                    }
                }
                if self.trace {
                    self.journal
                        .push(SimEventKind::LockReleased { txn, object: obj });
                }
            }
        }
        // Drop a pending blocked request (deadline abort while blocked).
        self.blocked.retain(|b| b.txn != txn);

        if reason == ReleaseReason::Finished {
            // Leaving the active set lowers ceilings, which can admit
            // further waiters below.
            self.remove_ceiling_contribution(txn);
            self.base.remove(&txn);
            self.effective.remove(&txn);
        }

        let mut wakeups = Vec::new();
        self.wake_pass(&mut wakeups);
        let priority_updates = self.recompute();
        self.journal_priority_updates(&priority_updates);
        ReleaseResult {
            wakeups,
            priority_updates,
        }
    }

    fn effective_priority(&self, txn: TxnId) -> Priority {
        self.effective
            .get(&txn)
            .copied()
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn base_priority(&self, txn: TxnId) -> Priority {
        self.base
            .get(&txn)
            .copied()
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn is_blocked(&self, txn: TxnId) -> bool {
        self.blocked.iter().any(|b| b.txn == txn)
    }

    fn name(&self) -> &'static str {
        match self.semantics {
            CeilingSemantics::ReadWrite => "priority-ceiling",
            CeilingSemantics::Exclusive => "priority-ceiling-exclusive",
        }
    }

    fn ceiling_block_count(&self) -> u64 {
        self.ceiling_blocks
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    fn drain_events(&mut self, out: &mut Vec<SimEventKind>) {
        out.append(&mut self.journal);
    }

    // A drained simulation must leave every site's protocol idle; the
    // distributed chaos tests gate on it.
    fn assert_idle(&self) {
        assert!(
            self.locked.is_empty(),
            "{} objects still locked after drain",
            self.locked.len()
        );
        assert!(
            self.blocked.is_empty(),
            "{} requests still blocked after drain",
            self.blocked.len()
        );
        assert!(
            self.active.is_empty(),
            "{} transactions still registered after drain",
            self.active.len()
        );
    }

    fn assert_consistent(&self) {
        for (obj, lock) in &self.locked {
            assert!(!lock.holders.is_empty(), "{obj} locked with no holders");
            if lock.mode == LockMode::Write {
                assert_eq!(lock.holders.len(), 1, "{obj} write-locked by several");
            }
            for t in &lock.holders {
                assert!(
                    self.held_by.get(t).is_some_and(|v| v.contains(obj)),
                    "holder {t} of {obj} missing from held_by"
                );
            }
        }
        for b in &self.blocked {
            assert!(self.active.contains_key(&b.txn), "blocked txn not active");
            assert!(
                self.admission_check_into(b.txn, &mut Vec::new(), &mut Vec::new())
                    .is_err(),
                "{} blocked but admissible",
                b.txn
            );
            assert_eq!(
                Some(&b.priority),
                self.base.get(&b.txn),
                "{} queued under a stale priority",
                b.txn
            );
        }
        for w in self.blocked.windows(2) {
            assert!(
                (Reverse(w[0].priority), w[0].seq) < (Reverse(w[1].priority), w[1].seq),
                "blocked queue out of wake order at {}",
                w[1].txn
            );
        }
        for (&t, &e) in &self.effective {
            assert!(e >= self.base[&t], "{t} effective below base");
        }
        // Inheritance operates on registered transactions only: every
        // waiter and every blocker in the edge set must have a base
        // priority (effective_priorities relies on this).
        for b in &self.blocked {
            assert!(
                self.base.contains_key(&b.txn),
                "waiter {} unregistered",
                b.txn
            );
            for t in &b.blockers {
                assert!(self.base.contains_key(t), "blocker {t} unregistered");
            }
        }
        // The incremental recompute must agree with inheritance computed
        // from scratch.
        let fixpoint = effective_priorities(&self.base, self.blocked_by(), &mut Vec::new());
        assert_eq!(
            fixpoint, self.effective,
            "effective priorities off the inheritance fixpoint"
        );
        let mut raised: Vec<TxnId> = self
            .effective
            .iter()
            .filter(|&(t, e)| self.base[t] != *e)
            .map(|(&t, _)| t)
            .collect();
        raised.sort_unstable();
        assert_eq!(raised, self.raised, "raised set out of date");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::SiteId;
    use starlite::SimTime;

    fn spec(id: u64, deadline: u64, reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::ZERO,
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            SiteId(0),
        )
    }

    #[test]
    fn ceilings_follow_active_set() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![0], vec![1])); // high priority
        p.register(&spec(2, 900, vec![1], vec![0])); // low priority
        let p1 = Priority::earliest_deadline_first(SimTime::from_ticks(100));
        let p2 = Priority::earliest_deadline_first(SimTime::from_ticks(900));
        // O0: read by T1, written by T2.
        assert_eq!(p.write_ceiling(ObjectId(0)), p2);
        assert_eq!(p.absolute_ceiling(ObjectId(0)), p1);
        // O1: written by T1, read by T2.
        assert_eq!(p.write_ceiling(ObjectId(1)), p1);
        assert_eq!(p.absolute_ceiling(ObjectId(1)), p1);
        // Finishing T1 lowers the ceilings.
        p.release_all(TxnId(1), ReleaseReason::Finished);
        assert_eq!(p.absolute_ceiling(ObjectId(0)), p2);
    }

    #[test]
    fn lock_on_unlocked_object_denied_by_ceiling() {
        // The paper's example: T2 (medium) is denied an unlocked object
        // because T3 (low) holds a lock whose ceiling is T1's (high)
        // priority.
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![5])); // T1 high, writes O5
        p.register(&spec(2, 500, vec![], vec![7])); // T2 medium, writes O7
        p.register(&spec(3, 900, vec![], vec![5])); // T3 low, writes O5
                                                    // T3 locks O5 (nothing else is locked).
        assert_eq!(
            p.request(TxnId(3), ObjectId(5), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        // T2 requests the *unlocked* O7: denied, because its priority is
        // not higher than O5's ceiling (= T1's priority).
        match p.request(TxnId(2), ObjectId(7), LockMode::Write).outcome {
            RequestOutcome::Blocked { blocker } => assert_eq!(blocker, Some(TxnId(3))),
            other => panic!("unexpected {other:?}"),
        }
        // T3 inherited T2's priority.
        assert_eq!(p.effective_priority(TxnId(3)), p.base_priority(TxnId(2)));
        // When T3 finishes, T2 is woken.
        let rel = p.release_all(TxnId(3), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(2));
        p.assert_consistent();
    }

    #[test]
    fn highest_priority_transaction_is_never_ceiling_blocked() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0])); // highest priority
        p.register(&spec(2, 900, vec![], vec![1]));
        p.request(TxnId(2), ObjectId(1), LockMode::Write);
        // T1's priority exceeds every ceiling (it is the highest-priority
        // accessor anywhere), so it proceeds.
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
    }

    #[test]
    fn readers_share_under_rw_semantics() {
        let mut p = PriorityCeilingProtocol::read_write();
        // Both read O0; nobody writes it, so its write ceiling is MIN.
        p.register(&spec(1, 100, vec![0], vec![]));
        p.register(&spec(2, 200, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        // Read-locked: rw ceiling = write ceiling = MIN < any priority.
        assert_eq!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        p.assert_consistent();
    }

    #[test]
    fn exclusive_semantics_serialise_readers() {
        let mut p = PriorityCeilingProtocol::exclusive();
        p.register(&spec(1, 100, vec![0], vec![]));
        p.register(&spec(2, 200, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        assert!(matches!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Blocked { .. }
        ));
    }

    #[test]
    fn writer_blocked_while_read_locked_by_lower_priority_reader() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0])); // writer, high
        p.register(&spec(2, 900, vec![0], vec![])); // reader, low
        assert_eq!(
            p.request(TxnId(2), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        // Read-locked O0 has rw ceiling = write ceiling = T1's priority;
        // T1's own priority is not *higher* than that, so T1 blocks.
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        let rel = p.release_all(TxnId(2), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(1));
    }

    #[test]
    fn deadline_abort_while_blocked_cleans_up() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 900, vec![], vec![0]));
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        // T1's deadline expires while blocked.
        let rel = p.release_all(TxnId(1), ReleaseReason::Finished);
        assert!(rel.wakeups.is_empty());
        assert!(!p.is_blocked(TxnId(1)));
        // T2 reverts to its own priority (no one left to inherit from).
        assert_eq!(p.effective_priority(TxnId(2)), p.base_priority(TxnId(2)));
        p.assert_consistent();
    }

    #[test]
    fn wake_order_prefers_urgent_but_admits_any_passing() {
        let mut p = PriorityCeilingProtocol::read_write();
        // T1 high and T2 medium both write O0; T3 low holds it.
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 500, vec![], vec![0]));
        p.register(&spec(3, 900, vec![], vec![0]));
        p.request(TxnId(3), ObjectId(0), LockMode::Write);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        assert!(matches!(
            p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        let rel = p.release_all(TxnId(3), ReleaseReason::Finished);
        // T1 (most urgent) gets the lock; T2 stays blocked: O0 is now
        // write-locked by T1 whose ceiling is T1's priority ≥ T2's.
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(1));
        assert!(p.is_blocked(TxnId(2)));
        p.assert_consistent();
    }

    #[test]
    fn self_re_request_is_granted() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![0], vec![]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome,
            RequestOutcome::Granted
        );
        p.assert_consistent();
    }

    #[test]
    fn ceiling_block_counter() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 900, vec![], vec![0]));
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        p.request(TxnId(1), ObjectId(0), LockMode::Write);
        assert_eq!(p.ceiling_block_count(), 1);
    }
}
