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

/// A registered transaction: its declared access sets, its priorities and
/// the locks it holds. Sets are short (the workload sizes cap at tens of
/// objects), so they live inline: register / deregister of the per-commit
/// system transactions in the replicated architecture must not touch the
/// heap. Both sets are kept **sorted** (the declaration order is
/// irrelevant here — `writers`/`accessors` preserve it) so conflict tests
/// run as linear merges.
#[derive(Debug)]
struct TxnRecord {
    reads: InlineVec<ObjectId, 8>,
    writes: InlineVec<ObjectId, 8>,
    /// 64-bit membership signatures (bit `id mod 64` per object): two sets
    /// whose signatures do not intersect are provably disjoint, which
    /// short-circuits most pairwise conflict tests in admission.
    read_sig: u64,
    write_sig: u64,
    base: Priority,
    /// The base priority, raised to that of the most urgent waiter this
    /// transaction blocks.
    effective: Priority,
    /// Held locks in acquisition order; non-empty exactly while the
    /// transaction is in its locking phase.
    held: InlineVec<ObjectId, 8>,
}

impl TxnRecord {
    /// Whether the declared access sets of `self` and `other` conflict
    /// under `semantics`.
    fn conflicts_with(&self, other: &TxnRecord, semantics: CeilingSemantics) -> bool {
        let (a, b) = (self, other);
        // Signature pre-filter: a zero intersection proves disjointness,
        // so the exact scan below runs only for plausible conflicts.
        let possible = match semantics {
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
        match semantics {
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
    /// The gate-1 conflictors, kept current: the in-phase transactions
    /// whose declared sets conflict with the waiter's, ascending. A first
    /// grant adds its transaction, and a release of held locks removes it.
    conflictors: Vec<TxnId>,
    /// The published blocked-by edges: the conflictors, or while there
    /// are none the holders of the system-ceiling lock in acquisition
    /// order. Set when the request blocks and by every wake pass, so they
    /// trail `conflictors` between releases.
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
    /// One record per registered (active) transaction.
    txns: FxHashMap<TxnId, TxnRecord>,
    /// Ceiling contributions: active transactions that may write / access
    /// each object.
    writers: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    accessors: FxHashMap<ObjectId, InlineVec<(TxnId, Priority), 4>>,
    locked: FxHashMap<ObjectId, Locked>,
    /// Blocked requests in wake order: base priority descending, then
    /// FIFO.
    blocked: Vec<BlockedReq>,
    /// Transactions running above their base priority, ascending: the
    /// only ones besides current blockers a recompute can change.
    raised: Vec<TxnId>,
    next_seq: u64,
    ceiling_blocks: u64,
    trace: bool,
    journal: Vec<SimEventKind>,
    /// Reusable buffers for admission and the inheritance recompute, so
    /// the granted path allocates nothing. A block moves the admission
    /// lists into its request, and a request leaving the queue hands them
    /// back.
    scratch_conflictors: Vec<TxnId>,
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
            .field("active", &self.txns.len())
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
            txns: FxHashMap::default(),
            writers: FxHashMap::default(),
            accessors: FxHashMap::default(),
            locked: FxHashMap::default(),
            blocked: Vec::new(),
            raised: Vec::new(),
            next_seq: 0,
            ceiling_blocks: 0,
            trace: false,
            journal: Vec::new(),
            scratch_conflictors: Vec::new(),
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
        self.txns.contains_key(&txn)
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

    /// Gate 1 by a full scan: fills `out` with the in-phase transactions
    /// other than `txn` whose declared sets conflict with its own,
    /// ascending.
    fn scan_conflictors(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        out.clear();
        let me = &self.txns[&txn];
        // The map is scanned unsorted (the conflict test is
        // order-independent); the list is sorted once at the end.
        out.extend(
            self.txns
                .iter()
                .filter(|&(&t, r)| {
                    t != txn && !r.held.is_empty() && me.conflicts_with(r, self.semantics)
                })
                .map(|(&t, _)| t),
        );
        out.sort_unstable();
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
        // Conflictors and blockers live in reusable scratch buffers so no
        // outcome allocates; on denial they are left in
        // `self.scratch_conflictors` and `self.scratch_blockers` for the
        // caller to inspect or take.
        let mut conflictors = std::mem::take(&mut self.scratch_conflictors);
        let mut blockers = std::mem::take(&mut self.scratch_blockers);
        let result = self.admission_check_into(txn, &mut conflictors, &mut blockers);
        self.scratch_conflictors = conflictors;
        self.scratch_blockers = blockers;
        result
    }

    /// [`Self::admission_check`] with caller-provided scratch, usable from
    /// `&self` contexts (the consistency hook).
    /// On denial, `conflictors` holds the gate-1 conflictors, sorted
    /// ascending (empty when gate 2 denied), and `blockers` the blocking
    /// transactions: those conflictors (gate 1) or the holders of the
    /// highest-ceiling lock in acquisition order (gate 2).
    fn admission_check_into(
        &self,
        txn: TxnId,
        conflictors: &mut Vec<TxnId>,
        blockers: &mut Vec<TxnId>,
    ) -> Result<(), DenialGate> {
        #[cfg(test)]
        if self.reference {
            return self.admission_check_reference(txn, conflictors, blockers);
        }
        blockers.clear();
        let me = &self.txns[&txn];
        if !me.held.is_empty() {
            return Ok(());
        }
        // Gate 1: set-level conflicts with in-phase transactions.
        self.scan_conflictors(txn, conflictors);
        if !conflictors.is_empty() {
            blockers.extend_from_slice(conflictors);
            return Err(DenialGate::SetConflict);
        }
        // Gate 2: the ceiling shield over objects locked by others. Not
        // being in phase, `txn` holds no lock, so that is every locked
        // object and the shield is the system ceiling.
        match self.system_ceiling() {
            Some((ceiling, Reverse(obj))) if me.base <= ceiling => {
                blockers.extend_from_slice(&self.locked[&obj].holders);
                Err(DenialGate::Ceiling)
            }
            _ => Ok(()),
        }
    }

    /// Every registered transaction's base priority.
    fn base_map(&self) -> FxHashMap<TxnId, Priority> {
        self.txns.iter().map(|(&t, r)| (t, r.base)).collect()
    }

    /// Every registered transaction's effective priority.
    fn effective_map(&self) -> FxHashMap<TxnId, Priority> {
        self.txns.iter().map(|(&t, r)| (t, r.effective)).collect()
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

    /// Adds `txn`, just granted its first lock, to the conflictors of
    /// every waiter whose declared sets conflict with its own.
    fn join_waiters(&mut self, txn: TxnId) {
        let me = &self.txns[&txn];
        for req in &mut self.blocked {
            if me.conflicts_with(&self.txns[&req.txn], self.semantics) {
                let at = req.conflictors.partition_point(|&t| t < txn);
                req.conflictors.insert(at, txn);
            }
        }
    }

    /// Removes `txn`, which just released its locks, from the conflictors
    /// of every waiter.
    fn leave_waiters(&mut self, txn: TxnId) {
        for req in &mut self.blocked {
            if let Ok(at) = req.conflictors.binary_search(&txn) {
                req.conflictors.remove(at);
            }
        }
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
                false
            }
        };
        let held = &mut self
            .txns
            .get_mut(&txn)
            .expect("a lock holder is registered")
            .held;
        held.push(obj);
        if held.len() == 1 {
            self.join_waiters(txn);
        }
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
                .filter_map(|&t| self.txns.get(&t).map(|r| (t, r.base, r.base))),
        );
        for req in &self.blocked {
            // A waiter is registered, queued under its base priority.
            let wp = req.priority;
            for b in &req.blockers {
                if let Some(r) = self.txns.get(b) {
                    if wp > r.base {
                        targets.push((*b, wp, r.base));
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
            let effective = &mut self
                .txns
                .get_mut(&txn)
                .expect("a blocker or raised transaction is registered")
                .effective;
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
    /// first, in one sweep of the wake-ordered queue, then publishes the
    /// blocked-by edges of the requests that stay blocked.
    ///
    /// A grant only tightens admission: it adds an in-phase transaction,
    /// so gate 1 can only gain conflicts, and a lock, so the system
    /// ceiling can only rise (active-set ceilings do not change). A
    /// request denied earlier in the sweep therefore stays denied, and one
    /// sweep grants the same requests in the same order as rescanning
    /// from the top after every grant. Every waiter is an entrant, so
    /// gate 1 is its kept conflictor list (which each grant updates) and
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
        let mut ceiling = self.system_ceiling();
        let mut i = 0;
        while i < self.blocked.len() {
            let req = &self.blocked[i];
            if ceiling.is_some_and(|(c, _)| req.priority <= c) {
                break;
            }
            if !req.conflictors.is_empty() {
                i += 1;
                continue;
            }
            let req = self.blocked.remove(i);
            self.grant(req.txn, req.object, req.mode);
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
            self.reuse_buffers(req);
        }
        // Publish against the final state: the conflictors, else the
        // holders of the system-ceiling lock.
        for req in &mut self.blocked {
            let edges: &[TxnId] = if req.conflictors.is_empty() {
                let Some((_, Reverse(obj))) = ceiling.filter(|&(c, _)| req.priority <= c) else {
                    panic!("wake pass left an admissible request blocked");
                };
                &self.locked[&obj].holders
            } else {
                &req.conflictors
            };
            req.blockers.clear();
            req.blockers.extend_from_slice(edges);
        }
    }

    /// Returns the lists of `req`, which left the queue, to the admission
    /// scratch where they outgrow it, so a later block takes them instead
    /// of allocating.
    fn reuse_buffers(&mut self, req: BlockedReq) {
        let BlockedReq {
            mut conflictors,
            mut blockers,
            ..
        } = req;
        if conflictors.capacity() > self.scratch_conflictors.capacity() {
            conflictors.clear();
            self.scratch_conflictors = conflictors;
        }
        if blockers.capacity() > self.scratch_blockers.capacity() {
            blockers.clear();
            self.scratch_blockers = blockers;
        }
    }

    /// Drops the ceiling contributions of `info`, the record of `txn`,
    /// which leaves the active set.
    fn remove_ceiling_contribution(&mut self, txn: TxnId, info: &TxnRecord) {
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
        let base = spec.base_priority();
        let mut reads = InlineVec::new();
        reads.extend_from_slice(spec.read_set());
        reads.sort_unstable();
        let mut writes = InlineVec::new();
        writes.extend_from_slice(spec.write_set());
        writes.sort_unstable();
        let read_sig = set_signature(spec.read_set());
        let write_sig = set_signature(spec.write_set());
        let prev = self.txns.insert(
            spec.id,
            TxnRecord {
                reads,
                writes,
                read_sig,
                write_sig,
                base,
                effective: base,
                held: InlineVec::new(),
            },
        );
        assert!(prev.is_none(), "{} registered twice", spec.id);
        for &obj in spec.write_set() {
            self.writers.entry(obj).or_default().push((spec.id, base));
            self.accessors.entry(obj).or_default().push((spec.id, base));
        }
        for &obj in spec.read_set() {
            self.accessors.entry(obj).or_default().push((spec.id, base));
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
                // Gate 1's sorted list, or empty after a gate-2 denial.
                let conflictors = match gate {
                    DenialGate::SetConflict => std::mem::take(&mut self.scratch_conflictors),
                    DenialGate::Ceiling => Vec::new(),
                };
                // Charge the block to the least urgent holder of the
                // ceiling lock — the lower-priority transaction the
                // block-at-most-once property is about.
                let blocker = blockers
                    .iter()
                    .copied()
                    .min_by_key(|t| self.txns.get(t).map_or(Priority::MIN, |r| r.base));
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
                        conflictors,
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
        // A finishing transaction leaves the active set, which lowers
        // ceilings and can admit further waiters below.
        let mut record = match reason {
            ReleaseReason::Finished => self.txns.remove(&txn),
            ReleaseReason::Restart => None,
        };
        let held = match &mut record {
            Some(r) => std::mem::take(&mut r.held),
            None => self
                .txns
                .get_mut(&txn)
                .map(|r| std::mem::take(&mut r.held))
                .unwrap_or_default(),
        };
        // Drop held locks (journal in acquisition order, which is how
        // `held` accumulates — deterministic without sorting).
        for &obj in &held {
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
        if !held.is_empty() {
            self.leave_waiters(txn);
        }
        // Drop a pending blocked request (deadline abort while blocked).
        if let Some(at) = self.blocked.iter().position(|b| b.txn == txn) {
            let req = self.blocked.remove(at);
            self.reuse_buffers(req);
        }
        if let Some(record) = record {
            self.remove_ceiling_contribution(txn, &record);
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
        self.txns
            .get(&txn)
            .map(|r| r.effective)
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn base_priority(&self, txn: TxnId) -> Priority {
        self.txns
            .get(&txn)
            .map(|r| r.base)
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
            self.txns.is_empty(),
            "{} transactions still registered after drain",
            self.txns.len()
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
                    self.txns.get(t).is_some_and(|r| r.held.contains(obj)),
                    "holder {t} of {obj} missing from its held locks"
                );
            }
        }
        let mut conflictors = Vec::new();
        for b in &self.blocked {
            assert!(self.txns.contains_key(&b.txn), "blocked txn not active");
            assert!(
                self.admission_check_into(b.txn, &mut Vec::new(), &mut Vec::new())
                    .is_err(),
                "{} blocked but admissible",
                b.txn
            );
            assert_eq!(
                b.priority,
                self.base_priority(b.txn),
                "{} queued under a stale priority",
                b.txn
            );
            self.scan_conflictors(b.txn, &mut conflictors);
            assert_eq!(
                b.conflictors, conflictors,
                "{} keeps stale gate-1 conflictors",
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
        for (t, r) in &self.txns {
            assert!(r.effective >= r.base, "{t} effective below base");
        }
        // Inheritance operates on registered transactions only: every
        // waiter and every blocker in the edge set must have a base
        // priority (effective_priorities relies on this).
        for b in &self.blocked {
            for t in &b.blockers {
                assert!(self.txns.contains_key(t), "blocker {t} unregistered");
            }
        }
        // The incremental recompute must agree with inheritance computed
        // from scratch.
        let fixpoint = effective_priorities(&self.base_map(), self.blocked_by(), &mut Vec::new());
        assert_eq!(
            fixpoint,
            self.effective_map(),
            "effective priorities off the inheritance fixpoint"
        );
        let mut raised: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, r)| r.base != r.effective)
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
    fn requests_leaving_the_queue_hand_their_lists_to_the_next_block() {
        let mut p = PriorityCeilingProtocol::read_write();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 500, vec![], vec![0]));
        p.register(&spec(3, 900, vec![], vec![0]));
        p.request(TxnId(3), ObjectId(0), LockMode::Write);
        // T1 blocks on T3 at gate 1 and takes both admission lists.
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        let lists = (
            p.blocked[0].conflictors.as_ptr(),
            p.blocked[0].blockers.as_ptr(),
        );
        let scratch = |p: &PriorityCeilingProtocol| {
            (p.scratch_conflictors.as_ptr(), p.scratch_blockers.as_ptr())
        };
        // The wake pass that grants T1 hands them back...
        let rel = p.release_all(TxnId(3), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(scratch(&p), lists);
        // ...T2's block on T1 takes them again...
        assert!(matches!(
            p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        assert_eq!(
            (
                p.blocked[0].conflictors.as_ptr(),
                p.blocked[0].blockers.as_ptr()
            ),
            lists
        );
        // ...and dropping the blocked T2 hands them back once more.
        p.release_all(TxnId(2), ReleaseReason::Finished);
        assert_eq!(scratch(&p), lists);
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
