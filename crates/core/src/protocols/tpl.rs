//! Two-phase locking: the paper's `L` and `P` baselines and the `PI`
//! inheritance baseline, as one state machine.
//!
//! * **`L` — 2PL without priority**: FIFO wait queues; paired with FCFS
//!   processing by the simulator.
//! * **`P` — 2PL with priority**: wait queues served most-urgent-first;
//!   paired with preemptive priority processing.
//! * **`PI` — `P` plus basic priority inheritance**: the \[Sha87\]
//!   baseline the paper discusses in §3.1. When a transaction blocks a
//!   higher-priority transaction, it executes at the highest priority of
//!   all the transactions it blocks (transitively), and requests queue at
//!   that effective priority. Inheritance shortens individual inversions
//!   but does *not* prevent chained blocking or deadlock — both weaknesses
//!   the priority ceiling protocol was designed to remove, and both
//!   observable here (see the ablation benches).
//!
//! All three can deadlock. A waits-for graph is maintained continuously;
//! the request that closes a cycle reports a victim chosen by the
//! [`VictimPolicy`], which the transaction manager aborts and (optionally)
//! restarts. Restarts waste all work done — the mechanism behind the sharp
//! deadline-miss growth the paper observes for large transactions
//! (deadlock probability grows with the fourth power of transaction size).

use std::fmt;

use monitor::SimEventKind;
use rtdb::{
    LockMode, LockOutcome, LockTable, ObjectId, QueuePolicy, TxnId, TxnSpec, WaitsForGraph,
};
use starlite::{FxHashMap, Priority};

use crate::config::VictimPolicy;
use crate::protocols::inheritance::{diff_updates, effective_priorities_into};
use crate::protocols::{
    LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult, Wakeup,
};

/// Two-phase locking: "L", "P" or "PI" depending on the constructor.
pub struct TwoPhaseLockingProtocol {
    name: &'static str,
    table: LockTable,
    wfg: WaitsForGraph,
    victim_policy: VictimPolicy,
    base: FxHashMap<TxnId, Priority>,
    /// `Some` only for "PI".
    inheritance: Option<Inheritance>,
    deadlocks: u64,
    /// Every waiter's current blockers, listed once per release (and per
    /// block under "PI") for the waits-for graph and the inheritance step.
    blocked_by: BlockedBy,
    trace: bool,
    /// Protocol events, each behind the table events that preceded it
    /// (see [`Self::journal`]); later table events stay in the table's own
    /// journal until [`LockProtocol::drain_events`].
    journal: Vec<SimEventKind>,
}

/// Basic priority inheritance state.
#[derive(Default)]
struct Inheritance {
    /// Every registered transaction's effective priority: the fixpoint
    /// over `base` and the blocked-by relation as of the last block or
    /// release.
    effective: FxHashMap<TxnId, Priority>,
    /// Scratch map for the fixpoint's new assignment, reused across calls.
    scratch_eff: FxHashMap<TxnId, Priority>,
}

/// The blocked-by relation as flat adjacency lists in retained buffers,
/// so listing it allocates nothing once warm.
#[derive(Default)]
struct BlockedBy {
    /// Every waiter, in id order.
    waiters: Vec<TxnId>,
    /// `ends[i]` is where waiter `i`'s blockers end in `blockers`.
    ends: Vec<usize>,
    blockers: Vec<TxnId>,
    /// One waiter's blockers as the lock table reports them.
    scratch: Vec<TxnId>,
}

impl BlockedBy {
    /// Lists every waiter in `table` with its current blockers.
    fn refill(&mut self, table: &LockTable) {
        table.waiters_into(&mut self.waiters);
        self.ends.clear();
        self.blockers.clear();
        for &t in &self.waiters {
            table.current_blockers_into(t, &mut self.scratch);
            self.blockers.extend_from_slice(&self.scratch);
            self.ends.push(self.blockers.len());
        }
    }

    /// Each waiter with its blockers, as last listed.
    fn iter(&self) -> impl Iterator<Item = (TxnId, &[TxnId])> + Clone + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        self.waiters
            .iter()
            .zip(self.ends.iter().zip(starts))
            .map(|(&t, (&end, start))| (t, &self.blockers[start..end]))
    }
}

impl fmt::Debug for TwoPhaseLockingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoPhaseLockingProtocol")
            .field("name", &self.name)
            .field("active", &self.base.len())
            .field("deadlocks", &self.deadlocks)
            .finish()
    }
}

impl TwoPhaseLockingProtocol {
    /// The paper's "L": FIFO queues, no priority awareness.
    pub fn without_priority(victim_policy: VictimPolicy) -> Self {
        Self::new("2pl", QueuePolicy::Fifo, false, victim_policy)
    }

    /// The paper's "P": priority queues.
    pub fn with_priority(victim_policy: VictimPolicy) -> Self {
        Self::new("2pl-priority", QueuePolicy::Priority, false, victim_policy)
    }

    /// "PI": priority queues plus basic (transitive) priority inheritance.
    pub fn with_inheritance(victim_policy: VictimPolicy) -> Self {
        Self::new(
            "2pl-inheritance",
            QueuePolicy::Priority,
            true,
            victim_policy,
        )
    }

    fn new(
        name: &'static str,
        queue: QueuePolicy,
        inherit: bool,
        victim_policy: VictimPolicy,
    ) -> Self {
        TwoPhaseLockingProtocol {
            name,
            table: LockTable::new(queue),
            wfg: WaitsForGraph::new(),
            victim_policy,
            base: FxHashMap::default(),
            inheritance: inherit.then(Inheritance::default),
            deadlocks: 0,
            blocked_by: BlockedBy::default(),
            trace: false,
            journal: Vec::new(),
        }
    }

    /// Journals protocol events behind every table event recorded before
    /// them, so draining keeps call order.
    fn journal(&mut self, events: impl IntoIterator<Item = SimEventKind>) {
        self.journal
            .extend(self.table.drain_journal().map(SimEventKind::from));
        self.journal.extend(events);
    }

    /// The inheritance step, run after every block and release over the
    /// blocked-by relation as last listed: recomputes the
    /// effective-priority fixpoint, requeues waiters at their new priority
    /// so queue positions follow inherited urgency, journals each change
    /// and returns the changes. Without inheritance it returns an empty
    /// `Vec` and allocates nothing.
    fn inherit(&mut self) -> Vec<(TxnId, Priority)> {
        let Some(mut inh) = self.inheritance.take() else {
            return Vec::new();
        };
        // Empty unless the fixpoint sees an unregistered waiter, so this
        // never allocates on the hot path.
        let mut anomalies: Vec<TxnId> = Vec::new();
        effective_priorities_into(
            &self.base,
            self.blocked_by.iter(),
            &mut anomalies,
            &mut inh.scratch_eff,
        );
        if self.trace && !anomalies.is_empty() {
            self.journal(
                anomalies
                    .into_iter()
                    .map(|txn| SimEventKind::ProtocolAnomaly {
                        txn: Some(txn),
                        detail: "waiter in blocked_by but not registered",
                    }),
            );
        }
        let updates = diff_updates(&mut inh.effective, &mut inh.scratch_eff);
        self.inheritance = Some(inh);
        for &(txn, priority) in &updates {
            self.table.update_waiter_priority(txn, priority);
        }
        if self.trace && !updates.is_empty() {
            self.journal(
                updates
                    .iter()
                    .map(|&(txn, priority)| SimEventKind::PriorityInherited { txn, priority }),
            );
        }
        updates
    }
}

/// Picks a deadlock victim from a cycle.
///
/// With [`VictimPolicy::LowestPriority`], ties break towards the youngest
/// (largest id). Unknown transactions (not in `base`) are treated as
/// lowest priority.
fn select_victim(
    cycle: &[TxnId],
    policy: VictimPolicy,
    base: &FxHashMap<TxnId, Priority>,
) -> TxnId {
    assert!(!cycle.is_empty(), "empty deadlock cycle");
    match policy {
        VictimPolicy::LowestPriority => cycle
            .iter()
            .copied()
            .min_by_key(|t| {
                (
                    base.get(t).copied().unwrap_or(Priority::MIN),
                    std::cmp::Reverse(*t),
                )
            })
            .expect("non-empty cycle"),
        VictimPolicy::Youngest => cycle.iter().copied().max().expect("non-empty cycle"),
    }
}

/// `txn`'s entry in a priority map.
///
/// # Panics
///
/// Panics if `txn` is not registered.
fn registered(priorities: &FxHashMap<TxnId, Priority>, txn: TxnId) -> Priority {
    priorities
        .get(&txn)
        .copied()
        .unwrap_or_else(|| panic!("{txn} not registered"))
}

impl LockProtocol for TwoPhaseLockingProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let p = spec.base_priority();
        let prev = self.base.insert(spec.id, p);
        assert!(prev.is_none(), "{} registered twice", spec.id);
        if let Some(inh) = &mut self.inheritance {
            inh.effective.insert(spec.id, p);
        }
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult {
        let priority = self.effective_priority(txn);
        let outcome = self.table.request(txn, object, mode, priority);
        match outcome {
            LockOutcome::Granted => RequestResult::granted(),
            LockOutcome::Waiting { blockers } => {
                self.wfg.set_edges(txn, &blockers);
                if let Some(cycle) = self.wfg.cycle_from(txn) {
                    self.deadlocks += 1;
                    let victim = select_victim(&cycle, self.victim_policy, &self.base);
                    if self.trace {
                        self.journal([SimEventKind::DeadlockDetected { victim }]);
                    }
                    return RequestResult {
                        outcome: RequestOutcome::Deadlock { victim },
                        priority_updates: Vec::new(),
                    };
                }
                // Charge the block to the least urgent blocker: that is
                // the transaction a priority-inversion analysis cares
                // about.
                let blocker = blockers
                    .iter()
                    .copied()
                    .min_by_key(|t| self.base.get(t).copied().unwrap_or(Priority::MIN));
                // Only the inheritance step needs every waiter's blockers.
                if self.inheritance.is_some() {
                    self.blocked_by.refill(&self.table);
                }
                RequestResult {
                    outcome: RequestOutcome::Blocked { blocker },
                    priority_updates: self.inherit(),
                }
            }
        }
    }

    fn release_all(&mut self, txn: TxnId, reason: ReleaseReason) -> ReleaseResult {
        let granted = self.table.release_all(txn);
        self.wfg.remove_txn(txn);
        let wakeups: Vec<Wakeup> = granted
            .into_iter()
            .map(|g| Wakeup {
                txn: g.txn,
                object: g.object,
                mode: g.mode,
            })
            .collect();
        for w in &wakeups {
            self.wfg.clear_waiter(w.txn);
        }
        // One walk over the waiters feeds both the waits-for edges, which
        // shift whenever grants reorder the queues, and the inheritance
        // step.
        self.blocked_by.refill(&self.table);
        for (t, blockers) in self.blocked_by.iter() {
            self.wfg.set_edges(t, blockers);
        }
        if reason == ReleaseReason::Finished {
            // The inheritance step rebuilds `effective` from `base`.
            self.base.remove(&txn);
        }
        ReleaseResult {
            wakeups,
            priority_updates: self.inherit(),
        }
    }

    fn effective_priority(&self, txn: TxnId) -> Priority {
        let priorities = self
            .inheritance
            .as_ref()
            .map_or(&self.base, |i| &i.effective);
        registered(priorities, txn)
    }

    fn base_priority(&self, txn: TxnId) -> Priority {
        registered(&self.base, txn)
    }

    fn is_blocked(&self, txn: TxnId) -> bool {
        self.table.waiting_for(txn).is_some()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    fn deadlock_count(&self) -> u64 {
        self.deadlocks
    }

    fn assert_consistent(&self) {
        self.table.check_invariants();
        if let Some(inh) = &self.inheritance {
            for (&t, &e) in &inh.effective {
                let b = self.base.get(&t).copied().expect("effective without base");
                assert!(e >= b, "{t} effective priority below base");
            }
        }
    }

    fn assert_idle(&self) {
        self.table.assert_idle();
        let effective = self.inheritance.as_ref().map_or(0, |i| i.effective.len());
        assert!(
            self.base.is_empty() && effective == 0,
            "{} transactions still registered",
            self.base.len()
        );
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
        self.table.set_tracing(on);
    }

    fn drain_events(&mut self, out: &mut Vec<SimEventKind>) {
        // Table events convert straight into `out`; only those older than
        // a protocol event ever pass through `self.journal`.
        out.append(&mut self.journal);
        out.extend(self.table.drain_journal().map(SimEventKind::from));
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

    fn protocol() -> TwoPhaseLockingProtocol {
        TwoPhaseLockingProtocol::with_priority(VictimPolicy::LowestPriority)
    }

    #[test]
    fn grant_block_release_cycle() {
        let mut p = protocol();
        p.register(&spec(1, 100, vec![], vec![0]));
        p.register(&spec(2, 200, vec![], vec![0]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        match p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome {
            RequestOutcome::Blocked { blocker } => assert_eq!(blocker, Some(TxnId(1))),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p.is_blocked(TxnId(2)));
        let rel = p.release_all(TxnId(1), ReleaseReason::Finished);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(2));
        assert!(!p.is_blocked(TxnId(2)));
        p.assert_consistent();
    }

    #[test]
    fn two_txn_deadlock_detected_with_lowest_priority_victim() {
        let mut p = protocol();
        // T1 deadline 100 (urgent), T2 deadline 500 (lax → lower priority).
        p.register(&spec(1, 100, vec![], vec![0, 1]));
        p.register(&spec(2, 500, vec![], vec![0, 1]));
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        assert_eq!(
            p.request(TxnId(2), ObjectId(1), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        assert!(matches!(
            p.request(TxnId(1), ObjectId(1), LockMode::Write).outcome,
            RequestOutcome::Blocked { .. }
        ));
        match p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome {
            RequestOutcome::Deadlock { victim } => assert_eq!(victim, TxnId(2)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.deadlock_count(), 1);
        // Aborting the victim unblocks T1.
        let rel = p.release_all(TxnId(2), ReleaseReason::Restart);
        assert_eq!(rel.wakeups.len(), 1);
        assert_eq!(rel.wakeups[0].txn, TxnId(1));
    }

    #[test]
    fn youngest_victim_policy() {
        let cycle = vec![TxnId(3), TxnId(7), TxnId(5)];
        let base: FxHashMap<TxnId, Priority> = FxHashMap::default();
        assert_eq!(
            select_victim(&cycle, VictimPolicy::Youngest, &base),
            TxnId(7)
        );
    }

    #[test]
    fn lowest_priority_victim_breaks_ties_towards_youngest() {
        let cycle = vec![TxnId(3), TxnId(7)];
        let mut base = FxHashMap::default();
        base.insert(TxnId(3), Priority::new(5));
        base.insert(TxnId(7), Priority::new(5));
        assert_eq!(
            select_victim(&cycle, VictimPolicy::LowestPriority, &base),
            TxnId(7)
        );
    }

    #[test]
    fn finished_release_retires_registration() {
        let mut p = protocol();
        p.register(&spec(1, 100, vec![0], vec![]));
        p.request(TxnId(1), ObjectId(0), LockMode::Read);
        p.release_all(TxnId(1), ReleaseReason::Finished);
        // Re-registration after finish is legal (fresh transaction id reuse
        // is forbidden elsewhere, but the protocol only checks liveness).
        p.register(&spec(1, 100, vec![0], vec![]));
    }

    #[test]
    fn restart_release_keeps_registration() {
        let mut p = protocol();
        p.register(&spec(1, 100, vec![0], vec![]));
        p.request(TxnId(1), ObjectId(0), LockMode::Read);
        p.release_all(TxnId(1), ReleaseReason::Restart);
        assert_eq!(
            p.base_priority(TxnId(1)),
            Priority::earliest_deadline_first(SimTime::from_ticks(100))
        );
    }

    #[test]
    fn fifo_variant_reports_name() {
        let p = TwoPhaseLockingProtocol::without_priority(VictimPolicy::Youngest);
        assert_eq!(p.name(), "2pl");
        assert_eq!(protocol().name(), "2pl-priority");
        let p = TwoPhaseLockingProtocol::with_inheritance(VictimPolicy::Youngest);
        assert_eq!(p.name(), "2pl-inheritance");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_txn_panics() {
        let p = protocol();
        p.base_priority(TxnId(9));
    }

    /// "PI": the same state machine with inheritance on.
    mod inheritance {
        use super::*;

        fn spec(id: u64, deadline: u64, writes: Vec<u32>) -> TxnSpec {
            super::spec(id, deadline, vec![], writes)
        }

        #[test]
        fn blocker_inherits_waiter_priority() {
            let mut p = TwoPhaseLockingProtocol::with_inheritance(VictimPolicy::LowestPriority);
            p.register(&spec(1, 1_000, vec![0])); // low priority (late deadline)
            p.register(&spec(2, 100, vec![0])); // high priority
            assert_eq!(
                p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
                RequestOutcome::Granted
            );
            let res = p.request(TxnId(2), ObjectId(0), LockMode::Write);
            assert!(
                matches!(res.outcome, RequestOutcome::Blocked { blocker: Some(t) } if t == TxnId(1))
            );
            // T1 inherited T2's priority.
            let boosted: Vec<TxnId> = res.priority_updates.iter().map(|&(t, _)| t).collect();
            assert_eq!(boosted, vec![TxnId(1)]);
            assert_eq!(p.effective_priority(TxnId(1)), p.base_priority(TxnId(2)));
            p.assert_consistent();
        }

        #[test]
        fn inheritance_is_transitive() {
            let mut p = TwoPhaseLockingProtocol::with_inheritance(VictimPolicy::LowestPriority);
            p.register(&spec(1, 3_000, vec![0]));
            p.register(&spec(2, 2_000, vec![0, 1]));
            p.register(&spec(3, 100, vec![1]));
            p.request(TxnId(1), ObjectId(0), LockMode::Write); // T1 holds O0
            p.request(TxnId(2), ObjectId(1), LockMode::Write); // T2 holds O1
            p.request(TxnId(2), ObjectId(0), LockMode::Write); // T2 waits on T1
            let res = p.request(TxnId(3), ObjectId(1), LockMode::Write); // T3 waits on T2
            assert!(matches!(res.outcome, RequestOutcome::Blocked { .. }));
            // T3's priority flows through T2 to T1.
            assert_eq!(p.effective_priority(TxnId(1)), p.base_priority(TxnId(3)));
            assert_eq!(p.effective_priority(TxnId(2)), p.base_priority(TxnId(3)));
        }

        #[test]
        fn inheritance_revoked_on_release() {
            let mut p = TwoPhaseLockingProtocol::with_inheritance(VictimPolicy::LowestPriority);
            p.register(&spec(1, 1_000, vec![0]));
            p.register(&spec(2, 100, vec![0]));
            p.request(TxnId(1), ObjectId(0), LockMode::Write);
            p.request(TxnId(2), ObjectId(0), LockMode::Write);
            let rel = p.release_all(TxnId(1), ReleaseReason::Finished);
            assert_eq!(rel.wakeups.len(), 1);
            // T1 is gone; only T2 remains, at its own priority.
            assert_eq!(p.effective_priority(TxnId(2)), p.base_priority(TxnId(2)));
        }

        #[test]
        fn deadlock_still_detected() {
            let mut p = TwoPhaseLockingProtocol::with_inheritance(VictimPolicy::LowestPriority);
            p.register(&spec(1, 100, vec![0, 1]));
            p.register(&spec(2, 500, vec![0, 1]));
            p.request(TxnId(1), ObjectId(0), LockMode::Write);
            p.request(TxnId(2), ObjectId(1), LockMode::Write);
            p.request(TxnId(1), ObjectId(1), LockMode::Write);
            match p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome {
                RequestOutcome::Deadlock { victim } => assert_eq!(victim, TxnId(2)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
