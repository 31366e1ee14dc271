//! Two-phase locking with basic priority inheritance.
//!
//! The \[Sha87\] baseline the paper discusses in §3.1: when a transaction
//! blocks a higher-priority transaction, it executes at the highest
//! priority of all the transactions it blocks (transitively). Inheritance
//! shortens individual inversions but does *not* prevent chained blocking
//! or deadlock — both weaknesses the priority ceiling protocol was designed
//! to remove, and both observable with this implementation (see the
//! ablation benches).

use std::fmt;

use monitor::SimEventKind;
use rtdb::{
    LockMode, LockOutcome, LockTable, ObjectId, QueuePolicy, TxnId, TxnSpec, WaitsForGraph,
};
use starlite::{FxHashMap, Priority};

use crate::config::VictimPolicy;
use crate::protocols::inheritance::{diff_updates, effective_priorities_into};
use crate::protocols::tpl::select_victim;
use crate::protocols::{
    LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult, Wakeup,
};

/// 2PL with priority queues plus basic (transitive) priority inheritance.
pub struct InheritanceProtocol {
    table: LockTable,
    wfg: WaitsForGraph,
    victim_policy: VictimPolicy,
    base: FxHashMap<TxnId, Priority>,
    effective: FxHashMap<TxnId, Priority>,
    deadlocks: u64,
    /// Scratch buffers reused by the inheritance fixpoint and waits-for
    /// graph refresh, both of which run on every block and release.
    scratch_waiters: Vec<TxnId>,
    scratch_blockers: Vec<TxnId>,
    scratch_edges: FxHashMap<TxnId, Vec<TxnId>>,
    scratch_eff: FxHashMap<TxnId, Priority>,
    trace: bool,
    /// Protocol events, each behind the table events that preceded it
    /// (see [`Self::journal`]); later table events stay in the table's own
    /// journal until [`LockProtocol::drain_events`].
    journal: Vec<SimEventKind>,
}

impl fmt::Debug for InheritanceProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InheritanceProtocol")
            .field("active", &self.base.len())
            .field("deadlocks", &self.deadlocks)
            .finish()
    }
}

impl InheritanceProtocol {
    /// Creates the protocol with the given deadlock victim policy.
    pub fn new(victim_policy: VictimPolicy) -> Self {
        InheritanceProtocol {
            table: LockTable::new(QueuePolicy::Priority),
            wfg: WaitsForGraph::new(),
            victim_policy,
            base: FxHashMap::default(),
            effective: FxHashMap::default(),
            deadlocks: 0,
            scratch_waiters: Vec::new(),
            scratch_blockers: Vec::new(),
            scratch_edges: FxHashMap::default(),
            scratch_eff: FxHashMap::default(),
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

    /// Journals the inheritance side effects of one protocol call.
    fn journal_priority_updates(&mut self, updates: &[(TxnId, Priority)]) {
        if !self.trace || updates.is_empty() {
            return;
        }
        self.journal(
            updates
                .iter()
                .map(|&(txn, priority)| SimEventKind::PriorityInherited { txn, priority }),
        );
    }

    /// Recomputes the inheritance fixpoint and returns the priority
    /// changes. Also refreshes waiter priorities inside the lock table so
    /// queue positions follow inherited urgency.
    fn recompute(&mut self) -> Vec<(TxnId, Priority)> {
        let mut blocked_by = std::mem::take(&mut self.scratch_edges);
        blocked_by.clear();
        self.table.waiters_into(&mut self.scratch_waiters);
        for &t in &self.scratch_waiters {
            blocked_by.insert(t, self.table.current_blockers(t));
        }
        // Empty unless the fixpoint sees an unregistered waiter, so this
        // never allocates on the hot path.
        let mut anomalies: Vec<TxnId> = Vec::new();
        let mut eff = std::mem::take(&mut self.scratch_eff);
        effective_priorities_into(&self.base, &blocked_by, &mut anomalies, &mut eff);
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
        let updates = diff_updates(&mut self.effective, &mut eff);
        self.scratch_eff = eff;
        self.scratch_edges = blocked_by;
        for &(txn, priority) in &updates {
            self.table.update_waiter_priority(txn, priority);
        }
        updates
    }

    fn refresh_wfg(&mut self) {
        self.table.waiters_into(&mut self.scratch_waiters);
        for &t in &self.scratch_waiters {
            self.table
                .current_blockers_into(t, &mut self.scratch_blockers);
            self.wfg.set_edges(t, &self.scratch_blockers);
        }
    }
}

impl LockProtocol for InheritanceProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let p = spec.base_priority();
        let prev = self.base.insert(spec.id, p);
        assert!(prev.is_none(), "{} registered twice", spec.id);
        self.effective.insert(spec.id, p);
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
                let blocker = blockers
                    .iter()
                    .copied()
                    .min_by_key(|t| self.base.get(t).copied().unwrap_or(Priority::MIN));
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
        self.refresh_wfg();
        if reason == ReleaseReason::Finished {
            self.base.remove(&txn);
            self.effective.remove(&txn);
        }
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
        self.table.waiting_for(txn).is_some()
    }

    fn name(&self) -> &'static str {
        "2pl-inheritance"
    }

    fn deadlock_count(&self) -> u64 {
        self.deadlocks
    }

    fn assert_consistent(&self) {
        self.table.check_invariants();
        for (&t, &e) in &self.effective {
            let b = self.base.get(&t).copied().expect("effective without base");
            assert!(e >= b, "{t} effective priority below base");
        }
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
        self.table.set_tracing(on);
    }

    fn assert_idle(&self) {
        self.table.assert_idle();
        assert!(
            self.base.is_empty() && self.effective.is_empty(),
            "{} transactions still registered",
            self.base.len()
        );
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

    fn spec(id: u64, deadline: u64, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::ZERO,
            vec![],
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            SiteId(0),
        )
    }

    #[test]
    fn blocker_inherits_waiter_priority() {
        let mut p = InheritanceProtocol::new(VictimPolicy::LowestPriority);
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
        let mut p = InheritanceProtocol::new(VictimPolicy::LowestPriority);
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
        let mut p = InheritanceProtocol::new(VictimPolicy::LowestPriority);
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
        let mut p = InheritanceProtocol::new(VictimPolicy::LowestPriority);
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
