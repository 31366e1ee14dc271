//! Two-phase locking, with and without priority mode.
//!
//! The paper's baselines:
//!
//! * **`L` — 2PL without priority**: FIFO wait queues; paired with FCFS
//!   processing by the simulator.
//! * **`P` — 2PL with priority**: wait queues served most-urgent-first;
//!   paired with preemptive priority processing.
//!
//! Both can deadlock. A waits-for graph is maintained continuously; the
//! request that closes a cycle reports a victim chosen by the
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
use crate::protocols::{
    LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult, Wakeup,
};

/// Two-phase locking ("L" or "P" depending on the queue discipline).
pub struct TwoPhaseLockingProtocol {
    table: LockTable,
    wfg: WaitsForGraph,
    victim_policy: VictimPolicy,
    base: FxHashMap<TxnId, Priority>,
    priority_mode: bool,
    deadlocks: u64,
    /// Scratch buffers for [`Self::refresh_wfg`], reused across calls so
    /// the per-release graph rebuild stops allocating once warm.
    scratch_waiters: Vec<TxnId>,
    scratch_blockers: Vec<TxnId>,
    trace: bool,
    /// Protocol events, each behind the table events that preceded it
    /// (see [`Self::journal`]); later table events stay in the table's own
    /// journal until [`LockProtocol::drain_events`].
    journal: Vec<SimEventKind>,
}

impl fmt::Debug for TwoPhaseLockingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TwoPhaseLockingProtocol")
            .field("priority_mode", &self.priority_mode)
            .field("active", &self.base.len())
            .field("deadlocks", &self.deadlocks)
            .finish()
    }
}

impl TwoPhaseLockingProtocol {
    /// The paper's "L": FIFO queues, no priority awareness.
    pub fn without_priority(victim_policy: VictimPolicy) -> Self {
        TwoPhaseLockingProtocol {
            table: LockTable::new(QueuePolicy::Fifo),
            wfg: WaitsForGraph::new(),
            victim_policy,
            base: FxHashMap::default(),
            priority_mode: false,
            deadlocks: 0,
            scratch_waiters: Vec::new(),
            scratch_blockers: Vec::new(),
            trace: false,
            journal: Vec::new(),
        }
    }

    /// The paper's "P": priority queues.
    pub fn with_priority(victim_policy: VictimPolicy) -> Self {
        TwoPhaseLockingProtocol {
            table: LockTable::new(QueuePolicy::Priority),
            wfg: WaitsForGraph::new(),
            victim_policy,
            base: FxHashMap::default(),
            priority_mode: true,
            deadlocks: 0,
            scratch_waiters: Vec::new(),
            scratch_blockers: Vec::new(),
            trace: false,
            journal: Vec::new(),
        }
    }

    /// Shared access to the underlying lock table (for statistics).
    pub fn lock_table(&self) -> &LockTable {
        &self.table
    }

    fn select_victim(&self, cycle: &[TxnId]) -> TxnId {
        select_victim(cycle, self.victim_policy, &self.base)
    }

    /// Journals a protocol event behind every table event recorded before
    /// it, so draining keeps call order.
    fn journal(&mut self, event: SimEventKind) {
        self.journal
            .extend(self.table.drain_journal().map(SimEventKind::from));
        self.journal.push(event);
    }

    /// Rebuilds waits-for edges for every still-waiting transaction; the
    /// blocker sets shift whenever grants reorder the queues.
    fn refresh_wfg(&mut self) {
        self.table.waiters_into(&mut self.scratch_waiters);
        for &t in &self.scratch_waiters {
            self.table
                .current_blockers_into(t, &mut self.scratch_blockers);
            self.wfg.set_edges(t, &self.scratch_blockers);
        }
    }
}

/// Picks a deadlock victim from a cycle.
///
/// With [`VictimPolicy::LowestPriority`], ties break towards the youngest
/// (largest id). Unknown transactions (not in `base`) are treated as
/// lowest priority.
pub(crate) fn select_victim(
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

impl LockProtocol for TwoPhaseLockingProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let prev = self.base.insert(spec.id, spec.base_priority());
        assert!(prev.is_none(), "{} registered twice", spec.id);
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult {
        let priority = self.base_priority(txn);
        let outcome = self.table.request(txn, object, mode, priority);
        match outcome {
            LockOutcome::Granted => RequestResult::granted(),
            LockOutcome::Waiting { blockers } => {
                self.wfg.set_edges(txn, &blockers);
                if let Some(cycle) = self.wfg.cycle_from(txn) {
                    self.deadlocks += 1;
                    let victim = self.select_victim(&cycle);
                    if self.trace {
                        self.journal(SimEventKind::DeadlockDetected { victim });
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
                RequestResult {
                    outcome: RequestOutcome::Blocked { blocker },
                    priority_updates: Vec::new(),
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
        }
        ReleaseResult {
            wakeups,
            priority_updates: Vec::new(),
        }
    }

    fn effective_priority(&self, txn: TxnId) -> Priority {
        // Plain 2PL performs no inheritance.
        self.base_priority(txn)
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
        if self.priority_mode {
            "2pl-priority"
        } else {
            "2pl"
        }
    }

    fn deadlock_count(&self) -> u64 {
        self.deadlocks
    }

    fn assert_consistent(&self) {
        self.table.check_invariants();
    }

    fn assert_idle(&self) {
        self.table.assert_idle();
        assert!(
            self.base.is_empty(),
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
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unknown_txn_panics() {
        let p = protocol();
        p.base_priority(TxnId(9));
    }
}
