//! The reference model of the ceiling engine's admission, wake pass and
//! inheritance, and the differential tests holding the engine to it.
//!
//! The reference admits by scanning every lock held by others, wakes by
//! granting the most urgent admissible request and rescanning the whole
//! queue from the top, refreshes every survivor with a full admission
//! check, and computes inheritance from scratch as the effective-priority
//! fixpoint over every registered transaction. The engine instead sweeps
//! the wake-ordered queue once against the system ceiling and updates
//! inheritance incrementally; both must agree on every call.

use std::collections::HashMap;

use proptest::prelude::*;
use rtdb::SiteId;
use starlite::SimTime;

use super::*;
use crate::protocols::inheritance::diff_updates;

impl PriorityCeilingProtocol {
    /// An engine running the reference model.
    fn reference_model(semantics: CeilingSemantics) -> Self {
        PriorityCeilingProtocol {
            reference: true,
            ..Self::with_semantics(semantics)
        }
    }

    /// Admission by a full scan: gate 1 over the in-phase transactions,
    /// gate 2 over every lock with a holder other than `txn`.
    pub(super) fn admission_check_reference(
        &self,
        txn: TxnId,
        phase_txns: &mut Vec<TxnId>,
        blockers: &mut Vec<TxnId>,
    ) -> Result<(), DenialGate> {
        blockers.clear();
        if self.in_phase(txn) {
            return Ok(());
        }
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
        let p = self.base_priority(txn);
        let mut max_key: Option<CeilingKey> = None;
        let mut blocking_obj: Option<ObjectId> = None;
        for (&obj, lock) in &self.locked {
            if !lock.holders.iter().any(|&t| t != txn) {
                continue;
            }
            let key = (self.rw_ceiling(obj, lock.mode), Reverse(obj));
            if max_key.is_none_or(|k| key > k) {
                max_key = Some(key);
                blocking_obj = Some(obj);
            }
        }
        match (blocking_obj, max_key) {
            (None, _) => Ok(()),
            (Some(_), Some((max_ceil, _))) if p > max_ceil => Ok(()),
            (Some(obj), _) => {
                blockers.extend(
                    self.locked[&obj]
                        .holders
                        .iter()
                        .copied()
                        .filter(|&t| t != txn),
                );
                Err(DenialGate::Ceiling)
            }
        }
    }

    /// The restart-scan wake pass: grant the most urgent admissible
    /// request, rescan from the top, and finally recompute every
    /// survivor's blockers with a full admission check.
    pub(super) fn wake_pass_reference(&mut self, wakeups: &mut Vec<Wakeup>) {
        loop {
            let mut order: Vec<usize> = (0..self.blocked.len()).collect();
            order.sort_by_key(|&i| {
                let b = &self.blocked[i];
                (Reverse(self.base_priority(b.txn)), b.seq)
            });
            let Some(i) = order
                .into_iter()
                .find(|&i| self.admission_check(self.blocked[i].txn).is_ok())
            else {
                break;
            };
            let req = self.blocked.remove(i);
            self.grant(req.txn, req.object, req.mode);
            wakeups.push(Wakeup {
                txn: req.txn,
                object: req.object,
                mode: req.mode,
            });
        }
        for i in 0..self.blocked.len() {
            let txn = self.blocked[i].txn;
            let mut blockers = std::mem::take(&mut self.blocked[i].blockers);
            let denied = self
                .admission_check_into(txn, &mut Vec::new(), &mut blockers)
                .is_err();
            assert!(denied, "wake pass left an admissible request blocked");
            self.blocked[i].blockers = blockers;
        }
    }

    /// Inheritance from scratch: the fixpoint over every registered
    /// transaction, diffed against the previous assignment.
    pub(super) fn recompute_reference(&mut self) -> Vec<(TxnId, Priority)> {
        let mut anomalies = Vec::new();
        let mut eff = effective_priorities(&self.base, self.blocked_by(), &mut anomalies);
        if self.trace {
            self.journal.extend(
                anomalies
                    .into_iter()
                    .map(|txn| SimEventKind::ProtocolAnomaly {
                        txn: Some(txn),
                        detail: "waiter in blocked_by but not registered",
                    }),
            );
        }
        let updates = diff_updates(&mut self.effective, &mut eff);
        self.raised = self
            .effective
            .iter()
            .filter(|&(t, e)| self.base[t] != *e)
            .map(|(&t, _)| t)
            .collect();
        self.raised.sort_unstable();
        updates
    }

    /// The blocked queue as comparable data: waiter, object, mode,
    /// arrival and blocked-by edges, in wake order.
    fn queue(&self) -> Vec<(TxnId, ObjectId, LockMode, u64, Vec<TxnId>)> {
        self.blocked
            .iter()
            .map(|b| (b.txn, b.object, b.mode, b.seq, b.blockers.clone()))
            .collect()
    }
}

/// The engine and the reference, driven in lockstep.
struct Lockstep {
    engine: PriorityCeilingProtocol,
    reference: PriorityCeilingProtocol,
}

impl Lockstep {
    fn new(semantics: CeilingSemantics) -> Self {
        let mut engine = PriorityCeilingProtocol::with_semantics(semantics);
        let mut reference = PriorityCeilingProtocol::reference_model(semantics);
        engine.set_tracing(true);
        reference.set_tracing(true);
        Lockstep { engine, reference }
    }

    fn register(&mut self, spec: &TxnSpec) {
        self.engine.register(spec);
        self.reference.register(spec);
        self.assert_agree();
    }

    fn request(&mut self, txn: u64, obj: u32, mode: LockMode) -> RequestResult {
        let (txn, obj) = (TxnId(txn), ObjectId(obj));
        let result = self.engine.request(txn, obj, mode);
        assert_eq!(
            result,
            self.reference.request(txn, obj, mode),
            "request outcome"
        );
        self.assert_agree();
        result
    }

    fn release(&mut self, txn: u64, reason: ReleaseReason) -> ReleaseResult {
        let result = self.engine.release_all(TxnId(txn), reason);
        assert_eq!(
            result,
            self.reference.release_all(TxnId(txn), reason),
            "wakeups or priority updates"
        );
        self.assert_agree();
        result
    }

    /// Asserts both engines are consistent and in the same observable
    /// state, and that they journalled the same events.
    fn assert_agree(&mut self) {
        self.engine.assert_consistent();
        self.reference.assert_consistent();
        let (mut ours, mut theirs) = (Vec::new(), Vec::new());
        self.engine.drain_events(&mut ours);
        self.reference.drain_events(&mut theirs);
        assert_eq!(ours, theirs, "journals");
        assert_eq!(self.engine.queue(), self.reference.queue(), "blocked queue");
        assert_eq!(
            self.engine.effective, self.reference.effective,
            "effective priorities"
        );
        assert_eq!(
            self.engine.ceiling_block_count(),
            self.reference.ceiling_block_count()
        );
    }

    /// The waiters and their blocked-by edges, in wake order.
    fn waiting(&self) -> Vec<(TxnId, Vec<TxnId>)> {
        self.engine
            .blocked
            .iter()
            .map(|b| (b.txn, b.blockers.clone()))
            .collect()
    }
}

fn spec(id: u64, deadline: u64, reads: &[u32], writes: &[u32]) -> TxnSpec {
    TxnSpec::new(
        TxnId(id),
        SimTime::ZERO,
        reads.iter().copied().map(ObjectId).collect(),
        writes.iter().copied().map(ObjectId).collect(),
        SimTime::from_ticks(deadline),
        SiteId(0),
    )
}

fn blocked_on(blocker: u64) -> RequestOutcome {
    RequestOutcome::Blocked {
        blocker: Some(TxnId(blocker)),
    }
}

fn woken(release: ReleaseResult) -> Vec<TxnId> {
    release.wakeups.iter().map(|w| w.txn).collect()
}

#[test]
fn sweep_stops_at_a_priority_equal_to_the_system_ceiling() {
    let mut s = Lockstep::new(CeilingSemantics::ReadWrite);
    s.register(&spec(1, 100, &[], &[0]));
    s.register(&spec(2, 100, &[], &[1]));
    s.register(&spec(3, 900, &[], &[0]));
    s.register(&spec(4, 900, &[], &[2]));
    assert_eq!(
        s.request(3, 0, LockMode::Write).outcome,
        RequestOutcome::Granted
    );
    // T1 conflicts with T3 on O0; T2 ties O0's ceiling, which is T1's
    // priority, and a tie does not pass the ceiling.
    assert_eq!(s.request(1, 0, LockMode::Write).outcome, blocked_on(3));
    assert_eq!(s.request(2, 1, LockMode::Write).outcome, blocked_on(3));
    // A release that frees nothing: the sweep stops at T1 (equal to the
    // system ceiling) and T2 behind it stays blocked too.
    assert!(woken(s.release(4, ReleaseReason::Finished)).is_empty());
    // T3 leaves: T1 is admitted and its lock on O0 brings the system
    // ceiling back to T1's priority, which T2 only ties.
    assert_eq!(woken(s.release(3, ReleaseReason::Finished)), [TxnId(1)]);
    assert_eq!(s.waiting(), [(TxnId(2), vec![TxnId(1)])]);
}

#[test]
fn grant_mid_sweep_raises_the_system_ceiling_over_a_later_request() {
    let mut s = Lockstep::new(CeilingSemantics::ReadWrite);
    s.register(&spec(1, 100, &[], &[0, 1]));
    s.register(&spec(2, 200, &[], &[2]));
    s.register(&spec(3, 900, &[], &[0]));
    assert_eq!(
        s.request(3, 0, LockMode::Write).outcome,
        RequestOutcome::Granted
    );
    assert_eq!(s.request(1, 1, LockMode::Write).outcome, blocked_on(3));
    assert_eq!(s.request(2, 2, LockMode::Write).outcome, blocked_on(3));
    // With O0 free, both would pass on their own; granting T1 its lock on
    // O1 raises the system ceiling to T1's priority and shuts T2 out.
    assert_eq!(woken(s.release(3, ReleaseReason::Finished)), [TxnId(1)]);
    assert_eq!(s.waiting(), [(TxnId(2), vec![TxnId(1)])]);
}

#[test]
fn refresh_picks_up_a_new_holder_of_the_ceiling_lock() {
    let mut s = Lockstep::new(CeilingSemantics::ReadWrite);
    s.register(&spec(1, 300, &[], &[0])); // sets O0's write ceiling
    s.register(&spec(2, 200, &[0], &[])); // first reader of O0
    s.register(&spec(3, 250, &[0], &[])); // second reader of O0
    s.register(&spec(4, 400, &[], &[1]));
    assert_eq!(
        s.request(2, 0, LockMode::Read).outcome,
        RequestOutcome::Granted
    );
    // T4 shares nothing with T2 but is not above O0's write ceiling.
    assert_eq!(s.request(4, 1, LockMode::Write).outcome, blocked_on(2));
    assert_eq!(
        s.request(3, 0, LockMode::Read).outcome,
        RequestOutcome::Granted
    );
    // T2 leaves; O0 stays read-locked, now by T3 alone, so T4's edge
    // moves to T3.
    assert!(woken(s.release(2, ReleaseReason::Finished)).is_empty());
    assert_eq!(s.waiting(), [(TxnId(4), vec![TxnId(3)])]);
}

#[derive(Debug, Clone)]
enum Op {
    Register {
        txn: u8,
        deadline: u64,
        reads: Vec<u8>,
        writes: Vec<u8>,
    },
    Request {
        txn: u8,
    },
    Finish {
        txn: u8,
    },
    Restart {
        txn: u8,
    },
}

/// Deadlines come from five levels, so equal priorities are common.
fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (
            0u8..10,
            1u64..6,
            prop::collection::btree_set(0u8..8, 0..3),
            prop::collection::btree_set(0u8..8, 0..3),
        )
            .prop_map(|(txn, level, reads, writes)| Op::Register {
                txn,
                deadline: level * 100,
                reads: reads.into_iter().collect(),
                writes: writes.into_iter().collect(),
            }),
        6 => (0u8..10).prop_map(|txn| Op::Request { txn }),
        2 => (0u8..10).prop_map(|txn| Op::Finish { txn }),
        1 => (0u8..10).prop_map(|txn| Op::Restart { txn }),
    ]
}

/// Replays `ops` against both engines. Requests follow each
/// transaction's access sequence; finishing a blocked transaction is a
/// deadline abort.
fn replay(semantics: CeilingSemantics, ops: &[Op]) {
    let mut s = Lockstep::new(semantics);
    let mut specs: HashMap<u64, TxnSpec> = HashMap::new();
    let mut progress: HashMap<u64, usize> = HashMap::new();
    for op in ops {
        match op.clone() {
            Op::Register {
                txn,
                deadline,
                reads,
                writes,
            } => {
                let id = u64::from(txn);
                if specs.contains_key(&id) {
                    continue;
                }
                let reads: Vec<u32> = reads.into_iter().map(u32::from).collect();
                let writes: Vec<u32> = writes
                    .into_iter()
                    .map(u32::from)
                    .filter(|o| !reads.contains(o))
                    .collect();
                let reads = if reads.is_empty() && writes.is_empty() {
                    vec![0]
                } else {
                    reads
                };
                let spec = spec(id, deadline, &reads, &writes);
                s.register(&spec);
                specs.insert(id, spec);
                progress.insert(id, 0);
            }
            Op::Request { txn } => {
                let id = u64::from(txn);
                let Some(spec) = specs.get(&id) else { continue };
                if s.engine.is_blocked(TxnId(id)) {
                    continue;
                }
                let Some((obj, mode)) = spec.access_ops().nth(progress[&id]) else {
                    continue;
                };
                if s.request(id, obj.0, mode).outcome == RequestOutcome::Granted {
                    *progress.get_mut(&id).unwrap() += 1;
                }
            }
            Op::Finish { txn } | Op::Restart { txn } => {
                let id = u64::from(txn);
                if !specs.contains_key(&id) {
                    continue;
                }
                let finished = matches!(op, Op::Finish { .. });
                let reason = if finished {
                    ReleaseReason::Finished
                } else {
                    ReleaseReason::Restart
                };
                let release = s.release(id, reason);
                if finished {
                    specs.remove(&id);
                    progress.remove(&id);
                } else {
                    progress.insert(id, 0);
                }
                for w in release.wakeups {
                    *progress.get_mut(&w.txn.0).unwrap() += 1;
                }
            }
        }
    }
}

proptest! {
    /// The engine and the reference model agree after every call on
    /// outcomes, wakeups and their order, priority updates, journals and
    /// blocked-by edges, under both lock semantics.
    #[test]
    fn engine_matches_reference_model(ops in prop::collection::vec(op_strategy(), 1..160)) {
        for semantics in [CeilingSemantics::ReadWrite, CeilingSemantics::Exclusive] {
            replay(semantics, &ops);
        }
    }
}
