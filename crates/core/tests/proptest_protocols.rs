//! Property-based tests driving the protocol engines directly with
//! random operation sequences.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use rtdb::{ObjectId, SiteId, TxnId, TxnSpec, WaitsForGraph};
use rtlock::protocols::{make_protocol, LockProtocol, ReleaseReason, RequestOutcome};
use rtlock::{ProtocolKind, VictimPolicy};
use starlite::SimTime;

#[derive(Debug, Clone)]
enum Op {
    Register {
        txn: u8,
        deadline: u64,
        reads: Vec<u8>,
        writes: Vec<u8>,
    },
    RequestNext {
        txn: u8,
    },
    Finish {
        txn: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (
            0u8..8,
            100u64..100_000,
            prop::collection::btree_set(0u8..6, 0..3),
            prop::collection::btree_set(0u8..6, 0..3),
        )
            .prop_map(|(txn, deadline, reads, writes)| Op::Register {
                txn,
                deadline,
                reads: reads.into_iter().collect(),
                writes: writes.into_iter().collect(),
            }),
        4 => (0u8..8).prop_map(|txn| Op::RequestNext { txn }),
        1 => (0u8..8).prop_map(|txn| Op::Finish { txn }),
    ]
}

/// Replays a random operation sequence against a protocol, maintaining a
/// model of who is registered / blocked / finished, and returns the
/// protocol plus an external waits-for graph built from reported
/// blockers.
fn drive(kind: ProtocolKind, ops: &[Op]) -> (Box<dyn LockProtocol>, WaitsForGraph, u64) {
    let mut protocol = make_protocol(kind, VictimPolicy::LowestPriority);
    let mut wfg = WaitsForGraph::new();
    let mut registered: HashMap<TxnId, TxnSpec> = HashMap::new();
    let mut progress: HashMap<TxnId, usize> = HashMap::new();
    let mut blocked: HashSet<TxnId> = HashSet::new();
    let mut deadline_bump = 0u64;
    let mut deadlocks = 0u64;

    for op in ops {
        match op.clone() {
            Op::Register {
                txn,
                deadline,
                reads,
                writes,
            } => {
                let id = TxnId(txn as u64);
                if registered.contains_key(&id) {
                    continue;
                }
                let reads: Vec<ObjectId> = reads.into_iter().map(|o| ObjectId(o as u32)).collect();
                let writes: Vec<ObjectId> = writes
                    .into_iter()
                    .filter(|o| !reads.iter().any(|r| r.0 == *o as u32))
                    .map(|o| ObjectId(o as u32))
                    .collect();
                let (reads, writes) = if reads.is_empty() && writes.is_empty() {
                    (vec![ObjectId(0)], vec![])
                } else {
                    (reads, writes)
                };
                // Unique deadlines keep EDF priorities distinct.
                deadline_bump += 1;
                let spec = TxnSpec::new(
                    id,
                    SimTime::ZERO,
                    reads,
                    writes,
                    SimTime::from_ticks(deadline + deadline_bump),
                    SiteId(0),
                );
                protocol.register(&spec);
                registered.insert(id, spec);
                progress.insert(id, 0);
                protocol.assert_consistent();
            }
            Op::RequestNext { txn } => {
                let id = TxnId(txn as u64);
                let Some(spec) = registered.get(&id) else {
                    continue;
                };
                if blocked.contains(&id) {
                    continue;
                }
                let seq = spec.access_sequence();
                let step = progress[&id];
                if step >= seq.len() {
                    continue;
                }
                let (object, mode) = seq[step];
                match protocol.request(id, object, mode).outcome {
                    RequestOutcome::Granted => {
                        progress.insert(id, step + 1);
                    }
                    RequestOutcome::Blocked { blocker } => {
                        blocked.insert(id);
                        if let Some(b) = blocker {
                            wfg.add_edges(id, &[b]);
                        }
                    }
                    RequestOutcome::Deadlock { victim } => {
                        deadlocks += 1;
                        // Resolve immediately: the victim restarts.
                        let release = protocol.release_all(victim, ReleaseReason::Restart);
                        wfg.remove_txn(victim);
                        blocked.remove(&victim);
                        progress.insert(victim, 0);
                        if victim != id {
                            blocked.insert(id);
                        }
                        for w in release.wakeups {
                            blocked.remove(&w.txn);
                            wfg.clear_waiter(w.txn);
                            let s = progress[&w.txn];
                            progress.insert(w.txn, s + 1);
                        }
                    }
                }
                protocol.assert_consistent();
            }
            Op::Finish { txn } => {
                let id = TxnId(txn as u64);
                if !registered.contains_key(&id) || blocked.contains(&id) {
                    continue;
                }
                let release = protocol.release_all(id, ReleaseReason::Finished);
                wfg.remove_txn(id);
                registered.remove(&id);
                progress.remove(&id);
                for w in release.wakeups {
                    blocked.remove(&w.txn);
                    wfg.clear_waiter(w.txn);
                    let s = progress[&w.txn];
                    progress.insert(w.txn, s + 1);
                }
                protocol.assert_consistent();
            }
        }
    }
    (protocol, wfg, deadlocks)
}

/// Drives `ops` through a ceiling protocol, asserts it never reports a
/// deadlock, then drains it: repeatedly finishes an unblocked
/// transaction or, when everyone is blocked, aborts a blocked one (as a
/// deadline would), until the protocol is empty.
fn assert_drives_and_drains(kind: ProtocolKind, ops: &[Op]) {
    let (mut protocol, _wfg, deadlocks) = drive(kind, ops);
    assert_eq!(deadlocks, 0, "{kind:?} reported a deadlock");
    // Rebuild the live set from the protocol's own view.
    let mut live: Vec<TxnId> = (0..8u64).map(TxnId).collect();
    live.retain(|&t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| protocol.base_priority(t))).is_ok()
    });
    let mut rounds = 0;
    while !live.is_empty() {
        rounds += 1;
        assert!(rounds <= 64, "{kind:?} failed to drain");
        // Prefer an unblocked transaction (a commit); fall back to
        // aborting a blocked one (a deadline firing).
        let pick = live
            .iter()
            .copied()
            .find(|&t| !protocol.is_blocked(t))
            .unwrap_or(live[0]);
        let release = protocol.release_all(pick, ReleaseReason::Finished);
        live.retain(|&t| t != pick);
        for w in &release.wakeups {
            assert!(live.contains(&w.txn), "wakeup for a finished transaction");
        }
        protocol.assert_consistent();
    }
}

/// The case recorded in `proptest_protocols.proptest-regressions`. The
/// vendored proptest does not read that file, so it is replayed here.
#[test]
fn recorded_ceiling_regression_replays() {
    let register = |txn, deadline, reads: &[u8], writes: &[u8]| Op::Register {
        txn,
        deadline,
        reads: reads.to_vec(),
        writes: writes.to_vec(),
    };
    let next = |txn| Op::RequestNext { txn };
    let ops = [
        register(0, 100, &[2], &[3]),
        next(0),
        register(6, 1561, &[3], &[0]),
        next(6),
        next(0),
        register(1, 100, &[], &[2]),
        next(6),
    ];
    for kind in [
        ProtocolKind::PriorityCeiling,
        ProtocolKind::PriorityCeilingExclusive,
    ] {
        assert_drives_and_drains(kind, &ops);
    }
    for kind in ProtocolKind::all() {
        let _ = drive(kind, &ops);
    }
}

proptest! {
    /// The ceiling protocols never *report* a deadlock (they have no
    /// victim mechanism), and every reachable state drains: repeatedly
    /// finishing an unblocked transaction — or, when a transient
    /// ceiling-blocking cycle leaves everyone blocked, aborting one
    /// blocked transaction, as a deadline would — always empties the
    /// protocol. (With *dynamic arrivals* a registration can raise the
    /// ceiling of an already-granted lock, so blocking cycles can form
    /// transiently; they are broken as soon as any active transaction
    /// leaves. The static-set deadlock-freedom proof does not cover this
    /// case — see DESIGN.md.)
    #[test]
    fn ceiling_protocols_always_drain(ops in prop::collection::vec(op_strategy(), 1..120)) {
        for kind in [ProtocolKind::PriorityCeiling, ProtocolKind::PriorityCeilingExclusive] {
            assert_drives_and_drains(kind, &ops);
        }
    }

    /// Every protocol stays internally consistent under random sequences
    /// (the invariant hooks assert lock compatibility, ceiling/blocked
    /// bookkeeping, and effective ≥ base priorities).
    #[test]
    fn all_protocols_stay_consistent(ops in prop::collection::vec(op_strategy(), 1..120)) {
        for kind in ProtocolKind::all() {
            let _ = drive(kind, &ops);
        }
    }

    /// Inheritance never drops a transaction's effective priority below
    /// its base.
    #[test]
    fn effective_priority_dominates_base(ops in prop::collection::vec(op_strategy(), 1..100)) {
        for kind in [ProtocolKind::PriorityInheritance, ProtocolKind::PriorityCeiling] {
            let mut protocol = make_protocol(kind, VictimPolicy::LowestPriority);
            let mut live: Vec<TxnId> = Vec::new();
            let mut bump = 0u64;
            for op in &ops {
                if let Op::Register { txn, deadline, reads, writes } = op.clone() {
                    let id = TxnId(txn as u64);
                    if live.contains(&id) {
                        continue;
                    }
                    bump += 1;
                    let reads: Vec<ObjectId> =
                        reads.into_iter().map(|o| ObjectId(o as u32)).collect();
                    let writes: Vec<ObjectId> = writes
                        .into_iter()
                        .filter(|o| !reads.iter().any(|r| r.0 == *o as u32))
                        .map(|o| ObjectId(o as u32))
                        .collect();
                    let (reads, writes) = if reads.is_empty() && writes.is_empty() {
                        (vec![ObjectId(0)], vec![])
                    } else {
                        (reads, writes)
                    };
                    let spec = TxnSpec::new(
                        id,
                        SimTime::ZERO,
                        reads.clone(),
                        writes,
                        SimTime::from_ticks(deadline + bump),
                        SiteId(0),
                    );
                    protocol.register(&spec);
                    live.push(id);
                    // First access attempt exercises inheritance paths.
                    if let Some(&(object, mode)) = spec.access_sequence().first() {
                        let _ = protocol.request(id, object, mode);
                    }
                }
                for &t in &live {
                    prop_assert!(protocol.effective_priority(t) >= protocol.base_priority(t));
                }
            }
        }
    }
}
