//! The online oracle's serialisability check against its reference model.
//!
//! [`check_conflict_serializable`] builds the conflict graph of a whole
//! committed history at once; [`CheckSink`] grows the same graph one lock
//! grant at a time and looks for a cycle at each commit. Given the same
//! random committed history — whole to the first, as a stream of
//! `TxnArrived` / `LockGranted` / `TxnCommitted` events to the second —
//! the two must reach the same verdict.

use std::collections::{HashMap, HashSet};

use monitor::{check_conflict_serializable, CheckConfig, CheckSink, SimEvent, SimEventKind};
use proptest::prelude::*;
use rtdb::{History, LockMode, ObjectId, OpKind, Operation, SiteId, TxnId};
use starlite::{EventSink, Priority, SimTime};

/// Random committed histories: up to 24 operations by 6 transactions over
/// 4 objects at 2 sites, in a random interleaving. Operation `i` happens
/// at tick `i` with sequence number `i`, so the order is total.
fn history_strategy() -> impl Strategy<Value = History> {
    let op = (0u64..6, 0u32..4, 0u8..2, any::<bool>());
    prop::collection::vec(op, 1..24).prop_map(|raw| {
        let mut history = History::new();
        for (i, (txn, object, site, write)) in raw.into_iter().enumerate() {
            history.record(Operation {
                txn: TxnId(txn),
                object: ObjectId(object),
                kind: if write { OpKind::Write } else { OpKind::Read },
                at: SimTime::from_ticks(i as u64),
                seq: i as u64,
                site: SiteId(site),
            });
        }
        history
    })
}

/// Streams `history` through the oracle in timestamp-ordering mode
/// (grants feed the conflict graph; the lock-table checks are off): each
/// transaction arrives just before its first operation, every operation
/// is a grant, and each transaction commits right after its last one.
fn oracle_violations(history: &History) -> Vec<monitor::Violation> {
    let ops = history.operations();
    let last: HashMap<TxnId, usize> = ops.iter().enumerate().map(|(i, op)| (op.txn, i)).collect();
    let mut arrived = HashSet::new();
    let mut sink = CheckSink::new(CheckConfig::single_site(false, false, false));
    for (i, op) in ops.iter().enumerate() {
        let mut emit = |kind| sink.emit(op.at, SimEvent::new(op.site, kind));
        if arrived.insert(op.txn) {
            emit(SimEventKind::TxnArrived {
                txn: op.txn,
                priority: Priority::new(0),
            });
        }
        emit(SimEventKind::LockGranted {
            txn: op.txn,
            object: op.object,
            mode: match op.kind {
                OpKind::Read => LockMode::Read,
                OpKind::Write => LockMode::Write,
            },
        });
        if last[&op.txn] == i {
            emit(SimEventKind::TxnCommitted { txn: op.txn });
        }
    }
    sink.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn oracle_agrees_with_the_reference_checker(history in history_strategy()) {
        let reference = check_conflict_serializable(&history);
        let violations = oracle_violations(&history);
        prop_assert!(
            violations.iter().all(|v| v.invariant == "conflict-serializability"),
            "unexpected invariant fired: {:?}",
            violations
        );
        prop_assert_eq!(
            reference.is_ok(),
            violations.is_empty(),
            "reference says {:?}, oracle says {:?}",
            reference,
            violations
        );
    }
}
