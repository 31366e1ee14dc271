//! The online oracle's serialisability check against its reference model.
//!
//! [`check_conflict_serializable`] builds the conflict graph of a whole
//! committed history at once; [`CheckSink`] grows the same graph one lock
//! grant at a time and looks for a cycle at each commit. Given the same
//! random committed history — whole to the first, as a stream of
//! `TxnArrived` / `LockGranted` / `TxnCommitted` events to the second —
//! the two must reach the same verdict. The reference model (the
//! committed-operation [`History`] and its checker) lives here, with its
//! own tests, because this is its only user.

use std::collections::{HashMap, HashSet};

use monitor::{CheckConfig, CheckSink, SimEvent, SimEventKind};
use proptest::prelude::*;
use rtdb::{LockMode, ObjectId, SiteId, TxnId};
use starlite::{EventSink, Priority, SimTime};

/// The kind of a data operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    /// A read of the object's current value.
    Read,
    /// A committed write installing a new value.
    Write,
}

impl OpKind {
    /// Two operations conflict when they touch the same object and at
    /// least one writes.
    fn conflicts(self, other: OpKind) -> bool {
        self == OpKind::Write || other == OpKind::Write
    }
}

/// One data operation performed by a (later committed) transaction.
#[derive(Debug, Clone, Copy)]
struct Operation {
    /// The transaction performing the operation.
    txn: TxnId,
    /// The object touched.
    object: ObjectId,
    /// Read or write.
    kind: OpKind,
    /// Virtual time the operation took effect (lock was held).
    at: SimTime,
    /// Logical sequence number, assigned in event-execution order; breaks
    /// ties between operations that share a virtual-time tick (possible
    /// with zero communication delay).
    seq: u64,
    /// Site where the copy was touched.
    site: SiteId,
}

/// An append-only log of committed operations, in the real-time order
/// the locks allowed them to happen.
#[derive(Debug, Clone, Default)]
struct History {
    ops: Vec<Operation>,
}

impl History {
    /// Creates an empty history.
    fn new() -> Self {
        History::default()
    }

    /// Appends one operation.
    fn record(&mut self, op: Operation) {
        self.ops.push(op);
    }

    /// All operations, in recording order.
    fn operations(&self) -> &[Operation] {
        &self.ops
    }
}

/// A violation found by [`check_conflict_serializable`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct SerializabilityError {
    /// Transactions forming a cycle in the conflict graph.
    cycle: Vec<TxnId>,
}

/// Checks that a committed history is conflict serialisable.
///
/// Conflicting operations are ordered by `(at, seq)`: the sequence number
/// is assigned in event-execution order, so operations sharing a
/// virtual-time tick (possible with zero communication delay) remain
/// totally ordered. Two operations with identical `(at, seq)` would
/// produce edges in both directions and surface as a cycle — the monitor
/// never records such pairs.
///
/// # Errors
///
/// Returns the first conflict cycle found.
fn check_conflict_serializable(history: &History) -> Result<(), SerializabilityError> {
    // Group operations by (site, object): replicas at different sites are
    // distinct physical copies whose consistency is governed by the
    // propagation protocol, not by local locking.
    let mut by_copy: HashMap<(u8, u32), Vec<usize>> = HashMap::new();
    let ops = history.operations();
    for (i, op) in ops.iter().enumerate() {
        by_copy.entry((op.site.0, op.object.0)).or_default().push(i);
    }

    let mut edges: HashMap<TxnId, HashSet<TxnId>> = HashMap::new();
    for indices in by_copy.values() {
        for (ai, &a_idx) in indices.iter().enumerate() {
            let a = &ops[a_idx];
            for &b_idx in &indices[ai + 1..] {
                let b = &ops[b_idx];
                if a.txn == b.txn || !a.kind.conflicts(b.kind) {
                    continue;
                }
                // Order by (time, logical sequence).
                if (a.at, a.seq) <= (b.at, b.seq) {
                    edges.entry(a.txn).or_default().insert(b.txn);
                }
                if (b.at, b.seq) <= (a.at, a.seq) {
                    edges.entry(b.txn).or_default().insert(a.txn);
                }
            }
        }
    }

    // Cycle detection via iterative DFS with colouring.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: HashMap<TxnId, Colour> = HashMap::new();
    let nodes: Vec<TxnId> = {
        let mut v: Vec<TxnId> = edges.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let neighbours = |t: TxnId| -> Vec<TxnId> {
        let mut v: Vec<TxnId> = edges
            .get(&t)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    };

    for &start in &nodes {
        if colour.get(&start).copied().unwrap_or(Colour::White) != Colour::White {
            continue;
        }
        let mut path: Vec<TxnId> = vec![start];
        let mut stack: Vec<(TxnId, Vec<TxnId>, usize)> = vec![(start, neighbours(start), 0)];
        colour.insert(start, Colour::Grey);
        while let Some((node, ns, idx)) = stack.last_mut() {
            if *idx >= ns.len() {
                colour.insert(*node, Colour::Black);
                path.pop();
                stack.pop();
                continue;
            }
            let next = ns[*idx];
            *idx += 1;
            match colour.get(&next).copied().unwrap_or(Colour::White) {
                Colour::Grey => {
                    let pos = path.iter().position(|&t| t == next).expect("grey on path");
                    return Err(SerializabilityError {
                        cycle: path[pos..].to_vec(),
                    });
                }
                Colour::White => {
                    colour.insert(next, Colour::Grey);
                    path.push(next);
                    stack.push((next, neighbours(next), 0));
                }
                Colour::Black => {}
            }
        }
    }
    Ok(())
}

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

#[test]
fn conflicts() {
    assert!(OpKind::Write.conflicts(OpKind::Read));
    assert!(OpKind::Read.conflicts(OpKind::Write));
    assert!(OpKind::Write.conflicts(OpKind::Write));
    assert!(!OpKind::Read.conflicts(OpKind::Read));
}

fn op(txn: u64, obj: u32, kind: OpKind, at: u64) -> Operation {
    Operation {
        txn: TxnId(txn),
        object: ObjectId(obj),
        kind,
        at: SimTime::from_ticks(at),
        seq: at,
        site: SiteId(0),
    }
}

#[test]
fn serial_history_passes() {
    let mut h = History::new();
    h.record(op(1, 0, OpKind::Write, 1));
    h.record(op(1, 1, OpKind::Write, 2));
    h.record(op(2, 0, OpKind::Read, 10));
    h.record(op(2, 1, OpKind::Write, 11));
    assert!(check_conflict_serializable(&h).is_ok());
}

#[test]
fn classic_nonserializable_interleaving_fails() {
    // T1 reads x then writes y; T2 writes x after T1's read but its
    // write of y precedes T1's... construct a cycle:
    // T1:r(x)@1  T2:w(x)@2  T2:w(y)@3  T1:w(y)@4
    let mut h = History::new();
    h.record(op(1, 0, OpKind::Read, 1));
    h.record(op(2, 0, OpKind::Write, 2));
    h.record(op(2, 1, OpKind::Write, 3));
    h.record(op(1, 1, OpKind::Write, 4));
    let err = check_conflict_serializable(&h).unwrap_err();
    assert_eq!(err.cycle.len(), 2);
}

#[test]
fn reads_never_conflict() {
    let mut h = History::new();
    h.record(op(1, 0, OpKind::Read, 1));
    h.record(op(2, 0, OpKind::Read, 1));
    h.record(op(1, 1, OpKind::Read, 2));
    h.record(op(2, 1, OpKind::Read, 1));
    assert!(check_conflict_serializable(&h).is_ok());
}

#[test]
fn same_tick_ops_are_ordered_by_sequence() {
    let mut h = History::new();
    // Both at tick 5, but seq orders T1's write before T2's.
    h.record(Operation {
        txn: TxnId(1),
        object: ObjectId(0),
        kind: OpKind::Write,
        at: SimTime::from_ticks(5),
        seq: 1,
        site: SiteId(0),
    });
    h.record(Operation {
        txn: TxnId(2),
        object: ObjectId(0),
        kind: OpKind::Write,
        at: SimTime::from_ticks(5),
        seq: 2,
        site: SiteId(0),
    });
    assert!(check_conflict_serializable(&h).is_ok());
}

#[test]
fn identical_time_and_sequence_fails() {
    let mut h = History::new();
    h.record(op(1, 0, OpKind::Write, 5));
    h.record(op(2, 0, OpKind::Write, 5));
    assert!(check_conflict_serializable(&h).is_err());
}

#[test]
fn different_sites_are_distinct_copies() {
    let mut h = History::new();
    h.record(op(1, 0, OpKind::Write, 5));
    h.record(Operation {
        txn: TxnId(2),
        object: ObjectId(0),
        kind: OpKind::Write,
        at: SimTime::from_ticks(5),
        seq: 5,
        site: SiteId(1),
    });
    assert!(check_conflict_serializable(&h).is_ok());
}

#[test]
fn empty_history_passes() {
    assert!(check_conflict_serializable(&History::new()).is_ok());
}
