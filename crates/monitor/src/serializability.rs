//! Conflict-serialisability checking of committed histories.
//!
//! Builds the conflict graph of a committed history — an edge `T1 → T2`
//! whenever an operation of `T1` precedes (in virtual time) a conflicting
//! operation of `T2` — and verifies it is acyclic. Simulations check
//! serialisability online with [`crate::CheckSink`]; this whole-history
//! checker is the reference model a proptest holds the oracle's
//! incremental conflict graph against.

use std::collections::{HashMap, HashSet};
use std::fmt;

use rtdb::{History, TxnId};

/// A violation found by [`check_conflict_serializable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializabilityError {
    /// Transactions forming a cycle in the conflict graph.
    pub cycle: Vec<TxnId>,
}

impl fmt::Display for SerializabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflict cycle among {:?}", self.cycle)
    }
}

impl std::error::Error for SerializabilityError {}

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
///
/// # Example
///
/// ```
/// use monitor::check_conflict_serializable;
/// use rtdb::{History, Operation, OpKind, TxnId, ObjectId, SiteId};
/// use starlite::SimTime;
///
/// let mut h = History::new();
/// h.record(Operation { txn: TxnId(1), object: ObjectId(0), kind: OpKind::Write,
///                      at: SimTime::from_ticks(1), seq: 0, site: SiteId(0) });
/// h.record(Operation { txn: TxnId(2), object: ObjectId(0), kind: OpKind::Read,
///                      at: SimTime::from_ticks(2), seq: 1, site: SiteId(0) });
/// assert!(check_conflict_serializable(&h).is_ok());
/// ```
pub fn check_conflict_serializable(history: &History) -> Result<(), SerializabilityError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::{ObjectId, OpKind, Operation, SiteId};
    use starlite::SimTime;

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
}
