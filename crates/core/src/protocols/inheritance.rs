//! Shared priority-inheritance computation.
//!
//! Both 2PL with basic priority inheritance ("PI") and the priority
//! ceiling protocol execute a blocking transaction "at the highest
//! priority of all the transactions blocked by" it, transitively. This
//! module computes the effective-priority fixpoint from the *blocked-by*
//! relation and diffs it against the previous assignment so callers emit
//! only actual changes. "PI" recomputes with it; the ceiling protocol,
//! whose chains have depth one, updates incrementally and checks itself
//! against the fixpoint in its consistency hook.

use rtdb::TxnId;
use starlite::{FxHashMap, Priority};

/// Computes effective priorities: for every transaction, the maximum of
/// its own base priority and the effective priorities of all transactions
/// (transitively) blocked by it.
///
/// `blocked_by` maps each blocked transaction to the transactions it waits
/// for. Unlisted transactions run at base priority.
///
/// Every waiter key must be registered in `base`: a transaction can only
/// wait after a `request`, which requires registration, and
/// deregistration drops the transaction's edges before the next
/// recompute. A waiter missing from `base` would silently contribute no
/// inheritance (dropping the transitive boost its blockers are owed), so
/// it trips a debug assertion — and, because that assertion vanishes in
/// release builds, each offender is also pushed into `anomalies` so the
/// caller can report it through the event stream (the invariant oracle
/// turns it into a `protocol-anomaly` violation). Blockers missing from
/// `base` are merely skipped: edge refreshes already prune departed
/// holders, and a stale blocker has nobody left to boost.
pub(crate) fn effective_priorities(
    base: &FxHashMap<TxnId, Priority>,
    blocked_by: &FxHashMap<TxnId, Vec<TxnId>>,
    anomalies: &mut Vec<TxnId>,
) -> FxHashMap<TxnId, Priority> {
    let mut eff = FxHashMap::default();
    effective_priorities_into(base, blocked_by, anomalies, &mut eff);
    eff
}

/// [`effective_priorities`] into a caller-owned map, so recomputes on the
/// hot path reuse one allocation instead of cloning `base` every call.
pub(crate) fn effective_priorities_into(
    base: &FxHashMap<TxnId, Priority>,
    blocked_by: &FxHashMap<TxnId, Vec<TxnId>>,
    anomalies: &mut Vec<TxnId>,
    eff: &mut FxHashMap<TxnId, Priority>,
) {
    eff.clear();
    eff.extend(base.iter().map(|(&t, &p)| (t, p)));
    // Fixpoint: propagate waiter priorities through blockers. Chains are
    // short (the ceiling protocol bounds them at one), so this converges
    // in a couple of passes.
    let mut first_pass = true;
    loop {
        let mut changed = false;
        for (waiter, blockers) in blocked_by {
            let Some(&wp) = eff.get(waiter) else {
                if first_pass {
                    anomalies.push(*waiter);
                }
                debug_assert!(false, "waiter {waiter} in blocked_by but not registered");
                continue;
            };
            for b in blockers {
                if let Some(bp) = eff.get_mut(b) {
                    if *bp < wp {
                        *bp = wp;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return;
        }
        first_pass = false;
    }
}

/// Diffs a new effective assignment against the previous one, returning
/// `(txn, new_priority)` for every transaction whose priority changed.
/// The maps are swapped — `previous` receives the new assignment and
/// `new` the old one (free to clear and reuse for the next recompute).
pub(crate) fn diff_updates(
    previous: &mut FxHashMap<TxnId, Priority>,
    new: &mut FxHashMap<TxnId, Priority>,
) -> Vec<(TxnId, Priority)> {
    let mut updates: Vec<(TxnId, Priority)> = Vec::new();
    for (&txn, &p) in new.iter() {
        if previous.get(&txn) != Some(&p) {
            updates.push((txn, p));
        }
    }
    // Transactions that vanished (deregistered) need no update events.
    std::mem::swap(previous, new);
    updates.sort_unstable_by_key(|&(t, _)| t);
    updates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(entries: &[(u64, i64)]) -> FxHashMap<TxnId, Priority> {
        entries
            .iter()
            .map(|&(t, p)| (TxnId(t), Priority::new(p)))
            .collect()
    }

    #[test]
    fn direct_inheritance() {
        let b = base(&[(1, 10), (2, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff[&TxnId(2)], Priority::new(10));
        assert_eq!(eff[&TxnId(1)], Priority::new(10));
    }

    #[test]
    fn transitive_chain() {
        let b = base(&[(1, 10), (2, 5), (3, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)]), (TxnId(2), vec![TxnId(3)])]
                .into_iter()
                .collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff[&TxnId(3)], Priority::new(10));
        assert_eq!(eff[&TxnId(2)], Priority::new(10));
    }

    #[test]
    fn no_inheritance_without_blocking() {
        let b = base(&[(1, 10), (2, 1)]);
        let eff = effective_priorities(&b, &FxHashMap::default(), &mut Vec::new());
        assert_eq!(eff, b);
    }

    #[test]
    fn diff_reports_only_changes() {
        let mut prev = base(&[(1, 10), (2, 1)]);
        let mut new = base(&[(1, 10), (2, 7)]);
        let ups = diff_updates(&mut prev, &mut new);
        assert_eq!(ups, vec![(TxnId(2), Priority::new(7))]);
        assert_eq!(prev[&TxnId(2)], Priority::new(7));
        // The swap hands the caller the old assignment for reuse.
        assert_eq!(new[&TxnId(2)], Priority::new(1));
    }

    #[test]
    fn unknown_blockers_are_ignored() {
        let b = base(&[(1, 10)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(99)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        assert_eq!(eff.len(), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "not registered"))]
    fn unregistered_waiter_trips_debug_assertion() {
        // A waiter that is not in `base` cannot pass its priority on; the
        // protocols never produce this state, and the computation flags it
        // instead of silently dropping inheritance.
        let b = base(&[(2, 1)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> =
            [(TxnId(1), vec![TxnId(2)])].into_iter().collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        // Release builds skip the waiter and leave the blocker unboosted.
        assert_eq!(eff[&TxnId(2)], Priority::new(1));
    }

    #[test]
    fn long_chain_converges_regardless_of_edge_order() {
        // A four-link chain needs several fixpoint passes when the map
        // iterates the edges back to front; the result must not depend on
        // FxHashMap iteration order.
        let b = base(&[(1, 50), (2, 40), (3, 30), (4, 20), (5, 10)]);
        let blocked: FxHashMap<TxnId, Vec<TxnId>> = [
            (TxnId(1), vec![TxnId(2)]),
            (TxnId(2), vec![TxnId(3)]),
            (TxnId(3), vec![TxnId(4)]),
            (TxnId(4), vec![TxnId(5)]),
        ]
        .into_iter()
        .collect();
        let eff = effective_priorities(&b, &blocked, &mut Vec::new());
        for t in 1..=5 {
            assert_eq!(eff[&TxnId(t)], Priority::new(50), "txn {t}");
        }
    }
}
