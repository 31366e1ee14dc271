//! Basic timestamp-ordering concurrency control.
//!
//! The prototyping environment's concurrency-control menu offers
//! "locking, timestamp ordering, and priority-based" (§2); this module is
//! the timestamp-ordering entry. Every transaction carries a timestamp
//! (its arrival order); accesses must happen in timestamp order per
//! object:
//!
//! * a **read** by `T` is rejected if a younger... *older* timestamp has
//!   already been overwritten: `ts(T) < wts(O)` → abort `T`;
//! * a **write** by `T` is rejected if a later transaction already read
//!   or wrote the object: `ts(T) < rts(O)` or `ts(T) < wts(O)` → abort
//!   `T` (no Thomas write rule: updates here are read-modify-write).
//!
//! Rejected transactions restart with a **new timestamp** (so they
//! eventually run; the classic starvation caveat applies and is visible
//! in the experiments). There is no blocking and no deadlock; the cost is
//! wasted work on every restart — the trade-off the real-time database
//! literature of the period weighs against locking.
//!
//! The engine reports rejections through the
//! [`RequestOutcome::Deadlock`]-shaped channel (victim = requester) so
//! the transaction manager's existing restart machinery drives it; the
//! name is historical, the semantics are "abort and restart".

use std::fmt;

use monitor::SimEventKind;
use rtdb::{LockMode, ObjectId, TxnId, TxnSpec};
use starlite::{FxHashMap, Priority};

use crate::protocols::{LockProtocol, ReleaseReason, ReleaseResult, RequestOutcome, RequestResult};

#[derive(Debug, Clone, Copy, Default)]
struct ObjectStamps {
    read_ts: u64,
    write_ts: u64,
}

/// Basic timestamp ordering (abort-and-restart on out-of-order access).
pub struct TimestampOrderingProtocol {
    /// Next timestamp to hand out.
    next_ts: u64,
    /// Current timestamp of each active transaction (refreshed on
    /// restart).
    ts: FxHashMap<TxnId, u64>,
    base: FxHashMap<TxnId, Priority>,
    stamps: FxHashMap<ObjectId, ObjectStamps>,
    rejections: u64,
    trace: bool,
    journal: Vec<SimEventKind>,
}

impl fmt::Debug for TimestampOrderingProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimestampOrderingProtocol")
            .field("active", &self.ts.len())
            .field("rejections", &self.rejections)
            .finish()
    }
}

impl TimestampOrderingProtocol {
    /// Creates an empty engine.
    pub fn new() -> Self {
        TimestampOrderingProtocol {
            next_ts: 1,
            ts: FxHashMap::default(),
            base: FxHashMap::default(),
            stamps: FxHashMap::default(),
            rejections: 0,
            trace: false,
            journal: Vec::new(),
        }
    }

    /// Number of accesses rejected (each costs the requester a restart).
    pub fn rejection_count(&self) -> u64 {
        self.rejections
    }

    fn fresh_ts(&mut self) -> u64 {
        let ts = self.next_ts;
        self.next_ts += 1;
        ts
    }
}

impl Default for TimestampOrderingProtocol {
    fn default() -> Self {
        TimestampOrderingProtocol::new()
    }
}

impl LockProtocol for TimestampOrderingProtocol {
    fn register(&mut self, spec: &TxnSpec) {
        let ts = self.fresh_ts();
        let prev = self.ts.insert(spec.id, ts);
        assert!(prev.is_none(), "{} registered twice", spec.id);
        self.base.insert(spec.id, spec.base_priority());
    }

    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult {
        let ts = *self
            .ts
            .get(&txn)
            .unwrap_or_else(|| panic!("{txn} not registered"));
        if self.trace {
            self.journal
                .push(SimEventKind::LockRequested { txn, object, mode });
        }
        let stamps = self.stamps.entry(object).or_default();
        let ok = match mode {
            LockMode::Read => ts >= stamps.write_ts,
            LockMode::Write => ts >= stamps.write_ts && ts >= stamps.read_ts,
        };
        if !ok {
            self.rejections += 1;
            if self.trace {
                // A rejection aborts the requester; it surfaces through
                // the deadlock/restart channel, so journal it as such.
                self.journal
                    .push(SimEventKind::DeadlockDetected { victim: txn });
            }
            return RequestResult {
                outcome: RequestOutcome::Deadlock { victim: txn },
                priority_updates: Vec::new(),
            };
        }
        match mode {
            LockMode::Read => stamps.read_ts = stamps.read_ts.max(ts),
            LockMode::Write => {
                stamps.write_ts = ts;
                stamps.read_ts = stamps.read_ts.max(ts);
            }
        }
        if self.trace {
            self.journal
                .push(SimEventKind::LockGranted { txn, object, mode });
        }
        RequestResult::granted()
    }

    fn release_all(&mut self, txn: TxnId, reason: ReleaseReason) -> ReleaseResult {
        match reason {
            ReleaseReason::Finished => {
                self.ts.remove(&txn);
                self.base.remove(&txn);
            }
            ReleaseReason::Restart => {
                // A rejected transaction re-enters with a fresh, larger
                // timestamp so its next attempt orders after the conflict.
                let ts = self.fresh_ts();
                self.ts.insert(txn, ts);
            }
        }
        // Timestamp ordering never blocks, so releases wake nobody.
        ReleaseResult::default()
    }

    fn effective_priority(&self, txn: TxnId) -> Priority {
        self.base_priority(txn)
    }

    fn base_priority(&self, txn: TxnId) -> Priority {
        self.base
            .get(&txn)
            .copied()
            .unwrap_or_else(|| panic!("{txn} not registered"))
    }

    fn is_blocked(&self, _txn: TxnId) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "timestamp-ordering"
    }

    fn deadlock_count(&self) -> u64 {
        // Reported as the rejection count: every rejection flows through
        // the same restart channel a deadlock victim uses.
        self.rejections
    }

    fn set_tracing(&mut self, on: bool) {
        self.trace = on;
    }

    fn drain_events(&mut self, out: &mut Vec<SimEventKind>) {
        out.append(&mut self.journal);
    }

    fn assert_idle(&self) {
        // Timestamp ordering holds no locks and never queues anyone.
        assert!(
            self.ts.is_empty(),
            "{} transactions still registered",
            self.ts.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::SiteId;
    use starlite::SimTime;

    fn spec(id: u64, deadline: u64, obj: u32) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::ZERO,
            vec![],
            vec![ObjectId(obj)],
            SimTime::from_ticks(deadline),
            SiteId(0),
        )
    }

    #[test]
    fn in_order_accesses_pass() {
        let mut p = TimestampOrderingProtocol::new();
        p.register(&spec(1, 100, 0)); // ts 1
        p.register(&spec(2, 200, 0)); // ts 2
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        assert_eq!(
            p.request(TxnId(2), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
        assert_eq!(p.rejection_count(), 0);
    }

    #[test]
    fn out_of_order_write_is_rejected() {
        let mut p = TimestampOrderingProtocol::new();
        p.register(&spec(1, 100, 0)); // ts 1
        p.register(&spec(2, 200, 0)); // ts 2
                                      // T2 (younger) writes first; T1's later write is out of order.
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        match p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome {
            RequestOutcome::Deadlock { victim } => assert_eq!(victim, TxnId(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.rejection_count(), 1);
    }

    #[test]
    fn stale_read_is_rejected() {
        let mut p = TimestampOrderingProtocol::new();
        p.register(&spec(1, 100, 0)); // ts 1
        p.register(&spec(2, 200, 0)); // ts 2
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        match p.request(TxnId(1), ObjectId(0), LockMode::Read).outcome {
            RequestOutcome::Deadlock { victim } => assert_eq!(victim, TxnId(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn restart_gets_a_fresh_timestamp_and_succeeds() {
        let mut p = TimestampOrderingProtocol::new();
        p.register(&spec(1, 100, 0)); // ts 1
        p.register(&spec(2, 200, 0)); // ts 2
        p.request(TxnId(2), ObjectId(0), LockMode::Write);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Deadlock { .. }
        ));
        p.release_all(TxnId(1), ReleaseReason::Restart); // fresh ts 3
        assert_eq!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Granted
        );
    }

    #[test]
    fn write_after_later_read_is_rejected() {
        let mut p = TimestampOrderingProtocol::new();
        p.register(&spec(1, 100, 0)); // ts 1
        p.register(&spec(2, 200, 0)); // ts 2
        p.request(TxnId(2), ObjectId(0), LockMode::Read);
        assert!(matches!(
            p.request(TxnId(1), ObjectId(0), LockMode::Write).outcome,
            RequestOutcome::Deadlock { .. }
        ));
    }

    #[test]
    fn never_blocks() {
        let p = TimestampOrderingProtocol::new();
        assert!(!p.is_blocked(TxnId(1)));
    }
}
