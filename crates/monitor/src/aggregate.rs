//! Per-run metric aggregation.
//!
//! [`StatsFold`] is the paper's per-transaction bookkeeping (arrival,
//! blocked interval, aborts, miss) reduced on the fly: it holds state only
//! for transactions still in the system and folds each one into the run
//! totals the moment it commits, misses or is fault-aborted, so its
//! footprint tracks concurrency, not run length. [`StatsFold::finish`]
//! turns the totals into the run's [`RunStats`].

use std::fmt;

use rtdb::{TxnId, TxnSpec};
use serde::{Deserialize, Serialize};
use starlite::{FxHashMap, SimDuration, SimTime};

use crate::hist::Histogram;

/// The paper's headline metrics for one simulation run.
///
/// Throughput is *normalised*: "data objects accessed per second for
/// successful transactions … obtained by multiplying the transaction
/// completion rate by the transaction size", which here reduces to summing
/// committed transaction sizes over the run duration. `%missed` follows
/// §3.3: `100 × missed / processed` where processed = committed + missed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Transactions that finished (committed or missed) during the run.
    pub processed: u32,
    /// Transactions that committed before their deadline.
    pub committed: u32,
    /// Transactions aborted at their deadline.
    pub missed: u32,
    /// Transactions aborted by the fault-recovery machinery (site
    /// crashes); zero on fault-free runs.
    pub faulted: u32,
    /// Transactions still in flight when the run ended. The harness
    /// asserts `committed + missed + in_progress == generated`; a
    /// mismatch means a lifecycle event was silently lost.
    pub in_progress: u32,
    /// `100 × missed / processed` (0 when nothing was processed); faulted
    /// transactions count as processed but not missed.
    pub pct_missed: f64,
    /// Data objects accessed per simulated second by committed
    /// transactions.
    pub throughput: f64,
    /// Mean response time of committed transactions, in ticks.
    pub mean_response_ticks: f64,
    /// Mean blocked time per processed transaction, in ticks.
    pub mean_blocked_ticks: f64,
    /// Histogram of per-transaction total blocked time (ticks) over
    /// processed transactions; the tail percentiles come from here
    /// ([`RunStats::blocked_p50`] and friends).
    pub blocked_hist: Histogram,
    /// Total deadlock-victim restarts.
    pub restarts: u32,
    /// Largest number of distinct lower-priority blockers seen by any
    /// single transaction (the priority ceiling protocol bounds this by 1).
    pub max_lower_priority_blockers: u32,
    /// Virtual time the run covered.
    pub makespan: SimTime,
}

impl RunStats {
    /// Mean blocked time as a duration (rounded down).
    pub fn mean_blocked(&self) -> SimDuration {
        SimDuration::from_ticks(self.mean_blocked_ticks as u64)
    }

    /// Median per-transaction total blocked time, in ticks.
    pub fn blocked_p50(&self) -> u64 {
        self.blocked_hist.percentile(50)
    }

    /// 95th-percentile per-transaction total blocked time, in ticks.
    pub fn blocked_p95(&self) -> u64 {
        self.blocked_hist.percentile(95)
    }

    /// 99th-percentile per-transaction total blocked time, in ticks.
    pub fn blocked_p99(&self) -> u64 {
        self.blocked_hist.percentile(99)
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "processed={} committed={} missed={} (%missed={:.1}) thrpt={:.1} obj/s",
            self.processed, self.committed, self.missed, self.pct_missed, self.throughput
        )
    }
}

/// Lifecycle state of one transaction still in the system.
#[derive(Debug)]
struct InFlight {
    arrival: SimTime,
    /// Objects accessed (the throughput weight of a commit).
    size: u32,
    /// Block episode currently open, if any.
    blocked_since: Option<SimTime>,
    /// Blocked time of the episodes already closed.
    blocked: SimDuration,
    restarts: u32,
    /// Distinct transactions that blocked this one at lower base priority
    /// (the priority ceiling protocol bounds this by one).
    lower_priority_blockers: Vec<TxnId>,
}

impl InFlight {
    fn close_block(&mut self, now: SimTime) {
        if let Some(since) = self.blocked_since.take() {
            self.blocked += now.since(since);
        }
    }
}

/// How a transaction left the system.
#[derive(Debug, Clone, Copy)]
enum Exit {
    Committed,
    Missed,
    Faulted,
}

/// The run's [`RunStats`], folded as transactions finish.
///
/// The simulators call it from the model code that performs each
/// lifecycle step rather than deriving it from the event stream, so
/// untraced runs keep every journal drain compiled out, and the
/// distributed simulator can charge blocked time at the home site, where
/// the manager's replies arrive (no event marks that instant).
///
/// # Example
///
/// ```
/// use monitor::StatsFold;
/// use rtdb::{ObjectId, SiteId, TxnId, TxnSpec};
/// use starlite::SimTime;
///
/// let spec = TxnSpec::new(
///     TxnId(0),
///     SimTime::from_ticks(5),
///     vec![ObjectId(1)],
///     vec![],
///     SimTime::from_ticks(500),
///     SiteId(0),
/// );
/// let mut fold = StatsFold::new();
/// fold.register(&spec);
/// fold.on_commit(TxnId(0), SimTime::from_ticks(80));
/// let stats = fold.finish(SimTime::from_ticks(80));
/// assert_eq!(stats.committed, 1);
/// assert_eq!(stats.mean_response_ticks, 75.0);
/// ```
#[derive(Debug, Default)]
pub struct StatsFold {
    in_flight: FxHashMap<TxnId, InFlight>,
    committed: u32,
    missed: u32,
    faulted: u32,
    committed_objects: u64,
    response_total: u128,
    blocked_total: u128,
    blocked_hist: Histogram,
    restarts: u32,
    max_lower_priority_blockers: u32,
}

impl StatsFold {
    /// Creates an empty fold.
    pub fn new() -> Self {
        StatsFold::default()
    }

    /// Registers an arriving transaction.
    ///
    /// # Panics
    ///
    /// Panics if the transaction is already in flight.
    pub fn register(&mut self, spec: &TxnSpec) {
        let prev = self.in_flight.insert(
            spec.id,
            InFlight {
                arrival: spec.arrival,
                size: spec.size() as u32,
                blocked_since: None,
                blocked: SimDuration::ZERO,
                restarts: 0,
                lower_priority_blockers: Vec::new(),
            },
        );
        assert!(prev.is_none(), "{} registered twice", spec.id);
    }

    /// Records the beginning of a blocking episode. `lower_priority_blocker`
    /// names the blocking transaction when it had lower base priority than
    /// the blocked one — the quantity the priority ceiling protocol bounds.
    pub fn on_block(&mut self, txn: TxnId, now: SimTime, lower_priority_blocker: Option<TxnId>) {
        let t = self.get(txn);
        assert!(
            t.blocked_since.is_none(),
            "{txn} blocked twice without resuming"
        );
        t.blocked_since = Some(now);
        if let Some(b) = lower_priority_blocker {
            if !t.lower_priority_blockers.contains(&b) {
                t.lower_priority_blockers.push(b);
            }
        }
    }

    /// Records the end of a blocking episode.
    pub fn on_unblock(&mut self, txn: TxnId, now: SimTime) {
        let t = self.get(txn);
        assert!(t.blocked_since.is_some(), "{txn} unblocked without a block");
        t.close_block(now);
    }

    /// Records a deadlock-victim restart (closes any open block).
    pub fn on_restart(&mut self, txn: TxnId, now: SimTime) {
        let t = self.get(txn);
        t.close_block(now);
        t.restarts += 1;
    }

    /// Records a successful commit.
    pub fn on_commit(&mut self, txn: TxnId, now: SimTime) {
        self.exit(txn, now, Exit::Committed);
    }

    /// Records a deadline miss (the transaction is aborted and leaves the
    /// system).
    pub fn on_miss(&mut self, txn: TxnId, now: SimTime) {
        self.exit(txn, now, Exit::Missed);
    }

    /// Records an abort forced by a site failure (the transaction leaves
    /// the system; counted separately from deadline misses).
    pub fn on_fault_abort(&mut self, txn: TxnId, now: SimTime) {
        self.exit(txn, now, Exit::Faulted);
    }

    /// The run's statistics; transactions still in flight count as
    /// `in_progress` and are excluded from every other figure.
    /// `makespan` is the virtual time the run covered (the denominator of
    /// throughput).
    ///
    /// # Panics
    ///
    /// Panics if `makespan` is zero while transactions committed.
    pub fn finish(self, makespan: SimTime) -> RunStats {
        let processed = self.committed + self.missed + self.faulted;
        let pct_missed = if processed == 0 {
            0.0
        } else {
            100.0 * self.missed as f64 / processed as f64
        };
        let throughput = if self.committed_objects == 0 {
            0.0
        } else {
            assert!(makespan > SimTime::ZERO, "throughput over an empty run");
            self.committed_objects as f64 / makespan.as_secs_f64()
        };
        let mean_response_ticks = if self.committed == 0 {
            0.0
        } else {
            self.response_total as f64 / self.committed as f64
        };
        let mean_blocked_ticks = if processed == 0 {
            0.0
        } else {
            self.blocked_total as f64 / processed as f64
        };
        RunStats {
            processed,
            committed: self.committed,
            missed: self.missed,
            faulted: self.faulted,
            in_progress: self.in_flight.len() as u32,
            pct_missed,
            throughput,
            mean_response_ticks,
            mean_blocked_ticks,
            blocked_hist: self.blocked_hist,
            restarts: self.restarts,
            max_lower_priority_blockers: self.max_lower_priority_blockers,
            makespan,
        }
    }

    fn exit(&mut self, txn: TxnId, now: SimTime, exit: Exit) {
        let mut t = self
            .in_flight
            .remove(&txn)
            .unwrap_or_else(|| panic!("{txn} is not in flight"));
        t.close_block(now);
        match exit {
            Exit::Committed => {
                self.committed += 1;
                self.committed_objects += t.size as u64;
                self.response_total += now.since(t.arrival).ticks() as u128;
            }
            Exit::Missed => self.missed += 1,
            Exit::Faulted => self.faulted += 1,
        }
        self.blocked_total += t.blocked.ticks() as u128;
        self.blocked_hist.record(t.blocked.ticks());
        self.restarts += t.restarts;
        self.max_lower_priority_blockers = self
            .max_lower_priority_blockers
            .max(t.lower_priority_blockers.len() as u32);
    }

    fn get(&mut self, txn: TxnId) -> &mut InFlight {
        self.in_flight
            .get_mut(&txn)
            .unwrap_or_else(|| panic!("{txn} is not in flight"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::{ObjectId, SiteId};

    fn spec(id: u64, size: u32) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(1),
            (0..size).map(ObjectId).collect(),
            vec![],
            SimTime::from_ticks(10_000),
            SiteId(0),
        )
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    #[test]
    fn metrics_match_definitions() {
        let mut m = StatsFold::new();
        // Two committed (sizes 4 and 6), one missed.
        for (id, size) in [(1u64, 4u32), (2, 6), (3, 5)] {
            m.register(&spec(id, size));
        }
        m.on_commit(TxnId(1), SimTime::from_ticks(101));
        m.on_commit(TxnId(2), SimTime::from_ticks(201));
        m.on_miss(TxnId(3), SimTime::from_ticks(301));

        let stats = m.finish(SimTime::from_secs(2));
        assert_eq!(stats.processed, 3);
        assert_eq!(stats.committed, 2);
        assert_eq!(stats.missed, 1);
        assert!((stats.pct_missed - 100.0 / 3.0).abs() < 1e-9);
        // 10 objects over 2 seconds.
        assert!((stats.throughput - 5.0).abs() < 1e-9);
        // Mean response: ((101-1)+(201-1))/2 = 150.
        assert!((stats.mean_response_ticks - 150.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_time_accumulates_across_episodes() {
        let mut m = StatsFold::new();
        m.register(&spec(1, 3));
        m.on_block(TxnId(1), t(20), Some(TxnId(9)));
        m.on_unblock(TxnId(1), t(50));
        m.on_block(TxnId(1), t(60), Some(TxnId(9)));
        m.on_unblock(TxnId(1), t(65));
        m.on_commit(TxnId(1), t(101));
        let stats = m.finish(SimTime::from_secs(1));
        assert_eq!(stats.mean_blocked_ticks, 35.0);
        assert_eq!(stats.mean_response_ticks, 100.0);
        // The same blocker twice is one distinct blocker.
        assert_eq!(stats.max_lower_priority_blockers, 1);
    }

    #[test]
    fn miss_restart_and_fault_abort_close_an_open_block() {
        let mut m = StatsFold::new();
        for id in 1..=3u64 {
            m.register(&spec(id, 2));
        }
        m.on_block(TxnId(1), t(20), None);
        m.on_miss(TxnId(1), t(70)); // 50 ticks
        m.on_block(TxnId(2), t(20), Some(TxnId(8)));
        m.on_restart(TxnId(2), t(30)); // 10 ticks, then restarts
        m.on_block(TxnId(2), t(40), Some(TxnId(9)));
        m.on_unblock(TxnId(2), t(45)); // 5 more
        m.on_commit(TxnId(2), t(90));
        m.on_block(TxnId(3), t(100), None);
        m.on_fault_abort(TxnId(3), t(130)); // 30 ticks
        let stats = m.finish(SimTime::from_secs(1));
        assert_eq!((stats.committed, stats.missed, stats.faulted), (1, 1, 1));
        assert_eq!(stats.restarts, 1);
        assert_eq!(stats.max_lower_priority_blockers, 2);
        assert_eq!(stats.mean_blocked_ticks, (50.0 + 15.0 + 30.0) / 3.0);
        assert_eq!(stats.blocked_hist.max(), 50);
    }

    #[test]
    fn in_progress_transactions_excluded() {
        let mut m = StatsFold::new();
        for id in 1..=3u64 {
            m.register(&spec(id, 2));
        }
        // T1 blocks 10..51 (41 ticks), T2 never blocks, T3 stays in flight
        // (its open block and restart count toward nothing).
        m.on_block(TxnId(1), t(10), None);
        m.on_unblock(TxnId(1), t(51));
        m.on_commit(TxnId(1), t(60));
        m.on_commit(TxnId(2), t(70));
        m.on_restart(TxnId(3), t(72));
        m.on_block(TxnId(3), t(75), Some(TxnId(1)));
        let stats = m.finish(SimTime::from_secs(1));
        assert_eq!(stats.processed, 2);
        assert_eq!(stats.in_progress, 1);
        assert_eq!(stats.pct_missed, 0.0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.max_lower_priority_blockers, 0);
        assert_eq!(stats.blocked_hist.count(), 2);
        assert_eq!(stats.blocked_p99(), 41);
        assert_eq!(stats.blocked_p50(), 0);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let stats = StatsFold::new().finish(SimTime::ZERO);
        assert_eq!(
            (stats.processed, stats.in_progress, stats.restarts),
            (0, 0, 0)
        );
        assert_eq!(stats.throughput, 0.0);
        assert_eq!(stats.pct_missed, 0.0);
        assert_eq!(stats.mean_response_ticks, 0.0);
        assert_eq!(stats.mean_blocked_ticks, 0.0);
        assert_eq!(stats.blocked_hist.count(), 0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut m = StatsFold::new();
        m.register(&spec(1, 2));
        m.register(&spec(1, 2));
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn double_finish_panics() {
        let mut m = StatsFold::new();
        m.register(&spec(1, 2));
        m.on_commit(TxnId(1), t(10));
        m.on_miss(TxnId(1), t(20));
    }

    #[test]
    #[should_panic(expected = "not in flight")]
    fn unknown_txn_panics() {
        StatsFold::new().on_block(TxnId(5), SimTime::ZERO, None);
    }
}
