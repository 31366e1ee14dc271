//! An interval (range) latch manager for scan/point coexistence.
//!
//! Snapshot-free range scans need a cheaper mechanism than taking one
//! read lock per object: a scan over `[lo, hi]` takes a single *range
//! latch*, and point writers take degenerate single-object ranges. Two
//! latches conflict when their intervals overlap and at least one is a
//! write. Unlike the [lock table](crate::lock), latches are not
//! deadlock-detected: callers acquire at most one latch while blocked,
//! and the FIFO queue guarantees progress (no starvation, no cycles
//! through the latch manager alone).
//!
//! The manager keeps held latches in a flat vector — real scans hold a
//! handful of latches at a time, so linear overlap probes beat an
//! interval tree on every workload the simulator produces.
//!
//! # Example
//!
//! ```
//! use rtdb::{LatchOutcome, LockMode, ObjectId, RangeLatchManager, TxnId};
//!
//! let mut lm = RangeLatchManager::new();
//! assert_eq!(
//!     lm.acquire(TxnId(1), ObjectId(0), ObjectId(9), LockMode::Read),
//!     LatchOutcome::Granted
//! );
//! // A point write inside the scanned range blocks…
//! let out = lm.acquire(TxnId(2), ObjectId(4), ObjectId(4), LockMode::Write);
//! assert_eq!(out, LatchOutcome::Blocked { blocker: Some(TxnId(1)) });
//! // …until the scan finishes.
//! let woken = lm.release_all(TxnId(1));
//! assert_eq!(woken.len(), 1);
//! assert_eq!(woken[0].txn, TxnId(2));
//! ```

use std::collections::VecDeque;
use std::fmt;

use crate::ids::{ObjectId, TxnId};
use crate::lock::LockMode;

/// Result of a range-latch acquisition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatchOutcome {
    /// The latch is held; proceed.
    Granted,
    /// The request queued behind a conflict; `blocker` is one
    /// representative conflicting transaction (a holder if any, else the
    /// first conflicting waiter served earlier).
    Blocked {
        /// One transaction the request waits for, if identifiable.
        blocker: Option<TxnId>,
    },
}

/// A latch granted during a release pass; the caller resumes this
/// transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrantedLatch {
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// Inclusive lower bound of the latched range.
    pub lo: ObjectId,
    /// Inclusive upper bound of the latched range.
    pub hi: ObjectId,
    /// The granted mode.
    pub mode: LockMode,
}

#[derive(Debug, Clone, Copy)]
struct Latch {
    txn: TxnId,
    lo: u32,
    hi: u32,
    mode: LockMode,
}

impl Latch {
    fn conflicts(&self, txn: TxnId, lo: u32, hi: u32, mode: LockMode) -> bool {
        self.txn != txn && self.lo <= hi && lo <= self.hi && !self.mode.compatible(mode)
    }
}

/// The range-latch manager of one site.
///
/// See the [module documentation](self) for semantics and an example.
#[derive(Default)]
pub struct RangeLatchManager {
    held: Vec<Latch>,
    /// Strict FIFO: a request conflicting with any *earlier* waiter queues
    /// behind it even when compatible with every holder, so writers are
    /// never starved by a stream of overlapping readers.
    waiters: VecDeque<Latch>,
}

impl fmt::Debug for RangeLatchManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RangeLatchManager")
            .field("held", &self.held.len())
            .field("waiting", &self.waiters.len())
            .finish()
    }
}

impl RangeLatchManager {
    /// Creates an empty latch manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests `mode` on the inclusive range `[lo, hi]` for `txn`.
    ///
    /// A transaction may hold several latches (a scan latch plus point
    /// write latches, say); its own latches never conflict with each
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, or if `txn` is already queued — a blocked
    /// transaction cannot issue further requests.
    pub fn acquire(
        &mut self,
        txn: TxnId,
        lo: ObjectId,
        hi: ObjectId,
        mode: LockMode,
    ) -> LatchOutcome {
        assert!(lo.0 <= hi.0, "range latch bounds inverted: {lo}..{hi}");
        assert!(
            !self.waiters.iter().any(|w| w.txn == txn),
            "{txn} acquired a range latch while already waiting"
        );
        let (lo, hi) = (lo.0, hi.0);
        let holder = self
            .held
            .iter()
            .find(|l| l.conflicts(txn, lo, hi, mode))
            .map(|l| l.txn);
        let ahead = self
            .waiters
            .iter()
            .find(|w| w.conflicts(txn, lo, hi, mode))
            .map(|w| w.txn);
        if holder.is_none() && ahead.is_none() {
            self.held.push(Latch { txn, lo, hi, mode });
            return LatchOutcome::Granted;
        }
        self.waiters.push_back(Latch { txn, lo, hi, mode });
        LatchOutcome::Blocked {
            blocker: holder.or(ahead),
        }
    }

    /// Releases every latch held or awaited by `txn` and wakes eligible
    /// waiters in FIFO order. A waiter is granted when it conflicts with
    /// no remaining holder and no waiter still queued ahead of it, so a
    /// compatible batch (several readers) wakes together while order
    /// across conflicts is preserved. Returns the requests granted by
    /// this release.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<GrantedLatch> {
        self.held.retain(|l| l.txn != txn);
        self.waiters.retain(|w| w.txn != txn);

        let mut granted = Vec::new();
        let mut still_waiting: VecDeque<Latch> = VecDeque::new();
        while let Some(w) = self.waiters.pop_front() {
            let blocked = self
                .held
                .iter()
                .chain(still_waiting.iter())
                .any(|l| l.conflicts(w.txn, w.lo, w.hi, w.mode));
            if blocked {
                still_waiting.push_back(w);
            } else {
                self.held.push(w);
                granted.push(GrantedLatch {
                    txn: w.txn,
                    lo: ObjectId(w.lo),
                    hi: ObjectId(w.hi),
                    mode: w.mode,
                });
            }
        }
        self.waiters = still_waiting;
        granted
    }

    /// Whether `txn` currently holds at least one latch.
    pub fn holds(&self, txn: TxnId) -> bool {
        self.held.iter().any(|l| l.txn == txn)
    }

    /// Whether `txn` is queued behind a conflict.
    pub fn is_waiting(&self, txn: TxnId) -> bool {
        self.waiters.iter().any(|w| w.txn == txn)
    }

    /// Number of latches currently held (across all transactions).
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Number of queued requests.
    pub fn waiter_count(&self) -> usize {
        self.waiters.len()
    }

    /// Internal invariant check for tests: no two held latches conflict,
    /// and no transaction both holds and awaits a latch on an overlapping
    /// range (its own request would self-conflict otherwise).
    pub fn check_invariants(&self) {
        for (i, a) in self.held.iter().enumerate() {
            for b in &self.held[i + 1..] {
                assert!(
                    !a.conflicts(b.txn, b.lo, b.hi, b.mode),
                    "incompatible held latches {}:{}..{} and {}:{}..{}",
                    a.txn,
                    a.lo,
                    a.hi,
                    b.txn,
                    b.lo,
                    b.hi
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acquire(
        lm: &mut RangeLatchManager,
        txn: u64,
        lo: u32,
        hi: u32,
        mode: LockMode,
    ) -> LatchOutcome {
        lm.acquire(TxnId(txn), ObjectId(lo), ObjectId(hi), mode)
    }

    #[test]
    fn disjoint_writes_share() {
        let mut lm = RangeLatchManager::new();
        assert_eq!(
            acquire(&mut lm, 1, 0, 4, LockMode::Write),
            LatchOutcome::Granted
        );
        assert_eq!(
            acquire(&mut lm, 2, 5, 9, LockMode::Write),
            LatchOutcome::Granted
        );
        lm.check_invariants();
        assert_eq!(lm.held_count(), 2);
    }

    #[test]
    fn overlapping_readers_share() {
        let mut lm = RangeLatchManager::new();
        assert_eq!(
            acquire(&mut lm, 1, 0, 9, LockMode::Read),
            LatchOutcome::Granted
        );
        assert_eq!(
            acquire(&mut lm, 2, 5, 15, LockMode::Read),
            LatchOutcome::Granted
        );
        lm.check_invariants();
    }

    #[test]
    fn point_write_blocks_under_scan() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 9, LockMode::Read);
        let out = acquire(&mut lm, 2, 4, 4, LockMode::Write);
        assert_eq!(
            out,
            LatchOutcome::Blocked {
                blocker: Some(TxnId(1))
            }
        );
        let woken = lm.release_all(TxnId(1));
        assert_eq!(
            woken,
            vec![GrantedLatch {
                txn: TxnId(2),
                lo: ObjectId(4),
                hi: ObjectId(4),
                mode: LockMode::Write
            }]
        );
        lm.check_invariants();
    }

    #[test]
    fn fifo_reader_waits_behind_queued_writer() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 9, LockMode::Read);
        acquire(&mut lm, 2, 0, 9, LockMode::Write); // queues
        let out = acquire(&mut lm, 3, 0, 9, LockMode::Read);
        // T3 is compatible with the holder but must not starve T2.
        assert_eq!(
            out,
            LatchOutcome::Blocked {
                blocker: Some(TxnId(2))
            }
        );
        let woken = lm.release_all(TxnId(1));
        assert_eq!(woken.len(), 1);
        assert_eq!(woken[0].txn, TxnId(2));
        let woken = lm.release_all(TxnId(2));
        assert_eq!(woken[0].txn, TxnId(3));
    }

    #[test]
    fn reader_batch_wakes_together() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 9, LockMode::Write);
        acquire(&mut lm, 2, 2, 5, LockMode::Read);
        acquire(&mut lm, 3, 4, 8, LockMode::Read);
        acquire(&mut lm, 4, 3, 3, LockMode::Write);
        let woken = lm.release_all(TxnId(1));
        assert_eq!(woken.len(), 2);
        assert!(woken.iter().all(|g| g.mode == LockMode::Read));
        lm.check_invariants();
    }

    #[test]
    fn own_latches_never_conflict() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 9, LockMode::Read);
        assert_eq!(
            acquire(&mut lm, 1, 4, 4, LockMode::Write),
            LatchOutcome::Granted
        );
        assert!(lm.holds(TxnId(1)));
        assert_eq!(lm.held_count(), 2);
    }

    #[test]
    fn release_of_waiting_txn_dequeues_it() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 9, LockMode::Write);
        acquire(&mut lm, 2, 0, 9, LockMode::Write);
        acquire(&mut lm, 3, 0, 9, LockMode::Write);
        // T2 aborts while queued.
        let woken = lm.release_all(TxnId(2));
        assert!(woken.is_empty());
        assert!(!lm.is_waiting(TxnId(2)));
        let woken = lm.release_all(TxnId(1));
        assert_eq!(woken[0].txn, TxnId(3));
        lm.check_invariants();
    }

    #[test]
    fn adjacent_ranges_do_not_overlap() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 4, LockMode::Write);
        assert_eq!(
            acquire(&mut lm, 2, 5, 5, LockMode::Write),
            LatchOutcome::Granted
        );
    }

    #[test]
    #[should_panic(expected = "already waiting")]
    fn acquire_while_waiting_panics() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 0, 0, LockMode::Write);
        acquire(&mut lm, 2, 0, 0, LockMode::Write);
        acquire(&mut lm, 2, 1, 1, LockMode::Write);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_range_panics() {
        let mut lm = RangeLatchManager::new();
        acquire(&mut lm, 1, 5, 2, LockMode::Read);
    }
}
