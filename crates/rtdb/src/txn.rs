//! Transaction specifications.
//!
//! A [`TxnSpec`] is the immutable description the workload generator
//! produces: arrival time, declared read and write sets (the priority
//! ceiling protocol requires declared access sets to compute ceilings),
//! deadline, and home site.

use std::fmt;

use serde::{Deserialize, Serialize};
use starlite::{Priority, SimTime};

use crate::ids::{ObjectId, SiteId, TxnId};
use crate::lock::LockMode;

/// Read-only or update, as in the paper's load characteristics menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TxnKind {
    /// Reads only; never writes.
    ReadOnly,
    /// Reads and writes.
    Update,
}

/// The immutable description of one transaction.
///
/// # Example
///
/// ```
/// use rtdb::{TxnSpec, TxnId, ObjectId, SiteId, TxnKind};
/// use starlite::SimTime;
///
/// let spec = TxnSpec::new(
///     TxnId(1),
///     SimTime::from_ticks(100),
///     vec![ObjectId(3)],
///     vec![ObjectId(7)],
///     SimTime::from_ticks(900),
///     SiteId(0),
/// );
/// assert_eq!(spec.size(), 2);
/// assert_eq!(spec.kind(), TxnKind::Update);
/// assert!(spec.writes(ObjectId(7)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// Transaction identity (stable across deadlock restarts).
    pub id: TxnId,
    /// Time the transaction enters the system, ready to execute.
    pub arrival: SimTime,
    /// Objects read but not written, in access order.
    pub read_set: Vec<ObjectId>,
    /// Objects written (each also read first), in access order.
    pub write_set: Vec<ObjectId>,
    /// Hard deadline; missing it makes completion worthless.
    pub deadline: SimTime,
    /// Site where the transaction executes.
    pub home_site: SiteId,
}

impl TxnSpec {
    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics if the access sets overlap or are both empty, or if the
    /// deadline is not after the arrival.
    pub fn new(
        id: TxnId,
        arrival: SimTime,
        read_set: Vec<ObjectId>,
        write_set: Vec<ObjectId>,
        deadline: SimTime,
        home_site: SiteId,
    ) -> Self {
        assert!(
            !(read_set.is_empty() && write_set.is_empty()),
            "a transaction must access at least one object"
        );
        assert!(
            read_set.iter().all(|o| !write_set.contains(o)),
            "read and write sets must be disjoint (writes imply reads)"
        );
        assert!(deadline > arrival, "deadline must be after arrival");
        TxnSpec {
            id,
            arrival,
            read_set,
            write_set,
            deadline,
            home_site,
        }
    }

    /// Total number of objects accessed (the paper's "transaction size").
    pub fn size(&self) -> usize {
        self.read_set.len() + self.write_set.len()
    }

    /// Read-only or update.
    pub fn kind(&self) -> TxnKind {
        if self.write_set.is_empty() {
            TxnKind::ReadOnly
        } else {
            TxnKind::Update
        }
    }

    /// The transaction's base priority under the paper's rule: earliest
    /// deadline, highest priority.
    pub fn base_priority(&self) -> Priority {
        Priority::earliest_deadline_first(self.deadline)
    }

    /// Whether the transaction writes `obj`.
    pub fn writes(&self, obj: ObjectId) -> bool {
        self.write_set.contains(&obj)
    }

    /// Whether the transaction reads or writes `obj`.
    pub fn accesses(&self, obj: ObjectId) -> bool {
        self.read_set.contains(&obj) || self.write_set.contains(&obj)
    }

    /// The access sequence: every object with the lock mode it needs,
    /// reads first then writes (writes are typically performed at the end
    /// of the computation in tracking tasks).
    pub fn access_sequence(&self) -> Vec<(ObjectId, LockMode)> {
        self.access_ops().collect()
    }

    /// Iterator form of [`TxnSpec::access_sequence`], for hot paths that
    /// refill reusable buffers instead of allocating a fresh vector per
    /// transaction.
    pub fn access_ops(&self) -> impl Iterator<Item = (ObjectId, LockMode)> + '_ {
        self.read_set
            .iter()
            .map(|&o| (o, LockMode::Read))
            .chain(self.write_set.iter().map(|&o| (o, LockMode::Write)))
    }
}

impl fmt::Display for TxnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} r{}w{} dl={}",
            self.id,
            self.home_site,
            self.read_set.len(),
            self.write_set.len(),
            self.deadline
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(1),
            SimTime::from_ticks(10),
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(100),
            SiteId(0),
        )
    }

    #[test]
    fn size_and_kind() {
        let s = spec(vec![1, 2], vec![3]);
        assert_eq!(s.size(), 3);
        assert_eq!(s.kind(), TxnKind::Update);
        assert_eq!(spec(vec![1], vec![]).kind(), TxnKind::ReadOnly);
    }

    #[test]
    fn access_sequence_orders_reads_then_writes() {
        let s = spec(vec![5, 2], vec![9]);
        assert_eq!(
            s.access_sequence(),
            vec![
                (ObjectId(5), LockMode::Read),
                (ObjectId(2), LockMode::Read),
                (ObjectId(9), LockMode::Write),
            ]
        );
    }

    #[test]
    fn edf_priority_orders_by_deadline() {
        let early = TxnSpec::new(
            TxnId(1),
            SimTime::ZERO,
            vec![ObjectId(0)],
            vec![],
            SimTime::from_ticks(50),
            SiteId(0),
        );
        let late = TxnSpec::new(
            TxnId(2),
            SimTime::ZERO,
            vec![ObjectId(0)],
            vec![],
            SimTime::from_ticks(90),
            SiteId(0),
        );
        assert!(early.base_priority() > late.base_priority());
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn empty_access_sets_panic() {
        spec(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_sets_panic() {
        spec(vec![1], vec![1]);
    }

    #[test]
    #[should_panic(expected = "after arrival")]
    fn deadline_before_arrival_panics() {
        TxnSpec::new(
            TxnId(1),
            SimTime::from_ticks(10),
            vec![ObjectId(0)],
            vec![],
            SimTime::from_ticks(10),
            SiteId(0),
        );
    }
}
