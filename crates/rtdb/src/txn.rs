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
/// Both access sets live in one buffer, the read set then the write set,
/// read through [`TxnSpec::read_set`] and [`TxnSpec::write_set`]. The
/// buffer is private, so the sets always pass the checks of
/// [`TxnSpec::new`]: only the constructors and [`TxnSpec::set_access`]
/// write them, and each checks them.
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
/// assert_eq!(spec.read_set(), [ObjectId(3)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnSpec {
    /// Transaction identity (stable across deadlock restarts).
    pub id: TxnId,
    /// Time the transaction enters the system, ready to execute.
    pub arrival: SimTime,
    /// Every object accessed, in access order: the read set, then the
    /// write set.
    objects: Vec<ObjectId>,
    /// Length of the read set, the prefix of `objects`.
    reads: u32,
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
        let reads = read_set.len();
        let mut objects = read_set;
        objects.reserve_exact(write_set.len());
        objects.extend_from_slice(&write_set);
        Self::from_objects(id, arrival, objects, reads, deadline, home_site)
    }

    /// Creates a specification from its access sets in one buffer: the
    /// first `reads` objects are the read set, the rest the write set. The
    /// buffer becomes the spec's own, so a caller that sizes it exactly
    /// pays one allocation per transaction.
    ///
    /// # Panics
    ///
    /// Panics as [`TxnSpec::new`] does, and if `reads` exceeds the number
    /// of objects.
    pub fn from_objects(
        id: TxnId,
        arrival: SimTime,
        objects: Vec<ObjectId>,
        reads: usize,
        deadline: SimTime,
        home_site: SiteId,
    ) -> Self {
        assert!(reads <= objects.len(), "read count exceeds the objects");
        let (read_set, write_set) = objects.split_at(reads);
        check_access(read_set, write_set);
        assert!(deadline > arrival, "deadline must be after arrival");
        TxnSpec {
            id,
            arrival,
            reads: read_count(reads),
            objects,
            deadline,
            home_site,
        }
    }

    /// Replaces both access sets, reusing the buffer, so a spec that is
    /// rewritten for every transaction allocates only when it grows.
    ///
    /// # Panics
    ///
    /// Panics if the sets overlap or are both empty.
    pub fn set_access(&mut self, read_set: &[ObjectId], write_set: &[ObjectId]) {
        check_access(read_set, write_set);
        self.objects.clear();
        self.objects.extend_from_slice(read_set);
        self.objects.extend_from_slice(write_set);
        self.reads = read_count(read_set.len());
    }

    /// Objects read but not written, in access order.
    pub fn read_set(&self) -> &[ObjectId] {
        &self.objects[..self.reads as usize]
    }

    /// Objects written (each also read first), in access order.
    pub fn write_set(&self) -> &[ObjectId] {
        &self.objects[self.reads as usize..]
    }

    /// Total number of objects accessed (the paper's "transaction size").
    pub fn size(&self) -> usize {
        self.objects.len()
    }

    /// Read-only or update.
    pub fn kind(&self) -> TxnKind {
        if self.write_set().is_empty() {
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
        self.write_set().contains(&obj)
    }

    /// Whether the transaction reads or writes `obj`.
    pub fn accesses(&self, obj: ObjectId) -> bool {
        self.objects.contains(&obj)
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
        self.read_set()
            .iter()
            .map(|&o| (o, LockMode::Read))
            .chain(self.write_set().iter().map(|&o| (o, LockMode::Write)))
    }
}

/// Checks what every spec's access sets must satisfy.
fn check_access(read_set: &[ObjectId], write_set: &[ObjectId]) {
    assert!(
        !(read_set.is_empty() && write_set.is_empty()),
        "a transaction must access at least one object"
    );
    assert!(
        read_set.iter().all(|o| !write_set.contains(o)),
        "read and write sets must be disjoint (writes imply reads)"
    );
}

fn read_count(reads: usize) -> u32 {
    u32::try_from(reads).expect("read set longer than u32::MAX")
}

impl fmt::Display for TxnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} r{}w{} dl={}",
            self.id,
            self.home_site,
            self.read_set().len(),
            self.write_set().len(),
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

    fn from_objects(objects: Vec<u32>, reads: usize) -> TxnSpec {
        TxnSpec::from_objects(
            TxnId(1),
            SimTime::from_ticks(10),
            objects.into_iter().map(ObjectId).collect(),
            reads,
            SimTime::from_ticks(100),
            SiteId(0),
        )
    }

    #[test]
    fn spec_is_one_buffer_and_a_read_count() {
        // 56 bytes: id, arrival, deadline, the object buffer, the read
        // count and the home site. Two separate sets would make it 80.
        assert!(std::mem::size_of::<TxnSpec>() <= 56);
    }

    #[test]
    fn from_objects_splits_reads_then_writes() {
        let s = from_objects(vec![5, 2, 9], 2);
        assert_eq!(s, spec(vec![5, 2], vec![9]));
        assert_eq!(s.read_set(), [ObjectId(5), ObjectId(2)]);
        assert_eq!(s.write_set(), [ObjectId(9)]);
        assert_eq!(from_objects(vec![4], 1).kind(), TxnKind::ReadOnly);
        assert_eq!(from_objects(vec![4], 0).write_set(), [ObjectId(4)]);
    }

    #[test]
    #[should_panic(expected = "at least one object")]
    fn from_objects_rejects_empty_sets() {
        from_objects(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn from_objects_rejects_overlapping_sets() {
        from_objects(vec![3, 1, 3], 1);
    }

    #[test]
    #[should_panic(expected = "read count exceeds")]
    fn from_objects_rejects_a_read_count_past_the_end() {
        from_objects(vec![3], 2);
    }

    #[test]
    fn set_access_rewrites_both_sets() {
        let mut s = spec(vec![1, 2, 3], vec![4]);
        s.set_access(&[], &[ObjectId(8)]);
        assert_eq!(s, spec(vec![], vec![8]));
        s.set_access(&[ObjectId(6), ObjectId(7)], &[]);
        assert_eq!(s, spec(vec![6, 7], vec![]));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn set_access_rejects_overlapping_sets() {
        spec(vec![1], vec![]).set_access(&[ObjectId(2)], &[ObjectId(2)]);
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
