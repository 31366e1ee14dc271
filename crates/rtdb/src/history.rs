//! Committed-operation histories.
//!
//! A history lists the data operations committed transactions performed,
//! in the real-time order the locks allowed them to happen. The
//! [`monitor`](../../monitor) crate's offline conflict-serialisability
//! checker reads one; it is the reference model for the online oracle,
//! which checks the same property over a simulation's event stream.

use std::fmt;

use serde::{Deserialize, Serialize};
use starlite::SimTime;

use crate::ids::{ObjectId, SiteId, TxnId};

/// The kind of a data operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A read of the object's current value.
    Read,
    /// A committed write installing a new value.
    Write,
}

impl OpKind {
    /// Two operations conflict when they touch the same object and at
    /// least one writes.
    pub fn conflicts(self, other: OpKind) -> bool {
        self == OpKind::Write || other == OpKind::Write
    }
}

/// One data operation performed by a (later committed) transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Operation {
    /// The transaction performing the operation.
    pub txn: TxnId,
    /// The object touched.
    pub object: ObjectId,
    /// Read or write.
    pub kind: OpKind,
    /// Virtual time the operation took effect (lock was held).
    pub at: SimTime,
    /// Logical sequence number, assigned in event-execution order; breaks
    /// ties between operations that share a virtual-time tick (possible
    /// with zero communication delay).
    pub seq: u64,
    /// Site where the copy was touched.
    pub site: SiteId,
}

/// An append-only log of committed operations.
///
/// # Example
///
/// ```
/// use rtdb::{History, Operation, OpKind, TxnId, ObjectId, SiteId};
/// use starlite::SimTime;
///
/// let mut h = History::new();
/// h.record(Operation {
///     txn: TxnId(1),
///     object: ObjectId(0),
///     kind: OpKind::Write,
///     at: SimTime::from_ticks(5),
///     seq: 0,
///     site: SiteId(0),
/// });
/// assert_eq!(h.len(), 1);
/// ```
#[derive(Clone, Default, Serialize, Deserialize)]
pub struct History {
    ops: Vec<Operation>,
}

impl fmt::Debug for History {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("History")
            .field("ops", &self.ops.len())
            .finish()
    }
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Appends one operation.
    pub fn record(&mut self, op: Operation) {
        self.ops.push(op);
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All operations, in recording order.
    pub fn operations(&self) -> &[Operation] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conflicts() {
        assert!(OpKind::Write.conflicts(OpKind::Read));
        assert!(OpKind::Read.conflicts(OpKind::Write));
        assert!(OpKind::Write.conflicts(OpKind::Write));
        assert!(!OpKind::Read.conflicts(OpKind::Read));
    }
}
