//! # rtdb — real-time database substrate
//!
//! The database layer under the locking protocols: everything the paper's
//! prototyping environment calls the *Resource Manager* plus the shared
//! transaction model used by every other crate.
//!
//! * [`ids`] — newtype identifiers for transactions, data objects, and sites.
//! * [`object`] — data objects carrying real values and versions, and the
//!   per-site [`object::ObjectStore`].
//! * [`catalog`] — database configuration: size, replication map, primary
//!   copies (the paper's "database configuration" menu).
//! * [`lock`] — a read/write lock table with FIFO or priority wait queues.
//! * [`latch`] — interval (range) latches so scans coexist with point
//!   writes without per-object locks.
//! * [`wfg`] — the waits-for graph and deadlock (cycle) detection.
//! * [`txn`] — transaction specifications, runtime state and statistics.
//! * [`commit`] — two-phase commit coordinator / participant state machines.
//!
//! Data objects carry actual `u64` values so correctness (not just timing)
//! of the protocols is testable: committed histories must be conflict
//! serialisable, and replicated reads must observe committed versions.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod commit;
pub mod ids;
pub mod latch;
pub mod lock;
pub mod object;
pub mod scratch;
pub mod small;
pub mod txn;
pub mod wfg;

pub use catalog::{Catalog, Placement};
pub use commit::{Coordinator, CoordinatorAction, Participant, ParticipantAction, Vote};
pub use ids::{ObjectId, SiteId, TxnId};
pub use latch::{GrantedLatch, LatchOutcome, RangeLatchManager};
pub use lock::{GrantedLock, LockEvent, LockMode, LockOutcome, LockTable, QueuePolicy};
pub use object::{DataObject, ObjectStore};
pub use scratch::GranuleScratch;
pub use small::InlineVec;
pub use txn::{TxnKind, TxnSpec};
pub use wfg::WaitsForGraph;
