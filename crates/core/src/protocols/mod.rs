//! The synchronisation protocols under evaluation.
//!
//! Every protocol implements [`LockProtocol`], the interface the
//! transaction manager drives. The modular boundary mirrors the paper's
//! prototyping environment, where alternate implementations of a server
//! are substituted without touching the rest of the system: the simulators
//! in [`crate::single_site`] and [`crate::distributed`] are
//! protocol-agnostic.
//!
//! The two-phase-locking family — the paper's `L` and `P` and the `PI`
//! inheritance baseline — is one state machine,
//! [`TwoPhaseLockingProtocol`]; its constructor picks the queue
//! discipline and whether priority inheritance runs. The ceiling
//! protocol and timestamp ordering each have their own.

pub mod ceiling;
mod inheritance;
pub mod timestamp;
pub mod tpl;

use std::fmt;

use monitor::SimEventKind;
use rtdb::{LockMode, ObjectId, TxnId, TxnSpec};
use starlite::Priority;

use crate::config::{ProtocolKind, VictimPolicy};

pub use ceiling::PriorityCeilingProtocol;
pub use timestamp::TimestampOrderingProtocol;
pub use tpl::TwoPhaseLockingProtocol;

/// Outcome of one lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock is held; the transaction proceeds.
    Granted,
    /// The transaction is blocked. `blocker` is the transaction charged
    /// with the block (for the ceiling protocol, the holder of the lock
    /// with the highest rw-priority ceiling).
    Blocked {
        /// The transaction this one now waits for, if identifiable.
        blocker: Option<TxnId>,
    },
    /// The request closed a cycle in the waits-for graph; `victim` must be
    /// aborted (the requester stays blocked unless it is the victim).
    Deadlock {
        /// Transaction chosen for abort by the victim policy.
        victim: TxnId,
    },
}

/// A request plus the priority-inheritance side effects it triggered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestResult {
    /// Grant / block / deadlock.
    pub outcome: RequestOutcome,
    /// Effective-priority changes (transaction, new priority) the scheduler
    /// must apply (priority inheritance and its revocation).
    pub priority_updates: Vec<(TxnId, Priority)>,
}

impl RequestResult {
    /// A plain grant with no side effects.
    pub fn granted() -> Self {
        RequestResult {
            outcome: RequestOutcome::Granted,
            priority_updates: Vec::new(),
        }
    }
}

/// A transaction resumed by a release: its pending request is now granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wakeup {
    /// The resumed transaction.
    pub txn: TxnId,
    /// The object it was waiting for.
    pub object: ObjectId,
    /// The granted mode.
    pub mode: LockMode,
}

/// Result of releasing a transaction's locks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReleaseResult {
    /// Requests granted by this release, in grant order.
    pub wakeups: Vec<Wakeup>,
    /// Effective-priority changes to apply (inheritance revocation).
    pub priority_updates: Vec<(TxnId, Priority)>,
}

/// Why a transaction's locks are being released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseReason {
    /// The transaction committed or was aborted at its deadline; it leaves
    /// the system and stops contributing to priority ceilings.
    Finished,
    /// The transaction was a deadlock victim and will restart; it stays in
    /// the active set (its access sets are unchanged).
    Restart,
}

/// The common interface of all synchronisation protocols.
///
/// The transaction manager calls:
///
/// 1. [`register`](LockProtocol::register) when a transaction arrives
///    (the ceiling protocol derives per-object priority ceilings from the
///    declared access sets of *active* transactions);
/// 2. [`request`](LockProtocol::request) before each data access;
/// 3. [`release_all`](LockProtocol::release_all) at commit or abort —
///    two-phase locking with all locks held until completion, as in the
///    paper; [`ReleaseReason::Finished`] also retires the transaction
///    from the active set.
pub trait LockProtocol: fmt::Debug {
    /// Admits an arriving transaction into the active set.
    fn register(&mut self, spec: &TxnSpec);

    /// Requests `mode` on `object` for `txn`.
    fn request(&mut self, txn: TxnId, object: ObjectId, mode: LockMode) -> RequestResult;

    /// Releases all locks held or awaited by `txn`; with
    /// [`ReleaseReason::Finished`] the transaction also leaves the active
    /// set (which may lower priority ceilings and wake further waiters).
    fn release_all(&mut self, txn: TxnId, reason: ReleaseReason) -> ReleaseResult;

    /// The transaction's current effective priority (base priority plus
    /// inheritance).
    fn effective_priority(&self, txn: TxnId) -> Priority;

    /// The transaction's base (assigned) priority.
    fn base_priority(&self, txn: TxnId) -> Priority;

    /// Whether `txn` is currently blocked inside the protocol.
    fn is_blocked(&self, txn: TxnId) -> bool;

    /// Human-readable protocol name.
    fn name(&self) -> &'static str;

    /// Deadlocks detected so far (zero for deadlock-free protocols).
    fn deadlock_count(&self) -> u64 {
        0
    }

    /// Requests denied by a ceiling test so far (zero for non-ceiling
    /// protocols).
    fn ceiling_block_count(&self) -> u64 {
        0
    }

    /// Validates internal invariants (test hook; default no-op).
    fn assert_consistent(&self) {}

    /// Asserts the protocol is completely idle: no lock held, no waiter
    /// queued, no transaction registered — the state every drained run
    /// must leave behind. A leftover entry means a release was lost.
    ///
    /// # Panics
    ///
    /// Panics if any lock, waiter or registration remains.
    fn assert_idle(&self);

    /// Turns structured event journalling on or off (see
    /// [`drain_events`](LockProtocol::drain_events)). Protocols that do not
    /// journal ignore this. Off by default; with tracing off the hot paths
    /// pay at most one predictable branch.
    fn set_tracing(&mut self, _on: bool) {}

    /// Moves journalled [`SimEventKind`]s into `out` (appending), oldest
    /// first. The protocol has no notion of simulation time or site; the
    /// simulator drains immediately after each protocol call, stamps the
    /// events with the current instant and site, and forwards them to its
    /// event sink. Default: no events.
    fn drain_events(&mut self, _out: &mut Vec<SimEventKind>) {}
}

/// Instantiates the protocol for `kind`. The box is `Send` so a live
/// lock manager can move it behind a mutex shared by worker threads.
///
/// # Example
///
/// ```
/// use rtlock::protocols::make_protocol;
/// use rtlock::{ProtocolKind, VictimPolicy};
///
/// let p = make_protocol(ProtocolKind::PriorityCeiling, VictimPolicy::LowestPriority);
/// assert_eq!(p.name(), "priority-ceiling");
/// ```
pub fn make_protocol(
    kind: ProtocolKind,
    victim_policy: VictimPolicy,
) -> Box<dyn LockProtocol + Send> {
    match kind {
        ProtocolKind::TwoPhaseLocking => {
            Box::new(TwoPhaseLockingProtocol::without_priority(victim_policy))
        }
        ProtocolKind::TwoPhaseLockingPriority => {
            Box::new(TwoPhaseLockingProtocol::with_priority(victim_policy))
        }
        ProtocolKind::PriorityInheritance => {
            Box::new(TwoPhaseLockingProtocol::with_inheritance(victim_policy))
        }
        ProtocolKind::PriorityCeiling => Box::new(PriorityCeilingProtocol::read_write()),
        ProtocolKind::PriorityCeilingExclusive => Box::new(PriorityCeilingProtocol::exclusive()),
        ProtocolKind::TimestampOrdering => Box::new(TimestampOrderingProtocol::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in ProtocolKind::all() {
            let p = make_protocol(kind, VictimPolicy::LowestPriority);
            assert!(!p.name().is_empty());
        }
    }
}
