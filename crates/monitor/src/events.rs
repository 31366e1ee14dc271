//! The unified structured event model and its built-in sinks.
//!
//! The paper's performance monitor "records the time when each event
//! occurred" per transaction; this module is the typed version of that
//! record. Every layer of the simulation — kernel CPU, lock table,
//! protocol modules, site models, network — reports its happenings as
//! [`SimEvent`]s flowing through a [`starlite::EventSink`]. Two sinks
//! ship here:
//!
//! * [`MetricsSink`] — per-kind counters plus fixed-bucket blocking and
//!   response-time histograms ([`crate::Histogram`]),
//! * [`ChromeTraceSink`] — a Chrome/Perfetto `trace_events` JSON exporter
//!   keyed by simulation time (open the file in `about:tracing` or
//!   <https://ui.perfetto.dev>).
//!
//! Emission is deterministic: models emit inside their event handlers, so
//! the same seed yields the same event sequence byte for byte.

use std::fmt;

use rtdb::{LockEvent, LockMode, ObjectId, SiteId, TxnId};
use starlite::{EventSink, FxHashMap, Priority, SimTime};

use crate::hist::Histogram;

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// Its deadline passed before it committed.
    DeadlineMissed,
    /// It was chosen as a deadlock (or timestamp-rejection) victim and
    /// will restart.
    DeadlockVictim,
    /// Its site crashed (or it depended on a crashed site) and it was
    /// aborted by the fault-recovery machinery.
    SiteFailed,
}

/// What happened, independent of where (see [`SimEvent`] for the where).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEventKind {
    /// A transaction entered the system.
    TxnArrived {
        /// The arriving transaction.
        txn: TxnId,
        /// Its base (scheduling) priority at arrival. Profilers band
        /// transactions by this value; it is not echoed in [`Display`]
        /// output, which predates the field.
        priority: Priority,
    },
    /// A transaction began executing for the first time.
    TxnStarted {
        /// The starting transaction.
        txn: TxnId,
    },
    /// A transaction committed.
    TxnCommitted {
        /// The committing transaction.
        txn: TxnId,
    },
    /// A transaction aborted (terminally or to restart).
    TxnAborted {
        /// The aborting transaction.
        txn: TxnId,
        /// Why it aborted.
        reason: AbortReason,
    },
    /// A lock was requested.
    LockRequested {
        /// Requesting transaction.
        txn: TxnId,
        /// Requested object.
        object: ObjectId,
        /// Requested mode.
        mode: LockMode,
    },
    /// A lock was granted.
    LockGranted {
        /// Transaction now holding the lock.
        txn: TxnId,
        /// The locked object.
        object: ObjectId,
        /// The granted mode.
        mode: LockMode,
    },
    /// A lock request blocked on a conflict.
    LockBlocked {
        /// The waiting transaction.
        txn: TxnId,
        /// The contended object.
        object: ObjectId,
        /// The wanted mode.
        mode: LockMode,
        /// One representative blocking transaction, if known.
        blocker: Option<TxnId>,
    },
    /// A lock was released.
    LockReleased {
        /// The releasing transaction.
        txn: TxnId,
        /// The released object.
        object: ObjectId,
    },
    /// A read lock became a write lock.
    LockUpgraded {
        /// The upgrading transaction.
        txn: TxnId,
        /// The upgraded object.
        object: ObjectId,
    },
    /// A granted write raised the priority ceiling in effect.
    CeilingRaised {
        /// The transaction whose lock raised the ceiling.
        txn: TxnId,
        /// The object whose write lock did it.
        object: ObjectId,
        /// The new ceiling.
        ceiling: Priority,
    },
    /// The priority ceiling protocol refused a request on the ceiling gate
    /// (no direct conflict — admission control).
    CeilingBlocked {
        /// The refused transaction.
        txn: TxnId,
        /// The object it wanted.
        object: ObjectId,
        /// One representative ceiling-holding blocker, if known.
        blocker: Option<TxnId>,
    },
    /// A blocking transaction inherited a waiter's priority.
    PriorityInherited {
        /// The transaction whose effective priority changed.
        txn: TxnId,
        /// Its new effective priority.
        priority: Priority,
    },
    /// A burst started executing on the CPU.
    Dispatched {
        /// The dispatched transaction.
        txn: TxnId,
    },
    /// The running burst was moved back to the ready queue.
    Preempted {
        /// The preempted transaction.
        txn: TxnId,
    },
    /// A message was offered to the network.
    MsgSent {
        /// Sending site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
    },
    /// A message arrived at its destination.
    MsgDelivered {
        /// Sending site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
    },
    /// Deadlock detection (or timestamp rejection) chose a victim.
    DeadlockDetected {
        /// The victim to restart.
        victim: TxnId,
    },
    /// A message was dropped: at send time (an endpoint was down) or in
    /// flight (destination failed before delivery, or the fault plan lost
    /// it on the link).
    MsgDropped {
        /// Sending site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
        /// `true` if the message was lost after a successful send.
        in_flight: bool,
    },
    /// The fault plan delivered a message twice.
    MsgDuplicated {
        /// Sending site.
        from: SiteId,
        /// Destination site.
        to: SiteId,
    },
    /// The site this event is tagged with crashed.
    SiteCrashed,
    /// The site this event is tagged with restarted.
    SiteRecovered,
    /// A lock RPC timed out and was retried with backoff.
    RpcRetried {
        /// The transaction whose RPC was retried.
        txn: TxnId,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
    },
    /// A restarted site caught a replica up via secondary-update replay.
    ReplicaRepaired {
        /// The repaired object.
        object: ObjectId,
    },
    /// A "cannot happen" internal state was reached and recovered from.
    ///
    /// In debug builds these sites also trip a `debug_assert!`; in release
    /// builds this event is the only witness, and the invariant oracle
    /// turns it into a violation.
    ProtocolAnomaly {
        /// The transaction involved, when one is identifiable.
        txn: Option<TxnId>,
        /// A stable description of the impossible state.
        detail: &'static str,
    },
    /// A coordinator began two-phase commit for a transaction.
    TwoPcStarted {
        /// The committing transaction.
        txn: TxnId,
        /// Number of participant sites that were sent a prepare.
        participants: u32,
    },
    /// A participant site voted on a prepare (the event's site is the
    /// voter).
    TwoPcVoted {
        /// The transaction being voted on.
        txn: TxnId,
        /// `true` for a yes (commit) vote.
        yes: bool,
    },
    /// The coordinator reached a commit/abort decision.
    TwoPcDecided {
        /// The decided transaction.
        txn: TxnId,
        /// `true` if the decision was commit.
        commit: bool,
    },
    /// A participant site applied the coordinator's decision (the event's
    /// site is the participant).
    TwoPcResolved {
        /// The resolved transaction.
        txn: TxnId,
        /// The decision the participant applied.
        commit: bool,
    },
    /// A new version of an object was installed at the event's site.
    VersionInstalled {
        /// The written object.
        object: ObjectId,
        /// The installed version number (strictly increasing per copy).
        version: u64,
        /// The writing transaction.
        writer: TxnId,
    },
    /// A read-only snapshot transaction pinned its read timestamp at the
    /// event's site: until it finishes, GC may not evict versions its
    /// pinned reads need.
    SnapshotPinned {
        /// The pinning transaction.
        txn: TxnId,
        /// The pinned read timestamp.
        pin: SimTime,
    },
    /// A snapshot transaction read an object at its pinned timestamp
    /// without taking locks.
    SnapshotRead {
        /// The reading transaction.
        txn: TxnId,
        /// The object read.
        object: ObjectId,
        /// The version number the snapshot observed (0 = the object's
        /// initial, pre-history value).
        version: u64,
    },
    /// Versions of an object were garbage-collected from the event site's
    /// version store (watermark permitting).
    VersionGced {
        /// The object whose chain shrank.
        object: ObjectId,
        /// Versions numbered `..= through` are gone.
        through: u64,
    },
    /// A range latch over a contiguous object interval was acquired.
    RangeLatchAcquired {
        /// The acquiring transaction.
        txn: TxnId,
        /// First object of the interval (inclusive).
        lo: ObjectId,
        /// Last object of the interval (inclusive).
        hi: ObjectId,
        /// The latch mode.
        mode: LockMode,
    },
    /// A range latch request blocked on an incompatible holder.
    RangeLatchBlocked {
        /// The waiting transaction.
        txn: TxnId,
        /// First object of the wanted interval (inclusive).
        lo: ObjectId,
        /// Last object of the wanted interval (inclusive).
        hi: ObjectId,
        /// One representative holding transaction, if known.
        blocker: Option<TxnId>,
    },
    /// All range latches of a transaction were released.
    RangeLatchReleased {
        /// The releasing transaction.
        txn: TxnId,
    },
}

/// What a blocking episode waited on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// A lock conflict (`LockBlocked`).
    Lock,
    /// The ceiling test (`CeilingBlocked`).
    Ceiling,
    /// A range latch (`RangeLatchBlocked`).
    Latch,
}

impl fmt::Display for Via {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Via::Lock => "lock",
            Via::Ceiling => "ceiling",
            Via::Latch => "latch",
        })
    }
}

/// The bound an event puts on its transaction's blocking episode.
///
/// This is the one episode rule of every sink that measures blocked time
/// ([`MetricsSink`], [`crate::ContentionProfiler`],
/// [`crate::TimeSeriesSink`]), so their totals close exactly. An episode
/// opens at the transaction's first `LockBlocked`, `CeilingBlocked` or
/// `RangeLatchBlocked` (a re-block while one is open changes nothing)
/// and closes at its next `LockGranted`, `LockUpgraded`,
/// `RangeLatchAcquired` or `TxnAborted`. An episode still open when the
/// stream ends is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpisodeEdge {
    /// `txn` blocked on `object` (a range latch's first object).
    Open {
        /// The blocked transaction.
        txn: TxnId,
        /// The object waited for.
        object: ObjectId,
        /// The representative blocker the event names, if any.
        blocker: Option<TxnId>,
        /// What the transaction waited on.
        via: Via,
    },
    /// `txn` got what it waited for, or aborted.
    Close {
        /// The transaction whose episode ends.
        txn: TxnId,
    },
}

/// Number of distinct [`SimEventKind`] variants ([`SimEventKind::index`]
/// stays below this).
pub const EVENT_KIND_COUNT: usize = 35;

impl SimEventKind {
    /// Stable display name of the variant (used by trace exporters).
    pub fn name(&self) -> &'static str {
        match self {
            SimEventKind::TxnArrived { .. } => "TxnArrived",
            SimEventKind::TxnStarted { .. } => "TxnStarted",
            SimEventKind::TxnCommitted { .. } => "TxnCommitted",
            SimEventKind::TxnAborted { .. } => "TxnAborted",
            SimEventKind::LockRequested { .. } => "LockRequested",
            SimEventKind::LockGranted { .. } => "LockGranted",
            SimEventKind::LockBlocked { .. } => "LockBlocked",
            SimEventKind::LockReleased { .. } => "LockReleased",
            SimEventKind::LockUpgraded { .. } => "LockUpgraded",
            SimEventKind::CeilingRaised { .. } => "CeilingRaised",
            SimEventKind::CeilingBlocked { .. } => "CeilingBlocked",
            SimEventKind::PriorityInherited { .. } => "PriorityInherited",
            SimEventKind::Dispatched { .. } => "Dispatched",
            SimEventKind::Preempted { .. } => "Preempted",
            SimEventKind::MsgSent { .. } => "MsgSent",
            SimEventKind::MsgDelivered { .. } => "MsgDelivered",
            SimEventKind::DeadlockDetected { .. } => "DeadlockDetected",
            SimEventKind::MsgDropped { .. } => "MsgDropped",
            SimEventKind::MsgDuplicated { .. } => "MsgDuplicated",
            SimEventKind::SiteCrashed => "SiteCrashed",
            SimEventKind::SiteRecovered => "SiteRecovered",
            SimEventKind::RpcRetried { .. } => "RpcRetried",
            SimEventKind::ReplicaRepaired { .. } => "ReplicaRepaired",
            SimEventKind::ProtocolAnomaly { .. } => "ProtocolAnomaly",
            SimEventKind::TwoPcStarted { .. } => "TwoPcStarted",
            SimEventKind::TwoPcVoted { .. } => "TwoPcVoted",
            SimEventKind::TwoPcDecided { .. } => "TwoPcDecided",
            SimEventKind::TwoPcResolved { .. } => "TwoPcResolved",
            SimEventKind::VersionInstalled { .. } => "VersionInstalled",
            SimEventKind::SnapshotPinned { .. } => "SnapshotPinned",
            SimEventKind::SnapshotRead { .. } => "SnapshotRead",
            SimEventKind::VersionGced { .. } => "VersionGced",
            SimEventKind::RangeLatchAcquired { .. } => "RangeLatchAcquired",
            SimEventKind::RangeLatchBlocked { .. } => "RangeLatchBlocked",
            SimEventKind::RangeLatchReleased { .. } => "RangeLatchReleased",
        }
    }

    /// Dense index of the variant, `< EVENT_KIND_COUNT` (counter arrays).
    pub fn index(&self) -> usize {
        match self {
            SimEventKind::TxnArrived { .. } => 0,
            SimEventKind::TxnStarted { .. } => 1,
            SimEventKind::TxnCommitted { .. } => 2,
            SimEventKind::TxnAborted { .. } => 3,
            SimEventKind::LockRequested { .. } => 4,
            SimEventKind::LockGranted { .. } => 5,
            SimEventKind::LockBlocked { .. } => 6,
            SimEventKind::LockReleased { .. } => 7,
            SimEventKind::LockUpgraded { .. } => 8,
            SimEventKind::CeilingRaised { .. } => 9,
            SimEventKind::CeilingBlocked { .. } => 10,
            SimEventKind::PriorityInherited { .. } => 11,
            SimEventKind::Dispatched { .. } => 12,
            SimEventKind::Preempted { .. } => 13,
            SimEventKind::MsgSent { .. } => 14,
            SimEventKind::MsgDelivered { .. } => 15,
            SimEventKind::DeadlockDetected { .. } => 16,
            SimEventKind::MsgDropped { .. } => 17,
            SimEventKind::MsgDuplicated { .. } => 18,
            SimEventKind::SiteCrashed => 19,
            SimEventKind::SiteRecovered => 20,
            SimEventKind::RpcRetried { .. } => 21,
            SimEventKind::ReplicaRepaired { .. } => 22,
            SimEventKind::ProtocolAnomaly { .. } => 23,
            SimEventKind::TwoPcStarted { .. } => 24,
            SimEventKind::TwoPcVoted { .. } => 25,
            SimEventKind::TwoPcDecided { .. } => 26,
            SimEventKind::TwoPcResolved { .. } => 27,
            SimEventKind::VersionInstalled { .. } => 28,
            SimEventKind::SnapshotPinned { .. } => 29,
            SimEventKind::SnapshotRead { .. } => 30,
            SimEventKind::VersionGced { .. } => 31,
            SimEventKind::RangeLatchAcquired { .. } => 32,
            SimEventKind::RangeLatchBlocked { .. } => 33,
            SimEventKind::RangeLatchReleased { .. } => 34,
        }
    }

    /// The transaction this event is about, when there is exactly one.
    pub fn txn(&self) -> Option<TxnId> {
        match *self {
            SimEventKind::TxnArrived { txn, .. }
            | SimEventKind::TxnStarted { txn }
            | SimEventKind::TxnCommitted { txn }
            | SimEventKind::TxnAborted { txn, .. }
            | SimEventKind::LockRequested { txn, .. }
            | SimEventKind::LockGranted { txn, .. }
            | SimEventKind::LockBlocked { txn, .. }
            | SimEventKind::LockReleased { txn, .. }
            | SimEventKind::LockUpgraded { txn, .. }
            | SimEventKind::CeilingRaised { txn, .. }
            | SimEventKind::CeilingBlocked { txn, .. }
            | SimEventKind::PriorityInherited { txn, .. }
            | SimEventKind::Dispatched { txn }
            | SimEventKind::Preempted { txn }
            | SimEventKind::RpcRetried { txn, .. }
            | SimEventKind::TwoPcStarted { txn, .. }
            | SimEventKind::TwoPcVoted { txn, .. }
            | SimEventKind::TwoPcDecided { txn, .. }
            | SimEventKind::TwoPcResolved { txn, .. }
            | SimEventKind::SnapshotPinned { txn, .. }
            | SimEventKind::SnapshotRead { txn, .. }
            | SimEventKind::RangeLatchAcquired { txn, .. }
            | SimEventKind::RangeLatchBlocked { txn, .. }
            | SimEventKind::RangeLatchReleased { txn } => Some(txn),
            SimEventKind::DeadlockDetected { victim } => Some(victim),
            SimEventKind::ProtocolAnomaly { txn, .. } => txn,
            SimEventKind::VersionInstalled { writer, .. } => Some(writer),
            SimEventKind::MsgSent { .. }
            | SimEventKind::MsgDelivered { .. }
            | SimEventKind::MsgDropped { .. }
            | SimEventKind::MsgDuplicated { .. }
            | SimEventKind::SiteCrashed
            | SimEventKind::SiteRecovered
            | SimEventKind::ReplicaRepaired { .. }
            | SimEventKind::VersionGced { .. } => None,
        }
    }

    /// The blocking-episode bound this event marks, if any (see
    /// [`EpisodeEdge`]).
    pub fn episode_edge(&self) -> Option<EpisodeEdge> {
        let open = |txn, object, blocker, via| EpisodeEdge::Open {
            txn,
            object,
            blocker,
            via,
        };
        match *self {
            SimEventKind::LockBlocked {
                txn,
                object,
                blocker,
                ..
            } => Some(open(txn, object, blocker, Via::Lock)),
            SimEventKind::CeilingBlocked {
                txn,
                object,
                blocker,
            } => Some(open(txn, object, blocker, Via::Ceiling)),
            SimEventKind::RangeLatchBlocked {
                txn, lo, blocker, ..
            } => Some(open(txn, lo, blocker, Via::Latch)),
            SimEventKind::LockGranted { txn, .. }
            | SimEventKind::LockUpgraded { txn, .. }
            | SimEventKind::RangeLatchAcquired { txn, .. }
            | SimEventKind::TxnAborted { txn, .. } => Some(EpisodeEdge::Close { txn }),
            _ => None,
        }
    }
}

fn mode_letter(mode: LockMode) -> char {
    match mode {
        LockMode::Read => 'R',
        LockMode::Write => 'W',
    }
}

impl fmt::Display for SimEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SimEventKind::TxnArrived { txn, .. }
            | SimEventKind::TxnStarted { txn }
            | SimEventKind::TxnCommitted { txn }
            | SimEventKind::Dispatched { txn }
            | SimEventKind::Preempted { txn } => write!(f, "{} {txn}", self.name()),
            SimEventKind::TxnAborted { txn, reason } => {
                write!(f, "TxnAborted {txn} {reason:?}")
            }
            SimEventKind::LockRequested { txn, object, mode }
            | SimEventKind::LockGranted { txn, object, mode } => {
                write!(f, "{} {txn} {object}:{}", self.name(), mode_letter(mode))
            }
            SimEventKind::LockBlocked {
                txn,
                object,
                mode,
                blocker,
            } => {
                write!(f, "LockBlocked {txn} {object}:{}", mode_letter(mode))?;
                if let Some(b) = blocker {
                    write!(f, " by {b}")?;
                }
                Ok(())
            }
            SimEventKind::LockReleased { txn, object }
            | SimEventKind::LockUpgraded { txn, object } => {
                write!(f, "{} {txn} {object}", self.name())
            }
            SimEventKind::CeilingRaised {
                txn,
                object,
                ceiling,
            } => write!(f, "CeilingRaised {txn} {object} to {}", ceiling.level()),
            SimEventKind::CeilingBlocked {
                txn,
                object,
                blocker,
            } => {
                write!(f, "CeilingBlocked {txn} {object}")?;
                if let Some(b) = blocker {
                    write!(f, " by {b}")?;
                }
                Ok(())
            }
            SimEventKind::PriorityInherited { txn, priority } => {
                write!(f, "PriorityInherited {txn} to {}", priority.level())
            }
            SimEventKind::MsgSent { from, to }
            | SimEventKind::MsgDelivered { from, to }
            | SimEventKind::MsgDuplicated { from, to } => {
                write!(f, "{} {from}->{to}", self.name())
            }
            SimEventKind::MsgDropped {
                from,
                to,
                in_flight,
            } => {
                let phase = if in_flight { "in flight" } else { "at send" };
                write!(f, "MsgDropped {from}->{to} {phase}")
            }
            SimEventKind::DeadlockDetected { victim } => {
                write!(f, "DeadlockDetected victim {victim}")
            }
            SimEventKind::SiteCrashed | SimEventKind::SiteRecovered => {
                write!(f, "{}", self.name())
            }
            SimEventKind::RpcRetried { txn, attempt } => {
                write!(f, "RpcRetried {txn} attempt {attempt}")
            }
            SimEventKind::ReplicaRepaired { object } => {
                write!(f, "ReplicaRepaired {object}")
            }
            SimEventKind::ProtocolAnomaly { txn, detail } => {
                write!(f, "ProtocolAnomaly")?;
                if let Some(t) = txn {
                    write!(f, " {t}")?;
                }
                write!(f, ": {detail}")
            }
            SimEventKind::TwoPcStarted { txn, participants } => {
                write!(f, "TwoPcStarted {txn} participants {participants}")
            }
            SimEventKind::TwoPcVoted { txn, yes } => {
                write!(f, "TwoPcVoted {txn} {}", if yes { "yes" } else { "no" })
            }
            SimEventKind::TwoPcDecided { txn, commit } => {
                write!(
                    f,
                    "TwoPcDecided {txn} {}",
                    if commit { "commit" } else { "abort" }
                )
            }
            SimEventKind::TwoPcResolved { txn, commit } => {
                write!(
                    f,
                    "TwoPcResolved {txn} {}",
                    if commit { "commit" } else { "abort" }
                )
            }
            SimEventKind::VersionInstalled {
                object,
                version,
                writer,
            } => {
                write!(f, "VersionInstalled {object} v{version} by {writer}")
            }
            SimEventKind::SnapshotPinned { txn, pin } => {
                write!(f, "SnapshotPinned {txn} at {}", pin.ticks())
            }
            SimEventKind::SnapshotRead {
                txn,
                object,
                version,
            } => {
                write!(f, "SnapshotRead {txn} {object} v{version}")
            }
            SimEventKind::VersionGced { object, through } => {
                write!(f, "VersionGced {object} through v{through}")
            }
            SimEventKind::RangeLatchAcquired { txn, lo, hi, mode } => {
                write!(
                    f,
                    "RangeLatchAcquired {txn} {lo}..{hi}:{}",
                    mode_letter(mode)
                )
            }
            SimEventKind::RangeLatchBlocked {
                txn,
                lo,
                hi,
                blocker,
            } => {
                write!(f, "RangeLatchBlocked {txn} {lo}..{hi}")?;
                if let Some(b) = blocker {
                    write!(f, " by {b}")?;
                }
                Ok(())
            }
            SimEventKind::RangeLatchReleased { txn } => {
                write!(f, "RangeLatchReleased {txn}")
            }
        }
    }
}

impl From<LockEvent> for SimEventKind {
    fn from(ev: LockEvent) -> Self {
        match ev {
            LockEvent::Requested { txn, object, mode } => {
                SimEventKind::LockRequested { txn, object, mode }
            }
            LockEvent::Granted { txn, object, mode } => {
                SimEventKind::LockGranted { txn, object, mode }
            }
            LockEvent::Blocked {
                txn,
                object,
                mode,
                blocker,
            } => SimEventKind::LockBlocked {
                txn,
                object,
                mode,
                blocker,
            },
            LockEvent::Released { txn, object } => SimEventKind::LockReleased { txn, object },
            LockEvent::Upgraded { txn, object } => SimEventKind::LockUpgraded { txn, object },
        }
    }
}

/// One structured simulation event: what happened ([`SimEventKind`]) and
/// at which site. Single-site simulations use site 0 throughout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimEvent {
    /// The site the event happened at.
    pub site: SiteId,
    /// What happened.
    pub kind: SimEventKind,
}

impl SimEvent {
    /// Convenience constructor.
    pub fn new(site: SiteId, kind: SimEventKind) -> Self {
        SimEvent { site, kind }
    }
}

impl fmt::Display for SimEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.site, self.kind)
    }
}

/// Counting sink: per-kind event counters plus blocking-episode and
/// response-time histograms.
///
/// Each blocking episode (see [`EpisodeEdge`]) lands its duration in
/// [`MetricsSink::blocking`]. Response times (`TxnArrived` →
/// `TxnCommitted`) land in [`MetricsSink::response`].
#[derive(Debug, Clone)]
pub struct MetricsSink {
    counts: [u64; EVENT_KIND_COUNT],
    total: u64,
    blocking: Histogram,
    response: Histogram,
    blocked_since: FxHashMap<TxnId, SimTime>,
    arrived_at: FxHashMap<TxnId, SimTime>,
}

// Derived `Default` needs `[u64; N]: Default`, which the standard library
// only provides up to N = 32.
impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink {
            counts: [0; EVENT_KIND_COUNT],
            total: 0,
            blocking: Histogram::default(),
            response: Histogram::default(),
            blocked_since: FxHashMap::default(),
            arrived_at: FxHashMap::default(),
        }
    }
}

impl MetricsSink {
    /// Creates an empty metrics sink.
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// Total events received.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events received of the given kind (by [`SimEventKind::index`]).
    pub fn count_of(&self, kind_index: usize) -> u64 {
        self.counts[kind_index]
    }

    /// The per-kind counter array, indexed by [`SimEventKind::index`].
    pub fn counts(&self) -> &[u64; EVENT_KIND_COUNT] {
        &self.counts
    }

    /// Histogram of blocking-episode durations, in ticks.
    pub fn blocking(&self) -> &Histogram {
        &self.blocking
    }

    /// Histogram of committed response times, in ticks.
    pub fn response(&self) -> &Histogram {
        &self.response
    }
}

impl EventSink<SimEvent> for MetricsSink {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        self.counts[event.kind.index()] += 1;
        self.total += 1;
        match event.kind {
            SimEventKind::TxnArrived { txn, .. } => {
                self.arrived_at.insert(txn, at);
            }
            SimEventKind::TxnCommitted { txn } => {
                if let Some(start) = self.arrived_at.remove(&txn) {
                    // Saturating: a crafted trace with non-monotonic
                    // timestamps must degrade gracefully, not panic.
                    self.response.record(at.saturating_since(start).ticks());
                }
            }
            _ => {}
        }
        match event.kind.episode_edge() {
            Some(EpisodeEdge::Open { txn, .. }) => {
                self.blocked_since.entry(txn).or_insert(at);
            }
            Some(EpisodeEdge::Close { txn }) => {
                if let Some(since) = self.blocked_since.remove(&txn) {
                    self.blocking.record(at.saturating_since(since).ticks());
                }
            }
            None => {}
        }
    }
}

pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Chrome/Perfetto `trace_events` exporter.
///
/// Each simulation event becomes one instant event (`"ph": "i"`) with
/// `ts` in simulation ticks, `pid` the site and `tid` the transaction
/// (0 for site-level events such as message sends). The output is plain
/// deterministic text: the same event sequence formats to the same bytes.
/// Load the resulting file in `chrome://tracing` or
/// <https://ui.perfetto.dev>.
#[derive(Debug, Clone)]
pub struct ChromeTraceSink {
    out: String,
    count: u64,
}

impl ChromeTraceSink {
    /// Creates an exporter with an empty trace.
    pub fn new() -> Self {
        ChromeTraceSink {
            out: String::from("[\n"),
            count: 0,
        }
    }

    /// Number of events exported so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finishes the JSON document and returns it.
    pub fn finish(mut self) -> String {
        if self.count > 0 {
            self.out.push('\n');
        }
        self.out.push_str("]\n");
        self.out
    }
}

impl Default for ChromeTraceSink {
    fn default() -> Self {
        ChromeTraceSink::new()
    }
}

impl ChromeTraceSink {
    /// Kind-specific structured `args` fields, appended after `detail`.
    ///
    /// The fault and 2PC event kinds (PRs 4–5) carry cross-site structure
    /// — link endpoints, retry attempts, vote outcomes — that Perfetto
    /// queries need as typed values, not prose. Single-site kinds keep a
    /// `detail`-only args object, so single-site trace goldens are
    /// unaffected.
    fn push_structured_args(out: &mut String, site: SiteId, kind: &SimEventKind) {
        match *kind {
            SimEventKind::MsgSent { from, to }
            | SimEventKind::MsgDelivered { from, to }
            | SimEventKind::MsgDuplicated { from, to } => {
                out.push_str(&format!(", \"from\": {}, \"to\": {}", from.0, to.0));
            }
            SimEventKind::MsgDropped {
                from,
                to,
                in_flight,
            } => {
                out.push_str(&format!(
                    ", \"from\": {}, \"to\": {}, \"in_flight\": {in_flight}",
                    from.0, to.0
                ));
            }
            SimEventKind::SiteCrashed | SimEventKind::SiteRecovered => {
                out.push_str(&format!(", \"site\": {}", site.0));
            }
            SimEventKind::RpcRetried { attempt, .. } => {
                out.push_str(&format!(", \"attempt\": {attempt}"));
            }
            SimEventKind::ReplicaRepaired { object } => {
                out.push_str(&format!(", \"object\": {}", object.0));
            }
            SimEventKind::ProtocolAnomaly { detail, .. } => {
                out.push_str(", \"anomaly\": ");
                push_json_string(out, detail);
            }
            SimEventKind::TwoPcStarted { participants, .. } => {
                out.push_str(&format!(", \"participants\": {participants}"));
            }
            SimEventKind::TwoPcVoted { yes, .. } => {
                out.push_str(&format!(", \"yes\": {yes}"));
            }
            SimEventKind::TwoPcDecided { commit, .. }
            | SimEventKind::TwoPcResolved { commit, .. } => {
                out.push_str(&format!(", \"commit\": {commit}"));
            }
            SimEventKind::VersionInstalled {
                object, version, ..
            } => {
                out.push_str(&format!(
                    ", \"object\": {}, \"version\": {version}",
                    object.0
                ));
            }
            SimEventKind::SnapshotPinned { pin, .. } => {
                out.push_str(&format!(", \"pin\": {}", pin.ticks()));
            }
            SimEventKind::SnapshotRead {
                object, version, ..
            } => {
                out.push_str(&format!(
                    ", \"object\": {}, \"version\": {version}",
                    object.0
                ));
            }
            SimEventKind::VersionGced { object, through } => {
                out.push_str(&format!(
                    ", \"object\": {}, \"through\": {through}",
                    object.0
                ));
            }
            SimEventKind::RangeLatchAcquired { lo, hi, .. }
            | SimEventKind::RangeLatchBlocked { lo, hi, .. } => {
                out.push_str(&format!(", \"lo\": {}, \"hi\": {}", lo.0, hi.0));
            }
            _ => {}
        }
    }
}

impl EventSink<SimEvent> for ChromeTraceSink {
    fn emit(&mut self, at: SimTime, event: SimEvent) {
        if self.count > 0 {
            self.out.push_str(",\n");
        }
        self.count += 1;
        let tid = event.kind.txn().map(|t| t.0).unwrap_or(0);
        self.out.push_str("{\"name\": ");
        push_json_string(&mut self.out, event.kind.name());
        self.out.push_str(&format!(
            ", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"detail\": ",
            at.ticks(),
            event.site.0,
            tid
        ));
        push_json_string(&mut self.out, &event.kind.to_string());
        Self::push_structured_args(&mut self.out, event.site, &event.kind);
        self.out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn at_site(kind: SimEventKind) -> SimEvent {
        SimEvent::new(SiteId(0), kind)
    }

    #[test]
    fn metrics_sink_counts_every_event() {
        let mut sink = MetricsSink::new();
        let events = [
            SimEventKind::TxnArrived {
                txn: TxnId(1),
                priority: Priority::new(3),
            },
            SimEventKind::TxnStarted { txn: TxnId(1) },
            SimEventKind::LockRequested {
                txn: TxnId(1),
                object: ObjectId(4),
                mode: LockMode::Write,
            },
            SimEventKind::LockGranted {
                txn: TxnId(1),
                object: ObjectId(4),
                mode: LockMode::Write,
            },
            SimEventKind::TxnCommitted { txn: TxnId(1) },
        ];
        for (i, kind) in events.iter().enumerate() {
            sink.emit(t(i as u64 * 10), at_site(*kind));
        }
        assert_eq!(sink.total(), 5);
        assert_eq!(sink.counts().iter().sum::<u64>(), 5);
        // Response time recorded: arrived@0, committed@40.
        assert_eq!(sink.response().count(), 1);
        assert_eq!(sink.response().max(), 40);
    }

    #[test]
    fn metrics_sink_measures_blocking_episodes() {
        let mut sink = MetricsSink::new();
        sink.emit(
            t(10),
            at_site(SimEventKind::LockBlocked {
                txn: TxnId(7),
                object: ObjectId(4),
                mode: LockMode::Write,
                blocker: Some(TxnId(2)),
            }),
        );
        sink.emit(
            t(51),
            at_site(SimEventKind::LockGranted {
                txn: TxnId(7),
                object: ObjectId(4),
                mode: LockMode::Write,
            }),
        );
        assert_eq!(sink.blocking().count(), 1);
        assert_eq!(sink.blocking().max(), 41);
    }

    #[test]
    fn chrome_trace_is_valid_and_deterministic() {
        let make = || {
            let mut sink = ChromeTraceSink::new();
            sink.emit(
                t(5),
                at_site(SimEventKind::TxnArrived {
                    txn: TxnId(1),
                    priority: Priority::new(3),
                }),
            );
            sink.emit(
                t(9),
                at_site(SimEventKind::MsgSent {
                    from: SiteId(0),
                    to: SiteId(1),
                }),
            );
            sink.finish()
        };
        let a = make();
        assert_eq!(a, make());
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\"name\": \"TxnArrived\""));
        assert!(a.contains("\"ts\": 5"));
        assert!(a.contains("\"tid\": 1"));
        // Message events attach to the site track, not a transaction.
        assert!(a.contains("\"tid\": 0"));
    }

    #[test]
    fn empty_chrome_trace_is_an_empty_array() {
        assert_eq!(ChromeTraceSink::new().finish(), "[\n]\n");
    }

    #[test]
    fn chrome_trace_emits_fault_and_two_pc_kinds_with_structured_args() {
        let mut sink = ChromeTraceSink::new();
        let kinds = [
            SimEventKind::MsgDropped {
                from: SiteId(0),
                to: SiteId(2),
                in_flight: true,
            },
            SimEventKind::MsgDuplicated {
                from: SiteId(1),
                to: SiteId(0),
            },
            SimEventKind::SiteCrashed,
            SimEventKind::SiteRecovered,
            SimEventKind::RpcRetried {
                txn: TxnId(9),
                attempt: 3,
            },
            SimEventKind::ReplicaRepaired {
                object: ObjectId(7),
            },
            SimEventKind::ProtocolAnomaly {
                txn: Some(TxnId(4)),
                detail: "example",
            },
            SimEventKind::TwoPcStarted {
                txn: TxnId(5),
                participants: 2,
            },
            SimEventKind::TwoPcVoted {
                txn: TxnId(5),
                yes: true,
            },
            SimEventKind::TwoPcDecided {
                txn: TxnId(5),
                commit: false,
            },
            SimEventKind::TwoPcResolved {
                txn: TxnId(5),
                commit: false,
            },
            SimEventKind::VersionInstalled {
                object: ObjectId(7),
                version: 12,
                writer: TxnId(5),
            },
        ];
        for (i, kind) in kinds.iter().enumerate() {
            sink.emit(t(i as u64), SimEvent::new(SiteId(2), *kind));
        }
        assert_eq!(sink.count(), kinds.len() as u64);
        let out = sink.finish();
        // Every kind appears as an instant event on the site track...
        for kind in &kinds {
            assert!(
                out.contains(&format!("\"name\": \"{}\"", kind.name())),
                "{}",
                kind.name()
            );
        }
        // ...with its cross-site structure as typed args, not just prose.
        assert!(out.contains("\"from\": 0, \"to\": 2, \"in_flight\": true"));
        assert!(out.contains("\"site\": 2"));
        assert!(out.contains("\"attempt\": 3"));
        assert!(out.contains("\"anomaly\": \"example\""));
        assert!(out.contains("\"participants\": 2"));
        assert!(out.contains("\"yes\": true"));
        assert!(out.contains("\"commit\": false"));
        assert!(out.contains("\"object\": 7, \"version\": 12"));
    }
}
