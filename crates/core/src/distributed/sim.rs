//! The distributed simulation model for both ceiling architectures.
//!
//! One event-driven model hosts the per-site CPUs, replicated stores, the
//! simulated network, and either a single global priority-ceiling instance
//! (at site 0) or one instance per site. Message flows:
//!
//! **Global manager** (site 0):
//!
//! ```text
//! home ── RegisterTxn ──▶ manager            (at arrival)
//! home ── LockRequest ──▶ manager ── LockGrant / LockPending ──▶ home
//! manager ── LockGrant ──▶ home              (wakeup after a release)
//! manager ── PriorityUpdate ──▶ home         (priority inheritance)
//! home ── RemoteRead ──▶ primary ── RemoteReadReply ──▶ home
//! home ── Prepare ──▶ participants ── VoteMsg ──▶ home
//! home ── Decision ──▶ participants ── AckMsg ──▶ home   (writes apply here)
//! home ── ReleaseTxn ──▶ manager             (commit or abort)
//! ```
//!
//! **Local replicated**: no messages on the critical path; after a local
//! commit each written object is propagated with `SecondaryUpdate` to
//! every other site, where a short *system transaction* write-locks the
//! replica through the local ceiling manager and installs the version
//! (stale versions are discarded, preserving the single-writer order).
//!
//! A transaction whose deadline expires after its commit decision has been
//! broadcast cannot be retracted: it completes two-phase commit, its
//! writes stand, and it is *counted as deadline-missing* — the
//! hard-deadline accounting the paper uses.
//!
//! # Fault injection & recovery
//!
//! A [`netsim::FaultPlan`] makes the network lossy (per-link message loss,
//! duplication, delay jitter) and schedules site crash/restart windows.
//! Fault handling is *strictly opt-in*: with a no-op plan and no
//! `fail_site`, none of the recovery machinery schedules events or sends
//! messages, so fault-free runs are byte-identical to the pre-fault model.
//! When faults are active:
//!
//! * an in-flight message is dropped if its destination is down at
//!   *delivery* time (and at send time if either endpoint is down);
//! * timed-out lock RPCs are retried with exponential backoff, up to
//!   [`DistributedConfig::max_rpc_retries`] times, re-sending the
//!   registration in case it was the message that was lost;
//! * a coordinator whose votes do not all arrive aborts the transaction
//!   cleanly ([`monitor::AbortReason::SiteFailed`]); lost commit
//!   decisions are retransmitted until acknowledged (bounded);
//! * lock releases towards the manager are acknowledged and retransmitted,
//!   escalating to a direct failure-detector release so no transaction can
//!   leave locks behind;
//! * a crashing site aborts its resident transactions
//!   (counted in `RunStats::faulted`) and loses its protocol state; on restart
//!   a replicated site catches its replica up by asking every peer to
//!   replay the newest version of each object it is primary for
//!   (anti-entropy via the ordinary system-transaction apply path).

use std::collections::VecDeque;
use std::fmt;

use monitor::{AbortReason, SimEvent, SimEventKind, StatsFold};
use netsim::{CallId, CallTable, NetJournalEntry, Network, SendOutcome};
use rtdb::{
    Catalog, Coordinator, CoordinatorAction, LockMode, ObjectId, Participant, ParticipantAction,
    Placement, SiteId, TxnId, TxnSpec, Vote,
};
use starlite::{
    Completion, Cpu, CpuJournalEntry, CpuJournalKind, CpuPolicy, CpuToken, Engine, EventId,
    EventSink, FxHashMap, FxHashSet, Model, NullSink, Priority, Removed, Scheduler, SimTime,
};
use workload::{Generator, WorkloadSpec};

use crate::distributed::{CeilingArchitecture, DistributedConfig};
use crate::mvcc::{SnapshotId, VersionStore};
use crate::protocols::{
    LockProtocol, PriorityCeilingProtocol, ReleaseReason, RequestOutcome, Wakeup,
};
use crate::report::{RunReport, TemporalStats};

/// System transactions (secondary-update appliers) get ids in a disjoint
/// range so they can never collide with workload transactions.
const SYSTEM_TXN_BASE: u64 = 1 << 48;

/// Commit-decision retransmissions before the coordinator stops waiting
/// for acknowledgements and finalizes anyway (fault mode only).
const MAX_ACK_RETRIES: u32 = 8;

/// `ReleaseTxn` retransmissions before the failure detector releases the
/// locks at the manager directly (fault mode only).
const MAX_RELEASE_RETRIES: u32 = 8;

/// Cap on the exponential-backoff shift for retried lock RPCs.
const MAX_BACKOFF_SHIFT: u32 = 6;

#[derive(Debug, Clone)]
enum Message {
    RegisterTxn(TxnSpec),
    LockRequest {
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        call: CallId,
        from: SiteId,
    },
    LockPending {
        txn: TxnId,
        call: CallId,
        lower_priority_blocker: Option<TxnId>,
    },
    LockGrant {
        txn: TxnId,
        call: Option<CallId>,
    },
    PriorityUpdate {
        txn: TxnId,
        priority: Priority,
    },
    ReleaseTxn {
        txn: TxnId,
    },
    RemoteRead {
        txn: TxnId,
        from: SiteId,
    },
    RemoteReadReply {
        txn: TxnId,
    },
    Prepare {
        txn: TxnId,
        coordinator: SiteId,
    },
    VoteMsg {
        txn: TxnId,
        site: SiteId,
        vote: Vote,
    },
    Decision {
        txn: TxnId,
        commit: bool,
        writes: Vec<ObjectId>,
        coordinator: SiteId,
    },
    AckMsg {
        txn: TxnId,
        site: SiteId,
    },
    SecondaryUpdate {
        object: ObjectId,
        value: u64,
        version: u64,
        writer: TxnId,
        origin_deadline: SimTime,
    },
    /// Manager → home: a `ReleaseTxn` was processed (fault mode only;
    /// stops the release retransmission loop).
    ReleaseAck {
        txn: TxnId,
    },
    /// Restarted site → peer: replay the newest versions of the objects
    /// the peer is primary for (anti-entropy, local architecture).
    RepairRequest {
        from: SiteId,
    },
    /// Peer → restarted site: `(object, value, version, writer)` items to
    /// re-install through the system-transaction apply path.
    RepairReply {
        items: Vec<(ObjectId, u64, u64, TxnId)>,
    },
}

#[derive(Debug)]
enum Ev {
    Arrive(TxnId),
    BurstDone {
        site: SiteId,
        token: CpuToken,
    },
    Deadline(TxnId),
    /// `from` is carried only so the delivery can be journalled as a
    /// [`SimEventKind::MsgDelivered`] at the receiving site.
    Deliver {
        from: SiteId,
        to: SiteId,
        msg: Message,
    },
    LockTimeout {
        call: CallId,
    },
    SiteDown(SiteId),
    SiteUp(SiteId),
    /// Fault mode: the coordinator stops waiting for votes and aborts.
    VoteTimeout {
        txn: TxnId,
    },
    /// Fault mode: retransmit an unacknowledged commit decision.
    AckTimeout {
        txn: TxnId,
    },
    /// Fault mode: retransmit an unacknowledged `ReleaseTxn`.
    ReleaseRetry {
        txn: TxnId,
    },
}

/// Why a secondary-update system transaction exists.
#[derive(Debug, Clone)]
struct SystemApply {
    object: ObjectId,
    value: u64,
    version: u64,
    writer: TxnId,
    /// Anti-entropy repair after a restart (emits
    /// [`SimEventKind::ReplicaRepaired`] when the version installs).
    repair: bool,
}

#[derive(Debug)]
struct DExec {
    step: usize,
    seq: Vec<(ObjectId, LockMode)>,
    deadline_ev: Option<EventId>,
    coordinator: Option<Coordinator>,
    /// Commit decision broadcast; the transaction can no longer abort.
    decided: bool,
    /// Deadline fired after the decision; count as missed at finalize.
    deadline_passed: bool,
    /// Open lock RPC: (call id, timeout event).
    pending_call: Option<(CallId, EventId)>,
    /// Lock RPCs retried so far (per-transaction budget).
    attempts: u32,
    /// Home-site view of "blocked at the manager" — pairs the stats fold's
    /// `on_block`/`on_unblock` exactly once even when `LockPending` or
    /// wakeup grants are lost or duplicated.
    blocked: bool,
    /// A `RemoteRead` is outstanding; a reply that arrives while this is
    /// false is a duplicate and must not double-submit the CPU burst.
    awaiting_read: bool,
    /// Commit-decision retransmissions performed (fault mode).
    ack_attempts: u32,
    /// Secondary-update payload (system transactions only).
    system: Option<SystemApply>,
}

#[derive(Debug)]
enum PendingWork {
    Advance(TxnId),
    Resume(TxnId),
}

struct DistModel<S> {
    config: DistributedConfig,
    catalog: Catalog,
    net: Network,
    cpus: Vec<Cpu<TxnId>>,
    stores: Vec<rtdb::ObjectStore>,
    /// Global architecture: the manager's protocol instance (site 0).
    global_pcp: Option<PriorityCeilingProtocol>,
    /// Local architecture: one protocol instance per site.
    local_pcps: Vec<PriorityCeilingProtocol>,
    stats: StatsFold,
    specs: FxHashMap<TxnId, TxnSpec>,
    exec: FxHashMap<TxnId, DExec>,
    /// Home-site view of each transaction's effective priority (global
    /// architecture; updated by `PriorityUpdate` messages).
    eff_prio: FxHashMap<TxnId, Priority>,
    calls: CallTable<TxnId>,
    participants: FxHashMap<(TxnId, SiteId), Participant>,
    /// Participant slots that already processed a decision. A duplicated
    /// `Prepare` delivered after the decision must not re-create the
    /// participant and re-vote — that entry would never see another
    /// decision and the spurious vote could reach a recycled coordinator.
    /// Cleared per-site on a crash: the site's 2PC memory is volatile, so
    /// a recovered participant legitimately votes afresh.
    resolved_participants: FxHashSet<(TxnId, SiteId)>,
    /// `fail_site` or a non-trivial fault plan is installed; all recovery
    /// machinery (extra messages, retry events) is gated on this so
    /// fault-free runs stay byte-identical.
    faults_active: bool,
    /// Releases awaiting a manager acknowledgement (fault mode):
    /// transaction → (retransmissions so far, pending retry event).
    pending_releases: FxHashMap<TxnId, (u32, EventId)>,
    next_system_id: u64,
    applied_updates: u64,
    stale_updates: u64,
    /// Per-site version stores when temporal measurement is on.
    version_stores: Vec<VersionStore>,
    /// Live snapshot pins (snapshot-reader mode): reader → (handle into
    /// its home site's version store, pinned instant).
    pins: FxHashMap<TxnId, (SnapshotId, SimTime)>,
    snapshot_reads: u64,
    unconstructible: u64,
    lag_total: u128,
    lag_max: u64,
    replica_reads: u64,
    replica_lag_total: u128,
    replica_lag_max: u64,
    reader_committed: u64,
    reader_missed: u64,
    versions_gced: u64,
    /// Structured event sink ([`NullSink`] in the default configuration).
    sink: S,
    /// Scratch for draining protocol / CPU / network journals.
    scratch_events: Vec<SimEventKind>,
    scratch_cpu: Vec<CpuJournalEntry<TxnId>>,
    scratch_net: Vec<NetJournalEntry>,
    /// Reusable control-flow queue for [`DistModel::pump_local`]; empty
    /// between events, retained so no event allocates it afresh.
    pending_local: VecDeque<PendingWork>,
    /// Retired [`DExec`] records, recycled on the next arrival so the
    /// per-transaction vectors keep their capacity.
    exec_pool: Vec<DExec>,
    /// Retired system-transaction specs: one secondary update runs per
    /// written object per remote site, so their specs churn far faster
    /// than user transactions and are recycled rather than reallocated.
    spec_pool: Vec<TxnSpec>,
}

impl<S> fmt::Debug for DistModel<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistModel")
            .field("architecture", &self.config.architecture)
            .field("active", &self.exec.len())
            .finish()
    }
}

impl<S: EventSink<SimEvent>> Model for DistModel<S> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Arrive(txn) => self.on_arrive(txn, sched),
            Ev::BurstDone { site, token } => self.on_burst_done(site, token, sched),
            Ev::Deadline(txn) => self.on_deadline(txn, sched),
            Ev::Deliver { from, to, msg } => {
                // The destination's fate is decided at *delivery* time: a
                // message in flight towards a site that has since gone
                // down is lost, not handled.
                if self.net.deliver(to) {
                    self.emit(sched.now(), to, SimEventKind::MsgDelivered { from, to });
                    self.on_message(to, msg, sched);
                } else {
                    self.emit(
                        sched.now(),
                        to,
                        SimEventKind::MsgDropped {
                            from,
                            to,
                            in_flight: true,
                        },
                    );
                }
            }
            Ev::LockTimeout { call } => self.on_lock_timeout(call, sched),
            Ev::SiteDown(site) => self.on_site_down(site, sched),
            Ev::SiteUp(site) => self.on_site_up(site, sched),
            Ev::VoteTimeout { txn } => self.on_vote_timeout(txn, sched),
            Ev::AckTimeout { txn } => self.on_ack_timeout(txn, sched),
            Ev::ReleaseRetry { txn } => self.on_release_retry(txn, sched),
        }
        self.flush_kernel_journals();
    }
}

impl<S: EventSink<SimEvent>> DistModel<S> {
    fn manager_site(&self) -> SiteId {
        SiteId(0)
    }

    /// Emits one unified event, stamped with the site it happened at. The
    /// `S::ENABLED` check is a monomorphisation-time constant: with
    /// [`NullSink`] this whole function compiles to nothing.
    fn emit(&mut self, at: SimTime, site: SiteId, kind: SimEventKind) {
        if S::ENABLED && self.sink.enabled() {
            self.sink.emit(at, SimEvent::new(site, kind));
        }
    }

    /// Forwards everything the given ceiling instance journalled during
    /// the protocol call that just returned, stamped with `site` (the
    /// manager site for the global architecture, the local site
    /// otherwise).
    fn drain_pcp(&mut self, site: SiteId, now: SimTime) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        let pcp = match self.config.architecture {
            CeilingArchitecture::GlobalManager => {
                self.global_pcp.as_mut().expect("global architecture")
            }
            CeilingArchitecture::LocalReplicated => &mut self.local_pcps[site.index()],
        };
        pcp.drain_events(&mut self.scratch_events);
        for i in 0..self.scratch_events.len() {
            let kind = self.scratch_events[i];
            self.sink.emit(now, SimEvent::new(site, kind));
        }
        self.scratch_events.clear();
    }

    /// Forwards dispatch/preemption events from every site's CPU and send
    /// events from the network; each journal entry carries its own
    /// timestamp.
    fn flush_kernel_journals(&mut self) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        for site_idx in 0..self.cpus.len() {
            self.cpus[site_idx].drain_journal(&mut self.scratch_cpu);
            let site = SiteId(site_idx as u8);
            for i in 0..self.scratch_cpu.len() {
                let entry = &self.scratch_cpu[i];
                let kind = match entry.kind {
                    CpuJournalKind::Dispatched => SimEventKind::Dispatched { txn: entry.task },
                    CpuJournalKind::Preempted => SimEventKind::Preempted { txn: entry.task },
                };
                let at = entry.at;
                self.sink.emit(at, SimEvent::new(site, kind));
            }
            self.scratch_cpu.clear();
        }
        self.net.drain_journal(&mut self.scratch_net);
        for i in 0..self.scratch_net.len() {
            let entry = self.scratch_net[i];
            self.sink.emit(
                entry.sent_at,
                SimEvent::new(
                    entry.from,
                    SimEventKind::MsgSent {
                        from: entry.from,
                        to: entry.to,
                    },
                ),
            );
        }
        self.scratch_net.clear();
    }

    fn home(&self, txn: TxnId) -> SiteId {
        self.specs[&txn].home_site
    }

    fn send(&mut self, from: SiteId, to: SiteId, msg: Message, sched: &mut Scheduler<Ev>) -> bool {
        let now = sched.now();
        match self.net.send(from, to, now) {
            SendOutcome::Deliver { at } => {
                sched.schedule(at, Ev::Deliver { from, to, msg });
                true
            }
            SendOutcome::DeliverTwice { at, again_at } => {
                self.emit(now, from, SimEventKind::MsgDuplicated { from, to });
                sched.schedule(
                    at,
                    Ev::Deliver {
                        from,
                        to,
                        msg: msg.clone(),
                    },
                );
                sched.schedule(again_at, Ev::Deliver { from, to, msg });
                true
            }
            SendOutcome::DroppedAtSend => {
                self.emit(
                    now,
                    from,
                    SimEventKind::MsgDropped {
                        from,
                        to,
                        in_flight: false,
                    },
                );
                false
            }
            // The loss is drawn at send time but modelled as an in-flight
            // loss; journal it at the sender, which is where it is known.
            SendOutcome::LostInFlight => {
                self.emit(
                    now,
                    from,
                    SimEventKind::MsgDropped {
                        from,
                        to,
                        in_flight: true,
                    },
                );
                false
            }
        }
    }

    // ----- arrival ------------------------------------------------------

    /// Takes a fully-reset execution record from the pool (or a fresh one).
    fn take_exec(&mut self) -> DExec {
        self.exec_pool.pop().unwrap_or_else(|| DExec {
            step: 0,
            seq: Vec::new(),
            deadline_ev: None,
            coordinator: None,
            decided: false,
            deadline_passed: false,
            pending_call: None,
            attempts: 0,
            blocked: false,
            awaiting_read: false,
            ack_attempts: 0,
            system: None,
        })
    }

    /// Retires an execution record into the pool, reset but keeping its
    /// vector capacities for the next arrival.
    fn recycle_exec(&mut self, mut exec: DExec) {
        exec.step = 0;
        exec.seq.clear();
        exec.deadline_ev = None;
        exec.coordinator = None;
        exec.decided = false;
        exec.deadline_passed = false;
        exec.pending_call = None;
        exec.attempts = 0;
        exec.blocked = false;
        exec.awaiting_read = false;
        exec.ack_attempts = 0;
        exec.system = None;
        self.exec_pool.push(exec);
    }

    fn on_arrive(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let home = self.specs[&txn].home_site;
        let priority = self.specs[&txn].base_priority();
        if !self.net.is_site_up(home) {
            // The home site is down: the transaction never starts, but it
            // must still be registered so the run's accounting closes
            // (committed + missed + faulted + in_progress == generated).
            self.emit(
                sched.now(),
                home,
                SimEventKind::TxnArrived { txn, priority },
            );
            self.stats.register(&self.specs[&txn]);
            self.stats.on_fault_abort(txn, sched.now());
            self.emit(
                sched.now(),
                home,
                SimEventKind::TxnAborted {
                    txn,
                    reason: AbortReason::SiteFailed,
                },
            );
            return;
        }
        self.emit(
            sched.now(),
            home,
            SimEventKind::TxnArrived { txn, priority },
        );
        self.stats.register(&self.specs[&txn]);
        self.emit(sched.now(), home, SimEventKind::TxnStarted { txn });
        let (deadline, base_prio) = {
            let spec = &self.specs[&txn];
            (spec.deadline, spec.base_priority())
        };
        let deadline_ev = sched.schedule(deadline, Ev::Deadline(txn));
        let mut exec = self.take_exec();
        exec.deadline_ev = Some(deadline_ev);
        exec.seq.extend(self.specs[&txn].access_ops());
        self.exec.insert(txn, exec);
        self.eff_prio.insert(txn, base_prio);
        match self.config.architecture {
            CeilingArchitecture::GlobalManager => {
                // The registration message needs an owned copy of the spec.
                let spec = self.specs[&txn].clone();
                self.send(home, self.manager_site(), Message::RegisterTxn(spec), sched);
                self.advance_global(txn, sched);
            }
            CeilingArchitecture::LocalReplicated => {
                if self.is_snapshot_reader(txn) {
                    // Lock-free reader: pin the arrival instant in the
                    // home replica's version store instead of registering
                    // with the ceiling manager.
                    let pin = self.specs[&txn].arrival;
                    let id = self.version_stores[home.index()].pin(pin);
                    self.pins.insert(txn, (id, pin));
                    self.emit(sched.now(), home, SimEventKind::SnapshotPinned { txn, pin });
                } else {
                    self.local_pcps[home.index()].register(&self.specs[&txn]);
                }
                self.pending_local.push_back(PendingWork::Advance(txn));
                self.pump_local(sched);
            }
        }
    }

    /// Whether `txn` runs as a lock-free snapshot reader (local
    /// architecture with [`DistributedConfig::snapshot_readers`] on,
    /// read-only workload transactions only).
    fn is_snapshot_reader(&self, txn: TxnId) -> bool {
        self.config.snapshot_readers
            && !self.is_system(txn)
            && self.specs.get(&txn).is_some_and(|s| s.write_set.is_empty())
    }

    // ----- CPU ----------------------------------------------------------

    fn submit_cpu(&mut self, txn: TxnId, site: SiteId, sched: &mut Scheduler<Ev>) {
        let priority = if self.is_snapshot_reader(txn) {
            // Lock-free readers never register with the ceiling manager:
            // they run at their base EDF priority.
            self.specs[&txn].base_priority()
        } else {
            match self.config.architecture {
                CeilingArchitecture::GlobalManager => self.eff_prio[&txn],
                CeilingArchitecture::LocalReplicated => {
                    self.local_pcps[site.index()].effective_priority(txn)
                }
            }
        };
        let cost = if self.exec[&txn].system.is_some() {
            self.config.apply_cost
        } else {
            self.config.cpu_per_object
        };
        if cost.is_zero() {
            // Degenerate configuration: process instantly.
            self.finish_access_for(txn, site, sched);
            return;
        }
        if let Some(burst) = self.cpus[site.index()].submit(txn, priority, cost, sched.now()) {
            sched.schedule(
                burst.finish_at,
                Ev::BurstDone {
                    site,
                    token: burst.token,
                },
            );
        }
    }

    fn on_burst_done(&mut self, site: SiteId, token: CpuToken, sched: &mut Scheduler<Ev>) {
        match self.cpus[site.index()].complete(token, sched.now()) {
            Completion::Stale => {}
            Completion::Finished { task, next } => {
                if let Some(burst) = next {
                    sched.schedule(
                        burst.finish_at,
                        Ev::BurstDone {
                            site,
                            token: burst.token,
                        },
                    );
                }
                self.finish_access_for(task, site, sched);
            }
        }
    }

    /// A processing burst completed: move on to the next step.
    fn finish_access_for(&mut self, txn: TxnId, site: SiteId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return;
        };
        if let Some(apply) = exec.system.clone() {
            // A secondary-update system transaction finished its burst:
            // install the version and finish.
            self.finish_system_apply(txn, site, apply, sched);
            return;
        }
        exec.step += 1;
        match self.config.architecture {
            CeilingArchitecture::GlobalManager => self.advance_global(txn, sched),
            CeilingArchitecture::LocalReplicated => {
                self.pending_local.push_back(PendingWork::Advance(txn));
                self.pump_local(sched)
            }
        }
    }

    // ----- deadline -----------------------------------------------------

    fn on_deadline(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let home = self.home(txn);
        let Some(exec) = self.exec.get_mut(&txn) else {
            return;
        };
        exec.deadline_ev = None;
        if exec.decided {
            // Commit decision already broadcast; it will complete, counted
            // as missed.
            exec.deadline_passed = true;
            return;
        }
        // Abort a 2PC still collecting votes.
        let voting_abort = exec.coordinator.as_mut().and_then(|c| c.on_vote_timeout());
        if let Some(CoordinatorAction::SendAbort(sites)) = voting_abort {
            self.emit(
                sched.now(),
                home,
                SimEventKind::TwoPcDecided { txn, commit: false },
            );
            for s in sites {
                self.send(
                    home,
                    s,
                    Message::Decision {
                        txn,
                        commit: false,
                        writes: Vec::new(),
                        coordinator: home,
                    },
                    sched,
                );
            }
        }
        // Close any open lock RPC.
        if let Some((call, timeout_ev)) =
            self.exec.get_mut(&txn).and_then(|e| e.pending_call.take())
        {
            sched.cancel(timeout_ev);
            self.calls.close(call);
        }
        if let Some(exec) = self.exec.remove(&txn) {
            self.recycle_exec(exec);
        }
        self.stats.on_miss(txn, sched.now());
        self.emit(
            sched.now(),
            home,
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            },
        );
        if let Removed::WasRunning { next: Some(burst) } =
            self.cpus[home.index()].remove(txn, sched.now())
        {
            sched.schedule(
                burst.finish_at,
                Ev::BurstDone {
                    site: home,
                    token: burst.token,
                },
            );
        }
        match self.config.architecture {
            CeilingArchitecture::GlobalManager => {
                self.send_release(txn, sched);
            }
            CeilingArchitecture::LocalReplicated => {
                if self.is_snapshot_reader(txn) {
                    // Never registered with the ceiling manager: just drop
                    // the pin so GC can move past it.
                    self.reader_missed += 1;
                    self.release_reader_pin(txn, home, sched.now());
                    return;
                }
                let release =
                    self.local_pcps[home.index()].release_all(txn, ReleaseReason::Finished);
                self.drain_pcp(home, sched.now());
                self.apply_local_release(home, release.wakeups, release.priority_updates, sched);
                self.pump_local(sched);
            }
        }
    }

    // ----- fault injection & recovery -----------------------------------

    /// Lock-RPC patience: the round trip plus the configured slack plus
    /// headroom for the worst jitter on both legs (zero without faults).
    fn rpc_timeout(&self, from: SiteId, to: SiteId) -> starlite::SimDuration {
        self.net
            .round_trip_timeout(from, to, self.config.lock_timeout_slack)
            + starlite::SimDuration::from_ticks(2 * self.config.faults.link.jitter_ticks)
    }

    /// 2PC patience: the slowest participant round trip plus slack and
    /// jitter headroom.
    fn twopc_timeout(&self, home: SiteId, sites: &[SiteId]) -> starlite::SimDuration {
        sites
            .iter()
            .map(|&s| self.rpc_timeout(home, s))
            .max()
            .unwrap_or(self.config.lock_timeout_slack)
    }

    /// Sends `ReleaseTxn` towards the manager; in fault mode the release
    /// is retransmitted until the manager acknowledges it.
    fn send_release(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let home = self.home(txn);
        let manager = self.manager_site();
        self.send(home, manager, Message::ReleaseTxn { txn }, sched);
        if self.faults_active {
            let retry_ev =
                sched.schedule_after(self.rpc_timeout(home, manager), Ev::ReleaseRetry { txn });
            self.pending_releases.insert(txn, (0, retry_ev));
        }
    }

    /// Releases `txn` at the manager and routes the wakeups home (the
    /// body of the `ReleaseTxn` handler, shared with the failure-detector
    /// paths that release directly).
    fn release_at_manager(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let manager = self.manager_site();
        let release = self
            .global_pcp
            .as_mut()
            .expect("global architecture")
            .release_all(txn, ReleaseReason::Finished);
        self.drain_pcp(manager, sched.now());
        for w in &release.wakeups {
            let waiter_home = self.home(w.txn);
            self.send(
                manager,
                waiter_home,
                Message::LockGrant {
                    txn: w.txn,
                    call: None,
                },
                sched,
            );
        }
        self.broadcast_priority_updates(release.priority_updates, sched);
    }

    /// A pending release went unacknowledged: retransmit, give up on a
    /// dead manager, or escalate to a direct failure-detector release so
    /// locks can never leak.
    fn on_release_retry(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(&(attempts, _)) = self.pending_releases.get(&txn) else {
            return; // acknowledged in the meantime
        };
        let manager = self.manager_site();
        if !self.net.is_site_up(manager) {
            // The manager's lock state died (or dies) with it; nothing
            // left to release.
            self.pending_releases.remove(&txn);
            return;
        }
        if attempts >= MAX_RELEASE_RETRIES {
            self.pending_releases.remove(&txn);
            self.release_at_manager(txn, sched);
            return;
        }
        let home = self.home(txn);
        self.emit(
            sched.now(),
            home,
            SimEventKind::RpcRetried {
                txn,
                attempt: attempts + 1,
            },
        );
        self.send(home, manager, Message::ReleaseTxn { txn }, sched);
        let retry_ev =
            sched.schedule_after(self.rpc_timeout(home, manager), Ev::ReleaseRetry { txn });
        self.pending_releases.insert(txn, (attempts + 1, retry_ev));
    }

    /// Aborts a live transaction because of a site failure: counts it as
    /// fault-aborted, cancels its timers and open call, removes it from
    /// its home CPU, and (global architecture) releases its locks through
    /// the failure detector.
    fn fault_abort(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(mut exec) = self.exec.remove(&txn) else {
            return;
        };
        let now = sched.now();
        if let Some(ev) = exec.deadline_ev.take() {
            sched.cancel(ev);
        }
        if let Some((call, timeout_ev)) = exec.pending_call.take() {
            sched.cancel(timeout_ev);
            self.calls.close(call);
        }
        let home = self.home(txn);
        self.stats.on_fault_abort(txn, now);
        self.emit(
            now,
            home,
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::SiteFailed,
            },
        );
        if let Removed::WasRunning { next: Some(burst) } = self.cpus[home.index()].remove(txn, now)
        {
            sched.schedule(
                burst.finish_at,
                Ev::BurstDone {
                    site: home,
                    token: burst.token,
                },
            );
        }
        self.recycle_exec(exec);
        if self.is_snapshot_reader(txn) {
            // A crashing reader drops its pin; the store's state is reset
            // with the site anyway, but the pin map must not leak.
            self.release_reader_pin(txn, home, now);
        }
        if self.config.architecture == CeilingArchitecture::GlobalManager
            && self.net.is_site_up(self.manager_site())
        {
            // The failure detector tells the manager immediately; the
            // local architecture resets the whole per-site instance
            // instead (crashes are the only local fault-abort source).
            self.release_at_manager(txn, sched);
        }
    }

    /// A site crashes: messages to it start dropping, its resident
    /// transactions abort, and its protocol state is lost.
    fn on_site_down(&mut self, site: SiteId, sched: &mut Scheduler<Ev>) {
        if !self.net.is_site_up(site) {
            return; // overlapping crash windows
        }
        self.net.set_site_up(site, false);
        self.emit(sched.now(), site, SimEventKind::SiteCrashed);
        let now = sched.now();
        let mut residents: Vec<TxnId> = self
            .exec
            .keys()
            .copied()
            .filter(|t| self.specs[t].home_site == site)
            .collect();
        residents.sort_unstable();
        for txn in residents {
            if self.is_system(txn) {
                // Secondary-update appliers die silently with the site.
                if let Some(exec) = self.exec.remove(&txn) {
                    self.recycle_exec(exec);
                }
                if let Some(spec) = self.specs.remove(&txn) {
                    self.spec_pool.push(spec);
                }
                self.cpus[site.index()].remove(txn, now);
            } else {
                self.fault_abort(txn, sched);
            }
        }
        let fresh_pcp = |tracing: bool| {
            let mut pcp = PriorityCeilingProtocol::read_write();
            if tracing {
                pcp.set_tracing(true);
            }
            pcp
        };
        match self.config.architecture {
            CeilingArchitecture::GlobalManager => {
                if site == self.manager_site() {
                    // The manager's lock state dies with it; survivors
                    // drain via lock-RPC timeouts and their deadlines.
                    self.global_pcp = Some(fresh_pcp(self.sink.enabled()));
                }
            }
            CeilingArchitecture::LocalReplicated => {
                self.local_pcps[site.index()] = fresh_pcp(self.sink.enabled());
            }
        }
        // Orphaned 2PC participant state at the crashed site. Resolution
        // memory is volatile too: a recovered participant may vote afresh.
        self.participants.retain(|&(_, s), _| s != site);
        self.resolved_participants.retain(|&(_, s)| s != site);
    }

    /// A site restarts: messages flow again; a replicated site asks every
    /// peer to replay the newest versions of the objects it is primary
    /// for (anti-entropy). Under the global architecture nothing else is
    /// needed — new arrivals re-register with the manager as usual.
    fn on_site_up(&mut self, site: SiteId, sched: &mut Scheduler<Ev>) {
        if self.net.is_site_up(site) {
            return;
        }
        self.net.set_site_up(site, true);
        self.emit(sched.now(), site, SimEventKind::SiteRecovered);
        if self.config.architecture == CeilingArchitecture::LocalReplicated {
            for s in self.catalog.sites() {
                if s != site {
                    self.send(site, s, Message::RepairRequest { from: site }, sched);
                }
            }
        }
    }

    /// Fault mode: votes did not all arrive in time (a participant
    /// crashed, or a prepare/vote was lost). Broadcast abort and fault the
    /// transaction.
    fn on_vote_timeout(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return;
        };
        let Some(coordinator) = exec.coordinator.as_mut() else {
            return;
        };
        let Some(CoordinatorAction::SendAbort(sites)) = coordinator.on_vote_timeout() else {
            return; // decided in time
        };
        let home = self.home(txn);
        self.emit(
            sched.now(),
            home,
            SimEventKind::TwoPcDecided { txn, commit: false },
        );
        for s in sites {
            self.send(
                home,
                s,
                Message::Decision {
                    txn,
                    commit: false,
                    writes: Vec::new(),
                    coordinator: home,
                },
                sched,
            );
        }
        self.fault_abort(txn, sched);
    }

    /// Fault mode: a commit decision went unacknowledged — retransmit it
    /// to the sites still owing an ack, bounded; then stop waiting.
    fn on_ack_timeout(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return; // finalized in the meantime
        };
        let Some(coordinator) = exec.coordinator.as_ref() else {
            return;
        };
        let pending = coordinator.pending_acks();
        if pending.is_empty() {
            return;
        }
        if exec.ack_attempts >= MAX_ACK_RETRIES {
            // The decision stands; finalize with the acks that made it.
            self.finalize_global(txn, sched);
            return;
        }
        exec.ack_attempts += 1;
        let attempt = exec.ack_attempts;
        let home = self.home(txn);
        let writes = self.specs[&txn].write_set.clone();
        self.emit(sched.now(), home, SimEventKind::RpcRetried { txn, attempt });
        for s in &pending {
            self.send(
                home,
                *s,
                Message::Decision {
                    txn,
                    commit: true,
                    writes: writes.clone(),
                    coordinator: home,
                },
                sched,
            );
        }
        let timeout = self.twopc_timeout(home, &pending);
        sched.schedule_after(timeout, Ev::AckTimeout { txn });
    }

    // ----- global architecture ------------------------------------------

    /// Requests the current step's lock from the manager, or starts the
    /// commit phase.
    fn advance_global(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get(&txn) else {
            return;
        };
        if exec.step == exec.seq.len() {
            self.commit_global(txn, sched);
            return;
        }
        let (object, mode) = exec.seq[exec.step];
        let home = self.home(txn);
        let manager = self.manager_site();
        let call = self.calls.open(txn, None);
        let timeout = self.rpc_timeout(home, manager);
        let timeout_ev = sched.schedule_after(timeout, Ev::LockTimeout { call });
        self.exec.get_mut(&txn).expect("checked above").pending_call = Some((call, timeout_ev));
        self.send(
            home,
            manager,
            Message::LockRequest {
                txn,
                object,
                mode,
                call,
                from: home,
            },
            sched,
        );
    }

    /// A lock RPC went unanswered (the message or its reply was lost, or
    /// the manager site is down): retry with exponential backoff while
    /// the budget lasts, then unblock the sender and abort as missed.
    fn on_lock_timeout(&mut self, call: CallId, sched: &mut Scheduler<Ev>) {
        let Some(txn) = self.calls.time_out(call) else {
            // Every path that resolves a pending lock RPC also cancels
            // its timeout event, so a timeout firing for a closed call is
            // a lifecycle bug, not a race. Release builds lose the
            // assertion, so report through the event stream too — the
            // invariant oracle turns the anomaly into a violation.
            self.emit(
                sched.now(),
                self.manager_site(),
                SimEventKind::ProtocolAnomaly {
                    txn: None,
                    detail: "stale LockTimeout fired for a closed call",
                },
            );
            debug_assert!(false, "stale LockTimeout fired for closed call {call:?}");
            return;
        };
        if !self.exec.contains_key(&txn) {
            self.emit(
                sched.now(),
                self.home(txn),
                SimEventKind::ProtocolAnomaly {
                    txn: Some(txn),
                    detail: "open lock RPC for a finished transaction",
                },
            );
            debug_assert!(false, "open lock RPC for a finished transaction");
            return;
        }
        let exec = self.exec.get_mut(&txn).expect("checked above");
        exec.pending_call = None;
        if exec.attempts < self.config.max_rpc_retries {
            exec.attempts += 1;
            let attempt = exec.attempts;
            let (object, mode) = exec.seq[exec.step];
            let home = self.home(txn);
            let manager = self.manager_site();
            self.emit(sched.now(), home, SimEventKind::RpcRetried { txn, attempt });
            if self.faults_active {
                // The lost message may have been the registration itself;
                // the manager ignores a duplicate.
                let spec = self.specs[&txn].clone();
                self.send(home, manager, Message::RegisterTxn(spec), sched);
            }
            let new_call = self.calls.open(txn, None);
            let shift = attempt.min(MAX_BACKOFF_SHIFT);
            let timeout =
                starlite::SimDuration::from_ticks(self.rpc_timeout(home, manager).ticks() << shift);
            let timeout_ev = sched.schedule_after(timeout, Ev::LockTimeout { call: new_call });
            self.exec
                .get_mut(&txn)
                .expect("live transaction")
                .pending_call = Some((new_call, timeout_ev));
            self.send(
                home,
                manager,
                Message::LockRequest {
                    txn,
                    object,
                    mode,
                    call: new_call,
                    from: home,
                },
                sched,
            );
            return;
        }
        if let Some(ev) = self.exec.get_mut(&txn).and_then(|e| e.deadline_ev.take()) {
            sched.cancel(ev);
        }
        if let Some(exec) = self.exec.remove(&txn) {
            self.recycle_exec(exec);
        }
        self.stats.on_miss(txn, sched.now());
        let home = self.home(txn);
        self.emit(
            sched.now(),
            home,
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            },
        );
        // Best-effort release towards the (possibly dead) manager.
        self.send_release(txn, sched);
    }

    /// Begins the commit phase: read-only transactions finish immediately;
    /// updates run two-phase commit over the primary sites of their write
    /// set.
    fn commit_global(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let spec = self.specs[&txn].clone();
        let home = spec.home_site;
        if spec.write_set.is_empty() {
            self.finalize_global(txn, sched);
            return;
        }
        let mut participant_sites: Vec<SiteId> = spec
            .write_set
            .iter()
            .map(|&o| self.catalog.primary_site(o))
            .collect();
        participant_sites.sort_unstable();
        participant_sites.dedup();
        let mut coordinator = Coordinator::new(txn, participant_sites);
        let CoordinatorAction::SendPrepare(sites) = coordinator.start() else {
            unreachable!("a fresh coordinator always sends prepare");
        };
        self.exec.get_mut(&txn).expect("live txn").coordinator = Some(coordinator);
        self.emit(
            sched.now(),
            home,
            SimEventKind::TwoPcStarted {
                txn,
                participants: sites.len() as u32,
            },
        );
        for s in &sites {
            self.send(
                home,
                *s,
                Message::Prepare {
                    txn,
                    coordinator: home,
                },
                sched,
            );
        }
        if self.faults_active {
            // A crashed participant (or a lost prepare/vote) must not
            // leave the coordinator waiting forever.
            let timeout = self.twopc_timeout(home, &sites);
            sched.schedule_after(timeout, Ev::VoteTimeout { txn });
        }
    }

    /// All acknowledgements arrived: the transaction leaves the system.
    fn finalize_global(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let exec = self.exec.remove(&txn).expect("finalizing unknown txn");
        if let Some(ev) = exec.deadline_ev {
            sched.cancel(ev);
        }
        let deadline_passed = exec.deadline_passed;
        self.recycle_exec(exec);
        let home = self.home(txn);
        if deadline_passed {
            self.stats.on_miss(txn, sched.now());
            self.emit(
                sched.now(),
                home,
                SimEventKind::TxnAborted {
                    txn,
                    reason: AbortReason::DeadlineMissed,
                },
            );
        } else {
            self.stats.on_commit(txn, sched.now());
            self.emit(sched.now(), home, SimEventKind::TxnCommitted { txn });
        }
        self.send_release(txn, sched);
    }

    /// Routes priority updates from the manager to the home sites.
    fn broadcast_priority_updates(
        &mut self,
        updates: Vec<(TxnId, Priority)>,
        sched: &mut Scheduler<Ev>,
    ) {
        for (t, p) in updates {
            if let Some(spec) = self.specs.get(&t) {
                let to = spec.home_site;
                self.send(
                    self.manager_site(),
                    to,
                    Message::PriorityUpdate {
                        txn: t,
                        priority: p,
                    },
                    sched,
                );
            }
        }
    }

    // ----- local architecture -------------------------------------------

    /// Processes pending local-architecture work until quiescent. The
    /// queue is a reusable model field (empty between events), so pumping
    /// allocates nothing in the steady state.
    fn pump_local(&mut self, sched: &mut Scheduler<Ev>) {
        while let Some(item) = self.pending_local.pop_front() {
            match item {
                PendingWork::Advance(txn) => self.advance_local(txn, sched),
                PendingWork::Resume(txn) => {
                    let site = self.home(txn);
                    self.submit_cpu(txn, site, sched);
                }
            }
        }
    }

    fn advance_local(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get(&txn) else {
            return;
        };
        if exec.step == exec.seq.len() {
            self.commit_local(txn, sched);
            return;
        }
        let (object, mode) = exec.seq[exec.step];
        let home = self.home(txn);
        if self.is_snapshot_reader(txn) {
            // No lock request: read the local replica at the pin, then
            // burn the processing burst like any other access.
            self.snapshot_read_local(txn, object, home, sched.now());
            self.submit_cpu(txn, home, sched);
            return;
        }
        let result = self.local_pcps[home.index()].request(txn, object, mode);
        self.drain_pcp(home, sched.now());
        self.apply_local_priority_updates(home, &result.priority_updates, sched);
        match result.outcome {
            RequestOutcome::Granted => {
                if mode == LockMode::Read {
                    self.probe_snapshot(txn, object, home, sched.now());
                }
                self.submit_cpu(txn, home, sched)
            }
            RequestOutcome::Blocked { blocker } => {
                if !self.is_system(txn) {
                    let lower = blocker.filter(|b| {
                        self.base_priority_of(*b)
                            .is_some_and(|bp| bp < self.specs[&txn].base_priority())
                    });
                    self.stats.on_block(txn, sched.now(), lower);
                }
            }
            RequestOutcome::Deadlock { .. } => {
                unreachable!("the ceiling protocol is deadlock-free")
            }
        }
    }

    /// One snapshot-reader access: resolve the object at the pinned
    /// instant against the local replica's version store and account the
    /// staleness ([`Self::probe_snapshot`] shares the lag bookkeeping).
    /// An evicted prefix emits nothing — the GC invariant covers it.
    fn snapshot_read_local(&mut self, txn: TxnId, object: ObjectId, site: SiteId, now: SimTime) {
        let (_, pin) = self.pins[&txn];
        self.probe_snapshot(txn, object, site, now);
        let read = self.version_stores[site.index()].read_at(object, pin);
        if let Some(version) = read.number() {
            self.emit(
                now,
                site,
                SimEventKind::SnapshotRead {
                    txn,
                    object,
                    version,
                },
            );
        }
    }

    /// Closes a snapshot reader's pin and sweeps version chains the
    /// released watermark now lets GC trim at its home site.
    fn release_reader_pin(&mut self, txn: TxnId, site: SiteId, now: SimTime) {
        let Some((id, _)) = self.pins.remove(&txn) else {
            return;
        };
        let vs = &mut self.version_stores[site.index()];
        vs.unpin(id);
        for (object, through) in vs.gc() {
            self.versions_gced += 1;
            self.emit(now, site, SimEventKind::VersionGced { object, through });
        }
    }

    fn commit_local(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let exec = self.exec.remove(&txn).expect("committing unknown txn");
        if let Some(ev) = exec.deadline_ev {
            sched.cancel(ev);
        }
        if self.is_snapshot_reader(txn) {
            // Nothing written, nothing locked: the snapshot read a past
            // serialised prefix of its replica.
            let home = self.home(txn);
            self.recycle_exec(exec);
            self.stats.on_commit(txn, now);
            self.emit(now, home, SimEventKind::TxnCommitted { txn });
            self.release_reader_pin(txn, home, now);
            self.reader_committed += 1;
            return;
        }
        let (home, deadline, writes) = {
            let spec = &self.specs[&txn];
            (spec.home_site, spec.deadline, spec.write_set.len())
        };
        // Apply writes to the local (primary) copies and propagate. The
        // write set is re-indexed per iteration (instead of cloned) because
        // emitting and sending need `&mut self`.
        for i in 0..writes {
            let obj = self.specs[&txn].write_set[i];
            debug_assert_eq!(
                self.catalog.primary_site(obj),
                home,
                "restriction 2: writes must be primary at the home site"
            );
            let value = self.stores[home.index()].read(obj).value + 1;
            self.stores[home.index()].apply_write(obj, value, txn, now);
            let version = self.stores[home.index()].read(obj).version;
            let gced = self
                .version_stores
                .get_mut(home.index())
                .and_then(|vs| vs.install_if_newer(obj, value, version, txn, now))
                .and_then(|i| i.evicted_through);
            self.emit(
                now,
                home,
                SimEventKind::VersionInstalled {
                    object: obj,
                    version,
                    writer: txn,
                },
            );
            if let Some(through) = gced {
                self.versions_gced += 1;
                self.emit(
                    now,
                    home,
                    SimEventKind::VersionGced {
                        object: obj,
                        through,
                    },
                );
            }
            for s in self.catalog.sites() {
                if s != home {
                    self.send(
                        home,
                        s,
                        Message::SecondaryUpdate {
                            object: obj,
                            value,
                            version,
                            writer: txn,
                            origin_deadline: deadline,
                        },
                        sched,
                    );
                }
            }
        }
        self.recycle_exec(exec);
        self.stats.on_commit(txn, now);
        self.emit(now, home, SimEventKind::TxnCommitted { txn });
        let release = self.local_pcps[home.index()].release_all(txn, ReleaseReason::Finished);
        self.drain_pcp(home, now);
        self.apply_local_release(home, release.wakeups, release.priority_updates, sched);
    }

    /// A propagated update arrived: run it as a short system transaction
    /// through the local ceiling manager.
    fn start_system_apply(
        &mut self,
        site: SiteId,
        apply: SystemApply,
        origin_deadline: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let id = TxnId(SYSTEM_TXN_BASE + self.next_system_id);
        self.next_system_id += 1;
        // System updates run at the originating transaction's priority;
        // a deadline in the past is clamped (the priority ordering shifts
        // negligibly, the update itself has no deadline).
        let deadline = origin_deadline.max(sched.now() + starlite::SimDuration::from_ticks(1));
        // Recycle a retired spec: the constructor's invariants hold by
        // construction here (single write, no reads, deadline after now).
        let mut spec = self.spec_pool.pop().unwrap_or_else(|| {
            TxnSpec::new(
                TxnId(SYSTEM_TXN_BASE),
                SimTime::ZERO,
                Vec::new(),
                vec![ObjectId(0)],
                SimTime::from_ticks(1),
                site,
            )
        });
        spec.id = id;
        spec.arrival = sched.now().max(SimTime::from_ticks(0));
        spec.read_set.clear();
        spec.write_set.clear();
        spec.write_set.push(apply.object);
        spec.deadline = deadline;
        spec.home_site = site;
        self.local_pcps[site.index()].register(&spec);
        self.specs.insert(id, spec);
        let mut exec = self.take_exec();
        exec.seq.push((apply.object, LockMode::Write));
        exec.system = Some(apply);
        self.exec.insert(id, exec);
        self.pending_local.push_back(PendingWork::Advance(id));
        self.pump_local(sched);
    }

    /// The system transaction's apply burst finished: install the version
    /// (discarding stale ones) and retire.
    fn finish_system_apply(
        &mut self,
        txn: TxnId,
        site: SiteId,
        apply: SystemApply,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        let installed = self.stores[site.index()].install_version(
            apply.object,
            apply.value,
            apply.version,
            apply.writer,
            now,
        );
        if installed {
            self.applied_updates += 1;
            let gced = self
                .version_stores
                .get_mut(site.index())
                .and_then(|vs| {
                    vs.install_if_newer(apply.object, apply.value, apply.version, apply.writer, now)
                })
                .and_then(|i| i.evicted_through);
            self.emit(
                now,
                site,
                SimEventKind::VersionInstalled {
                    object: apply.object,
                    version: apply.version,
                    writer: apply.writer,
                },
            );
            if let Some(through) = gced {
                self.versions_gced += 1;
                self.emit(
                    now,
                    site,
                    SimEventKind::VersionGced {
                        object: apply.object,
                        through,
                    },
                );
            }
            if apply.repair {
                self.emit(
                    now,
                    site,
                    SimEventKind::ReplicaRepaired {
                        object: apply.object,
                    },
                );
            }
        } else {
            self.stale_updates += 1;
        }
        if let Some(exec) = self.exec.remove(&txn) {
            self.recycle_exec(exec);
        }
        if let Some(spec) = self.specs.remove(&txn) {
            self.spec_pool.push(spec);
        }
        let release = self.local_pcps[site.index()].release_all(txn, ReleaseReason::Finished);
        self.drain_pcp(site, now);
        self.apply_local_release(site, release.wakeups, release.priority_updates, sched);
        self.pump_local(sched);
    }

    fn apply_local_release(
        &mut self,
        site: SiteId,
        wakeups: Vec<Wakeup>,
        priority_updates: Vec<(TxnId, Priority)>,
        sched: &mut Scheduler<Ev>,
    ) {
        self.apply_local_priority_updates(site, &priority_updates, sched);
        for w in wakeups {
            if !self.is_system(w.txn) {
                self.stats.on_unblock(w.txn, sched.now());
            }
            self.pending_local.push_back(PendingWork::Resume(w.txn));
        }
    }

    fn apply_local_priority_updates(
        &mut self,
        site: SiteId,
        updates: &[(TxnId, Priority)],
        sched: &mut Scheduler<Ev>,
    ) {
        for &(t, p) in updates {
            if let Some(burst) = self.cpus[site.index()].set_priority(t, p, sched.now()) {
                sched.schedule(
                    burst.finish_at,
                    Ev::BurstDone {
                        site,
                        token: burst.token,
                    },
                );
            }
        }
    }

    fn is_system(&self, txn: TxnId) -> bool {
        txn.0 >= SYSTEM_TXN_BASE
    }

    /// Probes the temporally consistent view for a read-only transaction:
    /// can a snapshot pinned at its arrival be constructed from the
    /// retained versions, and how stale is it?
    fn probe_snapshot(&mut self, txn: TxnId, object: ObjectId, site: SiteId, now: SimTime) {
        if self.version_stores.is_empty() || self.is_system(txn) {
            return;
        }
        let spec = &self.specs[&txn];
        if !spec.write_set.is_empty() {
            return; // only read-only queries pin snapshots
        }
        let pin = spec.arrival;
        self.snapshot_reads += 1;
        // Replication lag: how far the local replica's newest version
        // trails the primary copy's newest version right now.
        let primary = self.catalog.primary_site(object);
        if primary != site {
            self.replica_reads += 1;
            let primary_latest = self.version_stores[primary.index()].latest(object);
            let local_latest = self.version_stores[site.index()].latest(object);
            let lag = match (primary_latest, local_latest) {
                (Some(p), Some(l)) => p.at.saturating_since(l.at),
                (Some(p), None) => p.at.saturating_since(SimTime::ZERO),
                _ => starlite::SimDuration::ZERO,
            };
            self.replica_lag_total += lag.ticks() as u128;
            self.replica_lag_max = self.replica_lag_max.max(lag.ticks());
        }
        let vs = &self.version_stores[site.index()];
        if vs.read_at(object, pin).is_evicted() {
            // The version the pin needs was evicted (or never propagated
            // here): genuinely unconstructible. A pin before the first
            // retained version with nothing evicted reads the object's
            // initial value instead.
            self.unconstructible += 1;
            return;
        }
        // Staleness of the constructible snapshot: the version the pinned
        // view needs is the one the *primary* copy serves at the pin; the
        // lag is how long after its commit that version became available
        // at the reading site (zero at the primary itself). This is the
        // paper's "time lag in the distributed versions": it grows with
        // the propagation delay, not with how rarely the object happens
        // to be written.
        let needed = self.version_stores[primary.index()].read_at(object, pin);
        let lag = match needed.version() {
            // Nothing committed anywhere by the pin: the initial value is
            // fresh everywhere.
            None => 0,
            Some(v) => match vs.find_version(object, v.version) {
                // Available locally since `lv.at` (its commit time at the
                // primary, its apply time at a replica).
                Some(lv) => lv.at.saturating_since(v.at).ticks(),
                None => {
                    let behind = vs.latest(object).is_none_or(|l| l.version < v.version);
                    if behind {
                        // Still in flight: the view has been waiting on it
                        // at least since its commit.
                        now.saturating_since(v.at).ticks()
                    } else {
                        // Evicted locally, so it arrived and was long since
                        // superseded: settled.
                        0
                    }
                }
            },
        };
        self.lag_total += lag as u128;
        self.lag_max = self.lag_max.max(lag);
    }

    fn base_priority_of(&self, txn: TxnId) -> Option<Priority> {
        self.specs.get(&txn).map(|s| s.base_priority())
    }

    // ----- message handling ---------------------------------------------

    fn on_message(&mut self, to: SiteId, msg: Message, sched: &mut Scheduler<Ev>) {
        match msg {
            Message::RegisterTxn(spec) => {
                let pcp = self
                    .global_pcp
                    .as_mut()
                    .expect("global messages need the global architecture");
                // A retried registration may duplicate one that made it
                // through, or arrive after the transaction already died;
                // registering either would leak protocol state.
                if self.exec.contains_key(&spec.id) && !pcp.is_registered(spec.id) {
                    pcp.register(&spec);
                }
            }
            Message::LockRequest {
                txn,
                object,
                mode,
                call,
                from,
            } => {
                {
                    let pcp = self.global_pcp.as_ref().expect("global architecture");
                    if !pcp.is_registered(txn) {
                        // The registration was lost (or released already);
                        // the sender's timeout retries or gives up.
                        return;
                    }
                    if pcp.is_blocked(txn) {
                        // Retry of a request that is already queued (its
                        // `LockPending` reply was lost): re-acknowledge.
                        self.send(
                            to,
                            from,
                            Message::LockPending {
                                txn,
                                call,
                                lower_priority_blocker: None,
                            },
                            sched,
                        );
                        return;
                    }
                }
                let result = self
                    .global_pcp
                    .as_mut()
                    .expect("global architecture")
                    .request(txn, object, mode);
                self.drain_pcp(to, sched.now());
                self.broadcast_priority_updates(result.priority_updates, sched);
                match result.outcome {
                    RequestOutcome::Granted => {
                        self.send(
                            to,
                            from,
                            Message::LockGrant {
                                txn,
                                call: Some(call),
                            },
                            sched,
                        );
                    }
                    RequestOutcome::Blocked { blocker } => {
                        let pcp = self.global_pcp.as_ref().expect("global architecture");
                        let lower = blocker.filter(|b| {
                            self.specs.get(b).is_some_and(|bs| {
                                bs.base_priority() < self.specs[&txn].base_priority()
                            })
                        });
                        let _ = pcp;
                        self.send(
                            to,
                            from,
                            Message::LockPending {
                                txn,
                                call,
                                lower_priority_blocker: lower,
                            },
                            sched,
                        );
                    }
                    RequestOutcome::Deadlock { .. } => {
                        unreachable!("the ceiling protocol is deadlock-free")
                    }
                }
            }
            Message::LockPending {
                txn,
                call,
                lower_priority_blocker,
            } => {
                let Some((ctx, _)) = self.calls.close(call) else {
                    return; // timed out already
                };
                debug_assert_eq!(ctx, txn);
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return;
                };
                if let Some((_, timeout_ev)) = exec.pending_call.take() {
                    sched.cancel(timeout_ev);
                }
                if !exec.blocked {
                    exec.blocked = true;
                    self.stats
                        .on_block(txn, sched.now(), lower_priority_blocker);
                }
            }
            Message::LockGrant { txn, call } => {
                if let Some(c) = call {
                    let Some((_, _)) = self.calls.close(c) else {
                        return; // timed out; the release is on its way
                    };
                    if let Some(exec) = self.exec.get_mut(&txn) {
                        if let Some((_, timeout_ev)) = exec.pending_call.take() {
                            sched.cancel(timeout_ev);
                        }
                    }
                } else {
                    // Wakeup grant after blocking.
                    let Some(exec) = self.exec.get_mut(&txn) else {
                        return;
                    };
                    if !exec.blocked {
                        return; // duplicated or reordered wakeup
                    }
                    exec.blocked = false;
                    // A retried request may still be in flight; its reply
                    // is now moot.
                    if let Some((open_call, timeout_ev)) = exec.pending_call.take() {
                        sched.cancel(timeout_ev);
                        self.calls.close(open_call);
                    }
                    self.stats.on_unblock(txn, sched.now());
                }
                let Some(exec) = self.exec.get(&txn) else {
                    return; // deadline expired while the grant was in flight
                };
                let (object, mode) = exec.seq[exec.step];
                let home = self.home(txn);
                let primary = self.catalog.primary_site(object);
                if mode == LockMode::Read && primary != home {
                    if let Some(exec) = self.exec.get_mut(&txn) {
                        exec.awaiting_read = true;
                    }
                    self.send(
                        home,
                        primary,
                        Message::RemoteRead { txn, from: home },
                        sched,
                    );
                } else {
                    self.submit_cpu(txn, home, sched);
                }
            }
            Message::PriorityUpdate { txn, priority } => {
                self.eff_prio.insert(txn, priority);
                if let Some(burst) = self.cpus[to.index()].set_priority(txn, priority, sched.now())
                {
                    sched.schedule(
                        burst.finish_at,
                        Ev::BurstDone {
                            site: to,
                            token: burst.token,
                        },
                    );
                }
            }
            Message::ReleaseTxn { txn } => {
                self.release_at_manager(txn, sched);
                if self.faults_active {
                    if let Some(spec) = self.specs.get(&txn) {
                        let from = spec.home_site;
                        self.send(to, from, Message::ReleaseAck { txn }, sched);
                    }
                }
            }
            Message::ReleaseAck { txn } => {
                if let Some((_, retry_ev)) = self.pending_releases.remove(&txn) {
                    sched.cancel(retry_ev);
                }
            }
            Message::RemoteRead { txn, from } => {
                // Serve the read against the primary copy; the lock is held
                // at the manager, so this access is safe.
                self.send(to, from, Message::RemoteReadReply { txn }, sched);
            }
            Message::RemoteReadReply { txn } => {
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return;
                };
                if !exec.awaiting_read {
                    return; // duplicated reply; the burst already ran
                }
                exec.awaiting_read = false;
                let home = self.home(txn);
                self.submit_cpu(txn, home, sched);
            }
            Message::Prepare { txn, coordinator } => {
                if self.participants.contains_key(&(txn, to)) {
                    // Duplicated prepare: the vote is already on its way
                    // (or was lost, in which case the coordinator's vote
                    // timeout aborts).
                    return;
                }
                if self.resolved_participants.contains(&(txn, to)) {
                    // Duplicated prepare delivered after the decision was
                    // processed here: re-voting would resurrect a settled
                    // participant. The coordinator's retransmitted
                    // decision (ack-timeout path) is what re-acks.
                    return;
                }
                let mut participant = Participant::new(txn);
                let ParticipantAction::Reply(vote) = participant.on_prepare(true) else {
                    unreachable!("prepare always yields a vote");
                };
                self.emit(
                    sched.now(),
                    to,
                    SimEventKind::TwoPcVoted {
                        txn,
                        yes: vote == Vote::Yes,
                    },
                );
                self.participants.insert((txn, to), participant);
                self.send(
                    to,
                    coordinator,
                    Message::VoteMsg {
                        txn,
                        site: to,
                        vote,
                    },
                    sched,
                );
            }
            Message::VoteMsg { txn, site, vote } => {
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return; // aborted during voting
                };
                let Some(coordinator) = exec.coordinator.as_mut() else {
                    return;
                };
                match coordinator.on_vote(site, vote) {
                    Some(CoordinatorAction::SendCommit(sites)) => {
                        exec.decided = true;
                        let writes = self.specs[&txn].write_set.clone();
                        let home = self.home(txn);
                        self.emit(
                            sched.now(),
                            home,
                            SimEventKind::TwoPcDecided { txn, commit: true },
                        );
                        for s in &sites {
                            self.send(
                                home,
                                *s,
                                Message::Decision {
                                    txn,
                                    commit: true,
                                    writes: writes.clone(),
                                    coordinator: home,
                                },
                                sched,
                            );
                        }
                        if self.faults_active {
                            // Lost decisions or acks must not wedge a
                            // decided transaction.
                            let timeout = self.twopc_timeout(home, &sites);
                            sched.schedule_after(timeout, Ev::AckTimeout { txn });
                        }
                    }
                    Some(CoordinatorAction::SendAbort(sites)) => {
                        let home = self.home(txn);
                        self.emit(
                            sched.now(),
                            home,
                            SimEventKind::TwoPcDecided { txn, commit: false },
                        );
                        for s in sites {
                            self.send(
                                home,
                                s,
                                Message::Decision {
                                    txn,
                                    commit: false,
                                    writes: Vec::new(),
                                    coordinator: home,
                                },
                                sched,
                            );
                        }
                    }
                    _ => {}
                }
            }
            Message::Decision {
                txn,
                commit,
                writes,
                coordinator,
            } => {
                let Some(mut participant) = self.participants.remove(&(txn, to)) else {
                    // Abort already processed locally — or this is a
                    // retransmitted decision whose ack was lost: ack again
                    // (idempotently empty) so the coordinator can stop.
                    self.resolved_participants.insert((txn, to));
                    if self.faults_active {
                        self.send(to, coordinator, Message::AckMsg { txn, site: to }, sched);
                    }
                    return;
                };
                self.resolved_participants.insert((txn, to));
                let action = participant.on_decision(commit);
                self.emit(sched.now(), to, SimEventKind::TwoPcResolved { txn, commit });
                if action == ParticipantAction::CommitAndAck {
                    let now = sched.now();
                    for &obj in &writes {
                        if self.catalog.primary_site(obj) == to {
                            let value = self.stores[to.index()].read(obj).value + 1;
                            self.stores[to.index()].apply_write(obj, value, txn, now);
                            let version = self.stores[to.index()].read(obj).version;
                            self.emit(
                                now,
                                to,
                                SimEventKind::VersionInstalled {
                                    object: obj,
                                    version,
                                    writer: txn,
                                },
                            );
                        }
                    }
                }
                self.send(to, coordinator, Message::AckMsg { txn, site: to }, sched);
            }
            Message::AckMsg { txn, site } => {
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return;
                };
                let Some(coordinator) = exec.coordinator.as_ref() else {
                    return;
                };
                if !coordinator.is_pending_ack(site) {
                    return; // duplicated ack
                }
                let coordinator = exec.coordinator.as_mut().expect("checked above");
                if let Some(CoordinatorAction::Done { committed }) = coordinator.on_ack(site) {
                    debug_assert!(committed, "only committing 2PCs reach finalize");
                    self.finalize_global(txn, sched);
                }
            }
            Message::SecondaryUpdate {
                object,
                value,
                version,
                writer,
                origin_deadline,
            } => {
                self.start_system_apply(
                    to,
                    SystemApply {
                        object,
                        value,
                        version,
                        writer,
                        repair: false,
                    },
                    origin_deadline,
                    sched,
                );
            }
            Message::RepairRequest { from } => {
                // Replay the newest version of every object this site is
                // primary for (local architecture: primaries are written
                // in place, so this copy is authoritative).
                let mut items = Vec::new();
                for (obj, data) in self.stores[to.index()].iter() {
                    if data.version > 0 && self.catalog.primary_site(obj) == to {
                        items.push((
                            obj,
                            data.value,
                            data.version,
                            data.last_writer.unwrap_or(TxnId(0)),
                        ));
                    }
                }
                if !items.is_empty() {
                    self.send(to, from, Message::RepairReply { items }, sched);
                }
            }
            Message::RepairReply { items } => {
                let now = sched.now();
                for (object, value, version, writer) in items {
                    if self.stores[to.index()].read(object).version < version {
                        self.start_system_apply(
                            to,
                            SystemApply {
                                object,
                                value,
                                version,
                                writer,
                                repair: true,
                            },
                            now,
                            sched,
                        );
                    }
                }
            }
        }
    }
}

/// The distributed simulator: architecture, configuration, catalog and
/// workload in; [`RunReport`] out.
pub struct DistributedSimulator<'a> {
    config: DistributedConfig,
    catalog: Catalog,
    workload: &'a WorkloadSpec,
}

impl fmt::Debug for DistributedSimulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistributedSimulator")
            .field("config", &self.config)
            .finish()
    }
}

impl<'a> DistributedSimulator<'a> {
    /// Creates a simulator over a fully replicated catalog.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is not fully replicated or has fewer than two
    /// sites.
    pub fn new(config: DistributedConfig, catalog: Catalog, workload: &'a WorkloadSpec) -> Self {
        assert_eq!(
            catalog.placement(),
            Placement::FullyReplicated,
            "distributed runs need a fully replicated catalog"
        );
        assert!(catalog.site_count() >= 2, "distributed runs need ≥ 2 sites");
        DistributedSimulator {
            config,
            catalog,
            workload,
        }
    }

    /// Generates the workload from `seed` and runs it to completion.
    pub fn run(&self, seed: u64) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions_distributed(self.config.clone(), &self.catalog, txns)
    }

    /// Like [`DistributedSimulator::run`], but streams every structured
    /// event into `sink` (pass `&mut sink` to keep it afterwards). The
    /// seed fixes the workload, so the same seed yields the same event
    /// sequence.
    pub fn run_with<S: EventSink<SimEvent>>(&self, seed: u64, sink: S) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions_distributed_with(self.config.clone(), &self.catalog, txns, sink)
    }
}

/// Runs an explicit transaction list through the distributed model.
///
/// # Panics
///
/// Panics if two transactions share an id or an id collides with the
/// system-transaction range.
pub fn run_transactions_distributed(
    config: DistributedConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
) -> RunReport {
    run_transactions_distributed_with(config, catalog, txns, NullSink)
}

/// Like [`run_transactions_distributed`], but streams every structured
/// event into `sink` (pass `&mut sink` to keep it afterwards). With
/// [`NullSink`] the instrumentation compiles away.
///
/// # Panics
///
/// Panics if two transactions share an id or an id collides with the
/// system-transaction range.
pub fn run_transactions_distributed_with<S: EventSink<SimEvent>>(
    config: DistributedConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
    sink: S,
) -> RunReport {
    let sites = catalog.site_count();
    let delays = config.topology.delay_matrix(sites, config.comm_delay);
    let mut specs = FxHashMap::default();
    let mut arrivals = Vec::with_capacity(txns.len());
    for spec in txns {
        assert!(
            spec.id.0 < SYSTEM_TXN_BASE,
            "transaction id in system range"
        );
        arrivals.push((spec.arrival, spec.id));
        let prev = specs.insert(spec.id, spec);
        assert!(prev.is_none(), "duplicate transaction id");
    }
    let tracing = sink.enabled();
    // Values needed after `config` moves into the model.
    let fail_site = config.fail_site;
    let crash_windows = config.faults.crashes.clone();
    let temporal_versions = config.temporal_versions;
    let faults_active = fail_site.is_some() || !config.faults.is_noop();
    let mut net = Network::with_faults(delays, config.faults.link);
    let mut cpus: Vec<Cpu<TxnId>> = (0..sites)
        .map(|_| Cpu::new(CpuPolicy::PreemptivePriority))
        .collect();
    let mut global_pcp = match config.architecture {
        CeilingArchitecture::GlobalManager => Some(PriorityCeilingProtocol::read_write()),
        CeilingArchitecture::LocalReplicated => None,
    };
    let mut local_pcps = match config.architecture {
        CeilingArchitecture::GlobalManager => Vec::new(),
        CeilingArchitecture::LocalReplicated => (0..sites)
            .map(|_| PriorityCeilingProtocol::read_write())
            .collect::<Vec<_>>(),
    };
    if tracing {
        net.set_tracing(true);
        for cpu in &mut cpus {
            cpu.set_tracing(true);
        }
        if let Some(pcp) = global_pcp.as_mut() {
            pcp.set_tracing(true);
        }
        for pcp in &mut local_pcps {
            pcp.set_tracing(true);
        }
    }
    let model = DistModel {
        config,
        catalog: catalog.clone(),
        net,
        cpus,
        stores: (0..sites)
            .map(|_| rtdb::ObjectStore::new(catalog.db_size()))
            .collect(),
        global_pcp,
        local_pcps,
        stats: StatsFold::new(),
        specs,
        exec: FxHashMap::default(),
        eff_prio: FxHashMap::default(),
        calls: CallTable::new(),
        participants: FxHashMap::default(),
        resolved_participants: FxHashSet::default(),
        faults_active,
        pending_releases: FxHashMap::default(),
        next_system_id: 0,
        applied_updates: 0,
        stale_updates: 0,
        version_stores: match temporal_versions {
            Some(keep) => (0..sites).map(|_| VersionStore::new(keep)).collect(),
            None => Vec::new(),
        },
        pins: FxHashMap::default(),
        snapshot_reads: 0,
        unconstructible: 0,
        lag_total: 0,
        lag_max: 0,
        replica_reads: 0,
        replica_lag_total: 0,
        replica_lag_max: 0,
        reader_committed: 0,
        reader_missed: 0,
        versions_gced: 0,
        sink,
        scratch_events: Vec::new(),
        scratch_cpu: Vec::new(),
        scratch_net: Vec::new(),
        pending_local: VecDeque::new(),
        spec_pool: Vec::new(),
        exec_pool: Vec::new(),
    };
    let mut engine = Engine::new(model);
    if let Some((site, at)) = fail_site {
        assert!(site.0 < sites, "failed site out of range");
        engine.scheduler_mut().schedule(at, Ev::SiteDown(site));
    }
    for w in &crash_windows {
        assert!(w.site.0 < sites, "crash window site out of range");
        engine
            .scheduler_mut()
            .schedule(w.down_at, Ev::SiteDown(w.site));
        if let Some(up_at) = w.up_at {
            assert!(up_at > w.down_at, "restart precedes crash");
            engine.scheduler_mut().schedule(up_at, Ev::SiteUp(w.site));
        }
    }
    for (arrival, id) in arrivals {
        engine.scheduler_mut().schedule(arrival, Ev::Arrive(id));
    }
    let events = engine.run_to_completion(Some(500_000_000));
    let makespan = engine.now();
    let model = engine.into_model();
    assert!(
        model.exec.is_empty(),
        "simulation drained with live transactions"
    );
    debug_assert!(
        model.pending_releases.is_empty(),
        "release retransmission left dangling"
    );
    // No transaction may leave locks, waiters, or registrations behind —
    // even under message loss and site crashes.
    if let Some(pcp) = model.global_pcp.as_ref() {
        pcp.assert_idle();
    }
    for pcp in &model.local_pcps {
        pcp.assert_idle();
    }
    let stats = model.stats.finish(makespan);
    let ceiling_blocks = model
        .global_pcp
        .as_ref()
        .map(|p| p.ceiling_block_count())
        .unwrap_or_else(|| {
            model
                .local_pcps
                .iter()
                .map(|p| p.ceiling_block_count())
                .sum()
        });
    RunReport {
        stats,
        deadlocks: 0,
        ceiling_blocks,
        preemptions: model.cpus.iter().map(|c| c.preemption_count()).sum(),
        cpu_busy: model.cpus.iter().map(|c| c.busy_time()).sum(),
        remote_messages: model.net.remote_sent_count(),
        net: Some(model.net.stats()),
        events,
        stores: model.stores,
        temporal: temporal_versions.map(|_| {
            let constructible = model.snapshot_reads.saturating_sub(model.unconstructible);
            TemporalStats {
                snapshot_reads: model.snapshot_reads,
                unconstructible: model.unconstructible,
                mean_lag_ticks: if constructible == 0 {
                    0.0
                } else {
                    model.lag_total as f64 / constructible as f64
                },
                max_lag_ticks: model.lag_max,
                mean_replica_lag_ticks: if model.replica_reads == 0 {
                    0.0
                } else {
                    model.replica_lag_total as f64 / model.replica_reads as f64
                },
                max_replica_lag_ticks: model.replica_lag_max,
                reader_committed: model.reader_committed,
                reader_missed: model.reader_missed,
                versions_gced: model.versions_gced,
            }
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starlite::SimDuration;
    use workload::SizeDistribution;

    fn catalog() -> Catalog {
        Catalog::new(30, 3, Placement::FullyReplicated)
    }

    fn config(arch: CeilingArchitecture, delay: u64) -> DistributedConfig {
        DistributedConfig::builder()
            .architecture(arch)
            .comm_delay(SimDuration::from_ticks(delay))
            .cpu_per_object(SimDuration::from_ticks(10))
            .apply_cost(SimDuration::from_ticks(2))
            .build()
    }

    fn update_txn(id: u64, arrival: u64, deadline: u64, site: u8, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(arrival),
            vec![],
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            SiteId(site),
        )
    }

    #[test]
    fn local_update_commits_and_propagates() {
        // Object 3 has primary site 0 (3 % 3 == 0).
        let report = run_transactions_distributed(
            config(CeilingArchitecture::LocalReplicated, 50),
            &catalog(),
            vec![update_txn(1, 0, 10_000, 0, vec![3])],
        );
        assert_eq!(report.stats.committed, 1);
        // The write reached every replica.
        for store in &report.stores {
            assert_eq!(store.read(ObjectId(3)).value, 1);
            assert_eq!(store.read(ObjectId(3)).version, 1);
        }
        // Two secondary updates crossed the network.
        assert_eq!(report.remote_messages, 2);
    }

    #[test]
    fn global_update_commits_via_2pc() {
        let report = run_transactions_distributed(
            config(CeilingArchitecture::GlobalManager, 50),
            &catalog(),
            // Home site 1; write object 4 (primary site 1): local 2PC leg.
            vec![update_txn(1, 0, 100_000, 1, vec![4])],
        );
        assert_eq!(report.stats.committed, 1);
        // The primary copy was updated; replicas do not exist in the
        // global architecture (other stores stay at version 0).
        assert_eq!(report.stores[1].read(ObjectId(4)).version, 1);
        assert_eq!(report.stores[0].read(ObjectId(4)).version, 0);
    }

    #[test]
    fn global_is_slower_than_local_under_delay() {
        let txns = vec![
            update_txn(1, 0, 100_000, 1, vec![4]),
            update_txn(2, 10, 100_000, 2, vec![5]),
        ];
        let local = run_transactions_distributed(
            config(CeilingArchitecture::LocalReplicated, 100),
            &catalog(),
            txns.clone(),
        );
        let global = run_transactions_distributed(
            config(CeilingArchitecture::GlobalManager, 100),
            &catalog(),
            txns,
        );
        assert_eq!(local.stats.committed, 2);
        assert_eq!(global.stats.committed, 2);
        assert!(
            global.stats.mean_response_ticks > local.stats.mean_response_ticks,
            "global {} should exceed local {}",
            global.stats.mean_response_ticks,
            local.stats.mean_response_ticks
        );
    }

    #[test]
    fn tight_deadline_misses_under_global_but_not_local() {
        // Needs ~2 lock round trips (2×2×100) plus CPU; deadline 150 only
        // fits the local run.
        let txns = vec![update_txn(1, 0, 150, 1, vec![4])];
        let local = run_transactions_distributed(
            config(CeilingArchitecture::LocalReplicated, 100),
            &catalog(),
            txns.clone(),
        );
        let global = run_transactions_distributed(
            config(CeilingArchitecture::GlobalManager, 100),
            &catalog(),
            txns,
        );
        assert_eq!(local.stats.committed, 1);
        assert_eq!(global.stats.missed, 1);
    }

    #[test]
    fn generated_mixed_workload_runs_on_both_architectures() {
        let cat = catalog();
        let workload = WorkloadSpec::builder()
            .txn_count(40)
            .mean_interarrival(SimDuration::from_ticks(80))
            .size(SizeDistribution::Uniform { min: 2, max: 4 })
            .read_only_fraction(0.5)
            .deadline(30.0, SimDuration::from_ticks(20))
            .build();
        for arch in [
            CeilingArchitecture::LocalReplicated,
            CeilingArchitecture::GlobalManager,
        ] {
            let sim = DistributedSimulator::new(config(arch, 20), cat.clone(), &workload);
            let report = sim.run(5);
            assert_eq!(report.stats.processed, 40, "{arch:?}");
            let again = sim.run(5);
            assert_eq!(report.stats, again.stats, "{arch:?} not deterministic");
        }
    }
}
