//! The distributed simulation model for both ceiling architectures.
//!
//! The [site engine](crate::site) runs every site's transaction manager
//! and resource manager: CPUs, replicated stores, the per-site ceiling
//! protocol instances, and each transaction's local steps. This module is
//! its driver and adds only what the paper's message server brings: the
//! simulated network, lock RPCs to the global ceiling manager (site 0's
//! protocol instance), two-phase commit, replica propagation with
//! system-transaction applies, and faults. Message flows:
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

use std::fmt;

use monitor::{AbortReason, SimEvent, SimEventKind};
use netsim::{CallId, CallTable, NetJournalEntry, Network, SendOutcome};
use rtdb::{
    Catalog, Coordinator, CoordinatorAction, LockMode, ObjectId, Participant, ParticipantAction,
    Placement, SiteId, TxnId, TxnSpec, Vote,
};
use starlite::{
    Cpu, CpuPolicy, Engine, EventId, EventSink, FxHashMap, FxHashSet, IoDevice, Model, NullSink,
    Priority, Scheduler, SimDuration, SimTime,
};
use workload::{Generator, WorkloadSpec};

use crate::config::ReaderMode;
use crate::distributed::{CeilingArchitecture, DistributedConfig};
use crate::mvcc::{SnapshotRead, VersionStore};
use crate::protocols::{LockProtocol, PriorityCeilingProtocol, ReleaseReason, RequestOutcome};
use crate::report::RunReport;
use crate::site::{self, Driver, Policy, Site, SiteEngine, SiteEvent};

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

/// The global ceiling manager's site; in the global architecture its
/// protocol instance makes every ceiling decision.
const MANAGER: SiteId = SiteId(0);

#[derive(Debug, Clone)]
enum Message {
    /// Home → manager: register the transaction's declared access sets,
    /// which the manager reads from the spec store.
    RegisterTxn(TxnId),
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
        coordinator: SiteId,
    },
    AckMsg {
        txn: TxnId,
        site: SiteId,
    },
    SecondaryUpdate {
        apply: SystemApply,
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
    /// Peer → restarted site: versions to re-install through the
    /// system-transaction apply path.
    RepairReply {
        items: Vec<SystemApply>,
    },
}

#[derive(Debug)]
enum Ev {
    /// Arrivals, bursts and deadlines, handled by the site engine.
    Site(SiteEvent),
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

impl From<SiteEvent> for Ev {
    fn from(event: SiteEvent) -> Self {
        Ev::Site(event)
    }
}

/// A committed version a secondary-update system transaction applies at
/// a replica.
#[derive(Debug, Clone, Copy)]
struct SystemApply {
    object: ObjectId,
    value: u64,
    version: u64,
    writer: TxnId,
    /// Anti-entropy repair after a restart (emits
    /// [`SimEventKind::ReplicaRepaired`] when the version installs).
    repair: bool,
}

/// What the message server tracks per live transaction.
#[derive(Debug, Default)]
struct Rpc {
    /// Home-site view of the effective priority (global architecture;
    /// updated by `PriorityUpdate` messages).
    priority: Option<Priority>,
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

/// The message server and what rides on it: the network, lock RPCs to
/// the global ceiling manager, two-phase commit, replica propagation and
/// fault recovery.
struct Messaging {
    config: DistributedConfig,
    catalog: Catalog,
    net: Network,
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
    /// Scratch for draining the network journal.
    scratch_net: Vec<NetJournalEntry>,
}

impl Messaging {
    fn global(&self) -> bool {
        self.config.architecture == CeilingArchitecture::GlobalManager
    }
}

/// The distributed model: the site engine with the message server as its
/// driver.
type DistModel<S> = SiteEngine<S, Messaging>;

impl Driver for Messaging {
    type Event = Ev;
    type Protocol = PriorityCeilingProtocol;
    type Txn = Rpc;
    const JOURNALS_INSTALLS: bool = true;

    fn is_system(txn: TxnId) -> bool {
        txn.0 >= SYSTEM_TXN_BASE
    }

    /// An arrival at a site that is down never starts, but it is still
    /// registered so the run's accounting closes (committed + missed +
    /// faulted + in_progress == generated).
    fn arrive<S: EventSink<SimEvent>>(e: &mut DistModel<S>, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let home = e.home(txn);
        if e.driver.net.is_site_up(home) {
            e.arrive(txn, sched);
            return;
        }
        let now = sched.now();
        e.register(txn, now);
        e.finish(txn, home, Some(AbortReason::SiteFailed), now);
    }

    fn admit<S: EventSink<SimEvent>>(e: &mut DistModel<S>, txn: TxnId, sched: &mut Scheduler<Ev>) {
        if !e.driver.global() {
            e.admit_local(txn, sched.now());
            e.start(txn, sched);
            return;
        }
        let spec = &e.specs[txn];
        let (home, priority) = (spec.home_site, spec.base_priority());
        e.rpc(txn).priority = Some(priority);
        e.send(home, MANAGER, Message::RegisterTxn(txn), sched);
        e.advance_global(txn, sched);
    }

    fn step_done<S: EventSink<SimEvent>>(
        e: &mut DistModel<S>,
        txn: TxnId,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(exec) = e.exec.get_mut(&txn) else {
            return;
        };
        if let Some(apply) = exec.ext.system {
            // A secondary-update system transaction finished its burst:
            // install the version and finish.
            let site = exec.site;
            e.finish_system_apply(txn, site, apply, sched);
        } else if e.driver.global() {
            exec.step += 1;
            e.advance_global(txn, sched);
        } else {
            e.next_step(txn, sched);
        }
    }

    fn deadline<S: EventSink<SimEvent>>(
        e: &mut DistModel<S>,
        txn: TxnId,
        sched: &mut Scheduler<Ev>,
    ) {
        let home = e.home(txn);
        let exec = e.exec.get_mut(&txn).expect("live transaction");
        if exec.ext.decided {
            // Commit decision already broadcast; it will complete, counted
            // as missed.
            exec.ext.deadline_passed = true;
            return;
        }
        // Abort a 2PC still collecting votes.
        let voting_abort = exec
            .ext
            .coordinator
            .as_mut()
            .and_then(|c| c.on_vote_timeout());
        if let Some(CoordinatorAction::SendAbort(sites)) = voting_abort {
            e.decide(txn, home, &sites, false, sched);
        }
        e.close_call(txn, sched);
        e.abort(txn, AbortReason::DeadlineMissed, sched);
        if e.driver.global() {
            e.send_release(txn, sched);
        } else {
            e.release(txn, home, ReleaseReason::Finished, sched);
            e.pump(sched);
        }
    }

    /// Local architecture: a write committed at its primary copy is
    /// propagated to every other site.
    fn installed<S: EventSink<SimEvent>>(
        e: &mut DistModel<S>,
        site: SiteId,
        txn: TxnId,
        object: ObjectId,
        value: u64,
        version: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        debug_assert_eq!(
            e.driver.catalog.primary_site(object),
            site,
            "restriction 2: writes must be primary at the home site"
        );
        let origin_deadline = e.specs[txn].deadline;
        let apply = SystemApply {
            object,
            value,
            version,
            writer: txn,
            repair: false,
        };
        for s in e.driver.catalog.sites() {
            if s != site {
                let update = Message::SecondaryUpdate {
                    apply,
                    origin_deadline,
                };
                e.send(site, s, update, sched);
            }
        }
    }

    fn effective_priority<S>(e: &DistModel<S>, txn: TxnId, site: SiteId) -> Priority {
        if e.driver.global() {
            e.exec[&txn].ext.priority.expect("registered at arrival")
        } else {
            e.sites[site.index()].protocol.effective_priority(txn)
        }
    }

    fn on_read<S: EventSink<SimEvent>>(
        e: &mut DistModel<S>,
        txn: TxnId,
        object: ObjectId,
        site: SiteId,
        _snapshot: Option<SnapshotRead>,
        now: SimTime,
    ) {
        e.probe_snapshot(txn, object, site, now);
    }
}

impl<S: EventSink<SimEvent>> Model for DistModel<S> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Site(event) => self.on_site_event(event, sched),
            Ev::Deliver { from, to, msg } => {
                // The destination's fate is decided at *delivery* time: a
                // message in flight towards a site that has since gone
                // down is lost, not handled.
                if self.driver.net.deliver(to) {
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
        self.flush_cpu_journals();
        self.flush_net_journal();
    }
}

impl<S: EventSink<SimEvent>> DistModel<S> {
    /// Forwards the network's send events; each journal entry carries its
    /// own timestamp.
    fn flush_net_journal(&mut self) {
        if !self.tracing() {
            return;
        }
        self.driver.net.drain_journal(&mut self.driver.scratch_net);
        for i in 0..self.driver.scratch_net.len() {
            let entry = self.driver.scratch_net[i];
            let (from, to) = (entry.from, entry.to);
            self.emit(entry.sent_at, from, SimEventKind::MsgSent { from, to });
        }
        self.driver.scratch_net.clear();
    }

    fn home(&self, txn: TxnId) -> SiteId {
        self.specs[txn].home_site
    }

    /// The message-server state of live transaction `txn`.
    fn rpc(&mut self, txn: TxnId) -> &mut Rpc {
        &mut self.exec.get_mut(&txn).expect("live transaction").ext
    }

    fn send(&mut self, from: SiteId, to: SiteId, msg: Message, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let in_flight = match self.driver.net.send(from, to, now) {
            SendOutcome::Deliver { at } => {
                sched.schedule(at, Ev::Deliver { from, to, msg });
                return;
            }
            SendOutcome::DeliverTwice { at, again_at } => {
                self.emit(now, from, SimEventKind::MsgDuplicated { from, to });
                let copy = msg.clone();
                sched.schedule(
                    at,
                    Ev::Deliver {
                        from,
                        to,
                        msg: copy,
                    },
                );
                sched.schedule(again_at, Ev::Deliver { from, to, msg });
                return;
            }
            SendOutcome::DroppedAtSend => false,
            // The loss is drawn at send time but modelled as an in-flight
            // loss; journal it at the sender, which is where it is known.
            SendOutcome::LostInFlight => true,
        };
        let dropped = SimEventKind::MsgDropped {
            from,
            to,
            in_flight,
        };
        self.emit(now, from, dropped);
    }

    /// Closes `txn`'s open lock RPC, if any.
    fn close_call(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        if let Some((call, timeout_ev)) = self
            .exec
            .get_mut(&txn)
            .and_then(|e| e.ext.pending_call.take())
        {
            sched.cancel(timeout_ev);
            self.driver.calls.close(call);
        }
    }

    /// Decides `txn`'s two-phase commit and tells its participants.
    fn decide(
        &mut self,
        txn: TxnId,
        home: SiteId,
        sites: &[SiteId],
        commit: bool,
        sched: &mut Scheduler<Ev>,
    ) {
        self.emit(
            sched.now(),
            home,
            SimEventKind::TwoPcDecided { txn, commit },
        );
        self.send_decision(txn, home, sites, commit, sched);
    }

    /// Sends `txn`'s decision to `sites`. A commit is, in fault mode,
    /// retransmitted until acknowledged, so lost decisions or acks cannot
    /// wedge a decided transaction.
    fn send_decision(
        &mut self,
        txn: TxnId,
        home: SiteId,
        sites: &[SiteId],
        commit: bool,
        sched: &mut Scheduler<Ev>,
    ) {
        for &s in sites {
            let decision = Message::Decision {
                txn,
                commit,
                coordinator: home,
            };
            self.send(home, s, decision, sched);
        }
        if commit && self.driver.faults_active {
            let timeout = self.twopc_timeout(home, sites);
            sched.schedule_after(timeout, Ev::AckTimeout { txn });
        }
    }

    // ----- fault injection & recovery -----------------------------------

    /// Lock-RPC patience: the round trip plus the configured slack plus
    /// headroom for the worst jitter on both legs (zero without faults).
    fn rpc_timeout(&self, from: SiteId, to: SiteId) -> SimDuration {
        let config = &self.driver.config;
        self.driver
            .net
            .round_trip_timeout(from, to, config.lock_timeout_slack)
            + SimDuration::from_ticks(2 * config.faults.link.jitter_ticks)
    }

    /// 2PC patience: the slowest participant round trip plus slack and
    /// jitter headroom.
    fn twopc_timeout(&self, home: SiteId, sites: &[SiteId]) -> SimDuration {
        sites
            .iter()
            .map(|&s| self.rpc_timeout(home, s))
            .max()
            .unwrap_or(self.driver.config.lock_timeout_slack)
    }

    /// Sends `ReleaseTxn` towards the manager; in fault mode the release
    /// is retransmitted until the manager acknowledges it.
    fn send_release(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let home = self.home(txn);
        self.send(home, MANAGER, Message::ReleaseTxn { txn }, sched);
        if self.driver.faults_active {
            let retry_ev =
                sched.schedule_after(self.rpc_timeout(home, MANAGER), Ev::ReleaseRetry { txn });
            self.driver.pending_releases.insert(txn, (0, retry_ev));
        }
    }

    /// Releases `txn` at the manager and routes the wakeups home (the
    /// body of the `ReleaseTxn` handler, shared with the failure-detector
    /// paths that release directly).
    fn release_at_manager(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let release = self.sites[MANAGER.index()]
            .protocol
            .release_all(txn, ReleaseReason::Finished);
        self.drain_protocol(MANAGER, sched.now());
        for w in &release.wakeups {
            let waiter_home = self.home(w.txn);
            let grant = Message::LockGrant {
                txn: w.txn,
                call: None,
            };
            self.send(MANAGER, waiter_home, grant, sched);
        }
        self.broadcast_priority_updates(release.priority_updates, sched);
    }

    /// A pending release went unacknowledged: retransmit, give up on a
    /// dead manager, or escalate to a direct failure-detector release so
    /// locks can never leak.
    fn on_release_retry(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(&(attempts, _)) = self.driver.pending_releases.get(&txn) else {
            return; // acknowledged in the meantime
        };
        if !self.driver.net.is_site_up(MANAGER) {
            // The manager's lock state died (or dies) with it; nothing
            // left to release.
            self.driver.pending_releases.remove(&txn);
            return;
        }
        if attempts >= MAX_RELEASE_RETRIES {
            self.driver.pending_releases.remove(&txn);
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
        self.send(home, MANAGER, Message::ReleaseTxn { txn }, sched);
        let retry_ev =
            sched.schedule_after(self.rpc_timeout(home, MANAGER), Ev::ReleaseRetry { txn });
        self.driver
            .pending_releases
            .insert(txn, (attempts + 1, retry_ev));
    }

    /// Aborts a live transaction because of a site failure: counts it as
    /// fault-aborted, cancels its timers and open call, removes it from
    /// its home CPU, and (global architecture) releases its locks through
    /// the failure detector.
    fn fault_abort(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        self.close_call(txn, sched);
        let Some(home) = self.abort(txn, AbortReason::SiteFailed, sched) else {
            return;
        };
        if self.reader_mode(txn) == Some(ReaderMode::Snapshot) {
            // A crashing reader drops its pin; the store's state is reset
            // with the site anyway, but the pin map must not leak.
            self.release_pin(txn, home, sched.now());
        }
        if self.driver.global() && self.driver.net.is_site_up(MANAGER) {
            // The failure detector tells the manager immediately; the
            // local architecture resets the whole per-site instance
            // instead (crashes are the only local fault-abort source).
            self.release_at_manager(txn, sched);
        }
    }

    /// A site crashes: messages to it start dropping, its resident
    /// transactions abort, and its protocol state is lost.
    fn on_site_down(&mut self, site: SiteId, sched: &mut Scheduler<Ev>) {
        if !self.driver.net.is_site_up(site) {
            return; // overlapping crash windows
        }
        self.driver.net.set_site_up(site, false);
        self.emit(sched.now(), site, SimEventKind::SiteCrashed);
        let now = sched.now();
        let mut residents: Vec<TxnId> = self
            .exec
            .iter()
            .filter(|(_, e)| e.site == site)
            .map(|(&t, _)| t)
            .collect();
        residents.sort_unstable();
        for txn in residents {
            if Messaging::is_system(txn) {
                // Secondary-update appliers die silently with the site.
                self.retire_system(txn);
                self.sites[site.index()].cpu.remove(txn, now);
            } else {
                self.fault_abort(txn, sched);
            }
        }
        // The site's lock state dies with it: survivors of a manager crash
        // drain via lock-RPC timeouts and their deadlines. (A global
        // architecture's other sites hold no lock state.)
        let mut pcp = PriorityCeilingProtocol::read_write();
        pcp.set_tracing(self.tracing());
        *self.sites[site.index()].protocol = pcp;
        // Orphaned 2PC participant state at the crashed site. Resolution
        // memory is volatile too: a recovered participant may vote afresh.
        self.driver.participants.retain(|&(_, s), _| s != site);
        self.driver
            .resolved_participants
            .retain(|&(_, s)| s != site);
    }

    /// A site restarts: messages flow again; a replicated site asks every
    /// peer to replay the newest versions of the objects it is primary
    /// for (anti-entropy). Under the global architecture nothing else is
    /// needed — new arrivals re-register with the manager as usual.
    fn on_site_up(&mut self, site: SiteId, sched: &mut Scheduler<Ev>) {
        if self.driver.net.is_site_up(site) {
            return;
        }
        self.driver.net.set_site_up(site, true);
        self.emit(sched.now(), site, SimEventKind::SiteRecovered);
        if !self.driver.global() {
            for s in self.driver.catalog.sites() {
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
        let Some(coordinator) = exec.ext.coordinator.as_mut() else {
            return;
        };
        let Some(CoordinatorAction::SendAbort(sites)) = coordinator.on_vote_timeout() else {
            return; // decided in time
        };
        let home = exec.site;
        self.decide(txn, home, &sites, false, sched);
        self.fault_abort(txn, sched);
    }

    /// Fault mode: a commit decision went unacknowledged — retransmit it
    /// to the sites still owing an ack, bounded; then stop waiting.
    fn on_ack_timeout(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return; // finalized in the meantime
        };
        let Some(coordinator) = exec.ext.coordinator.as_ref() else {
            return;
        };
        let pending = coordinator.pending_acks();
        if pending.is_empty() {
            return;
        }
        if exec.ext.ack_attempts >= MAX_ACK_RETRIES {
            // The decision stands; finalize with the acks that made it.
            self.finalize_global(txn, sched);
            return;
        }
        exec.ext.ack_attempts += 1;
        let attempt = exec.ext.ack_attempts;
        let home = exec.site;
        self.emit(sched.now(), home, SimEventKind::RpcRetried { txn, attempt });
        self.send_decision(txn, home, &pending, true, sched);
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
        self.request_lock(txn, 0, sched);
    }

    /// Sends the current step's lock request to the manager and arms its
    /// timeout, the round trip scaled by `2^backoff`.
    fn request_lock(&mut self, txn: TxnId, backoff: u32, sched: &mut Scheduler<Ev>) {
        let exec = &self.exec[&txn];
        let (object, mode) = exec.seq[exec.step];
        let home = exec.site;
        let call = self.driver.calls.open(txn, None);
        let timeout = SimDuration::from_ticks(self.rpc_timeout(home, MANAGER).ticks() << backoff);
        let timeout_ev = sched.schedule_after(timeout, Ev::LockTimeout { call });
        self.rpc(txn).pending_call = Some((call, timeout_ev));
        let request = Message::LockRequest {
            txn,
            object,
            mode,
            call,
            from: home,
        };
        self.send(home, MANAGER, request, sched);
    }

    /// Reports a lifecycle bug. Release builds lose the assertion, so it
    /// goes through the event stream too, where the invariant oracle turns
    /// it into a violation.
    fn anomaly(&mut self, at: SimTime, site: SiteId, txn: Option<TxnId>, detail: &'static str) {
        self.emit(at, site, SimEventKind::ProtocolAnomaly { txn, detail });
        debug_assert!(false, "{detail}");
    }

    /// A lock RPC went unanswered (the message or its reply was lost, or
    /// the manager site is down): retry with exponential backoff while
    /// the budget lasts, then unblock the sender and abort as missed.
    fn on_lock_timeout(&mut self, call: CallId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(txn) = self.driver.calls.time_out(call) else {
            // Every path that resolves a pending lock RPC also cancels
            // its timeout event, so a timeout firing for a closed call is
            // a lifecycle bug, not a race.
            let detail = "stale LockTimeout fired for a closed call";
            self.anomaly(now, MANAGER, None, detail);
            return;
        };
        let Some(exec) = self.exec.get_mut(&txn) else {
            let detail = "open lock RPC for a finished transaction";
            self.anomaly(now, self.home(txn), Some(txn), detail);
            return;
        };
        exec.ext.pending_call = None;
        if exec.ext.attempts >= self.driver.config.max_rpc_retries {
            // Best-effort release towards the (possibly dead) manager.
            self.abort(txn, AbortReason::DeadlineMissed, sched);
            self.send_release(txn, sched);
            return;
        }
        exec.ext.attempts += 1;
        let attempt = exec.ext.attempts;
        let home = exec.site;
        self.emit(now, home, SimEventKind::RpcRetried { txn, attempt });
        if self.driver.faults_active {
            // The lost message may have been the registration itself;
            // the manager ignores a duplicate.
            self.send(home, MANAGER, Message::RegisterTxn(txn), sched);
        }
        self.request_lock(txn, attempt.min(MAX_BACKOFF_SHIFT), sched);
    }

    /// Begins the commit phase: read-only transactions finish immediately;
    /// updates run two-phase commit over the primary sites of their write
    /// set.
    fn commit_global(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let spec = &self.specs[txn];
        let home = spec.home_site;
        if spec.write_set().is_empty() {
            self.finalize_global(txn, sched);
            return;
        }
        let mut participant_sites: Vec<SiteId> = spec
            .write_set()
            .iter()
            .map(|&o| self.driver.catalog.primary_site(o))
            .collect();
        participant_sites.sort_unstable();
        participant_sites.dedup();
        let mut coordinator = Coordinator::new(txn, participant_sites);
        let CoordinatorAction::SendPrepare(sites) = coordinator.start() else {
            unreachable!("a fresh coordinator always sends prepare");
        };
        self.rpc(txn).coordinator = Some(coordinator);
        self.emit(
            sched.now(),
            home,
            SimEventKind::TwoPcStarted {
                txn,
                participants: sites.len() as u32,
            },
        );
        for s in &sites {
            let prepare = Message::Prepare {
                txn,
                coordinator: home,
            };
            self.send(home, *s, prepare, sched);
        }
        if self.driver.faults_active {
            // A crashed participant (or a lost prepare/vote) must not
            // leave the coordinator waiting forever.
            let timeout = self.twopc_timeout(home, &sites);
            sched.schedule_after(timeout, Ev::VoteTimeout { txn });
        }
    }

    /// All acknowledgements arrived: the transaction leaves the system.
    fn finalize_global(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let exec = self.retire(txn, sched).expect("finalizing unknown txn");
        let missed = exec
            .ext
            .deadline_passed
            .then_some(AbortReason::DeadlineMissed);
        let home = exec.site;
        self.recycle(exec);
        self.finish(txn, home, missed, sched.now());
        self.send_release(txn, sched);
    }

    /// Routes priority updates from the manager to the home sites.
    fn broadcast_priority_updates(
        &mut self,
        updates: Vec<(TxnId, Priority)>,
        sched: &mut Scheduler<Ev>,
    ) {
        for (txn, priority) in updates {
            if let Some(spec) = self.specs.get(txn) {
                let to = spec.home_site;
                self.send(
                    MANAGER,
                    to,
                    Message::PriorityUpdate { txn, priority },
                    sched,
                );
            }
        }
    }

    // ----- local architecture -------------------------------------------

    /// A propagated update arrived: run it as a short system transaction
    /// through the local ceiling manager.
    fn start_system_apply(
        &mut self,
        site: SiteId,
        apply: SystemApply,
        origin_deadline: SimTime,
        sched: &mut Scheduler<Ev>,
    ) {
        let id = TxnId(SYSTEM_TXN_BASE + self.driver.next_system_id);
        self.driver.next_system_id += 1;
        let now = sched.now();
        // System updates run at the originating transaction's priority;
        // a deadline in the past is clamped (the priority ordering shifts
        // negligibly, the update itself has no deadline).
        let deadline = origin_deadline.max(now + SimDuration::from_ticks(1));
        // Overwrite a retired system transaction's spec in place: the
        // constructor's invariants hold by construction here (single
        // write, no reads, deadline after now).
        let spec = self.specs.reuse_slot(id, || {
            TxnSpec::new(id, now, Vec::new(), vec![apply.object], deadline, site)
        });
        spec.id = id;
        spec.arrival = now;
        spec.set_access(&[], &[apply.object]);
        spec.deadline = deadline;
        spec.home_site = site;
        let mut exec = self.take_exec(site, self.driver.config.apply_cost);
        exec.seq.push((apply.object, LockMode::Write));
        exec.ext.system = Some(apply);
        self.exec.insert(id, exec);
        self.admit_local(id, now);
        self.start(id, sched);
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
        let SystemApply {
            object,
            value,
            version,
            writer,
            repair,
        } = apply;
        let store = &mut self.sites[site.index()].store;
        if store.install_version(object, value, version, writer, now) {
            self.install_version(site, object, value, version, writer, now);
            if repair {
                self.emit(now, site, SimEventKind::ReplicaRepaired { object });
            }
        }
        self.retire_system(txn);
        self.release(txn, site, ReleaseReason::Finished, sched);
        self.pump(sched);
    }

    /// Drops a system transaction's record and frees its spec's slot for
    /// the next one.
    fn retire_system(&mut self, txn: TxnId) {
        let exec = self.exec.remove(&txn).expect("live system transaction");
        self.recycle(exec);
        self.specs.retire(txn);
    }

    /// Probes the temporally consistent view for a read-only transaction:
    /// can a snapshot pinned at its arrival be constructed from the
    /// retained versions, and how stale is it?
    fn probe_snapshot(&mut self, txn: TxnId, object: ObjectId, site: SiteId, now: SimTime) {
        let Some(vs) = self.sites[site.index()].versions.as_ref() else {
            return;
        };
        let spec = &self.specs[txn];
        if !spec.write_set().is_empty() {
            return; // only read-only queries pin snapshots
        }
        let pin = spec.arrival;
        let t = &mut self.temporal;
        t.snapshot_reads += 1;
        // Replication lag: how far the local replica's newest version
        // trails the primary copy's newest version right now.
        let primary = self.driver.catalog.primary_site(object);
        let primary_vs = self.sites[primary.index()]
            .versions
            .as_ref()
            .expect("every site keeps versions");
        if primary != site {
            t.replica_reads += 1;
            let lag = match (primary_vs.latest(object), vs.latest(object)) {
                (Some(p), Some(l)) => p.at.saturating_since(l.at),
                (Some(p), None) => p.at.saturating_since(SimTime::ZERO),
                _ => SimDuration::ZERO,
            };
            t.replica_lag_total += lag.ticks() as u128;
            t.replica_lag_max = t.replica_lag_max.max(lag.ticks());
        }
        if vs.read_at(object, pin).is_evicted() {
            // The version the pin needs was evicted (or never propagated
            // here): genuinely unconstructible. A pin before the first
            // retained version with nothing evicted reads the object's
            // initial value instead.
            t.unconstructible += 1;
            return;
        }
        // Staleness of the constructible snapshot: the version the pinned
        // view needs is the one the *primary* copy serves at the pin; the
        // lag is how long after its commit that version became available
        // at the reading site (zero at the primary itself). This is the
        // paper's "time lag in the distributed versions": it grows with
        // the propagation delay, not with how rarely the object happens
        // to be written.
        let lag = match primary_vs.read_at(object, pin).version() {
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
        t.lag_total += lag as u128;
        t.lag_max = t.lag_max.max(lag);
    }

    // ----- message handling ---------------------------------------------

    fn on_message(&mut self, to: SiteId, msg: Message, sched: &mut Scheduler<Ev>) {
        match msg {
            Message::RegisterTxn(txn) => {
                let pcp = &mut self.sites[MANAGER.index()].protocol;
                // A retried registration may duplicate one that made it
                // through, or arrive after the transaction already died;
                // registering either would leak protocol state. A user
                // transaction's slot is never overwritten, so the spec
                // read here is the one the home site admitted.
                if self.exec.contains_key(&txn) && !pcp.is_registered(txn) {
                    pcp.register(&self.specs[txn]);
                }
            }
            Message::LockRequest {
                txn,
                object,
                mode,
                call,
                from,
            } => {
                let pcp = &mut self.sites[MANAGER.index()].protocol;
                if !pcp.is_registered(txn) {
                    // The registration was lost (or released already);
                    // the sender's timeout retries or gives up.
                    return;
                }
                if pcp.is_blocked(txn) {
                    // Retry of a request that is already queued (its
                    // `LockPending` reply was lost): re-acknowledge.
                    let pending = Message::LockPending {
                        txn,
                        call,
                        lower_priority_blocker: None,
                    };
                    self.send(to, from, pending, sched);
                    return;
                }
                let result = pcp.request(txn, object, mode);
                self.drain_protocol(to, sched.now());
                self.broadcast_priority_updates(result.priority_updates, sched);
                let reply = match result.outcome {
                    RequestOutcome::Granted => Message::LockGrant {
                        txn,
                        call: Some(call),
                    },
                    RequestOutcome::Blocked { blocker } => Message::LockPending {
                        txn,
                        call,
                        lower_priority_blocker: blocker.filter(|&b| self.lower_priority(b, txn)),
                    },
                    RequestOutcome::Deadlock { .. } => {
                        unreachable!("the ceiling protocol is deadlock-free")
                    }
                };
                self.send(to, from, reply, sched);
            }
            Message::LockPending {
                txn,
                call,
                lower_priority_blocker,
            } => {
                let Some((ctx, _)) = self.driver.calls.close(call) else {
                    return; // timed out already
                };
                debug_assert_eq!(ctx, txn);
                self.close_call(txn, sched);
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return;
                };
                if !exec.ext.blocked {
                    exec.ext.blocked = true;
                    self.stats
                        .on_block(txn, sched.now(), lower_priority_blocker);
                }
            }
            Message::LockGrant { txn, call } => {
                if let Some(c) = call {
                    if self.driver.calls.close(c).is_none() {
                        return; // timed out; the release is on its way
                    }
                } else {
                    // Wakeup grant after blocking.
                    let Some(exec) = self.exec.get_mut(&txn) else {
                        return;
                    };
                    if !exec.ext.blocked {
                        return; // duplicated or reordered wakeup
                    }
                    exec.ext.blocked = false;
                    self.stats.on_unblock(txn, sched.now());
                }
                // The answered call, or a retried request still in flight
                // whose reply is now moot.
                self.close_call(txn, sched);
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return; // deadline expired while the grant was in flight
                };
                let (object, mode) = exec.seq[exec.step];
                let (home, burst) = (exec.site, exec.burst);
                let primary = self.driver.catalog.primary_site(object);
                if mode == LockMode::Read && primary != home {
                    exec.ext.awaiting_read = true;
                    self.send(
                        home,
                        primary,
                        Message::RemoteRead { txn, from: home },
                        sched,
                    );
                } else {
                    self.submit_cpu(txn, home, burst, sched);
                }
            }
            Message::PriorityUpdate { txn, priority } => {
                if let Some(exec) = self.exec.get_mut(&txn) {
                    exec.ext.priority = Some(priority);
                }
                self.apply_priority_updates(to, &[(txn, priority)], sched);
            }
            Message::ReleaseTxn { txn } => {
                self.release_at_manager(txn, sched);
                if self.driver.faults_active {
                    if let Some(spec) = self.specs.get(txn) {
                        let from = spec.home_site;
                        self.send(to, from, Message::ReleaseAck { txn }, sched);
                    }
                }
            }
            Message::ReleaseAck { txn } => {
                if let Some((_, retry_ev)) = self.driver.pending_releases.remove(&txn) {
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
                if !exec.ext.awaiting_read {
                    return; // duplicated reply; the burst already ran
                }
                exec.ext.awaiting_read = false;
                let (home, burst) = (exec.site, exec.burst);
                self.submit_cpu(txn, home, burst, sched);
            }
            Message::Prepare { txn, coordinator } => {
                let slot = (txn, to);
                if self.driver.participants.contains_key(&slot) {
                    // Duplicated prepare: the vote is already on its way
                    // (or was lost, in which case the coordinator's vote
                    // timeout aborts).
                    return;
                }
                if self.driver.resolved_participants.contains(&slot) {
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
                self.driver.participants.insert(slot, participant);
                let reply = Message::VoteMsg {
                    txn,
                    site: to,
                    vote,
                };
                self.send(to, coordinator, reply, sched);
            }
            Message::VoteMsg { txn, site, vote } => {
                let Some(exec) = self.exec.get_mut(&txn) else {
                    return; // aborted during voting
                };
                let Some(coordinator) = exec.ext.coordinator.as_mut() else {
                    return;
                };
                let (sites, commit) = match coordinator.on_vote(site, vote) {
                    Some(CoordinatorAction::SendCommit(sites)) => (sites, true),
                    Some(CoordinatorAction::SendAbort(sites)) => (sites, false),
                    _ => return,
                };
                exec.ext.decided |= commit;
                let home = exec.site;
                self.decide(txn, home, &sites, commit, sched);
            }
            Message::Decision {
                txn,
                commit,
                coordinator,
            } => {
                let Some(mut participant) = self.driver.participants.remove(&(txn, to)) else {
                    // Abort already processed locally — or this is a
                    // retransmitted decision whose ack was lost: ack again
                    // (idempotently empty) so the coordinator can stop.
                    self.driver.resolved_participants.insert((txn, to));
                    if self.driver.faults_active {
                        self.send(to, coordinator, Message::AckMsg { txn, site: to }, sched);
                    }
                    return;
                };
                self.driver.resolved_participants.insert((txn, to));
                let action = participant.on_decision(commit);
                self.emit(sched.now(), to, SimEventKind::TwoPcResolved { txn, commit });
                if action == ParticipantAction::CommitAndAck {
                    let now = sched.now();
                    // User spec slots are never reused, so the spec still
                    // holds the committed write set.
                    for i in 0..self.specs[txn].write_set().len() {
                        let obj = self.specs[txn].write_set()[i];
                        if self.driver.catalog.primary_site(obj) == to {
                            let store = &mut self.sites[to.index()].store;
                            let value = store.read(obj).value + 1;
                            store.apply_write(obj, value, txn, now);
                            let version = store.read(obj).version;
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
                let Some(coordinator) = exec.ext.coordinator.as_mut() else {
                    return;
                };
                if !coordinator.is_pending_ack(site) {
                    return; // duplicated ack
                }
                if let Some(CoordinatorAction::Done { committed }) = coordinator.on_ack(site) {
                    debug_assert!(committed, "only committing 2PCs reach finalize");
                    self.finalize_global(txn, sched);
                }
            }
            Message::SecondaryUpdate {
                apply,
                origin_deadline,
            } => self.start_system_apply(to, apply, origin_deadline, sched),
            Message::RepairRequest { from } => {
                // Replay the newest version of every object this site is
                // primary for (local architecture: primaries are written
                // in place, so this copy is authoritative).
                let catalog = &self.driver.catalog;
                let items: Vec<SystemApply> = self.sites[to.index()]
                    .store
                    .iter()
                    .filter(|&(obj, data)| data.version > 0 && catalog.primary_site(obj) == to)
                    .map(|(object, data)| SystemApply {
                        object,
                        value: data.value,
                        version: data.version,
                        writer: data.last_writer.unwrap_or(TxnId(0)),
                        repair: true,
                    })
                    .collect();
                if !items.is_empty() {
                    self.send(to, from, Message::RepairReply { items }, sched);
                }
            }
            Message::RepairReply { items } => {
                let now = sched.now();
                for apply in items {
                    if self.sites[to.index()].store.read(apply.object).version < apply.version {
                        self.start_system_apply(to, apply, now, sched);
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
    for spec in &txns {
        assert!(
            spec.id.0 < SYSTEM_TXN_BASE,
            "transaction id in system range"
        );
    }
    let tracing = sink.enabled();
    let mut net = Network::with_faults(
        config.topology.delay_matrix(sites, config.comm_delay),
        config.faults.link,
    );
    net.set_tracing(tracing);
    let site_list = (0..sites)
        .map(|_| {
            Site::new(
                Cpu::new(CpuPolicy::PreemptivePriority),
                IoDevice::parallel(),
                catalog.db_size(),
                config.temporal_versions.map(VersionStore::new),
                None,
                Box::new(PriorityCeilingProtocol::read_write()),
                tracing,
            )
        })
        .collect();
    let policy = Policy {
        cpu_per_object: config.cpu_per_object,
        // Memory-resident database: no I/O.
        io_per_object: SimDuration::ZERO,
        lock_granularity: 1,
        restart_victims: true,
        reader_mode: config.snapshot_readers.then_some(ReaderMode::Snapshot),
        reader_lag: SimDuration::ZERO,
    };
    let fail_site = config.fail_site;
    let crash_windows = config.faults.crashes.clone();
    let driver = Messaging {
        faults_active: fail_site.is_some() || !config.faults.is_noop(),
        config,
        catalog: catalog.clone(),
        net,
        calls: CallTable::new(),
        participants: FxHashMap::default(),
        resolved_participants: FxHashSet::default(),
        pending_releases: FxHashMap::default(),
        next_system_id: 0,
        scratch_net: Vec::new(),
    };
    let mut engine = Engine::new(SiteEngine::new(site_list, txns, policy, sink, driver));
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
    let (model, events, makespan) = site::run(engine);
    debug_assert!(
        model.driver.pending_releases.is_empty(),
        "release retransmission left dangling"
    );
    // No transaction may leave locks, waiters, or registrations behind —
    // even under message loss and site crashes.
    for site in &model.sites {
        site.protocol.assert_idle();
    }
    let remote_messages = model.driver.net.remote_sent_count();
    let net = model.driver.net.stats();
    let report = model.report(events, makespan);
    // The ceiling protocol is deadlock-free, so the engine never restarts
    // a deadlock victim here.
    assert_eq!(
        report.stats.restarts, 0,
        "the ceiling protocol is deadlock-free"
    );
    RunReport {
        remote_messages,
        net: Some(net),
        ..report
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

    /// A read-only transaction woken by a writer's release is probed like
    /// one granted at once: it counts one snapshot read either way.
    #[test]
    fn woken_reads_are_probed() {
        let reader = TxnSpec::new(
            TxnId(2),
            SimTime::from_ticks(5),
            vec![ObjectId(3)],
            vec![],
            SimTime::from_ticks(10_000),
            SiteId(0),
        );
        let writer = update_txn(1, 0, 10_000, 0, vec![3]);
        let config = DistributedConfig {
            temporal_versions: Some(4),
            ..config(CeilingArchitecture::LocalReplicated, 50)
        };
        for (txns, blocks) in [(vec![writer, reader.clone()], true), (vec![reader], false)] {
            let mut sink = starlite::VecSink::new();
            let report =
                run_transactions_distributed_with(config.clone(), &catalog(), txns, &mut sink);
            let blocked = sink.events().iter().any(
                |(_, e)| matches!(e.kind, SimEventKind::LockBlocked { txn, .. } if txn == TxnId(2)),
            );
            assert_eq!(blocked, blocks);
            assert_eq!(report.stats.missed, 0);
            assert_eq!(report.temporal.expect("versions kept").snapshot_reads, 1);
        }
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
