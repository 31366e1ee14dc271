//! The single-site real-time database simulator (the §3 experiments).
//!
//! Drives the full transaction lifecycle on one site:
//!
//! 1. **Arrive** — register with the protocol (declared read/write sets
//!    feed the priority ceilings) and the performance monitor; arm the
//!    deadline timer; assign the EDF priority.
//! 2. **Execute** — for each object in the access sequence: request the
//!    lock; when granted, fetch the object (parallel I/O) and process it
//!    (CPU burst under the protocol's scheduling policy, with preemption
//!    and priority inheritance).
//! 3. **Commit** — apply buffered writes, release all locks (two-phase:
//!    nothing was released earlier), retire from the active set.
//! 4. **Deadline** — a transaction still running at its deadline is
//!    aborted and counts as missed; its locks are released and waiters
//!    wake.
//! 5. **Deadlock** (2PL only) — the victim releases its locks, keeps its
//!    deadline, and restarts from scratch; all its work is wasted.
//!
//! Writes increment the object's value by one, so a finished store must
//! satisfy `value == version == committed writes` — an end-to-end
//! correctness invariant the integration tests check alongside conflict
//! serialisability.

use std::collections::VecDeque;
use std::fmt;

use monitor::{AbortReason, SimEvent, SimEventKind, StatsFold};
use rtdb::{
    Catalog, LatchOutcome, LockMode, ObjectId, Placement, RangeLatchManager, SiteId, TxnId, TxnSpec,
};
use starlite::{
    Completion, Cpu, CpuJournalEntry, CpuJournalKind, CpuToken, Engine, EventId, EventSink,
    FxHashMap, IoDevice, Model, NullSink, Removed, Scheduler, SimTime,
};
use workload::{Generator, WorkloadSpec};

use crate::config::{ReaderMode, SingleSiteConfig};
use crate::mvcc::{SnapshotId, VersionStore};
use crate::protocols::{make_protocol, LockProtocol, ReleaseReason, RequestOutcome, Wakeup};
use crate::report::{RunReport, TemporalStats};

/// Events of the single-site model.
#[derive(Debug)]
enum Ev {
    Arrive(TxnId),
    IoDone { txn: TxnId, attempt: u32 },
    BurstDone { token: CpuToken },
    Deadline(TxnId),
}

/// Pending control-flow work, processed iteratively to keep deadlock
/// cascades off the call stack.
#[derive(Debug)]
enum Pending {
    /// Request the lock for the current step (or commit if past the end).
    Advance(TxnId),
    /// The current step's lock was just granted by a wakeup: fetch and
    /// process the object.
    Resume(TxnId),
    /// Abort and restart a deadlock victim.
    Restart(TxnId),
}

#[derive(Debug)]
struct Exec {
    attempt: u32,
    step: usize,
    /// Data accesses: the objects actually read or written, in order.
    seq: Vec<(ObjectId, LockMode)>,
    /// Lock requests per step: the granule covering each object, with the
    /// granule's mode (write if the transaction writes anything in it).
    lock_seq: Vec<(ObjectId, LockMode)>,
    deadline_ev: EventId,
    write_buffer: Vec<ObjectId>,
    /// Latch-scan mode: the latch guarding the current access is held (a
    /// reader's range latch, once acquired, stays held — and `latched`
    /// stays true — for its whole scan).
    latched: bool,
}

/// Temporal-consistency counters of one run (mvcc configurations only).
#[derive(Debug, Default)]
struct TemporalCounters {
    snapshot_reads: u64,
    unconstructible: u64,
    lag_total: u128,
    lag_max: u64,
    reader_committed: u64,
    reader_missed: u64,
    versions_gced: u64,
}

/// The site id of the single-site model.
const SITE: SiteId = SiteId(0);

struct SiteModel<S> {
    config: SingleSiteConfig,
    protocol: Box<dyn LockProtocol>,
    cpu: Cpu<TxnId>,
    /// I/O transfers are keyed by (transaction, attempt) so completions of
    /// transfers issued before a restart are recognised as stale.
    io: IoDevice<(TxnId, u32)>,
    store: rtdb::ObjectStore,
    stats: StatsFold,
    specs: FxHashMap<TxnId, TxnSpec>,
    exec: FxHashMap<TxnId, Exec>,
    /// Structured event sink ([`NullSink`] in the default configuration:
    /// every `emit` below then monomorphises to nothing).
    sink: S,
    /// Scratch for draining protocol / CPU journals without reallocating.
    scratch_events: Vec<SimEventKind>,
    scratch_cpu: Vec<CpuJournalEntry<TxnId>>,
    /// Reusable control-flow queue for [`SiteModel::pump`]; empty between
    /// events, retained so no event allocates it afresh.
    pending: VecDeque<Pending>,
    /// Retired [`Exec`] records, recycled on the next arrival so the
    /// per-transaction vectors keep their capacity (an arena of
    /// transaction state rather than per-arrival allocations).
    exec_pool: Vec<Exec>,
    /// Reusable granule-space declaration handed to the protocol at each
    /// arrival, plus the buffers that compute it.
    granule_spec: TxnSpec,
    granule_scratch: rtdb::GranuleScratch,
    /// Bounded multi-version store; writers install committed versions
    /// (mvcc configurations only).
    versions: Option<VersionStore>,
    /// Interval latches for scan/point coexistence (latch-scan mode only).
    latches: Option<RangeLatchManager>,
    /// Live snapshot pins: reader → (handle, pinned instant).
    pins: FxHashMap<TxnId, (SnapshotId, SimTime)>,
    temporal: TemporalCounters,
}

impl<S> fmt::Debug for SiteModel<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteModel")
            .field("active", &self.exec.len())
            .field("protocol", &self.protocol.name())
            .finish()
    }
}

impl<S: EventSink<SimEvent>> Model for SiteModel<S> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::Arrive(txn) => self.on_arrive(txn, sched),
            Ev::IoDone { txn, attempt } => self.on_io_done(txn, attempt, sched),
            Ev::BurstDone { token } => self.on_burst_done(token, sched),
            Ev::Deadline(txn) => self.on_deadline(txn, sched),
        }
        self.flush_cpu_journal();
    }
}

impl<S: EventSink<SimEvent>> SiteModel<S> {
    /// Emits one unified event, stamped with this site. The `S::ENABLED`
    /// check is a monomorphisation-time constant: with [`NullSink`] this
    /// whole function — including construction of `kind` at every call
    /// site the optimiser can see — compiles to nothing.
    fn emit(&mut self, at: SimTime, kind: SimEventKind) {
        if S::ENABLED && self.sink.enabled() {
            self.sink.emit(at, SimEvent::new(SITE, kind));
        }
    }

    /// Forwards everything the protocol journalled during the call that
    /// just returned, stamped with the current instant. Called immediately
    /// after each protocol request/release so the unified stream preserves
    /// the true interleaving with transaction lifecycle events.
    fn drain_protocol(&mut self, now: SimTime) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        self.protocol.drain_events(&mut self.scratch_events);
        for i in 0..self.scratch_events.len() {
            let kind = self.scratch_events[i];
            self.sink.emit(now, SimEvent::new(SITE, kind));
        }
        self.scratch_events.clear();
    }

    /// Forwards dispatch/preemption events recorded by the kernel's CPU
    /// model; each entry carries its own timestamp.
    fn flush_cpu_journal(&mut self) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        self.cpu.drain_journal(&mut self.scratch_cpu);
        for i in 0..self.scratch_cpu.len() {
            let entry = &self.scratch_cpu[i];
            let kind = match entry.kind {
                CpuJournalKind::Dispatched => SimEventKind::Dispatched { txn: entry.task },
                CpuJournalKind::Preempted => SimEventKind::Preempted { txn: entry.task },
            };
            let at = entry.at;
            self.sink.emit(at, SimEvent::new(SITE, kind));
        }
        self.scratch_cpu.clear();
    }

    fn on_arrive(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let priority = self
            .specs
            .get(&txn)
            .expect("arriving txn has a spec")
            .base_priority();
        self.emit(sched.now(), SimEventKind::TxnArrived { txn, priority });
        let spec = self.specs.get(&txn).expect("arriving txn has a spec");
        self.stats.register(spec);
        let deadline_ev = sched.schedule(spec.deadline, Ev::Deadline(txn));
        let mut exec = self.exec_pool.pop().unwrap_or_else(|| Exec {
            attempt: 0,
            step: 0,
            seq: Vec::new(),
            lock_seq: Vec::new(),
            deadline_ev,
            write_buffer: Vec::new(),
            latched: false,
        });
        exec.attempt = 0;
        exec.step = 0;
        exec.deadline_ev = deadline_ev;
        exec.latched = false;
        exec.seq.clear();
        exec.seq.extend(spec.access_ops());
        let lockless = matches!(
            self.reader_mode(txn),
            Some(ReaderMode::Snapshot | ReaderMode::LatchScan)
        );
        if lockless {
            // Snapshot and latch-scan readers never touch the lock
            // protocol: no registration (their declared sets must not
            // inflate priority ceilings) and no lock requests.
            exec.lock_seq.clear();
        } else {
            // Map object accesses onto lock granules: a granule is
            // write-mode if the transaction writes any object inside it.
            self.granule_scratch.map(
                spec,
                self.config.lock_granularity,
                &mut self.granule_spec,
                &mut exec.lock_seq,
            );
            self.protocol.register(&self.granule_spec);
        }
        self.exec.insert(txn, exec);
        self.emit(sched.now(), SimEventKind::TxnStarted { txn });
        if self.reader_mode(txn) == Some(ReaderMode::Snapshot) {
            let mvcc = self.config.mvcc.expect("snapshot mode implies mvcc");
            let spec = &self.specs[&txn];
            let pin_at =
                SimTime::from_ticks(spec.arrival.ticks().saturating_sub(mvcc.reader_lag.ticks()));
            let id = self
                .versions
                .as_mut()
                .expect("mvcc configurations have a version store")
                .pin(pin_at);
            self.pins.insert(txn, (id, pin_at));
            self.emit(
                sched.now(),
                SimEventKind::SnapshotPinned { txn, pin: pin_at },
            );
        }
        self.pending.push_back(Pending::Advance(txn));
        self.pump(sched);
    }

    /// The reader mode serving `txn`, when it is a read-only transaction
    /// of an mvcc-enabled run (`None` for update transactions and for
    /// classic single-version runs).
    fn reader_mode(&self, txn: TxnId) -> Option<ReaderMode> {
        let mvcc = self.config.mvcc?;
        let spec = self.specs.get(&txn)?;
        spec.write_set.is_empty().then_some(mvcc.reader_mode)
    }

    /// Retires a transaction's execution record into the pool, keeping its
    /// vector capacities for the next arrival.
    fn recycle(&mut self, mut exec: Exec) {
        exec.write_buffer.clear();
        self.exec_pool.push(exec);
    }

    fn on_io_done(&mut self, txn: TxnId, attempt: u32, sched: &mut Scheduler<Ev>) {
        // The physical transfer finished regardless of whether the
        // transaction still wants it; a freed channel starts the next
        // queued transfer (bounded-parallelism configurations).
        if let Some(started) = self.io.complete(sched.now()) {
            let (queued_txn, queued_attempt) = started.task;
            sched.schedule(
                started.finish_at,
                Ev::IoDone {
                    txn: queued_txn,
                    attempt: queued_attempt,
                },
            );
        }
        let live = self.exec.get(&txn).is_some_and(|e| e.attempt == attempt);
        if !live {
            return; // aborted or restarted while the I/O was in flight
        }
        self.submit_cpu(txn, sched);
    }

    fn on_burst_done(&mut self, token: CpuToken, sched: &mut Scheduler<Ev>) {
        match self.cpu.complete(token, sched.now()) {
            Completion::Stale => {}
            Completion::Finished { task, next } => {
                if let Some(burst) = next {
                    sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
                }
                self.finish_access(task, sched);
            }
        }
    }

    fn on_deadline(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.remove(&txn) else {
            return; // already finished (its deadline event was cancelled)
        };
        self.recycle(exec);
        self.stats.on_miss(txn, sched.now());
        self.emit(
            sched.now(),
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            },
        );
        if let Removed::WasRunning { next: Some(burst) } = self.cpu.remove(txn, sched.now()) {
            sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
        }
        let reader = self.reader_mode(txn);
        if reader.is_some() {
            self.temporal.reader_missed += 1;
        }
        if reader == Some(ReaderMode::Snapshot) {
            self.release_pin(txn, sched.now());
            return; // never touched the lock protocol or the latches
        }
        self.release_latches(txn, sched);
        if reader == Some(ReaderMode::LatchScan) {
            self.pump(sched);
            return; // never registered with the lock protocol
        }
        let release = self.protocol.release_all(txn, ReleaseReason::Finished);
        self.drain_protocol(sched.now());
        self.apply_release(release.wakeups, release.priority_updates, sched);
        self.pump(sched);
    }

    /// Closes `txn`'s snapshot pin and sweeps version chains the released
    /// watermark now lets GC trim.
    fn release_pin(&mut self, txn: TxnId, now: SimTime) {
        let Some((id, _)) = self.pins.remove(&txn) else {
            return;
        };
        let vs = self.versions.as_mut().expect("pinned txn has a store");
        vs.unpin(id);
        for (object, through) in vs.gc() {
            self.temporal.versions_gced += 1;
            self.emit(now, SimEventKind::VersionGced { object, through });
        }
    }

    /// Releases every latch held or awaited by `txn` and resumes the
    /// requests that grant unblocks. A no-op outside latch-scan mode.
    fn release_latches(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(lm) = self.latches.as_mut() else {
            return;
        };
        let had = lm.holds(txn) || lm.is_waiting(txn);
        let woken = lm.release_all(txn);
        let now = sched.now();
        if had {
            self.emit(now, SimEventKind::RangeLatchReleased { txn });
        }
        for g in woken {
            let Some(exec) = self.exec.get_mut(&g.txn) else {
                continue;
            };
            exec.latched = true;
            self.emit(
                now,
                SimEventKind::RangeLatchAcquired {
                    txn: g.txn,
                    lo: g.lo,
                    hi: g.hi,
                    mode: g.mode,
                },
            );
            self.stats.on_unblock(g.txn, now);
            self.pending.push_back(Pending::Resume(g.txn));
        }
    }

    /// Processes pending control-flow work until quiescent. The queue is a
    /// reusable model field (empty between events), so pumping allocates
    /// nothing in the steady state.
    fn pump(&mut self, sched: &mut Scheduler<Ev>) {
        while let Some(item) = self.pending.pop_front() {
            match item {
                Pending::Advance(txn) => self.advance(txn, sched),
                Pending::Resume(txn) => self.resume_step(txn, sched),
                Pending::Restart(txn) => self.restart(txn, sched),
            }
        }
    }

    /// Requests the current step's lock (or commits when past the end).
    fn advance(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get(&txn) else {
            return; // deadline fired in between
        };
        if exec.step == exec.seq.len() {
            self.commit(txn, sched);
            return;
        }
        match self.reader_mode(txn) {
            // Snapshot readers access versioned state lock-free.
            Some(ReaderMode::Snapshot) => {
                self.start_io(txn, sched);
                return;
            }
            // Latch-scan readers take one range latch over their whole
            // read set at the first step, then scan under it.
            Some(ReaderMode::LatchScan) => {
                if self.exec[&txn].latched || self.try_latch(txn, sched) {
                    self.start_io(txn, sched);
                }
                return;
            }
            _ => {}
        }
        // A writer's point latch covers one step at a time.
        self.exec.get_mut(&txn).expect("checked above").latched = false;
        let exec = &self.exec[&txn];
        let (granule, gmode) = exec.lock_seq[exec.step];
        let result = self.protocol.request(txn, granule, gmode);
        self.drain_protocol(sched.now());
        self.apply_priority_updates(&result.priority_updates, sched);
        match result.outcome {
            RequestOutcome::Granted => {
                if self.needs_point_latch(txn) && !self.try_latch(txn, sched) {
                    return; // queued behind a scan; resumed by its release
                }
                self.start_io(txn, sched)
            }
            RequestOutcome::Blocked { blocker } => {
                let lower = blocker.filter(|b| {
                    self.specs
                        .get(b)
                        .is_some_and(|s| s.base_priority() < self.specs[&txn].base_priority())
                });
                self.stats.on_block(txn, sched.now(), lower);
            }
            RequestOutcome::Deadlock { victim } => {
                // The requester is queued inside the protocol either way;
                // record the block, then schedule the victim's restart.
                self.stats.on_block(txn, sched.now(), None);
                self.pending.push_back(Pending::Restart(victim));
            }
        }
    }

    /// A blocked request was granted (lock or latch): acquire whatever
    /// the current step still needs, then fetch and process the object.
    fn resume_step(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get(&txn) else {
            return;
        };
        let needs_latch = match self.reader_mode(txn) {
            Some(ReaderMode::LatchScan) => !exec.latched,
            // A latch-mode writer woken by a *lock* grant still needs the
            // point latch for a write step.
            None => !exec.latched && self.needs_point_latch(txn),
            _ => false,
        };
        if needs_latch && !self.try_latch(txn, sched) {
            return;
        }
        self.start_io(txn, sched)
    }

    /// Whether `txn`'s current step is a write that must take a point
    /// latch before touching the object (latch-scan mode only).
    fn needs_point_latch(&self, txn: TxnId) -> bool {
        if self.latches.is_none() || self.reader_mode(txn).is_some() {
            return false;
        }
        let exec = &self.exec[&txn];
        exec.seq[exec.step].1 == LockMode::Write
    }

    /// Requests the latch the current step needs: a reader's range latch
    /// over its whole read set, or a writer's single-object write latch.
    /// Returns whether the latch is held; on a block, records the wait.
    fn try_latch(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) -> bool {
        let now = sched.now();
        let exec = &self.exec[&txn];
        let (lo, hi, mode) = if self.reader_mode(txn) == Some(ReaderMode::LatchScan) {
            let spec = &self.specs[&txn];
            let lo = spec
                .read_set
                .iter()
                .map(|o| o.0)
                .min()
                .expect("reader reads");
            let hi = spec
                .read_set
                .iter()
                .map(|o| o.0)
                .max()
                .expect("reader reads");
            (ObjectId(lo), ObjectId(hi), LockMode::Read)
        } else {
            let (object, _) = exec.seq[exec.step];
            (object, object, LockMode::Write)
        };
        let lm = self.latches.as_mut().expect("latch mode is on");
        match lm.acquire(txn, lo, hi, mode) {
            LatchOutcome::Granted => {
                self.exec.get_mut(&txn).expect("checked above").latched = true;
                self.emit(now, SimEventKind::RangeLatchAcquired { txn, lo, hi, mode });
                true
            }
            LatchOutcome::Blocked { blocker } => {
                self.emit(
                    now,
                    SimEventKind::RangeLatchBlocked {
                        txn,
                        lo,
                        hi,
                        blocker,
                    },
                );
                let lower = blocker.filter(|b| {
                    self.specs
                        .get(b)
                        .is_some_and(|s| s.base_priority() < self.specs[&txn].base_priority())
                });
                self.stats.on_block(txn, now, lower);
                false
            }
        }
    }

    /// Aborts a deadlock victim and restarts it from its first operation,
    /// keeping its original deadline and priority.
    fn restart(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return; // its deadline beat the restart
        };
        if !self.config.restart_victims {
            // Treat like a deadline miss: the transaction is aborted for
            // good.
            let exec = self.exec.remove(&txn).expect("victim is live");
            sched.cancel(exec.deadline_ev);
            self.recycle(exec);
            self.stats.on_miss(txn, sched.now());
            if self.reader_mode(txn).is_some() {
                // Locking-mode readers can be deadlock victims too.
                self.temporal.reader_missed += 1;
            }
            self.emit(
                sched.now(),
                SimEventKind::TxnAborted {
                    txn,
                    reason: AbortReason::DeadlockVictim,
                },
            );
            if let Removed::WasRunning { next: Some(burst) } = self.cpu.remove(txn, sched.now()) {
                sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
            }
            self.release_latches(txn, sched);
            let release = self.protocol.release_all(txn, ReleaseReason::Finished);
            self.drain_protocol(sched.now());
            self.apply_release(release.wakeups, release.priority_updates, sched);
            return;
        }
        exec.attempt += 1;
        exec.step = 0;
        exec.latched = false;
        exec.write_buffer.clear();
        self.stats.on_restart(txn, sched.now());
        self.emit(
            sched.now(),
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlockVictim,
            },
        );
        if let Removed::WasRunning { next: Some(burst) } = self.cpu.remove(txn, sched.now()) {
            sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
        }
        self.release_latches(txn, sched);
        let release = self.protocol.release_all(txn, ReleaseReason::Restart);
        self.drain_protocol(sched.now());
        self.apply_release(release.wakeups, release.priority_updates, sched);
        self.pending.push_back(Pending::Advance(txn));
    }

    /// The current step's access was just granted: buffer a write (it
    /// applies at commit), then fetch the object; with a memory-resident
    /// database the fetch is free and processing starts at once.
    fn start_io(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        if self.reader_mode(txn) == Some(ReaderMode::Snapshot) {
            self.snapshot_read_step(txn, sched.now());
        } else {
            let exec = self.exec.get_mut(&txn).expect("granted txn is live");
            let (object, mode) = exec.seq[exec.step];
            if mode == LockMode::Write {
                exec.write_buffer.push(object);
            }
        }
        if self.config.io_per_object.is_zero() {
            self.submit_cpu(txn, sched);
            return;
        }
        let attempt = self.exec[&txn].attempt;
        if let Some(finish) = self
            .io
            .submit((txn, attempt), self.config.io_per_object, sched.now())
        {
            sched.schedule(finish, Ev::IoDone { txn, attempt });
        }
        // Otherwise the transfer queued behind busy channels; its IoDone
        // is scheduled when a channel frees up.
    }

    /// Resolves the current object at `txn`'s pinned timestamp and records
    /// staleness. An evicted prefix counts as unconstructible — retention
    /// was shorter than the reader's lag — and emits nothing (the oracle
    /// cannot predict which version an evicted read would have seen; the
    /// GC invariant guards that case instead).
    fn snapshot_read_step(&mut self, txn: TxnId, now: SimTime) {
        let (_, pin) = self.pins[&txn];
        let exec = &self.exec[&txn];
        let (object, _) = exec.seq[exec.step];
        let vs = self.versions.as_ref().expect("snapshot mode implies mvcc");
        self.temporal.snapshot_reads += 1;
        match vs.read_at(object, pin).number() {
            Some(version) => {
                if let Some(lag) = vs.lag_at(object, pin) {
                    self.temporal.lag_total += lag.ticks() as u128;
                    self.temporal.lag_max = self.temporal.lag_max.max(lag.ticks());
                }
                self.emit(
                    now,
                    SimEventKind::SnapshotRead {
                        txn,
                        object,
                        version,
                    },
                );
            }
            None => self.temporal.unconstructible += 1,
        }
    }

    fn submit_cpu(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        // Lockless readers never register with the protocol, so it has no
        // effective priority for them; they run at base EDF priority
        // (latch waits do not propagate inheritance).
        let priority = if self
            .reader_mode(txn)
            .is_some_and(|m| m != ReaderMode::Locking)
        {
            self.specs[&txn].base_priority()
        } else {
            self.protocol.effective_priority(txn)
        };
        if let Some(burst) = self
            .cpu
            .submit(txn, priority, self.config.cpu_per_object, sched.now())
        {
            sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
        }
    }

    /// The CPU burst for the current object completed: move to the next
    /// step.
    fn finish_access(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return;
        };
        exec.step += 1;
        self.pending.push_back(Pending::Advance(txn));
        self.pump(sched);
    }

    /// Commits: applies buffered writes, releases locks, retires the
    /// transaction.
    fn commit(&mut self, txn: TxnId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let reader = self.reader_mode(txn);
        let exec = self.exec.remove(&txn).expect("committing unknown txn");
        sched.cancel(exec.deadline_ev);
        if reader == Some(ReaderMode::Snapshot) {
            // Nothing written, nothing locked: the snapshot read a past
            // serialised prefix. Just retire and let the released pin
            // advance the GC watermark.
            self.recycle(exec);
            self.stats.on_commit(txn, now);
            self.emit(now, SimEventKind::TxnCommitted { txn });
            self.release_pin(txn, now);
            self.temporal.reader_committed += 1;
            return;
        }
        for &obj in &exec.write_buffer {
            let value = self.store.read(obj).value + 1;
            self.store.apply_write(obj, value, txn, now);
            if self.versions.is_some() {
                let inst = self
                    .versions
                    .as_mut()
                    .expect("checked above")
                    .install(obj, value, txn, now);
                self.emit(
                    now,
                    SimEventKind::VersionInstalled {
                        object: obj,
                        version: inst.version,
                        writer: txn,
                    },
                );
                if let Some(through) = inst.evicted_through {
                    self.temporal.versions_gced += 1;
                    self.emit(
                        now,
                        SimEventKind::VersionGced {
                            object: obj,
                            through,
                        },
                    );
                }
            }
        }
        self.recycle(exec);
        self.stats.on_commit(txn, now);
        self.emit(now, SimEventKind::TxnCommitted { txn });
        if reader.is_some() {
            self.temporal.reader_committed += 1;
        }
        self.release_latches(txn, sched);
        if reader == Some(ReaderMode::LatchScan) {
            return; // never registered with the lock protocol
        }
        let release = self.protocol.release_all(txn, ReleaseReason::Finished);
        self.drain_protocol(now);
        self.apply_release(release.wakeups, release.priority_updates, sched);
    }

    fn apply_release(
        &mut self,
        wakeups: Vec<Wakeup>,
        priority_updates: Vec<(TxnId, starlite::Priority)>,
        sched: &mut Scheduler<Ev>,
    ) {
        self.apply_priority_updates(&priority_updates, sched);
        for w in wakeups {
            debug_assert!(self.exec.contains_key(&w.txn), "wakeup for finished txn");
            self.stats.on_unblock(w.txn, sched.now());
            self.pending.push_back(Pending::Resume(w.txn));
        }
    }

    fn apply_priority_updates(
        &mut self,
        updates: &[(TxnId, starlite::Priority)],
        sched: &mut Scheduler<Ev>,
    ) {
        for &(txn, priority) in updates {
            if let Some(burst) = self.cpu.set_priority(txn, priority, sched.now()) {
                sched.schedule(burst.finish_at, Ev::BurstDone { token: burst.token });
            }
        }
    }
}

/// The single-site simulator: configuration, catalog, and workload in;
/// [`RunReport`] out.
///
/// See the [crate-level example](crate) for typical use.
pub struct Simulator<'a> {
    config: SingleSiteConfig,
    catalog: Catalog,
    workload: &'a WorkloadSpec,
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("config", &self.config)
            .field("catalog", &self.catalog)
            .finish()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is not single-site.
    pub fn new(config: SingleSiteConfig, catalog: Catalog, workload: &'a WorkloadSpec) -> Self {
        assert_eq!(
            catalog.placement(),
            Placement::SingleSite,
            "the single-site simulator needs a single-site catalog"
        );
        Simulator {
            config,
            catalog,
            workload,
        }
    }

    /// Generates the workload from `seed` and runs it to completion.
    pub fn run(&self, seed: u64) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions(self.config, &self.catalog, txns)
    }

    /// Like [`Simulator::run`], but streams every structured event into
    /// `sink` (pass `&mut sink` to keep it afterwards). The seed fixes the
    /// workload, so the same seed yields the same event sequence.
    pub fn run_with<S: EventSink<SimEvent>>(&self, seed: u64, sink: S) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions_with(self.config, &self.catalog, txns, sink)
    }
}

/// Runs an explicit transaction list through the single-site model (the
/// entry point tests use to script exact scenarios).
///
/// # Panics
///
/// Panics if two transactions share an id.
pub fn run_transactions(
    config: SingleSiteConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
) -> RunReport {
    run_transactions_with(config, catalog, txns, NullSink)
}

/// Like [`run_transactions`], but streams every structured event into
/// `sink` (pass `&mut sink` to keep it afterwards — `&mut S` is itself a
/// sink). With [`NullSink`] the instrumentation compiles away, which is
/// how [`run_transactions`] stays free of tracing overhead.
///
/// # Panics
///
/// Panics if two transactions share an id.
pub fn run_transactions_with<S: EventSink<SimEvent>>(
    config: SingleSiteConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
    sink: S,
) -> RunReport {
    let mut specs = FxHashMap::default();
    let mut arrivals = Vec::with_capacity(txns.len());
    for spec in txns {
        arrivals.push((spec.arrival, spec.id));
        let prev = specs.insert(spec.id, spec);
        assert!(prev.is_none(), "duplicate transaction id");
    }
    let mut protocol = make_protocol(config.protocol, config.victim_policy);
    let mut cpu = Cpu::new(config.protocol.cpu_policy());
    if sink.enabled() {
        protocol.set_tracing(true);
        cpu.set_tracing(true);
    }
    let model = SiteModel {
        config,
        protocol,
        cpu,
        io: match config.io_parallelism {
            Some(channels) => IoDevice::bounded(channels),
            None => IoDevice::parallel(),
        },
        store: rtdb::ObjectStore::new(catalog.db_size()),
        stats: StatsFold::new(),
        specs,
        exec: FxHashMap::default(),
        sink,
        scratch_events: Vec::new(),
        scratch_cpu: Vec::new(),
        pending: VecDeque::new(),
        exec_pool: Vec::new(),
        // Placeholder; every field is overwritten by `GranuleScratch::map`
        // before any use.
        granule_spec: TxnSpec::new(
            TxnId(0),
            SimTime::ZERO,
            vec![ObjectId(0)],
            Vec::new(),
            SimTime::from_ticks(1),
            SITE,
        ),
        granule_scratch: rtdb::GranuleScratch::new(),
        versions: config.mvcc.map(|m| VersionStore::new(m.keep)),
        latches: config
            .mvcc
            .and_then(|m| (m.reader_mode == ReaderMode::LatchScan).then(RangeLatchManager::new)),
        pins: FxHashMap::default(),
        temporal: TemporalCounters::default(),
    };
    let mut engine = Engine::new(model);
    for (arrival, id) in arrivals {
        engine.scheduler_mut().schedule(arrival, Ev::Arrive(id));
    }
    // Generous cap: every transaction contributes a bounded number of
    // events per attempt, and attempts are bounded by deadlines.
    let events = engine.run_to_completion(Some(500_000_000));
    let makespan = engine.now();
    let model = engine.into_model();
    assert!(
        model.exec.is_empty(),
        "simulation drained with live transactions"
    );
    let stats = model.stats.finish(makespan);
    let temporal = model.config.mvcc.map(|_| {
        let t = &model.temporal;
        let constructible = t.snapshot_reads - t.unconstructible;
        TemporalStats {
            snapshot_reads: t.snapshot_reads,
            unconstructible: t.unconstructible,
            mean_lag_ticks: if constructible == 0 {
                0.0
            } else {
                t.lag_total as f64 / constructible as f64
            },
            max_lag_ticks: t.lag_max,
            mean_replica_lag_ticks: 0.0,
            max_replica_lag_ticks: 0,
            reader_committed: t.reader_committed,
            reader_missed: t.reader_missed,
            versions_gced: t.versions_gced,
        }
    });
    RunReport {
        stats,
        deadlocks: model.protocol.deadlock_count(),
        ceiling_blocks: model.protocol.ceiling_block_count(),
        preemptions: model.cpu.preemption_count(),
        cpu_busy: model.cpu.busy_time(),
        remote_messages: 0,
        net: None,
        events,
        stores: vec![model.store],
        temporal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use monitor::CheckSink;
    use starlite::SimDuration;
    use workload::SizeDistribution;

    fn catalog() -> Catalog {
        Catalog::new(50, 1, Placement::SingleSite)
    }

    fn spec(id: u64, arrival: u64, deadline: u64, reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(arrival),
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            rtdb::SiteId(0),
        )
    }

    fn config(protocol: ProtocolKind) -> SingleSiteConfig {
        SingleSiteConfig::builder()
            .protocol(protocol)
            .cpu_per_object(SimDuration::from_ticks(10))
            .io_per_object(SimDuration::from_ticks(20))
            .build()
    }

    /// Runs `txns` under the invariant oracle (conflict serialisability
    /// among them) and panics on any violation.
    fn run_checked(config: SingleSiteConfig, catalog: &Catalog, txns: Vec<TxnSpec>) -> RunReport {
        let kind = config.protocol;
        let mut check = CheckSink::new(kind.check_config(config.restart_victims));
        let report = run_transactions_with(config, catalog, txns, &mut check);
        let violations = check.finish();
        assert!(violations.is_empty(), "{kind}: {violations:#?}");
        report
    }

    #[test]
    fn single_transaction_commits() {
        for kind in ProtocolKind::all() {
            let report = run_transactions(
                config(kind),
                &catalog(),
                vec![spec(0, 0, 1_000, vec![1, 2], vec![3])],
            );
            assert_eq!(report.stats.committed, 1, "{kind} failed");
            assert_eq!(report.stats.missed, 0);
            // 3 objects × (20 io + 10 cpu) = 90 ticks.
            assert_eq!(report.stats.mean_response_ticks, 90.0);
        }
    }

    #[test]
    fn conflicting_transactions_serialise() {
        for kind in ProtocolKind::all() {
            let report = run_checked(
                config(kind),
                &catalog(),
                vec![
                    spec(0, 0, 10_000, vec![], vec![5]),
                    spec(1, 1, 10_000, vec![], vec![5]),
                ],
            );
            assert_eq!(report.stats.committed, 2, "{kind} failed");
            assert_eq!(report.stores[0].read(ObjectId(5)).version, 2);
        }
    }

    #[test]
    fn unmeetable_deadline_is_missed() {
        let report = run_transactions(
            config(ProtocolKind::PriorityCeiling),
            &catalog(),
            // Needs 90 ticks, deadline at 50.
            vec![spec(0, 0, 50, vec![1, 2], vec![3])],
        );
        assert_eq!(report.stats.missed, 1);
        assert_eq!(report.stats.committed, 0);
        assert_eq!(report.stats.pct_missed, 100.0);
        // The aborted transaction left nothing in the store.
        assert!(report.stores[0].iter().all(|(_, o)| o.version == 0));
    }

    #[test]
    fn deadlock_is_broken_and_both_commit() {
        // Classic crossing order: T0 takes O1 then O2; T1 takes O2 then O1.
        // Arrivals interleave so each grabs its first object.
        let report = run_checked(
            config(ProtocolKind::TwoPhaseLockingPriority),
            &catalog(),
            vec![
                spec(0, 0, 100_000, vec![], vec![1, 2]),
                spec(1, 5, 100_000, vec![], vec![2, 1]),
            ],
        );
        assert_eq!(report.deadlocks, 1);
        assert_eq!(report.stats.committed, 2);
        assert!(report.stats.restarts >= 1);
    }

    #[test]
    fn ceiling_protocol_never_deadlocks_on_crossing_order() {
        let report = run_transactions(
            config(ProtocolKind::PriorityCeiling),
            &catalog(),
            vec![
                spec(0, 0, 100_000, vec![], vec![1, 2]),
                spec(1, 5, 100_000, vec![], vec![2, 1]),
            ],
        );
        assert_eq!(report.deadlocks, 0);
        assert!(report.ceiling_blocks >= 1);
        assert_eq!(report.stats.committed, 2);
        assert_eq!(report.stats.restarts, 0);
    }

    #[test]
    fn generated_workload_runs_deterministically() {
        let cat = catalog();
        let workload = WorkloadSpec::builder()
            .txn_count(60)
            .mean_interarrival(SimDuration::from_ticks(60))
            .size(SizeDistribution::Uniform { min: 2, max: 5 })
            .read_only_fraction(0.3)
            .deadline(10.0, SimDuration::from_ticks(30))
            .build();
        let sim = Simulator::new(config(ProtocolKind::PriorityCeiling), cat, &workload);
        let a = sim.run(7);
        let b = sim.run(7);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ceiling_blocks, b.ceiling_blocks);
        assert_eq!(a.stats.processed, 60);
    }

    #[test]
    fn heavy_load_misses_deadlines_under_every_protocol() {
        let cat = catalog();
        let workload = WorkloadSpec::builder()
            .txn_count(80)
            .mean_interarrival(SimDuration::from_ticks(5))
            .size(SizeDistribution::Fixed(5))
            .deadline(2.0, SimDuration::from_ticks(30))
            .build();
        for kind in ProtocolKind::all() {
            let txns = Generator::new(&workload, &cat).generate(3);
            let report = run_checked(config(kind), &cat, txns);
            assert_eq!(report.stats.processed, 80, "{kind}");
            assert!(
                report.stats.missed > 0,
                "{kind} missed nothing under overload"
            );
        }
    }
}
