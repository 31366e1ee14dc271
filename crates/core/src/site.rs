//! The site engine: one site's transaction manager and resource manager,
//! shared by both simulators.
//!
//! The paper builds every site from the same server processes, a
//! transaction manager and a resource manager, joined by a message
//! server. [`SiteEngine`] is that per-site part. Each [`Site`] owns its
//! CPU, I/O device, lock protocol instance, object store, version store
//! and range latches; the engine keeps the transactions' specs and pooled
//! execution records, and runs every local step of a transaction exactly
//! once:
//!
//! 1. **Arrive** — register with the stats fold and arm the deadline
//!    timer; then pin a snapshot (snapshot readers) or declare the access
//!    sets, mapped onto lock granules, to the site's protocol (the
//!    declared sets feed the priority ceilings).
//! 2. **Execute** — for each access: request the lock (or the range
//!    latch); when it is granted, read the snapshot or fetch the object
//!    (parallel or bounded I/O), then process it in a CPU burst at the
//!    transaction's effective priority, with preemption.
//! 3. **Commit** — install the writes and their versions, release every
//!    lock (two-phase: nothing was released earlier), apply the priority
//!    updates and resume the woken waiters.
//! 4. **Deadline** — a transaction still running at its deadline is
//!    aborted and counts as missed; its locks are released and waiters
//!    wake.
//! 5. **Deadlock** — the victim releases its locks, keeps its deadline,
//!    and restarts from scratch (or aborts, when victims do not restart).
//!
//! The caller's transaction list is the run's only copy of each
//! transaction: a [`SpecStore`] keeps it, sorted by arrival, and finds a
//! spec at the slot its id names or, for ids that differ from their slot,
//! through an index; the distributed simulator's system transactions
//! overwrite retired slots in place. Arrivals are chained rather than
//! scheduled up front: [`run`] reserves one sequence number per
//! transaction and schedules the first arrival, and each `Arrive`
//! schedules the next under its reserved number. Every arrival so keeps
//! the `(time, sequence)` key it would have had if all were scheduled
//! before the run, and ties with same-tick events as it would have then,
//! while the event queue holds one arrival at a time.
//!
//! Writes increment the object's value by one, so a finished store must
//! satisfy `value == version == committed writes`, an end-to-end
//! correctness invariant the integration tests check alongside conflict
//! serialisability.
//!
//! A [`Driver`] supplies what surrounds the sites. The single-site
//! simulator drives one site with no network and keeps every default;
//! the distributed simulator joins several sites by messages and hooks
//! lock RPCs to the global ceiling manager, two-phase commit, replica
//! propagation and faults in at the points the trait lists.

use std::collections::VecDeque;
use std::fmt;

use monitor::{AbortReason, SimEvent, SimEventKind, StatsFold};
use rtdb::{
    LatchOutcome, LockMode, ObjectId, ObjectStore, RangeLatchManager, SiteId, TxnId, TxnSpec,
};
use starlite::{
    Completion, Cpu, CpuJournalEntry, CpuJournalKind, CpuToken, Engine, EventId, EventSink,
    FxHashMap, IoDevice, Model, Priority, Removed, Scheduler, SimDuration, SimTime, StartedBurst,
};

use crate::config::ReaderMode;
use crate::mvcc::{Install, SnapshotId, SnapshotRead, VersionStore};
use crate::protocols::{LockProtocol, ReleaseReason, RequestOutcome, Wakeup};
use crate::report::{RunReport, TemporalStats};

/// Events the engine schedules for the sites.
#[derive(Debug)]
pub(crate) enum SiteEvent {
    Arrive(TxnId),
    IoDone {
        site: SiteId,
        txn: TxnId,
        attempt: u32,
    },
    BurstDone {
        site: SiteId,
        token: CpuToken,
    },
    Deadline(TxnId),
}

/// Pending control-flow work, processed iteratively to keep wake-up and
/// deadlock cascades off the call stack.
#[derive(Debug)]
enum Pending {
    /// Request the lock for the current step (or commit if past the end).
    Advance(TxnId),
    /// The current step's lock or latch was just granted by a wake-up:
    /// fetch and process the object.
    Resume(TxnId),
    /// Abort and restart a deadlock victim.
    Restart(TxnId),
}

/// A live transaction's execution record. Records are pooled: a finished
/// transaction's record is reset and handed to the next arrival, so the
/// per-transaction vectors keep their capacity (an arena of transaction
/// state rather than per-arrival allocations).
#[derive(Debug)]
pub(crate) struct Exec<X> {
    /// The site the transaction executes at.
    pub(crate) site: SiteId,
    /// Restarts so far; I/O completions of earlier attempts are stale.
    attempt: u32,
    /// Index of the current access in `seq`.
    pub(crate) step: usize,
    /// Data accesses: the objects actually read or written, in order.
    pub(crate) seq: Vec<(ObjectId, LockMode)>,
    /// Lock requests per step at a granularity above 1: the granule
    /// covering each object, with the granule's mode (write if the
    /// transaction writes anything in it). Left empty at granularity 1,
    /// where `seq` is the request sequence.
    lock_seq: Vec<(ObjectId, LockMode)>,
    /// The armed deadline timer; `None` once it fired.
    pub(crate) deadline_ev: Option<EventId>,
    /// Latch-scan mode: the latch guarding the current access is held (a
    /// reader's range latch, once acquired, stays held — and `latched`
    /// stays true — for its whole scan).
    latched: bool,
    /// CPU time of one access.
    pub(crate) burst: SimDuration,
    /// The driver's per-transaction state.
    pub(crate) ext: X,
}

/// Temporal-consistency counters of one run (runs with version stores
/// only).
#[derive(Debug, Default)]
pub(crate) struct TemporalCounters {
    pub(crate) snapshot_reads: u64,
    pub(crate) unconstructible: u64,
    pub(crate) lag_total: u128,
    pub(crate) lag_max: u64,
    pub(crate) replica_reads: u64,
    pub(crate) replica_lag_total: u128,
    pub(crate) replica_lag_max: u64,
    reader_committed: u64,
    reader_missed: u64,
    versions_gced: u64,
}

impl TemporalCounters {
    fn finish(&self) -> TemporalStats {
        let constructible = self.snapshot_reads.saturating_sub(self.unconstructible);
        TemporalStats {
            snapshot_reads: self.snapshot_reads,
            unconstructible: self.unconstructible,
            mean_lag_ticks: if constructible == 0 {
                0.0
            } else {
                self.lag_total as f64 / constructible as f64
            },
            max_lag_ticks: self.lag_max,
            mean_replica_lag_ticks: if self.replica_reads == 0 {
                0.0
            } else {
                self.replica_lag_total as f64 / self.replica_reads as f64
            },
            max_replica_lag_ticks: self.replica_lag_max,
            reader_committed: self.reader_committed,
            reader_missed: self.reader_missed,
            versions_gced: self.versions_gced,
        }
    }
}

/// One site's resources.
pub(crate) struct Site<P: ?Sized> {
    pub(crate) cpu: Cpu<TxnId>,
    /// I/O transfers are keyed by (transaction, attempt) so completions of
    /// transfers issued before a restart are recognised as stale.
    io: IoDevice<(TxnId, u32)>,
    pub(crate) store: ObjectStore,
    /// Bounded multi-version store; committed writes install versions.
    pub(crate) versions: Option<VersionStore>,
    /// Interval latches for scan/point coexistence (latch-scan mode only).
    latches: Option<RangeLatchManager>,
    pub(crate) protocol: Box<P>,
}

impl<P: LockProtocol + ?Sized> Site<P> {
    /// A site over `db_size` objects; `tracing` turns on the CPU's and the
    /// protocol's event journals.
    pub(crate) fn new(
        mut cpu: Cpu<TxnId>,
        io: IoDevice<(TxnId, u32)>,
        db_size: u32,
        versions: Option<VersionStore>,
        latches: Option<RangeLatchManager>,
        mut protocol: Box<P>,
        tracing: bool,
    ) -> Self {
        cpu.set_tracing(tracing);
        protocol.set_tracing(tracing);
        Site {
            cpu,
            io,
            store: ObjectStore::new(db_size),
            versions,
            latches,
            protocol,
        }
    }
}

/// How the sites serve transactions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// CPU time to process one object.
    pub(crate) cpu_per_object: SimDuration,
    /// I/O latency to fetch one object (zero = memory resident).
    pub(crate) io_per_object: SimDuration,
    /// Objects per lock granule.
    pub(crate) lock_granularity: u32,
    /// Whether deadlock victims restart or abort outright.
    pub(crate) restart_victims: bool,
    /// How read-only transactions are served; `None` runs them like
    /// updates, and they then count as no reader class.
    pub(crate) reader_mode: Option<ReaderMode>,
    /// How far before its arrival a snapshot reader pins.
    pub(crate) reader_lag: SimDuration,
}

/// What surrounds the sites: the single-site driver keeps every default,
/// the distributed one hooks its messages in.
pub(crate) trait Driver: Sized {
    /// The model's event type; site events are one kind of it.
    type Event: From<SiteEvent>;
    /// The lock protocol every site runs.
    type Protocol: LockProtocol + ?Sized;
    /// Per-transaction state the driver keeps in the execution record.
    type Txn: Default + fmt::Debug;

    /// Whether every committed write is journalled as
    /// [`SimEventKind::VersionInstalled`], not only those installed into
    /// a version store: replicated sites journal them all, so the oracle
    /// can check each object's version order across replicas.
    const JOURNALS_INSTALLS: bool = false;

    /// Whether `txn` is a system transaction, which the stats fold does
    /// not track.
    fn is_system(_txn: TxnId) -> bool {
        false
    }

    /// `txn`'s arrival fired: by default it arrives at its home site.
    fn arrive<S: EventSink<SimEvent>>(
        e: &mut SiteEngine<S, Self>,
        txn: TxnId,
        sched: &mut Scheduler<Self::Event>,
    ) {
        e.arrive(txn, sched);
    }

    /// `txn` arrived and has its execution record: start it.
    fn admit<S: EventSink<SimEvent>>(
        e: &mut SiteEngine<S, Self>,
        txn: TxnId,
        sched: &mut Scheduler<Self::Event>,
    ) {
        e.admit_local(txn, sched.now());
        e.start(txn, sched);
    }

    /// `txn` finished the CPU burst of its current step at its site.
    fn step_done<S: EventSink<SimEvent>>(
        e: &mut SiteEngine<S, Self>,
        txn: TxnId,
        sched: &mut Scheduler<Self::Event>,
    ) {
        e.next_step(txn, sched);
    }

    /// `txn`'s deadline fired while it was live (its timer is already
    /// disarmed): abort it and release what it holds.
    fn deadline<S: EventSink<SimEvent>>(
        e: &mut SiteEngine<S, Self>,
        txn: TxnId,
        sched: &mut Scheduler<Self::Event>,
    ) {
        if let Some(site) = e.abort(txn, AbortReason::DeadlineMissed, sched) {
            e.release(txn, site, ReleaseReason::Finished, sched);
            e.pump(sched);
        }
    }

    /// A committing transaction's write of `object` was installed at
    /// `site` as `version` with `value`.
    fn installed<S: EventSink<SimEvent>>(
        _e: &mut SiteEngine<S, Self>,
        _site: SiteId,
        _txn: TxnId,
        _object: ObjectId,
        _value: u64,
        _version: u64,
        _sched: &mut Scheduler<Self::Event>,
    ) {
    }

    /// The priority `txn` runs at on its site's CPU.
    fn effective_priority<S>(e: &SiteEngine<S, Self>, txn: TxnId, site: SiteId) -> Priority {
        e.sites[site.index()].protocol.effective_priority(txn)
    }

    /// `txn` reads `object` at `site`: `snapshot` is the version store's
    /// answer at its pin for a snapshot reader, `None` for a read under a
    /// lock. By default a snapshot read's staleness is measured against
    /// the site's own versions.
    fn on_read<S: EventSink<SimEvent>>(
        e: &mut SiteEngine<S, Self>,
        txn: TxnId,
        object: ObjectId,
        site: SiteId,
        snapshot: Option<SnapshotRead>,
        _now: SimTime,
    ) {
        if let Some(read) = snapshot {
            e.account_snapshot_read(txn, object, site, read);
        }
    }
}

/// The run's transactions, each held once: the caller's list, sorted by
/// arrival, then the slots system transactions take in turn. User
/// transactions keep their slots for the whole run, since their specs are
/// read after they finish; a retired system transaction's slot is
/// overwritten by the next one.
///
/// A transaction whose id equals its slot (every transaction of a
/// generated list) is found by reading that slot and checking the id
/// there, and needs no index entry; only the others, hand-built lists and
/// system transactions, are indexed.
pub(crate) struct SpecStore {
    specs: Vec<TxnSpec>,
    /// The slot of each transaction whose id differs from it.
    slots: FxHashMap<TxnId, u32>,
    /// Length of the caller's list: the slots below it are the arrivals,
    /// in firing order.
    arrivals: u32,
    /// Slots retired system transactions left, free to overwrite.
    free: Vec<u32>,
}

impl SpecStore {
    /// Takes the caller's list as the store. The list is stable-sorted by
    /// arrival unless it already is (generated lists always are), so
    /// same-tick arrivals keep list order.
    ///
    /// # Panics
    ///
    /// Panics if two transactions share an id.
    fn new(mut txns: Vec<TxnSpec>) -> Self {
        if !txns.is_sorted_by_key(|t| t.arrival) {
            txns.sort_by_key(|t| t.arrival);
        }
        let arrivals = u32::try_from(txns.len()).expect("more than u32::MAX transactions");
        let misplaced = (0..arrivals)
            .zip(&txns)
            .filter(|&(slot, t)| !at_own_slot(t.id, slot))
            .count();
        let mut slots = FxHashMap::with_capacity_and_hasher(misplaced, Default::default());
        for (slot, spec) in (0..arrivals).zip(&txns) {
            if at_own_slot(spec.id, slot) {
                // Any duplicate of this id sits at another slot, and the
                // check below finds this one from there.
                continue;
            }
            let shadowed = own_slot(&txns, spec.id).is_some();
            let prev = slots.insert(spec.id, slot);
            assert!(!shadowed && prev.is_none(), "duplicate transaction id");
        }
        SpecStore {
            specs: txns,
            slots,
            arrivals,
            free: Vec::new(),
        }
    }

    /// `txn`'s spec, if it has a slot.
    pub(crate) fn get(&self, txn: TxnId) -> Option<&TxnSpec> {
        let slot = own_slot(&self.specs, txn)
            .or_else(|| self.slots.get(&txn).map(|&slot| slot as usize))?;
        Some(&self.specs[slot])
    }

    /// Arrival `i` of the caller's list, in firing order.
    fn arrival(&self, i: u32) -> Option<&TxnSpec> {
        (i < self.arrivals).then(|| &self.specs[i as usize])
    }

    /// Gives `txn` a slot and returns the spec in it for the caller to
    /// overwrite: the one a retired transaction left there, or `fresh()`
    /// in a new slot.
    pub(crate) fn reuse_slot(
        &mut self,
        txn: TxnId,
        fresh: impl FnOnce() -> TxnSpec,
    ) -> &mut TxnSpec {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.specs.push(fresh());
            u32::try_from(self.specs.len() - 1).expect("more than u32::MAX specs")
        });
        // Retiring removes the index entry, which a transaction found at
        // its own slot would not have: its stale spec would still resolve.
        assert!(!at_own_slot(txn, slot), "{txn} would sit at its own slot");
        let prev = self.slots.insert(txn, slot);
        debug_assert!(prev.is_none(), "{txn} already has a slot");
        &mut self.specs[slot as usize]
    }

    /// Frees `txn`'s slot for the next [`SpecStore::reuse_slot`].
    ///
    /// # Panics
    ///
    /// Panics if `txn` has no slot.
    pub(crate) fn retire(&mut self, txn: TxnId) {
        let slot = self.slots.remove(&txn).expect("retiring txn has a slot");
        self.free.push(slot);
    }
}

/// Whether `txn` at `slot` is found without an index entry.
fn at_own_slot(txn: TxnId, slot: u32) -> bool {
    txn.0 == u64::from(slot)
}

/// The slot numbered like `txn`, when `txn` sits in it.
fn own_slot(specs: &[TxnSpec], txn: TxnId) -> Option<usize> {
    let slot = usize::try_from(txn.0).ok()?;
    (specs.get(slot)?.id == txn).then_some(slot)
}

impl std::ops::Index<TxnId> for SpecStore {
    type Output = TxnSpec;

    /// # Panics
    ///
    /// Panics if `txn` has no slot.
    fn index(&self, txn: TxnId) -> &TxnSpec {
        self.get(txn).unwrap_or_else(|| panic!("{txn} has no spec"))
    }
}

/// The sites of one simulation, the transactions running on them and
/// their driver.
pub(crate) struct SiteEngine<S, D: Driver> {
    pub(crate) sites: Vec<Site<D::Protocol>>,
    pub(crate) specs: SpecStore,
    /// Sequence number reserved for the first arrival; arrival `i` fires
    /// under `arrival_seq + i`.
    arrival_seq: u64,
    /// Arrivals fired so far.
    arrived: u32,
    pub(crate) exec: FxHashMap<TxnId, Exec<D::Txn>>,
    /// Retired execution records, recycled on the next arrival.
    exec_pool: Vec<Exec<D::Txn>>,
    /// Reusable control-flow queue for [`SiteEngine::pump`]; empty between
    /// events, retained so no event allocates it afresh.
    pending: VecDeque<Pending>,
    /// Live snapshot pins: reader → (handle into its site's version
    /// store, pinned instant).
    pins: FxHashMap<TxnId, (SnapshotId, SimTime)>,
    pub(crate) temporal: TemporalCounters,
    pub(crate) stats: StatsFold,
    /// Structured event sink ([`starlite::NullSink`] in the default
    /// configuration: every `emit` below then monomorphises to nothing).
    sink: S,
    /// Scratch for draining protocol / CPU journals without reallocating.
    scratch_events: Vec<SimEventKind>,
    scratch_cpu: Vec<CpuJournalEntry<TxnId>>,
    /// Reusable granule-space declaration handed to the protocol at each
    /// admission, plus the buffers that compute it.
    granule_spec: TxnSpec,
    granule_scratch: rtdb::GranuleScratch,
    policy: Policy,
    pub(crate) driver: D,
}

impl<S, D: Driver> fmt::Debug for SiteEngine<S, D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SiteEngine")
            .field("sites", &self.sites.len())
            .field("active", &self.exec.len())
            .finish()
    }
}

/// Starts the arrival chain and runs the model until no event is left,
/// returning it with the number of events executed and the makespan.
///
/// The arrivals' sequence numbers are reserved here, after any events the
/// caller scheduled before the run, so every arrival keeps the key it
/// would have had if all had been scheduled at this point.
pub(crate) fn run<S, D>(mut engine: Engine<SiteEngine<S, D>>) -> (SiteEngine<S, D>, u64, SimTime)
where
    S: EventSink<SimEvent>,
    D: Driver,
    SiteEngine<S, D>: Model<Event = D::Event>,
{
    let arrivals = engine.model().specs.arrivals;
    let first_seq = engine.scheduler_mut().reserve(u64::from(arrivals));
    engine.model_mut().arrival_seq = first_seq;
    if let Some((at, seq, event)) = engine.model().arrival(0) {
        engine
            .scheduler_mut()
            .schedule_reserved(at, seq, event.into());
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
    (model, events, makespan)
}

impl<S: EventSink<SimEvent>, D: Driver> SiteEngine<S, D> {
    /// An engine over `sites` that runs the transactions of `txns`, which
    /// becomes the run's spec store.
    ///
    /// # Panics
    ///
    /// Panics if two transactions share an id.
    pub(crate) fn new(
        sites: Vec<Site<D::Protocol>>,
        txns: Vec<TxnSpec>,
        policy: Policy,
        sink: S,
        driver: D,
    ) -> Self {
        SiteEngine {
            sites,
            specs: SpecStore::new(txns),
            arrival_seq: 0,
            arrived: 0,
            exec: FxHashMap::default(),
            exec_pool: Vec::new(),
            pending: VecDeque::new(),
            pins: FxHashMap::default(),
            temporal: TemporalCounters::default(),
            stats: StatsFold::new(),
            sink,
            scratch_events: Vec::new(),
            scratch_cpu: Vec::new(),
            // Placeholder; every field is overwritten by
            // `GranuleScratch::map` before any use.
            granule_spec: TxnSpec::new(
                TxnId(0),
                SimTime::ZERO,
                vec![ObjectId(0)],
                Vec::new(),
                SimTime::from_ticks(1),
                SiteId(0),
            ),
            granule_scratch: rtdb::GranuleScratch::new(),
            policy,
            driver,
        }
    }

    /// Whether the sink records events (a compile-time `false` for
    /// [`starlite::NullSink`]).
    pub(crate) fn tracing(&self) -> bool {
        S::ENABLED && self.sink.enabled()
    }

    /// Emits one unified event, stamped with the site it happened at. The
    /// `S::ENABLED` check is a monomorphisation-time constant: with
    /// [`starlite::NullSink`] this whole function — including
    /// construction of `kind` at every call site the optimiser can see —
    /// compiles to nothing.
    pub(crate) fn emit(&mut self, at: SimTime, site: SiteId, kind: SimEventKind) {
        if S::ENABLED && self.sink.enabled() {
            self.sink.emit(at, SimEvent::new(site, kind));
        }
    }

    /// Forwards everything `site`'s protocol journalled during the call
    /// that just returned, stamped with the current instant. Called right
    /// after each protocol request/release so the unified stream keeps the
    /// true interleaving with transaction lifecycle events.
    pub(crate) fn drain_protocol(&mut self, site: SiteId, now: SimTime) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        self.sites[site.index()]
            .protocol
            .drain_events(&mut self.scratch_events);
        for i in 0..self.scratch_events.len() {
            let kind = self.scratch_events[i];
            self.sink.emit(now, SimEvent::new(site, kind));
        }
        self.scratch_events.clear();
    }

    /// Forwards the dispatch/preemption events every site's CPU recorded;
    /// each entry carries its own timestamp.
    pub(crate) fn flush_cpu_journals(&mut self) {
        if !S::ENABLED || !self.sink.enabled() {
            return;
        }
        for site_idx in 0..self.sites.len() {
            self.sites[site_idx]
                .cpu
                .drain_journal(&mut self.scratch_cpu);
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
    }

    /// Handles one site event.
    pub(crate) fn on_site_event(&mut self, event: SiteEvent, sched: &mut Scheduler<D::Event>) {
        match event {
            SiteEvent::Arrive(txn) => {
                // One arrival is pending at a time, so they fire in
                // store order; chain the next one first.
                debug_assert_eq!(self.specs.arrival(self.arrived).map(|s| s.id), Some(txn));
                self.arrived += 1;
                if let Some((at, seq, next)) = self.arrival(self.arrived) {
                    sched.schedule_reserved(at, seq, next.into());
                }
                D::arrive(self, txn, sched)
            }
            SiteEvent::IoDone { site, txn, attempt } => self.on_io_done(site, txn, attempt, sched),
            SiteEvent::BurstDone { site, token } => self.on_burst_done(site, token, sched),
            SiteEvent::Deadline(txn) => {
                // A finished transaction's timer was cancelled, so a live
                // record means the deadline beat the commit.
                if let Some(exec) = self.exec.get_mut(&txn) {
                    exec.deadline_ev = None;
                    D::deadline(self, txn, sched);
                }
            }
        }
    }

    // ----- arrival ------------------------------------------------------

    /// Arrival `i` of the chain: its time, its reserved sequence number
    /// and its event.
    fn arrival(&self, i: u32) -> Option<(SimTime, u64, SiteEvent)> {
        let spec = self.specs.arrival(i)?;
        let seq = self.arrival_seq + u64::from(i);
        Some((spec.arrival, seq, SiteEvent::Arrive(spec.id)))
    }

    /// Takes a fully reset execution record from the pool (or a fresh one).
    pub(crate) fn take_exec(&mut self, site: SiteId, burst: SimDuration) -> Exec<D::Txn> {
        let mut exec = self.exec_pool.pop().unwrap_or_else(|| Exec {
            site,
            attempt: 0,
            step: 0,
            seq: Vec::new(),
            lock_seq: Vec::new(),
            deadline_ev: None,
            latched: false,
            burst,
            ext: D::Txn::default(),
        });
        exec.site = site;
        exec.burst = burst;
        exec
    }

    /// Retires an execution record into the pool, reset but keeping its
    /// vector capacities for the next arrival.
    pub(crate) fn recycle(&mut self, mut exec: Exec<D::Txn>) {
        exec.attempt = 0;
        exec.step = 0;
        exec.seq.clear();
        exec.lock_seq.clear();
        exec.deadline_ev = None;
        exec.latched = false;
        exec.ext = D::Txn::default();
        self.exec_pool.push(exec);
    }

    /// Journals `txn`'s arrival at its home site and registers it with
    /// the stats fold. Returns the home site and the deadline.
    pub(crate) fn register(&mut self, txn: TxnId, now: SimTime) -> (SiteId, SimTime) {
        let spec = &self.specs[txn];
        let (site, deadline, priority) = (spec.home_site, spec.deadline, spec.base_priority());
        self.emit(now, site, SimEventKind::TxnArrived { txn, priority });
        self.stats.register(&self.specs[txn]);
        (site, deadline)
    }

    /// A transaction arrives at its home site: it is registered, its
    /// deadline timer is armed, and the driver admits it.
    pub(crate) fn arrive(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        let now = sched.now();
        let (site, deadline) = self.register(txn, now);
        self.emit(now, site, SimEventKind::TxnStarted { txn });
        let deadline_ev = sched.schedule(deadline, SiteEvent::Deadline(txn).into());
        let mut exec = self.take_exec(site, self.policy.cpu_per_object);
        exec.deadline_ev = Some(deadline_ev);
        exec.seq.extend(self.specs[txn].access_ops());
        self.exec.insert(txn, exec);
        D::admit(self, txn, sched);
    }

    /// Admits `txn` at its site: a snapshot reader pins its snapshot;
    /// otherwise the access sets, mapped onto lock granules, are declared
    /// to the site's protocol. Snapshot and latch-scan readers never touch
    /// the lock protocol: no registration (their declared sets must not
    /// inflate priority ceilings) and no lock requests.
    pub(crate) fn admit_local(&mut self, txn: TxnId, now: SimTime) {
        let site = self.specs[txn].home_site;
        match self.reader_mode(txn) {
            Some(ReaderMode::Snapshot) => {
                let arrival = self.specs[txn].arrival;
                let pin = SimTime::from_ticks(
                    arrival
                        .ticks()
                        .saturating_sub(self.policy.reader_lag.ticks()),
                );
                let id = self.sites[site.index()]
                    .versions
                    .as_mut()
                    .expect("snapshot readers read a version store")
                    .pin(pin);
                self.pins.insert(txn, (id, pin));
                self.emit(now, site, SimEventKind::SnapshotPinned { txn, pin });
            }
            Some(ReaderMode::LatchScan) => {}
            // Each object is its own granule, and the spec's disjoint sets
            // are its granule sets.
            _ if self.policy.lock_granularity == 1 => {
                self.sites[site.index()].protocol.register(&self.specs[txn]);
            }
            _ => {
                // Map object accesses onto lock granules: a granule is
                // write-mode if the transaction writes any object in it.
                let exec = self.exec.get_mut(&txn).expect("checked above");
                self.granule_scratch.map(
                    &self.specs[txn],
                    self.policy.lock_granularity,
                    &mut self.granule_spec,
                    &mut exec.lock_seq,
                );
                self.sites[site.index()]
                    .protocol
                    .register(&self.granule_spec);
            }
        }
    }

    /// The reader class serving `txn`, when it is a read-only transaction
    /// of a run with one (`None` for updates and for runs without reader
    /// classes).
    pub(crate) fn reader_mode(&self, txn: TxnId) -> Option<ReaderMode> {
        let mode = self.policy.reader_mode?;
        let spec = self.specs.get(txn)?;
        spec.write_set().is_empty().then_some(mode)
    }

    // ----- execution ----------------------------------------------------

    /// Queues `txn`'s current step and runs the queue.
    pub(crate) fn start(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        self.pending.push_back(Pending::Advance(txn));
        self.pump(sched);
    }

    /// The current step's burst completed: move to the next step.
    pub(crate) fn next_step(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        let Some(exec) = self.exec.get_mut(&txn) else {
            return;
        };
        exec.step += 1;
        self.start(txn, sched);
    }

    /// Processes pending control-flow work until quiescent. The queue is a
    /// reusable field (empty between events), so pumping allocates
    /// nothing in the steady state.
    pub(crate) fn pump(&mut self, sched: &mut Scheduler<D::Event>) {
        while let Some(item) = self.pending.pop_front() {
            match item {
                Pending::Advance(txn) => self.advance(txn, sched),
                Pending::Resume(txn) => self.resume(txn, sched),
                Pending::Restart(txn) => self.restart(txn, sched),
            }
        }
    }

    /// Requests the current step's lock (or commits when past the end).
    fn advance(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        let Some(exec) = self.exec.get(&txn) else {
            return; // deadline fired in between
        };
        if exec.step == exec.seq.len() {
            self.commit(txn, sched);
            return;
        }
        let site = exec.site;
        match self.reader_mode(txn) {
            // Snapshot readers access versioned state lock-free.
            Some(ReaderMode::Snapshot) => {
                self.access(txn, sched);
                return;
            }
            // Latch-scan readers take one range latch over their whole
            // read set at the first step, then scan under it.
            Some(ReaderMode::LatchScan) => {
                if self.exec[&txn].latched || self.try_latch(txn, sched) {
                    self.access(txn, sched);
                }
                return;
            }
            _ => {}
        }
        // A writer's point latch covers one step at a time.
        let exec = self.exec.get_mut(&txn).expect("checked above");
        exec.latched = false;
        let requests = if exec.lock_seq.is_empty() {
            &exec.seq
        } else {
            &exec.lock_seq
        };
        let (granule, gmode) = requests[exec.step];
        let now = sched.now();
        let result = self.sites[site.index()]
            .protocol
            .request(txn, granule, gmode);
        self.drain_protocol(site, now);
        self.apply_priority_updates(site, &result.priority_updates, sched);
        match result.outcome {
            RequestOutcome::Granted => {
                if self.needs_point_latch(txn) && !self.try_latch(txn, sched) {
                    return; // queued behind a scan; resumed by its release
                }
                self.access(txn, sched)
            }
            RequestOutcome::Blocked { blocker } => {
                if !D::is_system(txn) {
                    let lower = blocker.filter(|b| self.lower_priority(*b, txn));
                    self.stats.on_block(txn, now, lower);
                }
            }
            RequestOutcome::Deadlock { victim } => {
                // The requester is queued inside the protocol either way;
                // record the block, then schedule the victim's restart.
                self.stats.on_block(txn, now, None);
                self.pending.push_back(Pending::Restart(victim));
            }
        }
    }

    /// Whether `blocker` has a lower base priority than `txn`.
    pub(crate) fn lower_priority(&self, blocker: TxnId, txn: TxnId) -> bool {
        self.specs
            .get(blocker)
            .is_some_and(|b| b.base_priority() < self.specs[txn].base_priority())
    }

    /// A blocked request was granted (lock or latch): acquire whatever
    /// the current step still needs, then fetch and process the object.
    fn resume(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
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
        self.access(txn, sched)
    }

    /// Whether `txn`'s current step is a write that must take a point
    /// latch before touching the object (latch-scan mode only).
    fn needs_point_latch(&self, txn: TxnId) -> bool {
        if self.policy.reader_mode != Some(ReaderMode::LatchScan) || self.reader_mode(txn).is_some()
        {
            return false;
        }
        let exec = &self.exec[&txn];
        exec.seq[exec.step].1 == LockMode::Write
    }

    /// Requests the latch the current step needs: a reader's range latch
    /// over its whole read set, or a writer's single-object write latch.
    /// Returns whether the latch is held; on a block, records the wait.
    fn try_latch(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) -> bool {
        let now = sched.now();
        let exec = &self.exec[&txn];
        let site = exec.site;
        let (lo, hi, mode) = if self.reader_mode(txn) == Some(ReaderMode::LatchScan) {
            let reads = self.specs[txn].read_set();
            let lo = reads.iter().map(|o| o.0).min().expect("reader reads");
            let hi = reads.iter().map(|o| o.0).max().expect("reader reads");
            (ObjectId(lo), ObjectId(hi), LockMode::Read)
        } else {
            let (object, _) = exec.seq[exec.step];
            (object, object, LockMode::Write)
        };
        let lm = self.sites[site.index()]
            .latches
            .as_mut()
            .expect("latch mode is on");
        match lm.acquire(txn, lo, hi, mode) {
            LatchOutcome::Granted => {
                self.exec.get_mut(&txn).expect("checked above").latched = true;
                self.emit(
                    now,
                    site,
                    SimEventKind::RangeLatchAcquired { txn, lo, hi, mode },
                );
                true
            }
            LatchOutcome::Blocked { blocker } => {
                self.emit(
                    now,
                    site,
                    SimEventKind::RangeLatchBlocked {
                        txn,
                        lo,
                        hi,
                        blocker,
                    },
                );
                let lower = blocker.filter(|b| self.lower_priority(*b, txn));
                self.stats.on_block(txn, now, lower);
                false
            }
        }
    }

    /// Aborts a deadlock victim and restarts it from its first operation,
    /// keeping its original deadline and priority.
    fn restart(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        if !self.policy.restart_victims {
            // Treat like a deadline miss: the transaction is aborted for
            // good.
            if let Some(site) = self.abort(txn, AbortReason::DeadlockVictim, sched) {
                self.release(txn, site, ReleaseReason::Finished, sched);
            }
            return;
        }
        let Some(exec) = self.exec.get_mut(&txn) else {
            return; // its deadline beat the restart
        };
        exec.attempt += 1;
        exec.step = 0;
        exec.latched = false;
        let site = exec.site;
        let now = sched.now();
        self.stats.on_restart(txn, now);
        self.emit(
            now,
            site,
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlockVictim,
            },
        );
        self.remove_from_cpu(site, txn, sched);
        self.release(txn, site, ReleaseReason::Restart, sched);
        self.pending.push_back(Pending::Advance(txn));
    }

    /// The current step's access was just granted, at once or by a
    /// wake-up: read the object (a snapshot reader resolves it at its
    /// pin), then fetch it; with a memory-resident database the fetch is
    /// free and processing starts at once.
    fn access(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        let now = sched.now();
        let exec = &self.exec[&txn];
        let (site, attempt, burst) = (exec.site, exec.attempt, exec.burst);
        let (object, mode) = exec.seq[exec.step];
        if self.reader_mode(txn) == Some(ReaderMode::Snapshot) {
            self.snapshot_read(txn, object, site, now);
        } else if mode == LockMode::Read {
            D::on_read(self, txn, object, site, None, now);
        }
        if self.policy.io_per_object.is_zero() {
            self.submit_cpu(txn, site, burst, sched);
            return;
        }
        if let Some(finish) =
            self.sites[site.index()]
                .io
                .submit((txn, attempt), self.policy.io_per_object, now)
        {
            sched.schedule(finish, SiteEvent::IoDone { site, txn, attempt }.into());
        }
        // Otherwise the transfer queued behind busy channels; its IoDone
        // is scheduled when a channel frees up.
    }

    fn on_io_done(
        &mut self,
        site: SiteId,
        txn: TxnId,
        attempt: u32,
        sched: &mut Scheduler<D::Event>,
    ) {
        // The physical transfer finished regardless of whether the
        // transaction still wants it; a freed channel starts the next
        // queued transfer (bounded-parallelism configurations).
        if let Some(started) = self.sites[site.index()].io.complete(sched.now()) {
            let (txn, attempt) = started.task;
            sched.schedule(
                started.finish_at,
                SiteEvent::IoDone { site, txn, attempt }.into(),
            );
        }
        let Some(burst) = self
            .exec
            .get(&txn)
            .and_then(|e| (e.attempt == attempt).then_some(e.burst))
        else {
            return; // aborted or restarted while the I/O was in flight
        };
        self.submit_cpu(txn, site, burst, sched);
    }

    /// Resolves the current object at `txn`'s pinned instant and
    /// journals the version read. An evicted prefix is unconstructible —
    /// retention was shorter than the reader's lag — and emits nothing
    /// (the oracle cannot predict which version an evicted read would
    /// have seen; the GC invariant guards that case instead).
    fn snapshot_read(&mut self, txn: TxnId, object: ObjectId, site: SiteId, now: SimTime) {
        let (_, pin) = self.pins[&txn];
        let read = self.sites[site.index()]
            .versions
            .as_ref()
            .expect("snapshot readers read a version store")
            .read_at(object, pin);
        D::on_read(self, txn, object, site, Some(read), now);
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

    /// Counts a snapshot read and its staleness against the site's own
    /// versions: the lag of the version the pin resolves to.
    fn account_snapshot_read(
        &mut self,
        txn: TxnId,
        object: ObjectId,
        site: SiteId,
        read: SnapshotRead,
    ) {
        self.temporal.snapshot_reads += 1;
        if read.number().is_none() {
            self.temporal.unconstructible += 1;
            return;
        }
        let (_, pin) = self.pins[&txn];
        let vs = self.sites[site.index()]
            .versions
            .as_ref()
            .expect("snapshot readers read a version store");
        if let Some(lag) = vs.lag_at(object, pin) {
            self.temporal.lag_total += lag.ticks() as u128;
            self.temporal.lag_max = self.temporal.lag_max.max(lag.ticks());
        }
    }

    /// Queues `txn`'s `burst` for the current access on `site`'s CPU.
    pub(crate) fn submit_cpu(
        &mut self,
        txn: TxnId,
        site: SiteId,
        burst: SimDuration,
        sched: &mut Scheduler<D::Event>,
    ) {
        // Lockless readers never register with the protocol, so it has no
        // effective priority for them; they run at base EDF priority
        // (latch waits do not propagate inheritance).
        let priority = if self
            .reader_mode(txn)
            .is_some_and(|m| m != ReaderMode::Locking)
        {
            self.specs[txn].base_priority()
        } else {
            D::effective_priority(self, txn, site)
        };
        if burst.is_zero() {
            // Degenerate configuration: process instantly.
            D::step_done(self, txn, sched);
            return;
        }
        let started = self.sites[site.index()]
            .cpu
            .submit(txn, priority, burst, sched.now());
        Self::time_burst(site, started, sched);
    }

    fn on_burst_done(&mut self, site: SiteId, token: CpuToken, sched: &mut Scheduler<D::Event>) {
        match self.sites[site.index()].cpu.complete(token, sched.now()) {
            Completion::Stale => {}
            Completion::Finished { task, next } => {
                Self::time_burst(site, next, sched);
                D::step_done(self, task, sched);
            }
        }
    }

    /// Arms the completion timer of a burst `site`'s CPU just started.
    fn time_burst(
        site: SiteId,
        burst: Option<StartedBurst<TxnId>>,
        sched: &mut Scheduler<D::Event>,
    ) {
        if let Some(burst) = burst {
            let token = burst.token;
            sched.schedule(burst.finish_at, SiteEvent::BurstDone { site, token }.into());
        }
    }

    /// Takes `txn` off `site`'s CPU, timing the burst dispatched in its
    /// place.
    fn remove_from_cpu(&mut self, site: SiteId, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        if let Removed::WasRunning { next } = self.sites[site.index()].cpu.remove(txn, sched.now())
        {
            Self::time_burst(site, next, sched);
        }
    }

    // ----- commit, abort and release ------------------------------------

    /// Commits at the transaction's site: installs its writes, retires it
    /// and releases its locks.
    fn commit(&mut self, txn: TxnId, sched: &mut Scheduler<D::Event>) {
        let now = sched.now();
        let exec = self.retire(txn, sched).expect("committing unknown txn");
        let site = exec.site;
        for &(object, mode) in &exec.seq {
            if mode == LockMode::Write {
                self.install(site, txn, object, now, sched);
            }
        }
        self.recycle(exec);
        self.finish(txn, site, None, now);
        self.release(txn, site, ReleaseReason::Finished, sched);
    }

    /// Applies one committed write to `site`'s store and versions. The
    /// locks order a primary's commits, so a version store must take each
    /// as the object's newest version at its commit instant; a stale or
    /// clamped install panics.
    fn install(
        &mut self,
        site: SiteId,
        txn: TxnId,
        object: ObjectId,
        now: SimTime,
        sched: &mut Scheduler<D::Event>,
    ) {
        let store = &mut self.sites[site.index()].store;
        let current = store.read(object);
        let (value, version) = (current.value + 1, current.version + 1);
        store.apply_write(object, value, txn, now);
        let installed = self.install_version(site, object, value, version, txn, now);
        if self.sites[site.index()].versions.is_some() {
            assert!(
                installed.is_some_and(|i| i.at == now),
                "version {version} of {object} installed out of order at {now:?}"
            );
        }
        D::installed(self, site, txn, object, value, version, sched);
    }

    /// Installs `version` of `object` into `site`'s version store (when
    /// it keeps one) and journals the install and any eviction it caused.
    /// Returns what the store installed: `None` without a store or for a
    /// stale version.
    pub(crate) fn install_version(
        &mut self,
        site: SiteId,
        object: ObjectId,
        value: u64,
        version: u64,
        writer: TxnId,
        now: SimTime,
    ) -> Option<Install> {
        let installed = self.sites[site.index()]
            .versions
            .as_mut()
            .and_then(|vs| vs.install_if_newer(object, value, version, writer, now));
        if D::JOURNALS_INSTALLS || installed.is_some() {
            self.emit(
                now,
                site,
                SimEventKind::VersionInstalled {
                    object,
                    version,
                    writer,
                },
            );
        }
        if let Some(through) = installed.and_then(|i| i.evicted_through) {
            self.temporal.versions_gced += 1;
            self.emit(now, site, SimEventKind::VersionGced { object, through });
        }
        installed
    }

    /// Takes a live transaction's execution record out of the live set
    /// and disarms its deadline timer. The caller recycles the record
    /// once it is done with it.
    pub(crate) fn retire(
        &mut self,
        txn: TxnId,
        sched: &mut Scheduler<D::Event>,
    ) -> Option<Exec<D::Txn>> {
        let exec = self.exec.remove(&txn)?;
        if let Some(ev) = exec.deadline_ev {
            sched.cancel(ev);
        }
        Some(exec)
    }

    /// Counts `txn` as committed (`aborted` is `None`) or as aborted for
    /// the given reason — faulted for [`AbortReason::SiteFailed`], missed
    /// otherwise — and journals the outcome at `site`.
    pub(crate) fn finish(
        &mut self,
        txn: TxnId,
        site: SiteId,
        aborted: Option<AbortReason>,
        now: SimTime,
    ) {
        let reader = u64::from(self.reader_mode(txn).is_some());
        let Some(reason) = aborted else {
            self.stats.on_commit(txn, now);
            self.temporal.reader_committed += reader;
            self.emit(now, site, SimEventKind::TxnCommitted { txn });
            return;
        };
        if reason == AbortReason::SiteFailed {
            self.stats.on_fault_abort(txn, now);
        } else {
            self.stats.on_miss(txn, now);
            self.temporal.reader_missed += reader;
        }
        self.emit(now, site, SimEventKind::TxnAborted { txn, reason });
    }

    /// Aborts a live transaction: retires it, takes it off its CPU and
    /// counts it as missed, or as faulted for [`AbortReason::SiteFailed`].
    /// Returns its site, or `None` if it was not live. The caller
    /// releases what it holds.
    pub(crate) fn abort(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
        sched: &mut Scheduler<D::Event>,
    ) -> Option<SiteId> {
        let exec = self.retire(txn, sched)?;
        let site = exec.site;
        self.recycle(exec);
        self.finish(txn, site, Some(reason), sched.now());
        self.remove_from_cpu(site, txn, sched);
        Some(site)
    }

    /// Releases everything `txn` holds at `site` — its snapshot pin, its
    /// latches, its locks — and queues the wake-ups.
    pub(crate) fn release(
        &mut self,
        txn: TxnId,
        site: SiteId,
        reason: ReleaseReason,
        sched: &mut Scheduler<D::Event>,
    ) {
        let now = sched.now();
        match self.reader_mode(txn) {
            // Never touched the lock protocol or the latches.
            Some(ReaderMode::Snapshot) => self.release_pin(txn, site, now),
            mode => {
                self.release_latches(txn, site, sched);
                if mode == Some(ReaderMode::LatchScan) {
                    return; // never registered with the lock protocol
                }
                let release = self.sites[site.index()].protocol.release_all(txn, reason);
                self.drain_protocol(site, now);
                self.apply_release(site, release.wakeups, release.priority_updates, sched);
            }
        }
    }

    /// Closes `txn`'s snapshot pin and sweeps version chains the released
    /// watermark now lets GC trim.
    pub(crate) fn release_pin(&mut self, txn: TxnId, site: SiteId, now: SimTime) {
        let Some((id, _)) = self.pins.remove(&txn) else {
            return;
        };
        let vs = self.sites[site.index()]
            .versions
            .as_mut()
            .expect("pinned txn has a store");
        vs.unpin(id);
        for (object, through) in vs.gc() {
            self.temporal.versions_gced += 1;
            self.emit(now, site, SimEventKind::VersionGced { object, through });
        }
    }

    /// Releases every latch held or awaited by `txn` and resumes the
    /// requests that grant unblocks. A no-op outside latch-scan mode.
    fn release_latches(&mut self, txn: TxnId, site: SiteId, sched: &mut Scheduler<D::Event>) {
        let Some(lm) = self.sites[site.index()].latches.as_mut() else {
            return;
        };
        let had = lm.holds(txn) || lm.is_waiting(txn);
        let woken = lm.release_all(txn);
        let now = sched.now();
        if had {
            self.emit(now, site, SimEventKind::RangeLatchReleased { txn });
        }
        for g in woken {
            let Some(exec) = self.exec.get_mut(&g.txn) else {
                continue;
            };
            exec.latched = true;
            self.emit(
                now,
                site,
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

    /// Applies a release's priority updates and queues its wake-ups.
    fn apply_release(
        &mut self,
        site: SiteId,
        wakeups: Vec<Wakeup>,
        priority_updates: Vec<(TxnId, Priority)>,
        sched: &mut Scheduler<D::Event>,
    ) {
        self.apply_priority_updates(site, &priority_updates, sched);
        for w in wakeups {
            debug_assert!(self.exec.contains_key(&w.txn), "wakeup for finished txn");
            if !D::is_system(w.txn) {
                self.stats.on_unblock(w.txn, sched.now());
            }
            self.pending.push_back(Pending::Resume(w.txn));
        }
    }

    /// Re-prioritises `site`'s CPU after priority inheritance changed.
    pub(crate) fn apply_priority_updates(
        &mut self,
        site: SiteId,
        updates: &[(TxnId, Priority)],
        sched: &mut Scheduler<D::Event>,
    ) {
        for &(txn, priority) in updates {
            let started = self.sites[site.index()]
                .cpu
                .set_priority(txn, priority, sched.now());
            Self::time_burst(site, started, sched);
        }
    }

    // ----- report -------------------------------------------------------

    /// The run's report: stats folded up to `makespan`, counters summed
    /// over the sites, and the final stores. Temporal measurements are
    /// reported when the sites keep version stores.
    pub(crate) fn report(self, events: u64, makespan: SimTime) -> RunReport {
        let temporal = self.sites[0]
            .versions
            .is_some()
            .then(|| self.temporal.finish());
        RunReport {
            stats: self.stats.finish(makespan),
            deadlocks: self.sites.iter().map(|s| s.protocol.deadlock_count()).sum(),
            ceiling_blocks: self
                .sites
                .iter()
                .map(|s| s.protocol.ceiling_block_count())
                .sum(),
            preemptions: self.sites.iter().map(|s| s.cpu.preemption_count()).sum(),
            cpu_busy: self.sites.iter().map(|s| s.cpu.busy_time()).sum(),
            remote_messages: 0,
            net: None,
            events,
            stores: self.sites.into_iter().map(|s| s.store).collect(),
            temporal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::{Catalog, Placement};
    use workload::{Generator, WorkloadSpec};

    fn spec(id: u64, arrival: u64) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(arrival),
            vec![ObjectId(1)],
            Vec::new(),
            SimTime::from_ticks(arrival + 100),
            SiteId(0),
        )
    }

    /// Every id of `ids` resolves to its own spec.
    fn assert_resolves(store: &SpecStore, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            assert_eq!(store.get(TxnId(id)).map(|s| s.id), Some(TxnId(id)));
        }
    }

    #[test]
    fn generated_list_builds_no_index() {
        let catalog = Catalog::new(60, 3, Placement::FullyReplicated);
        let workload = WorkloadSpec::builder().txn_count(200).build();
        let store = SpecStore::new(Generator::new(&workload, &catalog).generate(5));
        assert!(store.slots.is_empty());
        assert_resolves(&store, 0..200);
        assert!(store.get(TxnId(200)).is_none());
    }

    #[test]
    fn reversed_hand_built_list_resolves_every_id() {
        // Id 2 sits at its own slot; the other four need index entries.
        let store = SpecStore::new((0..5).map(|i| spec(4 - i, i)).collect());
        assert_eq!(store.slots.len(), 4);
        assert_resolves(&store, 0..5);
        assert_eq!(store.arrival(0).map(|s| s.id), Some(TxnId(4)));
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id")]
    fn duplicate_of_an_id_at_its_own_slot_panics() {
        SpecStore::new(vec![spec(0, 0), spec(0, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate transaction id")]
    fn duplicate_of_an_id_before_its_own_slot_panics() {
        SpecStore::new(vec![spec(1, 0), spec(1, 1)]);
    }
}
