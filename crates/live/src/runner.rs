//! The worker-thread driver: generated transactions executed against
//! real wall-clock deadlines.
//!
//! `run_live` generates the same `workload` transaction stream the
//! simulated experiments use, spawns N OS worker threads, and has them
//! claim transactions closed-loop from the arrival-ordered list. Each
//! claim starts the transaction's wall clock: its deadline is the spec's
//! relative deadline (`deadline − arrival`, in ticks) converted to real
//! nanoseconds at [`TICK_NS`](crate::recorder::TICK_NS) from the claim
//! instant. Workers then run the classic strict-2PL shape — acquire every
//! lock (reads first, then writes), do the work while holding, commit,
//! release — against the chosen backend: the sharded [`LiveTable`] for
//! the 2PL family or the [`LiveCeiling`] admission gate for PCP.
//!
//! Each step reads the clock once: that reading tests the deadline and
//! stamps every event the step's acquire records. Releases take their own
//! reading, and the terminal commit or abort reads the clock again after
//! its release (see [`crate::recorder`]).
//!
//! Two cross-checks come out of every run:
//!
//! * the per-thread event buffers, merged by sequence stamp into one
//!   stream ([`LiveReport::events`]) for `monitor::CheckSink` replay
//!   under [`monitor::CheckConfig::live`];
//! * a shared data store written with deliberately non-atomic
//!   read-modify-write increments under write locks
//!   ([`LiveReport::store_consistent`]) — if write-lock exclusivity ever
//!   broke, increments would be lost and the final counts would not
//!   match the committed write sets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use monitor::{AbortReason, Histogram, SimEvent, SimEventKind};
use rtdb::{Catalog, LockMode, ObjectId, Placement, TxnId, TxnSpec};
use starlite::{SimDuration, SimTime};
use workload::{Generator, SizeDistribution, WorkloadSpec};

use crate::ceiling::LiveCeiling;
use crate::recorder::{Recorder, ThreadLog, TICK_NS};
use crate::table::{Acquire, LiveQueue, LiveTable};

/// Which locking protocol the live run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveProtocol {
    /// Two-phase locking, FIFO wait queues.
    TwoPhase,
    /// Two-phase locking, priority-ordered wait queues.
    TwoPhasePriority,
    /// Priority-queue 2PL plus priority inheritance.
    Inheritance,
    /// The paper's priority ceiling protocol (read/write semantics).
    Ceiling,
}

impl LiveProtocol {
    /// All four protocols, in the paper's presentation order.
    pub fn all() -> [LiveProtocol; 4] {
        [
            LiveProtocol::TwoPhase,
            LiveProtocol::TwoPhasePriority,
            LiveProtocol::Inheritance,
            LiveProtocol::Ceiling,
        ]
    }

    /// Short label used in sweep points and result files.
    pub fn name(self) -> &'static str {
        match self {
            LiveProtocol::TwoPhase => "2PL",
            LiveProtocol::TwoPhasePriority => "2PL-P",
            LiveProtocol::Inheritance => "PI",
            LiveProtocol::Ceiling => "PCP",
        }
    }

    /// Whether the protocol is ceiling-based — selects the oracle config
    /// ([`monitor::CheckConfig::live`]) and the backend.
    pub fn is_ceiling(self) -> bool {
        matches!(self, LiveProtocol::Ceiling)
    }

    /// The matching simulator protocol, for side-by-side comparison runs.
    pub fn sim_kind(self) -> rtlock::ProtocolKind {
        match self {
            LiveProtocol::TwoPhase => rtlock::ProtocolKind::TwoPhaseLocking,
            LiveProtocol::TwoPhasePriority => rtlock::ProtocolKind::TwoPhaseLockingPriority,
            LiveProtocol::Inheritance => rtlock::ProtocolKind::PriorityInheritance,
            LiveProtocol::Ceiling => rtlock::ProtocolKind::PriorityCeiling,
        }
    }
}

/// Parameters of one live run.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Protocol under test.
    pub protocol: LiveProtocol,
    /// Worker threads executing transactions.
    pub threads: usize,
    /// Transactions to execute.
    pub txn_count: u32,
    /// Database size (objects).
    pub db_size: u32,
    /// Objects per transaction.
    pub txn_size: u32,
    /// Fraction of read-only transactions.
    pub read_only_fraction: f64,
    /// Deadline slack factor (deadline = slack × size × per-object cost).
    pub slack_factor: f64,
    /// Nominal per-object cost the deadline rule multiplies, in ticks
    /// (µs of wall clock in a live run).
    pub per_object_cost: u64,
    /// Busy-work per object while its lock is held, in microseconds —
    /// the live stand-in for the simulator's CPU+I/O service time, and
    /// the knob that creates real lock contention.
    pub hold_us: u64,
    /// Workload seed.
    pub seed: u64,
}

impl LiveConfig {
    /// A contended default: paper-like shape (200 objects, size-8
    /// all-update transactions, slack 5) with enough per-object hold
    /// time that lock conflicts are real.
    pub fn new(protocol: LiveProtocol, threads: usize) -> Self {
        LiveConfig {
            protocol,
            threads,
            txn_count: 400,
            db_size: 200,
            txn_size: 8,
            read_only_fraction: 0.0,
            slack_factor: 5.0,
            per_object_cost: 1_500,
            hold_us: 20,
            seed: 7,
        }
    }

    /// A fast variant for smoke tests and CI: fewer transactions, less
    /// hold time, same protocol semantics.
    pub fn smoke(protocol: LiveProtocol, threads: usize) -> Self {
        LiveConfig {
            txn_count: 120,
            hold_us: 5,
            ..LiveConfig::new(protocol, threads)
        }
    }
}

/// What one live run produced.
#[derive(Debug)]
pub struct LiveReport {
    /// Protocol label ([`LiveProtocol::name`]).
    pub protocol: &'static str,
    /// Worker threads that ran.
    pub threads: usize,
    /// Transactions executed (committed + missed).
    pub processed: u32,
    /// Transactions committed before their wall deadline.
    pub committed: u32,
    /// Transactions aborted at their wall deadline.
    pub missed: u32,
    /// Deadlock-victim restarts (2PL family only).
    pub restarts: u32,
    /// Deadlock cycles detected.
    pub deadlocks: u64,
    /// Requests denied by the ceiling admission test (PCP only).
    pub ceiling_blocks: u64,
    /// Wall-clock duration of the threaded section.
    pub wall: Duration,
    /// Per-transaction blocked time, in ticks (µs).
    pub blocked_hist: Histogram,
    /// The merged, sequence-ordered event stream for oracle replay.
    pub events: Vec<(SimTime, SimEvent)>,
    /// Whether the shared store's final counts match the committed write
    /// sets — the lost-update witness for write-lock exclusivity.
    pub store_consistent: bool,
}

impl LiveReport {
    /// Committed transactions per wall-clock second.
    pub fn ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.committed as f64 / secs
        } else {
            0.0
        }
    }

    /// `100 × missed / processed`.
    pub fn pct_missed(&self) -> f64 {
        if self.processed > 0 {
            100.0 * self.missed as f64 / self.processed as f64
        } else {
            0.0
        }
    }
}

/// The two lock-manager backends behind one call surface. The gate is
/// boxed so the enum stays small either way (one allocation per run).
enum Backend {
    Table(LiveTable),
    Gate(Box<LiveCeiling>),
}

impl Backend {
    fn for_protocol(protocol: LiveProtocol) -> Self {
        match protocol {
            LiveProtocol::TwoPhase => Backend::Table(LiveTable::new(LiveQueue::Fifo, false)),
            LiveProtocol::TwoPhasePriority => {
                Backend::Table(LiveTable::new(LiveQueue::Priority, false))
            }
            LiveProtocol::Inheritance => Backend::Table(LiveTable::new(LiveQueue::Priority, true)),
            LiveProtocol::Ceiling => Backend::Gate(Box::new(LiveCeiling::new(false))),
        }
    }

    fn register(&self, rec: &Recorder, log: &mut ThreadLog, at: u64, spec: &TxnSpec) {
        match self {
            Backend::Table(t) => t.register(spec.id, spec.base_priority()),
            Backend::Gate(g) => g.register(rec, log, at, spec),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn acquire(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        at: u64,
        txn: TxnId,
        object: ObjectId,
        mode: LockMode,
        deadline: Instant,
        blocked_ticks: &mut u64,
    ) -> Acquire {
        match self {
            Backend::Table(t) => {
                t.acquire(rec, log, at, txn, object, mode, deadline, blocked_ticks)
            }
            Backend::Gate(g) => g.acquire(rec, log, at, txn, object, mode, deadline, blocked_ticks),
        }
    }

    /// Releases everything and retires the transaction (terminal exit —
    /// commit or deadline abort).
    fn finish(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        held: &[(ObjectId, LockMode)],
    ) {
        match self {
            Backend::Table(t) => {
                t.release_all(rec, log, txn, held);
                t.deregister(txn);
            }
            Backend::Gate(g) => g.finish(rec, log, txn),
        }
    }

    /// Releases everything but keeps the transaction registered, for a
    /// deadlock-victim restart (2PL family only — the ceiling gate is
    /// deadlock-free).
    fn prepare_restart(
        &self,
        rec: &Recorder,
        log: &mut ThreadLog,
        txn: TxnId,
        held: &[(ObjectId, LockMode)],
    ) {
        match self {
            Backend::Table(t) => {
                t.release_all(rec, log, txn, held);
                t.reset_priority(txn);
            }
            Backend::Gate(_) => unreachable!("ceiling admission is deadlock-free"),
        }
    }

    fn deadlocks(&self) -> u64 {
        match self {
            Backend::Table(t) => t.deadlocks(),
            Backend::Gate(_) => 0,
        }
    }

    fn ceiling_blocks(&self) -> u64 {
        match self {
            Backend::Table(_) => 0,
            Backend::Gate(g) => g.ceiling_blocks(),
        }
    }

    fn assert_quiescent(&self) {
        match self {
            Backend::Table(t) => {
                t.assert_compatible();
                assert!(t.idle(), "live lock table not idle after drain");
            }
            Backend::Gate(g) => g.assert_idle(),
        }
    }
}

/// How one transaction attempt ended.
enum TxnOutcome {
    Committed,
    Missed,
}

/// Per-worker tallies, merged into the report after the join.
#[derive(Default)]
struct WorkerStats {
    committed: u32,
    missed: u32,
    restarts: u32,
    blocked_hist: Histogram,
    /// Indices (into the spec list) of committed transactions, for the
    /// store-consistency expectation.
    committed_idx: Vec<usize>,
}

/// Spins for roughly `us` microseconds — the stand-in for per-object
/// service time. A sleep would be hopelessly coarse at this scale.
fn busy_work(us: u64) {
    if us == 0 {
        return;
    }
    let until = Instant::now() + Duration::from_micros(us);
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// Executes `config` on real threads and returns the merged report.
///
/// # Panics
///
/// Panics if `threads` is zero or a worker thread panics (a poisoned
/// bucket mutex inside the run surfaces here too).
pub fn run_live(config: &LiveConfig) -> LiveReport {
    assert!(config.threads > 0, "need at least one worker thread");
    let catalog = Catalog::new(config.db_size, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(config.txn_count)
        .mean_interarrival(SimDuration::from_ticks(
            (config.per_object_cost * config.txn_size as u64).max(1),
        ))
        .size(SizeDistribution::Fixed(config.txn_size))
        .read_only_fraction(config.read_only_fraction)
        .write_fraction(0.5)
        .deadline(
            config.slack_factor,
            SimDuration::from_ticks(config.per_object_cost),
        )
        .build();
    let specs = Generator::new(&workload, &catalog).generate(config.seed);

    let backend = Backend::for_protocol(config.protocol);
    let rec = Recorder::new();
    let next = AtomicUsize::new(0);
    let store: Vec<AtomicU64> = (0..config.db_size).map(|_| AtomicU64::new(0)).collect();

    let started = Instant::now();
    let mut results: Vec<(ThreadLog, WorkerStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut log = ThreadLog::new();
                    let mut stats = WorkerStats::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(idx) else { break };
                        let outcome = run_txn(
                            &backend,
                            &rec,
                            &mut log,
                            spec,
                            &store,
                            config.hold_us,
                            &mut stats,
                        );
                        match outcome {
                            TxnOutcome::Committed => {
                                stats.committed += 1;
                                stats.committed_idx.push(idx);
                            }
                            TxnOutcome::Missed => stats.missed += 1,
                        }
                    }
                    (log, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("live worker panicked"))
            .collect()
    });
    let wall = started.elapsed();
    backend.assert_quiescent();

    // Store-consistency expectation: each committed transaction bumped
    // every object in its write set exactly once, under a write lock.
    let mut expected = vec![0u64; config.db_size as usize];
    let mut committed = 0u32;
    let mut missed = 0u32;
    let mut restarts = 0u32;
    let mut blocked_hist = Histogram::new();
    for (_, stats) in &results {
        committed += stats.committed;
        missed += stats.missed;
        restarts += stats.restarts;
        blocked_hist.merge(&stats.blocked_hist);
        for &idx in &stats.committed_idx {
            for obj in &specs[idx].write_set {
                expected[obj.0 as usize] += 1;
            }
        }
    }
    let store_consistent = store
        .iter()
        .zip(&expected)
        .all(|(s, &e)| s.load(Ordering::Relaxed) == e);

    let deadlocks = backend.deadlocks();
    let ceiling_blocks = backend.ceiling_blocks();
    let events = Recorder::merge(results.drain(..).map(|(log, _)| log).collect());

    LiveReport {
        protocol: config.protocol.name(),
        threads: config.threads,
        processed: committed + missed,
        committed,
        missed,
        restarts,
        deadlocks,
        ceiling_blocks,
        wall,
        blocked_hist,
        events,
        store_consistent,
    }
}

/// Runs one transaction to a terminal event: commit, or abort at its
/// wall deadline (restarting through deadlock-victim aborts on the way).
fn run_txn(
    backend: &Backend,
    rec: &Recorder,
    log: &mut ThreadLog,
    spec: &TxnSpec,
    store: &[AtomicU64],
    hold_us: u64,
    stats: &mut WorkerStats,
) -> TxnOutcome {
    let txn = spec.id;
    let relative_ticks = spec
        .deadline
        .ticks()
        .saturating_sub(spec.arrival.ticks())
        .max(1);
    let claimed = Instant::now();
    let deadline = claimed + Duration::from_nanos(relative_ticks * TICK_NS);
    let at = rec.ticks_at(claimed);
    log.record(
        rec,
        at,
        SimEventKind::TxnArrived {
            txn,
            priority: spec.base_priority(),
        },
    );
    backend.register(rec, log, at, spec);
    log.record(rec, at, SimEventKind::TxnStarted { txn });

    // Strict 2PL: reads first, then writes; an object in both sets is
    // read-locked in the growing phase and upgraded at its write.
    let plan: Vec<(ObjectId, LockMode)> = spec
        .read_set
        .iter()
        .map(|&o| (o, LockMode::Read))
        .chain(spec.write_set.iter().map(|&o| (o, LockMode::Write)))
        .collect();

    let mut blocked_ticks = 0u64;
    let outcome = 'retry: loop {
        let mut held: Vec<(ObjectId, LockMode)> = Vec::new();
        for &(object, mode) in &plan {
            let now = Instant::now();
            if now >= deadline {
                break 'retry abort_missed(backend, rec, log, txn, &held);
            }
            let at = rec.ticks_at(now);
            match backend.acquire(
                rec,
                log,
                at,
                txn,
                object,
                mode,
                deadline,
                &mut blocked_ticks,
            ) {
                Acquire::Granted => {
                    held.push((object, mode));
                    busy_work(hold_us);
                }
                Acquire::Timeout => {
                    break 'retry abort_missed(backend, rec, log, txn, &held);
                }
                Acquire::Deadlock => {
                    // Chosen as a deadlock victim: release, abort
                    // (non-terminal under restart semantics), retry from
                    // the top if the deadline still allows it.
                    backend.prepare_restart(rec, log, txn, &held);
                    let now = Instant::now();
                    log.record(
                        rec,
                        rec.ticks_at(now),
                        SimEventKind::TxnAborted {
                            txn,
                            reason: AbortReason::DeadlockVictim,
                        },
                    );
                    stats.restarts += 1;
                    if now >= deadline {
                        break 'retry abort_missed(backend, rec, log, txn, &[]);
                    }
                    continue 'retry;
                }
            }
        }
        // All locks held; the commit decision is made before touching the
        // store so a last-instant miss leaves no trace in it.
        if Instant::now() >= deadline {
            break 'retry abort_missed(backend, rec, log, txn, &held);
        }
        // The increment is deliberately a non-atomic read-modify-write —
        // only write-lock exclusivity keeps it from losing updates, which
        // is exactly the property the final store comparison witnesses.
        for obj in &spec.write_set {
            let slot = &store[obj.0 as usize];
            let v = slot.load(Ordering::Relaxed);
            std::hint::spin_loop();
            slot.store(v + 1, Ordering::Relaxed);
        }
        for obj in &spec.read_set {
            std::hint::black_box(store[obj.0 as usize].load(Ordering::Relaxed));
        }
        backend.finish(rec, log, txn, &held);
        log.record(rec, rec.now_ticks(), SimEventKind::TxnCommitted { txn });
        break 'retry TxnOutcome::Committed;
    };
    stats.blocked_hist.record(blocked_ticks);
    outcome
}

/// The deadline-miss exit: release everything, then the terminal abort.
fn abort_missed(
    backend: &Backend,
    rec: &Recorder,
    log: &mut ThreadLog,
    txn: TxnId,
    held: &[(ObjectId, LockMode)],
) -> TxnOutcome {
    backend.finish(rec, log, txn, held);
    log.record(
        rec,
        rec.now_ticks(),
        SimEventKind::TxnAborted {
            txn,
            reason: AbortReason::DeadlineMissed,
        },
    );
    TxnOutcome::Missed
}
