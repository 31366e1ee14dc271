//! The worker-thread driver: generated transactions executed against
//! real wall-clock deadlines.
//!
//! `run_live` generates the same `workload` transaction stream the
//! simulated experiments use, spawns N OS worker threads, and has them
//! claim transactions closed-loop from the arrival-ordered list. Each
//! claim starts the transaction's wall clock: its deadline is the spec's
//! relative deadline (`deadline − arrival`, in ticks) converted to real
//! nanoseconds at [`TICK_NS`] from the claim
//! instant. Workers then run the classic strict-2PL shape — acquire every
//! lock (reads first, then writes), do the work while holding, commit,
//! release — through one [`LiveGate`] around the protocol's state
//! machine. A deadlock victim's abort and releases are recorded by the
//! gate that picked it, so a worker keeps no list of what it holds: it
//! retries from its first lock, and its one [`LiveGate::finish`] releases
//! whatever the protocol says it holds.
//!
//! Each step reads the clock once: that reading tests the deadline and
//! stamps every event the step's acquire records. Releases take their own
//! reading, and the terminal commit or abort reads the clock again after
//! its release (see [`crate::gate`]). Workers record nothing themselves.
//!
//! Two cross-checks come out of every run:
//!
//! * the gate's event stream, taken as the gate appended it
//!   ([`LiveReport::events`]), for `monitor::CheckSink` replay under
//!   [`monitor::CheckConfig::live`];
//! * a shared data store written with deliberately non-atomic
//!   read-modify-write increments under write locks
//!   ([`LiveReport::store_consistent`]) — if write-lock exclusivity ever
//!   broke, increments would be lost and the final counts would not
//!   match the committed write sets.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use monitor::{Histogram, SimEvent};
use rtdb::{Catalog, Placement, TxnSpec};
use starlite::{SimDuration, SimTime};
use workload::{Generator, SizeDistribution, WorkloadSpec};

use crate::gate::{Acquire, LiveGate, TICK_NS};

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
    /// ([`monitor::CheckConfig::live`]).
    pub fn is_ceiling(self) -> bool {
        matches!(self, LiveProtocol::Ceiling)
    }

    /// The simulator protocol the live gate runs (and the simulated
    /// counterpart in side-by-side comparison runs).
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

    /// The transactions a run of this configuration executes, in arrival
    /// order: the same `workload` generator the simulated experiments
    /// use.
    pub fn transactions(&self) -> Vec<TxnSpec> {
        let catalog = Catalog::new(self.db_size, 1, Placement::SingleSite);
        let workload = WorkloadSpec::builder()
            .txn_count(self.txn_count)
            .mean_interarrival(SimDuration::from_ticks(
                (self.per_object_cost * self.txn_size as u64).max(1),
            ))
            .size(SizeDistribution::Fixed(self.txn_size))
            .read_only_fraction(self.read_only_fraction)
            .write_fraction(0.5)
            .deadline(
                self.slack_factor,
                SimDuration::from_ticks(self.per_object_cost),
            )
            .build();
        Generator::new(&workload, &catalog).generate(self.seed)
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
    /// The gate's event stream exactly as it appended it: a linearization
    /// of the lock manager's history with non-decreasing stamps, for
    /// oracle replay.
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
/// gate mutex inside the run surfaces here too), or if the protocol is
/// not idle once every worker has finished.
pub fn run_live(config: &LiveConfig) -> LiveReport {
    assert!(config.threads > 0, "need at least one worker thread");
    let specs = config.transactions();

    let gate = LiveGate::new(config.protocol);
    let next = AtomicUsize::new(0);
    let store: Vec<AtomicU64> = (0..config.db_size).map(|_| AtomicU64::new(0)).collect();

    let started = Instant::now();
    let results: Vec<WorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut stats = WorkerStats::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(idx) else { break };
                        match run_txn(&gate, spec, &store, config.hold_us, &mut stats) {
                            TxnOutcome::Committed => {
                                stats.committed += 1;
                                stats.committed_idx.push(idx);
                            }
                            TxnOutcome::Missed => stats.missed += 1,
                        }
                    }
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("live worker panicked"))
            .collect()
    });
    let wall = started.elapsed();
    gate.assert_idle();

    // Store-consistency expectation: each committed transaction bumped
    // every object in its write set exactly once, under a write lock.
    let mut expected = vec![0u64; config.db_size as usize];
    let mut committed = 0u32;
    let mut missed = 0u32;
    let mut restarts = 0u32;
    let mut blocked_hist = Histogram::new();
    for stats in &results {
        committed += stats.committed;
        missed += stats.missed;
        restarts += stats.restarts;
        blocked_hist.merge(&stats.blocked_hist);
        for &idx in &stats.committed_idx {
            for obj in specs[idx].write_set() {
                expected[obj.0 as usize] += 1;
            }
        }
    }
    let store_consistent = store
        .iter()
        .zip(&expected)
        .all(|(s, &e)| s.load(Ordering::Relaxed) == e);

    let deadlocks = gate.deadlocks();
    let ceiling_blocks = gate.ceiling_blocks();
    let events = gate.take_events();

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
    gate: &LiveGate,
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
    gate.register(gate.ticks_at(claimed), spec);

    let mut blocked_ticks = 0u64;
    let outcome = 'retry: loop {
        // Strict 2PL: reads first, then writes; an object in both sets is
        // read-locked in the growing phase and upgraded at its write.
        for (object, mode) in spec.access_ops() {
            let now = Instant::now();
            if now >= deadline {
                break 'retry TxnOutcome::Missed;
            }
            match gate.acquire(
                gate.ticks_at(now),
                txn,
                object,
                mode,
                deadline,
                &mut blocked_ticks,
            ) {
                Acquire::Granted => busy_work(hold_us),
                Acquire::Timeout => break 'retry TxnOutcome::Missed,
                Acquire::Deadlock => {
                    // Chosen as a deadlock victim: the gate has recorded
                    // the (non-terminal) abort and released everything.
                    // Retry from the top; its first step's deadline test
                    // ends the transaction if the deadline has passed.
                    stats.restarts += 1;
                    continue 'retry;
                }
            }
        }
        // All locks held; the commit decision is made before touching the
        // store so a last-instant miss leaves no trace in it.
        if Instant::now() >= deadline {
            break 'retry TxnOutcome::Missed;
        }
        // The increment is deliberately a non-atomic read-modify-write —
        // only write-lock exclusivity keeps it from losing updates, which
        // is exactly the property the final store comparison witnesses.
        for obj in spec.write_set() {
            let slot = &store[obj.0 as usize];
            let v = slot.load(Ordering::Relaxed);
            std::hint::spin_loop();
            slot.store(v + 1, Ordering::Relaxed);
        }
        for obj in spec.read_set() {
            std::hint::black_box(store[obj.0 as usize].load(Ordering::Relaxed));
        }
        break 'retry TxnOutcome::Committed;
    };
    gate.finish(txn, matches!(outcome, TxnOutcome::Committed));
    stats.blocked_hist.record(blocked_ticks);
    outcome
}
