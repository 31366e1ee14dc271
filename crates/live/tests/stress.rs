//! Seeded multi-thread stress tests for the live lock manager.
//!
//! Four layers of evidence that grant / upgrade / release are sound
//! under real concurrency:
//!
//! 1. **Direct gate pounding** — worker threads hammer a tiny object set
//!    through [`LiveGate`] with generous deadlines, for each protocol of
//!    the 2PL family. Mutual exclusion is witnessed by non-atomic
//!    counters that only write-lock exclusivity keeps exact; completion
//!    itself witnesses the absence of lost wakeups (a dropped grant would
//!    strand a waiter until its multi-second deadline and trip the
//!    grant-count assertions), the gate's own event stream replays
//!    through the oracle, and a directed test pins down the race of a
//!    timeout against a victim pick.
//! 2. **Full runs through the oracle** — every protocol's event stream,
//!    as the gate appended it, replays through `CheckSink`, whose
//!    lock-compatibility check rejects double grants and whose finish
//!    pass rejects leftover waiters (lost wakeups) and leftover holders
//!    (leaked locks).
//! 3. **Store consistency** — the runner's shared store must match the
//!    committed write sets exactly.
//! 4. **Stamp fidelity** — one clock reading stamps a whole lock-manager
//!    call, so the test checks that no stamp is taken before busy work it
//!    should come after: releases and commits must trail the work done
//!    under the locks they end.
//!
//! Everything is seeded: thread interleavings vary, but the workloads
//! and decision points are deterministic functions of the seed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use monitor::{AbortReason, CheckConfig, CheckSink, SimEvent, SimEventKind};
use rtdb::{LockMode, ObjectId, SiteId, TxnId, TxnSpec};
use rtlock_live::runner::{run_live, LiveConfig, LiveProtocol};
use rtlock_live::{Acquire, LiveGate};
use starlite::{EventSink, SimTime};

/// The protocols that can deadlock, and so restart victims.
const TWO_PHASE_FAMILY: [LiveProtocol; 3] = [
    LiveProtocol::TwoPhase,
    LiveProtocol::TwoPhasePriority,
    LiveProtocol::Inheritance,
];

/// Tiny deterministic generator (splitmix64) for per-thread decisions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A transaction declaring `reads` and `writes`; an earlier `deadline`
/// gives it a higher priority.
fn spec(txn: TxnId, reads: &[ObjectId], writes: &[ObjectId], deadline: u64) -> TxnSpec {
    TxnSpec::new(
        txn,
        SimTime::ZERO,
        reads.to_vec(),
        writes.to_vec(),
        SimTime::from_ticks(deadline),
        SiteId(0),
    )
}

/// Replays an event stream through the oracle and asserts zero
/// violations.
fn assert_events_clean(label: &str, events: &[(SimTime, SimEvent)], ceiling: bool) {
    let mut sink = CheckSink::new(CheckConfig::live(ceiling));
    for &(at, event) in events {
        sink.emit(at, event);
    }
    let violations = sink.finish();
    assert!(
        violations.is_empty(),
        "{label}: {} oracle violations, first: {:?}",
        violations.len(),
        violations.first()
    );
}

/// Replays a live report through the oracle and asserts zero violations.
fn assert_oracle_clean(report: &rtlock_live::LiveReport, ceiling: bool) {
    assert_events_clean(report.protocol, &report.events, ceiling);
}

#[test]
fn direct_gate_write_contention_has_no_double_grants() {
    // 8 threads × 60 iterations over 4 objects, all write locks: every
    // grant enters a non-atomic increment on its object's cell. Any
    // double grant loses an increment; any lost wakeup strands a thread
    // until the 30 s deadline and desyncs the counts too.
    const THREADS: u64 = 8;
    const ITERS: u64 = 60;
    const OBJECTS: u64 = 4;
    for protocol in TWO_PHASE_FAMILY {
        let gate = LiveGate::new(protocol);
        let cells: Vec<AtomicU64> = (0..OBJECTS).map(|_| AtomicU64::new(0)).collect();
        let granted: Vec<AtomicU64> = (0..OBJECTS).map(|_| AtomicU64::new(0)).collect();

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let gate = &gate;
                let cells = &cells;
                let granted = &granted;
                scope.spawn(move || {
                    let mut rng = Rng(0xA11CE + t);
                    let deadline = Instant::now() + Duration::from_secs(30);
                    for i in 0..ITERS {
                        let txn = TxnId(1 + t * ITERS + i);
                        let object = ObjectId((rng.next() % OBJECTS) as u32);
                        gate.register(gate.now_ticks(), &spec(txn, &[], &[object], 1));
                        let mut blocked = 0u64;
                        match gate.acquire(
                            gate.now_ticks(),
                            txn,
                            object,
                            LockMode::Write,
                            deadline,
                            &mut blocked,
                        ) {
                            Acquire::Granted => {
                                granted[object.0 as usize].fetch_add(1, Ordering::Relaxed);
                                let cell = &cells[object.0 as usize];
                                let v = cell.load(Ordering::Relaxed);
                                std::hint::spin_loop();
                                cell.store(v + 1, Ordering::Relaxed);
                                gate.finish(txn, true);
                            }
                            other => panic!(
                                "{}: unexpected outcome {other:?} for {txn}",
                                protocol.name()
                            ),
                        }
                    }
                });
            }
        });

        gate.assert_idle();
        assert_events_clean(protocol.name(), &gate.take_events(), false);
        for (i, (cell, g)) in cells.iter().zip(&granted).enumerate() {
            assert_eq!(
                cell.load(Ordering::Relaxed),
                g.load(Ordering::Relaxed),
                "{}: object {i}: lost update — write locks were not exclusive",
                protocol.name()
            );
        }
    }
}

#[test]
fn direct_gate_upgrades_are_exclusive() {
    // Threads read-lock the single object, then upgrade to write. The
    // upgrade must wait out every co-reader, so the non-atomic counter
    // stays exact. Deadlocked upgrade pairs (both readers want write)
    // are broken by the gate, which releases the victim's read lock; the
    // victim retries.
    const THREADS: u64 = 6;
    const ITERS: u64 = 40;
    let object = ObjectId(0);
    for protocol in TWO_PHASE_FAMILY {
        let gate = LiveGate::new(protocol);
        let cell = AtomicU64::new(0);
        let commits = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let gate = &gate;
                let cell = &cell;
                let commits = &commits;
                scope.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(30);
                    for i in 0..ITERS {
                        let txn = TxnId(1 + t * ITERS + i);
                        let declared = spec(txn, &[], &[object], 100 - t);
                        gate.register(gate.now_ticks(), &declared);
                        loop {
                            let mut blocked = 0u64;
                            let read = gate.acquire(
                                gate.now_ticks(),
                                txn,
                                object,
                                LockMode::Read,
                                deadline,
                                &mut blocked,
                            );
                            assert!(
                                matches!(read, Acquire::Granted | Acquire::Deadlock),
                                "read acquire returned {read:?}"
                            );
                            if read == Acquire::Deadlock {
                                continue;
                            }
                            match gate.acquire(
                                gate.now_ticks(),
                                txn,
                                object,
                                LockMode::Write,
                                deadline,
                                &mut blocked,
                            ) {
                                Acquire::Granted => {
                                    let v = cell.load(Ordering::Relaxed);
                                    std::hint::spin_loop();
                                    cell.store(v + 1, Ordering::Relaxed);
                                    commits.fetch_add(1, Ordering::Relaxed);
                                    gate.finish(txn, true);
                                    break;
                                }
                                // Two upgraders deadlocked and this one was
                                // the victim: its read lock is gone; retry.
                                Acquire::Deadlock => {}
                                Acquire::Timeout => panic!("upgrade timed out under 30 s deadline"),
                            }
                        }
                    }
                });
            }
        });

        gate.assert_idle();
        assert_events_clean(protocol.name(), &gate.take_events(), false);
        assert_eq!(
            cell.load(Ordering::Relaxed),
            commits.load(Ordering::Relaxed),
            "{}: lost update through a non-exclusive upgrade",
            protocol.name()
        );
        assert_eq!(commits.load(Ordering::Relaxed), THREADS * ITERS);
    }
}

#[test]
fn deadlocks_are_detected_and_victims_released() {
    // Two threads lock (A then B) and (B then A) repeatedly with long
    // deadlines: timeouts can't resolve the cycles, so only detection
    // can. The run finishing at all proves every cycle was broken and
    // the victim's release woke the survivor.
    let a = ObjectId(0);
    let b = ObjectId(1);
    const ITERS: u64 = 50;
    for protocol in TWO_PHASE_FAMILY {
        let gate = LiveGate::new(protocol);

        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let gate = &gate;
                scope.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(60);
                    let (first, second) = if t == 0 { (a, b) } else { (b, a) };
                    for i in 0..ITERS {
                        let txn = TxnId(1 + t * ITERS + i);
                        let declared = spec(txn, &[], &[first, second], 100 - t);
                        gate.register(gate.now_ticks(), &declared);
                        'txn: loop {
                            let mut blocked = 0u64;
                            for obj in [first, second] {
                                match gate.acquire(
                                    gate.now_ticks(),
                                    txn,
                                    obj,
                                    LockMode::Write,
                                    deadline,
                                    &mut blocked,
                                ) {
                                    Acquire::Granted => {}
                                    // The gate already released what we held.
                                    Acquire::Deadlock => continue 'txn,
                                    Acquire::Timeout => panic!("timeout under 60 s deadline"),
                                }
                            }
                            gate.finish(txn, true);
                            break 'txn;
                        }
                    }
                });
            }
        });

        gate.assert_idle();
        assert_events_clean(protocol.name(), &gate.take_events(), false);
        // With opposed lock orders and 50 rounds each, at least one cycle
        // is all but certain — but the assertion that matters is
        // completion and idleness above; the count is informational.
        let _ = gate.deadlocks();
    }
}

#[test]
fn timed_out_waiter_picked_as_victim_is_released_once_and_missed_once() {
    // `low` holds A and times out queued for B, which `high` holds.
    // Before `low` reaches finish, `high` asks for A and closes the
    // cycle; `low`, the lower priority, is the victim. The gate must
    // record the victim's abort and release A once (handing it to
    // `high`), and `low`'s own finish must release nothing again and end
    // in exactly one deadline miss, after the victim abort.
    let (a, b) = (ObjectId(0), ObjectId(1));
    let (low, high) = (TxnId(1), TxnId(2));
    for protocol in TWO_PHASE_FAMILY {
        let gate = LiveGate::new(protocol);
        let far = Instant::now() + Duration::from_secs(60);
        let acquire = |txn, object, deadline| {
            let mut blocked = 0u64;
            let at = gate.now_ticks();
            gate.acquire(at, txn, object, LockMode::Write, deadline, &mut blocked)
        };
        gate.register(gate.now_ticks(), &spec(low, &[], &[a, b], 2_000));
        gate.register(gate.now_ticks(), &spec(high, &[], &[b, a], 1_000));
        assert_eq!(acquire(low, a, far), Acquire::Granted);
        assert_eq!(acquire(high, b, far), Acquire::Granted);
        let soon = Instant::now() + Duration::from_millis(2);
        assert_eq!(acquire(low, b, soon), Acquire::Timeout);
        assert_eq!(acquire(high, a, far), Acquire::Granted);
        gate.finish(low, false);
        gate.finish(high, true);
        gate.assert_idle();
        assert_eq!(gate.deadlocks(), 1, "{}", protocol.name());

        let events = gate.take_events();
        assert_events_clean(protocol.name(), &events, false);
        let mut releases: HashMap<(TxnId, ObjectId), u32> = HashMap::new();
        let (mut victims, mut aborts) = (Vec::new(), Vec::new());
        for (_, event) in &events {
            match event.kind {
                SimEventKind::LockReleased { txn, object } => {
                    *releases.entry((txn, object)).or_default() += 1;
                }
                SimEventKind::DeadlockDetected { victim } => victims.push(victim),
                SimEventKind::TxnAborted { txn, reason } => aborts.push((txn, reason)),
                _ => {}
            }
        }
        let expected = HashMap::from([((low, a), 1), ((high, a), 1), ((high, b), 1)]);
        assert_eq!(releases, expected, "{}", protocol.name());
        assert_eq!(victims, vec![low], "{}", protocol.name());
        assert_eq!(
            aborts,
            vec![
                (low, AbortReason::DeadlockVictim),
                (low, AbortReason::DeadlineMissed)
            ],
            "{}",
            protocol.name()
        );
    }
}

#[test]
fn all_live_protocols_pass_the_oracle_at_four_threads() {
    for protocol in LiveProtocol::all() {
        let config = LiveConfig::smoke(protocol, 4);
        let report = run_live(&config);
        assert_eq!(
            report.processed, config.txn_count,
            "{}: not every transaction reached a terminal event",
            report.protocol
        );
        assert!(
            report.store_consistent,
            "{}: store diverged from committed write sets",
            report.protocol
        );
        assert!(
            report.committed > 0,
            "{}: nothing committed in the smoke run",
            report.protocol
        );
        assert_oracle_clean(&report, protocol.is_ceiling());
    }
}

#[test]
fn heavy_contention_run_stays_oracle_clean() {
    // A deliberately vicious configuration: 8 objects, size-4 updates,
    // 8 threads, long holds — deadlock city for 2PL. The oracle must
    // still find a perfectly consistent lock history, and the store
    // must match the commits exactly.
    let mut config = LiveConfig::new(LiveProtocol::TwoPhase, 8);
    config.db_size = 8;
    config.txn_size = 4;
    config.txn_count = 200;
    config.hold_us = 10;
    config.seed = 42;
    let report = run_live(&config);
    assert_eq!(report.processed, config.txn_count);
    assert!(report.store_consistent, "store diverged under contention");
    assert_oracle_clean(&report, false);
}

#[test]
fn priority_inheritance_run_emits_and_survives_donations() {
    let mut config = LiveConfig::new(LiveProtocol::Inheritance, 6);
    config.db_size = 16;
    config.txn_size = 4;
    config.txn_count = 150;
    config.hold_us = 15;
    config.seed = 11;
    let report = run_live(&config);
    assert_eq!(report.processed, config.txn_count);
    assert!(report.store_consistent);
    assert_oracle_clean(&report, false);
}

#[test]
fn ceiling_run_is_deadlock_free_under_contention() {
    let mut config = LiveConfig::new(LiveProtocol::Ceiling, 6);
    config.db_size = 16;
    config.txn_size = 4;
    config.txn_count = 150;
    config.hold_us = 15;
    config.seed = 3;
    let report = run_live(&config);
    assert_eq!(report.processed, config.txn_count);
    assert_eq!(report.deadlocks, 0, "PCP must be deadlock-free");
    assert!(report.store_consistent);
    // ceiling=true keeps the deadlock-freedom and WFG checks armed.
    assert_oracle_clean(&report, true);
}

#[test]
fn single_thread_run_matches_the_simulated_invariants_exactly() {
    // One worker is the degenerate case closest to the simulator: no
    // real concurrency, so even blocked-at-most-once could hold — the
    // multicore waiver must not be *needed*, merely tolerated.
    for protocol in LiveProtocol::all() {
        let mut config = LiveConfig::smoke(protocol, 1);
        config.txn_count = 60;
        let report = run_live(&config);
        assert_eq!(report.processed, 60, "{}", report.protocol);
        assert_eq!(
            report.restarts, 0,
            "{}: deadlock with one thread",
            report.protocol
        );
        assert!(report.store_consistent);
        assert_oracle_clean(&report, protocol.is_ceiling());
    }
}

#[test]
fn stamps_trail_the_work_done_under_each_lock() {
    // One worker, 40 µs of busy work after every grant and deadlines far
    // beyond the run: every transaction commits, its commit comes at
    // least four holds after its arrival, and each object's release comes
    // at least one hold after that object's last grant. A release or
    // commit stamped with an earlier acquire's reading breaks one of the
    // two. (One tick is 1 µs; stamps are floored, hence the −1.)
    const HOLD_US: u64 = 40;
    const SIZE: u32 = 4;
    for protocol in LiveProtocol::all() {
        let mut config = LiveConfig::new(protocol, 1);
        config.db_size = 200;
        config.txn_size = SIZE;
        config.txn_count = 50;
        config.hold_us = HOLD_US;
        config.slack_factor = 100.0;
        let report = run_live(&config);
        assert_eq!(report.committed, config.txn_count, "{}", report.protocol);

        let mut arrived = HashMap::new();
        let mut granted = HashMap::new();
        let mut released = 0;
        for (at, event) in &report.events {
            let at = at.ticks();
            match event.kind {
                SimEventKind::TxnArrived { txn, .. } => {
                    arrived.insert(txn, at);
                }
                SimEventKind::LockGranted { txn, object, .. }
                | SimEventKind::LockUpgraded { txn, object } => {
                    granted.insert((txn, object), at);
                }
                SimEventKind::LockReleased { txn, object } => {
                    let last_grant = granted[&(txn, object)];
                    assert!(
                        at >= last_grant + HOLD_US - 1,
                        "{}: {txn} released {object} at {at}, {} ticks after its last grant",
                        report.protocol,
                        at - last_grant
                    );
                    released += 1;
                }
                SimEventKind::TxnCommitted { txn } => {
                    let latency = at - arrived[&txn];
                    assert!(
                        latency >= u64::from(SIZE) * HOLD_US - 1,
                        "{}: {txn} committed {latency} ticks after arriving",
                        report.protocol
                    );
                }
                _ => {}
            }
        }
        assert!(released > 0, "{}: no releases recorded", report.protocol);
    }
}
