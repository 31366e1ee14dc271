//! The live lock manager: one gate around the simulator's protocols.
//!
//! Rather than re-deriving the paper's locking rules for real threads,
//! the gate wraps the *simulator's own* [`LockProtocol`] state machine —
//! 2PL, priority-queue 2PL, priority inheritance or the priority ceiling
//! protocol, built by [`make_protocol`] — in a single mutex. Every
//! register / request / release runs exactly the code the simulated
//! experiments run, with tracing on, and the journalled events take their
//! sequence numbers (see [`crate::recorder`]) while the gate is still
//! held, so the merged stream linearizes the gate's history exactly. Each
//! call stamps its whole journal with one clock reading: an acquire with
//! the caller's, [`LiveGate::finish`] with one taken as the release
//! starts. Threads denied a lock park on a `WaitSlot`; whichever
//! thread's release grants them performs the grant inside its own
//! critical section and signals the slot.
//!
//! A request that closes a waits-for cycle (the 2PL family) restarts the
//! protocol's chosen victim inside the critical section that found the
//! cycle, as the simulator's transaction manager does:
//! `release_all(victim, Restart)` frees its locks and withdraws its
//! queued request, the grants that release allows are handed out, and
//! the victim — parked on its slot, or the requester itself — returns
//! [`Acquire::Deadlock`] and retries from its first lock.
//!
//! The gate also records each transaction's arrival and terminal event
//! inside its critical section, so the stream is a complete log of the
//! protocol calls even where a call journals nothing (a registration, or
//! a finish that releases nothing): replaying it into a fresh protocol
//! instance must reproduce every lock event, which `tests/conformance.rs`
//! checks.
//!
//! One latch serializes the whole protocol. The ceiling protocol needs
//! that by construction (admission consults the ceilings of every locked
//! object in the system), and the 2PL family's deadlock detector walks
//! one waits-for graph across all objects. Splitting the latch per shard
//! or per record is worth its code only where measurement shows latch
//! wait dominating.
//!
//! Deadlock freedom of the ceiling protocol comes from the admission
//! argument, unchanged on multicore: only transactions holding no locks
//! ever block, so no wait cycle can involve a lock holder. What does NOT
//! carry over to real concurrency is *blocked-at-most-once* in its
//! uniprocessor form, which is why [`monitor::CheckConfig::live`] waives
//! only that check.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use monitor::{AbortReason, SimEventKind};
use rtdb::{LockMode, ObjectId, TxnId, TxnSpec};
use rtlock::protocols::{make_protocol, LockProtocol, ReleaseReason, RequestOutcome, Wakeup};
use rtlock::VictimPolicy;
use starlite::FxHashMap;

use crate::recorder::{Recorder, ThreadLog};
use crate::runner::LiveProtocol;

/// Outcome of a blocking acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// The caller was chosen as a deadlock victim. The gate has already
    /// released its locks and withdrawn its request; record the abort and
    /// restart the transaction.
    Deadlock,
    /// The wall-clock deadline passed while the request was queued —
    /// possibly before the caller even parked. The lock is NOT held, and
    /// the request stays queued until [`LiveGate::finish`] withdraws it. A
    /// grant or victim pick that races the timeout returns
    /// [`Acquire::Granted`] or [`Acquire::Deadlock`] instead.
    Timeout,
}

/// What a parked waiter observes when it wakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitState {
    Waiting,
    Granted,
    Victim,
}

/// One parked request: the waiter sleeps here, and the thread holding the
/// gate flips the state and signals. Every flip is made under the gate, so
/// a grant and a victim pick never race each other.
#[derive(Debug)]
struct WaitSlot {
    state: Mutex<WaitState>,
    cv: Condvar,
}

impl WaitSlot {
    fn new() -> Arc<Self> {
        Arc::new(WaitSlot {
            state: Mutex::new(WaitState::Waiting),
            cv: Condvar::new(),
        })
    }

    fn state(&self) -> MutexGuard<'_, WaitState> {
        self.state
            .lock()
            .expect("a thread panicked holding a wait slot")
    }

    /// Flips to `to` and wakes the waiter.
    fn wake(&self, to: WaitState) {
        let mut st = self.state();
        if *st == WaitState::Waiting {
            *st = to;
            self.cv.notify_all();
        }
    }

    /// The state the slot has settled to (final once the slot has left the
    /// gate's map, since only the gate flips it).
    fn settled(&self) -> WaitState {
        *self.state()
    }
}

/// Parks on `slot` until it leaves `Waiting` or `deadline` passes;
/// a `Waiting` return means the deadline expired first.
fn wait_until(slot: &WaitSlot, deadline: Instant) -> WaitState {
    let mut st = slot.state();
    loop {
        match *st {
            WaitState::Waiting => {
                let now = Instant::now();
                if now >= deadline {
                    return WaitState::Waiting;
                }
                let (guard, _) = slot
                    .cv
                    .wait_timeout(st, deadline - now)
                    .expect("a thread panicked holding a wait slot");
                st = guard;
            }
            s => return s,
        }
    }
}

#[derive(Debug)]
struct Gate {
    proto: Box<dyn LockProtocol + Send>,
    /// Wait slot of every thread currently parked on a denied request.
    slots: FxHashMap<TxnId, Arc<WaitSlot>>,
    /// Scratch buffer for draining the protocol's event journal.
    drained: Vec<SimEventKind>,
}

impl Gate {
    /// Moves the protocol's journalled events into `log`, sequenced while
    /// the gate is held — this is what makes the merged stream a valid
    /// linearization of the gate's history — and all stamped `at`.
    fn drain(&mut self, rec: &Recorder, log: &mut ThreadLog, at: u64) {
        self.proto.drain_events(&mut self.drained);
        for kind in self.drained.drain(..) {
            log.record(rec, at, kind);
        }
    }

    /// Signals every parked request a release granted.
    fn wake(&mut self, wakeups: &[Wakeup]) {
        for w in wakeups {
            if let Some(slot) = self.slots.remove(&w.txn) {
                slot.wake(WaitState::Granted);
            }
        }
    }

    /// Restarts a deadlock victim: releases everything it holds or awaits
    /// (it stays registered), hands out the grants that allows, and wakes
    /// the victim if it is parked.
    fn restart_victim(&mut self, rec: &Recorder, log: &mut ThreadLog, at: u64, victim: TxnId) {
        let released = self.proto.release_all(victim, ReleaseReason::Restart);
        self.drain(rec, log, at);
        self.wake(&released.wakeups);
        if let Some(slot) = self.slots.remove(&victim) {
            slot.wake(WaitState::Victim);
        }
    }
}

/// The live lock manager: one of the paper's protocols executed by real
/// threads through the simulator's state machine.
#[derive(Debug)]
pub struct LiveGate {
    gate: Mutex<Gate>,
}

impl LiveGate {
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate
            .lock()
            .expect("a worker panicked holding the gate")
    }

    /// A fresh gate running `protocol`; deadlock victims are the lowest
    /// base priority in the cycle.
    pub fn new(protocol: LiveProtocol) -> Self {
        let mut proto = make_protocol(protocol.sim_kind(), VictimPolicy::LowestPriority);
        proto.set_tracing(true);
        LiveGate {
            gate: Mutex::new(Gate {
                proto,
                slots: FxHashMap::default(),
                drained: Vec::new(),
            }),
        }
    }

    /// Records an arriving transaction's `TxnArrived` and registers its
    /// declared access sets (which raise the ceiling protocol's per-object
    /// ceilings, exactly as in the simulator); its events are stamped `at`.
    pub fn register(&self, rec: &Recorder, log: &mut ThreadLog, at: u64, spec: &TxnSpec) {
        let mut g = self.lock();
        log.record(
            rec,
            at,
            SimEventKind::TxnArrived {
                txn: spec.id,
                priority: spec.base_priority(),
            },
        );
        g.proto.register(spec);
        g.drain(rec, log, at);
    }

    /// Requests `mode` on `object`, blocking until granted, chosen as a
    /// deadlock victim, or `deadline`. The request's events are stamped
    /// `at`, the caller's clock reading for this step. Wall ticks spent
    /// parked accumulate into `blocked_ticks`.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire(
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
        let slot = {
            let mut g = self.lock();
            let outcome = g.proto.request(txn, object, mode).outcome;
            g.drain(rec, log, at);
            let victim = match outcome {
                RequestOutcome::Granted => return Acquire::Granted,
                RequestOutcome::Blocked { .. } => None,
                RequestOutcome::Deadlock { victim } => Some(victim),
            };
            if victim == Some(txn) {
                g.restart_victim(rec, log, at, txn);
                return Acquire::Deadlock;
            }
            // Park the request before restarting another victim: that
            // victim's release may grant it.
            let slot = WaitSlot::new();
            g.slots.insert(txn, slot.clone());
            if let Some(victim) = victim {
                g.restart_victim(rec, log, at, victim);
            }
            slot
        };
        let wait_started = rec.now_ticks();
        let mut state = wait_until(&slot, deadline);
        *blocked_ticks += rec.now_ticks().saturating_sub(wait_started);
        if state == WaitState::Waiting {
            // Timed out. Taking the slot out of the gate fixes its state:
            // a grant or victim pick that got there first wins, and
            // otherwise the request stays queued until finish().
            self.lock().slots.remove(&txn);
            state = slot.settled();
        }
        match state {
            WaitState::Granted => Acquire::Granted,
            WaitState::Victim => Acquire::Deadlock,
            WaitState::Waiting => Acquire::Timeout,
        }
    }

    /// Releases everything `txn` holds or awaits and retires it (lowering
    /// ceilings), grants and wakes whichever parked requests that admits,
    /// and records the terminal event: `TxnCommitted` if `committed`, else
    /// the deadline-miss abort. One clock reading, taken as the call
    /// starts, stamps the release; the terminal event reads the clock
    /// again after it, so arrival-to-terminal latency covers the release.
    pub fn finish(&self, rec: &Recorder, log: &mut ThreadLog, txn: TxnId, committed: bool) {
        let at = rec.now_ticks();
        let mut g = self.lock();
        let released = g.proto.release_all(txn, ReleaseReason::Finished);
        g.drain(rec, log, at);
        g.wake(&released.wakeups);
        let terminal = if committed {
            SimEventKind::TxnCommitted { txn }
        } else {
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            }
        };
        log.record(rec, rec.now_ticks(), terminal);
    }

    /// Deadlock cycles detected so far (zero under the ceiling protocol).
    pub fn deadlocks(&self) -> u64 {
        self.lock().proto.deadlock_count()
    }

    /// Requests denied by the ceiling test so far (zero outside the
    /// ceiling protocol).
    pub fn ceiling_blocks(&self) -> u64 {
        self.lock().proto.ceiling_block_count()
    }

    /// Panics unless the protocol is completely idle and internally
    /// consistent, with no thread parked — the quiescent post-run state.
    pub fn assert_idle(&self) {
        let g = self.lock();
        g.proto.assert_consistent();
        g.proto.assert_idle();
        assert!(g.slots.is_empty(), "{} slots still parked", g.slots.len());
    }
}
