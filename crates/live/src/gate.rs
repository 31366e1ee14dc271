//! The live lock manager: one gate around the simulator's protocols, and
//! the run's one event buffer.
//!
//! Rather than re-deriving the paper's locking rules for real threads,
//! the gate wraps the *simulator's own* [`LockProtocol`] state machine —
//! 2PL, priority-queue 2PL, priority inheritance or the priority ceiling
//! protocol, built by [`make_protocol`] — in a single mutex. Every
//! register / request / release runs exactly the code the simulated
//! experiments run, with tracing on. Threads denied a lock park on a
//! `WaitSlot`; whichever thread's release grants them performs the grant
//! inside its own critical section and signals the slot.
//!
//! A request that closes a waits-for cycle (the 2PL family) restarts the
//! protocol's chosen victim inside the critical section that found the
//! cycle, as the simulator's site engine does: the victim's non-terminal
//! `TxnAborted { DeadlockVictim }` is recorded,
//! `release_all(victim, Restart)` frees its locks and withdraws its
//! queued request, the grants that release allows are handed out, and
//! the victim — parked on its slot, or the requester itself — returns
//! [`Acquire::Deadlock`] and retries from its first lock.
//!
//! # The event stream
//!
//! The gate owns the run's one event buffer, and appends every event
//! inside the critical section that performs the state change it
//! describes: a registration appends `TxnArrived`, `TxnStarted` and the
//! protocol's registration journal (the order of the simulator's
//! `SiteEngine::arrive`); a request appends its journal, then any
//! victim's abort, releases and grants; a finish appends its releases
//! and grants, closed by the terminal event. The latch serializes every
//! call, so append order *is* the gate's history: the buffer is a valid
//! linearization as it stands, needs no ordering after the run, and
//! [`LiveGate::take_events`] hands it out unchanged. It is also
//! a complete log of the protocol calls, even where a call journals
//! nothing (a registration, or a finish that releases nothing):
//! replaying it into a fresh protocol instance must reproduce every lock
//! event, which `tests/conformance.rs` checks.
//!
//! Stamps are wall-clock ticks ([`TICK_NS`]) since the gate was built.
//! One clock reading costs tens of nanoseconds, a large share of an
//! uncontended lock operation, so the clock is read once per call, not
//! once per event: an acquire is stamped with the reading its step's
//! deadline test took, and so is a victim it restarts; [`LiveGate::finish`]
//! takes one reading as the release starts and a fresh one for the
//! terminal event after it, so arrival-to-commit latencies never shrink;
//! a waiter that wakes from parking takes a fresh one for its blocked
//! time. No event is stamped with a reading taken before its thread
//! parked or spun. A reading is taken before the critical section it
//! stamps, so readings are not monotonic in append order (a thread can
//! read its clock, lose the CPU or wait for the gate, then append), and
//! each stamp is clamped to the buffer's running maximum as it is
//! appended — stamps never decrease, which every trace consumer assumes.
//!
//! # One latch
//!
//! One latch serializes the whole protocol. The ceiling protocol needs
//! that by construction (admission consults the ceilings of every locked
//! object in the system), and the 2PL family's deadlock detector walks
//! one waits-for graph across all objects. The event stream rests on it
//! too: with one latch, append order is the history. A change that
//! splits the latch per shard or per record must bring back a way to
//! sequence events across latches (for example a global sequence number
//! taken inside each critical section, and a merge by it after the run).
//! Splitting is worth its code only where measurement shows latch wait
//! dominating.
//!
//! Deadlock freedom of the ceiling protocol comes from the admission
//! argument, unchanged on multicore: only transactions holding no locks
//! ever block, so no wait cycle can involve a lock holder. What does NOT
//! carry over to real concurrency is *blocked-at-most-once* in its
//! uniprocessor form, which is why [`monitor::CheckConfig::live`] waives
//! only that check.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use monitor::{AbortReason, SimEvent, SimEventKind};
use rtdb::{LockMode, ObjectId, SiteId, TxnId, TxnSpec};
use rtlock::protocols::{make_protocol, LockProtocol, ReleaseReason, RequestOutcome, Wakeup};
use rtlock::VictimPolicy;
use starlite::{FxHashMap, SimTime};

use crate::runner::LiveProtocol;

/// Nanoseconds per simulated tick in recorded live traces (1 tick = 1 µs,
/// so blocked-time percentiles read in microseconds).
pub const TICK_NS: u64 = 1_000;

/// Outcome of a blocking acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held; proceed.
    Granted,
    /// The caller was chosen as a deadlock victim. The gate has already
    /// recorded its abort, released its locks and withdrawn its request;
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
    /// The run's event stream, in append order. All events carry
    /// `SiteId(0)`: a live run is one logical site.
    events: Vec<(SimTime, SimEvent)>,
}

impl Gate {
    /// The stamp for a reading of `at` ticks: clamped to the last one
    /// appended, so stamps never decrease.
    fn stamp(&self, at: u64) -> SimTime {
        let at = SimTime::from_ticks(at);
        self.events.last().map_or(at, |&(last, _)| last.max(at))
    }

    /// Appends `kind`, stamped `at`.
    fn record(&mut self, at: u64, kind: SimEventKind) {
        let at = self.stamp(at);
        self.events.push((at, SimEvent::new(SiteId(0), kind)));
    }

    /// Appends the protocol's journalled events, all stamped `at`.
    fn drain(&mut self, at: u64) {
        let at = self.stamp(at);
        self.proto.drain_events(&mut self.drained);
        self.events.extend(
            self.drained
                .drain(..)
                .map(|kind| (at, SimEvent::new(SiteId(0), kind))),
        );
    }

    /// Signals every parked request a release granted.
    fn wake(&mut self, wakeups: &[Wakeup]) {
        for w in wakeups {
            if let Some(slot) = self.slots.remove(&w.txn) {
                slot.wake(WaitState::Granted);
            }
        }
    }

    /// Restarts a deadlock victim, as the simulator's site engine does:
    /// records its non-terminal abort, releases everything it holds or
    /// awaits (it stays registered), hands out the grants that allows,
    /// and wakes the victim if it is parked. Everything is stamped `at`.
    fn restart_victim(&mut self, at: u64, victim: TxnId) {
        self.record(
            at,
            SimEventKind::TxnAborted {
                txn: victim,
                reason: AbortReason::DeadlockVictim,
            },
        );
        let released = self.proto.release_all(victim, ReleaseReason::Restart);
        self.drain(at);
        self.wake(&released.wakeups);
        if let Some(slot) = self.slots.remove(&victim) {
            slot.wake(WaitState::Victim);
        }
    }
}

/// The live lock manager: one of the paper's protocols executed by real
/// threads through the simulator's state machine, recording the run's
/// event stream.
#[derive(Debug)]
pub struct LiveGate {
    gate: Mutex<Gate>,
    /// Tick 0 of every stamp.
    start: Instant,
}

impl LiveGate {
    fn lock(&self) -> MutexGuard<'_, Gate> {
        self.gate
            .lock()
            .expect("a worker panicked holding the gate")
    }

    /// A fresh gate running `protocol`, with an empty event buffer whose
    /// tick 0 is now; deadlock victims are the lowest base priority in
    /// the cycle.
    pub fn new(protocol: LiveProtocol) -> Self {
        let mut proto = make_protocol(protocol.sim_kind(), VictimPolicy::LowestPriority);
        proto.set_tracing(true);
        LiveGate {
            gate: Mutex::new(Gate {
                proto,
                slots: FxHashMap::default(),
                drained: Vec::new(),
                events: Vec::new(),
            }),
            start: Instant::now(),
        }
    }

    /// Ticks elapsed since the gate was built: one clock reading.
    pub fn now_ticks(&self) -> u64 {
        self.ticks_at(Instant::now())
    }

    /// The tick count of a clock reading the caller already took (for
    /// example to test a deadline), so one reading serves both.
    pub fn ticks_at(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.start).as_nanos() as u64 / TICK_NS
    }

    /// Records an arriving transaction's `TxnArrived` and `TxnStarted`
    /// and registers its declared access sets (which raise the ceiling
    /// protocol's per-object ceilings, exactly as in the simulator); its
    /// events are stamped `at`.
    pub fn register(&self, at: u64, spec: &TxnSpec) {
        let mut g = self.lock();
        g.record(
            at,
            SimEventKind::TxnArrived {
                txn: spec.id,
                priority: spec.base_priority(),
            },
        );
        g.record(at, SimEventKind::TxnStarted { txn: spec.id });
        g.proto.register(spec);
        g.drain(at);
    }

    /// Requests `mode` on `object`, blocking until granted, chosen as a
    /// deadlock victim, or `deadline`. The request's events, and those of
    /// a victim it restarts, are stamped `at`, the caller's clock reading
    /// for this step. Wall ticks spent parked accumulate into
    /// `blocked_ticks`.
    pub fn acquire(
        &self,
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
            g.drain(at);
            let victim = match outcome {
                RequestOutcome::Granted => return Acquire::Granted,
                RequestOutcome::Blocked { .. } => None,
                RequestOutcome::Deadlock { victim } => Some(victim),
            };
            if victim == Some(txn) {
                g.restart_victim(at, txn);
                return Acquire::Deadlock;
            }
            // Park the request before restarting another victim: that
            // victim's release may grant it.
            let slot = WaitSlot::new();
            g.slots.insert(txn, slot.clone());
            if let Some(victim) = victim {
                g.restart_victim(at, victim);
            }
            slot
        };
        let wait_started = self.now_ticks();
        let mut state = wait_until(&slot, deadline);
        *blocked_ticks += self.now_ticks().saturating_sub(wait_started);
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
    pub fn finish(&self, txn: TxnId, committed: bool) {
        let at = self.now_ticks();
        let mut g = self.lock();
        let released = g.proto.release_all(txn, ReleaseReason::Finished);
        g.drain(at);
        g.wake(&released.wakeups);
        let terminal = if committed {
            SimEventKind::TxnCommitted { txn }
        } else {
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            }
        };
        g.record(self.now_ticks(), terminal);
    }

    /// Takes the events recorded so far, exactly as appended: a
    /// linearization of the gate's history with non-decreasing stamps.
    /// The buffer starts again empty, and so does its clamp.
    pub fn take_events(&self) -> Vec<(SimTime, SimEvent)> {
        std::mem::take(&mut self.lock().events)
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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    #[test]
    fn an_acquire_stamped_before_the_last_stamp_is_clamped() {
        let gate = LiveGate::new(LiveProtocol::TwoPhase);
        let (txn, object) = (TxnId(1), ObjectId(0));
        let spec = TxnSpec::new(
            txn,
            SimTime::ZERO,
            vec![],
            vec![object],
            SimTime::from_ticks(1_000_000),
            SiteId(0),
        );
        // A reading far ahead of the clock stamps the registration; the
        // acquire's earlier reading must not pull the stream back.
        let late = gate.now_ticks() + 1_000_000;
        gate.register(late, &spec);
        let far = Instant::now() + Duration::from_secs(60);
        let mut blocked = 0;
        let outcome = gate.acquire(late - 5, txn, object, LockMode::Write, far, &mut blocked);
        assert_eq!(outcome, Acquire::Granted);
        let events = gate.take_events();
        assert!(events
            .iter()
            .any(|(_, e)| matches!(e.kind, SimEventKind::LockGranted { .. })));
        assert!(
            events
                .iter()
                .all(|&(at, _)| at == SimTime::from_ticks(late)),
            "{events:?}"
        );
        gate.finish(txn, true);
        gate.assert_idle();
    }
}
