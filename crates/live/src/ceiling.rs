//! The live priority-ceiling gate.
//!
//! Rather than re-deriving the ceiling admission rules for real threads,
//! the gate wraps the *simulator's own* [`PriorityCeilingProtocol`] state
//! machine in a single mutex: every register / request / release runs the
//! exact protocol the simulated experiments run, with tracing on, and the
//! journalled events take their sequence numbers (see
//! [`crate::recorder`]) while the gate is still held — so the merged
//! stream linearizes the gate's history exactly. Each call stamps its
//! whole journal with one clock reading: an acquire with the caller's,
//! [`LiveCeiling::finish`] with one taken as the release starts. Threads
//! denied admission park on a [`WaitSlot`]; whichever
//! thread's release admits them performs the grant inside its own
//! critical section and signals the slot.
//!
//! One mutex for the whole protocol is not the scalability sin it looks
//! like: the ceiling protocol is *globally* serialized by construction
//! (admission consults the ceilings of every locked object in the
//! system), so a sharded implementation would need a global lock at
//! admission anyway. The measured cost of the single gate versus the
//! sharded 2PL table is exactly one of the things `fig_live` exists to
//! show.
//!
//! Deadlock freedom comes from the admission argument, unchanged on
//! multicore: only transactions holding no locks ever block, so no wait
//! cycle can involve a lock holder. What does NOT carry over to real
//! concurrency is *blocked-at-most-once* in its uniprocessor form, which
//! is why [`monitor::CheckConfig::live`] waives only that check.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use monitor::SimEventKind;
use rtdb::{LockMode, ObjectId, TxnId, TxnSpec};
use rtlock::protocols::{LockProtocol, PriorityCeilingProtocol, ReleaseReason, RequestOutcome};
use starlite::FxHashMap;

use crate::recorder::{Recorder, ThreadLog};
use crate::table::{wait_until, Acquire, WaitSlot, WaitState};

struct Gate {
    proto: PriorityCeilingProtocol,
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
}

/// The live priority-ceiling lock manager: the paper's protocol "C" (or
/// its exclusive-lock ablation) executed by real threads.
pub struct LiveCeiling {
    gate: Mutex<Gate>,
}

impl std::fmt::Debug for LiveCeiling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveCeiling").finish_non_exhaustive()
    }
}

impl LiveCeiling {
    /// A fresh gate with read/write semantics (`exclusive = false`) or
    /// the §5 exclusive-lock ablation.
    pub fn new(exclusive: bool) -> Self {
        let mut proto = if exclusive {
            PriorityCeilingProtocol::exclusive()
        } else {
            PriorityCeilingProtocol::read_write()
        };
        proto.set_tracing(true);
        LiveCeiling {
            gate: Mutex::new(Gate {
                proto,
                slots: FxHashMap::default(),
                drained: Vec::new(),
            }),
        }
    }

    /// Registers an arriving transaction's declared access sets (which
    /// raise the per-object ceilings, exactly as in the simulator); its
    /// events are stamped `at`.
    pub fn register(&self, rec: &Recorder, log: &mut ThreadLog, at: u64, spec: &TxnSpec) {
        let mut g = self.gate.lock().unwrap();
        g.proto.register(spec);
        g.drain(rec, log, at);
    }

    /// Requests `mode` on `object`, blocking until admitted or
    /// `deadline`. The request's events are stamped `at`, the caller's
    /// clock reading for this step. Wall ticks spent parked accumulate
    /// into `blocked_ticks`.
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
        let slot;
        {
            let mut g = self.gate.lock().unwrap();
            let result = g.proto.request(txn, object, mode);
            g.drain(rec, log, at);
            match result.outcome {
                RequestOutcome::Granted => return Acquire::Granted,
                RequestOutcome::Blocked { .. } => {
                    slot = WaitSlot::new();
                    g.slots.insert(txn, slot.clone());
                }
                RequestOutcome::Deadlock { .. } => {
                    unreachable!("ceiling admission is deadlock-free")
                }
            }
        }
        let wait_started = rec.now_ticks();
        let outcome = wait_until(&slot, deadline);
        *blocked_ticks += rec.now_ticks().saturating_sub(wait_started);
        match outcome {
            WaitState::Granted => Acquire::Granted,
            WaitState::Victim => unreachable!("the ceiling gate poisons no victims"),
            WaitState::Waiting => {
                // Timed out. Under the gate, either a racing wake already
                // granted us (we own the lock; the caller's deadline check
                // will release it via finish), or the request is still
                // queued — leave it for finish() to retract.
                let mut g = self.gate.lock().unwrap();
                g.slots.remove(&txn);
                match slot.settled() {
                    WaitState::Granted => Acquire::Granted,
                    _ => Acquire::Timeout,
                }
            }
        }
    }

    /// Releases everything `txn` holds or awaits and retires it from the
    /// active set (lowering ceilings), then grants and wakes whichever
    /// parked entrants the release admits. One clock reading, taken as
    /// the call starts, stamps everything it records.
    pub fn finish(&self, rec: &Recorder, log: &mut ThreadLog, txn: TxnId) {
        let at = rec.now_ticks();
        let mut g = self.gate.lock().unwrap();
        let result = g.proto.release_all(txn, ReleaseReason::Finished);
        g.drain(rec, log, at);
        g.slots.remove(&txn);
        for w in result.wakeups {
            if let Some(slot) = g.slots.remove(&w.txn) {
                slot.wake(WaitState::Granted);
            }
        }
    }

    /// Requests denied by the ceiling test so far.
    pub fn ceiling_blocks(&self) -> u64 {
        self.gate.lock().unwrap().proto.ceiling_block_count()
    }

    /// Panics unless the protocol is completely idle and internally
    /// consistent — the quiescent post-run state the stress tests assert.
    pub fn assert_idle(&self) {
        let g = self.gate.lock().unwrap();
        g.proto.assert_consistent();
        g.proto.assert_idle();
        assert!(g.slots.is_empty(), "{} slots still parked", g.slots.len());
    }
}
