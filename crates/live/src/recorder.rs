//! Event stamping for wall-clock runs.
//!
//! The simulator hands `monitor::CheckSink` a totally ordered event
//! stream for free — there is one clock and one event loop. A
//! real-threads run has neither, so ordering is reconstructed from a
//! global atomic **sequence counter**: every recorded event takes
//! `seq = SEQ.fetch_add(1)` at the moment it logically happens, and
//! lock-state events take it *inside* the gate critical section that
//! performs the state change. Atomic RMWs on one cell form a single
//! modification order, so any event that happens-after another gets a
//! larger sequence number; sorting the merged per-thread buffers by
//! `seq` therefore yields a linearization consistent with the lock
//! manager's actual history — exactly what the oracle's invariants
//! quantify over.
//!
//! Timestamps ride along for the metrics sinks: nanoseconds since run
//! start, divided down to simulated "ticks" (1 µs). One clock reading
//! costs tens of nanoseconds, a large share of an uncontended lock
//! operation, so the clock is read once per lock-manager *call*, not
//! once per event: the
//! caller takes a reading ([`Recorder::now_ticks`] or
//! [`Recorder::ticks_at`]) and passes it to [`ThreadLog::record`] for
//! every event the call records. An acquire is stamped with the reading
//! its step's deadline test took; a release with one taken as the
//! release starts; a waiter that wakes from parking takes a fresh one;
//! and a terminal commit or abort reads the clock after its release, so
//! arrival-to-commit latencies never shrink. No event is stamped with a
//! reading taken before its thread parked or spun.
//!
//! A reading is taken before the critical section it stamps, so wall
//! clocks are not monotonic *across* the seq order (a thread can read
//! its clock, lose the CPU or wait for the gate, then take its
//! sequence numbers); [`Recorder::merge`] clamps timestamps to be
//! non-decreasing in sequence order — the invariant every trace
//! consumer assumes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use monitor::{SimEvent, SimEventKind};
use rtdb::SiteId;
use starlite::SimTime;

/// Nanoseconds per simulated tick in recorded live traces (1 tick = 1 µs,
/// so blocked-time percentiles read in microseconds).
pub const TICK_NS: u64 = 1_000;

/// Shared stamping state: one per run.
#[derive(Debug)]
pub struct Recorder {
    seq: AtomicU64,
    start: Instant,
}

impl Recorder {
    /// A fresh recorder; `start` is "tick 0" for every thread.
    pub fn new() -> Self {
        Recorder {
            seq: AtomicU64::new(0),
            start: Instant::now(),
        }
    }

    /// Ticks elapsed since the run started: one clock reading.
    pub fn now_ticks(&self) -> u64 {
        self.ticks_at(Instant::now())
    }

    /// The tick count of a clock reading the caller already took (for
    /// example to test a deadline), so one reading serves both.
    pub fn ticks_at(&self, now: Instant) -> u64 {
        now.saturating_duration_since(self.start).as_nanos() as u64 / TICK_NS
    }

    /// Merges per-thread buffers into one stream ordered by sequence
    /// number, with timestamps clamped monotone non-decreasing. All
    /// events carry `SiteId(0)`: a live run is one logical site.
    pub fn merge(logs: Vec<ThreadLog>) -> Vec<(SimTime, SimEvent)> {
        let mut all: Vec<(u64, u64, SimEventKind)> =
            logs.into_iter().flat_map(|l| l.events).collect();
        all.sort_unstable_by_key(|&(seq, _, _)| seq);
        let mut floor = 0u64;
        all.into_iter()
            .map(|(_, ticks, kind)| {
                floor = floor.max(ticks);
                (SimTime::from_ticks(floor), SimEvent::new(SiteId(0), kind))
            })
            .collect()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// One worker thread's event buffer. Never shared: the thread that
/// performs a state change records it, even when the event describes
/// another transaction (a releaser records the grants it hands out).
#[derive(Debug, Default)]
pub struct ThreadLog {
    events: Vec<(u64, u64, SimEventKind)>,
}

impl ThreadLog {
    /// An empty buffer.
    pub fn new() -> Self {
        ThreadLog { events: Vec::new() }
    }

    /// Records `kind` at tick `at` — a reading the caller took for the
    /// whole call — with the next global sequence number. Call inside
    /// the critical section that performs the state change the event
    /// describes.
    pub fn record(&mut self, rec: &Recorder, at: u64, kind: SimEventKind) {
        // Relaxed is enough: RMWs on one atomic have a total modification
        // order, and the surrounding mutexes provide the happens-before
        // edges that make that order agree with program order.
        let seq = rec.seq.fetch_add(1, Ordering::Relaxed);
        self.events.push((seq, at, kind));
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdb::TxnId;

    #[test]
    fn merge_orders_by_seq_and_clamps_timestamps() {
        let rec = Recorder::new();
        let mut a = ThreadLog::new();
        let mut b = ThreadLog::new();
        a.record(&rec, 5, SimEventKind::TxnStarted { txn: TxnId(1) });
        b.record(&rec, 6, SimEventKind::TxnStarted { txn: TxnId(2) });
        a.record(&rec, 7, SimEventKind::TxnCommitted { txn: TxnId(1) });
        // Forge a timestamp regression: seq order must win and the
        // merged timestamps stay non-decreasing.
        b.events.push((
            a.events.last().unwrap().0 + 1,
            0, // "before the run started"
            SimEventKind::TxnCommitted { txn: TxnId(2) },
        ));
        let merged = Recorder::merge(vec![a, b]);
        assert_eq!(merged.len(), 4);
        assert!(merged.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(matches!(
            merged[3].1.kind,
            SimEventKind::TxnCommitted { txn: TxnId(2) }
        ));
    }
}
