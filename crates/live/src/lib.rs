//! # rtlock-live — the real-threads lock-manager backend
//!
//! Everything else in this workspace evaluates the paper's locking
//! protocols under *simulated* concurrency: one event loop, one clock, a
//! perfectly ordered history. This crate executes the same protocols on
//! **real OS threads against real wall-clock deadlines**, and feeds the
//! result back through the same invariant oracle — closing the loop
//! between the model and an actual concurrent implementation.
//!
//! The pieces:
//!
//! * [`gate`] — the one live lock manager: the *simulator's own*
//!   `LockProtocol` state machine for the run's protocol (2PL,
//!   priority-queue 2PL, priority inheritance or the priority ceiling
//!   protocol) behind a single mutex, with condvar wait slots for
//!   denied requests and deadlock victims restarted inside the critical
//!   section that found the cycle — so live and simulated runs share one
//!   implementation of the paper's rules. The gate also owns the run's
//!   one event buffer: every event is appended inside the critical
//!   section that performs the state change it describes, so with one
//!   latch the append order is a valid linearization of the gate's
//!   history. The wall clock is read once per lock-manager call and
//!   passed to every event the call records, each stamp clamped to the
//!   buffer's running maximum;
//! * [`runner`] — N worker threads executing generated `workload`
//!   transactions closed-loop, with per-transaction wall deadlines,
//!   deadlock-victim restarts, and a deliberately non-atomic shared
//!   store whose final consistency witnesses write-lock exclusivity.
//!
//! What the oracle can and cannot check on a wall-clock run: everything
//! structural — lock compatibility, upgrade legality, release matching,
//! transaction accounting, deadlock freedom for PCP, WFG acyclicity —
//! transfers unchanged, because the gate's stream linearizes the actual
//! lock-state history. The one casualty is *blocked-at-most-once*, a
//! uniprocessor scheduling property; [`monitor::CheckConfig::live`]
//! waives exactly that check and nothing else.
//!
//! ```
//! use rtlock_live::{run_live, LiveConfig, LiveProtocol};
//! use monitor::{CheckConfig, CheckSink};
//! use starlite::EventSink;
//!
//! let mut config = LiveConfig::smoke(LiveProtocol::TwoPhase, 2);
//! config.txn_count = 20;
//! let report = run_live(&config);
//! assert_eq!(report.processed, 20);
//! assert!(report.store_consistent);
//!
//! // Replay the gate's stream through the invariant oracle.
//! let mut sink = CheckSink::new(CheckConfig::live(false));
//! for (at, event) in &report.events {
//!     sink.emit(*at, *event);
//! }
//! assert!(sink.finish().is_empty());
//! ```

pub mod gate;
pub mod runner;

pub use gate::{Acquire, LiveGate, TICK_NS};
pub use runner::{run_live, LiveConfig, LiveProtocol, LiveReport};
