//! # starlite — a deterministic discrete-event simulation kernel
//!
//! This crate is the reproduction's stand-in for the *StarLite* concurrent
//! programming kernel the paper's prototyping environment is built on.
//! StarLite provided process control (create / ready / block / terminate)
//! over virtual time; `starlite` provides the same observable semantics as a
//! deterministic discrete-event simulation (DES) kernel:
//!
//! * a logical clock and a cancellable, totally ordered event queue
//!   ([`Scheduler`], [`Engine`]),
//! * a preemptive priority CPU model with inheritance-driven priority
//!   changes ([`cpu::Cpu`]),
//! * a parallel I/O device model ([`io::IoDevice`]),
//! * seeded random processes for workload generation ([`random::RandomSource`]).
//!
//! Determinism is the design centre: every simulation built on this kernel
//! is a pure function of its configuration and seed. Events that share a
//! timestamp are executed in scheduling order (a monotone sequence number
//! breaks ties), and all randomness flows through explicitly seeded
//! generators.
//!
//! # Example
//!
//! ```
//! use starlite::{Engine, Model, Scheduler, SimTime, SimDuration};
//!
//! struct Counter { fired: u32 }
//! enum Ev { Tick }
//!
//! impl Model for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _ev: Ev, sched: &mut Scheduler<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 3 {
//!             sched.schedule_after(SimDuration::from_ticks(10), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.scheduler_mut().schedule(SimTime::ZERO, Ev::Tick);
//! engine.run_to_completion(None);
//! assert_eq!(engine.model().fired, 3);
//! assert_eq!(engine.now(), SimTime::from_ticks(20));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cpu;
pub mod engine;
pub mod event;
pub mod hashing;
pub mod io;
pub mod priority;
pub mod queue;
pub mod random;
pub mod sink;
pub mod time;

pub use cpu::{
    Completion, Cpu, CpuJournalEntry, CpuJournalKind, CpuPolicy, CpuToken, Removed, StartedBurst,
};
pub use engine::{Engine, Model, QueueStats, Scheduler};
pub use event::EventId;
pub use hashing::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use io::IoDevice;
pub use priority::Priority;
pub use queue::HeapQueue;
pub use random::RandomSource;
pub use sink::{EventSink, NullSink, TeeSink, VecSink};
pub use time::{SimDuration, SimTime};
