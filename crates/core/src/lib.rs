//! # rtlock — priority-based real-time locking protocols
//!
//! A from-scratch reproduction of the system evaluated in Son & Chang,
//! *"Performance Evaluation of Real-Time Locking Protocols using a
//! Distributed Software Prototyping Environment"* (ICDCS 1990): a real-time
//! database prototyping environment and the locking protocols it compares.
//!
//! ## Protocols
//!
//! | Paper label | Type | Module |
//! |---|---|---|
//! | `L` | Two-phase locking, no priority mode | [`protocols::tpl`] |
//! | `P` | Two-phase locking with priority mode | [`protocols::tpl`] |
//! | — | 2PL + basic priority inheritance (Sha 87 baseline) | [`protocols::tpl`] |
//! | `C` | **Priority ceiling protocol** (read/write semantics) | [`protocols::ceiling`] |
//! | — | Priority ceiling with exclusive-only semantics (§5 ablation) | [`protocols::ceiling`] |
//!
//! ## Simulators
//!
//! Both simulators run their sites on one site engine, as the paper
//! builds every site from the same server processes: each site's
//! transaction manager and resource manager (CPU, I/O, protocol instance,
//! object store, version store) and every local step of a transaction,
//! from arrival to commit or abort.
//!
//! * [`single_site::Simulator`] — the §3 experiments: one site with no
//!   network, preemptive priority CPU, parallel I/O, hard deadlines,
//!   earliest-deadline-first priorities.
//! * [`distributed`] — the §4 experiments: three fully connected sites,
//!   memory-resident database, comparing the **global ceiling manager**
//!   (all ceiling decisions at one site, locks held across the network,
//!   two-phase commit) against the **local ceiling manager with full
//!   replication** (single-writer/multiple-reader primaries, commit first,
//!   propagate secondary updates asynchronously). It adds the message
//!   server to the engine: messaging, lock RPCs to the global ceiling
//!   manager, two-phase commit, replica propagation and faults.
//!
//! ## Quick start
//!
//! ```
//! use rtlock::prelude::*;
//!
//! let catalog = Catalog::new(200, 1, Placement::SingleSite);
//! let workload = WorkloadSpec::builder()
//!     .txn_count(100)
//!     .mean_interarrival(SimDuration::from_ticks(4_000))
//!     .size(SizeDistribution::Fixed(8))
//!     .deadline(8.0, SimDuration::from_ticks(3_000))
//!     .build();
//! let config = SingleSiteConfig::builder()
//!     .protocol(ProtocolKind::PriorityCeiling)
//!     .cpu_per_object(SimDuration::from_ticks(1_000))
//!     .io_per_object(SimDuration::from_ticks(2_000))
//!     .build();
//! let report = Simulator::new(config, catalog, &workload).run(42);
//! assert!(report.stats.processed > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod distributed;
pub mod mvcc;
pub mod prelude;
pub mod protocols;
pub mod report;
pub mod single_site;
mod site;

pub use config::{MvccConfig, ProtocolKind, ReaderMode, SingleSiteConfig, VictimPolicy};
pub use report::{RunReport, TemporalStats};
pub use single_site::Simulator;
