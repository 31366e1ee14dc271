//! Convenience re-exports for typical experiment code.
//!
//! ```
//! use rtlock::prelude::*;
//! ```

pub use crate::config::{ProtocolKind, SingleSiteConfig, VictimPolicy};
pub use crate::distributed::{CeilingArchitecture, DistributedConfig, DistributedSimulator};
pub use crate::report::RunReport;
pub use crate::single_site::{run_transactions, run_transactions_with, Simulator};

pub use monitor::{ChromeTraceSink, MetricsSink, RunStats, SimEvent, SimEventKind, Summary};
pub use netsim::DelayMatrix;
pub use rtdb::{Catalog, LockMode, ObjectId, Placement, SiteId, TxnId, TxnKind, TxnSpec};
pub use starlite::{EventSink, NullSink, Priority, SimDuration, SimTime, VecSink};
pub use workload::{DeadlineRule, PeriodicTask, SizeDistribution, WorkloadSpec};
