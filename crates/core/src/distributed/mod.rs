//! Distributed real-time locking (the §4 experiments).
//!
//! Two architectures implement the priority ceiling protocol across a
//! fully connected network of sites with a memory-resident database:
//!
//! * [`CeilingArchitecture::GlobalManager`] — a **global ceiling manager**
//!   at site 0 makes every ceiling decision. Each lock request and release
//!   crosses the network; data objects live at their primary site and
//!   remote reads fetch them; update transactions run two-phase commit
//!   over the primary sites of their write sets; locks are held across
//!   the network for the life of the transaction.
//!
//! * [`CeilingArchitecture::LocalReplicated`] — every object is **fully
//!   replicated**; each site's **local ceiling manager** synchronises its
//!   own copies. Update transactions execute entirely at the site holding
//!   their write set's primary copies (restriction 2), commit locally
//!   (restriction 3), and only then propagate secondary updates
//!   asynchronously; read-only transactions read their local replicas,
//!   accepting bounded temporal inconsistency.
//!
//! The paper's Figures 4–6 compare these two architectures across the
//! transaction mix (fraction of read-only transactions) and the
//! communication delay.
//!
//! Every site runs on the single-site simulator's site engine; this
//! module adds the message server: messaging, lock-RPC retry, two-phase
//! commit, routing to the global ceiling manager (site 0's protocol
//! instance), replica propagation and repair, and faults.

mod sim;

pub use sim::{
    run_transactions_distributed, run_transactions_distributed_with, DistributedSimulator,
};

use monitor::CheckConfig;
use netsim::{FaultPlan, Topology};
use rtdb::SiteId;
use serde::{Deserialize, Serialize};
use starlite::{SimDuration, SimTime};

/// Which distributed ceiling architecture to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CeilingArchitecture {
    /// All ceiling decisions at site 0; locks held across the network.
    GlobalManager,
    /// Per-site ceiling managers over fully replicated data;
    /// commit-then-propagate secondary updates.
    LocalReplicated,
}

impl CeilingArchitecture {
    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            CeilingArchitecture::GlobalManager => "global",
            CeilingArchitecture::LocalReplicated => "local",
        }
    }

    /// The invariant oracle's expectations for a run of this architecture
    /// over `sites` sites. Both architectures run the ceiling protocol at
    /// every site; only the local one propagates replica updates.
    pub fn check_config(self, sites: u8) -> CheckConfig {
        CheckConfig::distributed(self == CeilingArchitecture::LocalReplicated, sites)
    }
}

/// Configuration of a distributed simulation; build with
/// [`DistributedConfig::builder`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistributedConfig {
    /// Architecture under test.
    pub architecture: CeilingArchitecture,
    /// Interconnection topology (the paper's experiments use a fully
    /// connected network; ring and star are available for sensitivity
    /// studies).
    pub topology: Topology,
    /// One-way communication delay per hop between distinct sites.
    pub comm_delay: SimDuration,
    /// CPU time to process one data object.
    pub cpu_per_object: SimDuration,
    /// CPU time to apply one propagated secondary update (local
    /// architecture only).
    pub apply_cost: SimDuration,
    /// Extra slack added to the round-trip time before a lock request to
    /// the global manager times out (failure handling).
    pub lock_timeout_slack: SimDuration,
    /// Failure injection: take this site down at this instant. Messages to
    /// it are dropped from then on; senders rely on timeouts (the paper's
    /// message-server unblocking mechanism). Shorthand for a permanent
    /// [`netsim::CrashWindow`]; composes with `faults.crashes`.
    pub fail_site: Option<(SiteId, SimTime)>,
    /// Deterministic fault-injection plan: per-link message loss,
    /// duplication and delay jitter, plus scheduled site crash/restart
    /// windows. The default plan is a strict no-op.
    pub faults: FaultPlan,
    /// Maximum number of times a timed-out lock RPC to the global manager
    /// is retried (with exponential backoff) before the transaction gives
    /// up and misses.
    pub max_rpc_retries: u32,
    /// Multiversion temporal-consistency measurement (local architecture,
    /// §4's closing mechanism): read-only transactions additionally probe
    /// a per-site version store pinned at their arrival instant, and the
    /// run reports snapshot constructibility and staleness. `None`
    /// disables the version stores; `Some(k)` retains `k` versions per
    /// object.
    pub temporal_versions: Option<usize>,
    /// Serve read-only transactions as lock-free **snapshot readers**
    /// (local architecture with `temporal_versions` only): each pins its
    /// arrival instant, reads its local replica's version store at the
    /// pin without taking any locks, and unpins at commit, letting the
    /// watermark GC trim version chains behind the oldest live pin.
    pub snapshot_readers: bool,
}

impl DistributedConfig {
    /// Starts building a configuration.
    pub fn builder() -> DistributedConfigBuilder {
        DistributedConfigBuilder::default()
    }
}

/// Builder for [`DistributedConfig`].
#[derive(Debug, Clone)]
pub struct DistributedConfigBuilder {
    config: DistributedConfig,
}

impl Default for DistributedConfigBuilder {
    fn default() -> Self {
        DistributedConfigBuilder {
            config: DistributedConfig {
                architecture: CeilingArchitecture::LocalReplicated,
                topology: Topology::FullyConnected,
                comm_delay: SimDuration::from_ticks(1_000),
                cpu_per_object: SimDuration::from_ticks(1_000),
                apply_cost: SimDuration::from_ticks(200),
                lock_timeout_slack: SimDuration::from_ticks(10_000),
                fail_site: None,
                faults: FaultPlan::default(),
                max_rpc_retries: 2,
                temporal_versions: None,
                snapshot_readers: false,
            },
        }
    }
}

impl DistributedConfigBuilder {
    /// Sets the architecture.
    pub fn architecture(mut self, a: CeilingArchitecture) -> Self {
        self.config.architecture = a;
        self
    }

    /// Sets the interconnection topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.config.topology = t;
        self
    }

    /// Sets the one-way per-hop communication delay.
    pub fn comm_delay(mut self, d: SimDuration) -> Self {
        self.config.comm_delay = d;
        self
    }

    /// Sets the per-object CPU cost.
    pub fn cpu_per_object(mut self, d: SimDuration) -> Self {
        self.config.cpu_per_object = d;
        self
    }

    /// Sets the secondary-update application cost.
    pub fn apply_cost(mut self, d: SimDuration) -> Self {
        self.config.apply_cost = d;
        self
    }

    /// Sets the lock-request timeout slack.
    pub fn lock_timeout_slack(mut self, d: SimDuration) -> Self {
        self.config.lock_timeout_slack = d;
        self
    }

    /// Injects a site failure at the given instant.
    pub fn fail_site(mut self, site: SiteId, at: SimTime) -> Self {
        self.config.fail_site = Some((site, at));
        self
    }

    /// Installs a fault-injection plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Sets the lock-RPC retry budget.
    pub fn max_rpc_retries(mut self, retries: u32) -> Self {
        self.config.max_rpc_retries = retries;
        self
    }

    /// Enables temporal-consistency measurement with `keep` retained
    /// versions per object.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    pub fn temporal_versions(mut self, keep: usize) -> Self {
        assert!(keep > 0, "version retention must be positive");
        self.config.temporal_versions = Some(keep);
        self
    }

    /// Serves read-only transactions as lock-free snapshot readers over
    /// the per-site version stores.
    pub fn snapshot_readers(mut self, on: bool) -> Self {
        self.config.snapshot_readers = on;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the per-object CPU cost is zero, or if snapshot readers
    /// are requested without the local replicated architecture and
    /// temporal version stores to read from.
    pub fn build(self) -> DistributedConfig {
        assert!(
            !self.config.cpu_per_object.is_zero(),
            "per-object CPU cost must be positive"
        );
        if self.config.snapshot_readers {
            assert_eq!(
                self.config.architecture,
                CeilingArchitecture::LocalReplicated,
                "snapshot readers need local replicas to read"
            );
            assert!(
                self.config.temporal_versions.is_some(),
                "snapshot readers need temporal version stores"
            );
        }
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(CeilingArchitecture::GlobalManager.label(), "global");
        assert_eq!(CeilingArchitecture::LocalReplicated.label(), "local");
    }

    #[test]
    fn builder_defaults() {
        let c = DistributedConfig::builder().build();
        assert_eq!(c.architecture, CeilingArchitecture::LocalReplicated);
        assert!(!c.comm_delay.is_zero());
    }

    #[test]
    #[should_panic(expected = "CPU cost")]
    fn zero_cpu_panics() {
        DistributedConfig::builder()
            .cpu_per_object(SimDuration::ZERO)
            .build();
    }
}
