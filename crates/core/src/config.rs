//! Simulation configuration.

use std::fmt;

use monitor::CheckConfig;
use serde::{Deserialize, Serialize};
use starlite::{CpuPolicy, SimDuration};

/// Which synchronisation protocol a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Two-phase locking without priority mode — the paper's "L": FIFO
    /// wait queues and FCFS processing.
    TwoPhaseLocking,
    /// Two-phase locking with priority mode — the paper's "P": priority
    /// wait queues and preemptive priority processing.
    TwoPhaseLockingPriority,
    /// Two-phase locking with basic priority inheritance \[Sha87\]: like
    /// `P`, but blockers inherit the priorities of the transactions they
    /// block.
    PriorityInheritance,
    /// The priority ceiling protocol with read/write lock semantics — the
    /// paper's "C".
    PriorityCeiling,
    /// The priority ceiling protocol with exclusive-only lock semantics
    /// (the §5 open question: read semantics may hurt schedulability).
    PriorityCeilingExclusive,
    /// Basic timestamp ordering — the third entry of the prototyping
    /// environment's concurrency-control menu ("locking, timestamp
    /// ordering, and priority-based"). Out-of-order accesses abort and
    /// restart the requester with a fresh timestamp; there is no blocking
    /// and no deadlock.
    TimestampOrdering,
}

impl ProtocolKind {
    /// The CPU dispatching policy the protocol pairs with.
    pub fn cpu_policy(self) -> CpuPolicy {
        match self {
            ProtocolKind::TwoPhaseLocking => CpuPolicy::Fcfs,
            _ => CpuPolicy::PreemptivePriority,
        }
    }

    /// Short label used in experiment output ("C", "P", "L", ...).
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::TwoPhaseLocking => "L",
            ProtocolKind::TwoPhaseLockingPriority => "P",
            ProtocolKind::PriorityInheritance => "I",
            ProtocolKind::PriorityCeiling => "C",
            ProtocolKind::PriorityCeilingExclusive => "Cx",
            ProtocolKind::TimestampOrdering => "T",
        }
    }

    /// The invariant oracle's expectations for a single-site run of this
    /// protocol. Ceiling invariants apply to the two ceiling variants.
    /// Timestamp ordering keeps no lock table, so lock-legality checks are
    /// off for it while its grants still feed the conflict graph.
    pub fn check_config(self, restart_victims: bool) -> CheckConfig {
        CheckConfig::single_site(
            matches!(
                self,
                ProtocolKind::PriorityCeiling | ProtocolKind::PriorityCeilingExclusive
            ),
            self != ProtocolKind::TimestampOrdering,
            restart_victims,
        )
    }

    /// All protocol kinds, in presentation order.
    pub fn all() -> [ProtocolKind; 6] {
        [
            ProtocolKind::PriorityCeiling,
            ProtocolKind::TwoPhaseLockingPriority,
            ProtocolKind::TwoPhaseLocking,
            ProtocolKind::PriorityInheritance,
            ProtocolKind::PriorityCeilingExclusive,
            ProtocolKind::TimestampOrdering,
        ]
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Deadlock victim selection for the two-phase locking protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VictimPolicy {
    /// Abort the lowest-priority member of the cycle (default: sacrifices
    /// the least urgent work).
    LowestPriority,
    /// Abort the youngest member (largest transaction id), the classic
    /// wait-die flavour that avoids starving old transactions.
    Youngest,
}

/// How read-only transactions access the database when multi-versioning
/// is enabled (see [`MvccConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReaderMode {
    /// Readers take ordinary read locks through the protocol under test —
    /// the baseline the snapshot arms are compared against.
    Locking,
    /// Readers take one range latch over their (contiguous) read set and
    /// scan the current state; point writers take single-object write
    /// latches.
    LatchScan,
    /// Readers pin a snapshot `reader_lag` before arrival and read
    /// versioned state lock-free.
    Snapshot,
}

impl ReaderMode {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ReaderMode::Locking => "lock",
            ReaderMode::LatchScan => "latch",
            ReaderMode::Snapshot => "snapshot",
        }
    }
}

impl fmt::Display for ReaderMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Multi-version storage configuration for a single site. When present,
/// committed writes are installed into a bounded version store and
/// read-only transactions are served per [`ReaderMode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvccConfig {
    /// Baseline number of versions retained per object; live snapshot
    /// pins extend retention past this bound.
    pub keep: usize,
    /// How far in the past snapshot readers pin (zero = read at arrival
    /// time). Larger lags model consumers of slightly stale analytics.
    pub reader_lag: SimDuration,
    /// How read-only transactions access data.
    pub reader_mode: ReaderMode,
}

impl MvccConfig {
    /// A snapshot-reads configuration with the given retention and lag.
    pub fn snapshot(keep: usize, reader_lag: SimDuration) -> Self {
        MvccConfig {
            keep,
            reader_lag,
            reader_mode: ReaderMode::Snapshot,
        }
    }

    /// A latch-scan configuration with the given retention.
    pub fn latch_scan(keep: usize) -> Self {
        MvccConfig {
            keep,
            reader_lag: SimDuration::ZERO,
            reader_mode: ReaderMode::LatchScan,
        }
    }

    /// The lock-based baseline (versions are still installed so lag can
    /// be measured, but readers go through the lock table).
    pub fn locking(keep: usize) -> Self {
        MvccConfig {
            keep,
            reader_lag: SimDuration::ZERO,
            reader_mode: ReaderMode::Locking,
        }
    }
}

/// Configuration of a single-site simulation; build with
/// [`SingleSiteConfig::builder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingleSiteConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// CPU time to process one data object.
    pub cpu_per_object: SimDuration,
    /// I/O latency to fetch one data object (zero = memory resident).
    pub io_per_object: SimDuration,
    /// Number of concurrent I/O channels; `None` is the paper's parallel
    /// I/O assumption (unbounded), `Some(k)` queues excess transfers
    /// behind `k` channels.
    pub io_parallelism: Option<usize>,
    /// Deadlock victim selection (2PL protocols only).
    pub victim_policy: VictimPolicy,
    /// Whether deadlock victims restart (until their deadline) or abort
    /// outright.
    pub restart_victims: bool,
    /// Locking granularity: objects per lock granule (the paper's
    /// "database … with user defined … granularity"). 1 locks individual
    /// objects; larger values lock blocks of consecutive objects,
    /// trading lock overhead against false conflicts.
    pub lock_granularity: u32,
    /// Multi-version storage and snapshot reads (`None` = the classic
    /// single-version engine; every figure configuration keeps it off).
    pub mvcc: Option<MvccConfig>,
}

impl SingleSiteConfig {
    /// Starts building a configuration.
    pub fn builder() -> SingleSiteConfigBuilder {
        SingleSiteConfigBuilder::default()
    }
}

/// Builder for [`SingleSiteConfig`].
#[derive(Debug, Clone)]
pub struct SingleSiteConfigBuilder {
    config: SingleSiteConfig,
}

impl Default for SingleSiteConfigBuilder {
    fn default() -> Self {
        SingleSiteConfigBuilder {
            config: SingleSiteConfig {
                protocol: ProtocolKind::PriorityCeiling,
                cpu_per_object: SimDuration::from_ticks(1_000),
                io_per_object: SimDuration::from_ticks(2_000),
                io_parallelism: None,
                victim_policy: VictimPolicy::LowestPriority,
                restart_victims: true,
                lock_granularity: 1,
                mvcc: None,
            },
        }
    }
}

impl SingleSiteConfigBuilder {
    /// Sets the protocol under test.
    pub fn protocol(mut self, p: ProtocolKind) -> Self {
        self.config.protocol = p;
        self
    }

    /// Sets the per-object CPU cost.
    pub fn cpu_per_object(mut self, d: SimDuration) -> Self {
        self.config.cpu_per_object = d;
        self
    }

    /// Sets the per-object I/O latency (zero = memory-resident database).
    pub fn io_per_object(mut self, d: SimDuration) -> Self {
        self.config.io_per_object = d;
        self
    }

    /// Bounds the number of concurrent I/O transfers.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn io_parallelism(mut self, channels: usize) -> Self {
        assert!(channels > 0, "need at least one I/O channel");
        self.config.io_parallelism = Some(channels);
        self
    }

    /// Sets the deadlock victim selection policy.
    pub fn victim_policy(mut self, v: VictimPolicy) -> Self {
        self.config.victim_policy = v;
        self
    }

    /// Sets whether deadlock victims restart or abort outright.
    pub fn restart_victims(mut self, restart: bool) -> Self {
        self.config.restart_victims = restart;
        self
    }

    /// Sets the locking granularity (objects per granule).
    ///
    /// # Panics
    ///
    /// Panics if `objects_per_granule` is zero.
    pub fn lock_granularity(mut self, objects_per_granule: u32) -> Self {
        assert!(objects_per_granule > 0, "granularity must be positive");
        self.config.lock_granularity = objects_per_granule;
        self
    }

    /// Enables multi-version storage and the given read path.
    ///
    /// # Panics
    ///
    /// Panics if the retention bound is zero.
    pub fn mvcc(mut self, mvcc: MvccConfig) -> Self {
        assert!(mvcc.keep > 0, "version retention must be positive");
        self.config.mvcc = Some(mvcc);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the per-object CPU cost is zero (transactions must do
    /// some work).
    pub fn build(self) -> SingleSiteConfig {
        assert!(
            !self.config.cpu_per_object.is_zero(),
            "per-object CPU cost must be positive"
        );
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_policies() {
        assert_eq!(ProtocolKind::PriorityCeiling.label(), "C");
        assert_eq!(ProtocolKind::TwoPhaseLocking.label(), "L");
        assert_eq!(ProtocolKind::TwoPhaseLocking.cpu_policy(), CpuPolicy::Fcfs);
        assert_eq!(
            ProtocolKind::PriorityCeiling.cpu_policy(),
            CpuPolicy::PreemptivePriority
        );
        assert_eq!(ProtocolKind::all().len(), 6);
    }

    #[test]
    fn builder_defaults_are_valid() {
        let c = SingleSiteConfig::builder().build();
        assert_eq!(c.protocol, ProtocolKind::PriorityCeiling);
        assert!(c.restart_victims);
    }

    #[test]
    #[should_panic(expected = "CPU cost")]
    fn zero_cpu_panics() {
        SingleSiteConfig::builder()
            .cpu_per_object(SimDuration::ZERO)
            .build();
    }
}
