//! Results of one simulation run.

use std::fmt;

use monitor::RunStats;
use rtdb::ObjectStore;
use starlite::SimDuration;

/// Temporal-consistency measurements of a run with multiversion reads
/// enabled (the §4 future-work mechanism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalStats {
    /// Snapshot reads attempted by read-only transactions.
    pub snapshot_reads: u64,
    /// Reads whose pinned snapshot was unconstructible (the version had
    /// already been evicted — retention shorter than the read lag).
    pub unconstructible: u64,
    /// Mean staleness of constructible snapshot reads, in ticks: how long
    /// after its commit at the primary the version the pinned view needs
    /// became (or will have become) available at the reading site. Zero
    /// for reads at the primary itself.
    pub mean_lag_ticks: f64,
    /// Worst observed staleness, in ticks.
    pub max_lag_ticks: u64,
    /// Mean replication lag of reads against remote-primary objects: how
    /// far (in ticks) the local replica's newest version trailed the
    /// primary copy's newest version at read time.
    pub mean_replica_lag_ticks: f64,
    /// Worst observed replication lag, in ticks.
    pub max_replica_lag_ticks: u64,
    /// Read-only transactions of a reader class that committed. The
    /// single-site simulator counts every read-only transaction of an
    /// mvcc run, whatever its [`ReaderMode`](crate::ReaderMode); the
    /// distributed simulator counts snapshot readers only, so with
    /// locking readers it reports 0.
    pub reader_committed: u64,
    /// Read-only transactions of a reader class that missed their
    /// deadline, counted by the same rule (a distributed reader aborted
    /// by a site crash is faulted, not missed).
    pub reader_missed: u64,
    /// Version-chain prefixes evicted by watermark GC.
    pub versions_gced: u64,
}

impl TemporalStats {
    /// Fraction of read-only transactions that missed their deadline, in
    /// percent (0 when no readers ran).
    pub fn reader_miss_percent(&self) -> f64 {
        let total = self.reader_committed + self.reader_missed;
        if total == 0 {
            0.0
        } else {
            100.0 * self.reader_missed as f64 / total as f64
        }
    }
}

/// Everything a finished run reports: the paper's headline metrics plus
/// protocol- and kernel-level counters and the final stores. For
/// per-transaction detail, run with an event sink (see
/// [`crate::single_site::run_transactions_with`]).
pub struct RunReport {
    /// Headline metrics (throughput, %missed, response times).
    pub stats: RunStats,
    /// Deadlocks detected (two-phase locking protocols only).
    pub deadlocks: u64,
    /// Requests denied by the ceiling test (ceiling protocols only).
    pub ceiling_blocks: u64,
    /// CPU preemptions performed, summed over sites.
    pub preemptions: u64,
    /// Total CPU busy time, summed over sites.
    pub cpu_busy: SimDuration,
    /// Messages sent across links (distributed runs only).
    pub remote_messages: u64,
    /// Network delivery statistics — sent / delivered / dropped-at-send /
    /// dropped-in-flight / duplicated (distributed runs only).
    pub net: Option<netsim::NetStats>,
    /// Kernel events executed by the simulation engine — the denominator
    /// of the events-per-second throughput figure the bench harness
    /// reports.
    pub events: u64,
    /// Final object stores, one per site (a single-site run has one).
    pub stores: Vec<ObjectStore>,
    /// Temporal-consistency measurements, when multiversion reads were
    /// enabled.
    pub temporal: Option<TemporalStats>,
}

impl fmt::Debug for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunReport")
            .field("stats", &self.stats)
            .field("deadlocks", &self.deadlocks)
            .field("ceiling_blocks", &self.ceiling_blocks)
            .field("preemptions", &self.preemptions)
            .field("remote_messages", &self.remote_messages)
            .finish()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} | deadlocks={} ceiling_blocks={} preemptions={}",
            self.stats, self.deadlocks, self.ceiling_blocks, self.preemptions
        )
    }
}
