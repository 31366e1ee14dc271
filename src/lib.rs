//! Shared helpers for rtlock-suite integration tests and examples.
//!
//! [`run_checked`] is the one way the suite runs a simulation it wants
//! correctness evidence from: the run streams its events through the
//! invariant oracle ([`CheckSink`]: conflict serialisability, lock
//! legality, ceiling properties, two-phase-commit legality, replica
//! coherence) and keeps them, so a test can also assert on what happened
//! — commit order, installed versions — from the stream itself.

use monitor::{CheckConfig, CheckSink, SimEvent, SimEventKind};
use rtdb::{Catalog, ObjectId, TxnId, TxnSpec};
use rtlock::distributed::{run_transactions_distributed_with, DistributedConfig};
use rtlock::single_site::run_transactions_with;
use rtlock::{RunReport, SingleSiteConfig};
use starlite::{FxHashMap, FxHashSet, SimTime, TeeSink, VecSink};

/// A simulator configuration [`run_checked`] can run.
#[derive(Debug, Clone)]
pub enum SimConfig {
    /// The single-site simulator.
    SingleSite(SingleSiteConfig),
    /// The distributed simulator.
    Distributed(DistributedConfig),
}

impl From<SingleSiteConfig> for SimConfig {
    fn from(config: SingleSiteConfig) -> Self {
        SimConfig::SingleSite(config)
    }
}

impl From<DistributedConfig> for SimConfig {
    fn from(config: DistributedConfig) -> Self {
        SimConfig::Distributed(config)
    }
}

/// A finished run the oracle found clean, with its event stream.
#[derive(Debug)]
pub struct CheckedRun {
    /// The simulator's report.
    pub report: RunReport,
    /// Every event of the run, in stream order.
    pub events: Vec<(SimTime, SimEvent)>,
    oracle: CheckConfig,
    catalog: Catalog,
    txns: Vec<TxnSpec>,
}

/// Runs `txns` under the invariant oracle and keeps the event stream.
///
/// # Panics
///
/// Panics, listing every violation, if the oracle finds any.
pub fn run_checked(
    config: impl Into<SimConfig>,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
) -> CheckedRun {
    let config = config.into();
    let oracle = match &config {
        SimConfig::SingleSite(c) => c.protocol.check_config(c.restart_victims),
        SimConfig::Distributed(c) => c.architecture.check_config(catalog.site_count()),
    };
    let mut check = CheckSink::new(oracle);
    let mut events = VecSink::new();
    let sink = TeeSink::new(&mut check, &mut events);
    let report = match config {
        SimConfig::SingleSite(c) => run_transactions_with(c, catalog, txns.clone(), sink),
        SimConfig::Distributed(c) => {
            run_transactions_distributed_with(c, catalog, txns.clone(), sink)
        }
    };
    let violations = check.finish();
    assert!(
        violations.is_empty(),
        "{} oracle violations:\n{}",
        violations.len(),
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<String>()
    );
    CheckedRun {
        report,
        events: events.into_events(),
        oracle,
        catalog: catalog.clone(),
        txns,
    }
}

impl CheckedRun {
    /// Transactions that committed, in commit order.
    pub fn committed(&self) -> Vec<TxnId> {
        self.events
            .iter()
            .filter_map(|(_, e)| match e.kind {
                SimEventKind::TxnCommitted { txn } => Some(txn),
                _ => None,
            })
            .collect()
    }

    /// Verifies end-to-end value integrity. Writes are increments, so
    /// every copy's value must equal its version, and each object's
    /// primary copy must hold one increment per transaction whose writes
    /// stand: it committed, or its two-phase commit decided to commit
    /// (a deadline that expires after the decision cannot retract it;
    /// the transaction then counts as missed). Every other copy is checked
    /// too: under the local replicated architecture it must hold its
    /// primary's version once propagation drains; otherwise (the global
    /// manager's two-phase commit applies at primaries only) it must
    /// never have been written.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_store_integrity(&self) {
        let durable: FxHashSet<TxnId> = self
            .events
            .iter()
            .filter_map(|(_, e)| match e.kind {
                SimEventKind::TxnCommitted { txn }
                | SimEventKind::TwoPcDecided { txn, commit: true } => Some(txn),
                _ => None,
            })
            .collect();
        let mut expected: FxHashMap<ObjectId, u64> = FxHashMap::default();
        for spec in self.txns.iter().filter(|t| durable.contains(&t.id)) {
            for &object in spec.write_set() {
                *expected.entry(object).or_default() += 1;
            }
        }
        for (site, store) in self.report.stores.iter().enumerate() {
            for (id, obj) in store.iter() {
                assert_eq!(
                    obj.value, obj.version,
                    "{id} value != version at site {site}"
                );
                let primary = self.catalog.primary_site(id).index();
                if primary == site {
                    assert_eq!(
                        obj.version,
                        expected.get(&id).copied().unwrap_or(0),
                        "{id} version != committed writes"
                    );
                } else if self.oracle.replicated {
                    assert_eq!(
                        obj.version,
                        self.report.stores[primary].read(id).version,
                        "{id} replica at site {site} diverged from its primary"
                    );
                } else {
                    assert_eq!(obj.version, 0, "{id} written at non-primary site {site}");
                }
            }
        }
    }

    /// Verifies that every version is created at its object's primary
    /// copy: the first install of each `(object, version)` happens there,
    /// and every later install of it — a replica applying the propagated
    /// update — names the same writer. Returns the number of distinct
    /// versions installed.
    ///
    /// # Panics
    ///
    /// Panics if a version first appears at a non-primary copy, or if two
    /// installs of one version name different writers.
    pub fn check_installs_originate_at_primaries(&self) -> usize {
        let mut origin: FxHashMap<(ObjectId, u64), TxnId> = FxHashMap::default();
        for (_, ev) in &self.events {
            let SimEventKind::VersionInstalled {
                object,
                version,
                writer,
            } = ev.kind
            else {
                continue;
            };
            match origin.get(&(object, version)) {
                Some(&first) => assert_eq!(
                    writer, first,
                    "{object} v{version} installed at {} by {writer}, but created by {first}",
                    ev.site
                ),
                None => {
                    assert_eq!(
                        ev.site,
                        self.catalog.primary_site(object),
                        "{object} v{version} first installed at a non-primary copy"
                    );
                    origin.insert((object, version), writer);
                }
            }
        }
        origin.len()
    }
}
