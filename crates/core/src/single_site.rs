//! The single-site real-time database simulator (the §3 experiments).
//!
//! One site of the crate's site engine, with no network: the site's
//! transaction manager drives every transaction through arrival, lock
//! requests, I/O, CPU bursts, commit, deadline aborts and deadlock
//! restarts, under the protocol and reader class the
//! [`SingleSiteConfig`] names.

use std::fmt;

use monitor::SimEvent;
use rtdb::{Catalog, Placement, RangeLatchManager, TxnId, TxnSpec};
use starlite::{
    Cpu, Engine, EventSink, IoDevice, Model, NullSink, Scheduler, SimDuration, SimTime,
};
use workload::{Generator, WorkloadSpec};

use crate::config::{ReaderMode, SingleSiteConfig};
use crate::mvcc::VersionStore;
use crate::protocols::{make_protocol, LockProtocol};
use crate::report::RunReport;
use crate::site::{self, Driver, Policy, Site, SiteEngine, SiteEvent};

/// The one-site driver: no network, every engine default.
#[derive(Debug)]
struct OneSite;

impl Driver for OneSite {
    type Event = SiteEvent;
    type Protocol = dyn LockProtocol + Send;
    type Txn = ();
}

impl<S: EventSink<SimEvent>> Model for SiteEngine<S, OneSite> {
    type Event = SiteEvent;

    fn handle(&mut self, event: SiteEvent, sched: &mut Scheduler<SiteEvent>) {
        self.on_site_event(event, sched);
        self.flush_cpu_journals();
    }
}

/// The single-site simulator: configuration, catalog, and workload in;
/// [`RunReport`] out.
///
/// See the [crate-level example](crate) for typical use.
pub struct Simulator<'a> {
    config: SingleSiteConfig,
    catalog: Catalog,
    workload: &'a WorkloadSpec,
}

impl fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("config", &self.config)
            .field("catalog", &self.catalog)
            .finish()
    }
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the catalog is not single-site.
    pub fn new(config: SingleSiteConfig, catalog: Catalog, workload: &'a WorkloadSpec) -> Self {
        assert_eq!(
            catalog.placement(),
            Placement::SingleSite,
            "the single-site simulator needs a single-site catalog"
        );
        Simulator {
            config,
            catalog,
            workload,
        }
    }

    /// Generates the workload from `seed` and runs it to completion.
    pub fn run(&self, seed: u64) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions(self.config, &self.catalog, txns)
    }

    /// Like [`Simulator::run`], but streams every structured event into
    /// `sink` (pass `&mut sink` to keep it afterwards). The seed fixes the
    /// workload, so the same seed yields the same event sequence.
    pub fn run_with<S: EventSink<SimEvent>>(&self, seed: u64, sink: S) -> RunReport {
        let txns = Generator::new(self.workload, &self.catalog).generate(seed);
        run_transactions_with(self.config, &self.catalog, txns, sink)
    }
}

/// Runs an explicit transaction list through the single-site model (the
/// entry point tests use to script exact scenarios).
///
/// # Panics
///
/// Panics if two transactions share an id.
pub fn run_transactions(
    config: SingleSiteConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
) -> RunReport {
    run_transactions_with(config, catalog, txns, NullSink)
}

/// Like [`run_transactions`], but streams every structured event into
/// `sink` (pass `&mut sink` to keep it afterwards — `&mut S` is itself a
/// sink). With [`NullSink`] the instrumentation compiles away, which is
/// how [`run_transactions`] stays free of tracing overhead.
///
/// # Panics
///
/// Panics if two transactions share an id.
pub fn run_transactions_with<S: EventSink<SimEvent>>(
    config: SingleSiteConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
    sink: S,
) -> RunReport {
    let (model, arrivals) = model(config, catalog, txns, sink);
    let (model, events, makespan) = site::run(Engine::new(model), arrivals);
    model.report(events, makespan)
}

/// The one-site model of a run, with the transactions' arrivals.
fn model<S: EventSink<SimEvent>>(
    config: SingleSiteConfig,
    catalog: &Catalog,
    txns: Vec<TxnSpec>,
    sink: S,
) -> (SiteEngine<S, OneSite>, Vec<(SimTime, TxnId)>) {
    let (specs, arrivals) = site::index_specs(txns);
    let mvcc = config.mvcc;
    let site = Site::new(
        Cpu::new(config.protocol.cpu_policy()),
        match config.io_parallelism {
            Some(channels) => IoDevice::bounded(channels),
            None => IoDevice::parallel(),
        },
        catalog.db_size(),
        mvcc.map(|m| VersionStore::new(m.keep)),
        mvcc.and_then(|m| (m.reader_mode == ReaderMode::LatchScan).then(RangeLatchManager::new)),
        make_protocol(config.protocol, config.victim_policy),
        sink.enabled(),
    );
    let policy = Policy {
        cpu_per_object: config.cpu_per_object,
        io_per_object: config.io_per_object,
        lock_granularity: config.lock_granularity,
        restart_victims: config.restart_victims,
        reader_mode: mvcc.map(|m| m.reader_mode),
        reader_lag: mvcc.map_or(SimDuration::ZERO, |m| m.reader_lag),
    };
    let model = SiteEngine::new(vec![site], specs, policy, sink, OneSite);
    (model, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MvccConfig, ProtocolKind};
    use monitor::CheckSink;
    use rtdb::ObjectId;
    use workload::SizeDistribution;

    fn catalog() -> Catalog {
        Catalog::new(50, 1, Placement::SingleSite)
    }

    fn spec(id: u64, arrival: u64, deadline: u64, reads: Vec<u32>, writes: Vec<u32>) -> TxnSpec {
        TxnSpec::new(
            TxnId(id),
            SimTime::from_ticks(arrival),
            reads.into_iter().map(ObjectId).collect(),
            writes.into_iter().map(ObjectId).collect(),
            SimTime::from_ticks(deadline),
            rtdb::SiteId(0),
        )
    }

    fn config(protocol: ProtocolKind) -> SingleSiteConfig {
        SingleSiteConfig::builder()
            .protocol(protocol)
            .cpu_per_object(SimDuration::from_ticks(10))
            .io_per_object(SimDuration::from_ticks(20))
            .build()
    }

    /// Runs `txns` under the invariant oracle (conflict serialisability
    /// among them) and panics on any violation.
    fn run_checked(config: SingleSiteConfig, catalog: &Catalog, txns: Vec<TxnSpec>) -> RunReport {
        let kind = config.protocol;
        let mut check = CheckSink::new(kind.check_config(config.restart_victims));
        let report = run_transactions_with(config, catalog, txns, &mut check);
        let violations = check.finish();
        assert!(violations.is_empty(), "{kind}: {violations:#?}");
        report
    }

    #[test]
    fn single_transaction_commits() {
        for kind in ProtocolKind::all() {
            let report = run_transactions(
                config(kind),
                &catalog(),
                vec![spec(0, 0, 1_000, vec![1, 2], vec![3])],
            );
            assert_eq!(report.stats.committed, 1, "{kind} failed");
            assert_eq!(report.stats.missed, 0);
            // 3 objects × (20 io + 10 cpu) = 90 ticks.
            assert_eq!(report.stats.mean_response_ticks, 90.0);
        }
    }

    #[test]
    fn conflicting_transactions_serialise() {
        for kind in ProtocolKind::all() {
            let report = run_checked(
                config(kind),
                &catalog(),
                vec![
                    spec(0, 0, 10_000, vec![], vec![5]),
                    spec(1, 1, 10_000, vec![], vec![5]),
                ],
            );
            assert_eq!(report.stats.committed, 2, "{kind} failed");
            assert_eq!(report.stores[0].read(ObjectId(5)).version, 2);
        }
    }

    #[test]
    fn unmeetable_deadline_is_missed() {
        let report = run_transactions(
            config(ProtocolKind::PriorityCeiling),
            &catalog(),
            // Needs 90 ticks, deadline at 50.
            vec![spec(0, 0, 50, vec![1, 2], vec![3])],
        );
        assert_eq!(report.stats.missed, 1);
        assert_eq!(report.stats.committed, 0);
        assert_eq!(report.stats.pct_missed, 100.0);
        // The aborted transaction left nothing in the store.
        assert!(report.stores[0].iter().all(|(_, o)| o.version == 0));
    }

    #[test]
    fn deadlock_is_broken_and_both_commit() {
        // Classic crossing order: T0 takes O1 then O2; T1 takes O2 then O1.
        // Arrivals interleave so each grabs its first object.
        let report = run_checked(
            config(ProtocolKind::TwoPhaseLockingPriority),
            &catalog(),
            vec![
                spec(0, 0, 100_000, vec![], vec![1, 2]),
                spec(1, 5, 100_000, vec![], vec![2, 1]),
            ],
        );
        assert_eq!(report.deadlocks, 1);
        assert_eq!(report.stats.committed, 2);
        assert!(report.stats.restarts >= 1);
    }

    #[test]
    fn ceiling_protocol_never_deadlocks_on_crossing_order() {
        let report = run_transactions(
            config(ProtocolKind::PriorityCeiling),
            &catalog(),
            vec![
                spec(0, 0, 100_000, vec![], vec![1, 2]),
                spec(1, 5, 100_000, vec![], vec![2, 1]),
            ],
        );
        assert_eq!(report.deadlocks, 0);
        assert!(report.ceiling_blocks >= 1);
        assert_eq!(report.stats.committed, 2);
        assert_eq!(report.stats.restarts, 0);
    }

    /// The locks order a primary's commits, so each lands as the
    /// object's newest version at its commit instant. A chain whose tail
    /// is stamped after the commit is a simulator bug the engine must
    /// not paper over by clamping.
    #[test]
    #[should_panic(expected = "installed out of order")]
    fn primary_install_out_of_order_panics() {
        let config = SingleSiteConfig {
            mvcc: Some(MvccConfig::locking(4)),
            ..config(ProtocolKind::PriorityCeiling)
        };
        let txns = vec![spec(0, 0, 1_000, vec![], vec![3])];
        let (mut model, arrivals) = model(config, &catalog(), txns, NullSink);
        // Version 1 of object 3 is in both stores already, stamped after
        // the commit of version 2 to come.
        let late = SimTime::from_ticks(5_000);
        let site = &mut model.sites[0];
        site.store.apply_write(ObjectId(3), 1, TxnId(9), late);
        let versions = site.versions.as_mut().expect("mvcc run");
        versions.install_if_newer(ObjectId(3), 1, 1, TxnId(9), late);
        site::run(Engine::new(model), arrivals);
    }

    #[test]
    fn generated_workload_runs_deterministically() {
        let cat = catalog();
        let workload = WorkloadSpec::builder()
            .txn_count(60)
            .mean_interarrival(SimDuration::from_ticks(60))
            .size(SizeDistribution::Uniform { min: 2, max: 5 })
            .read_only_fraction(0.3)
            .deadline(10.0, SimDuration::from_ticks(30))
            .build();
        let sim = Simulator::new(config(ProtocolKind::PriorityCeiling), cat, &workload);
        let a = sim.run(7);
        let b = sim.run(7);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.ceiling_blocks, b.ceiling_blocks);
        assert_eq!(a.stats.processed, 60);
    }

    #[test]
    fn heavy_load_misses_deadlines_under_every_protocol() {
        let cat = catalog();
        let workload = WorkloadSpec::builder()
            .txn_count(80)
            .mean_interarrival(SimDuration::from_ticks(5))
            .size(SizeDistribution::Fixed(5))
            .deadline(2.0, SimDuration::from_ticks(30))
            .build();
        for kind in ProtocolKind::all() {
            let txns = Generator::new(&workload, &cat).generate(3);
            let report = run_checked(config(kind), &cat, txns);
            assert_eq!(report.stats.processed, 80, "{kind}");
            assert!(
                report.stats.missed > 0,
                "{kind} missed nothing under overload"
            );
        }
    }
}
