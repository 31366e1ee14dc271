//! Integration tests for the extension features the paper sketches but
//! does not evaluate: timestamp ordering, network topologies, bounded
//! I/O parallelism, and temporally consistent multiversion reads.

use netsim::Topology;
use rtlock::distributed::{CeilingArchitecture, DistributedConfig, DistributedSimulator};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

// ---- timestamp ordering -------------------------------------------------

#[test]
fn timestamp_ordering_is_serializable_and_never_blocks() {
    let catalog = Catalog::new(40, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(250)
        .mean_interarrival(SimDuration::from_ticks(12_000))
        .size(SizeDistribution::Uniform { min: 4, max: 12 })
        .write_fraction(0.5)
        .deadline(6.0, SimDuration::from_ticks(1_500))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TimestampOrdering)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();
    for seed in 0..4 {
        let txns = Generator::new(&workload, &catalog).generate(seed);
        let run = run_checked(config, &catalog, txns);
        run.check_store_integrity();
        let report = run.report;
        assert_eq!(report.stats.processed, 250);
        // T/O resolves conflicts by restart, not by blocking: blocked time
        // is zero for every transaction.
        assert_eq!(report.stats.mean_blocked_ticks, 0.0, "T/O never blocks");
    }
}

#[test]
fn timestamp_ordering_restarts_on_conflict() {
    let catalog = Catalog::new(6, 1, Placement::SingleSite);
    // High conflict: everyone writes the same pair of objects.
    let workload = WorkloadSpec::builder()
        .txn_count(120)
        .mean_interarrival(SimDuration::from_ticks(1_200))
        .size(SizeDistribution::Fixed(2))
        .write_fraction(1.0)
        .deadline(20.0, SimDuration::from_ticks(1_500))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TimestampOrdering)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();
    let txns = Generator::new(&workload, &catalog).generate(2);
    let report = run_checked(config, &catalog, txns).report;
    assert!(report.stats.restarts > 0, "conflicts must trigger restarts");
}

// ---- topology ------------------------------------------------------------

#[test]
fn ring_topology_slows_the_global_manager() {
    let catalog = Catalog::new(60, 3, Placement::FullyReplicated);
    let workload = WorkloadSpec::builder()
        .txn_count(150)
        .mean_interarrival(SimDuration::from_ticks(1_500))
        .size(SizeDistribution::Uniform { min: 2, max: 4 })
        .read_only_fraction(0.5)
        .deadline(15.0, SimDuration::from_ticks(500))
        .build();
    let run = |topology: Topology| {
        let config = DistributedConfig::builder()
            .architecture(CeilingArchitecture::GlobalManager)
            .topology(topology)
            .comm_delay(SimDuration::from_ticks(400))
            .cpu_per_object(SimDuration::from_ticks(500))
            .build();
        DistributedSimulator::new(config, catalog.clone(), &workload).run(6)
    };
    let full = run(Topology::FullyConnected);
    // A star centred away from the manager forces two hops for most
    // lock traffic.
    let star = run(Topology::Star { hub: SiteId(1) });
    assert!(
        star.stats.mean_response_ticks > full.stats.mean_response_ticks,
        "two-hop routes must slow the manager ({} vs {})",
        star.stats.mean_response_ticks,
        full.stats.mean_response_ticks
    );
}

// ---- bounded I/O ----------------------------------------------------------

#[test]
fn bounded_io_parallelism_degrades_two_phase_locking() {
    let catalog = Catalog::new(200, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(200)
        .mean_interarrival(SimDuration::from_ticks(12_000))
        .size(SizeDistribution::Fixed(8))
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(3_000))
        .build();
    let base = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLockingPriority)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(2_000));
    let parallel = Simulator::new(base.clone().build(), catalog.clone(), &workload).run(1);
    let txns = Generator::new(&workload, &catalog).generate(1);
    let single_disk = run_checked(base.io_parallelism(1).build(), &catalog, txns).report;
    // One disk at 2000 ticks per fetch cannot carry 8 objects per 12000
    // ticks once transactions overlap; misses must rise.
    assert!(
        single_disk.stats.missed > parallel.stats.missed,
        "bounded I/O should miss more ({} vs {})",
        single_disk.stats.missed,
        parallel.stats.missed
    );
}

// ---- temporal consistency --------------------------------------------------

#[test]
fn temporal_snapshots_are_constructible_with_enough_versions() {
    let catalog = Catalog::new(30, 3, Placement::FullyReplicated);
    let workload = WorkloadSpec::builder()
        .txn_count(200)
        .mean_interarrival(SimDuration::from_ticks(1_200))
        .size(SizeDistribution::Uniform { min: 2, max: 4 })
        .read_only_fraction(0.5)
        .write_fraction(0.5)
        .deadline(20.0, SimDuration::from_ticks(500))
        .build();
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(1_000))
        .cpu_per_object(SimDuration::from_ticks(500))
        .temporal_versions(32)
        .build();
    let report = DistributedSimulator::new(config, catalog, &workload).run(8);
    let temporal = report.temporal.expect("temporal measurement enabled");
    assert!(
        temporal.snapshot_reads > 0,
        "read-only queries probe snapshots"
    );
    assert_eq!(
        temporal.unconstructible, 0,
        "32 retained versions must cover the read lag"
    );
}

#[test]
fn staleness_grows_with_communication_delay() {
    let catalog = Catalog::new(30, 3, Placement::FullyReplicated);
    let workload = WorkloadSpec::builder()
        .txn_count(250)
        .mean_interarrival(SimDuration::from_ticks(1_000))
        .size(SizeDistribution::Uniform { min: 2, max: 4 })
        .read_only_fraction(0.5)
        .write_fraction(0.5)
        .deadline(30.0, SimDuration::from_ticks(500))
        .build();
    let lag_at = |delay: u64| {
        let config = DistributedConfig::builder()
            .architecture(CeilingArchitecture::LocalReplicated)
            .comm_delay(SimDuration::from_ticks(delay))
            .cpu_per_object(SimDuration::from_ticks(500))
            .temporal_versions(64)
            .build();
        let report = DistributedSimulator::new(config, catalog.clone(), &workload).run(5);
        report.temporal.expect("enabled").max_lag_ticks
    };
    let short = lag_at(200);
    let long = lag_at(4_000);
    assert!(
        long > short,
        "replica staleness must grow with the propagation delay ({short} vs {long})"
    );
}

#[test]
fn temporal_measurement_off_reports_none() {
    let catalog = Catalog::new(30, 3, Placement::FullyReplicated);
    let workload = WorkloadSpec::builder()
        .txn_count(30)
        .mean_interarrival(SimDuration::from_ticks(2_000))
        .size(SizeDistribution::Fixed(2))
        .deadline(20.0, SimDuration::from_ticks(500))
        .build();
    let config = DistributedConfig::builder()
        .cpu_per_object(SimDuration::from_ticks(500))
        .build();
    let report = DistributedSimulator::new(config, catalog, &workload).run(1);
    assert!(report.temporal.is_none());
}

// ---- lock granularity ------------------------------------------------------

#[test]
fn coarse_granularity_serialises_more_but_stays_correct() {
    let catalog = Catalog::new(40, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(200)
        .mean_interarrival(SimDuration::from_ticks(10_000))
        .size(SizeDistribution::Fixed(6))
        .write_fraction(0.5)
        .deadline(6.0, SimDuration::from_ticks(1_500))
        .build();
    let run = |granularity: u32| {
        let config = SingleSiteConfig::builder()
            .protocol(ProtocolKind::TwoPhaseLockingPriority)
            .cpu_per_object(SimDuration::from_ticks(1_000))
            .io_per_object(SimDuration::from_ticks(500))
            .lock_granularity(granularity)
            .build();
        let txns = Generator::new(&workload, &catalog).generate(3);
        let run = run_checked(config, &catalog, txns);
        // Correctness is granularity-independent.
        run.check_store_integrity();
        assert_eq!(run.report.stats.processed, 200);
        run.report
    };
    let fine = run(1);
    let coarse = run(10);
    // Coarser granules create false conflicts: blocking can only grow.
    assert!(
        coarse.stats.mean_blocked_ticks >= fine.stats.mean_blocked_ticks,
        "coarse {} < fine {}",
        coarse.stats.mean_blocked_ticks,
        fine.stats.mean_blocked_ticks
    );
}

#[test]
fn single_granule_database_is_fully_serial() {
    // Granularity covering the whole database reduces every protocol to
    // one big lock: no deadlocks are possible even under 2PL.
    let catalog = Catalog::new(20, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(100)
        .mean_interarrival(SimDuration::from_ticks(8_000))
        .size(SizeDistribution::Fixed(4))
        .write_fraction(1.0)
        .deadline(10.0, SimDuration::from_ticks(1_500))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLockingPriority)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .lock_granularity(20)
        .build();
    let txns = Generator::new(&workload, &catalog).generate(1);
    let report = run_checked(config, &catalog, txns).report;
    assert_eq!(report.deadlocks, 0, "one lock cannot deadlock");
}
