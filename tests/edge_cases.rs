//! Targeted edge-case scenarios: deadline races with two-phase commit,
//! lock-upgrade deadlocks, grant/abort message crossings, and restart
//! storms.

use monitor::TimeSeriesSink;
use rtlock::distributed::{
    run_transactions_distributed, run_transactions_distributed_with, CeilingArchitecture,
    DistributedConfig,
};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn dist_config(delay: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .architecture(CeilingArchitecture::GlobalManager)
        .comm_delay(SimDuration::from_ticks(delay))
        .cpu_per_object(SimDuration::from_ticks(500))
        .build()
}

fn dist_catalog() -> Catalog {
    Catalog::new(30, 3, Placement::FullyReplicated)
}

#[test]
fn deadline_during_2pc_voting_aborts_cleanly() {
    // One update transaction at site 1 writing one local-primary object
    // (O4, site 1) and one remote-primary object (O5, site 2), so the
    // two-phase commit has a participant across the network. With a
    // one-way delay of 800: lock grants at ~1.6k and ~3.7k, CPU bursts
    // 500 each, prepare broadcast ~4.2k, remote vote back ~5.8k. A
    // deadline at 5.0k lands squarely in the voting phase.
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::ZERO,
        vec![],
        vec![ObjectId(4), ObjectId(5)],
        SimTime::from_ticks(5_000),
        SiteId(1),
    )];
    let run = run_checked(dist_config(800), &dist_catalog(), txns);
    assert_eq!(run.report.stats.missed, 1);
    assert_eq!(run.report.stats.committed, 0);
    // The abort retracted everything: no committed writes anywhere.
    for store in &run.report.stores {
        assert!(store.iter().all(|(_, o)| o.version == 0));
    }
    assert!(!run
        .events
        .iter()
        .any(|(_, e)| matches!(e.kind, SimEventKind::VersionInstalled { .. })));
}

#[test]
fn deadline_after_commit_decision_completes_but_counts_missed() {
    // Execution timeline with delay 400 and home site 1 (manager remote):
    // two writes → lock RTs ≈ 2×(2×400) + 2×500 cpu ≈ 2.6k; prepare+vote
    // ≈ 3.4k (decision broadcast); acks ≈ 4.2k. A deadline at 3.9k lands
    // after the decision and before the acks.
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::ZERO,
        vec![],
        vec![ObjectId(4), ObjectId(7)],
        SimTime::from_ticks(3_900),
        SiteId(1),
    )];
    let run = run_checked(dist_config(400), &dist_catalog(), txns);
    let report = &run.report;
    assert_eq!(report.stats.processed, 1);
    let installs = run
        .events
        .iter()
        .filter(|(_, e)| matches!(e.kind, SimEventKind::VersionInstalled { .. }))
        .count();
    if report.stats.missed == 1 {
        // The decided commit stands physically.
        let s1 = &report.stores[1];
        assert_eq!(
            s1.read(ObjectId(4)).version + s1.read(ObjectId(7)).version,
            2
        );
        // And both writes were installed (the event stream and the store
        // agree).
        assert_eq!(installs, 2);
    } else {
        // If the timing resolved the acks before the deadline the commit
        // is simply on time — also legal; the test pins the invariant
        // that store and installed versions always agree.
        assert_eq!(report.stats.committed, 1);
        assert_eq!(installs, 2);
    }
    run.check_store_integrity();
}

#[test]
fn upgrade_deadlock_between_two_readers_is_broken() {
    // Classic conversion deadlock: both transactions read-lock O1, then
    // both try to write it. Neither upgrade can proceed; the waits-for
    // cycle must be detected and one victim restarted.
    // Build it with explicit specs whose read and write sets overlap —
    // TxnSpec forbids that, so use two objects accessed in crossing order
    // with shared read locks.
    let catalog = Catalog::new(10, 1, Placement::SingleSite);
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLockingPriority)
        .cpu_per_object(SimDuration::from_ticks(100))
        .io_per_object(SimDuration::from_ticks(100))
        .restart_victims(true)
        .build();
    // T0: read O1, write O2; T1: read O2, write O1. Reads are shared, the
    // writes then cross.
    let txns = vec![
        TxnSpec::new(
            TxnId(0),
            SimTime::ZERO,
            vec![ObjectId(1)],
            vec![ObjectId(2)],
            SimTime::from_ticks(100_000),
            SiteId(0),
        ),
        TxnSpec::new(
            TxnId(1),
            SimTime::from_ticks(10),
            vec![ObjectId(2)],
            vec![ObjectId(1)],
            SimTime::from_ticks(100_000),
            SiteId(0),
        ),
    ];
    let run = run_checked(config, &catalog, txns);
    assert_eq!(
        run.report.stats.committed, 2,
        "both must commit after resolution"
    );
    assert!(
        run.report.deadlocks >= 1,
        "the crossing writes must deadlock"
    );
    run.check_store_integrity();
}

#[test]
fn restart_storm_preserves_value_integrity() {
    // Many small all-write transactions over a tiny database with
    // restarts enabled: every commit must still be exactly one increment
    // per written object.
    let catalog = Catalog::new(4, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(150)
        .mean_interarrival(SimDuration::from_ticks(600))
        .size(SizeDistribution::Fixed(2))
        .write_fraction(1.0)
        .deadline(12.0, SimDuration::from_ticks(200))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLockingPriority)
        .cpu_per_object(SimDuration::from_ticks(100))
        .io_per_object(SimDuration::from_ticks(100))
        .restart_victims(true)
        .build();
    let txns = Generator::new(&workload, &catalog).generate(7);
    let run = run_checked(config, &catalog, txns);
    assert!(
        run.report.stats.restarts > 0,
        "the workload must trigger restarts"
    );
    run.check_store_integrity();
}

#[test]
fn distributed_timeline_collects_windows() {
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(200))
        .cpu_per_object(SimDuration::from_ticks(300))
        .build();
    let workload = WorkloadSpec::builder()
        .txn_count(60)
        .mean_interarrival(SimDuration::from_ticks(1_000))
        .size(SizeDistribution::Fixed(3))
        .read_only_fraction(0.5)
        .deadline(20.0, SimDuration::from_ticks(300))
        .build();
    let txns = Generator::new(&workload, &dist_catalog()).generate(4);
    let mut timeline = TimeSeriesSink::new(5_000);
    let report = run_transactions_distributed_with(config, &dist_catalog(), txns, &mut timeline);
    assert!(timeline.windows().len() > 1);
    let total: u64 = timeline.windows().iter().map(|w| w.commits).sum();
    assert_eq!(total, u64::from(report.stats.committed));
}

#[test]
fn zero_delay_global_equals_messages_but_not_time() {
    // At zero communication delay the global manager still exchanges all
    // its messages — they are just instantaneous. The message count must
    // match the non-zero-delay run on the same scenario.
    let txns: Vec<TxnSpec> = (0..10u64)
        .map(|i| {
            TxnSpec::new(
                TxnId(i),
                SimTime::from_ticks(i * 2_000),
                vec![ObjectId((i % 5) as u32)],
                vec![],
                SimTime::from_ticks(i * 2_000 + 60_000),
                SiteId((i % 3) as u8),
            )
        })
        .collect();
    let zero = run_transactions_distributed(dist_config(0), &dist_catalog(), txns.clone());
    let slow = run_transactions_distributed(dist_config(600), &dist_catalog(), txns);
    assert_eq!(zero.stats.committed, 10);
    assert_eq!(slow.stats.committed, 10);
    assert_eq!(zero.remote_messages, slow.remote_messages);
    assert!(zero.stats.mean_response_ticks < slow.stats.mean_response_ticks);
}
