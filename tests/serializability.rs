//! Whole-simulation correctness: every protocol must produce conflict
//! serialisable histories and value-consistent stores under heavy,
//! conflicting load.

use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn heavy_workload(size: u32, read_only: f64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .txn_count(250)
        .mean_interarrival(SimDuration::from_ticks(size as u64 * 1_400))
        .size(SizeDistribution::Fixed(size))
        .read_only_fraction(read_only)
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build()
}

fn config(kind: ProtocolKind, restart: bool) -> SingleSiteConfig {
    SingleSiteConfig::builder()
        .protocol(kind)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .restart_victims(restart)
        .build()
}

#[test]
fn all_protocols_yield_serializable_histories_under_conflict() {
    let catalog = Catalog::new(60, 1, Placement::SingleSite);
    let workload = heavy_workload(12, 0.2);
    for kind in ProtocolKind::all() {
        for restart in [true, false] {
            for seed in 0..3 {
                let txns = Generator::new(&workload, &catalog).generate(seed);
                let run = run_checked(config(kind, restart), &catalog, txns);
                run.check_store_integrity();
                assert_eq!(run.report.stats.processed, 250, "{kind} lost transactions");
            }
        }
    }
}

#[test]
fn runs_are_bit_deterministic() {
    let catalog = Catalog::new(100, 1, Placement::SingleSite);
    let workload = heavy_workload(10, 0.3);
    for kind in ProtocolKind::all() {
        let run = || {
            let txns = Generator::new(&workload, &catalog).generate(99);
            run_checked(config(kind, true), &catalog, txns)
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.report.stats, b.report.stats,
            "{kind} stats differ across identical runs"
        );
        assert_eq!(a.report.deadlocks, b.report.deadlocks);
        assert_eq!(a.report.ceiling_blocks, b.report.ceiling_blocks);
        assert_eq!(a.report.preemptions, b.report.preemptions);
        assert_eq!(a.report.stores, b.report.stores, "{kind} stores differ");
        assert_eq!(a.events, b.events, "{kind} event streams differ");
    }
}

#[test]
fn different_seeds_differ() {
    let catalog = Catalog::new(100, 1, Placement::SingleSite);
    let workload = heavy_workload(10, 0.3);
    let run = |seed| {
        let txns = Generator::new(&workload, &catalog).generate(seed);
        run_checked(config(ProtocolKind::PriorityCeiling, true), &catalog, txns)
    };
    assert_ne!(
        run(1).events,
        run(2).events,
        "distinct seeds should explore distinct schedules"
    );
}

#[test]
fn read_only_workload_never_blocks_under_rw_ceiling() {
    let catalog = Catalog::new(60, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(150)
        .mean_interarrival(SimDuration::from_ticks(10_000)) // ~0.6 CPU load
        .size(SizeDistribution::Fixed(6))
        .read_only_fraction(1.0)
        .deadline(8.0, SimDuration::from_ticks(1_500))
        .build();
    let report = Simulator::new(
        config(ProtocolKind::PriorityCeiling, true),
        catalog,
        &workload,
    )
    .run(5);
    // No writers anywhere: write ceilings are bottom, so reads always pass.
    assert_eq!(report.ceiling_blocks, 0);
    assert_eq!(report.stats.missed, 0);
}

#[test]
fn aborted_transactions_leave_no_trace_in_history_or_store() {
    let catalog = Catalog::new(30, 1, Placement::SingleSite);
    // One transaction that cannot meet its deadline.
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::ZERO,
        vec![ObjectId(1)],
        vec![ObjectId(2)],
        SimTime::from_ticks(100), // needs 2 × 1500 ticks
        SiteId(0),
    )];
    let run = run_checked(config(ProtocolKind::PriorityCeiling, true), &catalog, txns);
    assert_eq!(run.report.stats.missed, 1);
    assert!(run.committed().is_empty());
    assert!(run.report.stores[0].iter().all(|(_, o)| o.version == 0));
}
