//! Distributed-architecture integration tests: replication convergence,
//! per-copy serialisability, two-phase-commit atomicity, and the
//! paper's qualitative global-versus-local ordering.

use rtlock::distributed::{
    run_transactions_distributed, CeilingArchitecture, DistributedConfig, DistributedSimulator,
};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn catalog() -> Catalog {
    Catalog::new(60, 3, Placement::FullyReplicated)
}

fn config(arch: CeilingArchitecture, delay: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .architecture(arch)
        .comm_delay(SimDuration::from_ticks(delay))
        .cpu_per_object(SimDuration::from_ticks(500))
        .apply_cost(SimDuration::from_ticks(100))
        .build()
}

fn workload(read_only: f64) -> WorkloadSpec {
    WorkloadSpec::builder()
        .txn_count(200)
        .mean_interarrival(SimDuration::from_ticks(1_200))
        .size(SizeDistribution::Uniform { min: 2, max: 5 })
        .read_only_fraction(read_only)
        .write_fraction(0.5)
        .deadline(20.0, SimDuration::from_ticks(500))
        .build()
}

#[test]
fn local_architecture_converges_all_replicas() {
    let cat = catalog();
    for seed in 0..3 {
        let txns = Generator::new(&workload(0.4), &cat).generate(seed);
        let report = run_checked(
            config(CeilingArchitecture::LocalReplicated, 400),
            &cat,
            txns,
        )
        .report;
        // Once propagation drains, every replica of every object holds the
        // primary's version (single-writer ordering guarantees no splits).
        let primary_of = |o: ObjectId| cat.primary_site(o);
        for (id, obj) in report.stores[0].iter() {
            let primary_store = &report.stores[primary_of(id).index()];
            let truth = primary_store.read(id);
            for (s, store) in report.stores.iter().enumerate() {
                let replica = store.read(id);
                assert_eq!(
                    (replica.version, replica.value),
                    (truth.version, truth.value),
                    "seed {seed}: {id} diverged at site {s}"
                );
            }
            let _ = obj;
        }
    }
}

#[test]
fn local_writes_happen_only_at_primaries() {
    let cat = catalog();
    let txns = Generator::new(&workload(0.0), &cat).generate(9);
    let run = run_checked(
        config(CeilingArchitecture::LocalReplicated, 300),
        &cat,
        txns,
    );
    // Every version is created at its primary copy; other sites only
    // ever install it later, by propagation.
    assert!(run.check_installs_originate_at_primaries() > 0);
    assert!(run.report.stats.committed > 0);
}

#[test]
#[should_panic(expected = "installed at")]
fn install_checker_rejects_a_reused_version_by_another_writer() {
    let cat = catalog();
    let txns = Generator::new(&workload(0.0), &cat).generate(9);
    let mut run = run_checked(
        config(CeilingArchitecture::LocalReplicated, 300),
        &cat,
        txns,
    );
    // A write at a non-primary site that reuses a version number the
    // primary already installed, under another writer.
    let (object, version, writer) = run
        .events
        .iter()
        .find_map(|(_, e)| match e.kind {
            SimEventKind::VersionInstalled {
                object,
                version,
                writer,
            } => Some((object, version, writer)),
            _ => None,
        })
        .expect("the run installs versions");
    let elsewhere = SiteId((cat.primary_site(object).0 + 1) % cat.site_count());
    let at = run.events.last().unwrap().0;
    run.events.push((
        at,
        SimEvent::new(
            elsewhere,
            SimEventKind::VersionInstalled {
                object,
                version,
                writer: TxnId(writer.0 + 1),
            },
        ),
    ));
    run.check_installs_originate_at_primaries();
}

#[test]
#[should_panic(expected = "written at non-primary site")]
fn store_checker_rejects_a_global_write_through_to_a_replica() {
    let cat = catalog();
    let txns = Generator::new(&workload(0.5), &cat).generate(4);
    let mut run = run_checked(config(CeilingArchitecture::GlobalManager, 250), &cat, txns);
    // Under the global manager only primaries are written; a copy of
    // object 0 at any other site must stay at version 0.
    let object = ObjectId(0);
    let elsewhere = (cat.primary_site(object).index() + 1) % cat.site_count() as usize;
    run.report.stores[elsewhere].apply_write(object, 1, TxnId(0), SimTime::ZERO);
    run.check_store_integrity();
}

#[test]
fn global_architecture_is_serialisable_and_atomic() {
    let cat = catalog();
    for delay in [0u64, 250, 750] {
        let txns = Generator::new(&workload(0.5), &cat).generate(4);
        let run = run_checked(
            config(CeilingArchitecture::GlobalManager, delay),
            &cat,
            txns,
        );
        // 2PC atomicity: every object's version equals the committed
        // writes against it at its primary site.
        run.check_store_integrity();
        assert!(
            run.report.stats.processed == 200,
            "delay {delay} lost transactions"
        );
    }
}

#[test]
fn global_misses_more_than_local_and_gap_grows_with_delay() {
    let cat = catalog();
    let w = workload(0.5);
    let mut prev_gap = f64::MIN;
    for delay in [0u64, 500, 1_500] {
        let local = run_seeded(CeilingArchitecture::LocalReplicated, delay, &cat, &w);
        let global = run_seeded(CeilingArchitecture::GlobalManager, delay, &cat, &w);
        assert!(
            global >= local,
            "delay {delay}: global missed {global}% < local {local}%"
        );
        let gap = global - local;
        assert!(
            gap >= prev_gap - 3.0,
            "delay {delay}: miss gap shrank sharply ({prev_gap} -> {gap})"
        );
        prev_gap = gap;
    }
}

fn run_seeded(arch: CeilingArchitecture, delay: u64, cat: &Catalog, w: &WorkloadSpec) -> f64 {
    let mut total = 0.0;
    let seeds = 3;
    for seed in 0..seeds {
        let report = DistributedSimulator::new(config(arch, delay), cat.clone(), w).run(seed);
        total += report.stats.pct_missed;
    }
    total / seeds as f64
}

#[test]
fn read_only_transactions_commit_without_remote_messages_under_local() {
    let cat = catalog();
    let txns = vec![TxnSpec::new(
        TxnId(0),
        SimTime::from_ticks(10),
        vec![ObjectId(4), ObjectId(7)],
        vec![],
        SimTime::from_ticks(100_000),
        SiteId(2),
    )];
    let report = run_transactions_distributed(
        config(CeilingArchitecture::LocalReplicated, 500),
        &cat,
        txns,
    );
    assert_eq!(report.stats.committed, 1);
    assert_eq!(report.remote_messages, 0, "local reads must stay local");
}

#[test]
fn distributed_runs_are_deterministic() {
    let cat = catalog();
    let w = workload(0.5);
    for arch in [
        CeilingArchitecture::LocalReplicated,
        CeilingArchitecture::GlobalManager,
    ] {
        let sim = DistributedSimulator::new(config(arch, 300), cat.clone(), &w);
        let a = sim.run(17);
        let b = sim.run(17);
        assert_eq!(a.stats, b.stats, "{arch:?}");
        assert_eq!(a.stores, b.stores, "{arch:?}");
        assert_eq!(a.remote_messages, b.remote_messages, "{arch:?}");
    }
}
