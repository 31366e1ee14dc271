//! Property-based whole-simulation tests of the distributed
//! architectures: random scenarios must stay per-copy serialisable,
//! converge their replicas (local architecture), apply writes atomically
//! (global architecture), and replay deterministically.

use proptest::prelude::*;
use rtlock::distributed::{run_transactions_distributed, CeilingArchitecture, DistributedConfig};
use rtlock::prelude::*;
use rtlock_suite::run_checked;

const SITES: u8 = 3;
const DB: u32 = 12;

#[derive(Debug, Clone)]
struct Scenario {
    txns: Vec<TxnSpec>,
    delay: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let txn = (
        0u64..2_000,                                 // arrival
        0u8..SITES,                                  // home-site pick
        prop::collection::btree_set(0u32..DB, 0..3), // reads
        prop::collection::btree_set(0u32..DB, 0..3), // writes (remapped to primaries)
        2_000u64..60_000,                            // deadline offset
    );
    (prop::collection::vec(txn, 1..8), 0u64..1_500).prop_map(|(raw, delay)| {
        let catalog = Catalog::new(DB, SITES, Placement::FullyReplicated);
        let txns = raw
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, site_pick, reads, writes, offset))| {
                let home = SiteId(site_pick);
                // Restriction 2: remap each write onto a primary of the
                // home site (ids with id % SITES == home).
                let write_set: Vec<ObjectId> = writes
                    .iter()
                    .map(|&o| ObjectId((o / SITES as u32) * SITES as u32 + home.0 as u32))
                    .filter(|o| o.0 < DB)
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect();
                let read_set: Vec<ObjectId> = reads
                    .iter()
                    .map(|&o| ObjectId(o))
                    .filter(|o| !write_set.contains(o))
                    .collect();
                let (read_set, write_set) = if read_set.is_empty() && write_set.is_empty() {
                    (vec![ObjectId(0)], vec![])
                } else {
                    (read_set, write_set)
                };
                for w in &write_set {
                    assert_eq!(catalog.primary_site(*w), home);
                }
                TxnSpec::new(
                    TxnId(i as u64),
                    SimTime::from_ticks(arrival),
                    read_set,
                    write_set,
                    SimTime::from_ticks(arrival + offset),
                    home,
                )
            })
            .collect();
        Scenario { txns, delay }
    })
}

fn config(arch: CeilingArchitecture, delay: u64) -> DistributedConfig {
    DistributedConfig::builder()
        .architecture(arch)
        .comm_delay(SimDuration::from_ticks(delay))
        .cpu_per_object(SimDuration::from_ticks(100))
        .apply_cost(SimDuration::from_ticks(20))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both architectures: per-copy serialisability, full processing, and
    /// deterministic replay on every random scenario.
    #[test]
    fn distributed_scenarios_are_serializable_and_deterministic(
        scenario in scenario_strategy(),
    ) {
        let catalog = Catalog::new(DB, SITES, Placement::FullyReplicated);
        for arch in [
            CeilingArchitecture::LocalReplicated,
            CeilingArchitecture::GlobalManager,
        ] {
            let a = run_checked(config(arch, scenario.delay), &catalog, scenario.txns.clone())
                .report;
            prop_assert_eq!(a.stats.processed as usize, scenario.txns.len());
            let b = run_transactions_distributed(
                config(arch, scenario.delay),
                &catalog,
                scenario.txns.clone(),
            );
            prop_assert_eq!(a.stats, b.stats, "{:?} not deterministic", arch);
            prop_assert_eq!(a.stores, b.stores, "{:?} stores differ", arch);
        }
    }

    /// Local architecture: once propagation drains, every replica matches
    /// its primary (single-writer convergence), and committed writes only
    /// ever happen at primaries.
    #[test]
    fn local_replicas_converge(scenario in scenario_strategy()) {
        let catalog = Catalog::new(DB, SITES, Placement::FullyReplicated);
        let run = run_checked(
            config(CeilingArchitecture::LocalReplicated, scenario.delay),
            &catalog,
            scenario.txns.clone(),
        );
        let report = &run.report;
        for (id, _) in report.stores[0].iter() {
            let primary = catalog.primary_site(id);
            let truth = report.stores[primary.index()].read(id);
            for store in &report.stores {
                let replica = store.read(id);
                prop_assert_eq!(replica.version, truth.version, "{} diverged", id);
                prop_assert_eq!(replica.value, truth.value);
            }
        }
        // A version is first installed at its primary; replicas follow.
        run.check_installs_originate_at_primaries();
        run.check_store_integrity();
    }

    /// Global architecture: store versions equal committed write counts
    /// at each primary (2PC writes are all-or-nothing).
    #[test]
    fn global_writes_are_atomic(scenario in scenario_strategy()) {
        let catalog = Catalog::new(DB, SITES, Placement::FullyReplicated);
        run_checked(
            config(CeilingArchitecture::GlobalManager, scenario.delay),
            &catalog,
            scenario.txns.clone(),
        )
        .check_store_integrity();
    }
}
