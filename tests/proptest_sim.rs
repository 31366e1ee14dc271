//! Property-based whole-simulation tests: random transaction scenarios
//! must stay serialisable, value-consistent and deterministic under every
//! protocol.

use proptest::prelude::*;
use rtlock::prelude::*;
use rtlock_suite::run_checked;

/// A compact random scenario: up to 10 transactions over 8 objects.
#[derive(Debug, Clone)]
struct Scenario {
    txns: Vec<TxnSpec>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    let txn = (
        0u64..400,                                  // arrival
        prop::collection::btree_set(0u32..8, 1..4), // read objects
        prop::collection::btree_set(0u32..8, 0..3), // write objects
        200u64..5_000,                              // deadline offset
    );
    prop::collection::vec(txn, 1..10).prop_map(|raw| {
        let txns = raw
            .into_iter()
            .enumerate()
            .map(|(i, (arrival, reads, writes, offset))| {
                // Writes take precedence on overlap (sets must be disjoint
                // and non-empty overall).
                let write_set: Vec<ObjectId> = writes.iter().map(|&o| ObjectId(o)).collect();
                let read_set: Vec<ObjectId> = reads
                    .iter()
                    .filter(|o| !writes.contains(o))
                    .map(|&o| ObjectId(o))
                    .collect();
                let (read_set, write_set) = if read_set.is_empty() && write_set.is_empty() {
                    (vec![ObjectId(0)], vec![])
                } else {
                    (read_set, write_set)
                };
                TxnSpec::new(
                    TxnId(i as u64),
                    SimTime::from_ticks(arrival),
                    read_set,
                    write_set,
                    SimTime::from_ticks(arrival + offset),
                    SiteId(0),
                )
            })
            .collect();
        Scenario { txns }
    })
}

fn config(kind: ProtocolKind, restart: bool) -> SingleSiteConfig {
    SingleSiteConfig::builder()
        .protocol(kind)
        .cpu_per_object(SimDuration::from_ticks(100))
        .io_per_object(SimDuration::from_ticks(50))
        .restart_victims(restart)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every protocol, on every random scenario: the run drains, the
    /// history is conflict serialisable, the store matches the committed
    /// writes, and identical inputs give identical outputs.
    #[test]
    fn random_scenarios_are_serializable_and_deterministic(
        scenario in scenario_strategy(),
        restart in any::<bool>(),
    ) {
        let catalog = Catalog::new(8, 1, Placement::SingleSite);
        for kind in ProtocolKind::all() {
            let checked = run_checked(config(kind, restart), &catalog, scenario.txns.clone());
            checked.check_store_integrity();
            let a = checked.report;
            prop_assert_eq!(
                a.stats.processed as usize,
                scenario.txns.len(),
                "{} lost transactions",
                kind
            );
            let b = run_transactions(config(kind, restart), &catalog, scenario.txns.clone());
            prop_assert_eq!(a.stats, b.stats, "{} not deterministic", kind);
        }
    }

    /// The ceiling protocols never deadlock and never restart, on any
    /// scenario.
    #[test]
    fn ceiling_protocols_never_deadlock_on_random_scenarios(
        scenario in scenario_strategy(),
    ) {
        let catalog = Catalog::new(8, 1, Placement::SingleSite);
        for kind in [ProtocolKind::PriorityCeiling, ProtocolKind::PriorityCeilingExclusive] {
            let report = run_transactions(config(kind, true), &catalog, scenario.txns.clone());
            prop_assert_eq!(report.deadlocks, 0);
            prop_assert_eq!(report.stats.restarts, 0);
        }
    }

    /// Committed values survive any interleaving: each object's final
    /// value equals the number of committed writes to it (writes are
    /// increments), under the most deadlock-prone protocol.
    #[test]
    fn increments_are_never_lost_or_doubled(scenario in scenario_strategy()) {
        let catalog = Catalog::new(8, 1, Placement::SingleSite);
        let run = run_checked(
            config(ProtocolKind::TwoPhaseLocking, true),
            &catalog,
            scenario.txns.clone(),
        );
        // Count committed writes per object from the commit events.
        let mut expected = [0u64; 8];
        for txn in run.committed() {
            let spec = scenario.txns.iter().find(|t| t.id == txn).expect("spec");
            for w in spec.write_set() {
                expected[w.0 as usize] += 1;
            }
        }
        for (id, obj) in run.report.stores[0].iter() {
            prop_assert_eq!(obj.value, expected[id.0 as usize], "object {}", id);
            prop_assert_eq!(obj.version, expected[id.0 as usize]);
        }
    }
}
