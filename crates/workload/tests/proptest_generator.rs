//! Property-based tests of the workload generator.

use proptest::prelude::*;
use rtdb::{Catalog, Placement, TxnKind};
use starlite::SimDuration;
use workload::{Generator, SizeDistribution, WorkloadSpec};

fn spec_strategy() -> impl Strategy<Value = (WorkloadSpec, u8, u32)> {
    (
        1u32..80,      // txn count
        100u64..5_000, // mean interarrival
        1u32..6,       // min size
        0u32..8,       // extra size
        0.0f64..=1.0,  // read-only fraction
        0.05f64..=1.0, // write fraction
        1.0f64..10.0,  // slack
        1u8..4,        // sites
        30u32..120,    // db size
    )
        .prop_map(|(n, inter, smin, sextra, ro, wf, slack, sites, db)| {
            let spec = WorkloadSpec::builder()
                .txn_count(n)
                .mean_interarrival(SimDuration::from_ticks(inter))
                .size(SizeDistribution::Uniform {
                    min: smin,
                    max: smin + sextra,
                })
                .read_only_fraction(ro)
                .write_fraction(wf)
                .deadline(slack, SimDuration::from_ticks(500))
                .build();
            (spec, sites, db)
        })
}

proptest! {
    /// Every generated stream satisfies the structural invariants the
    /// simulators rely on, for any spec and seed.
    #[test]
    fn generated_streams_are_well_formed(
        (spec, sites, db) in spec_strategy(),
        seed in 0u64..1_000,
    ) {
        let placement = if sites == 1 {
            Placement::SingleSite
        } else {
            Placement::FullyReplicated
        };
        let catalog = Catalog::new(db, sites, placement);
        let txns = Generator::new(&spec, &catalog).generate(seed);
        prop_assert_eq!(txns.len(), spec.txn_count as usize);

        let mut prev_arrival = None;
        for t in &txns {
            // Arrival order and id order agree.
            if let Some(p) = prev_arrival {
                prop_assert!(t.arrival >= p);
            }
            prev_arrival = Some(t.arrival);
            // Size bounds.
            let (lo, hi) = match spec.size {
                SizeDistribution::Fixed(n) => (n, n),
                SizeDistribution::Uniform { min, max } => (min, max),
            };
            prop_assert!((lo..=hi).contains(&(t.size() as u32)));
            // Sets are disjoint and in range (TxnSpec::new checks
            // disjointness; re-check range here).
            for o in t.read_set().iter().chain(t.write_set()) {
                prop_assert!(o.0 < db);
            }
            // Deadline rule.
            prop_assert_eq!(
                t.deadline.since(t.arrival),
                spec.deadline.offset(t.size() as u32)
            );
            // Placement restriction 2: writes are primary at home.
            if t.kind() == TxnKind::Update {
                for &w in t.write_set() {
                    prop_assert_eq!(catalog.primary_site(w), t.home_site);
                }
                prop_assert!(!t.write_set().is_empty());
            }
            prop_assert!(t.home_site.0 < sites);
        }
    }

    /// The generator is a pure function of (spec, catalog, seed).
    #[test]
    fn generation_is_deterministic(
        (spec, sites, db) in spec_strategy(),
        seed in 0u64..1_000,
    ) {
        let placement = if sites == 1 {
            Placement::SingleSite
        } else {
            Placement::FullyReplicated
        };
        let catalog = Catalog::new(db, sites, placement);
        let a = Generator::new(&spec, &catalog).generate(seed);
        let b = Generator::new(&spec, &catalog).generate(seed);
        prop_assert_eq!(a, b);
    }
}
