//! Compare every synchronisation protocol on the same workload — the
//! experiment style of the paper's §3.3, in miniature.
//!
//! ```sh
//! cargo run --release --example protocol_comparison
//! ```

use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn main() {
    let catalog = Catalog::new(200, 1, Placement::SingleSite);
    let size = 16u32;
    let workload = WorkloadSpec::builder()
        .txn_count(400)
        .mean_interarrival(SimDuration::from_ticks(
            (size as u64 * 1_000 * 10) / 7, // ~0.7 CPU utilisation
        ))
        .size(SizeDistribution::Fixed(size))
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build();

    println!(
        "{:<28} {:>10} {:>9} {:>10} {:>10}",
        "protocol", "thrpt", "%missed", "deadlocks", "blocked(ms)"
    );
    for kind in ProtocolKind::all() {
        let config = SingleSiteConfig::builder()
            .protocol(kind)
            .cpu_per_object(SimDuration::from_ticks(1_000))
            .io_per_object(SimDuration::from_ticks(500))
            .restart_victims(false)
            .build();
        // Average over a few seeds, as the paper averages over runs; the
        // oracle holds every protocol to serialisable histories.
        let seeds = 5;
        let (mut thr, mut miss, mut dl, mut blocked) = (0.0, 0.0, 0u64, 0.0);
        for seed in 0..seeds {
            let txns = Generator::new(&workload, &catalog).generate(seed);
            let report = run_checked(config, &catalog, txns).report;
            thr += report.stats.throughput;
            miss += report.stats.pct_missed;
            dl += report.deadlocks;
            blocked += report.stats.mean_blocked_ticks;
        }
        let n = seeds as f64;
        println!(
            "{:<28} {:>10.0} {:>9.2} {:>10.1} {:>10.2}",
            format!("{kind:?} ({})", kind.label()),
            thr / n,
            miss / n,
            dl as f64 / n,
            blocked / n / 1_000.0
        );
    }
}
