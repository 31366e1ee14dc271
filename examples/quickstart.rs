//! Quickstart: run one single-site real-time database simulation under
//! the priority ceiling protocol and print the paper's headline metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn main() {
    // A 200-object database at one site (the paper's §3 setting).
    let catalog = Catalog::new(200, 1, Placement::SingleSite);

    // Heavy load: 400 update transactions of 8 objects each, arriving so
    // that the CPU runs at ~70 % utilisation; deadlines are proportional
    // to transaction size and the earliest deadline gets the highest
    // priority.
    let workload = WorkloadSpec::builder()
        .txn_count(400)
        .mean_interarrival(SimDuration::from_ticks(8_000_000 / 700))
        .size(SizeDistribution::Fixed(8))
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build();

    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::PriorityCeiling)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();

    // Run under the invariant oracle, which checks conflict
    // serialisability (and every other protocol invariant) as it goes.
    let txns = Generator::new(&workload, &catalog).generate(42);
    let run = run_checked(config, &catalog, txns);
    run.check_store_integrity();
    let report = &run.report;

    println!("protocol          : priority ceiling (the paper's `C`)");
    println!("processed         : {}", report.stats.processed);
    println!("committed         : {}", report.stats.committed);
    println!(
        "deadline missed   : {} ({:.1} %)",
        report.stats.missed, report.stats.pct_missed
    );
    println!(
        "throughput        : {:.0} objects/second",
        report.stats.throughput
    );
    println!(
        "mean response     : {:.1} ms",
        report.stats.mean_response_ticks / 1_000.0
    );
    println!(
        "mean blocked      : {:.1} ms",
        report.stats.mean_blocked_ticks / 1_000.0
    );
    println!("ceiling blocks    : {}", report.ceiling_blocks);
    println!(
        "deadlocks         : {} (the ceiling protocol never deadlocks)",
        report.deadlocks
    );
    println!("serialisability   : verified");
}
