//! Global versus local ceiling management across communication delays —
//! the §4 comparison, in miniature.
//!
//! ```sh
//! cargo run --release --example distributed_ceiling
//! ```

use rtlock::distributed::{CeilingArchitecture, DistributedConfig};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn main() {
    let catalog = Catalog::new(90, 3, Placement::FullyReplicated);
    let workload = WorkloadSpec::builder()
        .txn_count(300)
        .mean_interarrival(SimDuration::from_ticks(1_600))
        .size(SizeDistribution::Uniform { min: 2, max: 6 })
        .read_only_fraction(0.5)
        .write_fraction(0.5)
        .deadline(12.0, SimDuration::from_ticks(1_000))
        .build();

    println!(
        "{:>6} {:>8} {:>10} {:>9} {:>10}",
        "delay", "arch", "thrpt", "%missed", "messages"
    );
    for delay_ticks in [0u64, 500, 1_000, 2_000] {
        for arch in [
            CeilingArchitecture::LocalReplicated,
            CeilingArchitecture::GlobalManager,
        ] {
            let config = DistributedConfig::builder()
                .architecture(arch)
                .comm_delay(SimDuration::from_ticks(delay_ticks))
                .cpu_per_object(SimDuration::from_ticks(1_000))
                .apply_cost(SimDuration::from_ticks(100))
                .build();
            // The oracle checks per-copy serialisability as the run goes.
            let txns = Generator::new(&workload, &catalog).generate(11);
            let report = run_checked(config, &catalog, txns).report;
            println!(
                "{:>6} {:>8} {:>10.0} {:>9.1} {:>10}",
                delay_ticks,
                arch.label(),
                report.stats.throughput,
                report.stats.pct_missed,
                report.remote_messages
            );
        }
    }
    println!("\nlocal ceiling keeps the critical path free of the network;");
    println!("the global manager pays two messages per lock and 2PC at commit.");
}
