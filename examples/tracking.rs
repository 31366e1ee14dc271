//! The paper's motivating application: distributed radar tracking.
//!
//! Three radar stations each maintain their own tracks (primary copies)
//! with periodic update transactions, while aperiodic queries read a
//! temporally consistent picture from their local replicas. The local
//! ceiling manager with replication keeps every site's critical path free
//! of network delays; committed track updates propagate asynchronously.
//!
//! ```sh
//! cargo run --release --example tracking
//! ```

use rtdb::ObjectId;
use rtlock::distributed::{CeilingArchitecture, DistributedConfig};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use workload::Generator;

fn main() {
    // 30 tracks per station, fully replicated across 3 stations.
    let sites = 3u8;
    let tracks_per_site = 30u32;
    let catalog = Catalog::new(
        tracks_per_site * sites as u32,
        sites,
        Placement::FullyReplicated,
    );

    // Each station refreshes five of its own tracks every scan (10 ms
    // period, deadline = period), for 50 scans.
    let mut builder = WorkloadSpec::builder()
        // A light aperiodic query stream on top of the periodic load.
        .txn_count(150)
        .mean_interarrival(SimDuration::from_ticks(4_000))
        .size(SizeDistribution::Uniform { min: 2, max: 5 })
        .read_only_fraction(1.0)
        .deadline(12.0, SimDuration::from_ticks(1_000));
    for s in 0..sites {
        // Station `s` owns objects with id % sites == s (round-robin
        // primaries); refresh its first five tracks each scan.
        let my_tracks: Vec<ObjectId> = (0..tracks_per_site * sites as u32)
            .map(ObjectId)
            .filter(|o| catalog.primary_site(*o) == SiteId(s))
            .take(5)
            .collect();
        builder = builder.periodic(PeriodicTask::new(
            SimDuration::from_millis(10),
            vec![],
            my_tracks,
            SiteId(s),
            50,
        ));
    }
    let workload = builder.build();

    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(500))
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .apply_cost(SimDuration::from_ticks(100))
        .build();

    // The oracle checks serialisability as the run goes.
    let txns = Generator::new(&workload, &catalog).generate(7);
    let report = run_checked(config, &catalog, txns).report;

    println!("tracking scenario : 3 stations, periodic track updates + queries");
    println!("processed         : {}", report.stats.processed);
    println!("committed         : {}", report.stats.committed);
    println!(
        "deadline missed   : {} ({:.1} %)",
        report.stats.missed, report.stats.pct_missed
    );
    println!(
        "update messages   : {} across the network",
        report.remote_messages
    );

    // Every station converged to the same track picture once propagation
    // drained (single-writer per track guarantees this).
    let reference = &report.stores[0];
    for (i, store) in report.stores.iter().enumerate() {
        let lagging = reference
            .iter()
            .filter(|(id, obj)| store.read(*id).version != obj.version)
            .count();
        println!("station {i}        : {lagging} tracks differ from station 0");
    }
    println!("serialisability   : verified");
}
