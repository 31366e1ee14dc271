//! Overload dynamics over time: what happens when a burst of transactions
//! hits a loaded real-time database — the "crisis" situation the paper's
//! §3.3 argues protocols must be designed for ("when a crisis occurs and
//! the database system is under pressure it is precisely when making a
//! few extra deadlines could be most important").
//!
//! Runs the priority ceiling protocol and plain 2PL through the same
//! load ramp and plots per-window miss percentages over virtual time.
//!
//! ```sh
//! cargo run --release --example overload_study
//! ```

use monitor::plot::{render, Series};
use monitor::TimeSeriesSink;
use rtlock::prelude::*;

/// Width of one plotted window, in ticks (200 ms).
const WINDOW_TICKS: u64 = 200_000;

fn main() {
    let catalog = Catalog::new(120, 1, Placement::SingleSite);
    // A steady stream plus a mid-run burst: a second wave of transactions
    // with tight deadlines arrives in the middle third of the run.
    let steady = WorkloadSpec::builder()
        .txn_count(300)
        .mean_interarrival(SimDuration::from_ticks(16_000))
        .size(SizeDistribution::Fixed(8))
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build();

    let mut series = Vec::new();
    for kind in [ProtocolKind::PriorityCeiling, ProtocolKind::TwoPhaseLocking] {
        let config = SingleSiteConfig::builder()
            .protocol(kind)
            .cpu_per_object(SimDuration::from_ticks(1_000))
            .io_per_object(SimDuration::from_ticks(500))
            .restart_victims(false)
            .build();
        // Build the scenario by hand: the steady stream plus a burst.
        let cat = catalog.clone();
        let mut txns = workload::Generator::new(&steady, &cat).generate(3);
        let burst_base = txns.len() as u64;
        for i in 0..120u64 {
            let arrival = SimTime::from_ticks(1_500_000 + i * 2_500);
            txns.push(TxnSpec::new(
                TxnId(burst_base + i),
                arrival,
                vec![],
                (0..8u32)
                    .map(|k| ObjectId(((i as u32 * 13) + k * 7) % 120))
                    .collect(),
                arrival + SimDuration::from_ticks(45_000),
                SiteId(0),
            ));
        }
        let mut timeline = TimeSeriesSink::new(WINDOW_TICKS);
        let report = run_transactions_with(config, &cat, txns, &mut timeline);
        println!(
            "{:<24} committed={} missed={} ({:.1}%)",
            format!("{kind:?}"),
            report.stats.committed,
            report.stats.missed,
            report.stats.pct_missed
        );
        // Victims do not restart here, so a deadlock abort is as final as
        // a deadline miss: both count as lost.
        let miss_pct = timeline
            .windows()
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let lost = w.misses + w.restarts;
                let processed = w.commits + lost;
                let pct = if processed == 0 {
                    0.0
                } else {
                    100.0 * lost as f64 / processed as f64
                };
                (i as f64, pct)
            })
            .collect();
        series.push(Series::new(kind.label().to_string(), miss_pct));
    }

    println!("\n%missed per 200ms window (burst arrives around window 8):\n");
    print!("{}", render(&series, 60, 14));
    println!("\nThe ceiling protocol sheds the burst with fewer misses and");
    println!("recovers once it passes; 2PL's deadlock losses amplify the spike.");
}
