//! Figure 4 — Transaction Throughput Ratio (distributed).
//!
//! Ratio of the local-ceiling-with-replication throughput to the
//! global-ceiling-manager throughput versus the transaction mix
//! (fraction of read-only transactions), one curve per communication
//! delay.
//!
//! Expected shape (paper §4): between ~1.5× and ~3× even at zero
//! communication delay (the decoupling effect of replication), growing
//! with the delay.

use monitor::ci::ratio;
use monitor::csv::Table;
use rtlock_bench::distributed::{pair_experiment, pair_from, pair_setting, MIXES};
use rtlock_bench::experiment::{print_table, Fields};
use rtlock_bench::harness::SweepResults;
use rtlock_bench::params;
use rtlock_bench::results::Json;

const DELAYS: [u32; 3] = [0, 2, 4];

fn main() {
    let parameters = vec![
        ("mixes", Json::array(MIXES)),
        ("delay_units", Json::array(DELAYS)),
    ];
    let title = "Figure 4: Transaction Throughput Ratio (distributed)";
    pair_experiment("fig4", title, &MIXES, &DELAYS, parameters, report).run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut table = Table::new(
        std::iter::once("pct_read_only".to_string())
            .chain(DELAYS.iter().map(|d| format!("ratio_delay_{d}")))
            .collect(),
    );
    for &mix in &MIXES {
        let mut row = vec![mix * 100.0];
        for &d in &DELAYS {
            let (local, global) = pair_from(swept, mix, d);
            row.push(ratio(&local.throughput(), &global.throughput()).mean);
        }
        table.push_row(row);
    }
    println!("Figure 4: Throughput Ratio (local ceiling / global ceiling)");
    let unit = params::TIME_UNIT.ticks();
    println!(
        "{}",
        pair_setting(&format!(", delays in time units of {unit} ticks"))
    );
    print_table(&table, None);
    Fields::new()
}
