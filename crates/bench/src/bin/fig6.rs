//! Figure 6 — Deadline Missing Transaction Percentage (distributed).
//!
//! `%missed` versus transaction mix for the global and local approaches
//! at two communication delays.
//!
//! Expected shape (paper §4): both approaches miss fewer deadlines as the
//! read-only fraction grows (conflict rate falls); the gap between the
//! approaches widens with the communication delay.

use monitor::csv::Table;
use rtlock_bench::distributed::{pair_experiment, pair_from, pair_setting, MIXES};
use rtlock_bench::experiment::{print_table, Fields};
use rtlock_bench::harness::SweepResults;
use rtlock_bench::results::Json;

const DELAYS: [u32; 2] = [2, 6];

fn main() {
    let parameters = vec![
        ("mixes", Json::array(MIXES)),
        ("delay_units", Json::array(DELAYS)),
    ];
    let title = "Figure 6: Deadline Missing Transaction Percentage (distributed)";
    pair_experiment("fig6", title, &MIXES, &DELAYS, parameters, report).run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut columns = vec!["pct_read_only".to_string()];
    for &d in &DELAYS {
        columns.push(format!("global_d{d}"));
        columns.push(format!("local_d{d}"));
    }
    let mut table = Table::new(columns);
    for &mix in &MIXES {
        let mut row = vec![mix * 100.0];
        for &d in &DELAYS {
            let (local, global) = pair_from(swept, mix, d);
            row.push(global.pct_missed().mean);
            row.push(local.pct_missed().mean);
        }
        table.push_row(row);
    }
    println!("Figure 6: Deadline Missing Percentage vs Transaction Mix");
    println!("{}", pair_setting(", delays in time units"));
    print_table(&table, None);
    Fields::new()
}
