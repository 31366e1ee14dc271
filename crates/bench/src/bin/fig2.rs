//! Figure 2 — Transaction Throughput (single site).
//!
//! Normalised throughput (data objects accessed per second by successful
//! transactions) versus transaction size, for the priority ceiling
//! protocol (C), two-phase locking with priority (P) and two-phase
//! locking without priority (L).
//!
//! Expected shape (paper §3.3): C stays roughly flat across sizes; P and
//! L degrade rapidly as the transaction size (and with it the conflict
//! and deadlock rate) grows.

use monitor::csv::Table;
use monitor::plot::{render, Series};
use rtlock_bench::experiment::{print_table, Fields};
use rtlock_bench::harness::SweepResults;
use rtlock_bench::params;
use rtlock_bench::single_site::{figure_experiment, figure_protocols, figure_setting, size_label};

fn main() {
    let title = "Figure 2: Transaction Throughput (single site)";
    figure_experiment("fig2", title, report).run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let protocols = figure_protocols();
    let throughput = |p, size| swept.point(&size_label(p, size)).throughput();
    let mut table = Table::new(vec![
        "size".into(),
        "C_throughput".into(),
        "P_throughput".into(),
        "L_throughput".into(),
        "C_ci95".into(),
        "P_ci95".into(),
        "L_ci95".into(),
    ]);
    for &size in &params::SIZES {
        let row = protocols.map(|p| throughput(p, size));
        table.push_row(vec![
            size as f64,
            row[0].mean,
            row[1].mean,
            row[2].mean,
            row[0].ci95,
            row[1].ci95,
            row[2].ci95,
        ]);
    }
    println!("Figure 2: Transaction Throughput (objects/second, committed transactions)");
    println!("{}", figure_setting());
    let series: Vec<Series> = protocols
        .iter()
        .map(|&p| {
            let points = params::SIZES.map(|size| (size as f64, throughput(p, size).mean));
            Series::new(p.label().to_string(), points.to_vec())
        })
        .collect();
    print_table(&table, Some(render(&series, 60, 16)));
    Fields::new()
}
