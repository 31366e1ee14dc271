//! Figure 3 — Percentage of Deadline Missing Transactions (single site).
//!
//! `%missed = 100 × missed / processed` versus transaction size for
//! protocols C, P and L.
//!
//! Expected shape (paper §3.3): the percentage rises sharply with size
//! for two-phase locking (deadlock probability grows ~size⁴) and slowly
//! for the priority ceiling protocol (deadlock-free, bounded blocking).

use monitor::csv::Table;
use monitor::plot::{render, Series};
use rtlock_bench::experiment::{print_table, Fields};
use rtlock_bench::harness::SweepResults;
use rtlock_bench::params;
use rtlock_bench::single_site::{figure_experiment, figure_protocols, figure_setting, size_label};

fn main() {
    let title = "Figure 3: Percentage of Deadline Missing Transactions";
    figure_experiment("fig3", title, report).run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let protocols = figure_protocols();
    let point = |p, size| swept.point(&size_label(p, size));
    let mut table = Table::new(vec![
        "size".into(),
        "C_pct_missed".into(),
        "P_pct_missed".into(),
        "L_pct_missed".into(),
        "P_deadlocks".into(),
        "L_deadlocks".into(),
    ]);
    for &size in &params::SIZES {
        let [c, p, l] = protocols.map(|p| point(p, size));
        table.push_row(vec![
            size as f64,
            c.pct_missed().mean,
            p.pct_missed().mean,
            l.pct_missed().mean,
            p.deadlocks().mean,
            l.deadlocks().mean,
        ]);
    }
    println!("Figure 3: Percentage of Deadline Missing Transactions");
    println!("{}", figure_setting());
    let series: Vec<Series> = protocols
        .iter()
        .map(|&p| {
            let points = params::SIZES.map(|size| (size as f64, point(p, size).pct_missed().mean));
            Series::new(p.label().to_string(), points.to_vec())
        })
        .collect();
    print_table(&table, Some(render(&series, 60, 16)));
    Fields::new()
}
