//! Figure 5 — Deadline Missing Ratio (distributed).
//!
//! Ratio of the global-ceiling %missed to the local-ceiling %missed
//! versus the communication delay, at the 50/50 read-only/update mix.
//!
//! Expected shape (paper §4): rises rapidly over small delays (up to ~2
//! time units), then more slowly, exceeding ~16× at large delays.

use monitor::csv::Table;
use monitor::plot::{render, Series};
use rtlock_bench::distributed::{pair_experiment, pair_from, pair_setting, safe_ratio};
use rtlock_bench::experiment::{print_table, Fields};
use rtlock_bench::harness::SweepResults;
use rtlock_bench::results::Json;

const DELAYS: [u32; 7] = [0, 1, 2, 3, 4, 6, 8];

fn main() {
    let parameters = vec![
        ("read_only_fraction", 0.5.into()),
        ("delay_units", Json::array(DELAYS)),
    ];
    let title = "Figure 5: Deadline Missing Ratio (distributed)";
    pair_experiment("fig5", title, &[0.5], &DELAYS, parameters, report).run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut table = Table::new(vec![
        "delay_units".into(),
        "global_pct_missed".into(),
        "local_pct_missed".into(),
        "miss_ratio".into(),
    ]);
    let mut ratio_points = Vec::new();
    for &d in &DELAYS {
        let (local, global) = pair_from(swept, 0.5, d);
        let (local, global) = (local.pct_missed().mean, global.pct_missed().mean);
        // Guard the ratio against a (near-)zero local miss rate; 0.25 %
        // (roughly one transaction per run) is the measurement floor.
        let r = safe_ratio(global, local, 0.25);
        ratio_points.push((d as f64, r));
        table.push_row(vec![d as f64, global, local, r]);
    }
    println!("Figure 5: Deadline Missing Ratio (global / local), 50% read-only mix");
    println!("{}", pair_setting(""));
    let plot = render(&[Series::new("R (miss ratio)", ratio_points)], 60, 14);
    print_table(&table, Some(plot));
    Fields::new()
}
