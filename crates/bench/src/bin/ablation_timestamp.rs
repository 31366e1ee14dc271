//! Extension study E1 — timestamp ordering versus locking.
//!
//! The prototyping environment's concurrency-control menu offers
//! timestamp ordering alongside locking; this study places basic T/O on
//! the Figure 2/3 axes next to the ceiling protocol and priority 2PL.
//! T/O never blocks or deadlocks but pays restarts on every out-of-order
//! access, which grow with the conflict rate.

use monitor::csv::Table;
use rtlock::ProtocolKind;
use rtlock_bench::ablation::{case_label, declare_case, AblationCase};
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const SIZES: [u32; 5] = [4, 8, 12, 16, 20];
const CONFIGS: [(&str, ProtocolKind); 3] = [
    ("C", ProtocolKind::PriorityCeiling),
    ("P", ProtocolKind::TwoPhaseLockingPriority),
    ("T", ProtocolKind::TimestampOrdering),
];

fn main() {
    let mut sweep = Sweep::new();
    for size in SIZES {
        for (label, kind) in CONFIGS {
            // T/O victims must restart (a rejection is not a deadline
            // miss); locking runs the canonical no-restart policy.
            let case = AblationCase {
                restart_victims: kind == ProtocolKind::TimestampOrdering,
                ..AblationCase::canonical(kind)
            };
            let (txns, seeds) = (params::TXNS_PER_RUN, params::SEEDS);
            declare_case(&mut sweep, label, case, size, txns, seeds);
        }
    }
    Experiment {
        name: "ablation_timestamp",
        title: "Extension E1: timestamp ordering vs locking",
        parameters: vec![
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("sizes", Json::array(SIZES)),
            ("protocols", Json::array(CONFIGS.map(|(l, _)| l))),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut columns = vec!["size".to_string()];
    columns.extend(CONFIGS.map(|(label, _)| format!("{label}_pct_missed")));
    columns.push("T_rejections".into());
    let mut table = Table::new(columns);
    for size in SIZES {
        let points = CONFIGS.map(|(label, _)| swept.point(&case_label(label, size)));
        let mut row = vec![size as f64];
        row.extend(points.map(|p| p.pct_missed().mean));
        // T/O reports its rejections as deadlocks.
        row.push(points[2].deadlocks().mean);
        table.push_row(row);
    }
    println!("Extension E1: timestamp ordering vs locking (all-update mix)");
    print_table(&table, None);
    Fields::new()
}
