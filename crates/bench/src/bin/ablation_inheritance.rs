//! Ablation A2/A4 — basic priority inheritance versus the full ceiling
//! protocol, and priority versus FIFO wait queues.
//!
//! §3.1 argues inheritance alone leaves chained blocking and deadlocks;
//! this study quantifies the gap by running the inheritance protocol
//! between the paper's "P" and "C" under the canonical (no-restart)
//! deadlock handling.

use monitor::csv::Table;
use rtlock::ProtocolKind;
use rtlock_bench::ablation::{case_label, declare_case, AblationCase};
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const SIZES: [u32; 5] = [4, 8, 12, 16, 20];
const CONFIGS: [(&str, ProtocolKind); 4] = [
    ("C", ProtocolKind::PriorityCeiling),
    ("I", ProtocolKind::PriorityInheritance),
    ("P", ProtocolKind::TwoPhaseLockingPriority),
    ("L", ProtocolKind::TwoPhaseLocking),
];

fn main() {
    let mut sweep = Sweep::new();
    for size in SIZES {
        for (label, kind) in CONFIGS {
            let (txns, seeds) = (params::TXNS_PER_RUN, params::SEEDS);
            let case = AblationCase::canonical(kind);
            declare_case(&mut sweep, label, case, size, txns, seeds);
        }
    }
    Experiment {
        name: "ablation_inheritance",
        title: "Ablation A2: protocol ladder (C/I/P/L)",
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
    columns.extend(CONFIGS.map(|(label, _)| format!("{label}_deadlocks")));
    let mut table = Table::new(columns);
    for size in SIZES {
        let points = CONFIGS.map(|(label, _)| swept.point(&case_label(label, size)));
        let mut row = vec![size as f64];
        row.extend(points.map(|p| p.pct_missed().mean));
        row.extend(points.map(|p| p.deadlocks().mean));
        table.push_row(row);
    }
    println!("Ablation A2: %missed and deadlocks across the protocol ladder");
    print_table(&table, None);
    Fields::new()
}
