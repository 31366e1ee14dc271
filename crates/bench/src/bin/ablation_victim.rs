//! Ablation A3 — deadlock victim selection and restart economics for
//! two-phase locking with priority ("P").
//!
//! Compares aborting the lowest-priority member of the cycle against the
//! youngest, and restarting victims against aborting them outright.
//! Transaction sizes vary around the mean so deadline order differs from
//! arrival order (with fixed sizes the two victim policies coincide).

use monitor::csv::Table;
use rtlock::{ProtocolKind, VictimPolicy};
use rtlock_bench::ablation::{case_label, declare_case, AblationCase};
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const SIZES: [u32; 4] = [8, 12, 16, 20];
const CASES: [(&str, VictimPolicy, bool); 4] = [
    ("lowest_abort", VictimPolicy::LowestPriority, false),
    ("youngest_abort", VictimPolicy::Youngest, false),
    ("lowest_restart", VictimPolicy::LowestPriority, true),
    ("youngest_restart", VictimPolicy::Youngest, true),
];

fn main() {
    let mut sweep = Sweep::new();
    for size in SIZES {
        for (label, victim_policy, restart_victims) in CASES {
            let case = AblationCase {
                protocol: ProtocolKind::TwoPhaseLockingPriority,
                victim_policy,
                restart_victims,
                read_only_fraction: 0.0,
            };
            let (txns, seeds) = (params::TXNS_PER_RUN, params::SEEDS);
            declare_case(&mut sweep, label, case, size, txns, seeds);
        }
    }
    Experiment {
        name: "ablation_victim",
        title: "Ablation A3: deadlock victim policy and restart economics",
        parameters: vec![
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("sizes", Json::array(SIZES)),
            ("cases", Json::array(CASES.map(|(l, _, _)| l))),
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
    columns.extend(CASES.map(|(label, _, _)| format!("{label}_pct_missed")));
    let mut table = Table::new(columns);
    for size in SIZES {
        let mut row = vec![size as f64];
        row.extend(
            CASES.map(|(label, _, _)| swept.point(&case_label(label, size)).pct_missed().mean),
        );
        table.push_row(row);
    }
    println!("Ablation A3: deadlock victim policy and restart economics (protocol P)");
    print_table(&table, None);
    Fields::new()
}
