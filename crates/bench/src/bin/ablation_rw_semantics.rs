//! Ablation A1 — read/write versus exclusive lock semantics in the
//! priority ceiling protocol.
//!
//! The paper's conclusion raises the open question whether "the use of
//! read and write semantics of a lock may lead to worse performance in
//! terms of schedulability than the use of exclusive semantics". This
//! study runs both variants over a read-heavy mix, where the semantics
//! difference matters most.

use monitor::csv::Table;
use rtlock::ProtocolKind;
use rtlock_bench::ablation::{case_label, declare_case, AblationCase};
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const SIZES: [u32; 5] = [4, 8, 12, 16, 20];
const MIX: f64 = 0.6;

fn main() {
    let case = |protocol| AblationCase {
        read_only_fraction: MIX,
        ..AblationCase::canonical(protocol)
    };
    let mut sweep = Sweep::new();
    for size in SIZES {
        for (label, protocol) in [
            ("rw", ProtocolKind::PriorityCeiling),
            ("exclusive", ProtocolKind::PriorityCeilingExclusive),
        ] {
            let (txns, seeds) = (params::TXNS_PER_RUN, params::SEEDS);
            declare_case(&mut sweep, label, case(protocol), size, txns, seeds);
        }
    }
    Experiment {
        name: "ablation_rw_semantics",
        title: "Ablation A1: ceiling protocol lock semantics",
        parameters: vec![
            ("read_only_fraction", MIX.into()),
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("sizes", Json::array(SIZES)),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut table = Table::new(vec![
        "size".into(),
        "rw_throughput".into(),
        "excl_throughput".into(),
        "rw_pct_missed".into(),
        "excl_pct_missed".into(),
    ]);
    for size in SIZES {
        let rw = swept.point(&case_label("rw", size));
        let excl = swept.point(&case_label("exclusive", size));
        table.push_row(vec![
            size as f64,
            rw.throughput().mean,
            excl.throughput().mean,
            rw.pct_missed().mean,
            excl.pct_missed().mean,
        ]);
    }
    println!("Ablation A1: ceiling protocol lock semantics (60% read-only mix)");
    print_table(&table, None);
    Fields::new()
}
