//! Extension study E4 — locking granularity.
//!
//! The prototyping environment's database configuration includes
//! "granularity"; this study locks blocks of consecutive objects instead
//! of individual objects and measures the false-conflict cost for the
//! ceiling protocol and priority 2PL.

use monitor::csv::Table;
use rtlock::ProtocolKind;
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{SimSpec, SingleSiteSpec, Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const SIZE: u32 = 8;
const GRANULARITIES: [u32; 5] = [1, 2, 5, 10, 25];
const PROTOCOLS: [ProtocolKind; 2] = [
    ProtocolKind::PriorityCeiling,
    ProtocolKind::TwoPhaseLockingPriority,
];

fn label(kind: ProtocolKind, g: u32) -> String {
    format!("{}/granularity={g}", kind.label())
}

fn main() {
    let mut sweep = Sweep::new();
    for g in GRANULARITIES {
        for kind in PROTOCOLS {
            let spec = SingleSiteSpec {
                lock_granularity: g,
                ..SingleSiteSpec::figure(kind, SIZE, params::TXNS_PER_RUN)
            };
            sweep.point(label(kind, g), params::SEEDS, SimSpec::SingleSite(spec));
        }
    }
    Experiment {
        name: "ablation_granularity",
        title: "Extension E4: locking granularity",
        parameters: vec![
            ("size", SIZE.into()),
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("granularities", Json::array(GRANULARITIES)),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut columns = vec!["granularity".to_string()];
    for p in PROTOCOLS {
        columns.push(format!("{}_pct_missed", p.label()));
        columns.push(format!("{}_blocked_ms", p.label()));
    }
    columns.push("P_deadlocks".into());
    let mut table = Table::new(columns);
    for g in GRANULARITIES {
        let mut row = vec![g as f64];
        for kind in PROTOCOLS {
            let point = swept.point(&label(kind, g));
            row.push(point.pct_missed().mean);
            row.push(point.mean_blocked_ticks().mean / 1_000.0);
        }
        let p = ProtocolKind::TwoPhaseLockingPriority;
        row.push(swept.point(&label(p, g)).deadlocks().mean);
        table.push_row(row);
    }
    println!("Extension E4: locking granularity (size {SIZE}, all-update mix)");
    print_table(&table, None);
    Fields::new()
}
