//! Extension study E2 — sensitivity to the parallel-I/O assumption.
//!
//! The paper's single-site experiments assume parallel I/O processing
//! ("the concurrency is fully achieved with an assumption of parallel I/O
//! processing"). This study bounds the number of I/O channels and shows
//! how the assumption shapes the protocols' relative standing.

use monitor::csv::Table;
use rtlock::ProtocolKind;
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{SimSpec, SingleSiteSpec, Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;
use starlite::SimDuration;

const SIZE: u32 = 12;
/// Heavier transfers than the calibrated figures, so channel count
/// matters: one 2000-tick channel cannot carry the offered object rate.
const IO_COST: SimDuration = SimDuration::from_ticks(2_000);
const CHANNELS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];
const PROTOCOLS: [ProtocolKind; 2] = [
    ProtocolKind::PriorityCeiling,
    ProtocolKind::TwoPhaseLockingPriority,
];

fn label(kind: ProtocolKind, ch: Option<usize>) -> String {
    format!("{}/channels={}", kind.label(), ch.map_or(0, |c| c))
}

fn main() {
    let per_object_cost = SimDuration::from_ticks(params::CPU_PER_OBJECT.ticks() + IO_COST.ticks());
    let mut sweep = Sweep::new();
    for ch in CHANNELS {
        for kind in PROTOCOLS {
            let spec = SingleSiteSpec {
                io_per_object: IO_COST,
                io_parallelism: ch,
                deadline_per_object: per_object_cost,
                ..SingleSiteSpec::figure(kind, SIZE, params::TXNS_PER_RUN)
            };
            sweep.point(label(kind, ch), params::SEEDS, SimSpec::SingleSite(spec));
        }
    }
    Experiment {
        name: "ablation_io",
        title: "Extension E2: I/O parallelism sensitivity",
        parameters: vec![
            ("size", SIZE.into()),
            ("io_cost_ticks", IO_COST.ticks().into()),
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            (
                "channels",
                Json::array(CHANNELS.map(|ch| ch.map_or(Json::Null, Json::from))),
            ),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut columns = vec!["io_channels".to_string()];
    for p in PROTOCOLS {
        columns.push(format!("{}_throughput", p.label()));
        columns.push(format!("{}_pct_missed", p.label()));
    }
    let mut table = Table::new(columns);
    for ch in CHANNELS {
        // 0 encodes "unbounded" in the printed table.
        let mut row = vec![ch.map_or(0.0, |c| c as f64)];
        for kind in PROTOCOLS {
            let point = swept.point(&label(kind, ch));
            row.push(point.throughput().mean);
            row.push(point.pct_missed().mean);
        }
        table.push_row(row);
    }
    println!("Extension E2: I/O parallelism sensitivity (size {SIZE}; 0 channels = unbounded)");
    print_table(&table, None);
    Fields::new()
}
