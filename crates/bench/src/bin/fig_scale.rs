//! Scale stress sweep for the event core: single-site runs far beyond the
//! paper's workload sizes, up to 10⁶ transactions over a 10⁵-object
//! database in one simulation, reporting raw simulator throughput
//! (kernel events per wall-clock second).
//!
//! Unlike `fig2`…`fig6` this binary measures the *simulator*, not the
//! protocols: the figures it feeds are BENCH_SWEEP.json throughput
//! entries. `scripts/perf_smoke.sh` runs its smoke mode under the oracle;
//! the script's events/sec gates are on `all_figures` and the full
//! `fig_temporal` sweep.
//!
//! Usage: `fig_scale [--smoke] [--check] [--trace <path>] [--profile…]`
//!
//! `--smoke` runs only the smallest scale and writes no artifacts — the
//! CI configuration, fast enough for every push. `--check` streams every
//! run through the online invariant oracle as usual.

use std::time::Instant;

use rtlock::ProtocolKind;
use rtlock_bench::experiment::{Experiment, Fields};
use rtlock_bench::harness::{execute, RunSpec, SimSpec, SingleSiteSpec, Sweep, SweepResults};
use rtlock_bench::observe::contention_summary;
use rtlock_bench::params;
use rtlock_bench::results::Json;

/// Objects in the stress database: 500× the paper's `DB_SIZE`.
const SCALE_DB_SIZE: u32 = 100_000;

/// Accesses per transaction. Matches the distributed experiments' mean
/// size; with 10⁵ objects the data contention is low, so the sweep
/// measures event-core throughput rather than protocol blocking.
const SCALE_TXN_SIZE: u32 = 8;

/// Hot objects shown in each per-point contention summary line.
const HOT_OBJECTS: usize = 3;

/// The scales swept; `--smoke` runs only the first.
const SCALES: [u32; 3] = [10_000, 100_000, 1_000_000];

fn scale_run(txns: u32) -> RunSpec {
    let spec = SingleSiteSpec {
        db_size: SCALE_DB_SIZE,
        ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, SCALE_TXN_SIZE, txns)
    };
    RunSpec {
        label: format!("scale/txns={txns}"),
        seed: 0,
        sim: SimSpec::SingleSite(spec),
    }
}

/// The recorded sweep: every scale as one harness sweep, so the
/// BENCH_SWEEP.json entry carries the aggregate events/sec the same way
/// the all_figures entry does.
fn sweep(scales: &[u32]) -> Sweep {
    let mut sweep = Sweep::new();
    for &txns in scales {
        let run = scale_run(txns);
        sweep.point(run.label, 1, run.sim);
    }
    sweep
}

fn main() {
    Experiment {
        name: "fig_scale",
        title: "Event-core scale sweep to 1M transactions over 100k objects",
        parameters: vec![
            ("db_size", SCALE_DB_SIZE.into()),
            ("txn_size", SCALE_TXN_SIZE.into()),
            (
                "interarrival_ticks",
                params::interarrival_for(SCALE_TXN_SIZE).ticks().into(),
            ),
        ],
        sweep: sweep(&SCALES),
        smoke: Some(sweep(&SCALES[..1])),
        bench_record: true,
        report,
    }
    .run();
}

/// Per-scale detail: one seed per point, timed individually so the table
/// shows how events/sec holds up as the working set grows from paper
/// scale to 10⁶ transactions; then the sweep's aggregate.
fn report(swept: &SweepResults, smoke: bool) -> Fields {
    println!("== event-core scale sweep (db = {SCALE_DB_SIZE} objects) ==");
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>14}",
        "txns", "events", "commits", "%missed", "events/sec"
    );
    let mut contention = Vec::new();
    for &txns in if smoke { &SCALES[..1] } else { &SCALES[..] } {
        let spec = scale_run(txns);
        let t0 = Instant::now();
        let m = execute(&spec);
        let wall = t0.elapsed().as_secs_f64();
        let eps = m.events as f64 / wall;
        println!(
            "{:>10} {:>12} {:>10} {:>10.2} {:>14.0}",
            txns, m.events, m.committed, m.pct_missed, eps
        );
        assert_eq!(
            m.in_progress, 0,
            "scale run must drain completely ({} transactions still active)",
            m.in_progress
        );
        // Separate profiled re-run: the timed run above stays on NullSink
        // so events/sec measures the untraced core.
        let window = monitor::timeseries::DEFAULT_WINDOW_TICKS;
        let (report, peak_miss) = contention_summary(&spec, window, HOT_OBJECTS);
        println!(
            "{:>10} contention: hot {} | {} episodes, {} blocked ticks, peak window miss {:.2}%",
            "",
            report.hot_objects_line(HOT_OBJECTS),
            report.episodes,
            report.total_blocked_ticks,
            100.0 * peak_miss,
        );
        contention.push(Json::object([
            ("point", spec.label.clone().into()),
            ("hot_objects", report.hot_objects_line(HOT_OBJECTS).into()),
            ("episodes", report.episodes.into()),
            ("blocked_ticks", report.total_blocked_ticks.into()),
            ("contended_objects", report.contended_objects.into()),
            ("peak_window_miss_rate", peak_miss.into()),
        ]));
    }
    println!(
        "sweep: {} runs, {} events, {:.2}M events/sec aggregate",
        swept.run_count(),
        swept.event_count(),
        swept.events_per_sec() / 1e6,
    );
    vec![("contention", Json::Array(contention))]
}
