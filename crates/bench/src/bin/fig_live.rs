//! Live-backend sweep: the four locking protocols executed by real OS
//! worker threads against wall-clock deadlines (`rtlock-live`), swept
//! over thread counts, with every run's event stream replayable
//! through the invariant oracle.
//!
//! A second, uncontended point isolates the live lock path: one worker
//! per protocol, 10⁵ objects, 32-object transactions and no busy work, so
//! only lock-manager calls, uncontended latches and event recording
//! remain. Its `overhead_ops_per_sec` (committed ÷ wall over the four
//! protocols) is the speed of the live lock path in one number.
//!
//! Unlike `fig2`…`fig6` the numbers here are *real* — ops per
//! wall-clock second, actual blocked-time percentiles in microseconds —
//! so they vary between hosts and are recorded the way wall clock is:
//! the committed `results/fig_live.json` captures one reference host and
//! the perf-smoke parity diff never includes it (smoke mode writes no
//! artifacts at all).
//!
//! Usage: `fig_live [--smoke] [--check] [--compare]`
//!
//! `--smoke` runs a reduced grid (the overhead point at 120
//! transactions) and writes nothing — the CI configuration. `--check`
//! replays every run's event stream through `monitor::CheckSink` under
//! `CheckConfig::live` and exits nonzero on any violation. `--compare`
//! adds the simulated counterpart of each protocol at the same
//! transaction count for a side-by-side table.

use std::process::ExitCode;
use std::time::Instant;

use monitor::{CheckConfig, CheckSink, ContentionProfiler};
use rtlock_bench::cli::Command;
use rtlock_bench::harness::{RunSpec, SimSpec, SingleSiteSpec};
use rtlock_bench::results::{self, Json};
use rtlock_live::{run_live, LiveConfig, LiveProtocol, LiveReport};
use starlite::EventSink;

/// Hot objects shown in each per-run contention summary line.
const HOT_OBJECTS: usize = 3;

/// Replays the run's events through the oracle; returns the number of
/// violations after printing each one.
fn oracle_violations(report: &LiveReport, ceiling: bool) -> usize {
    let mut sink = CheckSink::new(CheckConfig::live(ceiling));
    for (at, event) in &report.events {
        sink.emit(*at, *event);
    }
    let violations = sink.finish();
    for v in &violations {
        eprintln!("VIOLATION [{} t{}]: {v}", report.protocol, report.threads);
    }
    violations.len()
}

/// Replays the run's events through the contention profiler and prints
/// the one-line hot-object summary.
fn profile(report: &LiveReport) -> Json {
    let mut profiler = ContentionProfiler::new();
    for (at, event) in &report.events {
        profiler.emit(*at, *event);
    }
    let summary = profiler.finish(HOT_OBJECTS);
    println!(
        "{:>6} contention: hot {} | {} episodes, {} blocked µs",
        "",
        summary.hot_objects_line(HOT_OBJECTS),
        summary.episodes,
        summary.total_blocked_ticks,
    );
    Json::object([
        ("hot_objects", summary.hot_objects_line(HOT_OBJECTS).into()),
        ("episodes", summary.episodes.into()),
        ("blocked_us", summary.total_blocked_ticks.into()),
        ("contended_objects", summary.contended_objects.into()),
    ])
}

fn point_json(report: &LiveReport, contention: Json) -> Json {
    Json::object([
        ("protocol", report.protocol.into()),
        ("threads", (report.threads as u32).into()),
        ("processed", report.processed.into()),
        ("committed", report.committed.into()),
        ("missed", report.missed.into()),
        ("pct_missed", report.pct_missed().into()),
        ("restarts", report.restarts.into()),
        ("deadlocks", report.deadlocks.into()),
        ("ceiling_blocks", report.ceiling_blocks.into()),
        ("events", (report.events.len() as u64).into()),
        ("blocked_p50_us", report.blocked_hist.percentile(50).into()),
        ("blocked_p95_us", report.blocked_hist.percentile(95).into()),
        ("blocked_p99_us", report.blocked_hist.percentile(99).into()),
        ("ops_per_sec", report.ops_per_sec().into()),
        ("wall_clock_seconds", report.wall.as_secs_f64().into()),
        ("contention", contention),
    ])
}

/// The uncontended overhead point of `protocol`: the shape of the
/// benchmark's `live-overhead` workload.
fn overhead_config(protocol: LiveProtocol, smoke: bool) -> LiveConfig {
    LiveConfig {
        txn_count: if smoke { 120 } else { 1_800 },
        db_size: 100_000,
        txn_size: 32,
        hold_us: 0,
        ..LiveConfig::new(protocol, 1)
    }
}

/// Runs one live configuration: prints its table row, asserts the run's
/// own witnesses, replays the oracle when `check` is set (adding to
/// `violations`) and profiles contention.
fn run_point(config: &LiveConfig, check: bool, violations: &mut usize) -> (LiveReport, Json) {
    let report = run_live(config);
    println!(
        "{:>6} {:>8} {:>9} {:>7} {:>8.2} {:>9} {:>10} {:>12} {:>12} {:>10.0}",
        report.protocol,
        report.threads,
        report.committed,
        report.missed,
        report.pct_missed(),
        report.restarts,
        report.deadlocks,
        report.blocked_hist.percentile(95),
        report.blocked_hist.percentile(99),
        report.ops_per_sec(),
    );
    assert_eq!(
        report.processed, config.txn_count,
        "live run must process every transaction"
    );
    assert!(
        report.store_consistent,
        "shared store lost updates — write-lock exclusivity broke"
    );
    if config.protocol.is_ceiling() {
        assert_eq!(
            report.deadlocks, 0,
            "ceiling admission must be deadlock-free"
        );
    }
    if check {
        *violations += oracle_violations(&report, config.protocol.is_ceiling());
    }
    let contention = profile(&report);
    let point = point_json(&report, contention);
    (report, point)
}

/// The simulated counterpart of one live protocol at the same shape, for
/// the `--compare` table.
fn compare_row(protocol: LiveProtocol, config: &LiveConfig) {
    let spec = RunSpec {
        label: format!("sim/{}", protocol.name()),
        seed: config.seed,
        sim: SimSpec::SingleSite(SingleSiteSpec::figure(
            protocol.sim_kind(),
            config.txn_size,
            config.txn_count,
        )),
    };
    let m = rtlock_bench::harness::execute(&spec);
    println!(
        "{:>6} {:>8} {:>9} {:>7} {:>8.2} {:>9} {:>10} {:>12} {:>12}",
        protocol.name(),
        "sim",
        m.committed,
        m.missed,
        m.pct_missed,
        m.restarts,
        m.deadlocks,
        m.blocked_hist.percentile(95),
        m.blocked_hist.percentile(99),
    );
}

fn main() -> ExitCode {
    let args = Command {
        name: "fig_live",
        smoke: true,
        compare: true,
        ..Command::default()
    }
    .args();
    let (smoke, check, compare) = (args.smoke, args.check, args.compare);

    let thread_counts: &[usize] = if smoke { &[4] } else { &[2, 4, 8] };
    let make = |protocol, threads| {
        if smoke {
            LiveConfig::smoke(protocol, threads)
        } else {
            LiveConfig::new(protocol, threads)
        }
    };

    let header = || {
        println!(
            "{:>6} {:>8} {:>9} {:>7} {:>8} {:>9} {:>10} {:>12} {:>12} {:>10}",
            "proto",
            "threads",
            "commits",
            "missed",
            "%missed",
            "restarts",
            "deadlocks",
            "blocked_p95",
            "blocked_p99",
            "ops/sec"
        );
    };
    println!("== live backend sweep (real threads, wall-clock deadlines) ==");
    header();

    let started = Instant::now();
    let mut points = Vec::new();
    let mut violations = 0usize;
    let mut max_threads = 0usize;
    let mut best_ops = 0.0f64;
    for protocol in LiveProtocol::all() {
        for &threads in thread_counts {
            let (report, point) = run_point(&make(protocol, threads), check, &mut violations);
            max_threads = max_threads.max(threads);
            best_ops = best_ops.max(report.ops_per_sec());
            points.push(point);
        }
    }

    println!(
        "\n== uncontended lock path (1 worker, 10^5 objects, 32-object txns, no busy work) =="
    );
    header();
    let mut overhead_points = Vec::new();
    let (mut overhead_committed, mut overhead_wall) = (0u64, 0.0f64);
    for protocol in LiveProtocol::all() {
        let (report, point) = run_point(&overhead_config(protocol, smoke), check, &mut violations);
        overhead_committed += u64::from(report.committed);
        overhead_wall += report.wall.as_secs_f64();
        overhead_points.push(point);
    }
    let overhead_ops = overhead_committed as f64 / overhead_wall;
    println!("overhead: {overhead_ops:.0} committed txns/sec over the four protocols");
    let wall = started.elapsed().as_secs_f64();

    if check {
        if violations > 0 {
            eprintln!("oracle: {violations} violation(s) across the live sweep");
            return ExitCode::FAILURE;
        }
        println!("oracle: all live runs clean under CheckConfig::live");
    }

    if compare {
        println!("\n== simulated counterparts (same protocol, size, txn count) ==");
        println!(
            "{:>6} {:>8} {:>9} {:>7} {:>8} {:>9} {:>10} {:>12} {:>12}",
            "proto",
            "backend",
            "commits",
            "missed",
            "%missed",
            "restarts",
            "deadlocks",
            "blocked_p95",
            "blocked_p99"
        );
        for protocol in LiveProtocol::all() {
            compare_row(protocol, &make(protocol, thread_counts[0]));
        }
        println!("(simulated blocked percentiles are in ticks; live ones in wall µs)");
    }

    if smoke {
        eprintln!("smoke mode: artifacts skipped");
        return ExitCode::SUCCESS;
    }

    let reference = make(LiveProtocol::TwoPhase, thread_counts[0]);
    let overhead = overhead_config(LiveProtocol::TwoPhase, smoke);
    let json = Json::object([
        (
            "experiment",
            "Live lock-manager backend: protocols on real threads vs wall-clock deadlines".into(),
        ),
        (
            "parameters",
            Json::object([
                ("txn_count", reference.txn_count.into()),
                ("db_size", reference.db_size.into()),
                ("txn_size", reference.txn_size.into()),
                ("slack_factor", reference.slack_factor.into()),
                ("per_object_cost_ticks", reference.per_object_cost.into()),
                ("hold_us", reference.hold_us.into()),
                ("seed", reference.seed.into()),
            ]),
        ),
        ("points", Json::Array(points)),
        (
            "overhead",
            Json::object([
                (
                    "parameters",
                    Json::object([
                        ("threads", (overhead.threads as u32).into()),
                        ("txn_count", overhead.txn_count.into()),
                        ("db_size", overhead.db_size.into()),
                        ("txn_size", overhead.txn_size.into()),
                        ("hold_us", overhead.hold_us.into()),
                        ("seed", overhead.seed.into()),
                    ]),
                ),
                ("points", Json::Array(overhead_points)),
                ("ops_per_sec", overhead_ops.into()),
            ]),
        ),
        ("wall_clock_seconds", wall.into()),
    ]);
    match results::write_json("fig_live", &json) {
        Ok(path) => eprintln!("results: {}", path.display()),
        Err(e) => eprintln!("warning: could not write results/fig_live.json: {e}"),
    }
    match results::record_wall_clock_entry(
        "fig_live",
        vec![
            (
                "runs".to_string(),
                ((LiveProtocol::all().len() * (thread_counts.len() + 1)) as u64).into(),
            ),
            ("workers".to_string(), (max_threads as u64).into()),
            ("wall_clock_seconds".to_string(), wall.into()),
            ("live_best_ops_per_sec".to_string(), best_ops.into()),
            ("overhead_ops_per_sec".to_string(), overhead_ops.into()),
        ],
    ) {
        Ok(path) => eprintln!("wall clock recorded: {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_SWEEP.json: {e}"),
    }
    ExitCode::SUCCESS
}
