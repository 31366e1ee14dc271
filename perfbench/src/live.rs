//! Live workloads. The benchmark times its own calls into
//! `rtlock_live::run_live` and derives everything else from the
//! `LiveReport`, whose event stream carries wall-clock stamps in whole
//! microseconds.

use std::time::{Duration, Instant};

use monitor::{CheckConfig, SimEventKind};
use rtdb::{LockMode, ObjectId, TxnId};
use rtlock_live::{run_live, LiveConfig, LiveProtocol, LiveReport};
use starlite::EventSink;

use crate::heap;
use crate::metrics::{self, median, quantile_whole_us, ratio, Outcome, MIB};
use crate::observe::{Layers, Observer};
use crate::workloads::LiveShape;

/// One timed `run_live` call.
struct Run {
    report: LiveReport,
    /// The whole call: generation, the threaded section, merge and store
    /// check.
    call: Duration,
    /// When the call started.
    started: Instant,
}

impl Run {
    /// Time outside the threaded section.
    fn outside_wall(&self) -> Duration {
        self.call.saturating_sub(self.report.wall)
    }
}

/// What is kept of a run once its event stream has been consumed.
#[derive(Debug, Clone, Copy)]
struct Tally {
    protocol: &'static str,
    processed: u64,
    committed: u64,
    restarts: u64,
    lock_requests: u64,
    wall: Duration,
    outside_wall: Duration,
}

fn config(shape: LiveShape, protocol: LiveProtocol, threads: usize, seed: u64) -> LiveConfig {
    LiveConfig {
        txn_count: shape.txn_count,
        txn_size: shape.txn_size,
        db_size: shape.db_size,
        hold_us: shape.hold_us,
        seed,
        ..LiveConfig::new(protocol, threads)
    }
}

/// The workload seed of one round: the same `--seed` always yields the
/// same inputs.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(round)
}

/// Runs every live protocol once, checks each report and hands it to
/// `each` before dropping it, so only one run's events are in memory.
fn round(
    shape: LiveShape,
    threads: usize,
    seed: u64,
    out: &mut Outcome,
    mut each: impl FnMut(&Run, &mut Outcome),
) -> Vec<Tally> {
    LiveProtocol::all()
        .into_iter()
        .map(|protocol| {
            let config = config(shape, protocol, threads, seed);
            let started = Instant::now();
            let report = run_live(&config);
            let run = Run {
                call: started.elapsed(),
                report,
                started,
            };
            check(&config, &run.report, out);
            each(&run, out);
            Tally {
                protocol: run.report.protocol,
                processed: run.report.processed.into(),
                committed: run.report.committed.into(),
                restarts: run.report.restarts.into(),
                lock_requests: run
                    .report
                    .events
                    .iter()
                    .filter(|(_, e)| matches!(e.kind, SimEventKind::LockRequested { .. }))
                    .count() as u64,
                wall: run.report.wall,
                outside_wall: run.outside_wall(),
            }
        })
        .collect()
}

/// The output checks of one live run: every transaction processed, the
/// shared store consistent, and PCP deadlock-free. Missed deadlines count
/// as failed operations.
fn check(config: &LiveConfig, report: &LiveReport, out: &mut Outcome) {
    out.attempted += u64::from(config.txn_count);
    out.failed += u64::from(config.txn_count - report.committed.min(config.txn_count));
    let ok = report.processed == config.txn_count
        && report.store_consistent
        && (!config.protocol.is_ceiling() || report.deadlocks == 0);
    if !ok {
        eprintln!(
            "live {} run failed its output checks: processed {} of {}, store consistent {}, deadlocks {}",
            report.protocol,
            report.processed,
            config.txn_count,
            report.store_consistent,
            report.deadlocks
        );
        out.correct = false;
    }
}

/// Arrival-to-commit time of every committed transaction, in whole
/// microseconds.
fn latencies(report: &LiveReport, into: &mut Vec<u64>) {
    let mut arrived = Vec::new();
    for (at, event) in &report.events {
        match event.kind {
            SimEventKind::TxnArrived { txn, .. } => {
                let i = txn.0 as usize;
                if i >= arrived.len() {
                    arrived.resize(i + 1, None);
                }
                arrived[i] = Some(at.ticks());
            }
            SimEventKind::TxnCommitted { txn } => {
                let start = arrived[txn.0 as usize].expect("commit after arrival");
                into.push(at.ticks() - start);
            }
            _ => {}
        }
    }
}

/// Runs the unmeasured warm-up round (round 0) and returns the mean over
/// its protocol runs of each `run_live` call's peak heap growth.
fn warm_up(shape: LiveShape, seed: u64, out: &mut Outcome) -> f64 {
    let protocols = LiveProtocol::all();
    let mut heap = 0;
    for protocol in protocols {
        let config = config(shape, protocol, shape.threads, round_seed(seed, 0));
        let (report, peak) = heap::peak_during(|| run_live(&config));
        check(&config, &report, out);
        heap += peak;
    }
    heap as f64 / protocols.len() as f64
}

fn commits_per_s<'a>(runs: impl IntoIterator<Item = &'a Tally>) -> f64 {
    let (committed, wall) = runs.into_iter().fold((0, Duration::ZERO), |(c, w), t| {
        (c + t.committed, w + t.wall)
    });
    ratio(committed as f64, wall.as_secs_f64())
}

/// The timings of one measured round.
struct Round {
    outside_wall: Vec<f64>,
    commits_per_s: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
}

/// The untraced run: end-to-end metrics over the faster half of as many
/// rounds as fit in `budget` (at least one), after one unmeasured warm-up
/// round.
pub fn measure(shape: LiveShape, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::new();
    let heap = warm_up(shape, seed, &mut out);
    out.set("peak_heap_mib", heap / MIB);

    let mut rounds = Vec::new();
    let mut samples = 0;
    let start = Instant::now();
    while rounds.is_empty() || start.elapsed() < budget {
        let mut latency_us = Vec::new();
        let seed = round_seed(seed, rounds.len() as u64 + 1);
        let runs = round(shape, shape.threads, seed, &mut out, |run, _| {
            latencies(&run.report, &mut latency_us)
        });
        samples = latency_us.len();
        rounds.push(Round {
            outside_wall: runs.iter().map(|t| t.outside_wall.as_secs_f64()).collect(),
            commits_per_s: commits_per_s(&runs),
            latency_p50_us: quantile_whole_us(&mut latency_us, 0.50),
            latency_p99_us: quantile_whole_us(&mut latency_us, 0.99),
        });
    }
    let measured = rounds.len();
    let kept = metrics::faster_half(rounds, |r| r.commits_per_s);
    let of = |f: fn(&Round) -> f64| median(&kept.iter().map(f).collect::<Vec<_>>());
    let setup: Vec<f64> = kept
        .iter()
        .flat_map(|r| r.outside_wall.iter().copied())
        .collect();
    out.set("setup_s", median(&setup));
    out.set("txns_per_s", of(|r| r.commits_per_s));
    out.set("latency_p50_us", of(|r| r.latency_p50_us));
    out.set("latency_p99_us", of(|r| r.latency_p99_us));
    out.notes.push(format!(
        "{measured} measured rounds of {samples} latency samples, the faster {} kept",
        kept.len()
    ));
    out
}

/// The traced run: per-layer metrics from the rounds' event streams, each
/// replayed through the benchmark's sink (the oracle must find nothing),
/// plus one round at the other thread count for the lock-path cost and the
/// scaling.
pub fn trace(shape: LiveShape, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::new();
    warm_up(shape, seed, &mut out);

    let mut layers = Layers::default();
    let mut runs = Vec::new();
    let start = Instant::now();
    let mut r = 1;
    while r == 1 || start.elapsed() < budget {
        let round_span = out.spans.open("live.round", &format!("round {r}"), None);
        runs.extend(round(
            shape,
            shape.threads,
            round_seed(seed, r),
            &mut out,
            |run, out| {
                let protocol = run.report.protocol;
                let run_span = out.spans.push(
                    "live.run",
                    protocol,
                    Some(round_span),
                    run.started,
                    run.call,
                );
                out.spans.push(
                    "live.post_run",
                    protocol,
                    Some(run_span),
                    run.started,
                    run.outside_wall(),
                );
                let t = Instant::now();
                let ceiling = protocol == LiveProtocol::Ceiling.name();
                let mut observer = Observer::new(CheckConfig::live(ceiling));
                let mut sink = observer.sink();
                for (at, event) in &run.report.events {
                    sink.emit(*at, *event);
                }
                let check = observer.finish(protocol, &mut layers);
                out.spans
                    .push("monitor.check", protocol, Some(round_span), t, check);
            },
        ));
        out.spans.close(round_span);
        r += 1;
    }
    if layers.violations > 0 {
        out.correct = false;
    }
    // One more round at the other thread count, for the scaling and the
    // single-thread lock-path cost.
    let lane_threads = if shape.threads == 1 { 2 } else { 1 };
    let lane = round(
        shape,
        lane_threads,
        round_seed(seed, 1),
        &mut out,
        |_, _| {},
    );
    let (one, two) = if shape.threads == 1 {
        (&runs, &lane)
    } else {
        (&lane, &runs)
    };

    let sum = |runs: &[Tally], f: fn(&Tally) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let txns = sum(&runs, |t| t.processed);
    let per_txn = |n: f64| ratio(n, txns);
    let (t, o) = (TxnId(0), ObjectId(0));
    let mode = LockMode::Read;
    let ceiling_blocks = layers.count(SimEventKind::CeilingBlocked {
        txn: t,
        object: o,
        blocker: None,
    });
    let blocks = layers.count(SimEventKind::LockBlocked {
        txn: t,
        object: o,
        mode,
        blocker: None,
    }) + ceiling_blocks;
    let grants = layers.count(SimEventKind::LockGranted {
        txn: t,
        object: o,
        mode,
    }) + layers.count(SimEventKind::LockUpgraded { txn: t, object: o });
    let wall: Duration = runs.iter().map(|t| t.wall).sum();
    let one_wall: Duration = one.iter().map(|t| t.wall).sum();

    out.set(
        "live.lock_path_ns_per_op",
        ratio(one_wall.as_nanos() as f64, sum(one, |t| t.lock_requests)),
    );
    out.set(
        "live.scaling_2v1",
        ratio(commits_per_s(two), commits_per_s(one)),
    );
    out.set(
        "live.lock_wait_us_p50",
        layers.blocking.percentile(50) as f64,
    );
    out.set(
        "live.lock_wait_us_p99",
        layers.blocking.percentile(99) as f64,
    );
    out.set(
        "live.block_ratio",
        ratio(blocks, sum(&runs, |t| t.lock_requests)),
    );
    out.set(
        "live.restarts_per_commit",
        ratio(sum(&runs, |t| t.restarts), sum(&runs, |t| t.committed)),
    );
    out.set("live.ceiling_blocks_per_txn", per_txn(ceiling_blocks));
    out.set(
        "live.busy_share",
        ratio(
            grants * shape.hold_us as f64 * 1e3,
            shape.threads as f64 * wall.as_nanos() as f64,
        ),
    );
    out.set("live.events_per_txn", per_txn(layers.events as f64));
    let post_run: Vec<f64> = runs.iter().map(|t| t.outside_wall.as_secs_f64()).collect();
    out.set("live.post_run_s", median(&post_run));
    for (protocol, name) in [
        ("2PL", "live.2PL.commits_per_s"),
        ("2PL-P", "live.2PL-P.commits_per_s"),
        ("PI", "live.PI.commits_per_s"),
        ("PCP", "live.PCP.commits_per_s"),
    ] {
        out.set(
            name,
            commits_per_s(runs.iter().filter(|t| t.protocol == protocol)),
        );
    }
    out.set("monitor.events_per_txn", per_txn(layers.events as f64));
    out.set("monitor.check_ns_per_event", layers.check_ns_per_event());
    out.set("monitor.violations", layers.violations as f64);
    out.notes.push(format!(
        "{} traced rounds, {} events through the oracle, {} blocking episodes",
        r - 1,
        layers.events,
        layers.blocking.count()
    ));
    out
}
