//! Accounting closure of the profiling sinks.
//!
//! The contention profiler, the windowed-telemetry sink and the metrics
//! sink all consume the same event stream under the one blocking-episode
//! rule of `monitor::EpisodeEdge` (open at the first
//! `LockBlocked`/`CeilingBlocked`/`RangeLatchBlocked`, close at
//! `LockGranted`/`LockUpgraded`/`RangeLatchAcquired`/`TxnAborted`, drop
//! still-open episodes). These tests run real simulations —
//! proptest-driven single-site sweeps, a latch-scan run, and fixed-seed
//! distributed and faulted configurations — buffer the
//! stream once, replay it into every sink, and assert the totals close
//! *exactly*: window sums equal run aggregates, per-object and per-band
//! blocked time sums equal the blocking histogram total, and the JSONL
//! trace format round-trips the stream byte-exactly.

use monitor::jsonl::to_jsonl;
use monitor::{
    read_jsonl, ContentionProfiler, MetricsSink, SimEvent, SimEventKind, TimeSeriesSink,
};
use netsim::{CrashWindow, FaultPlan, LinkFaults};
use proptest::prelude::*;
use rtdb::SiteId;
use rtlock::distributed::CeilingArchitecture;
use rtlock::{MvccConfig, ProtocolKind};
use rtlock_bench::harness::{
    execute_with, DistributedSpec, RunMetrics, RunSpec, SimSpec, SingleSiteSpec,
};
use starlite::{EventSink, SimDuration, SimTime, VecSink};

fn run_buffered(spec: &RunSpec) -> (Vec<(SimTime, SimEvent)>, RunMetrics) {
    let mut sink = VecSink::new();
    let metrics = execute_with(spec, &mut sink);
    (sink.into_events(), metrics)
}

fn replay<S: EventSink<SimEvent>>(events: &[(SimTime, SimEvent)], sink: &mut S) {
    for &(at, ev) in events {
        sink.emit(at, ev);
    }
}

/// Asserts every closure property of one buffered run.
fn assert_closure(events: &[(SimTime, SimEvent)], run: &RunMetrics, window_ticks: u64) {
    let mut metrics = MetricsSink::new();
    replay(events, &mut metrics);

    // Direct per-kind counts from the stream, as ground truth.
    let mut arrivals = 0u64;
    let mut commits = 0u64;
    let mut aborts = 0u64;
    for &(_, ev) in events {
        match ev.kind {
            SimEventKind::TxnArrived { .. } => arrivals += 1,
            SimEventKind::TxnCommitted { .. } => commits += 1,
            SimEventKind::TxnAborted { .. } => aborts += 1,
            _ => {}
        }
    }

    // Contention profiler: totals, per-object and per-band attributions
    // all sum to the metrics sink's blocking histogram.
    let mut profiler = ContentionProfiler::new();
    replay(events, &mut profiler);
    let report = profiler.finish(usize::MAX);
    assert_eq!(report.total_blocked_ticks, metrics.blocking().total());
    assert_eq!(report.episodes, metrics.blocking().count());
    assert_eq!(
        report.objects.iter().map(|o| o.blocked_ticks).sum::<u64>(),
        report.total_blocked_ticks,
        "per-object blocked time must cover every episode"
    );
    assert_eq!(
        report.objects.iter().map(|o| o.episodes).sum::<u64>(),
        report.episodes
    );
    assert_eq!(
        report.blocked_by_band.iter().sum::<u64>(),
        report.total_blocked_ticks,
        "per-band blocked time must cover every episode"
    );
    for object in &report.objects {
        assert_eq!(object.by_band.iter().sum::<u64>(), object.blocked_ticks);
    }

    // Windowed telemetry: sliced durations and per-window counts sum back
    // to the aggregates, whatever the window width.
    let mut ts = TimeSeriesSink::new(window_ticks);
    replay(events, &mut ts);
    let windows = ts.windows();
    assert_eq!(
        windows.iter().map(|w| w.blocked_ticks).sum::<u64>(),
        metrics.blocking().total(),
        "window blocked time must slice without loss (width {window_ticks})"
    );
    assert_eq!(
        windows.iter().map(|w| w.episodes).sum::<u64>(),
        metrics.blocking().count()
    );
    assert_eq!(
        windows.iter().map(|w| w.events).sum::<u64>(),
        metrics.total()
    );
    assert_eq!(windows.iter().map(|w| w.arrivals).sum::<u64>(), arrivals);
    assert_eq!(windows.iter().map(|w| w.commits).sum::<u64>(), commits);
    assert_eq!(
        windows
            .iter()
            .map(|w| w.misses + w.faults + w.restarts)
            .sum::<u64>(),
        aborts,
        "every abort lands in exactly one window bucket"
    );

    // RunStats closure: the stream's outcome counts are the run's. A
    // victim aborted for good (restarts disabled, or the deadline beat
    // the restart) is a `DeadlockVictim` event but tallies as `missed`
    // in RunStats, so misses and restarts are only jointly invariant.
    assert_eq!(commits, u64::from(run.committed));
    assert_eq!(
        windows.iter().map(|w| w.misses + w.restarts).sum::<u64>(),
        u64::from(run.missed) + u64::from(run.restarts),
        "every terminal miss or restart lands in the stream"
    );
    assert_eq!(
        windows.iter().map(|w| w.faults).sum::<u64>(),
        u64::from(run.faulted)
    );

    // The persistent trace format round-trips the stream exactly.
    let loaded = read_jsonl(to_jsonl(events).as_bytes()).expect("trace reloads");
    assert_eq!(loaded, events, "JSONL round-trip must be exact");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_site_runs_close_exactly(
        protocol_index in 0usize..6,
        txn_size in 2u32..12,
        txn_count in 20u32..80,
        seed in 0u64..1000,
        window_ticks in prop_oneof![Just(1_000u64), Just(100_000), Just(1 << 40)],
    ) {
        let protocol = [
            ProtocolKind::TwoPhaseLocking,
            ProtocolKind::TwoPhaseLockingPriority,
            ProtocolKind::PriorityInheritance,
            ProtocolKind::PriorityCeiling,
            ProtocolKind::PriorityCeilingExclusive,
            ProtocolKind::TimestampOrdering,
        ][protocol_index];
        let spec = RunSpec {
            label: format!("closure/{protocol:?}/size={txn_size}"),
            seed,
            sim: SimSpec::SingleSite(SingleSiteSpec::figure(protocol, txn_size, txn_count)),
        };
        let (events, run) = run_buffered(&spec);
        prop_assert!(!events.is_empty());
        assert_closure(&events, &run, window_ticks);
    }
}

/// Scan readers under range latches beside priority ceiling writers, the
/// shape of `fig_temporal`'s latch arm at its top arrival rate: latch
/// waits are blocking episodes too, in every sink.
#[test]
fn latch_scan_run_closes_exactly() {
    let figure = SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, 200);
    let interarrival = (figure.interarrival.ticks() as f64 / 1.2).round() as u64;
    let spec = RunSpec {
        label: "closure/latch-scan".into(),
        seed: 0,
        sim: SimSpec::SingleSite(SingleSiteSpec {
            read_only_fraction: 0.5,
            scan_readers: true,
            interarrival: SimDuration::from_ticks(interarrival),
            db_size: 50,
            mvcc: Some(MvccConfig::latch_scan(4)),
            ..figure
        }),
    };
    let (events, run) = run_buffered(&spec);
    assert!(
        events
            .iter()
            .any(|(_, ev)| matches!(ev.kind, SimEventKind::RangeLatchBlocked { .. })),
        "the run must wait on range latches"
    );
    assert_closure(&events, &run, 100_000);
}

#[test]
fn distributed_runs_close_exactly() {
    for arch in [
        CeilingArchitecture::GlobalManager,
        CeilingArchitecture::LocalReplicated,
    ] {
        for seed in 0..3 {
            let spec = RunSpec {
                label: format!("closure/{}/seed={seed}", arch.label()),
                seed,
                sim: SimSpec::Distributed(DistributedSpec::figure(arch, 0.5, 2, 60)),
            };
            let (events, run) = run_buffered(&spec);
            assert!(!events.is_empty());
            assert_closure(&events, &run, 100_000);
        }
    }
}

#[test]
fn faulted_runs_close_exactly() {
    let faults = FaultPlan {
        link: LinkFaults {
            loss_ppm: 20_000,
            duplicate_ppm: 10_000,
            jitter_ticks: 0,
            seed: 42,
        },
        crashes: vec![CrashWindow {
            site: SiteId(2),
            down_at: SimTime::from_ticks(100_000),
            up_at: Some(SimTime::from_ticks(250_000)),
        }],
    };
    for arch in [
        CeilingArchitecture::GlobalManager,
        CeilingArchitecture::LocalReplicated,
    ] {
        let spec = RunSpec {
            label: format!("closure/faulted/{}", arch.label()),
            seed: 7,
            sim: SimSpec::Distributed(DistributedSpec::faulted(arch, 0.5, 2, 60, faults.clone())),
        };
        let (events, run) = run_buffered(&spec);
        assert!(!events.is_empty());
        let faulted_aborts = events
            .iter()
            .filter(|(_, ev)| {
                matches!(
                    ev.kind,
                    SimEventKind::TxnAborted {
                        reason: monitor::AbortReason::SiteFailed,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(faulted_aborts as u32, run.faulted);
        assert_closure(&events, &run, 50_000);
    }
}
