//! The analysis half of the observability stack: the `--profile` JSON
//! ([`profile_json`]), `fig_scale`'s per-point contention summary
//! ([`contention_summary`]) and `rtlock-inspect misses`
//! ([`miss_lines`]), all built on [`ContentionProfiler`]'s blocking
//! episodes.

use monitor::profile::{ContentionReport, Episode, BAND_NAMES};
use monitor::{AbortReason, ContentionProfiler, Histogram, SimEvent, SimEventKind, TimeSeriesSink};
use rtdb::TxnId;
use starlite::{EventSink, FxHashMap, SimTime, TeeSink};

use crate::harness::{execute_with, RunMetrics, RunSpec};
use crate::results::Json;

/// How many hot objects / edges the profile keeps.
pub const PROFILE_TOP_K: usize = 10;

fn hist_json(h: &Histogram) -> Json {
    Json::object([
        ("count", h.count().into()),
        ("total", h.total().into()),
        ("mean", h.mean().into()),
        ("p50", h.percentile(50).into()),
        ("p95", h.percentile(95).into()),
        ("p99", h.percentile(99).into()),
        ("max", h.max().into()),
    ])
}

/// Serialises a [`ContentionReport`] (plus the run's aggregate metrics,
/// so the profile sits alongside its `RunStats`-derived record).
pub fn profile_json(spec: &RunSpec, metrics: &RunMetrics, report: &ContentionReport) -> Json {
    Json::object([
        ("point", Json::from(spec.label.clone())),
        ("seed", spec.seed.into()),
        ("total_blocked_ticks", report.total_blocked_ticks.into()),
        ("episodes", report.episodes.into()),
        ("contended_objects", report.contended_objects.into()),
        ("inversion_ticks", report.inversion_ticks.into()),
        (
            "chain",
            Json::object([
                ("max_depth", report.chain.max_depth.into()),
                ("mean_depth", report.chain.mean_depth().into()),
                ("episodes", report.chain.episodes.into()),
            ]),
        ),
        (
            "bands",
            Json::Array(
                BAND_NAMES
                    .iter()
                    .enumerate()
                    .map(|(i, band)| {
                        Json::object([
                            ("band", (*band).into()),
                            (
                                "floor",
                                report
                                    .band_floors
                                    .get(i)
                                    .map(|f| Json::Num(*f as f64))
                                    .unwrap_or(Json::Null),
                            ),
                            ("blocked_ticks", report.blocked_by_band[i].into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "objects",
            Json::Array(
                report
                    .objects
                    .iter()
                    .map(|o| {
                        Json::object([
                            ("object", format!("{}", o.object).into()),
                            ("blocked_ticks", o.blocked_ticks.into()),
                            ("episodes", o.episodes.into()),
                            ("ceiling_episodes", o.ceiling_episodes.into()),
                            (
                                "by_band",
                                Json::Array(o.by_band.iter().map(|&t| t.into()).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "edges",
            Json::Array(
                report
                    .edges
                    .iter()
                    .map(|e| {
                        Json::object([
                            ("blocker", format!("{}", e.blocker).into()),
                            ("blocked", format!("{}", e.blocked).into()),
                            ("count", e.count.into()),
                            ("ticks", e.ticks.into()),
                            ("inversion_ticks", e.inversion_ticks.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rpc",
            Json::Array(
                report
                    .rpc
                    .iter()
                    .map(|r| {
                        Json::object([
                            ("site", format!("{}", r.site).into()),
                            ("latency", hist_json(&r.latency)),
                            ("retries", hist_json(&r.retries)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("run", Json::from(metrics)),
    ])
}

/// One re-run of `spec` with the profiler and the windowed-telemetry sink
/// teed together; returns the finished report and the peak per-window
/// miss rate. `fig_scale` prints this at every sweep point.
pub fn contention_summary(
    spec: &RunSpec,
    window_ticks: u64,
    top_k: usize,
) -> (ContentionReport, f64) {
    let mut tee = TeeSink::new(ContentionProfiler::new(), TimeSeriesSink::new(window_ticks));
    execute_with(spec, &mut tee);
    let report = tee.a.finish(top_k);
    (report, tee.b.peak_miss_rate())
}

/// Explains every missed deadline of an event stream, one line per
/// `TxnAborted { DeadlineMissed }` in stream order: how often the
/// transaction blocked, for how long in total, and what it spent its
/// longest episode waiting behind — e.g. `T7 missed its deadline:
/// blocked 3x, 41 ticks behind T2 via ceiling on O4`. The episodes are
/// [`ContentionProfiler`]'s, so the explanation follows the same
/// open/close rule as every blocked-time figure (a re-block while an
/// episode is open keeps the first; range-latch waits count, `via latch
/// on` the range's first object). `rtlock-inspect misses` prints these.
pub fn miss_lines(events: &[(SimTime, SimEvent)]) -> Vec<String> {
    let mut profiler = ContentionProfiler::new();
    let mut by_txn: FxHashMap<TxnId, Vec<Episode>> = FxHashMap::default();
    let mut lines = Vec::new();
    for &(at, event) in events {
        let folded = profiler.episodes().len();
        profiler.emit(at, event);
        for episode in &profiler.episodes()[folded..] {
            by_txn.entry(episode.blocked).or_default().push(*episode);
        }
        match event.kind {
            // A committed transaction never misses: drop its episodes.
            SimEventKind::TxnCommitted { txn } => {
                by_txn.remove(&txn);
            }
            SimEventKind::TxnAborted {
                txn,
                reason: AbortReason::DeadlineMissed,
            } => {
                let episodes = by_txn.remove(&txn).unwrap_or_default();
                lines.push(miss_line(txn, &episodes));
            }
            _ => {}
        }
    }
    lines
}

/// The [`miss_lines`] line of `txn`, which blocked in `episodes`.
fn miss_line(txn: TxnId, episodes: &[Episode]) -> String {
    // The strictly longest episode; the earliest wins ties.
    let longest = episodes
        .iter()
        .reduce(|worst, e| if e.ticks > worst.ticks { e } else { worst });
    let Some(worst) = longest else {
        return format!("{txn} missed its deadline: never blocked");
    };
    let ticks = episodes
        .iter()
        .fold(0u64, |sum, e| sum.saturating_add(e.ticks));
    let blocker = worst.blocker.map_or("peers".to_string(), |b| b.to_string());
    format!(
        "{txn} missed its deadline: blocked {}x, {ticks} ticks behind {blocker} via {} on {}",
        episodes.len(),
        worst.via,
        worst.object
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{SimSpec, SingleSiteSpec};
    use monitor::MetricsSink;
    use rtdb::{LockMode, ObjectId};
    use rtlock::ProtocolKind;

    fn spec() -> RunSpec {
        RunSpec {
            label: "C/size=8".into(),
            seed: 0,
            sim: SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::TwoPhaseLocking, 8, 40)),
        }
    }

    #[test]
    fn profile_json_is_deterministic_and_complete() {
        let render = || {
            let spec = spec();
            let mut profiler = ContentionProfiler::new();
            let metrics = execute_with(&spec, &mut profiler);
            profile_json(&spec, &metrics, &profiler.finish(PROFILE_TOP_K)).to_string()
        };
        let a = render();
        assert_eq!(a, render());
        for key in [
            "\"total_blocked_ticks\"",
            "\"objects\"",
            "\"edges\"",
            "\"bands\"",
            "\"chain\"",
            "\"run\"",
        ] {
            assert!(a.contains(key), "{key} missing");
        }
    }

    #[test]
    fn contention_summary_matches_the_metrics_aggregate() {
        let spec = spec();
        let (report, peak) = contention_summary(&spec, 100_000, 3);
        let mut metrics = MetricsSink::new();
        execute_with(&spec, &mut metrics);
        assert_eq!(report.total_blocked_ticks, metrics.blocking().total());
        assert_eq!(report.episodes, metrics.blocking().count());
        assert!((0.0..=1.0).contains(&peak));
    }

    /// The blocked-time closure holds for latch-scan readers too: the
    /// profiler and the metrics sink open and close range-latch episodes
    /// under the same rule, so the decomposition stays lossless.
    #[test]
    fn latch_episode_closure_matches_the_metrics_aggregate() {
        let spec = RunSpec {
            label: "latch/size=8".into(),
            seed: 0,
            sim: SimSpec::SingleSite(SingleSiteSpec {
                read_only_fraction: 0.5,
                scan_readers: true,
                db_size: 50,
                mvcc: Some(rtlock::MvccConfig::latch_scan(4)),
                ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, 150)
            }),
        };
        let mut events = starlite::VecSink::new();
        execute_with(&spec, &mut events);
        let events = events.into_events();
        let latch_blocks = events
            .iter()
            .filter(|(_, e)| matches!(e.kind, monitor::SimEventKind::RangeLatchBlocked { .. }))
            .count();
        assert!(latch_blocks > 0, "the hot run must produce latch waits");

        let mut profiler = ContentionProfiler::new();
        let mut metrics = MetricsSink::new();
        for &(at, ev) in &events {
            use starlite::EventSink;
            profiler.emit(at, ev);
            metrics.emit(at, ev);
        }
        let report = profiler.finish(PROFILE_TOP_K);
        assert_eq!(report.total_blocked_ticks, metrics.blocking().total());
        assert_eq!(report.episodes, metrics.blocking().count());
    }

    fn ev(kind: SimEventKind) -> SimEvent {
        SimEvent::new(rtdb::SiteId(0), kind)
    }

    fn blocked(at: u64, txn: u64, object: u32, blocker: u64) -> (SimTime, SimEvent) {
        let kind = SimEventKind::LockBlocked {
            txn: TxnId(txn),
            object: ObjectId(object),
            mode: LockMode::Write,
            blocker: Some(TxnId(blocker)),
        };
        (SimTime::from_ticks(at), ev(kind))
    }

    fn granted(at: u64, txn: u64, object: u32) -> (SimTime, SimEvent) {
        let kind = SimEventKind::LockGranted {
            txn: TxnId(txn),
            object: ObjectId(object),
            mode: LockMode::Write,
        };
        (SimTime::from_ticks(at), ev(kind))
    }

    fn missed(at: u64, txn: u64) -> (SimTime, SimEvent) {
        let kind = SimEventKind::TxnAborted {
            txn: TxnId(txn),
            reason: AbortReason::DeadlineMissed,
        };
        (SimTime::from_ticks(at), ev(kind))
    }

    #[test]
    fn miss_lines_report_the_blocking_chain() {
        let ceiling = SimEventKind::CeilingBlocked {
            txn: TxnId(7),
            object: ObjectId(4),
            blocker: Some(TxnId(2)),
        };
        let events = [
            (SimTime::from_ticks(10), ev(ceiling)),
            granted(51, 7, 4),
            missed(60, 7),
        ];
        assert_eq!(
            miss_lines(&events),
            ["T7 missed its deadline: blocked 1x, 41 ticks behind T2 via ceiling on O4"]
        );
    }

    /// The profiler's rule: a re-block while an episode is open keeps the
    /// first episode, which the miss then closes.
    #[test]
    fn reblock_keeps_the_first_episode() {
        let events = [blocked(10, 7, 1, 2), blocked(30, 7, 5, 3), missed(50, 7)];
        assert_eq!(
            miss_lines(&events),
            ["T7 missed its deadline: blocked 1x, 40 ticks behind T2 via lock on O1"]
        );
    }

    #[test]
    fn zero_tick_episode_does_not_steal_the_worst() {
        let events = [
            blocked(10, 7, 1, 2),
            granted(40, 7, 1),
            blocked(45, 7, 9, 4),
            granted(45, 7, 9),
            missed(60, 7),
        ];
        assert_eq!(
            miss_lines(&events),
            ["T7 missed its deadline: blocked 2x, 30 ticks behind T2 via lock on O1"]
        );
    }

    #[test]
    fn committed_transactions_leave_no_episodes() {
        // If the episodes survived the commit, this terminal re-use of the
        // id would report the stale blocking history.
        let commit = (
            SimTime::from_ticks(30),
            ev(SimEventKind::TxnCommitted { txn: TxnId(1) }),
        );
        let events = [
            blocked(10, 1, 1, 2),
            granted(20, 1, 1),
            commit,
            missed(40, 1),
        ];
        assert_eq!(
            miss_lines(&events),
            ["T1 missed its deadline: never blocked"]
        );
        assert_eq!(
            miss_lines(&[missed(60, 3)]),
            ["T3 missed its deadline: never blocked"]
        );
    }

    /// A reader that missed behind a range latch blocked; it is not
    /// "never blocked".
    #[test]
    fn latch_waits_explain_misses() {
        let latch = SimEventKind::RangeLatchBlocked {
            txn: TxnId(1),
            lo: ObjectId(4),
            hi: ObjectId(9),
            blocker: Some(TxnId(2)),
        };
        let events = [(SimTime::from_ticks(10), ev(latch)), missed(35, 1)];
        assert_eq!(
            miss_lines(&events),
            ["T1 missed its deadline: blocked 1x, 25 ticks behind T2 via latch on O4"]
        );
    }
}
