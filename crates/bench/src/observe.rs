//! `--profile` / `--timeseries` / `--record` support: the analysis half
//! of the observability stack, attached to any figure binary.
//!
//! Like [`crate::trace`], each flag re-runs the **first entry of the
//! binary's run grid** (first declared point, seed 0) with the matching
//! sink attached; the untraced sweep itself stays on [`starlite::NullSink`]
//! and keeps its provably-zero instrumentation cost. Flags:
//!
//! * `--profile[=<path>]` — [`monitor::ContentionProfiler`]: blocked time
//!   attributed per object / blocker edge / priority band, chain depth,
//!   per-site RPC latency and retries, written as JSON (default
//!   `results/<name>.profile.json`) alongside the run's metrics.
//! * `--timeseries[=<path>]` — [`monitor::TimeSeriesSink`]: fixed-width
//!   windows of arrival/commit/miss/fault rates, blocked ticks, per-site
//!   CPU busy time. JSON Lines by default
//!   (`results/<name>.timeseries.jsonl`); a `.csv` path switches to CSV.
//! * `--record[=<path>]` — [`monitor::JsonlSink`]: the full event stream
//!   as a replayable JSONL trace (default `results/<name>.trace.jsonl`),
//!   queryable offline with `rtlock-inspect`.
//! * `--window=<ticks>` — window width for `--timeseries` (default
//!   [`monitor::timeseries::DEFAULT_WINDOW_TICKS`]).

use std::fs;
use std::io::{self, BufWriter};
use std::path::PathBuf;

use monitor::profile::{ContentionReport, BAND_NAMES};
use monitor::timeseries::DEFAULT_WINDOW_TICKS;
use monitor::{ContentionProfiler, Histogram, JsonlSink, TimeSeriesSink};
use starlite::TeeSink;

use crate::harness::{execute_with, RunMetrics, RunSpec, Sweep};
use crate::results::Json;

/// How many hot objects / edges the profile keeps.
pub const PROFILE_TOP_K: usize = 10;

/// Observability flags for one binary invocation.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// `--profile` destination, when requested.
    pub profile: Option<PathBuf>,
    /// `--timeseries` destination, when requested.
    pub timeseries: Option<PathBuf>,
    /// `--record` destination, when requested.
    pub record: Option<PathBuf>,
    /// `--window=<ticks>` override.
    pub window: Option<u64>,
}

impl ObserveConfig {
    /// Parses the observability flags for the named binary. Bare flags
    /// pick the default `results/<name>.*` destination; `=` forms
    /// override it.
    ///
    /// # Panics
    ///
    /// Panics if `--window` is present without a positive integer value.
    pub fn from_args(name: &str) -> ObserveConfig {
        let mut config = ObserveConfig::default();
        for arg in std::env::args().skip(1) {
            if arg == "--profile" {
                config.profile = Some(format!("results/{name}.profile.json").into());
            } else if let Some(path) = arg.strip_prefix("--profile=") {
                config.profile = Some(path.into());
            } else if arg == "--timeseries" {
                config.timeseries = Some(format!("results/{name}.timeseries.jsonl").into());
            } else if let Some(path) = arg.strip_prefix("--timeseries=") {
                config.timeseries = Some(path.into());
            } else if arg == "--record" {
                config.record = Some(format!("results/{name}.trace.jsonl").into());
            } else if let Some(path) = arg.strip_prefix("--record=") {
                config.record = Some(path.into());
            } else if let Some(w) = arg.strip_prefix("--window=") {
                let ticks: u64 = w
                    .parse()
                    .unwrap_or_else(|_| panic!("--window needs a positive tick count, got {w:?}"));
                assert!(ticks > 0, "--window needs a positive tick count");
                config.window = Some(ticks);
            }
        }
        config
    }

    /// Whether any observability flag was given.
    pub fn any(&self) -> bool {
        self.profile.is_some() || self.timeseries.is_some() || self.record.is_some()
    }

    /// The effective timeseries window width.
    pub fn window_ticks(&self) -> u64 {
        self.window.unwrap_or(DEFAULT_WINDOW_TICKS)
    }
}

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

fn write_file(path: &PathBuf, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, contents)
}

/// Standard observability handling for the figure binaries: a no-op
/// without flags, otherwise re-runs the sweep's first grid entry once per
/// requested sink and reports where each artifact went.
pub fn maybe_observe(name: &str, sweep: &Sweep) {
    let config = ObserveConfig::from_args(name);
    if !config.any() {
        return;
    }
    let Some(spec) = sweep.specs().first() else {
        eprintln!("warning: observability flags given but the sweep is empty");
        return;
    };

    if let Some(path) = &config.profile {
        let mut profiler = ContentionProfiler::new();
        let metrics = execute_with(spec, &mut profiler);
        let report = profiler.finish(PROFILE_TOP_K);
        let json = profile_json(spec, &metrics, &report);
        match write_file(path, &format!("{json}\n")) {
            Ok(()) => println!(
                "profile: {} ({} episodes, {} blocked ticks, point {:?} seed {})",
                path.display(),
                report.episodes,
                report.total_blocked_ticks,
                spec.label,
                spec.seed
            ),
            Err(e) => eprintln!("warning: could not write profile {}: {e}", path.display()),
        }
    }

    if let Some(path) = &config.timeseries {
        let mut ts = TimeSeriesSink::new(config.window_ticks());
        execute_with(spec, &mut ts);
        let csv = path.extension().is_some_and(|e| e == "csv");
        let rendered = if csv { ts.to_csv() } else { ts.to_jsonl() };
        match write_file(path, &rendered) {
            Ok(()) => println!(
                "timeseries: {} ({} windows of {} ticks, point {:?} seed {})",
                path.display(),
                ts.windows().len(),
                ts.width(),
                spec.label,
                spec.seed
            ),
            Err(e) => eprintln!(
                "warning: could not write timeseries {}: {e}",
                path.display()
            ),
        }
    }

    if let Some(path) = &config.record {
        let result = (|| -> io::Result<u64> {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
            let file = fs::File::create(path)?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            execute_with(spec, &mut sink);
            let count = sink.count();
            sink.finish()?;
            Ok(count)
        })();
        match result {
            Ok(count) => println!(
                "record: {} ({count} events, point {:?} seed {})",
                path.display(),
                spec.label,
                spec.seed
            ),
            Err(e) => eprintln!("warning: could not write record {}: {e}", path.display()),
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{SimSpec, SingleSiteSpec};
    use monitor::MetricsSink;
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
}
