//! One way to declare an experiment, and the one runner behind every
//! sweep binary.
//!
//! A sweep binary is an [`Experiment`]: its name, the results title and
//! parameters, its [`Sweep`] (plus a smoke grid where one exists),
//! whether it records `BENCH_SWEEP.json`, and a report that renders its
//! table and claims from the finished [`SweepResults`].
//! [`Experiment::run`] does the rest the same way for every binary:
//!
//! 1. parses the arguments once ([`crate::cli`]) and reads the worker
//!    count ([`default_workers`]); bad input, a malformed
//!    `RTLOCK_BENCH_WORKERS` included, exits 2 before any run;
//! 2. runs the sweep on that many threads — with `--check`,
//!    every run streams through the invariant oracle
//!    ([`monitor::CheckSink`]), and any violation is printed with its
//!    event subsequence and exits 1 (the metrics are unchanged: the
//!    oracle only observes);
//! 3. re-runs the **first grid entry** (first declared point, seed 0)
//!    once per requested artifact, each with its own sink, while the
//!    sweep itself stays on [`starlite::NullSink`]:
//!    * `--trace <path>` — [`ChromeTraceSink`], for `chrome://tracing` or
//!      <https://ui.perfetto.dev>;
//!    * `--profile[=<path>]` — [`ContentionProfiler`], written as JSON
//!      ([`crate::observe::profile_json`]);
//!    * `--timeseries[=<path>]` — [`TimeSeriesSink`] windows of
//!      `--window=<ticks>` (JSON Lines, or CSV for a `.csv` path);
//!    * `--record[=<path>]` — [`JsonlSink`], a replayable trace for
//!      `rtlock-inspect`.
//!
//!    Each traced run is a pure function of its spec, so the files are
//!    byte-deterministic;
//! 4. prints the report to stdout;
//! 5. writes `results/<name>.json` and, when declared, the experiment's
//!    `BENCH_SWEEP.json` entry — neither in smoke mode.
//!
//! Status lines (`check:`, `trace:`, `profile:`, `timeseries:`,
//! `record:`, `results:`, `wall clock recorded:`, `smoke mode:`) go to
//! stderr, so stdout is exactly the report.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;

use monitor::csv::Table;
use monitor::timeseries::DEFAULT_WINDOW_TICKS;
use monitor::{ChromeTraceSink, ContentionProfiler, JsonlSink, TimeSeriesSink};

use crate::cli::{Args, Command};
use crate::harness::{default_workers, execute_with, RunSpec, Sweep, SweepResults};
use crate::observe::{profile_json, PROFILE_TOP_K};
use crate::results::{self, Json};

/// Ordered `(key, value)` fields of a results JSON object.
pub type Fields = Vec<(&'static str, Json)>;

/// A report: prints the experiment's table and claims to stdout from the
/// finished sweep (`true` when the smoke grid ran) and returns any extra
/// top-level fields for the results JSON.
pub type Report = fn(&SweepResults, bool) -> Fields;

/// One experiment, declared once.
#[derive(Debug)]
pub struct Experiment {
    /// The binary's name; results go to `results/<name>.json`.
    pub name: &'static str,
    /// The results JSON's `experiment` title.
    pub title: &'static str,
    /// The results JSON's `parameters`.
    pub parameters: Fields,
    /// The grid.
    pub sweep: Sweep,
    /// The reduced grid `--smoke` runs instead; `None` means the binary
    /// takes no `--smoke`.
    pub smoke: Option<Sweep>,
    /// Whether a full run replaces the experiment's `BENCH_SWEEP.json`
    /// entry.
    pub bench_record: bool,
    /// Renders the table and claims.
    pub report: Report,
}

impl Experiment {
    /// Parses the arguments, runs the sweep and writes everything the
    /// flags ask for (see the [module docs](self)).
    pub fn run(self) {
        let command = Command {
            name: self.name,
            smoke: self.smoke.is_some(),
            artifacts: true,
            ..Command::default()
        };
        let args = command.args();
        let workers = default_workers().unwrap_or_else(|e| command.exit(&e));
        let sweep = match &self.smoke {
            Some(smoke) if args.smoke => smoke,
            _ => &self.sweep,
        };
        let swept = run_sweep(sweep, workers, args.check);
        if let Some(spec) = sweep.specs().first() {
            write_artifacts(spec, &args);
        }
        let extra = (self.report)(&swept, args.smoke);
        if args.smoke {
            eprintln!("smoke mode: artifacts skipped");
            return;
        }
        results::emit(self.name, &swept, self.title, self.parameters, extra);
        if self.bench_record {
            match results::record_wall_clock(self.name, &swept) {
                Ok(path) => eprintln!("wall clock recorded: {}", path.display()),
                Err(e) => eprintln!("warning: could not write BENCH_SWEEP.json: {e}"),
            }
        }
    }
}

/// Prints a report table the way every figure shows it: aligned, then
/// the ASCII plot when there is one, then CSV and a blank line.
pub fn print_table(table: &Table, plot: Option<String>) {
    print!("{}", table.to_pretty());
    match plot {
        Some(plot) => println!("\n{plot}"),
        None => println!(),
    }
    println!("CSV:\n{}\n", table.to_csv());
}

/// Runs `sweep` on `workers` threads, under the oracle when `check` is
/// set; exits 1 after printing every violation.
fn run_sweep(sweep: &Sweep, workers: usize, check: bool) -> SweepResults {
    if !check {
        return sweep.run(workers);
    }
    let swept = sweep.run_checked(workers);
    if swept.violations.is_empty() {
        eprintln!("check: {} runs, 0 violations", swept.run_count());
        return swept;
    }
    for (label, seed, v) in &swept.violations {
        eprintln!("check: point {label:?} seed {seed}: {v}");
    }
    eprintln!(
        "check: {} violations across {} runs",
        swept.violations.len(),
        swept.run_count()
    );
    std::process::exit(1);
}

/// Re-runs `spec` once per requested artifact and reports each file.
fn write_artifacts(spec: &RunSpec, args: &Args) {
    let at = format!("point {:?} seed {}", spec.label, spec.seed);
    if let Some(path) = &args.trace {
        let mut sink = ChromeTraceSink::new();
        execute_with(spec, &mut sink);
        let count = sink.count();
        let written = write_file(path, &sink.finish()).map(|()| format!("{count} events, {at}"));
        status("trace", path, written);
    }
    if let Some(path) = &args.profile {
        let mut profiler = ContentionProfiler::new();
        let metrics = execute_with(spec, &mut profiler);
        let report = profiler.finish(PROFILE_TOP_K);
        let json = profile_json(spec, &metrics, &report);
        let written = write_file(path, &format!("{json}\n")).map(|()| {
            format!(
                "{} episodes, {} blocked ticks, {at}",
                report.episodes, report.total_blocked_ticks
            )
        });
        status("profile", path, written);
    }
    if let Some(path) = &args.timeseries {
        let mut sink = TimeSeriesSink::new(args.window.unwrap_or(DEFAULT_WINDOW_TICKS));
        execute_with(spec, &mut sink);
        let csv = path.extension().is_some_and(|e| e == "csv");
        let rendered = if csv { sink.to_csv() } else { sink.to_jsonl() };
        let written = write_file(path, &rendered).map(|()| {
            let windows = sink.windows().len();
            format!("{windows} windows of {} ticks, {at}", sink.width())
        });
        status("timeseries", path, written);
    }
    if let Some(path) = &args.record {
        let written = create(path).and_then(|file| {
            let mut sink = JsonlSink::new(BufWriter::new(file));
            execute_with(spec, &mut sink);
            let count = sink.count();
            sink.finish()?;
            Ok(format!("{count} events, {at}"))
        });
        status("record", path, written);
    }
}

/// Creates `path`, and its parent directories when missing.
fn create(path: &Path) -> io::Result<File> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    File::create(path)
}

fn write_file(path: &Path, contents: &str) -> io::Result<()> {
    create(path)?.write_all(contents.as_bytes())
}

fn status(artifact: &str, path: &Path, written: io::Result<String>) {
    match written {
        Ok(detail) => eprintln!("{artifact}: {} ({detail})", path.display()),
        Err(e) => eprintln!(
            "warning: could not write {artifact} {}: {e}",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{SimSpec, SingleSiteSpec};
    use rtlock::ProtocolKind;

    fn spec(protocol: ProtocolKind, seed: u64) -> RunSpec {
        RunSpec {
            label: "size=5".into(),
            seed,
            sim: SimSpec::SingleSite(SingleSiteSpec::figure(protocol, 5, 30)),
        }
    }

    #[test]
    fn trace_write_is_deterministic() {
        let spec = spec(ProtocolKind::PriorityCeiling, 0);
        let render = || {
            let mut sink = ChromeTraceSink::new();
            execute_with(&spec, &mut sink);
            sink.finish()
        };
        let a = render();
        let b = render();
        assert_eq!(a, b, "same spec must trace to identical bytes");
        assert!(a.starts_with("[\n"));
        assert!(a.ends_with("]\n"));
        assert!(a.contains("\"name\": \"TxnCommitted\""));
    }

    #[test]
    fn tracing_does_not_change_metrics() {
        let spec = spec(ProtocolKind::TwoPhaseLocking, 1);
        let plain = crate::harness::execute(&spec);
        let mut sink = ChromeTraceSink::new();
        let traced = execute_with(&spec, &mut sink);
        assert_eq!(plain.committed, traced.committed);
        assert_eq!(plain.missed, traced.missed);
        assert_eq!(plain.throughput.to_bits(), traced.throughput.to_bits());
        assert!(sink.count() > 0);
    }
}
