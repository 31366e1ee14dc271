//! The repository benchmark: six workloads over the deterministic
//! simulators and the live lock manager, with end-to-end metrics from
//! untraced runs and per-layer metrics from traced ones. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --all [--seed N] [--seconds S] [--trace 0|1]
//! benchmark --smoke
//! ```
//!
//! A run prints `<workload> <metric> <value> <unit>` for every metric and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. It exits nonzero when an output check fails.

mod heap;
mod live;
mod metrics;
mod observe;
mod sim;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use metrics::{Outcome, END_TO_END, PER_LAYER};
use workloads::{Workload, DEFAULT_SEED, FINGERPRINTS, NAMES};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n       \
                     benchmark --all [--seed N] [--seconds S] [--trace 0|1]\n       \
                     benchmark --smoke";

/// Transaction counts are divided by this in `--smoke`.
const SMOKE_DIVISOR: u32 = 50;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        all: false,
        smoke: false,
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}; one of {NAMES:?}"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => parsed.seed = number(&value()?)?,
            "--seconds" => parsed.seconds = number(&value()?)?,
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--all" => parsed.all = true,
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let modes = [parsed.workload.is_some(), parsed.all, parsed.smoke];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --smoke".to_string());
    }
    Ok(parsed)
}

fn number(s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{s:?} is not a whole number"))
}

/// Runs one workload: untraced for the end-to-end metrics, traced for the
/// per-layer ones.
fn run(name: &str, seed: u64, budget: Duration, trace: bool, divisor: u32) -> Outcome {
    let fingerprint = FINGERPRINTS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| *f)
        .filter(|_| seed == DEFAULT_SEED && divisor == 1);
    let workload = workloads::build(name, divisor).expect("workload names are checked");
    // A traced run replays or re-runs its traced work afterwards, so it
    // traces for half the time to last about as long as an untraced one.
    match (workload, trace) {
        (Workload::Sim(grid), false) => sim::measure(&grid, seed, budget, fingerprint),
        (Workload::Sim(grid), true) => sim::trace(&grid, seed, budget / 2, fingerprint),
        (Workload::Live(shape), false) => live::measure(shape, seed, budget),
        (Workload::Live(shape), true) => live::trace(shape, seed, budget / 2),
    }
}

/// The metric lines and the closing JSON line of one run.
fn render(name: &str, outcome: &Outcome, trace: bool) -> String {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut text = String::new();
    for note in &outcome.notes {
        writeln!(text, "# {name}: {note}").expect("write to String");
    }
    let mut json = String::new();
    for (i, (metric, unit)) in table.iter().enumerate() {
        let value = match outcome.metrics.get(metric) {
            Some(&v) => v,
            None if trace => 0.0,
            None => panic!("end-to-end metric {metric} was not measured"),
        };
        assert!(value.is_finite(), "{metric} is not finite: {value}");
        writeln!(text, "{name} {metric} {value} {unit}").expect("write to String");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
    .expect("write to String");
    text
}

/// Writes the spans of a traced run to `target/benchmark/<name>.trace.json`.
fn write_trace(name: &str, outcome: &Outcome) -> std::io::Result<String> {
    let dir = std::path::Path::new("target").join("benchmark");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.trace.json"));
    std::fs::write(&path, format!("{}\n", outcome.spans.to_json(name)))?;
    Ok(path.display().to_string())
}

/// `--all`: every workload in a child process of its own, one after
/// another, so each reports its own peak memory. Ends with one JSON line
/// mapping workload names to their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut ok = true;
    let mut results = Vec::new();
    for name in NAMES {
        let child = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        ok &= child.status.success();
        let last = stdout.lines().last().unwrap_or("null");
        results.push(format!("\"{name}\": {last}"));
    }
    println!("{{{}}}", results.join(", "));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--smoke`: all six workloads at 1/50 scale, untraced and traced, one
/// slice or round each, with every output check.
fn smoke() -> bool {
    let mut ok = true;
    for name in NAMES {
        for trace in [false, true] {
            let outcome = run(name, DEFAULT_SEED, Duration::ZERO, trace, SMOKE_DIVISOR);
            print!("{}", render(name, &outcome, trace));
            ok &= outcome.correct && outcome.failed == 0 && outcome.attempted > 0;
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return if smoke() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.all {
        return run_all(&args);
    }
    let name = args.workload.as_deref().expect("one mode is given");
    let outcome = run(
        name,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
        1,
    );
    if args.trace {
        match write_trace(name, &outcome) {
            Ok(path) => println!("# {name}: trace written to {path}"),
            Err(e) => {
                eprintln!("benchmark: cannot write the trace of {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    print!("{}", render(name, &outcome, args.trace));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload dist-grid --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("dist-grid"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--workload paper-grid --trace 2").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--all --smoke").is_err());
        assert!(args("--all --seed x").is_err());
    }

    #[test]
    fn metric_names_and_units_follow_the_contract() {
        let ok = |s: &str, extra: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(ok(name, "") && name.len() <= 64, "{name}");
            assert!(ok(unit, "/%") && unit.len() <= 16, "{unit}");
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
        }
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for name in NAMES {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name}");
        }
        let declared = NAMES.len() + END_TO_END.len() + PER_LAYER.len();
        assert_eq!(json.matches("\"name\":").count(), declared);
    }

    /// The benchmark reads only surfaces that later changes keep stable:
    /// generated inputs, the `RunReport` counters, `LiveReport` and the
    /// event stream. The fields and files named here are slated to be
    /// deleted or replaced.
    #[test]
    fn reads_only_stable_surfaces() {
        let sources = [
            include_str!("main.rs"),
            include_str!("metrics.rs"),
            include_str!("observe.rs"),
            include_str!("sim.rs"),
            include_str!("live.rs"),
            include_str!("workloads.rs"),
        ];
        let forbidden = [
            [".", "monitor"].concat(),
            ["Lock", "Table"].concat(),
            ["Live", "Table"].concat(),
            ["BENCH", "_SWEEP"].concat(),
        ];
        for source in sources {
            for word in &forbidden {
                assert!(!source.contains(word.as_str()), "the benchmark uses {word}");
            }
        }
    }

    #[test]
    fn smoke_runs_every_workload_with_every_check() {
        assert!(smoke());
    }
}
