//! Bad command lines are errors, not silent full runs: every experiment
//! binary must reject an unknown flag, a flag it does not take, a
//! missing or malformed value and a malformed `RTLOCK_BENCH_WORKERS`
//! with one `error:` diagnostic plus the usage on stderr and exit status
//! 2 — before any run starts and without writing a file.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `bin` with `args` in a fresh, empty working directory, with
/// `RTLOCK_BENCH_WORKERS` set to `workers` or unset; returns the output
/// and the directory.
fn run_in_empty_dir(
    bin: &str,
    args: &[&str],
    workers: Option<&str>,
    case: usize,
) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "rtlock_experiment_cli_{}_{case}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    let mut command = Command::new(bin);
    command.args(args).current_dir(&dir);
    match workers {
        Some(n) => command.env("RTLOCK_BENCH_WORKERS", n),
        None => command.env_remove("RTLOCK_BENCH_WORKERS"),
    };
    let out = command.output().expect("spawn experiment binary");
    (out, dir)
}

#[test]
fn bad_flags_exit_2_with_one_diagnostic_and_write_nothing() {
    let cases: [(&str, &[&str], Option<&str>); 12] = [
        (env!("CARGO_BIN_EXE_fig2"), &["--chek"], None),
        (env!("CARGO_BIN_EXE_fig4"), &["--smoke"], None),
        (env!("CARGO_BIN_EXE_fig2"), &["--compare"], None),
        (env!("CARGO_BIN_EXE_fig_live"), &["--smok"], None),
        (env!("CARGO_BIN_EXE_fig_live"), &["--trace", "t.json"], None),
        (env!("CARGO_BIN_EXE_fig2"), &["--trace"], None),
        (
            env!("CARGO_BIN_EXE_fig2"),
            &["--window=0", "--profile=x"],
            None,
        ),
        (
            env!("CARGO_BIN_EXE_fig_scale"),
            &["--smoke", "--record="],
            None,
        ),
        (env!("CARGO_BIN_EXE_all_figures"), &["--check=yes"], None),
        (env!("CARGO_BIN_EXE_calibrate"), &["abc"], None),
        (env!("CARGO_BIN_EXE_fig3"), &[], Some("abc")),
        (env!("CARGO_BIN_EXE_fig3"), &[], Some("0")),
    ];
    for (case, &(bin, args, workers)) in cases.iter().enumerate() {
        let (out, dir) = run_in_empty_dir(bin, args, workers, case);
        let what = format!(
            "RTLOCK_BENCH_WORKERS={workers:?} {} {args:?}",
            bin.rsplit('/').next().unwrap_or(bin)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: exit\nstderr: {stderr}");
        assert_eq!(
            stderr.lines().filter(|l| l.starts_with("error: ")).count(),
            1,
            "{what}: expected one diagnostic\nstderr: {stderr}"
        );
        assert!(stderr.starts_with("error: "), "{what}\nstderr: {stderr}");
        assert!(
            stderr.contains("usage: "),
            "{what}: no usage\nstderr: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{what}: printed a report");
        let written: Vec<_> = fs::read_dir(&dir).expect("read scratch dir").collect();
        assert!(written.is_empty(), "{what}: wrote {written:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn good_flags_still_run() {
    // A tiny calibration: 10 transactions, 1 seed, under the oracle.
    let args = ["--check", "1000", "2000", "0.5", "6", "1", "10", "1", "1"];
    let (out, dir) = run_in_empty_dir(env!("CARGO_BIN_EXE_calibrate"), &args, None, 99);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("check: 0 violations"), "stderr: {stderr}");
    let _ = fs::remove_dir_all(&dir);
}
