//! Regression tests for `rtlock-inspect` on hostile input: every
//! subcommand fed missing, truncated, binary-garbage, and
//! wrong-schema traces must exit 1 with a one-line diagnostic, and a bad
//! command line must exit 2 — never panic, never succeed silently.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Output};

use monitor::{JsonlSink, SimEvent, SimEventKind};
use rtdb::{SiteId, TxnId};
use starlite::{EventSink, Priority, SimTime};

const BIN: &str = env!("CARGO_BIN_EXE_rtlock-inspect");

/// Every subcommand invocation shape, with `{}` for the trace path.
fn subcommands() -> Vec<Vec<&'static str>> {
    vec![
        vec!["summary"],
        vec!["top-blockers", "--k=3"],
        vec!["txn", "1"],
        vec!["contention", "--by-object", "--k=3"],
        vec!["misses"],
    ]
}

fn run(args: &[&str], trace: &str) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args).arg(trace);
    cmd.output().expect("spawn rtlock-inspect")
}

fn scratch(name: &str, contents: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "rtlock_inspect_{name}_{}.jsonl",
        std::process::id()
    ));
    fs::write(&path, contents).expect("write scratch trace");
    path
}

/// Asserts the hostile-input contract: exit status `code`, a diagnostic
/// on stderr that starts with `error:`, and no panic backtrace.
fn assert_rejected(out: &Output, what: &str, code: i32) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(code),
        "{what}: exit status\nstderr: {stderr}"
    );
    assert!(
        stderr.starts_with("error: "),
        "{what}: expected a one-line `error:` diagnostic\nstderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{what}: the tool panicked instead of reporting\nstderr: {stderr}"
    );
}

#[test]
fn missing_file_is_a_diagnostic_not_a_panic() {
    for args in subcommands() {
        let out = run(&args, "/nonexistent/definitely/missing.jsonl");
        assert_rejected(&out, &format!("{args:?} on a missing file"), 1);
    }
}

#[test]
fn binary_garbage_is_rejected_cleanly() {
    // Raw non-UTF-8 bytes: the loader must surface an io::Error, not
    // panic in from_utf8 (the original bug this suite guards against).
    let garbage: &[u8] = &[
        0x00, 0xff, 0xfe, 0x80, b'{', b'"', 0xc3, 0x28, b'\n', 0xf5, 0x90,
    ];
    let path = scratch("garbage", garbage);
    for args in subcommands() {
        let out = run(&args, path.to_str().unwrap());
        assert_rejected(&out, &format!("{args:?} on binary garbage"), 1);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn wrong_schema_json_is_rejected_cleanly() {
    let path = scratch(
        "schema",
        b"{\"totally\": \"unrelated\", \"json\": [1, 2, 3]}\n",
    );
    for args in subcommands() {
        let out = run(&args, path.to_str().unwrap());
        assert_rejected(&out, &format!("{args:?} on wrong-schema JSON"), 1);
    }
    let _ = fs::remove_file(&path);
}

/// A tiny valid trace written by the real encoder.
fn valid_trace() -> Vec<u8> {
    let mut sink = JsonlSink::new(Vec::new());
    let site = SiteId(0);
    let txn = TxnId(1);
    sink.emit(
        SimTime::from_ticks(0),
        SimEvent {
            site,
            kind: SimEventKind::TxnArrived {
                txn,
                priority: Priority::new(5),
            },
        },
    );
    sink.emit(
        SimTime::from_ticks(1),
        SimEvent {
            site,
            kind: SimEventKind::TxnStarted { txn },
        },
    );
    sink.emit(
        SimTime::from_ticks(9),
        SimEvent {
            site,
            kind: SimEventKind::TxnCommitted { txn },
        },
    );
    sink.finish().expect("encode valid trace")
}

#[test]
fn truncated_tail_is_rejected_cleanly() {
    let mut bytes = valid_trace();
    // Chop the final record mid-line so the last JSON object is cut off.
    let cut = bytes.len() - 10;
    bytes.truncate(cut);
    let path = scratch("truncated", &bytes);
    for args in subcommands() {
        let out = run(&args, path.to_str().unwrap());
        assert_rejected(&out, &format!("{args:?} on a truncated trace"), 1);
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn valid_trace_still_succeeds() {
    let path = scratch("valid", &valid_trace());
    for args in subcommands() {
        let out = run(&args, path.to_str().unwrap());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            out.status.success(),
            "{args:?} on a valid trace failed\nstderr: {stderr}"
        );
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn usage_errors_are_single_diagnostics() {
    let path = scratch("usage", &valid_trace());
    let trace = path.to_str().unwrap();
    for args in [
        vec![],
        vec!["frobnicate"],
        vec!["frobnicate", trace],
        vec!["--bogus", trace],
        vec!["summary", "--bogus", trace],
        vec!["top-blockers", "--k=0", trace],
        vec!["top-blockers", "--k=abc", trace],
        vec!["summary"],
        vec!["summary", trace, trace],
        vec!["contention", trace],
        vec!["txn", "not-a-txn-id"],
        vec!["txn", "not-a-txn-id", trace],
    ] {
        let out = Command::new(BIN)
            .args(&args)
            .output()
            .expect("spawn rtlock-inspect");
        assert_rejected(&out, &format!("usage error {args:?}"), 2);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{args:?}: no usage\n{stderr}");
        let (_, commands) = stderr
            .split_once("\ncommands:\n")
            .unwrap_or_else(|| panic!("{args:?}: no command list\n{stderr}"));
        assert_eq!(commands.lines().count(), 5, "{args:?}\n{stderr}");
        for line in commands.lines() {
            assert!(
                line.starts_with("  ") && !line.starts_with("   "),
                "{args:?}: command line not indented by two spaces: {line:?}"
            );
        }
    }
    // A well-formed query the trace cannot answer is not a usage error.
    let out = run(&["txn", "T99"], trace);
    assert_rejected(&out, "txn absent from the trace", 1);
    let _ = fs::remove_file(&path);
}
