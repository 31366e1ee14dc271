//! JSON result artifacts for the figure and ablation binaries.
//!
//! Every binary writes, next to its ASCII table, a machine-readable record
//! of the sweep under `results/`: the run parameters, the per-seed raw
//! metrics of every point, the replication summaries, and the wall clock.
//! The serialisation is hand-rolled ([`Json`]) because the offline serde
//! stand-in has no JSON backend; objects keep insertion order, so the
//! bytes are deterministic for a deterministic sweep (wall-clock fields
//! are excluded by [`SweepResults::to_json`] and recorded separately).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use monitor::Summary;

use crate::harness::{PointResult, RunMetrics, SweepResults};

/// A JSON value. Objects preserve insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with ordered keys.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from ordered key/value pairs.
    pub fn object(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// An array of `items`.
    pub fn array<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u8> for Json {
    fn from(v: u8) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&Summary> for Json {
    fn from(s: &Summary) -> Json {
        Json::object([
            ("mean", s.mean.into()),
            ("std_dev", s.std_dev.into()),
            ("ci95", s.ci95.into()),
            ("n", s.n.into()),
        ])
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

fn format_number(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral values print without an exponent or trailing zeros.
        format!("{}", v as i64)
    } else {
        // Shortest representation that round-trips, always valid JSON.
        let mut s = format!("{v:?}");
        if let Some(stripped) = s.strip_suffix(".0") {
            s = stripped.to_string();
        }
        s
    }
}

fn write_value(out: &mut String, value: &Json, indent: usize) {
    let pad = "  ".repeat(indent);
    let pad_in = "  ".repeat(indent + 1);
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(v) => out.push_str(&format_number(*v)),
        Json::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Json::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad_in);
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, v)) in fields.iter().enumerate() {
                out.push_str(&pad_in);
                out.push('"');
                escape_into(out, k);
                out.push_str("\": ");
                write_value(out, v, indent + 1);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(&mut out, self, 0);
        f.write_str(&out)
    }
}

impl From<&RunMetrics> for Json {
    fn from(m: &RunMetrics) -> Json {
        let mut fields = vec![
            ("processed".to_string(), Json::from(m.processed)),
            ("committed".to_string(), Json::from(m.committed)),
            ("missed".to_string(), Json::from(m.missed)),
            ("in_progress".to_string(), Json::from(m.in_progress)),
        ];
        // Fault and network fields exist only for distributed runs (the
        // only runs that report `net`), so single-site records keep their
        // historical byte-identical shape.
        if m.net.is_some() {
            fields.push(("faulted".to_string(), Json::from(m.faulted)));
        }
        fields.extend([
            ("pct_missed".to_string(), Json::from(m.pct_missed)),
            ("throughput".to_string(), Json::from(m.throughput)),
            (
                "mean_response_ticks".to_string(),
                Json::from(m.mean_response_ticks),
            ),
            (
                "mean_blocked_ticks".to_string(),
                Json::from(m.mean_blocked_ticks),
            ),
            (
                "blocked_p50_ticks".to_string(),
                Json::from(m.blocked_hist.percentile(50)),
            ),
            (
                "blocked_p95_ticks".to_string(),
                Json::from(m.blocked_hist.percentile(95)),
            ),
            (
                "blocked_p99_ticks".to_string(),
                Json::from(m.blocked_hist.percentile(99)),
            ),
            ("restarts".to_string(), Json::from(m.restarts)),
            ("deadlocks".to_string(), Json::from(m.deadlocks)),
            ("ceiling_blocks".to_string(), Json::from(m.ceiling_blocks)),
            ("preemptions".to_string(), Json::from(m.preemptions)),
            ("remote_messages".to_string(), Json::from(m.remote_messages)),
        ]);
        if let Some(n) = &m.net {
            fields.push((
                "net".to_string(),
                Json::object([
                    ("sent", n.sent.into()),
                    ("delivered", n.delivered.into()),
                    ("dropped_at_send", n.dropped_at_send.into()),
                    ("dropped_in_flight", n.dropped_in_flight.into()),
                    ("duplicated", n.duplicated.into()),
                ]),
            ));
        }
        if let Some(t) = &m.temporal {
            let mut temporal = vec![
                ("snapshot_reads".to_string(), t.snapshot_reads.into()),
                ("unconstructible".to_string(), t.unconstructible.into()),
                ("mean_lag_ticks".to_string(), t.mean_lag_ticks.into()),
                ("max_lag_ticks".to_string(), t.max_lag_ticks.into()),
                (
                    "mean_replica_lag_ticks".to_string(),
                    t.mean_replica_lag_ticks.into(),
                ),
                (
                    "max_replica_lag_ticks".to_string(),
                    t.max_replica_lag_ticks.into(),
                ),
            ];
            // Reader-class fields appear only when a dedicated reader
            // class actually ran, so records from the passive-probing
            // configurations keep their historical byte-identical shape.
            if t.reader_committed + t.reader_missed > 0 {
                temporal.extend([
                    ("reader_committed".to_string(), t.reader_committed.into()),
                    ("reader_missed".to_string(), t.reader_missed.into()),
                    (
                        "reader_miss_percent".to_string(),
                        t.reader_miss_percent().into(),
                    ),
                    ("versions_gced".to_string(), t.versions_gced.into()),
                ]);
            }
            fields.push(("temporal".to_string(), Json::Object(temporal)));
        }
        Json::Object(fields)
    }
}

impl From<&PointResult> for Json {
    fn from(p: &PointResult) -> Json {
        Json::object([
            ("label", Json::from(p.label.clone())),
            ("summary", {
                let blocked = p.blocked_hist();
                Json::object([
                    ("throughput", (&p.throughput()).into()),
                    ("pct_missed", (&p.pct_missed()).into()),
                    ("deadlocks", (&p.deadlocks()).into()),
                    ("restarts", (&p.restarts()).into()),
                    ("blocked_p50_ticks", blocked.percentile(50).into()),
                    ("blocked_p95_ticks", blocked.percentile(95).into()),
                    ("blocked_p99_ticks", blocked.percentile(99).into()),
                ])
            }),
            (
                "runs",
                Json::Array(
                    p.runs
                        .iter()
                        .map(|(seed, m)| {
                            let Json::Object(mut fields) = Json::from(m) else {
                                unreachable!("RunMetrics serialises to an object");
                            };
                            fields.insert(0, ("seed".to_string(), Json::from(*seed)));
                            Json::Object(fields)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl SweepResults {
    /// The deterministic portion of the results: experiment parameters and
    /// every point with its per-seed metrics and summaries. Wall clock and
    /// worker count are *not* included — they vary between hosts — so this
    /// value is byte-identical for any worker count.
    pub fn to_json(&self, experiment: &str, parameters: Vec<(&'static str, Json)>) -> Json {
        Json::object([
            ("experiment", experiment.into()),
            ("parameters", Json::object(parameters)),
            (
                "points",
                Json::Array(self.points.iter().map(Json::from).collect()),
            ),
        ])
    }
}

/// Writes `value` to `results/<name>.json` (plus a trailing newline),
/// creating `results/` under the current directory on first use, and
/// returns the path.
pub fn write_json(name: &str, value: &Json) -> io::Result<PathBuf> {
    fs::create_dir_all("results")?;
    let path = PathBuf::from(format!("results/{name}.json"));
    fs::write(&path, format!("{value}\n"))?;
    Ok(path)
}

/// Writes the standard artifact for one binary: the deterministic sweep
/// JSON, then `extra` top-level fields, then a `workers` /
/// `wall_clock_seconds` pair (last, so the perf-smoke parity diff can
/// keep ignoring just those two keys). Reports the path on stderr, or a
/// warning when the filesystem refuses.
pub fn emit(
    name: &str,
    results: &SweepResults,
    experiment: &str,
    parameters: Vec<(&'static str, Json)>,
    extra: Vec<(&'static str, Json)>,
) {
    let Json::Object(mut fields) = results.to_json(experiment, parameters) else {
        unreachable!("sweep results serialise to an object");
    };
    for (key, value) in extra {
        fields.push((key.to_string(), value));
    }
    fields.push(("workers".to_string(), Json::from(results.workers)));
    fields.push((
        "wall_clock_seconds".to_string(),
        Json::from(results.wall_clock.as_secs_f64()),
    ));
    match write_json(name, &Json::Object(fields)) {
        Ok(path) => eprintln!("results: {}", path.display()),
        Err(e) => eprintln!("warning: could not write results/{name}.json: {e}"),
    }
}

/// Appends one record to `BENCH_SWEEP.json` in the repository root format:
/// a JSON array of `{experiment, runs, events, workers, wall_clock_seconds,
/// events_per_sec}` entries plus flat per-protocol blocking-time tail
/// fields (`blocked_p95_C`, `blocked_p99_local`, … in ticks; the keys stay
/// flat and numeric so `parse_entries` round-trips them). The file is
/// rewritten whole each time.
pub fn record_wall_clock(experiment: &str, results: &SweepResults) -> io::Result<PathBuf> {
    let Json::Object(mut entry_fields) = Json::object([
        ("experiment", experiment.into()),
        ("runs", results.run_count().into()),
        ("events", results.event_count().into()),
        ("workers", results.workers.into()),
        (
            "wall_clock_seconds",
            results.wall_clock.as_secs_f64().into(),
        ),
        ("events_per_sec", results.events_per_sec().into()),
    ]) else {
        unreachable!("Json::object builds an object");
    };
    for (proto, hist) in results.blocked_by_protocol() {
        entry_fields.push((format!("blocked_p50_{proto}"), hist.percentile(50).into()));
        entry_fields.push((format!("blocked_p95_{proto}"), hist.percentile(95).into()));
        entry_fields.push((format!("blocked_p99_{proto}"), hist.percentile(99).into()));
    }
    if let Some(n) = results.net_totals() {
        entry_fields.push(("net_sent".to_string(), n.sent.into()));
        entry_fields.push(("net_delivered".to_string(), n.delivered.into()));
        entry_fields.push(("net_dropped_at_send".to_string(), n.dropped_at_send.into()));
        entry_fields.push((
            "net_dropped_in_flight".to_string(),
            n.dropped_in_flight.into(),
        ));
        entry_fields.push(("net_duplicated".to_string(), n.duplicated.into()));
    }
    record_wall_clock_entry(experiment, entry_fields)
}

/// The generic half of [`record_wall_clock`]: replaces (or appends) the
/// `BENCH_SWEEP.json` entry named `experiment` with one built from
/// caller-supplied fields. An `experiment` field is prepended
/// automatically; keep host-varying fields (`workers`,
/// `wall_clock_seconds`) named exactly that so downstream tooling can
/// ignore them uniformly. Used by binaries whose results are not a
/// [`SweepResults`] — the live backend's `fig_live`, for example.
pub fn record_wall_clock_entry(
    experiment: &str,
    fields: Vec<(String, Json)>,
) -> io::Result<PathBuf> {
    let path = Path::new("BENCH_SWEEP.json").to_path_buf();
    let mut entry_fields = fields;
    if !entry_fields.iter().any(|(k, _)| k == "experiment") {
        entry_fields.insert(0, ("experiment".to_string(), experiment.into()));
    }
    let entry = Json::Object(entry_fields);
    // Keep prior entries when the file already holds a JSON array of
    // objects; anything unparsable starts fresh.
    let mut entries = match fs::read_to_string(&path) {
        Ok(text) => parse_entries(&text),
        Err(_) => Vec::new(),
    };
    entries.retain(|e| {
        !matches!(e, Json::Object(fields)
            if fields.iter().any(|(k, v)| k == "experiment" && v == &Json::Str(experiment.to_string())))
    });
    entries.push(entry);
    fs::write(&path, format!("{}\n", Json::Array(entries)))?;
    Ok(path)
}

/// Minimal recovery parse for [`record_wall_clock`]: extracts the
/// `{...}` entries of a one-entry-per-line array this module wrote. Not a
/// general JSON parser — a foreign file simply resets the record.
fn parse_entries(text: &str) -> Vec<Json> {
    let mut entries = Vec::new();
    let mut current: Option<Vec<(String, Json)>> = None;
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if t == "{" {
            current = Some(Vec::new());
        } else if t == "}" {
            if let Some(fields) = current.take() {
                entries.push(Json::Object(fields));
            }
        } else if let Some(fields) = current.as_mut() {
            if let Some((k, v)) = t.split_once(':') {
                let key = k.trim().trim_matches('"').to_string();
                let val = v.trim();
                let parsed = if let Some(s) = val.strip_prefix('"') {
                    Json::Str(s.trim_end_matches('"').to_string())
                } else if let Ok(n) = val.parse::<f64>() {
                    Json::Num(n)
                } else {
                    continue;
                };
                fields.push((key, parsed));
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_renders_deterministically() {
        let v = Json::object([
            ("name", "fig\"2\"".into()),
            ("points", Json::Array(vec![1.5f64.into(), 2u32.into()])),
            ("none", Json::Null),
            ("flag", true.into()),
        ]);
        let text = v.to_string();
        assert_eq!(text, v.to_string());
        assert!(text.contains("\"name\": \"fig\\\"2\\\"\""));
        assert!(text.contains("1.5"));
        assert!(text.contains("\"none\": null"));
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(format_number(4.0), "4");
        assert_eq!(format_number(0.25), "0.25");
        assert_eq!(format_number(f64::NAN), "null");
        assert_eq!(format_number(f64::INFINITY), "null");
        assert_eq!(format_number(-3.0), "-3");
    }

    #[test]
    fn summary_serialises_all_fields() {
        let s = Summary::of(&[1.0, 3.0]);
        let j = Json::from(&s);
        let text = j.to_string();
        for key in ["mean", "std_dev", "ci95", "\"n\""] {
            assert!(text.contains(key), "{key} missing in {text}");
        }
    }

    #[test]
    fn parse_entries_round_trips_own_format() {
        let entries = vec![
            Json::object([("experiment", "fig2".into()), ("runs", 10u32.into())]),
            Json::object([("experiment", "fig3".into()), ("runs", 20u32.into())]),
        ];
        let text = format!("{}\n", Json::Array(entries.clone()));
        let parsed = parse_entries(&text);
        assert_eq!(parsed, entries);
    }
}
