//! Metric names and units, the statistics the benchmark reports them
//! with, and the in-memory span trace.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rtlock_bench::results::Json;

/// End-to-end metrics: what a user of the simulator or of the live lock
/// manager waits for. Every workload reports every one, untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("txns_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, named `<layer>.<metric>` after the repository's
/// modules. Every workload reports every one from its traced run; a layer
/// the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workload.generate_s", "s"),
    ("starlite.events_per_s", "1/s"),
    ("starlite.events_per_txn", "count"),
    ("starlite.dispatches_per_txn", "count"),
    ("starlite.preemptions_per_txn", "count"),
    ("rtdb.lock_requests_per_txn", "count"),
    ("rtdb.lock_block_ratio", "ratio"),
    ("rtdb.lock_upgrades_per_txn", "count"),
    ("rtdb.blocked_ticks_p50", "ticks"),
    ("rtdb.blocked_ticks_p99", "ticks"),
    ("rtdb.latch_acquires_per_txn", "count"),
    ("rtdb.latch_block_ratio", "ratio"),
    ("protocols.ceiling_blocks_per_txn", "count"),
    ("protocols.inherits_per_txn", "count"),
    ("protocols.deadlocks_per_txn", "count"),
    ("protocols.restarts_per_commit", "ratio"),
    ("protocols.miss_pct", "%"),
    ("protocols.L.txns_per_s", "1/s"),
    ("protocols.P.txns_per_s", "1/s"),
    ("protocols.PI.txns_per_s", "1/s"),
    ("protocols.C.txns_per_s", "1/s"),
    ("mvcc.installs_per_txn", "count"),
    ("mvcc.snapshot_reads_per_txn", "count"),
    ("mvcc.gc_evictions_per_txn", "count"),
    ("mvcc.unconstructible_ratio", "ratio"),
    ("netsim.msgs_per_txn", "count"),
    ("netsim.delivered_ratio", "ratio"),
    ("netsim.rpc_retries_per_txn", "count"),
    ("twopc.rounds_per_txn", "count"),
    ("monitor.events_per_txn", "count"),
    ("monitor.check_ns_per_event", "ns"),
    ("monitor.trace_slowdown", "x"),
    ("monitor.violations", "count"),
    ("sim.bytes_per_txn", "B"),
    ("live.lock_path_ns_per_op", "ns"),
    ("live.scaling_2v1", "x"),
    ("live.lock_wait_us_p50", "us"),
    ("live.lock_wait_us_p99", "us"),
    ("live.block_ratio", "ratio"),
    ("live.restarts_per_commit", "ratio"),
    ("live.ceiling_blocks_per_txn", "count"),
    ("live.busy_share", "ratio"),
    ("live.events_per_txn", "count"),
    ("live.post_run_s", "s"),
    ("live.2PL.commits_per_s", "1/s"),
    ("live.2PL-P.commits_per_s", "1/s"),
    ("live.PI.commits_per_s", "1/s"),
    ("live.PCP.commits_per_s", "1/s"),
];

/// What one workload run produced: the output-check verdict, the
/// operation counts and the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: simulator runs, or live transactions.
    pub attempted: u64,
    /// Operations that failed: simulator runs failing a check, or live
    /// transactions that missed their deadline or were never processed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Lines printed before the metrics (sample counts and the like).
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub spans: Spans,
}

impl Outcome {
    /// An outcome with no operations yet and no failed check.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Sets a metric that one of the two tables declares.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table declares (a typo in the benchmark).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// Bytes per MiB.
pub const MIB: f64 = (1 << 20) as f64;

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The faster half (rounded up) of a run's slices or rounds, by `rate`.
///
/// The machines this runs on are shared: bursts of foreign load slow
/// everything by up to half for a second or so at a time. Every slice runs
/// the same mix, so the program's own cost is the same in each; keeping the
/// faster half means a burst covering less than half the run moves no
/// end-to-end metric, while a slower program still slows every slice.
pub fn faster_half<T>(mut samples: Vec<T>, rate: impl Fn(&T) -> f64) -> Vec<T> {
    samples.sort_by(|a, b| rate(b).total_cmp(&rate(a)));
    samples.truncate(samples.len().div_ceil(2));
    samples
}

/// Median of the samples (mean of the two middle ones for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The `q` quantile (0–1) of the samples, interpolating linearly between
/// order statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q` quantile (0–1) of whole-microsecond samples. Live event stamps
/// are truncated to whole microseconds, so each sample `v` stands for a
/// time in `[v, v + 1)`: the quantile interpolates within that interval
/// by the sample's rank among its equals. Without this, a median of a few
/// microseconds would read the same integer on every run.
pub fn quantile_whole_us(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let target = q * samples.len() as f64;
    let idx = (target as usize).min(samples.len() - 1);
    let v = samples[idx];
    let first = samples.partition_point(|&s| s < v);
    let end = samples.partition_point(|&s| s <= v);
    v as f64 + (target - first as f64).clamp(0.0, (end - first) as f64) / (end - first) as f64
}

/// Spans recorded by a traced run, kept in memory and written at exit.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

#[derive(Debug)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    label: String,
    start: Duration,
    duration: Duration,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Opens a span starting now; [`Spans::close`] ends it.
    pub fn open(&mut self, name: &'static str, label: &str, parent: Option<usize>) -> usize {
        self.push(name, label, parent, Instant::now(), Duration::ZERO)
    }

    /// Ends the span `id` now.
    pub fn close(&mut self, id: usize) {
        let span = &mut self.spans[id - 1];
        span.duration = (self.epoch + span.start).elapsed();
    }

    /// Records a span that started at `start` and lasted `duration`, and
    /// returns its id. A span whose time accumulated over many calls (the
    /// oracle's) is recorded as one span starting where its parent does.
    pub fn push(
        &mut self,
        name: &'static str,
        label: &str,
        parent: Option<usize>,
        start: Instant,
        duration: Duration,
    ) -> usize {
        self.spans.push(Span {
            parent,
            name,
            label: label.to_string(),
            start: start.saturating_duration_since(self.epoch),
            duration,
        });
        self.spans.len()
    }

    /// The trace as JSON: every span with its id, parent, start, duration
    /// and self time (duration minus what its children cover).
    pub fn to_json(&self, workload: &str) -> Json {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p - 1] += s.duration;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::object([
                    ("id", (i + 1).into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("name", s.name.into()),
                    ("label", s.label.as_str().into()),
                    ("start_us", micros(s.start).into()),
                    ("dur_us", micros(s.duration).into()),
                    (
                        "self_us",
                        micros(s.duration.saturating_sub(child_time[i])).into(),
                    ),
                ])
            })
            .collect();
        Json::object([("workload", workload.into()), ("spans", Json::Array(spans))])
    }
}

fn micros(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn faster_half_keeps_the_highest_rates() {
        assert_eq!(
            faster_half(vec![3, 9, 1, 7, 5], |&x| x as f64),
            vec![9, 7, 5]
        );
        assert_eq!(faster_half(vec![2], |&x| x as f64), vec![2]);
    }

    #[test]
    fn whole_us_quantile_spreads_ties_over_their_microsecond() {
        let mut samples = vec![2, 2, 2, 2, 3, 3, 3, 3];
        // Half the mass sits in [2, 3), half in [3, 4).
        assert_eq!(quantile_whole_us(&mut samples, 0.5), 3.0);
        assert_eq!(quantile_whole_us(&mut samples, 0.25), 2.5);
        assert_eq!(quantile_whole_us(&mut samples, 0.75), 3.5);
        assert_eq!(quantile_whole_us(&mut samples, 1.0), 4.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let t = Instant::now();
        let root = spans.push("slice", "", None, t, Duration::from_micros(10));
        spans.push("sim.run", "", Some(root), t, Duration::from_micros(4));
        let json = spans.to_json("w").to_string();
        assert!(json.contains("\"self_us\": 6"), "{json}");
    }
}
