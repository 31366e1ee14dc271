//! # monitor — the performance monitor
//!
//! The paper's Performance Monitor "interacts with the transaction managers
//! to record priority/timestamp and read/write data set for each
//! transaction, time when each event occurred, statistics for each
//! transaction in each node", including "arrival time, start time, total
//! processing time, blocked interval, whether deadline was missed or not,
//! and the number of aborts". This crate is that component:
//!
//! * [`aggregate`] — per-run metrics, folded by [`aggregate::StatsFold`]
//!   as transactions finish: the paper's normalised throughput (data
//!   objects accessed per second by successful transactions) and the
//!   percentage of deadline-missing transactions, `%missed = 100 ×
//!   missed / processed`;
//! * [`ci`] — mean / standard deviation / 95 % confidence intervals over
//!   the 10-seed replication the paper averages over;
//! * [`csv`] — tabular export of experiment series;
//! * [`events`] — the unified structured event model ([`events::SimEvent`])
//!   with the metrics and Chrome-trace sinks;
//! * [`check`] — the online invariant oracle ([`check::CheckSink`]):
//!   serialisability, ceiling properties, lock legality, accounting/2PC
//!   and replica coherence checked continuously against the event stream;
//! * [`hist`] — log-scaled (HDR-style) histograms for blocking / latency
//!   tails;
//! * [`profile`] — the contention profiler ([`profile::ContentionProfiler`]):
//!   blocked time attributed per object, blocker edge and priority band,
//!   blocking-chain depth, per-site RPC latency/retries, and the closed
//!   episodes themselves ([`profile::Episode`]);
//! * [`timeseries`] — fixed-width windowed telemetry
//!   ([`timeseries::TimeSeriesSink`]) exported as JSONL/CSV trajectories;
//! * [`jsonl`] — the persistent replayable trace format
//!   ([`jsonl::JsonlSink`] writer + [`jsonl::read_jsonl`] loader,
//!   round-trip exact).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aggregate;
pub mod check;
pub mod ci;
pub mod csv;
pub mod events;
pub mod hist;
pub mod jsonl;
pub mod plot;
pub mod profile;
pub mod timeseries;

pub use aggregate::{RunStats, StatsFold};
pub use check::{CheckConfig, CheckSink, Violation};
pub use ci::Summary;
pub use events::{
    AbortReason, ChromeTraceSink, EpisodeEdge, MetricsSink, SimEvent, SimEventKind, Via,
    EVENT_KIND_COUNT,
};
pub use hist::Histogram;
pub use jsonl::{read_jsonl, JsonlSink};
pub use profile::{ContentionProfiler, ContentionReport};
pub use timeseries::TimeSeriesSink;
