//! # rtlock-bench — the experiment harness
//!
//! Every sweep binary (`fig2` … `fig6`, the eight ablations,
//! `all_figures`, `fig_scale`, `fig_temporal`) is one declaration: an
//! [`experiment::Experiment`] naming its grid, its results title and
//! parameters, and a report that renders its table and claims. One
//! runner ([`experiment::Experiment::run`]) parses the flags once
//! ([`cli`]), runs the grid, writes the requested traces and profiles,
//! prints the report and writes `results/<name>.json`.
//!
//! * [`params`] — the calibrated constants every figure shares (documented
//!   in `EXPERIMENTS.md`);
//! * [`single_site`] — the §3 grid behind Figures 2 and 3;
//! * [`distributed`] — the §4 grids behind Figures 4, 5 and 6;
//! * [`ablation`] — the design-choice studies the paper raises but does
//!   not plot (read/write vs exclusive ceiling semantics, inheritance
//!   without ceilings, deadlock victim policies);
//! * [`harness`] — the deterministic parallel sweep executor every grid
//!   runs on;
//! * [`experiment`] — the declaration and the runner: `--check`,
//!   `--trace`, `--profile`, `--timeseries`, `--record`, results and
//!   `BENCH_SWEEP.json`;
//! * [`cli`] — the one argument parser (bad input exits 2);
//! * [`check`] — the oracle configuration of each run spec;
//! * [`observe`] — profile JSON, contention summaries and miss
//!   explanations from the contention profiler (queried offline by the
//!   `rtlock-inspect` binary);
//! * [`results`] — JSON artifacts written to `results/` alongside the
//!   ASCII tables.

#![warn(missing_docs)]

pub mod ablation;
pub mod check;
pub mod cli;
pub mod distributed;
pub mod experiment;
pub mod harness;
pub mod observe;
pub mod params;
pub mod results;
pub mod single_site;
