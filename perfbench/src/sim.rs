//! Simulator workloads. The benchmark times its own calls into
//! `Generator::generate` and into the simulators' `run_transactions*_with`
//! entry points, which receive only the generated transactions; the
//! counts come from `RunReport`'s stable fields and from the event stream.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use monitor::{CheckConfig, SimEvent, SimEventKind};
use rtdb::{Catalog, LockMode, ObjectId, Placement, TxnId, TxnSpec};
use rtlock::distributed::{run_transactions_distributed_with, DistributedConfig};
use rtlock::single_site::run_transactions_with;
use rtlock::{ProtocolKind, SingleSiteConfig};
use rtlock_bench::harness::SimSpec;
use rtlock_bench::params;
use starlite::{EventSink, NullSink, Priority, SimDuration};
use workload::{Generator, SizeDistribution, WorkloadSpec};

use crate::heap;
use crate::metrics::{self, median, quantile, ratio, Outcome, MIB};
use crate::observe::{Layers, Observer};
use crate::workloads::protocol_label;

/// One grid cell, ready to generate and run.
struct Cell {
    label: String,
    /// The per-protocol throughput metric the cell counts towards
    /// (single-site cells only).
    split: Option<&'static str>,
    catalog: Catalog,
    spec: WorkloadSpec,
    config: Config,
    check: CheckConfig,
}

enum Config {
    Single(SingleSiteConfig),
    Distributed(DistributedConfig),
}

/// The outcome counts of one run. Tracing must not change any of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counts {
    txns: u64,
    processed: u64,
    committed: u64,
    missed: u64,
    faulted: u64,
    in_progress: u64,
    restarts: u64,
    kernel_events: u64,
    snapshot_reads: u64,
    unconstructible: u64,
}

impl Counts {
    /// The per-run output checks: every transaction drained, and the
    /// accounting closes.
    fn ok(&self) -> bool {
        self.in_progress == 0
            && self.processed == self.txns
            && self.processed == self.committed + self.missed + self.faulted
    }
}

impl Cell {
    /// Builds the cell's catalog, workload spec and configuration the way
    /// the figure binaries' sweep harness does.
    fn new(label: &str, sim: &SimSpec) -> Cell {
        let check = rtlock_bench::check::config_for(sim);
        match sim {
            SimSpec::SingleSite(s) => {
                let spec = WorkloadSpec::builder()
                    .txn_count(s.txn_count)
                    .mean_interarrival(s.interarrival)
                    .size(s.size)
                    .read_only_fraction(s.read_only_fraction)
                    .write_fraction(0.5)
                    .scan_readers(s.scan_readers)
                    .deadline(s.slack_factor, s.deadline_per_object)
                    .build();
                let mut builder = SingleSiteConfig::builder()
                    .protocol(s.protocol)
                    .cpu_per_object(params::CPU_PER_OBJECT)
                    .io_per_object(s.io_per_object)
                    .victim_policy(s.victim_policy)
                    .restart_victims(s.restart_victims)
                    .lock_granularity(s.lock_granularity);
                if let Some(channels) = s.io_parallelism {
                    builder = builder.io_parallelism(channels);
                }
                if let Some(m) = s.mvcc {
                    builder = builder.mvcc(m);
                }
                Cell {
                    label: label.to_string(),
                    split: Some(split_metric(s.protocol)),
                    catalog: Catalog::new(s.db_size, 1, Placement::SingleSite),
                    spec,
                    config: Config::Single(builder.build()),
                    check,
                }
            }
            SimSpec::Distributed(s) => {
                let spec = WorkloadSpec::builder()
                    .txn_count(s.txn_count)
                    .mean_interarrival(params::dist_interarrival())
                    .size(SizeDistribution::Uniform {
                        min: params::DIST_SIZE_MIN,
                        max: params::DIST_SIZE_MAX,
                    })
                    .read_only_fraction(s.read_only_fraction)
                    .write_fraction(0.5)
                    .deadline(params::DIST_SLACK_FACTOR, params::CPU_PER_OBJECT)
                    .build();
                let config = DistributedConfig::builder()
                    .architecture(s.architecture)
                    .comm_delay(SimDuration::from_ticks(
                        params::TIME_UNIT.ticks() * s.delay_units as u64,
                    ))
                    .cpu_per_object(params::CPU_PER_OBJECT)
                    .apply_cost(params::APPLY_COST)
                    .build();
                Cell {
                    label: label.to_string(),
                    split: None,
                    catalog: Catalog::new(
                        params::DIST_DB_SIZE,
                        params::DIST_SITES,
                        Placement::FullyReplicated,
                    ),
                    spec,
                    config: Config::Distributed(config),
                    check,
                }
            }
        }
    }

    fn generate(&self, seed: u64) -> Vec<TxnSpec> {
        Generator::new(&self.spec, &self.catalog).generate(seed)
    }

    /// Runs the transactions to completion; the report is dropped inside,
    /// so a caller's timer covers everything a user of the run waits for.
    fn run<S: EventSink<SimEvent>>(&self, txns: Vec<TxnSpec>, sink: S) -> Counts {
        let n = txns.len() as u64;
        let report = match &self.config {
            Config::Single(c) => run_transactions_with(*c, &self.catalog, txns, sink),
            Config::Distributed(c) => {
                run_transactions_distributed_with(c.clone(), &self.catalog, txns, sink)
            }
        };
        let s = &report.stats;
        Counts {
            txns: n,
            processed: s.processed.into(),
            committed: s.committed.into(),
            missed: s.missed.into(),
            faulted: s.faulted.into(),
            in_progress: s.in_progress.into(),
            restarts: s.restarts.into(),
            kernel_events: report.events,
            snapshot_reads: report.temporal.map_or(0, |t| t.snapshot_reads),
            unconstructible: report.temporal.map_or(0, |t| t.unconstructible),
        }
    }
}

/// The per-protocol throughput metric of a single-site protocol.
fn split_metric(p: ProtocolKind) -> &'static str {
    match protocol_label(p) {
        "L" => "protocols.L.txns_per_s",
        "P" => "protocols.P.txns_per_s",
        "PI" => "protocols.PI.txns_per_s",
        _ => "protocols.C.txns_per_s",
    }
}

/// The workload seed of one slice: the same `--seed` always yields the
/// same inputs.
fn slice_seed(seed: u64, slice: u64) -> u64 {
    seed.wrapping_mul(1_000_000).wrapping_add(slice)
}

/// Runs the unmeasured warm-up slice (slice 0) and checks the fingerprint
/// when one is given; returns the transactions it ran and the sum over its
/// runs of each run's peak heap growth.
fn warm_up(
    cells: &[Cell],
    seed: u64,
    fingerprint: Option<[u64; 3]>,
    out: &mut Outcome,
) -> (u64, u64) {
    let (mut sum, mut txns, mut heap) = ([0u64; 3], 0, 0);
    for cell in cells {
        let (counts, peak) =
            heap::peak_during(|| cell.run(cell.generate(slice_seed(seed, 0)), NullSink));
        tally(out, counts);
        sum[0] += counts.committed;
        sum[1] += counts.missed;
        sum[2] += counts.faulted;
        txns += counts.txns;
        heap += peak;
    }
    if let Some(expected) = fingerprint {
        if sum != expected {
            eprintln!(
                "fingerprint mismatch: [committed, missed, faulted] {sum:?}, expected {expected:?}"
            );
            out.correct = false;
        }
    }
    out.notes.push(format!(
        "warm-up outcome counts [committed, missed, faulted] = {sum:?}"
    ));
    (txns, heap)
}

fn tally(out: &mut Outcome, counts: Counts) {
    out.attempted += 1;
    if !counts.ok() {
        eprintln!("run failed its output checks: {counts:?}");
        out.failed += 1;
    }
}

fn prepare(cells: &[(String, SimSpec)]) -> Vec<Cell> {
    cells
        .iter()
        .map(|(label, sim)| Cell::new(label, sim))
        .collect()
}

/// The timings of one measured slice.
struct Slice {
    generate: Duration,
    txns_per_s: f64,
    /// Median and 99th percentile of the slice's run wall times, in µs.
    run_p50_us: f64,
    run_p99_us: f64,
}

/// The untraced run: end-to-end metrics over the faster half of as many
/// slices as fit in `budget` (at least one).
pub fn measure(
    grid: &[(String, SimSpec)],
    seed: u64,
    budget: Duration,
    fingerprint: Option<[u64; 3]>,
) -> Outcome {
    let cells = prepare(grid);
    let mut out = Outcome::new();
    let (_, heap) = warm_up(&cells, seed, fingerprint, &mut out);
    out.set("peak_heap_mib", heap as f64 / cells.len() as f64 / MIB);

    let mut slices = Vec::new();
    let start = Instant::now();
    while slices.is_empty() || start.elapsed() < budget {
        let (mut generate, mut run, mut txns) = (Duration::ZERO, Duration::ZERO, 0);
        let mut runs_us = Vec::with_capacity(cells.len());
        for cell in &cells {
            let t = Instant::now();
            let inputs = cell.generate(slice_seed(seed, slices.len() as u64 + 1));
            generate += t.elapsed();
            let t = Instant::now();
            let counts = cell.run(inputs, NullSink);
            let wall = t.elapsed();
            run += wall;
            runs_us.push(wall.as_nanos() as f64 / 1e3);
            txns += counts.processed;
            tally(&mut out, counts);
        }
        slices.push(Slice {
            generate,
            txns_per_s: txns as f64 / run.as_secs_f64(),
            run_p50_us: quantile(&runs_us, 0.50),
            run_p99_us: quantile(&runs_us, 0.99),
        });
    }
    let measured = slices.len();
    let kept = metrics::faster_half(slices, |s| s.txns_per_s);
    let of = |f: fn(&Slice) -> f64| median(&kept.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", of(|s| s.generate.as_secs_f64()));
    out.set("txns_per_s", of(|s| s.txns_per_s));
    out.set("latency_p50_us", of(|s| s.run_p50_us));
    out.set("latency_p99_us", of(|s| s.run_p99_us));
    out.notes.push(format!(
        "{measured} measured slices ({} runs each), the faster {} kept",
        cells.len(),
        kept.len()
    ));
    out
}

/// The traced run: per-layer metrics. Slices run first with the
/// benchmark's sink attached for `budget` (at least one), then the same
/// slices again untraced; the outcome counts of the two passes must match
/// exactly, and the traced pass must be oracle-clean.
pub fn trace(
    grid: &[(String, SimSpec)],
    seed: u64,
    budget: Duration,
    fingerprint: Option<[u64; 3]>,
) -> Outcome {
    let cells = prepare(grid);
    let mut out = Outcome::new();
    let (warm_txns, warm_heap) = warm_up(&cells, seed, fingerprint, &mut out);

    let mut layers = Layers::default();
    let mut traced = Vec::new();
    let mut traced_wall = Duration::ZERO;
    let mut generate = Vec::new();
    let start = Instant::now();
    let mut slice = 1;
    while slice == 1 || start.elapsed() < budget {
        let slice_span = out.spans.open("slice", &format!("slice {slice}"), None);
        let mut slice_generate = Duration::ZERO;
        for cell in &cells {
            let t = Instant::now();
            let inputs = cell.generate(slice_seed(seed, slice));
            let elapsed = t.elapsed();
            slice_generate += elapsed;
            out.spans.push(
                "workload.generate",
                &cell.label,
                Some(slice_span),
                t,
                elapsed,
            );
            let run_span = out.spans.open("sim.run", &cell.label, Some(slice_span));
            let t = Instant::now();
            let mut observer = Observer::new(cell.check);
            let counts = cell.run(inputs, observer.sink());
            let check = observer.finish(&cell.label, &mut layers);
            traced_wall += t.elapsed();
            out.spans.close(run_span);
            out.spans
                .push("monitor.check", &cell.label, Some(run_span), t, check);
            tally(&mut out, counts);
            traced.push(counts);
        }
        out.spans.close(slice_span);
        generate.push(slice_generate.as_secs_f64());
        slice += 1;
    }

    // The same slices untraced: the comparison, the kernel rate and the
    // per-protocol split.
    let mut untraced_wall = Duration::ZERO;
    let mut by_protocol: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    let mut traced_runs = traced.iter();
    for s in 1..slice {
        for cell in &cells {
            let inputs = cell.generate(slice_seed(seed, s));
            let t = Instant::now();
            let counts = cell.run(inputs, NullSink);
            let wall = t.elapsed();
            untraced_wall += wall;
            if let Some(metric) = cell.split {
                let entry = by_protocol.entry(metric).or_default();
                entry.0 += counts.processed;
                entry.1 += wall;
            }
            let with_sink = traced_runs.next().expect("one traced run per untraced run");
            if *with_sink != counts {
                eprintln!(
                    "tracing changed the outcome of {}: traced {with_sink:?}, untraced {counts:?}",
                    cell.label
                );
                out.correct = false;
            }
        }
    }
    if layers.violations > 0 {
        out.correct = false;
    }

    let total = |f: fn(&Counts) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let txns = total(|c| c.processed);
    let per_txn = |n: f64| ratio(n, txns);
    let (t, o) = (TxnId(0), ObjectId(0));
    let mode = LockMode::Read;
    out.set("workload.generate_s", median(&generate));
    out.set(
        "starlite.events_per_s",
        ratio(total(|c| c.kernel_events), untraced_wall.as_secs_f64()),
    );
    out.set(
        "starlite.events_per_txn",
        per_txn(total(|c| c.kernel_events)),
    );
    out.set(
        "starlite.dispatches_per_txn",
        per_txn(layers.count(SimEventKind::Dispatched { txn: t })),
    );
    out.set(
        "starlite.preemptions_per_txn",
        per_txn(layers.count(SimEventKind::Preempted { txn: t })),
    );
    let requests = layers.count(SimEventKind::LockRequested {
        txn: t,
        object: o,
        mode,
    });
    out.set("rtdb.lock_requests_per_txn", per_txn(requests));
    out.set(
        "rtdb.lock_block_ratio",
        ratio(
            layers.count(SimEventKind::LockBlocked {
                txn: t,
                object: o,
                mode,
                blocker: None,
            }),
            requests,
        ),
    );
    out.set(
        "rtdb.lock_upgrades_per_txn",
        per_txn(layers.count(SimEventKind::LockUpgraded { txn: t, object: o })),
    );
    out.set(
        "rtdb.blocked_ticks_p50",
        layers.blocking.percentile(50) as f64,
    );
    out.set(
        "rtdb.blocked_ticks_p99",
        layers.blocking.percentile(99) as f64,
    );
    let latches = layers.count(SimEventKind::RangeLatchAcquired {
        txn: t,
        lo: o,
        hi: o,
        mode,
    });
    out.set("rtdb.latch_acquires_per_txn", per_txn(latches));
    out.set(
        "rtdb.latch_block_ratio",
        ratio(
            layers.count(SimEventKind::RangeLatchBlocked {
                txn: t,
                lo: o,
                hi: o,
                blocker: None,
            }),
            latches,
        ),
    );
    out.set(
        "protocols.ceiling_blocks_per_txn",
        per_txn(layers.count(SimEventKind::CeilingBlocked {
            txn: t,
            object: o,
            blocker: None,
        })),
    );
    out.set(
        "protocols.inherits_per_txn",
        per_txn(layers.count(SimEventKind::PriorityInherited {
            txn: t,
            priority: Priority::MIN,
        })),
    );
    out.set(
        "protocols.deadlocks_per_txn",
        per_txn(layers.count(SimEventKind::DeadlockDetected { victim: t })),
    );
    out.set(
        "protocols.restarts_per_commit",
        ratio(total(|c| c.restarts), total(|c| c.committed)),
    );
    out.set("protocols.miss_pct", 100.0 * per_txn(total(|c| c.missed)));
    for (metric, (processed, wall)) in by_protocol {
        out.set(metric, ratio(processed as f64, wall.as_secs_f64()));
    }
    out.set(
        "mvcc.installs_per_txn",
        per_txn(layers.count(SimEventKind::VersionInstalled {
            object: o,
            version: 0,
            writer: t,
        })),
    );
    out.set(
        "mvcc.snapshot_reads_per_txn",
        per_txn(layers.count(SimEventKind::SnapshotRead {
            txn: t,
            object: o,
            version: 0,
        })),
    );
    out.set(
        "mvcc.gc_evictions_per_txn",
        per_txn(layers.count(SimEventKind::VersionGced {
            object: o,
            through: 0,
        })),
    );
    out.set(
        "mvcc.unconstructible_ratio",
        ratio(total(|c| c.unconstructible), total(|c| c.snapshot_reads)),
    );
    let site = rtdb::SiteId(0);
    let sent = layers.count(SimEventKind::MsgSent {
        from: site,
        to: site,
    });
    out.set("netsim.msgs_per_txn", per_txn(sent));
    out.set(
        "netsim.delivered_ratio",
        ratio(
            layers.count(SimEventKind::MsgDelivered {
                from: site,
                to: site,
            }),
            sent,
        ),
    );
    out.set(
        "netsim.rpc_retries_per_txn",
        per_txn(layers.count(SimEventKind::RpcRetried { txn: t, attempt: 0 })),
    );
    out.set(
        "twopc.rounds_per_txn",
        per_txn(layers.count(SimEventKind::TwoPcStarted {
            txn: t,
            participants: 0,
        })),
    );
    out.set("monitor.events_per_txn", per_txn(layers.events as f64));
    out.set("monitor.check_ns_per_event", layers.check_ns_per_event());
    out.set(
        "monitor.trace_slowdown",
        ratio(traced_wall.as_secs_f64(), untraced_wall.as_secs_f64()),
    );
    out.set("monitor.violations", layers.violations as f64);
    out.set(
        "sim.bytes_per_txn",
        ratio(warm_heap as f64, warm_txns as f64),
    );
    out.notes.push(format!(
        "{} traced slices, {} runs, {} events through the oracle",
        slice - 1,
        traced.len(),
        layers.events
    ));
    out
}
