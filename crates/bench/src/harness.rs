//! Deterministic parallel sweep execution.
//!
//! Every figure and ablation binary describes its experiment as a grid of
//! [`RunSpec`]s — one fully self-contained simulation run each — and hands
//! the grid to [`Sweep::run`], which fans the runs over a fixed-size pool
//! of worker threads and reassembles the results in grid order.
//!
//! Determinism: a run's result is a pure function of its spec. The seed is
//! part of the spec (replicate `k` of a point always runs seed `k`), each
//! worker builds its own simulator, and results are written back by grid
//! index, so the assembled [`SweepResults`] are identical for any worker
//! count and any completion order. The tier-1 suite pins this property by
//! comparing the serialised results of a 1-worker and an N-worker
//! execution byte for byte.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use monitor::{CheckSink, Histogram, SimEvent, Summary, Violation};
use netsim::{FaultPlan, NetStats};
use rtdb::{Catalog, Placement};
use rtlock::distributed::{CeilingArchitecture, DistributedConfig, DistributedSimulator};
use rtlock::{ProtocolKind, RunReport, Simulator, SingleSiteConfig, VictimPolicy};
use starlite::{EventSink, NullSink, SimDuration};
use workload::{SizeDistribution, WorkloadSpec};

use crate::params;

/// Complete description of one single-site simulation run.
#[derive(Debug, Clone)]
pub struct SingleSiteSpec {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Transaction size distribution.
    pub size: SizeDistribution,
    /// Mean exponential interarrival time.
    pub interarrival: SimDuration,
    /// Fraction of read-only transactions.
    pub read_only_fraction: f64,
    /// Transactions per run.
    pub txn_count: u32,
    /// I/O latency per object.
    pub io_per_object: SimDuration,
    /// I/O channels; `None` = unbounded (the paper's parallel-I/O
    /// assumption).
    pub io_parallelism: Option<usize>,
    /// Objects per lock granule.
    pub lock_granularity: u32,
    /// Deadlock victim selection.
    pub victim_policy: VictimPolicy,
    /// Whether deadlock victims restart instead of aborting outright.
    pub restart_victims: bool,
    /// Deadline slack factor.
    pub slack_factor: f64,
    /// Nominal per-object cost the deadline rule multiplies.
    pub deadline_per_object: SimDuration,
    /// Database size (objects). The figure configurations use the paper's
    /// [`params::DB_SIZE`]; the `fig_scale` stress sweep overrides this to
    /// exercise the simulator far beyond the paper's scale.
    pub db_size: u32,
    /// Reader service class and version retention (`fig_temporal`);
    /// `None` = classic single-version locking for every transaction.
    pub mvcc: Option<rtlock::MvccConfig>,
    /// Read-only transactions scan contiguous object ranges instead of
    /// sampling uniformly (the shape range latches are built for).
    pub scan_readers: bool,
}

impl SingleSiteSpec {
    /// The canonical Figure 2/3 configuration at one fixed size: all-update
    /// mix, calibrated interarrival, victims aborted outright.
    pub fn figure(protocol: ProtocolKind, size: u32, txn_count: u32) -> Self {
        let per_object_cost =
            SimDuration::from_ticks(params::CPU_PER_OBJECT.ticks() + params::IO_PER_OBJECT.ticks());
        SingleSiteSpec {
            protocol,
            size: SizeDistribution::Fixed(size),
            interarrival: params::interarrival_for(size),
            read_only_fraction: 0.0,
            txn_count,
            io_per_object: params::IO_PER_OBJECT,
            io_parallelism: None,
            lock_granularity: 1,
            victim_policy: VictimPolicy::LowestPriority,
            restart_victims: false,
            slack_factor: params::SLACK_FACTOR,
            deadline_per_object: per_object_cost,
            db_size: params::DB_SIZE,
            mvcc: None,
            scan_readers: false,
        }
    }

    /// The ablation configuration at one mean size: sizes uniform in
    /// `[size/2, size + size/2]` so deadline order differs from arrival
    /// order (see [`crate::ablation`]).
    pub fn ablation(protocol: ProtocolKind, size: u32, txn_count: u32) -> Self {
        assert!(size >= 2, "ablation sizes start at 2");
        SingleSiteSpec {
            size: SizeDistribution::Uniform {
                min: size / 2,
                max: size + size / 2,
            },
            ..SingleSiteSpec::figure(protocol, size, txn_count)
        }
    }
}

/// Complete description of one distributed simulation run.
#[derive(Debug, Clone)]
pub struct DistributedSpec {
    /// Architecture under test.
    pub architecture: CeilingArchitecture,
    /// Fraction of read-only transactions.
    pub read_only_fraction: f64,
    /// Communication delay in paper "time units" ([`params::TIME_UNIT`]).
    pub delay_units: u32,
    /// Transactions per run.
    pub txn_count: u32,
    /// Multiversion read retention; `None` disables temporal reads.
    pub temporal_versions: Option<usize>,
    /// Serve read-only transactions as lock-free snapshot readers over
    /// the per-site version stores (needs `temporal_versions`).
    pub snapshot_readers: bool,
    /// Fault-injection plan; the default plan injects nothing and leaves
    /// the run byte-identical to a fault-free simulation.
    pub faults: FaultPlan,
}

impl DistributedSpec {
    /// The canonical Figure 4–6 configuration at one (mix, delay) point.
    pub fn figure(
        architecture: CeilingArchitecture,
        read_only_fraction: f64,
        delay_units: u32,
        txn_count: u32,
    ) -> Self {
        DistributedSpec {
            architecture,
            read_only_fraction,
            delay_units,
            txn_count,
            temporal_versions: None,
            snapshot_readers: false,
            faults: FaultPlan::default(),
        }
    }

    /// The figure configuration with a fault plan applied (E4).
    pub fn faulted(
        architecture: CeilingArchitecture,
        read_only_fraction: f64,
        delay_units: u32,
        txn_count: u32,
        faults: FaultPlan,
    ) -> Self {
        DistributedSpec {
            faults,
            ..DistributedSpec::figure(architecture, read_only_fraction, delay_units, txn_count)
        }
    }
}

/// The simulator and parameters one run drives.
#[derive(Debug, Clone)]
pub enum SimSpec {
    /// A [`Simulator`] run (Figures 2–3, ablations).
    SingleSite(SingleSiteSpec),
    /// A [`DistributedSimulator`] run (Figures 4–6, E3).
    Distributed(DistributedSpec),
}

/// One schedulable unit: a point label, a seed, and the simulation to run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The sweep point this run replicates (groups seeds in the results).
    pub label: String,
    /// Workload seed; fixed per replicate index, independent of scheduling.
    pub seed: u64,
    /// The simulation to run.
    pub sim: SimSpec,
}

/// The raw metrics of one finished run, extracted from its [`RunReport`].
#[derive(Debug, Clone, Copy)]
pub struct RunMetrics {
    /// Transactions that finished (committed or missed).
    pub processed: u32,
    /// Transactions that committed before their deadline.
    pub committed: u32,
    /// Transactions aborted at their deadline.
    pub missed: u32,
    /// Transactions still active when the run drained — arrived but
    /// neither committed nor missed. Zero for a run that completed its
    /// whole workload.
    pub in_progress: u32,
    /// Transactions aborted by an injected fault (site crash or 2PC vote
    /// timeout). Zero unless the run carried a fault plan.
    pub faulted: u32,
    /// `100 × missed / processed`.
    pub pct_missed: f64,
    /// Objects per second by committed transactions.
    pub throughput: f64,
    /// Mean response time of committed transactions, in ticks.
    pub mean_response_ticks: f64,
    /// Mean blocked time per processed transaction, in ticks.
    pub mean_blocked_ticks: f64,
    /// Distribution of per-transaction blocked time, in ticks — the tail
    /// (`p95`/`p99`) is what distinguishes bounded-blocking protocols from
    /// merely good-on-average ones.
    pub blocked_hist: Histogram,
    /// Deadlock-victim restarts.
    pub restarts: u32,
    /// Deadlocks detected (T/O reports rejections here).
    pub deadlocks: u64,
    /// Requests denied by the ceiling test.
    pub ceiling_blocks: u64,
    /// CPU preemptions, summed over sites.
    pub preemptions: u64,
    /// Messages across links (distributed runs).
    pub remote_messages: u64,
    /// Network delivery statistics (distributed runs; `None` for
    /// single-site runs, which send no messages).
    pub net: Option<NetStats>,
    /// Kernel events executed by the run's simulation engine. Not part of
    /// the serialised figure data (it measures the simulator, not the
    /// protocols); the sweep harness aggregates it into an events-per-
    /// second throughput figure for `BENCH_SWEEP.json`.
    pub events: u64,
    /// Temporal-consistency measurements, when multiversion reads ran.
    pub temporal: Option<rtlock::TemporalStats>,
}

impl RunMetrics {
    fn from_report(report: &RunReport) -> Self {
        RunMetrics {
            processed: report.stats.processed,
            committed: report.stats.committed,
            missed: report.stats.missed,
            in_progress: report.stats.in_progress,
            faulted: report.stats.faulted,
            pct_missed: report.stats.pct_missed,
            throughput: report.stats.throughput,
            mean_response_ticks: report.stats.mean_response_ticks,
            mean_blocked_ticks: report.stats.mean_blocked_ticks,
            blocked_hist: report.stats.blocked_hist,
            restarts: report.stats.restarts,
            deadlocks: report.deadlocks,
            ceiling_blocks: report.ceiling_blocks,
            preemptions: report.preemptions,
            remote_messages: report.remote_messages,
            net: report.net,
            events: report.events,
            temporal: report.temporal,
        }
    }
}

/// Executes one run spec. Public so smoke tests can bypass the pool.
pub fn execute(spec: &RunSpec) -> RunMetrics {
    execute_with(spec, NullSink)
}

/// Like [`execute`], but streams every structured simulation event into
/// `sink` (pass `&mut sink` to keep it afterwards). With [`NullSink`] the
/// instrumentation compiles away, so [`execute`] costs nothing extra.
pub fn execute_with<S: EventSink<SimEvent>>(spec: &RunSpec, sink: S) -> RunMetrics {
    let report = match &spec.sim {
        SimSpec::SingleSite(s) => {
            let catalog = Catalog::new(s.db_size, 1, Placement::SingleSite);
            let workload = WorkloadSpec::builder()
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
            Simulator::new(builder.build(), catalog, &workload).run_with(spec.seed, sink)
        }
        SimSpec::Distributed(s) => {
            let catalog = Catalog::new(
                params::DIST_DB_SIZE,
                params::DIST_SITES,
                Placement::FullyReplicated,
            );
            let workload = WorkloadSpec::builder()
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
            let mut builder = DistributedConfig::builder()
                .architecture(s.architecture)
                .comm_delay(SimDuration::from_ticks(
                    params::TIME_UNIT.ticks() * s.delay_units as u64,
                ))
                .cpu_per_object(params::CPU_PER_OBJECT)
                .apply_cost(params::APPLY_COST)
                .faults(s.faults.clone());
            if let Some(keep) = s.temporal_versions {
                builder = builder.temporal_versions(keep);
            }
            if s.snapshot_readers {
                builder = builder.snapshot_readers(true);
            }
            DistributedSimulator::new(builder.build(), catalog, &workload).run_with(spec.seed, sink)
        }
    };
    RunMetrics::from_report(&report)
}

/// Like [`execute`], but streams the run through the online invariant
/// oracle ([`CheckSink`]) configured for the spec's protocol semantics,
/// returning the metrics together with any invariant violations.
pub fn execute_checked(spec: &RunSpec) -> (RunMetrics, Vec<Violation>) {
    let mut sink = CheckSink::new(crate::check::config_for(&spec.sim));
    let metrics = execute_with(spec, &mut sink);
    (metrics, sink.finish())
}

/// Replicated measurements of one sweep point, in seed order.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// The point's label, as given to [`Sweep::point`].
    pub label: String,
    /// `(seed, metrics)` for every replicate.
    pub runs: Vec<(u64, RunMetrics)>,
}

impl PointResult {
    fn summary_of(&self, f: impl Fn(&RunMetrics) -> f64) -> Summary {
        let samples: Vec<f64> = self.runs.iter().map(|(_, m)| f(m)).collect();
        Summary::of(&samples)
    }

    /// Throughput over the replicates.
    pub fn throughput(&self) -> Summary {
        self.summary_of(|m| m.throughput)
    }

    /// `%missed` over the replicates.
    pub fn pct_missed(&self) -> Summary {
        self.summary_of(|m| m.pct_missed)
    }

    /// Deadlocks per run over the replicates.
    pub fn deadlocks(&self) -> Summary {
        self.summary_of(|m| m.deadlocks as f64)
    }

    /// Restarts per run over the replicates.
    pub fn restarts(&self) -> Summary {
        self.summary_of(|m| m.restarts as f64)
    }

    /// Remote messages per run over the replicates.
    pub fn remote_messages(&self) -> Summary {
        self.summary_of(|m| m.remote_messages as f64)
    }

    /// Mean blocked time (ticks) over the replicates.
    pub fn mean_blocked_ticks(&self) -> Summary {
        self.summary_of(|m| m.mean_blocked_ticks)
    }

    /// The blocking-time histograms of all replicates merged into one, so
    /// percentiles are taken over every transaction the point processed.
    pub fn blocked_hist(&self) -> Histogram {
        let mut merged = Histogram::new();
        for (_, m) in &self.runs {
            merged.merge(&m.blocked_hist);
        }
        merged
    }
}

/// Results of a sweep: one [`PointResult`] per declared point, in
/// declaration order, plus execution bookkeeping.
#[derive(Debug)]
pub struct SweepResults {
    /// Per-point results, in [`Sweep::point`] declaration order.
    pub points: Vec<PointResult>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Wall-clock time of the pool execution.
    pub wall_clock: Duration,
    /// Invariant violations found by [`Sweep::run_checked`], as
    /// `(point label, seed, violation)` in grid order. Always empty for
    /// [`Sweep::run`], which skips the oracle.
    pub violations: Vec<(String, u64, Violation)>,
}

impl SweepResults {
    /// The point with the given label.
    ///
    /// # Panics
    ///
    /// Panics if no point carries `label` (a typo in the caller's grid).
    pub fn point(&self, label: &str) -> &PointResult {
        self.points
            .iter()
            .find(|p| p.label == label)
            .unwrap_or_else(|| panic!("no sweep point labelled {label:?}"))
    }

    /// Total runs executed.
    pub fn run_count(&self) -> usize {
        self.points.iter().map(|p| p.runs.len()).sum()
    }

    /// Total kernel events executed across all runs.
    pub fn event_count(&self) -> u64 {
        self.points
            .iter()
            .flat_map(|p| p.runs.iter().map(|(_, m)| m.events))
            .sum()
    }

    /// Kernel events per wall-clock second over the whole sweep — the
    /// headline simulator-throughput figure recorded in `BENCH_SWEEP.json`.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall_clock.as_secs_f64();
        if secs > 0.0 {
            self.event_count() as f64 / secs
        } else {
            0.0
        }
    }

    /// Network delivery totals summed over every run that reported them,
    /// or `None` when the sweep held no distributed runs. Feeds the flat
    /// `net_*` fields of `BENCH_SWEEP.json`.
    pub fn net_totals(&self) -> Option<NetStats> {
        let mut total: Option<NetStats> = None;
        for point in &self.points {
            for (_, m) in &point.runs {
                if let Some(n) = m.net {
                    let t = total.get_or_insert(NetStats::default());
                    t.sent += n.sent;
                    t.delivered += n.delivered;
                    t.dropped_at_send += n.dropped_at_send;
                    t.dropped_in_flight += n.dropped_in_flight;
                    t.duplicated += n.duplicated;
                }
            }
        }
        total
    }

    /// Merged blocking-time histograms grouped by protocol — the sweep
    /// label's prefix before the first `/` (`C`, `P`, `L`, `local`, …) —
    /// in first-appearance order. Feeds the per-protocol `blocked_p95_*`
    /// / `blocked_p99_*` fields of `BENCH_SWEEP.json`.
    pub fn blocked_by_protocol(&self) -> Vec<(String, Histogram)> {
        let mut groups: Vec<(String, Histogram)> = Vec::new();
        for point in &self.points {
            let proto = point.label.split('/').next().unwrap_or("").to_string();
            let hist = point.blocked_hist();
            match groups.iter_mut().find(|(p, _)| *p == proto) {
                Some((_, merged)) => merged.merge(&hist),
                None => groups.push((proto, hist)),
            }
        }
        groups
    }
}

/// A declarative grid of simulation runs.
#[derive(Debug, Default)]
pub struct Sweep {
    specs: Vec<RunSpec>,
    labels: Vec<String>,
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Sweep::default()
    }

    /// The flattened run grid, in declaration order (point by point, seed
    /// ascending). `--trace` re-runs the first entry with a sink attached.
    pub fn specs(&self) -> &[RunSpec] {
        &self.specs
    }

    /// Declares one sweep point: `seeds` replicates of `sim`, seeded
    /// `0..seeds`. Labels must be unique within a sweep.
    pub fn point(&mut self, label: impl Into<String>, seeds: u64, sim: SimSpec) {
        let label = label.into();
        assert!(
            !self.labels.contains(&label),
            "duplicate sweep point label {label:?}"
        );
        for seed in 0..seeds {
            self.specs.push(RunSpec {
                label: label.clone(),
                seed,
                sim: sim.clone(),
            });
        }
        self.labels.push(label);
    }

    /// Runs the grid on `workers` threads and reassembles the results in
    /// declaration order. The output is identical for every `workers`
    /// value; only the wall clock changes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread panics.
    pub fn run(&self, workers: usize) -> SweepResults {
        self.run_inner(workers, false)
    }

    /// Like [`Sweep::run`], but every run also streams through the online
    /// invariant oracle; violations land in [`SweepResults::violations`].
    /// The metrics are identical to an unchecked run (the oracle only
    /// observes the event stream), just slower to produce.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a worker thread panics.
    pub fn run_checked(&self, workers: usize) -> SweepResults {
        self.run_inner(workers, true)
    }

    fn run_inner(&self, workers: usize, checked: bool) -> SweepResults {
        assert!(workers > 0, "need at least one worker");
        let started = Instant::now();
        let specs = Arc::new(self.specs.clone());
        let next = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel::<(usize, RunMetrics, Vec<Violation>)>();

        let threads: Vec<_> = (0..workers.min(specs.len().max(1)))
            .map(|_| {
                let specs = Arc::clone(&specs);
                let next = Arc::clone(&next);
                let tx = tx.clone();
                std::thread::spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let (metrics, violations) = if checked {
                        execute_checked(spec)
                    } else {
                        (execute(spec), Vec::new())
                    };
                    if tx.send((i, metrics, violations)).is_err() {
                        break;
                    }
                })
            })
            .collect();
        drop(tx);

        let mut slots: Vec<Option<(RunMetrics, Vec<Violation>)>> = vec![None; specs.len()];
        for (i, metrics, violations) in rx {
            slots[i] = Some((metrics, violations));
        }
        for t in threads {
            t.join().expect("sweep worker panicked");
        }

        // Reassemble by declaration order: specs are pushed point by point,
        // seed-ascending, so a stable scan groups them back.
        let mut points: Vec<PointResult> = self
            .labels
            .iter()
            .map(|l| PointResult {
                label: l.clone(),
                runs: Vec::new(),
            })
            .collect();
        let mut all_violations: Vec<(String, u64, Violation)> = Vec::new();
        for (spec, slot) in specs.iter().zip(slots) {
            let (metrics, violations) = slot.expect("every run completed");
            let point = points
                .iter_mut()
                .find(|p| p.label == spec.label)
                .expect("label declared");
            point.runs.push((spec.seed, metrics));
            all_violations.extend(
                violations
                    .into_iter()
                    .map(|v| (spec.label.clone(), spec.seed, v)),
            );
        }

        SweepResults {
            points,
            workers,
            wall_clock: started.elapsed(),
            violations: all_violations,
        }
    }
}

/// Worker count for the figure binaries: `RTLOCK_BENCH_WORKERS` when set,
/// otherwise the host's available parallelism.
///
/// # Errors
///
/// Returns the diagnostic when the variable is set to anything but a
/// positive integer.
pub fn default_workers() -> Result<usize, String> {
    match std::env::var("RTLOCK_BENCH_WORKERS") {
        Err(std::env::VarError::NotPresent) => {
            Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        }
        Ok(v) => v
            .parse()
            .map(NonZeroUsize::get)
            .map_err(|_| format!("RTLOCK_BENCH_WORKERS needs a positive integer, got {v:?}")),
        Err(e) => Err(format!("RTLOCK_BENCH_WORKERS: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sweep() -> Sweep {
        let mut sweep = Sweep::new();
        sweep.point(
            "C/size=5",
            2,
            SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 5, 40)),
        );
        sweep.point(
            "local/mix=0.5/d=1",
            2,
            SimSpec::Distributed(DistributedSpec::figure(
                CeilingArchitecture::LocalReplicated,
                0.5,
                1,
                40,
            )),
        );
        sweep
    }

    #[test]
    fn sweep_groups_runs_by_point_in_declaration_order() {
        let results = small_sweep().run(2);
        assert_eq!(results.run_count(), 4);
        assert_eq!(results.points[0].label, "C/size=5");
        assert_eq!(results.points[1].label, "local/mix=0.5/d=1");
        for p in &results.points {
            assert_eq!(p.runs.len(), 2);
            assert_eq!(p.runs[0].0, 0);
            assert_eq!(p.runs[1].0, 1);
            assert!(p.runs.iter().all(|(_, m)| m.processed > 0));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let sweep = small_sweep();
        let one = sweep.run(1);
        let four = sweep.run(4);
        for (a, b) in one.points.iter().zip(&four.points) {
            assert_eq!(a.label, b.label);
            for ((sa, ma), (sb, mb)) in a.runs.iter().zip(&b.runs) {
                assert_eq!(sa, sb);
                assert_eq!(ma.throughput.to_bits(), mb.throughput.to_bits());
                assert_eq!(ma.pct_missed.to_bits(), mb.pct_missed.to_bits());
                assert_eq!(ma.committed, mb.committed);
                assert_eq!(ma.deadlocks, mb.deadlocks);
            }
        }
    }

    #[test]
    fn harness_matches_direct_execution() {
        // The pool must produce exactly what a bare `execute` produces.
        let spec = RunSpec {
            label: "x".into(),
            seed: 1,
            sim: SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::TwoPhaseLocking, 8, 40)),
        };
        let direct = execute(&spec);
        let mut sweep = Sweep::new();
        sweep.point("x", 2, spec.sim.clone());
        let pooled = sweep.run(3);
        let (_, m) = pooled.point("x").runs[1];
        assert_eq!(m.throughput.to_bits(), direct.throughput.to_bits());
        assert_eq!(m.committed, direct.committed);
    }

    #[test]
    #[should_panic(expected = "duplicate sweep point label")]
    fn duplicate_labels_rejected() {
        let mut sweep = Sweep::new();
        let sim = SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 2, 10));
        sweep.point("a", 1, sim.clone());
        sweep.point("a", 1, sim);
    }
}
