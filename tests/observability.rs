//! Tier-1 pins on the unified event-tracing pipeline: the exact event
//! sequences of tiny fixed-seed runs are committed golden files, and the
//! metrics sink's counters must account for every event emitted, on any
//! random scenario.
//!
//! The goldens cover both simulators: one single-site run per protocol
//! path worth pinning (priority updates, requester restarts, aborted
//! deadlock victims, bounded I/O over lock granules, latch-scan and
//! snapshot readers) and distributed runs of both architectures, with
//! and without faults.
//!
//! Regenerate the goldens after an intentional event-model change with
//! `RTLOCK_BLESS=1 cargo test --test observability`.

use netsim::{CrashWindow, FaultPlan, LinkFaults};
use proptest::prelude::*;
use rtlock::prelude::*;
use rtlock::{MvccConfig, Simulator};
use workload::{SizeDistribution, WorkloadSpec};

const GOLDEN_PATH: &str = "tests/golden/single_site_events.txt";

/// Renders an event stream one event per line, time first.
fn render(sink: &VecSink<SimEvent>) -> String {
    let mut out = String::new();
    for (at, event) in sink.events() {
        out.push_str(&format!("{:>6} {event}\n", at.ticks()));
    }
    out
}

/// Renders the full event stream of the canonical tiny run: six size-3
/// transactions under 2PL-with-priority (the protocol that exercises
/// requests, grants, blocks, releases and deadline aborts), seed 7.
fn golden_run() -> String {
    let catalog = Catalog::new(8, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(6)
        .mean_interarrival(SimDuration::from_ticks(2_000))
        .size(SizeDistribution::Fixed(3))
        .read_only_fraction(0.0)
        .write_fraction(0.5)
        .deadline(4.0, SimDuration::from_ticks(1_500))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLockingPriority)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();
    let mut sink = VecSink::new();
    Simulator::new(config, catalog, &workload).run_with(7, &mut sink);
    render(&sink)
}

/// Compares `rendered` with the committed golden at `path`, or rewrites
/// it under `RTLOCK_BLESS`; a mismatch names the first differing line.
fn check_golden(path: &str, rendered: &str) -> Result<(), String> {
    if std::env::var_os("RTLOCK_BLESS").is_some() {
        std::fs::write(path, rendered).expect("write golden");
        return Ok(());
    }
    let golden = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if rendered == golden {
        return Ok(());
    }
    let (got, want) = (rendered.lines(), golden.lines());
    let line = got
        .clone()
        .zip(want.clone())
        .take_while(|(g, w)| g == w)
        .count();
    Err(format!(
        "{path}: line {} is {:?}, the golden has {:?}",
        line + 1,
        got.clone().nth(line),
        want.clone().nth(line)
    ))
}

#[test]
fn tiny_run_event_sequence_matches_golden() {
    if let Err(diff) = check_golden(GOLDEN_PATH, &golden_run()) {
        panic!(
            "event sequence diverged from the committed golden ({diff}); if \
             the change is intentional, re-bless with RTLOCK_BLESS=1"
        );
    }
}

#[test]
fn golden_run_is_reproducible() {
    assert_eq!(golden_run(), golden_run());
}

fn site(protocol: ProtocolKind) -> rtlock::config::SingleSiteConfigBuilder {
    SingleSiteConfig::builder()
        .protocol(protocol)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
}

/// Runs a dozen size-3 transactions over eight objects, arriving faster
/// than they run, at one site; with `scans` the read-only ones read
/// contiguous ranges.
fn single(
    config: rtlock::config::SingleSiteConfigBuilder,
    read_only: f64,
    scans: bool,
) -> VecSink<SimEvent> {
    let catalog = Catalog::new(8, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(12)
        .mean_interarrival(SimDuration::from_ticks(900))
        .size(SizeDistribution::Fixed(3))
        .read_only_fraction(read_only)
        .scan_readers(scans)
        .write_fraction(0.5)
        .deadline(5.0, SimDuration::from_ticks(1_500))
        .build();
    let mut sink = VecSink::new();
    Simulator::new(config.build(), catalog, &workload).run_with(3, &mut sink);
    sink
}

fn net(architecture: CeilingArchitecture) -> rtlock::distributed::DistributedConfigBuilder {
    DistributedConfig::builder()
        .architecture(architecture)
        .comm_delay(SimDuration::from_ticks(250))
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .apply_cost(SimDuration::from_ticks(200))
}

/// Fourteen transactions of two to four objects over three fully
/// replicated sites.
fn tiny_distributed(read_only: f64) -> Vec<TxnSpec> {
    let workload = WorkloadSpec::builder()
        .txn_count(14)
        .mean_interarrival(SimDuration::from_ticks(700))
        .size(SizeDistribution::Uniform { min: 2, max: 4 })
        .read_only_fraction(read_only)
        .write_fraction(0.5)
        .deadline(12.0, SimDuration::from_ticks(1_000))
        .build();
    workload::Generator::new(&workload, &dist_catalog()).generate(3)
}

fn dist_catalog() -> Catalog {
    Catalog::new(12, 3, Placement::FullyReplicated)
}

fn dist(
    config: rtlock::distributed::DistributedConfigBuilder,
    txns: Vec<TxnSpec>,
) -> VecSink<SimEvent> {
    let mut sink = VecSink::new();
    rtlock::distributed::run_transactions_distributed_with(
        config.build(),
        &dist_catalog(),
        txns,
        &mut sink,
    );
    sink
}

/// Moves every update transaction's home one site over, so that each of
/// its two-phase-commit legs crosses a link (the global architecture
/// does not need writes to be primary at the home site).
fn remote_updates(mut txns: Vec<TxnSpec>) -> Vec<TxnSpec> {
    for t in txns.iter_mut().filter(|t| !t.write_set().is_empty()) {
        t.home_site = SiteId((t.home_site.0 + 1) % 3);
    }
    txns
}

/// Message loss and duplication on every link, plus a crash of site 2
/// that it recovers from.
fn chaos() -> FaultPlan {
    FaultPlan {
        link: LinkFaults {
            loss_ppm: 150_000,
            duplicate_ppm: 100_000,
            jitter_ticks: 0,
            seed: 2,
        },
        crashes: vec![CrashWindow {
            site: SiteId(2),
            down_at: SimTime::from_ticks(3_000),
            up_at: Some(SimTime::from_ticks(9_000)),
        }],
    }
}

/// `tiny_distributed(0.3)` in reverse list order, with T3 and T4 moved
/// onto the tick T0's first burst ends (T0 runs alone at site 0), and
/// site 2 crashing on T5's arrival tick there. It pins the engine's sort
/// of an unsorted list, same-tick arrivals in list order, every arrival
/// ahead of the events the run schedules for its tick, and a crash
/// scheduled before the run ahead of an arrival on its tick.
fn tied_arrivals() -> (Vec<TxnSpec>, FaultPlan) {
    let mut txns = tiny_distributed(0.3);
    let burst_end = txns[0].arrival + SimDuration::from_ticks(1_000);
    txns[3].arrival = burst_end;
    txns[4].arrival = burst_end;
    let crash = CrashWindow {
        site: txns[5].home_site,
        down_at: txns[5].arrival,
        up_at: Some(SimTime::from_ticks(9_000)),
    };
    txns.reverse();
    let faults = FaultPlan {
        crashes: vec![crash],
        ..chaos()
    };
    (txns, faults)
}

/// Tiny fixed-seed runs whose full event streams are committed as
/// `tests/golden/<name>.txt`.
fn golden_table() -> Vec<(&'static str, VecSink<SimEvent>)> {
    use CeilingArchitecture::{GlobalManager, LocalReplicated};
    use ProtocolKind::{PriorityCeiling as C, TwoPhaseLockingPriority as P};
    let lagged = MvccConfig::snapshot(2, SimDuration::from_ticks(1_500));
    let (tied, tied_faults) = tied_arrivals();
    vec![
        (
            "inheritance",
            single(site(ProtocolKind::PriorityInheritance), 0.0, false),
        ),
        (
            "timestamp",
            single(site(ProtocolKind::TimestampOrdering), 0.0, false),
        ),
        (
            "victims_abort",
            single(site(P).restart_victims(false), 0.0, false),
        ),
        (
            "io_granules",
            single(site(C).io_parallelism(1).lock_granularity(2), 0.0, false),
        ),
        (
            "latch_scan",
            single(site(C).mvcc(MvccConfig::latch_scan(2)), 0.4, true),
        ),
        ("snapshot_lag", single(site(C).mvcc(lagged), 0.4, false)),
        (
            "dist_global",
            dist(net(GlobalManager), tiny_distributed(0.4)),
        ),
        (
            "dist_local_snapshot",
            dist(
                net(LocalReplicated)
                    .temporal_versions(2)
                    .snapshot_readers(true),
                tiny_distributed(0.4),
            ),
        ),
        (
            "dist_global_faults",
            dist(
                net(GlobalManager).faults(chaos()),
                remote_updates(tiny_distributed(0.3)),
            ),
        ),
        (
            "dist_local_faults",
            dist(net(LocalReplicated).faults(chaos()), tiny_distributed(0.3)),
        ),
        (
            "dist_arrival_ties",
            dist(net(LocalReplicated).faults(tied_faults), tied),
        ),
    ]
}

#[test]
fn golden_table_event_sequences_match() {
    let diverged: Vec<String> = golden_table()
        .iter()
        .filter_map(|(name, sink)| {
            check_golden(&format!("tests/golden/{name}.txt"), &render(sink)).err()
        })
        .collect();
    assert!(
        diverged.is_empty(),
        "event sequences diverged from the committed goldens; if the change \
         is intentional, re-bless with RTLOCK_BLESS=1:\n{}",
        diverged.join("\n")
    );
}

/// Which recovery paths a faulted run reached, read off its events: a
/// retry before the commit decision re-sends a lock request, one after
/// the transaction finished re-sends its release, and an abort decision
/// followed by a site-failure abort is a vote timeout.
fn reached(sink: &VecSink<SimEvent>) -> [bool; 4] {
    use std::collections::HashSet;
    use SimEventKind::*;
    let (mut finished, mut decided, mut voted_abort) =
        (HashSet::new(), HashSet::new(), HashSet::new());
    let mut reached = [false; 4];
    for (_, event) in sink.events() {
        match event.kind {
            TxnCommitted { txn } => {
                finished.insert(txn);
            }
            TxnAborted { txn, reason } => {
                finished.insert(txn);
                reached[2] |=
                    reason == monitor::AbortReason::SiteFailed && voted_abort.contains(&txn);
            }
            TwoPcDecided { txn, commit } => {
                if commit {
                    decided.insert(txn)
                } else {
                    voted_abort.insert(txn)
                };
            }
            RpcRetried { txn, .. } => {
                reached[0] |= !finished.contains(&txn) && !decided.contains(&txn);
                reached[1] |= finished.contains(&txn);
            }
            ReplicaRepaired { .. } => reached[3] = true,
            _ => {}
        }
    }
    reached
}

#[test]
fn faulted_goldens_reach_every_recovery_path() {
    let table = golden_table();
    let runs: Vec<[bool; 4]> = table
        .iter()
        .filter(|(name, _)| name.ends_with("_faults"))
        .map(|(_, sink)| reached(sink))
        .collect();
    let paths = [
        "lock-RPC retry",
        "release retry",
        "vote timeout",
        "anti-entropy repair",
    ];
    for (i, path) in paths.iter().enumerate() {
        assert!(
            runs.iter().any(|r| r[i]),
            "no faulted golden reaches the {path}"
        );
    }
}

#[test]
fn explainer_covers_every_missed_deadline() {
    // Push the tiny scenario into overload so deadlines actually miss,
    // then every miss must get exactly one explanation line.
    let catalog = Catalog::new(4, 1, Placement::SingleSite);
    let workload = WorkloadSpec::builder()
        .txn_count(12)
        .mean_interarrival(SimDuration::from_ticks(400))
        .size(SizeDistribution::Fixed(3))
        .read_only_fraction(0.0)
        .write_fraction(0.5)
        .deadline(2.0, SimDuration::from_ticks(1_000))
        .build();
    let config = SingleSiteConfig::builder()
        .protocol(ProtocolKind::TwoPhaseLocking)
        .cpu_per_object(SimDuration::from_ticks(1_000))
        .io_per_object(SimDuration::from_ticks(500))
        .build();
    let mut sink = VecSink::new();
    let report = Simulator::new(config, catalog, &workload).run_with(3, &mut sink);
    let lines = rtlock_bench::observe::miss_lines(sink.events());
    assert_eq!(
        lines.len(),
        report.stats.missed as usize,
        "one explanation per missed transaction"
    );
    assert!(report.stats.missed > 0, "scenario should overload");
}

/// A compact random scenario mirroring `proptest_sim.rs`.
fn scenario_strategy() -> impl Strategy<Value = Vec<TxnSpec>> {
    let txn = (
        0u64..400,
        prop::collection::btree_set(0u32..8, 1..4),
        prop::collection::btree_set(0u32..8, 0..3),
        200u64..5_000,
    );
    prop::collection::vec(txn, 1..10).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (arrival, reads, writes, offset))| {
                let write_set: Vec<ObjectId> = writes.iter().map(|&o| ObjectId(o)).collect();
                let read_set: Vec<ObjectId> = reads
                    .iter()
                    .filter(|o| !writes.contains(o))
                    .map(|&o| ObjectId(o))
                    .collect();
                let (read_set, write_set) = if read_set.is_empty() && write_set.is_empty() {
                    (vec![ObjectId(0)], vec![])
                } else {
                    (read_set, write_set)
                };
                TxnSpec::new(
                    TxnId(i as u64),
                    SimTime::from_ticks(arrival),
                    read_set,
                    write_set,
                    SimTime::from_ticks(arrival + offset),
                    SiteId(0),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On any scenario and every protocol, the metrics sink's per-kind
    /// counters sum to its total, and the total equals the number of
    /// events a buffering sink records for the identical run.
    #[test]
    fn metrics_sink_accounts_for_every_event(txns in scenario_strategy()) {
        let catalog = Catalog::new(8, 1, Placement::SingleSite);
        for kind in ProtocolKind::all() {
            let config = SingleSiteConfig::builder()
                .protocol(kind)
                .cpu_per_object(SimDuration::from_ticks(100))
                .io_per_object(SimDuration::from_ticks(50))
                .build();
            let mut buffered = VecSink::new();
            run_transactions_with(config, &catalog, txns.clone(), &mut buffered);
            let mut metrics = MetricsSink::new();
            run_transactions_with(config, &catalog, txns.clone(), &mut metrics);
            prop_assert_eq!(
                metrics.total(),
                buffered.events().len() as u64,
                "{}: metrics total must equal emitted-event count", kind
            );
            prop_assert_eq!(
                metrics.counts().iter().sum::<u64>(),
                metrics.total(),
                "{}: per-kind counters must sum to the total", kind
            );
        }
    }
}
