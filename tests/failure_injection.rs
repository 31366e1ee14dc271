//! Failure injection: when the global ceiling manager's site goes down,
//! the message server's timeout mechanism unblocks senders (paper §2) and
//! their transactions are aborted rather than hanging forever. The tests
//! further down exercise the seeded fault plans: delivery-time drops,
//! lock-RPC retries, crash/restart windows, and replica repair.

use monitor::SimEventKind;
use netsim::{CrashWindow, FaultPlan, LinkFaults};
use rtlock::distributed::{CeilingArchitecture, DistributedConfig, DistributedSimulator};
use rtlock::prelude::*;
use rtlock_suite::run_checked;
use starlite::VecSink;
use workload::Generator;

fn catalog() -> Catalog {
    Catalog::new(60, 3, Placement::FullyReplicated)
}

fn workload() -> WorkloadSpec {
    WorkloadSpec::builder()
        .txn_count(120)
        .mean_interarrival(SimDuration::from_ticks(1_500))
        .size(SizeDistribution::Uniform { min: 2, max: 4 })
        .read_only_fraction(0.5)
        .write_fraction(0.5)
        .deadline(30.0, SimDuration::from_ticks(500))
        .build()
}

#[test]
fn manager_failure_drains_via_timeouts() {
    let fail_at = SimTime::from_ticks(40_000);
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::GlobalManager)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .lock_timeout_slack(SimDuration::from_ticks(2_000))
        .fail_site(SiteId(0), fail_at)
        .build();
    let txns = Generator::new(&workload(), &catalog()).generate(3);
    // Transactions that committed before the failure stay serialisable
    // (the oracle checks that and every other invariant as the run goes).
    let report = run_checked(config, &catalog(), txns).report;

    // The run drains: every transaction was processed (committed before
    // the failure, or aborted by timeout / deadline after it).
    assert_eq!(report.stats.processed, 120);
    assert!(report.stats.committed > 0, "pre-failure work should commit");
    assert!(
        report.stats.missed > 0,
        "post-failure lock requests must time out and miss"
    );
}

#[test]
fn local_architecture_tolerates_remote_site_failure() {
    // With local ceilings, a remote site's failure only stops propagation
    // to that site; other sites keep committing on their own copies.
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .fail_site(SiteId(2), SimTime::from_ticks(30_000))
        .build();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run(3);
    assert_eq!(report.stats.processed, 120);
    // Transactions homed at the two healthy sites (about two thirds of
    // the load) are unaffected by the failure.
    let healthy_commits = report.stats.committed;
    assert!(
        healthy_commits as f64 >= 120.0 * 0.5,
        "healthy sites should keep committing ({healthy_commits})"
    );
}

#[test]
fn failure_free_baseline_commits_everything() {
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::GlobalManager)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .build();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run(3);
    assert_eq!(report.stats.processed, 120);
    assert_eq!(
        report.stats.missed, 0,
        "generous deadlines and no failure: nothing should miss"
    );
}

/// Regression (delivery-time drops): a message in flight toward a site
/// that crashes before it lands must be dropped at delivery time and
/// counted as `dropped_in_flight`, not delivered to a dead site.
#[test]
fn in_flight_messages_to_a_crashed_site_are_dropped() {
    // Crash site 2 mid-run; with a 3000-tick link (twice the mean
    // interarrival) there are messages in flight toward it at the crash
    // instant.
    let plan = FaultPlan {
        link: LinkFaults::default(),
        crashes: vec![CrashWindow {
            site: SiteId(2),
            down_at: SimTime::from_ticks(30_000),
            up_at: None,
        }],
    };
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(3_000))
        .cpu_per_object(SimDuration::from_ticks(500))
        .faults(plan)
        .build();
    let mut sink = VecSink::new();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run_with(3, &mut sink);
    let net = report.net.expect("distributed runs report net stats");
    assert!(
        net.dropped_in_flight > 0,
        "secondary updates in flight at the crash must drop: {net:?}"
    );
    // The structured trace records each drop with its flavour.
    let in_flight_drops = sink
        .events()
        .iter()
        .filter(|(_, e)| {
            matches!(
                e.kind,
                SimEventKind::MsgDropped {
                    in_flight: true,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(in_flight_drops, net.dropped_in_flight);
    // Message conservation: everything offered is accounted for exactly
    // once (duplicates add a second delivery).
    assert_eq!(
        net.sent + net.duplicated,
        net.delivered + net.dropped_at_send + net.dropped_in_flight,
        "{net:?}"
    );
}

/// Regression (NetStats surfacing): a fault-free distributed run reports
/// its delivery statistics, and they agree with the legacy message count.
#[test]
fn net_stats_surface_in_the_report() {
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::GlobalManager)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .build();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run(3);
    let net = report.net.expect("distributed runs report net stats");
    // `sent` counts every message offered, including intra-site ones;
    // `remote_messages` only counts the ones that crossed a link.
    assert!(
        net.sent >= report.remote_messages,
        "{} < {}",
        net.sent,
        report.remote_messages
    );
    assert_eq!(net.delivered, net.sent, "fault-free: every send lands");
    assert_eq!(net.dropped_at_send, 0);
    assert_eq!(net.dropped_in_flight, 0);
    assert_eq!(net.duplicated, 0);
}

/// Regression (lock-RPC timeout lifecycle): heavy message loss forces
/// retries with backoff. Every retry closes the stale call before opening
/// a new one — a stale `LockTimeout` firing for a closed call trips a
/// debug assertion, so simply draining this run under `cargo test`
/// (debug assertions on) is the regression check.
#[test]
fn lock_rpc_retries_survive_heavy_loss() {
    let plan = FaultPlan {
        link: LinkFaults {
            loss_ppm: 200_000, // 20% of messages lost
            duplicate_ppm: 100_000,
            jitter_ticks: 0,
            seed: 7,
        },
        crashes: Vec::new(),
    };
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::GlobalManager)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .lock_timeout_slack(SimDuration::from_ticks(2_000))
        .faults(plan)
        .build();
    let mut sink = VecSink::new();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run_with(3, &mut sink);
    assert_eq!(
        report.stats.committed + report.stats.missed + report.stats.faulted,
        120,
        "every transaction resolves despite loss"
    );
    assert_eq!(report.stats.in_progress, 0);
    assert!(
        sink.events()
            .iter()
            .any(|(_, e)| matches!(e.kind, SimEventKind::RpcRetried { .. })),
        "20% loss must force at least one lock-RPC retry"
    );
    assert!(report.stats.committed > 0, "retries must recover some work");
}

/// A crash window with a restart: the crashed site fault-aborts its
/// residents, recovers, and (local architecture) catches its replicas up
/// via secondary-update replay.
#[test]
fn restart_repairs_replicas_via_anti_entropy() {
    let plan = FaultPlan {
        link: LinkFaults::default(),
        crashes: vec![CrashWindow {
            site: SiteId(1),
            down_at: SimTime::from_ticks(20_000),
            up_at: Some(SimTime::from_ticks(90_000)),
        }],
    };
    let config = DistributedConfig::builder()
        .architecture(CeilingArchitecture::LocalReplicated)
        .comm_delay(SimDuration::from_ticks(300))
        .cpu_per_object(SimDuration::from_ticks(500))
        .faults(plan)
        .build();
    let mut sink = VecSink::new();
    let report = DistributedSimulator::new(config, catalog(), &workload()).run_with(3, &mut sink);

    let crashed = sink
        .events()
        .iter()
        .any(|(_, e)| e.site == SiteId(1) && matches!(e.kind, SimEventKind::SiteCrashed));
    let recovered = sink
        .events()
        .iter()
        .any(|(_, e)| e.site == SiteId(1) && matches!(e.kind, SimEventKind::SiteRecovered));
    assert!(crashed && recovered, "crash window must emit both events");
    assert!(
        sink.events()
            .iter()
            .any(|(_, e)| matches!(e.kind, SimEventKind::ReplicaRepaired { .. })),
        "the restarted site must repair at least one stale replica"
    );
    assert!(
        report.stats.faulted > 0,
        "residents of the crashed site are fault-aborted"
    );
    assert_eq!(
        report.stats.committed + report.stats.missed + report.stats.faulted,
        120
    );
}
