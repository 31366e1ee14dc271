//! End-to-end checks of the multiversion reader service classes.
//!
//! Every test runs a real simulation through the online invariant oracle
//! (`monitor::CheckSink`) exactly as `--check` does, so the snapshot
//! consistency, GC-safety and latch-compatibility invariants are enforced
//! on live event streams — not just the synthetic ones in the oracle's
//! unit tests. The chaos test replays the fault-injection plans of the
//! failure-handling study with snapshot readers enabled: lock-free reads
//! must stay oracle-clean while sites crash and messages drop.

use netsim::{CrashWindow, FaultPlan, LinkFaults};
use rtdb::SiteId;
use rtlock::distributed::CeilingArchitecture;
use rtlock::{MvccConfig, ProtocolKind, ReaderMode};
use rtlock_bench::harness::{execute_checked, DistributedSpec, RunSpec, SimSpec, SingleSiteSpec};
use starlite::{SimDuration, SimTime};

fn reader_spec(mode: ReaderMode) -> SingleSiteSpec {
    let mvcc = match mode {
        ReaderMode::Locking => MvccConfig::locking(4),
        ReaderMode::LatchScan => MvccConfig::latch_scan(4),
        ReaderMode::Snapshot => MvccConfig::snapshot(4, SimDuration::from_ticks(5_000)),
    };
    SingleSiteSpec {
        read_only_fraction: 0.5,
        scan_readers: true,
        db_size: 50,
        mvcc: Some(mvcc),
        ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, 200)
    }
}

fn run(label: &str, seed: u64, sim: SimSpec) -> rtlock_bench::harness::RunMetrics {
    let spec = RunSpec {
        label: label.to_string(),
        seed,
        sim,
    };
    let (metrics, violations) = execute_checked(&spec);
    assert!(violations.is_empty(), "{label}: {violations:?}");
    metrics
}

#[test]
fn single_site_reader_modes_run_oracle_clean() {
    for mode in [
        ReaderMode::Locking,
        ReaderMode::LatchScan,
        ReaderMode::Snapshot,
    ] {
        for seed in [1, 7] {
            let m = run(mode.label(), seed, SimSpec::SingleSite(reader_spec(mode)));
            let t = m.temporal.expect("mvcc enabled");
            assert!(
                t.reader_committed > 0,
                "{mode}: some readers must commit (got {t:?})"
            );
            if mode == ReaderMode::Snapshot {
                assert!(t.snapshot_reads > 0, "snapshot readers must read versions");
            } else {
                assert_eq!(
                    t.snapshot_reads, 0,
                    "{mode} readers must not probe snapshots"
                );
            }
        }
    }
}

#[test]
fn snapshot_readers_garbage_collect_behind_pins() {
    let m = run(
        "snapshot-gc",
        3,
        SimSpec::SingleSite(reader_spec(ReaderMode::Snapshot)),
    );
    let t = m.temporal.expect("mvcc enabled");
    assert!(
        t.versions_gced > 0,
        "a contended run must retire old versions ({t:?})"
    );
}

#[test]
fn reader_modes_are_deterministic() {
    for mode in [ReaderMode::LatchScan, ReaderMode::Snapshot] {
        let a = run(mode.label(), 11, SimSpec::SingleSite(reader_spec(mode)));
        let b = run(mode.label(), 11, SimSpec::SingleSite(reader_spec(mode)));
        assert_eq!(a.committed, b.committed, "{mode}");
        assert_eq!(a.temporal.unwrap(), b.temporal.unwrap(), "{mode}");
    }
}

fn dist_spec(faults: FaultPlan) -> DistributedSpec {
    DistributedSpec {
        temporal_versions: Some(4),
        snapshot_readers: true,
        ..DistributedSpec::faulted(CeilingArchitecture::LocalReplicated, 0.5, 2, 200, faults)
    }
}

#[test]
fn distributed_snapshot_readers_run_oracle_clean() {
    for seed in [1, 5] {
        let m = run(
            "dist-snapshot",
            seed,
            SimSpec::Distributed(dist_spec(FaultPlan::default())),
        );
        let t = m.temporal.expect("temporal versions enabled");
        assert!(
            t.reader_committed > 0,
            "snapshot readers must commit ({t:?})"
        );
        assert!(t.snapshot_reads > 0);
    }
}

#[test]
fn snapshot_reads_stay_oracle_clean_under_faults() {
    // The failure-handling study's heavy plan: 10% message loss with
    // duplicates, plus a mid-run crash-and-restart of site 2. Snapshot
    // readers pin local version stores through all of it; the oracle
    // verifies every read and GC sweep against the event stream.
    let faults = FaultPlan {
        link: LinkFaults {
            loss_ppm: 100_000,
            duplicate_ppm: 50_000,
            jitter_ticks: 0,
            seed: 42,
        },
        crashes: vec![CrashWindow {
            site: SiteId(2),
            down_at: SimTime::from_ticks(100_000),
            up_at: Some(SimTime::from_ticks(250_000)),
        }],
    };
    for seed in [1, 9] {
        let m = run(
            "dist-snapshot-faults",
            seed,
            SimSpec::Distributed(dist_spec(faults.clone())),
        );
        let t = m.temporal.expect("temporal versions enabled");
        assert!(
            t.snapshot_reads > 0,
            "readers must still read through the fault window ({t:?})"
        );
    }
}
