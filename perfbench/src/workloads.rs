//! The six workloads. `BENCHMARK.json` and `README.md` record why each
//! exists; this module fixes their shapes.
//!
//! A simulator workload is a grid of cells; one *slice* runs every cell
//! once, and a run measures as many slices as fit in its time. A live
//! workload is a mix of the four live protocols; one *round* runs each
//! once.

use rtlock::distributed::CeilingArchitecture;
use rtlock::{MvccConfig, ProtocolKind};
use rtlock_bench::harness::{DistributedSpec, SimSpec, SingleSiteSpec};
use rtlock_bench::params;
use starlite::SimDuration;

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 6] = [
    "paper-grid",
    "scale-100k",
    "dist-grid",
    "temporal-grid",
    "live-contended",
    "live-overhead",
];

/// The seed the fingerprints below were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// Outcome counts `[committed, missed, faulted]` of the warm-up slice of
/// each simulator workload at [`DEFAULT_SEED`] and full scale. The
/// simulators are deterministic, so any change here is a change of
/// behaviour, not of speed.
pub const FINGERPRINTS: [(&str, [u64; 3]); 4] = [
    ("paper-grid", [10_475, 725, 0]),
    ("scale-100k", [99_095, 905, 0]),
    ("dist-grid", [5_961, 1_239, 0]),
    ("temporal-grid", [5_815, 185, 0]),
];

/// One workload's shape.
#[derive(Debug)]
pub enum Workload {
    /// Simulator cells, each labelled; a slice runs every cell once.
    Sim(Vec<(String, SimSpec)>),
    /// A live protocol mix; a round runs each live protocol once.
    Live(LiveShape),
}

/// The inputs of one live protocol run (the rest is
/// `rtlock_live::LiveConfig::new`: size-8 all-update transactions, slack 5).
///
/// Transaction counts keep each worker's event buffer well inside one
/// power-of-two capacity whichever way the transactions split between the
/// threads, so peak memory does not jump between runs.
#[derive(Debug, Clone, Copy)]
pub struct LiveShape {
    /// Worker threads (closed-loop clients).
    pub threads: usize,
    /// Transactions per protocol run.
    pub txn_count: u32,
    /// Objects per transaction.
    pub txn_size: u32,
    /// Database size (objects).
    pub db_size: u32,
    /// Busy work per held lock, in microseconds.
    pub hold_us: u64,
}

/// The workload called `name`, with every per-run transaction count divided
/// by `divisor` (1 for a real run, larger for the smoke test); `None` for
/// an unknown name.
pub fn build(name: &str, divisor: u32) -> Option<Workload> {
    let scaled = |n: u32| (n / divisor).max(1);
    let workload = match name {
        // Figures 2–3: many short contended runs over 200 objects.
        "paper-grid" => {
            let protocols = [
                ProtocolKind::TwoPhaseLocking,
                ProtocolKind::TwoPhaseLockingPriority,
                ProtocolKind::PriorityInheritance,
                ProtocolKind::PriorityCeiling,
            ];
            let mut cells = Vec::new();
            for size in params::SIZES {
                for p in protocols {
                    cells.push((
                        format!("{}/size={size}", protocol_label(p)),
                        SimSpec::SingleSite(SingleSiteSpec::figure(
                            p,
                            size,
                            scaled(params::TXNS_PER_RUN),
                        )),
                    ));
                }
            }
            Workload::Sim(cells)
        }
        // One long PCP run over 10⁵ objects: little blocking, a working
        // set far beyond the per-core caches.
        "scale-100k" => Workload::Sim(vec![(
            "C/txns=100000".to_string(),
            SimSpec::SingleSite(SingleSiteSpec {
                db_size: 100_000,
                ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 8, scaled(100_000))
            }),
        )]),
        // Figures 4–6: both distributed architectures over the network.
        "dist-grid" => {
            let mut cells = Vec::new();
            for arch in [
                CeilingArchitecture::LocalReplicated,
                CeilingArchitecture::GlobalManager,
            ] {
                for mix in [0.2, 0.5, 0.8] {
                    for delay in [0, 2, 4, 8] {
                        cells.push((
                            format!("{}/mix={mix}/d={delay}", arch.label()),
                            SimSpec::Distributed(DistributedSpec::figure(
                                arch,
                                mix,
                                delay,
                                scaled(params::DIST_TXNS_PER_RUN),
                            )),
                        ));
                    }
                }
            }
            Workload::Sim(cells)
        }
        // The fig_temporal shape: PCP writers beside scan readers served
        // by locks, a range latch, or snapshots at three lags.
        "temporal-grid" => {
            let arms = [
                ("lock", MvccConfig::locking(4)),
                ("latch", MvccConfig::latch_scan(4)),
                ("snapshot/lag=0", MvccConfig::snapshot(4, SimDuration::ZERO)),
                (
                    "snapshot/lag=20000",
                    MvccConfig::snapshot(4, SimDuration::from_ticks(20_000)),
                ),
                (
                    "snapshot/lag=100000",
                    MvccConfig::snapshot(4, SimDuration::from_ticks(100_000)),
                ),
            ];
            let base = params::interarrival_for(8).ticks() as f64;
            let mut cells = Vec::new();
            for rate in [0.6, 0.9, 1.2] {
                for (arm, mvcc) in arms {
                    cells.push((
                        format!("{arm}/rate={rate}"),
                        SimSpec::SingleSite(SingleSiteSpec {
                            read_only_fraction: 0.5,
                            scan_readers: true,
                            interarrival: SimDuration::from_ticks((base / rate).round() as u64),
                            db_size: 50,
                            mvcc: Some(mvcc),
                            ..SingleSiteSpec::figure(
                                ProtocolKind::PriorityCeiling,
                                8,
                                scaled(params::TXNS_PER_RUN),
                            )
                        }),
                    ));
                }
            }
            Workload::Sim(cells)
        }
        // Hot 50-object database with 20 µs of work per held lock and two
        // workers: lock waits and wake-ups dominate.
        "live-contended" => Workload::Live(LiveShape {
            threads: 2,
            txn_count: scaled(1_500),
            txn_size: 8,
            db_size: 50,
            hold_us: 20,
        }),
        // 10⁵ objects, no busy work, one worker: only the lock path,
        // uncontended latches and the recorder remain. Two workers here
        // swing by several per cent between runs with how the host places
        // the virtual CPUs, so the traced run reports the 2-thread rate
        // instead. 32 objects per transaction put lock operations ahead of
        // per-transaction costs and keep latencies well above the
        // one-microsecond resolution of the live event stamps.
        "live-overhead" => Workload::Live(LiveShape {
            threads: 1,
            txn_count: scaled(1_800),
            txn_size: 32,
            db_size: 100_000,
            hold_us: 0,
        }),
        _ => return None,
    };
    Some(workload)
}

/// The label of a single-site protocol in cell names and in the
/// `protocols.<label>.txns_per_s` metrics.
///
/// # Panics
///
/// Panics on a protocol no workload runs.
pub fn protocol_label(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::TwoPhaseLocking => "L",
        ProtocolKind::TwoPhaseLockingPriority => "P",
        ProtocolKind::PriorityInheritance => "PI",
        ProtocolKind::PriorityCeiling => "C",
        other => unreachable!("no workload runs {other}"),
    }
}
