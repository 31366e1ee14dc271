//! Temporal-consistency figure — snapshot reads vs. lock-based reads.
//!
//! The paper's §4 closes with multiversion timestamped reads as the
//! mechanism for real-time tracking queries. This sweep reproduces that
//! scenario on the single-site simulator: a 50 % read-only mix where the
//! readers scan contiguous object ranges, served three ways —
//!
//! * `lock`     — readers take ordinary read locks (the baseline);
//! * `latch`    — readers take one range latch over their scan and skip
//!   the lock protocol (writers add point write latches);
//! * `snapshot` — readers pin `arrival − lag` in the version store and
//!   read lock-free at the pinned instant.
//!
//! The axes are the update rate (arrival-rate multiplier over the
//! calibrated 70 %-utilisation load: more updates, more reader/writer
//! conflicts) and, for the snapshot arm, the reader lag (how far in the
//! past the pinned view sits — old pins meet the retention bound and
//! become unconstructible). The figure's claim, asserted below: under
//! high update rates the snapshot arm misses fewer reader deadlines than
//! the lock arm, because its readers never block.
//!
//! Usage: `fig_temporal [--smoke] [--check] [--trace <path>] [--profile…]`
//!
//! `--smoke` runs the highest-rate column only, over 3 seeds, and writes
//! no artifacts — the CI configuration. `--check` streams every run
//! through the online invariant oracle (snapshot-consistency, GC safety,
//! latch compatibility) as usual.

use monitor::csv::Table;
use rtlock::{MvccConfig, ProtocolKind, ReaderMode, TemporalStats};
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{SimSpec, SingleSiteSpec, Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;
use starlite::SimDuration;

/// Accesses per transaction (readers scan this many contiguous objects).
const SIZE: u32 = 8;

/// Versions retained per object in every multiversion arm.
const KEEP: usize = 4;

/// Database size. Much hotter than the paper's 200-object database so
/// that reader/writer lock conflicts — the effect the snapshot arm
/// removes — dominate deadline misses before the CPU saturates.
const DB_SIZE: u32 = 50;

/// Arrival-rate multipliers over the calibrated 70 %-utilisation load
/// (the top of the sweep keeps CPU headroom: misses there are
/// contention, not saturation).
const RATES: [f64; 3] = [0.6, 0.9, 1.2];

/// Reader lags (ticks) swept for the snapshot arm. The largest sits far
/// enough in the past that hot objects outrun the retention bound, so
/// some pinned views become unconstructible.
const LAGS: [u64; 3] = [0, 20_000, 100_000];

fn spec(mode: ReaderMode, rate: f64, lag: u64) -> SingleSiteSpec {
    let mvcc = match mode {
        ReaderMode::Locking => MvccConfig::locking(KEEP),
        ReaderMode::LatchScan => MvccConfig::latch_scan(KEEP),
        ReaderMode::Snapshot => MvccConfig::snapshot(KEEP, SimDuration::from_ticks(lag)),
    };
    let base = params::interarrival_for(SIZE).ticks() as f64;
    SingleSiteSpec {
        read_only_fraction: 0.5,
        scan_readers: true,
        interarrival: SimDuration::from_ticks((base / rate).round() as u64),
        db_size: DB_SIZE,
        mvcc: Some(mvcc),
        ..SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, SIZE, params::TXNS_PER_RUN)
    }
}

fn label(mode: ReaderMode, rate: f64, lag: u64) -> String {
    match mode {
        ReaderMode::Snapshot => format!("{}/rate={rate}/lag={lag}", mode.label()),
        _ => format!("{}/rate={rate}", mode.label()),
    }
}

/// Seed-averaged temporal metrics of one sweep point.
fn temporal_mean(swept: &SweepResults, label: &str) -> (f64, f64, f64) {
    let point = swept.point(label);
    let (mut miss, mut uncon, mut gced) = (0.0, 0.0, 0.0);
    for (_, m) in &point.runs {
        let t: TemporalStats = m.temporal.expect("every arm runs with mvcc enabled");
        miss += t.reader_miss_percent();
        uncon += 100.0 * t.unconstructible as f64 / t.snapshot_reads.max(1) as f64;
        gced += t.versions_gced as f64;
    }
    let n = point.runs.len() as f64;
    (miss / n, uncon / n, gced / n)
}

fn sweep(rates: &[f64], seeds: u64) -> Sweep {
    let mut sweep = Sweep::new();
    for &rate in rates {
        for mode in [ReaderMode::Locking, ReaderMode::LatchScan] {
            let sim = SimSpec::SingleSite(spec(mode, rate, 0));
            sweep.point(label(mode, rate, 0), seeds, sim);
        }
        for lag in LAGS {
            let sim = SimSpec::SingleSite(spec(ReaderMode::Snapshot, rate, lag));
            sweep.point(label(ReaderMode::Snapshot, rate, lag), seeds, sim);
        }
    }
    sweep
}

fn main() {
    Experiment {
        name: "fig_temporal",
        title: "Temporal consistency: snapshot vs lock-based reader deadline misses",
        parameters: vec![
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("read_only_fraction", 0.5.into()),
            ("txn_size", SIZE.into()),
            ("db_size", DB_SIZE.into()),
            ("retention", (KEEP as u64).into()),
            ("rates", Json::array(RATES)),
            ("lags_ticks", Json::array(LAGS)),
        ],
        sweep: sweep(&RATES, params::SEEDS),
        smoke: Some(sweep(&RATES[2..], 3)),
        bench_record: true,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, smoke: bool) -> Fields {
    let rates = if smoke { &RATES[2..] } else { &RATES[..] };
    let mut table = Table::new(vec![
        "rate".into(),
        "lock_reader_miss".into(),
        "latch_reader_miss".into(),
        "snap_reader_miss".into(),
        "snap_unconstructible_maxlag".into(),
        "snap_gced_mean".into(),
    ]);
    for &rate in rates {
        let (lock_miss, _, _) = temporal_mean(swept, &label(ReaderMode::Locking, rate, 0));
        let (latch_miss, _, _) = temporal_mean(swept, &label(ReaderMode::LatchScan, rate, 0));
        // The snapshot arm's miss rate is lag-independent (readers never
        // block either way); report lag 0 for the curve and the deepest
        // lag for the constructibility column.
        let (snap_miss, _, _) = temporal_mean(swept, &label(ReaderMode::Snapshot, rate, 0));
        let max_lag = *LAGS.last().expect("non-empty");
        let (_, uncon, gced) = temporal_mean(swept, &label(ReaderMode::Snapshot, rate, max_lag));
        table.push_row(vec![rate, lock_miss, latch_miss, snap_miss, uncon, gced]);
    }
    println!("Temporal figure: reader deadline misses, snapshot vs lock-based reads");
    println!("(50% scan readers, priority ceiling writers; miss/unconstructible in %)\n");
    print_table(&table, None);

    // The figure's claim: at the highest update rate the lock-free arms
    // miss fewer reader deadlines than the lock-based baseline.
    let high = *rates.last().expect("non-empty");
    let (lock_miss, _, _) = temporal_mean(swept, &label(ReaderMode::Locking, high, 0));
    for lag in LAGS {
        let (snap_miss, _, _) = temporal_mean(swept, &label(ReaderMode::Snapshot, high, lag));
        assert!(
            snap_miss < lock_miss,
            "snapshot arm (lag {lag}) must miss fewer reader deadlines than the lock arm \
             at rate {high} (snapshot {snap_miss:.2}% vs lock {lock_miss:.2}%)"
        );
    }
    Fields::new()
}
