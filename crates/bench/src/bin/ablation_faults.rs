//! Extension study E5 — fault injection and recovery.
//!
//! Sweeps message loss against a scheduled site outage for both
//! distributed ceiling architectures. Message loss exercises the bounded
//! retry / reliable-release machinery; the crash window exercises
//! fault-abort of resident transactions, coordinator vote timeouts, and
//! (for the local architecture) replica repair on restart. The whole
//! sweep is seeded and deterministic: two runs of this binary produce
//! byte-identical `results/ablation_faults.json` files.

use monitor::csv::Table;
use netsim::{CrashWindow, FaultPlan, LinkFaults};
use rtdb::SiteId;
use rtlock::distributed::CeilingArchitecture;
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{DistributedSpec, SimSpec, Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;
use starlite::SimTime;

/// Seed of the fault RNG stream; independent of the workload seeds.
const FAULT_SEED: u64 = 42;

/// Message-loss probabilities swept, in parts per million.
const LOSS_PPM: [u32; 3] = [0, 20_000, 100_000];

/// The scheduled outage: site 2 (never the global manager) is down for
/// roughly a third of the arrival horizon and then restarts.
const CRASH_DOWN_AT: u64 = 100_000;
const CRASH_UP_AT: u64 = 250_000;

fn plan(loss_ppm: u32, crash: bool) -> FaultPlan {
    FaultPlan {
        link: LinkFaults {
            loss_ppm,
            // Duplicate at half the loss rate so the sweep also exercises
            // the at-least-once delivery guards.
            duplicate_ppm: loss_ppm / 2,
            jitter_ticks: 0,
            seed: FAULT_SEED,
        },
        crashes: if crash {
            vec![CrashWindow {
                site: SiteId(2),
                down_at: SimTime::from_ticks(CRASH_DOWN_AT),
                up_at: Some(SimTime::from_ticks(CRASH_UP_AT)),
            }]
        } else {
            Vec::new()
        },
    }
}

fn label(arch: CeilingArchitecture, loss_ppm: u32, crash: bool) -> String {
    format!(
        "{}/loss={}%/crash={}",
        arch.label(),
        loss_ppm as f64 / 10_000.0,
        if crash { "on" } else { "off" }
    )
}

const ARCHS: [CeilingArchitecture; 2] = [
    CeilingArchitecture::GlobalManager,
    CeilingArchitecture::LocalReplicated,
];

fn main() {
    // Declared heaviest-faults-first so `--trace` (which replays the
    // first sweep point) captures a run with drops, crashes and retries.
    let mut sweep = Sweep::new();
    for arch in ARCHS {
        for &loss in LOSS_PPM.iter().rev() {
            for crash in [true, false] {
                let txns = params::DIST_TXNS_PER_RUN;
                let spec = DistributedSpec::faulted(arch, 0.5, 2, txns, plan(loss, crash));
                let label = label(arch, loss, crash);
                sweep.point(label, params::SEEDS, SimSpec::Distributed(spec));
            }
        }
    }
    let crash_window = Json::object([
        ("site", 2u32.into()),
        ("down_at_ticks", CRASH_DOWN_AT.into()),
        ("up_at_ticks", CRASH_UP_AT.into()),
    ]);
    Experiment {
        name: "ablation_faults",
        title: "Extension E5: fault injection and recovery",
        parameters: vec![
            ("txns_per_run", params::DIST_TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("read_only_fraction", 0.5.into()),
            ("delay_units", 2u32.into()),
            ("fault_seed", FAULT_SEED.into()),
            ("loss_ppm", Json::array(LOSS_PPM)),
            ("duplicate_ppm_factor", 0.5.into()),
            ("crash_window", crash_window),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut table = Table::new(vec![
        "loss_pct".into(),
        "crash".into(),
        "pct_missed_global".into(),
        "faulted_global".into(),
        "dropped_global".into(),
        "pct_missed_local".into(),
        "faulted_local".into(),
        "dropped_local".into(),
    ]);
    for &loss in &LOSS_PPM {
        for crash in [false, true] {
            let mut row = vec![loss as f64 / 10_000.0, crash as u8 as f64];
            for arch in ARCHS {
                let point = swept.point(&label(arch, loss, crash));
                let n = point.runs.len() as f64;
                let mut faulted = 0.0;
                let mut dropped = 0.0;
                for (_, m) in &point.runs {
                    faulted += m.faulted as f64;
                    let net = m.net.expect("distributed runs report net stats");
                    dropped += (net.dropped_at_send + net.dropped_in_flight) as f64;
                }
                row.push(point.pct_missed().mean);
                row.push(faulted / n);
                row.push(dropped / n);
            }
            table.push_row(row);
        }
    }
    println!("Extension E5: fault injection and recovery");
    println!(
        "(both architectures, 50% read-only mix, delay 2 units; \
         faulted/dropped are per-run means over {} seeds)\n",
        params::SEEDS
    );
    print_table(&table, None);
    Fields::new()
}
