//! Extension study E3 — temporal consistency of replicated reads.
//!
//! §4 closes with the multiversion timestamp mechanism for temporally
//! consistent views. This study measures, under the local-ceiling
//! architecture, how replica staleness and snapshot constructibility
//! respond to the communication delay and the version retention depth.

use monitor::csv::Table;
use rtlock::distributed::CeilingArchitecture;
use rtlock_bench::experiment::{print_table, Experiment, Fields};
use rtlock_bench::harness::{DistributedSpec, SimSpec, Sweep, SweepResults};
use rtlock_bench::params;
use rtlock_bench::results::Json;

const DELAYS: [u32; 4] = [0, 2, 4, 8];
const RETENTIONS: [usize; 3] = [2, 8, 32];

fn label(delay: u32, keep: usize) -> String {
    format!("local/delay={delay}/keep={keep}")
}

fn main() {
    let mut sweep = Sweep::new();
    for d in DELAYS {
        for keep in RETENTIONS {
            let arch = CeilingArchitecture::LocalReplicated;
            let spec = DistributedSpec {
                temporal_versions: Some(keep),
                ..DistributedSpec::figure(arch, 0.5, d, params::DIST_TXNS_PER_RUN)
            };
            sweep.point(label(d, keep), params::SEEDS, SimSpec::Distributed(spec));
        }
    }
    Experiment {
        name: "ablation_temporal",
        title: "Extension E3: replica staleness and snapshot constructibility",
        parameters: vec![
            ("txns_per_run", params::DIST_TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("read_only_fraction", 0.5.into()),
            ("delay_units", Json::array(DELAYS)),
            ("retentions", Json::array(RETENTIONS)),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let mut columns = vec![
        "delay_units".to_string(),
        "mean_replica_lag".into(),
        "max_replica_lag".into(),
    ];
    columns.extend(RETENTIONS.map(|k| format!("unconstructible_k{k}")));
    let mut table = Table::new(columns);
    for d in DELAYS {
        let mut row = vec![d as f64];
        let mut unconstructible = Vec::new();
        for (i, keep) in RETENTIONS.into_iter().enumerate() {
            let point = swept.point(&label(d, keep));
            let mut mean_lag = 0.0;
            let mut max_lag = 0u64;
            let mut uncon = 0.0;
            for (_, m) in &point.runs {
                let t = m.temporal.expect("enabled");
                mean_lag += t.mean_replica_lag_ticks;
                max_lag = max_lag.max(t.max_replica_lag_ticks);
                uncon += 100.0 * t.unconstructible as f64 / t.snapshot_reads.max(1) as f64;
            }
            if i == 0 {
                // Lag is retention-independent; report it once.
                row.push(mean_lag / params::SEEDS as f64);
                row.push(max_lag as f64);
            }
            unconstructible.push(uncon / params::SEEDS as f64);
        }
        row.extend(unconstructible);
        table.push_row(row);
    }
    println!("Extension E3: replica staleness and snapshot constructibility");
    println!(
        "(local ceiling architecture, 50% read-only mix; lag in ticks, unconstructible in %)\n"
    );
    print_table(&table, None);
    Fields::new()
}
