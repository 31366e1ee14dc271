//! Distributed parameter-space exploration helper (not part of the
//! figure suite).
//!
//! Usage: `calibrate_dist [--check] <util> <slack> <delay_units...>` measures both
//! architectures at the 50/50 mix for each delay.

use monitor::CheckSink;
use rtdb::{Catalog, Placement};
use rtlock::distributed::{CeilingArchitecture, DistributedConfig, DistributedSimulator};
use rtlock_bench::cli::Command;
use starlite::SimDuration;
use workload::{SizeDistribution, WorkloadSpec};

fn main() {
    let cli = Command {
        name: "calibrate_dist",
        numbers: Some(("[<util> <slack> <delay_units>...]", usize::MAX)),
        ..Command::default()
    }
    .args();
    let (check, args) = (cli.check, cli.numbers);
    let mut violations = 0usize;
    let util = args.first().copied().unwrap_or(0.7);
    let slack = args.get(1).copied().unwrap_or(10.0);
    let delays: Vec<u32> = if args.len() > 2 {
        args[2..].iter().map(|&d| d as u32).collect()
    } else {
        vec![0, 2, 4, 8]
    };
    let cpu = 1_000u64;
    let (smin, smax) = (2u32, 6u32);
    let mean_size = (smin + smax) as f64 / 2.0;
    let interarrival =
        SimDuration::from_ticks((mean_size * cpu as f64 / util / 3.0).round() as u64);

    println!(
        "util={util} slack={slack} interarrival={}",
        interarrival.ticks()
    );
    println!(
        "{:>5} {:>6} {:>9} {:>8} {:>9} {:>8} {:>7}",
        "delay", "arch", "thrpt", "%missed", "msgs", "ratioT", "ratioM"
    );
    for d in delays {
        let mut results = Vec::new();
        for arch in [
            CeilingArchitecture::LocalReplicated,
            CeilingArchitecture::GlobalManager,
        ] {
            let catalog = Catalog::new(90, 3, Placement::FullyReplicated);
            let workload = WorkloadSpec::builder()
                .txn_count(300)
                .mean_interarrival(interarrival)
                .size(SizeDistribution::Uniform {
                    min: smin,
                    max: smax,
                })
                .read_only_fraction(0.5)
                .write_fraction(0.5)
                .deadline(slack, SimDuration::from_ticks(cpu))
                .build();
            let config = DistributedConfig::builder()
                .architecture(arch)
                .comm_delay(SimDuration::from_ticks(250 * d as u64))
                .cpu_per_object(SimDuration::from_ticks(cpu))
                .apply_cost(SimDuration::from_ticks(200))
                .build();
            let sim = DistributedSimulator::new(config, catalog, &workload);
            let (mut thr, mut miss, mut msgs) = (0.0, 0.0, 0.0);
            let seeds = 5;
            for seed in 0..seeds {
                let r = if check {
                    let mut sink = CheckSink::new(arch.check_config(3));
                    let r = sim.run_with(seed, &mut sink);
                    for v in sink.finish() {
                        eprintln!("check: delay={d} {arch:?} seed {seed}: {v}");
                        violations += 1;
                    }
                    r
                } else {
                    sim.run(seed)
                };
                thr += r.stats.throughput;
                miss += r.stats.pct_missed;
                msgs += r.remote_messages as f64;
            }
            results.push((
                arch,
                thr / seeds as f64,
                miss / seeds as f64,
                msgs / seeds as f64,
            ));
        }
        let (l, g) = (&results[0], &results[1]);
        println!(
            "{:>5} {:>6} {:>9.0} {:>8.1} {:>9.0} {:>7.2} {:>7.1}",
            d,
            "local",
            l.1,
            l.2,
            l.3,
            l.1 / g.1.max(1.0),
            g.2 / l.2.max(0.25)
        );
        println!(
            "{:>5} {:>6} {:>9.0} {:>8.1} {:>9.0}",
            d, "global", g.1, g.2, g.3
        );
    }
    if check {
        if violations > 0 {
            eprintln!("check: {violations} violations");
            std::process::exit(1);
        }
        eprintln!("check: 0 violations");
    }
}
