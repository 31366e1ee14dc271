//! Parameter-space exploration helper (not part of the figure suite).
//!
//! Usage: `calibrate [--check] <cpu> <io> <util> <slack> <write_frac> <txns> <seeds>`
//! sweeps the figure sizes for C, P and L under the given parameters and
//! prints throughput / %missed / deadlocks per point.

use monitor::CheckSink;
use rtdb::{Catalog, Placement};
use rtlock::{ProtocolKind, Simulator, SingleSiteConfig};
use rtlock_bench::cli::Command;
use starlite::SimDuration;
use workload::{SizeDistribution, WorkloadSpec};

fn main() {
    let cli = Command {
        name: "calibrate",
        numbers: Some((
            "[<cpu> <io> <util> <slack> <write_frac> <txns> <seeds> <restart>]",
            8,
        )),
        ..Command::default()
    }
    .args();
    let (check, args) = (cli.check, cli.numbers);
    let mut violations = 0usize;
    let cpu = SimDuration::from_ticks(args.first().copied().unwrap_or(1000.0) as u64);
    let io = SimDuration::from_ticks(args.get(1).copied().unwrap_or(2000.0) as u64);
    let util = args.get(2).copied().unwrap_or(0.5);
    let slack = args.get(3).copied().unwrap_or(6.0);
    let write_frac = args.get(4).copied().unwrap_or(1.0);
    let txns = args.get(5).copied().unwrap_or(300.0) as u32;
    let seeds = args.get(6).copied().unwrap_or(5.0) as u64;
    let restart = args.get(7).copied().unwrap_or(1.0) != 0.0;

    println!(
        "cpu={} io={} util={util} slack={slack} wf={write_frac} txns={txns} seeds={seeds}",
        cpu.ticks(),
        io.ticks()
    );
    println!(
        "{:>4} {:>3} {:>9} {:>8} {:>9} {:>9}",
        "size", "p", "thrpt", "%missed", "deadlocks", "restarts"
    );
    for size in [2u32, 5, 8, 11, 14, 17, 20] {
        let interarrival =
            SimDuration::from_ticks((size as f64 * cpu.ticks() as f64 / util).round() as u64);
        for kind in [
            ProtocolKind::PriorityCeiling,
            ProtocolKind::TwoPhaseLockingPriority,
            ProtocolKind::TwoPhaseLocking,
        ] {
            let catalog = Catalog::new(200, 1, Placement::SingleSite);
            let workload = WorkloadSpec::builder()
                .txn_count(txns)
                .mean_interarrival(interarrival)
                .size(SizeDistribution::Fixed(size))
                .write_fraction(write_frac)
                .deadline(slack, SimDuration::from_ticks(cpu.ticks() + io.ticks()))
                .build();
            let config = SingleSiteConfig::builder()
                .protocol(kind)
                .cpu_per_object(cpu)
                .io_per_object(io)
                .restart_victims(restart)
                .build();
            let sim = Simulator::new(config, catalog, &workload);
            let mut thr = 0.0;
            let mut miss = 0.0;
            let mut dl = 0.0;
            let mut rs = 0.0;
            for seed in 0..seeds {
                let r = if check {
                    let mut sink = CheckSink::new(kind.check_config(restart));
                    let r = sim.run_with(seed, &mut sink);
                    for v in sink.finish() {
                        eprintln!("check: size={size} {} seed {seed}: {v}", kind.label());
                        violations += 1;
                    }
                    r
                } else {
                    sim.run(seed)
                };
                thr += r.stats.throughput;
                miss += r.stats.pct_missed;
                dl += r.deadlocks as f64;
                rs += r.stats.restarts as f64;
            }
            let n = seeds as f64;
            println!(
                "{:>4} {:>3} {:>9.0} {:>8.1} {:>9.1} {:>9.1}",
                size,
                kind.label(),
                thr / n,
                miss / n,
                dl / n,
                rs / n
            );
        }
    }
    if check {
        if violations > 0 {
            eprintln!("check: {violations} violations");
            std::process::exit(1);
        }
        eprintln!("check: 0 violations");
    }
}
