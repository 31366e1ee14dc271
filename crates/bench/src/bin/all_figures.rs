//! Runs every figure's experiment at reduced scale and checks the
//! paper's qualitative claims — a fast end-to-end sanity pass over the
//! whole reproduction (the full-scale binaries are `fig2` … `fig6`).
//!
//! The whole pass runs as one sweep on the parallel harness; its
//! wall-clock time is recorded in `BENCH_SWEEP.json`.

use rtlock::distributed::CeilingArchitecture;
use rtlock::ProtocolKind;
use rtlock_bench::distributed::{dist_label, pair_from};
use rtlock_bench::experiment::{Experiment, Fields};
use rtlock_bench::harness::{DistributedSpec, SimSpec, SingleSiteSpec, Sweep, SweepResults};
use rtlock_bench::single_site::size_label;

const TXNS: u32 = 150;
const SEEDS: u64 = 3;
const DIST_DELAYS: [u32; 2] = [0, 4];

fn main() {
    let mut sweep = Sweep::new();
    for kind in [ProtocolKind::PriorityCeiling, ProtocolKind::TwoPhaseLocking] {
        for size in [5u32, 20] {
            let spec = SingleSiteSpec::figure(kind, size, TXNS);
            sweep.point(size_label(kind, size), SEEDS, SimSpec::SingleSite(spec));
        }
    }
    for delay in DIST_DELAYS {
        for arch in [
            CeilingArchitecture::LocalReplicated,
            CeilingArchitecture::GlobalManager,
        ] {
            let spec = DistributedSpec::figure(arch, 0.5, delay, TXNS);
            sweep.point(
                dist_label(arch, 0.5, delay),
                SEEDS,
                SimSpec::Distributed(spec),
            );
        }
    }
    Experiment {
        name: "all_figures",
        title: "Reduced-scale end-to-end pass over Figures 2-6",
        parameters: vec![("txns_per_run", TXNS.into()), ("seeds", SEEDS.into())],
        sweep,
        smoke: None,
        bench_record: true,
        report,
    }
    .run();
}

fn report(swept: &SweepResults, _smoke: bool) -> Fields {
    let size_point = |kind: ProtocolKind, size: u32| {
        let p = swept.point(&size_label(kind, size));
        (p.throughput().mean, p.pct_missed().mean)
    };
    println!("== quick single-site pass (Figures 2 & 3) ==");
    let c_small = size_point(ProtocolKind::PriorityCeiling, 5);
    let c_large = size_point(ProtocolKind::PriorityCeiling, 20);
    let l_small = size_point(ProtocolKind::TwoPhaseLocking, 5);
    let l_large = size_point(ProtocolKind::TwoPhaseLocking, 20);
    println!(
        "C: size 5 -> {:.0} obj/s, {:.1}% missed | size 20 -> {:.0} obj/s, {:.1}% missed",
        c_small.0, c_small.1, c_large.0, c_large.1
    );
    println!(
        "L: size 5 -> {:.0} obj/s, {:.1}% missed | size 20 -> {:.0} obj/s, {:.1}% missed",
        l_small.0, l_small.1, l_large.0, l_large.1
    );
    let claim_f3 = l_large.1 > c_large.1;
    println!("claim (Fig 3: L misses more than C at size 20): {claim_f3}");

    println!("\n== quick distributed pass (Figures 4-6) ==");
    for delay in DIST_DELAYS {
        let (local, global) = pair_from(swept, 0.5, delay);
        println!(
            "delay {delay}: local {:.0} obj/s ({:.1}% missed) vs global {:.0} obj/s ({:.1}% missed)",
            local.throughput().mean,
            local.pct_missed().mean,
            global.throughput().mean,
            global.pct_missed().mean
        );
    }
    println!("\n\ndone — run fig2..fig6 for the full-scale series");
    Fields::new()
}
