//! End-to-end figure benchmarks: each of the paper's five figures run at
//! reduced scale, so `cargo bench` exercises every experiment pipeline.
//! The full-scale series come from the `fig2` … `fig6` binaries.

use criterion::{criterion_group, criterion_main, Criterion};
use monitor::MetricsSink;
use rtlock::distributed::CeilingArchitecture;
use rtlock::ProtocolKind;
use rtlock_bench::harness::{
    execute, execute_with, DistributedSpec, PointResult, RunSpec, SimSpec, SingleSiteSpec, Sweep,
};
use starlite::NullSink;

const TXNS: u32 = 80;
const SEEDS: u64 = 2;

/// One figure point: `SEEDS` replicates of `sim` as a one-point sweep on
/// one worker.
fn point(sim: SimSpec) -> PointResult {
    let mut sweep = Sweep::new();
    sweep.point("point", SEEDS, sim);
    sweep.run(1).points.remove(0)
}

fn bench_fig2_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/single_site");
    group.sample_size(10);
    for kind in [
        ProtocolKind::PriorityCeiling,
        ProtocolKind::TwoPhaseLockingPriority,
        ProtocolKind::TwoPhaseLocking,
    ] {
        group.bench_function(format!("size14_{}", kind.label()), |b| {
            let sim = SimSpec::SingleSite(SingleSiteSpec::figure(kind, 14, TXNS));
            b.iter(|| point(sim.clone()));
        });
    }
    group.finish();
}

fn bench_fig4_fig5_fig6(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures/distributed");
    group.sample_size(10);
    for arch in [
        CeilingArchitecture::LocalReplicated,
        CeilingArchitecture::GlobalManager,
    ] {
        group.bench_function(format!("mix50_delay2_{}", arch.label()), |b| {
            let sim = SimSpec::Distributed(DistributedSpec::figure(arch, 0.5, 2, TXNS));
            b.iter(|| point(sim.clone()));
        });
    }
    group.finish();
}

/// Off-path cost of the structured event pipeline: the same run with the
/// default [`NullSink`] (instrumentation monomorphised away — see
/// `scripts/check_sink_codegen.sh` for the codegen proof), with `NullSink`
/// passed explicitly through the generic `execute_with` entry point (must
/// be identical), and with a live [`MetricsSink`] as the tracing-on
/// reference point.
fn bench_sink_overhead(c: &mut Criterion) {
    let spec = RunSpec {
        label: "sink_overhead".to_string(),
        seed: 0,
        sim: SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::PriorityCeiling,
            14,
            TXNS,
        )),
    };
    let mut group = c.benchmark_group("figures/sink_overhead");
    group.sample_size(20);
    group.bench_function("null_default", |b| b.iter(|| execute(&spec)));
    group.bench_function("null_explicit", |b| {
        b.iter(|| execute_with(&spec, NullSink))
    });
    group.bench_function("metrics", |b| {
        b.iter(|| execute_with(&spec, &mut MetricsSink::new()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig2_fig3,
    bench_fig4_fig5_fig6,
    bench_sink_overhead
);
criterion_main!(benches);
