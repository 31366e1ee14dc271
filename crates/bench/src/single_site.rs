//! Single-site grid: the data behind Figures 2 and 3.

use rtlock::ProtocolKind;

use crate::experiment::{Experiment, Report};
use crate::harness::{SimSpec, SingleSiteSpec, Sweep};
use crate::params;
use crate::results::Json;

/// The sweep label of one Figure 2/3 point.
pub fn size_label(protocol: ProtocolKind, size: u32) -> String {
    format!("{}/size={size}", protocol.label())
}

/// Declares the full Figure 2/3 grid — every size in [`params::SIZES`]
/// for every protocol — on a [`Sweep`], labelled by [`size_label`].
pub fn declare_size_grid(
    sweep: &mut Sweep,
    protocols: &[ProtocolKind],
    txn_count: u32,
    seeds: u64,
) {
    for &size in &params::SIZES {
        for &p in protocols {
            sweep.point(
                size_label(p, size),
                seeds,
                SimSpec::SingleSite(SingleSiteSpec::figure(p, size, txn_count)),
            );
        }
    }
}

/// The protocols Figures 2 and 3 compare: C, P, L.
pub fn figure_protocols() -> [ProtocolKind; 3] {
    [
        ProtocolKind::PriorityCeiling,
        ProtocolKind::TwoPhaseLockingPriority,
        ProtocolKind::TwoPhaseLocking,
    ]
}

/// Figure 2 or 3: the full-scale grid over [`figure_protocols`],
/// rendered by `report`.
pub fn figure_experiment(name: &'static str, title: &'static str, report: Report) -> Experiment {
    let mut sweep = Sweep::new();
    declare_size_grid(
        &mut sweep,
        &figure_protocols(),
        params::TXNS_PER_RUN,
        params::SEEDS,
    );
    Experiment {
        name,
        title,
        parameters: vec![
            ("db_size", params::DB_SIZE.into()),
            ("utilization", params::UTILIZATION.into()),
            ("slack_factor", params::SLACK_FACTOR.into()),
            ("txns_per_run", params::TXNS_PER_RUN.into()),
            ("seeds", params::SEEDS.into()),
            ("sizes", Json::array(params::SIZES)),
        ],
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
}

/// The setting line printed under the Figure 2 and 3 titles.
pub fn figure_setting() -> String {
    format!(
        "db={} objects, util target {:.2}, slack {:.1}, {} txns x {} seeds\n",
        params::DB_SIZE,
        params::UTILIZATION,
        params::SLACK_FACTOR,
        params::TXNS_PER_RUN,
        params::SEEDS
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_point_reproduces_figure_claims_at_small_scale() {
        // A reduced-scale version of the Figure 2/3 qualitative check:
        // L misses more than C at the largest size.
        let point = |protocol| {
            let mut sweep = Sweep::new();
            let sim = SimSpec::SingleSite(SingleSiteSpec::figure(protocol, 20, 120));
            sweep.point("size=20", 2, sim);
            sweep.run(2).points.remove(0)
        };
        let c = point(ProtocolKind::PriorityCeiling);
        let l = point(ProtocolKind::TwoPhaseLocking);
        assert!(c.throughput().mean > 0.0);
        assert!(
            l.pct_missed().mean > c.pct_missed().mean,
            "L ({}) should miss more than C ({}) at size 20",
            l.pct_missed().mean,
            c.pct_missed().mean
        );
        assert!(l.deadlocks().mean > 0.0, "L must deadlock at size 20");
        assert_eq!(c.deadlocks().mean, 0.0, "C never deadlocks");
    }

    #[test]
    fn sweep_covers_all_requested_points() {
        let mut sweep = Sweep::new();
        declare_size_grid(&mut sweep, &[ProtocolKind::PriorityCeiling], 40, 1);
        let points = sweep.run(2).points;
        assert_eq!(points.len(), params::SIZES.len());
        assert!(points.iter().all(|p| p.label.starts_with("C/size=")));
    }
}
