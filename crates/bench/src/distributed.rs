//! Distributed grids: the data behind Figures 4, 5 and 6.

use rtlock::distributed::CeilingArchitecture;

use crate::experiment::{Experiment, Fields, Report};
use crate::harness::{DistributedSpec, PointResult, SimSpec, Sweep, SweepResults};
use crate::params;

/// The sweep label of one distributed point.
pub fn dist_label(architecture: CeilingArchitecture, mix: f64, delay_units: u32) -> String {
    format!("{}/ro={:.2}/delay={delay_units}", architecture.label(), mix)
}

/// Declares both architectures at every `(mix, delay)` point of
/// `mixes` × `delays`, mix-major, on a [`Sweep`], labelled by
/// [`dist_label`].
pub fn declare_pair_grid(
    sweep: &mut Sweep,
    mixes: &[f64],
    delays: &[u32],
    txn_count: u32,
    seeds: u64,
) {
    for &mix in mixes {
        for &delay in delays {
            for arch in [
                CeilingArchitecture::LocalReplicated,
                CeilingArchitecture::GlobalManager,
            ] {
                let spec = DistributedSpec::figure(arch, mix, delay, txn_count);
                sweep.point(
                    dist_label(arch, mix, delay),
                    seeds,
                    SimSpec::Distributed(spec),
                );
            }
        }
    }
}

/// The `(local, global)` results of one `(mix, delay)` point from a
/// sweep declared by [`declare_pair_grid`].
pub fn pair_from(
    results: &SweepResults,
    mix: f64,
    delay_units: u32,
) -> (&PointResult, &PointResult) {
    let point = |arch| results.point(&dist_label(arch, mix, delay_units));
    (
        point(CeilingArchitecture::LocalReplicated),
        point(CeilingArchitecture::GlobalManager),
    )
}

/// Figure 4, 5 or 6: both architectures at every `(mix, delay)` point of
/// `mixes` × `delays` at full scale, with `parameters` after the shared
/// ones, rendered by `report`.
pub fn pair_experiment(
    name: &'static str,
    title: &'static str,
    mixes: &[f64],
    delays: &[u32],
    parameters: Fields,
    report: Report,
) -> Experiment {
    let mut sweep = Sweep::new();
    let (txns, seeds) = (params::DIST_TXNS_PER_RUN, params::SEEDS);
    declare_pair_grid(&mut sweep, mixes, delays, txns, seeds);
    let mut shared = vec![
        ("sites", params::DIST_SITES.into()),
        ("db_size", params::DIST_DB_SIZE.into()),
        ("txns_per_run", params::DIST_TXNS_PER_RUN.into()),
        ("seeds", params::SEEDS.into()),
    ];
    shared.extend(parameters);
    Experiment {
        name,
        title,
        parameters: shared,
        sweep,
        smoke: None,
        bench_record: false,
        report,
    }
}

/// The setting line printed under the Figure 4–6 titles.
pub fn pair_setting(suffix: &str) -> String {
    format!(
        "{} sites, db={} objects, {} txns x {} seeds{suffix}\n",
        params::DIST_SITES,
        params::DIST_DB_SIZE,
        params::DIST_TXNS_PER_RUN,
        params::SEEDS
    )
}

/// The transaction mixes (fraction read-only) the figures sweep.
pub const MIXES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Ratio guarding against division by ~zero: returns
/// `max(numerator, floor) / max(denominator, floor)`.
pub fn safe_ratio(numerator: f64, denominator: f64, floor: f64) -> f64 {
    numerator.max(floor) / denominator.max(floor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_beats_global_at_small_scale() {
        let mut sweep = Sweep::new();
        declare_pair_grid(&mut sweep, &[0.5], &[2], 100, 2);
        let swept = sweep.run(2);
        let (local, global) = pair_from(&swept, 0.5, 2);
        assert!(
            local.throughput().mean > global.throughput().mean,
            "local ({}) should out-run global ({})",
            local.throughput().mean,
            global.throughput().mean
        );
        assert!(global.remote_messages().mean > local.remote_messages().mean);
    }

    #[test]
    fn safe_ratio_floors_denominator() {
        assert_eq!(safe_ratio(10.0, 0.0, 0.25), 40.0);
        assert_eq!(safe_ratio(10.0, 5.0, 0.25), 2.0);
        assert_eq!(safe_ratio(0.0, 5.0, 0.25), 0.05);
    }
}
