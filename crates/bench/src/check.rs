//! The invariant oracle's configuration for each run spec: `--check`
//! ([`crate::experiment`]) streams every run of a grid through
//! [`monitor::CheckSink`] configured by [`config_for`].

use monitor::CheckConfig;

use crate::harness::SimSpec;
use crate::params;

/// The oracle configuration matching one run spec's protocol semantics
/// (see [`ProtocolKind::check_config`] and
/// [`CeilingArchitecture::check_config`]).
///
/// [`ProtocolKind::check_config`]: rtlock::ProtocolKind::check_config
/// [`CeilingArchitecture::check_config`]: rtlock::distributed::CeilingArchitecture::check_config
pub fn config_for(sim: &SimSpec) -> CheckConfig {
    match sim {
        SimSpec::SingleSite(s) => s.protocol.check_config(s.restart_victims),
        SimSpec::Distributed(s) => s.architecture.check_config(params::DIST_SITES),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{DistributedSpec, SingleSiteSpec, Sweep};
    use rtlock::distributed::CeilingArchitecture;
    use rtlock::ProtocolKind;

    #[test]
    fn single_site_configs_track_protocol_semantics() {
        let ceiling = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::PriorityCeiling,
            5,
            10,
        )));
        assert!(ceiling.ceiling);
        assert!(ceiling.exclusive_locks);
        let to = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::TimestampOrdering,
            5,
            10,
        )));
        assert!(!to.ceiling);
        assert!(!to.exclusive_locks);
        let tpl = config_for(&SimSpec::SingleSite(SingleSiteSpec::figure(
            ProtocolKind::TwoPhaseLocking,
            5,
            10,
        )));
        assert!(!tpl.ceiling);
        assert!(tpl.exclusive_locks);
    }

    #[test]
    fn distributed_configs_track_architecture() {
        let local = config_for(&SimSpec::Distributed(DistributedSpec::figure(
            CeilingArchitecture::LocalReplicated,
            0.5,
            1,
            10,
        )));
        assert!(local.distributed && local.replicated && local.ceiling);
        assert_eq!(local.sites, params::DIST_SITES);
        let global = config_for(&SimSpec::Distributed(DistributedSpec::figure(
            CeilingArchitecture::GlobalManager,
            0.5,
            1,
            10,
        )));
        assert!(global.distributed && !global.replicated);
    }

    #[test]
    fn checked_sweep_matches_unchecked_metrics() {
        let mut sweep = Sweep::new();
        sweep.point(
            "C/size=5",
            2,
            SimSpec::SingleSite(SingleSiteSpec::figure(ProtocolKind::PriorityCeiling, 5, 40)),
        );
        let plain = sweep.run(2);
        let checked = sweep.run_checked(2);
        assert!(checked.violations.is_empty(), "{:?}", checked.violations);
        for (a, b) in plain.points.iter().zip(&checked.points) {
            for ((sa, ma), (sb, mb)) in a.runs.iter().zip(&b.runs) {
                assert_eq!(sa, sb);
                assert_eq!(ma.throughput.to_bits(), mb.throughput.to_bits());
                assert_eq!(ma.committed, mb.committed);
            }
        }
    }
}
